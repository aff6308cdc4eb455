//! Snapshot delta/sequence framing for streaming telemetry.
//!
//! A long-running producer (one simulation, one site) periodically
//! freezes its [`Registry`](crate::Registry) into a
//! [`Snapshot`] and ships only the *change* since the
//! previous freeze, wrapped in a [`Frame`] that carries enough
//! addressing for a downstream consumer (the `dui_defense::supervisord`
//! pipeline) to re-establish a deterministic total order:
//!
//! * `producer` — stable id of the emitting stream,
//! * `seq` — per-producer sequence number, contiguous from 0,
//! * `epoch` — producer-local logical time bucket, non-decreasing.
//!
//! Frames from one producer are totally ordered by `seq`; frames from
//! different producers are ordered by `(epoch, producer, seq)`. Because
//! [`Snapshot::merge`] is associative and commutative (see
//! `crates/telemetry/tests/properties.rs`), folding a producer's deltas
//! back together in that canonical order reconstructs its cumulative
//! snapshot regardless of how the frames were sharded in between.
//!
//! A delta shares the name tables of the snapshot it encodes, and
//! [`DeltaEncoder`] overwrites its previous snapshot in place, so a
//! steady-state `encode` allocates only the delta's value vectors.
//!
//! ```
//! use dui_telemetry::{delta::DeltaEncoder, Registry, Snapshot};
//!
//! let mut reg = Registry::new();
//! let c = reg.counter("pkts");
//! let mut enc = DeltaEncoder::new(7);
//!
//! reg.add(c, 3);
//! let f0 = enc.encode(0, &reg.snapshot(), 0);
//! assert_eq!((f0.producer, f0.seq, f0.delta.counter("pkts")), (7, 0, 3));
//!
//! reg.add(c, 2);
//! let f1 = enc.encode(1, &reg.snapshot(), 0);
//! assert_eq!((f1.seq, f1.delta.counter("pkts")), (1, 2));
//!
//! // Folding the deltas reconstructs the cumulative snapshot.
//! let mut total = Snapshot::default();
//! total.merge(&f0.delta);
//! total.merge(&f1.delta);
//! assert_eq!(total.counter("pkts"), 5);
//! ```

use crate::registry::Snapshot;

/// One framed snapshot delta on a producer stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Stable id of the producer that emitted this frame.
    pub producer: u32,
    /// Per-producer sequence number, contiguous from 0.
    pub seq: u64,
    /// Producer-local logical time bucket; non-decreasing in `seq`.
    pub epoch: u64,
    /// Wall-clock nanoseconds at ingest, for latency accounting only.
    /// Always 0 under a deterministic clock; never compared across
    /// runs and never serialized into byte-compared artifacts.
    pub ingest_ns: u64,
    /// The metric change since the producer's previous frame.
    pub delta: Snapshot,
}

/// Per-producer encoder turning cumulative snapshots into framed
/// deltas. Keeps the previous snapshot; each [`encode`](Self::encode)
/// call diffs against it and advances the sequence number.
#[derive(Debug, Clone, Default)]
pub struct DeltaEncoder {
    producer: u32,
    next_seq: u64,
    prev: Snapshot,
}

impl DeltaEncoder {
    /// A fresh encoder for producer `producer`; the first frame's delta
    /// is the full snapshot (diff against empty).
    pub fn new(producer: u32) -> Self {
        DeltaEncoder {
            producer,
            next_seq: 0,
            prev: Snapshot::default(),
        }
    }

    /// Frame the change from the previously-encoded snapshot to
    /// `current`. `ingest_ns` stamps the frame for latency accounting
    /// (pass 0 when no wall clock is in play).
    pub fn encode(&mut self, epoch: u64, current: &Snapshot, ingest_ns: u64) -> Frame {
        let delta = self.prev.advance_to(current);
        let seq = self.next_seq;
        self.next_seq += 1;
        Frame {
            producer: self.producer,
            seq,
            epoch,
            ingest_ns,
            delta,
        }
    }

    /// Sequence number the next [`encode`](Self::encode) will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn idle_interval_encodes_empty_delta() {
        let mut reg = Registry::new();
        let c = reg.counter("x");
        reg.inc(c);
        let mut enc = DeltaEncoder::new(1);
        let f0 = enc.encode(0, &reg.snapshot(), 0);
        assert_eq!(f0.delta.counter("x"), 1);
        let f1 = enc.encode(1, &reg.snapshot(), 0);
        assert!(f1.delta.is_empty());
        assert_eq!(f1.seq, 1);
    }

    #[test]
    fn encoder_remembers_exactly_the_last_snapshot() {
        // `prev` is updated in place, so it must also *lose* what the
        // latest snapshot no longer carries: a metric that vanishes and
        // comes back is diffed against nothing, not against its old self.
        let with_x = |v: u64| Snapshot {
            counters: [("x", v), ("y", v)].into_iter().collect(),
            ..Snapshot::default()
        };
        let without_x = Snapshot {
            counters: [("y", 6)].into_iter().collect(),
            ..Snapshot::default()
        };
        let mut enc = DeltaEncoder::new(0);
        assert_eq!(enc.encode(0, &with_x(5), 0).delta.counter("x"), 5);
        let gone = enc.encode(1, &without_x, 0).delta;
        assert_eq!((gone.counter("x"), gone.counter("y")), (0, 1));
        let back = enc.encode(2, &with_x(7), 0).delta;
        assert_eq!((back.counter("x"), back.counter("y")), (7, 1));
    }

    #[test]
    fn deltas_cover_all_metric_kinds() {
        let mut reg = Registry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        reg.add(c, 2);
        reg.observe(g, 4.0);
        reg.record(h, 10);

        let mut enc = DeltaEncoder::new(0);
        enc.encode(0, &reg.snapshot(), 0);

        reg.add(c, 5);
        reg.observe(g, 8.0);
        reg.record(h, 30);
        let f = enc.encode(1, &reg.snapshot(), 0);
        assert_eq!(f.delta.counter("c"), 5);
        assert_eq!(f.delta.gauge_mean("g"), Some(8.0));
        assert_eq!(f.delta.hist("h").map(|h| h.count()), Some(1));
    }
}
