//! The recording format: a compact, versioned binary event stream with
//! periodic state checkpoints. A checkpoint's payload is its subject's
//! own codec, beside the subject's type: the engine's in `dui-netsim`
//! (`Simulator::checkpoint`), the fast simulation's in `dui-blink`.
//!
//! Everything is built on the primitives of [`dui_stats::wire`] — LEB128
//! varints for counts/times and fixed 8-byte little-endian words for
//! digests (which are full-entropy and would *expand* under varint
//! coding). No serde, no external crates.
//!
//! ## Layout
//!
//! ```text
//! magic      "DUIR"
//! version    varint (= VERSION)
//! stage      varint len + utf8
//! config     8-byte LE config digest
//! names      varint count, each varint len + utf8   (kinds + components)
//! events     varint count, each:
//!              varint delta-time (ns since previous event)
//!              varint name index (event kind)
//!              8-byte LE event digest
//! ckpts      varint count, each:
//!              varint event index (events applied before this point)
//!              varint absolute time (ns)
//!              8-byte LE state hash
//!              varint component count, each: varint name index + 8-byte digest
//!              payload flag (0/1) + varint len + bytes   (restorable state)
//! final      8-byte LE final state hash
//! ```

use crate::replay::ReplaySubject;
use dui_stats::wire::{DecodeError, Encoder, ErrorKind, Reader, Writer};

/// Recording format magic bytes.
pub const MAGIC: [u8; 4] = *b"DUIR";
/// Current format version. Versions 2 and later changed no byte of the
/// layout; each marks a change of what it carries (docs/determinism.md,
/// "Re-blesses"), so an older file is refused by name rather than
/// failing as a config mismatch or a divergence at its first
/// checkpoint.
pub const VERSION: u64 = 6;

// ---------------------------------------------------------------------------
// Frames and the Recording container
// ---------------------------------------------------------------------------

/// One dispatched event: when, what kind, and the digest of its full
/// content (the event's index is its position in [`Recording::events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFrame {
    /// Absolute event time (ns).
    pub time: u64,
    /// Index into [`Recording::names`] naming the event kind.
    pub kind: u32,
    /// Digest of the event's content.
    pub digest: u64,
}

/// A periodic state checkpoint taken between events.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFrame {
    /// Number of events applied before this checkpoint was taken.
    pub event_index: u64,
    /// Simulated time at the checkpoint (ns).
    pub time: u64,
    /// The subject's full state hash.
    pub state_hash: u64,
    /// Per-component sub-digests `(name index, digest)` — what lets
    /// divergence reports *name* the mismatching subsystem.
    pub components: Vec<(u32, u64)>,
    /// Restorable serialized state, when the subject supports it.
    pub payload: Option<Vec<u8>>,
}

/// One run's complete recording.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recording {
    /// Which experiment stage produced this (e.g. `fig2`).
    pub stage: String,
    /// Digest of the run configuration (seed included); replaying against
    /// a differently-configured subject is refused up front.
    pub config_digest: u64,
    /// Interned names: event kinds and checkpoint component names.
    pub names: Vec<String>,
    /// The event stream, in dispatch order.
    pub events: Vec<EventFrame>,
    /// Periodic checkpoints, in event order.
    pub checkpoints: Vec<CheckpointFrame>,
    /// State hash after the final event.
    pub final_hash: u64,
}

// Smallest encodings, for `Reader::count`: an event is two one-byte
// varints and a digest; a component a varint and a digest; a checkpoint
// two varints, a hash, a component count and a flag. (A name can be one
// length byte.)
const MIN_EVENT_BYTES: usize = 1 + 1 + 8;
const MIN_COMP_BYTES: usize = 1 + 8;
const MIN_CKPT_BYTES: usize = 1 + 1 + 8 + 1 + 1;

impl Recording {
    /// Intern `name`, returning its table index.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "names are the subject's event kinds and component names — a few dozen, far below u32::MAX"
    )]
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u32
    }

    /// Resolve a name index (`"?"` if out of range — a corrupt index is
    /// reported, not panicked on).
    pub fn name(&self, idx: u32) -> &str {
        self.names.get(idx as usize).map_or("?", |s| s.as_str())
    }

    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.events.len() * 12);
        w.raw(&MAGIC);
        w.varint(VERSION);
        w.str(&self.stage);
        w.u64(self.config_digest);
        w.seq(&self.names, |w, n| w.str(n));
        let mut prev = 0u64;
        w.seq(&self.events, |w, e| {
            w.varint(e.time.saturating_sub(prev));
            prev = e.time;
            w.varint(u64::from(e.kind));
            w.u64(e.digest);
        });
        w.seq(&self.checkpoints, |w, c| {
            w.varint(c.event_index);
            w.varint(c.time);
            w.u64(c.state_hash);
            w.seq(&c.components, |w, (name, digest)| {
                w.varint(u64::from(*name));
                w.u64(*digest);
            });
            w.opt(c.payload.as_deref(), Writer::bytes);
        });
        w.u64(self.final_hash);
        w.into_bytes()
    }

    /// Parse the versioned binary format (strict: trailing bytes are an
    /// error).
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, DecodeError> {
        let mut r = Reader::new(bytes);
        r.tag("DUIR magic", &MAGIC)?;
        if r.varint("recording version")? != VERSION {
            return Err(r.error("recording version", ErrorKind::Tag));
        }
        let stage = r.str("stage")?.to_string();
        let config_digest = r.u64("config digest")?;
        let names = r.seq("name count", Reader::varint, 1, |r| {
            Ok(r.str("name")?.to_string())
        })?;
        let mut time = 0u64;
        let events = r.seq("event count", Reader::varint, MIN_EVENT_BYTES, |r| {
            let dt = r.varint("event delta-time")?;
            time = time
                .checked_add(dt)
                .ok_or_else(|| r.error("event time", ErrorKind::Range))?;
            let kind = r.varint_u32("event kind")?;
            let digest = r.u64("event digest")?;
            Ok(EventFrame { time, kind, digest })
        })?;
        let checkpoints = r.seq("checkpoints", Reader::varint, MIN_CKPT_BYTES, |r| {
            Ok(CheckpointFrame {
                event_index: r.varint("checkpoint event index")?,
                time: r.varint("checkpoint time")?,
                state_hash: r.u64("checkpoint state hash")?,
                components: r.seq("component count", Reader::varint, MIN_COMP_BYTES, |r| {
                    Ok((r.varint_u32("component name")?, r.u64("component digest")?))
                })?,
                payload: r.opt("checkpoint payload", |r, what| Ok(r.bytes(what)?.to_vec()))?,
            })
        })?;
        let final_hash = r.u64("final hash")?;
        r.finish("recording")?;
        Ok(Recording {
            stage,
            config_digest,
            names,
            events,
            checkpoints,
            final_hash,
        })
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> Result<Recording, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Recording::from_bytes(&bytes).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Drives a [`ReplaySubject`] to completion, producing a [`Recording`]
/// with a checkpoint every `ckpt_every` events (plus one final
/// checkpoint after the last event).
pub struct Recorder {
    rec: Recording,
    ckpt_every: u64,
}

impl Recorder {
    /// New recorder for `stage` (config digest binds the recording to
    /// one exact configuration + seed).
    pub fn new(stage: &str, config_digest: u64, ckpt_every: u64) -> Self {
        assert!(ckpt_every > 0, "checkpoint cadence must be positive");
        Recorder {
            rec: Recording {
                stage: stage.to_string(),
                config_digest,
                ..Recording::default()
            },
            ckpt_every,
        }
    }

    /// Append one checkpoint frame, one walk; returns its state hash.
    fn take_checkpoint<S: ReplaySubject + ?Sized>(&mut self, subject: &S, event_index: u64) -> u64 {
        let walk = subject.capture(true);
        let components = walk
            .sections
            .into_iter()
            .map(|(name, digest)| (self.rec.intern(name), digest))
            .collect();
        self.rec.checkpoints.push(CheckpointFrame {
            event_index,
            time: subject.now_ns(),
            state_hash: walk.hash,
            components,
            payload: walk.bytes.map(Writer::into_bytes),
        });
        walk.hash
    }

    /// Run `subject` to completion, recording every event and a
    /// checkpoint every `ckpt_every` events.
    ///
    /// A subject's terminal `step()` (the one returning `None`) may
    /// itself mutate state — the packet engine advances its clock to the
    /// limit, the fast simulation flushes its tail samples. The final
    /// checkpoint is therefore always taken *after* that terminal step,
    /// replacing any boundary checkpoint that landed on the same event
    /// index, and the [`Replayer`](crate::replay::Replayer) performs the
    /// terminal step before checking it.
    pub fn record<S: ReplaySubject + ?Sized>(mut self, subject: &mut S) -> Recording {
        let mut n = 0u64;
        self.take_checkpoint(subject, 0);
        while let Some(step) = subject.step() {
            let kind = self.rec.intern(step.kind);
            self.rec.events.push(EventFrame {
                time: step.time,
                kind,
                digest: step.digest,
            });
            n += 1;
            if n.is_multiple_of(self.ckpt_every) {
                self.take_checkpoint(subject, n);
            }
        }
        // The terminal step already ran; a boundary checkpoint taken just
        // before it would capture pre-terminal state under the same event
        // index. Keep exactly one post-terminal checkpoint at index n.
        if self
            .rec
            .checkpoints
            .last()
            .is_some_and(|c| c.event_index == n)
        {
            self.rec.checkpoints.pop();
        }
        self.rec.final_hash = self.take_checkpoint(subject, n);
        self.rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_round_trips() {
        let mut rec = Recording {
            stage: "fig2".into(),
            config_digest: 0xDEAD_BEEF,
            final_hash: 42,
            ..Recording::default()
        };
        let k = rec.intern("packet");
        rec.events.push(EventFrame {
            time: 100,
            kind: k,
            digest: 7,
        });
        rec.events.push(EventFrame {
            time: 250,
            kind: k,
            digest: u64::MAX,
        });
        let c = rec.intern("rng");
        rec.checkpoints.push(CheckpointFrame {
            event_index: 2,
            time: 250,
            state_hash: 9,
            components: vec![(c, 11)],
            payload: Some(vec![1, 2, 3]),
        });
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn recording_rejects_corruption() {
        let rec = Recording {
            stage: "x".into(),
            ..Recording::default()
        };
        let mut bytes = rec.to_bytes();
        bytes[0] = b'X';
        assert!(Recording::from_bytes(&bytes).is_err(), "bad magic");
        let mut bytes = rec.to_bytes();
        bytes.push(0);
        assert!(Recording::from_bytes(&bytes).is_err(), "trailing bytes");
        assert!(
            Recording::from_bytes(&rec.to_bytes()[..5]).is_err(),
            "truncated"
        );
    }

    #[test]
    fn version_1_recordings_are_refused_by_name() {
        let mut bytes = Recording::default().to_bytes();
        assert_eq!(
            u64::from(bytes[MAGIC.len()]),
            VERSION,
            "the version varint follows the magic"
        );
        for old in [1, 2, 3, 4, 5] {
            bytes[MAGIC.len()] = old;
            let err = Recording::from_bytes(&bytes).unwrap_err();
            assert_eq!((err.what, err.kind), ("recording version", ErrorKind::Tag));
        }
    }
}
