//! The sharded streaming pipeline: producers → bounded SPSC channels →
//! worker shards → canonical verdict sink.
//!
//! Concurrency discipline: ownership plus `std::sync` only, decided by
//! `#![forbid(unsafe_code)]` and `Send`/`Sync` rather than by
//! convention. Each producer owns its sending half, each worker owns
//! its receivers and its groups' signal state, and nothing is shared
//! mutably — workers return their verdict batches by value and the sink
//! folds them single-threaded. Shard 0 runs on the calling thread, so
//! at the default `workers: 1` the only threads spawned are producers.
//!
//! No deadlock across channels: a worker blocks only on a channel that
//! is *empty* while holding a head from every other open one, producers
//! do not wait on each other, and within one channel the
//! [`dui_telemetry::channel`] argument applies (a full queue's sender
//! is woken before its receiver can find the queue empty).
//!
//! Determinism: see the crate-level docs. Everything the pipeline
//! *emits* (the verdict log) is a pure function of the producers'
//! frame sequences; everything it *measures* (latency, throughput)
//! comes from an injected [`Clock`] and is reported out-of-band.

use crate::signals::{SignalBank, SignalConfig};
use crate::verdict::{to_jsonl, Verdict};
use dui_telemetry::channel::{bounded, Receiver};
use dui_telemetry::delta::Frame;
use dui_telemetry::LogHistogram;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;

/// Injected wall-clock: returns monotonic nanoseconds. This crate
/// never reads a clock itself (the `determinism/wall-clock` lint rule
/// allows only `dui-bench` to) — the bench
/// harness passes a real clock to measure verdict latency, and
/// deterministic tests pass `None` (all timestamps zero, no latency
/// samples recorded).
pub type Clock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Pipeline configuration.
#[derive(Clone)]
pub struct Config {
    /// Worker threads the group shards are distributed over (≥ 1).
    /// The verdict log is byte-identical for every value.
    pub workers: usize,
    /// Per-producer channel capacity; a full channel blocks its
    /// producer (backpressure) rather than buffering unboundedly.
    pub channel_capacity: usize,
    /// Signal wiring and thresholds for every group's
    /// [`SignalBank`].
    pub signals: SignalConfig,
    /// Optional wall clock for latency accounting.
    pub clock: Option<Clock>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            workers: 1,
            channel_capacity: 64,
            signals: SignalConfig::default(),
            clock: None,
        }
    }
}

/// Addressing for one producer stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProducerSpec {
    /// Stable producer id; stamped onto every frame the producer
    /// emits (overriding whatever the source iterator carried, so the
    /// merge key is trustworthy).
    pub id: u32,
    /// Group key the producer's frames are sharded and evaluated
    /// under. Producers sharing a group feed one combined signal bank
    /// (e.g. the members of one Pytheas group).
    pub group: String,
}

/// What one pipeline run produced.
pub struct PipelineReport {
    /// All verdicts in canonical `(epoch, producer, seq)` order.
    pub verdicts: Vec<Verdict>,
    /// Frames ingested (= verdicts emitted).
    pub frames: u64,
    /// Ingest→verdict latency in nanoseconds; empty unless a
    /// [`Clock`] was injected. Non-deterministic by nature — never
    /// byte-compare it.
    pub latency_ns: LogHistogram,
}

impl PipelineReport {
    /// The canonical verdict log (JSONL, one verdict per line) —
    /// byte-identical across worker counts.
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.verdicts)
    }
}

/// FNV-1a group-key hash → shard index. Stable across runs and
/// platforms; depends only on the group string and the worker count.
fn shard_of(group: &str, workers: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in group.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % workers as u64) as usize
}

/// One receiver a worker merges from, with its addressing.
struct WorkerInput {
    producer: u32,
    group: String,
    rx: Receiver<Frame>,
}

/// Run the pipeline to completion: spawn one thread per producer and
/// one per worker shard after the first (shard 0 is drained by the
/// calling thread), stream every source dry, and return the merged
/// report. Producer sources are plain frame iterators (typically driven
/// by a [`DeltaEncoder`](dui_telemetry::delta::DeltaEncoder)); the
/// frames of each producer must carry strictly increasing `seq`.
pub fn run<I>(cfg: &Config, producers: Vec<(ProducerSpec, I)>) -> PipelineReport
where
    I: Iterator<Item = Frame> + Send,
{
    let workers = cfg.workers.max(1);
    let mut inputs: Vec<Vec<WorkerInput>> = (0..workers).map(|_| Vec::new()).collect();
    let mut sources = Vec::new();
    for (spec, iter) in producers {
        let (tx, rx) = bounded::<Frame>(cfg.channel_capacity.max(1));
        inputs[shard_of(&spec.group, workers)].push(WorkerInput {
            producer: spec.id,
            group: spec.group.clone(),
            rx,
        });
        sources.push((spec, iter, tx));
    }

    let mut results: Vec<(Vec<Verdict>, LogHistogram, u64)> = Vec::new();
    thread::scope(|s| {
        for (spec, iter, tx) in sources {
            let clock = cfg.clock.clone();
            s.spawn(move || {
                for mut frame in iter {
                    frame.producer = spec.id;
                    if let Some(c) = &clock {
                        frame.ingest_ns = c();
                    }
                    if tx.send(frame).is_err() {
                        break;
                    }
                }
            });
        }
        let mut shards = inputs.into_iter();
        let first = shards.next().unwrap_or_default();
        let handles: Vec<_> = shards
            .map(|chans| {
                let clock = cfg.clock.clone();
                let signals = &cfg.signals;
                s.spawn(move || worker_loop(chans, signals, clock))
            })
            .collect();
        // Shard 0 on this thread: its verdicts are allocated where the
        // caller will read and free them, not in whichever malloc arena
        // a short-lived worker thread was handed.
        results.push(worker_loop(first, &cfg.signals, cfg.clock.clone()));
        for h in handles {
            // lint: allow(panic): a worker panic is unrecoverable; propagate it
            results.push(h.join().expect("supervisord worker panicked"));
        }
    });

    let mut verdicts = Vec::new();
    let mut latency_ns = LogHistogram::new();
    let mut frames = 0u64;
    // Fold in worker-index order so the (non-compared) histogram is at
    // least stable for a fixed worker count.
    for (v, hist, n) in results {
        verdicts.extend(v);
        latency_ns.merge(&hist);
        frames += n;
    }
    // The canonical total order: unique per frame, so the sort fully
    // erases worker scheduling and worker count.
    verdicts.sort_by_key(Verdict::key);
    PipelineReport {
        verdicts,
        frames,
        latency_ns,
    }
}

/// Drain a shard: k-way merge this worker's channels by
/// `(epoch, producer, seq)`, feeding each frame to its group's signal
/// bank. Blocks on the laggard channel so the merge always compares a
/// full set of heads — that (plus SPSC FIFO order) is what makes the
/// per-group processing order independent of which other groups share
/// the worker.
fn worker_loop(
    chans: Vec<WorkerInput>,
    signals: &SignalConfig,
    clock: Option<Clock>,
) -> (Vec<Verdict>, LogHistogram, u64) {
    let mut heads: Vec<Option<Frame>> = (0..chans.len()).map(|_| None).collect();
    let mut open = vec![true; chans.len()];
    let mut banks: BTreeMap<String, SignalBank> = BTreeMap::new();
    let mut verdicts = Vec::new();
    let mut latency = LogHistogram::new();
    let mut frames = 0u64;
    loop {
        for (i, head) in heads.iter_mut().enumerate() {
            if head.is_none() && open[i] {
                match chans[i].rx.recv() {
                    Some(f) => *head = Some(f),
                    None => open[i] = false,
                }
            }
        }
        let mut best: Option<((u64, u32, u64), usize)> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some(f) = head {
                let key = (f.epoch, chans[i].producer, f.seq);
                if best.map_or(true, |(bk, _)| key < bk) {
                    best = Some((key, i));
                }
            }
        }
        let Some((_, i)) = best else {
            break; // every channel drained and closed
        };
        let Some(frame) = heads[i].take() else {
            break; // unreachable: `best` only indexes filled heads
        };
        let group = chans[i].group.as_str();
        let bank = match banks.get_mut(group) {
            Some(bank) => bank,
            None => banks
                .entry(group.to_string())
                .or_insert_with(|| SignalBank::new(signals)),
        };
        let verdict = bank.observe(group, &frame);
        if let Some(c) = &clock {
            latency.record(c().saturating_sub(frame.ingest_ns));
        }
        frames += 1;
        verdicts.push(verdict);
    }
    (verdicts, latency, frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_telemetry::delta::DeltaEncoder;
    use dui_telemetry::Registry;

    /// A deterministic synthetic producer: ramps the Blink gauge when
    /// `attacked`, keeps it low otherwise.
    fn frames(id: u32, attacked: bool, epochs: u64) -> Vec<Frame> {
        let mut reg = Registry::new();
        let g = reg.gauge("blink.cells.malicious");
        let mut enc = DeltaEncoder::new(id);
        let mut out = Vec::new();
        for e in 0..epochs {
            let occupancy = if attacked {
                (8 * (e + 1)).min(60) as f64
            } else {
                2.0
            };
            reg.observe(g, occupancy);
            out.push(enc.encode(e, &reg.snapshot(), 0));
        }
        out
    }

    fn spec(id: u32, group: &str) -> ProducerSpec {
        ProducerSpec {
            id,
            group: group.to_string(),
        }
    }

    fn run_with_workers(workers: usize) -> PipelineReport {
        run_with(workers, Config::default().channel_capacity)
    }

    fn run_with(workers: usize, channel_capacity: usize) -> PipelineReport {
        let cfg = Config {
            workers,
            channel_capacity,
            ..Config::default()
        };
        let producers: Vec<_> = (0..6u32)
            .map(|id| {
                let group = format!("site-{id}");
                (spec(id, &group), frames(id, id == 4, 10).into_iter())
            })
            .collect();
        run(&cfg, producers)
    }

    #[test]
    fn verdict_log_is_worker_count_invariant() {
        let base = run_with_workers(1).to_jsonl();
        for workers in [1, 2, 3, 4, 8] {
            // 10 epochs per producer: at capacity 1 and 2 every sender
            // blocks and the half-queue wake rule is what releases it.
            for capacity in [1, 2, 64] {
                assert_eq!(
                    base,
                    run_with(workers, capacity).to_jsonl(),
                    "workers = {workers}, capacity = {capacity}"
                );
            }
        }
    }

    #[test]
    fn attacked_producer_gets_flagged() {
        let report = run_with_workers(2);
        assert_eq!(report.frames, 60);
        assert_eq!(report.verdicts.len(), 60);
        let flagged: Vec<u32> = report
            .verdicts
            .iter()
            .filter(|v| v.risk > 0.5)
            .map(|v| v.producer)
            .collect();
        assert!(!flagged.is_empty(), "attack never flagged");
        assert!(flagged.iter().all(|&p| p == 4), "false positives: {flagged:?}");
        // No clock injected: no latency samples.
        assert_eq!(report.latency_ns.count(), 0);
    }

    #[test]
    fn verdicts_come_out_in_canonical_order() {
        let report = run_with_workers(3);
        let keys: Vec<_> = report.verdicts.iter().map(Verdict::key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn injected_clock_populates_latency() {
        let cfg = Config {
            workers: 2,
            clock: Some(Arc::new(|| 7)),
            ..Config::default()
        };
        let producers = vec![(spec(0, "g"), frames(0, false, 4).into_iter())];
        let report = run(&cfg, producers);
        assert_eq!(report.latency_ns.count(), 4);
        // Constant clock → zero latency, and the log is still the same
        // as the clockless run (timestamps never reach the log).
        let clockless = run(
            &Config::default(),
            vec![(spec(0, "g"), frames(0, false, 4).into_iter())],
        );
        assert_eq!(report.to_jsonl(), clockless.to_jsonl());
    }

    #[test]
    fn shared_group_merges_producers_deterministically() {
        // Two producers in one group, interleaved epochs: the group's
        // signal bank sees frames in (epoch, producer, seq) order no
        // matter the worker count.
        let mk = |workers: usize| {
            let cfg = Config {
                workers,
                ..Config::default()
            };
            let producers: Vec<_> = (0..2u32)
                .map(|id| (spec(id, "shared"), frames(id, id == 1, 12).into_iter()))
                .collect();
            run(&cfg, producers).to_jsonl()
        };
        let base = mk(1);
        assert_eq!(base, mk(2));
        assert_eq!(base, mk(4));
    }
}
