//! Supervisor-as-a-service: the paper's §5 driver/supervisor loop
//! (Fig. 3) productionized into a streaming detection pipeline. Where
//! the `defenses` experiment stage scores one frozen telemetry snapshot
//! with a window of one, this module runs the same signals *online*: N
//! concurrent simulation producers ship
//! [`Frame`](dui_telemetry::delta::Frame)d snapshot deltas over bounded
//! channels, the pipeline shards them by group key onto worker
//! threads, folds each group's deltas into the windowed
//! [`streaming`](crate::streaming) signals (Blink cell occupancy,
//! Pytheas group outliers, PCC drop-pattern asymmetry, SYN backlog), and
//! emits one [`Verdict`] per frame (action and PCC ε clamp) into a
//! deterministic, totally-ordered JSONL log.
//!
//! ## Dataflow
//!
//! ```text
//!  producer 0 ──SPSC──▶
//!  producer 1 ──SPSC──▶  worker shard(g)   ┐
//!      …                 (k-way merge by   ├─▶ sink: canonical sort,
//!  producer N ──SPSC──▶   epoch,producer,  ┘    verdict JSONL
//!                         seq; per-group
//!                         windowed signals)
//! ```
//!
//! ## Determinism contract
//!
//! The verdict log obeys the same contract as the parallel packet
//! engine (docs/determinism.md, invariants D1–D7): **byte-identical
//! across worker counts**. The argument has three steps:
//!
//! 1. each producer's channel preserves its `seq` order (SPSC FIFO);
//! 2. each worker merges its producers' streams by the total key
//!    `(epoch, producer, seq)`, so the frames of any *one group* are
//!    processed in the same order no matter which other groups share
//!    the worker — and group state never crosses workers because a
//!    group's frames always hash to a single shard;
//! 3. the sink orders all verdicts by the same total key, erasing any
//!    cross-worker scheduling nondeterminism.
//!
//! Wall-clock throughput and latency are *measured* (via an injected
//! [`Clock`] — this module never reads a clock itself)
//! and reported separately; they are explicitly non-deterministic and
//! never serialized into the byte-compared log. See
//! docs/supervisord.md for the full chapter.

pub mod pipeline;
pub mod signals;
pub mod verdict;

pub use pipeline::{run, Clock, Config, PipelineReport, ProducerSpec};
pub use signals::{SignalBank, SignalConfig};
pub use verdict::{Action, GroupName, Verdict};
