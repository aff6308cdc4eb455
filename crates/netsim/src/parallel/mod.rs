//! Sharded deterministic parallel packet engine.
//!
//! This module runs the simulator's event loop across topology
//! *domains* — latency-bounded partitions computed by
//! [`partition::DomainMap::partition`] — while producing **byte-identical
//! results** to the sequential engine at any `--sim-threads N`,
//! including N = 1. The contract covers everything observable: CSVs,
//! telemetry JSONL, state digests, and every golden checkpoint hash.
//!
//! # How barrier windows preserve the sequential `(time, seq)` pop order
//!
//! The sequential engine pops events in `(time, seq)` order, where `seq`
//! is a global counter stamped at schedule time. Because schedule calls
//! only happen inside dispatches, and dispatches themselves happen in
//! `(time, seq)` order, the tie-break at equal times is equivalent to
//! the lexicographic pair *(global index of the scheduling dispatch,
//! schedule-call position within it)* — see [`key`] for the encoding.
//!
//! The parallel engine reproduces that order exactly with conservative
//! synchronization:
//!
//! 1. The next window starts at `W`, the earliest pending event time
//!    across all domains, and extends to `W + L` where `L` is the
//!    **lookahead** — the minimum propagation delay over cut links. A
//!    dispatch at time `s < W + L` can only affect another domain at
//!    `s + prop ≥ W + L`, so inside a window every domain is causally
//!    independent and can run unsynchronized.
//! 2. Within a window each domain pops the minimum of its keyed wheel
//!    (resolved keys) and its fresh-heap (provisional keys for events
//!    scheduled *this* window). Provisional keys sort after resolved
//!    keys at equal time, matching the sequential fact that in-window
//!    schedules carry later sequence numbers.
//! 3. At the barrier, a K-way merge of the domains' dispatch records by
//!    `(time, resolved key)` reconstructs the global dispatch order —
//!    literally the sequential event trace — assigns global dispatch
//!    indices and re-numbers packet ids from a shared cursor in merged
//!    order. That much is serial (the calling thread leads). Each
//!    domain's owner then resolves its provisional keys to final keys,
//!    patches its packet ids, and pulls the cross-domain deliveries
//!    addressed to it out of the other domains' outboxes, sources in
//!    domain-index order.
//!
//! Since every window's merge is a pure function of the domains' window
//! outputs — and those are pure functions of the domain state — no
//! observable result depends on thread count, on which thread owns which
//! domain, or on scheduling. N = 1 runs the same loop with every domain
//! owned by the calling thread and nobody to wait for.
//!
//! # Fallback
//!
//! Where conservative synchronization cannot hold (single-domain
//! topologies — the null-message degenerate case, since a cut with
//! sub-floor lookahead is contracted away rather than throttled) or
//! where machinery consumes inherently sequential streams (link taps,
//! probabilistic faults, tracing, span recording), `run_parallel`
//! returns a [`FallbackReason`] and the caller falls through to the
//! sequential loop. The outcome of the most recent `run_until` is
//! queryable via `Simulator::last_parallel_outcome`.
//!
//! # Contract: packet ids of in-flight packets are engine-internal
//!
//! During a window, newly created packets carry *provisional* ids that
//! are re-numbered at the barrier. Node logic must therefore not read
//! `pkt.id` of packets it did not create and key behavior on it;
//! logics that do (e.g. dedup maps keyed on observed ids) are only
//! sequential-safe. Ids in results, traces, and checkpoints are always
//! final.
//!
//! # Structural telemetry scope
//!
//! Logical metrics (packets created/delivered/dropped, program
//! counters, queue-depth histograms) are *exactly* equal to the
//! sequential engine's. Structural engine metrics (`netsim.arena.*`,
//! `netsim.wheel.*`) measure the machine that ran the events, which
//! under domain decomposition is a different machine: they are
//! byte-identical across every `--sim-threads N ≥ 1` but legitimately
//! differ from a pure sequential run. Golden recordings are sequential;
//! the verify gate compares N = 1, 2 and 4.

pub mod key;
pub mod partition;

pub(crate) mod barrier;
pub(crate) mod domain;
mod engine;
mod sync;

pub(crate) use domain::DomainExt;
pub use partition::DomainMap;

pub(crate) use engine::run_parallel;

use crate::time::SimDuration;

/// Why a `run_until` under `--sim-threads` fell back to the sequential
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The topology partitions into a single domain (every link is
    /// faster than the lookahead floor), so there is nothing to run in
    /// parallel.
    SingleDomain,
    /// Link taps are installed; taps observe a single interleaved
    /// packet stream and are inherently sequential.
    TapsInstalled,
    /// Probabilistic link faults (drop probability or jitter) are
    /// active; they consume the engine's single sequential RNG stream.
    ActiveFaults,
    /// Event tracing is enabled; the trace records one interleaved
    /// timeline.
    TraceEnabled,
    /// Span recording is enabled; spans record one interleaved
    /// timeline.
    SpansEnabled,
}

impl FallbackReason {
    /// Short stable slug used in telemetry counter names
    /// (`netsim.parallel.fallback.<key>`) and CSV cells.
    pub fn key(&self) -> &'static str {
        match self {
            FallbackReason::SingleDomain => "single_domain",
            FallbackReason::TapsInstalled => "taps",
            FallbackReason::ActiveFaults => "faults",
            FallbackReason::TraceEnabled => "trace",
            FallbackReason::SpansEnabled => "spans",
        }
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FallbackReason::SingleDomain => "topology partitions into a single domain",
            FallbackReason::TapsInstalled => "link taps installed",
            FallbackReason::ActiveFaults => "probabilistic link faults active",
            FallbackReason::TraceEnabled => "event tracing enabled",
            FallbackReason::SpansEnabled => "span recording enabled",
        };
        f.write_str(s)
    }
}

/// What a parallel `run_until` actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelReport {
    /// Number of topology domains in the decomposition.
    pub domains: usize,
    /// Worker threads used (≤ domains; the calling thread is worker 0).
    pub threads: usize,
    /// Barrier windows executed during this run.
    pub windows: u64,
    /// Conservative lookahead (window width) used.
    pub lookahead: SimDuration,
    /// Events dispatched inside those windows, over all domains.
    pub events: u64,
    /// The share of `events` dispatched by the domains of the thread
    /// that dispatched the most: `events / threads` under perfect
    /// balance, `events` when one thread did all the work.
    pub busiest_thread_events: u64,
}

/// Outcome of the most recent `run_until` on a simulator with
/// `sim_threads > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelOutcome {
    /// The run executed under the parallel engine.
    Ran(ParallelReport),
    /// The run fell back to the sequential engine.
    Fallback(FallbackReason),
}
