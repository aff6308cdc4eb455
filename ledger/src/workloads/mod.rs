//! The seven workloads. Each is a fixed, seeded *unit* of work — set-up,
//! then a timed region — that the driver repeats for the run's length,
//! plus a traced variant of the same unit that times the benchmark's own
//! calls into each layer. They call only the layer crates' public
//! functions (`dui_core::*`, `dui_scenario`), never `dui_bench`.

use crate::measure::{Checks, Laps};
use crate::trace::Trace;

pub mod blink_packet;
pub mod dsc_corpus;
pub mod fig2_montecarlo;
pub mod flow_churn;
pub mod replay_verify;
pub mod supervisord_stream;

/// Workload names and why each exists (`BENCHMARK.json` carries the same
/// lines; a unit test holds the two together).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "blink_packet",
        "C4 packet-level Blink run on the sequential engine: netsim wheel/arena/link + tcp host/pool + blink program; ~2.1k flows, cache-resident state",
    ),
    (
        "blink_packet_par2",
        "the identical scenario under set_sim_threads(2): the same layers through netsim::parallel; must report 0 fallbacks and the sequential state hash",
    ),
    (
        "flow_churn",
        "tcp FlowPool with no engine: 400k live slots, admit/evict-heavy RFC 9293 lifecycles, miss-bound where blink_packet is not; an engine change must not move it",
    ),
    (
        "fig2_montecarlo",
        "Fig. 2 Monte-Carlo replicates plus the theory envelope: blink selector/fastsim + flowgen + stats, no engine and no tcp",
    ),
    (
        "supervisord_stream",
        "telemetry + defense::streaming + supervisord with no simulator: closed loop of 8 producer threads blocking on 64-deep channels into 1 worker",
    ),
    (
        "dsc_corpus",
        "the frozen 16-file .dsc corpus: only user of dui-scenario; drives the engine through taps, faults, flaps, SYN floods, PCC and Pytheas; expectations are the checks",
    ),
    (
        "replay_verify",
        "record, encode, decode and verify one Blink run in memory: the replay hash/codec/checkpoint path, memory-heavy",
    ),
];

/// What one unit produced: how many operations it performed (the
/// workload's op unit) and a digest of its simulated outcome. Both are
/// deterministic for a seed, so every unit of a run — timed or traced —
/// must produce the same `Unit`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unit {
    pub ops: u64,
    pub digest: u64,
}

/// One benchmark workload, already bound to its seed and size.
pub trait Workload {
    /// What set-up builds and the timed region works on.
    type State;

    fn name(&self) -> &'static str;

    /// The frozen size of one unit, for the ledger's provenance block.
    fn size(&self) -> String;

    /// Everything before the timed region: scenario and topology build,
    /// flow generation, warm admission, corpus read. Timed as `setup_s`.
    fn setup(&self) -> Self::State;

    /// The timed region; returns the operations performed. It calls
    /// `laps.mark()` at fixed points, cutting the unit into segments that
    /// are the same work in every unit (see `measure::fastest_segments`).
    fn run(&self, state: &mut Self::State, laps: &mut Laps) -> u64;

    /// Digest of the simulated outcome the timed region left in `state`
    /// (untimed: hashing 400k flow slots is not the workload).
    fn digest(&self, state: &mut Self::State) -> u64;

    /// Untimed output checks on the state a unit left behind.
    fn verify(&self, _state: &mut Self::State, _checks: &mut Checks) {}

    /// Untimed checks made once per run, after the last unit.
    fn cross_check(&self, _unit: &Unit, _checks: &mut Checks) {}

    /// One traced unit: the same work as `setup` + `run`, with spans
    /// around the calls into each layer. Returns the unit's outcome so
    /// the driver can check *timed == traced*.
    fn trace(&self, trace: &mut Trace, checks: &mut Checks) -> Unit;
}
