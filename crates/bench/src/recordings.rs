//! Recordable experiment stages for `experiments record` / `replay`.
//!
//! Each row of [`RECORDINGS`] names a deterministic simulation run
//! that can be captured as a `dui-replay` recording: the paper's full
//! fig2 / blink-packet / pcc stages plus `-small` variants sized for CI
//! gates and golden fixtures. A recording stores the stage name, so
//! [`build_subject`] can reconstruct the matching live subject from the
//! name alone; the config digest then double-checks that the code still
//! builds the exact configuration the recording was taken under.

use crate::par::task_seed;
use crate::stages::{c4_blink, c6_pcc_pin, unattacked};
use dui_core::blink::fastsim::AttackSimConfig;
use dui_core::netsim::time::{SimDuration, SimTime};
use dui_core::replay::{FastSimSubject, ReplaySubject, SimulatorSubject};
use dui_core::scenario::{BlinkScenario, BlinkScenarioConfig, PccScenario, PccScenarioConfig};
use dui_core::stats::digest::StateDigest;
use dui_core::stats::table::Table;

/// One stage `experiments record` accepts: a row of [`RECORDINGS`].
pub struct Recordable {
    /// The name `record` takes and the recording stores.
    pub name: &'static str,
    /// Default checkpoint interval in events: sized so a recording
    /// holds a useful handful of checkpoints without the snapshot
    /// payloads dominating the file.
    pub ckpt_every: u64,
    /// Build the live subject.
    pub build: fn() -> StageSubject,
}

/// Every recordable stage. The full-size rows replicate the
/// corresponding experiment stages; the `-small` variants shrink the
/// workload so that recording, replay and resume complete in seconds
/// (they are what `scripts/verify.sh` and the golden-trace fixtures
/// use).
pub const RECORDINGS: &[Recordable] = &[
    Recordable {
        name: "fig2",
        ckpt_every: 200_000,
        build: || fig2_subject(AttackSimConfig::fig2()),
    },
    Recordable {
        name: "fig2-small",
        ckpt_every: 2_000,
        build: || {
            fig2_subject(AttackSimConfig {
                legit_flows: 120,
                malicious_flows: 8,
                horizon: SimDuration::from_secs(60),
                ..AttackSimConfig::fig2()
            })
        },
    },
    Recordable {
        name: "blink-packet",
        ckpt_every: 100_000,
        // The C4 stage's unguarded run.
        build: || {
            let (cfg, end) = c4_blink();
            blink_subject(&cfg, end)
        },
    },
    Recordable {
        name: "blink-packet-small",
        ckpt_every: 2_000,
        build: || {
            let cfg = BlinkScenarioConfig {
                legit_flows: 40,
                malicious_flows: 8,
                trigger_at: Some(SimTime::from_secs(20)),
                horizon: SimDuration::from_secs(30),
                seed: 21,
                ..Default::default()
            };
            blink_subject(&cfg, SimTime::from_secs(25))
        },
    },
    Recordable {
        name: "pcc",
        ckpt_every: 500_000,
        // To the C6 run's horizon.
        build: || pcc_subject(c6_pcc_pin().1),
    },
    // Even the small PCC run is event-dense (~70k engine events per
    // simulated second), so its horizon is the shortest of the family.
    Recordable {
        name: "pcc-small",
        ckpt_every: 25_000,
        build: || pcc_subject(SimTime::from_secs(5)),
    },
];

/// Build the live subject for a [`RECORDINGS`] name. `None` for an
/// unknown stage.
pub fn build_subject(stage: &str) -> Option<StageSubject> {
    RECORDINGS.iter().find(|r| r.name == stage).map(|r| (r.build)())
}

/// A live simulation ready to be driven by a `Recorder` or `Replayer`.
pub enum StageSubject {
    /// The Blink flow-level fast simulation (fig2 family). Fully
    /// restorable, so its recordings support mid-run resume.
    Fast(FastSimSubject),
    /// The packet-level discrete-event engine run to a fixed end time
    /// (blink-packet / pcc families). Restorable only when the engine
    /// itself is checkpointable; hash-only otherwise.
    Engine(SimulatorSubject),
}

impl StageSubject {
    /// The subject as a `dyn ReplaySubject` for recording or replay.
    pub fn as_subject_mut(&mut self) -> &mut dyn ReplaySubject {
        match self {
            StageSubject::Fast(s) => s,
            StageSubject::Engine(s) => s,
        }
    }

    /// After a completed run: the stage's time-series CSV, if the stage
    /// produces one (the fig2 family's malicious-cell occupancy).
    ///
    /// The same extraction runs after `record`, `replay` and
    /// `replay --resume`, so a resumed run's CSV can be byte-compared
    /// against the uninterrupted one.
    pub fn series_csv(self) -> Option<Table> {
        match self {
            StageSubject::Fast(s) => {
                let res = s.into_result();
                let mut csv = Table::new(["t_s", "malicious_cells"]);
                for &(t, v) in res.series.points() {
                    csv.row_f64(&[t, v], 6);
                }
                Some(csv)
            }
            StageSubject::Engine(_) => None,
        }
    }
}

fn blink_config_digest(cfg: &BlinkScenarioConfig, end: SimTime) -> u64 {
    let mut d = StateDigest::labeled("blink-scenario");
    d.write_usize(cfg.legit_flows);
    d.write_usize(cfg.malicious_flows);
    d.write_f64(cfg.mean_lifetime_secs);
    d.write_u64(cfg.pkt_interval.0);
    d.write_u64(cfg.attack_start.0);
    d.write_opt_u64(cfg.trigger_at.map(|t| t.0));
    d.write_bool(cfg.guarded);
    d.write_u64(cfg.horizon.0);
    d.write_u64(cfg.seed);
    d.write_u64(end.0);
    d.finish()
}

fn pcc_config_digest(cfg: &PccScenarioConfig, end: SimTime) -> u64 {
    let mut d = StateDigest::labeled("pcc-scenario");
    d.write_usize(cfg.flows);
    d.write_bool(cfg.attacked);
    d.write_opt_u64(cfg.pin_to.map(f64::to_bits));
    d.write_f64(cfg.control.eps_max);
    d.write_u64(cfg.seed);
    d.write_u64(end.0);
    d.finish()
}

fn fig2_subject(cfg: AttackSimConfig) -> StageSubject {
    StageSubject::Fast(FastSimSubject::new(cfg, task_seed(1, 0)))
}

fn blink_subject(cfg: &BlinkScenarioConfig, end: SimTime) -> StageSubject {
    let digest = blink_config_digest(cfg, end);
    let sc = BlinkScenario::build(cfg);
    StageSubject::Engine(SimulatorSubject::new(sc.sim, end, digest))
}

/// The clean (unattacked) C6 convergence run up to `end`: the §4.2
/// equalizer tap is a hidden observer the engine refuses to checkpoint,
/// so the recordable scenario is the baseline the attack is measured
/// against.
fn pcc_subject(end: SimTime) -> StageSubject {
    let cfg = unattacked(&c6_pcc_pin().0);
    let digest = pcc_config_digest(&cfg, end);
    let sc = PccScenario::build(&cfg);
    StageSubject::Engine(SimulatorSubject::new(sc.sim, end, digest))
}
