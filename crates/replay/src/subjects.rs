//! Ready-made [`ReplaySubject`] adapters for the workspace's two
//! simulation engines.
//!
//! * [`FastSimSubject`] wraps the Blink flow-level fast simulation
//!   (`dui-blink`'s `AttackSim`) — fully restorable, so its recordings
//!   support mid-run resume.
//! * [`SimulatorSubject`] wraps the packet-level discrete-event engine
//!   (`dui-netsim`'s `Simulator`) run to a fixed end time — restorable
//!   when no part of its state refuses to be written as bytes (no link
//!   tap, program, rewriter or logic without a decoder), hash-only
//!   otherwise.
//!
//! Either way a checkpoint is one walk over the subject's sectioned
//! state encoder (`dui_stats::wire::walk`): each section folded under its
//! name is a component digest, and those digests, folded in order, are
//! the state hash.

use crate::replay::{ReplaySubject, StepInfo};
use dui_blink::fastsim::{AttackSim, AttackSimConfig};
use dui_netsim::sim::Simulator;
use dui_netsim::time::SimTime;
use dui_stats::digest::StateDigest;
use dui_stats::wire::{Encoder, Walk};

/// Digest of an [`AttackSimConfig`] plus seed: binds a recording to one
/// exact fast-simulation setup.
pub fn attack_sim_config_digest(cfg: &AttackSimConfig, seed: u64) -> u64 {
    let mut d = StateDigest::labeled("fastsim-config");
    d.write_usize(cfg.params.cells);
    d.write_u64(cfg.params.eviction_timeout.0);
    d.write_u64(cfg.params.reset_interval.0);
    d.write_u64(cfg.params.retx_window.0);
    d.write_usize(cfg.params.threshold);
    d.write_u64(cfg.params.salt);
    d.write_usize(cfg.legit_flows);
    d.write_usize(cfg.malicious_flows);
    d.write_f64(cfg.mean_lifetime_secs);
    d.write_u64(cfg.pkt_interval.0);
    d.write_u64(cfg.horizon.0);
    d.write_u64(cfg.sample_every.0);
    d.u32(cfg.prefix.addr.0);
    d.u8(cfg.prefix.len);
    d.write_u64(seed);
    d.finish()
}

/// The Blink flow-level fast simulation as a replay subject.
///
/// Fully restorable: every checkpoint carries the run's bytes
/// ([`AttackSim::walk`], decoded by [`AttackSim::from_bytes`]), so
/// recordings of this subject support mid-run resume.
pub struct FastSimSubject {
    sim: AttackSim,
    config_digest: u64,
    now: u64,
}

impl FastSimSubject {
    /// Build a fresh fast simulation under `cfg` with `seed`.
    pub fn new(cfg: AttackSimConfig, seed: u64) -> Self {
        let config_digest = attack_sim_config_digest(&cfg, seed);
        let sim = AttackSim::new(&cfg, seed);
        FastSimSubject {
            sim,
            config_digest,
            now: 0,
        }
    }

    /// The wrapped simulation.
    pub fn sim(&self) -> &AttackSim {
        &self.sim
    }

    /// Mutable access to the wrapped simulation (fault-injection hook
    /// for divergence self-tests).
    pub fn sim_mut(&mut self) -> &mut AttackSim {
        &mut self.sim
    }

    /// Finish the run and extract its result (series, residency stats).
    pub fn into_result(self) -> dui_blink::fastsim::AttackSimResult {
        self.sim.into_result()
    }
}

impl ReplaySubject for FastSimSubject {
    fn config_digest(&self) -> u64 {
        self.config_digest
    }

    fn now_ns(&self) -> u64 {
        self.now
    }

    fn step(&mut self) -> Option<StepInfo> {
        let t = self.sim.step()?;
        self.now = t.0;
        // The per-event digest folds the RNG words and packet count: any
        // injected state corruption surfaces on the very next frame
        // rather than only at the following checkpoint.
        const STEP_DIGEST: StateDigest = StateDigest::labeled("fastsim-step");
        let mut d = STEP_DIGEST;
        d.write_u64(t.0);
        for w in self.sim.rng_state() {
            d.write_u64(w);
        }
        d.write_u64(self.sim.packets());
        Some(StepInfo {
            time: t.0,
            kind: "packet",
            digest: d.finish(),
        })
    }

    fn finished(&self) -> bool {
        self.sim.finished()
    }

    fn capture(&self, payload: bool) -> Walk {
        self.sim.walk(payload)
    }

    fn load_checkpoint(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.sim = AttackSim::from_bytes(self.sim.config(), bytes).map_err(|e| e.to_string())?;
        self.now = self.sim.next_clock().map_or(0, |t| t.0);
        Ok(())
    }
}

/// The packet-level discrete-event engine, run until a fixed end time,
/// as a replay subject.
///
/// Checkpoints are restorable when [`Simulator::checkpoint`] succeeds
/// (nothing in the engine refused its bytes); otherwise the recording is
/// hash-only — still fully verifiable, just not resumable.
pub struct SimulatorSubject {
    sim: Simulator,
    end: SimTime,
    config_digest: u64,
    done: bool,
}

impl SimulatorSubject {
    /// Wrap `sim`, to be stepped until `end`. `config_digest` must
    /// identify the scenario + seed that built `sim` (use
    /// [`StateDigest`] over the scenario parameters).
    pub fn new(sim: Simulator, end: SimTime, config_digest: u64) -> Self {
        SimulatorSubject {
            sim,
            end,
            config_digest,
            done: false,
        }
    }

    /// The wrapped engine.
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable access to the wrapped engine.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Consume the subject, returning the engine (for post-run
    /// extraction of experiment outputs).
    pub fn into_sim(self) -> Simulator {
        self.sim
    }
}

impl ReplaySubject for SimulatorSubject {
    fn config_digest(&self) -> u64 {
        self.config_digest
    }

    fn now_ns(&self) -> u64 {
        self.sim.now().0
    }

    fn step(&mut self) -> Option<StepInfo> {
        if self.done {
            return None;
        }
        match self.sim.step_limited(self.end) {
            Some(ev) => Some(StepInfo {
                time: ev.time.0,
                kind: ev.kind,
                digest: ev.digest,
            }),
            None => {
                self.done = true;
                None
            }
        }
    }

    fn finished(&self) -> bool {
        self.done || self.sim.idle_until(self.end)
    }

    fn capture(&self, payload: bool) -> Walk {
        self.sim.walk(payload)
    }

    fn load_checkpoint(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.sim.restore(bytes).map_err(|e| e.to_string())?;
        self.done = self.sim.now() >= self.end;
        Ok(())
    }
}
