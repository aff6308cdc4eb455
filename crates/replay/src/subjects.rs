//! Ready-made [`ReplaySubject`] adapters for the workspace's two
//! simulation engines.
//!
//! * [`FastSimSubject`] wraps the Blink flow-level fast simulation
//!   (`dui-blink`'s `AttackSim`) — fully restorable, so its recordings
//!   support mid-run resume.
//! * [`SimulatorSubject`] wraps the packet-level discrete-event engine
//!   (`dui-netsim`'s `Simulator`) run to a fixed end time — restorable
//!   when every node logic supports `save_state` and no taps are
//!   installed, hash-only otherwise.

use crate::record::{
    attack_sim_snapshot_from_bytes, attack_sim_snapshot_to_bytes, engine_checkpoint_from_bytes,
    engine_checkpoint_to_bytes,
};
use crate::replay::{ReplaySubject, StepInfo};
use dui_blink::fastsim::{AttackSim, AttackSimConfig, AttackSimSnapshot};
use dui_netsim::sim::Simulator;
use dui_netsim::time::SimTime;
use dui_stats::digest::StateDigest;

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
    d.write_u32(cfg.prefix.addr.0);
    d.write_u8(cfg.prefix.len);
    d.write_u64(seed);
    d.finish()
}

fn snapshot_component_digests(snap: &AttackSimSnapshot) -> Vec<(&'static str, u64)> {
    let mut rng = StateDigest::labeled("rng");
    for w in snap.rng {
        rng.write_u64(w);
    }
    let mut selector = StateDigest::labeled("selector");
    selector.write_len(snap.selector.cells.len());
    for cell in &snap.selector.cells {
        match cell {
            None => selector.write_u8(0),
            Some(c) => {
                selector.write_u8(1);
                selector.write_u64(c.flow.digest(0));
                selector.write_u64(c.last_seen.0);
                selector.write_u64(c.sampled_at.0);
                selector.write_u32(c.last_seq);
                selector.write_opt_u64(c.last_retx.map(|t| t.0));
                selector.write_opt_u64(c.last_retx_gap.map(|g| g.0));
            }
        }
    }
    selector.write_u64(snap.selector.last_reset.0);
    selector.write_u64(snap.selector.resets);
    let mut flows = StateDigest::labeled("flows");
    flows.write_len(snap.flows.len());
    for f in &snap.flows {
        flows.write_u64(f.key.digest(0));
        flows.write_u32(f.seq);
        flows.write_opt_u64(f.dies_at.map(|t| t.0));
    }
    flows.write_u16(snap.sport);
    let mut schedule = StateDigest::labeled("schedule");
    schedule.write_len(snap.schedule.len());
    for &(t, i) in &snap.schedule {
        schedule.write_u64(t.0);
        schedule.write_usize(i);
    }
    let mut series = StateDigest::labeled("series");
    series.write_len(snap.series.len());
    for &(t, v) in &snap.series {
        series.write_f64(t);
        series.write_f64(v);
    }
    series.write_u64(snap.next_sample.0);
    vec![
        ("rng", rng.finish()),
        ("selector", selector.finish()),
        ("flows", flows.finish()),
        ("schedule", schedule.finish()),
        ("series", series.finish()),
    ]
}

/// The Blink flow-level fast simulation as a replay subject.
///
/// Fully restorable: every checkpoint carries an
/// [`AttackSimSnapshot`], so recordings of this subject support
/// mid-run resume.
pub struct FastSimSubject {
    cfg: AttackSimConfig,
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
            cfg,
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
        let mut d = StateDigest::labeled("fastsim-step");
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

    fn state_hash(&self) -> u64 {
        self.sim.state_hash()
    }

    fn component_digests(&self) -> Vec<(&'static str, u64)> {
        snapshot_component_digests(&self.sim.snapshot())
    }

    fn save_checkpoint(&self) -> Option<Vec<u8>> {
        Some(attack_sim_snapshot_to_bytes(&self.sim.snapshot()))
    }

    fn load_checkpoint(&mut self, bytes: &[u8]) -> Result<(), String> {
        let snap = attack_sim_snapshot_from_bytes(bytes).map_err(|e| e.to_string())?;
        let now = snap.schedule.first().map_or(0, |&(t, _)| t.0);
        self.sim = AttackSim::restore(&self.cfg, snap)?;
        self.now = now;
        Ok(())
    }
}

/// The packet-level discrete-event engine, run until a fixed end time,
/// as a replay subject.
///
/// Checkpoints are restorable when [`Simulator::checkpoint`] succeeds
/// (no taps, every node logic saves state); otherwise the recording is
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

    fn state_hash(&self) -> u64 {
        self.sim.state_hash()
    }

    fn component_digests(&self) -> Vec<(&'static str, u64)> {
        // A successful engine checkpoint yields a per-subsystem
        // breakdown; with taps or opaque node logics, fall back to the
        // monolithic hash (divergence is then pinned by the event
        // stream, which is exact anyway).
        match self.sim.checkpoint() {
            Ok(c) => {
                let mut rng = StateDigest::labeled("rng");
                for w in c.rng {
                    rng.write_u64(w);
                }
                let mut queue = StateDigest::labeled("queue");
                queue.write_len(c.events.len());
                for (t, e) in &c.events {
                    queue.write_u64(t.0);
                    e.state_digest(&mut queue);
                }
                let mut links = StateDigest::labeled("links");
                links.write_len(c.links.len());
                for l in &c.links {
                    links.write_bool(l.up);
                    for d in [&l.ab, &l.ba] {
                        links.write_len(d.queue.len());
                        for p in &d.queue {
                            p.state_digest(&mut links);
                        }
                        match &d.in_flight {
                            None => links.write_u8(0),
                            Some(p) => {
                                links.write_u8(1);
                                p.state_digest(&mut links);
                            }
                        }
                    }
                }
                let mut nodes = StateDigest::labeled("nodes");
                nodes.write_len(c.logics.len());
                for logic in &c.logics {
                    match logic {
                        None => nodes.write_u8(0),
                        Some(b) => {
                            nodes.write_u8(1);
                            nodes.write_bytes(b);
                        }
                    }
                }
                vec![
                    ("rng", rng.finish()),
                    ("queue", queue.finish()),
                    ("links", links.finish()),
                    ("nodes", nodes.finish()),
                ]
            }
            Err(_) => vec![("engine", self.sim.state_hash())],
        }
    }

    fn save_checkpoint(&self) -> Option<Vec<u8>> {
        self.sim
            .checkpoint()
            .ok()
            .map(|c| engine_checkpoint_to_bytes(&c))
    }

    fn load_checkpoint(&mut self, bytes: &[u8]) -> Result<(), String> {
        let ckpt = engine_checkpoint_from_bytes(bytes).map_err(|e| e.to_string())?;
        let now = ckpt.now;
        self.sim.restore(ckpt)?;
        self.done = now >= self.end;
        Ok(())
    }
}
