//! Ready-made case-study scenarios: the paper's experiments as one-call
//! builders over the full packet-level stack.
//!
//! * [`BlinkScenario`] — the §3.1 setup: legitimate TCP flows + the
//!   spoofed-retransmission attacker, crossing a Blink-equipped ingress
//!   router with a primary and a backup path to the victim prefix.
//! * [`PccScenario`] — the §4.2 setup: `n` PCC flows over a shared
//!   bottleneck, optionally under the MitM utility-equalizer tap.
//! * [`pytheas_run`] — the §4.1 setup: the group-based E2 engine under
//!   botnet poisoning / CDN throttling, with or without the §5 filter.
//! * [`topologies`] — reusable topology factories for the NetHide (§4.3)
//!   experiments.

use dui_attacks::blink_takeover::{BlinkTakeover, MaliciousRetxHost};
use dui_attacks::pcc_oscillate::PccEqualizerTap;
use dui_blink::program::{BlinkProgram, PrefixState};
use dui_defense::blink_guard::BlinkRtoGuard;
use dui_flowgen::flows::{FlowPopulation, FlowPopulationConfig};
use dui_flowgen::{MaliciousFlowSet, MaliciousFlowSetConfig};
use dui_netsim::link::{Dir, FaultConfig};
use dui_netsim::node::RouterLogic;
use dui_netsim::packet::FlowKey;
use dui_netsim::packet::{Addr, Prefix};
use dui_netsim::sim::Simulator;
use dui_netsim::time::{Bandwidth, SimDuration, SimTime};
use dui_netsim::topology::{LinkId, NodeId, TopologyBuilder};
use dui_pcc::control::ControlConfig;
use dui_pcc::endpoint::{PccReceiver, PccSender, PccSenderConfig};
use dui_stats::Rng;
use dui_tcp::TcpHost;

/// Parameters for the packet-level Blink case study.
#[derive(Debug, Clone)]
pub struct BlinkScenarioConfig {
    /// Concurrent legitimate flows at steady state.
    pub legit_flows: usize,
    /// Spoofed malicious flows.
    pub malicious_flows: usize,
    /// Mean legitimate flow lifetime (seconds).
    pub mean_lifetime_secs: f64,
    /// Packet interval of all flows while active.
    pub pkt_interval: SimDuration,
    /// When the attacker's flows first appear (after the legitimate
    /// population has filled the selector; a t=0 start would win free
    /// cells unrealistically).
    pub attack_start: SimTime,
    /// When the attacker begins emitting fake retransmissions (`None` =
    /// infiltration only).
    pub trigger_at: Option<SimTime>,
    /// Install the §5 RTO-plausibility guard.
    pub guarded: bool,
    /// Workload horizon (flows are generated up to here).
    pub horizon: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl Default for BlinkScenarioConfig {
    fn default() -> Self {
        BlinkScenarioConfig {
            legit_flows: 300,
            malicious_flows: 16,
            mean_lifetime_secs: 6.0,
            pkt_interval: SimDuration::from_millis(250),
            attack_start: SimTime::from_secs(5),
            trigger_at: None,
            guarded: false,
            horizon: SimDuration::from_secs(120),
            seed: 1,
        }
    }
}

/// The assembled Blink scenario.
pub struct BlinkScenario {
    /// The simulator (run it with [`Simulator::run_until`]).
    pub sim: Simulator,
    /// Legitimate traffic source host.
    pub legit: NodeId,
    /// Attacker host.
    pub attacker: NodeId,
    /// Blink-equipped ingress router.
    pub ingress: NodeId,
    /// Primary-path router.
    pub primary: NodeId,
    /// Backup-path router.
    pub backup: NodeId,
    /// Victim host (sinks the prefix).
    pub victim: NodeId,
    /// The monitored victim prefix.
    pub prefix: Prefix,
    /// The primary-path link (ingress→primary side).
    pub primary_link: LinkId,
    /// The attacker's flow keys (ground truth for occupancy counting).
    pub malicious_keys: std::collections::HashSet<dui_netsim::packet::FlowKey>,
}

impl BlinkScenario {
    /// Build the scenario.
    pub fn build(cfg: &BlinkScenarioConfig) -> Self {
        let prefix = Prefix::new(Addr::new(10, 50, 0, 0), 16);
        let mut rng = Rng::new(cfg.seed);

        let mut b = TopologyBuilder::new();
        let legit = b.host("legit-src", Addr::new(198, 18, 255, 1));
        let attacker = b.host("attacker", Addr::new(198, 19, 255, 1));
        let ingress = b.router("ingress");
        let primary = b.router("primary");
        let backup = b.router("backup");
        let victim = b.host("victim", Addr::new(10, 50, 0, 1));
        let bw = Bandwidth::gbps(1);
        let q = 2048;
        b.link(legit, ingress, bw, SimDuration::from_millis(2), q);
        b.link(attacker, ingress, bw, SimDuration::from_millis(2), q);
        let primary_link = b.link(ingress, primary, bw, SimDuration::from_millis(5), q);
        b.link(ingress, backup, bw, SimDuration::from_millis(8), q);
        b.link(primary, victim, bw, SimDuration::from_millis(5), q);
        b.link(backup, victim, bw, SimDuration::from_millis(8), q);
        let topo = b.build();

        let mut sim = Simulator::new(topo, cfg.seed);
        sim.announce_prefix(prefix, victim);

        // Blink at the ingress.
        let mut blink = BlinkProgram::default();
        if cfg.guarded {
            blink = blink.with_guard(Box::new(BlinkRtoGuard::default()));
        }
        blink.monitor_prefix(prefix, vec![primary, backup]);
        sim.set_logic(
            ingress,
            Box::new(RouterLogic::new().with_program(Box::new(blink))),
        );
        sim.set_logic(primary, Box::new(RouterLogic::new()));
        sim.set_logic(backup, Box::new(RouterLogic::new()));
        sim.set_logic(victim, Box::new(TcpHost::new()));

        // Legitimate workload: stationary churn around `legit_flows` flows.
        let pop_cfg = FlowPopulationConfig::stationary(
            prefix,
            cfg.legit_flows,
            cfg.mean_lifetime_secs,
            cfg.pkt_interval,
            cfg.horizon,
        );
        let pop = FlowPopulation::generate(&pop_cfg, &mut rng);
        let specs = pop
            .flows
            .iter()
            .map(|f| {
                let mut spec = f.to_flow_spec(1460);
                // Source address must be the legit host's for routing.
                spec.key.src = Addr::new(198, 18, 255, 1);
                spec
            })
            .collect();
        sim.set_logic(legit, Box::new(TcpHost::with_flows(specs)));

        // Attacker.
        let mset = MaliciousFlowSet::generate(
            &MaliciousFlowSetConfig {
                prefix,
                count: cfg.malicious_flows.max(1),
                keepalive: cfg.pkt_interval,
            },
            &mut rng,
        );
        let malicious_keys: std::collections::HashSet<_> = mset.keys.iter().copied().collect();
        let takeover = BlinkTakeover {
            flows: mset,
            start: cfg.attack_start,
            trigger_at: cfg.trigger_at.unwrap_or(SimTime::from_secs(1_000_000)),
            trigger_duration: SimDuration::from_secs(5),
        };
        sim.set_logic(attacker, Box::new(MaliciousRetxHost::new(takeover)));

        BlinkScenario {
            sim,
            legit,
            attacker,
            ingress,
            primary,
            backup,
            victim,
            prefix,
            primary_link,
            malicious_keys,
        }
    }

    /// Borrow the Blink program at the ingress.
    pub fn blink(&mut self) -> &mut BlinkProgram {
        let ingress = self.ingress;
        let router: &mut RouterLogic = self.sim.logic_mut(ingress);
        router.program_mut::<BlinkProgram>(0)
    }

    /// The ingress Blink program's state for the victim prefix.
    #[expect(
        clippy::expect_used,
        reason = "build monitors the victim prefix, and BlinkProgram has no call that unmonitors one"
    )]
    fn victim_state(&mut self) -> &PrefixState {
        let prefix = self.prefix;
        self.blink()
            .prefix_state(prefix)
            .expect("build monitors the victim prefix")
    }

    /// Number of selector cells currently held by attacker flows.
    pub fn malicious_cells(&mut self) -> usize {
        let keys = self.malicious_keys.clone();
        self.victim_state()
            .selector
            .count_matching(|k| keys.contains(k))
    }

    /// Reroute events so far for the victim prefix.
    pub fn reroutes(&mut self) -> usize {
        self.victim_state().reroute.reroute_count()
    }

    /// Is the prefix currently forwarded via the primary path?
    pub fn on_primary(&mut self) -> bool {
        self.victim_state().reroute.on_primary()
    }

    /// Reroutes vetoed by the guard (0 when unguarded).
    pub fn vetoed(&mut self) -> u64 {
        self.blink().vetoed
    }

    /// One merged telemetry snapshot of the whole scenario: the Blink
    /// pipeline's `blink.*` metrics (reroutes, vetoes, selector events),
    /// the ground-truth `blink.cells.malicious` occupancy gauge, and the
    /// engine's `netsim.*` counters. This is the observation surface the
    /// `defenses` experiment stage and
    /// [`OccupancyWindow`](dui_defense::streaming::OccupancyWindow)
    /// consume.
    pub fn metrics(&mut self) -> dui_telemetry::Snapshot {
        let malicious = self.malicious_cells() as f64;
        let mut reg = dui_telemetry::Registry::new();
        self.blink().export_metrics(&mut reg);
        let g = reg.gauge("blink.cells.malicious");
        reg.observe(g, malicious);
        let mut snap = reg.snapshot();
        snap.merge(&self.sim.metrics_snapshot());
        snap
    }

    /// Blackhole the primary path in the forward (toward-victim)
    /// direction — a genuine unidirectional failure for Blink to detect.
    pub fn fail_primary_forward(&mut self) {
        self.sim.set_fault(
            self.primary_link,
            Dir::AtoB,
            FaultConfig {
                drop_prob: 1.0,
                jitter_max: None,
            },
        );
    }

    /// Heal the primary path.
    pub fn heal_primary(&mut self) {
        self.sim
            .set_fault(self.primary_link, Dir::AtoB, FaultConfig::default());
    }
}

/// Parameters for the packet-level PCC case study.
#[derive(Debug, Clone)]
pub struct PccScenarioConfig {
    /// Number of PCC flows (each from its own sender host).
    pub flows: usize,
    /// Bottleneck bandwidth.
    pub bottleneck: Bandwidth,
    /// Install the §4.2 equalizer tap on every flow.
    pub attacked: bool,
    /// Attacker pins flows to this rate (bytes/s) instead of their learned
    /// baseline.
    pub pin_to: Option<f64>,
    /// Coherent sway of the pin target `(fraction, period)` across all
    /// flows (the destination-fluctuation attack).
    pub sway: Option<(f64, SimDuration)>,
    /// Controller configuration (the §5 defense clamps `eps_max` here).
    pub control: ControlConfig,
    /// Seed.
    pub seed: u64,
}

impl Default for PccScenarioConfig {
    fn default() -> Self {
        PccScenarioConfig {
            flows: 1,
            bottleneck: Bandwidth::mbps(50),
            attacked: false,
            pin_to: None,
            sway: None,
            control: ControlConfig::default(),
            seed: 1,
        }
    }
}

/// The assembled PCC scenario.
pub struct PccScenario {
    /// The simulator.
    pub sim: Simulator,
    /// Sender hosts, one per flow.
    pub senders: Vec<NodeId>,
    /// Flow keys, parallel to `senders`.
    pub keys: Vec<FlowKey>,
    /// Receiver host.
    pub receiver: NodeId,
}

impl PccScenario {
    /// Build the scenario.
    pub fn build(cfg: &PccScenarioConfig) -> Self {
        assert!(cfg.flows >= 1 && cfg.flows < 250, "flow count out of range");
        let mut b = TopologyBuilder::new();
        let mut senders = Vec::new();
        for i in 0..cfg.flows {
            senders.push(b.host(
                &format!("s{i}"),
                Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1),
            ));
        }
        let r1 = b.router("r1");
        let r2 = b.router("r2");
        let receiver = b.host("dst", Addr::new(10, 99, 0, 1));
        for &s in &senders {
            b.link(s, r1, Bandwidth::gbps(1), SimDuration::from_millis(2), 1024);
        }
        // Modest buffer: ~1 bandwidth-delay product. Loss feedback then
        // arrives within a monitor interval of overshoot, which Allegro's
        // loss-only utility needs to stay near capacity (with a bloated
        // buffer it sawtooths on queue-fill bursts instead).
        let bottleneck = b.link(r1, r2, cfg.bottleneck, SimDuration::from_millis(10), 96);
        b.link(
            r2,
            receiver,
            Bandwidth::gbps(1),
            SimDuration::from_millis(2),
            1024,
        );
        let topo = b.build();
        let mut sim = Simulator::new(topo, cfg.seed);
        sim.set_logic(r1, Box::new(RouterLogic::new()));
        sim.set_logic(r2, Box::new(RouterLogic::new()));
        sim.set_logic(
            receiver,
            Box::new(PccReceiver::new(SimDuration::from_millis(500))),
        );
        let mut keys = Vec::new();
        for (i, &s) in senders.iter().enumerate() {
            let key = FlowKey::tcp(
                Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1),
                5001,
                Addr::new(10, 99, 0, 1),
                5001,
            );
            keys.push(key);
            let mut scfg = PccSenderConfig::new(key, cfg.seed.wrapping_add(i as u64));
            scfg.control = cfg.control;
            sim.set_logic(s, Box::new(PccSender::new(scfg)));
            if cfg.attacked {
                let mut tap = PccEqualizerTap::new(
                    key,
                    SimDuration::from_millis(25),
                    cfg.seed.wrapping_add(1000 + i as u64),
                );
                tap.pin_to = cfg.pin_to;
                tap.sway = cfg.sway;
                sim.install_tap(bottleneck, Dir::AtoB, Box::new(tap));
            }
        }
        PccScenario {
            sim,
            senders,
            keys,
            receiver,
        }
    }

    /// Rate trace of sender `i`.
    pub fn rate_trace(&mut self, i: usize) -> dui_stats::TimeSeries {
        let node = self.senders[i];
        let s: &mut PccSender = self.sim.logic_mut(node);
        s.rate_trace.clone()
    }

    /// Relative oscillation amplitude of sender `i`'s rate over trace
    /// points after `after_s`: `(p95 − p5) / (2·median)` — robust to the
    /// occasional Moving-phase excursion.
    pub fn oscillation_amplitude(&mut self, i: usize, after_s: f64) -> f64 {
        use dui_stats::summary::percentile;
        let trace = self.rate_trace(i);
        let tail: Vec<f64> = trace
            .points()
            .iter()
            .filter(|(t, _)| *t >= after_s)
            .map(|&(_, v)| v)
            .collect();
        if tail.is_empty() {
            return 0.0;
        }
        let med = percentile(&tail, 50.0).max(1.0);
        (percentile(&tail, 95.0) - percentile(&tail, 5.0)) / (2.0 * med)
    }

    /// Coefficient of variation of aggregate arrival throughput at the
    /// destination after `after_s` (the paper's "traffic fluctuations at
    /// the destination").
    pub fn destination_cv(&mut self, horizon: SimTime, after_s: f64) -> f64 {
        let node = self.receiver;
        let r: &mut PccReceiver = self.sim.logic_mut(node);
        let ts = r.throughput_series(horizon);
        let mut s = dui_stats::Summary::new();
        for &(t, v) in ts.points() {
            if t >= after_s {
                s.add(v);
            }
        }
        s.cv()
    }
}

/// Outcome of a Pytheas run.
#[derive(Debug, Clone)]
pub struct PytheasOutcome {
    /// Steady-state honest QoE.
    pub honest_qoe: f64,
    /// Steady-state share of sessions on the genuinely best arm.
    pub on_best: f64,
    /// Max per-arm load share (herding indicator).
    pub max_arm_share: f64,
    /// Per-arm steady-state load share.
    pub arm_share: Vec<f64>,
    /// Reports rejected by the filter (0 for the accept-all baseline).
    pub rejected: u64,
    /// Filter precision (1.0 when nothing rejected).
    pub filter_precision: f64,
    /// Per-arm pull counts over the whole run (telemetry surface).
    pub arm_pulls: Vec<u64>,
    /// Reports dropped by the defense filter over the whole run.
    pub filtered_reports: u64,
}

/// Run the §4.1 case study: returns steady-state metrics.
pub fn pytheas_run(
    cfg: dui_pytheas::engine::EngineConfig,
    groups: usize,
    rounds: usize,
    defended: bool,
    seed: u64,
) -> PytheasOutcome {
    use dui_pytheas::engine::{make_groups, AcceptAll, PytheasEngine};
    use dui_pytheas::qoe::QoeModel;
    let model = QoeModel::new(vec![0.4, 0.85, 0.7], 0.05);
    let mut engine = PytheasEngine::new(model, cfg, &make_groups(groups), seed);
    let window = rounds / 2;
    let (rejected, precision) = if defended {
        let mut filter = dui_defense::pytheas_guard::MadReportFilter::default();
        engine.run(rounds, &mut filter);
        (filter.rejected, filter.precision())
    } else {
        engine.run(rounds, &mut AcceptAll);
        (0, 1.0)
    };
    let share = engine.steady_state_arm_share(window);
    PytheasOutcome {
        honest_qoe: engine.steady_state_honest_qoe(window),
        on_best: engine.steady_state_on_best(window),
        max_arm_share: share.iter().cloned().fold(0.0, f64::max),
        arm_share: share,
        rejected,
        filter_precision: precision,
        arm_pulls: engine.arm_pulls.clone(),
        filtered_reports: engine.filtered_reports,
    }
}

/// Reusable topology factories for the NetHide (§4.3) experiments.
pub mod topologies {
    use super::*;
    use dui_netsim::topology::Topology;

    /// A ring of `n` routers, each with one attached host; every
    /// host-pair flow has ring detours available.
    pub fn ring(n: usize) -> (Topology, Vec<NodeId>) {
        assert!(n >= 3, "ring needs at least 3 routers");
        let mut b = TopologyBuilder::new();
        let bw = Bandwidth::mbps(100);
        let d = SimDuration::from_millis(1);
        let routers: Vec<NodeId> = (0..n).map(|i| b.router(&format!("r{i}"))).collect();
        for i in 0..n {
            b.link(routers[i], routers[(i + 1) % n], bw, d, 64);
        }
        let mut hosts = Vec::new();
        for (i, &r) in routers.iter().enumerate() {
            let h = b.host(&format!("h{i}"), Addr::new(10, 10, i as u8, 1));
            b.link(h, r, bw, d, 64);
            hosts.push(h);
        }
        (b.build(), hosts)
    }

    /// The "bowtie": leaf hosts on both sides forced through a core link
    /// `c1—c2` unless detoured via `m` — the canonical NetHide example of
    /// a DDoS-critical link worth hiding.
    pub fn bowtie(leaves_per_side: usize) -> (Topology, Vec<(NodeId, NodeId)>, (NodeId, NodeId)) {
        let mut b = TopologyBuilder::new();
        let bw = Bandwidth::mbps(100);
        let d = SimDuration::from_millis(1);
        let c1 = b.router("c1");
        let c2 = b.router("c2");
        let m = b.router("m");
        let l = b.router("l");
        let r = b.router("r");
        b.link(l, c1, bw, d, 64);
        b.link(c1, c2, bw, d, 64);
        b.link(c1, m, bw, d, 64);
        b.link(m, c2, bw, d, 64);
        b.link(c2, r, bw, d, 64);
        let mut flows = Vec::new();
        for i in 0..leaves_per_side {
            let h = b.host(&format!("h{i}"), Addr::new(10, 1, i as u8, 1));
            let g = b.host(&format!("g{i}"), Addr::new(10, 2, i as u8, 1));
            b.link(h, l, bw, d, 64);
            b.link(g, r, bw, d, 64);
            flows.push((h, g));
        }
        (b.build(), flows, (c1, c2))
    }

    /// Mesh of rings: a ring with chords, giving richer path diversity for
    /// obfuscation sweeps.
    pub fn chorded_ring(n: usize, chord_step: usize) -> (Topology, Vec<NodeId>) {
        assert!(n >= 5 && chord_step >= 2);
        let mut b = TopologyBuilder::new();
        let bw = Bandwidth::mbps(100);
        let d = SimDuration::from_millis(1);
        let routers: Vec<NodeId> = (0..n).map(|i| b.router(&format!("r{i}"))).collect();
        for i in 0..n {
            b.link(routers[i], routers[(i + 1) % n], bw, d, 64);
        }
        for i in (0..n).step_by(chord_step) {
            let j = (i + chord_step) % n;
            if b_link_missing(&routers, i, j) {
                b.link(routers[i], routers[j], bw, d, 64);
            }
        }
        let mut hosts = Vec::new();
        for (i, &r) in routers.iter().enumerate() {
            let h = b.host(&format!("h{i}"), Addr::new(10, 20, i as u8, 1));
            b.link(h, r, bw, d, 64);
            hosts.push(h);
        }
        (b.build(), hosts)
    }

    // Chords longer than one hop are always missing in a fresh ring build;
    // this exists to keep the intent explicit if the builder grows
    // dedup logic later.
    fn b_link_missing(_routers: &[NodeId], i: usize, j: usize) -> bool {
        i != j && (i + 1) % _routers.len() != j && (j + 1) % _routers.len() != i
    }

    /// A chain of `n` routers `r0—r1—…` with one host per router — the
    /// simplest single-path topology (every host pair is cut by any
    /// interior link failure, which makes it the reference setting for
    /// recovery-after-healing checks).
    pub fn linear(n: usize) -> (Topology, Vec<NodeId>) {
        assert!(n >= 2, "linear chain needs at least 2 routers");
        let mut b = TopologyBuilder::new();
        let bw = Bandwidth::mbps(100);
        let d = SimDuration::from_millis(1);
        let routers: Vec<NodeId> = (0..n).map(|i| b.router(&format!("r{i}"))).collect();
        for i in 0..n - 1 {
            b.link(routers[i], routers[i + 1], bw, d, 64);
        }
        let mut hosts = Vec::new();
        for (i, &r) in routers.iter().enumerate() {
            let h = b.host(&format!("h{i}"), Addr::new(10, 30, i as u8, 1));
            b.link(h, r, bw, d, 64);
            hosts.push(h);
        }
        (b.build(), hosts)
    }

    /// A k-ary fat tree: `(k/2)²` core routers, `k` pods of `k/2`
    /// aggregation + `k/2` edge routers, and `k/2` hosts per edge router.
    /// Names follow `c{i}`, `a{pod}_{j}`, `e{pod}_{j}`, `h{pod}_{j}_{m}`.
    /// `k` must be even and ≥ 2; `k = 4` yields the textbook 16-host tree.
    pub fn fat_tree(k: usize) -> (Topology, Vec<NodeId>) {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat tree needs an even k ≥ 2"
        );
        assert!(k <= 14, "k > 14 overflows the 10.pod.x.y host addressing");
        let mut b = TopologyBuilder::new();
        let bw = Bandwidth::mbps(100);
        let d = SimDuration::from_millis(1);
        let half = k / 2;
        let cores: Vec<NodeId> = (0..half * half)
            .map(|i| b.router(&format!("c{i}")))
            .collect();
        let mut hosts = Vec::new();
        for pod in 0..k {
            let aggs: Vec<NodeId> = (0..half)
                .map(|j| b.router(&format!("a{pod}_{j}")))
                .collect();
            let edges: Vec<NodeId> = (0..half)
                .map(|j| b.router(&format!("e{pod}_{j}")))
                .collect();
            for (j, &a) in aggs.iter().enumerate() {
                // Aggregation router j of every pod reaches core group j.
                for i in 0..half {
                    b.link(a, cores[j * half + i], bw, d, 64);
                }
                for &e in &edges {
                    b.link(a, e, bw, d, 64);
                }
            }
            for (j, &e) in edges.iter().enumerate() {
                for m in 0..half {
                    let h = b.host(
                        &format!("h{pod}_{j}_{m}"),
                        Addr::new(10, pod as u8 + 100, j as u8, m as u8 + 2),
                    );
                    b.link(h, e, bw, d, 64);
                    hosts.push(h);
                }
            }
        }
        (b.build(), hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blink_scenario_builds_and_runs() {
        let cfg = BlinkScenarioConfig {
            legit_flows: 50,
            malicious_flows: 8,
            horizon: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut sc = BlinkScenario::build(&cfg);
        sc.sim.run_until(SimTime::from_secs(5));
        // Blink is monitoring: some cells occupied.
        let prefix = sc.prefix;
        let occupied = {
            let blink = sc.blink();
            let st = blink.prefix_state(prefix).unwrap();
            st.selector.occupied()
        };
        assert!(occupied > 10, "selector should fill up: {occupied}");
        assert!(sc.on_primary(), "no failure, no reroute");
    }

    #[test]
    fn pcc_scenario_builds_and_runs() {
        let mut sc = PccScenario::build(&PccScenarioConfig::default());
        sc.sim.run_until(SimTime::from_secs(5));
        let trace = sc.rate_trace(0);
        assert!(trace.len() > 20, "MIs should rotate");
        let node = sc.receiver;
        let r: &mut PccReceiver = sc.sim.logic_mut(node);
        assert!(r.total_bytes > 100_000);
    }

    #[test]
    fn pytheas_run_clean_baseline() {
        let out = pytheas_run(
            dui_pytheas::engine::EngineConfig::default(),
            2,
            200,
            false,
            3,
        );
        assert!(out.honest_qoe > 0.75);
        assert!(out.on_best > 0.7);
        assert_eq!(out.rejected, 0);
    }

    #[test]
    fn topology_factories_are_connected() {
        use dui_netsim::topology::Routing;
        let (t, hosts) = topologies::ring(6);
        let routing = Routing::shortest_paths(&t);
        assert!(routing.path(hosts[0], hosts[3]).is_some());
        let (t, flows, _) = topologies::bowtie(3);
        let routing = Routing::shortest_paths(&t);
        for (s, d) in flows {
            assert!(routing.path(s, d).is_some());
        }
        let (t, hosts) = topologies::chorded_ring(8, 3);
        let routing = Routing::shortest_paths(&t);
        assert!(routing.path(hosts[1], hosts[5]).is_some());
    }
}
