//! The deterministic scenario runner.
//!
//! [`Compiled::run`] drives the lowered plan to its horizon in a single
//! boundary loop: the time axis is the sampling grid unioned with every
//! chaos window edge, and at each boundary the runner first advances the
//! simulator, then applies window transitions (heals before fails), then
//! records an observation if the boundary sits on the grid. Everything
//! observed is simulated state — no wall clock, no ambient randomness —
//! so a `(file, seed)` pair always yields the same [`RunReport`],
//! regardless of host or `--jobs`. Blink and PCC workloads lower through
//! [`Compiled::blink_config`] / [`Compiled::pcc_config`], as do the
//! experiment stages that run the paper's own `.dsc` files.

use crate::ast::{ChaosKind, WorkloadSpec};
use crate::chaos::ChaosWindow;
use crate::compile::{build_topology, Compiled, Plan, ResolvedChaos, TcpPlan};
use crate::expect::{evaluate, BlinkObs, CheckResult, Observed, PccObs, PytheasObs, Sample};
use dui_core::attacks::{BounceProgram, SynFloodConfig, SynFloodHost};
use dui_core::flowgen::flows::{FlowPopulation, FlowPopulationConfig};
use dui_core::flowgen::stream::{FlowStream, StreamSource};
use dui_core::netsim::link::{Dir, FaultConfig};
use dui_core::netsim::node::RouterLogic;
use dui_core::netsim::packet::{Addr, Packet, Prefix};
use dui_core::netsim::sim::Simulator;
use dui_core::netsim::time::{Bandwidth, SimDuration, SimTime};
use dui_core::netsim::topology::NodeKind;
use dui_core::pcc::control::ControlConfig;
use dui_core::pytheas::engine::{EngineConfig, PoisonStrategy};
use dui_core::scenario::{
    pytheas_run, BlinkScenario, BlinkScenarioConfig, PccScenario, PccScenarioConfig,
};
use dui_core::stats::wire::{Encoder, Sink};
use dui_core::stats::Rng;
use dui_core::tcp::{FlowSource, FlowSpec, TcpHost, TcpHostConfig};

/// The prefix a generic-TCP workload's flows target (announced at the
/// scenario's `dst` host; flow keys draw random addresses inside it).
const TCP_PREFIX: (u8, u8) = (10, 200);

/// The verdict of one scenario run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// Workload kind token.
    pub kind: &'static str,
    /// Master seed.
    pub seed: u64,
    /// One result per `[expect]` line, in file order.
    pub checks: Vec<CheckResult>,
    /// Total endpoint deliveries (0 for round-based workloads).
    pub delivered: u64,
}

impl Compiled {
    /// Run sequentially (the reference configuration).
    pub fn run(&self) -> RunReport {
        self.run_with(0)
    }

    /// Run with a parallel-engine worker budget (`0` = sequential). The
    /// report is identical at any budget; only wall-clock time changes.
    pub fn run_with(&self, sim_threads: usize) -> RunReport {
        let obs = match &self.plan {
            Plan::Blink => self.run_blink(sim_threads),
            Plan::Pcc => self.run_pcc(sim_threads),
            Plan::Pytheas => self.run_pytheas(),
            Plan::Tcp(plan) => self.run_tcp(plan, sim_threads),
        };
        let sc = &self.scenario;
        RunReport {
            name: sc.name.clone(),
            kind: sc.workload.kind(),
            seed: sc.seed,
            checks: evaluate(sc, &self.windows, &obs),
            delivered: obs.snapshot.counter("netsim.delivered.endpoint"),
        }
    }

    /// The boundary axis: every grid point plus every in-horizon window
    /// edge, sorted and deduplicated. The horizon itself always closes
    /// the axis so the final observation lands at the very end.
    fn boundaries(&self) -> Vec<SimTime> {
        let sc = &self.scenario;
        // Round-driven workloads (pytheas) have no horizon and never
        // enter the boundary loop; an empty axis is the honest answer.
        let Some(h) = sc.workload.horizon() else {
            return Vec::new();
        };
        let horizon = SimTime(h.0);
        let step = sc.sample_every.0.max(1);
        let mut ts: Vec<SimTime> = (0..=horizon.0 / step).map(|k| SimTime(k * step)).collect();
        for w in &self.windows {
            if w.start <= horizon {
                ts.push(w.start);
            }
            if w.end <= horizon {
                ts.push(w.end);
            }
        }
        ts.push(horizon);
        ts.sort();
        ts.dedup();
        ts
    }

    /// The boundary loop of both packet-level runners: at each boundary,
    /// advance `sim(state)`, `flip` the windows ending there off and those
    /// starting there on, and on the grid record deliveries and a `sample`.
    fn boundary_loop<T>(
        &self,
        state: &mut T,
        sim: fn(&mut T) -> &mut Simulator,
        key: fn(&ChaosWindow) -> usize,
        mut flip: impl FnMut(&mut T, usize, bool),
        mut sample: impl FnMut(&mut T) -> Sample,
    ) -> Vec<Sample> {
        let mut active = vec![0usize; self.scenario.chaos.len().max(1)];
        let mut samples = Vec::new();
        for t in self.boundaries() {
            sim(state).run_until(t);
            // Windows sharing a key flip once: on as the first opens, off
            // as the last closes (the count leaves or returns to zero).
            let ends = self.windows.iter().filter(|w| w.end == t && w.start <= t);
            let starts = self.windows.iter().filter(|w| w.start == t);
            for (w, on) in ends.map(|w| (w, false)).chain(starts.map(|w| (w, true))) {
                let was = active[key(w)];
                active[key(w)] = if on { was + 1 } else { was - 1 };
                if was.min(active[key(w)]) == 0 {
                    flip(state, w.decl, on);
                }
            }
            if t.0.is_multiple_of(self.scenario.sample_every.0.max(1)) {
                let snapshot = sim(state).metrics_snapshot();
                let delivered = snapshot.counter("netsim.delivered.endpoint");
                samples.push(Sample {
                    t,
                    delivered,
                    ..sample(state)
                });
            }
        }
        samples
    }

    /// The Blink builder's configuration of a `blink` workload; `None`
    /// for any other kind.
    pub fn blink_config(&self) -> Option<BlinkScenarioConfig> {
        let WorkloadSpec::Blink {
            legit_flows,
            malicious_flows,
            mean_lifetime,
            pkt_interval,
            attack_start,
            trigger_at,
            guarded,
            horizon,
        } = &self.scenario.workload
        else {
            return None;
        };
        Some(BlinkScenarioConfig {
            legit_flows: *legit_flows,
            malicious_flows: *malicious_flows,
            mean_lifetime_secs: mean_lifetime.as_secs_f64(),
            pkt_interval: *pkt_interval,
            attack_start: *attack_start,
            trigger_at: *trigger_at,
            guarded: *guarded,
            horizon: *horizon,
            seed: self.scenario.seed,
        })
    }

    /// The PCC builder's configuration of a `pcc` workload; `None` for
    /// any other kind. The run ends at the workload's horizon.
    pub fn pcc_config(&self) -> Option<PccScenarioConfig> {
        let WorkloadSpec::Pcc {
            flows,
            bottleneck_mbps,
            attacked,
            pin_to_mbps,
            ..
        } = &self.scenario.workload
        else {
            return None;
        };
        Some(PccScenarioConfig {
            flows: *flows,
            bottleneck: Bandwidth::mbps(*bottleneck_mbps),
            attacked: *attacked,
            pin_to: pin_to_mbps.map(|m| m * 125_000.0),
            sway: None,
            control: ControlConfig::default(),
            seed: self.scenario.seed,
        })
    }

    fn run_blink(&self, sim_threads: usize) -> Observed {
        let Some(cfg) = self.blink_config() else {
            unreachable!("blink plan carries a blink workload")
        };
        let mut b = BlinkScenario::build(&cfg);
        b.sim.set_sim_threads(sim_threads);
        // Every blink window flaps the primary (compile-checked): one key
        // for all, so nested windows fail once and heal last.
        let samples = self.boundary_loop(
            &mut b,
            |b| &mut b.sim,
            |_| 0,
            |b, _, on| {
                if on {
                    b.fail_primary_forward()
                } else {
                    b.heal_primary()
                }
            },
            |b| Sample {
                reroutes: b.reroutes() as u64,
                on_primary: b.on_primary(),
                ..Sample::default()
            },
        );
        let blink = BlinkObs {
            reroutes: b.reroutes() as u64,
            on_primary: b.on_primary(),
            malicious_cells: b.malicious_cells() as u64,
            vetoed: b.vetoed(),
        };
        Observed {
            samples,
            snapshot: b.metrics(),
            blink: Some(blink),
            ..Default::default()
        }
    }

    fn run_pcc(&self, sim_threads: usize) -> Observed {
        let (Some(cfg), Some(horizon)) = (self.pcc_config(), self.scenario.workload.horizon())
        else {
            unreachable!("pcc plan carries a pcc workload")
        };
        let mut p = PccScenario::build(&cfg);
        p.sim.set_sim_threads(sim_threads);
        let end = SimTime(horizon.0);
        p.sim.run_until(end);
        // Steady state: the tail half of each flow's MI-boundary trace.
        let after = 0.5 * horizon.as_secs_f64();
        let mut rate_min = f64::INFINITY;
        let mut rate_max = 0.0f64;
        let mut osc_max = 0.0f64;
        for i in 0..cfg.flows {
            let trace = p.rate_trace(i);
            let tail: Vec<f64> = trace
                .points()
                .iter()
                .filter(|(t, _)| *t >= after)
                .map(|&(_, v)| v)
                .collect();
            let mean = if tail.is_empty() {
                0.0
            } else {
                tail.iter().sum::<f64>() / tail.len() as f64
            };
            let mbps = mean / 125_000.0;
            rate_min = rate_min.min(mbps);
            rate_max = rate_max.max(mbps);
            osc_max = osc_max.max(p.oscillation_amplitude(i, after));
        }
        Observed {
            snapshot: p.sim.metrics_snapshot(),
            pcc: Some(PccObs {
                rate_min_mbps: if rate_min.is_finite() { rate_min } else { 0.0 },
                rate_max_mbps: rate_max,
                oscillation_max: osc_max,
            }),
            ..Default::default()
        }
    }

    fn run_pytheas(&self) -> Observed {
        let sc = &self.scenario;
        let WorkloadSpec::Pytheas {
            groups,
            rounds,
            poison_fraction,
            defended,
        } = &sc.workload
        else {
            unreachable!("pytheas plan carries a pytheas workload")
        };
        let cfg = EngineConfig {
            poison_fraction: *poison_fraction,
            // The paper's promote attack: drag the best arm (1) down and
            // push an inferior arm (2) up.
            poison: if *poison_fraction > 0.0 {
                PoisonStrategy::Promote { down: 1, up: 2 }
            } else {
                PoisonStrategy::None
            },
            ..Default::default()
        };
        let out = pytheas_run(cfg, *groups, *rounds, *defended, sc.seed);
        Observed {
            pytheas: Some(PytheasObs {
                honest_qoe: out.honest_qoe,
                on_best: out.on_best,
            }),
            ..Default::default()
        }
    }

    fn run_tcp(&self, plan: &TcpPlan, sim_threads: usize) -> Observed {
        let sc = &self.scenario;
        // Plan::Tcp covers the whole tcp family; the three kinds share
        // the population parameters and differ in admission + lifecycle.
        let Some(fam) = sc.workload.tcp_family() else {
            unreachable!("tcp plan carries a tcp-family workload")
        };
        let topo = build_topology(&sc.topology);
        let prefix = Prefix::new(Addr::new(TCP_PREFIX.0, TCP_PREFIX.1, 0, 0), 16);
        let mut rng = Rng::new(sc.seed);
        let pop_cfg = FlowPopulationConfig::stationary(
            prefix,
            fam.flows,
            fam.mean_lifetime.as_secs_f64(),
            fam.pkt_interval,
            fam.horizon,
        );
        // Hosts whose flows handshake free each flow's slot on close.
        let evicting = TcpHostConfig {
            evict_closed: true,
            ..TcpHostConfig::default()
        };

        // Per-source host logic, built per workload kind.
        let mut src_logic: Vec<TcpHost> = Vec::new();
        if matches!(sc.workload, WorkloadSpec::Churn { .. }) {
            // Streamed admission: the single source draws arrivals lazily
            // from the generator as the simulation reaches them — no
            // materialized schedule, flows handshake and are evicted on
            // close so the pool stays at the steady-state population.
            let stream = FlowStream::new(pop_cfg, rng);
            let inner = StreamSource::new(stream, 1460).with_handshake(true);
            let src_addr = topo.node(plan.src_hosts[0]).addr;
            let mut h = TcpHost::with_source(Box::new(RewriteSrc { inner, src_addr }));
            h.set_config(evicting.clone());
            src_logic.push(h);
        } else {
            let handshake = matches!(sc.workload, WorkloadSpec::SynFlood { .. });
            let mut all = FlowPopulation::generate(&pop_cfg, &mut rng).flows;
            // Load surges: extra arrivals generated from the same rng (in
            // window order, so the draw sequence is schedule-deterministic)
            // and shifted onto the window.
            for w in &self.windows {
                if let ChaosKind::LoadSurge {
                    flows: extra,
                    duration: span,
                } = &sc.chaos[w.decl].kind
                {
                    let surge_cfg = FlowPopulationConfig {
                        arrival_rate: *extra as f64 / span.as_secs_f64().max(1e-9),
                        horizon: *span,
                        warm_start: Some(0),
                        ..pop_cfg
                    };
                    let surge = FlowPopulation::generate(&surge_cfg, &mut rng);
                    all.extend(surge.shifted(SimDuration(w.start.0)).flows);
                }
            }

            // Round-robin the flows across the source hosts.
            let mut per_src: Vec<Vec<FlowSpec>> = vec![Vec::new(); plan.src_hosts.len()];
            for (i, f) in all.iter().enumerate() {
                let slot = i % plan.src_hosts.len();
                let mut spec = f.to_flow_spec(1460);
                spec.key.src = topo.node(plan.src_hosts[slot]).addr;
                // Under a SYN flood the legitimate flows handshake, so
                // they compete with the flood for the victim's backlog.
                spec.config.handshake = handshake;
                per_src[slot].push(spec);
            }
            for specs in per_src {
                let mut h = TcpHost::with_flows(specs);
                if handshake {
                    h.set_config(evicting.clone());
                }
                src_logic.push(h);
            }
        }

        let routers = topo.nodes_of_kind(NodeKind::Router);
        let mut sim = Simulator::new(topo, sc.seed);
        sim.set_sim_threads(sim_threads);
        sim.announce_prefix(prefix, plan.dst_host);
        for r in routers {
            let logic = match plan.bounce {
                Some((a, b, bounces)) if r == a || r == b => {
                    let partner = if r == a { b } else { a };
                    let matcher = Box::new(move |p: &Packet| prefix.contains(p.key.dst));
                    RouterLogic::new()
                        .with_program(Box::new(BounceProgram::new(matcher, partner, bounces)))
                }
                _ => RouterLogic::new(),
            };
            sim.set_logic(r, Box::new(logic));
        }
        let mut dst = TcpHost::new();
        match &sc.workload {
            WorkloadSpec::Churn { .. } => dst.set_config(evicting),
            WorkloadSpec::SynFlood {
                backlog,
                syn_timeout,
                ..
            } => dst.set_config(TcpHostConfig {
                listen_backlog: Some(*backlog),
                syn_rcvd_timeout: *syn_timeout,
                ..evicting
            }),
            _ => {}
        }
        sim.set_logic(plan.dst_host, Box::new(dst));
        for (host, logic) in plan.src_hosts.iter().zip(src_logic) {
            sim.set_logic(*host, Box::new(logic));
        }
        if let WorkloadSpec::SynFlood {
            syn_rate,
            attack_start,
            attack_duration,
            ..
        } = &sc.workload
        {
            #[expect(
                clippy::expect_used,
                reason = "compile() always resolves syn_flood's attacker"
            )]
            let attacker = plan.attacker.expect("syn_flood plan resolves an attacker");
            // Aim at a fixed address inside the announced prefix so the
            // flood routes to the victim; SYN-ACK backscatter to the
            // spoofed TEST-NET-2 sources drops as no_route, as it would
            // on a real network.
            let cfg = SynFloodConfig {
                victim: Addr(prefix.addr.0 | 1),
                rate_per_sec: *syn_rate,
                start: *attack_start,
                duration: *attack_duration,
                seed: sc.seed ^ 0x5f1d_f00d,
            };
            sim.set_logic(attacker, Box::new(SynFloodHost::new(cfg)));
        }

        // Each declaration counts its own overlapping windows.
        let samples = self.boundary_loop(
            &mut sim,
            |sim| sim,
            |w| w.decl,
            |sim, decl, on| apply_chaos(sim, &plan.actions[decl], on),
            |_| Sample::default(),
        );
        Observed {
            samples,
            snapshot: sim.metrics_snapshot(),
            ..Default::default()
        }
    }
}

/// Pins a streamed source's flows to the emitting host's address.
///
/// The generator draws both endpoints of each 5-tuple from the target
/// prefix; a host sourcing those flows must own the `src` side or the
/// return path (ACKs, SYN-ACKs) routes into the void. Wraps the stream
/// rather than materializing it, preserving lazy admission.
struct RewriteSrc {
    inner: StreamSource,
    src_addr: Addr,
}

impl FlowSource for RewriteSrc {
    fn pop_due(&mut self, now: SimTime) -> Option<FlowSpec> {
        let mut spec = self.inner.pop_due(now)?;
        spec.key.src = self.src_addr;
        Some(spec)
    }

    fn peek_start(&self) -> Option<SimTime> {
        self.inner.peek_start()
    }

    /// The wrapped stream (which refuses), then the pinned address.
    fn encode(&self, s: &mut Sink<'_>) {
        self.inner.encode(s);
        s.u32(self.src_addr.0);
    }
}

/// Flip one resolved chaos action on or off.
fn apply_chaos(sim: &mut Simulator, action: &ResolvedChaos, on: bool) {
    match action {
        ResolvedChaos::Fault(links) => {
            let fault = if on {
                FaultConfig {
                    drop_prob: 1.0,
                    jitter_max: None,
                }
            } else {
                FaultConfig::default()
            };
            for &l in links {
                sim.set_fault(l, Dir::AtoB, fault);
                sim.set_fault(l, Dir::BtoA, fault);
            }
        }
        ResolvedChaos::AdminDown(links) => {
            for &l in links {
                sim.set_link_up(l, !on);
            }
        }
        // Surge arrivals were baked into the flow schedule at build time.
        ResolvedChaos::Surge => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parse::parse_str;
    use dui_core::flowgen::flows::DurationDist;

    fn run(text: &str) -> RunReport {
        let sc = parse_str("test.dsc", text).unwrap();
        compile(&sc).unwrap().run()
    }

    /// A rewritten stream writes its stream and the address it pins, and
    /// refuses the bytes: two sources that differ in either one digest
    /// apart.
    #[test]
    fn rewrite_src_digest_covers_its_stream_and_address() {
        let source = |seed, host| {
            let cfg = FlowPopulationConfig {
                prefix: Prefix::new(Addr::new(10, 0, 1, 0), 24),
                arrival_rate: 5.0,
                duration: DurationDist::default(),
                pkt_interval: SimDuration::from_millis(10),
                horizon: SimDuration::from_secs(1),
                warm_start: Some(1),
            };
            let stream = FlowStream::new(cfg, Rng::new(seed));
            RewriteSrc {
                inner: StreamSource::new(stream, 1460),
                src_addr: Addr::new(10, 0, 0, host),
            }
        };
        let digest = |r: &RewriteSrc| {
            let mut d = dui_core::stats::digest::StateDigest::new();
            r.encode(&mut Sink::digest(&mut d));
            d.finish()
        };
        let base = digest(&source(1, 1));
        assert_eq!(digest(&source(1, 1)), base);
        assert_ne!(digest(&source(2, 1)), base, "the stream");
        assert_ne!(digest(&source(1, 2)), base, "the pinned address");
        assert!(Sink::save(|s| source(1, 1).encode(s)).is_err());
    }

    #[test]
    fn linear_flap_blacks_out_and_recovers() {
        let report = run("[scenario]\nname = t\nseed = 7\n\
             [topology]\nkind = linear\nnodes = 3\n\
             [workload]\nkind = tcp\nflows = 12\nsrc = h0\ndst = h2\nhorizon = 30s\n\
             [chaos]\nlink_flap = r0-r1 at=10s down=5s\n\
             [expect]\nblackout_during_chaos = true\nrecovery_within = 5s\ndelivered_min = 1000\n");
        for c in &report.checks {
            assert!(c.pass, "{}: {}", c.label, c.detail);
        }
    }

    #[test]
    fn churn_streams_flows_and_recycles_pool_slots() {
        let report = run("[scenario]\nname = t\nseed = 9\n\
             [topology]\nkind = linear\nnodes = 3\n\
             [workload]\nkind = churn\nflows = 10\nmean_lifetime = 4s\nsrc = h0\ndst = h2\n\
             horizon = 25s\n\
             [expect]\nhandshake_completed_min = 10\ncounter_min = tcp.pool.recycled 1\n");
        assert_eq!(report.kind, "churn");
        for c in &report.checks {
            assert!(c.pass, "{}: {}", c.label, c.detail);
        }
    }

    #[test]
    fn syn_flood_saturates_the_backlog_but_not_beyond() {
        let report = run("[scenario]\nname = t\nseed = 9\n\
             [topology]\nkind = linear\nnodes = 3\n\
             [workload]\nkind = syn_flood\nflows = 8\nsrc = h0\ndst = h2\nattacker = h1\n\
             syn_rate = 500\nbacklog = 16\nsyn_timeout = 3s\n\
             attack_start = 5s\nattack_duration = 10s\nhorizon = 30s\n\
             [expect]\nsynrcvd_peak_max = 16\nhandshake_completed_min = 8\n\
             counter_min = tcp.handshake.syn_dropped 100\n");
        assert_eq!(report.kind, "syn_flood");
        for c in &report.checks {
            assert!(c.pass, "{}: {}", c.label, c.detail);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let text = "[scenario]\nname = t\nseed = 7\n\
             [topology]\nkind = ring\nnodes = 4\n\
             [workload]\nkind = tcp\nflows = 8\nsrc = h0,h1\ndst = h2\nhorizon = 20s\n\
             [chaos]\nrouter_churn = r3 at=8s down=4s\n";
        let sc = parse_str("test.dsc", text).unwrap();
        let c = compile(&sc).unwrap();
        let a = c.run();
        let b = c.run();
        assert_eq!(a.delivered, b.delivered);
        assert!(a.delivered > 0);
    }
}
