//! `blink_packet` and `blink_packet_par2`: the paper's C4 packet-level
//! Blink experiment (2000 legitimate + 105 malicious TCP flows, mean
//! lifetime 6.37 s, unguarded) on the sequential engine and, unchanged
//! but for the thread count, on the sharded parallel engine.
//!
//! The paper's run lasts 280 simulated seconds (17 s of host time on the
//! reference box); the benchmark's time budget allows about one host
//! second per unit, so the unit keeps the C4 population and shortens the
//! horizon: attack from t = 5 s, fake-retransmission trigger at t = 20 s,
//! end at t = 24 s. The per-event mix is the C4 steady state; the paper's
//! takeover (≈ 200 s) lies beyond the horizon and is not asserted here.

use super::{Unit, Workload};
use crate::measure::{cpu_seconds, Checks, Laps};
use crate::trace::{SpanAgg, Trace};
use dui_core::netsim::link::Dir;
use dui_core::netsim::parallel::ParallelOutcome;
use dui_core::netsim::time::{SimDuration, SimTime};
use dui_core::netsim::topology::LinkId;
use dui_core::scenario::{BlinkScenario, BlinkScenarioConfig};
use dui_core::stats::summary::median;
use std::time::Instant;

/// The C4 configuration cut to `t_end` seconds: the attack starts at
/// `t_end / 5` (never later than the paper's 5 s) and the trigger fires
/// for the last sixth of the run (at least its last second).
pub fn c4_config(legit: usize, malicious: usize, t_end: u64, seed: u64) -> BlinkScenarioConfig {
    BlinkScenarioConfig {
        legit_flows: legit,
        malicious_flows: malicious,
        mean_lifetime_secs: 6.37,
        attack_start: SimTime::from_secs((t_end / 5).clamp(1, 5)),
        trigger_at: Some(SimTime::from_secs(t_end - (t_end / 6).max(1))),
        guarded: false,
        horizon: SimDuration::from_secs(t_end + 4),
        seed,
        ..Default::default()
    }
}

pub struct BlinkPacket {
    cfg: BlinkScenarioConfig,
    end: SimTime,
    /// 0 = sequential engine, n = `set_sim_threads(n)`.
    threads: usize,
}

impl BlinkPacket {
    pub fn new(seed: u64, quick: bool, threads: usize) -> Self {
        let (legit, malicious, t_end) = if quick { (200, 10, 5) } else { (2000, 105, 24) };
        BlinkPacket {
            cfg: c4_config(legit, malicious, t_end, seed),
            end: SimTime::from_secs(t_end),
            threads,
        }
    }

    fn build(&self, threads: usize) -> BlinkScenario {
        let mut sc = BlinkScenario::build(&self.cfg);
        sc.sim.set_sim_threads(threads);
        sc
    }

    /// Run to the end in segments of one simulated second (~45 ms of
    /// host time); every caller advances the engine through this, so the
    /// timed, the traced and the reference runs make the same calls.
    /// Returns the barrier windows the parallel engine executed (0 on the
    /// sequential engine): its outcome report covers one call only.
    fn run_to_end(&self, sc: &mut BlinkScenario, laps: &mut Laps) -> u64 {
        let mut t = SimTime::ZERO;
        let mut windows = 0;
        while t < self.end {
            t = (t + SimDuration::from_secs(1)).min(self.end);
            sc.sim.run_until(t);
            laps.mark();
            if let Some(ParallelOutcome::Ran(rep)) = sc.sim.last_parallel_outcome() {
                windows += rep.windows;
            }
        }
        windows
    }

    /// The sequential engine's outcome, for the `seq == par2` check.
    fn sequential_unit(&self) -> Unit {
        let mut sc = self.build(0);
        self.run_to_end(&mut sc, &mut Laps::start());
        Unit {
            ops: sc.sim.counters().delivered,
            digest: sc.sim.state_hash(),
        }
    }

    /// Drive the engine one event at a time, one clock read per event:
    /// the time between two reads is the span of the event dispatched
    /// between them, keyed by its kind.
    fn trace_stepped(&self, trace: &mut Trace) -> (BlinkScenario, u64) {
        const KINDS: [&str; 4] = ["deliver", "timer", "tx_complete", "offer"];
        let mut aggs: [SpanAgg; 4] = Default::default();
        let mut sc = self.build(0);
        let t0 = Instant::now();
        let mut last = t0;
        while let Some(ev) = sc.sim.step_limited(self.end) {
            let now = Instant::now();
            let k = match ev.kind.as_bytes() {
                [b'd', ..] => 0,
                [b't', b'i', ..] => 1,
                [b't', ..] => 2,
                _ => 3,
            };
            aggs[k].record((now - last).as_nanos() as u64, 1);
            last = now;
        }
        let wall_ns = (last - t0).as_nanos() as f64;
        let events: u64 = aggs.iter().map(|a| a.ops).sum();
        // `offer` (a cross-domain hand-off) is dispatched only inside the
        // parallel engine; if the sequential engine ever does, the span
        // shows in the trace file.
        for (kind, agg) in KINDS.iter().zip(&aggs).filter(|(_, a)| a.ops > 0) {
            trace.span_agg(&format!("netsim.sim.{kind}"), agg);
        }
        trace.set("netsim.sim.events", events as f64);
        trace.set("netsim.sim.ns_per_event", wall_ns / events.max(1) as f64);
        (sc, events)
    }

    /// Counters the layers keep themselves, read off the loaded engine.
    fn trace_snapshot(sc: &mut BlinkScenario, trace: &mut Trace) {
        let snap = sc.metrics();
        for (metric, counter) in [
            ("netsim.wheel.cascades", "netsim.wheel.cascades"),
            ("netsim.wheel.deferred", "netsim.wheel.deferred"),
            ("netsim.arena.recycled", "netsim.arena.recycled"),
            ("netsim.link.drops_queue", "netsim.drop.queue"),
            ("tcp.pool.recycled", "tcp.pool.recycled"),
            ("blink.selector.sampled", "blink.selector.sampled"),
            (
                "blink.selector.retransmissions",
                "blink.selector.retransmissions",
            ),
            ("blink.program.reroutes", "blink.reroutes"),
        ] {
            trace.set(metric, snap.counter(counter) as f64);
        }
        // Gauges are (sum, n) over the nodes that export them; the sum is
        // the scenario-wide figure.
        let gauge_sum = |name: &str| snap.gauges.get(name).map_or(0.0, |&(sum, _)| sum);
        trace.set(
            "netsim.arena.high_water",
            gauge_sum("netsim.arena.high_water"),
        );
        trace.set("tcp.pool.high_water", gauge_sum("tcp.pool.high_water"));
        trace.set(
            "netsim.link.queue_depth_p99",
            snap.hist("netsim.link.queue_depth")
                .map_or(0.0, |h| h.quantile(0.99) as f64),
        );
    }

    /// What observing the loaded engine costs: 20 calls each, median.
    fn trace_observers(sc: &BlinkScenario, trace: &mut Trace) {
        fn median_us(mut f: impl FnMut()) -> f64 {
            let samples: Vec<f64> = (0..20)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    t0.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&samples)
        }
        trace.set(
            "telemetry.registry.snapshot_us",
            median_us(|| {
                std::hint::black_box(sc.sim.metrics_snapshot());
            }),
        );
        trace.set(
            "netsim.sim.state_hash_us",
            median_us(|| {
                std::hint::black_box(sc.sim.state_hash());
            }),
        );
        // The attacker host and the programmed ingress router keep no
        // `save_state`, so on this scenario the call serialises the
        // legitimate `TcpHost` and then answers "not restorable": what the
        // recorder pays for each of its (hash-only) checkpoints.
        trace.set(
            "netsim.sim.checkpoint_us",
            median_us(|| {
                let _ = std::hint::black_box(sc.sim.checkpoint());
            }),
        );
    }
}

/// Packet conservation on every link direction: what was offered is
/// delivered, dropped for a counted reason, or still queued / in flight
/// (the law `tests/netsim_conservation.rs` holds the engine to).
fn check_conservation(sc: &BlinkScenario, checks: &mut Checks) {
    for l in 0..sc.sim.core().topo().link_count() {
        for dir in [Dir::AtoB, Dir::BtoA] {
            let s = sc.sim.link_stats(LinkId(l), dir);
            let accounted = s.delivered + s.dropped_queue + s.dropped_tap + s.dropped_fault;
            checks.check(s.offered >= accounted, || {
                format!(
                    "link {l} {dir:?}: offered {} < accounted {accounted}",
                    s.offered
                )
            });
        }
    }
}

impl Workload for BlinkPacket {
    type State = BlinkScenario;

    fn name(&self) -> &'static str {
        if self.threads == 0 {
            "blink_packet"
        } else {
            "blink_packet_par2"
        }
    }

    fn size(&self) -> String {
        format!(
            "{} + {} flows, lifetime {} s, trigger at {} s, end at {} s, sim_threads {}",
            self.cfg.legit_flows,
            self.cfg.malicious_flows,
            self.cfg.mean_lifetime_secs,
            self.cfg.trigger_at.map_or(f64::NAN, |t| t.as_secs_f64()),
            self.end.as_secs_f64(),
            self.threads,
        )
    }

    fn setup(&self) -> BlinkScenario {
        self.build(self.threads)
    }

    fn run(&self, sc: &mut BlinkScenario, laps: &mut Laps) -> u64 {
        self.run_to_end(sc, laps);
        sc.sim.counters().delivered
    }

    fn digest(&self, sc: &mut BlinkScenario) -> u64 {
        sc.sim.state_hash()
    }

    fn verify(&self, sc: &mut BlinkScenario, checks: &mut Checks) {
        let delivered = sc.sim.counters().delivered;
        checks.check(delivered > 0, || "no packet was delivered".into());
        check_conservation(sc, checks);
        let outcome = sc.sim.last_parallel_outcome().copied();
        let fallbacks = sc
            .sim
            .metrics_snapshot()
            .counter("netsim.parallel.fallback");
        if self.threads == 0 {
            checks.check(outcome.is_none(), || {
                format!("sequential run reports {outcome:?}")
            });
        } else {
            checks.check(
                matches!(outcome, Some(ParallelOutcome::Ran(_))) && fallbacks == 0,
                || format!("parallel engine did not run: {outcome:?}, {fallbacks} fallbacks"),
            );
        }
    }

    fn cross_check(&self, unit: &Unit, checks: &mut Checks) {
        if self.threads > 0 {
            let seq = self.sequential_unit();
            checks.check(seq == *unit, || {
                format!("par2 {unit:x?} differs from the sequential engine's {seq:x?}")
            });
        }
    }

    fn trace(&self, trace: &mut Trace, checks: &mut Checks) -> Unit {
        if self.threads > 0 {
            // The parallel engine cannot be stepped; time it whole, beside
            // the sequential engine on the same scenario.
            let mut par = self.build(self.threads);
            let (cpu0, t0) = (cpu_seconds(), Instant::now());
            let windows = self.run_to_end(&mut par, &mut Laps::start());
            let (par_wall, par_cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
            let mut seq = self.build(0);
            let (cpu0, t0) = (cpu_seconds(), Instant::now());
            self.run_to_end(&mut seq, &mut Laps::start());
            let (seq_wall, seq_cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
            trace.set("netsim.parallel.speedup_vs_seq", seq_wall / par_wall);
            trace.set(
                "netsim.parallel.cpu_ratio_vs_seq",
                par_cpu / seq_cpu.max(0.01),
            );
            let fallbacks = par
                .sim
                .metrics_snapshot()
                .counter("netsim.parallel.fallback");
            trace.set("netsim.parallel.fallbacks", fallbacks as f64);
            let unit = Unit {
                ops: par.sim.counters().delivered,
                digest: par.sim.state_hash(),
            };
            checks.check(seq.sim.state_hash() == unit.digest, || {
                "traced par2 state hash differs from the sequential engine's".into()
            });
            let outcome = par.sim.last_parallel_outcome().copied();
            drop((par, seq));
            // The event count (for events per window) and the per-kind
            // breakdown come from stepping the sequential engine.
            let (_, events) = self.trace_stepped(trace);
            if let Some(ParallelOutcome::Ran(rep)) = outcome {
                trace.set("netsim.parallel.domains", rep.domains as f64);
                trace.set("netsim.parallel.windows", windows as f64);
                trace.set(
                    "netsim.parallel.lookahead_us",
                    rep.lookahead.as_nanos() as f64 / 1e3,
                );
                trace.set(
                    "netsim.parallel.events_per_window",
                    (events / windows.max(1)) as f64,
                );
            }
            unit
        } else {
            let (mut sc, _) = self.trace_stepped(trace);
            Self::trace_snapshot(&mut sc, trace);
            Self::trace_observers(&sc, trace);
            Unit {
                ops: sc.sim.counters().delivered,
                digest: sc.sim.state_hash(),
            }
        }
    }
}
