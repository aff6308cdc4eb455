//! `fig2_montecarlo`: the paper's only data figure. Monte-Carlo replicates
//! of the flow-level Blink selector simulation (`AttackSim`, Fig. 2
//! configuration: 2000 + 105 flows, 64 cells, 500 s), then the iid and
//! fixed-keys theory envelopes on the figure's 10 s time grid. Blink
//! selector/fastsim + flowgen + stats on one thread; no engine, no tcp.
//!
//! The paper plots 50 replicates (0.7 s of host time each); one unit runs
//! two, seeded `mix64(seed, i)` like the experiment harness seeds its
//! tasks.

use super::{Unit, Workload};
use crate::measure::{Checks, Laps};
use crate::trace::Trace;
use dui_core::blink::fastsim::{AttackSim, AttackSimConfig, AttackSimResult};
use dui_core::blink::theory::{AttackModel, FixedKeysModel};
use dui_core::netsim::time::SimDuration;
use dui_core::stats::digest::StateDigest;
use dui_core::stats::rng::mix64;
use dui_core::stats::series::envelope;
use dui_core::stats::summary::median;
use dui_core::stats::Rng;
use std::time::Instant;

/// Selector steps per span in the traced unit (a step is ~160 ns).
const STEP_BATCH: u64 = 1024;
/// Selector steps per segment of the timed unit (~10 ms).
const STEP_SEGMENT: u64 = 65_536;

pub struct Fig2MonteCarlo {
    cfg: AttackSimConfig,
    seed: u64,
    replicates: usize,
}

#[derive(Default)]
pub struct Fig2State {
    sims: Vec<AttackSim>,
    results: Vec<AttackSimResult>,
    /// The figure's rows: simulated envelope beside both theory models.
    rows: Vec<[f64; 10]>,
}

impl Fig2MonteCarlo {
    pub fn new(seed: u64, quick: bool) -> Self {
        let cfg = if quick {
            // The attacker's 105 fixed keys (fewer cannot reach 32 of 64
            // cells) against a fifth of the legitimate flows, so that the
            // takeover lands well inside a shorter horizon.
            AttackSimConfig {
                legit_flows: 400,
                horizon: SimDuration::from_secs(200),
                ..AttackSimConfig::fig2()
            }
        } else {
            AttackSimConfig::fig2()
        };
        Fig2MonteCarlo {
            cfg,
            seed,
            replicates: if quick { 1 } else { 2 },
        }
    }

    fn new_sim(&self, i: usize) -> AttackSim {
        AttackSim::new(&self.cfg, mix64(self.seed, i as u64))
    }

    /// The Fig. 2 table: simulated mean and 5–95 % band beside the iid
    /// binomial and the fixed-keys model, every 10 s.
    fn theory_rows(&self, results: &[AttackSimResult]) -> Vec<[f64; 10]> {
        let series: Vec<_> = results.iter().map(|r| r.series.clone()).collect();
        let env = envelope(&series, 5.0, 95.0);
        let t_rs: Vec<f64> = results.iter().filter_map(|r| r.achieved_t_r).collect();
        let t_r = t_rs.iter().sum::<f64>() / t_rs.len().max(1) as f64;
        let iid = AttackModel {
            t_r,
            ..AttackModel::fig2()
        };
        let fixed = FixedKeysModel {
            t_r,
            ..FixedKeysModel::fig2()
        };
        let mut rng = Rng::new(99);
        let mut rows = Vec::new();
        for (i, &t) in env.times.iter().enumerate() {
            if !(t as u64).is_multiple_of(10) {
                continue;
            }
            rows.push([
                t,
                iid.mean(t),
                iid.quantile(t, 0.05) as f64,
                iid.quantile(t, 0.95) as f64,
                fixed.mean(t),
                fixed.quantile_mc(t, 0.05, 1500, &mut rng) as f64,
                fixed.quantile_mc(t, 0.95, 1500, &mut rng) as f64,
                env.mean[i],
                env.lo[i],
                env.hi[i],
            ]);
        }
        rows
    }
}

impl Workload for Fig2MonteCarlo {
    type State = Fig2State;

    fn name(&self) -> &'static str {
        "fig2_montecarlo"
    }

    fn size(&self) -> String {
        format!(
            "{} replicates of {} + {} flows over {} s, theory grid every 10 s",
            self.replicates,
            self.cfg.legit_flows,
            self.cfg.malicious_flows,
            self.cfg.horizon.as_secs_f64()
        )
    }

    fn setup(&self) -> Fig2State {
        Fig2State {
            sims: (0..self.replicates).map(|i| self.new_sim(i)).collect(),
            ..Fig2State::default()
        }
    }

    fn run(&self, st: &mut Fig2State, laps: &mut Laps) -> u64 {
        for mut sim in st.sims.drain(..) {
            let mut steps = 0;
            while sim.step().is_some() {
                steps += 1;
                if steps % STEP_SEGMENT == 0 {
                    laps.mark();
                }
            }
            st.results.push(sim.into_result());
            laps.mark();
        }
        st.rows = self.theory_rows(&st.results);
        st.results.iter().map(|r| r.packets).sum()
    }

    fn digest(&self, st: &mut Fig2State) -> u64 {
        let mut d = StateDigest::labeled("fig2");
        for r in &st.results {
            d.write_u64(r.packets);
            d.write_opt_u64(r.takeover_time.map(f64::to_bits));
            d.write_len(r.series.len());
            for &(t, v) in r.series.points() {
                d.write_f64(t);
                d.write_f64(v);
            }
        }
        d.write_len(st.rows.len());
        for v in st.rows.iter().flatten() {
            d.write_f64(*v);
        }
        d.finish()
    }

    fn verify(&self, st: &mut Fig2State, checks: &mut Checks) {
        checks.check(st.results.len() == self.replicates, || {
            format!(
                "{} of {} replicates finished",
                st.results.len(),
                self.replicates
            )
        });
        // The paper's outcome: the attacker holds 32 of 64 cells well
        // before the horizon (caption: ≈ 172 s of 500 s).
        for (i, r) in st.results.iter().enumerate() {
            checks.check(r.takeover_time.is_some(), || {
                format!("replicate {i} never reached the takeover threshold")
            });
        }
        let horizon = self.cfg.horizon.as_secs_f64();
        checks.check(
            st.rows.last().is_some_and(|r| r[0] >= horizon - 10.0),
            || "the theory grid does not reach the horizon".into(),
        );
    }

    fn trace(&self, trace: &mut Trace, checks: &mut Checks) -> Unit {
        let mut st = Fig2State::default();
        for i in 0..self.replicates {
            let mut sim = trace.time("blink.fastsim.new", || self.new_sim(i));
            let mut t0 = Instant::now();
            let mut batch = 0;
            while sim.step().is_some() {
                batch += 1;
                if batch == STEP_BATCH {
                    let now = Instant::now();
                    trace.span("blink.fastsim.step", (now - t0).as_nanos() as u64, batch);
                    (t0, batch) = (now, 0);
                }
            }
            // The terminal step (the one that returned `None`) is a call too.
            trace.span(
                "blink.fastsim.step",
                t0.elapsed().as_nanos() as u64,
                batch + 1,
            );
            let res = trace.time("blink.fastsim.into_result", || sim.into_result());
            st.results.push(res);
        }
        st.rows = trace.time("blink.theory.envelope", || self.theory_rows(&st.results));
        let packets: u64 = st.results.iter().map(|r| r.packets).sum();
        trace.set("blink.fastsim.packets", packets as f64);
        trace.set(
            "blink.fastsim.ns_per_packet",
            trace.busy_s("blink.fastsim.step") * 1e9 / packets.max(1) as f64,
        );
        let takeovers: Vec<f64> = st.results.iter().filter_map(|r| r.takeover_time).collect();
        if !takeovers.is_empty() {
            trace.set("blink.fastsim.takeover_median_s", median(&takeovers));
        }
        self.verify(&mut st, checks);
        Unit {
            ops: packets,
            digest: self.digest(&mut st),
        }
    }
}
