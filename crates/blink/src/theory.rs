//! The HotNets'19 §3.1 closed-form model of the Blink takeover attack.
//!
//! With `tR` the average time a legitimate flow remains sampled, `qm` the
//! malicious traffic fraction, and `tB` the sample-reset period, a given
//! cell has been resampled about `t / tR` times by time `t`, each resample
//! landing on a malicious (always-active, hence never-evicted) flow with
//! probability `qm`. So the probability a cell is malicious-occupied at
//! time `t ≤ tB` is
//!
//! ```text
//! p(t) = 1 − (1 − qm)^(t / tR)
//! ```
//!
//! and with `n` independent cells the malicious-cell count is
//! `X(t) ~ Binomial(n, p(t))`. Fig. 2 plots the mean and the 5th/95th
//! percentiles of `X(t)`; the attack succeeds when `X(t) ≥ threshold`
//! (32 of 64), which for the paper's parameters (tR = 8.37 s,
//! qm = 0.0525) happens on average after ≈ 172 s.

use crate::selector::{CELLS, RESET_INTERVAL, THRESHOLD};
use dui_stats::Binomial;

/// Concurrent legitimate flows of the paper's Fig. 2 scenario.
pub const FIG2_LEGIT_FLOWS: usize = 2000;
/// Malicious flows of the paper's Fig. 2 scenario.
pub const FIG2_MALICIOUS_FLOWS: usize = 105;
/// Mean sampled residency `tR` (seconds) of a legitimate flow in the
/// paper's Fig. 2 scenario.
pub const FIG2_T_R: f64 = 8.37;
/// Malicious traffic fraction `qm` of the paper's Fig. 2 scenario.
pub const FIG2_Q_M: f64 = 0.0525;

/// Parameters of the attack model.
#[derive(Debug, Clone, Copy)]
pub struct AttackModel {
    /// Number of selector cells `n`.
    pub cells: u32,
    /// Cells that must be malicious for the attack to fire (32).
    pub threshold: u32,
    /// Mean sampled residency of legitimate flows `tR` (seconds).
    pub t_r: f64,
    /// Malicious traffic fraction `qm`.
    pub q_m: f64,
    /// Sample reset period `tB` (seconds) — the attacker's time budget.
    pub t_b: f64,
}

impl AttackModel {
    /// The paper's Fig. 2 configuration.
    pub fn fig2() -> Self {
        AttackModel {
            cells: CELLS as u32,
            threshold: THRESHOLD as u32,
            t_r: FIG2_T_R,
            q_m: FIG2_Q_M,
            t_b: RESET_INTERVAL.as_secs_f64(),
        }
    }

    /// `p(t)`: probability one cell is malicious-occupied at time `t`
    /// (clamped to the reset budget — at `t = tB` everything clears).
    pub fn cell_probability(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "time must be non-negative");
        let t = t.min(self.t_b);
        1.0 - (1.0 - self.q_m).powf(t / self.t_r)
    }

    /// Distribution of the malicious cell count at time `t`.
    fn count_distribution(&self, t: f64) -> Binomial {
        Binomial::new(self.cells, self.cell_probability(t))
    }

    /// Expected malicious cells at `t`.
    pub fn mean(&self, t: f64) -> f64 {
        self.count_distribution(t).mean()
    }

    /// `q`-quantile (e.g. 0.05 / 0.95 for the Fig. 2 envelope) at `t`.
    pub fn quantile(&self, t: f64, q: f64) -> u32 {
        self.count_distribution(t).quantile(q)
    }

    /// Probability the attack has taken over (`X(t) ≥ threshold`) at `t`.
    pub fn takeover_probability(&self, t: f64) -> f64 {
        self.count_distribution(t).sf_ge(self.threshold)
    }

    /// First time (second granularity) at which the *mean* malicious cell
    /// count reaches the threshold — the paper's "on average, it takes
    /// 172 s" statement. `None` if it never does within the budget `tB`.
    pub fn mean_takeover_time(&self) -> Option<f64> {
        // Solve n * (1 - (1-qm)^(t/tR)) >= threshold for t, analytically.
        let frac = self.threshold as f64 / self.cells as f64;
        if frac >= 1.0 {
            return None;
        }
        let base = 1.0 - self.q_m;
        if base <= 0.0 {
            return Some(0.0);
        }
        if base >= 1.0 {
            return None; // qm = 0: never
        }
        let t = self.t_r * (1.0 - frac).ln() / base.ln();
        (t <= self.t_b).then_some(t)
    }

    /// Minimum `qm` for which the mean takeover time fits within the reset
    /// budget `tB` (the attack-feasibility frontier swept in the
    /// `blink-sweep` experiment).
    pub fn min_feasible_qm(&self) -> f64 {
        // mean takeover at exactly tB: qm = 1 - (1-frac)^(tR/tB)
        let frac = self.threshold as f64 / self.cells as f64;
        1.0 - (1.0 - frac).powf(self.t_r / self.t_b)
    }
}

/// Effective per-resample malicious probability when the attacker's flows
/// emit packets at `rate_ratio` times the legitimate per-flow packet rate.
///
/// A freed cell is taken by whichever colliding flow sends the next packet,
/// so resampling is packet-rate weighted, not flow-count weighted:
///
/// ```text
/// qm_eff = qm·r / (qm·r + (1 − qm))
/// ```
///
/// This explains the gap between the paper's printed formula and its quoted
/// 172 s takeover: with equal rates (`r = 1`) the formula's mean crossing
/// for Fig. 2's parameters is ≈ 108 s; the paper's mininet experiment used
/// attacker keep-alives slower than the legitimate packet rate, and
/// `r ≈ 0.6` reproduces the ≈ 172 s figure. The `fig2-rates` ablation
/// sweeps `r`.
pub fn effective_qm(flow_fraction: f64, rate_ratio: f64) -> f64 {
    assert!((0.0..=1.0).contains(&flow_fraction), "qm is a probability");
    assert!(rate_ratio >= 0.0, "rate ratio must be non-negative");
    let num = flow_fraction * rate_ratio;
    let den = num + (1.0 - flow_fraction);
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Refined attack model accounting for the attacker's **fixed 5-tuples**.
///
/// The printed formula treats every resample as an independent
/// `Bernoulli(qm)`. In reality (and in any packet-level experiment) the
/// attacker's `m` flows hash to fixed cells: a cell with `k` malicious
/// colliders flips per resample with probability `k·r / (k·r + L/n)`
/// (`L` concurrent legitimate flows, rate ratio `r`), and a cell with
/// `k = 0` **never** flips. Two consequences the iid model misses:
///
/// 1. takeover is slower — the mean crossing of 32 cells moves from
///    ≈ 108 s to ≈ 147 s for the Fig. 2 parameters, much nearer the
///    paper's quoted ≈ 172 s;
/// 2. occupancy saturates at `n·(1 − (1 − 1/n)^m)` ≈ 51.8 of 64 cells for
///    `m = 105`, rather than approaching 64.
///
/// What is checked against our flow-level simulation: the mean of 50
/// simulated runs stays within ±7 cells of this model's mean every 20 s
/// up to 120 s (`fig2_fifty_runs_inside_fixed_keys_band` in
/// `tests/theory_vs_simulation.rs`). Beyond that the two drift apart:
/// measured at the Fig. 2 parameters (achieved tR ≈ 8.22 s), the
/// simulation leads the model by 4.1 cells at 100 s, widening to 7.9
/// cells at 300 s. The `fig2` harness plots both models against the 50
/// simulated runs.
#[derive(Debug, Clone, Copy)]
pub struct FixedKeysModel {
    /// Number of selector cells `n`.
    pub cells: u32,
    /// Takeover threshold (32).
    pub threshold: u32,
    /// Mean sampled residency `tR` (seconds).
    pub t_r: f64,
    /// Sample reset period `tB` (seconds).
    pub t_b: f64,
    /// Number of malicious flows `m` (fixed 5-tuples).
    pub malicious_flows: u32,
    /// Concurrent legitimate flows `L`.
    pub legit_concurrent: f64,
    /// Malicious / legitimate per-flow packet rate ratio `r`.
    pub rate_ratio: f64,
}

impl FixedKeysModel {
    /// The Fig. 2 scenario (2000 legitimate, 105 malicious, equal rates).
    pub fn fig2() -> Self {
        FixedKeysModel {
            cells: CELLS as u32,
            threshold: THRESHOLD as u32,
            t_r: FIG2_T_R,
            t_b: RESET_INTERVAL.as_secs_f64(),
            malicious_flows: FIG2_MALICIOUS_FLOWS as u32,
            legit_concurrent: FIG2_LEGIT_FLOWS as f64,
            rate_ratio: 1.0,
        }
    }

    /// Probability a cell has exactly `k` malicious colliders:
    /// `Binomial(m, 1/n)`.
    fn collider_pmf(&self, k: u32) -> f64 {
        Binomial::new(self.malicious_flows, 1.0 / self.cells as f64).pmf(k)
    }

    /// Per-resample flip probability of a cell with `k` malicious colliders.
    fn flip_prob(&self, k: u32) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let evil_rate = k as f64 * self.rate_ratio;
        evil_rate / (evil_rate + self.legit_concurrent / self.cells as f64)
    }

    /// Marginal probability a cell is malicious-occupied at time `t`.
    pub fn cell_probability(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "time must be non-negative");
        let t = t.min(self.t_b);
        let mut acc = 0.0;
        for k in 0..=self
            .malicious_flows
            .min(3 * (1 + self.malicious_flows / self.cells) + 20)
        {
            let prior = self.collider_pmf(k);
            if prior < 1e-15 {
                continue;
            }
            let p = self.flip_prob(k);
            acc += prior * (1.0 - (1.0 - p).powf(t / self.t_r));
        }
        acc.min(1.0)
    }

    /// Expected malicious-occupied cells at `t`.
    pub fn mean(&self, t: f64) -> f64 {
        self.cells as f64 * self.cell_probability(t)
    }

    /// The saturation ceiling: cells with at least one malicious collider.
    pub fn saturation(&self) -> f64 {
        let n = self.cells as f64;
        n * (1.0 - (1.0 - 1.0 / n).powf(self.malicious_flows as f64))
    }

    /// First time the mean crosses the threshold (bisection at 1 ms
    /// resolution); `None` if the saturation ceiling is below the threshold
    /// or the budget runs out first.
    pub fn mean_takeover_time(&self) -> Option<f64> {
        let target = self.threshold as f64;
        if self.mean(self.t_b) < target {
            return None;
        }
        let (mut lo, mut hi) = (0.0f64, self.t_b);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.mean(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    }

    /// Monte-Carlo `q`-quantile of the malicious cell count at `t`,
    /// honoring the quenched collider assignment (cells keep their `k`
    /// across a run, which widens the spread versus the iid binomial).
    pub fn quantile_mc(&self, t: f64, q: f64, samples: usize, rng: &mut dui_stats::Rng) -> u32 {
        assert!(samples > 0, "need samples");
        let t = t.min(self.t_b);
        // A cell's flip probability by `t` depends only on its collider
        // count: `flipped[k]`, tabulated up to the largest `k` a sample
        // has produced so far.
        let mut flipped: Vec<f64> = Vec::new();
        let mut k = vec![0usize; self.cells as usize];
        let mut counts: Vec<u32> = Vec::with_capacity(samples);
        for _ in 0..samples {
            // Multinomially scatter m flows over n cells.
            k.fill(0);
            for _ in 0..self.malicious_flows {
                k[rng.below_usize(self.cells as usize)] += 1;
            }
            let mut count = 0;
            for &ki in &k {
                while flipped.len() <= ki {
                    let p = self.flip_prob(flipped.len() as u32);
                    flipped.push(1.0 - (1.0 - p).powf(t / self.t_r));
                }
                if rng.chance(flipped[ki]) {
                    count += 1;
                }
            }
            counts.push(count);
        }
        counts.sort_unstable();
        let idx = ((q * samples as f64) as usize).min(samples - 1);
        counts[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_is_monotone_in_time() {
        let m = AttackModel::fig2();
        let mut prev = -1.0;
        for t in 0..510 {
            let p = m.cell_probability(t as f64);
            assert!(p >= prev);
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn paper_formula_mean_crossing() {
        // The paper's printed formula p = 1-(1-qm)^(t/tR) puts the mean
        // crossing of 32 cells at tR·ln(1/2)/ln(1-qm) ≈ 107.6 s for the
        // Fig. 2 parameters. (The caption quotes ≈172 s; see
        // `rate_asymmetry_reproduces_quoted_172s` and EXPERIMENTS.md for
        // the reconciliation.)
        let m = AttackModel::fig2();
        let t = m.mean_takeover_time().expect("attack feasible");
        assert!(
            (t - 107.6).abs() < 1.0,
            "mean takeover at {t:.1}s, formula says ~107.6 s"
        );
    }

    #[test]
    fn rate_asymmetry_reproduces_quoted_172s() {
        // With attacker keep-alives at ~0.63x the legitimate packet rate,
        // resampling is packet-rate weighted and the effective qm drops so
        // the mean crossing lands at the paper's quoted ≈172 s.
        let base = AttackModel::fig2();
        let m = AttackModel {
            q_m: effective_qm(base.q_m, 0.63),
            ..base
        };
        let t = m.mean_takeover_time().expect("still feasible");
        assert!((t - 172.0).abs() < 8.0, "mean takeover at {t:.1}s");
    }

    #[test]
    fn effective_qm_limits() {
        assert_eq!(effective_qm(0.0525, 1.0), 0.0525);
        assert!(effective_qm(0.0525, 0.5) < 0.0525);
        assert!(effective_qm(0.0525, 2.0) > 0.0525);
        assert_eq!(effective_qm(0.0, 5.0), 0.0);
        assert!((effective_qm(1.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn high_confidence_by_200s() {
        // Fig. 2: "After 200 s, there is a high chance that at least 32
        // monitored flows are malicious."
        let m = AttackModel::fig2();
        let p200 = m.takeover_probability(200.0);
        assert!(p200 > 0.5, "p(takeover by 200 s) = {p200}");
        let p510 = m.takeover_probability(510.0);
        assert!(
            p510 > 0.99,
            "by reset time takeover is near-certain: {p510}"
        );
    }

    #[test]
    fn quantile_envelope_brackets_mean() {
        let m = AttackModel::fig2();
        for t in [50.0, 100.0, 200.0, 400.0] {
            let lo = m.quantile(t, 0.05) as f64;
            let hi = m.quantile(t, 0.95) as f64;
            let mean = m.mean(t);
            assert!(
                lo <= mean + 1e-9 && mean <= hi + 1e-9,
                "t={t}: {lo} {mean} {hi}"
            );
        }
    }

    #[test]
    fn longer_residency_slows_attack() {
        // Paper: "With longer tR, the attack is harder."
        let fast = AttackModel {
            t_r: 5.0,
            ..AttackModel::fig2()
        };
        let slow = AttackModel {
            t_r: 20.0,
            ..AttackModel::fig2()
        };
        let tf = fast.mean_takeover_time().unwrap();
        // None = infeasible within budget: even harder, trivially slower.
        if let Some(ts) = slow.mean_takeover_time() {
            assert!(ts > tf);
        }
    }

    #[test]
    fn more_malicious_traffic_speeds_attack() {
        let low = AttackModel {
            q_m: 0.03,
            ..AttackModel::fig2()
        };
        let high = AttackModel {
            q_m: 0.10,
            ..AttackModel::fig2()
        };
        let th = high.mean_takeover_time().unwrap();
        if let Some(tl) = low.mean_takeover_time() {
            assert!(tl > th)
        }
    }

    #[test]
    fn qm_zero_never_takes_over() {
        let m = AttackModel {
            q_m: 0.0,
            ..AttackModel::fig2()
        };
        assert_eq!(m.mean_takeover_time(), None);
        assert_eq!(m.takeover_probability(510.0), 0.0);
    }

    #[test]
    fn feasibility_frontier_consistent() {
        let m = AttackModel::fig2();
        let qmin = m.min_feasible_qm();
        // Just above qmin the mean takeover lands at (just under) tB.
        let at_frontier = AttackModel {
            q_m: qmin * 1.0001,
            ..m
        };
        let t = at_frontier.mean_takeover_time().expect("just feasible");
        assert!((t - m.t_b).abs() < 2.0, "t = {t}");
        // Slightly below is infeasible.
        let below = AttackModel {
            q_m: qmin * 0.95,
            ..m
        };
        assert_eq!(below.mean_takeover_time(), None);
    }

    #[test]
    fn fixed_keys_slower_than_iid() {
        let iid = AttackModel::fig2();
        let fixed = FixedKeysModel::fig2();
        let t_iid = iid.mean_takeover_time().unwrap();
        let t_fixed = fixed.mean_takeover_time().unwrap();
        assert!(
            t_fixed > t_iid + 20.0,
            "fixed keys must slow the attack: iid {t_iid:.0}s vs fixed {t_fixed:.0}s"
        );
        // And it lands in the 140-180 s range, bracketing the paper's 172 s.
        assert!((140.0..185.0).contains(&t_fixed), "t_fixed = {t_fixed:.1}");
    }

    #[test]
    fn fixed_keys_saturates_below_all_cells() {
        let m = FixedKeysModel::fig2();
        let sat = m.saturation();
        assert!((50.0..54.0).contains(&sat), "saturation = {sat:.1}");
        assert!(m.mean(10_000.0) <= sat + 1e-6);
    }

    #[test]
    fn fixed_keys_infeasible_with_few_malicious_flows() {
        // 21 fixed malicious flows cover only ~18 cells: can never reach 32.
        let m = FixedKeysModel {
            malicious_flows: 21,
            legit_concurrent: 400.0,
            ..FixedKeysModel::fig2()
        };
        assert!(m.saturation() < 20.0);
        assert_eq!(m.mean_takeover_time(), None);
    }

    #[test]
    fn fixed_keys_quantiles_bracket_mean() {
        let m = FixedKeysModel::fig2();
        let mut rng = dui_stats::Rng::new(1);
        let t = 150.0;
        let lo = m.quantile_mc(t, 0.05, 2000, &mut rng) as f64;
        let hi = m.quantile_mc(t, 0.95, 2000, &mut rng) as f64;
        let mean = m.mean(t);
        assert!(lo < mean && mean < hi, "{lo} {mean} {hi}");
    }

    /// `quantile_mc` without the table: one `powf` per cell per sample.
    fn quantile_mc_per_cell(
        m: &FixedKeysModel,
        t: f64,
        q: f64,
        samples: usize,
        rng: &mut dui_stats::Rng,
    ) -> u32 {
        let t = t.min(m.t_b);
        let mut counts: Vec<u32> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut k = vec![0u32; m.cells as usize];
            for _ in 0..m.malicious_flows {
                k[rng.below_usize(m.cells as usize)] += 1;
            }
            let mut count = 0;
            for &ki in &k {
                let p = m.flip_prob(ki);
                let flipped = 1.0 - (1.0 - p).powf(t / m.t_r);
                if rng.chance(flipped) {
                    count += 1;
                }
            }
            counts.push(count);
        }
        counts.sort_unstable();
        counts[((q * samples as f64) as usize).min(samples - 1)]
    }

    #[test]
    fn quantile_mc_keeps_its_values_and_its_draws() {
        // Values and the generator's next word as the per-cell evaluation
        // produced them before the table existed (the last row is past
        // `t_b`, so clamped).
        let m = FixedKeysModel {
            t_r: 8.41,
            ..FixedKeysModel::fig2()
        };
        for (t, q, seed, value, next) in [
            (40.0, 0.05, 1, 8, 0xc8ab_c375_9e9f_1581),
            (150.0, 0.95, 99, 38, 0x5aae_16b6_c632_3299),
            (600.0, 0.5, 7, 48, 0xde8c_7a68_7f65_f65c_u64),
        ] {
            let mut rng = dui_stats::Rng::new(seed);
            assert_eq!(m.quantile_mc(t, q, 1500, &mut rng), value, "t={t} q={q}");
            assert_eq!(rng.next_u64(), next, "draw order, t={t} q={q}");
            let mut rng = dui_stats::Rng::new(seed);
            assert_eq!(quantile_mc_per_cell(&m, t, q, 1500, &mut rng), value);
            assert_eq!(rng.next_u64(), next);
        }
    }

    #[test]
    fn reset_clamps_probability() {
        let m = AttackModel::fig2();
        assert_eq!(m.cell_probability(510.0), m.cell_probability(9999.0));
    }
}
