//! Probability distributions: samplers and (for the binomial) exact mass /
//! cumulative / quantile functions.
//!
//! The binomial functions implement the paper's §3.1 theoretical analysis of
//! the Blink attack: each of the `n = 64` flow-selector cells is occupied by
//! a malicious flow at time `t` independently with probability
//! `p(t) = 1 − (1 − qm)^(t / tR)`, so the malicious-cell count is
//! `Binomial(n, p(t))`. Fig. 2's "average / 5th percentile / 95th percentile
//! (calculated)" curves are the mean and quantiles of that distribution as a
//! function of `t`.

use crate::rng::Rng;

/// Sample from `Exponential(rate)`; mean is `1 / rate`.
///
/// Inverse-CDF: `-ln(U) / rate` with `U ∈ (0, 1]`.
pub fn exponential(rng: &mut Rng, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    -rng.f64_open().ln() / rate
}

/// Sample from a Pareto distribution with scale `xm > 0` and shape `alpha > 0`.
///
/// Heavy-tailed; used for flow sizes/durations. Mean is `alpha*xm/(alpha-1)`
/// for `alpha > 1`.
pub fn pareto(rng: &mut Rng, xm: f64, alpha: f64) -> f64 {
    assert!(
        xm > 0.0 && alpha > 0.0,
        "pareto parameters must be positive"
    );
    xm / rng.f64_open().powf(1.0 / alpha)
}

/// Sample a standard normal via Box–Muller.
pub fn std_normal(rng: &mut Rng) -> f64 {
    let u1 = rng.f64_open();
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Sample from `Normal(mu, sigma)`.
pub fn normal(rng: &mut Rng, mu: f64, sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "sigma must be non-negative");
    mu + sigma * std_normal(rng)
}

/// Sample from `LogNormal(mu, sigma)` (parameters of the underlying normal).
///
/// Median is `exp(mu)`; used for the body of flow-duration distributions in
/// the CAIDA-like synthetic traces.
pub fn lognormal(rng: &mut Rng, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Sample an integer in `[0, n)` from a Zipf distribution with exponent `s`.
///
/// Rank 0 is the most popular. Implemented by inverse-CDF over precomputed
/// weights for small `n`; for the prefix-popularity use case `n ≤ a few
/// thousand`, so an O(n) table is fine — build a [`Zipf`] once and sample
/// many times.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute a Zipf sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there are no ranks (never: constructor requires `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability mass of rank `k` (0-based).
    pub fn pmf(&self, k: usize) -> f64 {
        if k >= self.cdf.len() {
            return 0.0;
        }
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draw a rank.
    #[expect(
        clippy::expect_used,
        reason = "cdf entries are finite by construction (normalized weights)"
    )]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        }
        .min(self.cdf.len() - 1)
    }
}

/// The binomial distribution `Binomial(n, p)`.
///
/// Provides exact `pmf`/`cdf`/`quantile` (computed in log space for
/// numerical stability at `n = 64..10^4`) and a sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    /// Number of trials.
    pub n: u32,
    /// Success probability.
    pub p: f64,
}

/// `ln Γ(x)` via the Lanczos approximation (g = 7, n = 9), accurate to
/// ~1e-13 for the positive arguments we use.
#[expect(clippy::excessive_precision, reason = "Lanczos reference constants")]
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma domain");
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (std::f64::consts::TAU).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln C(n, k)`.
fn ln_choose(n: u32, k: u32) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

impl Binomial {
    /// Construct; panics unless `p ∈ [0, 1]`.
    pub fn new(n: u32, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        Binomial { n, p }
    }

    /// Mean `n·p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance `n·p·(1−p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// Exact probability mass `P[X = k]`.
    pub fn pmf(&self, k: u32) -> f64 {
        if k > self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if self.p == 1.0 {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        (ln_choose(self.n, k) + k as f64 * self.p.ln() + (self.n - k) as f64 * (1.0 - self.p).ln())
            .exp()
    }

    /// Cumulative `P[X ≤ k]`.
    pub fn cdf(&self, k: u32) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        let mut acc = 0.0;
        for i in 0..=k {
            acc += self.pmf(i);
        }
        acc.min(1.0)
    }

    /// Survival `P[X ≥ k]`.
    pub fn sf_ge(&self, k: u32) -> f64 {
        if k == 0 {
            return 1.0;
        }
        1.0 - self.cdf(k - 1)
    }

    /// Smallest `k` with `P[X ≤ k] ≥ q` (the `q`-quantile, `q ∈ (0, 1)`).
    pub fn quantile(&self, q: f64) -> u32 {
        assert!((0.0..1.0).contains(&q) && q > 0.0, "q must be in (0,1)");
        let mut acc = 0.0;
        for k in 0..=self.n {
            acc += self.pmf(k);
            if acc >= q {
                return k;
            }
        }
        self.n
    }

    /// Draw a sample (O(n) inversion; fine for the n ≤ few-thousand cases
    /// used here).
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let mut hits = 0;
        for _ in 0..self.n {
            if rng.chance(self.p) {
                hits += 1;
            }
        }
        hits
    }
}

/// Sample a geometric count: number of Bernoulli(`p`) failures before the
/// first success. Returns `u64::MAX` if `p <= 0` would loop forever (callers
/// should validate, this is a backstop).
pub fn geometric(rng: &mut Rng, p: f64) -> u64 {
    assert!(p > 0.0 && p <= 1.0, "geometric needs p in (0,1]");
    // Inverse CDF: floor(ln(U)/ln(1-p)).
    if p >= 1.0 {
        return 0;
    }
    (rng.f64_open().ln() / (1.0 - p).ln()).floor() as u64
}

/// Draw a sample from a discrete distribution given unnormalized weights.
pub fn weighted_index(rng: &mut Rng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "weights must have positive finite sum"
    );
    let mut u = rng.f64() * total;
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;

    fn mean_of(samples: impl Iterator<Item = f64>) -> f64 {
        let mut s = Summary::new();
        for x in samples {
            s.add(x);
        }
        s.mean()
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::new(1);
        let m = mean_of((0..200_000).map(|_| exponential(&mut r, 2.0)));
        assert!((m - 0.5).abs() < 0.01, "mean = {m}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut r = Rng::new(2);
        for _ in 0..10_000 {
            assert!(pareto(&mut r, 3.0, 1.5) >= 3.0);
        }
    }

    #[test]
    fn pareto_mean_when_finite() {
        let mut r = Rng::new(3);
        // alpha=3, xm=1 -> mean = 1.5
        let m = mean_of((0..400_000).map(|_| pareto(&mut r, 1.0, 3.0)));
        assert!((m - 1.5).abs() < 0.05, "mean = {m}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(4);
        let mut s = Summary::new();
        for _ in 0..200_000 {
            s.add(normal(&mut r, 5.0, 2.0));
        }
        assert!((s.mean() - 5.0).abs() < 0.03);
        assert!((s.std_dev() - 2.0).abs() < 0.03);
    }

    #[test]
    fn lognormal_median() {
        let mut r = Rng::new(5);
        let mut v: Vec<f64> = (0..100_001).map(|_| lognormal(&mut r, 1.0, 0.8)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((median - 1.0f64.exp()).abs() < 0.1, "median = {median}");
    }

    #[test]
    fn zipf_rank0_most_popular() {
        let z = Zipf::new(100, 1.1);
        let mut r = Rng::new(6);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 0.9);
        let total: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_factorials() {
        // Γ(n+1) = n!
        let f5 = ln_gamma(6.0).exp();
        assert!((f5 - 120.0).abs() < 1e-9);
        let f10 = ln_gamma(11.0).exp();
        assert!((f10 - 3_628_800.0).abs() < 1e-3);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let b = Binomial::new(64, 0.37);
        let total: f64 = (0..=64).map(|k| b.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-10, "total = {total}");
    }

    #[test]
    fn binomial_small_exact() {
        let b = Binomial::new(4, 0.5);
        assert!((b.pmf(2) - 0.375).abs() < 1e-12);
        assert!((b.cdf(1) - 0.3125).abs() < 1e-12);
    }

    #[test]
    fn binomial_edge_probs() {
        let b0 = Binomial::new(10, 0.0);
        assert_eq!(b0.pmf(0), 1.0);
        assert_eq!(b0.sample(&mut Rng::new(1)), 0);
        let b1 = Binomial::new(10, 1.0);
        assert_eq!(b1.pmf(10), 1.0);
        assert_eq!(b1.sample(&mut Rng::new(1)), 10);
    }

    #[test]
    fn binomial_quantile_brackets_mass() {
        let b = Binomial::new(64, 0.3);
        let k05 = b.quantile(0.05);
        let k95 = b.quantile(0.95);
        assert!(k05 < k95);
        assert!(b.cdf(k05) >= 0.05);
        if k05 > 0 {
            assert!(b.cdf(k05 - 1) < 0.05);
        }
        assert!(b.cdf(k95) >= 0.95);
    }

    #[test]
    fn binomial_sampler_matches_mean() {
        let b = Binomial::new(64, 0.3);
        let mut r = Rng::new(7);
        let m = mean_of((0..20_000).map(|_| b.sample(&mut r) as f64));
        assert!((m - b.mean()).abs() < 0.1, "m = {m}");
    }

    #[test]
    fn geometric_mean() {
        let mut r = Rng::new(8);
        // mean failures before success = (1-p)/p = 3 for p = 0.25
        let m = mean_of((0..200_000).map(|_| geometric(&mut r, 0.25) as f64));
        assert!((m - 3.0).abs() < 0.05, "m = {m}");
    }

    #[test]
    fn weighted_index_prefers_heavy() {
        let mut r = Rng::new(9);
        let w = [1.0, 0.0, 9.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[weighted_index(&mut r, &w)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > 8 * counts[0] / 2);
    }

    #[test]
    fn blink_occupancy_probability_formula() {
        // The paper's p = 1-(1-qm)^(tB/tR) at tB=510 s, tR=8.37 s, qm=0.0525
        // yields p ~ 0.963: near-certain takeover by reset time.
        let qm: f64 = 0.0525;
        let p = 1.0 - (1.0 - qm).powf(510.0 / 8.37);
        assert!(p > 0.95 && p < 0.98, "p = {p}");
    }
}
