//! Property-based tests for the statistics substrate (via the in-tree
//! `propcheck` engine).

use dui_stats::dist::{self, Binomial, Zipf};
use dui_stats::summary::{mad, median, percentile, Summary};
use dui_stats::Rng;
use dui_stats::{prop_assert, prop_assert_eq, prop_check};

prop_check! {
    fn rng_below_always_bounded(g) {
        let seed = g.any_u64();
        let n = g.u64(1..1_000_000);
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
    }

    fn rng_f64_unit_interval(g) {
        let mut rng = Rng::new(g.any_u64());
        for _ in 0..100 {
            let x = rng.f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    fn rng_replay_is_identical(g) {
        let seed = g.any_u64();
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    fn shuffle_preserves_multiset(g) {
        let seed = g.any_u64();
        let mut v = g.vec(0..50, |g| g.u32(0..100));
        let mut rng = Rng::new(seed);
        let mut shuffled = v.clone();
        rng.shuffle(&mut shuffled);
        shuffled.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(shuffled, v);
    }

    fn binomial_pmf_sums_to_one(g) {
        let n = g.u32(1..200);
        let p = g.f64(0.0..1.0);
        let b = Binomial::new(n, p);
        let total: f64 = (0..=n).map(|k| b.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8, "sum = {total}");
    }

    fn binomial_cdf_monotone(g) {
        let n = g.u32(1..100);
        let p = g.f64(0.0..1.0);
        let b = Binomial::new(n, p);
        let mut prev = 0.0;
        for k in 0..=n {
            let c = b.cdf(k);
            prop_assert!(c + 1e-12 >= prev);
            prev = c;
        }
        prop_assert!((prev - 1.0).abs() < 1e-8);
    }

    fn binomial_quantile_inverts_cdf(g) {
        let n = g.u32(1..100);
        let p = g.f64(0.01..0.99);
        let q = g.f64(0.01..0.99);
        let b = Binomial::new(n, p);
        let k = b.quantile(q);
        prop_assert!(b.cdf(k) >= q - 1e-9);
        if k > 0 {
            prop_assert!(b.cdf(k - 1) < q + 1e-9);
        }
    }

    fn summary_merge_matches_single_stream(g) {
        let xs = g.vec(1..100, |g| g.f64(-1e6..1e6));
        let split = g.usize(0..100).min(xs.len());
        let mut all = Summary::new();
        let mut a = Summary::new();
        let mut b = Summary::new();
        for (i, &x) in xs.iter().enumerate() {
            all.add(x);
            if i < split { a.add(x) } else { b.add(x) }
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        prop_assert!((a.mean() - all.mean()).abs() <= 1e-6 * (1.0 + all.mean().abs()));
        prop_assert!((a.variance() - all.variance()).abs() <= 1e-5 * (1.0 + all.variance().abs()));
    }

    fn percentile_within_minmax(g) {
        let xs = g.vec(1..100, |g| g.f64(-1e6..1e6));
        let q = g.f64(0.0..100.0);
        let p = percentile(&xs, q);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p >= min - 1e-9 && p <= max + 1e-9);
    }

    fn median_partitions(g) {
        let xs = g.vec(1..60, |g| g.f64(-1e3..1e3));
        let m = median(&xs);
        let below = xs.iter().filter(|&&x| x <= m + 1e-12).count();
        let above = xs.iter().filter(|&&x| x >= m - 1e-12).count();
        prop_assert!(below * 2 >= xs.len());
        prop_assert!(above * 2 >= xs.len());
    }

    fn mad_nonnegative_and_zero_for_constant(g) {
        let x = g.f64(-1e3..1e3);
        let n = g.usize(1..30);
        let xs = vec![x; n];
        prop_assert!(mad(&xs).abs() < 1e-9);
    }

    fn zipf_samples_in_range(g) {
        let seed = g.any_u64();
        let n = g.usize(1..500);
        let s = g.f64(0.1..3.0);
        let z = Zipf::new(n, s);
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    fn exponential_positive(g) {
        let mut rng = Rng::new(g.any_u64());
        let rate = g.f64(0.01..1e3);
        for _ in 0..50 {
            prop_assert!(dist::exponential(&mut rng, rate) >= 0.0);
        }
    }

    fn pareto_at_least_scale(g) {
        let mut rng = Rng::new(g.any_u64());
        let xm = g.f64(0.01..1e3);
        let alpha = g.f64(0.1..10.0);
        for _ in 0..50 {
            prop_assert!(dist::pareto(&mut rng, xm, alpha) >= xm);
        }
    }
}
