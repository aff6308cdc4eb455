//! Summary statistics: streaming moments (Welford) and batch percentiles.

/// Streaming mean/variance accumulator (Welford's algorithm) that also keeps
/// min/max. Numerically stable for long runs.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty accumulator.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 for < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Coefficient of variation (std dev / mean); 0 if mean is 0.
    ///
    /// The PCC experiment (paper §4.2) reports traffic *fluctuation* at the
    /// attacked destination; we quantify it as the CV of aggregate
    /// throughput.
    pub fn cv(&self) -> f64 {
        if self.mean() == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean().abs()
        }
    }

    /// Merge another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Percentile of a batch by linear interpolation between closest ranks.
///
/// `q` in `[0, 100]`. Sorts a copy.
pub fn percentile(data: &[f64], q: f64) -> f64 {
    let mut v = data.to_vec();
    sort_floats(&mut v);
    percentile_sorted(&v, q)
}

/// Sort ascending, in place (stable, so equal values keep their order).
fn sort_floats(v: &mut [f64]) {
    #[expect(
        clippy::expect_used,
        reason = "documented precondition — percentile input contains no NaN"
    )]
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in percentile input"));
}

/// Percentile of an already-sorted batch.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=100.0).contains(&q), "q must be in [0,100]");
    assert!(!sorted.is_empty(), "percentile of empty data");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Median convenience wrapper.
pub fn median(data: &[f64]) -> f64 {
    median_in_place(&mut data.to_vec())
}

/// Median absolute deviation (scaled by 1.4826 to be consistent with the
/// standard deviation under normality).
///
/// The Pytheas countermeasure (paper §5) filters per-group QoE reports whose
/// deviation from the group median exceeds a MAD multiple.
pub fn mad(data: &[f64]) -> f64 {
    median_mad_in_place(&mut data.to_vec()).1
}

/// [`median`] of `buf`, which it leaves sorted: no copy.
fn median_in_place(buf: &mut [f64]) -> f64 {
    sort_floats(buf);
    percentile_sorted(buf, 50.0)
}

/// `(median, mad)` of `buf` in one median pass and no copy; `buf` is
/// left holding the sorted absolute deviations. Bit for bit what sorting
/// a fresh copy for each median gives: a deviation is never `-0.0`, so
/// the sorted deviations do not depend on the order they were taken in.
pub fn median_mad_in_place(buf: &mut [f64]) -> (f64, f64) {
    let med = median_in_place(buf);
    for x in buf.iter_mut() {
        *x = (*x - med).abs();
    }
    (med, 1.4826 * median_in_place(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = Summary::new();
        for &x in &data {
            s.add(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // naive unbiased variance = 32/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
        assert_eq!(s.cv(), 0.0);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut all = Summary::new();
        let mut a = Summary::new();
        let mut b = Summary::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            all.add(x);
            if i % 2 == 0 {
                a.add(x)
            } else {
                b.add(x)
            }
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::new();
        a.add(1.0);
        a.add(3.0);
        let before = a.clone();
        a.merge(&Summary::new());
        assert_eq!(a.mean(), before.mean());
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e.mean(), before.mean());
    }

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 100.0), 4.0);
        assert!((percentile(&data, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((median(&[1.0, 2.0, 3.0, 10.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mad_is_robust_to_outlier() {
        let clean = [10.0, 10.5, 9.5, 10.2, 9.8];
        let dirty = [10.0, 10.5, 9.5, 10.2, 1000.0];
        assert!(mad(&dirty) < 3.0, "MAD should shrug off one outlier");
        assert!(mad(&clean) < 1.5);
    }

    #[test]
    #[should_panic]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }
}
