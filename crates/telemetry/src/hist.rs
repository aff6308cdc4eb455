//! Log-linear histogram for `u64` samples (HDR-style, radically
//! simplified).
//!
//! Values below 16 get exact unit buckets; above that, each power of two
//! is split into 16 linear sub-buckets, so the relative quantization
//! error is bounded by 1/16 ≈ 6.25% while the whole `u64` range fits in
//! under a thousand buckets. The record path is a handful of integer
//! operations — cheap enough for the simulator's per-packet hot loop
//! (the engine records a queue-depth sample per link enqueue, so the
//! `ledger` benchmark times it inside `netsim.sim.ns_per_event`).
//!
//! Histograms merge element-wise, which makes them safe to aggregate
//! across parallel experiment replicates: merge is associative and
//! commutative, and the total count is conserved (properties enforced by
//! `crates/telemetry/tests/properties.rs`).

/// Sub-bucket resolution: each power of two is split into `2^SUB_BITS`
/// linear buckets.
const SUB_BITS: u32 = 4;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// A mergeable log-linear histogram over `u64` values.
///
/// ```
/// use dui_telemetry::hist::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [1u64, 10, 100, 1000, 1000, 1_000_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 6);
/// assert_eq!(h.min(), 1);
/// assert_eq!(h.max(), 1_000_000);
/// // Quantiles are approximate (≤ 6.25% relative error) but always
/// // bounded by the recorded extremes.
/// let p50 = h.quantile(0.5);
/// assert!((1..=1_000_000).contains(&p50));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    total: u128,
    min: u64,
    max: u64,
}

/// Bucket index for a value.
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUB_COUNT - 1)) as usize;
    ((msb - SUB_BITS) as usize + 1) * SUB_COUNT as usize + sub
}

/// Lower bound of bucket `idx` (the value reported for quantiles landing
/// in it).
fn bucket_lo(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_COUNT {
        return idx;
    }
    let block = idx / SUB_COUNT - 1;
    let sub = idx % SUB_COUNT;
    (SUB_COUNT + sub) << block
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.total += v as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`q ∈ [0, 1]`), clamped into
    /// `[min(), max()]` so quantiles never leave the recorded range.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_lo(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The samples recorded since `earlier`, assuming `earlier` is a
    /// previous snapshot of this same histogram (bucket counts
    /// pointwise ≥). Bucket counts, sample count, and total subtract
    /// exactly; `min`/`max` cannot be recovered from the subtraction
    /// alone, so they are approximated by the lower bounds of the
    /// first/last non-empty delta bucket (≤ 6.25% relative error, the
    /// same bound as quantiles). If `earlier` is not actually an
    /// ancestor, mismatched buckets clamp to zero rather than
    /// underflowing, and the delta is merely approximate.
    pub fn diff_since(&self, earlier: &LogHistogram) -> LogHistogram {
        let mut counts = vec![0u64; self.counts.len()];
        let mut count = 0u64;
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for (idx, slot) in counts.iter_mut().enumerate() {
            let prev = earlier.counts.get(idx).copied().unwrap_or(0);
            let d = self.counts[idx].saturating_sub(prev);
            if d > 0 {
                *slot = d;
                count += d;
                lo = lo.min(idx);
                hi = idx;
            }
        }
        if count == 0 {
            return LogHistogram::new();
        }
        counts.truncate(hi + 1);
        LogHistogram {
            counts,
            count,
            total: self.total.saturating_sub(earlier.total),
            min: bucket_lo(lo),
            max: bucket_lo(hi),
        }
    }

    /// Merge another histogram into this one (element-wise bucket sums).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total += other.total;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_sixteen() {
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let got = h.quantile(q);
            assert!(got < 16, "q={q} -> {got}");
        }
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn bucket_roundtrip_bounds() {
        // bucket_lo(bucket_index(v)) <= v, and the error is < 1/16 of v.
        for v in [0u64, 1, 15, 16, 17, 100, 1023, 1024, 1_000_000, u64::MAX] {
            let lo = bucket_lo(bucket_index(v));
            assert!(lo <= v, "v={v} lo={lo}");
            if v >= 16 {
                assert!(v - lo <= v / SUB_COUNT, "v={v} lo={lo}");
            } else {
                assert_eq!(lo, v);
            }
        }
    }

    #[test]
    fn bucket_lo_is_monotone() {
        let mut prev = 0u64;
        for idx in 0..bucket_index(u64::MAX) {
            let lo = bucket_lo(idx);
            assert!(lo >= prev, "idx={idx}");
            prev = lo;
        }
    }

    #[test]
    fn quantiles_bounded_by_extremes() {
        let mut h = LogHistogram::new();
        for v in [3u64, 900, 17, 45_000] {
            h.record(v);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let x = h.quantile(q);
            assert!((3..=45_000).contains(&x), "q={q} -> {x}");
        }
    }

    #[test]
    fn merge_conserves_count_and_extremes() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
        }
        for v in [1_000u64, 2_000_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 2_000_000);
    }

    #[test]
    fn diff_since_recovers_new_samples() {
        let mut h = LogHistogram::new();
        for v in [3u64, 900, 17] {
            h.record(v);
        }
        let earlier = h.clone();
        for v in [5u64, 45_000] {
            h.record(v);
        }
        let d = h.diff_since(&earlier);
        assert_eq!(d.count(), 2);
        // min/max come from bucket lower bounds: exact for 5 (< 16),
        // within 1/16 for 45_000.
        assert_eq!(d.min(), 5);
        assert!(d.max() <= 45_000 && 45_000 - d.max() <= 45_000 / 16);
        // merge(earlier, delta) reconstructs the bucket contents.
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&d);
        assert_eq!(rebuilt.count(), h.count());
        assert_eq!(rebuilt.counts, h.counts);
        // Diff against self is empty.
        assert_eq!(h.diff_since(&h).count(), 0);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(20);
        h.record(60);
        assert_eq!(h.mean(), 30.0);
    }
}
