//! Time-series recording for figure regeneration.
//!
//! The experiment harness records one `TimeSeries` per simulation run (e.g.
//! "number of malicious flows monitored by Blink" sampled every second for
//! Fig. 2) and then aggregates many runs into per-time-point envelopes.

use crate::summary::{percentile, Summary};

/// A sequence of `(time, value)` points, non-decreasing in time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append a point; panics if time is not monotone non-decreasing.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time must be non-decreasing ({t} < {last})");
        }
        self.points.push((t, v));
    }

    /// All points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Value at time `t` by step interpolation (last value at or before `t`).
    /// Returns `None` before the first point.
    pub fn at(&self, t: f64) -> Option<f64> {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => None,
            i => Some(self.points[i - 1].1),
        }
    }
}

/// Per-time-point aggregate over many aligned runs of the same experiment.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Common time axis.
    pub times: Vec<f64>,
    /// Mean value per time point.
    pub mean: Vec<f64>,
    /// Lower quantile per time point.
    pub lo: Vec<f64>,
    /// Upper quantile per time point.
    pub hi: Vec<f64>,
}

/// Aggregate aligned series (all sharing the same time axis) into an
/// [`Envelope`] with mean and `[lo_q, hi_q]` percentile band (percent units).
///
/// Panics if series have differing lengths or time axes.
pub fn envelope(runs: &[TimeSeries], lo_q: f64, hi_q: f64) -> Envelope {
    assert!(!runs.is_empty(), "need at least one run");
    let times: Vec<f64> = runs[0].points().iter().map(|&(t, _)| t).collect();
    for r in runs {
        assert_eq!(r.len(), times.len(), "runs must share a time axis");
    }
    let mut mean = Vec::with_capacity(times.len());
    let mut lo = Vec::with_capacity(times.len());
    let mut hi = Vec::with_capacity(times.len());
    for (i, &ti) in times.iter().enumerate() {
        let vals: Vec<f64> = runs
            .iter()
            .map(|r| {
                let (t, v) = r.points()[i];
                assert!(
                    (t - ti).abs() < 1e-9,
                    "runs must share a time axis (got {t} vs {ti})"
                );
                v
            })
            .collect();
        let mut s = Summary::new();
        for &v in &vals {
            s.add(v);
        }
        mean.push(s.mean());
        lo.push(percentile(&vals, lo_q));
        hi.push(percentile(&vals, hi_q));
    }
    Envelope {
        times,
        mean,
        lo,
        hi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pts: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in pts {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn push_and_read() {
        let s = series(&[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.points()[1], (1.0, 2.0));
    }

    #[test]
    #[should_panic]
    fn non_monotone_time_panics() {
        let mut s = TimeSeries::new();
        s.push(1.0, 0.0);
        s.push(0.5, 0.0);
    }

    #[test]
    fn step_interpolation() {
        let s = series(&[(1.0, 10.0), (3.0, 30.0)]);
        assert_eq!(s.at(0.5), None);
        assert_eq!(s.at(1.0), Some(10.0));
        assert_eq!(s.at(2.9), Some(10.0));
        assert_eq!(s.at(3.0), Some(30.0));
        assert_eq!(s.at(99.0), Some(30.0));
    }

    #[test]
    fn envelope_mean_and_band() {
        let runs = vec![
            series(&[(0.0, 0.0), (1.0, 10.0)]),
            series(&[(0.0, 2.0), (1.0, 20.0)]),
            series(&[(0.0, 4.0), (1.0, 30.0)]),
        ];
        let env = envelope(&runs, 0.0, 100.0);
        assert_eq!(env.times, vec![0.0, 1.0]);
        assert!((env.mean[1] - 20.0).abs() < 1e-12);
        assert_eq!(env.lo[1], 10.0);
        assert_eq!(env.hi[1], 30.0);
    }
}
