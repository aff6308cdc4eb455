//! Minimal in-tree micro-benchmark timer: warmup, calibrated batches,
//! repeated samples, median/p95/min report. A registry-free stand-in
//! for criterion that keeps `cargo bench` working fully offline.
//!
//! The measurement model is the classic one: run the closure in batches
//! large enough that one batch takes at least [`BenchConfig::min_batch_us`]
//! (so per-call timer overhead vanishes), take [`BenchConfig::samples`]
//! batch timings, and report per-iteration nanoseconds at the median,
//! the 95th percentile and the minimum. Median is the headline number —
//! robust to scheduler noise; p95 shows the tail; min approximates the
//! no-interference cost.
//!
//! ```
//! use dui_bench::harness::{BenchConfig, Suite};
//!
//! let mut suite = Suite::new(BenchConfig { warmup_ms: 1, samples: 5, min_batch_us: 50 });
//! suite.bench("sum_1k", || std::hint::black_box((0..1000u64).sum::<u64>()));
//! let m = &suite.results()[0];
//! assert!(m.median_ns > 0.0 && m.p95_ns >= m.median_ns);
//! assert_eq!(m.name, "sum_1k");
//! ```

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a microbenchmark timer reads the wall clock"
)]

use std::time::{Duration, Instant};

/// Tunables for one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Warmup wall-clock budget in milliseconds (also used to calibrate
    /// the batch size).
    pub warmup_ms: u64,
    /// Number of timed batch samples to collect.
    pub samples: u32,
    /// Minimum duration of one timed batch, in microseconds. The batch
    /// iteration count is chosen so a batch takes at least this long.
    pub min_batch_us: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup_ms: 150,
            samples: 31,
            min_batch_us: 2_000,
        }
    }
}

/// One benchmark's result: per-iteration times in nanoseconds.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name as registered.
    pub name: String,
    /// Median per-iteration time across samples.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time across samples.
    pub p95_ns: f64,
    /// Minimum per-iteration time across samples.
    pub min_ns: f64,
    /// Iterations per timed batch (after calibration).
    pub batch_iters: u64,
    /// Number of samples taken.
    pub samples: u32,
}

/// Format a nanosecond quantity with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:8.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:8.2} µs", ns / 1_000.0)
    } else {
        format!("{:8.3} ms", ns / 1_000_000.0)
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Time `f` under `cfg` and return its [`Measurement`].
///
/// The return value of `f` is passed through [`std::hint::black_box`],
/// so benchmark closures can simply return the value they compute and
/// the optimizer cannot delete the work.
fn run_bench<T, F: FnMut() -> T>(name: &str, cfg: &BenchConfig, mut f: F) -> Measurement {
    // Warmup: run for the budget, counting iterations to calibrate.
    let warmup = Duration::from_millis(cfg.warmup_ms.max(1));
    let start = Instant::now();
    let mut warm_iters: u64 = 0;
    while start.elapsed() < warmup {
        std::hint::black_box(f());
        warm_iters += 1;
    }
    let per_iter = start.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64;
    // Pick a batch size so one batch lasts at least min_batch_us.
    let target_ns = (cfg.min_batch_us.max(1) * 1_000) as f64;
    let batch_iters = ((target_ns / per_iter.max(1.0)).ceil() as u64).max(1);

    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(cfg.samples as usize);
    for _ in 0..cfg.samples.max(1) {
        let t0 = Instant::now();
        for _ in 0..batch_iters {
            std::hint::black_box(f());
        }
        per_iter_ns.push(t0.elapsed().as_nanos() as f64 / batch_iters as f64);
    }
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    Measurement {
        name: name.to_string(),
        median_ns: percentile(&per_iter_ns, 0.5),
        p95_ns: percentile(&per_iter_ns, 0.95),
        min_ns: per_iter_ns[0],
        batch_iters,
        samples: cfg.samples.max(1),
    }
}

/// A suite collects measurements and prints an aligned report.
#[derive(Debug, Default)]
pub struct Suite {
    cfg: BenchConfig,
    results: Vec<Measurement>,
}

impl Suite {
    /// New suite with the given configuration.
    pub fn new(cfg: BenchConfig) -> Self {
        Suite {
            cfg,
            results: Vec::new(),
        }
    }

    /// Run one benchmark, print its line immediately, and record it.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, f: F) {
        let m = run_bench(name, &self.cfg, f);
        println!(
            "{:<36} median {}   p95 {}   min {}   ({} iters/batch × {} samples)",
            m.name,
            fmt_ns(m.median_ns),
            fmt_ns(m.p95_ns),
            fmt_ns(m.min_ns),
            m.batch_iters,
            m.samples
        );
        self.results.push(m);
    }

    /// All measurements taken so far, in registration order.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> BenchConfig {
        BenchConfig {
            warmup_ms: 1,
            samples: 5,
            min_batch_us: 20,
        }
    }

    #[test]
    fn measures_something_positive_and_ordered() {
        let m = run_bench("spin", &quick_cfg(), || {
            std::hint::black_box((0..100u64).fold(0u64, |a, x| a.wrapping_add(x * x)))
        });
        assert!(m.min_ns > 0.0);
        assert!(m.median_ns >= m.min_ns);
        assert!(m.p95_ns >= m.median_ns);
        assert!(m.batch_iters >= 1);
    }

    #[test]
    fn slower_work_measures_slower() {
        let cfg = quick_cfg();
        // Every term goes through `black_box`: an opaque bound alone still
        // lets release builds replace the loop by its closed form.
        let sum = |n: u64| (0..n).map(std::hint::black_box).sum::<u64>();
        let fast = run_bench("fast", &cfg, || sum(10));
        let slow = run_bench("slow", &cfg, || sum(10_000));
        assert!(
            slow.median_ns > fast.median_ns,
            "fast {} vs slow {}",
            fast.median_ns,
            slow.median_ns
        );
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&xs, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn suite_collects_in_order() {
        let mut s = Suite::new(quick_cfg());
        s.bench("a", || std::hint::black_box(1u64 + 1));
        s.bench("b", || std::hint::black_box(2u64 * 3));
        let names: Vec<&str> = s.results().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
