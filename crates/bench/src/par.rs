//! Deterministic parallel task runner for the experiment harness.
//!
//! Replicated experiments (the 50 Fig. 2 simulations, the `(tR, qm)`
//! sweep grid, the defense/fuzz ablations) are embarrassingly parallel:
//! every task is a pure function of its configuration and its seed. The
//! runner exploits that while keeping the output *bit-identical* to a
//! sequential run:
//!
//! 1. **Tasks are indexed.** The work is `f(0), f(1), …, f(n-1)`;
//!    results are collected and returned **in index order**, whatever
//!    order the worker threads finish in. Scheduling therefore cannot
//!    leak into results.
//! 2. **Seeds are derived, never shared.** A task must not pull from a
//!    shared RNG stream (the draw order would depend on scheduling).
//!    Instead each task derives its own seed from the master seed with
//!    [`task_seed`], and seeds a fresh generator from it.
//!
//! Together these give the harness guarantee that `--jobs N` and
//! `--jobs 1` produce byte-identical CSVs (enforced by
//! `crates/bench/tests/determinism.rs`).
//!
//! ```
//! use dui_bench::par;
//!
//! // Squares, computed on however many workers — order is by index.
//! let seq = par::run_indexed(8, 1, |i| i * i);
//! let par4 = par::run_indexed(8, 4, |i| i * i);
//! assert_eq!(seq, par4);
//! ```

use dui_core::stats::rng::mix64;

/// Derive the seed for task `index` from the experiment's `master` seed.
///
/// The derivation is `mix64(master, index)` — two rounds of splitmix64
/// finalization over the pair — so per-task seeds are decorrelated even
/// for adjacent indices and *documented*: any external implementation
/// can reproduce the seed of replicate `i` from the master seed printed
/// in the experiment header.
///
/// ```
/// use dui_bench::par::task_seed;
///
/// // Stable across releases: these values are part of the experiment
/// // artifact format.
/// assert_eq!(task_seed(1, 0), task_seed(1, 0));
/// assert_ne!(task_seed(1, 0), task_seed(1, 1));
/// assert_ne!(task_seed(1, 0), task_seed(2, 0));
/// ```
pub fn task_seed(master: u64, index: u64) -> u64 {
    mix64(master, index)
}

/// Number of worker threads to use when `--jobs` is not given: the
/// machine's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f(0), …, f(tasks-1)` on up to `jobs` worker threads and return
/// the results **in index order**.
///
/// With `jobs <= 1` (or fewer than two tasks) the closure runs on the
/// calling thread, sequentially — the parallel path returns exactly the
/// same vector, it just finishes sooner. Worker threads claim indices
/// from a shared atomic counter (dynamic scheduling, so uneven task
/// costs still balance) and stash `(index, result)` pairs; the pairs
/// are re-assembled into index order before returning.
///
/// Panics in `f` propagate: if any worker panics, `run_indexed` panics.
pub fn run_indexed<T, F>(tasks: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Wall-clock attribution per task when the self-profiler is on
    // (`experiments --metrics`); a single relaxed atomic load otherwise.
    // Timing never feeds back into results, so determinism is untouched.
    let f = |i: usize| {
        if crate::wallclock::is_enabled() {
            let t0 = std::time::Instant::now();
            let r = f(i);
            crate::wallclock::record_task("run_indexed", i, t0.elapsed().as_nanos() as u64);
            r
        } else {
            f(i)
        }
    };
    if jobs <= 1 || tasks <= 1 {
        return (0..tasks).map(f).collect();
    }
    let workers = jobs.min(tasks);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(local) => local,
                // Re-raise the worker's panic payload on the caller's
                // thread instead of swallowing it behind a join error.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), tasks);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order_regardless_of_jobs() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = run_indexed(37, jobs, |i| i * 3);
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn zero_tasks_is_empty() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn uneven_task_costs_still_ordered() {
        // Early indices sleep longest: completion order is roughly the
        // reverse of index order, so this exercises the reassembly.
        let out = run_indexed(12, 4, |i| {
            std::thread::sleep(std::time::Duration::from_millis((12 - i) as u64));
            i
        });
        assert_eq!(out, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn task_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|i| task_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        run_indexed(8, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
