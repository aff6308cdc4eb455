//! Wall-clock self-profiler for the experiment harness.
//!
//! It lives in `dui-bench` because this is the one crate the `dui-lint`
//! `determinism/wall-clock` rule exempts, and no library crate may
//! depend on `dui-bench` (`crates/lint/tests/workspace.rs` holds every
//! manifest to that): nothing a simulation runs can call a clock read
//! through this module, because it cannot name it.
//! Everything it produces is explicitly non-deterministic profiling
//! output: it must never feed back into simulation state or into any
//! exported experiment artifact that is compared byte-for-byte across
//! runs. The harness prints it into a clearly-marked "wall-clock"
//! section of `experiments_all.txt` only.
//!
//! The profiler is a process-global so [`crate::par::run_indexed`]
//! can attribute per-task timings from worker threads without threading
//! a handle through every closure. It is disabled by default and all
//! record calls are a single relaxed atomic load when disabled.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<ProfilerState>> = Mutex::new(None);

#[derive(Debug, Default)]
struct ProfilerState {
    current_stage: Option<(String, Instant)>,
    stages: Vec<(String, u64)>,
    tasks: BTreeMap<String, TaskAgg>,
}

/// Aggregated wall-clock attribution for one `run_indexed` call site.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskAgg {
    /// Tasks recorded.
    pub count: u64,
    /// Total wall-clock across tasks, nanoseconds.
    pub total_ns: u64,
    /// Slowest single task, nanoseconds.
    pub max_ns: u64,
    /// Index of the slowest task.
    pub max_index: usize,
}

/// Turn the profiler on (clearing any previous data) or off.
pub fn enable(on: bool) {
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    *state = if on {
        Some(ProfilerState::default())
    } else {
        None
    };
    ENABLED.store(on, Ordering::Release);
}

/// Whether the profiler is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Mark the start of a named experiment stage, closing the previous one.
pub fn set_stage(name: &str) {
    if !is_enabled() {
        return;
    }
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(state) = guard.as_mut() {
        let now = Instant::now();
        if let Some((prev, start)) = state.current_stage.take() {
            state.stages.push((prev, now.duration_since(start).as_nanos() as u64));
        }
        state.current_stage = Some((name.to_string(), now));
    }
}

/// Close the currently-open stage, if any.
pub fn end_stage() {
    if !is_enabled() {
        return;
    }
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(state) = guard.as_mut() {
        if let Some((prev, start)) = state.current_stage.take() {
            state
                .stages
                .push((prev, Instant::now().duration_since(start).as_nanos() as u64));
        }
    }
}

/// Attribute `elapsed_ns` of wall-clock to task `index` of the labelled
/// parallel call site. Cheap no-op while disabled; safe from worker
/// threads.
pub fn record_task(label: &str, index: usize, elapsed_ns: u64) {
    if !is_enabled() {
        return;
    }
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(state) = guard.as_mut() {
        // Attribute to the stage that is open right now, so one call
        // site (e.g. `run_indexed`) splits into per-stage rows.
        let key = match &state.current_stage {
            Some((stage, _)) => format!("{stage}/{label}"),
            None => label.to_string(),
        };
        let agg = state.tasks.entry(key).or_default();
        agg.count += 1;
        agg.total_ns += elapsed_ns;
        if elapsed_ns > agg.max_ns {
            agg.max_ns = elapsed_ns;
            agg.max_index = index;
        }
    }
}

/// Render the profile as human-readable text (stage table, then
/// per-task-site aggregation) and clear nothing — call [`enable`] to
/// reset. Returns an empty string while disabled or empty.
pub fn report() -> String {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let Some(state) = guard.as_mut() else {
        return String::new();
    };
    if let Some((prev, start)) = state.current_stage.take() {
        state
            .stages
            .push((prev, Instant::now().duration_since(start).as_nanos() as u64));
    }
    if state.stages.is_empty() && state.tasks.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str("self-profile (wall clock; non-deterministic)\n");
    for (name, ns) in &state.stages {
        out.push_str(&format!("  stage {:<18} {}\n", name, fmt_ns(*ns)));
    }
    for (label, agg) in &state.tasks {
        let mean = if agg.count > 0 { agg.total_ns / agg.count } else { 0 };
        out.push_str(&format!(
            "  tasks {:<18} n={} total={} mean={} max={} (task #{})\n",
            label,
            agg.count,
            fmt_ns(agg.total_ns),
            fmt_ns(mean),
            fmt_ns(agg.max_ns),
            agg.max_index,
        ));
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Serialize the global-profiler tests onto one lock so they do not
    // race each other's enable/disable.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_profiler_is_silent() {
        let _g = TEST_LOCK.lock().unwrap();
        enable(false);
        record_task("x", 0, 100);
        set_stage("s");
        assert_eq!(report(), "");
    }

    #[test]
    fn stages_and_tasks_show_up() {
        let _g = TEST_LOCK.lock().unwrap();
        enable(true);
        set_stage("alpha");
        record_task("par", 3, 1_500);
        record_task("par", 7, 2_500);
        end_stage();
        let rep = report();
        assert!(rep.contains("stage alpha"), "{rep}");
        assert!(rep.contains("n=2"), "{rep}");
        assert!(rep.contains("(task #7)"), "{rep}");
        enable(false);
    }
}
