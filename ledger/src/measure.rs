//! Host-side measurement: process CPU time and peak memory from `/proc`,
//! the check tally, and the generic set-up / timed-unit loop every
//! workload is measured with.

use crate::trace::Trace;
use crate::workloads::{Unit, Workload};
use dui_core::stats::summary::median;
use std::time::Instant;

/// User + system CPU seconds of this process (all threads, including
/// ones that already exited), from `/proc/self/stat` fields 14 and 15.
/// The kernel reports them in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks = |i: usize| {
        rest.split_whitespace()
            .nth(i)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Tally of output checks: what was attempted, what failed and why.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one check; a failure is kept as a note and echoed to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let note = what();
            eprintln!("CHECK FAILED: {note}");
            self.notes.push(note);
        }
    }
}

/// Segment times of one timed unit. A workload calls [`Laps::mark`] at
/// fixed points of its timed region (every simulated second, every
/// wave, every file), cutting the unit into segments that are the same
/// work in every unit of a run.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    segments: Vec<f64>,
}

impl Laps {
    pub fn start() -> Self {
        Laps {
            last: Instant::now(),
            // Room for every workload's segment count: no growth (and no
            // allocation) inside a timed region.
            segments: Vec::with_capacity(512),
        }
    }

    /// End the current segment.
    #[inline]
    pub fn mark(&mut self) {
        let now = Instant::now();
        self.segments.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    /// End the last segment and return them all; they add up to the
    /// unit's wall time.
    fn finish(mut self) -> Vec<f64> {
        self.mark();
        self.segments
    }
}

/// The undisturbed time of one unit, estimated from several units cut
/// into the same segments: for each segment the fastest time any unit
/// achieved, summed.
///
/// Interference on a shared host only ever adds time, in bursts and in
/// plateaus of seconds, so the fastest observation of a piece of work is
/// the one closest to its cost (Chen & Revels, *Robust benchmarking in
/// noisy environments*, 2016). Taking it segment by segment lets a run
/// whose every unit was disturbed somewhere still find each segment
/// undisturbed once. On the reference box the run-to-run range of this
/// estimate was a third of the range of the median over units.
pub fn fastest_segments(units: &[Vec<f64>]) -> f64 {
    let n = units.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| units.iter().map(|u| u[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Units measured per run at least: the fastest of fewer is not steady.
/// (`--seconds 0` asks for the shortest run that still checks that two
/// units agree: 2.)
const MIN_UNITS: usize = 5;
/// A set-up cheaper than this is timed [`CHEAP_SETUPS_PER_UNIT`] times
/// before each unit, so that its samples spread over the whole run.
const CHEAP_SETUP_SECONDS: f64 = 0.01;
const CHEAP_SETUPS_PER_UNIT: usize = 3;
/// Set-ups timed per run at least, unless the remainder takes longer than
/// [`EXTRA_SETUP_SECONDS`] in all.
const MIN_SETUPS: usize = 30;
const EXTRA_SETUP_SECONDS: f64 = 0.3;

/// The four end-to-end numbers of one benchmark run, each already reduced
/// over the run's units, and what is filed beside them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_s: f64,
    pub ops_per_s: f64,
    pub peak_rss_mib: f64,
    /// CPU seconds per wall second over all timed regions (for the record:
    /// see `END_TO_END` for why CPU time is not a bounded metric).
    pub cpu_per_wall: f64,
    /// Units measured.
    pub units: usize,
    /// Median wall time of a unit, disturbed or not (for the record; the
    /// metrics use the fastest segments).
    pub unit_wall_median_s: f64,
    /// Operations and outcome digest of one unit (identical for every unit).
    pub unit: Unit,
}

/// Measure `w` untraced: repeat *set-up, then one timed unit* until the
/// timed units add up to `seconds`, and at least [`MIN_UNITS`] times.
///
/// Every unit of one run is the same deterministic computation. `wall_s`
/// is [`fastest_segments`] over the units, `setup_s` the fastest set-up,
/// `ops_per_s` the unit's operations over `wall_s`. `peak_rss_mib` is read
/// after the first unit, so that it is the footprint of setting up and
/// running the workload once, whatever the number of units that fit.
pub fn measure<W: Workload>(w: &W, seconds: f64, checks: &mut Checks) -> EndToEnd {
    let mut setups = Vec::new();
    let mut units: Vec<Vec<f64>> = Vec::new();
    let mut walls = Vec::new();
    let mut cpu_total = 0.0;
    let mut first: Option<Unit> = None;
    let mut peak_rss = 0.0;
    let min_units = if seconds > 0.0 { MIN_UNITS } else { 2 };
    while walls.len() < min_units || walls.iter().sum::<f64>() < seconds {
        let mut state = timed_setup(w, &mut setups);
        for _ in 1..CHEAP_SETUPS_PER_UNIT {
            if setups[setups.len() - 1] < CHEAP_SETUP_SECONDS {
                state = timed_setup(w, &mut setups);
            }
        }

        let cpu0 = cpu_seconds();
        let mut laps = Laps::start();
        let ops = std::hint::black_box(w.run(&mut state, &mut laps));
        let segments = laps.finish();
        cpu_total += cpu_seconds() - cpu0;
        if units.is_empty() {
            peak_rss = peak_rss_mib();
        }
        walls.push(segments.iter().sum());
        units.push(segments);

        let unit = Unit {
            ops,
            digest: w.digest(&mut state),
        };
        w.verify(&mut state, checks);
        match &first {
            None => first = Some(unit),
            Some(f) => checks.check(
                *f == unit && units[0].len() == units[units.len() - 1].len(),
                || {
                    format!(
                        "{}: unit {} differs from unit 0 ({unit:x?} vs {f:x?})",
                        w.name(),
                        walls.len() - 1
                    )
                },
            ),
        }
    }
    let first = first.unwrap_or_default();
    w.cross_check(&first, checks);
    // A set-up of microseconds needs more than a handful of samples for
    // its fastest to be steady: set up again, within a small time budget.
    let extra = Instant::now();
    while setups.len() < MIN_SETUPS && extra.elapsed().as_secs_f64() < EXTRA_SETUP_SECONDS {
        drop(timed_setup(w, &mut setups));
    }
    let wall_s = fastest_segments(&units);
    EndToEnd {
        setup_s: setups.iter().copied().fold(f64::INFINITY, f64::min),
        wall_s,
        ops_per_s: first.ops as f64 / wall_s,
        peak_rss_mib: peak_rss,
        cpu_per_wall: cpu_total / walls.iter().sum::<f64>(),
        units: walls.len(),
        unit_wall_median_s: median(&walls),
        unit: first,
    }
}

fn timed_setup<W: Workload>(w: &W, setups: &mut Vec<f64>) -> W::State {
    let t0 = Instant::now();
    let state = std::hint::black_box(w.setup());
    setups.push(t0.elapsed().as_secs_f64());
    state
}

/// Measure `w` traced: traced units until `seconds` have passed, then one
/// plain unit — the reference for the tracing overhead and for the
/// *timed == traced* identity. (The traced units come first so that the
/// first of them sees a fresh process, as the memory figures need.)
pub fn measure_traced<W: Workload>(w: &W, seconds: f64, checks: &mut Checks) -> (Trace, Unit) {
    let start = Instant::now();
    let mut trace = Trace::default();
    let mut traced = Vec::new();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let unit = w.trace(&mut trace, checks);
        traced.push((unit, t0.elapsed().as_secs_f64()));
        trace.end_unit();
    }
    let mut state = w.setup();
    let mut laps = Laps::start();
    let ops = std::hint::black_box(w.run(&mut state, &mut laps));
    let plain_wall: f64 = laps.finish().iter().sum();
    let plain = Unit {
        ops,
        digest: w.digest(&mut state),
    };
    for (unit, wall) in traced {
        // The whole traced unit — its spans, its extra reference runs —
        // against the plain timed region: what asking costs.
        trace.set("trace.overhead_ratio", wall / plain_wall);
        checks.check(unit == plain, || {
            format!(
                "{}: traced unit {unit:x?} differs from the timed unit {plain:x?}",
                w.name()
            )
        });
    }
    (trace, plain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let c0 = cpu_seconds();
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_secs_f64() < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > c0, "50 ms of spinning is at least one tick");
        // Other tests allocate meanwhile: read the current size first.
        let now = rss_mib();
        assert!(now > 0.0 && peak_rss_mib() >= now);
    }

    #[test]
    fn fastest_segments_takes_each_segment_from_its_best_unit() {
        // Unit 0 was disturbed in its second segment, unit 1 in its first.
        let units = vec![
            vec![1.0, 5.0, 2.0],
            vec![4.0, 1.5, 2.0],
            vec![1.2, 1.6, 2.5],
        ];
        assert_eq!(fastest_segments(&units), 1.0 + 1.5 + 2.0);
        assert_eq!(fastest_segments(&[vec![3.0]]), 3.0);
        assert_eq!(fastest_segments(&[]), 0.0);
        let mut laps = Laps::start();
        laps.mark();
        laps.mark();
        assert_eq!(laps.finish().len(), 3);
    }

    #[test]
    fn checks_tally_failures() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "boom".to_string());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.notes, ["boom"]);
    }
}
