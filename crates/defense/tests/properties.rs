//! Randomized properties of the streaming supervisor.
//!
//! * The verdict JSONL emitted by [`dui_defense::supervisord::run`] is
//!   byte-identical at `workers ∈ {1, 2, 4}` × `channel_capacity ∈
//!   {1, 2, 64}` for arbitrary producer populations, group assignments
//!   and metric streams. The unit tests in `pipeline.rs` pin this on
//!   hand-built streams; this suite quantifies over propcheck-generated
//!   ones, including degenerate shapes (zero producers, empty streams,
//!   every producer in one group, more workers than groups) and streams
//!   of up to 200 epochs — long enough that at capacities 1 and 2 every
//!   sender blocks, and is woken, hundreds of times. Each run sits behind
//!   a watchdog, so a lost wakeup fails the suite instead of hanging it.
//! * [`DropPatternWindow`] — windowed `PccLossPatternMonitor` tallies
//!   scored by the monitor's `risk()` — rules bit for bit as the
//!   presence-only formula it replaced, on random counter streams at
//!   windows 1–16.

use dui_defense::streaming::DropPatternWindow;
use dui_defense::supervisord::{run, Config, ProducerSpec};
use dui_defense::Risk;
use dui_stats::propcheck::Gen;
use dui_stats::{prop_assert, prop_assert_eq, prop_check};
use dui_telemetry::delta::{DeltaEncoder, Frame};
use dui_telemetry::Registry;
use std::sync::mpsc;
use std::time::Duration;

/// One generated producer: its addressing plus a pre-materialized
/// frame stream (cloned into a fresh iterator for every worker count).
struct ArbProducer {
    spec: ProducerSpec,
    frames: Vec<Frame>,
}

/// Drive a [`DeltaEncoder`] over a registry receiving random updates
/// to the metrics the default [`SignalConfig`] watches — plus noise
/// metrics no signal knows — so generated streams exercise the real
/// signal bank, not just the plumbing.
fn arb_producer(g: &mut Gen, id: u32) -> ArbProducer {
    let group = format!("g{}", g.u32(0..4));
    let mut reg = Registry::new();
    let blink = reg.gauge("blink.cells.malicious");
    let qoe_a = reg.gauge("pytheas.qoe.a");
    let qoe_b = reg.gauge("pytheas.qoe.b");
    let hi = reg.counter("pcc.mi.high_total");
    let hi_lossy = reg.counter("pcc.mi.high_lossy");
    let lo = reg.counter("pcc.mi.low_total");
    let noise = reg.counter("unrelated.events");
    let mut enc = DeltaEncoder::new(id);
    let mut frames = Vec::new();
    for epoch in 0..g.usize(0..201) as u64 {
        reg.observe(blink, g.u32(0..64) as f64);
        reg.observe(qoe_a, g.u32(0..100) as f64 / 100.0);
        reg.observe(qoe_b, g.u32(0..100) as f64 / 100.0);
        reg.add(hi, g.u32(0..50) as u64);
        reg.add(hi_lossy, g.u32(0..20) as u64);
        reg.add(lo, g.u32(0..50) as u64);
        reg.add(noise, g.u32(0..5) as u64);
        frames.push(enc.encode(epoch, &reg.snapshot(), 0));
    }
    ArbProducer {
        spec: ProducerSpec { id, group },
        frames,
    }
}

fn run_at(workers: usize, channel_capacity: usize, producers: &[ArbProducer]) -> String {
    let cfg = Config {
        workers,
        channel_capacity,
        ..Config::default()
    };
    let sources: Vec<_> = producers
        .iter()
        .map(|p| (p.spec.clone(), p.frames.clone().into_iter()))
        .collect();
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let report = run(&cfg, sources);
        let _ = done.send((report.frames, report.to_jsonl()));
    });
    let (frames, jsonl) = finished
        .recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|e| {
            panic!("pipeline at workers={workers} capacity={channel_capacity}: {e:?}")
        });
    let total: usize = producers.iter().map(|p| p.frames.len()).sum();
    assert_eq!(frames, total as u64, "every frame gets a verdict");
    jsonl
}

prop_check! {
    fn verdict_log_is_worker_count_invariant(g) {
        let n = g.usize(0..6);
        let producers: Vec<ArbProducer> =
            (0..n).map(|i| arb_producer(g, i as u32)).collect();
        let reference = run_at(1, 64, &producers);
        for workers in [1usize, 2, 4] {
            for capacity in [1usize, 2, 64] {
                prop_assert_eq!(
                    &run_at(workers, capacity, &producers),
                    &reference,
                    "verdict log diverged at workers={} capacity={}", workers, capacity
                );
            }
        }
        let frames: usize = producers.iter().map(|p| p.frames.len()).sum();
        prop_assert_eq!(reference.lines().count(), frames);
        prop_assert!(
            reference.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
            "verdict log must be one JSON object per line"
        );
    }
}

/// The rule `DropPatternWindow` applied before it held monitor tallies,
/// kept as the reference model: sum the last `window` rows
/// `[high_lossy, high_total, low_lossy, low_total]` that had any count,
/// then `P(loss | high) − P(loss | low)` clamped into `[0, 1]` — or no
/// risk with fewer than 10 intervals on either side.
fn presence_only(rows: &[[u64; 4]], window: usize) -> Risk {
    let seen: Vec<&[u64; 4]> = rows.iter().filter(|r| r.iter().any(|&v| v > 0)).collect();
    let sums = seen[seen.len().saturating_sub(window)..]
        .iter()
        .fold([0u64; 4], |mut acc, r| {
            for (a, &b) in acc.iter_mut().zip(r.iter()) {
                *a += b;
            }
            acc
        });
    let [hl, ht, ll, lt] = sums;
    if ht < 10 || lt < 10 {
        return Risk::NONE;
    }
    let p_high = hl as f64 / ht as f64;
    let p_low = ll as f64 / lt as f64;
    Risk::clamped(p_high - p_low)
}

prop_check! {
    fn drop_pattern_window_matches_the_presence_only_formula(g) {
        let window = g.usize(1..17);
        let mut w = DropPatternWindow::new("pcc.mi", window);
        let mut rows = Vec::new();
        for epoch in 0..g.usize(0..60) {
            // A third of the deltas carry no PCC counts at all.
            let row: [u64; 4] = if g.u32(0..3) == 0 {
                [0; 4]
            } else {
                [g.u64(0..8), g.u64(0..12), g.u64(0..8), g.u64(0..12)]
            };
            let mut reg = Registry::new();
            for (side, &v) in ["high_lossy", "high_total", "low_lossy", "low_total"]
                .iter()
                .zip(row.iter())
            {
                // An absent counter and a zero one both read as 0.
                if v > 0 || g.bool() {
                    let c = reg.counter(&format!("pcc.mi.{side}"));
                    reg.add(c, v);
                }
            }
            rows.push(row);
            let risk = w.observe(&reg.snapshot());
            let reference = presence_only(&rows, window);
            prop_assert_eq!(
                risk.0.to_bits(),
                reference.0.to_bits(),
                "epoch {} window {}: {} vs reference {}", epoch, window, risk.0, reference.0
            );
        }
    }
}
