//! Randomized invariance for the supervisor pipeline (ISSUE 7
//! satellite, deepened by ISSUE 22): for arbitrary producer
//! populations, group assignments and metric streams, the verdict JSONL
//! emitted by [`dui_supervisord::run`] is byte-identical at
//! `workers ∈ {1, 2, 4}` × `channel_capacity ∈ {1, 2, 64}`.
//!
//! The unit tests in `pipeline.rs` pin this on hand-built streams; this
//! suite quantifies over propcheck-generated ones, including degenerate
//! shapes (zero producers, empty streams, every producer in one group,
//! more workers than groups) and streams of up to 200 epochs — long
//! enough that at capacities 1 and 2 every sender blocks, and is woken,
//! hundreds of times. Each run sits behind a watchdog, so a lost wakeup
//! fails the suite instead of hanging it.

use dui_stats::propcheck::Gen;
use dui_stats::{prop_assert, prop_assert_eq, prop_check};
use dui_supervisord::{run, Config, ProducerSpec};
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
