//! What one frame costs the allocator, counted: metric names are
//! interned at registration (`Arc<str>`), so a steady-state
//! `snapshot → encode → observe → drop(frame)` step allocates a small
//! fixed number of times and **no per-frame byte depends on a name's
//! length** — and the supervisor's own per-group state stays flat under
//! a producer that never stops inventing names
//! (`GroupOutlierWindow::MAX_MEMBERS`).
//!
//! The counts come from a counting `GlobalAlloc` local to this test
//! binary (the pattern of `crates/netsim/tests/wheel_alloc.rs`; the
//! library crates keep `forbid(unsafe_code)`).

use dui_defense::streaming::{GroupOutlierWindow, StreamingSupervisor};
use dui_stats::Rng;
use dui_supervisord::{SignalBank, SignalConfig};
use dui_telemetry::registry::{CounterId, GaugeId};
use dui_telemetry::{DeltaEncoder, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's `(allocations, bytes)` so far.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Forwards to the system allocator, counting this thread's allocations
/// and their bytes (`realloc` defaults to `alloc` + `dealloc`, so growth
/// counts too).
struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a `Cell`
// thread-local with a const initializer and no destructor, so it neither
// allocates nor can observe a destroyed value.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| {
            let (n, bytes) = a.get();
            a.set((n + 1, bytes + layout.size() as u64));
        });
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are exactly `System.dealloc`'s.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` this thread made while running `f`.
fn allocated_by(f: impl FnOnce()) -> (u64, u64) {
    let (n0, b0) = ALLOCATED.with(Cell::get);
    f();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    (n1 - n0, b1 - b0)
}

/// The `ledger` benchmark's telemetry source (`supervisord_stream`): one
/// Blink gauge, five Pytheas member gauges, four PCC counters, ten
/// registry updates an epoch — with every metric name padded to
/// `width` characters.
struct Producer {
    rng: Rng,
    reg: Registry,
    blink: GaugeId,
    qoe: Vec<GaugeId>,
    pcc: [CounterId; 4],
    enc: DeltaEncoder,
    bank: SignalBank,
    epoch: u64,
}

impl Producer {
    fn new(width: usize) -> Self {
        let pad = |name: &str| format!("{name:_<width$}");
        // The PCC signal appends `.high_lossy` & co. to its prefix, so
        // those four names are 11 characters longer than the rest.
        let signals = SignalConfig {
            blink_metric: pad("blink"),
            pytheas_prefix: "q.".to_string(),
            pcc_prefix: pad("pcc"),
            ..SignalConfig::default()
        };
        let mut reg = Registry::new();
        let blink = reg.gauge(&signals.blink_metric);
        let qoe = (0..5)
            .map(|k| reg.gauge(&pad(&format!("q.c{k}"))))
            .collect();
        let pcc = ["high_lossy", "high_total", "low_lossy", "low_total"]
            .map(|side| reg.counter(&format!("{}.{side}", signals.pcc_prefix)));
        Producer {
            rng: Rng::new(21),
            reg,
            blink,
            qoe,
            pcc,
            enc: DeltaEncoder::new(0),
            bank: SignalBank::new(&signals),
            epoch: 0,
        }
    }

    /// One epoch, end to end, on this thread; returns what the
    /// per-frame part (everything after the registry updates) allocated.
    fn step(&mut self) -> (u64, u64) {
        self.reg
            .observe(self.blink, 2.0 + self.rng.range_f64(0.0, 2.0));
        for &g in &self.qoe {
            self.reg.observe(g, 0.65 + self.rng.range_f64(0.0, 0.1));
        }
        let [high_lossy, high_total, low_lossy, low_total] = self.pcc;
        self.reg.add(high_total, 50);
        self.reg.add(low_total, 50);
        self.reg.add(high_lossy, 1 + self.rng.below(3));
        self.reg.add(low_lossy, 1 + self.rng.below(3));
        let cost = allocated_by(|| {
            let snap = self.reg.snapshot();
            let frame = self.enc.encode(self.epoch, &snap, 0);
            let verdict = self.bank.observe("site-g0", &frame);
            assert_eq!(frame.delta.gauges.len() + frame.delta.counters.len(), 10);
            drop(frame);
            drop(verdict);
        });
        self.epoch += 1;
        cost
    }

    /// 100 warm-up epochs (every window full, every `VecDeque` at its
    /// final capacity), then the cost of each of the next 100.
    fn steady_state(width: usize) -> Vec<(u64, u64)> {
        let mut p = Producer::new(width);
        for _ in 0..100 {
            p.step();
        }
        (0..100).map(|_| p.step()).collect()
    }
}

#[test]
fn a_frame_allocates_a_fixed_amount_whatever_its_names_weigh() {
    let short = Producer::steady_state(8);
    let long = Producer::steady_state(200);
    let per_frame = short[0];
    println!(
        "per frame: {} allocations, {} bytes",
        per_frame.0, per_frame.1
    );
    assert!(short.iter().all(|&c| c == per_frame), "{short:?}");
    // Two map nodes for the snapshot, two for the delta, the verdict's
    // group string and the outlier signal's median/MAD scratch: 10
    // allocations, 1503 bytes. Before names were interned this same
    // step read 48 allocations (38 of them copies of metric names) and
    // 3087 bytes at 8 characters, 9807 bytes at 200.
    assert!(per_frame.0 <= 10, "allocations per frame: {}", per_frame.0);
    assert_eq!(
        long, short,
        "a 200-character name must cost what an 8-character one does"
    );
}

#[test]
fn a_name_flood_does_not_grow_the_group_window() {
    // A full group first; then 250 fresh member names a frame, 10^4 in
    // all. Past the member bound the window must neither remember a
    // name nor do more work for it: every flooded frame costs the same.
    const MEMBERS: usize = GroupOutlierWindow::MAX_MEMBERS;
    let mut window = GroupOutlierWindow::new("q.", 8);
    let mut costs = Vec::new();
    for epoch in 0..=40 {
        let mut reg = Registry::new();
        for m in 0..MEMBERS {
            let g = reg.gauge(&format!("q.m{m:03}"));
            reg.observe(g, 0.7);
        }
        for j in 0..if epoch == 0 { 0 } else { 250 } {
            let g = reg.gauge(&format!("q.{}{epoch}.{j}", ["a", "m1", "z"][j % 3]));
            reg.observe(g, 0.0);
        }
        let snap = reg.snapshot();
        let cost = allocated_by(|| {
            window.observe(&snap);
        });
        // Epochs 1..=8 still grow the members' own sample windows.
        if epoch > 8 {
            costs.push(cost);
        }
    }
    assert!(costs.iter().all(|&c| c == costs[0]), "{costs:?}");
}
