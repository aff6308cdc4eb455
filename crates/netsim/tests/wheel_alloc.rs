//! The timer wheel's allocation-free steady state, measured: once the
//! slab has grown to the run's high-water mark of pending entries, a
//! schedule, a cascade and a pop are index relinks and nothing else.
//!
//! The count comes from a counting `GlobalAlloc` local to this test
//! binary (the `dui-replay` `hostile_bytes` pattern; the library crates
//! keep `forbid(unsafe_code)`).

use dui_netsim::wheel::TimerWheel;
use dui_stats::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting this thread's allocations
/// (`realloc` defaults to `alloc` + `dealloc`, so growth counts too).
struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a `Cell<u64>`
// thread-local with a const initializer and no destructor, so it neither
// allocates nor can observe a destroyed value.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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

/// The packet engine's schedule distances on the C4 run (the mix
/// `event_queue_engine_mix_*` benches): 46 % at +12 µs, 46 % at +2/5/8 ms,
/// 8 % at +250 ms — level 0, level 1 and level 2 of the wheel.
fn engine_mix_distance(rng: &mut Rng) -> u64 {
    match rng.below(50) {
        0..=22 => 12_000,
        d @ 23..=45 => [2_000_000, 5_000_000, 8_000_000][d as usize % 3],
        _ => 250_000_000,
    }
}

#[test]
fn wheel_steady_state_makes_no_allocations() {
    const PENDING: usize = 4_500;
    let mut rng = Rng::new(4);
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut cycle = |wheel: &mut TimerWheel<u64>, rounds: u64| {
        for _ in 0..rounds {
            let (now, v) = wheel.pop().expect("population is constant");
            wheel.schedule(now + engine_mix_distance(&mut rng), v);
        }
    };
    for i in 0..PENDING {
        wheel.schedule(i as u64 * 1_000, i as u64);
    }
    // Warm-up: long enough for every level in the mix to cascade.
    cycle(&mut wheel, 100_000);
    let cascades = wheel.stats().cascades;
    let before = ALLOCATIONS.with(Cell::get);
    cycle(&mut wheel, 1_000_000);
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocated, 0, "steady-state schedule/pop cycles allocated");
    assert!(
        wheel.stats().cascades > cascades + 10_000,
        "the mix must keep cascading"
    );
    // One cell per entry ever pending at once: the pop frees the cell the
    // schedule right after it takes.
    assert_eq!((wheel.len(), wheel.slab_len()), (PENDING, PENDING));
}
