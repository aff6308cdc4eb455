//! The timer wheel's allocation-free steady state, measured: once the
//! slab has grown to the run's high-water mark of pending entries, a
//! schedule, a cascade and a pop are index relinks and nothing else.
//!
//! The count comes from the workspace's one counting allocator
//! (`tests/support/counting_alloc.rs`).

use dui_netsim::wheel::TimerWheel;
use dui_stats::Rng;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

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
    let ((), counts) = counting_alloc::during(|| cycle(&mut wheel, 1_000_000));
    assert_eq!(
        counts.allocations, 0,
        "steady-state schedule/pop cycles allocated"
    );
    assert!(
        wheel.stats().cascades > cascades + 10_000,
        "the mix must keep cascading"
    );
    // One cell per entry ever pending at once: the pop frees the cell the
    // schedule right after it takes.
    assert_eq!((wheel.len(), wheel.slab_len()), (PENDING, PENDING));
}
