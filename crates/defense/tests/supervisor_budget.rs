//! What a whole `supervisord::run` costs the allocator, counted: shard 0
//! runs on the calling thread, so that thread's count covers the worker
//! and the sink (the producers' frames are allocated on their own
//! threads). Once every window is full a frame costs nothing but its
//! verdict's slot, so twice the epochs may cost one more allocation:
//! the verdict vector's extra doubling.
//!
//! The counts come from the workspace's one counting allocator
//! (`tests/support/counting_alloc.rs`).

use dui_defense::supervisord::{self, Config, ProducerSpec, Verdict};
use dui_stats::Rng;
use dui_telemetry::{DeltaEncoder, Frame, Registry};
use std::mem::size_of;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

const PRODUCERS: u32 = 4;

/// Producer `id`'s frames, built before anything is counted: one Blink
/// gauge, five Pytheas member gauges and four PCC counters an epoch, two
/// producers a group, as in the `ledger` benchmark's fleet.
fn frames(id: u32, epochs: u64) -> Vec<Frame> {
    let mut rng = Rng::new(u64::from(id));
    let mut reg = Registry::new();
    let blink = reg.gauge("blink.cells.malicious");
    let qoe: Vec<_> = (0..5)
        .map(|k| reg.gauge(&format!("pytheas.qoe.p{id}.c{k}")))
        .collect();
    let pcc = ["high_lossy", "high_total", "low_lossy", "low_total"]
        .map(|side| reg.counter(&format!("pcc.mi.{side}")));
    let mut enc = DeltaEncoder::new(id);
    (0..epochs)
        .map(|e| {
            reg.observe(blink, 2.0 + rng.range_f64(0.0, 2.0));
            for &g in &qoe {
                reg.observe(g, 0.65 + rng.range_f64(0.0, 0.1));
            }
            for (&c, v) in pcc.iter().zip([1 + rng.below(3), 50, 1, 50]) {
                reg.add(c, v);
            }
            enc.encode(e, &reg.snapshot(), 0)
        })
        .collect()
}

/// `(allocations, bytes)` this thread made running the fleet for
/// `epochs` epochs at one worker.
fn run_cost(epochs: u64) -> (u64, u64) {
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|id| {
            let spec = ProducerSpec {
                id,
                group: format!("site-g{}", id / 2),
            };
            (spec, frames(id, epochs).into_iter())
        })
        .collect();
    let (report, counts) =
        counting_alloc::during(|| supervisord::run(&Config::default(), producers));
    assert_eq!(report.frames, u64::from(PRODUCERS) * epochs);
    (counts.allocations, counts.bytes)
}

#[test]
fn a_verdict_owns_no_heap() {
    // Epoch, seq, five risks, the shared name, producer id and action.
    assert_eq!(size_of::<Verdict>(), 80);
}

#[test]
fn twice_the_epochs_cost_one_more_doubling() {
    const N: u64 = 500;
    let (once, once_bytes) = run_cost(N);
    let (twice, twice_bytes) = run_cost(2 * N);
    println!("allocations, bytes: {once}, {once_bytes} at N; {twice}, {twice_bytes} at 2N");
    // The verdict vector grows by doubling; its last capacity at 2N
    // frames is the one doubling the N-epoch run did not make.
    let frames = (2 * N * u64::from(PRODUCERS)) as usize;
    let doubling = (frames.next_power_of_two() * size_of::<Verdict>()) as u64;
    assert!(
        twice <= once + 1,
        "{once} allocations over {N} epochs, {twice} over {}",
        2 * N
    );
    assert!(
        twice_bytes <= once_bytes + doubling,
        "{once_bytes} bytes over {N} epochs, {twice_bytes} over {} (one doubling: {doubling})",
        2 * N
    );
}
