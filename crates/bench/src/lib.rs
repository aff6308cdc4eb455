//! # dui-bench
//!
//! The experiment harness behind `cargo run --release -p dui-bench --bin
//! experiments`: every figure and numeric claim of the paper is
//! regenerated by a *stage* — a row of [`stages::STAGES`] — the
//! microbenches of the layers the `ledger/` benchmark does not time live
//! on the in-tree [`harness`] (no criterion, no registry access), and
//! replicated stages fan out over threads with [`par`].
//!
//! Only [`harness`] and the `experiments` binary read the wall clock:
//! each expects clippy's clock lints at its own root, so a clock
//! read anywhere else in the crate — a stage, a recording, the scenario
//! runner — fails the lint gate. No library crate may depend on this
//! crate (`tests/workspace_lints.rs`), so none can reach those clocks.
//!
//! ## Determinism contract
//!
//! Every stage is a pure function of its configuration and a **master
//! seed**. Replicate `i` of a stage runs with seed
//! `par::task_seed(master, i)` = `mix64(master, i)` — derived, never
//! drawn from a shared stream — and results are collected in replicate
//! order. Consequently `--jobs N` changes wall-clock time only: the
//! CSVs under `results/` are byte-identical for any `N` (enforced for
//! every row by [`stages::verify_determinism`]).
//!
//! ```
//! use dui_bench::par::{run_indexed, task_seed};
//!
//! // Ten replicates of a seeded computation, four workers: the output
//! // depends only on the master seed, not the thread count.
//! let master = 1u64;
//! let run = |jobs| run_indexed(10, jobs, |i| task_seed(master, i as u64) % 97);
//! assert_eq!(run(1), run(4));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod harness;
pub mod par;
pub mod recordings;
pub mod scenario;
pub mod stages;

use dui_core::blink::selector::{BlinkParams, FlowSelector};
use dui_core::flowgen::flows::FlowPopulation;
use dui_core::netsim::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Replay one prefix's flow population through a real [`FlowSelector`] and
/// return the completed cell residencies in seconds — the per-prefix `tR`
/// measurement of the `caida-residency` experiment (paper §3.1's "average
/// time a flow remains sampled").
pub fn measure_residencies(pop: &FlowPopulation, params: BlinkParams) -> Vec<f64> {
    let mut selector = FlowSelector::new(params);
    selector.record_residencies();
    // Per-flow packet clocks over the flow's active window.
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
    for (i, f) in pop.flows.iter().enumerate() {
        heap.push(Reverse((f.start, i)));
    }
    let mut seqs: Vec<u32> = (0..pop.flows.len()).map(|i| i as u32 * 7919).collect();
    while let Some(Reverse((t, i))) = heap.pop() {
        let f = &pop.flows[i];
        if t >= f.end() {
            // Final packet: FIN.
            selector.on_packet(t, f.key, seqs[i], true);
            continue;
        }
        seqs[i] = seqs[i].wrapping_add(1460);
        selector.on_packet(t, f.key, seqs[i], false);
        heap.push(Reverse((t + f.pkt_interval, i)));
    }
    selector
        .residencies()
        .iter()
        .map(|d| d.as_secs_f64())
        .collect()
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_core::flowgen::flows::{DurationDist, FlowPopulationConfig};
    use dui_core::netsim::packet::{Addr, Prefix};
    use dui_core::netsim::time::SimDuration;
    use dui_core::stats::Rng;

    #[test]
    fn residency_tracks_flow_lifetimes() {
        // Short-lived flows => short residencies; long-lived => longer.
        let make = |median_secs: f64| {
            let sigma = 0.5f64;
            let cfg = FlowPopulationConfig {
                prefix: Prefix::new(Addr::new(10, 0, 0, 0), 24),
                arrival_rate: 40.0,
                duration: DurationDist {
                    ln_mu: median_secs.ln(),
                    ln_sigma: sigma,
                    tail_prob: 0.0,
                    tail_xm: 10.0,
                    tail_alpha: 1.5,
                    max_secs: 120.0,
                },
                pkt_interval: SimDuration::from_millis(250),
                horizon: SimDuration::from_secs(60),
                warm_start: None,
            };
            let pop = FlowPopulation::generate(&cfg, &mut Rng::new(3));
            let res = measure_residencies(&pop, BlinkParams::default());
            assert!(!res.is_empty());
            mean(&res)
        };
        let short = make(2.0);
        let long = make(10.0);
        assert!(
            long > short + 1.0,
            "longer lifetimes must yield longer residencies: {short:.2} vs {long:.2}"
        );
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
