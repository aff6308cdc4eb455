//! Property-based tests of workload generation: streamed-vs-materialized
//! equivalence over randomized configurations (via the in-tree
//! `propcheck` engine).
//!
//! `FlowStream` is documented as the exact iterator twin of
//! `FlowPopulation::generate` — million-flow runs admit flows off the
//! stream in constant memory while staying byte-identical to the
//! materialized path. The unit tests in `stream.rs` pin that for one
//! hand-picked config; these properties pin it across the whole
//! configuration space (arrival rate, duration distribution, horizon,
//! warm-start override) so a future edit to either generator cannot
//! silently skew one of the twins.

use dui_flowgen::{FlowPopulation, FlowPopulationConfig, FlowStream, StreamSource};
use dui_flowgen::flows::DurationDist;
use dui_netsim::packet::{Addr, Prefix};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::{prop_assert, prop_assert_eq, prop_check, Rng};
use dui_tcp::FlowSource;

/// Draw a full-range-but-bounded population config: rates and horizons
/// small enough that the worst case stays around a thousand flows.
fn gen_cfg(g: &mut dui_stats::propcheck::Gen) -> FlowPopulationConfig {
    FlowPopulationConfig {
        prefix: Prefix::new(Addr::new(10, g.u8(0..255), 0, 0), 24),
        arrival_rate: g.f64(0.5..30.0),
        duration: DurationDist {
            ln_mu: g.f64(-1.5..1.5),
            ln_sigma: g.f64(0.05..1.2),
            tail_prob: g.f64(0.0..0.4),
            tail_xm: g.f64(0.5..4.0),
            tail_alpha: g.f64(1.05..3.0),
            max_secs: g.f64(10.0..120.0),
        },
        pkt_interval: SimDuration::from_millis(g.u64(1..500)),
        horizon: SimDuration::from_secs(g.u64(2..30)),
        warm_start: if g.bool() { Some(g.usize(0..40)) } else { None },
    }
}

prop_check! {
    fn stream_equals_materialized_for_any_config(g) {
        let cfg = gen_cfg(g);
        let seed = g.any_u64();
        let pop = FlowPopulation::generate(&cfg, &mut Rng::new(seed));
        let stream = FlowStream::new(cfg, Rng::new(seed));
        let streamed: Vec<_> = stream.collect();
        prop_assert_eq!(
            pop.flows,
            streamed,
            "stream diverged from generate (seed {seed:#x})"
        );
    }

    fn stream_emits_sorted_flows_within_horizon(g) {
        let cfg = gen_cfg(g);
        let horizon = cfg.horizon;
        let mut stream = FlowStream::new(cfg, Rng::new(g.any_u64()));
        let mut prev = SimTime::ZERO;
        let mut count = 0u64;
        for f in stream.by_ref() {
            prop_assert!(f.start >= prev, "start times regressed");
            prop_assert!(
                f.start < SimTime::ZERO + horizon,
                "flow starts past the horizon"
            );
            prop_assert!(f.duration > SimDuration::ZERO);
            prev = f.start;
            count += 1;
        }
        prop_assert_eq!(stream.emitted(), count);
        // The stream is fused: once exhausted it stays exhausted.
        prop_assert!(stream.next().is_none());
    }

    fn stream_source_lowers_the_same_flows(g) {
        // The FlowSource adapter must pop exactly the materialized
        // population, in order, with the requested MSS and handshake
        // flag stamped onto every spec.
        let cfg = gen_cfg(g);
        let seed = g.any_u64();
        let mss = g.u32(500..2000);
        let handshake = g.bool();
        let pop = FlowPopulation::generate(&cfg, &mut Rng::new(seed));
        let mut src = StreamSource::new(FlowStream::new(cfg, Rng::new(seed)), mss)
            .with_handshake(handshake);
        let far_future = SimTime::ZERO + SimDuration::from_secs(10_000);
        for (i, flow) in pop.flows.iter().enumerate() {
            prop_assert_eq!(src.peek_start(), Some(flow.start), "flow {i}");
            // peek_start above proves a flow is pending
            let spec = src.pop_due(far_future).unwrap();
            prop_assert_eq!(spec.key, flow.key);
            prop_assert_eq!(spec.start, flow.start);
            prop_assert_eq!(spec.config.mss, mss);
            prop_assert_eq!(spec.config.handshake, handshake);
        }
        prop_assert!(src.pop_due(far_future).is_none(), "source outlived the population");
        prop_assert_eq!(src.peek_start(), None);
    }
}
