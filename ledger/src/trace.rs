//! The traced pass: spans around the benchmark's own calls into each
//! layer, aggregated in memory by name, and the per-layer metric table.
//!
//! A workload's `trace` runs one *traced unit* and reports into a
//! [`Trace`]: [`Trace::span`] for a timed call (or a timed batch of
//! calls), [`Trace::set`] for a count or a derived number. Raw span
//! records are never kept — an engine run dispatches millions of events —
//! only count, total and a log-histogram per name. The driver repeats the
//! traced unit for the run's length; each per-layer metric is the median
//! over those units, and every `.count` must repeat exactly.

use crate::measure::Checks;
use dui_core::stats::summary::median;
use dui_core::telemetry::hist::LogHistogram;
use dui_core::telemetry::json::{json_f64, push_json_str};
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric, with its unit. `BENCHMARK.json` lists exactly
/// these (a unit test holds the two together). A traced run prints all of
/// them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // netsim engine, per event kind (blink_packet, blink_packet_par2's
    // sequential reference, replay_verify's plain run).
    ("netsim.sim.events", "count"),
    ("netsim.sim.ns_per_event", "ns"),
    ("netsim.sim.deliver.count", "count"),
    ("netsim.sim.deliver.busy_s", "s"),
    ("netsim.sim.timer.count", "count"),
    ("netsim.sim.timer.busy_s", "s"),
    ("netsim.sim.tx_complete.count", "count"),
    ("netsim.sim.tx_complete.busy_s", "s"),
    ("netsim.wheel.cascades", "count"),
    ("netsim.wheel.deferred", "count"),
    ("netsim.arena.high_water", "count"),
    ("netsim.arena.recycled", "count"),
    ("netsim.link.queue_depth_p99", "count"),
    ("netsim.link.drops_queue", "count"),
    ("tcp.pool.high_water", "count"),
    ("tcp.pool.recycled", "count"),
    ("blink.selector.sampled", "count"),
    ("blink.selector.retransmissions", "count"),
    ("blink.program.reroutes", "count"),
    ("telemetry.registry.snapshot_us", "us"),
    ("netsim.sim.state_hash_us", "us"),
    ("netsim.sim.checkpoint_us", "us"),
    // netsim::parallel (blink_packet_par2).
    ("netsim.parallel.domains", "count"),
    ("netsim.parallel.windows", "count"),
    ("netsim.parallel.lookahead_us", "us"),
    ("netsim.parallel.events_per_window", "count"),
    ("netsim.parallel.fallbacks", "count"),
    ("netsim.parallel.speedup_vs_seq", "ratio"),
    ("netsim.parallel.cpu_ratio_vs_seq", "ratio"),
    // tcp FlowPool phases (flow_churn).
    ("tcp.pool.admit.count", "count"),
    ("tcp.pool.admit.busy_s", "s"),
    ("tcp.pool.exchange.count", "count"),
    ("tcp.pool.exchange.busy_s", "s"),
    ("tcp.pool.tick.count", "count"),
    ("tcp.pool.tick.busy_s", "s"),
    ("tcp.pool.poll.count", "count"),
    ("tcp.pool.poll.busy_s", "s"),
    ("tcp.pool.free.count", "count"),
    ("tcp.pool.free.busy_s", "s"),
    ("flowgen.stream.next.busy_s", "s"),
    ("tcp.pool.ns_per_lifecycle", "ns"),
    ("tcp.pool.bytes_per_slot", "B"),
    ("tcp.pool.stale_rejected", "count"),
    // blink fastsim + theory (fig2_montecarlo).
    ("blink.fastsim.new.busy_s", "s"),
    ("blink.fastsim.step.count", "count"),
    ("blink.fastsim.step.busy_s", "s"),
    ("blink.fastsim.into_result.busy_s", "s"),
    ("blink.fastsim.packets", "count"),
    ("blink.fastsim.ns_per_packet", "ns"),
    ("blink.fastsim.takeover_median_s", "sim_s"),
    ("blink.theory.envelope.busy_s", "s"),
    // telemetry + supervisord (supervisord_stream).
    ("telemetry.registry.update.count", "count"),
    ("telemetry.registry.update.busy_s", "s"),
    ("telemetry.registry.snapshot.count", "count"),
    ("telemetry.registry.snapshot.busy_s", "s"),
    ("telemetry.delta.encode.count", "count"),
    ("telemetry.delta.encode.busy_s", "s"),
    ("supervisord.signals.observe.count", "count"),
    ("supervisord.signals.observe.busy_s", "s"),
    ("supervisord.verdict.to_jsonl.busy_s", "s"),
    ("supervisord.pipeline.w2_frames_per_s", "1/s"),
    ("supervisord.pipeline.latency_p50_us", "us"),
    ("supervisord.pipeline.latency_p99_us", "us"),
    ("supervisord.pipeline.vetoes", "count"),
    ("supervisord.pipeline.serial_share", "ratio"),
    ("supervisord.pipeline.cpu_per_wall", "ratio"),
    // dui-scenario (dsc_corpus).
    ("scenario.parse.count", "count"),
    ("scenario.parse.busy_s", "s"),
    ("scenario.compile.busy_s", "s"),
    ("scenario.run.blink.busy_s", "s"),
    ("scenario.run.pcc.busy_s", "s"),
    ("scenario.run.pytheas.busy_s", "s"),
    ("scenario.run.tcp.busy_s", "s"),
    ("scenario.expect.checks", "count"),
    ("scenario.expect.failed", "count"),
    // dui-replay (replay_verify).
    ("replay.record.record.busy_s", "s"),
    ("replay.record.to_bytes.busy_s", "s"),
    ("replay.record.from_bytes.busy_s", "s"),
    ("replay.replay.verify.busy_s", "s"),
    ("replay.record.events", "count"),
    ("replay.record.checkpoints", "count"),
    ("replay.record.bytes_per_event", "B"),
    ("netsim.sim.plain_run.busy_s", "s"),
    ("replay.record.slowdown_vs_plain", "ratio"),
    // The cost of asking: traced unit wall / untraced unit wall.
    ("trace.overhead_ratio", "ratio"),
];

/// `Trace::time` when tracing, a plain call when not: lets a workload
/// share one code path between its timed and its traced unit.
pub fn timed<T>(trace: &mut Option<&mut Trace>, span: &str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.time(span, f),
        None => f(),
    }
}

/// Operations covered, total time and span-length distribution of one
/// span name. A span may cover a batch of calls (a wave of pool
/// operations, 1024 selector steps) where one clock read per call would
/// cost as much as the call; `ops` then counts the calls.
#[derive(Debug, Clone, Default)]
pub struct SpanAgg {
    pub ops: u64,
    pub total_ns: u64,
    pub hist: LogHistogram,
}

impl SpanAgg {
    #[inline]
    pub fn record(&mut self, ns: u64, ops: u64) {
        self.ops += ops;
        self.total_ns += ns;
        self.hist.record(ns);
    }

    fn merge(&mut self, other: &SpanAgg) {
        self.ops += other.ops;
        self.total_ns += other.total_ns;
        self.hist.merge(&other.hist);
    }
}

/// In-memory aggregation of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans of the traced unit in progress.
    unit_spans: BTreeMap<String, SpanAgg>,
    /// Spans of every finished unit, merged (what the trace file holds).
    all_spans: BTreeMap<String, SpanAgg>,
    /// One value per finished unit, per metric.
    values: BTreeMap<String, Vec<f64>>,
    units: usize,
}

impl Trace {
    /// Record one span of `ns` nanoseconds covering `ops` calls.
    pub fn span(&mut self, name: &str, ns: u64, ops: u64) {
        if let Some(agg) = self.unit_spans.get_mut(name) {
            agg.record(ns, ops);
        } else {
            self.unit_spans
                .entry(name.to_string())
                .or_default()
                .record(ns, ops);
        }
    }

    /// Fold a span aggregated by the caller (hot loops keep their own
    /// [`SpanAgg`]s and hand them over once).
    pub fn span_agg(&mut self, name: &str, agg: &SpanAgg) {
        self.unit_spans
            .entry(name.to_string())
            .or_default()
            .merge(agg);
    }

    /// Time `f` as one span (one call) under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.span(name, t0.elapsed().as_nanos() as u64, 1);
        out
    }

    /// Set metric `name` for the unit in progress.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.entry(name.to_string()).or_default().push(v);
    }

    /// Total seconds recorded under span `name` in the unit in progress.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.unit_spans
            .get(name)
            .map_or(0.0, |a| a.total_ns as f64 / 1e9)
    }

    /// Close the traced unit: every span becomes `<name>.count` and
    /// `<name>.busy_s` for this unit.
    pub fn end_unit(&mut self) {
        self.units += 1;
        for (name, agg) in std::mem::take(&mut self.unit_spans) {
            self.set(&format!("{name}.count"), agg.ops as f64);
            self.set(&format!("{name}.busy_s"), agg.total_ns as f64 / 1e9);
            self.all_spans.entry(name).or_default().merge(&agg);
        }
    }

    /// Traced units finished so far.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Reduce to the per-layer metrics: the median over the traced units,
    /// 0 for a layer this workload never entered. Every `.count` (and
    /// every metric with unit `count`) must have repeated exactly.
    pub fn per_layer(&self, checks: &mut Checks) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let vals = self.values.get(name).map_or(&[][..], Vec::as_slice);
                if unit == "count" && !vals.is_empty() {
                    checks.check(vals.iter().all(|v| *v == vals[0]), || {
                        format!("{name} did not repeat across traced units: {vals:?}")
                    });
                }
                let v = if vals.is_empty() { 0.0 } else { median(vals) };
                (name, unit, v)
            })
            .collect()
    }

    /// The aggregated spans as JSON lines, one span name per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (name, agg) in &self.all_spans {
            out.push_str("{\"workload\":");
            push_json_str(&mut out, workload);
            out.push_str(",\"span\":");
            push_json_str(&mut out, name);
            out.push_str(&format!(
                ",\"ops\":{},\"spans\":{},\"total_s\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}\n",
                agg.ops,
                agg.hist.count(),
                json_f64(agg.total_ns as f64 / 1e9),
                agg.hist.quantile(0.5),
                agg.hist.quantile(0.99),
                agg.hist.max(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_become_count_and_busy_metrics() {
        let mut t = Trace::default();
        for unit in 0..3u64 {
            t.span("netsim.sim.timer", 100 + unit, 1);
            t.span("netsim.sim.timer", 300, 1);
            t.set("netsim.sim.events", 2.0);
            t.end_unit();
        }
        let mut checks = Checks::default();
        let m: BTreeMap<_, _> = t
            .per_layer(&mut checks)
            .into_iter()
            .map(|(n, _, v)| (n, v))
            .collect();
        assert_eq!(checks.failed, 0);
        assert_eq!(m["netsim.sim.timer.count"], 2.0);
        assert!((m["netsim.sim.timer.busy_s"] - 401e-9).abs() < 1e-12);
        assert_eq!(m["tcp.pool.free.count"], 0.0, "layer not entered reads 0");
        assert_eq!(m.len(), PER_LAYER.len());
        let jsonl = t.to_jsonl("w");
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"span\":\"netsim.sim.timer\",\"ops\":6,\"spans\":6"));
    }

    #[test]
    fn a_count_that_does_not_repeat_is_a_failed_check() {
        let mut t = Trace::default();
        t.set("netsim.sim.events", 5.0);
        t.set("netsim.sim.events", 6.0);
        let mut checks = Checks::default();
        t.per_layer(&mut checks);
        assert_eq!(checks.failed, 1);
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
