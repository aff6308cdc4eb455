//! Metrics registry: named counters, gauges, and histograms with cheap
//! record paths and mergeable, exportable snapshots.
//!
//! Registration returns a small copyable id (`CounterId`, `GaugeId`,
//! `HistId`) that indexes straight into a `Vec`, so the hot-path cost of
//! `inc`/`observe`/`record` is one bounds-checked array access — the
//! name→id `BTreeMap` is only consulted at registration time.
//!
//! A [`Snapshot`] freezes the registry into `BTreeMap`s keyed by metric
//! name. Snapshots merge (counters add, gauges accumulate `(sum, n)`,
//! histograms merge element-wise), can be re-namespaced with
//! [`Snapshot::with_prefix`], and export as a deterministic JSON line or
//! as `(kind, name, value)` rows for the workspace's hand-rolled CSV
//! writer.
//!
//! A name is interned once, at registration, as an `Arc<str>` that
//! every snapshot, delta and frame of that registry shares — so
//! freezing, diffing and dropping a snapshot cost a reference count per
//! metric, never a copy of the name. `Arc<str>` orders and borrows as
//! `str`, so lookups take a plain `&str`, and iteration order and every
//! exported byte are those of `String` keys.

use crate::hist::LogHistogram;
use crate::json::{json_f64, push_json_f64, push_json_str};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Hist,
}

/// A registry of named metrics with cheap record paths.
#[derive(Debug, Default)]
pub struct Registry {
    names: BTreeMap<Arc<str>, (MetricKind, u32)>,
    counter_names: Vec<Arc<str>>,
    counters: Vec<u64>,
    gauge_names: Vec<Arc<str>>,
    gauges: Vec<(f64, u64)>,
    hist_names: Vec<Arc<str>>,
    hists: Vec<LogHistogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or look up) a counter by name. Idempotent: registering
    /// the same name twice returns the same id.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(&(kind, idx)) = self.names.get(name) {
            assert!(kind == MetricKind::Counter, "{name} is not a counter");
            return CounterId(idx);
        }
        let idx = self.counters.len() as u32;
        let name: Arc<str> = name.into();
        self.names
            .insert(Arc::clone(&name), (MetricKind::Counter, idx));
        self.counter_names.push(name);
        self.counters.push(0);
        CounterId(idx)
    }

    /// Register (or look up) a gauge by name.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(&(kind, idx)) = self.names.get(name) {
            assert!(kind == MetricKind::Gauge, "{name} is not a gauge");
            return GaugeId(idx);
        }
        let idx = self.gauges.len() as u32;
        let name: Arc<str> = name.into();
        self.names
            .insert(Arc::clone(&name), (MetricKind::Gauge, idx));
        self.gauge_names.push(name);
        self.gauges.push((0.0, 0));
        GaugeId(idx)
    }

    /// Register (or look up) a histogram by name.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&mut self, name: &str) -> HistId {
        if let Some(&(kind, idx)) = self.names.get(name) {
            assert!(kind == MetricKind::Hist, "{name} is not a histogram");
            return HistId(idx);
        }
        let idx = self.hists.len() as u32;
        let name: Arc<str> = name.into();
        self.names
            .insert(Arc::clone(&name), (MetricKind::Hist, idx));
        self.hist_names.push(name);
        self.hists.push(LogHistogram::new());
        HistId(idx)
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0 as usize] += 1;
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize] += n;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Observe a gauge sample; the snapshot exports the mean of all
    /// observations.
    #[inline]
    pub fn observe(&mut self, id: GaugeId, v: f64) {
        let slot = &mut self.gauges[id.0 as usize];
        slot.0 += v;
        slot.1 += 1;
    }

    /// Record a histogram sample.
    #[inline]
    pub fn record(&mut self, id: HistId, v: u64) {
        self.hists[id.0 as usize].record(v);
    }

    /// Read-only access to a histogram.
    pub fn hist(&self, id: HistId) -> &LogHistogram {
        &self.hists[id.0 as usize]
    }

    /// Fold a snapshot's metrics into this registry *by name*: counters
    /// add, gauges accumulate `(sum, n)`, histograms merge
    /// element-wise. Metrics not yet registered here are registered on
    /// the fly (snapshot `BTreeMap` iteration keeps the order — and
    /// thus float-sum bytes — stable). This is how the parallel engine
    /// merges per-domain registries back into the merged simulator's.
    pub fn absorb(&mut self, snap: &Snapshot) {
        for (name, &v) in &snap.counters {
            let id = self.counter(name);
            self.add(id, v);
        }
        for (name, &(sum, n)) in &snap.gauges {
            let id = self.gauge(name);
            let slot = &mut self.gauges[id.0 as usize];
            slot.0 += sum;
            slot.1 += n;
        }
        for (name, h) in &snap.hists {
            let id = self.histogram(name);
            self.hists[id.0 as usize].merge(h);
        }
    }

    /// Freeze the registry into a mergeable, exportable snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (name, &v) in self.counter_names.iter().zip(self.counters.iter()) {
            if v > 0 {
                snap.counters.insert(name.clone(), v);
            }
        }
        for (name, &(sum, n)) in self.gauge_names.iter().zip(self.gauges.iter()) {
            if n > 0 {
                snap.gauges.insert(name.clone(), (sum, n));
            }
        }
        for (name, h) in self.hist_names.iter().zip(self.hists.iter()) {
            if h.count() > 0 {
                snap.hists.insert(name.clone(), h.clone());
            }
        }
        snap
    }
}

/// A frozen, mergeable view of a registry's metrics, keyed by name.
///
/// Keys are the registry's interned names: look up by `&str`
/// (`snap.gauges.get("load")`), insert with `name.into()`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals.
    pub counters: BTreeMap<Arc<str>, u64>,
    /// Gauge accumulators as `(sum, observation_count)`; exported as the
    /// mean so that merging across replicates stays associative.
    pub gauges: BTreeMap<Arc<str>, (f64, u64)>,
    /// Full histograms (kept whole so merge stays exact).
    pub hists: BTreeMap<Arc<str>, LogHistogram>,
}

/// One metric's change since `was` (`None`: not seen before), or `None`
/// when nothing changed. Regressions clamp to zero.
type Diff<V> = fn(now: &V, was: Option<&V>) -> Option<V>;

fn diff_counter(now: &u64, was: Option<&u64>) -> Option<u64> {
    let d = now.saturating_sub(was.copied().unwrap_or(0));
    (d > 0).then_some(d)
}

fn diff_gauge(&(sum, n): &(f64, u64), was: Option<&(f64, u64)>) -> Option<(f64, u64)> {
    let (psum, pn) = was.copied().unwrap_or((0.0, 0));
    let dn = n.saturating_sub(pn);
    (dn > 0).then_some((sum - psum, dn))
}

fn diff_hist(now: &LogHistogram, was: Option<&LogHistogram>) -> Option<LogHistogram> {
    let d = match was {
        Some(p) => now.diff_since(p),
        None => now.clone(),
    };
    (d.count() > 0).then_some(d)
}

/// The per-metric [`Diff`]s of `now` against `prev`, leaving `prev`
/// equal to `now` — entries it already holds are updated in place.
fn advance_map<V: Clone>(
    prev: &mut BTreeMap<Arc<str>, V>,
    now: &BTreeMap<Arc<str>, V>,
    diff: Diff<V>,
) -> BTreeMap<Arc<str>, V> {
    let mut out = BTreeMap::new();
    for (k, v) in now {
        let d = match prev.get_mut(k) {
            Some(p) => {
                let d = diff(v, Some(p));
                p.clone_from(v);
                d
            }
            None => {
                prev.insert(Arc::clone(k), v.clone());
                diff(v, None)
            }
        };
        out.extend(d.map(|d| (Arc::clone(k), d)));
    }
    // `prev` now holds every key of `now`; anything more is a metric
    // that vanished, which `diff_since` forgets.
    if prev.len() != now.len() {
        prev.retain(|k, _| now.contains_key(k));
    }
    out
}

impl Snapshot {
    /// Merge another snapshot into this one. Counters add, gauges
    /// accumulate `(sum, n)`, histograms merge element-wise — all
    /// associative and commutative, so parallel replicates can be folded
    /// in any grouping (the harness still folds in index order for
    /// byte-stable float sums).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &(sum, n)) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert((0.0, 0));
            slot.0 += sum;
            slot.1 += n;
        }
        for (k, h) in &other.hists {
            self.hists
                .entry(k.clone())
                .or_insert_with(LogHistogram::new)
                .merge(h);
        }
    }

    /// The change from `earlier` to `self`, assuming `earlier` is a
    /// previous snapshot of the same monotonically-growing registry:
    /// counters subtract, gauges subtract `(sum, n)` pairwise, and
    /// histograms subtract bucket-wise via
    /// [`LogHistogram::diff_since`]. Metrics whose delta is empty
    /// (counter unchanged, no new gauge observations, no new histogram
    /// samples) are omitted, so an idle interval yields an empty delta.
    ///
    /// This is the inverse of [`Snapshot::merge`] on the streaming
    /// path: `earlier.merge(&current.diff_since(&earlier))`
    /// reconstructs `current` (exactly for counters/gauges/hist
    /// buckets; histogram min/max are approximated from bucket bounds).
    /// Metrics present in `earlier` but not `self` are treated as
    /// unchanged; regressions (counter decreased) clamp to zero.
    ///
    /// Works on a clone of `earlier`; a producer diffing every epoch
    /// wants a [`DeltaEncoder`](crate::DeltaEncoder), which keeps its
    /// previous snapshot and updates it in place.
    pub fn diff_since(&self, earlier: &Snapshot) -> Snapshot {
        earlier.clone().advance_to(self)
    }

    /// `current.diff_since(self)`, leaving `self` equal to `current`:
    /// the [`DeltaEncoder`](crate::DeltaEncoder) step, which remembers
    /// `current` by updating what it already holds instead of cloning.
    pub(crate) fn advance_to(&mut self, current: &Snapshot) -> Snapshot {
        Snapshot {
            counters: advance_map(&mut self.counters, &current.counters, diff_counter),
            gauges: advance_map(&mut self.gauges, &current.gauges, diff_gauge),
            hists: advance_map(&mut self.hists, &current.hists, diff_hist),
        }
    }

    /// Return a copy with every metric name prefixed by `prefix` and a
    /// dot (e.g. `"blink"` turns `reroutes` into `blink.reroutes`).
    pub fn with_prefix(&self, prefix: &str) -> Snapshot {
        let re = |k: &Arc<str>| Arc::from(format!("{prefix}.{k}"));
        Snapshot {
            counters: self.counters.iter().map(|(k, v)| (re(k), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (re(k), *v)).collect(),
            hists: self.hists.iter().map(|(k, v)| (re(k), v.clone())).collect(),
        }
    }

    /// True when the snapshot carries no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge mean by name (`None` when absent).
    pub fn gauge_mean(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|&(sum, n)| sum / n as f64)
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Serialize as one JSON object on a single line, tagged with
    /// `label`. Field order is fixed (BTreeMap iteration + stable
    /// summary keys) and floats print via `Display` (shortest
    /// round-trip), so equal snapshots always produce equal bytes.
    pub fn to_json_line(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str("{\"label\":");
        push_json_str(&mut out, label);
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, &(sum, n))) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            push_json_f64(&mut out, sum / n as f64);
        }
        out.push_str("},\"hists\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            let _ = write!(
                out,
                ":{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count(),
                h.min(),
                h.max(),
                json_f64(h.mean()),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
            );
        }
        out.push_str("}}");
        out
    }

    /// Flatten into `(kind, name, value)` rows for CSV export.
    /// Histograms expand to their summary statistics.
    pub fn rows(&self) -> Vec<(String, String, String)> {
        let mut rows = Vec::new();
        for (k, v) in &self.counters {
            rows.push(("counter".to_string(), k.to_string(), v.to_string()));
        }
        for (k, &(sum, n)) in &self.gauges {
            rows.push((
                "gauge".to_string(),
                k.to_string(),
                json_f64(sum / n as f64),
            ));
        }
        for (k, h) in &self.hists {
            for (stat, val) in [
                ("count", h.count().to_string()),
                ("min", h.min().to_string()),
                ("max", h.max().to_string()),
                ("mean", json_f64(h.mean())),
                ("p50", h.quantile(0.5).to_string()),
                ("p99", h.quantile(0.99).to_string()),
            ] {
                rows.push(("hist".to_string(), format!("{k}.{stat}"), val));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.inc(a);
        r.inc(b);
        assert_eq!(r.counter_value(a), 2);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let mut r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }

    #[test]
    fn snapshot_skips_untouched_metrics() {
        let mut r = Registry::new();
        r.counter("quiet");
        let loud = r.counter("loud");
        r.inc(loud);
        let snap = r.snapshot();
        assert_eq!(snap.counter("loud"), 1);
        assert!(!snap.counters.contains_key("quiet"));
    }

    #[test]
    fn merge_adds_counters_and_averages_gauges() {
        let mut r1 = Registry::new();
        let c = r1.counter("n");
        let g = r1.gauge("load");
        r1.add(c, 3);
        r1.observe(g, 1.0);

        let mut r2 = Registry::new();
        let c2 = r2.counter("n");
        let g2 = r2.gauge("load");
        r2.add(c2, 4);
        r2.observe(g2, 3.0);

        let mut snap = r1.snapshot();
        snap.merge(&r2.snapshot());
        assert_eq!(snap.counter("n"), 7);
        assert_eq!(snap.gauge_mean("load"), Some(2.0));
    }

    #[test]
    fn absorb_folds_snapshot_into_registry() {
        let mut main = Registry::new();
        let c = main.counter("n");
        main.add(c, 2);

        let mut dom = Registry::new();
        let dc = dom.counter("n");
        dom.add(dc, 5);
        let dg = dom.gauge("depth");
        dom.observe(dg, 4.0);
        let dh = dom.histogram("lat");
        dom.record(dh, 9);

        main.absorb(&dom.snapshot());
        let snap = main.snapshot();
        assert_eq!(snap.counter("n"), 7);
        assert_eq!(snap.gauge_mean("depth"), Some(4.0));
        assert_eq!(snap.hist("lat").map(|h| h.count()), Some(1));
    }

    #[test]
    fn with_prefix_renames_everything() {
        let mut r = Registry::new();
        let c = r.counter("drops");
        r.inc(c);
        let snap = r.snapshot().with_prefix("netsim");
        assert_eq!(snap.counter("netsim.drops"), 1);
        assert_eq!(snap.counter("drops"), 0);
    }

    #[test]
    fn json_line_is_deterministic_and_escaped() {
        let mut r = Registry::new();
        let c = r.counter("a\"b");
        r.inc(c);
        let g = r.gauge("mean");
        r.observe(g, 0.5);
        let h = r.histogram("lat");
        r.record(h, 100);
        let snap = r.snapshot();
        let line = snap.to_json_line("stage-1");
        assert_eq!(line, snap.to_json_line("stage-1"));
        assert!(line.starts_with("{\"label\":\"stage-1\","));
        assert!(line.contains("\"a\\\"b\":1"));
        assert!(line.contains("\"mean\":0.5"));
        assert!(line.contains("\"count\":1"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn rows_cover_all_kinds() {
        let mut r = Registry::new();
        let c = r.counter("c");
        r.inc(c);
        let g = r.gauge("g");
        r.observe(g, 4.0);
        let h = r.histogram("h");
        r.record(h, 7);
        let rows = r.snapshot().rows();
        assert!(rows.iter().any(|(k, n, v)| k == "counter" && n == "c" && v == "1"));
        assert!(rows.iter().any(|(k, n, v)| k == "gauge" && n == "g" && v == "4.0"));
        assert!(rows.iter().any(|(k, n, _)| k == "hist" && n == "h.count"));
    }
}
