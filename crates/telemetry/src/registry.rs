//! Metrics registry: named counters, gauges, and histograms with cheap
//! record paths and mergeable, exportable snapshots.
//!
//! Registration returns a small copyable id (`CounterId`, `GaugeId`,
//! `HistId`) that indexes straight into a `Vec`, so the hot-path cost of
//! `inc`/`observe`/`record` is one bounds-checked array access — the
//! name→id `BTreeMap` is only consulted at registration time.
//!
//! A name is interned once, at registration, as an `Arc<str>` key of
//! that map. The first snapshot after a registration builds from it,
//! per metric kind, a shared *table* of the kind's names in name order.
//! A [`Snapshot`] holds one [`Metrics`] column per kind — that table and
//! a value slot per name — so freezing, diffing and dropping a snapshot
//! cost one reference count per non-empty kind, never one per metric.
//!
//! Snapshots merge (counters add, gauges accumulate `(sum, n)`,
//! histograms merge element-wise), can be re-namespaced with
//! [`Snapshot::with_prefix`], and export as a deterministic JSON line or
//! as `(kind, name, value)` rows for the workspace's hand-rolled CSV
//! writer, in `str` order: the bytes `String` keys in a sorted map give.

use crate::hist::LogHistogram;
use crate::json::{json_f64, push_json_f64, push_json_str};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// A metric's kind; its discriminant indexes [`NOUNS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Hist,
}

const NOUNS: [&str; 3] = ["counter", "gauge", "histogram"];

/// A kind's names in name order (`None`: it has none), and each one's id.
type Table = (Option<Arc<[Arc<str>]>>, Box<[u32]>);

/// A registry of named metrics with cheap record paths.
#[derive(Debug, Default)]
pub struct Registry {
    ids: BTreeMap<Arc<str>, (MetricKind, u32)>,
    counters: Vec<u64>,
    gauges: Vec<(f64, u64)>,
    hists: Vec<LogHistogram>,
    /// A [`Table`] per [`MetricKind`], built by the first snapshot after a registration.
    tables: OnceLock<Box<[Table; 3]>>,
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
        CounterId(self.register(name, MetricKind::Counter))
    }

    /// Register (or look up) a gauge by name.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(self.register(name, MetricKind::Gauge))
    }

    /// Register (or look up) a histogram by name.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&mut self, name: &str) -> HistId {
        HistId(self.register(name, MetricKind::Hist))
    }

    fn register(&mut self, name: &str, kind: MetricKind) -> u32 {
        if let Some(&(was, idx)) = self.ids.get(name) {
            assert!(was == kind, "{name} is not a {}", NOUNS[kind as usize]);
            return idx;
        }
        let idx = match kind {
            MetricKind::Counter => push(&mut self.counters, 0),
            MetricKind::Gauge => push(&mut self.gauges, (0.0, 0)),
            MetricKind::Hist => push(&mut self.hists, LogHistogram::new()),
        };
        self.ids.insert(name.into(), (kind, idx));
        self.tables.take();
        idx
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
        add_gauge(&mut self.gauges[id.0 as usize], &(v, 1));
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
    /// the fly (walking the columns in name order keeps the order — and
    /// thus float-sum bytes — stable). This is how the parallel engine
    /// merges per-domain registries back into the merged simulator's.
    pub fn absorb(&mut self, snap: &Snapshot) {
        for (name, &v) in snap.counters.iter() {
            let id = self.counter(name);
            self.add(id, v);
        }
        for (name, sample) in snap.gauges.iter() {
            let id = self.gauge(name);
            add_gauge(&mut self.gauges[id.0 as usize], sample);
        }
        for (name, h) in snap.hists.iter() {
            let id = self.histogram(name);
            self.hists[id.0 as usize].merge(h);
        }
    }

    /// Freeze the registry into a mergeable, exportable snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let [counters, gauges, hists] = &**self.tables.get_or_init(|| {
            Box::new(
                [MetricKind::Counter, MetricKind::Gauge, MetricKind::Hist].map(|kind| {
                    let of_kind = self.ids.iter().filter(|(_, id)| id.0 == kind);
                    let (names, slots): (Vec<_>, Vec<_>) =
                        of_kind.map(|(name, id)| (Arc::clone(name), id.1)).unzip();
                    ((!names.is_empty()).then(|| names.into()), slots.into())
                }),
            )
        });
        Snapshot {
            counters: column(counters, &self.counters, |&v| v > 0),
            gauges: column(gauges, &self.gauges, |&(_, n)| n > 0),
            hists: column(hists, &self.hists, |h| h.count() > 0),
        }
    }
}

/// Append `zero` to a kind's values; its index is the new metric's id.
fn push<V>(values: &mut Vec<V>, zero: V) -> u32 {
    values.push(zero);
    (values.len() - 1) as u32
}

/// A snapshot column over `table`: every value `live` keeps.
fn column<V: Clone>((names, slots): &Table, values: &[V], live: fn(&V) -> bool) -> Metrics<V> {
    let value = |&i: &u32| Some(&values[i as usize]).filter(|v| live(v)).cloned();
    let (names, values) = (names.clone(), slots.iter().map(value).collect());
    Metrics { names, values }
}

/// One metric kind of a [`Snapshot`]: a sorted name table that every
/// snapshot and delta of one registry shares, and a value slot per name,
/// empty (not zero) where the metric is absent. Read it like a sorted
/// map; build one by hand by `collect`ing `(name, value)` pairs.
#[derive(Debug, Default)]
pub struct Metrics<V> {
    /// `None` when there are no names, so an empty column holds no `Arc`.
    names: Option<Arc<[Arc<str>]>>,
    values: Vec<Option<V>>,
}

/// `str` order, eight bytes at a time: a lookup compares a few short
/// names, for which a call to `memcmp` costs more than the comparison.
fn cmp_names(a: &str, b: &str) -> Ordering {
    let (mut a, mut b) = (a.as_bytes(), b.as_bytes());
    while let (Some((x, rest_a)), Some((y, rest_b))) =
        (a.split_first_chunk::<8>(), b.split_first_chunk::<8>())
    {
        if x != y {
            return u64::from_be_bytes(*x).cmp(&u64::from_be_bytes(*y));
        }
        (a, b) = (rest_a, rest_b);
    }
    a.iter().cmp(b)
}

fn table(names: &Option<Arc<[Arc<str>]>>) -> &[Arc<str>] {
    names.as_deref().unwrap_or(&[])
}

/// A name of either of two tables, with its slot in each.
type Step<'a> = (&'a Arc<str>, Option<usize>, Option<usize>);

/// The names of two sorted tables merged, in name order. Names compare
/// by pointer before bytes: two tables of one registry compare no string.
fn join<'a>(a: &'a [Arc<str>], b: &'a [Arc<str>]) -> impl Iterator<Item = Step<'a>> + Clone {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let step = match (a.get(i), b.get(j)) {
            (None, None) => return None,
            (Some(x), Some(y)) if Arc::ptr_eq(x, y) || x == y => (x, Some(i), Some(j)),
            (Some(x), Some(y)) if x < y => (x, Some(i), None),
            (Some(x), None) => (x, Some(i), None),
            (_, Some(y)) => (y, None, Some(j)),
        };
        i += usize::from(step.1.is_some());
        j += usize::from(step.2.is_some());
        Some(step)
    })
}

impl<V> Metrics<V> {
    /// The value of `name`, if this column carries it.
    pub fn get(&self, name: &str) -> Option<&V> {
        let i = table(&self.names)
            .binary_search_by(|k| cmp_names(k, name))
            .ok()?;
        self.values[i].as_ref()
    }

    /// Every metric carried, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &V)> {
        let slots = table(&self.names).iter().zip(&self.values);
        slots.filter_map(|(k, v)| Some((k, v.as_ref()?)))
    }

    /// The metrics whose names start with `prefix`, in name order.
    pub fn prefixed<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a Arc<str>, &'a V)> {
        let names = table(&self.names);
        let from = names.partition_point(|k| cmp_names(k, prefix).is_lt());
        let slots = names[from..].iter().zip(&self.values[from..]);
        let slots = slots.take_while(move |(k, _)| k.starts_with(prefix));
        slots.filter_map(|(k, v)| Some((k, v.as_ref()?)))
    }

    /// True when the column carries no metric.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(Option::is_none)
    }

    /// Drop every metric `keep` refuses.
    pub fn retain(&mut self, mut keep: impl FnMut(&str, &V) -> bool) {
        for (k, v) in table(&self.names).iter().zip(&mut self.values) {
            if v.as_ref().is_some_and(|v| !keep(k, v)) {
                *v = None;
            }
        }
    }
}

impl<V: Clone> Metrics<V> {
    /// Fold `other` in by name: `add` combines a name's two values, onto
    /// `zero()` where `self` lacks it. Keeps `self`'s table if it has every name.
    fn merge_with(&mut self, other: &Metrics<V>, zero: fn() -> V, add: fn(&mut V, &V)) {
        let union = join(table(&self.names), table(&other.names));
        let names = if union.clone().all(|(_, a, _)| a.is_some()) {
            self.names.clone()
        } else {
            Some(union.clone().map(|(k, _, _)| Arc::clone(k)).collect())
        };
        let values = union.map(|(_, a, b)| {
            let mine = a.and_then(|i| self.values[i].take());
            let Some(theirs) = b.and_then(|j| other.values[j].as_ref()) else {
                return mine;
            };
            let mut v = mine.unwrap_or_else(zero);
            add(&mut v, theirs);
            Some(v)
        });
        let values = values.collect();
        *self = Metrics { names, values };
    }

    /// The per-metric [`Diff`]s of `now` against `self`, on `now`'s
    /// table, leaving `self` equal to `now`.
    fn advance_to(&mut self, now: &Metrics<V>, diff: Diff<V>) -> Metrics<V> {
        let mut values = Vec::with_capacity(now.values.len());
        for (_, was, cur) in join(table(&self.names), table(&now.names)) {
            let Some(cur) = cur else { continue };
            let was = was.and_then(|p| self.values[p].as_ref());
            values.push(now.values[cur].as_ref().and_then(|v| diff(v, was)));
        }
        self.clone_from(now);
        let names = now.names.clone();
        Metrics { names, values }
    }
}

impl<V: Clone> Clone for Metrics<V> {
    fn clone(&self) -> Self {
        let (names, values) = (self.names.clone(), self.values.clone());
        Metrics { names, values }
    }

    /// Reuses `self`'s value buffer, and keeps its table when `source`
    /// shares it: the [`DeltaEncoder`](crate::DeltaEncoder)'s step.
    fn clone_from(&mut self, source: &Self) {
        let at = |m: &Self| m.names.as_ref().map(|t| t.as_ptr());
        if at(self) != at(source) {
            self.names.clone_from(&source.names);
        }
        self.values.clone_from(&source.values);
    }
}

impl<V: PartialEq> PartialEq for Metrics<V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<K: Into<Arc<str>>, V> FromIterator<(K, V)> for Metrics<V> {
    /// A column of the given metrics; a repeated name keeps its last value.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        let sorted: BTreeMap<Arc<str>, V> = pairs.into_iter().map(|(k, v)| (k.into(), v)).collect();
        let (names, values): (Vec<_>, _) = sorted.into_iter().map(|(k, v)| (k, Some(v))).unzip();
        let names = (!names.is_empty()).then(|| names.into());
        Metrics { names, values }
    }
}

/// A frozen, mergeable view of a registry's metrics, one [`Metrics`]
/// column per kind.
///
/// Look up by `&str` (`snap.gauges.get("load")`); iteration is in name
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals.
    pub counters: Metrics<u64>,
    /// Gauge accumulators as `(sum, observation_count)`; exported as the
    /// mean so that merging across replicates stays associative.
    pub gauges: Metrics<(f64, u64)>,
    /// Full histograms (kept whole so merge stays exact).
    pub hists: Metrics<LogHistogram>,
}

/// Append a column's metrics as comma-separated `"name":value` fields.
fn push_fields<V>(out: &mut String, column: &Metrics<V>, value: fn(&mut String, &V)) {
    for (i, (k, v)) in column.iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        push_json_str(out, k);
        out.push(':');
        value(out, v);
    }
}

fn add_gauge(slot: &mut (f64, u64), &(sum, n): &(f64, u64)) {
    slot.0 += sum;
    slot.1 += n;
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

impl Snapshot {
    /// Merge another snapshot into this one. Counters add, gauges
    /// accumulate `(sum, n)`, histograms merge element-wise — all
    /// associative and commutative, so parallel replicates can be folded
    /// in any grouping (the harness still folds in index order for
    /// byte-stable float sums).
    pub fn merge(&mut self, other: &Snapshot) {
        self.counters
            .merge_with(&other.counters, || 0, |a, b| *a += b);
        self.gauges
            .merge_with(&other.gauges, || (0.0, 0), add_gauge);
        self.hists
            .merge_with(&other.hists, LogHistogram::new, LogHistogram::merge);
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
            counters: self.counters.advance_to(&current.counters, diff_counter),
            gauges: self.gauges.advance_to(&current.gauges, diff_gauge),
            hists: self.hists.advance_to(&current.hists, diff_hist),
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
    /// `label`. Field order is fixed (name-order iteration + stable
    /// summary keys) and floats print via `Display` (shortest
    /// round-trip), so equal snapshots always produce equal bytes.
    pub fn to_json_line(&self, label: &str) -> String {
        let mut out = String::from("{\"label\":");
        push_json_str(&mut out, label);
        out.push_str(",\"counters\":{");
        push_fields(&mut out, &self.counters, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\"gauges\":{");
        push_fields(&mut out, &self.gauges, |out, &(sum, n)| {
            push_json_f64(out, sum / n as f64);
        });
        out.push_str("},\"hists\":{");
        push_fields(&mut out, &self.hists, |out, h| {
            let _ = write!(
                out,
                "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count(),
                h.min(),
                h.max(),
                json_f64(h.mean()),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
            );
        });
        out.push_str("}}");
        out
    }

    /// Flatten into `(kind, name, value)` rows for CSV export.
    /// Histograms expand to their summary statistics.
    pub fn rows(&self) -> Vec<(String, String, String)> {
        let mut rows = Vec::new();
        for (k, v) in self.counters.iter() {
            rows.push(("counter".to_string(), k.to_string(), v.to_string()));
        }
        for (k, &(sum, n)) in self.gauges.iter() {
            rows.push(("gauge".to_string(), k.to_string(), json_f64(sum / n as f64)));
        }
        for (k, h) in self.hists.iter() {
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
        assert_eq!(snap.counters.get("quiet"), None);
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
        assert!(rows
            .iter()
            .any(|(k, n, v)| k == "counter" && n == "c" && v == "1"));
        assert!(rows
            .iter()
            .any(|(k, n, v)| k == "gauge" && n == "g" && v == "4.0"));
        assert!(rows.iter().any(|(k, n, _)| k == "hist" && n == "h.count"));
    }
}
