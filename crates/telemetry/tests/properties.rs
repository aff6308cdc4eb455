//! Property tests for `LogHistogram` (ISSUE 2 satellite) and
//! `Snapshot` (ISSUE 7 satellite) on `dui-stats::propcheck`: merge is
//! associative, commutative and fold-order-independent, quantiles stay
//! within the recorded min/max, and merge conserves counts.

use dui_stats::{prop_assert, prop_assert_eq, prop_check};
use dui_telemetry::json::{json_f64, push_json_str};
use dui_telemetry::DeltaEncoder;
use dui_telemetry::{LogHistogram, Registry, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Values spanning the full dynamic range, biased toward small numbers
/// like real queue depths / latencies.
fn arb_values(g: &mut dui_stats::propcheck::Gen) -> Vec<u64> {
    g.vec(0..64, |g| {
        let shift = g.u32(0..64);
        g.any_u64() >> shift
    })
}

fn hist_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

prop_check! {
    fn merge_is_commutative(g) {
        let xs = arb_values(g);
        let ys = arb_values(g);
        let mut ab = hist_of(&xs);
        ab.merge(&hist_of(&ys));
        let mut ba = hist_of(&ys);
        ba.merge(&hist_of(&xs));
        prop_assert_eq!(ab, ba);
    }

    fn merge_is_associative(g) {
        let xs = arb_values(g);
        let ys = arb_values(g);
        let zs = arb_values(g);
        // (x ⊕ y) ⊕ z
        let mut left = hist_of(&xs);
        left.merge(&hist_of(&ys));
        left.merge(&hist_of(&zs));
        // x ⊕ (y ⊕ z)
        let mut yz = hist_of(&ys);
        yz.merge(&hist_of(&zs));
        let mut right = hist_of(&xs);
        right.merge(&yz);
        prop_assert_eq!(left, right);
    }

    fn merge_conserves_count(g) {
        let xs = arb_values(g);
        let ys = arb_values(g);
        let mut merged = hist_of(&xs);
        merged.merge(&hist_of(&ys));
        prop_assert_eq!(merged.count(), (xs.len() + ys.len()) as u64);
        // Merging equals recording everything into one histogram.
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        prop_assert_eq!(merged, hist_of(&all));
    }

    fn quantiles_bounded_by_min_max(g) {
        let mut xs = arb_values(g);
        if xs.is_empty() {
            xs.push(g.any_u64());
        }
        let h = hist_of(&xs);
        let lo = *xs.iter().min().unwrap();
        let hi = *xs.iter().max().unwrap();
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
        for _ in 0..8 {
            let q = g.f64_unit();
            let x = h.quantile(q);
            prop_assert!(
                (lo..=hi).contains(&x),
                "quantile({}) = {} outside [{}, {}]", q, x, lo, hi
            );
        }
    }

    fn single_value_quantiles_are_exact(g) {
        // With a single distinct value, every quantile must return it.
        let v = g.any_u64();
        let n = g.usize(1..17);
        let h = hist_of(&vec![v; n]);
        for q in [0.0, 0.5, 1.0] {
            prop_assert_eq!(h.quantile(q), v);
        }
    }
}

/// Small shared name pool so independently-generated snapshots
/// collide on keys — merges that never overlap prove nothing.
const NAMES: [&str; 5] = ["pkts", "drops", "qoe", "risk", "lat"];

/// Arbitrary [`Snapshot`], as a registry snapshot produces it.
/// Gauge sums are integer-valued: f64 addition on exactly-representable
/// integers (well below 2^53) is associative, which is the regime the
/// registry's "mergeable in any grouping" claim quantifies over —
/// arbitrary floats would fail associativity for reasons that have
/// nothing to do with `Snapshot`.
fn arb_snapshot(g: &mut dui_stats::propcheck::Gen) -> Snapshot {
    let mut reg = Registry::new();
    for _ in 0..g.usize(0..4) {
        let id = reg.counter(&format!("c.{}", NAMES[g.usize(0..NAMES.len())]));
        reg.add(id, 1 + g.u32(0..1000) as u64);
    }
    for _ in 0..g.usize(0..4) {
        let id = reg.gauge(&format!("g.{}", NAMES[g.usize(0..NAMES.len())]));
        for _ in 0..1 + g.usize(0..9) {
            reg.observe(id, g.u32(0..1_000_000) as f64);
        }
    }
    for _ in 0..g.usize(0..3) {
        let id = reg.histogram(&format!("h.{}", NAMES[g.usize(0..NAMES.len())]));
        for _ in 0..1 + g.usize(0..8) {
            let shift = g.u32(0..64);
            reg.record(id, g.any_u64() >> shift);
        }
    }
    reg.snapshot()
}

prop_check! {
    fn snapshot_merge_is_commutative(g) {
        let x = arb_snapshot(g);
        let y = arb_snapshot(g);
        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        prop_assert_eq!(&xy, &yx);
        // Byte-stability: equal snapshots export equal JSONL bytes.
        prop_assert_eq!(xy.to_json_line("p"), yx.to_json_line("p"));
    }

    fn snapshot_merge_is_associative(g) {
        let x = arb_snapshot(g);
        let y = arb_snapshot(g);
        let z = arb_snapshot(g);
        // (x ⊕ y) ⊕ z
        let mut left = x.clone();
        left.merge(&y);
        left.merge(&z);
        // x ⊕ (y ⊕ z)
        let mut yz = y.clone();
        yz.merge(&z);
        let mut right = x.clone();
        right.merge(&yz);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.to_json_line("p"), right.to_json_line("p"));
    }

    fn snapshot_merge_is_order_independent(g) {
        // Folding any permutation of the same snapshots — the situation
        // of parallel replicates finishing in arbitrary order — yields
        // the same result as index order.
        let snaps = g.vec(0..6, arb_snapshot);
        let mut perm: Vec<usize> = (0..snaps.len()).collect();
        for i in (1..perm.len()).rev() {
            let j = g.usize(0..i + 1);
            perm.swap(i, j);
        }
        let mut in_order = Snapshot::default();
        for s in &snaps {
            in_order.merge(s);
        }
        let mut permuted = Snapshot::default();
        for &i in &perm {
            permuted.merge(&snaps[i]);
        }
        prop_assert_eq!(&in_order, &permuted);
        prop_assert_eq!(in_order.to_json_line("p"), permuted.to_json_line("p"));
    }

    fn snapshot_merge_conserves_totals(g) {
        let snaps = g.vec(0..6, arb_snapshot);
        let mut merged = Snapshot::default();
        for s in &snaps {
            merged.merge(s);
        }
        for name in NAMES {
            let k = format!("c.{name}");
            let want: u64 = snaps.iter().map(|s| s.counter(&k)).sum();
            prop_assert_eq!(merged.counter(&k), want);
            let hk = format!("h.{name}");
            let want_n: u64 = snaps
                .iter()
                .filter_map(|s| s.hist(&hk))
                .map(LogHistogram::count)
                .sum();
            let got_n = merged.hist(&hk).map_or(0, LogHistogram::count);
            prop_assert_eq!(got_n, want_n);
            let gk = format!("g.{name}");
            let want_obs: u64 = snaps.iter().filter_map(|s| s.gauges.get(gk.as_str())).map(|&(_, n)| n).sum();
            let got_obs = merged.gauges.get(gk.as_str()).map_or(0, |&(_, n)| n);
            prop_assert_eq!(got_obs, want_obs);
        }
    }

    fn snapshot_diff_since_inverts_merge(g) {
        // Streaming-path round trip: for a monotonically-grown registry
        // view `current = earlier ⊕ extra`,
        // `earlier ⊕ current.diff_since(earlier)` reconstructs
        // `current` exactly for counters and gauges (histogram min/max
        // are documented as bucket-approximated, so compare counts).
        let earlier = arb_snapshot(g);
        let extra = arb_snapshot(g);
        let mut current = earlier.clone();
        current.merge(&extra);
        let delta = current.diff_since(&earlier);
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&delta);
        prop_assert_eq!(&rebuilt.counters, &current.counters);
        prop_assert_eq!(&rebuilt.gauges, &current.gauges);
        for (k, h) in current.hists.iter() {
            let n = rebuilt.hists.get(k).map_or(0, LogHistogram::count);
            prop_assert_eq!(n, h.count(), "hist {} count", k);
        }
    }
}

/// The reference model: a snapshot as three `BTreeMap<String, _>`s,
/// every operation written the plain way. The registry's snapshots must
/// read exactly as the model's do, whatever their representation.
#[derive(Clone, Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, (f64, u64)>,
    hists: BTreeMap<String, LogHistogram>,
}

impl Model {
    /// What a registry holding these values snapshots: its touched metrics.
    fn live(&self) -> Model {
        let mut m = self.clone();
        m.counters.retain(|_, v| *v > 0);
        m.gauges.retain(|_, v| v.1 > 0);
        m.hists.retain(|_, h| h.count() > 0);
        m
    }

    #[expect(
        clippy::unwrap_or_default,
        reason = "LogHistogram::new starts `min` at u64::MAX; the derived Default starts it at 0"
    )]
    fn hist(&mut self, k: &str) -> &mut LogHistogram {
        self.hists
            .entry(k.to_string())
            .or_insert_with(LogHistogram::new)
    }

    fn merge(&mut self, o: &Model) {
        for (k, v) in &o.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &(sum, n)) in &o.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert((0.0, 0));
            slot.0 += sum;
            slot.1 += n;
        }
        for (k, h) in &o.hists {
            self.hist(k).merge(h);
        }
    }

    fn diff_since(&self, was: &Model) -> Model {
        let mut d = Model::default();
        for (k, &v) in &self.counters {
            let dv = v.saturating_sub(was.counters.get(k).copied().unwrap_or(0));
            d.counters.extend((dv > 0).then(|| (k.clone(), dv)));
        }
        for (k, &(sum, n)) in &self.gauges {
            let (psum, pn) = was.gauges.get(k).copied().unwrap_or((0.0, 0));
            d.gauges
                .extend((n > pn).then(|| (k.clone(), (sum - psum, n - pn))));
        }
        for (k, h) in &self.hists {
            let dh = was
                .hists
                .get(k)
                .map_or_else(|| h.clone(), |p| h.diff_since(p));
            d.hists.extend((dh.count() > 0).then(|| (k.clone(), dh)));
        }
        d
    }

    fn with_prefix(&self, p: &str) -> Model {
        let re = |k: &String| format!("{p}.{k}");
        Model {
            counters: self.counters.iter().map(|(k, &v)| (re(k), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (re(k), v)).collect(),
            hists: self.hists.iter().map(|(k, h)| (re(k), h.clone())).collect(),
        }
    }

    fn json(&self, label: &str) -> String {
        let mut out = String::from("{\"label\":");
        push_json_str(&mut out, label);
        let mut section = |kind: &str, items: Vec<(&String, String)>| {
            let _ = write!(out, ",\"{kind}\":{{");
            for (i, (k, v)) in items.into_iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                push_json_str(&mut out, k);
                let _ = write!(out, ":{v}");
            }
            out.push('}');
        };
        let counters = self.counters.iter().map(|(k, v)| (k, v.to_string()));
        section("counters", counters.collect());
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &(s, n))| (k, json_f64(s / n as f64)));
        section("gauges", gauges.collect());
        let hists = self.hists.iter().map(|(k, h)| {
            let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
            let (count, min, max, mean) = (h.count(), h.min(), h.max(), json_f64(h.mean()));
            let summary = format!(
                "{{\"count\":{count},\"min\":{min},\"max\":{max},\"mean\":{mean},\"p50\":{p50},\"p90\":{p90},\"p99\":{p99}}}"
            );
            (k, summary)
        });
        section("hists", hists.collect());
        out + "}"
    }

    fn rows(&self) -> Vec<(String, String, String)> {
        let row = |kind: &str, k: String, v: String| (kind.to_string(), k, v);
        let mut rows: Vec<_> = (self.counters.iter())
            .map(|(k, v)| row("counter", k.clone(), v.to_string()))
            .collect();
        rows.extend(
            (self.gauges.iter())
                .map(|(k, &(s, n))| row("gauge", k.clone(), json_f64(s / n as f64))),
        );
        for (k, h) in &self.hists {
            for (stat, v) in [
                ("count", h.count().to_string()),
                ("min", h.min().to_string()),
                ("max", h.max().to_string()),
                ("mean", json_f64(h.mean())),
                ("p50", h.quantile(0.5).to_string()),
                ("p99", h.quantile(0.99).to_string()),
            ] {
                rows.push(row("hist", format!("{k}.{stat}"), v));
            }
        }
        rows
    }
}

/// Names the model property registers: prefixes of one another, some
/// alike past their first eight bytes, so that name order is not
/// registration order and lookups compare whole names.
const POOL: [&str; 9] = [
    "q",
    "q.c1",
    "q.c0",
    "q0",
    "a",
    "q.c",
    "pytheas.qoe",
    "pytheas.qoe.c1",
    "pytheas.qoe.c0",
];

/// `snap` reads as `model` does through every public reader.
fn agrees(snap: &Snapshot, model: &Model) -> dui_stats::propcheck::PropResult {
    prop_assert_eq!(snap.to_json_line("m"), model.json("m"));
    prop_assert_eq!(snap.rows(), model.rows());
    let empty = model.counters.is_empty() && model.gauges.is_empty() && model.hists.is_empty();
    prop_assert_eq!(snap.is_empty(), empty);
    let names = model
        .counters
        .keys()
        .chain(model.gauges.keys())
        .chain(model.hists.keys());
    for k in names.map(String::as_str).chain(["absent", "q.c"]) {
        prop_assert_eq!(snap.counter(k), model.counters.get(k).copied().unwrap_or(0));
        let mean = model.gauges.get(k).map(|&(s, n)| (s / n as f64).to_bits());
        prop_assert_eq!(snap.gauge_mean(k).map(f64::to_bits), mean);
        prop_assert_eq!(snap.hist(k), model.hists.get(k));
    }
    Ok(())
}

prop_check! {
    fn snapshots_read_as_the_reference_model(g) {
        // 2–3 registries, each beside its model, and every snapshot so
        // far: the registries' and the ones derived from them.
        let mut regs: Vec<(Registry, Model)> =
            (0..2 + g.usize(0..2)).map(|_| Default::default()).collect();
        let mut pool = vec![(Snapshot::default(), Model::default())];
        let (mut enc, mut enc_prev) = (DeltaEncoder::new(0), Model::default());
        for _ in 0..g.usize(0..48) {
            let r = g.usize(0..regs.len());
            let (reg, model) = &mut regs[r];
            let name = POOL[g.usize(0..POOL.len())];
            let pick = g.usize(0..pool.len());
            let other = g.usize(0..pool.len());
            let next = match g.usize(0..9) {
                0 | 1 => {
                    // Register (again, perhaps) and update. Registering
                    // after a snapshot changes the name table under the
                    // later ones; the name's first letter fixes the kind.
                    match g.usize(0..3) {
                        0 => {
                            let (k, v) = (format!("c.{name}"), u64::from(g.u32(0..4)));
                            let id = reg.counter(&k);
                            reg.add(id, v);
                            *model.counters.entry(k).or_default() += v;
                        }
                        1 => {
                            let (k, v) = (format!("g.{name}"), g.f64(-1.0e3..1.0e3));
                            let id = reg.gauge(&k);
                            reg.observe(id, v);
                            let slot = model.gauges.entry(k).or_default();
                            *slot = (slot.0 + v, slot.1 + 1);
                        }
                        _ => {
                            let (k, v) = (format!("h.{name}"), g.any_u64() >> g.u32(0..64));
                            let id = reg.histogram(&k);
                            reg.record(id, v);
                            model.hist(&k).record(v);
                        }
                    }
                    continue;
                }
                2 | 3 => (reg.snapshot(), model.live()),
                4 => {
                    // Same-registry merges when both came from one
                    // registry, cross-registry ones otherwise.
                    let (mut snap, mut m) = pool[pick].clone();
                    snap.merge(&pool[other].0);
                    m.merge(&pool[other].1);
                    (snap, m)
                }
                5 => (pool[pick].0.with_prefix(name), pool[pick].1.with_prefix(name)),
                6 => (
                    pool[pick].0.diff_since(&pool[other].0),
                    pool[pick].1.diff_since(&pool[other].1),
                ),
                7 => {
                    reg.absorb(&pool[pick].0);
                    model.merge(&pool[pick].1);
                    (reg.snapshot(), model.live())
                }
                _ => {
                    // One stream over the whole pool, so metrics vanish
                    // from it and come back.
                    let delta = enc.encode(0, &pool[pick].0, 0).delta;
                    let want = pool[pick].1.diff_since(&enc_prev);
                    enc_prev = pool[pick].1.clone();
                    (delta, want)
                }
            };
            agrees(&next.0, &next.1)?;
            pool.push(next);
        }
    }
}
