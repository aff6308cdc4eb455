//! Property tests for `LogHistogram` (ISSUE 2 satellite) and
//! `Snapshot` (ISSUE 7 satellite) on `dui-stats::propcheck`: merge is
//! associative, commutative and fold-order-independent, quantiles stay
//! within the recorded min/max, and merge conserves counts.

use dui_stats::{prop_assert, prop_assert_eq, prop_check};
use dui_telemetry::{LogHistogram, Snapshot};

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

/// Arbitrary [`Snapshot`], as a registry snapshot could produce it.
/// Gauge sums are integer-valued: f64 addition on exactly-representable
/// integers (well below 2^53) is associative, which is the regime the
/// registry's "mergeable in any grouping" claim quantifies over —
/// arbitrary floats would fail associativity for reasons that have
/// nothing to do with `Snapshot`.
fn arb_snapshot(g: &mut dui_stats::propcheck::Gen) -> Snapshot {
    let mut s = Snapshot::default();
    for _ in 0..g.usize(0..4) {
        let k = format!("c.{}", NAMES[g.usize(0..NAMES.len())]);
        *s.counters.entry(k.into()).or_insert(0) += 1 + g.u32(0..1000) as u64;
    }
    for _ in 0..g.usize(0..4) {
        let k = format!("g.{}", NAMES[g.usize(0..NAMES.len())]);
        let slot = s.gauges.entry(k.into()).or_insert((0.0, 0));
        slot.0 += g.u32(0..1_000_000) as f64;
        slot.1 += 1 + g.u32(0..9) as u64;
    }
    for _ in 0..g.usize(0..3) {
        let k = format!("h.{}", NAMES[g.usize(0..NAMES.len())]);
        let h = s.hists.entry(k.into()).or_insert_with(LogHistogram::new);
        for _ in 0..1 + g.usize(0..8) {
            let shift = g.u32(0..64);
            h.record(g.any_u64() >> shift);
        }
    }
    s
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
        for (k, h) in &current.hists {
            let n = rebuilt.hists.get(k).map_or(0, LogHistogram::count);
            prop_assert_eq!(n, h.count(), "hist {} count", k);
        }
    }
}
