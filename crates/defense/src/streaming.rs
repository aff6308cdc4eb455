//! Incremental supervisors for the streaming detection pipeline
//! (`dui-supervisord`).
//!
//! A producer ships a *delta* [`Snapshot`] every epoch, and the
//! supervisor folds each delta into windowed state and re-emits a risk
//! estimate online — `observe(delta) -> Risk`. That contract is
//! [`StreamingSupervisor`]; an experiment stage scoring one frozen
//! snapshot uses the same signal with a window of one. This module
//! provides the concrete signals the paper's case studies call for:
//!
//! * [`OccupancyWindow`] — Blink cell occupancy (§3.1): windowed mean
//!   of a gauge against a capacity.
//! * [`GroupOutlierWindow`] — Pytheas group outliers (§4.1): per-member
//!   QoE gauges under a prefix, flagged by median/MAD (the streaming
//!   form of [`MadReportFilter`](crate::MadReportFilter)'s rule).
//! * [`DropPatternWindow`] — PCC drop-pattern asymmetry + ε clamp
//!   (§4.2): windowed loss counters split by rate direction, risk from
//!   the same asymmetry statistic as
//!   [`PccLossPatternMonitor`](crate::PccLossPatternMonitor), and a
//!   [`recommended_eps`](DropPatternWindow::recommended_eps) amplitude
//!   clamp.
//! * [`SynBacklogWindow`] — SYN-backlog pressure (§2): half-open
//!   occupancy against a listener's backlog plus the windowed
//!   SYN-refusal ratio, fed by the `tcp.handshake.*` metric family.
//!
//! Determinism contract: `observe` is a pure function of the sequence
//! of deltas fed so far (plus construction-time config). Two replicas
//! fed the same frames in the same order produce bit-identical risks —
//! that is what lets supervisord shard groups across worker threads
//! and still emit a byte-identical verdict log at any worker count.

use crate::pcc_guard::{presence_asymmetry, recommended_eps_max};
use crate::supervisor::Risk;
use dui_telemetry::Snapshot;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;
use std::sync::Arc;

/// An online risk estimator fed framed snapshot deltas.
///
/// Implementations hold windowed state; `observe` folds one delta in
/// and returns the refreshed risk estimate. State must be a
/// deterministic function of the observed delta sequence.
pub trait StreamingSupervisor {
    /// Short stable name for verdict logs (e.g. `"blink"`).
    fn name(&self) -> &'static str;

    /// Fold one snapshot delta into the windowed state and return the
    /// refreshed risk estimate.
    fn observe(&mut self, delta: &Snapshot) -> Risk;
}

/// Streaming Blink signal: windowed occupancy of a gauge against a
/// capacity.
///
/// Each delta contributes its `(sum, n)` accumulator for the
/// configured gauge; risk is the mean over the last `window` deltas
/// that carried observations, divided by `capacity` and clamped into
/// `[0, 1]`. With `window = 1` each delta that carries the gauge is
/// scored in isolation; a metric never seen reads as zero risk.
#[derive(Debug, Clone)]
pub struct OccupancyWindow {
    metric: String,
    capacity: f64,
    window: usize,
    recent: VecDeque<(f64, u64)>,
}

impl OccupancyWindow {
    /// Watch gauge `metric` against `capacity` over the last `window`
    /// non-empty deltas (`window` clamps to at least 1).
    pub fn new(metric: &str, capacity: f64, window: usize) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        OccupancyWindow {
            metric: metric.to_string(),
            capacity,
            window: window.max(1),
            recent: VecDeque::new(),
        }
    }
}

impl StreamingSupervisor for OccupancyWindow {
    fn name(&self) -> &'static str {
        "blink"
    }

    fn observe(&mut self, delta: &Snapshot) -> Risk {
        if let Some(&(sum, n)) = delta.gauges.get(self.metric.as_str()) {
            if n > 0 {
                if self.recent.len() == self.window {
                    self.recent.pop_front();
                }
                self.recent.push_back((sum, n));
            }
        }
        let (sum, n) = self
            .recent
            .iter()
            .fold((0.0, 0u64), |(s, c), &(ds, dn)| (s + ds, c + dn));
        if n == 0 {
            return Risk::NONE;
        }
        Risk::clamped(sum / n as f64 / self.capacity)
    }
}

/// Streaming Pytheas signal: fraction of group members whose windowed
/// QoE is a robust low outlier.
///
/// Every gauge in the delta whose name starts with `prefix` is one
/// group member (e.g. `pytheas.qoe.c3`); its per-delta mean is pushed
/// into a per-member window. Risk is computed across members'
/// windowed means with the same median − k·MAD rule as
/// [`MadReportFilter`](crate::MadReportFilter): members below
/// `median − k·max(MAD, floor·|median|)` are outliers, and risk is
/// the outlier fraction scaled by 2 (half the group dragging low is
/// certain manipulation). Fewer than 4 members is not enough evidence
/// to accuse anyone.
///
/// Member names come from the producers — the input this supervisor
/// exists to distrust — so the state they can create is bounded: the
/// first [`MAX_MEMBERS`](Self::MAX_MEMBERS) distinct names are tracked
/// and later ones are ignored.
#[derive(Debug, Clone)]
pub struct GroupOutlierWindow {
    prefix: String,
    k: f64,
    floor: f64,
    window: usize,
    members: BTreeMap<Arc<str>, VecDeque<f64>>,
}

impl GroupOutlierWindow {
    /// Most members one group tracks. A producer that renames its
    /// gauges every epoch would otherwise grow the worker's memory and
    /// its per-frame work without limit; the largest group in the tree
    /// has 10 members.
    pub const MAX_MEMBERS: usize = 256;

    /// Watch member gauges under `prefix` with per-member windows of
    /// `window` samples; `k = 4.0` / `floor = 0.15` mirror
    /// `MadReportFilter`'s defaults.
    pub fn new(prefix: &str, window: usize) -> Self {
        GroupOutlierWindow {
            prefix: prefix.to_string(),
            k: 4.0,
            floor: 0.15,
            window: window.max(1),
            members: BTreeMap::new(),
        }
    }
}

impl StreamingSupervisor for GroupOutlierWindow {
    fn name(&self) -> &'static str {
        "pytheas"
    }

    fn observe(&mut self, delta: &Snapshot) -> Risk {
        let prefix = self.prefix.as_str();
        let from_prefix = (Bound::Included(prefix), Bound::Unbounded);
        for (name, &(sum, n)) in delta.gauges.range::<str, _>(from_prefix) {
            if !name.starts_with(prefix) {
                break;
            }
            if n == 0 {
                continue;
            }
            let full = self.members.len() >= Self::MAX_MEMBERS;
            let win = match self.members.get_mut(name) {
                Some(win) => win,
                None if full => continue,
                None => self.members.entry(Arc::clone(name)).or_default(),
            };
            if win.len() == self.window {
                win.pop_front();
            }
            win.push_back(sum / n as f64);
        }
        // BTreeMap iteration makes the member order — and thus the
        // median/MAD float folds — deterministic.
        let means: Vec<f64> = self
            .members
            .values()
            .map(|w| w.iter().sum::<f64>() / w.len() as f64)
            .collect();
        if means.len() < 4 {
            return Risk::NONE;
        }
        let med = dui_stats::summary::median(&means);
        let spread = dui_stats::summary::mad(&means).max(self.floor * med.abs());
        let cutoff = med - self.k * spread;
        let outliers = means.iter().filter(|&&m| m < cutoff).count();
        Risk::clamped(2.0 * outliers as f64 / means.len() as f64)
    }
}

/// Streaming PCC signal: windowed loss-direction asymmetry from
/// counters, plus the ε amplitude clamp.
///
/// Producers export four counters per epoch (deltas of the
/// [`PccLossPatternMonitor`](crate::PccLossPatternMonitor) tallies):
/// `<prefix>.high_lossy`, `<prefix>.high_total`, `<prefix>.low_lossy`,
/// `<prefix>.low_total`. The window holds the last `window` deltas;
/// risk is `P(loss | high) − P(loss | low)` over the windowed sums,
/// clamped to `[0, 1]`, with the monitor's ≥ 10-samples-per-side rule
/// before accusing anyone.
#[derive(Debug, Clone)]
pub struct DropPatternWindow {
    names: [String; 4],
    window: usize,
    recent: VecDeque<[u64; 4]>,
    last_risk: Risk,
}

impl DropPatternWindow {
    /// Watch `<prefix>.{high,low}_{lossy,total}` counters over the last
    /// `window` deltas.
    pub fn new(prefix: &str, window: usize) -> Self {
        DropPatternWindow {
            names: [
                format!("{prefix}.high_lossy"),
                format!("{prefix}.high_total"),
                format!("{prefix}.low_lossy"),
                format!("{prefix}.low_total"),
            ],
            window: window.max(1),
            recent: VecDeque::new(),
            last_risk: Risk::NONE,
        }
    }

    /// The ε_max the controller should be clamped to at the current
    /// risk (see [`recommended_eps_max`]).
    pub fn recommended_eps(&self, eps_min: f64, eps_max: f64) -> f64 {
        recommended_eps_max(self.last_risk, eps_min, eps_max)
    }
}

impl StreamingSupervisor for DropPatternWindow {
    fn name(&self) -> &'static str {
        "pcc"
    }

    fn observe(&mut self, delta: &Snapshot) -> Risk {
        let row = [
            delta.counter(&self.names[0]),
            delta.counter(&self.names[1]),
            delta.counter(&self.names[2]),
            delta.counter(&self.names[3]),
        ];
        if row.iter().any(|&v| v > 0) {
            if self.recent.len() == self.window {
                self.recent.pop_front();
            }
            self.recent.push_back(row);
        }
        let sums = self
            .recent
            .iter()
            .fold([0u64; 4], |mut acc, r| {
                for (a, &b) in acc.iter_mut().zip(r.iter()) {
                    *a += b;
                }
                acc
            });
        let [hl, ht, ll, lt] = sums;
        self.last_risk = presence_asymmetry(hl, ht, ll, lt).map_or(Risk::NONE, Risk::clamped);
        self.last_risk
    }
}

/// Streaming SYN-backlog signal: half-open handshake pressure at a
/// stateful listener (§2's state-exhaustion class, the `syn_flood`
/// scenario workload).
///
/// Consumes the `tcp.handshake.*` family a `TcpHost` exports under
/// `--metrics`: the `synrcvd_live` gauge (current half-open entries)
/// is read against the listener's backlog capacity, and the windowed
/// `syn_dropped` / `synrcvd` counter ratio estimates the probability a
/// fresh SYN is refused. Risk is the larger of the two pressures — a
/// backlog can be saturated without dropping yet (occupancy warns
/// early) and can churn below capacity while refusing floods (the
/// refusal ratio catches reaper-masked attacks). Fewer than 10
/// windowed handshake attempts is not enough evidence to accuse.
#[derive(Debug, Clone)]
pub struct SynBacklogWindow {
    live: String,
    dropped: String,
    entered: String,
    backlog: f64,
    window: usize,
    /// Per-delta rows: (live-gauge sum, live-gauge n, drops, entries).
    recent: VecDeque<(f64, u64, u64, u64)>,
}

impl SynBacklogWindow {
    /// Watch `<prefix>.{synrcvd_live,syn_dropped,synrcvd}` against a
    /// listener backlog of `backlog` entries over the last `window`
    /// non-empty deltas.
    pub fn new(prefix: &str, backlog: f64, window: usize) -> Self {
        assert!(backlog > 0.0, "backlog must be positive");
        SynBacklogWindow {
            live: format!("{prefix}.synrcvd_live"),
            dropped: format!("{prefix}.syn_dropped"),
            entered: format!("{prefix}.synrcvd"),
            backlog,
            window: window.max(1),
            recent: VecDeque::new(),
        }
    }
}

impl StreamingSupervisor for SynBacklogWindow {
    fn name(&self) -> &'static str {
        "syn_backlog"
    }

    fn observe(&mut self, delta: &Snapshot) -> Risk {
        let (gsum, gn) = delta
            .gauges
            .get(self.live.as_str())
            .copied()
            .unwrap_or((0.0, 0));
        let row = (
            gsum,
            gn,
            delta.counter(&self.dropped),
            delta.counter(&self.entered),
        );
        if row.1 > 0 || row.2 > 0 || row.3 > 0 {
            if self.recent.len() == self.window {
                self.recent.pop_front();
            }
            self.recent.push_back(row);
        }
        let (sum, n, drops, entries) = self.recent.iter().fold(
            (0.0, 0u64, 0u64, 0u64),
            |(s, c, d, e), &(ds, dc, dd, de)| (s + ds, c + dc, d + dd, e + de),
        );
        let occupancy = if n == 0 {
            0.0
        } else {
            sum / n as f64 / self.backlog
        };
        let attempts = drops + entries;
        let refusal = if attempts < 10 {
            0.0
        } else {
            drops as f64 / attempts as f64
        };
        Risk::clamped(occupancy.max(refusal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_telemetry::Registry;

    fn gauge_delta(pairs: &[(&str, f64)]) -> Snapshot {
        let mut reg = Registry::new();
        for &(name, v) in pairs {
            let g = reg.gauge(name);
            reg.observe(g, v);
        }
        reg.snapshot()
    }

    #[test]
    fn occupancy_window_smooths_and_tracks() {
        let mut s = OccupancyWindow::new("blink.cells.malicious", 64.0, 2);
        assert_eq!(s.observe(&Snapshot::default()), Risk::NONE);
        let low = gauge_delta(&[("blink.cells.malicious", 8.0)]);
        let high = gauge_delta(&[("blink.cells.malicious", 56.0)]);
        assert_eq!(s.observe(&low).0, 0.125);
        // Window of 2: mean of 8 and 56 = 32 → 0.5.
        assert_eq!(s.observe(&high).0, 0.5);
        // Window slides: 56, 56 → 0.875.
        assert_eq!(s.observe(&high).0, 0.875);
        // An empty delta does not decay the window.
        assert_eq!(s.observe(&Snapshot::default()).0, 0.875);
    }

    #[test]
    fn occupancy_window_of_one_scores_a_single_snapshot() {
        let snap = gauge_delta(&[("cells", 48.0)]);
        assert_eq!(
            OccupancyWindow::new("cells", 64.0, 1).observe(&snap).0,
            0.75
        );
        // A snapshot without the metric reads as no risk.
        assert_eq!(
            OccupancyWindow::new("cells", 64.0, 1).observe(&Snapshot::default()),
            Risk::NONE
        );
    }

    #[test]
    fn group_outlier_flags_dragged_members() {
        let mut s = GroupOutlierWindow::new("qoe.", 4);
        // Seven healthy members, one poisoned near zero.
        let mut pairs: Vec<(String, f64)> = (0..7)
            .map(|i| (format!("qoe.c{i}"), 0.8 + 0.01 * i as f64))
            .collect();
        pairs.push(("qoe.poisoned".to_string(), 0.01));
        let named: Vec<(&str, f64)> =
            pairs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let delta = gauge_delta(&named);
        let risk = s.observe(&delta);
        assert!(risk.0 > 0.2, "risk = {}", risk.0);
        // All healthy: no accusation.
        let mut s2 = GroupOutlierWindow::new("qoe.", 4);
        let healthy = gauge_delta(&[
            ("qoe.a", 0.8),
            ("qoe.b", 0.82),
            ("qoe.c", 0.79),
            ("qoe.d", 0.81),
        ]);
        assert_eq!(s2.observe(&healthy), Risk::NONE);
    }

    #[test]
    fn group_outlier_needs_quorum() {
        let mut s = GroupOutlierWindow::new("qoe.", 4);
        let tiny = gauge_delta(&[("qoe.a", 0.8), ("qoe.b", 0.0)]);
        assert_eq!(s.observe(&tiny), Risk::NONE);
    }

    #[test]
    fn group_outlier_members_are_bounded() {
        // A full group, then a producer that sends two hundred fresh
        // gauge names every epoch, 10^4 in all. The window keeps the
        // first MAX_MEMBERS names it saw and rules exactly as if the
        // rest had never been sent.
        const MAX: usize = GroupOutlierWindow::MAX_MEMBERS;
        let mut flooded = GroupOutlierWindow::new("qoe.", 4);
        let mut clean = GroupOutlierWindow::new("qoe.", 4);
        let mut flagged = 0;
        for epoch in 0..=50 {
            let mut reg = Registry::new();
            for m in 0..MAX {
                // A tenth of the members are dragged low from epoch 10.
                let dragged = epoch >= 10 && m % 10 == 0;
                let v = if dragged {
                    0.02
                } else {
                    0.8 + 0.0001 * m as f64
                };
                let g = reg.gauge(&format!("qoe.m{m:03}"));
                reg.observe(g, v);
            }
            let honest = reg.snapshot();
            for j in 0..if epoch == 0 { 0 } else { 200 } {
                // Sorts before, between and after the tracked names.
                let g = reg.gauge(&format!("qoe.{}{epoch}.{j}", ["a", "m1", "z"][j % 3]));
                reg.observe(g, 0.0);
            }
            let risk = flooded.observe(&reg.snapshot());
            assert_eq!(risk, clean.observe(&honest), "epoch {epoch}");
            assert_eq!(flooded.members.len(), MAX);
            flagged += usize::from(risk.0 > 0.0);
        }
        assert!(
            flagged >= 35,
            "the drag must be seen through the flood: {flagged}"
        );
    }

    #[test]
    fn drop_pattern_sees_equalizer_asymmetry() {
        let counters = |hl: u64, ht: u64, ll: u64, lt: u64| {
            let mut reg = Registry::new();
            for (name, v) in [
                ("pcc.mi.high_lossy", hl),
                ("pcc.mi.high_total", ht),
                ("pcc.mi.low_lossy", ll),
                ("pcc.mi.low_total", lt),
            ] {
                let c = reg.counter(name);
                reg.add(c, v);
            }
            reg.snapshot()
        };
        let mut s = DropPatternWindow::new("pcc.mi", 8);
        // Equalizer: loss only in +ε intervals.
        let mut risk = Risk::NONE;
        for _ in 0..4 {
            risk = s.observe(&counters(5, 5, 0, 5));
        }
        assert!(risk.0 > 0.9, "risk = {}", risk.0);
        assert!(s.recommended_eps(0.01, 0.05) < 0.015);
        // Honest congestion: symmetric loss, low risk.
        let mut s2 = DropPatternWindow::new("pcc.mi", 8);
        for _ in 0..4 {
            risk = s2.observe(&counters(2, 5, 2, 5));
        }
        assert!(risk.0 < 0.1, "risk = {}", risk.0);
        assert_eq!(s2.recommended_eps(0.01, 0.05), 0.05);
    }

    #[test]
    fn syn_backlog_sees_occupancy_and_refusals() {
        let sample = |live: f64, dropped: u64, entered: u64| {
            let mut reg = Registry::new();
            let g = reg.gauge("tcp.handshake.synrcvd_live");
            reg.observe(g, live);
            let d = reg.counter("tcp.handshake.syn_dropped");
            reg.add(d, dropped);
            let e = reg.counter("tcp.handshake.synrcvd");
            reg.add(e, entered);
            reg.snapshot()
        };
        let mut s = SynBacklogWindow::new("tcp.handshake", 64.0, 4);
        assert_eq!(s.observe(&Snapshot::default()), Risk::NONE);
        // Half-full backlog, no refusals yet: occupancy warns early.
        assert_eq!(s.observe(&sample(32.0, 0, 8)).0, 0.5);
        // Flood saturates it and the cap starts refusing.
        let risk = s.observe(&sample(64.0, 40, 10));
        assert!(risk.0 >= 0.74, "risk = {}", risk.0);
        // A reaper-masked flood: live stays low, refusals dominate.
        let mut s2 = SynBacklogWindow::new("tcp.handshake", 64.0, 1);
        assert_eq!(s2.observe(&sample(4.0, 90, 10)).0, 0.9);
    }

    #[test]
    fn syn_backlog_needs_attempt_quorum() {
        let mut s = SynBacklogWindow::new("tcp.handshake", 64.0, 4);
        let mut reg = Registry::new();
        let d = reg.counter("tcp.handshake.syn_dropped");
        reg.add(d, 5);
        // Five attempts, all refused — too few to accuse; no gauge
        // observations means occupancy stays silent too.
        assert_eq!(s.observe(&reg.snapshot()), Risk::NONE);
    }

    #[test]
    fn drop_pattern_needs_sample_size() {
        let mut s = DropPatternWindow::new("pcc.mi", 4);
        let mut reg = Registry::new();
        let c = reg.counter("pcc.mi.high_lossy");
        reg.add(c, 3);
        let t = reg.counter("pcc.mi.high_total");
        reg.add(t, 3);
        assert_eq!(s.observe(&reg.snapshot()), Risk::NONE);
    }
}
