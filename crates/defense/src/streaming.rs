//! Incremental supervisors for the streaming detection pipeline
//! ([`supervisord`](crate::supervisord)).
//!
//! A producer ships a *delta* [`Snapshot`] every epoch, and each signal
//! here folds a delta into windowed state and re-emits a risk estimate
//! online — `observe(delta) -> Risk`; an experiment stage scoring one
//! frozen snapshot uses the same signal with a window of one. This
//! module provides the concrete signals the paper's case studies call
//! for:
//!
//! * [`OccupancyWindow`] — Blink cell occupancy (§3.1): windowed mean
//!   of a gauge against a capacity.
//! * [`GroupOutlierWindow`] — Pytheas group outliers (§4.1): per-member
//!   QoE gauges under a prefix, flagged below the one median/MAD band,
//!   `mad_band`, that [`MadReportFilter`](crate::MadReportFilter)
//!   also applies.
//! * [`DropPatternWindow`] — PCC drop-pattern asymmetry (§4.2):
//!   windowed [`PccLossPatternMonitor`] tallies from counters, scored by
//!   the monitor's own [`risk`](PccLossPatternMonitor::risk); the ε
//!   clamp is [`recommended_eps_max`](crate::pcc_guard::recommended_eps_max)
//!   of that risk.
//! * [`SynBacklogWindow`] — SYN-backlog pressure (§2): half-open
//!   occupancy against a listener's backlog plus the windowed
//!   SYN-refusal ratio, fed by the `tcp.handshake.*` metric family.
//!
//! Determinism contract: `observe` is a pure function of the sequence
//! of deltas fed so far (plus construction-time config). Two replicas
//! fed the same frames in the same order produce bit-identical risks —
//! that is what lets supervisord shard groups across worker threads
//! and still emit a byte-identical verdict log at any worker count.

use crate::pcc_guard::PccLossPatternMonitor;
use crate::pytheas_guard::mad_band;
use crate::supervisor::Risk;
use dui_telemetry::Snapshot;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Append `item` to a window of at most `len` entries, evicting the oldest.
fn push_bounded<T>(win: &mut VecDeque<T>, len: usize, item: T) {
    if win.len() == len {
        win.pop_front();
    }
    win.push_back(item);
}

/// Does a gauge sample `(sum, n)` carry evidence? An empty sample has
/// none, and a non-finite sum would poison every window mean it joins:
/// a NaN turns the risk into a NaN that `f64::max` then drops, and
/// sorting it panics `mad_band`. Both are dropped at ingest, so a
/// producer's bad sample reads as a frame without it.
fn usable((sum, n): (f64, u64)) -> bool {
    n > 0 && sum.is_finite()
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

    /// Fold one snapshot delta in and return the refreshed risk.
    pub fn observe(&mut self, delta: &Snapshot) -> Risk {
        if let Some(&sample) = delta.gauges.get(self.metric.as_str()) {
            if usable(sample) {
                push_bounded(&mut self.recent, self.window, sample);
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
/// into a per-member window. Members whose windowed mean lies below the
/// `mad_band` of all members' windowed means are outliers, and risk
/// is the outlier fraction scaled by 2 (half the group dragging low is
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
    window: usize,
    members: BTreeMap<Arc<str>, VecDeque<f64>>,
    /// Per-frame scratch, kept so that a frame allocates nothing: the
    /// members' windowed means, then a copy that `mad_band` works in.
    scratch: Vec<f64>,
}

impl GroupOutlierWindow {
    /// Most members one group tracks. A producer that renames its
    /// gauges every epoch would otherwise grow the worker's memory and
    /// its per-frame work without limit; the largest group in the tree
    /// has 10 members.
    pub const MAX_MEMBERS: usize = 256;

    /// Watch member gauges under `prefix` with per-member windows of
    /// `window` samples.
    pub fn new(prefix: &str, window: usize) -> Self {
        GroupOutlierWindow {
            prefix: prefix.to_string(),
            window: window.max(1),
            members: BTreeMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Fold one snapshot delta in and return the refreshed risk.
    pub fn observe(&mut self, delta: &Snapshot) -> Risk {
        for (name, &(sum, n)) in delta.gauges.prefixed(&self.prefix) {
            if !usable((sum, n)) {
                continue;
            }
            let full = self.members.len() >= Self::MAX_MEMBERS;
            let win = match self.members.get_mut(name) {
                Some(win) => win,
                None if full => continue,
                None => self.members.entry(Arc::clone(name)).or_default(),
            };
            push_bounded(win, self.window, sum / n as f64);
        }
        // BTreeMap iteration makes the member order — and thus the
        // median/MAD float folds — deterministic. Finite samples can
        // still sum past `f64::MAX`; such a member sits out.
        self.scratch.clear();
        self.scratch.extend(
            self.members
                .values()
                .map(|w| w.iter().sum::<f64>() / w.len() as f64)
                .filter(|m| m.is_finite()),
        );
        let n = self.scratch.len();
        if n < 4 {
            return Risk::NONE;
        }
        self.scratch.extend_from_within(..);
        let (means, work) = self.scratch.split_at_mut(n);
        let (med, half_width) = mad_band(work);
        let outliers = means.iter().filter(|&&m| med - m > half_width).count();
        Risk::clamped(2.0 * outliers as f64 / n as f64)
    }
}

/// Streaming PCC signal: windowed loss-direction asymmetry from
/// counters.
///
/// Producers export four counters per epoch (deltas of the
/// [`PccLossPatternMonitor`] tallies): `<prefix>.high_lossy`,
/// `<prefix>.high_total`, `<prefix>.low_lossy`, `<prefix>.low_total`.
/// Each non-empty delta becomes one monitor tally; the window holds the
/// last `window` of them, and risk is [`PccLossPatternMonitor::risk`]
/// of their sum. Counters carry no loss magnitudes, so the monitor's
/// magnitude term reads 0 and the presence asymmetry decides.
#[derive(Debug, Clone)]
pub struct DropPatternWindow {
    names: [String; 4],
    window: usize,
    recent: VecDeque<PccLossPatternMonitor>,
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
        }
    }

    /// Fold one snapshot delta in and return the refreshed risk.
    pub fn observe(&mut self, delta: &Snapshot) -> Risk {
        let row = self.names.each_ref().map(|name| delta.counter(name));
        if row.iter().any(|&v| v > 0) {
            let [high_lossy, high_total, low_lossy, low_total] = row;
            let tally = PccLossPatternMonitor {
                high_lossy,
                high_total,
                low_lossy,
                low_total,
                ..PccLossPatternMonitor::default()
            };
            push_bounded(&mut self.recent, self.window, tally);
        }
        let mut sum = PccLossPatternMonitor::new();
        for tally in &self.recent {
            sum.merge(tally);
        }
        sum.risk()
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

    /// Fold one snapshot delta in and return the refreshed risk.
    pub fn observe(&mut self, delta: &Snapshot) -> Risk {
        let (gsum, gn) = delta
            .gauges
            .get(self.live.as_str())
            .copied()
            .filter(|&sample| usable(sample))
            .unwrap_or((0.0, 0));
        let row = (
            gsum,
            gn,
            delta.counter(&self.dropped),
            delta.counter(&self.entered),
        );
        if row.1 > 0 || row.2 > 0 || row.3 > 0 {
            push_bounded(&mut self.recent, self.window, row);
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
        let named: Vec<(&str, f64)> = pairs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
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
    fn group_outlier_band_floor_is_absolute() {
        // Nine members near 0.70 and one at 0.50, 0.20 below the median:
        // outside `mad_band`'s absolute 0.15 floor, though inside a floor
        // scaled by the median (0.15 · |median| in MAD units, 0.42 wide).
        let mut pairs: Vec<(String, f64)> = (0..9)
            .map(|i| (format!("qoe.c{i}"), 0.69 + 0.0025 * i as f64))
            .collect();
        pairs.push(("qoe.dragged".to_string(), 0.50));
        let named: Vec<(&str, f64)> = pairs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let risk = GroupOutlierWindow::new("qoe.", 1).observe(&gauge_delta(&named));
        assert_eq!(risk.0, 0.2, "one of ten members flagged, doubled");
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

    /// `snap` without its non-finite gauge samples.
    fn scrubbed(snap: &Snapshot) -> Snapshot {
        let mut clean = snap.clone();
        clean.gauges.retain(|_, (sum, _)| sum.is_finite());
        clean
    }

    #[test]
    fn non_finite_gauge_samples_read_as_absent() {
        // Each window is fed a stream carrying NaN, ∞ and -∞ samples
        // and, beside it, the same stream without them.
        const BAD: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let (mut dirty, mut clean) = (
            OccupancyWindow::new("cells", 64.0, 4),
            OccupancyWindow::new("cells", 64.0, 4),
        );
        for v in [56.0, BAD[0], 56.0, BAD[1], 8.0, BAD[2], 56.0] {
            let snap = gauge_delta(&[("cells", v)]);
            assert_eq!(
                dirty.observe(&snap),
                clean.observe(&scrubbed(&snap)),
                "cells {v}"
            );
        }
        // The window holds the four finite samples: (56 + 56 + 8 + 56) / 4.
        assert_eq!(dirty.observe(&Snapshot::default()).0, 44.0 / 64.0);

        // Six members, c5 dragged low from frame 2, c1 poisoned on
        // frames 1, 3 and 5.
        let (mut dirty, mut clean) = (
            GroupOutlierWindow::new("qoe.", 3),
            GroupOutlierWindow::new("qoe.", 3),
        );
        let mut flagged = 0;
        for frame in 0..8 {
            let mut pairs: Vec<(String, f64)> = (0..6)
                .map(|m| {
                    let low = m == 5 && frame >= 2;
                    (
                        format!("qoe.c{m}"),
                        if low { 0.1 } else { 0.8 + 0.01 * m as f64 },
                    )
                })
                .collect();
            if frame % 2 == 1 && frame < 6 {
                pairs[1].1 = BAD[frame / 2];
            }
            let named: Vec<(&str, f64)> = pairs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
            let snap = gauge_delta(&named);
            let risk = dirty.observe(&snap);
            assert_eq!(risk, clean.observe(&scrubbed(&snap)), "frame {frame}");
            flagged += usize::from(risk.0 > 0.0);
        }
        assert!(flagged > 0, "the dragged member is never flagged");
        // Finite samples whose window sum overflows: on the second frame
        // three of five members' means are ∞, and they sit out.
        let mut huge = GroupOutlierWindow::new("qoe.", 2);
        let big: Vec<(String, f64)> = (0..5)
            .map(|m| (format!("qoe.c{m}"), if m < 3 { f64::MAX } else { 0.8 }))
            .collect();
        let named: Vec<(&str, f64)> = big.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        assert_eq!(huge.observe(&gauge_delta(&named)).0, 0.8);
        assert_eq!(huge.observe(&gauge_delta(&named)), Risk::NONE);

        let syn = |live: f64| {
            let mut reg = Registry::new();
            let g = reg.gauge("tcp.handshake.synrcvd_live");
            reg.observe(g, live);
            let d = reg.counter("tcp.handshake.syn_dropped");
            reg.add(d, 3);
            let e = reg.counter("tcp.handshake.synrcvd");
            reg.add(e, 5);
            reg.snapshot()
        };
        let (mut dirty, mut clean) = (
            SynBacklogWindow::new("tcp.handshake", 64.0, 4),
            SynBacklogWindow::new("tcp.handshake", 64.0, 4),
        );
        for v in [16.0, BAD[0], 48.0, BAD[1], BAD[2], 16.0] {
            let snap = syn(v);
            assert_eq!(
                dirty.observe(&snap),
                clean.observe(&scrubbed(&snap)),
                "live {v}"
            );
        }
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
