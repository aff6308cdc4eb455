//! The Blink flow selector: a fixed array of cells monitoring a small
//! sample of a prefix's flows.
//!
//! Faithful to the mechanism the HotNets'19 attack exploits (§3.1 of the
//! paper, after the Blink NSDI'19 design):
//!
//! * hash of the 5-tuple indexes one of `n` cells (several flows may
//!   collide; only one occupies the cell at a time);
//! * the occupant is evicted when it FINs/RSTs, when it has been silent for
//!   the eviction timeout (2 s), or when the periodic sample reset (8.5
//!   min) clears everything;
//! * when a cell is free, the *next flow that hashes into it* is sampled —
//!   this is the resampling step whose bias toward always-active malicious
//!   flows the attack weaponizes;
//! * each cell tracks the last TCP sequence seen; seeing the same sequence
//!   again is counted as a retransmission event.
//!
//! All time-based transitions are applied lazily against the packet
//! timestamp, as a real data-plane pipeline would do with a timestamp
//! metadata field; harness code that samples state between packets first
//! calls [`FlowSelector::apply_time`].
//!
//! # Constant work per packet
//!
//! Idle eviction and the failure check are both questions about *all*
//! cells, asked once per packet, and almost always answered "nothing":
//! Fig. 2 evicts once in ≈ 3,300 packets, the C4 packet run sees 57
//! retransmissions in 1.2 M deliveries. Two summaries, derived from the
//! cells and kept beside them, answer the common case without the walk:
//!
//! * `oldest_seen` — a **lower bound** on every occupant's `last_seen`
//!   (`SimTime(u64::MAX)` while no cell is known to be occupied).
//!   [`FlowSelector::apply_time`] evaluates the eviction predicate
//!   `now.since(·) >= eviction_timeout` on the bound first. `since`
//!   saturates and is monotone in its argument, so when the bound is not
//!   idle no occupant is: the scan is skipped only when it would have
//!   changed nothing — for any `now`, moving backwards included, and never
//!   when `eviction_timeout` is zero (the predicate then always holds).
//!   Every scan that does run sets the bound to the exact minimum over
//!   the survivors.
//! * `retx_cells` — the number of occupants with `last_retx.is_some()`,
//!   an **upper bound** on [`FlowSelector::retransmitting_flows`] at any
//!   `now`; [`FlowSelector::failure_indicated`] counts the window only
//!   once that bound reaches the threshold.
//!
//! What keeps them valid: wherever `last_seen` is written, `now` is
//! folded into the bound with `min` (a no-op while time moves forward);
//! `retx_cells` moves where a cell is first marked, evicted (FIN or idle)
//! or reset. What needs no upkeep: emptying a cell (`cells[idx] = None`)
//! and `last_seen` moving forward both leave a lower bound a lower bound —
//! it merely goes stale, and the next scan it lets through tightens it.
//! Neither summary is state: [`FlowSelector::encode`], which is also the
//! selector's digest, does not write them, and [`FlowSelector::decode`]
//! recomputes them in one pass. Under constant eviction or a
//! retransmission storm every packet still scans, at the old cost plus
//! one compare.

use dui_netsim::packet::FlowKey;
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::wire::{DecodeError, Encoder, ErrorKind, Reader};

/// `oldest_seen` while no cell is known to be occupied: `since` it is zero
/// at every `now`, so only a zero `eviction_timeout` lets a scan through.
const NO_OCCUPANT: SimTime = SimTime(u64::MAX);

/// Cells (monitored flows) per prefix in Blink's selector: 64.
pub const CELLS: usize = 64;
/// Flows with an in-window retransmission that make Blink infer a
/// failure: 32, half the cells.
pub const THRESHOLD: usize = 32;
/// Period of Blink's sample reset `tB`: 8.5 min.
pub const RESET_INTERVAL: SimDuration = SimDuration::from_secs(510);

/// Selector parameters (defaults are the Blink paper constants the
/// HotNets'19 analysis assumes).
#[derive(Debug, Clone, Copy)]
pub struct BlinkParams {
    /// Number of cells (monitored flows) per prefix.
    pub cells: usize,
    /// Evict an occupant silent for this long.
    pub eviction_timeout: SimDuration,
    /// Clear the whole sample this often (`tB`).
    pub reset_interval: SimDuration,
    /// Sliding window for counting retransmitting flows.
    pub retx_window: SimDuration,
    /// Flows with a retransmission in-window needed to infer failure.
    pub threshold: usize,
    /// Hash salt (a secret of the switch; Kerckhoff-wise the attacker knows
    /// the algorithm but not necessarily this value).
    pub salt: u64,
}

impl Default for BlinkParams {
    fn default() -> Self {
        BlinkParams {
            cells: CELLS,
            eviction_timeout: SimDuration::from_secs(2),
            reset_interval: RESET_INTERVAL,
            retx_window: SimDuration::from_millis(800),
            threshold: THRESHOLD,
            salt: 0,
        }
    }
}

/// One monitored flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The monitored 5-tuple.
    pub flow: FlowKey,
    /// Last packet time from this flow.
    pub last_seen: SimTime,
    /// When the flow was sampled into the cell.
    pub sampled_at: SimTime,
    /// Last TCP sequence number observed.
    pub last_seq: u32,
    /// Time of the most recent retransmission event, if any.
    pub last_retx: Option<SimTime>,
    /// Gap between the most recent retransmission and the packet before it
    /// — for real RTO-driven retransmissions this is the flow's RTO; the
    /// §5 countermeasure checks its plausibility.
    pub last_retx_gap: Option<SimDuration>,
}

/// What the selector observed for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// The packet's flow was newly sampled into a free cell.
    Sampled,
    /// The packet belonged to the monitored flow; no retransmission.
    Monitored,
    /// The packet belonged to the monitored flow and repeated its last
    /// sequence number — a retransmission event.
    Retransmission,
    /// The packet's cell is occupied by a different, still-live flow.
    NotMonitored,
    /// The packet ended its flow (FIN/RST) and freed its cell.
    Evicted,
}

/// Cumulative selector event counts, exported into the telemetry
/// registry by scenario harnesses (`blink.selector.*` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectorStats {
    /// Flows newly sampled into a free cell.
    pub sampled: u64,
    /// Occupants evicted by their own FIN/RST.
    pub evicted_fin: u64,
    /// Occupants evicted after the idle timeout.
    pub evicted_idle: u64,
    /// Occupants cleared by the periodic sample reset.
    pub evicted_reset: u64,
    /// Retransmission events observed on monitored flows.
    pub retransmissions: u64,
    /// Packets of flows that hashed into an occupied cell.
    pub not_monitored: u64,
}

/// The per-prefix flow selector.
///
/// ```
/// use dui_blink::selector::{BlinkParams, FlowSelector, Observation};
/// use dui_netsim::packet::{Addr, FlowKey};
/// use dui_netsim::time::SimTime;
///
/// let mut s = FlowSelector::new(BlinkParams::default());
/// let flow = FlowKey::tcp(Addr::new(198, 18, 0, 1), 42, Addr::new(10, 0, 0, 1), 80);
/// assert_eq!(s.on_packet(SimTime::ZERO, flow, 1000, false), Observation::Sampled);
/// // The same sequence number again is a retransmission — Blink's signal.
/// assert_eq!(
///     s.on_packet(SimTime::from_secs_f64(0.2), flow, 1000, false),
///     Observation::Retransmission
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FlowSelector {
    params: BlinkParams,
    cells: Vec<Option<Cell>>,
    /// Lower bound on every occupant's `last_seen` (derived; module docs).
    oldest_seen: SimTime,
    /// Occupants with `last_retx.is_some()` (derived; module docs).
    retx_cells: usize,
    last_reset: SimTime,
    /// Number of sample resets performed.
    pub resets: u64,
    /// Cumulative event counts (sampling, evictions, retransmissions).
    pub stats: SelectorStats,
    /// Completed occupancy durations, recorded when occupants are evicted
    /// or replaced (enable with [`FlowSelector::record_residencies`]).
    residencies: Option<Vec<SimDuration>>,
}

impl FlowSelector {
    /// New selector with the given parameters.
    pub fn new(params: BlinkParams) -> Self {
        assert!(params.cells > 0, "need at least one cell");
        assert!(
            params.threshold <= params.cells,
            "threshold cannot exceed cell count"
        );
        FlowSelector {
            params,
            cells: vec![None; params.cells],
            oldest_seen: NO_OCCUPANT,
            retx_cells: 0,
            last_reset: SimTime::ZERO,
            resets: 0,
            stats: SelectorStats::default(),
            residencies: None,
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> &BlinkParams {
        &self.params
    }

    /// Start recording occupancy durations (for the residency experiment).
    pub fn record_residencies(&mut self) {
        self.residencies = Some(Vec::new());
    }

    /// Completed occupancy durations recorded so far.
    pub fn residencies(&self) -> &[SimDuration] {
        self.residencies.as_deref().unwrap_or(&[])
    }

    fn log_residency(&mut self, cell: &Cell, end: SimTime) {
        if let Some(log) = &mut self.residencies {
            log.push(end.since(cell.sampled_at));
        }
    }

    /// Cell index a flow hashes to.
    pub fn index_of(&self, key: &FlowKey) -> usize {
        (key.digest(self.params.salt) % self.params.cells as u64) as usize
    }

    /// Apply lazy time-based state transitions up to `now`: periodic sample
    /// reset and idle evictions.
    pub fn apply_time(&mut self, now: SimTime) {
        if now.since(self.last_reset) >= self.params.reset_interval {
            for i in 0..self.cells.len() {
                if let Some(cell) = self.cells[i] {
                    self.log_residency(&cell, now);
                    self.stats.evicted_reset += 1;
                }
                self.cells[i] = None;
            }
            self.oldest_seen = NO_OCCUPANT;
            self.retx_cells = 0;
            self.last_reset = now;
            self.resets += 1;
        }
        if now.since(self.oldest_seen) < self.params.eviction_timeout {
            return;
        }
        let mut oldest = NO_OCCUPANT;
        for i in 0..self.cells.len() {
            if let Some(cell) = self.cells[i] {
                if now.since(cell.last_seen) >= self.params.eviction_timeout {
                    self.log_residency(&cell, cell.last_seen + self.params.eviction_timeout);
                    self.stats.evicted_idle += 1;
                    self.retx_cells -= usize::from(cell.last_retx.is_some());
                    self.cells[i] = None;
                } else {
                    oldest = oldest.min(cell.last_seen);
                }
            }
        }
        self.oldest_seen = oldest;
    }

    /// Process one TCP packet of the monitored prefix.
    ///
    /// `seq` is the TCP sequence number; `ends_flow` marks FIN/RST.
    pub fn on_packet(
        &mut self,
        now: SimTime,
        key: FlowKey,
        seq: u32,
        ends_flow: bool,
    ) -> Observation {
        self.on_packet_in_cell(self.index_of(&key), now, key, seq, ends_flow)
    }

    /// [`FlowSelector::on_packet`] for a caller that already knows the
    /// cell `key` hashes to: `idx` must be `self.index_of(&key)` (checked
    /// in debug builds). A caller that sees many packets of one 5-tuple
    /// under fixed parameters keeps the index per flow and saves the
    /// digest on every packet after the first.
    pub fn on_packet_in_cell(
        &mut self,
        idx: usize,
        now: SimTime,
        key: FlowKey,
        seq: u32,
        ends_flow: bool,
    ) -> Observation {
        debug_assert_eq!(idx, self.index_of(&key), "stale cell for {key:?}");
        self.apply_time(now);
        match &mut self.cells[idx] {
            Some(cell) if cell.flow == key => {
                let prev_seen = cell.last_seen;
                cell.last_seen = now;
                self.oldest_seen = self.oldest_seen.min(now);
                if ends_flow {
                    let cell = *cell;
                    self.log_residency(&cell, now);
                    self.stats.evicted_fin += 1;
                    self.retx_cells -= usize::from(cell.last_retx.is_some());
                    self.cells[idx] = None;
                    return Observation::Evicted;
                }
                if seq == cell.last_seq {
                    cell.last_retx_gap = Some(now.since(prev_seen));
                    self.retx_cells += usize::from(cell.last_retx.is_none());
                    cell.last_retx = Some(now);
                    self.stats.retransmissions += 1;
                    Observation::Retransmission
                } else {
                    cell.last_seq = seq;
                    Observation::Monitored
                }
            }
            Some(_) => {
                self.stats.not_monitored += 1;
                Observation::NotMonitored
            }
            None => {
                if ends_flow {
                    // A terminating packet is not worth sampling.
                    self.stats.not_monitored += 1;
                    return Observation::NotMonitored;
                }
                self.cells[idx] = Some(Cell {
                    flow: key,
                    last_seen: now,
                    sampled_at: now,
                    last_seq: seq,
                    last_retx: None,
                    last_retx_gap: None,
                });
                self.oldest_seen = self.oldest_seen.min(now);
                self.stats.sampled += 1;
                Observation::Sampled
            }
        }
    }

    /// Number of occupied cells (after applying time transitions — callers
    /// sampling between packets should `apply_time` first).
    pub fn occupied(&self) -> usize {
        self.cells.iter().flatten().count()
    }

    /// Count occupied cells whose flow satisfies `pred` (e.g. "is one of
    /// the attacker's 5-tuples").
    pub fn count_matching(&self, mut pred: impl FnMut(&FlowKey) -> bool) -> usize {
        self.cells
            .iter()
            .flatten()
            .filter(|c| pred(&c.flow))
            .count()
    }

    /// Number of monitored flows with a retransmission inside the sliding
    /// window ending at `now`.
    pub fn retransmitting_flows(&self, now: SimTime) -> usize {
        self.cells
            .iter()
            .flatten()
            .filter(|c| match c.last_retx {
                Some(t) => now.since(t) <= self.params.retx_window,
                None => false,
            })
            .count()
    }

    /// Does the retransmitting-flow count reach the failure threshold?
    pub fn failure_indicated(&self, now: SimTime) -> bool {
        self.retx_cells >= self.params.threshold
            && self.retransmitting_flows(now) >= self.params.threshold
    }

    /// The monitored flows (for inspection).
    pub fn cells(&self) -> &[Option<Cell>] {
        &self.cells
    }

    /// The checkpoint encoder, which is also the selector's state digest:
    /// the cell array in index order, the reset clock, the counts and the
    /// residencies. The parameters are *not* written — they belong to the
    /// configuration a restored run is rebuilt under — nor are the two
    /// summaries, which [`FlowSelector::decode`] recomputes.
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        e.seq(&self.cells, |e, cell| {
            e.opt(cell.as_ref(), |e, c| c.encode(e))
        });
        e.varint(self.last_reset.0);
        e.varint(self.resets);
        let s = &self.stats;
        for v in [
            s.sampled,
            s.evicted_fin,
            s.evicted_idle,
            s.evicted_reset,
            s.retransmissions,
            s.not_monitored,
        ] {
            e.varint(v);
        }
        e.opt(self.residencies.as_deref(), |e, res| {
            e.seq(res, |e, d| e.varint(d.0))
        });
    }

    /// Inverse of [`FlowSelector::encode`], under the parameters of the
    /// configuration being restored: a cell count other than
    /// `params.cells` is [`ErrorKind::Config`]. Recomputes both summaries
    /// in one pass.
    pub fn decode(params: BlinkParams, r: &mut Reader) -> Result<FlowSelector, DecodeError> {
        if r.count("cell count", Reader::varint, 1)? != params.cells {
            return Err(r.error("cell count", ErrorKind::Config));
        }
        let mut cells = Vec::with_capacity(params.cells);
        for _ in 0..params.cells {
            cells.push(r.opt("cell", |r, _| Cell::decode(r))?);
        }
        let last_reset = SimTime(r.varint_quantity("selector last_reset")?);
        let resets = r.varint_quantity("selector resets")?;
        let stats = SelectorStats {
            sampled: r.varint_quantity("selector sampled")?,
            evicted_fin: r.varint_quantity("selector evicted_fin")?,
            evicted_idle: r.varint_quantity("selector evicted_idle")?,
            evicted_reset: r.varint_quantity("selector evicted_reset")?,
            retransmissions: r.varint_quantity("selector retransmissions")?,
            not_monitored: r.varint_quantity("selector not_monitored")?,
        };
        let residencies = r.opt("residencies", |r, what| {
            r.seq(what, Reader::varint, 1, |r| {
                Ok(SimDuration(r.varint_quantity("residency")?))
            })
        })?;
        let occupants = cells.iter().flatten();
        Ok(FlowSelector {
            params,
            oldest_seen: occupants
                .clone()
                .map(|c| c.last_seen)
                .min()
                .unwrap_or(NO_OCCUPANT),
            retx_cells: occupants.filter(|c| c.last_retx.is_some()).count(),
            cells,
            last_reset,
            resets,
            stats,
            residencies,
        })
    }
}

impl Cell {
    fn encode<E: Encoder>(&self, e: &mut E) {
        self.flow.encode(e);
        e.varint(self.last_seen.0);
        e.varint(self.sampled_at.0);
        e.varint(u64::from(self.last_seq));
        e.opt(self.last_retx, |e, t| e.varint(t.0));
        e.opt(self.last_retx_gap, |e, g| e.varint(g.0));
    }

    fn decode(r: &mut Reader) -> Result<Cell, DecodeError> {
        Ok(Cell {
            flow: FlowKey::decode(r)?,
            last_seen: SimTime(r.varint_quantity("cell last_seen")?),
            sampled_at: SimTime(r.varint_quantity("cell sampled_at")?),
            last_seq: r.varint_u32("cell last_seq")?,
            last_retx: r
                .opt("cell last_retx", Reader::varint_quantity)?
                .map(SimTime),
            last_retx_gap: r
                .opt("cell retx gap", Reader::varint_quantity)?
                .map(SimDuration),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::packet::Addr;

    fn key(i: u16) -> FlowKey {
        FlowKey::tcp(Addr::new(198, 18, 0, 1), i, Addr::new(10, 0, 0, 5), 80)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn selector() -> FlowSelector {
        FlowSelector::new(BlinkParams::default())
    }

    #[test]
    fn first_packet_samples_flow() {
        let mut s = selector();
        assert_eq!(s.on_packet(t(0), key(1), 100, false), Observation::Sampled);
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn colliding_flow_not_monitored_while_occupant_live() {
        let mut s = FlowSelector::new(BlinkParams {
            cells: 1,
            threshold: 1,
            ..Default::default()
        });
        s.on_packet(t(0), key(1), 100, false);
        assert_eq!(
            s.on_packet(t(100), key(2), 1, false),
            Observation::NotMonitored
        );
        // Occupant keeps the cell.
        assert_eq!(
            s.on_packet(t(200), key(1), 101, false),
            Observation::Monitored
        );
    }

    #[test]
    fn repeated_sequence_is_retransmission() {
        let mut s = selector();
        s.on_packet(t(0), key(1), 500, false);
        assert_eq!(
            s.on_packet(t(100), key(1), 501, false),
            Observation::Monitored
        );
        assert_eq!(
            s.on_packet(t(200), key(1), 501, false),
            Observation::Retransmission
        );
        assert_eq!(s.retransmitting_flows(t(200)), 1);
    }

    #[test]
    fn retx_window_expires() {
        let mut s = selector();
        s.on_packet(t(0), key(1), 500, false);
        s.on_packet(t(10), key(1), 500, false); // retx at t=10ms
        assert_eq!(s.retransmitting_flows(t(400)), 1);
        assert_eq!(s.retransmitting_flows(t(900)), 0, "800ms window passed");
    }

    #[test]
    fn idle_flow_evicted_and_cell_resampled() {
        let mut s = FlowSelector::new(BlinkParams {
            cells: 1,
            threshold: 1,
            ..Default::default()
        });
        s.on_packet(t(0), key(1), 1, false);
        // key(2) arrives after occupant idled 2s: takes the cell.
        assert_eq!(s.on_packet(t(2500), key(2), 7, false), Observation::Sampled);
        assert_eq!(s.cells()[0].unwrap().flow, key(2));
    }

    #[test]
    fn fin_frees_cell() {
        let mut s = selector();
        s.on_packet(t(0), key(1), 1, false);
        assert_eq!(s.on_packet(t(100), key(1), 2, true), Observation::Evicted);
        assert_eq!(s.occupied(), 0);
    }

    #[test]
    fn fin_of_unmonitored_flow_does_not_sample() {
        let mut s = selector();
        assert_eq!(
            s.on_packet(t(0), key(1), 1, true),
            Observation::NotMonitored
        );
        assert_eq!(s.occupied(), 0);
    }

    #[test]
    fn periodic_reset_clears_sample() {
        let mut s = selector();
        for i in 0..32 {
            s.on_packet(t(i), key(i as u16), 1, false);
        }
        assert!(s.occupied() > 0);
        s.apply_time(t(510_000));
        assert_eq!(s.occupied(), 0);
        assert_eq!(s.resets, 1);
    }

    #[test]
    fn keepalives_prevent_eviction_across_reset_period() {
        // A malicious always-active flow is only ever cleared by the reset.
        let mut s = FlowSelector::new(BlinkParams {
            cells: 1,
            threshold: 1,
            ..Default::default()
        });
        let mut now = 0u64;
        s.on_packet(t(0), key(9), 1, false);
        while now < 509_000 {
            now += 500;
            s.on_packet(t(now), key(9), 1, false); // same seq: keepalive+retx
        }
        assert_eq!(s.cells()[0].unwrap().flow, key(9));
        s.apply_time(t(510_500));
        assert_eq!(s.occupied(), 0, "reset evicts even always-active flows");
    }

    #[test]
    fn failure_indicated_at_threshold() {
        let mut s = FlowSelector::new(BlinkParams {
            cells: 64,
            threshold: 32,
            salt: 1,
            ..Default::default()
        });
        // Fill distinct cells with distinct flows until 40 cells occupied.
        let mut filled = Vec::new();
        let mut i = 0u16;
        while filled.len() < 40 {
            i += 1;
            let k = key(i);
            if s.on_packet(t(0), k, 1, false) == Observation::Sampled {
                filled.push(k);
            }
        }
        // 31 retransmitting flows: below threshold.
        for k in filled.iter().take(31) {
            s.on_packet(t(100), *k, 1, false);
        }
        assert!(!s.failure_indicated(t(100)));
        // The 32nd tips it.
        s.on_packet(t(110), filled[31], 1, false);
        assert!(s.failure_indicated(t(110)));
    }

    #[test]
    fn count_matching_classifies_occupants() {
        let mut s = selector();
        for i in 1..=20 {
            s.on_packet(t(0), key(i), 1, false);
        }
        let evil = s.count_matching(|k| k.sport <= 10);
        let good = s.count_matching(|k| k.sport > 10);
        assert_eq!(evil + good, s.occupied());
    }

    #[test]
    fn residency_recording() {
        let mut s = selector();
        s.record_residencies();
        s.on_packet(t(0), key(1), 1, false);
        s.on_packet(t(5000), key(1), 2, false); // still alive (packet before idle check? no: 5s > 2s timeout)
                                                // The 5 s gap exceeded the 2 s timeout: flow was evicted at t=2 s and
                                                // the packet at t=5 s re-sampled it.
        assert_eq!(s.residencies().len(), 1);
        assert_eq!(s.residencies()[0], SimDuration::from_secs(2));
        s.on_packet(t(5500), key(1), 3, true); // FIN at 5.5s: residency 0.5s
        assert_eq!(s.residencies().len(), 2);
        assert_eq!(s.residencies()[1], SimDuration::from_millis(500));
    }

    #[test]
    fn retx_gap_recorded() {
        let mut s = selector();
        s.on_packet(t(0), key(1), 500, false);
        s.on_packet(t(300), key(1), 501, false);
        s.on_packet(t(1300), key(1), 501, false); // retx 1 s after previous
        let cell = s.cells()[s.index_of(&key(1))].unwrap();
        assert_eq!(cell.last_retx_gap, Some(SimDuration::from_secs(1)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale cell")]
    fn a_cell_the_key_does_not_hash_to_is_refused_in_debug_builds() {
        let mut s = selector();
        let wrong = (s.index_of(&key(1)) + 1) % s.params().cells;
        s.on_packet_in_cell(wrong, t(0), key(1), 1, false);
    }

    dui_stats::prop_check! {
        fn summaries_are_a_lower_bound_and_an_exact_count(g) {
            // The differential suite (tests/properties.rs) cannot see a
            // summary that is merely too loose — that costs scans, not
            // answers — so the two are held to their definitions here.
            let mut s = FlowSelector::new(BlinkParams {
                cells: 4,
                threshold: 2,
                eviction_timeout: SimDuration(g.u64(0..30)),
                reset_interval: SimDuration(g.u64(1..300)),
                ..Default::default()
            });
            let mut now = 0u64;
            for _ in 0..g.usize(0..100) {
                now = if g.u8(0..6) == 0 {
                    now.saturating_sub(g.u64(0..50))
                } else {
                    now + g.u64(0..50)
                };
                s.on_packet(SimTime(now), key(g.u16(0..10)), g.u32(0..2), g.u8(0..8) == 0);
                let occupants = s.cells.iter().flatten();
                dui_stats::prop_assert!(occupants.clone().all(|c| s.oldest_seen <= c.last_seen));
                dui_stats::prop_assert_eq!(
                    s.retx_cells,
                    occupants.filter(|c| c.last_retx.is_some()).count()
                );
            }
        }
    }

    #[test]
    fn decode_rebuilds_the_selector_and_refuses_another_cell_count() {
        let mut s = selector();
        s.record_residencies();
        for i in 0..40 {
            s.on_packet(
                t(u64::from(i) * 300),
                key(i % 9),
                u32::from(i % 2),
                i % 7 == 0,
            );
        }
        let encoded = |s: &FlowSelector| {
            let mut w = dui_stats::wire::Writer::new();
            s.encode(&mut w);
            w.into_bytes()
        };
        let bytes = encoded(&s);
        let mut r = Reader::new(&bytes);
        let back = FlowSelector::decode(*s.params(), &mut r).expect("its own bytes");
        assert_eq!(r.finish("selector"), Ok(()));
        assert_eq!(encoded(&back), bytes);
        assert_eq!(back.retx_cells, s.retx_cells);
        let other = BlinkParams {
            cells: 32,
            ..Default::default()
        };
        let err = FlowSelector::decode(other, &mut Reader::new(&bytes)).unwrap_err();
        assert_eq!((err.what, err.kind), ("cell count", ErrorKind::Config));
    }

    #[test]
    fn hash_spreads_flows() {
        let s = selector();
        let mut hit = [false; 64];
        for i in 0..1000 {
            hit[s.index_of(&key(i))] = true;
        }
        let covered = hit.iter().filter(|&&h| h).count();
        assert!(covered > 55, "only {covered}/64 cells covered");
    }

    #[test]
    fn salt_changes_mapping() {
        let a = FlowSelector::new(BlinkParams {
            salt: 1,
            ..Default::default()
        });
        let b = FlowSelector::new(BlinkParams {
            salt: 2,
            ..Default::default()
        });
        let moved = (0..200)
            .filter(|&i| a.index_of(&key(i)) != b.index_of(&key(i)))
            .count();
        assert!(moved > 150, "salt should remap most flows, moved {moved}");
    }
}
