//! Property-based tests of the Blink pipeline and attack theory (via
//! the in-tree `propcheck` engine).

use dui_blink::fastsim::{AttackSim, AttackSimConfig, FlowState};
use dui_blink::inference::{FailureDetector, FailureEvent};
use dui_blink::selector::{BlinkParams, Cell, FlowSelector, Observation, SelectorStats};
use dui_blink::theory::{effective_qm, AttackModel, FixedKeysModel};
use dui_netsim::packet::{Addr, FlowKey};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::digest::StateDigest;
use dui_stats::propcheck::{Gen, PropError};
use dui_stats::wire::QUANTITY_MAX;
use dui_stats::wire::{DecodeError, Encoder, Encoding, ErrorKind, Reader, Seq, Wire, Writer};
use dui_stats::{prop_assert, prop_assert_eq, prop_check, Rng};

fn key(i: u32) -> FlowKey {
    FlowKey::tcp(
        Addr(0xC612_0000 | (i & 0xFFFF)),
        (i % 60_000) as u16,
        Addr::new(10, 0, 0, 1),
        80,
    )
}

/// The selector as it was before it kept summaries of its cells: every
/// packet walks every cell for idle occupants, every failure check counts
/// every cell. Kept as the reference model the library is compared
/// against (the arrangement `BaselineHeapQueue` has with the timer wheel).
struct ScanSelector {
    params: BlinkParams,
    cells: Vec<Option<Cell>>,
    last_reset: SimTime,
    resets: u64,
    stats: SelectorStats,
    residencies: Option<Vec<SimDuration>>,
}

impl ScanSelector {
    fn new(params: BlinkParams) -> Self {
        ScanSelector {
            params,
            cells: vec![None; params.cells],
            last_reset: SimTime::ZERO,
            resets: 0,
            stats: SelectorStats::default(),
            residencies: None,
        }
    }

    fn log_residency(&mut self, cell: &Cell, end: SimTime) {
        if let Some(log) = &mut self.residencies {
            log.push(end.since(cell.sampled_at));
        }
    }

    fn apply_time(&mut self, now: SimTime) {
        if now.since(self.last_reset) >= self.params.reset_interval {
            for i in 0..self.cells.len() {
                if let Some(cell) = self.cells[i] {
                    self.log_residency(&cell, now);
                    self.stats.evicted_reset += 1;
                }
                self.cells[i] = None;
            }
            self.last_reset = now;
            self.resets += 1;
        }
        for i in 0..self.cells.len() {
            if let Some(cell) = self.cells[i] {
                if now.since(cell.last_seen) >= self.params.eviction_timeout {
                    self.log_residency(&cell, cell.last_seen + self.params.eviction_timeout);
                    self.stats.evicted_idle += 1;
                    self.cells[i] = None;
                }
            }
        }
    }

    fn on_packet(&mut self, now: SimTime, key: FlowKey, seq: u32, ends_flow: bool) -> Observation {
        self.apply_time(now);
        let idx = (key.digest(self.params.salt) % self.params.cells as u64) as usize;
        match &mut self.cells[idx] {
            Some(cell) if cell.flow == key => {
                let prev_seen = cell.last_seen;
                cell.last_seen = now;
                if ends_flow {
                    let cell = *cell;
                    self.log_residency(&cell, now);
                    self.stats.evicted_fin += 1;
                    self.cells[idx] = None;
                    return Observation::Evicted;
                }
                if seq == cell.last_seq {
                    cell.last_retx_gap = Some(now.since(prev_seen));
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
                self.stats.sampled += 1;
                Observation::Sampled
            }
        }
    }

    fn retransmitting_flows(&self, now: SimTime) -> usize {
        self.cells
            .iter()
            .flatten()
            .filter(|c| match c.last_retx {
                Some(t) => now.since(t) <= self.params.retx_window,
                None => false,
            })
            .count()
    }

    /// Whether it stores a time or duration past `QUANTITY_MAX`, which
    /// no checkpoint holds: the gaps the differential draws reach the end
    /// of time.
    fn past_quantity_max(&self) -> bool {
        let cells = self.cells.iter().flatten().flat_map(|c| {
            let retx = [c.last_retx.map(|t| t.0), c.last_retx_gap.map(|d| d.0)];
            [c.last_seen.0, c.sampled_at.0]
                .into_iter()
                .chain(retx.into_iter().flatten())
        });
        let residencies = self.residencies.iter().flatten().map(|d| d.0);
        cells
            .chain(residencies)
            .chain([self.last_reset.0])
            .any(|v| v > QUANTITY_MAX)
    }

    /// Every stored field, in the selector's checkpoint layout.
    fn bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.seq(&self.cells, |w, cell| {
            w.opt(cell.as_ref(), |w, c| {
                c.flow.put(w);
                w.varint(c.last_seen.0);
                w.varint(c.sampled_at.0);
                w.varint(u64::from(c.last_seq));
                w.opt(c.last_retx, |w, t| w.varint(t.0));
                w.opt(c.last_retx_gap, |w, d| w.varint(d.0));
            })
        });
        w.varint(self.last_reset.0);
        w.varint(self.resets);
        let s = &self.stats;
        for v in [
            s.sampled,
            s.evicted_fin,
            s.evicted_idle,
            s.evicted_reset,
            s.retransmissions,
            s.not_monitored,
        ] {
            w.varint(v);
        }
        w.opt(self.residencies.as_deref(), |w, res| {
            w.seq(res, |w, d| w.varint(d.0))
        });
        w.into_bytes()
    }
}

/// `FailureDetector::evaluate` over the model: count first, then the
/// hold-down.
fn scan_evaluate(
    last_fire: &mut Option<SimTime>,
    hold_down: SimDuration,
    now: SimTime,
    model: &ScanSelector,
) -> Option<FailureEvent> {
    let retransmitting = model.retransmitting_flows(now);
    if retransmitting < model.params.threshold {
        return None;
    }
    if last_fire.is_some_and(|last| now.since(last) < hold_down) {
        return None;
    }
    *last_fire = Some(now);
    Some(FailureEvent {
        at: now,
        retransmitting,
    })
}

fn selector_hash(s: &FlowSelector) -> u64 {
    let mut d = StateDigest::labeled("selector");
    s.encode(&mut d);
    d.finish()
}

fn selector_bytes(s: &FlowSelector) -> Vec<u8> {
    let mut w = Writer::new();
    s.encode(&mut w);
    w.into_bytes()
}

fn decode_selector(params: BlinkParams, bytes: &[u8]) -> Result<FlowSelector, DecodeError> {
    let mut r = Reader::new(bytes);
    let s = FlowSelector::decode(params, &mut r)?;
    r.finish("selector")?;
    Ok(s)
}

fn checkpoint(sim: &AttackSim) -> Vec<u8> {
    sim.walk(true).bytes.expect("nothing refuses").into_bytes()
}

/// The schedule section of a fast-simulation checkpoint: where it starts,
/// its `(time, flow index)` entries, and where it ends.
fn schedule_of(cfg: &AttackSimConfig, bytes: &[u8]) -> (usize, Vec<(u64, u64)>, usize) {
    let mut r = Reader::new(bytes);
    Rng::take(&mut r).expect("a checkpoint");
    FlowSelector::decode(cfg.params, &mut r).expect("a checkpoint");
    Seq::<FlowState>::read(&mut r, "flows").expect("a checkpoint");
    r.varint("sport cursor").unwrap();
    let start = bytes.len() - r.remaining();
    let entries = (0..r.varint("schedule length").unwrap())
        .map(|_| (r.varint("time").unwrap(), r.varint("flow").unwrap()))
        .collect();
    (start, entries, bytes.len() - r.remaining())
}

/// Drive the library selector and the scan model through the same
/// random packets, clock moves and checkpoint round trips, comparing
/// every observation, byte and failure verdict. With `end_of_time`, one
/// clock move in eight is a gap of about `u64::MAX`, which saturates
/// the clock, and a selector holding a time past `QUANTITY_MAX` must be
/// refused by `FlowSelector::decode` with `Range`; without it, every
/// state round-trips.
fn selector_against_the_scan_model(g: &mut Gen, end_of_time: bool) -> Result<(), PropError> {
    // Few cells and fewer keys than a hash can spread, so flows
    // collide; timeouts a handful of nanoseconds long, so the gaps
    // below land under, on and over every boundary.
    let cells = g.usize(1..9);
    let params = BlinkParams {
        cells,
        eviction_timeout: SimDuration(g.u64(0..40)),
        reset_interval: SimDuration(g.u64(0..400)),
        retx_window: SimDuration(g.u64(0..60)),
        threshold: g.usize(0..cells + 1),
        salt: g.any_u64(),
    };
    let hold_down = SimDuration(g.u64(0..80));
    let mut lib = FlowSelector::new(params);
    let mut model = ScanSelector::new(params);
    if g.bool() {
        lib.record_residencies();
        model.residencies = Some(Vec::new());
    }
    let mut detector = FailureDetector::new(hold_down);
    let mut last_fire = None;
    let mut now = SimTime(g.u64(0..100));
    for _ in 0..g.usize(0..120) {
        let gap = match g.u8(0..8) {
            0 => 0,
            1..=4 => g.u64(0..2 * params.eviction_timeout.0 + 3),
            5 => g.u64(0..90),
            6 => g.u64(0..900),
            _ if end_of_time => u64::MAX - g.u64(0..3),
            _ => g.u64(0..900),
        };
        now = if g.u8(0..6) == 0 {
            SimTime(now.0.saturating_sub(gap))
        } else {
            now + SimDuration(gap)
        };
        match g.u8(0..10) {
            0 => {
                lib.apply_time(now);
                model.apply_time(now);
            }
            1 => match decode_selector(params, &selector_bytes(&lib)) {
                Ok(rebuilt) => lib = rebuilt,
                Err(e) => prop_assert!(end_of_time, "{e}"),
            },
            _ => {
                let (flow, seq, fin) = (key(g.u32(0..12)), g.u32(0..3), g.u8(0..8) == 0);
                // Both entry points, the one that hashes the key and
                // the one handed the cell a caller kept.
                let observed = if g.bool() {
                    lib.on_packet_in_cell(lib.index_of(&flow), now, flow, seq, fin)
                } else {
                    lib.on_packet(now, flow, seq, fin)
                };
                prop_assert_eq!(observed, model.on_packet(now, flow, seq, fin));
            }
        }
        // The bytes are every stored field — `cells()`, `stats`,
        // `resets`, the last reset, the residencies in the order
        // `achieved_t_r` sums them.
        prop_assert_eq!(selector_bytes(&lib), model.bytes());
        prop_assert_eq!(
            lib.residencies(),
            model.residencies.as_deref().unwrap_or(&[])
        );
        // The summaries are derived: a selector decoded from the
        // model's bytes alone hashes like the live one — unless they
        // hold a time past `QUANTITY_MAX`, which is out of range.
        match decode_selector(params, &model.bytes()) {
            Ok(rebuilt) => {
                prop_assert!(!model.past_quantity_max());
                prop_assert_eq!(selector_hash(&rebuilt), selector_hash(&lib));
            }
            Err(e) => {
                prop_assert!(end_of_time && model.past_quantity_max(), "{e}");
                prop_assert_eq!(e.kind, ErrorKind::Range);
            }
        }
        prop_assert_eq!(lib.occupied(), model.cells.iter().flatten().count());
        // Asked at the packet's time and at one that may lie in the
        // past or beyond the window.
        for at in [now, SimTime(g.u64(0..2 * now.0.min(1 << 20) + 100))] {
            let retransmitting = model.retransmitting_flows(at);
            prop_assert_eq!(lib.retransmitting_flows(at), retransmitting);
            prop_assert_eq!(
                lib.failure_indicated(at),
                retransmitting >= params.threshold
            );
        }
        prop_assert_eq!(
            detector.evaluate(now, &lib),
            scan_evaluate(&mut last_fire, hold_down, now, &model)
        );
    }
    Ok(())
}

prop_check! {
    fn selector_matches_the_scan_every_packet_model(g) {
        selector_against_the_scan_model(g, false)?;
    }

    fn selector_saturates_at_the_end_of_time(g) {
        selector_against_the_scan_model(g, true)?;
    }

    fn fastsim_checkpoint_round_trips_and_refuses_reordering(g) {
        // A run stepped any number of times decodes from its checkpoint
        // to a run with the same bytes that steps on exactly as it does;
        // its schedule in any other order is none a run reaches.
        let cfg = AttackSimConfig {
            legit_flows: g.usize(0..6),
            malicious_flows: g.usize(0..3),
            pkt_interval: SimDuration::from_millis(g.u64(1..400)),
            horizon: SimDuration::from_secs(8),
            ..AttackSimConfig::fig2()
        };
        let mut sim = AttackSim::new(&cfg, g.any_u64());
        for _ in 0..g.usize(0..300) {
            sim.step();
        }
        let bytes = checkpoint(&sim);
        let mut back = AttackSim::from_bytes(&cfg, &bytes).expect("its own checkpoint");
        prop_assert_eq!(checkpoint(&back), bytes);
        for _ in 0..g.usize(0..100) {
            let t = sim.step();
            prop_assert_eq!(back.step(), t);
        }
        prop_assert_eq!(back.walk(true), sim.walk(true));
        let (start, mut entries, end) = schedule_of(&cfg, &bytes);
        if entries.len() > 1 {
            let sorted = entries.clone();
            for i in (1..entries.len()).rev() {
                entries.swap(i, g.usize(0..i + 1));
            }
            if entries == sorted {
                entries.swap(0, 1);
            }
            let mut w = Writer::new();
            w.raw(&bytes[..start]);
            w.seq(&entries, |w, &(t, flow)| {
                w.varint(t);
                w.varint(flow);
            });
            w.raw(&bytes[end..]);
            let err = AttackSim::from_bytes(&cfg, &w.into_bytes()).err();
            prop_assert_eq!(err.map(|e| e.kind), Some(ErrorKind::Invalid));
        }
    }

    fn selector_occupancy_bounded(g) {
        let packets = g.vec(0..400, |g| (g.u32(0..500), g.u64(0..10_000), g.bool()));
        let mut s = FlowSelector::new(BlinkParams::default());
        for (flow, t_ms, fin) in packets {
            s.on_packet(
                SimTime::ZERO + SimDuration::from_millis(t_ms),
                key(flow),
                flow.wrapping_mul(17),
                fin,
            );
            prop_assert!(s.occupied() <= 64);
            prop_assert!(s.retransmitting_flows(SimTime::ZERO + SimDuration::from_millis(t_ms)) <= s.occupied());
        }
    }

    fn selector_same_flow_same_cell(g) {
        let flow = g.any_u32();
        let salt = g.any_u64();
        let s = FlowSelector::new(BlinkParams { salt, ..Default::default() });
        prop_assert_eq!(s.index_of(&key(flow)), s.index_of(&key(flow)));
        prop_assert!(s.index_of(&key(flow)) < 64);
    }

    fn monitored_flow_survives_within_timeout(g) {
        // A flow that always sends within the 2 s timeout is never evicted
        // (until the 8.5 min reset).
        let gaps = g.vec(1..50, |g| g.u64(1..1999));
        let mut s = FlowSelector::new(BlinkParams::default());
        let k = key(1);
        let mut t = 0u64;
        s.on_packet(SimTime(0), k, 1, false);
        for gap_ms in gaps {
            t += gap_ms * 1_000_000;
            if t >= 500_000_000_000 {
                break; // approaching the reset; stop
            }
            s.on_packet(SimTime(t), k, 1, false);
            let idx = s.index_of(&k);
            prop_assert_eq!(s.cells()[idx].map(|c| c.flow), Some(k));
        }
    }

    fn iid_model_probability_valid(g) {
        let t_r = g.f64(0.1..500.0);
        let q_m = g.f64(0.0..1.0);
        let t = g.f64(0.0..2000.0);
        let m = AttackModel { t_r, q_m, ..AttackModel::fig2() };
        let p = m.cell_probability(t);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    fn iid_model_monotone_in_qm(g) {
        let t_r = g.f64(1.0..100.0);
        let t = g.f64(1.0..500.0);
        let qa = g.f64(0.0..0.5);
        let delta = g.f64(0.0..0.5);
        let lo = AttackModel { t_r, q_m: qa, ..AttackModel::fig2() };
        let hi = AttackModel { t_r, q_m: (qa + delta).min(1.0), ..AttackModel::fig2() };
        prop_assert!(hi.cell_probability(t) + 1e-12 >= lo.cell_probability(t));
    }

    fn fixed_keys_never_exceeds_saturation(g) {
        let m_flows = g.u32(1..400);
        let legit = g.f64(1.0..5000.0);
        let t = g.f64(0.0..600.0);
        let m = FixedKeysModel {
            malicious_flows: m_flows,
            legit_concurrent: legit,
            ..FixedKeysModel::fig2()
        };
        prop_assert!(m.mean(t) <= m.saturation() + 1e-6);
    }

    fn fixed_keys_slower_or_equal_to_iid(g) {
        // Jensen: the fixed-keys mixture never beats the iid model with the
        // same average malicious share.
        let t = g.f64(1.0..500.0);
        let fixed = FixedKeysModel::fig2();
        let qm = 105.0 / 2105.0;
        let iid = AttackModel { q_m: qm, ..AttackModel::fig2() };
        prop_assert!(fixed.mean(t) <= iid.mean(t) + 0.35, "t={t}: {} vs {}", fixed.mean(t), iid.mean(t));
    }

    fn effective_qm_bounded_and_monotone(g) {
        let q = g.f64(0.0..1.0);
        let r1 = g.f64(0.0..10.0);
        let dr = g.f64(0.0..10.0);
        let a = effective_qm(q, r1);
        let b = effective_qm(q, r1 + dr);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!(b + 1e-12 >= a, "monotone in rate ratio");
    }
}
