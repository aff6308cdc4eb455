//! Flow-level Monte-Carlo simulation of the Blink takeover attack — the
//! tool that regenerates the *50 simulations* overlay of the paper's
//! Fig. 2.
//!
//! The simulation drives the real [`FlowSelector`] data structure with a
//! synthetic packet schedule rather than a full packet-level network: the
//! attack dynamics depend only on *which flow's packet hashes into a freed
//! cell next*, so per-flow packet clocks suffice and a 500-second run with
//! 2000 legitimate + 105 malicious flows — 4.21 M packets — takes about
//! 66 ms (≈ 16 ns a packet on the 2-core reference box). (A
//! packet-level validation of the same scenario over `dui-netsim` lives in
//! the cross-crate integration tests.)
//!
//! Workload model, mirroring the paper's experiment (§3.1):
//!
//! * A fixed population of `legit_flows` legitimate flows; each lives
//!   `Exp(mean_lifetime)` and is immediately replaced by a fresh flow with
//!   a new 5-tuple when it dies (fixed concurrency, Poisson churn). The
//!   exponential is chosen for its memorylessness: the residual lifetime
//!   seen at sampling time equals the mean, so the achieved residency
//!   `tR ≈ mean_lifetime + eviction_timeout` is controllable. The
//!   simulation *measures* the achieved `tR` and reports it, so
//!   theory-vs-simulation comparisons use the achieved value — the same
//!   methodology the paper applies to its CAIDA-derived `tR`.
//! * `malicious_flows` spoofed flows that never die; all flows (malicious
//!   and legitimate) emit one packet every `pkt_interval`, which makes the
//!   probability that a freed cell resamples a malicious flow equal to the
//!   flow-count fraction `qm` — the quantity the paper's formula uses.
//!
//! # The schedule is a ring
//!
//! Packets are processed in `(time, flow index)` order. Because every
//! flow has the same `pkt_interval`, the pending clocks need no priority
//! queue: they sit in one always-ascending `VecDeque`, [`AttackSim::step`]
//! pops the front and pushes the flow's next clock, `t + pkt_interval`, at
//! the back. The push keeps the ring ascending: pops ascend, so the
//! pushed values — each a pop plus one constant — ascend too, and the
//! phases [`AttackSim::new`] draws are all below `pkt_interval`, hence
//! below the first push. `new` draws the phases in flow order (the RNG
//! order is the contract) and orders them once, by a counting pass over
//! equal-width phase buckets (`order_clocks`).
//!
//! [`AttackSim::from_bytes`] accepts only a schedule a run can reach, the
//! invariant under which that push keeps the ring sorted: every held flow
//! exactly once, ascending by `(time, flow index)`, and the last entry no
//! later than `(first time + pkt_interval, first flow)` — the clock the
//! front flow pushes when it is popped.

use crate::selector::{BlinkParams, FlowSelector, SelectorStats};
use crate::theory::{FIG2_LEGIT_FLOWS, FIG2_MALICIOUS_FLOWS};
use dui_flowgen::flows::random_key_in_prefix;
use dui_netsim::packet::{Addr, FlowKey, Prefix};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::digest::StateDigest;
use dui_stats::dist;
use dui_stats::wire::{self, DecodeError, Encoder, ErrorKind, Reader, Walk, Writer};
use dui_stats::{Rng, TimeSeries};
use std::collections::{HashSet, VecDeque};

/// Configuration of one attack simulation run.
#[derive(Debug, Clone)]
pub struct AttackSimConfig {
    /// Selector parameters.
    pub params: BlinkParams,
    /// Concurrent legitimate flows (paper: 2000).
    pub legit_flows: usize,
    /// Malicious flows (paper: 105 → qm = 0.0525).
    pub malicious_flows: usize,
    /// Mean legitimate flow lifetime (seconds). The achieved residency is
    /// roughly this plus the eviction timeout.
    pub mean_lifetime_secs: f64,
    /// Per-flow packet interval (all flows).
    pub pkt_interval: SimDuration,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Sampling cadence of the output series.
    pub sample_every: SimDuration,
    /// Victim prefix.
    pub prefix: Prefix,
}

impl AttackSimConfig {
    /// The paper's Fig. 2 scenario: 2000 legitimate + 105 malicious flows,
    /// tuned toward tR ≈ 8.37 s, observed for 500 s.
    pub fn fig2() -> Self {
        AttackSimConfig {
            params: BlinkParams::default(),
            legit_flows: FIG2_LEGIT_FLOWS,
            malicious_flows: FIG2_MALICIOUS_FLOWS,
            // target tR 8.37 s ≈ mean lifetime + 2 s eviction lag
            mean_lifetime_secs: 6.37,
            pkt_interval: SimDuration::from_millis(250),
            horizon: SimDuration::from_secs(500),
            sample_every: SimDuration::from_secs(1),
            prefix: Prefix::new(Addr::new(10, 0, 0, 0), 24),
        }
    }

    /// The malicious flow fraction `qm` of this configuration.
    pub fn q_m(&self) -> f64 {
        self.malicious_flows as f64 / (self.malicious_flows + self.legit_flows) as f64
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct AttackSimResult {
    /// Malicious-occupied cell count, sampled every `sample_every`.
    pub series: TimeSeries,
    /// First time the malicious cell count reached the failure threshold.
    pub takeover_time: Option<f64>,
    /// Achieved mean legitimate-flow residency (the empirical `tR`).
    pub achieved_t_r: Option<f64>,
    /// Total packets processed.
    pub packets: u64,
    /// Selector event counts over the whole run (sampling, evictions,
    /// retransmissions) — the telemetry the harness aggregates across
    /// replicates.
    pub selector_stats: SelectorStats,
}

/// One flow's mutable state: its current 5-tuple, TCP sequence cursor,
/// and (for legitimate flows) when it dies and is replaced. Malicious
/// flows have `dies_at == None` — that is also how a restored run
/// reconstructs the malicious key set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowState {
    /// Current 5-tuple.
    pub key: FlowKey,
    /// Current TCP sequence number.
    pub seq: u32,
    /// Death (and instant replacement) time; `None` marks a malicious
    /// flow, which never dies.
    pub dies_at: Option<SimTime>,
}

/// The attack simulator, now an explicit state machine.
///
/// [`AttackSim::run`] preserves the original one-shot API (and its
/// exact per-seed output), but the simulation can also be driven one
/// packet event at a time via [`AttackSim::step`], hashed mid-run via
/// [`AttackSim::state_hash`], and checkpointed/resumed via
/// [`AttackSim::walk`] / [`AttackSim::from_bytes`] — the hooks the
/// `dui-replay` record/replay subsystem builds on.
pub struct AttackSim {
    cfg: AttackSimConfig,
    rng: Rng,
    selector: FlowSelector,
    flows: Vec<FlowState>,
    /// `flows[i]`'s selector cell, `None` until its next packet hashes its
    /// current key. Derived, like `malicious_keys`: not hashed, not in the
    /// checkpoint, and cold after `new`, `from_bytes` and every key replacement
    /// — filled lazily, because hashing every key in `new` would put 2,105
    /// digests into a replicate's set-up.
    flow_cells: Vec<Option<usize>>,
    malicious_keys: HashSet<FlowKey>,
    sport: u16,
    /// Pending per-flow packet clocks, ascending by `(time, flow index)`.
    schedule: VecDeque<(SimTime, usize)>,
    series: TimeSeries,
    next_sample: SimTime,
    takeover_time: Option<f64>,
    packets: u64,
    done: bool,
}

// Smallest encodings inside a fast-simulation checkpoint: a flow is a
// key, a sequence number and a flag; a schedule entry two varints; a
// series point two floats.
const MIN_FLOW_BYTES: usize = FlowKey::WIRE_BYTES + 1 + 1;
const MIN_SCHEDULE_BYTES: usize = 2;
const MIN_SERIES_BYTES: usize = 16;

impl AttackSim {
    /// The checkpoint encoder's sections, in order, each with the seed
    /// of its component digest.
    pub const SECTIONS: [(&'static str, StateDigest); 5] = [
        ("rng", StateDigest::labeled("rng")),
        ("selector", StateDigest::labeled("selector")),
        ("flows", StateDigest::labeled("flows")),
        ("schedule", StateDigest::labeled("schedule")),
        ("series", StateDigest::labeled("series")),
    ];

    /// Build a ready-to-step simulation (flow population, packet
    /// clocks, and phases are drawn here, in the exact order the
    /// original one-shot `run` used).
    pub fn new(cfg: &AttackSimConfig, seed: u64) -> Self {
        // A zero in either cadence never reaches the horizon: `step` would
        // re-schedule a flow at `t` itself, the sample loop would not advance.
        assert!(
            cfg.pkt_interval > SimDuration::ZERO,
            "AttackSimConfig::pkt_interval must be positive"
        );
        assert!(
            cfg.sample_every > SimDuration::ZERO,
            "AttackSimConfig::sample_every must be positive"
        );
        assert!(
            cfg.pkt_interval < cfg.params.eviction_timeout,
            "flows must beat the eviction timeout to stay monitored"
        );
        let mut rng = Rng::new(seed);
        let mut selector = FlowSelector::new(cfg.params);
        selector.record_residencies();

        let mut flows: Vec<FlowState> = Vec::with_capacity(cfg.legit_flows + cfg.malicious_flows);
        let mut malicious_keys: HashSet<FlowKey> = HashSet::new();
        let mut sport = 1024u16;
        for _ in 0..cfg.legit_flows {
            sport = sport.wrapping_add(1).max(1024);
            let key = random_key_in_prefix(cfg.prefix, &mut rng, sport);
            let life = dist::exponential(&mut rng, 1.0 / cfg.mean_lifetime_secs);
            flows.push(FlowState {
                key,
                seq: rng.next_u32(),
                dies_at: Some(SimTime::from_secs_f64(life)),
            });
        }
        for _ in 0..cfg.malicious_flows {
            sport = sport.wrapping_add(1).max(1024);
            let key = random_key_in_prefix(cfg.prefix, &mut rng, sport);
            malicious_keys.insert(key);
            flows.push(FlowState {
                key,
                seq: rng.next_u32(),
                dies_at: None,
            });
        }

        // Per-flow packet clocks, desynchronized by a random phase.
        let span = cfg.pkt_interval.as_nanos();
        let clocks: Vec<(SimTime, usize)> = (0..flows.len())
            .map(|i| (SimTime(rng.range_u64(0, span)), i))
            .collect();
        let schedule = order_clocks(&clocks, span).into();

        AttackSim {
            cfg: cfg.clone(),
            rng,
            selector,
            flow_cells: vec![None; flows.len()],
            flows,
            malicious_keys,
            sport,
            schedule,
            series: TimeSeries::new(),
            next_sample: SimTime::ZERO,
            takeover_time: None,
            packets: 0,
            done: false,
        }
    }

    fn emit_due_samples(&mut self, up_to: SimTime) {
        let threshold = self.cfg.params.threshold;
        while self.next_sample <= up_to {
            self.selector.apply_time(self.next_sample);
            let evil = self
                .selector
                .count_matching(|k| self.malicious_keys.contains(k));
            self.series
                .push(self.next_sample.as_secs_f64(), evil as f64);
            if self.takeover_time.is_none() && evil >= threshold {
                self.takeover_time = Some(self.next_sample.as_secs_f64());
            }
            self.next_sample += self.cfg.sample_every;
        }
    }

    /// Process the next packet event; returns its time, or `None` once
    /// the horizon is reached (at which point the remaining sample
    /// points have been flushed and the run is finished).
    pub fn step(&mut self) -> Option<SimTime> {
        if self.done {
            return None;
        }
        let Some((t, i)) = self.next_due() else {
            self.done = true;
            // Flush remaining sample points up to the horizon.
            self.emit_due_samples(SimTime::ZERO + self.cfg.horizon);
            return None;
        };
        self.schedule.pop_front();
        // Emit samples up to t.
        self.emit_due_samples(t);
        let cfg = &self.cfg;
        let rng = &mut self.rng;
        let flow = &mut self.flows[i];
        let cell = &mut self.flow_cells[i];
        // Death + instant replacement keeps the population fixed.
        if let Some(dies) = flow.dies_at {
            if t >= dies {
                self.sport = self.sport.wrapping_add(1).max(1024);
                flow.key = random_key_in_prefix(cfg.prefix, rng, self.sport);
                flow.seq = rng.next_u32();
                let life = dist::exponential(rng, 1.0 / cfg.mean_lifetime_secs);
                flow.dies_at = Some(t + SimDuration::from_secs_f64(life));
                *cell = None;
            }
        }
        flow.seq = flow.seq.wrapping_add(1460);
        let idx = *cell.get_or_insert_with(|| self.selector.index_of(&flow.key));
        self.selector
            .on_packet_in_cell(idx, t, flow.key, flow.seq, false);
        self.packets += 1;
        let next = (t + cfg.pkt_interval, i);
        debug_assert!(
            self.schedule.back().is_none_or(|&last| last <= next),
            "the ring stays ascending (module docs)"
        );
        self.schedule.push_back(next);
        Some(t)
    }

    /// Whether the run reached its horizon.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Configuration this run was built under.
    pub fn config(&self) -> &AttackSimConfig {
        &self.cfg
    }

    /// The run's flow selector.
    pub fn selector(&self) -> &FlowSelector {
        &self.selector
    }

    /// Packets processed so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Raw RNG state (exposed so divergence tests can inject controlled
    /// state corruption; see `dui-replay`'s self-test).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Overwrite the RNG state (the fault-injection hook paired with
    /// [`AttackSim::rng_state`]).
    pub fn set_rng_state(&mut self, s: [u64; 4]) {
        self.rng = Rng::from_state(s);
    }

    /// 64-bit digest of the run's complete logical state: the hash of
    /// its [walk](AttackSim::walk). The schedule is written in pop
    /// order, which the ring keeps sorted. The malicious key set and the
    /// per-flow cells are *not* written — they are derived state, fully
    /// determined by `flows` and the parameters.
    pub fn state_hash(&self) -> u64 {
        self.walk(false).hash
    }

    /// One walk over the checkpoint encoder, labelled `fastsim`: the
    /// section digests, the state hash and, if `bytes`, the checkpoint
    /// bytes [`AttackSim::from_bytes`] decodes. Everything but the
    /// configuration is written, which the restoring side supplies.
    pub fn walk(&self, bytes: bool) -> Walk {
        let w = bytes.then(|| Writer::with_capacity(256));
        wire::walk("fastsim", &Self::SECTIONS, w, |i, s| {
            self.encode_section(i, s)
        })
    }

    /// Section `i` of the checkpoint encoder, named in
    /// [`AttackSim::SECTIONS`]`[i]`. The last one ends with the takeover
    /// time, the packet count and the done flag.
    fn encode_section<E: Encoder>(&self, i: usize, e: &mut E) {
        match i {
            0 => self.rng.encode(e),
            1 => self.selector.encode(e),
            2 => {
                e.seq(&self.flows, |e, f| {
                    f.key.encode(e);
                    e.varint(u64::from(f.seq));
                    e.opt(f.dies_at, |e, t| e.varint(t.0));
                });
                e.varint(u64::from(self.sport));
            }
            3 => e.seq(&self.schedule, |e, &(t, flow)| {
                e.varint(t.0);
                e.varint_usize(flow);
            }),
            _ => {
                e.seq(self.series.points(), |e, &(t, v)| {
                    e.f64(t);
                    e.f64(v);
                });
                e.varint(self.next_sample.0);
                e.opt(self.takeover_time, E::f64);
                e.varint(self.packets);
                e.bool(self.done);
            }
        }
    }

    /// Rebuild a run from its checkpoint bytes plus its original
    /// configuration (strict: trailing bytes are an error). The run
    /// continues exactly where the checkpoint was taken; the malicious
    /// key set is rebuilt from the immortal (`dies_at == None`) flows.
    ///
    /// The bytes may come from a file, so nothing `step` relies on is
    /// trusted: a cell count or cadence that does not fit `cfg` is
    /// [`ErrorKind::Config`]; a schedule no run reaches (module docs) or
    /// series times that go backwards are [`ErrorKind::Invalid`].
    pub fn from_bytes(cfg: &AttackSimConfig, bytes: &[u8]) -> Result<AttackSim, DecodeError> {
        let mut r = Reader::new(bytes);
        // A zero cadence never reaches the horizon (`AttackSim::new`).
        if cfg.pkt_interval == SimDuration::ZERO || cfg.sample_every == SimDuration::ZERO {
            return Err(r.error("fastsim cadence", ErrorKind::Config));
        }
        let rng = Rng::decode(&mut r, "fastsim rng")?;
        let selector = FlowSelector::decode(cfg.params, &mut r)?;
        let flows = r.seq("flow count", Reader::varint, MIN_FLOW_BYTES, |r| {
            Ok(FlowState {
                key: FlowKey::decode(r)?,
                seq: r.varint_u32("flow seq")?,
                dies_at: r.opt("flow dies_at", Reader::varint_quantity)?.map(SimTime),
            })
        })?;
        let sport = r.varint_u16("sport cursor")?;
        let schedule = decode_schedule(&mut r, flows.len(), cfg.pkt_interval)?;
        // Points are pushed in time order, the next one at `next_sample`.
        let mut series = TimeSeries::new();
        let mut last = f64::NEG_INFINITY;
        for _ in 0..r.count("series length", Reader::varint, MIN_SERIES_BYTES)? {
            let (t, v) = (r.f64("series time")?, r.f64("series value")?);
            if t.is_nan() || t < last {
                return Err(r.error("series time", ErrorKind::Invalid));
            }
            last = t;
            series.push(t, v);
        }
        let next_sample = SimTime(r.varint_quantity("next sample time")?);
        if next_sample.as_secs_f64() < last {
            return Err(r.error("next sample time", ErrorKind::Invalid));
        }
        let takeover_time = r.opt("takeover time", Reader::f64)?;
        let packets = r.varint_quantity("packet count")?;
        let done = r.bool("done flag")?;
        r.finish("fastsim snapshot")?;
        Ok(AttackSim {
            cfg: cfg.clone(),
            rng,
            selector,
            flow_cells: vec![None; flows.len()],
            malicious_keys: (flows.iter().filter(|f| f.dies_at.is_none()))
                .map(|f| f.key)
                .collect(),
            flows,
            sport,
            schedule,
            series,
            next_sample,
            takeover_time,
            packets,
            done,
        })
    }

    /// Whether the run is over: the next [`AttackSim::step`] returns
    /// `None` (flushing the tail samples, if it has not yet).
    pub fn finished(&self) -> bool {
        self.done || self.next_due().is_none()
    }

    /// The earliest pending packet clock, within the horizon or past it.
    pub fn next_clock(&self) -> Option<SimTime> {
        self.schedule.front().map(|&(t, _)| t)
    }

    /// The next packet clock, if it falls within the horizon.
    /// Past-horizon clocks stay in the schedule: its contents feed the
    /// state digest.
    fn next_due(&self) -> Option<(SimTime, usize)> {
        let horizon = self.cfg.horizon.as_nanos();
        (self.schedule.front().copied()).filter(|&(t, _)| t.as_nanos() <= horizon)
    }

    /// Finish the run (stepping to the horizon if needed) and produce
    /// the result.
    pub fn into_result(mut self) -> AttackSimResult {
        while self.step().is_some() {}
        let cfg = &self.cfg;
        // Achieved tR: mean residency of *legitimate* occupancies. The
        // selector does not distinguish, so subtract malicious ones (which
        // only end at resets) by filtering durations shorter than the reset
        // interval.
        let legit_res: Vec<f64> = self
            .selector
            .residencies()
            .iter()
            .map(|d| d.as_secs_f64())
            .filter(|&d| d < cfg.params.reset_interval.as_secs_f64() * 0.9)
            .collect();
        let achieved_t_r = if legit_res.is_empty() {
            None
        } else {
            Some(legit_res.iter().sum::<f64>() / legit_res.len() as f64)
        };

        AttackSimResult {
            series: self.series,
            takeover_time: self.takeover_time,
            achieved_t_r,
            packets: self.packets,
            selector_stats: self.selector.stats,
        }
    }

    /// Run one seeded simulation to completion (the original API; the
    /// output is bit-identical to the pre-refactor implementation).
    pub fn run(cfg: &AttackSimConfig, seed: u64) -> AttackSimResult {
        Self::new(cfg, seed).into_result()
    }

    /// Run `runs` seeded simulations (seeds `base_seed..base_seed+runs`).
    pub fn run_many(cfg: &AttackSimConfig, base_seed: u64, runs: usize) -> Vec<AttackSimResult> {
        (0..runs)
            .map(|i| Self::run(cfg, base_seed + i as u64))
            .collect()
    }
}

/// The schedule section of a checkpoint holding `flows` flows, refused
/// unless a run can reach it (module docs): `flows` entries, one per flow,
/// strictly ascending, the last no later than `(first time + interval,
/// first flow)`.
fn decode_schedule(
    r: &mut Reader,
    flows: usize,
    interval: SimDuration,
) -> Result<VecDeque<(SimTime, usize)>, DecodeError> {
    if r.count("schedule length", Reader::varint, MIN_SCHEDULE_BYTES)? != flows {
        return Err(r.error("schedule length", ErrorKind::Invalid));
    }
    let mut scheduled = vec![false; flows];
    let mut schedule = VecDeque::with_capacity(flows);
    for _ in 0..flows {
        let entry = (
            SimTime(r.varint_quantity("schedule time")?),
            r.varint_usize("schedule flow index")?,
        );
        let ascends = schedule.back().is_none_or(|&prev| prev < entry);
        match scheduled.get_mut(entry.1) {
            Some(s) if ascends && !*s => *s = true,
            _ => return Err(r.error("schedule entry", ErrorKind::Invalid)),
        }
        schedule.push_back(entry);
    }
    if let (Some(&(t, flow)), Some(&last)) = (schedule.front(), schedule.back()) {
        let bound = t.0.checked_add(interval.0).map(|end| (SimTime(end), flow));
        if bound.is_none_or(|bound| last > bound) {
            return Err(r.error("schedule span", ErrorKind::Invalid));
        }
    }
    Ok(schedule)
}

/// `clocks` in `(time, flow index)` order — what `sort_unstable` returns —
/// for clocks that all lie below `span` and are roughly uniform over it
/// (the phases `AttackSim::new` draws).
///
/// One counting pass scatters the clocks over as many equal-width time
/// buckets as there are clocks; the bucket index is monotone in the time,
/// so bucket order is time order and only a bucket holding several clocks
/// is left to sort. For Fig. 2's 2,105 phases that is ≈ 20 µs, where the
/// heap pushes it replaces took ≈ 30 µs and one `sort_unstable` over all
/// of them ≈ 34 µs — `new` is the benchmark's whole set-up, so the
/// difference is a metric. Clocks that all land in one bucket cost that
/// one `sort_unstable`.
fn order_clocks(clocks: &[(SimTime, usize)], span: u64) -> Vec<(SimTime, usize)> {
    let n = clocks.len();
    let per_ns = n as f64 / span as f64;
    let bucket = |t: SimTime| ((t.0 as f64 * per_ns) as usize).min(n - 1);
    // `ends[b]`: where bucket `b` starts, then (as the scatter fills it)
    // where it ends.
    let mut ends = vec![0usize; n];
    for &(t, _) in clocks {
        ends[bucket(t)] += 1;
    }
    let mut start = 0;
    for e in &mut ends {
        start += std::mem::replace(e, start);
    }
    let mut ordered = clocks.to_vec();
    for &clock in clocks {
        let e = &mut ends[bucket(clock.0)];
        ordered[*e] = clock;
        *e += 1;
    }
    let mut start = 0;
    for end in ends {
        if end - start > 1 {
            ordered[start..end].sort_unstable();
        }
        start = end;
    }
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory::FixedKeysModel;

    fn small() -> AttackSimConfig {
        AttackSimConfig {
            legit_flows: 400,
            malicious_flows: 21, // qm ≈ 0.05
            horizon: SimDuration::from_secs(120),
            ..AttackSimConfig::fig2()
        }
    }

    /// Paper-scale population, shorter horizon to keep the test fast.
    fn paper_scale() -> AttackSimConfig {
        AttackSimConfig {
            horizon: SimDuration::from_secs(160),
            ..AttackSimConfig::fig2()
        }
    }

    #[test]
    fn monotone_and_bounded_series() {
        let res = AttackSim::run(&small(), 1);
        assert!(!res.series.is_empty());
        for &(_, v) in res.series.points() {
            assert!((0.0..=64.0).contains(&v));
        }
        assert!(res.packets > 100_000);
    }

    #[test]
    fn malicious_occupancy_grows() {
        let res = AttackSim::run(&small(), 2);
        let early = res.series.at(10.0).unwrap();
        let late = res.series.at(110.0).unwrap();
        assert!(
            late > early + 5.0,
            "takeover should progress: {early} -> {late}"
        );
    }

    #[test]
    fn no_malicious_flows_no_takeover() {
        let cfg = AttackSimConfig {
            malicious_flows: 0,
            ..small()
        };
        let res = AttackSim::run(&cfg, 3);
        assert_eq!(res.series.max_value(), Some(0.0));
        assert_eq!(res.takeover_time, None);
    }

    #[test]
    fn achieved_residency_near_target() {
        let res = AttackSim::run(&small(), 4);
        let tr = res.achieved_t_r.expect("residencies recorded");
        // target: mean lifetime 6.37 + up to 2 s eviction lag ≈ 8.4
        assert!(
            (6.0..11.5).contains(&tr),
            "achieved tR = {tr}, expected ≈ 8.4"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = AttackSim::run(&small(), 7);
        let b = AttackSim::run(&small(), 7);
        assert_eq!(a.series, b.series);
        assert_eq!(a.takeover_time, b.takeover_time);
    }

    #[test]
    fn seeds_differ() {
        let a = AttackSim::run(&small(), 1);
        let b = AttackSim::run(&small(), 2);
        assert_ne!(a.series, b.series);
    }

    #[test]
    fn simulation_tracks_fixed_keys_theory() {
        // The central scientific check: at paper scale (2000 + 105 flows)
        // the simulated malicious occupancy must track the fixed-keys
        // model's mean within a few cells, using the *achieved* residency.
        let cfg = paper_scale();
        let res = AttackSim::run(&cfg, 11);
        let model = FixedKeysModel {
            cells: cfg.params.cells as u32,
            threshold: cfg.params.threshold as u32,
            t_r: res.achieved_t_r.unwrap(),
            t_b: cfg.params.reset_interval.as_secs_f64(),
            malicious_flows: cfg.malicious_flows as u32,
            legit_concurrent: cfg.legit_flows as f64,
            rate_ratio: 1.0,
        };
        for t in [40.0, 80.0, 120.0, 155.0] {
            let v = res.series.at(t).unwrap();
            let m = model.mean(t);
            assert!(
                (v - m).abs() <= 8.0,
                "t={t}: sim {v} vs fixed-keys mean {m:.1} (tR={:.2})",
                model.t_r
            );
        }
    }

    #[test]
    fn stepped_run_matches_one_shot() {
        let cfg = small();
        let mut sim = AttackSim::new(&cfg, 7);
        while sim.step().is_some() {}
        let stepped = sim.into_result();
        let oneshot = AttackSim::run(&cfg, 7);
        assert_eq!(stepped.series, oneshot.series);
        assert_eq!(stepped.packets, oneshot.packets);
        assert_eq!(stepped.takeover_time, oneshot.takeover_time);
        assert_eq!(stepped.selector_stats, oneshot.selector_stats);
    }

    fn checkpoint(sim: &AttackSim) -> Vec<u8> {
        sim.walk(true).bytes.expect("nothing refuses").into_bytes()
    }

    /// At every point checked, the checkpoint decodes to a run that walks
    /// exactly as the original — bytes, sections and hash, over a split
    /// ring too — and `finished` foretells the step that ends the run.
    #[test]
    fn a_checkpoint_decodes_to_a_run_that_walks_alike() {
        let cfg = small();
        let mut sim = AttackSim::new(&cfg, 3);
        let (mut checked, mut split) = (0, 0);
        for n in 0u64.. {
            if n % 997 == 0 || sim.finished() {
                let back = AttackSim::from_bytes(&cfg, &checkpoint(&sim)).expect("own bytes");
                assert_eq!(back.walk(true), sim.walk(true), "event {n}");
                assert_eq!(back.state_hash(), sim.state_hash(), "event {n}");
                checked += 1;
                split += usize::from(!sim.schedule.as_slices().1.is_empty());
            }
            let finished = sim.finished();
            assert_eq!(sim.step().is_none(), finished, "event {n}");
            if finished {
                break;
            }
        }
        assert!(sim.finished());
        let back = AttackSim::from_bytes(&cfg, &checkpoint(&sim)).expect("own bytes");
        assert_eq!(back.walk(true), sim.walk(true), "after the run");
        assert!(
            checked > 10 && split > 0,
            "{checked} points, {split} with a split ring"
        );
    }

    #[test]
    fn a_decoded_checkpoint_resumes_identically() {
        let cfg = small();
        let mut sim = AttackSim::new(&cfg, 5);
        for _ in 0..20_000 {
            sim.step();
        }
        let resumed = AttackSim::from_bytes(&cfg, &checkpoint(&sim)).expect("own bytes");
        assert_eq!(sim.state_hash(), resumed.state_hash());
        let a = sim.into_result();
        let b = resumed.into_result();
        assert_eq!(a.series, b.series);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.achieved_t_r, b.achieved_t_r);
        assert_eq!(a.selector_stats, b.selector_stats);
    }

    #[test]
    fn state_hash_tracks_progress_and_seed() {
        let cfg = small();
        let mut a = AttackSim::new(&cfg, 1);
        let mut b = AttackSim::new(&cfg, 1);
        assert_eq!(a.state_hash(), b.state_hash());
        a.step();
        assert_ne!(a.state_hash(), b.state_hash(), "stepping changes state");
        b.step();
        assert_eq!(a.state_hash(), b.state_hash(), "lockstep runs agree");
        let c = AttackSim::new(&cfg, 2);
        assert_ne!(a.state_hash(), c.state_hash(), "seeds differ");
    }

    #[test]
    #[should_panic(expected = "pkt_interval must be positive")]
    fn zero_pkt_interval_is_refused() {
        // `step` would re-schedule every flow at `t` itself, forever.
        AttackSim::new(
            &AttackSimConfig {
                pkt_interval: SimDuration::ZERO,
                ..small()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "sample_every must be positive")]
    fn zero_sample_every_is_refused() {
        // The sample loop would push points without advancing, until the
        // allocator gives up.
        AttackSim::new(
            &AttackSimConfig {
                sample_every: SimDuration::ZERO,
                ..small()
            },
            1,
        );
    }

    #[test]
    fn from_bytes_refuses_a_zero_cadence() {
        let bytes = checkpoint(&AttackSim::new(&small(), 1));
        for cfg in [
            AttackSimConfig {
                pkt_interval: SimDuration::ZERO,
                ..small()
            },
            AttackSimConfig {
                sample_every: SimDuration::ZERO,
                ..small()
            },
        ] {
            let err = AttackSim::from_bytes(&cfg, &bytes).err().expect("refused");
            assert_eq!(err.kind, ErrorKind::Config);
        }
        assert!(AttackSim::from_bytes(&small(), &bytes).is_ok());
    }

    dui_stats::prop_check! {
        fn order_clocks_is_sort_unstable(g) {
            // Incl. no, one and two clocks, a one-nanosecond span, all
            // phases equal, all phases in the first bucket, and phases so
            // close under a span past 2^53 that they round up to it.
            let span = match g.u8(0..4) {
                0 => 1,
                1 => g.u64(1..40),
                2 => g.u64(1..1 << 40),
                _ => u64::MAX - g.u64(0..1 << 20),
            };
            let below = match g.u8(0..3) {
                0 => 1,
                1 => g.u64(0..span) + 1,
                _ => span,
            };
            let clocks: Vec<(SimTime, usize)> = g
                .vec(0..40, |g| {
                    let down = g.u64(0..below.min(3));
                    SimTime(if g.bool() { g.u64(0..below) } else { below - 1 - down })
                })
                .into_iter()
                .enumerate()
                .map(|(i, t)| (t, i))
                .collect();
            let mut sorted = clocks.clone();
            sorted.sort_unstable();
            dui_stats::prop_assert_eq!(order_clocks(&clocks, span), sorted);
        }
    }

    #[test]
    fn one_bucket_of_clocks_orders_without_a_cliff() {
        // 10^5 clocks that all land in the first bucket: one sort, a few
        // milliseconds; an insertion pass over them takes seconds. On a
        // spawned thread behind `recv_timeout`, so "under a second" is a
        // failure, not a slow suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut rng = Rng::new(3);
            let clocks: Vec<(SimTime, usize)> = (0..100_000)
                .map(|i| (SimTime(rng.range_u64(0, 1000)), i))
                .collect();
            let ordered = order_clocks(&clocks, 1 << 40);
            assert!(ordered.is_sorted());
            let _ = tx.send(());
        });
        let done = rx.recv_timeout(std::time::Duration::from_secs(1));
        if done == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
            panic!("10^5 clocks in one bucket took over a second to order");
        }
        worker.join().expect("ordered");
    }

    #[test]
    fn small_malicious_set_saturates_below_threshold() {
        // 21 fixed 5-tuples can cover at most ~18 cells: takeover is
        // structurally impossible — a realism property the iid formula
        // misses entirely.
        let res = AttackSim::run(&small(), 11);
        assert!(res.series.max_value().unwrap() < 21.0);
        assert_eq!(res.takeover_time, None);
    }
}
