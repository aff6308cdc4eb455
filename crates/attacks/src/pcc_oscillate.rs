//! The §4.2 PCC oscillation attack: a MitM tap that tracks a PCC flow's
//! sending rate, infers its monitor-interval experiments, and drops just
//! enough packets during above-baseline (`+ε`) phases that the sender
//! "sees the same utility with both larger and smaller rates". PCC then
//! escalates ε to its 5% cap and oscillates forever.
//!
//! Knowledge assumptions match the paper (Kerckhoff): the attacker knows
//! PCC's utility function and ε schedule, and can estimate monitor
//! intervals from packet timing on the wire; it cannot read sender state.

use crate::privilege::{AttackDescriptor, Privilege, Target};
use dui_netsim::link::{Dir, LinkTap, TapAction};
use dui_netsim::packet::{FlowKey, Packet};
use dui_netsim::time::{SimDuration, SimTime};
use dui_pcc::utility::{allegro_utility, UtilityParams};
use std::collections::VecDeque;

/// Descriptor for the attack.
pub fn descriptor() -> AttackDescriptor {
    AttackDescriptor {
        name: "pcc-oscillate",
        section: "§4.2",
        privilege: Privilege::Mitm,
        target: Target::Endpoints,
        summary: "selective drops equalize PCC's A/B utilities, pinning rates at ±5% oscillation",
    }
}

/// The equalizer tap.
pub struct PccEqualizerTap {
    /// Flow under attack (forward = data direction).
    key: FlowKey,
    utility: UtilityParams,
    /// Recent packet (time, size) observations for instantaneous rate.
    window: VecDeque<(SimTime, u32)>,
    /// Rate-estimation window length (should be ≲ one monitor interval).
    window_len: SimDuration,
    /// Rolling samples of the short-window rate; the baseline estimate is
    /// their median — robust to the ±ε trial excursions (which are
    /// symmetric around the base rate) and self-centering as the victim
    /// drifts.
    rate_samples: VecDeque<(SimTime, f64)>,
    /// The rates of `rate_samples` in `total_cmp` order, kept in step with
    /// it (one binary search per sample entering or leaving), so that the
    /// median `baseline()` reads once or twice per packet is an index, not
    /// a sort of the window.
    sorted_rates: Vec<f64>,
    /// Span of the rolling median.
    median_span: SimDuration,
    /// Observation period: the tap watches silently for this long (letting
    /// the victim converge), then freezes its baseline estimate and starts
    /// dropping — pinning the victim oscillating ±5% around the locked
    /// rate, per §4.2.
    arm_after: SimDuration,
    first_seen: Option<SimTime>,
    armed: bool,
    /// Pin the victim to this rate (bytes/s) instead of the learned
    /// baseline. The paper's endgame: "not only is PCC's logic neutralized
    /// … it is effectively a tool for the attacker" — the victim converges
    /// to whatever rate the attacker chose and oscillates ±5% around it.
    pub pin_to: Option<f64>,
    /// Coherent modulation of the pin target: `(fraction, period)` — the
    /// target alternates ±fraction every half period. Applied identically
    /// across flows, this synchronizes their swings and produces the
    /// "sizable traffic fluctuations at the destination" of §4.2.
    pub sway: Option<(f64, SimDuration)>,
    /// Error-diffusion accumulator: drops are spaced deterministically so
    /// each monitor interval sees almost exactly the intended loss
    /// fraction (per-packet coin flips would let the victim escape on
    /// measurement noise).
    drop_debt: f64,
    /// Packets dropped so far.
    pub dropped: u64,
    /// Packets observed so far.
    pub observed: u64,
}

impl PccEqualizerTap {
    /// Attack `key` (data direction). `window_len` should be at or below
    /// the victim's monitor-interval length (estimable from the RTT, per
    /// the paper).
    pub fn new(key: FlowKey, window_len: SimDuration, seed: u64) -> Self {
        Self::with_arm_delay(key, window_len, SimDuration::from_secs(10), seed)
    }

    /// Like [`PccEqualizerTap::new`] with an explicit observe-then-attack
    /// delay.
    pub fn with_arm_delay(
        key: FlowKey,
        window_len: SimDuration,
        arm_after: SimDuration,
        seed: u64,
    ) -> Self {
        PccEqualizerTap {
            key,
            utility: UtilityParams::default(),
            window: VecDeque::new(),
            window_len,
            rate_samples: VecDeque::new(),
            sorted_rates: Vec::new(),
            median_span: SimDuration::from_millis(600),
            arm_after,
            first_seen: None,
            armed: false,
            pin_to: None,
            sway: None,
            // Seed kept for API stability: drop spacing is deterministic,
            // but the debt starts at a seed-derived phase so parallel taps
            // do not drop in lockstep.
            drop_debt: (seed % 97) as f64 / 97.0,
            dropped: 0,
            observed: 0,
        }
    }

    /// Current baseline rate estimate (bytes/s): the rolling median of
    /// short-window rates.
    pub fn baseline(&self) -> f64 {
        let mid = self.sorted_rates.len() / 2;
        self.sorted_rates.get(mid).copied().unwrap_or(0.0)
    }

    fn record_rate_sample(&mut self, now: SimTime, rate: f64) {
        // At most one sample per 5 ms keeps the median cheap.
        if let Some(&(t, _)) = self.rate_samples.back() {
            if now.since(t) < SimDuration::from_millis(5) {
                return;
            }
        }
        // Rates equal under `total_cmp` are the same bits, so which of
        // them a search lands on does not matter.
        let rank = |sorted: &[f64], r: f64| sorted.partition_point(|s| s.total_cmp(&r).is_lt());
        self.rate_samples.push_back((now, rate));
        self.sorted_rates.insert(rank(&self.sorted_rates, rate), rate);
        while let Some(&(t, old)) = self.rate_samples.front() {
            if now.since(t) > self.median_span {
                self.rate_samples.pop_front();
                self.sorted_rates.remove(rank(&self.sorted_rates, old));
            } else {
                break;
            }
        }
    }

    /// The rate the attacker is herding the victim toward at time `now`.
    fn target(&self, now: SimTime) -> f64 {
        let base = self.pin_to.unwrap_or_else(|| self.baseline());
        match self.sway {
            Some((frac, period)) if period > SimDuration::ZERO => {
                let phase = (now.as_nanos() / (period.as_nanos().max(1) / 2)) % 2;
                if phase == 0 {
                    base * (1.0 + frac)
                } else {
                    base * (1.0 - frac)
                }
            }
            _ => base,
        }
    }

    fn instantaneous_rate(&self, now: SimTime) -> f64 {
        // K packets span K-1 inter-arrival gaps: exclude the oldest
        // packet's bytes so the estimate is unbiased for paced traffic.
        let Some(&(t0, first_size)) = self.window.front() else {
            return 0.0;
        };
        let span = now.since(t0).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let bytes: u64 = self.window.iter().map(|&(_, s)| s as u64).sum();
        (bytes - first_size as u64) as f64 / span
    }

    /// Drop probability for a packet observed at instantaneous `rate`.
    ///
    /// Two modes:
    ///
    /// * **Mirror equalizer** (`pin_to = None`) — the paper's §4.2 attack
    ///   verbatim: only above-baseline (`+ε`) phases are touched, dropped
    ///   just enough that their utility equals the *mirrored* low trial
    ///   `u(2·r* − rate)`. Each A/B pair ties, decisions stay
    ///   inconclusive, ε escalates to 5% and the victim oscillates around
    ///   `r*` forever. Loss appears **only** in `+ε` phases — exactly the
    ///   signature the §5 loss-pattern monitor looks for.
    /// * **Drag-to-target** (`pin_to = Some(target)`) — our extension: a
    ///   descending utility gradient above the target herds the victim to
    ///   an attacker-chosen rate (and the sway option modulates that
    ///   target to create destination-level fluctuations).
    fn drop_probability(&self, rate: f64, now: SimTime) -> f64 {
        match self.pin_to {
            None => self.mirror_drop(rate),
            Some(_) => self.drag_drop(rate, self.target(now)),
        }
    }

    fn mirror_drop(&self, rate: f64) -> f64 {
        let base = self.baseline();
        if base <= 0.0 || rate <= base * 1.005 {
            return 0.0; // at/below baseline: leave untouched
        }
        // Mirror the trial: a +ε phase is made to look exactly like the
        // matching −ε phase.
        let mirror = (2.0 * base - rate).max(0.5 * base);
        let u_target = allegro_utility(mirror / 125_000.0, 0.0, &self.utility);
        self.bisect_drop(rate, u_target)
    }

    /// Sub-knee penalty applied to above-base intervals while herding the
    /// victim downward. Dropping *below* the utility knee keeps per-MI
    /// loss-quantization noise small relative to the induced utility gap
    /// (on the knee's cliff, α·σ' amplifies ±1-packet noise past any
    /// signal, and decisions turn incoherent).
    const DRAG_PENALTY: f64 = 0.035;

    fn drag_drop(&self, rate: f64, target: f64) -> f64 {
        let base = self.baseline();
        if base <= 0.0 {
            return 0.0;
        }
        if base > target * 1.05 {
            // Descent phase: make every above-base trial lose decisively
            // (but stay below the 5% loss knee), so "down" wins each
            // experiment and the victim steps toward the target.
            if rate > base * 1.002 {
                Self::DRAG_PENALTY
            } else {
                0.0
            }
        } else {
            // Hold phase: equalize A/B pairs around the target — the
            // victim oscillates ±ε_max there, per §4.2.
            let mirror = (2.0 * target - rate).max(0.5 * target);
            if rate <= target * 1.005 {
                return 0.0;
            }
            let u_target = allegro_utility(mirror / 125_000.0, 0.0, &self.utility);
            self.bisect_drop(rate, u_target)
        }
    }

    fn bisect_drop(&self, rate: f64, u_target: f64) -> f64 {
        let x = rate / 125_000.0;
        if allegro_utility(x, 0.0, &self.utility) <= u_target {
            return 0.0;
        }
        let (mut lo, mut hi) = (0.0f64, 0.5f64);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if allegro_utility(x, mid, &self.utility) > u_target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

impl PccEqualizerTap {
    /// Equalizing drop probability against the learned baseline (test
    /// convenience; mirror mode).
    pub fn equalizing_drop(&self, rate: f64) -> f64 {
        self.mirror_drop(rate)
    }
}

impl LinkTap for PccEqualizerTap {
    fn intercept(
        &mut self,
        now: SimTime,
        _dir: Dir,
        pkt: &mut Packet,
        _inject: &mut Vec<Packet>,
    ) -> TapAction {
        if pkt.key != self.key || pkt.payload == 0 {
            return TapAction::Forward;
        }
        self.observed += 1;
        if self.first_seen.is_none() {
            self.first_seen = Some(now);
        }
        if !self.armed {
            if let Some(t0) = self.first_seen {
                if now.since(t0) >= self.arm_after {
                    self.armed = true;
                }
            }
        }
        self.window.push_back((now, pkt.size));
        while let Some(&(t0, _)) = self.window.front() {
            if now.since(t0) > self.window_len {
                self.window.pop_front();
            } else {
                break;
            }
        }
        let rate = self.instantaneous_rate(now);
        self.record_rate_sample(now, rate);
        if !self.armed {
            return TapAction::Forward; // passive phase: learn, never drop
        }
        let p = self.drop_probability(rate, now);
        self.drop_debt += p;
        if self.drop_debt >= 1.0 {
            self.drop_debt -= 1.0;
            self.dropped += 1;
            TapAction::Drop
        } else {
            TapAction::Forward
        }
    }

    fn label(&self) -> &str {
        "pcc-equalizer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::packet::{Addr, TcpFlags};

    fn key() -> FlowKey {
        FlowKey::tcp(Addr::new(10, 0, 0, 1), 5001, Addr::new(10, 0, 0, 2), 5001)
    }

    fn feed(tap: &mut PccEqualizerTap, start_ms: u64, rate_bps: f64, dur_ms: u64) -> (u64, u64) {
        // Feed packets at `rate_bps` bytes/s for `dur_ms`.
        let size = 1040u32;
        let gap_ns = (size as f64 / rate_bps * 1e9) as u64;
        let mut t = start_ms * 1_000_000;
        let mut fwd = 0;
        let mut drop = 0;
        while t < (start_ms + dur_ms) * 1_000_000 {
            let mut p = Packet::tcp(key(), 1, 0, TcpFlags::default(), 1000);
            match tap.intercept(SimTime(t), Dir::AtoB, &mut p, &mut Vec::new()) {
                TapAction::Forward => fwd += 1,
                TapAction::Drop => drop += 1,
                _ => {}
            }
            t += gap_ns;
        }
        (fwd, drop)
    }

    #[test]
    fn ignores_other_flows() {
        let mut tap = PccEqualizerTap::new(key(), SimDuration::from_millis(25), 1);
        let other = FlowKey::tcp(Addr::new(9, 9, 9, 9), 1, Addr::new(8, 8, 8, 8), 2);
        let mut p = Packet::tcp(other, 1, 0, TcpFlags::default(), 1000);
        assert_eq!(
            tap.intercept(SimTime(0), Dir::AtoB, &mut p, &mut Vec::new()),
            TapAction::Forward
        );
        assert_eq!(tap.observed, 0);
    }

    #[test]
    fn learns_baseline_from_steady_traffic() {
        let mut tap = PccEqualizerTap::new(key(), SimDuration::from_millis(25), 2);
        feed(&mut tap, 0, 250_000.0, 2000);
        let b = tap.baseline();
        assert!((b - 250_000.0).abs() / 250_000.0 < 0.15, "baseline = {b}");
    }

    #[test]
    fn drops_above_baseline_spares_below() {
        let mut tap = PccEqualizerTap::with_arm_delay(
            key(),
            SimDuration::from_millis(25),
            SimDuration::from_secs(4),
            3,
        );
        // Learn a baseline at 250 kB/s (tap arms after 4 s).
        feed(&mut tap, 0, 250_000.0, 5000);
        // A +5% phase gets dropped on...
        let (_, dropped_high) = feed(&mut tap, 5000, 262_500.0, 1000);
        // ...then re-anchor the baseline and run a −5% phase: spared.
        feed(&mut tap, 6000, 250_000.0, 2000);
        let (_, dropped_low) = feed(&mut tap, 8000, 237_500.0, 1000);
        assert!(
            dropped_high > 0,
            "high phase must be attacked: {dropped_high}"
        );
        assert_eq!(dropped_low, 0, "low phase must be left alone");
    }

    dui_stats::prop_check! {
        fn baseline_is_the_median_of_the_live_samples(g) {
            // Bursts inside the 5 ms sampling floor, gaps past the 600 ms
            // span, sizes that move the rate: after every packet the
            // cached median is what sorting the window would give.
            let mut tap = PccEqualizerTap::new(key(), SimDuration::from_millis(25), g.any_u64());
            dui_stats::prop_assert_eq!(tap.baseline(), 0.0);
            let mut now = 0u64;
            for _ in 0..g.usize(0..300) {
                now += match g.u8(0..8) {
                    0 => g.u64(0..1_000_000_000),
                    1 => 0,
                    _ => g.u64(0..12_000_000),
                };
                let mut p = Packet::tcp(key(), 1, 0, TcpFlags::default(), g.u32(1..1461));
                tap.intercept(SimTime(now), Dir::AtoB, &mut p, &mut Vec::new());
                let mut v: Vec<f64> = tap.rate_samples.iter().map(|&(_, r)| r).collect();
                v.sort_by(f64::total_cmp);
                dui_stats::prop_assert_eq!(tap.baseline().to_bits(), v[v.len() / 2].to_bits());
            }
        }
    }

    #[test]
    fn equalizing_drop_is_moderate() {
        let mut tap = PccEqualizerTap::new(key(), SimDuration::from_millis(25), 4);
        feed(&mut tap, 0, 250_000.0, 3000);
        let p = tap.equalizing_drop(262_500.0);
        // Somewhere between 0 and ~2*eps_max + knee slack.
        assert!(p > 0.0 && p < 0.12, "p = {p}");
    }
}
