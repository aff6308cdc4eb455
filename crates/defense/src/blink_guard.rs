//! The Blink countermeasure of §5: check that a retransmission surge's
//! *timing* is plausible before rerouting.
//!
//! On a real path failure, each flow's first retransmission arrives one
//! retransmission timeout after its last delivered segment, so the gap
//! between a monitored flow's previous packet and its retransmission is
//! an RTO. Every `TcpHost` flow uses `RttEstimator::default()`, whose RTO
//! has RFC 6298's 1 s floor: the 1 s initial RTO for fresh flows,
//! `max(1 s, srtt + 4·rttvar)` for established ones. An attacker forging
//! retransmissions on its own schedule produces gaps that match its
//! keep-alive cadence instead.
//!
//! The band of plausible gaps is fixed, not learned: `MIN_PLAUSIBLE_GAP`
//! = 500 ms to `MAX_PLAUSIBLE_GAP` = 8 s. When the detector fires, the
//! guard computes the fraction of the retransmitting monitored flows
//! whose last retransmission gap falls inside the band, and vetoes the
//! reroute when it is below `MIN_PLAUSIBLE_FRACTION` = 0.6. So an
//! attacker that paces its fakes at gaps of 1 s or more passes.
//!
//! On a default selector the effective band is 500 ms to 2 s.
//! `FlowSelector::apply_time` evicts a flow that has been silent for
//! `BlinkParams::default()`'s 2 s `eviction_timeout` before its next
//! packet is processed, so `last_retx_gap` is always under 2 s and
//! `MAX_PLAUSIBLE_GAP` never decides. An RTO-backed-off flow's second
//! retransmission, 2 s after its first, arrives as a new flow.
//!
//! The paper's suggestion is stronger: monitor the RTT distribution of
//! the flows and approximate the expected RTO distribution on a
//! failure, so that "manipulating Blink would then require an attacker
//! to know the RTT distribution of the legitimate flows forwarded by
//! the Blink router". This guard does not monitor RTTs.

use crate::supervisor::Risk;
use dui_blink::program::RerouteGuard;
use dui_blink::selector::FlowSelector;
use dui_netsim::time::{SimDuration, SimTime};

/// Gaps at or above this count as plausible RTOs (conservative floor:
/// modern stacks never time out faster).
const MIN_PLAUSIBLE_GAP: SimDuration = SimDuration::from_millis(500);
/// Gaps above this are *also* implausible (no sane RTO exceeds it during
/// an outage of interest).
const MAX_PLAUSIBLE_GAP: SimDuration = SimDuration::from_secs(8);
/// Minimum fraction of retransmitting flows with plausible gaps for a
/// reroute to pass.
const MIN_PLAUSIBLE_FRACTION: f64 = 0.6;

/// RTO-plausibility reroute guard.
#[derive(Default)]
pub struct BlinkRtoGuard {
    /// Decisions assessed.
    pub assessed: u64,
    /// Last computed risk.
    pub last_risk: Risk,
}

impl BlinkRtoGuard {
    /// Fraction of currently-retransmitting monitored flows whose
    /// retransmission gap is RTO-plausible.
    fn plausible_fraction(&self, now: SimTime, selector: &FlowSelector) -> f64 {
        let window = selector.params().retx_window;
        let mut retransmitting = 0u32;
        let mut plausible = 0u32;
        for cell in selector.cells().iter().flatten() {
            let Some(t) = cell.last_retx else { continue };
            if now.since(t) > window {
                continue;
            }
            retransmitting += 1;
            if let Some(gap) = cell.last_retx_gap {
                if (MIN_PLAUSIBLE_GAP..=MAX_PLAUSIBLE_GAP).contains(&gap) {
                    plausible += 1;
                }
            }
        }
        if retransmitting == 0 {
            return 1.0;
        }
        plausible as f64 / retransmitting as f64
    }
}

impl RerouteGuard for BlinkRtoGuard {
    fn allow(&mut self, now: SimTime, selector: &FlowSelector) -> bool {
        self.assessed += 1;
        let frac = self.plausible_fraction(now, selector);
        self.last_risk = Risk::clamped(1.0 - frac);
        frac >= MIN_PLAUSIBLE_FRACTION
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_blink::selector::{BlinkParams, Observation};
    use dui_netsim::packet::{Addr, FlowKey};

    fn key(i: u16) -> FlowKey {
        FlowKey::tcp(Addr::new(198, 18, 0, 1), i, Addr::new(10, 0, 0, 5), 80)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Populate a selector with one monitored flow per entry of `gaps_ms`,
    /// and have each retransmit at the same instant, that flow's gap after
    /// its previous segment. Returns the selector and the instant. The
    /// selector neither evicts nor resets a flow within the storm, so every
    /// gap reaches the guard: the default 2 s eviction timeout would drop a
    /// flow silent for longer before it retransmits.
    fn storm(gaps_ms: &[u64]) -> (FlowSelector, SimTime) {
        let mut s = FlowSelector::new(BlinkParams {
            eviction_timeout: SimDuration::from_secs(60),
            reset_interval: SimDuration::from_secs(60),
            ..BlinkParams::default()
        });
        let mut monitored = Vec::new();
        let mut i = 0u16;
        while monitored.len() < gaps_ms.len() && i < 5000 {
            i += 1;
            if s.on_packet(t(0), key(i), 100, false) == Observation::Sampled {
                monitored.push(key(i));
            }
        }
        assert_eq!(monitored.len(), gaps_ms.len(), "enough flows sampled");
        let now = t(20_000);
        for (k, &gap) in monitored.iter().zip(gaps_ms) {
            s.on_packet(t(20_000 - gap), *k, 200, false);
            s.on_packet(now, *k, 200, false);
        }
        (s, now)
    }

    #[test]
    fn genuine_rto_storm_passes() {
        // Real failure: flows retransmit after ~1 s (initial RTO).
        let (s, now) = storm(&[1000; 48]);
        let mut g = BlinkRtoGuard::default();
        assert!(g.allow(now, &s), "RTO-consistent storm must pass");
        assert!(g.last_risk.0 < 0.4);
    }

    #[test]
    fn fast_fake_storm_vetoed() {
        // Attacker retransmits 250 ms after the previous packet — its
        // keep-alive cadence, well under the 1 s RFC 6298 RTO floor.
        let (s, now) = storm(&[250; 48]);
        let mut g = BlinkRtoGuard::default();
        assert!(!g.allow(now, &s), "sub-RTO gaps are implausible");
        assert!(g.last_risk.0 > 0.6);
    }

    #[test]
    fn empty_selector_is_benign() {
        let s = FlowSelector::new(BlinkParams::default());
        let g = BlinkRtoGuard::default();
        assert_eq!(g.plausible_fraction(t(0), &s), 1.0);
    }

    /// The band is the fixed 500 ms – 8 s, inclusive, whatever the flows'
    /// RTTs: 1 s and 8 s gaps pass, 250 ms and just over 8 s do not.
    #[test]
    fn the_plausible_band_is_fixed_at_half_a_second_to_eight_seconds() {
        let g = BlinkRtoGuard::default();
        for (gap_ms, plausible) in [
            (250, false),
            (499, false),
            (500, true),
            (1000, true),
            (8000, true),
            (8001, false),
        ] {
            let (s, now) = storm(&[gap_ms; 48]);
            let want = if plausible { 1.0 } else { 0.0 };
            assert_eq!(g.plausible_fraction(now, &s), want, "{gap_ms} ms");
        }
    }

    /// On `BlinkParams::default()` the band's upper end never decides.
    /// `FlowSelector::apply_time` evicts a flow that has been silent for
    /// the 2 s eviction timeout before its next packet is processed, so a
    /// retransmission 2.5 s after the flow's last segment arrives as a new
    /// flow, and no gap is recorded; 1.5 s still is.
    #[test]
    fn a_default_selector_records_no_retransmission_gap_of_two_seconds() {
        for (gap_ms, recorded) in [(1500, true), (2500, false)] {
            let mut s = FlowSelector::new(BlinkParams::default());
            let mut monitored = Vec::new();
            for i in 1..=300 {
                if s.on_packet(t(0), key(i), 100, false) == Observation::Sampled {
                    monitored.push(key(i));
                }
            }
            for &k in &monitored {
                s.on_packet(t(1000), k, 200, false);
            }
            let now = t(1000 + gap_ms);
            for &k in &monitored {
                s.on_packet(now, k, 200, false);
            }
            let gaps: Vec<_> = s
                .cells()
                .iter()
                .flatten()
                .map(|c| c.last_retx_gap)
                .collect();
            assert!(!gaps.is_empty());
            let want = recorded.then_some(SimDuration::from_millis(gap_ms));
            assert!(gaps.iter().all(|&g| g == want), "{gap_ms} ms: {gaps:?}");
        }
    }

    /// A reroute passes when at least 0.6 of the retransmitting flows'
    /// gaps are plausible: 24 of 40 pass, 23 of 40 do not.
    #[test]
    fn a_reroute_needs_three_fifths_of_the_gaps_plausible() {
        assert_eq!(MIN_PLAUSIBLE_FRACTION, 0.6);
        let gaps = |plausible: usize| -> Vec<u64> {
            (0..40)
                .map(|n| if n < plausible { 1000 } else { 250 })
                .collect()
        };
        let mut g = BlinkRtoGuard::default();
        let (s, now) = storm(&gaps(24));
        assert!(g.allow(now, &s), "24 of 40 plausible");
        let (s, now) = storm(&gaps(23));
        assert!(!g.allow(now, &s), "23 of 40 plausible");
    }

    #[test]
    fn guard_integrates_with_blink_program() {
        use dui_blink::program::BlinkProgram;
        use dui_netsim::node::DataPlaneProgram;
        use dui_netsim::packet::{Packet, Prefix, TcpFlags};
        use dui_netsim::topology::NodeId;

        let prefix = Prefix::new(Addr::new(10, 0, 0, 0), 16);
        let mk = |i: u16, seq: u32| Packet::tcp(key(i), seq, 0, TcpFlags::default(), 1000);
        let run = |attack_gap_ms: u64| {
            let mut p = BlinkProgram::default().with_guard(Box::new(BlinkRtoGuard::default()));
            p.monitor_prefix(prefix, vec![NodeId(1), NodeId(2)]);
            for i in 0..300u16 {
                let _ = p.process(t(0), &mk(i, 100), Some(NodeId(1)));
            }
            for i in 0..300u16 {
                let _ = p.process(t(1000), &mk(i, 200), Some(NodeId(1)));
            }
            for i in 0..300u16 {
                let _ = p.process(t(1000 + attack_gap_ms), &mk(i, 200), Some(NodeId(1)));
            }
            let rerouted = !p.prefix_state(prefix).unwrap().reroute.on_primary();
            (rerouted, p.vetoed)
        };
        let (rerouted_fake, vetoed_fake) = run(100); // attacker-paced
        assert!(!rerouted_fake, "fake storm blocked");
        assert!(vetoed_fake > 0);
        let (rerouted_real, _) = run(1000); // RTO-paced
        assert!(rerouted_real, "real failure still reroutes");
    }
}
