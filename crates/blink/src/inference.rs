//! Failure inference on top of the flow selector: threshold + hold-down.
//!
//! The selector answers "how many monitored flows retransmitted recently?";
//! the detector turns threshold crossings into discrete failure events with
//! a hold-down so one outage (or one attack burst) produces one event, not
//! one per packet.

use crate::selector::FlowSelector;
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::wire::Encoder;

/// A detected failure event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// When the threshold was crossed.
    pub at: SimTime,
    /// How many monitored flows were retransmitting.
    pub retransmitting: usize,
}

/// Threshold detector with hold-down.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    hold_down: SimDuration,
    last_fire: Option<SimTime>,
    /// All failure events, in order.
    pub events: Vec<FailureEvent>,
}

impl FailureDetector {
    /// Detector that fires at most once per `hold_down`.
    pub fn new(hold_down: SimDuration) -> Self {
        FailureDetector {
            hold_down,
            last_fire: None,
            events: Vec::new(),
        }
    }

    /// Evaluate the selector state at `now`; returns a failure event when
    /// the threshold is crossed outside a hold-down period.
    pub fn evaluate(&mut self, now: SimTime, selector: &FlowSelector) -> Option<FailureEvent> {
        // Asked first: the selector answers "no" without counting while
        // too few cells hold a retransmission at all.
        if !selector.failure_indicated(now) {
            return None;
        }
        if let Some(last) = self.last_fire {
            if now.since(last) < self.hold_down {
                return None;
            }
        }
        let ev = FailureEvent {
            at: now,
            retransmitting: selector.retransmitting_flows(now),
        };
        self.last_fire = Some(now);
        self.events.push(ev);
        Some(ev)
    }

    /// Number of failures detected so far.
    pub fn count(&self) -> usize {
        self.events.len()
    }

    /// The detector's state: the last firing and every event (the
    /// hold-down is configuration).
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        e.opt(self.last_fire, |e, t| e.u64(t.0));
        e.seq(&self.events, |e, ev| {
            e.u64(ev.at.0);
            e.varint_usize(ev.retransmitting);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::BlinkParams;
    use dui_netsim::packet::{Addr, FlowKey};

    fn key(i: u16) -> FlowKey {
        FlowKey::tcp(Addr::new(198, 18, 0, 1), i, Addr::new(10, 0, 0, 5), 80)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Build a selector with `n_retx` flows currently retransmitting.
    fn selector_with_retx(n_retx: usize, at_ms: u64) -> FlowSelector {
        let mut s = FlowSelector::new(BlinkParams {
            threshold: 32,
            ..Default::default()
        });
        let mut filled = Vec::new();
        let mut i = 0u16;
        while filled.len() < 64 && i < 10_000 {
            i += 1;
            if s.on_packet(t(0), key(i), 1, false) == crate::selector::Observation::Sampled {
                filled.push(key(i));
            }
        }
        for k in filled.iter().take(n_retx) {
            s.on_packet(t(at_ms), *k, 1, false);
        }
        s
    }

    #[test]
    fn fires_at_threshold() {
        let s = selector_with_retx(32, 100);
        let mut d = FailureDetector::new(SimDuration::from_secs(1));
        assert!(d.evaluate(t(100), &s).is_some());
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn below_threshold_silent() {
        let s = selector_with_retx(31, 100);
        let mut d = FailureDetector::new(SimDuration::from_secs(1));
        assert!(d.evaluate(t(100), &s).is_none());
    }

    #[test]
    fn hold_down_suppresses_duplicates() {
        let s = selector_with_retx(40, 100);
        let mut d = FailureDetector::new(SimDuration::from_secs(1));
        assert!(d.evaluate(t(100), &s).is_some());
        assert!(d.evaluate(t(200), &s).is_none(), "inside hold-down");
        // A fresh burst after hold-down fires again.
        let s2 = selector_with_retx(40, 1500);
        assert!(d.evaluate(t(1500), &s2).is_some());
        assert_eq!(d.count(), 2);
    }

    #[test]
    fn event_records_magnitude() {
        let s = selector_with_retx(45, 100);
        let mut d = FailureDetector::new(SimDuration::from_secs(1));
        let ev = d.evaluate(t(100), &s).unwrap();
        assert_eq!(ev.retransmitting, 45);
        assert_eq!(ev.at, t(100));
    }
}
