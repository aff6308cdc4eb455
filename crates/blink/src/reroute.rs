//! Per-prefix rerouting state: an ordered next-hop list advanced on each
//! inferred failure.
//!
//! The attack consequence in the paper (§3.1) is precisely a spurious call
//! to [`RerouteState::advance`]: "the attacker can easily trick Blink into
//! rerouting traffic, possibly onto a path that she controls."

use dui_netsim::time::SimTime;
use dui_netsim::topology::NodeId;
use dui_stats::wire::Encoder;

/// One reroute decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RerouteEvent {
    /// When.
    pub at: SimTime,
    /// Next hop before.
    pub from: NodeId,
    /// Next hop after.
    pub to: NodeId,
}

/// Ordered next hops for one prefix: index 0 is the primary.
#[derive(Debug, Clone)]
pub struct RerouteState {
    next_hops: Vec<NodeId>,
    active: usize,
    /// All reroute decisions taken.
    pub events: Vec<RerouteEvent>,
}

impl RerouteState {
    /// Build with a primary and backups (at least one next hop).
    pub fn new(next_hops: Vec<NodeId>) -> Self {
        assert!(!next_hops.is_empty(), "need at least a primary next hop");
        RerouteState {
            next_hops,
            active: 0,
            events: Vec::new(),
        }
    }

    /// Currently active next hop.
    pub fn active(&self) -> NodeId {
        self.next_hops[self.active]
    }

    /// Is traffic currently on the primary?
    pub fn on_primary(&self) -> bool {
        self.active == 0
    }

    /// Advance to the next backup (wrapping), recording the event.
    /// Returns the new next hop.
    pub fn advance(&mut self, now: SimTime) -> NodeId {
        let from = self.active();
        self.active = (self.active + 1) % self.next_hops.len();
        let to = self.active();
        self.events.push(RerouteEvent { at: now, from, to });
        to
    }

    /// Number of reroutes performed.
    pub fn reroute_count(&self) -> usize {
        self.events.len()
    }

    /// The next hops, the active one, and every reroute taken.
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        e.seq(&self.next_hops, |e, h| e.varint_usize(h.0));
        e.varint_usize(self.active);
        e.seq(&self.events, |e, ev| {
            e.u64(ev.at.0);
            e.varint_usize(ev.from.0);
            e.varint_usize(ev.to.0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn starts_on_primary() {
        let r = RerouteState::new(vec![NodeId(1), NodeId(2)]);
        assert_eq!(r.active(), NodeId(1));
        assert!(r.on_primary());
    }

    #[test]
    fn advance_cycles_backups() {
        let mut r = RerouteState::new(vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(r.advance(t(1)), NodeId(2));
        assert_eq!(r.advance(t(2)), NodeId(3));
        assert_eq!(r.advance(t(3)), NodeId(1), "wraps to primary");
        assert_eq!(r.reroute_count(), 3);
    }

    #[test]
    fn events_record_transition() {
        let mut r = RerouteState::new(vec![NodeId(1), NodeId(2)]);
        r.advance(t(5));
        assert_eq!(
            r.events[0],
            RerouteEvent {
                at: t(5),
                from: NodeId(1),
                to: NodeId(2)
            }
        );
    }

    #[test]
    #[should_panic]
    fn empty_next_hops_rejected() {
        RerouteState::new(vec![]);
    }
}
