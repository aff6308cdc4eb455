//! The §4.3 traceroute attack from the *MitM* position: rewriting the
//! source claims of ICMP time-exceeded replies as they cross a
//! compromised link. (The operator-privilege variant — answering probes
//! with arbitrary fictions at the router itself — is
//! `dui_nethide::rewriter::FictionRewriter`.)
//!
//! "Since there is no authentication of these ICMP replies, any attacker
//! who can manipulate them can control the path that traceroute displays."

use crate::privilege::{AttackDescriptor, Privilege, Target};
use dui_netsim::link::{Dir, LinkTap, TapAction};
use dui_netsim::packet::{Addr, Header, Packet};
use dui_netsim::time::SimTime;
use dui_stats::wire::{Encoder, Sink};
use std::collections::HashMap;

/// Descriptor for the attack.
pub fn descriptor() -> AttackDescriptor {
    AttackDescriptor {
        name: "traceroute-spoof",
        section: "§4.3",
        privilege: Privilege::Mitm,
        target: Target::Endpoints,
        summary:
            "rewriting unauthenticated ICMP time-exceeded replies fakes the topology users see",
    }
}

/// Rewrites the claimed source of time-exceeded replies crossing the tap.
pub struct IcmpSpoofTap {
    /// Real claimed address → what to show instead.
    pub substitutions: HashMap<Addr, Addr>,
    /// Replies rewritten so far.
    pub rewritten: u64,
}

impl IcmpSpoofTap {
    /// Tap substituting the given address claims.
    pub fn new(substitutions: HashMap<Addr, Addr>) -> Self {
        IcmpSpoofTap {
            substitutions,
            rewritten: 0,
        }
    }
}

impl LinkTap for IcmpSpoofTap {
    fn intercept(
        &mut self,
        _now: SimTime,
        _dir: Dir,
        pkt: &mut Packet,
        _inject: &mut Vec<Packet>,
    ) -> TapAction {
        if let Header::IcmpTimeExceeded { reported_by, .. } = &mut pkt.header {
            if let Some(&fake) = self.substitutions.get(reported_by) {
                *reported_by = fake;
                pkt.key.src = fake;
                self.rewritten += 1;
            }
        }
        TapAction::Forward
    }

    fn label(&self) -> &str {
        "icmp-spoof"
    }

    /// The substitutions in address order (the map is unordered), then
    /// the rewrite count.
    fn encode(&self, s: &mut Sink<'_>) {
        let mut subs: Vec<_> = self.substitutions.iter().collect();
        subs.sort_unstable_by_key(|&(real, _)| real.0);
        s.seq(subs, |s, (real, fake)| {
            s.u32(real.0);
            s.u32(fake.0);
        });
        s.u64(self.rewritten);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_nethide::traceroute::TracerouteProber;
    use dui_netsim::prelude::*;

    #[test]
    fn mitm_rewrites_what_traceroute_sees() {
        // h1 - r1 - r2 - h2, tap on the h1-r1 link rewriting r2's claims.
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let r1 = b.router("r1");
        let r2 = b.router("r2");
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        let l0 = b.link(
            h1,
            r1,
            Bandwidth::mbps(100),
            SimDuration::from_millis(1),
            32,
        );
        b.link(
            r1,
            r2,
            Bandwidth::mbps(100),
            SimDuration::from_millis(1),
            32,
        );
        b.link(
            r2,
            h2,
            Bandwidth::mbps(100),
            SimDuration::from_millis(1),
            32,
        );
        let topo = b.build();
        let r1_addr = topo.node(r1).addr;
        let r2_addr = topo.node(r2).addr;
        let fake = Addr::new(66, 6, 6, 6);
        let mut sim = Simulator::new(topo, 1);
        sim.set_logic(r1, Box::new(RouterLogic::new()));
        sim.set_logic(r2, Box::new(RouterLogic::new()));
        sim.set_logic(h2, Box::new(SinkHost::new()));
        sim.set_logic(
            h1,
            Box::new(TracerouteProber::new(Addr::new(10, 0, 0, 2), 8)),
        );
        let mut subs = HashMap::new();
        subs.insert(r2_addr, fake);
        // Replies travel toward h1: direction B->A on the h1-r1 link.
        sim.install_tap(l0, Dir::BtoA, Box::new(IcmpSpoofTap::new(subs)));
        sim.run_until(SimTime::from_secs(10));
        let p: &mut TracerouteProber = sim.logic_mut(h1);
        assert!(p.result.reached);
        assert_eq!(p.result.hops[0], Some(r1_addr), "r1 claim untouched");
        assert_eq!(p.result.hops[1], Some(fake), "r2 claim rewritten");
    }
}
