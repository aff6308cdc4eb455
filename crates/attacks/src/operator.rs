//! Operator-privilege attacks (§2.1's strongest attacker; used in §4.1):
//! "an attacker with operator-level privileges can program the data-plane
//! hardware to identify traffic of interest, and reduce its throughput,
//! increase loss, and even increase latency by … bouncing them
//! back-and-forth between devices."
//!
//! [`BounceProgram`] is that data-plane program: traffic matching a
//! predicate is forwarded to a partner router `bounces` times before
//! continuing, inflating its latency by `2 · bounces · link_delay`
//! without dropping a single packet — invisible to loss-based monitoring.
//!
//! The program is **stateless per packet**: it recognizes ping-pong legs
//! purely from the TTL the router already decrements on every hop, the
//! way a real match-action table would (TTL is a header field; flow
//! state keyed on switch-internal packet ids is not implementable on
//! hardware anyway). Statelessness is also what makes the program safe
//! under the domain-parallel engine: it never reads `pkt.id` of packets
//! it did not create, so the packet-id contract
//! (`docs/parallel-domains.md`) holds and a simulator running it may be
//! sharded with `Simulator::set_sim_threads`.

use crate::privilege::{AttackDescriptor, Privilege, Target};
use dui_netsim::node::{DataPlaneProgram, Verdict};
use dui_netsim::packet::{Packet, DEFAULT_TTL};
use dui_netsim::time::SimTime;
use dui_netsim::topology::NodeId;
use dui_stats::wire::{Encoder, Sink};
use std::any::Any;

/// Descriptor for the attack.
pub fn descriptor() -> AttackDescriptor {
    AttackDescriptor {
        name: "operator-bounce",
        section: "§4.1",
        privilege: Privilege::Operator,
        target: Target::Endpoints,
        summary:
            "data-plane program ping-pongs selected traffic between devices to inflate latency",
    }
}

/// The TTL a matched packet carries when it first reaches the pair: the
/// entry router decrements before its programs run.
const ENTRY_TTL: u8 = DEFAULT_TTL - 1;

/// Which packets to torment.
pub type TrafficMatcher = Box<dyn Fn(&Packet) -> bool + Send>;

/// The bouncing program. Install one instance on **each** of the two
/// partner routers; they recognize ping-pong legs by the packet's TTL.
///
/// A matched packet first reaches the pair with
/// `TTL = DEFAULT_TTL - 1` (the entry router decrements before its
/// programs run), and every further leg burns one more. The program
/// keeps tossing the packet to its partner while the TTL is above
/// `entry - 2 · bounces` and releases it to normal routing below that —
/// `bounces` extra round trips over the pair's link, no per-packet
/// state. Packets that spent extra hops upstream of the pair get
/// correspondingly fewer legs (graceful degradation, never TTL expiry).
pub struct BounceProgram {
    matcher: TrafficMatcher,
    /// The partner router to bounce via.
    partner: NodeId,
    /// Release threshold: bounce while `pkt.ttl > release_ttl`.
    release_ttl: u8,
    /// Packets tormented so far (counted at their entry TTL, so each
    /// packet is counted once across the pair).
    pub bounced_packets: u64,
}

impl BounceProgram {
    /// Bounce matching traffic to `partner` and back `bounces` times.
    pub fn new(matcher: TrafficMatcher, partner: NodeId, bounces: u32) -> Self {
        assert!(bounces >= 1);
        BounceProgram {
            matcher,
            partner,
            release_ttl: ENTRY_TTL.saturating_sub((2 * bounces).min(u8::MAX as u32) as u8),
            bounced_packets: 0,
        }
    }
}

impl DataPlaneProgram for BounceProgram {
    fn process(
        &mut self,
        _now: SimTime,
        pkt: &Packet,
        _default_next: Option<NodeId>,
    ) -> Option<Verdict> {
        if !(self.matcher)(pkt) {
            return None;
        }
        if pkt.ttl > self.release_ttl {
            if pkt.ttl == ENTRY_TTL {
                self.bounced_packets += 1;
            }
            return Some(Verdict::Forward(self.partner));
        }
        None // release to normal routing
    }

    fn label(&self) -> &str {
        "operator-bounce"
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    /// The partner, the release TTL and the bounce count.
    fn encode(&self, s: &mut Sink<'_>) {
        s.refuse("a bounce program has no checkpoint decoder");
        s.varint_usize(self.partner.0);
        s.u8(self.release_ttl);
        s.u64(self.bounced_packets);
    }
}

// Test helper: a small packet with a TCP key but UDP-ish semantics.
#[cfg(test)]
trait PacketExt {
    fn udp_like(key: dui_netsim::packet::FlowKey) -> Packet;
}
#[cfg(test)]
impl PacketExt for Packet {
    fn udp_like(key: dui_netsim::packet::FlowKey) -> Packet {
        Packet::tcp(key, 1, 0, dui_netsim::packet::TcpFlags::default(), 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::node::{RouterLogic, SinkHost};
    use dui_netsim::packet::{Addr, FlowKey};
    use dui_netsim::prelude::*;

    /// h1 - r1 = r2 - h2, with the bounce pair (r1, r2).
    fn build(bounces: Option<u32>) -> (Simulator, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let r1 = b.router("r1");
        let r2 = b.router("r2");
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        b.link(h1, r1, Bandwidth::gbps(1), SimDuration::from_millis(1), 64);
        b.link(r1, r2, Bandwidth::gbps(1), SimDuration::from_millis(5), 64);
        b.link(r2, h2, Bandwidth::gbps(1), SimDuration::from_millis(1), 64);
        let mut sim = Simulator::new(b.build(), 1);
        let matcher = |p: &Packet| p.key.dport == 80;
        match bounces {
            Some(n) => {
                sim.set_logic(
                    r1,
                    Box::new(RouterLogic::new().with_program(Box::new(BounceProgram::new(
                        Box::new(matcher),
                        r2,
                        n,
                    )))),
                );
                sim.set_logic(
                    r2,
                    Box::new(RouterLogic::new().with_program(Box::new(BounceProgram::new(
                        Box::new(matcher),
                        r1,
                        n,
                    )))),
                );
            }
            None => {
                sim.set_logic(r1, Box::new(RouterLogic::new()));
                sim.set_logic(r2, Box::new(RouterLogic::new()));
            }
        }
        sim.set_logic(h2, Box::new(SinkHost::new()));
        (sim, h1, h2)
    }

    /// Run for a second and return when `h2` received its last packet:
    /// the `step_limited` event after which its sink's count last rose.
    fn arrival_time(sim: &mut Simulator, h2: NodeId) -> SimTime {
        let (mut seen, mut last) = (0, None);
        while let Some(ev) = sim.step_limited(SimTime::from_secs(1)) {
            let got = sim.logic_mut::<SinkHost>(h2).total_packets;
            if got > seen {
                (seen, last) = (got, Some(ev.time));
            }
        }
        last.expect("packet delivered")
    }

    #[test]
    fn bouncing_inflates_latency_without_loss() {
        let key = FlowKey::tcp(Addr::new(10, 0, 0, 1), 5555, Addr::new(10, 0, 0, 2), 80);
        // Honest: ~7 ms one way.
        let (mut sim, h1, h2) = build(None);
        sim.inject(h1, Packet::udp_like(key));
        let honest = arrival_time(&mut sim, h2);
        // Bounced 4 legs: +4 crossings of the 5 ms core link ≈ +20 ms.
        let (mut sim, h1, h2) = build(Some(4));
        sim.inject(h1, Packet::udp_like(key));
        let bounced = arrival_time(&mut sim, h2);
        assert!(sim.counters().total_drops() == 0, "no loss signature");
        let extra = bounced.since(honest);
        assert!(
            extra >= SimDuration::from_millis(15),
            "bounce must inflate latency: +{extra}"
        );
        // The victim still receives the packet.
        let sink: &mut SinkHost = sim.logic_mut(h2);
        assert_eq!(sink.total_packets, 1);
    }

    #[test]
    fn unmatched_traffic_unaffected() {
        let key = FlowKey::tcp(Addr::new(10, 0, 0, 1), 5555, Addr::new(10, 0, 0, 2), 443);
        let (mut sim, h1, h2) = build(Some(4));
        sim.inject(h1, Packet::udp_like(key));
        let t = arrival_time(&mut sim, h2);
        assert!(t < SimTime::from_secs_f64(0.010), "port 443 sails through");
    }

    #[test]
    fn requires_operator_privilege() {
        let d = descriptor();
        assert!(d.check_privilege(Privilege::Mitm).is_err());
        assert!(d.check_privilege(Privilege::Operator).is_ok());
    }
}
