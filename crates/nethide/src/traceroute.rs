//! Traceroute over `dui-netsim`.
//!
//! The prober emits ICMP echo probes with TTL = 1, 2, 3, …, encoding the
//! initial TTL in the probe's sequence field (as real traceroute
//! implementations do). Each router where a TTL dies answers with an ICMP
//! time-exceeded claiming *some* source address; the prober reconstructs
//! the path from those claims — with no way to authenticate any of them
//! (the paper's §4.3 premise).

use dui_netsim::packet::{Addr, Header, Packet};
use dui_netsim::prelude::{Ctx, NodeLogic};
use dui_netsim::time::SimDuration;
use dui_netsim::topology::{NodeId, Routing, Topology};
use dui_stats::wire::{Encoder, Sink};
use std::any::Any;

/// Ground truth: the addresses of the physical path `src → dst`
/// (intermediate routers only, then the destination).
pub fn physical_path_addrs(
    topo: &Topology,
    routing: &Routing,
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<Addr>> {
    let path = routing.path(src, dst)?;
    Some(path[1..].iter().map(|&n| topo.node(n).addr).collect())
}

/// One traceroute run's outcome.
#[derive(Debug, Clone, Default)]
pub struct TracerouteResult {
    /// Hop addresses in TTL order (`None` = timeout / suppressed reply).
    pub hops: Vec<Option<Addr>>,
    /// Whether the destination answered (echo reply received).
    pub reached: bool,
}

const TOKEN_NEXT_PROBE: u64 = 1;
/// Wait per hop before declaring a timeout.
const HOP_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// The ident every probe carries.
const IDENT: u16 = 7;

/// A host that runs one traceroute when the simulation starts.
pub struct TracerouteProber {
    /// Destination address.
    dst: Addr,
    /// Maximum TTL to probe.
    max_ttl: u8,
    current_ttl: u8,
    answered: bool,
    /// The accumulated result.
    pub result: TracerouteResult,
}

impl TracerouteProber {
    /// Probe toward `dst` with up to `max_ttl` hops.
    pub fn new(dst: Addr, max_ttl: u8) -> Self {
        assert!(max_ttl > 0, "need at least one hop");
        TracerouteProber {
            dst,
            max_ttl,
            current_ttl: 0,
            answered: false,
            result: TracerouteResult::default(),
        }
    }

    /// Is the run complete (destination reached or TTL budget exhausted)?
    pub fn done(&self) -> bool {
        self.result.reached || self.current_ttl >= self.max_ttl
    }

    fn send_next(&mut self, ctx: &mut Ctx) {
        if self.done() {
            return;
        }
        self.current_ttl += 1;
        self.answered = false;
        let probe = Packet::probe(
            ctx.addr(),
            self.dst,
            IDENT,
            self.current_ttl as u16, // seq encodes initial TTL
            self.current_ttl,
        );
        ctx.send(probe);
        ctx.set_timer(HOP_TIMEOUT, TOKEN_NEXT_PROBE);
    }
}

impl NodeLogic for TracerouteProber {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.send_next(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
        // The probe of the current TTL is the one awaited.
        let awaited = u16::from(self.current_ttl);
        match pkt.header {
            Header::IcmpTimeExceeded {
                reported_by,
                probe_ident,
                probe_seq,
            } if probe_ident == IDENT && probe_seq == awaited && !self.answered => {
                self.answered = true;
                self.result.hops.push(Some(reported_by));
            }
            Header::IcmpEchoReply { ident, .. } if ident == IDENT && !self.answered => {
                self.answered = true;
                self.result.hops.push(Some(pkt.key.src));
                self.result.reached = true;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token != TOKEN_NEXT_PROBE {
            return;
        }
        if !self.answered && !self.result.reached {
            self.result.hops.push(None); // hop timed out
        }
        self.send_next(ctx);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    /// The target and TTL budget, the TTL cursor, whose probe is the one
    /// awaited, whether that hop answered, and the hops so far.
    fn encode(&self, s: &mut Sink<'_>) {
        s.refuse("a traceroute prober has no checkpoint decoder");
        s.u32(self.dst.0);
        s.u8(self.max_ttl);
        s.u8(self.current_ttl);
        s.bool(self.answered);
        s.seq(&self.result.hops, |s, hop| s.opt(*hop, |s, a| s.u32(a.0)));
        s.bool(self.result.reached);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::prelude::*;

    /// h1 - r1 - r2 - r3 - h2
    fn chain() -> (Simulator, NodeId, NodeId, Vec<Addr>) {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let r1 = b.router("r1");
        let r2 = b.router("r2");
        let r3 = b.router("r3");
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        for (a, c) in [(h1, r1), (r1, r2), (r2, r3), (r3, h2)] {
            b.link(a, c, Bandwidth::mbps(100), SimDuration::from_millis(2), 32);
        }
        let topo = b.build();
        let router_addrs = vec![
            topo.node(r1).addr,
            topo.node(r2).addr,
            topo.node(r3).addr,
            topo.node(h2).addr,
        ];
        let mut sim = Simulator::new(topo, 1);
        for r in [r1, r2, r3] {
            sim.set_logic(r, Box::new(RouterLogic::new()));
        }
        sim.set_logic(h2, Box::new(SinkHost::new()));
        (sim, h1, h2, router_addrs)
    }

    #[test]
    fn traceroute_reveals_physical_path() {
        let (mut sim, h1, _h2, expected) = chain();
        sim.set_logic(
            h1,
            Box::new(TracerouteProber::new(Addr::new(10, 0, 0, 2), 10)),
        );
        sim.run_until(SimTime::from_secs(10));
        let p: &mut TracerouteProber = sim.logic_mut(h1);
        assert!(p.result.reached, "destination should answer");
        let hops: Vec<Addr> = p.result.hops.iter().map(|h| h.unwrap()).collect();
        assert_eq!(hops, expected);
    }

    #[test]
    fn ground_truth_oracle_matches_traceroute() {
        let (mut sim, h1, h2, _) = chain();
        let expected =
            physical_path_addrs(sim.core().topo(), sim.core().routing(), h1, h2).unwrap();
        sim.set_logic(
            h1,
            Box::new(TracerouteProber::new(Addr::new(10, 0, 0, 2), 10)),
        );
        sim.run_until(SimTime::from_secs(10));
        let p: &mut TracerouteProber = sim.logic_mut(h1);
        let hops: Vec<Addr> = p.result.hops.iter().map(|h| h.unwrap()).collect();
        assert_eq!(hops, expected);
    }

    #[test]
    fn silent_router_shows_as_timeout() {
        let (mut sim, h1, _h2, _) = chain();
        // Disable time-exceeded on r2.
        let r2 = sim.core().topo().node_by_name("r2").unwrap();
        let mut quiet = RouterLogic::new();
        quiet.respond_time_exceeded = false;
        sim.set_logic(r2, Box::new(quiet));
        sim.set_logic(
            h1,
            Box::new(TracerouteProber::new(Addr::new(10, 0, 0, 2), 10)),
        );
        sim.run_until(SimTime::from_secs(10));
        let p: &mut TracerouteProber = sim.logic_mut(h1);
        assert!(p.result.reached);
        assert_eq!(p.result.hops[1], None, "r2 stays dark");
        assert!(p.result.hops[0].is_some());
        assert!(p.result.hops[2].is_some());
    }

    #[test]
    fn unreachable_destination_exhausts_ttl_budget() {
        let (mut sim, h1, _h2, _) = chain();
        sim.set_logic(
            h1,
            Box::new(TracerouteProber::new(Addr::new(99, 9, 9, 9), 4)),
        );
        sim.run_until(SimTime::from_secs(10));
        let p: &mut TracerouteProber = sim.logic_mut(h1);
        assert!(!p.result.reached);
        assert!(p.done());
        assert_eq!(p.result.hops.len(), 4);
        assert!(p.result.hops.iter().all(|h| h.is_none()));
    }
}
