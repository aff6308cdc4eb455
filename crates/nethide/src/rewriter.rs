//! ICMP time-exceeded rewriters: the deployment mechanism of both NetHide
//! (defensive) and the malicious-operator attack (§4.3) — the *same*
//! mechanism, which is the paper's point.

use crate::obfuscate::VirtualTopology;
use dui_netsim::node::IcmpRewriter;
use dui_netsim::packet::{Addr, Header, Packet};
use dui_netsim::topology::NodeId;
use dui_stats::wire::{Encoder, Sink};
use std::any::Any;
use std::sync::Arc;

/// Answers expired probes according to a shared [`VirtualTopology`]: the
/// hop index is recovered from the probe's sequence field (which encodes
/// the initial TTL), and the advertised address comes from the virtual
/// path for that `(src, dst)` flow. Flows without a virtual path get
/// honest answers.
pub struct VirtualTopologyRewriter {
    vt: Arc<VirtualTopology>,
    /// The router's honest address, used for uncovered flows.
    honest: Addr,
}

impl VirtualTopologyRewriter {
    /// Rewriter for one router (whose honest address is `honest`).
    pub fn new(vt: Arc<VirtualTopology>, honest: Addr) -> Self {
        VirtualTopologyRewriter { vt, honest }
    }
}

impl IcmpRewriter for VirtualTopologyRewriter {
    fn report_address(&mut self, _router: NodeId, probe: &Packet) -> Option<Addr> {
        let Header::IcmpEchoRequest { seq, .. } = probe.header else {
            return Some(self.honest);
        };
        match self.vt.hop(probe.key.src, probe.key.dst, seq as usize) {
            Some(addr) => Some(addr),
            None => Some(self.honest),
        }
    }

    fn capture_at_edge(&mut self, _router: NodeId, probe: &Packet) -> Option<Addr> {
        let Header::IcmpEchoRequest { seq, .. } = probe.header else {
            return None;
        };
        let path = self.vt.path(probe.key.src, probe.key.dst)?;
        let hop = seq as usize;
        // The virtual path is longer than the physical one: probes whose
        // TTL would physically escape to the destination must be answered
        // with the remaining fictitious hops (everything short of the
        // virtual path's final entry, which is the destination itself).
        if hop >= 1 && hop < path.len() {
            Some(path[hop - 1])
        } else {
            None
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    /// The honest address, then the shared virtual topology.
    fn encode(&self, s: &mut Sink<'_>) {
        s.refuse("a virtual-topology rewriter has no checkpoint decoder");
        s.u32(self.honest.0);
        self.vt.encode(s);
    }
}

/// The malicious-operator variant: a fixed fictitious hop sequence shown
/// for *every* flow through this router, regardless of reality. Optionally
/// goes silent past the fiction's length (hiding everything beyond).
pub struct FictionRewriter {
    /// The story to tell, indexed by hop.
    pub fiction: Vec<Addr>,
    /// Suppress replies for hops beyond the fiction (`true`) or answer
    /// honestly there (`false`).
    pub dark_beyond: bool,
    honest: Addr,
}

impl FictionRewriter {
    /// Build a fiction rewriter.
    pub fn new(fiction: Vec<Addr>, dark_beyond: bool, honest: Addr) -> Self {
        FictionRewriter {
            fiction,
            dark_beyond,
            honest,
        }
    }
}

impl IcmpRewriter for FictionRewriter {
    fn report_address(&mut self, _router: NodeId, probe: &Packet) -> Option<Addr> {
        let Header::IcmpEchoRequest { seq, .. } = probe.header else {
            return Some(self.honest);
        };
        let hop = seq as usize;
        if hop >= 1 && hop <= self.fiction.len() {
            Some(self.fiction[hop - 1])
        } else if self.dark_beyond {
            None
        } else {
            Some(self.honest)
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    /// The fiction, whether it goes dark past its end, and the honest
    /// address.
    fn encode(&self, s: &mut Sink<'_>) {
        s.refuse("a fiction rewriter has no checkpoint decoder");
        s.seq(&self.fiction, |s, hop| s.u32(hop.0));
        s.bool(self.dark_beyond);
        s.u32(self.honest.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traceroute::TracerouteProber;
    use dui_netsim::prelude::*;
    use dui_netsim::topology::Routing;

    /// h1 - r1 - r2 - h2, with r1/r2 running a rewriter.
    fn sim_with_rewriters(make: impl Fn(Addr) -> Box<dyn IcmpRewriter>) -> (Simulator, NodeId) {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let r1 = b.router("r1");
        let r2 = b.router("r2");
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        for (a, c) in [(h1, r1), (r1, r2), (r2, h2)] {
            b.link(a, c, Bandwidth::mbps(100), SimDuration::from_millis(1), 32);
        }
        let topo = b.build();
        let r1_addr = topo.node(r1).addr;
        let r2_addr = topo.node(r2).addr;
        let mut sim = Simulator::new(topo, 1);
        sim.set_logic(
            r1,
            Box::new(RouterLogic::new().with_icmp_rewriter(make(r1_addr))),
        );
        sim.set_logic(
            r2,
            Box::new(RouterLogic::new().with_icmp_rewriter(make(r2_addr))),
        );
        sim.set_logic(h2, Box::new(SinkHost::new()));
        sim.set_logic(
            h1,
            Box::new(TracerouteProber::new(Addr::new(10, 0, 0, 2), 8)),
        );
        (sim, h1)
    }

    #[test]
    fn virtual_topology_rewriter_shows_virtual_path() {
        let fake1 = Addr::new(99, 0, 0, 1);
        let fake2 = Addr::new(99, 0, 0, 2);
        let mut vt = VirtualTopology::default();
        vt.set_path(
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 0, 2),
            vec![fake1, fake2, Addr::new(10, 0, 0, 2)],
        );
        let vt = Arc::new(vt);
        let (mut sim, h1) = {
            let vt = vt.clone();
            sim_with_rewriters(move |honest| {
                Box::new(VirtualTopologyRewriter::new(vt.clone(), honest))
            })
        };
        sim.run_until(SimTime::from_secs(10));
        let p: &mut TracerouteProber = sim.logic_mut(h1);
        assert!(p.result.reached);
        assert_eq!(p.result.hops[0], Some(fake1));
        assert_eq!(p.result.hops[1], Some(fake2));
        // Final hop: the destination itself answers (truthfully).
        assert_eq!(p.result.hops[2], Some(Addr::new(10, 0, 0, 2)));
    }

    #[test]
    fn uncovered_flow_gets_honest_answers() {
        let vt = Arc::new(VirtualTopology::default()); // covers nothing
        let (mut sim, h1) = {
            let vt = vt.clone();
            sim_with_rewriters(move |honest| {
                Box::new(VirtualTopologyRewriter::new(vt.clone(), honest))
            })
        };
        let truth = {
            let topo = sim.core().topo();
            let routing = Routing::shortest_paths(topo);
            crate::traceroute::physical_path_addrs(
                topo,
                &routing,
                topo.node_by_name("h1").unwrap(),
                topo.node_by_name("h2").unwrap(),
            )
            .unwrap()
        };
        sim.run_until(SimTime::from_secs(10));
        let p: &mut TracerouteProber = sim.logic_mut(h1);
        let hops: Vec<Addr> = p.result.hops.iter().map(|h| h.unwrap()).collect();
        assert_eq!(hops, truth);
    }

    #[test]
    fn fiction_rewriter_tells_arbitrary_story() {
        let story = vec![Addr::new(8, 8, 8, 8), Addr::new(9, 9, 9, 9)];
        let (mut sim, h1) = {
            let story = story.clone();
            sim_with_rewriters(move |honest| {
                Box::new(FictionRewriter::new(story.clone(), false, honest))
            })
        };
        sim.run_until(SimTime::from_secs(10));
        let p: &mut TracerouteProber = sim.logic_mut(h1);
        assert_eq!(p.result.hops[0], Some(Addr::new(8, 8, 8, 8)));
        assert_eq!(p.result.hops[1], Some(Addr::new(9, 9, 9, 9)));
    }

    #[test]
    fn fiction_dark_beyond_goes_silent() {
        let story = vec![Addr::new(8, 8, 8, 8)];
        let (mut sim, h1) = {
            let story = story.clone();
            sim_with_rewriters(move |honest| {
                Box::new(FictionRewriter::new(story.clone(), true, honest))
            })
        };
        sim.run_until(SimTime::from_secs(10));
        let p: &mut TracerouteProber = sim.logic_mut(h1);
        assert_eq!(p.result.hops[0], Some(Addr::new(8, 8, 8, 8)));
        assert_eq!(p.result.hops[1], None, "hop 2 suppressed");
    }
}
