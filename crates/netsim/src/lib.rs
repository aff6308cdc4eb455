//! # dui-netsim
//!
//! A deterministic discrete-event, packet-level network simulator — the
//! substrate on which the `dui` reproduction of *"(Self) Driving Under the
//! Influence"* (HotNets'19) runs its experiments. The paper's authors used
//! mininet plus a P4 switch program; we substitute this simulator (see
//! docs/reproduction-map.md §4 for why the substitution preserves the
//! measured behavior).
//!
//! Key concepts:
//!
//! * [`topology::Topology`] — hosts, routers, full-duplex links with
//!   bandwidth / propagation delay / DropTail queues; shortest-path
//!   [`topology::Routing`].
//! * [`sim::Simulator`] — the event loop. Deterministic: equal-time events
//!   are FIFO, all randomness comes from a seeded generator.
//! * [`node::NodeLogic`] — per-node behavior (TCP hosts, PCC senders, …
//!   live in higher crates).
//! * [`node::DataPlaneProgram`] — programmable-switch hook (the P4
//!   substitute); Blink is implemented against it.
//! * [`link::LinkTap`] — man-in-the-middle interception (observe / modify /
//!   drop / delay / inject on one link), the paper's MitM privilege.
//! * [`node::IcmpRewriter`] — control over ICMP time-exceeded replies, the
//!   mechanism behind traceroute manipulation (§4.3).
//!
//! ```
//! use dui_netsim::prelude::*;
//!
//! let mut b = TopologyBuilder::new();
//! let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
//! let r = b.router("r");
//! let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
//! b.link(h1, r, Bandwidth::mbps(100), SimDuration::from_millis(1), 64);
//! b.link(r, h2, Bandwidth::mbps(100), SimDuration::from_millis(1), 64);
//!
//! let mut sim = Simulator::new(b.build(), 42);
//! sim.set_logic(r, Box::new(RouterLogic::new()));
//! sim.set_logic(h2, Box::new(SinkHost::new()));
//! let key = FlowKey::udp(Addr::new(10, 0, 0, 1), 5000, Addr::new(10, 0, 0, 2), 80);
//! sim.inject(h1, Packet::udp(key, 1000));
//! sim.run_until(SimTime::from_secs(1));
//! let sink: &mut SinkHost = sim.logic_mut(h2);
//! assert_eq!(sink.total_packets, 1);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod arena;
pub mod event;
pub mod link;
pub mod node;
pub mod packet;
pub mod parallel;
pub mod sim;
pub mod state;
pub mod time;
pub mod topology;
pub mod wheel;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::arena::{PacketArena, PacketRef, StaleRef};
    pub use crate::link::{Dir, FaultConfig, LinkTap, TapAction};
    pub use crate::node::{
        DataPlaneProgram, IcmpRewriter, NodeLogic, RouterLogic, SinkHost, Verdict,
    };
    pub use crate::packet::{Addr, FlowKey, Header, Packet, Prefix, Proto, TcpFlags};
    pub use crate::sim::{Ctx, Simulator};
    pub use crate::time::{Bandwidth, SimDuration, SimTime};
    pub use crate::topology::{LinkId, NodeId, Topology, TopologyBuilder};
}
