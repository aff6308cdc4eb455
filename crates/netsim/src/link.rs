//! Runtime link state: transmission, queueing, fault injection, and MitM
//! taps.
//!
//! Each link is full-duplex: the two directions have independent queues and
//! transmitters. A packet offered to a direction passes, in order, through
//!
//! 1. the *up/down* check (an administratively failed link silently drops —
//!    this is how experiments model the physical failures Blink reacts to),
//! 2. the *fault injector* (random loss / jitter, as in smoltcp's example
//!    fault injection),
//! 3. the *taps* (the man-in-the-middle privilege of the paper's §2.1: a
//!    tap can observe, modify, drop, delay, or inject traffic on the link,
//!    but cannot do anything elsewhere in the network),
//! 4. the DropTail queue + transmitter.

use crate::arena::PacketRef;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkInfo, NodeId};
use dui_stats::wire::Sink;
use dui_stats::Rng;
use std::collections::VecDeque;

/// Direction of travel across a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// From endpoint `a` to endpoint `b`.
    AtoB,
    /// From endpoint `b` to endpoint `a`.
    BtoA,
}

impl Dir {
    /// The opposite direction.
    pub fn flipped(self) -> Dir {
        match self {
            Dir::AtoB => Dir::BtoA,
            Dir::BtoA => Dir::AtoB,
        }
    }
}

/// What a tap decides to do with an intercepted packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapAction {
    /// Let it continue (possibly after in-place modification).
    Forward,
    /// Silently drop it.
    Drop,
    /// Hold it for the given extra delay, then enqueue it (bypassing taps).
    Delay(SimDuration),
}

/// A man-in-the-middle interception point on one link direction.
///
/// This is the concrete embodiment of the paper's MitM attacker privilege:
/// "record, modify, drop, and delay traffic that crosses these links, as
/// well as inject traffic. However, she cannot break encryption." Our
/// packets expose only header/metadata fields, so a tap manipulating them
/// stays within that boundary by construction.
pub trait LinkTap: Send {
    /// Rule on one packet. May mutate `pkt` (header rewriting) and push
    /// extra packets into `inject`; injected packets are offered to the same
    /// link direction immediately after this one, without re-running taps.
    fn intercept(
        &mut self,
        now: SimTime,
        dir: Dir,
        pkt: &mut Packet,
        inject: &mut Vec<Packet>,
    ) -> TapAction;

    /// Human-readable label for traces.
    fn label(&self) -> &str {
        "tap"
    }

    /// Write the tap's logical state into the engine's `links` section
    /// (see [`crate::node::NodeLogic::encode`]). No tap is ever read
    /// back: the engine refuses to checkpoint a tapped link.
    fn encode(&self, s: &mut Sink<'_>);
}

/// Random loss / jitter on a link direction (benign impairment, distinct
/// from an attacker tap).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Probability that an offered packet is dropped.
    pub drop_prob: f64,
    /// If set, adds uniform random extra delay in `[0, max]` to each packet.
    pub jitter_max: Option<SimDuration>,
}

/// Per-direction transmitter + queue state. Queued and in-flight packets
/// live in the engine's [`crate::arena::PacketArena`]; the link holds only
/// their handles.
#[derive(Debug, Default)]
pub(crate) struct DirState {
    pub queue: VecDeque<PacketRef>,
    /// Packet currently being serialized, if any.
    pub in_flight: Option<PacketRef>,
    pub fault: FaultConfig,
}

/// Per-link-direction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkDirStats {
    /// Packets offered to this direction (before any dropping).
    pub offered: u64,
    /// Packets fully delivered to the far node.
    pub delivered: u64,
    /// Bytes fully delivered.
    pub bytes_delivered: u64,
    /// DropTail queue drops.
    pub dropped_queue: u64,
    /// Drops decided by taps.
    pub dropped_tap: u64,
    /// Drops from fault injection or the link being down.
    pub dropped_fault: u64,
}

/// Runtime state of one link (both directions).
pub(crate) struct LinkRuntime {
    pub info: LinkInfo,
    pub up: bool,
    pub ab: DirState,
    pub ba: DirState,
    pub taps_ab: Vec<Box<dyn LinkTap>>,
    pub taps_ba: Vec<Box<dyn LinkTap>>,
    pub stats_ab: LinkDirStats,
    pub stats_ba: LinkDirStats,
}

impl LinkRuntime {
    pub fn new(info: LinkInfo) -> Self {
        LinkRuntime {
            info,
            up: true,
            ab: DirState::default(),
            ba: DirState::default(),
            taps_ab: Vec::new(),
            taps_ba: Vec::new(),
            stats_ab: LinkDirStats::default(),
            stats_ba: LinkDirStats::default(),
        }
    }

    pub fn dir_state(&mut self, dir: Dir) -> &mut DirState {
        match dir {
            Dir::AtoB => &mut self.ab,
            Dir::BtoA => &mut self.ba,
        }
    }

    pub fn stats(&self, dir: Dir) -> &LinkDirStats {
        match dir {
            Dir::AtoB => &self.stats_ab,
            Dir::BtoA => &self.stats_ba,
        }
    }

    pub fn stats_mut(&mut self, dir: Dir) -> &mut LinkDirStats {
        match dir {
            Dir::AtoB => &mut self.stats_ab,
            Dir::BtoA => &mut self.stats_ba,
        }
    }

    pub fn taps_mut(&mut self, dir: Dir) -> &mut Vec<Box<dyn LinkTap>> {
        match dir {
            Dir::AtoB => &mut self.taps_ab,
            Dir::BtoA => &mut self.taps_ba,
        }
    }

    /// The node a packet travelling `dir` arrives at.
    pub fn dst_node(&self, dir: Dir) -> NodeId {
        match dir {
            Dir::AtoB => self.info.b,
            Dir::BtoA => self.info.a,
        }
    }

    /// Direction for a packet leaving `from` over this link.
    pub fn dir_from(&self, from: NodeId) -> Dir {
        if from == self.info.a {
            Dir::AtoB
        } else {
            debug_assert_eq!(from, self.info.b, "node not on link");
            Dir::BtoA
        }
    }

    /// Apply fault injection. Returns `false` if the packet is to be
    /// dropped; may compute extra jitter delay into `extra`.
    pub fn apply_fault(&mut self, dir: Dir, rng: &mut Rng, extra: &mut SimDuration) -> bool {
        if !self.up {
            self.stats_mut(dir).dropped_fault += 1;
            return false;
        }
        let fault = self.dir_state(dir).fault;
        if fault.drop_prob > 0.0 && rng.chance(fault.drop_prob) {
            self.stats_mut(dir).dropped_fault += 1;
            return false;
        }
        if let Some(max) = fault.jitter_max {
            if max > SimDuration::ZERO {
                *extra = SimDuration::from_nanos(rng.range_u64(0, max.as_nanos() + 1));
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, FlowKey, Packet};
    use crate::time::Bandwidth;
    use crate::topology::LinkId;
    use dui_stats::wire::Encoder;

    fn info() -> LinkInfo {
        LinkInfo {
            a: NodeId(0),
            b: NodeId(1),
            bandwidth: Bandwidth::mbps(10),
            delay: SimDuration::from_millis(1),
            queue_cap: 4,
        }
    }

    fn pkt() -> Packet {
        Packet::udp(
            FlowKey::udp(Addr::new(1, 0, 0, 1), 1, Addr::new(1, 0, 0, 2), 2),
            100,
        )
    }

    #[test]
    fn dir_geometry() {
        let l = LinkRuntime::new(info());
        assert_eq!(l.dst_node(Dir::AtoB), NodeId(1));
        assert_eq!(l.dir_from(NodeId(1)), Dir::BtoA);
        assert_eq!(Dir::AtoB.flipped(), Dir::BtoA);
    }

    #[test]
    fn down_link_drops() {
        let mut l = LinkRuntime::new(info());
        l.up = false;
        let mut rng = Rng::new(1);
        let mut extra = SimDuration::ZERO;
        assert!(!l.apply_fault(Dir::AtoB, &mut rng, &mut extra));
        assert_eq!(l.stats(Dir::AtoB).dropped_fault, 1);
    }

    #[test]
    fn fault_drop_probability() {
        let mut l = LinkRuntime::new(info());
        l.dir_state(Dir::AtoB).fault.drop_prob = 0.5;
        let mut rng = Rng::new(2);
        let mut kept = 0;
        for _ in 0..10_000 {
            let mut extra = SimDuration::ZERO;
            if l.apply_fault(Dir::AtoB, &mut rng, &mut extra) {
                kept += 1;
            }
        }
        assert!((kept as f64 / 10_000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn jitter_bounded() {
        let mut l = LinkRuntime::new(info());
        l.dir_state(Dir::AtoB).fault.jitter_max = Some(SimDuration::from_millis(5));
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let mut extra = SimDuration::ZERO;
            assert!(l.apply_fault(Dir::AtoB, &mut rng, &mut extra));
            assert!(extra <= SimDuration::from_millis(5));
        }
    }

    /// A tap that drops every packet whose payload exceeds a threshold.
    struct SizeFilter(u32);
    impl LinkTap for SizeFilter {
        fn intercept(
            &mut self,
            _now: SimTime,
            _dir: Dir,
            pkt: &mut Packet,
            _inject: &mut Vec<Packet>,
        ) -> TapAction {
            if pkt.payload > self.0 {
                TapAction::Drop
            } else {
                TapAction::Forward
            }
        }

        fn encode(&self, s: &mut Sink<'_>) {
            s.u32(self.0);
        }
    }

    #[test]
    fn tap_trait_object_works() {
        let mut tap: Box<dyn LinkTap> = Box::new(SizeFilter(50));
        let mut inject = Vec::new();
        let mut big = pkt();
        big.payload = 100;
        assert_eq!(
            tap.intercept(SimTime::ZERO, Dir::AtoB, &mut big, &mut inject),
            TapAction::Drop
        );
        let mut small = pkt();
        small.payload = 10;
        assert_eq!(
            tap.intercept(SimTime::ZERO, Dir::AtoB, &mut small, &mut inject),
            TapAction::Forward
        );
        let _ = LinkId(0); // silence unused import in some cfg combinations
    }
}
