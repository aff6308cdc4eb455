//! Node behaviors: the [`NodeLogic`] trait, the generic [`RouterLogic`]
//! with its data-plane program hook (our stand-in for a P4-programmable
//! switch), and a simple [`SinkHost`].

use crate::packet::{Addr, FlowKey, Header, Packet};
use crate::sim::Ctx;
use crate::time::SimTime;
use crate::topology::NodeId;
use dui_stats::wire::{
    wire_struct, DecodeError, Encoder, Encoding, ErrorKind, Qty, Reader, Sink, Wire,
};
use std::any::Any;
use std::collections::HashMap;

/// Behavior attached to a node. Implementations live in higher crates
/// (TCP hosts in `dui-tcp`, PCC endpoints in `dui-pcc`, …); `dui-netsim`
/// itself ships [`RouterLogic`] and [`SinkHost`].
pub trait NodeLogic: Send {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    /// A packet arrived at this node.
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet);

    /// A timer armed via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}

    /// Downcasting hook so tests and harnesses can inspect concrete state.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Write this node's logical state, which is both what the state
    /// hash folds and what a checkpoint carries; unordered containers go
    /// in sorted order. A logic with no [`NodeLogic::load_state`] calls
    /// [`Sink::refuse`]: its simulation is hashed but not saved.
    fn encode(&self, s: &mut Sink<'_>);

    /// Restore state previously written by [`NodeLogic::encode`].
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        Err(Reader::new(bytes).error("node logic without checkpoint restore", ErrorKind::Invalid))
    }

    /// Export this node's own metrics into `reg`.
    ///
    /// Called by [`crate::sim::Simulator::metrics_snapshot`] against a
    /// fresh registry on every sampling call, so implementations must
    /// report *current* values (register-and-set), not accumulate across
    /// calls. The default contributes nothing.
    fn export_metrics(&self, _reg: &mut dui_telemetry::registry::Registry) {}
}

/// What a data-plane program decides for a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward to this adjacent next hop.
    Forward(NodeId),
    /// Drop the packet.
    Drop,
}

/// A program running in the forwarding pipeline of a [`RouterLogic`] — our
/// abstraction of a P4 program on a programmable switch. Blink implements
/// this trait in `dui-blink`.
///
/// Programs see every transiting packet *after* TTL handling and may
/// override the routing table's default next hop. They keep arbitrary
/// mutable state (the "stateful data plane" whose expanded attack surface
/// §3 of the paper is about) but are only consulted on packet arrival:
/// time-based state transitions must be implemented lazily against `now`,
/// exactly as real data-plane programs read a timestamp metadata field.
pub trait DataPlaneProgram: Send {
    /// Inspect (and possibly steer) one transiting packet.
    /// `default_next` is the routing table's choice, if the destination is
    /// routable. Return `None` to express no opinion.
    fn process(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        default_next: Option<NodeId>,
    ) -> Option<Verdict>;

    /// Label for traces.
    fn label(&self) -> &str {
        "program"
    }

    /// Downcasting hook for harness inspection.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Write the program's logical state (see [`NodeLogic::encode`]).
    /// A program has no decoder, so one that is stateful calls
    /// [`Sink::refuse`].
    fn encode(&self, s: &mut Sink<'_>);
}

/// Decides what ICMP time-exceeded reply (if any) a router sends when a
/// probe expires at it. The honest behavior reports the router's own
/// address; NetHide-style deployments (and malicious operators — §4.3)
/// substitute a virtual hop address or stay silent.
pub trait IcmpRewriter: Send {
    /// `probe` expired at this router. Return the address the time-exceeded
    /// reply should claim, or `None` to suppress the reply.
    fn report_address(&mut self, router: NodeId, probe: &Packet) -> Option<Addr>;

    /// `probe` is about to be forwarded to its destination host (this is
    /// the last router). Return `Some(addr)` to swallow it and reply with
    /// a time-exceeded claiming `addr` instead — how an edge deployment
    /// presents *virtual paths longer than the physical one* (extra
    /// fictitious hops must be answered before the real destination gets
    /// the probe). Default: let it through.
    fn capture_at_edge(&mut self, _router: NodeId, _probe: &Packet) -> Option<Addr> {
        None
    }

    /// Downcasting hook.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Write the rewriter's state (see [`NodeLogic::encode`]). A
    /// rewriter has no decoder, so it calls [`Sink::refuse`].
    fn encode(&self, s: &mut Sink<'_>);
}

/// A forwarding device: decrements TTL, answers expired traceroute probes
/// with ICMP time-exceeded, runs data-plane programs, forwards.
pub struct RouterLogic {
    programs: Vec<Box<dyn DataPlaneProgram>>,
    icmp_rewriter: Option<Box<dyn IcmpRewriter>>,
    /// Whether to emit ICMP time-exceeded at all (real routers often rate
    /// limit or disable this).
    pub respond_time_exceeded: bool,
}

impl Default for RouterLogic {
    fn default() -> Self {
        Self::new()
    }
}

impl RouterLogic {
    /// Plain honest router.
    pub fn new() -> Self {
        RouterLogic {
            programs: Vec::new(),
            icmp_rewriter: None,
            respond_time_exceeded: true,
        }
    }

    /// Attach a data-plane program (operator-privilege action).
    pub fn with_program(mut self, program: Box<dyn DataPlaneProgram>) -> Self {
        self.programs.push(program);
        self
    }

    /// Attach an ICMP rewriter (operator-privilege action; used by NetHide
    /// and by the malicious-operator attack).
    pub fn with_icmp_rewriter(mut self, rw: Box<dyn IcmpRewriter>) -> Self {
        self.icmp_rewriter = Some(rw);
        self
    }

    /// Borrow program `i`, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if program `i` is not a `T` — the caller installed the
    /// program and names its concrete type, so a mismatch is a bug at
    /// the call site, not a recoverable condition.
    #[expect(
        clippy::expect_used,
        reason = "documented caller contract — the caller installed this program"
    )]
    pub fn program_mut<T: DataPlaneProgram + 'static>(&mut self, i: usize) -> &mut T {
        self.programs[i]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("program has a different concrete type")
    }

    fn handle_local(&mut self, ctx: &mut Ctx, pkt: Packet) {
        // The only local traffic routers answer is ping.
        if let Some(reply) = pkt.echo_reply(ctx.addr()) {
            ctx.send(reply);
        }
    }
}

impl NodeLogic for RouterLogic {
    fn on_packet(&mut self, ctx: &mut Ctx, mut pkt: Packet) {
        if pkt.key.dst == ctx.addr() {
            ctx.count_router_local();
            self.handle_local(ctx, pkt);
            return;
        }
        // TTL expiry — the mechanism traceroute exploits (paper §4.3).
        if pkt.ttl <= 1 {
            ctx.count_ttl_drop();
            if self.respond_time_exceeded {
                if let Header::IcmpEchoRequest { ident, seq } = pkt.header {
                    let me = ctx.node;
                    let claimed = match &mut self.icmp_rewriter {
                        Some(rw) => rw.report_address(me, &pkt),
                        None => Some(ctx.addr()),
                    };
                    if let Some(claimed) = claimed {
                        ctx.send(Packet::time_exceeded(claimed, pkt.key.src, ident, seq));
                    }
                }
            }
            return;
        }
        pkt.ttl -= 1;
        let dst_node = ctx.resolve_dst(pkt.key.dst);
        let default_next = dst_node.and_then(|d| ctx.routing().next_hop(ctx.node, d));
        // Edge capture: a rewriter may answer probes that would otherwise
        // reach the destination, extending the apparent path.
        if let (Header::IcmpEchoRequest { ident, seq }, Some(rw)) =
            (&pkt.header, &mut self.icmp_rewriter)
        {
            if dst_node.is_some() && default_next == dst_node {
                let me = ctx.node;
                if let Some(claimed) = rw.capture_at_edge(me, &pkt) {
                    ctx.send(Packet::time_exceeded(claimed, pkt.key.src, *ident, *seq));
                    return;
                }
            }
        }
        let mut verdict = default_next.map(Verdict::Forward);
        let mut from_program = false;
        let now = ctx.now();
        for prog in &mut self.programs {
            if let Some(v) = prog.process(now, &pkt, default_next) {
                from_program = true;
                verdict = Some(v);
            }
        }
        match verdict {
            Some(Verdict::Forward(next)) => {
                if from_program {
                    ctx.count_program_forward();
                }
                ctx.send_via(next, pkt)
            }
            Some(Verdict::Drop) => ctx.count_program_drop(),
            None => ctx.count_no_route(),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    /// The reply flag, each program's label and state, then the
    /// rewriter's, if one is installed.
    fn encode(&self, s: &mut Sink<'_>) {
        s.bool(self.respond_time_exceeded);
        s.seq(&self.programs, |s, p| {
            s.bytes(p.label().as_bytes());
            p.encode(s);
        });
        s.opt(self.icmp_rewriter.as_deref(), |s, rw| rw.encode(s));
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(bytes);
        if !self.programs.is_empty() || self.icmp_rewriter.is_some() {
            return Err(r.error("router with programs installed", ErrorKind::Invalid));
        }
        let respond = r.bool("router respond_time_exceeded")?;
        if r.varint("router program count")? != 0 || r.bool("router icmp rewriter")? {
            return Err(r.error("router programs", ErrorKind::Invalid));
        }
        r.finish("router checkpoint")?;
        self.respond_time_exceeded = respond;
        Ok(())
    }
}

/// Per-flow delivery accounting kept by [`SinkHost`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkFlowStats {
    /// Packets received.
    pub packets: u64,
    /// Payload bytes received.
    pub bytes: u64,
}

/// A host that consumes everything sent to it (answering pings), keeping
/// per-flow statistics. Useful as a traffic sink and as the victim-prefix
/// endpoint in the Blink experiments.
#[derive(Default)]
pub struct SinkHost {
    flows: HashMap<FlowKey, SinkFlowStats>,
    /// Total payload bytes received.
    pub total_bytes: u64,
    /// Total packets received.
    pub total_packets: u64,
}

impl SinkHost {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stats for one flow key, if seen.
    pub fn flow(&self, key: &FlowKey) -> Option<SinkFlowStats> {
        self.flows.get(key).copied()
    }

    /// Number of distinct flows seen.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }
}

fn sort_key(k: &FlowKey) -> (u32, u32, u16, u16, u8) {
    (k.src.0, k.dst.0, k.sport, k.dport, k.proto.code())
}

// A sink checkpoint's flow record is its key, then these counts.
wire_struct!(SinkFlowStats {
    packets: Qty,
    bytes: Qty
});

/// One flow record of a sink checkpoint.
type FlowRecord = (FlowKey, SinkFlowStats);

impl NodeLogic for SinkHost {
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        if let Some(reply) = pkt.echo_reply(ctx.addr()) {
            ctx.send(reply);
            return;
        }
        let e = self.flows.entry(pkt.key).or_default();
        e.packets += 1;
        e.bytes += pkt.payload as u64;
        self.total_bytes += pkt.payload as u64;
        self.total_packets += 1;
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    /// The flow table sorted by 5-tuple (the backing map is unordered),
    /// then the totals.
    fn encode(&self, s: &mut Sink<'_>) {
        let mut flows: Vec<_> = self.flows.iter().collect();
        flows.sort_unstable_by_key(|(k, _)| sort_key(k));
        s.u64(flows.len() as u64);
        for (k, st) in flows {
            k.put(s);
            st.put(s);
        }
        s.u64(self.total_bytes);
        s.u64(self.total_packets);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(bytes);
        let n = r.count("sink flow count", Reader::u64, FlowRecord::LEAST)?;
        let mut flows = HashMap::with_capacity(n);
        let mut prev = None;
        for _ in 0..n {
            let (key, stats) = FlowRecord::read(&mut r, "sink flow")?;
            // Canonical order, as `encode` writes it: no duplicate
            // can shadow an earlier record.
            if prev.replace(sort_key(&key)) >= Some(sort_key(&key)) {
                return Err(r.error("sink flows out of order", ErrorKind::Invalid));
            }
            flows.insert(key, stats);
        }
        let [total_bytes, total_packets] = <[Qty; 2]>::read(&mut r, "sink totals")?;
        r.finish("sink checkpoint")?;
        self.flows = flows;
        self.total_bytes = total_bytes;
        self.total_packets = total_packets;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that has seen three flows, checkpointed.
    fn saved_sink_state() -> Vec<u8> {
        let mut sink = SinkHost::new();
        for i in 0..3u16 {
            let key = FlowKey::tcp(Addr::new(10, 0, 0, 1), 1000 + i, Addr::new(10, 0, 0, 2), 80);
            let stats = SinkFlowStats {
                packets: 2 + u64::from(i),
                bytes: 2920,
            };
            sink.flows.insert(key, stats);
            sink.total_packets += stats.packets;
            sink.total_bytes += stats.bytes;
        }
        Sink::save(|s| sink.encode(s)).expect("sinks checkpoint")
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "patches out-of-range counts into a valid blob at known byte offsets"
    )]
    fn load_state_round_trips_and_refuses_counts_the_bytes_cannot_hold() {
        let good = saved_sink_state();
        assert_eq!(good.len(), 8 + 3 * FlowRecord::LEAST + 16);
        let mut restored = SinkHost::new();
        assert_eq!(restored.load_state(&good), Ok(()));
        assert_eq!((restored.flow_count(), restored.total_packets), (3, 9));
        assert_eq!(Sink::save(|s| restored.encode(s)), Ok(good.clone()));

        // The 8-byte blob that used to reserve a 2^64-entry map (a
        // capacity-overflow panic), alone and with records behind it.
        let with_count = |n: u64| [&n.to_le_bytes()[..], &good[8..]].concat();
        assert!(SinkHost::new().load_state(&u64::MAX.to_le_bytes()).is_err());
        assert!(SinkHost::new().load_state(&with_count(u64::MAX)).is_err());
        // One more record than the bytes hold — and, for the trailer's
        // sake, one fewer.
        assert!(SinkHost::new().load_state(&with_count(4)).is_err());
        assert!(SinkHost::new().load_state(&with_count(2)).is_err());
        // A refused blob leaves the sink as it was.
        assert!(restored.load_state(&with_count(4)).is_err());
        assert_eq!(restored.flow_count(), 3);
    }

    #[test]
    fn load_state_rejects_every_truncation() {
        let good = saved_sink_state();
        for len in 0..good.len() {
            assert!(
                SinkHost::new().load_state(&good[..len]).is_err(),
                "accepted a blob truncated to {len} of {} bytes",
                good.len()
            );
        }
    }
}
