//! The engine's logical state, written once.
//!
//! [`Simulator::encode_section`] is the one description of that state:
//! five named sections, in order, written into a [`Sink`]. One pass over
//! them, [`Simulator::walk`], folds each section into its own digest —
//! the component digests a replay divergence names — folds those in
//! order into [`Simulator::state_hash`], and, when asked, writes the
//! same primitives as [`Simulator::checkpoint`]'s bytes, behind a
//! fingerprint of the static configuration and ahead of the state hash.
//! [`Simulator::restore`], beside it, is the decoder.
//!
//! Each node logic and link tap writes its own state through its one
//! `encode` (a router through its programs and rewriter, a TCP host
//! through its flow source), so the hash sees every part the bytes
//! carry. A part with no decoder refuses the bytes as it writes them —
//! a tap, a program, a rewriter, a generative flow source, a logic
//! without `load_state` — so its simulation can be hashed but not
//! saved.
//!
//! Telemetry (the metrics registry) is observability about a run, not
//! state that influences it, and is in no section. Arena slots, wheel
//! internals and event sequence numbers are implementation detail too:
//! pending events are written in dispatch order, packets by content.

use crate::arena::PacketArena;
use crate::event::{Event, EventQueue};
use crate::link::{Dir, FaultConfig, LinkDirStats, LinkRuntime};
use crate::packet::{Addr, Packet, Prefix};
use crate::sim::Simulator;
use crate::time::SimTime;
use crate::topology::{NodeId, PrefixTable};
use dui_stats::digest::StateDigest;
use dui_stats::wire::{self, DecodeError, Encoder, Encoding, ErrorKind, Reader, Sink, Var, VarQty};
use dui_stats::wire::{Walk, Wire, Writer};
use dui_stats::Rng;

impl Simulator {
    /// The state encoder's sections, in order, each with the seed of its
    /// component digest.
    pub const SECTIONS: [(&'static str, StateDigest); 5] = [
        ("core", StateDigest::labeled("core")),
        ("queue", StateDigest::labeled("queue")),
        ("links", StateDigest::labeled("links")),
        ("routes", StateDigest::labeled("routes")),
        ("nodes", StateDigest::labeled("nodes")),
    ];

    /// Section `i` of the state encoder, named in [`Simulator::SECTIONS`]:
    ///
    /// * `core` — clock, packet-id cursor, RNG words, started flag;
    /// * `queue` — pending events in dispatch order;
    /// * `links` — per link its up flag; per direction its queue,
    ///   in-flight packet, fault and statistics; then each direction's
    ///   taps, each as it encodes itself;
    /// * `routes` — every next hop, then the announced prefixes;
    /// * `nodes` — per node whether a logic is installed, and its state
    ///   as one blob.
    pub fn encode_section(&self, i: usize, s: &mut Sink<'_>) {
        let core = &self.core;
        match i {
            0 => {
                s.varint(core.now.0);
                s.varint(core.next_pkt_id);
                core.rng.put(s);
                s.bool(self.started);
            }
            1 => s.seq(core.queue.snapshot_refs(), |s, (t, event)| {
                s.varint(t.0);
                event.encode(s, &core.arena);
            }),
            2 => s.seq(&core.links, |s, lr| {
                s.bool(lr.up);
                for (st, stats) in [(&lr.ab, &lr.stats_ab), (&lr.ba, &lr.stats_ba)] {
                    s.seq(&st.queue, |s, &p| core.pkt(p).put(s));
                    s.opt(st.in_flight, |s, p| core.pkt(p).put(s));
                    st.fault.put(s);
                    stats.put(s);
                }
                for taps in [&lr.taps_ab, &lr.taps_ba] {
                    if !taps.is_empty() {
                        s.refuse("cannot checkpoint a simulation with link taps installed");
                    }
                    s.seq(taps, |s, tap| tap.encode(s));
                }
            }),
            3 => {
                let n = core.topo.node_count();
                for src in 0..n {
                    for dst in 0..n {
                        let hop = core.routing.next_hop(NodeId(src), NodeId(dst));
                        s.opt(hop, |s, h| s.varint_usize(h.0));
                    }
                }
                s.seq(core.prefixes.entries(), |s, &(p, node)| {
                    s.u32(p.addr.0);
                    s.u8(p.len);
                    s.varint_usize(node.0);
                });
            }
            _ => s.seq(&self.logics, |s, l| {
                s.opt(l.as_deref(), |s, l| s.blob(|s| l.encode(s)));
            }),
        }
    }

    /// One walk over the state encoder, labelled `netsim`: the section
    /// digests, the state hash and, if `bytes`, the checkpoint — the
    /// [`Simulator::fingerprint`], every section, the state hash — unless
    /// a link tap or a part with no decoder refused it.
    pub fn walk(&self, bytes: bool) -> Walk {
        let head = bytes.then(|| {
            let mut w = Writer::with_capacity(256);
            w.u64(self.fingerprint());
            w
        });
        let mut walk = wire::walk("netsim", &Self::SECTIONS, head, |i, s| {
            self.encode_section(i, s)
        });
        if let Some(w) = &mut walk.bytes {
            w.u64(walk.hash);
        }
        walk
    }

    /// 64-bit digest of the engine's complete logical state
    /// ([`Simulator::walk`]).
    pub fn state_hash(&self) -> u64 {
        self.walk(false).hash
    }

    /// Digest of the static configuration a checkpoint binds to: the
    /// node count, then each link's bandwidth, delay and queue capacity.
    /// It heads every checkpoint and is in no state hash.
    pub fn fingerprint(&self) -> u64 {
        let topo = &self.core.topo;
        let mut d = StateDigest::labeled("config");
        d.varint_usize(topo.node_count());
        d.seq(topo.links(), |d, l| {
            d.u64(l.bandwidth.0);
            d.u64(l.delay.0);
            d.varint_usize(l.queue_cap);
        });
        d.finish()
    }

    /// A restorable checkpoint ([`Simulator::walk`]), or the first
    /// refusal written.
    pub fn checkpoint(&self) -> Result<Vec<u8>, String> {
        let walk = self.walk(true);
        walk.bytes
            .map(Writer::into_bytes)
            .ok_or_else(|| walk.refusal.unwrap_or_default().into())
    }

    /// Restore a checkpoint taken from a simulator with the same
    /// topology and node logics (typically a freshly rebuilt scenario).
    ///
    /// A checkpoint whose fingerprint is not this simulator's is refused
    /// first, as [`ErrorKind::Config`]. Nothing is committed until the
    /// bytes have decoded and every id they name has been checked
    /// against this topology and its installed logics, with the
    /// invariants dispatch relies on: no event in the past or out of
    /// order, next hops adjacent, exactly one pending `TxComplete` per
    /// busy transmitter, no taps, a blob for exactly each installed
    /// logic. The restored state must then reproduce the checkpoint's
    /// state hash. (A node
    /// logic that refuses its blob, or a hash that does not reproduce,
    /// fails the restore after the commit has begun.) Pending events are
    /// re-scheduled in dispatch order, so the rebuilt queue pops
    /// identically; arena slots and wheel internals are rebuilt fresh.
    /// Telemetry counters are not restored, matching their absence from
    /// the state hash.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(bytes);
        // Taps have no decoder: a tapped simulation is hashed, not restored.
        if self
            .core
            .links
            .iter()
            .any(|lr| lr.taps_ab.len() + lr.taps_ba.len() > 0)
        {
            return Err(r.error("restore target with link taps", ErrorKind::Invalid));
        }
        if r.u64("configuration fingerprint")? != self.fingerprint() {
            return Err(r.error("configuration fingerprint", ErrorKind::Config));
        }
        let topo = &self.core.topo;
        let n = topo.node_count();
        let now: SimTime = VarQty::read(&mut r, "engine clock")?;
        let next_pkt_id = VarQty::read(&mut r, "next packet id")?;
        let rng = Rng::take(&mut r)?;
        let started = r.bool("started flag")?;

        let mut arena = PacketArena::new();
        let mut prev = now;
        // Pending `TxComplete`s per link direction.
        let mut completions = vec![[0usize; 2]; self.core.links.len()];
        let least = VarQty::<SimTime>::LEAST + Event::MIN_BYTES;
        let events = r.seq("pending events", Reader::varint, least, |r| {
            let t: SimTime = VarQty::read(r, "event time")?;
            let event = Event::decode(r, &mut arena)?;
            let known = match event {
                Event::Deliver { node, .. } | Event::Timer { node, .. } => node.0 < n,
                Event::TxComplete { link, dir } => completions
                    .get_mut(link.0)
                    .map(|c| c[usize::from(dir == Dir::BtoA)] += 1)
                    .is_some(),
                Event::Offer { link, .. } => link.0 < completions.len(),
            };
            if t < prev || !known {
                return Err(r.error("pending event", ErrorKind::Invalid));
            }
            prev = t;
            Ok((t, event))
        })?;

        if r.varint("link count")? != self.core.links.len() as u64 {
            return Err(r.error("link count", ErrorKind::Invalid));
        }
        let mut links = Vec::with_capacity(self.core.links.len());
        for (info, busy) in topo.links().iter().zip(completions) {
            let mut lr = LinkRuntime::new(info.clone());
            lr.up = r.bool("link up flag")?;
            let dirs = [
                (&mut lr.ab, &mut lr.stats_ab),
                (&mut lr.ba, &mut lr.stats_ba),
            ];
            for ((st, stats), busy) in dirs.into_iter().zip(busy) {
                let mut packet = |r: &mut Reader| Ok(arena.insert(Packet::take(r)?));
                let queue = r.seq("link queue", Reader::varint, Packet::MIN_BYTES, &mut packet)?;
                st.queue = queue.into();
                st.in_flight = r.opt("in-flight packet", |r, _| packet(r))?;
                st.fault = FaultConfig::take(&mut r)?;
                *stats = LinkDirStats::take(&mut r)?;
                if busy != usize::from(st.in_flight.is_some()) {
                    return Err(r.error("pending transmitter completions", ErrorKind::Invalid));
                }
            }
            if r.varint("tap count")? != 0 || r.varint("tap count")? != 0 {
                return Err(r.error("tap count", ErrorKind::Invalid));
            }
            links.push(lr);
        }

        let mut routing = self.core.routing.clone();
        for src in (0..n).map(NodeId) {
            for dst in (0..n).map(NodeId) {
                let hop = Option::<Var<NodeId>>::read(&mut r, "next hop")?;
                if hop.is_some_and(|h| h.0 >= n || topo.link_between(src, h).is_none()) {
                    return Err(r.error("next hop", ErrorKind::Invalid));
                }
                routing.set_next_hop(src, dst, hop);
            }
        }
        let mut prefixes = PrefixTable::new();
        for _ in 0..r.varint("prefix count")? {
            let addr = Addr(r.u32("prefix address")?);
            let len = r.u8("prefix length")?;
            // `Prefix::new` asserts the length and masks host bits off; a
            // blob that relies on either is not one the encoder wrote.
            if len > 32 || Prefix::new(addr, len).addr != addr {
                return Err(r.error("prefix", ErrorKind::Range));
            }
            let node: NodeId = Var::read(&mut r, "prefix node")?;
            // The table keeps longest prefixes first; a blob in another
            // order would be re-sorted, not restored.
            let longer = prefixes.entries().last().is_some_and(|(p, _)| p.len < len);
            if node.0 >= n || longer {
                return Err(r.error("prefix", ErrorKind::Invalid));
            }
            prefixes.announce(Prefix::new(addr, len), node);
        }

        let blobs = r.seq("node count", Reader::varint, 1, |r| {
            r.opt("node state", |r, what| r.bytes(what))
        })?;
        let installed = self.logics.iter().map(Option::is_some);
        if !blobs.iter().map(Option::is_some).eq(installed) {
            return Err(r.error("installed node logics", ErrorKind::Invalid));
        }
        let state_hash = r.u64("engine state hash")?;
        r.finish("engine checkpoint")?;
        for (logic, blob) in self.logics.iter_mut().zip(&blobs) {
            if let (Some(l), Some(bytes)) = (logic, blob) {
                l.load_state(bytes)?;
            }
        }
        self.core.now = now;
        self.core.next_pkt_id = next_pkt_id;
        self.core.rng = rng;
        self.started = started;
        self.core.arena = arena;
        let mut queue = EventQueue::new();
        for (t, event) in events {
            queue.schedule(t, event);
        }
        self.core.queue = queue;
        // Counters in the registry export deltas against the last synced
        // wheel/arena stats; both were just replaced, so re-baseline.
        self.core.metrics.last_wheel = self.core.queue.wheel_stats();
        self.core.metrics.last_recycled = self.core.arena.recycled();
        self.core.links = links;
        self.core.routing = routing;
        self.core.prefixes = prefixes;
        if self.state_hash() != state_hash {
            return Err(DecodeError {
                what: "engine state hash",
                at: bytes.len() - 8,
                kind: ErrorKind::Invalid,
            });
        }
        Ok(())
    }
}
