//! The engine's logical state, written once.
//!
//! [`Simulator::encode_section`] is the one description of that state:
//! five named sections, in order, generic over [`Encoder`]. Folded into
//! one [`StateDigest`] they are [`Simulator::state_hash`]; folded one
//! section at a time they are the component digests a replay divergence
//! names; written with a [`Writer`] they are the bytes of
//! [`Simulator::checkpoint`]. [`Simulator::restore`], beside it, is the
//! decoder.
//!
//! The digest and the bytes differ in one place, an installed node
//! logic: the digest folds its [`NodeLogic::state_digest`], the bytes
//! carry its [`NodeLogic::save_state`] blob. Data-plane programs and
//! ICMP rewriters are trait objects with no codec, so a node running
//! one can be hashed but not saved.
//!
//! Telemetry (the metrics registry) is observability about a run, not
//! state that influences it, and is in no section. Arena slots, wheel
//! internals and event sequence numbers are implementation detail too:
//! pending events are written in dispatch order, packets by content.

use crate::arena::PacketArena;
use crate::event::{Event, EventQueue};
use crate::link::{Dir, FaultConfig, LinkDirStats, LinkRuntime};
use crate::node::NodeLogic;
use crate::packet::{Addr, Packet, Prefix};
use crate::sim::Simulator;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, PrefixTable, Routing};
use dui_stats::digest::StateDigest;
use dui_stats::wire::{DecodeError, Encoder, ErrorKind, Reader, Writer};
use dui_stats::Rng;

// Smallest encodings, for `Reader::count`: a pending event is a time, a
// tag and a `TxComplete`; a link its flag, two empty directions (count,
// flag, fault, six counters) and two tap counts; a prefix an address, a
// length and a node.
const MIN_PENDING_BYTES: usize = 1 + 1 + 2;
const MIN_LINK_BYTES: usize = 1 + 2 * (1 + 1 + 9 + 6) + 2;
const MIN_PREFIX_BYTES: usize = 4 + 1 + 1;

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
    ///   in-flight packet, fault and statistics; then its tap counts;
    /// * `routes` — every next hop, then the announced prefixes;
    /// * `nodes` — per node whether a logic is installed, and what
    ///   `logic` writes for it.
    pub fn encode_section<E: Encoder>(
        &self,
        i: usize,
        e: &mut E,
        logic: &mut impl FnMut(&mut E, NodeId, &dyn NodeLogic),
    ) {
        let core = &self.core;
        match i {
            0 => {
                e.varint(core.now.0);
                e.varint(core.next_pkt_id);
                core.rng.state().into_iter().for_each(|w| e.u64(w));
                e.bool(self.started);
            }
            1 => e.seq(core.queue.snapshot_refs(), |e, (t, event)| {
                e.varint(t.0);
                event.encode(e, &core.arena);
            }),
            2 => e.seq(&core.links, |e, lr| {
                e.bool(lr.up);
                for (st, stats) in [(&lr.ab, &lr.stats_ab), (&lr.ba, &lr.stats_ba)] {
                    e.seq(&st.queue, |e, &p| core.pkt(p).encode(e));
                    e.opt(st.in_flight, |e, p| core.pkt(p).encode(e));
                    e.f64(st.fault.drop_prob);
                    e.opt(st.fault.jitter_max, |e, j| e.varint(j.0));
                    for c in [
                        stats.offered,
                        stats.delivered,
                        stats.bytes_delivered,
                        stats.dropped_queue,
                        stats.dropped_tap,
                        stats.dropped_fault,
                    ] {
                        e.varint(c);
                    }
                }
                e.varint_usize(lr.taps_ab.len());
                e.varint_usize(lr.taps_ba.len());
            }),
            3 => {
                let n = core.topo.node_count();
                for src in 0..n {
                    for dst in 0..n {
                        let hop = core.routing.next_hop(NodeId(src), NodeId(dst));
                        e.opt(hop, |e, h| e.varint_usize(h.0));
                    }
                }
                e.seq(core.prefixes.entries(), |e, &(p, node)| {
                    e.u32(p.addr.0);
                    e.u8(p.len);
                    e.varint_usize(node.0);
                });
            }
            _ => e.seq(self.logics.iter().enumerate(), |e, (node, l)| {
                e.opt(l.as_deref(), |e, l| logic(e, NodeId(node), l));
            }),
        }
    }

    /// Fold section `i` into `d` the way the state hash folds it: an
    /// installed node logic contributes its [`NodeLogic::state_digest`].
    pub fn digest_section(&self, i: usize, d: &mut StateDigest) {
        self.encode_section(i, d, &mut |d, _, l| l.state_digest(d));
    }

    /// Fold the engine's complete logical state into `d`: every section
    /// of [`Simulator::encode_section`], in order.
    pub fn state_digest(&self, d: &mut StateDigest) {
        for i in 0..Self::SECTIONS.len() {
            self.digest_section(i, d);
        }
    }

    /// 64-bit digest of the engine's complete logical state.
    pub fn state_hash(&self) -> u64 {
        let mut d = StateDigest::labeled("netsim");
        self.state_digest(&mut d);
        d.finish()
    }

    /// A restorable checkpoint: every section written as bytes, then
    /// the state hash.
    ///
    /// Fails (all-or-nothing) if a link tap is installed or an installed
    /// node logic has no [`NodeLogic::save_state`] — both are trait
    /// objects with no serialization contract. Recordings of such
    /// simulations remain hash-checkable, just not resumable.
    pub fn checkpoint(&self) -> Result<Vec<u8>, String> {
        if self.tapped() {
            return Err("cannot checkpoint a simulation with link taps installed".into());
        }
        let blobs = self
            .logics
            .iter()
            .enumerate()
            .map(|(i, logic)| match logic {
                None => Ok(None),
                Some(l) => l.save_state().map(Some).ok_or_else(|| {
                    format!(
                        "node '{}' has logic that does not support checkpointing",
                        self.core.topo.node(NodeId(i)).name
                    )
                }),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut w = Writer::with_capacity(256);
        for i in 0..Self::SECTIONS.len() {
            self.encode_section(i, &mut w, &mut |w, node, _| {
                if let Some(Some(blob)) = blobs.get(node.0) {
                    w.bytes(blob);
                }
            });
        }
        w.u64(self.state_hash());
        Ok(w.into_bytes())
    }

    /// Restore a checkpoint taken from a simulator with the same
    /// topology and node logics (typically a freshly rebuilt scenario).
    ///
    /// Nothing is committed until the bytes have decoded and every id
    /// they name has been checked against this topology; the restored
    /// state must then reproduce the checkpoint's state hash. (A node
    /// logic that refuses its blob, or a hash that does not reproduce,
    /// fails the restore after the commit has begun.) Pending events are
    /// re-scheduled in dispatch order, so the rebuilt queue pops
    /// identically; arena slots and wheel internals are rebuilt fresh.
    /// Telemetry counters are not restored, matching their absence from
    /// the state hash.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        if self.tapped() {
            return Err("cannot restore into a simulation with link taps installed".into());
        }
        let c = self.decode(bytes).map_err(|e| e.to_string())?;
        for (i, (logic, blob)) in self.logics.iter().zip(&c.blobs).enumerate() {
            if logic.is_some() != blob.is_some() {
                return Err(format!(
                    "checkpoint and simulator disagree on whether node '{}' has logic installed",
                    self.core.topo.node(NodeId(i)).name
                ));
            }
        }
        for (logic, blob) in self.logics.iter_mut().zip(&c.blobs) {
            if let (Some(l), Some(bytes)) = (logic, blob) {
                l.load_state(bytes).map_err(|e| e.to_string())?;
            }
        }
        self.core.now = c.now;
        self.core.next_pkt_id = c.next_pkt_id;
        self.core.rng = Rng::from_state(c.rng);
        self.started = c.started;
        self.core.arena = c.arena;
        let mut queue = EventQueue::new();
        for (t, event) in c.events {
            queue.schedule(t, event);
        }
        self.core.queue = queue;
        // Counters in the registry export deltas against the last synced
        // wheel/arena stats; both were just replaced, so re-baseline.
        self.core.metrics.last_wheel = self.core.queue.wheel_stats();
        self.core.metrics.last_recycled = self.core.arena.recycled();
        self.core.links = c.links;
        self.core.routing = c.routing;
        self.core.prefixes = c.prefixes;
        if self.state_hash() != c.state_hash {
            return Err("restored state does not reproduce the checkpoint's state hash".into());
        }
        Ok(())
    }

    /// Whether a link tap is installed: taps are trait objects with no
    /// codec, so such a simulation can be hashed but not saved.
    fn tapped(&self) -> bool {
        let taps = |lr: &LinkRuntime| lr.taps_ab.len() + lr.taps_ba.len();
        self.core.links.iter().any(|lr| taps(lr) > 0)
    }

    /// The decoder of [`Simulator::checkpoint`]'s bytes. It trusts
    /// nothing: every count must be this topology's, every id must exist
    /// in it, and the invariants dispatch relies on must hold — no event
    /// in the past or out of order, next hops adjacent, exactly one
    /// pending `TxComplete` per busy transmitter, no taps.
    fn decode<'a>(&self, bytes: &'a [u8]) -> Result<Decoded<'a>, DecodeError> {
        let topo = &self.core.topo;
        let n = topo.node_count();
        let mut r = Reader::new(bytes);
        let now = SimTime(r.varint_quantity("engine clock")?);
        let next_pkt_id = r.varint_quantity("next packet id")?;
        let mut rng = [0u64; 4];
        for word in &mut rng {
            *word = r.u64("engine rng")?;
        }
        let started = r.bool("started flag")?;

        let mut arena = PacketArena::new();
        let mut prev = now;
        // Pending `TxComplete`s per link direction.
        let mut completions = vec![[0usize; 2]; self.core.links.len()];
        let events = r.seq("pending events", Reader::varint, MIN_PENDING_BYTES, |r| {
            let t = SimTime(r.varint_quantity("event time")?);
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

        if r.count("link count", Reader::varint, MIN_LINK_BYTES)? != self.core.links.len() {
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
                let queue = r.seq("link queue", Reader::varint, Packet::MIN_WIRE_BYTES, |r| {
                    Ok(arena.insert(Packet::decode(r)?))
                })?;
                st.queue = queue.into();
                st.in_flight = r.opt("in-flight packet", |r, _| {
                    Ok(arena.insert(Packet::decode(r)?))
                })?;
                st.fault = FaultConfig {
                    drop_prob: r.f64("fault drop_prob")?,
                    jitter_max: r
                        .opt("fault jitter", Reader::varint_quantity)?
                        .map(SimDuration),
                };
                *stats = LinkDirStats {
                    offered: r.varint_quantity("link offered")?,
                    delivered: r.varint_quantity("link delivered")?,
                    bytes_delivered: r.varint_quantity("link bytes delivered")?,
                    dropped_queue: r.varint_quantity("link queue drops")?,
                    dropped_tap: r.varint_quantity("link tap drops")?,
                    dropped_fault: r.varint_quantity("link fault drops")?,
                };
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
                let hop = r.opt("next hop", Reader::varint_usize)?.map(NodeId);
                if hop.is_some_and(|h| h.0 >= n || topo.link_between(src, h).is_none()) {
                    return Err(r.error("next hop", ErrorKind::Invalid));
                }
                routing.set_next_hop(src, dst, hop);
            }
        }
        let mut prefixes = PrefixTable::new();
        for _ in 0..r.count("prefix count", Reader::varint, MIN_PREFIX_BYTES)? {
            let addr = Addr(r.u32("prefix address")?);
            let len = r.u8("prefix length")?;
            // `Prefix::new` asserts the length and masks host bits off; a
            // blob that relies on either is not one the encoder wrote.
            if len > 32 || Prefix::new(addr, len).addr != addr {
                return Err(r.error("prefix", ErrorKind::Range));
            }
            let node = NodeId(r.varint_usize("prefix node")?);
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
        if blobs.len() != n {
            return Err(r.error("node count", ErrorKind::Invalid));
        }
        let state_hash = r.u64("engine state hash")?;
        r.finish("engine checkpoint")?;
        Ok(Decoded {
            now,
            next_pkt_id,
            rng,
            started,
            arena,
            events,
            links,
            routing,
            prefixes,
            blobs,
            state_hash,
        })
    }
}

/// A decoded, checked checkpoint, not yet committed.
struct Decoded<'a> {
    now: SimTime,
    next_pkt_id: u64,
    rng: [u64; 4],
    started: bool,
    arena: PacketArena,
    events: Vec<(SimTime, Event)>,
    links: Vec<LinkRuntime>,
    routing: Routing,
    prefixes: PrefixTable,
    blobs: Vec<Option<&'a [u8]>>,
    state_hash: u64,
}
