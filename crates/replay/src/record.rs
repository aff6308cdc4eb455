//! The recording format: a compact, versioned binary event stream with
//! periodic state checkpoints, plus the byte codecs for restorable
//! checkpoint payloads.
//!
//! Everything is built on the primitives of [`dui_stats::wire`] — LEB128
//! varints for counts/times and fixed 8-byte little-endian words for
//! digests (which are full-entropy and would *expand* under varint
//! coding). No serde, no external crates.
//!
//! ## Layout (version 1)
//!
//! ```text
//! magic      "DUIR"
//! version    varint (= 1)
//! stage      varint len + utf8
//! config     8-byte LE config digest
//! names      varint count, each varint len + utf8   (kinds + components)
//! events     varint count, each:
//!              varint delta-time (ns since previous event)
//!              varint name index (event kind)
//!              8-byte LE event digest
//! ckpts      varint count, each:
//!              varint event index (events applied before this point)
//!              varint absolute time (ns)
//!              8-byte LE state hash
//!              varint component count, each: varint name index + 8-byte digest
//!              payload flag (0/1) + varint len + bytes   (restorable state)
//! final      8-byte LE final state hash
//! ```

use crate::replay::ReplaySubject;
use dui_blink::fastsim::{AttackSimSnapshot, FlowState};
use dui_blink::selector::{Cell, SelectorSnapshot, SelectorStats};
use dui_netsim::event::SavedEvent;
use dui_netsim::link::{Dir, FaultConfig, LinkDirStats};
use dui_netsim::packet::{Addr, FlowKey, Header, Packet, Prefix, Proto, TcpFlags};
use dui_netsim::sim::{DirCheckpoint, EngineCheckpoint, LinkCheckpoint};
use dui_netsim::time::{SimDuration, SimTime};
use dui_netsim::topology::{LinkId, NodeId};
use dui_stats::wire::{DecodeError, ErrorKind, Reader, Writer};

/// Recording format magic bytes.
pub const MAGIC: [u8; 4] = *b"DUIR";
/// Current format version.
pub const VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Frames and the Recording container
// ---------------------------------------------------------------------------

/// One dispatched event: when, what kind, and the digest of its full
/// content (the event's index is its position in [`Recording::events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFrame {
    /// Absolute event time (ns).
    pub time: u64,
    /// Index into [`Recording::names`] naming the event kind.
    pub kind: u32,
    /// Digest of the event's content.
    pub digest: u64,
}

/// A periodic state checkpoint taken between events.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFrame {
    /// Number of events applied before this checkpoint was taken.
    pub event_index: u64,
    /// Simulated time at the checkpoint (ns).
    pub time: u64,
    /// The subject's full state hash.
    pub state_hash: u64,
    /// Per-component sub-digests `(name index, digest)` — what lets
    /// divergence reports *name* the mismatching subsystem.
    pub components: Vec<(u32, u64)>,
    /// Restorable serialized state, when the subject supports it.
    pub payload: Option<Vec<u8>>,
}

/// One run's complete recording.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recording {
    /// Which experiment stage produced this (e.g. `fig2`).
    pub stage: String,
    /// Digest of the run configuration (seed included); replaying against
    /// a differently-configured subject is refused up front.
    pub config_digest: u64,
    /// Interned names: event kinds and checkpoint component names.
    pub names: Vec<String>,
    /// The event stream, in dispatch order.
    pub events: Vec<EventFrame>,
    /// Periodic checkpoints, in event order.
    pub checkpoints: Vec<CheckpointFrame>,
    /// State hash after the final event.
    pub final_hash: u64,
}

// Smallest encodings, for `Reader::count`: an event is two one-byte
// varints and a digest; a component a varint and a digest; a checkpoint
// two varints, a hash, a component count and a flag. (A name can be one
// length byte.)
const MIN_EVENT_BYTES: usize = 1 + 1 + 8;
const MIN_COMP_BYTES: usize = 1 + 8;
const MIN_CKPT_BYTES: usize = 1 + 1 + 8 + 1 + 1;

impl Recording {
    /// Intern `name`, returning its table index.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u32
    }

    /// Resolve a name index (`"?"` if out of range — a corrupt index is
    /// reported, not panicked on).
    pub fn name(&self, idx: u32) -> &str {
        self.names.get(idx as usize).map_or("?", |s| s.as_str())
    }

    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.events.len() * 12);
        w.raw(&MAGIC);
        w.varint(VERSION);
        w.str(&self.stage);
        w.u64(self.config_digest);
        w.seq(&self.names, |w, n| w.str(n));
        let mut prev = 0u64;
        w.seq(&self.events, |w, e| {
            w.varint(e.time.saturating_sub(prev));
            prev = e.time;
            w.varint(u64::from(e.kind));
            w.u64(e.digest);
        });
        w.seq(&self.checkpoints, |w, c| {
            w.varint(c.event_index);
            w.varint(c.time);
            w.u64(c.state_hash);
            w.seq(&c.components, |w, (name, digest)| {
                w.varint(u64::from(*name));
                w.u64(*digest);
            });
            w.opt(c.payload.as_deref(), Writer::bytes);
        });
        w.u64(self.final_hash);
        w.into_bytes()
    }

    /// Parse the versioned binary format (strict: trailing bytes are an
    /// error).
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, DecodeError> {
        let mut r = Reader::new(bytes);
        r.tag("DUIR magic", &MAGIC)?;
        if r.varint("recording version")? != VERSION {
            return Err(r.error("recording version", ErrorKind::Tag));
        }
        let stage = r.str("stage")?.to_string();
        let config_digest = r.u64("config digest")?;
        let names = r.seq("name count", Reader::varint, 1, |r| {
            Ok(r.str("name")?.to_string())
        })?;
        let mut time = 0u64;
        let events = r.seq("event count", Reader::varint, MIN_EVENT_BYTES, |r| {
            let dt = r.varint("event delta-time")?;
            time = time
                .checked_add(dt)
                .ok_or_else(|| r.error("event time", ErrorKind::Range))?;
            let kind = r.varint_u32("event kind")?;
            let digest = r.u64("event digest")?;
            Ok(EventFrame { time, kind, digest })
        })?;
        let checkpoints = r.seq("checkpoints", Reader::varint, MIN_CKPT_BYTES, |r| {
            Ok(CheckpointFrame {
                event_index: r.varint("checkpoint event index")?,
                time: r.varint("checkpoint time")?,
                state_hash: r.u64("checkpoint state hash")?,
                components: r.seq("component count", Reader::varint, MIN_COMP_BYTES, |r| {
                    Ok((r.varint_u32("component name")?, r.u64("component digest")?))
                })?,
                payload: r.opt("checkpoint payload", |r, what| Ok(r.bytes(what)?.to_vec()))?,
            })
        })?;
        let final_hash = r.u64("final hash")?;
        r.finish("recording")?;
        Ok(Recording {
            stage,
            config_digest,
            names,
            events,
            checkpoints,
            final_hash,
        })
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> Result<Recording, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Recording::from_bytes(&bytes).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Drives a [`ReplaySubject`] to completion, producing a [`Recording`]
/// with a checkpoint every `ckpt_every` events (plus one final
/// checkpoint after the last event).
pub struct Recorder {
    rec: Recording,
    ckpt_every: u64,
}

impl Recorder {
    /// New recorder for `stage` (config digest binds the recording to
    /// one exact configuration + seed).
    pub fn new(stage: &str, config_digest: u64, ckpt_every: u64) -> Self {
        assert!(ckpt_every > 0, "checkpoint cadence must be positive");
        Recorder {
            rec: Recording {
                stage: stage.to_string(),
                config_digest,
                ..Recording::default()
            },
            ckpt_every,
        }
    }

    fn take_checkpoint<S: ReplaySubject + ?Sized>(&mut self, subject: &S, event_index: u64) {
        let components = subject
            .component_digests()
            .into_iter()
            .map(|(name, digest)| (self.rec.intern(name), digest))
            .collect();
        self.rec.checkpoints.push(CheckpointFrame {
            event_index,
            time: subject.now_ns(),
            state_hash: subject.state_hash(),
            components,
            payload: subject.save_checkpoint(),
        });
    }

    /// Run `subject` to completion, recording every event and a
    /// checkpoint every `ckpt_every` events.
    ///
    /// A subject's terminal `step()` (the one returning `None`) may
    /// itself mutate state — the packet engine advances its clock to the
    /// limit, the fast simulation flushes its tail samples. The final
    /// checkpoint is therefore always taken *after* that terminal step,
    /// replacing any boundary checkpoint that landed on the same event
    /// index, and the [`Replayer`](crate::replay::Replayer) performs the
    /// terminal step before checking it.
    pub fn record<S: ReplaySubject + ?Sized>(mut self, subject: &mut S) -> Recording {
        let mut n = 0u64;
        self.take_checkpoint(subject, 0);
        while let Some(step) = subject.step() {
            let kind = self.rec.intern(step.kind);
            self.rec.events.push(EventFrame {
                time: step.time,
                kind,
                digest: step.digest,
            });
            n += 1;
            if n % self.ckpt_every == 0 {
                self.take_checkpoint(subject, n);
            }
        }
        // The terminal step already ran; a boundary checkpoint taken just
        // before it would capture pre-terminal state under the same event
        // index. Keep exactly one post-terminal checkpoint at index n.
        if self
            .rec
            .checkpoints
            .last()
            .is_some_and(|c| c.event_index == n)
        {
            self.rec.checkpoints.pop();
        }
        self.take_checkpoint(subject, n);
        self.rec.final_hash = subject.state_hash();
        self.rec
    }
}

// ---------------------------------------------------------------------------
// Checkpoint payload codecs
// ---------------------------------------------------------------------------

// The varint form of a flow key (checkpoint payloads); node-state blobs
// use the fixed-width `FlowKey::encode`.
fn write_flow_key(w: &mut Writer, k: &FlowKey) {
    w.varint(u64::from(k.src.0));
    w.varint(u64::from(k.dst.0));
    w.varint(u64::from(k.sport));
    w.varint(u64::from(k.dport));
    w.u8(k.proto.code());
}

fn read_flow_key(r: &mut Reader) -> Result<FlowKey, DecodeError> {
    Ok(FlowKey {
        src: Addr(r.varint_u32("flow key src")?),
        dst: Addr(r.varint_u32("flow key dst")?),
        sport: r.varint_u16("flow key sport")?,
        dport: r.varint_u16("flow key dport")?,
        proto: Proto::from_code(r.u8("flow key proto")?)
            .ok_or_else(|| r.error("flow key proto", ErrorKind::Tag))?,
    })
}

fn write_header(w: &mut Writer, h: &Header) {
    match h {
        Header::Tcp {
            seq,
            ack,
            flags,
            window,
        } => {
            w.u8(0);
            w.varint(u64::from(*seq));
            w.varint(u64::from(*ack));
            w.u8(flags.bits());
            w.varint(u64::from(*window));
        }
        Header::Udp => w.u8(1),
        Header::IcmpEchoRequest { ident, seq } => {
            w.u8(2);
            w.varint(u64::from(*ident));
            w.varint(u64::from(*seq));
        }
        Header::IcmpEchoReply { ident, seq } => {
            w.u8(3);
            w.varint(u64::from(*ident));
            w.varint(u64::from(*seq));
        }
        Header::IcmpTimeExceeded {
            reported_by,
            probe_ident,
            probe_seq,
        } => {
            w.u8(4);
            w.varint(u64::from(reported_by.0));
            w.varint(u64::from(*probe_ident));
            w.varint(u64::from(*probe_seq));
        }
    }
}

fn read_header(r: &mut Reader) -> Result<Header, DecodeError> {
    Ok(match r.u8("header tag")? {
        0 => Header::Tcp {
            seq: r.varint_u32("tcp seq")?,
            ack: r.varint_u32("tcp ack")?,
            flags: TcpFlags::from_bits(r.u8("tcp flags")?)
                .ok_or_else(|| r.error("tcp flags", ErrorKind::Tag))?,
            window: r.varint_u32("tcp window")?,
        },
        1 => Header::Udp,
        2 => Header::IcmpEchoRequest {
            ident: r.varint_u16("icmp ident")?,
            seq: r.varint_u16("icmp seq")?,
        },
        3 => Header::IcmpEchoReply {
            ident: r.varint_u16("icmp ident")?,
            seq: r.varint_u16("icmp seq")?,
        },
        4 => Header::IcmpTimeExceeded {
            reported_by: Addr(r.varint_u32("icmp reporter")?),
            probe_ident: r.varint_u16("icmp probe ident")?,
            probe_seq: r.varint_u16("icmp probe seq")?,
        },
        _ => return Err(r.error("header tag", ErrorKind::Tag)),
    })
}

/// Encode one packet.
pub fn write_packet(w: &mut Writer, p: &Packet) {
    w.varint(p.id);
    write_flow_key(w, &p.key);
    write_header(w, &p.header);
    w.varint(u64::from(p.size));
    w.u8(p.ttl);
    w.varint(p.sent_at.0);
    w.varint(u64::from(p.payload));
}

/// Decode one packet.
pub fn read_packet(r: &mut Reader) -> Result<Packet, DecodeError> {
    Ok(Packet {
        id: r.varint("packet id")?,
        key: read_flow_key(r)?,
        header: read_header(r)?,
        size: r.varint_u32("packet size")?,
        ttl: r.u8("packet ttl")?,
        sent_at: SimTime(r.varint_quantity("packet sent_at")?),
        payload: r.varint_u32("packet payload")?,
    })
}

/// Smallest encoded packet: one-byte varints around a UDP header.
const MIN_PACKET_BYTES: usize = 1 + 5 + 1 + 1 + 1 + 1 + 1;

fn read_dir(r: &mut Reader) -> Result<Dir, DecodeError> {
    Ok(if r.bool("link direction")? {
        Dir::BtoA
    } else {
        Dir::AtoB
    })
}

fn write_event(w: &mut Writer, e: &SavedEvent) {
    match e {
        SavedEvent::Deliver { node, pkt } => {
            w.u8(0);
            w.varint_usize(node.0);
            write_packet(w, pkt);
        }
        SavedEvent::TxComplete { link, dir } => {
            w.u8(1);
            w.varint_usize(link.0);
            w.bool(*dir == Dir::BtoA);
        }
        SavedEvent::Timer { node, token } => {
            w.u8(2);
            w.varint_usize(node.0);
            w.varint(*token);
        }
        SavedEvent::Offer { link, dir, pkt } => {
            w.u8(3);
            w.varint_usize(link.0);
            w.bool(*dir == Dir::BtoA);
            write_packet(w, pkt);
        }
    }
}

fn read_event(r: &mut Reader) -> Result<SavedEvent, DecodeError> {
    Ok(match r.u8("event tag")? {
        0 => SavedEvent::Deliver {
            node: NodeId(r.varint_usize("event node")?),
            pkt: read_packet(r)?,
        },
        1 => SavedEvent::TxComplete {
            link: LinkId(r.varint_usize("event link")?),
            dir: read_dir(r)?,
        },
        2 => SavedEvent::Timer {
            node: NodeId(r.varint_usize("event node")?),
            token: r.varint("timer token")?,
        },
        3 => SavedEvent::Offer {
            link: LinkId(r.varint_usize("event link")?),
            dir: read_dir(r)?,
            pkt: read_packet(r)?,
        },
        _ => return Err(r.error("event tag", ErrorKind::Tag)),
    })
}

fn write_fault(w: &mut Writer, f: &FaultConfig) {
    w.f64(f.drop_prob);
    w.opt(f.jitter_max, |w, j| w.varint(j.0));
}

fn read_fault(r: &mut Reader) -> Result<FaultConfig, DecodeError> {
    Ok(FaultConfig {
        drop_prob: r.f64("fault drop_prob")?,
        jitter_max: r
            .opt("fault jitter", Reader::varint_quantity)?
            .map(SimDuration),
    })
}

fn write_dir_ckpt(w: &mut Writer, d: &DirCheckpoint) {
    w.seq(&d.queue, write_packet);
    w.opt(d.in_flight.as_ref(), write_packet);
    write_fault(w, &d.fault);
}

fn read_dir_ckpt(r: &mut Reader) -> Result<DirCheckpoint, DecodeError> {
    Ok(DirCheckpoint {
        queue: r.seq("link queue", Reader::varint, MIN_PACKET_BYTES, read_packet)?,
        in_flight: r.opt("in-flight packet", |r, _| read_packet(r))?,
        fault: read_fault(r)?,
    })
}

fn write_link_stats(w: &mut Writer, s: &LinkDirStats) {
    for v in [
        s.offered,
        s.delivered,
        s.bytes_delivered,
        s.dropped_queue,
        s.dropped_tap,
        s.dropped_fault,
    ] {
        w.varint(v);
    }
}

fn read_link_stats(r: &mut Reader) -> Result<LinkDirStats, DecodeError> {
    Ok(LinkDirStats {
        offered: r.varint_quantity("link offered")?,
        delivered: r.varint_quantity("link delivered")?,
        bytes_delivered: r.varint_quantity("link bytes delivered")?,
        dropped_queue: r.varint_quantity("link queue drops")?,
        dropped_tap: r.varint_quantity("link tap drops")?,
        dropped_fault: r.varint_quantity("link fault drops")?,
    })
}

/// Encode a full engine checkpoint.
pub fn engine_checkpoint_to_bytes(c: &EngineCheckpoint) -> Vec<u8> {
    let mut w = Writer::with_capacity(256);
    w.varint(c.now.0);
    for word in c.rng {
        w.u64(word);
    }
    w.varint(c.next_pkt_id);
    w.bool(c.started);
    w.seq(&c.events, |w, (t, e)| {
        w.varint(t.0);
        write_event(w, e);
    });
    w.seq(&c.links, |w, l| {
        w.bool(l.up);
        write_dir_ckpt(w, &l.ab);
        write_dir_ckpt(w, &l.ba);
        write_link_stats(w, &l.stats_ab);
        write_link_stats(w, &l.stats_ba);
    });
    w.seq(&c.logics, |w, logic| w.opt(logic.as_deref(), Writer::bytes));
    w.seq(&c.routing, |w, row| {
        w.seq(row, |w, hop| w.opt(*hop, |w, h| w.varint_usize(h.0)));
    });
    w.seq(&c.prefixes, |w, (p, node)| {
        w.varint(u64::from(p.addr.0));
        w.u8(p.len);
        w.varint_usize(node.0);
    });
    w.u64(c.state_hash);
    w.into_bytes()
}

// Smallest encodings inside an engine checkpoint: a pending event is a
// time, a tag and a `TxComplete`; a link is its flag, two empty
// directions (count, flag, fault) and twelve counters.
const MIN_PENDING_BYTES: usize = 1 + 1 + 2;
const MIN_LINK_BYTES: usize = 1 + 2 * (1 + 1 + 9) + 12;
const MIN_PREFIX_BYTES: usize = 3;

/// Decode a full engine checkpoint (strict: trailing bytes are an error).
pub fn engine_checkpoint_from_bytes(bytes: &[u8]) -> Result<EngineCheckpoint, DecodeError> {
    let mut r = Reader::new(bytes);
    let now = SimTime(r.varint_quantity("engine clock")?);
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = r.u64("engine rng")?;
    }
    let next_pkt_id = r.varint_quantity("next packet id")?;
    let started = r.bool("started flag")?;
    let events = r.seq("pending events", Reader::varint, MIN_PENDING_BYTES, |r| {
        Ok((SimTime(r.varint_quantity("event time")?), read_event(r)?))
    })?;
    let links = r.seq("link count", Reader::varint, MIN_LINK_BYTES, |r| {
        Ok(LinkCheckpoint {
            up: r.bool("link up flag")?,
            ab: read_dir_ckpt(r)?,
            ba: read_dir_ckpt(r)?,
            stats_ab: read_link_stats(r)?,
            stats_ba: read_link_stats(r)?,
        })
    })?;
    let logics = r.seq("node count", Reader::varint, 1, |r| {
        r.opt("node state", |r, what| Ok(r.bytes(what)?.to_vec()))
    })?;
    let routing = r.seq("routing row count", Reader::varint, 1, |r| {
        r.seq("routing row length", Reader::varint, 1, |r| {
            Ok(r.opt("next hop", Reader::varint_usize)?.map(NodeId))
        })
    })?;
    let prefixes = r.seq("prefix count", Reader::varint, MIN_PREFIX_BYTES, |r| {
        let addr = Addr(r.varint_u32("prefix address")?);
        let len = r.u8("prefix length")?;
        // `Prefix::new` asserts the length and masks host bits off; a
        // blob that relies on either is not one the encoder wrote.
        if len > 32 || Prefix::new(addr, len).addr != addr {
            return Err(r.error("prefix", ErrorKind::Range));
        }
        Ok((
            Prefix::new(addr, len),
            NodeId(r.varint_usize("prefix node")?),
        ))
    })?;
    let state_hash = r.u64("engine state hash")?;
    r.finish("engine checkpoint")?;
    Ok(EngineCheckpoint {
        now,
        rng,
        next_pkt_id,
        started,
        events,
        links,
        logics,
        routing,
        prefixes,
        state_hash,
    })
}

fn write_cell(w: &mut Writer, c: &Cell) {
    write_flow_key(w, &c.flow);
    w.varint(c.last_seen.0);
    w.varint(c.sampled_at.0);
    w.varint(u64::from(c.last_seq));
    w.opt(c.last_retx, |w, t| w.varint(t.0));
    w.opt(c.last_retx_gap, |w, g| w.varint(g.0));
}

fn read_cell(r: &mut Reader) -> Result<Cell, DecodeError> {
    Ok(Cell {
        flow: read_flow_key(r)?,
        last_seen: SimTime(r.varint_quantity("cell last_seen")?),
        sampled_at: SimTime(r.varint_quantity("cell sampled_at")?),
        last_seq: r.varint_u32("cell last_seq")?,
        last_retx: r
            .opt("cell last_retx", Reader::varint_quantity)?
            .map(SimTime),
        last_retx_gap: r
            .opt("cell retx gap", Reader::varint_quantity)?
            .map(SimDuration),
    })
}

fn write_selector_snapshot(w: &mut Writer, s: &SelectorSnapshot) {
    w.seq(&s.cells, |w, cell| w.opt(cell.as_ref(), write_cell));
    w.varint(s.last_reset.0);
    w.varint(s.resets);
    for v in [
        s.stats.sampled,
        s.stats.evicted_fin,
        s.stats.evicted_idle,
        s.stats.evicted_reset,
        s.stats.retransmissions,
        s.stats.not_monitored,
    ] {
        w.varint(v);
    }
    w.opt(s.residencies.as_deref(), |w, res| {
        w.seq(res, |w, d| w.varint(d.0))
    });
}

fn read_selector_snapshot(r: &mut Reader) -> Result<SelectorSnapshot, DecodeError> {
    let cells = r.seq("cell count", Reader::varint, 1, |r| {
        r.opt("cell", |r, _| read_cell(r))
    })?;
    let last_reset = SimTime(r.varint_quantity("selector last_reset")?);
    let resets = r.varint_quantity("selector resets")?;
    let stats = SelectorStats {
        sampled: r.varint_quantity("selector sampled")?,
        evicted_fin: r.varint_quantity("selector evicted_fin")?,
        evicted_idle: r.varint_quantity("selector evicted_idle")?,
        evicted_reset: r.varint_quantity("selector evicted_reset")?,
        retransmissions: r.varint_quantity("selector retransmissions")?,
        not_monitored: r.varint_quantity("selector not_monitored")?,
    };
    let residencies = r.opt("residencies", |r, what| {
        r.seq(what, Reader::varint, 1, |r| {
            Ok(SimDuration(r.varint_quantity("residency")?))
        })
    })?;
    Ok(SelectorSnapshot {
        cells,
        last_reset,
        resets,
        stats,
        residencies,
    })
}

/// Encode a fast-simulation checkpoint.
pub fn attack_sim_snapshot_to_bytes(s: &AttackSimSnapshot) -> Vec<u8> {
    let mut w = Writer::with_capacity(256);
    for word in s.rng {
        w.u64(word);
    }
    write_selector_snapshot(&mut w, &s.selector);
    w.seq(&s.flows, |w, f| {
        write_flow_key(w, &f.key);
        w.varint(u64::from(f.seq));
        w.opt(f.dies_at, |w, t| w.varint(t.0));
    });
    w.varint(u64::from(s.sport));
    w.seq(&s.schedule, |w, (t, i)| {
        w.varint(t.0);
        w.varint_usize(*i);
    });
    w.seq(&s.series, |w, (t, v)| {
        w.f64(*t);
        w.f64(*v);
    });
    w.varint(s.next_sample.0);
    w.opt(s.takeover_time, Writer::f64);
    w.varint(s.packets);
    w.bool(s.done);
    w.into_bytes()
}

// Smallest encodings inside a fast-simulation snapshot: a flow is a key,
// a sequence number and a flag; a schedule entry two varints; a series
// point two floats.
const MIN_FLOW_BYTES: usize = 5 + 1 + 1;
const MIN_SCHEDULE_BYTES: usize = 2;
const MIN_SERIES_BYTES: usize = 16;

/// Decode a fast-simulation checkpoint (strict: trailing bytes are an
/// error).
pub fn attack_sim_snapshot_from_bytes(bytes: &[u8]) -> Result<AttackSimSnapshot, DecodeError> {
    let mut r = Reader::new(bytes);
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = r.u64("fastsim rng")?;
    }
    let selector = read_selector_snapshot(&mut r)?;
    let flows = r.seq("flow count", Reader::varint, MIN_FLOW_BYTES, |r| {
        Ok(FlowState {
            key: read_flow_key(r)?,
            seq: r.varint_u32("flow seq")?,
            dies_at: r.opt("flow dies_at", Reader::varint_quantity)?.map(SimTime),
        })
    })?;
    let sport = r.varint_u16("sport cursor")?;
    let schedule = r.seq("schedule length", Reader::varint, MIN_SCHEDULE_BYTES, |r| {
        Ok((
            SimTime(r.varint_quantity("schedule time")?),
            r.varint_usize("schedule flow index")?,
        ))
    })?;
    let series = r.seq("series length", Reader::varint, MIN_SERIES_BYTES, |r| {
        Ok((r.f64("series time")?, r.f64("series value")?))
    })?;
    let next_sample = SimTime(r.varint_quantity("next sample time")?);
    let takeover_time = r.opt("takeover time", Reader::f64)?;
    let packets = r.varint_quantity("packet count")?;
    let done = r.bool("done flag")?;
    r.finish("fastsim snapshot")?;
    Ok(AttackSimSnapshot {
        rng,
        selector,
        flows,
        sport,
        schedule,
        series,
        next_sample,
        takeover_time,
        packets,
        done,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_round_trips() {
        let mut rec = Recording {
            stage: "fig2".into(),
            config_digest: 0xDEAD_BEEF,
            final_hash: 42,
            ..Recording::default()
        };
        let k = rec.intern("packet");
        rec.events.push(EventFrame {
            time: 100,
            kind: k,
            digest: 7,
        });
        rec.events.push(EventFrame {
            time: 250,
            kind: k,
            digest: u64::MAX,
        });
        let c = rec.intern("rng");
        rec.checkpoints.push(CheckpointFrame {
            event_index: 2,
            time: 250,
            state_hash: 9,
            components: vec![(c, 11)],
            payload: Some(vec![1, 2, 3]),
        });
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn recording_rejects_corruption() {
        let rec = Recording {
            stage: "x".into(),
            ..Recording::default()
        };
        let mut bytes = rec.to_bytes();
        bytes[0] = b'X';
        assert!(Recording::from_bytes(&bytes).is_err(), "bad magic");
        let mut bytes = rec.to_bytes();
        bytes.push(0);
        assert!(Recording::from_bytes(&bytes).is_err(), "trailing bytes");
        assert!(Recording::from_bytes(&rec.to_bytes()[..5]).is_err(), "truncated");
    }

    #[test]
    fn packet_codec_round_trips_all_headers() {
        let key = FlowKey::tcp(Addr::new(10, 0, 0, 1), 443, Addr::new(10, 0, 0, 2), 5001);
        let headers = [
            Header::Tcp {
                seq: 1,
                ack: u32::MAX,
                flags: TcpFlags::from_bits(0b1010).unwrap(),
                window: 65_535,
            },
            Header::Udp,
            Header::IcmpEchoRequest { ident: 1, seq: 2 },
            Header::IcmpEchoReply { ident: 3, seq: 4 },
            Header::IcmpTimeExceeded {
                reported_by: Addr::new(9, 9, 9, 9),
                probe_ident: 5,
                probe_seq: 6,
            },
        ];
        for h in headers {
            let p = Packet {
                id: 77,
                key,
                header: h,
                size: 1500,
                ttl: 63,
                sent_at: SimTime(123_456),
                payload: 1460,
            };
            let mut w = Writer::new();
            write_packet(&mut w, &p);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            assert_eq!(read_packet(&mut r), Ok(p));
            assert_eq!(r.finish("packet"), Ok(()));
        }
    }
}
