//! Generational storage for per-flow TCP state.
//!
//! [`crate::host::TcpHost`] used to hold a `HashMap<FlowKey, Endpoint>` of
//! by-value connection structs: every lookup hashed a 13-byte key, every
//! digest sorted the keys, and a million flows meant a million scattered
//! heap boxes. The pool applies the `PacketArena` pattern (dui-netsim) to
//! flows instead of packets: slot columns indexed by an 8-byte
//! generational [`FlowRef`] handle, per-kind rows of connection state
//! (congestion window, RTT estimator, sequence space, retransmission
//! queue, lifecycle metadata), and one pool-wide list of staged output.
//!
//! The four slot columns every flow needs (generation, kind, key, output
//! list) are indexed by slot, 36 B a slot. A sender's seven columns are
//! one `SenderRow` (336 B a row) in the sender table, a receiver's two
//! one `RecvRow` (88 B a row) in the receiver table. A live slot's kind
//! word carries its row index, so a slot pays only for its own kind, and
//! the generation check that every accessor makes already yields the
//! row. Rows are internal: handles, iteration order, digests and the
//! checkpoint bytes see slots only.
//!
//! Output is staged in one slab of packet nodes shared by the whole pool:
//! a slot's output list is the head and tail of a FIFO threaded through
//! the slab, and draining or freeing a slot returns its nodes to the
//! slab's free list. Both row tables and the slab are `Chunks`:
//! 1024-element chunks, each allocated at full size and never
//! reallocated, so growth never copies a row (only the first chunk grows
//! like a `Vec`, so that a small pool costs only what it holds).
//!
//! Slots are recycled through an intrusive free list and rows through
//! one LIFO free list per table, so connection churn (SYN floods, short
//! flows) grows no column in steady state. Generations make recycling
//! safe: freeing a slot bumps its generation, and every accessor checks
//! the handle's generation first — a stale [`FlowRef`] (e.g. a timer
//! that fires after its flow was evicted) is a typed [`StaleFlowRef`]
//! error, never a silent read of whichever flow now occupies the slot.
//!
//! The protocol logic itself is *not* duplicated here: the pool assembles
//! borrowed `SenderCols`/`RecvCols` views over a slot's row and output
//! list and calls the one implementation in `conn.rs`.

use crate::conn::{
    RcvState, ReceiverStats, RecvCols, RecvRow, RtxQueue, SegmentRecord, SenderCols, SenderRow,
    SenderStats, TcpSenderConfig, TcpState,
};
use crate::reno::Reno;
use crate::rtt::RttEstimator;
use dui_netsim::packet::{Addr, FlowKey, Packet, Proto};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::digest::StateDigest;
use dui_stats::wire::{DecodeError, Encoder, ErrorKind, Reader, Writer};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Sentinel for "no next" in the intrusive free and output lists.
const NIL: u32 = u32::MAX;

/// An 8-byte generational handle to a flow stored in a [`FlowPool`].
///
/// Handles are created by the `insert_*` constructors and become invalid
/// (stale) when the flow is freed with [`FlowPool::free`]. All accessors
/// verify the generation, so a stale handle can be *detected* but never
/// dereferenced to the wrong flow. Handles round-trip through a `u64`
/// ([`FlowRef::as_u64`]) so hosts can encode them into timer tokens; a
/// token that outlives its flow fails the generation check on decode,
/// which is exactly how stale timer wakes are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowRef {
    idx: u32,
    gen: u32,
}

impl FlowRef {
    /// Slot index (diagnostics and digests only).
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// Slot generation this handle was issued under.
    pub fn generation(&self) -> u32 {
        self.gen
    }

    /// Pack into a `u64` (`gen << 32 | idx`) for timer tokens.
    pub fn as_u64(&self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.idx)
    }

    /// Inverse of [`FlowRef::as_u64`]. The result is only as trustworthy
    /// as its source — every pool accessor re-checks the generation.
    pub fn from_u64(v: u64) -> FlowRef {
        FlowRef {
            idx: v as u32,
            gen: (v >> 32) as u32,
        }
    }
}

impl fmt::Display for FlowRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}g{}", self.idx, self.gen)
    }
}

/// Typed error for an access through an out-of-date [`FlowRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleFlowRef {
    /// Slot index the handle pointed at.
    pub idx: u32,
    /// Generation the handle was issued under.
    pub expected_gen: u32,
    /// Generation the slot is at now.
    pub current_gen: u32,
    /// True if the slot is currently vacant (false: recycled and occupied
    /// by a different flow).
    pub vacant: bool,
}

impl fmt::Display for StaleFlowRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stale flow ref: slot {} gen {} is {} at gen {}",
            self.idx,
            self.expected_gen,
            if self.vacant { "vacant" } else { "recycled" },
            self.current_gen
        )
    }
}

impl std::error::Error for StaleFlowRef {}

/// What occupies a pool slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Active-open data sender.
    Sender,
    /// Passive data receiver (with or without the handshake lifecycle).
    Receiver,
}

/// Slot occupancy column: a live endpoint and its row in that kind's
/// table, or a link in the slot free list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Free { next_free: u32 },
    Sender { row: u32 },
    Receiver { row: u32 },
}

/// A live slot's row in its kind's table.
#[derive(Debug, Clone, Copy)]
enum Row {
    Sender(usize),
    Receiver(usize),
}

/// Elements a [`Chunks`] chunk holds (a power of two).
const CHUNK: usize = 1 << 10;

/// An append-only table in chunks of `CHUNK` elements. Every chunk but
/// the first is allocated at full size when the table reaches it and is
/// never reallocated, so once a table has outgrown one chunk its
/// elements never move: growth copies nothing, where a `Vec` copies
/// every element into a buffer twice the size and holds both until the
/// copy is done. The first chunk grows like a `Vec` up to `CHUNK`
/// elements, so a small table costs only what it holds.
#[derive(Debug)]
struct Chunks<T> {
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Chunks<T> {
    /// Append `v`, returning its index.
    fn push(&mut self, v: T) -> usize {
        let i = self.len;
        if i.is_multiple_of(CHUNK) {
            let full = if i == 0 { 0 } else { CHUNK };
            self.chunks.push(Vec::with_capacity(full));
        }
        // A full-size chunk never reallocates: it takes `CHUNK` pushes.
        self.chunks[i / CHUNK].push(v);
        self.len += 1;
        i
    }

    /// Elements the allocated chunks have room for.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.chunks.iter().map(Vec::capacity).sum()
    }
}

impl<T> Index<usize> for Chunks<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T> IndexMut<usize> for Chunks<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }
}

/// One kind's rows, vacant ones reused LIFO.
#[derive(Debug)]
struct Rows<T> {
    rows: Chunks<T>,
    free: Vec<u32>,
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Rows {
            rows: Chunks::default(),
            free: Vec::new(),
        }
    }
}

impl<T> Rows<T> {
    /// Store `row` in a vacant row (the most recently vacated) or a new
    /// one, returning its index.
    fn claim(&mut self, row: T) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.rows[i as usize] = row;
                i as usize
            }
            None => self.rows.push(row),
        }
    }

    /// Vacate row `i`, letting `vacate` drop what it holds on the heap.
    fn release(&mut self, i: usize, vacate: impl FnOnce(&mut T)) {
        vacate(&mut self.rows[i]);
        self.free.push(i as u32);
    }
}

/// A slot's staged output: a FIFO threaded through the [`Slab`], oldest
/// packet at `head` (both `NIL` when empty).
#[derive(Debug, Clone, Copy)]
struct OutList {
    head: u32,
    tail: u32,
}

impl OutList {
    const EMPTY: OutList = OutList {
        head: NIL,
        tail: NIL,
    };
}

/// One staged packet and the next node in its list: the next packet of
/// the same slot, or the next vacant node.
#[derive(Debug)]
struct Node {
    pkt: Option<Packet>,
    next: u32,
}

/// The pool-wide store of staged packets, vacant nodes reused LIFO.
#[derive(Debug)]
struct Slab {
    nodes: Chunks<Node>,
    free: u32,
}

impl Default for Slab {
    fn default() -> Self {
        Slab {
            nodes: Chunks::default(),
            free: NIL,
        }
    }
}

impl Slab {
    /// Append `pkt` to `list`.
    fn push(&mut self, list: &mut OutList, pkt: Packet) {
        let node = Node {
            pkt: Some(pkt),
            next: NIL,
        };
        let at = if self.free == NIL {
            let at = self.nodes.push(node);
            assert!(at < NIL as usize, "packet slab exhausted u32 index space");
            at as u32
        } else {
            let at = self.free;
            self.free = self.nodes[at as usize].next;
            self.nodes[at as usize] = node;
            at
        };
        match list.tail {
            NIL => list.head = at,
            tail => self.nodes[tail as usize].next = at,
        }
        list.tail = at;
    }

    /// Empty `list`, handing its packets to `f` oldest first and its
    /// nodes back to the free list.
    fn drain(&mut self, list: &mut OutList, mut f: impl FnMut(Packet)) {
        let mut at = list.head;
        *list = OutList::EMPTY;
        while at != NIL {
            let node = &mut self.nodes[at as usize];
            let pkt = node.pkt.take();
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = at;
            at = next;
            if let Some(pkt) = pkt {
                f(pkt);
            }
        }
    }

    /// The packets of `list`, oldest first.
    fn iter(&self, list: OutList) -> OutIter<'_> {
        OutIter {
            slab: self,
            at: list.head,
        }
    }

    /// Nodes holding a packet (walks the free list).
    #[cfg(test)]
    fn live(&self) -> usize {
        let mut vacant = 0;
        let mut at = self.free;
        while at != NIL {
            vacant += 1;
            at = self.nodes[at as usize].next;
        }
        self.nodes.len - vacant
    }
}

/// Iterator over one output list (see [`Slab::iter`]).
#[derive(Clone)]
struct OutIter<'a> {
    slab: &'a Slab,
    at: u32,
}

impl<'a> Iterator for OutIter<'a> {
    type Item = &'a Packet;

    fn next(&mut self) -> Option<&'a Packet> {
        if self.at == NIL {
            return None;
        }
        let node = &self.slab.nodes[self.at as usize];
        self.at = node.next;
        // A node on a list always holds its packet.
        node.pkt.as_ref()
    }
}

/// Where a borrowed `SenderCols`/`RecvCols` view emits: one slot's
/// output list and the slab it is threaded through.
pub(crate) struct Outbox<'a> {
    slab: &'a mut Slab,
    list: &'a mut OutList,
}

impl Outbox<'_> {
    /// Stage `pkt` behind the slot's earlier output.
    pub(crate) fn push(&mut self, pkt: Packet) {
        self.slab.push(self.list, pkt);
    }
}

/// Generational pool of TCP connection state.
///
/// The slot columns (`gens`, `kind`, `keys`, `out`) are indexed by slot,
/// the handle's index. A live slot's `kind` names its row in the sender
/// or the receiver table, so a slot carries only its own kind's state,
/// and its `out` list threads its staged packets through the pool-wide
/// slab. Rows and slab nodes never leave the pool: handles, digests and
/// checkpoints see slots only.
#[derive(Debug, Default)]
pub struct FlowPool {
    gens: Vec<u32>,
    kind: Vec<SlotKind>,
    keys: Vec<FlowKey>,
    out: Vec<OutList>,
    slab: Slab,
    send: Rows<SenderRow>,
    recv: Rows<RecvRow>,
    free_head: u32,
    live: usize,
    high_water: usize,
    recycled: u64,
}

impl FlowPool {
    /// Empty pool.
    pub fn new() -> Self {
        FlowPool {
            free_head: NIL,
            ..FlowPool::default()
        }
    }

    /// Claim a slot (recycling LIFO) for `kind`, returning the handle.
    fn claim(&mut self, key: FlowKey, kind: SlotKind) -> FlowRef {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            let next_free = match self.kind[idx as usize] {
                SlotKind::Free { next_free } => next_free,
                _ => unreachable!("free list points at occupied slot"),
            };
            self.free_head = next_free;
            self.recycled += 1;
            idx
        } else {
            self.push_slot()
        };
        let i = idx as usize;
        self.kind[i] = kind;
        self.keys[i] = key;
        FlowRef {
            idx,
            gen: self.gens[i],
        }
    }

    /// Append one vacant slot at generation 0 to every slot column.
    fn push_slot(&mut self) -> u32 {
        let idx = self.gens.len() as u32;
        assert!(idx != NIL, "flow pool exhausted u32 index space");
        self.gens.push(0);
        self.kind.push(SlotKind::Free { next_free: NIL });
        self.keys.push(FlowKey::tcp(Addr(0), 0, Addr(0), 0));
        self.out.push(OutList::EMPTY);
        idx
    }

    /// Store a new sender for `key` (ISN `isn`), returning its handle.
    pub fn insert_sender(&mut self, key: FlowKey, cfg: TcpSenderConfig, isn: u32) -> FlowRef {
        let row = self.send.claim(SenderRow::new(cfg, isn));
        self.claim(key, SlotKind::Sender { row: row as u32 })
    }

    /// Store a new handshake-less receiver expecting first byte `isn`.
    pub fn insert_receiver(&mut self, key: FlowKey, isn: u32) -> FlowRef {
        self.insert_recv(key, RcvState::new(isn))
    }

    /// Store a new passive-open (LISTEN) receiver for `key`.
    pub fn insert_listener(&mut self, key: FlowKey) -> FlowRef {
        self.insert_recv(key, RcvState::listen())
    }

    fn insert_recv(&mut self, key: FlowKey, rcv: RcvState) -> FlowRef {
        let row = self.recv.claim(RecvRow {
            rcv,
            stats: ReceiverStats::default(),
        });
        self.claim(key, SlotKind::Receiver { row: row as u32 })
    }

    fn stale(&self, r: FlowRef) -> StaleFlowRef {
        match (self.gens.get(r.idx as usize), self.kind.get(r.idx as usize)) {
            (Some(gen), Some(kind)) => StaleFlowRef {
                idx: r.idx,
                expected_gen: r.gen,
                current_gen: *gen,
                vacant: matches!(kind, SlotKind::Free { .. }),
            },
            _ => StaleFlowRef {
                idx: r.idx,
                expected_gen: r.gen,
                current_gen: 0,
                vacant: true,
            },
        }
    }

    /// Generation-check `r`; `Ok((slot, row))` only for a live, matching
    /// slot.
    fn check(&self, r: FlowRef) -> Result<(usize, Row), StaleFlowRef> {
        let i = r.idx as usize;
        match (self.gens.get(i), self.kind.get(i)) {
            (Some(gen), Some(SlotKind::Sender { row })) if *gen == r.gen => {
                Ok((i, Row::Sender(*row as usize)))
            }
            (Some(gen), Some(SlotKind::Receiver { row })) if *gen == r.gen => {
                Ok((i, Row::Receiver(*row as usize)))
            }
            _ => Err(self.stale(r)),
        }
    }

    /// What kind of endpoint `r` addresses.
    pub fn kind(&self, r: FlowRef) -> Result<FlowKind, StaleFlowRef> {
        Ok(match self.check(r)?.1 {
            Row::Sender(_) => FlowKind::Sender,
            Row::Receiver(_) => FlowKind::Receiver,
        })
    }

    /// Forward-direction flow key of `r`.
    pub fn key(&self, r: FlowRef) -> Result<FlowKey, StaleFlowRef> {
        let (i, _) = self.check(r)?;
        Ok(self.keys[i])
    }

    /// Slot and sender row of `r` (panics if `r` is a receiver — the
    /// host's by-key dispatch guarantees the kind).
    fn sender_row(&self, r: FlowRef) -> Result<(usize, usize), StaleFlowRef> {
        match self.check(r)? {
            (i, Row::Sender(row)) => Ok((i, row)),
            (_, Row::Receiver(_)) => unreachable!("flow {r} is not a sender (host dispatch bug)"),
        }
    }

    /// Slot and receiver row of `r` (panics if `r` is a sender).
    fn recv_row(&self, r: FlowRef) -> Result<(usize, usize), StaleFlowRef> {
        match self.check(r)? {
            (i, Row::Receiver(row)) => Ok((i, row)),
            (_, Row::Sender(_)) => unreachable!("flow {r} is not a receiver (host dispatch bug)"),
        }
    }

    /// Borrowed sender view over slot `i`, sender row `row`.
    fn sender_at(&mut self, i: usize, row: usize) -> SenderCols<'_> {
        let out = Outbox {
            slab: &mut self.slab,
            list: &mut self.out[i],
        };
        self.send.rows[row].cols(self.keys[i], out)
    }

    /// Borrowed receiver view over slot `i`, receiver row `row`.
    fn recv_at(&mut self, i: usize, row: usize) -> RecvCols<'_> {
        let out = Outbox {
            slab: &mut self.slab,
            list: &mut self.out[i],
        };
        self.recv.rows[row].cols(self.keys[i], out)
    }

    /// Borrowed sender view over `r` (panics if `r` is a receiver).
    pub(crate) fn sender_cols(&mut self, r: FlowRef) -> Result<SenderCols<'_>, StaleFlowRef> {
        let (i, row) = self.sender_row(r)?;
        Ok(self.sender_at(i, row))
    }

    /// Borrowed receiver view over `r` (panics if `r` is a sender).
    #[cfg(test)]
    pub(crate) fn recv_cols(&mut self, r: FlowRef) -> Result<RecvCols<'_>, StaleFlowRef> {
        let (i, row) = self.recv_row(r)?;
        Ok(self.recv_at(i, row))
    }

    /// Begin transmitting on sender `r`.
    pub fn on_start(&mut self, r: FlowRef, now: SimTime) -> Result<(), StaleFlowRef> {
        self.sender_cols(r)?.on_start(now);
        Ok(())
    }

    /// Deliver a segment to the endpoint behind `r`.
    pub fn on_segment(
        &mut self,
        r: FlowRef,
        now: SimTime,
        pkt: &Packet,
    ) -> Result<(), StaleFlowRef> {
        match self.check(r)? {
            (i, Row::Sender(row)) => self.sender_at(i, row).on_segment(now, pkt),
            (i, Row::Receiver(row)) => self.recv_at(i, row).on_segment(now, pkt),
        }
        Ok(())
    }

    /// Clock tick for sender `r` (receivers are purely reactive).
    pub fn on_tick(&mut self, r: FlowRef, now: SimTime) -> Result<(), StaleFlowRef> {
        if let (i, Row::Sender(row)) = self.check(r)? {
            self.sender_at(i, row).on_tick(now);
        }
        Ok(())
    }

    /// Drain the packets `r` has staged, handing each to `f`, oldest
    /// first. Their slab nodes go straight back to the pool, so a host
    /// that drains after every event allocates nothing once the slab
    /// has grown to its high-water mark.
    pub fn drain_out(&mut self, r: FlowRef, f: impl FnMut(Packet)) -> Result<(), StaleFlowRef> {
        let (i, _) = self.check(r)?;
        self.slab.drain(&mut self.out[i], f);
        Ok(())
    }

    /// Drain the packets `r` has staged into a `Vec`, oldest first (see
    /// [`FlowPool::drain_out`]).
    pub fn take_out(&mut self, r: FlowRef) -> Result<Vec<Packet>, StaleFlowRef> {
        let mut pkts = Vec::new();
        self.drain_out(r, |p| pkts.push(p))?;
        Ok(pkts)
    }

    /// Earliest time sender `r` needs a tick (`None` for receivers).
    pub fn next_event_time(&self, r: FlowRef) -> Result<Option<SimTime>, StaleFlowRef> {
        Ok(match self.check(r)?.1 {
            Row::Sender(row) => crate::conn::sender_next_event_time(&self.send.rows[row].meta),
            Row::Receiver(_) => None,
        })
    }

    /// Lifecycle state of `r`.
    pub fn state(&self, r: FlowRef) -> Result<TcpState, StaleFlowRef> {
        Ok(match self.check(r)?.1 {
            Row::Sender(row) => self.send.rows[row].meta.state,
            Row::Receiver(row) => self.recv.rows[row].rcv.state,
        })
    }

    /// Did the endpoint behind `r` finish (sender fully closed, receiver
    /// consumed the FIN)?
    pub fn is_done(&self, r: FlowRef) -> Result<bool, StaleFlowRef> {
        Ok(match self.check(r)?.1 {
            Row::Sender(row) => self.send.rows[row].meta.state == TcpState::Closed,
            Row::Receiver(row) => self.recv.rows[row].rcv.done,
        })
    }

    /// Sender statistics of `r`.
    pub fn sender_stats(&self, r: FlowRef) -> Result<SenderStats, StaleFlowRef> {
        let (_, row) = self.sender_row(r)?;
        Ok(self.send.rows[row].stats)
    }

    /// Sender `r`'s `(snd_una, snd_nxt)`: its oldest unacknowledged
    /// sequence number and the next one it will send.
    pub fn send_seq(&self, r: FlowRef) -> Result<(u32, u32), StaleFlowRef> {
        let (_, row) = self.sender_row(r)?;
        let seq = &self.send.rows[row].seq;
        Ok((seq.snd_una, seq.snd_nxt))
    }

    /// Receiver statistics of `r`.
    pub fn receiver_stats(&self, r: FlowRef) -> Result<ReceiverStats, StaleFlowRef> {
        let (_, row) = self.recv_row(r)?;
        Ok(self.recv.rows[row].stats)
    }

    /// Override receiver `r`'s advertised window.
    pub fn set_advertised_window(&mut self, r: FlowRef, w: u32) -> Result<(), StaleFlowRef> {
        let (_, row) = self.recv_row(r)?;
        self.recv.rows[row].rcv.advertised_window = w;
        Ok(())
    }

    /// Free the flow behind `r`, recycling its slot and its row (each
    /// LIFO). The handle (and any copy of it, e.g. inside a pending timer
    /// token) is stale afterwards. Packets still staged on the slot are
    /// dropped and their nodes return to the slab. The freed row's
    /// retransmission queue or reassembly map is dropped, which frees its
    /// buffer: clearing it in place instead, on a 400k-slot pool, cost
    /// 9 % more peak memory and saved no time. The row's other columns
    /// are left for the next `insert_*` of its kind to overwrite.
    pub fn free(&mut self, r: FlowRef) -> Result<(), StaleFlowRef> {
        let (i, row) = self.check(r)?;
        match row {
            Row::Sender(row) => self.send.release(row, |s| s.rtx = RtxQueue::default()),
            Row::Receiver(row) => self.recv.release(row, |v| v.rcv = RcvState::default()),
        }
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.kind[i] = SlotKind::Free {
            next_free: self.free_head,
        };
        self.free_head = r.idx;
        self.live -= 1;
        self.slab.drain(&mut self.out[i], drop);
        Ok(())
    }

    /// Live handles in slot order — the canonical iteration order for
    /// digests and aggregate accounting (no key sorting required).
    pub fn iter_refs(&self) -> impl Iterator<Item = FlowRef> + '_ {
        self.kind
            .iter()
            .enumerate()
            .filter(|(_, k)| !matches!(k, SlotKind::Free { .. }))
            .map(|(i, _)| FlowRef {
                idx: i as u32,
                gen: self.gens[i],
            })
    }

    /// Number of live flows.
    pub fn live(&self) -> usize {
        self.live
    }

    /// True if no flows are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots allocated (live + vacant).
    pub fn capacity(&self) -> usize {
        self.gens.len()
    }

    /// Highest simultaneous live count seen.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of inserts served by recycling a vacant slot.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Fold the pool into `d`: its checkpoint encoder, every slot in slot
    /// order (free slots and the free list included, since they pick the
    /// next insert's slot), then the staged output. Output is digest-only:
    /// checkpoints fall between events, and [`FlowPool::to_bytes`]
    /// refuses undrained output.
    pub fn state_digest(&self, d: &mut StateDigest) {
        self.encode(d);
        for (i, list) in self.out.iter().enumerate() {
            if list.head != NIL {
                let staged = self.slab.iter(*list);
                d.write_usize(i);
                d.write_len(staged.clone().count());
                for p in staged {
                    p.encode(d);
                }
            }
        }
        d.u32(NIL);
    }

    /// Serialize the whole pool for checkpointing. Fails if any output
    /// queue is undrained (hosts drain after every event, so a checkpoint
    /// boundary never sees buffered packets).
    pub fn to_bytes(&self) -> Result<Vec<u8>, String> {
        if let Some(i) = self.out.iter().position(|list| list.head != NIL) {
            return Err(format!("flow slot {i} has undrained output"));
        }
        let mut w = Writer::new();
        self.encode(&mut w);
        Ok(w.into_bytes())
    }

    /// Whether every output queue is drained, as [`FlowPool::to_bytes`]
    /// requires.
    pub(crate) fn drained(&self) -> bool {
        self.out.iter().all(|list| list.head == NIL)
    }

    /// The checkpoint encoder behind [`FlowPool::to_bytes`] and
    /// [`FlowPool::state_digest`].
    pub(crate) fn encode<E: Encoder>(&self, e: &mut E) {
        e.u32(self.gens.len() as u32);
        for i in 0..self.gens.len() {
            e.u32(self.gens[i]);
            match self.kind[i] {
                SlotKind::Free { next_free } => {
                    e.u8(0);
                    e.u32(next_free);
                }
                SlotKind::Sender { row } => {
                    let s = &self.send.rows[row as usize];
                    e.u8(1);
                    self.keys[i].encode(e);
                    put_cfg(e, &s.cfg);
                    s.cc.encode(e);
                    s.rtt.encode(e);
                    let sq = &s.seq;
                    e.u32(sq.isn);
                    e.u32(sq.snd_una);
                    e.u32(sq.snd_nxt);
                    e.u64(sq.app_sent);
                    e.opt(sq.fin_seq, E::u32);
                    e.opt(sq.syn_seq, E::u32);
                    e.opt(sq.recovery_until, E::u32);
                    let q = &s.rtx;
                    e.u32(q.len() as u32);
                    for (seq, rec) in q.iter() {
                        e.u32(seq);
                        e.u64(rec.sent_at.0);
                        e.bool(rec.retransmitted);
                        e.u32(rec.len);
                    }
                    let m = &s.meta;
                    e.u64(m.started_at.0);
                    e.u32(m.dupacks);
                    e.opt(m.rto_deadline.map(|t| t.0), E::u64);
                    e.opt(m.pace_deadline.map(|t| t.0), E::u64);
                    e.opt(m.timewait_deadline.map(|t| t.0), E::u64);
                    e.u32(m.peer_rwnd);
                    e.u8(m.state.code());
                    let st = &s.stats;
                    e.u64(st.bytes_acked);
                    e.u64(st.segments_sent);
                    e.u64(st.retransmissions);
                    e.u64(st.fast_retransmits);
                    e.u64(st.timeouts);
                    e.opt(st.completed_at.map(|t| t.0), E::u64);
                }
                SlotKind::Receiver { row } => {
                    e.u8(2);
                    self.keys[i].encode(e);
                    let RecvRow { rcv: rv, stats: st } = &self.recv.rows[row as usize];
                    e.u32(rv.rcv_nxt);
                    e.u32(rv.ooo.len() as u32);
                    for (seq, len) in &rv.ooo {
                        e.u32(*seq);
                        e.u32(*len);
                    }
                    e.opt(rv.fin_seq, E::u32);
                    e.bool(rv.done);
                    e.u32(rv.advertised_window);
                    e.u8(rv.state.code());
                    e.bool(rv.handshake);
                    e.bool(rv.our_fin_sent);
                    e.u64(st.bytes_delivered);
                    e.u64(st.duplicate_segments);
                    e.u64(st.out_of_order_segments);
                    e.opt(st.finished_at.map(|t| t.0), E::u64);
                }
            }
        }
        e.u32(self.free_head);
        e.u64(self.live as u64);
        e.u64(self.high_water as u64);
        e.u64(self.recycled);
    }

    /// Restore a pool serialized with [`FlowPool::to_bytes`].
    ///
    /// The blob comes from outside the process, so everything a later
    /// `insert_*` or `free` trusts is checked here: the slot count against
    /// the bytes behind it, and the free list link by link.
    pub fn from_bytes(bytes: &[u8]) -> Result<FlowPool, DecodeError> {
        let mut r = Reader::new(bytes);
        let cap = r.count("flow slot count", Reader::u32, MIN_SLOT_BYTES)?;
        let mut p = FlowPool::new();
        for _ in 0..cap {
            let i = p.push_slot() as usize;
            p.gens[i] = r.u32("slot generation")?;
            match r.u8("flow slot tag")? {
                0 => {
                    p.kind[i] = SlotKind::Free {
                        next_free: r.u32("next free slot")?,
                    };
                }
                1 => {
                    p.keys[i] = get_tcp_key(&mut r)?;
                    let row = p.send.claim(SenderRow::new(get_cfg(&mut r)?, 0));
                    p.kind[i] = SlotKind::Sender { row: row as u32 };
                    let s = &mut p.send.rows[row];
                    s.cc = Reno::decode(&mut r)?;
                    s.rtt = RttEstimator::decode(&mut r)?;
                    let sq = &mut s.seq;
                    sq.isn = r.u32("isn")?;
                    sq.snd_una = r.u32("snd_una")?;
                    sq.snd_nxt = r.u32("snd_nxt")?;
                    sq.app_sent = r.quantity("app_sent")?;
                    sq.fin_seq = r.opt("fin_seq", Reader::u32)?;
                    sq.syn_seq = r.opt("syn_seq", Reader::u32)?;
                    sq.recovery_until = r.opt("recovery point", Reader::u32)?;
                    for _ in 0..r.count("rtx queue length", Reader::u32, MIN_RTX_BYTES)? {
                        let seq = r.u32("rtx seq")?;
                        let rec = SegmentRecord {
                            sent_at: SimTime(r.quantity("rtx sent_at")?),
                            retransmitted: r.bool("rtx retransmitted")?,
                            len: get_segment_len(&mut r, "rtx len")?,
                        };
                        s.rtx.push(seq, rec);
                    }
                    let m = &mut s.meta;
                    m.started_at = SimTime(r.quantity("started_at")?);
                    m.dupacks = r.u32("dupacks")?;
                    m.rto_deadline = r.opt("rto deadline", get_time)?;
                    m.pace_deadline = r.opt("pace deadline", get_time)?;
                    m.timewait_deadline = r.opt("time-wait deadline", get_time)?;
                    m.peer_rwnd = r.u32("peer rwnd")?;
                    m.state = get_state(&mut r)?;
                    let st = &mut s.stats;
                    st.bytes_acked = r.quantity("bytes acked")?;
                    st.segments_sent = r.quantity("segments sent")?;
                    st.retransmissions = r.quantity("retransmissions")?;
                    st.fast_retransmits = r.quantity("fast retransmits")?;
                    st.timeouts = r.quantity("timeouts")?;
                    st.completed_at = r.opt("completed_at", get_time)?;
                }
                2 => {
                    p.keys[i] = get_tcp_key(&mut r)?;
                    let row = p.recv.claim(RecvRow::default());
                    p.kind[i] = SlotKind::Receiver { row: row as u32 };
                    let RecvRow { rcv: rv, stats: st } = &mut p.recv.rows[row];
                    rv.rcv_nxt = r.u32("rcv_nxt")?;
                    for _ in 0..r.count("reassembly length", Reader::u32, 8)? {
                        let (seq, len) = (r.u32("reassembly seq")?, r.u32("reassembly len")?);
                        // Ascending, as the map iterates: a duplicate
                        // would silently replace an earlier entry.
                        if rv
                            .ooo
                            .last_key_value()
                            .is_some_and(|(last, _)| *last >= seq)
                        {
                            return Err(r.error("reassembly seq", ErrorKind::Invalid));
                        }
                        rv.ooo.insert(seq, len);
                    }
                    rv.fin_seq = r.opt("receiver fin_seq", Reader::u32)?;
                    rv.done = r.bool("receiver done")?;
                    rv.advertised_window = r.u32("advertised window")?;
                    rv.state = get_state(&mut r)?;
                    rv.handshake = r.bool("receiver handshake")?;
                    rv.our_fin_sent = r.bool("receiver fin sent")?;
                    st.bytes_delivered = r.quantity("bytes delivered")?;
                    st.duplicate_segments = r.quantity("duplicate segments")?;
                    st.out_of_order_segments = r.quantity("out-of-order segments")?;
                    st.finished_at = r.opt("finished_at", get_time)?;
                }
                _ => return Err(r.error("flow slot tag", ErrorKind::Tag)),
            }
        }
        p.free_head = r.u32("free list head")?;
        let live = r.u64("live count")?;
        let high_water = r.u64("high water")?;
        p.recycled = r.quantity("recycled count")?;
        // Walk the free list: every link in range and on a vacant slot,
        // and exactly as many links as vacant slots — a cycle or a stray
        // head would otherwise surface as a panic in the next `claim`.
        let vacant = p
            .kind
            .iter()
            .filter(|k| matches!(k, SlotKind::Free { .. }))
            .count();
        let (mut at, mut links) = (p.free_head, 0);
        while at != NIL {
            match p.kind.get(at as usize) {
                Some(SlotKind::Free { next_free }) if links < vacant => at = *next_free,
                _ => return Err(r.error("free list", ErrorKind::Invalid)),
            }
            links += 1;
        }
        if links != vacant || live != (cap - vacant) as u64 || high_water < live {
            return Err(r.error("flow pool occupancy", ErrorKind::Invalid));
        }
        p.live = cap - vacant;
        p.high_water = r.narrow("high water", high_water)?;
        r.finish("flow pool state")?;
        Ok(p)
    }
}

/// Smallest slot record: generation, tag, and a vacant slot's link.
const MIN_SLOT_BYTES: usize = 4 + 1 + 4;
/// One retransmission-queue record.
const MIN_RTX_BYTES: usize = 4 + 8 + 1 + 4;

fn get_time(r: &mut Reader, what: &'static str) -> Result<SimTime, DecodeError> {
    r.quantity(what).map(SimTime)
}

fn get_state(r: &mut Reader) -> Result<TcpState, DecodeError> {
    TcpState::from_code(r.u8("tcp state")?).ok_or_else(|| r.error("tcp state", ErrorKind::Tag))
}

/// A fixed-width flow key that must be TCP (the pool builds TCP segments
/// from it).
pub(crate) fn get_tcp_key(r: &mut Reader) -> Result<FlowKey, DecodeError> {
    let key = FlowKey::decode(r)?;
    if key.proto != Proto::Tcp {
        return Err(r.error("flow key proto", ErrorKind::Invalid));
    }
    Ok(key)
}

/// Smallest encoded [`TcpSenderConfig`] (both options absent).
pub(crate) const MIN_CFG_BYTES: usize = 4 + 1 + 1 + 8 + 1 + 8;

pub(crate) fn put_cfg<E: Encoder>(e: &mut E, cfg: &TcpSenderConfig) {
    e.u32(cfg.mss);
    e.opt(cfg.total_bytes, E::u64);
    e.opt(cfg.app_rate, E::u64);
    e.f64(cfg.initial_cwnd);
    e.bool(cfg.handshake);
    e.u64(cfg.time_wait.as_nanos());
}

/// A `u32` segment length of at most 65 535 (what the 16-bit MSS option
/// can announce), so a segment built from it cannot overflow its size.
fn get_segment_len(r: &mut Reader, what: &'static str) -> Result<u32, DecodeError> {
    let len = r.u32(what)?;
    Ok(u32::from(r.narrow::<u16>(what, u64::from(len))?))
}

/// Decode a sender configuration the protocol code can run on: a zero
/// MSS would never fill a window, a sub-segment initial window is what
/// `Reno::new` asserts against.
pub(crate) fn get_cfg(r: &mut Reader) -> Result<TcpSenderConfig, DecodeError> {
    let cfg = TcpSenderConfig {
        mss: get_segment_len(r, "mss")?,
        total_bytes: r.opt("total bytes", Reader::quantity)?,
        app_rate: r.opt("app rate", Reader::u64)?,
        initial_cwnd: r.f64("initial cwnd")?,
        handshake: r.bool("handshake flag")?,
        time_wait: SimDuration::from_nanos(r.quantity("time-wait")?),
    };
    if cfg.mss == 0 || cfg.initial_cwnd.is_nan() || cfg.initial_cwnd < 1.0 {
        return Err(r.error("sender config", ErrorKind::Invalid));
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::packet::TcpFlags;

    fn key(sport: u16) -> FlowKey {
        FlowKey::tcp(Addr::new(10, 0, 0, 1), sport, Addr::new(10, 0, 0, 2), 80)
    }

    fn cfg(total: u64) -> TcpSenderConfig {
        TcpSenderConfig {
            total_bytes: Some(total),
            ..Default::default()
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Deliver every queued segment of `from` to `to` except those whose
    /// position is in `lose`; returns what was delivered.
    fn pipe(p: &mut FlowPool, from: FlowRef, to: FlowRef, now: SimTime, lose: &[usize]) -> usize {
        let pkts = p.take_out(from).unwrap();
        let mut n = 0;
        for (k, pkt) in pkts.iter().enumerate() {
            if !lose.contains(&k) {
                p.on_segment(to, now, pkt).unwrap();
                n += 1;
            }
        }
        n
    }

    /// One fixed pool holding every kind of state a slot can carry:
    /// handshake senders mid-transfer with unacknowledged segments,
    /// listeners in SYN-RCVD, handshake-less receivers holding
    /// out-of-order data, and slots that changed kind through `free`.
    fn mixed_pool() -> FlowPool {
        let hs = |total: u64| TcpSenderConfig {
            total_bytes: Some(total),
            handshake: true,
            ..Default::default()
        };
        let mut p = FlowPool::new();
        // Two handshake pairs: SYN, SYN-ACK, then the first window with
        // its second and fifth segments lost on the way to the listener.
        let mut pairs = Vec::new();
        for k in 0..2u16 {
            let s = p.insert_sender(key(100 + k), hs(40_000), 1_000 + u32::from(k));
            let l = p.insert_listener(key(100 + k));
            p.on_start(s, t(0)).unwrap();
            pipe(&mut p, s, l, t(1), &[]);
            pipe(&mut p, l, s, t(2), &[]);
            pipe(&mut p, s, l, t(3), &[2, 5]);
            pipe(&mut p, l, s, t(4), &[]);
            pairs.push((s, l));
        }
        // A handshake-less sender feeding a handshake-less receiver all
        // but its first segment: the receiver holds out-of-order data.
        let bulk = p.insert_sender(key(200), cfg(30_000), 77);
        let ooo = p.insert_receiver(key(200), 77);
        p.on_start(bulk, t(0)).unwrap();
        pipe(&mut p, bulk, ooo, t(5), &[0]);
        let _ = p.take_out(ooo).unwrap();
        // Listeners left in SYN-RCVD: their SYN-ACKs are lost.
        let mut half_open = Vec::new();
        for k in 0..3u16 {
            let s = p.insert_sender(key(300 + k), hs(1_000), 5 + u32::from(k));
            let l = p.insert_listener(key(300 + k));
            p.on_start(s, t(6)).unwrap();
            pipe(&mut p, s, l, t(7), &[]);
            let _ = p.take_out(l).unwrap();
            half_open.push((s, l));
        }
        assert!(half_open
            .iter()
            .all(|&(_, l)| p.state(l) == Ok(TcpState::SynRcvd)));
        // Kind changes: two senders' slots go to receivers, a receiver's
        // slot to a sender, and a listener's slot to a receiver.
        p.free(bulk).unwrap();
        p.free(half_open[0].1).unwrap();
        p.free(half_open[1].0).unwrap();
        let late = p.insert_receiver(key(400), 9);
        let late_s = p.insert_sender(key(401), hs(3_000), 11);
        let late_l = p.insert_listener(key(401));
        p.on_start(late_s, t(8)).unwrap();
        pipe(&mut p, late_s, late_l, t(9), &[]);
        let _ = p.take_out(late_l).unwrap();
        p.free(pairs[1].1).unwrap();
        let _ = p.insert_receiver(key(402), 13);
        assert_eq!(p.kind(late).unwrap(), FlowKind::Receiver);
        for r in p.iter_refs().collect::<Vec<_>>() {
            let _ = p.take_out(r).unwrap();
        }
        p
    }

    #[test]
    fn mixed_pool_state_and_bytes_are_pinned() {
        let p = mixed_pool();
        let live = p.iter_refs().collect::<Vec<_>>();
        assert!(live.iter().any(|&r| p.state(r) == Ok(TcpState::SynRcvd)));
        let senders = live.iter().filter(|&&r| p.kind(r) == Ok(FlowKind::Sender));
        assert!(senders.clone().count() >= 4);
        let mut d = StateDigest::new();
        p.state_digest(&mut d);
        let mut b = StateDigest::new();
        b.write_bytes(&p.to_bytes().unwrap());
        // The bytes are those of the layout that kept every column per
        // slot.
        assert_eq!(d.finish(), 0x32ad_6367_8bc7_bb45, "state digest");
        assert_eq!(b.finish(), 0x08d6_060e_d3b3_9e7e, "checkpoint bytes");
    }

    /// RFC 9293 §3.10.7.4. The worst case, an ACK 2³¹ − 1 past
    /// `snd_una` that also carries a FIN and a zero window, would
    /// otherwise run `Reno::on_ack` about 1.5 M times and move `snd_una`
    /// past `snd_nxt`.
    #[test]
    fn an_ack_for_data_never_sent_is_dropped() {
        let mut p = FlowPool::new();
        let hs = TcpSenderConfig {
            total_bytes: Some(40_000),
            handshake: true,
            ..Default::default()
        };
        let s = p.insert_sender(key(100), hs, 1_000);
        let l = p.insert_listener(key(100));
        p.on_start(s, t(0)).unwrap();
        pipe(&mut p, s, l, t(1), &[]);
        pipe(&mut p, l, s, t(2), &[]);
        assert_eq!(p.state(s), Ok(TcpState::Established));
        let staged = |p: &FlowPool| {
            let list = p.out[s.index() as usize];
            p.slab
                .iter(list)
                .map(|pkt| format!("{pkt:?}"))
                .collect::<Vec<_>>()
        };
        let digest = |p: &FlowPool| {
            let mut d = StateDigest::new();
            p.state_digest(&mut d);
            d.finish()
        };
        let (before, out_before) = (digest(&p), staged(&p));
        assert!(!out_before.is_empty(), "the first window is in flight");
        let snd_una = p.sender_cols(s).unwrap().seq.snd_una;
        let mut forged = Packet::tcp(
            key(100).reversed(),
            1,
            snd_una.wrapping_add((1 << 31) - 1),
            TcpFlags {
                ack: true,
                fin: true,
                ..TcpFlags::default()
            },
            0,
        );
        if let dui_netsim::packet::Header::Tcp { window, .. } = &mut forged.header {
            *window = 0;
        }
        p.on_segment(s, t(3), &forged).unwrap();
        assert_eq!(digest(&p), before);
        assert_eq!(staged(&p), out_before);
        assert_eq!(p.state(s), Ok(TcpState::Established));
    }

    #[test]
    fn chunks_keep_every_element_where_it_was_pushed() {
        let mut t = Chunks::default();
        for i in 0..CHUNK {
            assert_eq!(t.push(i), i);
        }
        // The first chunk grew like a `Vec`; later ones are allocated
        // full-size, and no element moves once the first chunk is full.
        let at: Vec<*const usize> = (0..CHUNK).map(|i| std::ptr::from_ref(&t[i])).collect();
        for i in CHUNK..4 * CHUNK + 5 {
            assert_eq!(t.push(i), i);
        }
        assert!((0..t.len).all(|i| t[i] == i));
        assert!((0..CHUNK).all(|i| std::ptr::eq(&t[i], at[i])));
        assert_eq!(t.chunks.len(), 5);
        assert!(t.chunks[1..].iter().all(|c| c.capacity() == CHUNK));
    }

    #[test]
    fn a_slot_carries_only_its_own_kinds_row() {
        use std::mem::size_of;
        let slot =
            size_of::<u32>() + size_of::<SlotKind>() + size_of::<FlowKey>() + size_of::<OutList>();
        let sender = size_of::<SenderRow>();
        let receiver = size_of::<RecvRow>();
        let node = size_of::<Node>();
        assert_eq!((slot, sender, receiver, node), (36, 336, 88, 72));
        let n = 64;
        let mut listeners = FlowPool::new();
        for k in 0..n {
            listeners.insert_listener(key(k));
        }
        let mut senders = FlowPool::new();
        for k in 0..n {
            senders.insert_sender(key(k), cfg(100), 1);
        }
        assert_eq!(
            listeners.send.rows.capacity(),
            0,
            "listeners hold sender rows"
        );
        assert_eq!(listeners.recv.rows.len, usize::from(n));
        assert_eq!(
            senders.recv.rows.capacity(),
            0,
            "senders hold receiver rows"
        );
        assert_eq!(senders.send.rows.len, usize::from(n));
    }

    dui_stats::prop_check! {
        fn the_slab_holds_one_node_per_staged_packet(g) {
            // Random emissions, drains and frees across many slots: every
            // slab node not on the free list is on some slot's list.
            let mut p = FlowPool::new();
            let mut live = Vec::new();
            let mut now = 0;
            for _ in 0..g.usize(1..300) {
                now += g.u64(0..600);
                match g.u32(0..6) {
                    0 => {
                        let cfg = TcpSenderConfig {
                            total_bytes: Some(g.u64(0..20_000)),
                            handshake: g.bool(),
                            ..Default::default()
                        };
                        let r = p.insert_sender(key(g.any_u16()), cfg, g.any_u32());
                        p.on_start(r, t(now)).unwrap();
                        live.push(r);
                    }
                    1 => {
                        let k = key(g.any_u16());
                        let r = p.insert_listener(k);
                        let syn = TcpFlags { syn: true, ..TcpFlags::default() };
                        p.on_segment(r, t(now), &Packet::tcp(k, 5, 0, syn, 0)).unwrap();
                        live.push(r);
                    }
                    2 if !live.is_empty() => {
                        let r = live[g.usize(0..live.len())];
                        let k = p.key(r).unwrap();
                        match p.kind(r).unwrap() {
                            FlowKind::Sender => p.on_tick(r, t(now)).unwrap(),
                            FlowKind::Receiver => {
                                let data = Packet::tcp(k, 6, 0, TcpFlags::default(), 100);
                                p.on_segment(r, t(now), &data).unwrap();
                            }
                        }
                    }
                    3 if !live.is_empty() => {
                        let r = live[g.usize(0..live.len())];
                        if g.bool() {
                            p.take_out(r).unwrap();
                        } else {
                            p.drain_out(r, drop).unwrap();
                        }
                    }
                    4 if !live.is_empty() => {
                        p.free(live.swap_remove(g.usize(0..live.len()))).unwrap();
                    }
                    _ => {}
                }
                let staged: usize = p.out.iter().map(|&list| p.slab.iter(list).count()).sum();
                dui_stats::prop_assert_eq!(p.slab.live(), staged);
            }
        }
    }

    #[test]
    fn insert_start_take_free_round_trip() {
        let mut p = FlowPool::new();
        let r = p.insert_sender(key(1000), cfg(1460), 1);
        assert_eq!(p.live(), 1);
        assert_eq!(p.kind(r).unwrap(), FlowKind::Sender);
        p.on_start(r, SimTime::ZERO).unwrap();
        // Bounded flows emit their data followed by a FIN.
        let pkts = p.take_out(r).unwrap();
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[0].payload, 1460);
        assert!(pkts[1].tcp_flags().unwrap().fin);
        p.free(r).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn stale_after_free_is_typed_error() {
        let mut p = FlowPool::new();
        let r = p.insert_sender(key(1000), cfg(100), 1);
        p.free(r).unwrap();
        let err = p.on_tick(r, SimTime::ZERO).unwrap_err();
        assert_eq!(err.idx, r.index());
        assert_eq!(err.expected_gen, 0);
        assert_eq!(err.current_gen, 1);
        assert!(err.vacant);
        assert!(p.take_out(r).is_err());
        assert!(p.state(r).is_err());
        assert!(p.free(r).is_err());
    }

    #[test]
    fn recycled_slot_never_serves_old_handle() {
        let mut p = FlowPool::new();
        let r1 = p.insert_sender(key(1000), cfg(100), 1);
        p.free(r1).unwrap();
        let r2 = p.insert_receiver(key(2000), 1);
        assert_eq!(r1.index(), r2.index());
        assert_ne!(r1.generation(), r2.generation());
        let err = p.key(r1).unwrap_err();
        assert!(!err.vacant, "slot is occupied by a different flow");
        assert_eq!(err.current_gen, r2.generation());
        assert_eq!(p.key(r2).unwrap(), key(2000));
    }

    #[test]
    fn free_list_is_lifo_and_pool_does_not_grow() {
        let mut p = FlowPool::new();
        let refs: Vec<_> = (0..8)
            .map(|i| p.insert_sender(key(1000 + i), cfg(100), 1))
            .collect();
        assert_eq!(p.capacity(), 8);
        assert_eq!(p.high_water(), 8);
        for r in refs.iter().rev() {
            p.free(*r).unwrap();
        }
        for i in 0..8u32 {
            let r = p.insert_listener(key(5000 + i as u16));
            assert_eq!(r.index(), i, "LIFO recycling");
        }
        assert_eq!(p.capacity(), 8, "no growth under churn");
        assert_eq!(p.recycled(), 8);
    }

    #[test]
    fn ref_round_trips_through_u64() {
        let mut p = FlowPool::new();
        p.insert_sender(key(1), cfg(1), 1);
        p.free(FlowRef { idx: 0, gen: 0 }).unwrap();
        let r = p.insert_sender(key(2), cfg(1), 1);
        assert_eq!(FlowRef::from_u64(r.as_u64()), r);
        // A forged/stale token decodes, but every access rejects it.
        let stale = FlowRef::from_u64(FlowRef { idx: 0, gen: 0 }.as_u64());
        assert!(p.state(stale).is_err());
    }

    #[test]
    fn codec_round_trips_mid_transfer() {
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(1000), cfg(100_000), 7);
        let l = p.insert_listener(key(2000));
        let dead = p.insert_receiver(key(3000), 1);
        p.free(dead).unwrap();
        p.on_start(s, SimTime::ZERO).unwrap();
        let _ = p.take_out(s).unwrap(); // drain before checkpoint
        let bytes = p.to_bytes().unwrap();
        let q = FlowPool::from_bytes(&bytes).unwrap();
        assert_eq!(q.live(), p.live());
        assert_eq!(q.capacity(), p.capacity());
        assert_eq!(q.recycled(), p.recycled());
        let mut d1 = StateDigest::new();
        let mut d2 = StateDigest::new();
        p.state_digest(&mut d1);
        q.state_digest(&mut d2);
        assert_eq!(d1.finish(), d2.finish(), "digest survives codec");
        assert_eq!(q.state(l).unwrap(), TcpState::Listen);
    }

    /// Offset of slot `i`'s `next_free` link in a blob whose first `i`
    /// slots are vacant too.
    fn link_at(i: usize) -> usize {
        4 + i * MIN_SLOT_BYTES + 5
    }

    fn set_u32(blob: &mut [u8], at: usize, v: u32) {
        let mut w = Writer::new();
        w.u32(v);
        blob[at..at + 4].copy_from_slice(&w.into_bytes());
    }

    #[test]
    fn from_bytes_refuses_a_free_list_it_cannot_walk() {
        let invalid = |blob: &[u8]| FlowPool::from_bytes(blob).map(|_| ()).map_err(|e| e.kind);
        // One occupied slot, nothing vacant: any head but NIL is a lie.
        let mut p = FlowPool::new();
        p.insert_receiver(key(1), 1);
        let good = p.to_bytes().unwrap();
        assert_eq!(invalid(&good), Ok(()));
        let head_at = good.len() - 28;
        let mut out_of_range = good.clone();
        set_u32(&mut out_of_range, head_at, 7);
        assert_eq!(invalid(&out_of_range), Err(ErrorKind::Invalid));
        let mut at_occupied = good.clone();
        set_u32(&mut at_occupied, head_at, 0);
        assert_eq!(invalid(&at_occupied), Err(ErrorKind::Invalid));
        // Live count 1 above a high-water mark of 0.
        let mut low_water = good.clone();
        low_water[good.len() - 16] = 0;
        assert_eq!(invalid(&low_water), Err(ErrorKind::Invalid));
        // Two vacant slots linked 1 -> 0 -> NIL; close the loop 0 -> 1.
        let mut p = FlowPool::new();
        let (a, b) = (p.insert_receiver(key(1), 1), p.insert_receiver(key(2), 1));
        p.free(a).unwrap();
        p.free(b).unwrap();
        let good = p.to_bytes().unwrap();
        assert_eq!(invalid(&good), Ok(()));
        let mut cycle = good.clone();
        set_u32(&mut cycle, link_at(0), 1);
        assert_eq!(invalid(&cycle), Err(ErrorKind::Invalid));
        // A chain that skips a vacant slot, and occupancy that disagrees
        // with the slots.
        let mut short = good.clone();
        set_u32(&mut short, link_at(1), NIL);
        assert_eq!(invalid(&short), Err(ErrorKind::Invalid));
        let live_at = good.len() - 24;
        let mut miscounted = good.clone();
        miscounted[live_at] = 1;
        assert_eq!(invalid(&miscounted), Err(ErrorKind::Invalid));
    }

    #[test]
    fn from_bytes_bounds_the_slot_count_by_the_bytes_behind_it() {
        let mut p = FlowPool::new();
        p.insert_receiver(key(1), 1);
        let mut blob = p.to_bytes().unwrap();
        set_u32(&mut blob, 0, u32::MAX);
        assert_eq!(
            FlowPool::from_bytes(&blob).unwrap_err().kind,
            ErrorKind::Count
        );
        // No column or row table is grown for a count the input cannot hold.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        assert_eq!(
            FlowPool::from_bytes(&w.into_bytes()).unwrap_err().kind,
            ErrorKind::Count
        );
    }

    #[test]
    fn undrained_output_refuses_checkpoint() {
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(1000), cfg(1460), 1);
        p.on_start(s, SimTime::ZERO).unwrap();
        assert!(p.to_bytes().is_err(), "output queue not drained");
    }

    #[test]
    fn display_formats() {
        let mut p = FlowPool::new();
        let r = p.insert_sender(key(1), cfg(1), 1);
        assert_eq!(format!("{r}"), "flow#0g0");
        p.free(r).unwrap();
        let err = p.state(r).unwrap_err();
        assert!(format!("{err}").contains("vacant"));
    }
}
