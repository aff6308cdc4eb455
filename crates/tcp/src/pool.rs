//! Generational struct-of-arrays storage for per-flow TCP state.
//!
//! [`crate::host::TcpHost`] used to hold a `HashMap<FlowKey, Endpoint>` of
//! by-value connection structs: every lookup hashed a 13-byte key, every
//! digest sorted the keys, and a million flows meant a million scattered
//! heap boxes. The pool applies the `PacketArena` pattern (dui-netsim) to
//! flows instead of packets: each column of connection state — congestion
//! window, RTT estimator, sequence space, retransmission queue, lifecycle
//! metadata — lives in its own `Vec`, and an 8-byte generational
//! [`FlowRef`] handle addresses one flow across all columns.
//!
//! Slots are recycled through an intrusive free list, so connection churn
//! (SYN floods, short flows) allocates nothing in steady state. Generations
//! make recycling safe: freeing a slot bumps its generation, and every
//! accessor checks the handle's generation first — a stale [`FlowRef`]
//! (e.g. a timer that fires after its flow was evicted) is a typed
//! [`StaleFlowRef`] error, never a silent read of whichever flow now
//! occupies the slot.
//!
//! The protocol logic itself is *not* duplicated here: the pool assembles
//! borrowed `SenderCols`/`RecvCols` views over its columns and calls
//! the one implementation in `conn.rs`.

use crate::conn::{
    digest_recv_cols, digest_sender_cols, RcvState, RecvCols, RtxQueue, SegmentRecord, SenderCols,
    SenderMeta, SenderStats, SeqState, ReceiverStats, TcpSenderConfig, TcpState,
};
use crate::reno::Reno;
use crate::rtt::RttEstimator;
use dui_netsim::packet::{Addr, FlowKey, Packet, Proto};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::digest::StateDigest;
use dui_stats::wire::{DecodeError, ErrorKind, Reader, Writer};
use std::fmt;

/// Sentinel for "no next free slot" in the intrusive free list.
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

/// Slot occupancy column: a live endpoint or a link in the free list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Free { next_free: u32 },
    Sender,
    Receiver,
}

/// Generational struct-of-arrays pool of TCP connection state.
///
/// Every column is indexed by slot; a slot holds either a sender (its
/// sender columns are meaningful) or a receiver (its `rcv` column is).
/// The unused columns of a slot sit at their cheap `Default` values.
#[derive(Debug, Default)]
pub struct FlowPool {
    gens: Vec<u32>,
    kind: Vec<SlotKind>,
    keys: Vec<FlowKey>,
    // Sender columns.
    cfgs: Vec<TcpSenderConfig>,
    cc: Vec<Reno>,
    rtt: Vec<RttEstimator>,
    seq: Vec<SeqState>,
    rtx: Vec<RtxQueue>,
    meta: Vec<SenderMeta>,
    sstats: Vec<SenderStats>,
    // Receiver column.
    rcv: Vec<RcvState>,
    rstats: Vec<ReceiverStats>,
    // Shared.
    out: Vec<Vec<Packet>>,
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

    fn placeholder_key() -> FlowKey {
        FlowKey::tcp(Addr(0), 0, Addr(0), 0)
    }

    /// Claim a slot (recycling LIFO) and return `(idx, gen)`.
    fn claim(&mut self) -> (u32, u32) {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        if self.free_head != NIL {
            let idx = self.free_head;
            let next_free = match self.kind[idx as usize] {
                SlotKind::Free { next_free } => next_free,
                _ => unreachable!("free list points at occupied slot"),
            };
            self.free_head = next_free;
            self.recycled += 1;
            (idx, self.gens[idx as usize])
        } else {
            (self.push_slot(), 0)
        }
    }

    /// Append one vacant slot at generation 0 to every column.
    fn push_slot(&mut self) -> u32 {
        let idx = self.gens.len() as u32;
        assert!(idx != NIL, "flow pool exhausted u32 index space");
        self.gens.push(0);
        self.kind.push(SlotKind::Free { next_free: NIL });
        self.keys.push(Self::placeholder_key());
        self.cfgs.push(TcpSenderConfig::default());
        self.cc.push(Reno::default());
        self.rtt.push(RttEstimator::default());
        self.seq.push(SeqState::default());
        self.rtx.push(RtxQueue::default());
        self.meta.push(SenderMeta::default());
        self.sstats.push(SenderStats::default());
        self.rcv.push(RcvState::default());
        self.rstats.push(ReceiverStats::default());
        self.out.push(Vec::new());
        idx
    }

    /// Store a new sender for `key` (ISN `isn`), returning its handle.
    pub fn insert_sender(&mut self, key: FlowKey, cfg: TcpSenderConfig, isn: u32) -> FlowRef {
        let (idx, gen) = self.claim();
        let i = idx as usize;
        self.kind[i] = SlotKind::Sender;
        self.keys[i] = key;
        self.cc[i] = Reno::new(cfg.initial_cwnd);
        self.cfgs[i] = cfg;
        self.rtt[i] = RttEstimator::default();
        self.seq[i] = SeqState::new(isn);
        self.meta[i] = SenderMeta::default();
        self.sstats[i] = SenderStats::default();
        FlowRef { idx, gen }
    }

    /// Store a new handshake-less receiver expecting first byte `isn`.
    pub fn insert_receiver(&mut self, key: FlowKey, isn: u32) -> FlowRef {
        let (idx, gen) = self.claim();
        let i = idx as usize;
        self.kind[i] = SlotKind::Receiver;
        self.keys[i] = key;
        self.rcv[i] = RcvState::new(isn);
        self.rstats[i] = ReceiverStats::default();
        FlowRef { idx, gen }
    }

    /// Store a new passive-open (LISTEN) receiver for `key`.
    pub fn insert_listener(&mut self, key: FlowKey) -> FlowRef {
        let (idx, gen) = self.claim();
        let i = idx as usize;
        self.kind[i] = SlotKind::Receiver;
        self.keys[i] = key;
        self.rcv[i] = RcvState::listen();
        self.rstats[i] = ReceiverStats::default();
        FlowRef { idx, gen }
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

    /// Generation-check `r`; `Ok(idx)` only for a live, matching slot.
    fn check(&self, r: FlowRef) -> Result<usize, StaleFlowRef> {
        let i = r.idx as usize;
        match (self.gens.get(i), self.kind.get(i)) {
            (Some(gen), Some(kind))
                if *gen == r.gen && !matches!(kind, SlotKind::Free { .. }) =>
            {
                Ok(i)
            }
            _ => Err(self.stale(r)),
        }
    }

    /// What kind of endpoint `r` addresses.
    pub fn kind(&self, r: FlowRef) -> Result<FlowKind, StaleFlowRef> {
        let i = self.check(r)?;
        Ok(match self.kind[i] {
            SlotKind::Sender => FlowKind::Sender,
            SlotKind::Receiver => FlowKind::Receiver,
            SlotKind::Free { .. } => unreachable!("check() rejects free slots"),
        })
    }

    /// Forward-direction flow key of `r`.
    pub fn key(&self, r: FlowRef) -> Result<FlowKey, StaleFlowRef> {
        let i = self.check(r)?;
        Ok(self.keys[i])
    }

    fn check_kind(&self, r: FlowRef, want: SlotKind) -> Result<usize, StaleFlowRef> {
        let i = self.check(r)?;
        assert_eq!(
            self.kind[i], want,
            "flow {r} is not a {want:?} (host dispatch bug)"
        );
        Ok(i)
    }

    /// Borrowed sender view over slot `r` (panics if `r` is a receiver —
    /// the host's by-key dispatch guarantees the kind).
    pub(crate) fn sender_cols(&mut self, r: FlowRef) -> Result<SenderCols<'_>, StaleFlowRef> {
        let i = self.check_kind(r, SlotKind::Sender)?;
        Ok(SenderCols {
            key: self.keys[i],
            cfg: &self.cfgs[i],
            cc: &mut self.cc[i],
            rtt: &mut self.rtt[i],
            seq: &mut self.seq[i],
            rtx: &mut self.rtx[i],
            meta: &mut self.meta[i],
            out: &mut self.out[i],
            stats: &mut self.sstats[i],
        })
    }

    /// Borrowed receiver view over slot `r`.
    pub(crate) fn recv_cols(&mut self, r: FlowRef) -> Result<RecvCols<'_>, StaleFlowRef> {
        let i = self.check_kind(r, SlotKind::Receiver)?;
        Ok(RecvCols {
            key: self.keys[i],
            rcv: &mut self.rcv[i],
            out: &mut self.out[i],
            stats: &mut self.rstats[i],
        })
    }

    /// Begin transmitting on sender `r`.
    pub fn on_start(&mut self, r: FlowRef, now: SimTime) -> Result<(), StaleFlowRef> {
        self.sender_cols(r)?.on_start(now);
        Ok(())
    }

    /// Deliver a segment to the endpoint behind `r`.
    pub fn on_segment(&mut self, r: FlowRef, now: SimTime, pkt: &Packet) -> Result<(), StaleFlowRef> {
        match self.kind(r)? {
            FlowKind::Sender => self.sender_cols(r)?.on_segment(now, pkt),
            FlowKind::Receiver => self.recv_cols(r)?.on_segment(now, pkt),
        }
        Ok(())
    }

    /// Clock tick for sender `r` (receivers are purely reactive).
    pub fn on_tick(&mut self, r: FlowRef, now: SimTime) -> Result<(), StaleFlowRef> {
        if self.kind(r)? == FlowKind::Sender {
            self.sender_cols(r)?.on_tick(now);
        }
        Ok(())
    }

    /// Drain outgoing packets of `r`.
    pub fn take_out(&mut self, r: FlowRef) -> Result<Vec<Packet>, StaleFlowRef> {
        let i = self.check(r)?;
        Ok(std::mem::take(&mut self.out[i]))
    }

    /// Earliest time sender `r` needs a tick (`None` for receivers).
    pub fn next_event_time(&self, r: FlowRef) -> Result<Option<SimTime>, StaleFlowRef> {
        let i = self.check(r)?;
        Ok(match self.kind[i] {
            SlotKind::Sender => crate::conn::sender_next_event_time(&self.meta[i]),
            _ => None,
        })
    }

    /// Lifecycle state of `r`.
    pub fn state(&self, r: FlowRef) -> Result<TcpState, StaleFlowRef> {
        let i = self.check(r)?;
        Ok(match self.kind[i] {
            SlotKind::Sender => self.meta[i].state,
            SlotKind::Receiver => self.rcv[i].state,
            SlotKind::Free { .. } => unreachable!("check() rejects free slots"),
        })
    }

    /// Did the endpoint behind `r` finish (sender fully closed, receiver
    /// consumed the FIN)?
    pub fn is_done(&self, r: FlowRef) -> Result<bool, StaleFlowRef> {
        let i = self.check(r)?;
        Ok(match self.kind[i] {
            SlotKind::Sender => self.meta[i].state == TcpState::Closed,
            SlotKind::Receiver => self.rcv[i].done,
            SlotKind::Free { .. } => unreachable!("check() rejects free slots"),
        })
    }

    /// Sender statistics of `r`.
    pub fn sender_stats(&self, r: FlowRef) -> Result<SenderStats, StaleFlowRef> {
        let i = self.check_kind(r, SlotKind::Sender)?;
        Ok(self.sstats[i])
    }

    /// Receiver statistics of `r`.
    pub fn receiver_stats(&self, r: FlowRef) -> Result<ReceiverStats, StaleFlowRef> {
        let i = self.check_kind(r, SlotKind::Receiver)?;
        Ok(self.rstats[i])
    }

    /// Override receiver `r`'s advertised window.
    pub fn set_advertised_window(&mut self, r: FlowRef, w: u32) -> Result<(), StaleFlowRef> {
        let i = self.check_kind(r, SlotKind::Receiver)?;
        self.rcv[i].advertised_window = w;
        Ok(())
    }

    /// Free the flow behind `r`, recycling its slot (LIFO). The handle
    /// (and any copy of it, e.g. inside a pending timer token) is stale
    /// afterwards. The output queue is cleared in place, so churn reuses
    /// its buffer. Every other column, the retransmission queue and the
    /// reassembly map included, is reset to its default, which frees the
    /// queue's buffer: clearing it in place instead, on a 400k-slot pool,
    /// cost 9 % more peak memory and saved no time.
    pub fn free(&mut self, r: FlowRef) -> Result<(), StaleFlowRef> {
        let i = self.check(r)?;
        self.gens[i] = self.gens[i].wrapping_add(1);
        self.kind[i] = SlotKind::Free {
            next_free: self.free_head,
        };
        self.free_head = r.idx;
        self.live -= 1;
        self.keys[i] = Self::placeholder_key();
        self.cfgs[i] = TcpSenderConfig::default();
        self.cc[i] = Reno::default();
        self.rtt[i] = RttEstimator::default();
        self.seq[i] = SeqState::default();
        self.rtx[i] = RtxQueue::default();
        self.meta[i] = SenderMeta::default();
        self.sstats[i] = SenderStats::default();
        self.rcv[i] = RcvState::default();
        self.rstats[i] = ReceiverStats::default();
        self.out[i].clear();
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

    /// Fold every live flow into `d` in slot order (handle order *is* the
    /// canonical order — this is what retired the sort-keys-then-iterate
    /// dance the HashMap layout forced on `TcpHost::state_digest`).
    pub fn state_digest(&self, d: &mut StateDigest) {
        d.write_len(self.live);
        for (i, kind) in self.kind.iter().enumerate() {
            match kind {
                SlotKind::Free { .. } => continue,
                SlotKind::Sender => {
                    d.write_u32(i as u32);
                    d.write_u32(self.gens[i]);
                    d.write_u8(0);
                    digest_sender_cols(
                        d,
                        &self.keys[i],
                        &self.cfgs[i],
                        &self.cc[i],
                        &self.rtt[i],
                        &self.seq[i],
                        &self.rtx[i],
                        &self.meta[i],
                        &self.out[i],
                        &self.sstats[i],
                    );
                }
                SlotKind::Receiver => {
                    d.write_u32(i as u32);
                    d.write_u32(self.gens[i]);
                    d.write_u8(1);
                    digest_recv_cols(d, &self.keys[i], &self.rcv[i], &self.out[i], &self.rstats[i]);
                }
            }
        }
        d.write_u64(self.recycled);
        d.write_usize(self.high_water);
    }

    /// Serialize the whole pool for checkpointing. Fails if any output
    /// queue is undrained (hosts drain after every event, so a checkpoint
    /// boundary never sees buffered packets — serializing them would drag
    /// the full packet codec in here for a case that cannot occur).
    pub fn to_bytes(&self) -> Result<Vec<u8>, String> {
        let mut w = Writer::new();
        w.u32(self.gens.len() as u32);
        for i in 0..self.gens.len() {
            if !self.out[i].is_empty() {
                return Err(format!("flow slot {i} has undrained output"));
            }
            w.u32(self.gens[i]);
            match self.kind[i] {
                SlotKind::Free { next_free } => {
                    w.u8(0);
                    w.u32(next_free);
                }
                SlotKind::Sender => {
                    w.u8(1);
                    self.keys[i].encode(&mut w);
                    put_cfg(&mut w, &self.cfgs[i]);
                    let (cwnd, ssthresh) = self.cc[i].to_parts();
                    w.f64(cwnd);
                    w.f64(ssthresh);
                    let (srtt, rttvar, rto, backoff, min_rto, max_rto) = self.rtt[i].to_parts();
                    w.opt(srtt, Writer::u64);
                    w.u64(rttvar);
                    w.u64(rto);
                    w.u32(backoff);
                    w.u64(min_rto);
                    w.u64(max_rto);
                    let s = &self.seq[i];
                    w.u32(s.isn);
                    w.u32(s.snd_una);
                    w.u32(s.snd_nxt);
                    w.u64(s.app_sent);
                    w.opt(s.fin_seq, Writer::u32);
                    w.opt(s.syn_seq, Writer::u32);
                    w.opt(s.recovery_until, Writer::u32);
                    let q = &self.rtx[i];
                    w.u32(q.len() as u32);
                    for (seq, rec) in q.iter() {
                        w.u32(seq);
                        w.u64(rec.sent_at.0);
                        w.bool(rec.retransmitted);
                        w.u32(rec.len);
                    }
                    let m = &self.meta[i];
                    w.u64(m.started_at.0);
                    w.u32(m.dupacks);
                    w.opt(m.rto_deadline.map(|t| t.0), Writer::u64);
                    w.opt(m.pace_deadline.map(|t| t.0), Writer::u64);
                    w.opt(m.timewait_deadline.map(|t| t.0), Writer::u64);
                    w.u32(m.peer_rwnd);
                    w.u8(m.state.code());
                    let st = &self.sstats[i];
                    w.u64(st.bytes_acked);
                    w.u64(st.segments_sent);
                    w.u64(st.retransmissions);
                    w.u64(st.fast_retransmits);
                    w.u64(st.timeouts);
                    w.opt(st.completed_at.map(|t| t.0), Writer::u64);
                }
                SlotKind::Receiver => {
                    w.u8(2);
                    self.keys[i].encode(&mut w);
                    let rv = &self.rcv[i];
                    w.u32(rv.rcv_nxt);
                    w.u32(rv.ooo.len() as u32);
                    for (seq, len) in &rv.ooo {
                        w.u32(*seq);
                        w.u32(*len);
                    }
                    w.opt(rv.fin_seq, Writer::u32);
                    w.bool(rv.done);
                    w.u32(rv.advertised_window);
                    w.u8(rv.state.code());
                    w.bool(rv.handshake);
                    w.bool(rv.our_fin_sent);
                    let st = &self.rstats[i];
                    w.u64(st.bytes_delivered);
                    w.u64(st.duplicate_segments);
                    w.u64(st.out_of_order_segments);
                    w.opt(st.finished_at.map(|t| t.0), Writer::u64);
                }
            }
        }
        w.u32(self.free_head);
        w.u64(self.live as u64);
        w.u64(self.high_water as u64);
        w.u64(self.recycled);
        Ok(w.into_bytes())
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
                    p.kind[i] = SlotKind::Sender;
                    p.keys[i] = get_tcp_key(&mut r)?;
                    p.cfgs[i] = get_cfg(&mut r)?;
                    p.cc[i] = Reno::from_parts(r.f64("cwnd")?, r.f64("ssthresh")?);
                    p.rtt[i] = RttEstimator::from_parts(
                        r.opt("srtt", Reader::quantity)?,
                        r.quantity("rttvar")?,
                        r.quantity("rto")?,
                        r.u32("rto backoff")?,
                        r.quantity("min rto")?,
                        r.quantity("max rto")?,
                    )
                    .ok_or_else(|| r.error("rtt estimator", ErrorKind::Invalid))?;
                    let s = &mut p.seq[i];
                    s.isn = r.u32("isn")?;
                    s.snd_una = r.u32("snd_una")?;
                    s.snd_nxt = r.u32("snd_nxt")?;
                    s.app_sent = r.quantity("app_sent")?;
                    s.fin_seq = r.opt("fin_seq", Reader::u32)?;
                    s.syn_seq = r.opt("syn_seq", Reader::u32)?;
                    s.recovery_until = r.opt("recovery point", Reader::u32)?;
                    for _ in 0..r.count("rtx queue length", Reader::u32, MIN_RTX_BYTES)? {
                        let seq = r.u32("rtx seq")?;
                        let rec = SegmentRecord {
                            sent_at: SimTime(r.quantity("rtx sent_at")?),
                            retransmitted: r.bool("rtx retransmitted")?,
                            len: get_segment_len(&mut r, "rtx len")?,
                        };
                        p.rtx[i].push(seq, rec);
                    }
                    let m = &mut p.meta[i];
                    m.started_at = SimTime(r.quantity("started_at")?);
                    m.dupacks = r.u32("dupacks")?;
                    m.rto_deadline = r.opt("rto deadline", get_time)?;
                    m.pace_deadline = r.opt("pace deadline", get_time)?;
                    m.timewait_deadline = r.opt("time-wait deadline", get_time)?;
                    m.peer_rwnd = r.u32("peer rwnd")?;
                    m.state = get_state(&mut r)?;
                    let st = &mut p.sstats[i];
                    st.bytes_acked = r.quantity("bytes acked")?;
                    st.segments_sent = r.quantity("segments sent")?;
                    st.retransmissions = r.quantity("retransmissions")?;
                    st.fast_retransmits = r.quantity("fast retransmits")?;
                    st.timeouts = r.quantity("timeouts")?;
                    st.completed_at = r.opt("completed_at", get_time)?;
                }
                2 => {
                    p.kind[i] = SlotKind::Receiver;
                    p.keys[i] = get_tcp_key(&mut r)?;
                    let rv = &mut p.rcv[i];
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
                    let st = &mut p.rstats[i];
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

pub(crate) fn put_cfg(w: &mut Writer, cfg: &TcpSenderConfig) {
    w.u32(cfg.mss);
    w.opt(cfg.total_bytes, Writer::u64);
    w.opt(cfg.app_rate, Writer::u64);
    w.f64(cfg.initial_cwnd);
    w.bool(cfg.handshake);
    w.u64(cfg.time_wait.as_nanos());
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

    fn key(sport: u16) -> FlowKey {
        FlowKey::tcp(Addr::new(10, 0, 0, 1), sport, Addr::new(10, 0, 0, 2), 80)
    }

    fn cfg(total: u64) -> TcpSenderConfig {
        TcpSenderConfig {
            total_bytes: Some(total),
            ..Default::default()
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
        assert_eq!(FlowPool::from_bytes(&blob).unwrap_err().kind, ErrorKind::Count);
        // Twelve columns are never grown for a count the input cannot hold.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        assert_eq!(FlowPool::from_bytes(&w.into_bytes()).unwrap_err().kind, ErrorKind::Count);
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
