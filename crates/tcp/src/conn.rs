//! Sans-I/O TCP sender and receiver state machines.
//!
//! Both machines consume events (`on_segment`, `on_tick`) and produce
//! outgoing packets into the slot's output list (drained with
//! [`FlowPool::drain_out`](crate::pool::FlowPool::drain_out)), plus a
//! `next_event_time` deadline the host must arm a timer for. No simulator
//! types beyond `Packet`/`SimTime` leak in, so every protocol behavior is
//! unit-testable below without an event loop.
//!
//! ## Column layout
//!
//! All per-connection state is factored into small column structs —
//! `SeqState`, `RtxQueue`, `SenderMeta`, `RcvState` — grouped into one
//! row per endpoint: a `SenderRow` holds a sender's seven columns and a
//! `RecvRow` a receiver's two. The protocol logic is written once
//! against *borrowed views* over a row's columns (`SenderCols`,
//! `RecvCols`). [`crate::pool::FlowPool`] keeps the rows in chunks that
//! never move, one table per kind (the shape a [`crate::host::TcpHost`]
//! runs millions of flows on), and hands out one view per slot through
//! split borrows of its row, its key and its output list
//! (`Outbox`); the tests below drive a pool of one sender and one
//! receiver.
//!
//! ## Lifecycle
//!
//! With `TcpSenderConfig::handshake == false` (the default) connections
//! behave exactly as the original model: data starts flowing on
//! `on_start`, a FIN closes the stream, and there is no three-way
//! handshake. With `handshake == true` the machines walk the full
//! RFC 9293 lifecycle: SYN-SENT / SYN-RECEIVED setup, FIN-WAIT-1/2,
//! CLOSE-WAIT / LAST-ACK and a timed TIME-WAIT — which is what the
//! SYN-flood and connection-churn workloads exercise.

use crate::pool::Outbox;
use crate::reno::Reno;
use crate::rtt::RttEstimator;
use crate::seq::{seq_dist, seq_ge, seq_gt, seq_lt};
use dui_netsim::packet::{FlowKey, Header, Packet, TcpFlags};
use dui_netsim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// RFC 9293 connection states (plus `Idle`, the pre-open CLOSED a sender
/// sits in between construction and `on_start`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// CLOSED before the connection was ever opened.
    Idle,
    /// Passive open: waiting for a SYN.
    Listen,
    /// Active open: SYN sent, waiting for the SYN-ACK.
    SynSent,
    /// Passive open: SYN seen, SYN-ACK sent, waiting for the final ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// Our FIN is out, not yet acknowledged.
    FinWait1,
    /// Our FIN is acknowledged; waiting for the peer's FIN.
    FinWait2,
    /// Both sides sent FINs, ours not yet acknowledged (simultaneous close).
    Closing,
    /// Peer's FIN consumed; our side has not closed yet.
    CloseWait,
    /// Our FIN is out after the peer's; waiting for its ACK.
    LastAck,
    /// Fully closed, draining stray segments for 2MSL.
    TimeWait,
    /// CLOSED after teardown completed.
    Closed,
}

impl TcpState {
    /// Stable one-byte code for state digests and checkpoint codecs.
    pub fn code(self) -> u8 {
        match self {
            TcpState::Idle => 0,
            TcpState::Listen => 1,
            TcpState::SynSent => 2,
            TcpState::SynRcvd => 3,
            TcpState::Established => 4,
            TcpState::FinWait1 => 5,
            TcpState::FinWait2 => 6,
            TcpState::Closing => 7,
            TcpState::CloseWait => 8,
            TcpState::LastAck => 9,
            TcpState::TimeWait => 10,
            TcpState::Closed => 11,
        }
    }

    /// Inverse of [`TcpState::code`].
    pub fn from_code(c: u8) -> Option<TcpState> {
        Some(match c {
            0 => TcpState::Idle,
            1 => TcpState::Listen,
            2 => TcpState::SynSent,
            3 => TcpState::SynRcvd,
            4 => TcpState::Established,
            5 => TcpState::FinWait1,
            6 => TcpState::FinWait2,
            7 => TcpState::Closing,
            8 => TcpState::CloseWait,
            9 => TcpState::LastAck,
            10 => TcpState::TimeWait,
            11 => TcpState::Closed,
            _ => return None,
        })
    }
}

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct TcpSenderConfig {
    /// Maximum segment size (payload bytes per packet).
    pub mss: u32,
    /// Total application bytes to transfer; `None` = unbounded stream.
    pub total_bytes: Option<u64>,
    /// Application pacing in bytes/second; `None` = send as fast as the
    /// window allows. Pacing models app-limited flows (video, interactive),
    /// which dominate the CAIDA-like workloads.
    pub app_rate: Option<u64>,
    /// Initial congestion window (segments).
    pub initial_cwnd: f64,
    /// Run the full RFC 9293 lifecycle (SYN handshake, FIN/FIN teardown,
    /// TIME-WAIT). `false` preserves the original handshake-less model.
    pub handshake: bool,
    /// TIME-WAIT (2MSL) linger before the connection is fully CLOSED.
    /// Only consulted when `handshake` is set.
    pub time_wait: SimDuration,
}

impl Default for TcpSenderConfig {
    fn default() -> Self {
        TcpSenderConfig {
            mss: 1460,
            total_bytes: None,
            app_rate: None,
            initial_cwnd: 10.0,
            handshake: false,
            time_wait: SimDuration::from_secs(60),
        }
    }
}

/// Sender-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SenderStats {
    /// Application bytes acknowledged.
    pub bytes_acked: u64,
    /// Data segments sent (including retransmissions and SYN/FIN).
    pub segments_sent: u64,
    /// Retransmitted segments (fast retransmit + RTO).
    pub retransmissions: u64,
    /// Fast retransmissions (3 dup ACKs).
    pub fast_retransmits: u64,
    /// RTO events.
    pub timeouts: u64,
    /// When the FIN was acknowledged, if the flow completed.
    pub completed_at: Option<SimTime>,
}

/// One outstanding segment awaiting acknowledgement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentRecord {
    pub(crate) sent_at: SimTime,
    pub(crate) retransmitted: bool,
    pub(crate) len: u32,
}

/// The retransmission queue: outstanding segments in send order.
///
/// Send order *is* sequence order (`snd_nxt` only grows; retransmissions
/// update records in place), so the queue replaces the old
/// `HashMap<u32, SegmentRecord>` with a layout whose iteration order is
/// already canonical — digests walk the queue front-to-back with no
/// sort-before-iterate dance, and cumulative ACKs pop from the front.
#[derive(Debug, Clone, Default)]
pub(crate) struct RtxQueue {
    q: VecDeque<(u32, SegmentRecord)>,
}

impl RtxQueue {
    pub(crate) fn push(&mut self, seq: u32, rec: SegmentRecord) {
        self.q.push_back((seq, rec));
    }

    pub(crate) fn front(&self) -> Option<(u32, &SegmentRecord)> {
        self.q.front().map(|(s, r)| (*s, r))
    }

    pub(crate) fn front_mut(&mut self) -> Option<(u32, &mut SegmentRecord)> {
        self.q.front_mut().map(|(s, r)| (*s, r))
    }

    pub(crate) fn pop_front(&mut self) -> Option<(u32, SegmentRecord)> {
        self.q.pop_front()
    }

    pub(crate) fn len(&self) -> usize {
        self.q.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &SegmentRecord)> {
        self.q.iter().map(|(s, r)| (*s, r))
    }
}

/// Sequence-space column: ISN, send cursor and the phantom-byte markers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeqState {
    pub(crate) isn: u32,
    pub(crate) snd_una: u32,
    pub(crate) snd_nxt: u32,
    pub(crate) app_sent: u64,
    pub(crate) fin_seq: Option<u32>,
    pub(crate) syn_seq: Option<u32>,
    /// NewReno-style recovery: while `Some(r)`, every partial ACK below `r`
    /// immediately retransmits the new head instead of waiting an RTO.
    pub(crate) recovery_until: Option<u32>,
}

impl SeqState {
    pub(crate) fn new(isn: u32) -> Self {
        SeqState {
            isn,
            snd_una: isn,
            snd_nxt: isn,
            app_sent: 0,
            fin_seq: None,
            syn_seq: None,
            recovery_until: None,
        }
    }
}

impl Default for SeqState {
    fn default() -> Self {
        SeqState::new(0)
    }
}

/// Timer/window column: everything the sender consults between segments.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SenderMeta {
    pub(crate) started_at: SimTime,
    pub(crate) dupacks: u32,
    pub(crate) rto_deadline: Option<SimTime>,
    pub(crate) pace_deadline: Option<SimTime>,
    pub(crate) timewait_deadline: Option<SimTime>,
    pub(crate) peer_rwnd: u32,
    pub(crate) state: TcpState,
}

impl Default for SenderMeta {
    fn default() -> Self {
        SenderMeta {
            started_at: SimTime::ZERO,
            dupacks: 0,
            rto_deadline: None,
            pace_deadline: None,
            timewait_deadline: None,
            peer_rwnd: u32::MAX,
            state: TcpState::Idle,
        }
    }
}

/// One sender's columns, stored together: a sender event touches one
/// contiguous row.
#[derive(Debug, Default)]
pub(crate) struct SenderRow {
    pub(crate) cfg: TcpSenderConfig,
    pub(crate) cc: Reno,
    pub(crate) rtt: RttEstimator,
    pub(crate) seq: SeqState,
    pub(crate) rtx: RtxQueue,
    pub(crate) meta: SenderMeta,
    pub(crate) stats: SenderStats,
}

impl SenderRow {
    /// A sender with `cfg` and ISN `isn` that has not started yet.
    pub(crate) fn new(cfg: TcpSenderConfig, isn: u32) -> Self {
        SenderRow {
            cc: Reno::new(cfg.initial_cwnd),
            cfg,
            rtt: RttEstimator::default(),
            seq: SeqState::new(isn),
            rtx: RtxQueue::default(),
            meta: SenderMeta::default(),
            stats: SenderStats::default(),
        }
    }

    /// Borrowed view over this row for the flow `key`, emitting into `out`.
    pub(crate) fn cols<'a>(&'a mut self, key: FlowKey, out: Outbox<'a>) -> SenderCols<'a> {
        SenderCols {
            key,
            cfg: &self.cfg,
            cc: &mut self.cc,
            rtt: &mut self.rtt,
            seq: &mut self.seq,
            rtx: &mut self.rtx,
            meta: &mut self.meta,
            out,
            stats: &mut self.stats,
        }
    }
}

/// Borrowed view over one sender's columns. The protocol implementation
/// lives here; [`crate::pool::FlowPool`] constructs this view over one
/// slot's row and output list.
pub(crate) struct SenderCols<'a> {
    pub(crate) key: FlowKey,
    pub(crate) cfg: &'a TcpSenderConfig,
    pub(crate) cc: &'a mut Reno,
    pub(crate) rtt: &'a mut RttEstimator,
    pub(crate) seq: &'a mut SeqState,
    pub(crate) rtx: &'a mut RtxQueue,
    pub(crate) meta: &'a mut SenderMeta,
    pub(crate) out: Outbox<'a>,
    pub(crate) stats: &'a mut SenderStats,
}

impl SenderCols<'_> {
    /// Begin transmitting: straight to ESTABLISHED without a handshake,
    /// or emit a SYN and wait in SYN-SENT with one.
    pub(crate) fn on_start(&mut self, now: SimTime) {
        assert_eq!(self.meta.state, TcpState::Idle, "already started");
        self.meta.started_at = now;
        if self.cfg.handshake {
            self.meta.state = TcpState::SynSent;
            let syn = self.seq.isn;
            self.seq.syn_seq = Some(syn);
            self.rtx.push(
                syn,
                SegmentRecord {
                    sent_at: now,
                    retransmitted: false,
                    len: 1, // SYN occupies one sequence number
                },
            );
            self.seq.snd_nxt = syn.wrapping_add(1);
            self.stats.segments_sent += 1;
            self.out.push(Packet::tcp(
                self.key,
                syn,
                0,
                TcpFlags {
                    syn: true,
                    ..TcpFlags::default()
                },
                0,
            ));
            self.rearm_rto(now);
        } else {
            self.meta.state = TcpState::Established;
            self.try_send(now);
        }
    }

    pub(crate) fn in_flight(&self) -> u32 {
        seq_dist(self.seq.snd_una, self.seq.snd_nxt)
    }

    /// A segment for this connection arrived (ACKs, and — in handshake
    /// mode — the peer's FIN).
    pub(crate) fn on_segment(&mut self, now: SimTime, pkt: &Packet) {
        let Header::Tcp {
            seq: pkt_seq,
            ack,
            flags,
            window,
        } = pkt.header
        else {
            return;
        };
        if !flags.ack || self.meta.state == TcpState::Idle || self.meta.state == TcpState::Closed {
            return;
        }
        // RFC 9293 §3.10.7.4: an ACK for data never sent is dropped
        // before it touches the window, the dup-ACK count or a FIN. No
        // ACK goes back (docs/flow-pool.md, "Deviations").
        if seq_gt(ack, self.seq.snd_nxt) {
            return;
        }
        self.meta.peer_rwnd = window;
        if seq_gt(ack, self.seq.snd_una) {
            let prev_una = self.seq.snd_una;
            // New data acknowledged.
            let advanced = seq_dist(self.seq.snd_una, ack);
            // RTT sample from the segment that started at old snd_una,
            // if it was never retransmitted (Karn's rule).
            if let Some((head, rec)) = self.rtx.front() {
                if head == self.seq.snd_una && !rec.retransmitted {
                    self.rtt.sample(now.since(rec.sent_at));
                }
            }
            // ACK counting: one on_ack per fully-acked segment. The queue
            // is in send order, so acked records sit at the front.
            let mut cursor = self.seq.snd_una;
            while seq_lt(cursor, ack) {
                let len = match self.rtx.front() {
                    Some((head, rec)) if head == cursor => {
                        let len = rec.len;
                        self.rtx.pop_front();
                        len
                    }
                    _ => self.cfg.mss,
                };
                self.cc.on_ack();
                cursor = cursor.wrapping_add(len.max(1));
            }
            self.seq.snd_una = ack;
            self.meta.dupacks = 0;
            // Don't count the SYN/FIN phantom bytes as application data.
            let mut phantom = 0u64;
            if let Some(f) = self.seq.fin_seq {
                if seq_ge(ack, f.wrapping_add(1)) {
                    phantom += 1;
                }
            }
            if let Some(s) = self.seq.syn_seq {
                let after_syn = s.wrapping_add(1);
                if seq_ge(ack, after_syn) && seq_lt(prev_una, after_syn) {
                    phantom += 1;
                }
            }
            self.stats.bytes_acked = self
                .stats
                .bytes_acked
                .saturating_add(advanced as u64)
                .saturating_sub(phantom);
            // SYN acknowledged: the handshake is complete — ACK it and
            // start pushing data.
            if self.meta.state == TcpState::SynSent {
                if let Some(s) = self.seq.syn_seq {
                    if seq_ge(self.seq.snd_una, s.wrapping_add(1)) {
                        self.meta.state = TcpState::Established;
                        // Third leg of the handshake: the peer's SYN
                        // occupies its sequence 0, so we acknowledge 1.
                        self.out.push(Packet::tcp(
                            self.key,
                            self.seq.snd_nxt,
                            1,
                            TcpFlags {
                                ack: true,
                                ..TcpFlags::default()
                            },
                            0,
                        ));
                    }
                }
            }
            let fin_acked = self
                .seq
                .fin_seq
                .is_some_and(|f| seq_ge(ack, f.wrapping_add(1)));
            if fin_acked {
                if self.stats.completed_at.is_none() {
                    self.stats.completed_at = Some(now);
                }
                self.meta.rto_deadline = None;
                self.meta.pace_deadline = None;
                if !self.cfg.handshake {
                    self.meta.state = TcpState::Closed;
                    return;
                }
                match self.meta.state {
                    TcpState::FinWait1 => self.meta.state = TcpState::FinWait2,
                    TcpState::Closing => self.enter_time_wait(now),
                    _ => {}
                }
            } else {
                // NewReno partial-ACK handling: if we are recovering from
                // loss and this ACK does not cover the recovery point, the
                // next hole starts at the new head — retransmit it
                // immediately.
                match self.seq.recovery_until {
                    Some(r) if seq_lt(ack, r) => {
                        self.retransmit_head(now);
                    }
                    Some(_) => self.seq.recovery_until = None,
                    None => {}
                }
                self.rearm_rto(now);
                self.try_send(now);
            }
        } else if ack == self.seq.snd_una && self.in_flight() > 0 {
            self.meta.dupacks += 1;
            if self.meta.dupacks == 3 {
                self.fast_retransmit(now);
            }
        }
        // Teardown: the peer's FIN rides on its ACKs.
        if self.cfg.handshake && flags.fin {
            self.on_peer_fin(now, pkt_seq);
        }
    }

    /// Clock tick: check RTO, pacing and TIME-WAIT deadlines.
    pub(crate) fn on_tick(&mut self, now: SimTime) {
        if self.meta.state == TcpState::TimeWait {
            if let Some(d) = self.meta.timewait_deadline {
                if now >= d {
                    self.meta.timewait_deadline = None;
                    self.meta.state = TcpState::Closed;
                }
            }
            return;
        }
        if self.meta.state == TcpState::Closed || self.meta.state == TcpState::Idle {
            return;
        }
        if let Some(d) = self.meta.rto_deadline {
            if now >= d && self.in_flight() > 0 {
                self.on_rto(now);
            }
        }
        if let Some(d) = self.meta.pace_deadline {
            if now >= d {
                self.meta.pace_deadline = None;
                self.try_send(now);
            }
        }
    }

    fn on_peer_fin(&mut self, now: SimTime, fin_seq: u32) {
        let ack_of_fin = fin_seq.wrapping_add(1);
        match self.meta.state {
            TcpState::FinWait1 => {
                // Simultaneous close: both FINs in flight.
                self.ack_peer_fin(ack_of_fin);
                self.meta.state = TcpState::Closing;
            }
            TcpState::FinWait2 => {
                self.ack_peer_fin(ack_of_fin);
                self.enter_time_wait(now);
            }
            TcpState::TimeWait => {
                // Retransmitted peer FIN: re-ACK and restart 2MSL.
                self.ack_peer_fin(ack_of_fin);
                self.meta.timewait_deadline = Some(now + self.cfg.time_wait);
            }
            _ => {}
        }
    }

    fn ack_peer_fin(&mut self, ack: u32) {
        self.out.push(Packet::tcp(
            self.key,
            self.seq.snd_nxt,
            ack,
            TcpFlags {
                ack: true,
                ..TcpFlags::default()
            },
            0,
        ));
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.meta.state = TcpState::TimeWait;
        self.meta.timewait_deadline = Some(now + self.cfg.time_wait);
    }

    fn on_rto(&mut self, now: SimTime) {
        self.stats.timeouts += 1;
        self.cc.on_timeout();
        self.rtt.on_timeout();
        self.meta.dupacks = 0;
        self.seq.recovery_until = Some(self.seq.snd_nxt);
        self.retransmit_head(now);
        self.rearm_rto(now);
    }

    fn fast_retransmit(&mut self, now: SimTime) {
        self.stats.fast_retransmits += 1;
        self.cc.on_fast_retransmit();
        self.seq.recovery_until = Some(self.seq.snd_nxt);
        self.retransmit_head(now);
        self.rearm_rto(now);
    }

    fn retransmit_head(&mut self, now: SimTime) {
        let head = self.seq.snd_una;
        let Some((seq, rec)) = self.rtx.front_mut() else {
            return;
        };
        if seq != head {
            return;
        }
        rec.retransmitted = true;
        rec.sent_at = now;
        let len = rec.len;
        self.stats.retransmissions += 1;
        self.stats.segments_sent += 1;
        let is_fin = self.seq.fin_seq == Some(head);
        let is_syn = self.seq.syn_seq == Some(head);
        let flags = TcpFlags {
            fin: is_fin,
            syn: is_syn,
            ..TcpFlags::default()
        };
        let payload = if is_fin || is_syn { 0 } else { len };
        self.out
            .push(Packet::tcp(self.key, head, 0, flags, payload));
    }

    fn rearm_rto(&mut self, now: SimTime) {
        self.meta.rto_deadline = if self.in_flight() > 0 {
            Some(now + self.rtt.rto())
        } else {
            None
        };
    }

    /// Application bytes available to transmit by `now` under pacing.
    fn app_available(&self, now: SimTime) -> u64 {
        let offered = match self.cfg.app_rate {
            None => u64::MAX,
            Some(rate) => {
                let elapsed = now.since(self.meta.started_at).as_secs_f64();
                (rate as f64 * elapsed) as u64
            }
        };
        match self.cfg.total_bytes {
            Some(total) => offered.min(total),
            None => offered,
        }
    }

    fn try_send(&mut self, now: SimTime) {
        if self.meta.state != TcpState::Established {
            return;
        }
        let win_bytes =
            (self.cc.cwnd_segments() as u64 * self.cfg.mss as u64).min(self.meta.peer_rwnd as u64);
        let available = self.app_available(now);
        loop {
            let in_flight = self.in_flight() as u64;
            if in_flight + self.cfg.mss as u64 > win_bytes {
                break; // window-limited
            }
            let remaining_now = available.saturating_sub(self.seq.app_sent);
            let total_remaining = self
                .cfg
                .total_bytes
                .map(|t| t.saturating_sub(self.seq.app_sent))
                .unwrap_or(u64::MAX);
            if total_remaining == 0 {
                // All data queued; send FIN once.
                if self.seq.fin_seq.is_none() {
                    let fin = self.seq.snd_nxt;
                    self.seq.fin_seq = Some(fin);
                    self.rtx.push(
                        fin,
                        SegmentRecord {
                            sent_at: now,
                            retransmitted: false,
                            len: 1, // FIN occupies one sequence number
                        },
                    );
                    self.seq.snd_nxt = self.seq.snd_nxt.wrapping_add(1);
                    self.meta.state = TcpState::FinWait1;
                    self.stats.segments_sent += 1;
                    self.out.push(Packet::tcp(
                        self.key,
                        fin,
                        0,
                        TcpFlags {
                            fin: true,
                            ..TcpFlags::default()
                        },
                        0,
                    ));
                    self.rearm_rto(now);
                }
                break;
            }
            // Send whole MSS segments only (or the flow's final short
            // tail); partial credit waits for the pacing clock, otherwise
            // ACK-triggered sends would fragment the stream into sub-MSS
            // packets and inflate the packet rate.
            let len = (self.cfg.mss as u64).min(total_remaining) as u32;
            if remaining_now < len as u64 {
                // App-limited: schedule a pacing wake for this segment.
                if let Some(rate) = self.cfg.app_rate {
                    let next_bytes = self.seq.app_sent + len as u64;
                    let at = self.meta.started_at
                        + SimDuration::from_secs_f64(next_bytes as f64 / rate as f64);
                    self.meta.pace_deadline = Some(at.max(now + SimDuration::from_nanos(1)));
                }
                break;
            }
            let seq = self.seq.snd_nxt;
            self.rtx.push(
                seq,
                SegmentRecord {
                    sent_at: now,
                    retransmitted: false,
                    len,
                },
            );
            self.seq.snd_nxt = self.seq.snd_nxt.wrapping_add(len);
            self.seq.app_sent += len as u64;
            self.stats.segments_sent += 1;
            self.out
                .push(Packet::tcp(self.key, seq, 0, TcpFlags::default(), len));
        }
        if self.in_flight() > 0 && self.meta.rto_deadline.is_none() {
            self.rearm_rto(now);
        }
    }
}

/// Earliest deadline among the sender's RTO, pacing and TIME-WAIT timers.
pub(crate) fn sender_next_event_time(meta: &SenderMeta) -> Option<SimTime> {
    [
        meta.rto_deadline,
        meta.pace_deadline,
        meta.timewait_deadline,
    ]
    .into_iter()
    .flatten()
    .min()
}

/// Receiver-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReceiverStats {
    /// In-order application bytes delivered.
    pub bytes_delivered: u64,
    /// Segments that arrived already-acknowledged (spurious retransmits or
    /// network duplicates).
    pub duplicate_segments: u64,
    /// Segments buffered out of order.
    pub out_of_order_segments: u64,
    /// When the FIN was consumed.
    pub finished_at: Option<SimTime>,
}

/// Receiver-side column: cumulative-ACK cursor, reassembly buffer and the
/// passive-open lifecycle state.
#[derive(Debug, Clone)]
pub(crate) struct RcvState {
    pub(crate) rcv_nxt: u32,
    /// Out-of-order segments keyed by absolute sequence number. Segment
    /// boundaries from a single sender are stable, so exact-key lookup at
    /// `rcv_nxt` drains the buffer without wrap-sensitive ordering.
    pub(crate) ooo: BTreeMap<u32, u32>,
    pub(crate) fin_seq: Option<u32>,
    pub(crate) done: bool,
    pub(crate) advertised_window: u32,
    pub(crate) state: TcpState,
    /// Passive-open (SYN-driven) connection walking the full lifecycle?
    pub(crate) handshake: bool,
    pub(crate) our_fin_sent: bool,
}

impl RcvState {
    /// Handshake-less receiver expecting first byte `isn` (the original
    /// model: it is born ESTABLISHED).
    pub(crate) fn new(isn: u32) -> Self {
        RcvState {
            rcv_nxt: isn,
            ooo: BTreeMap::new(),
            fin_seq: None,
            done: false,
            advertised_window: 1 << 20,
            state: TcpState::Established,
            handshake: false,
            our_fin_sent: false,
        }
    }

    /// Passive-open receiver: waits in LISTEN for a SYN.
    pub(crate) fn listen() -> Self {
        RcvState {
            state: TcpState::Listen,
            handshake: true,
            ..RcvState::new(0)
        }
    }
}

impl Default for RcvState {
    fn default() -> Self {
        RcvState::new(0)
    }
}

/// One receiver's columns, stored together.
#[derive(Debug, Default)]
pub(crate) struct RecvRow {
    pub(crate) rcv: RcvState,
    pub(crate) stats: ReceiverStats,
}

impl RecvRow {
    /// Borrowed view over this row for the flow `key`, emitting into `out`.
    pub(crate) fn cols<'a>(&'a mut self, key: FlowKey, out: Outbox<'a>) -> RecvCols<'a> {
        RecvCols {
            key,
            rcv: &mut self.rcv,
            out,
            stats: &mut self.stats,
        }
    }
}

/// Borrowed view over one receiver's columns (see `SenderCols`).
pub(crate) struct RecvCols<'a> {
    pub(crate) key: FlowKey,
    pub(crate) rcv: &'a mut RcvState,
    pub(crate) out: Outbox<'a>,
    pub(crate) stats: &'a mut ReceiverStats,
}

impl RecvCols<'_> {
    /// A segment arrived.
    pub(crate) fn on_segment(&mut self, now: SimTime, pkt: &Packet) {
        let Header::Tcp {
            seq,
            ack: ack_no,
            flags,
            ..
        } = pkt.header
        else {
            return;
        };
        // Passive open: SYN (or a retransmitted duplicate) → SYN-RCVD.
        if flags.syn {
            if matches!(self.rcv.state, TcpState::Listen | TcpState::SynRcvd) {
                if self.rcv.state == TcpState::SynRcvd {
                    self.stats.duplicate_segments += 1;
                }
                self.rcv.rcv_nxt = seq.wrapping_add(1);
                self.rcv.state = TcpState::SynRcvd;
                // SYN-ACK: our ISN is 0 by convention (we never send data).
                self.push_flagged(
                    0,
                    TcpFlags {
                        syn: true,
                        ack: true,
                        ..TcpFlags::default()
                    },
                );
            }
            return;
        }
        // Any non-SYN segment completes the passive handshake.
        if self.rcv.state == TcpState::SynRcvd {
            self.rcv.state = TcpState::Established;
        }
        if flags.ack && pkt.payload == 0 && !flags.fin {
            // Pure ACK. In LAST-ACK it acknowledges our FIN (which sits at
            // our sequence 0); otherwise receivers ignore it.
            if self.rcv.state == TcpState::LastAck && seq_ge(ack_no, 1) {
                self.rcv.state = TcpState::Closed;
            }
            return;
        }
        let len = if flags.fin { 1 } else { pkt.payload };
        if flags.fin {
            self.rcv.fin_seq = Some(seq);
        }
        if len == 0 {
            self.emit_ack();
            return;
        }
        if seq_lt(seq, self.rcv.rcv_nxt) {
            // Entirely old segment: duplicate.
            self.stats.duplicate_segments += 1;
            self.emit_ack();
            return;
        }
        if seq == self.rcv.rcv_nxt {
            let fin_here = flags.fin;
            self.advance(len, fin_here, now);
            // Drain buffered segments that are now contiguous.
            while let Some(blen) = self.rcv.ooo.remove(&self.rcv.rcv_nxt) {
                let fin_here = self.rcv.fin_seq == Some(self.rcv.rcv_nxt);
                self.advance(blen, fin_here, now);
            }
        } else {
            // Future segment: buffer by absolute sequence.
            if self.rcv.ooo.insert(seq, len).is_none() {
                self.stats.out_of_order_segments += 1;
            } else {
                self.stats.duplicate_segments += 1;
            }
        }
        self.emit_ack();
        // Teardown: consuming the peer's FIN moves a handshake connection
        // through CLOSE-WAIT; we have nothing more to send, so the FIN
        // follows immediately and we wait in LAST-ACK for its ACK.
        if self.rcv.done && self.rcv.handshake && !self.rcv.our_fin_sent {
            self.rcv.our_fin_sent = true;
            self.rcv.state = TcpState::CloseWait;
            self.push_flagged(
                0, // our FIN occupies our sequence 0
                TcpFlags {
                    fin: true,
                    ack: true,
                    ..TcpFlags::default()
                },
            );
            self.rcv.state = TcpState::LastAck;
        }
    }

    fn advance(&mut self, len: u32, fin: bool, now: SimTime) {
        self.rcv.rcv_nxt = self.rcv.rcv_nxt.wrapping_add(len);
        if fin {
            self.rcv.done = true;
            if self.rcv.handshake {
                self.rcv.state = TcpState::CloseWait;
            }
            self.stats.finished_at = Some(now);
        } else {
            self.stats.bytes_delivered += len as u64;
        }
    }

    fn emit_ack(&mut self) {
        self.push_flagged(
            0,
            TcpFlags {
                ack: true,
                ..TcpFlags::default()
            },
        );
    }

    /// Emit a reverse-direction segment carrying our advertised window.
    fn push_flagged(&mut self, seq: u32, flags: TcpFlags) {
        let mut p = Packet::tcp(self.key.reversed(), seq, self.rcv.rcv_nxt, flags, 0);
        if let Header::Tcp { window, .. } = &mut p.header {
            *window = self.rcv.advertised_window;
        }
        self.out.push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{FlowPool, FlowRef};
    use dui_netsim::packet::Addr;

    fn key() -> FlowKey {
        FlowKey::tcp(Addr::new(10, 0, 0, 1), 1000, Addr::new(10, 0, 0, 2), 80)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Pipe sender output into receiver and return receiver ACKs.
    fn exchange(p: &mut FlowPool, s: FlowRef, r: FlowRef, now: SimTime) -> Vec<Packet> {
        let mut acks = Vec::new();
        for pkt in p.take_out(s).unwrap() {
            p.on_segment(r, now, &pkt).unwrap();
            acks.extend(p.take_out(r).unwrap());
        }
        acks
    }

    #[test]
    fn lossless_transfer_completes() {
        let cfg = TcpSenderConfig {
            total_bytes: Some(10_000),
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        let r = p.insert_receiver(key(), 1);
        p.on_start(s, t(0)).unwrap();
        let mut now = 0;
        for _ in 0..100 {
            now += 10;
            let acks = exchange(&mut p, s, r, t(now));
            for a in &acks {
                p.on_segment(s, t(now), a).unwrap();
            }
            if p.is_done(s).unwrap() {
                break;
            }
        }
        assert!(p.is_done(s).unwrap());
        assert!(p.is_done(r).unwrap());
        assert_eq!(p.receiver_stats(r).unwrap().bytes_delivered, 10_000);
        assert_eq!(p.sender_stats(s).unwrap().bytes_acked, 10_000);
        assert_eq!(p.sender_stats(s).unwrap().retransmissions, 0);
        assert!(p.sender_stats(s).unwrap().completed_at.is_some());
    }

    #[test]
    fn initial_burst_respects_cwnd() {
        let cfg = TcpSenderConfig {
            total_bytes: Some(1_000_000),
            initial_cwnd: 4.0,
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        p.on_start(s, t(0)).unwrap();
        assert_eq!(p.take_out(s).unwrap().len(), 4, "IW=4 segments");
    }

    #[test]
    fn lost_segment_recovered_by_fast_retransmit() {
        let cfg = TcpSenderConfig {
            total_bytes: Some(1460 * 10),
            initial_cwnd: 10.0,
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        let r = p.insert_receiver(key(), 1);
        p.on_start(s, t(0)).unwrap();
        let mut pkts = p.take_out(s).unwrap();
        assert!(pkts.len() >= 4);
        // Drop the first data segment; deliver the rest -> dup ACKs.
        pkts.remove(0);
        for pkt in &pkts {
            p.on_segment(r, t(5), pkt).unwrap();
        }
        let acks = p.take_out(r).unwrap();
        for a in &acks {
            p.on_segment(s, t(10), a).unwrap();
        }
        assert_eq!(
            p.sender_stats(s).unwrap().fast_retransmits,
            1,
            "3rd dup ACK triggers"
        );
        // The retransmission carries the original (head) sequence number.
        let rtx = p.take_out(s).unwrap();
        assert_eq!(rtx.len(), 1);
        assert_eq!(rtx[0].tcp_seq(), Some(1));
        // Deliver it; receiver now has everything contiguous.
        p.on_segment(r, t(15), &rtx[0]).unwrap();
        let acks = p.take_out(r).unwrap();
        let last = acks.last().unwrap();
        if let Header::Tcp { ack, .. } = last.header {
            assert_eq!(seq_dist(1, ack), 1460 * 10); // all data, FIN not yet sent
        }
    }

    #[test]
    fn rto_fires_when_all_acks_lost() {
        let cfg = TcpSenderConfig {
            total_bytes: Some(1460),
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        p.on_start(s, t(0)).unwrap();
        let first = p.take_out(s).unwrap();
        assert!(!first.is_empty());
        let deadline = p.next_event_time(s).unwrap().unwrap();
        assert_eq!(deadline, t(1000), "initial RTO is 1s");
        // Nothing arrives; fire the RTO.
        p.on_tick(s, deadline).unwrap();
        assert_eq!(p.sender_stats(s).unwrap().timeouts, 1);
        let rtx = p.take_out(s).unwrap();
        assert!(rtx.iter().any(|p| p.tcp_seq() == Some(1)));
        // Backoff doubled.
        assert_eq!(
            p.next_event_time(s).unwrap().unwrap(),
            deadline + SimDuration::from_secs(2)
        );
    }

    #[test]
    fn rto_retransmission_reuses_sequence_number() {
        // This is the Blink-visible signature: same 5-tuple, same seq.
        let cfg = TcpSenderConfig {
            total_bytes: Some(1460),
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        p.on_start(s, t(0)).unwrap();
        let orig = p.take_out(s).unwrap();
        p.on_tick(s, t(1000)).unwrap();
        let rtx = p.take_out(s).unwrap();
        assert_eq!(orig[0].tcp_seq(), rtx[0].tcp_seq());
        assert_eq!(orig[0].key, rtx[0].key);
    }

    #[test]
    fn out_of_order_segments_reassembled() {
        let mut p = FlowPool::new();
        let r = p.insert_receiver(key(), 1);
        let p1 = Packet::tcp(key(), 1, 0, TcpFlags::default(), 1000);
        let p2 = Packet::tcp(key(), 1001, 0, TcpFlags::default(), 1000);
        let p3 = Packet::tcp(key(), 2001, 0, TcpFlags::default(), 1000);
        p.on_segment(r, t(0), &p3).unwrap();
        p.on_segment(r, t(1), &p2).unwrap();
        assert_eq!(p.receiver_stats(r).unwrap().bytes_delivered, 0);
        assert_eq!(p.receiver_stats(r).unwrap().out_of_order_segments, 2);
        p.on_segment(r, t(2), &p1).unwrap();
        assert_eq!(p.receiver_stats(r).unwrap().bytes_delivered, 3000);
        assert_eq!(p.recv_cols(r).unwrap().rcv.rcv_nxt, 3001);
        // Last ACK acknowledges everything.
        let acks = p.take_out(r).unwrap();
        if let Header::Tcp { ack, .. } = acks.last().unwrap().header {
            assert_eq!(ack, 3001);
        }
    }

    #[test]
    fn duplicate_data_detected() {
        let mut p = FlowPool::new();
        let r = p.insert_receiver(key(), 1);
        let p1 = Packet::tcp(key(), 1, 0, TcpFlags::default(), 1000);
        p.on_segment(r, t(0), &p1).unwrap();
        p.on_segment(r, t(1), &p1).unwrap();
        assert_eq!(p.receiver_stats(r).unwrap().duplicate_segments, 1);
        assert_eq!(p.receiver_stats(r).unwrap().bytes_delivered, 1000);
    }

    #[test]
    fn paced_sender_spreads_transmissions() {
        let cfg = TcpSenderConfig {
            total_bytes: Some(14_600),
            app_rate: Some(14_600), // 10 MSS over 1 second
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        p.on_start(s, t(0)).unwrap();
        // At t=0 nothing is available yet.
        assert!(p.take_out(s).unwrap().is_empty());
        let wake = p.next_event_time(s).unwrap().expect("pacing wake armed");
        assert!(wake > t(0) && wake <= t(150));
        p.on_tick(s, t(100)).unwrap(); // 1460 bytes available
        let sent = p.take_out(s).unwrap();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].payload, 1460);
    }

    #[test]
    fn receiver_window_throttles_sender() {
        let cfg = TcpSenderConfig {
            total_bytes: Some(1_000_000),
            initial_cwnd: 100.0,
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        let r = p.insert_receiver(key(), 1);
        p.set_advertised_window(r, 2 * 1460).unwrap(); // 2 segments
        p.on_start(s, t(0)).unwrap();
        let first_burst = p.take_out(s).unwrap(); // full IW before any ACK
        assert_eq!(first_burst.len(), 100);
        // Deliver + ACK: sender learns the tiny window.
        for pkt in &first_burst {
            p.on_segment(r, t(5), pkt).unwrap();
        }
        for a in p.take_out(r).unwrap() {
            p.on_segment(s, t(10), &a).unwrap();
        }
        // All data ACKed, so in_flight = 0; next burst limited to 2 segments.
        let next = p.take_out(s).unwrap();
        assert!(
            next.len() <= 2,
            "window clamp must limit burst, got {}",
            next.len()
        );
    }

    #[test]
    fn unbounded_flow_never_finishes() {
        let cfg = TcpSenderConfig {
            total_bytes: None,
            app_rate: Some(100_000),
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        let r = p.insert_receiver(key(), 1);
        p.on_start(s, t(0)).unwrap();
        for ms in (100..5000).step_by(100) {
            p.on_tick(s, t(ms)).unwrap();
            for a in exchange(&mut p, s, r, t(ms)) {
                p.on_segment(s, t(ms), &a).unwrap();
            }
        }
        assert!(!p.is_done(s).unwrap());
        assert!(p.sender_stats(s).unwrap().bytes_acked > 100_000);
    }

    #[test]
    fn karn_rule_skips_retransmitted_samples() {
        let cfg = TcpSenderConfig {
            total_bytes: Some(1460),
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        let r = p.insert_receiver(key(), 1);
        p.on_start(s, t(0)).unwrap();
        let _ = p.take_out(s).unwrap(); // lost
        p.on_tick(s, t(1000)).unwrap(); // RTO
        let rtx = p.take_out(s).unwrap();
        p.on_segment(r, t(1005), &rtx[0]).unwrap();
        for a in p.take_out(r).unwrap() {
            p.on_segment(s, t(1010), &a).unwrap();
        }
        // The only ACK covered a retransmitted segment: no RTT sample.
        assert!(p.sender_cols(s).unwrap().rtt.srtt().is_none());
    }

    #[test]
    fn fin_completes_stream() {
        let cfg = TcpSenderConfig {
            total_bytes: Some(100),
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        let r = p.insert_receiver(key(), 1);
        p.on_start(s, t(0)).unwrap();
        for step in 1..20 {
            let now = t(step * 10);
            for a in exchange(&mut p, s, r, now) {
                p.on_segment(s, now, &a).unwrap();
            }
            if p.is_done(s).unwrap() {
                break;
            }
        }
        assert!(p.is_done(s).unwrap());
        assert!(p.is_done(r).unwrap());
        assert_eq!(p.sender_stats(s).unwrap().bytes_acked, 100);
        assert_eq!(p.receiver_stats(r).unwrap().bytes_delivered, 100);
    }

    /// Drive a handshake sender/receiver pair until both settle or `steps`
    /// run out, ticking the sender's deadlines along the way.
    fn run_handshake_pair(
        p: &mut FlowPool,
        s: FlowRef,
        r: FlowRef,
        steps: u64,
    ) -> (Vec<TcpState>, Vec<TcpState>) {
        let mut s_states = vec![p.state(s).unwrap()];
        let mut r_states = vec![p.state(r).unwrap()];
        for step in 1..=steps {
            let now = t(step * 10);
            p.on_tick(s, now).unwrap();
            for pkt in p.take_out(s).unwrap() {
                p.on_segment(r, now, &pkt).unwrap();
                if *r_states.last().unwrap() != p.state(r).unwrap() {
                    r_states.push(p.state(r).unwrap());
                }
            }
            for ack in p.take_out(r).unwrap() {
                p.on_segment(s, now, &ack).unwrap();
                if *s_states.last().unwrap() != p.state(s).unwrap() {
                    s_states.push(p.state(s).unwrap());
                }
            }
            if *r_states.last().unwrap() != p.state(r).unwrap() {
                r_states.push(p.state(r).unwrap());
            }
            if *s_states.last().unwrap() != p.state(s).unwrap() {
                s_states.push(p.state(s).unwrap());
            }
        }
        (s_states, r_states)
    }

    #[test]
    fn handshake_walks_full_lifecycle() {
        let cfg = TcpSenderConfig {
            total_bytes: Some(2920),
            handshake: true,
            time_wait: SimDuration::from_millis(50),
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        let r = p.insert_listener(key());
        assert_eq!(p.state(r).unwrap(), TcpState::Listen);
        p.on_start(s, t(0)).unwrap();
        assert_eq!(p.state(s).unwrap(), TcpState::SynSent);
        let (s_states, r_states) = run_handshake_pair(&mut p, s, r, 60);
        assert!(p.is_done(s).unwrap(), "sender states: {s_states:?}");
        assert_eq!(
            p.state(r).unwrap(),
            TcpState::Closed,
            "receiver states: {r_states:?}"
        );
        // The harness samples state between packets, so ESTABLISHED is not
        // observable on the sender: the SYN-ACK completes the handshake AND
        // drains the whole 2-segment flow (plus FIN) in one call.
        assert_eq!(
            s_states,
            vec![
                TcpState::SynSent,
                TcpState::FinWait1,
                TcpState::FinWait2,
                TcpState::TimeWait,
                TcpState::Closed,
            ]
        );
        assert_eq!(
            r_states,
            vec![
                TcpState::Listen,
                TcpState::SynRcvd,
                TcpState::Established,
                TcpState::LastAck,
                TcpState::Closed,
            ]
        );
        // Phantom SYN/FIN bytes are not application data.
        assert_eq!(p.sender_stats(s).unwrap().bytes_acked, 2920);
        assert_eq!(p.receiver_stats(r).unwrap().bytes_delivered, 2920);
    }

    #[test]
    fn lost_syn_is_retransmitted_with_syn_flag() {
        let cfg = TcpSenderConfig {
            total_bytes: Some(1460),
            handshake: true,
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        p.on_start(s, t(0)).unwrap();
        let syn = p.take_out(s).unwrap();
        assert_eq!(syn.len(), 1);
        assert!(syn[0].tcp_flags().unwrap().syn);
        // SYN lost: RTO fires, the retransmission still carries SYN.
        p.on_tick(s, t(1000)).unwrap();
        assert_eq!(p.sender_stats(s).unwrap().timeouts, 1);
        let rtx = p.take_out(s).unwrap();
        assert_eq!(rtx.len(), 1);
        assert!(rtx[0].tcp_flags().unwrap().syn);
        assert_eq!(rtx[0].tcp_seq(), Some(1));
    }

    #[test]
    fn duplicate_syn_draws_duplicate_synack() {
        let mut p = FlowPool::new();
        let r = p.insert_listener(key());
        let syn = Packet::tcp(
            key(),
            7,
            0,
            TcpFlags {
                syn: true,
                ..TcpFlags::default()
            },
            0,
        );
        p.on_segment(r, t(0), &syn).unwrap();
        let first = p.take_out(r).unwrap();
        assert_eq!(first.len(), 1);
        let f = first[0].tcp_flags().unwrap();
        assert!(f.syn && f.ack);
        p.on_segment(r, t(5), &syn).unwrap();
        let second = p.take_out(r).unwrap();
        assert_eq!(second.len(), 1, "duplicate SYN re-draws the SYN-ACK");
        assert_eq!(p.receiver_stats(r).unwrap().duplicate_segments, 1);
        assert_eq!(p.state(r).unwrap(), TcpState::SynRcvd);
    }

    #[test]
    fn time_wait_expires_via_tick() {
        let cfg = TcpSenderConfig {
            total_bytes: Some(100),
            handshake: true,
            time_wait: SimDuration::from_millis(200),
            ..Default::default()
        };
        let mut p = FlowPool::new();
        let s = p.insert_sender(key(), cfg, 1);
        let r = p.insert_listener(key());
        p.on_start(s, t(0)).unwrap();
        let _ = run_handshake_pair(&mut p, s, r, 40);
        // run_handshake_pair ticks in 10 ms steps, so TIME-WAIT (200 ms)
        // has expired within 20 steps and the sender is fully closed.
        assert!(p.is_done(s).unwrap());
        assert!(p.next_event_time(s).unwrap().is_none());
    }
}
