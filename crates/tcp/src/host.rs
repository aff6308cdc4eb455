//! [`TcpHost`]: adapts the sans-I/O TCP machines to the `dui-netsim`
//! event loop. One host can source and sink many connections — per-flow
//! state lives in a generational [`FlowPool`], so a host scales to
//! millions of concurrent flows (the `flow-scale` bench stage) with
//! handle-indexed columns instead of a `HashMap` of by-value endpoints.
//!
//! Flow arrivals stream in through a [`FlowSource`]: the host admits the
//! next due flow and re-arms one wake timer for the one after, so a
//! million-flow workload never materializes a million `FlowSpec`s up
//! front. Per-flow timers carry the flow's [`FlowRef`] in the token; a
//! timer that outlives its flow fails the pool's generation check and is
//! dropped (counted, never misdelivered). The host keeps at most one wake
//! pending per sender: the engine has no timer cancellation, so re-arming
//! on every ACK would leave a chain of wakes that each find nothing due.

use crate::conn::{ReceiverStats, SenderStats, TcpSenderConfig, TcpState};
use crate::pool::{FlowKind, FlowPool, FlowRef, StaleFlowRef, TcpKey};
use dui_netsim::packet::{FlowKey, Header, Packet};
use dui_netsim::prelude::{Ctx, NodeLogic};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::hash::FixedState;
use dui_stats::wire::{
    wire_struct, DecodeError, Encoder, Encoding, ErrorKind, Qty, Reader, Seq, Sink, Wire,
};
use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Declarative description of a flow a host should source.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Forward-direction 5-tuple (src must be this host's address).
    pub key: FlowKey,
    /// When to start.
    pub start: SimTime,
    /// Sender parameters.
    pub config: TcpSenderConfig,
}

/// A stream of flow arrivals, consumed in nondecreasing start order.
///
/// The host pulls one due flow at a time ([`FlowSource::pop_due`]) and
/// arms a single wake timer for the next arrival, so sources can generate
/// flows lazily — `dui-flowgen`'s `FlowStream` derives each arrival from
/// the seeded RNG on demand instead of materializing the whole workload.
pub trait FlowSource: Send {
    /// Remove and return the next flow if it starts at or before `now`.
    /// Implementations must yield flows in nondecreasing `start` order.
    fn pop_due(&mut self, now: SimTime) -> Option<FlowSpec>;

    /// Start time of the next (not yet admitted) flow, if any.
    fn peek_start(&self) -> Option<SimTime>;

    /// Write the source's remaining-arrivals state into its host's (see
    /// [`NodeLogic::encode`]). A restored host reads back a [`VecSource`]'s
    /// form only, so any other source calls [`Sink::refuse`].
    fn encode(&self, s: &mut Sink<'_>);
}

wire_struct!(FlowSpec { key: TcpKey, start: Qty<SimTime>, config: TcpSenderConfig });

/// The materialized [`FlowSource`]: a start-sorted queue of specs.
#[derive(Default)]
pub struct VecSource {
    pending: VecDeque<FlowSpec>,
}

impl VecSource {
    /// Source that will yield `flows` (sorted by start time here).
    pub fn new(mut flows: Vec<FlowSpec>) -> Self {
        flows.sort_by_key(|f| f.start);
        VecSource {
            pending: flows.into(),
        }
    }
}

impl FlowSource for VecSource {
    fn pop_due(&mut self, now: SimTime) -> Option<FlowSpec> {
        if self.pending.front()?.start <= now {
            self.pending.pop_front()
        } else {
            None
        }
    }

    fn peek_start(&self) -> Option<SimTime> {
        self.pending.front().map(|f| f.start)
    }

    /// A `u32` count, then each pending spec.
    fn encode(&self, s: &mut Sink<'_>) {
        s.u32(self.pending.len() as u32);
        self.pending.iter().for_each(|spec| spec.put(s));
    }
}

/// Host policy knobs. The default reproduces the original host exactly:
/// no backlog cap, no eviction, no half-open reaper.
#[derive(Debug, Clone, Default)]
pub struct TcpHostConfig {
    /// Maximum simultaneous half-open (SYN-RCVD) connections; further
    /// SYNs are dropped (counted in `syn_dropped`). `None` = unbounded.
    pub listen_backlog: Option<usize>,
    /// Free a flow's pool slot as soon as it reaches CLOSED, folding its
    /// stats into the host aggregates. Required for long churn runs —
    /// without it every flow that ever existed keeps its slot.
    pub evict_closed: bool,
    /// Evict receivers still in SYN-RCVD after this long (SYN-flood
    /// defense / realism knob). `None` = half-open connections persist.
    pub syn_rcvd_timeout: Option<SimDuration>,
}

wire_struct!(TcpHostConfig {
    listen_backlog: Option<Qty<usize>>, evict_closed: bool,
    syn_rcvd_timeout: Option<Qty<SimDuration>>,
});

/// Aggregate host counters: lifecycle transitions observed across all
/// flows plus the stats of evicted (no longer pooled) flows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// Flows admitted from the source (senders created).
    pub admitted: u64,
    /// Pool slots freed by eviction (closed flows + reaped half-opens).
    pub evictions: u64,
    /// Timer tokens that arrived after their flow was evicted.
    pub stale_wakes: u64,
    /// SYNs dropped by the `listen_backlog` cap.
    pub syn_dropped: u64,
    /// Half-open connections reaped by `syn_rcvd_timeout`.
    pub syn_timeouts: u64,
    /// Current half-open (SYN-RCVD) connections.
    pub synrcvd_live: u64,
    /// Peak simultaneous half-open connections.
    pub synrcvd_peak: u64,
    /// Total connections that ever entered SYN-RCVD.
    pub synrcvd_total: u64,
    /// Connections that entered TIME-WAIT.
    pub timewait_entered: u64,
    /// Passive-open handshakes completed (SYN-RCVD → ESTABLISHED).
    pub handshakes_completed: u64,
    /// Evicted senders that had completed their transfer.
    pub evicted_completed_senders: u64,
    /// `bytes_acked` carried by evicted senders.
    pub evicted_bytes_acked: u64,
    /// `bytes_delivered` carried by evicted receivers.
    pub evicted_bytes_received: u64,
    /// Evicted receivers that had consumed their FIN.
    pub evicted_done_receivers: u64,
}

wire_struct!(HostCounters {
    admitted: Qty,
    evictions: Qty,
    stale_wakes: Qty,
    syn_dropped: Qty,
    syn_timeouts: Qty,
    synrcvd_live: Qty,
    synrcvd_peak: Qty,
    synrcvd_total: Qty,
    timewait_entered: Qty,
    handshakes_completed: Qty,
    evicted_completed_senders: Qty,
    evicted_bytes_acked: Qty,
    evicted_bytes_received: Qty,
    evicted_done_receivers: Qty,
});

/// A host that runs TCP senders (from a [`FlowSource`]) and spawns
/// receivers on demand for incoming flows. All per-flow state lives in a
/// [`FlowPool`]; `by_key` and `shadowed` are lookup indexes only and are
/// never iterated (pool slot order is the canonical iteration order).
pub struct TcpHost {
    source: Box<dyn FlowSource>,
    pool: FlowPool,
    /// Live pool handles by the key their segments *arrive* with: a
    /// sender under its forward key reversed (its ACKs), a receiver under
    /// its own key — so an arriving segment costs one probe. Lookup only
    /// — never iterated. Keyless hasher: the keys are minted in this
    /// process by seeded generators (`flowgen`, `attacks::syn_flood`) and
    /// arrive over simulated links, never from a socket. The one outside
    /// source is [`NodeLogic::load_state`] rebuilding the index from a
    /// checkpoint: keys crafted to collide can slow that one call,
    /// quadratically in the flow count the blob's own length bounds.
    by_key: HashMap<FlowKey, FlowRef, FixedState>,
    /// Receivers whose arrival key a later sender took over in `by_key`
    /// (a sender's ACKs take precedence over a receiver's data), by that
    /// key. They get no segments while the sender lives and take the
    /// entry back when it leaves. Empty unless keys collide.
    shadowed: HashMap<FlowKey, FlowRef, FixedState>,
    /// Sender creation order, for stable stats iteration.
    order: Vec<FlowKey>,
    cfg: TcpHostConfig,
    agg: HostCounters,
    /// Initial sequence number assigned to each new sender.
    next_isn: u32,
    /// Fire time of the one wake kept pending per sender, by pool slot
    /// index (`None`: nothing armed); reset when a sender takes the slot.
    /// A host-side column rather than a pool one: it is timer
    /// bookkeeping no protocol code reads, and growing the pool's slots
    /// for it would tax every engine-less pool user.
    wake_at: Vec<Option<SimTime>>,
}

/// Unwrap a pool call made through a handle the host owns.
///
/// Host handles are live by construction — they come out of `by_key`
/// (whose entries are removed before any `free`) or were inserted in
/// the same event — so a stale ref here is a host logic bug, not an
/// input condition.
#[expect(
    clippy::expect_used,
    reason = "host-owned handles are live by construction"
)]
fn live<T>(res: Result<T, StaleFlowRef>) -> T {
    res.expect("host-owned flow handle is live")
}

/// Timer token asking the host to start newly-due flows.
const TOKEN_WAKE: u64 = 1;
/// Per-flow tokens are `TOKEN_FLOW_BASE + FlowRef::as_u64()`: the token
/// carries the slot *and its generation*, so a wake for an evicted flow
/// fails the pool's generation check instead of ticking a recycled slot.
const TOKEN_FLOW_BASE: u64 = 2;

impl TcpHost {
    /// A host with no outgoing flows (pure receiver).
    pub fn new() -> Self {
        Self::with_source(Box::new(VecSource::default()))
    }

    /// A host that will source the given flows.
    pub fn with_flows(flows: Vec<FlowSpec>) -> Self {
        Self::with_source(Box::new(VecSource::new(flows)))
    }

    /// A host fed by a streaming flow source.
    pub fn with_source(source: Box<dyn FlowSource>) -> Self {
        TcpHost {
            source,
            pool: FlowPool::new(),
            by_key: HashMap::default(),
            shadowed: HashMap::default(),
            order: Vec::new(),
            cfg: TcpHostConfig::default(),
            agg: HostCounters::default(),
            next_isn: 1,
            wake_at: Vec::new(),
        }
    }

    /// Set host policy (backlog, eviction, half-open reaper). Call before
    /// the simulation starts.
    pub fn set_config(&mut self, cfg: TcpHostConfig) {
        self.cfg = cfg;
    }

    /// Sender statistics for a flow sourced by this host (`None` if the
    /// flow never existed or was evicted).
    pub fn sender_stats(&self, key: &FlowKey) -> Option<SenderStats> {
        let r = *self.by_key.get(&key.reversed())?;
        match self.pool.kind(r).ok()? {
            FlowKind::Sender => self.pool.sender_stats(r).ok(),
            FlowKind::Receiver => None,
        }
    }

    /// Receiver statistics for a flow sunk by this host.
    pub fn receiver_stats(&self, key: &FlowKey) -> Option<ReceiverStats> {
        let r = match self.by_key.get(key) {
            Some(&r) if self.pool.kind(r) == Ok(FlowKind::Receiver) => r,
            _ => *self.shadowed.get(key)?,
        };
        self.pool.receiver_stats(r).ok()
    }

    /// All live sender stats, in flow creation order (evicted flows are
    /// in the [`TcpHost::counters`] aggregates instead).
    pub fn all_sender_stats(&self) -> Vec<(FlowKey, SenderStats)> {
        self.order
            .iter()
            .filter_map(|k| Some((*k, self.sender_stats(k)?)))
            .collect()
    }

    /// Total bytes delivered across all receivers on this host,
    /// including evicted ones.
    pub fn total_bytes_received(&self) -> u64 {
        let live: u64 = self
            .pool
            .iter_refs()
            .filter_map(|r| self.pool.receiver_stats(r).ok())
            .map(|s| s.bytes_delivered)
            .sum();
        live + self.agg.evicted_bytes_received
    }

    /// Number of sourced flows that have completed (including evicted).
    pub fn completed_senders(&self) -> usize {
        let live = self
            .pool
            .iter_refs()
            .filter(|&r| {
                self.pool.kind(r) == Ok(FlowKind::Sender)
                    && self.pool.state(r) == Ok(TcpState::Closed)
            })
            .count();
        live + self.agg.evicted_completed_senders as usize
    }

    /// Aggregate lifecycle counters.
    pub fn counters(&self) -> &HostCounters {
        &self.agg
    }

    /// The flow pool (occupancy/high-water inspection).
    pub fn pool(&self) -> &FlowPool {
        &self.pool
    }

    fn flow_token(r: FlowRef) -> u64 {
        TOKEN_FLOW_BASE.wrapping_add(r.as_u64())
    }

    fn start_due_flows(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        while let Some(spec) = self.source.pop_due(now) {
            let isn = self.next_isn;
            // Spread ISNs so sequence numbers do not collide across flows.
            self.next_isn = self.next_isn.wrapping_add(0x0100_0000).wrapping_add(1);
            let r = self.pool.insert_sender(spec.key, spec.config, isn);
            let slot = r.index() as usize;
            if slot >= self.wake_at.len() {
                self.wake_at.resize(slot + 1, None);
            }
            self.wake_at[slot] = None;
            self.agg.admitted += 1;
            live(self.pool.on_start(r, now));
            live(self.pool.drain_out(r, |pkt| ctx.send(pkt)));
            self.arm_for(r, ctx);
            self.order.push(spec.key);
            self.index_sender(spec.key, r);
        }
        if let Some(next) = self.source.peek_start() {
            let delay = next.since(now).max(SimDuration::from_nanos(1));
            ctx.set_timer(delay, TOKEN_WAKE);
        }
    }

    /// Index sender `r`, forward key `key`, under the key its ACKs arrive
    /// with. It takes that entry from a receiver, which waits in
    /// `shadowed` until the sender leaves: the sender's segments came
    /// first when the index held forward keys. A receiver under `key`
    /// itself leaves the index for good, as the forward-key entry the
    /// sender overwrote did.
    fn index_sender(&mut self, key: FlowKey, r: FlowRef) {
        if let Entry::Occupied(e) = self.by_key.entry(key) {
            if self.pool.kind(*e.get()) == Ok(FlowKind::Receiver) {
                e.remove();
            }
        }
        self.shadowed.remove(&key);
        let at = key.reversed();
        if let Some(old) = self.by_key.insert(at, r) {
            if self.pool.kind(old) == Ok(FlowKind::Receiver) {
                self.shadowed.insert(at, old);
            }
        }
    }

    /// Drop live flow `r` from the index, leaving an entry that maps to
    /// another flow alone; a sender's entry goes back to the receiver it
    /// shadowed.
    fn unindex(&mut self, r: FlowRef) {
        let key = live(self.pool.key(r));
        match live(self.pool.kind(r)) {
            FlowKind::Sender => {
                let at = key.reversed();
                if let Entry::Occupied(mut e) = self.by_key.entry(at) {
                    if *e.get() == r {
                        match self.shadowed.remove(&at) {
                            Some(rcv) => e.insert(rcv),
                            None => e.remove(),
                        };
                    }
                }
            }
            FlowKind::Receiver => {
                for index in [&mut self.by_key, &mut self.shadowed] {
                    if let Entry::Occupied(e) = index.entry(key) {
                        if *e.get() == r {
                            e.remove();
                        }
                    }
                }
            }
        }
    }

    /// Arm a wake for `r`'s earliest deadline unless one is already
    /// pending at or before it — that wake will tick the flow and re-arm.
    /// A deadline that moves *earlier* than the pending wake is the only
    /// case that arms a second timer; the superseded one is then an
    /// orphan, which `on_timer` drops when it fires.
    fn arm_for(&mut self, r: FlowRef, ctx: &mut Ctx) {
        let Ok(Some(deadline)) = self.pool.next_event_time(r) else {
            return;
        };
        let now = ctx.now();
        // A deadline already due still fires strictly after `now`.
        let fire = deadline.max(now + SimDuration::from_nanos(1));
        let wake = &mut self.wake_at[r.index() as usize];
        if wake.is_some_and(|w| w <= fire) {
            return;
        }
        *wake = Some(fire);
        ctx.set_timer(fire.since(now), Self::flow_token(r));
    }

    /// Update handshake counters for an observed state transition.
    fn note_transition(&mut self, pre: TcpState, post: TcpState) {
        if pre == post {
            return;
        }
        if post == TcpState::SynRcvd {
            self.agg.synrcvd_total += 1;
            self.agg.synrcvd_live += 1;
            self.agg.synrcvd_peak = self.agg.synrcvd_peak.max(self.agg.synrcvd_live);
        }
        if pre == TcpState::SynRcvd {
            self.agg.synrcvd_live = self.agg.synrcvd_live.saturating_sub(1);
            if post != TcpState::Closed {
                self.agg.handshakes_completed += 1;
            }
        }
        if post == TcpState::TimeWait {
            self.agg.timewait_entered += 1;
        }
    }

    /// Evict `r` if policy says so and it is fully CLOSED, folding its
    /// stats into the aggregates and recycling the slot.
    fn maybe_evict(&mut self, r: FlowRef) {
        if !self.cfg.evict_closed || self.pool.state(r) != Ok(TcpState::Closed) {
            return;
        }
        match live(self.pool.kind(r)) {
            FlowKind::Sender => {
                let stats = live(self.pool.sender_stats(r));
                if stats.completed_at.is_some() {
                    self.agg.evicted_completed_senders += 1;
                }
                self.agg.evicted_bytes_acked += stats.bytes_acked;
            }
            FlowKind::Receiver => {
                let stats = live(self.pool.receiver_stats(r));
                self.agg.evicted_bytes_received += stats.bytes_delivered;
                self.agg.evicted_done_receivers += 1;
            }
        }
        self.unindex(r);
        live(self.pool.free(r));
        self.agg.evictions += 1;
    }

    /// Deliver one event-side effect bundle for `r`: pump its output,
    /// re-arm its timer, account the state transition, maybe evict.
    fn finish_event(&mut self, r: FlowRef, pre: TcpState, ctx: &mut Ctx) {
        live(self.pool.drain_out(r, |p| ctx.send(p)));
        self.arm_for(r, ctx);
        let post = live(self.pool.state(r));
        self.note_transition(pre, post);
        self.maybe_evict(r);
    }
}

impl Default for TcpHost {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeLogic for TcpHost {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.start_due_flows(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        let Header::Tcp { seq, flags, .. } = pkt.header else {
            return; // hosts here only speak TCP
        };
        let now = ctx.now();
        // One probe finds a sender (the segment is an ACK on its reversed
        // key) or a receiver (data on its own key).
        let r = match self.by_key.get(&pkt.key) {
            Some(&r) => r,
            None => {
                // Never a receiver for one of this host's senders' own
                // forward keys: such a segment is ignored.
                let rev = pkt.key.reversed();
                if let Some(&s) = self.by_key.get(&rev) {
                    if self.pool.kind(s) == Ok(FlowKind::Sender) {
                        return;
                    }
                }
                let r = if flags.syn {
                    // Passive open: a SYN creates a listener walking the
                    // full lifecycle — subject to the backlog cap.
                    if let Some(backlog) = self.cfg.listen_backlog {
                        if self.agg.synrcvd_live as usize >= backlog {
                            self.agg.syn_dropped += 1;
                            return;
                        }
                    }
                    let r = self.pool.insert_listener(pkt.key);
                    if let Some(timeout) = self.cfg.syn_rcvd_timeout {
                        ctx.set_timer(timeout, Self::flow_token(r));
                    }
                    r
                } else {
                    // Data (or a stray pure ACK) with no matching sender:
                    // spawn a handshake-less receiver expecting `seq`.
                    self.pool.insert_receiver(pkt.key, seq)
                };
                self.by_key.insert(pkt.key, r);
                r
            }
        };
        let pre = live(self.pool.state(r));
        live(self.pool.on_segment(r, now, &pkt));
        self.finish_event(r, pre, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token == TOKEN_WAKE {
            self.start_due_flows(ctx);
            return;
        }
        let now = ctx.now();
        let r = FlowRef::from_u64(token.wrapping_sub(TOKEN_FLOW_BASE));
        match self.pool.kind(r) {
            Err(_) => {
                // The flow this timer belonged to was evicted; the
                // generation mismatch proves the wake is stale.
                self.agg.stale_wakes += 1;
            }
            Ok(FlowKind::Sender) => {
                let wake = &mut self.wake_at[r.index() as usize];
                if *wake != Some(now) {
                    // Orphan: a deadline moved earlier after this wake
                    // was armed, and the wake armed for it took over.
                    return;
                }
                *wake = None;
                let pre = live(self.pool.state(r));
                live(self.pool.on_tick(r, now));
                self.finish_event(r, pre, ctx);
            }
            Ok(FlowKind::Receiver) => {
                // The only receiver timer is the SYN-RCVD reaper.
                if self.pool.state(r) == Ok(TcpState::SynRcvd) {
                    self.unindex(r);
                    live(self.pool.free(r));
                    self.agg.synrcvd_live = self.agg.synrcvd_live.saturating_sub(1);
                    self.agg.syn_timeouts += 1;
                    self.agg.evictions += 1;
                }
            }
        }
    }

    /// The tag, the source, the pool as one blob, then the host's own
    /// fields. Output is drained after every event, so a pool with
    /// packets still staged is refused rather than written.
    fn encode(&self, s: &mut Sink<'_>) {
        STATE_TAG.iter().for_each(|&b| s.u8(b));
        self.source.encode(s);
        if !self.pool.drained() {
            s.refuse("a TCP host with undrained output");
        }
        s.blob(|s| self.pool.encode(s));
        Seq::<TcpKey, u32>::write(&self.order, s);
        s.u32(self.next_isn);
        Wakes::write(&self.wake_at, s);
        self.agg.put(s);
        self.cfg.put(s);
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(bytes);
        r.tag("tcp host state tag", &STATE_TAG)?;
        let specs = Seq::<FlowSpec, u32>::read(&mut r, "flow specs")?;
        // `VecSource::new` sorts by start time: specs out of that order
        // would restore as another list.
        if specs.windows(2).any(|w| w[1].start < w[0].start) {
            return Err(r.error("flow spec order", ErrorKind::Invalid));
        }
        let pool = FlowPool::from_bytes(r.bytes("pool blob")?)?;
        let order = Seq::<TcpKey, u32>::read(&mut r, "creation order")?;
        let next_isn = r.u32("next isn")?;
        let wake_at = Wakes::read(&mut r, "wakes")?;
        let (agg, cfg) = (HostCounters::take(&mut r)?, TcpHostConfig::take(&mut r)?);
        r.finish("tcp host state")?;
        // Rebuild the lookup index from the restored pool: first by
        // forward key, the later slot taking a shared key, then each
        // entry under its arrival key, a receiver shadowed by a sender
        // that owns the reverse key.
        let mut fwd: HashMap<FlowKey, FlowRef, FixedState> = HashMap::default();
        for flow in pool.iter_refs() {
            if pool.kind(flow) == Ok(FlowKind::Sender) && flow.index() as usize >= wake_at.len() {
                return Err(r.error("tcp host sender without a wake entry", ErrorKind::Invalid));
            }
            fwd.insert(live(pool.key(flow)), flow);
        }
        let is_sender = |r: &FlowRef| pool.kind(*r) == Ok(FlowKind::Sender);
        let (mut by_key, mut shadowed) = (HashMap::default(), HashMap::default());
        for flow in pool.iter_refs() {
            let key = live(pool.key(flow));
            if fwd.get(&key) != Some(&flow) {
                continue;
            }
            if is_sender(&flow) {
                by_key.insert(key.reversed(), flow);
            } else if fwd.get(&key.reversed()).is_some_and(is_sender) {
                shadowed.insert(key, flow);
            } else {
                by_key.insert(key, flow);
            }
        }
        self.source = Box::new(VecSource::new(specs));
        self.pool = pool;
        self.by_key = by_key;
        self.shadowed = shadowed;
        self.order = order;
        self.next_isn = next_isn;
        self.wake_at = wake_at;
        self.agg = agg;
        self.cfg = cfg;
        Ok(())
    }

    fn export_metrics(&self, reg: &mut dui_telemetry::registry::Registry) {
        let g = reg.gauge("tcp.pool.occupancy");
        reg.observe(g, self.pool.live() as f64);
        let g = reg.gauge("tcp.pool.high_water");
        reg.observe(g, self.pool.high_water() as f64);
        let c = reg.counter("tcp.pool.evictions");
        reg.add(c, self.agg.evictions);
        let c = reg.counter("tcp.pool.stale_refs");
        reg.add(c, self.agg.stale_wakes);
        let c = reg.counter("tcp.pool.recycled");
        reg.add(c, self.pool.recycled());
        let g = reg.gauge("tcp.handshake.synrcvd_live");
        reg.observe(g, self.agg.synrcvd_live as f64);
        let g = reg.gauge("tcp.handshake.synrcvd_peak");
        reg.observe(g, self.agg.synrcvd_peak as f64);
        let c = reg.counter("tcp.handshake.synrcvd");
        reg.add(c, self.agg.synrcvd_total);
        let c = reg.counter("tcp.handshake.timewait");
        reg.add(c, self.agg.timewait_entered);
        let c = reg.counter("tcp.handshake.completed");
        reg.add(c, self.agg.handshakes_completed);
        let c = reg.counter("tcp.handshake.syn_dropped");
        reg.add(c, self.agg.syn_dropped);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Leading tag of the host-state blob; the digit is the codec version.
/// Version 2 added the `wake_at` section — an untagged version-1 blob
/// must be refused, not misparsed — and version 3 framed the pool blob
/// with a varint length instead of a `u64`.
const STATE_TAG: [u8; 4] = *b"TCH3";
/// The wake column: a `u32` count, then each slot's optional fire time.
type Wakes = Seq<Option<Qty<SimTime>>, u32>;

#[cfg(test)]
mod tests {
    //! Host-level tests: the one-pending-wake-per-sender rule checked against
    //! the engine's real event queue, checkpoint restore, and hostile
    //! checkpoint bytes.

    use super::*;
    use dui_netsim::event::Event;
    use dui_netsim::packet::{Addr, TcpFlags};
    use dui_netsim::prelude::{Bandwidth, Dir, FaultConfig, LinkId, RouterLogic, Simulator};
    use dui_netsim::topology::{NodeId, Topology, TopologyBuilder};
    use dui_stats::propcheck::Gen;
    use dui_stats::{prop_assert, prop_assert_eq, prop_check};
    use std::collections::BTreeMap;

    /// Middle node standing in for an unreliable path: the next entry of a
    /// generated schedule decides whether each packet is lost, duplicated,
    /// held back (reordering it behind later packets) or forwarded.
    struct Mangler {
        schedule: Vec<u8>,
        next: usize,
        held: Vec<Option<Packet>>,
    }

    impl NodeLogic for Mangler {
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            let action = self.schedule[self.next % self.schedule.len()];
            self.next += 1;
            match action {
                0 => {}
                1 => {
                    ctx.send(pkt.duplicate());
                    ctx.send(pkt);
                }
                2 | 3 => {
                    ctx.set_timer(
                        SimDuration::from_millis(u64::from(action) * 9),
                        self.held.len() as u64,
                    );
                    self.held.push(Some(pkt));
                }
                _ => ctx.send(pkt),
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
            if let Some(pkt) = self.held[token as usize].take() {
                ctx.send(pkt);
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }

        // Writes nothing and refuses nothing: it is never restored, and
        // only lets `Simulator::checkpoint` succeed, which is the one
        // public window onto the pending-event queue.
        fn encode(&self, _s: &mut Sink<'_>) {}
    }

    /// h1 — mid — h2 on 10 Mbit/s, 5 ms links.
    fn line() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let mid = b.router("mid");
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        let (bw, delay) = (Bandwidth::mbps(10), SimDuration::from_millis(5));
        b.link(h1, mid, bw, delay, 64);
        b.link(mid, h2, bw, delay, 64);
        (b.build(), h1, mid, h2)
    }

    /// One to three flows mixing bulk and paced senders, with and without the
    /// handshake lifecycle (TIME-WAIT deadlines), starting at staggered times.
    fn flows(g: &mut Gen) -> Vec<FlowSpec> {
        (0..g.usize(1..4))
            .map(|i| FlowSpec {
                key: FlowKey::tcp(
                    Addr::new(10, 0, 0, 1),
                    1000 + i as u16,
                    Addr::new(10, 0, 0, 2),
                    80,
                ),
                start: SimTime::ZERO + SimDuration::from_millis(g.u64(0..300)),
                config: TcpSenderConfig {
                    total_bytes: Some(g.u64(1..80_000)),
                    app_rate: g.bool().then(|| g.u64(20_000..400_000)),
                    handshake: g.bool(),
                    time_wait: SimDuration::from_millis(g.u64(0..800)),
                    ..Default::default()
                },
            })
            .collect()
    }

    /// Pending per-flow wakes of node `host`, by timer token, in firing order.
    fn pending_wakes(sim: &Simulator, host: NodeId) -> BTreeMap<u64, Vec<SimTime>> {
        let mut wakes: BTreeMap<u64, Vec<SimTime>> = BTreeMap::new();
        for (at, ev) in sim.core().pending() {
            match *ev {
                Event::Timer { node, token } if node == host && token >= TOKEN_FLOW_BASE => {
                    wakes.entry(token).or_default().push(at);
                }
                _ => {}
            }
        }
        wakes
    }

    prop_check! {
        cases = 24;

        fn at_most_one_wake_pending_per_sender(g) {
            let (topo, h1, mid, h2) = line();
            let mut sim = Simulator::new(topo, 1);
            let mut src = TcpHost::with_flows(flows(g));
            src.set_config(TcpHostConfig { evict_closed: g.bool(), ..Default::default() });
            sim.set_logic(h1, Box::new(src));
            sim.set_logic(mid, Box::new(Mangler {
                schedule: g.vec(8..64, |g| g.u8(0..12)),
                next: 0,
                held: Vec::new(),
            }));
            sim.set_logic(h2, Box::new(TcpHost::new()));

            // Per token: wakes pending after the previous event, and the ones
            // known to be orphans — superseded by a wake armed for an earlier
            // deadline, the only way a second wake may come to exist.
            let mut before: BTreeMap<u64, Vec<SimTime>> = BTreeMap::new();
            let mut orphans: BTreeMap<u64, Vec<SimTime>> = BTreeMap::new();
            let mut deadlines_seen = 0u32;
            for _ in 0..2_500 {
                if sim.step_limited(SimTime::from_secs(30)).is_none() {
                    break;
                }
                let now = sim.now();
                let pending = pending_wakes(&sim, h1);
                let host: &mut TcpHost = sim.logic_mut(h1);
                for r in host.pool.iter_refs() {
                    let token = TcpHost::flow_token(r);
                    let wakes = pending.get(&token).map_or(&[][..], |w| w);
                    let old = before.get(&token).map_or(&[][..], |w| w);
                    let orphaned = orphans.entry(token).or_default();
                    orphaned.retain(|o| wakes.contains(o));
                    if let Some(armed) = wakes.iter().find(|w| !old.contains(w)) {
                        for later in wakes.iter().filter(|w| *w > armed) {
                            if !orphaned.contains(later) {
                                orphaned.push(*later);
                            }
                        }
                    }
                    let live: Vec<SimTime> =
                        wakes.iter().filter(|w| !orphaned.contains(w)).copied().collect();
                    prop_assert!(
                        live.len() <= 1,
                        "{r}: wakes {live:?} pending at {now:?} and none supersedes the other"
                    );
                    if let Some(deadline) = host.pool.next_event_time(r).expect("live ref") {
                        deadlines_seen += 1;
                        let latest = deadline.max(now + SimDuration::from_nanos(1));
                        prop_assert!(
                            live.first().is_some_and(|w| *w <= latest),
                            "{r}: deadline {deadline:?} at {now:?} but pending wakes are {wakes:?}"
                        );
                    }
                }
                before = pending;
            }
            prop_assert!(deadlines_seen > 0, "no sender ever had a deadline");
        }

        fn host_restore_is_a_state_hash_fixed_point(g) {
            let build = |specs: Vec<FlowSpec>| {
                let (topo, h1, mid, h2) = line();
                let mut sim = Simulator::new(topo, 7);
                sim.set_logic(h1, Box::new(TcpHost::with_flows(specs)));
                sim.set_logic(mid, Box::new(RouterLogic::new()));
                sim.set_logic(h2, Box::new(TcpHost::new()));
                (sim, h1)
            };
            let (mut sim, h1) = build(flows(g));
            sim.set_fault(LinkId(1), Dir::AtoB, FaultConfig {
                drop_prob: g.f64(0.0..0.2),
                jitter_max: Some(SimDuration::from_millis(g.u64(1..30))),
            });
            sim.run_until(SimTime::ZERO + SimDuration::from_millis(g.u64(1..4_000)));
            let ckpt = sim.checkpoint().expect("checkpointable");
            let (mut resumed, _) = build(Vec::new());
            resumed.restore(&ckpt).expect("restorable");
            prop_assert_eq!(resumed.state_hash(), sim.state_hash());
            // The restored wake bookkeeping must also *behave* the same.
            let end = SimTime::from_secs(30);
            sim.run_until(end);
            resumed.run_until(end);
            prop_assert_eq!(resumed.state_hash(), sim.state_hash());
            let stats = |sim: &mut Simulator| sim.logic_mut::<TcpHost>(h1).all_sender_stats();
            prop_assert_eq!(stats(&mut resumed), stats(&mut sim));
        }
    }

    /// A host mid-transfer, for codec tests.
    fn saved_host_state() -> Vec<u8> {
        let (topo, h1, mid, h2) = line();
        let mut sim = Simulator::new(topo, 3);
        let spec = |sport, start_ms| FlowSpec {
            key: FlowKey::tcp(Addr::new(10, 0, 0, 1), sport, Addr::new(10, 0, 0, 2), 80),
            start: SimTime::ZERO + SimDuration::from_millis(start_ms),
            config: TcpSenderConfig {
                total_bytes: Some(50_000),
                ..Default::default()
            },
        };
        let flows = vec![spec(1000, 0), spec(1001, 900)];
        sim.set_logic(h1, Box::new(TcpHost::with_flows(flows)));
        sim.set_logic(mid, Box::new(RouterLogic::new()));
        sim.set_logic(h2, Box::new(TcpHost::new()));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(40));
        let host: &mut TcpHost = sim.logic_mut(h1);
        Sink::save(|s| host.encode(s)).expect("VecSource host is restorable")
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "patches out-of-range counts into a valid blob at known byte offsets"
    )]
    fn load_state_refuses_counts_the_bytes_cannot_hold() {
        let good = saved_host_state();
        assert!(TcpHost::new().load_state(&good).is_ok());

        // The 8-byte blob that used to reserve 4 Gi flow specs.
        let mut huge_specs = STATE_TAG.to_vec();
        huge_specs.extend_from_slice(&u32::MAX.to_le_bytes());
        let kind = |blob: &[u8]| TcpHost::new().load_state(blob).map_err(|e| e.kind);
        assert_eq!(kind(&huge_specs), Err(ErrorKind::Count));

        // The same prefix with plenty of bytes behind it still names more
        // specs than fit.
        let mut padded = good.clone();
        padded[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(kind(&padded), Err(ErrorKind::Count));

        // Pool length, creation-order count and wake count live further
        // in; overwrite each with all-ones in turn.
        let nspec = u32::from_le_bytes([good[4], good[5], good[6], good[7]]) as usize;
        assert_eq!(nspec, 1, "one flow not yet admitted");
        let plen_at = 8 + FlowSpec::MIN_BYTES + 8; // this spec carries one Some(u64)
        let mut r = Reader::new(&good[plen_at..]);
        let plen = r.varint("pool length").unwrap() as usize;
        let pool_at = good.len() - r.remaining();
        let mut huge_pool = good[..plen_at].to_vec();
        let mut w = dui_stats::wire::Writer::new();
        w.varint(u64::MAX);
        huge_pool.extend_from_slice(&w.into_bytes());
        huge_pool.extend_from_slice(&good[pool_at..]);
        assert_eq!(kind(&huge_pool), Err(ErrorKind::Truncated));
        let norder_at = pool_at + plen;
        let mut huge_order = good.clone();
        huge_order[norder_at..norder_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(kind(&huge_order), Err(ErrorKind::Count));
        // One sender admitted so far: one key, then the ISN cursor, then
        // the wake count.
        let nwake_at = norder_at + 4 + FlowKey::MIN_BYTES + 4;
        let mut huge_wakes = good.clone();
        huge_wakes[nwake_at..nwake_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(kind(&huge_wakes), Err(ErrorKind::Count));
        // Well-formed, but the sender's (armed, 9-byte) entry is gone: the
        // host would index past the column on that flow's next event.
        let mut no_entry = good[..nwake_at].to_vec();
        no_entry.extend_from_slice(&0u32.to_le_bytes());
        no_entry.extend_from_slice(&good[nwake_at + 4 + 9..]);
        assert_eq!(
            TcpHost::new().load_state(&no_entry),
            Err(DecodeError {
                what: "tcp host sender without a wake entry",
                at: no_entry.len(),
                kind: ErrorKind::Invalid,
            })
        );
    }

    /// Peer that sends each scripted segment, whatever its key, to its
    /// one neighbour at the scripted millisecond and records every
    /// segment that reaches it.
    struct Script {
        to: NodeId,
        segments: Vec<(u64, Option<Packet>)>,
        seen: Vec<(u64, FlowKey, Header)>,
    }

    impl NodeLogic for Script {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for (i, (ms, _)) in self.segments.iter().enumerate() {
                ctx.set_timer(SimDuration::from_millis(*ms), i as u64);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
            if let Some(pkt) = self.segments[token as usize].1.take() {
                ctx.send_via(self.to, pkt);
            }
        }

        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            let ms = ctx.now().as_nanos() / 1_000_000;
            self.seen.push((ms, pkt.key, pkt.header));
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }

        // Never hashed or saved: writes nothing.
        fn encode(&self, _s: &mut Sink<'_>) {}
    }

    /// Senders `K1` and `K2` start on keys whose reverse already holds a
    /// receiver, and `K3` on a key that itself holds one; then segments
    /// arrive on both directions of each key. The outcomes, evictions
    /// included, are the ones the index keyed by forward key produced:
    /// the sender takes the reverse key's segments while it lives, a
    /// segment on its own key is ignored, the shadowed receiver keeps its
    /// stats and takes its segments back once the sender is evicted, and
    /// reaping a shadowed receiver leaves the sender's entry alone.
    #[test]
    fn a_sender_shadows_the_receiver_on_its_reverse_key() {
        let (a, b) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        let (k1, k2) = (FlowKey::tcp(a, 1000, b, 80), FlowKey::tcp(a, 2000, b, 80));
        let k3 = FlowKey::tcp(a, 3000, b, 80);
        let flags = |syn, ack, fin| TcpFlags {
            syn,
            ack,
            fin,
            ..TcpFlags::default()
        };
        let seg = |key, seq, ack, f, payload| Some(Packet::tcp(key, seq, ack, f, payload));
        let (r1, r2) = (k1.reversed(), k2.reversed());
        let segments = vec![
            (1, seg(r1, 7_000, 0, flags(true, false, false), 0)),
            (2, seg(r2, 8_000, 0, flags(true, false, false), 0)),
            (5, seg(r1, 7_001, 1, flags(false, true, false), 100)),
            // A receiver on K3 itself, whose ACK comes back to this host
            // and spawns a receiver on K3's reverse.
            (10, seg(k3, 9_000, 0, flags(false, false, false), 100)),
            // Senders K1, K2 and K3 start at 20 ms; R2's reaper fires at 27.
            (30, seg(r1, 7_101, 1_461, flags(false, true, false), 100)),
            (32, seg(k1, 9_000, 0, flags(false, false, false), 100)),
            (34, seg(k2, 9_000, 0, flags(false, false, false), 100)),
            (36, seg(k3, 9_100, 0, flags(false, false, false), 100)),
            (40, seg(r1, 7_101, 1_462, flags(false, true, false), 0)),
            (50, seg(r1, 7_101, 1, flags(false, true, false), 100)),
            (55, seg(r1, 7_201, 1, flags(false, true, true), 0)),
            (60, seg(r1, 7_202, 1, flags(false, true, false), 0)),
            (75, seg(k1, 9_000, 0, flags(false, false, false), 100)),
        ];
        let mut topo = TopologyBuilder::new();
        let (h1, h2) = (topo.host("h1", a), topo.host("h2", b));
        topo.link(h1, h2, Bandwidth::mbps(10), SimDuration::from_millis(1), 64);
        let mut sim = Simulator::new(topo.build(), 5);
        let spec = |key, total| FlowSpec {
            key,
            start: SimTime::ZERO + SimDuration::from_millis(20),
            config: TcpSenderConfig {
                total_bytes: Some(total),
                ..Default::default()
            },
        };
        let flows = vec![spec(k1, 1_460), spec(k2, 1_000_000), spec(k3, 1_460)];
        let mut host = TcpHost::with_flows(flows);
        host.set_config(TcpHostConfig {
            evict_closed: true,
            syn_rcvd_timeout: Some(SimDuration::from_millis(25)),
            ..Default::default()
        });
        sim.set_logic(h1, Box::new(host));
        let peer = Script {
            to: h1,
            segments,
            seen: Vec::new(),
        };
        sim.set_logic(h2, Box::new(peer));
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let delivered = |sim: &mut Simulator, key: FlowKey| {
            let host: &mut TcpHost = sim.logic_mut(h1);
            host.receiver_stats(&key).map(|s| s.bytes_delivered)
        };
        let sending = |sim: &mut Simulator, key: FlowKey| {
            let host: &mut TcpHost = sim.logic_mut(h1);
            host.sender_stats(&key).map(|s| s.bytes_acked)
        };

        sim.run_until(at(25));
        let answers = |host: &TcpHost| {
            let rcv = [r1, r2, k3, k3.reversed()].map(|k| host.receiver_stats(&k));
            (
                rcv.map(|s| s.map(|s| s.bytes_delivered)),
                host.sender_stats(&k1).map(|s| s.bytes_acked),
            )
        };
        let host: &mut TcpHost = sim.logic_mut(h1);
        // R1 and R2 shadowed by K1 and K2; K3 took its own key and
        // shadows the receiver on its reverse.
        assert_eq!(
            answers(host),
            ([Some(100), Some(0), None, Some(0)], Some(0))
        );
        let mut restored = TcpHost::new();
        let blob = Sink::save(|s| host.encode(s)).expect("restorable");
        restored.load_state(&blob).expect("valid");
        assert_eq!(
            answers(&restored),
            answers(host),
            "restore rebuilds the index"
        );
        sim.run_until(at(38));
        assert_eq!(delivered(&mut sim, k3), None, "K3's key stays ignored");
        assert_eq!(delivered(&mut sim, r2), None, "R2 reaped");
        assert_eq!(delivered(&mut sim, r1), Some(100), "K1 took R1's segment");
        assert_eq!(sending(&mut sim, k1), Some(1_460));
        assert_eq!(sending(&mut sim, k2), Some(0), "reaping R2 kept K2");
        sim.run_until(at(45));
        assert_eq!(sending(&mut sim, k1), None, "K1 evicted");
        sim.run_until(at(52));
        assert_eq!(delivered(&mut sim, r1), Some(200), "R1 is back");
        sim.run_until(at(70));
        assert_eq!(delivered(&mut sim, r1), None, "R1 evicted");
        sim.run_until(at(100));
        // A receiver on K1 now, whose ACK (on R1's key, to this host)
        // spawns another receiver on R1's key.
        assert_eq!(delivered(&mut sim, k1), Some(100));
        assert_eq!(delivered(&mut sim, r1), Some(0));

        let host: &mut TcpHost = sim.logic_mut(h1);
        let c = *host.counters();
        assert_eq!(
            (
                c.admitted,
                c.evictions,
                c.syn_timeouts,
                c.handshakes_completed
            ),
            (3, 3, 1, 1)
        );
        assert_eq!(
            (c.evicted_bytes_acked, c.evicted_bytes_received),
            (1_460, 200)
        );
        let peer: &mut Script = sim.logic_mut(h2);
        // What reached the peer, as (ms, sport, seq, ack).
        let seen: Vec<(u64, u16, u32, u32)> = peer
            .seen
            .iter()
            .filter_map(|(ms, key, h)| match *h {
                Header::Tcp { seq, ack, .. } => Some((*ms, key.sport, seq, ack)),
                _ => None,
            })
            .collect();
        // R1's SYN-ACK and ACK, R2's SYN-ACK, K1's segment and FIN, K2's
        // first window, K3's segment and FIN, then, once R1 is back, its
        // ACK of the data and its ACK and FIN; nothing for the segments on
        // K1, K2 and K3 themselves.
        let mut want = vec![
            (3, 1000, 0, 7_001),
            (4, 2000, 0, 8_001),
            (7, 1000, 0, 7_101),
        ];
        want.extend([(22, 1000, 1, 0), (22, 1000, 1_461, 0)]);
        let k2_window = [23, 24, 25, 27, 28, 29, 30, 31, 33, 34];
        want.extend(
            (0..)
                .zip(k2_window)
                .map(|(i, ms)| (ms, 2000, 0x0100_0002 + 1_460 * i, 0)),
        );
        want.extend([
            (35, 3000, 0x0200_0003, 0),
            (35, 3000, 0x0200_0003 + 1_460, 0),
        ]);
        want.extend([
            (52, 1000, 0, 7_201),
            (57, 1000, 0, 7_202),
            (57, 1000, 0, 7_202),
        ]);
        assert_eq!(seen, want);
        // The host's pool digest covers the three evicted flows' free
        // slots as well as the live ones.
        assert_eq!(sim.state_hash(), 0x1b66_2b60_c3a3_25f3);
    }

    /// Two pending specs written in start order, their `start` words then
    /// swapped: `VecSource::new` would re-sort them, and the restored host
    /// re-encode to other bytes, so the blob is refused. Equal starts,
    /// which a stable sort keeps in place, load and re-encode to themselves.
    #[test]
    fn load_state_refuses_specs_out_of_start_order() {
        let spec = |sport, ms| FlowSpec {
            key: FlowKey::tcp(Addr::new(10, 0, 0, 1), sport, Addr::new(10, 0, 0, 2), 80),
            start: SimTime::ZERO + SimDuration::from_millis(ms),
            config: TcpSenderConfig::default(),
        };
        let blob = |a, b| {
            let host = TcpHost::with_flows(vec![spec(1000, a), spec(1001, b)]);
            Sink::save(|s| host.encode(s)).expect("restorable")
        };
        let mut swapped = blob(100, 200);
        // Tag and count, then each spec's key before its start.
        let start = |i: usize| 8 + i * FlowSpec::MIN_BYTES + FlowKey::MIN_BYTES;
        let first: Vec<u8> = swapped[start(0)..start(0) + 8].to_vec();
        swapped.copy_within(start(1)..start(1) + 8, start(0));
        swapped[start(1)..start(1) + 8].copy_from_slice(&first);
        let err = TcpHost::new().load_state(&swapped).unwrap_err();
        assert_eq!(
            (err.what, err.kind),
            ("flow spec order", ErrorKind::Invalid)
        );
        let tied = blob(100, 100);
        let mut host = TcpHost::new();
        assert_eq!(host.load_state(&tied), Ok(()));
        assert_eq!(Sink::save(|s| host.encode(s)), Ok(tied));
    }

    #[test]
    fn load_state_rejects_every_truncation_and_the_untagged_layout() {
        let good = saved_host_state();
        for len in 0..good.len() {
            assert!(
                TcpHost::new().load_state(&good[..len]).is_err(),
                "accepted a blob truncated to {len} of {} bytes",
                good.len()
            );
        }
        // Version 1 had no tag: the blob began with the spec count.
        assert!(TcpHost::new().load_state(&good[STATE_TAG.len()..]).is_err());
    }
}
