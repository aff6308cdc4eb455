//! The simulation engine: core state, the node-facing [`Ctx`] handle, and
//! the top-level [`Simulator`].

use crate::arena::{PacketArena, PacketRef};
use crate::event::{Event, EventQueue, SavedEvent};
use crate::link::{Dir, FaultConfig, LinkDirStats, LinkRuntime, LinkTap, TapAction};
use crate::node::NodeLogic;
use crate::packet::{Addr, Packet, Prefix};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId, PrefixTable, Routing, Topology};
use crate::trace::{Counters, Trace, TraceEvent, TraceKind};
use crate::wheel::WheelStats;
use dui_stats::digest::StateDigest;
use dui_stats::Rng;
use dui_telemetry::{CounterId, GaugeId, HistId, Registry, Snapshot, SpanRecorder};

/// Pre-registered metric ids for the engine's own accounting. Resolving
/// names to ids once at construction keeps the per-packet record path at
/// a single array index.
pub(crate) struct EngineMetrics {
    pub delivered: CounterId,
    pub delivered_endpoint: CounterId,
    pub sunk: CounterId,
    pub created: CounterId,
    pub consumed_router: CounterId,
    pub dropped_queue: CounterId,
    pub dropped_tap: CounterId,
    pub dropped_fault: CounterId,
    pub dropped_ttl: CounterId,
    pub dropped_program: CounterId,
    pub dropped_no_route: CounterId,
    pub queue_depth: HistId,
    /// Lazily-registered `netsim.program.forward.<node>` counters.
    pub program_forward: Vec<Option<CounterId>>,
    // Structural metrics for the handle-based core: arena occupancy
    // gauges and wheel work counters, synced at run boundaries (not per
    // event) so the hot path stays untouched.
    pub arena_live: GaugeId,
    pub arena_capacity: GaugeId,
    pub arena_high_water: GaugeId,
    pub arena_recycled: CounterId,
    pub wheel_cascades: CounterId,
    pub wheel_cascaded_entries: CounterId,
    pub wheel_deferred: CounterId,
    /// Wheel stats at the last sync (counters export deltas).
    pub last_wheel: WheelStats,
    /// Arena recycle count at the last sync.
    pub last_recycled: u64,
}

impl EngineMetrics {
    fn new(reg: &mut Registry, nodes: usize) -> Self {
        EngineMetrics {
            delivered: reg.counter("netsim.delivered"),
            delivered_endpoint: reg.counter("netsim.delivered.endpoint"),
            sunk: reg.counter("netsim.sunk"),
            created: reg.counter("netsim.packets.created"),
            consumed_router: reg.counter("netsim.consumed.router"),
            dropped_queue: reg.counter("netsim.drop.queue"),
            dropped_tap: reg.counter("netsim.drop.tap"),
            dropped_fault: reg.counter("netsim.drop.fault"),
            dropped_ttl: reg.counter("netsim.drop.ttl"),
            dropped_program: reg.counter("netsim.drop.program"),
            dropped_no_route: reg.counter("netsim.drop.no_route"),
            queue_depth: reg.histogram("netsim.link.queue_depth"),
            program_forward: vec![None; nodes],
            arena_live: reg.gauge("netsim.arena.live"),
            arena_capacity: reg.gauge("netsim.arena.capacity"),
            arena_high_water: reg.gauge("netsim.arena.high_water"),
            arena_recycled: reg.counter("netsim.arena.recycled"),
            wheel_cascades: reg.counter("netsim.wheel.cascades"),
            wheel_cascaded_entries: reg.counter("netsim.wheel.cascaded_entries"),
            wheel_deferred: reg.counter("netsim.wheel.deferred"),
            last_wheel: WheelStats::default(),
            last_recycled: 0,
        }
    }
}

/// Engine state shared with node logic through [`Ctx`]. Node behaviors are
/// stored *outside* this struct so a node can freely send packets / arm
/// timers while its own `&mut self` is live.
pub struct SimCore {
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue,
    pub(crate) arena: PacketArena,
    pub(crate) topo: Topology,
    pub(crate) routing: Routing,
    pub(crate) prefixes: PrefixTable,
    pub(crate) links: Vec<LinkRuntime>,
    pub(crate) registry: Registry,
    pub(crate) metrics: EngineMetrics,
    pub(crate) spans: Option<SpanRecorder>,
    pub(crate) trace: Trace,
    pub(crate) rng: Rng,
    pub(crate) next_pkt_id: u64,
    /// Present while this core runs as one domain of the parallel engine
    /// (see [`crate::parallel`]); `None` in the ordinary sequential
    /// engine. Reroutes scheduling through provisional keys, provisional
    /// packet ids, and the cross-domain outbox.
    pub(crate) domain: Option<Box<crate::parallel::DomainExt>>,
}

impl SimCore {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The (immutable) topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Read the routing tables.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Mutate the routing tables. This is an **operator-privilege** action
    /// in the paper's threat model (§2.1) — only code standing in for the
    /// operator (or for the legitimate control plane) should call it.
    pub fn routing_mut(&mut self) -> &mut Routing {
        &mut self.routing
    }

    /// Read announced destination prefixes.
    pub fn prefixes(&self) -> &PrefixTable {
        &self.prefixes
    }

    /// Global counters, reconstructed as a plain-struct view over the
    /// metrics registry.
    pub fn counters(&self) -> Counters {
        let r = &self.registry;
        let m = &self.metrics;
        Counters {
            delivered: r.counter_value(m.delivered),
            sunk: r.counter_value(m.sunk),
            dropped_queue: r.counter_value(m.dropped_queue),
            dropped_tap: r.counter_value(m.dropped_tap),
            dropped_fault: r.counter_value(m.dropped_fault),
            dropped_ttl: r.counter_value(m.dropped_ttl),
            dropped_program: r.counter_value(m.dropped_program),
            dropped_no_route: r.counter_value(m.dropped_no_route),
        }
    }

    /// The metrics registry (read-only). Engine counters live under the
    /// `netsim.` prefix; node logic may register its own metrics via
    /// [`Ctx::metrics`].
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access to the metrics registry (for scenario harnesses
    /// that export their own metrics alongside the engine's).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Resolve a destination address to its sink node: exact host address
    /// first, then longest-prefix match on announced prefixes.
    pub fn resolve_dst(&self, addr: Addr) -> Option<NodeId> {
        self.topo
            .node_by_addr(addr)
            .or_else(|| self.prefixes.lookup(addr).map(|(_, n)| n))
    }

    /// Hand out a packet id if the packet does not have one yet. Under
    /// the parallel engine the id is *provisional* (the global id
    /// sequence is only known at the next barrier); the domain records
    /// the assignment so the barrier can re-number it in merged dispatch
    /// order and patch the surviving body.
    fn assign_id(&mut self, pkt: &mut Packet) {
        if pkt.id != 0 {
            return;
        }
        pkt.id = match self.domain.as_mut() {
            None => {
                self.next_pkt_id += 1;
                self.next_pkt_id
            }
            Some(d) => d.next_provisional_id(),
        };
        pkt.sent_at = self.now;
        self.registry.inc(self.metrics.created);
    }

    /// Central scheduling hook: every event the engine produces during a
    /// dispatch goes through here. Sequentially it is a plain
    /// counter-ordered schedule; under the parallel engine the event gets
    /// a provisional `(record, position)` key and parks in the domain's
    /// fresh-heap until the next barrier resolves the key (see
    /// [`crate::parallel`] for why this reproduces the sequential
    /// `(time, seq)` order exactly).
    fn schedule_event(&mut self, t: SimTime, ev: Event) {
        match self.domain.as_mut() {
            None => self.queue.schedule(t, ev),
            Some(d) => d.schedule_local(t, ev),
        }
    }

    /// Route a packet out of `from` toward its destination address.
    fn route_and_send(&mut self, from: NodeId, pkt: Packet) {
        let Some(dst_node) = self.resolve_dst(pkt.key.dst) else {
            // Count creation without assigning an id (ids are handed out
            // lazily at first link transmission, and handing one out here
            // would shift every later packet's id).
            if pkt.id == 0 {
                self.registry.inc(self.metrics.created);
            }
            self.registry.inc(self.metrics.dropped_no_route);
            self.trace
                .record(self.now, TraceKind::NoRoute, Some(from), &pkt);
            return;
        };
        if dst_node == from {
            // Local delivery (e.g. a router pinging itself) — deliver now.
            if pkt.id == 0 {
                self.registry.inc(self.metrics.created);
            }
            let pkt = self.arena.insert(pkt);
            self.schedule_event(self.now, Event::Deliver { node: from, pkt });
            return;
        }
        let Some(next) = self.routing.next_hop(from, dst_node) else {
            if pkt.id == 0 {
                self.registry.inc(self.metrics.created);
            }
            self.registry.inc(self.metrics.dropped_no_route);
            self.trace
                .record(self.now, TraceKind::NoRoute, Some(from), &pkt);
            return;
        };
        self.send_via(from, next, pkt);
    }

    /// Send a packet from `from` to adjacent node `next`. The packet body
    /// enters the arena here; from this point on it moves by handle.
    fn send_via(&mut self, from: NodeId, next: NodeId, mut pkt: Packet) {
        self.assign_id(&mut pkt);
        let Some(link) = self.topo.link_between(from, next) else {
            // lint: allow(panic): routing only yields adjacent hops — a miss is a harness programming error, not input
            panic!(
                "send_via: {} and {} are not adjacent",
                self.topo.node(from).name,
                self.topo.node(next).name
            );
        };
        let dir = self.links[link.0].dir_from(from);
        let pkt = self.arena.insert(pkt);
        self.offer_link(link, dir, pkt);
    }

    /// Resolve a live handle the engine itself issued. A stale handle here
    /// is an engine invariant violation, not a recoverable condition.
    fn pkt(&self, r: PacketRef) -> &Packet {
        self.arena.get(r).expect("engine holds a stale packet ref") // lint: allow(panic)
    }

    /// Remove a packet the engine is done with (drop or delivery),
    /// recycling its arena slot.
    fn take_pkt(&mut self, r: PacketRef) -> Packet {
        self.arena.take(r).expect("engine holds a stale packet ref") // lint: allow(panic)
    }

    /// Offer a packet to a link direction: faults → taps → queue.
    fn offer_link(&mut self, link: LinkId, dir: Dir, pkt: PacketRef) {
        self.links[link.0].stats_mut(dir).offered += 1;
        // 1. link up / fault injection
        let mut extra = SimDuration::ZERO;
        if !self.links[link.0].apply_fault(dir, &mut self.rng, &mut extra) {
            self.registry.inc(self.metrics.dropped_fault);
            let dropped = self.take_pkt(pkt);
            self.trace
                .record(self.now, TraceKind::FaultDrop, None, &dropped);
            return;
        }
        // 2. taps (MitM)
        let mut taps = std::mem::take(self.links[link.0].taps_mut(dir));
        let mut verdict = TapAction::Forward;
        let mut injected = Vec::new();
        for tap in &mut taps {
            let body = self
                .arena
                .get_mut(pkt)
                .expect("engine holds a stale packet ref"); // lint: allow(panic)
            match tap.intercept(self.now, dir, body, &mut injected) {
                TapAction::Forward => {}
                other => {
                    verdict = other;
                    break;
                }
            }
        }
        *self.links[link.0].taps_mut(dir) = taps;
        for extra_pkt in injected {
            let mut p = extra_pkt;
            self.assign_id(&mut p);
            let p = self.arena.insert(p);
            self.schedule_event(self.now, Event::Offer { link, dir, pkt: p });
        }
        match verdict {
            TapAction::Forward => {}
            TapAction::Drop => {
                self.links[link.0].stats_mut(dir).dropped_tap += 1;
                self.registry.inc(self.metrics.dropped_tap);
                let dropped = self.take_pkt(pkt);
                self.trace
                    .record(self.now, TraceKind::TapDrop, None, &dropped);
                return;
            }
            TapAction::Delay(d) => {
                // The tap's delay buffer is the wheel itself: the handle
                // parks in its slot until the re-offer fires.
                self.schedule_event(self.now + d, Event::Offer { link, dir, pkt });
                return;
            }
        }
        // 3. jitter re-offers later, bypassing faults/taps
        if extra > SimDuration::ZERO {
            self.schedule_event(self.now + extra, Event::Offer { link, dir, pkt });
            return;
        }
        self.enqueue_link(link, dir, pkt);
    }

    /// DropTail enqueue + transmitter start.
    pub(crate) fn enqueue_link(&mut self, link: LinkId, dir: Dir, pkt: PacketRef) {
        let cap = self.links[link.0].info.queue_cap;
        let lr = &mut self.links[link.0];
        let st = lr.dir_state(dir);
        let depth = st.queue.len();
        if st.in_flight.is_some() {
            if depth >= cap {
                lr.stats_mut(dir).dropped_queue += 1;
                self.registry.inc(self.metrics.dropped_queue);
                self.registry
                    .record(self.metrics.queue_depth, depth as u64);
                let dropped = self.take_pkt(pkt);
                self.trace
                    .record(self.now, TraceKind::QueueDrop, None, &dropped);
                return;
            }
            st.queue.push_back(pkt);
        } else {
            self.start_tx(link, dir, pkt);
        }
        self.registry.record(self.metrics.queue_depth, depth as u64);
    }

    fn start_tx(&mut self, link: LinkId, dir: Dir, pkt: PacketRef) {
        let bw = self.links[link.0].info.bandwidth;
        let ser = bw.serialization_delay(self.pkt(pkt).size);
        self.trace
            .record(self.now, TraceKind::TxStart, None, self.arena.get(pkt).expect("engine holds a stale packet ref")); // lint: allow(panic)
        self.links[link.0].dir_state(dir).in_flight = Some(pkt);
        self.schedule_event(self.now + ser, Event::TxComplete { link, dir });
    }

    pub(crate) fn tx_complete(&mut self, link: LinkId, dir: Dir) {
        let prop = self.links[link.0].info.delay;
        let dst = self.links[link.0].dst_node(dir);
        let pkt = self.links[link.0]
            .dir_state(dir)
            .in_flight
            .take()
            // lint: allow(panic): TxComplete is only scheduled after the transmitter placed a packet in flight here
            .expect("tx_complete with no in-flight packet");
        let size = self.pkt(pkt).size;
        let stats = self.links[link.0].stats_mut(dir);
        stats.delivered += 1;
        stats.bytes_delivered += size as u64;
        let arrive = self.now + prop;
        // The propagation hop is the only place an event can cross a
        // domain boundary: under the parallel engine a remote delivery
        // goes to the outbox (arriving at least one lookahead ahead, per
        // the partition invariant) instead of a local queue.
        let remote = match self.domain.as_ref() {
            Some(d) => d.is_remote(dst),
            None => false,
        };
        if remote {
            let body = self.take_pkt(pkt);
            self.domain
                .as_mut()
                .expect("checked above") // lint: allow(panic)
                .push_outbox(arrive, dst, body);
        } else {
            self.schedule_event(arrive, Event::Deliver { node: dst, pkt });
        }
        // Start next queued packet, if any.
        if let Some(next) = self.links[link.0].dir_state(dir).queue.pop_front() {
            self.start_tx(link, dir, next);
        }
    }

    /// The packet arena (read-only; occupancy statistics).
    pub fn arena(&self) -> &PacketArena {
        &self.arena
    }

    /// Sync arena occupancy gauges and wheel work counters into the
    /// metrics registry. Called at run boundaries, not per event, so the
    /// hot path carries no metrics cost.
    pub(crate) fn sync_structural_metrics(&mut self) {
        let ws = self.queue.wheel_stats();
        let m = &mut self.metrics;
        self.registry.add(
            m.wheel_cascades,
            ws.cascades.saturating_sub(m.last_wheel.cascades),
        );
        self.registry.add(
            m.wheel_cascaded_entries,
            ws.cascaded_entries
                .saturating_sub(m.last_wheel.cascaded_entries),
        );
        self.registry.add(
            m.wheel_deferred,
            ws.deferred.saturating_sub(m.last_wheel.deferred),
        );
        m.last_wheel = ws;
        let recycled = self.arena.recycled();
        self.registry.add(
            m.arena_recycled,
            recycled.saturating_sub(m.last_recycled),
        );
        m.last_recycled = recycled;
        self.registry.observe(m.arena_live, self.arena.live() as f64);
        self.registry
            .observe(m.arena_capacity, self.arena.capacity() as f64);
        self.registry
            .observe(m.arena_high_water, self.arena.high_water() as f64);
    }
}

/// Handle given to node logic while it runs. Everything a host or router may
/// legitimately do — read the clock, send packets, arm timers, draw
/// randomness — goes through here.
pub struct Ctx<'a> {
    core: &'a mut SimCore,
    /// The node this context belongs to.
    pub node: NodeId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// This node's address.
    pub fn addr(&self) -> Addr {
        self.core.topo.node(self.node).addr
    }

    /// The topology (read-only).
    pub fn topo(&self) -> &Topology {
        self.core.topo()
    }

    /// The routing tables (read-only; routing changes are operator actions
    /// done through [`Simulator::core_mut`]).
    pub fn routing(&self) -> &Routing {
        self.core.routing()
    }

    /// Resolve a destination address to its sink node.
    pub fn resolve_dst(&self, addr: Addr) -> Option<NodeId> {
        self.core.resolve_dst(addr)
    }

    /// Send a packet, routed from this node toward `pkt.key.dst`.
    pub fn send(&mut self, pkt: Packet) {
        self.core.route_and_send(self.node, pkt);
    }

    /// Send a packet to a specific adjacent next hop (used by routers whose
    /// data-plane programs override the routing table).
    pub fn send_via(&mut self, next: NodeId, pkt: Packet) {
        self.core.send_via(self.node, next, pkt);
    }

    /// Arm a one-shot timer delivering `token` to this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let node = self.node;
        self.core
            .schedule_event(self.core.now + delay, Event::Timer { node, token });
    }

    /// Deterministic randomness.
    ///
    /// # Panics
    ///
    /// Panics under the parallel engine: the engine RNG is a single
    /// sequential stream, and a domain drawing from a clone would diverge
    /// from the sequential engine. Logic that needs randomness must carry
    /// its own seeded [`Rng`] (every scenario logic in this workspace
    /// already does); the parallel preconditions in [`crate::parallel`]
    /// keep the engine's own draws (fault injection) off this path.
    pub fn rng(&mut self) -> &mut Rng {
        assert!(
            self.core.domain.is_none(),
            "Ctx::rng is not available under the parallel engine; \
             give the node logic its own seeded Rng instead"
        );
        &mut self.core.rng
    }

    /// Count a TTL-expiry drop (used by router logic).
    pub fn count_ttl_drop(&mut self) {
        let id = self.core.metrics.dropped_ttl;
        self.core.registry.inc(id);
    }

    /// Count a drop decided by a data-plane program.
    pub fn count_program_drop(&mut self) {
        let id = self.core.metrics.dropped_program;
        self.core.registry.inc(id);
    }

    /// Count a packet that reached a node with no local consumer.
    pub fn count_no_route(&mut self) {
        let id = self.core.metrics.dropped_no_route;
        self.core.registry.inc(id);
    }

    /// Count a packet consumed locally by a router (e.g. a ping to the
    /// router's own address).
    pub fn count_router_local(&mut self) {
        let id = self.core.metrics.consumed_router;
        self.core.registry.inc(id);
    }

    /// Count a forwarding decision where a data-plane program overrode
    /// the routing table (per-node counter
    /// `netsim.program.forward.<node>`).
    pub fn count_program_forward(&mut self) {
        let id = match self.core.metrics.program_forward[self.node.0] {
            Some(id) => id,
            None => {
                let name = format!(
                    "netsim.program.forward.{}",
                    self.core.topo.node(self.node).name
                );
                let id = self.core.registry.counter(&name);
                self.core.metrics.program_forward[self.node.0] = Some(id);
                id
            }
        };
        self.core.registry.inc(id);
    }

    /// The metrics registry, for node logic recording its own metrics
    /// alongside the engine's (`netsim.`-prefixed) counters.
    pub fn metrics(&mut self) -> &mut Registry {
        &mut self.core.registry
    }
}

/// One link direction's restorable state (queue contents, in-flight
/// packet, fault configuration).
#[derive(Debug, Clone)]
pub struct DirCheckpoint {
    /// Queued packets, head first.
    pub queue: Vec<Packet>,
    /// Packet currently being serialized, if any.
    pub in_flight: Option<Packet>,
    /// Fault-injection configuration.
    pub fault: FaultConfig,
}

/// One link's restorable state (both directions plus statistics).
#[derive(Debug, Clone)]
pub struct LinkCheckpoint {
    /// Administrative up/down state.
    pub up: bool,
    /// The a→b direction.
    pub ab: DirCheckpoint,
    /// The b→a direction.
    pub ba: DirCheckpoint,
    /// a→b statistics.
    pub stats_ab: LinkDirStats,
    /// b→a statistics.
    pub stats_ba: LinkDirStats,
}

/// A restorable, structured checkpoint of a [`Simulator`]'s logical
/// state, produced by [`Simulator::checkpoint`] and consumed by
/// [`Simulator::restore`].
///
/// The checkpoint captures everything [`Simulator::state_hash`] hashes:
/// clock, RNG, pending events (in dispatch order), link state, routing,
/// prefix announcements, and per-node logic state (as opaque blobs from
/// [`NodeLogic::save_state`]). Telemetry (metrics registry, traces,
/// spans) is observability, not logical state, and is deliberately
/// excluded. Byte serialization of this struct is `dui-replay`'s job.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    /// Simulated time the checkpoint was taken at.
    pub now: SimTime,
    /// Engine RNG state.
    pub rng: [u64; 4],
    /// Packet id allocator cursor.
    pub next_pkt_id: u64,
    /// Whether `on_start` hooks have already run.
    pub started: bool,
    /// Pending events, sorted in dispatch order (self-contained: packets
    /// by value, no arena needed to interpret them).
    pub events: Vec<(SimTime, SavedEvent)>,
    /// Per-link state, indexed by `LinkId`.
    pub links: Vec<LinkCheckpoint>,
    /// Per-node logic blobs (`None` = no logic installed on that node).
    pub logics: Vec<Option<Vec<u8>>>,
    /// Flattened routing table: `routing[src][dst]` = next hop.
    pub routing: Vec<Vec<Option<NodeId>>>,
    /// Announced prefixes.
    pub prefixes: Vec<(Prefix, NodeId)>,
    /// [`Simulator::state_hash`] at checkpoint time (lets consumers
    /// verify a restore reproduced the exact state).
    pub state_hash: u64,
}

/// What [`Simulator::step_limited`] dispatched: the event's time, kind
/// label, and full-content digest — the per-event record the
/// `dui-replay` recorder writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteppedEvent {
    /// Event time (now the current simulated time).
    pub time: SimTime,
    /// Kind label (`deliver`, `tx_complete`, `timer`, `offer`).
    pub kind: &'static str,
    /// Digest of the event's full content.
    pub digest: u64,
}

/// The top-level simulator: topology + per-node behavior + event loop.
pub struct Simulator {
    pub(crate) core: SimCore,
    pub(crate) logics: Vec<Option<Box<dyn NodeLogic>>>,
    pub(crate) started: bool,
    /// Worker-thread budget for the parallel engine; `0` = plain
    /// sequential engine (the default).
    pub(crate) sim_threads: usize,
    /// Cached domain decomposition (a pure function of the immutable
    /// topology).
    pub(crate) domain_map: Option<std::sync::Arc<crate::parallel::DomainMap>>,
    /// Dispatches per domain in the most recent parallel run that
    /// dispatched anything: the weights the next run balances its
    /// threads by. Not part of the logical state — ownership is
    /// unobservable in results.
    pub(crate) domain_load: Vec<u64>,
    /// What the parallel engine did (or why it fell back) on the most
    /// recent `run_until`.
    pub(crate) last_parallel: Option<crate::parallel::ParallelOutcome>,
}

impl Simulator {
    /// Build a simulator over `topo` with shortest-path routing and a
    /// deterministic RNG seeded by `seed`.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let routing = Routing::shortest_paths(&topo);
        Self::with_routing(topo, routing, seed)
    }

    /// An already-started simulator at this one's clock over the same
    /// topology, routing (cloned, not recomputed) and prefixes, with
    /// nothing pending and no node logic: the shell the parallel engine
    /// fills with one domain's share of the state.
    pub(crate) fn domain_shell(&self, ext: crate::parallel::DomainExt) -> Self {
        let mut s = Self::with_routing(self.core.topo.clone(), self.core.routing.clone(), 0);
        s.core.prefixes = self.core.prefixes.clone();
        s.core.now = self.core.now;
        s.core.domain = Some(Box::new(ext));
        s.started = true;
        s
    }

    fn with_routing(topo: Topology, routing: Routing, seed: u64) -> Self {
        let links = topo.links().iter().cloned().map(LinkRuntime::new).collect();
        let n = topo.node_count();
        let mut registry = Registry::new();
        let metrics = EngineMetrics::new(&mut registry, n);
        Simulator {
            core: SimCore {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                arena: PacketArena::new(),
                topo,
                routing,
                prefixes: PrefixTable::new(),
                links,
                registry,
                metrics,
                spans: None,
                trace: Trace::disabled(),
                rng: Rng::new(seed),
                next_pkt_id: 0,
                domain: None,
            },
            logics: (0..n).map(|_| None).collect(),
            started: false,
            sim_threads: 0,
            domain_map: None,
            domain_load: Vec::new(),
            last_parallel: None,
        }
    }

    /// Opt in to the parallel engine with a budget of `n` worker threads
    /// (`0` restores the plain sequential engine). Any `n >= 1` switches
    /// `run_until` to the domain-sharded execution path — `n = 1` runs
    /// the same domain decomposition on the calling thread, which is what
    /// makes results byte-identical across every `n` (see
    /// [`crate::parallel`] for the full determinism argument). Runs that
    /// fail the parallel preconditions (taps installed, active
    /// random-loss/jitter faults, tracing or spans enabled, or a topology
    /// that partitions into a single domain) silently fall back to the
    /// sequential engine; [`Simulator::last_parallel_outcome`] reports
    /// which path was taken.
    pub fn set_sim_threads(&mut self, n: usize) {
        self.sim_threads = n;
    }

    /// The configured parallel worker budget (`0` = sequential).
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// What the parallel engine did on the most recent `run_until`:
    /// `None` before any run (or with `sim_threads == 0`), otherwise
    /// either a window/domain report or the precondition that forced a
    /// sequential fallback.
    pub fn last_parallel_outcome(&self) -> Option<&crate::parallel::ParallelOutcome> {
        self.last_parallel.as_ref()
    }

    /// Install behavior for a node (replacing any previous behavior).
    pub fn set_logic(&mut self, node: NodeId, logic: Box<dyn NodeLogic>) {
        self.logics[node.0] = Some(logic);
    }

    /// Borrow a node's behavior, downcast to its concrete type. Panics if
    /// the node has no logic or the type does not match — both are test/
    /// harness programming errors.
    pub fn logic_mut<T: NodeLogic + 'static>(&mut self, node: NodeId) -> &mut T {
        self.logics[node.0]
            .as_mut()
            // lint: allow(panic): documented contract — callers install logic before asking for it
            .expect("node has no logic installed")
            .as_any_mut()
            .downcast_mut::<T>()
            // lint: allow(panic): documented contract — the caller names the installed concrete type
            .expect("node logic has a different concrete type")
    }

    /// Shared read access to the engine core.
    pub fn core(&self) -> &SimCore {
        &self.core
    }

    /// Mutable access to the engine core (routing changes, etc.). This is
    /// the operator-privilege surface.
    pub fn core_mut(&mut self) -> &mut SimCore {
        &mut self.core
    }

    /// Announce a destination prefix as sunk by `node`.
    pub fn announce_prefix(&mut self, prefix: Prefix, node: NodeId) {
        self.core.prefixes.announce(prefix, node);
    }

    /// Install a MitM tap on one direction of a link.
    pub fn install_tap(&mut self, link: LinkId, dir: Dir, tap: Box<dyn LinkTap>) {
        self.core.links[link.0].taps_mut(dir).push(tap);
    }

    /// Configure benign fault injection on one direction of a link.
    pub fn set_fault(&mut self, link: LinkId, dir: Dir, fault: FaultConfig) {
        self.core.links[link.0].dir_state(dir).fault = fault;
    }

    /// Administratively fail / restore a link (both directions).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.core.links[link.0].up = up;
    }

    /// Is the link currently up?
    pub fn link_up(&self, link: LinkId) -> bool {
        self.core.links[link.0].up
    }

    /// Per-direction link statistics.
    pub fn link_stats(&self, link: LinkId, dir: Dir) -> crate::link::LinkDirStats {
        *self.core.links[link.0].stats(dir)
    }

    /// Enable bounded in-memory tracing (for examples / debugging).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.core.trace = Trace::enabled(capacity);
    }

    /// Enable span tracing of the event loop: each dispatched event is
    /// recorded as a span keyed by deterministic `SimTime` nanoseconds,
    /// in a ring holding at most `capacity` completed spans.
    pub fn enable_spans(&mut self, capacity: usize) {
        self.core.spans = Some(SpanRecorder::new(capacity));
    }

    /// The event-loop span recorder, if [`Self::enable_spans`] was called.
    pub fn spans(&self) -> Option<&SpanRecorder> {
        self.core.spans.as_ref()
    }

    /// Freeze the metrics registry into a mergeable snapshot, folding in
    /// every node logic's own metrics ([`NodeLogic::export_metrics`]).
    ///
    /// Logics export into a fresh registry on each call (in node-index
    /// order, so float sums stay byte-stable), which keeps repeated
    /// sampling — e.g. a scenario runner snapshotting at every phase
    /// boundary — idempotent: current values, not re-accumulated ones.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.core.registry.snapshot();
        let mut node_reg = dui_telemetry::registry::Registry::new();
        for logic in self.logics.iter().flatten() {
            logic.export_metrics(&mut node_reg);
        }
        snap.merge(&node_reg.snapshot());
        snap
    }

    /// Recorded trace events.
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.core.trace.events()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Global counters (a by-value view over the metrics registry).
    pub fn counters(&self) -> Counters {
        self.core.counters()
    }

    /// Inject a packet at a node as if its application sent it.
    pub fn inject(&mut self, node: NodeId, pkt: Packet) {
        self.start_if_needed();
        self.core.route_and_send(node, pkt);
    }

    pub(crate) fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.logics.len() {
            if let Some(mut logic) = self.logics[i].take() {
                let mut ctx = Ctx {
                    core: &mut self.core,
                    node: NodeId(i),
                };
                logic.on_start(&mut ctx);
                self.logics[i] = Some(logic);
            }
        }
    }

    /// Run the event loop until simulated time `t` (inclusive of events at
    /// exactly `t`). Time then rests at `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.start_if_needed();
        if self.sim_threads > 0 {
            match crate::parallel::run_parallel(self, t) {
                Ok(report) => {
                    self.last_parallel = Some(crate::parallel::ParallelOutcome::Ran(report));
                    return;
                }
                Err(reason) => {
                    // Count the fallback (total + per reason) so harnesses
                    // can report how often the parallel path declined.
                    let total = self.core.registry.counter("netsim.parallel.fallback");
                    self.core.registry.inc(total);
                    let by_reason = self
                        .core
                        .registry
                        .counter(&format!("netsim.parallel.fallback.{}", reason.key()));
                    self.core.registry.inc(by_reason);
                    self.last_parallel =
                        Some(crate::parallel::ParallelOutcome::Fallback(reason));
                    // fall through to the sequential engine
                }
            }
        }
        while let Some((time, event)) = self.core.queue.pop_due(t) {
            debug_assert!(time >= self.core.now, "time went backwards");
            self.core.now = time;
            self.dispatch(time, event);
        }
        self.core.now = t;
        self.core.sync_structural_metrics();
    }

    /// Dispatch one event, maintaining delivery counters and (when
    /// enabled) recording the dispatch as a sim-time span.
    pub(crate) fn dispatch(&mut self, time: SimTime, event: Event) {
        if let Some(spans) = self.core.spans.as_mut() {
            let label = match &event {
                Event::Deliver { .. } => "deliver",
                Event::TxComplete { .. } => "tx_complete",
                Event::Timer { .. } => "timer",
                Event::Offer { .. } => "offer",
            };
            spans.enter(label, time.as_nanos());
        }
        match event {
            Event::Deliver { node, pkt } => {
                self.core.registry.inc(self.core.metrics.delivered);
                // Delivery retires the handle: the body moves out of the
                // arena (recycling the slot) and into the node logic.
                let body = self.core.take_pkt(pkt);
                self.core
                    .trace
                    .record(time, TraceKind::Deliver, Some(node), &body);
                if let Some(mut logic) = self.logics[node.0].take() {
                    if self.core.topo.node(node).kind == crate::topology::NodeKind::Host {
                        self.core
                            .registry
                            .inc(self.core.metrics.delivered_endpoint);
                    }
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        node,
                    };
                    logic.on_packet(&mut ctx, body);
                    self.logics[node.0] = Some(logic);
                } else {
                    // No behavior installed: node is a pure sink.
                    self.core.registry.inc(self.core.metrics.sunk);
                }
            }
            Event::TxComplete { link, dir } => self.core.tx_complete(link, dir),
            Event::Timer { node, token } => {
                if let Some(mut logic) = self.logics[node.0].take() {
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        node,
                    };
                    logic.on_timer(&mut ctx, token);
                    self.logics[node.0] = Some(logic);
                }
            }
            Event::Offer { link, dir, pkt } => self.core.enqueue_link(link, dir, pkt),
        }
        if let Some(spans) = self.core.spans.as_mut() {
            spans.exit(self.core.now.as_nanos());
        }
    }

    /// Dispatch exactly one pending event, provided it is due at or
    /// before `limit`. Returns `None` — and rests the clock at `limit`
    /// — once no event remains within the limit, so
    /// `while sim.step_limited(t).is_some() {}` is equivalent to
    /// `sim.run_until(t)`. This is the hook the `dui-replay` recorder
    /// drives the engine through.
    pub fn step_limited(&mut self, limit: SimTime) -> Option<SteppedEvent> {
        self.start_if_needed();
        if let Some((time, event)) = self.core.queue.pop_due(limit) {
            debug_assert!(time >= self.core.now, "time went backwards");
            self.core.now = time;
            let kind = event.kind();
            let mut d = StateDigest::labeled("event");
            event.state_digest(&mut d, &self.core.arena);
            let digest = d.finish();
            self.dispatch(time, event);
            return Some(SteppedEvent { time, kind, digest });
        }
        self.core.now = limit;
        self.core.sync_structural_metrics();
        None
    }

    /// Fold the engine's complete logical state into `d`: clock, RNG,
    /// pending events (dispatch order), link queues and statistics,
    /// routing, prefix announcements, and every node logic's
    /// [`NodeLogic::state_digest`] contribution.
    ///
    /// Telemetry (metrics registry, traces, spans) is excluded: it is
    /// observability about the run, not state that influences it.
    pub fn state_digest(&self, d: &mut StateDigest) {
        d.write_u64(self.core.now.0);
        d.write_u64(self.core.next_pkt_id);
        for w in self.core.rng.state() {
            d.write_u64(w);
        }
        d.write_bool(self.started);
        // Events and link queues hold handles; resolve each through the
        // arena and digest the packet *contents*, byte-identical to the
        // pre-arena engine (golden hashes must not change).
        let events = self.core.queue.snapshot_refs();
        d.write_len(events.len());
        for (t, e) in &events {
            d.write_u64(t.0);
            e.state_digest(d, &self.core.arena);
        }
        d.write_len(self.core.links.len());
        for lr in &self.core.links {
            d.write_bool(lr.up);
            for (st, stats) in [(&lr.ab, &lr.stats_ab), (&lr.ba, &lr.stats_ba)] {
                d.write_len(st.queue.len());
                for p in &st.queue {
                    self.core.pkt(*p).state_digest(d);
                }
                match st.in_flight {
                    None => d.write_u8(0),
                    Some(p) => {
                        d.write_u8(1);
                        self.core.pkt(p).state_digest(d);
                    }
                }
                d.write_f64(st.fault.drop_prob);
                d.write_opt_u64(st.fault.jitter_max.map(|j| j.as_nanos()));
                for c in [
                    stats.offered,
                    stats.delivered,
                    stats.bytes_delivered,
                    stats.dropped_queue,
                    stats.dropped_tap,
                    stats.dropped_fault,
                ] {
                    d.write_u64(c);
                }
            }
            d.write_usize(lr.taps_ab.len());
            d.write_usize(lr.taps_ba.len());
        }
        let n = self.core.topo.node_count();
        for src in 0..n {
            for dst in 0..n {
                d.write_opt_u64(
                    self.core
                        .routing
                        .next_hop(NodeId(src), NodeId(dst))
                        .map(|h| h.0 as u64),
                );
            }
        }
        d.write_len(self.core.prefixes.entries().len());
        for (p, node) in self.core.prefixes.entries() {
            d.write_u32(p.addr.0);
            d.write_u8(p.len);
            d.write_usize(node.0);
        }
        d.write_len(self.logics.len());
        for logic in &self.logics {
            match logic {
                None => d.write_u8(0),
                Some(l) => {
                    d.write_u8(1);
                    l.state_digest(d);
                }
            }
        }
    }

    /// 64-bit digest of the engine's complete logical state (see
    /// [`Simulator::state_digest`] for what is covered).
    pub fn state_hash(&self) -> u64 {
        let mut d = StateDigest::labeled("netsim");
        self.state_digest(&mut d);
        d.finish()
    }

    /// Capture a restorable checkpoint of the engine's logical state.
    ///
    /// Fails (all-or-nothing) if any installed node logic does not
    /// support [`NodeLogic::save_state`] or if MitM taps are installed
    /// (trait objects with no serialization contract) — recordings of
    /// such simulations remain hash-checkable, just not resumable.
    pub fn checkpoint(&self) -> Result<EngineCheckpoint, String> {
        for lr in &self.core.links {
            if !lr.taps_ab.is_empty() || !lr.taps_ba.is_empty() {
                return Err("cannot checkpoint a simulation with link taps installed".into());
            }
        }
        let mut logics = Vec::with_capacity(self.logics.len());
        for (i, logic) in self.logics.iter().enumerate() {
            match logic {
                None => logics.push(None),
                Some(l) => match l.save_state() {
                    Some(bytes) => logics.push(Some(bytes)),
                    None => {
                        return Err(format!(
                            "node '{}' has logic that does not support checkpointing",
                            self.core.topo.node(NodeId(i)).name
                        ))
                    }
                },
            }
        }
        // Materialize link queues through the arena: each packet is
        // cloned exactly once, inside the arena module.
        let arena = &self.core.arena;
        let dir_ckpt = |st: &crate::link::DirState| DirCheckpoint {
            queue: st
                .queue
                .iter()
                .map(|r| {
                    arena
                        .snapshot_packet(*r)
                        .expect("engine holds a stale packet ref") // lint: allow(panic)
                })
                .collect(),
            in_flight: st.in_flight.map(|r| {
                arena
                    .snapshot_packet(r)
                    .expect("engine holds a stale packet ref") // lint: allow(panic)
            }),
            fault: st.fault,
        };
        let links = self
            .core
            .links
            .iter()
            .map(|lr| LinkCheckpoint {
                up: lr.up,
                ab: dir_ckpt(&lr.ab),
                ba: dir_ckpt(&lr.ba),
                stats_ab: lr.stats_ab,
                stats_ba: lr.stats_ba,
            })
            .collect();
        let n = self.core.topo.node_count();
        let routing = (0..n)
            .map(|src| {
                (0..n)
                    .map(|dst| self.core.routing.next_hop(NodeId(src), NodeId(dst)))
                    .collect()
            })
            .collect();
        Ok(EngineCheckpoint {
            now: self.core.now,
            rng: self.core.rng.state(),
            next_pkt_id: self.core.next_pkt_id,
            started: self.started,
            events: self.core.queue.snapshot_sorted(&self.core.arena),
            links,
            logics,
            routing,
            prefixes: self.core.prefixes.entries().to_vec(),
            state_hash: self.state_hash(),
        })
    }

    /// Restore a checkpoint taken from a simulator with the same
    /// topology and node logics (typically a freshly rebuilt scenario).
    /// Consumes the checkpoint: packet bodies *move* into the rebuilt
    /// arena, no re-clone.
    ///
    /// Pending events are re-scheduled in dispatch order — `(time,
    /// seq)` ordering is total, so the rebuilt queue pops identically
    /// regardless of the original sequence numbers. Arena slot assignment
    /// and wheel internals are rebuilt fresh; both are implementation
    /// detail outside the logical state, so [`Simulator::state_hash`]
    /// still reproduces the checkpoint's hash. Telemetry counters are
    /// *not* restored (they remain whatever the receiving simulator
    /// accumulated), matching their exclusion from the state hash.
    pub fn restore(&mut self, ckpt: EngineCheckpoint) -> Result<(), String> {
        if ckpt.logics.len() != self.logics.len() {
            return Err("checkpoint node count does not match topology".into());
        }
        if ckpt.links.len() != self.core.links.len() {
            return Err("checkpoint link count does not match topology".into());
        }
        let n = self.core.topo.node_count();
        if ckpt.routing.len() != n || ckpt.routing.iter().any(|row| row.len() != n) {
            return Err("checkpoint routing table does not match topology".into());
        }
        self.check_references(&ckpt)?;
        for lr in &self.core.links {
            if !lr.taps_ab.is_empty() || !lr.taps_ba.is_empty() {
                return Err("cannot restore into a simulation with link taps installed".into());
            }
        }
        for (i, blob) in ckpt.logics.iter().enumerate() {
            match (&mut self.logics[i], blob) {
                (Some(l), Some(bytes)) => l.load_state(bytes).map_err(|e| e.to_string())?,
                (None, None) => {}
                (Some(_), None) => {
                    return Err(format!(
                        "checkpoint has no state for node '{}' which has logic installed",
                        self.core.topo.node(NodeId(i)).name
                    ))
                }
                (None, Some(_)) => {
                    return Err(format!(
                        "checkpoint has state for node '{}' which has no logic installed",
                        self.core.topo.node(NodeId(i)).name
                    ))
                }
            }
        }
        self.core.now = ckpt.now;
        self.core.rng = Rng::from_state(ckpt.rng);
        self.core.next_pkt_id = ckpt.next_pkt_id;
        self.started = ckpt.started;
        // Rebuild arena + queue together: every saved packet moves into a
        // fresh arena exactly once (no clone — the checkpoint is consumed).
        self.core.arena = PacketArena::new();
        let mut queue = EventQueue::new();
        for (t, e) in ckpt.events {
            let live = e.into_live(&mut self.core.arena);
            queue.schedule(t, live);
        }
        self.core.queue = queue;
        // Counters in the registry export deltas against the last synced
        // wheel/arena stats; both were just reset, so re-baseline.
        self.core.metrics.last_wheel = self.core.queue.wheel_stats();
        self.core.metrics.last_recycled = self.core.arena.recycled();
        for (lr, lc) in self.core.links.iter_mut().zip(ckpt.links) {
            lr.up = lc.up;
            lr.ab.queue = lc
                .ab
                .queue
                .into_iter()
                .map(|p| self.core.arena.insert(p))
                .collect();
            lr.ab.in_flight = lc.ab.in_flight.map(|p| self.core.arena.insert(p));
            lr.ab.fault = lc.ab.fault;
            lr.ba.queue = lc
                .ba
                .queue
                .into_iter()
                .map(|p| self.core.arena.insert(p))
                .collect();
            lr.ba.in_flight = lc.ba.in_flight.map(|p| self.core.arena.insert(p));
            lr.ba.fault = lc.ba.fault;
            lr.stats_ab = lc.stats_ab;
            lr.stats_ba = lc.stats_ba;
        }
        for src in 0..n {
            for dst in 0..n {
                self.core.routing.set_next_hop(
                    NodeId(src),
                    NodeId(dst),
                    ckpt.routing[src][dst],
                );
            }
        }
        self.core.prefixes = PrefixTable::new();
        for (p, node) in &ckpt.prefixes {
            self.core.prefixes.announce(*p, *node);
        }
        Ok(())
    }

    /// The part of [`Simulator::restore`] that trusts nothing: every id
    /// a checkpoint names must exist in this topology, and the invariants
    /// dispatch relies on must hold — no event in the past, next hops
    /// adjacent, exactly one pending `TxComplete` per busy transmitter.
    fn check_references(&self, ckpt: &EngineCheckpoint) -> Result<(), String> {
        let n = self.core.topo.node_count();
        let mut completions = vec![[0usize; 2]; ckpt.links.len()];
        for (t, e) in &ckpt.events {
            let (node, link) = match e {
                SavedEvent::Deliver { node, .. } | SavedEvent::Timer { node, .. } => {
                    (Some(node), None)
                }
                SavedEvent::Offer { link, .. } => (None, Some(link)),
                SavedEvent::TxComplete { link, dir } => {
                    if let Some(c) = completions.get_mut(link.0) {
                        c[(*dir == Dir::BtoA) as usize] += 1;
                    }
                    (None, Some(link))
                }
            };
            if *t < ckpt.now
                || node.is_some_and(|node| node.0 >= n)
                || link.is_some_and(|link| link.0 >= ckpt.links.len())
            {
                return Err("checkpoint event in the past, or at an unknown node or link".into());
            }
        }
        for (lc, done) in ckpt.links.iter().zip(&completions) {
            if [&lc.ab, &lc.ba].map(|d| d.in_flight.is_some() as usize) != *done {
                return Err("checkpoint transmitters and pending completions disagree".into());
            }
        }
        for (src, row) in ckpt.routing.iter().enumerate() {
            for hop in row.iter().flatten() {
                if hop.0 >= n || self.core.topo.link_between(NodeId(src), *hop).is_none() {
                    return Err("checkpoint routes through a non-adjacent hop".into());
                }
            }
        }
        if ckpt.prefixes.iter().any(|(_, node)| node.0 >= n) {
            return Err("checkpoint announces a prefix at an unknown node".into());
        }
        Ok(())
    }

    /// Run until the event queue drains (or `max` events, as a hang guard).
    /// Returns the number of events processed.
    pub fn run_to_quiescence(&mut self, max: u64) -> u64 {
        self.start_if_needed();
        let mut n = 0;
        while let Some((time, event)) = self.core.queue.pop() {
            self.core.now = time;
            n += 1;
            assert!(n <= max, "simulation did not quiesce within {max} events");
            self.dispatch(time, event);
        }
        self.core.sync_structural_metrics();
        n
    }
}
