//! The simulation engine: core state, the node-facing [`Ctx`] handle, and
//! the top-level [`Simulator`].

use crate::arena::{PacketArena, PacketRef};
use crate::event::{Event, EventQueue};
use crate::link::{Dir, FaultConfig, LinkRuntime, LinkTap, TapAction};
use crate::node::NodeLogic;
use crate::packet::{Addr, Packet, Prefix};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId, PrefixTable, Routing, Topology};
use crate::wheel::WheelStats;
use dui_stats::digest::StateDigest;
use dui_stats::Rng;
use dui_telemetry::{CounterId, GaugeId, HistId, Registry, Snapshot};

/// Where every per-event digest of [`Simulator::step_limited`] starts:
/// the label is hashed once, at compile time, not once per event.
const EVENT_DIGEST: StateDigest = StateDigest::labeled("event");

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

/// Global drop/delivery accounting: a by-value view over the engine's
/// `netsim.` registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Packets delivered to a node (including routers, i.e. per hop).
    pub delivered: u64,
    /// Deliveries to nodes with no logic installed.
    pub sunk: u64,
    /// Drops: DropTail queue overflow.
    pub dropped_queue: u64,
    /// Drops: decided by a MitM tap.
    pub dropped_tap: u64,
    /// Drops: fault injection or failed link.
    pub dropped_fault: u64,
    /// Drops: TTL expired at a router.
    pub dropped_ttl: u64,
    /// Drops: decided by a data-plane program.
    pub dropped_program: u64,
    /// Drops: no route / unannounced destination.
    pub dropped_no_route: u64,
}

impl Counters {
    /// Sum of all drop categories.
    pub fn total_drops(&self) -> u64 {
        self.dropped_queue
            + self.dropped_tap
            + self.dropped_fault
            + self.dropped_ttl
            + self.dropped_program
            + self.dropped_no_route
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

    /// Read announced destination prefixes.
    pub fn prefixes(&self) -> &PrefixTable {
        &self.prefixes
    }

    /// Pending events in dispatch order, as borrows.
    pub fn pending(&self) -> Vec<(SimTime, &Event)> {
        self.queue.snapshot_refs()
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
            return;
        };
        self.send_via(from, next, pkt);
    }

    /// Send a packet from `from` to adjacent node `next`. The packet body
    /// enters the arena here; from this point on it moves by handle.
    fn send_via(&mut self, from: NodeId, next: NodeId, mut pkt: Packet) {
        self.assign_id(&mut pkt);
        #[expect(
            clippy::panic,
            reason = "routing only yields adjacent hops — a miss is a harness programming error, not input"
        )]
        let Some(link) = self.topo.link_between(from, next) else {
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
    #[expect(
        clippy::expect_used,
        reason = "the engine resolves only handles it issued and has not yet taken"
    )]
    pub(crate) fn pkt(&self, r: PacketRef) -> &Packet {
        self.arena.get(r).expect("engine holds a stale packet ref")
    }

    /// Remove a packet the engine is done with (drop or delivery),
    /// recycling its arena slot.
    #[expect(
        clippy::expect_used,
        reason = "the engine resolves only handles it issued and has not yet taken"
    )]
    fn take_pkt(&mut self, r: PacketRef) -> Packet {
        self.arena.take(r).expect("engine holds a stale packet ref")
    }

    /// Offer a packet to a link direction: faults → taps → queue.
    fn offer_link(&mut self, link: LinkId, dir: Dir, pkt: PacketRef) {
        self.links[link.0].stats_mut(dir).offered += 1;
        // 1. link up / fault injection
        let mut extra = SimDuration::ZERO;
        if !self.links[link.0].apply_fault(dir, &mut self.rng, &mut extra) {
            self.registry.inc(self.metrics.dropped_fault);
            self.take_pkt(pkt);
            return;
        }
        // 2. taps (MitM)
        let mut taps = std::mem::take(self.links[link.0].taps_mut(dir));
        let mut verdict = TapAction::Forward;
        let mut injected = Vec::new();
        for tap in &mut taps {
            #[expect(
                clippy::expect_used,
                reason = "the engine resolves only handles it issued and has not yet taken"
            )]
            let body = self
                .arena
                .get_mut(pkt)
                .expect("engine holds a stale packet ref");
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
                self.take_pkt(pkt);
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
                self.registry.record(self.metrics.queue_depth, depth as u64);
                self.take_pkt(pkt);
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
        self.links[link.0].dir_state(dir).in_flight = Some(pkt);
        self.schedule_event(self.now + ser, Event::TxComplete { link, dir });
    }

    pub(crate) fn tx_complete(&mut self, link: LinkId, dir: Dir) {
        let prop = self.links[link.0].info.delay;
        let dst = self.links[link.0].dst_node(dir);
        #[expect(
            clippy::expect_used,
            reason = "TxComplete is only scheduled after the transmitter placed a packet in flight here"
        )]
        let pkt = self.links[link.0]
            .dir_state(dir)
            .in_flight
            .take()
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
            #[expect(
                clippy::expect_used,
                reason = "a remote destination exists only under a domain extension, checked above"
            )]
            self.domain
                .as_mut()
                .expect("checked above")
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
        self.registry
            .add(m.arena_recycled, recycled.saturating_sub(m.last_recycled));
        m.last_recycled = recycled;
        self.registry
            .observe(m.arena_live, self.arena.live() as f64);
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

    /// The routing tables (read-only).
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
    /// random-loss/jitter faults, or a topology that partitions into a
    /// single domain) silently fall back to the sequential engine;
    /// [`Simulator::last_parallel_outcome`] reports which path was taken.
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
    #[expect(
        clippy::expect_used,
        reason = "documented contract — callers install logic before asking for it, and name its concrete type"
    )]
    pub fn logic_mut<T: NodeLogic + 'static>(&mut self, node: NodeId) -> &mut T {
        self.logics[node.0]
            .as_mut()
            .expect("node has no logic installed")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node logic has a different concrete type")
    }

    /// Shared read access to the engine core.
    pub fn core(&self) -> &SimCore {
        &self.core
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

    /// Per-direction link statistics.
    pub fn link_stats(&self, link: LinkId, dir: Dir) -> crate::link::LinkDirStats {
        *self.core.links[link.0].stats(dir)
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
                    self.last_parallel = Some(crate::parallel::ParallelOutcome::Fallback(reason));
                    // fall through to the sequential engine
                }
            }
        }
        while let Some((time, event)) = self.core.queue.pop_due(t) {
            debug_assert!(time >= self.core.now, "time went backwards");
            self.core.now = time;
            self.dispatch(event);
        }
        self.core.now = t;
        self.core.sync_structural_metrics();
    }

    /// Dispatch one event, maintaining delivery counters.
    pub(crate) fn dispatch(&mut self, event: Event) {
        match event {
            Event::Deliver { node, pkt } => {
                self.core.registry.inc(self.core.metrics.delivered);
                // Delivery retires the handle: the body moves out of the
                // arena (recycling the slot) and into the node logic.
                let body = self.core.take_pkt(pkt);
                if let Some(mut logic) = self.logics[node.0].take() {
                    if self.core.topo.node(node).kind == crate::topology::NodeKind::Host {
                        self.core.registry.inc(self.core.metrics.delivered_endpoint);
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
            let mut d = EVENT_DIGEST;
            event.encode(&mut d, &self.core.arena);
            let digest = d.finish();
            self.dispatch(event);
            return Some(SteppedEvent { time, kind, digest });
        }
        self.core.now = limit;
        self.core.sync_structural_metrics();
        None
    }

    /// Whether [`Simulator::step_limited`] at `limit` would dispatch no
    /// event: the engine has started, and nothing is due by `limit`.
    pub fn idle_until(&self, limit: SimTime) -> bool {
        self.started && self.core.queue.peek_time().is_none_or(|t| t > limit)
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
            self.dispatch(event);
        }
        self.core.sync_structural_metrics();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::Counters;

    #[test]
    fn counters_sum() {
        let c = Counters {
            dropped_queue: 1,
            dropped_tap: 2,
            dropped_fault: 3,
            dropped_ttl: 4,
            dropped_program: 5,
            dropped_no_route: 6,
            ..Default::default()
        };
        assert_eq!(c.total_drops(), 21);
    }
}
