//! Network topology: nodes, links, addressing and shortest-path routing.

use crate::packet::{Addr, Prefix};
use crate::time::{Bandwidth, SimDuration};
use dui_stats::hash::FixedState;
use std::collections::HashMap;

/// Index of a node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Index of a link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// What kind of device a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An endpoint that sources/sinks traffic and owns an address.
    Host,
    /// A forwarding device (may run data-plane programs).
    Router,
}

/// Static description of a node.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Human-readable name for traces.
    pub name: String,
    /// Host or router.
    pub kind: NodeKind,
    /// The node's address (hosts always have one; routers get one too so
    /// they can source ICMP time-exceeded replies).
    pub addr: Addr,
}

/// Static description of a (bidirectional) link.
#[derive(Debug, Clone)]
pub struct LinkInfo {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// Capacity, per direction.
    pub bandwidth: Bandwidth,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Queue capacity in packets, per direction.
    pub queue_cap: usize,
}

/// An immutable network topology (nodes + links + addressing).
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    links: Vec<LinkInfo>,
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    /// Lookup only — never iterated — and every address is handed out by
    /// a topology generator in this process (no file format names one),
    /// so the keyless hasher is safe here.
    addr_to_node: HashMap<Addr, NodeId, FixedState>,
}

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &NodeInfo {
        &self.nodes[id.0]
    }

    /// Link metadata.
    pub fn link(&self, id: LinkId) -> &LinkInfo {
        &self.links[id.0]
    }

    /// All links.
    pub fn links(&self) -> &[LinkInfo] {
        &self.links
    }

    /// Neighbors of `n` as `(neighbor, connecting link)` pairs.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[n.0]
    }

    /// Node owning `addr`, if any.
    pub fn node_by_addr(&self, addr: Addr) -> Option<NodeId> {
        self.addr_to_node.get(&addr).copied()
    }

    /// The link between two adjacent nodes, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency[a.0]
            .iter()
            .find(|(n, _)| *n == b)
            .map(|&(_, l)| l)
    }

    /// All node ids of a given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].kind == kind)
            .map(NodeId)
            .collect()
    }

    /// Node id by name (`None` if absent).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(NodeId)
    }
}

/// Builder for [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<NodeInfo>,
    links: Vec<LinkInfo>,
}

impl TopologyBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host with an address.
    pub fn host(&mut self, name: &str, addr: Addr) -> NodeId {
        self.add_node(name, NodeKind::Host, addr)
    }

    /// Add a router; its address is auto-assigned in `172.16.0.0/16` from its
    /// index (used as the source of its ICMP replies).
    pub fn router(&mut self, name: &str) -> NodeId {
        let idx = self.nodes.len() as u32;
        let addr = Addr(Addr::new(172, 16, 0, 0).0 + idx + 1);
        self.add_node(name, NodeKind::Router, addr)
    }

    fn add_node(&mut self, name: &str, kind: NodeKind, addr: Addr) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeInfo {
            name: name.to_string(),
            kind,
            addr,
        });
        id
    }

    /// Connect two nodes.
    pub fn link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: Bandwidth,
        delay: SimDuration,
        queue_cap: usize,
    ) -> LinkId {
        assert!(a != b, "no self-links");
        assert!(queue_cap > 0, "queue capacity must be positive");
        let id = LinkId(self.links.len());
        self.links.push(LinkInfo {
            a,
            b,
            bandwidth,
            delay,
            queue_cap,
        });
        id
    }

    /// Finalize into an immutable topology.
    pub fn build(self) -> Topology {
        let mut adjacency = vec![Vec::new(); self.nodes.len()];
        for (i, l) in self.links.iter().enumerate() {
            adjacency[l.a.0].push((l.b, LinkId(i)));
            adjacency[l.b.0].push((l.a, LinkId(i)));
        }
        let mut addr_to_node = HashMap::default();
        for (i, n) in self.nodes.iter().enumerate() {
            let prev = addr_to_node.insert(n.addr, NodeId(i));
            assert!(prev.is_none(), "duplicate address {}", n.addr);
        }
        Topology {
            nodes: self.nodes,
            links: self.links,
            adjacency,
            addr_to_node,
        }
    }
}

/// All-pairs next-hop routing computed by per-source Dijkstra over link
/// propagation delays (ties broken by node index, so routing is
/// deterministic).
#[derive(Debug, Clone)]
pub struct Routing {
    /// `next_hop[src][dst]` — neighbor to forward to, `None` if unreachable
    /// or `src == dst`.
    next_hop: Vec<Vec<Option<NodeId>>>,
    /// `dist[src][dst]` in nanoseconds of propagation delay.
    dist: Vec<Vec<u64>>,
}

impl Routing {
    /// Compute shortest-path routing for `topo`.
    pub fn shortest_paths(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut next_hop = vec![vec![None; n]; n];
        let mut dist = vec![vec![u64::MAX; n]; n];
        for src in 0..n {
            // Dijkstra from src.
            let mut d = vec![u64::MAX; n];
            let mut first = vec![None; n]; // first hop on path src->v
            let mut heap = std::collections::BinaryHeap::new();
            d[src] = 0;
            heap.push(std::cmp::Reverse((0u64, src, None::<NodeId>)));
            while let Some(std::cmp::Reverse((du, u, fh))) = heap.pop() {
                if du > d[u] {
                    continue;
                }
                if u != src && first[u].is_none() {
                    first[u] = fh;
                }
                for &(v, l) in topo.neighbors(NodeId(u)) {
                    let w = topo.link(l).delay.as_nanos().max(1);
                    let nd = du.saturating_add(w);
                    let cand_fh = if u == src { Some(v) } else { first[u] };
                    if nd < d[v.0] {
                        d[v.0] = nd;
                        first[v.0] = None; // finalized when popped
                        heap.push(std::cmp::Reverse((nd, v.0, cand_fh)));
                    }
                }
            }
            dist[src].copy_from_slice(&d);
            next_hop[src].copy_from_slice(&first);
        }
        Routing { next_hop, dist }
    }

    /// Next hop from `src` towards `dst` (`None` if unreachable or equal).
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.next_hop[src.0][dst.0]
    }

    /// Override the next hop for a specific `(src, dst)` pair. Used by
    /// operator-level actions (and by tests) to steer paths.
    pub fn set_next_hop(&mut self, src: NodeId, dst: NodeId, via: Option<NodeId>) {
        self.next_hop[src.0][dst.0] = via;
    }

    /// Propagation distance (ns) between two nodes; `u64::MAX` if unreachable.
    pub fn distance_ns(&self, src: NodeId, dst: NodeId) -> u64 {
        self.dist[src.0][dst.0]
    }

    /// The full path `src..=dst` (inclusive), following next hops.
    /// Returns `None` if unreachable. Panics on routing loops longer than the
    /// node count (should be impossible with shortest paths).
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut path = vec![src];
        let mut cur = src;
        let limit = self.next_hop.len() + 1;
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            path.push(cur);
            assert!(path.len() <= limit, "routing loop detected");
        }
        Some(path)
    }
}

/// A destination prefix announced by a host: maps [`Prefix`] to the host
/// node that sinks its traffic. Longest-prefix match.
#[derive(Debug, Clone, Default)]
pub struct PrefixTable {
    entries: Vec<(Prefix, NodeId)>,
}

impl PrefixTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Announce `prefix` at `node`.
    pub fn announce(&mut self, prefix: Prefix, node: NodeId) {
        self.entries.push((prefix, node));
        // Keep sorted by descending length for longest-prefix match.
        self.entries.sort_by_key(|e| std::cmp::Reverse(e.0.len));
    }

    /// Longest-prefix match for `addr`.
    pub fn lookup(&self, addr: Addr) -> Option<(Prefix, NodeId)> {
        self.entries.iter().find(|(p, _)| p.contains(addr)).copied()
    }

    /// All announced entries.
    pub fn entries(&self) -> &[(Prefix, NodeId)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Bandwidth, SimDuration};

    fn line3() -> (Topology, NodeId, NodeId, NodeId) {
        // h1 -- r -- h2
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let r = b.router("r");
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        b.link(h1, r, Bandwidth::mbps(100), SimDuration::from_millis(1), 64);
        b.link(r, h2, Bandwidth::mbps(100), SimDuration::from_millis(1), 64);
        (b.build(), h1, r, h2)
    }

    #[test]
    fn adjacency_and_lookup() {
        let (t, h1, r, h2) = line3();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.neighbors(r).len(), 2);
        assert_eq!(t.node_by_addr(Addr::new(10, 0, 0, 2)), Some(h2));
        assert_eq!(t.node_by_name("h1"), Some(h1));
        assert!(t.link_between(h1, r).is_some());
        assert!(t.link_between(h1, h2).is_none());
    }

    #[test]
    fn routing_line() {
        let (t, h1, r, h2) = line3();
        let routing = Routing::shortest_paths(&t);
        assert_eq!(routing.next_hop(h1, h2), Some(r));
        assert_eq!(routing.next_hop(r, h2), Some(h2));
        assert_eq!(routing.next_hop(h1, h1), None);
        assert_eq!(routing.path(h1, h2), Some(vec![h1, r, h2]));
    }

    #[test]
    fn routing_prefers_short_path() {
        // square with a shortcut: a-b-d (2ms) vs a-c-d (20ms)
        let mut b = TopologyBuilder::new();
        let a = b.router("a");
        let bb = b.router("b");
        let c = b.router("c");
        let d = b.router("d");
        b.link(a, bb, Bandwidth::mbps(10), SimDuration::from_millis(1), 8);
        b.link(bb, d, Bandwidth::mbps(10), SimDuration::from_millis(1), 8);
        b.link(a, c, Bandwidth::mbps(10), SimDuration::from_millis(10), 8);
        b.link(c, d, Bandwidth::mbps(10), SimDuration::from_millis(10), 8);
        let t = b.build();
        let routing = Routing::shortest_paths(&t);
        assert_eq!(routing.next_hop(a, d), Some(bb));
        assert_eq!(
            routing.distance_ns(a, d),
            SimDuration::from_millis(2).as_nanos()
        );
    }

    #[test]
    fn routing_unreachable() {
        let mut b = TopologyBuilder::new();
        let a = b.host("a", Addr::new(1, 0, 0, 1));
        let c = b.host("c", Addr::new(1, 0, 0, 2));
        let t = b.build();
        let routing = Routing::shortest_paths(&t);
        assert_eq!(routing.next_hop(a, c), None);
        assert_eq!(routing.path(a, c), None);
    }

    #[test]
    fn set_next_hop_overrides() {
        let (t, h1, _r, h2) = line3();
        let mut routing = Routing::shortest_paths(&t);
        routing.set_next_hop(h1, h2, None);
        assert_eq!(routing.next_hop(h1, h2), None);
    }

    #[test]
    fn prefix_table_longest_match() {
        let mut pt = PrefixTable::new();
        let n1 = NodeId(1);
        let n2 = NodeId(2);
        pt.announce(Prefix::new(Addr::new(10, 0, 0, 0), 8), n1);
        pt.announce(Prefix::new(Addr::new(10, 1, 0, 0), 16), n2);
        assert_eq!(pt.lookup(Addr::new(10, 1, 2, 3)).unwrap().1, n2);
        assert_eq!(pt.lookup(Addr::new(10, 2, 2, 3)).unwrap().1, n1);
        assert!(pt.lookup(Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    #[should_panic]
    fn duplicate_address_rejected() {
        let mut b = TopologyBuilder::new();
        b.host("x", Addr::new(1, 1, 1, 1));
        b.host("y", Addr::new(1, 1, 1, 1));
        b.build();
    }

    #[test]
    fn routers_get_distinct_addrs() {
        let mut b = TopologyBuilder::new();
        let r1 = b.router("r1");
        let r2 = b.router("r2");
        let t = b.build();
        assert_ne!(t.node(r1).addr, t.node(r2).addr);
    }
}
