//! Topology partitioning: latency-bounded domains and the conservative
//! lookahead.
//!
//! The partitioner contracts every link whose propagation delay is below
//! the lookahead floor (two nodes joined by a fast link must share a
//! domain) and lets the remaining *cut links* carry cross-domain
//! traffic. The **lookahead** is the minimum propagation delay over the
//! cut: a dispatch at time `s` in one domain can schedule an event in
//! another domain no earlier than `s + lookahead`, which is the
//! conservative-synchronization guarantee every barrier window relies
//! on. Low-lookahead cuts never appear by construction — a link too fast
//! to give useful lookahead is contracted instead of cut (degenerating,
//! in the worst case, to a single domain and a sequential run).

use crate::time::SimDuration;
use crate::topology::{NodeId, Topology};

/// Default lookahead floor: links faster than this are contracted into
/// one domain. One microsecond comfortably exceeds every serialization
/// delay the experiments produce while keeping WAN-scale links
/// (milliseconds) available as cuts.
pub fn default_lookahead_floor() -> SimDuration {
    SimDuration::from_micros(1)
}

/// A partition of the topology into latency-bounded domains, plus the
/// conservative lookahead its cut links permit.
#[derive(Debug)]
pub struct DomainMap {
    domain_of: Vec<u32>,
    domains: Vec<Vec<NodeId>>,
    lookahead: SimDuration,
}

impl DomainMap {
    /// Partition `topo` by contracting every link with propagation delay
    /// `< floor`. Domains are numbered densely in order of their lowest
    /// node id, so the decomposition is a pure deterministic function of
    /// the topology.
    ///
    /// ```
    /// use dui_netsim::parallel::partition::DomainMap;
    /// use dui_netsim::prelude::*;
    ///
    /// let mut b = TopologyBuilder::new();
    /// let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
    /// let r1 = b.router("r1");
    /// let r2 = b.router("r2");
    /// let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
    /// // LAN links (fast — contracted), one WAN link (slow — cut).
    /// b.link(h1, r1, Bandwidth::gbps(1), SimDuration::from_nanos(500), 64);
    /// b.link(r2, h2, Bandwidth::gbps(1), SimDuration::from_nanos(500), 64);
    /// b.link(r1, r2, Bandwidth::gbps(1), SimDuration::from_millis(5), 64);
    ///
    /// let map = DomainMap::partition(&b.build(), SimDuration::from_micros(1));
    /// assert_eq!(map.domain_count(), 2);
    /// assert_eq!(map.domain_of(h1), map.domain_of(r1));
    /// assert_eq!(map.domain_of(r2), map.domain_of(h2));
    /// assert_ne!(map.domain_of(r1), map.domain_of(r2));
    /// // Lookahead = min propagation delay over the cut.
    /// assert_eq!(map.lookahead(), SimDuration::from_millis(5));
    /// ```
    pub fn partition(topo: &Topology, floor: SimDuration) -> DomainMap {
        let n = topo.node_count();
        // Union-find over nodes, contracting sub-floor links.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]]; // path halving
                x = parent[x];
            }
            x
        }
        for link in topo.links() {
            if link.delay < floor {
                let (ra, rb) = (find(&mut parent, link.a.0), find(&mut parent, link.b.0));
                if ra != rb {
                    // Deterministic union: smaller root wins.
                    let (lo, hi) = (ra.min(rb), ra.max(rb));
                    parent[hi] = lo;
                }
            }
        }
        // Dense domain ids in order of lowest member node id.
        let mut domain_of = vec![u32::MAX; n];
        let mut domains: Vec<Vec<NodeId>> = Vec::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            if domain_of[root] == u32::MAX {
                domain_of[root] = domains.len() as u32;
                domains.push(Vec::new());
            }
            domain_of[i] = domain_of[root];
            domains[domain_of[i] as usize].push(NodeId(i));
        }
        // The lookahead the cut links permit.
        let lookahead = topo
            .links()
            .iter()
            .filter(|link| domain_of[link.a.0] != domain_of[link.b.0])
            .map(|link| link.delay)
            .min()
            .unwrap_or(SimDuration::ZERO);
        DomainMap {
            domain_of,
            domains,
            lookahead,
        }
    }

    /// The domain `node` belongs to.
    pub fn domain_of(&self, node: NodeId) -> u32 {
        self.domain_of[node.0]
    }

    /// Number of domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Member nodes per domain (each sorted ascending by node id).
    pub fn domains(&self) -> &[Vec<NodeId>] {
        &self.domains
    }

    /// Conservative lookahead: the minimum propagation delay over the cut
    /// links (zero when the topology collapses to a single domain).
    ///
    /// ```
    /// use dui_netsim::parallel::partition::DomainMap;
    /// use dui_netsim::prelude::*;
    ///
    /// let mut b = TopologyBuilder::new();
    /// let a = b.router("a");
    /// let c = b.router("c");
    /// // Single fast link: contracted — one domain, no lookahead.
    /// b.link(a, c, Bandwidth::gbps(1), SimDuration::from_nanos(100), 64);
    /// let map = DomainMap::partition(&b.build(), SimDuration::from_micros(1));
    /// assert_eq!(map.domain_count(), 1);
    /// assert_eq!(map.lookahead(), SimDuration::ZERO);
    /// ```
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Addr;
    use crate::time::Bandwidth;
    use crate::topology::TopologyBuilder;

    fn chain(delays: &[SimDuration]) -> Topology {
        let mut b = TopologyBuilder::new();
        let mut prev = b.host("h0", Addr::new(10, 0, 0, 1));
        for (i, &d) in delays.iter().enumerate() {
            let next = b.router(&format!("r{i}"));
            b.link(prev, next, Bandwidth::gbps(1), d, 64);
            prev = next;
        }
        b.build()
    }

    /// Links whose endpoints live in different domains.
    fn cut_count(topo: &Topology, map: &DomainMap) -> usize {
        topo.links()
            .iter()
            .filter(|l| map.domain_of(l.a) != map.domain_of(l.b))
            .count()
    }

    #[test]
    fn all_slow_links_make_singleton_domains() {
        let d = SimDuration::from_millis(2);
        let topo = chain(&[d, d, d]);
        let map = DomainMap::partition(&topo, default_lookahead_floor());
        assert_eq!(map.domain_count(), 4);
        assert_eq!(cut_count(&topo, &map), 3);
        assert_eq!(map.lookahead(), d);
    }

    #[test]
    fn fast_links_contract() {
        let fast = SimDuration::from_nanos(10);
        let slow = SimDuration::from_millis(7);
        let topo = chain(&[fast, slow, fast]);
        let map = DomainMap::partition(&topo, default_lookahead_floor());
        assert_eq!(map.domain_count(), 2);
        assert_eq!(cut_count(&topo, &map), 1);
        assert_eq!(map.lookahead(), slow);
        assert_eq!(map.domain_of(NodeId(0)), map.domain_of(NodeId(1)));
        assert_eq!(map.domain_of(NodeId(2)), map.domain_of(NodeId(3)));
    }

    #[test]
    fn lookahead_is_min_over_cut() {
        let topo = chain(&[
            SimDuration::from_millis(9),
            SimDuration::from_millis(3),
            SimDuration::from_millis(5),
        ]);
        let map = DomainMap::partition(&topo, default_lookahead_floor());
        assert_eq!(map.lookahead(), SimDuration::from_millis(3));
    }

    #[test]
    fn domain_ids_are_dense_and_ordered_by_lowest_member() {
        let d = SimDuration::from_millis(2);
        let topo = chain(&[d, d]);
        let map = DomainMap::partition(&topo, default_lookahead_floor());
        for i in 0..3 {
            assert_eq!(map.domain_of(NodeId(i)), i as u32);
            assert_eq!(map.domains()[i], vec![NodeId(i)]);
        }
    }
}
