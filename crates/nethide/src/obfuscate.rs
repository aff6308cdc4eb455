//! The NetHide-style virtual-topology search.
//!
//! Input: the physical topology, a set of `(src, dst)` flows whose
//! traceroutes must be answered, and a security budget `max_density` — the
//! maximum number of flows that may *appear* to share any one link.
//! Output: one virtual path per flow such that the observable flow density
//! stays within budget, chosen to maximize accuracy (virtual paths close
//! to physical ones). NetHide solves an ILP; we use the same candidate-
//! path formulation with a greedy + local-search solver, which is enough
//! to reproduce the security/accuracy trade-off the paper discusses.
//!
//! Virtual paths are *plausible by construction*: each candidate is a
//! simple path in the physical graph (so hop counts, neighbor relations
//! and shared-edge structure all look real — "NetHide limits the amount
//! of lying to the minimum").

use crate::metrics::{accuracy, path_accuracy, utility};
use dui_netsim::packet::Addr;
use dui_netsim::topology::{NodeId, Routing, Topology};
use std::collections::HashMap;

/// Maximum candidate paths kept per flow.
const CANDIDATES_PER_FLOW: usize = 16;
/// Local-search iterations.
const MAX_ITERATIONS: usize = 10_000;

/// Obfuscation parameters.
#[derive(Debug, Clone, Copy)]
pub struct ObfuscationConfig {
    /// Security budget: max flows that may appear to share one link.
    pub max_density: usize,
    /// Candidate paths may exceed the shortest path by this many hops.
    pub max_extra_hops: usize,
}

impl Default for ObfuscationConfig {
    fn default() -> Self {
        ObfuscationConfig {
            max_density: 4,
            max_extra_hops: 2,
        }
    }
}

/// Solver outcome summary.
#[derive(Debug, Clone, Copy)]
pub struct SolveReport {
    /// Max observable flow density before obfuscation.
    pub physical_max_density: usize,
    /// Max observable flow density achieved.
    pub achieved_max_density: usize,
    /// Whether the budget was met.
    pub within_budget: bool,
    /// Mean path accuracy of the virtual topology.
    pub accuracy: f64,
    /// Mean path utility of the virtual topology.
    pub utility: f64,
    /// Local-search iterations used.
    pub iterations: usize,
}

/// A virtual topology: one advertised path per flow.
#[derive(Debug, Clone, Default)]
pub struct VirtualTopology {
    /// `(src addr, dst addr)` → advertised hop sequence (routers… dst).
    paths: HashMap<(Addr, Addr), Vec<Addr>>,
}

impl VirtualTopology {
    /// The identity (fully honest) virtual topology for `flows`.
    pub fn physical(topo: &Topology, routing: &Routing, flows: &[(NodeId, NodeId)]) -> Self {
        let mut paths = HashMap::new();
        for &(s, d) in flows {
            if let Some(p) = node_path_addrs(topo, routing, s, d) {
                paths.insert((topo.node(s).addr, topo.node(d).addr), p);
            }
        }
        VirtualTopology { paths }
    }

    /// Advertised hop for `(src, dst)` at 1-based `hop` index.
    pub fn hop(&self, src: Addr, dst: Addr, hop: usize) -> Option<Addr> {
        let p = self.paths.get(&(src, dst))?;
        if hop == 0 || hop > p.len() {
            return None;
        }
        Some(p[hop - 1])
    }

    /// Advertised path for `(src, dst)`.
    pub fn path(&self, src: Addr, dst: Addr) -> Option<&[Addr]> {
        self.paths.get(&(src, dst)).map(|v| v.as_slice())
    }

    /// All advertised paths.
    pub fn paths(&self) -> impl Iterator<Item = (&(Addr, Addr), &Vec<Addr>)> {
        self.paths.iter()
    }

    /// Replace one flow's advertised path (used by the malicious-operator
    /// attack to plant arbitrary fictions).
    pub fn set_path(&mut self, src: Addr, dst: Addr, path: Vec<Addr>) {
        self.paths.insert((src, dst), path);
    }

    /// Number of flows covered.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when no flows are covered.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// Physical path of `(src, dst)` as hop addresses (excluding the source).
fn node_path_addrs(
    topo: &Topology,
    routing: &Routing,
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<Addr>> {
    let p = routing.path(src, dst)?;
    Some(p[1..].iter().map(|&n| topo.node(n).addr).collect())
}

/// Enumerate simple paths `src → dst` with at most `max_len` edges
/// (bounded DFS; topologies here are tens of nodes).
fn simple_paths(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    max_len: usize,
    cap: usize,
) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut stack = vec![src];
    let mut visited = vec![false; topo.node_count()];
    visited[src.0] = true;
    fn dfs(
        topo: &Topology,
        dst: NodeId,
        max_len: usize,
        cap: usize,
        stack: &mut Vec<NodeId>,
        visited: &mut Vec<bool>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if out.len() >= cap {
            return;
        }
        let Some(&cur) = stack.last() else {
            return; // seeded with `src` and never popped below its root
        };
        if cur == dst {
            out.push(stack.clone());
            return;
        }
        if stack.len() > max_len {
            return;
        }
        for &(next, _) in topo.neighbors(cur) {
            if !visited[next.0] {
                visited[next.0] = true;
                stack.push(next);
                dfs(topo, dst, max_len, cap, stack, visited, out);
                stack.pop();
                visited[next.0] = false;
            }
        }
    }
    dfs(topo, dst, max_len, cap, &mut stack, &mut visited, &mut out);
    out
}

/// An input flow the solver cannot place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnroutableFlow {
    /// Flow source.
    pub src: NodeId,
    /// Flow destination.
    pub dst: NodeId,
}

impl std::fmt::Display for UnroutableFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flow {:?} -> {:?} has no route in the physical topology",
            self.src, self.dst
        )
    }
}

impl std::error::Error for UnroutableFlow {}

/// Run the obfuscation solver.
///
/// `protected` selects the edges the density budget applies to (the
/// DDoS-critical links the operator wants to hide, per NetHide); an empty
/// slice protects every edge. Edges with no routing alternative (e.g. an
/// access link every flow must cross) can never be spread and are skipped
/// once proven stuck. Errors if any requested flow has no route at all
/// (a disconnected topology).
pub fn obfuscate(
    topo: &Topology,
    routing: &Routing,
    flows: &[(NodeId, NodeId)],
    cfg: &ObfuscationConfig,
    protected: &[(Addr, Addr)],
) -> Result<(VirtualTopology, SolveReport), UnroutableFlow> {
    let norm = |e: (Addr, Addr)| if e.0 <= e.1 { e } else { (e.1, e.0) };
    let protected: std::collections::HashSet<(Addr, Addr)> =
        protected.iter().map(|&e| norm(e)).collect();
    let is_protected = |e: &(Addr, Addr)| protected.is_empty() || protected.contains(&norm(*e));
    // Physical paths + candidates per flow, sorted by accuracy (best first).
    let mut physical: Vec<Vec<Addr>> = Vec::with_capacity(flows.len());
    let mut candidates: Vec<Vec<Vec<Addr>>> = Vec::with_capacity(flows.len());
    for &(s, d) in flows {
        let phys = node_path_addrs(topo, routing, s, d)
            .ok_or(UnroutableFlow { src: s, dst: d })?;
        let shortest = phys.len();
        let mut cands: Vec<Vec<Addr>> =
            simple_paths(topo, s, d, shortest + cfg.max_extra_hops, 256)
                .into_iter()
                .map(|p| p[1..].iter().map(|&n| topo.node(n).addr).collect())
                .collect();
        cands.sort_by(|a, b| path_accuracy(&phys, b).total_cmp(&path_accuracy(&phys, a)));
        cands.truncate(CANDIDATES_PER_FLOW);
        physical.push(phys);
        candidates.push(cands);
    }
    // Start from the physical assignment (candidate 0 is the physical path
    // itself, having accuracy 1).
    let mut chosen: Vec<usize> = vec![0; flows.len()];
    let paths_of = |chosen: &[usize], candidates: &[Vec<Vec<Addr>>]| -> Vec<Vec<Addr>> {
        chosen
            .iter()
            .enumerate()
            .map(|(i, &c)| candidates[i][c].clone())
            .collect()
    };
    let physical_max_density = crate::metrics::flow_density(&physical)
        .iter()
        .filter(|(e, _)| is_protected(e))
        .map(|(_, &c)| c)
        .max()
        .unwrap_or(0);

    // Greedy descent on the protected-edge "overload energy"
    // Σ max(0, density(e) − budget)²: each accepted move strictly reduces
    // it, so the search terminates without thrashing between edges.
    let energy_of = |paths: &[Vec<Addr>]| -> f64 {
        crate::metrics::flow_density(paths)
            .iter()
            .filter(|(e, _)| is_protected(e))
            .map(|(_, &c)| {
                let over = c.saturating_sub(cfg.max_density) as f64;
                over * over
            })
            .sum()
    };
    let mut iterations = 0;
    loop {
        if iterations >= MAX_ITERATIONS {
            break;
        }
        let current = paths_of(&chosen, &candidates);
        let energy = energy_of(&current);
        if energy == 0.0 {
            break;
        }
        // Best single-flow move: biggest energy drop, ties by accuracy.
        let mut best_move: Option<(usize, usize, f64, f64)> = None; // (flow, cand, d_energy, acc)
        for i in 0..candidates.len() {
            for (ci, cand) in candidates[i].iter().enumerate() {
                if ci == chosen[i] {
                    continue;
                }
                let mut trial = current.clone();
                trial[i] = cand.clone();
                let e = energy_of(&trial);
                if e >= energy {
                    continue;
                }
                let acc = path_accuracy(&physical[i], cand);
                let better = match best_move {
                    None => true,
                    Some((_, _, de, a)) => e < de || (e == de && acc > a),
                };
                if better {
                    best_move = Some((i, ci, e, acc));
                }
            }
        }
        match best_move {
            Some((flow, cand, _, _)) => chosen[flow] = cand,
            None => break, // no single move helps: structurally stuck
        }
        iterations += 1;
    }

    let final_paths = paths_of(&chosen, &candidates);
    let achieved = crate::metrics::flow_density(&final_paths)
        .iter()
        .filter(|(e, _)| is_protected(e))
        .map(|(_, &c)| c)
        .max()
        .unwrap_or(0);
    let pairs: Vec<(Vec<Addr>, Vec<Addr>)> = physical
        .iter()
        .cloned()
        .zip(final_paths.iter().cloned())
        .collect();
    let report = SolveReport {
        physical_max_density,
        achieved_max_density: achieved,
        within_budget: achieved <= cfg.max_density,
        accuracy: accuracy(&pairs),
        utility: utility(&pairs),
        iterations,
    };
    let mut vt = VirtualTopology::default();
    for (i, &(s, d)) in flows.iter().enumerate() {
        vt.set_path(topo.node(s).addr, topo.node(d).addr, final_paths[i].clone());
    }
    Ok((vt, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::prelude::*;

    /// A "bowtie": many leaf hosts forced through one central link unless
    /// paths detour over a parallel ring.
    ///   h0..h3 - l - c1 === c2 - r - g0..g3   plus detour c1 - m - c2
    fn bowtie() -> (Topology, Vec<(NodeId, NodeId)>) {
        let mut b = TopologyBuilder::new();
        let c1 = b.router("c1");
        let c2 = b.router("c2");
        let m = b.router("m");
        let l = b.router("l");
        let r = b.router("r");
        let bw = Bandwidth::mbps(100);
        let d = SimDuration::from_millis(1);
        b.link(l, c1, bw, d, 16);
        b.link(c1, c2, bw, d, 16);
        b.link(c1, m, bw, d, 16);
        b.link(m, c2, bw, d, 16);
        b.link(c2, r, bw, d, 16);
        let mut flows = Vec::new();
        for i in 0..4u8 {
            let h = b.host(&format!("h{i}"), Addr::new(10, 1, 0, i + 1));
            let g = b.host(&format!("g{i}"), Addr::new(10, 2, 0, i + 1));
            b.link(h, l, bw, d, 16);
            b.link(g, r, bw, d, 16);
            flows.push((h, g));
        }
        (b.build(), flows)
    }

    #[test]
    fn physical_topology_is_identity() {
        let (topo, flows) = bowtie();
        let routing = Routing::shortest_paths(&topo);
        let vt = VirtualTopology::physical(&topo, &routing, &flows);
        assert_eq!(vt.len(), 4);
        let (s, d) = flows[0];
        let expected = node_path_addrs(&topo, &routing, s, d).unwrap();
        assert_eq!(
            vt.path(topo.node(s).addr, topo.node(d).addr).unwrap(),
            expected.as_slice()
        );
    }

    #[test]
    fn hop_lookup_is_one_based() {
        let (topo, flows) = bowtie();
        let routing = Routing::shortest_paths(&topo);
        let vt = VirtualTopology::physical(&topo, &routing, &flows);
        let (s, d) = flows[0];
        let (sa, da) = (topo.node(s).addr, topo.node(d).addr);
        let p = vt.path(sa, da).unwrap().to_vec();
        assert_eq!(vt.hop(sa, da, 1), Some(p[0]));
        assert_eq!(vt.hop(sa, da, p.len()), Some(*p.last().unwrap()));
        assert_eq!(vt.hop(sa, da, 0), None);
        assert_eq!(vt.hop(sa, da, p.len() + 1), None);
    }

    #[test]
    fn obfuscation_meets_density_budget() {
        let (topo, flows) = bowtie();
        let routing = Routing::shortest_paths(&topo);
        let cfg = ObfuscationConfig {
            max_density: 2,
            ..Default::default()
        };
        // Protect the core link c1-c2 (the DDoS-critical one).
        let c1 = topo.node(topo.node_by_name("c1").unwrap()).addr;
        let c2 = topo.node(topo.node_by_name("c2").unwrap()).addr;
        let (_vt, report) = obfuscate(&topo, &routing, &flows, &cfg, &[(c1, c2)]).unwrap();
        assert!(
            report.physical_max_density >= 4,
            "all 4 flows share c1-c2 physically: {}",
            report.physical_max_density
        );
        assert!(
            report.within_budget,
            "solver should spread flows over the m-detour: {report:?}"
        );
        assert!(report.achieved_max_density <= 2);
    }

    #[test]
    fn obfuscation_trades_accuracy_for_security() {
        let (topo, flows) = bowtie();
        let routing = Routing::shortest_paths(&topo);
        let c1 = topo.node(topo.node_by_name("c1").unwrap()).addr;
        let c2 = topo.node(topo.node_by_name("c2").unwrap()).addr;
        let strict = obfuscate(
            &topo,
            &routing,
            &flows,
            &ObfuscationConfig {
                max_density: 2,
                ..Default::default()
            },
            &[(c1, c2)],
        )
        .unwrap()
        .1;
        let loose = obfuscate(
            &topo,
            &routing,
            &flows,
            &ObfuscationConfig {
                max_density: 4,
                ..Default::default()
            },
            &[(c1, c2)],
        )
        .unwrap()
        .1;
        assert!(loose.accuracy >= strict.accuracy);
        assert!(strict.accuracy > 0.4, "lying stays bounded: {strict:?}");
        assert_eq!(loose.accuracy, 1.0, "budget 4 needs no lying here");
    }

    #[test]
    fn candidates_are_simple_paths() {
        let (topo, flows) = bowtie();
        let (s, d) = flows[0];
        let paths = simple_paths(&topo, s, d, 8, 100);
        assert!(!paths.is_empty());
        for p in &paths {
            assert_eq!(p.first(), Some(&s));
            assert_eq!(p.last(), Some(&d));
            let distinct: std::collections::HashSet<_> = p.iter().collect();
            assert_eq!(distinct.len(), p.len(), "simple = no repeated nodes");
        }
    }

    #[test]
    fn set_path_allows_arbitrary_fictions() {
        let mut vt = VirtualTopology::default();
        let (s, d) = (Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2));
        vt.set_path(s, d, vec![Addr::new(9, 9, 9, 1), Addr::new(2, 2, 2, 2)]);
        assert_eq!(vt.hop(s, d, 1), Some(Addr::new(9, 9, 9, 1)));
    }
}
