//! Lowering: a validated [`Scenario`] → an executable [`Compiled`] plan.
//!
//! Compilation is where cross-section constraints live: the workload must
//! fit the topology, chaos targets must name real links/routers, and every
//! expectation must be observable on the chosen workload. Parsing already
//! guaranteed each section is well-formed in isolation; compile errors are
//! therefore always *semantic* ("no node named r9"), never syntactic.
//!
//! For parametric topologies the compiler builds the topology once to
//! resolve names into [`NodeId`]s/[`LinkId`]s. The factories in
//! `dui_core::scenario::topologies` are pure functions of their
//! parameters, so the runner can rebuild the identical topology later and
//! the resolved ids stay valid — nothing heavyweight is retained here.

use crate::ast::{AttackSpec, ChaosKind, Expectation, Scenario, TopologySpec, WorkloadSpec};
use crate::chaos::{expand, ChaosWindow};
use crate::keys::{PRIMARY, TCP_FAMILY};
use dui_core::netsim::topology::{LinkId, NodeId, NodeKind, Topology};
use dui_core::scenario::topologies;
use std::collections::BTreeMap;
use std::fmt;

/// A semantic error found while lowering a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The workload cannot run on the topology.
    KindMismatch {
        /// Topology kind token.
        topology: &'static str,
        /// Workload kind token.
        workload: &'static str,
    },
    /// A chaos target or workload endpoint names no node.
    UnknownNode {
        /// The offending name.
        name: String,
    },
    /// A workload endpoint must be a host.
    NotAHost {
        /// The offending name.
        name: String,
    },
    /// A bounce attack must run on routers.
    NotARouter {
        /// The offending name.
        name: String,
    },
    /// A link target names two nodes with no link between them.
    NoSuchLink {
        /// One endpoint.
        a: String,
        /// Other endpoint.
        b: String,
    },
    /// A partition leaves a node on neither side.
    PartitionUnassigned {
        /// The unassigned node.
        name: String,
    },
    /// A partition node is listed on both sides.
    PartitionOverlap {
        /// The doubly-listed node.
        name: String,
    },
    /// A partition cuts no links (both sides already disconnected, or one
    /// side empty).
    PartitionNoCut,
    /// This chaos kind cannot be lowered onto this workload.
    ChaosUnsupported {
        /// Workload kind token.
        workload: &'static str,
        /// Chaos key.
        chaos: &'static str,
    },
    /// The `primary` link-flap alias is only meaningful on the blink
    /// workload (where it lowers onto `fail_primary_forward`).
    PrimaryAlias,
    /// This expectation is not observable on this workload.
    ExpectationUnsupported {
        /// Workload kind token.
        workload: &'static str,
        /// Expectation key.
        expectation: &'static str,
    },
    /// `recovery_within` needs at least one connectivity-cutting chaos
    /// window to recover *from*.
    RecoveryWithoutChaos,
    /// `blackout_during_chaos` needs at least one connectivity-cutting
    /// chaos window to black out *in*.
    BlackoutWithoutChaos,
    /// The TCP destination host also appears in the source list.
    SrcIsDst {
        /// The host named on both ends.
        name: String,
    },
    /// The SYN-flood attacker host must not also carry legitimate
    /// traffic or be the victim.
    AttackerNotFree {
        /// The doubly-used host.
        name: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::KindMismatch { topology, workload } => write!(
                f,
                "workload '{workload}' cannot run on topology '{topology}'"
            ),
            CompileError::UnknownNode { name } => write!(f, "no node named '{name}'"),
            CompileError::NotAHost { name } => write!(f, "'{name}' is not a host"),
            CompileError::NotARouter { name } => write!(f, "'{name}' is not a router"),
            CompileError::NoSuchLink { a, b } => write!(f, "no link between '{a}' and '{b}'"),
            CompileError::PartitionUnassigned { name } => {
                write!(f, "partition leaves '{name}' on neither side")
            }
            CompileError::PartitionOverlap { name } => {
                write!(f, "partition lists '{name}' on both sides")
            }
            CompileError::PartitionNoCut => write!(f, "partition cuts no links"),
            CompileError::ChaosUnsupported { workload, chaos } => {
                write!(
                    f,
                    "chaos '{chaos}' is not supported on workload '{workload}'"
                )
            }
            CompileError::PrimaryAlias => write!(
                f,
                "link_flap target 'primary' is only valid on the blink workload"
            ),
            CompileError::ExpectationUnsupported {
                workload,
                expectation,
            } => write!(
                f,
                "expectation '{expectation}' is not observable on workload '{workload}'"
            ),
            CompileError::RecoveryWithoutChaos => write!(
                f,
                "recovery_within requires at least one link-cutting chaos declaration"
            ),
            CompileError::BlackoutWithoutChaos => write!(
                f,
                "blackout_during_chaos requires at least one link-cutting chaos declaration"
            ),
            CompileError::SrcIsDst { name } => {
                write!(f, "'{name}' is both a source and the destination")
            }
            CompileError::AttackerNotFree { name } => {
                write!(f, "attacker host '{name}' is also a workload endpoint")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// A chaos declaration resolved onto concrete simulator objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolvedChaos {
    /// Blackhole these links (both directions) while the window is open.
    Fault(Vec<LinkId>),
    /// Administratively down these links while the window is open.
    AdminDown(Vec<LinkId>),
    /// Extra flow arrivals (baked into the flow schedule at build time;
    /// the runner takes no action at the window edges).
    Surge,
}

/// The executable lowering of a generic-TCP scenario (also used by the
/// `churn` and `syn_flood` workloads — the runner dispatches on the
/// workload kind).
#[derive(Debug, Clone)]
pub struct TcpPlan {
    /// Source hosts, in `src =` order (flows round-robin across them).
    pub src_hosts: Vec<NodeId>,
    /// Destination host (announces the workload prefix).
    pub dst_host: NodeId,
    /// Resolved chaos actions, parallel to `Scenario::chaos`.
    pub actions: Vec<ResolvedChaos>,
    /// Bounce attack: the router pair and bounce count.
    pub bounce: Option<(NodeId, NodeId, u32)>,
    /// SYN-flood attacker host (`syn_flood` workload only).
    pub attacker: Option<NodeId>,
}

/// Which case-study builder the runner should drive.
#[derive(Debug, Clone)]
pub enum Plan {
    /// `BlinkScenario` (chaos = primary-link flaps).
    Blink,
    /// `PccScenario` (no chaos).
    Pcc,
    /// `pytheas_run` (no chaos).
    Pytheas,
    /// Generic TCP over a parametric topology.
    Tcp(TcpPlan),
}

/// A scenario lowered and ready to run.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The source scenario.
    pub scenario: Scenario,
    /// The expanded chaos schedule, start-sorted.
    pub windows: Vec<ChaosWindow>,
    /// The lowering.
    pub plan: Plan,
}

/// Build the parametric topology for a spec (generic-TCP kinds only).
///
/// Pure: the runner calls this again with the same spec and gets an
/// identical topology, so ids resolved at compile time stay valid.
pub fn build_topology(spec: &TopologySpec) -> Topology {
    match *spec {
        TopologySpec::Ring { nodes } => topologies::ring(nodes).0,
        TopologySpec::ChordedRing { nodes, chord } => topologies::chorded_ring(nodes, chord).0,
        TopologySpec::Linear { nodes } => topologies::linear(nodes).0,
        TopologySpec::FatTree { pods } => topologies::fat_tree(pods).0,
        TopologySpec::Bowtie { leaves } => topologies::bowtie(leaves).0,
        TopologySpec::Blink | TopologySpec::Pcc | TopologySpec::Pytheas => {
            unreachable!("fixed-topology kinds are not built here")
        }
    }
}

/// Lower a scenario, checking every cross-section constraint.
pub fn compile(sc: &Scenario) -> Result<Compiled, CompileError> {
    check_kinds(sc)?;
    let plan = match &sc.workload {
        WorkloadSpec::Blink { .. } => {
            for d in &sc.chaos {
                match &d.kind {
                    ChaosKind::LinkFlap { a, b, .. } if a == PRIMARY && b.is_empty() => {}
                    k => {
                        return Err(CompileError::ChaosUnsupported {
                            workload: sc.workload.kind(),
                            chaos: k.key(),
                        })
                    }
                }
            }
            Plan::Blink
        }
        WorkloadSpec::Pcc { .. } | WorkloadSpec::Pytheas { .. } => {
            if let Some(d) = sc.chaos.first() {
                return Err(CompileError::ChaosUnsupported {
                    workload: sc.workload.kind(),
                    chaos: d.kind.key(),
                });
            }
            if matches!(sc.workload, WorkloadSpec::Pcc { .. }) {
                Plan::Pcc
            } else {
                Plan::Pytheas
            }
        }
        WorkloadSpec::Tcp {
            src, dst, attack, ..
        } => {
            let topo = build_topology(&sc.topology);
            let mut src_hosts = Vec::new();
            for name in src {
                src_hosts.push(host(&topo, name)?);
                if name == dst {
                    return Err(CompileError::SrcIsDst { name: name.clone() });
                }
            }
            let dst_host = host(&topo, dst)?;
            let mut actions = Vec::new();
            for d in &sc.chaos {
                actions.push(resolve_chaos(&topo, &d.kind)?);
            }
            let bounce = match attack {
                Some(AttackSpec::Bounce { via, bounces }) => {
                    let a = router(&topo, &via.0)?;
                    let b = router(&topo, &via.1)?;
                    if topo.link_between(a, b).is_none() {
                        return Err(CompileError::NoSuchLink {
                            a: via.0.clone(),
                            b: via.1.clone(),
                        });
                    }
                    Some((a, b, *bounces))
                }
                None => None,
            };
            Plan::Tcp(TcpPlan {
                src_hosts,
                dst_host,
                actions,
                bounce,
                attacker: None,
            })
        }
        WorkloadSpec::Churn { src, dst, .. } => {
            // Streamed admission cannot absorb arrivals baked into a
            // materialized schedule, so load surges don't lower here.
            if let Some(d) = sc
                .chaos
                .iter()
                .find(|d| matches!(d.kind, ChaosKind::LoadSurge { .. }))
            {
                return Err(CompileError::ChaosUnsupported {
                    workload: sc.workload.kind(),
                    chaos: d.kind.key(),
                });
            }
            let topo = build_topology(&sc.topology);
            if src == dst {
                return Err(CompileError::SrcIsDst { name: src.clone() });
            }
            let src_hosts = vec![host(&topo, src)?];
            let dst_host = host(&topo, dst)?;
            let mut actions = Vec::new();
            for d in &sc.chaos {
                actions.push(resolve_chaos(&topo, &d.kind)?);
            }
            Plan::Tcp(TcpPlan {
                src_hosts,
                dst_host,
                actions,
                bounce: None,
                attacker: None,
            })
        }
        WorkloadSpec::SynFlood {
            src, dst, attacker, ..
        } => {
            let topo = build_topology(&sc.topology);
            let mut src_hosts = Vec::new();
            for name in src {
                src_hosts.push(host(&topo, name)?);
                if name == dst {
                    return Err(CompileError::SrcIsDst { name: name.clone() });
                }
            }
            if attacker == dst || src.contains(attacker) {
                return Err(CompileError::AttackerNotFree {
                    name: attacker.clone(),
                });
            }
            let dst_host = host(&topo, dst)?;
            let attacker_host = host(&topo, attacker)?;
            let mut actions = Vec::new();
            for d in &sc.chaos {
                actions.push(resolve_chaos(&topo, &d.kind)?);
            }
            Plan::Tcp(TcpPlan {
                src_hosts,
                dst_host,
                actions,
                bounce: None,
                attacker: Some(attacker_host),
            })
        }
    };
    let windows = expand(&sc.chaos, sc.chaos_seed.unwrap_or(sc.seed));
    check_expectations(sc)?;
    Ok(Compiled {
        scenario: sc.clone(),
        windows,
        plan,
    })
}

/// Topology/workload compatibility: a case-study topology runs its own
/// workload, a parametric one runs the tcp family.
fn check_kinds(sc: &Scenario) -> Result<(), CompileError> {
    let (topology, workload) = (sc.topology.kind(), sc.workload.kind());
    use TopologySpec::{Blink, Pcc, Pytheas};
    let parametric = !matches!(sc.topology, Blink | Pcc | Pytheas);
    if topology == workload || (parametric && TCP_FAMILY.contains(&workload)) {
        Ok(())
    } else {
        Err(CompileError::KindMismatch { topology, workload })
    }
}

fn node(topo: &Topology, name: &str) -> Result<NodeId, CompileError> {
    topo.node_by_name(name)
        .ok_or_else(|| CompileError::UnknownNode {
            name: name.to_string(),
        })
}

fn host(topo: &Topology, name: &str) -> Result<NodeId, CompileError> {
    let n = node(topo, name)?;
    if topo.node(n).kind != NodeKind::Host {
        return Err(CompileError::NotAHost {
            name: name.to_string(),
        });
    }
    Ok(n)
}

fn router(topo: &Topology, name: &str) -> Result<NodeId, CompileError> {
    let n = node(topo, name)?;
    if topo.node(n).kind != NodeKind::Router {
        return Err(CompileError::NotARouter {
            name: name.to_string(),
        });
    }
    Ok(n)
}

fn resolve_chaos(topo: &Topology, kind: &ChaosKind) -> Result<ResolvedChaos, CompileError> {
    match kind {
        ChaosKind::LinkFlap { a, b, .. } => {
            if b.is_empty() {
                // Only `link_flap = primary` parses endpoint-less.
                return Err(CompileError::PrimaryAlias);
            }
            let na = node(topo, a)?;
            let nb = node(topo, b)?;
            let l = topo
                .link_between(na, nb)
                .ok_or_else(|| CompileError::NoSuchLink {
                    a: a.clone(),
                    b: b.clone(),
                })?;
            Ok(ResolvedChaos::Fault(vec![l]))
        }
        ChaosKind::Partition { left, right, .. } => {
            // Side assignment: listed nodes first, then propagate to
            // unlisted degree-1 nodes (hosts) from their unique neighbor.
            let mut side: BTreeMap<usize, bool> = BTreeMap::new();
            for (names, is_left) in [(left, true), (right, false)] {
                for name in names {
                    let n = node(topo, name)?;
                    if side.insert(n.0, is_left) == Some(!is_left) {
                        return Err(CompileError::PartitionOverlap { name: name.clone() });
                    }
                }
            }
            loop {
                let mut changed = false;
                for i in 0..topo.node_count() {
                    if side.contains_key(&i) {
                        continue;
                    }
                    let nb = topo.neighbors(NodeId(i));
                    if nb.len() == 1 {
                        if let Some(&s) = side.get(&nb[0].0 .0) {
                            side.insert(i, s);
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            if let Some(i) = (0..topo.node_count()).find(|i| !side.contains_key(i)) {
                return Err(CompileError::PartitionUnassigned {
                    name: topo.node(NodeId(i)).name.clone(),
                });
            }
            let cut: Vec<LinkId> = topo
                .links()
                .iter()
                .enumerate()
                .filter(|(_, l)| side[&l.a.0] != side[&l.b.0])
                .map(|(i, _)| LinkId(i))
                .collect();
            if cut.is_empty() {
                return Err(CompileError::PartitionNoCut);
            }
            Ok(ResolvedChaos::Fault(cut))
        }
        ChaosKind::RouterChurn { node: name, .. } => {
            let n = router(topo, name)?;
            let links = topo.neighbors(n).iter().map(|&(_, l)| l).collect();
            Ok(ResolvedChaos::AdminDown(links))
        }
        ChaosKind::LoadSurge { .. } => Ok(ResolvedChaos::Surge),
    }
}

/// Which expectations each workload can answer: the `[expect]` rows of
/// [`crate::keys`] list the observing workloads.
fn check_expectations(sc: &Scenario) -> Result<(), CompileError> {
    let wk = sc.workload.kind();
    let any_fault = sc.chaos.iter().any(|d| d.kind.is_fault());
    for e in &sc.expect {
        let key = e.key();
        if key.case(Some(wk)).is_none() {
            return Err(CompileError::ExpectationUnsupported {
                workload: wk,
                expectation: key.name,
            });
        }
        match e {
            Expectation::RecoveryWithin(_) if !any_fault => {
                return Err(CompileError::RecoveryWithoutChaos)
            }
            Expectation::BlackoutDuringChaos if !any_fault => {
                return Err(CompileError::BlackoutWithoutChaos)
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_str;

    fn sc(text: &str) -> Scenario {
        parse_str("test.dsc", text).unwrap()
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let s = sc("[scenario]\nname = x\n[topology]\nkind = blink\n[workload]\nkind = pcc\n");
        assert_eq!(
            compile(&s).unwrap_err(),
            CompileError::KindMismatch {
                topology: "blink",
                workload: "pcc"
            }
        );
    }

    #[test]
    fn tcp_names_resolve_and_chaos_lowers() {
        let s = sc(
            "[scenario]\nname = x\n[topology]\nkind = linear\nnodes = 4\n\
                    [workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                    [chaos]\nlink_flap = r1-r2 at=10s down=5s\nrouter_churn = r2 at=30s down=2s\n",
        );
        let c = compile(&s).unwrap();
        assert_eq!(c.windows.len(), 2);
        match &c.plan {
            Plan::Tcp(p) => {
                assert_eq!(p.src_hosts.len(), 1);
                assert_eq!(p.actions.len(), 2);
                assert!(matches!(&p.actions[0], ResolvedChaos::Fault(ls) if ls.len() == 1));
                // r2 touches r1, r3, and its host h2.
                assert!(matches!(&p.actions[1], ResolvedChaos::AdminDown(ls) if ls.len() == 3));
            }
            _ => panic!("expected a tcp plan"),
        }
    }

    #[test]
    fn partition_propagates_to_hosts_and_finds_the_cut() {
        let s = sc("[scenario]\nname = x\n[topology]\nkind = ring\nnodes = 4\n\
                    [workload]\nkind = tcp\nsrc = h0\ndst = h2\n\
                    [chaos]\npartition = r0,r1 | r2,r3 at=10s down=5s\n");
        let c = compile(&s).unwrap();
        match &c.plan {
            // The ring r0-r1-r2-r3 is cut at r1-r2 and r3-r0.
            Plan::Tcp(p) => {
                assert!(matches!(&p.actions[0], ResolvedChaos::Fault(ls) if ls.len() == 2))
            }
            _ => panic!("expected a tcp plan"),
        }
    }

    #[test]
    fn unknown_chaos_target_is_a_semantic_error() {
        let s = sc("[scenario]\nname = x\n[topology]\nkind = ring\nnodes = 4\n\
                    [workload]\nkind = tcp\nsrc = h0\ndst = h2\n\
                    [chaos]\nlink_flap = r1-r9 at=10s down=5s\n");
        assert_eq!(
            compile(&s).unwrap_err(),
            CompileError::UnknownNode { name: "r9".into() }
        );
    }

    #[test]
    fn recovery_needs_a_fault_to_recover_from() {
        let s = sc(
            "[scenario]\nname = x\n[topology]\nkind = linear\nnodes = 3\n\
                    [workload]\nkind = tcp\nsrc = h0\ndst = h2\n\
                    [expect]\nrecovery_within = 5s\n",
        );
        assert_eq!(compile(&s).unwrap_err(), CompileError::RecoveryWithoutChaos);
    }

    #[test]
    fn pytheas_rejects_packet_expectations() {
        let s = sc("[scenario]\nname = x\n[topology]\nkind = pytheas\n\
                    [workload]\nkind = pytheas\n[expect]\ndelivered_min = 10\n");
        assert_eq!(
            compile(&s).unwrap_err(),
            CompileError::ExpectationUnsupported {
                workload: "pytheas",
                expectation: "delivered_min"
            }
        );
    }
}
