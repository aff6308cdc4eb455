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
    // The chaos each workload lowers: blink only flaps its primary, pcc
    // and pytheas take none, and churn's streamed admission cannot absorb
    // arrivals baked into a materialized schedule (load surges).
    let lowers = |k: &ChaosKind| match &sc.workload {
        WorkloadSpec::Blink { .. } => {
            matches!(k, ChaosKind::LinkFlap { a, b, .. } if a == PRIMARY && b.is_empty())
        }
        WorkloadSpec::Pcc { .. } | WorkloadSpec::Pytheas { .. } => false,
        WorkloadSpec::Churn { .. } => !matches!(k, ChaosKind::LoadSurge { .. }),
        WorkloadSpec::Tcp { .. } | WorkloadSpec::SynFlood { .. } => true,
    };
    if let Some(d) = sc.chaos.iter().find(|d| !lowers(&d.kind)) {
        return Err(CompileError::ChaosUnsupported {
            workload: sc.workload.kind(),
            chaos: d.kind.key(),
        });
    }
    let plan = match &sc.workload {
        WorkloadSpec::Blink { .. } => Plan::Blink,
        WorkloadSpec::Pcc { .. } => Plan::Pcc,
        WorkloadSpec::Pytheas { .. } => Plan::Pytheas,
        WorkloadSpec::Tcp { .. } | WorkloadSpec::Churn { .. } | WorkloadSpec::SynFlood { .. } => {
            Plan::Tcp(tcp_plan(sc)?)
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

/// Lower a tcp-family workload: its sources, destination, chaos
/// targets, then its kind's extra (tcp's bounce pair, syn_flood's
/// attacker), each checked in the order the kind always checked them.
fn tcp_plan(sc: &Scenario) -> Result<TcpPlan, CompileError> {
    let Some(w) = sc.workload.tcp_family() else {
        unreachable!("tcp_plan lowers a tcp-family workload")
    };
    let churn = matches!(sc.workload, WorkloadSpec::Churn { .. });
    let topo = build_topology(&sc.topology);
    let mut src_hosts = Vec::new();
    for name in &w.src {
        // Churn compares its one source with `dst` before resolving it;
        // tcp and syn_flood resolve it first.
        if !churn {
            host(&topo, name)?;
        }
        if *name == w.dst {
            return Err(CompileError::SrcIsDst { name: name.clone() });
        }
        src_hosts.push(host(&topo, name)?);
    }
    let attacker = match &sc.workload {
        WorkloadSpec::SynFlood { attacker, .. } => Some(attacker),
        _ => None,
    };
    if let Some(name) = attacker.filter(|a| **a == w.dst || w.src.contains(a)) {
        return Err(CompileError::AttackerNotFree { name: name.clone() });
    }
    let dst_host = host(&topo, &w.dst)?;
    let attacker = attacker.map(|name| host(&topo, name)).transpose()?;
    let actions = (sc.chaos.iter())
        .map(|d| resolve_chaos(&topo, &d.kind))
        .collect::<Result<_, _>>()?;
    let bounce = match &sc.workload {
        WorkloadSpec::Tcp {
            attack: Some(AttackSpec::Bounce { via, bounces }),
            ..
        } => {
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
        _ => None,
    };
    Ok(TcpPlan {
        src_hosts,
        dst_host,
        actions,
        bounce,
        attacker,
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
            // Never empty: parse refuses an empty side and every
            // parametric topology is connected.
            let cut = topo
                .links()
                .iter()
                .enumerate()
                .filter(|(_, l)| side[&l.a.0] != side[&l.b.0])
                .map(|(i, _)| LinkId(i))
                .collect();
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

    /// The message `compile` gives for `[workload]` and later sections
    /// over a four-router line (`h0-r0-r1-r2-r3-h3`, `hi` on `ri`).
    fn linear_error(rest: &str) -> String {
        let text = format!("[scenario]\nname = x\n[topology]\nkind = linear\nnodes = 4\n{rest}");
        compile(&sc(&text)).unwrap_err().to_string()
    }

    /// Every `CompileError` variant, each with its exact message, and
    /// the order in which each workload kind runs its checks (where two
    /// checks could both fire, the case names the one that wins).
    #[test]
    fn every_semantic_error_has_its_message() {
        let blink = |rest: &str| {
            let text = format!("[scenario]\nname = x\n[topology]\nkind = blink\n{rest}");
            compile(&sc(&text)).unwrap_err().to_string()
        };
        let cases = [
            (
                "kind mismatch",
                blink("[workload]\nkind = pcc\n"),
                "workload 'pcc' cannot run on topology 'blink'",
            ),
            (
                "unknown source",
                linear_error("[workload]\nkind = tcp\nsrc = h9\ndst = h3\n"),
                "no node named 'h9'",
            ),
            (
                "router as source",
                linear_error("[workload]\nkind = tcp\nsrc = r0\ndst = h3\n"),
                "'r0' is not a host",
            ),
            (
                "router as destination",
                linear_error("[workload]\nkind = churn\nsrc = h0\ndst = r3\n"),
                "'r3' is not a host",
            ),
            (
                "host as churned router",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     [chaos]\nrouter_churn = h1 at=10s down=1s\n",
                ),
                "'h1' is not a router",
            ),
            (
                "host as bounce router",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     attack = bounce via=h1-r1 bounces=2\n",
                ),
                "'h1' is not a router",
            ),
            (
                "flap of no link",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     [chaos]\nlink_flap = r0-r2 at=10s down=5s\n",
                ),
                "no link between 'r0' and 'r2'",
            ),
            (
                "bounce over no link",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     attack = bounce via=r0-r2 bounces=2\n",
                ),
                "no link between 'r0' and 'r2'",
            ),
            (
                "partition leaves r1 out",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     [chaos]\npartition = r0 | r3 at=10s down=5s\n",
                ),
                "partition leaves 'r1' on neither side",
            ),
            (
                "partition lists r1 twice",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     [chaos]\npartition = r0,r1 | r1,r2,r3 at=10s down=5s\n",
                ),
                "partition lists 'r1' on both sides",
            ),
            (
                "blink flap off the primary",
                blink("[workload]\nkind = blink\n[chaos]\nlink_flap = ingress-backup at=10s down=5s\n"),
                "chaos 'link_flap' is not supported on workload 'blink'",
            ),
            (
                "pcc with chaos",
                compile(&sc("[scenario]\nname = x\n[topology]\nkind = pcc\n\
                             [workload]\nkind = pcc\n\
                             [chaos]\nlink_flap = primary at=10s down=5s\n"))
                .unwrap_err()
                .to_string(),
                "chaos 'link_flap' is not supported on workload 'pcc'",
            ),
            (
                "churn with a load surge",
                linear_error(
                    "[workload]\nkind = churn\nsrc = h0\ndst = h3\n\
                     [chaos]\nload_surge = at=20s flows=8 duration=5s\n",
                ),
                "chaos 'load_surge' is not supported on workload 'churn'",
            ),
            (
                "primary off blink",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     [chaos]\nlink_flap = primary at=10s down=5s\n",
                ),
                "link_flap target 'primary' is only valid on the blink workload",
            ),
            (
                "unobservable expectation",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     [expect]\nfinal_on_primary = true\n",
                ),
                "expectation 'final_on_primary' is not observable on workload 'tcp'",
            ),
            (
                "recovery without a fault",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     [expect]\nrecovery_within = 5s\n",
                ),
                "recovery_within requires at least one link-cutting chaos declaration",
            ),
            (
                "blackout without a fault",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     [expect]\nblackout_during_chaos = true\n",
                ),
                "blackout_during_chaos requires at least one link-cutting chaos declaration",
            ),
            (
                "tcp source is the destination",
                linear_error("[workload]\nkind = tcp\nsrc = h0,h3\ndst = h3\n"),
                "'h3' is both a source and the destination",
            ),
            (
                "churn source is the destination",
                linear_error("[workload]\nkind = churn\nsrc = h3\ndst = h3\n"),
                "'h3' is both a source and the destination",
            ),
            (
                "syn_flood source is the destination",
                linear_error("[workload]\nkind = syn_flood\nsrc = h3\ndst = h3\nattacker = h1\n"),
                "'h3' is both a source and the destination",
            ),
            (
                "attacker is a source",
                linear_error("[workload]\nkind = syn_flood\nsrc = h0\ndst = h3\nattacker = h0\n"),
                "attacker host 'h0' is also a workload endpoint",
            ),
            (
                "attacker is the destination",
                linear_error("[workload]\nkind = syn_flood\nsrc = h0\ndst = h3\nattacker = h3\n"),
                "attacker host 'h3' is also a workload endpoint",
            ),
            // Check order, kind by kind.
            (
                "churn compares its source with dst before resolving it",
                linear_error("[workload]\nkind = churn\nsrc = h9\ndst = h9\n"),
                "'h9' is both a source and the destination",
            ),
            (
                "churn refuses a surge before anything else",
                linear_error(
                    "[workload]\nkind = churn\nsrc = h9\ndst = h9\n\
                     [chaos]\nload_surge = at=20s flows=8 duration=5s\n",
                ),
                "chaos 'load_surge' is not supported on workload 'churn'",
            ),
            (
                "tcp resolves each source before comparing it",
                linear_error("[workload]\nkind = tcp\nsrc = h9\ndst = h9\n"),
                "no node named 'h9'",
            ),
            (
                "tcp compares a source before resolving the next",
                linear_error("[workload]\nkind = tcp\nsrc = h3,h9\ndst = h3\n"),
                "'h3' is both a source and the destination",
            ),
            (
                "syn_flood resolves each source before comparing it",
                linear_error("[workload]\nkind = syn_flood\nsrc = h9\ndst = h9\nattacker = h1\n"),
                "no node named 'h9'",
            ),
            (
                "syn_flood checks its attacker before resolving dst",
                linear_error("[workload]\nkind = syn_flood\nsrc = h0\ndst = h9\nattacker = h9\n"),
                "attacker host 'h9' is also a workload endpoint",
            ),
            (
                "syn_flood resolves dst before the attacker",
                linear_error("[workload]\nkind = syn_flood\nsrc = h0\ndst = h8\nattacker = h9\n"),
                "no node named 'h8'",
            ),
            (
                "syn_flood resolves the attacker before the chaos",
                linear_error(
                    "[workload]\nkind = syn_flood\nsrc = h0\ndst = h3\nattacker = h9\n\
                     [chaos]\nlink_flap = r0-r8 at=10s down=5s\n",
                ),
                "no node named 'h9'",
            ),
            (
                "dst before the chaos",
                linear_error(
                    "[workload]\nkind = churn\nsrc = h0\ndst = h9\n\
                     [chaos]\nlink_flap = r0-r8 at=10s down=5s\n",
                ),
                "no node named 'h9'",
            ),
            (
                "chaos before the bounce pair",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     attack = bounce via=r0-r2 bounces=2\n\
                     [chaos]\nlink_flap = r0-r8 at=10s down=5s\n",
                ),
                "no node named 'r8'",
            ),
            (
                "chaos before the expectations",
                linear_error(
                    "[workload]\nkind = tcp\nsrc = h0\ndst = h3\n\
                     [chaos]\nlink_flap = primary at=10s down=5s\n\
                     [expect]\nfinal_on_primary = true\n",
                ),
                "link_flap target 'primary' is only valid on the blink workload",
            ),
        ];
        for (case, got, want) in cases {
            assert_eq!(got, want, "{case}");
        }
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
