//! Cross-crate integration: the §4.3 case study — traceroute over netsim
//! against honest routers, NetHide-obfuscated routers, and a lying
//! operator; plus the obfuscation trade-off sweep.

use dui::nethide::metrics::{max_flow_density, path_accuracy};
use dui::nethide::obfuscate::{obfuscate, ObfuscationConfig, VirtualTopology};
use dui::nethide::rewriter::VirtualTopologyRewriter;
use dui::nethide::traceroute::{physical_path_addrs, TracerouteProber};
use dui::netsim::node::{IcmpRewriter, RouterLogic, SinkHost};
use dui::netsim::packet::Addr;
use dui::netsim::prelude::Simulator;
use dui::netsim::time::SimTime;
use dui::netsim::topology::{NodeKind, Routing, Topology};
use dui::scenario::topologies;
use std::sync::Arc;

fn traceroute_under(
    topo: &Topology,
    src: dui::netsim::topology::NodeId,
    dst_addr: Addr,
    vt: Option<Arc<VirtualTopology>>,
) -> Vec<Option<Addr>> {
    let mut sim = Simulator::new(topo.clone(), 1);
    for n in topo.nodes_of_kind(NodeKind::Router) {
        let mut logic = RouterLogic::new();
        if let Some(vt) = &vt {
            logic = logic.with_icmp_rewriter(Box::new(VirtualTopologyRewriter::new(
                vt.clone(),
                topo.node(n).addr,
            )) as Box<dyn IcmpRewriter>);
        }
        sim.set_logic(n, Box::new(logic));
    }
    for n in topo.nodes_of_kind(NodeKind::Host) {
        if n != src {
            sim.set_logic(n, Box::new(SinkHost::new()));
        }
    }
    sim.set_logic(src, Box::new(TracerouteProber::new(dst_addr, 16)));
    sim.run_until(SimTime::from_secs(30));
    let p: &mut TracerouteProber = sim.logic_mut(src);
    p.result.hops.clone()
}

#[test]
fn obfuscated_traceroute_matches_solver_output_exactly() {
    let (topo, flows, core) = topologies::bowtie(4);
    let routing = Routing::shortest_paths(&topo);
    let c1 = topo.node(core.0).addr;
    let c2 = topo.node(core.1).addr;
    let (vt, report) = obfuscate(
        &topo,
        &routing,
        &flows,
        &ObfuscationConfig {
            max_density: 2,
            ..Default::default()
        },
        &[(c1, c2)],
    )
    .unwrap();
    assert!(report.within_budget);
    let vt = Arc::new(vt);
    for &(src, dst) in &flows {
        let src_addr = topo.node(src).addr;
        let dst_addr = topo.node(dst).addr;
        let expected = vt.path(src_addr, dst_addr).unwrap().to_vec();
        let hops = traceroute_under(&topo, src, dst_addr, Some(vt.clone()));
        // The final hop is answered by the destination itself (truthful);
        // all prior hops must follow the virtual path.
        let observed: Vec<Addr> = hops.iter().map(|h| h.expect("answered")).collect();
        assert_eq!(
            &observed[..observed.len() - 1],
            &expected[..expected.len() - 1],
            "traceroute must see the virtual path for {src_addr}->{dst_addr}"
        );
        assert_eq!(*observed.last().unwrap(), dst_addr);
    }
}

#[test]
fn security_budget_trades_against_accuracy() {
    let (topo, hosts) = topologies::chorded_ring(8, 3);
    let routing = Routing::shortest_paths(&topo);
    // All-pairs flows between distinct hosts (ordered pairs i<j).
    let mut flows = Vec::new();
    for i in 0..hosts.len() {
        for j in (i + 1)..hosts.len() {
            flows.push((hosts[i], hosts[j]));
        }
    }
    let mut last_accuracy = 1.1;
    let mut accuracies = Vec::new();
    for budget in [usize::MAX, 8, 5, 3] {
        let (_vt, report) = obfuscate(
            &topo,
            &routing,
            &flows,
            &ObfuscationConfig {
                max_density: budget,
                max_extra_hops: 3,
            },
            &[], // protect everything
        )
        .unwrap();
        assert!(
            report.accuracy <= last_accuracy + 1e-9,
            "tighter budgets cannot increase accuracy"
        );
        last_accuracy = report.accuracy;
        accuracies.push((budget, report.accuracy, report.achieved_max_density));
    }
    // The tightest budget must have forced real lying.
    let (_, tight_acc, _) = accuracies.last().unwrap();
    assert!(*tight_acc < 1.0, "budget 3 should require detours");
}

#[test]
fn honest_traceroute_reports_physical_truth_on_ring() {
    let (topo, hosts) = topologies::ring(6);
    let routing = Routing::shortest_paths(&topo);
    let (src, dst) = (hosts[0], hosts[3]);
    let dst_addr = topo.node(dst).addr;
    let expected = physical_path_addrs(&topo, &routing, src, dst).unwrap();
    let hops = traceroute_under(&topo, src, dst_addr, None);
    let observed: Vec<Addr> = hops.iter().map(|h| h.unwrap()).collect();
    assert_eq!(observed, expected);
}

#[test]
fn fiction_can_hide_a_hot_link_entirely() {
    // The malicious-operator reading of §4.3: the virtual topology can
    // erase the core link from every observed path.
    let (topo, flows, core) = topologies::bowtie(4);
    let routing = Routing::shortest_paths(&topo);
    let c1 = topo.node(core.0).addr;
    let c2 = topo.node(core.1).addr;
    let m_addr = topo.node(topo.node_by_name("m").unwrap()).addr;
    // Build a fiction: every flow claims to go via m (the detour), never
    // via the direct c1-c2 edge.
    let mut vt = VirtualTopology::default();
    let mut shown_paths = Vec::new();
    for &(s, d) in &flows {
        let phys = physical_path_addrs(&topo, &routing, s, d).unwrap();
        let fake: Vec<Addr> = phys
            .iter()
            .flat_map(|&h| if h == c2 { vec![m_addr, c2] } else { vec![h] })
            .collect();
        shown_paths.push(fake.clone());
        vt.set_path(topo.node(s).addr, topo.node(d).addr, fake);
    }
    // No shown path contains the c1-c2 edge.
    let density = max_flow_density(&shown_paths);
    let has_core = shown_paths.iter().any(|p| {
        p.windows(2)
            .any(|w| (w[0] == c1 && w[1] == c2) || (w[0] == c2 && w[1] == c1))
    });
    assert!(!has_core, "core link hidden from every observed path");
    assert!(density > 0);
    // And accuracy vs physical stays decent (one inserted hop).
    for (&(s, d), fake) in flows.iter().zip(&shown_paths) {
        let phys = physical_path_addrs(&topo, &routing, s, d).unwrap();
        assert!(path_accuracy(&phys, fake) >= 0.5);
    }
}
