//! Chaos test: random topologies + random traffic + random impairments,
//! asserting the simulator's packet-conservation law — every packet
//! offered to a link direction is delivered, dropped for a counted
//! reason, or still sitting in that link when time stops. (Runs under
//! the in-tree `propcheck` engine.)

use dui::netsim::link::LinkDirStats;
use dui::netsim::prelude::*;
use dui::stats::Rng;
use dui_stats::{prop_assert, prop_assert_eq, prop_check};

fn conservation_holds(stats: &LinkDirStats) -> bool {
    // in-flight/queued remainder is implied: offered >= the accounted sum,
    // and the gap is bounded by the queue capacity + 1.
    let accounted = stats.delivered + stats.dropped_queue + stats.dropped_tap + stats.dropped_fault;
    stats.offered >= accounted
}

prop_check! {
    cases = 24;
    fn random_network_conserves_packets(g) {
        let seed = g.any_u64();
        let n_routers = g.usize(2..6);
        let n_pkts = g.usize(1..300);
        let drop_pct = g.u8(0..40);
        // Ring of routers, two hosts attached at random points.
        let mut rng = Rng::new(seed);
        let mut b = TopologyBuilder::new();
        let routers: Vec<NodeId> = (0..n_routers).map(|i| b.router(&format!("r{i}"))).collect();
        for i in 0..n_routers {
            b.link(
                routers[i],
                routers[(i + 1) % n_routers],
                Bandwidth::mbps(1 + rng.below(100)),
                SimDuration::from_micros(100 + rng.below(5000)),
                (1 + rng.below(32)) as usize,
            );
        }
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        b.link(h1, routers[0], Bandwidth::mbps(100), SimDuration::from_micros(500), 16);
        b.link(
            h2,
            routers[rng.below_usize(n_routers)],
            Bandwidth::mbps(100),
            SimDuration::from_micros(500),
            16,
        );
        let topo = b.build();
        let n_links = topo.link_count();
        let mut sim = Simulator::new(topo, seed);
        for &r in &routers {
            sim.set_logic(r, Box::new(RouterLogic::new()));
        }
        sim.set_logic(h2, Box::new(SinkHost::new()));
        // Random impairment on a random link.
        let victim = LinkId(rng.below_usize(n_links));
        sim.set_fault(
            victim,
            Dir::AtoB,
            FaultConfig {
                drop_prob: drop_pct as f64 / 100.0,
                jitter_max: Some(SimDuration::from_millis(rng.below(10))),
            },
        );
        // Random traffic, mixed sizes, staggered in time.
        for i in 0..n_pkts {
            sim.run_until(SimTime::ZERO + SimDuration::from_micros(i as u64 * 200));
            let key = FlowKey::udp(
                Addr::new(10, 0, 0, 1),
                (1024 + rng.below(1000)) as u16,
                Addr::new(10, 0, 0, 2),
                80,
            );
            sim.inject(h1, Packet::udp(key, 10 + rng.below(1400) as u32));
        }
        sim.run_until(SimTime::from_secs(30));
        for l in 0..n_links {
            for dir in [Dir::AtoB, Dir::BtoA] {
                let s = sim.link_stats(LinkId(l), dir);
                prop_assert!(
                    conservation_holds(&s),
                    "link {l} {dir:?}: {s:?}"
                );
                // After a long quiescence the gap must be fully drained:
                // nothing is in flight, so the accounting is exact.
                let accounted =
                    s.delivered + s.dropped_queue + s.dropped_tap + s.dropped_fault;
                prop_assert_eq!(
                    s.offered, accounted,
                    "drained link must account exactly: link {} {:?} {:?}", l, dir, s
                );
            }
        }
        // Global: every injected packet was delivered to the sink or
        // dropped for a counted reason along the way.
        let c = sim.counters();
        let sink: &mut SinkHost = sim.logic_mut(h2);
        prop_assert_eq!(
            sink.total_packets + c.dropped_queue + c.dropped_fault + c.dropped_no_route,
            n_pkts as u64,
            "global conservation: {:?}", c
        );
    }
}
