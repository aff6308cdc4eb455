//! Microbenchmarks, on the in-tree timer harness (`dui_bench::harness`
//! — no criterion, no registry access), of the primitives the `ledger/`
//! benchmark has no per-layer metric for: the Blink failure check, the
//! two models' mean takeover times, the PCC controller step, the Pytheas
//! bandit, the NetHide solver, the SP-PIFO and FlowRadar survey
//! structures, the histogram quantile, and the engine checkpoint codec
//! (the ledger's Blink scenarios are not restorable, so it never runs
//! there). Every other layer — wheel, arena, selector, theory envelope,
//! fastsim, telemetry, state hash, supervisord, flow pool — is timed by a
//! ledger metric, and only there (README "Performance").
//!
//! Run with `cargo bench -p dui-bench --bench microbench`; each line
//! reports per-iteration median / p95 / min. Pass `--quick` for a fast
//! smoke run.

use dui_bench::harness::{BenchConfig, Suite};
use dui_core::blink::selector::{BlinkParams, FlowSelector};
use dui_core::blink::theory::{AttackModel, FixedKeysModel};
use dui_core::nethide::obfuscate::{obfuscate, ObfuscationConfig};
use dui_core::netsim::packet::{Addr, FlowKey};
use dui_core::netsim::time::SimTime;
use dui_core::netsim::topology::Routing;
use dui_core::pcc::control::{ControlConfig, Controller};
use dui_core::pytheas::e2::DiscountedUcb;
use dui_core::scenario::topologies;
use dui_core::stats::Rng;

fn tcp_keys(n: u16, dport: u16) -> Vec<FlowKey> {
    (0..n)
        .map(|i| {
            FlowKey::tcp(
                Addr::new(198, 18, (i >> 8) as u8, i as u8),
                i,
                Addr::new(10, 0, 0, 1),
                dport,
            )
        })
        .collect()
}

fn bench_flow_selector(s: &mut Suite) {
    let mut sel = FlowSelector::new(BlinkParams::default());
    for (i, k) in tcp_keys(1024, 80).iter().enumerate() {
        sel.on_packet(SimTime(i as u64), *k, 1, false);
    }
    s.bench("blink_selector_failure_check", move || {
        sel.retransmitting_flows(SimTime(2_000_000))
    });
}

fn bench_theory(s: &mut Suite) {
    // The closed form folds to a constant unless its model is opaque.
    let m = AttackModel::fig2();
    s.bench("iid_model_mean_takeover", move || {
        std::hint::black_box(&m).mean_takeover_time()
    });
    let fm = FixedKeysModel::fig2();
    s.bench("fixed_keys_mean_takeover", move || fm.mean_takeover_time());
}

fn bench_pcc_controller(s: &mut Suite) {
    let mut ctl = Controller::new(ControlConfig::default(), 1e6, 1);
    let mut u = 0.0f64;
    s.bench("pcc_controller_mi_cycle", move || {
        let r = ctl.next_mi_rate();
        u = (u + 1.0) % 7.0;
        ctl.on_report(u);
        r
    });
}

fn bench_pytheas_ucb(s: &mut Suite) {
    let mut ucb = DiscountedUcb::new(8, 0.995, 0.3);
    let mut rng = Rng::new(1);
    s.bench("ucb_pick_update_8arms", move || {
        let a = ucb.pick(&mut rng);
        ucb.update(a, 0.5);
        a
    });
}

fn bench_nethide_solver(s: &mut Suite) {
    let (topo, flows, core) = topologies::bowtie(6);
    let routing = Routing::shortest_paths(&topo);
    let c1 = topo.node(core.0).addr;
    let c2 = topo.node(core.1).addr;
    s.bench("nethide_solver_bowtie6", move || {
        obfuscate(
            &topo,
            &routing,
            &flows,
            &ObfuscationConfig {
                max_density: 3,
                ..Default::default()
            },
            &[(c1, c2)],
        )
    });
}

fn bench_survey(s: &mut Suite) {
    use dui_core::survey::flowradar::FlowRadar;
    use dui_core::survey::sp_pifo::SpPifo;
    {
        let mut sp = SpPifo::new(8, 1024);
        let mut r = 0u64;
        s.bench("sp_pifo_enqueue_dequeue", move || {
            r = (r.wrapping_mul(6364136223846793005).wrapping_add(1)) >> 40;
            sp.enqueue(r);
            sp.dequeue()
        });
    }
    {
        let mut fr = FlowRadar::new(65_536, 4096, 3, 7);
        let keys = tcp_keys(4096, 443);
        let mut i = 0usize;
        s.bench("flowradar_on_packet", move || {
            i = (i + 1) % keys.len();
            fr.on_packet(&keys[i])
        });
    }
    {
        let mut fr = FlowRadar::new(65_536, 4096, 3, 7);
        for k in tcp_keys(1000, 443) {
            fr.on_packet(&k);
        }
        s.bench("flowradar_decode_1k_flows", move || fr.decode());
    }
}

fn bench_histogram(s: &mut Suite) {
    let mut h = dui_core::telemetry::LogHistogram::default();
    for i in 0..100_000u64 {
        h.record(i.wrapping_mul(2654435761) % 1_000_000);
    }
    s.bench("histogram_quantile_p99", move || h.quantile(0.99));
}

fn bench_checkpoint_codec(s: &mut Suite) {
    use dui_core::netsim::prelude::*;

    // A loaded engine: two links, a router, 256 in-flight UDP packets —
    // what a mid-run checkpoint of a packet-level experiment looks like.
    fn loaded_engine() -> Simulator {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let r = b.router("r");
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        b.link(h1, r, Bandwidth::mbps(100), SimDuration::from_millis(1), 64);
        b.link(r, h2, Bandwidth::mbps(100), SimDuration::from_millis(1), 64);
        let mut sim = Simulator::new(b.build(), 7);
        sim.set_logic(r, Box::new(RouterLogic::new()));
        sim.set_logic(h2, Box::new(SinkHost::new()));
        for i in 0..256u16 {
            let k = FlowKey::udp(Addr::new(10, 0, 0, 1), 2000 + i, Addr::new(10, 0, 0, 2), 80);
            sim.inject(h1, Packet::udp(k, 300));
        }
        sim.run_until(SimTime::from_secs_f64(0.005));
        sim
    }
    {
        let sim = loaded_engine();
        s.bench("engine_checkpoint_encode", move || {
            sim.checkpoint().expect("restorable engine")
        });
    }
    {
        let bytes = loaded_engine().checkpoint().expect("restorable engine");
        let mut sim = loaded_engine();
        s.bench("engine_checkpoint_decode", move || {
            sim.restore(&bytes).expect("restores")
        });
    }
}

fn main() {
    // `cargo bench` forwards unknown flags here; honour --quick and
    // ignore libtest-style arguments like --bench.
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        BenchConfig {
            warmup_ms: 5,
            samples: 7,
            min_batch_us: 200,
        }
    } else {
        BenchConfig::default()
    };
    println!(
        "microbench (in-tree harness): {} samples, {} ms warmup, ≥{} µs batches\n",
        cfg.samples, cfg.warmup_ms, cfg.min_batch_us
    );
    let mut s = Suite::new(cfg);
    bench_flow_selector(&mut s);
    bench_theory(&mut s);
    bench_pcc_controller(&mut s);
    bench_pytheas_ucb(&mut s);
    bench_nethide_solver(&mut s);
    bench_survey(&mut s);
    bench_histogram(&mut s);
    bench_checkpoint_codec(&mut s);
    println!("\n{} benchmarks done.", s.results().len());
}
