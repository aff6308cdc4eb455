//! Microbenchmarks of the performance-sensitive primitives on the
//! in-tree timer harness (`dui_bench::harness` — no criterion, no
//! registry access): the Blink flow selector (must run at line rate in
//! a real data plane), the event queue, the attack theory's binomial
//! math, the PCC controller step, the Pytheas bandit, the NetHide
//! solver, and the supervisord hot path — delta encode, signal
//! evaluation, the SPSC handoff and the pipeline end to end.
//!
//! Run with `cargo bench -p dui-bench`; each line reports per-iteration
//! median / p95 / min. Pass `--quick` for a fast smoke run.

use dui_bench::harness::{BenchConfig, Suite};
use dui_core::blink::fastsim::{AttackSim, AttackSimConfig};
use dui_core::blink::selector::{BlinkParams, FlowSelector};
use dui_core::blink::theory::{AttackModel, FixedKeysModel};
use dui_core::nethide::obfuscate::{obfuscate, ObfuscationConfig};
use dui_core::netsim::event::{Event, EventQueue};
use dui_core::netsim::packet::{Addr, FlowKey};
use dui_core::netsim::time::{SimDuration, SimTime};
use dui_core::netsim::topology::{NodeId, Routing};
use dui_core::pcc::control::{ControlConfig, Controller};
use dui_core::pytheas::e2::DiscountedUcb;
use dui_core::scenario::topologies;
use dui_core::stats::{Binomial, Rng};

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
    let keys = tcp_keys(1024, 80);
    {
        let mut sel = FlowSelector::new(BlinkParams::default());
        let mut t = 0u64;
        let mut i = 0usize;
        s.bench("blink_selector_on_packet", move || {
            t += 1_000_000; // 1 ms
            i = (i + 1) % 1024;
            sel.on_packet(SimTime(t), keys[i], t as u32, false)
        });
    }
    {
        let mut sel = FlowSelector::new(BlinkParams::default());
        for (i, k) in tcp_keys(1024, 80).iter().enumerate() {
            sel.on_packet(SimTime(i as u64), *k, 1, false);
        }
        s.bench("blink_selector_failure_check", move || {
            sel.retransmitting_flows(SimTime(2_000_000))
        });
    }
    {
        // `blink_selector_on_packet` never lets a flow idle out. Here
        // every 187th packet retires a random key for a fresh 5-tuple;
        // one in 16 of those holds a cell, which idles out 2 s later and
        // is resampled — an eviction per ≈ 3,000 packets, the rate of a
        // Fig. 2 replicate.
        let mut keys = tcp_keys(1024, 80);
        let mut sel = FlowSelector::new(BlinkParams::default());
        let mut rng = Rng::new(1);
        let mut n = 0u64;
        s.bench("blink_selector_churn", move || {
            n += 1;
            if n.is_multiple_of(187) {
                let retired = &mut keys[rng.below_usize(1024)];
                retired.src = Addr(retired.src.0.wrapping_add(0x1_0000));
            }
            let key = keys[(n % 1024) as usize];
            sel.on_packet(SimTime(n * 1_000_000), key, n as u32, false)
        });
    }
}

fn bench_event_queue(s: &mut Suite) {
    let mut q = EventQueue::new();
    let mut t = 0u64;
    s.bench("event_queue_schedule_pop", move || {
        t += 17;
        q.schedule(
            SimTime(t % 1_000_000),
            Event::Timer {
                node: NodeId(0),
                token: t,
            },
        );
        q.pop()
    });
}

/// The binary-heap event queue the wheel replaced — `(time, seq)` order,
/// monotone `seq` — kept here to race it (the test-side twin lives in
/// `crates/netsim/tests/properties.rs`).
struct BaselineHeapQueue<T> {
    heap: std::collections::BinaryHeap<HeapEntry<T>>,
    next_seq: u64,
}

/// Min-first by `(time, seq)`; the payload takes no part in the order.
struct HeapEntry<T>(u64, u64, T);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0, self.1) == (other.0, other.1)
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.0, other.1).cmp(&(self.0, self.1))
    }
}

impl<T> BaselineHeapQueue<T> {
    fn new() -> Self {
        BaselineHeapQueue {
            heap: std::collections::BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, time: u64, value: T) {
        self.heap.push(HeapEntry(time, self.next_seq, value));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|HeapEntry(t, _, v)| (t, v))
    }
}

/// The packet engine's schedule distances on the C4 run (`blink_packet`):
/// 46 % serialization completions 12 µs out, 46 % deliveries one link
/// delay (2, 5 or 8 ms) out, 8 % TCP wakes 250 ms out.
fn engine_mix_distance(rng: &mut Rng) -> u64 {
    match rng.below(50) {
        0..=22 => 12_000,
        d @ 23..=45 => [2_000_000, 5_000_000, 8_000_000][d as usize % 3],
        _ => 250_000_000,
    }
}

fn bench_queue_impls(s: &mut Suite) {
    use dui_core::netsim::arena::PacketArena;
    use dui_core::netsim::packet::Packet;
    use dui_core::netsim::wheel::TimerWheel;

    // The engine's own mix: ~4.5k pending, each pop schedules one
    // successor at a C4 distance, so entries cross levels and cascade the
    // way they do under the simulator — which the uniform-within-1-ms
    // dense pair below never does.
    const ENGINE_PENDING: u64 = 4_500;
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut rng = Rng::new(4);
    for i in 0..ENGINE_PENDING {
        wheel.schedule(engine_mix_distance(&mut rng), i);
    }
    s.bench("event_queue_engine_mix_wheel", move || {
        let (now, v) = wheel.pop().expect("population is constant");
        wheel.schedule(now + engine_mix_distance(&mut rng), v);
        now
    });
    let mut heap: BaselineHeapQueue<u64> = BaselineHeapQueue::new();
    let mut rng = Rng::new(4);
    for i in 0..ENGINE_PENDING {
        heap.schedule(engine_mix_distance(&mut rng), i);
    }
    s.bench("event_queue_engine_mix_heap", move || {
        let (now, v) = heap.pop().expect("population is constant");
        heap.schedule(now + engine_mix_distance(&mut rng), v);
        now
    });

    // Dense-timer steady state: 4096 pending timers, one schedule + one
    // pop per iteration. The heap pays O(log n) sifts per operation; the
    // wheel pays O(1) slot pushes plus amortized cascades. This pair is
    // the before/after of the event-queue refactor.
    const DENSE: u64 = 4096;
    let mut heap: BaselineHeapQueue<u64> = BaselineHeapQueue::new();
    let mut t = 0u64;
    for i in 0..DENSE {
        heap.schedule((i * 251) % 1_000_000, i);
    }
    s.bench("event_queue_dense_heap_baseline", move || {
        t += 17;
        heap.schedule(t % 1_000_000, t);
        heap.pop()
    });
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut t = 0u64;
    for i in 0..DENSE {
        wheel.schedule((i * 251) % 1_000_000, i);
    }
    s.bench("event_queue_dense_timer_wheel", move || {
        t += 17;
        wheel.schedule(t % 1_000_000, t);
        wheel.pop()
    });

    // Packet transport: move the ~88-byte body through the pending queue
    // (pre-arena behavior) vs. park it in the slab once and move an
    // 8-byte handle.
    fn bench_pkt() -> Packet {
        Packet::udp(
            FlowKey::udp(Addr::new(198, 18, 0, 1), 5000, Addr::new(10, 0, 0, 1), 80),
            1000,
        )
    }
    const PENDING: u64 = 1024;
    let mut q: BaselineHeapQueue<Packet> = BaselineHeapQueue::new();
    let mut t = 0u64;
    for i in 0..PENDING {
        q.schedule((i * 251) % 1_000_000, bench_pkt());
    }
    s.bench("packet_queue_byvalue", move || {
        t += 17;
        let mut p = bench_pkt();
        p.payload = t as u32;
        q.schedule(t % 1_000_000, p);
        q.pop()
    });
    let mut arena = PacketArena::new();
    let mut w: TimerWheel<dui_core::netsim::arena::PacketRef> = TimerWheel::new();
    let mut t = 0u64;
    for i in 0..PENDING {
        w.schedule((i * 251) % 1_000_000, arena.insert(bench_pkt()));
    }
    s.bench("packet_queue_arena_handle", move || {
        t += 17;
        let mut p = bench_pkt();
        p.payload = t as u32;
        w.schedule(t % 1_000_000, arena.insert(p));
        w.pop().map(|(_, r)| arena.take(r).expect("live handle"))
    });
}

fn bench_theory(s: &mut Suite) {
    let bin = Binomial::new(64, 0.37);
    s.bench("binomial_quantile_n64", move || bin.quantile(0.95));
    let m = AttackModel::fig2();
    s.bench("iid_model_mean_takeover", move || m.mean_takeover_time());
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

fn bench_telemetry(s: &mut Suite) {
    use dui_core::telemetry::{LogHistogram, Registry};
    {
        let mut reg = Registry::new();
        let id = reg.counter("bench.counter");
        s.bench("counter_record", move || {
            reg.inc(id);
            reg.counter_value(id)
        });
    }
    {
        let mut reg = Registry::new();
        let id = reg.histogram("bench.hist");
        let mut v = 1u64;
        s.bench("histogram_record", move || {
            // Stride through magnitudes so bucket indexing is exercised,
            // not just one hot bucket.
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            reg.record(id, v >> (v % 48));
        });
    }
    {
        let mut h = LogHistogram::default();
        for i in 0..100_000u64 {
            h.record(i.wrapping_mul(2654435761) % 1_000_000);
        }
        s.bench("histogram_quantile_p99", move || h.quantile(0.99));
    }
}

fn bench_fastsim(s: &mut Suite) {
    let cfg = AttackSimConfig {
        legit_flows: 400,
        malicious_flows: 21,
        horizon: SimDuration::from_secs(30),
        ..AttackSimConfig::fig2()
    };
    let mut seed = 0;
    s.bench("blink_fastsim_400flows_30s", move || {
        seed += 1;
        AttackSim::run(&cfg, seed)
    });
    // Fig. 2 itself, per packet: the paper's 2000 + 105 flows over the
    // first 10 s (≈ 84 k packets a run; building the next run is spread
    // over them).
    let cfg = AttackSimConfig {
        horizon: SimDuration::from_secs(10),
        ..AttackSimConfig::fig2()
    };
    let mut seed = 0;
    let mut sim = AttackSim::new(&cfg, seed);
    s.bench("blink_fastsim_fig2_10s", move || {
        let t = sim.step();
        if t.is_none() {
            seed += 1;
            sim = AttackSim::new(&cfg, seed);
        }
        t
    });
}

fn bench_replay(s: &mut Suite) {
    use dui_core::netsim::prelude::*;
    use dui_core::replay::record::{engine_checkpoint_from_bytes, engine_checkpoint_to_bytes};

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
        s.bench("engine_state_hash_loaded", move || sim.state_hash());
    }
    {
        let ckpt = loaded_engine().checkpoint().expect("restorable engine");
        s.bench("engine_checkpoint_encode", move || {
            engine_checkpoint_to_bytes(&ckpt)
        });
    }
    {
        let bytes =
            engine_checkpoint_to_bytes(&loaded_engine().checkpoint().expect("restorable engine"));
        s.bench("engine_checkpoint_decode", move || {
            engine_checkpoint_from_bytes(&bytes).expect("decodes")
        });
    }
}

fn bench_supervisord(s: &mut Suite) {
    use dui_core::supervisord::{SignalBank, SignalConfig};
    use dui_core::telemetry::delta::DeltaEncoder;
    use dui_core::telemetry::Registry;

    // A representative producer registry: the Blink gauge, five Pytheas
    // member gauges, the four PCC loss-pattern counters.
    fn producer_registry() -> Registry {
        let mut reg = Registry::new();
        reg.gauge("blink.cells.malicious");
        for k in 0..5 {
            reg.gauge(&format!("pytheas.qoe.p0.c{k}"));
        }
        for n in ["high_lossy", "high_total", "low_lossy", "low_total"] {
            reg.counter(&format!("pcc.mi.{n}"));
        }
        reg
    }
    {
        // Producer hot path: observe one epoch of metrics, snapshot,
        // diff against the previous snapshot, frame it.
        let mut reg = producer_registry();
        let blink = reg.gauge("blink.cells.malicious");
        let hi = reg.counter("pcc.mi.high_total");
        let mut enc = DeltaEncoder::new(0);
        let mut e = 0u64;
        s.bench("supervisord_delta_encode", move || {
            e += 1;
            reg.observe(blink, (e % 64) as f64);
            reg.add(hi, 50);
            enc.encode(e, &reg.snapshot(), 0)
        });
    }
    {
        // Worker hot path: one frame through a group's full signal bank
        // (Blink occupancy + Pytheas outlier + PCC drop-pattern windows).
        let mut reg = producer_registry();
        let blink = reg.gauge("blink.cells.malicious");
        let hi = reg.counter("pcc.mi.high_total");
        let mut enc = DeltaEncoder::new(0);
        let frames: Vec<_> = (0..64u64)
            .map(|e| {
                reg.observe(blink, (e % 64) as f64);
                reg.add(hi, 50);
                enc.encode(e, &reg.snapshot(), 0)
            })
            .collect();
        let mut bank = SignalBank::new(&SignalConfig::default());
        let mut i = 0usize;
        s.bench("supervisord_signalbank_observe", move || {
            i = (i + 1) % frames.len();
            bank.observe("site-g0", &frames[i])
        });
    }
    {
        // The transport in the regime the pipeline runs it in: the
        // consumer is the bottleneck (~1 µs of work an item), so the
        // queue sits full and what is measured is how often each side
        // is woken to move 10^5 items through 64 slots.
        use dui_core::telemetry::channel::bounded;
        s.bench("channel_consumer_bound_handoff", || {
            let (tx, rx) = bounded::<u64>(64);
            std::thread::scope(|sc| {
                sc.spawn(move || {
                    for v in 0..100_000u64 {
                        if tx.send(v).is_err() {
                            break;
                        }
                    }
                });
                let mut acc = 0u64;
                while let Some(v) = rx.recv() {
                    let mut x = v;
                    for _ in 0..1_000 {
                        x = std::hint::black_box(x)
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                    }
                    acc ^= x;
                }
                acc
            })
        });
    }
    {
        // The whole pipeline as the `ledger` benchmark drives it
        // (`supervisord_stream` at --quick size): two fleets of 8
        // producers x 150 epochs, each producer updating, freezing and
        // delta-encoding inside its own thread, 64-deep channels, one
        // worker.
        use dui_core::stats::rng::mix64;
        use dui_core::supervisord::{self, Config, ProducerSpec};
        use dui_core::telemetry::delta::Frame;

        fn producer(i: usize, seed: u64, epochs: u64) -> impl Iterator<Item = Frame> + Send {
            let profile = (i / 2) % 4;
            let onset = epochs / 3;
            let mut rng = Rng::new(mix64(seed, i as u64));
            let mut reg = Registry::new();
            let blink = reg.gauge("blink.cells.malicious");
            let qoe: Vec<_> = (0..5)
                .map(|k| reg.gauge(&format!("pytheas.qoe.p{i}.c{k}")))
                .collect();
            let [high_lossy, high_total, low_lossy, low_total] =
                ["high_lossy", "high_total", "low_lossy", "low_total"]
                    .map(|n| reg.counter(&format!("pcc.mi.{n}")));
            let mut enc = DeltaEncoder::new(i as u32);
            (0..epochs).map(move |e| {
                let attacking = e >= onset;
                let occ = if profile == 1 && attacking {
                    (2.0 + 1.4 * (e - onset) as f64).min(58.0)
                } else {
                    2.0 + rng.range_f64(0.0, 2.0)
                };
                reg.observe(blink, occ);
                for (k, &g) in qoe.iter().enumerate() {
                    let v = if profile == 2 && attacking && k >= 3 {
                        0.02 + rng.range_f64(0.0, 0.01)
                    } else {
                        0.65 + rng.range_f64(0.0, 0.1)
                    };
                    reg.observe(g, v);
                }
                reg.add(high_total, 50);
                reg.add(low_total, 50);
                let h = if profile == 3 && attacking {
                    30
                } else {
                    rng.below(3)
                };
                reg.add(high_lossy, h);
                reg.add(low_lossy, rng.below(3));
                enc.encode(e, &reg.snapshot(), 0)
            })
        }
        s.bench("supervisord_pipeline_8x1", || {
            (0..2u64)
                .map(|round| {
                    let fleet = (0..8)
                        .map(|i| {
                            let spec = ProducerSpec {
                                id: i as u32,
                                group: format!("site-g{}", i / 2),
                            };
                            (spec, producer(i, mix64(21, round), 150))
                        })
                        .collect();
                    supervisord::run(&Config::default(), fleet).frames
                })
                .sum::<u64>()
        });
    }
}

fn bench_flow_pool(s: &mut Suite) {
    use dui_core::tcp::pool::FlowPool;
    use dui_core::tcp::{TcpSenderConfig, TcpState};

    fn bench_cfg(handshake: bool) -> TcpSenderConfig {
        TcpSenderConfig {
            total_bytes: Some(1460),
            app_rate: None,
            handshake,
            time_wait: SimDuration::from_nanos(1),
            ..Default::default()
        }
    }
    // Churn steady state: 4096 live flows, one admit + one evict per
    // iteration: a slab write plus a free-list push.
    const LIVE: u16 = 4096;
    {
        let keys = tcp_keys(LIVE, 80);
        let mut pool = FlowPool::new();
        let mut refs: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| pool.insert_sender(*k, bench_cfg(false), i as u32))
            .collect();
        let mut i = 0usize;
        s.bench("flow_pool_admit_evict", move || {
            i = (i + 1) % refs.len();
            pool.free(refs[i]).expect("live handle");
            refs[i] = pool.insert_sender(keys[i], bench_cfg(false), i as u32);
            refs[i]
        });
    }
    // One full RFC 9293 lifecycle per iteration — SYN handshake, one
    // data segment, FIN/TIME-WAIT teardown — entirely inside the pool.
    {
        let key = FlowKey::tcp(Addr::new(198, 18, 0, 1), 4000, Addr::new(10, 0, 0, 1), 80);
        let mut pool = FlowPool::new();
        let mut isn = 0u32;
        s.bench("flow_pool_handshake_lifecycle", move || {
            isn = isn.wrapping_add(0x0100_0001);
            let sr = pool.insert_sender(key, bench_cfg(true), isn);
            let rr = pool.insert_listener(key);
            pool.on_start(sr, SimTime::ZERO).expect("live handle");
            let mut now = SimTime::ZERO;
            loop {
                let mut any = false;
                for pkt in pool.take_out(sr).expect("live handle") {
                    pool.on_segment(rr, now, &pkt).expect("live handle");
                    any = true;
                }
                for pkt in pool.take_out(rr).expect("live handle") {
                    pool.on_segment(sr, now, &pkt).expect("live handle");
                    any = true;
                }
                if !any {
                    if pool.state(sr) == Ok(TcpState::TimeWait) {
                        now = now + SimDuration::from_millis(1);
                        pool.on_tick(sr, now).expect("live handle");
                    } else {
                        break;
                    }
                }
            }
            let done = pool.state(sr) == Ok(TcpState::Closed);
            pool.free(sr).expect("live handle");
            pool.free(rr).expect("live handle");
            done
        });
    }
}

fn bench_lint(s: &mut Suite) {
    // Lexing throughput on a real, large source file (this crate's own
    // stage definitions) — the hot inner loop of every dui-lint run.
    const SRC: &str = include_str!("../src/stages.rs");
    s.bench("lint_lex_stages_rs", move || dui_lint::lexer::lex(SRC));
    s.bench("lint_rules_stages_rs", move || {
        dui_lint::lint_source("crates/bench/src/stages.rs", SRC)
    });
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
    bench_event_queue(&mut s);
    bench_queue_impls(&mut s);
    bench_theory(&mut s);
    bench_pcc_controller(&mut s);
    bench_pytheas_ucb(&mut s);
    bench_nethide_solver(&mut s);
    bench_survey(&mut s);
    bench_telemetry(&mut s);
    bench_fastsim(&mut s);
    bench_replay(&mut s);
    bench_supervisord(&mut s);
    bench_flow_pool(&mut s);
    bench_lint(&mut s);
    println!("\n{} benchmarks done.", s.results().len());
}
