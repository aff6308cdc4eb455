//! Property suites for the record/replay subsystem (via the in-tree
//! `propcheck` engine): codec round-trips and checkpoint/restore
//! fixed points under randomized scenarios.

use dui_blink::fastsim::{AttackSim, AttackSimConfig};
use dui_netsim::prelude::*;
use dui_replay::record::{CheckpointFrame, EventFrame, Recording};
use dui_replay::replay::ReplaySubject;
use dui_replay::{FastSimSubject, Recorder, Replayer};
use dui_stats::propcheck::Gen;
use dui_stats::{prop_assert, prop_assert_eq, prop_check};

fn small_fastsim_cfg(g: &mut Gen) -> AttackSimConfig {
    AttackSimConfig {
        legit_flows: g.usize(5..40),
        malicious_flows: g.usize(0..5),
        horizon: SimDuration::from_secs_f64(g.f64(0.5..3.0)),
        ..AttackSimConfig::fig2()
    }
}

/// A small two-link packet scenario with optional faults, partially run
/// so checkpoints carry pending events and queued packets.
fn partial_engine(g: &mut Gen) -> Simulator {
    let seed = g.any_u64();
    let flows = g.usize(1..30) as u16;
    let drop_prob = if g.bool() { g.f64_unit() * 0.3 } else { 0.0 };
    let mut b = TopologyBuilder::new();
    let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
    let r = b.router("r");
    let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
    b.link(h1, r, Bandwidth::mbps(10), SimDuration::from_millis(1), 16);
    b.link(r, h2, Bandwidth::mbps(10), SimDuration::from_millis(1), 16);
    let mut sim = Simulator::new(b.build(), seed);
    sim.set_logic(r, Box::new(RouterLogic::new()));
    sim.set_logic(h2, Box::new(SinkHost::new()));
    if drop_prob > 0.0 {
        sim.set_fault(
            LinkId(0),
            Dir::AtoB,
            FaultConfig {
                drop_prob,
                jitter_max: Some(SimDuration::from_millis(1)),
            },
        );
    }
    for i in 0..flows {
        let k = FlowKey::udp(Addr::new(10, 0, 0, 1), 2000 + i, Addr::new(10, 0, 0, 2), 80);
        sim.inject(h1, Packet::udp(k, 300));
    }
    sim.run_until(SimTime::from_secs_f64(0.0015));
    sim
}

prop_check! {
    cases = 64;

    fn recording_codec_round_trips(g) {
        let mut rec = Recording {
            stage: "prop".into(),
            config_digest: g.any_u64(),
            final_hash: g.any_u64(),
            ..Recording::default()
        };
        let kinds = [rec.intern("a"), rec.intern("b")];
        let n = g.usize(0..40);
        let mut t = 0u64;
        for _ in 0..n {
            t += g.u64(0..1_000_000);
            let kind = kinds[g.usize(0..2)];
            rec.events.push(EventFrame { time: t, kind, digest: g.any_u64() });
        }
        let ckpts = g.usize(0..4);
        for i in 0..ckpts {
            let payload = if g.bool() {
                Some(g.vec(0..20, |g| g.u8(0..255)))
            } else {
                None
            };
            rec.checkpoints.push(CheckpointFrame {
                event_index: i as u64,
                time: g.any_u64() >> 16,
                state_hash: g.any_u64(),
                components: vec![(kinds[0], g.any_u64())],
                payload,
            });
        }
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, rec);
    }

    fn engine_restore_is_a_byte_for_byte_fixed_point(g) {
        let sim = partial_engine(g);
        let bytes = sim.checkpoint().expect("checkpointable");
        // Restore into a freshly built same-topology engine: it carries
        // the state hash and re-encodes to the same bytes.
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let r = b.router("r");
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        b.link(h1, r, Bandwidth::mbps(10), SimDuration::from_millis(1), 16);
        b.link(r, h2, Bandwidth::mbps(10), SimDuration::from_millis(1), 16);
        let mut fresh = Simulator::new(b.build(), 0);
        fresh.set_logic(r, Box::new(RouterLogic::new()));
        fresh.set_logic(h2, Box::new(SinkHost::new()));
        fresh.restore(&bytes).expect("restorable");
        prop_assert_eq!(fresh.state_hash(), sim.state_hash());
        prop_assert_eq!(fresh.checkpoint().expect("checkpointable"), bytes);
    }

    fn fastsim_snapshot_codec_round_trips(g) {
        let cfg = small_fastsim_cfg(g);
        let seed = g.any_u64();
        let steps = g.usize(0..200);
        let mut sim = AttackSim::new(&cfg, seed);
        for _ in 0..steps {
            if sim.step().is_none() {
                break;
            }
        }
        let walk = sim.walk(true);
        let bytes = walk.bytes.clone().expect("nothing refuses").into_bytes();
        let back = AttackSim::from_bytes(&cfg, &bytes).unwrap();
        // The decoded run walks alike: same bytes, sections and hash.
        prop_assert_eq!(back.walk(true), walk);
    }

    fn fastsim_record_verify_resume_round_trips(g) {
        let cfg = small_fastsim_cfg(g);
        let seed = g.any_u64();
        let ckpt_every = g.u64(1..50);
        let mut subject = FastSimSubject::new(cfg.clone(), seed);
        let digest = subject.config_digest();
        let rec = Recorder::new("fastsim-prop", digest, ckpt_every).record(&mut subject);
        prop_assert!(!rec.checkpoints.is_empty());
        // A fresh subject verifies the whole stream.
        let mut fresh = FastSimSubject::new(cfg.clone(), seed);
        let report = Replayer::new(&rec).verify(&mut fresh).expect("verifies");
        prop_assert_eq!(report.events, rec.events.len() as u64);
        prop_assert_eq!(report.final_hash, rec.final_hash);
        // Resuming from any checkpoint reaches the same final hash.
        let idx = g.usize(0..rec.checkpoints.len());
        let mut resumed = FastSimSubject::new(cfg, seed);
        let report = Replayer::new(&rec)
            .resume_from(&mut resumed, idx)
            .expect("resumes");
        prop_assert_eq!(report.final_hash, rec.final_hash);
    }
}
