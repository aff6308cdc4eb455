//! A packet-level replay divergence always names a section of the
//! engine's state encoder.
//!
//! A small engine run is recorded twice: restorable, and hash-only (the
//! router runs a data-plane program, which has no decoder). Each replay
//! perturbs one piece of state before the first checkpoint — a link's
//! fault, its up flag, a prefix announcement, a node logic's state — and
//! the `HashMismatch` must name exactly the section that holds it.
//! The program also counts how often recording and verifying walk the
//! engine's state.

mod blobs;

use dui_netsim::prelude::*;
use dui_replay::{Recorder, Recording, ReplayError, Replayer, SimulatorSubject};
use dui_stats::wire::{Encoder, Sink};
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A data-plane program that counts what it sees, and how often its
/// state is encoded.
#[derive(Default)]
struct Tally {
    seen: u64,
    encodes: Arc<AtomicUsize>,
}

impl DataPlaneProgram for Tally {
    fn process(&mut self, _: SimTime, _: &Packet, _: Option<NodeId>) -> Option<Verdict> {
        self.seen += 1;
        None
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn encode(&self, s: &mut Sink<'_>) {
        self.encodes.fetch_add(1, Ordering::Relaxed);
        s.refuse("a tally program has no checkpoint decoder");
        s.u64(self.seen);
    }
}

/// The fixture engine, its router running a [`Tally`] if `program`, and
/// that tally's encode count.
fn subject(program: bool) -> (SimulatorSubject, Arc<AtomicUsize>) {
    let mut sim = blobs::engine(true);
    let tally = Tally::default();
    let encodes = Arc::clone(&tally.encodes);
    if program {
        sim.set_logic(
            NodeId(1),
            Box::new(RouterLogic::new().with_program(Box::new(tally))),
        );
    }
    let subject = SimulatorSubject::new(sim, blobs::ENGINE_END, blobs::ENGINE_DIGEST);
    (subject, encodes)
}

fn record(program: bool) -> Recording {
    Recorder::new("sections", blobs::ENGINE_DIGEST, 150).record(&mut subject(program).0)
}

/// A perturbation's name, the perturbation, and the one section it must
/// show up in.
type Perturbation = (&'static str, fn(&mut Simulator), &'static str);

const PERTURBATIONS: [Perturbation; 4] = [
    (
        "fault",
        |sim| {
            let fault = FaultConfig {
                drop_prob: 0.0,
                jitter_max: Some(SimDuration::from_micros(1)),
            };
            sim.set_fault(LinkId(0), Dir::BtoA, fault);
        },
        "links",
    ),
    (
        "link down",
        |sim| sim.set_link_up(LinkId(2), false),
        "links",
    ),
    (
        "prefix",
        |sim| sim.announce_prefix(Prefix::new(Addr::new(10, 0, 2, 0), 24), NodeId(2)),
        "routes",
    ),
    (
        "node state",
        |sim| sim.logic_mut::<SinkHost>(NodeId(3)).total_packets += 1,
        "nodes",
    ),
];

#[test]
fn every_perturbation_names_its_section() {
    for program in [false, true] {
        let rec = record(program);
        assert_eq!(
            rec.checkpoints[0].payload.is_none(),
            program,
            "a router program makes the recording hash-only"
        );
        for (what, perturb, section) in PERTURBATIONS {
            let (mut live, _) = subject(program);
            perturb(live.sim_mut());
            match Replayer::new(&rec).verify(&mut live) {
                Err(ReplayError::HashMismatch {
                    checkpoint: 0,
                    components,
                    ..
                }) => {
                    let names: Vec<&str> = components.iter().map(|c| c.name.as_str()).collect();
                    assert_eq!(names, [section], "{what} (program: {program})");
                }
                other => panic!("{what} (program: {program}): {other:?}"),
            }
        }
    }
}

#[test]
fn every_recording_lists_the_sections() {
    for program in [false, true] {
        let rec = record(program);
        for ckpt in &rec.checkpoints {
            let names: Vec<&str> = ckpt.components.iter().map(|&(i, _)| rec.name(i)).collect();
            let sections: Vec<&str> = Simulator::SECTIONS.iter().map(|&(name, _)| name).collect();
            assert_eq!(names, sections);
        }
    }
}

/// Recording walks the engine's state once per checkpoint it keeps — the
/// hash, the section digests and the bytes together — and verifying once
/// per checkpoint it checks, the last walk also giving the final hash.
/// At a cadence of 128 the 384-event run ends on a checkpoint boundary,
/// which the recorder does not walk before the terminal step replaces it.
#[test]
fn each_checkpoint_is_one_walk() {
    for every in [150, 128] {
        let (mut recorded, encodes) = subject(true);
        let rec = Recorder::new("sections", blobs::ENGINE_DIGEST, every).record(&mut recorded);
        let k = rec.checkpoints.len();
        let ends_on_boundary = (rec.events.len() as u64).is_multiple_of(every);
        assert_eq!(
            ends_on_boundary,
            every == 128,
            "{} events",
            rec.events.len()
        );
        assert!(k > 2, "{k} checkpoints");
        assert_eq!(
            encodes.load(Ordering::Relaxed),
            k,
            "recording every {every}"
        );
        assert_eq!(rec.final_hash, recorded.sim().state_hash());
        let (mut live, encodes) = subject(true);
        Replayer::new(&rec).verify(&mut live).expect("replays");
        assert_eq!(
            encodes.load(Ordering::Relaxed),
            k,
            "verifying every {every}"
        );
    }
}
