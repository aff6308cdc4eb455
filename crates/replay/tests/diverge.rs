//! Divergence self-test: record the same fast-simulation run twice,
//! once with a single bit of RNG state flipped mid-run, and check that
//! [`first_divergence`] pinpoints the exact first divergent event and
//! names the corrupted component.

use dui_blink::fastsim::AttackSimConfig;
use dui_netsim::prelude::SimDuration;
use dui_replay::replay::ReplaySubject;
use dui_replay::{first_divergence, FastSimSubject, Recorder, Recording};

fn small_cfg() -> AttackSimConfig {
    AttackSimConfig {
        legit_flows: 30,
        malicious_flows: 3,
        // 33 flows at one packet per 250 ms ≈ 132 events/s: long enough
        // for the mutation at event 1000 plus a checkpoint interval.
        horizon: SimDuration::from_secs(12),
        ..AttackSimConfig::fig2()
    }
}

/// Record a small fig2-style run; if `mutate_at` is set, flip one bit of
/// RNG state after exactly that many events.
fn record_run(seed: u64, ckpt_every: u64, mutate_at: Option<u64>) -> Recording {
    let mut subject = FastSimSubject::new(small_cfg(), seed);
    let digest = subject.config_digest();
    match mutate_at {
        None => Recorder::new("fig2-small", digest, ckpt_every).record(&mut subject),
        Some(at) => {
            // Drive the prefix by hand, inject the fault, then hand the
            // subject to a recorder primed with the already-seen events.
            // Simpler: record with a wrapper that mutates at the right
            // step.
            struct Mutating {
                inner: FastSimSubject,
                steps: u64,
                at: u64,
            }
            impl ReplaySubject for Mutating {
                fn config_digest(&self) -> u64 {
                    self.inner.config_digest()
                }
                fn now_ns(&self) -> u64 {
                    self.inner.now_ns()
                }
                fn step(&mut self) -> Option<dui_replay::StepInfo> {
                    if self.steps == self.at {
                        let mut s = self.inner.sim().rng_state();
                        s[0] ^= 1; // the one-bit intoxication
                        self.inner.sim_mut().set_rng_state(s);
                    }
                    self.steps += 1;
                    self.inner.step()
                }
                fn capture(&self, payload: bool) -> dui_stats::wire::Walk {
                    self.inner.capture(payload)
                }
                fn load_checkpoint(&mut self, bytes: &[u8]) -> Result<(), String> {
                    self.inner.load_checkpoint(bytes)
                }
            }
            let mut m = Mutating {
                inner: FastSimSubject::new(small_cfg(), seed),
                steps: 0,
                at,
            };
            Recorder::new("fig2-small", digest, ckpt_every).record(&mut m)
        }
    }
}

#[test]
fn identical_runs_do_not_diverge() {
    let a = record_run(7, 64, None);
    let b = record_run(7, 64, None);
    assert_eq!(a.final_hash, b.final_hash);
    assert_eq!(first_divergence(&a, &b), None);
}

#[test]
fn one_bit_rng_mutation_is_pinpointed_to_the_exact_event() {
    const MUTATE_AT: u64 = 1_000;
    let clean = record_run(7, 256, None);
    let dirty = record_run(7, 256, Some(MUTATE_AT));
    assert!(
        clean.events.len() as u64 > MUTATE_AT + 256,
        "run long enough to straddle the mutation"
    );
    assert_ne!(clean.final_hash, dirty.final_hash, "mutation must matter");

    let div = first_divergence(&clean, &dirty).expect("must diverge");
    // The mutation lands before event MUTATE_AT is taken; its frame
    // digest folds the RNG words, so that exact frame is the first to
    // differ.
    assert_eq!(
        div.event_index,
        Some(MUTATE_AT),
        "exact first divergent event"
    );
    // The first divergent checkpoint is the next boundary after the
    // mutation, and its component diff names the RNG.
    let ckpt = div.checkpoint_index.expect("a checkpoint catches it");
    let at = clean.checkpoints[ckpt as usize].event_index;
    assert!(
        at > MUTATE_AT && at <= MUTATE_AT + 256,
        "first bad checkpoint is the next boundary, got event index {at}"
    );
    assert!(
        div.components.iter().any(|c| c.name == "rng"),
        "component diff names the rng: {:?}",
        div.components
    );

    let report = div.render();
    assert!(
        report.contains(&format!("#{MUTATE_AT}")),
        "report: {report}"
    );
    assert!(report.contains("rng"), "report: {report}");
}

#[test]
fn divergence_of_different_seeds_is_event_zero() {
    let a = record_run(7, 64, None);
    let b = record_run(8, 64, None);
    let div = first_divergence(&a, &b).expect("different seeds diverge");
    assert_eq!(div.event_index, Some(0));
}

#[test]
fn a_component_recording_b_lacks_is_reported_against_zero() {
    let a = record_run(7, 64, None);
    let rng = |c: &dui_replay::CheckpointFrame| {
        c.components
            .iter()
            .position(|&(n, _)| a.name(n) == "rng")
            .expect("an rng component")
    };
    // From checkpoint 1 on, B lacks the rng component and its hash
    // differs, as a run that diverged there would.
    let mut b = a.clone();
    for c in &mut b.checkpoints[1..] {
        c.state_hash ^= 1;
        c.components.remove(rng(c));
    }
    let div = first_divergence(&a, &b).expect("the checkpoints differ");
    assert_eq!(div.event_index, None);
    assert_eq!(div.checkpoint_index, Some(1));
    let at = &a.checkpoints[1];
    assert_eq!(
        div.components,
        vec![dui_replay::ComponentDiff {
            name: "rng".to_string(),
            a: at.components[rng(at)].1,
            b: 0,
        }]
    );
}
