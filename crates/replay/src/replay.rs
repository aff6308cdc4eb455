//! Re-driving a subject against a recording: full-stream verification
//! and checkpoint resume.
//!
//! A [`ReplaySubject`] is anything steppable whose state can be hashed —
//! the packet-level engine, the Blink fast simulation, a whole
//! experiment stage. The [`Replayer`] drives a freshly built subject
//! forward and compares, at every event and every checkpoint, against
//! what the recording says happened. Any mismatch halts with enough
//! context to name the first bad event and (at checkpoints) the first
//! mismatching component.

use crate::diverge::ComponentDiff;
use crate::record::{CheckpointFrame, Recording};
use dui_stats::wire::Walk;

/// What one dispatched event looked like from the outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Event time (ns).
    pub time: u64,
    /// Event kind (a static label such as `"deliver"` or `"fastsim"`).
    pub kind: &'static str,
    /// Digest of the event's content.
    pub digest: u64,
}

/// A deterministic, steppable, hashable simulation that can be recorded
/// and replayed.
pub trait ReplaySubject {
    /// Digest of this subject's configuration (seed included). A
    /// recording made under one config refuses to verify against
    /// another.
    fn config_digest(&self) -> u64;

    /// Current simulated time (ns).
    fn now_ns(&self) -> u64;

    /// Advance by one event; `None` when the run is complete.
    fn step(&mut self) -> Option<StepInfo>;

    /// Whether the run is complete: the next [`step`](ReplaySubject::step)
    /// returns `None`, though it may still change state. The recorder
    /// asks it before walking a boundary checkpoint, which the terminal
    /// step would replace. A wrong answer records a checkpoint the
    /// replayer then fails as a hash mismatch.
    fn finished(&self) -> bool;

    /// One walk over the subject's state: its state hash, its named
    /// component digests in a stable order (what divergence reports
    /// diff), and — if `payload` and the subject can be resumed — its
    /// restorable bytes. The recorder asks for the payload, the replayer
    /// does not.
    fn capture(&self, payload: bool) -> Walk;

    /// Restore state previously produced by
    /// [`capture`](ReplaySubject::capture)'s payload.
    fn load_checkpoint(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err("this subject does not support checkpoint resume".into())
    }
}

/// Why a replay failed verification.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The subject was built from a different configuration than the
    /// recording.
    ConfigMismatch {
        /// Config digest stored in the recording.
        recorded: u64,
        /// Config digest of the live subject.
        live: u64,
    },
    /// A replayed event differed from the recorded one.
    EventMismatch {
        /// Index of the first differing event.
        index: u64,
        /// `(time, kind, digest)` from the recording.
        recorded: (u64, String, u64),
        /// `(time, kind, digest)` from the live run.
        live: (u64, String, u64),
    },
    /// A checkpoint's state hash differed.
    HashMismatch {
        /// Index of the failing checkpoint.
        checkpoint: u64,
        /// Events applied when the checkpoint was taken.
        event_index: u64,
        /// State hash from the recording.
        recorded: u64,
        /// State hash from the live run.
        live: u64,
        /// Components whose digests differ. A subject whose state hash
        /// folds its component digests names at least one at every
        /// checkpoint; empty for the final hash, which a recording holds
        /// no components for.
        components: Vec<ComponentDiff>,
    },
    /// The live run ended before the recording did, or vice versa.
    LengthMismatch {
        /// Number of events in the recording.
        recorded: u64,
        /// Number of events the live run produced.
        live: u64,
    },
    /// The recording or checkpoint payload could not be used.
    Malformed(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::ConfigMismatch { recorded, live } => write!(
                f,
                "config mismatch: recording was made with config {recorded:#018x}, \
                 live subject has {live:#018x}"
            ),
            ReplayError::EventMismatch {
                index,
                recorded,
                live,
            } => write!(
                f,
                "event {index} diverged: recorded {} @{}ns digest {:#018x}, \
                 live {} @{}ns digest {:#018x}",
                recorded.1, recorded.0, recorded.2, live.1, live.0, live.2
            ),
            ReplayError::HashMismatch {
                checkpoint,
                event_index,
                recorded,
                live,
                components,
            } => {
                write!(
                    f,
                    "checkpoint {checkpoint} (after event {event_index}) hash mismatch: \
                     recorded {recorded:#018x}, live {live:#018x}"
                )?;
                for c in components {
                    write!(
                        f,
                        "\n  component {}: {:#018x} vs {:#018x}",
                        c.name, c.a, c.b
                    )?;
                }
                Ok(())
            }
            ReplayError::LengthMismatch { recorded, live } => write!(
                f,
                "run length mismatch: recording has {recorded} events, live run produced {live}"
            ),
            ReplayError::Malformed(m) => write!(f, "malformed recording: {m}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Summary of a successful verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Events replayed and matched.
    pub events: u64,
    /// Checkpoints whose state hash was verified.
    pub checkpoints_verified: u64,
    /// Final state hash (matches the recording's).
    pub final_hash: u64,
}

/// Drives [`ReplaySubject`]s against [`Recording`]s.
pub struct Replayer<'a> {
    rec: &'a Recording,
}

impl<'a> Replayer<'a> {
    /// A replayer for `rec`.
    pub fn new(rec: &'a Recording) -> Self {
        Replayer { rec }
    }

    /// Check `ckpt` against one walk over `subject`; returns the live
    /// state hash.
    fn check_checkpoint<S: ReplaySubject + ?Sized>(
        &self,
        subject: &S,
        ckpt_idx: usize,
        ckpt: &CheckpointFrame,
    ) -> Result<u64, ReplayError> {
        let live = subject.capture(false);
        if live.hash == ckpt.state_hash {
            return Ok(live.hash);
        }
        Err(ReplayError::HashMismatch {
            checkpoint: ckpt_idx as u64,
            event_index: ckpt.event_index,
            recorded: ckpt.state_hash,
            live: live.hash,
            components: ComponentDiff::between(
                ckpt.components.iter().map(|&(n, d)| (self.rec.name(n), d)),
                live.sections,
            ),
        })
    }

    /// Re-drive `subject` from its initial state, verifying every event
    /// frame and every checkpoint hash against the recording.
    pub fn verify<S: ReplaySubject + ?Sized>(
        &self,
        subject: &mut S,
    ) -> Result<ReplayReport, ReplayError> {
        if subject.config_digest() != self.rec.config_digest {
            return Err(ReplayError::ConfigMismatch {
                recorded: self.rec.config_digest,
                live: subject.config_digest(),
            });
        }
        let ckpts = self.rec.checkpoints.iter().enumerate();
        self.drive(subject, 0, ckpts, 0)
    }

    /// The shared replay loop: apply events `start..`, checking each
    /// checkpoint in `ckpts` when its event index is reached. The final
    /// checkpoint (at the last event index) is recorded *after* the
    /// terminal step, so the terminal step runs before it is checked.
    fn drive<'c, S: ReplaySubject + ?Sized>(
        &self,
        subject: &mut S,
        start: u64,
        ckpts: impl Iterator<Item = (usize, &'c CheckpointFrame)>,
        already_verified: u64,
    ) -> Result<ReplayReport, ReplayError> {
        let total = self.rec.events.len() as u64;
        let mut ckpts = ckpts.peekable();
        let mut verified = already_verified;
        let mut applied = start;
        // The live kind each recorded kind was last matched by: a subject
        // names a kind with a `&'static str`, so after one comparison of
        // the names its address matches, with no string compared.
        let mut matched: Vec<Option<&'static str>> = vec![None; self.rec.names.len()];
        let skip = usize::try_from(start).unwrap_or(usize::MAX);
        for frame in self.rec.events.iter().skip(skip) {
            while let Some((i, c)) = ckpts.peek() {
                if c.event_index != applied {
                    break;
                }
                self.check_checkpoint(subject, *i, c)?;
                verified += 1;
                ckpts.next();
            }
            let Some(step) = subject.step() else {
                return Err(ReplayError::LengthMismatch {
                    recorded: total,
                    live: applied,
                });
            };
            let same_kind = match matched.get_mut(frame.kind as usize) {
                Some(Some(k)) if std::ptr::eq(*k, step.kind) => true,
                seen => {
                    let same = self.rec.name(frame.kind) == step.kind;
                    if let Some(seen) = seen.filter(|_| same) {
                        *seen = Some(step.kind);
                    }
                    same
                }
            };
            if step.time != frame.time || step.digest != frame.digest || !same_kind {
                return Err(ReplayError::EventMismatch {
                    index: applied,
                    recorded: (
                        frame.time,
                        self.rec.name(frame.kind).to_string(),
                        frame.digest,
                    ),
                    live: (step.time, step.kind.to_string(), step.digest),
                });
            }
            applied += 1;
        }
        // Terminal step: may mutate state (clock advance, tail flush);
        // runs before the post-terminal final checkpoint is checked.
        if subject.step().is_some() {
            return Err(ReplayError::LengthMismatch {
                recorded: total,
                live: applied + 1,
            });
        }
        // The post-terminal checkpoint's walk also yields the final hash.
        let mut last = None;
        for (i, c) in ckpts {
            if c.event_index != applied {
                return Err(ReplayError::Malformed(format!(
                    "checkpoint {i} claims event index {} but the recording has {} events",
                    c.event_index, total
                )));
            }
            last = Some(self.check_checkpoint(subject, i, c)?);
            verified += 1;
        }
        let live = last.unwrap_or_else(|| subject.capture(false).hash);
        if live != self.rec.final_hash {
            return Err(ReplayError::HashMismatch {
                checkpoint: self.rec.checkpoints.len() as u64,
                event_index: applied,
                recorded: self.rec.final_hash,
                live,
                components: Vec::new(),
            });
        }
        Ok(ReplayReport {
            events: applied - start,
            checkpoints_verified: verified,
            final_hash: live,
        })
    }

    /// Restore `subject` from checkpoint `ckpt_idx` and run it to the
    /// end of the recording, verifying every subsequent event and
    /// checkpoint. Returns the usual report; `events` counts only the
    /// events replayed after the resume point.
    pub fn resume_from<S: ReplaySubject + ?Sized>(
        &self,
        subject: &mut S,
        ckpt_idx: usize,
    ) -> Result<ReplayReport, ReplayError> {
        if subject.config_digest() != self.rec.config_digest {
            return Err(ReplayError::ConfigMismatch {
                recorded: self.rec.config_digest,
                live: subject.config_digest(),
            });
        }
        let ckpt = self.rec.checkpoints.get(ckpt_idx).ok_or_else(|| {
            ReplayError::Malformed(format!(
                "checkpoint {ckpt_idx} out of range (recording has {})",
                self.rec.checkpoints.len()
            ))
        })?;
        let payload = ckpt.payload.as_deref().ok_or_else(|| {
            ReplayError::Malformed(format!(
                "checkpoint {ckpt_idx} carries no restorable payload (hash-only recording)"
            ))
        })?;
        subject
            .load_checkpoint(payload)
            .map_err(ReplayError::Malformed)?;
        self.check_checkpoint(subject, ckpt_idx, ckpt)?;
        let ckpts = self.rec.checkpoints.iter().enumerate().skip(ckpt_idx + 1);
        self.drive(subject, ckpt.event_index, ckpts, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;
    use dui_stats::digest::StateDigest;
    use dui_stats::wire::{self, DecodeError, Encoder, Reader, Wire, Writer};

    /// A toy deterministic subject: a counter driven by an RNG, with a
    /// restorable checkpoint. Exercises the whole record→verify→resume
    /// path without a simulator.
    pub(crate) struct Counter {
        pub rng: dui_stats::Rng,
        pub ticks: u64,
        pub total: u64,
        pub limit: u64,
    }

    impl Counter {
        pub fn new(seed: u64, limit: u64) -> Self {
            Counter {
                rng: dui_stats::Rng::new(seed),
                ticks: 0,
                total: 0,
                limit,
            }
        }
    }

    impl ReplaySubject for Counter {
        fn config_digest(&self) -> u64 {
            self.limit ^ 0xC0FFEE
        }

        fn now_ns(&self) -> u64 {
            self.ticks * 1_000
        }

        fn step(&mut self) -> Option<StepInfo> {
            if self.finished() {
                return None;
            }
            let draw = self.rng.next_u64() % 100;
            self.ticks += 1;
            self.total = self.total.wrapping_add(draw);
            Some(StepInfo {
                time: self.now_ns(),
                kind: "tick",
                digest: draw ^ self.total,
            })
        }

        fn finished(&self) -> bool {
            self.ticks >= self.limit
        }

        fn capture(&self, payload: bool) -> Walk {
            const SECTIONS: [(&str, StateDigest); 2] = [
                ("rng", StateDigest::labeled("rng")),
                ("total", StateDigest::labeled("total")),
            ];
            let w = payload.then(Writer::new);
            wire::walk("counter", &SECTIONS, w, |i, s| match i {
                0 => self.rng.put(s),
                _ => {
                    s.u64(self.ticks);
                    s.u64(self.total);
                }
            })
        }

        fn load_checkpoint(&mut self, bytes: &[u8]) -> Result<(), String> {
            let mut r = Reader::new(bytes);
            let err = |e: DecodeError| e.to_string();
            self.rng = dui_stats::Rng::take(&mut r).map_err(err)?;
            self.ticks = r.u64("counter word").map_err(err)?;
            self.total = r.u64("counter word").map_err(err)?;
            r.finish("counter").map_err(err)
        }
    }

    #[test]
    fn record_then_verify_round_trips() {
        let mut subject = Counter::new(9, 50);
        let rec = Recorder::new("counter", subject.config_digest(), 8).record(&mut subject);
        assert_eq!(rec.events.len(), 50);
        // 0, 8, 16, 24, 32, 40, 48, and the final 50.
        assert_eq!(rec.checkpoints.len(), 8);
        let mut fresh = Counter::new(9, 50);
        let report = Replayer::new(&rec).verify(&mut fresh).unwrap();
        assert_eq!(report.events, 50);
        assert_eq!(report.checkpoints_verified, 8);
        assert_eq!(report.final_hash, rec.final_hash);
    }

    #[test]
    fn verify_refuses_wrong_config() {
        let mut subject = Counter::new(9, 50);
        let rec = Recorder::new("counter", subject.config_digest(), 8).record(&mut subject);
        let mut wrong = Counter::new(9, 49);
        match Replayer::new(&rec).verify(&mut wrong) {
            Err(ReplayError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }

    #[test]
    fn verify_pinpoints_diverging_seed() {
        let mut subject = Counter::new(9, 50);
        let rec = Recorder::new("counter", subject.config_digest(), 8).record(&mut subject);
        let mut diverged = Counter::new(10, 50);
        match Replayer::new(&rec).verify(&mut diverged) {
            // The initial checkpoint (taken before any event) already
            // sees the different seed and names the rng component.
            Err(ReplayError::HashMismatch {
                checkpoint: 0,
                components,
                ..
            }) => {
                assert!(components.iter().any(|c| c.name == "rng"));
            }
            other => panic!("expected HashMismatch at checkpoint 0, got {other:?}"),
        }
    }

    #[test]
    fn resume_from_midpoint_matches_tail() {
        let mut subject = Counter::new(9, 50);
        let rec = Recorder::new("counter", subject.config_digest(), 8).record(&mut subject);
        let mid = rec.checkpoints.len() / 2;
        let mut fresh = Counter::new(9, 50);
        let report = Replayer::new(&rec).resume_from(&mut fresh, mid).unwrap();
        assert_eq!(
            report.events,
            50 - rec.checkpoints[mid].event_index,
            "replays exactly the tail"
        );
        assert_eq!(report.final_hash, rec.final_hash);
        assert_eq!(fresh.total, subject.total);
    }
}
