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

    /// Full state hash right now.
    fn state_hash(&self) -> u64;

    /// Named sub-digests of the major state components, in a stable
    /// order. These are what divergence reports diff.
    fn component_digests(&self) -> Vec<(&'static str, u64)>;

    /// Serialize restorable state, or `None` if this subject cannot be
    /// resumed (hash-only recording).
    fn save_checkpoint(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore state previously produced by
    /// [`save_checkpoint`](ReplaySubject::save_checkpoint).
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
        /// Components whose digests differ (empty if the component
        /// breakdown itself agrees — a digest-scheme bug).
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
                    write!(f, "\n  component {}: {:#018x} vs {:#018x}", c.name, c.a, c.b)?;
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

    fn diff_components(
        &self,
        ckpt: &CheckpointFrame,
        live: &[(&'static str, u64)],
    ) -> Vec<ComponentDiff> {
        let mut diffs = Vec::new();
        for (idx, recorded) in &ckpt.components {
            let name = self.rec.name(*idx);
            let live_digest = live.iter().find(|(n, _)| *n == name).map(|(_, d)| *d);
            match live_digest {
                Some(d) if d == *recorded => {}
                Some(d) => diffs.push(ComponentDiff {
                    name: name.to_string(),
                    a: *recorded,
                    b: d,
                }),
                None => diffs.push(ComponentDiff {
                    name: name.to_string(),
                    a: *recorded,
                    b: 0,
                }),
            }
        }
        diffs
    }

    fn check_checkpoint<S: ReplaySubject + ?Sized>(
        &self,
        subject: &S,
        ckpt_idx: usize,
        ckpt: &CheckpointFrame,
    ) -> Result<(), ReplayError> {
        let live = subject.state_hash();
        if live == ckpt.state_hash {
            return Ok(());
        }
        Err(ReplayError::HashMismatch {
            checkpoint: ckpt_idx as u64,
            event_index: ckpt.event_index,
            recorded: ckpt.state_hash,
            live,
            components: self.diff_components(ckpt, &subject.component_digests()),
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
        while applied < total {
            while let Some((i, c)) = ckpts.peek() {
                if c.event_index != applied {
                    break;
                }
                self.check_checkpoint(subject, *i, c)?;
                verified += 1;
                ckpts.next();
            }
            let frame = &self.rec.events[applied as usize];
            let Some(step) = subject.step() else {
                return Err(ReplayError::LengthMismatch {
                    recorded: total,
                    live: applied,
                });
            };
            if step.time != frame.time
                || step.kind != self.rec.name(frame.kind)
                || step.digest != frame.digest
            {
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
        for (i, c) in ckpts {
            if c.event_index != applied {
                return Err(ReplayError::Malformed(format!(
                    "checkpoint {i} claims event index {} but the recording has {} events",
                    c.event_index, total
                )));
            }
            self.check_checkpoint(subject, i, c)?;
            verified += 1;
        }
        let live = subject.state_hash();
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
        let ckpt = self
            .rec
            .checkpoints
            .get(ckpt_idx)
            .ok_or_else(|| {
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
            if self.ticks >= self.limit {
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

        fn state_hash(&self) -> u64 {
            let mut d = dui_stats::digest::StateDigest::labeled("counter");
            for w in self.rng.state() {
                d.write_u64(w);
            }
            d.write_u64(self.ticks);
            d.write_u64(self.total);
            d.finish()
        }

        fn component_digests(&self) -> Vec<(&'static str, u64)> {
            let rng = self.rng.state().into_iter().fold(0, dui_stats::rng::mix64);
            vec![("rng", rng), ("total", self.total)]
        }

        fn save_checkpoint(&self) -> Option<Vec<u8>> {
            let mut buf = Vec::new();
            for w in self.rng.state() {
                buf.extend_from_slice(&w.to_le_bytes());
            }
            buf.extend_from_slice(&self.ticks.to_le_bytes());
            buf.extend_from_slice(&self.total.to_le_bytes());
            Some(buf)
        }

        fn load_checkpoint(&mut self, bytes: &[u8]) -> Result<(), String> {
            if bytes.len() != 48 {
                return Err(format!("expected 48 bytes, got {}", bytes.len()));
            }
            let word = |i: usize| {
                let mut w = [0u8; 8];
                w.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
                u64::from_le_bytes(w)
            };
            self.rng = dui_stats::Rng::from_state([word(0), word(1), word(2), word(3)]);
            self.ticks = word(4);
            self.total = word(5);
            Ok(())
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
