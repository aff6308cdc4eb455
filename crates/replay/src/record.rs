//! The recording format: a compact, versioned binary event stream with
//! periodic state checkpoints. A checkpoint's payload is its subject's
//! own codec, beside the subject's type: the engine's in `dui-netsim`
//! (`Simulator::checkpoint`), the fast simulation's in `dui-blink`.
//!
//! Everything is built on the primitives of [`dui_stats::wire`] — LEB128
//! varints for counts/times and fixed 8-byte little-endian words for
//! digests (which are full-entropy and would *expand* under varint
//! coding). No serde, no external crates.
//!
//! ## Layout
//!
//! ```text
//! magic      "DUIR"
//! version    varint (= VERSION)
//! stage      varint len + utf8
//! config     8-byte LE config digest
//! names      varint count, each varint len + utf8   (kinds + components)
//! events     varint count, each:
//!              varint delta-time (ns since previous event)
//!              varint name index (event kind)
//!              8-byte LE event digest
//! ckpts      varint count, each:
//!              varint event index (events applied before this point)
//!              varint absolute time (ns)
//!              8-byte LE state hash
//!              varint component count, each: varint name index + 8-byte digest
//!              payload flag (0/1) + varint len + bytes   (restorable state)
//! final      8-byte LE final state hash
//! ```
//!
//! In memory a [`Recording`] keeps its events in this same encoding: its
//! [`EventLog`] is the bytes of the `events` section after the count,
//! about 11 bytes an event where an [`EventFrame`] takes 24. Encoding
//! copies them, decoding checks them and copies them once, and a replay
//! decodes one event at a time as it goes.

use crate::replay::ReplaySubject;
use dui_stats::wire::{wire_struct, Writer};
use dui_stats::wire::{Bytes, DecodeError, Encoder, Encoding, ErrorKind, Reader, Seq, Var};

/// Recording format magic bytes.
pub const MAGIC: [u8; 4] = *b"DUIR";
/// Current format version. Versions 2 and later changed no byte of the
/// layout; each marks a change of what it carries (docs/determinism.md,
/// "Re-blesses"), so an older file is refused by name rather than
/// failing as a config mismatch or a divergence at its first
/// checkpoint.
pub const VERSION: u64 = 6;
/// Most names one recording holds: its subject's event kinds and
/// checkpoint component names, a few dozen at most. A `.duir` naming
/// more is refused before a slot is reserved for any of them.
const MAX_NAMES: usize = 64;

// ---------------------------------------------------------------------------
// Frames and the Recording container
// ---------------------------------------------------------------------------

/// One dispatched event: when, what kind, and the digest of its full
/// content (the event's index is its position in [`Recording::events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFrame {
    /// Absolute event time (ns).
    pub time: u64,
    /// Index into [`Recording::names`] naming the event kind.
    pub kind: u32,
    /// Digest of the event's content.
    pub digest: u64,
}

/// A recording's event stream, in dispatch order, held as the `.duir`
/// `events` section encodes it: each event a varint delta-time, a varint
/// kind and an 8-byte digest. Its bytes are written by [`EventLog::push`]
/// or checked by the strict decoder, both of which know only the
/// shortest varints, so two logs hold equal events exactly when they
/// hold equal bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    wire: Writer,
    len: usize,
    /// Time of the last event (ns): what the next delta counts from.
    last: u64,
}

impl EventLog {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no event.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one event. Its time is a delta from the event before it,
    /// which cannot be negative: an event earlier than that one is kept
    /// at that one's time. (A run never dispatches into its past.)
    pub fn push(&mut self, e: EventFrame) {
        let time = e.time.max(self.last);
        self.wire.varint(time - self.last);
        self.wire.varint(u64::from(e.kind));
        self.wire.u64(e.digest);
        self.last = time;
        self.len += 1;
    }

    /// The events in order, each decoded as it is reached.
    pub fn iter(&self) -> Events<'_> {
        Events {
            r: Reader::new(self.wire.as_bytes()),
            left: self.len,
            time: 0,
        }
    }

    /// The section: the count, then the events' bytes as they are held.
    fn write(&self, w: &mut Writer) {
        w.varint_usize(self.len);
        w.raw(self.wire.as_bytes());
    }

    /// Check a section event by event, as strictly as every other field,
    /// then copy its bytes once.
    fn read(r: &mut Reader<'_>) -> Result<EventLog, DecodeError> {
        let len = r.count("event count", Reader::varint, EventRecord::LEAST)?;
        let mut section = r.clone();
        let mut last = 0u64;
        for _ in 0..len {
            let dt = r.varint("event delta-time")?;
            last = last
                .checked_add(dt)
                .ok_or_else(|| r.error("event time", ErrorKind::Range))?;
            Var::<u32>::read(r, "event kind")?;
            r.u64("event digest")?;
        }
        let bytes = section.take("events", (section.remaining() - r.remaining()) as u64)?;
        let mut wire = Writer::with_capacity(bytes.len());
        wire.raw(bytes);
        Ok(EventLog { wire, len, last })
    }
}

/// The events of an [`EventLog`], decoded one at a time.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    r: Reader<'a>,
    left: usize,
    time: u64,
}

impl Iterator for Events<'_> {
    type Item = EventFrame;

    fn next(&mut self) -> Option<EventFrame> {
        self.left = self.left.checked_sub(1)?;
        // The log holds only bytes it wrote or checked: every field
        // decodes, and no time passes `u64::MAX`.
        self.time += self.r.varint("event delta-time").ok()?;
        Some(EventFrame {
            time: self.time,
            kind: Var::<u32>::read(&mut self.r, "event kind").ok()?,
            digest: self.r.u64("event digest").ok()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Events<'_> {}

/// A periodic state checkpoint taken between events.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFrame {
    /// Number of events applied before this checkpoint was taken.
    pub event_index: u64,
    /// Simulated time at the checkpoint (ns).
    pub time: u64,
    /// The subject's full state hash.
    pub state_hash: u64,
    /// Per-component sub-digests `(name index, digest)` — what lets
    /// divergence reports *name* the mismatching subsystem.
    pub components: Vec<(u32, u64)>,
    /// Restorable serialized state, when the subject supports it.
    pub payload: Option<Vec<u8>>,
}

wire_struct!(CheckpointFrame {
    event_index: Var, time: Var, state_hash: u64,
    components: Seq<(Var<u32>, u64)>, payload: Option<Bytes>,
});

/// One run's complete recording.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recording {
    /// Which experiment stage produced this (e.g. `fig2`).
    pub stage: String,
    /// Digest of the run configuration (seed included); replaying against
    /// a differently-configured subject is refused up front.
    pub config_digest: u64,
    /// Interned names: event kinds and checkpoint component names.
    pub names: Vec<String>,
    /// The event stream, in dispatch order.
    pub events: EventLog,
    /// Periodic checkpoints, in event order.
    pub checkpoints: Vec<CheckpointFrame>,
    /// State hash after the final event.
    pub final_hash: u64,
}

/// An event as the log holds it: delta-time, kind, digest.
type EventRecord = (Var, (Var<u32>, u64));

impl Recording {
    /// Intern `name`, returning its table index. Panics on a new name
    /// once the table holds `MAX_NAMES` (64): no reader would take it.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the table holds at most MAX_NAMES names, far below u32::MAX"
    )]
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        assert!(
            self.names.len() < MAX_NAMES,
            "a recording's names past MAX_NAMES"
        );
        self.names.push(name.to_string());
        (self.names.len() - 1) as u32
    }

    /// Resolve a name index (`"?"` if out of range — a corrupt index is
    /// reported, not panicked on).
    pub fn name(&self, idx: u32) -> &str {
        self.names.get(idx as usize).map_or("?", |s| s.as_str())
    }

    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Room for the events as held, and a checkpoint's fields around
        // its payload.
        let ckpts: usize = (self.checkpoints.iter())
            .map(|c| 40 + 9 * c.components.len() + c.payload.as_ref().map_or(0, Vec::len))
            .sum();
        let mut w = Writer::with_capacity(64 + self.events.wire.as_bytes().len() + ckpts);
        w.raw(&MAGIC);
        w.varint(VERSION);
        w.str(&self.stage);
        w.u64(self.config_digest);
        w.seq(&self.names, |w, n| w.str(n));
        self.events.write(&mut w);
        Seq::<CheckpointFrame>::write(&self.checkpoints, &mut w);
        w.u64(self.final_hash);
        w.into_bytes()
    }

    /// Parse the versioned binary format (strict: trailing bytes are an
    /// error).
    pub fn from_bytes(bytes: &[u8]) -> Result<Recording, DecodeError> {
        let mut r = Reader::new(bytes);
        r.tag("DUIR magic", &MAGIC)?;
        if r.varint("recording version")? != VERSION {
            return Err(r.error("recording version", ErrorKind::Tag));
        }
        let stage = r.str("stage")?.to_string();
        let config_digest = r.u64("config digest")?;
        let name_count = |r: &mut Reader, what| match r.varint(what)? {
            n if n > MAX_NAMES as u64 => Err(r.error(what, ErrorKind::Count)),
            n => Ok(n),
        };
        let names = r.seq("name count", name_count, 1, |r| {
            Ok(r.str("name")?.to_string())
        })?;
        let events = EventLog::read(&mut r)?;
        let checkpoints = Seq::<CheckpointFrame>::read(&mut r, "checkpoints")?;
        let final_hash = r.u64("final hash")?;
        r.finish("recording")?;
        Ok(Recording {
            stage,
            config_digest,
            names,
            events,
            checkpoints,
            final_hash,
        })
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> Result<Recording, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Recording::from_bytes(&bytes).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Drives a [`ReplaySubject`] to completion, producing a [`Recording`]
/// with a checkpoint every `ckpt_every` events (plus one final
/// checkpoint after the last event).
pub struct Recorder {
    rec: Recording,
    ckpt_every: u64,
}

impl Recorder {
    /// New recorder for `stage` (config digest binds the recording to
    /// one exact configuration + seed).
    pub fn new(stage: &str, config_digest: u64, ckpt_every: u64) -> Self {
        assert!(ckpt_every > 0, "checkpoint cadence must be positive");
        Recorder {
            rec: Recording {
                stage: stage.to_string(),
                config_digest,
                ..Recording::default()
            },
            ckpt_every,
        }
    }

    /// Append one checkpoint frame, one walk; returns its state hash.
    fn take_checkpoint<S: ReplaySubject + ?Sized>(&mut self, subject: &S, event_index: u64) -> u64 {
        let walk = subject.capture(true);
        let components = walk
            .sections
            .into_iter()
            .map(|(name, digest)| (self.rec.intern(name), digest))
            .collect();
        self.rec.checkpoints.push(CheckpointFrame {
            event_index,
            time: subject.now_ns(),
            state_hash: walk.hash,
            components,
            payload: walk.bytes.map(Writer::into_bytes),
        });
        walk.hash
    }

    /// Run `subject` to completion, recording every event and a
    /// checkpoint every `ckpt_every` events.
    ///
    /// A subject's terminal `step()` (the one returning `None`) may
    /// itself mutate state — the packet engine advances its clock to the
    /// limit, the fast simulation flushes its tail samples. The final
    /// checkpoint is therefore always taken *after* that terminal step,
    /// in place of any boundary checkpoint at the same event index, and
    /// the [`Replayer`](crate::replay::Replayer) performs the terminal
    /// step before checking it. No boundary checkpoint is walked once the
    /// subject is [`finished`](ReplaySubject::finished), so K checkpoints
    /// are K walks.
    pub fn record<S: ReplaySubject + ?Sized>(mut self, subject: &mut S) -> Recording {
        // Each kind's name index, found by the address of its `&'static
        // str`: once a kind has been seen, no string is compared.
        let mut kinds: Vec<(&'static str, u32)> = Vec::new();
        let mut n = 0u64;
        loop {
            if n.is_multiple_of(self.ckpt_every) && !subject.finished() {
                self.take_checkpoint(subject, n);
            }
            let Some(step) = subject.step() else { break };
            let kind = match kinds.iter().find(|&&(k, _)| std::ptr::eq(k, step.kind)) {
                Some(&(_, i)) => i,
                None => {
                    let i = self.rec.intern(step.kind);
                    kinds.push((step.kind, i));
                    i
                }
            };
            self.rec.events.push(EventFrame {
                time: step.time,
                kind,
                digest: step.digest,
            });
            n += 1;
        }
        debug_assert!(
            self.rec
                .checkpoints
                .last()
                .is_none_or(|c| c.event_index < n),
            "a boundary checkpoint was walked at the last event"
        );
        self.rec.final_hash = self.take_checkpoint(subject, n);
        self.rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_round_trips() {
        let mut rec = Recording {
            stage: "fig2".into(),
            config_digest: 0xDEAD_BEEF,
            final_hash: 42,
            ..Recording::default()
        };
        let k = rec.intern("packet");
        rec.events.push(EventFrame {
            time: 100,
            kind: k,
            digest: 7,
        });
        rec.events.push(EventFrame {
            time: 250,
            kind: k,
            digest: u64::MAX,
        });
        let c = rec.intern("rng");
        rec.checkpoints.push(CheckpointFrame {
            event_index: 2,
            time: 250,
            state_hash: 9,
            components: vec![(c, 11)],
            payload: Some(vec![1, 2, 3]),
        });
        let bytes = rec.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn recording_rejects_corruption() {
        let rec = Recording {
            stage: "x".into(),
            ..Recording::default()
        };
        let mut bytes = rec.to_bytes();
        bytes[0] = b'X';
        assert!(Recording::from_bytes(&bytes).is_err(), "bad magic");
        let mut bytes = rec.to_bytes();
        bytes.push(0);
        assert!(Recording::from_bytes(&bytes).is_err(), "trailing bytes");
        assert!(
            Recording::from_bytes(&rec.to_bytes()[..5]).is_err(),
            "truncated"
        );
    }

    /// A `.duir` with no names and no checkpoints around the `events`
    /// section that `events` writes, count included.
    fn with_events(events: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(&MAGIC);
        w.varint(VERSION);
        w.str("x");
        w.u64(0);
        w.varint(0);
        events(&mut w);
        w.varint(0);
        w.u64(0);
        w.into_bytes()
    }

    #[test]
    fn a_bad_event_section_is_refused_by_field() {
        let refusal = |bytes: &[u8]| {
            let err = Recording::from_bytes(bytes).unwrap_err();
            (err.what, err.kind)
        };
        // Three events of 12 bytes each, cut inside the last digest: the
        // count still fits what is left.
        let mut rec = Recording::default();
        for i in 1..=3 {
            rec.events.push(EventFrame {
                time: i * 1_000_000,
                kind: 0,
                digest: i,
            });
        }
        let bytes = rec.to_bytes();
        let digest_end = bytes.len() - 1 - 8;
        assert_eq!(
            refusal(&bytes[..digest_end - 4]),
            ("event digest", ErrorKind::Truncated)
        );
        // 5 spelled in two bytes.
        let overlong = with_events(|w| {
            w.varint(1);
            w.raw(&[0x85, 0x00]);
            w.varint(0);
            w.u64(7);
        });
        assert_eq!(refusal(&overlong), ("event delta-time", ErrorKind::Varint));
        let past_u64 = with_events(|w| {
            w.varint(2);
            for dt in [u64::MAX, 1] {
                w.varint(dt);
                w.varint(0);
                w.u64(7);
            }
        });
        assert_eq!(refusal(&past_u64), ("event time", ErrorKind::Range));
        let too_many = with_events(|w| {
            w.varint(1_000);
            w.varint(1);
            w.varint(0);
            w.u64(7);
        });
        assert_eq!(refusal(&too_many), ("event count", ErrorKind::Count));
        assert!(Recording::from_bytes(&with_events(|w| w.varint(0))).is_ok());
    }

    #[test]
    fn the_log_iterates_what_was_pushed() {
        let mut log = EventLog::default();
        let frames = [(5, 0, 1), (5, 1, u64::MAX), (300, 0, 0), (1 << 40, 2, 9)]
            .map(|(time, kind, digest)| EventFrame { time, kind, digest });
        for e in frames {
            log.push(e);
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.iter().len(), 4);
        assert!(log.iter().eq(frames));
        assert!(log.iter().skip(2).eq(frames[2..].iter().copied()));
    }

    #[test]
    fn version_1_recordings_are_refused_by_name() {
        let mut bytes = Recording::default().to_bytes();
        assert_eq!(
            u64::from(bytes[MAGIC.len()]),
            VERSION,
            "the version varint follows the magic"
        );
        for old in [1, 2, 3, 4, 5] {
            bytes[MAGIC.len()] = old;
            let err = Recording::from_bytes(&bytes).unwrap_err();
            assert_eq!((err.what, err.kind), ("recording version", ErrorKind::Tag));
        }
    }
}
