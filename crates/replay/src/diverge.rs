//! Pinpointing where two recordings of "the same" run part ways.
//!
//! Divergence in a deterministic simulation is monotone: once two runs
//! differ, they never re-converge (state feeds forward). That makes the
//! checkpoint stream binary-searchable — find the first checkpoint whose
//! state hashes disagree, then scan the event frames between the last
//! good checkpoint and the first bad one for the first differing event.
//! The result names the exact event index *and* the state component
//! that went bad, which turns "the CSVs differ" into "event 48 312, the
//! RNG stream, at t=261.03s".

use crate::record::{EventFrame, Recording};

/// One state component whose digests disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentDiff {
    /// Component name (e.g. `"rng"`, `"selector"`).
    pub name: String,
    /// Digest in recording A (or the recorded side during replay).
    pub a: u64,
    /// Digest in recording B (or the live side during replay); 0 if
    /// that side lacks the component.
    pub b: u64,
}

impl ComponentDiff {
    /// Each component of `a` whose digest in `b` differs; one that `b`
    /// lacks reads 0 there.
    pub(crate) fn between<'n>(
        a: impl IntoIterator<Item = (&'n str, u64)>,
        b: impl IntoIterator<Item = (&'n str, u64)>,
    ) -> Vec<ComponentDiff> {
        let b: Vec<_> = b.into_iter().collect();
        a.into_iter()
            .filter_map(|(name, a)| {
                let b = b.iter().find(|&&(n, _)| n == name).map_or(0, |&(_, d)| d);
                (a != b).then(|| (name.to_string(), a, b))
            })
            .map(|(name, a, b)| ComponentDiff { name, a, b })
            .collect()
    }
}

/// Where and how two recordings first diverge.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the first event whose frames differ, if the event
    /// streams themselves diverge. `None` means every shared event
    /// matched — the runs differ only in length or final state.
    pub event_index: Option<u64>,
    /// `(time, kind, digest)` of that event in recording A.
    pub a_event: Option<(u64, String, u64)>,
    /// `(time, kind, digest)` of that event in recording B.
    pub b_event: Option<(u64, String, u64)>,
    /// Index of the first checkpoint whose state hashes disagree, if
    /// any.
    pub checkpoint_index: Option<u64>,
    /// Components whose digests differ at that checkpoint.
    pub components: Vec<ComponentDiff>,
    /// Event counts of the two recordings (differ when one run is a
    /// prefix of the other).
    pub lengths: (u64, u64),
}

impl Divergence {
    /// A human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match (self.event_index, &self.a_event, &self.b_event) {
            (Some(i), Some(a), Some(b)) => {
                out.push_str(&format!("first divergent event: #{i}\n"));
                out.push_str(&format!("  A: {} @{}ns digest {:#018x}\n", a.1, a.0, a.2));
                out.push_str(&format!("  B: {} @{}ns digest {:#018x}\n", b.1, b.0, b.2));
            }
            _ => {
                if self.lengths.0 != self.lengths.1 {
                    out.push_str(&format!(
                        "event streams agree on their shared prefix, but lengths differ: \
                         A has {} events, B has {}\n",
                        self.lengths.0, self.lengths.1
                    ));
                } else {
                    out.push_str("event streams agree; state diverges only at a checkpoint\n");
                }
            }
        }
        if let Some(c) = self.checkpoint_index {
            out.push_str(&format!("first divergent checkpoint: #{c}\n"));
        }
        for comp in &self.components {
            out.push_str(&format!(
                "  component {}: A {:#018x} vs B {:#018x}\n",
                comp.name, comp.a, comp.b
            ));
        }
        out
    }
}

fn event_tuple(rec: &Recording, e: EventFrame) -> (u64, String, u64) {
    (e.time, rec.name(e.kind).to_string(), e.digest)
}

/// The first frame at which both recordings' shared prefix differs: its
/// index and both frames. One inside the window `[from, to)` the
/// checkpoint search points at wins over an earlier one. Each log is
/// decoded once, up to the frame returned.
fn first_event_diff(
    a: &Recording,
    b: &Recording,
    from: u64,
    to: u64,
) -> Option<(u64, EventFrame, EventFrame)> {
    let mut before = None;
    for ((ea, eb), i) in a.events.iter().zip(b.events.iter()).zip(0u64..) {
        if i >= to && before.is_some() {
            break;
        }
        if ea.time != eb.time || ea.digest != eb.digest || a.name(ea.kind) != b.name(eb.kind) {
            if i >= from {
                return Some((i, ea, eb));
            }
            before = before.or(Some((i, ea, eb)));
        }
    }
    before
}

/// Compare two recordings of the same stage and report the first point
/// of divergence, or `None` if they are equivalent (same events, same
/// checkpoints, same final hash).
pub fn first_divergence(a: &Recording, b: &Recording) -> Option<Divergence> {
    let lengths = (a.events.len() as u64, b.events.len() as u64);

    // Pair up checkpoints by event index: binary search only makes
    // sense over checkpoints taken at the same point in both streams.
    let paired: Vec<(usize, usize)> = a
        .checkpoints
        .iter()
        .enumerate()
        .filter_map(|(i, ca)| {
            b.checkpoints
                .iter()
                .position(|cb| cb.event_index == ca.event_index)
                .map(|j| (i, j))
        })
        .collect();

    // Binary search: divergence is monotone, so the predicate
    // "hashes disagree at pair k" is false..false true..true.
    let mut lo = 0usize;
    let mut hi = paired.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (i, j) = paired[mid];
        if a.checkpoints[i].state_hash == b.checkpoints[j].state_hash {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first_bad_pair = lo; // == paired.len() when all paired checkpoints agree

    // The event scan window: from the last good checkpoint's event
    // index to the first bad one's (or the end of the shared prefix).
    let scan_from = if first_bad_pair == 0 {
        0
    } else {
        a.checkpoints[paired[first_bad_pair - 1].0].event_index
    };
    let (scan_to, checkpoint_index, components) = if first_bad_pair < paired.len() {
        let (i, j) = paired[first_bad_pair];
        let (ca, cb) = (&a.checkpoints[i], &b.checkpoints[j]);
        let components = ComponentDiff::between(
            ca.components.iter().map(|&(n, d)| (a.name(n), d)),
            cb.components.iter().map(|&(n, d)| (b.name(n), d)),
        );
        (ca.event_index, Some(i as u64), components)
    } else {
        (u64::MAX, None, Vec::new())
    };

    // The mutation may sit outside the window, between the last good
    // checkpoint and a stream end or unpaired region: the scan then
    // returns the first difference of the shared prefix.
    let event_index = first_event_diff(a, b, scan_from, scan_to);

    let diverged = event_index.is_some()
        || checkpoint_index.is_some()
        || lengths.0 != lengths.1
        || a.final_hash != b.final_hash;
    if !diverged {
        return None;
    }

    Some(Divergence {
        event_index: event_index.map(|(i, _, _)| i),
        a_event: event_index.map(|(_, ea, _)| event_tuple(a, ea)),
        b_event: event_index.map(|(_, _, eb)| event_tuple(b, eb)),
        checkpoint_index,
        components,
        lengths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CheckpointFrame, Recording};

    /// Build a synthetic recording: `n` events with digests from `f`,
    /// checkpoints every `every` events with state hash = xor of digests
    /// so far, a single "core" component mirroring it.
    fn synth(n: u64, every: u64, f: impl Fn(u64) -> u64) -> Recording {
        let mut rec = Recording {
            stage: "synth".into(),
            config_digest: 1,
            ..Recording::default()
        };
        let kind = rec.intern("tick");
        let core = rec.intern("core");
        let mut acc = 0u64;
        let ckpt = |rec: &mut Recording, i: u64, acc: u64| {
            rec.checkpoints.push(CheckpointFrame {
                event_index: i,
                time: i * 10,
                state_hash: acc,
                components: vec![(core, acc)],
                payload: None,
            });
        };
        ckpt(&mut rec, 0, acc);
        for i in 0..n {
            let digest = f(i);
            acc ^= digest.rotate_left((i % 63) as u32);
            rec.events.push(EventFrame {
                time: (i + 1) * 10,
                kind,
                digest,
            });
            if (i + 1) % every == 0 {
                ckpt(&mut rec, i + 1, acc);
            }
        }
        if !n.is_multiple_of(every) {
            ckpt(&mut rec, n, acc);
        }
        rec.final_hash = acc;
        rec
    }

    #[test]
    fn identical_recordings_do_not_diverge() {
        let a = synth(100, 10, |i| i.wrapping_mul(0x9E37_79B9));
        let b = synth(100, 10, |i| i.wrapping_mul(0x9E37_79B9));
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn single_event_mutation_is_pinpointed() {
        let a = synth(100, 10, |i| i.wrapping_mul(0x9E37_79B9));
        // Flip one bit in event 47's digest; state differs from there on.
        let b = synth(100, 10, |i| {
            let d = i.wrapping_mul(0x9E37_79B9);
            if i == 47 {
                d ^ 1
            } else {
                d
            }
        });
        let div = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(div.event_index, Some(47));
        // Checkpoint 5 covers events 41..=50: the first bad one.
        assert_eq!(div.checkpoint_index, Some(5));
        assert_eq!(div.components.len(), 1);
        assert_eq!(div.components[0].name, "core");
        let report = div.render();
        assert!(report.contains("#47"), "report names the event: {report}");
        assert!(report.contains("core"), "report names the component");
    }

    /// The one-pass scan returns what a window scan followed by a full
    /// scan of the shared prefix would.
    #[test]
    fn event_scan_prefers_the_window_then_the_first_difference() {
        let at =
            |bad: &'static [u64]| synth(100, 10, move |i| if bad.contains(&i) { 1 } else { 0 });
        let a = at(&[]);
        let index = |b: &Recording, from, to| first_event_diff(&a, b, from, to).map(|d| d.0);
        assert_eq!(index(&at(&[5, 30, 70]), 20, 40), Some(30));
        assert_eq!(index(&at(&[5, 70]), 40, 60), Some(5));
        assert_eq!(index(&at(&[70]), 20, 40), Some(70));
        assert_eq!(index(&at(&[5]), 20, u64::MAX), Some(5));
        assert_eq!(index(&at(&[]), 20, 40), None);
    }

    #[test]
    fn prefix_truncation_is_reported_as_length_mismatch() {
        let a = synth(100, 10, |i| i.wrapping_mul(3));
        let b = synth(60, 10, |i| i.wrapping_mul(3));
        let div = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(div.event_index, None, "shared prefix matches");
        assert_eq!(div.lengths, (100, 60));
        assert!(div.render().contains("lengths differ"));
    }
}
