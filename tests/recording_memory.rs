//! What a decoded recording keeps in memory, counted by the workspace's
//! one counting allocator (`tests/support/counting_alloc.rs`).
//!
//! A `Recording` holds its events in their `.duir` encoding, about 11
//! bytes an event, so decoding one costs about its own length: the event
//! bytes copied once, the checkpoint payloads, and a little for the name
//! table and the checkpoint frames. Events held as 24-byte frames would
//! cost some 13 bytes more each, which this budget does not allow.

#[path = "../crates/replay/tests/blobs/mod.rs"]
mod blobs;
#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use dui_replay::Recording;

#[global_allocator]
static ALLOCATOR: counting_alloc::Counting = counting_alloc::Counting;

/// Heap a decoded recording may hold beyond its byte length: the name
/// table (a `String` per name) and the checkpoint frames with their
/// component lists. The engine fixture's come to 269 and 608 bytes.
const NAMES_AND_CHECKPOINTS: u64 = 1024;

#[test]
fn a_decoded_recording_costs_about_its_length() {
    let bytes = blobs::engine_recording().to_bytes();
    let (rec, counts) = counting_alloc::during(|| Recording::from_bytes(&bytes));
    let rec = rec.expect("the fixture decodes");
    assert_eq!((rec.events.len(), rec.checkpoints.len()), (384, 4));
    let budget = bytes.len() as u64 + NAMES_AND_CHECKPOINTS;
    assert!(
        counts.live <= budget && counts.peak <= budget,
        "decoding {} bytes holds {} and peaks at {}, over {budget}",
        bytes.len(),
        counts.live,
        counts.peak
    );
}
