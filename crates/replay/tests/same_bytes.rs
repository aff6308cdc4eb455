//! The same-bytes oracle: the encoder output of one fixed state per blob
//! kind, pinned as `(length, fingerprint)`.
//!
//! A change to any encoder's bytes fails here, in tier-1, instead of
//! surfacing as a golden or recording that no longer loads. Re-pin only
//! for a deliberate format change, together with a version bump. The
//! fingerprint is `FixedState`'s hash, not `StateDigest`: some of the
//! bytes being pinned are state digests, so a digest change must move
//! only the rows that carry one — the two `.duir` rows, and
//! `engine_checkpoint`, whose last eight bytes are the engine's state
//! hash — never the ruler they are measured with.

mod blobs;

use dui_stats::hash::FixedState;
use std::hash::BuildHasher;

const PINNED: &[(&str, usize, u64)] = &[
    ("duir_fastsim", 4408, 0xdbd9bd58ed8a09f3),
    ("duir_engine", 11985, 0xeecc9101fa304cd7),
    ("engine_checkpoint", 1915, 0xd60383647ee41b36),
    ("fastsim_snapshot", 737, 0x274088656fe2e3c2),
    ("tcp_host", 901, 0x20b1e2c7581b638c),
    ("flow_pool", 554, 0xcd22838b1ffc9853),
    ("sink_host", 111, 0xe874643b29ff27ee),
    ("router", 3, 0xce55215a7ad596d7),
];

#[test]
fn encoders_emit_the_pinned_bytes() {
    let actual: Vec<(&str, usize, u64)> = blobs::all()
        .into_iter()
        .map(|(name, bytes)| {
            (
                name,
                bytes.len(),
                FixedState::default().hash_one(&bytes[..]),
            )
        })
        .collect();
    assert_eq!(
        actual,
        PINNED,
        "encoder output moved; actual table:\n{}",
        actual
            .iter()
            .map(|(n, l, d)| format!("    (\"{n}\", {l}, {d:#018x}),\n"))
            .collect::<String>()
    );
}
