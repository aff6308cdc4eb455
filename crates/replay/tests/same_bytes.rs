//! The same-bytes oracle: the encoder output of one fixed state per blob
//! kind, pinned as `(length, digest)`.
//!
//! The table was captured at the commit *before* the codecs moved onto
//! `dui_stats::wire` (and is what that port was checked against): a
//! change to any encoder's bytes fails here, in tier-1, instead of
//! surfacing as a golden or recording that no longer loads. Re-pin only
//! for a deliberate format change, together with a version bump.

mod blobs;

use dui_stats::digest::StateDigest;

const PINNED: &[(&str, usize, u64)] = &[
    ("duir_fastsim", 4408, 0xc626ca2a7b5adf70),
    ("duir_engine", 11898, 0xea0885cf6888a84b),
    ("engine_checkpoint", 1898, 0x5db48a6ff7f94389),
    ("fastsim_snapshot", 737, 0xf44ea4eca5855b91),
    ("tcp_host", 907, 0x184b72f2d568cdce),
    ("flow_pool", 554, 0x20119f4c964524d9),
    ("sink_host", 111, 0x14a4be3ee5f09e89),
    ("router", 1, 0x2b65d97af752aa89),
];

#[test]
fn encoders_emit_the_pinned_bytes() {
    let actual: Vec<(&str, usize, u64)> = blobs::all()
        .into_iter()
        .map(|(name, bytes)| {
            let mut d = StateDigest::new();
            d.write_bytes(&bytes);
            (name, bytes.len(), d.finish())
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
