//! Fixture tests: one known-bad and one known-clean source per rule,
//! linted through [`dui_lint::lint_source`] under virtual repo-relative
//! paths (the walker deliberately skips `fixtures/` directories, so
//! these files never pollute the real workspace scan).

use dui_lint::lint_source;

/// Findings of `rule` when `src` is linted as if it lived at `path`.
fn count(path: &str, src: &str, rule: &str) -> usize {
    lint_source(path, src)
        .iter()
        .filter(|f| f.rule == rule)
        .count()
}

const LIB: &str = "crates/x/src/m.rs";

#[test]
fn wall_clock_bad_fires_on_alias_and_direct() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    // The aliased import, the `T::now()` call site, and the two direct
    // SystemTime mentions must all be caught.
    assert!(count(LIB, src, "determinism/wall-clock") >= 3);
}

#[test]
fn wall_clock_clean_ignores_comments_and_strings() {
    let src = include_str!("fixtures/wall_clock_clean.rs");
    assert_eq!(count(LIB, src, "determinism/wall-clock"), 0);
}

#[test]
fn wall_clock_exemption_is_the_bench_crate_and_no_library_file() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    assert_eq!(count("crates/bench/src/timer.rs", src, "determinism/wall-clock"), 0);
    assert!(count("crates/telemetry/src/wallclock.rs", src, "determinism/wall-clock") >= 3);
}

/// The `(line, snippet)` of every `rule` finding whose line mentions `name`.
fn hits_naming(src: &str, rule: &str, name: &str) -> Vec<(u32, String)> {
    lint_source(LIB, src)
        .into_iter()
        .filter(|f| f.rule == rule && f.snippet.contains(name))
        .map(|f| (f.line, f.snippet))
        .collect()
}

#[test]
fn wall_clock_bad_fires_on_the_epoch_constant() {
    // `UNIX_EPOCH.elapsed()` is `SystemTime::now()` by another spelling.
    let src = include_str!("fixtures/wall_clock_bad.rs");
    assert_eq!(hits_naming(src, "determinism/wall-clock", "UNIX_EPOCH").len(), 1);
    let aliased = "use std::time as tm;\nuse std::time::UNIX_EPOCH as E;\nfn f() { tm::UNIX_EPOCH; }\n";
    // The import (path and alias), and the use through the module alias.
    assert_eq!(count(LIB, aliased, "determinism/wall-clock"), 3);
}

#[test]
fn rng_bad_fires_on_alias_and_getrandom() {
    let src = include_str!("fixtures/rng_bad.rs");
    assert!(count(LIB, src, "determinism/ambient-rng") >= 2);
}

#[test]
fn rng_bad_fires_on_the_per_process_hasher_seed() {
    let src = include_str!("fixtures/rng_bad.rs");
    assert_eq!(hits_naming(src, "determinism/ambient-rng", "RandomState").len(), 1);
}

#[test]
fn rng_clean_seeded_generator_passes() {
    let src = include_str!("fixtures/rng_clean.rs");
    assert_eq!(count(LIB, src, "determinism/ambient-rng"), 0);
}

#[test]
fn hash_bad_fires_in_state_digest_body() {
    let src = include_str!("fixtures/hash_bad.rs");
    assert!(count(LIB, src, "hash/unordered-iter") >= 1);
}

#[test]
fn hash_clean_sorted_and_write_unordered_pass() {
    let src = include_str!("fixtures/hash_clean.rs");
    assert_eq!(count(LIB, src, "hash/unordered-iter"), 0);
}

#[test]
fn replay_hash_map_banned_only_under_replay() {
    let src = include_str!("fixtures/replay_hash_bad.rs");
    assert!(count("crates/replay/src/index.rs", src, "hash/unordered-iter") >= 1);
    assert_eq!(count(LIB, src, "hash/unordered-iter"), 0);
}

#[test]
fn panic_bad_fires_on_unwrap_expect_panic() {
    let src = include_str!("fixtures/panic_bad.rs");
    assert_eq!(count(LIB, src, "panic/library-unwrap"), 3);
}

#[test]
fn panic_clean_annotations_and_tests_pass() {
    let src = include_str!("fixtures/panic_clean.rs");
    assert_eq!(count(LIB, src, "panic/library-unwrap"), 0);
}

#[test]
fn panic_rule_skips_non_library_paths() {
    let src = include_str!("fixtures/panic_bad.rs");
    assert_eq!(count("crates/x/tests/it.rs", src, "panic/library-unwrap"), 0);
    assert_eq!(count("crates/x/src/bin/tool.rs", src, "panic/library-unwrap"), 0);
}

#[test]
fn cast_bad_fires_in_digest_scope_only() {
    let src = include_str!("fixtures/cast_bad.rs");
    assert_eq!(count("crates/replay/src/hash.rs", src, "cast/lossy-in-digest"), 2);
    // Outside the digest scope the same source is not this rule's business.
    assert_eq!(count(LIB, src, "cast/lossy-in-digest"), 0);
}

#[test]
fn cast_clean_annotation_and_to_bits_pass() {
    let src = include_str!("fixtures/cast_clean.rs");
    assert_eq!(count("crates/replay/src/hash.rs", src, "cast/lossy-in-digest"), 0);
}

#[test]
fn scope_bad_array_types_in_a_signature_keep_the_digest_scope() {
    let src = include_str!("fixtures/scope_bad.rs");
    let path = "crates/replay/src/subjects.rs";
    // One cast in each of `state_digest(.., pad: [u8; 4])` and
    // `state_hash(&self) -> [u8; 8]`; `.keys()` in one, `.values()` in
    // the other.
    assert_eq!(count(path, src, "cast/lossy-in-digest"), 2);
    assert_eq!(count(path, src, "hash/unordered-iter"), 2);
    // The fn after `#[cfg(test)] use ..;` is not test code.
    assert_eq!(count(path, src, "panic/library-unwrap"), 1);
}

#[test]
fn scope_clean_array_types_in_a_signature_keep_the_test_gate() {
    let src = include_str!("fixtures/scope_clean.rs");
    assert_eq!(count(LIB, src, "panic/library-unwrap"), 0);
    assert_eq!(count(LIB, src, "arena/no-packet-clone"), 0);
    assert_eq!(count(LIB, src, "decode/raw-bytes"), 0);
}

#[test]
fn docs_bad_warn_plus_unrelated_forbid_fires() {
    let src = include_str!("fixtures/docs_bad.rs");
    assert_eq!(count("crates/x/src/lib.rs", src, "docs/missing-deny"), 1);
}

#[test]
fn docs_clean_deny_passes() {
    let src = include_str!("fixtures/docs_clean.rs");
    assert_eq!(count("crates/x/src/lib.rs", src, "docs/missing-deny"), 0);
}

#[test]
fn docs_rule_only_applies_to_crate_roots() {
    let src = include_str!("fixtures/docs_bad.rs");
    assert_eq!(count(LIB, src, "docs/missing-deny"), 0);
}

#[test]
fn unsafe_bad_deny_or_no_attribute_fires_only_forbid_passes() {
    let src = include_str!("fixtures/unsafe_bad.rs");
    let root = "crates/x/src/lib.rs";
    let unsafe_findings = |src: &str| {
        lint_source(root, src)
            .iter()
            .filter(|f| f.rule == "docs/missing-deny" && f.message.contains("forbid(unsafe_code)"))
            .count()
    };
    assert_eq!(count(root, src, "docs/missing-deny"), 1);
    assert_eq!(unsafe_findings(src), 1, "deny can be switched back off");
    assert_eq!(unsafe_findings(&src.replace("#![deny(unsafe_code)]\n", "")), 1);
    assert_eq!(unsafe_findings(&src.replace("deny(unsafe_code)", "forbid(unsafe_code)")), 0);
    // The root package's `src/lib.rs` is a crate root too; other files are not.
    assert_eq!(count("src/lib.rs", src, "docs/missing-deny"), 1);
    assert_eq!(count(LIB, src, "docs/missing-deny"), 0);
}

#[test]
fn arena_bad_fires_on_method_path_and_stem_receivers() {
    let src = include_str!("fixtures/arena_bad.rs");
    // pkt.clone(), Packet::clone(packet), in_flight_pkt.clone().
    assert_eq!(count(LIB, src, "arena/no-packet-clone"), 3);
}

#[test]
fn arena_clean_handles_annotations_and_tests_pass() {
    let src = include_str!("fixtures/arena_clean.rs");
    assert_eq!(count(LIB, src, "arena/no-packet-clone"), 0);
}

#[test]
fn arena_module_itself_is_exempt() {
    let src = include_str!("fixtures/arena_bad.rs");
    assert_eq!(
        count("crates/netsim/src/arena.rs", src, "arena/no-packet-clone"),
        0
    );
}

#[test]
fn flow_bad_fires_on_index_iteration_and_flow_clones() {
    let src = include_str!("fixtures/flow_bad.rs");
    // by_key.iter() (for-loop + method), `for .. in &self.by_key`,
    // by_key.keys(), sender.clone(), flows.clone().
    assert!(count("crates/tcp/src/host.rs", src, "arena/no-flow-clone") >= 5);
    assert!(count("crates/flowgen/src/stream.rs", src, "arena/no-flow-clone") >= 5);
}

#[test]
fn flow_clean_lookup_slot_order_and_annotation_pass() {
    let src = include_str!("fixtures/flow_clean.rs");
    assert_eq!(count("crates/tcp/src/host.rs", src, "arena/no-flow-clone"), 0);
}

#[test]
fn flow_rule_only_applies_to_pool_code() {
    let src = include_str!("fixtures/flow_bad.rs");
    assert_eq!(count(LIB, src, "arena/no-flow-clone"), 0);
}

#[test]
fn decode_bad_fires_on_both_directions() {
    let src = include_str!("fixtures/decode_bad.rs");
    assert_eq!(count(LIB, src, "decode/raw-bytes"), 2);
}

#[test]
fn decode_clean_wire_calls_comments_and_tests_pass() {
    let src = include_str!("fixtures/decode_clean.rs");
    assert_eq!(count(LIB, src, "decode/raw-bytes"), 0);
}

#[test]
fn decode_rule_exempts_only_the_primitive_modules_and_non_library_paths() {
    let src = include_str!("fixtures/decode_bad.rs");
    assert_eq!(count("crates/stats/src/wire.rs", src, "decode/raw-bytes"), 0);
    assert_eq!(count("crates/stats/src/digest.rs", src, "decode/raw-bytes"), 0);
    assert_eq!(count("crates/stats/src/rng.rs", src, "decode/raw-bytes"), 2);
    assert_eq!(count("crates/x/tests/t.rs", src, "decode/raw-bytes"), 0);
}

#[test]
fn escape_bad_fires_at_every_name_no_rule_reads() {
    let src = include_str!("fixtures/escape_bad.rs");
    let at: Vec<(u32, u32)> = lint_source("crates/x/tests/it.rs", src)
        .iter()
        .filter(|f| f.rule == "allow/unknown-escape")
        .map(|f| (f.line, f.col))
        .collect();
    // Line comments, the second line of a block comment, two in one
    // doc comment, and the near-misses — in any file, tests included.
    assert_eq!(at, [(5, 8), (9, 4), (13, 4), (16, 5), (16, 33), (19, 4), (20, 4), (21, 4)]);
    // The misspelt escape escapes nothing: the finding it sat on fires.
    assert_eq!(count(LIB, src, "panic/library-unwrap"), 1);
    let named = lint_source(LIB, src).iter().any(|f| {
        f.message.starts_with("`lint: allow(library-unwrap)` is not an escape any rule reads")
            && f.message.ends_with("the live names are panic, cast, packet-clone, flow-clone")
    });
    assert!(named);
}

#[test]
fn escape_clean_live_names_silence_and_strings_are_not_comments() {
    let src = include_str!("fixtures/escape_clean.rs");
    for path in [LIB, "crates/replay/src/hash.rs", "crates/tcp/src/host.rs"] {
        assert_eq!(lint_source(path, src), [], "{path}");
    }
}
