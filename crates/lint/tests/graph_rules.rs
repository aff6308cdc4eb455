//! Fixture tests for the whole-workspace graph rules: cross-crate
//! taint laundering, quarantine barriers, per-item allows, a
//! cross-crate lock-order cycle, and engine-reachable shared
//! mutability. Witness call paths are asserted **byte-exactly** — the
//! chains are part of the analyzer's deterministic contract, not
//! decoration.

use dui_lint::{lint_sources, Finding};

fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect()
}

fn of<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

const WALL_SEED: &str = include_str!("fixtures/graph/wall_seed.rs");
const WALL_LAUNDER: &str = include_str!("fixtures/graph/wall_launder.rs");
const WALL_QUARANTINE: &str = include_str!("fixtures/graph/wall_quarantine_caller.rs");
const RNG_SEED: &str = include_str!("fixtures/graph/rng_seed.rs");
const RNG_LAUNDER: &str = include_str!("fixtures/graph/rng_launder.rs");
const LOCK_CYCLE_A: &str = include_str!("fixtures/graph/lock_cycle_a.rs");
const LOCK_CYCLE_B: &str = include_str!("fixtures/graph/lock_cycle_b.rs");
const LOCK_CLEAN: &str = include_str!("fixtures/graph/lock_clean.rs");
const SHARED_ENTRY: &str = include_str!("fixtures/graph/shared_entry.rs");
const SHARED_HELPER_BAD: &str = include_str!("fixtures/graph/shared_helper_bad.rs");
const SHARED_HELPER_CLEAN: &str = include_str!("fixtures/graph/shared_helper_clean.rs");

#[test]
fn wall_clock_taint_crosses_crates_with_exact_witness_chain() {
    let findings = lint_sources(&sources(&[
        ("crates/alpha/src/lib.rs", WALL_SEED),
        ("crates/beta/src/lib.rs", WALL_LAUNDER),
    ]));
    let hits = of(&findings, "determinism/transitive-wall-clock");
    // Exactly two tainted non-seed symbols: the same-crate wrapper and
    // the cross-crate launderer. The allowed item and its caller stay
    // clean (the allow is both a silencer and a propagation barrier).
    assert_eq!(hits.len(), 2, "findings: {findings:#?}");

    let wrapper = hits[0];
    assert_eq!(wrapper.file, "crates/alpha/src/lib.rs");
    assert_eq!((wrapper.line, wrapper.col), (11, 5));
    assert_eq!(
        wrapper.message,
        "`alpha::elapsed_ms` reaches a wall-clock read through its call graph: \
         alpha::elapsed_ms -> alpha::ticks; `alpha::ticks` uses `std::time::Instant` \
         — library code must be a pure function of (config, seed); quarantine timing \
         in crates/bench or telemetry::wallclock, or annotate the item with \
         `// lint: allow(transitive-wall-clock): <reason>`"
    );

    let launderer = hits[1];
    assert_eq!(launderer.file, "crates/beta/src/lib.rs");
    assert_eq!((launderer.line, launderer.col), (8, 5));
    assert_eq!(
        launderer.message,
        "`beta::schedule` reaches a wall-clock read through its call graph: \
         beta::schedule -> alpha::elapsed_ms -> alpha::ticks; `alpha::ticks` uses \
         `std::time::Instant` — library code must be a pure function of \
         (config, seed); quarantine timing in crates/bench or telemetry::wallclock, \
         or annotate the item with `// lint: allow(transitive-wall-clock): <reason>`"
    );
}

#[test]
fn bench_quarantine_blocks_caller_ward_taint() {
    let findings = lint_sources(&sources(&[
        ("crates/alpha/src/lib.rs", WALL_SEED),
        ("crates/beta/src/lib.rs", WALL_LAUNDER),
        ("crates/bench/src/stage.rs", WALL_QUARANTINE),
    ]));
    let hits = of(&findings, "determinism/transitive-wall-clock");
    assert_eq!(hits.len(), 2, "bench caller must not be flagged");
    assert!(hits.iter().all(|f| !f.file.starts_with("crates/bench/")));
}

#[test]
fn rng_taint_crosses_crates_with_exact_witness_chain() {
    let findings = lint_sources(&sources(&[
        ("crates/alpha/src/lib.rs", RNG_SEED),
        ("crates/beta/src/lib.rs", RNG_LAUNDER),
    ]));
    let hits = of(&findings, "determinism/transitive-rng");
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert_eq!(hits[0].file, "crates/beta/src/lib.rs");
    assert_eq!((hits[0].line, hits[0].col), (5, 16));
    assert_eq!(
        hits[0].message,
        "`beta::shuffle` reaches an ambient randomness source through its call \
         graph: beta::shuffle -> alpha::draw; `alpha::draw` uses ambient randomness \
         source `thread_rng` — all randomness must flow from the seeded \
         dui_stats::Rng so runs replay bit-identically, or annotate the item with \
         `// lint: allow(transitive-rng): <reason>`"
    );
}

#[test]
fn lock_order_cycle_across_two_crates_is_reported_once() {
    let findings = lint_sources(&sources(&[
        ("crates/netsim/src/parallel/order_a.rs", LOCK_CYCLE_A),
        ("crates/supervisord/src/lib.rs", LOCK_CYCLE_B),
    ]));
    let hits = of(&findings, "parallel/lock-order");
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert_eq!(hits[0].file, "crates/netsim/src/parallel/order_a.rs");
    assert_eq!((hits[0].line, hits[0].col), (11, 22));
    assert_eq!(
        hits[0].message,
        "lock-order cycle [LOCK_A, LOCK_B]: LOCK_A -> LOCK_B at \
         crates/netsim/src/parallel/order_a.rs:11 in \
         `netsim::parallel::order_a::forward` via `supervisord::bump_b`; \
         LOCK_B -> LOCK_A at crates/supervisord/src/lib.rs:17 in \
         `supervisord::reverse` via `supervisord::grab_a` — lock acquisition order \
         must be globally consistent; annotate the acquisition with \
         `// lint: allow(lock-order): <reason>` if the overlap is provably impossible"
    );
}

#[test]
fn rwlock_guards_take_part_in_the_lock_order() {
    // The same cycle through `RwLock`s: argument-less `.read()` and
    // `.write()` are acquisitions too.
    let a = LOCK_CYCLE_A.replace("Mutex", "RwLock").replace(".lock()", ".read()");
    let b = LOCK_CYCLE_B.replace("Mutex", "RwLock").replace(".lock()", ".write()");
    let findings = lint_sources(&sources(&[
        ("crates/netsim/src/parallel/order_a.rs", &a),
        ("crates/supervisord/src/lib.rs", &b),
    ]));
    let hits = of(&findings, "parallel/lock-order");
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert!(hits[0].message.starts_with("lock-order cycle [LOCK_A, LOCK_B]"));
}

#[test]
fn consistent_lock_order_and_sharded_reacquisition_are_clean() {
    let findings = lint_sources(&sources(&[(
        "crates/netsim/src/parallel/order_c.rs",
        LOCK_CLEAN,
    )]));
    assert!(of(&findings, "parallel/lock-order").is_empty());
}

#[test]
fn lock_order_allow_drops_the_acquisition() {
    // Same cycle, but the B-then-A acquisition is annotated away.
    let patched = LOCK_CYCLE_B.replace(
        "    let b = LOCK_B.lock();\n    grab_a();",
        "    // lint: allow(lock-order): fixture — audited, never overlaps\n    \
         let b = LOCK_B.lock();\n    grab_a();",
    );
    assert_ne!(patched, LOCK_CYCLE_B, "patch must apply");
    let findings = lint_sources(&sources(&[
        ("crates/netsim/src/parallel/order_a.rs", LOCK_CYCLE_A),
        ("crates/supervisord/src/lib.rs", &patched),
    ]));
    assert!(of(&findings, "parallel/lock-order").is_empty());
}

#[test]
fn shared_mut_reachable_from_engine_is_flagged_with_exact_chain() {
    let findings = lint_sources(&sources(&[
        ("crates/netsim/src/parallel/entry.rs", SHARED_ENTRY),
        ("crates/netsim/src/scratch.rs", SHARED_HELPER_BAD),
    ]));
    let hits = of(&findings, "parallel/transitive-shared-mut");
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert_eq!(hits[0].file, "crates/netsim/src/scratch.rs");
    assert_eq!((hits[0].line, hits[0].col), (5, 24));
    assert_eq!(
        hits[0].message,
        "`RefCell` in `netsim::scratch::bump`, which runs under the parallel \
         engine: netsim::parallel::entry::run_window -> netsim::scratch::bump; \
         `netsim::parallel::entry::run_window` is an engine entry point — code \
         reachable from the engine must honor its ownership discipline; use \
         ownership or std::sync, or annotate the item with \
         `// lint: allow(transitive-shared-mut): <reason>`"
    );
}

#[test]
fn shared_mut_clean_helper_and_unreachable_refcell_pass() {
    // std::sync helper reached from the engine: clean.
    let findings = lint_sources(&sources(&[
        ("crates/netsim/src/parallel/entry.rs", SHARED_ENTRY),
        ("crates/netsim/src/scratch.rs", SHARED_HELPER_CLEAN),
    ]));
    assert!(of(&findings, "parallel/transitive-shared-mut").is_empty());

    // RefCell helper NOT reached from any engine entry: clean.
    let findings = lint_sources(&sources(&[(
        "crates/netsim/src/scratch.rs",
        SHARED_HELPER_BAD,
    )]));
    assert!(of(&findings, "parallel/transitive-shared-mut").is_empty());
}

#[test]
fn shared_mut_item_allow_silences_the_finding() {
    let patched = SHARED_HELPER_BAD.replace(
        "pub fn bump() {",
        "// lint: allow(transitive-shared-mut): fixture — audited single-thread use\n\
         pub fn bump() {",
    );
    assert_ne!(patched, SHARED_HELPER_BAD, "patch must apply");
    let findings = lint_sources(&sources(&[
        ("crates/netsim/src/parallel/entry.rs", SHARED_ENTRY),
        ("crates/netsim/src/scratch.rs", &patched),
    ]));
    assert!(of(&findings, "parallel/transitive-shared-mut").is_empty());
}
