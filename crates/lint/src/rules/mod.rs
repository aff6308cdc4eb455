//! The shipped rules and the per-file entry point.
//!
//! | id | severity | guards |
//! |----|----------|--------|
//! | `determinism/wall-clock` | error | no `std::time::Instant` / `SystemTime` in library code, alias-aware |
//! | `determinism/ambient-rng` | error | no `rand` crate / `thread_rng` / `OsRng` in library code |
//! | `hash/unordered-iter` | error | no unordered-container iteration feeding `state_digest` / `state_hash`; no `HashMap`/`HashSet` in `crates/replay` at all |
//! | `panic/library-unwrap` | warning | no `unwrap` / `expect` / `panic!` in library paths outside `#[cfg(test)]` |
//! | `cast/lossy-in-digest` | warning | no `as u64` / `as f64` inside `state_digest` / `state_hash` / `config_digest` bodies or the `StateDigest` primitives |
//! | `docs/missing-deny` | warning | every library crate root carries `#![deny(missing_docs)]` |
//! | `arena/no-packet-clone` | warning | no `Packet` clones outside `crates/netsim/src/arena.rs` — packets move by handle |
//! | `arena/no-flow-clone` | warning | no FlowKey-keyed map iteration or by-value flow clones in pool code (`crates/tcp/src/`, `crates/flowgen/src/`) — flows move by `FlowRef` |
//! | `parallel/no-shared-mut` | error | no `unsafe` / `static mut` / `UnsafeCell` / `Cell` / `RefCell` / `Rc` / `transmute` in `crates/netsim/src/parallel/` — `std::sync` only |
//! | `decode/raw-bytes` | error | no `from_le_bytes` / `to_le_bytes` in library code outside `crates/stats/src/wire.rs` and `digest.rs` — binary formats go through the bounded `wire::Reader` |
//! | `determinism/transitive-wall-clock` | error | nothing outside the quarantine *reaches* a wall-clock read through the call graph |
//! | `determinism/transitive-rng` | error | nothing outside the quarantine reaches an ambient randomness source |
//! | `parallel/lock-order` | error | lock-acquisition order is acyclic across the concurrent subsystems, composed through calls |
//! | `parallel/transitive-shared-mut` | error | the shared-mut ban extends to everything reachable *from* the parallel engine |
//!
//! The first ten are per-file token rules ([`FILE_RULES`]); the last
//! four run over the whole-workspace [`Analysis`] — symbol graph, call
//! graph, taint — and report witness call chains ([`GRAPH_RULES`]).
//!
//! Sanctioned escapes (documented per rule): `crates/bench/` and
//! `crates/telemetry/src/wallclock.rs` for the determinism rules
//! (direct and transitive); `sorted` / `write_unordered` markers for
//! the hash rule; `// lint: allow(panic)`, `// lint: allow(cast)`,
//! `// lint: allow(packet-clone)`, `// lint: allow(flow-clone)`, and
//! `// lint: allow(shared-mut)`
//! line annotations for the panic, cast, arena, and parallel rules;
//! per-item `// lint: allow(transitive-wall-clock)` /
//! `(transitive-rng)` / `(transitive-shared-mut)` / `(lock-order)`
//! annotations for the graph rules.

pub mod arena;
pub mod casts;
pub mod decode;
pub mod determinism;
pub mod docs;
pub mod hash;
pub mod lockorder;
pub mod panics;
pub mod parallel;
pub mod transitive;

use crate::analysis::Analysis;
use crate::findings::{Finding, Severity};
use crate::parse::ParsedFile;
use crate::scan::ScannedFile;

/// Rule ids in a stable order (for reports and summaries).
pub const RULE_IDS: &[&str] = &[
    "determinism/wall-clock",
    "determinism/ambient-rng",
    "hash/unordered-iter",
    "panic/library-unwrap",
    "cast/lossy-in-digest",
    "docs/missing-deny",
    "arena/no-packet-clone",
    "arena/no-flow-clone",
    "parallel/no-shared-mut",
    "decode/raw-bytes",
    "determinism/transitive-wall-clock",
    "determinism/transitive-rng",
    "parallel/lock-order",
    "parallel/transitive-shared-mut",
];

/// The per-file token rules, paired with their ids (for per-rule
/// timing in the bench self-profile).
pub const FILE_RULES: &[(&str, fn(&ParsedFile<'_>, &mut Vec<Finding>))] = &[
    ("determinism/wall-clock", determinism::wall_clock),
    ("determinism/ambient-rng", determinism::ambient_rng),
    ("hash/unordered-iter", hash::unordered_iter),
    ("panic/library-unwrap", panics::library_unwrap),
    ("cast/lossy-in-digest", casts::lossy_in_digest),
    ("docs/missing-deny", docs::missing_deny),
    ("arena/no-packet-clone", arena::no_packet_clone),
    ("arena/no-flow-clone", arena::no_flow_clone),
    ("parallel/no-shared-mut", parallel::no_shared_mut),
    ("decode/raw-bytes", decode::raw_bytes),
];

/// The whole-workspace graph rules, paired with their ids.
pub const GRAPH_RULES: &[(&str, fn(&Analysis<'_>, &mut Vec<Finding>))] = &[
    (
        "determinism/transitive-wall-clock",
        transitive::transitive_wall_clock,
    ),
    ("determinism/transitive-rng", transitive::transitive_rng),
    ("parallel/lock-order", lockorder::lock_order),
    (
        "parallel/transitive-shared-mut",
        transitive::transitive_shared_mut,
    ),
];

/// Run every per-file rule over one parsed file.
pub fn check_file(file: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    for (_, rule) in FILE_RULES {
        rule(file, out);
    }
}

/// Run every graph rule over the workspace analysis.
pub fn check_graph(a: &Analysis<'_>, out: &mut Vec<Finding>) {
    for (_, rule) in GRAPH_RULES {
        rule(a, out);
    }
}

/// Path classification shared by the rules. Paths are repo-relative
/// with `/` separators.
pub(crate) struct PathClass<'a> {
    path: &'a str,
}

impl<'a> PathClass<'a> {
    pub fn of(file: &'a ScannedFile<'_>) -> Self {
        PathClass { path: &file.path }
    }

    /// Classify a bare path (for the graph rules, which work from
    /// symbols rather than scanned files).
    pub fn from_path(path: &'a str) -> Self {
        PathClass { path }
    }

    /// The bench harness: sanctioned to read wall clocks (it times
    /// stages and owns the CLI).
    pub fn is_bench(&self) -> bool {
        self.path.starts_with("crates/bench/")
    }

    /// The explicitly non-deterministic self-profiler module.
    pub fn is_wallclock_module(&self) -> bool {
        self.path == "crates/telemetry/src/wallclock.rs"
    }

    /// Exempt from the determinism rules?
    pub fn determinism_sanctioned(&self) -> bool {
        self.is_bench() || self.is_wallclock_module()
    }

    /// Library source: `crates/<c>/src/**` or the root `src/**`,
    /// excluding `src/bin/` (binaries may panic on bad CLI input).
    pub fn is_library_src(&self) -> bool {
        let in_src = self.path.starts_with("src/")
            || (self.path.starts_with("crates/") && self.path.contains("/src/"));
        in_src && !self.path.contains("/src/bin/")
    }

    /// Inside the record/replay subsystem (unordered containers banned
    /// outright there)?
    pub fn is_replay(&self) -> bool {
        self.path.starts_with("crates/replay/")
    }

    /// The packet arena itself — the one sanctioned `Packet` clone site
    /// (`snapshot_packet`), exempt from `arena/no-packet-clone`.
    pub fn is_arena_module(&self) -> bool {
        self.path == "crates/netsim/src/arena.rs"
    }

    /// Pool code for `arena/no-flow-clone`: the crates whose per-flow
    /// state lives in `FlowPool` columns and moves by `FlowRef`.
    pub fn is_flow_pool_scope(&self) -> bool {
        self.path.starts_with("crates/tcp/src/") || self.path.starts_with("crates/flowgen/src/")
    }

    /// Inside the domain-parallel engine, where `parallel/no-shared-mut`
    /// bans unsynchronized shared mutability outright.
    pub fn is_parallel_engine(&self) -> bool {
        self.path.starts_with("crates/netsim/src/parallel/")
            || self.path.starts_with("crates/supervisord/src/")
    }

    /// A digest-defining file for `cast/lossy-in-digest` scoping.
    pub fn is_digest_scope(&self) -> bool {
        self.path.starts_with("crates/replay/src/") || self.path == "crates/stats/src/digest.rs"
    }

    /// The two modules that may convert between integers and bytes: the
    /// wire primitives, and the digest's byte-string hashing.
    pub fn is_byte_primitive_module(&self) -> bool {
        self.path == "crates/stats/src/wire.rs" || self.path == "crates/stats/src/digest.rs"
    }

    /// `Some(crate_dir_name)` when this is a library crate root
    /// (`crates/<c>/src/lib.rs`), or `Some("dui")` for the workspace
    /// root `src/lib.rs`.
    pub fn crate_root(&self) -> Option<&'a str> {
        if self.path == "src/lib.rs" {
            return Some("dui");
        }
        let rest = self.path.strip_prefix("crates/")?;
        let (name, tail) = rest.split_once('/')?;
        (tail == "src/lib.rs").then_some(name)
    }
}

/// Construct a finding anchored at code token `i` of `file`.
pub(crate) fn finding_at(
    file: &ScannedFile<'_>,
    i: usize,
    rule: &'static str,
    severity: Severity,
    message: String,
) -> Finding {
    let t = file.ct(i);
    Finding {
        rule,
        severity,
        file: file.path.clone(),
        line: t.line,
        col: t.col,
        message,
        snippet: file.line_text(t.line).to_string(),
        baselined: false,
    }
}
