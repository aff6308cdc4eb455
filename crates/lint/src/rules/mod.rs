//! The shipped rules and the per-file entry point.
//!
//! [`FILE_RULES`] is the one list of them; the table
//! in `docs/lint.md` — what each forbids, where it applies, its escape
//! — is checked against it id for id by `tests/workspace.rs`. Each rule
//! is a function of one [`ParsedFile`]: nothing here looks across
//! files, so a finding depends only on the file it is in.
//!
//! The only way to silence a finding is the inline annotation the
//! owning rule documents (`// lint: allow(panic): <reason>` and its
//! `cast`, `packet-clone`, `flow-clone` siblings); a name no rule reads
//! is itself a finding ([`escapes`]).

pub mod arena;
pub mod casts;
pub mod decode;
pub mod determinism;
pub mod docs;
pub mod escapes;
pub mod hash;
pub mod panics;

use crate::findings::{Finding, Severity};
use crate::parse::ParsedFile;
use crate::scan::ScannedFile;

/// The rules, paired with their ids.
pub const FILE_RULES: &[(&str, fn(&ParsedFile<'_>, &mut Vec<Finding>))] = &[
    ("determinism/wall-clock", determinism::wall_clock),
    ("determinism/ambient-rng", determinism::ambient_rng),
    ("hash/unordered-iter", hash::unordered_iter),
    ("panic/library-unwrap", panics::library_unwrap),
    ("cast/lossy-in-digest", casts::lossy_in_digest),
    ("docs/missing-deny", docs::missing_deny),
    ("arena/no-packet-clone", arena::no_packet_clone),
    ("arena/no-flow-clone", arena::no_flow_clone),
    ("decode/raw-bytes", decode::raw_bytes),
    ("allow/unknown-escape", escapes::unknown_escape),
];

/// Run every per-file rule over one parsed file.
pub fn check_file(file: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    for (_, rule) in FILE_RULES {
        rule(file, out);
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

    /// The bench harness: the one crate exempt from the determinism
    /// rules (it times stages, owns the CLI and the wall-clock
    /// self-profiler). No library crate may depend on it — Cargo's
    /// dependency direction is the quarantine, held by
    /// `tests/workspace.rs`.
    pub fn is_bench(&self) -> bool {
        self.path.starts_with("crates/bench/")
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
    finding_at_pos(file, (t.line, t.col), rule, severity, message)
}

/// Construct a finding at a 1-based `(line, col)` of `file` that is not
/// a code token (a comment, the file as a whole).
pub(crate) fn finding_at_pos(
    file: &ScannedFile<'_>,
    (line, col): (u32, u32),
    rule: &'static str,
    severity: Severity,
    message: String,
) -> Finding {
    Finding {
        rule,
        severity,
        file: file.path.clone(),
        line,
        col,
        message,
        snippet: file.line_text(line).to_string(),
    }
}
