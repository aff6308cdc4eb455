//! `determinism/wall-clock` and `determinism/ambient-rng`: library
//! code must not read wall clocks or ambient randomness.
//!
//! Every quantitative claim the workspace reproduces rests on
//! simulations being pure functions of `(config, seed)`. These two
//! rules are the token-aware replacements for the old grep gate
//! (`Instant::now|std::time::Instant|SystemTime|thread_rng|rand::`),
//! closing its blind spots:
//!
//! * renamed imports — `use std::time::Instant as Clock;` and
//!   `use std::time as tm; tm::Instant::now()` are caught through the
//!   scanner's alias table;
//! * comments and string literals no longer false-positive (the lexer
//!   never shows them to the rules);
//! * `use std::time::Duration` no longer needs to be avoided — only
//!   the clock types are flagged, not the whole module.
//!
//! One exemption, and it is a crate, not a file: `crates/bench/` (the
//! harness times stages, owns the CLI and the wall-clock
//! self-profiler `dui_bench::wallclock`). No library crate depends on
//! `dui-bench` (`tests/workspace.rs` holds every manifest to that), so
//! nothing these rules cover can reach a clock by calling through the
//! exempt code — the reach a per-file rule cannot see is closed by the
//! dependency direction instead.

use super::{finding_at, PathClass};
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::parse::ParsedFile;
use crate::scan::ScannedFile;

const WALL: &str = "determinism/wall-clock";
const RNG: &str = "determinism/ambient-rng";

/// The forbidden clock names in `std::time`: the two clock types, and
/// the constant whose `.elapsed()` is `SystemTime::now()` by another
/// spelling.
const CLOCK_NAMES: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];

fn is_std_time(path: &[String]) -> bool {
    matches!(path, [a, b, ..] if a == "std" && b == "time")
}

/// Turn a rule's raw `(code index, what)` hits into findings: one per
/// source position (the first form that matched there), each reading
/// `what — why`.
fn report(
    file: &ScannedFile<'_>,
    rule: &'static str,
    why: &str,
    hits: Vec<(usize, String)>,
    out: &mut Vec<Finding>,
) {
    let mut seen: Vec<(u32, u32)> = Vec::new();
    for (i, what) in hits {
        let t = file.ct(i);
        if !seen.contains(&(t.line, t.col)) {
            seen.push((t.line, t.col));
            let message = format!("{what} — {why}");
            out.push(finding_at(file, i, rule, Severity::Error, message));
        }
    }
}

/// `determinism/wall-clock`.
pub fn wall_clock(file: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &file.scan;
    if PathClass::of(file).is_bench() {
        return;
    }
    let mut hits: Vec<(usize, String)> = Vec::new();

    // (a) Imports of the clock types, under any alias, incl. globs of
    // the whole module.
    for u in &file.uses {
        let from_std_time = is_std_time(&u.path);
        let imports_clock = from_std_time
            && u.path
                .last()
                .is_some_and(|s| CLOCK_NAMES.contains(&s.as_str()) || u.local == "*");
        if imports_clock {
            // Anchor on the matching code token (the alias or segment).
            if let Some(i) = (0..file.code.len()).find(|&i| {
                let t = file.ct(i);
                t.line == u.line && t.col == u.col
            }) {
                hits.push((
                    i,
                    format!("imports wall-clock type `{}`", u.path.join("::")),
                ));
            }
        }
    }

    // (b)-(d) Path-expression forms.
    for i in 0..file.code.len() {
        let t = file.ct(i);
        if t.kind != TokKind::Ident {
            continue;
        }
        // (b) Fully-qualified `std::time::Instant` / `::SystemTime`.
        if t.text == "std"
            && file.path_sep(i + 1)
            && file.ctext(i + 3) == "time"
            && file.path_sep(i + 4)
            && CLOCK_NAMES.contains(&file.ctext(i + 6))
        {
            hits.push((i, format!("uses `std::time::{}`", file.ctext(i + 6))));
            continue;
        }
        // (c) Bare `Instant::now` / `SystemTime::now`.
        if CLOCK_NAMES.contains(&t.text) && file.path_sep(i + 1) && file.ctext(i + 3) == "now" {
            hits.push((i, format!("calls `{}::now`", t.text)));
            continue;
        }
        // (d) Through aliases: `Clock::now` where `use … as Clock`, or
        // `tm::Instant` where `use std::time as tm`.
        if file.path_sep(i + 1) {
            if let Some(u) = file.resolve_use(t.text) {
                let aliased_clock = is_std_time(&u.path)
                    && u.path.last().is_some_and(|s| CLOCK_NAMES.contains(&s.as_str()));
                let module_alias = u.path.len() == 2 && is_std_time(&u.path);
                if aliased_clock {
                    hits.push((i, format!("`{}` aliases `{}`", t.text, u.path.join("::"))));
                } else if module_alias && CLOCK_NAMES.contains(&file.ctext(i + 3)) {
                    hits.push((
                        i,
                        format!("`{}::{}` resolves to std::time", t.text, file.ctext(i + 3)),
                    ));
                }
            }
        }
    }
    report(
        file,
        WALL,
        "library code must be a pure function of (config, seed); simulated time comes \
         from SimTime, wall-clock timing belongs in crates/bench",
        hits,
        out,
    );
}

/// `determinism/ambient-rng`.
pub fn ambient_rng(file: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &file.scan;
    if PathClass::of(file).is_bench() {
        return;
    }
    let mut hits: Vec<(usize, String)> = Vec::new();
    // Ambient randomness entry points, caught as bare identifiers. The
    // full-token match means `strand` or `thread_rng_like` never
    // false-positive the way the old substring grep could.
    // `RandomState` is std's per-process random hasher seed: its
    // `build_hasher().finish()` is a random number in safe std.
    const AMBIENT_IDENTS: &[&str] = &[
        "thread_rng",
        "OsRng",
        "getrandom",
        "from_entropy",
        "RandomState",
    ];
    for i in 0..file.code.len() {
        let t = file.ct(i);
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = if AMBIENT_IDENTS.contains(&t.text) {
            Some(format!("uses ambient randomness source `{}`", t.text))
        } else if t.text == "rand" && file.path_sep(i + 1) {
            Some("uses the `rand` crate".to_string())
        } else if file.path_sep(i + 1) {
            file.resolve_use(t.text)
                .filter(|u| u.path.first().is_some_and(|s| s == "rand"))
                .map(|u| format!("`{}` aliases `{}`", t.text, u.path.join("::")))
        } else {
            None
        };
        if let Some(what) = hit {
            hits.push((i, what));
        }
    }
    // Imports rooted at the rand crate (aliased leaves are caught
    // above on use; the import itself is the declaration of intent).
    for u in &file.uses {
        if u.path.first().is_some_and(|s| s == "rand") {
            if let Some(i) = (0..file.code.len()).find(|&i| {
                let t = file.ct(i);
                t.line == u.line && t.col == u.col
            }) {
                hits.push((i, format!("imports `{}`", u.path.join("::"))));
            }
        }
    }
    report(
        file,
        RNG,
        "all randomness must flow from the seeded dui_stats::Rng so runs replay bit-identically",
        hits,
        out,
    );
}
