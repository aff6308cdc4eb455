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
//! Sanctioned escapes, identical to the grep gate: `crates/bench/`
//! (the harness times stages and owns the CLI) and
//! `crates/telemetry/src/wallclock.rs` (the explicitly
//! non-deterministic self-profiler).
//!
//! The raw hit detectors (`wall_clock_hits`, `ambient_rng_hits`)
//! are shared with the transitive taint rules in
//! [`crate::rules::transitive`], which use them as seed sites.

use super::{finding_at, PathClass};
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::parse::ParsedFile;
use crate::scan::ScannedFile;

const WALL: &str = "determinism/wall-clock";
const RNG: &str = "determinism/ambient-rng";

/// The forbidden clock types in `std::time`.
const CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

fn is_std_time(path: &[String]) -> bool {
    matches!(path, [a, b, ..] if a == "std" && b == "time")
}

/// Raw wall-clock hits in one file, regardless of path sanctioning:
/// `(code index, what)` pairs, deduped by source position. `what` is
/// the short description the direct rule embeds in its message and
/// the transitive rules embed in seed descriptions.
pub(crate) fn wall_clock_hits(file: &ScannedFile<'_>) -> Vec<(usize, String)> {
    let mut hits: Vec<(usize, String)> = Vec::new();
    let mut seen: Vec<(u32, u32)> = Vec::new();
    let mut push = |i: usize, what: String, hits: &mut Vec<(usize, String)>| {
        let t = file.ct(i);
        if seen.contains(&(t.line, t.col)) {
            return;
        }
        seen.push((t.line, t.col));
        hits.push((i, what));
    };

    // (a) Imports of the clock types, under any alias, incl. globs of
    // the whole module.
    for u in &file.uses {
        let from_std_time = is_std_time(&u.path);
        let imports_clock = from_std_time
            && u.path
                .last()
                .is_some_and(|s| CLOCK_TYPES.contains(&s.as_str()) || u.local == "*");
        if imports_clock {
            // Anchor on the matching code token (the alias or segment).
            if let Some(i) = (0..file.code.len()).find(|&i| {
                let t = file.ct(i);
                t.line == u.line && t.col == u.col
            }) {
                push(
                    i,
                    format!("imports wall-clock type `{}`", u.path.join("::")),
                    &mut hits,
                );
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
            && CLOCK_TYPES.contains(&file.ctext(i + 6))
        {
            push(i, format!("uses `std::time::{}`", file.ctext(i + 6)), &mut hits);
            continue;
        }
        // (c) Bare `Instant::now` / `SystemTime::now`.
        if CLOCK_TYPES.contains(&t.text) && file.path_sep(i + 1) && file.ctext(i + 3) == "now" {
            push(i, format!("calls `{}::now`", t.text), &mut hits);
            continue;
        }
        // (d) Through aliases: `Clock::now` where `use … as Clock`, or
        // `tm::Instant` where `use std::time as tm`.
        if file.path_sep(i + 1) {
            if let Some(u) = file.resolve_use(t.text) {
                let aliased_clock = is_std_time(&u.path)
                    && u.path.last().is_some_and(|s| CLOCK_TYPES.contains(&s.as_str()));
                let module_alias = u.path.len() == 2 && is_std_time(&u.path);
                if aliased_clock {
                    push(
                        i,
                        format!("`{}` aliases `{}`", t.text, u.path.join("::")),
                        &mut hits,
                    );
                } else if module_alias && CLOCK_TYPES.contains(&file.ctext(i + 3)) {
                    push(
                        i,
                        format!("`{}::{}` resolves to std::time", t.text, file.ctext(i + 3)),
                        &mut hits,
                    );
                }
            }
        }
    }
    hits
}

/// `determinism/wall-clock`.
pub fn wall_clock(file: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &file.scan;
    if PathClass::of(file).determinism_sanctioned() {
        return;
    }
    for (i, what) in wall_clock_hits(file) {
        out.push(finding_at(
            file,
            i,
            WALL,
            Severity::Error,
            format!(
                "{what} — library code must be a pure function of (config, seed); \
                 simulated time comes from SimTime, wall-clock timing belongs in \
                 crates/bench or telemetry::wallclock"
            ),
        ));
    }
}

/// Raw ambient-randomness hits in one file, regardless of path
/// sanctioning: `(code index, what)` pairs, deduped by position.
pub(crate) fn ambient_rng_hits(file: &ScannedFile<'_>) -> Vec<(usize, String)> {
    let mut hits: Vec<(usize, String)> = Vec::new();
    let mut seen: Vec<(u32, u32)> = Vec::new();
    // Ambient randomness entry points, caught as bare identifiers. The
    // full-token match means `strand` or `thread_rng_like` never
    // false-positive the way the old substring grep could.
    const AMBIENT_IDENTS: &[&str] = &["thread_rng", "OsRng", "getrandom", "from_entropy"];
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
            if !seen.contains(&(t.line, t.col)) {
                seen.push((t.line, t.col));
                hits.push((i, what));
            }
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
                let t = file.ct(i);
                if !seen.contains(&(t.line, t.col)) {
                    seen.push((t.line, t.col));
                    hits.push((i, format!("imports `{}`", u.path.join("::"))));
                }
            }
        }
    }
    hits
}

/// `determinism/ambient-rng`.
pub fn ambient_rng(file: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &file.scan;
    if PathClass::of(file).determinism_sanctioned() {
        return;
    }
    for (i, what) in ambient_rng_hits(file) {
        out.push(finding_at(
            file,
            i,
            RNG,
            Severity::Error,
            format!(
                "{what} — all randomness must flow from the seeded dui_stats::Rng so \
                 runs replay bit-identically"
            ),
        ));
    }
}
