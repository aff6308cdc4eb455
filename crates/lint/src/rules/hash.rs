//! `hash/unordered-iter`: a state digest must never fold
//! unordered-container iteration, or the "same" state hashes
//! differently across runs.
//!
//! Scoped by the parser's function-boundary tracking. Two sub-rules:
//!
//! 1. `crates/replay` (the subsystem defining the digests) must not
//!    use `HashMap` / `HashSet` at all — everything it hashes is
//!    Vec-shaped.
//! 2. Inside any `fn state_digest` / `fn state_hash` body, map/set
//!    iteration (`.keys()`, `.values()`, or a `HashMap` / `HashSet`
//!    mention — alias-aware) is forbidden unless the line or the one
//!    above carries a `sorted` marker (a call like `flows_sorted()`,
//!    or a comment) or goes through `write_unordered`, the commutative
//!    fold built for exactly this case.

use super::{finding_at, PathClass};
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::parse::ParsedFile;
use crate::scan::ScannedFile;

const RULE: &str = "hash/unordered-iter";

const UNORDERED: &[&str] = &["HashMap", "HashSet"];
const DIGEST_FNS: &[&str] = &["state_digest", "state_hash"];

fn names_unordered(file: &ScannedFile<'_>, i: usize) -> Option<&'static str> {
    let t = file.ct(i);
    if t.kind != TokKind::Ident {
        return None;
    }
    if let Some(n) = UNORDERED.iter().find(|n| **n == t.text) {
        return Some(n);
    }
    // Aliased: `use std::collections::HashMap as Map;`
    file.resolve_use(t.text)
        .and_then(|u| u.path.last())
        .and_then(|last| UNORDERED.iter().find(|n| **n == last.as_str()))
        .copied()
}

/// `hash/unordered-iter`.
pub fn unordered_iter(parsed: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &parsed.scan;
    let class = PathClass::of(file);
    let in_replay = class.is_replay();
    for i in 0..file.code.len() {
        let t = file.ct(i);
        // Sub-rule 1: unordered containers banned outright in replay.
        if in_replay {
            if let Some(n) = names_unordered(file, i) {
                out.push(finding_at(
                    file,
                    i,
                    RULE,
                    Severity::Error,
                    format!(
                        "`{n}` is banned in crates/replay — everything the record/replay \
                         subsystem hashes is Vec-shaped (see docs/determinism.md, D3)"
                    ),
                ));
                continue;
            }
        }
        // Sub-rule 2: unordered iteration inside digest fn bodies.
        let in_digest_fn = parsed
            .enclosing_fn(i)
            .is_some_and(|name| DIGEST_FNS.contains(&name));
        if !in_digest_fn {
            continue;
        }
        let offending = if t.kind == TokKind::Ident
            && (t.text == "keys" || t.text == "values")
            && file.ctext(i.wrapping_sub(1)) == "."
            && file.ctext(i + 1) == "("
        {
            Some(format!(".{}() iteration", t.text))
        } else {
            names_unordered(file, i).map(|n| format!("`{n}` mention"))
        };
        if let Some(what) = offending {
            let suppressed = file.line_or_above_contains(t.line, "sorted")
                || file.line_or_above_contains(t.line, "write_unordered");
            if !suppressed {
                out.push(finding_at(
                    file,
                    i,
                    RULE,
                    Severity::Error,
                    format!(
                        "{what} inside `{}` feeds unordered iteration into a state \
                         digest — sort first (`*_sorted`) or fold via \
                         StateDigest::write_unordered",
                        parsed.enclosing_fn(i).unwrap_or(DIGEST_FNS[0]),
                    ),
                ));
            }
        }
    }
}
