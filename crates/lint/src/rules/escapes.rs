//! `allow/unknown-escape`: an escape comment whose name no rule reads
//! escapes nothing — and looks as if it did.
//!
//! Inline annotations are the only way to silence a finding, and each
//! is matched as an exact string by the rule that owns it. A misspelt
//! name (`library-unwrap` where `panic` was meant) or the name of a
//! retired rule therefore sits in the tree reading like an audited
//! exception while suppressing nothing. This rule reports it at the
//! comment. The live annotations are the owning rules' own `ALLOW`
//! constants, so an escape cannot be added or retired without this
//! rule following.
//!
//! Scope: every comment of every scanned file, tests and benches
//! included. Prose that describes the convention has to quote a live
//! annotation (`// lint: allow(panic): <reason>`), not a placeholder.

use super::{arena, casts, finding_at_pos, panics};
use crate::findings::{Finding, Severity};
use crate::parse::ParsedFile;

const RULE: &str = "allow/unknown-escape";

/// What every annotation starts with.
const MARK: &str = "lint: allow(";

/// The annotations some rule reads.
const LIVE: &[&str] = &[panics::ALLOW, casts::ALLOW, arena::ALLOW, arena::FLOW_ALLOW];

/// `allow/unknown-escape`.
pub fn unknown_escape(file: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &file.scan;
    for t in file.toks.iter().filter(|t| t.kind.is_comment()) {
        for (at, _) in t.text.match_indices(MARK) {
            let tail = &t.text[at..];
            if LIVE.iter().any(|live| tail.starts_with(live)) {
                continue;
            }
            // A block comment may span lines; columns are 1-based bytes.
            let before = &t.text[..at];
            let pos = match before.rfind('\n') {
                None => (t.line, t.col + at as u32),
                Some(nl) => (
                    t.line + before.matches('\n').count() as u32,
                    (at - nl) as u32,
                ),
            };
            let name = tail[MARK.len()..].split([')', '\n']).next().unwrap_or("");
            let live: Vec<&str> = LIVE.iter().map(|a| &a[MARK.len()..a.len() - 1]).collect();
            out.push(finding_at_pos(
                file,
                pos,
                RULE,
                Severity::Warning,
                format!(
                    "`{MARK}{name})` is not an escape any rule reads, so it suppresses \
                     nothing — the live names are {}",
                    live.join(", ")
                ),
            ));
        }
    }
}
