//! `panic/library-unwrap`: `unwrap` / `expect` / `panic!` in library
//! paths are landmines under adversarial input — the paper's whole
//! premise is that inputs are attacker-controlled, so a library that
//! can be panicked is a library that can be crashed.
//!
//! Scope: `crates/*/src/**` and the root `src/**`, excluding
//! `src/bin/` (binaries may die on bad CLI input), `#[cfg(test)]` /
//! `#[test]`-gated bodies, and doc comments (doc examples are comment
//! text to the lexer and never reach the rules).
//!
//! Escape hatch: a `// lint: allow(panic): <reason>` comment on the
//! offending line or the line above. The reason is part of the
//! convention — an allow without a why does not document an invariant.

use super::{finding_at, PathClass};
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::parse::ParsedFile;

const RULE: &str = "panic/library-unwrap";

/// The escape-hatch annotation.
pub const ALLOW: &str = "lint: allow(panic)";

/// `panic/library-unwrap`.
pub fn library_unwrap(parsed: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &parsed.scan;
    if !PathClass::of(file).is_library_src() {
        return;
    }
    for i in 0..file.code.len() {
        let t = file.ct(i);
        if t.kind != TokKind::Ident {
            continue;
        }
        if parsed.ctx[i].cfg_test {
            continue;
        }
        let what = if (t.text == "unwrap" || t.text == "expect")
            && file.ctext(i.wrapping_sub(1)) == "."
            && file.ctext(i + 1) == "("
        {
            Some(format!(".{}()", t.text))
        } else if t.text == "panic" && file.ctext(i + 1) == "!" {
            Some("panic!".to_string())
        } else {
            None
        };
        if let Some(what) = what {
            if file.line_or_above_contains(t.line, ALLOW) {
                continue;
            }
            out.push(finding_at(
                file,
                i,
                RULE,
                Severity::Warning,
                format!(
                    "{what} in a library path — return a typed error, or document the \
                     invariant and annotate with `// {ALLOW}: <reason>`"
                ),
            ));
        }
    }
}
