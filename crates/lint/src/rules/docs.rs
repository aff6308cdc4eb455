//! `docs/missing-deny`: every library crate root must carry
//! `#![deny(missing_docs)]`.
//!
//! The workspace's rustdoc gate (`RUSTDOCFLAGS="-D warnings"`) only
//! fires on lints that are *enabled*; `missing_docs` is allow-by-
//! default, so a crate without the deny attribute can silently grow
//! undocumented public API. This rule makes the attribute itself the
//! checked invariant: doc coverage then regresses at compile time, in
//! the offending crate, instead of never.

use super::PathClass;
use crate::findings::{Finding, Severity};
use crate::parse::ParsedFile;

const RULE: &str = "docs/missing-deny";

/// `docs/missing-deny`.
pub fn missing_deny(file: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &file.scan;
    let Some(crate_name) = PathClass::of(file).crate_root() else {
        return;
    };
    // One attribute must pair deny/forbid with missing_docs —
    // `#![warn(missing_docs)]` next to `#![forbid(unsafe_code)]` does
    // not count.
    let has_deny = file.inner_attrs.iter().any(|attr| {
        attr.iter().any(|s| s == "missing_docs")
            && attr.iter().any(|s| s == "deny" || s == "forbid")
    });
    if !has_deny {
        out.push(Finding {
            rule: RULE,
            severity: Severity::Warning,
            file: file.path.clone(),
            line: 1,
            col: 1,
            message: format!(
                "crate root of `{crate_name}` lacks `#![deny(missing_docs)]` — public \
                 API must stay documented (the rustdoc gate only checks enabled lints)"
            ),
            snippet: file.line_text(1).to_string(),
            baselined: false,
        });
    }
}
