//! `docs/missing-deny`: every library crate root must carry
//! `#![deny(missing_docs)]` and `#![forbid(unsafe_code)]` — the two
//! crate-wide attributes that hand an invariant to `rustc`.
//!
//! The workspace's rustdoc gate (`RUSTDOCFLAGS="-D warnings"`) only
//! fires on lints that are *enabled*; `missing_docs` is allow-by-
//! default, so a crate without the deny attribute can silently grow
//! undocumented public API. This rule makes the attribute itself the
//! checked invariant: doc coverage then regresses at compile time, in
//! the offending crate, instead of never.
//!
//! `forbid(unsafe_code)` is what makes "it compiles" imply "no data
//! race": without `unsafe` there is no `static mut`, no `transmute`, no
//! `unsafe impl Send`, and the single-threaded interior-mutability
//! types (`Cell`, `RefCell`, `Rc`) cannot cross a thread boundary, so
//! the worker threads of the parallel engine and the supervisord
//! pipeline share only what `Send`/`Sync` allow. It must be `forbid`:
//! a `deny` can be switched back off by an `#[allow]` on one item.

use super::{finding_at_pos, PathClass};
use crate::findings::{Finding, Severity};
use crate::parse::ParsedFile;

const RULE: &str = "docs/missing-deny";

/// `docs/missing-deny`.
pub fn missing_deny(file: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &file.scan;
    let Some(crate_name) = PathClass::of(file).crate_root() else {
        return;
    };
    // One attribute must pair the level with the lint —
    // `#![warn(missing_docs)]` next to `#![forbid(unsafe_code)]` does
    // not count.
    let has = |lint: &str, levels: &[&str]| {
        file.inner_attrs.iter().any(|attr| {
            attr.iter().any(|s| s == lint) && attr.iter().any(|s| levels.contains(&s.as_str()))
        })
    };
    let mut report = |message: String| {
        out.push(finding_at_pos(
            file,
            (1, 1),
            RULE,
            Severity::Warning,
            message,
        ));
    };
    if !has("missing_docs", &["deny", "forbid"]) {
        report(format!(
            "crate root of `{crate_name}` lacks `#![deny(missing_docs)]` — public \
             API must stay documented (the rustdoc gate only checks enabled lints)"
        ));
    }
    if !has("unsafe_code", &["forbid"]) {
        report(format!(
            "crate root of `{crate_name}` lacks `#![forbid(unsafe_code)]` — thread \
             confinement of shared state is rustc's to prove, and only `forbid` \
             cannot be switched back off by an inner `#[allow]`"
        ));
    }
}
