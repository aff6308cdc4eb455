//! `cast/lossy-in-digest`: `as u64` / `as f64` casts inside digest
//! paths silently truncate (`f64 as u64` drops the fraction and
//! saturates) or round (`u64 as f64` loses low bits above 2^53) — and
//! a digest that loses bits can call two *different* states "equal",
//! which is the one lie the record/replay subsystem must never tell.
//!
//! Scope: the digest-defining locations — `crates/replay/src/**` and
//! `crates/stats/src/digest.rs` — and within those only the contexts
//! that feed digests: bodies of `fn state_digest` / `fn state_hash` /
//! `fn config_digest`, and the `impl StateDigest` primitive layer
//! itself.
//!
//! The fix is to use the typed `StateDigest::write_*` methods (which
//! centralize the widening in one audited place) or `f64::to_bits`.
//! Escape hatch: `// lint: allow(cast): <reason>` on the line or the
//! line above — the `StateDigest` primitives themselves carry these,
//! with the losslessness argument spelled out per line.

use super::{finding_at, PathClass};
use crate::findings::{Finding, Severity};
use crate::parse::ParsedFile;

const RULE: &str = "cast/lossy-in-digest";

/// The escape-hatch annotation.
pub const ALLOW: &str = "lint: allow(cast)";

const DIGEST_FNS: &[&str] = &["state_digest", "state_hash", "config_digest"];
const DIGEST_IMPLS: &[&str] = &["StateDigest"];

/// `cast/lossy-in-digest`.
pub fn lossy_in_digest(parsed: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &parsed.scan;
    if !PathClass::of(file).is_digest_scope() {
        return;
    }
    for i in 0..file.code.len() {
        if file.ctext(i) != "as" {
            continue;
        }
        let target = file.ctext(i + 1);
        if target != "u64" && target != "f64" {
            continue;
        }
        let in_digest_fn = parsed
            .enclosing_fn(i)
            .is_some_and(|name| DIGEST_FNS.contains(&name));
        let in_digest_impl = parsed.enclosing_type(i).is_some_and(|(ty, tr)| {
            tr.is_some_and(|t| DIGEST_IMPLS.contains(&t)) || DIGEST_IMPLS.contains(&ty)
        });
        if !in_digest_fn && !in_digest_impl {
            continue;
        }
        let t = file.ct(i);
        if file.line_or_above_contains(t.line, ALLOW) {
            continue;
        }
        out.push(finding_at(
            file,
            i,
            RULE,
            Severity::Warning,
            format!(
                "`as {target}` in a digest path can lose bits — use the typed \
                 StateDigest::write_* methods or to_bits(), or annotate with \
                 `// {ALLOW}: <reason>` if the widening is provably lossless"
            ),
        ));
    }
}
