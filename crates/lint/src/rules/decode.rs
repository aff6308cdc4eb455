//! `decode/raw-bytes`: library code must not turn bytes into integers,
//! or back, on its own.
//!
//! `.duir` recordings, checkpoints and node-state blobs come from
//! outside the process, and three consecutive PRs each patched a
//! length-prefix bug in a hand-rolled cursor. Every binary codec now
//! reads through `dui_stats::wire::Reader`, whose `count` refuses an
//! element count the remaining bytes cannot hold and whose narrowing
//! reads refuse instead of wrapping. This rule keeps it that way with
//! a token check rather than a dataflow one: `from_le_bytes` /
//! `to_le_bytes` outside `crates/stats/src/wire.rs` (the primitives)
//! and `crates/stats/src/digest.rs` (byte-string hashing, not a
//! decoder) is a finding. With no raw byte reads anywhere else, every
//! count necessarily passes through `Reader::count`.
//!
//! Scope: `crates/*/src/**` and the root `src/**`, outside
//! `#[cfg(test)]`. There is deliberately no `allow` annotation — a
//! new primitive belongs in `wire`.

use super::{finding_at, PathClass};
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::parse::ParsedFile;

const RULE: &str = "decode/raw-bytes";

const RAW_CONVERSIONS: &[&str] = &["from_le_bytes", "to_le_bytes"];

/// `decode/raw-bytes`.
pub fn raw_bytes(parsed: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &parsed.scan;
    let class = PathClass::of(file);
    if !class.is_library_src() || class.is_byte_primitive_module() {
        return;
    }
    for i in 0..file.code.len() {
        let t = file.ct(i);
        if t.kind != TokKind::Ident
            || !RAW_CONVERSIONS.contains(&t.text)
            || parsed.ctx[i].cfg_test
        {
            continue;
        }
        out.push(finding_at(
            file,
            i,
            RULE,
            Severity::Error,
            format!(
                "`{}` outside dui_stats::wire — read and write binary formats through \
                 wire::Reader / wire::Writer, which bound every count and narrowing",
                t.text
            ),
        ));
    }
}
