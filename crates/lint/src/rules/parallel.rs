//! `parallel/no-shared-mut`: the domain-parallel engine under
//! `crates/netsim/src/parallel/` and the streaming detection pipeline
//! under `crates/supervisord/src/` must not smuggle in unsynchronized
//! shared mutability.
//!
//! The parallel engine's determinism proof rests on a simple discipline:
//! during a window, workers touch only domain-owned state; everything
//! crossing domains moves through the single-threaded barrier. The safe
//! way to express that in Rust is ownership plus `std::sync` primitives
//! (`Mutex`, `Barrier`, `Arc` over immutable data) — which the borrow
//! checker then enforces. What this rule bans are the constructs that
//! opt *out* of that enforcement:
//!
//! * `unsafe` blocks/fns (including `transmute`) — sidestep the borrow
//!   checker entirely;
//! * `static mut` — ambient shared mutability, racy by construction;
//! * `UnsafeCell` — raw interior mutability;
//! * `Cell` / `RefCell` / `Rc` — single-threaded interior mutability
//!   and shared ownership; `!Sync`/`!Send`, so smuggling one across the
//!   worker boundary requires an `unsafe impl` that would lie about it.
//!
//! `std::sync` types are explicitly fine and deliberately not matched.
//!
//! Escape hatch: `// lint: allow(shared-mut): <reason>` on the
//! offending line or the line above, for the rare case where an audited
//! exception is genuinely needed.

use super::{finding_at, PathClass};
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::parse::ParsedFile;

const RULE: &str = "parallel/no-shared-mut";

/// The escape-hatch annotation.
pub const ALLOW: &str = "lint: allow(shared-mut)";

/// Type/function names whose bare appearance is a violation (also
/// matched by `parallel/transitive-shared-mut` outside the engine).
pub(crate) const BANNED_IDENTS: &[&str] = &["UnsafeCell", "RefCell", "Cell", "Rc", "transmute"];

/// `parallel/no-shared-mut`.
pub fn no_shared_mut(file: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &file.scan;
    if !PathClass::of(file).is_parallel_engine() {
        return;
    }
    let push = |i: usize, what: &str, out: &mut Vec<Finding>| {
        let t = file.ct(i);
        if file.line_or_above_contains(t.line, ALLOW) {
            return;
        }
        out.push(finding_at(
            file,
            i,
            RULE,
            Severity::Error,
            format!(
                "{what} in the parallel engine — domain state must be owned by \
                 exactly one worker per window, with cross-domain effects routed \
                 through the barrier; use ownership or std::sync, or annotate with \
                 `// {ALLOW}: <reason>`"
            ),
        ));
    };
    for i in 0..file.code.len() {
        let t = file.ct(i);
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "unsafe" {
            push(i, "`unsafe` code", out);
        } else if t.text == "static" && file.ctext(i + 1) == "mut" {
            push(i, "`static mut`", out);
        } else if BANNED_IDENTS.contains(&t.text) {
            // `Rc::new(...)`, `RefCell<...>`, `use std::cell::Cell`,
            // `mem::transmute(...)` — any appearance counts; there is no
            // benign use of these names inside the parallel engine.
            push(i, &format!("`{}`", t.text), out);
        }
    }
}
