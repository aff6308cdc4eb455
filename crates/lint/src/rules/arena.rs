//! The arena discipline rules: state that lives in a slab moves by
//! 8-byte handle, and nothing outside the slab may copy it by value or
//! iterate it through an unordered side index.
//!
//! `arena/no-packet-clone`: packet bodies live in the `dui-netsim`
//! `PacketArena` slab and move by 8-byte handle; cloning a `Packet`
//! anywhere else silently reintroduces
//! the by-value copies the arena refactor removed. The one sanctioned
//! clone site is `PacketArena::snapshot_packet` (checkpoint
//! materialization) inside `crates/netsim/src/arena.rs`, which this rule
//! exempts wholesale.
//!
//! `arena/no-flow-clone`: the same contract for per-flow TCP state,
//! which lives in `dui-tcp`'s `FlowPool` columns and moves by `FlowRef`.
//! In pool code (`crates/tcp/src/`, `crates/flowgen/src/`) the rule
//! forbids (a) iterating a `FlowKey`-keyed map — the `by_key` index is
//! a lookup structure; pool slot order is the canonical iteration
//! order, so iterating the map reintroduces the nondeterministic
//! `HashMap` walks (and their `sorted-keys` workarounds) the pool
//! refactor deleted — and (b) `.clone()` / `.cloned()` on bindings that
//! name pooled flow state (`flow`, `endpoint`, `conn`, `sender`,
//! `receiver` stems), which would copy a flow out of its columns.
//! Escape hatch: `// lint: allow(flow-clone): <reason>`.
//!
//! Token patterns caught (alias-unaware on purpose — `Packet` is never
//! re-aliased in this workspace):
//!
//! 1. `Packet::clone(..)` / `<Packet as Clone>::clone(..)` — an explicit
//!    path call through the type.
//! 2. `.clone()` / `.cloned()` whose receiver token names a packet
//!    (`pkt`, `packet`, or any ident containing those stems, e.g.
//!    `in_flight_pkt`).
//!
//! Scope: library paths only, `#[cfg(test)]` bodies excluded (tests
//! build fixtures by value).
//!
//! Escape hatch: `// lint: allow(packet-clone): <reason>` on the
//! offending line or the line above, mirroring the panic rule.

use super::{finding_at, PathClass};
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::parse::ParsedFile;
use crate::scan::ScannedFile;

const RULE: &str = "arena/no-packet-clone";
const FLOW_RULE: &str = "arena/no-flow-clone";

/// The escape-hatch annotation.
pub const ALLOW: &str = "lint: allow(packet-clone)";

/// The flow rule's escape-hatch annotation.
pub const FLOW_ALLOW: &str = "lint: allow(flow-clone)";

/// True if `text` names a packet binding by convention.
fn names_packet(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    lower.contains("pkt") || lower.contains("packet")
}

/// True if `text` names pooled flow state by convention.
fn names_flow(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    ["flow", "endpoint", "conn", "sender", "receiver"]
        .iter()
        .any(|stem| lower.contains(stem))
}

/// Method names that walk a map's entries.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// `arena/no-packet-clone`.
pub fn no_packet_clone(parsed: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &parsed.scan;
    let class = PathClass::of(file);
    if !class.is_library_src() || class.is_arena_module() {
        return;
    }
    for i in 0..file.code.len() {
        let t = file.ct(i);
        if t.kind != TokKind::Ident || (t.text != "clone" && t.text != "cloned") {
            continue;
        }
        if parsed.ctx[i].cfg_test {
            continue;
        }
        if file.ctext(i + 1) != "(" {
            continue;
        }
        let what = match file.ctext(i.wrapping_sub(1)) {
            // `Packet::clone(..)` or `<Packet as Clone>::clone(..)`.
            ":" if t.text == "clone" && file.ctext(i.wrapping_sub(3)) == "Packet" => {
                Some("Packet::clone(..)".to_string())
            }
            // `.clone()` / `.cloned()` on a packet-named receiver. The
            // receiver is the ident two tokens back, possibly behind a
            // closing `)` / `]` of a call or index chain — only the
            // plain-ident form is checked; chained calls go through the
            // explicit-path pattern or the receiver's own name.
            "." => {
                let recv = file.ctext(i.wrapping_sub(2));
                if names_packet(recv) {
                    Some(format!("{recv}.{}()", t.text))
                } else {
                    None
                }
            }
            _ => None,
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
                    "{what} copies a packet body outside the arena — move the \
                     PacketRef handle instead, or snapshot via \
                     PacketArena::snapshot_packet; if the copy is deliberate, \
                     annotate with `// {ALLOW}: <reason>`"
                ),
            ));
        }
    }
}

/// `arena/no-flow-clone`.
pub fn no_flow_clone(parsed: &ParsedFile<'_>, out: &mut Vec<Finding>) {
    let file = &parsed.scan;
    let class = PathClass::of(file);
    if !class.is_flow_pool_scope() {
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
        // (a) `for .. in ..by_key.. {` — a loop over the lookup index.
        // The pattern window is bounded: destructuring heads and the
        // iterated expression are short in practice.
        if t.text == "for" {
            let Some(at) = for_loop_over_by_key(file, i) else {
                continue;
            };
            let tk = file.ct(at);
            if !file.line_or_above_contains(tk.line, FLOW_ALLOW) {
                out.push(finding_at(
                    file,
                    at,
                    FLOW_RULE,
                    Severity::Warning,
                    format!(
                        "loop iterates the FlowKey-keyed index — `by_key` is a \
                         lookup structure; pool slot order (FlowPool::iter_refs) \
                         is the canonical iteration order; if the walk is \
                         deliberate, annotate with `// {FLOW_ALLOW}: <reason>`"
                    ),
                ));
            }
            continue;
        }
        let method_call = file.ctext(i + 1) == "(" && file.ctext(i.wrapping_sub(1)) == ".";
        if !method_call {
            continue;
        }
        let recv = file.ctext(i.wrapping_sub(2));
        // (b) iteration methods on the index.
        if ITER_METHODS.contains(&t.text) && recv.contains("by_key") {
            if file.line_or_above_contains(t.line, FLOW_ALLOW) {
                continue;
            }
            out.push(finding_at(
                file,
                i,
                FLOW_RULE,
                Severity::Warning,
                format!(
                    "{recv}.{}() iterates the FlowKey-keyed index — `by_key` is \
                     a lookup structure; pool slot order (FlowPool::iter_refs) \
                     is the canonical iteration order; if the walk is \
                     deliberate, annotate with `// {FLOW_ALLOW}: <reason>`",
                    t.text
                ),
            ));
            continue;
        }
        // (c) by-value clones of pooled flow state.
        if (t.text == "clone" || t.text == "cloned") && names_flow(recv) {
            if file.line_or_above_contains(t.line, FLOW_ALLOW) {
                continue;
            }
            out.push(finding_at(
                file,
                i,
                FLOW_RULE,
                Severity::Warning,
                format!(
                    "{recv}.{}() copies pooled flow state by value — move the \
                     FlowRef handle instead; if the copy is deliberate, \
                     annotate with `// {FLOW_ALLOW}: <reason>`",
                    t.text
                ),
            ));
        }
    }
}

/// For a `for` keyword at code index `i`, the code index of a token
/// naming `by_key` inside the loop's iterated expression, if any.
fn for_loop_over_by_key(file: &ScannedFile<'_>, i: usize) -> Option<usize> {
    let mut j = i + 1;
    // Find the `in` separating the pattern from the expression.
    loop {
        if j >= file.code.len() || j - i > 24 {
            return None;
        }
        let tj = file.ct(j);
        if tj.kind == TokKind::Ident && tj.text == "in" {
            break;
        }
        if tj.text == "{" {
            return None;
        }
        j += 1;
    }
    // Scan the expression up to the body brace.
    let start = j;
    j += 1;
    while j < file.code.len() && j - start <= 24 {
        let tj = file.ct(j);
        if tj.text == "{" {
            return None;
        }
        if tj.kind == TokKind::Ident && tj.text.contains("by_key") {
            return Some(j);
        }
        j += 1;
    }
    None
}
