//! Interprocedural rules: `determinism/transitive-wall-clock`,
//! `determinism/transitive-rng`, and `parallel/transitive-shared-mut`.
//!
//! The token-level determinism rules catch the function that calls
//! `Instant::now()`. These rules catch everything that *reaches* it:
//! a helper that launders a wall-clock read through two crates of
//! innocent-looking plumbing taints every caller on the path, and each
//! tainted function is reported with the exact witness call chain that
//! connects it to the seed. The chain is deterministic — the taint
//! engine ([`crate::taint`]) always picks the minimum-depth,
//! minimum-id path — so findings (and the baseline) are byte-stable.
//!
//! Flow directions differ per family:
//!
//! * clock/rng taint flows **caller-ward** ([`reach_callers`]): the
//!   seed is the function containing the forbidden read, and anything
//!   that can call into it inherits the impurity. Quarantine files
//!   (`crates/bench/`, `telemetry::wallclock`) and `#[cfg(test)]`
//!   items are barriers — a bench stage may time whatever it likes.
//! * shared-mut taint flows **callee-ward** ([`reach_callees`]): the
//!   seeds are the parallel-engine entry points, and anything they
//!   reach runs under the engine's ownership discipline even when it
//!   lives outside the engine's directories, so the banned constructs
//!   (`unsafe`, `static mut`, `RefCell`, …) are banned there too.
//!
//! Escape hatches are per *item*, not per line: `// lint:
//! allow(transitive-wall-clock): <reason>` (resp. `transitive-rng`,
//! `transitive-shared-mut`) on the line(s) above a `fn` both silences
//! the finding on that function and stops propagation through it.

use super::{determinism, parallel, PathClass};
use crate::analysis::Analysis;
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::scan::ScannedFile;
use crate::taint::{reach_callees, reach_callers};
use std::collections::BTreeMap;

const WALL: &str = "determinism/transitive-wall-clock";
const RNG: &str = "determinism/transitive-rng";
const SHARED: &str = "parallel/transitive-shared-mut";

/// Construct a finding at an explicit position in `sid`'s file.
fn finding_for(
    a: &Analysis<'_>,
    sid: u32,
    line: u32,
    col: u32,
    rule: &'static str,
    message: String,
) -> Option<Finding> {
    let file = a.file_of(sid)?;
    Some(Finding {
        rule,
        severity: Severity::Error,
        file: file.scan.path.clone(),
        line,
        col,
        message,
        snippet: file.scan.line_text(line).to_string(),
        baselined: false,
    })
}

/// Shared engine for the clock/rng pair: seed at per-file token hits,
/// propagate caller-ward, report every non-seed tainted symbol with
/// its witness chain. (Seeds themselves are the direct rules' job.)
fn transitive_from_hits(
    a: &Analysis<'_>,
    out: &mut Vec<Finding>,
    rule: &'static str,
    allow: &str,
    hits: &dyn Fn(&ScannedFile<'_>) -> Vec<(usize, String)>,
    reaches: &str,
    remedy: &str,
) {
    // Seed descriptions: symbol id -> what its body does, taken from
    // the first (lowest-position) hit inside the symbol.
    let mut seed_desc: BTreeMap<u32, String> = BTreeMap::new();
    for (fi, file) in a.files.iter().enumerate() {
        if PathClass::from_path(&file.scan.path).determinism_sanctioned() {
            continue;
        }
        for (i, what) in hits(&file.scan) {
            let owner = file.ctx.get(i).map_or(0, |c| c.owner);
            if owner == 0 {
                // File-level hit (a `use`, a const initializer): no
                // function to taint; the direct rule already flags it.
                continue;
            }
            let Some(sid) = a.symbols.id_of(fi as u32, owner) else {
                continue;
            };
            if a.symbols
                .symbols
                .get(sid as usize)
                .is_some_and(|s| s.cfg_test)
            {
                continue;
            }
            seed_desc.entry(sid).or_insert(what);
        }
    }
    let seeds: Vec<u32> = seed_desc.keys().copied().collect();
    let blocked = |sid: u32| -> bool {
        let Some(s) = a.symbols.symbols.get(sid as usize) else {
            return true;
        };
        if s.cfg_test {
            return true;
        }
        let Some(f) = a.files.get(s.file_idx as usize) else {
            return true;
        };
        if PathClass::from_path(&f.scan.path).determinism_sanctioned() {
            return true;
        }
        a.item_allows(sid).iter().any(|al| al == allow)
    };
    let taint = reach_callers(&a.graph, &seeds, &blocked);
    for (&sid, tr) in &taint {
        let Some((_, line, col)) = tr.via else {
            continue;
        };
        let chain = a.chain(sid, &taint);
        let Some(&seed) = chain.last() else {
            continue;
        };
        let desc = seed_desc.get(&seed).map_or("", String::as_str);
        let msg = format!(
            "`{}` reaches {reaches} through its call graph: {}; `{}` {desc} — \
             {remedy}, or annotate the item with `// lint: allow({allow}): <reason>`",
            a.path_of(sid),
            a.chain_str(&chain),
            a.path_of(seed),
        );
        if let Some(f) = finding_for(a, sid, line, col, rule, msg) {
            out.push(f);
        }
    }
}

/// `determinism/transitive-wall-clock`.
pub fn transitive_wall_clock(a: &Analysis<'_>, out: &mut Vec<Finding>) {
    transitive_from_hits(
        a,
        out,
        WALL,
        "transitive-wall-clock",
        &determinism::wall_clock_hits,
        "a wall-clock read",
        "library code must be a pure function of (config, seed); quarantine \
         timing in crates/bench or telemetry::wallclock",
    );
}

/// `determinism/transitive-rng`.
pub fn transitive_rng(a: &Analysis<'_>, out: &mut Vec<Finding>) {
    transitive_from_hits(
        a,
        out,
        RNG,
        "transitive-rng",
        &determinism::ambient_rng_hits,
        "an ambient randomness source",
        "all randomness must flow from the seeded dui_stats::Rng so runs \
         replay bit-identically",
    );
}

/// `parallel/transitive-shared-mut`: the banned shared-mutability
/// constructs, checked in everything *reachable from* the parallel
/// engine, not just inside its directories.
pub fn transitive_shared_mut(a: &Analysis<'_>, out: &mut Vec<Finding>) {
    let mut seeds: Vec<u32> = Vec::new();
    for (sid, s) in a.symbols.symbols.iter().enumerate() {
        if s.cfg_test {
            continue;
        }
        let Some(f) = a.files.get(s.file_idx as usize) else {
            continue;
        };
        if PathClass::from_path(&f.scan.path).is_parallel_engine() {
            seeds.push(sid as u32);
        }
    }
    let blocked =
        |sid: u32| -> bool { !a.symbols.symbols.get(sid as usize).is_some_and(|s| !s.cfg_test) };
    let taint = reach_callees(&a.graph, &seeds, &blocked);
    for (&sid, tr) in &taint {
        if tr.via.is_none() {
            continue; // engine-internal: the file rule covers it
        }
        let Some(pf) = a.file_of(sid) else {
            continue;
        };
        if PathClass::from_path(&pf.scan.path).is_parallel_engine() {
            continue; // ditto — reached but already in scope
        }
        if a.item_allows(sid)
            .iter()
            .any(|al| al == "transitive-shared-mut")
        {
            continue;
        }
        let Some(sym) = a.symbols.symbols.get(sid as usize) else {
            continue;
        };
        let mut chain = a.chain(sid, &taint);
        chain.reverse(); // entry -> … -> sid
        let entry = chain.first().copied().unwrap_or(sid);
        let chain_s = a.chain_str(&chain);
        // Scan exactly the tokens owned by this item (the `owner`
        // partition keeps nested fns from double-reporting).
        for i in 0..pf.scan.code.len() {
            if pf.ctx.get(i).map_or(0, |c| c.owner) != sym.item_idx {
                continue;
            }
            let t = pf.scan.ct(i);
            if t.kind != TokKind::Ident {
                continue;
            }
            let what = if t.text == "unsafe" {
                Some("`unsafe` code".to_string())
            } else if t.text == "static" && pf.scan.ctext(i + 1) == "mut" {
                Some("`static mut`".to_string())
            } else if parallel::BANNED_IDENTS.contains(&t.text) {
                Some(format!("`{}`", t.text))
            } else {
                None
            };
            let Some(what) = what else { continue };
            if pf.scan.line_or_above_contains(t.line, parallel::ALLOW) {
                continue;
            }
            let msg = format!(
                "{what} in `{}`, which runs under the parallel engine: {chain_s}; \
                 `{}` is an engine entry point — code reachable from the engine \
                 must honor its ownership discipline; use ownership or std::sync, \
                 or annotate the item with `// lint: allow(transitive-shared-mut): \
                 <reason>`",
                a.path_of(sid),
                a.path_of(entry),
            );
            if let Some(f) = finding_for(a, sid, t.line, t.col, SHARED, msg) {
                out.push(f);
            }
        }
    }
}
