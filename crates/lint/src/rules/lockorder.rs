//! `parallel/lock-order`: cyclic lock-acquisition orders across the
//! concurrent subsystems are deadlocks waiting for the right
//! interleaving.
//!
//! Scope: the domain-parallel engine (`crates/netsim/src/parallel/`),
//! the streaming detection pipeline (`crates/supervisord/src/`), and
//! the bounded telemetry channel (`crates/telemetry/src/channel.rs`)
//! — the three places in the workspace where `std::sync` guards
//! actually contend.
//!
//! Per function the rule recovers the *lock-acquisition sequence*: a
//! `.lock()` call — or a `RwLock`'s argument-less `.read()` /
//! `.write()` — is an acquisition of a named lock identity (the
//! receiver chain, `self` replaced by the impl type, index
//! expressions collapsed — `self.slots[i]` and `self.slots[j]` are
//! the same identity), and the guard is held
//!
//! * to the end of the enclosing block when `let`-bound (honoring an
//!   explicit `drop(guard)`), or
//! * to the end of the statement when used as a temporary
//!   (`x.lock().push(…)`).
//!
//! Acquiring `B` while holding `A` records the order edge `A -> B`.
//! Sequences compose through the call graph: calling `f()` while
//! holding `A` adds `A -> L` for every lock in `f`'s transitive
//! acquisition summary, so a cycle split across two crates is still a
//! cycle. Distinct-identity cycles in the resulting order graph are
//! reported once each, with every constituent edge's witness site.
//! Self-edges are deliberately not reported: `slots[i]` vs `slots[j]`
//! collapse to one identity, and flagging `A -> A` would false-positive
//! every sharded-slot pattern the engine is built on.
//!
//! Escape hatch: `// lint: allow(lock-order): <reason>` on the
//! acquisition line (or the line above) drops that acquisition from
//! the analysis.

use crate::analysis::Analysis;
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::scan::ScannedFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

const RULE: &str = "parallel/lock-order";

/// The escape-hatch annotation.
pub const ALLOW: &str = "lint: allow(lock-order)";

/// Files whose lock acquisitions participate in the order graph.
fn in_scope(path: &str) -> bool {
    path.starts_with("crates/netsim/src/parallel/")
        || path.starts_with("crates/supervisord/src/")
        || path == "crates/telemetry/src/channel.rs"
}

/// One order edge `from -> to` with its witness site.
struct EdgeInfo {
    file: String,
    line: u32,
    col: u32,
    holder: u32,
    via: Option<u32>,
}

/// `parallel/lock-order`.
pub fn lock_order(a: &Analysis<'_>, out: &mut Vec<Finding>) {
    let n = a.symbols.symbols.len();
    // Per symbol: locks it acquires directly.
    let mut own: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    // `held -> acquired` pairs observed directly, with acquire sites.
    let mut acquire_edges: Vec<(String, String, u32, u32, u32)> = Vec::new();
    // Calls made while holding a lock: `(sid, held, target, line, col)`.
    let mut call_holds: Vec<(u32, String, u32, u32, u32)> = Vec::new();

    for (sid, sym) in a.symbols.symbols.iter().enumerate() {
        if sym.cfg_test {
            continue;
        }
        let Some(pf) = a.files.get(sym.file_idx as usize) else {
            continue;
        };
        if !in_scope(&pf.scan.path) {
            continue;
        }
        let Some(item) = pf.items.get(sym.item_idx as usize) else {
            continue;
        };
        let Some((b0, b1)) = item.body else {
            continue;
        };
        walk_body(
            a,
            sid as u32,
            sym.self_type.as_deref(),
            &pf.scan,
            b0,
            b1,
            &mut own[sid],
            &mut acquire_edges,
            &mut call_holds,
        );
    }

    // Transitive acquisition summaries: own locks plus everything
    // reachable through callees, to a fixed point (bounded — the
    // lattice height is the number of distinct lock identities).
    let mut summary = own;
    for _ in 0..=n {
        let mut changed = false;
        for sid in 0..n {
            let mut add: Vec<String> = Vec::new();
            for e in a.graph.callees.get(sid).into_iter().flatten() {
                let Some(other) = summary.get(e.other as usize) else {
                    continue;
                };
                for l in other {
                    if !summary[sid].contains(l) {
                        add.push(l.clone());
                    }
                }
            }
            for l in add {
                if summary[sid].insert(l) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // The lock-order graph, min witness site per edge.
    let mut adj: BTreeMap<String, BTreeMap<String, EdgeInfo>> = BTreeMap::new();
    let mut insert = |from: &str, to: &str, info: EdgeInfo| {
        let slot = adj
            .entry(from.to_string())
            .or_default()
            .entry(to.to_string());
        match slot {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(info);
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                let cur = o.get();
                if (info.file.as_str(), info.line, info.col)
                    < (cur.file.as_str(), cur.line, cur.col)
                {
                    o.insert(info);
                }
            }
        }
    };
    for (held, lock, sid, line, col) in &acquire_edges {
        let file = a.file_of(*sid).map_or(String::new(), |f| f.scan.path.clone());
        insert(
            held,
            lock,
            EdgeInfo {
                file,
                line: *line,
                col: *col,
                holder: *sid,
                via: None,
            },
        );
    }
    for (sid, held, target, line, col) in &call_holds {
        let Some(locks) = summary.get(*target as usize) else {
            continue;
        };
        for lock in locks {
            if lock == held {
                continue;
            }
            let file = a.file_of(*sid).map_or(String::new(), |f| f.scan.path.clone());
            insert(
                held,
                lock,
                EdgeInfo {
                    file,
                    line: *line,
                    col: *col,
                    holder: *sid,
                    via: Some(*target),
                },
            );
        }
    }

    // Shortest cycle through each node, canonicalized and deduped.
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in adj.keys() {
        if let Some(cycle) = shortest_cycle(&adj, start) {
            cycles.insert(canonical(cycle));
        }
    }

    for cycle in &cycles {
        let mut segments: Vec<String> = Vec::new();
        let mut anchor: Option<(&str, u32, u32)> = None;
        for k in 0..cycle.len() {
            let from = &cycle[k];
            let to = &cycle[(k + 1) % cycle.len()];
            let Some(info) = adj.get(from).and_then(|m| m.get(to)) else {
                continue;
            };
            let via = info
                .via
                .map_or(String::new(), |t| format!(" via `{}`", a.path_of(t)));
            segments.push(format!(
                "{from} -> {to} at {}:{} in `{}`{via}",
                info.file,
                info.line,
                a.path_of(info.holder),
            ));
            let cand = (info.file.as_str(), info.line, info.col);
            if anchor.map_or(true, |cur| cand < cur) {
                anchor = Some(cand);
            }
        }
        let Some((file, line, col)) = anchor else {
            continue;
        };
        let snippet = a
            .files
            .iter()
            .find(|f| f.scan.path == file)
            .map_or(String::new(), |f| f.scan.line_text(line).to_string());
        out.push(Finding {
            rule: RULE,
            severity: Severity::Error,
            file: file.to_string(),
            line,
            col,
            message: format!(
                "lock-order cycle [{}]: {} — lock acquisition order must be \
                 globally consistent; annotate the acquisition with `// lint: \
                 allow(lock-order): <reason>` if the overlap is provably impossible",
                cycle.join(", "),
                segments.join("; "),
            ),
            snippet,
            baselined: false,
        });
    }
}

/// Recover one function's acquisition sequence and call-under-lock
/// events from its body tokens.
#[allow(clippy::too_many_arguments)]
fn walk_body(
    a: &Analysis<'_>,
    sid: u32,
    self_type: Option<&str>,
    scan: &ScannedFile<'_>,
    b0: usize,
    b1: usize,
    own: &mut BTreeSet<String>,
    acquire_edges: &mut Vec<(String, String, u32, u32, u32)>,
    call_holds: &mut Vec<(u32, String, u32, u32, u32)>,
) {
    // Call sites of this symbol, addressed by the callee token position.
    let mut sites: BTreeMap<(u32, u32), &[u32]> = BTreeMap::new();
    for s in a.graph.sites.get(sid as usize).into_iter().flatten() {
        sites.insert((s.line, s.col), &s.targets);
    }
    // Locks held per enclosing block: `(identity, let binding)`.
    let mut blocks: Vec<Vec<(String, Option<String>)>> = vec![Vec::new()];
    // Unbound guard temporaries, live to the end of the statement.
    let mut stmt_locks: Vec<String> = Vec::new();
    // The binding introduced by the current `let` statement, if any.
    let mut stmt_let: Option<String> = None;

    let mut i = b0 + 1;
    while i < b1.min(scan.code.len()) {
        let t = *scan.ct(i);
        match (t.kind, t.text) {
            (TokKind::Punct, "{") => {
                blocks.push(Vec::new());
                stmt_locks.clear();
                stmt_let = None;
            }
            (TokKind::Punct, "}") => {
                if blocks.len() > 1 {
                    blocks.pop();
                } else if let Some(b) = blocks.last_mut() {
                    b.clear();
                }
                stmt_locks.clear();
                stmt_let = None;
            }
            (TokKind::Punct, ";") => {
                stmt_locks.clear();
                stmt_let = None;
            }
            (TokKind::Ident, "let") => {
                // The binding name: first ident after `let`, skipping
                // `mut` and pattern punctuation.
                let mut j = i + 1;
                while j < b1 {
                    let nt = scan.ct(j);
                    if nt.kind == TokKind::Ident && nt.text != "mut" {
                        stmt_let = Some(nt.text.to_string());
                        break;
                    }
                    if nt.kind == TokKind::Punct && matches!(nt.text, "=" | ";") {
                        break;
                    }
                    j += 1;
                }
            }
            (TokKind::Ident, "drop")
                if scan.ctext(i + 1) == "("
                    && scan.ct(i + 2).kind == TokKind::Ident
                    && scan.ctext(i + 3) == ")" =>
            {
                let name = scan.ctext(i + 2);
                for b in blocks.iter_mut() {
                    b.retain(|(_, bind)| bind.as_deref() != Some(name));
                }
            }
            (TokKind::Ident, name) if is_acquisition(scan, i, name) => {
                if !scan.line_or_above_contains(t.line, ALLOW) {
                    let identity = lock_identity(scan, i, self_type, t.line);
                    for (held, _) in blocks.iter().flatten() {
                        if *held != identity {
                            acquire_edges.push((
                                held.clone(),
                                identity.clone(),
                                sid,
                                t.line,
                                t.col,
                            ));
                        }
                    }
                    for held in &stmt_locks {
                        if *held != identity {
                            acquire_edges.push((
                                held.clone(),
                                identity.clone(),
                                sid,
                                t.line,
                                t.col,
                            ));
                        }
                    }
                    own.insert(identity.clone());
                    match &stmt_let {
                        Some(b) => {
                            if let Some(frame) = blocks.last_mut() {
                                frame.push((identity, Some(b.clone())));
                            }
                        }
                        None => stmt_locks.push(identity),
                    }
                }
            }
            (TokKind::Ident, _) => {
                if let Some(targets) = sites.get(&(t.line, t.col)) {
                    for (held, _) in blocks.iter().flatten() {
                        for &tgt in targets.iter() {
                            call_holds.push((sid, held.clone(), tgt, t.line, t.col));
                        }
                    }
                    for held in &stmt_locks {
                        for &tgt in targets.iter() {
                            call_holds.push((sid, held.clone(), tgt, t.line, t.col));
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Is code token `i` (an ident spelled `name`) the method of a guard
/// acquisition: `.lock(…)`, or a `RwLock`'s `.read()` / `.write()` —
/// told from `io::Read::read(buf)` and friends by taking no argument?
fn is_acquisition(scan: &ScannedFile<'_>, i: usize, name: &str) -> bool {
    scan.ctext(i.wrapping_sub(1)) == "."
        && scan.ctext(i + 1) == "("
        && (name == "lock" || (matches!(name, "read" | "write") && scan.ctext(i + 2) == ")"))
}

/// The lock identity of the receiver chain ending at the `.` before
/// code token `i` (which is the `lock` ident): idents joined with
/// `.`, a leading `self` replaced by the impl type, index expressions
/// collapsed to their base. A receiver that is not a simple chain
/// gets a per-line opaque identity.
fn lock_identity(
    scan: &ScannedFile<'_>,
    i: usize,
    self_type: Option<&str>,
    line: u32,
) -> String {
    let mut segs: Vec<String> = Vec::new();
    // j walks the chain leftward, starting at the token before `.`.
    let mut j = i.wrapping_sub(2);
    loop {
        if j >= scan.code.len() {
            break;
        }
        let t = scan.ct(j);
        if t.kind == TokKind::Punct && t.text == "]" {
            // Collapse `base[expr]` to `base`: skip to the matching `[`.
            let mut depth = 1i32;
            let mut k = j;
            while depth > 0 && k > 0 {
                k -= 1;
                match scan.ctext(k) {
                    "]" => depth += 1,
                    "[" => depth -= 1,
                    _ => {}
                }
            }
            if depth != 0 || k == 0 {
                return format!("<expr@{line}>");
            }
            j = k.wrapping_sub(1);
            continue;
        }
        if t.kind != TokKind::Ident {
            break;
        }
        segs.push(t.text.to_string());
        if j >= 2 && scan.ctext(j - 1) == "." {
            j -= 2;
            continue;
        }
        break;
    }
    if segs.is_empty() {
        return format!("<expr@{line}>");
    }
    segs.reverse();
    if segs[0] == "self" {
        segs[0] = self_type.unwrap_or("self").to_string();
    }
    segs.join(".")
}

/// Shortest cycle through `start`, BFS in sorted-neighbor order (so
/// the witness cycle is deterministic).
fn shortest_cycle(
    adj: &BTreeMap<String, BTreeMap<String, EdgeInfo>>,
    start: &str,
) -> Option<Vec<String>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for v in adj.get(u).map(|m| m.keys()).into_iter().flatten() {
            if v == start {
                // Reconstruct start -> … -> u.
                let mut path = vec![u];
                while let Some(&p) = parent.get(path[path.len() - 1]) {
                    path.push(p);
                }
                path.reverse();
                return Some(path.into_iter().map(str::to_string).collect());
            }
            if v != u && !parent.contains_key(v.as_str()) {
                parent.insert(v, u);
                queue.push_back(v);
            }
        }
    }
    None
}

/// Rotate a cycle so its lexicographically smallest node comes first.
fn canonical(mut cycle: Vec<String>) -> Vec<String> {
    let Some(min_pos) = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.as_str())
        .map(|(k, _)| k)
    else {
        return cycle;
    };
    cycle.rotate_left(min_pos);
    cycle
}
