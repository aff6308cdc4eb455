//! Corpus-level properties of the `.dsc` front end: every shipped example
//! parses and round-trips through the canonical printer, and so does
//! every scenario generated by walking the key table; the chaos
//! expansion is a pure function of (decls, seed); every bad fixture
//! fails with exactly the diagnostic recorded next to it; no mutation of
//! any of those files panics the parser; and `docs/scenarios.md`
//! documents the table row for row.

use std::fs;
use std::path::PathBuf;

use dui_scenario::chaos;
use dui_scenario::keys::{self, kind, opt, Bound, Case, Check, Dflt, Key, Ty, SECTIONS};
use dui_scenario::{parse_str, Scenario};
use dui_stats::propcheck::Gen;
use dui_stats::{prop_assert, prop_check, Rng};

fn repo_root() -> PathBuf {
    // crates/scenario -> crates -> repo root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

fn dsc_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "dsc"))
        .collect();
    files.sort();
    files
}

/// Every shipped scenario: the corpus, then the paper's own runs in
/// `paper/` (outside the corpus the benchmark froze).
fn shipped_files() -> Vec<PathBuf> {
    let dir = repo_root().join("examples/scenarios");
    let mut files = dsc_files(&dir);
    files.extend(dsc_files(&dir.join("paper")));
    files
}

/// parse -> print -> parse is a fixed point for every shipped scenario:
/// the second parse sees the canonical form and prints it unchanged.
#[test]
fn examples_roundtrip_through_canonical_print() {
    let files = shipped_files();
    assert!(
        files.len() >= 16 + 2,
        "corpus shrank to {} files",
        files.len()
    );
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).unwrap();
        let first =
            parse_str(&name, &text).unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
        let printed = first.print();
        let second = parse_str(&name, &printed)
            .unwrap_or_else(|e| panic!("{name} canonical form failed to re-parse: {e}"));
        assert_eq!(
            printed,
            second.print(),
            "{name}: print is not a fixed point of parse"
        );
    }
}

/// Every shipped scenario also compiles — the corpus never rots into
/// parse-only validity.
#[test]
fn examples_compile() {
    for path in shipped_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).unwrap();
        let sc = parse_str(&name, &text).unwrap();
        dui_scenario::compile(&sc).unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
    }
}

/// Chaos expansion is deterministic in (decls, seed) and the jitter
/// stream actually responds to the seed.
#[test]
fn chaos_expansion_is_seeded_and_deterministic() {
    let text = "\
[scenario]
name = chaos_probe
[topology]
kind = ring
nodes = 6
[workload]
kind = tcp
src = h0
dst = h3
[chaos]
link_flap = r0-r1 at=5s down=2s repeat=4 every=8s jitter=3s
router_churn = r2 at=10s down=1s repeat=2 every=6s jitter=2s
";
    let sc = parse_str("chaos_probe.dsc", text).unwrap();
    let a = chaos::expand(&sc.chaos, 7);
    let b = chaos::expand(&sc.chaos, 7);
    assert_eq!(a, b, "same seed must reproduce the same schedule");
    let c = chaos::expand(&sc.chaos, 8);
    assert_ne!(a, c, "jittered schedule ignored the seed");
    // Windows arrive sorted by (start, decl, end) — the runner's boundary
    // loop depends on it.
    for w in a.windows(2) {
        let key = |x: &chaos::ChaosWindow| (x.start, x.decl, x.end);
        assert!(key(&w[0]) <= key(&w[1]), "schedule not sorted");
    }
}

/// Every fixture under tests/fixtures/bad fails to parse with exactly
/// the diagnostic in its sibling `.err` file (full `file:line:col:
/// message` rendering).
#[test]
fn bad_fixtures_fail_with_recorded_diagnostics() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad");
    let files = dsc_files(&dir);
    assert!(
        files.len() >= 14,
        "bad corpus shrank to {} files",
        files.len()
    );
    let mut mismatches = Vec::new();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).unwrap();
        let actual = match parse_str(&name, &text) {
            Err(e) => e.to_string(),
            Ok(_) => format!("{name}: unexpectedly parsed"),
        };
        let err_path = path.with_extension("err");
        let expected = fs::read_to_string(&err_path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "<missing .err file>".to_string());
        if actual != expected {
            mismatches.push(format!(
                "{name}:\n  expected: {expected}\n  actual:   {actual}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "fixture diagnostics drifted:\n{}",
        mismatches.join("\n")
    );
}

// ---- scenarios generated from the key table ------------------------------

/// Which end of a bound to sample.
#[derive(Clone, Copy, Debug)]
enum At {
    Lo,
    Hi,
    Mid(u64),
}

/// Text of a value of `key`'s type that passes `case`'s bound.
fn value(key: &Key, case: &Case, at: At) -> String {
    let (lo, hi) = match (case.bound.check, key.ty) {
        (Check::Range(lo, hi), Ty::U32) => (lo, hi.min(u32::MAX.into())),
        (Check::Range(lo, hi), _) => (lo, hi),
        (Check::Even(lo, hi), _) => (lo, hi),
        (_, Ty::U32) => (0, u32::MAX.into()),
        _ => (0, u64::MAX),
    };
    let n = match at {
        At::Lo => lo,
        At::Hi => hi,
        At::Mid(r) => lo + r % (hi - lo).clamp(1, 9_999),
    };
    let n = if matches!(case.bound.check, Check::Even(..)) {
        n - n % 2
    } else {
        n
    };
    let top = if let Check::Unit(hi) = case.bound.check {
        hi
    } else {
        1000.0
    };
    match (key.ty, at) {
        (Ty::Int | Ty::U32, _) => n.to_string(),
        (Ty::F64, At::Lo) => "0".to_string(),
        (Ty::F64, At::Hi) => top.to_string(),
        (Ty::F64, At::Mid(r)) => (top * (r % 1000) as f64 / 1000.0).to_string(),
        (Ty::Bool, at) => (case.bound.check == Check::True || !matches!(at, At::Lo)).to_string(),
        (Ty::Duration | Ty::Time, _) => format!("{n}ns"),
        (Ty::Name, At::Lo) => "x".to_string(),
        (Ty::Name, _) => format!("A-b_{n}"),
        (Ty::Node, _) => format!("h{}", n % 100),
        (Ty::Nodes, At::Lo) => "h0".to_string(),
        (Ty::Nodes, _) if case.bound.check == Check::Single => format!("h{}", n % 100),
        (Ty::Nodes, _) => "h0, h1 ,r2".to_string(),
        (Ty::Pair, _) => "r0-r1".to_string(),
        (Ty::Attack, at) => format!(
            "{}{}",
            kind::BOUNCE,
            options(kind::BOUNCE, &mut |_| Some(at))
        ),
        (Ty::Counter, _) => format!("netsim.drop.ttl   {n}"),
        (Ty::Kind(list, _), _) => list[(n % list.len() as u64) as usize].to_string(),
        (Ty::Decl, at) => {
            let target = match (key.name, at) {
                (kind::LINK_FLAP, At::Hi) => keys::PRIMARY,
                (kind::LINK_FLAP, _) => "r0-r1",
                (kind::PARTITION, _) => "r0, r1 | r2,r3",
                (kind::ROUTER_CHURN, _) => "r2",
                _ => "",
            };
            // Lo: the required options only; otherwise all of them.
            let all = !matches!(at, At::Lo);
            format!("{target}{}", options(key.name, &mut |_| all.then_some(at)))
        }
    }
}

/// ` opt=value` for every option that applies to declaration `decl`:
/// required ones always, the others when `take` says so.
fn options(decl: &str, take: &mut dyn FnMut(&Key) -> Option<At>) -> String {
    let mut out = String::new();
    let mut repeats = false;
    for (i, key) in opt::KEYS.iter().enumerate() {
        let Some(case) = key.case(Some(decl)) else {
            continue;
        };
        let forced = case.dflt == Dflt::Required || (i == opt::EVERY && repeats);
        if let Some(at) = take(key).or(forced.then_some(At::Lo)) {
            let v = value(key, case, at);
            repeats |= i == opt::REPEAT && v != "1";
            out += &format!(" {}={v}", key.name);
        }
    }
    out
}

/// The three required sections on kinds `tk`/`wk`, then `tail`: required
/// keys always (at their bound's low edge unless `take` says otherwise),
/// the rest when `take` returns a value for them.
fn scenario_text(
    tk: &str,
    wk: &str,
    take: &mut dyn FnMut(usize, &Key, &Case) -> Option<String>,
    tail: &str,
) -> String {
    let mut out = String::new();
    for (si, kind) in [
        (keys::SCENARIO, None),
        (keys::TOPOLOGY, Some(tk)),
        (keys::WORKLOAD, Some(wk)),
    ] {
        out += &format!("[{}]\n", SECTIONS[si].name);
        for key in SECTIONS[si].keys {
            let v = match (key.ty, key.case(kind)) {
                (Ty::Kind(..), _) => kind.map(String::from),
                (_, Some(case)) => take(si, key, case)
                    .or_else(|| (case.dflt == Dflt::Required).then(|| value(key, case, At::Lo))),
                (_, None) => None,
            };
            if let Some(v) = v {
                out += &format!("{} = {v}\n", key.name);
            }
        }
    }
    out + tail
}

/// `parse(print(s)) == s` and `print(parse(print(s))) == print(s)`.
fn fixed_point(text: &str) -> Result<Scenario, String> {
    let s = parse_str("generated.dsc", text).map_err(|e| format!("{e}\n{text}"))?;
    let printed = s.print();
    let again = parse_str("printed.dsc", &printed).map_err(|e| format!("{e}\n{printed}"))?;
    if again != s {
        return Err(format!(
            "parse(print(s)) != s\n{text}\n-- printed --\n{printed}"
        ));
    }
    if again.print() != printed {
        return Err(format!(
            "print is not a fixed point\n{text}\n-- printed --\n{printed}"
        ));
    }
    Ok(s)
}

/// Every kind a case covers; the one kindless pseudo-kind otherwise.
fn kinds_of(case: &Case) -> Vec<&'static str> {
    if case.kinds.is_empty() {
        vec![kind::BLINK]
    } else {
        case.kinds.to_vec()
    }
}

/// Every key of the three required sections, on every kind it applies
/// to, at both edges of its bound and inside it — and absent, which must
/// read as the table's default.
#[test]
fn every_key_on_every_kind_round_trips() {
    let mut checked = 0;
    for si in [keys::SCENARIO, keys::TOPOLOGY, keys::WORKLOAD] {
        for key in SECTIONS[si]
            .keys
            .iter()
            .filter(|k| !matches!(k.ty, Ty::Kind(..)))
        {
            for (case, kind) in key
                .cases
                .iter()
                .flat_map(|c| kinds_of(c).into_iter().map(move |k| (c, k)))
            {
                let (tk, wk) = match si {
                    keys::TOPOLOGY => (kind, kind::BLINK),
                    keys::WORKLOAD => (kind::BLINK, kind),
                    _ => (kind::BLINK, kind::BLINK),
                };
                let with = |text: Option<String>| {
                    let mut take = |s: usize, k: &Key, _: &Case| {
                        text.clone().filter(|_| s == si && k.name == key.name)
                    };
                    fixed_point(&scenario_text(tk, wk, &mut take, "")).unwrap_or_else(|e| {
                        panic!("[{}] {} on {kind}: {e}", SECTIONS[si].name, key.name)
                    })
                };
                for at in [At::Lo, At::Hi, At::Mid(7)] {
                    with(Some(value(key, case, at)));
                    checked += 1;
                }
                if let Dflt::Is(default) = case.dflt {
                    assert_eq!(
                        with(None),
                        with(Some(default.to_string())),
                        "{} default on {kind}",
                        key.name
                    );
                } else if case.dflt == Dflt::Unset {
                    with(None);
                }
            }
        }
    }
    // 3 scenario keys + 6 topology (key, kind) pairs + 42 workload pairs.
    assert_eq!(checked, 3 * (3 + 6 + 42));
}

/// All `[chaos]` rows (declarations with only their required options and
/// with every option) and all `[expect]` rows, at both edges.
#[test]
fn every_chaos_and_expect_row_round_trips() {
    for (si, rows) in [(keys::CHAOS, 5), (keys::EXPECT, 21)] {
        assert_eq!(SECTIONS[si].keys.len(), rows);
        for key in SECTIONS[si].keys {
            for at in [At::Lo, At::Hi, At::Mid(12_345)] {
                let line = format!("{} = {}", key.name, value(key, &key.cases[0], at));
                let tail = format!("[{}]\n{line}\n", SECTIONS[si].name);
                let s = fixed_point(&scenario_text(
                    kind::LINEAR,
                    kind::TCP,
                    &mut |_, _, _| None,
                    &tail,
                ))
                .unwrap_or_else(|e| panic!("{line}: {e}"));
                let parsed = s.chaos.len() + s.expect.len() + usize::from(s.chaos_seed.is_some());
                assert_eq!(parsed, 1, "{line}");
            }
        }
    }
}

fn at(g: &mut Gen) -> At {
    match g.u8(0..3) {
        0 => At::Lo,
        1 => At::Hi,
        _ => At::Mid(g.any_u64()),
    }
}

// Random kinds, random subsets of the optional keys at random points of
// their bounds, random chaos and expectation lines.
prop_check! {
    fn generated_scenarios_round_trip(g) {
        let kinds = |si: usize| match SECTIONS[si].keys[0].ty {
            Ty::Kind(list, _) => list,
            _ => unreachable!("section opens with kind"),
        };
        let tk = kinds(keys::TOPOLOGY)[g.usize(0..8)];
        let wk = kinds(keys::WORKLOAD)[g.usize(0..6)];
        let mut tail = String::new();
        for si in [keys::CHAOS, keys::EXPECT] {
            let rows = g.vec(0..5, |g| (g.usize(0..SECTIONS[si].keys.len()), at(g)));
            if rows.is_empty() {
                continue;
            }
            tail += &format!("[{}]\n", SECTIONS[si].name);
            let mut seeded = false;
            for (row, at) in rows {
                let key = &SECTIONS[si].keys[row];
                if si == keys::CHAOS && key.ty == Ty::Int && std::mem::replace(&mut seeded, true) {
                    continue;
                }
                tail += &format!("{} = {}\n", key.name, value(key, &key.cases[0], at));
            }
        }
        let mut take = |_: usize, key: &Key, case: &Case| g.bool().then(|| value(key, case, at(g)));
        let text = scenario_text(tk, wk, &mut take, &tail);
        let outcome = fixed_point(&text);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

// ---- hostile input -----------------------------------------------------------

/// Every shipped scenario and every bad fixture.
fn seed_files() -> Vec<(String, Vec<u8>)> {
    let bad = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad");
    let mut files = shipped_files();
    files.extend(dsc_files(&bad));
    assert!(
        files.len() >= 16 + 2 + 14,
        "seed corpus shrank to {} files",
        files.len()
    );
    files
        .into_iter()
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read(&p).unwrap(),
            )
        })
        .collect()
}

/// `parse_str` returns — `Ok`, or an `Err` positioned inside the text.
fn parses_or_points_inside(what: &str, bytes: &[u8]) {
    // Bytes that are not UTF-8 (a flipped bit, a split code point) reach
    // the parser the way a caller reading a file lossily would pass them.
    let text = String::from_utf8_lossy(bytes);
    if let Err(e) = parse_str("mutant.dsc", &text) {
        let lines = text.lines().count() as u32;
        assert!(
            (1..=lines + 1).contains(&e.line) && e.col >= 1,
            "{what}: {e} outside {lines} lines"
        );
    }
}

/// Seeded mutation of the whole corpus: truncation at every byte (so
/// also inside multi-byte characters), line drop / duplicate / swap, and
/// random byte flips, inserts and deletes. Never a panic, never a hang,
/// never a position outside the text.
#[test]
fn mutated_corpus_never_panics_the_parser() {
    let mut rng = Rng::new(0xD5C);
    for (name, bytes) in seed_files() {
        for cut in 0..=bytes.len() {
            parses_or_points_inside(&format!("{name} cut at {cut}"), &bytes[..cut]);
        }
        let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
        for i in 0..lines.len() {
            let mut dropped = lines.clone();
            dropped.remove(i);
            parses_or_points_inside(&format!("{name} without line {i}"), &dropped.concat());
            let mut doubled = lines.clone();
            doubled.insert(i, lines[i]);
            parses_or_points_inside(&format!("{name} line {i} twice"), &doubled.concat());
            let mut swapped = lines.clone();
            swapped.swap(i, rng.below_usize(lines.len()));
            parses_or_points_inside(&format!("{name} line {i} swapped"), &swapped.concat());
        }
        for round in 0..400 {
            let mut m = bytes.clone();
            for _ in 0..=rng.below(3) {
                let i = rng
                    .below_usize(m.len().max(1))
                    .min(m.len().saturating_sub(1));
                match rng.below(3) {
                    0 if !m.is_empty() => m[i] ^= 1 << rng.below(8),
                    1 => m.insert(i.min(m.len()), *rng.pick(b"=[]#-,| \n\t0x\xc3\xff")),
                    _ if !m.is_empty() => drop(m.remove(i)),
                    _ => {}
                }
            }
            parses_or_points_inside(&format!("{name} mutation {round}"), &m);
        }
    }
}

// ---- docs/scenarios.md documents the table -----------------------------------

/// The first five cells of the documentation row of one (key, case).
fn doc_row(key: &Key, case: &Case) -> String {
    let ty = match key.ty {
        Ty::Kind(..) => "kind".to_string(),
        ty => format!("{ty:?}").to_lowercase(),
    };
    let kinds = if case.kinds.is_empty() {
        "—".to_string()
    } else {
        case.kinds.join(", ")
    };
    let default = match case.dflt {
        Dflt::Required => "*(required)*".to_string(),
        Dflt::Unset => "*(unset)*".to_string(),
        Dflt::Is(text) => format!("`{text}`"),
    };
    let bound = match (key.ty, case.bound) {
        (Ty::Kind(_, one_of), _) => one_of,
        (
            _,
            Bound {
                check: Check::Any, ..
            },
        ) => "—",
        (_, Bound { expected, .. }) => expected,
    };
    format!("| `{}` | {ty} | {kinds} | {default} | {bound} |", key.name)
}

/// Every row of `keys.rs` appears in its section's table of the chapter
/// with its type, kinds, default and bound — and the chapter documents
/// no key the table lacks.
#[test]
fn docs_document_the_key_table_row_for_row() {
    let chapter = fs::read_to_string(repo_root().join("docs/scenarios.md")).unwrap();
    let tables = SECTIONS
        .iter()
        .map(|s| (format!("### `[{}]`", s.name), s.keys))
        .chain([("### Declaration options".to_string(), opt::KEYS)]);
    for (heading, rows) in tables {
        let at = chapter
            .find(&heading)
            .unwrap_or_else(|| panic!("no '{heading}' in docs/scenarios.md"));
        let body = &chapter[at + heading.len()..];
        let body = &body[..body.find("\n#").unwrap_or(body.len())];
        let documented: Vec<&str> = body.lines().filter(|l| l.starts_with("| `")).collect();
        let expected: Vec<String> = rows
            .iter()
            .flat_map(|k| k.cases.iter().map(move |c| doc_row(k, c)))
            .collect();
        for (want, got) in expected.iter().zip(&documented) {
            assert!(
                got.starts_with(want.as_str()),
                "{heading}:\n  keys.rs: {want}\n  docs:    {got}"
            );
        }
        assert_eq!(documented.len(), expected.len(), "{heading}: row count");
    }
}
