//! The `.dsc` parser: line-oriented, positioned, typed — never panics.
//!
//! Grammar (one construct per line; `#` starts a comment anywhere):
//!
//! ```text
//! [section]            # scenario | topology | workload | chaos | expect
//! key = value          # unknown keys and sections are hard errors
//! ```
//!
//! `[chaos]` and `[expect]` keys may repeat (each line is one declaration);
//! everywhere else a repeated key is a [`ParseErrorKind::DuplicateKey`].
//! `kind` must be the first key of `[topology]` and `[workload]` so the
//! remaining keys can be checked against the chosen kind as they stream by.
//! Which keys exist, their types, bounds, applicable kinds and defaults are
//! rows of [`crate::keys`]; this file is the generic loop over them plus
//! the assembly of the typed AST.
//! Every diagnostic carries `file:line:col` and a typed
//! [`ParseErrorKind`]; the bad-fixture corpus under `fixtures/bad/` pins the
//! rendered form of each one exactly.

use crate::ast::*;
use crate::keys::{self, kind, opt, Dflt, Key, Ty, Typed, Val, ANY, SECTIONS};
use dui_core::netsim::time::SimDuration;
use std::fmt;

/// A positioned parse diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// File label (whatever the caller passed; usually the path).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The typed diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseErrorKind {
    /// `[foo]` where `foo` is not a known section.
    UnknownSection(String),
    /// A key the active section (and kind) does not define.
    UnknownKey {
        /// Section the key appeared in.
        section: &'static str,
        /// The key.
        key: String,
    },
    /// A key that exists but does not apply to the declared kind.
    KeyNotApplicable {
        /// The key.
        key: String,
        /// E.g. `topology kind 'ring'`.
        what: String,
    },
    /// A non-repeatable key appeared twice in one section.
    DuplicateKey {
        /// Section the key appeared in.
        section: &'static str,
        /// The key.
        key: String,
    },
    /// The same section header appeared twice.
    DuplicateSection(String),
    /// A `key = value` line before any section header.
    KeyOutsideSection(String),
    /// A line with no `=` (and not a header or comment).
    MissingEquals,
    /// A `[...` header missing its `]`.
    UnclosedSection,
    /// `kind` was not the first key of `[topology]` / `[workload]`.
    KindNotFirst {
        /// The section.
        section: &'static str,
    },
    /// A value that failed to parse or is out of range.
    InvalidValue {
        /// The key.
        key: String,
        /// What was expected.
        expected: &'static str,
        /// The offending text.
        got: String,
    },
    /// An unknown `opt=value` token in a chaos/attack declaration.
    UnknownOption {
        /// The declaration key (`link_flap`, ...).
        decl: String,
        /// The option.
        opt: String,
    },
    /// A required `opt=value` token was absent.
    MissingOption {
        /// The declaration key.
        decl: String,
        /// The option.
        opt: &'static str,
    },
    /// A required key was never set (positioned at the section header).
    MissingKey {
        /// The section.
        section: &'static str,
        /// The key.
        key: &'static str,
    },
    /// A required section was never opened (positioned at end of file).
    MissingSection(&'static str),
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErrorKind::UnknownSection(s) => write!(f, "unknown section [{s}]"),
            ParseErrorKind::UnknownKey { section, key } => {
                write!(f, "unknown key '{key}' in [{section}]")
            }
            ParseErrorKind::KeyNotApplicable { key, what } => {
                write!(f, "key '{key}' does not apply to {what}")
            }
            ParseErrorKind::DuplicateKey { section, key } => {
                write!(f, "duplicate key '{key}' in [{section}]")
            }
            ParseErrorKind::DuplicateSection(s) => write!(f, "duplicate section [{s}]"),
            ParseErrorKind::KeyOutsideSection(k) => {
                write!(f, "key '{k}' before any [section] header")
            }
            ParseErrorKind::MissingEquals => write!(f, "expected 'key = value'"),
            ParseErrorKind::UnclosedSection => write!(f, "expected ']' to close section header"),
            ParseErrorKind::KindNotFirst { section } => {
                write!(f, "the first key in [{section}] must be 'kind'")
            }
            ParseErrorKind::InvalidValue { key, expected, got } => {
                write!(f, "invalid value for '{key}': expected {expected}, got '{got}'")
            }
            ParseErrorKind::UnknownOption { decl, opt } => {
                write!(f, "unknown option '{opt}' in '{decl}'")
            }
            ParseErrorKind::MissingOption { decl, opt } => {
                write!(f, "missing option '{opt}' in '{decl}'")
            }
            ParseErrorKind::MissingKey { section, key } => {
                write!(f, "missing required key '{key}' in [{section}]")
            }
            ParseErrorKind::MissingSection(s) => write!(f, "missing required section [{s}]"),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}", self.file, self.line, self.col, self.kind)
    }
}

impl std::error::Error for ParseError {}

/// Internal position cursor.
#[derive(Clone, Copy)]
struct Pos {
    line: u32,
    col: u32,
}

struct Ctx<'a> {
    file: &'a str,
}

impl Ctx<'_> {
    fn err(&self, pos: Pos, kind: ParseErrorKind) -> ParseError {
        ParseError {
            file: self.file.to_string(),
            line: pos.line,
            col: pos.col,
            kind,
        }
    }

    fn invalid(&self, pos: Pos, key: &str, expected: &'static str, got: &str) -> ParseError {
        let (key, got) = (key.to_string(), got.to_string());
        self.err(pos, ParseErrorKind::InvalidValue { key, expected, got })
    }
}

/// Split `s` into whitespace-separated tokens with 1-based columns,
/// where column numbers are relative to the full line (`base` is the
/// 0-based char offset of `s` within it).
fn tokens(s: &str, base: u32) -> impl Iterator<Item = (u32, &str)> {
    let (mut at, mut col) = (0, base);
    s.split_whitespace().map(move |t| {
        let off = t.as_ptr() as usize - s.as_ptr() as usize;
        col += s[at..off].chars().count() as u32;
        at = off;
        (col + 1, t)
    })
}

/// Parse a duration literal: `<number><unit>` with unit one of
/// `ns`, `us`, `ms`, `s` (e.g. `250ms`, `5s`, `1.5s`).
fn duration(v: &str) -> Option<SimDuration> {
    let split = v.find(|c: char| c.is_ascii_alphabetic())?;
    let (num, unit) = v.split_at(split);
    let scale: u64 = match unit {
        "ns" => 1,
        "us" => 1_000,
        "ms" => 1_000_000,
        "s" => 1_000_000_000,
        _ => return None,
    };
    if let Ok(n) = num.parse::<u64>() {
        return n.checked_mul(scale).map(SimDuration);
    }
    match num.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 && x * scale as f64 <= u64::MAX as f64 => {
            Some(SimDuration((x * scale as f64).round() as u64))
        }
        _ => None,
    }
}

fn is_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn is_node_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse `v` as a self-contained value of type `ty` (everything but the
/// structured `Attack`/`Counter`/`Decl` rows).
fn scalar(ty: Ty, v: &str) -> Option<Val> {
    let node = |s: &str| is_node_name(s).then(|| s.to_string());
    Some(match ty {
        Ty::Int => Val::Int(v.parse().ok()?),
        Ty::U32 => Val::Int(v.parse::<u32>().ok()?.into()),
        Ty::F64 => Val::F64(v.parse().ok().filter(|x: &f64| x.is_finite())?),
        Ty::Bool => Val::Bool(v.parse().ok()?),
        Ty::Duration | Ty::Time => Val::Dur(duration(v)?),
        Ty::Name => Val::Str(is_name(v).then(|| v.to_string())?),
        Ty::Node => Val::Str(node(v)?),
        Ty::Nodes => Val::List(v.split(',').map(|s| node(s.trim())).collect::<Option<_>>()?),
        Ty::Pair => {
            let (a, b) = v.split_once('-')?;
            Val::Pair(node(a)?, node(b)?)
        }
        Ty::Kind(tokens, _) => Val::Kind(tokens.iter().find(|k| **k == v)?),
        Ty::Attack | Ty::Counter | Ty::Decl => return None,
    })
}

struct Slot {
    pos: Pos,
    val: Val,
}

/// What a slot array holds the keys of — decides the "missing" diagnostic.
#[derive(Clone, Copy)]
enum Owner<'a> {
    Section(&'static str),
    Decl(&'a str),
}

/// The values seen so far for one section (or one declaration's options),
/// indexed by row position in `keys`.
pub(crate) struct Slots<'a> {
    ctx: &'a Ctx<'a>,
    keys: &'static [Key],
    owner: Owner<'a>,
    /// Where a missing required key is reported: the section header, or
    /// the declaration's value.
    at: Pos,
    kind: Option<&'static str>,
    /// `[topology]`: slots hold values not yet checked against their
    /// bound; `get` checks, once the whole file parsed.
    deferred: bool,
    slots: &'a mut [Option<Slot>],
}

/// Slot storage for one declaration's options.
const NO_OPTIONS: [Option<Slot>; opt::KEYS.len()] = [const { None }; opt::KEYS.len()];

impl<'a> Slots<'a> {

    fn missing(&self, i: usize) -> ParseError {
        let name = self.keys[i].name;
        self.ctx.err(
            self.at,
            match self.owner {
                Owner::Section(section) => ParseErrorKind::MissingKey { section, key: name },
                Owner::Decl(decl) => ParseErrorKind::MissingOption { decl: decl.to_string(), opt: name },
            },
        )
    }

    /// Take row `i`: what the file set, else the row's default for the
    /// declared kind.
    pub(crate) fn get<T: Typed>(&mut self, i: usize) -> Result<T, ParseError> {
        let key = &self.keys[i];
        let case = key.case(self.kind);
        let val = match self.slots[i].take() {
            Some(Slot { pos, val }) => {
                if let Some(c) = case.filter(|c| self.deferred && !c.bound.admits(&val)) {
                    return Err(self.ctx.invalid(pos, key.name, c.bound.expected, &val.to_string()));
                }
                Some(val)
            }
            None => match case.map(|c| c.dflt) {
                Some(Dflt::Is(text)) => scalar(key.ty, text),
                Some(Dflt::Required) => return Err(self.missing(i)),
                Some(Dflt::Unset) | None => None,
            },
        };
        Ok(T::of(val).unwrap_or_else(|| unreachable!("'{}': row type ≠ field type", key.name)))
    }
}

impl Ctx<'_> {
    /// Parse `text` as `key`'s type, then check `bound`.
    fn typed(&self, key: &Key, bound: &keys::Bound, pos: Pos, text: &str) -> Result<Val, ParseError> {
        let v = match key.ty {
            Ty::Attack => self.attack(pos, key.name, text)?,
            Ty::Counter => self.counter(pos, key, text)?,
            ty => scalar(ty, text).ok_or_else(|| self.invalid(pos, key.name, ty.expected(), text))?,
        };
        if bound.admits(&v) {
            Ok(v)
        } else {
            Err(self.invalid(pos, key.name, bound.expected, text))
        }
    }

    /// Parse `<counter.name> <integer>`.
    fn counter(&self, vpos: Pos, key: &Key, val: &str) -> Result<Val, ParseError> {
        let mut toks = tokens(val, vpos.col - 1);
        let named = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_';
        match (toks.next(), toks.next(), toks.next()) {
            (Some((_, name)), Some((col, n)), None) if name.chars().all(named) => {
                let Some(Val::Int(n)) = scalar(Ty::Int, n) else {
                    let npos = Pos { line: vpos.line, col };
                    return Err(self.invalid(npos, key.name, Ty::Int.expected(), n));
                };
                Ok(Val::Counter(name.to_string(), n))
            }
            _ => Err(self.invalid(vpos, key.name, key.ty.expected(), val)),
        }
    }

    /// Parse the `opt=value` tokens of one declaration against
    /// [`keys::opt`]; `kind` selects which options apply. Tokens without
    /// `=` go to `positional`, or are unknown options when there is none.
    fn options<'s, 't>(
        &'s self,
        decl: &'s str,
        kind: &'static str,
        at: Pos,
        toks: impl Iterator<Item = (u32, &'t str)>,
        slots: &'s mut [Option<Slot>],
        mut positional: Option<&mut Vec<(u32, &'t str)>>,
    ) -> Result<Slots<'s>, ParseError> {
        let (keys, owner) = (opt::KEYS, Owner::Decl(decl));
        let found = Slots { ctx: self, keys, owner, at, kind: Some(kind), deferred: false, slots };
        for (col, t) in toks {
            let tpos = Pos { line: at.line, col };
            let unknown = |opt: &str| {
                let (decl, opt) = (decl.to_string(), opt.to_string());
                self.err(tpos, ParseErrorKind::UnknownOption { decl, opt })
            };
            let Some((name, v)) = t.split_once('=') else {
                match positional.as_mut() {
                    Some(p) => p.push((col, t)),
                    None => return Err(unknown(t)),
                }
                continue;
            };
            let row = opt::KEYS.iter().position(|k| k.name == name);
            let Some((i, case)) = row.and_then(|i| Some((i, opt::KEYS[i].case(Some(kind))?))) else {
                return Err(unknown(name));
            };
            let val = self.typed(&opt::KEYS[i], &case.bound, tpos, v)?;
            found.slots[i] = Some(Slot { pos: tpos, val });
        }
        Ok(found)
    }

    /// Parse `attack = bounce via=r1-r2 bounces=6`.
    fn attack(&self, vpos: Pos, key: &str, val: &str) -> Result<Val, ParseError> {
        let mut toks = tokens(val, vpos.col - 1);
        if toks.next().map(|(_, t)| t) != Some(kind::BOUNCE) {
            return Err(self.invalid(vpos, key, Ty::Attack.expected(), val));
        }
        let mut store = NO_OPTIONS;
        let mut o = self.options(key, kind::BOUNCE, vpos, toks, &mut store, None)?;
        Ok(Val::Attack(AttackSpec::Bounce { via: o.get(opt::VIA)?, bounces: o.get(opt::BOUNCES)? }))
    }

    /// Parse one `[chaos]` declaration line.
    fn chaos_decl(&self, vpos: Pos, key: &'static str, val: &str) -> Result<ChaosDecl, ParseError> {
        // Tokens without '=' are the target expression.
        let (mut store, mut target) = (NO_OPTIONS, Vec::new());
        let toks = tokens(val, vpos.col - 1);
        let mut o = self.options(key, key, vpos, toks, &mut store, Some(&mut target))?;
        let at = o.get(opt::AT)?;
        let repeat: u32 = o.get(opt::REPEAT)?;
        let every: Option<SimDuration> = o.get(opt::EVERY)?;
        if repeat > 1 && every.is_none() {
            return Err(o.missing(opt::EVERY));
        }
        let tpos = |col: u32| Pos { line: vpos.line, col };
        let first = |expected| target.first().copied().ok_or_else(|| self.invalid(vpos, key, expected, val));
        let kind = match key {
            kind::LINK_FLAP => {
                let expected = "a link target '<a>-<b>' or 'primary'";
                let (col, link) = first(expected)?;
                let (a, b) = if link == keys::PRIMARY {
                    (link.to_string(), String::new())
                } else {
                    Typed::of(scalar(Ty::Pair, link))
                        .ok_or_else(|| self.invalid(tpos(col), key, expected, link))?
                };
                ChaosKind::LinkFlap { a, b, down: o.get(opt::DOWN)? }
            }
            kind::PARTITION => {
                let expr = target.iter().map(|&(_, t)| t).collect::<Vec<_>>().join(" ");
                let bad = |got: &str| self.invalid(vpos, key, "two node groups '<a>,<b> | <c>,<d>'", got);
                let mut sides = expr.split('|');
                let (Some(l), Some(r), None) = (sides.next(), sides.next(), sides.next()) else {
                    return Err(bad(&expr));
                };
                let side = |side: &str| -> Result<Vec<String>, ParseError> {
                    let names: Vec<&str> =
                        side.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
                    if names.is_empty() || !names.iter().all(|n| is_node_name(n)) {
                        return Err(bad(side.trim()));
                    }
                    Ok(names.into_iter().map(String::from).collect())
                };
                ChaosKind::Partition { left: side(l)?, right: side(r)?, down: o.get(opt::DOWN)? }
            }
            kind::ROUTER_CHURN => {
                let expected = "a router name";
                let (col, node) = first(expected)?;
                if !is_node_name(node) {
                    return Err(self.invalid(tpos(col), key, expected, node));
                }
                ChaosKind::RouterChurn { node: node.to_string(), down: o.get(opt::DOWN)? }
            }
            _ => {
                if let Some(&(col, t)) = target.first() {
                    let (decl, opt) = (key.to_string(), t.to_string());
                    return Err(self.err(tpos(col), ParseErrorKind::UnknownOption { decl, opt }));
                }
                ChaosKind::LoadSurge { flows: o.get(opt::FLOWS)?, duration: o.get(opt::DURATION)? }
            }
        };
        Ok(ChaosDecl {
            kind,
            at,
            repeat,
            every: every.unwrap_or(SimDuration::ZERO),
            jitter: o.get(opt::JITTER)?,
        })
    }
}

/// Rows of all sections whose values are slotted (`[expect]` lines are
/// pushed straight onto the scenario).
const ROWS: usize = keys::scenario::KEYS.len()
    + keys::topology::KEYS.len()
    + keys::workload::KEYS.len()
    + keys::chaos::KEYS.len();

/// Parse a `.dsc` document. `file` is only used to label diagnostics.
pub fn parse_str(file: &str, text: &str) -> Result<Scenario, ParseError> {
    let ctx = Ctx { file };
    // One slot per row of every slotted section; a section's `Slots`
    // takes its share when its header is seen.
    let mut store = [const { None }; ROWS];
    let mut free = &mut store[..];
    let mut secs: [Option<Slots>; SECTIONS.len()] = [const { None }; SECTIONS.len()];
    let mut current: Option<usize> = None;
    let mut chaos: Vec<ChaosDecl> = Vec::new();
    let mut expect: Vec<Expectation> = Vec::new();
    let mut last_line = 0u32;

    for (lineno0, raw) in text.lines().enumerate() {
        let lineno = lineno0 as u32 + 1;
        last_line = lineno;
        let content = raw.split('#').next().unwrap_or(raw);
        let trimmed = content.trim();
        if trimmed.is_empty() {
            continue;
        }
        let lead = content.len() - content.trim_start().len();
        let pos = Pos { line: lineno, col: content[..lead].chars().count() as u32 + 1 };

        if let Some(rest) = trimmed.strip_prefix('[') {
            let Some(sec_name) = rest.strip_suffix(']') else {
                return Err(ctx.err(pos, ParseErrorKind::UnclosedSection));
            };
            let Some(si) = SECTIONS.iter().position(|s| s.name == sec_name) else {
                return Err(ctx.err(pos, ParseErrorKind::UnknownSection(sec_name.to_string())));
            };
            if secs[si].is_some() {
                return Err(ctx.err(pos, ParseErrorKind::DuplicateSection(sec_name.to_string())));
            }
            let (keys, owner) = (SECTIONS[si].keys, Owner::Section(SECTIONS[si].name));
            let rows = if si == keys::EXPECT { 0 } else { keys.len() };
            let (slots, others) = std::mem::take(&mut free).split_at_mut(rows);
            free = others;
            let deferred = si == keys::TOPOLOGY;
            secs[si] = Some(Slots { ctx: &ctx, keys, owner, at: pos, kind: None, deferred, slots });
            current = Some(si);
            continue;
        }

        // key = value
        let Some(eq) = trimmed.find('=') else {
            return Err(ctx.err(pos, ParseErrorKind::MissingEquals));
        };
        let key = trimmed[..eq].trim();
        let val_off = lead + eq + 1;
        let val_raw = &content[val_off..];
        let val = val_raw.trim();
        let vindent = val_raw.chars().take_while(|c| c.is_whitespace()).count() as u32;
        let vpos = Pos { line: lineno, col: val_off as u32 + vindent + 1 };
        if key.is_empty() {
            return Err(ctx.err(pos, ParseErrorKind::MissingEquals));
        }
        let Some((si, st)) = current.and_then(|si| Some((si, secs[si].as_mut()?))) else {
            return Err(ctx.err(pos, ParseErrorKind::KeyOutsideSection(key.to_string())));
        };
        let section = SECTIONS[si].name;

        let row = st.keys.iter().position(|k| k.name == key);
        // `[chaos]` declarations and `[expect]` lines repeat (they are
        // pushed, never slotted); any other key may appear once.
        if row.is_some_and(|i| st.slots.get(i).is_some_and(Option::is_some)) {
            return Err(ctx.err(pos, ParseErrorKind::DuplicateKey { section, key: key.to_string() }));
        }
        // Sections that open with `kind` gate every other key on it.
        let gated = matches!(st.keys[0].ty, Ty::Kind(..));
        let kindless = gated && st.kind.is_none() && row != Some(0);
        let kind_first = || ctx.err(pos, ParseErrorKind::KindNotFirst { section });
        if kindless && si == keys::WORKLOAD {
            return Err(kind_first());
        }
        let Some(i) = row else {
            return Err(ctx.err(pos, ParseErrorKind::UnknownKey { section, key: key.to_string() }));
        };
        if kindless {
            return Err(kind_first());
        }
        let k = &st.keys[i];
        // (`[expect]` cases list workloads, which `compile` checks.)
        let Some(case) = (if gated { k.case(st.kind) } else { k.cases.first() }) else {
            let what = format!("{section} kind '{}'", st.kind.unwrap_or_default());
            return Err(ctx.err(pos, ParseErrorKind::KeyNotApplicable { key: key.to_string(), what }));
        };
        if k.ty == Ty::Decl {
            chaos.push(ctx.chaos_decl(vpos, k.name, val)?);
            continue;
        }
        let bound = if st.deferred { &ANY } else { &case.bound };
        let v = ctx.typed(k, bound, vpos, val)?;
        if si == keys::EXPECT {
            expect.push(Expectation::from_row(i, v));
            continue;
        }
        if let Val::Kind(kind) = v {
            st.kind = Some(kind);
        }
        st.slots[i] = Some(Slot { pos: vpos, val: v });
    }

    let eof = Pos { line: last_line + 1, col: 1 };
    let [scn, topo, wl, cha, _] = secs;
    let absent = |si: usize| ctx.err(eof, ParseErrorKind::MissingSection(SECTIONS[si].name));
    let mut scn = scn.ok_or_else(|| absent(keys::SCENARIO))?;
    // Unlike every other required key, a missing `name` points at EOF.
    scn.at = eof;
    let name = scn.get(keys::scenario::NAME)?;
    let mut topo = topo.ok_or_else(|| absent(keys::TOPOLOGY))?;
    let mut w = wl.ok_or_else(|| absent(keys::WORKLOAD))?;

    let topology = TopologySpec::assemble(&mut topo)?;
    let workload = WorkloadSpec::assemble(&mut w)?;
    Ok(Scenario {
        name,
        seed: scn.get(keys::scenario::SEED)?,
        sample_every: scn.get(keys::scenario::SAMPLE_EVERY)?,
        topology,
        workload,
        chaos_seed: cha.map(|mut c| c.get(keys::chaos::SEED)).transpose()?.flatten(),
        chaos,
        expect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
[scenario]
name = smoke
[topology]
kind = linear
nodes = 3
[workload]
kind = tcp
src = h0
dst = h2
";

    #[test]
    fn minimal_parses_with_defaults() {
        let sc = parse_str("mem", MINIMAL).unwrap();
        assert_eq!(sc.name, "smoke");
        assert_eq!(sc.seed, 1);
        assert_eq!(sc.topology, TopologySpec::Linear { nodes: 3 });
        match &sc.workload {
            WorkloadSpec::Tcp { src, dst, flows, .. } => {
                assert_eq!(src, &vec!["h0".to_string()]);
                assert_eq!(dst, "h2");
                assert_eq!(*flows, 40);
            }
            other => panic!("wrong workload: {other:?}"),
        }
    }

    #[test]
    fn unknown_key_is_positioned() {
        let text = "[scenario]\nname = x\nbogus = 1\n";
        let e = parse_str("f.dsc", text).unwrap_err();
        assert_eq!((e.line, e.col), (3, 1));
        assert_eq!(e.to_string(), "f.dsc:3:1: unknown key 'bogus' in [scenario]");
    }

    #[test]
    fn value_errors_point_at_the_value() {
        let text = "[scenario]\nname = x\nseed =  nope\n";
        let e = parse_str("f.dsc", text).unwrap_err();
        assert_eq!((e.line, e.col), (3, 9));
        assert!(matches!(e.kind, ParseErrorKind::InvalidValue { .. }));
    }

    #[test]
    fn chaos_and_expect_lines_parse() {
        let text = format!(
            "{MINIMAL}[chaos]\nseed = 9\nlink_flap = r0-r1 at=20s down=5s repeat=2 every=10s jitter=1s\npartition = r0 | r1, r2 at=30s down=4s\n[expect]\nrecovery_within = 10s\ncounter_min = netsim.delivered.endpoint 100\n"
        );
        let sc = parse_str("mem", &text).unwrap();
        assert_eq!(sc.chaos_seed, Some(9));
        assert_eq!(sc.chaos.len(), 2);
        assert_eq!(sc.expect.len(), 2);
        assert_eq!(
            sc.chaos[1].kind,
            ChaosKind::Partition {
                left: vec!["r0".into()],
                right: vec!["r1".into(), "r2".into()],
                down: SimDuration::from_secs(4),
            }
        );
    }

    #[test]
    fn canonical_print_is_a_fixed_point() {
        let text = format!(
            "{MINIMAL}[chaos]\nlink_flap = r0-r1 at=20s down=5s\n[expect]\ndelivered_min = 1000\n"
        );
        let sc = parse_str("mem", &text).unwrap();
        let printed = sc.print();
        let re = parse_str("mem", &printed).unwrap();
        assert_eq!(sc, re);
        assert_eq!(printed, re.print());
    }

    /// First error reported for `body` spliced in after the `[scenario]`
    /// section.
    fn first_err(body: &str) -> String {
        let text = format!("[scenario]\nname = x\n{body}");
        parse_str("f", &text).unwrap_err().to_string()
    }

    /// `[workload]` checks duplicate → kind-not-first → unknown →
    /// not-applicable → invalid value.
    #[test]
    fn workload_error_precedence() {
        let topo = "[topology]\nkind = pcc\n[workload]\n";
        let e = |rest: &str| first_err(&format!("{topo}{rest}"));
        assert_eq!(e("bogus = 1\n"), "f:6:1: the first key in [workload] must be 'kind'");
        assert_eq!(e("kind = pcc\nbogus = 1\n"), "f:7:1: unknown key 'bogus' in [workload]");
        assert_eq!(
            e("kind = pcc\nlegit_flows = nope\n"),
            "f:7:1: key 'legit_flows' does not apply to workload kind 'pcc'"
        );
        assert_eq!(e("kind = pcc\nflows = 3\nflows = nope\n"), "f:8:1: duplicate key 'flows' in [workload]");
        assert_eq!(e("kind = pcc\nkind = nope\n"), "f:7:1: duplicate key 'kind' in [workload]");
        assert_eq!(
            e("kind = pcc\nflows = 250\n"),
            "f:7:9: invalid value for 'flows': expected an integer in 1..250, got '250'"
        );
    }

    /// `[topology]` checks duplicate → unknown → kind-not-first →
    /// not-applicable → invalid value, and defers its range checks to
    /// assembly (a later syntax error wins; `got` is the parsed number).
    #[test]
    fn topology_error_precedence() {
        let e = |rest: &str| first_err(&format!("[topology]\n{rest}"));
        assert_eq!(e("bogus = 1\n"), "f:4:1: unknown key 'bogus' in [topology]");
        assert_eq!(e("nodes = 4\n"), "f:4:1: the first key in [topology] must be 'kind'");
        assert_eq!(
            e("kind = blink\nnodes = nope\n"),
            "f:5:1: key 'nodes' does not apply to topology kind 'blink'"
        );
        assert_eq!(e("kind = ring\nnodes = 4\nnodes = nope\n"), "f:6:1: duplicate key 'nodes' in [topology]");
        assert_eq!(e("kind = ring\nkind = nope\n"), "f:5:1: duplicate key 'kind' in [topology]");
        let wl = "[workload]\nkind = tcp\nsrc = h0\ndst = h1\n";
        assert_eq!(
            e(&format!("kind = ring\nnodes =  02\n{wl}")),
            "f:5:10: invalid value for 'nodes': expected an integer in 3..=256, got '2'"
        );
        assert_eq!(e(&format!("kind = ring\nnodes = 2\n{wl}oops\n")), "f:10:1: expected 'key = value'");
    }
}
