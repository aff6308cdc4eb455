//! The `.dsc` key table: the one place a key is spelled.
//!
//! Every section of the format is a `const KEYS: &[Key]` of rows —
//! `{ name, value type, cases }`, where a [`Case`] says *for these kinds,
//! this default (or required/unset) and this bound (with its "expected …"
//! text)*. The parser looks keys up here, checks applicability and bounds
//! from the row, and stores the typed [`Val`] in a slot array indexed by
//! row position; assembly reads slots back through the position constants
//! each section module exports (`workload::FLOWS`, `opt::AT`, …) and
//! falls back to the row's default. The canonical printer, the
//! expectation gate in `compile.rs` and the tables in `docs/scenarios.md`
//! read the same rows, so a new key is one row here plus the AST field
//! and the consumer that uses it.

use crate::ast::{dur, AttackSpec};
use dui_core::netsim::time::{SimDuration, SimTime};
use std::fmt;

/// The kind tokens: `[topology]`/`[workload]` `kind =` values, the
/// `[chaos]` declaration keys, and the one `attack =` form.
pub mod kind {
    #![allow(missing_docs)]
    pub const BLINK: &str = "blink";
    pub const PCC: &str = "pcc";
    pub const PYTHEAS: &str = "pytheas";
    pub const RING: &str = "ring";
    pub const CHORDED_RING: &str = "chorded_ring";
    pub const LINEAR: &str = "linear";
    pub const FAT_TREE: &str = "fat_tree";
    pub const BOWTIE: &str = "bowtie";
    pub const TCP: &str = "tcp";
    pub const CHURN: &str = "churn";
    pub const SYN_FLOOD: &str = "syn_flood";
    pub const LINK_FLAP: &str = "link_flap";
    pub const PARTITION: &str = "partition";
    pub const ROUTER_CHURN: &str = "router_churn";
    pub const LOAD_SURGE: &str = "load_surge";
    pub const BOUNCE: &str = "bounce";
}
use kind::*;

/// The `link_flap` target that names the blink topology's primary link.
pub const PRIMARY: &str = "primary";

/// The workloads that move packets between named hosts.
pub const TCP_FAMILY: &[&str] = &[TCP, CHURN, SYN_FLOOD];
const TOPOLOGY_KINDS: &[&str] = &[BLINK, PCC, PYTHEAS, RING, CHORDED_RING, LINEAR, FAT_TREE, BOWTIE];
const WORKLOAD_KINDS: &[&str] = &[BLINK, PCC, PYTHEAS, TCP, CHURN, SYN_FLOOD];
const FAULT_DECLS: &[&str] = &[LINK_FLAP, PARTITION, ROUTER_CHURN];
const ALL_DECLS: &[&str] = &[LINK_FLAP, PARTITION, ROUTER_CHURN, LOAD_SURGE];
const PACKET_WORKLOADS: &[&str] = &[BLINK, PCC, TCP, CHURN, SYN_FLOOD];
const FAULTABLE: &[&str] = &[BLINK, TCP, CHURN, SYN_FLOOD];

/// How a value is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// A non-negative integer (`u64`/`usize` fields).
    Int,
    /// A non-negative integer that fits 32 bits.
    U32,
    /// A finite decimal number.
    F64,
    /// `true` or `false`.
    Bool,
    /// `<number><ns|us|ms|s>`.
    Duration,
    /// A duration measured from simulation start.
    Time,
    /// `[A-Za-z0-9_-]+`.
    Name,
    /// A node name, `[A-Za-z0-9_]+`.
    Node,
    /// Comma-separated node names.
    Nodes,
    /// Two node names, `<a>-<b>`.
    Pair,
    /// `bounce via=<a>-<b> [bounces=<n>]`.
    Attack,
    /// `<counter.name> <integer>`.
    Counter,
    /// One of these kind tokens; the text words the list (diagnostics
    /// carry `&'static str`, so it cannot be joined at run time).
    Kind(&'static [&'static str], &'static str),
    /// A `[chaos]` declaration: a target expression plus [`opt`] tokens.
    Decl,
}

impl Ty {
    /// The "expected …" text of a value that is not of this type at all.
    pub fn expected(self) -> &'static str {
        match self {
            Ty::Int | Ty::U32 => "a non-negative integer",
            Ty::F64 => "a finite number",
            Ty::Bool => "'true' or 'false'",
            Ty::Duration | Ty::Time => "a duration like '250ms' or '5s'",
            Ty::Name => "a name of [A-Za-z0-9_-]",
            Ty::Node => "a node name",
            Ty::Nodes => "a comma-separated list of node names",
            Ty::Pair => "a router pair '<a>-<b>'",
            Ty::Attack => "'bounce via=<a>-<b> bounces=<n>'",
            Ty::Counter => "'<counter.name> <integer>'",
            Ty::Kind(_, one_of) => one_of,
            Ty::Decl => "",
        }
    }
}

/// A parsed value; the row's [`Ty`] fixes the variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// [`Ty::Int`], [`Ty::U32`].
    Int(u64),
    /// [`Ty::F64`].
    F64(f64),
    /// [`Ty::Bool`].
    Bool(bool),
    /// [`Ty::Duration`], [`Ty::Time`].
    Dur(SimDuration),
    /// [`Ty::Name`], [`Ty::Node`].
    Str(String),
    /// [`Ty::Nodes`].
    List(Vec<String>),
    /// [`Ty::Pair`].
    Pair(String, String),
    /// [`Ty::Attack`].
    Attack(AttackSpec),
    /// [`Ty::Counter`].
    Counter(String, u64),
    /// [`Ty::Kind`]: the matching token out of the row's list.
    Kind(&'static str),
}

/// The canonical text of a value (what [`crate::ast::Scenario::print`]
/// writes after `key = `).
impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(n) => write!(f, "{n}"),
            Val::F64(x) => write!(f, "{x}"),
            Val::Bool(b) => write!(f, "{b}"),
            Val::Dur(d) => f.write_str(&dur(*d)),
            Val::Str(s) => f.write_str(s),
            Val::List(l) => f.write_str(&l.join(",")),
            Val::Pair(a, b) => write!(f, "{a}-{b}"),
            Val::Attack(AttackSpec::Bounce { via: (a, b), bounces }) => {
                let o = |i: usize| opt::KEYS[i].name;
                write!(f, "{BOUNCE} {}={a}-{b} {}={bounces}", o(opt::VIA), o(opt::BOUNCES))
            }
            Val::Counter(c, n) => write!(f, "{c} {n}"),
            Val::Kind(k) => f.write_str(k),
        }
    }
}

/// The Rust types AST fields have, to and from a slot's [`Val`]
/// (`None` is an unset optional key). `None` from `of` means the row's
/// type and the field's type disagree — a bug in this table, never in
/// the input.
pub(crate) trait Typed: Sized {
    fn of(v: Option<Val>) -> Option<Self>;
    fn val(&self) -> Option<Val>;
}

macro_rules! typed {
    ($($t:ty: $p:pat => $e:expr, $x:ident => $back:expr;)*) => {$(
        impl Typed for $t {
            fn of(v: Option<Val>) -> Option<Self> {
                match v { Some($p) => Some($e), _ => None }
            }
            fn val(&self) -> Option<Val> {
                let $x = self;
                Some($back)
            }
        }
    )*};
}
typed! {
    u64: Val::Int(n) => n, x => Val::Int(*x);
    usize: Val::Int(n) => n as usize, x => Val::Int(*x as u64);
    // `Ty::U32` parsing already bounded the value.
    u32: Val::Int(n) => n as u32, x => Val::Int(u64::from(*x));
    f64: Val::F64(v) => v, x => Val::F64(*x);
    bool: Val::Bool(b) => b, x => Val::Bool(*x);
    SimDuration: Val::Dur(d) => d, x => Val::Dur(*x);
    SimTime: Val::Dur(d) => SimTime(d.0), x => Val::Dur(SimDuration(x.0));
    Vec<String>: Val::List(l) => l, x => Val::List(x.clone());
    (String, String): Val::Pair(a, b) => (a, b), x => Val::Pair(x.0.clone(), x.1.clone());
    AttackSpec: Val::Attack(a) => a, x => Val::Attack(x.clone());
    &'static str: Val::Kind(k) => k, x => Val::Kind(x);
}

impl Typed for String {
    /// A one-name list reads as the name (churn's single `src`).
    fn of(v: Option<Val>) -> Option<Self> {
        match v {
            Some(Val::Str(s)) => Some(s),
            Some(Val::List(mut l)) if l.len() == 1 => l.pop(),
            _ => None,
        }
    }
    fn val(&self) -> Option<Val> {
        Some(Val::Str(self.clone()))
    }
}

impl<T: Typed> Typed for Option<T> {
    fn of(v: Option<Val>) -> Option<Self> {
        match v {
            None => Some(None),
            some => T::of(some).map(Some),
        }
    }
    fn val(&self) -> Option<Val> {
        self.as_ref().and_then(T::val)
    }
}

/// A range check on a typed value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Anything of the row's type.
    Any,
    /// Integer, or duration in nanoseconds, in `lo..=hi`.
    Range(u64, u64),
    /// Number in `0.0..=hi`.
    Unit(f64),
    /// Even integer in `lo..=hi`.
    Even(u64, u64),
    /// The literal `true` (the key is a flag; absence is the `false`).
    True,
    /// A list of exactly one name.
    Single,
}

/// A [`Check`] and what the diagnostic says when it fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// The check.
    pub check: Check,
    /// `expected …` text of `ParseErrorKind::InvalidValue` (also the
    /// bound's wording in `docs/scenarios.md`).
    pub expected: &'static str,
}

impl Bound {
    /// Does `v` pass?
    pub fn admits(&self, v: &Val) -> bool {
        match (self.check, v) {
            (Check::Any, _) => true,
            (Check::Range(lo, hi), Val::Int(n)) => (lo..=hi).contains(n),
            (Check::Range(lo, hi), Val::Dur(d)) => (lo..=hi).contains(&d.0),
            (Check::Unit(hi), Val::F64(x)) => (0.0..=hi).contains(x),
            (Check::Even(lo, hi), Val::Int(n)) => (lo..=hi).contains(n) && n % 2 == 0,
            (Check::True, Val::Bool(b)) => *b,
            (Check::Single, Val::List(l)) => l.len() == 1,
            _ => false,
        }
    }
}

const fn bound(check: Check, expected: &'static str) -> Bound {
    Bound { check, expected }
}
const fn between(lo: u64, hi: u64, expected: &'static str) -> Bound {
    bound(Check::Range(lo, hi), expected)
}
const fn at_least(lo: u64, expected: &'static str) -> Bound {
    between(lo, u64::MAX, expected)
}
/// Routers (or leaf pairs) a parametric topology addresses: one octet of
/// `10.x.<i>.1` each. `pods` stops at 14 for the same reason — the fat
/// tree spends `100 + pod` of an octet on host addresses.
const MAX_ROUTERS: u64 = 256;
/// No bound beyond the type.
pub const ANY: Bound = bound(Check::Any, "");
const POSITIVE: Bound = at_least(1, "a positive integer");
const FRACTION: Bound = bound(Check::Unit(1.0), "a fraction in 0..=1");
const FLOW_COUNT: Bound = bound(Check::Range(1, 249), "an integer in 1..250");
/// Flow populations the builders materialize up front (Blink's legitimate
/// and spoofed flows, a load surge's arrivals): ten times the paper's C4
/// run of 2000 + 105 flows, so a file cannot ask for an unbounded
/// allocation.
const MAX_FLOWS: u64 = 20_000;

/// What an absent key means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dflt {
    /// `ParseErrorKind::MissingKey` / `MissingOption`.
    Required,
    /// Optional: the AST field is `None` (or, in `[expect]`, no check).
    Unset,
    /// This value, in canonical text.
    Is(&'static str),
}
use Dflt::{Is, Required, Unset};

/// One row of applicability: on `kinds`, the key defaults to `dflt` and
/// must pass `bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Case {
    /// Kinds this case covers; empty = the section has no kinds, or the
    /// key (`kind` itself) precedes them.
    pub kinds: &'static [&'static str],
    /// Meaning of absence.
    pub dflt: Dflt,
    /// Range check.
    pub bound: Bound,
}

/// One key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Key {
    /// The key as written.
    pub name: &'static str,
    /// Value type.
    pub ty: Ty,
    /// Applicability, in documentation order. A kind no case lists is
    /// `ParseErrorKind::KeyNotApplicable` (`[expect]`:
    /// `CompileError::ExpectationUnsupported`).
    pub cases: &'static [Case],
}

impl Key {
    /// The case covering `kind`, if the key applies to it.
    pub fn case(&self, kind: Option<&str>) -> Option<&'static Case> {
        self.cases
            .iter()
            .find(|c| c.kinds.is_empty() || kind.is_some_and(|k| c.kinds.contains(&k)))
    }
}

const fn key(name: &'static str, ty: Ty, cases: &'static [Case]) -> Key {
    Key { name, ty, cases }
}
const fn case(kinds: &'static [&'static str], dflt: Dflt, bound: Bound) -> Case {
    Case { kinds, dflt, bound }
}

/// Declare a section module: `KEYS` plus one position constant per row.
macro_rules! section {
    ($(#[$m:meta])* $sec:ident { $($ID:ident = $row:expr,)* }) => {
        $(#[$m])*
        pub mod $sec {
            use super::*;
            /// The rows, in documentation order.
            pub const KEYS: &[Key] = &[$($row),*];
            section!(@pos 0; $($ID)*);
        }
    };
    (@pos $n:expr;) => {};
    (@pos $n:expr; $ID:ident $($rest:ident)*) => {
        #[doc = concat!("Position of the `", stringify!($ID), "` row in [`KEYS`].")]
        pub const $ID: usize = $n;
        section!(@pos $n + 1; $($rest)*);
    };
}

section! {
    /// `[scenario]`.
    scenario {
        NAME = key("name", Ty::Name, &[case(&[], Required, ANY)]),
        SEED = key("seed", Ty::Int, &[case(&[], Is("1"), ANY)]),
        SAMPLE_EVERY = key("sample_every", Ty::Duration,
            &[case(&[], Is("1s"), at_least(1, "a positive duration"))]),
    }
}

section! {
    /// `[topology]`: `kind` first, then the kind's dimensions. Range
    /// checks run at assembly, after the whole file parsed.
    topology {
        KIND = key("kind", Ty::Kind(TOPOLOGY_KINDS,
            "one of blink, pcc, pytheas, ring, chorded_ring, linear, fat_tree, bowtie"), &[case(&[], Required, ANY)]),
        NODES = key("nodes", Ty::Int, &[
            case(&[RING], Required, between(3, MAX_ROUTERS, "an integer in 3..=256")),
            case(&[CHORDED_RING], Required, between(5, MAX_ROUTERS, "an integer in 5..=256")),
            case(&[LINEAR], Required, between(2, MAX_ROUTERS, "an integer in 2..=256")),
        ]),
        CHORD = key("chord", Ty::Int,
            &[case(&[CHORDED_RING], Required, between(2, MAX_ROUTERS - 1, "an integer in 2..=255"))]),
        PODS = key("pods", Ty::Int,
            &[case(&[FAT_TREE], Required, bound(Check::Even(2, 14), "an even integer in 2..=14"))]),
        LEAVES = key("leaves", Ty::Int,
            &[case(&[BOWTIE], Required, between(1, MAX_ROUTERS, "an integer in 1..=256"))]),
    }
}

section! {
    /// `[workload]`: `kind` first, then kind-gated keys.
    workload {
        KIND = key("kind", Ty::Kind(WORKLOAD_KINDS, "one of blink, pcc, pytheas, tcp, churn, syn_flood"),
            &[case(&[], Required, ANY)]),
        LEGIT_FLOWS = key("legit_flows", Ty::Int,
            &[case(&[BLINK], Is("150"), between(1, MAX_FLOWS, "an integer in 1..=20000"))]),
        MALICIOUS_FLOWS = key("malicious_flows", Ty::Int,
            &[case(&[BLINK], Is("0"), between(0, MAX_FLOWS, "an integer in 0..=20000"))]),
        MEAN_LIFETIME = key("mean_lifetime", Ty::Duration,
            &[case(&[BLINK, TCP, CHURN, SYN_FLOOD], Is("6s"), ANY)]),
        PKT_INTERVAL = key("pkt_interval", Ty::Duration,
            &[case(&[BLINK], Is("250ms"), ANY), case(TCP_FAMILY, Is("100ms"), ANY)]),
        ATTACK_START = key("attack_start", Ty::Time, &[case(&[BLINK, SYN_FLOOD], Is("5s"), ANY)]),
        TRIGGER_AT = key("trigger_at", Ty::Time, &[case(&[BLINK], Unset, ANY)]),
        GUARDED = key("guarded", Ty::Bool, &[case(&[BLINK], Is("false"), ANY)]),
        HORIZON = key("horizon", Ty::Duration,
            &[case(&[BLINK, PCC], Is("60s"), ANY), case(TCP_FAMILY, Is("45s"), ANY)]),
        FLOWS = key("flows", Ty::Int,
            &[case(&[PCC], Is("2"), FLOW_COUNT), case(TCP_FAMILY, Is("40"), FLOW_COUNT)]),
        BOTTLENECK_MBPS = key("bottleneck_mbps", Ty::Int, &[case(&[PCC], Is("30"), POSITIVE)]),
        ATTACKED = key("attacked", Ty::Bool, &[case(&[PCC], Is("false"), ANY)]),
        PIN_TO_MBPS = key("pin_to_mbps", Ty::F64, &[case(&[PCC], Unset, ANY)]),
        GROUPS = key("groups", Ty::Int, &[case(&[PYTHEAS], Is("4"), POSITIVE)]),
        ROUNDS = key("rounds", Ty::Int, &[case(&[PYTHEAS], Is("400"), at_least(10, "an integer ≥ 10"))]),
        POISON_FRACTION = key("poison_fraction", Ty::F64,
            &[case(&[PYTHEAS], Is("0.0"), bound(Check::Unit(0.9), "a fraction in 0..=0.9"))]),
        DEFENDED = key("defended", Ty::Bool, &[case(&[PYTHEAS], Is("false"), ANY)]),
        // Streamed admission owns one flow stream, so churn has exactly
        // one source host.
        SRC = key("src", Ty::Nodes, &[
            case(&[TCP, SYN_FLOOD], Required, ANY),
            case(&[CHURN], Required, bound(Check::Single, "a single source host name on kind churn")),
        ]),
        DST = key("dst", Ty::Node, &[case(TCP_FAMILY, Required, ANY)]),
        ATTACK = key("attack", Ty::Attack, &[case(&[TCP], Unset, ANY)]),
        ATTACKER = key("attacker", Ty::Node, &[case(&[SYN_FLOOD], Required, ANY)]),
        SYN_RATE = key("syn_rate", Ty::Int, &[case(&[SYN_FLOOD], Is("2000"), POSITIVE)]),
        BACKLOG = key("backlog", Ty::Int, &[case(&[SYN_FLOOD], Is("64"), POSITIVE)]),
        SYN_TIMEOUT = key("syn_timeout", Ty::Duration, &[case(&[SYN_FLOOD], Unset, ANY)]),
        ATTACK_DURATION = key("attack_duration", Ty::Duration, &[case(&[SYN_FLOOD], Is("20s"), ANY)]),
    }
}

section! {
    /// `[chaos]`: the jitter seed plus the repeatable declarations.
    chaos {
        SEED = key("seed", Ty::Int, &[case(&[], Unset, ANY)]),
        LINK_FLAP = key(kind::LINK_FLAP, Ty::Decl, &[case(&[], Unset, ANY)]),
        PARTITION = key(kind::PARTITION, Ty::Decl, &[case(&[], Unset, ANY)]),
        ROUTER_CHURN = key(kind::ROUTER_CHURN, Ty::Decl, &[case(&[], Unset, ANY)]),
        LOAD_SURGE = key(kind::LOAD_SURGE, Ty::Decl, &[case(&[], Unset, ANY)]),
    }
}

section! {
    /// The `opt=value` tokens of `[chaos]` declarations and of
    /// `attack = bounce`; a case's kinds are declaration keys.
    /// `every` is additionally required when `repeat > 1`.
    opt {
        AT = key("at", Ty::Time, &[case(ALL_DECLS, Required, ANY)]),
        DOWN = key("down", Ty::Duration, &[case(FAULT_DECLS, Required, ANY)]),
        REPEAT = key("repeat", Ty::U32, &[case(ALL_DECLS, Is("1"), POSITIVE)]),
        EVERY = key("every", Ty::Duration, &[case(ALL_DECLS, Unset, ANY)]),
        JITTER = key("jitter", Ty::Duration, &[case(ALL_DECLS, Is("0s"), ANY)]),
        FLOWS = key("flows", Ty::Int,
            &[case(&[kind::LOAD_SURGE], Required, between(1, MAX_FLOWS, "an integer in 1..=20000"))]),
        DURATION = key("duration", Ty::Duration, &[case(&[kind::LOAD_SURGE], Required, ANY)]),
        VIA = key("via", Ty::Pair, &[case(&[BOUNCE], Required, ANY)]),
        BOUNCES = key("bounces", Ty::U32, &[case(&[BOUNCE], Is("4"), POSITIVE)]),
    }
}

section! {
    /// `[expect]`: repeatable; a case's kinds are the workloads that can
    /// observe the expectation (checked by `compile`).
    expect {
        REROUTE_WITHIN = key("reroute_within", Ty::Duration, &[case(&[BLINK], Unset, ANY)]),
        RECOVERY_WITHIN = key("recovery_within", Ty::Duration, &[case(FAULTABLE, Unset, ANY)]),
        BLACKOUT_DURING_CHAOS = key("blackout_during_chaos", Ty::Bool, &[case(FAULTABLE, Unset,
            bound(Check::True, "'true' (omit the line instead of 'false')"))]),
        MIN_REROUTES = key("min_reroutes", Ty::Int, &[case(&[BLINK], Unset, ANY)]),
        MAX_REROUTES = key("max_reroutes", Ty::Int, &[case(&[BLINK], Unset, ANY)]),
        FINAL_ON_PRIMARY = key("final_on_primary", Ty::Bool, &[case(&[BLINK], Unset, ANY)]),
        MALICIOUS_CELLS_MIN = key("malicious_cells_min", Ty::Int, &[case(&[BLINK], Unset, ANY)]),
        MALICIOUS_CELLS_MAX = key("malicious_cells_max", Ty::Int, &[case(&[BLINK], Unset, ANY)]),
        VETOED_MIN = key("vetoed_min", Ty::Int, &[case(&[BLINK], Unset, ANY)]),
        DROP_RATE_MAX = key("drop_rate_max", Ty::F64, &[case(PACKET_WORKLOADS, Unset, FRACTION)]),
        DELIVERED_MIN = key("delivered_min", Ty::Int, &[case(PACKET_WORKLOADS, Unset, ANY)]),
        QOE_MIN = key("qoe_min", Ty::F64, &[case(&[PYTHEAS], Unset, FRACTION)]),
        QOE_MAX = key("qoe_max", Ty::F64, &[case(&[PYTHEAS], Unset, FRACTION)]),
        ON_BEST_MIN = key("on_best_min", Ty::F64, &[case(&[PYTHEAS], Unset, FRACTION)]),
        RATE_MIN_MBPS = key("rate_min_mbps", Ty::F64, &[case(&[PCC], Unset, ANY)]),
        RATE_MAX_MBPS = key("rate_max_mbps", Ty::F64, &[case(&[PCC], Unset, ANY)]),
        OSCILLATION_MAX = key("oscillation_max", Ty::F64, &[case(&[PCC], Unset, ANY)]),
        // Only the handshaking workloads run the RFC 9293 lifecycle, so
        // only they populate the tcp.handshake.* metrics.
        SYNRCVD_PEAK_MAX = key("synrcvd_peak_max", Ty::Int, &[case(&[CHURN, SYN_FLOOD], Unset, ANY)]),
        HANDSHAKE_COMPLETED_MIN = key("handshake_completed_min", Ty::Int,
            &[case(&[CHURN, SYN_FLOOD], Unset, ANY)]),
        COUNTER_MIN = key("counter_min", Ty::Counter, &[case(PACKET_WORKLOADS, Unset, ANY)]),
        COUNTER_MAX = key("counter_max", Ty::Counter, &[case(PACKET_WORKLOADS, Unset, ANY)]),
    }
}

/// A `[section]` of the file.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// The header token.
    pub name: &'static str,
    /// Its rows.
    pub keys: &'static [Key],
}

/// The sections, in canonical print order; the constants below index it.
pub const SECTIONS: [Section; 5] = [
    Section { name: "scenario", keys: scenario::KEYS },
    Section { name: "topology", keys: topology::KEYS },
    Section { name: "workload", keys: workload::KEYS },
    Section { name: "chaos", keys: chaos::KEYS },
    Section { name: "expect", keys: expect::KEYS },
];
/// `[scenario]` in [`SECTIONS`].
pub const SCENARIO: usize = 0;
/// `[topology]` in [`SECTIONS`].
pub const TOPOLOGY: usize = 1;
/// `[workload]` in [`SECTIONS`].
pub const WORKLOAD: usize = 2;
/// `[chaos]` in [`SECTIONS`].
pub const CHAOS: usize = 3;
/// `[expect]` in [`SECTIONS`].
pub const EXPECT: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    /// The `one of …` texts are static, so they are spelled next to the
    /// lists they describe; keep them in step.
    #[test]
    fn kind_lists_match_their_expected_text() {
        for keys in [topology::KEYS, workload::KEYS] {
            let Ty::Kind(list, one_of) = keys[0].ty else { panic!("kind row without a list") };
            assert_eq!(one_of, format!("one of {}", list.join(", ")));
        }
    }

    #[test]
    fn names_are_unique_per_section_and_cases_disjoint() {
        for sec in SECTIONS.iter().map(|s| s.keys).chain([opt::KEYS]) {
            for (i, k) in sec.iter().enumerate() {
                assert!(!sec[..i].iter().any(|o| o.name == k.name), "{} twice", k.name);
                let kinds: Vec<&str> = k.cases.iter().flat_map(|c| c.kinds.iter().copied()).collect();
                for (j, x) in kinds.iter().enumerate() {
                    assert!(!kinds[..j].contains(x), "{}: kind {x} in two cases", k.name);
                }
            }
        }
    }
}
