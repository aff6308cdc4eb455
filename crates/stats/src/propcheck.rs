//! In-tree property-based testing: seeded generators, integrated
//! shrinking, and the [`prop_check!`](crate::prop_check) macro.
//!
//! This module replaces the workspace's former `proptest` dev-dependency
//! so the whole repository builds and tests with **zero registry
//! access** (the hermeticity requirement of the experiment harness: a
//! reproduction is only as credible as its regeneration harness, and
//! ours must build anywhere).
//!
//! # Design: integrated shrinking over a choice sequence
//!
//! A property is a closure `Fn(&mut Gen) -> Result<(), PropError>` that
//! *draws* its inputs from a [`Gen`] and asserts with [`prop_assert!`](crate::prop_assert)
//! and friends. Every draw is recorded as a `u64` in a *choice
//! sequence*. When a case fails, the runner does not shrink the values
//! — it shrinks the **recorded choices** (deleting chunks, binary-
//! searching individual choices toward zero) and replays the generator
//! closure on the shrunk sequence. Because generators map the zero
//! choice to their minimal value (`g.u64(a..b)` returns `a` for choice
//! 0, `g.vec(..)` draws its length first), a smaller choice sequence
//! always re-generates a *valid, simpler* input: range and structure
//! invariants hold by construction, the classic weakness of
//! shrink-the-value designs.
//!
//! # Determinism
//!
//! Case `i` of a property named `name` is seeded with
//! `mix64(fnv1a(name) ^ config.seed, i)` — see [`Config`]. The same
//! binary therefore replays the same cases forever; a failing seed is
//! printed and can be pinned with the `PROPCHECK_SEED` environment
//! variable (and `PROPCHECK_CASES` scales the case count).
//!
//! # Example
//!
//! In a test module you would write `prop_check! { fn name(g) {...} }`,
//! which expands to a `#[test]`; the underlying engine is the plain
//! function [`check`] (or [`run`], which returns the minimal failure
//! instead of panicking):
//!
//! ```
//! use dui_stats::propcheck::{check, Config};
//! use dui_stats::prop_assert_eq;
//!
//! check("reverse_is_involutive", &Config::with_cases(64), |g| {
//!     let v = g.vec(0..20, |g| g.u32(0..1000));
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     prop_assert_eq!(v, w);
//!     Ok(())
//! });
//! ```

use crate::rng::{mix64, Rng};

/// Why a single generated case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropError {
    /// An assertion failed; carries the formatted message.
    Fail(String),
    /// A [`prop_assume!`](crate::prop_assume) precondition failed; the case is discarded
    /// and resampled, not counted as a failure.
    Discard,
}

/// Outcome type of a property closure.
pub type PropResult = Result<(), PropError>;

/// Runner configuration.
///
/// `seed` is the master seed: per-case seeds are derived as
/// `mix64(fnv1a(test_name) ^ seed, case_index)` so every property
/// explores an independent, reproducible stream. Override with the
/// `PROPCHECK_SEED` / `PROPCHECK_CASES` environment variables.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of generated cases per property (default 96).
    pub cases: u32,
    /// Master seed (default 0, i.e. the per-test name hash alone).
    pub seed: u64,
    /// Maximum shrink candidates evaluated after a failure (default 4000).
    pub max_shrinks: u32,
    /// Maximum discarded cases before giving up (default 32× `cases`).
    pub max_discards: u32,
}

impl Default for Config {
    fn default() -> Self {
        let cases = std::env::var("PROPCHECK_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(96);
        let seed = std::env::var("PROPCHECK_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        Config {
            cases,
            seed,
            max_shrinks: 4000,
            max_discards: cases.saturating_mul(32),
        }
    }
}

impl Config {
    /// A config running `cases` cases (other fields default).
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// The generator handle passed to property closures.
///
/// In normal operation every method draws fresh randomness from a
/// seeded [`Rng`] and records the raw choice; during shrinking the
/// recorded (mutated) choices are replayed instead, with zeroes past
/// the end of the recording. All derived draws (`u64` in a range,
/// `f64`, vectors) map the zero choice to their minimal value, which is
/// what makes choice-sequence shrinking produce minimal inputs.
pub struct Gen {
    rng: Rng,
    replay: Option<Vec<u64>>,
    cursor: usize,
    recorded: Vec<u64>,
}

impl Gen {
    fn fresh(seed: u64) -> Self {
        Gen {
            rng: Rng::new(seed),
            replay: None,
            cursor: 0,
            recorded: Vec::new(),
        }
    }

    fn replaying(choices: &[u64]) -> Self {
        Gen {
            rng: Rng::new(0),
            replay: Some(choices.to_vec()),
            cursor: 0,
            recorded: Vec::new(),
        }
    }

    /// One raw choice: the atom every other draw is built from.
    fn choice(&mut self) -> u64 {
        let c = match &self.replay {
            Some(seq) => *seq.get(self.cursor).unwrap_or(&0),
            None => self.rng.next_u64(),
        };
        self.cursor += 1;
        self.recorded.push(c);
        c
    }

    /// A choice already reduced modulo `span`. The *reduced* value is
    /// what gets recorded, so the recorded choice is monotone in the
    /// generated value — which is what lets the shrinker binary-search
    /// a choice toward zero and move the value with it.
    fn bounded_choice(&mut self, span: u64) -> u64 {
        let c = match &self.replay {
            Some(seq) => *seq.get(self.cursor).unwrap_or(&0) % span,
            None => self.rng.next_u64() % span,
        };
        self.cursor += 1;
        self.recorded.push(c);
        c
    }

    /// Uniform `u64` in `[range.start, range.end)`; choice 0 maps to
    /// `range.start`. Panics on an empty range.
    pub fn u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        range.start + self.bounded_choice(span)
    }

    /// Uniform `u64` over the full 64-bit range (choice 0 maps to 0).
    pub fn any_u64(&mut self) -> u64 {
        self.choice()
    }

    /// Uniform `u32` in `[range.start, range.end)`.
    pub fn u32(&mut self, range: std::ops::Range<u32>) -> u32 {
        self.u64(range.start as u64..range.end as u64) as u32
    }

    /// Uniform `u32` over the full 32-bit range.
    pub fn any_u32(&mut self) -> u32 {
        self.bounded_choice(1 << 32) as u32
    }

    /// Uniform `u16` in `[range.start, range.end)`.
    pub fn u16(&mut self, range: std::ops::Range<u16>) -> u16 {
        self.u64(range.start as u64..range.end as u64) as u16
    }

    /// Uniform `u16` over the full 16-bit range.
    pub fn any_u16(&mut self) -> u16 {
        self.bounded_choice(1 << 16) as u16
    }

    /// Uniform `u8` in `[range.start, range.end)`.
    pub fn u8(&mut self, range: std::ops::Range<u8>) -> u8 {
        self.u64(range.start as u64..range.end as u64) as u8
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    pub fn usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.u64(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `f64` in `[range.start, range.end)`; choice 0 maps to
    /// `range.start`.
    pub fn f64(&mut self, range: std::ops::Range<f64>) -> f64 {
        let unit = (self.choice() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + (range.end - range.start) * unit
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        self.f64(0.0..1.0)
    }

    /// A boolean; choice 0 maps to `false`.
    pub fn bool(&mut self) -> bool {
        self.bounded_choice(2) == 1
    }

    /// A vector whose length is drawn from `len` (its own choice, so
    /// shrinking can shorten the vector) and whose elements come from
    /// `elem`.
    pub fn vec<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut elem: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| elem(self)).collect()
    }
}

/// A minimal failing case, as returned by [`run`].
#[derive(Debug, Clone)]
pub struct Failure {
    /// The per-case seed that first produced the failure.
    pub seed: u64,
    /// Which generated case (0-based) failed.
    pub case: u32,
    /// Assertion message of the *minimal* (post-shrink) counterexample.
    pub message: String,
    /// Minimal failing choice sequence (replayable via `Gen`).
    pub choices: Vec<u64>,
    /// Number of accepted shrink steps.
    pub shrink_steps: u32,
}

/// FNV-1a over the test name: stable across runs and platforms.
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn eval(prop: &mut dyn FnMut(&mut Gen) -> PropResult, choices: &[u64]) -> (PropResult, Vec<u64>) {
    let mut g = Gen::replaying(choices);
    let r = prop(&mut g);
    (r, g.recorded)
}

/// Shrink a failing choice sequence: chunk deletion, then per-position
/// binary search toward zero. Returns the minimal sequence found and
/// its failure message.
fn shrink(
    prop: &mut dyn FnMut(&mut Gen) -> PropResult,
    mut best: Vec<u64>,
    mut message: String,
    budget: u32,
) -> (Vec<u64>, String, u32) {
    let mut spent = 0u32;
    let mut accepted = 0u32;
    let mut fails = |cand: &[u64], spent: &mut u32| -> Option<(Vec<u64>, String)> {
        *spent += 1;
        let (r, used) = eval(prop, cand);
        match r {
            Err(PropError::Fail(m)) => Some((used, m)),
            _ => None,
        }
    };
    let mut improved = true;
    while improved && spent < budget {
        improved = false;
        // Pass 1: delete contiguous chunks (large to small) — shortens
        // vectors and drops irrelevant draws. Each deletion is also
        // tried with the nearest preceding choice decremented by the
        // chunk size: that is what turns "drop these element draws"
        // into "and shorten the vector-length draw that governs them".
        let mut size = best.len();
        while size >= 1 && spent < budget {
            let mut start = 0;
            while start + size <= best.len() && spent < budget {
                let mut accepted_here = false;
                for adjust_len in [false, true] {
                    let mut cand = best.clone();
                    cand.drain(start..start + size);
                    if adjust_len {
                        if start == 0 || cand[start - 1] < size as u64 {
                            continue;
                        }
                        cand[start - 1] -= size as u64;
                    }
                    if let Some((used, m)) = fails(&cand, &mut spent) {
                        if used.len() < best.len() {
                            best = used;
                            message = m;
                            accepted += 1;
                            improved = true;
                            accepted_here = true;
                            break; // retry same window on the shorter seq
                        }
                    }
                }
                if !accepted_here {
                    start += size;
                }
            }
            size /= 2;
        }
        // Pass 2: binary-search each choice toward 0 (assumes local
        // monotonicity; greedy-safe because every accepted candidate is
        // re-verified to fail). An accepted candidate may replay to a
        // *shorter* sequence (fewer draws used); restart positions then.
        let mut i = 0;
        'positions: while i < best.len() && spent < budget {
            let original = best[i];
            if original == 0 {
                i += 1;
                continue;
            }
            // First try zero outright: the common case.
            let mut cand = best.clone();
            cand[i] = 0;
            if let Some((used, m)) = fails(&cand, &mut spent) {
                let resized = used.len() != best.len();
                best = used;
                message = m;
                accepted += 1;
                improved = true;
                if resized {
                    i = 0;
                }
                continue;
            }
            let mut lo = 1u64; // lowest candidate not yet known to pass
            let mut hi = original; // current known-failing value
            while lo < hi && spent < budget {
                let mid = lo + (hi - lo) / 2;
                let mut cand = best.clone();
                cand[i] = mid;
                match fails(&cand, &mut spent) {
                    Some((used, m)) => {
                        let resized = used.len() != best.len();
                        best = used;
                        message = m;
                        accepted += 1;
                        improved = true;
                        if resized {
                            i = 0;
                            continue 'positions;
                        }
                        hi = mid;
                    }
                    None => lo = mid + 1,
                }
            }
            i += 1;
        }
    }
    (best, message, accepted)
}

/// Run `prop` for `cfg.cases` generated cases; on failure, shrink and
/// return the minimal [`Failure`]. Returns `None` when every case
/// passes. [`check`] is the panicking wrapper used by tests.
pub fn run(
    name: &str,
    cfg: &Config,
    mut prop: impl FnMut(&mut Gen) -> PropResult,
) -> Option<Failure> {
    let base = fnv1a(name) ^ cfg.seed;
    let mut discards = 0u32;
    let mut case = 0u32;
    let mut stream = 0u64;
    while case < cfg.cases {
        let seed = mix64(base, stream);
        stream += 1;
        let mut g = Gen::fresh(seed);
        match prop(&mut g) {
            Ok(()) => case += 1,
            #[expect(
                clippy::panic,
                reason = "propcheck reports harness failures by panicking inside #[test] fns"
            )]
            Err(PropError::Discard) => {
                discards += 1;
                if discards > cfg.max_discards {
                    panic!(
                        "propcheck '{name}': gave up after {discards} discards \
                         ({case} cases passed) — weaken the prop_assume! filter"
                    );
                }
            }
            Err(PropError::Fail(first_message)) => {
                let (choices, message, shrink_steps) =
                    shrink(&mut prop, g.recorded, first_message, cfg.max_shrinks);
                return Some(Failure {
                    seed,
                    case,
                    message,
                    choices,
                    shrink_steps,
                });
            }
        }
    }
    None
}

/// Run the property and panic with a replayable report if it fails.
///
/// This is what [`prop_check!`](crate::prop_check)-generated tests call.
#[expect(
    clippy::panic,
    reason = "panicking with the replay recipe is this function's contract"
)]
pub fn check(name: &str, cfg: &Config, prop: impl FnMut(&mut Gen) -> PropResult) {
    if let Some(f) = run(name, cfg, prop) {
        panic!(
            "propcheck '{name}' failed (case {} of {}, seed {:#x}, \
             {} shrink steps)\nminimal counterexample: {}\nchoices: {:?}\n\
             replay: PROPCHECK_SEED={} PROPCHECK_CASES={}",
            f.case, cfg.cases, f.seed, f.shrink_steps, f.message, f.choices, cfg.seed, cfg.cases,
        );
    }
}

/// Assert inside a property; on failure the case shrinks.
///
/// `prop_assert!(cond)` or `prop_assert!(cond, "fmt {args}")`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::propcheck::PropError::Fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::propcheck::PropError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Assert two expressions are equal (`==`) inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return ::core::result::Result::Err($crate::propcheck::PropError::Fail(
                ::std::format!(
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($a),
                    stringify!($b),
                    a,
                    b
                ),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return ::core::result::Result::Err($crate::propcheck::PropError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    }};
}

/// Assert two expressions are unequal (`!=`) inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a != b) {
            return ::core::result::Result::Err($crate::propcheck::PropError::Fail(
                ::std::format!(
                    "assertion failed: {} != {}\n  both: {:?}",
                    stringify!($a),
                    stringify!($b),
                    a
                ),
            ));
        }
    }};
}

/// Discard the current case (resample) when a precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::propcheck::PropError::Discard);
        }
    };
}

/// Define `#[test]` functions running properties under the default
/// [`Config`] (or `cases = N;` to override the case count).
///
/// ```
/// use dui_stats::prop_check;
///
/// prop_check! {
///     cases = 32;
///     fn addition_commutes(g) {
///         let a = g.u32(0..1000);
///         let b = g.u32(0..1000);
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
///
/// (The expansion carries `#[test]`, so the function only exists under
/// the test harness; see [`check`] for direct invocation.)
#[macro_export]
macro_rules! prop_check {
    (cases = $cases:expr; $(fn $name:ident($g:ident) $body:block)+) => {
        $(
            #[test]
            fn $name() {
                let cfg = $crate::propcheck::Config::with_cases($cases);
                $crate::propcheck::check(
                    stringify!($name),
                    &cfg,
                    |$g: &mut $crate::propcheck::Gen| {
                        $body
                        ::core::result::Result::Ok(())
                    },
                );
            }
        )+
    };
    ($(fn $name:ident($g:ident) $body:block)+) => {
        $(
            #[test]
            fn $name() {
                let cfg = $crate::propcheck::Config::default();
                $crate::propcheck::check(
                    stringify!($name),
                    &cfg,
                    |$g: &mut $crate::propcheck::Gen| {
                        $body
                        ::core::result::Result::Ok(())
                    },
                );
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_returns_none() {
        let cfg = Config::with_cases(64);
        let r = run("passing", &cfg, |g| {
            let x = g.u64(0..100);
            prop_assert!(x < 100, "x={x}");
            Ok(())
        });
        assert!(r.is_none());
    }

    #[test]
    fn generators_respect_ranges() {
        let cfg = Config::with_cases(256);
        let r = run("ranges", &cfg, |g| {
            let a = g.u64(10..20);
            prop_assert!((10..20).contains(&a), "a={a}");
            let f = g.f64(-2.0..3.0);
            prop_assert!((-2.0..3.0).contains(&f), "f={f}");
            let v = g.vec(2..5, |g| g.u8(0..10));
            prop_assert!(v.len() >= 2 && v.len() < 5, "len={}", v.len());
            prop_assert!(v.iter().all(|&x| x < 10), "{v:?}");
            Ok(())
        });
        assert!(r.is_none());
    }

    #[test]
    fn known_failing_integer_shrinks_to_boundary() {
        // The classic: "all x < 100" over x in 0..10_000 must shrink to
        // exactly x = 100, the minimal counterexample.
        let cfg = Config::with_cases(200);
        let f = run("int_boundary", &cfg, |g| {
            let x = g.u64(0..10_000);
            prop_assert!(x < 100, "x={x}");
            Ok(())
        })
        .expect("property must fail");
        assert_eq!(f.message, "x=100", "shrunk to the boundary: {f:?}");
        assert_eq!(f.choices, vec![100]);
    }

    #[test]
    fn known_failing_vec_shrinks_to_minimal_witness() {
        // "No vector sums past 1000" — minimal witness is a single
        // maximal element... which itself shrinks to sum exactly 1001.
        let cfg = Config::with_cases(300);
        let f = run("vec_sum", &cfg, |g| {
            let v = g.vec(0..50, |g| g.u64(0..600));
            let sum: u64 = v.iter().sum();
            prop_assert!(sum <= 1000, "sum={sum} v={v:?}");
            Ok(())
        })
        .expect("property must fail");
        // The greedy shrink cannot always reach the global 2-element
        // minimum (deleting any element of a boundary witness makes it
        // pass), but it must reach the boundary sum exactly and cut the
        // vector from up-to-50 elements down to a handful.
        assert!(f.message.starts_with("sum=1001"), "minimal sum: {f:?}");
        assert!(
            f.choices.len() <= 7,
            "length choice + a handful of elements: {:?}",
            f.choices
        );
    }

    #[test]
    fn replay_is_deterministic() {
        // The same choices regenerate the same value.
        let mut g1 = Gen::fresh(42);
        let v1 = g1.vec(0..10, |g| g.u32(0..1000));
        let mut g2 = Gen::replaying(&g1.recorded);
        let v2 = g2.vec(0..10, |g| g.u32(0..1000));
        assert_eq!(v1, v2);
    }

    #[test]
    fn discards_are_resampled_not_failed() {
        let cfg = Config::with_cases(32);
        let r = run("assume", &cfg, |g| {
            let x = g.u64(0..100);
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
            Ok(())
        });
        assert!(r.is_none());
    }

    #[test]
    #[should_panic(expected = "minimal counterexample")]
    fn check_panics_with_report() {
        check("doomed", &Config::with_cases(16), |g| {
            let x = g.u64(0..10);
            prop_assert!(x < 1, "x={x}");
            Ok(())
        });
    }

    prop_check! {
        fn macro_generated_test_works(g) {
            let xs = g.vec(0..30, |g| g.u16(0..500));
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted.len(), xs.len());
            for w in sorted.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }

    prop_check! {
        cases = 16;
        fn macro_cases_override_works(g) {
            // The default is 96 cases: a 17th execution means the
            // `cases = 16;` above was not honoured.
            static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let _ = g.bool();
            let runs = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            prop_assert!(runs <= 16, "execution {runs} of a property declared `cases = 16`");
        }
    }
}
