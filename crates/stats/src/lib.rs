//! # dui-stats
//!
//! Deterministic randomness and statistics substrate for the `dui`
//! reproduction of *"(Self) Driving Under the Influence"* (HotNets'19).
//!
//! Every stochastic component in the workspace (traffic generation, flow
//! sampling, attack timing, exploration noise) draws from [`rng::Rng`], a
//! seedable xoshiro256++ generator. Using our own generator rather than an
//! external crate guarantees that a given seed reproduces the same experiment
//! bit-for-bit forever, which the experiment harness relies on: the paper's
//! Fig. 2 overlays 50 *specific* simulation runs on the analytic curves, and
//! we want those runs to be stable artifacts.
//!
//! The crate also provides:
//!
//! * [`dist`] — samplers (exponential, Pareto, lognormal, Zipf, binomial,
//!   …) and exact binomial pmf/cdf/quantile used by the Blink attack theory
//!   (§3.1 of the paper: the number of attacker-occupied selector cells is
//!   `Binomial(n, 1-(1-qm)^(t/tR))`).
//! * [`summary`] — streaming and batch summary statistics (mean, variance,
//!   percentiles, confidence intervals).
//! * [`series`] — time-series recording used to emit the figure data.
//! * [`table`] — CSV/markdown emission for the experiment harness.
//! * [`digest`] — the stable 64-bit state-digest primitive underneath
//!   `dui-replay`'s record/replay hashing (no addresses, no iteration-order
//!   leaks).
//! * [`hash`] — the keyless [`hash::FixedState`] hasher for lookup-only
//!   maps whose keys are minted inside the process (the packet path's
//!   flow and address indexes).
//! * [`wire`] — the bounded [`wire::Reader`] / [`wire::Writer`] pair under
//!   every binary codec in the workspace (recordings, checkpoints, host and
//!   pool state): the one place bytes from outside become values.
//! * [`propcheck`] — in-tree property-based testing (seeded generators,
//!   integrated shrinking, the [`prop_check!`](crate::prop_check) macro), replacing the
//!   former `proptest` dev-dependency so the workspace builds and tests
//!   hermetically, with zero registry access.
//!
//! ```
//! use dui_stats::{Rng, Summary};
//! let mut rng = Rng::new(7);
//! let mut s = Summary::new();
//! for _ in 0..1000 {
//!     s.add(rng.f64());
//! }
//! assert!((s.mean() - 0.5).abs() < 0.05);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod digest;
pub mod dist;
pub mod hash;
pub mod propcheck;
pub mod rng;
pub mod series;
pub mod summary;
pub mod table;
pub mod wire;

pub use dist::Binomial;
pub use rng::Rng;
pub use series::TimeSeries;
pub use summary::Summary;
