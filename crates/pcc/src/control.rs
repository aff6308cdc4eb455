//! The Allegro controller state machine (sans-I/O).
//!
//! The controller hands out a rate for each successive monitor interval
//! via [`Controller::next_mi_rate`] and consumes that MI's measured
//! utility via [`Controller::on_report`] (reports arrive in MI order; the
//! endpoint guarantees FIFO matching). Three phases:
//!
//! * **Starting** — double the rate each MI until utility drops, then back
//!   off to the last good rate and start experimenting.
//! * **Decision** — four trial MIs at `r(1+ε), r(1−ε)` in randomized
//!   order. If both high trials beat both low trials → move up; both low
//!   beat both high → move down; otherwise *inconclusive*: stay at `r` and
//!   escalate `ε` by one step, capped at `ε_max` = **5%** — the cap the
//!   paper's §4.2 oscillation attack saturates.
//! * **Moving** — keep stepping in the chosen direction with growing
//!   step count while utility keeps improving; on the first decrease,
//!   revert to the last good rate and go back to Decision.

use dui_stats::wire::Encoder;
use dui_stats::Rng;
use std::collections::VecDeque;

/// Initial / minimum experiment amplitude (Allegro: 1%).
pub const EPS_MIN: f64 = 0.01;
/// Default amplitude cap (Allegro: 5%; the attack pins ε here).
pub const EPS_MAX: f64 = 0.05;
/// Escalation step on inconclusive decisions.
const EPS_STEP: f64 = 0.01;
/// Relative utility margin a direction must win by to be conclusive.
/// Sub-margin differences count as ties — this is the "large-enough
/// utility difference" of the paper's §4.2; an attacker equalizing
/// utilities to within the margin forces perpetual inconclusives.
const DECISION_MARGIN: f64 = 0.005;

/// Controller tuning (Allegro defaults).
#[derive(Debug, Clone, Copy)]
pub struct ControlConfig {
    /// Amplitude cap ([`EPS_MAX`] in Allegro; the §5 defense lowers it
    /// toward [`EPS_MIN`]).
    pub eps_max: f64,
    /// Rate floor (bytes/s).
    pub min_rate: f64,
    /// Rate ceiling (bytes/s).
    pub max_rate: f64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            eps_max: EPS_MAX,
            min_rate: 10_000.0,
            max_rate: 1.25e9,
        }
    }
}

/// Phase of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Exponential probing.
    Starting,
    /// Randomized A/B trials.
    Decision,
    /// Directional movement.
    Moving,
}

/// A completed decision, for experiment bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Both high trials won: rate moved up to the new value.
    Up(f64),
    /// Both low trials won: rate moved down to the new value.
    Down(f64),
    /// Trials disagreed: stayed at base, escalated ε to the new value.
    Inconclusive(f64),
}

#[derive(Debug, Clone, Copy)]
enum MiKind {
    Starting,
    Trial { up: bool },
    Moving { rate: f64 },
    Filler,
}

/// The Allegro controller.
///
/// ```
/// use dui_pcc::control::{ControlConfig, Controller};
///
/// let mut c = Controller::new(ControlConfig::default(), 1_000_000.0, 42);
/// let mut peak: f64 = 0.0;
/// for _ in 0..50 {
///     let rate = c.next_mi_rate();
///     peak = peak.max(rate);
///     // A 40 Mbps path: utility grows with rate until loss kicks in.
///     let loss = ((rate - 5e6) / rate).max(0.0);
///     c.on_report(rate / 1e6 * (1.0 - 3.0 * loss));
/// }
/// assert!(peak > 2_000_000.0, "the controller probes upward: {peak}");
/// ```
#[derive(Debug)]
pub struct Controller {
    cfg: ControlConfig,
    /// Base rate `r` (bytes/s).
    rate: f64,
    eps: f64,
    phase: Phase,
    rng: Rng,
    /// Trials not yet handed out (Decision phase).
    plan: Vec<bool>,
    /// Results of the current trial set: (up?, utility).
    trial_results: Vec<(bool, f64)>,
    /// Outstanding MIs in order (kind + rate handed out).
    pending: VecDeque<(MiKind, f64)>,
    /// Starting phase: utility of the previous MI.
    last_starting: Option<(f64, f64)>, // (rate, utility)
    /// Moving phase state.
    moving_dir_up: bool,
    moving_step: u32,
    moving_last: Option<(f64, f64)>, // (rate, utility) of last accepted move
    /// Log of completed decisions.
    pub decisions: Vec<Decision>,
}

impl Controller {
    /// New controller starting at `initial_rate` bytes/s.
    pub fn new(cfg: ControlConfig, initial_rate: f64, seed: u64) -> Self {
        assert!(initial_rate > 0.0, "rate must be positive");
        assert!(cfg.eps_max >= EPS_MIN);
        Controller {
            cfg,
            rate: initial_rate.clamp(cfg.min_rate, cfg.max_rate),
            eps: EPS_MIN,
            phase: Phase::Starting,
            rng: Rng::new(seed),
            plan: Vec::new(),
            trial_results: Vec::new(),
            pending: VecDeque::new(),
            last_starting: None,
            moving_dir_up: true,
            moving_step: 1,
            moving_last: None,
            decisions: Vec::new(),
        }
    }

    /// Current base rate `r`.
    pub fn base_rate(&self) -> f64 {
        self.rate
    }

    /// Current experiment amplitude ε.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Rate to use for the next monitor interval.
    pub fn next_mi_rate(&mut self) -> f64 {
        let (kind, rate) = match self.phase {
            Phase::Starting => {
                let r = match self.last_starting {
                    None => self.rate,
                    Some((r, _)) => (r * 2.0).min(self.cfg.max_rate),
                };
                (MiKind::Starting, r)
            }
            Phase::Decision => {
                if self.plan.is_empty()
                    && self.trial_results.is_empty()
                    && !self.has_pending_trials()
                {
                    self.new_trial_plan();
                }
                match self.plan.pop() {
                    Some(up) => {
                        let sign = if up { 1.0 } else { -1.0 };
                        (MiKind::Trial { up }, self.rate * (1.0 + sign * self.eps))
                    }
                    // Plan exhausted, waiting on results: run at base rate.
                    None => (MiKind::Filler, self.rate),
                }
            }
            Phase::Moving => {
                let sign = if self.moving_dir_up { 1.0 } else { -1.0 };
                let r = (self.rate * (1.0 + sign * self.moving_step as f64 * EPS_MIN))
                    .clamp(self.cfg.min_rate, self.cfg.max_rate);
                (MiKind::Moving { rate: r }, r)
            }
        };
        let rate = rate.clamp(self.cfg.min_rate, self.cfg.max_rate);
        self.pending.push_back((kind, rate));
        rate
    }

    fn has_pending_trials(&self) -> bool {
        self.pending
            .iter()
            .any(|(k, _)| matches!(k, MiKind::Trial { .. }))
    }

    fn new_trial_plan(&mut self) {
        let mut plan = vec![true, true, false, false];
        self.rng.shuffle(&mut plan);
        self.plan = plan;
        self.trial_results.clear();
    }

    /// Feed the utility measured for the oldest outstanding MI.
    pub fn on_report(&mut self, utility: f64) {
        let Some((kind, rate)) = self.pending.pop_front() else {
            return; // spurious report
        };
        match kind {
            MiKind::Starting => {
                match self.last_starting {
                    Some((good_rate, prev_u)) if utility < prev_u => {
                        // Overshot: settle at the last good rate, experiment.
                        self.rate = good_rate.clamp(self.cfg.min_rate, self.cfg.max_rate);
                        self.phase = Phase::Decision;
                        self.last_starting = None;
                    }
                    _ => {
                        self.last_starting = Some((rate, utility));
                    }
                }
            }
            MiKind::Trial { up } => {
                self.trial_results.push((up, utility));
                if self.trial_results.len() == 4 {
                    self.conclude_trials();
                }
            }
            MiKind::Moving { rate: moved_to } => {
                match self.moving_last {
                    Some((_good, prev_u)) if utility <= prev_u => {
                        // Utility stopped improving: keep the last good rate
                        // (already in self.rate) and experiment again.
                        self.phase = Phase::Decision;
                        self.moving_last = None;
                        self.moving_step = 1;
                    }
                    _ => {
                        self.moving_last = Some((moved_to, utility));
                        self.rate = moved_to;
                        self.moving_step += 1;
                    }
                }
                let _ = rate;
            }
            MiKind::Filler => {}
        }
    }

    fn conclude_trials(&mut self) {
        let ups: Vec<f64> = self
            .trial_results
            .iter()
            .filter(|(u, _)| *u)
            .map(|(_, v)| *v)
            .collect();
        let downs: Vec<f64> = self
            .trial_results
            .iter()
            .filter(|(u, _)| !*u)
            .map(|(_, v)| *v)
            .collect();
        self.trial_results.clear();
        let min_up = ups.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_up = ups.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min_down = downs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_down = downs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // The win must exceed the significance margin, scaled by the
        // magnitude of the utilities involved.
        let scale = [min_up, max_up, min_down, max_down]
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        let margin = DECISION_MARGIN * scale;
        if min_up > max_down + margin {
            self.rate = (self.rate * (1.0 + self.eps)).clamp(self.cfg.min_rate, self.cfg.max_rate);
            self.decisions.push(Decision::Up(self.rate));
            self.eps = EPS_MIN;
            self.enter_moving(true);
        } else if min_down > max_up + margin {
            self.rate = (self.rate * (1.0 - self.eps)).clamp(self.cfg.min_rate, self.cfg.max_rate);
            self.decisions.push(Decision::Down(self.rate));
            self.eps = EPS_MIN;
            self.enter_moving(false);
        } else {
            self.eps = (self.eps + EPS_STEP).min(self.cfg.eps_max);
            self.decisions.push(Decision::Inconclusive(self.eps));
            // Stay in Decision; a fresh plan is drawn on the next MI.
        }
    }

    fn enter_moving(&mut self, up: bool) {
        self.phase = Phase::Moving;
        self.moving_dir_up = up;
        self.moving_step = 1;
        self.moving_last = None;
    }

    /// The controller's complete state: its tuning, phase, rate, ε,
    /// RNG, the outstanding-MI queue and trial bookkeeping, and the
    /// decision log.
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        e.f64(self.cfg.eps_max);
        e.f64(self.cfg.min_rate);
        e.f64(self.cfg.max_rate);
        e.f64(self.rate);
        e.f64(self.eps);
        e.u8(match self.phase {
            Phase::Starting => 0,
            Phase::Decision => 1,
            Phase::Moving => 2,
        });
        self.rng.state().into_iter().for_each(|w| e.u64(w));
        e.seq(&self.plan, |e, &up| e.bool(up));
        e.seq(&self.trial_results, |e, &(up, u)| {
            e.bool(up);
            e.f64(u);
        });
        e.seq(&self.pending, |e, &(kind, rate)| {
            match kind {
                MiKind::Starting => e.u8(0),
                MiKind::Trial { up } => {
                    e.u8(1);
                    e.bool(up);
                }
                MiKind::Moving { rate } => {
                    e.u8(2);
                    e.f64(rate);
                }
                MiKind::Filler => e.u8(3),
            }
            e.f64(rate);
        });
        let pair = |e: &mut E, (r, u): (f64, f64)| {
            e.f64(r);
            e.f64(u);
        };
        e.opt(self.last_starting, pair);
        e.bool(self.moving_dir_up);
        e.u32(self.moving_step);
        e.opt(self.moving_last, pair);
        e.seq(&self.decisions, |e, d| {
            let (tag, v) = match *d {
                Decision::Up(r) => (0, r),
                Decision::Down(r) => (1, r),
                Decision::Inconclusive(eps) => (2, eps),
            };
            e.u8(tag);
            e.f64(v);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::{allegro_utility, equalizing_drop_rate};

    fn ctl() -> Controller {
        Controller::new(ControlConfig::default(), 1e6, 42)
    }

    /// Drive the controller against a synthetic path: `capacity` bytes/s,
    /// loss = excess fraction when above capacity, for `mis` intervals.
    /// Returns the rate trace.
    fn drive_path(ctl: &mut Controller, capacity: f64, mis: usize) -> Vec<f64> {
        let mut rates = Vec::new();
        for _ in 0..mis {
            let rate = ctl.next_mi_rate();
            let loss = if rate > capacity {
                (rate - capacity) / rate
            } else {
                0.0
            };
            let u = allegro_utility(rate / 1e6, loss);
            ctl.on_report(u);
            rates.push(rate);
        }
        rates
    }

    #[test]
    fn starting_phase_doubles() {
        let mut c = ctl();
        let r1 = c.next_mi_rate();
        c.on_report(1.0);
        let r2 = c.next_mi_rate();
        c.on_report(2.0);
        let r3 = c.next_mi_rate();
        assert_eq!(r2, r1 * 2.0);
        assert_eq!(r3, r1 * 4.0);
        assert_eq!(c.phase(), Phase::Starting);
    }

    #[test]
    fn starting_exits_on_utility_drop() {
        let mut c = ctl();
        let _ = c.next_mi_rate();
        c.on_report(1.0);
        let r2 = c.next_mi_rate();
        c.on_report(2.0);
        let _r3 = c.next_mi_rate();
        c.on_report(1.5); // drop: revert to r2
        assert_eq!(c.phase(), Phase::Decision);
        assert_eq!(c.base_rate(), r2);
    }

    #[test]
    fn converges_near_capacity() {
        let mut c = ctl();
        let capacity = 40e6;
        let rates = drive_path(&mut c, capacity, 400);
        let tail = &rates[rates.len() - 50..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - capacity).abs() / capacity < 0.15,
            "converged to {:.1} Mbps vs capacity 40 Mbps",
            mean / 1e6
        );
    }

    #[test]
    fn trial_plan_is_balanced_two_up_two_down() {
        let mut c = ctl();
        // Exit Starting quickly.
        let _ = c.next_mi_rate();
        c.on_report(1.0);
        let _ = c.next_mi_rate();
        c.on_report(0.5);
        assert_eq!(c.phase(), Phase::Decision);
        let base = c.base_rate();
        let mut ups = 0;
        let mut downs = 0;
        for _ in 0..4 {
            let r = c.next_mi_rate();
            if r > base {
                ups += 1;
            } else if r < base {
                downs += 1;
            }
        }
        assert_eq!(ups, 2);
        assert_eq!(downs, 2);
    }

    #[test]
    fn conclusive_up_moves_up() {
        let mut c = ctl();
        let _ = c.next_mi_rate();
        c.on_report(1.0);
        let _ = c.next_mi_rate();
        c.on_report(0.5);
        let base = c.base_rate();
        for _ in 0..4 {
            let r = c.next_mi_rate();
            // Utility proportional to rate: higher always wins.
            c.on_report(r);
        }
        assert!(matches!(c.decisions.last(), Some(Decision::Up(_))));
        assert!(c.base_rate() > base);
        assert_eq!(c.phase(), Phase::Moving);
    }

    #[test]
    fn equalized_utilities_pin_epsilon_at_cap() {
        // The §4.2 attack distilled: an adversary reports identical
        // utilities for every trial. ε must escalate 0.01 → 0.05 and stay
        // there; the base rate must never move.
        let mut c = ctl();
        let _ = c.next_mi_rate();
        c.on_report(1.0);
        let _ = c.next_mi_rate();
        c.on_report(0.5);
        let base = c.base_rate();
        for _ in 0..40 {
            let _ = c.next_mi_rate();
            c.on_report(7.0); // always identical
        }
        assert_eq!(c.base_rate(), base, "rate must not converge anywhere");
        assert!((c.epsilon() - 0.05).abs() < 1e-12, "ε pinned at 5%");
        assert!(c
            .decisions
            .iter()
            .all(|d| matches!(d, Decision::Inconclusive(_))));
        let last4 = &c.decisions[c.decisions.len() - 4..];
        assert!(last4
            .iter()
            .all(|d| matches!(d, Decision::Inconclusive(e) if (*e - 0.05).abs() < 1e-12)));
    }

    #[test]
    fn oscillation_amplitude_is_eps_max_under_attack() {
        // Under the equalizer the *sent* rates swing ±ε_max around base.
        let mut c = ctl();
        let _ = c.next_mi_rate();
        c.on_report(1.0);
        let _ = c.next_mi_rate();
        c.on_report(0.5);
        let base = c.base_rate();
        let mut max_dev: f64 = 0.0;
        for i in 0..60 {
            let r = c.next_mi_rate();
            c.on_report(7.0);
            if i > 20 {
                max_dev = max_dev.max((r - base).abs() / base);
            }
        }
        assert!(
            (max_dev - 0.05).abs() < 1e-9,
            "swing should reach exactly ±5%, got {max_dev}"
        );
    }

    #[test]
    fn utility_equalizer_attack_on_synthetic_path() {
        // Full mechanism, §4.2: the attacker picks a target rate r* and,
        // for every MI whose rate exceeds r*(1−ε₀), drops just enough
        // packets (bisecting the known utility function) to clamp the
        // measured utility at u(r*(1−ε₀)). All trials then look equally
        // good, decisions stay inconclusive, ε escalates to the 5% cap,
        // and the rate never converges anywhere.
        let mut c = ctl();
        let _ = c.next_mi_rate();
        c.on_report(1.0);
        let _ = c.next_mi_rate();
        c.on_report(0.5);
        let r_star = c.base_rate();
        // Clamp reference: the ε_max low-trial rate. Every trial at any ε
        // then measures exactly this utility (low trials reach it cleanly,
        // high trials are dropped down to it), so no direction ever wins.
        let low_rate = r_star * (1.0 - 0.05);
        let u_ref = allegro_utility(low_rate / 1e6, 0.0);
        let clamp = |rate: f64| -> f64 {
            let x = rate / 1e6;
            if allegro_utility(x, 0.0) <= u_ref {
                return allegro_utility(x, 0.0);
            }
            // Bisect the drop fraction that pins utility at u_ref.
            let (mut lo, mut hi) = (0.0f64, 0.5f64);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if allegro_utility(x, mid) > u_ref {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            allegro_utility(x, 0.5 * (lo + hi))
        };
        for _ in 0..120 {
            let rate = c.next_mi_rate();
            c.on_report(clamp(rate));
        }
        // Rate pinned near r*; the overwhelming majority of decisions are
        // inconclusive and ε saturates at the cap.
        let drift = (c.base_rate() - r_star).abs() / r_star;
        assert!(drift < 0.10, "rate drifted {drift}");
        let inconclusive = c
            .decisions
            .iter()
            .filter(|d| matches!(d, Decision::Inconclusive(_)))
            .count();
        assert!(
            inconclusive == c.decisions.len(),
            "all decisions inconclusive: {inconclusive}/{}",
            c.decisions.len()
        );
        assert!((c.epsilon() - 0.05).abs() < 1e-9, "ε pinned at 5%");
        // Sanity: equalizing_drop_rate agrees a positive drop is needed.
        assert!(equalizing_drop_rate(r_star / 1e6, 0.05, 0.0).unwrap() > 0.0);
    }

    #[test]
    fn rate_respects_bounds() {
        let cfg = ControlConfig {
            min_rate: 1e5,
            max_rate: 1e6,
            ..Default::default()
        };
        let mut c = Controller::new(cfg, 5e5, 1);
        for _ in 0..100 {
            let r = c.next_mi_rate();
            assert!((1e5..=1e6).contains(&r));
            c.on_report(r); // utility ∝ rate: pushes up to the cap
        }
        assert!(c.base_rate() <= 1e6);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut c = Controller::new(ControlConfig::default(), 1e6, seed);
            let mut rates = Vec::new();
            for i in 0..50 {
                let r = c.next_mi_rate();
                c.on_report((i % 7) as f64);
                rates.push(r);
            }
            rates
        };
        assert_eq!(run(5), run(5));
    }
}
