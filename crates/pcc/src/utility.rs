//! The PCC Allegro utility function.
//!
//! We use the saturating loss-penalized form (docs/reproduction-map.md §4,
//! substitution 5):
//!
//! ```text
//! u(x, L) = x · (1 − L) · σ(α · (L₀ − L)) − δ · x · L
//! σ(z) = 1 / (1 + e^(−z))
//! ```
//!
//! where `x` is the sending rate, `L` the observed loss fraction, `L₀ =
//! 0.05` the loss knee and `α` the knee sharpness. The properties every
//! Allegro-style utility shares — and the only ones the §4.2 attack
//! needs — hold: strictly increasing in `x` at low loss, collapsing once
//! loss crosses the knee, and continuous in between (so an attacker can
//! always equalize `u(r(1+ε))` and `u(r(1−ε))` with a suitable drop rate;
//! see [`equalizing_drop_rate`]).

/// Parameters of the utility function.
#[derive(Debug, Clone, Copy)]
pub struct UtilityParams {
    /// Loss knee `L₀` (Allegro: 5%).
    pub loss_knee: f64,
    /// Sigmoid sharpness `α`.
    pub alpha: f64,
    /// Linear loss penalty weight `δ`.
    pub delta: f64,
}

impl Default for UtilityParams {
    fn default() -> Self {
        UtilityParams {
            loss_knee: 0.05,
            alpha: 100.0,
            delta: 1.0,
        }
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Utility of sending at rate `x` (any consistent unit) with loss
/// fraction `loss ∈ [0, 1]`.
pub fn allegro_utility(x: f64, loss: f64, p: &UtilityParams) -> f64 {
    assert!(x >= 0.0, "rate must be non-negative");
    assert!((0.0..=1.0).contains(&loss), "loss is a fraction");
    x * (1.0 - loss) * sigmoid(p.alpha * (p.loss_knee - loss)) - p.delta * x * loss
}

/// The attacker's computation (§4.2, Kerckhoff's principle: the utility
/// function is known): the drop fraction `d` to apply to the `r(1+ε)`
/// phase so its utility equals the untouched `r(1−ε)` phase's.
///
/// Solves `u((1+ε)·r, d) = u((1−ε)·r, base_loss)` for `d` by bisection.
/// Returns `None` if the high phase is already no better (nothing to do).
pub fn equalizing_drop_rate(
    rate: f64,
    epsilon: f64,
    base_loss: f64,
    p: &UtilityParams,
) -> Option<f64> {
    let target = allegro_utility(rate * (1.0 - epsilon), base_loss, p);
    let hi_rate = rate * (1.0 + epsilon);
    if allegro_utility(hi_rate, base_loss, p) <= target {
        return None;
    }
    // u(hi_rate, d) is decreasing in d; bracket [base_loss, 0.5].
    let (mut lo, mut hi) = (base_loss, 0.5f64);
    if allegro_utility(hi_rate, hi, p) > target {
        return Some(hi); // extreme loss still not enough (cannot happen with sane params)
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if allegro_utility(hi_rate, mid, p) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> UtilityParams {
        UtilityParams::default()
    }

    #[test]
    fn increasing_in_rate_at_zero_loss() {
        assert!(allegro_utility(20.0, 0.0, &p()) > allegro_utility(10.0, 0.0, &p()));
    }

    #[test]
    fn decreasing_in_loss() {
        let u0 = allegro_utility(10.0, 0.0, &p());
        let u2 = allegro_utility(10.0, 0.02, &p());
        let u10 = allegro_utility(10.0, 0.10, &p());
        assert!(u0 > u2);
        assert!(u2 > u10);
    }

    #[test]
    fn collapses_past_knee() {
        // Past the 5% knee the sigmoid gates throughput to near zero and
        // the linear penalty dominates: utility goes negative.
        let u = allegro_utility(10.0, 0.15, &p());
        assert!(u < 0.0, "u = {u}");
    }

    #[test]
    fn zero_rate_zero_utility() {
        assert_eq!(allegro_utility(0.0, 0.0, &p()), 0.0);
        assert_eq!(allegro_utility(0.0, 0.3, &p()), 0.0);
    }

    #[test]
    fn higher_clean_rate_always_preferred() {
        // The controller's premise: with equal (low) loss, more rate wins.
        for l in [0.0, 0.005, 0.01] {
            assert!(allegro_utility(10.5, l, &p()) > allegro_utility(9.5, l, &p()));
        }
    }

    #[test]
    fn equalizer_finds_root() {
        let d = equalizing_drop_rate(10.0, 0.05, 0.0, &p()).expect("high phase better");
        // Applying d to the high phase must equalize utilities to ~1e-6.
        let u_hi = allegro_utility(10.0 * 1.05, d, &p());
        let u_lo = allegro_utility(10.0 * 0.95, 0.0, &p());
        assert!(
            (u_hi - u_lo).abs() < 1e-6 * u_lo.abs().max(1.0),
            "{u_hi} vs {u_lo}"
        );
        // And the needed drop is small — less than 2ε (the pure-throughput
        // bound), because the loss penalty helps the attacker.
        assert!(d > 0.0 && d < 0.10, "d = {d}");
    }

    #[test]
    fn equalizer_none_when_nothing_to_do() {
        // With loss already past the knee, the high phase is not better.
        assert_eq!(equalizing_drop_rate(10.0, 0.05, 0.20, &p()), None);
    }

    #[test]
    fn equalizer_scales_with_epsilon() {
        let d1 = equalizing_drop_rate(10.0, 0.01, 0.0, &p()).unwrap();
        let d5 = equalizing_drop_rate(10.0, 0.05, 0.0, &p()).unwrap();
        assert!(d5 > d1, "larger swings need more dropping");
    }
}
