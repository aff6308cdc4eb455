//! [`Risk`]: the one value the paper's Fig. 3 loop passes around.
//!
//! A *driver* reads data-plane signals and proposes actions; a
//! *supervisor* holds a model of plausible behavior and estimates the
//! risk that the driver is "under the influence" (being fed adversarial
//! inputs). The supervisor sits *outside* the fast path (paper point
//! IV): it reads only the telemetry snapshots the registry already
//! exports. The loop is implemented once — each
//! [`streaming`](crate::streaming) signal's `observe` folds a snapshot
//! into a `Risk`, and [`supervisord`](crate::supervisord)'s
//! `SignalBank` turns the risk into the action the driver is allowed
//! (`Allow`, `Constrain` — the PCC ε clamp — or `Veto`). A one-off
//! score of a single frozen snapshot is a window of one.

/// Risk that the driver's current inputs are adversarial, in `[0, 1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Risk(pub f64);

impl Risk {
    /// No evidence of manipulation (the default).
    pub const NONE: Risk = Risk(0.0);
    /// Certain manipulation.
    pub const CERTAIN: Risk = Risk(1.0);

    /// Clamp into `[0, 1]`.
    pub fn clamped(v: f64) -> Risk {
        Risk(v.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn risk_clamped_constructor() {
        assert_eq!(Risk::clamped(-0.3).0, 0.0);
        assert_eq!(Risk::clamped(1.5).0, 1.0);
        assert!(Risk::NONE < Risk::CERTAIN);
    }
}
