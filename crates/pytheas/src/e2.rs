//! The per-group exploration-exploitation engine: discounted UCB.
//!
//! Pytheas runs real-time E2 per group. We implement discounted UCB1: arm
//! statistics decay geometrically so the engine tracks non-stationary
//! quality (CDN performance shifts), and an exploration bonus keeps every
//! arm occasionally sampled. The discounting is what lets a poisoning
//! attacker steer the group quickly — history fades, so a burst of fake
//! reports dominates recent evidence.

use dui_stats::wire::Encoder;
use dui_stats::Rng;

/// Discounted UCB over `k` arms.
#[derive(Debug, Clone)]
pub struct DiscountedUcb {
    /// Discounted pull counts per arm.
    counts: Vec<f64>,
    /// Discounted reward sums per arm.
    sums: Vec<f64>,
    /// Discount factor γ applied per decision round.
    gamma: f64,
    /// Exploration coefficient.
    c: f64,
}

impl DiscountedUcb {
    /// `k` arms, discount `gamma ∈ (0, 1]`, exploration coefficient `c`.
    pub fn new(k: usize, gamma: f64, c: f64) -> Self {
        assert!(k > 0, "need at least one arm");
        assert!(
            (0.0..=1.0).contains(&gamma) && gamma > 0.0,
            "gamma in (0,1]"
        );
        assert!(c >= 0.0, "exploration coefficient must be non-negative");
        DiscountedUcb {
            counts: vec![0.0; k],
            sums: vec![0.0; k],
            gamma,
            c,
        }
    }

    /// Number of arms.
    pub fn arms(&self) -> usize {
        self.counts.len()
    }

    /// Discounted mean of an arm (0 if never pulled).
    pub fn mean(&self, arm: usize) -> f64 {
        if self.counts[arm] <= 0.0 {
            0.0
        } else {
            self.sums[arm] / self.counts[arm]
        }
    }

    /// Total discounted observations.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Pick an arm: unpulled arms first (in index order, tie-broken by
    /// rng), otherwise the UCB maximizer.
    pub fn pick(&self, rng: &mut Rng) -> usize {
        // Explore any effectively-unseen arm.
        let unseen: Vec<usize> = (0..self.arms())
            .filter(|&a| self.counts[a] < 1e-6)
            .collect();
        if !unseen.is_empty() {
            return *rng.pick(&unseen);
        }
        let total = self.total().max(1.0);
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for a in 0..self.arms() {
            let bonus = self.c * (total.ln() / self.counts[a]).sqrt();
            let score = self.mean(a) + bonus;
            if score > best_score {
                best_score = score;
                best = a;
            }
        }
        best
    }

    /// Feed a reward observation for `arm`, discounting all history one
    /// step first.
    pub fn update(&mut self, arm: usize, reward: f64) {
        for a in 0..self.arms() {
            self.counts[a] *= self.gamma;
            self.sums[a] *= self.gamma;
        }
        self.counts[arm] += 1.0;
        self.sums[arm] += reward;
    }

    /// The arm with the highest discounted mean (exploitation choice).
    pub fn best_arm(&self) -> usize {
        (0..self.arms())
            .max_by(|&a, &b| self.mean(a).total_cmp(&self.mean(b)))
            .unwrap_or(0)
    }

    /// The bandit's per-arm discounted counts and sums (γ and c are the
    /// engine's constants).
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        e.seq(self.counts.iter().zip(&self.sums), |e, (&n, &s)| {
            e.f64(n);
            e.f64(s);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explores_all_arms_first() {
        let mut ucb = DiscountedUcb::new(3, 0.99, 1.0);
        let mut rng = Rng::new(1);
        let mut seen = [false; 3];
        for _ in 0..3 {
            let a = ucb.pick(&mut rng);
            seen[a] = true;
            ucb.update(a, 0.5);
        }
        assert!(seen.iter().all(|&s| s), "all arms tried once");
    }

    #[test]
    fn converges_to_best_arm() {
        let mut ucb = DiscountedUcb::new(3, 1.0, 0.5);
        let mut rng = Rng::new(2);
        let true_means = [0.2, 0.8, 0.5];
        let mut picks = [0u32; 3];
        for _ in 0..2000 {
            let a = ucb.pick(&mut rng);
            picks[a] += 1;
            let noise = (rng.f64() - 0.5) * 0.1;
            ucb.update(a, true_means[a] + noise);
        }
        assert_eq!(ucb.best_arm(), 1);
        assert!(
            picks[1] > picks[0] + picks[2],
            "mostly exploits the best arm: {picks:?}"
        );
    }

    #[test]
    fn discounting_tracks_shifts() {
        let mut ucb = DiscountedUcb::new(2, 0.98, 0.3);
        let mut rng = Rng::new(3);
        // Arm 0 starts good.
        for _ in 0..300 {
            let a = ucb.pick(&mut rng);
            ucb.update(a, if a == 0 { 0.9 } else { 0.3 });
        }
        assert_eq!(ucb.best_arm(), 0);
        // Qualities flip; discounted stats adapt within a few hundred rounds.
        for _ in 0..300 {
            let a = ucb.pick(&mut rng);
            ucb.update(a, if a == 0 { 0.2 } else { 0.9 });
        }
        assert_eq!(ucb.best_arm(), 1, "adapts after the shift");
    }

    #[test]
    fn undiscounted_never_decays() {
        let mut ucb = DiscountedUcb::new(2, 1.0, 1.0);
        ucb.update(0, 1.0);
        ucb.update(1, 0.0);
        for _ in 0..100 {
            ucb.update(1, 0.0);
        }
        assert!((ucb.mean(0) - 1.0).abs() < 1e-12, "gamma=1 keeps history");
    }

    #[test]
    fn means_are_bounded_by_observations() {
        let mut ucb = DiscountedUcb::new(2, 0.9, 1.0);
        for i in 0..50 {
            ucb.update(i % 2, 0.7);
        }
        assert!((ucb.mean(0) - 0.7).abs() < 1e-9);
        assert!((ucb.mean(1) - 0.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_arms_rejected() {
        DiscountedUcb::new(0, 0.9, 1.0);
    }
}
