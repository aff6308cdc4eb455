//! The Pytheas frontend loop: sessions arrive in rounds, receive decisions
//! from their group's E2 engine, experience QoE, and report back.
//!
//! The engine is where both §4.1 attacks land:
//!
//! * **Botnet poisoning** — a fraction of each round's sessions are
//!   attacker-controlled and report adversarial values instead of their
//!   experience;
//! * **MitM throttling** — the *experienced* quality of one arm is
//!   degraded for a fraction of sessions, so even honest reports drive the
//!   group away from that arm ("throttle user flows to/from a particular
//!   CDN site … the attacker can create imbalance and potentially overload
//!   one site as entire groups of clients switch to it").
//!
//! The [`ReportFilter`] hook is where the §5 countermeasure ("look at the
//! distribution of throughput across all clients in a group") plugs in.

use crate::backend::SessionRecord;
use crate::e2::DiscountedUcb;
use crate::qoe::{QoeModel, Report};
use crate::session::{GroupKey, SessionFeatures};
use dui_stats::Rng;
use std::collections::BTreeMap;

/// Attacker report strategy for bot sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoisonStrategy {
    /// No poisoning (bots behave honestly).
    None,
    /// Report 0 whenever assigned `arm` (drag its estimate down); report
    /// honestly otherwise.
    DragDownArm(usize),
    /// Report 0 on `down` and 1.0 on `up` (drag one down, promote another).
    Promote {
        /// Arm to suppress.
        down: usize,
        /// Arm to promote.
        up: usize,
    },
}

/// MitM degradation of one arm's experienced quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throttle {
    /// Target arm (e.g. the CDN site being throttled).
    pub arm: usize,
    /// Multiplier applied to experienced quality (`0.0..1.0`).
    pub factor: f64,
    /// Fraction of sessions on that arm the MitM can reach.
    pub affected_fraction: f64,
}

/// A hook filtering each group-round's report batch before it reaches the
/// bandit. The §5 Pytheas countermeasure is implemented against this in
/// `dui-defense`.
pub trait ReportFilter {
    /// Return the subset of `reports` to accept.
    fn filter(&mut self, group: GroupKey, reports: &[Report]) -> Vec<Report>;
}

/// Accept-everything filter (the undefended baseline).
pub struct AcceptAll;

impl ReportFilter for AcceptAll {
    fn filter(&mut self, _group: GroupKey, reports: &[Report]) -> Vec<Report> {
        reports.to_vec()
    }
}

/// Discounted-UCB discount factor `γ` of every group's bandit.
pub const GAMMA: f64 = 0.995;
/// Discounted-UCB exploration coefficient `c` of every group's bandit.
pub const C: f64 = 0.3;

/// Engine configuration. The number of decision arms (CDN choices) is
/// the QoE model's.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Sessions arriving per group per round.
    pub sessions_per_round: usize,
    /// Fraction of sessions that are attacker bots.
    pub poison_fraction: f64,
    /// Bot reporting strategy.
    pub poison: PoisonStrategy,
    /// Optional MitM throttling.
    pub throttle: Option<Throttle>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sessions_per_round: 20,
            poison_fraction: 0.0,
            poison: PoisonStrategy::None,
            throttle: None,
        }
    }
}

/// Aggregated outcome of one round across all groups.
#[derive(Debug, Clone)]
pub struct RoundStats {
    /// Mean *true experienced* QoE of honest sessions this round.
    pub honest_qoe: f64,
    /// Fraction of all assignments that used the genuinely best arm.
    pub on_best_fraction: f64,
    /// Assignment share per arm (sums to 1).
    pub arm_share: Vec<f64>,
}

/// The frontend engine: one bandit per group, a shared ground-truth model.
///
/// ```
/// use dui_pytheas::engine::{make_groups, AcceptAll, EngineConfig, PytheasEngine};
/// use dui_pytheas::qoe::QoeModel;
///
/// let model = QoeModel::new(vec![0.3, 0.9], 0.05);
/// let mut e = PytheasEngine::new(model, EngineConfig::default(), &make_groups(1), 7);
/// let qoe = e.run(200, &mut AcceptAll);
/// assert!(qoe > 0.8, "the group converges onto the good arm: {qoe}");
/// ```
pub struct PytheasEngine {
    model: QoeModel,
    cfg: EngineConfig,
    groups: BTreeMap<GroupKey, DiscountedUcb>,
    rng: Rng,
    /// Per-round statistics, in order.
    pub history: Vec<RoundStats>,
    /// Session records for backend analysis (reported values, i.e. what
    /// the system actually sees — including lies).
    pub records: Vec<SessionRecord>,
    /// Cumulative pull count per arm across all rounds (telemetry).
    pub arm_pulls: Vec<u64>,
    /// Reports rejected by the [`ReportFilter`] across all rounds
    /// (telemetry; 0 under [`AcceptAll`]).
    pub filtered_reports: u64,
}

impl PytheasEngine {
    /// Build an engine over `groups` sharing ground truth `model`.
    pub fn new(model: QoeModel, cfg: EngineConfig, groups: &[GroupKey], seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.poison_fraction),
            "poison fraction is a fraction"
        );
        let map = groups
            .iter()
            .map(|&g| (g, DiscountedUcb::new(model.arms(), GAMMA, C)))
            .collect();
        let arms = model.arms();
        PytheasEngine {
            model,
            cfg,
            groups: map,
            rng: Rng::new(seed),
            history: Vec::new(),
            records: Vec::new(),
            arm_pulls: vec![0; arms],
            filtered_reports: 0,
        }
    }

    /// The bandit of one group (for inspection).
    pub fn group(&self, key: GroupKey) -> Option<&DiscountedUcb> {
        self.groups.get(&key)
    }

    /// Run one round through `filter`, returning its stats.
    pub fn run_round(&mut self, filter: &mut dyn ReportFilter) -> RoundStats {
        let mut honest_sum = 0.0;
        let mut honest_n = 0u64;
        let mut best_picks = 0u64;
        let mut total_picks = 0u64;
        let mut arm_counts = vec![0u64; self.model.arms()];
        let best = self.model.best_arm();
        let group_keys: Vec<GroupKey> = self.groups.keys().copied().collect();
        for key in group_keys {
            let mut batch: Vec<Report> = Vec::with_capacity(self.cfg.sessions_per_round);
            for _ in 0..self.cfg.sessions_per_round {
                let Some(ucb) = self.groups.get(&key) else {
                    break; // keys snapshot above; groups are never removed
                };
                let arm = ucb.pick(&mut self.rng);
                arm_counts[arm] += 1;
                self.arm_pulls[arm] += 1;
                total_picks += 1;
                if arm == best {
                    best_picks += 1;
                }
                let mut experienced = self.model.experience(arm, &mut self.rng);
                if let Some(t) = self.cfg.throttle {
                    if arm == t.arm && self.rng.chance(t.affected_fraction) {
                        experienced *= t.factor;
                    }
                }
                let malicious = self.rng.chance(self.cfg.poison_fraction);
                let value = if malicious {
                    match self.cfg.poison {
                        PoisonStrategy::None => experienced,
                        PoisonStrategy::DragDownArm(target) => {
                            if arm == target {
                                0.0
                            } else {
                                experienced
                            }
                        }
                        PoisonStrategy::Promote { down, up } => {
                            if arm == down {
                                0.0
                            } else if arm == up {
                                1.0
                            } else {
                                experienced
                            }
                        }
                    }
                } else {
                    honest_sum += experienced;
                    honest_n += 1;
                    experienced
                };
                batch.push(Report {
                    arm,
                    value,
                    malicious,
                });
                // Backend history: sessions inherit the group's features
                // plus a session-local location jitter so feature-aligned
                // attacks (per-location throttling) are discoverable.
                self.records.push(SessionRecord {
                    features: SessionFeatures {
                        asn: key.asn,
                        prefix16: key.prefix16,
                        location: key.location,
                        content: (self.records.len() % 4) as u16,
                    },
                    arm,
                    qoe: value,
                });
            }
            let accepted = filter.filter(key, &batch);
            self.filtered_reports += batch.len().saturating_sub(accepted.len()) as u64;
            let Some(ucb) = self.groups.get_mut(&key) else {
                continue; // keys snapshot above; groups are never removed
            };
            for r in accepted {
                ucb.update(r.arm, r.value);
            }
        }
        let stats = RoundStats {
            honest_qoe: if honest_n == 0 {
                0.0
            } else {
                honest_sum / honest_n as f64
            },
            on_best_fraction: if total_picks == 0 {
                0.0
            } else {
                best_picks as f64 / total_picks as f64
            },
            arm_share: arm_counts
                .iter()
                .map(|&c| c as f64 / total_picks.max(1) as f64)
                .collect(),
        };
        self.history.push(stats.clone());
        stats
    }

    /// Run `rounds` rounds; returns mean honest QoE over the last half
    /// (the steady-state metric the experiment reports).
    pub fn run(&mut self, rounds: usize, filter: &mut dyn ReportFilter) -> f64 {
        for _ in 0..rounds {
            self.run_round(filter);
        }
        self.steady_state_honest_qoe(rounds / 2)
    }

    /// Mean honest QoE over the last `window` recorded rounds.
    pub fn steady_state_honest_qoe(&self, window: usize) -> f64 {
        let n = self.history.len();
        if n == 0 || window == 0 {
            return 0.0;
        }
        let tail = &self.history[n.saturating_sub(window)..];
        tail.iter().map(|r| r.honest_qoe).sum::<f64>() / tail.len() as f64
    }

    /// Mean share of assignments on the genuinely best arm over the last
    /// `window` rounds.
    pub fn steady_state_on_best(&self, window: usize) -> f64 {
        let n = self.history.len();
        if n == 0 || window == 0 {
            return 0.0;
        }
        let tail = &self.history[n.saturating_sub(window)..];
        tail.iter().map(|r| r.on_best_fraction).sum::<f64>() / tail.len() as f64
    }

    /// Fold the engine's complete logical state into `d`: model, config,
    /// per-group bandits (the group map is a `BTreeMap`, so iteration is
    /// already stable), RNG, and accumulated history/records.
    pub fn state_digest(&self, d: &mut dui_stats::digest::StateDigest) {
        d.write_len(self.model.qualities.len());
        for &q in &self.model.qualities {
            d.write_f64(q);
        }
        d.write_f64(self.model.noise);
        d.write_usize(self.model.arms());
        d.write_f64(GAMMA);
        d.write_f64(C);
        d.write_usize(self.cfg.sessions_per_round);
        d.write_f64(self.cfg.poison_fraction);
        match self.cfg.poison {
            PoisonStrategy::None => d.write_u8(0),
            PoisonStrategy::DragDownArm(a) => {
                d.write_u8(1);
                d.write_usize(a);
            }
            PoisonStrategy::Promote { down, up } => {
                d.write_u8(2);
                d.write_usize(down);
                d.write_usize(up);
            }
        }
        match self.cfg.throttle {
            None => d.write_u8(0),
            Some(t) => {
                d.write_u8(1);
                d.write_usize(t.arm);
                d.write_f64(t.factor);
                d.write_f64(t.affected_fraction);
            }
        }
        d.write_len(self.groups.len());
        for (key, ucb) in &self.groups {
            d.write_u32(key.asn);
            d.write_u16(key.prefix16);
            d.write_u16(key.location);
            ucb.state_digest(d);
        }
        for w in self.rng.state() {
            d.write_u64(w);
        }
        d.write_len(self.history.len());
        for r in &self.history {
            d.write_f64(r.honest_qoe);
            d.write_f64(r.on_best_fraction);
            for &s in &r.arm_share {
                d.write_f64(s);
            }
        }
        d.write_len(self.records.len());
        for r in &self.records {
            d.write_u32(r.features.asn);
            d.write_u16(r.features.prefix16);
            d.write_u16(r.features.location);
            d.write_u16(r.features.content);
            d.write_usize(r.arm);
            d.write_f64(r.qoe);
        }
        d.write_len(self.arm_pulls.len());
        for &p in &self.arm_pulls {
            d.write_u64(p);
        }
        d.write_u64(self.filtered_reports);
    }

    /// 64-bit digest of the engine's complete logical state.
    pub fn state_hash(&self) -> u64 {
        let mut d = dui_stats::digest::StateDigest::labeled("pytheas");
        self.state_digest(&mut d);
        d.finish()
    }

    /// Mean per-arm load share over the last `window` rounds.
    pub fn steady_state_arm_share(&self, window: usize) -> Vec<f64> {
        let n = self.history.len();
        let tail = &self.history[n.saturating_sub(window.max(1))..];
        let mut share = vec![0.0; self.model.arms()];
        for r in tail {
            for (i, &s) in r.arm_share.iter().enumerate() {
                share[i] += s;
            }
        }
        for s in &mut share {
            *s /= tail.len().max(1) as f64;
        }
        share
    }
}

/// A convenience group list: `n` distinct groups.
pub fn make_groups(n: usize) -> Vec<GroupKey> {
    (0..n)
        .map(|i| GroupKey {
            asn: 3303 + i as u32,
            prefix16: i as u16,
            location: (i % 4) as u16,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> QoeModel {
        // CDN qualities differ modestly, as in practice; the ranking flips
        // once poisoned reports outweigh the 0.85-vs-0.70 gap.
        QoeModel::new(vec![0.4, 0.85, 0.7], 0.05)
    }

    #[test]
    fn clean_run_converges_to_best_arm() {
        let cfg = EngineConfig::default();
        let mut e = PytheasEngine::new(model(), cfg, &make_groups(2), 1);
        let qoe = e.run(300, &mut AcceptAll);
        assert!(qoe > 0.75, "steady honest QoE {qoe} should approach 0.85");
        assert!(
            e.steady_state_on_best(100) > 0.8,
            "best-arm share {}",
            e.steady_state_on_best(100)
        );
    }

    #[test]
    fn poisoning_degrades_group() {
        // §4.1: bots reporting poor QoE on the good arm (and praising a
        // worse one) drive the whole group to worse choices.
        let cfg = EngineConfig {
            poison_fraction: 0.2,
            poison: PoisonStrategy::Promote { down: 1, up: 2 },
            ..Default::default()
        };
        let mut e = PytheasEngine::new(model(), cfg, &make_groups(2), 2);
        let qoe = e.run(300, &mut AcceptAll);
        assert!(
            qoe < 0.78,
            "20% poison should pull honest QoE below the clean 0.85: {qoe}"
        );
        assert!(
            e.steady_state_on_best(100) < 0.5,
            "group largely driven off the best arm: {}",
            e.steady_state_on_best(100)
        );
    }

    #[test]
    fn poisoning_damage_grows_with_fraction() {
        let run = |f: f64| {
            let cfg = EngineConfig {
                poison_fraction: f,
                poison: PoisonStrategy::Promote { down: 1, up: 0 },
                ..Default::default()
            };
            let mut e = PytheasEngine::new(model(), cfg, &make_groups(1), 3);
            e.run(400, &mut AcceptAll)
        };
        let clean = run(0.0);
        let heavy = run(0.45);
        // Promoting the worst arm (0.4) while suppressing the best (0.85)
        // at 45% bots collapses honest QoE toward the worst arm.
        assert!(clean - heavy > 0.15, "clean {clean} vs heavy {heavy}");
    }

    #[test]
    fn throttling_herds_group_off_the_target_arm() {
        // MitM throttles the best arm: groups shift load to others,
        // creating the imbalance/overload effect.
        let cfg = EngineConfig {
            throttle: Some(Throttle {
                arm: 1,
                factor: 0.2,
                affected_fraction: 1.0,
            }),
            ..Default::default()
        };
        let mut e = PytheasEngine::new(model(), cfg, &make_groups(3), 4);
        e.run(300, &mut AcceptAll);
        let share = e.steady_state_arm_share(100);
        assert!(
            share[1] < 0.3,
            "throttled arm should lose its traffic: {share:?}"
        );
        let max_other = share[0].max(share[2]);
        assert!(
            max_other > 0.4,
            "load herds onto the remaining arms: {share:?}"
        );
    }

    #[test]
    fn groups_are_isolated() {
        // Poison only affects decisions via reports; with zero bots in a
        // separate engine run, convergence is unaffected by another run's
        // state (engines share nothing global).
        let cfg = EngineConfig::default();
        let mut a = PytheasEngine::new(model(), cfg.clone(), &make_groups(1), 5);
        let mut b = PytheasEngine::new(model(), cfg, &make_groups(1), 5);
        let qa = a.run(100, &mut AcceptAll);
        let qb = b.run(100, &mut AcceptAll);
        assert_eq!(qa, qb, "same seed, same outcome");
    }

    #[test]
    fn round_stats_shares_sum_to_one() {
        let cfg = EngineConfig::default();
        let mut e = PytheasEngine::new(model(), cfg, &make_groups(2), 6);
        let s = e.run_round(&mut AcceptAll);
        let total: f64 = s.arm_share.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
