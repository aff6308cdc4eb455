//! The attacker's flow population for the Blink takeover (§3.1).
//!
//! The attack needs `m` flows that (a) carry distinct 5-tuples so they can
//! occupy distinct selector cells, (b) are *always active* — one packet at
//! least every eviction timeout — so once sampled they are never evicted,
//! and (c) can all emit fake retransmissions (a repeated TCP sequence
//! number) on command. Crucially, as the paper notes, none of this requires
//! established TCP connections with the victim: packets are forged
//! unilaterally, which also means the victim prefix never answers them.

use crate::flows::random_key_in_prefix;
use dui_netsim::packet::{FlowKey, Prefix};
use dui_netsim::time::SimDuration;
use dui_stats::Rng;

/// Configuration for the malicious flow set.
#[derive(Debug, Clone)]
pub struct MaliciousFlowSetConfig {
    /// Victim prefix (flows spread across its addresses).
    pub prefix: Prefix,
    /// Number of distinct spoofed flows.
    pub count: usize,
    /// Keep-alive interval — must stay below Blink's 2 s eviction timeout.
    pub keepalive: SimDuration,
}

impl Default for MaliciousFlowSetConfig {
    fn default() -> Self {
        MaliciousFlowSetConfig {
            prefix: Prefix::new(dui_netsim::packet::Addr::new(10, 0, 0, 0), 24),
            count: 105,
            keepalive: SimDuration::from_millis(500),
        }
    }
}

/// The attacker's spoofed flow population.
#[derive(Debug, Clone)]
pub struct MaliciousFlowSet {
    /// Distinct 5-tuples.
    pub keys: Vec<FlowKey>,
    /// Keep-alive interval.
    pub keepalive: SimDuration,
}

impl MaliciousFlowSet {
    /// Generate `cfg.count` distinct spoofed flow keys.
    pub fn generate(cfg: &MaliciousFlowSetConfig, rng: &mut Rng) -> Self {
        assert!(cfg.count > 0, "need at least one malicious flow");
        assert!(
            cfg.keepalive < SimDuration::from_secs(2),
            "keep-alive must beat Blink's 2 s eviction timeout"
        );
        let mut keys = Vec::with_capacity(cfg.count);
        let mut seen = std::collections::HashSet::new();
        let mut sport = 40_000u16;
        while keys.len() < cfg.count {
            sport = sport.wrapping_add(7).max(1024);
            let key = random_key_in_prefix(cfg.prefix, rng, sport);
            if seen.insert(key) {
                keys.push(key);
            }
        }
        MaliciousFlowSet {
            keys,
            keepalive: cfg.keepalive,
        }
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the set is empty (never, per constructor).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::packet::Addr;

    #[test]
    fn generates_requested_count_distinct() {
        let cfg = MaliciousFlowSetConfig {
            count: 105,
            ..Default::default()
        };
        let set = MaliciousFlowSet::generate(&cfg, &mut Rng::new(1));
        assert_eq!(set.len(), 105);
        let distinct: std::collections::HashSet<_> = set.keys.iter().collect();
        assert_eq!(distinct.len(), 105);
    }

    #[test]
    fn keys_target_victim_prefix() {
        let prefix = Prefix::new(Addr::new(203, 0, 113, 0), 24);
        let cfg = MaliciousFlowSetConfig {
            prefix,
            count: 50,
            ..Default::default()
        };
        let set = MaliciousFlowSet::generate(&cfg, &mut Rng::new(2));
        for k in &set.keys {
            assert!(prefix.contains(k.dst));
        }
    }

    #[test]
    #[should_panic]
    fn keepalive_slower_than_eviction_rejected() {
        let cfg = MaliciousFlowSetConfig {
            keepalive: SimDuration::from_secs(3),
            ..Default::default()
        };
        MaliciousFlowSet::generate(&cfg, &mut Rng::new(4));
    }
}
