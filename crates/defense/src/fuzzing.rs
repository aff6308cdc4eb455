//! Point II of §5: "for testing, one can use fuzzing techniques that
//! enable auto-generation of (realistic) adversarial inputs".
//!
//! This module is that tool, aimed at Blink: a mutation-based searcher
//! over *packet sequences* (who sends, when, and whether the sequence
//! number repeats) whose fitness is the victim pipeline's own internal
//! state — the count of monitored flows currently flagged as
//! retransmitting. Starting from random benign-looking traffic, the
//! search reliably *rediscovers* the §3.1 attack shape (occupy many
//! cells, then synchronize repeated-sequence packets inside the 800 ms
//! window) with no knowledge of the attack built in — early evidence for
//! the paper's position that automated adversarial-input discovery for
//! stateful data-plane programs is within reach (cf. Kang et al.).

use dui_blink::selector::{BlinkParams, FlowSelector, THRESHOLD};
use dui_netsim::packet::{Addr, FlowKey, Prefix};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::Rng;

/// One fuzzed packet: which flow of the pool sends, after what gap, and
/// whether it repeats its previous sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzPacket {
    /// Flow index in the candidate pool.
    pub flow: u16,
    /// Gap since the previous packet (milliseconds).
    pub gap_ms: u16,
    /// Repeat the flow's previous sequence number (i.e. look like a
    /// retransmission) instead of advancing it.
    pub repeat_seq: bool,
}

/// Size of the spoofed-flow pool the fuzzer may use.
const POOL: usize = 64;
/// Mutations applied per iteration.
const MUTATION_RATE: usize = 24;

/// Prefix under test; the victim pipeline is the paper's selector
/// ([`BlinkParams::default`]).
const PREFIX: Prefix = Prefix::new(Addr::new(10, 77, 0, 0), 16);

/// Fuzzer configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Packets per candidate sequence.
    pub sequence_len: usize,
    /// Search iterations (mutations).
    pub iterations: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            sequence_len: 600,
            iterations: 400,
            seed: 1,
        }
    }
}

/// Search outcome.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The best sequence found.
    pub sequence: Vec<FuzzPacket>,
    /// Peak retransmitting-flow count it achieved.
    pub peak_retransmitting: usize,
    /// Whether it crossed the failure threshold (a reroute trigger).
    pub triggered: bool,
    /// Iteration at which the best was found.
    pub found_at: usize,
}

/// The fuzzer.
pub struct BlinkFuzzer {
    cfg: FuzzConfig,
    /// Each spoofed 5-tuple with the selector cell it hashes to under
    /// the paper's selector parameters, which no replay changes.
    pool: Vec<(FlowKey, usize)>,
    rng: Rng,
}

impl BlinkFuzzer {
    /// Build with a fresh spoofed-flow pool.
    pub fn new(cfg: FuzzConfig) -> Self {
        let mut rng = Rng::new(cfg.seed);
        let selector = FlowSelector::new(BlinkParams::default());
        let pool = (0..POOL)
            .map(|i| {
                let key = dui_flowgen::flows::random_key_in_prefix(
                    PREFIX,
                    &mut rng,
                    10_000 + (i % 50_000) as u16,
                );
                (key, selector.index_of(&key))
            })
            .collect();
        BlinkFuzzer { cfg, pool, rng }
    }

    /// Evaluate a sequence: replay it into a fresh selector and return the
    /// peak in-window retransmitting-flow count (the trigger condition).
    pub fn evaluate(&self, seq: &[FuzzPacket]) -> usize {
        self.evaluate_full(seq).0
    }

    /// Replay and return `(peak retransmitting flows, total retransmission
    /// events)` — the second term smooths the fitness landscape for the
    /// search.
    fn evaluate_full(&self, seq: &[FuzzPacket]) -> (usize, u64) {
        use dui_blink::selector::Observation;
        let mut selector = FlowSelector::new(BlinkParams::default());
        let mut seqs = vec![1_000u32; self.pool.len()];
        let mut now = SimTime::ZERO;
        let mut peak = 0;
        let mut events = 0u64;
        for p in seq {
            now += SimDuration::from_millis(p.gap_ms as u64);
            let fi = p.flow as usize % self.pool.len();
            if !p.repeat_seq {
                seqs[fi] = seqs[fi].wrapping_add(1460);
            }
            let (key, cell) = self.pool[fi];
            if selector.on_packet_in_cell(cell, now, key, seqs[fi], false)
                == Observation::Retransmission
            {
                events += 1;
            }
            peak = peak.max(selector.retransmitting_flows(now));
        }
        (peak, events)
    }

    fn random_packet(&mut self) -> FuzzPacket {
        FuzzPacket {
            flow: self.rng.below(POOL as u64) as u16,
            // Spacing up to 150 ms — ordinary interactive-traffic pacing.
            gap_ms: self.rng.below(150) as u16,
            repeat_seq: self.rng.chance(0.15),
        }
    }

    /// Standard havoc-style sequence mutations: point edits plus two
    /// generic macro operators (local time compression and packet
    /// stuttering). None encodes anything Blink-specific.
    fn mutate(&mut self, seq: &mut Vec<FuzzPacket>) {
        for _ in 0..MUTATION_RATE {
            let i = self.rng.below_usize(seq.len());
            match self.rng.below(7) {
                0 => seq[i].flow = self.rng.below(POOL as u64) as u16,
                1 => seq[i].gap_ms = self.rng.below(150) as u16,
                2 => seq[i].repeat_seq = !seq[i].repeat_seq,
                3 => {
                    // Shrink a gap: pressure toward synchronized bursts.
                    seq[i].gap_ms /= 2;
                }
                4 => {
                    // Copy the previous packet's flow: promotes same-flow
                    // pairs (the raw material of a retransmission).
                    if i > 0 {
                        seq[i].flow = seq[i - 1].flow;
                    }
                }
                5 => {
                    // Compress time over a local window.
                    let end = (i + 32).min(seq.len());
                    for p in &mut seq[i..end] {
                        p.gap_ms /= 4;
                    }
                }
                _ => {
                    // Stutter: duplicate a packet right after itself (the
                    // classic duplication operator); drop the tail packet
                    // to keep the length fixed.
                    let mut dup = seq[i];
                    dup.gap_ms = self.rng.below(30) as u16;
                    seq.insert(i + 1, dup);
                    seq.pop();
                }
            }
        }
    }

    fn score(eval: (usize, u64)) -> u64 {
        eval.0 as u64 * 10_000 + eval.1
    }

    /// Run the search: random init + greedy hill-climbing on the victim's
    /// internal retransmission counters.
    pub fn search(&mut self) -> FuzzReport {
        let mut best: Vec<FuzzPacket> = (0..self.cfg.sequence_len)
            .map(|_| self.random_packet())
            .collect();
        let mut best_eval = self.evaluate_full(&best);
        let mut found_at = 0;
        for it in 0..self.cfg.iterations {
            let mut cand = best.clone();
            self.mutate(&mut cand);
            let eval = self.evaluate_full(&cand);
            if Self::score(eval) > Self::score(best_eval) {
                best_eval = eval;
                best = cand;
                found_at = it;
            }
        }
        FuzzReport {
            triggered: best_eval.0 >= THRESHOLD,
            sequence: best,
            peak_retransmitting: best_eval.0,
            found_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_benign_traffic_does_not_trigger() {
        let mut f = BlinkFuzzer::new(FuzzConfig {
            iterations: 0, // evaluation of the random seed only
            ..Default::default()
        });
        let seq: Vec<FuzzPacket> = (0..600).map(|_| f.random_packet()).collect();
        let peak = f.evaluate(&seq);
        assert!(
            peak < 32,
            "random traffic should stay under the threshold: {peak}"
        );
    }

    #[test]
    fn fuzzer_rediscovers_the_retransmission_storm() {
        let mut f = BlinkFuzzer::new(FuzzConfig {
            sequence_len: 800,
            iterations: 4000,
            seed: 3,
        });
        let report = f.search();
        assert!(
            report.triggered,
            "search should cross the 32-flow threshold: peak {}",
            report.peak_retransmitting
        );
        // The discovered sequence leans on repeated sequence numbers —
        // the defining feature of the §3.1 attack.
        let repeats = report.sequence.iter().filter(|p| p.repeat_seq).count() as f64
            / report.sequence.len() as f64;
        assert!(
            repeats > 0.15,
            "discovered input should be retransmission-heavy: {repeats:.2}"
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let f = BlinkFuzzer::new(FuzzConfig::default());
        let seq: Vec<FuzzPacket> = (0..100)
            .map(|i| FuzzPacket {
                flow: (i % 50) as u16,
                gap_ms: 100,
                repeat_seq: i % 3 == 0,
            })
            .collect();
        assert_eq!(f.evaluate(&seq), f.evaluate(&seq));
    }

    #[test]
    fn hand_built_storm_scores_threshold() {
        // Sanity: the known attack shape scores maximally, so the fitness
        // landscape has the right optimum.
        let f = BlinkFuzzer::new(FuzzConfig::default());
        let mut seq = Vec::new();
        // Occupy: every pool flow sends a fresh segment.
        for i in 0..64u16 {
            seq.push(FuzzPacket {
                flow: i,
                gap_ms: 5,
                repeat_seq: false,
            });
        }
        // Storm: everyone repeats within the window.
        for i in 0..64u16 {
            seq.push(FuzzPacket {
                flow: i,
                gap_ms: 2,
                repeat_seq: true,
            });
        }
        let peak = f.evaluate(&seq);
        assert!(peak >= 32, "hand-built storm peaks at {peak}");
    }
}
