//! Per-prefix synthetic flow populations.
//!
//! A [`SyntheticFlow`] is the flow-level abstraction both experiment modes
//! consume: the fast Blink-selector simulation replays its packet schedule
//! directly, and [`SyntheticFlow::to_flow_spec`] lowers it onto a real
//! `dui-tcp` sender for packet-level runs.

use crate::stream::FlowStream;
use dui_netsim::packet::{Addr, FlowKey, Prefix};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::dist;
use dui_stats::Rng;
use dui_tcp::{FlowSpec, TcpSenderConfig};

/// One synthetic legitimate flow: active over `[start, start + duration)`,
/// sending one data segment every `pkt_interval` while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticFlow {
    /// The flow's 5-tuple.
    pub key: FlowKey,
    /// First packet time.
    pub start: SimTime,
    /// Active lifetime.
    pub duration: SimDuration,
    /// Inter-packet gap while active.
    pub pkt_interval: SimDuration,
}

impl SyntheticFlow {
    /// End of activity.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Is the flow active at `t`?
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }

    /// Number of packets the flow emits.
    pub fn packet_count(&self) -> u64 {
        if self.pkt_interval == SimDuration::ZERO {
            return 0;
        }
        1 + self.duration.as_nanos() / self.pkt_interval.as_nanos()
    }

    /// Lower onto a paced `dui-tcp` sender: the app rate reproduces the
    /// packet interval (one MSS per interval) and the total volume
    /// reproduces the duration.
    pub fn to_flow_spec(&self, mss: u32) -> FlowSpec {
        let interval_s = self.pkt_interval.as_secs_f64().max(1e-6);
        let rate = (mss as f64 / interval_s) as u64;
        let total = (rate as f64 * self.duration.as_secs_f64()) as u64;
        FlowSpec {
            key: self.key,
            start: self.start,
            config: TcpSenderConfig {
                mss,
                total_bytes: Some(total.max(mss as u64)),
                app_rate: Some(rate.max(1)),
                ..Default::default()
            },
        }
    }
}

/// Distribution of flow activity durations: lognormal body with a Pareto
/// tail (a standard fit for Internet flow lifetimes — most flows are short,
/// a heavy tail lasts minutes).
#[derive(Debug, Clone, Copy)]
pub struct DurationDist {
    /// lognormal `mu` (of ln seconds).
    pub ln_mu: f64,
    /// lognormal `sigma`.
    pub ln_sigma: f64,
    /// Probability a flow is drawn from the Pareto tail instead.
    pub tail_prob: f64,
    /// Pareto scale (seconds).
    pub tail_xm: f64,
    /// Pareto shape.
    pub tail_alpha: f64,
    /// Hard cap (seconds) so a single sample cannot dominate a finite run.
    pub max_secs: f64,
}

impl DurationDist {
    /// Sample a duration.
    pub fn sample(&self, rng: &mut Rng) -> SimDuration {
        let secs = if rng.chance(self.tail_prob) {
            dist::pareto(rng, self.tail_xm, self.tail_alpha)
        } else {
            dist::lognormal(rng, self.ln_mu, self.ln_sigma)
        };
        SimDuration::from_secs_f64(secs.min(self.max_secs))
    }
}

impl Default for DurationDist {
    /// Median 5 s body, 10% Pareto tail from 10 s with shape 1.5 (finite
    /// mean, infinite variance — classic mice-and-elephants mix).
    fn default() -> Self {
        DurationDist {
            ln_mu: 5.0f64.ln(),
            ln_sigma: 1.0,
            tail_prob: 0.1,
            tail_xm: 10.0,
            tail_alpha: 1.5,
            max_secs: 600.0,
        }
    }
}

/// Configuration for one prefix's flow population.
#[derive(Debug, Clone)]
pub struct FlowPopulationConfig {
    /// Destination prefix the flows target.
    pub prefix: Prefix,
    /// Poisson flow arrival rate (flows/second).
    pub arrival_rate: f64,
    /// Activity duration distribution.
    pub duration: DurationDist,
    /// Packet inter-arrival while active.
    pub pkt_interval: SimDuration,
    /// Generation horizon.
    pub horizon: SimDuration,
    /// Flows already active at t = 0 (warm start), sized to the stationary
    /// expectation `arrival_rate * E[duration]` if `None`.
    pub warm_start: Option<usize>,
}

/// A generated population of legitimate flows toward one prefix.
#[derive(Debug, Clone)]
pub struct FlowPopulation {
    /// The flows, sorted by start time.
    pub flows: Vec<SyntheticFlow>,
    /// The prefix they target.
    pub prefix: Prefix,
}

impl FlowPopulation {
    /// Generate a population: the flows of a [`FlowStream`] over the
    /// same config, collected. `rng` is left where the stream left it.
    pub fn generate(cfg: &FlowPopulationConfig, rng: &mut Rng) -> Self {
        let mut stream = FlowStream::new(cfg.clone(), rng.clone());
        let flows = stream.by_ref().collect();
        *rng = stream.into_rng();
        FlowPopulation {
            flows,
            prefix: cfg.prefix,
        }
    }

    /// A copy with every flow's start delayed by `offset` — generate a
    /// population on a local time axis, then splice it onto a later
    /// window (load surges in the scenario runner).
    pub fn shifted(&self, offset: SimDuration) -> FlowPopulation {
        FlowPopulation {
            flows: self
                .flows
                .iter()
                .map(|f| SyntheticFlow {
                    start: f.start + offset,
                    ..*f
                })
                .collect(),
            prefix: self.prefix,
        }
    }

    /// Number of flows active at `t`.
    pub fn active_at(&self, t: SimTime) -> usize {
        self.flows.iter().filter(|f| f.active_at(t)).count()
    }

    /// Mean flow duration in the population.
    pub fn mean_duration_secs(&self) -> f64 {
        if self.flows.is_empty() {
            return 0.0;
        }
        self.flows
            .iter()
            .map(|f| f.duration.as_secs_f64())
            .sum::<f64>()
            / self.flows.len() as f64
    }
}

/// Draw a random flow key whose destination lies inside `prefix`.
///
/// Source addresses spread over `198.18.0.0/15` (benchmarking range);
/// 5-tuples are made unique by (src addr, sport).
pub fn random_key_in_prefix(prefix: Prefix, rng: &mut Rng, sport: u16) -> FlowKey {
    let host_bits = 32 - prefix.len as u32;
    let host = if host_bits == 0 {
        0
    } else if host_bits >= 32 {
        rng.next_u32()
    } else {
        (rng.next_u32()) & ((1u32 << host_bits) - 1)
    };
    let dst = Addr(prefix.addr.0 | host);
    let src = Addr(Addr::new(198, 18, 0, 0).0 | (rng.next_u32() & 0x0001_FFFF));
    FlowKey::tcp(src, sport, dst, 80)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix() -> Prefix {
        Prefix::new(Addr::new(10, 0, 0, 0), 24)
    }

    fn config() -> FlowPopulationConfig {
        FlowPopulationConfig {
            prefix: prefix(),
            arrival_rate: 10.0,
            duration: DurationDist::default(),
            pkt_interval: SimDuration::from_millis(100),
            horizon: SimDuration::from_secs(100),
            warm_start: None,
        }
    }

    #[test]
    fn arrivals_match_rate() {
        let mut rng = Rng::new(1);
        let pop = FlowPopulation::generate(&config(), &mut rng);
        let arrived = pop.flows.iter().filter(|f| f.start > SimTime::ZERO).count() as f64;
        // Poisson(10/s * 100 s) = 1000 ± a few sigma.
        assert!((arrived - 1000.0).abs() < 150.0, "arrived = {arrived}");
    }

    #[test]
    fn keys_stay_inside_prefix() {
        let mut rng = Rng::new(2);
        let pop = FlowPopulation::generate(&config(), &mut rng);
        for f in &pop.flows {
            assert!(prefix().contains(f.key.dst), "{} escaped", f.key.dst);
        }
    }

    #[test]
    fn warm_start_population_is_stationary_estimate() {
        let mut rng = Rng::new(3);
        let pop = FlowPopulation::generate(&config(), &mut rng);
        let warm = pop
            .flows
            .iter()
            .filter(|f| f.start == SimTime::ZERO)
            .count() as f64;
        // E[D] for the default mix ≈ 0.9*E[lognormal(ln5,1)] + 0.1*E[pareto]
        // ≈ 0.9*8.24 + 0.1*30 ≈ 10.4 s (cap trims the tail slightly)
        // => ~90-110 warm flows at 10/s.
        assert!(warm > 50.0 && warm < 200.0, "warm = {warm}");
    }

    #[test]
    fn flows_sorted_by_start() {
        let mut rng = Rng::new(4);
        let pop = FlowPopulation::generate(&config(), &mut rng);
        for w in pop.flows.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn duration_median_close_to_body_median() {
        let d = DurationDist::default();
        let mut rng = Rng::new(5);
        let mut samples: Vec<f64> = (0..20_000)
            .map(|_| d.sample(&mut rng).as_secs_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        // Tail inflates the median a little above exp(mu) = 5.
        assert!((4.0..7.5).contains(&median), "median = {median}");
    }

    #[test]
    fn duration_capped() {
        let d = DurationDist {
            max_secs: 30.0,
            ..Default::default()
        };
        let mut rng = Rng::new(6);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) <= SimDuration::from_secs(30));
        }
    }

    #[test]
    fn active_at_counts() {
        let f = SyntheticFlow {
            key: random_key_in_prefix(prefix(), &mut Rng::new(7), 1),
            start: SimTime::from_secs(10),
            duration: SimDuration::from_secs(5),
            pkt_interval: SimDuration::from_millis(100),
        };
        assert!(!f.active_at(SimTime::from_secs(9)));
        assert!(f.active_at(SimTime::from_secs(10)));
        assert!(f.active_at(SimTime::from_secs(14)));
        assert!(!f.active_at(SimTime::from_secs(15)));
        assert_eq!(f.packet_count(), 51);
    }

    #[test]
    fn to_flow_spec_reproduces_rate_and_volume() {
        let f = SyntheticFlow {
            key: random_key_in_prefix(prefix(), &mut Rng::new(8), 1),
            start: SimTime::from_secs(1),
            duration: SimDuration::from_secs(10),
            pkt_interval: SimDuration::from_millis(100),
        };
        let spec = f.to_flow_spec(1460);
        assert_eq!(spec.start, SimTime::from_secs(1));
        assert_eq!(spec.config.app_rate, Some(14_600)); // 10 pkts/s * MSS
        assert_eq!(spec.config.total_bytes, Some(146_000));
    }

    #[test]
    fn deterministic_generation() {
        let a = FlowPopulation::generate(&config(), &mut Rng::new(9));
        let b = FlowPopulation::generate(&config(), &mut Rng::new(9));
        assert_eq!(a.flows, b.flows);
    }

    #[test]
    fn generate_leaves_rng_where_the_stream_ends() {
        let mut rng = Rng::new(10);
        FlowPopulation::generate(&config(), &mut rng);
        let mut stream = FlowStream::new(config(), Rng::new(10));
        stream.by_ref().for_each(drop);
        assert_eq!(rng.state(), stream.into_rng().state());
    }
}
