//! Lazy flow-arrival streaming.
//!
//! [`FlowStream`] is the one flow generator: it derives each flow from
//! the seeded RNG *on demand* — warm flows (all starting at `t = 0`)
//! first, then Poisson arrivals, so start times never decrease.
//! Million-flow packet-level runs admit flows straight off the stream in
//! constant memory, and
//! [`FlowPopulation::generate`](crate::flows::FlowPopulation::generate)
//! is the same stream collected, so the two paths cannot drift apart.

use crate::flows::{random_key_in_prefix, FlowPopulationConfig, SyntheticFlow};
use dui_netsim::time::SimTime;
use dui_stats::digest::StateDigest;
use dui_stats::wire::{Encoder, Sink};
use dui_stats::{dist, Rng};
use dui_tcp::{FlowSource, FlowSpec};

/// An iterator over a flow population, sorted by start time, that never
/// materializes it.
pub struct FlowStream {
    cfg: FlowPopulationConfig,
    rng: Rng,
    warm_total: usize,
    warm_emitted: usize,
    /// Poisson clock (seconds), advanced per arrival.
    t: f64,
    horizon_secs: f64,
    sport: u16,
    emitted: u64,
    done: bool,
}

impl FlowStream {
    /// Start a stream that draws every flow from `rng`.
    pub fn new(cfg: FlowPopulationConfig, mut rng: Rng) -> Self {
        assert!(cfg.arrival_rate > 0.0, "arrival rate must be positive");
        // Warm start: flows whose lifetime straddles t = 0. Stationary
        // expectation of concurrently-active flows is rate * E[D], with
        // E[D] estimated on a fork of `rng` (which advances it by one
        // draw); residual lifetimes come from the duration distribution
        // itself (an approximation of the inspection-paradox residual;
        // adequate here because the selector resamples within seconds).
        let mean_dur_secs = {
            let mut probe = rng.fork(0xD0);
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += cfg.duration.sample(&mut probe).as_secs_f64();
            }
            acc / 1000.0
        };
        let warm_total = cfg
            .warm_start
            .unwrap_or((cfg.arrival_rate * mean_dur_secs).round() as usize);
        let horizon_secs = cfg.horizon.as_secs_f64();
        FlowStream {
            cfg,
            rng,
            warm_total,
            warm_emitted: 0,
            t: 0.0,
            horizon_secs,
            sport: 1024,
            emitted: 0,
            done: false,
        }
    }

    /// Flows emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The RNG, advanced past every flow emitted so far.
    pub(crate) fn into_rng(self) -> Rng {
        self.rng
    }

    /// The stream's resume state: the RNG words plus the generation
    /// counters fully determine every future flow.
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        self.rng.state().into_iter().for_each(|w| e.u64(w));
        e.varint_usize(self.warm_total);
        e.varint_usize(self.warm_emitted);
        e.f64(self.t);
        e.u64(self.emitted);
        e.u16(self.sport);
        e.bool(self.done);
    }

    /// Fold [`FlowStream::encode`] into a digest.
    pub fn state_digest(&self, d: &mut StateDigest) {
        self.encode(d);
    }
}

impl Iterator for FlowStream {
    type Item = SyntheticFlow;

    fn next(&mut self) -> Option<SyntheticFlow> {
        if self.done {
            return None;
        }
        if self.warm_emitted < self.warm_total {
            // Warm start: duration, then key.
            let i = self.warm_emitted;
            self.warm_emitted += 1;
            self.emitted += 1;
            let duration = self.cfg.duration.sample(&mut self.rng);
            let key = random_key_in_prefix(self.cfg.prefix, &mut self.rng, 50_000 + i as u16);
            return Some(SyntheticFlow {
                key,
                start: SimTime::ZERO,
                duration,
                pkt_interval: self.cfg.pkt_interval,
            });
        }
        // Poisson arrival: gap, then key, then duration.
        self.t += dist::exponential(&mut self.rng, self.cfg.arrival_rate);
        if self.t >= self.horizon_secs {
            self.done = true;
            return None;
        }
        self.sport = self.sport.wrapping_add(1).max(1024);
        let key = random_key_in_prefix(self.cfg.prefix, &mut self.rng, self.sport);
        let duration = self.cfg.duration.sample(&mut self.rng);
        self.emitted += 1;
        Some(SyntheticFlow {
            key,
            start: SimTime::from_secs_f64(self.t),
            duration,
            pkt_interval: self.cfg.pkt_interval,
        })
    }
}

/// Adapts a [`FlowStream`] to `dui-tcp`'s [`FlowSource`]: lowers each
/// synthetic flow onto a sender spec as the host asks for it. Holds one
/// look-ahead flow so the host can arm its wake timer.
///
/// Generative by design: it refuses to be written as checkpoint bytes,
/// so its host cannot checkpoint mid-stream (use [`VecSource`] workloads
/// for record/replay runs).
///
/// [`VecSource`]: dui_tcp::VecSource
pub struct StreamSource {
    stream: FlowStream,
    mss: u32,
    handshake: bool,
    next: Option<FlowSpec>,
}

impl StreamSource {
    /// Wrap a stream, lowering flows with the given MSS.
    pub fn new(stream: FlowStream, mss: u32) -> Self {
        let mut s = StreamSource {
            stream,
            mss,
            handshake: false,
            next: None,
        };
        s.refill();
        s
    }

    /// Lower flows with the full RFC 9293 lifecycle (SYN handshake and
    /// FIN/TIME-WAIT teardown) instead of the handshake-less model.
    pub fn with_handshake(mut self, on: bool) -> Self {
        self.handshake = on;
        if let Some(spec) = &mut self.next {
            spec.config.handshake = on;
        }
        self
    }

    fn refill(&mut self) {
        self.next = self.stream.next().map(|f| {
            let mut spec = f.to_flow_spec(self.mss);
            spec.config.handshake = self.handshake;
            spec
        });
    }
}

impl FlowSource for StreamSource {
    fn pop_due(&mut self, now: SimTime) -> Option<FlowSpec> {
        if self.next.as_ref()?.start <= now {
            let spec = self.next.take();
            self.refill();
            spec
        } else {
            None
        }
    }

    fn peek_start(&self) -> Option<SimTime> {
        self.next.as_ref().map(|s| s.start)
    }

    fn encode(&self, s: &mut Sink<'_>) {
        s.refuse("a generative flow stream has no checkpoint decoder");
        self.stream.encode(s);
        s.u32(self.mss);
        s.bool(self.handshake);
        s.opt(self.next.as_ref(), |s, spec| spec.encode(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::DurationDist;
    use dui_netsim::packet::{Addr, Prefix};
    use dui_netsim::time::SimDuration;

    fn config() -> FlowPopulationConfig {
        FlowPopulationConfig {
            prefix: Prefix::new(Addr::new(10, 0, 0, 0), 24),
            arrival_rate: 10.0,
            duration: DurationDist::default(),
            pkt_interval: SimDuration::from_millis(100),
            horizon: SimDuration::from_secs(100),
            warm_start: None,
        }
    }

    #[test]
    fn source_pops_in_start_order() {
        let mut src = StreamSource::new(FlowStream::new(config(), Rng::new(3)), 1460);
        let mut last = SimTime::ZERO;
        let mut n = 0usize;
        while let Some(at) = src.peek_start() {
            let spec = src.pop_due(at).expect("due at its own start");
            assert!(spec.start >= last);
            last = spec.start;
            n += 1;
        }
        assert!(n > 500, "expected a full population, got {n}");
    }

    #[test]
    fn source_respects_now() {
        let mut src = StreamSource::new(FlowStream::new(config(), Rng::new(3)), 1460);
        // Drain the warm flows at t=0; the first Poisson arrival is later.
        while src.pop_due(SimTime::ZERO).is_some() {}
        let next = src.peek_start().unwrap();
        assert!(next > SimTime::ZERO);
        assert!(src.pop_due(SimTime(next.0 - 1)).is_none());
        assert!(src.pop_due(next).is_some());
    }

    #[test]
    fn handshake_lowering_sets_config() {
        let src =
            StreamSource::new(FlowStream::new(config(), Rng::new(5)), 1460).with_handshake(true);
        assert!(src.next.as_ref().unwrap().config.handshake);
    }
}
