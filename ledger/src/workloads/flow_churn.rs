//! `flow_churn`: the `dui-tcp` `FlowPool` with no engine around it.
//!
//! Set-up warm-admits 200k sender/listener pairs straight off a
//! `FlowStream` (400k live slots, ≈ 260 MiB — far beyond L2, so a wave
//! that returns to a pair after a full lap finds it cold). The timed
//! region then walks 1M further connections through the complete
//! RFC 9293 lifecycle — handshake, one data segment, FIN, a TIME-WAIT
//! tick — in waves of 4096 pairs; each closed pair is freed and its
//! slots re-admitted from the stream. Where `blink_packet` exercises tcp
//! in steady state on cache-resident flows, this is admit/evict-heavy and
//! miss-bound, and an engine change must not move it.

use super::{Unit, Workload};
use crate::measure::{rss_mib, Checks, Laps};
use crate::trace::Trace;
use dui_core::flowgen::flows::{DurationDist, FlowPopulationConfig, SyntheticFlow};
use dui_core::flowgen::FlowStream;
use dui_core::netsim::packet::{Addr, Prefix};
use dui_core::netsim::time::{SimDuration, SimTime};
use dui_core::stats::digest::StateDigest;
use dui_core::stats::Rng;
use dui_core::tcp::{FlowPool, FlowRef, StaleFlowRef, TcpState};
use std::time::Instant;

const WAVE: usize = 4096;

pub struct FlowChurn {
    seed: u64,
    pairs: usize,
    lifecycles: usize,
}

pub struct ChurnState {
    pool: FlowPool,
    stream: FlowStream,
    pairs: Vec<(FlowRef, FlowRef)>,
    /// Flows drawn for the wave being admitted (reused buffer).
    drawn: Vec<SyntheticFlow>,
    admitted: u32,
    now: SimTime,
    completed: u64,
    bytes_acked: u64,
    /// Handles freed by the last wave, kept to show they are refused.
    last_freed: Vec<FlowRef>,
}

/// Phase spans of a traced unit, one per wave and phase.
const PHASES: [&str; 6] = [
    "tcp.pool.exchange",
    "tcp.pool.tick",
    "tcp.pool.poll",
    "tcp.pool.free",
    "flowgen.stream.next",
    "tcp.pool.admit",
];

/// Handles the driver still owns are live; a stale one is a driver bug.
fn live<T>(res: Result<T, StaleFlowRef>) -> T {
    res.expect("flow_churn handle is live until the driver frees it")
}

impl ChurnState {
    fn admit_drawn(&mut self, into: Option<usize>) {
        for (k, f) in self.drawn.iter().enumerate() {
            let mut spec = f.to_flow_spec(1460);
            // One data segment per connection and an instantly expiring
            // TIME-WAIT: the workload is per-flow state cost, not volume.
            spec.config.handshake = true;
            spec.config.total_bytes = Some(1460);
            spec.config.app_rate = None;
            spec.config.time_wait = SimDuration::from_nanos(1);
            let isn = self.admitted.wrapping_mul(0x0100_0001).wrapping_add(1);
            self.admitted = self.admitted.wrapping_add(1);
            let s = self.pool.insert_sender(spec.key, spec.config, isn);
            let r = self.pool.insert_listener(spec.key);
            live(self.pool.on_start(s, self.now));
            match into {
                Some(at) => self.pairs[at + k] = (s, r),
                None => self.pairs.push((s, r)),
            }
        }
    }

    fn draw(&mut self, n: usize) {
        self.drawn.clear();
        self.drawn.extend(self.stream.by_ref().take(n));
        assert_eq!(self.drawn.len(), n, "flow stream ended early");
    }

    /// Run `lifecycles` connections to CLOSED, wave by wave; a wave is a
    /// segment. With a `trace`, each phase of each wave is one span
    /// covering its calls (a call is ~60 ns; a clock read per call would
    /// dominate).
    fn churn(&mut self, lifecycles: usize, laps: &mut Laps, mut trace: Option<&mut Trace>) -> u64 {
        let mut done = 0;
        let mut cursor = 0;
        let mut calls = [0u64; PHASES.len()];
        let mut mark = Instant::now();
        let mut phase_end = |phase: usize, calls: &mut [u64; PHASES.len()]| {
            if let Some(t) = trace.as_deref_mut() {
                let now = Instant::now();
                t.span(PHASES[phase], (now - mark).as_nanos() as u64, calls[phase]);
                calls[phase] = 0;
                mark = now;
            }
        };
        while done < lifecycles {
            let w = WAVE.min(lifecycles - done).min(self.pairs.len() - cursor);
            let wave = cursor..cursor + w;
            // Exchange: shuttle segments both ways until the wave is quiet.
            loop {
                let mut any = false;
                for &(s, r) in &self.pairs[wave.clone()] {
                    for pkt in live(self.pool.take_out(s)) {
                        live(self.pool.on_segment(r, self.now, &pkt));
                        calls[0] += 2;
                        any = true;
                    }
                    for pkt in live(self.pool.take_out(r)) {
                        live(self.pool.on_segment(s, self.now, &pkt));
                        calls[0] += 2;
                        any = true;
                    }
                }
                if !any {
                    break;
                }
            }
            phase_end(0, &mut calls);
            // Tick: expire TIME-WAIT.
            self.now += SimDuration::from_millis(1);
            for &(s, _) in &self.pairs[wave.clone()] {
                if self.pool.state(s) == Ok(TcpState::TimeWait) {
                    live(self.pool.on_tick(s, self.now));
                    calls[1] += 1;
                }
            }
            phase_end(1, &mut calls);
            // Poll: every sender of the wave must now be CLOSED.
            for &(s, _) in &self.pairs[wave.clone()] {
                if live(self.pool.state(s)) == TcpState::Closed {
                    self.completed += 1;
                }
                self.bytes_acked += live(self.pool.sender_stats(s)).bytes_acked;
                calls[2] += 2;
            }
            phase_end(2, &mut calls);
            // Free both ends.
            let last = done + w >= lifecycles;
            for &(s, r) in &self.pairs[wave.clone()] {
                live(self.pool.free(s));
                live(self.pool.free(r));
                calls[3] += 2;
                if last {
                    self.last_freed.extend([s, r]);
                }
            }
            phase_end(3, &mut calls);
            // Re-admit the freed slots from the stream.
            self.draw(w);
            calls[4] += w as u64;
            phase_end(4, &mut calls);
            self.admit_drawn(Some(cursor));
            calls[5] += 3 * w as u64;
            phase_end(5, &mut calls);
            laps.mark();
            done += w;
            cursor = (cursor + w) % self.pairs.len();
        }
        self.completed
    }

    fn stale_rejected(&self) -> usize {
        self.last_freed
            .iter()
            .filter(|&&r| self.pool.state(r).is_err())
            .count()
    }
}

impl FlowChurn {
    pub fn new(seed: u64, quick: bool) -> Self {
        let (pairs, lifecycles) = if quick {
            (WAVE, 20_000)
        } else {
            (200_000, 1_000_000)
        };
        FlowChurn {
            seed,
            pairs,
            lifecycles,
        }
    }
}

impl Workload for FlowChurn {
    type State = ChurnState;

    fn name(&self) -> &'static str {
        "flow_churn"
    }

    fn size(&self) -> String {
        format!(
            "{} warm pairs ({} live slots), {} lifecycles in waves of {WAVE}",
            self.pairs,
            2 * self.pairs,
            self.lifecycles
        )
    }

    fn setup(&self) -> ChurnState {
        let pop = FlowPopulationConfig {
            prefix: Prefix::new(Addr::new(10, 0, 0, 0), 8),
            // Arrivals after the warm population never run dry: the
            // stream is the source of every re-admission.
            arrival_rate: 1.0e6,
            duration: DurationDist::default(),
            pkt_interval: SimDuration::from_millis(100),
            horizon: SimDuration::from_secs(1_000_000),
            warm_start: Some(self.pairs),
        };
        let mut st = ChurnState {
            pool: FlowPool::new(),
            stream: FlowStream::new(pop, Rng::new(self.seed)),
            pairs: Vec::with_capacity(self.pairs),
            drawn: Vec::with_capacity(WAVE),
            admitted: 0,
            now: SimTime::ZERO,
            completed: 0,
            bytes_acked: 0,
            last_freed: Vec::with_capacity(2 * WAVE),
        };
        let mut left = self.pairs;
        while left > 0 {
            let n = left.min(WAVE);
            st.draw(n);
            st.admit_drawn(None);
            left -= n;
        }
        st
    }

    fn run(&self, st: &mut ChurnState, laps: &mut Laps) -> u64 {
        st.churn(self.lifecycles, laps, None)
    }

    fn digest(&self, st: &mut ChurnState) -> u64 {
        let mut d = StateDigest::labeled("flow-churn");
        d.write_u64(st.completed);
        d.write_u64(st.bytes_acked);
        st.stream.state_digest(&mut d);
        st.pool.state_digest(&mut d);
        d.finish()
    }

    fn verify(&self, st: &mut ChurnState, checks: &mut Checks) {
        checks.check(st.completed == self.lifecycles as u64, || {
            format!(
                "{} of {} connections reached CLOSED",
                st.completed, self.lifecycles
            )
        });
        checks.check(st.bytes_acked == 1460 * self.lifecycles as u64, || {
            format!("{} bytes acknowledged", st.bytes_acked)
        });
        checks.check(st.pool.live() == 2 * self.pairs, || {
            format!("{} live slots, expected {}", st.pool.live(), 2 * self.pairs)
        });
        checks.check(st.stale_rejected() == st.last_freed.len(), || {
            "a freed handle was not refused by the generation check".into()
        });
    }

    fn trace(&self, trace: &mut Trace, checks: &mut Checks) -> Unit {
        let rss0 = rss_mib();
        let mut st = self.setup();
        // Only the first set-up of a process grows the resident set by
        // what the slots need; later ones reuse what the allocator kept.
        if trace.units() == 0 {
            let slots = st.pool.capacity().max(1) as f64;
            trace.set(
                "tcp.pool.bytes_per_slot",
                ((rss_mib() - rss0) * 1024.0 * 1024.0 / slots).max(0.0),
            );
        }
        let t0 = Instant::now();
        let ops = st.churn(self.lifecycles, &mut Laps::start(), Some(trace));
        trace.set(
            "tcp.pool.ns_per_lifecycle",
            t0.elapsed().as_nanos() as f64 / self.lifecycles as f64,
        );
        trace.set("tcp.pool.stale_rejected", st.stale_rejected() as f64);
        trace.set("tcp.pool.high_water", st.pool.high_water() as f64);
        trace.set("tcp.pool.recycled", st.pool.recycled() as f64);
        self.verify(&mut st, checks);
        Unit {
            ops,
            digest: self.digest(&mut st),
        }
    }
}
