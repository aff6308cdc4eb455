//! `supervisord_stream`: the streaming supervisor with no simulator
//! behind it. Eight synthetic telemetry producers (4 groups × benign /
//! Blink-ramp / Pytheas-poison / PCC-equalizer, two producers per group,
//! attack onset at one third of the run) each update a `Registry`, freeze
//! a snapshot and delta-encode a frame *inside* their iterator, so the
//! producer threads of `supervisord::run` do the telemetry work and block
//! on 64-deep channels into one worker: a closed loop of 8 clients.
//! telemetry + defense::streaming + supervisord; no engine, no tcp.
//!
//! One unit streams ten such fleets one after the other, 1500 epochs
//! each and each with its own noise seed, so that the unit has ten
//! segments.

use super::{Unit, Workload};
use crate::measure::{cpu_seconds, Checks, Laps};
use crate::trace::Trace;
use dui_core::stats::digest::StateDigest;
use dui_core::stats::rng::mix64;
use dui_core::stats::Rng;
use dui_core::supervisord::{self, Action, Clock, Config, ProducerSpec, SignalBank, Verdict};
use dui_core::telemetry::registry::{CounterId, GaugeId};
use dui_core::telemetry::{DeltaEncoder, Frame, LogHistogram, Registry, Snapshot};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

const PRODUCERS: usize = 8;
/// Registry updates per epoch: 1 Blink gauge, 5 QoE gauges, 4 PCC counters.
const UPDATES_PER_EPOCH: u64 = 10;

pub struct SupervisordStream {
    seed: u64,
    /// Fleets streamed per unit, one after the other.
    rounds: u64,
    /// Epochs each producer of a fleet streams.
    epochs: u64,
}

/// One synthetic telemetry source: the fleet of the `supervisord`
/// experiment stage, generated lazily.
struct Producer {
    profile: usize,
    rng: Rng,
    reg: Registry,
    blink: GaugeId,
    qoe: Vec<GaugeId>,
    /// high_lossy, high_total, low_lossy, low_total.
    pcc: [CounterId; 4],
    enc: DeltaEncoder,
    epoch: u64,
    epochs: u64,
}

impl Producer {
    fn new(i: usize, seed: u64, epochs: u64) -> Self {
        let mut reg = Registry::new();
        let blink = reg.gauge("blink.cells.malicious");
        let qoe = (0..5)
            .map(|k| reg.gauge(&format!("pytheas.qoe.p{i}.c{k}")))
            .collect();
        let pcc = [
            reg.counter("pcc.mi.high_lossy"),
            reg.counter("pcc.mi.high_total"),
            reg.counter("pcc.mi.low_lossy"),
            reg.counter("pcc.mi.low_total"),
        ];
        Producer {
            profile: (i / 2) % 4,
            rng: Rng::new(mix64(seed, i as u64)),
            reg,
            blink,
            qoe,
            pcc,
            enc: DeltaEncoder::new(i as u32),
            epoch: 0,
            epochs,
        }
    }

    fn spec(i: usize) -> ProducerSpec {
        ProducerSpec {
            id: i as u32,
            group: format!("site-g{}", i / 2),
        }
    }

    /// One epoch of metric updates.
    fn update(&mut self) {
        let onset = self.epochs / 3;
        let e = self.epoch;
        let attacking = e >= onset;
        // Blink cell occupancy: benign churn vs a takeover ramp.
        let occ = if self.profile == 1 && attacking {
            (2.0 + 1.4 * (e - onset) as f64).min(58.0)
        } else {
            2.0 + self.rng.range_f64(0.0, 2.0)
        };
        self.reg.observe(self.blink, occ);
        // Pytheas per-member QoE: the poisoned pair drags two members down.
        for (k, &g) in self.qoe.iter().enumerate() {
            let v = if self.profile == 2 && attacking && k >= 3 {
                0.02 + self.rng.range_f64(0.0, 0.01)
            } else {
                0.65 + self.rng.range_f64(0.0, 0.1)
            };
            self.reg.observe(g, v);
        }
        // PCC loss pattern: the equalizer pair concentrates loss on
        // high-rate monitor intervals.
        let [high_lossy, high_total, low_lossy, low_total] = self.pcc;
        self.reg.add(high_total, 50);
        self.reg.add(low_total, 50);
        let h = if self.profile == 3 && attacking {
            30
        } else {
            self.rng.below(3)
        };
        self.reg.add(high_lossy, h);
        self.reg.add(low_lossy, self.rng.below(3));
    }

    fn snapshot(&self) -> Snapshot {
        self.reg.snapshot()
    }

    fn encode(&mut self, snap: &Snapshot) -> Frame {
        let frame = self.enc.encode(self.epoch, snap, 0);
        self.epoch += 1;
        frame
    }
}

impl Iterator for Producer {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        if self.epoch >= self.epochs {
            return None;
        }
        self.update();
        let snap = self.snapshot();
        Some(self.encode(&snap))
    }
}

type Sources = Vec<(ProducerSpec, Producer)>;

impl SupervisordStream {
    pub fn new(seed: u64, quick: bool) -> Self {
        let (rounds, epochs) = if quick { (2, 150) } else { (10, 1500) };
        SupervisordStream {
            seed,
            rounds,
            epochs,
        }
    }

    /// The fleet of round `round`.
    fn sources(&self, round: u64) -> Sources {
        let seed = mix64(self.seed, round);
        (0..PRODUCERS)
            .map(|i| (Producer::spec(i), Producer::new(i, seed, self.epochs)))
            .collect()
    }

    fn frames_per_round(&self) -> u64 {
        PRODUCERS as u64 * self.epochs
    }

    /// Stream every round under a wall clock; returns the verdicts and the
    /// ingest-to-verdict latencies of all rounds, and the wall seconds.
    fn run_clocked(&self, workers: usize) -> (Vec<Verdict>, LogHistogram, f64) {
        let t0 = Instant::now();
        let clock: Clock = Arc::new(move || t0.elapsed().as_nanos() as u64);
        let cfg = Config {
            workers,
            clock: Some(clock),
            ..Config::default()
        };
        let mut verdicts = Vec::new();
        let mut latency_ns = LogHistogram::new();
        for round in 0..self.rounds {
            let report = supervisord::run(&cfg, self.sources(round));
            verdicts.extend(report.verdicts);
            latency_ns.merge(&report.latency_ns);
        }
        (verdicts, latency_ns, t0.elapsed().as_secs_f64())
    }

    /// Output checks on one round's verdicts.
    fn check_verdicts(&self, verdicts: &[Verdict], checks: &mut Checks) {
        checks.check(verdicts.len() as u64 == self.frames_per_round(), || {
            format!(
                "{} verdicts for {} frames",
                verdicts.len(),
                self.frames_per_round()
            )
        });
        // Groups cycle benign / Blink / Pytheas / PCC: exactly the three
        // attacked groups must be flagged, and only after the onset.
        let flagged: BTreeSet<&str> = verdicts
            .iter()
            .filter(|v| v.action != Action::Allow)
            .map(|v| v.group.as_str())
            .collect();
        checks.check(
            flagged.iter().eq(["site-g1", "site-g2", "site-g3"].iter()),
            || format!("flagged groups {flagged:?}"),
        );
        let early = verdicts
            .iter()
            .filter(|v| v.epoch < self.epochs / 3 && v.action == Action::Veto)
            .count();
        checks.check(early == 0, || {
            format!("{early} vetoes before the attack onset")
        });
    }
}

fn verdict_digest(verdicts: &[Verdict]) -> u64 {
    let mut d = StateDigest::labeled("verdicts");
    d.write_str(&supervisord::verdict::to_jsonl(verdicts));
    d.finish()
}

#[derive(Default)]
pub struct StreamState {
    /// One fleet per round, in order.
    sources: Vec<Sources>,
    /// Verdicts of every round, in order.
    verdicts: Vec<Verdict>,
}

impl Workload for SupervisordStream {
    type State = StreamState;

    fn name(&self) -> &'static str {
        "supervisord_stream"
    }

    fn size(&self) -> String {
        format!(
            "{} rounds x {PRODUCERS} producers x {} epochs = {} frames, workers 1, channel capacity 64",
            self.rounds,
            self.epochs,
            self.rounds * self.frames_per_round()
        )
    }

    fn setup(&self) -> StreamState {
        StreamState {
            sources: (0..self.rounds).map(|r| self.sources(r)).collect(),
            verdicts: Vec::new(),
        }
    }

    fn run(&self, st: &mut StreamState, laps: &mut Laps) -> u64 {
        let mut frames = 0;
        for sources in st.sources.drain(..) {
            let report = supervisord::run(&Config::default(), sources);
            frames += report.frames;
            st.verdicts.extend(report.verdicts);
            laps.mark();
        }
        frames
    }

    fn digest(&self, st: &mut StreamState) -> u64 {
        verdict_digest(&st.verdicts)
    }

    fn verify(&self, st: &mut StreamState, checks: &mut Checks) {
        let per_round = self.frames_per_round() as usize;
        checks.check(
            st.verdicts.len() == per_round * self.rounds as usize,
            || format!("{} verdicts in {} rounds", st.verdicts.len(), self.rounds),
        );
        for round in st.verdicts.chunks(per_round) {
            self.check_verdicts(round, checks);
        }
    }

    fn trace(&self, trace: &mut Trace, checks: &mut Checks) -> Unit {
        // The same frames, single-threaded, layer by layer. Epoch-major
        // order over the producers is the pipeline's merge order
        // (epoch, producer, seq), so each bank sees what its worker saw.
        let mut verdicts = Vec::with_capacity((self.rounds * self.frames_per_round()) as usize);
        for round in 0..self.rounds {
            let mut sources = self.sources(round);
            let mut banks: Vec<SignalBank> = (0..PRODUCERS / 2)
                .map(|_| SignalBank::new(&Config::default().signals))
                .collect();
            for _ in 0..self.epochs {
                for (i, (spec, p)) in sources.iter_mut().enumerate() {
                    let t0 = Instant::now();
                    p.update();
                    let t1 = Instant::now();
                    let snap = p.snapshot();
                    let t2 = Instant::now();
                    let frame = p.encode(&snap);
                    let t3 = Instant::now();
                    let verdict = banks[i / 2].observe(&spec.group, &frame);
                    let t4 = Instant::now();
                    verdicts.push(verdict);
                    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
                    trace.span("telemetry.registry.update", ns(t0, t1), UPDATES_PER_EPOCH);
                    trace.span("telemetry.registry.snapshot", ns(t1, t2), 1);
                    trace.span("telemetry.delta.encode", ns(t2, t3), 1);
                    trace.span("supervisord.signals.observe", ns(t3, t4), 1);
                }
            }
        }
        let jsonl = trace.time("supervisord.verdict.to_jsonl", || {
            supervisord::verdict::to_jsonl(&verdicts)
        });
        let layered: f64 = [
            "telemetry.registry.update",
            "telemetry.registry.snapshot",
            "telemetry.delta.encode",
            "supervisord.signals.observe",
        ]
        .iter()
        .map(|s| trace.busy_s(s))
        .sum();

        // The real pipeline under a wall clock: one worker (the timed
        // configuration) for latency, two workers for the scaling figure.
        let cpu0 = cpu_seconds();
        let (w1, w1_latency_ns, w1_wall) = self.run_clocked(1);
        trace.set(
            "supervisord.pipeline.cpu_per_wall",
            (cpu_seconds() - cpu0) / w1_wall,
        );
        checks.check(supervisord::verdict::to_jsonl(&w1) == jsonl, || {
            "pipeline verdict log differs from the single-threaded re-drive".into()
        });
        trace.set("supervisord.pipeline.serial_share", layered / w1_wall);
        trace.set(
            "supervisord.pipeline.latency_p50_us",
            w1_latency_ns.quantile(0.5) as f64 / 1e3,
        );
        trace.set(
            "supervisord.pipeline.latency_p99_us",
            w1_latency_ns.quantile(0.99) as f64 / 1e3,
        );
        let vetoes = w1.iter().filter(|v| v.action == Action::Veto).count();
        trace.set("supervisord.pipeline.vetoes", vetoes as f64);
        let (w2, _, w2_wall) = self.run_clocked(2);
        checks.check(w2 == w1, || {
            "verdict log at 2 workers differs from 1 worker".into()
        });
        trace.set(
            "supervisord.pipeline.w2_frames_per_s",
            w2.len() as f64 / w2_wall,
        );
        let mut st = StreamState {
            sources: Vec::new(),
            verdicts: w1,
        };
        self.verify(&mut st, checks);
        Unit {
            ops: st.verdicts.len() as u64,
            digest: self.digest(&mut st),
        }
    }
}
