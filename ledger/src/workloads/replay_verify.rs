//! `replay_verify`: the `dui-replay` path end to end, in memory. One
//! Blink packet-level run (1000 + 105 flows, 16 simulated seconds, ≈ 1.8 M
//! engine events) is recorded event by event with a checkpoint every
//! 100k events, encoded (`Recording::to_bytes`), decoded (`from_bytes`)
//! and verified by re-driving a second, identical engine against it
//! (`Replayer::verify`). Exercises the per-event digests, the state hash,
//! the checkpoint codec and the recording codec; the recording and its
//! bytes make it the memory-heavy engine workload.

use super::blink_packet::c4_config;
use super::{Unit, Workload};
use crate::measure::{Checks, Laps};
use crate::trace::{timed, Trace};
use dui_core::netsim::time::SimTime;
use dui_core::replay::{Recorder, Recording, ReplayReport, Replayer, SimulatorSubject};
use dui_core::scenario::{BlinkScenario, BlinkScenarioConfig};
use dui_core::stats::digest::StateDigest;

const STAGE: &str = "ledger-replay";

pub struct ReplayVerify {
    cfg: BlinkScenarioConfig,
    end: SimTime,
    ckpt_every: u64,
}

pub struct ReplayState {
    recorded: SimulatorSubject,
    verified: SimulatorSubject,
    outcome: Option<Outcome>,
}

struct Outcome {
    recording: Recording,
    bytes: usize,
    round_trip_exact: bool,
    report: Result<ReplayReport, String>,
}

impl ReplayVerify {
    pub fn new(seed: u64, quick: bool) -> Self {
        let (legit, malicious, t_end, ckpt_every) = if quick {
            (40, 8, 10, 2_000)
        } else {
            (1000, 105, 16, 100_000)
        };
        ReplayVerify {
            cfg: c4_config(legit, malicious, t_end, seed),
            end: SimTime::from_secs(t_end),
            ckpt_every,
        }
    }

    fn config_digest(&self) -> u64 {
        let mut d = StateDigest::labeled(STAGE);
        d.write_usize(self.cfg.legit_flows);
        d.write_usize(self.cfg.malicious_flows);
        d.write_u64(self.cfg.seed);
        d.write_u64(self.end.0);
        d.finish()
    }

    fn subject(&self) -> SimulatorSubject {
        SimulatorSubject::new(
            BlinkScenario::build(&self.cfg).sim,
            self.end,
            self.config_digest(),
        )
    }

    /// Record → encode → decode → verify; each step is a segment, and a
    /// span when traced.
    fn round_trip(
        &self,
        st: &mut ReplayState,
        laps: &mut Laps,
        mut trace: Option<&mut Trace>,
    ) -> u64 {
        let t = &mut trace;
        let recording = timed(t, "replay.record.record", || {
            Recorder::new(STAGE, self.config_digest(), self.ckpt_every).record(&mut st.recorded)
        });
        laps.mark();
        let bytes = timed(t, "replay.record.to_bytes", || recording.to_bytes());
        laps.mark();
        let decoded = timed(t, "replay.record.from_bytes", || {
            Recording::from_bytes(&bytes)
        });
        laps.mark();
        let report = match &decoded {
            Ok(back) => timed(t, "replay.replay.verify", || {
                Replayer::new(back).verify(&mut st.verified)
            })
            .map_err(|e| e.to_string()),
            Err(e) => Err(format!("decode failed: {e}")),
        };
        let ops = recording.events.len() as u64 + report.as_ref().map_or(0, |r| r.events);
        st.outcome = Some(Outcome {
            round_trip_exact: decoded.as_ref() == Ok(&recording),
            bytes: bytes.len(),
            recording,
            report,
        });
        ops
    }
}

impl Workload for ReplayVerify {
    type State = ReplayState;

    fn name(&self) -> &'static str {
        "replay_verify"
    }

    fn size(&self) -> String {
        format!(
            "{} + {} flows to {} s, checkpoint every {} events",
            self.cfg.legit_flows,
            self.cfg.malicious_flows,
            self.end.as_secs_f64(),
            self.ckpt_every
        )
    }

    fn setup(&self) -> ReplayState {
        ReplayState {
            recorded: self.subject(),
            verified: self.subject(),
            outcome: None,
        }
    }

    fn run(&self, st: &mut ReplayState, laps: &mut Laps) -> u64 {
        self.round_trip(st, laps, None)
    }

    fn digest(&self, st: &mut ReplayState) -> u64 {
        let mut d = StateDigest::labeled(STAGE);
        if let Some(o) = &st.outcome {
            d.write_u64(o.recording.final_hash);
            d.write_len(o.recording.events.len());
            d.write_len(o.recording.checkpoints.len());
            d.write_len(o.bytes);
        }
        d.finish()
    }

    fn verify(&self, st: &mut ReplayState, checks: &mut Checks) {
        let Some(o) = &st.outcome else {
            checks.check(false, || "the round trip never ran".into());
            return;
        };
        checks.check(o.round_trip_exact, || {
            "decoded recording differs from the original".into()
        });
        checks.check(!o.recording.events.is_empty(), || {
            "nothing was recorded".into()
        });
        match &o.report {
            Ok(r) => {
                checks.check(
                    r.events == o.recording.events.len() as u64
                        && r.checkpoints_verified == o.recording.checkpoints.len() as u64,
                    || format!("verified {r:?} of {} events", o.recording.events.len()),
                );
                let live = st.verified.sim().state_hash();
                checks.check(
                    r.final_hash == o.recording.final_hash && live == r.final_hash,
                    || format!("final hash {:x} vs live {live:x}", r.final_hash),
                );
            }
            Err(e) => checks.check(false, || format!("replay failed: {e}")),
        }
    }

    fn trace(&self, trace: &mut Trace, checks: &mut Checks) -> Unit {
        let mut st = self.setup();
        let ops = self.round_trip(&mut st, &mut Laps::start(), Some(trace));
        if let Some(o) = &st.outcome {
            let events = o.recording.events.len().max(1) as f64;
            trace.set("replay.record.events", o.recording.events.len() as f64);
            trace.set(
                "replay.record.checkpoints",
                o.recording.checkpoints.len() as f64,
            );
            trace.set("replay.record.bytes_per_event", o.bytes as f64 / events);
            trace.set("netsim.sim.events", o.recording.events.len() as f64);
        }
        // The same scenario on the bare engine: what recording costs.
        let mut plain = BlinkScenario::build(&self.cfg);
        trace.time("netsim.sim.plain_run", || plain.sim.run_until(self.end));
        trace.set(
            "replay.record.slowdown_vs_plain",
            trace.busy_s("replay.record.record") / trace.busy_s("netsim.sim.plain_run"),
        );
        checks.check(
            st.outcome
                .as_ref()
                .is_some_and(|o| o.recording.final_hash == plain.sim.state_hash()),
            || "recorded final hash differs from the bare engine's".into(),
        );
        self.verify(&mut st, checks);
        Unit {
            ops,
            digest: self.digest(&mut st),
        }
    }
}
