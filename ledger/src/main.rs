//! `ledger` — the benchmark every performance or simplicity claim about
//! `dui` is measured with. See `README.md` beside this package.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1 [--quick]   one run, one result line
//! ledger run [--seed N] [--seconds S] [--reps N] [--quick] [--out FILE]
//! ledger compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! measured for `S` seconds, end-to-end metrics untraced (`--trace 0`) or
//! per-layer metrics from the traced pass (`--trace 1`), printed as one
//! JSON object on the last line of standard output. `run` drives that form
//! in a child process per workload and repetition and writes a ledger
//! file; `compare` judges two ledger files by each metric's own bound.

mod compare;
mod json;
mod measure;
mod report;
mod trace;
mod workloads;

use json::Json;
use measure::{measure, measure_traced, Checks};
use std::process::ExitCode;
use workloads::blink_packet::BlinkPacket;
use workloads::dsc_corpus::DscCorpus;
use workloads::fig2_montecarlo::Fig2MonteCarlo;
use workloads::flow_churn::FlowChurn;
use workloads::replay_verify::ReplayVerify;
use workloads::supervisord_stream::SupervisordStream;
use workloads::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The end-to-end metrics: name, unit, direction, and the share of the
/// parent's median by which each may worsen before it is a regression.
/// `BENCHMARK.json` carries the same table (a unit test holds the two
/// together). The bounds are set by the reference box's noise: run-to-run
/// spreads of up to 19 % on the time metrics and 7 % on memory in a
/// disturbed batch of ten runs.
///
/// CPU time is deliberately not among them. On the threaded workloads the
/// process's CPU-to-wall ratio is bistable on the reference box — whole
/// batches of `blink_packet_par2` at 0.99, others at 1.14, at the same wall
/// time, depending on where the scheduler settles the two threads — so
/// CPU seconds moved by 30 % between two sets of runs of the same code,
/// which no bound up to the contract's 25 % can hold. It is kept for the
/// record (`cpu_per_wall` in the `# info` line and the ledger file) and as
/// the layer metrics `netsim.parallel.cpu_ratio_vs_seq` and
/// `supervisord.pipeline.cpu_per_wall`. Failed checks are not a metric — a metric may never read 0 —
/// they travel as `failed` / `attempted` beside the metrics.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("wall_s", "s", Better::Lower, 0.25),
    ("ops_per_s", "1/s", Better::Higher, 0.25),
    ("peak_rss_mib", "MiB", Better::Lower, 0.15),
    ("setup_s", "s", Better::Lower, 0.25),
];

/// One `--workload` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// What one invocation measured: the result line's content plus the
/// provenance `run` files with it.
pub struct RunResult {
    pub checks: Checks,
    /// (name, unit, value), in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Size, operations per unit and outcome digest; for an untraced run
    /// also the units measured, their median wall time and the run's
    /// CPU-to-wall ratio.
    pub info: Json,
    /// The aggregated spans of a traced run, as JSON lines.
    pub spans: Option<String>,
}

impl RunResult {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.checks.failed == 0)),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, unit, value)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
        .compact()
    }
}

fn drive<W: Workload>(w: &W, args: &RunArgs) -> RunResult {
    let mut checks = Checks::default();
    let mut info = vec![("size", Json::str(w.size()))];
    let (metrics, spans, unit) = if args.trace {
        let (trace, unit) = measure_traced(w, args.seconds, &mut checks);
        (
            trace.per_layer(&mut checks),
            Some(trace.to_jsonl(w.name())),
            unit,
        )
    } else {
        let e = measure(w, args.seconds, &mut checks);
        let values = [e.wall_s, e.ops_per_s, e.peak_rss_mib, e.setup_s];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), v)| (name, unit, v))
            .collect();
        info.push(("units", Json::Num(e.units as f64)));
        info.push(("unit_wall_median_s", Json::Num(e.unit_wall_median_s)));
        info.push(("cpu_per_wall", Json::Num(e.cpu_per_wall)));
        (metrics, None, e.unit)
    };
    info.push(("ops", Json::Num(unit.ops as f64)));
    info.push(("digest", Json::str(format!("{:016x}", unit.digest))));
    RunResult {
        checks,
        metrics,
        info: Json::obj(info),
        spans,
    }
}

/// Run one workload by name; `None` for an unknown name.
pub fn run_workload(a: &RunArgs) -> Option<RunResult> {
    let (seed, quick) = (a.seed, a.quick);
    Some(match a.workload.as_str() {
        "blink_packet" => drive(&BlinkPacket::new(seed, quick, 0), a),
        "blink_packet_par2" => drive(&BlinkPacket::new(seed, quick, 2), a),
        "flow_churn" => drive(&FlowChurn::new(seed, quick), a),
        "fig2_montecarlo" => drive(&Fig2MonteCarlo::new(seed, quick), a),
        "supervisord_stream" => drive(&SupervisordStream::new(seed, quick), a),
        "dsc_corpus" => drive(&DscCorpus::new(seed, quick), a),
        "replay_verify" => drive(&ReplayVerify::new(seed, quick), a),
        _ => return None,
    })
}

const USAGE: &str = "usage:
  ledger --workload NAME --seed N --seconds S --trace 0|1 [--quick]
  ledger run [--seed N] [--seconds S] [--reps N] [--quick] [--out FILE]
  ledger compare A.json B.json";

/// `--key value` pairs after the subcommand; `--quick` takes no value.
pub fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = if key == "quick" {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        };
        out.push((key.to_string(), value));
    }
    Ok(out)
}

pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: String::new(),
        seed: 21,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    for (key, value) in parse_flags(args)? {
        let bad = || format!("--{key}: bad value {value:?}");
        match key.as_str() {
            "workload" => a.workload = value,
            "seed" => a.seed = value.parse().map_err(|_| bad())?,
            "seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&a.seconds) {
                    return Err(bad());
                }
            }
            "trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "quick" => a.quick = true,
            _ => return Err(format!("unknown flag --{key}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => report::run(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        Some(_) => parse_run_args(&args).and_then(|a| {
            let result = run_workload(&a).ok_or_else(|| {
                let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.0).collect();
                format!(
                    "unknown workload {:?}; known: {}",
                    a.workload,
                    names.join(" ")
                )
            })?;
            report::print_result(&a, &result);
            Ok(ExitCode::SUCCESS)
        }),
        None => Err(String::new()),
    };
    outcome.unwrap_or_else(|e| {
        if !e.is_empty() {
            eprintln!("ledger: {e}");
        }
        eprintln!("{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::PER_LAYER;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_run_args(&strings(&[
            "--workload",
            "flow_churn",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            RunArgs {
                workload: "flow_churn".into(),
                seed: 7,
                seconds: 3.0,
                trace: true,
                quick: false
            }
        );
        assert!(
            parse_run_args(&strings(&["--workload", "x", "--quick"]))
                .unwrap()
                .quick
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload"],
            &["--workload", "x", "--trace", "2"],
            &["--workload", "x", "--seed", "-1"],
            &["--workload", "x", "--seconds", "nan"],
            &["--workload", "x", "--bogus", "1"],
            &["workload", "x"],
        ] {
            assert!(parse_run_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    fn quick(workload: &str, trace: bool) -> RunResult {
        run_workload(&RunArgs {
            workload: workload.into(),
            seed: 21,
            seconds: 0.0,
            trace,
            quick: true,
        })
        .expect("known workload")
    }

    /// Every workload at its quick size, untraced: all end-to-end metrics
    /// present and non-zero, every check passes, and the result line is
    /// the contract's shape.
    #[test]
    fn quick_untraced_runs_are_correct() {
        assert!(run_workload(&RunArgs {
            workload: "nope".into(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            quick: true
        })
        .is_none());
        for (name, _) in workloads::WORKLOADS {
            let r = quick(name, false);
            assert_eq!(r.checks.failed, 0, "{name}: {:?}", r.checks.notes);
            assert!(r.checks.attempted >= 1, "{name}");
            let line = Json::parse(&r.result_line()).unwrap();
            let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").unwrap().as_obj();
            assert_eq!(metrics.len(), END_TO_END.len());
            for ((got, value), want) in metrics.iter().zip(END_TO_END) {
                assert_eq!(got, want.0);
                assert_eq!(value.get("unit").and_then(Json::as_str), Some(want.1));
                let v = value.get("value").and_then(Json::as_f64).unwrap();
                assert!(v > 0.0, "{name}.{got} = {v}");
            }
            assert!(r.info.get("units").and_then(Json::as_f64).unwrap() >= 2.0);
        }
    }

    /// Every workload at its quick size, traced: all checks pass (timed ==
    /// traced among them), every per-layer metric is printed, and each is
    /// measured by at least one workload.
    #[test]
    fn quick_traced_runs_cover_every_layer_metric() {
        let mut nonzero = std::collections::BTreeSet::new();
        for (name, _) in workloads::WORKLOADS {
            let r = quick(name, true);
            assert_eq!(r.checks.failed, 0, "{name}: {:?}", r.checks.notes);
            assert_eq!(r.metrics.len(), PER_LAYER.len());
            for (&(n, u, v), want) in r.metrics.iter().zip(PER_LAYER) {
                assert_eq!((n, u), *want);
                assert!(v.is_finite() && v >= 0.0, "{name}.{n} = {v}");
                if v > 0.0 {
                    nonzero.insert(n);
                }
            }
            assert!(r.spans.as_deref().is_some_and(|s| !s.is_empty()), "{name}");
        }
        // Counters that legitimately read 0 at these sizes, and the PCC
        // scenarios, which the quick corpus leaves out.
        let may_be_zero = [
            "scenario.run.pcc.busy_s",
            "netsim.link.drops_queue",
            "netsim.parallel.fallbacks",
            "scenario.expect.failed",
            "blink.program.reroutes",
            "blink.selector.retransmissions",
            "netsim.wheel.deferred",
        ];
        for (name, _) in PER_LAYER {
            assert!(
                nonzero.contains(name) || may_be_zero.contains(name),
                "no workload measures {name}"
            );
        }
    }

    /// `BENCHMARK.json` and the tables in the code say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let b = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let workloads: Vec<_> = b
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<_> = workloads::WORKLOADS
            .iter()
            .map(|&(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);
        let e2e: Vec<_> = b
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| {
                let better = if b == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                (n.to_string(), u.to_string(), better.to_string(), bound)
            })
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<_> = b
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, want);
        assert_eq!(b.get("paths").unwrap().as_arr(), [Json::str("ledger")]);
    }
}
