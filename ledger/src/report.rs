//! `ledger run`: every workload in child processes of its own — so that
//! peak memory is per workload and a crash cannot take the ledger with it
//! — one at a time, `--reps` untraced runs (seeds `seed`, `seed + 1`, …)
//! and one traced run each; prints every metric by name with its unit and
//! writes the ledger file `compare` reads. The child protocol is the
//! driver's: the result object on the last line of standard output, and
//! an `# info` line above it for provenance.

use crate::compare::spread;
use crate::json::Json;
use crate::trace::PER_LAYER;
use crate::workloads::WORKLOADS;
use crate::{parse_flags, RunArgs, RunResult, END_TO_END};
use dui_core::stats::summary::median;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const INFO: &str = "# info ";

/// Where runs leave files behind: `out/` inside the benchmark's package.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Print one invocation's result: every metric by name with its unit, the
/// check tally, the `# info` line, and last the contract's result object.
/// A traced run also leaves its aggregated spans in `out/`.
pub fn print_result(a: &RunArgs, r: &RunResult) {
    println!(
        "ledger: {} seed {} for {} s, {}",
        a.workload,
        a.seed,
        a.seconds,
        if a.trace { "traced" } else { "untraced" }
    );
    for (name, unit, value) in &r.metrics {
        println!("  {name} = {value} {unit}");
    }
    println!(
        "  checks: {} attempted, {} failed",
        r.checks.attempted, r.checks.failed
    );
    if let Some(spans) = &r.spans {
        let path = out_dir().join(format!("trace_{}.jsonl", a.workload));
        let written =
            std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, spans));
        match written {
            Ok(()) => println!("  spans: {}", path.display()),
            Err(e) => eprintln!("ledger: cannot write {}: {e}", path.display()),
        }
    }
    println!("{INFO}{}", r.info.compact());
    println!("{}", r.result_line());
}

/// What the parent keeps of one child run.
struct Child {
    result: Json,
    info: Json,
}

/// Split a child's standard output into the `# info` object and the
/// result object on the last line.
fn parse_child_output(stdout: &str) -> Result<Child, String> {
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    for key in ["correct", "attempted", "failed", "metrics"] {
        if result.get(key).is_none() {
            return Err(format!("child result line lacks {key:?}"));
        }
    }
    let info = stdout
        .lines()
        .find_map(|l| l.strip_prefix(INFO))
        .ok_or("child printed no info line")
        .and_then(|l| Json::parse(l).map_err(|_| "child info line is not JSON"))?;
    Ok(Child { result, info })
}

fn spawn(a: &RunArgs) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &a.workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} child exited with {}", a.workload, out.status));
    }
    parse_child_output(&String::from_utf8_lossy(&out.stdout))
}

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("child result lacks metric {name}"))
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(seed: u64, seconds: f64, reps: usize, quick: bool) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Json::str(cpu_model)),
        ("kernel", Json::str(kernel)),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_run", Json::Num(seconds)),
        ("reps", Json::Num(reps as f64)),
        ("quick", Json::Bool(quick)),
    ])
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let (mut seed, mut seconds, mut reps, mut quick) = (21u64, 10.0f64, 3usize, false);
    let mut out = out_dir().join("ledger.json");
    for (key, value) in parse_flags(args)? {
        let bad = || format!("--{key}: bad value {value:?}");
        match key.as_str() {
            "seed" => seed = value.parse().map_err(|_| bad())?,
            "seconds" => seconds = value.parse().map_err(|_| bad())?,
            "reps" => reps = value.parse().ok().filter(|&r| r >= 1).ok_or_else(bad)?,
            "quick" => quick = true,
            "out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag --{key}")),
        }
    }
    if quick {
        // Two units of the quick size are a few hundred milliseconds.
        seconds = 0.0;
    }

    let mut workloads = Vec::new();
    let mut failed_total = 0.0;
    for &(name, _) in WORKLOADS {
        let mut a = RunArgs {
            workload: name.to_string(),
            seed,
            seconds,
            trace: false,
            quick,
        };
        let mut runs = Vec::new();
        for rep in 0..reps {
            a.seed = seed + rep as u64;
            runs.push(spawn(&a)?);
        }
        a.seed = seed;
        a.trace = true;
        let traced = spawn(&a)?;

        println!(
            "{name}  ({})",
            traced
                .info
                .get("size")
                .and_then(Json::as_str)
                .unwrap_or("?")
        );
        let mut end_to_end = Vec::new();
        for &(metric, unit, _, _) in END_TO_END {
            let values = runs
                .iter()
                .map(|r| metric_value(&r.result, metric))
                .collect::<Result<Vec<f64>, _>>()?;
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            println!(
                "  {metric:<14} median {:<12.6} min {lo:<12.6} max {hi:<12.6} {unit}  (n = {})",
                median(&values),
                values.len()
            );
            end_to_end.push((
                metric,
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("n", Json::Num(values.len() as f64)),
                    ("median", Json::Num(median(&values))),
                    ("min", Json::Num(lo)),
                    ("max", Json::Num(hi)),
                    // The noise record: interquartile distance / median.
                    ("spread", Json::Num(spread(&values))),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for &(metric, unit) in PER_LAYER {
            let v = metric_value(&traced.result, metric)?;
            if v != 0.0 {
                println!("  {metric:<44} {v:<16.6} {unit}");
            }
            per_layer.push((
                metric,
                Json::obj([("unit", Json::str(unit)), ("value", Json::Num(v))]),
            ));
        }
        let tally = |key: &str| -> f64 {
            runs.iter()
                .chain([&traced])
                .filter_map(|r| r.result.get(key).and_then(Json::as_f64))
                .sum()
        };
        let (attempted, failed) = (tally("attempted"), tally("failed"));
        println!("  checks: {attempted} attempted, {failed} failed");
        failed_total += failed;
        workloads.push((
            name,
            Json::obj([
                (
                    "size",
                    traced.info.get("size").cloned().unwrap_or(Json::Null),
                ),
                // Seed `seed`: the first untraced run and the traced run
                // share it, and must have produced the same outcome.
                (
                    "ops",
                    runs[0].info.get("ops").cloned().unwrap_or(Json::Null),
                ),
                (
                    "digest",
                    runs[0].info.get("digest").cloned().unwrap_or(Json::Null),
                ),
                (
                    "cpu_per_wall",
                    Json::Arr(
                        runs.iter()
                            .map(|r| r.info.get("cpu_per_wall").cloned().unwrap_or(Json::Null))
                            .collect(),
                    ),
                ),
                (
                    "traced_digest",
                    traced.info.get("digest").cloned().unwrap_or(Json::Null),
                ),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }

    let ledger = Json::obj([
        ("schema", Json::str("dui-ledger/1")),
        ("provenance", provenance(seed, seconds, reps, quick)),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, ledger.pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(if failed_total == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_is_split_into_info_and_result() {
        let stdout = "ledger: x\n  wall_s = 1 s\n# info {\"ops\":5,\"digest\":\"00ff\"}\n\
                      {\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}\n";
        let child = parse_child_output(stdout).unwrap();
        assert_eq!(
            child.info.get("digest").and_then(Json::as_str),
            Some("00ff")
        );
        assert_eq!(metric_value(&child.result, "wall_s"), Ok(1.5));
        assert!(metric_value(&child.result, "cpu_s").is_err());
    }

    #[test]
    fn a_child_that_breaks_the_protocol_is_an_error() {
        for bad in [
            "",
            "no json here\n",
            "# info {}\n{\"correct\":true}\n",
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n",
        ] {
            assert!(parse_child_output(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn provenance_names_the_machine() {
        let p = provenance(21, 10.0, 3, false);
        for key in [
            "nproc",
            "cpu_model",
            "kernel",
            "rustc",
            "git_commit",
            "seed",
            "reps",
        ] {
            assert!(p.get(key).is_some(), "{key}");
        }
        assert!(p.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
    }
}
