//! The experiment harness: regenerates the paper's Fig. 2 and every
//! quantitative claim of §3–§5 (see docs/reproduction-map.md §1 for the
//! claim index and EXPERIMENTS.md for recorded paper-vs-measured results).
//!
//! ```sh
//! cargo run --release -p dui-bench --bin experiments -- all
//! cargo run --release -p dui-bench --bin experiments -- fig2 --jobs 4
//! cargo run --release -p dui-bench --bin experiments -- all --metrics
//! ```
//!
//! Every subcommand prints its table(s) and writes CSV into `results/`;
//! `all` additionally writes `results/experiments_all.txt` with the full
//! report and per-stage wall-clock timings. `--jobs N` sets the worker
//! thread count (default: all cores); the CSVs are byte-identical for
//! every `N` — see `dui_bench::par` for the determinism contract.
//!
//! `--sim-threads N` additionally shards the *simulator itself* (the
//! packet engine's domain-parallel mode, `dui_core::netsim::parallel`)
//! for the stages whose node programs honor the packet-id contract —
//! currently `blink-packet`, `defenses` and `parallel-scaling`.
//! Results are byte-identical for every `N` there too; other stages
//! ignore the flag.
//!
//! `--workers N` sets the `supervisord` stage's pipeline worker-thread
//! count (folded into its swept set; the verdict log written to
//! `results/supervisord_verdicts.jsonl` is byte-identical for every
//! `N` — the stage asserts it). Other stages ignore the flag.
//!
//! `--metrics` additionally writes each stage's telemetry snapshot as
//! one JSON line to `results/metrics.jsonl` (sim-time metrics only, so
//! the file is byte-identical across `--jobs` too), prints a per-stage
//! metrics summary, and turns on the wall-clock self-profiler whose
//! report lands in a clearly-marked non-deterministic section of
//! `experiments_all.txt`.
//!
//! ## Record / replay
//!
//! ```sh
//! cargo run --release -p dui-bench --bin experiments -- record fig2-small
//! cargo run --release -p dui-bench --bin experiments -- replay results/fig2-small.duir --check
//! cargo run --release -p dui-bench --bin experiments -- replay results/fig2-small.duir --resume mid
//! ```
//!
//! `record <stage>` captures a deterministic run of a recordable stage
//! (see `dui_bench::recordings::RECORD_STAGES`) as a `dui-replay`
//! recording under `results/<stage>.duir`; `replay <file> [--check]`
//! re-drives the same stage against the recording, verifying every
//! event digest and checkpoint hash; `--resume <idx|mid>` restores a
//! mid-run checkpoint first and replays only the tail. Fig2-family
//! runs additionally emit their occupancy series CSV after `record`,
//! `replay` and `--resume`, so a resumed run can be byte-compared
//! against the uninterrupted one.

use dui_bench::par::default_jobs;
use dui_bench::recordings::{build_subject, default_ckpt_every, StageSubject, RECORD_STAGES};
use dui_bench::stages::{run_stage, StageCfg, StageOutput, STAGE_NAMES};
use dui_core::replay::{Recorder, Recording, Replayer};
use dui_core::stats::table::Table;
use dui_core::telemetry::wallclock;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn results_dir() -> &'static Path {
    Path::new("results")
}

fn emit(out: &StageOutput) {
    print!("{}", out.report);
    for (name, table) in &out.tables {
        let path = results_dir().join(name);
        table.write_csv(&path).expect("write results CSV");
        println!("[saved {}]", path.display());
    }
    for (name, text) in &out.artifacts {
        std::fs::create_dir_all(results_dir()).expect("create results dir");
        let path = results_dir().join(name);
        std::fs::write(&path, text).expect("write results artifact");
        println!("[saved {}]", path.display());
    }
}

/// One summary row per stage: how many series of each kind the stage
/// exported, plus the headline packet counter when present.
fn metrics_summary(per_stage: &[(&str, &StageOutput)]) -> Table {
    let mut t = Table::new(["stage", "counters", "gauges", "hists", "delivered_pkts"]);
    for (name, out) in per_stage {
        let m = &out.metrics;
        let delivered: u64 = m
            .counters
            .iter()
            .filter(|(k, _)| k.ends_with("netsim.delivered"))
            .map(|(_, &v)| v)
            .sum();
        t.row([
            name.to_string(),
            m.counters.len().to_string(),
            m.gauges.len().to_string(),
            m.hists.len().to_string(),
            if delivered > 0 {
                delivered.to_string()
            } else {
                "-".to_string()
            },
        ]);
    }
    t
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments [{} | all] [--jobs N] [--sim-threads N] [--workers N] [--metrics]\n\
         \x20      experiments scenario <FILE|DIR> [--jobs N] [--sim-threads N]\n\
         \x20      experiments record <{}> [--out FILE] [--ckpt-every N]\n\
         \x20      experiments replay <FILE> [--check] [--resume <idx|mid>]",
        STAGE_NAMES.join(" | "),
        RECORD_STAGES.join(" | ")
    );
    std::process::exit(2);
}

/// The value of the count option `flag` if `arg` spells it, as `--flag N`
/// (taking `N` from `rest`) or `--flag=N` (`-j` is `--jobs`). A missing,
/// unparsable or below-`min` value is a usage error.
fn count_opt(
    flag: &str,
    min: usize,
    arg: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Option<usize> {
    let value = if arg == flag || (arg == "-j" && flag == "--jobs") {
        rest.next().unwrap_or_else(|| usage())
    } else {
        arg.strip_prefix(flag)?.strip_prefix('=')?.to_string()
    };
    Some(value.parse().ok().filter(|&n| n >= min).unwrap_or_else(|| usage()))
}

/// `experiments scenario <file|dir>`: run a declarative scenario corpus
/// to a verdict table and `results/scenarios.csv`. Exit code 0 when
/// every expectation holds, 1 when any check fails, 2 on parse/compile
/// diagnostics (printed as `file:line:col: message`).
fn cmd_scenario(args: &[String]) -> ! {
    use dui_bench::scenario::{collect_files, load, run_corpus};
    let mut path: Option<PathBuf> = None;
    let mut jobs = default_jobs();
    let mut sim_threads = 0usize;
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        if let Some(n) = count_opt("--jobs", 1, &a, &mut it) {
            jobs = n;
        } else if let Some(n) = count_opt("--sim-threads", 0, &a, &mut it) {
            sim_threads = n;
        } else if path.is_none() && !a.starts_with('-') {
            path = Some(PathBuf::from(a));
        } else {
            usage();
        }
    }
    let path = path.unwrap_or_else(|| usage());
    let t0 = std::time::Instant::now();
    let compiled = collect_files(&path).and_then(|files| load(&files));
    let compiled = match compiled {
        Ok(c) => c,
        Err(diag) => {
            eprintln!("{diag}");
            std::process::exit(2);
        }
    };
    let report = run_corpus(&compiled, jobs, sim_threads);
    print!("{}", report.text);
    std::fs::create_dir_all(results_dir()).expect("create results dir");
    let csv_path = results_dir().join("scenarios.csv");
    report.csv.write_csv(&csv_path).expect("write scenarios.csv");
    println!("[saved {}]", csv_path.display());
    println!("[done in {:.1} s]", t0.elapsed().as_secs_f64());
    std::process::exit(if report.failed == 0 { 0 } else { 1 });
}

/// Write the stage's series CSV (if it produces one) next to the other
/// results, tagged with how the run was produced.
fn emit_series(stage: &str, subject: StageSubject, tag: &str) {
    if let Some(csv) = subject.series_csv() {
        let path = results_dir().join(format!("{stage}_{tag}.csv"));
        csv.write_csv(&path).expect("write series CSV");
        println!("[saved {}]", path.display());
    }
}

fn cmd_record(args: &[String]) -> ! {
    let mut stage: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut every: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--ckpt-every" => {
                let v = it.next().unwrap_or_else(|| usage());
                every = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            s if stage.is_none() && !s.starts_with('-') => stage = Some(s.to_string()),
            _ => usage(),
        }
    }
    let stage = stage.unwrap_or_else(|| usage());
    let Some(mut subject) = build_subject(&stage) else {
        eprintln!(
            "unknown recordable stage '{stage}'. Available: {}",
            RECORD_STAGES.join(" ")
        );
        std::process::exit(2);
    };
    let every = every.unwrap_or_else(|| default_ckpt_every(&stage));
    let out = out.unwrap_or_else(|| results_dir().join(format!("{stage}.duir")));
    let t0 = std::time::Instant::now();
    let digest = subject.as_subject_mut().config_digest();
    let rec = Recorder::new(&stage, digest, every).record(subject.as_subject_mut());
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).expect("create output directory");
    }
    rec.save(&out).expect("write recording");
    println!(
        "[recorded {}: {} events, {} checkpoints, final hash {:016x}]",
        stage,
        rec.events.len(),
        rec.checkpoints.len(),
        rec.final_hash
    );
    println!("[saved {}]", out.display());
    emit_series(&stage, subject, "recorded");
    println!("[done in {:.1} s]", t0.elapsed().as_secs_f64());
    std::process::exit(0);
}

fn cmd_replay(args: &[String]) -> ! {
    let mut file: Option<PathBuf> = None;
    let mut resume: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // Verification is always on; the flag exists so scripts can
            // state their intent explicitly.
            "--check" => {}
            "--resume" => resume = Some(it.next().unwrap_or_else(|| usage()).to_string()),
            s if file.is_none() && !s.starts_with('-') => file = Some(PathBuf::from(s)),
            _ => usage(),
        }
    }
    let file = file.unwrap_or_else(|| usage());
    let rec = Recording::load(&file).unwrap_or_else(|e| {
        eprintln!("cannot load recording: {e}");
        std::process::exit(1);
    });
    let Some(mut subject) = build_subject(&rec.stage) else {
        eprintln!(
            "recording is for unknown stage '{}'. Available: {}",
            rec.stage,
            RECORD_STAGES.join(" ")
        );
        std::process::exit(2);
    };
    let t0 = std::time::Instant::now();
    let replayer = Replayer::new(&rec);
    let (result, tag) = match resume.as_deref() {
        None => (replayer.verify(subject.as_subject_mut()), "replayed"),
        Some(spec) => {
            let idx = if spec == "mid" {
                rec.checkpoints.len() / 2
            } else {
                spec.parse().unwrap_or_else(|_| usage())
            };
            println!(
                "[resuming from checkpoint {idx} of {} (event {})]",
                rec.checkpoints.len(),
                rec.checkpoints.get(idx).map_or(0, |c| c.event_index)
            );
            (replayer.resume_from(subject.as_subject_mut(), idx), "resumed")
        }
    };
    match result {
        Ok(report) => {
            println!(
                "[replay OK: {} events, {} checkpoints verified, final hash {:016x}]",
                report.events, report.checkpoints_verified, report.final_hash
            );
            emit_series(&rec.stage, subject, tag);
            println!("[done in {:.1} s]", t0.elapsed().as_secs_f64());
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("replay FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut which: Option<String> = None;
    let mut jobs = default_jobs();
    let mut sim_threads = 0usize; // 0 = leave the simulator sequential
    let mut workers = StageCfg::default().workers;
    let mut metrics = false;
    let mut args = std::env::args().skip(1);
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("record") => cmd_record(&raw[1..]),
        Some("replay") => cmd_replay(&raw[1..]),
        Some("scenario") => cmd_scenario(&raw[1..]),
        _ => {}
    }
    while let Some(a) = args.next() {
        if let Some(n) = count_opt("--jobs", 1, &a, &mut args) {
            jobs = n;
        } else if let Some(n) = count_opt("--sim-threads", 1, &a, &mut args) {
            sim_threads = n;
        } else if let Some(n) = count_opt("--workers", 1, &a, &mut args) {
            workers = n;
        } else if a == "--metrics" {
            metrics = true;
        } else if which.is_none() && !a.starts_with('-') {
            which = Some(a);
        } else {
            usage();
        }
    }
    let which = which.unwrap_or_else(|| "all".to_string());
    let cfg = StageCfg {
        jobs,
        sim_threads,
        workers,
    };
    if metrics {
        wallclock::enable(true);
    }
    let t0 = std::time::Instant::now();
    if which == "all" {
        let mut log = String::new();
        let _ = writeln!(
            log,
            "experiments all --jobs {jobs} ({} cores available)\n",
            default_jobs()
        );
        let mut timings: Vec<(&str, f64)> = Vec::new();
        let mut outputs: Vec<(&str, StageOutput)> = Vec::new();
        for &name in STAGE_NAMES {
            let ts = std::time::Instant::now();
            wallclock::set_stage(name);
            let out = run_stage(name, &cfg).expect("known stage");
            wallclock::end_stage();
            timings.push((name, ts.elapsed().as_secs_f64()));
            emit(&out);
            log.push_str(&out.report);
            outputs.push((name, out));
        }
        if metrics {
            let mut jsonl = String::new();
            for (name, out) in &outputs {
                jsonl.push_str(&out.metrics.to_json_line(name));
                jsonl.push('\n');
            }
            let path = results_dir().join("metrics.jsonl");
            std::fs::write(&path, jsonl).expect("write metrics.jsonl");
            println!("[saved {}]", path.display());
            let refs: Vec<(&str, &StageOutput)> =
                outputs.iter().map(|(n, o)| (*n, o)).collect();
            let mut section = String::new();
            let _ = writeln!(section, "== telemetry per stage (sim-time, deterministic) ==\n");
            let _ = writeln!(section, "{}", metrics_summary(&refs).to_text());
            print!("{section}");
            log.push_str(&section);
        }
        let total = t0.elapsed().as_secs_f64();
        let mut wall = String::new();
        let _ = writeln!(wall, "== wall-clock per stage (jobs={jobs}) ==\n");
        for (name, secs) in &timings {
            let _ = writeln!(wall, "{name:<16} {secs:8.1} s");
        }
        let _ = writeln!(wall, "{:<16} {total:8.1} s", "total");
        if metrics {
            let profile = wallclock::report();
            if !profile.is_empty() {
                let _ = writeln!(wall, "\n{profile}");
            }
        }
        if jobs > 1 {
            // Speedup check: rerun the two replicate-heavy stages
            // sequentially and compare wall-clock (results are
            // byte-identical by construction; see dui_bench::par).
            let _ = writeln!(
                wall,
                "\n== sequential baseline (jobs=1) for the replicated stages ==\n"
            );
            for &name in &["fig2", "blink-sweep"] {
                let ts = std::time::Instant::now();
                run_stage(name, &StageCfg { jobs: 1, ..cfg.clone() }).expect("known stage");
                let seq = ts.elapsed().as_secs_f64();
                let par = timings
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, s)| s)
                    .unwrap_or(f64::NAN);
                let _ = writeln!(
                    wall,
                    "{name:<16} {seq:8.1} s sequential vs {par:8.1} s at jobs={jobs}  (speedup {:.2}x)",
                    seq / par
                );
            }
        }
        print!("{wall}");
        log.push_str(&wall);
        let path = results_dir().join("experiments_all.txt");
        std::fs::write(&path, log).expect("write experiments_all.txt");
        println!("[saved {}]", path.display());
    } else {
        wallclock::set_stage(&which);
        match run_stage(&which, &cfg) {
            Some(out) => {
                wallclock::end_stage();
                emit(&out);
                if metrics {
                    let path = results_dir().join("metrics.jsonl");
                    let mut line = out.metrics.to_json_line(&which);
                    line.push('\n');
                    std::fs::write(&path, line).expect("write metrics.jsonl");
                    println!("[saved {}]", path.display());
                    let profile = wallclock::report();
                    if !profile.is_empty() {
                        print!("{profile}");
                    }
                }
            }
            None => {
                eprintln!(
                    "unknown experiment '{which}'. Available: {} all",
                    STAGE_NAMES.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    println!("[done in {:.1} s]", t0.elapsed().as_secs_f64());
}
