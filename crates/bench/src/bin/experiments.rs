//! The experiment harness: regenerates the paper's Fig. 2 and every
//! quantitative claim of §3–§5 (see docs/reproduction-map.md §1 for the
//! claim index and EXPERIMENTS.md for recorded paper-vs-measured results).
//!
//! ```sh
//! cargo run --release -p dui-bench --bin experiments -- all
//! cargo run --release -p dui-bench --bin experiments -- <stage> --jobs 4
//! cargo run --release -p dui-bench --bin experiments -- all --metrics
//! cargo run --release -p dui-bench --bin experiments -- verify-determinism
//! ```
//!
//! The stages are the rows of `dui_bench::stages::STAGES` (run the
//! binary with `--help` for their names; docs/operations.md tabulates
//! them with their flags and outputs). Every stage prints its table(s)
//! and writes CSV into `results/`; `all` additionally writes
//! `results/experiments_all.txt` with the full report and per-stage
//! wall-clock timings. `--jobs N` sets the worker thread count
//! (default: all cores); the CSVs are byte-identical for every `N` —
//! see `dui_bench::par` for the determinism contract.
//!
//! `--metrics` additionally writes each stage's telemetry snapshot as
//! one JSON line to `results/metrics.jsonl` (sim-time metrics only, so
//! the file is byte-identical across runs and `--jobs` too), prints a
//! per-stage metrics summary, and turns on the wall-clock self-profiler
//! whose report lands in a clearly-marked non-deterministic section of
//! `experiments_all.txt`.
//!
//! `verify-determinism [stage…]` is the determinism gate
//! (`dui_bench::stages::verify_determinism`): it runs every named row
//! (default: all) twice at one configuration and again at `--jobs 1` if
//! the row reads `--jobs`, and exits 1 naming `stage · file:line · setting A vs
//! B` at the first byte that differs.
//!
//! ## Record / replay
//!
//! ```sh
//! cargo run --release -p dui-bench --bin experiments -- record <name>
//! cargo run --release -p dui-bench --bin experiments -- replay results/<name>.duir --check
//! cargo run --release -p dui-bench --bin experiments -- replay results/<name>.duir --resume mid
//! ```
//!
//! `record <name>` captures a deterministic run of a recordable stage
//! (a row of `dui_bench::recordings::RECORDINGS`) as a `dui-replay`
//! recording under `results/<name>.duir`; `replay <file> [--check]`
//! re-drives the same stage against the recording, verifying every
//! event digest and checkpoint hash; `--resume <idx|mid>` restores a
//! mid-run checkpoint first and replays only the tail. Runs of the
//! flow-level fast simulation additionally emit their occupancy series
//! CSV after `record`, `replay` and `--resume`, so a resumed run can be
//! byte-compared against the uninterrupted one.

use dui_bench::par::default_jobs;
use dui_bench::recordings::{build_subject, StageSubject, RECORDINGS};
use dui_bench::stages::{verify_determinism, Stage, StageOutput, STAGES};
use dui_bench::wallclock;
use dui_core::replay::{Recorder, Recording, Replayer};
use dui_core::stats::table::Table;
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
fn metrics_summary(ran: &[(&str, f64, StageOutput)]) -> Table {
    let mut t = Table::new(["stage", "counters", "gauges", "hists", "delivered_pkts"]);
    for (name, _, out) in ran {
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

fn stage_names() -> String {
    STAGES.iter().map(|s| s.name).collect::<Vec<_>>().join(" ")
}

fn recordable_names() -> String {
    RECORDINGS.iter().map(|r| r.name).collect::<Vec<_>>().join(" ")
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments [<stage> | all] [--jobs N] [--metrics]\n\
         \x20      experiments verify-determinism [<stage>...]\n\
         \x20      experiments scenario <FILE|DIR> [--jobs N]\n\
         \x20      experiments record <recordable> [--out FILE] [--ckpt-every N]\n\
         \x20      experiments replay <FILE> [--check] [--resume <idx|mid>]\n\
         stages: {}\n\
         recordable: {}",
        stage_names(),
        recordable_names()
    );
    std::process::exit(2);
}

/// The rows `names` selects — every row for no name or `all` — or
/// exit 2 naming the rows there are.
fn select(names: &[String]) -> Vec<&'static Stage> {
    if names.is_empty() || names == ["all"] {
        return STAGES.iter().collect();
    }
    let row = |name: &String| {
        Stage::named(name).unwrap_or_else(|| {
            eprintln!("unknown experiment '{name}'. Available: {} all", stage_names());
            std::process::exit(2);
        })
    };
    names.iter().map(row).collect()
}

/// The job count if `arg` spells the option, as `--jobs N` or `-j N`
/// (taking `N` from `rest`) or `--jobs=N`. A missing, unparsable or
/// zero value is a usage error.
fn jobs_opt(arg: &str, rest: &mut impl Iterator<Item = String>) -> Option<usize> {
    let value = if arg == "--jobs" || arg == "-j" {
        rest.next().unwrap_or_else(|| usage())
    } else {
        arg.strip_prefix("--jobs=")?.to_string()
    };
    Some(value.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| usage()))
}

/// `experiments scenario <file|dir>`: run a declarative scenario corpus
/// to a verdict table and `results/scenarios.csv`. Exit code 0 when
/// every expectation holds, 1 when any check fails, 2 on parse/compile
/// diagnostics (printed as `file:line:col: message`).
fn cmd_scenario(args: &[String]) -> ! {
    use dui_bench::scenario::{collect_files, load, run_corpus};
    let mut path: Option<PathBuf> = None;
    let mut jobs = default_jobs();
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        if let Some(n) = jobs_opt(&a, &mut it) {
            jobs = n;
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
    let report = run_corpus(&compiled, jobs);
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
    let Some(row) = RECORDINGS.iter().find(|r| r.name == stage) else {
        eprintln!(
            "unknown recordable stage '{stage}'. Available: {}",
            recordable_names()
        );
        std::process::exit(2);
    };
    let mut subject = (row.build)();
    let every = every.unwrap_or(row.ckpt_every);
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
            recordable_names()
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

/// `experiments verify-determinism [stage…]`: hold the named rows
/// (default: every row) to the determinism contract, one line per row.
/// Exit 0 when every row holds, 1 at the first difference, 2 on an
/// unknown name.
fn cmd_verify_determinism(args: &[String]) -> ! {
    if args.iter().any(|a| a.starts_with('-')) {
        usage();
    }
    let t0 = std::time::Instant::now();
    for row in select(args) {
        let ts = std::time::Instant::now();
        if let Err(diff) = verify_determinism(&[row]) {
            eprintln!("verify-determinism FAILED: {diff}");
            std::process::exit(1);
        }
        let across = if row.jobs { ", across --jobs" } else { "" };
        let secs = ts.elapsed().as_secs_f64();
        println!("{:<16} same bytes run to run{across}: OK ({secs:.1} s)", row.name);
    }
    println!("[the determinism contract holds; done in {:.1} s]", t0.elapsed().as_secs_f64());
    std::process::exit(0);
}

fn main() {
    let mut which: Option<String> = None;
    let mut jobs = default_jobs();
    let mut metrics = false;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("record") => cmd_record(&raw[1..]),
        Some("replay") => cmd_replay(&raw[1..]),
        Some("scenario") => cmd_scenario(&raw[1..]),
        Some("verify-determinism") => cmd_verify_determinism(&raw[1..]),
        _ => {}
    }
    let mut args = raw.into_iter();
    while let Some(a) = args.next() {
        if let Some(n) = jobs_opt(&a, &mut args) {
            jobs = n;
        } else if a == "--metrics" {
            metrics = true;
        } else if which.is_none() && !a.starts_with('-') {
            which = Some(a);
        } else {
            usage();
        }
    }
    // `all` is every row and also keeps the full report on disk.
    let all = which.as_deref().is_none_or(|w| w == "all");
    let rows = select(which.as_slice());
    if metrics {
        wallclock::enable(true);
    }
    let t0 = std::time::Instant::now();
    let mut log = String::new();
    if all {
        let _ = writeln!(
            log,
            "experiments all --jobs {jobs} ({} cores available)\n",
            default_jobs()
        );
    }
    // (stage, wall-clock seconds, output) of every row run.
    let mut ran: Vec<(&str, f64, StageOutput)> = Vec::new();
    for row in rows {
        let ts = std::time::Instant::now();
        wallclock::set_stage(row.name);
        let out = row.run_checked(jobs).unwrap_or_else(|undeclared| {
            eprintln!("{undeclared}");
            std::process::exit(1);
        });
        wallclock::end_stage();
        let secs = ts.elapsed().as_secs_f64();
        emit(&out);
        log.push_str(&out.report);
        ran.push((row.name, secs, out));
    }
    let mut tail = String::new();
    if metrics {
        let jsonl: String = ran
            .iter()
            .map(|(name, _, out)| out.metrics.to_json_line(name) + "\n")
            .collect();
        let path = results_dir().join("metrics.jsonl");
        std::fs::write(&path, jsonl).expect("write metrics.jsonl");
        println!("[saved {}]", path.display());
        let _ = writeln!(tail, "== telemetry per stage (sim-time, deterministic) ==\n");
        let _ = writeln!(tail, "{}", metrics_summary(&ran).to_text());
    }
    if all {
        let _ = writeln!(tail, "== wall-clock per stage (jobs={jobs}) ==\n");
        for (name, secs, _) in &ran {
            let _ = writeln!(tail, "{name:<16} {secs:8.1} s");
        }
        let _ = writeln!(tail, "{:<16} {:8.1} s", "total", t0.elapsed().as_secs_f64());
    }
    if metrics {
        let profile = wallclock::report();
        if !profile.is_empty() {
            let _ = writeln!(tail, "\n{profile}");
        }
    }
    print!("{tail}");
    if all {
        log.push_str(&tail);
        let path = results_dir().join("experiments_all.txt");
        std::fs::write(&path, log).expect("write experiments_all.txt");
        println!("[saved {}]", path.display());
    }
    println!("[done in {:.1} s]", t0.elapsed().as_secs_f64());
}
