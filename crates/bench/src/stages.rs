//! The experiment stages behind the `experiments` binary: every figure
//! and numeric claim of the paper, each one row of [`STAGES`] — its
//! name, whether it reads `--jobs`, the files it emits and a pure
//! function `fn(jobs) -> StageOutput`.
//!
//! A stage returns its human-readable report plus the named tables to
//! write under `results/`; the report prints each table as it is added,
//! so a reader sees the CSV's own cells. A stage performs no I/O, so
//! [`verify_determinism`] can hold every row to the determinism
//! contract in-process: same bytes run to run, and across `--jobs` for
//! the rows that read it. Replicated work inside a stage fans out with
//! [`crate::par::run_indexed`], so thread count never changes results
//! (see the crate-level docs for the seeding contract). Every stage
//! runs the sequential packet engine.

mod contract;

pub use contract::verify_determinism;

use crate::par::{run_indexed, task_seed};
use crate::{mean, measure_residencies};
use dui_core::blink::fastsim::{AttackSim, AttackSimConfig};
use dui_core::blink::selector::{BlinkParams, CELLS};
use dui_core::blink::theory::{effective_qm, AttackModel, FixedKeysModel};
use dui_core::defense::pcc_guard::PccLossPatternMonitor;
use dui_core::defense::streaming::OccupancyWindow;
use dui_core::flowgen::{CaidaLikeConfig, CaidaLikeTrace};
use dui_core::nethide::obfuscate::{obfuscate, ObfuscationConfig};
use dui_core::netsim::time::{SimDuration, SimTime};
use dui_core::netsim::topology::Routing;
use dui_core::pcc::control::{ControlConfig, EPS_MIN};
use dui_core::pcc::endpoint::PccSender;
use dui_core::pytheas::engine::{EngineConfig, PoisonStrategy, Throttle};
use dui_core::scenario::{
    pytheas_run, topologies, BlinkScenario, BlinkScenarioConfig, PccScenario, PccScenarioConfig,
    PytheasOutcome,
};
use dui_core::stats::series::envelope;
use dui_core::stats::table::Table;
use dui_core::stats::Rng;
use dui_core::telemetry::{Registry, Snapshot};
use dui_scenario::{compile, parse_str, Compiled};
use std::fmt::Write as _;

/// What a stage produced: a report for stdout and tables destined for
/// `results/<name>`.
#[derive(Debug, Default)]
pub struct StageOutput {
    /// Human-readable report (tables + commentary), ready to print. The
    /// binary prints the row's `claim` and `about` above it.
    pub report: String,
    /// `(file name, table)` pairs; the binary writes each as CSV.
    pub tables: Vec<(String, Table)>,
    /// The stage's telemetry snapshot (sim-time metrics only, so it is
    /// byte-identical across `--jobs`; per-task snapshots are merged in
    /// task-index order). The binary serializes one JSON line per stage
    /// into `results/metrics.jsonl` under `--metrics`.
    pub metrics: Snapshot,
    /// `(file name, contents)` pairs written verbatim under `results/`
    /// — for non-tabular artifacts like the supervisord verdict JSONL.
    pub artifacts: Vec<(String, String)>,
}

impl StageOutput {
    /// Emit `t` as `results/<name>` and print it into the report.
    fn table(&mut self, name: &str, t: Table) {
        let _ = writeln!(self.report, "{}", t.to_text());
        self.tables.push((name.to_string(), t));
    }

    fn artifact(&mut self, name: &str, contents: String) {
        self.artifacts.push((name.to_string(), contents));
    }
}

/// One experiment: a row of [`STAGES`].
#[derive(Debug)]
pub struct Stage {
    /// CLI name.
    pub name: &'static str,
    /// The claim id `docs/reproduction-map.md` §1 and EXPERIMENTS.md
    /// file the stage under.
    pub claim: &'static str,
    /// One line on what the stage regenerates.
    pub about: &'static str,
    /// Whether `run` fans replicated work out over its job count
    /// (`--jobs`, invariant D4); the gate compares such rows across it.
    pub jobs: bool,
    /// Every file the stage emits under `results/`, as named in
    /// [`StageOutput::tables`] and [`StageOutput::artifacts`]: tables
    /// first, in emission order.
    pub outputs: &'static [&'static str],
    /// The stage itself, over the job count. Call it through
    /// [`Stage::run_checked`].
    pub run: fn(usize) -> StageOutput,
}

/// Every experiment, in `all` execution order. This table is the one
/// declaration behind the CLI's stage list and usage text, the
/// declared-outputs check in [`Stage::run_checked`], the determinism
/// gate ([`verify_determinism`]) and the stage and output tables of
/// `docs/operations.md`.
pub const STAGES: &[Stage] = &[
    Stage {
        name: "fig2",
        claim: "F2",
        about: "Fig. 2: malicious flows sampled by Blink over time, theory overlaid with 50 replicate simulations",
        jobs: true,
        outputs: &["fig2.csv"],
        run: |jobs| fig2_with(&Fig2Opts::paper(), jobs),
    },
    Stage {
        name: "fig2-rates",
        claim: "F2b",
        about: "rate-asymmetry ablation: attacker keep-alive rate vs takeover time (closed form)",
        jobs: false,
        outputs: &["fig2_rates.csv"],
        run: |_| fig2_rates(),
    },
    Stage {
        name: "blink-sweep",
        claim: "C2",
        about: "takeover time over the (tR, qm) grid, plus the selector-size and hash-salt (§5-V) ablations",
        jobs: true,
        outputs: &[
            "blink_sweep.csv",
            "blink_cells_ablation.csv",
            "blink_salt_ablation.csv",
        ],
        run: |jobs| blink_sweep_with(10, jobs),
    },
    Stage {
        name: "caida-residency",
        claim: "C3",
        about: "flow-selector residency across the top-20 prefixes of the synthetic CAIDA-like trace",
        jobs: true,
        outputs: &["caida_residency.csv"],
        run: caida_residency,
    },
    Stage {
        name: "blink-packet",
        claim: "C4",
        about: "packet-level Blink takeover (2000 legit + 105 malicious TCP flows), unguarded and RTO-guarded",
        jobs: true,
        outputs: &["blink_packet.csv"],
        run: blink_packet,
    },
    Stage {
        name: "pytheas",
        claim: "C5",
        about: "Pytheas group poisoning and CDN herding sweeps, with and without the §5 outlier filter",
        jobs: true,
        outputs: &["pytheas_poison.csv", "pytheas_throttle.csv"],
        run: pytheas,
    },
    Stage {
        name: "pcc",
        claim: "C6",
        about: "PCC under the §4.2 MitM: equalizer, pin, ε clamp, destination fluctuation vs attacked flows",
        jobs: true,
        outputs: &["pcc_single.csv", "pcc_destination.csv"],
        run: pcc,
    },
    Stage {
        name: "nethide",
        claim: "C7",
        about: "NetHide obfuscation: security (density) vs accuracy and utility across budgets and topologies",
        jobs: true,
        outputs: &["nethide_tradeoff.csv"],
        run: nethide,
    },
    Stage {
        name: "defenses",
        claim: "C8",
        about: "each attack with and without its §5 countermeasure, plus the snapshot-driven supervisor risk",
        jobs: true,
        outputs: &["defenses.csv"],
        run: defenses,
    },
    Stage {
        name: "survey",
        claim: "C9",
        about: "the §3.2 survey systems (SP-PIFO, FlowRadar, DAPPER, RON) under their sketched attacks",
        jobs: true,
        outputs: &["survey.csv"],
        run: survey,
    },
    Stage {
        name: "fuzz",
        claim: "§5-II",
        about: "mutation fuzzing rediscovers the Blink trigger from benign-looking traffic (five seeded searches)",
        jobs: true,
        outputs: &["fuzz.csv"],
        run: fuzz,
    },
    Stage {
        name: "supervisord",
        claim: "SV",
        about: "12 synthetic telemetry producers through the supervisord pipeline at 1, 2 and 4 workers; asserts one verdict log",
        jobs: true,
        outputs: &["supervisord.csv", "supervisord_verdicts.jsonl"],
        run: supervisord,
    },
    Stage {
        name: "flow-scale",
        claim: "FS",
        about: "10k → 1M concurrent connections through full RFC 9293 lifecycles in one FlowPool",
        jobs: true,
        outputs: &["flow_scale.csv"],
        run: flow_scale,
    },
];

impl Stage {
    /// The row named `name`.
    pub fn named(name: &str) -> Option<&'static Stage> {
        STAGES.iter().find(|s| s.name == name)
    }

    /// Run the stage and hold what it emitted to what its row
    /// declares: the same file names in the same order — so a stage
    /// cannot grow an output the determinism gate does not see. The
    /// error reads `stage · file:1 · what`.
    pub fn run_checked(&self, jobs: usize) -> Result<StageOutput, String> {
        let out = (self.run)(jobs);
        contract::comparable(self, &out)?;
        Ok(out)
    }
}

/// Options for the Fig. 2 stage: replicate count and master seed are
/// exposed so tests can shrink the workload without touching the
/// paper-scale defaults.
#[derive(Debug, Clone)]
pub struct Fig2Opts {
    /// Per-run simulation configuration.
    pub cfg: AttackSimConfig,
    /// Number of replicate simulations (paper: 50).
    pub replicates: usize,
    /// Master seed; replicate `i` runs with `task_seed(master_seed, i)`.
    pub master_seed: u64,
}

impl Fig2Opts {
    /// The paper-scale configuration: 50 replicates of the Fig. 2
    /// scenario under master seed 1.
    fn paper() -> Self {
        Fig2Opts {
            cfg: AttackSimConfig::fig2(),
            replicates: 50,
            master_seed: 1,
        }
    }
}

/// F2 — Fig. 2: malicious flows sampled by Blink over time. Theory (the
/// paper's printed iid formula and our fixed-keys refinement) overlaid
/// with the replicate simulations, at explicit options (replicates,
/// horizon, master seed).
pub fn fig2_with(opts: &Fig2Opts, jobs: usize) -> StageOutput {
    let mut out = StageOutput::default();
    let cfg = &opts.cfg;
    let _ = writeln!(
        out.report,
        "{} legit + {} malicious flows (qm={:.4}), 64 cells, threshold 32, horizon {:.0} s, {} runs (master seed {})",
        cfg.legit_flows,
        cfg.malicious_flows,
        cfg.q_m(),
        cfg.horizon.as_secs_f64(),
        opts.replicates,
        opts.master_seed,
    );
    let runs = run_indexed(opts.replicates, jobs, |i| {
        AttackSim::run(cfg, task_seed(opts.master_seed, i as u64))
    });
    // Telemetry: replicate counters + summed selector events; histogram
    // and gauge records follow replicate order (run_indexed returns in
    // index order), so the snapshot is jobs-invariant.
    let mut reg = Registry::new();
    let c = reg.counter("fig2.replicates");
    reg.add(c, runs.len() as u64);
    let takeover_h = reg.histogram("fig2.takeover_time_s");
    let t_r_g = reg.gauge("fig2.achieved_t_r_s");
    for res in &runs {
        if let Some(t) = res.takeover_time {
            reg.record(takeover_h, t as u64);
        }
        if let Some(tr) = res.achieved_t_r {
            reg.observe(t_r_g, tr);
        }
        let s = res.selector_stats;
        for (name, v) in [
            ("fig2.selector.sampled", s.sampled),
            ("fig2.selector.evicted.fin", s.evicted_fin),
            ("fig2.selector.evicted.idle", s.evicted_idle),
            ("fig2.selector.evicted.reset", s.evicted_reset),
            ("fig2.selector.retransmissions", s.retransmissions),
            ("fig2.selector.not_monitored", s.not_monitored),
        ] {
            let id = reg.counter(name);
            reg.add(id, v);
        }
    }
    out.metrics = reg.snapshot();
    let series: Vec<_> = runs.iter().map(|res| res.series.clone()).collect();
    let env = envelope(&series, 5.0, 95.0);
    let t_r = mean(
        &runs
            .iter()
            .filter_map(|res| res.achieved_t_r)
            .collect::<Vec<_>>(),
    );
    let _ = writeln!(
        out.report,
        "achieved tR = {t_r:.2} s (paper example: 8.37 s)\n"
    );
    let iid = AttackModel {
        t_r,
        ..AttackModel::fig2()
    };
    let fixed = FixedKeysModel {
        t_r,
        ..FixedKeysModel::fig2()
    };
    let mut rng = Rng::new(99);
    let mut csv = Table::new([
        "t_s",
        "iid_mean",
        "iid_p05",
        "iid_p95",
        "fixed_mean",
        "fixed_p05",
        "fixed_p95",
        "sim_mean",
        "sim_p05",
        "sim_p95",
    ]);
    for (i, &t) in env.times.iter().enumerate() {
        if !(t as u64).is_multiple_of(10) {
            continue;
        }
        let row = [
            t,
            iid.mean(t),
            iid.quantile(t, 0.05) as f64,
            iid.quantile(t, 0.95) as f64,
            fixed.mean(t),
            fixed.quantile_mc(t, 0.05, 1500, &mut rng) as f64,
            fixed.quantile_mc(t, 0.95, 1500, &mut rng) as f64,
            env.mean[i],
            env.lo[i],
            env.hi[i],
        ];
        csv.row_f64(&row, 2);
    }
    out.table("fig2.csv", csv);
    let takeovers: Vec<f64> = runs.iter().filter_map(|res| res.takeover_time).collect();
    let _ = writeln!(
        out.report,
        "takeover (≥32 cells): iid mean-crossing {:.0} s | fixed-keys {:.0} s | simulated mean {:.0} s over {}/{} runs (paper caption: ≈172 s)\n",
        iid.mean_takeover_time().unwrap_or(f64::NAN),
        fixed.mean_takeover_time().unwrap_or(f64::NAN),
        mean(&takeovers),
        takeovers.len(),
        opts.replicates,
    );
    out
}

/// F2b — rate-asymmetry ablation: attacker keep-alive rate vs takeover
/// time, reconciling the printed formula with the quoted 172 s.
fn fig2_rates() -> StageOutput {
    let mut out = StageOutput::default();
    let mut csv = Table::new(["rate_ratio", "effective_qm", "mean_takeover_s"]);
    for ratio in [0.4, 0.5, 0.63, 0.8, 1.0, 1.5, 2.0] {
        let qm = effective_qm(0.0525, ratio);
        let m = AttackModel {
            q_m: qm,
            ..AttackModel::fig2()
        };
        let t = m.mean_takeover_time();
        csv.row([
            format!("{ratio}"),
            format!("{qm:.4}"),
            t.map(|t| format!("{t:.1}")).unwrap_or("never".into()),
        ]);
    }
    out.table("fig2_rates.csv", csv);
    let _ = writeln!(
        out.report,
        "(r ≈ 0.63 reproduces the paper's quoted ≈172 s takeover)\n"
    );
    let mut reg = Registry::new();
    let c = reg.counter("fig2_rates.ratios");
    reg.add(c, 7);
    out.metrics = reg.snapshot();
    out
}

/// C2 — attack-feasibility sweep over (tR, qm): mean takeover time from
/// the paper's formula, plus the fixed-keys saturation constraint on the
/// malicious flow count. The `(tR, qm)` grid rows and the salt-ablation
/// targets each run as parallel tasks; `salt_seeds` is the salt
/// ablation's seed count (10 in the stage, fewer in tests).
pub fn blink_sweep_with(salt_seeds: u64, jobs: usize) -> StageOutput {
    let mut out = StageOutput::default();
    let qms = [0.01, 0.02, 0.0525, 0.10, 0.20];
    let t_rs = [2.0, 5.0, 8.37, 15.0, 30.0, 60.0];
    let mut csv = Table::new(["t_r_s", "q_m", "mean_takeover_s", "min_feasible_qm"]);
    // One task per tR row of the grid.
    let rows = run_indexed(t_rs.len(), jobs, |ti| {
        let t_r = t_rs[ti];
        qms.map(|q_m| {
            let m = AttackModel {
                t_r,
                q_m,
                ..AttackModel::fig2()
            };
            [
                format!("{t_r}"),
                format!("{q_m}"),
                m.mean_takeover_time()
                    .map(|t| format!("{t:.1}"))
                    .unwrap_or("never".into()),
                format!("{:.4}", m.min_feasible_qm()),
            ]
        })
    });
    for row in rows.into_iter().flatten() {
        csv.row(row);
    }
    out.table("blink_sweep.csv", csv);

    // Selector-size ablation: cells/threshold.
    let _ = writeln!(
        out.report,
        "\n-- ablation: selector size (threshold = cells/2, fig2 qm/tR) --\n"
    );
    let mut ab = Table::new(["cells", "threshold", "mean_takeover_s", "saturation_cells"]);
    for cells in [32u32, 64, 128, 256] {
        let m = FixedKeysModel {
            cells,
            threshold: cells / 2,
            ..FixedKeysModel::fig2()
        };
        ab.row([
            cells.to_string(),
            (cells / 2).to_string(),
            m.mean_takeover_time()
                .map(|t| format!("{t:.0}"))
                .unwrap_or("never".into()),
            format!("{:.1}", m.saturation()),
        ]);
    }
    out.table("blink_cells_ablation.csv", ab);

    // §5-V ablation: obfuscating the selector hash (secret salt) raises
    // the attacker's flow budget for cell coverage.
    let _ = writeln!(
        out.report,
        "\n-- ablation: hash-salt secrecy (§5-V) — flows needed to cover N cells --\n"
    );
    use dui_core::attacks::blink_takeover::flows_needed_for_coverage;
    use dui_core::netsim::packet::{Addr, Prefix};
    let prefix = Prefix::new(Addr::new(10, 0, 0, 0), 16);
    let params = BlinkParams::default();
    let targets = [16usize, 32, 48, 64];
    let mut salt = Table::new(["target_cells", "salt_known", "salt_secret"]);
    // One task per coverage target; each averages over the salt seeds.
    let salt_rows = run_indexed(targets.len(), jobs, |ti| {
        let target = targets[ti];
        let avg = |salt_known: bool| {
            (0..salt_seeds)
                .map(|s| flows_needed_for_coverage(&params, prefix, target, salt_known, s) as f64)
                .sum::<f64>()
                / salt_seeds as f64
        };
        (target, avg(true), avg(false))
    });
    for (target, known, secret) in salt_rows {
        salt.row([
            target.to_string(),
            format!("{known:.0}"),
            format!("{secret:.0}"),
        ]);
    }
    out.table("blink_salt_ablation.csv", salt);
    let mut reg = Registry::new();
    let c = reg.counter("blink_sweep.grid_points");
    reg.add(c, (t_rs.len() * qms.len()) as u64);
    let c = reg.counter("blink_sweep.salt_targets");
    reg.add(c, targets.len() as u64);
    out.metrics = reg.snapshot();
    out
}

/// C3 — per-prefix residency on the CAIDA-like synthetic trace: median
/// ≈5 s across top prefixes, half of the top-20 ≥10 s (paper's reported
/// statistics). Prefixes are replayed in parallel.
fn caida_residency(jobs: usize) -> StageOutput {
    let mut out = StageOutput::default();
    let trace = CaidaLikeTrace::generate(&CaidaLikeConfig::default(), &mut Rng::new(7));
    // One task per prefix: replay its population through a real selector.
    let per_prefix = run_indexed(trace.populations.len(), jobs, |rank| {
        let pop = &trace.populations[rank];
        let res = measure_residencies(pop, BlinkParams::default());
        (rank, pop.flows.len(), res)
    });
    let mut per_prefix_mean = Vec::new();
    let mut all_residencies = Vec::new();
    let mut reg = Registry::new();
    let flows_c = reg.counter("caida.flows");
    let prefixes_c = reg.counter("caida.prefixes");
    let res_h = reg.histogram("caida.residency_ms");
    let mut csv = Table::new([
        "prefix_rank",
        "flows",
        "mean_residency_s",
        "median_residency_s",
    ]);
    for (rank, n_flows, res) in per_prefix {
        if res.is_empty() {
            continue;
        }
        reg.add(flows_c, n_flows as u64);
        reg.inc(prefixes_c);
        for &r in &res {
            reg.record(res_h, (r * 1000.0) as u64);
        }
        let m = mean(&res);
        let med = dui_core::stats::summary::median(&res);
        per_prefix_mean.push(m);
        all_residencies.extend_from_slice(&res);
        csv.row([
            rank.to_string(),
            n_flows.to_string(),
            format!("{m:.2}"),
            format!("{med:.2}"),
        ]);
    }
    out.table("caida_residency.csv", csv);
    out.metrics = reg.snapshot();
    let median_of_means = dui_core::stats::summary::median(&per_prefix_mean);
    let median_flow = dui_core::stats::summary::median(&all_residencies);
    let frac_ge_10 = per_prefix_mean.iter().filter(|&&m| m >= 10.0).count() as f64
        / per_prefix_mean.len() as f64;
    // The paper's sentence mixes two statistics ("for half of them the
    // average time a flow remains sampled is 10 s (the median is ∼5 s)");
    // we report both readings. No CSV holds these statistics, so this is
    // the one table a stage builds only to print.
    let mut show = Table::new(["statistic", "measured", "paper"]);
    show.row([
        "median residency across flows".to_string(),
        format!("{median_flow:.1} s"),
        "≈5 s".to_string(),
    ]);
    show.row([
        "median of per-prefix mean residencies".to_string(),
        format!("{median_of_means:.1} s"),
        "(5-10 s range)".to_string(),
    ]);
    show.row([
        "fraction of prefixes with mean tR ≥ 10 s".to_string(),
        format!("{:.0}%", frac_ge_10 * 100.0),
        "≈50%".to_string(),
    ]);
    show.row([
        "worked-example prefix tR".to_string(),
        format!(
            "{:.1} s (closest prefix)",
            per_prefix_mean
                .iter()
                .cloned()
                .min_by(|a, b| (a - 8.37).abs().total_cmp(&(b - 8.37).abs()))
                .unwrap_or(f64::NAN)
        ),
        "8.37 s".to_string(),
    ]);
    let _ = writeln!(out.report, "{}", show.to_text());
    out
}

/// One of the paper's own runs, `examples/scenarios/paper/<file>`,
/// compiled into the binary: parsed and compiled the way `experiments
/// scenario` loads it, then lowered onto its case-study builder.
fn paper_run<T>(file: &str, text: &str, lower: impl FnOnce(&Compiled) -> Option<T>) -> T {
    let lowered = parse_str(file, text)
        .map_err(|e| e.to_string())
        .and_then(|sc| compile(&sc).map_err(|e| format!("{file}: {e}")))
        .and_then(|c| lower(&c).ok_or_else(|| format!("{file}: wrong workload kind")));
    match lowered {
        Ok(cfg) => cfg,
        #[expect(
            clippy::panic,
            reason = "the text is compiled in, and dui-scenario's corpus test compiles every paper/ file"
        )]
        Err(e) => panic!("{e}"),
    }
}

/// The paper's C4 run (`paper/c4_blink.dsc`, unguarded) and the sim-time
/// the stage stops it at, 20 s past the trigger. `recordings` records
/// the same run.
pub(crate) fn c4_blink() -> (BlinkScenarioConfig, SimTime) {
    let text = include_str!("../../../examples/scenarios/paper/c4_blink.dsc");
    paper_run("c4_blink.dsc", text, |c| {
        let cfg = c.blink_config()?;
        let end = cfg.trigger_at? + SimDuration::from_secs(20);
        Some((cfg, end))
    })
}

/// C4 — the packet-level Blink experiment (the paper's mininet+P4 run):
/// occupancy over time, then the trigger and the reroute; guarded
/// variant alongside (the two simulations run concurrently).
fn blink_packet(jobs: usize) -> StageOutput {
    let (c4, end) = c4_blink();
    let mut out = StageOutput::default();
    let run = |guarded: bool| {
        let mut sc = BlinkScenario::build(&BlinkScenarioConfig {
            guarded,
            ..c4.clone()
        });
        let mut occupancy = Vec::new();
        for t in (0..=250).step_by(25) {
            sc.sim.run_until(SimTime::from_secs(t));
            occupancy.push((t, sc.malicious_cells()));
        }
        sc.sim.run_until(end);
        let snap = sc.metrics();
        let reroutes = sc.reroutes();
        let on_primary = sc.on_primary();
        (occupancy, reroutes, sc.vetoed(), on_primary, snap)
    };
    let both = run_indexed(2, jobs, |i| run(i == 1));
    let Ok([(occ, reroutes, _, on_primary, snap), (_, g_reroutes, g_vetoed, g_on_primary, g_snap)]) =
        <[_; 2]>::try_from(both)
    else {
        out.report = "blink-packet: run_indexed(2, ..) did not return two runs".to_string();
        return out;
    };
    out.metrics = snap.with_prefix("unguarded");
    out.metrics.merge(&g_snap.with_prefix("guarded"));
    let mut csv = Table::new(["t_s", "malicious_cells"]);
    for (t, c) in &occ {
        csv.row([t.to_string(), c.to_string()]);
    }
    out.table("blink_packet.csv", csv);
    let _ = writeln!(
        out.report,
        "unguarded: trigger at t={:.0} s -> reroutes={reroutes}, on_primary={on_primary} \
         (paper: takeover ≈200 s, spurious reroute follows)\n",
        c4.trigger_at.map_or(f64::NAN, |t| t.as_secs_f64())
    );
    let _ = writeln!(
        out.report,
        "guarded (§5 RTO check): reroutes={g_reroutes}, vetoed={g_vetoed}, on_primary={g_on_primary}\n"
    );
    out
}

/// One C5 poisoning run: bots making up `fraction` of the clients drag
/// the best arm (1) down and push arm 2 up, with or without the §5
/// outlier filter.
fn pytheas_poisoned(fraction: f64, defended: bool) -> PytheasOutcome {
    let cfg = EngineConfig {
        poison_fraction: fraction,
        poison: PoisonStrategy::Promote { down: 1, up: 2 },
        ..Default::default()
    };
    pytheas_run(cfg, 3, 400, defended, 42)
}

/// C5 — Pytheas poisoning and herding sweeps, with and without the §5
/// outlier filter. Each sweep point is an independent parallel task.
fn pytheas(jobs: usize) -> StageOutput {
    let mut out = StageOutput::default();
    let fractions = [0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5];
    let mut csv = Table::new([
        "poison_fraction",
        "honest_qoe_undefended",
        "honest_qoe_defended",
        "on_best_undefended",
        "filter_precision",
    ]);
    let poison_rows = run_indexed(fractions.len(), jobs, |fi| {
        let f = fractions[fi];
        (f, pytheas_poisoned(f, false), pytheas_poisoned(f, true))
    });
    let mut reg = Registry::new();
    for (f, u, d) in poison_rows {
        for (arm, (&pu, &pd)) in u.arm_pulls.iter().zip(&d.arm_pulls).enumerate() {
            let id = reg.counter(&format!("pytheas.poison.arm_pulls.{arm}"));
            reg.add(id, pu + pd);
        }
        let id = reg.counter("pytheas.poison.filtered_reports");
        reg.add(id, d.filtered_reports);
        let id = reg.counter("pytheas.poison.rejected");
        reg.add(id, d.rejected);
        csv.row([
            format!("{f}"),
            format!("{:.4}", u.honest_qoe),
            format!("{:.4}", d.honest_qoe),
            format!("{:.4}", u.on_best),
            format!("{:.3}", d.filter_precision),
        ]);
    }
    out.table("pytheas_poison.csv", csv);

    let _ = writeln!(out.report, "\n-- CDN throttle / herding (MitM) --\n");
    let factors = [1.0, 0.8, 0.6, 0.4, 0.2];
    let mut csv = Table::new([
        "factor",
        "share_throttled_arm",
        "max_share_other",
        "honest_qoe",
    ]);
    let throttle_rows = run_indexed(factors.len(), jobs, |fi| {
        let factor = factors[fi];
        let cfg = EngineConfig {
            throttle: Some(Throttle {
                arm: 1,
                factor,
                affected_fraction: 1.0,
            }),
            ..Default::default()
        };
        (factor, pytheas_run(cfg, 3, 400, false, 43))
    });
    for (factor, run) in throttle_rows {
        for (arm, &p) in run.arm_pulls.iter().enumerate() {
            let id = reg.counter(&format!("pytheas.throttle.arm_pulls.{arm}"));
            reg.add(id, p);
        }
        let other = run
            .arm_share
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, &s)| s)
            .fold(0.0f64, f64::max);
        csv.row([
            format!("{factor}"),
            format!("{:.4}", run.arm_share[1]),
            format!("{other:.4}"),
            format!("{:.4}", run.honest_qoe),
        ]);
    }
    out.table("pytheas_throttle.csv", csv);
    out.metrics = reg.snapshot();
    out
}

/// The paper's C6 pin run (`paper/c6_pcc_pin.dsc`) and the sim-time it
/// runs to, its horizon. The `pcc` and `defenses` rows and the `pcc`
/// recordings are this run with stated overrides.
pub(crate) fn c6_pcc_pin() -> (PccScenarioConfig, SimTime) {
    let text = include_str!("../../../examples/scenarios/paper/c6_pcc_pin.dsc");
    paper_run("c6_pcc_pin.dsc", text, |c| {
        Some((c.pcc_config()?, SimTime(c.scenario.workload.horizon()?.0)))
    })
}

/// `cfg` without the attacker: the clean baseline.
pub(crate) fn unattacked(cfg: &PccScenarioConfig) -> PccScenarioConfig {
    PccScenarioConfig {
        attacked: false,
        pin_to: None,
        ..cfg.clone()
    }
}

/// `cfg` under the §5 defense: the controller's ε cap clamped to its
/// floor, 1 %.
fn eps_clamped(cfg: &PccScenarioConfig) -> PccScenarioConfig {
    PccScenarioConfig {
        control: ControlConfig {
            eps_max: EPS_MIN,
            ..cfg.control
        },
        ..cfg.clone()
    }
}

/// One C6 row: `cfg` run to `end`. Returns the sender's mean rate after
/// 90 s (Mbit/s), its oscillation amplitude, inconclusive and total
/// decisions, the §5 loss-pattern monitor's risk and the sender's
/// metrics.
fn pcc_row(cfg: &PccScenarioConfig, end: SimTime) -> (f64, f64, usize, usize, f64, Snapshot) {
    let mut sc = PccScenario::build(cfg);
    sc.sim.run_until(end);
    let trace = sc.rate_trace(0);
    let tail: Vec<f64> = trace
        .points()
        .iter()
        .filter(|(t, _)| *t > 90.0)
        .map(|&(_, v)| v)
        .collect();
    let amp = sc.oscillation_amplitude(0, 90.0);
    let node = sc.senders[0];
    let s: &mut PccSender = sc.sim.logic_mut(node);
    let inconclusive = s
        .decisions()
        .iter()
        .filter(|d| matches!(d, dui_core::pcc::control::Decision::Inconclusive(_)))
        .count();
    let mut reg = Registry::new();
    s.export_metrics(&mut reg);
    (
        mean(&tail) / 125_000.0,
        amp,
        inconclusive,
        s.decisions().len(),
        PccLossPatternMonitor::from_sender(s).risk().0,
        reg.snapshot(),
    )
}

/// C6 — PCC: clean convergence, the equalizer/pin attack, the ε-clamp
/// defense, and the destination-fluctuation aggregation. All scenario
/// simulations run as parallel tasks.
fn pcc(jobs: usize) -> StageOutput {
    let mut out = StageOutput::default();
    let (pin, end) = c6_pcc_pin();
    let scenarios = [
        ("clean", unattacked(&pin)),
        (
            "mirror equalizer",
            PccScenarioConfig {
                pin_to: None,
                ..pin.clone()
            },
        ),
        ("pin to 25 Mbps", pin.clone()),
        ("pin + eps clamp 1%", eps_clamped(&pin)),
    ];
    let mut csv = Table::new([
        "scenario",
        "mean_rate_mbps",
        "oscillation",
        "inconclusive",
        "decisions",
        "monitor_risk",
    ]);
    let results = run_indexed(scenarios.len(), jobs, |si| pcc_row(&scenarios[si].1, end));
    const SNAP_KEYS: [&str; 4] = ["clean", "mirror", "pin", "pin_clamp"];
    for (si, (rate, amp, inc, dec, risk, snap)) in results.into_iter().enumerate() {
        out.metrics.merge(&snap.with_prefix(SNAP_KEYS[si]));
        let label = scenarios[si].0;
        csv.row([
            label.to_string(),
            format!("{rate:.2}"),
            format!("{amp:.4}"),
            inc.to_string(),
            dec.to_string(),
            format!("{risk:.3}"),
        ]);
    }
    out.table("pcc_single.csv", csv);

    let _ = writeln!(
        out.report,
        "\n-- destination fluctuation vs number of attacked flows (coherent sway) --\n"
    );
    let flow_counts = [2usize, 4, 8];
    let mut csv = Table::new(["flows", "clean_cv", "attacked_cv"]);
    // Task i simulates flow_counts[i / 2], attacked iff i is odd.
    let cvs = run_indexed(flow_counts.len() * 2, jobs, |i| {
        let flows = flow_counts[i / 2];
        let attacked = i % 2 == 1;
        let mut sc = PccScenario::build(&PccScenarioConfig {
            flows,
            attacked,
            pin_to: attacked.then_some(3.0 * 125_000.0),
            sway: attacked.then_some((0.5, SimDuration::from_secs(50))),
            seed: 5,
            ..Default::default()
        });
        sc.sim.run_until(SimTime::from_secs(180));
        sc.destination_cv(SimTime::from_secs(180), 60.0)
    });
    for (fi, pair) in cvs.chunks(2).enumerate() {
        let (c, a) = (pair[0], pair[1]);
        csv.row([
            flow_counts[fi].to_string(),
            format!("{c:.4}"),
            format!("{a:.4}"),
        ]);
    }
    out.table("pcc_destination.csv", csv);
    out
}

/// C7 — NetHide: security (density) vs accuracy/utility across budgets
/// and topologies; each (topology, budget) solve is a parallel task.
fn nethide(jobs: usize) -> StageOutput {
    let mut out = StageOutput::default();
    let mut csv = Table::new([
        "topology",
        "budget",
        "physical_density",
        "achieved_density",
        "accuracy",
        "utility",
    ]);

    // Bowtie with protected core.
    let (bow_topo, bow_flows, core) = topologies::bowtie(6);
    let bow_routing = Routing::shortest_paths(&bow_topo);
    let c1 = bow_topo.node(core.0).addr;
    let c2 = bow_topo.node(core.1).addr;
    let bow_protected = [(c1, c2)];

    // Chorded ring, all edges protected.
    let (ring_topo, ring_hosts) = topologies::chorded_ring(10, 3);
    let ring_routing = Routing::shortest_paths(&ring_topo);
    let mut ring_flows = Vec::new();
    for i in 0..ring_hosts.len() {
        for j in (i + 1)..ring_hosts.len() {
            ring_flows.push((ring_hosts[i], ring_hosts[j]));
        }
    }

    let bow_budgets = [6usize, 4, 3, 2];
    let ring_budgets = [16usize, 10, 7, 5];
    // Tasks 0..4 are bowtie budgets, 4..8 chorded-ring budgets.
    let reports = run_indexed(bow_budgets.len() + ring_budgets.len(), jobs, |i| {
        if i < bow_budgets.len() {
            let budget = bow_budgets[i];
            #[expect(
                clippy::expect_used,
                reason = "the bowtie factory is connected by construction"
            )]
            let (_vt, rep) = obfuscate(
                &bow_topo,
                &bow_routing,
                &bow_flows,
                &ObfuscationConfig {
                    max_density: budget,
                    ..Default::default()
                },
                &bow_protected,
            )
            .expect("bowtie flows routable");
            ("bowtie-6", budget, rep)
        } else {
            let budget = ring_budgets[i - bow_budgets.len()];
            #[expect(
                clippy::expect_used,
                reason = "the chorded-ring factory is connected by construction"
            )]
            let (_vt, rep) = obfuscate(
                &ring_topo,
                &ring_routing,
                &ring_flows,
                &ObfuscationConfig {
                    max_density: budget,
                    max_extra_hops: 3,
                },
                &[],
            )
            .expect("ring flows routable");
            ("chorded-ring-10", budget, rep)
        }
    });
    for (name, budget, rep) in reports {
        csv.row([
            name.to_string(),
            budget.to_string(),
            rep.physical_max_density.to_string(),
            rep.achieved_max_density.to_string(),
            format!("{:.4}", rep.accuracy),
            format!("{:.4}", rep.utility),
        ]);
    }
    out.table("nethide_tradeoff.csv", csv);
    let mut reg = Registry::new();
    let c = reg.counter("nethide.solves");
    reg.add(c, (bow_budgets.len() + ring_budgets.len()) as u64);
    out.metrics = reg.snapshot();
    out
}

/// C8 — the defenses ablation: each attack with / without its §5
/// countermeasure, one row per case study; the six simulations run
/// concurrently.
fn defenses(jobs: usize) -> StageOutput {
    let mut out = StageOutput::default();
    let mut csv = Table::new(["case", "metric", "attacked", "defended"]);

    // Blink: spurious reroutes with / without the RTO guard. The number
    // is read from the telemetry snapshot, not the program state — the
    // registry is the stage's observation channel (and what the
    // snapshot-driven supervisor below consumes).
    let blink = |guarded: bool| -> (f64, Snapshot) {
        let cfg = BlinkScenarioConfig {
            legit_flows: 300,
            malicious_flows: 64,
            trigger_at: Some(SimTime::from_secs(60)),
            guarded,
            horizon: SimDuration::from_secs(80),
            seed: 7,
            ..Default::default()
        };
        let mut sc = BlinkScenario::build(&cfg);
        sc.sim.run_until(SimTime::from_secs(70));
        let snap = sc.metrics();
        (snap.counter("blink.reroutes") as f64, snap)
    };
    // Pytheas: honest QoE under 20% poisoning (the `pytheas` stage's
    // 20% row). PCC: rate under the pin attack, ε_max 5% vs clamped 1%
    // (the `pcc` stage's two pin rows).
    let (pin, end) = c6_pcc_pin();
    let vals = run_indexed(6, jobs, |i| match i {
        0 => blink(false),
        1 => blink(true),
        2 => (pytheas_poisoned(0.2, false).honest_qoe, Snapshot::default()),
        3 => (pytheas_poisoned(0.2, true).honest_qoe, Snapshot::default()),
        4 => (pcc_row(&pin, end).0, Snapshot::default()),
        _ => (pcc_row(&eps_clamped(&pin), end).0, Snapshot::default()),
    });
    csv.row([
        "blink".to_string(),
        "spurious_reroutes".to_string(),
        format!("{:.0}", vals[0].0),
        format!("{:.0}", vals[1].0),
    ]);
    csv.row([
        "pytheas".to_string(),
        "honest_qoe".to_string(),
        format!("{:.4}", vals[2].0),
        format!("{:.4}", vals[3].0),
    ]);
    csv.row([
        "pcc".to_string(),
        "pinned_rate_mbps".to_string(),
        format!("{:.2}", vals[4].0),
        format!("{:.2}", vals[5].0),
    ]);
    out.table("defenses.csv", csv);

    // Fig. 3 point III/IV: a supervisor that never touches the data plane
    // assesses risk purely from the registry snapshots the runs exported.
    let assess = |snap: &Snapshot| {
        OccupancyWindow::new("blink.cells.malicious", CELLS as f64, 1).observe(snap)
    };
    let attacked_risk = assess(&vals[0].1);
    let defended_risk = assess(&vals[1].1);
    let _ = writeln!(
        out.report,
        "supervisor on registry snapshots (blink.cells.malicious / 64): \
         risk attacked {:.2}, defended {:.2}{}\n",
        attacked_risk.0,
        defended_risk.0,
        if attacked_risk.0 > 0.5 {
            " — above the veto threshold; reroute authority would be withdrawn"
        } else {
            ""
        }
    );
    let mut reg = Registry::new();
    let g = reg.gauge("defenses.supervisor.risk.attacked");
    reg.observe(g, attacked_risk.0);
    let g = reg.gauge("defenses.supervisor.risk.defended");
    reg.observe(g, defended_risk.0);
    out.metrics = reg.snapshot();
    out.metrics.merge(&vals[0].1.with_prefix("attacked"));
    out.metrics.merge(&vals[1].1.with_prefix("defended"));
    out
}

/// C9 — the §3.2 survey systems: each with its sketched attack,
/// adversarial vs benign inputs side by side; the four systems run
/// concurrently.
fn survey(jobs: usize) -> StageOutput {
    let mut out = StageOutput::default();
    let mut csv = Table::new(["system", "metric", "benign", "adversarial"]);

    // Tasks: 0 SP-PIFO, 1 FlowRadar, 2 DAPPER, 3 RON; each returns its
    // CSV rows and, for RON, a note on what no CSV column holds.
    let rows: Vec<(Vec<[String; 4]>, Option<String>)> = run_indexed(4, jobs, |which| match which {
        0 => {
            // SP-PIFO: inversion rate, random vs crafted rank order.
            use dui_core::survey::sp_pifo::{
                adversarial_sequence, measure_inversions, shuffled_sequence,
            };
            let (teeth, run, max_rank) = (200usize, 24usize, 10_000u64);
            let adv = adversarial_sequence(teeth, run, 0, max_rank);
            let mut rng = Rng::new(5);
            let rnd = shuffled_sequence(teeth, run, 0, max_rank, &mut rng);
            let (ai, asrv, _) = measure_inversions(&adv, 8, 64, 12);
            let (ri, rsrv, _) = measure_inversions(&rnd, 8, 64, 12);
            let (a, b) = (
                ri as f64 / rsrv.max(1) as f64,
                ai as f64 / asrv.max(1) as f64,
            );
            let row = [
                "sp-pifo".into(),
                "inversion_rate".into(),
                format!("{a:.4}"),
                format!("{b:.4}"),
            ];
            (vec![row], None)
        }
        1 => {
            // FlowRadar: decode rate before/after saturation.
            use dui_core::netsim::packet::{Addr, FlowKey};
            use dui_core::survey::flowradar::{saturation_flows, FlowRadar};
            let mut fr = FlowRadar::new(4096, 600, 3, 7);
            for i in 0..200u32 {
                let k = FlowKey::tcp(
                    Addr::new(198, 18, (i >> 8) as u8, i as u8),
                    (5000 + i % 1000) as u16,
                    Addr::new(10, 0, 0, 1),
                    443,
                );
                fr.on_packet(&k);
            }
            let before = fr.decode_rate();
            for k in saturation_flows(2000, 1) {
                fr.on_packet(&k);
            }
            let after = fr.decode_rate();
            let rows = vec![
                [
                    "flowradar".into(),
                    "decode_rate".into(),
                    format!("{before:.4}"),
                    format!("{after:.4}"),
                ],
                [
                    "flowradar".into(),
                    "bloom_fill".into(),
                    "".into(),
                    format!("{:.4}", fr.bloom_fill()),
                ],
            ];
            (rows, None)
        }
        2 => {
            // DAPPER: diagnosis of a healthy connection, honest vs
            // window-clamped.
            use dui_core::netsim::packet::{Addr, FlowKey, Header, Packet, TcpFlags};
            use dui_core::survey::dapper::DapperDiagnoser;
            let run = |clamp: Option<u32>| {
                let key = FlowKey::tcp(Addr::new(1, 1, 1, 1), 100, Addr::new(2, 2, 2, 2), 80);
                let mut d = DapperDiagnoser::new();
                let mut seq = 1u32;
                let mut acked = 1u32;
                for i in 0..100u32 {
                    let pkt = Packet::tcp(key, seq, 0, TcpFlags::default(), 1000);
                    d.on_packet(
                        SimTime::ZERO + SimDuration::from_millis(i as u64 * 10),
                        &pkt,
                        true,
                    );
                    seq = seq.wrapping_add(1000);
                    // Healthy receiver: cumulative ACK tracks the data,
                    // with a one-segment lag so some flight always exists.
                    if i > 0 {
                        acked = acked.wrapping_add(1000);
                    }
                    let mut a = Packet::tcp(
                        key.reversed(),
                        0,
                        acked,
                        TcpFlags {
                            ack: true,
                            ..TcpFlags::default()
                        },
                        0,
                    );
                    if let Header::Tcp { window, .. } = &mut a.header {
                        *window = clamp.unwrap_or(1 << 20);
                    }
                    d.on_packet(
                        SimTime::ZERO + SimDuration::from_millis(i as u64 * 10 + 5),
                        &a,
                        false,
                    );
                }
                format!("{:?}", d.diagnose())
            };
            let (honest, attacked) = (run(None), run(Some(2000)));
            (
                vec![["dapper".into(), "diagnosis".into(), honest, attacked]],
                None,
            )
        }
        _ => {
            // RON: route + true delivery with probe-dropping MitM on a
            // clean path.
            use dui_core::survey::ron::{RonOverlay, Route};
            let run = |probe_drop: f64| {
                let mut ron = RonOverlay::new(4, 0.02, 3);
                ron.set_probe_drop(0, 1, probe_drop);
                for _ in 0..300 {
                    ron.probe_round();
                }
                let diverted = !matches!(ron.route(0, 1), Route::Direct);
                (diverted, ron.path(0, 1).loss)
            };
            let (benign_div, benign_est) = run(0.0);
            let (attacked_div, attacked_est) = run(0.6);
            let row = [
                "ron".into(),
                "diverted".into(),
                format!("{benign_div}"),
                format!("{attacked_div}"),
            ];
            let note = format!(
                "RON's estimated loss on the clean path: {benign_est:.2} benign, \
                 {attacked_est:.2} adversarial\n"
            );
            (vec![row], Some(note))
        }
    });
    let mut notes = String::new();
    for (task_rows, note) in rows {
        for row in task_rows {
            csv.row(row);
        }
        notes.extend(note);
    }
    out.table("survey.csv", csv);
    let _ = writeln!(out.report, "{notes}");
    let mut reg = Registry::new();
    let c = reg.counter("survey.systems");
    reg.add(c, 4);
    out.metrics = reg.snapshot();
    out
}

/// §5-II — automated adversarial-input discovery: the fuzzer rediscovers
/// the Blink trigger from scratch; the five seeded searches run
/// concurrently.
fn fuzz(jobs: usize) -> StageOutput {
    use dui_core::defense::fuzzing::{BlinkFuzzer, FuzzConfig};
    let mut out = StageOutput::default();
    let mut csv = Table::new(["seed", "peak", "triggered", "found_at"]);
    // Seeds 1..=5 are part of the recorded artifact; they stay explicit
    // rather than derived from a master seed.
    let results = run_indexed(5, jobs, |i| {
        let seed = i as u64 + 1;
        let mut f = BlinkFuzzer::new(FuzzConfig {
            sequence_len: 800,
            iterations: 4000,
            seed,
        });
        (seed, f.search())
    });
    let mut reg = Registry::new();
    let searches_c = reg.counter("fuzz.searches");
    let triggered_c = reg.counter("fuzz.triggered");
    let found_h = reg.histogram("fuzz.found_at");
    for (seed, res) in results {
        reg.inc(searches_c);
        if res.triggered {
            reg.inc(triggered_c);
            reg.record(found_h, res.found_at as u64);
        }
        csv.row([
            seed.to_string(),
            res.peak_retransmitting.to_string(),
            res.triggered.to_string(),
            res.found_at.to_string(),
        ]);
    }
    out.table("fuzz.csv", csv);
    let _ = writeln!(
        out.report,
        "The search starts from random benign-looking traffic and climbs the\n\
         victim's own internal counters — no attack knowledge encoded.\n"
    );
    out.metrics = reg.snapshot();
    out
}

/// SV — the `dui_defense::supervisord` streaming detection pipeline under a
/// synthetic telemetry fleet: 12 producer delta streams (two per group;
/// groups cycle benign / Blink-ramp / Pytheas-poison / PCC-equalizer
/// profiles) sharded over worker threads, each group's risk signals
/// evaluated online. The stage sweeps worker counts 1, 2 and 4,
/// byte-compares the verdict JSONL against the 1-worker reference
/// (in-stage self-check — a mismatch fails the stage), and reports the
/// verdict counts. Throughput and latency are the ledger's
/// `supervisord_stream` workload's to measure.
fn supervisord(jobs: usize) -> StageOutput {
    use dui_core::supervisord::{self, Config as SupConfig, ProducerSpec};
    use dui_core::telemetry::delta::{DeltaEncoder, Frame};

    // Telemetry producers (two per group), the reporting epochs each
    // streams, and the seed of the per-producer noise streams.
    const PRODUCERS: usize = 12;
    const EPOCHS: u64 = 150;
    const MASTER_SEED: u64 = 7;

    let mut out = StageOutput::default();
    let groups = PRODUCERS.div_ceil(2);

    // One deterministic delta stream per producer. Groups pair
    // producers; the group's profile decides which signal its members
    // poison. All producers emit all three metric families so every
    // window sees realistic benign baselines.
    let onset = EPOCHS / 3;
    let gen = move |i: usize| -> Vec<Frame> {
        let profile = (i / 2) % 4;
        let mut rng = Rng::new(task_seed(MASTER_SEED, i as u64));
        let mut reg = Registry::new();
        let blink = reg.gauge("blink.cells.malicious");
        let qoe: Vec<_> = (0..5)
            .map(|k| reg.gauge(&format!("pytheas.qoe.p{i}.c{k}")))
            .collect();
        let high_lossy = reg.counter("pcc.mi.high_lossy");
        let high_total = reg.counter("pcc.mi.high_total");
        let low_lossy = reg.counter("pcc.mi.low_lossy");
        let low_total = reg.counter("pcc.mi.low_total");
        let mut enc = DeltaEncoder::new(i as u32);
        let mut frames = Vec::with_capacity(EPOCHS as usize);
        for e in 0..EPOCHS {
            let attacking = e >= onset;
            // Blink cell occupancy: benign churn vs a takeover ramp.
            let occ = if profile == 1 && attacking {
                (2.0 + 1.4 * (e - onset) as f64).min(58.0)
            } else {
                2.0 + rng.range_f64(0.0, 2.0)
            };
            reg.observe(blink, occ);
            // Pytheas per-member QoE: the poisoned pair drags two of
            // its members' windows down.
            for (k, &g) in qoe.iter().enumerate() {
                let v = if profile == 2 && attacking && k >= 3 {
                    0.02 + rng.range_f64(0.0, 0.01)
                } else {
                    0.65 + rng.range_f64(0.0, 0.1)
                };
                reg.observe(g, v);
            }
            // PCC monitor-interval loss pattern: the equalizer pair
            // concentrates loss on high-rate intervals.
            reg.add(high_total, 50);
            reg.add(low_total, 50);
            let h = if profile == 3 && attacking {
                30
            } else {
                rng.below(3)
            };
            reg.add(high_lossy, h);
            reg.add(low_lossy, rng.below(3));
            frames.push(enc.encode(e, &reg.snapshot(), 0));
        }
        frames
    };
    let frame_sets: Vec<Vec<Frame>> = run_indexed(PRODUCERS, jobs, gen);
    let sources = |sets: &[Vec<Frame>]| -> Vec<(ProducerSpec, std::vec::IntoIter<Frame>)> {
        sets.iter()
            .enumerate()
            .map(|(i, frames)| {
                let spec = ProducerSpec {
                    id: i as u32,
                    group: format!("site-g{}", i / 2),
                };
                (spec, frames.clone().into_iter())
            })
            .collect()
    };

    // One run per worker count. The 1-worker run is the reference: the
    // artifact and metrics come from it.
    let sweep = [1usize, 2, 4];
    let runs: Vec<_> = sweep
        .iter()
        .map(|&workers| {
            let cfg = SupConfig {
                workers,
                ..SupConfig::default()
            };
            supervisord::run(&cfg, sources(&frame_sets))
        })
        .collect();
    let reference = &runs[0];
    let ref_jsonl = reference.to_jsonl();

    let mut csv = Table::new([
        "workers",
        "producers",
        "groups",
        "epochs",
        "frames",
        "allow",
        "constrain",
        "veto",
        "flagged_groups",
    ]);
    let count = |report: &supervisord::PipelineReport, action: supervisord::Action| {
        report
            .verdicts
            .iter()
            .filter(|v| v.action == action)
            .count()
    };
    let allow = count(reference, supervisord::Action::Allow);
    let constrain = count(reference, supervisord::Action::Constrain);
    let veto = count(reference, supervisord::Action::Veto);
    let flagged: std::collections::BTreeSet<&str> = reference
        .verdicts
        .iter()
        .filter(|v| v.action != supervisord::Action::Allow)
        .map(|v| v.group.as_str())
        .collect();
    for (workers, run) in sweep.iter().zip(&runs) {
        // In-stage determinism self-check: the verdict log must not
        // depend on the worker count.
        assert_eq!(
            run.to_jsonl(),
            ref_jsonl,
            "supervisord verdict log diverged at workers={workers}"
        );
        csv.row([
            workers.to_string(),
            PRODUCERS.to_string(),
            groups.to_string(),
            EPOCHS.to_string(),
            run.frames.to_string(),
            allow.to_string(),
            constrain.to_string(),
            veto.to_string(),
            flagged.len().to_string(),
        ]);
    }
    out.table("supervisord.csv", csv);
    let _ = writeln!(
        out.report,
        "verdict log byte-identical across workers {{{}}}; flagged groups: {}\n\
         (profiles: benign / Blink-ramp / Pytheas-poison / PCC-equalizer, onset at epoch {onset})\n",
        sweep
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        flagged
            .iter()
            .copied()
            .collect::<Vec<_>>()
            .join(", "),
    );
    out.artifact("supervisord_verdicts.jsonl", ref_jsonl);
    let mut reg = Registry::new();
    let c = reg.counter("supervisord.frames");
    reg.add(c, reference.frames);
    let c = reg.counter("supervisord.verdicts.allow");
    reg.add(c, allow as u64);
    let c = reg.counter("supervisord.verdicts.constrain");
    reg.add(c, constrain as u64);
    let c = reg.counter("supervisord.verdicts.veto");
    reg.add(c, veto as u64);
    let c = reg.counter("supervisord.groups.flagged");
    reg.add(c, flagged.len() as u64);
    let risk = reg.histogram("supervisord.risk.milli");
    for v in &reference.verdicts {
        reg.record(risk, (v.risk * 1000.0) as u64);
    }
    out.metrics = reg.snapshot();
    out
}

/// One flow-scale row.
struct FlowScaleRow {
    flows: usize,
    admitted: u64,
    handshakes: u64,
    completed: u64,
    evicted: u64,
    stale_rejected: u64,
    peak_slots: u64,
    bytes_acked: u64,
    digest: u64,
}

/// Run one flow-scale row: stream `n` warm flows straight off a
/// [`FlowStream`] (no materialized workload vector) into a single
/// [`FlowPool`] as sender/listener pairs, walk every connection through
/// the complete RFC 9293 lifecycle (handshake, one data segment, FIN /
/// TIME-WAIT teardown), then evict everything and verify that every
/// freed handle is refused by the generation check.
///
/// [`FlowStream`]: dui_core::flowgen::FlowStream
/// [`FlowPool`]: dui_core::tcp::pool::FlowPool
fn flow_scale_run(n: usize, seed: u64) -> FlowScaleRow {
    use dui_core::flowgen::flows::{DurationDist, FlowPopulationConfig};
    use dui_core::flowgen::FlowStream;
    use dui_core::netsim::packet::{Addr, Prefix};
    use dui_core::stats::digest::StateDigest;
    use dui_core::tcp::pool::{FlowPool, FlowRef};
    use dui_core::tcp::{StaleFlowRef, TcpState};

    /// Unwrap a pool call on a handle the stage still owns (everything
    /// before the evict phase); stale refs there are stage bugs.
    #[expect(
        clippy::expect_used,
        reason = "stage-owned handles are live until evicted"
    )]
    fn live<T>(res: Result<T, StaleFlowRef>) -> T {
        res.expect("flow-scale handle is live")
    }

    let pop_cfg = FlowPopulationConfig {
        prefix: Prefix::new(Addr::new(10, 0, 0, 0), 8),
        arrival_rate: 1.0,
        duration: DurationDist::default(),
        pkt_interval: SimDuration::from_millis(100),
        // Zero horizon: the stream emits exactly the warm population and
        // stops — the sweep measures concurrent state, not arrivals.
        horizon: SimDuration::ZERO,
        warm_start: Some(n),
    };
    let stream = FlowStream::new(pop_cfg, Rng::new(seed));

    let mut pool = FlowPool::new();
    let mut pairs: Vec<(FlowRef, FlowRef)> = Vec::with_capacity(n);
    let mut admitted = 0u64;
    for (i, f) in stream.enumerate() {
        let mut spec = f.to_flow_spec(1460);
        // One data segment per flow and an instantly-expiring TIME-WAIT:
        // the sweep is about per-flow state cost, not transfer volume.
        spec.config.handshake = true;
        spec.config.total_bytes = Some(1460);
        spec.config.app_rate = None;
        spec.config.time_wait = SimDuration::from_nanos(1);
        let isn = (i as u32).wrapping_mul(0x0100_0001).wrapping_add(1);
        let s = pool.insert_sender(spec.key, spec.config, isn);
        let r = pool.insert_listener(spec.key);
        #[expect(clippy::expect_used, reason = "handles fresh from insert are live")]
        pool.on_start(s, SimTime::ZERO).expect("fresh handle");
        pairs.push((s, r));
        admitted += 1;
    }
    let peak_slots = pool.live() as u64;

    // Shuttle packets sender <-> receiver until every connection is
    // CLOSED; ticks between quiescent rounds expire TIME-WAIT.
    let mut now = SimTime::ZERO;
    let mut handshakes = 0u64;
    loop {
        let mut any = false;
        for &(s, r) in &pairs {
            for pkt in live(pool.take_out(s)) {
                let pre = live(pool.state(r));
                live(pool.on_segment(r, now, &pkt));
                if pre == TcpState::SynRcvd && live(pool.state(r)) == TcpState::Established {
                    handshakes += 1;
                }
                any = true;
            }
            for pkt in live(pool.take_out(r)) {
                live(pool.on_segment(s, now, &pkt));
                any = true;
            }
        }
        if !any {
            now += SimDuration::from_millis(1);
            let mut ticked = false;
            for &(s, _) in &pairs {
                if pool.state(s) == Ok(TcpState::TimeWait) {
                    live(pool.on_tick(s, now));
                    ticked = true;
                }
            }
            if !ticked {
                break;
            }
        }
    }

    // Evict every pair, then prove generational safety at scale: all 2n
    // freed handles must come back as typed stale errors.
    let mut completed = 0u64;
    let mut bytes_acked = 0u64;
    let mut evicted = 0u64;
    for &(s, r) in &pairs {
        let stats = live(pool.sender_stats(s));
        if stats.completed_at.is_some() {
            completed += 1;
        }
        bytes_acked += stats.bytes_acked;
        live(pool.free(s));
        live(pool.free(r));
        evicted += 2;
    }
    let mut stale_rejected = 0u64;
    for &(s, r) in &pairs {
        stale_rejected += u64::from(pool.state(s).is_err());
        stale_rejected += u64::from(pool.state(r).is_err());
    }

    let mut d = StateDigest::labeled("flow-scale");
    d.write_u64(n as u64);
    d.write_u64(admitted);
    d.write_u64(handshakes);
    d.write_u64(completed);
    d.write_u64(bytes_acked);
    d.write_u64(stale_rejected);
    pool.state_digest(&mut d);
    FlowScaleRow {
        flows: n,
        admitted,
        handshakes,
        completed,
        evicted,
        stale_rejected,
        peak_slots,
        bytes_acked,
        digest: d.finish(),
    }
}

/// FS — million-flow scale sweep over the generational [`FlowPool`]:
/// per-row, `n` concurrent connections are streamed in (iterator-driven
/// admission), walked through the full RFC 9293 lifecycle, evicted, and
/// generation-checked. Every column is byte-identical across `--jobs`;
/// the per-operation cost of the pool is the ledger's `flow_churn`
/// workload's to measure.
///
/// [`FlowPool`]: dui_core::tcp::pool::FlowPool
fn flow_scale(jobs: usize) -> StageOutput {
    // Concurrent-flow targets, one sweep row each; row `i` streams its
    // workload from `task_seed(MASTER_SEED, i)`.
    const SWEEP: [usize; 3] = [10_000, 100_000, 1_000_000];
    const MASTER_SEED: u64 = 11;

    let mut out = StageOutput::default();
    let rows = run_indexed(SWEEP.len(), jobs, |i| {
        flow_scale_run(SWEEP[i], task_seed(MASTER_SEED, i as u64))
    });
    let mut csv = Table::new([
        "flows",
        "admitted",
        "handshakes",
        "completed",
        "evicted",
        "stale_rejected",
        "peak_slots",
        "bytes_acked",
        "digest",
    ]);
    let mut reg = Registry::new();
    for row in &rows {
        assert_eq!(
            row.stale_rejected, row.evicted,
            "a recycled handle survived the generation check at n={}",
            row.flows
        );
        csv.row([
            row.flows.to_string(),
            row.admitted.to_string(),
            row.handshakes.to_string(),
            row.completed.to_string(),
            row.evicted.to_string(),
            row.stale_rejected.to_string(),
            row.peak_slots.to_string(),
            row.bytes_acked.to_string(),
            format!("{:016x}", row.digest),
        ]);
        let c = reg.counter("flow_scale.flows");
        reg.add(c, row.admitted);
        let c = reg.counter("flow_scale.handshakes");
        reg.add(c, row.handshakes);
        let c = reg.counter("flow_scale.evictions");
        reg.add(c, row.evicted);
        let c = reg.counter("flow_scale.stale_rejected");
        reg.add(c, row.stale_rejected);
        let g = reg.gauge("flow_scale.peak_slots");
        reg.observe(g, row.peak_slots as f64);
    }
    out.table("flow_scale.csv", csv);
    let _ = writeln!(
        out.report,
        "every one of the {} recycled handles was refused by the generation check.\n",
        rows.iter().map(|row| row.evicted).sum::<u64>(),
    );
    out.metrics = reg.snapshot();
    out
}
