//! `dsc_corpus`: one pass over a frozen copy of the 16 shipped `.dsc`
//! scenarios (`corpus/`, copied from `examples/scenarios/` when the
//! benchmark was defined). Set-up loads the corpus the way the experiment
//! harness does before it runs it — read, `parse_str`, `compile` — and the
//! timed region is `run_with(0)` and the expectations of every scenario. The only user of `dui-scenario`, and the only workload
//! that drives the engine through taps, faults, link flaps, SYN floods,
//! PCC and Pytheas. Each file carries its own seed and its own
//! expectations, which are the workload's checks; `--seed` only permutes
//! the order the files run in.

use super::{Unit, Workload};
use crate::measure::{Checks, Laps};
use crate::trace::{timed, Trace};
use dui_core::stats::digest::StateDigest;
use dui_core::stats::Rng;
use dui_scenario::{compile, parse_str, Compiled, RunReport};
use std::path::PathBuf;

pub struct DscCorpus {
    seed: u64,
    quick: bool,
}

#[derive(Default)]
pub struct CorpusState {
    /// The compiled scenarios, in run order.
    compiled: Vec<Compiled>,
    reports: Vec<RunReport>,
}

/// The quick size keeps the scenarios that run in under 100 ms (no PCC
/// scenario does).
const QUICK: [&str; 5] = ["pytheas_", "tcp_", "ring_", "linear_", "blink_infiltration"];

/// The span a scenario's run is filed under: its workload family.
fn run_span(kind: &str) -> &'static str {
    match kind {
        "blink" => "scenario.run.blink",
        "pcc" => "scenario.run.pcc",
        "pytheas" => "scenario.run.pytheas",
        // tcp, churn, syn_flood: generic TCP populations.
        _ => "scenario.run.tcp",
    }
}

impl DscCorpus {
    pub fn new(seed: u64, quick: bool) -> Self {
        DscCorpus { seed, quick }
    }

    /// Read, parse and compile the corpus; with a `trace`, parse and
    /// compile are spans.
    fn load(&self, mut trace: Option<&mut Trace>) -> CorpusState {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".dsc"))
            .filter(|n| !self.quick || QUICK.iter().any(|p| n.starts_with(p)))
            .collect();
        names.sort();
        let mut rng = Rng::new(self.seed);
        for i in (1..names.len()).rev() {
            names.swap(i, rng.below_usize(i + 1));
        }
        let compiled = names
            .iter()
            .map(|name| {
                let text = std::fs::read_to_string(dir.join(name))
                    .unwrap_or_else(|e| panic!("cannot read corpus file {name}: {e}"));
                let sc = timed(&mut trace, "scenario.parse", || parse_str(name, &text))
                    .unwrap_or_else(|e| {
                        panic!("frozen corpus file {name} no longer parses: {e:?}")
                    });
                timed(&mut trace, "scenario.compile", || compile(&sc)).unwrap_or_else(|e| {
                    panic!("frozen corpus file {name} no longer compiles: {e:?}")
                })
            })
            .collect();
        CorpusState {
            compiled,
            reports: Vec::new(),
        }
    }
}

impl Workload for DscCorpus {
    type State = CorpusState;

    fn name(&self) -> &'static str {
        "dsc_corpus"
    }

    fn size(&self) -> String {
        let files = self.setup().compiled.len();
        format!("1 pass over {files} .dsc files, sim_threads 0")
    }

    fn setup(&self) -> CorpusState {
        self.load(None)
    }

    fn run(&self, st: &mut CorpusState, laps: &mut Laps) -> u64 {
        for compiled in &st.compiled {
            st.reports.push(compiled.run_with(0));
            laps.mark();
        }
        st.reports.len() as u64
    }

    fn digest(&self, st: &mut CorpusState) -> u64 {
        // The corpus verdict table, in file-name order so that the run
        // order (the seed) does not enter.
        let mut rows: Vec<&RunReport> = st.reports.iter().collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        let mut d = StateDigest::labeled("dsc-corpus");
        for r in rows {
            d.write_str(&r.name);
            d.write_str(r.kind);
            d.write_u64(r.seed);
            d.write_u64(r.delivered);
            d.write_len(r.checks.len());
            for c in &r.checks {
                d.write_str(&c.label);
                d.write_bool(c.pass);
                d.write_str(&c.detail);
            }
        }
        d.finish()
    }

    fn verify(&self, st: &mut CorpusState, checks: &mut Checks) {
        checks.check(
            st.reports.len() == st.compiled.len() && !st.compiled.is_empty(),
            || {
                format!(
                    "{} reports for {} files",
                    st.reports.len(),
                    st.compiled.len()
                )
            },
        );
        for r in &st.reports {
            for c in &r.checks {
                checks.check(c.pass, || format!("{}: {} — {}", r.name, c.label, c.detail));
            }
        }
    }

    fn trace(&self, trace: &mut Trace, checks: &mut Checks) -> Unit {
        let mut st = self.load(Some(trace));
        for compiled in &st.compiled {
            let span = run_span(compiled.scenario.workload.kind());
            st.reports.push(trace.time(span, || compiled.run_with(0)));
        }
        let all = st.reports.iter().flat_map(|r| &r.checks);
        trace.set("scenario.expect.checks", all.clone().count() as f64);
        trace.set(
            "scenario.expect.failed",
            all.filter(|c| !c.pass).count() as f64,
        );
        self.verify(&mut st, checks);
        Unit {
            ops: st.reports.len() as u64,
            digest: self.digest(&mut st),
        }
    }
}
