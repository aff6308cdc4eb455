//! `ledger compare A.json B.json`: one row per workload and end-to-end
//! metric — both medians, the ratio with its base, and a verdict from the
//! metric's own bound — then whether the simulated statistics (outcome
//! digests and every `count` layer metric) are identical. Exits 1 on any
//! `worse` row or on more failed checks in B than in A.

use crate::json::Json;
use crate::{Better, END_TO_END};
use dui_core::stats::summary::median;
use std::process::ExitCode;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default, exclusive method) gives them; needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread: the distance between the quartiles as a share of
/// the median (0 for a single value).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side is wider than the bound and
    /// the two ranges overlap: the data cannot tell *same* from *worse*.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against base A on one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let range = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let ((alo, ahi), (blo, bhi)) = (range(a), range(b));
    let overlap = alo <= bhi && blo <= ahi;
    if spread(a).max(spread(b)) > bound && overlap {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let ledger = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if ledger.get("schema").and_then(Json::as_str) != Some("dui-ledger/1") {
        return Err(format!("{path} is not a dui-ledger/1 file"));
    }
    Ok(ledger)
}

fn values(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// Names of the simulated statistics that differ between two runs of one
/// workload: the outcome digest and every layer metric counted, not timed.
fn simulated_differences(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    if a.get("digest") != b.get("digest") {
        out.push("digest".to_string());
    }
    for (name, ma) in a.get("per_layer").map_or(&[][..], Json::as_obj) {
        if ma.get("unit").and_then(Json::as_str) != Some("count") {
            continue;
        }
        let vb = b
            .get("per_layer")
            .and_then(|l| l.get(name))
            .and_then(|m| m.get("value"));
        if ma.get("value") != vb {
            out.push(name.clone());
        }
    }
    out
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let [path_a, path_b] = args else {
        return Err("compare takes two ledger files".into());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("base A = {path_a}\n     B = {path_b}\n");
    println!(
        "{:<20} {:<13} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "spread A", "spread B"
    );
    let mut regressions = 0;
    let mut unresolved = 0;
    let mut differing = Vec::new();
    let workloads_a = a.get("workloads").map_or(&[][..], Json::as_obj);
    for (name, wa) in workloads_a {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<20} missing from B");
            regressions += 1;
            continue;
        };
        for &(metric, _, better, bound) in END_TO_END {
            let (va, vb) = (values(wa, metric), values(wb, metric));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name}.{metric}: no values"));
            }
            let verdict = judge(&va, &vb, better, bound);
            println!(
                "{name:<20} {metric:<13} {:>14.6} {:>14.6} {:>8.3} {:>7.1}% {:>7.1}%  {}",
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                verdict.label()
            );
            regressions += usize::from(verdict == Verdict::Worse);
            unresolved += usize::from(verdict == Verdict::Unresolved);
        }
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(wb) > failed(wa) {
            println!(
                "{name:<20} failed checks rose from {} to {}",
                failed(wa),
                failed(wb)
            );
            regressions += 1;
        }
        differing.extend(
            simulated_differences(wa, wb)
                .into_iter()
                .map(|d| format!("{name}.{d}")),
        );
    }
    println!();
    if differing.is_empty() {
        println!("simulated statistics: identical (digests and every count)");
    } else {
        println!("simulated statistics differ: {}", differing.join(", "));
    }
    println!("{regressions} worse, {unresolved} unresolved");
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10.0, 12.0, 11.0], n=4) == [10.0, 11.0, 12.0]
        assert_eq!(quartiles(&[10.0, 12.0, 11.0]), Some((10.0, 12.0)));
        // statistics.quantiles([1.0, 3.0], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_logic() {
        let base = [1.00, 1.01, 0.99];
        // Within the bound either way: same.
        assert_eq!(
            judge(&base, &[1.05, 1.06, 1.04], Better::Lower, 0.10),
            Verdict::Same
        );
        assert_eq!(
            judge(&base, &[0.95, 0.96, 0.94], Better::Lower, 0.10),
            Verdict::Same
        );
        // Beyond it: worse when it grew, better when it shrank.
        assert_eq!(
            judge(&base, &[1.20, 1.21, 1.19], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &[0.80, 0.81, 0.79], Better::Lower, 0.10),
            Verdict::Better
        );
        // The direction flips for a higher-is-better metric.
        assert_eq!(
            judge(&base, &[1.20, 1.21, 1.19], Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &[0.80, 0.81, 0.79], Better::Higher, 0.10),
            Verdict::Worse
        );
        // Spread wider than the bound with overlapping ranges: unresolved,
        // whatever the medians say.
        assert_eq!(
            judge(&[1.0, 1.3, 0.8], &[1.2, 0.9, 1.5], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Wide spread but disjoint ranges: every run of B is beyond every
        // run of A, so the medians decide.
        assert_eq!(
            judge(&[1.0, 1.3, 0.8], &[2.0, 2.6, 1.6], Better::Lower, 0.10),
            Verdict::Worse
        );
        // Single runs have no spread.
        assert_eq!(judge(&[1.0], &[1.5], Better::Lower, 0.10), Verdict::Worse);
    }

    fn workload(digest: &str, count: f64, busy: f64) -> Json {
        Json::obj([
            ("digest", Json::str(digest)),
            (
                "per_layer",
                Json::obj([
                    (
                        "x.count",
                        Json::obj([("unit", Json::str("count")), ("value", Json::Num(count))]),
                    ),
                    (
                        "x.busy_s",
                        Json::obj([("unit", Json::str("s")), ("value", Json::Num(busy))]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn only_counted_statistics_must_repeat() {
        let a = workload("ab", 5.0, 0.1);
        assert!(simulated_differences(&a, &workload("ab", 5.0, 0.2)).is_empty());
        assert_eq!(
            simulated_differences(&a, &workload("cd", 6.0, 0.1)),
            ["digest", "x.count"]
        );
    }
}
