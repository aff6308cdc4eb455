//! The determinism contract (`docs/determinism.md`, D1 / D4) as a
//! property of every [`Stage`] row: the gate that compares every byte
//! a run emits, run to run and across `--jobs`.

use super::{Stage, StageOutput};

/// One run as the contract sees it: `(file, text)` for every declared
/// output — tables as CSV — then the `metrics.jsonl` line, then the
/// report.
type Comparable = Vec<(&'static str, String)>;

/// The comparable view of `out`, or how `out` departs from what `row`
/// declares, as `stage · file:1 · what`.
pub(super) fn comparable(row: &Stage, out: &StageOutput) -> Result<Comparable, String> {
    let tables = out.tables.iter().map(|(name, t)| (name, t.to_csv()));
    let artifacts = out
        .artifacts
        .iter()
        .map(|(name, text)| (name, text.clone()));
    let emitted: Vec<(&String, String)> = tables.chain(artifacts).collect();
    let names: Vec<&str> = emitted.iter().map(|(name, _)| name.as_str()).collect();
    if names != row.outputs {
        let at = names
            .iter()
            .zip(row.outputs)
            .take_while(|(a, b)| a == b)
            .count();
        let file = names.get(at).or(row.outputs.get(at)).unwrap_or(&"");
        return Err(format!(
            "{} · {file}:1 · the stage emitted [{}], its row declares [{}]",
            row.name,
            names.join(", "),
            row.outputs.join(", ")
        ));
    }
    let texts = emitted.into_iter().map(|(_, text)| text);
    let mut parts: Comparable = row.outputs.iter().copied().zip(texts).collect();
    parts.push(("metrics.jsonl", out.metrics.to_json_line(row.name)));
    parts.push(("report", out.report.clone()));
    Ok(parts)
}

/// `Ok` when the two views are byte-identical; otherwise the first
/// difference as `stage · file:line · setting A vs B`, with both sides
/// of that line excerpted around the first differing character.
fn same(
    row: &Stage,
    (a_at, a): (&str, &[(&str, String)]),
    (b_at, b): (&str, &[(&str, String)]),
) -> Result<(), String> {
    for ((file, x), (_, y)) in a.iter().zip(b) {
        if x == y {
            continue;
        }
        let line = x.lines().zip(y.lines()).take_while(|(p, q)| p == q).count();
        let (p, q) = (
            x.lines().nth(line).unwrap_or(""),
            y.lines().nth(line).unwrap_or(""),
        );
        let common = p.chars().zip(q.chars()).take_while(|(c, d)| c == d).count();
        let skip = common.saturating_sub(30);
        let excerpt = |l: &str| l.chars().skip(skip).take(90).collect::<String>();
        return Err(format!(
            "{} · {file}:{} · {a_at} vs {b_at}\n  {a_at}: {}\n  {b_at}: {}",
            row.name,
            line + 1,
            excerpt(p),
            excerpt(q)
        ));
    }
    Ok(())
}

/// Hold every row to the contract the docs state: the same
/// configuration run twice (D1), and `--jobs 4` against `--jobs 1` for
/// rows that read `--jobs` (D4). Each comparison covers every byte of
/// every table, every artifact, the `metrics.jsonl` line and the
/// report. The first difference — or the first output a row does not
/// declare — is the error.
pub fn verify_determinism(rows: &[&Stage]) -> Result<(), String> {
    for row in rows {
        let run = |jobs| comparable(row, &(row.run)(jobs));
        let first = run(4)?;
        same(
            row,
            ("run 1", &first),
            ("run 2 (same configuration)", &run(4)?),
        )?;
        if row.jobs {
            same(row, ("--jobs 4", &first), ("--jobs 1", &run(1)?))?;
        }
    }
    Ok(())
}
