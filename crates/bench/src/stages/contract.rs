//! The determinism contract (`docs/determinism.md`, D1 / D4) as a
//! property of every [`Stage`] row: what of a run is comparable, and
//! the gate that compares it run to run and across `--jobs`.

use super::{Stage, StageOutput};

/// One run as the contract sees it: `(file, text)` for every declared
/// output — tables as CSV with their `measured` columns dropped — then
/// the `metrics.jsonl` line, then the report when the row declares no
/// measured column (a measurement shows up in the printed tables too).
type Comparable = Vec<(&'static str, String)>;

/// The comparable view of `out`, or how `out` departs from what `row`
/// declares, as `stage · file:1 · what`.
pub(super) fn comparable(row: &Stage, out: &StageOutput) -> Result<Comparable, String> {
    let tables = out.tables.iter().map(|(name, t)| (name, t.to_csv()));
    let artifacts = out.artifacts.iter().map(|(name, text)| (name, text.clone()));
    let emitted: Vec<(&String, String)> = tables.chain(artifacts).collect();
    let names: Vec<&str> = emitted.iter().map(|(name, _)| name.as_str()).collect();
    let declared: Vec<&str> = row.outputs.iter().map(|o| o.file).collect();
    if names != declared {
        let at = names.iter().zip(&declared).take_while(|(a, b)| a == b).count();
        let file = names.get(at).or(declared.get(at)).unwrap_or(&"");
        return Err(format!(
            "{} · {file}:1 · the stage emitted [{}], its row declares [{}]",
            row.name,
            names.join(", "),
            declared.join(", ")
        ));
    }
    let mut parts = Comparable::new();
    for ((_, text), o) in emitted.into_iter().zip(row.outputs) {
        let text = if o.measured.is_empty() {
            text
        } else {
            drop_columns(&text, o.measured)
                .map_err(|what| format!("{} · {}:1 · {what}", row.name, o.file))?
        };
        parts.push((o.file, text));
    }
    parts.push(("metrics.jsonl", out.metrics.to_json_line(row.name)));
    if row.outputs.iter().all(|o| o.measured.is_empty()) {
        parts.push(("report", out.report.clone()));
    }
    Ok(parts)
}

/// `csv` without the columns headed by a `measured` name, line for
/// line. Cells are split on bare commas, so a quoted cell is refused
/// rather than mis-split.
fn drop_columns(csv: &str, measured: &[&str]) -> Result<String, String> {
    if csv.contains('"') {
        return Err("a table with measured columns must not quote a cell".to_string());
    }
    let header: Vec<&str> = csv.lines().next().unwrap_or("").split(',').collect();
    if let Some(absent) = measured.iter().find(|m| !header.contains(m)) {
        return Err(format!("measured column '{absent}' is not in the header"));
    }
    let mut kept = String::new();
    for line in csv.lines() {
        let cells = line.split(',').zip(&header).filter(|(_, h)| !measured.contains(h));
        kept.push_str(&cells.map(|(cell, _)| cell).collect::<Vec<_>>().join(","));
        kept.push('\n');
    }
    Ok(kept)
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
        let (p, q) = (x.lines().nth(line).unwrap_or(""), y.lines().nth(line).unwrap_or(""));
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
/// rows that read `--jobs` (D4). Each comparison covers every table
/// with its `measured` columns dropped, every artifact, the
/// `metrics.jsonl` line, and the report text of rows without a measured
/// column. The first difference — or the first output a row does not
/// declare — is the error.
pub fn verify_determinism(rows: &[&Stage]) -> Result<(), String> {
    for row in rows {
        let run = |jobs| comparable(row, &(row.run)(jobs));
        let first = run(4)?;
        same(row, ("run 1", &first), ("run 2 (same configuration)", &run(4)?))?;
        if row.jobs {
            same(row, ("--jobs 4", &first), ("--jobs 1", &run(1)?))?;
        }
    }
    Ok(())
}
