//! Findings and their deterministic output.
//!
//! Everything the linter emits is a pure function of the scanned
//! sources: findings sort by `(file, line, col, rule)` and the
//! JSON-lines export carries no timestamps or absolute paths.

use std::fmt::Write as _;

/// How bad a finding is. Both severities gate (a finding of either
/// severity fails the lint); the split exists for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Style/robustness issue (panic paths, missing deny attribute).
    Warning,
    /// Breaks a reproduction invariant (determinism, hash stability).
    Error,
}

impl Severity {
    /// Lowercase name for reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `determinism/wall-clock`.
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Repo-relative file path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human explanation of the violation.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
}

/// Sort findings into the canonical deterministic order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Finding {
    /// One JSON object on one line — the `results/lint.jsonl` record.
    /// Byte-identical across runs by construction (no wall-clock, no
    /// absolute paths, stable key order).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"snippet\":\"{}\"}}",
            json_escape(self.rule),
            self.severity.as_str(),
            json_escape(&self.file),
            self.line,
            self.col,
            json_escape(&self.message),
            json_escape(&self.snippet),
        )
    }
}

/// Render the human report (destined for stderr): one aligned row per
/// finding plus a per-rule summary.
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: {} [{}]: {}",
            f.file,
            f.line,
            f.col,
            f.severity.as_str(),
            f.rule,
            f.message
        );
        let _ = writeln!(out, "    {}", f.snippet);
    }
    // Per-rule summary, sorted by rule id.
    let mut per_rule: Vec<(&str, usize)> = Vec::new();
    for f in findings {
        match per_rule.iter_mut().find(|(r, _)| *r == f.rule) {
            Some((_, total)) => *total += 1,
            None => per_rule.push((f.rule, 1)),
        }
    }
    per_rule.sort();
    if !per_rule.is_empty() {
        let _ = writeln!(out, "\nrule                               total");
        for (rule, total) in &per_rule {
            let _ = writeln!(out, "{rule:<34} {total:>5}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &'static str, file: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            rule,
            severity: Severity::Error,
            file: file.to_string(),
            line,
            col: 1,
            message: "m".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn json_lines_are_stable_and_escaped() {
        let line = f("r/a", "x.rs", 1, "say \"hi\"\t").to_json_line();
        assert_eq!(
            line,
            "{\"rule\":\"r/a\",\"severity\":\"error\",\"file\":\"x.rs\",\"line\":1,\"col\":1,\"message\":\"m\",\"snippet\":\"say \\\"hi\\\"\\t\"}"
        );
    }

    #[test]
    fn sort_is_by_file_line_col_rule() {
        let mut v = vec![
            f("r/b", "b.rs", 1, "s"),
            f("r/a", "a.rs", 2, "s"),
            f("r/a", "a.rs", 1, "s"),
        ];
        sort_findings(&mut v);
        assert_eq!(
            v.iter().map(|f| (f.file.as_str(), f.line)).collect::<Vec<_>>(),
            [("a.rs", 1), ("a.rs", 2), ("b.rs", 1)]
        );
    }
}
