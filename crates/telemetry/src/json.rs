//! Deterministic JSON fragments shared by every exporter in the
//! workspace.
//!
//! The registry's `Snapshot::to_json_line`, the metrics JSONL writer in
//! `dui-bench`, and the supervisord verdict log all need the same two
//! guarantees: floats print identically for identical bit patterns, and
//! strings escape identically. Centralizing the helpers here keeps every
//! byte-compared artifact (`results/metrics.jsonl`, verdict JSONL) on
//! one formatting contract.

use std::fmt::Write as _;

/// Format an `f64` deterministically: `Display` gives the shortest
/// round-trip representation, with a trailing `.0` added to integral
/// values so the output is unambiguously a float. Non-finite values
/// render as `null` (JSON has no NaN/Inf).
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    push_json_f64(&mut out, v);
    out
}

/// Append `v` exactly as [`json_f64`] formats it, without a `String`
/// per value.
pub fn push_json_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e']) {
        out.push_str(".0");
    }
}

/// Append `s` as a JSON string literal (escaping quotes, backslashes,
/// and control characters).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_are_unambiguous() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(-0.125), "-0.125");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        let mut out = String::from("x:");
        push_json_f64(&mut out, 3.0);
        assert_eq!(out, "x:3.0");
    }

    #[test]
    fn strings_escape_control_chars() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\n\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\u0001\"");
    }
}
