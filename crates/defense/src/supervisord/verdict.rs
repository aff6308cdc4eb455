//! Verdicts: one risk ruling per ingested frame, with deterministic
//! JSONL serialization.

use dui_telemetry::json::{push_json_f64, push_json_str};
use std::fmt::{self, Write as _};
use std::ops::Deref;
use std::sync::Arc;

/// A group key, shared: [`run`](super::run) builds one per producer
/// input and every verdict of that input holds a clone of it, so a
/// verdict owns no heap of its own. Compares and prints (`Debug`) as
/// the bare string.
#[derive(Clone, PartialEq, Eq)]
pub struct GroupName(Arc<str>);

impl GroupName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for GroupName {
    fn from(name: &str) -> Self {
        GroupName(name.into())
    }
}

impl Deref for GroupName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for GroupName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// What the supervisor sanctions for the epoch the frame covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Risk below the constrain threshold: drivers keep full authority.
    Allow,
    /// Elevated risk: drivers keep steering but inside a narrowed
    /// operating range (e.g. the PCC ε clamp in
    /// [`Verdict::eps_max`]).
    Constrain,
    /// Risk above the veto threshold: proposals are suppressed.
    Veto,
}

impl Action {
    /// Stable lowercase label used in the JSONL log.
    pub fn label(&self) -> &'static str {
        match self {
            Action::Allow => "allow",
            Action::Constrain => "constrain",
            Action::Veto => "veto",
        }
    }
}

/// One ruling: the windowed risk signals after folding in one frame,
/// and the action they sanction.
///
/// Verdicts are totally ordered by `(epoch, producer, seq)` — the same
/// key the pipeline's merge layers use — so a verdict log is a
/// canonical, diffable artifact: two runs diverge at the first
/// differing line, the `file:line` that `experiments verify-determinism`
/// reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Producer-local logical time bucket of the frame.
    pub epoch: u64,
    /// Producer that emitted the frame.
    pub producer: u32,
    /// Per-producer sequence number of the frame.
    pub seq: u64,
    /// Group key the frame was sharded by.
    pub group: GroupName,
    /// Blink cell-occupancy risk in `[0, 1]`.
    pub blink: f64,
    /// Pytheas group-outlier risk in `[0, 1]`.
    pub pytheas: f64,
    /// PCC drop-pattern asymmetry risk in `[0, 1]`.
    pub pcc: f64,
    /// Overall risk: the maximum of the three signals.
    pub risk: f64,
    /// Recommended PCC ε_max at this risk (the amplitude clamp).
    pub eps_max: f64,
    /// The sanctioned action.
    pub action: Action,
}

impl Verdict {
    /// The canonical ordering key.
    pub fn key(&self) -> (u64, u32, u64) {
        (self.epoch, self.producer, self.seq)
    }

    /// Append the verdict to `out` as one JSON object on a single line
    /// (no trailing newline). Field order is fixed and floats print via
    /// the workspace's deterministic formatter, so equal verdicts always
    /// produce equal bytes.
    fn write_json_line(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"epoch\":{},\"producer\":{},\"seq\":{},\"group\":",
            self.epoch, self.producer, self.seq
        );
        push_json_str(out, &self.group);
        for (key, v) in [
            (",\"blink\":", self.blink),
            (",\"pytheas\":", self.pytheas),
            (",\"pcc\":", self.pcc),
            (",\"risk\":", self.risk),
            (",\"eps_max\":", self.eps_max),
        ] {
            out.push_str(key);
            push_json_f64(out, v);
        }
        out.push_str(",\"action\":\"");
        out.push_str(self.action.label());
        out.push_str("\"}");
    }
}

/// Render verdicts as a JSONL log, one verdict per line, trailing
/// newline included (empty input renders as the empty string).
pub fn to_jsonl(verdicts: &[Verdict]) -> String {
    let mut out = String::new();
    for v in verdicts {
        v.write_json_line(&mut out);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Verdict {
        Verdict {
            epoch: 3,
            producer: 1,
            seq: 7,
            group: "site-a".into(),
            blink: 0.5,
            pytheas: 0.0,
            pcc: 0.25,
            risk: 0.5,
            eps_max: 0.05,
            action: Action::Constrain,
        }
    }

    #[test]
    fn json_line_is_stable_and_ordered() {
        let line = to_jsonl(&[sample()]);
        assert_eq!(line, to_jsonl(&[sample()]));
        assert_eq!(
            line,
            "{\"epoch\":3,\"producer\":1,\"seq\":7,\"group\":\"site-a\",\
             \"blink\":0.5,\"pytheas\":0.0,\"pcc\":0.25,\"risk\":0.5,\
             \"eps_max\":0.05,\"action\":\"constrain\"}\n"
        );
    }

    #[test]
    fn jsonl_joins_with_newlines() {
        let v = sample();
        let log = to_jsonl(&[v.clone(), v]);
        assert_eq!(log.lines().count(), 2);
        assert!(log.ends_with('\n'));
        assert_eq!(to_jsonl(&[]), "");
    }
}
