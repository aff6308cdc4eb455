//! The typed scenario AST and its canonical printer.
//!
//! A [`Scenario`] is the fully validated in-memory form of a `.dsc` file.
//! [`Scenario::print`] emits the *canonical* text form: sections in a fixed
//! order, keys in a fixed order, durations in their smallest exact unit.
//! The canonical form is a fixed point of parse→print→parse (property-tested
//! over the whole key table in `tests/corpus.rs`), which keeps the format
//! diffable and lets tooling rewrite scenario files without spurious churn.
//! Key names are never spelled here: every line is written through its
//! row in [`crate::keys`].

use crate::keys::{self, kind, opt, Typed, Val, SECTIONS};
use crate::parse::{ParseError, Slots};
use dui_core::netsim::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// Tie a spec enum to its section of [`crate::keys`]: per variant, the
/// kind token and each field's row, in canonical print order (which is
/// also the order missing required keys are reported in).
macro_rules! spec {
    ($Spec:ident in $sec:ident: $($Variant:ident = $KIND:ident { $($field:ident: $ROW:ident),* })*) => {
        impl $Spec {
            /// The `kind =` token.
            pub fn kind(&self) -> &'static str {
                match self {
                    $($Spec::$Variant { .. } => kind::$KIND,)*
                }
            }

            /// `(row, value)` of every field; `None` is an unset optional.
            fn fields(&self) -> Vec<(usize, Option<Val>)> {
                match self {
                    $($Spec::$Variant { $($field),* } => vec![$((keys::$sec::$ROW, $field.val())),*],)*
                }
            }

            /// Build the spec of the declared kind out of a parsed section.
            pub(crate) fn assemble(s: &mut Slots) -> Result<Self, ParseError> {
                Ok(match s.get::<&'static str>(keys::$sec::KIND)? {
                    $(kind::$KIND => $Spec::$Variant { $($field: s.get(keys::$sec::$ROW)?),* },)*
                    other => unreachable!("kind validated: {other}"),
                })
            }
        }
    };
}

/// A parsed, validated scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (`[A-Za-z0-9_-]+`); names the row in `scenarios.csv`.
    pub name: String,
    /// Master seed: workload generation and (by default) chaos jitter.
    pub seed: u64,
    /// Sampling interval of the runner's observation grid.
    pub sample_every: SimDuration,
    /// What to build.
    pub topology: TopologySpec,
    /// What to run over it.
    pub workload: WorkloadSpec,
    /// Seed for chaos-schedule jitter (defaults to `seed`).
    pub chaos_seed: Option<u64>,
    /// Chaos declarations, in file order.
    pub chaos: Vec<ChaosDecl>,
    /// Expectations, in file order.
    pub expect: Vec<Expectation>,
}

/// `[topology] kind = ...` plus its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// The §3.1 Blink setup (fixed 6-node topology built by `BlinkScenario`).
    Blink,
    /// The §4.2 PCC dumbbell (senders + 2 routers + receiver).
    Pcc,
    /// The §4.1 Pytheas round-based engine (no packet-level topology).
    Pytheas,
    /// Ring of `nodes` routers, one host each.
    Ring {
        /// Router count (≥ 3).
        nodes: usize,
    },
    /// Ring with chords every `chord` steps.
    ChordedRing {
        /// Router count (≥ 5).
        nodes: usize,
        /// Chord step (≥ 2).
        chord: usize,
    },
    /// Chain of `nodes` routers, one host each.
    Linear {
        /// Router count (≥ 2).
        nodes: usize,
    },
    /// k-ary fat tree with `pods` pods (even, ≥ 2).
    FatTree {
        /// The fat-tree `k` parameter.
        pods: usize,
    },
    /// The NetHide bowtie with `leaves` host pairs per side.
    Bowtie {
        /// Host pairs per side (≥ 1).
        leaves: usize,
    },
}

spec! { TopologySpec in topology:
    Blink = BLINK {}
    Pcc = PCC {}
    Pytheas = PYTHEAS {}
    Ring = RING { nodes: NODES }
    ChordedRing = CHORDED_RING { nodes: NODES, chord: CHORD }
    Linear = LINEAR { nodes: NODES }
    FatTree = FAT_TREE { pods: PODS }
    Bowtie = BOWTIE { leaves: LEAVES }
}

/// `[workload] kind = ...` plus its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Legit TCP churn + the spoofed-retransmission attacker over the
    /// Blink topology (lowers onto `BlinkScenarioConfig`).
    Blink {
        /// Concurrent legitimate flows at steady state.
        legit_flows: usize,
        /// Spoofed malicious flows (0 = no attacker traffic).
        malicious_flows: usize,
        /// Mean legitimate flow lifetime.
        mean_lifetime: SimDuration,
        /// Packet interval of all flows while active.
        pkt_interval: SimDuration,
        /// When the attacker's flows first appear.
        attack_start: SimTime,
        /// When fake retransmissions begin (`None` = infiltration only).
        trigger_at: Option<SimTime>,
        /// Install the §5 RTO-plausibility guard.
        guarded: bool,
        /// Run horizon.
        horizon: SimDuration,
    },
    /// PCC flows over the dumbbell (lowers onto `PccScenarioConfig`).
    Pcc {
        /// Number of PCC flows.
        flows: usize,
        /// Bottleneck bandwidth in Mbit/s.
        bottleneck_mbps: u64,
        /// Install the §4.2 equalizer tap on every flow.
        attacked: bool,
        /// Attacker pins flows to this rate in Mbit/s.
        pin_to_mbps: Option<f64>,
        /// Run horizon.
        horizon: SimDuration,
    },
    /// The round-based Pytheas engine (lowers onto `pytheas_run`).
    Pytheas {
        /// Session groups.
        groups: usize,
        /// Rounds to run.
        rounds: usize,
        /// Fraction of sessions that are attacker bots.
        poison_fraction: f64,
        /// Install the §5 MAD report filter.
        defended: bool,
    },
    /// Generic legit TCP flow population between named hosts of a
    /// parametric topology, optionally with an in-path bounce attack.
    Tcp {
        /// Concurrent flows at steady state (split across `src` hosts).
        flows: usize,
        /// Mean flow lifetime.
        mean_lifetime: SimDuration,
        /// Packet interval while active.
        pkt_interval: SimDuration,
        /// Run horizon.
        horizon: SimDuration,
        /// Source host names (flows round-robin across them).
        src: Vec<String>,
        /// Destination host name (announces the workload prefix).
        dst: String,
        /// Optional data-plane attack.
        attack: Option<AttackSpec>,
    },
    /// High-churn TCP with the full RFC 9293 lifecycle: every flow
    /// handshakes in and tears down through TIME-WAIT, CLOSED flows are
    /// evicted so the source host's flow pool recycles slots, and flow
    /// arrivals stream off the generator (no materialized schedule).
    Churn {
        /// Concurrent flows at steady state.
        flows: usize,
        /// Mean flow lifetime.
        mean_lifetime: SimDuration,
        /// Packet interval while active.
        pkt_interval: SimDuration,
        /// Run horizon.
        horizon: SimDuration,
        /// The single source host (streamed admission owns one stream).
        src: String,
        /// Destination host name (announces the workload prefix).
        dst: String,
    },
    /// Legitimate handshaking TCP flows plus an attacker host spraying
    /// spoofed SYNs at the destination's listener backlog.
    SynFlood {
        /// Concurrent legitimate flows at steady state.
        flows: usize,
        /// Mean legitimate flow lifetime.
        mean_lifetime: SimDuration,
        /// Packet interval while active.
        pkt_interval: SimDuration,
        /// Run horizon.
        horizon: SimDuration,
        /// Legitimate source host names.
        src: Vec<String>,
        /// Destination host name (announces the workload prefix).
        dst: String,
        /// The attacker's host.
        attacker: String,
        /// Spoofed SYNs per second while the flood is on.
        syn_rate: u64,
        /// Destination listener backlog (SYN-RCVD cap).
        backlog: usize,
        /// Destination SYN-RCVD reaper timeout (`None` = never reap).
        syn_timeout: Option<SimDuration>,
        /// When the flood starts.
        attack_start: SimTime,
        /// How long the flood runs.
        attack_duration: SimDuration,
    },
}

spec! { WorkloadSpec in workload:
    Blink = BLINK {
        legit_flows: LEGIT_FLOWS, malicious_flows: MALICIOUS_FLOWS, mean_lifetime: MEAN_LIFETIME,
        pkt_interval: PKT_INTERVAL, attack_start: ATTACK_START, trigger_at: TRIGGER_AT,
        guarded: GUARDED, horizon: HORIZON
    }
    Pcc = PCC {
        flows: FLOWS, bottleneck_mbps: BOTTLENECK_MBPS, attacked: ATTACKED, pin_to_mbps: PIN_TO_MBPS,
        horizon: HORIZON
    }
    Pytheas = PYTHEAS {
        groups: GROUPS, rounds: ROUNDS, poison_fraction: POISON_FRACTION, defended: DEFENDED
    }
    Tcp = TCP {
        flows: FLOWS, mean_lifetime: MEAN_LIFETIME, pkt_interval: PKT_INTERVAL, horizon: HORIZON,
        src: SRC, dst: DST, attack: ATTACK
    }
    Churn = CHURN {
        flows: FLOWS, mean_lifetime: MEAN_LIFETIME, pkt_interval: PKT_INTERVAL, horizon: HORIZON,
        src: SRC, dst: DST
    }
    SynFlood = SYN_FLOOD {
        flows: FLOWS, mean_lifetime: MEAN_LIFETIME, pkt_interval: PKT_INTERVAL, horizon: HORIZON,
        src: SRC, dst: DST, attacker: ATTACKER, syn_rate: SYN_RATE, backlog: BACKLOG,
        syn_timeout: SYN_TIMEOUT, attack_start: ATTACK_START, attack_duration: ATTACK_DURATION
    }
}

impl WorkloadSpec {
    /// The packet-level run horizon (`None` for round-based Pytheas).
    pub fn horizon(&self) -> Option<SimDuration> {
        let (_, v) = self.fields().into_iter().find(|f| f.0 == keys::workload::HORIZON)?;
        Typed::of(v)
    }
}

/// An in-path attack for the generic TCP workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackSpec {
    /// The operator bounce pair: traffic toward the workload prefix is
    /// bounced `bounces` times between two adjacent routers.
    Bounce {
        /// The router pair (must share a link).
        via: (String, String),
        /// Bounce count (≥ 1); high counts burn TTL to death.
        bounces: u32,
    },
}

/// One `[chaos]` declaration: a fault kind plus an occurrence schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosDecl {
    /// What breaks.
    pub kind: ChaosKind,
    /// First occurrence time.
    pub at: SimTime,
    /// Number of occurrences.
    pub repeat: u32,
    /// Spacing between occurrence starts (required if `repeat > 1`).
    pub every: SimDuration,
    /// Uniform random delay in `[0, jitter)` added per occurrence, drawn
    /// from the chaos seed (0 = exact schedule).
    pub jitter: SimDuration,
}

/// The fault kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosKind {
    /// Both directions of the `a`–`b` link drop everything while down.
    /// On the `blink` topology the only valid target is `primary`
    /// (written `link_flap = primary ...`), which lowers onto
    /// `fail_primary_forward` / `heal_primary`.
    LinkFlap {
        /// One endpoint (or the literal `primary` on blink).
        a: String,
        /// Other endpoint (empty for the blink `primary` alias).
        b: String,
        /// How long the link stays down.
        down: SimDuration,
    },
    /// Every link crossing the `left` | `right` node split drops
    /// everything while down.
    Partition {
        /// Left side node names.
        left: Vec<String>,
        /// Right side node names.
        right: Vec<String>,
        /// How long the partition lasts.
        down: SimDuration,
    },
    /// All links adjacent to `node` are administratively down.
    RouterChurn {
        /// The churning router.
        node: String,
        /// How long it stays down.
        down: SimDuration,
    },
    /// `flows` extra TCP flows arrive over a `duration` window (generic
    /// TCP workload only; baked into the flow schedule at build time).
    LoadSurge {
        /// Extra flows.
        flows: usize,
        /// Arrival window.
        duration: SimDuration,
    },
}

impl ChaosKind {
    /// The `[chaos]` key this declaration is written under.
    pub fn key(&self) -> &'static str {
        match self {
            ChaosKind::LinkFlap { .. } => kind::LINK_FLAP,
            ChaosKind::Partition { .. } => kind::PARTITION,
            ChaosKind::RouterChurn { .. } => kind::ROUTER_CHURN,
            ChaosKind::LoadSurge { .. } => kind::LOAD_SURGE,
        }
    }

    /// Does this kind cut connectivity (vs. merely adding load)?
    pub fn is_fault(&self) -> bool {
        !matches!(self, ChaosKind::LoadSurge { .. })
    }
}

/// One `[expect]` line.
#[derive(Debug, Clone, PartialEq)]
pub enum Expectation {
    /// Blink must reroute within this of the first fault start.
    RerouteWithin(SimDuration),
    /// Endpoint delivery must resume within this of the last fault heal.
    RecoveryWithin(SimDuration),
    /// Some whole sampling window inside a fault must deliver nothing
    /// (proves the chaos actually cut the traffic).
    BlackoutDuringChaos,
    /// At least this many Blink reroutes by the end.
    MinReroutes(u64),
    /// At most this many Blink reroutes by the end.
    MaxReroutes(u64),
    /// Final Blink next-hop is (not) the primary.
    FinalOnPrimary(bool),
    /// At least this many attacker-held selector cells at the end.
    MaliciousCellsMin(u64),
    /// At most this many attacker-held selector cells at the end.
    MaliciousCellsMax(u64),
    /// At least this many guard vetoes.
    VetoedMin(u64),
    /// Total drop fraction (drops / packets created) at most this.
    DropRateMax(f64),
    /// At least this many packets delivered to endpoints.
    DeliveredMin(u64),
    /// Steady-state honest QoE at least this (Pytheas).
    QoeMin(f64),
    /// Steady-state honest QoE at most this (pins attack damage).
    QoeMax(f64),
    /// Steady-state best-arm share at least this (Pytheas).
    OnBestMin(f64),
    /// Every flow's steady-state rate at least this (PCC), Mbit/s.
    RateMinMbps(f64),
    /// Every flow's steady-state rate at most this (PCC), Mbit/s.
    RateMaxMbps(f64),
    /// Worst per-flow relative oscillation amplitude at most this (PCC).
    OscillationMax(f64),
    /// Peak SYN-RCVD occupancy across all hosts at most this (proves the
    /// listener backlog cap held under the flood).
    SynRcvdPeakMax(u64),
    /// At least this many completed three-way handshakes (legitimate
    /// traffic survived the backlog pressure).
    HandshakeCompletedMin(u64),
    /// Named telemetry counter at least this at the end.
    CounterMin(String, u64),
    /// Named telemetry counter at most this at the end.
    CounterMax(String, u64),
}

/// Expectation variant ⇔ (`[expect]` row, value), one line each way.
macro_rules! expectation_rows {
    ($($ROW:ident: $Variant:ident $(($($x:ident),+))? <=> $V:ident($($v:tt),+);)*) => {
        impl Expectation {
            /// This expectation's row in [`keys::expect`] and its value.
            fn row(&self) -> (usize, Val) {
                match self {
                    $(Expectation::$Variant $(($($x),+))? => (keys::expect::$ROW, Val::$V($($v.clone()),+)),)*
                }
            }

            /// The inverse of `row`: the parser's constructor.
            pub(crate) fn from_row(row: usize, v: Val) -> Expectation {
                match (row, v) {
                    $((keys::expect::$ROW, Val::$V($($v),+)) => Expectation::$Variant $(($($x),+))?,)*
                    (row, v) => unreachable!("[expect] row {row} has no variant taking {v:?}"),
                }
            }
        }
    };
}
expectation_rows! {
    REROUTE_WITHIN: RerouteWithin(d) <=> Dur(d);
    RECOVERY_WITHIN: RecoveryWithin(d) <=> Dur(d);
    BLACKOUT_DURING_CHAOS: BlackoutDuringChaos <=> Bool(true);
    MIN_REROUTES: MinReroutes(n) <=> Int(n);
    MAX_REROUTES: MaxReroutes(n) <=> Int(n);
    FINAL_ON_PRIMARY: FinalOnPrimary(b) <=> Bool(b);
    MALICIOUS_CELLS_MIN: MaliciousCellsMin(n) <=> Int(n);
    MALICIOUS_CELLS_MAX: MaliciousCellsMax(n) <=> Int(n);
    VETOED_MIN: VetoedMin(n) <=> Int(n);
    DROP_RATE_MAX: DropRateMax(x) <=> F64(x);
    DELIVERED_MIN: DeliveredMin(n) <=> Int(n);
    QOE_MIN: QoeMin(x) <=> F64(x);
    QOE_MAX: QoeMax(x) <=> F64(x);
    ON_BEST_MIN: OnBestMin(x) <=> F64(x);
    RATE_MIN_MBPS: RateMinMbps(x) <=> F64(x);
    RATE_MAX_MBPS: RateMaxMbps(x) <=> F64(x);
    OSCILLATION_MAX: OscillationMax(x) <=> F64(x);
    SYNRCVD_PEAK_MAX: SynRcvdPeakMax(n) <=> Int(n);
    HANDSHAKE_COMPLETED_MIN: HandshakeCompletedMin(n) <=> Int(n);
    COUNTER_MIN: CounterMin(c, n) <=> Counter(c, n);
    COUNTER_MAX: CounterMax(c, n) <=> Counter(c, n);
}

impl Expectation {
    /// The `[expect]` table row: the key's name and observing workloads.
    pub fn key(&self) -> &'static keys::Key {
        &keys::expect::KEYS[self.row().0]
    }

    /// The canonical `key = value` line (used in printing and as the
    /// check label in `scenarios.csv`).
    pub fn line(&self) -> String {
        let (row, v) = self.row();
        format!("{} = {v}", keys::expect::KEYS[row].name)
    }
}

/// Canonical duration text: the largest unit that divides it exactly
/// (`5s`, `250ms`, `40us`, `17ns`). `0ns` stays `0s` for readability.
pub fn dur(d: SimDuration) -> String {
    let ns = d.as_nanos();
    if ns == 0 {
        "0s".to_string()
    } else if ns % 1_000_000_000 == 0 {
        format!("{}s", ns / 1_000_000_000)
    } else if ns % 1_000_000 == 0 {
        format!("{}ms", ns / 1_000_000)
    } else if ns % 1_000 == 0 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// Canonical time text (offset from t = 0, same units as [`dur`]).
pub fn time(t: SimTime) -> String {
    dur(SimDuration(t.0))
}

/// Append one `[section]`: its header, `kind` if it has one, then every
/// set field as `key = value`.
fn section(s: &mut String, si: usize, kind: Option<&'static str>, fields: Vec<(usize, Option<Val>)>) {
    let sec = &SECTIONS[si];
    let _ = writeln!(s, "{}[{}]", if s.is_empty() { "" } else { "\n" }, sec.name);
    for (row, v) in kind.map(|k| (0, Some(Val::Kind(k)))).into_iter().chain(fields) {
        if let Some(v) = v {
            let _ = writeln!(s, "{} = {v}", sec.keys[row].name);
        }
    }
}

impl Scenario {
    /// Emit the canonical text form (see module docs).
    pub fn print(&self) -> String {
        use keys::scenario::*;
        let mut s = String::new();
        let fields = [(NAME, self.name.val()), (SEED, self.seed.val()), (SAMPLE_EVERY, self.sample_every.val())];
        section(&mut s, keys::SCENARIO, None, fields.into());
        section(&mut s, keys::TOPOLOGY, Some(self.topology.kind()), self.topology.fields());
        section(&mut s, keys::WORKLOAD, Some(self.workload.kind()), self.workload.fields());
        if self.chaos_seed.is_some() || !self.chaos.is_empty() {
            section(&mut s, keys::CHAOS, None, vec![(keys::chaos::SEED, self.chaos_seed.val())]);
            self.chaos.iter().for_each(|decl| s.push_str(&(decl.line() + "\n")));
        }
        if !self.expect.is_empty() {
            section(&mut s, keys::EXPECT, None, Vec::new());
            self.expect.iter().for_each(|e| s.push_str(&(e.line() + "\n")));
        }
        s
    }
}

impl ChaosDecl {
    /// The canonical `key = value` line.
    pub fn line(&self) -> String {
        let o = |row: usize, v: String| format!(" {}={v}", opt::KEYS[row].name);
        let at = o(opt::AT, time(self.at));
        let down = |d: &SimDuration| o(opt::DOWN, dur(*d));
        let mut v = format!("{} =", self.kind.key());
        v += &match &self.kind {
            ChaosKind::LinkFlap { a, b, down: d } if b.is_empty() => format!(" {a}{at}{}", down(d)),
            ChaosKind::LinkFlap { a, b, down: d } => format!(" {a}-{b}{at}{}", down(d)),
            ChaosKind::Partition { left, right, down: d } => {
                format!(" {} | {}{at}{}", left.join(","), right.join(","), down(d))
            }
            ChaosKind::RouterChurn { node, down: d } => format!(" {node}{at}{}", down(d)),
            ChaosKind::LoadSurge { flows, duration } => {
                at + &o(opt::FLOWS, flows.to_string()) + &o(opt::DURATION, dur(*duration))
            }
        };
        if self.repeat > 1 {
            v += &(o(opt::REPEAT, self.repeat.to_string()) + &o(opt::EVERY, dur(self.every)));
        }
        if self.jitter != SimDuration::ZERO {
            v += &o(opt::JITTER, dur(self.jitter));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_canonical_units() {
        assert_eq!(dur(SimDuration::ZERO), "0s");
        assert_eq!(dur(SimDuration::from_secs(5)), "5s");
        assert_eq!(dur(SimDuration::from_millis(250)), "250ms");
        assert_eq!(dur(SimDuration::from_micros(40)), "40us");
        assert_eq!(dur(SimDuration::from_nanos(1_000_000_017)), "1000000017ns");
    }
}
