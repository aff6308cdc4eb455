#!/usr/bin/env bash
# Offline verification gate: everything must pass with zero registry or
# network access. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# same_bytes WHERE FIRST SECOND FILE...
#   The determinism contract, as a gate: run FIRST, then SECOND, in
#   directory WHERE ("scratch": a fresh temporary directory), and require
#   every FILE the first run left behind to come out of the second run
#   byte-identical. A SECOND that makes several runs calls `same` after
#   each but the last. Any failing command fails the gate.
same_bytes() {
  local where="$1" first="$2" second="$3" kept f
  shift 3
  local files=("$@")
  kept="$(mktemp -d)"
  trap "rm -rf '$kept'" EXIT # a failing run exits the script from inside
  if [ "$where" = scratch ]; then
    where="$kept/run"
    mkdir "$where"
  fi
  (
    cd "$where"
    same() { for f in "${files[@]}"; do cmp "$kept/$(basename "$f")" "$f"; done; }
    eval "$first"
    for f in "${files[@]}"; do mv "$f" "$kept/$(basename "$f")"; done
    eval "$second"
    same
  ) >/dev/null
  rm -rf "$kept"
}

echo "== determinism lint (dui-lint: token-aware, baseline-gated) =="
# No wall clock / ambient randomness in library crates, and the rest of
# the rule set (rustdoc of `dui_lint::rules`, EXPERIMENTS.md). Exits
# non-zero iff a finding is not grandfathered by lint.baseline; also
# writes results/lint.jsonl, which a second run must reproduce.
LINT="cargo run -q --release --offline -p dui-lint --"
$LINT --json --baseline lint.baseline
# (That run, with its findings left visible, is the pair's first.)
same_bytes . : "$LINT --json --baseline lint.baseline 2>&1" results/lint.jsonl
echo "lint.jsonl byte-identical across runs: OK"

echo "== call-graph dump determinism (dui-lint --graph-dump) =="
# The cross-crate symbol/call graph behind the interprocedural rules
# must serialize byte-identically across runs — symbol ids, edges, and
# unknown-callee lists are all canonically ordered.
same_bytes . "$LINT --graph-dump" "$LINT --graph-dump" results/callgraph.jsonl
echo "callgraph.jsonl byte-identical across runs: OK"

echo "== build (release, offline) =="
cargo build --release --offline

echo "== timer-wheel suites at depth (2000 propcheck cases; seconds) =="
# Every engine run's event order rests on the wheel popping exactly what
# a binary heap would; the workspace run below tries the default case
# count, this one looks harder first.
PROPCHECK_CASES=2000 cargo test -q --offline -p dui-netsim --test properties wheel

echo "== Blink selector differential at depth (2000 propcheck cases; seconds) =="
# The selector skips its cell scans on two derived summaries; the suite
# holds it, op by op, to the scan-every-packet selector it replaced
# (`ScanSelector` in the test file), which is what Fig. 2 and every
# packet-level Blink digest rest on.
PROPCHECK_CASES=2000 cargo test -q --offline -p dui-blink --test properties selector

echo "== tests (workspace, offline; dui-scenario: key-table round-trip, .dsc mutation never-panic, docs tables) =="
cargo test -q --offline --workspace

echo "== ledger benchmark unit tests (own package, outside the workspace) =="
# BENCHMARK.json's package has its own manifest with an empty
# [workspace], so the workspace run above never compiles it: a public
# API change that breaks the benchmark would otherwise surface only in
# the driver. Its tests run every workload at --quick size.
cargo test -q --release --offline --manifest-path ledger/Cargo.toml

echo "== golden checkpoint hashes (byte-identity, no re-bless) =="
# The golden traces must reproduce from the pinned fixtures as they sit
# in the work tree — never via GOLDEN_BLESS — and the fixture files must
# be untouched relative to HEAD. A refactor that changes simulation
# *representation* (packet arena, timer wheel) must not change the
# *logical* state hashes these files pin.
if [ -n "${GOLDEN_BLESS:-}" ]; then
  echo "refusing to verify with GOLDEN_BLESS set" >&2
  exit 1
fi
cargo test -q --offline --test golden_traces
git diff --exit-code -- tests/golden
echo "golden fixtures byte-identical to HEAD: OK"

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== bench harness compiles and runs (smoke) =="
cargo bench --offline -p dui-bench --bench microbench -- --quick >/dev/null

EXP="$PWD/target/release/experiments"
CORPUS="$PWD/examples/scenarios"

echo "== record/replay gate (dui-replay) =="
# Record a run and replay it with full hash checking; then resume it from
# the midpoint checkpoint and demand the resumed run's CSV is
# byte-identical to the uninterrupted one; then the same record+check for
# a hash-only packet-level recording.
same_bytes scratch \
  "'$EXP' record fig2-small && '$EXP' replay results/fig2-small.duir --check" \
  "'$EXP' replay results/fig2-small.duir --resume mid &&
   mv results/fig2-small_resumed.csv results/fig2-small_recorded.csv &&
   '$EXP' record blink-packet-small && '$EXP' replay results/blink-packet-small.duir --check" \
  results/fig2-small_recorded.csv
echo "record/replay gate, resume CSV byte-identical: OK"

echo "== parallel engine byte-identity (--sim-threads) =="
# The sharded simulator must produce the same bytes as the sequential
# engine: run the packet-level Blink stage once per thread count and
# byte-compare its CSV and its deterministic telemetry JSONL. This is
# the end-to-end check behind crates/netsim/src/parallel/ — the unit
# and property tests cover randomized topologies; this pins the real
# experiment at 1 thread, at 2 (the count the ledger benchmarks) and at
# 4 — each under `timeout`, so a deadlocked rendezvous fails the gate
# instead of hanging it. (~30 s: three full packet-level runs.)
BLINK_AT="timeout 600 '$EXP' blink-packet --metrics --sim-threads"
same_bytes scratch "$BLINK_AT 1" "$BLINK_AT 2 && same && $BLINK_AT 4" \
  results/blink_packet.csv results/metrics.jsonl
echo "blink-packet CSV + metrics JSONL byte-identical at 1, 2 and 4 sim threads: OK"

echo "== supervisord verdict-log byte-identity (--workers) =="
# The streaming supervisor pipeline must emit the same verdict JSONL at
# any worker count (docs/supervisord.md). The stage already asserts
# this in-process across its sweep; this byte-compares the exported log
# across two separate invocations at 1 and 4 workers.
same_bytes scratch "'$EXP' supervisord --workers 1" "'$EXP' supervisord --workers 4" \
  results/supervisord_verdicts.jsonl
echo "supervisord verdict JSONL byte-identical at 1 vs 4 workers: OK"

echo "== scenario corpus (experiments scenario, --jobs byte-identity) =="
# Every shipped .dsc must parse, compile, and pass its expectations —
# a file that fails to parse exits the runner with status 2 and fails
# the gate — and the verdict CSV must not depend on --jobs.
same_bytes scratch "'$EXP' scenario '$CORPUS' --jobs 4" "'$EXP' scenario '$CORPUS' --jobs 1" \
  results/scenarios.csv
echo "scenario corpus all-pass and CSV byte-identical at --jobs 1 vs 4: OK"

echo "== flow-scale smoke (10k flows, --jobs byte-identity) =="
# The deterministic columns of flow_scale.csv (flows..digest, fields
# 1-9) must not depend on --jobs; the wall-clock/RSS columns vary by
# nature and are cut off before comparing. DUI_FLOW_SCALE_MAX truncates
# the sweep to its 10k row so the gate stays fast — the recorded
# results/flow_scale.csv always comes from the full 10k→1M sweep.
FLOW_SCALE="DUI_FLOW_SCALE_MAX=10000 '$EXP' flow-scale"
COLS="cut -d, -f1-9 results/flow_scale.csv > flow_scale.cols"
same_bytes scratch "$FLOW_SCALE --jobs 1 && $COLS" "$FLOW_SCALE --jobs 4 && $COLS" flow_scale.cols
echo "flow-scale deterministic columns byte-identical at --jobs 1 vs 4: OK"

echo "== docs (intra-repo links) =="
bash scripts/check_docs.sh
echo "docs links: OK"

echo "verify: OK"
