#!/usr/bin/env bash
# Offline verification gate: everything must pass with zero registry or
# network access. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== determinism lint (dui-lint: token-aware, baseline-gated) =="
bash scripts/lint_determinism.sh
cp results/lint.jsonl "$(pwd)/target/lint.jsonl.first"
bash scripts/lint_determinism.sh >/dev/null 2>&1
cmp results/lint.jsonl "$(pwd)/target/lint.jsonl.first"
rm -f "$(pwd)/target/lint.jsonl.first"
echo "lint.jsonl byte-identical across runs: OK"

echo "== call-graph dump determinism (dui-lint --graph-dump) =="
# The cross-crate symbol/call graph behind the interprocedural rules
# must serialize byte-identically across runs — symbol ids, edges, and
# unknown-callee lists are all canonically ordered.
cargo run -q --release --offline -p dui-lint -- --graph-dump >/dev/null
cp results/callgraph.jsonl "$(pwd)/target/callgraph.jsonl.first"
cargo run -q --release --offline -p dui-lint -- --graph-dump >/dev/null
cmp results/callgraph.jsonl "$(pwd)/target/callgraph.jsonl.first"
rm -f "$(pwd)/target/callgraph.jsonl.first"
echo "callgraph.jsonl byte-identical across runs: OK"

echo "== build (release, offline) =="
cargo build --release --offline

echo "== tests (workspace, offline) =="
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

echo "== record/replay gate (dui-replay) =="
# Record a run, replay it with full hash checking, resume it from the
# midpoint checkpoint, and demand the resumed run's CSV is byte-identical
# to the uninterrupted one; then the same record+check for a hash-only
# packet-level recording.
EXP="$PWD/target/release/experiments"
RRDIR="$(mktemp -d)"
trap 'rm -rf "$RRDIR"' EXIT
(
  cd "$RRDIR"
  "$EXP" record fig2-small
  "$EXP" replay results/fig2-small.duir --check
  "$EXP" replay results/fig2-small.duir --resume mid
  cmp results/fig2-small_recorded.csv results/fig2-small_resumed.csv
  echo "resume CSV byte-identical: OK"
  "$EXP" record blink-packet-small
  "$EXP" replay results/blink-packet-small.duir --check
) >/dev/null
echo "record/replay gate: OK"

echo "== parallel engine byte-identity (--sim-threads) =="
# The sharded simulator must produce the same bytes as the sequential
# engine: run the packet-level Blink stage once per thread count and
# byte-compare its CSV and its deterministic telemetry JSONL. This is
# the end-to-end check behind crates/netsim/src/parallel/ — the unit
# and property tests cover randomized topologies; this pins the real
# experiment. (~3 min: two full packet-level runs.)
PARDIR="$(mktemp -d)"
(
  cd "$PARDIR"
  "$EXP" blink-packet --sim-threads 1 --metrics
  mv results/blink_packet.csv blink_packet.t1.csv
  mv results/metrics.jsonl metrics.t1.jsonl
  "$EXP" blink-packet --sim-threads 4 --metrics
  cmp blink_packet.t1.csv results/blink_packet.csv
  cmp metrics.t1.jsonl results/metrics.jsonl
) >/dev/null
rm -rf "$PARDIR"
echo "blink-packet CSV + metrics JSONL byte-identical at 1 vs 4 sim threads: OK"

echo "== supervisord verdict-log byte-identity (--workers) =="
# The streaming supervisor pipeline must emit the same verdict JSONL at
# any worker count (docs/supervisord.md). The stage already asserts
# this in-process across its sweep; this byte-compares the exported log
# across two separate invocations at 1 and 4 workers.
SVDIR="$(mktemp -d)"
(
  cd "$SVDIR"
  "$EXP" supervisord --workers 1
  mv results/supervisord_verdicts.jsonl verdicts.w1.jsonl
  "$EXP" supervisord --workers 4
  cmp verdicts.w1.jsonl results/supervisord_verdicts.jsonl
) >/dev/null
rm -rf "$SVDIR"
echo "supervisord verdict JSONL byte-identical at 1 vs 4 workers: OK"

echo "== scenario corpus (experiments scenario, --jobs byte-identity) =="
# Every shipped .dsc must parse, compile, and pass its expectations —
# a file that fails to parse exits the runner with status 2 and fails
# the gate — and the verdict CSV must not depend on --jobs.
SCDIR="$(mktemp -d)"
(
  cd "$SCDIR"
  "$EXP" scenario "$OLDPWD/examples/scenarios" --jobs 4
  mv results/scenarios.csv scenarios.j4.csv
  "$EXP" scenario "$OLDPWD/examples/scenarios" --jobs 1
  cmp scenarios.j4.csv results/scenarios.csv
) >/dev/null
rm -rf "$SCDIR"
echo "scenario corpus all-pass and CSV byte-identical at --jobs 1 vs 4: OK"

echo "== flow-scale smoke (10k flows, --jobs byte-identity) =="
# The deterministic columns of flow_scale.csv (flows..digest, fields
# 1-9) must not depend on --jobs; the wall-clock/RSS columns vary by
# nature and are cut off before comparing. DUI_FLOW_SCALE_MAX truncates
# the sweep to its 10k row so the gate stays fast — the recorded
# results/flow_scale.csv always comes from the full 10k→1M sweep.
FSDIR="$(mktemp -d)"
(
  cd "$FSDIR"
  DUI_FLOW_SCALE_MAX=10000 "$EXP" flow-scale --jobs 1
  cut -d, -f1-9 results/flow_scale.csv > flow_scale.j1.cols
  DUI_FLOW_SCALE_MAX=10000 "$EXP" flow-scale --jobs 4
  cut -d, -f1-9 results/flow_scale.csv > flow_scale.j4.cols
  cmp flow_scale.j1.cols flow_scale.j4.cols
) >/dev/null
rm -rf "$FSDIR"
echo "flow-scale deterministic columns byte-identical at --jobs 1 vs 4: OK"

echo "== docs (intra-repo links) =="
bash scripts/check_docs.sh
echo "docs links: OK"

echo "verify: OK"
