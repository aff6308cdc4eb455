#!/usr/bin/env bash
# Offline verification gate: everything must pass with zero registry or
# network access. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# same_bytes FIRST SECOND FILE...
#   The determinism contract, as a gate: run FIRST, then SECOND, in a
#   fresh temporary directory, and require every FILE the first run left
#   behind to come out of the second run byte-identical. Any failing
#   command fails the gate.
same_bytes() {
  local first="$1" second="$2" kept f
  shift 2
  local files=("$@")
  kept="$(mktemp -d)"
  trap "rm -rf '$kept'" EXIT # a failing run exits the script from inside
  mkdir "$kept/run"
  (
    cd "$kept/run"
    eval "$first"
    for f in "${files[@]}"; do mv "$f" "$kept/$(basename "$f")"; done
    eval "$second"
    for f in "${files[@]}"; do cmp "$kept/$(basename "$f")" "$f"; done
  ) >/dev/null
  rm -rf "$kept"
}

echo "== lint gate (rustc + clippy, every target, warnings are errors; rustfmt) =="
# No wall clock or ambient randomness outside dui-bench, no raw byte
# decoding outside dui_stats::wire, no bare unwrap on library paths, and
# the rest of docs/lint.md's table, declared in [workspace.lints],
# clippy.toml and the library roots. The only escape is an
# #[expect(…, reason = "…")] that still suppresses something. The
# workspace is also rustfmt-clean, so a diff carries no reformatting.
cargo clippy -q --offline --workspace --all-targets -- -D warnings
cargo fmt --all -- --check

echo "== build (release, offline) =="
# The root build leaves the experiments binary the gates below run as it
# was; build it by package.
cargo build --release --offline
cargo build --release --offline -p dui-bench --bin experiments

echo "== timer-wheel suites at depth (2000 propcheck cases; seconds) =="
# Every engine run's event order rests on the wheel popping exactly what
# a binary heap would; the workspace run below tries the default case
# count, this one looks harder first.
PROPCHECK_CASES=2000 cargo test -q --offline -p dui-netsim --test properties wheel

echo "== Blink selector differential and fast-sim checkpoints at depth (2000 propcheck cases; seconds) =="
# The selector skips its cell scans on two derived summaries; the suite
# holds it, op by op, to the scan-every-packet selector it replaced
# (`ScanSelector` in the test file), which is what Fig. 2 and every
# packet-level Blink digest rest on. Both packet entry points are held to
# that model: `on_packet`, which hashes the key, and `on_packet_in_cell`,
# which takes the cell a caller kept (fastsim, the fuzzer). The
# `checkpoint` property holds the fast simulation's decoder to its runs:
# every run round-trips byte for byte and steps on alike, and every
# reordering of its schedule is refused.
PROPCHECK_CASES=2000 cargo test -q --offline -p dui-blink --test properties -- selector checkpoint

echo "== flow pool suites at depth (2000 propcheck cases; about a second) =="
# Every TCP flow lives in `FlowPool`: slots and the sender and receiver
# row tables recycle independently, so random mixed-kind insert/free
# interleavings must leave every live handle the state it would have
# alone, stale handles refused, the checkpoint codec digest-exact, and
# the RFC 9293 lifecycle on its edges.
PROPCHECK_CASES=2000 cargo test -q --offline -p dui-tcp --test properties

echo "== digest oracle at depth (2000 propcheck cases; under a second) =="
# Every golden and replay check trusts that equal digests mean equal
# state: for each component whose digest is its checkpoint encoder, two
# states built from permuted operation sequences must digest equal
# exactly when their checkpoint bytes are equal, and two engines carrying
# the PCC equalizer tap and a traceroute prober (which have no bytes)
# whose state hashes agree must agree after the same further run.
PROPCHECK_CASES=2000 cargo test -q --offline -p dui-replay --test oracle

echo "== state digest suite at depth (2000 propcheck cases; under a second) =="
# Every recording, golden and checkpoint hash is a `StateDigest`: its
# fold must change the digest whenever any one written word changes,
# its compile-time label seeds must equal the labels' runtime digests,
# sequential inputs must come out collision-free and bit-balanced, and
# one flipped input bit must flip about half the digest.
PROPCHECK_CASES=2000 cargo test -q --offline -p dui-stats --test digest

echo "== SPSC channel wake discipline at depth (2000 propcheck cases; ~35 s) =="
# The supervisord transport wakes only a waiting peer, and a blocked
# sender only at half a queue: a mistake there is a lost wakeup, i.e. a
# hang. Every case sits behind a 20 s watchdog and the run under
# `timeout`, so a deadlock fails the gate instead of hanging it.
PROPCHECK_CASES=2000 timeout 300 cargo test -q --offline -p dui-telemetry --test channel

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
# *logical* state hashes these files pin. They move only with a
# declared change of what a digest covers, made together with a `.duir`
# version bump (docs/determinism.md, "Re-blesses").
if [ -n "${GOLDEN_BLESS:-}" ]; then
  echo "refusing to verify with GOLDEN_BLESS set" >&2
  exit 1
fi
cargo test -q --offline --test golden_traces
git diff --exit-code -- tests/golden
echo "golden fixtures byte-identical to HEAD: OK"

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== microbench smoke (layers the ledger does not time) =="
# The groups left in the suite: the Blink failure check, the two
# models' mean takeover times, the PCC controller, the Pytheas bandit,
# the NetHide solver, SP-PIFO, FlowRadar, the histogram quantile and the
# engine checkpoint codec. Every other layer is a ledger metric.
cargo bench --offline -p dui-bench --bench microbench -- --quick >/dev/null

EXP="$PWD/target/release/experiments"
CORPUS="$PWD/examples/scenarios"

echo "== record/replay gate (dui-replay) =="
# Record a run and replay it with full hash checking; then resume it from
# the midpoint checkpoint and demand the resumed run's CSV is
# byte-identical to the uninterrupted one; then the same record+check for
# the two hash-only packet-level recordings, Blink and PCC.
same_bytes \
  "'$EXP' record fig2-small && '$EXP' replay results/fig2-small.duir" \
  "'$EXP' replay results/fig2-small.duir --resume mid &&
   mv results/fig2-small_resumed.csv results/fig2-small_recorded.csv &&
   '$EXP' record blink-packet-small && '$EXP' replay results/blink-packet-small.duir &&
   '$EXP' record pcc-small && '$EXP' replay results/pcc-small.duir" \
  results/fig2-small_recorded.csv
echo "record/replay gate, resume CSV byte-identical: OK"

echo "== determinism contract, every stage (experiments verify-determinism) =="
# Every row of the stage table (docs/operations.md), at full size: run
# twice, then at --jobs 4 vs 1 if the row reads --jobs, comparing every
# byte of its CSVs and artifacts, the metrics JSONL line and the
# report. `timeout` is a plain hang guard: a stage that
# stops making progress fails the gate instead of stalling it.
timeout 900 "$EXP" verify-determinism

echo "== scenario corpus (experiments scenario, --jobs byte-identity) =="
# Every shipped .dsc must parse, compile, and pass its expectations —
# a file that fails to parse exits the runner with status 2 and fails
# the gate — and the verdict CSV must not depend on --jobs.
same_bytes "'$EXP' scenario '$CORPUS' --jobs 4" "'$EXP' scenario '$CORPUS' --jobs 1" \
  results/scenarios.csv
echo "scenario corpus all-pass and CSV byte-identical at --jobs 1 vs 4: OK"

echo "== paper runs (experiments scenario examples/scenarios/paper; ~5 s) =="
# The paper's own C4 and C6 configurations, which the blink-packet, pcc
# and defenses stages are built from, run to a verdict against the
# paper's claims. Too slow for tier-1, which only parses and compiles
# them. A failed expectation exits 1 and fails the gate.
paper_runs="$(mktemp -d)"
(cd "$paper_runs" && "$EXP" scenario "$CORPUS/paper") >/dev/null
rm -rf "$paper_runs"
echo "paper runs all-pass: OK"

echo "== docs (intra-repo links) =="
bash scripts/check_docs.sh
echo "docs links: OK"

echo "== library size (non-blank, non-test lines of crates/*/src) =="
# The count the simplicity claims in CHANGES.md are made in.
bash scripts/loc.sh

echo "verify: OK"
