#!/usr/bin/env bash
# The benchmark ledger of the working tree: every BENCHMARK.json workload
# through `ledger run` at its defaults (seed 21, 3 untraced 10 s runs and
# one traced run per workload, each in a child process), written as a
# `dui-ledger/1` file.
#
#   scripts/bench.sh OUT.json [--against BASE.json]   e.g. scripts/bench.sh BENCH_51.json
#
# Builds the ledger in release mode into $TMPDIR/dui-ledger from a copy of
# ledger/Cargo.toml (its lock file and target directory live there too, and
# so do the traced runs' span files), so nothing is written under ledger/.
# `git_commit` in the file's provenance is the HEAD the working tree sits
# on: uncommitted changes are measured but not named, and the script says
# so when there are any. With `--against`, prints `ledger compare
# BASE.json OUT.json`: BASE is A, the new file B. Neither is a gate: wall
# time on a shared box is evidence, not a pass/fail property.
#
# The full run takes about 5 minutes (311 s measured) on the 2-core
# reference box; a cold build of the ledger adds about a minute. The
# box's noise floor, `ledger compare` of two back-to-back runs of one
# tree, is in CHANGES.md (search for "noise floor").
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
usage="usage: scripts/bench.sh OUT.json [--against BASE.json]"
out=${1:?$usage}
shift
against=
if [ $# -gt 0 ]; then
  [ $# -eq 2 ] && [ "$1" = --against ] || { echo "$usage" >&2; exit 2; }
  against=$(realpath "$2")
  [ -f "$against" ] || { echo "no such ledger file: $2" >&2; exit 2; }
fi
out=$(realpath -m "$out")
work=${TMPDIR:-/tmp}/dui-ledger
mkdir -p "$work/ledger"
# The copy's manifest directory must hold what the ledger reads beside
# its own (the dsc_corpus workload's `.dsc` files).
ln -sfn "$root/ledger/corpus" "$work/ledger/corpus"
sed "s|path = \"\.\./|path = \"$root/|" "$root/ledger/Cargo.toml" > "$work/ledger/Cargo.toml"
printf '\n[[bin]]\nname = "ledger"\npath = "%s/ledger/src/main.rs"\n' "$root" >> "$work/ledger/Cargo.toml"
CARGO_TARGET_DIR="$work/target" \
  cargo build --release --offline --quiet --manifest-path "$work/ledger/Cargo.toml"

if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
  echo "note: the tree has uncommitted changes on top of $(git -C "$root" rev-parse --short HEAD)," \
    "which git_commit names" >&2
fi
# The ledger asks git for HEAD from its manifest directory, which is the
# copy's; point git at the repository instead.
start=$SECONDS
GIT_DIR="$root/.git" "$work/target/release/ledger" run --out "$out"
echo "# wrote $out in $((SECONDS - start)) s"
if [ -n "$against" ]; then
  "$work/target/release/ledger" compare "$against" "$out"
fi
