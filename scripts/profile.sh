#!/usr/bin/env bash
# Sampled CPU profile of one ledger workload (the box has no `perf`).
#
#   scripts/profile.sh <workload> [ledger flags]   e.g. scripts/profile.sh blink_packet
#
# Builds scripts/profile/shim.c (a SIGPROF + backtrace() sampler, 250 Hz
# of process CPU time) and the ledger with line tables (same release
# optimisation, so the same inlining) into $TMPDIR/dui-profile, from a
# copy of ledger/Cargo.toml, so nothing is written under ledger/. Runs
# the workload under LD_PRELOAD (default flags `--seed 21 --seconds 8`;
# any flags given replace them), resolves every frame with
# `addr2line -i`, which expands inlined frames, and prints the share of
# samples per source file and per function, inlined ones included.
# Those shares are inclusive: a sample counts for a row if any of its
# frames matches, so rows overlap. A last table gives each function's
# self share: the samples whose innermost frame it is. Frames outside
# the executable (libc, the loader) are not resolved; a sample
# interrupted in one counts as "(outside the executable)". Each table
# shows its top 25 rows. Needs gcc and addr2line.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
workload=${1:?usage: scripts/profile.sh <workload> [ledger flags]}
shift
flags=("$@")
[ ${#flags[@]} -gt 0 ] || flags=(--seed 21 --seconds 8)
top=25
work=${TMPDIR:-/tmp}/dui-profile
mkdir -p "$work/ledger"
# The copy's manifest directory must hold what the ledger reads beside
# its own (the dsc_corpus workload's `.dsc` files).
ln -sfn "$root/ledger/corpus" "$work/ledger/corpus"

gcc -O2 -shared -fPIC -o "$work/shim.so" "$root/scripts/profile/shim.c"
sed "s|path = \"\.\./|path = \"$root/|" "$root/ledger/Cargo.toml" > "$work/ledger/Cargo.toml"
printf '\n[[bin]]\nname = "ledger"\npath = "%s/ledger/src/main.rs"\n' "$root" >> "$work/ledger/Cargo.toml"
CARGO_PROFILE_RELEASE_DEBUG=1 CARGO_TARGET_DIR="$work/target" \
  cargo build --release --offline --quiet --manifest-path "$work/ledger/Cargo.toml"
bin=$work/target/release/ledger

# The shim writes profile.stacks into the working directory.
rm -f "$work/profile.stacks"
(cd "$work" && LD_PRELOAD=$work/shim.so "$bin" --workload "$workload" "${flags[@]}" > ledger.out)
grep -o '0x[0-9a-f]*' "$work/profile.stacks" | sort -u |
  addr2line -a -i -f -C -e "$bin" > "$work/resolved"

awk -v root="$root/" -v top="$top" '
  # addr2line -a: an address line, then (function, file:line) pairs,
  # innermost inlined frame first.
  FNR == NR {
    if ($0 ~ /^0x[0-9a-f]+$/) { addr = $0; sub(/^0x0*/, "", addr); level = 0; next }
    if (level % 2 == 0) {
      fn = $0; sub(/::h[0-9a-f]+$/, "", fn)
    } else {
      file = $0; sub(/:[0-9?]+( \(discriminator [0-9]+\))?$/, "", file)
      if (index(file, root) == 1) file = substr(file, length(root) + 1)
      sub(/^\/rustc\/[0-9a-f]+\//, "rustc:", file)
      k = levels[addr]++
      fns[addr, k] = fn; files[addr, k] = file
    }
    level++
    next
  }
  {
    samples++
    delete seen_fn; delete seen_file
    if ($1 == "-") by_self["(outside the executable)"]++
    for (i = 1; i <= NF; i++) {
      if ($i == "-") continue
      addr = $i; sub(/^0x0*/, "", addr)
      if (i == 1) by_self[fns[addr, 0]]++
      for (k = 0; k < levels[addr]; k++) {
        seen_fn[fns[addr, k]] = 1; seen_file[files[addr, k]] = 1
      }
    }
    for (f in seen_fn) by_fn[f]++
    for (f in seen_file) by_file[f]++
  }
  END {
    if (samples == 0) { print "no samples" > "/dev/stderr"; exit 1 }
    for (f in by_file) printf "file\t%.1f\t%s\n", 100 * by_file[f] / samples, f
    for (f in by_fn) printf "fn\t%.1f\t%s\n", 100 * by_fn[f] / samples, f
    for (f in by_self) printf "self\t%.1f\t%s\n", 100 * by_self[f] / samples, f
    printf "samples\t%d\n", samples
  }
 ' "$work/resolved" "$work/profile.stacks" > "$work/shares"

echo "# $workload ${flags[*]}: $(awk -F'\t' '$1 == "samples" { print $2 }' "$work/shares") samples"
for kind in file fn self; do
  case $kind in
    file) echo "## % of samples per source file" ;;
    fn) echo "## % of samples per function (inlined included)" ;;
    self) echo "## % of samples per innermost function (self)" ;;
  esac
  awk -F'\t' -v k="$kind" '$1 == k { printf "%6.1f  %s\n", $2, $3 }' "$work/shares" | sort -k1,1nr | awk -v n="$top" 'NR <= n'
done
