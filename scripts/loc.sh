#!/usr/bin/env bash
# Library size, as the simplicity claims in CHANGES.md count it: the
# non-blank lines of every `.rs` file under `crates/*/src`, each file
# read up to its `mod tests` (unit tests do not count, nor does a
# `#[cfg(test)]` attribute line). Run from anywhere in the repository;
# prints one number.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /^mod tests/ { in_tests = 1 }
  in_tests || /^#\[cfg\(test\)\]$/ { next }
  NF { n += 1 }
  END { print n }
'
