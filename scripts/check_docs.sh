#!/usr/bin/env bash
# Intra-repo markdown link checker: every relative link target in the
# top-level docs and the docs/ book must exist in the work tree, and so
# must every `*.md` path a rustdoc comment spells. External URLs and
# in-page #anchors are out of scope (offline gate); what this catches is
# the classic drift failure — a chapter renamed or a script deleted while
# README, or a crate's `//!` header, still points at it.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
# shellcheck disable=SC2044 # paths are repo-controlled, no spaces
for md in *.md $(find docs -name '*.md' 2>/dev/null | sort); do
  [ -f "$md" ] || continue
  dir=$(dirname "$md")
  # Inline links: [text](target). Reference-style links are not used in
  # this repo; the grep below would simply not match them.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path=${target%%#*}        # strip #anchor
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "$md: broken link -> $target" >&2
      fail=1
    fi
  done < <(grep -o '\](\([^)]*\))' "$md" 2>/dev/null | sed 's/^](//; s/)$//' || true)
done

# Rustdoc pointers: a `*.md` path in a `//!` / `///` comment under
# crates/, src/ or tests/ is read as repo-relative.
while IFS=: read -r rs line text; do
  for path in $(grep -oE '[A-Za-z0-9_./-]+\.md\b' <<<"$text"); do
    if [ ! -e "$path" ]; then
      echo "$rs:$line: rustdoc names a missing file -> $path" >&2
      fail=1
    fi
  done
done < <(grep -rnE --include='*.rs' '^[[:space:]]*//[/!].*\.md\b' crates src tests || true)

if [ "$fail" -ne 0 ]; then
  echo "check_docs: broken intra-repo links found" >&2
  exit 1
fi
echo "check_docs: all intra-repo links resolve"
