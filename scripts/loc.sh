#!/usr/bin/env bash
# Code size: non-test, non-comment, non-blank Rust lines per path. A file
# counts up to its first `#[cfg(test)]` line; a directory is the sum over
# its `*.rs` files. Informational (CI "Code size" step), not a gate.
#
#   scripts/loc.sh [PATH…]       default: crates/*/src src
set -euo pipefail

cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates/*/src src

code_lines() {
  awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1" | grep -v '^\s*//' | grep -cv '^\s*$' || true
}

total=0
for path in "$@"; do
  [ -e "$path" ] || { echo "loc: no such path: $path" >&2; exit 2; }
  n=0
  while IFS= read -r f; do
    n=$((n + $(code_lines "$f")))
  done < <(find "$path" -name '*.rs' | sort)
  printf '%7d  %s\n' "$n" "$path"
  total=$((total + n))
done
[ $# -le 1 ] || printf '%7d  total\n' "$total"
