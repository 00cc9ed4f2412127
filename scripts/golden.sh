#!/usr/bin/env bash
# Golden gate: regenerate every committed results file into a temp dir and
# byte-compare it with `results/`. A figure's name is its results stem, so
# the list of figures is `results/*.txt` itself. ~20 s in release.
#
#   scripts/golden.sh            compare (exit 1 on any difference)
#   scripts/golden.sh --update   overwrite results/ with the regenerated files
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
cargo build --release --offline -q -p ysmart-bench
bench=${CARGO_TARGET_DIR:-$root/target}/release/ysmart-bench

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for f in results/*.txt; do
  "$bench" "$(basename "$f" .txt)" --out "$tmp/results" > /dev/null
done

if [ "${1:-}" = "--update" ]; then
  cp "$tmp"/results/* results/
  echo "golden: results/ updated"
  exit 0
fi
status=0
for f in $(cd "$tmp" && ls results/*); do
  if ! cmp -s "$tmp/$f" "$f"; then
    echo "golden: $f differs from the committed file"
    diff "$f" "$tmp/$f" | head -20 || true
    status=1
  fi
done
[ $status -eq 0 ] && echo "golden: $(ls "$tmp/results" | wc -l) files byte-identical"
exit $status
