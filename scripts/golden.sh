#!/usr/bin/env bash
# Golden gate: regenerate every deterministic results file into a temp dir
# and byte-compare it with the committed `results/`. `reuse.*` is excluded
# because it prints wall-clock milliseconds. ~30 s in release.
#
#   scripts/golden.sh            compare (exit 1 on any difference)
#   scripts/golden.sh --update   overwrite results/ with the regenerated files
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
cargo build --release --offline -q -p ysmart-bench --bins
bin=${CARGO_TARGET_DIR:-$root/target}/release

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/results"
cd "$tmp"
# Figures that print their table to stdout.
for f in jobcounts fig2 fig9 fig10 fig11 fig12 fig13 ablations; do
  "$bin/$f" > "results/$f.txt"
done
# Sweeps that write `results/<name>.{txt,json}` relative to the cwd.
for f in fig_faults fig_corruption fig_workload fig_recovery; do
  "$bin/$f" > /dev/null
done

if [ "${1:-}" = "--update" ]; then
  cp results/* "$root/results/"
  echo "golden: results/ updated"
  exit 0
fi
status=0
for f in results/*; do
  if ! cmp -s "$f" "$root/$f"; then
    echo "golden: $f differs from the committed file"
    diff "$root/$f" "$f" | head -20 || true
    status=1
  fi
done
[ $status -eq 0 ] && echo "golden: $(ls results | wc -l) files byte-identical"
exit $status
