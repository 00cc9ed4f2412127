#!/usr/bin/env bash
# A/B two built `ysmart-perfbench` binaries on one workload, the way
# choosing-metrics §8 asks: PAIRS parent/change pairs of SECONDS each,
# alternating which side runs first, every run listed, then per end-to-end
# metric each side's median and quartiles, the change's wins and a verdict.
#
#   scripts/ab.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED SECONDS PAIRS [ANCHOR_DIR]
#
# WORKLOAD is one benchmark workload, a comma list of them, or `all` (the
# five `BENCHMARK.json` declares) — one block of output per workload, so the
# no-regression half of a perf PR is one invocation.
#
# A DIR is where a side's binary was built: a cargo target dir
# (DIR/release/ysmart-perfbench), a checkout (DIR/perfbench/target/release/…)
# or the directory holding the binary itself. Build both sides first, e.g.
#
#   CARGO_TARGET_DIR=/tmp/parent-target cargo build --release \
#       --offline --manifest-path /tmp/parent/perfbench/Cargo.toml
#
# Nothing is built, written or cleaned here; runs are sequential (one busy
# core at a time), so a 10-pair A/B at the benchmark's 25 s takes ~10 min.
#
# Each metric block ends with a verdict line: whether §8's claim rule is met
# (the change is better in at least 9 of 10 pairs, and its median beats the
# parent's by more than the parent's quartile spread), and REGRESSION when
# the change's median is worse than the parent's by more than the metric's
# `bound` in BENCHMARK.json (both read from there, with each metric's
# direction).
#
# With ANCHOR_DIR — an older commit's build, to watch for drift that a chain
# of parent/change comparisons, each within its bound, never flags — every
# pair also runs the anchor, the three sides taking turns to run first, and
# each metric block adds the anchor's median and quartiles, the
# change/anchor ratio of the medians, and DRIFT when the change's median is
# worse than the anchor's by more than a tenth of the metric's bound.
set -euo pipefail

if [ "$#" -ne 6 ] && [ "$#" -ne 7 ]; then
    sed -n '2,35p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
workloads=$3 seed=$4 seconds=$5 pairs=$6
if [ "$workloads" = all ]; then
    workloads=dss_merged,dss_chained,translate,serve_hot,serve_cold
fi

binary() {
    local candidate
    for candidate in "$1/ysmart-perfbench" "$1/release/ysmart-perfbench" \
        "$1/perfbench/target/release/ysmart-perfbench"; do
        if [ -x "$candidate" ]; then
            echo "$candidate"
            return
        fi
    done
    echo "ab.sh: no ysmart-perfbench under $1" >&2
    exit 2
}
declare -A bins
bins[parent]=$(binary "$1")
bins[change]=$(binary "$2")
sides=(parent change)
if [ "$#" -eq 7 ]; then
    bins[anchor]=$(binary "$7")
    sides+=(anchor)
fi

# "<metric> <better> <bound>;" per end-to-end metric (only those carry a
# bound), in BENCHMARK.json's order.
rules=$(grep -o '"name": "[a-z_0-9]*", "unit": "[^"]*", "better": "[a-z]*", "bound": [0-9.]*' \
    "$(dirname "$0")/../BENCHMARK.json" |
    sed 's/"name": "\([^"]*\)".*"better": "\([a-z]*\)", "bound": \([0-9.]*\)/\1 \2 \3/' |
    tr '\n' ';')
metrics=$(echo "$rules" | tr ';' '\n' | cut -d' ' -f1 | tr '\n' ' ')

# One run: prints "<side> <pair> <metric> <value>" per end-to-end metric.
run() {
    local side=$1 bin=$2 pair=$3
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" 2>/dev/null |
        awk -v side="$side" -v pair="$pair" -v w="$workload" -v want=" $metrics " \
            '$1 == w && index(want, " " $2 " ") { print side, pair, $2, $3 }'
}

for workload in ${workloads//,/ }; do
    echo "# $workload seed $seed, $seconds s, $pairs pairs;$(for side in "${sides[@]}"; do
        printf ' %s %s;' "$side" "${bins[$side]}"
    done)"
    # Pair p runs the sides in turn from side (p - 1) mod n.
    for pair in $(seq 1 "$pairs"); do
        for k in "${!sides[@]}"; do
            side=${sides[$(((pair - 1 + k) % ${#sides[@]}))]}
            run "$side" "${bins[$side]}" "$pair"
        done
    done | awk -v rules="$rules" -v pairs="$pairs" -v sides="${sides[*]}" '
        { v[$1, $2, $3] = $4 }
        # Quantile q of n sorted values a[1..n], linear interpolation.
        function quantile(a, n, q,    h, lo) {
            h = (n - 1) * q + 1; lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        function summary(side, m,    a, n, i, j, t) {
            n = 0
            for (i = 1; i <= pairs; i++) if ((side, i, m) in v) a[++n] = v[side, i, m] + 0
            for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
                t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
            }
            med[side] = quantile(a, n, 0.5)
            q1[side] = quantile(a, n, 0.25); q3[side] = quantile(a, n, 0.75)
            return sprintf("%.4g [%.4g, %.4g]", med[side], q1[side], q3[side])
        }
        END {
            nsides = split(sides, side, " ")
            anchored = nsides == 3
            nm = split(rules, rule, ";")
            for (k = 1; k <= nm; k++) {
                if (split(rule[k], f, " ") < 3) continue
                m = f[1]; higher = f[2] == "higher"; bound = f[3] + 0
                printf "\n%s (pair: parent -> change)\n", m
                wins = ties = 0
                for (i = 1; i <= pairs; i++) {
                    p = v["parent", i, m]; c = v["change", i, m]
                    first = side[(i - 1) % nsides + 1]
                    printf "  %2d: %s -> %s%s%s\n", i, p, c,
                        anchored ? sprintf("  (anchor %s)", v["anchor", i, m]) : "",
                        first == "parent" ? "" : "  (" first " ran first)"
                    better = higher ? (c + 0 > p + 0) : (c + 0 < p + 0)
                    if (c + 0 == p + 0) ties++; else if (better) wins++
                }
                ps = summary("parent", m); cs = summary("change", m)
                printf "  parent median [q1, q3]: %s\n  change median [q1, q3]: %s\n", ps, cs
                if (med["parent"] != 0)
                    printf "  median change: %+.1f %%\n", (med["change"] / med["parent"] - 1) * 100
                printf "  change better in %d of %d pairs, %d ties\n", wins, pairs, ties
                # The gap is positive when the change is better.
                gap = higher ? med["change"] - med["parent"] : med["parent"] - med["change"]
                spread = q3["parent"] - q1["parent"]
                met = wins * 10 >= pairs * 9 && gap > spread
                printf "  verdict: claim rule %s (better in %d of %d pairs, need 9/10; median gap %.4g vs parent spread %.4g)",
                    met ? "met" : "not met", wins, pairs, gap, spread
                worse = med["parent"] != 0 ? -gap / med["parent"] : 0
                if (worse > bound)
                    printf "; REGRESSION: median %.1f %% worse, bound %.1f %%\n", worse * 100, bound * 100
                else
                    printf "; within the %.1f %% bound\n", bound * 100
                if (!anchored) continue
                printf "  anchor median [q1, q3]: %s\n", summary("anchor", m)
                ratio = med["anchor"] != 0 ? med["change"] / med["anchor"] : 0
                # Positive when the change is worse than the anchor.
                drift = higher ? med["anchor"] - med["change"] : med["change"] - med["anchor"]
                drift = med["anchor"] != 0 ? drift / med["anchor"] : 0
                printf "  change/anchor: %.4g", ratio
                if (drift > bound / 10)
                    printf "; DRIFT: median %.1f %% worse than the anchor, past a tenth of the %.1f %% bound\n",
                        drift * 100, bound * 100
                else
                    printf "; within a tenth of the %.1f %% bound of the anchor\n", bound * 100
            }
        }'
    echo
done
