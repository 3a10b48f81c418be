#!/usr/bin/env bash
# Noise study: run N full sets of the benchmark (every workload, untraced)
# and print, per workload x end-to-end metric, the median, the quartile
# spread (Q3-Q1 as a share of the median — what BENCHMARK.json's bounds are
# derived from) and the largest relative deviation from the median.
#
#   benchmark/noise.sh [-n SETS] [-b BASE_SEED] [-v]
#
#   -n  sets to run (default 10)
#   -b  seed of the first set (default 1)
#   -v  vary the seed: set k runs with seed BASE_SEED+k-1, as the driver's
#       acceptance runs do (default: every set uses BASE_SEED, which shows
#       machine noise alone — virtual-time metrics then repeat exactly)
#
# Every run gets `--seconds <run_seconds of BENCHMARK.json> --trace 0`.
# Run from anywhere inside the repository; needs only bash, cargo, sort, awk.
set -euo pipefail

sets=10 base=1 vary=0
while getopts "n:b:v" opt; do
  case "$opt" in
    n) sets=$OPTARG ;; b) base=$OPTARG ;; v) vary=1 ;;
    *) sed -n '2,16p' "$0"; exit 2 ;;
  esac
done

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
seconds=$(awk -F'[:,]' '/"run_seconds"/ {gsub(/ /, "", $2); print $2}' BENCHMARK.json)
workloads=$(awk -F'"' '/"name"/ && /"why"/ {print $4}' BENCHMARK.json)

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/gyan-benchmark"

samples=$(mktemp)
trap 'rm -f "$samples"' EXIT
for ((k = 1; k <= sets; k++)); do
  seed=$base
  [ "$vary" = 1 ] && seed=$((base + k - 1))
  for w in $workloads; do
    echo "set $k/$sets: $w seed $seed" >&2
    # The human-readable result lines are "<metric> <value> <unit>".
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
      awk -v w="$w" 'NF == 3 && $1 ~ /^[a-z0-9_.]+$/ && $2 ~ /^-?[0-9.]+(e-?[0-9]+)?$/ {print w, $1, $2}' \
        >>"$samples"
  done
done

printf '%-16s %-28s %16s %10s %10s %4s\n' workload metric median iqr/med maxdev/med n
sort -k1,1 -k2,2 -k3,3g "$samples" | awk '
  function flush(   n, med, q1, q3, dev, i, d) {
    n = cnt; if (n == 0) return
    med = (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
    # Quartiles as Python statistics.quantiles(values, n=4) gives them
    # (exclusive method): position k*(n+1)/4, linearly interpolated.
    q1 = quart(0.25 * (n + 1)); q3 = quart(0.75 * (n + 1))
    dev = 0
    for (i = 1; i <= n; i++) { d = v[i] - med; if (d < 0) d = -d; if (d > dev) dev = d }
    if (med != 0) printf "%-16s %-28s %16.6f %9.2f%% %9.2f%% %4d\n", w, m, med, 100 * (q3 - q1) / med, 100 * dev / med, n
    else printf "%-16s %-28s %16.6f %10s %10s %4d\n", w, m, med, "-", "-", n
  }
  function quart(pos,   lo, frac) {
    if (pos < 1) pos = 1; if (pos > cnt) pos = cnt
    lo = int(pos); frac = pos - lo
    return (lo >= cnt) ? v[cnt] : v[lo] + frac * (v[lo + 1] - v[lo])
  }
  { key = $1 " " $2
    if (key != last) { flush(); cnt = 0; last = key; w = $1; m = $2 }
    v[++cnt] = $3 }
  END { flush() }'
