#!/usr/bin/env bash
# Alternated-pairs A/B of the canonical benchmark: the work tree against a
# base revision, on one workload.
#
#   scripts/ab.sh <base-rev> <workload> [pairs]     (pairs: default 10)
#
# The base is checked out (detached) in a git worktree at target/ab-base,
# which stays for the next run (`git worktree remove target/ab-base` drops
# it). Each side runs BENCHMARK.json's `command` from its own tree (so each
# builds into its own benchmark/target) with `--workload <w> --seed 1
# --seconds <run_seconds> --trace 0`; odd pairs run the base first, even
# pairs the change. Printed: every pair's end-to-end metrics, then per
# metric the two medians, the base's interquartile range, the change's
# wins (by the metric's `better`) and whether the median moved by more
# than the base's IQR. Needs bash, git, cargo and awk.
set -euo pipefail

if (( $# < 2 || $# > 3 )); then sed -n '2,15p' "$0"; exit 2; fi
base_rev=$1 workload=$2 pairs=${3:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
sha=$(git rev-parse -q --verify "$base_rev^{commit}") || { echo "ab.sh: unknown revision $base_rev" >&2; exit 2; }
grep -q "\"name\": \"$workload\"" BENCHMARK.json || { echo "ab.sh: no workload $workload in BENCHMARK.json" >&2; exit 2; }

# BENCHMARK.json: the command (one JSON string array on one line), the run
# length, and the end-to-end metrics (the entries with a bound) with their
# better direction.
read -r -a command < <(sed -n 's/.*"command": *\[\(.*\)\].*/\1/p' BENCHMARK.json | tr -d '",')
seconds=$(awk -F'[:,]' '/"run_seconds"/ {gsub(/ /, "", $2); print $2}' BENCHMARK.json)
metrics=$(awk -F'"' '/"bound"/ {print $4, $12}' BENCHMARK.json)

# Each tree builds into its own benchmark/target.
unset CARGO_TARGET_DIR
worktree=$root/target/ab-base
if [ -d "$worktree" ]; then
  git -C "$worktree" checkout -q --detach "$sha"
else
  mkdir -p "$root/target"
  git worktree add -q --detach "$worktree" "$sha"
fi

samples=$(mktemp)
trap 'rm -f "$samples"' EXIT

# run <side> <tree> <pair>: one run, its metrics appended as "<pair> <side> <metric> <value>".
run() {
  local line
  line=$(cd "$2" && "${command[@]}" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 | tail -n 1)
  for m in $(echo "$metrics" | awk '{print $1}'); do
    echo "$line" | awk -v m="$m" -v side="$1" -v pair="$3" '{
      key = "\"" m "\": {\"value\": "; i = index($0, key)
      if (i) { rest = substr($0, i + length(key)); sub(/[,}].*/, "", rest); print pair, side, m, rest } }'
  done >> "$samples"
}

echo "ab: building $base_rev ($sha) and the work tree" >&2
for tree in "$worktree" "$root"; do
  (cd "$tree" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done
for ((p = 1; p <= pairs; p++)); do
  if (( p % 2 )); then order="base change"; else order="change base"; fi
  for side in $order; do
    if [ "$side" = base ]; then tree=$worktree; else tree=$root; fi
    echo "ab: pair $p/$pairs $side" >&2
    run "$side" "$tree" "$p"
  done
done

# Per pair, then the summary. Quartiles interpolate linearly between the
# sorted runs.
AB_METRICS=$metrics awk -v workload="$workload" '
  function q(v, n, f,   x, i) { x = (n - 1) * f; i = int(x); return v[i] + (x - i) * (v[i + 1] - v[i]) }
  function sorted(src, n, dst,   i, j, t) {
    for (i = 0; i < n; i++) dst[i] = src[i]
    for (i = 1; i < n; i++) for (j = i; j > 0 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
  }
  BEGIN { n = split(ENVIRON["AB_METRICS"], m, "\n"); for (i = 1; i <= n; i++) { split(m[i], f, " "); better[f[1]] = f[2]; order[i] = f[1] } }
  { v[$3, $2, $1] = $4; pairs = ($1 > pairs ? $1 : pairs) }
  END {
    printf "%s: %d pairs (base | change)\n", workload, pairs
    for (i = 1; i <= n; i++) {
      name = order[i]; line = sprintf("%-18s", name)
      for (p = 1; p <= pairs; p++) line = line sprintf("  %s | %s", v[name, "base", p], v[name, "change", p])
      print line
    }
    printf "\n%-18s %14s %14s %8s %12s %6s %s\n", "metric", "base median", "change median", "delta", "base IQR", "wins", "beyond IQR"
    for (i = 1; i <= n; i++) {
      name = order[i]; wins = 0
      for (p = 1; p <= pairs; p++) {
        b[p - 1] = v[name, "base", p]; c[p - 1] = v[name, "change", p]
        if (better[name] == "higher" ? c[p - 1] > b[p - 1] : c[p - 1] < b[p - 1]) wins++
      }
      sorted(b, pairs, bs); sorted(c, pairs, cs)
      mb = q(bs, pairs, 0.5); mc = q(cs, pairs, 0.5); iqr = q(bs, pairs, 0.75) - q(bs, pairs, 0.25)
      delta = mb == 0 ? 0 : 100 * (mc - mb) / mb
      beyond = (mc - mb > iqr || mb - mc > iqr) ? "yes" : "no"
      printf "%-18s %14.6g %14.6g %+7.1f%% %12.4g %3d/%-2d %s\n", name, mb, mc, delta, iqr, wins, pairs, beyond
    }
  }' "$samples"
