#!/usr/bin/env bash
# Full verification gate: formatting, lints, release build, and tests.
# (`just` is not available in the build image, so this is a plain script.)
#
# Every test binary runs once, in the single `cargo test --workspace`
# pass (the root facade's integration suites included). The knobs below
# are read by the tests themselves, so they apply to that pass.
#
# Simulation knobs (read by tests/simtest.rs):
#   SIMTEST_CASES=<n>  seeds to sweep in the simtest suites (default 25)
#   SIMTEST_SEED=<n>   replay exactly that seed instead of the sweep —
#                      this is the value a simtest failure report prints.
#
# Load-test knobs (read by tests/loadtest.rs):
#   LOADTEST_USERS=<n>  soak-test user population (default 10000)
#   LOADTEST_SEED=<n>   replay exactly that seed — the value a loadtest
#                       failure report prints as LOADTEST_SEED=<n>
#   LOADTEST_CASES=<n>  seeds swept per scenario shape (default 1)
#
# Perf-gate knobs (forwarded to the perf_gate, placement_throughput,
# loadtest, and footprint_ablation binaries):
#   BENCH_SKIP=1            skip the scheduler/placement/loadtest/ablation gates
#   BENCH_TOLERANCE_PCT=<n> regression threshold in percent (default 40)
#   BENCH_ABLATION_USERS=<n> ablation population per scenario (default 2000;
#                            changing it makes trajectories incomparable)
set -euo pipefail
cd "$(dirname "$0")/.."

# Append one line per bench-gate run to the committed BENCH_history.jsonl
# so the perf trajectory across commits is greppable without git
# archaeology: {"recorded_at":...,"gate":...,"trajectory":{<the file>}}.
record_bench_history() {
  local gate="$1" file="$2"
  printf '{"recorded_at":"%s","gate":"%s","trajectory":%s}\n' \
    "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$gate" "$(tr -d '\n' < "$file" | tr -s ' ')" \
    >> BENCH_history.jsonl
}

# A committed trajectory must carry the schema its gate writes — catches
# a stale or hand-mangled BENCH_*.json before the gates compare into it.
check_bench_schema() {
  local file="$1" schema="$2"
  if [[ -f "$file" ]] && ! grep -q "\"schema\": \"$schema\"" "$file"; then
    echo "verify: $file does not carry schema $schema" >&2
    exit 1
  fi
}

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace (every test binary, once)"
cargo test -q --workspace

echo "==> ops-server smoke (scrape + health over live HTTP)"
cargo run -q --release --example ops_server -- --check

# benchmark/ is its own workspace (see BENCHMARK.json), so the builds and
# tests above cannot see an API break against it. Build it, and let two
# short runs' in-run correctness checks decide the exit code: `trip` is
# the 2-GPU closed loop, `day_single_node` the 32-device open loop (lease
# drain, SLOs quiet, repeats bit-identical).
echo "==> benchmark crate builds against the workspace + short trip and day_single_node runs"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
for workload in trip day_single_node; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
done

echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> workflow throughput benchmark"
cargo run -q --release -p gyan-bench --bin workflow_throughput
test -s target/BENCH_workflow.json
record_bench_history workflow target/BENCH_workflow.json

if [[ "${BENCH_SKIP:-0}" == "1" ]]; then
  echo "==> scheduler perf gate: skipped (BENCH_SKIP=1)"
else
  echo "==> bench trajectory schema sanity"
  check_bench_schema BENCH_scheduler.json "gyan.bench.scheduler/v1"
  check_bench_schema BENCH_placement.json "gyan.bench.placement/v1"
  check_bench_schema BENCH_loadtest.json "gyan.bench.loadtest/v1"
  check_bench_schema BENCH_ablation.json "gyan.bench.ablation/v1"

  echo "==> scheduler perf gate (BENCH_scheduler.json, tolerance ${BENCH_TOLERANCE_PCT:-40}%)"
  # Prints the one-line vs-baseline delta summary itself; exits non-zero
  # on a regression past the tolerance, leaving the baseline untouched.
  cargo run -q --release -p gyan-bench --bin perf_gate
  test -s BENCH_scheduler.json
  record_bench_history scheduler BENCH_scheduler.json

  echo "==> fleet placement gate (BENCH_placement.json, tolerance ${BENCH_TOLERANCE_PCT:-40}%)"
  cargo run -q --release -p gyan-bench --bin placement_throughput
  test -s BENCH_placement.json
  record_bench_history placement BENCH_placement.json

  echo "==> load-harness gate (BENCH_loadtest.json, 10^5 users, tolerance ${BENCH_TOLERANCE_PCT:-40}%)"
  cargo run -q --release -p gyan-bench --bin loadtest
  test -s BENCH_loadtest.json
  record_bench_history loadtest BENCH_loadtest.json

  echo "==> memory-hint ablation gate (BENCH_ablation.json, tolerance ${BENCH_TOLERANCE_PCT:-40}%)"
  cargo run -q --release -p gyan-bench --bin footprint_ablation
  test -s BENCH_ablation.json
  record_bench_history ablation BENCH_ablation.json
fi

echo "verify: OK"
