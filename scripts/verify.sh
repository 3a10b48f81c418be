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
# Bench-gate knob (the only one; `gates` itself reads no environment):
#   BENCH_SKIP=1  skip the `gates` step (workflow, scheduler, placement,
#                 loadtest, ablation, paper). An intended perf or
#                 virtual-time move is accepted by hand, per gate, with
#                 `cargo run --release -p gyan-bench --bin gates <name> --accept`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace (every test binary, once)"
cargo test -q --workspace

# The per-job allocation count was the decisive number of PRs 19 and 21;
# read it from every run (release, as the ceilings were measured) instead
# of from a counting allocator patched into a scratch copy.
echo "==> allocation budget (tests/alloc_budget.rs, release)"
budget=$(cargo test --release -q --test alloc_budget -- --nocapture) || { echo "$budget"; exit 1; }
grep '^allocations:' <<<"$budget"

echo "==> ops-server smoke (scrape + health over live HTTP)"
cargo run -q --release --example ops_server -- --check

# benchmark/ is its own workspace (see BENCHMARK.json), so the builds and
# tests above cannot see an API break against it. Build it, and let four
# short runs' in-run correctness checks decide the exit code: `trip` is
# the 2-GPU closed loop, `day_single_node` the 32-device open loop (lease
# drain, SLOs quiet, repeats bit-identical), `day_fleet` fleet placement,
# `retry_storm` the resubmission ladder.
# --locked: cargo silently rewrites benchmark/Cargo.lock when a crate in its
# closure changes a dependency list; fail here instead of dirtying a
# directory that only `benchmark` PRs may touch.
echo "==> benchmark crate builds against the workspace + short trip, day_single_node, day_fleet and retry_storm runs"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
for workload in trip day_single_node day_fleet retry_storm; do
  cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
done

echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

if [[ "${BENCH_SKIP:-0}" == "1" ]]; then
  echo "==> bench gates: skipped (BENCH_SKIP=1)"
else
  # One binary, six gates. Each compares against the median of its last
  # five BENCH_history.jsonl entries — wall metrics by their own committed
  # bound, virtual-time metrics exactly — prints the one-line delta
  # summary, and on a pass rewrites BENCH_<gate>.json and appends the
  # history line itself; on a failure it exits non-zero and writes nothing.
  # The sixth, `paper` (~90 s of the ~2.5 min), re-runs the paper's
  # evaluation and also fails when a claim leaves its band of the paper's
  # value or EXPERIMENTS.md's scorecard tables differ from what it rendered.
  echo "==> bench gates (BENCH_{scheduler,placement,loadtest,ablation,paper}.json + workflow)"
  cargo run -q --release -p gyan-bench --bin gates
fi

echo "verify: OK"
