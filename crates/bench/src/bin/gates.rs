//! The `verify.sh` bench gates: four measurement bodies over the one
//! mechanism in [`gyan_bench::gate`].
//!
//! `gates` runs all four; `gates <name>` one of `scheduler`, `loadtest`,
//! `ablation`, `paper`. Each records a trajectory (`BENCH_<name>.json` at
//! the repo root) on a pass, and exits 1 on a failed comparison leaving
//! it untouched. `--accept` records the run despite the comparison (an
//! intended move); the absolute checks — SLOs quiet, cross-arm
//! acceptance, profile attribution, the paper claims' bands and
//! EXPERIMENTS.md's scorecard rows — are not overridable. Run from the
//! repo root. The `paper` gate's body is [`gyan_bench::paper::run`].

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{DagStep, DagWorkflow, QueueConfig, QueueEngine, WaveTimeCharging};
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::{GpuCluster, VirtualClock};
use gyan::allocation::AllocationPolicy;
use gyan::footprint::MemoryHint;
use gyan::reservations::LeaseTable;
use gyan::setup::ClusterTime;
use gyan_bench::gate::{run_gate, Gate, Metric, Run};
use loadgen::{run_scenario, LoadOptions, LoadScenario, DEFAULT_SLO_RULES};
use seqtools::ToolExecutor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls to `alloc`, `alloc_zeroed` and `realloc` since process start:
/// what the loadtest gate reports per job. Heap traffic decided the
/// per-job cost once (ISSUE 19), and unlike wall time the count repeats
/// exactly, so the committed file shows it to the allocation.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; all three are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const GATES: [Gate; 4] = [
    Gate { name: "scheduler", file: "BENCH_scheduler.json", run: scheduler },
    Gate { name: "loadtest", file: "BENCH_loadtest.json", run: loadtest },
    Gate { name: "ablation", file: "BENCH_ablation.json", run: ablation },
    Gate { name: "paper", file: "BENCH_paper.json", run: gyan_bench::paper::run },
];

// ---------------------------------------------------------------------
// scheduler: queue drains and DAG makespans on one engine, plus the
// allocation profile
// ---------------------------------------------------------------------

/// Virtual cost charged per tool by the wave-time model.
const STEP_COSTS: &[(&str, f64)] =
    &[("prep", 10.0), ("polish", 20.0), ("basecall", 30.0), ("join", 5.0), ("unit", 1.0)];

fn cost_of(tool_id: &str) -> f64 {
    STEP_COSTS.iter().find(|(id, _)| *id == tool_id).map(|(_, c)| *c).unwrap_or(0.0)
}

/// A queue engine over echo tools on a CPU-only node whose only time
/// cost is the duration model — so the makespans and waits below are
/// exact properties of the scheduler.
fn engine(clock: VirtualClock, workers: u32) -> QueueEngine {
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    app.register_rule(
        "gpu_dynamic_destination",
        Box::new(|_tool, _job, _conf| Ok("local_cpu".into())),
    );
    let lib = MacroLibrary::new();
    for (id, _) in STEP_COSTS {
        let xml = format!(
            r#"<tool id="{id}"><command>echo {id}</command>
               <outputs><data name="out" format="txt"/></outputs></tool>"#
        );
        app.install_tool_xml(&xml, &lib).unwrap();
    }
    app.set_time_source(Box::new(ClusterTime::new(clock.clone())));
    let recorder_clock = clock.clone();
    app.recorder().set_clock(move || recorder_clock.now());
    let config = QueueConfig {
        workers,
        capacity: 4096,
        time_charging: Some(WaveTimeCharging {
            clock: Box::new(ClusterTime::new(clock)),
            model: Box::new(|plan: &galaxy::runners::ExecutionPlan| cost_of(&plan.tool_id)),
        }),
        ..QueueConfig::default()
    };
    let executor = Arc::new(ToolExecutor::new(&GpuCluster::cpu_only_node()));
    QueueEngine::new(app, executor, config)
}

/// Submit `jobs` one-second jobs round-robin from `users` users and
/// drain them in waves `workers` wide.
fn drain(clock: VirtualClock, jobs: usize, users: usize, workers: u32) -> QueueEngine {
    let mut eng = engine(clock, workers);
    for i in 0..jobs {
        let user = format!("user{}", i % users);
        eng.submit_async(&user, "unit", &ParamDict::new()).unwrap();
    }
    eng.run_until_idle();
    eng
}

fn diamond() -> DagWorkflow {
    DagWorkflow::new("diamond")
        .step(DagStep::new("prep"))
        .step(DagStep::new("polish").after(0))
        .step(DagStep::new("basecall").after(0))
        .step(DagStep::new("join").after(1).after(2))
}

fn chain() -> DagWorkflow {
    DagWorkflow::new("chain")
        .step(DagStep::new("prep"))
        .step(DagStep::new("polish").after(0))
        .step(DagStep::new("basecall").after(1))
        .step(DagStep::new("join").after(2))
}

fn run_dag(dag: DagWorkflow) -> f64 {
    let mut eng = engine(VirtualClock::new(), 4);
    let wf = eng.submit_dag("bench", dag).unwrap();
    eng.run_until_idle();
    let report = eng.workflow_report(wf).unwrap();
    assert!(report.ok(), "benchmark workflow failed: {:?}", report.failed_step);
    report.makespan
}

/// DAG fan-out vs chain makespan, and drain time per worker count.
fn workflow_rows() -> Result<Vec<Metric>, String> {
    let parallel = run_dag(diamond());
    let sequential = run_dag(chain());
    println!("\nDAG makespan (virtual seconds, 4 workers):");
    println!("  diamond (fan-out):  {parallel:>6.1}s  = prep + max(polish, basecall) + join");
    println!("  chain (sequential): {sequential:>6.1}s  = prep + polish + basecall + join");
    println!("  speedup:            {:>6.2}x", sequential / parallel);
    if parallel >= sequential {
        return Err("fan-out must beat the chain".to_string());
    }
    let mut metrics = vec![
        Metric::exact("dag_makespan_s", parallel),
        Metric::exact("sequential_makespan_s", sequential),
    ];

    const JOBS: usize = 64;
    const USERS: usize = 4;
    println!("\nQueue drain: {JOBS} one-second jobs from {USERS} users:");
    for workers in [1u32, 2, 4, 8] {
        let clock = VirtualClock::new();
        drain(clock.clone(), JOBS, USERS, workers).shutdown();
        let t = clock.now();
        println!("  {workers} worker(s): {t:>6.1}s virtual, {:>5.2} jobs/s", JOBS as f64 / t);
        metrics.push(Metric::exact(&format!("drain_{workers}w_virtual_s"), t));
    }
    Ok(metrics)
}

/// Queue-drain shape: enough jobs that the waits have a real tail,
/// spread across users so fair share does real work.
const DRAIN_JOBS: usize = 256;
const DRAIN_USERS: usize = 8;
const DRAIN_WORKERS: u32 = 4;

/// Minimum share of allocation wall time that must land in named child
/// scopes for the profile to count as attributing the hot path.
const MIN_ATTRIBUTED_PCT: f64 = 90.0;

/// `alloc.decision` batches of 64 decisions the attribution check
/// profiles: ~1.4 s on a 2-vCPU Xeon VM.
const DECISION_BATCHES: usize = 8192;

/// Exact p50/p99 (nearest rank) of the canonical drain's per-job queue
/// waits, read off the `galaxy.queue.dispatch` audits — the very values
/// the queue observes into its wait histogram, without the buckets.
fn drain_wait_quantiles() -> (f64, f64) {
    let eng = drain(VirtualClock::new(), DRAIN_JOBS, DRAIN_USERS, DRAIN_WORKERS);
    let mut waits: Vec<f64> = eng
        .app()
        .recorder()
        .events_named("galaxy.queue.dispatch")
        .iter()
        .filter_map(|e| e.field("wait_seconds").and_then(|v| v.as_f64()))
        .collect();
    eng.shutdown();
    assert_eq!(waits.len(), DRAIN_JOBS, "one dispatch audit per drained job");
    waits.sort_by(f64::total_cmp);
    let rank = |q: f64| waits[(q * waits.len() as f64).ceil() as usize - 1];
    (rank(0.5), rank(0.99))
}

fn scheduler() -> Result<Run, String> {
    let workflow = workflow_rows()?;
    let profiler = obs::profile::global();
    profiler.enable_real_clock();
    profiler.enable();

    let cluster = GpuCluster::k80_node();
    let table = LeaseTable::new();
    let mut decisions = 0u64;

    // A stage nobody instrumented costs tens of points of attribution
    // and persists; one long deschedule landing in the root scope's own
    // code costs a point or two once (one unchanged-tree run in 24 read
    // 89.4 against a 91.3–92.4 cluster). So a low reading is measured
    // again, up to `RETRIES` times, before it fails the gate.
    const RETRIES: usize = 3;
    let mut attempt = 0;
    let attributed = loop {
        profiler.reset();
        // Single-node `allocate_and_lease` + `release` round-trips, the
        // loop the dispatch hook runs per wave member. Each batch of 64
        // runs under one `alloc.decision` root scope: a structured
        // decision costs about as much as one scope's own bookkeeping, so
        // a root per decision would report that bookkeeping, not an
        // un-instrumented stage, as unattributed.
        for _ in 0..DECISION_BATCHES {
            let _scope = profiler.scope("alloc.decision");
            for _ in 0..64 {
                let holder = decisions % 7 + 1;
                let alloc = table.allocate_and_lease(
                    &cluster,
                    &[(decisions % 2) as u32],
                    AllocationPolicy::ProcessId,
                    holder,
                    100,
                    None,
                );
                assert!(alloc.is_some(), "K80 node must always allocate");
                table.release(holder, "ok", None);
                decisions += 1;
            }
        }
        let attributed = profiler.attributed_pct("alloc.decision").unwrap_or(0.0);
        if attributed >= MIN_ATTRIBUTED_PCT || attempt == RETRIES {
            break attributed;
        }
        attempt += 1;
        println!(
            "scheduler: attribution {attributed:.1}% < {MIN_ATTRIBUTED_PCT}% — \
             measuring again ({attempt}/{RETRIES})"
        );
    };
    let (p50, p99) = drain_wait_quantiles();
    profiler.disable();

    println!("\nmeasured:");
    println!("  queue wait p50 (virtual s):    {p50:>12.2}");
    println!("  queue wait p99 (virtual s):    {p99:>12.2}");
    println!("  alloc profile attribution:     {attributed:>11.1}%");
    println!("\nallocation profile (collapsed stacks, self-time µs):");
    for line in profiler.collapsed().lines().filter(|l| l.starts_with("alloc.decision")) {
        println!("  {line}");
    }
    if attributed < MIN_ATTRIBUTED_PCT {
        return Err(format!(
            "profile attributes only {attributed:.1}% of allocation wall time to named scopes \
             (need >= {MIN_ATTRIBUTED_PCT}%)"
        ));
    }
    let mut metrics =
        vec![Metric::exact("queue_wait_p50_s", p50), Metric::exact("queue_wait_p99_s", p99)];
    metrics.extend(workflow);
    metrics.push(Metric::context("profile_attributed_pct", attributed));
    Ok(Run { metrics, profile: Some(profiler.summary_json()) })
}

// ---------------------------------------------------------------------
// loadtest: the 10^5-user diurnal soak
// ---------------------------------------------------------------------

fn loadtest() -> Result<Run, String> {
    // The whole schedule derives from the seed, so the measured work is
    // identical run to run. Every SLO must hold at 10^5 users.
    let scenario = LoadScenario::diurnal(0xBE7C, 100_000);
    println!("\nscenario: {}", scenario.describe());

    // The gate run doubles as a soak: every stock SLO rule must stay
    // quiet at full population, or the gate itself fails.
    let options = LoadOptions {
        fail_on: DEFAULT_SLO_RULES.iter().map(|s| s.to_string()).collect(),
        ..Default::default()
    };
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    let report = run_scenario(&scenario, &options)
        .map_err(|failure| format!("the gate scenario breached an SLO\n{failure}"))?;
    let wall = start.elapsed().as_secs_f64();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    if report.ok != report.submitted {
        return Err(format!("{} of {} admitted jobs finished ok", report.ok, report.submitted));
    }
    let submissions_per_sec = report.submitted as f64 / wall;
    let allocs_per_job = allocations as f64 / report.arrivals as f64;

    println!("\nmeasured ({} users, {} arrivals):", report.users, report.arrivals);
    println!("  submissions/sec (wall):      {submissions_per_sec:>12.0}");
    println!("  heap allocations per job:    {allocs_per_job:>12.1}");
    println!("  queue-wait p50 (virtual s):  {:>12.3}", report.queue_wait_p50);
    println!("  queue-wait p99 (virtual s):  {:>12.3}", report.queue_wait_p99);
    println!(
        "  waves: {}  peak depth: {}  wall: {wall:.1}s",
        report.waves, report.peak_queue_depth
    );
    Ok(Run {
        metrics: vec![
            Metric::context("users", report.users as f64),
            Metric::exact("jobs", report.arrivals as f64),
            Metric::exact("waves", report.waves as f64),
            Metric::exact("peak_queue_depth", report.peak_queue_depth as f64),
            // One un-repeated ~40 s loop: context. The gated form of this
            // number is the canonical benchmark's `day_single_node`
            // `jobs_per_s`, repeated to a budget.
            Metric::context("submissions_per_sec", submissions_per_sec),
            // Exact and repeatable, but reported rather than gated: a PR
            // that adds an audit field is allowed to cost an allocation,
            // and `tests/alloc_budget.rs` holds the ceiling.
            Metric::context("allocs_per_job", allocs_per_job),
            // Bucket-interpolated `histogram_quantile` (first-bucket
            // artifacts here): context until ROADMAP 1(a) backs them
            // with `obs::sketch`.
            Metric::context("queue_wait_p50_s", report.queue_wait_p50),
            Metric::context("queue_wait_p99_s", report.queue_wait_p99),
        ],
        profile: None,
    })
}

// ---------------------------------------------------------------------
// ablation: learned right-sizing vs the paper's two static policies
// ---------------------------------------------------------------------

/// Population per scenario: big enough for the Pareto tail to produce a
/// steady trickle of over-budget jobs, small enough for CI.
const ABLATION_USERS: usize = 2_000;

/// The gate seed: both scenarios and all three arms replay the exact
/// same arrival schedule, so arm deltas are pure policy effects.
const ABLATION_SEED: u64 = 0xF007;

/// Footprint-revised retries granted to the learned arm — enough
/// budget doublings to bootstrap the largest input bucket.
const FOOTPRINT_RETRIES: u32 = 3;

/// Queue-wait p99 and makespan slack for "match-or-beat" (percent).
const MATCH_PCT: f64 = 5.0;

/// Accuracy bound on converged learned estimates (percent).
const ERR_BOUND_PCT: f64 = 20.0;

/// `(printed name, metric-name infix)` of the two load shapes where the
/// memory model bites, and of the two static arms (§IV-C1, §IV-C2).
const SCENARIOS: [(&str, &str); 2] = [("under-provisioned", "up"), ("gpu-flaky", "flaky")];
const STATICS: [(&str, &str); 2] = [("process-id", "static_pid"), ("memory-based", "static_mem")];

/// `(printed name, metric-name infix, options)` of the three arms.
fn arms() -> [(&'static str, &'static str, LoadOptions); 3] {
    [
        (
            "learned",
            "learned",
            LoadOptions {
                memory_hint: MemoryHint::Learned,
                footprint_retries: FOOTPRINT_RETRIES,
                ..Default::default()
            },
        ),
        (
            "static/process-id",
            STATICS[0].1,
            LoadOptions { allocation_policy: AllocationPolicy::ProcessId, ..Default::default() },
        ),
        (
            "static/memory-based",
            STATICS[1].1,
            LoadOptions { allocation_policy: AllocationPolicy::MemoryBased, ..Default::default() },
        ),
    ]
}

/// The cross-arm acceptance enforced on every fresh run: the learned
/// arm must match-or-beat both static arms on queue-wait p99 and
/// makespan (within `match_pct` slack) and strictly reduce fallbacks, on
/// both scenarios; converged estimates must sit within `max_err_pct`.
/// Returns the violated clauses (empty = accepted).
fn acceptance_violations(metrics: &[Metric], match_pct: f64, max_err_pct: f64) -> Vec<String> {
    let get = |name: String| {
        metrics.iter().find(|m| m.name == name).expect("the ablation table is complete").value
    };
    let slack = 1.0 + match_pct / 100.0;
    let mut bad = Vec::new();
    // Makespan is the discriminating metric while both arms saturate the
    // queue-wait histogram's top bucket (ROADMAP 1(a)): every avoided
    // CPU-slowdown hour shows up there directly.
    for field in ["wait_p99_s", "fallbacks", "makespan_s"] {
        for (scenario, s) in SCENARIOS {
            let learned = get(format!("{s}_learned_{field}"));
            for (arm, a) in STATICS {
                let static_ = get(format!("{s}_{a}_{field}"));
                match field {
                    "fallbacks" if learned >= static_ => bad.push(format!(
                        "{scenario}: learned arm took {learned} GPU→CPU fallbacks, \
                         not fewer than {arm} static's {static_}"
                    )),
                    "wait_p99_s" if learned > static_ * slack => bad.push(format!(
                        "{scenario}: learned queue-wait p99 {learned:.3}s exceeds \
                         {arm} static {static_:.3}s by more than {match_pct}%"
                    )),
                    "makespan_s" if learned > static_ * slack => bad.push(format!(
                        "{scenario}: learned makespan {learned:.1}s exceeds \
                         {arm} static {static_:.1}s by more than {match_pct}%"
                    )),
                    _ => {}
                }
            }
        }
    }
    if get("learned_estimates".to_string()) < 1.0 {
        bad.push("no footprint profile converged to a learned estimate".to_string());
    }
    let err = get("estimate_err_pct_max".to_string());
    if err > max_err_pct {
        bad.push(format!("worst learned p95 estimate off by {err:.1}% (bound {max_err_pct}%)"));
    }
    bad
}

fn ablation() -> Result<Run, String> {
    let scenarios = [
        LoadScenario::under_provisioned(ABLATION_SEED, ABLATION_USERS).with_memory_model(),
        LoadScenario::gpu_flaky(ABLATION_SEED, ABLATION_USERS).with_memory_model(),
    ];
    let mut metrics = Vec::new();
    let (mut learned_estimates, mut estimate_err_pct_max) = (0u64, 0.0f64);
    for (scenario, (_, s)) in scenarios.iter().zip(SCENARIOS) {
        println!("\nscenario: {}", scenario.describe());
        for (arm, a, options) in arms() {
            let r = run_scenario(scenario, &options)
                .map_err(|failure| format!("arm {arm:?} did not complete\n{failure}"))?;
            println!(
                "  {arm:<20} wait p99 {:>8.3}s  makespan {:>8.1}s  fallbacks {:>5}  \
                 footprint retries {:>4}  learned audits {:>4} (worst err {:.1}%)",
                r.queue_wait_p99,
                r.makespan_s,
                r.resubmitted_fallback,
                r.resubmitted_footprint,
                r.learned_estimates,
                r.estimate_err_pct_max,
            );
            if a == "learned" {
                metrics.push(Metric::exact(&format!("{s}_jobs"), r.arrivals as f64));
                learned_estimates += r.learned_estimates;
                estimate_err_pct_max = estimate_err_pct_max.max(r.estimate_err_pct_max);
            }
            // Bucket-interpolated `histogram_quantile`, clamped to the top
            // bucket (100) in all six arms: context until ROADMAP 1(a).
            metrics.push(Metric::context(&format!("{s}_{a}_wait_p99_s"), r.queue_wait_p99));
            let fallbacks = r.resubmitted_fallback as f64;
            metrics.push(Metric::exact(&format!("{s}_{a}_fallbacks"), fallbacks));
            metrics.push(Metric::exact(&format!("{s}_{a}_makespan_s"), r.makespan_s));
        }
    }
    metrics.push(Metric::exact("learned_estimates", learned_estimates as f64));
    metrics.push(Metric::exact("estimate_err_pct_max", estimate_err_pct_max));

    let violations = acceptance_violations(&metrics, MATCH_PCT, ERR_BOUND_PCT);
    if !violations.is_empty() {
        return Err(format!("learned arm did not earn its keep:\n  {}", violations.join("\n  ")));
    }
    println!(
        "\nacceptance: learned ≤ static+{MATCH_PCT}% on wait p99 and makespan, \
         fewer fallbacks, {learned_estimates} audits within {ERR_BOUND_PCT}% — OK"
    );
    Ok(Run { metrics, profile: None })
}

fn main() {
    let mut accept = false;
    let mut only = None;
    for arg in std::env::args().skip(1) {
        if arg == "--accept" {
            accept = true;
        } else if GATES.iter().any(|g| g.name == arg) {
            only = Some(arg);
        } else {
            let names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
            eprintln!("usage: gates [{}] [--accept]", names.join("|"));
            std::process::exit(2);
        }
    }
    let mut failed = false;
    for gate in GATES.iter().filter(|g| only.as_deref().is_none_or(|n| n == g.name)) {
        println!("\n==== gate {} -> {} ====", gate.name, gate.file);
        if let Err(err) = run_gate(gate, accept) {
            eprintln!("{err}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy ablation table: the shape `ablation()` builds.
    fn table() -> Vec<Metric> {
        let rows: &[(&str, [f64; 3])] = &[
            ("up_{}_wait_p99_s", [80.0, 100.0, 98.0]),
            ("up_{}_fallbacks", [2.0, 11.0, 11.0]),
            ("up_{}_makespan_s", [2_100.0, 2_300.0, 2_280.0]),
            ("flaky_{}_wait_p99_s", [40.0, 41.0, 42.0]),
            ("flaky_{}_fallbacks", [1_210.0, 1_240.0, 1_238.0]),
            ("flaky_{}_makespan_s", [900.0, 930.0, 925.0]),
        ];
        let mut metrics = Vec::new();
        for (pattern, values) in rows {
            for (arm, value) in ["learned", "static_pid", "static_mem"].iter().zip(values) {
                metrics.push(Metric::exact(&pattern.replace("{}", arm), *value));
            }
        }
        metrics.push(Metric::exact("learned_estimates", 150.0));
        metrics.push(Metric::exact("estimate_err_pct_max", 14.2));
        metrics
    }

    fn set(metrics: &mut [Metric], name: &str, value: f64) {
        metrics.iter_mut().find(|m| m.name == name).expect("metric exists").value = value;
    }

    #[test]
    fn acceptance_passes_the_healthy_shape_and_names_each_violation() {
        let good = table();
        assert!(acceptance_violations(&good, 5.0, 20.0).is_empty());

        let mut bad = table();
        set(&mut bad, "up_learned_wait_p99_s", 200.0); // worse than both statics
        set(&mut bad, "flaky_learned_fallbacks", 1_240.0); // not fewer than process-id's
        set(&mut bad, "up_learned_makespan_s", 10_000.0); // slower than both statics
        set(&mut bad, "learned_estimates", 0.0);
        set(&mut bad, "estimate_err_pct_max", 35.0);
        let violations = acceptance_violations(&bad, 5.0, 20.0);
        assert_eq!(violations.len(), 2 + 2 + 2 + 2, "{violations:#?}");
    }
}
