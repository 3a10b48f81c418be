//! Canonical scheduler benchmark + regression gate.
//!
//! Measures the allocation hot path and queue engine with the `obs`
//! profiler enabled, emits a schema-versioned trajectory to
//! `BENCH_scheduler.json` at the repo root (embedding the per-scope
//! profile breakdown), and compares against the previous trajectory —
//! failing on regressions beyond the tolerance so every PR inherits the
//! perf history. Wired into `scripts/verify.sh` as the `perf_gate` step.
//!
//! Env knobs:
//!
//! * `BENCH_TOLERANCE_PCT` — relative regression threshold in percent
//!   (default 40; wall-clock numbers are noisy on shared machines).
//! * `BENCH_OUT` — output path (default `BENCH_scheduler.json`).
//! * `BENCH_BASELINE` — previous-trajectory path to compare against
//!   (default: same as `BENCH_OUT`).
//!
//! On regression the baseline file is left untouched (the evidence
//! stays) and the process exits 1.

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{
    JobSnapshot, JobsLedger, QueueConfig, QueueEngine, SubmissionState, WaveTimeCharging,
    QUEUE_WAIT_HISTOGRAM,
};
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::{GpuCluster, VirtualClock};
use gyan::allocation::AllocationPolicy;
use gyan::reservations::LeaseTable;
use gyan::setup::ClusterTime;
use gyan_bench::perf::{compare, summary_line, Trajectory, SCHEMA};
use gyan_bench::table::banner;
use seqtools::ToolExecutor;
use std::sync::Arc;
use std::time::Instant;

/// How long each wall-clock measurement loop targets (seconds). Short
/// enough that verify.sh stays fast, long enough to average over noise.
const MEASURE_SECONDS: f64 = 0.6;

/// Queue-drain shape: enough jobs that the wait histogram has a real
/// tail, spread across users so fair share does real work.
const DRAIN_JOBS: usize = 256;
const DRAIN_USERS: usize = 8;
const DRAIN_WORKERS: u32 = 4;

/// Minimum share of allocation wall time that must land in named child
/// scopes for the profile to count as attributing the hot path.
const MIN_ATTRIBUTED_PCT: f64 = 90.0;

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Allocation decisions per real second on a single K80 node: one
/// `allocate_and_lease` + `release` round-trip per decision, the loop the
/// ops plane's dispatch hook runs per wave member. Each batch of 64
/// decisions runs under one `alloc.decision` root scope so the profiler
/// can attribute the stage breakdown: a structured decision costs about
/// as much as one scope's own bookkeeping, so a root per decision would
/// report that bookkeeping, not an un-instrumented stage, as unattributed.
fn bench_decisions() -> f64 {
    let cluster = GpuCluster::k80_node();
    let table = LeaseTable::new();
    // Warm up the allocator once outside the measurement.
    let _ = table.allocate_and_lease(&cluster, &[], AllocationPolicy::ProcessId, 0, 100, None);
    table.release(0, "ok", None);

    let mut decisions = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MEASURE_SECONDS {
        let _scope = obs::profile::global().scope("alloc.decision");
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
    decisions as f64 / start.elapsed().as_secs_f64()
}

/// The canonical queue engine: echo tools on a CPU-only node with
/// wave-barrier time charging, mirroring `workflow_throughput`'s setup.
fn engine(clock: VirtualClock, workers: u32) -> QueueEngine {
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    app.register_rule(
        "gpu_dynamic_destination",
        Box::new(|_tool, _job, _conf| Ok("local_cpu".to_string())),
    );
    let lib = MacroLibrary::new();
    app.install_tool_xml(
        r#"<tool id="unit"><command>echo unit</command>
           <outputs><data name="out" format="txt"/></outputs></tool>"#,
        &lib,
    )
    .unwrap();
    app.set_time_source(Box::new(ClusterTime::new(clock.clone())));
    let recorder_clock = clock.clone();
    app.recorder().set_clock(move || recorder_clock.now());
    let config = QueueConfig {
        workers,
        capacity: 4096,
        time_charging: Some(WaveTimeCharging {
            clock: Box::new(ClusterTime::new(clock)),
            model: Box::new(|_plan: &galaxy::runners::ExecutionPlan| 1.0),
        }),
        ..QueueConfig::default()
    };
    let executor = Arc::new(ToolExecutor::new(&GpuCluster::cpu_only_node()));
    QueueEngine::new(app, executor, config)
}

/// Drain the canonical job mix; returns (p50, p99, jobs/sec-real).
/// The quantiles come off the virtual clock (deterministic across
/// machines); the throughput is real wall time.
fn bench_queue() -> (f64, f64, f64) {
    let clock = VirtualClock::new();
    let mut eng = engine(clock, DRAIN_WORKERS);
    for i in 0..DRAIN_JOBS {
        let user = format!("user{}", i % DRAIN_USERS);
        eng.submit_async(&user, "unit", &ParamDict::new()).unwrap();
    }
    let start = Instant::now();
    eng.run_until_idle();
    let wall = start.elapsed().as_secs_f64();
    let metrics = eng.app().recorder().metrics();
    let p50 = metrics.histogram_quantile(QUEUE_WAIT_HISTOGRAM, 0.5).unwrap_or(0.0);
    let p99 = metrics.histogram_quantile(QUEUE_WAIT_HISTOGRAM, 0.99).unwrap_or(0.0);
    let jobs_per_sec = DRAIN_JOBS as f64 / wall.max(1e-9);
    eng.shutdown();
    (p50, p99, jobs_per_sec)
}

/// `JobsLedger::all()` snapshots per real second with a canonical job
/// count — the number the Arc-backed snapshot change moves.
fn bench_ledger_snapshots() -> f64 {
    const JOBS: u64 = 512;
    let ledger = JobsLedger::new();
    for job_id in 0..JOBS {
        ledger.upsert(JobSnapshot {
            job_id,
            user: format!("user{}", job_id % 16),
            tool: "racon_gpu".to_string(),
            state: SubmissionState::Queued,
            attempts: 1,
            destination: Some("remote_cluster_gpu".to_string()),
            node: None,
            priority: 0,
            submitted_at: job_id as f64,
            finished_at: None,
        });
    }
    let mut snapshots = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < MEASURE_SECONDS / 2.0 {
        for _ in 0..16 {
            let all = ledger.all();
            assert_eq!(all.len(), JOBS as usize);
            std::hint::black_box(&all);
            snapshots += 1;
        }
    }
    snapshots as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    banner("Perf gate", "Canonical scheduler trajectory + regression check");

    let tolerance_pct = env_f64("BENCH_TOLERANCE_PCT", 40.0);
    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_scheduler.json".into());
    let baseline_path = std::env::var("BENCH_BASELINE").unwrap_or_else(|_| out_path.clone());

    let profiler = obs::profile::global();
    profiler.enable_real_clock();
    profiler.reset();
    profiler.enable();

    let decisions_per_sec = bench_decisions();
    let (queue_wait_p50_s, queue_wait_p99_s, wave_dispatch_jobs_per_sec) = bench_queue();
    let ledger_snapshots_per_sec = bench_ledger_snapshots();

    profiler.disable();
    let attributed = profiler.attributed_pct("alloc.decision").unwrap_or(0.0);

    println!("\nmeasured:");
    println!("  decisions/sec (1 node):        {decisions_per_sec:>12.0}");
    println!("  queue wait p50 (virtual s):    {queue_wait_p50_s:>12.2}");
    println!("  queue wait p99 (virtual s):    {queue_wait_p99_s:>12.2}");
    println!("  wave dispatch jobs/sec (real): {wave_dispatch_jobs_per_sec:>12.0}");
    println!("  ledger snapshots/sec:          {ledger_snapshots_per_sec:>12.0}");
    println!("  alloc profile attribution:     {attributed:>11.1}%");

    println!("\nallocation profile (collapsed stacks, self-time µs):");
    for line in profiler.collapsed().lines().filter(|l| l.starts_with("alloc.decision")) {
        println!("  {line}");
    }

    if attributed < MIN_ATTRIBUTED_PCT {
        eprintln!(
            "perf_gate: FAIL — profile attributes only {attributed:.1}% of allocation wall \
             time to named scopes (need >= {MIN_ATTRIBUTED_PCT}%)"
        );
        std::process::exit(1);
    }

    let new = Trajectory {
        schema: SCHEMA.to_string(),
        commit: git_commit(),
        decisions_per_sec,
        queue_wait_p50_s,
        queue_wait_p99_s,
        wave_dispatch_jobs_per_sec,
        ledger_snapshots_per_sec,
        profile_attributed_pct: attributed,
    };

    let baseline = std::fs::read_to_string(&baseline_path).ok();
    if let Some(text) = &baseline {
        match Trajectory::parse(text) {
            Ok(prev) => {
                let deltas = compare(&prev, &new, tolerance_pct);
                println!(
                    "\nvs {} ({}, tolerance {tolerance_pct}%):\n  {}",
                    baseline_path,
                    prev.commit,
                    summary_line(&deltas)
                );
                let regressed: Vec<_> = deltas.iter().filter(|d| d.regressed).collect();
                if !regressed.is_empty() {
                    for d in &regressed {
                        eprintln!(
                            "perf_gate: REGRESSION {}: {:.4} -> {:.4} ({:+.1}%, tolerance {}%)",
                            d.metric, d.prev, d.new, d.pct_change, tolerance_pct
                        );
                    }
                    eprintln!(
                        "perf_gate: FAIL — baseline {baseline_path} left untouched; \
                         rerun with BENCH_TOLERANCE_PCT higher to accept, or fix the regression"
                    );
                    std::process::exit(1);
                }
            }
            Err(err) => {
                println!(
                    "\nprevious trajectory at {baseline_path} unreadable ({err}); rebaselining"
                );
            }
        }
    } else {
        println!("\nno previous trajectory at {baseline_path}; recording baseline");
    }

    let rendered = new.render_json(Some(&profiler.summary_json()));
    std::fs::write(&out_path, rendered).expect("write trajectory");
    println!("trajectory written to {out_path} (commit {})", new.commit);
}
