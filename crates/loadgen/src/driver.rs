//! Run one [`LoadScenario`] through the real stack, asserting SLOs at
//! every wave barrier.
//!
//! Nothing is mocked below the executor: [`simtest::driver`] builds a
//! [`GalaxyApp`](galaxy::GalaxyApp) from the shipped `GYAN_JOB_CONF`,
//! installs GYAN over one node or over the fleet, per topology, and
//! pumps a real [`QueueEngine`](galaxy::queue::QueueEngine), which runs
//! each wave inline on the calling thread — so a hundred thousand
//! in-flight jobs cost a queue entry each, not an OS thread each. Only
//! the tool *body* is synthetic: a [`LoadExecutor`] that succeeds (or
//! injects a failure) instantly, with each job's virtual runtime charged
//! by the wave-time model from a job environment variable.
//!
//! What is the load harness's own lives here: that executor and model,
//! the per-job environment a submission exports, and the SLO assertion —
//! the stock rules ([`Gpus::slo_rules`], the same on either topology)
//! are evaluated at every wave barrier, and a rule named in
//! [`LoadOptions::fail_on`] firing converts the run into a [`Failure`] that carries the
//! fired-alert list, a flight-recorder dump, and the reproducing seed.

use crate::scenario::LoadScenario;
use galaxy::params::ParamDict;
use galaxy::queue::{QueueConfig, ResubmitPolicy};
use galaxy::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
use gyan::allocation::AllocationPolicy;
use gyan::footprint::{
    MemoryHint, FOOTPRINT_ESTIMATE_EVENT, GALAXY_INPUT_SIZE_MIB_ENV, GPU_MEMORY_BUDGET_ENV,
    GPU_OBSERVED_PEAK_ENV,
};
use obs::Recorder;
use simtest::driver::{Gpus, Repro, Stack, StackSpec};
use simtest::invariants::Violation;
use simtest::Failure;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Job env var carrying the virtual runtime (seconds) the wave-time
/// model charges for the job.
pub const RUNTIME_ENV: &str = "LOADSIM_RUNTIME_S";
/// Job env var marking a job that fails its GPU-enabled attempts.
pub const FAIL_GPU_ENV: &str = "LOADSIM_FAIL_GPU";
/// Job env var carrying the (slower) virtual runtime charged when a
/// memory-model GPU job ends up running on CPU.
pub const CPU_RUNTIME_ENV: &str = "LOADSIM_CPU_RUNTIME_S";
/// Export the GYAN hook sets on plans that won a GPU lease.
const GPU_ENABLED_ENV: &str = "GALAXY_GPU_ENABLED";
/// The variable [`crate::env_seed`] replays a seed from, as a failure
/// report prints it.
pub(crate) const SEED_ENV: &str = "LOADTEST_SEED";

/// Bound on retained obs spans/events during a soak — enough context
/// for a flight dump, without O(total jobs) recorder growth.
pub const LOG_RETENTION: usize = 100_000;

/// Virtual runtime charged when a plan carries no [`RUNTIME_ENV`]
/// (resubmitted attempts keep their job env, so this is rare).
pub const DEFAULT_RUNTIME_S: f64 = 0.05;

/// Tool wrapper of the CPU-only load job ([`crate::CPU_TOOL_ID`]).
pub const CPU_TOOL: &str = r#"<tool id="load_cpu" name="Load CPU">
  <command>echo tick</command>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

/// Tool wrapper of the GPU-capable load job ([`crate::GPU_TOOL_ID`]):
/// its command branches on `__galaxy_gpu_enabled__` like the paper's
/// Racon wrapper.
pub const GPU_TOOL: &str = r#"<tool id="load_gpu" name="Load GPU">
  <requirements><requirement type="compute">gpu</requirement></requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
load_kernel --device gpu
#else
load_kernel --device cpu
#end if
]]></command>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

/// Synthetic executor for load tests: returns instantly (virtual time
/// is charged by the wave-time model, not by running anything), and
/// fails GPU-enabled attempts of jobs flagged with [`FAIL_GPU_ENV`] —
/// whose CPU resubmission then succeeds, exercising the ladder.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoadExecutor;

impl JobExecutor for LoadExecutor {
    fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
        let gpu = plan.env_var(GPU_ENABLED_ENV) == Some("true");
        if gpu && plan.env_var(FAIL_GPU_ENV) == Some("1") {
            return ExecutionResult {
                exit_code: 137,
                stdout: String::new(),
                stderr: "injected: synthetic GPU fault".to_string(),
                pid: None,
            };
        }
        // The OOM rule of the memory model: a GPU attempt whose declared
        // peak exceeds the budget the orchestrator granted dies exactly
        // like a real CUDA OOM kill. Inactive unless the scenario set a
        // peak (and the hook therefore exported a budget).
        if gpu {
            let peak = plan.env_var(GPU_OBSERVED_PEAK_ENV).and_then(|v| v.parse::<u64>().ok());
            let budget = plan.env_var(GPU_MEMORY_BUDGET_ENV).and_then(|v| v.parse::<u64>().ok());
            if let (Some(peak), Some(budget)) = (peak, budget) {
                if peak > budget {
                    return ExecutionResult {
                        exit_code: 137,
                        stdout: String::new(),
                        stderr: format!("oom: peak {peak} MiB exceeded the {budget} MiB budget"),
                        pid: None,
                    };
                }
            }
        }
        ExecutionResult::ok(if gpu { "gpu" } else { "cpu" })
    }
}

/// Driver knobs.
#[derive(Debug, Clone, Default)]
pub struct LoadOptions {
    /// SLO rule names that must stay quiet: the run fails with a
    /// [`Failure`] (flight dump + reproducing seed) the moment one of
    /// them fires. Empty = record firings in the report instead.
    pub fail_on: Vec<String>,
    /// Device allocation strategy for single-node GYAN topologies
    /// (default: Process-Id).
    pub allocation_policy: AllocationPolicy,
    /// Memory-hint resolution mode — [`MemoryHint::Static`] (default)
    /// vs. [`MemoryHint::Learned`] right-sizing from footprint
    /// profiles. The ablation bench sweeps this.
    pub memory_hint: MemoryHint,
    /// Footprint-revised same-destination retries granted before the
    /// GPU→CPU fallback ladder (effective only with
    /// [`MemoryHint::Learned`], whose hook revises budgets).
    pub footprint_retries: u32,
}

/// Rule names every healthy scenario is expected to keep quiet — the
/// full stock SLO set from [`gyan::ops::default_alert_rules`], which a
/// single node and a fleet both arm.
pub const DEFAULT_SLO_RULES: &[&str] = &[
    "queue-wait-p99",
    "gpu-conflict-rate",
    "job-failure-burn",
    "resubmission-burn",
    "lease-oversubscription",
];

/// Outcome of one passing soak run. Deterministic per scenario: two
/// runs of the same seed compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Generating seed.
    pub seed: u64,
    /// User population size.
    pub users: usize,
    /// Generated arrivals (submitted + rejected).
    pub arrivals: usize,
    /// Submissions the queue admitted.
    pub submitted: usize,
    /// Submissions rejected by admission control.
    pub rejected: usize,
    /// Jobs that finished OK.
    pub ok: usize,
    /// Jobs that failed terminally.
    pub error: usize,
    /// Jobs cancelled.
    pub cancelled: usize,
    /// Waves pumped before the queue drained.
    pub waves: usize,
    /// SLO rules that fired at any barrier (sorted, deduplicated).
    pub fired: Vec<String>,
    /// Queue-wait p50 estimate (seconds, virtual).
    pub queue_wait_p50: f64,
    /// Queue-wait p99 estimate (seconds, virtual).
    pub queue_wait_p99: f64,
    /// Virtual time at drain.
    pub makespan_s: f64,
    /// Deepest queue backlog observed at a wave boundary.
    pub peak_queue_depth: usize,
    /// Closed spans evicted by the recorder's retention cap.
    pub dropped_spans: u64,
    /// Events evicted by the recorder's retention cap.
    pub dropped_events: u64,
    /// Resubmissions that walked the fallback ladder (GPU→CPU).
    pub resubmitted_fallback: u64,
    /// Placement-aware same-destination retries (failed node excluded).
    pub resubmitted_node: u64,
    /// Footprint-revised same-destination retries (bigger budget).
    pub resubmitted_footprint: u64,
    /// `footprint.estimate` audits whose estimate came from a converged
    /// learned profile.
    pub learned_estimates: u64,
    /// Mean |estimate − observed peak| / peak over those audits (%).
    pub estimate_err_pct_mean: f64,
    /// Worst |estimate − observed peak| / peak over those audits (%).
    pub estimate_err_pct_max: f64,
}

/// Virtual seconds the wave-time model charges for `plan`: a
/// memory-model GPU job pushed off the GPU pays its CPU runtime;
/// everything else charges its base runtime.
fn wave_time(plan: &ExecutionPlan) -> f64 {
    let env = if plan.env_var(GPU_ENABLED_ENV) == Some("true") {
        RUNTIME_ENV
    } else {
        plan.env_var(CPU_RUNTIME_ENV).map(|_| CPU_RUNTIME_ENV).unwrap_or(RUNTIME_ENV)
    };
    plan.env_var(env).and_then(|v| v.parse::<f64>().ok()).unwrap_or(DEFAULT_RUNTIME_S)
}

/// Execute `scenario` under `options`: submit the generated schedule as
/// its arrivals come due on the virtual clock, pump the queue wave by
/// wave, and evaluate the SLO plane at every barrier.
// Failure is large (it carries the flight dump), but the Err path is
// terminal — a failure report, not a hot return.
#[allow(clippy::result_large_err)]
pub fn run_scenario(scenario: &LoadScenario, options: &LoadOptions) -> Result<LoadReport, Failure> {
    run_scenario_recorded(scenario, options).map(|(report, _)| report)
}

/// [`run_scenario`], also handing back the run's recorder (the last
/// [`LOG_RETENTION`] records) — the telemetry the export-parity suite
/// pins.
#[allow(clippy::result_large_err)]
pub fn run_scenario_recorded(
    scenario: &LoadScenario,
    options: &LoadOptions,
) -> Result<(LoadReport, Recorder), Failure> {
    let mut stack = Stack::build(StackSpec {
        repro: Repro { seed: scenario.seed, seed_env: SEED_ENV, scenario: scenario.describe() },
        tools: vec![CPU_TOOL.to_string(), GPU_TOOL.to_string()],
        hardware: scenario.topology.hardware(),
        policy: options.allocation_policy,
        memory_hint: options.memory_hint,
        executor: Arc::new(LoadExecutor),
        queue: QueueConfig {
            workers: scenario.workers,
            capacity: scenario.capacity,
            resubmit: ResubmitPolicy::gpu_to_cpu("local_cpu")
                .with_footprint_retries(options.footprint_retries),
            dispatch: scenario.dispatch,
            ..QueueConfig::default()
        },
        wave_time: Some(Box::new(wave_time)),
        alert_rules: Gpus::slo_rules,
        log_retention: Some(LOG_RETENTION),
        release_on_discard: true,
    })?;

    let jobs = scenario.generate();
    let cpu_slowdown = scenario.memory.as_ref().map(|m| m.cpu_slowdown).unwrap_or(1.0);
    let mut fired: BTreeSet<String> = BTreeSet::new();
    let pumped = stack.pump(
        jobs.iter().map(|job| (job.at, job)),
        |engine, job| {
            let handle = engine.submit_with_priority(
                &job.user,
                job.tool,
                &ParamDict::new(),
                job.priority,
            )?;
            let app = engine.app_mut();
            app.set_job_env(handle.0, RUNTIME_ENV, &format!("{:.3}", job.runtime_s));
            if job.fail_on_gpu {
                app.set_job_env(handle.0, FAIL_GPU_ENV, "1");
            }
            if job.peak_mib > 0 {
                // Memory-model job: declare its input size (what the
                // hook buckets on), its true peak (what the executor
                // OOM-checks and the profile learns), and the slower
                // runtime a CPU fallback pays.
                app.set_job_env(handle.0, GALAXY_INPUT_SIZE_MIB_ENV, &job.input_mib.to_string());
                app.set_job_env(handle.0, GPU_OBSERVED_PEAK_ENV, &job.peak_mib.to_string());
                let cpu_runtime = format!("{:.3}", job.runtime_s * cpu_slowdown);
                app.set_job_env(handle.0, CPU_RUNTIME_ENV, &cpu_runtime);
            }
            Ok(())
        },
        // The livelock bound; no fault hook before a wave; at the
        // barrier, the SLO assertion.
        jobs.len() * 4 + 100,
        |_, _| {},
        |stack, _| {
            let firing = stack.alerts.firing();
            fired.extend(firing.iter().cloned());
            match firing.iter().find(|name| options.fail_on.contains(name)) {
                Some(bad) => {
                    let depth = stack.engine.queue_depth();
                    Err(Violation::new("slo", format!("alert {bad:?} fired with {depth} in queue")))
                }
                None => Ok(()),
            }
        },
    )?;

    stack.finish(pumped, |stack, run| {
        let metrics = stack.recorder.metrics();
        let (dropped_spans, dropped_events) = stack.recorder.dropped_log_records();
        let resubmits = |reason: &str| {
            metrics.counter_value(&format!(
                "{}{{reason=\"{reason}\"}}",
                galaxy::queue::QUEUE_RESUBMITTED_COUNTER
            ))
        };
        // Accuracy of the learned estimates, from the footprint audits.
        let learned_errs: Vec<f64> = stack
            .recorder
            .events_named(FOOTPRINT_ESTIMATE_EVENT)
            .iter()
            .filter(|e| e.field("source").and_then(|v| v.as_str()) == Some("learned"))
            .filter_map(|e| e.field("err_pct").and_then(|v| v.as_f64()))
            .map(f64::abs)
            .collect();
        let report = LoadReport {
            seed: scenario.seed,
            users: scenario.users,
            arrivals: jobs.len(),
            submitted: run.submitted,
            rejected: run.rejected,
            ok: run.ok,
            error: run.error,
            cancelled: run.cancelled,
            waves: run.waves,
            fired: fired.into_iter().collect(),
            queue_wait_p50: metrics
                .histogram_quantile(galaxy::queue::QUEUE_WAIT_HISTOGRAM, 0.5)
                .unwrap_or(0.0),
            queue_wait_p99: metrics
                .histogram_quantile(galaxy::queue::QUEUE_WAIT_HISTOGRAM, 0.99)
                .unwrap_or(0.0),
            makespan_s: stack.clock.now(),
            peak_queue_depth: pumped.peak_queue_depth,
            dropped_spans,
            dropped_events,
            resubmitted_fallback: resubmits("fallback"),
            resubmitted_node: resubmits("node_excluded"),
            resubmitted_footprint: resubmits("footprint_revised"),
            learned_estimates: learned_errs.len() as u64,
            estimate_err_pct_mean: if learned_errs.is_empty() {
                0.0
            } else {
                learned_errs.iter().sum::<f64>() / learned_errs.len() as f64
            },
            estimate_err_pct_max: learned_errs.iter().cloned().fold(0.0, f64::max),
        };
        Ok((report, stack.recorder.clone()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{LoadScenario, Topology};

    /// A fast scenario for unit tests: a few hundred arrivals squeezed
    /// into a short horizon.
    fn small(seed: u64) -> LoadScenario {
        let mut s = LoadScenario::diurnal(seed, 300);
        s.duration_s = 600.0;
        s.profile.base_rate = 300.0 / 600.0;
        s.profile.period_s = 600.0;
        s.workers = 8;
        s.topology = Topology::SingleNode { gpus: 8 };
        s
    }

    /// The fleet sibling of [`small`].
    fn small_fleet() -> LoadScenario {
        let mut scenario = LoadScenario::fleet(91, 200);
        scenario.duration_s = 400.0;
        scenario.profile.base_rate = 0.5;
        scenario.profile.period_s = 400.0;
        scenario
    }

    /// `run_scenario(_, &LoadOptions::default())` of one single-node and
    /// one fleet scenario, captured at the parent commit 8ba17c1 (before
    /// `run_scenario` moved onto `simtest::driver::Stack`): every field,
    /// the virtual-time floats included, must stay bit-identical.
    #[test]
    fn small_reports_are_pinned() {
        let quiet = LoadReport {
            seed: 0,
            users: 0,
            arrivals: 0,
            submitted: 0,
            rejected: 0,
            ok: 0,
            error: 0,
            cancelled: 0,
            waves: 0,
            fired: Vec::new(),
            queue_wait_p50: 0.0005,
            queue_wait_p99: 0.00099,
            makespan_s: 0.0,
            peak_queue_depth: 0,
            dropped_spans: 0,
            dropped_events: 0,
            resubmitted_fallback: 0,
            resubmitted_node: 0,
            resubmitted_footprint: 0,
            learned_estimates: 0,
            estimate_err_pct_mean: 0.0,
            estimate_err_pct_max: 0.0,
        };
        let node = LoadReport {
            seed: 21,
            users: 300,
            arrivals: 314,
            submitted: 314,
            ok: 314,
            waves: 241,
            makespan_s: 599.15503806928,
            peak_queue_depth: 6,
            ..quiet.clone()
        };
        let fleet = LoadReport {
            seed: 91,
            users: 200,
            arrivals: 183,
            submitted: 183,
            ok: 183,
            waves: 143,
            makespan_s: 398.9204364854202,
            peak_queue_depth: 7,
            ..quiet
        };
        for (scenario, want) in [(small(21), node), (small_fleet(), fleet)] {
            let got = run_scenario(&scenario, &LoadOptions::default()).expect("healthy run");
            assert_eq!(got, want);
        }
    }

    #[test]
    fn default_slo_rules_name_the_stock_alert_rules_in_order() {
        let stock = gyan::ops::default_alert_rules(&gyan::LeaseTable::new());
        let names: Vec<&str> = stock.iter().map(|rule| rule.name.as_str()).collect();
        assert_eq!(names, DEFAULT_SLO_RULES);
    }

    #[test]
    fn healthy_small_run_is_quiet_and_complete() {
        let scenario = small(21);
        let options = LoadOptions {
            fail_on: DEFAULT_SLO_RULES.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        };
        let report = run_scenario(&scenario, &options).expect("healthy run");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.ok, report.submitted);
        assert_eq!(report.error + report.cancelled, 0);
        assert!(report.fired.is_empty(), "fired: {:?}", report.fired);
        assert!(report.submitted > 100, "only {} submitted", report.submitted);
        assert!(report.makespan_s >= 600.0 - 15.0, "makespan {}", report.makespan_s);
    }

    #[test]
    fn deterministic_replay_from_one_seed() {
        let a = run_scenario(&small(55), &LoadOptions::default()).expect("run a");
        let b = run_scenario(&small(55), &LoadOptions::default()).expect("run b");
        assert_eq!(a, b);
    }

    #[test]
    fn injected_gpu_faults_resubmit_to_cpu_and_still_finish_ok() {
        let mut scenario = small(77);
        scenario.gpu_fraction = 0.5;
        scenario.gpu_fail_fraction = 1.0;
        let report = run_scenario(&scenario, &LoadOptions::default()).expect("faulty run");
        // Every GPU-enabled failure falls down the ladder to CPU and
        // succeeds there: no terminal errors.
        assert_eq!(report.ok, report.submitted);
        assert_eq!(report.error, 0);
    }

    #[test]
    fn fleet_topology_runs_clean() {
        let options = LoadOptions {
            fail_on: DEFAULT_SLO_RULES.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        };
        let report = run_scenario(&small_fleet(), &options).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.ok, report.submitted);
        assert!(report.fired.is_empty(), "fired: {:?}", report.fired);
    }

    /// The allocation policy reaches a fleet's shards as it reaches a
    /// single node: every grant of a Memory-Based fleet run is decided
    /// Memory-Based.
    #[test]
    fn fleet_topology_runs_the_requested_allocation_policy() {
        let options = LoadOptions {
            allocation_policy: AllocationPolicy::MemoryBased,
            ..LoadOptions::default()
        };
        let (report, recorder) =
            run_scenario_recorded(&small_fleet(), &options).expect("fleet run");
        assert_eq!(report.ok, report.submitted);
        let decisions = recorder.events_named("gyan.allocation.decision");
        assert!(!decisions.is_empty(), "the fleet run decided no grant");
        for decision in &decisions {
            assert_eq!(decision.field("policy").and_then(|v| v.as_str()), Some("memory_based"));
        }
    }

    #[test]
    fn learned_hints_cut_fallbacks_and_estimate_within_bound() {
        let mut scenario = small(42);
        scenario.gpu_fraction = 0.9;
        scenario.memory = Some(crate::scenario::MemoryModel::default());

        // Static arm: every job whose true peak exceeds the 1024 MiB
        // destination hint OOMs on GPU and pays the CPU slowdown.
        let static_report =
            run_scenario(&scenario, &LoadOptions::default()).expect("static arm runs");
        assert!(
            static_report.resubmitted_fallback > 0,
            "memory model must push some jobs off the GPU in the static arm"
        );
        assert_eq!(static_report.learned_estimates, 0, "static arm never learns");

        // Learned arm: footprint retries double the budget until the
        // attempt fits, the profile converges, and later jobs dispatch
        // with a right-sized learned p95.
        let learned_report = run_scenario(
            &scenario,
            &LoadOptions {
                memory_hint: MemoryHint::Learned,
                footprint_retries: 3,
                ..Default::default()
            },
        )
        .expect("learned arm runs");
        assert!(
            learned_report.resubmitted_fallback < static_report.resubmitted_fallback,
            "learned {} !< static {}",
            learned_report.resubmitted_footprint,
            static_report.resubmitted_fallback
        );
        assert!(learned_report.resubmitted_footprint > 0, "budget doublings happened");
        assert!(learned_report.learned_estimates > 0, "profiles converged");
        assert!(
            learned_report.estimate_err_pct_max <= 20.0,
            "worst learned estimate off by {:.1}%",
            learned_report.estimate_err_pct_max
        );
        // Both arms still finish every job (CPU is always a safe harbour).
        assert_eq!(static_report.ok, static_report.submitted);
        assert_eq!(learned_report.ok, learned_report.submitted);
    }

    #[test]
    fn slo_violation_fails_with_flight_dump_and_seed() {
        let mut scenario = LoadScenario::under_provisioned(13, 400);
        scenario.duration_s = 600.0;
        scenario.profile.base_rate = 400.0 / 600.0;
        let options =
            LoadOptions { fail_on: vec!["queue-wait-p99".to_string()], ..Default::default() };
        let failure = run_scenario(&scenario, &options).expect_err("must breach the wait SLO");
        assert_eq!(failure.reason, "slo");
        assert!(failure.fired_alerts.iter().any(|a| a == "queue-wait-p99"));
        assert!(failure.flight_jsonl.is_some(), "flight dump captured");
        let text = failure.to_string();
        assert!(text.contains("LOADTEST_SEED=13"), "{text}");
    }
}
