//! Run one [`LoadScenario`] through the real stack, asserting SLOs at
//! every wave barrier.
//!
//! Nothing is mocked below the executor: the driver builds a
//! [`GalaxyApp`] from the shipped `GYAN_JOB_CONF`, installs GYAN over
//! one node or over the fleet, per topology, and pumps a real
//! [`QueueEngine`] in
//! [`DispatchMode::Event`](galaxy::queue::DispatchMode::Event) — so a
//! hundred thousand in-flight jobs cost a ready-queue entry each, not
//! an OS thread each. Only the tool *body* is synthetic: a
//! [`LoadExecutor`] that succeeds (or injects a failure) instantly,
//! with each job's virtual runtime charged by the wave-time model from
//! a job environment variable.
//!
//! The operations plane runs live alongside: the stock
//! [`gyan::ops::default_alert_rules`] SLO set is evaluated at every
//! wave barrier, and a rule named in [`LoadOptions::fail_on`] firing
//! converts the run into a [`LoadFailure`] that carries the fired-alert
//! list, a flight-recorder dump, and the reproducing seed.

use crate::scenario::{LoadScenario, Topology};
use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{QueueConfig, QueueEngine, ResubmitPolicy, SubmissionState, WaveTimeCharging};
use galaxy::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
use galaxy::tool::macros::MacroLibrary;
use galaxy::{GalaxyApp, GalaxyError};
use gpusim::{GpuArch, GpuCluster};
use gyan::allocation::AllocationPolicy;
use gyan::footprint::{
    MemoryHint, FOOTPRINT_ESTIMATE_EVENT, GALAXY_INPUT_SIZE_MIB_ENV, GPU_MEMORY_BUDGET_ENV,
    GPU_OBSERVED_PEAK_ENV,
};
use gyan::ops::{default_alert_rules, galaxy_alert_rules};
use gyan::setup::{install_gyan, ClusterTime, GyanConfig};
use obs::slo::{AlertEngine, AlertExpr, AlertRule, Compare};
use simtest::invariants;
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
    /// [`LoadFailure`] (flight dump + reproducing seed) the moment one
    /// of them fires. Empty = record firings in the report instead.
    pub fail_on: Vec<String>,
    /// Override the livelock bound (default: `4 × jobs + 100` waves).
    pub max_waves: Option<usize>,
    /// Device allocation strategy for single-node GYAN topologies
    /// (`None` keeps [`GyanConfig::default`]'s Process-Id strategy).
    pub allocation_policy: Option<AllocationPolicy>,
    /// Memory-hint resolution mode — [`MemoryHint::Static`] (default)
    /// vs. [`MemoryHint::Learned`] right-sizing from footprint
    /// profiles. The ablation bench sweeps this.
    pub memory_hint: MemoryHint,
    /// Footprint-revised same-destination retries granted before the
    /// GPU→CPU fallback ladder (effective only with a learned-mode
    /// footprint advisor installed).
    pub footprint_retries: u32,
}

/// Rule names every healthy scenario is expected to keep quiet — the
/// full stock SLO set from [`gyan::ops::default_alert_rules`].
pub const DEFAULT_SLO_RULES: &[&str] = &[
    "queue-wait-p99",
    "gpu-conflict-rate",
    "job-failure-burn",
    "resubmission-burn",
    "lease-oversubscription",
];

/// Outcome of one passing soak run. Deterministic per scenario: two
/// runs of the same seed (even across dispatch backends) compare equal.
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

/// A failed soak run, reproducible from the seed alone.
#[derive(Debug, Clone)]
pub struct LoadFailure {
    /// Seed that reproduces the failure (`LOADTEST_SEED=<seed>`).
    pub seed: u64,
    /// Wave at which the run failed (None = setup or whole-run check).
    pub wave: Option<usize>,
    /// What failed: `"slo"`, an invariant name, `"setup"`, …
    pub reason: &'static str,
    /// Failure specifics.
    pub detail: String,
    /// Scenario description.
    pub scenario: String,
    /// SLO rules firing at failure time.
    pub fired_alerts: Vec<String>,
    /// Flight-recorder JSONL dump captured at failure time.
    pub flight_jsonl: Option<String>,
}

impl std::fmt::Display for LoadFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "loadtest failure: {}", self.reason)?;
        match self.wave {
            Some(w) => writeln!(f, "  at wave {w}: {}", self.detail)?,
            None => writeln!(f, "  {}", self.detail)?,
        }
        writeln!(f, "  scenario: {}", self.scenario)?;
        if !self.fired_alerts.is_empty() {
            writeln!(f, "  fired alerts: {}", self.fired_alerts.join(", "))?;
        }
        if let Some(dump) = &self.flight_jsonl {
            writeln!(f, "  flight recorder: {} line(s) captured", dump.lines().count())?;
        }
        write!(f, "  reproduce with LOADTEST_SEED={}", self.seed)
    }
}

/// The SLO rules a fleet topology arms: [`galaxy_alert_rules`] (a
/// fleet has no single lease table for the other two stock rules) plus
/// `fleet-lease-leak`, the fleet analogue of lease-oversubscription —
/// at a wave barrier every placement must have been released.
pub fn fleet_slo_rules(fleet: &fleet::Fleet) -> Vec<AlertRule> {
    let f = fleet.clone();
    let mut rules = galaxy_alert_rules();
    rules.push(AlertRule::new(
        "fleet-lease-leak",
        AlertExpr::Custom(Arc::new(move || Some(f.total_lease_count() as f64))),
        Compare::Gt,
        0.0,
    ));
    rules
}

/// Execute `scenario` under `options`: submit the generated schedule as
/// its arrivals come due on the virtual clock, pump the queue wave by
/// wave, and evaluate the SLO plane at every barrier.
// LoadFailure is large (it carries the flight dump), but the Err path
// is terminal — a failure report, not a hot return.
#[allow(clippy::result_large_err)]
pub fn run_scenario(
    scenario: &LoadScenario,
    options: &LoadOptions,
) -> Result<LoadReport, LoadFailure> {
    let fail = |wave: Option<usize>, reason: &'static str, detail: String| LoadFailure {
        seed: scenario.seed,
        wave,
        reason,
        detail,
        scenario: scenario.describe(),
        fired_alerts: Vec::new(),
        flight_jsonl: None,
    };

    // --- Build the real stack -------------------------------------------
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).expect("shipped job conf"));
    let lib = MacroLibrary::new();
    for xml in [CPU_TOOL, GPU_TOOL] {
        if let Err(e) = app.install_tool_xml(xml, &lib) {
            return Err(fail(None, "setup", format!("tool install: {e}")));
        }
    }
    app.set_event_log_limit(Some(LOG_RETENTION));

    // Per-topology wiring. The cluster/fleet handles are kept alive for
    // the whole run; the clock is the shared virtual timeline.
    let (clock, gyan_table, the_fleet, _cluster) = match scenario.topology {
        Topology::SingleNode { gpus } => {
            let cluster = GpuCluster::node(GpuArch::tesla_k80(), gpus);
            let config = GyanConfig {
                policy: options.allocation_policy.unwrap_or(GyanConfig::default().policy),
                memory_hint: options.memory_hint,
                ..GyanConfig::default()
            };
            let table = install_gyan(&mut app, &cluster, config);
            (cluster.clock().clone(), Some(table), None, Some(cluster))
        }
        Topology::Fleet { k80, a100 } => {
            let fleet = fleet::Fleet::builder()
                .nodes(fleet::NodeClass::k80(), k80)
                .nodes(fleet::NodeClass::a100(), a100)
                .recorder(app.recorder().clone())
                .build();
            fleet::install_fleet(
                &mut app,
                &fleet,
                fleet::FleetConfig {
                    gpu_destination: "local_gpu".to_string(),
                    gpu_destinations: vec!["local_gpu".to_string()],
                    memory_hint: options.memory_hint,
                    ..fleet::FleetConfig::default()
                },
            );
            (fleet.clock().clone(), None, Some(fleet), None)
        }
    };
    app.set_time_source(Box::new(ClusterTime::new(clock.clone())));
    let recorder = app.recorder().clone();
    recorder.set_log_retention(Some(LOG_RETENTION));

    // The live SLO plane: stock rules, evaluated at every barrier.
    let alerts = AlertEngine::new(&recorder);
    let rules = match (&gyan_table, &the_fleet) {
        (Some(table), _) => default_alert_rules(table),
        (None, Some(fleet)) => fleet_slo_rules(fleet),
        (None, None) => unreachable!("topology wired above"),
    };
    for rule in rules {
        alerts.add_rule(rule);
    }
    let enrich = |mut failure: LoadFailure| -> LoadFailure {
        failure.fired_alerts = alerts.firing();
        failure.flight_jsonl = recorder.flight_snapshot().map(|s| s.to_jsonl());
        failure
    };

    let model_default = DEFAULT_RUNTIME_S;
    let config = QueueConfig {
        workers: scenario.workers,
        capacity: scenario.capacity,
        per_user_limit: None,
        resubmit: ResubmitPolicy::gpu_to_cpu("local_cpu")
            .with_footprint_retries(options.footprint_retries),
        time_charging: Some(WaveTimeCharging {
            clock: Box::new(ClusterTime::new(clock.clone())),
            model: Box::new(move |plan: &ExecutionPlan| {
                // A memory-model GPU job pushed off the GPU pays its CPU
                // runtime; everything else charges its base runtime.
                let env = if plan.env_var(GPU_ENABLED_ENV) == Some("true") {
                    RUNTIME_ENV
                } else {
                    plan.env_var(CPU_RUNTIME_ENV).map(|_| CPU_RUNTIME_ENV).unwrap_or(RUNTIME_ENV)
                };
                plan.env_var(env).and_then(|v| v.parse::<f64>().ok()).unwrap_or(model_default)
            }),
        }),
        dispatch: scenario.dispatch,
    };
    let executor = Arc::new(LoadExecutor);
    app.set_executor(Box::new(LoadExecutor));
    let mut engine = QueueEngine::new(app, executor, config);
    if let Some(table) = &gyan_table {
        engine.set_discard_listener(table.discard_listener(Some(recorder.clone())));
    }

    // --- Pump arrivals through on the virtual clock ---------------------
    let jobs = scenario.generate();
    let max_waves = options.max_waves.unwrap_or(jobs.len() * 4 + 100);
    let mut next = 0usize;
    let mut submitted = 0usize;
    let mut rejected = 0usize;
    let mut waves = 0usize;
    let mut peak_queue_depth = 0usize;
    let mut fired: BTreeSet<String> = BTreeSet::new();
    loop {
        // Submit every arrival that has come due.
        let now = clock.now();
        while next < jobs.len() && jobs[next].at <= now {
            let job = &jobs[next];
            next += 1;
            match engine.submit_with_priority(&job.user, job.tool, &ParamDict::new(), job.priority)
            {
                Ok(handle) => {
                    submitted += 1;
                    let app = engine.app_mut();
                    app.set_job_env(handle.0, RUNTIME_ENV, &format!("{:.3}", job.runtime_s));
                    if job.fail_on_gpu {
                        app.set_job_env(handle.0, FAIL_GPU_ENV, "1");
                    }
                    if job.peak_mib > 0 {
                        // Memory-model job: declare its input size (what
                        // the hook buckets on), its true peak (what the
                        // executor OOM-checks and the profile learns),
                        // and the slower runtime a CPU fallback pays.
                        app.set_job_env(
                            handle.0,
                            GALAXY_INPUT_SIZE_MIB_ENV,
                            &job.input_mib.to_string(),
                        );
                        app.set_job_env(handle.0, GPU_OBSERVED_PEAK_ENV, &job.peak_mib.to_string());
                        let slowdown =
                            scenario.memory.as_ref().map(|m| m.cpu_slowdown).unwrap_or(1.0);
                        app.set_job_env(
                            handle.0,
                            CPU_RUNTIME_ENV,
                            &format!("{:.3}", job.runtime_s * slowdown),
                        );
                    }
                }
                Err(GalaxyError::QueueRejected(_)) => rejected += 1,
                Err(e) => {
                    return Err(fail(None, "submission", format!("{:?}: {e}", job.tool)));
                }
            }
        }
        peak_queue_depth = peak_queue_depth.max(engine.queue_depth());

        let dispatched = engine.pump_wave();
        if dispatched == 0 {
            if next < jobs.len() {
                // Queue idle but arrivals remain: jump to the next one.
                clock.advance_to(jobs[next].at);
                continue;
            }
            break;
        }
        waves += 1;

        // The SLO plane and the structural invariants, every barrier.
        alerts.evaluate();
        let firing = alerts.firing();
        for name in &firing {
            fired.insert(name.clone());
        }
        if let Some(bad) = firing.iter().find(|n| options.fail_on.iter().any(|f| f == *n)) {
            return Err(enrich(fail(
                Some(waves),
                "slo",
                format!("alert {bad:?} fired with {} in queue", engine.queue_depth()),
            )));
        }
        if let Some(table) = &gyan_table {
            invariants::no_leaked_leases(table, waves)
                .map_err(|v| enrich(fail(Some(waves), v.invariant, v.detail)))?;
        }
        if let Some(fleet) = &the_fleet {
            let leases = fleet.total_lease_count();
            if leases > 0 {
                return Err(enrich(fail(
                    Some(waves),
                    "fleet_lease_leak",
                    format!("{leases} fleet lease(s) survived the wave barrier"),
                )));
            }
        }
        if waves >= max_waves {
            return Err(enrich(fail(
                Some(waves),
                "wave_bound",
                format!("still dispatching after {max_waves} waves"),
            )));
        }
    }

    // --- Whole-run checks and the report --------------------------------
    invariants::conservation(&engine).map_err(|v| enrich(fail(None, v.invariant, v.detail)))?;

    let states = engine.submission_states();
    let count = |want: SubmissionState| states.iter().filter(|(_, s)| *s == want).count();
    let metrics = recorder.metrics();
    let (dropped_spans, dropped_events) = recorder.dropped_log_records();
    let resubmits = |reason: &str| {
        metrics.counter_value(&format!(
            "{}{{reason=\"{reason}\"}}",
            galaxy::queue::QUEUE_RESUBMITTED_COUNTER
        ))
    };
    // Accuracy of the learned estimates, from the footprint audits.
    let learned_errs: Vec<f64> = recorder
        .events()
        .iter()
        .filter(|e| {
            e.name == FOOTPRINT_ESTIMATE_EVENT
                && e.field("source").and_then(|v| v.as_str()) == Some("learned")
        })
        .filter_map(|e| e.field("err_pct").and_then(|v| v.as_f64()))
        .map(f64::abs)
        .collect();
    let report = LoadReport {
        seed: scenario.seed,
        users: scenario.users,
        arrivals: jobs.len(),
        submitted,
        rejected,
        ok: count(SubmissionState::Ok),
        error: count(SubmissionState::Error),
        cancelled: count(SubmissionState::Cancelled),
        waves,
        fired: fired.into_iter().collect(),
        queue_wait_p50: metrics
            .histogram_quantile(galaxy::queue::QUEUE_WAIT_HISTOGRAM, 0.5)
            .unwrap_or(0.0),
        queue_wait_p99: metrics
            .histogram_quantile(galaxy::queue::QUEUE_WAIT_HISTOGRAM, 0.99)
            .unwrap_or(0.0),
        makespan_s: clock.now(),
        peak_queue_depth,
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

    engine.shutdown();
    invariants::spans_balanced(&recorder).map_err(|v| enrich(fail(None, v.invariant, v.detail)))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::LoadScenario;
    use galaxy::queue::DispatchMode;

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

    #[test]
    fn fleet_slo_rules_are_the_galaxy_rules_plus_the_lease_leak_probe() {
        let fleet = fleet::Fleet::builder().nodes(fleet::NodeClass::k80(), 2).build();
        let show = |rules: Vec<AlertRule>| -> Vec<String> {
            rules.iter().map(|r| format!("{r:?}")).collect()
        };
        let (fleet_rules, galaxy) = (show(fleet_slo_rules(&fleet)), show(galaxy_alert_rules()));
        assert_eq!(fleet_rules[..galaxy.len()], galaxy[..], "thresholds live once, in gyan::ops");
        assert_eq!(fleet_rules.len(), galaxy.len() + 1);
        assert!(fleet_rules[galaxy.len()].contains("fleet-lease-leak"), "{fleet_rules:?}");
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
    fn event_and_thread_backends_produce_identical_reports() {
        let event = run_scenario(&small(33), &LoadOptions::default()).expect("event run");
        let mut threaded_scenario = small(33);
        threaded_scenario.dispatch = DispatchMode::Threads;
        let threads = run_scenario(&threaded_scenario, &LoadOptions::default()).expect("threads");
        assert_eq!(event, threads);
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
        let mut scenario = LoadScenario::fleet(91, 200);
        scenario.duration_s = 400.0;
        scenario.profile.base_rate = 0.5;
        scenario.profile.period_s = 400.0;
        let report = run_scenario(&scenario, &LoadOptions::default()).expect("fleet run");
        assert_eq!(report.ok, report.submitted);
        assert!(!report.fired.iter().any(|r| r == "fleet-lease-leak"), "{:?}", report.fired);
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
                memory_hint: MemoryHint::learned(),
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
