//! The three open-loop workloads — `day_single_node`, `day_fleet`,
//! `retry_storm` — share this driver: a seeded `loadgen` schedule is
//! submitted as its arrivals come due on the virtual clock, the real
//! `QueueEngine` is pumped wave by wave in `DispatchMode::Event`, and the
//! stock SLO rules plus the simtest invariants are evaluated at every
//! wave barrier. The loop is the benchmark's own (not
//! `loadgen::run_scenario`) so that every call into a layer sits inside a
//! benchmark-side span and the per-job virtual timestamps can be read
//! back exactly afterwards.

use crate::common::{
    allocation_reasons, check, mix_seed, scrape_us, timed_setups, CheckFailed, JobTimes,
    ProbeTargets, Repeat, Virt,
};
use crate::profile::{self, ScopeTable};
use crate::stats::percentile;
use crate::trace::Tracer;
use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{
    QueueConfig, QueueEngine, ResubmitPolicy, SubmissionState, WaveTimeCharging,
    QUEUE_RESUBMITTED_COUNTER, QUEUE_WAIT_HISTOGRAM,
};
use galaxy::runners::ExecutionPlan;
use galaxy::scheduler::JOBS_FAILED_COUNTER;
use galaxy::tool::macros::MacroLibrary;
use galaxy::{GalaxyApp, GalaxyError};
use gpusim::{GpuArch, GpuCluster, VirtualClock};
use gyan::reservations::RESERVATION_CONFLICTS_COUNTER;
use gyan::setup::{install_gyan, ClusterTime, GyanConfig};
use gyan::LeaseTable;
use loadgen::{
    LoadExecutor, LoadJob, LoadScenario, Topology, FAIL_GPU_ENV, GPU_TOOL_ID, RUNTIME_ENV,
};
use obs::slo::{AlertEngine, AlertExpr, AlertRule, Compare};
use obs::Recorder;
use simtest::invariants;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

// Mirrors of private items of `loadgen::driver`, each named where it is
// copied. This change may not touch `crates/`; once `loadgen` exports
// them (README.md, "Follow-ups") the copies go.

/// Mirrors `loadgen::driver::CPU_TOOL`: the load harness's CPU-only tool.
const CPU_TOOL: &str = r#"<tool id="load_cpu" name="Load CPU">
  <command>echo tick</command>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

/// Mirrors `loadgen::driver::GPU_TOOL`: a GPU tool with the paper's
/// `$__galaxy_gpu_enabled__` conditional.
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

/// Destination GPU jobs conclude on when a GPU served them.
const GPU_DESTINATION: &str = "local_gpu";
/// Mirrors `loadgen::driver::LOG_RETENTION`: the soak drivers'
/// recorder/event-log retention — what a long-running deployment
/// configures, so memory stays flat over a day.
pub const LOG_RETENTION: usize = 100_000;
/// Mirrors `loadgen::driver::DEFAULT_RUNTIME_S`: virtual seconds charged
/// for a plan that carries no `RUNTIME_ENV`.
const DEFAULT_RUNTIME_S: f64 = 0.05;

/// Which of the three queue workloads to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Day {
    SingleNode,
    Fleet,
    RetryStorm,
}

/// Pinned sizes. Each was chosen so that six or more repeats (2 to 3.5 s
/// each on the 2-core reference box) fit `run_seconds` while keeping the
/// property the workload exists for; README.md has the sizing runs.
impl Day {
    pub fn scenario(self, seed: u64) -> LoadScenario {
        match self {
            // The load gate's diurnal day at a tenth of its population on
            // the same 32-GPU node: provisioned, every SLO quiet.
            Day::SingleNode => LoadScenario::diurnal(seed, 10_000),
            // 60 k80 + 20 a100 nodes, 64 workers, 60 % GPU jobs. At 20 000
            // users no SLO fired on 13 seeds, at 22 000 `queue-wait-p99`
            // fired on half of them; 18 000 keeps a margin for any seed.
            Day::Fleet => {
                let mut s = LoadScenario::fleet(seed, 18_000);
                s.topology = Topology::Fleet { k80: 60, a100: 20 };
                s.workers = 64;
                s.gpu_fraction = 0.6;
                s.capacity = 16_384;
                s
            }
            // gpu_flaky's shape (90 % GPU jobs, 90 % of them fail the GPU
            // attempt, 4 GPUs / 4 workers) with admission capacity raised
            // so the multi-thousand-deep backlog rejects nothing.
            Day::RetryStorm => {
                let mut s = LoadScenario::gpu_flaky(seed, 12_000);
                s.capacity = 65_536;
                s
            }
        }
    }

    /// Healthy days must keep every SLO quiet; the storm exists to
    /// breach `resubmission-burn`.
    fn must_stay_quiet(self) -> bool {
        self != Day::RetryStorm
    }
}

/// Galaxy-level SLO rules for the fleet topology, which has no single
/// GYAN lease table. Mirrors `loadgen::driver::galaxy_slo_rules` (its
/// thresholds 30 s / 0.2 / 0.5 per s and 5 s hold are those of
/// `gyan::ops::default_alert_rules`) plus the `fleet-lease-leak` rule
/// `loadgen::driver::run_scenario` adds for a fleet: `day_fleet`'s "SLOs
/// quiet" check and its sizing follow the load gate only while these
/// numbers match it.
fn fleet_slo_rules(fleet: &fleet::Fleet) -> Vec<AlertRule> {
    let f = fleet.clone();
    vec![
        AlertRule::new(
            "queue-wait-p99",
            AlertExpr::HistogramQuantile { name: QUEUE_WAIT_HISTOGRAM.to_string(), q: 0.99 },
            Compare::Gt,
            30.0,
        )
        .hold_for(5.0),
        AlertRule::new(
            "job-failure-burn",
            AlertExpr::CounterRate { name: JOBS_FAILED_COUNTER.to_string(), window_s: 30.0 },
            Compare::Gt,
            0.2,
        )
        .hold_for(5.0),
        AlertRule::new(
            "resubmission-burn",
            AlertExpr::CounterRate { name: QUEUE_RESUBMITTED_COUNTER.to_string(), window_s: 30.0 },
            Compare::Gt,
            0.5,
        )
        .hold_for(5.0),
        AlertRule::new(
            "fleet-lease-leak",
            AlertExpr::Custom(Arc::new(move || Some(f.total_lease_count() as f64))),
            Compare::Gt,
            0.0,
        ),
    ]
}

/// Where GPU jobs are placed: what `install_gyan` or `install_fleet`
/// wired into the app.
enum Gpus {
    Node(LeaseTable),
    Fleet(fleet::Fleet),
}

impl Gpus {
    fn lease_count(&self) -> usize {
        match self {
            Gpus::Node(table) => table.lease_count(),
            Gpus::Fleet(fleet) => fleet.total_lease_count(),
        }
    }

    /// The barrier invariant: every lease of the wave was released.
    fn leaked_leases(&self, wave: u64) -> Result<(), CheckFailed> {
        match self {
            Gpus::Node(table) => invariants::no_leaked_leases(table, wave as usize)
                .map_err(|v| CheckFailed(format!("{}: {}", v.invariant, v.detail))),
            Gpus::Fleet(fleet) => check(fleet.total_lease_count() == 0, || {
                format!("{} fleet lease(s) survived wave {wave}", fleet.total_lease_count())
            }),
        }
    }
}

/// Everything one repeat builds before the timed section starts.
struct DayStack {
    engine: QueueEngine,
    clock: VirtualClock,
    gpus: Gpus,
    alerts: AlertEngine,
    recorder: Recorder,
    jobs: Vec<LoadJob>,
    generate_s: f64,
}

fn build_fleet(k80: u32, a100: u32, recorder: &Recorder) -> fleet::Fleet {
    fleet::Fleet::builder()
        .nodes(fleet::NodeClass::k80(), k80)
        .nodes(fleet::NodeClass::a100(), a100)
        .recorder(recorder.clone())
        .build()
}

/// An idle node of the workload's shape — the single node, or the
/// fleet's first shard plus the fleet — for the per-layer probes.
pub fn probe_targets(day: Day) -> ProbeTargets {
    match day.scenario(0).topology {
        Topology::SingleNode { gpus } => {
            ProbeTargets { cluster: GpuCluster::node(GpuArch::tesla_k80(), gpus), fleet: None }
        }
        Topology::Fleet { k80, a100 } => {
            let recorder = Recorder::new();
            recorder.set_log_retention(Some(LOG_RETENTION));
            let fleet = build_fleet(k80, a100, &recorder);
            ProbeTargets { cluster: fleet.shards()[0].cluster.clone(), fleet: Some(fleet) }
        }
    }
}

/// Build the real stack for `scenario` — nothing below the executor is
/// mocked — and expand the seed into the submission schedule.
fn setup(scenario: &LoadScenario) -> DayStack {
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).expect("shipped job conf"));
    let lib = MacroLibrary::new();
    for xml in [CPU_TOOL, GPU_TOOL] {
        app.install_tool_xml(xml, &lib).expect("load tools parse");
    }
    app.set_event_log_limit(Some(LOG_RETENTION));

    let (clock, gpus) = match scenario.topology {
        Topology::SingleNode { gpus } => {
            let cluster = GpuCluster::node(GpuArch::tesla_k80(), gpus);
            let table = install_gyan(&mut app, &cluster, GyanConfig::default());
            (cluster.clock().clone(), Gpus::Node(table))
        }
        Topology::Fleet { k80, a100 } => {
            let fleet = build_fleet(k80, a100, app.recorder());
            fleet::install_fleet(
                &mut app,
                &fleet,
                fleet::FleetConfig {
                    gpu_destination: GPU_DESTINATION.to_string(),
                    gpu_destinations: vec![GPU_DESTINATION.to_string()],
                    ..fleet::FleetConfig::default()
                },
            );
            (fleet.clock().clone(), Gpus::Fleet(fleet))
        }
    };
    app.set_time_source(Box::new(ClusterTime::new(clock.clone())));
    let recorder = app.recorder().clone();
    recorder.set_log_retention(Some(LOG_RETENTION));

    let alerts = AlertEngine::new(&recorder);
    let rules = match &gpus {
        Gpus::Node(table) => gyan::default_alert_rules(table),
        Gpus::Fleet(fleet) => fleet_slo_rules(fleet),
    };
    rules.into_iter().for_each(|rule| alerts.add_rule(rule));

    let config = QueueConfig {
        workers: scenario.workers,
        capacity: scenario.capacity,
        per_user_limit: None,
        resubmit: ResubmitPolicy::gpu_to_cpu("local_cpu"),
        time_charging: Some(WaveTimeCharging {
            clock: Box::new(ClusterTime::new(clock.clone())),
            model: Box::new(|plan: &ExecutionPlan| {
                plan.env_var(RUNTIME_ENV)
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(DEFAULT_RUNTIME_S)
            }),
        }),
        dispatch: scenario.dispatch,
    };
    app.set_executor(Box::new(LoadExecutor));
    let engine = QueueEngine::new(app, Arc::new(LoadExecutor), config);
    if let Gpus::Node(table) = &gpus {
        engine.set_discard_listener(table.discard_listener(Some(recorder.clone())));
    }

    let generate_start = Instant::now();
    let jobs = scenario.generate();
    let generate_s = generate_start.elapsed().as_secs_f64();

    DayStack { engine, clock, gpus, alerts, recorder, jobs, generate_s }
}

/// What the timed loop observed, beyond what the stack itself records.
struct Pumped {
    wall_s: f64,
    /// (job id, index into the schedule) of every admitted submission.
    admitted: Vec<(u64, usize)>,
    rejected: u64,
    waves: u64,
    dispatched: u64,
    peak_queue_depth: usize,
    fired: BTreeSet<String>,
    /// Wall µs and dispatched jobs of every driver step (submissions
    /// that came due + one wave + the barrier's evaluations).
    steps: Vec<(f64, u64)>,
}

/// The timed section: submit what has come due, pump one wave, evaluate
/// the SLO plane and the invariants at the barrier, repeat until drained.
/// Mirrors the loop of `loadgen::driver::run_scenario`, with a span
/// around every call.
fn pump(stack: &mut DayStack, tracer: &mut Tracer) -> Result<Pumped, CheckFailed> {
    let DayStack { engine, clock, gpus, alerts, jobs, .. } = stack;
    let no_params = ParamDict::new();
    let max_waves = jobs.len() * 4 + 100;
    let mut out = Pumped {
        wall_s: 0.0,
        admitted: Vec::with_capacity(jobs.len()),
        rejected: 0,
        waves: 0,
        dispatched: 0,
        peak_queue_depth: 0,
        fired: BTreeSet::new(),
        steps: Vec::new(),
    };
    let mut next = 0usize;
    let start = Instant::now();
    let mut step_start = start;
    let root = tracer.enter("driver.run", 0);
    loop {
        let now = clock.now();
        while next < jobs.len() && jobs[next].at <= now {
            let job = &jobs[next];
            let span = tracer.enter("galaxy.submit", 0);
            let submitted =
                engine.submit_with_priority(&job.user, job.tool, &no_params, job.priority);
            let job_id = match submitted {
                Ok(handle) => {
                    let app = engine.app_mut();
                    app.set_job_env(handle.0, RUNTIME_ENV, &format!("{:.3}", job.runtime_s));
                    if job.fail_on_gpu {
                        app.set_job_env(handle.0, FAIL_GPU_ENV, "1");
                    }
                    out.admitted.push((handle.0, next));
                    handle.0
                }
                Err(GalaxyError::QueueRejected(_)) => {
                    out.rejected += 1;
                    0
                }
                Err(e) => return Err(CheckFailed(format!("submission of {}: {e}", job.tool))),
            };
            tracer.exit_job(span, job_id);
            next += 1;
        }
        out.peak_queue_depth = out.peak_queue_depth.max(engine.queue_depth());

        let span = tracer.enter("galaxy.pump_wave", 0);
        let dispatched = engine.pump_wave();
        tracer.exit(span);
        if dispatched == 0 {
            if next < jobs.len() {
                clock.advance_to(jobs[next].at);
                continue;
            }
            break;
        }
        out.waves += 1;
        out.dispatched += dispatched as u64;

        let span = tracer.enter("obs.alerts_evaluate", 0);
        alerts.evaluate();
        let firing = alerts.firing();
        tracer.exit(span);
        out.fired.extend(firing);

        let span = tracer.enter("simtest.invariants", 0);
        let leaked = gpus.leaked_leases(out.waves);
        tracer.exit(span);
        leaked?;
        check(out.waves as usize <= max_waves, || {
            format!("still dispatching after {max_waves} waves")
        })?;

        let step_end = Instant::now();
        let step_us = step_end.duration_since(step_start).as_secs_f64() * 1e6;
        out.steps.push((step_us, dispatched as u64));
        step_start = step_end;
    }
    tracer.exit(root);
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// One repeat of a queue workload: build, pump (timed), check, measure.
pub fn repeat(
    day: Day,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<(Repeat, ScopeTable), CheckFailed> {
    let scenario = day.scenario(mix_seed(seed, 1));
    let (mut stack, setup_s) = timed_setups(|| setup(&scenario));

    let (pumped, scopes) = profile::during(tracer.is_on(), || pump(&mut stack, tracer));
    let pumped = pumped?;

    // --- Correctness: the run prints numbers only if all of this holds ---
    let arrivals = stack.jobs.len() as u64;
    invariants::conservation(&stack.engine)
        .map_err(|v| CheckFailed(format!("{}: {}", v.invariant, v.detail)))?;
    let states = stack.engine.submission_states();
    let count = |want: SubmissionState| states.iter().filter(|(_, s)| *s == want).count() as u64;
    let (ok, error, cancelled) = (
        count(SubmissionState::Ok),
        count(SubmissionState::Error),
        count(SubmissionState::Cancelled),
    );
    check(ok + error + cancelled + pumped.rejected == arrivals, || {
        format!(
            "job conservation: ok {ok} + error {error} + cancelled {cancelled} + rejected {} != \
             arrivals {arrivals}",
            pumped.rejected
        )
    })?;
    let leases = stack.gpus.lease_count();
    check(leases == 0, || format!("{leases} lease(s) left after the queue drained"))?;
    check(ok == arrivals, || {
        format!(
            "{} of {arrivals} jobs did not end ok (rejected {})",
            arrivals - ok,
            pumped.rejected
        )
    })?;
    if day.must_stay_quiet() {
        check(pumped.fired.is_empty(), || format!("SLO rules fired: {:?}", pumped.fired))?;
    }
    invariants::spans_balanced(&stack.recorder)
        .map_err(|v| CheckFailed(format!("{}: {}", v.invariant, v.detail)))?;

    // --- Exact virtual-time metrics from the job table and the ledger ---
    let ledger = stack.engine.ledger();
    let app = stack.engine.app();
    let mut times = Vec::with_capacity(pumped.admitted.len());
    let mut attempts = 0u64;
    let mut late = Vec::with_capacity(pumped.admitted.len());
    for (job_id, idx) in &pumped.admitted {
        let job = app.job(*job_id).expect("admitted job exists");
        let snap = ledger.get(*job_id).expect("admitted job is in the ledger");
        let load = &stack.jobs[*idx];
        attempts += u64::from(snap.attempts);
        late.push(snap.submitted_at - load.at);
        // Open loop: a job's clock starts when it was due, not when the
        // driver — busy pumping the previous wave — got to submit it.
        times.push(JobTimes {
            submit: load.at,
            start: job.start_time.unwrap_or(snap.submitted_at),
            end: snap.finished_at.unwrap_or(snap.submitted_at),
            runtime: load.runtime_s,
            gpu_tool: load.tool == GPU_TOOL_ID,
            on_gpu: snap.destination.as_deref() == Some(GPU_DESTINATION),
        });
    }
    let virt = Virt::from_jobs(&times, stack.clock.now());

    // --- Per-layer values (traced repeats) ------------------------------
    let mut layer = Vec::new();
    if tracer.is_on() {
        let names = tracer.by_name();
        let median_us = |n: &str| names.get(n).map_or(0.0, |s| s.median_us());
        let metrics = stack.recorder.metrics();
        let jobs_f = arrivals.max(1) as f64;
        let decisions = scopes.leaf("gyan.allocate").count;
        let (dropped_spans, dropped_events) = stack.recorder.dropped_log_records();
        layer.extend([
            ("gpusim.smi_queries_per_job", scopes.count_prefixed("smi.query") as f64 / jobs_f),
            ("gyan.decisions_per_job", decisions as f64 / jobs_f),
            (
                "gyan.lease_conflicts_per_k",
                1e3 * metrics.counter_value(RESERVATION_CONFLICTS_COUNTER) as f64
                    / decisions.max(1) as f64,
            ),
            ("gyan.cases_covered", allocation_reasons([&stack.recorder]) as f64),
            ("fleet.placements_per_job", scopes.leaf("fleet.place").count as f64 / jobs_f),
            ("galaxy.submit_us", median_us("galaxy.submit")),
            ("galaxy.pump_wave_p50_us", median_us("galaxy.pump_wave")),
            (
                "galaxy.pump_wave_p99_us",
                names.get("galaxy.pump_wave").map_or(0.0, |s| s.percentile_us(0.99)),
            ),
            ("galaxy.jobs_per_wave", pumped.dispatched as f64 / pumped.waves.max(1) as f64),
            ("galaxy.peak_queue_depth", pumped.peak_queue_depth as f64),
            ("galaxy.attempts_per_job", attempts as f64 / jobs_f),
            ("galaxy.resubmits", metrics.counter_value(QUEUE_RESUBMITTED_COUNTER) as f64),
            ("galaxy.queue_wait_p50_vs", virt.queue_wait_p50_vs),
            ("galaxy.queue_wait_p99_vs", virt.queue_wait_p99_vs),
            ("driver.submit_late_p99_vs", percentile(&mut late, 0.99)),
            ("obs.alerts_evaluate_us", median_us("obs.alerts_evaluate")),
            ("obs.metrics_render_us", scrape_us(&stack.recorder)),
            ("obs.dropped_records", (dropped_spans + dropped_events) as f64),
            ("loadgen.generate_s", stack.generate_s),
            ("simtest.invariants_us", median_us("simtest.invariants")),
        ]);
    }

    let repeat = Repeat {
        setup_s,
        wall_s: pumped.wall_s,
        jobs: arrivals,
        failed: arrivals - ok,
        segments: pumped.steps,
        virt,
        layer,
    };
    Ok((repeat, scopes))
}
