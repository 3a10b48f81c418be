//! The asynchronous queue engine end to end: handle-based submission,
//! fair-share ordering, admission control, failure resubmission
//! (GPU → CPU, Galaxy's `<resubmit>`), and wave-barrier makespan
//! accounting on the virtual clock.

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{
    DagStep, DagWorkflow, QueueConfig, QueueEngine, ResubmitPolicy, SubmissionState,
    WaveTimeCharging, QUEUE_DISPATCHED_COUNTER, QUEUE_REJECTED_COUNTER, QUEUE_RESUBMITTED_COUNTER,
};
use galaxy::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
use galaxy::scheduler::JOBS_FAILED_COUNTER;
use galaxy::tool::macros::MacroLibrary;
use galaxy::{GalaxyApp, GalaxyError, JobState};
use gpusim::{GpuCluster, GpuProcess};
use gyan::setup::{install_gyan, ClusterTime, GyanConfig};
use seqtools::{DatasetSpec, ToolExecutor};
use std::sync::{Arc, Mutex};

const ECHO_TOOL: &str = r#"<tool id="echo" name="Echo">
  <command>echo $text</command>
  <inputs><param name="text" type="text" value="hello"/></inputs>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

/// An app whose dynamic rule routes everything to the plain CPU
/// destination — enough to exercise the queue without GPUs.
fn echo_app() -> GalaxyApp {
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    app.install_tool_xml(ECHO_TOOL, &MacroLibrary::new()).unwrap();
    app.register_rule(
        "gpu_dynamic_destination",
        Box::new(|_tool, _job, _conf| Ok("local_cpu".into())),
    );
    app
}

fn echo_executor() -> Arc<ToolExecutor> {
    Arc::new(ToolExecutor::new(&GpuCluster::cpu_only_node()))
}

#[test]
fn async_submission_returns_a_handle_and_runs_on_pump() {
    let mut engine = QueueEngine::new(echo_app(), echo_executor(), QueueConfig::default());
    let mut params = ParamDict::new();
    params.set("text", "queued world");
    let handle = engine.submit_async("alice", "echo", &params).unwrap();

    // Nothing ran yet: the submission is queued, not executed.
    assert_eq!(engine.state(handle), Some(SubmissionState::Queued));
    assert_eq!(engine.app().job(handle.0).unwrap().state(), JobState::New);
    assert_eq!(engine.queue_depth(), 1);

    engine.run_until_idle();
    assert_eq!(engine.state(handle), Some(SubmissionState::Ok));
    let job = engine.app().job(handle.0).unwrap();
    assert_eq!(job.state(), JobState::Ok);
    assert_eq!(job.stdout, "queued world");
    let datasets = engine.app().history().datasets_for_job(handle.0);
    assert_eq!(datasets.len(), 1);
    assert_eq!(datasets[0].content, "queued world");
}

#[test]
fn fair_share_interleaves_users_instead_of_fifo() {
    // One worker → waves of one → the dispatch audit trail is the exact
    // schedule. Alice floods four jobs before Bob's two; fair share must
    // alternate rather than drain Alice first.
    let config = QueueConfig { workers: 1, ..QueueConfig::default() };
    let mut engine = QueueEngine::new(echo_app(), echo_executor(), config);
    for _ in 0..4 {
        engine.submit_async("alice", "echo", &ParamDict::new()).unwrap();
    }
    for _ in 0..2 {
        engine.submit_async("bob", "echo", &ParamDict::new()).unwrap();
    }
    engine.run_until_idle();

    let order: Vec<String> = engine
        .app()
        .recorder()
        .events_named("galaxy.queue.dispatch")
        .iter()
        .map(|e| e.field("user").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(order, vec!["alice", "bob", "alice", "bob", "alice", "alice"]);
    for handle in engine.app().jobs() {
        assert_eq!(handle.state(), JobState::Ok);
    }
}

#[test]
fn priority_reorders_within_a_user() {
    let config = QueueConfig { workers: 1, ..QueueConfig::default() };
    let mut engine = QueueEngine::new(echo_app(), echo_executor(), config);
    let mut low = ParamDict::new();
    low.set("text", "low");
    let mut high = ParamDict::new();
    high.set("text", "high");
    let first = engine.submit_with_priority("u", "echo", &low, 0).unwrap();
    let second = engine.submit_with_priority("u", "echo", &high, 9).unwrap();
    engine.run_until_idle();

    let dispatched: Vec<u64> = engine
        .app()
        .recorder()
        .events_named("galaxy.queue.dispatch")
        .iter()
        .map(|e| e.field("job_id").and_then(|v| v.as_f64()).unwrap() as u64)
        .collect();
    assert_eq!(dispatched, vec![second.0, first.0], "high priority dispatches first");
}

#[test]
fn admission_control_rejects_with_reason_and_no_job_record() {
    let config = QueueConfig { capacity: 2, ..QueueConfig::default() };
    let mut engine = QueueEngine::new(echo_app(), echo_executor(), config);
    engine.submit_async("u", "echo", &ParamDict::new()).unwrap();
    engine.submit_async("u", "echo", &ParamDict::new()).unwrap();
    let err = engine.submit_async("u", "echo", &ParamDict::new()).unwrap_err();
    match &err {
        GalaxyError::QueueRejected(reason) => {
            assert!(reason.contains("queue full"), "{reason}");
        }
        other => panic!("expected QueueRejected, got {other:?}"),
    }
    // The rejected submission left no trace in the job table.
    assert_eq!(engine.app().jobs().len(), 2);
    let rec = engine.app().recorder();
    assert_eq!(rec.metrics().counter_value(QUEUE_REJECTED_COUNTER), 1);
    let rejects = rec.events_named("galaxy.queue.reject");
    assert_eq!(rejects.len(), 1);
    assert!(rejects[0].field("reason").and_then(|v| v.as_str()).unwrap().contains("queue full"));

    engine.run_until_idle();
    assert_eq!(engine.app().jobs().len(), 2);
}

#[test]
fn per_user_limit_rejects_only_the_flooding_user() {
    let config = QueueConfig { per_user_limit: Some(1), ..QueueConfig::default() };
    let mut engine = QueueEngine::new(echo_app(), echo_executor(), config);
    engine.submit_async("hog", "echo", &ParamDict::new()).unwrap();
    let err = engine.submit_async("hog", "echo", &ParamDict::new()).unwrap_err();
    assert!(matches!(err, GalaxyError::QueueRejected(ref r) if r.contains("per-user limit")));
    engine.submit_async("polite", "echo", &ParamDict::new()).unwrap();
    engine.run_until_idle();
    assert_eq!(engine.app().jobs().len(), 2);
}

#[test]
fn both_rejection_reasons_fire_under_one_config() {
    // Capacity and per-user caps armed together: each rejection names the
    // limit that actually tripped.
    let config = QueueConfig { capacity: 3, per_user_limit: Some(2), ..QueueConfig::default() };
    let mut engine = QueueEngine::new(echo_app(), echo_executor(), config);

    engine.submit_async("hog", "echo", &ParamDict::new()).unwrap();
    engine.submit_async("hog", "echo", &ParamDict::new()).unwrap();
    let err = engine.submit_async("hog", "echo", &ParamDict::new()).unwrap_err();
    assert!(
        matches!(err, GalaxyError::QueueRejected(ref r) if r.contains("per-user limit")),
        "{err}"
    );

    // A different user passes the per-user check but hits the full queue.
    engine.submit_async("polite", "echo", &ParamDict::new()).unwrap();
    let err = engine.submit_async("polite", "echo", &ParamDict::new()).unwrap_err();
    assert!(matches!(err, GalaxyError::QueueRejected(ref r) if r.contains("queue full")), "{err}");

    let rec = engine.app().recorder();
    assert_eq!(rec.metrics().counter_value(QUEUE_REJECTED_COUNTER), 2);
    let reasons: Vec<String> = rec
        .events_named("galaxy.queue.reject")
        .iter()
        .map(|e| e.field("reason").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(reasons.len(), 2);
    assert!(reasons[0].contains("per-user limit"), "{reasons:?}");
    assert!(reasons[1].contains("queue full"), "{reasons:?}");

    // Neither rejection left a job record; the admitted three all run.
    assert_eq!(engine.app().jobs().len(), 3);
    engine.run_until_idle();
    for job in engine.app().jobs() {
        assert_eq!(job.state(), JobState::Ok);
    }
}

#[test]
fn resubmit_chain_walks_every_fallback_then_fails_final() {
    // A tool that exits 127 on every destination: the policy's two
    // fallbacks are both consumed before the failure becomes terminal.
    let mut app = echo_app();
    let typo = r#"<tool id="typo"><command>racoon --help</command></tool>"#;
    app.install_tool_xml(typo, &MacroLibrary::new()).unwrap();
    let policy = ResubmitPolicy {
        max_attempts: 3,
        fallbacks: vec!["local_gpu".into(), "local_cpu".into()],
        node_retries: 0,
        footprint_retries: 0,
    };
    let config = QueueConfig { resubmit: policy, ..QueueConfig::default() };
    let mut engine = QueueEngine::new(app, echo_executor(), config);

    let handle = engine.submit_async("alice", "typo", &ParamDict::new()).unwrap();
    engine.run_until_idle();

    assert_eq!(engine.state(handle), Some(SubmissionState::Error));
    let job = engine.app().job(handle.0).unwrap();
    assert_eq!(job.state(), JobState::Error);
    assert_eq!(job.exit_code, Some(127), "still command-not-found on the last attempt");
    assert_eq!(job.destination_id.as_deref(), Some("local_cpu"), "died on the final fallback");

    let rec = engine.app().recorder();
    assert_eq!(rec.metrics().counter_value(QUEUE_RESUBMITTED_COUNTER), 2);

    // Two resubmit hops. `from_destination` always names the job's
    // first destination (where the mapping originally placed it), and
    // the attempt counter walks up.
    let resubmits = rec.events_named("galaxy.queue.resubmit");
    assert_eq!(resubmits.len(), 2);
    for (hop, ev) in resubmits.iter().enumerate() {
        assert_eq!(ev.field("from_destination").and_then(|v| v.as_str()), Some("local_cpu"));
        assert_eq!(ev.field("failed_attempt").and_then(|v| v.as_f64()), Some(hop as f64 + 1.0));
        assert_eq!(ev.field("max_attempts").and_then(|v| v.as_f64()), Some(3.0));
    }
    assert_eq!(resubmits[0].field("to_destination").and_then(|v| v.as_str()), Some("local_gpu"));
    assert_eq!(resubmits[1].field("to_destination").and_then(|v| v.as_str()), Some("local_cpu"));

    // Three dispatches total: the rule's placement, then each fallback in
    // policy order.
    let dispatched: Vec<String> = rec
        .events_named("galaxy.queue.dispatch")
        .iter()
        .map(|e| e.field("destination").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(dispatched, ["local_cpu", "local_gpu", "local_cpu"]);
}

const BONITO_DEV1: &str = r#"<tool id="bonito_dev1">
  <requirements><requirement type="compute" version="1">gpu</requirement></requirements>
  <command>bonito basecaller dna_r9.4.1 queue_fast5 > out</command>
</tool>"#;

/// The tentpole's acceptance scenario: a GPU job fails with an injected
/// out-of-memory error, and the engine resubmits it to the CPU
/// destination within the attempt budget — Galaxy's `<resubmit>` flow.
#[test]
fn injected_gpu_failure_resubmits_to_cpu_within_budget() {
    let cluster = GpuCluster::k80_node();
    // Hog both devices so bonito's GPU workspace cannot fit anywhere.
    let total = cluster.with_device(0, |d| d.fb_total_mib()).unwrap();
    cluster.attach_process(0, GpuProcess::compute(1, "hog0", total - 200)).unwrap();
    cluster.attach_process(1, GpuProcess::compute(2, "hog1", total - 200)).unwrap();

    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let executor = Arc::new(ToolExecutor::new(&cluster));
    executor.register_dataset(DatasetSpec {
        name: "queue_fast5",
        genome_len: 1_200,
        n_reads: 2,
        read_len: 250,
        ..DatasetSpec::acinetobacter_pittii()
    });
    app.set_executor(Box::new(executor.clone()));
    install_gyan(&mut app, &cluster, GyanConfig::default());
    app.install_tool_xml(BONITO_DEV1, &MacroLibrary::new()).unwrap();

    let config =
        QueueConfig { resubmit: ResubmitPolicy::gpu_to_cpu("local_cpu"), ..QueueConfig::default() };
    let mut engine = QueueEngine::new(app, executor, config);
    let handle = engine.submit_async("alice", "bonito_dev1", &ParamDict::new()).unwrap();
    engine.run_until_idle();

    // The job ends Ok — on the CPU destination, after exactly one
    // resubmission.
    assert_eq!(engine.state(handle), Some(SubmissionState::Ok));
    let job = engine.app().job(handle.0).unwrap();
    assert_eq!(job.state(), JobState::Ok);
    assert_eq!(job.destination_id.as_deref(), Some("local_cpu"));
    assert_eq!(job.env_var("GALAXY_GPU_ENABLED"), Some("false"));

    let rec = engine.app().recorder();
    assert_eq!(rec.metrics().counter_value(QUEUE_RESUBMITTED_COUNTER), 1);
    let resubmits = rec.events_named("galaxy.queue.resubmit");
    assert_eq!(resubmits.len(), 1);
    let ev = &resubmits[0];
    assert_eq!(ev.field("from_destination").and_then(|v| v.as_str()), Some("local_gpu"));
    assert_eq!(ev.field("to_destination").and_then(|v| v.as_str()), Some("local_cpu"));

    // Both attempts dispatched, the first to the GPU destination.
    let dispatches = rec.events_named("galaxy.queue.dispatch");
    assert_eq!(dispatches.len(), 2);
    assert_eq!(dispatches[0].field("destination").and_then(|v| v.as_str()), Some("local_gpu"));
    assert_eq!(dispatches[1].field("destination").and_then(|v| v.as_str()), Some("local_cpu"));

    // The scheduling decisions are visible on their own track of the
    // merged Chrome trace.
    let trace = gyan::telemetry::merged_chrome_trace(rec, &[], &[]);
    assert!(trace.tracks().contains(&"galaxy/queue".to_string()));
    let resubmit_marker = trace
        .complete_events()
        .iter()
        .find(|e| e.name == "galaxy.queue.resubmit")
        .expect("resubmit audit in trace");
    assert_eq!(resubmit_marker.track, "galaxy/queue");
}

#[test]
fn attempt_budget_exhausts_to_terminal_error() {
    // No fallback configured: the first failure is final.
    let cluster = GpuCluster::k80_node();
    let total = cluster.with_device(0, |d| d.fb_total_mib()).unwrap();
    cluster.attach_process(0, GpuProcess::compute(1, "hog0", total - 200)).unwrap();
    cluster.attach_process(1, GpuProcess::compute(2, "hog1", total - 200)).unwrap();

    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let executor = Arc::new(ToolExecutor::new(&cluster));
    executor.register_dataset(DatasetSpec {
        name: "queue_fast5",
        genome_len: 1_200,
        n_reads: 2,
        read_len: 250,
        ..DatasetSpec::acinetobacter_pittii()
    });
    app.set_executor(Box::new(executor.clone()));
    install_gyan(&mut app, &cluster, GyanConfig::default());
    app.install_tool_xml(BONITO_DEV1, &MacroLibrary::new()).unwrap();

    let mut engine = QueueEngine::new(app, executor, QueueConfig::default());
    let handle = engine.submit_async("alice", "bonito_dev1", &ParamDict::new()).unwrap();
    engine.run_until_idle();

    assert_eq!(engine.state(handle), Some(SubmissionState::Error));
    assert_eq!(engine.app().job(handle.0).unwrap().state(), JobState::Error);
    let rec = engine.app().recorder();
    assert_eq!(rec.metrics().counter_value(QUEUE_RESUBMITTED_COUNTER), 0);
    assert_eq!(rec.events_named("galaxy.queue.dispatch").len(), 1);
}

/// Echo tools don't advance the clock, so a [`WaveTimeCharging`] model is
/// the authoritative cost: parallel waves charge their max, sequential
/// chains their sum.
fn timed_engine(clock: gpusim::VirtualClock) -> QueueEngine {
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    app.register_rule(
        "gpu_dynamic_destination",
        Box::new(|_tool, _job, _conf| Ok("local_cpu".into())),
    );
    let lib = MacroLibrary::new();
    for (id, _cost) in STEP_COSTS {
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
        time_charging: Some(WaveTimeCharging {
            clock: Box::new(ClusterTime::new(clock)),
            model: Box::new(|plan: &galaxy::runners::ExecutionPlan| {
                STEP_COSTS
                    .iter()
                    .find(|(id, _)| *id == &*plan.tool_id)
                    .map(|(_, cost)| *cost)
                    .unwrap_or(0.0)
            }),
        }),
        ..QueueConfig::default()
    };
    QueueEngine::new(app, echo_executor(), config)
}

const STEP_COSTS: &[(&str, f64)] =
    &[("prep", 10.0), ("left", 20.0), ("right", 30.0), ("join", 5.0)];

#[test]
fn dag_makespan_beats_sequential_on_the_virtual_clock() {
    // Diamond: prep → {left, right} → join. The branches overlap, so the
    // DAG charges max(20, 30) for the middle wave.
    let parallel_clock = gpusim::VirtualClock::new();
    let mut engine = timed_engine(parallel_clock.clone());
    let dag = DagWorkflow::new("diamond")
        .step(DagStep::new("prep"))
        .step(DagStep::new("left").after(0))
        .step(DagStep::new("right").after(0))
        .step(DagStep::new("join").after(1).after(2));
    let wf = engine.submit_dag("alice", dag).unwrap();
    engine.run_until_idle();
    let report = engine.workflow_report(wf).unwrap();
    assert!(report.ok(), "all steps complete: {:?}", report.failed_step);
    let parallel_makespan = report.makespan;

    // The same four steps as a strict chain: every duration is on the
    // critical path.
    let sequential_clock = gpusim::VirtualClock::new();
    let mut engine = timed_engine(sequential_clock.clone());
    let chain = DagWorkflow::new("chain")
        .step(DagStep::new("prep"))
        .step(DagStep::new("left").after(0))
        .step(DagStep::new("right").after(1))
        .step(DagStep::new("join").after(2));
    let wf = engine.submit_dag("alice", chain).unwrap();
    engine.run_until_idle();
    let sequential_makespan = engine.workflow_report(wf).unwrap().makespan;

    assert_eq!(parallel_makespan, 45.0, "10 + max(20, 30) + 5");
    assert_eq!(sequential_makespan, 65.0, "10 + 20 + 30 + 5");
    assert!(
        parallel_makespan < sequential_makespan,
        "fan-out must beat the chain: {parallel_makespan} vs {sequential_makespan}"
    );
    assert_eq!(parallel_clock.now(), 45.0);
    assert_eq!(sequential_clock.now(), 65.0);
}

#[test]
fn dag_data_edges_carry_upstream_outputs() {
    let pipe = DagWorkflow::new("pipe")
        .step(DagStep::new("echo").with_param("text", "payload"))
        .step(DagStep::new("echo").with_input_from("text", 0));
    // Two hops: step 2 echoes step 1's echo of step 0.
    let chain = pipe.clone().step(DagStep::new("echo").with_input_from("text", 1));
    for dag in [pipe, chain] {
        let mut engine = QueueEngine::new(echo_app(), echo_executor(), QueueConfig::default());
        let wf = engine.submit_dag("alice", dag).unwrap();
        engine.run_until_idle();
        let report = engine.workflow_report(wf).unwrap();
        assert!(report.ok());
        // Every downstream step echoed its upstream output dataset.
        for id in report.job_ids {
            assert_eq!(engine.app().job(id.unwrap()).unwrap().stdout, "payload");
        }
    }
}

/// A DAG step's lifecycle is recorded once, in the ledger: every step of
/// bob's workflow is bob's, at the DAG priority 0 (beside a prioritised
/// job of another user), with one attempt per `galaxy.queue.dispatch`
/// audit — retries included.
#[test]
fn dag_steps_are_recorded_once_in_the_ledger() {
    let mut app = echo_app();
    let typo = r#"<tool id="typo"><command>racoon --help</command></tool>"#;
    app.install_tool_xml(typo, &MacroLibrary::new()).unwrap();
    let policy = ResubmitPolicy {
        max_attempts: 3,
        fallbacks: vec!["local_gpu".into(), "local_cpu".into()],
        node_retries: 0,
        footprint_retries: 0,
    };
    let config = QueueConfig { resubmit: policy, ..QueueConfig::default() };
    let mut engine = QueueEngine::new(app, echo_executor(), config);
    engine.submit_with_priority("alice", "echo", &ParamDict::new(), 9).unwrap();
    let dag = DagWorkflow::new("mixed")
        .step(DagStep::new("echo").with_param("text", "a"))
        .step(DagStep::new("typo"))
        .step(DagStep::new("echo").with_input_from("text", 0));
    let wf = engine.submit_dag("bob", dag).unwrap();
    engine.run_until_idle();

    let report = engine.workflow_report(wf).unwrap();
    assert_eq!(report.failed_step, Some(1));
    let dispatched = dispatched_ids(&engine);
    let ledger = engine.ledger();
    let mut attempts = Vec::new();
    for id in report.job_ids.iter().map(|id| id.expect("every step materialized")) {
        let snap = ledger.get(id).unwrap();
        assert_eq!((&*snap.user, snap.priority), ("bob", 0), "job {id}");
        let audits = dispatched.iter().filter(|d| **d == id).count();
        assert_eq!(snap.attempts as usize, audits, "job {id}");
        attempts.push(snap.attempts);
    }
    assert_eq!(attempts, [1, 3, 1], "the failing step used its whole budget");
}

#[test]
fn failed_step_cancels_dependents_but_not_siblings() {
    let mut engine = QueueEngine::new(echo_app(), echo_executor(), QueueConfig::default());
    // "ghost" is not installed: its step fails at materialization, taking
    // its dependent with it; the independent echo still runs.
    let dag = DagWorkflow::new("partial")
        .step(DagStep::new("ghost"))
        .step(DagStep::new("echo").with_param("text", "survivor"));
    assert!(engine.submit_dag("alice", dag).is_err(), "unknown tool rejected upfront");

    // With the tool known but failing at dispatch, cancellation applies.
    let mut app = echo_app();
    let failing = r#"<tool id="doomed"><command>not_a_command</command></tool>"#;
    app.install_tool_xml(failing, &MacroLibrary::new()).unwrap();
    let mut engine = QueueEngine::new(app, echo_executor(), QueueConfig::default());
    let dag = DagWorkflow::new("partial")
        .step(DagStep::new("doomed"))
        .step(DagStep::new("echo").with_input_from("text", 0))
        .step(DagStep::new("echo").with_param("text", "survivor"));
    let wf = engine.submit_dag("alice", dag).unwrap();
    engine.run_until_idle();
    let report = engine.workflow_report(wf).unwrap();
    assert_eq!(report.failed_step, Some(0));
    assert!(report.job_ids[1].is_none(), "dependent never materialized");
    let survivor = report.job_ids[2].unwrap();
    assert_eq!(engine.app().job(survivor).unwrap().state(), JobState::Ok);
    let cancels = engine.app().recorder().events_named("galaxy.queue.cancel");
    assert_eq!(cancels.len(), 1);
    assert_eq!(cancels[0].field("step").and_then(|v| v.as_f64()), Some(1.0));
}

/// The job ids of the `galaxy.queue.dispatch` audit trail, in order.
fn dispatched_ids(engine: &QueueEngine) -> Vec<u64> {
    audited_ids(engine, "galaxy.queue.dispatch")
}

/// The job ids of the audit trail named `event`, in order.
fn audited_ids(engine: &QueueEngine, event: &str) -> Vec<u64> {
    engine
        .app()
        .recorder()
        .events_named(event)
        .iter()
        .map(|e| e.field("job_id").and_then(|v| v.as_f64()).unwrap() as u64)
        .collect()
}

/// Echoes like [`echo_executor`] and remembers the order it saw plans in.
struct OrderRecording {
    inner: Arc<ToolExecutor>,
    seen: Mutex<Vec<u64>>,
}

impl JobExecutor for OrderRecording {
    fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
        self.seen.lock().unwrap().push(plan.job_id);
        self.inner.execute(plan)
    }
}

#[test]
fn failed_counter_counts_every_failed_attempt_retries_included() {
    // `typo` exits 127 on all three attempts its policy allows; `echo`
    // succeeds once. Every failed attempt counts, not every failed job.
    let mut app = echo_app();
    let typo = r#"<tool id="typo"><command>racoon --help</command></tool>"#;
    app.install_tool_xml(typo, &MacroLibrary::new()).unwrap();
    let policy = ResubmitPolicy {
        max_attempts: 3,
        fallbacks: vec!["local_gpu".into(), "local_cpu".into()],
        node_retries: 0,
        footprint_retries: 0,
    };
    let config = QueueConfig { resubmit: policy, ..QueueConfig::default() };
    let mut engine = QueueEngine::new(app, echo_executor(), config);
    let doomed = engine.submit_async("alice", "typo", &ParamDict::new()).unwrap();
    let fine = engine.submit_async("bob", "echo", &ParamDict::new()).unwrap();
    engine.run_until_idle();

    assert_eq!(engine.state(doomed), Some(SubmissionState::Error));
    assert_eq!(engine.state(fine), Some(SubmissionState::Ok));
    let metrics = engine.app().recorder().metrics();
    assert_eq!(metrics.counter_value(JOBS_FAILED_COUNTER), 3);
    // Four attempts ran: the three failed ones and `echo`.
    assert_eq!(metrics.counter_value(QUEUE_DISPATCHED_COUNTER), 4);
    assert!(metrics.render_prometheus().contains(JOBS_FAILED_COUNTER));
}

#[test]
fn executor_sees_each_wave_in_dispatch_audit_order() {
    // Three users and a priority bump: fair share reorders the queue, and
    // the executor must run each wave exactly as the dispatch audit says.
    let executor =
        Arc::new(OrderRecording { inner: echo_executor(), seen: Mutex::new(Vec::new()) });
    let config = QueueConfig { workers: 4, ..QueueConfig::default() };
    let mut engine = QueueEngine::new(echo_app(), executor.clone(), config);
    for i in 0..9u8 {
        let user = ["alice", "bob", "carol"][usize::from(i % 3)];
        engine.submit_with_priority(user, "echo", &ParamDict::new(), i % 4).unwrap();
    }
    engine.run_until_idle();

    let seen = executor.seen.lock().unwrap().clone();
    assert_eq!(seen.len(), 9);
    assert_eq!(seen, dispatched_ids(&engine));
}

#[test]
fn discarded_wave_notifies_the_listener_once_per_member_then_the_next_wave_runs() {
    let config = QueueConfig { workers: 3, ..QueueConfig::default() };
    let mut engine = QueueEngine::new(echo_app(), echo_executor(), config);
    let skipped = Arc::new(Mutex::new(Vec::<u64>::new()));
    let sink = skipped.clone();
    engine.set_discard_listener(Arc::new(move |job_id| sink.lock().unwrap().push(job_id)));

    // Armed before an empty wave, the fault stays armed.
    engine.discard_next_wave();
    assert_eq!(engine.pump_wave(), 0);
    let handles: Vec<_> =
        (0..5).map(|_| engine.submit_async("alice", "echo", &ParamDict::new()).unwrap()).collect();

    assert_eq!(engine.pump_wave(), 3);
    let first_wave = dispatched_ids(&engine);
    assert_eq!(*skipped.lock().unwrap(), first_wave, "one call per member, in wave order");
    // Every dispatched plan was discarded, none ran.
    assert_eq!(audited_ids(&engine, "galaxy.queue.discard"), first_wave);
    assert_eq!(engine.app().jobs().iter().filter(|j| j.state() == JobState::Ok).count(), 0);
    for id in &first_wave {
        assert_eq!(engine.state(galaxy::queue::JobHandle(*id)), Some(SubmissionState::Cancelled));
    }

    // One-shot: the next wave executes normally.
    assert_eq!(engine.pump_wave(), 2);
    assert_eq!(skipped.lock().unwrap().len(), 3, "listener not called again");
    assert_eq!(audited_ids(&engine, "galaxy.queue.discard"), first_wave);
    let dispatched = engine.app().recorder().metrics().counter_value(QUEUE_DISPATCHED_COUNTER);
    assert_eq!(dispatched, 5, "three discarded, then two run");
    let ran = handles.iter().filter(|h| engine.state(**h) == Some(SubmissionState::Ok)).count();
    assert_eq!(ran, 2);
}

/// The job table and the ledger find a job at its id's slot: ids outside
/// the table find nothing, a job the app ran on its own (synchronous
/// `submit`) is a hole the ledger's readers skip, and the app's job list
/// is in id order as it sits.
#[test]
fn job_table_and_ledger_slots_skip_holes_and_refuse_outside_ids() {
    let mut engine = QueueEngine::new(echo_app(), echo_executor(), QueueConfig::default());
    let queued = engine.submit_async("alice", "echo", &ParamDict::new()).unwrap().0;
    let inline = engine.app_mut().submit("echo", &ParamDict::new()).unwrap();
    let after = engine.submit_async("bob", "echo", &ParamDict::new()).unwrap().0;
    assert_eq!((queued, inline, after), (1, 2, 3));
    engine.run_until_idle();

    let ledger = engine.ledger();
    assert_eq!(ledger.len(), 2, "the synchronous job is not the engine's");
    let tracked: Vec<u64> = ledger.all().iter().map(|snap| snap.job_id).collect();
    assert_eq!(tracked, [queued, after]);
    assert!(ledger.get(inline).is_none());
    assert_eq!(engine.submission_states().len(), 2);

    let ids: Vec<u64> = engine.app().jobs().iter().map(|job| job.id).collect();
    assert_eq!(ids, [1, 2, 3]);
    assert!(engine.app().jobs().iter().all(|job| job.state() == JobState::Ok));
    for id in [0, 4, u64::MAX] {
        assert!(engine.app().job(id).is_none(), "job {id}");
        assert!(ledger.get(id).is_none(), "ledger {id}");
        assert_eq!(engine.state(galaxy::JobHandle(id)), None, "state {id}");
    }
    // An unknown tool takes no id: the next job is the next slot.
    assert!(engine.app_mut().submit("ghost", &ParamDict::new()).is_err());
    assert_eq!(engine.app_mut().submit("echo", &ParamDict::new()).unwrap(), 4);
}
