//! End-to-end observability: one instrumented Galaxy + GYAN run exports a
//! span tree per job, decision audit events matching the paper's multi-GPU
//! placements, Prometheus metrics, and a merged Chrome trace in which a
//! job's span encloses its GPU kernel/DMA intervals — all on virtual time,
//! so every artifact is byte-for-byte deterministic.

use galaxy::app::{JOBS_OK_COUNTER, JOBS_SUBMITTED_COUNTER};
use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{QueueConfig, QueueEngine};
use galaxy::scheduler::{JOBS_EXECUTED_COUNTER, QUEUE_DEPTH_GAUGE, WORKERS_BUSY_GAUGE};
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::GpuCluster;
use gyan::allocation::AllocationPolicy;
use gyan::setup::{install_gyan, GyanConfig};
use gyan::UsageMonitor;
use obs::metrics::parse_prometheus;
use seqtools::ToolExecutor;
use std::sync::Arc;

mod common;

const PHASES: [&str; 6] = [
    "galaxy.tool_parse",
    "galaxy.map_destination",
    "galaxy.hooks",
    "galaxy.template_render",
    "galaxy.container_assembly",
    "galaxy.dispatch",
];

use common::{pinned_tool, tiny_racon};

/// The multi-GPU testbed from `tests/multi_gpu_cases.rs`, plus a plain CPU
/// tool with no GPU requirement (and without the `bonito_dev1` wrapper,
/// which one test here re-pins onto the racon dataset).
fn testbed(policy: AllocationPolicy) -> (GpuCluster, GalaxyApp, Arc<ToolExecutor>) {
    let cluster = GpuCluster::k80_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let executor = Arc::new(ToolExecutor::new(&cluster).with_linger());
    executor.register_dataset(tiny_racon("case_pacbio"));
    app.set_executor(Box::new(executor.clone()));
    install_gyan(&mut app, &cluster, GyanConfig { policy, ..GyanConfig::default() });
    let lib = MacroLibrary::new();
    app.install_tool_xml(&pinned_tool("racon_dev0", "racon_gpu", "0", "case_pacbio"), &lib)
        .unwrap();
    app.install_tool_xml(
        r#"<tool id="count_reads" name="count"><command>echo counted > out</command></tool>"#,
        &lib,
    )
    .unwrap();
    (cluster, app, executor)
}

fn job_span(app: &GalaxyApp, job_id: u64) -> obs::SpanData {
    app.recorder()
        .spans_named("galaxy.job")
        .into_iter()
        .find(|s| s.field("job_id").and_then(|v| v.as_f64()) == Some(job_id as f64))
        .expect("job span recorded")
}

#[test]
fn every_pipeline_phase_nests_under_the_job_span() {
    let (_cluster, mut app, _exec) = testbed(AllocationPolicy::ProcessId);
    let gpu_job = app.submit("racon_dev0", &ParamDict::new()).unwrap();
    let cpu_job = app.submit("count_reads", &ParamDict::new()).unwrap();

    for id in [gpu_job, cpu_job] {
        let job = job_span(&app, id);
        let job_end = job.end.expect("job span closed");
        let children: Vec<obs::SpanData> =
            app.recorder().spans().into_iter().filter(|s| s.parent == Some(job.id)).collect();
        let names: Vec<&str> = children.iter().map(|s| &*s.name).collect();
        assert_eq!(names, PHASES.to_vec(), "job {id} phase spans in pipeline order");
        for phase in &children {
            let end = phase.end.expect("phase span closed");
            assert!(job.start <= phase.start && end <= job_end, "{} nested in job", phase.name);
        }
    }
    // Virtual time: the CPU job starts no earlier than the GPU job ended.
    assert!(job_span(&app, cpu_job).start >= job_span(&app, gpu_job).end.unwrap());
}

#[test]
fn pid_allocation_audits_match_case3_placements() {
    // Paper Fig. 9 Case 3: four racon instances pinned to device 0 under
    // the Process ID strategy land on 0, 1, 0+1, 0+1.
    let (_cluster, mut app, _exec) = testbed(AllocationPolicy::ProcessId);
    for _ in 0..4 {
        app.submit("racon_dev0", &ParamDict::new()).unwrap();
    }

    let allocs = app.recorder().events_named("gyan.allocation.decision");
    let masks: Vec<&str> = allocs
        .iter()
        .map(|e| e.field("cuda_visible_devices").and_then(|v| v.as_str()).unwrap())
        .collect();
    assert_eq!(masks, vec!["0", "1", "0,1", "0,1"]);
    let reasons: Vec<&str> =
        allocs.iter().map(|e| e.field("reason").and_then(|v| v.as_str()).unwrap()).collect();
    assert_eq!(
        reasons,
        vec!["requested_free", "free_fallback", "all_busy_scatter", "all_busy_scatter"]
    );
    // The audit records the device state each decision observed.
    assert_eq!(allocs[0].field("avail_gpus").and_then(|v| v.as_str()), Some("0,1"));
    assert_eq!(allocs[1].field("avail_gpus").and_then(|v| v.as_str()), Some("1"));
    assert_eq!(allocs[2].field("avail_gpus").and_then(|v| v.as_str()), Some(""));
    assert_eq!(allocs[0].field("granted_requested").and_then(|v| v.as_f64()), Some(1.0));
    assert_eq!(allocs[1].field("granted_requested").and_then(|v| v.as_f64()), Some(0.0));

    // Every rule decision saw a GPU tool on a GPU-bearing node.
    let rules = app.recorder().events_named("gyan.rule.decision");
    assert_eq!(rules.len(), 4);
    for e in &rules {
        assert_eq!(e.field("destination").and_then(|v| v.as_str()), Some("local_gpu"));
        assert_eq!(e.field("reason").and_then(|v| v.as_str()), Some("gpu_tool_and_gpu_available"));
        assert_eq!(e.field("device_count").and_then(|v| v.as_f64()), Some(2.0));
    }

    // The hook exported exactly the audited masks into each job env.
    let hooks = app.recorder().events_named("gyan.hook.export");
    let exported: Vec<&str> = hooks
        .iter()
        .map(|e| e.field("cuda_visible_devices").and_then(|v| v.as_str()).unwrap())
        .collect();
    assert_eq!(exported, masks);
}

#[test]
fn memory_allocation_audit_matches_case4_placement() {
    // Paper Fig. 9 Case 4: under the Process Allocated Memory strategy the
    // third job goes to the least-loaded device (GPU 0, racon's 60 MiB)
    // instead of scattering.
    let (_cluster, mut app, _exec) = testbed(AllocationPolicy::MemoryBased);
    let bonito = pinned_tool("bonito_dev1", "bonito basecaller", "1", "case_pacbio");
    app.install_tool_xml(&bonito, &MacroLibrary::new()).unwrap();
    app.submit("racon_dev0", &ParamDict::new()).unwrap();
    app.submit("bonito_dev1", &ParamDict::new()).unwrap();
    app.submit("bonito_dev1", &ParamDict::new()).unwrap();

    let allocs = app.recorder().events_named("gyan.allocation.decision");
    let last = allocs.last().unwrap();
    assert_eq!(last.field("policy").and_then(|v| v.as_str()), Some("memory_based"));
    assert_eq!(last.field("cuda_visible_devices").and_then(|v| v.as_str()), Some("0"));
    assert_eq!(last.field("reason").and_then(|v| v.as_str()), Some("all_busy_least_memory"));
    // Observed inputs: per-device memory at decision time (driver 63 MiB +
    // racon 60 MiB on GPU 0; bonito's 2.7 GB footprint on GPU 1).
    let gpu0 = last.field("gpu0_mem_mib").and_then(|v| v.as_f64()).unwrap();
    let gpu1 = last.field("gpu1_mem_mib").and_then(|v| v.as_f64()).unwrap();
    assert!(gpu0 < gpu1, "GPU 0 ({gpu0} MiB) observed lighter than GPU 1 ({gpu1} MiB)");
}

#[test]
fn cpu_fallback_is_audited_with_its_reason() {
    // A GPU tool on a GPU-less node: the rule must fall back to the CPU
    // destination and the audit must say why.
    let cluster = GpuCluster::cpu_only_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    install_gyan(&mut app, &cluster, GyanConfig::default());
    app.install_tool_xml(
        &pinned_tool("racon_dev0", "racon_gpu", "0", "case_pacbio"),
        &MacroLibrary::new(),
    )
    .unwrap();
    let id = app.submit("racon_dev0", &ParamDict::new()).unwrap();
    assert_eq!(app.job(id).unwrap().destination_id.as_deref(), Some("local_cpu"));

    let rule = &app.recorder().events_named("gyan.rule.decision")[0];
    assert_eq!(rule.field("requires_gpu").and_then(|v| v.as_f64()), Some(1.0));
    assert_eq!(rule.field("device_count").and_then(|v| v.as_f64()), Some(0.0));
    assert_eq!(rule.field("destination").and_then(|v| v.as_str()), Some("local_cpu"));
    assert_eq!(rule.field("reason").and_then(|v| v.as_str()), Some("no_gpus_on_node"));

    // No allocation ran; the hook recorded the job as GPU-disabled.
    assert!(app.recorder().events_named("gyan.allocation.decision").is_empty());
    let hook = &app.recorder().events_named("gyan.hook.export")[0];
    assert_eq!(hook.field("gpu_enabled").and_then(|v| v.as_f64()), Some(0.0));
    assert!(hook.field("cuda_visible_devices").is_none());
}

#[test]
fn prometheus_exposition_parses_and_pool_gauges_drain_to_zero() {
    let (_cluster, mut app, exec) = testbed(AllocationPolicy::ProcessId);
    app.submit("racon_dev0", &ParamDict::new()).unwrap();
    app.submit("count_reads", &ParamDict::new()).unwrap();

    // Run three more jobs through a queue engine sharing the app's
    // recorder: they are app jobs too, so the app counters read 5.
    let config = QueueConfig { workers: 2, ..QueueConfig::default() };
    let mut engine = QueueEngine::new(app, exec, config);
    for _ in 0..3 {
        engine.submit_async("alice", "count_reads", &ParamDict::new()).unwrap();
    }
    engine.run_until_idle();

    let text = engine.app().recorder().metrics().render_prometheus();
    let samples = parse_prometheus(&text).expect("exposition parses");
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition:\n{text}"))
            .value
    };
    assert_eq!(value(JOBS_SUBMITTED_COUNTER), 5.0);
    assert_eq!(value(JOBS_OK_COUNTER), 5.0);
    assert_eq!(value(JOBS_EXECUTED_COUNTER), 3.0);
    // Once drained, the queue gauges read zero again.
    assert_eq!(value(QUEUE_DEPTH_GAUGE), 0.0);
    assert_eq!(value(WORKERS_BUSY_GAUGE), 0.0);
    assert_eq!(value("galaxy_pool_queue_wait_seconds_count"), 3.0);
}

#[test]
fn merged_chrome_trace_encloses_gpu_work_in_the_job_span() {
    let (cluster, mut app, exec) = testbed(AllocationPolicy::ProcessId);
    let monitor = UsageMonitor::start_with_interval(&cluster, 0.5);
    let gpu_job = app.submit("racon_dev0", &ParamDict::new()).unwrap();
    app.submit("count_reads", &ParamDict::new()).unwrap();
    let samples = monitor.stop();
    assert!(!samples.is_empty(), "virtual-clock advances produced monitor samples");

    let trace = exec.trace_for_job(gpu_job).expect("GPU job left a kernel/DMA trace");
    assert!(!trace.events().is_empty());
    let export = gyan::export_run(app.recorder(), &[(gpu_job, trace)], &samples);

    // The trace document parses and carries every track class.
    let doc = obs::json::parse(&export.chrome_trace).expect("chrome trace parses");
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    assert!(!events.is_empty());
    for line in export.jsonl.lines() {
        obs::json::parse(line).expect("jsonl line parses");
    }

    let merged = gyan::merged_chrome_trace(
        app.recorder(),
        &[(gpu_job, exec.trace_for_job(gpu_job).unwrap())],
        &samples,
    );
    let job_track = format!("galaxy/job {gpu_job}");
    assert!(merged.tracks().contains(&job_track));
    assert!(merged.tracks().contains(&"gyan/decisions".to_string()));
    assert!(merged.tracks().contains(&"usage".to_string()));

    // Enclosure: every kernel/DMA interval falls inside the job span.
    let completes = merged.complete_events();
    let job = completes
        .iter()
        .find(|e| e.name == "galaxy.job" && e.track == job_track)
        .expect("job span on its own track");
    let gpu_events: Vec<_> = completes.iter().filter(|e| e.track.starts_with("gpu")).collect();
    assert!(!gpu_events.is_empty(), "kernel/DMA intervals present");
    for ev in gpu_events {
        assert!(
            job.start_s <= ev.start_s && ev.start_s + ev.dur_s <= job.start_s + job.dur_s,
            "{} [{}, {}] escapes job span [{}, {}]",
            ev.name,
            ev.start_s,
            ev.start_s + ev.dur_s,
            job.start_s,
            job.start_s + job.dur_s,
        );
    }
}

#[test]
fn telemetry_export_is_deterministic_across_runs() {
    let run = || {
        let (cluster, mut app, exec) = testbed(AllocationPolicy::ProcessId);
        let monitor = UsageMonitor::start_with_interval(&cluster, 0.5);
        let gpu_job = app.submit("racon_dev0", &ParamDict::new()).unwrap();
        app.submit("count_reads", &ParamDict::new()).unwrap();
        let samples = monitor.stop();
        let trace = exec.trace_for_job(gpu_job).unwrap();
        let export = gyan::export_run(app.recorder(), &[(gpu_job, trace)], &samples);
        (export.jsonl, export.prometheus, export.chrome_trace)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0, "JSONL log identical under virtual time");
    assert_eq!(a.1, b.1, "Prometheus exposition identical");
    assert_eq!(a.2, b.2, "merged Chrome trace identical");
}
