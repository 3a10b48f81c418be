//! Failure injection: the stack must degrade cleanly when the GPU is
//! out of memory, images are missing, executables are unknown, or a
//! workflow step dies.

mod common;

use galaxy::params::ParamDict;
use galaxy::queue::{DagStep, DagWorkflow, QueueConfig, QueueEngine};
use galaxy::tool::macros::MacroLibrary;
use galaxy::{GalaxyApp, GalaxyError, JobState};
use gpusim::{GpuCluster, GpuProcess};
use gyan::setup::GyanConfig;
use seqtools::ToolExecutor;
use std::sync::Arc;

fn build(cluster: &GpuCluster, config: GyanConfig) -> (GalaxyApp, Arc<ToolExecutor>) {
    common::build(
        cluster,
        config,
        &[common::tiny_fast5("fail_fast5", 1_200), common::tiny_racon("fail_racon")],
    )
}

const BONITO_DEV1: &str = r#"<tool id="bonito_dev1">
  <requirements><requirement type="compute" version="1">gpu</requirement></requirements>
  <command>bonito basecaller dna_r9.4.1 fail_fast5 > out</command>
</tool>"#;

#[test]
fn gpu_oom_fails_the_job_not_the_framework() {
    let cluster = GpuCluster::k80_node();
    // Hog device 1 so bonito's 512 MiB workspace cannot fit; pin every
    // other device away by hogging device 0 too (so the allocator cannot
    // dodge the failure).
    let total = cluster.with_device(0, |d| d.fb_total_mib()).unwrap();
    cluster.attach_process(0, GpuProcess::compute(1, "hog0", total - 200)).unwrap();
    cluster.attach_process(1, GpuProcess::compute(2, "hog1", total - 200)).unwrap();

    let (mut app, _exec) = build(&cluster, GyanConfig::default());
    app.install_tool_xml(BONITO_DEV1, &MacroLibrary::new()).unwrap();
    let err = app.submit("bonito_dev1", &ParamDict::new()).unwrap_err();
    assert!(matches!(err, GalaxyError::ToolFailed(_)), "{err}");
    let job = app.jobs()[0];
    assert_eq!(job.state(), JobState::Error);
    assert!(job.stderr.contains("out of memory"), "stderr: {}", job.stderr);
    // The failed context must not leak its process onto the devices.
    let procs0 = cluster.with_device(0, |d| d.processes().len()).unwrap();
    let procs1 = cluster.with_device(1, |d| d.processes().len()).unwrap();
    assert_eq!((procs0, procs1), (1, 1), "only the hogs remain");
}

#[test]
fn missing_container_image_fails_mapping_cleanly() {
    let cluster = GpuCluster::k80_node();
    let (mut app, _exec) = build(&cluster, GyanConfig::containerized());
    let wrapper = r#"<tool id="ghost_tool">
      <requirements>
        <requirement type="compute">gpu</requirement>
        <container type="docker">nosuch/image:latest</container>
      </requirements>
      <command>racon_gpu fail_racon</command>
    </tool>"#;
    app.install_tool_xml(wrapper, &MacroLibrary::new()).unwrap();
    let err = app.submit("ghost_tool", &ParamDict::new()).unwrap_err();
    assert!(matches!(err, GalaxyError::Container(_)), "{err}");
    assert_eq!(app.jobs()[0].state(), JobState::Error);
}

#[test]
fn unknown_executable_exits_127() {
    let cluster = GpuCluster::k80_node();
    let (mut app, _exec) = build(&cluster, GyanConfig::default());
    let wrapper = r#"<tool id="typo">
      <command>racoon --help</command>
    </tool>"#;
    app.install_tool_xml(wrapper, &MacroLibrary::new()).unwrap();
    let err = app.submit("typo", &ParamDict::new()).unwrap_err();
    assert!(matches!(err, GalaxyError::ToolFailed(_)));
    let job = app.jobs()[0];
    assert_eq!(job.exit_code, Some(127));
    assert!(job.stderr.contains("command not found"));
}

#[test]
fn workflow_aborts_after_failed_gpu_step() {
    let cluster = GpuCluster::k80_node();
    let total = cluster.with_device(0, |d| d.fb_total_mib()).unwrap();
    cluster.attach_process(0, GpuProcess::compute(1, "hog0", total - 200)).unwrap();
    cluster.attach_process(1, GpuProcess::compute(2, "hog1", total - 200)).unwrap();

    let (mut app, exec) = build(&cluster, GyanConfig::default());
    app.install_tool_xml(BONITO_DEV1, &MacroLibrary::new()).unwrap();
    let echo = r#"<tool id="report"><command>echo $msg</command>
      <inputs><param name="msg" type="text" value="done"/></inputs></tool>"#;
    app.install_tool_xml(echo, &MacroLibrary::new()).unwrap();

    // A sequential workflow: the report step waits on the GPU step.
    let wf = DagWorkflow::new("doomed")
        .step(DagStep::new("bonito_dev1"))
        .step(DagStep::new("report").with_param("msg", "never").after(0));
    let mut engine = QueueEngine::new(app, exec, QueueConfig::default());
    let handle = engine.submit_dag("alice", wf).unwrap();
    engine.run_until_idle();
    let run = engine.workflow_report(handle).unwrap();
    assert_eq!(run.failed_step, Some(0));
    assert!(run.job_ids[1].is_none(), "dependent never materialized");
    assert_eq!(engine.app().jobs().len(), 1, "second step never submitted");
}

#[test]
fn gpu_failure_falls_back_next_submission_still_works() {
    // After an OOM failure, freeing the hogs lets the next job succeed —
    // the framework carries no poisoned state.
    let cluster = GpuCluster::k80_node();
    let total = cluster.with_device(0, |d| d.fb_total_mib()).unwrap();
    cluster.attach_process(0, GpuProcess::compute(1, "hog0", total - 200)).unwrap();
    cluster.attach_process(1, GpuProcess::compute(2, "hog1", total - 200)).unwrap();
    let (mut app, _exec) = build(&cluster, GyanConfig::default());
    app.install_tool_xml(BONITO_DEV1, &MacroLibrary::new()).unwrap();
    assert!(app.submit("bonito_dev1", &ParamDict::new()).is_err());

    cluster.detach_process(0, 1).unwrap();
    cluster.detach_process(1, 2).unwrap();
    let id = app.submit("bonito_dev1", &ParamDict::new()).unwrap();
    assert_eq!(app.job(id).unwrap().state(), JobState::Ok);
}

#[test]
fn monitor_survives_failed_jobs() {
    let cluster = GpuCluster::k80_node();
    let monitor = gyan::UsageMonitor::start(&cluster);
    let total = cluster.with_device(0, |d| d.fb_total_mib()).unwrap();
    cluster.attach_process(0, GpuProcess::compute(1, "hog0", total - 200)).unwrap();
    cluster.attach_process(1, GpuProcess::compute(2, "hog1", total - 200)).unwrap();
    let (mut app, _exec) = build(&cluster, GyanConfig::default());
    app.install_tool_xml(BONITO_DEV1, &MacroLibrary::new()).unwrap();
    let _ = app.submit("bonito_dev1", &ParamDict::new());
    cluster.clock().advance(5.0);
    let samples = monitor.stop();
    assert!(!samples.is_empty());
    // The hog memory is visible in the trace.
    assert!(samples.last().unwrap().devices[0].fb_used_mib > total - 300);
}
