//! Footprint-profile loop, end to end through the real stack: learned
//! right-sizing, footprint-revised resubmission ahead of the GPU→CPU
//! ladder, the success-path env scrub, and the `gyan_footprint_*`
//! metrics family.

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::queue::{
    QueueConfig, QueueEngine, ResubmitPolicy, SubmissionState, QUEUE_RESUBMITTED_COUNTER,
};
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::{GpuArch, GpuCluster};
use gyan::footprint::{
    FootprintRegistry, MemoryHint, GALAXY_INPUT_SIZE_MIB_ENV, GPU_MEMORY_BUDGET_ENV,
    GPU_OBSERVED_PEAK_ENV,
};
use gyan::{AllocationPolicy, LeaseTable, NodePlacer};
use loadgen::{LoadExecutor, FAIL_GPU_ENV};

mod common;
use common::{env_keys, record_plans, Plans};

const GPU_TOOL: &str = r#"<tool id="load_gpu" name="Load GPU">
  <requirements><requirement type="compute">gpu</requirement></requirements>
  <command>load_kernel</command>
  <outputs><data name="out" format="txt"/></outputs>
</tool>"#;

/// A wired stack: GYAN with footprint learning on one K80 node, the
/// loadgen executor (which OOM-kills GPU attempts whose declared peak
/// exceeds the granted budget), and `footprint_retries` same-destination
/// retries ahead of the GPU→CPU ladder. The engine's executor records
/// every plan it runs.
fn engine(footprint_retries: u32) -> (QueueEngine, FootprintRegistry, Plans) {
    let cluster = GpuCluster::node(GpuArch::tesla_k80(), 2);
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    app.install_tool_xml(GPU_TOOL, &MacroLibrary::new()).unwrap();
    let placer = NodePlacer {
        cluster: cluster.clone(),
        policy: AllocationPolicy::ProcessId,
        table: LeaseTable::new(),
        recorder: app.recorder().clone(),
    };
    let registry = gyan::setup::install(
        &mut app,
        cluster.clock(),
        placer,
        "local_gpu",
        "local_cpu",
        ["local_gpu"],
        MemoryHint::Learned,
    );
    app.set_executor(Box::new(LoadExecutor));
    let config = QueueConfig {
        workers: 1,
        resubmit: ResubmitPolicy::gpu_to_cpu("local_cpu").with_footprint_retries(footprint_retries),
        ..QueueConfig::default()
    };
    let (executor, plans) = record_plans(LoadExecutor);
    (QueueEngine::new(app, executor, config), registry, plans)
}

fn labeled(reason: &str) -> String {
    format!("{QUEUE_RESUBMITTED_COUNTER}{{reason=\"{reason}\"}}")
}

/// An oversized job OOMs under the 1024 MiB static hint, earns a
/// footprint-revised retry at double the budget on the *same* GPU
/// destination, succeeds there, feeds the profile — and neither an
/// attempt's exports nor the surviving job record carry the retry
/// context.
#[test]
fn oom_earns_a_footprint_retry_and_the_success_path_scrubs_the_env() {
    let (mut engine, registry, plans) = engine(2);
    let handle = engine.submit_async("alice", "load_gpu", &ParamDict::new()).unwrap();
    engine.app_mut().set_job_env(handle.0, GALAXY_INPUT_SIZE_MIB_ENV, "1200");
    engine.app_mut().set_job_env(handle.0, GPU_OBSERVED_PEAK_ENV, "1500");
    engine.run_until_idle();

    assert_eq!(engine.state(handle), Some(SubmissionState::Ok));
    let job = engine.app().job(handle.0).unwrap();
    assert_eq!(job.destination_id.as_deref(), Some("local_gpu"), "no CPU fallback needed");
    // The retry ran under the doubled budget...
    assert_eq!(job.env_var(GPU_MEMORY_BUDGET_ENV), Some("2048"));
    // ...but the success path scrubbed the override and exclusion set
    // (the regression this test pins: a finished job must not carry the
    // retry context of its failed attempts).
    assert_eq!(job.gpu_budget_override_mib, None);
    assert!(job.excluded_nodes.is_empty());

    // Each attempt exported exactly the GPU exports a tool reads plus the
    // submitter's own inputs: 1024 MiB (OOM), then 2048 MiB.
    let plans = plans.lock().unwrap();
    let budgets: Vec<Option<&str>> =
        plans.iter().map(|p| p.env_var(GPU_MEMORY_BUDGET_ENV)).collect();
    assert_eq!(budgets, [Some("1024"), Some("2048")]);
    for plan in plans.iter() {
        assert_eq!(
            env_keys(plan),
            [
                "CUDA_VISIBLE_DEVICES",
                "GALAXY_GPU_ENABLED",
                "GALAXY_GPU_MEMORY_BUDGET_MIB",
                "GALAXY_GPU_OBSERVED_PEAK_MIB",
                "GALAXY_INPUT_SIZE_MIB",
            ]
        );
    }

    let metrics = engine.app().recorder().metrics();
    assert_eq!(metrics.counter_value(&labeled("footprint_revised")), 1);
    assert_eq!(metrics.counter_value(&labeled("fallback")), 0);

    // The successful attempt fed the profile with the observed peak.
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.len(), 1);
    assert_eq!(snapshot[0].tool, "load_gpu");
    assert_eq!(snapshot[0].samples, 1);
    assert!(
        (snapshot[0].peak_mib_max - 1500.0).abs() < 1.0,
        "profile max {}",
        snapshot[0].peak_mib_max
    );
}

/// A fault that is *not* an OOM (the declared peak fit the budget) must
/// not consume footprint retries: the hook declines and the job goes
/// straight down the fallback ladder to CPU.
#[test]
fn non_oom_failures_skip_the_footprint_retry() {
    let (mut engine, _registry, _) = engine(2);
    let handle = engine.submit_async("bob", "load_gpu", &ParamDict::new()).unwrap();
    engine.app_mut().set_job_env(handle.0, GALAXY_INPUT_SIZE_MIB_ENV, "256");
    engine.app_mut().set_job_env(handle.0, GPU_OBSERVED_PEAK_ENV, "300");
    engine.app_mut().set_job_env(handle.0, FAIL_GPU_ENV, "1");
    engine.run_until_idle();

    assert_eq!(engine.state(handle), Some(SubmissionState::Ok));
    let job = engine.app().job(handle.0).unwrap();
    assert_eq!(job.destination_id.as_deref(), Some("local_cpu"));
    let metrics = engine.app().recorder().metrics();
    assert_eq!(metrics.counter_value(&labeled("footprint_revised")), 0);
    assert_eq!(metrics.counter_value(&labeled("fallback")), 1);
}

/// A conclusion that teaches a profile exports the `gyan_footprint_*`
/// family into the app's metrics registry, which `/metrics` serves.
#[test]
fn conclusions_export_the_footprint_family_to_metrics() {
    let (mut engine, registry, _) = engine(2);
    let handle = engine.submit_async("carol", "load_gpu", &ParamDict::new()).unwrap();
    engine.app_mut().set_job_env(handle.0, GALAXY_INPUT_SIZE_MIB_ENV, "512");
    engine.app_mut().set_job_env(handle.0, GPU_OBSERVED_PEAK_ENV, "600");
    engine.run_until_idle();
    assert_eq!(engine.state(handle), Some(SubmissionState::Ok));
    assert_eq!(registry.snapshot().len(), 1);

    let metrics = engine.app().recorder().metrics();
    assert_eq!(metrics.gauge_value("gyan_footprint_profiles"), Some(1.0));
    assert_eq!(
        metrics.gauge_value("gyan_footprint_samples{tool=\"load_gpu\",bucket=\"[512,1024)MiB\"}"),
        Some(1.0)
    );
    let text = metrics.render_prometheus();
    assert!(text.contains("# HELP gyan_footprint_peak_mib_p95"), "{text}");
    assert!(text.contains("gyan_footprint_peak_mib_p95{tool=\"load_gpu\""), "{text}");
}
