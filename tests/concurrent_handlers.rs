//! Concurrency integration: handler worker threads run several GPU tools
//! *simultaneously* on the simulated cluster; the monitor and nvidia-smi
//! queries observe genuinely overlapping occupancy. (The queue engine
//! runs a wave inline; these tests drive the executor from real threads
//! because they are about interleavings.)

use galaxy::containers::ImageRegistry;
use galaxy::job::conf::Destination;
use galaxy::job::Job;
use galaxy::params::ParamDict;
use galaxy::runners::local::LocalRunner;
use galaxy::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
use galaxy::tool::macros::MacroLibrary;
use galaxy::tool::wrapper::parse_tool;
use gpusim::GpuCluster;
use seqtools::{DatasetSpec, ToolExecutor};
use std::collections::HashMap;
use std::sync::Mutex;

fn racon_plan(cluster: &GpuCluster, job_id: u64, mask: &str) -> ExecutionPlan {
    let tool = parse_tool(
        r#"<tool id="racon_gpu">
          <requirements><requirement type="compute">gpu</requirement></requirements>
          <command>racon_gpu -t 2 conc_racon > out</command>
        </tool>"#,
        &MacroLibrary::new(),
    )
    .unwrap();
    let mut job = Job::new(job_id, "racon_gpu", ParamDict::new());
    job.set_env("GALAXY_GPU_ENABLED", "true");
    job.set_env("CUDA_VISIBLE_DEVICES", mask);
    let dest =
        Destination { id: "local_gpu".into(), runner: "local".into(), params: ParamDict::new() };
    let _ = cluster; // plans carry no cluster; the executor holds it
    LocalRunner.build_plan(&tool, &job, &dest, &ImageRegistry::new(), &[], &[], None).unwrap()
}

/// Execute `plans` on `workers` scoped threads pulling from one shared
/// queue, the way Galaxy handler workers do; results keyed by job id.
fn run_on_workers(
    executor: &ToolExecutor,
    plans: Vec<ExecutionPlan>,
    workers: usize,
) -> HashMap<u64, ExecutionResult> {
    let queue = Mutex::new(plans.into_iter());
    let results = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let Some(plan) = queue.lock().unwrap().next() else { break };
                let result = executor.execute(&plan);
                results.lock().unwrap().insert(plan.job_id, result);
            });
        }
    });
    results.into_inner().unwrap()
}

#[test]
fn pool_runs_gpu_jobs_concurrently_and_releases_devices() {
    let cluster = GpuCluster::k80_node();
    let executor = ToolExecutor::new(&cluster);
    executor.register_dataset(DatasetSpec {
        name: "conc_racon",
        genome_len: 2_000,
        n_reads: 16,
        read_len: 1_500,
        ..DatasetSpec::alzheimers_nfl()
    });

    // Watch for overlapping occupancy: any sample with both devices
    // hosting a process proves concurrency.
    let monitor = gyan::UsageMonitor::start_with_interval(&cluster, 0.5);

    let plans = vec![
        racon_plan(&cluster, 1, "0"),
        racon_plan(&cluster, 2, "1"),
        racon_plan(&cluster, 3, "0"),
        racon_plan(&cluster, 4, "1"),
    ];
    let results = run_on_workers(&executor, plans, 4);

    assert_eq!(results.len(), 4);
    for (id, result) in &results {
        assert_eq!(result.exit_code, 0, "job {id}: {}", result.stderr);
        assert!(result.stdout.starts_with(">consensus"));
        assert!(result.pid.is_some());
    }
    // Distinct processes.
    let mut pids: Vec<u32> = results.values().filter_map(|r| r.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    assert_eq!(pids.len(), 4);

    // All devices released afterwards.
    assert_eq!(cluster.available_devices(), vec![0, 1]);

    // At least one sample saw both devices occupied simultaneously.
    let samples = monitor.stop();
    let overlapping = samples.iter().any(|s| {
        s.devices.iter().all(|d| d.fb_used_mib > 63) // above idle reservation
    });
    assert!(overlapping, "no overlapping GPU occupancy observed in {} samples", samples.len());
}

#[test]
fn deterministic_results_under_concurrency() {
    // The same plan executed serially and on concurrent workers must yield
    // the identical consensus: virtual-time interleaving never leaks into
    // the computation itself.
    let run = |workers: usize| -> String {
        let cluster = GpuCluster::k80_node();
        let executor = ToolExecutor::new(&cluster);
        executor.register_dataset(DatasetSpec {
            name: "conc_racon",
            genome_len: 2_000,
            n_reads: 16,
            read_len: 1_500,
            ..DatasetSpec::alzheimers_nfl()
        });
        let plans = vec![racon_plan(&cluster, 1, "0"), racon_plan(&cluster, 2, "1")];
        let results = run_on_workers(&executor, plans, workers);
        let mut outs: Vec<String> = results.values().map(|r| r.stdout.clone()).collect();
        outs.sort();
        outs.join("\n")
    };
    assert_eq!(run(1), run(4));
}
