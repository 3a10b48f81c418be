//! Helpers shared across the integration suites (pulled in per-binary
//! with `mod common;`).
//!
//! Each test binary compiles its own copy and no suite uses every
//! helper, so the module opts out of dead-code warnings wholesale.
#![allow(dead_code)]

use galaxy::containers::ImageRegistry;
use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
use galaxy::tool::macros::MacroLibrary;
use galaxy::GalaxyApp;
use gpusim::GpuCluster;
use gyan::allocation::AllocationPolicy;
use gyan::setup::{install_gyan, GyanConfig};
use seqtools::{DatasetSpec, ToolExecutor};
use std::sync::{Arc, Mutex};

/// Laptop-scale PacBio-style dataset (racon input). The name is
/// per-suite so dataset lookups never collide across binaries.
pub fn tiny_racon(name: &'static str) -> DatasetSpec {
    DatasetSpec {
        name,
        genome_len: 1_500,
        n_reads: 12,
        read_len: 1_200,
        ..DatasetSpec::alzheimers_nfl()
    }
}

/// Laptop-scale fast5-style dataset (bonito input). `genome_len` stays a
/// parameter because the suites deliberately size it differently.
pub fn tiny_fast5(name: &'static str, genome_len: usize) -> DatasetSpec {
    DatasetSpec {
        name,
        genome_len,
        n_reads: 2,
        read_len: 250,
        ..DatasetSpec::acinetobacter_pittii()
    }
}

/// A Galaxy app wired the standard way: the shipped GYAN job conf, the
/// paper's image registry, a seqtools executor with `datasets`
/// registered, and GYAN installed with `config`.
pub fn build(
    cluster: &GpuCluster,
    config: GyanConfig,
    datasets: &[DatasetSpec],
) -> (GalaxyApp, Arc<ToolExecutor>) {
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    app.set_registry(ImageRegistry::with_paper_images());
    let executor = Arc::new(ToolExecutor::new(cluster));
    for spec in datasets {
        executor.register_dataset(spec.clone());
    }
    app.set_executor(Box::new(executor.clone()));
    install_gyan(&mut app, cluster, config);
    (app, executor)
}

/// Every plan an executor was handed, in launch order.
pub type Plans = Arc<Mutex<Vec<ExecutionPlan>>>;

/// Install `executor` on `app` behind [`record_plans`]: what the app
/// launched, for a test to read.
pub fn record_launches(app: &mut GalaxyApp, executor: impl JobExecutor + 'static) -> Plans {
    let (executor, plans) = record_plans(executor);
    app.set_executor(Box::new(executor));
    plans
}

/// The argv of the first recorded launch that contains `needle`, joined
/// by spaces.
pub fn launch_containing(plans: &Plans, needle: &str) -> Option<String> {
    let plans = plans.lock().unwrap();
    plans.iter().map(|p| p.command_parts.join(" ")).find(|argv| argv.contains(needle))
}

/// `executor` behind a wrapper that records each plan before running it —
/// a queue engine takes its executor directly.
pub fn record_plans(executor: impl JobExecutor + 'static) -> (Arc<dyn JobExecutor>, Plans) {
    struct Recording<E> {
        inner: E,
        plans: Plans,
    }
    impl<E: JobExecutor> JobExecutor for Recording<E> {
        fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
            self.plans.lock().unwrap().push(plan.clone());
            self.inner.execute(plan)
        }
    }
    let plans = Plans::default();
    (Arc::new(Recording { inner: executor, plans: plans.clone() }), plans)
}

/// The sorted keys of a plan's exported environment.
pub fn env_keys(plan: &ExecutionPlan) -> Vec<&str> {
    let mut keys: Vec<&str> = plan.env.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys
}

/// Wrapper XML for a GPU tool pinned to `gpu_ids` via the
/// `<requirement version>` attribute.
pub fn pinned_tool(id: &str, executable: &str, gpu_ids: &str, dataset: &str) -> String {
    format!(
        r#"<tool id="{id}" name="{id}">
          <requirements><requirement type="compute" version="{gpu_ids}">gpu</requirement></requirements>
          <command>{executable} -t 2 {dataset} > out</command>
          <outputs><data name="out" format="fasta"/></outputs>
        </tool>"#
    )
}

/// The paper's multi-GPU case-study testbed (§VI-C): a K80 node, a
/// lingering executor (jobs hold their devices until released), the
/// `case_pacbio` / `case_fast5` datasets, and the two pinned wrappers
/// `racon_dev0` / `bonito_dev1`.
pub fn testbed(policy: AllocationPolicy) -> (GpuCluster, GalaxyApp, Arc<ToolExecutor>) {
    let cluster = GpuCluster::k80_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let executor = Arc::new(ToolExecutor::new(&cluster).with_linger());
    executor.register_dataset(tiny_racon("case_pacbio"));
    executor.register_dataset(tiny_fast5("case_fast5", 1_000));
    app.set_executor(Box::new(executor.clone()));
    install_gyan(&mut app, &cluster, GyanConfig { policy, ..GyanConfig::default() });
    let lib = MacroLibrary::new();
    app.install_tool_xml(&pinned_tool("racon_dev0", "racon_gpu", "0", "case_pacbio"), &lib)
        .unwrap();
    app.install_tool_xml(&pinned_tool("bonito_dev1", "bonito basecaller", "1", "case_fast5"), &lib)
        .unwrap();
    (cluster, app, executor)
}

/// The `CUDA_VISIBLE_DEVICES` mask exported for job `id`.
pub fn mask(app: &GalaxyApp, id: u64) -> &str {
    app.job(id).unwrap().env_var("CUDA_VISIBLE_DEVICES").unwrap()
}
