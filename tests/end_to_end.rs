//! End-to-end integration: the full Fig. 2 pipeline with GYAN installed —
//! tool XML parse → dynamic destination mapping → GPU allocation → env
//! export → command render → (containerized) execution → history.

use galaxy::history::DatasetState;
use galaxy::params::ParamDict;
use galaxy::tool::macros::MacroLibrary;
use galaxy::{GalaxyApp, JobState};
use gpusim::GpuCluster;
use gyan::setup::GyanConfig;
use seqtools::{DatasetSpec, ToolExecutor};
use std::sync::Arc;

mod common;

fn tiny_racon_spec() -> DatasetSpec {
    DatasetSpec {
        name: "it_racon",
        genome_len: 2_000,
        n_reads: 16,
        read_len: 1_500,
        ..DatasetSpec::alzheimers_nfl()
    }
}

fn tiny_bonito_spec() -> DatasetSpec {
    DatasetSpec {
        name: "it_fast5",
        genome_len: 1_500,
        n_reads: 2,
        read_len: 300,
        ..DatasetSpec::acinetobacter_pittii()
    }
}

const RACON_WRAPPER: &str = r#"<tool id="racon_gpu" name="Racon">
  <requirements>
    <requirement type="compute">gpu</requirement>
    <container type="docker">gulsumgudukbay/racon_dockerfile</container>
  </requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
racon_gpu -t $threads it_racon > out.fa
#else
racon -t $threads it_racon > out.fa
#end if
]]></command>
  <inputs><param name="threads" type="integer" value="2"/></inputs>
  <outputs><data name="consensus" format="fasta"/></outputs>
</tool>"#;

const BONITO_WRAPPER: &str = r#"<tool id="bonito" name="Bonito">
  <requirements><requirement type="compute">gpu</requirement></requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
bonito basecaller dna_r9.4.1 it_fast5 > calls.fa
#else
bonito basecaller --device=cpu dna_r9.4.1 it_fast5 > calls.fa
#end if
]]></command>
  <outputs><data name="basecalls" format="fasta"/></outputs>
</tool>"#;

fn build_app(cluster: &GpuCluster, config: GyanConfig) -> (GalaxyApp, Arc<ToolExecutor>) {
    let (mut app, executor) =
        common::build(cluster, config, &[tiny_racon_spec(), tiny_bonito_spec()]);
    let lib = MacroLibrary::new();
    app.install_tool_xml(RACON_WRAPPER, &lib).unwrap();
    app.install_tool_xml(BONITO_WRAPPER, &lib).unwrap();
    (app, executor)
}

#[test]
fn gpu_job_runs_on_gpu_destination_with_device_mask() {
    let cluster = GpuCluster::k80_node();
    let (mut app, executor) = build_app(&cluster, GyanConfig::default());
    let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
    let job = app.job(id).unwrap();
    assert_eq!(job.state(), JobState::Ok);
    assert_eq!(job.destination_id.as_deref(), Some("local_gpu"));
    assert_eq!(job.env_var("GALAXY_GPU_ENABLED"), Some("true"));
    assert_eq!(job.env_var("CUDA_VISIBLE_DEVICES"), Some("0,1"));
    assert!(job.command_line.as_deref().unwrap().starts_with("racon_gpu"));
    assert!(job.runtime().unwrap() > 0.0);
    // The GPU run produced an NVProf profile with the POA kernels.
    let prof = executor.profiler_for_job(id).expect("profiler recorded");
    assert!(prof.gpu_entry("generatePOAKernel").is_some());
    // Output landed in the history.
    let datasets = app.history().datasets_for_job(id);
    assert_eq!(datasets.len(), 1);
    assert_eq!(datasets[0].state, DatasetState::Ok);
    assert!(datasets[0].content.starts_with(">consensus"));
}

#[test]
fn same_tool_falls_back_to_cpu_without_gpus() {
    let cluster = GpuCluster::cpu_only_node();
    let (mut app, _executor) = build_app(&cluster, GyanConfig::default());
    let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
    let job = app.job(id).unwrap();
    assert_eq!(job.state(), JobState::Ok);
    assert_eq!(job.destination_id.as_deref(), Some("local_cpu"));
    assert_eq!(job.env_var("GALAXY_GPU_ENABLED"), Some("false"));
    assert!(job.command_line.as_deref().unwrap().starts_with("racon "));
    assert!(job.env_var("CUDA_VISIBLE_DEVICES").is_none());
}

#[test]
fn containerized_gpu_job_gets_gpus_flag_and_overhead() {
    let cluster = GpuCluster::k80_node();
    let (mut app, executor) = build_app(&cluster, GyanConfig::containerized());
    let launched = common::record_launches(&mut app, executor);
    let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
    let job = app.job(id).unwrap();
    assert_eq!(job.destination_id.as_deref(), Some("docker_gpu"));
    // The executor was handed the mutated docker command line.
    let launched = launched.lock().unwrap();
    let launch =
        launched.iter().find(|argv| argv.contains("docker run")).expect("docker launch recorded");
    assert!(launch.contains("--gpus all"));
    assert!(launch.contains("CUDA_VISIBLE_DEVICES=0,1"));
    assert!(launch.contains("gulsumgudukbay/racon_dockerfile"));
}

#[test]
fn bonito_gpu_and_cpu_paths_give_identical_basecalls() {
    let gpu_cluster = GpuCluster::k80_node();
    let (mut gpu_app, _e1) = build_app(&gpu_cluster, GyanConfig::default());
    let gpu_id = gpu_app.submit("bonito", &ParamDict::new()).unwrap();

    let cpu_cluster = GpuCluster::cpu_only_node();
    let (mut cpu_app, _e2) = build_app(&cpu_cluster, GyanConfig::default());
    let cpu_id = cpu_app.submit("bonito", &ParamDict::new()).unwrap();

    let gpu_out = &gpu_app.history().datasets_for_job(gpu_id)[0].content;
    let cpu_out = &cpu_app.history().datasets_for_job(cpu_id)[0].content;
    assert!(!gpu_out.is_empty());
    assert_eq!(gpu_out, cpu_out, "device choice must not change results");
    // ... but it must change runtime, massively.
    let gpu_t = gpu_app.job(gpu_id).unwrap().runtime().unwrap();
    let cpu_t = cpu_app.job(cpu_id).unwrap().runtime().unwrap();
    assert!(cpu_t / gpu_t > 20.0, "speedup only {:.1}", cpu_t / gpu_t);
}

#[test]
fn sequential_jobs_reuse_freed_gpus() {
    let cluster = GpuCluster::k80_node();
    let (mut app, _executor) = build_app(&cluster, GyanConfig::default());
    for _ in 0..3 {
        let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
        // Without linger mode every job releases its devices, so each run
        // sees the full node.
        assert_eq!(app.job(id).unwrap().env_var("CUDA_VISIBLE_DEVICES"), Some("0,1"));
    }
    assert_eq!(cluster.available_devices(), vec![0, 1]);
}

#[test]
fn virtual_clock_orders_job_timestamps() {
    let cluster = GpuCluster::k80_node();
    let (mut app, _executor) = build_app(&cluster, GyanConfig::default());
    let a = app.submit("racon_gpu", &ParamDict::new()).unwrap();
    let b = app.submit("racon_gpu", &ParamDict::new()).unwrap();
    let job_a = app.job(a).unwrap();
    let job_b = app.job(b).unwrap();
    assert!(job_a.end_time.unwrap() <= job_b.start_time.unwrap());
    assert!(job_b.end_time.unwrap() > job_a.end_time.unwrap());
}
