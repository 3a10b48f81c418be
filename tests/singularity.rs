//! Singularity end-to-end: GYAN's `--nv` injection and bind-flag
//! stripping through the full app pipeline (paper §IV-B, second half).

use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
use galaxy::params::ParamDict;
use galaxy::runners::container_cmd::VolumeBind;
use galaxy::tool::macros::MacroLibrary;
use galaxy::{GalaxyApp, JobState};
use gpusim::GpuCluster;
use gyan::setup::{install_gyan, GyanConfig};
use seqtools::{DatasetSpec, ToolExecutor};
use std::sync::Arc;

mod common;

const TOOL: &str = r#"<tool id="racon_gpu">
  <requirements>
    <requirement type="compute">gpu</requirement>
    <container type="singularity">library://racon-gpu.sif</container>
  </requirements>
  <command><![CDATA[
#if $__galaxy_gpu_enabled__ == "true"
racon_gpu -t 2 sing_racon > out.fa
#else
racon -t 2 sing_racon > out.fa
#end if
]]></command>
  <outputs><data name="consensus" format="fasta"/></outputs>
</tool>"#;

fn build() -> (GpuCluster, GalaxyApp, common::Plans) {
    let cluster = GpuCluster::k80_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let registry = galaxy::containers::ImageRegistry::with_paper_images();
    registry.publish(
        "library://racon-gpu.sif",
        galaxy::containers::ImageMeta { size_mb: 800.0, gpu_capable: true },
    );
    app.set_registry(registry);
    app.add_volume(VolumeBind::rw("/galaxy/data"));
    app.add_volume(VolumeBind::ro("/galaxy/refs"));
    let executor = Arc::new(ToolExecutor::new(&cluster));
    executor.register_dataset(DatasetSpec {
        name: "sing_racon",
        genome_len: 1_500,
        n_reads: 12,
        read_len: 1_200,
        ..DatasetSpec::alzheimers_nfl()
    });
    let launched = common::record_launches(&mut app, executor);
    // Route GPU jobs to the singularity destination.
    let config =
        GyanConfig { gpu_destination: "singularity_gpu".to_string(), ..GyanConfig::default() };
    install_gyan(&mut app, &cluster, config);
    app.install_tool_xml(TOOL, &MacroLibrary::new()).unwrap();
    (cluster, app, launched)
}

#[test]
fn singularity_launch_gets_nv_and_loses_bind_modes() {
    let (_cluster, mut app, launched) = build();
    let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
    let job = app.job(id).unwrap();
    assert_eq!(job.state(), JobState::Ok);
    assert_eq!(job.destination_id.as_deref(), Some("singularity_gpu"));

    let cmd = common::launch_containing(&launched, "singularity exec")
        .expect("singularity launch recorded");
    assert!(cmd.contains("--nv"), "{cmd}");
    assert!(cmd.contains("SINGULARITYENV_GALAXY_GPU_ENABLED=true"), "{cmd}");
    assert!(cmd.contains("SINGULARITYENV_CUDA_VISIBLE_DEVICES=0,1"), "{cmd}");
    assert!(cmd.contains("library://racon-gpu.sif"), "{cmd}");
    // GYAN strips the rw/ro bind modes Singularity ≥3.1 rejects with --nv.
    assert!(cmd.contains("-B /galaxy/data:/galaxy/data"), "{cmd}");
    assert!(!cmd.contains(":rw"), "{cmd}");
    assert!(!cmd.contains(":ro"), "{cmd}");
}

#[test]
fn cpu_fallback_keeps_singularity_bind_modes() {
    // On a GPU-less node the same tool runs on the CPU destination
    // (bare-metal here), and a CPU-containerized run elsewhere would keep
    // its rw/ro flags — asserted at the mutator level; end-to-end we
    // check the fallback itself.
    let cluster = GpuCluster::cpu_only_node();
    let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
    let executor = Arc::new(ToolExecutor::new(&cluster));
    executor.register_dataset(DatasetSpec {
        name: "sing_racon",
        genome_len: 1_500,
        n_reads: 12,
        read_len: 1_200,
        ..DatasetSpec::alzheimers_nfl()
    });
    app.set_executor(Box::new(executor));
    let config =
        GyanConfig { gpu_destination: "singularity_gpu".to_string(), ..GyanConfig::default() };
    install_gyan(&mut app, &cluster, config);
    app.install_tool_xml(TOOL, &MacroLibrary::new()).unwrap();
    let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
    assert_eq!(app.job(id).unwrap().destination_id.as_deref(), Some("local_cpu"));
}
