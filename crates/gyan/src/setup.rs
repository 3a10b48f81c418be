//! One-call installation of GYAN into a Galaxy application.

use crate::allocation::AllocationPolicy;
use crate::container_gpu::{DockerGpuMutator, SingularityGpuMutator};
use crate::footprint::{FootprintRegistry, MemoryHint};
use crate::orchestrator::{GyanHook, NodePlacer, Placer};
use crate::reservations::LeaseTable;
use crate::rules::{dynamic_destination, RULE_NAME};
use galaxy::app::TimeSource;
use galaxy::queue::AdvanceableClock;
use galaxy::GalaxyApp;
use gpusim::{GpuCluster, VirtualClock};

/// Adapter exposing the simulator's virtual clock as Galaxy's time source
/// — and, for the queue engine's wave-barrier time charging, as an
/// advanceable clock.
pub struct ClusterTime(VirtualClock);

impl ClusterTime {
    /// Wrap a (shared) virtual clock handle.
    pub fn new(clock: VirtualClock) -> Self {
        ClusterTime(clock)
    }
}

impl TimeSource for ClusterTime {
    fn now(&self) -> f64 {
        self.0.now()
    }
}

impl AdvanceableClock for ClusterTime {
    fn now(&self) -> f64 {
        self.0.now()
    }

    fn advance_to(&self, t: f64) {
        self.0.advance_to(t);
    }
}

/// The shipped job conf's GPU destinations: the ids on which the hook
/// lets a job use GPUs.
const GPU_DESTINATIONS: [&str; 3] = ["local_gpu", "docker_gpu", "singularity_gpu"];

/// Options for [`install_gyan`].
#[derive(Debug, Clone)]
pub struct GyanConfig {
    /// Multi-GPU device allocation strategy.
    pub policy: AllocationPolicy,
    /// Destination id the dynamic rule picks for GPU jobs.
    pub gpu_destination: String,
    /// Destination id for CPU fallback.
    pub cpu_destination: String,
    /// Memory-hint resolution mode: [`MemoryHint::Static`] reproduces the
    /// paper's fixed-hint behaviour; [`MemoryHint::Learned`] right-sizes
    /// from the footprint registry once profiles converge.
    pub memory_hint: MemoryHint,
}

impl Default for GyanConfig {
    fn default() -> Self {
        GyanConfig {
            policy: AllocationPolicy::ProcessId,
            gpu_destination: "local_gpu".to_string(),
            cpu_destination: "local_cpu".to_string(),
            memory_hint: MemoryHint::Static,
        }
    }
}

impl GyanConfig {
    /// Default configuration but routing GPU jobs to the Docker
    /// destination (the paper's containerized experiments).
    pub fn containerized() -> Self {
        GyanConfig {
            gpu_destination: "docker_gpu".to_string(),
            cpu_destination: "docker_cpu".to_string(),
            ..Self::default()
        }
    }
}

/// Install GYAN on the paper's single node into `app`: [`install`] over
/// a [`NodePlacer`] that places through a fresh [`LeaseTable`], routing
/// to `config`'s destinations.
///
/// Returns the lease table so callers can inspect reservations, or hand
/// [`LeaseTable::discard_listener`] to a `QueueEngine` so leases of plans
/// a discarded wave skips are released too.
pub fn install_gyan(app: &mut GalaxyApp, cluster: &GpuCluster, config: GyanConfig) -> LeaseTable {
    let table = LeaseTable::new();
    let placer = NodePlacer {
        cluster: cluster.clone(),
        policy: config.policy,
        table: table.clone(),
        recorder: app.recorder().clone(),
    };
    install(
        app,
        cluster.clock(),
        placer,
        &config.gpu_destination,
        &config.cpu_destination,
        GPU_DESTINATIONS,
        config.memory_hint,
    );
    table
}

/// Install GYAN over any [`Placer`] — the single node ([`install_gyan`])
/// or a fleet (`fleet::install_fleet`) — into `app`: registers the one
/// dynamic destination rule ([`dynamic_destination`], GPU tools `placer`
/// can host → `gpu_destination`, every other job → `cpu_destination`)
/// and the [`GyanHook`] over the same `placer`, which treats
/// `gpu_destinations` as the destinations where jobs may use GPUs. Adds
/// both container GPU mutators, and makes `clock` the app's time source
/// and the recorder's clock.
///
/// Telemetry is wired end to end: the rule audits into the app's
/// [`obs::Recorder`], and the hook into the placer's, so with a placer
/// built on the app's recorder every decision and reservation record
/// lands in the same log as the job spans, stamped in deterministic
/// virtual time. The operations plane dumps the recorder's recent
/// history (its flight window) on demand.
///
/// Returns the [`FootprintRegistry`] the hook feeds and the rule reads;
/// in [`MemoryHint::Learned`] mode the learned tool-wide p95 replaces the
/// static hint in the rule's admission check, and the hook also answers
/// the queue engine's footprint-revised resubmission from it, so a failed
/// attempt can retry with a bigger budget before falling back to CPU.
pub fn install(
    app: &mut GalaxyApp,
    clock: &VirtualClock,
    placer: impl Placer + Clone + 'static,
    gpu_destination: &str,
    cpu_destination: &str,
    gpu_destinations: impl IntoIterator<Item = impl Into<String>>,
    memory_hint: MemoryHint,
) -> FootprintRegistry {
    let recorder_clock = clock.clone();
    app.recorder().set_clock(move || recorder_clock.now());

    let footprint = FootprintRegistry::new();
    let rule = dynamic_destination(
        placer.clone(),
        gpu_destination,
        cpu_destination,
        footprint.clone(),
        memory_hint,
        app.recorder().clone(),
    );
    app.register_rule(RULE_NAME, rule);
    app.add_hook(Box::new(GyanHook::new(placer, gpu_destinations, footprint.clone(), memory_hint)));
    app.add_mutator(Box::new(DockerGpuMutator));
    app.add_mutator(Box::new(SingularityGpuMutator));
    app.set_time_source(Box::new(ClusterTime(clock.clone())));
    footprint
}

#[cfg(test)]
mod tests {
    use super::*;
    use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
    use galaxy::params::ParamDict;
    use galaxy::tool::macros::MacroLibrary;

    const GPU_TOOL: &str = r#"<tool id="racon_gpu" name="Racon">
      <requirements><requirement type="compute">gpu</requirement></requirements>
      <command>#if $__galaxy_gpu_enabled__ == "true"
racon_gpu $input
#else
racon $input
#end if
</command>
      <inputs><param name="input" type="data" value="reads.fq"/></inputs>
      <outputs><data name="out" format="fasta"/></outputs>
    </tool>"#;

    #[test]
    fn end_to_end_gpu_mapping_through_app() {
        let cluster = GpuCluster::k80_node();
        let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
        app.install_tool_xml(GPU_TOOL, &MacroLibrary::new()).unwrap();
        install_gyan(&mut app, &cluster, GyanConfig::default());

        let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
        let job = app.job(id).unwrap();
        assert_eq!(job.destination_id.as_deref(), Some("local_gpu"));
        assert_eq!(job.env_var(crate::GALAXY_GPU_ENABLED), Some("true"));
        assert_eq!(job.env_var(crate::CUDA_VISIBLE_DEVICES), Some("0,1"));
        // The wrapper's #if took the GPU branch.
        assert_eq!(job.command_line.as_deref(), Some("racon_gpu reads.fq"));
    }

    #[test]
    fn end_to_end_cpu_fallback_without_gpus() {
        let cluster = GpuCluster::cpu_only_node();
        let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
        app.install_tool_xml(GPU_TOOL, &MacroLibrary::new()).unwrap();
        install_gyan(&mut app, &cluster, GyanConfig::default());

        let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
        let job = app.job(id).unwrap();
        assert_eq!(job.destination_id.as_deref(), Some("local_cpu"));
        assert_eq!(job.env_var(crate::GALAXY_GPU_ENABLED), Some("false"));
        assert_eq!(job.command_line.as_deref(), Some("racon reads.fq"));
    }

    #[test]
    fn virtual_clock_drives_job_timestamps() {
        let cluster = GpuCluster::k80_node();
        cluster.clock().advance(42.0);
        let mut app = GalaxyApp::new(JobConfig::from_xml(GYAN_JOB_CONF).unwrap());
        app.install_tool_xml(GPU_TOOL, &MacroLibrary::new()).unwrap();
        install_gyan(&mut app, &cluster, GyanConfig::default());
        let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
        assert_eq!(app.job(id).unwrap().submit_time, Some(42.0));
    }
}
