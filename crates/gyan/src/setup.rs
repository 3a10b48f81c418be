//! One-call installation of GYAN into a Galaxy application.

use crate::allocation::AllocationPolicy;
use crate::container_gpu::{DockerGpuMutator, SingularityGpuMutator};
use crate::footprint::{
    env_mib, input_mib, FootprintRegistry, MemoryHint, GPU_MEMORY_BUDGET_ENV, GPU_OBSERVED_PEAK_ENV,
};
use crate::orchestrator::{GyanHook, NodePlacer, Placer, DEFAULT_GPU_MEMORY_HINT_MIB};
use crate::reservations::LeaseTable;
use crate::rules::GpuDestinationRule;
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

/// Options for [`install_gyan`].
#[derive(Debug, Clone)]
pub struct GyanConfig {
    /// Multi-GPU device allocation strategy.
    pub policy: AllocationPolicy,
    /// Destination id the dynamic rule picks for GPU jobs.
    pub gpu_destination: String,
    /// Destination id for CPU fallback.
    pub cpu_destination: String,
    /// All destination ids the hook should treat as GPU destinations.
    pub gpu_destinations: Vec<String>,
    /// Name under which the dynamic rule is registered (must match the
    /// `function` param of the dynamic destination in `job_conf.xml`).
    pub rule_name: String,
    /// Memory (MiB) a GPU job is assumed to allocate when its destination
    /// carries no `gpu_memory_hint_mib` param — the pending-load term the
    /// reservation layer feeds the Process Allocated Memory policy.
    pub gpu_memory_hint_mib: u64,
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
            gpu_destinations: vec![
                "local_gpu".to_string(),
                "docker_gpu".to_string(),
                "singularity_gpu".to_string(),
            ],
            rule_name: "gpu_dynamic_destination".to_string(),
            gpu_memory_hint_mib: DEFAULT_GPU_MEMORY_HINT_MIB,
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

    /// Resolve memory hints from learned footprint profiles (default
    /// sample threshold) instead of the static destination hint.
    pub fn with_learned_hints(mut self) -> Self {
        self.memory_hint = MemoryHint::learned();
        self
    }

    /// Derive the configuration from `job_conf.xml` itself, the way a
    /// Galaxy administrator configures GYAN: the *dynamic* destination's
    /// `<param>`s may name the rule function (`function`), the GPU/CPU
    /// destinations (`gpu_destination`, `cpu_destination`), and the
    /// allocation policy (`allocation_policy` = `pid` | `memory`).
    /// Unspecified entries keep their defaults.
    pub fn from_job_conf(config: &galaxy::job::conf::JobConfig) -> Self {
        let mut out = Self::default();
        let dynamic = config.destinations.iter().find(|d| d.is_dynamic());
        let Some(dest) = dynamic else { return out };
        if let Some(f) = dest.rule_function() {
            out.rule_name = f.to_string();
        }
        if let Some(gpu) = dest.params.get("gpu_destination") {
            out.gpu_destination = gpu.to_string();
            if !out.gpu_destinations.contains(&out.gpu_destination) {
                out.gpu_destinations.push(out.gpu_destination.clone());
            }
        }
        if let Some(cpu) = dest.params.get("cpu_destination") {
            out.cpu_destination = cpu.to_string();
        }
        match dest.params.get("allocation_policy") {
            Some("memory") => out.policy = AllocationPolicy::MemoryBased,
            Some("pid") | None => {}
            Some(other) => {
                // Unknown value: keep the default (PID), as Galaxy does
                // for unrecognized destination params.
                let _ = other;
            }
        }
        if let Some(hint) = dest.params.get("gpu_memory_hint_mib").and_then(|v| v.parse().ok()) {
            out.gpu_memory_hint_mib = hint;
        }
        if dest.params.get("memory_hint_mode") == Some("learned") {
            out.memory_hint = MemoryHint::learned();
        }
        out
    }
}

/// Install GYAN into `app`: registers the dynamic destination rule, the
/// orchestration hook (placing through a fresh [`LeaseTable`]), both
/// container GPU mutators, and switches the app's time source to the
/// cluster's virtual clock.
///
/// Telemetry is wired end to end: the app's [`obs::Recorder`] is shared
/// with the rule, the hook, and the lease table (so their decision and
/// reservation audit events land in the same log as the job spans), and
/// its clock is driven by the cluster's virtual clock, making every
/// exported timestamp deterministic. The recorder's flight-recorder ring
/// is enabled (capacity [`crate::ops::DEFAULT_FLIGHT_CAPACITY`]) so the
/// operations plane can dump recent history on demand or on alert.
///
/// Returns the lease table so callers can inspect reservations, or hand
/// [`LeaseTable::discard_listener`] to a `QueueEngine` so leases of plans
/// a discarded wave skips are released too.
pub fn install_gyan(app: &mut GalaxyApp, cluster: &GpuCluster, config: GyanConfig) -> LeaseTable {
    install_gyan_with_footprint(app, cluster, config).0
}

/// [`install_gyan`] also returning the [`FootprintRegistry`] the hook
/// feeds, for ops surfaces (`/api/profiles`) and benches.
pub fn install_gyan_with_footprint(
    app: &mut GalaxyApp,
    cluster: &GpuCluster,
    config: GyanConfig,
) -> (LeaseTable, FootprintRegistry) {
    let recorder = app.recorder().clone();
    let reservations = LeaseTable::new();
    app.register_rule(
        config.rule_name,
        GpuDestinationRule::new(cluster, &config.gpu_destination, &config.cpu_destination)
            .with_recorder(recorder.clone())
            .with_reservations(reservations.clone())
            .into_rule(),
    );
    let footprint = install_hook(
        app,
        cluster.clock(),
        NodePlacer {
            cluster: cluster.clone(),
            policy: config.policy,
            table: reservations.clone(),
            recorder,
        },
        config.gpu_destinations,
        config.gpu_memory_hint_mib,
        config.memory_hint,
    );
    (reservations, footprint)
}

/// Everything [`install_gyan`] and `fleet::install_fleet` share — all but
/// the destination rule: the [`GyanHook`] over `placer`, both container
/// GPU mutators, and `clock` as the app's time source and the recorder's
/// clock (with the flight-recorder ring enabled). Returns the
/// [`FootprintRegistry`] the hook feeds. In [`MemoryHint::Learned`] mode
/// the registry additionally backs a [`galaxy::FootprintAdvisor`] on the
/// app, so the queue engine's footprint-revised resubmission ladder can
/// ask for a bigger budget before falling back to CPU.
pub fn install_hook(
    app: &mut GalaxyApp,
    clock: &VirtualClock,
    placer: impl Placer + 'static,
    gpu_destinations: Vec<String>,
    gpu_memory_hint_mib: u64,
    memory_hint: MemoryHint,
) -> FootprintRegistry {
    let recorder_clock = clock.clone();
    app.recorder().set_clock(move || recorder_clock.now());
    app.recorder().enable_flight(crate::ops::DEFAULT_FLIGHT_CAPACITY);

    let footprint = FootprintRegistry::new();
    if memory_hint != MemoryHint::Static {
        app.set_footprint_advisor(Box::new(footprint_advisor(footprint.clone())));
    }
    app.add_hook(Box::new(GyanHook::new(
        placer,
        gpu_destinations,
        gpu_memory_hint_mib,
        footprint.clone(),
        memory_hint,
    )));
    app.add_mutator(Box::new(DockerGpuMutator));
    app.add_mutator(Box::new(SingularityGpuMutator));
    app.set_time_source(Box::new(ClusterTime(clock.clone())));
    footprint
}

/// The revised-budget advisor the queue engine consults before a
/// footprint-revised resubmission: profile max plus headroom, at least
/// double the budget the failed attempt ran under (read back from the
/// job's `GALAXY_GPU_MEMORY_BUDGET_MIB` / override exports).
///
/// Declines (returns `None`) when the job declares an observed peak
/// that *fit* the failed attempt's budget — the failure wasn't an OOM,
/// so a bigger budget can't fix it and a footprint retry would only
/// delay the fallback ladder.
pub fn footprint_advisor(
    registry: FootprintRegistry,
) -> impl Fn(&galaxy::Job) -> Option<u64> + Send + Sync + 'static {
    move |job: &galaxy::Job| {
        let prev = env_mib(job, galaxy::GALAXY_GPU_BUDGET_OVERRIDE_ENV)
            .or_else(|| env_mib(job, GPU_MEMORY_BUDGET_ENV));
        if let (Some(peak), Some(prev)) = (env_mib(job, GPU_OBSERVED_PEAK_ENV), prev) {
            if peak <= prev {
                return None;
            }
        }
        registry.revised_budget(&job.tool_id, input_mib(job), prev)
    }
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

#[cfg(test)]
mod from_conf_tests {
    use super::*;
    use galaxy::job::conf::JobConfig;

    #[test]
    fn config_read_from_job_conf_params() {
        let conf = JobConfig::from_xml(
            r#"<job_conf>
              <plugins><plugin id="local" type="runner" load="x"/></plugins>
              <destinations default="dyn">
                <destination id="dyn" runner="dynamic">
                  <param id="function">my_gpu_rule</param>
                  <param id="gpu_destination">cluster_gpu</param>
                  <param id="cpu_destination">cluster_cpu</param>
                  <param id="allocation_policy">memory</param>
                </destination>
                <destination id="cluster_gpu" runner="local"/>
                <destination id="cluster_cpu" runner="local"/>
              </destinations>
            </job_conf>"#,
        )
        .unwrap();
        let config = GyanConfig::from_job_conf(&conf);
        assert_eq!(config.rule_name, "my_gpu_rule");
        assert_eq!(config.gpu_destination, "cluster_gpu");
        assert_eq!(config.cpu_destination, "cluster_cpu");
        assert_eq!(config.policy, AllocationPolicy::MemoryBased);
        assert!(config.gpu_destinations.contains(&"cluster_gpu".to_string()));
    }

    #[test]
    fn missing_params_keep_defaults() {
        let conf = JobConfig::from_xml(galaxy::job::conf::GYAN_JOB_CONF).unwrap();
        let config = GyanConfig::from_job_conf(&conf);
        assert_eq!(config.rule_name, "gpu_dynamic_destination");
        assert_eq!(config.gpu_destination, "local_gpu");
        assert_eq!(config.policy, AllocationPolicy::ProcessId);
    }

    #[test]
    fn no_dynamic_destination_is_fine() {
        let conf = JobConfig::from_xml(
            r#"<job_conf>
              <plugins><plugin id="local" type="runner" load="x"/></plugins>
              <destinations default="a"><destination id="a" runner="local"/></destinations>
            </job_conf>"#,
        )
        .unwrap();
        let config = GyanConfig::from_job_conf(&conf);
        assert_eq!(config.gpu_destination, "local_gpu");
    }

    #[test]
    fn bogus_policy_value_keeps_default() {
        let conf = JobConfig::from_xml(
            r#"<job_conf>
              <plugins><plugin id="local" type="runner" load="x"/></plugins>
              <destinations default="dyn">
                <destination id="dyn" runner="dynamic">
                  <param id="allocation_policy">round_robin</param>
                </destination>
              </destinations>
            </job_conf>"#,
        )
        .unwrap();
        assert_eq!(GyanConfig::from_job_conf(&conf).policy, AllocationPolicy::ProcessId);
    }

    #[test]
    fn advisor_declines_when_the_peak_fit_the_budget() {
        use crate::footprint::{
            FootprintRegistry, GALAXY_INPUT_SIZE_MIB_ENV, GPU_MEMORY_BUDGET_ENV,
            GPU_OBSERVED_PEAK_ENV,
        };
        let registry = FootprintRegistry::new();
        let advisor = footprint_advisor(registry);

        let mut job = galaxy::Job::new(1, "racon_gpu", galaxy::params::ParamDict::new());
        job.set_env(GALAXY_INPUT_SIZE_MIB_ENV, "512");
        job.set_env(GPU_MEMORY_BUDGET_ENV, "1024");

        // An OOM (peak above the granted budget) earns a doubled budget
        // even before any profile exists.
        job.set_env(GPU_OBSERVED_PEAK_ENV, "1500");
        assert_eq!(advisor(&job), Some(2048));

        // A failure whose peak *fit* the budget wasn't memory-caused:
        // no revised budget, straight to the fallback ladder.
        job.set_env(GPU_OBSERVED_PEAK_ENV, "700");
        assert_eq!(advisor(&job), None);
    }
}
