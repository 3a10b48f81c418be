//! Galaxy wiring: [`Fleet`] as the hook's placement seam and as the
//! lease view the stock SLO rules read, and [`install_fleet`].
//!
//! A fleet is wired exactly like a single node — `gyan::GyanHook`
//! resolves the memory hint, exports the environment and keeps the
//! footprint books — except that "pick devices and hold them" is the
//! fleet's two-phase placement: pick a node, then lease minors on that
//! node's shard. On success the job's environment carries
//! `CUDA_VISIBLE_DEVICES` (shard-local minors) *and* `GALAXY_NODE` (the
//! chosen node's name) — the queue engine copies the latter onto the
//! jobs ledger so every snapshot is node-labeled.

use crate::fleet::Fleet;
use crate::placement::PlacementRequest;
use galaxy::job::Job;
use galaxy::tool::Tool;
use galaxy::GalaxyApp;
use gyan::footprint::MemoryHint;
use gyan::orchestrator::{Placed, Placer};
use gyan::LeaseView;
use obs::Recorder;

/// The destination the dynamic rule picks for every job the fleet does
/// not host: the CPU destination of the shipped job conf
/// (`galaxy::job::conf::GYAN_JOB_CONF`).
const CPU_DESTINATION: &str = "local_cpu";

/// Options for [`install_fleet`] (the fleet-level `GyanConfig`).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Destination id the dynamic rule picks for GPU jobs.
    pub gpu_destination: String,
    /// All destination ids the hook treats as GPU destinations.
    pub gpu_destinations: Vec<String>,
    /// Memory-hint resolution mode: [`MemoryHint::Static`] always uses
    /// the destination's `gpu_memory_hint_mib` param (or
    /// [`gyan::orchestrator::DEFAULT_GPU_MEMORY_HINT_MIB`] without one);
    /// [`MemoryHint::Learned`] right-sizes from footprint
    /// profiles once they converge — admitting borderline jobs to shared
    /// leases the static hint would have rejected, and letting the queue
    /// engine revise budgets before the blind GPU→CPU fallback.
    pub memory_hint: MemoryHint,
}

impl Default for FleetConfig {
    fn default() -> Self {
        // The GPU destination of the shipped job conf
        // (`galaxy::job::conf::GYAN_JOB_CONF`).
        FleetConfig {
            gpu_destination: "local_gpu".to_string(),
            gpu_destinations: vec!["local_gpu".to_string()],
            memory_hint: MemoryHint::Static,
        }
    }
}

impl Placer for Fleet {
    fn place(&self, job: &Job, tool: &Tool, memory_hint_mib: u64) -> Option<Placed> {
        // The queue engine writes the user and the nodes previous
        // attempts failed on (phase-1a filters them out) onto the job.
        let placement = Fleet::place(
            self,
            &PlacementRequest {
                job_id: job.id,
                user: &job.user,
                tool_id: &tool.id,
                requested: &tool.requested_gpu_ids(),
                memory_hint_mib,
                excluded_nodes: &job.excluded_nodes,
            },
        )?;
        Some(Placed {
            cuda_visible_devices: placement.allocation.cuda_visible_devices,
            node: Some(placement.node_name),
        })
    }

    fn release(&self, job_id: u64, why: &str) {
        Fleet::release(self, job_id, why);
    }

    fn recorder(&self) -> Option<&Recorder> {
        Fleet::recorder(self)
    }

    fn hosts_outside(&self, tool_id: &str, memory_hint_mib: u64, excluded: &[String]) -> bool {
        self.candidates(tool_id, memory_hint_mib, excluded).next().is_some()
    }
}

/// The fleet's oversubscription degree is its worst shard's, so
/// `gyan::default_alert_rules` arms the same five rules over a fleet as
/// over a single node.
impl LeaseView for Fleet {
    fn max_leases_per_device(&self) -> usize {
        self.shards().iter().map(|s| s.table.max_leases_per_device()).max().unwrap_or(0)
    }
}

/// Install the fleet into `app` through [`gyan::setup::install`], exactly
/// like a single node: the one dynamic destination rule (GPU tools a
/// placeable node admits → `gpu_destination`, everything else → the
/// shipped conf's `local_cpu`), and the one hook placing across nodes,
/// which also answers the queue engine's placement-aware retries through
/// the fleet's [`Placer::hosts_outside`].
///
/// The app's recorder is clocked on the fleet timeline. Note the fleet
/// must have been built with [`crate::FleetBuilder::recorder`] for
/// placement and hook audits/metrics — `install_fleet` cannot retrofit a
/// recorder into an already-built fleet's shards.
pub fn install_fleet(app: &mut GalaxyApp, fleet: &Fleet, config: FleetConfig) {
    gyan::setup::install(
        app,
        fleet.clock(),
        fleet.clone(),
        &config.gpu_destination,
        CPU_DESTINATION,
        config.gpu_destinations,
        config.memory_hint,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeClass;
    use crate::rules::DestinationRules;
    use galaxy::job::conf::Destination;
    use galaxy::params::ParamDict;
    use galaxy::runners::{JobConclusion, JobHook};
    use galaxy::tool::macros::MacroLibrary;
    use galaxy::tool::wrapper::parse_tool;
    use gyan::footprint::{
        FootprintRegistry, GALAXY_INPUT_SIZE_MIB_ENV, GPU_MEMORY_BUDGET_ENV, GPU_OBSERVED_PEAK_ENV,
    };
    use gyan::{GyanHook, CUDA_VISIBLE_DEVICES, GALAXY_GPU_ENABLED};

    fn gpu_tool(id: &str) -> Tool {
        parse_tool(
            &format!(
                r#"<tool id="{id}"><requirements>
                     <requirement type="compute">gpu</requirement>
                   </requirements><command>{id}</command></tool>"#
            ),
            &MacroLibrary::new(),
        )
        .unwrap()
    }

    fn dest(id: &str) -> Destination {
        Destination { id: id.into(), runner: "local".into(), params: ParamDict::new() }
    }

    /// The one hook, placing over the fleet seam.
    fn hook(fleet: &Fleet, registry: &FootprintRegistry, mode: MemoryHint) -> GyanHook {
        GyanHook::new(fleet.clone(), ["fleet_gpu"], registry.clone(), mode)
    }

    fn static_hook(fleet: &Fleet) -> GyanHook {
        hook(fleet, &FootprintRegistry::new(), MemoryHint::Static)
    }

    #[test]
    fn hook_exports_node_and_mask_then_releases() {
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 2).build();
        let hook = static_hook(&fleet);
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        hook.before_dispatch(&mut job, &gpu_tool("racon_gpu"), &dest("fleet_gpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("true"));
        assert_eq!(job.env_var(galaxy::GALAXY_NODE_ENV), Some("k80-000"));
        assert_eq!(job.env_var(CUDA_VISIBLE_DEVICES), Some("0,1"));
        assert_eq!(fleet.total_lease_count(), 2);
        hook.after_conclude(1, JobConclusion::Ok);
        assert_eq!(fleet.total_lease_count(), 0);
    }

    #[test]
    fn rejected_placement_falls_back_to_cpu_env() {
        // bonito only runs on a100; this fleet has none.
        let rules = DestinationRules::parse("tool=bonito* classes=a100").unwrap();
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 1).rules(rules).build();
        let hook = static_hook(&fleet);
        let mut job = Job::new(1, "bonito", ParamDict::new());
        hook.before_dispatch(&mut job, &gpu_tool("bonito"), &dest("fleet_gpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("false"));
        assert_eq!(fleet.total_lease_count(), 0);
    }

    #[test]
    fn learned_hint_admits_what_the_static_hint_rejected() {
        // The k80 shard holds 2 devices x 12 GiB. A 20 GiB static hint
        // makes placement impossible; the learned profile knows the tool
        // really peaks near 4 GiB and rescues the admission.
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 1).build();
        let registry = FootprintRegistry::new();
        for i in 0..8 {
            registry.observe("racon_gpu", 1000, 4000.0, 10.0, i as f64);
        }
        let mut fleet_gpu = dest("fleet_gpu");
        fleet_gpu.params.set(gyan::orchestrator::GPU_MEMORY_HINT_PARAM, "20000");
        let static_hook = hook(&fleet, &registry, MemoryHint::Static);
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        job.set_env(GALAXY_INPUT_SIZE_MIB_ENV, "1000");
        static_hook.before_dispatch(&mut job, &gpu_tool("racon_gpu"), &fleet_gpu);
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("false"), "static hint rejects");

        let learned_hook = hook(&fleet, &registry, MemoryHint::Learned);
        let mut job = Job::new(2, "racon_gpu", ParamDict::new());
        job.set_env(GALAXY_INPUT_SIZE_MIB_ENV, "1000");
        job.set_env(GPU_OBSERVED_PEAK_ENV, "4000");
        learned_hook.before_dispatch(&mut job, &gpu_tool("racon_gpu"), &fleet_gpu);
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("true"), "learned hint admits");
        let budget: u64 = job.env_var(GPU_MEMORY_BUDGET_ENV).unwrap().parse().unwrap();
        assert!((3900..=4100).contains(&budget), "budget {budget}");
        learned_hook.after_conclude(2, JobConclusion::Ok);
        // The hook noted the dispatch and concluded it: the peak is learned.
        assert_eq!(registry.snapshot()[0].samples, 9);
    }

    #[test]
    fn install_fleet_routes_and_places_end_to_end() {
        let conf = galaxy::job::conf::JobConfig::from_xml(
            r#"<job_conf>
              <plugins><plugin id="local" type="runner" load="x"/></plugins>
              <destinations default="dyn">
                <destination id="dyn" runner="dynamic">
                  <param id="function">gpu_dynamic_destination</param>
                </destination>
                <destination id="local_gpu" runner="local"/>
                <destination id="local_cpu" runner="local"/>
              </destinations>
            </job_conf>"#,
        )
        .unwrap();
        let mut app = GalaxyApp::new(conf);
        app.install_tool_xml(
            r#"<tool id="racon_gpu"><requirements>
                 <requirement type="compute">gpu</requirement>
               </requirements><command>racon_gpu</command></tool>"#,
            &MacroLibrary::new(),
        )
        .unwrap();
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 1).nodes(NodeClass::a100(), 1).build();
        install_fleet(&mut app, &fleet, FleetConfig::default());

        let id = app.submit("racon_gpu", &ParamDict::new()).unwrap();
        let job = app.job(id).unwrap();
        assert_eq!(job.destination_id.as_deref(), Some("local_gpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("true"));
        // Least-loaded ties break to node 0 (the K80 node).
        assert_eq!(job.env_var(galaxy::GALAXY_NODE_ENV), Some("k80-000"));
        // submit() runs the full lifecycle: the conclusion released the
        // booking and its leases.
        assert_eq!(fleet.node_of(id), None);
        assert_eq!(fleet.total_lease_count(), 0);
    }

    #[test]
    fn install_fleet_sends_unhostable_tools_to_cpu() {
        let conf = galaxy::job::conf::JobConfig::from_xml(
            r#"<job_conf>
              <plugins><plugin id="local" type="runner" load="x"/></plugins>
              <destinations default="dyn">
                <destination id="dyn" runner="dynamic">
                  <param id="function">gpu_dynamic_destination</param>
                </destination>
                <destination id="local_gpu" runner="local"/>
                <destination id="local_cpu" runner="local"/>
              </destinations>
            </job_conf>"#,
        )
        .unwrap();
        let mut app = GalaxyApp::new(conf);
        app.install_tool_xml(
            r#"<tool id="bonito"><requirements>
                 <requirement type="compute">gpu</requirement>
               </requirements><command>bonito</command></tool>"#,
            &MacroLibrary::new(),
        )
        .unwrap();
        let rules = DestinationRules::parse("tool=bonito* classes=a100").unwrap();
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 2).rules(rules).build();
        install_fleet(&mut app, &fleet, FleetConfig::default());

        let id = app.submit("bonito", &ParamDict::new()).unwrap();
        let job = app.job(id).unwrap();
        assert_eq!(job.destination_id.as_deref(), Some("local_cpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("false"));
    }
}
