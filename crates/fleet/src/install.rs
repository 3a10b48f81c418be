//! Galaxy wiring: [`Fleet`] as the hook's placement seam, and
//! [`install_fleet`].
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
use galaxy::job::conf::JobConfig;
use galaxy::job::Job;
use galaxy::tool::Tool;
use galaxy::GalaxyApp;
use gyan::footprint::MemoryHint;
use gyan::orchestrator::{static_memory_hint, Placed, Placer, DEFAULT_GPU_MEMORY_HINT_MIB};
use obs::Recorder;

/// Options for [`install_fleet`] (the fleet-level `GyanConfig`).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Destination id the dynamic rule picks for GPU jobs.
    pub gpu_destination: String,
    /// Destination id for CPU fallback.
    pub cpu_destination: String,
    /// All destination ids the hook treats as GPU destinations.
    pub gpu_destinations: Vec<String>,
    /// Name under which the dynamic rule is registered.
    pub rule_name: String,
    /// Memory (MiB) a GPU job is assumed to allocate when its destination
    /// carries no `gpu_memory_hint_mib` param.
    pub gpu_memory_hint_mib: u64,
    /// Memory-hint resolution mode: [`MemoryHint::Static`] always uses
    /// the hint above; [`MemoryHint::Learned`] right-sizes from footprint
    /// profiles once they converge — admitting borderline jobs to shared
    /// leases the static hint would have rejected, and letting the queue
    /// engine revise budgets before the blind GPU→CPU fallback.
    pub memory_hint: MemoryHint,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            gpu_destination: "fleet_gpu".to_string(),
            cpu_destination: "local_cpu".to_string(),
            gpu_destinations: vec!["fleet_gpu".to_string(), "local_gpu".to_string()],
            rule_name: "gpu_dynamic_destination".to_string(),
            gpu_memory_hint_mib: DEFAULT_GPU_MEMORY_HINT_MIB,
            memory_hint: MemoryHint::Static,
        }
    }
}

impl FleetConfig {
    /// Resolve memory hints from learned footprint profiles (default
    /// sample threshold) instead of the static hint.
    pub fn with_learned_hints(mut self) -> Self {
        self.memory_hint = MemoryHint::learned();
        self
    }
}

impl Placer for Fleet {
    fn place(&self, job: &Job, tool: &Tool, memory_hint_mib: u64) -> Option<Placed> {
        // Placement-aware resubmission: the engine exports the nodes
        // previous attempts failed on; phase-1a filters them out.
        let excluded: Vec<String> = job
            .env_var(galaxy::GALAXY_EXCLUDED_NODES_ENV)
            .map(parse_excluded_nodes)
            .unwrap_or_default();
        let placement = Fleet::place(
            self,
            &PlacementRequest {
                job_id: job.id,
                // The queue engine exports the fair-share user before
                // preparing the plan; direct GalaxyApp::submit has none.
                user: job.env_var(galaxy::GALAXY_USER_ENV).unwrap_or(""),
                tool_id: &tool.id,
                requested: &tool.requested_gpu_ids(),
                memory_hint_mib,
                excluded_nodes: &excluded,
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
}

/// Split the comma-joined `GALAXY_EXCLUDED_NODES` export back into node
/// names.
fn parse_excluded_nodes(raw: &str) -> Vec<String> {
    raw.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect()
}

/// Install the fleet into `app`: registers a dynamic destination rule
/// (GPU tools the fleet can host → `gpu_destination`, everything else →
/// `cpu_destination`) and a placement advisor, then wires the rest —
/// hook, container GPU mutators, the fleet's shared clock as time source
/// — through [`gyan::setup::install_hook`], exactly like a single node.
///
/// The app's recorder is clocked on the fleet timeline with the
/// flight-recorder ring enabled. Note the fleet must have been built
/// with [`crate::FleetBuilder::recorder`] for placement and hook
/// audits/metrics — `install_fleet` cannot retrofit a recorder into an
/// already-built fleet's shards.
///
/// In [`MemoryHint::Learned`] mode the learned tool-wide p95 replaces the
/// static hint in the dynamic rule's and the placement advisor's
/// admission checks (per-job context does not exist there).
pub fn install_fleet(app: &mut GalaxyApp, fleet: &Fleet, config: FleetConfig) {
    let footprint = gyan::setup::install_hook(
        app,
        fleet.clock(),
        fleet.clone(),
        config.gpu_destinations.clone(),
        config.gpu_memory_hint_mib,
        config.memory_hint,
    );
    // Whether any placeable shard outside `excluded` admits the tool:
    // the hint resolved as the hook will resolve it (tool-wide learned
    // profile over per-destination param over config default), so the
    // rule never routes a job to `fleet_gpu` that placement is then
    // forced to reject — and, in learned mode, borderline tools the
    // static hint would have turned away are admitted.
    let hosts = {
        let fleet = fleet.clone();
        let default_hint = config.gpu_memory_hint_mib;
        let mode = config.memory_hint;
        move |tool_id: &str, conf: &JobConfig, dest_id: &str, excluded: &[String]| {
            let learned = match mode {
                MemoryHint::Static => None,
                MemoryHint::Learned { min_samples } => {
                    footprint.estimate_tool(tool_id, min_samples)
                }
            };
            let hint = learned
                .unwrap_or_else(|| static_memory_hint(conf.destination(dest_id), default_hint).0);
            fleet.candidates(tool_id, hint, excluded).next().is_some()
        }
    };

    let rule_hosts = hosts.clone();
    let gpu_dest = config.gpu_destination;
    let cpu_dest = config.cpu_destination;
    app.register_rule(
        config.rule_name,
        Box::new(move |tool: &Tool, _job: &Job, conf: &JobConfig| {
            let on_fleet = tool.requires_gpu() && rule_hosts(&tool.id, conf, &gpu_dest, &[]);
            Ok(if on_fleet { gpu_dest.clone() } else { cpu_dest.clone() })
        }),
    );
    // Placement-aware resubmission seam: the queue engine asks, per
    // failed attempt, whether the fleet still hosts the tool on this
    // destination once the failed nodes are excluded — retrying on the
    // fleet when yes, falling down the ladder (CPU) when no.
    let advisor_conf = app.config().clone();
    let gpu_dests = config.gpu_destinations;
    app.set_placement_advisor(Box::new(move |tool_id, dest_id, excluded| {
        gpu_dests.iter().any(|d| d == dest_id) && hosts(tool_id, &advisor_conf, dest_id, excluded)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeClass;
    use crate::rules::{DestinationRule, DestinationRules};
    use galaxy::job::conf::Destination;
    use galaxy::params::ParamDict;
    use galaxy::runners::{JobConclusion, JobHook};
    use galaxy::tool::macros::MacroLibrary;
    use galaxy::tool::wrapper::parse_tool;
    use gyan::footprint::{FootprintRegistry, GALAXY_INPUT_SIZE_MIB_ENV, GPU_MEMORY_BUDGET_ENV};
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
    fn hook(
        fleet: &Fleet,
        default_hint_mib: u64,
        registry: &FootprintRegistry,
        mode: MemoryHint,
    ) -> GyanHook {
        GyanHook::new(fleet.clone(), ["fleet_gpu"], default_hint_mib, registry.clone(), mode)
    }

    fn static_hook(fleet: &Fleet) -> GyanHook {
        hook(fleet, DEFAULT_GPU_MEMORY_HINT_MIB, &FootprintRegistry::new(), MemoryHint::Static)
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
        let rules =
            DestinationRules::new().with(DestinationRule::any("bonito*").on_classes(["a100"]));
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
        let static_hook = hook(&fleet, 20_000, &registry, MemoryHint::Static);
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        job.set_env(GALAXY_INPUT_SIZE_MIB_ENV, "1000");
        static_hook.before_dispatch(&mut job, &gpu_tool("racon_gpu"), &dest("fleet_gpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("false"), "static hint rejects");

        let learned_hook = hook(&fleet, 20_000, &registry, MemoryHint::learned());
        let mut job = Job::new(2, "racon_gpu", ParamDict::new());
        job.set_env(GALAXY_INPUT_SIZE_MIB_ENV, "1000");
        learned_hook.before_dispatch(&mut job, &gpu_tool("racon_gpu"), &dest("fleet_gpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("true"), "learned hint admits");
        let budget: u64 = job.env_var(GPU_MEMORY_BUDGET_ENV).unwrap().parse().unwrap();
        assert!((3900..=4100).contains(&budget), "budget {budget}");
        assert_eq!(registry.pending_count(), 1);
        learned_hook.after_conclude(2, JobConclusion::Ok);
        assert_eq!(registry.pending_count(), 0);
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
                <destination id="fleet_gpu" runner="local"/>
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
        assert_eq!(job.destination_id.as_deref(), Some("fleet_gpu"));
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
                <destination id="fleet_gpu" runner="local"/>
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
        let rules =
            DestinationRules::new().with(DestinationRule::any("bonito*").on_classes(["a100"]));
        let fleet = Fleet::builder().nodes(NodeClass::k80(), 2).rules(rules).build();
        install_fleet(&mut app, &fleet, FleetConfig::default());

        let id = app.submit("bonito", &ParamDict::new()).unwrap();
        let job = app.job(id).unwrap();
        assert_eq!(job.destination_id.as_deref(), Some("local_cpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("false"));
    }
}
