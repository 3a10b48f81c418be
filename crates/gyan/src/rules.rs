//! The dynamic destination rule — the paper's Challenge-II solution.
//!
//! GYAN adds a *job rule* that "obtains the system GPU availability and
//! the number of GPUs using the pynvml Python library. If the tool's
//! wrapper file has the compute requirement of type 'gpu' and if there is
//! at least one GPU available, then the destination is configured to be
//! 'local GPU'" — otherwise the job is switched to a CPU destination in a
//! user-agnostic fashion.
//!
//! One rule serves every topology. "Is there a GPU for this tool" is
//! asked of the [`Placer`] the hook places through
//! ([`Placer::hosts_outside`], nothing excluded): the single node
//! ([`crate::NodePlacer`]) answers "this node has a GPU", a fleet "a
//! placeable node admits the tool at its memory hint".

use crate::footprint::{FootprintRegistry, MemoryHint};
use crate::orchestrator::{admission_hint, Placer};
use galaxy::app::DynamicRule;
use obs::{Key, Recorder, Value};
use std::sync::Arc;

/// Name under which the dynamic rule is registered: the `function` param
/// of the dynamic destination in the shipped `job_conf.xml`.
pub const RULE_NAME: &str = "gpu_dynamic_destination";

/// The [`RULE_NAME`] rule: a GPU tool goes to `gpu_destination` when
/// `placer` has a host that admits it at the hint the hook will resolve
/// ([`admission_hint`] of `gpu_destination`), every other job to
/// `cpu_destination`. So the rule never commits a job that placement is
/// then forced to reject, and in [`MemoryHint::Learned`] mode a tool the
/// static hint would turn away is admitted once its profile converges.
///
/// Each evaluation writes one `gyan.rule.decision` record to `recorder`
/// with what the rule read and chose: `tool`, `job_id`, `requires_gpu`,
/// `memory_hint_mib` (GPU tools only), `destination` and `reason`
/// (`gpu_tool_and_gpu_available`, `tool_has_no_gpu_requirement` or
/// `no_gpu_host`). A destination id the job conf lacks is the caller's
/// error: `GalaxyApp::map_destination` rejects it.
pub fn dynamic_destination(
    placer: impl Placer + 'static,
    gpu_destination: &str,
    cpu_destination: &str,
    footprint: FootprintRegistry,
    memory_hint: MemoryHint,
    recorder: Recorder,
) -> DynamicRule {
    let (gpu_destination, cpu_destination): (Arc<str>, Arc<str>) =
        (gpu_destination.into(), cpu_destination.into());
    Box::new(move |tool, job, config| {
        let requires_gpu = tool.requires_gpu();
        let hint_mib = requires_gpu.then(|| {
            let destination = config.destination(&gpu_destination);
            admission_hint(&footprint, memory_hint, &tool.id, destination)
        });
        let (chosen, reason) = match hint_mib {
            None => (&cpu_destination, "tool_has_no_gpu_requirement"),
            Some(mib) if placer.hosts_outside(&tool.id, mib, &[]) => {
                (&gpu_destination, "gpu_tool_and_gpu_available")
            }
            Some(_) => (&cpu_destination, "no_gpu_host"),
        };
        let head: [(&str, Value); 3] = [
            ("tool", Value::from(&*tool.id)),
            ("job_id", job.id.into()),
            ("requires_gpu", requires_gpu.into()),
        ];
        let tail: [(&str, Value); 2] = [
            ("destination", Value::from(&**chosen)),
            // A literal, longer than an in-place value: by reference.
            ("reason", Key::from(reason).into()),
        ];
        let hint = hint_mib.map(|mib| ("memory_hint_mib", Value::from(mib)));
        recorder.event("gyan.rule.decision", head.into_iter().chain(hint).chain(tail));
        Ok(Arc::clone(chosen))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationPolicy;
    use crate::orchestrator::{NodePlacer, GPU_MEMORY_HINT_PARAM};
    use crate::reservations::LeaseTable;
    use galaxy::job::conf::{JobConfig, GYAN_JOB_CONF};
    use galaxy::job::Job;
    use galaxy::params::ParamDict;
    use galaxy::tool::macros::MacroLibrary;
    use galaxy::tool::wrapper::parse_tool;
    use galaxy::tool::Tool;
    use galaxy::GalaxyError;
    use gpusim::{GpuCluster, GpuProcess};

    fn gpu_tool() -> Tool {
        parse_tool(
            r#"<tool id="racon_gpu"><requirements>
                 <requirement type="compute">gpu</requirement>
               </requirements><command>racon_gpu</command></tool>"#,
            &MacroLibrary::new(),
        )
        .unwrap()
    }

    fn cpu_tool() -> Tool {
        parse_tool(r#"<tool id="sort"><command>sort</command></tool>"#, &MacroLibrary::new())
            .unwrap()
    }

    fn config() -> JobConfig {
        JobConfig::from_xml(GYAN_JOB_CONF).unwrap()
    }

    fn job() -> Job {
        Job::new(1, "t", ParamDict::new())
    }

    fn placer(c: &GpuCluster, table: &LeaseTable) -> NodePlacer {
        NodePlacer {
            cluster: c.clone(),
            policy: AllocationPolicy::ProcessId,
            table: table.clone(),
            recorder: Recorder::new(),
        }
    }

    /// A `local_gpu`/`local_cpu` rule over the single node `c`, with static
    /// hints, auditing into `rec`.
    fn rule_on(c: &GpuCluster, rec: &Recorder) -> DynamicRule {
        let placer = placer(c, &LeaseTable::new());
        let footprint = FootprintRegistry::new();
        dynamic_destination(
            placer,
            "local_gpu",
            "local_cpu",
            footprint,
            MemoryHint::Static,
            rec.clone(),
        )
    }

    fn rule(c: &GpuCluster) -> DynamicRule {
        rule_on(c, &Recorder::new())
    }

    #[test]
    fn gpu_tool_on_gpu_node_goes_to_gpu_destination() {
        let c = GpuCluster::k80_node();
        assert_eq!(&*rule(&c)(&gpu_tool(), &job(), &config()).unwrap(), "local_gpu");
    }

    #[test]
    fn cpu_tool_always_goes_to_cpu_destination() {
        let c = GpuCluster::k80_node();
        assert_eq!(&*rule(&c)(&cpu_tool(), &job(), &config()).unwrap(), "local_cpu");
    }

    #[test]
    fn gpu_tool_on_gpuless_node_falls_back_to_cpu() {
        // "if GPUs are unavailable, the runner needs to switch jobs to CPU
        // nodes in a user-agnostic fashion".
        let c = GpuCluster::cpu_only_node();
        assert_eq!(&*rule(&c)(&gpu_tool(), &job(), &config()).unwrap(), "local_cpu");
    }

    #[test]
    fn busy_and_leased_gpus_still_take_gpu_jobs() {
        // Busy GPUs still take jobs; the allocation policy places them
        // (paper Cases 3/4). A lease held by a pending plan changes
        // nothing either: the rule asks whether the node has a GPU.
        let c = GpuCluster::k80_node();
        c.attach_process(0, GpuProcess::compute(1, "a", 1)).unwrap();
        c.attach_process(1, GpuProcess::compute(2, "b", 1)).unwrap();
        let table = LeaseTable::new();
        table.allocate_and_lease(&c, &[], AllocationPolicy::ProcessId, 1, 100, None);
        let footprint = FootprintRegistry::new();
        let rule = dynamic_destination(
            placer(&c, &table),
            "local_gpu",
            "local_cpu",
            footprint,
            MemoryHint::Static,
            Recorder::new(),
        );
        assert_eq!(&*rule(&gpu_tool(), &job(), &config()).unwrap(), "local_gpu");
    }

    /// An app on the shipped job conf mapping through `rule`.
    fn app_with(rule: DynamicRule) -> galaxy::GalaxyApp {
        let mut app = galaxy::GalaxyApp::new(config());
        app.register_rule(RULE_NAME, rule);
        app
    }

    #[test]
    fn unknown_destination_is_error() {
        // The rule names a destination the conf lacks; mapping rejects it.
        let c = GpuCluster::k80_node();
        let placer = placer(&c, &LeaseTable::new());
        let footprint = FootprintRegistry::new();
        let rule = dynamic_destination(
            placer,
            "ghost_gpu",
            "local_cpu",
            footprint,
            MemoryHint::Static,
            Recorder::new(),
        );
        assert!(matches!(
            app_with(rule).map_destination(&gpu_tool(), &job()),
            Err(GalaxyError::UnknownDestination(id)) if id == "ghost_gpu"
        ));
    }

    #[test]
    fn decision_audit_records_observed_state_and_reason() {
        let c = GpuCluster::k80_node();
        c.attach_process(0, GpuProcess::compute(7, "racon", 60)).unwrap();
        let rec = Recorder::new();
        let rule = rule_on(&c, &rec);
        let mut conf = config();
        conf.destinations
            .iter_mut()
            .find(|d| &*d.id == "local_gpu")
            .unwrap()
            .params
            .set(GPU_MEMORY_HINT_PARAM, "3000");

        rule(&gpu_tool(), &job(), &conf).unwrap();
        rule(&cpu_tool(), &job(), &conf).unwrap();
        rule_on(&GpuCluster::cpu_only_node(), &rec)(&gpu_tool(), &job(), &conf).unwrap();

        let events = rec.events_named("gyan.rule.decision");
        assert_eq!(events.len(), 3);
        let keys = |i: usize| events[i].fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>();
        let gpu = &events[0];
        assert_eq!(
            keys(0),
            ["tool", "job_id", "requires_gpu", "memory_hint_mib", "destination", "reason"]
        );
        assert_eq!(gpu.field("tool").and_then(|v| v.as_str()), Some("racon_gpu"));
        assert_eq!(gpu.field("memory_hint_mib").and_then(|v| v.as_f64()), Some(3000.0));
        assert_eq!(gpu.field("destination").and_then(|v| v.as_str()), Some("local_gpu"));
        assert_eq!(
            gpu.field("reason").and_then(|v| v.as_str()),
            Some("gpu_tool_and_gpu_available")
        );
        let cpu = &events[1];
        assert_eq!(keys(1), ["tool", "job_id", "requires_gpu", "destination", "reason"]);
        assert_eq!(cpu.field("destination").and_then(|v| v.as_str()), Some("local_cpu"));
        assert_eq!(
            cpu.field("reason").and_then(|v| v.as_str()),
            Some("tool_has_no_gpu_requirement")
        );
        let gpuless = &events[2];
        assert_eq!(gpuless.field("destination").and_then(|v| v.as_str()), Some("local_cpu"));
        assert_eq!(gpuless.field("reason").and_then(|v| v.as_str()), Some("no_gpu_host"));
    }

    #[test]
    fn boxed_rule_is_usable() {
        let app = app_with(rule(&GpuCluster::k80_node()));
        assert_eq!(&*app.map_destination(&gpu_tool(), &job()).unwrap().id, "local_gpu");
        assert_eq!(&*app.map_destination(&cpu_tool(), &job()).unwrap().id, "local_cpu");
    }
}
