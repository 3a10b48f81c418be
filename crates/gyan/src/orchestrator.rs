//! The GYAN pre-dispatch hook: GPU allocation and environment export.
//!
//! Runs after destination mapping and before command rendering (the
//! `__command_line` step of the paper's Pseudocode 2):
//!
//! 1. inspects the tool's requirements for the `compute`/`gpu` type and
//!    its requested device IDs (the `version` tag);
//! 2. if the job landed on a GPU destination, resolves its memory hint
//!    (footprint-revised override > learned p95 > the destination's
//!    `gpu_memory_hint_mib` param > [`DEFAULT_GPU_MEMORY_HINT_MIB`]) and
//!    asks the [`Placer`] for devices; on a grant it exports
//!    `CUDA_VISIBLE_DEVICES`;
//! 3. sets `GALAXY_GPU_ENABLED` and bridges it into the tool wrapper's
//!    parameter dictionary as `__galaxy_gpu_enabled__` (the
//!    `build_param_dict` insertion described in §IV-A).
//!
//! "Pick devices and hold them" is the only step that differs between the
//! paper's single node and a multi-node fleet, so it alone sits behind
//! the [`Placer`] seam. [`NodePlacer`] is the single node: the configured
//! allocation strategy ([`crate::allocation`]) run through the
//! [`crate::reservations::LeaseTable`], which leases the granted devices
//! to the job atomically with the decision — two plans prepared in the
//! same dispatch wave can never be handed the same "free" device — until
//! [`galaxy::runners::JobHook::after_conclude`] releases them. The other
//! implementation is `fleet::Fleet`, which picks a node first.

use crate::allocation::{decimal, AllocationPolicy};
use crate::footprint::{
    env_mib, input_mib, EstimateSource, FootprintRegistry, MemoryHint, GPU_MEMORY_BUDGET_ENV,
    GPU_OBSERVED_PEAK_ENV,
};
use crate::reservations::LeaseTable;
use crate::{CUDA_VISIBLE_DEVICES, GALAXY_GPU_ENABLED, GPU_ENABLED_PARAM};
use galaxy::job::conf::Destination;
use galaxy::job::Job;
use galaxy::runners::{JobConclusion, JobHook};
use galaxy::tool::Tool;
use gpusim::{GpuArch, GpuCluster};
use obs::{Recorder, Text, Value};

/// Memory a GPU job is assumed to allocate when its destination declares
/// no `gpu_memory_hint_mib` (MiB). Used by the reservation layer's
/// Process-Allocated-Memory accounting.
pub const DEFAULT_GPU_MEMORY_HINT_MIB: u64 = 1024;

/// Destination parameter overriding the declared per-job GPU memory hint.
pub const GPU_MEMORY_HINT_PARAM: &str = "gpu_memory_hint_mib";

/// Counter: `gpu_memory_hint_mib` params that failed to parse (the hook
/// fell back to its default instead of silently ignoring the typo).
pub const INVALID_HINT_COUNTER: &str = "gyan_invalid_memory_hint_total";
/// Decision-audit event emitted per malformed `gpu_memory_hint_mib`.
pub const INVALID_HINT_EVENT: &str = "gyan.hook.invalid_memory_hint";

/// The static rung of the hint ladder: `destination`'s
/// `gpu_memory_hint_mib` param, else [`DEFAULT_GPU_MEMORY_HINT_MIB`]. The
/// second value is the raw param when it is present but not a number (the
/// hint fell back to the default): the hook audits it, while admission
/// checks made without a job ([`admission_hint`]) only take the number —
/// so all of them agree on the hint for the same destination.
pub fn static_memory_hint(destination: Option<&Destination>) -> (u64, Option<&str>) {
    match destination.and_then(|d| d.params.get(GPU_MEMORY_HINT_PARAM)) {
        None => (DEFAULT_GPU_MEMORY_HINT_MIB, None),
        Some(raw) => match raw.parse() {
            Ok(mib) => (mib, None),
            Err(_) => (DEFAULT_GPU_MEMORY_HINT_MIB, Some(raw)),
        },
    }
}

/// The memory hint of admission checks made without a job — the dynamic
/// destination rule and [`GyanHook`]'s placement-aware retry advice: in
/// [`MemoryHint::Learned`] mode the tool-wide learned p95 once it
/// converges, else [`static_memory_hint`] of `destination`.
pub fn admission_hint(
    footprint: &FootprintRegistry,
    mode: MemoryHint,
    tool_id: &str,
    destination: Option<&Destination>,
) -> u64 {
    let learned = if mode == MemoryHint::Learned { footprint.estimate_tool(tool_id) } else { None };
    learned.unwrap_or_else(|| static_memory_hint(destination).0)
}

/// Whether a node of `devices` dies of `arch` admits a GPU job assumed to
/// allocate `memory_hint_mib`: it has a GPU, and the hint fits one die.
/// Every [`Placer::hosts_outside`] asks this of each host it may offer.
/// Neither allocation policy compares a hint with a die's memory, so a
/// host granting dies to a job that cannot fit on them only buys an OOM
/// and a GPU→CPU resubmission; refusing it sends the job to the CPU
/// destination at once.
pub fn node_admits(arch: &GpuArch, devices: u32, memory_hint_mib: u64) -> bool {
    devices > 0 && memory_hint_mib <= arch.fb_total_mib
}

/// Devices granted to a job, held until [`Placer::release`].
#[derive(Debug, Clone)]
pub struct Placed {
    /// The `CUDA_VISIBLE_DEVICES` mask to export.
    pub cuda_visible_devices: Text,
    /// The node the devices are on, exported as `GALAXY_NODE`; `None` on
    /// a single node, where there is nothing to tell apart.
    pub node: Option<String>,
}

/// The placement seam under [`GyanHook`]: whatever owns the GPUs.
pub trait Placer: Send + Sync {
    /// Pick devices for `job` (an instance of `tool` assumed to allocate
    /// `memory_hint_mib`) and hold them for it. `None` when nothing can
    /// host the job — it then runs on the CPU.
    fn place(&self, job: &Job, tool: &Tool, memory_hint_mib: u64) -> Option<Placed>;

    /// Let go of everything `job_id` holds. Idempotent: a job that holds
    /// nothing (never placed, already released) is a no-op.
    fn release(&self, job_id: u64, why: &str);

    /// Where the placer's and the hook's decision audits go.
    fn recorder(&self) -> Option<&Recorder>;

    /// Whether some placeable host outside `excluded` (node names) admits
    /// `tool_id` at `memory_hint_mib` — the question behind the destination
    /// rule ([`crate::rules::dynamic_destination`], nothing excluded) and a
    /// placement-aware retry.
    fn hosts_outside(&self, tool_id: &str, memory_hint_mib: u64, excluded: &[String]) -> bool;
}

/// The paper's single GPU node as a [`Placer`]: `policy` decides over
/// `cluster`'s SMI state and the leases in `table`, which holds each
/// grant until release.
#[derive(Clone)]
pub struct NodePlacer {
    /// The node's devices.
    pub cluster: GpuCluster,
    /// Multi-GPU device allocation strategy.
    pub policy: AllocationPolicy,
    /// Where grants are leased.
    pub table: LeaseTable,
    /// Sink for allocation, reservation and hook audits.
    pub recorder: Recorder,
}

impl Placer for NodePlacer {
    fn place(&self, job: &Job, tool: &Tool, memory_hint_mib: u64) -> Option<Placed> {
        let alloc = self.table.allocate_and_lease(
            &self.cluster,
            &tool.requested_gpu_ids(),
            self.policy,
            job.id,
            memory_hint_mib,
            Some(&self.recorder),
        )?;
        Some(Placed { cuda_visible_devices: alloc.cuda_visible_devices, node: None })
    }

    fn release(&self, job_id: u64, why: &str) {
        self.table.release(job_id, why, Some(&self.recorder));
    }

    fn recorder(&self) -> Option<&Recorder> {
        Some(&self.recorder)
    }

    /// Whether the node admits the hint ([`node_admits`]): busy devices
    /// still take jobs (the policy shares them, paper Cases 3/4). The node
    /// has no name to be in `excluded`; its failures carry no
    /// `GALAXY_NODE`, so no placement-aware retry asks.
    fn hosts_outside(&self, _tool_id: &str, memory_hint_mib: u64, _excluded: &[String]) -> bool {
        let cluster = &self.cluster;
        cluster
            .arch()
            .is_some_and(|arch| node_admits(arch, cluster.device_count(), memory_hint_mib))
    }
}

/// The GYAN orchestration hook. Register with
/// [`galaxy::GalaxyApp::add_hook`].
pub struct GyanHook {
    placer: Box<dyn Placer>,
    /// Destination ids treated as GPU destinations.
    gpu_destinations: Vec<String>,
    /// Concluded GPU attempts feed these per-tool profiles; in
    /// [`MemoryHint::Learned`] mode the learned p95 replaces the static
    /// hint.
    footprint: FootprintRegistry,
    hint_mode: MemoryHint,
}

impl GyanHook {
    /// Create a hook placing through `placer`. `gpu_destinations` lists
    /// the destination ids on which jobs may use GPUs (e.g.
    /// `["local_gpu", "docker_gpu", "singularity_gpu"]`).
    pub fn new(
        placer: impl Placer + 'static,
        gpu_destinations: impl IntoIterator<Item = impl Into<String>>,
        footprint: FootprintRegistry,
        hint_mode: MemoryHint,
    ) -> Self {
        GyanHook {
            placer: Box::new(placer),
            gpu_destinations: gpu_destinations.into_iter().map(Into::into).collect(),
            footprint,
            hint_mode,
        }
    }

    fn now(&self) -> f64 {
        self.placer.recorder().map_or(0.0, |r| r.now())
    }

    fn is_gpu_destination(&self, destination: &Destination) -> bool {
        self.gpu_destinations.iter().any(|d| **d == *destination.id)
    }

    /// Resolve the memory hint for this attempt, in priority order:
    /// footprint-revised override > learned p95 > static
    /// ([`static_memory_hint`]). Returns the chosen hint, the static
    /// hint it (possibly) replaced, and its source. The static rung is
    /// resolved exactly once, so a malformed destination param is audited
    /// exactly once per dispatch.
    fn resolve_memory_hint(
        &self,
        job: &Job,
        destination: &Destination,
    ) -> (u64, u64, EstimateSource) {
        let (static_hint, malformed) = static_memory_hint(Some(destination));
        // A typo'd hint must not pass silently: audit the fallback so the
        // operator sees the config is wrong.
        if let (Some(raw), Some(rec)) = (malformed, self.placer.recorder()) {
            rec.metrics().inc_counter(INVALID_HINT_COUNTER, 1);
            rec.event(
                INVALID_HINT_EVENT,
                [
                    ("job_id", Value::from(job.id)),
                    ("destination", Value::from(&*destination.id)),
                    ("raw", Value::from(raw)),
                    ("fallback_mib", Value::from(static_hint)),
                ],
            );
        }
        if let Some(over) = job.gpu_budget_override_mib {
            return (over, static_hint, EstimateSource::Override);
        }
        if self.hint_mode == MemoryHint::Learned {
            if let Some(learned) = self.footprint.estimate(&job.tool_id, input_mib(job)) {
                return (learned, static_hint, EstimateSource::Learned);
            }
        }
        (static_hint, static_hint, EstimateSource::Static)
    }

    fn audit(&self, job: &Job, destination: &Destination, mask: Option<&str>) {
        if let Some(rec) = self.placer.recorder() {
            let head: [(&str, Value); 3] = [
                ("job_id", job.id.into()),
                ("destination", Value::from(&*destination.id)),
                ("gpu_enabled", mask.is_some().into()),
            ];
            let mask = mask.map(|mask| ("cuda_visible_devices", Value::from(mask)));
            rec.event("gyan.hook.export", head.into_iter().chain(mask));
        }
    }
}

impl JobHook for GyanHook {
    fn before_dispatch(&self, job: &mut Job, tool: &Tool, destination: &Destination) {
        if tool.requires_gpu() && self.is_gpu_destination(destination) {
            let (hint_mib, static_hint_mib, source) = self.resolve_memory_hint(job, destination);
            if let Some(placed) = self.placer.place(job, tool, hint_mib) {
                self.audit(job, destination, Some(&placed.cuda_visible_devices));
                job.set_env(GALAXY_GPU_ENABLED, "true");
                job.set_env(CUDA_VISIBLE_DEVICES, placed.cuda_visible_devices);
                if let Some(node) = placed.node {
                    job.set_env(galaxy::GALAXY_NODE_ENV, node);
                }
                let mut digits = [0; 20];
                job.set_env(GPU_MEMORY_BUDGET_ENV, Text::concat(&[decimal(hint_mib, &mut digits)]));
                job.params.set(GPU_ENABLED_PARAM, "true");
                self.footprint.note_dispatch(
                    job.id,
                    &job.tool_id,
                    input_mib(job),
                    hint_mib,
                    static_hint_mib,
                    source,
                    env_mib(job, GPU_OBSERVED_PEAK_ENV),
                    self.now(),
                );
                return;
            }
        }
        self.audit(job, destination, None);
        job.set_env(GALAXY_GPU_ENABLED, "false");
        // A resubmitted attempt reaching the CPU branch still carries the
        // failed GPU attempt's exports; a CPU retry must not claim a
        // device mask, a memory budget, or a node it never touched.
        job.remove_env(CUDA_VISIBLE_DEVICES);
        job.remove_env(GPU_MEMORY_BUDGET_ENV);
        job.remove_env(galaxy::GALAXY_NODE_ENV);
        job.params.set(GPU_ENABLED_PARAM, "false");
        self.footprint.forget(job.id);
    }

    fn after_conclude(&self, job_id: u64, conclusion: JobConclusion) {
        // Every conclusion means the prepared plan will not execute again
        // as-is; a retryable failure re-runs `before_dispatch` (which
        // re-acquires) against the fallback destination.
        self.placer.release(job_id, conclusion.as_str());
        self.footprint.conclude(
            job_id,
            conclusion == JobConclusion::Ok,
            self.now(),
            self.placer.recorder(),
        );
    }

    fn hosts_outside(&self, tool_id: &str, destination: &Destination, excluded: &[String]) -> bool {
        self.is_gpu_destination(destination) && {
            let hint = admission_hint(&self.footprint, self.hint_mode, tool_id, Some(destination));
            self.placer.hosts_outside(tool_id, hint, excluded)
        }
    }

    /// Profile max plus headroom, at least double the budget the failed
    /// attempt ran under (its override, else its exported budget); only
    /// in [`MemoryHint::Learned`] mode. Declines when the job declares an
    /// observed peak that *fit* that budget — the failure wasn't an OOM,
    /// so a bigger budget can't fix it and a footprint retry would only
    /// delay the fallback ladder.
    fn revised_gpu_budget(&self, job: &Job) -> Option<u64> {
        if self.hint_mode == MemoryHint::Static {
            return None;
        }
        let prev = job.gpu_budget_override_mib.or_else(|| env_mib(job, GPU_MEMORY_BUDGET_ENV));
        if let (Some(peak), Some(prev)) = (env_mib(job, GPU_OBSERVED_PEAK_ENV), prev) {
            if peak <= prev {
                return None;
            }
        }
        self.footprint.revised_budget(&job.tool_id, input_mib(job), prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::{GALAXY_INPUT_SIZE_MIB_ENV, MIN_SAMPLES};
    use galaxy::params::ParamDict;
    use galaxy::tool::macros::MacroLibrary;
    use galaxy::tool::wrapper::parse_tool;
    use gpusim::GpuProcess;

    fn gpu_tool(pinned: Option<&str>) -> Tool {
        let version = pinned.map(|v| format!(" version=\"{v}\"")).unwrap_or_default();
        parse_tool(
            &format!(
                r#"<tool id="racon_gpu"><requirements>
                     <requirement type="compute"{version}>gpu</requirement>
                   </requirements><command>racon_gpu</command></tool>"#
            ),
            &MacroLibrary::new(),
        )
        .unwrap()
    }

    fn dest(id: &str) -> Destination {
        Destination { id: id.into(), runner: "local".into(), params: ParamDict::new() }
    }

    /// A hook over a single-node placer, with handles on everything it
    /// was built from.
    struct Stack {
        hook: GyanHook,
        table: LeaseTable,
        registry: FootprintRegistry,
        recorder: Recorder,
    }

    fn stack_with(cluster: &GpuCluster, policy: AllocationPolicy, mode: MemoryHint) -> Stack {
        let (table, registry, recorder) =
            (LeaseTable::new(), FootprintRegistry::new(), Recorder::new());
        let placer = NodePlacer {
            cluster: cluster.clone(),
            policy,
            table: table.clone(),
            recorder: recorder.clone(),
        };
        let hook = GyanHook::new(placer, ["local_gpu", "docker_gpu"], registry.clone(), mode);
        Stack { hook, table, registry, recorder }
    }

    fn hook(cluster: &GpuCluster, policy: AllocationPolicy) -> GyanHook {
        stack_with(cluster, policy, MemoryHint::Static).hook
    }

    #[test]
    fn gpu_job_gets_env_and_param_bridge() {
        let c = GpuCluster::k80_node();
        let h = hook(&c, AllocationPolicy::ProcessId);
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        h.before_dispatch(&mut job, &gpu_tool(None), &dest("local_gpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("true"));
        assert_eq!(job.env_var(CUDA_VISIBLE_DEVICES), Some("0,1"));
        assert_eq!(job.params.get(GPU_ENABLED_PARAM), Some("true"));
    }

    #[test]
    fn pinned_device_honoured_when_free() {
        let c = GpuCluster::k80_node();
        let h = hook(&c, AllocationPolicy::ProcessId);
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        h.before_dispatch(&mut job, &gpu_tool(Some("1")), &dest("local_gpu"));
        assert_eq!(job.env_var(CUDA_VISIBLE_DEVICES), Some("1"));
    }

    #[test]
    fn busy_pinned_device_redirected() {
        let c = GpuCluster::k80_node();
        c.attach_process(1, GpuProcess::compute(9, "other", 10)).unwrap();
        let h = hook(&c, AllocationPolicy::ProcessId);
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        h.before_dispatch(&mut job, &gpu_tool(Some("1")), &dest("local_gpu"));
        assert_eq!(job.env_var(CUDA_VISIBLE_DEVICES), Some("0"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("true"));
    }

    #[test]
    fn cpu_destination_disables_gpu_without_touching_the_placer() {
        let c = GpuCluster::k80_node();
        let s = stack_with(&c, AllocationPolicy::ProcessId, MemoryHint::Static);
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        s.hook.before_dispatch(&mut job, &gpu_tool(None), &dest("local_cpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("false"));
        assert_eq!(job.params.get(GPU_ENABLED_PARAM), Some("false"));
        assert!(job.env_var(CUDA_VISIBLE_DEVICES).is_none());
        assert_eq!(s.table.lease_count(), 0);
    }

    #[test]
    fn cpu_branch_scrubs_a_failed_gpu_attempts_exports() {
        let c = GpuCluster::k80_node();
        let h = hook(&c, AllocationPolicy::ProcessId);
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        h.before_dispatch(&mut job, &gpu_tool(None), &dest("local_gpu"));
        job.set_env(galaxy::GALAXY_NODE_ENV, "k80-000");
        h.after_conclude(1, JobConclusion::FailedRetryable);
        // The retry lands on the CPU destination with the GPU attempt's
        // exports still on the job record.
        h.before_dispatch(&mut job, &gpu_tool(None), &dest("local_cpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("false"));
        for stale in [CUDA_VISIBLE_DEVICES, GPU_MEMORY_BUDGET_ENV, galaxy::GALAXY_NODE_ENV] {
            assert_eq!(job.env_var(stale), None, "{stale} survived the CPU retry");
        }
    }

    #[test]
    fn cpu_tool_on_gpu_destination_disabled() {
        let c = GpuCluster::k80_node();
        let tool =
            parse_tool("<tool id=\"sort\"><command>sort</command></tool>", &MacroLibrary::new())
                .unwrap();
        let h = hook(&c, AllocationPolicy::ProcessId);
        let mut job = Job::new(1, "sort", ParamDict::new());
        h.before_dispatch(&mut job, &tool, &dest("local_gpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("false"));
    }

    #[test]
    fn gpuless_node_disables_gpu() {
        let c = GpuCluster::cpu_only_node();
        let h = hook(&c, AllocationPolicy::ProcessId);
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        h.before_dispatch(&mut job, &gpu_tool(None), &dest("local_gpu"));
        assert_eq!(job.env_var(GALAXY_GPU_ENABLED), Some("false"));
    }

    #[test]
    fn leases_redirect_the_second_same_wave_job() {
        let c = GpuCluster::k80_node();
        let s = stack_with(&c, AllocationPolicy::ProcessId, MemoryHint::Static);
        // Both jobs pin device 1; SMI shows it free both times (neither
        // has started executing). Without leases both would get "1".
        let mut first = Job::new(1, "racon_gpu", ParamDict::new());
        s.hook.before_dispatch(&mut first, &gpu_tool(Some("1")), &dest("local_gpu"));
        let mut second = Job::new(2, "racon_gpu", ParamDict::new());
        s.hook.before_dispatch(&mut second, &gpu_tool(Some("1")), &dest("local_gpu"));
        assert_eq!(first.env_var(CUDA_VISIBLE_DEVICES), Some("1"));
        assert_eq!(second.env_var(CUDA_VISIBLE_DEVICES), Some("0"));
        assert_eq!(s.table.lease_count(), 2);
    }

    #[test]
    fn after_conclude_releases_the_jobs_leases() {
        let c = GpuCluster::k80_node();
        let s = stack_with(&c, AllocationPolicy::ProcessId, MemoryHint::Static);
        let mut job = Job::new(5, "racon_gpu", ParamDict::new());
        s.hook.before_dispatch(&mut job, &gpu_tool(Some("0")), &dest("local_gpu"));
        assert_eq!(s.table.lease_count(), 1);
        s.hook.after_conclude(5, JobConclusion::Ok);
        assert_eq!(s.table.lease_count(), 0);
        // Concluding a job without leases is a no-op.
        s.hook.after_conclude(5, JobConclusion::Ok);
    }

    #[test]
    fn destination_param_overrides_the_memory_hint() {
        let c = GpuCluster::k80_node();
        let s = stack_with(&c, AllocationPolicy::MemoryBased, MemoryHint::Static);
        let mut d = dest("local_gpu");
        d.params.set(GPU_MEMORY_HINT_PARAM, "2048");
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        s.hook.before_dispatch(&mut job, &gpu_tool(Some("0")), &d);
        assert_eq!(s.table.leases_on(0)[0].memory_hint_mib, 2048);
        // Without the param the default applies.
        let mut job = Job::new(2, "racon_gpu", ParamDict::new());
        s.hook.before_dispatch(&mut job, &gpu_tool(Some("1")), &dest("local_gpu"));
        assert_eq!(s.table.leases_on(1)[0].memory_hint_mib, DEFAULT_GPU_MEMORY_HINT_MIB);
        assert!(s.recorder.events_named(INVALID_HINT_EVENT).is_empty());
    }

    #[test]
    fn malformed_destination_param_is_audited_once_and_falls_back() {
        let c = GpuCluster::k80_node();
        let s = stack_with(&c, AllocationPolicy::MemoryBased, MemoryHint::Learned);
        let mut d = dest("local_gpu");
        d.params.set(GPU_MEMORY_HINT_PARAM, "lots");
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        s.hook.before_dispatch(&mut job, &gpu_tool(Some("0")), &d);
        assert_eq!(s.table.leases_on(0)[0].memory_hint_mib, DEFAULT_GPU_MEMORY_HINT_MIB);
        assert_eq!(s.recorder.metrics().counter_value(INVALID_HINT_COUNTER), 1);
        let audits = s.recorder.events_named(INVALID_HINT_EVENT);
        assert_eq!(audits.len(), 1, "one audit per dispatch, not one per ladder rung");
        assert_eq!(audits[0].field("raw").and_then(|v| v.as_str()), Some("lots"));
        assert_eq!(audits[0].field("fallback_mib").and_then(|v| v.as_f64()), Some(1024.0));
    }

    #[test]
    fn learned_hint_replaces_static_once_profile_converges() {
        let c = GpuCluster::k80_node();
        let s = stack_with(&c, AllocationPolicy::MemoryBased, MemoryHint::Learned);
        // Cold registry: static hint applies.
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        job.set_env(GALAXY_INPUT_SIZE_MIB_ENV, "1500");
        s.hook.before_dispatch(&mut job, &gpu_tool(Some("0")), &dest("local_gpu"));
        assert_eq!(s.table.leases_on(0)[0].memory_hint_mib, 1024);
        assert_eq!(job.env_var(GPU_MEMORY_BUDGET_ENV), Some("1024"));
        s.hook.after_conclude(1, JobConclusion::Ok);
        // Converge the profile well above the static hint.
        for i in 0..MIN_SAMPLES {
            s.registry.observe("racon_gpu", 1500, 3000.0, 10.0, i as f64);
        }
        let mut job = Job::new(2, "racon_gpu", ParamDict::new());
        job.set_env(GALAXY_INPUT_SIZE_MIB_ENV, "1500");
        s.hook.before_dispatch(&mut job, &gpu_tool(Some("1")), &dest("local_gpu"));
        let leased = s.table.leases_on(1)[0].memory_hint_mib;
        assert!((2900..=3100).contains(&leased), "learned p95 leased: {leased}");
        assert_eq!(job.env_var(GPU_MEMORY_BUDGET_ENV), Some(leased.to_string().as_str()));
    }

    #[test]
    fn budget_override_outranks_learned_and_static() {
        let c = GpuCluster::k80_node();
        let s = stack_with(&c, AllocationPolicy::MemoryBased, MemoryHint::Learned);
        for i in 0..8 {
            s.registry.observe("racon_gpu", 1500, 3000.0, 10.0, i as f64);
        }
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        job.set_env(GALAXY_INPUT_SIZE_MIB_ENV, "1500");
        job.gpu_budget_override_mib = Some(7777);
        s.hook.before_dispatch(&mut job, &gpu_tool(Some("0")), &dest("local_gpu"));
        assert_eq!(s.table.leases_on(0)[0].memory_hint_mib, 7777);
    }

    #[test]
    fn revised_budget_declines_when_the_peak_fit_the_budget() {
        let c = GpuCluster::k80_node();
        let s = stack_with(&c, AllocationPolicy::ProcessId, MemoryHint::Learned);
        let mut job = Job::new(1, "racon_gpu", ParamDict::new());
        job.set_env(GALAXY_INPUT_SIZE_MIB_ENV, "512");
        job.set_env(GPU_MEMORY_BUDGET_ENV, "1024");

        // An OOM (peak above the granted budget) earns a doubled budget
        // even before any profile exists...
        job.set_env(GPU_OBSERVED_PEAK_ENV, "1500");
        assert_eq!(s.hook.revised_gpu_budget(&job), Some(2048));
        // ...and a second one doubles the override it ran under.
        job.gpu_budget_override_mib = Some(2048);
        job.set_env(GPU_OBSERVED_PEAK_ENV, "3000");
        assert_eq!(s.hook.revised_gpu_budget(&job), Some(4096));

        // A failure whose peak *fit* the budget wasn't memory-caused:
        // no revised budget, straight to the fallback ladder.
        job.set_env(GPU_OBSERVED_PEAK_ENV, "700");
        assert_eq!(s.hook.revised_gpu_budget(&job), None);

        // The static hint never revises: the paper's behaviour.
        job.set_env(GPU_OBSERVED_PEAK_ENV, "3000");
        assert_eq!(hook(&c, AllocationPolicy::ProcessId).revised_gpu_budget(&job), None);
    }

    #[test]
    fn concluded_gpu_attempt_feeds_the_profile() {
        let c = GpuCluster::k80_node();
        let s = stack_with(&c, AllocationPolicy::MemoryBased, MemoryHint::Learned);
        let mut job = Job::new(9, "racon_gpu", ParamDict::new());
        job.set_env(GALAXY_INPUT_SIZE_MIB_ENV, "1500");
        job.set_env(GPU_OBSERVED_PEAK_ENV, "1800");
        s.hook.before_dispatch(&mut job, &gpu_tool(Some("0")), &dest("local_gpu"));
        assert_eq!(s.registry.pending_count(), 1);
        s.hook.after_conclude(9, JobConclusion::Ok);
        let snaps = s.registry.snapshot();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].samples, 1);
        assert!((snaps[0].peak_mib_max - 1800.0).abs() / 1800.0 < 0.03);
        let events = s.recorder.events();
        assert!(
            events.iter().any(|e| e.name == crate::footprint::FOOTPRINT_ESTIMATE_EVENT),
            "estimate audit emitted"
        );
        // A CPU attempt forgets its pending record instead of learning.
        let mut job = Job::new(10, "racon_gpu", ParamDict::new());
        job.set_env(GPU_OBSERVED_PEAK_ENV, "9999");
        s.hook.before_dispatch(&mut job, &gpu_tool(None), &dest("local_cpu"));
        assert_eq!(s.registry.pending_count(), 0);
        assert!(job.env_var(GPU_MEMORY_BUDGET_ENV).is_none());
        s.hook.after_conclude(10, JobConclusion::Ok);
        assert_eq!(s.registry.snapshot()[0].samples, 1);
    }

    #[test]
    fn memory_policy_used_when_all_busy() {
        let c = GpuCluster::k80_node();
        c.attach_process(0, GpuProcess::compute(1, "racon", 60)).unwrap();
        c.attach_process(1, GpuProcess::compute(2, "bonito", 2700)).unwrap();
        let h = hook(&c, AllocationPolicy::MemoryBased);
        let mut job = Job::new(3, "racon_gpu", ParamDict::new());
        h.before_dispatch(&mut job, &gpu_tool(Some("1")), &dest("local_gpu"));
        assert_eq!(job.env_var(CUDA_VISIBLE_DEVICES), Some("0"));
    }
}
