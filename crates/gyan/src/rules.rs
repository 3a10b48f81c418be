//! The dynamic destination rule — the paper's Challenge-II solution.
//!
//! GYAN adds a *job rule* that "obtains the system GPU availability and
//! the number of GPUs using the pynvml Python library. If the tool's
//! wrapper file has the compute requirement of type 'gpu' and if there is
//! at least one GPU available, then the destination is configured to be
//! 'local GPU'" — otherwise the job is switched to a CPU destination in a
//! user-agnostic fashion.

use crate::allocation::join;
use crate::reservations::LeaseTable;
use galaxy::app::DynamicRule;
use galaxy::job::conf::JobConfig;
use galaxy::job::Job;
use galaxy::tool::Tool;
use galaxy::GalaxyError;
use gpusim::GpuCluster;
use obs::{Key, Recorder, Value};

/// Factory for the `gpu_dynamic_destination` rule.
#[derive(Clone)]
pub struct GpuDestinationRule {
    cluster: GpuCluster,
    /// Destination id for GPU execution (e.g. `local_gpu` or `docker_gpu`).
    pub gpu_destination: String,
    /// Destination id for the CPU fallback.
    pub cpu_destination: String,
    /// When true, a GPU destination is chosen only if at least one GPU is
    /// currently *free*; when false (the default, matching the paper's
    /// multi-GPU cases where busy GPUs still accept jobs), presence of any
    /// GPU suffices and the allocation policy decides placement.
    pub require_free_gpu: bool,
    recorder: Option<Recorder>,
    /// When present, devices leased to not-yet-executing plans count as
    /// busy in the free-GPU observation (relevant with
    /// [`GpuDestinationRule::require_free`]).
    reservations: Option<LeaseTable>,
}

/// What the rule saw of the cluster: pynvml's device count and the
/// devices free to a new job.
struct GpuObservation {
    device_count: u32,
    free_gpus: Vec<u32>,
}

impl GpuDestinationRule {
    /// Create a rule bound to a cluster with the given GPU/CPU
    /// destination ids.
    pub fn new(
        cluster: &GpuCluster,
        gpu_destination: impl Into<String>,
        cpu_destination: impl Into<String>,
    ) -> Self {
        GpuDestinationRule {
            cluster: cluster.clone(),
            gpu_destination: gpu_destination.into(),
            cpu_destination: cpu_destination.into(),
            require_free_gpu: false,
            recorder: None,
            reservations: None,
        }
    }

    /// Require a currently-free GPU for GPU mapping.
    pub fn require_free(mut self) -> Self {
        self.require_free_gpu = true;
        self
    }

    /// Count leased devices as busy when observing GPU availability, so a
    /// strict (`require_free`) rule does not route a job to the GPU
    /// destination on the strength of a device another same-wave plan
    /// already holds.
    pub fn with_reservations(mut self, table: LeaseTable) -> Self {
        self.reservations = Some(table);
        self
    }

    /// Emit a `gyan.rule.decision` audit event per evaluation, recording
    /// the device availability the rule observed and why it chose the
    /// destination it did.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Evaluate the rule for one job.
    pub fn decide(
        &self,
        tool: &Tool,
        job: &Job,
        config: &JobConfig,
    ) -> Result<String, GalaxyError> {
        let seen = self.observe();
        let gpu_ok =
            seen.device_count > 0 && (!self.require_free_gpu || !seen.free_gpus.is_empty());
        let requires_gpu = tool.requires_gpu();
        let (chosen, reason) = if gpu_ok && requires_gpu {
            (&self.gpu_destination, "gpu_tool_and_gpu_available")
        } else if !requires_gpu {
            (&self.cpu_destination, "tool_has_no_gpu_requirement")
        } else if seen.device_count == 0 {
            (&self.cpu_destination, "no_gpus_on_node")
        } else {
            (&self.cpu_destination, "no_free_gpu")
        };

        if let Some(rec) = &self.recorder {
            let fields: [(&str, Value); 8] = [
                ("tool", tool.id.as_str().into()),
                ("job_id", job.id.into()),
                ("requires_gpu", requires_gpu.into()),
                ("device_count", seen.device_count.into()),
                ("free_gpus", join(&seen.free_gpus).into()),
                ("require_free_gpu", self.require_free_gpu.into()),
                ("destination", chosen.as_str().into()),
                // A literal, longer than an in-place value: by reference.
                ("reason", Key::from(reason).into()),
            ];
            rec.event("gyan.rule.decision", fields);
        }

        if config.destination(chosen).is_none() {
            return Err(GalaxyError::UnknownDestination(chosen.clone()));
        }
        Ok(chosen.clone())
    }

    /// A device is free when no compute process runs on it (NVML's
    /// running-process count is 0 — [`gpusim::DeviceState::is_available`])
    /// and no lease holds it. The first half is read from the flag every
    /// device write republishes ([`GpuCluster::is_device_available`]), so
    /// observing takes no device lock.
    fn observe(&self) -> GpuObservation {
        let device_count = self.cluster.device_count();
        let leased = self.reservations.as_ref().map(LeaseTable::view);
        let mut free_gpus = Vec::with_capacity(device_count as usize);
        free_gpus.extend(
            (0..device_count)
                .filter(|i| self.cluster.is_device_available(*i))
                .filter(|i| leased.as_ref().is_none_or(|view| !view.is_leased(*i))),
        );
        GpuObservation { device_count, free_gpus }
    }

    /// Box the rule for registration with
    /// [`galaxy::GalaxyApp::register_rule`].
    pub fn into_rule(self) -> DynamicRule {
        Box::new(move |tool, job, config| self.decide(tool, job, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galaxy::job::conf::GYAN_JOB_CONF;
    use galaxy::params::ParamDict;
    use galaxy::tool::macros::MacroLibrary;
    use galaxy::tool::wrapper::parse_tool;
    use gpusim::GpuProcess;

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

    #[test]
    fn gpu_tool_on_gpu_node_goes_to_gpu_destination() {
        let c = GpuCluster::k80_node();
        let rule = GpuDestinationRule::new(&c, "local_gpu", "local_cpu");
        assert_eq!(rule.decide(&gpu_tool(), &job(), &config()).unwrap(), "local_gpu");
    }

    #[test]
    fn cpu_tool_always_goes_to_cpu_destination() {
        let c = GpuCluster::k80_node();
        let rule = GpuDestinationRule::new(&c, "local_gpu", "local_cpu");
        assert_eq!(rule.decide(&cpu_tool(), &job(), &config()).unwrap(), "local_cpu");
    }

    #[test]
    fn gpu_tool_on_gpuless_node_falls_back_to_cpu() {
        // "if GPUs are unavailable, the runner needs to switch jobs to CPU
        // nodes in a user-agnostic fashion".
        let c = GpuCluster::cpu_only_node();
        let rule = GpuDestinationRule::new(&c, "local_gpu", "local_cpu");
        assert_eq!(rule.decide(&gpu_tool(), &job(), &config()).unwrap(), "local_cpu");
    }

    #[test]
    fn require_free_gpu_falls_back_when_all_busy() {
        let c = GpuCluster::k80_node();
        c.attach_process(0, GpuProcess::compute(1, "a", 1)).unwrap();
        c.attach_process(1, GpuProcess::compute(2, "b", 1)).unwrap();
        let strict = GpuDestinationRule::new(&c, "local_gpu", "local_cpu").require_free();
        assert_eq!(strict.decide(&gpu_tool(), &job(), &config()).unwrap(), "local_cpu");
        // Default (non-strict): busy GPUs still take jobs; the allocation
        // policy will place them (paper Cases 3/4).
        let lax = GpuDestinationRule::new(&c, "local_gpu", "local_cpu");
        assert_eq!(lax.decide(&gpu_tool(), &job(), &config()).unwrap(), "local_gpu");
    }

    #[test]
    fn leased_devices_are_not_free_to_a_strict_rule() {
        use crate::allocation::AllocationPolicy;
        let c = GpuCluster::k80_node();
        let table = LeaseTable::new();
        // Both devices SMI-idle but leased by pending plans.
        table.allocate_and_lease(&c, &[], AllocationPolicy::ProcessId, 1, 100, None);
        let strict = GpuDestinationRule::new(&c, "local_gpu", "local_cpu")
            .require_free()
            .with_reservations(table.clone());
        assert_eq!(strict.decide(&gpu_tool(), &job(), &config()).unwrap(), "local_cpu");
        // Releasing the leases makes the devices free again.
        table.release(1, "ok", None);
        assert_eq!(strict.decide(&gpu_tool(), &job(), &config()).unwrap(), "local_gpu");
    }

    #[test]
    fn unknown_destination_is_error() {
        let c = GpuCluster::k80_node();
        let rule = GpuDestinationRule::new(&c, "ghost_gpu", "local_cpu");
        assert!(matches!(
            rule.decide(&gpu_tool(), &job(), &config()),
            Err(GalaxyError::UnknownDestination(_))
        ));
    }

    #[test]
    fn decision_audit_records_observed_state_and_reason() {
        let c = GpuCluster::k80_node();
        c.attach_process(0, GpuProcess::compute(7, "racon", 60)).unwrap();
        let rec = obs::Recorder::new();
        let rule = GpuDestinationRule::new(&c, "local_gpu", "local_cpu").with_recorder(rec.clone());

        rule.decide(&gpu_tool(), &job(), &config()).unwrap();
        rule.decide(&cpu_tool(), &job(), &config()).unwrap();

        let events = rec.events_named("gyan.rule.decision");
        assert_eq!(events.len(), 2);
        let gpu = &events[0];
        assert_eq!(gpu.field("tool").and_then(|v| v.as_str()), Some("racon_gpu"));
        assert_eq!(gpu.field("device_count").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(gpu.field("free_gpus").and_then(|v| v.as_str()), Some("1"));
        assert_eq!(gpu.field("destination").and_then(|v| v.as_str()), Some("local_gpu"));
        assert_eq!(
            gpu.field("reason").and_then(|v| v.as_str()),
            Some("gpu_tool_and_gpu_available")
        );
        let cpu = &events[1];
        assert_eq!(cpu.field("destination").and_then(|v| v.as_str()), Some("local_cpu"));
        assert_eq!(
            cpu.field("reason").and_then(|v| v.as_str()),
            Some("tool_has_no_gpu_requirement")
        );
    }

    #[test]
    fn audit_lists_exactly_the_idle_unleased_devices_as_free() {
        use crate::allocation::AllocationPolicy;
        let c = GpuCluster::node(gpusim::GpuArch::tesla_v100(), 4);
        c.attach_process(0, GpuProcess::compute(1, "a", 1)).unwrap();
        c.attach_process(2, GpuProcess::compute(2, "b", 1)).unwrap();
        c.attach_process(2, GpuProcess::compute(3, "c", 1)).unwrap();
        let rec = obs::Recorder::new();
        let table = LeaseTable::new();
        let rule = GpuDestinationRule::new(&c, "local_gpu", "local_cpu")
            .with_recorder(rec.clone())
            .with_reservations(table.clone());
        let free_gpus = || {
            rule.decide(&gpu_tool(), &job(), &config()).unwrap();
            let events = rec.events_named("gyan.rule.decision");
            let last = events.last().unwrap();
            assert_eq!(last.field("device_count").and_then(|v| v.as_f64()), Some(4.0));
            last.field("free_gpus").and_then(|v| v.as_str()).unwrap().to_string()
        };
        assert_eq!(free_gpus(), "1,3");
        // A lease on an SMI-idle device takes it off the list too.
        table.allocate_and_lease(&c, &[3], AllocationPolicy::ProcessId, 1, 100, None);
        assert_eq!(free_gpus(), "1");
    }

    #[test]
    fn audit_explains_strict_fallback() {
        let c = GpuCluster::k80_node();
        c.attach_process(0, GpuProcess::compute(1, "a", 1)).unwrap();
        c.attach_process(1, GpuProcess::compute(2, "b", 1)).unwrap();
        let rec = obs::Recorder::new();
        let rule = GpuDestinationRule::new(&c, "local_gpu", "local_cpu")
            .require_free()
            .with_recorder(rec.clone());
        assert_eq!(rule.decide(&gpu_tool(), &job(), &config()).unwrap(), "local_cpu");
        let e = &rec.events_named("gyan.rule.decision")[0];
        assert_eq!(e.field("reason").and_then(|v| v.as_str()), Some("no_free_gpu"));
        assert_eq!(e.field("free_gpus").and_then(|v| v.as_str()), Some(""));
    }

    #[test]
    fn boxed_rule_is_usable() {
        let c = GpuCluster::k80_node();
        let rule = GpuDestinationRule::new(&c, "local_gpu", "local_cpu").into_rule();
        assert_eq!(rule(&gpu_tool(), &job(), &config()).unwrap(), "local_gpu");
    }
}
