//! Job runners: command assembly and the execution interface.
//!
//! Galaxy's *runner* turns a mapped job into a concrete process: it renders
//! the tool's command template, optionally wraps it in a container launch
//! command, and spawns it. This module provides:
//!
//! * [`ExecutionPlan`] — everything needed to start the process;
//! * [`local::LocalRunner`] — the bare-metal runner (the paper's
//!   `local.py`);
//! * [`container_cmd`] — Docker/Singularity command-line assembly;
//! * [`CommandMutator`] — the extension point GYAN uses to inject
//!   `--gpus all` / `--nv` into container launches;
//! * [`JobExecutor`] — the pluggable backend that actually "runs" the
//!   process (the simulated tools in crate `seqtools` implement this).

pub mod container_cmd;
pub mod faults;
pub mod local;

use crate::job::conf::Destination;
use crate::job::Job;
use crate::tool::Tool;

/// Container engine of a wrapped launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerEngine {
    /// Docker (`docker run ...`).
    Docker,
    /// Singularity (`singularity exec ...`).
    Singularity,
}

/// A containerized launch: the engine, image, and the assembled command
/// parts (`docker run --rm ... image /bin/bash -c '<tool cmd>'`).
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerInvocation {
    /// Docker or Singularity.
    pub engine: ContainerEngine,
    /// Image name.
    pub image: String,
    /// Full command parts including the engine binary.
    pub command_parts: Vec<String>,
    /// Pull + start overhead in virtual seconds, charged by the executor.
    pub overhead_s: f64,
}

/// The fully assembled plan for one job.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Job id.
    pub job_id: u64,
    /// Tool id.
    pub tool_id: String,
    /// Destination the job was mapped to.
    pub destination_id: String,
    /// The rendered tool command (before any container wrapping).
    pub command_line: String,
    /// Environment exported to the process.
    pub env: Vec<(String, String)>,
    /// Present when the destination runs containers.
    pub container: Option<ContainerInvocation>,
    /// The final argv, container-wrapped when applicable.
    pub command_parts: Vec<String>,
}

impl ExecutionPlan {
    /// Environment variable lookup.
    pub fn env_var(&self, key: &str) -> Option<&str> {
        self.env.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The final command as one shell-ish string (for tests).
    pub fn rendered_command(&self) -> String {
        self.command_parts.join(" ")
    }
}

/// Result of executing a plan.
#[derive(Debug, Clone, Default)]
pub struct ExecutionResult {
    /// Process exit code (0 = success).
    pub exit_code: i32,
    /// Captured stdout.
    pub stdout: String,
    /// Captured stderr.
    pub stderr: String,
    /// Host pid the executor spawned for the tool, when it spawned one.
    pub pid: Option<u32>,
}

impl ExecutionResult {
    /// A success with the given stdout.
    pub fn ok(stdout: impl Into<String>) -> Self {
        ExecutionResult { exit_code: 0, stdout: stdout.into(), stderr: String::new(), pid: None }
    }

    /// A failure with the given code and stderr.
    pub fn fail(exit_code: i32, stderr: impl Into<String>) -> Self {
        ExecutionResult { exit_code, stdout: String::new(), stderr: stderr.into(), pid: None }
    }

    /// Attach the spawned pid.
    pub fn with_pid(mut self, pid: u32) -> Self {
        self.pid = Some(pid);
        self
    }
}

/// Pluggable process back-end. Implementations simulate the tool run
/// (advancing virtual time) and return the outcome.
pub trait JobExecutor: Send + Sync {
    /// Execute the plan.
    fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult;
}

impl<T: JobExecutor + ?Sized> JobExecutor for std::sync::Arc<T> {
    fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
        (**self).execute(plan)
    }
}

/// An executor that succeeds instantly — useful for orchestration tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullExecutor;

impl JobExecutor for NullExecutor {
    fn execute(&self, _plan: &ExecutionPlan) -> ExecutionResult {
        ExecutionResult::ok("")
    }
}

/// Mutates assembled container/launch command parts before execution —
/// the extension point GYAN's Challenge-III uses to append `--gpus all`
/// (Docker) or `--nv` (Singularity) and to strip `rw`/`ro` bind flags.
pub trait CommandMutator: Send + Sync {
    /// Adjust `parts` in place. `job` exposes the env (GYAN checks
    /// `GALAXY_GPU_ENABLED`); `destination` exposes destination params.
    fn mutate(&self, parts: &mut Vec<String>, job: &Job, destination: &Destination);
}

/// How a job's current attempt ended, from the hooks' point of view.
///
/// Hooks that acquire per-job resources in
/// [`JobHook::before_dispatch`] (GYAN's GPU leases) use this to decide
/// what to free in [`JobHook::after_conclude`]: every variant means the
/// attempt's prepared plan will never execute again as-is, so
/// attempt-scoped resources must be released. A retryable failure
/// re-prepares from scratch, re-running the hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobConclusion {
    /// The job finished successfully.
    Ok,
    /// The job failed and no further attempts will run.
    FailedFinal,
    /// The attempt failed but the job is eligible for resubmission; the
    /// next attempt re-runs the hooks against the fallback destination.
    FailedRetryable,
    /// Preparation itself failed (mapping, hooks, template, container).
    PrepareFailed,
    /// The prepared plan was discarded without executing (engine
    /// shutdown before dispatch).
    Discarded,
}

impl JobConclusion {
    /// Stable snake_case name used in audit events.
    pub fn as_str(self) -> &'static str {
        match self {
            JobConclusion::Ok => "ok",
            JobConclusion::FailedFinal => "failed_final",
            JobConclusion::FailedRetryable => "failed_retryable",
            JobConclusion::PrepareFailed => "prepare_failed",
            JobConclusion::Discarded => "discarded",
        }
    }
}

/// Hook invoked after destination mapping and before command rendering —
/// the extension point GYAN's orchestrator uses to pick GPUs, export
/// `CUDA_VISIBLE_DEVICES`/`GALAXY_GPU_ENABLED`, and bridge
/// `__galaxy_gpu_enabled__` into the parameter dictionary.
pub trait JobHook: Send + Sync {
    /// Adjust the job in place.
    fn before_dispatch(&self, job: &mut Job, tool: &Tool, destination: &Destination);

    /// Called when an attempt concludes (success, final failure,
    /// retryable failure, preparation failure, or discard), so hooks can
    /// release attempt-scoped resources they acquired in
    /// [`JobHook::before_dispatch`]. Default: no-op.
    fn after_conclude(&self, job_id: u64, conclusion: JobConclusion) {
        let _ = (job_id, conclusion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamDict;

    #[test]
    fn execution_result_constructors() {
        let ok = ExecutionResult::ok("out");
        assert_eq!(ok.exit_code, 0);
        assert_eq!(ok.stdout, "out");
        let fail = ExecutionResult::fail(2, "boom");
        assert_eq!(fail.exit_code, 2);
        assert_eq!(fail.stderr, "boom");
    }

    #[test]
    fn plan_env_and_rendering() {
        let plan = ExecutionPlan {
            job_id: 1,
            tool_id: "t".into(),
            destination_id: "local".into(),
            command_line: "echo hi".into(),
            env: vec![("GALAXY_GPU_ENABLED".into(), "true".into())],
            container: None,
            command_parts: vec!["/bin/bash".into(), "-c".into(), "echo hi".into()],
        };
        assert_eq!(plan.env_var("GALAXY_GPU_ENABLED"), Some("true"));
        assert_eq!(plan.rendered_command(), "/bin/bash -c echo hi");
    }

    #[test]
    fn null_executor_succeeds() {
        let plan = ExecutionPlan {
            job_id: 1,
            tool_id: "t".into(),
            destination_id: "d".into(),
            command_line: String::new(),
            env: vec![],
            container: None,
            command_parts: vec![],
        };
        assert_eq!(NullExecutor.execute(&plan).exit_code, 0);
        let _job = Job::new(1, "t", ParamDict::new());
    }
}
