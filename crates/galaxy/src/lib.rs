//! # galaxy
//!
//! A Galaxy-workalike job orchestration framework — the substrate the GYAN
//! paper modifies. The real Galaxy is a large Python web application; this
//! crate reproduces the specific execution pipeline GYAN hooks into
//! (paper §III, Fig. 2):
//!
//! 1. **Tool parsing** — tools are described by XML *wrapper files*
//!    ([`tool`]) with `<requirements>`, a Cheetah command template
//!    ([`template`]), `<inputs>`/`<outputs>`, and optional `<macros>`
//!    imports ([`tool::macros`]).
//! 2. **Destination mapping** — a `job_conf.xml` ([`job::conf`]) declares
//!    runner plugins and *destinations*; destinations may be *dynamic*,
//!    deferring the choice to a registered rule function (this is the
//!    extension point where GYAN installs its GPU-aware rule).
//! 3. **Command building & dispatch** — runners ([`runners`]) assemble the
//!    shell command line from the evaluated template, wrap it for
//!    Docker/Singularity when the destination enables containers
//!    ([`containers`]), apply registered *command mutators* (GYAN's
//!    `--gpus all` / `--nv` injection), and export environment variables
//!    (GYAN's `GALAXY_GPU_ENABLED`, `CUDA_VISIBLE_DEVICES`).
//! 4. **Job lifecycle** — jobs move through the Galaxy state machine
//!    ([`job`]) and land their outputs in a history ([`history`]).
//!
//! The crate is execution-agnostic: running the assembled command is
//! delegated to a caller-provided [`runners::JobExecutor`], which is how
//! the simulated Racon/Bonito tools (crate `seqtools`) get plugged in
//! without this substrate depending on them.

pub mod app;
pub mod containers;
pub mod error;
pub mod history;
pub mod job;
pub mod params;
pub mod queue;
pub mod runners;
pub mod scheduler;
pub mod template;
pub mod tool;

/// Environment variable naming the fleet node a job was placed on. Set by
/// a placement-aware pre-dispatch hook; the queue engine mirrors it into
/// the ledger so ops views can label jobs per node.
pub const GALAXY_NODE_ENV: &str = "GALAXY_NODE";

/// Environment variable carrying a comma-separated list of fleet node
/// names the current attempt must not land on. The queue engine exports
/// it on resubmitted attempts (placement-aware resubmission: the node a
/// GPU attempt failed on is excluded from the retry); placement hooks
/// parse it into the placement request's exclusion set.
pub const GALAXY_EXCLUDED_NODES_ENV: &str = "GALAXY_EXCLUDED_NODES";

/// Environment variable carrying the submitting user into pre-dispatch
/// hooks (the queue engine sets it from its fair-share context before
/// preparing the plan, since `Job` itself has no user field).
pub const GALAXY_USER_ENV: &str = "GALAXY_USER";

/// Environment variable carrying a revised GPU memory budget (MiB) for a
/// footprint-revised resubmission: the queue engine sets it from the
/// installed [`app::FootprintAdvisor`] before requeueing a failed
/// attempt on its original destination, and the GPU hook consumes it as
/// the highest-priority memory hint for that retry.
pub const GALAXY_GPU_BUDGET_OVERRIDE_ENV: &str = "GALAXY_GPU_BUDGET_OVERRIDE_MIB";

pub use app::{FootprintAdvisor, GalaxyApp, PlacementAdvisor};
pub use error::GalaxyError;
pub use job::{Job, JobState};
pub use params::ParamDict;
pub use queue::{
    DagRunReport, DagStep, DagWorkflow, JobHandle, JobSnapshot, JobsLedger, QueueConfig,
    QueueEngine, ResubmitPolicy, SubmissionState, WorkflowHandle,
};
pub use tool::{Requirement, RequirementType, Tool};
