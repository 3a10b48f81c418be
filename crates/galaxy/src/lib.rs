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

pub use app::GalaxyApp;
pub use error::GalaxyError;
pub use job::{Job, JobState};
pub use params::ParamDict;
pub use queue::{
    DagRunReport, DagStep, DagWorkflow, JobHandle, JobSnapshot, JobsLedger, QueueConfig,
    QueueEngine, ResubmitPolicy, SubmissionState, WorkflowHandle,
};
pub use tool::{Requirement, RequirementType, Tool};
