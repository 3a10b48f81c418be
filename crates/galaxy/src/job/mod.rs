//! Jobs and the Galaxy job state machine.

pub mod conf;

use crate::error::GalaxyError;
use crate::params::ParamDict;
use obs::Text;
use std::sync::{Arc, OnceLock};

/// An environment exported to a tool process, as `(key, value)` pairs in
/// the order they were set. A job and every plan built from it share one
/// list: building a plan takes a handle, and a later write to the job
/// copies the list only while a plan still holds it. Keys and values are
/// [`Text`]s, so a literal key (`CUDA_VISIBLE_DEVICES`) is kept by
/// reference and a short value (`0,1`) in place.
pub type Env = Arc<Vec<(Text, Text)>>;

/// Galaxy job states (the subset relevant to dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Created, not yet mapped to a destination.
    New,
    /// Mapped and waiting for the runner.
    Queued,
    /// Executing.
    Running,
    /// Finished successfully.
    Ok,
    /// Finished with an error.
    Error,
    /// Cancelled/removed.
    Deleted,
}

impl JobState {
    /// Lower-case name as Galaxy's API reports it.
    pub fn name(self) -> &'static str {
        match self {
            JobState::New => "new",
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Ok => "ok",
            JobState::Error => "error",
            JobState::Deleted => "deleted",
        }
    }

    fn can_transition(self, to: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, to),
            (New, Queued)
                | (Queued, Running)
                | (Running, Ok)
                | (Running, Error)
                | (New, Error)
                | (Queued, Error)
                | (New, Deleted)
                | (Queued, Deleted)
                | (Running, Deleted)
                // Resubmission: a failed attempt may be requeued (Galaxy's
                // `<resubmit>`); `Ok` and `Deleted` stay terminal.
                | (Error, Queued)
        )
    }
}

/// A submitted tool execution.
#[derive(Debug, Clone)]
pub struct Job {
    /// Unique job id.
    pub id: u64,
    /// The tool being run (shared with the installed tool's id).
    pub tool_id: Arc<str>,
    /// User-provided + backend-injected parameters.
    pub params: ParamDict,
    state: JobState,
    /// Destination chosen by mapping (static or dynamic), shared with
    /// the configured destination's id.
    pub destination_id: Option<Arc<str>>,
    /// Final assembled shell command, shared with the attempt's plan.
    pub command_line: Option<Arc<str>>,
    /// Environment exported to the tool process (`GALAXY_GPU_ENABLED`,
    /// `CUDA_VISIBLE_DEVICES`, ...); written through [`Job::set_env`] and
    /// [`Job::remove_env`].
    pub env: Env,
    /// The submitting user, written by the queue engine before each
    /// attempt (a fleet's fair-share policy reads it); empty on
    /// [`crate::GalaxyApp::submit`], which has no user.
    pub user: Arc<str>,
    /// Fleet nodes this attempt must not land on: every node an earlier
    /// attempt failed on (placement-aware resubmission). Written by the
    /// queue engine before each attempt.
    pub excluded_nodes: Vec<String>,
    /// A revised GPU memory budget (MiB) for a footprint-revised
    /// resubmission; the GPU hook takes it over every other memory hint.
    /// Set by the queue engine once a retry earns it, kept by later
    /// attempts.
    pub gpu_budget_override_mib: Option<u64>,
    /// Virtual time of submission.
    pub submit_time: Option<f64>,
    /// Virtual time execution started.
    pub start_time: Option<f64>,
    /// Virtual time execution finished.
    pub end_time: Option<f64>,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
    /// Exit code reported by the executor.
    pub exit_code: Option<i32>,
    /// Host pid of the spawned process (simulated).
    pub pid: Option<u32>,
}

impl Job {
    /// Create a new job in state `New`.
    pub fn new(id: u64, tool_id: impl Into<Arc<str>>, params: ParamDict) -> Self {
        Job {
            id,
            tool_id: tool_id.into(),
            params,
            state: JobState::New,
            destination_id: None,
            command_line: None,
            env: Env::default(),
            user: no_user(),
            excluded_nodes: Vec::new(),
            gpu_budget_override_mib: None,
            submit_time: None,
            start_time: None,
            end_time: None,
            stdout: String::new(),
            stderr: String::new(),
            exit_code: None,
            pid: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> JobState {
        self.state
    }

    /// Transition to `to`, validating against the state machine.
    pub fn transition(&mut self, to: JobState) -> Result<(), GalaxyError> {
        if self.state.can_transition(to) {
            self.state = to;
            Ok(())
        } else {
            Err(GalaxyError::BadTransition { from: self.state.name(), to: to.name() })
        }
    }

    /// Set an environment variable for the tool process: any existing
    /// value for the key is dropped and the pair goes last. Copies the
    /// list first only while a plan still shares it.
    pub fn set_env(&mut self, key: impl Into<Text>, value: impl Into<Text>) {
        let key = key.into();
        let env = Arc::make_mut(&mut self.env);
        env.retain(|(k, _)| *k != key);
        env.push((key, value.into()));
    }

    /// Remove an exported environment variable, returning whether a value
    /// was present; an absent key leaves the list (and any plan sharing
    /// it) untouched. Hooks use this on resubmitted attempts: a CPU retry
    /// must not inherit the failed GPU attempt's `CUDA_VISIBLE_DEVICES`
    /// or `GALAXY_NODE` exports.
    pub fn remove_env(&mut self, key: &str) -> bool {
        let Some(at) = self.env.iter().position(|(k, _)| k == key) else { return false };
        Arc::make_mut(&mut self.env).remove(at);
        true
    }

    /// Look up an exported environment variable.
    pub fn env_var(&self, key: &str) -> Option<&str> {
        env_var(&self.env, key)
    }

    /// Wall (virtual) runtime, if the job has finished.
    pub fn runtime(&self) -> Option<f64> {
        Some(self.end_time? - self.start_time?)
    }
}

/// The user of a job no queue submitted: one shared empty name, so a new
/// job allocates none.
fn no_user() -> Arc<str> {
    static NO_USER: OnceLock<Arc<str>> = OnceLock::new();
    NO_USER.get_or_init(|| Arc::from("")).clone()
}

/// `key`'s value in an exported environment.
pub(crate) fn env_var<'a>(env: &'a [(Text, Text)], key: &str) -> Option<&'a str> {
    env.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_transitions() {
        let mut j = Job::new(1, "racon_gpu", ParamDict::new());
        assert_eq!(j.state(), JobState::New);
        j.transition(JobState::Queued).unwrap();
        j.transition(JobState::Running).unwrap();
        j.transition(JobState::Ok).unwrap();
        assert_eq!(j.state(), JobState::Ok);
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut j = Job::new(1, "t", ParamDict::new());
        assert!(j.transition(JobState::Running).is_err()); // must queue first
        j.transition(JobState::Queued).unwrap();
        assert!(j.transition(JobState::Ok).is_err()); // must run first
        j.transition(JobState::Running).unwrap();
        j.transition(JobState::Error).unwrap();
        assert!(j.transition(JobState::Running).is_err()); // terminal
        assert!(j.transition(JobState::Deleted).is_err()); // terminal
    }

    #[test]
    fn error_can_requeue_for_resubmission() {
        let mut j = Job::new(1, "t", ParamDict::new());
        j.transition(JobState::Queued).unwrap();
        j.transition(JobState::Running).unwrap();
        j.transition(JobState::Error).unwrap();
        j.transition(JobState::Queued).unwrap();
        j.transition(JobState::Running).unwrap();
        j.transition(JobState::Ok).unwrap();
        assert!(j.transition(JobState::Queued).is_err(), "Ok stays terminal");
    }

    #[test]
    fn delete_from_any_live_state() {
        for setup in 0..3 {
            let mut j = Job::new(1, "t", ParamDict::new());
            if setup >= 1 {
                j.transition(JobState::Queued).unwrap();
            }
            if setup >= 2 {
                j.transition(JobState::Running).unwrap();
            }
            j.transition(JobState::Deleted).unwrap();
        }
    }

    #[test]
    fn env_replace_semantics() {
        let mut j = Job::new(1, "t", ParamDict::new());
        j.set_env("GALAXY_GPU_ENABLED", "false");
        j.set_env("GALAXY_GPU_ENABLED", "true");
        assert_eq!(j.env_var("GALAXY_GPU_ENABLED"), Some("true"));
        assert_eq!(j.env.len(), 1);
    }

    #[test]
    fn remove_env_drops_the_key_and_reports_presence() {
        let mut j = Job::new(1, "t", ParamDict::new());
        j.set_env("CUDA_VISIBLE_DEVICES", "0,1");
        j.set_env("GALAXY_NODE", "k80-000");
        assert!(j.remove_env("CUDA_VISIBLE_DEVICES"));
        assert!(j.env_var("CUDA_VISIBLE_DEVICES").is_none());
        assert_eq!(j.env_var("GALAXY_NODE"), Some("k80-000"));
        assert!(!j.remove_env("CUDA_VISIBLE_DEVICES"), "second removal is a no-op");
    }

    #[test]
    fn runtime_requires_both_timestamps() {
        let mut j = Job::new(1, "t", ParamDict::new());
        assert!(j.runtime().is_none());
        j.start_time = Some(10.0);
        assert!(j.runtime().is_none());
        j.end_time = Some(14.5);
        assert_eq!(j.runtime(), Some(4.5));
    }

    #[test]
    fn state_names() {
        assert_eq!(JobState::New.name(), "new");
        assert_eq!(JobState::Ok.name(), "ok");
    }
}
