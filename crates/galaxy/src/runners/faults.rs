//! Fault injection for job execution.
//!
//! [`FaultInjectingExecutor`] wraps any [`JobExecutor`] and consults a
//! shared [`FaultPlan`] before each execution: if a fault is queued for
//! the plan's job id it is consumed and returned as the execution result,
//! otherwise the inner executor runs normally. One queued fault therefore
//! models a *retryable* failure — the resubmitted attempt (same job id)
//! finds the queue empty and runs clean.
//!
//! The fault shapes mirror what Galaxy handlers actually see from
//! container runtimes and the kernel:
//!
//! * container launch failure — `docker run` dying before the tool starts
//!   (exit 125, the Docker daemon's own error code);
//! * runner out-of-memory — the OOM killer's SIGKILL (exit 137);
//! * runner crash — a segfaulting tool binary (exit 139).

use super::{ExecutionPlan, ExecutionResult, JobExecutor};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One injectable execution failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The container runtime failed to start the tool at all.
    ContainerLaunch,
    /// The kernel OOM killer terminated the tool (SIGKILL → 128+9).
    OutOfMemory,
    /// The tool crashed with a segfault (SIGSEGV → 128+11).
    Crash,
}

impl InjectedFault {
    /// Render the fault as the [`ExecutionResult`] a handler would see.
    pub fn to_result(self, plan: &ExecutionPlan) -> ExecutionResult {
        match self {
            InjectedFault::ContainerLaunch => ExecutionResult::fail(
                125,
                format!(
                    "docker: Error response from daemon: failed to create task for \
                     container: {} (injected)",
                    plan.tool_id
                ),
            ),
            InjectedFault::OutOfMemory => {
                ExecutionResult::fail(137, format!("{}: Killed (injected oom)", plan.tool_id))
            }
            InjectedFault::Crash => ExecutionResult::fail(
                139,
                format!("{}: Segmentation fault (injected)", plan.tool_id),
            ),
        }
    }
}

/// Shared, clonable queue of faults keyed by job id. Injected faults are
/// consumed in FIFO order, one per execution attempt of that job.
#[derive(Clone, Default)]
pub struct FaultPlan {
    queued: Arc<Mutex<HashMap<u64, VecDeque<InjectedFault>>>>,
}

impl FaultPlan {
    /// An empty plan (no faults fire until some are injected).
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a fault for `job_id`'s next execution attempt. Queue several
    /// to fail several consecutive attempts.
    pub fn inject(&self, job_id: u64, fault: InjectedFault) {
        self.queued.lock().entry(job_id).or_default().push_back(fault);
    }

    /// Consume the next queued fault for `job_id`, if any.
    pub fn take(&self, job_id: u64) -> Option<InjectedFault> {
        let mut queued = self.queued.lock();
        let faults = queued.get_mut(&job_id)?;
        let fault = faults.pop_front();
        if faults.is_empty() {
            queued.remove(&job_id);
        }
        fault
    }

    /// Total faults still queued across all jobs.
    pub fn pending(&self) -> usize {
        self.queued.lock().values().map(VecDeque::len).sum()
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan").field("pending", &self.pending()).finish()
    }
}

/// A [`JobExecutor`] decorator that fails attempts according to a
/// [`FaultPlan`] and otherwise delegates to the wrapped executor.
pub struct FaultInjectingExecutor<E> {
    inner: E,
    plan: FaultPlan,
}

impl<E: JobExecutor> FaultInjectingExecutor<E> {
    /// Wrap `inner`, consulting `plan` before every execution.
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        FaultInjectingExecutor { inner, plan }
    }
}

impl<E: JobExecutor> JobExecutor for FaultInjectingExecutor<E> {
    fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
        match self.plan.take(plan.job_id) {
            Some(fault) => fault.to_result(plan),
            None => self.inner.execute(plan),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::NullExecutor;

    impl<E: JobExecutor> FaultInjectingExecutor<E> {
        /// The shared fault plan (inject through a clone of this).
        fn plan(&self) -> &FaultPlan {
            &self.plan
        }
    }

    fn plan_for(job_id: u64) -> ExecutionPlan {
        ExecutionPlan {
            job_id,
            tool_id: "racon".into(),
            destination_id: "local_gpu".into(),
            command_line: "racon -t 4".into(),
            env: Default::default(),
            container: None,
            command_parts: Vec::new(),
        }
    }

    #[test]
    fn fault_fires_once_then_delegates() {
        let exec = FaultInjectingExecutor::new(NullExecutor, FaultPlan::new());
        exec.plan().inject(7, InjectedFault::OutOfMemory);
        let first = exec.execute(&plan_for(7));
        assert_eq!(first.exit_code, 137);
        assert!(first.stderr.contains("Killed"), "{}", first.stderr);
        // The fault was consumed: the retry attempt runs clean.
        assert_eq!(exec.execute(&plan_for(7)).exit_code, 0);
        // Other jobs are never affected.
        assert_eq!(exec.execute(&plan_for(8)).exit_code, 0);
    }

    #[test]
    fn faults_consume_fifo_per_job() {
        let faults = FaultPlan::new();
        faults.inject(1, InjectedFault::ContainerLaunch);
        faults.inject(1, InjectedFault::Crash);
        assert_eq!(faults.pending(), 2);
        assert_eq!(faults.take(1), Some(InjectedFault::ContainerLaunch));
        assert_eq!(faults.take(1), Some(InjectedFault::Crash));
        assert_eq!(faults.take(1), None);
        assert_eq!(faults.pending(), 0);
    }

    #[test]
    fn exit_codes_match_their_unix_signals() {
        let p = plan_for(3);
        assert_eq!(InjectedFault::ContainerLaunch.to_result(&p).exit_code, 125);
        assert_eq!(InjectedFault::OutOfMemory.to_result(&p).exit_code, 137);
        assert_eq!(InjectedFault::Crash.to_result(&p).exit_code, 139);
    }

    #[test]
    fn clones_share_the_queue() {
        let a = FaultPlan::new();
        let b = a.clone();
        a.inject(5, InjectedFault::Crash);
        assert_eq!(b.take(5), Some(InjectedFault::Crash));
        assert_eq!(a.take(5), None);
    }
}
