//! The asynchronous job queue + DAG workflow engine.
//!
//! Real Galaxy never runs a job inline with the web request: submissions
//! enter an asynchronous queue, handler workers pull them off, and failed
//! jobs can be *resubmitted* to fallback destinations. This module brings
//! that layer to the substrate:
//!
//! - [`QueueEngine::submit_async`] returns a [`JobHandle`] immediately and
//!   enqueues the work instead of blocking;
//! - the queue is bounded with per-user fair-share ordering and admission
//!   control ([`fair_share`]) — a full queue rejects with a reason rather
//!   than growing without bound;
//! - [`QueueEngine::submit_dag`] runs [`DagWorkflow`]s with explicit step
//!   dependencies ([`dag`]): independent steps dispatch concurrently
//!   through the [`HandlerPool`], so fan-out branches overlap on the
//!   virtual clock;
//! - failures follow a [`ResubmitPolicy`] ([`resubmit`]) — Galaxy's
//!   `<resubmit>` semantics, e.g. GPU → CPU after an injected device
//!   failure.
//!
//! ## Pump model
//!
//! [`QueueEngine::run_until_idle`] dispatches in deterministic *waves*:
//! it pops up to `workers` items by fair share, prepares **all** their
//! plans (so hooks observe the pre-wave cluster state and every wave
//! member shares one virtual start time), hands the wave to the pool,
//! waits, then processes completions — possibly enqueuing newly-ready DAG
//! steps or resubmitted attempts for the next wave.
//!
//! Preparing a whole wave against the pre-wave state is a deliberate
//! time-of-check/time-of-use window: two wave members can observe the
//! same "free" resource. Hooks that grant exclusive resources must
//! therefore reserve at preparation time and release on conclusion —
//! GYAN's GPU lease table does exactly that (see the `gyan` crate's
//! `reservations` module), using [`crate::runners::JobHook::after_conclude`]
//! for release and [`QueueEngine::set_discard_listener`] to cover plans a
//! discard shutdown skips.
//!
//! ## Virtual-clock time charging
//!
//! Executors that advance the shared `gpusim`-style virtual clock do so
//! additively from worker threads, so concurrent execution cannot shrink
//! the clock reading by itself. When a [`WaveTimeCharging`] is configured
//! the engine instead charges time at the wave barrier: each wave advances
//! the clock to `wave_start + max(step duration)`, so parallel branches
//! cost their *maximum* while sequential chains cost their *sum* — making
//! DAG makespan measurably (and deterministically) smaller than the
//! sequential baseline.
//!
//! Every scheduling decision is audited through the app's [`obs`]
//! recorder as `galaxy.queue.*` events (enqueue, fair-share pick,
//! dispatch, reject, resubmit, step-ready, cancel) alongside queue-depth,
//! wait-time, and retry metrics.

pub mod dag;
pub mod fair_share;
pub mod ledger;
pub mod resubmit;

pub use crate::scheduler::DispatchMode;
pub use dag::{DagStep, DagWorkflow};
pub use fair_share::{FairShareQueue, Popped, Rejection};
pub use ledger::{JobSnapshot, JobsLedger};
pub use resubmit::ResubmitPolicy;

use crate::app::GalaxyApp;
use crate::error::GalaxyError;
use crate::params::ParamDict;
use crate::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
use crate::scheduler::HandlerPool;
use dag::ValueSource;
use obs::{Span, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Gauge: entries currently waiting in the fair-share queue.
pub const QUEUE_DEPTH_GAUGE: &str = "galaxy_queue_depth";
/// Histogram: seconds each entry waited before dispatch.
pub const QUEUE_WAIT_HISTOGRAM: &str = "galaxy_queue_wait_seconds";
/// Counter: submissions refused by admission control.
pub const QUEUE_REJECTED_COUNTER: &str = "galaxy_queue_rejected_total";
/// Counter: plans handed to the handler pool.
pub const QUEUE_DISPATCHED_COUNTER: &str = "galaxy_queue_dispatched_total";
/// Counter: failed attempts resubmitted to a fallback destination.
pub const QUEUE_RESUBMITTED_COUNTER: &str = "galaxy_queue_resubmitted_total";

/// A virtual clock the engine may advance at wave barriers. `advance_to`
/// must clamp (never rewind), matching `gpusim::VirtualClock::advance_to`.
pub trait AdvanceableClock: Send + Sync {
    /// Current virtual time (seconds).
    fn now(&self) -> f64;
    /// Advance to absolute time `t` (no-op when `t` is in the past).
    fn advance_to(&self, t: f64);
}

/// Per-plan duration estimate used for wave-barrier time charging.
pub trait DurationModel: Send + Sync {
    /// Virtual seconds the plan occupies a worker.
    fn duration(&self, plan: &ExecutionPlan) -> f64;
}

impl<F> DurationModel for F
where
    F: Fn(&ExecutionPlan) -> f64 + Send + Sync,
{
    fn duration(&self, plan: &ExecutionPlan) -> f64 {
        self(plan)
    }
}

/// Wave-barrier time charging: after each wave completes, the clock
/// advances to `wave_start + max(duration)` across the wave's members.
pub struct WaveTimeCharging {
    /// The shared virtual clock to advance.
    pub clock: Box<dyn AdvanceableClock>,
    /// Duration estimate per plan.
    pub model: Box<dyn DurationModel>,
}

/// Engine configuration.
pub struct QueueConfig {
    /// Bounded queue capacity (admission control rejects beyond it).
    pub capacity: usize,
    /// Handler pool worker threads; also the wave width.
    pub workers: u32,
    /// Optional cap on one user's simultaneously queued entries.
    pub per_user_limit: Option<usize>,
    /// Engine-wide resubmission policy (destinations may override via
    /// `resubmit_destination` / `resubmit_attempts` params).
    pub resubmit: ResubmitPolicy,
    /// Optional wave-barrier virtual-clock charging.
    pub time_charging: Option<WaveTimeCharging>,
    /// Pool backend: OS worker threads (default) or the event-driven
    /// ready queue — see [`crate::scheduler::DispatchMode`]. Load
    /// harnesses holding 10^5 in-flight jobs use [`DispatchMode::Event`]
    /// so a wave never needs one OS thread per worker.
    pub dispatch: DispatchMode,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 64,
            workers: 4,
            per_user_limit: None,
            resubmit: ResubmitPolicy::none(),
            time_charging: None,
            dispatch: DispatchMode::Threads,
        }
    }
}

/// Handle returned by an asynchronous submission (the job id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobHandle(pub u64);

/// Handle for a submitted DAG workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkflowHandle(pub usize);

/// Lifecycle of an asynchronous submission as the engine sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionState {
    /// Waiting in the queue (or between resubmission attempts).
    Queued,
    /// Finished successfully.
    Ok,
    /// Failed terminally (attempt budget exhausted or no fallback).
    Error,
    /// Never executed: an upstream DAG step failed, or the plan was
    /// dropped by a discard (shutdown or mid-wave fault).
    Cancelled,
}

impl SubmissionState {
    /// Lower-case state name as served by the ops plane.
    pub fn as_str(self) -> &'static str {
        match self {
            SubmissionState::Queued => "queued",
            SubmissionState::Ok => "ok",
            SubmissionState::Error => "error",
            SubmissionState::Cancelled => "cancelled",
        }
    }
}

/// Observed virtual-clock interval of one completed DAG step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Job id the step ran as.
    pub job_id: u64,
    /// Virtual time the attempt started.
    pub start: f64,
    /// Virtual time the step finished.
    pub end: f64,
}

/// Summary of a DAG workflow run.
#[derive(Debug, Clone)]
pub struct DagRunReport {
    /// Per-step job ids (None when never materialized).
    pub job_ids: Vec<Option<u64>>,
    /// First failed step, if any.
    pub failed_step: Option<usize>,
    /// Per-step observed intervals (None unless completed).
    pub outcomes: Vec<Option<StepOutcome>>,
    /// `max(end) - min(start)` over completed steps (0 when none).
    pub makespan: f64,
}

impl DagRunReport {
    /// Whether every step completed.
    pub fn ok(&self) -> bool {
        self.failed_step.is_none()
    }
}

#[derive(Debug, Clone, Copy)]
enum WorkItem {
    Job(u64),
    Step { wf: usize, step: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepState {
    Waiting,
    Enqueued,
    Done,
    Failed,
    Cancelled,
}

struct DagRun {
    dag: DagWorkflow,
    user: String,
    priority: u8,
    job_ids: Vec<Option<u64>>,
    states: Vec<StepState>,
    outcomes: Vec<Option<StepOutcome>>,
}

struct JobCtx {
    user: String,
    priority: u8,
    /// Completed dispatch attempts.
    attempts: u32,
    /// Destination override for the next attempt (resubmission).
    next_dest: Option<String>,
    /// Destination of the first attempt (selects the resubmit policy).
    first_destination: Option<String>,
    /// Owning DAG step, when the job materializes a workflow step.
    origin: Option<(usize, usize)>,
    /// Fleet nodes this job's next attempt must avoid (every node a
    /// previous attempt failed on). Exported to the placement hook via
    /// [`crate::GALAXY_EXCLUDED_NODES_ENV`].
    excluded_nodes: Vec<String>,
    /// Placement-aware same-destination retries already consumed.
    node_retries_used: u32,
    /// Footprint-revised same-destination retries already consumed.
    footprint_retries_used: u32,
}

impl JobCtx {
    fn new(user: String, priority: u8, origin: Option<(usize, usize)>) -> Self {
        JobCtx {
            user,
            priority,
            attempts: 0,
            next_dest: None,
            first_destination: None,
            origin,
            excluded_nodes: Vec::new(),
            node_retries_used: 0,
            footprint_retries_used: 0,
        }
    }
}

/// A failed attempt whose future [`QueueEngine::complete`] is deciding.
struct FailedAttempt<'a> {
    job_id: u64,
    result: &'a ExecutionResult,
    /// Dispatch attempts completed so far, this one included.
    attempts: u32,
    max_attempts: u32,
    /// Fleet node the attempt ran on, when the hook placed it on one.
    from_node: Option<String>,
}

/// What a retry changes about the next attempt besides its destination;
/// also the `reason` of its `galaxy.queue.resubmit` audit.
enum Retry {
    /// Same destination, the failed node added to the exclusion set
    /// (carried here, already grown).
    NodeExcluded(Vec<String>),
    /// Same destination, a revised GPU memory budget (MiB).
    FootprintRevised(u64),
    /// The next rung of the fallback ladder.
    Fallback,
}

/// One wave member: the dispatched plan's bookkeeping.
struct Dispatched {
    job_id: u64,
    duration: f64,
    wave_start: f64,
    span: Option<Span>,
}

/// The asynchronous queue + DAG engine wrapping a [`GalaxyApp`].
pub struct QueueEngine {
    app: GalaxyApp,
    pool: HandlerPool,
    queue: FairShareQueue<WorkItem>,
    default_resubmit: ResubmitPolicy,
    time_charging: Option<WaveTimeCharging>,
    wave_size: usize,
    jobs: HashMap<u64, JobCtx>,
    statuses: HashMap<u64, SubmissionState>,
    /// Ops-plane mirror of `statuses` plus per-job dispatch detail,
    /// shareable with reader threads (see [`ledger::JobsLedger`]).
    ledger: JobsLedger,
    workflows: Vec<DagRun>,
    /// One-shot fault flag: discard the next dispatched wave's plans at
    /// the pool instead of executing them (see
    /// [`QueueEngine::discard_next_wave`]).
    discard_next_wave: bool,
}

impl GalaxyApp {
    /// Wrap this app in an asynchronous [`QueueEngine`] — the async submit
    /// path. `executor` is what the handler pool runs plans on (typically
    /// the same executor the app holds).
    pub fn into_queue(self, executor: Arc<dyn JobExecutor>, config: QueueConfig) -> QueueEngine {
        QueueEngine::new(self, executor, config)
    }
}

impl QueueEngine {
    /// Build an engine over `app`, dispatching plans on `executor` through
    /// a handler pool that shares the app's recorder.
    pub fn new(app: GalaxyApp, executor: Arc<dyn JobExecutor>, config: QueueConfig) -> Self {
        let pool = HandlerPool::with_mode(
            executor,
            config.workers,
            app.recorder().clone(),
            config.dispatch,
        );
        app.recorder().metrics().set_gauge(QUEUE_DEPTH_GAUGE, 0.0);
        QueueEngine {
            queue: FairShareQueue::new(config.capacity, config.per_user_limit),
            default_resubmit: config.resubmit,
            time_charging: config.time_charging,
            wave_size: config.workers.max(1) as usize,
            jobs: HashMap::new(),
            statuses: HashMap::new(),
            ledger: JobsLedger::new(),
            workflows: Vec::new(),
            discard_next_wave: false,
            app,
            pool,
        }
    }

    /// The wrapped app (jobs, history, recorder, events).
    pub fn app(&self) -> &GalaxyApp {
        &self.app
    }

    /// Mutable access to the wrapped app.
    pub fn app_mut(&mut self) -> &mut GalaxyApp {
        &mut self.app
    }

    /// Engine view of a submission's lifecycle.
    pub fn state(&self, handle: JobHandle) -> Option<SubmissionState> {
        self.statuses.get(&handle.0).copied()
    }

    /// Every tracked submission's lifecycle state, sorted by job id — the
    /// conservation ledger invariant checkers compare against the app's
    /// job table.
    pub fn submission_states(&self) -> Vec<(u64, SubmissionState)> {
        let mut out: Vec<(u64, SubmissionState)> =
            self.statuses.iter().map(|(id, s)| (*id, *s)).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Entries currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// A shareable handle on the engine's job ledger: hand it to the ops
    /// server (or any reader thread) for a live `GET /api/jobs` view.
    pub fn ledger(&self) -> JobsLedger {
        self.ledger.clone()
    }

    /// Record a lifecycle change in both the engine's own status map and
    /// the shared ops ledger (which also timestamps terminal states).
    fn set_status(&mut self, job_id: u64, state: SubmissionState) {
        self.statuses.insert(job_id, state);
        let finished_at = match state {
            SubmissionState::Queued => None,
            _ => Some(self.app.recorder().now()),
        };
        self.ledger.update(job_id, |snap| {
            snap.state = state;
            snap.finished_at = finished_at;
        });
    }

    /// Asynchronously submit a tool job for `user`: admission-check,
    /// create the job record, enqueue, and return immediately.
    pub fn submit_async(
        &mut self,
        user: &str,
        tool_id: &str,
        params: &ParamDict,
    ) -> Result<JobHandle, GalaxyError> {
        self.submit_with_priority(user, tool_id, params, 0)
    }

    /// [`QueueEngine::submit_async`] with an explicit priority (higher
    /// dispatches sooner *within* the user's own fair share).
    pub fn submit_with_priority(
        &mut self,
        user: &str,
        tool_id: &str,
        params: &ParamDict,
        priority: u8,
    ) -> Result<JobHandle, GalaxyError> {
        self.admit(user, tool_id)?;
        let job_id = self.app.create_job(tool_id, params)?;
        let now = self.app.recorder().now();
        self.queue.push_unchecked(user, priority, now, WorkItem::Job(job_id));
        self.jobs.insert(job_id, JobCtx::new(user.to_string(), priority, None));
        self.ledger.upsert(JobSnapshot {
            job_id,
            user: user.to_string(),
            tool: tool_id.to_string(),
            state: SubmissionState::Queued,
            attempts: 0,
            destination: None,
            node: None,
            priority,
            submitted_at: now,
            finished_at: None,
        });
        self.statuses.insert(job_id, SubmissionState::Queued);
        self.app.recorder().event(
            "galaxy.queue.enqueue",
            [
                ("user", Value::from(user)),
                ("tool", Value::from(tool_id)),
                ("job_id", Value::from(job_id)),
                ("priority", Value::from(u64::from(priority))),
                ("depth", Value::from(self.queue.len())),
            ],
        );
        self.sync_depth_gauge();
        Ok(JobHandle(job_id))
    }

    /// Submit a DAG workflow: validate, admit, and enqueue its root steps.
    /// Downstream steps enqueue as their dependencies complete.
    pub fn submit_dag(
        &mut self,
        user: &str,
        dag: DagWorkflow,
    ) -> Result<WorkflowHandle, GalaxyError> {
        dag.validate(&self.app)?;
        self.admit(user, &dag.name.clone())?;
        let n = dag.steps.len();
        let roots = dag.roots();
        self.app.recorder().event(
            "galaxy.queue.enqueue",
            [
                ("user", Value::from(user)),
                ("workflow", Value::from(dag.name.as_str())),
                ("steps", Value::from(n)),
                ("roots", Value::from(roots.len())),
            ],
        );
        let wf = self.workflows.len();
        self.workflows.push(DagRun {
            dag,
            user: user.to_string(),
            priority: 0,
            job_ids: vec![None; n],
            states: vec![StepState::Waiting; n],
            outcomes: vec![None; n],
        });
        for step in roots {
            self.enqueue_step(wf, step);
        }
        Ok(WorkflowHandle(wf))
    }

    /// Report on a submitted DAG workflow (job ids, per-step intervals,
    /// makespan over the virtual clock).
    pub fn workflow_report(&self, handle: WorkflowHandle) -> Option<DagRunReport> {
        let run = self.workflows.get(handle.0)?;
        let failed_step = run.states.iter().position(|s| *s == StepState::Failed);
        let completed: Vec<&StepOutcome> = run.outcomes.iter().flatten().collect();
        let makespan = if completed.is_empty() {
            0.0
        } else {
            let start = completed.iter().map(|o| o.start).fold(f64::INFINITY, f64::min);
            let end = completed.iter().map(|o| o.end).fold(f64::NEG_INFINITY, f64::max);
            end - start
        };
        Some(DagRunReport {
            job_ids: run.job_ids.clone(),
            failed_step,
            outcomes: run.outcomes.clone(),
            makespan,
        })
    }

    /// Pump the queue until nothing is left to do: dispatch fair-share
    /// waves through the handler pool, wait, apply completions, repeat.
    pub fn run_until_idle(&mut self) {
        while self.pump_wave() > 0 {}
    }

    /// Run exactly one wave to completion: dispatch up to `workers` items,
    /// wait for the pool, charge wave time, and apply completions.
    /// Returns the number of wave members dispatched (0 when the queue is
    /// idle). Stepping wave by wave is how the simulation harness
    /// interleaves invariant checks with the engine's own barrier.
    pub fn pump_wave(&mut self) -> usize {
        let wave = self.dispatch_wave();
        if wave.is_empty() {
            return 0;
        }
        {
            obs::profile_scope!("queue.wave.await");
            self.pool.barrier();
        }
        self.pool.clear_discard();
        self.charge_wave_time(&wave);
        let n = wave.len();
        {
            obs::profile_scope!("queue.wave.complete");
            for dispatched in wave {
                self.complete(dispatched);
            }
        }
        n
    }

    /// Arm a one-shot mid-wave discard fault: the next non-empty wave's
    /// plans are prepared and dispatched as usual, but the pool skips
    /// every one of them (notifying the discard listener) instead of
    /// executing — the simulated analogue of a handler restart dropping
    /// its queue between dispatch and pickup.
    pub fn discard_next_wave(&mut self) {
        self.discard_next_wave = true;
    }

    /// Drain outstanding work, stop the pool workers, and hand back the
    /// wrapped app.
    pub fn shutdown(mut self) -> GalaxyApp {
        self.run_until_idle();
        let QueueEngine { app, pool, .. } = self;
        pool.shutdown();
        app
    }

    /// Stop without draining: still-queued items are dropped unprepared,
    /// and plans already handed to the pool that no worker picked up are
    /// skipped — each skip notifies the discard listener (see
    /// [`QueueEngine::set_discard_listener`]) so preparation-time
    /// resources (GYAN's GPU leases) are not leaked. Hands back the
    /// wrapped app.
    pub fn shutdown_now(mut self) -> GalaxyApp {
        // Still-queued jobs never prepared, so they hold no attempt
        // resources — but their `galaxy.job` spans are open and must
        // close for the span balance to hold.
        while let Some(popped) = self.queue.pop() {
            if let WorkItem::Job(job_id) = popped.item {
                self.app.discard_job(job_id);
                self.set_status(job_id, SubmissionState::Cancelled);
            }
        }
        self.sync_depth_gauge();
        let QueueEngine { app, pool, .. } = self;
        pool.shutdown_now();
        app
    }

    /// Forward a discard listener to the handler pool: it is invoked once
    /// per plan skipped by a discard shutdown, with the plan's job id.
    /// Hooks that acquire per-job resources at preparation time register
    /// their release here, since a skipped plan never reaches
    /// [`GalaxyApp::finish_job`] and would otherwise leak them.
    pub fn set_discard_listener(&self, listener: crate::scheduler::DiscardListener) {
        self.pool.set_discard_listener(listener);
    }

    fn admit(&mut self, user: &str, what: &str) -> Result<(), GalaxyError> {
        if let Err(rejection) = self.queue.check_admission(user) {
            self.app.recorder().metrics().inc_counter(QUEUE_REJECTED_COUNTER, 1);
            self.app.recorder().event(
                "galaxy.queue.reject",
                [
                    ("user", Value::from(user)),
                    ("what", Value::from(what)),
                    ("reason", Value::from(rejection.reason.as_str())),
                ],
            );
            return Err(GalaxyError::QueueRejected(rejection.reason));
        }
        Ok(())
    }

    fn sync_depth_gauge(&self) {
        self.app.recorder().metrics().set_gauge(QUEUE_DEPTH_GAUGE, self.queue.len() as f64);
    }

    fn enqueue_step(&mut self, wf: usize, step: usize) {
        let run = &mut self.workflows[wf];
        run.states[step] = StepState::Enqueued;
        let user = run.user.clone();
        let priority = run.priority;
        let workflow = run.dag.name.clone();
        let tool = run.dag.steps[step].tool_id.clone();
        let now = self.app.recorder().now();
        // Internal continuation: the workflow was admitted as a whole, so
        // its steps bypass admission control.
        self.queue.push_unchecked(&user, priority, now, WorkItem::Step { wf, step });
        self.app.recorder().event(
            "galaxy.queue.step_ready",
            [
                ("workflow", Value::from(workflow)),
                ("step", Value::from(step)),
                ("tool", Value::from(tool)),
                ("user", Value::from(user)),
            ],
        );
        self.sync_depth_gauge();
    }

    /// Pop up to one wave of items, prepare every plan, then enqueue them
    /// all on the pool. Preparing before dispatching keeps wave starts on
    /// one deterministic virtual timestamp and lets hooks observe the
    /// pre-wave cluster state.
    fn dispatch_wave(&mut self) -> Vec<Dispatched> {
        obs::profile_scope!("queue.dispatch_wave");
        let mut wave: Vec<Dispatched> = Vec::new();
        let mut plans: Vec<ExecutionPlan> = Vec::new();
        let wave_start = self.app.recorder().now();
        while wave.len() < self.wave_size {
            let Some(popped) = self.queue.pop() else { break };
            self.sync_depth_gauge();
            self.app.recorder().event(
                "galaxy.queue.fair_share.pick",
                [
                    ("user", Value::from(popped.user.as_str())),
                    ("usage", Value::from(popped.usage)),
                    ("priority", Value::from(u64::from(popped.priority))),
                    ("depth", Value::from(self.queue.len())),
                ],
            );
            let job_id = match popped.item {
                WorkItem::Job(id) => Some(id),
                WorkItem::Step { wf, step } => self.materialize_step(wf, step),
            };
            let Some(job_id) = job_id else { continue };
            let wait = (wave_start - popped.enqueued_at).max(0.0);
            self.app.recorder().metrics().observe(QUEUE_WAIT_HISTOGRAM, wait);

            let dest_override = self.jobs.get_mut(&job_id).and_then(|ctx| ctx.next_dest.take());
            // Export the fair-share user onto the job record so
            // placement-aware hooks (e.g. a fleet's fair-share policy)
            // can see who is dispatching without a Job.user field.
            if let Some(user) = self.jobs.get(&job_id).map(|ctx| ctx.user.clone()) {
                self.app.set_job_env(job_id, crate::GALAXY_USER_ENV, &user);
            }
            // Export (or clear) the attempt's node exclusion set so the
            // placement hook filters out nodes previous attempts died on.
            match self.jobs.get(&job_id).map(|ctx| ctx.excluded_nodes.join(",")) {
                Some(joined) if !joined.is_empty() => {
                    self.app.set_job_env(job_id, crate::GALAXY_EXCLUDED_NODES_ENV, &joined);
                }
                _ => {
                    self.app.remove_job_env(job_id, crate::GALAXY_EXCLUDED_NODES_ENV);
                }
            }
            let prepared = {
                obs::profile_scope!("queue.prepare_plan");
                self.app.prepare_plan(job_id, dest_override.as_deref())
            };
            match prepared {
                Ok(plan) => {
                    let destination = plan.destination_id.clone();
                    let (attempt, user) = {
                        let ctx = self.jobs.get_mut(&job_id).expect("ctx exists");
                        ctx.attempts += 1;
                        if ctx.first_destination.is_none() {
                            ctx.first_destination = Some(destination.clone());
                        }
                        (ctx.attempts, ctx.user.clone())
                    };
                    // Hooks that place jobs onto fleet nodes export the
                    // chosen node; mirror it into the ledger (cleared on
                    // a node-less dispatch, e.g. a CPU resubmission).
                    let node = self
                        .app
                        .job(job_id)
                        .and_then(|j| j.env_var(crate::GALAXY_NODE_ENV))
                        .map(str::to_string);
                    self.ledger.update(job_id, |snap| {
                        snap.attempts = attempt;
                        snap.destination = Some(destination.clone());
                        snap.node = node.clone();
                    });
                    let span = self.app.job_span_child(job_id, "galaxy.dispatch");
                    if let Some(s) = &span {
                        s.field("destination", destination.as_str());
                        s.field("attempt", u64::from(attempt));
                    }
                    self.app.recorder().metrics().inc_counter(QUEUE_DISPATCHED_COUNTER, 1);
                    self.app.recorder().event(
                        "galaxy.queue.dispatch",
                        [
                            ("job_id", Value::from(job_id)),
                            ("tool", Value::from(plan.tool_id.as_str())),
                            ("destination", Value::from(destination)),
                            ("user", Value::from(user)),
                            ("attempt", Value::from(u64::from(attempt))),
                            ("wait_seconds", Value::from(wait)),
                        ],
                    );
                    let duration = self
                        .time_charging
                        .as_ref()
                        .map_or(0.0, |tc| tc.model.duration(&plan).max(0.0));
                    wave.push(Dispatched { job_id, duration, wave_start, span });
                    plans.push(plan);
                }
                Err(_) => {
                    // prepare_plan already marked the job failed.
                    self.set_status(job_id, SubmissionState::Error);
                    if let Some((wf, step)) = self.jobs.get(&job_id).and_then(|ctx| ctx.origin) {
                        self.fail_step(wf, step);
                    }
                }
            }
        }
        if self.discard_next_wave && !plans.is_empty() {
            // Armed fault: flip the pool into discard mode *before* the
            // plans land, so every member of this wave is skipped. The
            // pump clears the mode once the wave barrier passes.
            self.discard_next_wave = false;
            self.pool.discard_pending();
        }
        for plan in plans {
            self.pool.enqueue(plan);
        }
        wave
    }

    /// Resolve a ready DAG step's parameters (upstream outputs + literals)
    /// and create its job record. Returns `None` — failing the step — when
    /// an upstream output is missing or job creation fails.
    fn materialize_step(&mut self, wf: usize, step: usize) -> Option<u64> {
        let (tool_id, user, priority, bindings) = {
            let run = &self.workflows[wf];
            let dstep = &run.dag.steps[step];
            (dstep.tool_id.clone(), run.user.clone(), run.priority, dstep.params.clone())
        };
        let mut params = ParamDict::new();
        for (name, source) in bindings {
            let value = match source {
                ValueSource::Literal(v) => Some(v),
                ValueSource::StepOutput(from) => self.workflows[wf].job_ids[from].and_then(|jid| {
                    self.app.history().datasets_for_job(jid).first().map(|d| d.content.clone())
                }),
            };
            match value {
                Some(v) => params.set(name, v),
                None => {
                    self.fail_step(wf, step);
                    return None;
                }
            }
        }
        match self.app.create_job(&tool_id, &params) {
            Ok(job_id) => {
                self.workflows[wf].job_ids[step] = Some(job_id);
                self.ledger.upsert(JobSnapshot {
                    job_id,
                    user: user.clone(),
                    tool: tool_id.clone(),
                    state: SubmissionState::Queued,
                    attempts: 0,
                    destination: None,
                    node: None,
                    priority,
                    submitted_at: self.app.recorder().now(),
                    finished_at: None,
                });
                self.jobs.insert(job_id, JobCtx::new(user, priority, Some((wf, step))));
                self.statuses.insert(job_id, SubmissionState::Queued);
                Some(job_id)
            }
            Err(_) => {
                self.fail_step(wf, step);
                None
            }
        }
    }

    /// Advance the shared clock to the wave's end: start + the longest
    /// member duration (parallel branches charge their max, so DAG
    /// makespans genuinely beat sequential sums).
    fn charge_wave_time(&self, wave: &[Dispatched]) {
        let Some(tc) = &self.time_charging else { return };
        let end = wave.iter().map(|d| d.wave_start + d.duration).fold(f64::NEG_INFINITY, f64::max);
        if end.is_finite() {
            tc.clock.advance_to(end);
        }
    }

    /// Apply one wave member's result: success feeds the history and may
    /// unblock DAG dependents; failure consults the resubmit policy.
    fn complete(&mut self, dispatched: Dispatched) {
        let Dispatched { job_id, duration, wave_start, span } = dispatched;
        // A wave member without a pool result was skipped by a mid-wave
        // discard: the worker never ran it, and the pool's discard
        // listener (not this path) owns releasing its attempt resources.
        // Taking (not reading) the result keeps the pool's map bounded
        // by the wave width across an arbitrarily long run.
        let Some(result) = self.pool.take_result(job_id) else {
            if let Some(s) = span {
                s.field("discarded", true);
                s.end();
            }
            self.app.close_job_span_discarded(job_id);
            self.set_status(job_id, SubmissionState::Cancelled);
            self.app.recorder().event(
                "galaxy.queue.discard",
                [("job_id", Value::from(job_id)), ("reason", Value::from("wave_discarded"))],
            );
            if let Some((wf, step)) = self.jobs.get(&job_id).and_then(|ctx| ctx.origin) {
                self.fail_step(wf, step);
            }
            return;
        };
        if let Some(s) = span {
            s.field("exit_code", i64::from(result.exit_code));
            s.end();
        }

        if result.exit_code == 0 {
            let _ = self.app.finish_job(job_id, &result, true);
            // Scrub per-attempt retry context from the surviving job
            // record (mirroring the hook-side CUDA/node scrub): a
            // succeeded job's ledger snapshot must not carry the dead
            // exclusion set or budget override of earlier failed
            // attempts.
            self.app.remove_job_env(job_id, crate::GALAXY_EXCLUDED_NODES_ENV);
            self.app.remove_job_env(job_id, crate::GALAXY_GPU_BUDGET_OVERRIDE_ENV);
            self.set_status(job_id, SubmissionState::Ok);
            if let Some((wf, step)) = self.jobs.get(&job_id).and_then(|ctx| ctx.origin) {
                let end = if self.time_charging.is_some() {
                    wave_start + duration
                } else {
                    self.app.job(job_id).and_then(|j| j.end_time).unwrap_or(wave_start)
                };
                let start = self.app.job(job_id).and_then(|j| j.start_time).unwrap_or(wave_start);
                let run = &mut self.workflows[wf];
                run.outcomes[step] = Some(StepOutcome { job_id, start, end });
                run.states[step] = StepState::Done;
                let ready: Vec<usize> = run
                    .dag
                    .dependents_of(step)
                    .into_iter()
                    .filter(|j| {
                        run.states[*j] == StepState::Waiting
                            && run.dag.deps_of(*j).iter().all(|d| run.states[*d] == StepState::Done)
                    })
                    .collect();
                for next in ready {
                    self.enqueue_step(wf, next);
                }
            }
            return;
        }

        // Failure: prefer a placement-aware retry on the same destination
        // with the failed node excluded (policy budgets node retries AND
        // the placement advisor confirms a viable node class remains);
        // else walk the fallback ladder; else the failure is final.
        let policy = self.policy_for(job_id);
        let attempts = self.jobs.get(&job_id).map_or(1, |ctx| ctx.attempts);
        let node_retries_used = self.jobs.get(&job_id).map_or(0, |ctx| ctx.node_retries_used);
        let from_node = self.ledger.get(job_id).and_then(|snap| snap.node.clone());
        let budget_left = attempts < policy.max_attempts;

        let failed = FailedAttempt {
            job_id,
            result: &result,
            attempts,
            max_attempts: policy.max_attempts,
            from_node,
        };

        let node_retry = if budget_left && node_retries_used < policy.node_retries {
            self.node_retry_target(job_id, failed.from_node.as_deref())
        } else {
            None
        };
        if let Some((dest, excluded)) = node_retry {
            return self.requeue(&failed, dest, Retry::NodeExcluded(excluded));
        }

        // Next preference: a same-destination retry with a revised GPU
        // memory budget, when the footprint advisor knows one (e.g. the
        // learned profile says this tool/input really needs more than
        // the failed attempt's budget). Like node retries, these are
        // budgeted separately and do not consume the fallback ladder.
        let footprint_retries_used =
            self.jobs.get(&job_id).map_or(0, |ctx| ctx.footprint_retries_used);
        let footprint_retry = if budget_left && footprint_retries_used < policy.footprint_retries {
            self.footprint_retry_target(job_id)
        } else {
            None
        };
        if let Some((dest, budget_mib)) = footprint_retry {
            return self.requeue(&failed, dest, Retry::FootprintRevised(budget_mib));
        }

        // Node and footprint retries consumed attempts but must not
        // consume the fallback ladder: index it by attempts net of both
        // (always ≥ 1, since each such retry also incremented attempts).
        let ladder_position =
            attempts.saturating_sub(node_retries_used + footprint_retries_used).max(1);
        let fallback = if budget_left {
            policy
                .fallback_for(ladder_position)
                .filter(|d| self.app.config().destination(d).is_some())
                .map(str::to_string)
        } else {
            None
        };
        match fallback {
            Some(dest) => self.requeue(&failed, dest, Retry::Fallback),
            None => {
                let _ = self.app.finish_job(job_id, &result, true);
                self.set_status(job_id, SubmissionState::Error);
                if let Some((wf, step)) = self.jobs.get(&job_id).and_then(|ctx| ctx.origin) {
                    self.fail_step(wf, step);
                }
            }
        }
    }

    /// The one requeue path: conclude the failed attempt as retryable,
    /// apply what the retry changes, audit it (the `galaxy.queue.resubmit`
    /// event, the unlabeled total and the per-reason labeled counter),
    /// and put the job back on the queue for `dest`. The conclusion
    /// releases hook-held resources such as GPU leases, and always
    /// precedes the requeue — so the retry's placement never races the
    /// failed attempt's leases.
    fn requeue(&mut self, failed: &FailedAttempt<'_>, dest: String, retry: Retry) {
        let job_id = failed.job_id;
        let _ = self.app.finish_job(job_id, failed.result, false);
        let ctx = self.jobs.get_mut(&job_id).expect("ctx exists");
        // The reason and its `QUEUE_RESUBMITTED_COUNTER{reason="…"}` key:
        // three constants, spelled out rather than formatted per requeue.
        let (reason, reason_counter) = match retry {
            Retry::NodeExcluded(excluded) => {
                ctx.node_retries_used += 1;
                ctx.excluded_nodes = excluded;
                ("node_excluded", "galaxy_queue_resubmitted_total{reason=\"node_excluded\"}")
            }
            Retry::FootprintRevised(budget_mib) => {
                self.app.set_job_env(
                    job_id,
                    crate::GALAXY_GPU_BUDGET_OVERRIDE_ENV,
                    &budget_mib.to_string(),
                );
                ctx.footprint_retries_used += 1;
                (
                    "footprint_revised",
                    "galaxy_queue_resubmitted_total{reason=\"footprint_revised\"}",
                )
            }
            Retry::Fallback => ("fallback", "galaxy_queue_resubmitted_total{reason=\"fallback\"}"),
        };
        debug_assert_eq!(
            reason_counter,
            format!("{QUEUE_RESUBMITTED_COUNTER}{{reason=\"{reason}\"}}")
        );
        let (user, priority) = (ctx.user.clone(), ctx.priority);
        let from = ctx.first_destination.clone().unwrap_or_default();
        let excluded = ctx.excluded_nodes.join(",");
        ctx.next_dest = Some(dest.clone());

        let recorder = self.app.recorder();
        recorder.metrics().inc_counter(QUEUE_RESUBMITTED_COUNTER, 1);
        recorder.metrics().inc_counter(reason_counter, 1);
        recorder.event(
            "galaxy.queue.resubmit",
            [
                ("job_id", Value::from(job_id)),
                ("failed_attempt", Value::from(u64::from(failed.attempts))),
                ("max_attempts", Value::from(u64::from(failed.max_attempts))),
                ("from_destination", Value::from(from)),
                ("to_destination", Value::from(dest)),
                ("from_node", Value::from(failed.from_node.as_deref().unwrap_or(""))),
                ("excluded_nodes", Value::from(excluded)),
                ("exit_code", Value::from(i64::from(failed.result.exit_code))),
                ("reason", Value::from(reason)),
            ],
        );
        let now = recorder.now();
        self.queue.push_unchecked(&user, priority, now, WorkItem::Job(job_id));
        self.set_status(job_id, SubmissionState::Queued);
        self.sync_depth_gauge();
    }

    /// Whether a failed attempt can retry on its own destination with the
    /// failed node excluded: needs a node-labeled failure, a first
    /// destination, and the installed placement advisor's confirmation
    /// that a non-excluded node class still hosts the tool. Returns the
    /// retry destination plus the grown exclusion set.
    fn node_retry_target(
        &self,
        job_id: u64,
        from_node: Option<&str>,
    ) -> Option<(String, Vec<String>)> {
        let node = from_node?;
        let ctx = self.jobs.get(&job_id)?;
        let destination = ctx.first_destination.clone()?;
        let tool = self.ledger.get(job_id)?.tool.clone();
        let mut excluded = ctx.excluded_nodes.clone();
        if !excluded.iter().any(|n| n == node) {
            excluded.push(node.to_string());
        }
        let advisor = self.app.placement_advisor()?;
        advisor(&tool, &destination, &excluded).then_some((destination, excluded))
    }

    /// Whether a failed attempt can retry on its own destination with a
    /// revised GPU memory budget: needs a first destination and the
    /// installed footprint advisor recommending a budget for the job.
    /// Returns the retry destination plus the revised budget (MiB).
    fn footprint_retry_target(&self, job_id: u64) -> Option<(String, u64)> {
        let destination = self.jobs.get(&job_id)?.first_destination.clone()?;
        let advisor = self.app.footprint_advisor()?;
        let budget_mib = advisor(self.app.job(job_id)?)?;
        Some((destination, budget_mib))
    }

    /// The resubmit policy for a job: its first destination's
    /// `resubmit_destination`/`resubmit_attempts` params when present,
    /// else the engine default.
    fn policy_for(&self, job_id: u64) -> ResubmitPolicy {
        self.jobs
            .get(&job_id)
            .and_then(|ctx| ctx.first_destination.as_deref())
            .and_then(|id| self.app.config().destination(id))
            .and_then(ResubmitPolicy::from_destination)
            .unwrap_or_else(|| self.default_resubmit.clone())
    }

    /// Mark a step failed and transitively cancel dependents that can now
    /// never run.
    fn fail_step(&mut self, wf: usize, step: usize) {
        let workflow = self.workflows[wf].dag.name.clone();
        self.workflows[wf].states[step] = StepState::Failed;
        let mut cancelled: Vec<usize> = Vec::new();
        loop {
            let run = &mut self.workflows[wf];
            let next =
                (0..run.dag.steps.len()).find(|j| {
                    run.states[*j] == StepState::Waiting
                        && run.dag.deps_of(*j).iter().any(|d| {
                            matches!(run.states[*d], StepState::Failed | StepState::Cancelled)
                        })
                });
            match next {
                Some(j) => {
                    run.states[j] = StepState::Cancelled;
                    cancelled.push(j);
                }
                None => break,
            }
        }
        for j in cancelled {
            self.app.recorder().event(
                "galaxy.queue.cancel",
                [
                    ("workflow", Value::from(workflow.as_str())),
                    ("step", Value::from(j)),
                    ("reason", Value::from("upstream_failed")),
                ],
            );
        }
    }
}
