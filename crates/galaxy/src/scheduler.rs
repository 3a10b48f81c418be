//! A concurrent handler pool for plan execution.
//!
//! Real Galaxy dispatches jobs through handler processes with worker
//! threads (the `workers` attribute of the `<plugin>` element in
//! `job_conf.xml`). This module provides that concurrency for the
//! simulated stack: [`HandlerPool`] runs `ExecutionPlan`s on a fixed set
//! of worker threads over a crossbeam channel, so several tools can
//! occupy the simulated GPUs *simultaneously* — the situation the paper's
//! multi-GPU cases snapshot.
//!
//! The pool is instrumented: it exports a queue-depth gauge, a busy-worker
//! gauge, and a per-job queue-wait histogram through its [`Recorder`]'s
//! metrics registry, and completion is signalled through a condition
//! variable so [`HandlerPool::wait_all`] blocks instead of spinning.
//!
//! ## Dispatch backends
//!
//! The pool has two interchangeable backends behind one API, selected by
//! [`DispatchMode`]:
//!
//! * [`DispatchMode::Threads`] (default) — N OS worker threads over a
//!   crossbeam channel, real wall-clock concurrency. Right for suites
//!   that exercise thread interleavings and for real executors.
//! * [`DispatchMode::Event`] — an event-driven ready queue with **zero**
//!   OS threads: [`HandlerPool::enqueue`] appends a completion event,
//!   [`HandlerPool::wait_all`] drains the queue inline on the calling
//!   thread. Concurrency is *modeled* instead of scheduled — the queue
//!   engine's wave-barrier time charging already charges parallel wave
//!   members their `max(duration)` on the virtual clock, so the load
//!   harness can hold 10^5 in-flight jobs without 10^5 (or even `N`)
//!   OS threads, and every run is deterministic.
//!
//! Both backends move the same gauges and counters through the same
//! transitions, honour the same discard listener, and obey the same
//! shutdown modes, so `queued + busy + executed + skipped == submitted`
//! holds at every barrier regardless of backend.
//!
//! ## Shutdown semantics
//!
//! Dropping a pool **drains** it by default: queued plans finish before
//! the workers exit, exactly like [`HandlerPool::shutdown`]. We chose
//! drain-on-drop because silently discarding accepted work would violate
//! the contract `enqueue` implies (Galaxy handlers likewise finish their
//! queue on graceful restart), and the virtual-clock executors make
//! "finish everything" cheap. The alternative is explicit:
//! [`HandlerPool::shutdown_now`] (or [`HandlerPool::set_shutdown_mode`]
//! with [`ShutdownMode::Discard`]) marks queued-but-unstarted plans as
//! skipped so the workers exit as soon as their in-flight plan completes.
//!
//! (`GalaxyApp::submit` remains the synchronous single-job path; the
//! queue engine in [`crate::queue`] dispatches through this pool.)

use crate::runners::{ExecutionPlan, ExecutionResult, JobExecutor};
use crossbeam::channel::{unbounded, Sender};
use obs::Recorder;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Metric: jobs currently enqueued but not yet picked up by a worker.
pub const QUEUE_DEPTH_GAUGE: &str = "galaxy_pool_queue_depth";
/// Metric: workers currently executing a plan.
pub const WORKERS_BUSY_GAUGE: &str = "galaxy_pool_workers_busy";
/// Metric: worker threads the pool was spawned with (constant per pool;
/// the ops `/healthz` saturation check divides busy by this). In
/// [`DispatchMode::Event`] this is the *modeled* wave width — no OS
/// threads back it.
pub const WORKERS_TOTAL_GAUGE: &str = "galaxy_pool_workers_total";
/// Metric: seconds each job spent queued before a worker picked it up.
pub const QUEUE_WAIT_HISTOGRAM: &str = "galaxy_pool_queue_wait_seconds";
/// Metric: total plans handed to the pool via [`HandlerPool::enqueue`].
/// With [`JOBS_EXECUTED_COUNTER`] and [`JOBS_SKIPPED_COUNTER`] this makes
/// gauge conservation scrape-checkable:
/// `queued + busy + executed + skipped == submitted` at every barrier.
pub const JOBS_SUBMITTED_COUNTER: &str = "galaxy_pool_jobs_submitted_total";
/// Metric: total plans executed by the pool.
pub const JOBS_EXECUTED_COUNTER: &str = "galaxy_pool_jobs_executed_total";
/// Metric: executed plans that reported a non-zero exit code.
pub const JOBS_FAILED_COUNTER: &str = "galaxy_pool_jobs_failed_total";
/// Metric: plans skipped by a discard (mid-wave fault or discard
/// shutdown) instead of executed.
pub const JOBS_SKIPPED_COUNTER: &str = "galaxy_pool_jobs_skipped_total";

/// What happens to queued-but-unstarted plans when the pool stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShutdownMode {
    /// Finish every queued plan before the workers exit (the default —
    /// accepted work is never silently dropped).
    #[default]
    Drain,
    /// Skip queued plans; workers exit after their in-flight plan.
    Discard,
}

/// Which execution backend a [`HandlerPool`] (and therefore a
/// `QueueEngine`) dispatches through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// One OS thread per worker over a channel (real concurrency).
    #[default]
    Threads,
    /// Event-driven ready queue drained inline at the wave barrier (no
    /// OS threads; concurrency is modeled by wave time charging).
    Event,
}

enum Message {
    /// A plan plus its enqueue timestamp (recorder clock).
    Run(Box<ExecutionPlan>, f64),
    Shutdown,
}

/// Callback invoked with a plan's job id when the plan is skipped by a
/// discard shutdown (it must be `Sync`: workers call it concurrently).
pub type DiscardListener = Arc<dyn Fn(u64) + Send + Sync>;

/// Completion tracking shared between workers and `wait_all`.
struct Tracker {
    pending: Mutex<usize>,
    done: Condvar,
}

/// State shared by every execution site (worker threads and the inline
/// event drain): results map, completion tracker, discard flag/listener,
/// and the recorder carrying the pool metrics.
struct Shared {
    results: Mutex<HashMap<u64, ExecutionResult>>,
    tracker: Tracker,
    recorder: Recorder,
    discard: AtomicBool,
    discard_listener: Mutex<Option<DiscardListener>>,
}

impl Shared {
    /// Run (or discard) one dequeued plan, moving the gauges and counters
    /// through the same transitions on every backend.
    fn run_one(&self, executor: &dyn JobExecutor, plan: Box<ExecutionPlan>, enqueued_at: f64) {
        let metrics = self.recorder.metrics();
        metrics.add_gauge(QUEUE_DEPTH_GAUGE, -1.0);
        if self.discard.load(Ordering::SeqCst) {
            // Skipped plan: tell the listener so attempt-scoped resources
            // (GYAN leases) held by never-executed plans are freed.
            metrics.inc_counter(JOBS_SKIPPED_COUNTER, 1);
            let listener = self.discard_listener.lock().clone();
            if let Some(listener) = listener {
                listener(plan.job_id);
            }
        } else {
            let wait = (self.recorder.now() - enqueued_at).max(0.0);
            metrics.add_gauge(WORKERS_BUSY_GAUGE, 1.0);
            metrics.observe(QUEUE_WAIT_HISTOGRAM, wait);
            let result = executor.execute(&plan);
            if result.exit_code != 0 {
                metrics.inc_counter(JOBS_FAILED_COUNTER, 1);
            }
            self.results.lock().insert(plan.job_id, result);
            metrics.add_gauge(WORKERS_BUSY_GAUGE, -1.0);
            metrics.inc_counter(JOBS_EXECUTED_COUNTER, 1);
        }
        let mut pending = self.tracker.pending.lock();
        *pending -= 1;
        if *pending == 0 {
            self.tracker.done.notify_all();
        }
    }
}

enum Backend {
    /// Worker threads fed over a channel.
    Threads { sender: Option<Sender<Message>>, handles: Vec<JoinHandle<()>> },
    /// Ready queue drained inline by `wait_all` / shutdown.
    Event { executor: Arc<dyn JobExecutor>, ready: Mutex<VecDeque<(Box<ExecutionPlan>, f64)>> },
}

/// A pool of handler workers executing plans, threaded or event-driven
/// (see [`DispatchMode`] and the module docs).
pub struct HandlerPool {
    backend: Backend,
    shared: Arc<Shared>,
    mode: ShutdownMode,
}

impl HandlerPool {
    /// Spawn `workers` handler threads over `executor`, with a private
    /// (unexported) telemetry recorder.
    pub fn new(executor: Arc<dyn JobExecutor>, workers: u32) -> Self {
        Self::with_recorder(executor, workers, Recorder::new())
    }

    /// Spawn `workers` handler threads over `executor`, reporting queue
    /// metrics into `recorder`.
    pub fn with_recorder(executor: Arc<dyn JobExecutor>, workers: u32, recorder: Recorder) -> Self {
        Self::with_mode(executor, workers, recorder, DispatchMode::Threads)
    }

    /// An event-driven pool (no OS threads): `workers` is only the
    /// modeled wave width reported by [`WORKERS_TOTAL_GAUGE`].
    pub fn event_driven(executor: Arc<dyn JobExecutor>, workers: u32, recorder: Recorder) -> Self {
        Self::with_mode(executor, workers, recorder, DispatchMode::Event)
    }

    /// Build a pool with an explicit [`DispatchMode`].
    pub fn with_mode(
        executor: Arc<dyn JobExecutor>,
        workers: u32,
        recorder: Recorder,
        dispatch: DispatchMode,
    ) -> Self {
        let workers = workers.max(1) as usize;
        // Publish the gauges at 0 up front so the exposition carries them
        // even before the first job arrives.
        recorder.metrics().set_gauge(QUEUE_DEPTH_GAUGE, 0.0);
        recorder.metrics().set_gauge(WORKERS_BUSY_GAUGE, 0.0);
        recorder.metrics().set_gauge(WORKERS_TOTAL_GAUGE, workers as f64);
        let shared = Arc::new(Shared {
            results: Mutex::new(HashMap::new()),
            tracker: Tracker { pending: Mutex::new(0), done: Condvar::new() },
            recorder,
            discard: AtomicBool::new(false),
            discard_listener: Mutex::new(None),
        });
        let backend = match dispatch {
            DispatchMode::Event => Backend::Event { executor, ready: Mutex::new(VecDeque::new()) },
            DispatchMode::Threads => {
                let (sender, receiver) = unbounded::<Message>();
                let mut handles = Vec::new();
                for _ in 0..workers {
                    let receiver = receiver.clone();
                    let executor = executor.clone();
                    let shared = shared.clone();
                    handles.push(std::thread::spawn(move || {
                        while let Ok(msg) = receiver.recv() {
                            match msg {
                                Message::Run(plan, enqueued_at) => {
                                    shared.run_one(executor.as_ref(), plan, enqueued_at);
                                }
                                Message::Shutdown => break,
                            }
                        }
                    }));
                }
                Backend::Threads { sender: Some(sender), handles }
            }
        };
        HandlerPool { backend, shared, mode: ShutdownMode::Drain }
    }

    /// Register a callback invoked with each skipped plan's job id when a
    /// discard shutdown drops queued-but-unstarted work. GYAN registers
    /// its lease table here so reservations held by never-executed plans
    /// are released rather than leaked.
    pub fn set_discard_listener(&self, listener: DiscardListener) {
        *self.shared.discard_listener.lock() = Some(listener);
    }

    /// Switch the pool into discard mode without shutting it down: every
    /// queued-but-unstarted plan is skipped (invoking the discard
    /// listener) instead of executed, until [`clear_discard`] is called.
    /// This is the mid-wave discard fault hook for simulation testing —
    /// the live analogue of a handler restart dropping its mule queue.
    ///
    /// [`clear_discard`]: Self::clear_discard
    pub fn discard_pending(&self) {
        self.shared.discard.store(true, Ordering::SeqCst);
    }

    /// Leave discard mode: subsequently dequeued plans execute normally.
    pub fn clear_discard(&self) {
        self.shared.discard.store(false, Ordering::SeqCst);
    }

    /// The recorder receiving this pool's queue metrics.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// The pool's dispatch backend.
    pub fn dispatch_mode(&self) -> DispatchMode {
        match self.backend {
            Backend::Threads { .. } => DispatchMode::Threads,
            Backend::Event { .. } => DispatchMode::Event,
        }
    }

    /// Enqueue a plan for execution.
    pub fn enqueue(&self, plan: ExecutionPlan) {
        let enqueued_at = self.shared.recorder.now();
        *self.shared.tracker.pending.lock() += 1;
        self.shared.recorder.metrics().add_gauge(QUEUE_DEPTH_GAUGE, 1.0);
        self.shared.recorder.metrics().inc_counter(JOBS_SUBMITTED_COUNTER, 1);
        match &self.backend {
            Backend::Threads { sender, .. } => sender
                .as_ref()
                .expect("pool alive")
                .send(Message::Run(Box::new(plan), enqueued_at))
                .expect("pool alive"),
            Backend::Event { ready, .. } => {
                ready.lock().push_back((Box::new(plan), enqueued_at));
            }
        }
    }

    /// Number of enqueued-but-unfinished plans.
    pub fn pending(&self) -> usize {
        *self.shared.tracker.pending.lock()
    }

    /// Result for a finished job, if available.
    pub fn result(&self, job_id: u64) -> Option<ExecutionResult> {
        self.shared.results.lock().get(&job_id).cloned()
    }

    /// Remove and return a finished job's result. The queue engine uses
    /// this at the wave barrier so the results map holds only the
    /// in-flight wave — not every result ever produced — keeping both
    /// pool memory and the [`HandlerPool::wait_all`] clone O(wave size)
    /// over a million-job soak.
    pub fn take_result(&self, job_id: u64) -> Option<ExecutionResult> {
        self.shared.results.lock().remove(&job_id)
    }

    /// Block until every enqueued plan has finished, without touching
    /// the results map. Threaded pools wait on a condition variable;
    /// event pools drain the ready queue inline on the calling thread
    /// (this is the completion-event loop — in that mode `barrier` IS
    /// the dispatcher).
    pub fn barrier(&self) {
        match &self.backend {
            Backend::Threads { .. } => {
                let mut pending = self.shared.tracker.pending.lock();
                self.shared.tracker.done.wait_while(&mut pending, |p| *p > 0);
            }
            Backend::Event { executor, ready } => Self::drain_ready(&self.shared, executor, ready),
        }
    }

    /// [`HandlerPool::barrier`], then return a snapshot of every result
    /// still held by the pool.
    pub fn wait_all(&self) -> HashMap<u64, ExecutionResult> {
        self.barrier();
        self.shared.results.lock().clone()
    }

    /// Event-mode completion loop: pop ready events in FIFO order and run
    /// them inline until none remain and nothing is pending.
    fn drain_ready(
        shared: &Shared,
        executor: &Arc<dyn JobExecutor>,
        ready: &Mutex<VecDeque<(Box<ExecutionPlan>, f64)>>,
    ) {
        loop {
            let next = ready.lock().pop_front();
            match next {
                Some((plan, enqueued_at)) => {
                    shared.run_one(executor.as_ref(), plan, enqueued_at);
                }
                None => {
                    // `enqueue` bumps `pending` before pushing the event;
                    // a concurrent enqueuer may be between the two.
                    if *shared.tracker.pending.lock() == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Choose what [`Drop`] does with queued-but-unstarted plans. The
    /// default is [`ShutdownMode::Drain`]; see the module docs for why.
    pub fn set_shutdown_mode(&mut self, mode: ShutdownMode) {
        self.mode = mode;
    }

    /// Gracefully stop the workers: queued plans finish first because the
    /// channel is drained in order (idempotent).
    pub fn shutdown(mut self) {
        self.stop(ShutdownMode::Drain);
    }

    /// Stop the workers without running queued plans: anything not yet
    /// picked up is skipped (its `pending` slot is released so `wait_all`
    /// callers unblock, but no result is recorded and no executed counter
    /// moves). In-flight plans still run to completion.
    pub fn shutdown_now(mut self) {
        self.stop(ShutdownMode::Discard);
    }

    fn stop(&mut self, mode: ShutdownMode) {
        if mode == ShutdownMode::Discard {
            self.shared.discard.store(true, Ordering::SeqCst);
        }
        match &mut self.backend {
            Backend::Threads { sender, handles } => {
                if handles.is_empty() {
                    return;
                }
                if let Some(sender) = sender.take() {
                    for _ in handles.iter() {
                        let _ = sender.send(Message::Shutdown);
                    }
                }
                for handle in handles.drain(..) {
                    let _ = handle.join();
                }
            }
            Backend::Event { .. } => {
                // Drain inline; with the discard flag set every queued
                // plan is skipped through the listener instead of run.
                if let Backend::Event { executor, ready } = &self.backend {
                    Self::drain_ready(&self.shared, executor, ready);
                }
            }
        }
    }
}

impl Drop for HandlerPool {
    fn drop(&mut self) {
        self.stop(self.mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    fn plan(job_id: u64, cmd: &str) -> ExecutionPlan {
        ExecutionPlan {
            job_id,
            tool_id: "t".into(),
            destination_id: "d".into(),
            command_line: cmd.to_string(),
            env: vec![],
            container: None,
            command_parts: vec![],
        }
    }

    struct SlowExecutor {
        concurrent: AtomicU32,
        max_seen: AtomicU32,
    }

    impl JobExecutor for SlowExecutor {
        fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
            let now = self.concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_seen.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
            self.concurrent.fetch_sub(1, Ordering::SeqCst);
            ExecutionResult::ok(plan.command_line.clone())
        }
    }

    fn slow_executor() -> Arc<SlowExecutor> {
        Arc::new(SlowExecutor { concurrent: AtomicU32::new(0), max_seen: AtomicU32::new(0) })
    }

    #[test]
    fn executes_all_plans_and_collects_results() {
        let pool = HandlerPool::new(slow_executor(), 4);
        for i in 0..8 {
            pool.enqueue(plan(i, &format!("job-{i}")));
        }
        let results = pool.wait_all();
        assert_eq!(results.len(), 8);
        for i in 0..8 {
            assert_eq!(results[&i].stdout, format!("job-{i}"));
        }
        pool.shutdown();
    }

    #[test]
    fn take_result_consumes_the_entry_and_bounds_the_map() {
        let pool = HandlerPool::new(slow_executor(), 2);
        pool.enqueue(plan(1, "one"));
        pool.enqueue(plan(2, "two"));
        pool.barrier();
        assert_eq!(pool.take_result(1).expect("ran").stdout, "one");
        assert!(pool.take_result(1).is_none(), "consumed on first take");
        assert!(pool.result(1).is_none(), "entry is gone, not just cloned");
        // The untaken result is still visible through both accessors.
        assert_eq!(pool.wait_all().len(), 1);
        assert_eq!(pool.result(2).expect("ran").stdout, "two");
        pool.shutdown();
    }

    #[test]
    fn workers_run_concurrently() {
        let executor = slow_executor();
        let pool = HandlerPool::new(executor.clone(), 4);
        for i in 0..8 {
            pool.enqueue(plan(i, "x"));
        }
        pool.wait_all();
        assert!(
            executor.max_seen.load(Ordering::SeqCst) >= 2,
            "expected overlapping execution, saw max {}",
            executor.max_seen.load(Ordering::SeqCst)
        );
        pool.shutdown();
    }

    #[test]
    fn single_worker_serializes() {
        let executor = slow_executor();
        let pool = HandlerPool::new(executor.clone(), 1);
        for i in 0..4 {
            pool.enqueue(plan(i, "x"));
        }
        pool.wait_all();
        assert_eq!(executor.max_seen.load(Ordering::SeqCst), 1);
        pool.shutdown();
    }

    #[test]
    fn result_lookup_before_and_after() {
        let pool = HandlerPool::new(slow_executor(), 2);
        assert!(pool.result(7).is_none());
        pool.enqueue(plan(7, "later"));
        pool.wait_all();
        assert_eq!(pool.result(7).unwrap().stdout, "later");
        pool.shutdown();
    }

    #[test]
    fn wait_all_on_idle_pool_returns_immediately() {
        let pool = HandlerPool::new(slow_executor(), 2);
        assert!(pool.wait_all().is_empty());
        pool.shutdown();
    }

    struct FailOdd;
    impl JobExecutor for FailOdd {
        fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
            if plan.job_id % 2 == 1 {
                ExecutionResult::fail(1, "odd job")
            } else {
                ExecutionResult::ok("even job")
            }
        }
    }

    #[test]
    fn failed_counter_tracks_nonzero_exits() {
        let recorder = Recorder::new();
        let pool = HandlerPool::with_recorder(Arc::new(FailOdd), 2, recorder.clone());
        for i in 0..6 {
            pool.enqueue(plan(i, "x"));
        }
        pool.wait_all();
        pool.shutdown();
        let metrics = recorder.metrics();
        assert_eq!(metrics.counter_value(JOBS_EXECUTED_COUNTER), 6);
        assert_eq!(metrics.counter_value(JOBS_FAILED_COUNTER), 3);
        assert!(metrics.render_prometheus().contains(JOBS_FAILED_COUNTER));
    }

    #[test]
    fn drop_drains_queued_work_by_default() {
        let recorder = Recorder::new();
        {
            let pool = HandlerPool::with_recorder(slow_executor(), 1, recorder.clone());
            for i in 0..5 {
                pool.enqueue(plan(i, "x"));
            }
            // No wait_all, no shutdown: the drop must finish the queue.
        }
        assert_eq!(recorder.metrics().counter_value(JOBS_EXECUTED_COUNTER), 5);
        assert_eq!(recorder.metrics().gauge_value(QUEUE_DEPTH_GAUGE), Some(0.0));
    }

    #[test]
    fn discard_mode_skips_queued_plans() {
        let recorder = Recorder::new();
        let pool = HandlerPool::with_recorder(slow_executor(), 1, recorder.clone());
        for i in 0..8 {
            pool.enqueue(plan(i, "x"));
        }
        pool.shutdown_now();
        let executed = recorder.metrics().counter_value(JOBS_EXECUTED_COUNTER);
        assert!(executed < 8, "discard must not drain the whole queue, ran {executed}");
        // Skipped slots are still released and the depth gauge settles.
        assert_eq!(recorder.metrics().gauge_value(QUEUE_DEPTH_GAUGE), Some(0.0));
    }

    #[test]
    fn discard_listener_sees_every_skipped_plan() {
        let recorder = Recorder::new();
        let pool = HandlerPool::with_recorder(slow_executor(), 1, recorder.clone());
        let skipped = Arc::new(Mutex::new(Vec::<u64>::new()));
        let sink = skipped.clone();
        pool.set_discard_listener(Arc::new(move |job_id| sink.lock().push(job_id)));
        for i in 0..8 {
            pool.enqueue(plan(i, "x"));
        }
        pool.shutdown_now();
        let executed = recorder.metrics().counter_value(JOBS_EXECUTED_COUNTER);
        let skipped = skipped.lock().clone();
        assert_eq!(
            executed as usize + skipped.len(),
            8,
            "every plan either executed or was reported skipped ({executed} + {skipped:?})",
        );
        assert!(!skipped.is_empty(), "discard must skip queued plans");
        assert_eq!(recorder.metrics().counter_value(JOBS_SKIPPED_COUNTER), skipped.len() as u64);
    }

    #[test]
    fn drop_respects_configured_discard_mode() {
        let recorder = Recorder::new();
        {
            let mut pool = HandlerPool::with_recorder(slow_executor(), 1, recorder.clone());
            pool.set_shutdown_mode(ShutdownMode::Discard);
            for i in 0..8 {
                pool.enqueue(plan(i, "x"));
            }
        }
        assert!(recorder.metrics().counter_value(JOBS_EXECUTED_COUNTER) < 8);
    }

    #[test]
    fn queue_metrics_settle_to_zero() {
        let recorder = Recorder::new();
        let pool = HandlerPool::with_recorder(slow_executor(), 2, recorder.clone());
        for i in 0..6 {
            pool.enqueue(plan(i, "x"));
        }
        pool.wait_all();
        pool.shutdown();
        let metrics = recorder.metrics();
        assert_eq!(metrics.gauge_value(QUEUE_DEPTH_GAUGE), Some(0.0));
        assert_eq!(metrics.gauge_value(WORKERS_BUSY_GAUGE), Some(0.0));
        assert_eq!(metrics.counter_value(JOBS_EXECUTED_COUNTER), 6);
        assert_eq!(metrics.histogram_count(QUEUE_WAIT_HISTOGRAM), 6);
        // The exposition must parse and carry the settled gauges.
        let samples = obs::metrics::parse_prometheus(&metrics.render_prometheus()).expect("parses");
        let depth = samples.iter().find(|s| s.name == QUEUE_DEPTH_GAUGE).unwrap();
        assert_eq!(depth.value, 0.0);
    }

    // ---- event-driven backend -------------------------------------------

    #[test]
    fn event_pool_executes_without_worker_threads() {
        let recorder = Recorder::new();
        let pool = HandlerPool::event_driven(slow_executor(), 4, recorder.clone());
        assert_eq!(pool.dispatch_mode(), DispatchMode::Event);
        for i in 0..8 {
            pool.enqueue(plan(i, &format!("job-{i}")));
        }
        assert_eq!(pool.pending(), 8, "nothing runs before the barrier");
        let results = pool.wait_all();
        assert_eq!(results.len(), 8);
        for i in 0..8 {
            assert_eq!(results[&i].stdout, format!("job-{i}"));
        }
        assert_eq!(pool.pending(), 0);
        pool.shutdown();
        assert_eq!(recorder.metrics().counter_value(JOBS_EXECUTED_COUNTER), 8);
    }

    #[test]
    fn event_pool_runs_in_fifo_order() {
        struct OrderExecutor(Mutex<Vec<u64>>);
        impl JobExecutor for OrderExecutor {
            fn execute(&self, plan: &ExecutionPlan) -> ExecutionResult {
                self.0.lock().push(plan.job_id);
                ExecutionResult::ok("")
            }
        }
        let executor = Arc::new(OrderExecutor(Mutex::new(Vec::new())));
        let pool = HandlerPool::event_driven(executor.clone(), 4, Recorder::new());
        for i in [3u64, 1, 4, 1 + 4, 9] {
            pool.enqueue(plan(i, "x"));
        }
        pool.wait_all();
        assert_eq!(*executor.0.lock(), vec![3, 1, 4, 5, 9]);
    }

    #[test]
    fn event_pool_gauges_conserve_at_barriers() {
        let recorder = Recorder::new();
        let pool = HandlerPool::event_driven(slow_executor(), 2, recorder.clone());
        let conservation = |metrics: &obs::metrics::Registry| {
            let queued = metrics.gauge_value(QUEUE_DEPTH_GAUGE).unwrap_or(0.0);
            let busy = metrics.gauge_value(WORKERS_BUSY_GAUGE).unwrap_or(0.0);
            let done = metrics.counter_value(JOBS_EXECUTED_COUNTER)
                + metrics.counter_value(JOBS_SKIPPED_COUNTER);
            let submitted = metrics.counter_value(JOBS_SUBMITTED_COUNTER);
            (queued + busy + done as f64, submitted as f64)
        };
        for i in 0..5 {
            pool.enqueue(plan(i, "x"));
            let (sum, submitted) = conservation(recorder.metrics());
            assert_eq!(sum, submitted, "conservation while enqueuing");
        }
        pool.wait_all();
        let (sum, submitted) = conservation(recorder.metrics());
        assert_eq!(sum, submitted, "conservation after the barrier");
        assert_eq!(submitted, 5.0);
        pool.shutdown();
    }

    #[test]
    fn event_pool_discard_shutdown_skips_and_notifies() {
        let recorder = Recorder::new();
        let pool = HandlerPool::event_driven(slow_executor(), 2, recorder.clone());
        let skipped = Arc::new(Mutex::new(Vec::<u64>::new()));
        let sink = skipped.clone();
        pool.set_discard_listener(Arc::new(move |job_id| sink.lock().push(job_id)));
        for i in 0..6 {
            pool.enqueue(plan(i, "x"));
        }
        pool.shutdown_now();
        assert_eq!(recorder.metrics().counter_value(JOBS_EXECUTED_COUNTER), 0);
        assert_eq!(recorder.metrics().counter_value(JOBS_SKIPPED_COUNTER), 6);
        assert_eq!(*skipped.lock(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(recorder.metrics().gauge_value(QUEUE_DEPTH_GAUGE), Some(0.0));
    }

    #[test]
    fn event_pool_mid_wave_discard_matches_threaded_semantics() {
        let recorder = Recorder::new();
        let pool = HandlerPool::event_driven(slow_executor(), 2, recorder.clone());
        for i in 0..4 {
            pool.enqueue(plan(i, "x"));
        }
        pool.discard_pending();
        pool.wait_all();
        pool.clear_discard();
        assert_eq!(recorder.metrics().counter_value(JOBS_SKIPPED_COUNTER), 4);
        for i in 4..8 {
            pool.enqueue(plan(i, "x"));
        }
        pool.wait_all();
        assert_eq!(recorder.metrics().counter_value(JOBS_EXECUTED_COUNTER), 4);
        pool.shutdown();
    }

    #[test]
    fn event_pool_drop_drains_like_threaded() {
        let recorder = Recorder::new();
        {
            let pool = HandlerPool::event_driven(slow_executor(), 1, recorder.clone());
            for i in 0..5 {
                pool.enqueue(plan(i, "x"));
            }
        }
        assert_eq!(recorder.metrics().counter_value(JOBS_EXECUTED_COUNTER), 5);
        assert_eq!(recorder.metrics().gauge_value(QUEUE_DEPTH_GAUGE), Some(0.0));
    }
}
