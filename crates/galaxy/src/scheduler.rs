//! Handler-pool metric names and the dispatch types of the queue engine.
//!
//! Real Galaxy dispatches jobs through handler processes with worker
//! threads (the `workers` attribute of the `<plugin>` element in
//! `job_conf.xml`). Here [`crate::queue::QueueEngine`] runs each dispatch
//! wave's plans in order on the calling thread, at the wave barrier.
//! Concurrency is *modeled* instead of scheduled: the engine's wave-barrier
//! time charging costs parallel wave members their `max(duration)` on the
//! virtual clock, so a load harness can hold 10^5 in-flight jobs without an
//! OS thread per worker, and every run is deterministic. Tests that are
//! about real interleavings drive an executor from their own threads.
//!
//! The engine publishes the handler pool's gauges and counters under the
//! names below, so `queued + busy + executed + skipped == submitted` is
//! scrape-checkable at every barrier.

use std::sync::Arc;

/// Metric: plans handed over for execution but not yet run.
pub const QUEUE_DEPTH_GAUGE: &str = "galaxy_pool_queue_depth";
/// Metric: plans currently executing.
pub const WORKERS_BUSY_GAUGE: &str = "galaxy_pool_workers_busy";
/// Metric: the modeled worker count, i.e. the wave width (the ops
/// `/healthz` saturation check divides busy by this). No OS threads back
/// it.
pub const WORKERS_TOTAL_GAUGE: &str = "galaxy_pool_workers_total";
/// Metric: seconds each plan waited between hand-over and execution.
pub const QUEUE_WAIT_HISTOGRAM: &str = "galaxy_pool_queue_wait_seconds";
/// Metric: total plans handed over for execution. With
/// [`JOBS_EXECUTED_COUNTER`] and [`JOBS_SKIPPED_COUNTER`] this makes
/// gauge conservation scrape-checkable:
/// `queued + busy + executed + skipped == submitted` at every barrier.
pub const JOBS_SUBMITTED_COUNTER: &str = "galaxy_pool_jobs_submitted_total";
/// Metric: total plans executed.
pub const JOBS_EXECUTED_COUNTER: &str = "galaxy_pool_jobs_executed_total";
/// Metric: executed plans that reported a non-zero exit code.
pub const JOBS_FAILED_COUNTER: &str = "galaxy_pool_jobs_failed_total";
/// Metric: plans skipped by a discarded wave instead of executed.
pub const JOBS_SKIPPED_COUNTER: &str = "galaxy_pool_jobs_skipped_total";

/// The queue engine's dispatch backend. [`DispatchMode::Event`] is the
/// only one. The type stays only because `benchmark/src/queue_day.rs`
/// names `QueueConfig::dispatch` in an exhaustive literal; ROADMAP 1(b)
/// deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Each wave runs inline on the calling thread at the wave barrier.
    #[default]
    Event,
}

/// Callback invoked with a plan's job id when a discarded wave skips the
/// plan instead of executing it.
pub type DiscardListener = Arc<dyn Fn(u64) + Send + Sync>;
