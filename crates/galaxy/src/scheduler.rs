//! The dispatch types of the queue engine and its failed-attempt counter.
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
//! [`JOBS_FAILED_COUNTER`] keeps the `galaxy_pool_` name it had when a
//! handler pool ran the plans: the `job-failure-burn` SLO rule reads it.

use std::sync::Arc;

/// Metric: executed plans that reported a non-zero exit code — every
/// failed attempt, retried or final.
pub const JOBS_FAILED_COUNTER: &str = "galaxy_pool_jobs_failed_total";

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
