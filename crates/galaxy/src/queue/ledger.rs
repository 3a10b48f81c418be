//! Shareable job-lifecycle ledger for the operations plane.
//!
//! The [`JobsLedger`] is the [`QueueEngine`](crate::queue::QueueEngine)'s
//! one record of each job's lifecycle — state, user, priority, attempts,
//! destination, node — written at every lifecycle step (submit,
//! dispatch, resubmit, conclude, discard). It is cheaply cloneable and
//! lock-guarded, so an HTTP handler thread serving `GET /api/jobs` reads
//! the same book the engine writes, consistently, while waves are in
//! flight.

use super::SubmissionState;
use obs::Text;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One job's lifecycle as the ops plane sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSnapshot {
    /// Job id.
    pub job_id: u64,
    /// Submitting user (the fair-share queue's shared copy).
    pub user: Arc<str>,
    /// Tool id the job runs (the installed tool's shared id).
    pub tool: Arc<str>,
    /// Engine lifecycle state.
    pub state: SubmissionState,
    /// Dispatch attempts so far.
    pub attempts: u32,
    /// Destination of the most recent dispatch, if any (the configured
    /// destination's shared id).
    pub destination: Option<Arc<str>>,
    /// Fleet node the most recent dispatch placed the job on (from the
    /// job's `GALAXY_NODE` export), if any. Single-node deployments and
    /// CPU fallbacks leave it `None`.
    pub node: Option<Text>,
    /// Submission priority.
    pub priority: u8,
    /// Virtual time the submission entered the queue.
    pub submitted_at: f64,
    /// Virtual time the job reached a terminal state.
    pub finished_at: Option<f64>,
}

/// Thread-safe job table; clone freely, all clones share state.
///
/// Snapshots are stored behind `Arc` so the read paths ([`JobsLedger::get`],
/// [`JobsLedger::all`]) hand out shared references instead of deep-copying
/// every `String` field — `GET /api/jobs` scraping a busy engine clones
/// one pointer per job, not the job. Writes go through
/// [`Arc::make_mut`], which only copies a snapshot when a reader still
/// holds it (copy-on-write).
#[derive(Clone, Default)]
pub struct JobsLedger {
    inner: Arc<Mutex<BTreeMap<u64, Arc<JobSnapshot>>>>,
}

impl JobsLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a job's snapshot.
    pub fn upsert(&self, snapshot: JobSnapshot) {
        self.inner.lock().insert(snapshot.job_id, Arc::new(snapshot));
    }

    /// Mutate a job's snapshot in place and return what `f` returns;
    /// `None` (and no call) for unknown ids.
    pub fn update<R>(&self, job_id: u64, f: impl FnOnce(&mut JobSnapshot) -> R) -> Option<R> {
        self.inner.lock().get_mut(&job_id).map(|snapshot| f(Arc::make_mut(snapshot)))
    }

    /// One job's snapshot (shared, not deep-copied).
    pub fn get(&self, job_id: u64) -> Option<Arc<JobSnapshot>> {
        self.inner.lock().get(&job_id).cloned()
    }

    /// Every tracked job, ordered by id. Each element is a shared handle:
    /// the hot read path costs one `Arc` bump per job.
    pub fn all(&self) -> Vec<Arc<JobSnapshot>> {
        self.inner.lock().values().cloned().collect()
    }

    /// Number of tracked jobs.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(job_id: u64) -> JobSnapshot {
        JobSnapshot {
            job_id,
            user: "alice".into(),
            tool: "racon_gpu".into(),
            state: SubmissionState::Queued,
            attempts: 0,
            destination: None,
            node: None,
            priority: 0,
            submitted_at: 0.0,
            finished_at: None,
        }
    }

    #[test]
    fn clones_share_state_and_updates_apply() {
        let ledger = JobsLedger::new();
        let view = ledger.clone();
        ledger.upsert(snapshot(7));
        assert_eq!(view.len(), 1);
        view.update(7, |s| {
            s.state = SubmissionState::Ok;
            s.attempts = 2;
            s.finished_at = Some(3.5);
        });
        let got = ledger.get(7).unwrap();
        assert_eq!(got.state, SubmissionState::Ok);
        assert_eq!(got.attempts, 2);
        assert_eq!(got.finished_at, Some(3.5));
        // The closure's result comes back.
        assert_eq!(ledger.update(7, |s| s.attempts), Some(2));
        // Unknown ids are ignored, not created.
        assert_eq!(view.update(99, |s| s.attempts = 1), None);
        assert!(ledger.get(99).is_none());
    }

    #[test]
    fn all_is_ordered_by_job_id() {
        let ledger = JobsLedger::new();
        for id in [5u64, 1, 3] {
            ledger.upsert(snapshot(id));
        }
        let ids: Vec<u64> = ledger.all().iter().map(|s| s.job_id).collect();
        assert_eq!(ids, [1, 3, 5]);
    }

    #[test]
    fn reads_share_storage_until_a_write_intervenes() {
        let ledger = JobsLedger::new();
        ledger.upsert(snapshot(1));
        // Two snapshots of an unchanged job alias the same allocation —
        // the hot read path is an Arc bump, not a deep copy.
        let a = ledger.all();
        let b = ledger.all();
        assert!(Arc::ptr_eq(&a[0], &b[0]));
        assert!(Arc::ptr_eq(&a[0], &ledger.get(1).unwrap()));
        // A write while a reader holds the old snapshot copies on write:
        // the reader's view is immutable, the ledger's moves on.
        ledger.update(1, |s| s.attempts = 9);
        assert_eq!(a[0].attempts, 0);
        assert_eq!(ledger.get(1).unwrap().attempts, 9);
        assert!(!Arc::ptr_eq(&a[0], &ledger.get(1).unwrap()));
    }
}
