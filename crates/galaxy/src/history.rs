//! Histories and datasets: where job outputs land.
//!
//! Galaxy presents results to the user as datasets in a history (the final
//! step of the paper's Fig. 2 flow). This is a light model: enough for
//! integration tests to assert that tool outputs propagate end-to-end.

use std::sync::Arc;

/// Dataset lifecycle states (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetState {
    /// Declared but not yet produced.
    Queued,
    /// Produced successfully.
    Ok,
    /// Production failed.
    Error,
}

/// One history dataset (an "HDA" in Galaxy terms).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset id within the history.
    pub id: u64,
    /// Display name (shared with the tool's output declaration).
    pub name: Arc<str>,
    /// Datatype extension (`fasta`, `fastq`, ...).
    pub format: Arc<str>,
    /// Producing job id.
    pub job_id: u64,
    /// State.
    pub state: DatasetState,
    /// Content (simulated file payload).
    pub content: String,
}

/// A user's history of datasets. Ids are dense and datasets are never
/// removed, so dataset `id` sits at position `id - 1`.
#[derive(Debug, Clone, Default)]
pub struct History {
    datasets: Vec<Dataset>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare an output dataset for a job, in `Queued` state.
    pub fn declare(
        &mut self,
        name: impl Into<Arc<str>>,
        format: impl Into<Arc<str>>,
        job_id: u64,
    ) -> u64 {
        let id = self.datasets.len() as u64 + 1;
        self.datasets.push(Dataset {
            id,
            name: name.into(),
            format: format.into(),
            job_id,
            state: DatasetState::Queued,
            content: String::new(),
        });
        id
    }

    /// Mark a dataset produced with `content`.
    pub fn complete(&mut self, id: u64, content: impl Into<String>) -> bool {
        match self.dataset_mut(id) {
            Some(ds) => {
                ds.state = DatasetState::Ok;
                ds.content = content.into();
                true
            }
            None => false,
        }
    }

    /// Mark a dataset failed.
    pub fn fail(&mut self, id: u64) -> bool {
        match self.dataset_mut(id) {
            Some(ds) => {
                ds.state = DatasetState::Error;
                true
            }
            None => false,
        }
    }

    fn dataset_mut(&mut self, id: u64) -> Option<&mut Dataset> {
        self.datasets.get_mut(Self::position(id)?)
    }

    fn position(id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(1)?).ok()
    }

    /// All datasets produced by a job.
    pub fn datasets_for_job(&self, job_id: u64) -> Vec<&Dataset> {
        self.datasets.iter().filter(|d| d.job_id == job_id).collect()
    }

    /// Number of datasets.
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl History {
        /// Dataset by id.
        fn dataset(&self, id: u64) -> Option<&Dataset> {
            self.datasets.get(Self::position(id)?)
        }
    }

    #[test]
    fn declare_then_complete() {
        let mut h = History::new();
        let id = h.declare("consensus", "fasta", 7);
        assert_eq!(h.dataset(id).unwrap().state, DatasetState::Queued);
        assert!(h.complete(id, ">seq\nACGT\n"));
        let ds = h.dataset(id).unwrap();
        assert_eq!(ds.state, DatasetState::Ok);
        assert!(ds.content.starts_with(">seq"));
    }

    #[test]
    fn fail_marks_error() {
        let mut h = History::new();
        let id = h.declare("out", "txt", 1);
        assert!(h.fail(id));
        assert_eq!(h.dataset(id).unwrap().state, DatasetState::Error);
    }

    #[test]
    fn unknown_ids_return_false() {
        let mut h = History::new();
        assert!(!h.complete(99, ""));
        assert!(!h.fail(99));
        assert!(h.dataset(99).is_none());
    }

    #[test]
    fn lookup_indexes_by_id_and_rejects_ids_out_of_range() {
        let mut h = History::new();
        let ids: Vec<u64> =
            (0..10_000).map(|job| h.declare(format!("d{job}"), "txt", job)).collect();
        assert!(h.dataset(0).is_none(), "ids start at 1");
        assert!(h.dataset(h.len() as u64 + 1).is_none());
        assert!(!h.complete(0, "") && !h.fail(h.len() as u64 + 1));
        for n in [0usize, 4_999, 9_999] {
            let ds = h.dataset(ids[n]).expect("declared");
            assert_eq!((ds.id, ds.job_id, &*ds.name), (ids[n], n as u64, &*format!("d{n}")));
        }
        assert!(h.complete(ids[9_999], "x"));
        assert_eq!(h.dataset(ids[9_999]).unwrap().state, DatasetState::Ok);
        assert_eq!(h.dataset(ids[9_998]).unwrap().state, DatasetState::Queued);
    }

    #[test]
    fn datasets_for_job_filters() {
        let mut h = History::new();
        h.declare("a", "txt", 1);
        h.declare("b", "txt", 2);
        h.declare("c", "txt", 1);
        assert_eq!(h.datasets_for_job(1).len(), 2);
        assert_eq!(h.datasets_for_job(3).len(), 0);
        assert_eq!(h.len(), 3);
    }
}
