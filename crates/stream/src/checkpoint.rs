//! Checkpointing: the latest snapshot of a bounded run's progress plus
//! its operator state, and recovery from it.
//!
//! A checkpoint holds the per-partition `(log start, end offset)`
//! snapshot the run read, the run's cursor in its merged order of that
//! snapshot, and the operator state after the records before the cursor.
//! The store keeps state by value (`Clone`) rather than bytes: the
//! substrate is in-process, so a clone *is* a durable-enough copy for the
//! semantics the experiments need. A pipeline restored from a checkpoint
//! replays the interrupted run's snapshot from the cursor on and produces
//! exactly the results the run would have produced without the crash
//! (effective exactly-once). If a release has since dropped part of the
//! snapshot, the resume fails instead of reading a different order (see
//! [`Pipeline::run_windowed`](crate::Pipeline::run_windowed)).

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::StreamError;

/// One checkpoint of a bounded run.
#[derive(Debug, Clone)]
pub struct Checkpoint<S> {
    /// The `(log start, end offset)` of each partition the run read.
    pub bounds: Vec<(u64, u64)>,
    /// How many records of the run's merged order of `bounds` the state
    /// covers.
    pub cursor: u64,
    /// Operator state at snapshot time.
    pub state: S,
}

/// Holds a pipeline's latest checkpoint. Cheap to clone (shared).
///
/// # Example
///
/// ```
/// use augur_stream::{Checkpoint, CheckpointStore};
///
/// let store: CheckpointStore<u64> = CheckpointStore::new();
/// store.save(Checkpoint { bounds: vec![(0, 9)], cursor: 4, state: 41 });
/// store.save(Checkpoint { bounds: vec![(0, 9)], cursor: 8, state: 42 });
/// assert_eq!(store.latest()?.state, 42);
/// # Ok::<(), augur_stream::StreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointStore<S> {
    latest: Arc<Mutex<Option<Checkpoint<S>>>>,
}

impl<S> Default for CheckpointStore<S> {
    fn default() -> Self {
        CheckpointStore {
            latest: Arc::new(Mutex::new(None)),
        }
    }
}

impl<S: Clone> CheckpointStore<S> {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Saves `checkpoint` in place of the previous one.
    pub fn save(&self, checkpoint: Checkpoint<S>) {
        *self.latest.lock() = Some(checkpoint);
    }

    /// The most recent checkpoint.
    ///
    /// # Errors
    ///
    /// [`StreamError::NoCheckpoint`] when none has been saved.
    pub fn latest(&self) -> Result<Checkpoint<S>, StreamError> {
        self.latest.lock().clone().ok_or(StreamError::NoCheckpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_save_replaces_the_latest_checkpoint_in_every_clone() {
        let store: CheckpointStore<String> = CheckpointStore::new();
        let shared = store.clone();
        assert_eq!(shared.latest().unwrap_err(), StreamError::NoCheckpoint);
        for (cursor, state) in [(2, "a"), (5, "b")] {
            store.save(Checkpoint {
                bounds: vec![(0, 7), (4096, 4100)],
                cursor,
                state: state.into(),
            });
        }
        let cp = shared.latest().unwrap();
        assert_eq!(cp.bounds, vec![(0, 7), (4096, 4100)]);
        assert_eq!((cp.cursor, cp.state.as_str()), (5, "b"));
    }
}
