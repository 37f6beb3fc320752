//! The engine's typed error: every failure an engine operation can hit,
//! including persistence and recovery failures, as one enum.
//!
//! Before persistence existed the engine returned raw
//! [`StorageError`]s. Recovery adds failure modes the storage layer
//! cannot express — corrupt snapshots, injected crashes, validation
//! failures of recovered state — and the paranoia mode turns invariant
//! violations into errors instead of aborts, so the engine now wraps
//! everything in [`HolisticError`].

use holistic_persist::PersistError;
use holistic_storage::{ColumnId, StorageError};

/// Any error an engine operation can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HolisticError {
    /// A storage-layer failure (unknown table/column, arity mismatch, …).
    Storage(StorageError),
    /// A persistence I/O or format failure (snapshot/WAL read or write).
    Persist(String),
    /// The fault injector killed the process at this I/O operation. Kept
    /// distinct from [`HolisticError::Persist`] so the recovery harness can
    /// tell an injected crash from a real failure.
    Crashed {
        /// The I/O operation that was killed (`write`, `fsync`, `rename`).
        op: String,
        /// The global operation index the injector was armed at.
        index: u64,
    },
    /// A validation pass found an invariant violation (paranoia mode, or
    /// recovered state that fails [`CrackerColumn::validate`]).
    ///
    /// [`CrackerColumn::validate`]: holistic_cracking::CrackerColumn::validate
    Validation(String),
    /// Recovery could not reconstruct a usable database from the
    /// persistence directory (no valid snapshot and no WAL genesis).
    Recovery(String),
    /// A runtime integrity failure was contained: a kernel panic or a
    /// paranoia validation failure quarantined the column's learned
    /// state. The base data is untouched — queries keep getting correct
    /// answers via the scan path while the background tuner rebuilds the
    /// cracker — so this error reports containment, not data loss.
    Integrity {
        /// The column whose learned state was quarantined.
        column: ColumnId,
        /// What tripped the containment boundary (panic payload or
        /// validation message).
        reason: String,
    },
    /// The operation is not supported in the engine's current shape
    /// (e.g. single-value updates on a multi-column table).
    Unsupported(String),
    /// The service refused admission because a bounded queue was full.
    ///
    /// The string names the queue that rejected (`"global"`, or the
    /// client id for a per-client bound) so load generators can tell
    /// global saturation from a single noisy tenant.
    Overloaded(String),
    /// The query's deadline expired before results were produced: shed at
    /// admission or dispatch, never half-executed.
    DeadlineExceeded,
    /// The query was abandoned cooperatively (e.g. its client connection
    /// dropped while it was still queued).
    Cancelled,
}

impl std::fmt::Display for HolisticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HolisticError::Storage(e) => write!(f, "storage error: {e}"),
            HolisticError::Persist(msg) => write!(f, "persistence error: {msg}"),
            HolisticError::Crashed { op, index } => {
                write!(f, "injected crash at {op} (operation #{index})")
            }
            HolisticError::Validation(msg) => write!(f, "validation failure: {msg}"),
            HolisticError::Recovery(msg) => write!(f, "recovery failure: {msg}"),
            HolisticError::Integrity { column, reason } => {
                write!(
                    f,
                    "integrity failure on column {column:?} (quarantined): {reason}"
                )
            }
            HolisticError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            HolisticError::Overloaded(queue) => {
                write!(f, "overloaded: admission queue {queue:?} is full")
            }
            HolisticError::DeadlineExceeded => write!(f, "deadline exceeded: query shed"),
            HolisticError::Cancelled => write!(f, "cancelled: query abandoned by its client"),
        }
    }
}

impl std::error::Error for HolisticError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HolisticError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for HolisticError {
    fn from(e: StorageError) -> Self {
        HolisticError::Storage(e)
    }
}

impl From<PersistError> for HolisticError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Crashed { op, index } => HolisticError::Crashed {
                op: op.to_string(),
                index,
            },
            other => HolisticError::Persist(other.to_string()),
        }
    }
}

impl HolisticError {
    /// Whether this error is an injected crash (the fault injector fired).
    #[must_use]
    pub fn is_crash(&self) -> bool {
        matches!(self, HolisticError::Crashed { .. })
    }

    /// Whether this error is a typed load shed (`Overloaded`,
    /// `DeadlineExceeded`, or `Cancelled`): the query was never executed
    /// — not even partially — and is safe to retry.
    #[must_use]
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            HolisticError::Overloaded(_)
                | HolisticError::DeadlineExceeded
                | HolisticError::Cancelled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_persist::IoOp;

    #[test]
    fn storage_errors_convert_and_expose_source() {
        let e: HolisticError = StorageError::ColumnNotFound("x".into()).into();
        assert!(matches!(e, HolisticError::Storage(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn injected_crashes_stay_distinguishable() {
        let crash: HolisticError = PersistError::Crashed {
            op: IoOp::Fsync,
            index: 7,
        }
        .into();
        assert!(crash.is_crash());
        let io: HolisticError = PersistError::Io("disk on fire".into()).into();
        assert!(!io.is_crash());
        assert!(matches!(io, HolisticError::Persist(_)));
    }
}
