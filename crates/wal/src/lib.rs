//! # lstore-wal
//!
//! Logging and recovery substrate for L-Store (§5.1.3).
//!
//! The lineage-based architecture makes logging unusually cheap:
//!
//! * Base pages are read-only → **no logging at all** for them.
//! * Tail pages are append-only and never updated in place → **redo-only**
//!   logging; "since we eliminate any in-place update for tail pages, no
//!   undo log is required". Aborted transactions leave tombstones.
//! * The merge is **idempotent** (it operates strictly on committed data and
//!   re-running it reproduces the same pages) → operational logging only.
//! * The Indirection column is rebuilt at recovery from the Base RID column
//!   of tail records (§5.1.3 recovery option 2), so even it needs no undo.
//! * No page is ever written back while writers still apply to it: the
//!   merge writes base pages whole, and only sealed tail pages are candidates
//!   for write-back. §5.2's Ownership-Relaying protocol, which keeps
//!   `pageLSN` honest for exactly that case, therefore has nothing to do.
//!
//! Modules:
//! * [`record`] — the binary log record format (redo, commit/abort,
//!   operational merge records, checkpoints).
//! * [`log`] — the engine's log, [`Wal`]: one append-only file for every
//!   table, two commit policies, and group commit — concurrent committers
//!   amortize fsyncs through a leader/follower cohort protocol that waits
//!   for returning committers instead of a timer. Below it a crate-private
//!   file writer assigns LSNs; a failed write or sync poisons it.
//! * [`recovery`] — the log scan, in file order, that replay consumes.

pub mod log;
pub mod record;
pub mod recovery;
mod writer;

pub use log::{CommitPolicy, Wal, WalStats};
pub use record::LogRecord;
pub use recovery::{recover, RecoveredState};

/// Errors surfaced by the WAL.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A log record failed to decode (torn tail records are tolerated and
    /// reported separately by recovery).
    Corrupt(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(m) => write!(f, "corrupt log record: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Result alias for WAL operations.
pub type WalResult<T> = Result<T, WalError>;
