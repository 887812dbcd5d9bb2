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
//! * [`record`] — the binary log record format (redo, commit/abort, the
//!   operational merge record, the catalog record that names a table), and
//!   the writer's own watermark frame (tag 8), which names an offset a sync
//!   made durable.
//! * [`log`] — the engine's log, [`Wal`]: one file for every table, two
//!   commit policies, and group commit — concurrent committers amortize
//!   fsyncs through a leader/follower cohort protocol that waits for
//!   returning committers instead of a timer. Below it a crate-private
//!   file writer assigns LSNs; a failed write or sync poisons it. A
//!   buffered log is appended; a group-commit log is written in place over
//!   zeros laid down ahead of it, so a sync has no size change to journal,
//!   and logs a watermark frame after every sync. A log once opened under
//!   group commit stays in place when it is reopened buffered.
//! * [`recovery`] — the log scan, in file order, that [`Wal::open`] runs
//!   and replay consumes; the open cuts the file back to what the scan
//!   read and appends from there. A
//!   frame that does not decode is a torn tail unless a later watermark
//!   frame names an offset above it (then it is corruption); a log without
//!   watermark frames may only be torn in its last frame.
//! * [`io`] — the file seam the log writes through: the page store's
//!   (`lstore_storage::io`), compiled here from the same source file.
//! * [`metrics`] — the engine's counters (`lstore_storage::metrics`),
//!   compiled here from the same source file too.

// The log and the page store share one seam's source, and one metrics
// module's, not one crate: neither crate depends on the other, so the
// crate graph (which `lbench/Cargo.lock` pins) is the same as before the
// seam. The cost is that this crate's `io::FaultFs` and the page store's
// are two types, and so are the two crates' `Counter`s.
#[path = "../../storage/src/io.rs"]
pub mod io;
pub mod log;
#[path = "../../storage/src/metrics.rs"]
pub mod metrics;
pub mod record;
pub mod recovery;
mod writer;

pub use log::{CommitPolicy, Wal, WalStats};
pub use record::LogRecord;
pub use recovery::RecoveredState;

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
