//! Per-transaction context: isolation, read-set, write-set.
//!
//! The optimistic protocol of §5.1.1 validates *read repeatability* at
//! commit: "for each read record, if the currently committed and visible RID
//! based on the commit time of the transaction is equal to the committed (or
//! pre-committed for speculative reads) and visible RID as of the begin time
//! of the transaction, then the validation is satisfied". The read-set
//! therefore stores, per base record, the *version RID* that was visible
//! when it was read. Validation itself needs storage access, so the engine
//! (the `lstore` crate) drives it; this type only carries the bookkeeping.

/// Isolation levels supported by the engine (§5.1.1):
/// "The validation in the optimistic concurrency is only needed for
/// repeatable read and serializability. The read committed isolation always
/// reads the visible and committed version and does not require validation,
/// and the snapshot isolation reads the view of the database from an
/// instantaneous point in time."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IsolationLevel {
    /// Each statement reads the latest committed version; no validation.
    /// The paper runs short update transactions at this level (§6.1).
    #[default]
    ReadCommitted,
    /// All reads observe the begin-time snapshot; validation only for
    /// speculative reads. The paper runs analytical scans at this level.
    Snapshot,
    /// Snapshot reads plus commit-time validation of the read-set.
    RepeatableRead,
}

/// One read-set entry: which version of which base record was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSetEntry {
    /// Table the read belongs to (engine-assigned dense id).
    pub table_id: u32,
    /// The base record that was read (indexes always land on base RIDs).
    pub base_rid: u64,
    /// The RID of the version that was visible (the base RID itself when the
    /// base record was current, otherwise a tail RID).
    pub version_rid: u64,
    /// Whether the read was speculative (accepted a pre-committed version).
    pub speculative: bool,
}

/// One write-set entry, kept for abort tombstoning and redo logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSetEntry {
    /// Table the write belongs to (engine-assigned dense id).
    pub table_id: u32,
    /// Base record that was updated/deleted/inserted.
    pub base_rid: u64,
    /// Tail RID of the version this transaction installed (equals `base_rid`
    /// for inserts, whose values live in table-level tail pages).
    pub tail_rid: u64,
    /// For inserts: the primary key, so an abort can unhook the index entry.
    pub insert_key: Option<u64>,
}

/// A transaction handle; created by the engine's `begin`, consumed by
/// `commit`/`abort`.
#[derive(Debug)]
pub struct Transaction {
    /// Unique id with [`crate::TXN_ID_FLAG`] set.
    pub id: u64,
    /// Begin timestamp: "only the latest version of records that were
    /// created/modified before the begin time are visible".
    pub begin: u64,
    /// Commit timestamp, stamped at pre-commit (0 while active).
    pub commit: u64,
    /// Requested isolation level.
    pub isolation: IsolationLevel,
    /// Versions observed by reads, for validation.
    pub read_set: Vec<ReadSetEntry>,
    /// Versions installed by writes, for abort handling.
    pub write_set: Vec<WriteSetEntry>,
    /// Set by the engine before it hands the log a record of this
    /// transaction. While it is false the log knows nothing of the
    /// transaction, so its commit or abort has nothing to write and nothing
    /// to wait for.
    pub logged: bool,
}

impl Transaction {
    /// Construct a transaction context (used by the engine's `begin`).
    pub fn new(id: u64, begin: u64, isolation: IsolationLevel) -> Self {
        Transaction {
            id,
            begin,
            commit: 0,
            isolation,
            read_set: Vec::new(),
            write_set: Vec::new(),
            logged: false,
        }
    }

    /// Record a read for later validation. Read-committed transactions skip
    /// tracking entirely — they are never validated — unless the read was
    /// speculative, which always requires validation.
    pub fn track_read(&mut self, entry: ReadSetEntry) {
        match self.isolation {
            IsolationLevel::ReadCommitted | IsolationLevel::Snapshot => {
                if entry.speculative {
                    self.read_set.push(entry);
                }
            }
            IsolationLevel::RepeatableRead => self.read_set.push(entry),
        }
    }

    /// Record an installed update/delete.
    pub fn track_write(&mut self, table_id: u32, base_rid: u64, tail_rid: u64) {
        self.write_set.push(WriteSetEntry {
            table_id,
            base_rid,
            tail_rid,
            insert_key: None,
        });
    }

    /// Record an insert (tracked separately so aborts can remove the
    /// primary-index entry).
    pub fn track_insert(&mut self, table_id: u32, base_rid: u64, key: u64) {
        self.write_set.push(WriteSetEntry {
            table_id,
            base_rid,
            tail_rid: base_rid,
            insert_key: Some(key),
        });
    }

    /// Whether this transaction must validate its read-set before commit.
    pub fn needs_validation(&self) -> bool {
        !self.read_set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TXN_ID_FLAG;

    fn entry(speculative: bool) -> ReadSetEntry {
        ReadSetEntry {
            table_id: 0,
            base_rid: 1,
            version_rid: 2,
            speculative,
        }
    }

    #[test]
    fn read_committed_tracks_only_speculative_reads() {
        let mut t = Transaction::new(TXN_ID_FLAG | 1, 10, IsolationLevel::ReadCommitted);
        t.track_read(entry(false));
        assert!(!t.needs_validation());
        t.track_read(entry(true));
        assert!(t.needs_validation());
        assert_eq!(t.read_set.len(), 1);
    }

    #[test]
    fn repeatable_read_tracks_everything() {
        let mut t = Transaction::new(TXN_ID_FLAG | 2, 10, IsolationLevel::RepeatableRead);
        t.track_read(entry(false));
        t.track_read(entry(true));
        assert_eq!(t.read_set.len(), 2);
        assert!(t.needs_validation());
    }

    #[test]
    fn snapshot_validates_speculative_only() {
        let mut t = Transaction::new(TXN_ID_FLAG | 3, 10, IsolationLevel::Snapshot);
        t.track_read(entry(false));
        assert!(!t.needs_validation());
        t.track_read(entry(true));
        assert!(t.needs_validation());
    }

    #[test]
    fn writes_are_tracked() {
        let mut t = Transaction::new(TXN_ID_FLAG | 4, 10, IsolationLevel::ReadCommitted);
        t.track_write(0, 7, 9);
        t.track_insert(0, 11, 42);
        assert_eq!(t.write_set.len(), 2);
        assert_eq!(t.write_set[0].tail_rid, 9);
        assert_eq!(t.write_set[1].insert_key, Some(42));
    }
}
