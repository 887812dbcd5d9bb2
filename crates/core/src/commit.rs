//! Commit-path batching and transactional batched reads.
//!
//! The detached batched reader ([`Table::read_batch`]) resolves its keys
//! through the one batched read of `crate::multi_read`; this module
//! extends it into the §5.1.1 transaction lifecycle, in three pieces:
//!
//! * [`TransactionReads`] — `Transaction::multi_read` /
//!   `multi_read_cols`: batched point reads that join every probed record
//!   into the transaction's read set, byte-identical to a loop of
//!   [`Table::read`] calls (isolation rules, duplicate tracking,
//!   read-your-own-writes included).
//! * `Runtime::validate_read_set` — the commit-time validator: one
//!   front-to-back pass over the read set under one pin, so the entry it
//!   blames is the lowest failing position.
//! * `Runtime::apply_committed_writes` — batched write application at
//!   commit: each table the write set names takes its entries in write
//!   order, eagerly stamping commit timestamps into the
//!   transaction's Start Time cells (relieving future readers of the lazy
//!   CAS of §5.1.1) and enqueueing **deferred secondary-index removals**
//!   (§3.1 footnote 3) for superseded index entries, with one batched
//!   pre-image probe per updated record instead of one per index entry.

use std::collections::HashMap;
use std::sync::Arc;

use lstore_storage::epoch::EpochGuard;
use lstore_txn::{ReadSetEntry, Transaction, WriteSetEntry};

use crate::db::Runtime;
use crate::error::Result;
use crate::range::BaseData;
use crate::read::{ReadMode, Resolved};
use crate::rid::Rid;
use crate::table::Table;

/// Batched transactional point reads, as methods *on the transaction* —
/// the handle that owns the read set being joined.
///
/// Implemented for [`Transaction`]; the engine crate defines the trait
/// because validation and version resolution need storage access that the
/// `lstore-txn` bookkeeping crate deliberately lacks.
///
/// ```
/// use lstore::{Database, DbConfig, TableConfig, TransactionReads};
///
/// let db = Database::new(DbConfig::default());
/// let t = db.create_table("acct", &["bal"], TableConfig::small()).unwrap();
/// for k in 0..10 {
///     t.insert_auto(k, &[k * 100]).unwrap();
/// }
/// let mut txn = db.begin();
/// let rows = txn.multi_read(&t, &[3, 7, 3]);
/// assert_eq!(rows[0].as_ref().unwrap().as_deref(), Some(&[300][..]));
/// assert_eq!(rows[2].as_ref().unwrap().as_deref(), Some(&[300][..]));
/// db.commit(&mut txn).unwrap();
/// ```
pub trait TransactionReads {
    /// Batched point reads of **all value columns** within this
    /// transaction: one `Result` per key, in input order —
    /// `Ok(Some(values))` for a visible record, `Ok(None)` for a deleted
    /// or not-yet-visible one, [`crate::Error::KeyNotFound`] for an
    /// unindexed key. Semantically a loop of [`Table::read`] calls
    /// (read-set joining and own-write visibility included); the batch
    /// sorts its keys and resolves each distinct key once, on the caller.
    fn multi_read(&mut self, table: &Table, keys: &[u64]) -> Vec<Result<Option<Vec<u64>>>>;

    /// Batched point reads of **selected value columns** within this
    /// transaction — the column-selecting twin of
    /// [`TransactionReads::multi_read`]. A column outside the schema
    /// fails every key with [`crate::Error::ColumnOutOfRange`].
    fn multi_read_cols(
        &mut self,
        table: &Table,
        keys: &[u64],
        user_cols: &[usize],
    ) -> Vec<Result<Option<Vec<u64>>>>;
}

impl TransactionReads for Transaction {
    fn multi_read(&mut self, table: &Table, keys: &[u64]) -> Vec<Result<Option<Vec<u64>>>> {
        let all: Vec<usize> = (0..table.value_columns()).collect();
        table.multi_read_txn(self, keys, &all)
    }

    fn multi_read_cols(
        &mut self,
        table: &Table,
        keys: &[u64],
        user_cols: &[usize],
    ) -> Vec<Result<Option<Vec<u64>>>> {
        table.multi_read_txn(self, keys, user_cols)
    }
}

impl Runtime {
    /// §5.1.1 validate-reads over a committing transaction's whole read
    /// set, front to back under one pin: the verdict is the base RID of
    /// the **lowest-position** entry whose observed version is no longer
    /// the visible one. The table is looked up again only when the entry's
    /// `table_id` changes; an entry whose table is gone fails. `None`
    /// means every read validated.
    pub(crate) fn validate_read_set(&self, read_set: &[ReadSetEntry], txn_id: u64) -> Option<u64> {
        let guard = self.epoch.pin();
        let mut table: Option<Arc<Table>> = None;
        read_set
            .iter()
            .find(|entry| {
                if table.as_ref().map(|t| t.id) != Some(entry.table_id) {
                    table = self.table(entry.table_id);
                }
                !table
                    .as_ref()
                    .is_some_and(|t| t.entry_still_visible(entry, txn_id, &guard))
            })
            .map(|entry| entry.base_rid)
    }

    /// Batched write application after a successful commit: every table
    /// the write set names is handed the set once and takes its own entries
    /// (in write order). Runs strictly **after** `TxnManager::commit` —
    /// stamping a commit timestamp into a Start Time cell makes the version
    /// unconditionally visible, which is only correct once the transaction
    /// is durably committed — and strictly **before** `TxnManager::retire`,
    /// which relies on every cell the transaction wrote holding the
    /// timestamp.
    pub(crate) fn apply_committed_writes(&self, txn: &Transaction, commit_ts: u64) {
        let writes = &txn.write_set;
        for (at, entry) in writes.iter().enumerate() {
            // One call per table: at its first entry.
            if writes[..at].iter().all(|w| w.table_id != entry.table_id) {
                if let Some(table) = self.table(entry.table_id) {
                    table.apply_committed_writes(txn.id, commit_ts, writes);
                }
            }
        }
    }
}

impl Table {
    /// The §5.1.1 validate-reads kernel: re-resolve `entry`'s base record
    /// with own writes excluded and compare against the observed version.
    fn entry_still_visible(
        &self,
        entry: &ReadSetEntry,
        txn_id: u64,
        guard: &EpochGuard<'_>,
    ) -> bool {
        let mode = ReadMode {
            as_of: None,
            txn_id,
            speculative: entry.speculative,
            exclude_own: true,
        };
        let base_rid = Rid(entry.base_rid);
        let range = self.range(base_rid.range());
        let reader = self.reader(range, range.base(guard), guard);
        match reader.read_record(base_rid.slot(), &[0], mode) {
            Resolved::Visible { version_rid, .. } => version_rid.0 == entry.version_rid,
            Resolved::Deleted => entry.version_rid == 0,
            Resolved::NotVisible => false,
        }
    }

    /// Apply this table's share of a committed transaction's write set
    /// (`writes` in write order; entries of other tables are skipped):
    ///
    /// 1. **Eager commit-timestamp stamping.** Every Start Time cell the
    ///    transaction wrote (tail records of updates/deletes, insert-phase
    ///    base cells of inserts) is CASed from the transaction id to
    ///    `commit_ts` — work §5.1.1 otherwise leaves to "future readers"
    ///    one lazy swap at a time, here done once, batched, by the
    ///    committer who already owns the cells in cache.
    /// 2. **Deferred secondary-index removals** (§3.1 footnote 3). For
    ///    each updated record, one batched pre-image probe (`as_of
    ///    commit_ts - 1`, all indexed columns at once) recovers the values
    ///    the update superseded; every indexed column whose value changed
    ///    enqueues `SecondaryIndex::remove_deferred(old, rid, commit_ts)`,
    ///    so the stale entry disappears at the next `gc` pass instead of
    ///    lingering forever (the write path only ever *inserted* new
    ///    entries). Cumulative tail records re-carry unchanged values, so
    ///    carried columns never enqueue spurious removals.
    ///
    /// Known limitation, documented rather than handled: a record both
    /// inserted and updated in the *same* transaction keeps the inserted
    /// value's index entry (its pre-image probe sees nothing below
    /// `commit_ts`), matching the pre-batching behavior.
    pub(crate) fn apply_committed_writes(
        &self,
        txn_id: u64,
        commit_ts: u64,
        writes: &[WriteSetEntry],
    ) {
        let entries = || writes.iter().filter(|w| w.table_id == self.id);
        let guard = self.runtime.epoch.pin();
        // --- 1. Eager stamping.
        for entry in entries() {
            let tail = Rid(entry.tail_rid);
            let range = self.range(tail.range());
            if entry.insert_key.is_some() {
                // Insert: the Start Time cell lives base-side in the
                // insert-phase tail; a merge may already have replaced the
                // representation, in which case the merge consolidated the
                // resolved timestamp and there is nothing to stamp.
                if let BaseData::Insert(t) = &range.base(&guard).data {
                    let slot = Rid(entry.base_rid).slot() as usize;
                    let _ = t.start_time.cas(slot, txn_id, commit_ts, &guard);
                }
            } else {
                range
                    .tail
                    .swap_start_cell(tail.seq(), txn_id, commit_ts, &guard);
            }
        }

        // --- 2. Deferred removals for superseded secondary-index entries.
        let Some(indexed) = self.secondary_indexes() else {
            return;
        };
        let cols: Vec<usize> = indexed.iter().map(|&(col, _)| col).collect();
        // Pre-images are probed *detached* at `commit_ts - 1`: after the
        // stamping above the transaction's own versions carry `commit_ts`
        // and fall outside the bound, so the probe resolves exactly the
        // version this commit superseded — no own-write exclusion games.
        let pre_mode = ReadMode::as_of(commit_ts - 1);
        // Group update/delete entries by base record, preserving write
        // order within each record's run (one probe per record, then the
        // record's versions replay in order against it).
        let mut by_record: HashMap<u64, Vec<&WriteSetEntry>> = HashMap::new();
        let mut record_order: Vec<u64> = Vec::new();
        for entry in entries() {
            // Inserts have no pre-image; a first-update snapshot record in
            // the write set (see `Table::write_tail`) is no update.
            if entry.insert_key.is_some()
                || self
                    .range(Rid(entry.tail_rid).range())
                    .tail
                    .encoding(Rid(entry.tail_rid).seq(), &guard)
                    .is_snapshot()
            {
                continue;
            }
            let run = by_record.entry(entry.base_rid).or_default();
            if run.is_empty() {
                record_order.push(entry.base_rid);
            }
            run.push(entry);
        }
        for base_rid_raw in record_order {
            let base_rid = Rid(base_rid_raw);
            let range = self.range(base_rid.range());
            let reader = self.reader(range, range.base(&guard), &guard);
            // One batched probe recovers every indexed column's pre-image.
            let mut current: Vec<Option<u64>> =
                match reader.read_record(base_rid.slot(), &cols, pre_mode) {
                    Resolved::Visible { values, .. } => values.into_iter().map(Some).collect(),
                    Resolved::Deleted | Resolved::NotVisible => vec![None; cols.len()],
                };
            for entry in &by_record[&base_rid_raw] {
                let seq = Rid(entry.tail_rid).seq();
                let enc = range.tail.encoding(seq, &guard);
                if enc.is_delete() {
                    for (i, (_, idx)) in indexed.iter().enumerate() {
                        if let Some(old) = current[i].take() {
                            idx.remove_deferred(old, base_rid_raw, commit_ts);
                        }
                    }
                    continue;
                }
                for (i, &(col, ref idx)) in indexed.iter().enumerate() {
                    if !enc.has(col) {
                        continue;
                    }
                    let new = range.tail.value(seq, col, &guard);
                    if current[i] != Some(new) {
                        if let Some(old) = current[i] {
                            idx.remove_deferred(old, base_rid_raw, commit_ts);
                        }
                        current[i] = Some(new);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{DbConfig, TableConfig};
    use crate::db::Database;
    use crate::error::Error;
    use lstore_txn::{IsolationLevel, ReadSetEntry};

    #[test]
    fn validation_blames_the_first_failing_read_across_interleaved_tables() {
        // Reads alternate between two tables (a:k at position 2k, b:k at
        // 2k + 1); b:5 (position 11) and a:7 (position 14) go stale. Both
        // tables hold keys 0..10 at the same RIDs, so validating b's
        // entries against a would pass b:5 and blame a:7 instead.
        let db = Database::new(DbConfig::deterministic());
        let a = db.create_table("a", &["v"], TableConfig::small()).unwrap();
        let b = db.create_table("b", &["v"], TableConfig::small()).unwrap();
        for k in 0..10 {
            a.insert_auto(k, &[k]).unwrap();
            b.insert_auto(k, &[k]).unwrap();
        }
        let mut txn = db.begin_with(IsolationLevel::RepeatableRead);
        for k in 0..10 {
            a.read(&mut txn, k, &[0]).unwrap();
            b.read(&mut txn, k, &[0]).unwrap();
        }
        a.update_auto(7, &[(0, 70)]).unwrap();
        b.update_auto(5, &[(0, 50)]).unwrap();
        let stale = b.locate(5).unwrap().0;
        assert_ne!(stale, a.locate(7).unwrap().0);
        assert!(matches!(
            db.commit(&mut txn),
            Err(Error::ValidationFailed { base_rid }) if base_rid == stale
        ));
    }

    #[test]
    fn a_read_of_an_unknown_table_fails_validation() {
        let db = Database::new(DbConfig::deterministic());
        let t = db.create_table("t", &["v"], TableConfig::small()).unwrap();
        t.insert_auto(1, &[10]).unwrap();
        let mut txn = db.begin_with(IsolationLevel::RepeatableRead);
        t.read(&mut txn, 1, &[0]).unwrap();
        txn.read_set.push(ReadSetEntry {
            table_id: 999,
            base_rid: 42,
            version_rid: 42,
            speculative: false,
        });
        assert!(matches!(
            db.commit(&mut txn),
            Err(Error::ValidationFailed { base_rid: 42 })
        ));
    }
}
