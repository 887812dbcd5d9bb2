//! Commit-path batching and transactional batched reads.
//!
//! The detached batched reader ([`Table::read_batch`]) plans its probes
//! with the batch planner of `crate::multi_read`; this module extends the
//! same machinery into the §5.1.1 transaction lifecycle, in three pieces:
//!
//! * [`TransactionReads`] — `Transaction::multi_read` /
//!   `multi_read_cols`: batched point reads that join every probed record
//!   into the transaction's read set, byte-identical to a loop of
//!   [`Table::read`] calls (isolation rules, duplicate tracking,
//!   read-your-own-writes included).
//! * `Runtime::validate_read_set` — the batched commit-time validator:
//!   the read set is grouped per table, and each table's slice runs through
//!   the same planner as the probes — sorted by (shard, base RID), cut into
//!   floor-gated units, fanned out over the unified task pool (see
//!   `Table::validate_reads_batch`).
//! * `Runtime::apply_committed_writes` — batched write application at
//!   commit: each table the write set names takes its entries in write
//!   order, eagerly stamping commit timestamps into the
//!   transaction's Start Time cells (relieving future readers of the lazy
//!   CAS of §5.1.1) and enqueueing **deferred secondary-index removals**
//!   (§3.1 footnote 3) for superseded index entries, with one batched
//!   pre-image probe per updated record instead of one per index entry.

use std::collections::HashMap;

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
    /// (read-set joining and own-write visibility included); batches of
    /// at least `DbConfig::batch_read_min` keys fan out across the
    /// unified task pool.
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
    /// Batched §5.1.1 validate-reads over a committing transaction's whole
    /// read set. Entries group per table (keeping their read-set
    /// positions), each table's slice validates through
    /// `Table::validate_reads_batch` — sequentially when small, fanned out
    /// over the task pool when large — and the overall verdict is the
    /// **lowest-position** failing entry's base RID, i.e. exactly the
    /// entry the old front-to-back loop would have tripped on first.
    /// `None` means every read validated.
    pub(crate) fn validate_read_set(&self, read_set: &[ReadSetEntry], txn_id: u64) -> Option<u64> {
        let mut groups: HashMap<u32, Vec<(usize, ReadSetEntry)>> = HashMap::new();
        for (pos, &entry) in read_set.iter().enumerate() {
            groups.entry(entry.table_id).or_default().push((pos, entry));
        }
        let mut worst: Option<(usize, u64)> = None;
        for (table_id, entries) in groups {
            let table = self.table(table_id).expect("read-set table exists");
            if let Some((pos, base_rid)) = table.validate_reads_batch(&entries, txn_id) {
                if worst.is_none_or(|(p, _)| pos < p) {
                    worst = Some((pos, base_rid));
                }
            }
        }
        worst.map(|(_, base_rid)| base_rid)
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
        // --- 1. Eager stamping.
        for entry in entries() {
            let tail = Rid(entry.tail_rid);
            let range = self.range(tail.range());
            if entry.insert_key.is_some() {
                // Insert: the Start Time cell lives base-side in the
                // insert-phase tail; a merge may already have replaced the
                // representation, in which case the merge consolidated the
                // resolved timestamp and there is nothing to stamp.
                let base = range.base();
                if let BaseData::Insert(t) = &base.data {
                    let _ =
                        t.start_time
                            .cas(Rid(entry.base_rid).slot() as usize, txn_id, commit_ts);
                }
            } else {
                range.tail.swap_start_cell(tail.seq(), txn_id, commit_ts);
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
                    .encoding(Rid(entry.tail_rid).seq())
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
            let base = range.base();
            let reader = self.reader(range, &base);
            // One batched probe recovers every indexed column's pre-image.
            let mut current: Vec<Option<u64>> =
                match reader.read_record(base_rid.slot(), &cols, pre_mode) {
                    Resolved::Visible { values, .. } => values.into_iter().map(Some).collect(),
                    Resolved::Deleted | Resolved::NotVisible => vec![None; cols.len()],
                };
            for entry in &by_record[&base_rid_raw] {
                let seq = Rid(entry.tail_rid).seq();
                let enc = range.tail.encoding(seq);
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
                    let new = range.tail.value(seq, col);
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
