//! The L-Store table: fine-grained storage manipulation (§3) on top of the
//! lineage-based architecture.
//!
//! A table owns its update ranges (each with its historic segment), primary
//! and secondary indexes, and statistics. Writes follow §3.1/§3.2 exactly:
//!
//! * **Update**: latch the indirection cell (CAS on the embedded latch bit),
//!   detect write-write conflicts on the latest version's Start Time, take a
//!   first-update snapshot of original values per newly-touched column,
//!   append the (optionally cumulative) tail record, install the new
//!   indirection pointer, release the latch.
//! * **Delete**: an update whose tail record carries the delete flag and no
//!   explicit values.
//! * **Insert**: reserve an aligned slot in the current insert range, append
//!   the full record to the table-level tail pages, leave the base-side
//!   indirection at ⊥.
//!
//! Column indexing convention: the public API addresses *value columns*
//! (excluding the key). Internally the key is data column 0, so a table
//! created with `n` value columns has `n + 1` data columns — mirroring the
//! paper's Table 2 layout (Key, A, B, C).
//!
//! **Partitioning**: the update range is the one partition. The primary
//! index, the statistics and the merge queue are table- or database-wide;
//! only inserts fill `DbConfig::shards` ranges at once, one per *insert
//! lane* (see `crate::shard`). Update ranges keep dense *global* ids in
//! the table-wide `crate::shard::RangeRegistry`, so RIDs and the WAL format
//! never encode the lane count.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use lstore_index::{PrimaryIndex, SecondaryIndex};
use lstore_storage::epoch::EpochGuard;
use lstore_txn::{ReadSetEntry, StartTime, Transaction};
use lstore_wal::LogRecord;

use crate::config::TableConfig;
use crate::db::Runtime;
use crate::error::{Error, Result};
use crate::historic;
use crate::inline::{InlineVec, INLINE_COLS};
use crate::merge::{self, MergeReport};
use crate::multi_read::PointOutcome;
use crate::range::UpdateRange;
use crate::read::{ReadMode, Resolved, VersionReader};
use crate::rid::Rid;
use crate::schema::{Schema, SchemaEncoding, MAX_COLUMNS};
use crate::shard::{RangeRegistry, ShardMap};
use crate::stats::{StatsSnapshot, TableStats};

/// A lineage-based table.
pub struct Table {
    pub(crate) id: u32,
    name: String,
    schema: Schema,
    config: TableConfig,
    pub(crate) runtime: Arc<Runtime>,
    /// All update ranges, by dense global id (lock-free lookups).
    ranges: RangeRegistry,
    /// The primary index (key → base RID).
    pk: PrimaryIndex,
    /// Key → insert-lane routing (striped).
    lane_map: ShardMap,
    /// Global id of the range currently accepting each lane's inserts.
    insert_lanes: Box<[AtomicU32]>,
    /// Serializes insert-range rollover.
    grow: parking_lot::Mutex<()>,
    /// The table's counters (on cache lines of their own).
    pub(crate) stats: TableStats,
    secondary: RwLock<Vec<(usize, Arc<SecondaryIndex>)>>,
    /// Fast-path flag: skip the `secondary` lock entirely while no
    /// secondary index exists (the common OLTP case).
    has_secondary: AtomicBool,
}

impl Table {
    pub(crate) fn create(
        id: u32,
        name: &str,
        value_columns: &[&str],
        config: TableConfig,
        runtime: Arc<Runtime>,
    ) -> Result<Arc<Table>> {
        let mut cols: Vec<&str> = Vec::with_capacity(value_columns.len() + 1);
        cols.push("key");
        cols.extend_from_slice(value_columns);
        let schema = Schema::new(&cols, 0)?;
        let lanes = runtime.insert_lanes();
        let table = Table {
            id,
            name: name.to_string(),
            schema,
            lane_map: ShardMap::new(lanes, config.range_size),
            config,
            runtime,
            ranges: RangeRegistry::new(),
            pk: PrimaryIndex::new(),
            // One initial insert range per lane: lane `l` fills range `l`.
            insert_lanes: (0..lanes as u32).map(AtomicU32::new).collect(),
            grow: parking_lot::Mutex::new(()),
            stats: TableStats::default(),
            secondary: RwLock::new(Vec::new()),
            has_secondary: AtomicBool::new(false),
        };
        for _ in 0..lanes {
            table.append_range();
        }
        Ok(Arc::new(table))
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of *value* columns (excluding the key).
    pub fn value_columns(&self) -> usize {
        self.schema.column_count() - 1
    }

    /// The table's schema (key + value columns).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table's configuration.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// Table-wide statistics snapshot. (Buffer-pool counters are the
    /// database's: `Database::store_stats`.)
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Number of update ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Advanced API: fetch a range handle (used by benches and tests that
    /// drive merges at a fine grain).
    pub fn range_handle(&self, id: u32) -> Arc<UpdateRange> {
        Arc::clone(self.range(id))
    }

    /// Borrow a range by id (lock-free, and no refcount: ranges live as
    /// long as the table).
    #[inline]
    pub(crate) fn range(&self, id: u32) -> &Arc<UpdateRange> {
        self.ranges.get(id)
    }

    /// All ranges, in global-id order.
    pub(crate) fn all_ranges(&self) -> Vec<Arc<UpdateRange>> {
        self.ranges.snapshot()
    }

    /// Fan a per-chunk fold across the unified task pool: `fold` runs once
    /// per contiguous chunk of `items` (update-range handles, per-range
    /// sub-spans, …), concurrently, and the partial results come back in
    /// item order — interleaved by the workers with any pending merge jobs.
    /// Workers read under the caller's pin (`fold` borrows its
    /// [`EpochGuard`], which the caller holds until every chunk is done), so
    /// pages retired mid-scan survive until the last worker drains (§4.1.1
    /// step 5). Falls back to one inline call when the database was
    /// configured with `pool_threads = 1` or there is nothing to split.
    pub(crate) fn scan_fanout<T, R, F>(&self, items: &[T], fold: F) -> Vec<R>
    where
        T: Sync,
        F: Fn(&[T]) -> R + Sync,
        R: Send,
    {
        if items.len() <= 1 {
            return vec![fold(items)]; // nothing to split: don't spawn the pool
        }
        let Some(pool) = self.runtime.scan_pool() else {
            return vec![fold(items)];
        };
        let chunk = items.len().div_ceil(pool.width());
        let fold = &fold;
        let tasks: Vec<_> = items
            .chunks(chunk)
            .map(|slice| move || fold(slice))
            .collect();
        pool.run(tasks)
    }

    /// Map a public value-column index to the internal data-column index.
    #[inline]
    pub(crate) fn internal_col(&self, user_col: usize) -> Result<usize> {
        let columns = self.value_columns();
        if user_col >= columns {
            return Err(column_out_of_range((user_col, columns)));
        }
        Ok(user_col + 1)
    }

    /// Map public value-column indices to internal data-column indices.
    /// `Err((column, columns))` names the first out-of-range column, so a
    /// batch can mint one identical [`Error::ColumnOutOfRange`] per key.
    pub(crate) fn data_cols<C: FromIterator<usize>>(
        &self,
        user_cols: impl IntoIterator<Item = usize>,
    ) -> std::result::Result<C, (usize, usize)> {
        let columns = self.value_columns();
        user_cols
            .into_iter()
            .map(|c| {
                if c < columns {
                    Ok(c + 1)
                } else {
                    Err((c, columns))
                }
            })
            .collect()
    }

    /// Register an ordered secondary index on a value column. Existing rows
    /// are back-filled from their latest committed versions.
    pub fn create_secondary_index(&self, user_col: usize) -> Result<Arc<SecondaryIndex>> {
        let col = self.internal_col(user_col)?;
        let idx = Arc::new(SecondaryIndex::new());
        // Raise the writers' fast-path flag *before* the backfill and
        // registration: a concurrent writer that loads `true` and finds the
        // list still empty does nothing (harmless), while loading a stale
        // `false` after registration would skip index maintenance for its
        // row permanently.
        self.has_secondary.store(true, Ordering::Release);
        // Back-fill.
        let mode = ReadMode::latest();
        let guard = self.runtime.epoch.pin();
        for range in self.all_ranges() {
            let base = range.base(&guard);
            let reader = self.reader(&range, base, &guard);
            let slots = self.occupied_slots(&range, base);
            for slot in 0..slots {
                if let Resolved::Visible { values, .. } = reader.read_record(slot, &[col, 0], mode)
                {
                    idx.insert(values[0], Rid::base(range.id, slot).0);
                }
            }
        }
        self.secondary.write().push((col, Arc::clone(&idx)));
        Ok(idx)
    }

    /// Snapshot the registered secondary indexes as `(internal column,
    /// handle)` pairs, or `None` when the table has no secondary index —
    /// the commit-time write applier's entry point, behind the same
    /// fast-path flag the write path uses.
    pub(crate) fn secondary_indexes(&self) -> Option<Vec<(usize, Arc<SecondaryIndex>)>> {
        if !self.has_secondary.load(Ordering::Acquire) {
            return None;
        }
        let list = self.secondary.read().clone();
        if list.is_empty() {
            None
        } else {
            Some(list)
        }
    }

    pub(crate) fn reader<'a>(
        &'a self,
        range: &'a UpdateRange,
        base: &'a crate::range::BaseVersion,
        guard: &'a EpochGuard<'a>,
    ) -> VersionReader<'a> {
        VersionReader {
            range,
            base,
            guard,
            mgr: &self.runtime.mgr,
        }
    }

    pub(crate) fn occupied_slots(
        &self,
        range: &UpdateRange,
        base: &crate::range::BaseVersion,
    ) -> u32 {
        if base.is_insert_phase() {
            range.used_slots()
        } else {
            base.len as u32
        }
    }

    /// Resolve a key to its stable base RID via the primary index.
    pub fn locate(&self, key: u64) -> Result<Rid> {
        self.pk.get(key).map(Rid).ok_or(Error::KeyNotFound(key))
    }

    // ------------------------------------------------------------------
    // Insert (§3.2)
    // ------------------------------------------------------------------

    /// Insert a record within `txn`. `values` are the value columns.
    pub fn insert(&self, txn: &mut Transaction, key: u64, values: &[u64]) -> Result<Rid> {
        if values.len() != self.value_columns() {
            return Err(Error::ColumnOutOfRange {
                column: values.len(),
                columns: self.value_columns(),
            });
        }
        // Route to the key's insert lane, then allocate an aligned slot in
        // that lane's current insert range.
        let lane = self.lane_map.shard_of(key);
        let (range, slot) = loop {
            let cur = self.insert_lanes[lane].load(Ordering::Acquire);
            let range = self.range(cur);
            if let Some(slot) = range.allocate_slot() {
                break (range, slot);
            }
            self.grow_insert_range(lane, cur);
        };
        let rid = Rid::base(range.id, slot);
        // Uniqueness: claim the primary-index entry first.
        if let Some(prev) = self.pk.insert(key, rid.0) {
            self.pk.insert(key, prev); // restore
            return Err(Error::DuplicateKey(key));
        }

        // "the insertion procedure simply consists of acquiring base and
        // tail RIDs, insert the actual record to table-level tail-pages, and
        // setting the Indirection column in the base record to null" — the
        // indirection array is pre-nulled at range creation.
        let guard = self.runtime.epoch.pin();
        if let crate::range::BaseData::Insert(tail) = &range.base(&guard).data {
            tail.data[0].set(slot as usize, key, &guard);
            for (i, &v) in values.iter().enumerate() {
                tail.data[i + 1].set(slot as usize, v, &guard);
            }
            // Start Time last: publishes the record.
            tail.start_time.set(slot as usize, txn.id, &guard);
        } else {
            unreachable!("current insert range left insert phase prematurely");
        }

        // Tracked before it is logged: the cell holds the transaction's id
        // from here on, and whatever the log says next, the commit must
        // stamp it and the abort unhook the key.
        txn.track_insert(self.id, rid.0, key);
        if let Some(wal) = &self.runtime.wal {
            txn.logged = true;
            let mut row = Vec::with_capacity(values.len() + 1);
            row.push(key);
            row.extend_from_slice(values);
            wal.append(&LogRecord::Insert {
                table_id: self.id,
                range_id: range.id,
                slot,
                txn_id: txn.id,
                values: row,
            })?;
        }
        if self.has_secondary.load(Ordering::Acquire) {
            for (col, idx) in self.secondary.read().iter() {
                let v = if *col == 0 { key } else { values[*col - 1] };
                idx.insert(v, rid.0);
            }
        }
        self.stats.inserts.inc();

        // A filled insert range is a candidate for the simplified merge.
        if slot as usize + 1 == range.capacity {
            self.enqueue_merge(range);
        }
        Ok(rid)
    }

    /// Roll `lane`'s insert range forward once `full_id` filled. The grow
    /// mutex is the rollover critical section: the re-check under the lock
    /// ensures exactly one competing inserter grows the lane, and the lane
    /// is only pointed at the new range after the registry has published it
    /// (so readers of the pointer can always resolve it).
    fn grow_insert_range(&self, lane: usize, full_id: u32) {
        let _g = self.grow.lock();
        if self.insert_lanes[lane].load(Ordering::Acquire) != full_id {
            return; // another inserter already grew this lane
        }
        let range = self.append_range();
        self.insert_lanes[lane].store(range.id, Ordering::Release);
    }

    /// Register a fresh, empty insert-phase range.
    fn append_range(&self) -> Arc<UpdateRange> {
        self.ranges.append(|id| {
            UpdateRange::new(
                id,
                self.config.range_size,
                self.schema.column_count(),
                self.config.tail_page_slots,
                &self.runtime.epoch,
            )
        })
    }

    // ------------------------------------------------------------------
    // Update & delete (§3.1)
    // ------------------------------------------------------------------

    /// Update value columns of the record with `key` within `txn`.
    pub fn update(&self, txn: &mut Transaction, key: u64, updates: &[(usize, u64)]) -> Result<Rid> {
        let internal: InlineVec<(usize, u64), INLINE_COLS> = InlineVec::try_collect(
            updates
                .iter()
                .map(|&(c, v)| self.internal_col(c).map(|c| (c, v))),
        )?;
        self.write_tail(txn, key, &internal, false)
    }

    /// Delete the record with `key` within `txn` ("simply translated into an
    /// update operation, in which all data columns are implicitly set to ∅").
    pub fn delete(&self, txn: &mut Transaction, key: u64) -> Result<Rid> {
        let rid = self.write_tail(txn, key, &[], true)?;
        self.stats.deletes.inc();
        Ok(rid)
    }

    fn write_tail(
        &self,
        txn: &mut Transaction,
        key: u64,
        internal_updates: &[(usize, u64)],
        is_delete: bool,
    ) -> Result<Rid> {
        let base_rid = self.locate(key)?;
        let range = self.range(base_rid.range());
        let slot = base_rid.slot();
        range.prefetch_slot(slot);
        let guard = self.runtime.epoch.pin();
        let base = range.base(&guard);
        base.prefetch_meta(slot);
        let mgr = &self.runtime.mgr;

        // §5.1.1 write: latch via the indirection latch bit. Every error
        // exit below restores `prev`, or the slot stays latched forever and
        // each later writer of the key bounces off it.
        let prev = match range.try_latch(slot) {
            Some(p) => p,
            None => {
                self.stats.write_conflicts.inc();
                return Err(Error::WriteConflict {
                    base_rid: base_rid.0,
                });
            }
        };

        // Write-write conflict: is the latest version's Start Time a
        // competing uncommitted transaction?
        let head_start = if prev.is_null() {
            base.start_cell(slot, &guard)
        } else if (prev.seq() as u64) < range.historic.load(&guard).below_seq {
            0 // historic versions are committed by construction
        } else {
            range.tail.start_cell(prev.seq(), &guard)
        };
        if lstore_txn::is_txn_id(head_start) && head_start != txn.id {
            let reread = || {
                if prev.is_null() {
                    base.start_cell(slot, &guard)
                } else {
                    range.tail.start_cell(prev.seq(), &guard)
                }
            };
            if mgr.resolve_start_time(head_start, reread).in_flight() {
                range.unlatch_restore(slot, prev);
                self.stats.write_conflicts.inc();
                return Err(Error::WriteConflict {
                    base_rid: base_rid.0,
                });
            }
        }

        // Updating a deleted (or not-yet-visible) record is an error: the
        // delete marker is the latest visible version, and SQL-style updates
        // of deleted rows affect nothing.
        if !is_delete {
            let reader = self.reader(range, base, &guard);
            let mode = ReadMode {
                as_of: None,
                txn_id: txn.id,
                speculative: false,
                exclude_own: false,
            };
            // Empty column list: resolves the newest visible version only —
            // O(uncommitted-prefix), never a full chain walk.
            match reader.read_record(slot, &[], mode) {
                Resolved::Visible { .. } => {}
                _ => {
                    range.unlatch_restore(slot, prev);
                    return Err(Error::KeyNotFound(key));
                }
            }
        }

        // First-update snapshots (§3.1): for columns never updated before,
        // append a tail record holding the *original* values, stamped with
        // the base record's original Start Time. This is what makes
        // discarding outdated base pages safe (Lemma 2).
        let ncols = self.schema.column_count();
        let all_bits = (1u64 << ncols) - 1;
        let upd_bits = if is_delete {
            // Deletes virtually touch every column (§3.1: all data columns
            // set to ∅); snapshotting the not-yet-updated ones first keeps
            // the pre-delete version reconstructible after merges null the
            // base record (the paper's footnote-9 requirement).
            all_bits
        } else {
            internal_updates
                .iter()
                .fold(0u64, |b, &(c, _)| b | (1 << c))
        };
        let fresh_bits = upd_bits & !range.updated_columns(slot);
        let mut chain_prev = if prev.is_null() { base_rid } else { prev };
        if fresh_bits != 0 {
            let snap_enc = SchemaEncoding(fresh_bits).with_snapshot();
            let cols: InlineVec<usize, INLINE_COLS> = snap_enc.columns().collect();
            let mut originals = [0u64; MAX_COLUMNS];
            let originals = &mut originals[..cols.len()];
            base.gather(&cols, slot, u64::MAX, originals, &guard);
            let snap_cols: InlineVec<(usize, u64), INLINE_COLS> = cols
                .iter()
                .copied()
                .zip(originals.iter().copied())
                .collect();
            // The original start time (t1 in Table 2). A cell that still
            // holds its inserter's id is resolved to the commit time first:
            // the inserter stamps the cells it wrote and retires its id,
            // and nobody would ever stamp this copy. Only an id of this
            // very transaction (insert and update in one) is copied as is,
            // and then joins the write set so that its commit stamps it.
            let original = base.start_cell(slot, &guard);
            let snap_start =
                match mgr.resolve_start_time(original, || base.start_cell(slot, &guard)) {
                    StartTime::Committed(ts) => ts,
                    _ => original,
                };
            let snap_seq = range.tail.allocate_seq();
            range.tail.write_record(
                snap_seq, chain_prev, snap_enc, base_rid, &snap_cols, snap_start, &guard,
            );
            if let Some(wal) = &self.runtime.wal {
                txn.logged = true;
                wal.append(&LogRecord::TailAppend {
                    table_id: self.id,
                    range_id: range.id,
                    seq: snap_seq,
                    txn_id: txn.id,
                    base_rid: base_rid.0,
                    prev_rid: chain_prev.0,
                    schema_encoding: snap_enc.0,
                    columns: snap_cols.iter().map(|&(c, v)| (c as u16, v)).collect(),
                })
                .inspect_err(|_| range.unlatch_restore(slot, prev))?;
            }
            chain_prev = Rid::tail(range.id, snap_seq);
            if snap_start == txn.id {
                txn.track_write(self.id, base_rid.0, chain_prev.0);
            }
            range.mark_updated(slot, fresh_bits);
            range.note_tail_append();
            self.stats.snapshots_taken.inc();
        }

        // Cumulative carry (§3.1): repeat the latest values of previously
        // updated columns, unless cumulation was reset by a merge (§4.2).
        let mut enc = SchemaEncoding(upd_bits);
        let mut columns: InlineVec<(usize, u64), INLINE_COLS> =
            internal_updates.iter().copied().collect();
        if is_delete {
            enc = SchemaEncoding::empty().with_delete();
        } else if self.config.cumulative_updates
            && prev.is_tail()
            && (prev.seq() as u64) > range.cumulation_reset()
            && (prev.seq() as u64) >= range.historic.load(&guard).below_seq
        {
            let prev_seq = prev.seq();
            let prev_cell = range.tail.start_cell(prev_seq, &guard);
            let carry_ok = prev_cell == txn.id
                || matches!(
                    mgr.resolve_start_time(prev_cell, || range.tail.start_cell(prev_seq, &guard)),
                    StartTime::Committed(_)
                );
            if carry_ok {
                let prev_enc = range.tail.encoding(prev_seq, &guard);
                if !prev_enc.is_delete() {
                    for c in prev_enc.columns() {
                        if upd_bits & (1 << c) == 0 {
                            columns.push((c, range.tail.value(prev_seq, c, &guard)));
                            enc.set(c);
                        }
                    }
                }
            }
        }

        // Append the new version and install the indirection pointer.
        let seq = range.tail.allocate_seq();
        range
            .tail
            .write_record(seq, chain_prev, enc, base_rid, &columns, txn.id, &guard);
        if let Some(wal) = &self.runtime.wal {
            txn.logged = true;
            wal.append(&LogRecord::TailAppend {
                table_id: self.id,
                range_id: range.id,
                seq,
                txn_id: txn.id,
                base_rid: base_rid.0,
                prev_rid: chain_prev.0,
                schema_encoding: enc.0,
                columns: columns.iter().map(|&(c, v)| (c as u16, v)).collect(),
            })
            // A snapshot record taken above stays in the chain (it is
            // marked taken, and valid whatever becomes of `txn`).
            .inspect_err(|_| {
                let head = if fresh_bits != 0 { chain_prev } else { prev };
                range.unlatch_restore(slot, head)
            })?;
        }
        let tail_rid = Rid::tail(range.id, seq);
        range.mark_updated(slot, upd_bits);
        range.unlatch_install(slot, tail_rid);
        txn.track_write(self.id, base_rid.0, tail_rid.0);
        self.stats.updates.inc();

        // Secondary-index maintenance: add (new value, base RID); defer the
        // removal of superseded entries (§3.1 footnote 3).
        if self.has_secondary.load(Ordering::Acquire) {
            for (col, idx) in self.secondary.read().iter() {
                if let Some(&(_, v)) = columns.iter().find(|(c, _)| c == col) {
                    idx.insert(v, base_rid.0);
                    // The superseded (old-value, rid) entry is *not* removed
                    // here: removal is deferred until the change falls
                    // outside every active snapshot (§3.1 footnote 3). Stale
                    // hits are filtered by predicate re-evaluation;
                    // `SecondaryIndex::gc` prunes.
                }
            }
        }

        let unmerged = range.note_tail_append();
        if unmerged >= self.config.merge_threshold as u64 {
            self.enqueue_merge(range);
        }
        Ok(tail_rid)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    pub(crate) fn mode_for(&self, txn: &Transaction, speculative: bool) -> ReadMode {
        match txn.isolation {
            lstore_txn::IsolationLevel::ReadCommitted => ReadMode {
                as_of: None,
                txn_id: txn.id,
                speculative,
                exclude_own: false,
            },
            lstore_txn::IsolationLevel::Snapshot | lstore_txn::IsolationLevel::RepeatableRead => {
                ReadMode {
                    as_of: Some(txn.begin),
                    txn_id: txn.id,
                    speculative,
                    exclude_own: false,
                }
            }
        }
    }

    /// Read value columns of `key` within `txn`; `None` when deleted or not
    /// visible.
    pub fn read(
        &self,
        txn: &mut Transaction,
        key: u64,
        user_cols: &[usize],
    ) -> Result<Option<Vec<u64>>> {
        self.read_impl(txn, key, user_cols, false)
    }

    /// Speculative read (§5.1.1): also sees pre-committed versions; forces
    /// commit-time validation of this read.
    pub fn read_speculative(
        &self,
        txn: &mut Transaction,
        key: u64,
        user_cols: &[usize],
    ) -> Result<Option<Vec<u64>>> {
        self.read_impl(txn, key, user_cols, true)
    }

    fn read_impl(
        &self,
        txn: &mut Transaction,
        key: u64,
        user_cols: &[usize],
        speculative: bool,
    ) -> Result<Option<Vec<u64>>> {
        let cols: InlineVec<usize, INLINE_COLS> = self
            .data_cols(user_cols.iter().copied())
            .map_err(column_out_of_range)?;
        let mode = self.mode_for(txn, speculative);
        let outcome = self.resolve_point(key, &cols, mode, &self.runtime.epoch.pin());
        self.tracked(txn, key, outcome, speculative)
    }

    /// Batched transactional point reads: the read-set-joining twin of
    /// [`Table::read`], resolving every key through the batched planner
    /// under the transaction's isolation mode. One `Result` per key, in
    /// input order, each byte-identical to a [`Table::read`] call at the
    /// same point in the transaction — including read-set tracking
    /// (duplicate keys track duplicate entries, exactly like a loop) and
    /// own-write visibility (a transaction's own versions resolve visible
    /// under any snapshot bound, so read-your-own-writes holds on the
    /// batched path too).
    pub(crate) fn multi_read_txn(
        &self,
        txn: &mut Transaction,
        keys: &[u64],
        user_cols: &[usize],
    ) -> Vec<Result<Option<Vec<u64>>>> {
        let mode = self.mode_for(txn, false);
        let cols = self.data_cols(user_cols.iter().copied());
        self.read_keys(keys, cols, mode, |key, outcome| {
            self.tracked(txn, key, outcome, false)
        })
    }

    /// The transactional view of an outcome, shared by the single-key and
    /// batched readers: the visible values, joining the read set with the
    /// observed version (a delete marker joins as version 0; a record with
    /// nothing visible is not tracked).
    fn tracked(
        &self,
        txn: &mut Transaction,
        key: u64,
        outcome: PointOutcome,
        speculative: bool,
    ) -> Result<Option<Vec<u64>>> {
        let (base_rid, version_rid, values) = match outcome {
            Some((
                base_rid,
                Resolved::Visible {
                    version_rid,
                    values,
                },
            )) => (base_rid, version_rid.0, Some(values)),
            Some((base_rid, Resolved::Deleted)) => (base_rid, 0, None),
            Some((_, Resolved::NotVisible)) => return Ok(None),
            None => return Err(Error::KeyNotFound(key)),
        };
        txn.track_read(ReadSetEntry {
            table_id: self.id,
            base_rid: base_rid.0,
            version_rid,
            speculative,
        });
        Ok(values)
    }

    // ------------------------------------------------------------------
    // Merge & historic control
    // ------------------------------------------------------------------

    /// Request a background merge of `range`. Two triggers call this: a
    /// writer whose appends cross `merge_threshold` (or fill an insert
    /// range), and a scan whose suffix passes have walked as many unmerged
    /// records as the range has rows (`Table::plan_window`).
    pub(crate) fn enqueue_merge(&self, range: &UpdateRange) {
        // With background merging off, merges run only when called
        // (`merge_now` / `merge_all`): no claim to take and release.
        if !self.runtime.background_merge || !range.claim_merge() {
            return;
        }
        if !self.runtime.enqueue_merge(self.id, range.id) {
            range.merge_done(); // pool stopped: leave to manual merges
        }
    }

    /// Process one merge request (called by pool workers or tests). Safe to
    /// run from any thread: the relaxed merge touches only stable data
    /// (§4.1, Lemma 1) and `claim_merge` keeps one merge per range in
    /// flight, so concurrent merges of *different* ranges — pool workers
    /// drain the one queue in parallel — never conflict.
    pub(crate) fn process_merge(&self, range_id: u32) -> MergeReport {
        self.process_merge_inner(range_id, false)
    }

    fn process_merge_inner(&self, range_id: u32, force_seal: bool) -> MergeReport {
        let range = self.range(range_id);
        // Release the merge-pending claim on every exit path *including
        // unwinds*: the pool worker catches a panicking merge and keeps
        // going, so a wedged claim would silently disable background
        // merging for this range forever. (Releasing an unclaimed range —
        // the `merge_now`/`merge_all` paths — is a harmless store.)
        struct ClaimRelease<'a>(&'a UpdateRange);
        impl Drop for ClaimRelease<'_> {
            fn drop(&mut self) {
                self.0.merge_done();
            }
        }
        let _claim = ClaimRelease(range);
        let stats = &self.stats;
        let mut report = MergeReport::default();
        if self.is_insert_phase(range) {
            if force_seal {
                self.seal_insert_range(range);
            }
            if merge::merge_insert_range(
                range,
                &self.runtime.mgr,
                &self.runtime.epoch,
                &self.config,
                self.runtime.page_store(),
                force_seal,
            ) {
                stats.insert_merges.inc();
            } else {
                return report;
            }
        }
        report = merge::merge_range(
            range,
            &self.runtime.mgr,
            &self.runtime.epoch,
            &self.config,
            self.runtime.page_store(),
            None,
            None,
        );
        if report.swapped {
            stats.merges.inc();
            stats.merged_records.add(report.consumed);
            if let Some(wal) = &self.runtime.wal {
                let _ = wal.append(&LogRecord::MergeCompleted {
                    table_id: self.id,
                    range_id,
                    tps: report.tps,
                });
            }
        }
        report
    }

    /// Synchronously merge one range, sealing a partially-filled insert
    /// range first (insert graduation + tail merge).
    pub fn merge_now(&self, range_id: u32) -> MergeReport {
        self.process_merge_inner(range_id, true)
    }

    /// Synchronously merge every range in global-id order; returns total
    /// tail records consumed. Partially-filled insert ranges are sealed
    /// (new inserts go to a fresh range) so their records graduate to base
    /// pages immediately.
    pub fn merge_all(&self) -> u64 {
        let ranges = self.all_ranges();
        // Seal in lane order, so the ranges that take over get the same ids
        // whatever the ids of the ranges they replace.
        for lane in self.insert_lanes.iter() {
            let range = self.range(lane.load(Ordering::Acquire));
            if self.is_insert_phase(range) {
                self.seal_insert_range(range);
            }
        }
        ranges
            .iter()
            .map(|range| self.process_merge_inner(range.id, true).consumed)
            .sum()
    }

    /// Whether `range` is still in its insert phase (a fresh pin's look).
    fn is_insert_phase(&self, range: &UpdateRange) -> bool {
        range.base(&self.runtime.epoch.pin()).is_insert_phase()
    }

    /// Stop directing inserts at `range` (a new insert range takes over its
    /// lane) so the range can graduate even while partially filled.
    fn seal_insert_range(&self, range: &UpdateRange) {
        let lane = self
            .insert_lanes
            .iter()
            .position(|cur| cur.load(Ordering::Acquire) == range.id);
        if let Some(lane) = lane {
            self.grow_insert_range(lane, range.id);
        }
    }

    /// Merge only a subset of value columns of one range — the independent
    /// per-column merge of §4.2 (used by tests and ablations).
    pub fn merge_columns_now(&self, range_id: u32, user_cols: &[usize]) -> Result<MergeReport> {
        let cols: Vec<usize> = self
            .data_cols(user_cols.iter().copied())
            .map_err(column_out_of_range)?;
        let range = self.range(range_id);
        Ok(merge::merge_range(
            range,
            &self.runtime.mgr,
            &self.runtime.epoch,
            &self.config,
            self.runtime.page_store(),
            None,
            Some(&cols),
        ))
    }

    /// Merge every range up to an agreed time `ti` (§4.1.3): after this
    /// call, every merged base page reflects exactly the committed updates
    /// with commit time ≤ `ti`, forming an almost up-to-date consistent
    /// snapshot across the table for relaxed analytical queries. Returns the
    /// total tail records consumed.
    pub fn merge_upto_time(&self, ti: u64) -> u64 {
        let mut total = 0;
        for range in self.all_ranges() {
            let (from, bounded) = {
                let guard = self.runtime.epoch.pin();
                let base = range.base(&guard);
                if base.is_insert_phase() {
                    continue; // graduates via the insert merge first
                }
                let from = base.tps + 1;
                let mgr = &self.runtime.mgr;
                (
                    from,
                    merge::committed_prefix_upto_time(&range, from, mgr, ti, &guard),
                )
            };
            if bounded < from {
                continue;
            }
            let limit = bounded - from + 1;
            let report = merge::merge_range(
                &range,
                &self.runtime.mgr,
                &self.runtime.epoch,
                &self.config,
                self.runtime.page_store(),
                Some(limit),
                None,
            );
            total += report.consumed;
        }
        total
    }

    /// Per-range temporal lineage (§4.1.3): the earliest commit timestamp
    /// not yet merged, or `None` when the range is fully merged.
    pub fn earliest_unmerged_ts(&self, range_id: u32) -> Option<u64> {
        let guard = self.runtime.epoch.pin();
        merge::earliest_unmerged_ts(self.range(range_id), &self.runtime.mgr, &guard)
    }

    /// Compress merged tail records older than `oldest_snapshot` into the
    /// range's historic segment (§4.3). Returns records compressed.
    pub fn compress_historic(&self, range_id: u32, oldest_snapshot: u64) -> usize {
        let range = self.range(range_id);
        let published = {
            let guard = self.runtime.epoch.pin();
            let tps = range.base(&guard).tps;
            historic::compress_range(range, tps, oldest_snapshot, &self.runtime.mgr, &guard)
        };
        let Some(published) = published else {
            return 0;
        };
        // A reader pinned before the boundary moved may still walk the
        // records below it in the tail pages: release them (into the epoch
        // limbo) only once every such reader has unpinned, and only below
        // the boundary this pass published.
        let below = published.below_seq as u32;
        let range = Arc::downgrade(range);
        self.runtime.epoch.defer(move || {
            if let Some(range) = range.upgrade() {
                range.tail.release_below(below);
            }
        });
        self.runtime.epoch.try_reclaim();
        self.stats.historic_compressed.add(published.records as u64);
        published.records
    }

    /// Total unmerged tail records across ranges (merge-lag metric, Fig. 8).
    pub fn unmerged_tail_records(&self) -> u64 {
        self.all_ranges().iter().map(|r| r.unmerged()).sum()
    }

    pub(crate) fn pk_remove_inner(&self, key: u64) {
        self.pk.remove(key);
    }

    pub(crate) fn pk_insert_raw(&self, key: u64, rid: Rid) {
        self.pk.insert(key, rid.0);
    }

    /// Append an empty insert-phase range (WAL replay and checkpoint
    /// restore re-create the range layout the table had before the crash).
    /// Logged range ids are global and lane-count-agnostic, so recovered
    /// ranges become the insert ranges of the lanes round-robin, which
    /// makes the lane count a pure runtime knob rather than part of the
    /// persistence format.
    pub(crate) fn grow_for_replay(&self) {
        let range = self.append_range();
        let lane = range.id as usize % self.insert_lanes.len();
        self.insert_lanes[lane].store(range.id, Ordering::Release);
    }

    /// Total encoded bytes of all base pages (storage-footprint metric).
    pub fn base_bytes(&self) -> usize {
        let guard = self.runtime.epoch.pin();
        self.all_ranges()
            .iter()
            .map(|r| r.base(&guard).encoded_bytes())
            .sum()
    }
}

/// The error for a `(column, columns)` pair from [`Table::data_cols`].
pub(crate) fn column_out_of_range((column, columns): (usize, usize)) -> Error {
    Error::ColumnOutOfRange { column, columns }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("insert_lanes", &self.insert_lanes.len())
            .field("ranges", &self.range_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use crate::config::{DbConfig, TableConfig};
    use crate::db::Database;
    use crate::rid::Rid;

    /// Insert-lane routing pins RIDs. The expected RIDs come from a model
    /// of the rule: lane `l` starts in range `l`, key `k` inserts through
    /// lane `(k / range_size) % lanes`, a lane whose range is full moves to
    /// the next id the registry hands out, and `merge_all` moves every
    /// lane on, in lane order.
    #[test]
    fn insert_lanes_route_by_stripe_and_keep_rids() {
        const KEYS: u64 = 2000;
        let size = TableConfig::small().range_size as u64;
        for lanes in [1usize, 2, 4] {
            // Key order, then a scrambled order that rolls lanes over out
            // of step.
            let scrambled = (0..KEYS).map(|i| (i * 7919) % KEYS);
            for (order, keys) in [(0..KEYS).collect::<Vec<_>>(), scrambled.collect()]
                .iter()
                .enumerate()
            {
                let db = Database::new(DbConfig::deterministic().with_shards(lanes));
                let t = db
                    .create_table("lanes", &["v"], TableConfig::small())
                    .unwrap();
                let mut current: Vec<u32> = (0..lanes as u32).collect();
                let mut used = vec![0u32; lanes];
                let mut next = lanes as u32;
                for (i, &k) in keys.iter().enumerate() {
                    if i as u64 == KEYS / 2 {
                        // A merge seals every lane's range, in lane order.
                        t.merge_all();
                        for cur in current.iter_mut() {
                            *cur = next;
                            used.push(0);
                            next += 1;
                        }
                    }
                    let lane = ((k / size) % lanes as u64) as usize;
                    if used[current[lane] as usize] as u64 == size {
                        current[lane] = next;
                        used.push(0);
                        next += 1;
                    }
                    let slot = used[current[lane] as usize];
                    used[current[lane] as usize] += 1;
                    let rid = t.insert_auto(k, &[k]).unwrap();
                    assert_eq!(
                        rid,
                        Rid::base(current[lane], slot),
                        "lanes {lanes} order {order} key {k}"
                    );
                    assert_eq!(
                        t.insert_lanes[lane].load(Ordering::Acquire),
                        rid.range(),
                        "key {k} filled lane {lane}"
                    );
                    if order == 0 && (i as u64) < KEYS / 2 {
                        // A key-ordered load fills range `k / range_size`.
                        assert_eq!(rid, Rid::base((k / size) as u32, (k % size) as u32));
                    }
                }
                assert_eq!(t.range_count(), next as usize);
            }
        }
    }
}
