//! Version resolution: latest, snapshot, and time-travel reads.
//!
//! "When a reader performing index lookup, it always lands at a base record,
//! and from the base record it can reach any desired version of the record
//! by following the table-embedded indirection" (§2.2). This module
//! implements that walk with the paper's fast paths:
//!
//! * **2-hop access / TPS interpretation** (§4.2): if the indirection is ⊥,
//!   or the pointed-to sequence number is ≤ the base page's (per-column)
//!   TPS, the base page already reflects the latest value — no chain walk.
//! * **Lazy commit-timestamp swap** (§5.1.1): when a reader resolves a Start
//!   Time cell holding the id of a committed transaction, it CASes the
//!   commit timestamp into the cell.
//! * **Snapshot safety** (Lemma 2): because a column's original value is
//!   snapshotted into the tail on its first update, walking the chain can
//!   reconstruct *any* version even after merges replaced base values —
//!   the base page is only consulted for columns with no explicit value in
//!   the visible chain, which is exactly when it is guaranteed unchanged.
//! * **Historic crossing** (§4.3): walks that descend below the range's
//!   historic boundary continue in its re-organized historic segment. The
//!   walk reads the segment once, under its pin: the segment's `below_seq`
//!   is the boundary, and the tail pages at or above it stay in place for
//!   as long as the pin lasts.

use lstore_storage::epoch::EpochGuard;
use lstore_txn::{StartTime, TxnManager};

use crate::historic::{HistoricRead, HistoricSegment};
use crate::range::{BaseVersion, UpdateRange};
use crate::rid::Rid;
use crate::schema::SchemaEncoding;

/// How a read resolves visibility.
#[derive(Debug, Clone, Copy)]
pub struct ReadMode {
    /// `Some(ts)`: snapshot semantics — only versions with commit time ≤ ts.
    /// `None`: latest-committed semantics.
    pub as_of: Option<u64>,
    /// The reading transaction's id (its own writes are always visible);
    /// 0 for detached readers.
    pub txn_id: u64,
    /// Accept versions of pre-committed transactions (§5.1.1
    /// speculative-read).
    pub speculative: bool,
    /// Skip versions written by `txn_id` itself — used by commit-time
    /// validation, which must compare against what *other* transactions
    /// see, not against the validator's own installed writes.
    pub exclude_own: bool,
}

impl ReadMode {
    /// Latest committed version, as a detached reader.
    pub fn latest() -> Self {
        ReadMode {
            as_of: None,
            txn_id: 0,
            speculative: false,
            exclude_own: false,
        }
    }

    /// Snapshot at `ts`, as a detached reader.
    pub fn as_of(ts: u64) -> Self {
        ReadMode {
            as_of: Some(ts),
            txn_id: 0,
            speculative: false,
            exclude_own: false,
        }
    }
}

/// Outcome of resolving one record at one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolved {
    /// The record is visible; `version_rid` identifies the visible version
    /// (for read-set validation), `values` the requested columns.
    Visible { version_rid: Rid, values: Vec<u64> },
    /// The record is deleted as of the read time.
    Deleted,
    /// The record does not exist at the read time (uncommitted insert or
    /// inserted after the snapshot).
    NotVisible,
}

/// A borrowed view bundling everything a read needs.
pub struct VersionReader<'a> {
    /// The range being read.
    pub range: &'a UpdateRange,
    /// The range's base version, read under `guard`.
    pub base: &'a BaseVersion,
    /// The pin every tail cell, insert-phase cell and historic segment is
    /// read under.
    pub guard: &'a EpochGuard<'a>,
    /// Transaction table for Start Time resolution.
    pub mgr: &'a TxnManager,
}

impl<'a> VersionReader<'a> {
    /// Resolve a raw Start Time cell under `mode`: `Some(effective_ts)` when
    /// the version is visible, `None` otherwise. Own writes resolve to 0
    /// (visible under any snapshot bound). `reread` loads the same cell
    /// again, for [`TxnManager::resolve_start_time`]; `swap` receives the
    /// commit timestamp when the cell holds the id of a *committed* (not
    /// pre-committed) owner — the lazy swap of §5.1.1.
    fn resolve(
        &self,
        cell: u64,
        reread: impl FnOnce() -> u64,
        mode: ReadMode,
        swap: impl FnOnce(u64),
    ) -> Option<u64> {
        if cell == lstore_storage::NULL_VALUE {
            return None; // unwritten slot
        }
        let ts = if lstore_txn::is_txn_id(cell) {
            if cell == mode.txn_id {
                // Validation: own writes don't count. Otherwise an own
                // write is always visible.
                return (!mode.exclude_own).then_some(0);
            }
            let owner = self.mgr.resolve_start_time(cell, reread);
            if let StartTime::Committed(commit) = owner {
                swap(commit);
            }
            owner.visible(mode.speculative)?
        } else {
            cell
        };
        match mode.as_of {
            Some(bound) if ts > bound => None,
            _ => Some(ts),
        }
    }

    /// Resolve + lazily swap a tail record's Start Time cell when it holds a
    /// committed transaction id.
    fn resolve_tail(&self, seq: u32, mode: ReadMode) -> Option<u64> {
        let (tail, guard) = (&self.range.tail, self.guard);
        let cell = tail.start_cell(seq, guard);
        self.resolve(
            cell,
            || tail.start_cell(seq, guard),
            mode,
            |commit| tail.swap_start_cell(seq, cell, commit, guard),
        )
    }

    /// Resolve the base record's visibility, lazily swapping an insert-phase
    /// Start Time cell once its transaction committed (§5.1.1: "Swapping the
    /// transaction ID with commit time is done lazily by future readers").
    fn resolve_base(&self, slot: u32, mode: ReadMode) -> Option<u64> {
        let cell = self.base.start_cell(slot, self.guard);
        self.resolve(
            cell,
            || self.base.start_cell(slot, self.guard),
            mode,
            |commit| {
                if let crate::range::BaseData::Insert(t) = &self.base.data {
                    let _ = t.start_time.cas(slot as usize, cell, commit, self.guard);
                }
            },
        )
    }

    /// The base record as stored: every requested column gathered from the
    /// base pages, unless the merged record is a delete marker.
    fn base_record(&self, slot: u32, columns: &[usize], version_rid: Rid) -> Resolved {
        if SchemaEncoding(self.base.schema_enc(slot)).is_delete() {
            return Resolved::Deleted;
        }
        let mut values = vec![0; columns.len()];
        self.base
            .gather(columns, slot, u64::MAX, &mut values, self.guard);
        Resolved::Visible {
            version_rid,
            values,
        }
    }

    /// Read `columns` of the record at `slot`.
    pub fn read_record(&self, slot: u32, columns: &[usize], mode: ReadMode) -> Resolved {
        // 1. Base-record visibility (covers uncommitted / future inserts).
        if self.resolve_base(slot, mode).is_none() {
            return Resolved::NotVisible;
        }
        let base_rid = Rid::base(self.range.id, slot);
        let head = self.range.indirection(slot);

        // 2. Fast path: ⊥ indirection → the base record is the only version.
        if head.is_null() {
            return self.base_record(slot, columns, base_rid);
        }

        // 3. Fast path: TPS interpretation (§4.2). For latest reads, when
        // every requested column's TPS covers the head sequence, the base
        // page is current for those columns — 2 hops, no chain walk.
        if mode.as_of.is_none() && !columns.is_empty() {
            let seq = head.seq() as u64;
            if columns.iter().all(|&c| self.base.column_tps[c] >= seq) {
                return self.base_record(slot, columns, head);
            }
        }

        // 4. Chain walk: find the newest visible version. The base cells
        // the walk may fall back on load while it chases tail pointers.
        self.base.prefetch_row(columns, slot, u64::MAX);
        let tail = &self.range.tail;
        let historic = self.range.historic.load(self.guard);
        let boundary = historic.below_seq;
        let mut cursor = head;
        let (version_rid, version_enc) = loop {
            if cursor.is_null() || cursor.is_base() {
                // No visible tail version: the base record itself.
                return self.base_record(slot, columns, base_rid);
            }
            let seq = cursor.seq();
            if (seq as u64) < boundary {
                // Crossed into the historic segment.
                return self.read_historic(historic, slot, columns, mode, base_rid);
            }
            if self.resolve_tail(seq, mode).is_some() {
                break (cursor, tail.encoding(seq, self.guard));
            }
            cursor = tail.prev(seq, self.guard);
        };

        if version_enc.is_delete() {
            return Resolved::Deleted;
        }
        // A first-update snapshot record (§3.1) copies the original values
        // of the version below it; it is not a version of its own. The
        // values start at it, the identity is the version it copies.
        // Otherwise a record's first update would change the version every
        // repeatable-read reader recorded, and fail their validation.
        let identity = if version_enc.is_snapshot() {
            self.version_below(version_rid.seq(), boundary, mode, base_rid)
        } else {
            version_rid
        };

        // 5. Collect requested columns from the visible version, walking
        // older visible versions for columns it does not carry. `missing`
        // is a set of *columns* (a table has at most 48), so a list that
        // names a column twice settles both places at once.
        let mut values = vec![u64::MAX; columns.len()];
        let mut missing = columns.iter().fold(0u64, |set, &c| set | 1 << c);
        let mut take = |seq: u32, enc: SchemaEncoding, missing: &mut u64| {
            let carried = *missing & enc.column_bits();
            if carried != 0 {
                for (value, &c) in values.iter_mut().zip(columns) {
                    if carried & (1 << c) != 0 {
                        *value = tail.value(seq, c, self.guard);
                    }
                }
                *missing &= !carried;
            }
        };
        take(version_rid.seq(), version_enc, &mut missing);
        let mut cursor = tail.prev(version_rid.seq(), self.guard);
        while missing != 0 && !cursor.is_null() && !cursor.is_base() {
            let seq = cursor.seq();
            if (seq as u64) < boundary {
                // Remaining columns come from the historic segment, as of
                // the effective bound (historic data is strictly older), or
                // from the base record where it holds nothing.
                let bound = mode.as_of.unwrap_or(u64::MAX);
                let mut found = 0u64;
                for (value, &c) in values.iter_mut().zip(columns) {
                    if missing & (1 << c) != 0 {
                        if let Some(v) = historic.read_column(slot, c, bound) {
                            *value = v;
                            found |= 1 << c;
                        }
                    }
                }
                missing &= !found;
                break;
            }
            // Older versions: must still be committed (skip tombstones).
            if self.resolve_tail(seq, mode).is_some() {
                take(seq, tail.encoding(seq, self.guard), &mut missing);
            }
            cursor = tail.prev(seq, self.guard);
        }
        if missing != 0 {
            self.base
                .gather(columns, slot, missing, &mut values, self.guard);
        }

        Resolved::Visible {
            version_rid: identity,
            values,
        }
    }

    /// The version a snapshot record at `seq` copies: the newest visible
    /// version at or above the historic `boundary` below it that is not a
    /// snapshot record itself, or the base record (which also stands for
    /// the historic segment, as in [`Self::read_historic`]).
    fn version_below(&self, seq: u32, boundary: u64, mode: ReadMode, base_rid: Rid) -> Rid {
        let tail = &self.range.tail;
        let mut cursor = tail.prev(seq, self.guard);
        while !cursor.is_null() && !cursor.is_base() && (cursor.seq() as u64) >= boundary {
            let seq = cursor.seq();
            if !tail.encoding(seq, self.guard).is_snapshot()
                && self.resolve_tail(seq, mode).is_some()
            {
                return cursor;
            }
            cursor = tail.prev(seq, self.guard);
        }
        base_rid
    }

    /// Read a single column of the record at `slot`; `None` when the record
    /// is invisible or deleted. The scans' per-row resolver: no heap
    /// allocation on any path but the historic crossing.
    pub fn read_column(&self, slot: u32, column: usize, mode: ReadMode) -> Option<u64> {
        self.resolve_base(slot, mode)?;
        let head = self.range.indirection(slot);
        if head.is_null() {
            if SchemaEncoding(self.base.schema_enc(slot)).is_delete() {
                return None;
            }
            return Some(self.base.value(column, slot, self.guard));
        }
        let seq = head.seq() as u64;
        // TPS fast path; for snapshot reads additionally require that the
        // merged image is not newer than the snapshot (Last Updated Time).
        if self.base.column_tps[column] >= seq {
            let fresh_enough = match mode.as_of {
                None => true,
                Some(bound) => {
                    let lu = self.base.last_updated(slot);
                    lu == lstore_storage::NULL_VALUE || lu <= bound
                }
            };
            if fresh_enough {
                if SchemaEncoding(self.base.schema_enc(slot)).is_delete() {
                    return None;
                }
                return Some(self.base.value(column, slot, self.guard));
            }
        }
        // Chain walk, allocation-free: the newest visible version decides
        // delete vs live, then the walk stops at the first visible version
        // carrying the column, or at the base record (what `read_record`
        // returns for `&[column]`, without its vectors).
        let historic = self.range.historic.load(self.guard);
        let boundary = historic.below_seq;
        let mut live = false;
        let mut cursor = head;
        loop {
            if cursor.is_null() || cursor.is_base() {
                if !live && SchemaEncoding(self.base.schema_enc(slot)).is_delete() {
                    return None;
                }
                return Some(self.base.value(column, slot, self.guard));
            }
            let seq = cursor.seq();
            if (seq as u64) < boundary {
                // Crossed into the historic segment (rare: only snapshots
                // older than a compressed merge get here).
                if !live {
                    let base_rid = Rid::base(self.range.id, slot);
                    return match self.read_historic(historic, slot, &[column], mode, base_rid) {
                        Resolved::Visible { values, .. } => Some(values[0]),
                        _ => None,
                    };
                }
                let bound = mode.as_of.unwrap_or(u64::MAX);
                let value = historic.read_column(slot, column, bound);
                return Some(value.unwrap_or_else(|| self.base.value(column, slot, self.guard)));
            }
            if self.resolve_tail(seq, mode).is_some() {
                let enc = self.range.tail.encoding(seq, self.guard);
                if !live {
                    if enc.is_delete() {
                        return None;
                    }
                    live = true;
                }
                if enc.has(column) {
                    return Some(self.range.tail.value(seq, column, self.guard));
                }
            }
            cursor = self.range.tail.prev(seq, self.guard);
        }
    }

    /// Fallback path once a walk crosses the historic boundary before
    /// finding a visible version in regular tail pages.
    fn read_historic(
        &self,
        historic: &HistoricSegment,
        slot: u32,
        columns: &[usize],
        mode: ReadMode,
        base_rid: Rid,
    ) -> Resolved {
        let bound = mode.as_of.unwrap_or(u64::MAX);
        match historic.read_record(slot, columns, bound) {
            Some(HistoricRead::Visible(mut values, filled)) => {
                // Columns without historic coverage fall back to base.
                let unfilled = columns
                    .iter()
                    .zip(filled)
                    .filter(|&(_, has)| !has)
                    .fold(0u64, |set, (&c, _)| set | 1 << c);
                if unfilled != 0 {
                    self.base
                        .gather(columns, slot, unfilled, &mut values, self.guard);
                }
                Resolved::Visible {
                    version_rid: base_rid,
                    values,
                }
            }
            Some(HistoricRead::Deleted) => Resolved::Deleted,
            // No historic record: the base record as stored.
            None => self.base_record(slot, columns, base_rid),
        }
    }
}
