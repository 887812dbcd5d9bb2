//! Update ranges: base-side storage, indirection, and lineage state.
//!
//! Records are "(virtually) partitioned into disjoint ranges" (§2.1); each
//! [`UpdateRange`] owns
//!
//! * the range's current base representation (an [`BaseVersion`] snapshot
//!   swapped wholesale by the merge — the per-range slice of the page
//!   directory),
//! * the in-place-updated **Indirection column** (one atomic cell per slot,
//!   with the latch bit of §5.1.1),
//! * an *updated-columns* bitmap per slot (the optional base-record Schema
//!   Encoding maintained "as part of the update process", §3.1) used to
//!   decide when a first-update snapshot must be taken,
//! * the range's [`TailSegment`], and
//! * merge bookkeeping (unmerged-record counter, cumulation reset point,
//!   historic boundary).
//!
//! A freshly created range is an **insert range** (§3.2): its base side is
//! the aligned *table-level tail pages* ([`InsertTail`]) rather than merged
//! pages. The simplified insert merge turns it into regular base pages.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use lstore_storage::epoch::{EpochCell, EpochGuard, EpochManager};
use lstore_storage::store::PagePtr;
use lstore_storage::tail::AppendVec;
use lstore_storage::NULL_VALUE;

use crate::rid::{Rid, LATCH_BIT};
use crate::tailseg::TailSegment;

/// Table-level tail pages backing an insert range (§3.2): full-width,
/// append-only storage aligned slot-for-slot with the reserved base RIDs
/// ("the 10th base RID in the insert range corresponds to the 10th tail RID
/// in the table-level tail-range").
#[derive(Debug)]
pub struct InsertTail {
    /// One column per data column — inserts "allocate tail pages for all
    /// columns … because the insert statement always provides a value for
    /// every column".
    pub data: Box<[AppendVec]>,
    /// Start Time cells (transaction ids until lazily swapped).
    pub start_time: AppendVec,
}

impl InsertTail {
    fn new(columns: usize, page_slots: usize, epoch: &EpochManager) -> Self {
        InsertTail {
            data: (0..columns)
                .map(|_| AppendVec::new(page_slots, epoch))
                .collect(),
            start_time: AppendVec::new(page_slots, epoch),
        }
    }
}

/// The base-side data of a range: merged read-only pages, or the aligned
/// insert tail for ranges still in their insert phase.
#[derive(Debug)]
pub enum BaseData {
    /// Read-optimized, compressed, read-only pages (one per data column).
    /// Pages are held through [`PagePtr`]: plain heap residents by default,
    /// evictable buffer-pool frames when a page store is configured —
    /// either way, `read()` yields the same immutable
    /// [`BasePage`](lstore_storage::page::BasePage).
    Pages {
        /// Data columns.
        data: Box<[PagePtr]>,
        /// Start Time column — "always preserved (even after the merge)"
        /// (§2.2): original insertion times.
        start_time: PagePtr,
        /// Last Updated Time column, "only populated after the merge process"
        /// (§2.2); `u64::MAX` cells mean never merged-updated.
        last_updated: PagePtr,
        /// Schema Encoding column for base records (populated by the merge).
        schema_enc: PagePtr,
    },
    /// Insert-phase storage (§3.2).
    Insert(Box<InsertTail>),
}

/// An immutable snapshot of a range's base representation, with its in-page
/// lineage. The merge creates new `BaseVersion`s and swaps the pointer; old
/// versions retire through the epoch queue.
#[derive(Debug)]
pub struct BaseVersion {
    /// Tail-page sequence number: tail records `1..=tps` are consolidated
    /// into these pages (§4.2). 0 for original pages.
    pub tps: u64,
    /// Per-column TPS, supporting independent merging of different columns
    /// "at different points in time" (§4.2); normally all equal [`Self::tps`].
    pub column_tps: Box<[u64]>,
    /// Number of occupied slots.
    pub len: usize,
    /// Maximum Start Time across slots (`u64::MAX` disables the vectorized
    /// scan fast path, e.g. during the insert phase).
    pub max_start: u64,
    /// Maximum Last Updated Time across slots (`0` when never merged-updated).
    pub max_last_updated: u64,
    /// Whether any slot is a merged delete marker.
    pub has_deletes: bool,
    /// The pages (or insert tail).
    pub data: BaseData,
}

impl BaseVersion {
    /// An insert-phase version (TPS 0, nothing merged) whose tail pages
    /// are read under pins of `epoch`.
    pub fn insert_phase(columns: usize, page_slots: usize, epoch: &EpochManager) -> Self {
        BaseVersion {
            tps: 0,
            column_tps: vec![0; columns].into_boxed_slice(),
            len: 0,
            max_start: u64::MAX,
            max_last_updated: 0,
            has_deletes: false,
            data: BaseData::Insert(Box::new(InsertTail::new(columns, page_slots, epoch))),
        }
    }

    /// Read the base value of `column` at `slot` (an insert-phase cell is
    /// read under `guard`). This and the three accessors below are the
    /// point read's way into base pages: [`PagePtr::get`], which reads a
    /// stored page that is not resident from the image block holding the
    /// cell instead of faulting the page in. Scans, the merge and
    /// checkpoints pin whole pages instead.
    #[inline]
    pub fn value(&self, column: usize, slot: u32, guard: &EpochGuard<'_>) -> u64 {
        match &self.data {
            BaseData::Pages { data, .. } => data[column].get(slot as usize),
            BaseData::Insert(t) => t.data[column].get(slot as usize, guard),
        }
    }

    /// Pass one of [`Self::gather`]: hint the cache line of the cell each
    /// of `columns` (those in the bit set `only`) will be decoded from at
    /// `slot`. Only heap-resident pages take the hint — a store-backed
    /// page's cost is its frame lock or its block read, not its cell, and
    /// an insert-phase column sits behind its page directory.
    #[inline]
    pub fn prefetch_row(&self, columns: &[usize], slot: u32, only: u64) {
        if let BaseData::Pages { data, .. } = &self.data {
            for &c in columns {
                if let (PagePtr::Resident(page), true) = (&data[c], only & (1 << c) != 0) {
                    page.prefetch(slot as usize);
                }
            }
        }
    }

    /// Hint the record's Start Time and Schema Encoding cells, which every
    /// point operation reads before anything else of the row.
    #[inline]
    pub fn prefetch_meta(&self, slot: u32) {
        if let BaseData::Pages {
            start_time,
            schema_enc,
            ..
        } = &self.data
        {
            for meta in [start_time, schema_enc] {
                if let PagePtr::Resident(page) = meta {
                    page.prefetch(slot as usize);
                }
            }
        }
    }

    /// Gather a row: `out[i]` becomes the base value of `columns[i]` at
    /// `slot`, for every `i` whose column is in the bit set `only` (all of
    /// them with `u64::MAX`). A row's cells sit in as many pages as it has
    /// columns, so pass one ([`Self::prefetch_row`]) starts every miss
    /// before pass two decodes the first cell — the misses overlap instead
    /// of each waiting for the decode before it.
    #[inline]
    pub fn gather(
        &self,
        columns: &[usize],
        slot: u32,
        only: u64,
        out: &mut [u64],
        guard: &EpochGuard<'_>,
    ) {
        self.prefetch_row(columns, slot, only);
        for (value, &c) in out.iter_mut().zip(columns) {
            if only & (1 << c) != 0 {
                *value = self.value(c, slot, guard);
            }
        }
    }

    /// Raw Start Time cell at `slot` (may hold a transaction id during the
    /// insert phase).
    #[inline]
    pub fn start_cell(&self, slot: u32, guard: &EpochGuard<'_>) -> u64 {
        match &self.data {
            BaseData::Pages { start_time, .. } => start_time.get(slot as usize),
            BaseData::Insert(t) => t.start_time.get(slot as usize, guard),
        }
    }

    /// Last Updated Time at `slot` (`u64::MAX` = never merged-updated, or
    /// insert phase).
    #[inline]
    pub fn last_updated(&self, slot: u32) -> u64 {
        match &self.data {
            BaseData::Pages { last_updated, .. } => last_updated.get(slot as usize),
            BaseData::Insert(_) => NULL_VALUE,
        }
    }

    /// Base-record Schema Encoding at `slot` (0 during insert phase).
    #[inline]
    pub fn schema_enc(&self, slot: u32) -> u64 {
        match &self.data {
            BaseData::Pages { schema_enc, .. } => schema_enc.get(slot as usize),
            BaseData::Insert(_) => 0,
        }
    }

    /// Is this range still in its insert phase? ("base records must also
    /// fall outside the insert range before becoming a candidate for merging
    /// the recent updates", §4.1.1.)
    pub fn is_insert_phase(&self) -> bool {
        matches!(self.data, BaseData::Insert(_))
    }

    /// Total encoded bytes of the *memory-resident* base pages (0 for
    /// insert phase). Evicted store-backed pages count zero: measuring
    /// memory must not fault them back in.
    pub fn encoded_bytes(&self) -> usize {
        match &self.data {
            BaseData::Pages {
                data,
                start_time,
                last_updated,
                schema_enc,
            } => {
                data.iter().map(|p| p.resident_bytes()).sum::<usize>()
                    + start_time.resident_bytes()
                    + last_updated.resident_bytes()
                    + schema_enc.resident_bytes()
            }
            BaseData::Insert(_) => 0,
        }
    }
}

/// One update range: base snapshot + indirection + tail + lineage state.
#[derive(Debug)]
pub struct UpdateRange {
    /// Dense range id within the table (RIDs never encode the insert-lane
    /// count).
    pub id: u32,
    /// Capacity in record slots.
    pub capacity: usize,
    /// Current base version; the merge swaps this pointer (the page
    /// directory entry for the range) and the old version retires into the
    /// table's epoch manager.
    base: EpochCell<BaseVersion>,
    /// The Indirection column: per-slot forward pointer to the latest tail
    /// record, 0 = ⊥, bit 63 = write latch.
    indirection: Box<[AtomicU64]>,
    /// Per-slot bitmap of columns ever updated (decides first-update
    /// snapshots; also the base-side Schema Encoding before merges).
    updated_cols: Box<[AtomicU64]>,
    /// The range's tail segment.
    pub tail: TailSegment,
    /// Slots handed out during the insert phase.
    next_slot: AtomicU32,
    /// Tail records appended since the last merge was enqueued.
    unmerged: AtomicU64,
    /// Unmerged tail records scans have walked since the last merge: the
    /// work a merge would save them (see [`UpdateRange::note_scanned_suffix`]).
    scanned_suffix: AtomicU64,
    /// Guards against double-enqueueing merges.
    merge_pending: AtomicBool,
    /// Sequence watermark at which cumulation was last reset (§4.2: "TPS …
    /// could be used as a high-water mark for resetting the cumulative
    /// updates").
    cumulation_reset: AtomicU64,
    /// Tail records with `seq < historic_boundary` were re-organized into
    /// the historic store (§4.3).
    historic_boundary: AtomicU64,
}

impl UpdateRange {
    /// Create a fresh insert-phase range whose base versions and tail pages
    /// retire into `epoch` and are read under its pins.
    pub fn new(
        id: u32,
        capacity: usize,
        columns: usize,
        tail_page_slots: usize,
        epoch: &EpochManager,
    ) -> Self {
        UpdateRange {
            id,
            capacity,
            base: EpochCell::new(
                BaseVersion::insert_phase(columns, tail_page_slots, epoch),
                epoch,
            ),
            indirection: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            updated_cols: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            tail: TailSegment::new(id, columns, tail_page_slots, epoch),
            next_slot: AtomicU32::new(0),
            unmerged: AtomicU64::new(0),
            scanned_suffix: AtomicU64::new(0),
            merge_pending: AtomicBool::new(false),
            cumulation_reset: AtomicU64::new(0),
            historic_boundary: AtomicU64::new(1),
        }
    }

    /// The current base version, borrowed for as long as `guard` pins: a
    /// merge that swaps it meanwhile retires the old version, which stays
    /// readable until every pin older than the swap is gone. One acquire
    /// load; no lock, no reference count.
    #[inline]
    pub fn base<'g>(&'g self, guard: &'g EpochGuard<'_>) -> &'g BaseVersion {
        self.base.load(guard)
    }

    /// Publish `new` as the base version (§4.1.1 step 4) and retire the
    /// outdated one into the epoch limbo (step 5).
    pub fn swap_base(&self, new: BaseVersion) {
        self.base.swap(new);
    }

    /// Allocate the next insert slot, or `None` when the range is full.
    pub fn allocate_slot(&self) -> Option<u32> {
        let slot = self.next_slot.fetch_add(1, Ordering::AcqRel);
        if (slot as usize) < self.capacity {
            Some(slot)
        } else {
            None
        }
    }

    /// Slots handed out so far (clamped to capacity).
    pub fn used_slots(&self) -> u32 {
        self.next_slot
            .load(Ordering::Acquire)
            .min(self.capacity as u32)
    }

    /// Make sure at least `upto` slots are marked used (WAL replay).
    pub fn reserve_slots(&self, upto: u32) {
        self.next_slot.fetch_max(upto, Ordering::AcqRel);
    }

    /// Hint the slot's indirection and updated-columns cells — the first
    /// things an operation on the record reads, issued as soon as its RID
    /// is known.
    #[inline]
    pub fn prefetch_slot(&self, slot: u32) {
        if let Some(cell) = self.indirection.get(slot as usize) {
            lstore_storage::prefetch(cell);
        }
        if let Some(cell) = self.updated_cols.get(slot as usize) {
            lstore_storage::prefetch(cell);
        }
    }

    /// Raw indirection cell (with latch bit).
    #[inline]
    pub fn indirection_cell(&self, slot: u32) -> u64 {
        self.indirection[slot as usize].load(Ordering::Acquire)
    }

    /// Indirection pointer (latch bit stripped); `Rid::NULL` = ⊥.
    #[inline]
    pub fn indirection(&self, slot: u32) -> Rid {
        Rid::from_cell(self.indirection_cell(slot))
    }

    /// Try to set the latch bit on a slot's indirection cell (§5.1.1 step 1
    /// of write-write conflict detection). Returns the pre-latch pointer on
    /// success, `None` when another writer holds the latch.
    pub fn try_latch(&self, slot: u32) -> Option<Rid> {
        let cell = &self.indirection[slot as usize];
        let cur = cell.load(Ordering::Acquire);
        if cur & LATCH_BIT != 0 {
            return None;
        }
        match cell.compare_exchange(cur, cur | LATCH_BIT, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => Some(Rid::from_cell(cur)),
            Err(_) => None,
        }
    }

    /// Release the latch, installing `new` as the indirection pointer (the
    /// in-place update that makes the new version reachable).
    pub fn unlatch_install(&self, slot: u32, new: Rid) {
        debug_assert_eq!(new.0 & LATCH_BIT, 0);
        self.indirection[slot as usize].store(new.0, Ordering::Release);
    }

    /// Release the latch without changing the pointer (aborted write path).
    pub fn unlatch_restore(&self, slot: u32, old: Rid) {
        self.indirection[slot as usize].store(old.0, Ordering::Release);
    }

    /// Columns ever updated for `slot` (bitmap).
    #[inline]
    pub fn updated_columns(&self, slot: u32) -> u64 {
        self.updated_cols[slot as usize].load(Ordering::Acquire)
    }

    /// OR `bits` into the slot's updated-columns bitmap.
    pub fn mark_updated(&self, slot: u32, bits: u64) {
        self.updated_cols[slot as usize].fetch_or(bits, Ordering::AcqRel);
    }

    /// Bump the unmerged-record counter; returns the new count.
    pub fn note_tail_append(&self) -> u64 {
        self.unmerged.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Unmerged tail records accumulated since the last merge.
    pub fn unmerged(&self) -> u64 {
        self.unmerged.load(Ordering::Acquire)
    }

    /// Subtract merged records from the unmerged counter.
    pub fn consume_unmerged(&self, n: u64) {
        self.unmerged
            .fetch_sub(n.min(self.unmerged()), Ordering::AcqRel);
    }

    /// Add `records` to the unmerged tail records scans have walked since
    /// the last merge; returns the new total. Once it reaches the range's
    /// row count, scans have paid for a merge's worth of suffix walking and
    /// request one.
    pub fn note_scanned_suffix(&self, records: u64) -> u64 {
        self.scanned_suffix.fetch_add(records, Ordering::Relaxed) + records
    }

    /// Forget the suffix walked so far (the merge swapped the base).
    pub fn reset_scanned_suffix(&self) {
        self.scanned_suffix.store(0, Ordering::Relaxed);
    }

    /// Attempt to claim merge-enqueue duty (CAS false→true).
    pub fn claim_merge(&self) -> bool {
        self.merge_pending
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Clear the merge-pending flag (after the merge ran).
    pub fn merge_done(&self) {
        self.merge_pending.store(false, Ordering::Release);
    }

    /// Cumulation reset watermark.
    pub fn cumulation_reset(&self) -> u64 {
        self.cumulation_reset.load(Ordering::Acquire)
    }

    /// Reset cumulation at `seq` (done by the merge).
    pub fn set_cumulation_reset(&self, seq: u64) {
        self.cumulation_reset.store(seq, Ordering::Release);
    }

    /// First tail sequence still held in regular tail pages; records below
    /// moved to the historic store.
    pub fn historic_boundary(&self) -> u64 {
        self.historic_boundary.load(Ordering::Acquire)
    }

    /// Advance the historic boundary (done by historic compression).
    pub fn set_historic_boundary(&self, seq: u64) {
        self.historic_boundary.store(seq, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lstore_storage::page::BasePage;

    #[test]
    fn latch_protocol() {
        let r = UpdateRange::new(0, 16, 2, 16, &EpochManager::new());
        let prev = r.try_latch(3).expect("unlatched slot latches");
        assert!(prev.is_null());
        // Second writer bounces off the latch → write-write conflict.
        assert!(r.try_latch(3).is_none());
        r.unlatch_install(3, Rid::tail(0, 1));
        assert_eq!(r.indirection(3), Rid::tail(0, 1));
        // Latch again, then restore (abort path).
        let prev = r.try_latch(3).unwrap();
        assert_eq!(prev, Rid::tail(0, 1));
        r.unlatch_restore(3, prev);
        assert_eq!(r.indirection(3), Rid::tail(0, 1));
    }

    #[test]
    fn slot_allocation_bounds() {
        let r = UpdateRange::new(0, 2, 1, 8, &EpochManager::new());
        assert_eq!(r.allocate_slot(), Some(0));
        assert_eq!(r.allocate_slot(), Some(1));
        assert_eq!(r.allocate_slot(), None);
        assert_eq!(r.used_slots(), 2);
    }

    #[test]
    fn base_swap_retires_old_snapshot() {
        let epoch = EpochManager::new();
        let r = UpdateRange::new(0, 4, 1, 8, &epoch);
        let reader = epoch.pin();
        let old = r.base(&reader);
        assert!(old.is_insert_phase());
        r.swap_base(BaseVersion {
            tps: 5,
            column_tps: vec![5].into_boxed_slice(),
            len: 4,
            max_start: 0,
            max_last_updated: 0,
            has_deletes: false,
            data: BaseData::Pages {
                data: vec![PagePtr::resident(BasePage::plain(vec![1, 2, 3, 4]))].into_boxed_slice(),
                start_time: PagePtr::resident(BasePage::plain(vec![0; 4])),
                last_updated: PagePtr::resident(BasePage::plain(vec![NULL_VALUE; 4])),
                schema_enc: PagePtr::resident(BasePage::plain(vec![0; 4])),
            },
        });
        assert_eq!(epoch.try_reclaim(), 0, "the reader pinned before the swap");
        assert!(old.is_insert_phase(), "the old version is still readable");
        let g = epoch.pin();
        assert_eq!(r.base(&g).tps, 5);
        assert_eq!(r.base(&g).value(0, 2, &g), 3);
        drop((g, reader));
        assert_eq!(epoch.try_reclaim(), 1);
    }

    #[test]
    fn updated_columns_bitmap_accumulates() {
        let r = UpdateRange::new(0, 4, 3, 8, &EpochManager::new());
        assert_eq!(r.updated_columns(1), 0);
        r.mark_updated(1, 0b001);
        r.mark_updated(1, 0b100);
        assert_eq!(r.updated_columns(1), 0b101);
    }

    #[test]
    fn merge_claim_is_exclusive() {
        let r = UpdateRange::new(0, 4, 1, 8, &EpochManager::new());
        assert!(r.claim_merge());
        assert!(!r.claim_merge());
        r.merge_done();
        assert!(r.claim_merge());
    }
}
