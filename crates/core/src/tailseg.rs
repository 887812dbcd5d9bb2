//! Per-range tail segments: the write-optimized side of the architecture.
//!
//! For every update range, "upon the first update to that range, a set of
//! tail pages are created … for the updated columns" (§3.1, lazy tail-page
//! allocation). A [`TailSegment`] owns those pages: always-present meta
//! columns (Indirection back-pointers, Schema Encoding, Start Time, Base
//! RID) and lazily materialized data columns — "a column that has never
//! been updated does not even have to be materialized" (§3.1).
//!
//! Tail records are addressed by their per-range sequence number (`seq ≥
//! 1`), handed out by an atomic counter; the record at `seq` lives at index
//! `seq - 1` in every column, keeping all columns of a record aligned
//! ("no join is necessary to pull together all columns of the same record",
//! §2.1).

use std::sync::atomic::{AtomicU32, Ordering};

use lstore_storage::epoch::{EpochGuard, EpochManager};
use lstore_storage::tail::{AppendVec, TailPage, TailSpan};
use lstore_storage::NULL_VALUE;
use lstore_txn::{StartTime, TxnManager};

use crate::rid::Rid;
use crate::schema::SchemaEncoding;

/// The tail pages of one update range.
#[derive(Debug)]
pub struct TailSegment {
    range_id: u32,
    /// Next sequence number to hand out (starts at 1).
    next_seq: AtomicU32,
    /// Back-pointer to the previous version (tail RID, or base RID for the
    /// first version) — the tail-record Indirection column of §2.2.
    indirection: AppendVec,
    /// Schema Encoding cells.
    schema_enc: AppendVec,
    /// Start Time cells; hold transaction ids until lazily swapped to commit
    /// timestamps (§5.1.1 commit).
    start_time: AppendVec,
    /// Base RID column, "utilized to improve the merge process" (§2.2) and
    /// to rebuild the indirection column after a crash (§5.1.3).
    base_rid: AppendVec,
    /// One lazily-paged column per data column.
    data: Box<[AppendVec]>,
}

impl TailSegment {
    /// Create an empty segment for `range_id` with `columns` data columns,
    /// read under pins of `epoch` (released pages retire there).
    pub fn new(range_id: u32, columns: usize, page_slots: usize, epoch: &EpochManager) -> Self {
        let column = || AppendVec::new(page_slots, epoch);
        TailSegment {
            range_id,
            next_seq: AtomicU32::new(1),
            indirection: column(),
            schema_enc: column(),
            start_time: column(),
            base_rid: column(),
            data: (0..columns).map(|_| column()).collect(),
        }
    }

    /// The range this segment belongs to.
    pub fn range_id(&self) -> u32 {
        self.range_id
    }

    /// Allocate the next tail sequence number.
    pub fn allocate_seq(&self) -> u32 {
        self.next_seq.fetch_add(1, Ordering::AcqRel)
    }

    /// Highest sequence number allocated so far (0 when none).
    pub fn high_seq(&self) -> u32 {
        self.next_seq.load(Ordering::Acquire) - 1
    }

    /// Make sure the allocator is past `seq` (WAL replay writes records at
    /// their logged sequence numbers).
    pub fn ensure_seq(&self, seq: u32) {
        self.next_seq.fetch_max(seq + 1, Ordering::AcqRel);
    }

    /// Write one tail record at `seq`. Data columns are written first and
    /// the Start Time cell last (Release ordering), so a record whose start
    /// cell is readable has all its values in place.
    #[allow(clippy::too_many_arguments)]
    pub fn write_record(
        &self,
        seq: u32,
        prev: Rid,
        encoding: SchemaEncoding,
        base: Rid,
        columns: &[(usize, u64)],
        start_cell: u64,
        guard: &EpochGuard<'_>,
    ) {
        let idx = (seq - 1) as usize;
        for &(col, val) in columns {
            self.data[col].set(idx, val, guard);
        }
        self.base_rid.set(idx, base.0, guard);
        self.schema_enc.set(idx, encoding.0, guard);
        self.indirection.set(idx, prev.0, guard);
        self.start_time.set(idx, start_cell, guard);
    }

    /// Back-pointer of record `seq`.
    #[inline]
    pub fn prev(&self, seq: u32, guard: &EpochGuard<'_>) -> Rid {
        Rid(self.indirection.get((seq - 1) as usize, guard))
    }

    /// Schema Encoding of record `seq`.
    #[inline]
    pub fn encoding(&self, seq: u32, guard: &EpochGuard<'_>) -> SchemaEncoding {
        SchemaEncoding(self.schema_enc.get((seq - 1) as usize, guard))
    }

    /// Raw Start Time cell of record `seq` (may be a transaction id).
    #[inline]
    pub fn start_cell(&self, seq: u32, guard: &EpochGuard<'_>) -> u64 {
        self.start_time.get((seq - 1) as usize, guard)
    }

    /// Lazily swap a Start Time cell from a transaction id to its commit
    /// timestamp ("Swapping the transaction ID with commit time is done
    /// lazily by future readers", §5.1.1).
    #[inline]
    pub fn swap_start_cell(&self, seq: u32, txn_id: u64, commit_ts: u64, guard: &EpochGuard<'_>) {
        let _ = self
            .start_time
            .cas((seq - 1) as usize, txn_id, commit_ts, guard);
    }

    /// What the Start Time cell of record `seq` says, through the one
    /// resolver; a committed owner's id is swapped for its timestamp on the
    /// way (merges and historic compression are readers too, §5.1.1).
    pub fn resolve_start(&self, seq: u32, mgr: &TxnManager, guard: &EpochGuard<'_>) -> StartTime {
        let cell = self.start_cell(seq, guard);
        let owner = mgr.resolve_start_time(cell, || self.start_cell(seq, guard));
        if let (StartTime::Committed(ts), true) = (owner, lstore_txn::is_txn_id(cell)) {
            self.swap_start_cell(seq, cell, ts, guard);
        }
        owner
    }

    /// Base RID of record `seq`.
    #[inline]
    pub fn base_rid(&self, seq: u32, guard: &EpochGuard<'_>) -> Rid {
        Rid(self.base_rid.get((seq - 1) as usize, guard))
    }

    /// Explicit value of `column` in record `seq`; ∅ when not materialized.
    #[inline]
    pub fn value(&self, seq: u32, column: usize, guard: &EpochGuard<'_>) -> u64 {
        self.data[column].get((seq - 1) as usize, guard)
    }

    /// Snapshot into `suffix` the pages holding records `after_seq <
    /// seq ≤ upto_seq` of the Start Time, Base RID and Schema Encoding
    /// columns and of the data columns `columns` (replacing what `suffix`
    /// held, reusing its allocations). Start Time is snapshotted first: a
    /// page it holds was allocated after the same page of the other meta
    /// columns (see [`Self::write_record`]), so they hold it too. The
    /// suffix holds the pages themselves, so it is read without a pin.
    pub fn snapshot_suffix(
        &self,
        after_seq: u32,
        upto_seq: u32,
        columns: &[usize],
        suffix: &mut TailSuffix,
        guard: &EpochGuard<'_>,
    ) {
        let idxs = after_seq as usize..(upto_seq as usize).max(after_seq as usize);
        suffix.page_slots = self.start_time.page_slots();
        self.start_time
            .snapshot_pages(idxs.clone(), &mut suffix.start_time, guard);
        self.base_rid
            .snapshot_pages(idxs.clone(), &mut suffix.base_rid, guard);
        self.schema_enc
            .snapshot_pages(idxs.clone(), &mut suffix.schema_enc, guard);
        suffix.data.resize_with(columns.len(), TailSpan::default);
        for (span, &column) in suffix.data.iter_mut().zip(columns) {
            self.data[column].snapshot_pages(idxs.clone(), span, guard);
        }
        suffix.idxs = idxs;
    }

    /// Number of data columns whose tail pages have been materialized.
    pub fn materialized_columns(&self) -> usize {
        self.data.iter().filter(|c| c.page_count() > 0).count()
    }

    /// Release whole tail pages whose records all have `seq < below_seq`;
    /// called after historic compression (§4.3). The pages retire into the
    /// epoch limbo. Returns pages released.
    pub fn release_below(&self, below_seq: u32) -> usize {
        if below_seq <= 1 {
            return 0;
        }
        let below_idx = (below_seq - 1) as usize;
        let mut released = 0;
        released += self.indirection.release_pages_below(below_idx);
        released += self.schema_enc.release_pages_below(below_idx);
        released += self.start_time.release_pages_below(below_idx);
        released += self.base_rid.release_pages_below(below_idx);
        for c in self.data.iter() {
            released += c.release_pages_below(below_idx);
        }
        released
    }

    /// True when record `seq` was fully written (its start cell is set);
    /// used by recovery scans.
    pub fn is_written(&self, seq: u32, guard: &EpochGuard<'_>) -> bool {
        self.start_cell(seq, guard) != NULL_VALUE
    }
}

/// A lock-free view of a run of consecutive tail records — the unmerged
/// suffix a scan window patches its dirty rows from — filled by
/// [`TailSegment::snapshot_suffix`] and reusable across calls.
#[derive(Debug, Default)]
pub struct TailSuffix {
    /// Cell indices (`seq - 1`) of the records covered.
    idxs: std::ops::Range<usize>,
    page_slots: usize,
    start_time: TailSpan,
    base_rid: TailSpan,
    schema_enc: TailSpan,
    /// One span per requested data column, in request order.
    data: Vec<TailSpan>,
}

impl TailSuffix {
    /// Number of records covered (written or not).
    pub fn len(&self) -> usize {
        self.idxs.len()
    }

    /// True when the suffix covers no record.
    pub fn is_empty(&self) -> bool {
        self.idxs.is_empty()
    }

    /// Visit the *written* records newest → oldest. Start Time is read
    /// first (Acquire): ∅ means the record is not published yet and it is
    /// skipped; anything else guarantees its other cells are in place.
    pub fn for_each_newest_first(&self, mut visit: impl FnMut(SuffixRecord<'_>)) {
        if self.idxs.is_empty() {
            return;
        }
        let first_page = self.idxs.start / self.page_slots;
        let last_page = (self.idxs.end - 1) / self.page_slots;
        for page_no in (first_page..=last_page).rev() {
            let Some(start_time) = self.start_time.page(page_no) else {
                continue; // nothing published on this page
            };
            // Allocated before the Start Time page, snapshotted after it.
            let (Some(base_rid), Some(schema_enc)) =
                (self.base_rid.page(page_no), self.schema_enc.page(page_no))
            else {
                continue;
            };
            let page_lo = page_no * self.page_slots;
            let lo = self.idxs.start.max(page_lo) - page_lo;
            let hi = self.idxs.end.min(page_lo + self.page_slots) - page_lo;
            for at in (lo..hi).rev() {
                let start_cell = start_time.get(at);
                if start_cell == NULL_VALUE {
                    continue;
                }
                visit(SuffixRecord {
                    start_cell,
                    base_rid: Rid(base_rid.get(at)),
                    start_time,
                    schema_enc,
                    data: &self.data,
                    page_no,
                    at,
                });
            }
        }
    }
}

/// One published record of a [`TailSuffix`].
pub struct SuffixRecord<'a> {
    /// Raw Start Time cell: a commit timestamp or a transaction id, never ∅.
    pub start_cell: u64,
    /// Base RID of the record this is a version of.
    pub base_rid: Rid,
    start_time: &'a TailPage,
    schema_enc: &'a TailPage,
    data: &'a [TailSpan],
    page_no: usize,
    at: usize,
}

impl SuffixRecord<'_> {
    /// Schema Encoding of the record.
    #[inline]
    pub fn encoding(&self) -> SchemaEncoding {
        SchemaEncoding(self.schema_enc.get(self.at))
    }

    /// Explicit value of the `i`-th snapshotted data column; ∅ when the
    /// column's covering page was not materialized.
    #[inline]
    pub fn value(&self, i: usize) -> u64 {
        self.data[i]
            .page(self.page_no)
            .map_or(NULL_VALUE, |page| page.get(self.at))
    }

    /// The Start Time cell as it is now (Acquire), for the resolver's
    /// second look at an id that retired meanwhile.
    #[inline]
    pub fn reread_start_cell(&self) -> u64 {
        self.start_time.get(self.at)
    }

    /// [`TailSegment::swap_start_cell`] on this record.
    #[inline]
    pub fn swap_start_cell(&self, txn_id: u64, commit_ts: u64) {
        let _ = self.start_time.cas(self.at, txn_id, commit_ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A segment over a manager of its own, and the manager.
    fn segment(columns: usize, page_slots: usize) -> (TailSegment, EpochManager) {
        let epoch = EpochManager::new();
        (TailSegment::new(0, columns, page_slots, &epoch), epoch)
    }

    #[test]
    fn lazy_column_materialization() {
        let (seg, epoch) = segment(4, 16);
        let g = epoch.pin();
        assert_eq!(seg.materialized_columns(), 0);
        let seq = seg.allocate_seq();
        assert_eq!(seq, 1);
        seg.write_record(
            seq,
            Rid::base(0, 5),
            SchemaEncoding::from_columns([1]),
            Rid::base(0, 5),
            &[(1, 42)],
            77,
            &g,
        );
        // Only column 1 materialized; others read ∅.
        assert_eq!(seg.materialized_columns(), 1);
        assert_eq!(seg.value(seq, 1, &g), 42);
        assert_eq!(seg.value(seq, 0, &g), NULL_VALUE);
        assert_eq!(seg.value(seq, 3, &g), NULL_VALUE);
        assert_eq!(seg.prev(seq, &g), Rid::base(0, 5));
        assert_eq!(seg.start_cell(seq, &g), 77);
        assert!(seg.is_written(seq, &g));
        assert!(!seg.is_written(seg.allocate_seq(), &g));
    }

    #[test]
    fn seq_allocation_is_dense_and_concurrent() {
        use std::sync::Arc;
        let seg = Arc::new(segment(1, 64).0);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let seg = Arc::clone(&seg);
                std::thread::spawn(move || {
                    (0..1000).map(|_| seg.allocate_seq()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seqs: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=4000).collect::<Vec<u32>>());
        assert_eq!(seg.high_seq(), 4000);
    }

    #[test]
    fn lazy_start_time_swap() {
        let (seg, epoch) = segment(1, 16);
        let g = epoch.pin();
        let seq = seg.allocate_seq();
        let txn_id = (1 << 63) | 5u64;
        seg.write_record(
            seq,
            Rid::NULL,
            SchemaEncoding::empty(),
            Rid::NULL,
            &[],
            txn_id,
            &g,
        );
        seg.swap_start_cell(seq, txn_id, 1234, &g);
        assert_eq!(seg.start_cell(seq, &g), 1234);
        // Idempotent / no-op when the cell already holds the timestamp.
        seg.swap_start_cell(seq, txn_id, 9999, &g);
        assert_eq!(seg.start_cell(seq, &g), 1234);
    }

    #[test]
    fn release_below_frees_full_pages() {
        let (seg, epoch) = segment(1, 4);
        let g = epoch.pin();
        for _ in 0..12 {
            let s = seg.allocate_seq();
            seg.write_record(
                s,
                Rid::NULL,
                SchemaEncoding::from_columns([0]),
                Rid::NULL,
                &[(0, s as u64)],
                s as u64,
                &g,
            );
        }
        let released = seg.release_below(9); // records 1..8 span two full pages
        assert!(released >= 2);
        assert_eq!(seg.value(9, 0, &g), 9);
    }

    #[test]
    fn suffix_view_reads_null_for_unmaterialized_columns() {
        let (seg, epoch) = segment(4, 4);
        let g = epoch.pin();
        let txn_id = (1 << 63) | 9u64;
        // Ten records over three pages; only column 1 is ever written, and
        // record 7 is allocated but not published.
        for slot in 0..10u32 {
            let seq = seg.allocate_seq();
            if seq == 7 {
                continue;
            }
            seg.write_record(
                seq,
                Rid::base(0, slot),
                SchemaEncoding::from_columns([1]),
                Rid::base(0, slot),
                &[(1, 100 + seq as u64)],
                if seq == 9 { txn_id } else { seq as u64 },
                &g,
            );
        }
        let mut suffix = TailSuffix::default();
        // Records 3..=10, columns requested as [2, 1, 0].
        seg.snapshot_suffix(2, seg.high_seq(), &[2, 1, 0], &mut suffix, &g);
        assert_eq!(suffix.len(), 8);
        let mut seen = Vec::new();
        suffix.for_each_newest_first(|rec| {
            assert!(rec.encoding().has(1));
            assert_eq!(rec.value(0), NULL_VALUE, "column 2 has no pages");
            assert_eq!(rec.value(2), NULL_VALUE, "column 0 has no pages");
            seen.push((rec.base_rid.slot(), rec.start_cell, rec.value(1)));
            if rec.start_cell == txn_id {
                rec.swap_start_cell(txn_id, 1234);
            }
        });
        let expected: Vec<(u32, u64, u64)> = [10u64, 9, 8, 6, 5, 4, 3]
            .iter()
            .map(|&seq| {
                let start = if seq == 9 { txn_id } else { seq };
                (seq as u32 - 1, start, 100 + seq)
            })
            .collect();
        assert_eq!(
            seen, expected,
            "newest first, the unpublished record skipped"
        );
        assert_eq!(seg.start_cell(9, &g), 1234, "the swap reaches the segment");

        // Reuse: an empty suffix visits nothing.
        seg.snapshot_suffix(10, 10, &[1], &mut suffix, &g);
        assert!(suffix.is_empty());
        suffix.for_each_newest_first(|_| panic!("nothing to visit"));
    }
}
