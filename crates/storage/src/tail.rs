//! Append-only tail pages.
//!
//! Tail pages "are strictly append-only and follow a write-once policy:
//! once a value is written to tail pages, it will not be over-written even if
//! the writing transaction aborts" (§2.1). Cells are `AtomicU64` because two
//! narrow exceptions to write-once exist by design:
//!
//! * the Start Time cell of a tail record holds a transaction id until a
//!   reader lazily swaps in the commit timestamp (§5.1.1 commit), and
//! * recovery may re-play identical values into the same cells (idempotent
//!   redo, §5.1.3).
//!
//! Pages are pre-sized at allocation; slot positions are handed out by the
//! table layer's per-range sequence counter, so no per-page latch is needed
//! for appends.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::NULL_VALUE;

/// A fixed-capacity page of atomic cells, pre-filled with [`NULL_VALUE`]
/// (the paper's "pre-assigned special null value", §2.1).
#[derive(Debug)]
pub struct TailPage {
    slots: Box<[AtomicU64]>,
}

impl TailPage {
    /// Allocate a page with `slots` cells, all set to ∅.
    pub fn new(slots: usize) -> Self {
        let v: Vec<AtomicU64> = (0..slots).map(|_| AtomicU64::new(NULL_VALUE)).collect();
        TailPage {
            slots: v.into_boxed_slice(),
        }
    }

    /// Capacity in cells.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the page has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Read cell `slot` (Acquire: pairs with the Release in [`Self::set`]).
    #[inline]
    pub fn get(&self, slot: usize) -> u64 {
        self.slots[slot].load(Ordering::Acquire)
    }

    /// Write cell `slot` (write-once by protocol; Release ordering).
    #[inline]
    pub fn set(&self, slot: usize, value: u64) {
        self.slots[slot].store(value, Ordering::Release);
    }

    /// Compare-and-swap a cell; used only for the lazy commit-timestamp swap.
    #[inline]
    pub fn cas(&self, slot: usize, current: u64, new: u64) -> bool {
        self.slots[slot]
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// A lazily grown, logically infinite column of atomic cells backed by
/// [`TailPage`]s.
///
/// This realizes the paper's *lazy tail-page allocation* (§3.1): "upon the
/// first update to that range, a set of tail pages are created … and are
/// added to the page directory". Writes to an index beyond the allocated
/// pages transparently allocate the covering page; reads of never-allocated
/// cells return ∅, exactly matching the implicit-null semantics.
#[derive(Debug)]
pub struct AppendVec {
    pages: RwLock<Vec<Arc<TailPage>>>,
    page_slots: usize,
}

impl AppendVec {
    /// Create an empty column whose pages hold `page_slots` cells each.
    pub fn new(page_slots: usize) -> Self {
        assert!(page_slots > 0, "page must hold at least one slot");
        AppendVec {
            pages: RwLock::new(Vec::new()),
            page_slots,
        }
    }

    /// Cells per page.
    pub fn page_slots(&self) -> usize {
        self.page_slots
    }

    /// Number of pages currently allocated.
    pub fn page_count(&self) -> usize {
        self.pages.read().len()
    }

    /// Read the cell at logical index `idx`; ∅ when the covering page was
    /// never allocated.
    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        let page_no = idx / self.page_slots;
        let pages = self.pages.read();
        match pages.get(page_no) {
            Some(p) => p.get(idx % self.page_slots),
            None => NULL_VALUE,
        }
    }

    /// Write the cell at logical index `idx`, allocating pages on demand.
    pub fn set(&self, idx: usize, value: u64) {
        if let Some(page) = self.pages.read().get(idx / self.page_slots) {
            // The common case writes through the directory's read guard:
            // no page handle is cloned and dropped per cell.
            return page.set(idx % self.page_slots, value);
        }
        self.page_for(idx).set(idx % self.page_slots, value);
    }

    /// Compare-and-swap the cell at `idx`; false when the page is missing or
    /// the current value differs.
    pub fn cas(&self, idx: usize, current: u64, new: u64) -> bool {
        let page_no = idx / self.page_slots;
        let pages = self.pages.read();
        match pages.get(page_no) {
            Some(p) => p.cas(idx % self.page_slots, current, new),
            None => false,
        }
    }

    /// Fetch (allocating if needed) the page covering `idx`.
    pub fn page_for(&self, idx: usize) -> Arc<TailPage> {
        let page_no = idx / self.page_slots;
        {
            let pages = self.pages.read();
            if let Some(p) = pages.get(page_no) {
                return Arc::clone(p);
            }
        }
        let mut pages = self.pages.write();
        while pages.len() <= page_no {
            pages.push(Arc::new(TailPage::new(self.page_slots)));
        }
        Arc::clone(&pages[page_no])
    }

    /// Drop whole pages strictly below logical index `below_idx`, replacing
    /// them with ∅-reads. Used after historic compression retires merged tail
    /// pages (§4.3). Returns the number of pages released.
    ///
    /// Only *complete* pages below the watermark are released; a page
    /// straddling the watermark is kept.
    pub fn release_pages_below(&self, below_idx: usize) -> usize {
        let full_pages = below_idx / self.page_slots;
        let mut pages = self.pages.write();
        let mut released = 0;
        for slot in pages.iter_mut().take(full_pages) {
            // Replace with a zero-capacity tombstone page so indices shift
            // nowhere; reads of released cells fall back to ∅ via get().
            if !slot.is_empty() {
                *slot = Arc::new(TailPage::new(0));
                released += 1;
            }
        }
        released
    }

    /// Snapshot the pages covering logical indices `idxs` into `span`
    /// (replacing what it held, reusing its allocation): the directory lock
    /// is taken once, the covering page handles are cloned, and the lock is
    /// released before this returns — whoever reads the span afterwards
    /// holds no lock and stalls no page-growing writer. The cells stay
    /// live: a value `set` after the snapshot into a page the span holds is
    /// readable through it; a page allocated after the snapshot is not, and
    /// reads ∅ like every unallocated or released page.
    pub fn snapshot_pages(&self, idxs: Range<usize>, span: &mut TailSpan) {
        span.pages.clear();
        span.page_slots = self.page_slots;
        span.first_page = idxs.start / self.page_slots;
        if idxs.is_empty() {
            return;
        }
        let last_page = (idxs.end - 1) / self.page_slots;
        let pages = self.pages.read();
        let upto = pages.len().min(last_page + 1);
        if span.first_page < upto {
            span.pages.extend_from_slice(&pages[span.first_page..upto]);
        }
    }

    /// Snapshot the values in `[0, len)` as a plain vector (∅ for holes).
    pub fn snapshot(&self, len: usize) -> Vec<u64> {
        (0..len).map(|i| self.get_or_null(i)).collect()
    }

    /// Like [`Self::get`] but also returns ∅ for released (zero-capacity)
    /// pages instead of panicking.
    #[inline]
    pub fn get_or_null(&self, idx: usize) -> u64 {
        let page_no = idx / self.page_slots;
        let pages = self.pages.read();
        match pages.get(page_no) {
            Some(p) if !p.is_empty() => p.get(idx % self.page_slots),
            _ => NULL_VALUE,
        }
    }
}

/// The pages of one [`AppendVec`] covering a run of logical indices, as
/// [`AppendVec::snapshot_pages`] found them: the batch-read primitive of
/// scans, which walk thousands of consecutive tail cells per window and
/// cannot afford one directory lock per cell.
#[derive(Debug, Default)]
pub struct TailSpan {
    /// Directory number of `pages[0]`.
    first_page: usize,
    pages: Vec<Arc<TailPage>>,
    /// Cells per page of the snapshotted column.
    page_slots: usize,
}

impl TailSpan {
    /// The snapshot's page number `page_no` of the column; `None` when the
    /// page lies outside the span, was not allocated when the snapshot was
    /// taken, or had been released — every cell of such a page reads ∅.
    #[inline]
    pub fn page(&self, page_no: usize) -> Option<&TailPage> {
        let page = self.pages.get(page_no.checked_sub(self.first_page)?)?;
        (!page.is_empty()).then_some(page)
    }

    /// The cell at logical index `idx` of the snapshotted column, ∅ where
    /// [`TailSpan::page`] has no page — [`AppendVec::get_or_null`] without
    /// the directory lock.
    #[inline]
    pub fn get_or_null(&self, idx: usize) -> u64 {
        match self.page(idx / self.page_slots.max(1)) {
            Some(page) => page.get(idx % self.page_slots),
            None => NULL_VALUE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unallocated_cells_read_null() {
        let v = AppendVec::new(8);
        assert_eq!(v.get(0), NULL_VALUE);
        assert_eq!(v.get(1000), NULL_VALUE);
        assert_eq!(v.page_count(), 0);
    }

    #[test]
    fn set_allocates_lazily() {
        let v = AppendVec::new(8);
        v.set(17, 42);
        assert_eq!(v.page_count(), 3);
        assert_eq!(v.get(17), 42);
        assert_eq!(v.get(16), NULL_VALUE);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let v = Arc::new(AppendVec::new(64));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let v = Arc::clone(&v);
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        v.set((t * 1000 + i) as usize, t * 1_000_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for t in 0..8u64 {
            for i in 0..1000u64 {
                assert_eq!(v.get((t * 1000 + i) as usize), t * 1_000_000 + i);
            }
        }
    }

    #[test]
    fn release_pages_below_watermark() {
        let v = AppendVec::new(4);
        for i in 0..20 {
            v.set(i, i as u64);
        }
        let released = v.release_pages_below(10);
        assert_eq!(released, 2); // pages covering 0..4 and 4..8
        assert_eq!(v.get_or_null(3), NULL_VALUE);
        assert_eq!(v.get_or_null(9), 9); // straddling page kept
        assert_eq!(v.get_or_null(19), 19);
    }

    #[test]
    fn cas_swaps_once() {
        let v = AppendVec::new(4);
        v.set(2, 7);
        assert!(v.cas(2, 7, 8));
        assert!(!v.cas(2, 7, 9));
        assert_eq!(v.get(2), 8);
        assert!(!v.cas(100, NULL_VALUE, 1), "missing page cannot CAS");
    }

    /// Read cell `idx` of the column through `span`, the way scans do.
    fn span_get(v: &AppendVec, span: &TailSpan, idx: usize) -> u64 {
        span.page(idx / v.page_slots())
            .map_or(NULL_VALUE, |page| page.get(idx % v.page_slots()))
    }

    #[test]
    fn page_snapshot_reads_null_for_unallocated_and_released_pages() {
        let v = AppendVec::new(4);
        let mut span = TailSpan::default();
        // Nothing allocated: every covered page is missing.
        v.snapshot_pages(0..12, &mut span);
        assert!((0..3).all(|p| span.page(p).is_none()));
        for i in 0..10 {
            v.set(i, 100 + i as u64); // pages 0, 1, 2 (page 2 half full)
        }
        assert_eq!(v.release_pages_below(4), 1);
        // Mid-page bounds: the span covers whole pages 0..=3.
        v.snapshot_pages(2..14, &mut span);
        assert!(span.page(0).is_none(), "released");
        assert!(span.page(3).is_none(), "never allocated");
        assert!(span.page(4).is_none(), "outside the span");
        for i in 0..16 {
            let expected = if (4..10).contains(&i) {
                100 + i as u64
            } else {
                NULL_VALUE
            };
            assert_eq!(span_get(&v, &span, i), expected, "cell {i}");
        }
        // A span that starts past page 0 never reaches below itself.
        v.snapshot_pages(8..10, &mut span);
        assert!(span.page(1).is_none());
        assert_eq!(span_get(&v, &span, 9), 109);
        // An empty run holds nothing.
        v.snapshot_pages(5..5, &mut span);
        assert!(span.page(1).is_none());
    }

    #[test]
    fn page_snapshot_shares_live_cells_but_not_later_pages() {
        let v = AppendVec::new(4);
        v.set(1, 11);
        let mut span = TailSpan::default();
        v.snapshot_pages(0..8, &mut span);
        assert_eq!(span_get(&v, &span, 1), 11, "set before the snapshot");
        // Same page, written after the snapshot: the cells are shared.
        v.set(2, 22);
        assert_eq!(span_get(&v, &span, 2), 22);
        assert!(v.cas(2, 22, 23));
        assert_eq!(span_get(&v, &span, 2), 23);
        // A page allocated after the snapshot is not in it.
        v.set(5, 55);
        assert_eq!(span_get(&v, &span, 5), NULL_VALUE);
        v.snapshot_pages(0..8, &mut span);
        assert_eq!(span_get(&v, &span, 5), 55);
    }

    #[test]
    fn page_snapshot_stays_readable_under_growth_and_release() {
        const PAGE: usize = 8;
        const FILLED: usize = 64 * PAGE;
        let v = Arc::new(AppendVec::new(PAGE));
        for i in 0..FILLED {
            v.set(i, i as u64);
        }
        let mut span = TailSpan::default();
        v.snapshot_pages(0..FILLED, &mut span);
        let grower = {
            let v = Arc::clone(&v);
            thread::spawn(move || {
                for i in FILLED..FILLED + 4096 * PAGE {
                    v.set(i, i as u64); // a new directory entry every 8 sets
                }
            })
        };
        let releaser = {
            let v = Arc::clone(&v);
            thread::spawn(move || {
                (PAGE..=FILLED)
                    .step_by(PAGE)
                    .map(|i| v.release_pages_below(i))
                    .sum::<usize>()
            })
        };
        // The span holds the pages themselves: neither the directory
        // growing nor its entries being replaced changes what it reads,
        // and reading takes no lock either of them could wait behind.
        for round in 0..200 {
            for i in (round % 7..FILLED).step_by(7) {
                assert_eq!(span_get(&v, &span, i), i as u64);
            }
        }
        grower.join().unwrap();
        assert_eq!(releaser.join().unwrap(), FILLED / PAGE);
        assert_eq!(v.get_or_null(3), NULL_VALUE, "released in the directory");
        assert_eq!(span_get(&v, &span, 3), 3, "alive in the span");
        v.snapshot_pages(0..FILLED, &mut span);
        assert!((0..FILLED / PAGE).all(|p| span.page(p).is_none()));
    }
}
