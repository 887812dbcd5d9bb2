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

use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use crate::epoch::{EpochGuard, EpochManager, Retirer};
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
/// or released cells return ∅, exactly matching the implicit-null semantics.
///
/// The page directory is append-only and takes no lock: chunk `k` holds
/// `2^k` page pointers, so page `p` sits in chunk `⌊log₂(p+1)⌋` and no
/// chunk ever moves. A chunk and a page are each installed by a CAS on a
/// null pointer; a cell access is two acquire loads (chunk, page) before
/// the cell's own. Released pages are swapped out to null and retired into
/// the column's [`EpochManager`], so every access that dereferences a page
/// takes an [`EpochGuard`] of that manager. (Page `usize::MAX` — index
/// `usize::MAX` of one-cell pages — has no entry: it reads ∅ and drops
/// writes.)
///
/// Laid out so that a cell access reads one line of the column: the page
/// size, the manager and the first six chunks (pages 0–62) share the
/// first cache line.
#[repr(C, align(64))]
pub struct AppendVec {
    page_slots: usize,
    epoch: Retirer,
    /// Chunk `k`: null, or `2^k` page pointers from `Box<[AtomicPtr]>`.
    /// A non-null page pointer is from `Box::into_raw`; the entry owns it.
    chunks: [AtomicPtr<AtomicPtr<TailPage>>; CHUNKS],
    /// One past the highest page ever installed.
    pages: AtomicUsize,
    _owns: PhantomData<Box<TailPage>>,
}

/// Chunks of a directory: enough for every page number below `usize::MAX`.
const CHUNKS: usize = usize::BITS as usize;

/// Chunk number and offset of page `page_no` in the directory.
#[inline]
fn locate(page_no: usize) -> Option<(usize, usize)> {
    let n = page_no.checked_add(1)?;
    let chunk = n.ilog2() as usize;
    Some((chunk, n - (1 << chunk)))
}

impl AppendVec {
    /// Create an empty column whose pages hold `page_slots` cells each;
    /// released pages retire into `epoch`.
    pub fn new(page_slots: usize, epoch: &EpochManager) -> Self {
        assert!(page_slots > 0, "page must hold at least one slot");
        AppendVec {
            page_slots,
            epoch: Retirer::new(epoch),
            chunks: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            pages: AtomicUsize::new(0),
            _owns: PhantomData,
        }
    }

    /// Cells per page.
    pub fn page_slots(&self) -> usize {
        self.page_slots
    }

    /// Number of pages allocated so far (released ones included).
    pub fn page_count(&self) -> usize {
        self.pages.load(Ordering::Acquire)
    }

    /// The directory entry of page `page_no`, or `None` while its chunk is
    /// not allocated.
    #[inline]
    fn entry(&self, page_no: usize) -> Option<&AtomicPtr<TailPage>> {
        let (chunk, at) = locate(page_no)?;
        let entries = self.chunks[chunk].load(Ordering::Acquire);
        // SAFETY: a non-null chunk pointer is a live allocation of `2^chunk`
        // entries (`at < 2^chunk`), installed once and freed only by `drop`.
        (!entries.is_null()).then(|| unsafe { &*entries.add(at) })
    }

    /// The directory entry of page `page_no`, allocating its chunk.
    fn entry_or_grow(&self, page_no: usize) -> Option<&AtomicPtr<TailPage>> {
        if let Some(entry) = self.entry(page_no) {
            return Some(entry);
        }
        let (chunk, _) = locate(page_no)?;
        let fresh: Box<[AtomicPtr<TailPage>]> = (0..1usize << chunk)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect();
        let fresh = Box::into_raw(fresh) as *mut AtomicPtr<TailPage>;
        if self.chunks[chunk]
            .compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // SAFETY: `fresh` lost the race, was never shared, and is
            // the `2^chunk`-entry box made above.
            drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(fresh, 1 << chunk)) });
        }
        // The chunk is installed now, by us or by the winner.
        self.entry(page_no)
    }

    /// Page `page_no` as `guard` finds it: `None` when it was never
    /// allocated or has been released. The page is borrowed for as long as
    /// `guard` pins, so a reader of many consecutive cells looks each page
    /// up once; a page released meanwhile stays readable through the
    /// borrow (its cells no longer change).
    ///
    /// # Panics
    ///
    /// When `guard` pins another manager than the column's: such a pin
    /// would not keep a released page alive.
    #[inline]
    pub fn page<'g>(&'g self, page_no: usize, guard: &'g EpochGuard<'_>) -> Option<&'g TailPage> {
        assert!(
            guard.pins(&self.epoch),
            "tail page read under another manager's pin"
        );
        let page = self.entry(page_no)?.load(Ordering::Acquire);
        // SAFETY: a non-null entry owns the page's box. A page swapped out
        // by `release_pages_below` moves that box into the column's limbo, which keeps it until every pin older than the
        // release is gone; `guard` pins that manager for 'g. A page still
        // in the directory is dropped only by `drop`, which 'g excludes.
        unsafe { page.as_ref() }
    }

    /// Install a fresh page `page_no` unless another writer beat us to it;
    /// the caller found the entry null under `guard` through [`Self::page`].
    fn install<'g>(&'g self, page_no: usize, guard: &'g EpochGuard<'_>) -> Option<&'g TailPage> {
        let entry = self.entry_or_grow(page_no)?;
        let fresh = Box::into_raw(Box::new(TailPage::new(self.page_slots)));
        match entry.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                self.pages.fetch_max(page_no + 1, Ordering::AcqRel);
            }
            // SAFETY: `fresh` came from `Box::into_raw` just above and was
            // never published.
            Err(_) => drop(unsafe { Box::from_raw(fresh) }),
        }
        self.page(page_no, guard)
    }

    /// Read the cell at logical index `idx`; ∅ when the covering page was
    /// never allocated or has been released.
    #[inline]
    pub fn get(&self, idx: usize, guard: &EpochGuard<'_>) -> u64 {
        match self.page(idx / self.page_slots, guard) {
            Some(page) => page.get(idx % self.page_slots),
            None => NULL_VALUE,
        }
    }

    /// Write the cell at logical index `idx`, allocating pages on demand.
    pub fn set(&self, idx: usize, value: u64, guard: &EpochGuard<'_>) {
        let page_no = idx / self.page_slots;
        let page = self
            .page(page_no, guard)
            .or_else(|| self.install(page_no, guard));
        if let Some(page) = page {
            page.set(idx % self.page_slots, value);
        }
    }

    /// Compare-and-swap the cell at `idx`; false when the page is missing or
    /// the current value differs.
    pub fn cas(&self, idx: usize, current: u64, new: u64, guard: &EpochGuard<'_>) -> bool {
        self.page(idx / self.page_slots, guard)
            .is_some_and(|page| page.cas(idx % self.page_slots, current, new))
    }

    /// Release whole pages strictly below logical index `below_idx`: their
    /// cells read ∅ from now on, and the pages retire into the column's
    /// epoch manager, freed once no reader pinned before the release
    /// remains. Used after historic compression retires merged tail pages
    /// (§4.3). Returns the number of pages released.
    ///
    /// Only *complete* pages below the watermark are released; a page
    /// straddling the watermark is kept.
    pub fn release_pages_below(&self, below_idx: usize) -> usize {
        let full_pages = (below_idx / self.page_slots).min(self.page_count());
        let released: Vec<Box<TailPage>> = (0..full_pages)
            .filter_map(|page_no| {
                let page = self.entry(page_no)?.swap(ptr::null_mut(), Ordering::AcqRel);
                // SAFETY: the swap moved the entry's box to us.
                (!page.is_null()).then(|| unsafe { Box::from_raw(page) })
            })
            .collect();
        let n = released.len();
        if n > 0 {
            self.epoch.retire(released);
        }
        n
    }
}

impl Drop for AppendVec {
    fn drop(&mut self) {
        for (chunk, entries) in self.chunks.iter_mut().enumerate() {
            let entries = *entries.get_mut();
            if entries.is_null() {
                continue;
            }
            // SAFETY: `&mut self` proves no reader borrows the column; the
            // chunk is the `2^chunk`-entry box `entry_or_grow` installed,
            // and each non-null entry owns its page's box.
            let entries =
                unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(entries, 1 << chunk)) };
            for entry in entries.iter() {
                let page = entry.load(Ordering::Relaxed);
                if !page.is_null() {
                    // SAFETY: the entry's box, given up with the entry.
                    drop(unsafe { Box::from_raw(page) });
                }
            }
        }
    }
}

impl fmt::Debug for AppendVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppendVec")
            .field("page_slots", &self.page_slots)
            .field("pages", &self.page_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::thread;

    /// A column over a manager of its own, and the manager.
    fn column(page_slots: usize) -> (AppendVec, EpochManager) {
        let epoch = EpochManager::new();
        (AppendVec::new(page_slots, &epoch), epoch)
    }

    #[test]
    fn locate_fills_chunk_k_with_2_to_the_k_pages() {
        let spots: Vec<_> = (0..8).map(|p| locate(p).unwrap()).collect();
        assert_eq!(
            spots,
            [
                (0, 0),
                (1, 0),
                (1, 1),
                (2, 0),
                (2, 1),
                (2, 2),
                (2, 3),
                (3, 0)
            ]
        );
        let last = (CHUNKS - 1, (1 << (CHUNKS - 1)) - 1);
        assert_eq!(locate(usize::MAX - 1), Some(last));
        assert_eq!(locate(usize::MAX), None, "no chunk holds the last page");
        let (v, epoch) = column(1);
        let g = epoch.pin();
        v.set(usize::MAX, 5, &g);
        assert_eq!(v.get(usize::MAX, &g), NULL_VALUE);
        assert_eq!(v.page_count(), 0);
    }

    #[test]
    fn unallocated_cells_read_null() {
        let (v, epoch) = column(8);
        let g = epoch.pin();
        assert_eq!(v.get(0, &g), NULL_VALUE);
        assert_eq!(v.get(1000, &g), NULL_VALUE);
        assert_eq!(v.page_count(), 0);
    }

    #[test]
    fn set_allocates_lazily() {
        let (v, epoch) = column(8);
        let g = epoch.pin();
        v.set(17, 42, &g);
        assert_eq!(v.page_count(), 3);
        assert_eq!(v.get(17, &g), 42);
        assert_eq!(v.get(16, &g), NULL_VALUE);
        assert_eq!(v.get(3, &g), NULL_VALUE, "pages below were never allocated");
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let (v, epoch) = column(64);
        thread::scope(|s| {
            for t in 0..8u64 {
                let (v, epoch) = (&v, &epoch);
                s.spawn(move || {
                    let g = epoch.pin();
                    for i in 0..1000u64 {
                        v.set((t * 1000 + i) as usize, t * 1_000_000 + i, &g);
                    }
                });
            }
        });
        let g = epoch.pin();
        for t in 0..8u64 {
            for i in 0..1000u64 {
                assert_eq!(v.get((t * 1000 + i) as usize, &g), t * 1_000_000 + i);
            }
        }
    }

    #[test]
    fn racing_writers_of_one_fresh_page_keep_every_cell() {
        // Every writer misses the page at once and installs its own; one
        // CAS wins and the others write into the winner's page.
        for _ in 0..50 {
            let (v, epoch) = column(4096);
            thread::scope(|s| {
                for t in 0..4usize {
                    let (v, epoch) = (&v, &epoch);
                    s.spawn(move || {
                        let g = epoch.pin();
                        for i in (t..4096).step_by(4) {
                            v.set(i, i as u64, &g);
                        }
                    });
                }
            });
            let g = epoch.pin();
            assert!((0..4096).all(|i| v.get(i, &g) == i as u64));
            assert_eq!(v.page_count(), 1);
        }
    }

    #[test]
    fn release_pages_below_watermark() {
        let (v, epoch) = column(4);
        let g = epoch.pin();
        for i in 0..20 {
            v.set(i, i as u64, &g);
        }
        let released = v.release_pages_below(10);
        assert_eq!(released, 2); // pages covering 0..4 and 4..8
        assert_eq!(v.release_pages_below(10), 0, "already released");
        assert_eq!(v.get(9, &g), 9); // straddling page kept
        assert_eq!(v.get(19, &g), 19);
        assert_eq!(epoch.pending(), 1, "one retire per release call");
    }

    #[test]
    fn a_released_cell_reads_null_through_get() {
        let (v, epoch) = column(4);
        let g = epoch.pin();
        for i in 0..8 {
            v.set(i, 100 + i as u64, &g);
        }
        assert_eq!(v.release_pages_below(4), 1);
        for i in 0..4 {
            assert_eq!(v.get(i, &g), NULL_VALUE, "released cell {i}");
            assert!(
                !v.cas(i, 100 + i as u64, 0, &g),
                "a released cell cannot CAS"
            );
        }
        assert_eq!(
            (v.get(4, &g), v.get(7, &g)),
            (104, 107),
            "the page above stays"
        );
    }

    #[test]
    fn cas_swaps_once() {
        let (v, epoch) = column(4);
        let g = epoch.pin();
        v.set(2, 7, &g);
        assert!(v.cas(2, 7, 8, &g));
        assert!(!v.cas(2, 7, 9, &g));
        assert_eq!(v.get(2, &g), 8);
        assert!(!v.cas(100, NULL_VALUE, 1, &g), "missing page cannot CAS");
    }

    #[test]
    #[should_panic(expected = "another manager")]
    fn a_column_refuses_another_managers_pin() {
        let (v, _epoch) = column(4);
        let other = EpochManager::new();
        v.get(0, &other.pin());
    }

    #[test]
    fn page_is_none_for_unallocated_and_released_pages() {
        let (v, epoch) = column(4);
        let g = epoch.pin();
        assert!((0..3).all(|p| v.page(p, &g).is_none()), "nothing allocated");
        for i in 0..10 {
            v.set(i, 100 + i as u64, &g); // pages 0, 1, 2 (page 2 half full)
        }
        assert_eq!(v.release_pages_below(4), 1);
        assert!(v.page(0, &g).is_none(), "released");
        assert!(v.page(3, &g).is_none(), "never allocated");
        assert!(v.page(usize::MAX, &g).is_none(), "has no entry");
        let page = v.page(2, &g).unwrap();
        assert_eq!((page.get(1), page.get(2)), (109, NULL_VALUE));
        // The borrow shares the live cells.
        v.set(10, 110, &g);
        assert_eq!(page.get(2), 110);
        assert!(v.cas(10, 110, 111, &g));
        assert_eq!(page.get(2), 111);
    }

    #[test]
    fn a_released_page_stays_readable_on_a_pinned_thread_until_it_unpins() {
        let (v, epoch) = column(4);
        {
            let g = epoch.pin();
            for i in 0..8 {
                v.set(i, 10 + i as u64, &g);
            }
        }
        let read_after_release = AtomicBool::new(false);
        thread::scope(|s| {
            let (pinned, wait_pinned) = mpsc::channel();
            let (released, wait_released) = mpsc::channel::<()>();
            let (v, epoch, read_after_release) = (&v, &epoch, &read_after_release);
            s.spawn(move || {
                let g = epoch.pin();
                let page = v.page(0, &g).unwrap();
                pinned.send(()).unwrap();
                wait_released.recv().unwrap();
                assert_eq!(v.get(0, &g), NULL_VALUE, "the directory forgot it");
                assert_eq!(page.get(3), 13, "the borrowed page did not");
                read_after_release.store(true, Ordering::SeqCst);
            });
            wait_pinned.recv().unwrap();
            assert_eq!(v.release_pages_below(4), 1);
            assert_eq!(epoch.try_reclaim(), 0, "the pinned reader holds the page");
            released.send(()).unwrap();
        });
        assert!(read_after_release.load(Ordering::SeqCst));
        assert_eq!(epoch.try_reclaim(), 1, "freed once the reader unpinned");
        assert_eq!(epoch.pending(), 0);
    }

    #[test]
    fn a_borrowed_page_stays_readable_under_growth_and_release() {
        const PAGE: usize = 8;
        const FILLED: usize = 64 * PAGE;
        let (v, epoch) = column(PAGE);
        {
            let g = epoch.pin();
            for i in 0..FILLED {
                v.set(i, i as u64, &g);
            }
        }
        let reader = epoch.pin();
        let pages: Vec<&TailPage> = (0..FILLED / PAGE)
            .map(|p| v.page(p, &reader).unwrap())
            .collect();
        let released = thread::scope(|s| {
            s.spawn(|| {
                let g = epoch.pin();
                for i in FILLED..FILLED + 4096 * PAGE {
                    v.set(i, i as u64, &g); // a new directory entry every 8 sets
                }
            });
            let releaser = s.spawn(|| {
                (PAGE..=FILLED)
                    .step_by(PAGE)
                    .map(|i| {
                        let n = v.release_pages_below(i);
                        epoch.try_reclaim();
                        n
                    })
                    .sum::<usize>()
            });
            // Neither the directory growing nor its entries being released
            // (and reclaimed, were it not for the pin) changes what the
            // borrowed pages read.
            for round in 0..200 {
                for i in (round % 7..FILLED).step_by(7) {
                    assert_eq!(pages[i / PAGE].get(i % PAGE), i as u64);
                }
            }
            releaser.join().unwrap()
        });
        assert_eq!(released, FILLED / PAGE);
        assert_eq!(v.get(3, &reader), NULL_VALUE, "released in the directory");
        assert_eq!(pages[0].get(3), 3, "alive through the borrow");
        drop(reader);
        epoch.try_reclaim();
        assert_eq!(epoch.pending(), 0, "freed once the reader unpinned");
        assert_eq!(v.get(FILLED + 5, &epoch.pin()), (FILLED + 5) as u64);
    }
}
