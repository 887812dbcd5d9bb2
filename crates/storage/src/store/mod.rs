//! Buffer-pool-managed page store: sealed base pages live in a page file
//! and fault in and out of memory under a capacity budget.
//!
//! The paper assumes base pages live in a storage hierarchy, not
//! permanently in RAM; this module is that hierarchy's bottom layer. A
//! [`PageStore`] owns one append-only page file (codec-native page images,
//! [`crate::disk`], framed as `LSPR` records, see `store/file.rs`) plus a
//! buffer pool of frames with clock/second-chance eviction over the
//! resident ones. The rest of the engine holds pages through [`PagePtr`]:
//!
//! * [`PagePtr::Resident`] — a plain `Arc<BasePage>`, heap-resident
//!   forever. The only variant when no store is configured; the default
//!   configuration is byte-for-byte the pre-store engine.
//! * [`PagePtr::Stored`] — a frame in a store. Reading pins the frame,
//!   transparently faulting the image back in if it was evicted; the
//!   image holds the codec's own arrays, so the faulted page *is* the
//!   evicted one — same codec, same words — and compressed-columnar
//!   kernels dispatch on it with no decode or re-encode in between.
//!
//! The page lifecycle is **sealed → stored → faulted ⇄ evicted**: the
//! merge seals immutable pages into the store (a resident *dirty* frame —
//! no I/O on the merge path), eviction writes dirty images back through
//! [`encode_image`] and drops the slot, and the next read faults the image
//! back in. Because pages are immutable, an evicted-and-faulted page is
//! byte-identical to the sealed original — the equivalence battery in
//! `tests/buffer_pool_equivalence.rs` pins exactly that.

mod file;
mod pool;

pub use pool::{PinnedPage, PoolStatsSnapshot};

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::disk::{check_header, decode_image, encode_image, MAX_PAGE_CELLS};
use crate::error::{StorageError, StorageResult};
use crate::page::BasePage;

use file::StoreFile;
use pool::{BufferPool, Frame};

/// Page ids with this bit set are reserved for checkpoint manifests;
/// [`PageStore::allocate_id`] never produces them.
pub const MANIFEST_ID_BASE: u64 = 1 << 63;

/// A page file fronted by a budgeted buffer pool.
///
/// Thread-safe throughout: reads and faults run concurrently with appends;
/// the only serialized sections are the file's end offset, the id→offset
/// index map, and the clock hand.
pub struct PageStore {
    file: StoreFile,
    /// Latest record per page id: `id → (payload offset, payload len)`.
    index: RwLock<HashMap<u64, (u64, u32)>>,
    next_id: AtomicU64,
    pool: BufferPool,
    /// First background-writeback failure (e.g. `ENOSPC` during eviction),
    /// sticky until [`PageStore::take_error`] or [`PageStore::flush`]
    /// surfaces it. Eviction paths cannot return errors to readers —
    /// the victim simply stays resident and dirty.
    last_error: Mutex<Option<StorageError>>,
}

impl PageStore {
    /// Open (creating if absent) a page store at `path` with a pool budget
    /// of `budget` frames (`None` = unbounded). Existing records are
    /// indexed; a torn tail from a crash is ignored and overwritten by the
    /// next append. A file whose first record is not an image this build
    /// reads — one written in the old `LSPG` format, say — is refused here
    /// with [`StorageError::Corrupt`] rather than at the first fault, which
    /// has no way to fail.
    pub fn open(path: &Path, budget: Option<usize>) -> StorageResult<Arc<PageStore>> {
        let (file, entries) = StoreFile::open(path)?;
        if let Some(&(_, off, len)) = entries.first() {
            check_header(&file.read(off, len.min(8))?)?;
        }
        let mut index = HashMap::new();
        let mut next_id = 0u64;
        for (id, off, len) in entries {
            if id & MANIFEST_ID_BASE == 0 {
                next_id = next_id.max(id + 1);
            }
            // Later records supersede earlier ones under the same id.
            index.insert(id, (off, len));
        }
        Ok(Arc::new(PageStore {
            file,
            index: RwLock::new(index),
            next_id: AtomicU64::new(next_id),
            pool: BufferPool::new(budget),
            last_error: Mutex::new(None),
        }))
    }

    /// The pool's frame budget (`None` = unbounded).
    pub fn budget(&self) -> Option<usize> {
        self.pool.budget()
    }

    /// Reserve a fresh page id (never a manifest id).
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Seal an immutable page into the store: it becomes a resident
    /// *dirty* frame under a fresh id. No I/O happens here — the image is
    /// written by eviction or [`PageStore::flush`] — so sealing is safe on
    /// the merge path.
    pub fn seal(self: &Arc<Self>, page: BasePage) -> PagePtr {
        let id = self.allocate_id();
        let page = Arc::new(page);
        let frame = Arc::new(Frame::new(
            id,
            Some(Arc::clone(&page)),
            true,
            Arc::clone(self.pool.stats()),
        ));
        // Admission order upholds `resident ≤ budget + pinned`: the
        // admitting pin lands and the frame is in the ring (where a
        // snapshot counts pins) before the resident gauge moves, and the
        // pin is only released once the budget sweep has run.
        let admit = frame.pin_with(page, false);
        self.pool.register(&frame);
        self.pool.stats().resident.fetch_add(1, Ordering::SeqCst);
        self.enforce_budget();
        drop(admit);
        PagePtr::Stored(PageHandle {
            store: Arc::clone(self),
            frame,
        })
    }

    /// A cold handle to a page already persisted under `id` (the restore
    /// path): no frame slot is populated — and the clock does not hear of
    /// the frame — until the first read faults the image in.
    pub fn handle(self: &Arc<Self>, id: u64) -> StorageResult<PagePtr> {
        if !self.index.read().contains_key(&id) {
            return Err(StorageError::MissingEntry { id });
        }
        let frame = Arc::new(Frame::new(id, None, false, Arc::clone(self.pool.stats())));
        Ok(PagePtr::Stored(PageHandle {
            store: Arc::clone(self),
            frame,
        }))
    }

    /// Pin a frame's page, faulting the image in if the slot is empty. A
    /// `streaming` pin does not set the frame's reference bit, on a hit or
    /// on the frame it faults in (see [`PagePtr::read_streaming`]).
    ///
    /// # Panics
    ///
    /// Panics if a fault-in cannot read back an image the store itself
    /// wrote (disk gone / file truncated underneath the process). Sealed
    /// pages are only evicted *after* a successful writeback, so a failing
    /// read here is unrecoverable environment damage, not a softwarable
    /// condition — readers are infallible by design.
    fn pin(self: &Arc<Self>, frame: &Arc<Frame>, streaming: bool) -> PinnedPage {
        if let Some(pinned) = frame.try_pin(streaming) {
            return pinned;
        }
        let mut slot = frame.slot.write();
        if let Some(page) = slot.clone() {
            // Another reader faulted it in while we waited for the lock.
            frame.count_hit();
            return frame.pin_with(page, streaming);
        }
        let page = Arc::new(
            self.read_page(frame.id)
                .expect("page store: fault-in failed to read back a stored page image"),
        );
        *slot = Some(Arc::clone(&page));
        let pinned = frame.pin_with(page, streaming);
        // Into the ring inside the slot's critical section — slot → clock,
        // the one order a fault takes the two in — so the frame is there
        // exactly while the slot is full; then the gauge, as in `seal`.
        self.pool.register(frame);
        self.pool.stats().resident.fetch_add(1, Ordering::SeqCst);
        self.pool.stats().faults.fetch_add(1, Ordering::Relaxed);
        drop(slot);
        self.enforce_budget();
        pinned
    }

    /// Read and decode the latest image stored under `id`, bypassing the
    /// pool. The codec byte in the image is preserved exactly.
    pub fn read_page(&self, id: u64) -> StorageResult<BasePage> {
        let (off, len) = *self
            .index
            .read()
            .get(&id)
            .ok_or(StorageError::MissingEntry { id })?;
        let bytes = self.file.read(off, len)?;
        Ok(BasePage::from_compressed(decode_image(&bytes)?))
    }

    /// Write an image for `page` under `id`, superseding any earlier
    /// record. Used directly by checkpoint manifests; eviction and flush
    /// go through the same append path.
    pub fn put_page(&self, id: u64, page: &BasePage) -> StorageResult<()> {
        self.writeback(id, page)
    }

    /// True when an image exists under `id`.
    pub fn contains(&self, id: u64) -> bool {
        self.index.read().contains_key(&id)
    }

    /// Ensure `ptr` has an up-to-date image in *this* store and return its
    /// page id. Store-backed clean frames are free; dirty frames write
    /// back; plain resident pages (and frames of another store) are
    /// assigned a fresh id.
    pub fn persist(&self, ptr: &PagePtr) -> StorageResult<u64> {
        match ptr {
            PagePtr::Resident(page) => {
                let id = self.allocate_id();
                self.writeback(id, page)?;
                Ok(id)
            }
            PagePtr::Stored(h) if std::ptr::eq(Arc::as_ptr(&h.store), self) => {
                if h.frame.dirty.load(Ordering::SeqCst) {
                    let page = h.frame.slot.read().clone();
                    if let Some(page) = page {
                        self.writeback(h.frame.id, &page)?;
                        h.frame.dirty.store(false, Ordering::SeqCst);
                        self.pool.stats().writebacks.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Ok(h.frame.id)
            }
            PagePtr::Stored(_) => {
                let id = self.allocate_id();
                self.writeback(id, &ptr.read())?;
                Ok(id)
            }
        }
    }

    /// Write back every dirty resident frame, surface any sticky
    /// background-writeback error, and sync the file.
    pub fn flush(&self) -> StorageResult<()> {
        for frame in self.pool.live_frames() {
            if !frame.dirty.load(Ordering::SeqCst) {
                continue;
            }
            let Some(page) = frame.slot.read().clone() else {
                continue;
            };
            self.writeback(frame.id, &page)?;
            frame.dirty.store(false, Ordering::SeqCst);
            self.pool.stats().writebacks.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(err) = self.take_error() {
            return Err(err);
        }
        self.file.sync()
    }

    /// Sync the store file to stable storage.
    pub fn sync(&self) -> StorageResult<()> {
        self.file.sync()
    }

    /// Take the sticky background-writeback error, if eviction recorded
    /// one since the last call.
    pub fn take_error(&self) -> Option<StorageError> {
        self.last_error.lock().take()
    }

    /// Snapshot the pool gauges and counters.
    pub fn pool_stats(&self) -> PoolStatsSnapshot {
        self.pool.snapshot()
    }

    /// Entries in the clock's ring: the resident frames, plus any entry
    /// not pruned yet.
    #[cfg(test)]
    pub(crate) fn ring_len(&self) -> usize {
        self.pool.ring_len()
    }

    fn writeback(&self, id: u64, page: &BasePage) -> StorageResult<()> {
        if page.len() > MAX_PAGE_CELLS {
            // Refused here, where it is an error, not at the fault that
            // would find the image unreadable.
            return Err(StorageError::Corrupt(format!(
                "page {id} of {} values exceeds the image capacity",
                page.len()
            )));
        }
        let image = encode_image(page.compressed());
        let (off, len) = self.file.append(id, &image)?;
        self.index.write().insert(id, (off, len));
        Ok(())
    }

    fn enforce_budget(&self) {
        let outcome = self
            .pool
            .enforce_budget(&mut |id, page| self.writeback(id, page));
        if let Err(e) = outcome {
            let mut last = self.last_error.lock();
            if last.is_none() {
                *last = Some(e);
            }
        }
    }
}

impl fmt::Debug for PageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageStore")
            .field("pages", &self.index.read().len())
            .field("pool", &self.pool.snapshot())
            .finish_non_exhaustive()
    }
}

/// A store-backed page reference: the store that owns the image plus the
/// pool frame tracking its residency.
#[derive(Clone)]
pub struct PageHandle {
    store: Arc<PageStore>,
    frame: Arc<Frame>,
}

impl PageHandle {
    /// The stable page id in the store file.
    pub fn page_id(&self) -> u64 {
        self.frame.id
    }
}

impl fmt::Debug for PageHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageHandle(id={})", self.frame.id)
    }
}

/// How the engine holds an immutable base page: pinned forever on the heap,
/// or through an evictable buffer-pool frame.
#[derive(Clone, Debug)]
pub enum PagePtr {
    /// Heap-resident, never evicted (the storeless default).
    Resident(Arc<BasePage>),
    /// Backed by a [`PageStore`] frame; reads fault the image in on demand.
    Stored(PageHandle),
}

impl PagePtr {
    /// Wrap a page heap-resident.
    pub fn resident(page: BasePage) -> PagePtr {
        PagePtr::Resident(Arc::new(page))
    }

    /// Wrap an already-shared page heap-resident.
    pub fn from_arc(page: Arc<BasePage>) -> PagePtr {
        PagePtr::Resident(page)
    }

    /// Seal into `store` when one is configured, else keep heap-resident.
    /// The single switch point the merge uses.
    pub fn seal(store: Option<&Arc<PageStore>>, page: BasePage) -> PagePtr {
        match store {
            Some(store) => store.seal(page),
            None => PagePtr::resident(page),
        }
    }

    /// Read the page. Resident pages cost one branch; stored pages pin
    /// their frame (faulting the image in if evicted) until the guard
    /// drops.
    #[inline]
    pub fn read(&self) -> PageRead<'_> {
        self.pin(false)
    }

    /// [`PagePtr::read`] for a reader that streams through pages it will
    /// not come back to (a scan's window fold): the pin does not set the
    /// frame's clock reference bit, so the page asks for no second chance
    /// and the next eviction takes it — the scan recycles a handful of
    /// frames instead of sweeping everyone else's out. A hint about this
    /// read, chosen by the code that makes it; the answer is the same.
    #[inline]
    pub fn read_streaming(&self) -> PageRead<'_> {
        self.pin(true)
    }

    #[inline]
    fn pin(&self, streaming: bool) -> PageRead<'_> {
        match self {
            PagePtr::Resident(page) => PageRead::Resident(page),
            PagePtr::Stored(h) => {
                PageRead::Pinned(h.store.pin(&h.frame, streaming), Unpinned(&h.store))
            }
        }
    }

    /// The store page id, for store-backed pages.
    pub fn page_id(&self) -> Option<u64> {
        match self {
            PagePtr::Resident(_) => None,
            PagePtr::Stored(h) => Some(h.frame.id),
        }
    }

    /// Encoded bytes currently charged to the heap. Evicted frames count
    /// zero — measuring memory must not fault pages back in.
    pub fn resident_bytes(&self) -> usize {
        match self {
            PagePtr::Resident(page) => page.encoded_bytes(),
            PagePtr::Stored(h) => h
                .frame
                .slot
                .read()
                .as_ref()
                .map_or(0, |p| p.encoded_bytes()),
        }
    }
}

/// A dereferenceable page read: a plain borrow for resident pages, a pin
/// guard for stored ones.
pub enum PageRead<'a> {
    /// Borrow of a heap-resident page.
    Resident(&'a BasePage),
    /// Pin guard keeping a stored frame resident. The fields drop in
    /// order: the pin first, then the budget sweep it may have held up.
    Pinned(PinnedPage, Unpinned<'a>),
}

/// Runs the budget sweep when a reader's pin is gone. A fault admits its
/// page over the budget while every other frame is pinned; without this
/// the excess would outlive the pins until the next fault swept it, and
/// `resident ≤ budget + pinned` would not hold in between.
pub struct Unpinned<'a>(&'a PageStore);

impl Drop for Unpinned<'_> {
    fn drop(&mut self) {
        let pool = &self.0.pool;
        if pool
            .budget()
            .is_some_and(|budget| pool.stats().resident.load(Ordering::SeqCst) > budget as u64)
        {
            self.0.enforce_budget();
        }
    }
}

impl Deref for PageRead<'_> {
    type Target = BasePage;

    #[inline]
    fn deref(&self) -> &BasePage {
        match self {
            PageRead::Resident(page) => page,
            PageRead::Pinned(pinned, _) => pinned,
        }
    }
}

impl fmt::Debug for PageRead<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageRead::Resident(_) => write!(f, "PageRead::Resident"),
            PageRead::Pinned(p, _) => write!(f, "PageRead::{p:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CodecChoice;
    use std::fs::OpenOptions;

    fn temp_store_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lstore-store-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(format!("{tag}-{}.lspr", std::process::id()))
    }

    fn page(seed: u64, len: usize) -> BasePage {
        let values: Vec<u64> = (0..len as u64).map(|i| seed * 1000 + i % 7).collect();
        BasePage::from_values(&values, CodecChoice::Auto)
    }

    #[test]
    fn seal_read_evict_fault_roundtrip() {
        let path = temp_store_path("roundtrip");
        let store = PageStore::open(&path, Some(2)).unwrap();
        let ptrs: Vec<PagePtr> = (0..6).map(|i| store.seal(page(i, 256))).collect();
        // Budget 2: at most 2 + pinned frames resident at any instant.
        let stats = store.pool_stats();
        assert!(
            stats.resident <= 2 + stats.pinned,
            "resident {} exceeds budget + pinned {}",
            stats.resident,
            stats.pinned
        );
        assert!(stats.evictions >= 4, "sealing 6 into 2 must evict");
        assert!(stats.writebacks >= 4, "dirty victims write back first");
        // Every page reads back byte-identically, codec preserved.
        for (i, ptr) in ptrs.iter().enumerate() {
            let original = page(i as u64, 256);
            let read = ptr.read();
            assert_eq!(read.decode(), original.decode(), "page {i}");
            assert_eq!(read.codec_name(), original.codec_name(), "page {i}");
        }
        // Reads faulted pages in: the pool saw misses.
        assert!(store.pool_stats().faults >= 1);
        // All guards dropped: pins return to zero.
        assert_eq!(store.pool_stats().pinned, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let path = temp_store_path("unbounded");
        let store = PageStore::open(&path, None).unwrap();
        let ptrs: Vec<PagePtr> = (0..16).map(|i| store.seal(page(i, 64))).collect();
        for (i, ptr) in ptrs.iter().enumerate() {
            assert_eq!(ptr.read().decode(), page(i as u64, 64).decode());
        }
        let stats = store.pool_stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.faults, 0);
        assert_eq!(stats.resident, 16);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let path = temp_store_path("pins");
        let store = PageStore::open(&path, Some(1)).unwrap();
        let first = store.seal(page(1, 128));
        let guard = first.read();
        // Sealing more pages under budget 1 evicts everything unpinned,
        // but the pinned frame must survive.
        for i in 2..6 {
            let _ = store.seal(page(i, 128));
        }
        assert_eq!(guard.decode(), page(1, 128).decode());
        let stats = store.pool_stats();
        assert_eq!(stats.pinned, 1);
        assert!(stats.resident <= 1 + stats.pinned);
        drop(guard);
        assert_eq!(store.pool_stats().pinned, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_recovers_flushed_pages() {
        let path = temp_store_path("reopen");
        let id = {
            let store = PageStore::open(&path, Some(4)).unwrap();
            let ptr = store.seal(page(9, 200));
            store.flush().unwrap();
            ptr.page_id().unwrap()
        };
        let store = PageStore::open(&path, Some(4)).unwrap();
        assert!(store.contains(id));
        let loaded = store.read_page(id).unwrap();
        assert_eq!(loaded.decode(), page(9, 200).decode());
        // The id allocator resumes past recovered ids.
        assert!(store.allocate_id() > id);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_ignored_on_reopen() {
        let path = temp_store_path("torn");
        let (id0, id1) = {
            let store = PageStore::open(&path, None).unwrap();
            let p0 = store.seal(page(1, 100));
            let p1 = store.seal(page(2, 100));
            store.flush().unwrap();
            (p0.page_id().unwrap(), p1.page_id().unwrap())
        };
        // Tear the file mid-way through the last record.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 37).unwrap();
        drop(file);
        let store = PageStore::open(&path, None).unwrap();
        assert!(store.contains(id0), "intact record must survive");
        assert!(!store.contains(id1), "torn record must be dropped");
        assert_eq!(
            store.read_page(id0).unwrap().decode(),
            page(1, 100).decode()
        );
        // Appending after the torn tail overwrites it cleanly.
        let p2 = store.seal(page(3, 100));
        store.flush().unwrap();
        let store = PageStore::open(&path, None).unwrap();
        assert_eq!(
            store.read_page(p2.page_id().unwrap()).unwrap().decode(),
            page(3, 100).decode()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_ids_do_not_collide_with_allocation() {
        let path = temp_store_path("manifest");
        let store = PageStore::open(&path, None).unwrap();
        let manifest_id = MANIFEST_ID_BASE | 7;
        store.put_page(manifest_id, &page(42, 10)).unwrap();
        store.flush().unwrap();
        let store = PageStore::open(&path, None).unwrap();
        // Manifest records do not advance the allocator.
        assert_eq!(store.allocate_id(), 0);
        assert_eq!(
            store.read_page(manifest_id).unwrap().decode(),
            page(42, 10).decode()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn superseding_records_keep_the_latest_image() {
        let path = temp_store_path("supersede");
        let store = PageStore::open(&path, None).unwrap();
        store.put_page(5, &page(1, 50)).unwrap();
        store.put_page(5, &page(2, 50)).unwrap();
        assert_eq!(store.read_page(5).unwrap().decode(), page(2, 50).decode());
        store.flush().unwrap();
        let store = PageStore::open(&path, None).unwrap();
        assert_eq!(store.read_page(5).unwrap().decode(), page(2, 50).decode());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writeback_failure_keeps_frames_resident_and_sticky_error() {
        if !std::path::Path::new("/dev/full").exists() {
            eprintln!("skipping: /dev/full not available");
            return;
        }
        let store = PageStore::open(std::path::Path::new("/dev/full"), Some(1)).unwrap();
        let a = store.seal(page(1, 64));
        let b = store.seal(page(2, 64));
        // Budget 1 with two dirty frames: eviction tried a writeback and
        // hit ENOSPC; both frames stay resident and readable.
        assert_eq!(a.read().decode(), page(1, 64).decode());
        assert_eq!(b.read().decode(), page(2, 64).decode());
        let stats = store.pool_stats();
        assert_eq!(stats.resident, 2, "failed writeback must not drop pages");
        assert_eq!(stats.evictions, 0);
        // Still dirty, so still in the ring where the flush below finds them.
        assert_eq!(store.ring_len(), 2);
        // The error is surfaced exactly once, as a stable Error.
        let err = store.flush().expect_err("flush must surface ENOSPC");
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
    }

    #[test]
    fn a_refault_never_registers_a_frame_twice() {
        let path = temp_store_path("refault");
        let store = PageStore::open(&path, Some(1)).unwrap();
        let a = store.seal(page(1, 64));
        assert_eq!(store.ring_len(), 1);
        let b = store.seal(page(2, 64)); // evicts `a`, dirty: written first
        assert_eq!(store.ring_len(), 1);
        for round in 0..3 {
            // Each read faults its page in and evicts the other (clean now).
            assert_eq!(a.read().decode(), page(1, 64).decode());
            assert_eq!(store.ring_len(), 1, "round {round}: after faulting a");
            assert_eq!(b.read_streaming().decode(), page(2, 64).decode());
            assert_eq!(store.ring_len(), 1, "round {round}: after faulting b");
        }
        let stats = store.pool_stats();
        assert_eq!((stats.resident, stats.pinned), (1, 0));
        assert_eq!(stats.faults, 6);
        assert_eq!(stats.writebacks, 2, "each page is written once, then clean");
        // A frame dropped while resident leaves a dead entry, which the
        // hand prunes when the next sweep meets it.
        drop(b);
        assert_eq!((store.pool_stats().resident, store.ring_len()), (0, 1));
        drop(a.read());
        assert_eq!((store.pool_stats().resident, store.ring_len()), (1, 2));
        let _c = store.seal(page(3, 64));
        assert_eq!((store.pool_stats().resident, store.ring_len()), (1, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cold_handles_enter_the_ring_only_when_faulted() {
        let path = temp_store_path("cold");
        let ids: Vec<u64> = {
            let store = PageStore::open(&path, None).unwrap();
            let ptrs: Vec<PagePtr> = (0..5).map(|i| store.seal(page(i, 32))).collect();
            store.flush().unwrap();
            ptrs.iter().map(|p| p.page_id().unwrap()).collect()
        };
        let store = PageStore::open(&path, Some(2)).unwrap();
        let cold: Vec<PagePtr> = ids.iter().map(|&id| store.handle(id).unwrap()).collect();
        assert_eq!(store.ring_len(), 0, "restore registers nothing");
        for (i, ptr) in cold.iter().enumerate() {
            assert_eq!(ptr.read().decode(), page(i as u64, 32).decode());
            assert!(store.ring_len() <= 2);
        }
        let stats = store.pool_stats();
        assert_eq!((stats.resident, stats.faults, stats.evictions), (2, 5, 3));
        assert_eq!(stats.writebacks, 0, "faulted pages are clean");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_streaming_pass_leaves_the_hot_set_alone() {
        let path = temp_store_path("streaming");
        let store = PageStore::open(&path, Some(8)).unwrap();
        let ptrs: Vec<PagePtr> = (0..64).map(|i| store.seal(page(i, 64))).collect();
        let hot = &ptrs[..4];
        let touch = || hot.iter().for_each(|p| drop(p.read()));
        // The first sweep after the load finds every bit set and clears
        // them all; touch the hot set on either side of it.
        touch();
        drop(ptrs[8].read_streaming());
        touch();
        let before = store.pool_stats();
        for ptr in &ptrs[9..] {
            assert_eq!(ptr.read_streaming().len(), 64);
        }
        let streamed = store.pool_stats();
        assert_eq!(
            streamed.faults - before.faults,
            55,
            "every streamed page faults"
        );
        touch();
        let after = store.pool_stats();
        assert_eq!(after.faults, streamed.faults, "the hot set never left");
        assert_eq!(after.hits - streamed.hits, 4);
        assert_eq!(store.ring_len() as u64, after.resident);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_scanner_beside_a_skewed_reader_leaves_ring_equal_to_resident() {
        for budget in [7usize, 320] {
            let path = temp_store_path(&format!("ring-{budget}"));
            let store = PageStore::open(&path, Some(budget)).unwrap();
            let ptrs: Vec<PagePtr> = (0..400).map(|i| store.seal(page(i, 64))).collect();
            store.flush().unwrap();
            std::thread::scope(|s| {
                s.spawn(|| {
                    for round in 0..4 {
                        for (i, ptr) in ptrs.iter().enumerate() {
                            let sum = ptr.read_streaming().sum();
                            assert_eq!(sum, page(i as u64, 64).sum(), "round {round} page {i}");
                        }
                    }
                });
                s.spawn(|| {
                    let mut rng = 0x5eedu64;
                    for _ in 0..4000 {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        // Skewed: the square of a uniform draw piles up at 0.
                        let u = (rng >> 40) as f64 / (1u64 << 24) as f64;
                        let i = (u * u * ptrs.len() as f64) as usize;
                        let slot = (rng >> 8) as usize % 64;
                        assert_eq!(ptrs[i].read().get(slot), page(i as u64, 64).get(slot));
                    }
                });
            });
            let stats = store.pool_stats();
            assert_eq!(stats.pinned, 0, "budget {budget}: {stats:?}");
            assert!(
                stats.resident <= budget as u64,
                "budget {budget}: {stats:?}"
            );
            assert_eq!(store.ring_len() as u64, stats.resident, "budget {budget}");
            assert!(
                stats.faults > 0 && stats.hits > 0,
                "budget {budget}: {stats:?}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_page_file_in_the_old_image_format_is_refused_at_open() {
        let path = temp_store_path("old-format");
        // One LSPR record holding an LSPG image of the single value 5.
        let image = b"LSPG\x00\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x05";
        let mut file = b"LSPR".to_vec();
        file.extend_from_slice(&7u64.to_be_bytes());
        file.extend_from_slice(&(image.len() as u32).to_be_bytes());
        file.extend_from_slice(image);
        std::fs::write(&path, &file).unwrap();
        match PageStore::open(&path, Some(4)) {
            Err(StorageError::Corrupt(why)) => assert!(why.contains("old LSPG format"), "{why}"),
            other => panic!("expected a Corrupt naming the old format, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hit_rate_counts_hits_and_faults() {
        let path = temp_store_path("hitrate");
        let store = PageStore::open(&path, Some(1)).unwrap();
        let a = store.seal(page(1, 64));
        let b = store.seal(page(2, 64));
        for _ in 0..4 {
            let _ = a.read();
            let _ = b.read();
        }
        let stats = store.pool_stats();
        assert!(stats.faults >= 4, "budget 1 over 2 pages must thrash");
        assert!(stats.hit_rate() < 1.0);
        std::fs::remove_file(&path).ok();
    }
}
