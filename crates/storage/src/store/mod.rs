//! Buffer-pool-managed page store: sealed base pages live in a page file
//! and fault in and out of memory under a capacity budget.
//!
//! The paper assumes base pages live in a storage hierarchy, not
//! permanently in RAM; this module is that hierarchy's bottom layer. A
//! [`PageStore`] owns one append-only page file (codec-native page images,
//! [`crate::disk`], framed as `LSPR` records, see `store/file.rs`), opened
//! through an [`crate::io::Fs`] — the operating system's, or a test's
//! in-memory one — plus a buffer pool of frames with clock/second-chance
//! eviction over the resident ones. The rest of the engine holds pages
//! through [`PagePtr`]:
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
//!
//! A point read ([`PagePtr::get`]) needs one cell, not the page. Of an
//! evicted page it reads the 512-byte image block(s) holding the cell,
//! checks them and answers from them, admitting nothing: **stored →
//! block-read → admitted on second touch ⇄ evicted**. The page joins the
//! pool when a second point read comes before `budget` pages (the first
//! read's own included) have left the pool or been turned away from it,
//! and faults in as any read would.

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

use crate::compress::Compressed;
use crate::disk::{decode_image, encode_image, Layout, BLOCK_BYTES, MAX_PAGE_CELLS};
use crate::error::{StorageError, StorageResult};
use crate::io::{Fs, OsFs};
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
    /// of `budget` frames (`None` = unbounded): [`PageStore::open_in`] the
    /// operating system's files.
    pub fn open(path: &Path, budget: Option<usize>) -> StorageResult<Arc<PageStore>> {
        Self::open_in(&OsFs, path, budget)
    }

    /// Open (creating if absent) a page store at `path` in `fs`. Existing
    /// records are indexed; a torn tail from a crash — a torn last
    /// manifest included, so its id keeps the record before it — is
    /// ignored and overwritten by the next append. A damaged record that a
    /// whole manifest follows is [`StorageError::Corrupt`], and so is a
    /// file whose first record is not an image this build reads — one
    /// written in the old `LSPG` format, say: refused here rather than at
    /// the first fault, which has no way to fail (see `store/file.rs`).
    pub fn open_in(
        fs: &dyn Fs,
        path: &Path,
        budget: Option<usize>,
    ) -> StorageResult<Arc<PageStore>> {
        let (file, entries) = StoreFile::open(fs, path)?;
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
    /// When the image cannot be read back (see [`unreadable`]).
    fn pin(self: &Arc<Self>, frame: &Arc<Frame>, streaming: bool) -> PinnedPage {
        if let Some(pinned) = frame.try_pin(streaming) {
            return pinned;
        }
        let mut slot = frame.slot.write();
        if let Some(page) = slot.clone() {
            // Another reader faulted it in while we waited for the lock.
            frame.hits.inc();
            return frame.pin_with(page, streaming);
        }
        let (at, col) = self
            .read_image(frame.id)
            .unwrap_or_else(|e| unreadable(frame.id, e));
        // A cold handle learns where its cells are: from now on a point
        // read of it after an eviction can read blocks instead.
        frame.layout.get_or_init(|| Layout::of(&col));
        frame.publish_image(at);
        let page = Arc::new(BasePage::from_compressed(col));
        *slot = Some(Arc::clone(&page));
        let pinned = frame.pin_with(page, streaming);
        // Into the ring inside the slot's critical section — slot → clock,
        // the one order a fault takes the two in — so the frame is there
        // exactly while the slot is full; then the gauge, as in `seal`.
        self.pool.register(frame);
        self.pool.stats().resident.fetch_add(1, Ordering::SeqCst);
        self.pool.stats().events.faults.inc();
        drop(slot);
        self.enforce_budget();
        pinned
    }

    /// One cell of a frame's page for a point read.
    ///
    /// * The page is resident: read it there (a hit). So is a one-value
    ///   page's cell, which its layout holds.
    /// * It is not, and the frame knows where its image is and how its
    ///   cells are laid out: read the block(s) holding the cell, check them,
    ///   answer from them and admit nothing (a block read) — unless this
    ///   point read comes within `budget` of the pool's turnover (pages it
    ///   let go, plus pages it turned away by block reads) since the page's
    ///   last one, which faults the page in: a page joins the pool on its
    ///   second touch while its first is still among the last `budget`
    ///   pages to leave or be turned away — a probationary history as long
    ///   as the pool, and no setting. An unbounded pool, which never
    ///   evicts, always faults.
    /// * A cold handle (restored, never faulted) faults.
    ///
    /// Never takes the index lock: the image offset is the frame's own.
    ///
    /// # Panics
    ///
    /// When the image cannot be read back (see [`unreadable`]).
    fn get(self: &Arc<Self>, frame: &Arc<Frame>, slot: usize) -> u64 {
        if let Some(value) = frame.try_get(slot) {
            return value;
        }
        if let Some(layout) = frame.layout.get() {
            if let Some(value) = layout.constant(slot) {
                // A one-value page: the file has nothing to add.
                frame.hits.inc();
                return value;
            }
            if let (Some(at), Some(budget)) = (frame.image_at(), self.pool.budget()) {
                let stats = self.pool.stats();
                let stamp = stats.turnover() + 1;
                let last = frame.touched.swap(stamp, Ordering::Relaxed);
                if last == 0 || stamp.saturating_sub(last) > budget as u64 {
                    stats.events.block_reads.inc();
                    return self
                        .read_cell(frame.id, layout, at, slot)
                        .unwrap_or_else(|e| unreadable(frame.id, e));
                }
            }
        }
        let pinned = PageRead::Pinned(self.pin(frame, false), Unpinned(self));
        pinned.get(slot)
    }

    /// Read cell `slot` of page `id` from the blocks of its image at `at`
    /// that hold it: one or two blocks of a plain or FOR page, the image of
    /// a dictionary or RLE page.
    fn read_cell(&self, id: u64, layout: &Layout, at: u64, slot: usize) -> StorageResult<u64> {
        let span = layout.blocks_for(slot);
        let mut blocks = [0u8; 2 * BLOCK_BYTES];
        let mut whole = Vec::new();
        let bytes = match blocks.get_mut(..span.len()) {
            Some(bytes) => bytes,
            None => {
                whole.resize(span.len(), 0);
                &mut whole[..]
            }
        };
        self.file.read_into(at + span.start as u64, bytes)?;
        layout.cell(id, slot, bytes)
    }

    /// The offset and the column of the latest image stored under `id`.
    fn read_image(&self, id: u64) -> StorageResult<(u64, Compressed)> {
        let (off, len) = *self
            .index
            .read()
            .get(&id)
            .ok_or(StorageError::MissingEntry { id })?;
        let bytes = self.file.read(off, len)?;
        Ok((off, decode_image(id, &bytes)?))
    }

    /// Read and decode the latest image stored under `id`, bypassing the
    /// pool. The codec byte in the image is preserved exactly.
    pub fn read_page(&self, id: u64) -> StorageResult<BasePage> {
        Ok(BasePage::from_compressed(self.read_image(id)?.1))
    }

    /// Write an image for `page` under `id`, superseding any earlier
    /// record. Used directly by checkpoint manifests; eviction and flush
    /// go through the same append path.
    pub fn put_page(&self, id: u64, page: &BasePage) -> StorageResult<()> {
        self.writeback(id, page).map(drop)
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
                        self.write_frame(&h.frame, &page)?;
                        h.frame.dirty.store(false, Ordering::SeqCst);
                        self.pool.stats().events.writebacks.inc();
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
            self.write_frame(&frame, &page)?;
            frame.dirty.store(false, Ordering::SeqCst);
            self.pool.stats().events.writebacks.inc();
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

    /// Append an image of `page` under `id`; returns its offset.
    fn writeback(&self, id: u64, page: &BasePage) -> StorageResult<u64> {
        if page.len() > MAX_PAGE_CELLS {
            // Refused here, where it is an error, not at the fault that
            // would find the image unreadable.
            return Err(StorageError::Corrupt(format!(
                "page {id} of {} values exceeds the image capacity",
                page.len()
            )));
        }
        let image = encode_image(id, page.compressed());
        let (off, len) = self.file.append(id, &image)?;
        self.index.write().insert(id, (off, len));
        Ok(off)
    }

    /// Write a frame's page back and tell the frame where its image is.
    fn write_frame(&self, frame: &Frame, page: &BasePage) -> StorageResult<()> {
        frame.publish_image(self.writeback(frame.id, page)?);
        Ok(())
    }

    fn enforce_budget(&self) {
        let outcome = self
            .pool
            .enforce_budget(&mut |frame, page| self.write_frame(frame, page));
        if let Err(e) = outcome {
            let mut last = self.last_error.lock();
            if last.is_none() {
                *last = Some(e);
            }
        }
    }
}

/// What a read does when the file cannot give back an image the store
/// wrote — disk gone, file truncated or damaged underneath the process:
/// it panics, naming the page. The one policy for a fault and a block read
/// alike. Sealed pages are only evicted *after* a successful writeback, so
/// this is environment damage, not a condition a reader could handle —
/// readers are infallible by design.
#[cold]
fn unreadable(id: u64, err: StorageError) -> ! {
    panic!("page store: cannot read back the stored image of page {id}: {err}")
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

    /// Seal into `store` when one is configured, else keep heap-resident.
    /// The single switch point the merge uses.
    pub fn seal(store: Option<&Arc<PageStore>>, page: BasePage) -> PagePtr {
        match store {
            Some(store) => store.seal(page),
            None => PagePtr::resident(page),
        }
    }

    /// Cell `slot` of the page: the point read. Resident pages cost one
    /// branch. A stored page is read where it is resident; when it is not,
    /// from the image block(s) holding the cell — admitting nothing —
    /// unless this is the page's second point read within `budget` of the
    /// pool's turnover, which faults it in (see the module docs).
    ///
    /// # Panics
    ///
    /// When `slot` is out of bounds, or the image cannot be read back.
    #[inline]
    pub fn get(&self, slot: usize) -> u64 {
        match self {
            PagePtr::Resident(page) => page.get(slot),
            PagePtr::Stored(h) => h.store.get(&h.frame, slot),
        }
    }

    /// Read the page. Resident pages cost one branch; stored pages pin
    /// their frame (faulting the image in if evicted) until the guard
    /// drops. For one cell, [`PagePtr::get`].
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
    use crate::io::{Fault, FaultFs};
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
        let fs = FaultFs::new();
        fs.fail(1, Fault::Full);
        let store = PageStore::open_in(&fs, Path::new("full.lspr"), Some(1)).unwrap();
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

    /// A manifest torn by a crash — a later block of its image lost, the
    /// first intact — is passed over at open for the record before it.
    #[test]
    fn a_torn_manifest_falls_back_to_the_one_before() {
        let (fs, path) = (FaultFs::new(), Path::new("manifest.lspr"));
        let id = MANIFEST_ID_BASE | 1;
        let manifest = |seed: u64| BasePage::plain((0..300).map(|i| seed * 1000 + i).collect());
        let store = PageStore::open_in(&fs, path, None).unwrap();
        store.put_page(id, &manifest(1)).unwrap();
        store.sync().unwrap();
        store.put_page(id, &manifest(2)).unwrap();
        let mut fell_back = 0;
        for crash in fs.crash() {
            let read = PageStore::open_in(&crash.fs, path, None)
                .unwrap()
                .read_page(id);
            let read = read.unwrap().decode();
            assert!(read == manifest(1).decode() || read == manifest(2).decode());
            fell_back += usize::from(read == manifest(1).decode());
        }
        assert!(fell_back > 1, "{fell_back} images fell back");
    }

    /// A byte flipped in a record that a whole manifest follows damages
    /// durable data: the open fails rather than cutting the file there.
    /// Past the last manifest the same flip is a torn tail.
    #[test]
    fn a_damaged_record_before_a_manifest_is_an_error_not_a_tail() {
        let (fs, path) = (FaultFs::new(), Path::new("damaged.lspr"));
        let store = PageStore::open_in(&fs, path, None).unwrap();
        for id in 1..=3 {
            store.put_page(id, &page(id, 100)).unwrap();
        }
        let manifest = MANIFEST_ID_BASE | 1;
        store.put_page(manifest, &page(9, 10)).unwrap();
        store.put_page(4, &page(4, 100)).unwrap();
        store.sync().unwrap();
        let file = fs.open(path).unwrap();
        let flip = |id: u64| {
            let (off, len) = store.index.read()[&id];
            let at = off + u64::from(len.min(BLOCK_BYTES as u32)) / 2;
            let mut byte = [0u8];
            file.read_at(&mut byte, at).unwrap();
            file.write_at(&[byte[0] ^ 0x40], at).unwrap();
        };
        flip(2);
        let err = PageStore::open_in(&fs, path, None).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "got {err:?}");
        flip(2);
        flip(4);
        let reopened = PageStore::open_in(&fs, path, None).unwrap();
        assert!(reopened.contains(3) && reopened.contains(manifest));
        assert!(!reopened.contains(4));
    }

    /// A short write on an append leaves the end offset where it was: the
    /// next append overwrites the partial record, and a reopen indexes
    /// only the records that were whole.
    #[test]
    fn a_short_append_is_overwritten_and_never_indexed() {
        let (fs, path) = (FaultFs::new(), Path::new("short.lspr"));
        let store = PageStore::open_in(&fs, path, None).unwrap();
        store.put_page(1, &page(1, 100)).unwrap();
        let end = fs.contents(path).unwrap().len();
        // The next append's second write, its payload, lands half.
        fs.fail(fs.calls() + 2, Fault::Short);
        assert!(store.put_page(2, &page(2, 100)).is_err());
        assert!(fs.contents(path).unwrap().len() > end, "part of it landed");
        assert!(!store.contains(2));
        store.put_page(3, &page(3, 100)).unwrap();
        let image = encode_image(3, page(3, 100).compressed());
        assert_eq!(fs.contents(path).unwrap().len(), end + 16 + image.len());
        let store = PageStore::open_in(&fs, path, None).unwrap();
        assert!(store.contains(1) && store.contains(3) && !store.contains(2));
        assert_eq!(store.read_page(3).unwrap().decode(), page(3, 100).decode());
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
                        assert_eq!(ptrs[i].get(slot), page(i as u64, 64).get(slot));
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
            if budget == 7 {
                assert!(stats.block_reads > 0, "budget {budget}: {stats:?}");
            }
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
        // A block read is a miss too.
        let cold = if a.resident_bytes() == 0 { &a } else { &b };
        cold.get(3);
        let after = store.pool_stats();
        assert_eq!(after.block_reads, 1);
        let expected = after.hits as f64 / (after.hits + after.faults + 1) as f64;
        assert_eq!(after.hit_rate(), expected);
        std::fs::remove_file(&path).ok();
    }

    /// Page `seed` of 4096 plain cells: 66 image blocks.
    fn wide_page(seed: u64) -> BasePage {
        BasePage::plain((0..4096u64).map(|i| seed << 32 | i).collect())
    }

    #[test]
    fn a_point_read_reads_blocks_and_admits_the_page_on_its_second_touch() {
        let path = temp_store_path("admission");
        let store = PageStore::open(&path, Some(2)).unwrap();
        let sealed: Vec<PagePtr> = (0..6).map(|i| store.seal(wide_page(i))).collect();
        let ptrs = &sealed;
        let evicted =
            |skip: usize| (0..6).filter(move |&i| i != skip && ptrs[i].resident_bytes() == 0);
        // One eviction exactly: a streaming fault of a page not resident
        // admits it into the full pool, which lets one other go.
        let evict_one = |skip: usize| {
            let before = store.pool_stats().evictions;
            let i = evicted(skip).next().expect("a page not resident");
            drop(ptrs[i].read_streaming());
            assert_eq!(store.pool_stats().evictions, before + 1);
        };

        // First touch: the cell's block, nothing admitted.
        let p = evicted(usize::MAX).next().unwrap();
        let (before, ring) = (store.pool_stats(), store.ring_len());
        assert_eq!(ptrs[p].get(1234), wide_page(p as u64).get(1234));
        let after = store.pool_stats();
        assert_eq!(
            (after.resident, store.ring_len(), after.faults),
            (before.resident, ring, before.faults)
        );
        assert_eq!(after.block_reads, before.block_reads + 1);
        assert_eq!(ptrs[p].resident_bytes(), 0, "a block read admits nothing");
        // Second touch within `budget` (2) of turnover since the first —
        // its own block read and one eviction: faulted in.
        evict_one(p);
        assert_eq!(ptrs[p].get(4000), wide_page(p as u64).get(4000));
        let second = store.pool_stats();
        assert_eq!(second.faults, after.faults + 2);
        assert_eq!(second.block_reads, after.block_reads);
        assert!(ptrs[p].resident_bytes() > 0, "admitted on the second touch");
        // Resident: a hit, whatever the stamp says.
        assert_eq!(ptrs[p].get(1), wide_page(p as u64).get(1));
        assert_eq!(store.pool_stats().hits, second.hits + 1);

        // A repeat after more than `budget` of turnover is a block read
        // again: its own block read, one eviction, another page's block
        // read.
        let q = evicted(p).next().unwrap();
        assert_eq!(ptrs[q].get(0), wide_page(q as u64).get(0));
        evict_one(q);
        let r = evicted(q).find(|&r| r != p).unwrap();
        assert_eq!(ptrs[r].get(5), wide_page(r as u64).get(5));
        let before = store.pool_stats();
        assert_eq!(ptrs[q].get(4095), wide_page(q as u64).get(4095));
        let after = store.pool_stats();
        assert_eq!(after.faults, before.faults);
        assert_eq!(after.block_reads, before.block_reads + 1);
        assert_eq!(ptrs[q].resident_bytes(), 0);
        assert_eq!(after.pinned, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_cold_handle_faults_until_it_knows_its_layout() {
        let path = temp_store_path("cold-layout");
        let ids: Vec<u64> = {
            let store = PageStore::open(&path, None).unwrap();
            let ptrs: Vec<PagePtr> = (0..3).map(|i| store.seal(wide_page(i))).collect();
            store.flush().unwrap();
            ptrs.iter().map(|p| p.page_id().unwrap()).collect()
        };
        let store = PageStore::open(&path, Some(1)).unwrap();
        let cold: Vec<PagePtr> = ids.iter().map(|&id| store.handle(id).unwrap()).collect();
        // Never faulted: no layout yet, so the point read faults.
        assert_eq!(cold[0].get(7), wide_page(0).get(7));
        assert_eq!(
            (store.pool_stats().faults, store.pool_stats().block_reads),
            (1, 0)
        );
        // Evicted by the next cold page's fault, it now reads blocks.
        assert_eq!(cold[1].get(7), wide_page(1).get(7));
        assert_eq!(cold[0].get(9), wide_page(0).get(9));
        assert_eq!(
            (store.pool_stats().faults, store.pool_stats().block_reads),
            (2, 1)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_damaged_image_fails_a_point_read_as_it_fails_a_fault() {
        let path = temp_store_path("damage");
        let store = PageStore::open(&path, Some(1)).unwrap();
        let a = store.seal(wide_page(1));
        let _b = store.seal(wide_page(2)); // evicts `a`, writing its image
        let PagePtr::Stored(handle) = &a else {
            unreachable!("sealed into a store")
        };
        let at = handle.frame.image_at().expect("written back on eviction");
        let layout = *handle.frame.layout.get().unwrap();
        // One byte inside the block holding cell 2000.
        let damaged = at + layout.blocks_for(2000).start as u64 + 100;
        {
            use std::os::unix::fs::FileExt;
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let mut byte = [0u8];
            file.read_exact_at(&mut byte, damaged).unwrap();
            file.write_all_at(&[byte[0] ^ 0x40], damaged).unwrap();
        }
        let caught = |read: &dyn Fn()| -> String {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read))
                .expect_err("a damaged image must not be answered from");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let by_block_read = caught(&|| {
            a.get(2000);
        });
        assert_eq!(store.pool_stats().block_reads, 1, "it was a block read");
        let by_fault = caught(&|| drop(a.read()));
        assert_eq!(by_block_read, by_fault);
        let id = a.page_id().unwrap();
        assert!(
            by_fault.contains(&format!("page {id}")) && by_fault.contains("checksum mismatch"),
            "{by_fault}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_unbounded_pool_prunes_the_ring_entries_of_dropped_frames() {
        let path = temp_store_path("prune");
        let store = PageStore::open(&path, None).unwrap();
        let kept: Vec<PagePtr> = (0..10).map(|i| store.seal(page(i, 8))).collect();
        for i in 0..10_000 {
            drop(store.seal(page(i, 8)));
        }
        let resident = store.pool_stats().resident as usize;
        assert_eq!(resident, kept.len());
        assert!(
            store.ring_len() <= 2 * resident + 64,
            "{} ring entries for {resident} resident frames",
            store.ring_len()
        );
        for (i, ptr) in kept.iter().enumerate() {
            assert_eq!(ptr.read().decode(), page(i as u64, 8).decode());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_page_file_of_version_1_images_is_refused_at_open() {
        let path = temp_store_path("v1-format");
        // One LSPR record holding a version-1 LSPI image of the value 5:
        // header, len, the cell, one checksum for the whole image.
        let mut image = b"LSPI\x01\0\0\0".to_vec();
        for word in [1u64, 5, 0x1234] {
            image.extend_from_slice(&word.to_le_bytes());
        }
        let mut file = b"LSPR".to_vec();
        file.extend_from_slice(&7u64.to_be_bytes());
        file.extend_from_slice(&(image.len() as u32).to_be_bytes());
        file.extend_from_slice(&image);
        std::fs::write(&path, &file).unwrap();
        match PageStore::open(&path, Some(4)) {
            Err(StorageError::Corrupt(why)) => assert!(why.contains("version 1"), "{why}"),
            other => panic!("expected a Corrupt naming version 1, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
