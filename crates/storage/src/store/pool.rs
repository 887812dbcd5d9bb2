//! Buffer-pool frames, pin accounting, and clock/second-chance eviction.
//!
//! A [`Frame`] is the unit of residency: one stable page id plus a slot
//! that either holds the cached [`BasePage`] or is empty (evicted). Readers
//! pin frames through [`PinnedPage`] guards; the pool only ever evicts
//! frames with zero pins, so a guard is a hard residency guarantee for as
//! long as it lives — the same contract the epoch mechanism gives retired
//! base-page *versions*, applied one level down to page *images*.
//!
//! Eviction is the classic clock (second chance) over a ring of the
//! **resident** frames only: a frame enters the ring when its slot goes
//! `None → Some` (sealed, or faulted in) and leaves it when eviction
//! clears the slot, so a sweep never walks frames that hold nothing. The
//! hand clears reference bits, skips pinned frames, and evicts the first
//! unpinned frame whose bit was already clear, all under **one**
//! acquisition of the clock mutex. Dirty victims are written back through
//! a caller-supplied writeback function before the slot is dropped — with
//! the clock released — so the file always holds a decodable image of
//! every evicted page, and the frame knows where it is before its slot
//! empties ([`Frame::image_at`], which a point read of an evicted page
//! reads its cell from).
//!
//! Two lock orders, neither of which can wait for the other: a fault (and
//! a dirty eviction, once its image is written) holds a frame's slot lock
//! and then takes the clock; the sweep holds the clock and only ever
//! *tries* a slot lock.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::{Mutex, RwLock};

use crate::disk::Layout;
use crate::error::{StorageError, StorageResult};
use crate::metrics::Counter;
use crate::page::BasePage;

/// Shared pool state: the `resident` gauge and the event counters.
/// Nothing here is written by a pin that finds its page resident —
/// outstanding pins and hits are kept per frame and summed over the ring
/// by [`BufferPool::snapshot`].
///
/// Update ordering maintains the invariant `resident ≤ budget + pinned`
/// (absent writeback failures, which park a dirty frame resident):
/// admission paths pin the frame and put it in the ring *before* they bump
/// `resident`, the admitting pin is only released after the budget sweep
/// has run, and an eviction that writes its victim back holds a pin on it
/// until the gauge has let it go. What is left is the moment between a
/// reader's unpin of a page admitted over the budget and the sweep its
/// guard runs right after (`store::Unpinned`).
#[derive(Debug, Default)]
pub(crate) struct PoolStats {
    /// Frames whose slot holds a page. SeqCst, unlike the counters: the
    /// budget sweep reads it to decide whether to evict.
    pub(crate) resident: AtomicU64,
    pub(crate) events: PoolEvents,
}

impl PoolStats {
    /// Pages the pool has let go (evictions) or turned away (block reads):
    /// the clock a point read's admission window is measured on.
    pub(crate) fn turnover(&self) -> u64 {
        self.events.evictions.get() + self.events.block_reads.get()
    }
}

crate::metric_set! {
    /// The pool's event counters.
    pub(crate) struct PoolEvents;
    /// Point-in-time copy of the pool counters plus the configured budget.
    pub struct PoolStatsSnapshot {
        /// Pins and point reads satisfied without touching the page file.
        /// The live counter holds only the hits of frames that have left
        /// the ring; frames in the ring count their own.
        hits: Counter,
        /// Pins and point reads that had to read and decode a whole page
        /// image into the pool (misses).
        faults: Counter,
        /// Point reads of a page that was not resident, answered from the
        /// image blocks holding the cell without faulting the page in
        /// (misses too).
        block_reads: Counter,
        /// Frames whose slot was dropped by the clock sweep.
        evictions: Counter,
        /// Dirty pages encoded and appended to the page file.
        writebacks: Counter,
    }
    gauges {
        /// Frames whose slot currently holds a page.
        resident: u64,
        /// Outstanding pins: [`PinnedPage`] guards, and the dirty pages
        /// an eviction is writing back.
        pinned: u64,
        /// Capacity budget in frames (`None` = unbounded).
        budget: Option<u64>,
    }
}

impl PoolStatsSnapshot {
    /// Hit fraction of all page requests — pins and point reads — in
    /// `[0, 1]`: `hits / (hits + faults + block_reads)`; `1.0` before any
    /// request (an empty window has no misses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.faults + self.block_reads;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What a pin adds to a frame's pin word: one outstanding pin.
const PIN: u64 = 1;
/// What an unpin adds: one release, one outstanding pin fewer.
const UNPIN: u64 = (1 << 32) - 1;

/// Outstanding pins in a pin word.
fn pins_of(word: u64) -> u64 {
    word & u64::from(u32::MAX)
}

/// One buffer-pool frame: a stable page id plus an evictable page slot.
pub(crate) struct Frame {
    /// Stable id of this page in the store file.
    pub(crate) id: u64,
    /// The cached page; `None` when evicted.
    pub(crate) slot: RwLock<Option<Arc<BasePage>>>,
    /// The pin word: outstanding pins in the low 32 bits, releases in the
    /// high 32. A pin adds [`PIN`] and an unpin [`UNPIN`], so each is one
    /// RMW that raises the word: two equal reads bracket an interval in
    /// which the count did not change. The clock never evicts a pinned
    /// frame.
    pins: AtomicU64,
    /// Clock reference bit (second chance).
    pub(crate) referenced: AtomicBool,
    /// True while the cached page has no up-to-date image in the file.
    /// **dirty ⇒ resident**: only a cached page can be unwritten, and the
    /// evictor clears this before it clears the slot. Resident frames are
    /// in the ring, which is why [`BufferPool::live_frames`] finds every
    /// page a flush has to write.
    pub(crate) dirty: AtomicBool,
    /// Where a point read finds one cell in the page's image: taken from
    /// the page when it is sealed or faulted in; unset on a cold handle
    /// that has never been faulted.
    pub(crate) layout: OnceLock<Layout>,
    /// File offset of an image of the page, [`Frame::NO_IMAGE`] until one
    /// is written or read. Published before the evictor empties the slot,
    /// so a reader that finds the slot empty finds the image.
    image_at: AtomicU64,
    /// The pool's turnover ([`PoolStats::turnover`]) plus one when a point
    /// read last found this page out of the pool, 0 before any: the
    /// admission stamp (see `PageStore::get`).
    pub(crate) touched: AtomicU64,
    /// Pins that found the page resident since the frame last entered the
    /// ring; folded into [`PoolEvents::hits`] when it leaves (eviction,
    /// drop). Counted here because every thread shares the global's line.
    pub(crate) hits: Counter,
    stats: Arc<PoolStats>,
}

impl Frame {
    const NO_IMAGE: u64 = u64::MAX;

    pub(crate) fn new(
        id: u64,
        page: Option<Arc<BasePage>>,
        dirty: bool,
        stats: Arc<PoolStats>,
    ) -> Frame {
        let layout = match &page {
            Some(page) => OnceLock::from(Layout::of(page.compressed())),
            None => OnceLock::new(),
        };
        Frame {
            id,
            slot: RwLock::new(page),
            pins: AtomicU64::new(0),
            referenced: AtomicBool::new(false),
            dirty: AtomicBool::new(dirty),
            layout,
            image_at: AtomicU64::new(Frame::NO_IMAGE),
            touched: AtomicU64::new(0),
            hits: Counter::default(),
            stats,
        }
    }

    /// Record that the file holds an image of this page at `offset`. Any
    /// image will do: pages are immutable, so every record under this id
    /// holds the same words.
    pub(crate) fn publish_image(&self, offset: u64) {
        self.image_at.store(offset, Ordering::Release);
    }

    /// The offset [`Frame::publish_image`] recorded, if any.
    pub(crate) fn image_at(&self) -> Option<u64> {
        Some(self.image_at.load(Ordering::Acquire)).filter(|&at| at != Frame::NO_IMAGE)
    }

    /// Pin this frame around `page`. The caller must hold (or be inside the
    /// critical section that installs) the page in `self.slot`; the
    /// returned guard keeps the frame unevictable until dropped. A
    /// `streaming` pin leaves the reference bit alone: the page will not
    /// ask the clock for a second chance on this reader's account.
    pub(crate) fn pin_with(self: &Arc<Self>, page: Arc<BasePage>, streaming: bool) -> PinnedPage {
        self.pins.fetch_add(PIN, Ordering::SeqCst);
        if !streaming {
            self.reference();
        }
        PinnedPage {
            page,
            frame: Arc::clone(self),
        }
    }

    /// Fast path: pin this frame if its page is resident. Counts a hit.
    pub(crate) fn try_pin(self: &Arc<Self>, streaming: bool) -> Option<PinnedPage> {
        let slot = self.slot.read();
        let page = Arc::clone(slot.as_ref()?);
        // Pin under the read lock: the evictor requires the write lock to
        // clear the slot and re-checks pins while holding it, so a pin
        // taken here is never raced away.
        let pinned = self.pin_with(page, streaming);
        drop(slot);
        self.hits.inc();
        Some(pinned)
    }

    /// Fast path of a point read: cell `slot` of the page if it is
    /// resident. Counts a hit and sets the reference bit like a pin, but
    /// pins nothing — the slot's read lock keeps the page for the one
    /// `get`.
    pub(crate) fn try_get(&self, slot: usize) -> Option<u64> {
        let value = self.slot.read().as_ref()?.get(slot);
        self.reference();
        self.hits.inc();
        Some(value)
    }

    /// Set the clock's reference bit. The bit publishes nothing; a set one
    /// is not written again.
    fn reference(&self) {
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::SeqCst);
        }
    }

    /// Move this frame's hits to the pool's counter: it is leaving the ring.
    fn fold_hits(&self) {
        self.stats.events.hits.add(self.hits.take());
    }

    /// Outstanding pins.
    pub(crate) fn pinned(&self) -> u64 {
        pins_of(self.pins.load(Ordering::SeqCst))
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        // A frame dying with its page still installed (version retired by
        // the epoch mechanism while resident) leaves the resident gauge;
        // its ring entry is dead and pruned when the hand meets it.
        if self.slot.get_mut().is_some() {
            self.stats.resident.fetch_sub(1, Ordering::SeqCst);
        }
        self.fold_hits();
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("id", &self.id)
            .field("pins", &self.pinned())
            .field("dirty", &self.dirty.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A pinned, dereferenceable base page. Dropping the guard unpins the
/// frame, making it evictable again.
pub struct PinnedPage {
    page: Arc<BasePage>,
    frame: Arc<Frame>,
}

impl Deref for PinnedPage {
    type Target = BasePage;

    #[inline]
    fn deref(&self) -> &BasePage {
        &self.page
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        self.frame.pins.fetch_add(UNPIN, Ordering::SeqCst);
    }
}

impl fmt::Debug for PinnedPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PinnedPage(id={})", self.frame.id)
    }
}

/// Outcome of one eviction attempt.
pub(crate) enum EvictOutcome {
    /// A frame's slot was dropped (after writeback if it was dirty).
    Evicted,
    /// No evictable frame exists right now (everything pinned/referenced).
    NoVictim,
    /// A dirty victim's writeback failed; the frame stays resident and
    /// dirty — nothing was corrupted, but the budget cannot be met.
    WritebackFailed(StorageError),
}

/// Dead entries [`BufferPool::register`] tolerates beyond twice the
/// resident frames before it prunes them.
const RING_SLACK: usize = 64;

/// Clock state: the ring of resident frames and the sweep hand.
///
/// Ring length = resident frames + entries not yet pruned (the `Weak` of
/// a frame dropped while resident; the hand removes those as it meets
/// them). A frame is in the ring at most once: it enters on `None → Some`
/// under its slot's write lock and leaves on `Some → None` under the same
/// lock.
struct Clock {
    frames: Vec<Weak<Frame>>,
    hand: usize,
    /// Frames ever put into the ring: a snapshot that finds it unchanged
    /// knows no frame entered meanwhile.
    entered: u64,
}

impl Clock {
    /// Take `frame` out of the ring; `hint` is where it was last seen.
    fn remove(&mut self, frame: &Arc<Frame>, hint: usize) {
        let is_frame = |entry: &Weak<Frame>| std::ptr::eq(entry.as_ptr(), Arc::as_ptr(frame));
        let at = match self.frames.get(hint) {
            Some(entry) if is_frame(entry) => Some(hint),
            _ => self.frames.iter().position(is_frame),
        };
        if let Some(at) = at {
            self.frames.swap_remove(at);
        }
    }
}

/// Capacity-budgeted frame cache with clock/second-chance eviction.
///
/// The pool holds frames weakly: frame lifetime belongs to the `PagePtr`s
/// embedded in base versions, which the engine retires through the epoch
/// mechanism. Dead weak entries are pruned as the hand passes them.
pub(crate) struct BufferPool {
    budget: Option<u64>,
    clock: Mutex<Clock>,
    stats: Arc<PoolStats>,
}

impl BufferPool {
    pub(crate) fn new(budget: Option<usize>) -> BufferPool {
        BufferPool {
            budget: budget.map(|b| b.max(1) as u64),
            clock: Mutex::new(Clock {
                frames: Vec::new(),
                hand: 0,
                entered: 0,
            }),
            stats: Arc::new(PoolStats::default()),
        }
    }

    pub(crate) fn budget(&self) -> Option<usize> {
        self.budget.map(|b| b as usize)
    }

    pub(crate) fn stats(&self) -> &Arc<PoolStats> {
        &self.stats
    }

    /// Put a frame whose slot has just been filled into the ring. The
    /// caller holds the slot's write lock (or the only reference to the
    /// frame), has pinned it, and bumps `resident` only afterwards.
    ///
    /// The entries of frames dropped while resident are pruned by the hand
    /// as it passes, but an unbounded pool never sweeps: so once the ring
    /// is more than twice the resident frames (plus a little, so a small
    /// ring is not pruned at every registration) the dead entries go here.
    /// A pass then removes at least as many dead entries as it keeps live
    /// ones, and each entry dies once: O(1) amortised per registration.
    pub(crate) fn register(&self, frame: &Arc<Frame>) {
        let mut clock = self.clock.lock();
        clock.frames.push(Arc::downgrade(frame));
        clock.entered += 1;
        let resident = self.stats.resident.load(Ordering::SeqCst) as usize;
        if clock.frames.len() > 2 * resident + RING_SLACK {
            clock.frames.retain(|entry| entry.strong_count() > 0);
            clock.hand = clock.hand.min(clock.frames.len());
        }
    }

    /// Snapshot the resident frames (for flush sweeps).
    pub(crate) fn live_frames(&self) -> Vec<Arc<Frame>> {
        self.clock
            .lock()
            .frames
            .iter()
            .filter_map(Weak::upgrade)
            .collect()
    }

    /// Entries in the ring, pruned or not.
    #[cfg(test)]
    pub(crate) fn ring_len(&self) -> usize {
        self.clock.lock().frames.len()
    }

    /// Evict until the resident gauge is back under the budget. Pinned
    /// frames are exempt, so `resident` may legitimately settle at
    /// `budget + pinned`. A writeback failure stops the sweep and is
    /// returned; the victim stays resident and dirty.
    pub(crate) fn enforce_budget(
        &self,
        writeback: &mut dyn FnMut(&Frame, &BasePage) -> StorageResult<()>,
    ) -> StorageResult<()> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        while self.stats.resident.load(Ordering::SeqCst) > budget {
            match self.evict_one(writeback) {
                EvictOutcome::Evicted => continue,
                EvictOutcome::NoVictim => break,
                EvictOutcome::WritebackFailed(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One eviction: under one hold of the clock, advance the hand until a
    /// victim is found or two revolutions found nothing evictable (the
    /// first may only have cleared reference bits). The slot locks are
    /// only *tried*, so pin and fault paths never wait on the sweep.
    fn evict_one(
        &self,
        writeback: &mut dyn FnMut(&Frame, &BasePage) -> StorageResult<()>,
    ) -> EvictOutcome {
        let mut clock = self.clock.lock();
        for _ in 0..clock.frames.len() * 2 {
            if clock.frames.is_empty() {
                break;
            }
            if clock.hand >= clock.frames.len() {
                clock.hand = 0;
            }
            let at = clock.hand;
            let Some(frame) = clock.frames[at].upgrade() else {
                // Prune the dead entry; the hand stays, now pointing at
                // the swapped-in newest frame.
                clock.frames.swap_remove(at);
                continue;
            };
            clock.hand += 1;
            if frame.pinned() > 0 {
                continue;
            }
            if frame.referenced.swap(false, Ordering::SeqCst) {
                continue; // second chance
            }
            let Some(mut slot) = frame.slot.try_write() else {
                continue; // mid-fault, mid-pin or mid-writeback; look elsewhere
            };
            // Pins are taken under the slot read lock, so holding the
            // write lock freezes the count; anything >0 pinned before us.
            if frame.pinned() > 0 {
                continue;
            }
            let Some(page) = slot.as_deref() else {
                // An empty slot has no business in the ring.
                clock.hand = at;
                clock.frames.swap_remove(at);
                continue;
            };
            let dirty = frame.dirty.load(Ordering::SeqCst);
            if dirty {
                // Written with the clock released (a bulk load must not
                // queue readers behind file writes) but from inside the
                // ring: a flush walking it meanwhile waits on the slot
                // lock rather than miss an unwritten page, and a failed
                // write leaves the frame where it was, still dirty. The
                // write holds a pin, released once the gauge has let the
                // page go: it keeps the page in memory as a reader would,
                // and `resident ≤ budget + pinned` counts it so.
                frame.pins.fetch_add(PIN, Ordering::SeqCst);
                drop(clock);
                if let Err(e) = writeback(&frame, page) {
                    frame.pins.fetch_add(UNPIN, Ordering::SeqCst);
                    return EvictOutcome::WritebackFailed(e);
                }
                frame.dirty.store(false, Ordering::SeqCst);
                self.stats.events.writebacks.inc();
                clock = self.clock.lock(); // slot → clock, as a fault
                clock.remove(&frame, at);
            } else {
                // Hand stays: the newest frame is swapped in under it, so
                // a streaming scan's last page is the next one looked at.
                clock.hand = at;
                clock.frames.swap_remove(at);
            }
            frame.fold_hits();
            drop(clock);
            *slot = None;
            self.stats.resident.fetch_sub(1, Ordering::SeqCst);
            if dirty {
                frame.pins.fetch_add(UNPIN, Ordering::SeqCst);
            }
            self.stats.events.evictions.inc();
            return EvictOutcome::Evicted;
        }
        EvictOutcome::NoVictim
    }

    /// Gauges and counters at one instant. The sweeps that keep
    /// `resident ≤ budget + pinned` take the clock, and pins move without
    /// it, so the snapshot does not hold the clock while it reads: readers
    /// that release their pins then would wait for their sweeps behind
    /// it, and it would read the excess they leave. It takes the clock
    /// only to copy the ring, then reads every frame's pin word, the
    /// `resident` gauge, and the pin words again. When every word reads
    /// alike twice and no frame entered the ring meanwhile, each frame
    /// held the pins counted at the instant `resident` was read, and no
    /// frame outside the copy had been counted in it (admission is pin →
    /// ring → gauge). Otherwise it reads again.
    pub(crate) fn snapshot(&self) -> PoolStatsSnapshot {
        loop {
            let (frames, entered, hits) = {
                // Hits are summed here: evictions fold theirs under the clock.
                let clock = self.clock.lock();
                let frames: Vec<Arc<Frame>> =
                    clock.frames.iter().filter_map(Weak::upgrade).collect();
                let live: u64 = frames.iter().map(|frame| frame.hits.get()).sum();
                (frames, clock.entered, live + self.stats.events.hits.get())
            };
            let words: Vec<u64> = frames
                .iter()
                .map(|frame| frame.pins.load(Ordering::SeqCst))
                .collect();
            let resident = self.stats.resident.load(Ordering::SeqCst);
            let steady = frames
                .iter()
                .zip(&words)
                .all(|(frame, &word)| frame.pins.load(Ordering::SeqCst) == word);
            if !steady || self.clock.lock().entered != entered {
                std::thread::yield_now();
                continue;
            }
            return PoolStatsSnapshot {
                resident,
                pinned: words.iter().map(|&word| pins_of(word)).sum(),
                hits,
                budget: self.budget,
                ..self.stats.events.snapshot()
            };
        }
    }
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferPool")
            .field("budget", &self.budget)
            .field("stats", &self.snapshot())
            .finish_non_exhaustive()
    }
}
