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
use crate::page::BasePage;

/// Shared pool counters: the `resident` gauge and monotonic event
/// counters. Nothing here is written by a pin that finds its page
/// resident — outstanding pins and hits are kept per frame and summed
/// over the ring by [`BufferPool::snapshot`].
///
/// Update ordering maintains the invariant `resident ≤ budget + pinned`
/// at every observable instant (absent writeback failures, which park a
/// dirty frame resident): admission paths pin the frame and put it in the
/// ring *before* they bump `resident`, and the admitting pin is only
/// released after the budget sweep has run.
#[derive(Debug, Default)]
pub(crate) struct PoolStats {
    pub(crate) resident: AtomicU64,
    /// Hits of frames that have left the ring; see [`Frame::hits`].
    pub(crate) hits: AtomicU64,
    pub(crate) faults: AtomicU64,
    pub(crate) block_reads: AtomicU64,
    pub(crate) evictions: AtomicU64,
    pub(crate) writebacks: AtomicU64,
}

impl PoolStats {
    /// Pages the pool has let go (evictions) or turned away (block reads):
    /// the clock a point read's admission window is measured on.
    pub(crate) fn turnover(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed) + self.block_reads.load(Ordering::Relaxed)
    }
}

/// Point-in-time copy of the pool counters plus the configured budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStatsSnapshot {
    /// Frames whose slot currently holds a page.
    pub resident: u64,
    /// Outstanding [`PinnedPage`] guards.
    pub pinned: u64,
    /// Pins and point reads satisfied without touching the page file.
    pub hits: u64,
    /// Pins and point reads that had to read and decode a whole page image
    /// into the pool (misses).
    pub faults: u64,
    /// Point reads of a page that was not resident, answered from the
    /// image blocks holding the cell without faulting the page in
    /// (misses too).
    pub block_reads: u64,
    /// Frames whose slot was dropped by the clock sweep.
    pub evictions: u64,
    /// Dirty pages encoded and appended to the page file.
    pub writebacks: u64,
    /// Capacity budget in frames (`None` = unbounded).
    pub budget: Option<u64>,
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

/// One buffer-pool frame: a stable page id plus an evictable page slot.
pub(crate) struct Frame {
    /// Stable id of this page in the store file.
    pub(crate) id: u64,
    /// The cached page; `None` when evicted.
    pub(crate) slot: RwLock<Option<Arc<BasePage>>>,
    /// Outstanding pins; the clock never evicts a pinned frame.
    pub(crate) pins: AtomicU64,
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
    /// ring; folded into [`PoolStats::hits`] when it leaves (eviction,
    /// drop). Counted here because every thread shares the global's line.
    hits: AtomicU64,
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
            hits: AtomicU64::new(0),
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
        self.pins.fetch_add(1, Ordering::SeqCst);
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
        self.count_hit();
        Some(pinned)
    }

    /// Fast path of a point read: cell `slot` of the page if it is
    /// resident. Counts a hit and sets the reference bit like a pin, but
    /// pins nothing — the slot's read lock keeps the page for the one
    /// `get`.
    pub(crate) fn try_get(&self, slot: usize) -> Option<u64> {
        let value = self.slot.read().as_ref()?.get(slot);
        self.reference();
        self.count_hit();
        Some(value)
    }

    /// Set the clock's reference bit. The bit publishes nothing; a set one
    /// is not written again.
    fn reference(&self) {
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::SeqCst);
        }
    }

    /// Count a pin that found the page resident.
    pub(crate) fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Move this frame's hits to the pool's counter: it is leaving the ring.
    fn fold_hits(&self) {
        let hits = self.hits.swap(0, Ordering::Relaxed);
        self.stats.hits.fetch_add(hits, Ordering::Relaxed);
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
            .field("pins", &self.pins.load(Ordering::Relaxed))
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
        self.frame.pins.fetch_sub(1, Ordering::SeqCst);
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
            if frame.pins.load(Ordering::SeqCst) > 0 {
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
            if frame.pins.load(Ordering::SeqCst) > 0 {
                continue;
            }
            let Some(page) = slot.as_deref() else {
                // An empty slot has no business in the ring.
                clock.hand = at;
                clock.frames.swap_remove(at);
                continue;
            };
            if frame.dirty.load(Ordering::SeqCst) {
                // Written with the clock released (a bulk load must not
                // queue readers behind file writes) but from inside the
                // ring: a flush walking it meanwhile waits on the slot
                // lock rather than miss an unwritten page, and a failed
                // write leaves the frame where it was, still dirty.
                drop(clock);
                if let Err(e) = writeback(&frame, page) {
                    return EvictOutcome::WritebackFailed(e);
                }
                frame.dirty.store(false, Ordering::SeqCst);
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
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
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            return EvictOutcome::Evicted;
        }
        EvictOutcome::NoVictim
    }

    /// Gauges and counters at one instant of the clock: `pinned` and the
    /// live frames' `hits` are summed over the ring, which cannot change
    /// meanwhile. `resident` is read last and under the same hold, so a
    /// page admitted over the budget is never counted without its pin
    /// (admission is pin → ring → gauge, and no sweep runs while we look).
    pub(crate) fn snapshot(&self) -> PoolStatsSnapshot {
        let clock = self.clock.lock();
        let mut pinned = 0;
        let mut hits = self.stats.hits.load(Ordering::Relaxed);
        for frame in clock.frames.iter().filter_map(Weak::upgrade) {
            pinned += frame.pins.load(Ordering::SeqCst);
            hits += frame.hits.load(Ordering::Relaxed);
        }
        let resident = self.stats.resident.load(Ordering::SeqCst);
        drop(clock);
        PoolStatsSnapshot {
            resident,
            pinned,
            hits,
            faults: self.stats.faults.load(Ordering::Relaxed),
            block_reads: self.stats.block_reads.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            writebacks: self.stats.writebacks.load(Ordering::Relaxed),
            budget: self.budget,
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
