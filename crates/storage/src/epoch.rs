//! Epoch-based, contention-free page de-allocation (§4.1.1 step 5, Fig. 6).
//!
//! "The outdated base pages are de-allocated once the current readers are
//! drained naturally via an epoch-based approach. The epoch is defined as a
//! time window, in which the outdated base pages must be kept around as long
//! as there is an active query that started before the merge process.
//! Pointers to the outdated base pages are kept in a queue to be re-claimed
//! at the end of the query-driven epoch-window."
//!
//! Readers pin the current epoch with [`EpochManager::pin`]; the merge
//! retires objects with [`EpochManager::retire`], which stamps them with the
//! epoch *after* advancing it; [`EpochManager::try_reclaim`] drops everything
//! stamped before the oldest still-active reader.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared state behind the manager and its guards.
struct Inner {
    /// Monotone epoch counter.
    epoch: AtomicU64,
    /// epoch -> number of active readers pinned at that epoch.
    active: Mutex<BTreeMap<u64, usize>>,
    /// Retired objects awaiting reclamation, stamped with their retire epoch.
    limbo: Mutex<Vec<(u64, Box<dyn Send>)>>,
    counters: EpochCounters,
}

crate::metric_set! {
    /// The reclamation counters of an [`EpochManager`].
    pub struct EpochCounters;
    /// A reading of [`EpochCounters`].
    pub struct EpochStats {
        /// Objects retired (queued for reclamation).
        retired: Counter,
        /// Retired objects dropped once no reader could reach them.
        reclaimed: Counter,
    }
}

/// Coordinates query epochs and deferred de-allocation of outdated pages.
#[derive(Clone)]
pub struct EpochManager {
    inner: Arc<Inner>,
}

impl Default for EpochManager {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochManager {
    /// Create a manager starting at epoch 0.
    pub fn new() -> Self {
        EpochManager {
            inner: Arc::new(Inner {
                epoch: AtomicU64::new(0),
                active: Mutex::new(BTreeMap::new()),
                limbo: Mutex::new(Vec::new()),
                counters: EpochCounters::default(),
            }),
        }
    }

    /// Current epoch value.
    pub fn current(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Pin the current epoch for the lifetime of the returned guard; queries
    /// (readers) hold a guard for their whole execution.
    pub fn pin(&self) -> EpochGuard {
        let mut active = self.inner.active.lock();
        let e = self.inner.epoch.load(Ordering::Acquire);
        *active.entry(e).or_insert(0) += 1;
        EpochGuard {
            inner: Arc::clone(&self.inner),
            epoch: e,
        }
    }

    /// Oldest epoch still pinned by an active reader, or `None` when idle.
    pub fn min_active(&self) -> Option<u64> {
        self.inner.active.lock().keys().next().copied()
    }

    /// Retire an object: advance the epoch and queue the object stamped with
    /// the *pre-advance* epoch, so any reader pinned at or before that epoch
    /// keeps it alive.
    pub fn retire<T: Send + 'static>(&self, obj: T) {
        let stamp = self.inner.epoch.fetch_add(1, Ordering::AcqRel);
        self.inner.limbo.lock().push((stamp, Box::new(obj)));
        self.inner.counters.retired.inc();
    }

    /// Drop every retired object whose stamp is older than all active
    /// readers. Returns how many objects were reclaimed.
    pub fn try_reclaim(&self) -> usize {
        let horizon = self
            .min_active()
            .unwrap_or_else(|| self.inner.epoch.load(Ordering::Acquire));
        let mut limbo = self.inner.limbo.lock();
        let before = limbo.len();
        limbo.retain(|(stamp, _)| *stamp >= horizon);
        let freed = before - limbo.len();
        drop(limbo);
        self.inner.counters.reclaimed.add(freed as u64);
        freed
    }

    /// Objects currently waiting in the limbo queue.
    pub fn pending(&self) -> usize {
        self.inner.limbo.lock().len()
    }

    /// Lifetime counters.
    pub fn counters(&self) -> &EpochCounters {
        &self.inner.counters
    }
}

/// RAII pin on an epoch; dropping it lets retirement horizons advance past
/// the reader.
pub struct EpochGuard {
    inner: Arc<Inner>,
    epoch: u64,
}

impl EpochGuard {
    /// The epoch this guard pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Clone for EpochGuard {
    /// Re-pin the *same* epoch as the original guard. Parallel scan workers
    /// clone the scan's guard so every thread of one query shares one epoch
    /// window: pages retired after the scan began stay alive until the last
    /// worker drains, exactly as for a single-threaded reader.
    fn clone(&self) -> Self {
        *self.inner.active.lock().entry(self.epoch).or_insert(0) += 1;
        EpochGuard {
            inner: Arc::clone(&self.inner),
            epoch: self.epoch,
        }
    }
}

impl Drop for EpochGuard {
    fn drop(&mut self) {
        let mut active = self.inner.active.lock();
        if let Some(count) = active.get_mut(&self.epoch) {
            *count -= 1;
            if *count == 0 {
                active.remove(&self.epoch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Object whose drop is observable.
    struct Tracked(Arc<AtomicBool>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn reclaim_waits_for_active_readers() {
        let em = EpochManager::new();
        let dropped = Arc::new(AtomicBool::new(false));

        let guard = em.pin(); // long-running query starts before the merge
        em.retire(Tracked(Arc::clone(&dropped)));
        assert_eq!(em.try_reclaim(), 0, "reader pinned before retire blocks");
        assert!(!dropped.load(Ordering::SeqCst));

        drop(guard);
        assert_eq!(em.try_reclaim(), 1);
        assert!(dropped.load(Ordering::SeqCst));
    }

    #[test]
    fn readers_after_retire_do_not_block() {
        let em = EpochManager::new();
        let dropped = Arc::new(AtomicBool::new(false));
        em.retire(Tracked(Arc::clone(&dropped)));
        let _late_reader = em.pin(); // began after the merge: sees new pages
        assert_eq!(em.try_reclaim(), 1);
        assert!(dropped.load(Ordering::SeqCst));
    }

    #[test]
    fn idle_manager_reclaims_everything() {
        let em = EpochManager::new();
        for i in 0..10u32 {
            em.retire(i);
        }
        assert_eq!(em.pending(), 10);
        assert_eq!(em.try_reclaim(), 10);
        assert_eq!(em.pending(), 0);
        assert_eq!(
            em.counters().snapshot(),
            EpochStats {
                retired: 10,
                reclaimed: 10
            }
        );
    }

    #[test]
    fn cloned_guard_keeps_the_window_pinned() {
        let em = EpochManager::new();
        let dropped = Arc::new(AtomicBool::new(false));

        let scan = em.pin();
        let worker = scan.clone(); // same epoch, second pin
        assert_eq!(scan.epoch(), worker.epoch());
        em.retire(Tracked(Arc::clone(&dropped)));

        drop(scan); // the coordinating thread finishes first
        assert_eq!(em.try_reclaim(), 0, "cloned worker guard still pins");
        assert!(!dropped.load(Ordering::SeqCst));

        drop(worker);
        assert_eq!(em.try_reclaim(), 1);
        assert!(dropped.load(Ordering::SeqCst));
    }

    #[test]
    fn overlapping_readers_hold_only_their_window() {
        let em = EpochManager::new();
        let d1 = Arc::new(AtomicBool::new(false));
        let d2 = Arc::new(AtomicBool::new(false));

        let old_reader = em.pin();
        em.retire(Tracked(Arc::clone(&d1))); // old_reader must keep d1 alive
        let new_reader = em.pin();
        em.retire(Tracked(Arc::clone(&d2))); // new_reader must keep d2 alive

        drop(old_reader);
        em.try_reclaim();
        assert!(d1.load(Ordering::SeqCst), "d1 only guarded by old reader");
        assert!(!d2.load(Ordering::SeqCst), "d2 still guarded by new reader");

        drop(new_reader);
        em.try_reclaim();
        assert!(d2.load(Ordering::SeqCst));
    }
}
