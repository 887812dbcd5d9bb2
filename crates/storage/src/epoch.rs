//! Epoch-based, contention-free page de-allocation (§4.1.1 step 5, Fig. 6).
//!
//! "The outdated base pages are de-allocated once the current readers are
//! drained naturally via an epoch-based approach. The epoch is defined as a
//! time window, in which the outdated base pages must be kept around as long
//! as there is an active query that started before the merge process.
//! Pointers to the outdated base pages are kept in a queue to be re-claimed
//! at the end of the query-driven epoch-window."
//!
//! Readers pin the current epoch with [`EpochManager::pin`]. Each thread
//! owns one slot per manager, on a cache line of its own: registered the
//! first time the thread pins there, handed back when the thread exits.
//! The outermost pin stores the current epoch into the slot and fences;
//! nested pins only count. Writers unpublish an object and hand it to
//! [`EpochManager::retire`], which stamps it with the epoch *before*
//! advancing it; [`EpochManager::try_reclaim`] drops everything stamped
//! before the oldest pinned slot (Fraser's epoch-based reclamation).
//!
//! Two safe types publish through an epoch, and they hold the only
//! `unsafe` code that relies on it: [`EpochCell`] below (a range's base
//! version) and the tail directory [`crate::tail::AppendVec`]. Both take the
//! pin as a typed argument: a reference they hand out lives no longer than
//! the [`EpochGuard`] it was read under.
//!
//! **Why a pinned reader never sees freed memory.** A reader stores its
//! epoch `e` (loaded after any retire it can observe), fences, then loads
//! pointers. A writer swaps a pointer out, then takes its stamp `s` with a
//! read-modify-write of the epoch, so a reader that loaded the old pointer
//! loaded `e ≤ s`. The reclaimer loads the epoch, fences, then reads the
//! slots: either the reader's fence came first and its slot is seen
//! (holding `e ≤ s`, so the object stays), or the reclaimer's came first and
//! the reader's later pointer loads see the swap, so it never held the
//! object.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

/// A slot's epoch while its thread holds no pin.
const UNPINNED: u64 = u64::MAX;

/// One thread's pin on one manager. Aligned to a cache line so that
/// pinning writes a line no other thread writes.
#[repr(align(64))]
struct Slot {
    /// The epoch the thread pinned; [`UNPINNED`] when it holds no guard.
    epoch: AtomicU64,
    /// Guards the owning thread holds. Only the owner touches it.
    nest: AtomicU32,
    /// Whether a thread owns the slot.
    owned: AtomicBool,
}

/// Shared state behind the manager and its guards.
struct Inner {
    /// Monotone epoch counter.
    epoch: AtomicU64,
    /// Every slot ever handed out; slots are reused, never removed, so a
    /// `&Slot` stays valid as long as the manager does.
    slots: Mutex<Vec<Arc<Slot>>>,
    /// Retired objects awaiting reclamation, stamped with their retire epoch.
    limbo: Mutex<Vec<(u64, Box<dyn Send>)>>,
    counters: EpochCounters,
}

impl Inner {
    /// A free slot (or a new one), now owned by the caller.
    fn claim_slot(&self) -> Arc<Slot> {
        let mut slots = self.slots.lock();
        let free = slots.iter().find(|slot| {
            slot.owned
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        });
        if let Some(slot) = free {
            return Arc::clone(slot);
        }
        let slot = Arc::new(Slot {
            epoch: AtomicU64::new(UNPINNED),
            nest: AtomicU32::new(0),
            owned: AtomicBool::new(true),
        });
        slots.push(Arc::clone(&slot));
        slot
    }

    /// The epochs of the slots pinned now.
    fn pinned_epochs(&self) -> Vec<u64> {
        self.slots
            .lock()
            .iter()
            .map(|slot| slot.epoch.load(Ordering::Acquire))
            .filter(|&epoch| epoch != UNPINNED)
            .collect()
    }
}

/// A thread's slot on one manager, kept in the thread's registry. Dropped
/// when the thread exits (or once its manager is gone), which hands the
/// slot back.
struct Registration {
    manager: Weak<Inner>,
    slot: Arc<Slot>,
}

impl Drop for Registration {
    fn drop(&mut self) {
        // A guard that outlives its thread's registry (one kept in another
        // thread-local) unpins the slot itself; such a slot stays owned and
        // is never handed to another thread.
        if self.slot.nest.load(Ordering::Relaxed) == 0 {
            self.slot.epoch.store(UNPINNED, Ordering::Release);
            self.slot.owned.store(false, Ordering::Release);
        }
    }
}

/// This thread's slot on every manager it has pinned.
struct Registry(Vec<Registration>);

impl Drop for Registry {
    fn drop(&mut self) {
        // The slots go back with the registrations: forget the shortcut.
        LAST.set((ptr::null(), ptr::null()));
    }
}

thread_local! {
    static REGISTRY: RefCell<Registry> = const { RefCell::new(Registry(Vec::new())) };
    /// The manager this thread pinned last and its slot there: the
    /// registry's entry for it, kept where reaching it costs no lazy
    /// initialization and no borrow flag. Cleared whenever that entry
    /// could go (the registry dropping, or pruning dead managers).
    static LAST: Cell<(*const Inner, *const Slot)> = const { Cell::new((ptr::null(), ptr::null())) };
}

crate::metric_set! {
    /// The reclamation counters of an [`EpochManager`].
    pub struct EpochCounters;
    /// A reading of [`EpochCounters`], with the manager's gauges.
    pub struct EpochStats {
        /// Objects retired (queued for reclamation).
        retired: Counter,
        /// Retired objects dropped once no reader could reach them.
        reclaimed: Counter,
    }
    gauges {
        /// Retired objects waiting in the limbo now.
        pending: u64,
        /// The current epoch minus the oldest pinned one: how many retires
        /// the oldest pinned reader holds back (0 when nothing is pinned).
        lag: u64,
        /// Threads pinned now.
        pinned: u64,
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

impl fmt::Debug for EpochManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochManager")
            .field("epoch", &self.current())
            .finish_non_exhaustive()
    }
}

impl EpochManager {
    /// Create a manager starting at epoch 0.
    pub fn new() -> Self {
        EpochManager {
            inner: Arc::new(Inner {
                epoch: AtomicU64::new(0),
                slots: Mutex::new(Vec::new()),
                limbo: Mutex::new(Vec::new()),
                counters: EpochCounters::default(),
            }),
        }
    }

    /// Current epoch value.
    pub fn current(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Pin the current epoch on this thread for the lifetime of the
    /// returned guard. Queries hold one guard for their whole execution;
    /// a pin inside a pin only counts.
    pub fn pin(&self) -> EpochGuard<'_> {
        let (slot, transient) = self.slot();
        let nest = slot.nest.load(Ordering::Relaxed);
        let epoch = if nest == 0 {
            let epoch = self.inner.epoch.load(Ordering::Acquire);
            slot.epoch.store(epoch, Ordering::Relaxed);
            // Orders the slot store before every load made under the pin
            // (see the module docs).
            fence(Ordering::SeqCst);
            epoch
        } else {
            slot.epoch.load(Ordering::Relaxed)
        };
        slot.nest.store(nest + 1, Ordering::Relaxed);
        EpochGuard {
            inner: &self.inner,
            slot,
            epoch,
            transient,
            _not_send: PhantomData,
        }
    }

    /// This thread's slot, registered on first use. `true` marks a slot
    /// claimed for one guard only, when the thread's registry is already
    /// gone (a pin from another thread-local's destructor).
    #[inline]
    fn slot(&self) -> (&Slot, bool) {
        let inner: &Inner = &self.inner;
        let (last, at) = LAST.get();
        let (at, transient) = if ptr::eq(last, inner) {
            (at, false)
        } else {
            self.slot_slow()
        };
        // SAFETY: `inner.slots` holds an `Arc` of every slot it handed out
        // and never drops one, so the slot lives as long as `inner`, which
        // the returned borrow of `self` keeps alive. `LAST` names `inner`
        // only while this thread's registry holds `inner`'s entry, whose
        // `Weak` keeps another manager from reusing `inner`'s address.
        (unsafe { &*at }, transient)
    }

    /// [`Self::slot`] past the one-entry shortcut: find or register the
    /// slot in the thread's registry, and remember it in `LAST`.
    #[cold]
    fn slot_slow(&self) -> (*const Slot, bool) {
        let inner: &Inner = &self.inner;
        let registered = REGISTRY.try_with(|registry| {
            let registry = &mut registry.borrow_mut().0;
            let found = registry
                .iter()
                .find(|r| ptr::eq(r.manager.as_ptr(), inner))
                .map(|r| Arc::as_ptr(&r.slot));
            let at = found.unwrap_or_else(|| {
                LAST.set((ptr::null(), ptr::null()));
                registry.retain(|r| r.manager.strong_count() > 0);
                let slot = inner.claim_slot();
                let at = Arc::as_ptr(&slot);
                registry.push(Registration {
                    manager: Arc::downgrade(&self.inner),
                    slot,
                });
                at
            });
            LAST.set((inner, at));
            at
        });
        match registered {
            Ok(at) => (at, false),
            Err(_) => (Arc::as_ptr(&inner.claim_slot()), true),
        }
    }

    /// Oldest epoch still pinned by an active reader, or `None` when idle.
    pub fn min_active(&self) -> Option<u64> {
        self.inner.pinned_epochs().into_iter().min()
    }

    /// Retire an object: advance the epoch and queue the object stamped with
    /// the *pre-advance* epoch, so any reader pinned at or before that epoch
    /// keeps it alive. The caller must have unpublished the object first.
    pub fn retire<T: Send + 'static>(&self, obj: T) {
        let stamp = self.inner.epoch.fetch_add(1, Ordering::SeqCst);
        self.inner.limbo.lock().push((stamp, Box::new(obj)));
        self.inner.counters.retired.inc();
    }

    /// Run `f` once every reader pinned now has unpinned (at a later
    /// [`Self::try_reclaim`], or when the manager drops): for a change that
    /// readers already past a published check must not see mid-read.
    pub fn defer(&self, f: impl FnOnce() + Send + 'static) {
        self.retire(Deferred(Some(Box::new(f))));
    }

    /// Drop every retired object whose stamp is older than all pinned
    /// readers. Returns how many objects were reclaimed.
    pub fn try_reclaim(&self) -> usize {
        let now = self.inner.epoch.load(Ordering::SeqCst);
        // Pairs with the fence of `pin` (see the module docs).
        fence(Ordering::SeqCst);
        let horizon = self.min_active().map_or(now, |oldest| oldest.min(now));
        let freed: Vec<_> = {
            let mut limbo = self.inner.limbo.lock();
            let (keep, freed) = limbo.drain(..).partition(|(stamp, _)| *stamp >= horizon);
            *limbo = keep;
            freed
        };
        // Dropped outside the lock: a base version can be megabytes.
        let n = freed.len();
        drop(freed);
        self.inner.counters.reclaimed.add(n as u64);
        n
    }

    /// Objects currently waiting in the limbo queue.
    pub fn pending(&self) -> usize {
        self.inner.limbo.lock().len()
    }

    /// The counters and the gauges, read one after another.
    pub fn stats(&self) -> EpochStats {
        let pinned = self.inner.pinned_epochs();
        let now = self.current();
        EpochStats {
            pending: self.pending() as u64,
            lag: pinned
                .iter()
                .min()
                .map_or(0, |&oldest| now.saturating_sub(oldest)),
            pinned: pinned.len() as u64,
            ..self.inner.counters.snapshot()
        }
    }
}

/// A closure [`EpochManager::defer`] runs when its limbo entry drops.
struct Deferred(Option<Box<dyn FnOnce() + Send>>);

impl Drop for Deferred {
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f();
        }
    }
}

/// A pin on an epoch, held by one thread; dropping the thread's last guard
/// lets retirement horizons advance past it.
///
/// A guard cannot move to another thread (its drop unpins its own
/// thread's slot), but it can be shared: a scan's workers read under the
/// scan's guard, which the scan holds until they are done.
pub struct EpochGuard<'a> {
    inner: &'a Inner,
    slot: &'a Slot,
    epoch: u64,
    /// The slot was claimed for this guard alone and is handed back on drop.
    transient: bool,
    _not_send: PhantomData<*const ()>,
}

// SAFETY: through `&EpochGuard` another thread reads `epoch` and
// `transient` (plain values), compares `inner`'s address (`Inner` is
// `Sync`) and never touches `slot`, which only `pin` and `drop` write, on
// the owning thread. What other threads load under a shared guard is
// protected by the owner's pin, which lasts while they borrow the guard.
unsafe impl Sync for EpochGuard<'_> {}

impl EpochGuard<'_> {
    /// The epoch this guard pins (its thread's outermost pin).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this guard pins the manager `retirer` retires into.
    #[inline]
    pub(crate) fn pins(&self, retirer: &Retirer) -> bool {
        ptr::eq(self.inner, retirer.0.as_ptr())
    }
}

/// What a structure that retires into a manager keeps of it: a reference
/// that does not keep the manager alive. A manager's limbo may hold such a
/// structure (a retired insert-phase base version holds tail columns), and
/// a strong reference back would keep the two alive forever.
#[derive(Clone)]
pub(crate) struct Retirer(Weak<Inner>);

impl Retirer {
    pub(crate) fn new(manager: &EpochManager) -> Retirer {
        Retirer(Arc::downgrade(&manager.inner))
    }

    /// [`EpochManager::retire`], or a drop now once the manager is gone:
    /// every guard borrows a live manager, so then no reader remains.
    pub(crate) fn retire<T: Send + 'static>(&self, obj: T) {
        if let Some(inner) = self.0.upgrade() {
            EpochManager { inner }.retire(obj);
        }
    }
}

impl fmt::Debug for EpochGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochGuard")
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        let nest = self.slot.nest.load(Ordering::Relaxed) - 1;
        self.slot.nest.store(nest, Ordering::Relaxed);
        if nest == 0 {
            // Release: every read made under the pin happens before a
            // reclaimer that sees the slot unpinned frees anything.
            self.slot.epoch.store(UNPINNED, Ordering::Release);
            if self.transient {
                self.slot.owned.store(false, Ordering::Release);
            }
        }
    }
}

/// An object published through an atomic pointer: loads borrow it under a
/// pin, and a swap retires the old object into its manager's limbo, so a
/// load costs one acquire load and takes no lock or reference count.
pub struct EpochCell<T: Send + Sync + 'static> {
    /// From `Box::into_raw`; never null. The cell owns the object.
    ptr: AtomicPtr<T>,
    epoch: Retirer,
    _owns: PhantomData<Box<T>>,
}

impl<T: Send + Sync + 'static> EpochCell<T> {
    /// Publish `value`; later swaps retire into `epoch`.
    pub fn new(value: T, epoch: &EpochManager) -> Self {
        EpochCell {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
            epoch: Retirer::new(epoch),
            _owns: PhantomData,
        }
    }

    /// The published object, borrowed for as long as `guard` pins.
    ///
    /// # Panics
    ///
    /// When `guard` pins another manager than the one this cell retires
    /// into: such a pin would not keep the object alive.
    #[inline]
    pub fn load<'g>(&'g self, guard: &'g EpochGuard<'_>) -> &'g T {
        assert!(
            guard.pins(&self.epoch),
            "EpochCell loaded under another manager's pin"
        );
        // SAFETY: the pointer came from `Box::into_raw` and is never null.
        // An object swapped out is retired into `self.epoch`, whose limbo
        // keeps it until no pin older than the retire remains, and `guard`
        // pins that manager for at least 'g. The object the cell still owns
        // is dropped only with the cell, which 'g borrows.
        unsafe { &*self.ptr.load(Ordering::Acquire) }
    }

    /// Publish `value` and retire the object it replaces.
    pub fn swap(&self, value: T) {
        let old = self
            .ptr
            .swap(Box::into_raw(Box::new(value)), Ordering::AcqRel);
        // SAFETY: `old` came from `Box::into_raw`, and the swap moved its
        // ownership from the cell to here; readers pinned before the swap
        // may still borrow it, which is why it goes to the limbo.
        self.epoch.retire(unsafe { Box::from_raw(old) });
    }
}

impl<T: Send + Sync + 'static> Drop for EpochCell<T> {
    fn drop(&mut self) {
        // SAFETY: the cell owns the object (see `ptr`), and `&mut self`
        // proves no load borrows it.
        drop(unsafe { Box::from_raw(*self.ptr.get_mut()) });
    }
}

impl<T: Send + Sync + 'static> fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochCell").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

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
            em.stats(),
            EpochStats {
                retired: 10,
                reclaimed: 10,
                ..EpochStats::default()
            }
        );
    }

    #[test]
    fn nested_pins_hold_the_outer_epoch_until_the_last_drops() {
        let em = EpochManager::new();
        let dropped = Arc::new(AtomicBool::new(false));
        let outer = em.pin();
        em.retire(0u8); // advances the epoch
        let inner = em.pin();
        assert_eq!(
            inner.epoch(),
            outer.epoch(),
            "a nested pin keeps the outer epoch"
        );
        em.retire(Tracked(Arc::clone(&dropped)));
        assert_eq!(em.stats().pinned, 1, "one thread, one slot");

        drop(outer); // the inner guard still pins
        assert_eq!(em.try_reclaim(), 0);
        assert!(!dropped.load(Ordering::SeqCst));

        drop(inner);
        assert_eq!(em.try_reclaim(), 2);
        assert!(dropped.load(Ordering::SeqCst));
        assert_eq!(em.stats().pinned, 0);
    }

    #[test]
    fn a_thread_that_exits_frees_its_slot() {
        let em = EpochManager::new();
        // `join` returns once the thread's thread-locals are destroyed.
        let spawn = |body: Box<dyn FnOnce(&EpochManager) + Send>| {
            let em = em.clone();
            thread::spawn(move || body(&em))
        };
        spawn(Box::new(|em| drop(em.pin()))).join().unwrap();
        assert_eq!(em.inner.slots.lock().len(), 1);
        assert!(
            !em.inner.slots.lock()[0].owned.load(Ordering::Acquire),
            "the exited thread's slot is free"
        );
        // The next thread to pin reuses it rather than growing the list,
        // and holds back what is retired while it is pinned.
        let dropped = Arc::new(AtomicBool::new(false));
        let (pinned, wait_pinned) = mpsc::channel();
        let (exit, wait_exit) = mpsc::channel::<()>();
        let reader = spawn(Box::new(move |em| {
            let _guard = em.pin();
            pinned.send(()).unwrap();
            wait_exit.recv().unwrap();
        }));
        wait_pinned.recv().unwrap();
        assert_eq!(em.inner.slots.lock().len(), 1);
        assert_eq!(em.stats().pinned, 1);
        em.retire(Tracked(Arc::clone(&dropped)));
        assert_eq!(em.try_reclaim(), 0, "the pinned thread holds it");
        assert!(!dropped.load(Ordering::SeqCst));
        exit.send(()).unwrap();
        reader.join().unwrap();
        assert_eq!(em.try_reclaim(), 1, "the exited thread holds nothing");
        assert!(dropped.load(Ordering::SeqCst));
        // Two threads pinned at once need two slots.
        let main = em.pin();
        spawn(Box::new(|em| {
            let _guard = em.pin();
            assert_eq!(em.stats().pinned, 2);
        }))
        .join()
        .unwrap();
        drop(main);
        assert_eq!(em.inner.slots.lock().len(), 2);
        assert_eq!(em.stats().pinned, 0);
    }

    #[test]
    fn a_shared_guard_keeps_the_window_for_its_borrowers() {
        let em = EpochManager::new();
        let dropped = Arc::new(AtomicBool::new(false));
        let scan = em.pin();
        em.retire(Tracked(Arc::clone(&dropped)));
        thread::scope(|s| {
            // A worker reads under the scan's guard; the scan outlives it.
            s.spawn(|| {
                assert_eq!(scan.epoch(), 0);
                assert_eq!(em.try_reclaim(), 0, "the borrowed pin still holds");
            });
        });
        drop(scan);
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
        thread::scope(|s| {
            // Made in the scope, so that a failed assertion drops `stop`
            // and the reader ends instead of hanging the scope.
            let (start, started) = mpsc::channel();
            let (stop, stopped) = mpsc::channel::<()>();
            let em = &em;
            s.spawn(move || {
                let _new_reader = em.pin();
                start.send(()).unwrap();
                stopped.recv().unwrap();
            });
            started.recv().unwrap();
            em.retire(Tracked(Arc::clone(&d2))); // new_reader must keep d2 alive

            drop(old_reader);
            em.try_reclaim();
            assert!(d1.load(Ordering::SeqCst), "d1 only guarded by old reader");
            assert!(!d2.load(Ordering::SeqCst), "d2 still guarded by new reader");
            stop.send(()).unwrap();
        });
        em.try_reclaim();
        assert!(d2.load(Ordering::SeqCst));
    }

    #[test]
    fn gauges_read_the_limbo_the_lag_and_the_pins() {
        let em = EpochManager::new();
        em.retire(0u8);
        let reader = em.pin(); // pinned at epoch 1
        em.retire(1u8);
        em.retire(2u8);
        assert_eq!(em.try_reclaim(), 1, "only the retire before the pin goes");
        let stats = em.stats();
        assert_eq!((stats.pending, stats.lag, stats.pinned), (2, 2, 1));
        drop(reader);
        em.try_reclaim();
        let stats = em.stats();
        assert_eq!((stats.pending, stats.lag, stats.pinned), (0, 0, 0));
        assert_eq!((stats.retired, stats.reclaimed), (3, 3));
    }

    #[test]
    fn a_swapped_cell_keeps_the_old_value_for_a_reader_on_another_thread() {
        let em = EpochManager::new();
        let dropped = Arc::new(AtomicBool::new(false));
        let cell = EpochCell::new((1u64, Tracked(Arc::clone(&dropped))), &em);
        thread::scope(|s| {
            let (pinned, wait_pinned) = mpsc::channel();
            let (swapped, wait_swapped) = mpsc::channel::<()>();
            let (em, cell) = (&em, &cell);
            let reader = s.spawn(move || {
                let guard = em.pin();
                let old = cell.load(&guard);
                pinned.send(()).unwrap();
                wait_swapped.recv().unwrap();
                // Retired and reclaimed in between, yet still readable.
                let value = old.0;
                drop(guard);
                value
            });
            wait_pinned.recv().unwrap();
            cell.swap((2, Tracked(Arc::new(AtomicBool::new(false)))));
            assert_eq!(em.try_reclaim(), 0, "the pinned reader holds the old value");
            assert!(!dropped.load(Ordering::SeqCst));
            swapped.send(()).unwrap();
            assert_eq!(reader.join().unwrap(), 1);
        });
        assert_eq!(em.try_reclaim(), 1);
        assert!(
            dropped.load(Ordering::SeqCst),
            "dropped once the reader unpinned"
        );
        assert_eq!(cell.load(&em.pin()).0, 2);
    }

    #[test]
    fn a_retired_column_does_not_keep_its_manager_alive() {
        let em = EpochManager::new();
        let manager = Arc::downgrade(&em.inner);
        let reader = em.pin();
        // What a merge retires from an insert range: tail columns that
        // retire into the same manager.
        let cell = EpochCell::new(crate::tail::AppendVec::new(4, &em), &em);
        cell.swap(crate::tail::AppendVec::new(4, &em));
        assert_eq!(em.try_reclaim(), 0);
        drop(reader);
        drop((cell, em)); // never reclaimed
        assert!(
            manager.upgrade().is_none(),
            "the manager and its limbo are freed"
        );
    }

    #[test]
    #[should_panic(expected = "another manager")]
    fn a_cell_refuses_another_managers_pin() {
        let (a, b) = (EpochManager::new(), EpochManager::new());
        let cell = EpochCell::new(1u8, &a);
        let _ = cell.load(&b.pin());
    }
}
