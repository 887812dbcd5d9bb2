//! The transaction manager's state table.
//!
//! "The transaction manager also maintains the state of each transaction and
//! its begin/commit time in a hashtable. Each transaction has four states:
//! active, pre-commit, committed, and aborted" (§5.1.1). Transaction ids are
//! dense and monotone, so the "hashtable" here is a **dense table indexed by
//! the id**: fixed-size pages of entries behind a write-once directory, no
//! hashing and no lock on any transaction's path. `begin` is one `fetch_add`
//! plus two stores, every state change one store, a lookup two loads after
//! the directory.
//!
//! **Collection.** A transaction whose every Start Time cell holds a commit
//! timestamp needs no entry any more — and an aborted one never did, since
//! "unknown id" already reads as invisible. The engine therefore
//! [`retire`](TxnManager::retire)s an id once it has stamped the cells a
//! commit wrote (an abort retires at once), and a page whose entries have
//! all retired is reused for a later id range. Page memory is type-stable —
//! a directory slot keeps pointing at its page after the page moved on to
//! another range — and each page names the range it currently serves, which
//! a lookup re-checks after loading the state, so no reader dereferences
//! freed memory or pays a refcount. The race between a reader holding an id
//! and that id retiring is settled by [`TxnManager::resolve_start_time`],
//! the **one resolver** every visibility decision goes through: an id that
//! is no longer tracked makes it read the cell again — a timestamp means the
//! committer stamped it (stamp happens-before retire happens-before reuse),
//! the same id means the owner aborted.
//!
//! **Concurrent commit visibility.** Writers on many threads touch many
//! update ranges at once, but every transaction — whichever ranges its
//! writes touch — draws its begin and commit timestamps from the one
//! [`GlobalClock`] through this manager. Commit timestamps therefore form a
//! single total order across all ranges, and a snapshot timestamp `ts`
//! names the same consistent cut of every range: parallel writers never
//! weaken snapshot semantics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::{GlobalClock, TXN_ID_FLAG};

/// Entries per page, as a power of two: 1024 entries of 16 bytes.
const PAGE_BITS: u32 = 10;
/// Directory slots per slab.
const SLAB_BITS: u32 = 12;
/// Directory slabs. `2^(13 + 12 + 10)` ids — 34 billion transactions —
/// before [`TxnManager::begin`] panics; a slot costs 16 bytes per page of
/// ids ever issued, the table's only memory that grows with them.
const MAX_SLABS: usize = 1 << 13;
/// Entries sharing one cache line.
const LINE_ENTRIES: usize = 4;

/// The state word of an entry is `payload << TAG_BITS | tag`: the commit
/// timestamp under `PRE_COMMIT` and `COMMITTED`, the number of the page's
/// id range under `RETIRED` (so that a recycled page's entries do not look
/// retired to the range it serves next), nothing otherwise.
const TAG_BITS: u32 = 3;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
/// Never begun since the page was allocated.
const VACANT: u64 = 0;
const ACTIVE: u64 = 1;
const PRE_COMMIT: u64 = 2;
const COMMITTED: u64 = 3;
const ABORTED: u64 = 4;
const RETIRED: u64 = 5;

/// Lifecycle states of a transaction (§5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Executing reads and writes.
    Active,
    /// Finished its operations, validating reads; its writes are visible to
    /// *speculative* readers only.
    PreCommit,
    /// Durably committed; writes visible to all readers per begin time.
    Committed,
    /// Rolled back; its tail records are tombstones skipped by readers.
    Aborted,
}

/// Per-transaction bookkeeping held in the manager's table.
#[derive(Debug, Clone, Copy)]
pub struct TxnInfo {
    /// Current lifecycle state.
    pub status: TxnStatus,
    /// Begin timestamp from the global clock.
    pub begin: u64,
    /// Commit timestamp (0 until the transaction enters pre-commit).
    pub commit: u64,
}

/// What a Start Time cell says about its version, as
/// [`TxnManager::resolve_start_time`] decides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartTime {
    /// Committed at this timestamp: the cell holds it, or its owner
    /// committed with it (the caller may lazily swap the cell).
    Committed(u64),
    /// The owner is validating; this is its tentative commit timestamp,
    /// visible to speculative readers only (§5.1.1 speculative-read).
    PreCommit(u64),
    /// The owner is still executing.
    Active,
    /// The owner rolled back: a tombstone, skipped by every reader.
    Aborted,
}

impl StartTime {
    /// The timestamp a reader sees the version at, `None` when it must
    /// skip it; `speculative` readers also accept pre-committed versions.
    #[inline]
    pub fn visible(self, speculative: bool) -> Option<u64> {
        match self {
            StartTime::Committed(ts) => Some(ts),
            StartTime::PreCommit(ts) if speculative => Some(ts),
            _ => None,
        }
    }

    /// The owner has neither committed nor aborted yet.
    #[inline]
    pub fn in_flight(self) -> bool {
        matches!(self, StartTime::Active | StartTime::PreCommit(_))
    }
}

#[derive(Debug)]
struct Entry {
    state: AtomicU64,
    begin: AtomicU64,
}

/// Consecutive ids land on different lines (see [`Page::entry`]), so two
/// threads running neighbouring transactions do not write one line.
#[derive(Debug)]
#[repr(align(64))]
struct Line([Entry; LINE_ENTRIES]);

#[derive(Debug)]
struct Page {
    /// Number of the id range (`id >> page_bits`) the entries belong to.
    /// Written by whoever takes the page for a new range, before the
    /// directory publishes it there.
    serves: AtomicU64,
    lines: Box<[Line]>,
}

impl Page {
    fn new(serves: u64, page_bits: u32) -> Page {
        let vacant = || Entry {
            state: AtomicU64::new(VACANT),
            begin: AtomicU64::new(0),
        };
        Page {
            serves: AtomicU64::new(serves),
            lines: (0..(1usize << page_bits) / LINE_ENTRIES)
                .map(|_| Line(std::array::from_fn(|_| vacant())))
                .collect(),
        }
    }

    /// Entry number `at` of the page: the line from the low bits, the
    /// place in the line from the high ones (the line count is a power of
    /// two).
    #[inline]
    fn entry(&self, at: usize) -> &Entry {
        let lines = self.lines.len();
        &self.lines[at & (lines - 1)].0[at >> lines.trailing_zeros()]
    }
}

/// Pages in use and pages free for reuse; the lock is taken once per page
/// of ids, by the `begin` that opens the page.
#[derive(Debug, Default)]
struct Pool {
    /// Each page in use, with the number of its entries (in [`Page::entry`]
    /// order) already seen retired.
    live: Vec<(Arc<Page>, usize)>,
    free: Vec<Arc<Page>>,
}

type Slab = Box<[OnceLock<Arc<Page>>]>;

/// Dense, lock-free transaction state table.
#[derive(Debug)]
pub struct TxnManager {
    /// Page of id range `r` at `slabs[r >> SLAB_BITS][r & (SLAB - 1)]`,
    /// write-once. Slots of ranges long retired keep their page, which by
    /// then serves another range.
    slabs: Box<[OnceLock<Slab>]>,
    pool: Mutex<Pool>,
    page_bits: u32,
    next_id: NextId,
}

/// The id counter, written by every `begin`, on a cache line of its own:
/// the fields beside it are read by every lookup.
#[derive(Debug)]
#[repr(align(64))]
struct NextId(AtomicU64);

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// Create an empty manager.
    pub fn new() -> Self {
        Self::with_page_bits(PAGE_BITS)
    }

    /// A manager with `1 << page_bits` entries per page (at least 4), so
    /// that tests make pages recycle every few transactions.
    #[doc(hidden)]
    pub fn with_page_bits(page_bits: u32) -> Self {
        assert!(
            (2..=PAGE_BITS).contains(&page_bits),
            "a page holds 4 to 1024 entries"
        );
        TxnManager {
            slabs: (0..MAX_SLABS).map(|_| OnceLock::new()).collect(),
            pool: Mutex::new(Pool::default()),
            page_bits,
            next_id: NextId(AtomicU64::new(1)),
        }
    }

    fn pool(&self) -> std::sync::MutexGuard<'_, Pool> {
        // Every update of the pool leaves it valid at every step.
        self.pool.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[inline]
    fn split(&self, txn_id: u64) -> (u64, usize) {
        let n = txn_id & !TXN_ID_FLAG;
        (
            n >> self.page_bits,
            (n & ((1 << self.page_bits) - 1)) as usize,
        )
    }

    /// The entry of `txn_id` and its state word, `None` when the table no
    /// longer tracks the id (retired, its page possibly serving another
    /// range by now) or never did.
    #[inline]
    fn entry(&self, txn_id: u64) -> Option<(&Entry, u64)> {
        let (range, at) = self.split(txn_id);
        let slab = self.slabs.get((range >> SLAB_BITS) as usize)?.get()?;
        let page = slab[(range & ((1 << SLAB_BITS) - 1)) as usize].get()?;
        let entry = page.entry(at);
        let state = entry.state.load(Ordering::Acquire);
        // The state first, the range after: a page is given its next range
        // before any entry of that range is stored (Release), so a state
        // word of the next range is never taken for this id's.
        if page.serves.load(Ordering::Acquire) != range {
            return None;
        }
        match state & TAG_MASK {
            VACANT | RETIRED => None,
            _ => Some((entry, state)),
        }
    }

    /// The page a `begin` in id range `range` writes to: taken from the
    /// free list or allocated by the first transaction of the range.
    fn page_for_begin(&self, range: u64) -> &Page {
        assert!(
            range < (MAX_SLABS as u64) << SLAB_BITS,
            "transaction id space exhausted"
        );
        let slab = self.slabs[(range >> SLAB_BITS) as usize]
            .get_or_init(|| (0..1usize << SLAB_BITS).map(|_| OnceLock::new()).collect());
        slab[(range & ((1 << SLAB_BITS) - 1)) as usize].get_or_init(|| {
            let mut pool = self.pool();
            let Pool { live, free } = &mut *pool;
            // Retirement is final for as long as a page serves its range,
            // so each sweep goes on from where the last one stopped.
            live.retain_mut(|(page, swept)| {
                let retired = RETIRED | page.serves.load(Ordering::Acquire) << TAG_BITS;
                let entries = 1usize << self.page_bits;
                while *swept < entries
                    && page.entry(*swept).state.load(Ordering::Acquire) == retired
                {
                    *swept += 1;
                }
                let done = *swept == entries;
                if done {
                    free.push(Arc::clone(page));
                }
                !done
            });
            let page = match free.pop() {
                Some(page) => {
                    page.serves.store(range, Ordering::Release);
                    page
                }
                None => Arc::new(Page::new(range, self.page_bits)),
            };
            live.push((Arc::clone(&page), 0));
            page
        })
    }

    /// Register a new transaction: draws a begin time from `clock`, assigns a
    /// "unique monotonically increasing transaction ID" and records it as
    /// active. Returns `(txn_id, begin_ts)`.
    pub fn begin(&self, clock: &GlobalClock) -> (u64, u64) {
        let begin = clock.tick();
        let id = TXN_ID_FLAG | self.next_id.0.fetch_add(1, Ordering::AcqRel);
        let (range, at) = self.split(id);
        let entry = self.page_for_begin(range).entry(at);
        entry.begin.store(begin, Ordering::Release);
        entry.state.store(ACTIVE, Ordering::Release);
        (id, begin)
    }

    /// Begin only ids above `txn_id` from now on: a reopened log holds
    /// every id up to it, and a new commit record under one of them would
    /// resolve that transaction's records too.
    pub fn issue_above(&self, txn_id: u64) {
        let floor = (txn_id & !TXN_ID_FLAG) + 1;
        self.next_id.0.fetch_max(floor, Ordering::AcqRel);
    }

    /// Look up a transaction's info; `None` once it has retired.
    pub fn get(&self, txn_id: u64) -> Option<TxnInfo> {
        let (entry, _) = self.entry(txn_id)?;
        let begin = entry.begin.load(Ordering::Acquire);
        // The state (and the page's range) after `begin`, as in `entry`:
        // still tracked now means `begin` was this transaction's too.
        let (_, state) = self.entry(txn_id)?;
        Some(TxnInfo {
            status: match state & TAG_MASK {
                ACTIVE => TxnStatus::Active,
                PRE_COMMIT => TxnStatus::PreCommit,
                COMMITTED => TxnStatus::Committed,
                _ => TxnStatus::Aborted,
            },
            begin,
            commit: state >> TAG_BITS,
        })
    }

    /// Atomically move an active transaction to pre-commit, stamping its
    /// commit time ("both changes are reflected atomically in the
    /// transaction manager's hashtable"). Returns the commit timestamp, or
    /// `None` — and draws no timestamp — when the transaction is not
    /// active (already pre-committed, finalized or retired).
    pub fn pre_commit(&self, txn_id: u64, clock: &GlobalClock) -> Option<u64> {
        let (entry, state) = self.entry(txn_id)?;
        if state != ACTIVE {
            return None;
        }
        let commit = clock.tick();
        entry
            .state
            .store(commit << TAG_BITS | PRE_COMMIT, Ordering::Release);
        Some(commit)
    }

    /// Finalize a pre-committed transaction as committed.
    pub fn commit(&self, txn_id: u64) {
        let (entry, state) = self.entry(txn_id).expect("unknown transaction");
        debug_assert_eq!(state & TAG_MASK, PRE_COMMIT);
        entry
            .state
            .store(state & !TAG_MASK | COMMITTED, Ordering::Release);
    }

    /// Mark a transaction aborted (valid from active or pre-commit).
    /// Returns false, changing nothing, when it was already finalized.
    pub fn abort(&self, txn_id: u64) -> bool {
        match self.entry(txn_id) {
            Some((entry, state)) if matches!(state & TAG_MASK, ACTIVE | PRE_COMMIT) => {
                entry.state.store(ABORTED, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// Stop tracking a finalized transaction. The caller — its owner —
    /// guarantees that no Start Time cell will need its commit timestamp
    /// from the table again: every cell a committed transaction wrote holds
    /// the timestamp by now; an aborted one's cells keep the id forever and
    /// read as aborted exactly because the id is unknown.
    pub fn retire(&self, txn_id: u64) {
        if let Some((entry, state)) = self.entry(txn_id) {
            debug_assert!(matches!(state & TAG_MASK, COMMITTED | ABORTED));
            let (range, _) = self.split(txn_id);
            entry
                .state
                .store(range << TAG_BITS | RETIRED, Ordering::Release);
        }
    }

    /// The one resolver: what the Start Time cell value `cell` says about
    /// its version. A plain timestamp is its own answer. A transaction id
    /// resolves through the table; when the table no longer tracks it, the
    /// owner has finalized *and* retired, and `reread` — which must load the
    /// same cell again (Acquire) — tells which way: the committer stamps
    /// its cells before it retires, so a timestamp there is the commit
    /// time, and the id still there means the owner aborted.
    #[inline]
    pub fn resolve_start_time(&self, cell: u64, reread: impl FnOnce() -> u64) -> StartTime {
        if !crate::is_txn_id(cell) {
            return StartTime::Committed(cell);
        }
        match self.entry(cell) {
            Some((_, state)) => match state & TAG_MASK {
                ACTIVE => StartTime::Active,
                PRE_COMMIT => StartTime::PreCommit(state >> TAG_BITS),
                COMMITTED => StartTime::Committed(state >> TAG_BITS),
                _ => StartTime::Aborted,
            },
            None => {
                let now = reread();
                // ∅ (a released tail page) carries bit 63 like an id does.
                if now & TXN_ID_FLAG == 0 {
                    StartTime::Committed(now)
                } else {
                    StartTime::Aborted
                }
            }
        }
    }

    /// Transaction slots of the pages in use — the table's footprint in
    /// transactions. Bounded by the page size times the pages that still
    /// hold an unretired transaction, however many ids were issued.
    pub fn tracked(&self) -> usize {
        self.pool().live.len() << self.page_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell that keeps holding `id`: what an aborted version's does.
    fn unstamped(id: u64) -> impl FnOnce() -> u64 {
        move || id
    }

    #[test]
    fn lifecycle_active_precommit_commit() {
        let clock = GlobalClock::new();
        let mgr = TxnManager::new();
        let (id, begin) = mgr.begin(&clock);
        assert!(crate::is_txn_id(id));
        let info = mgr.get(id).unwrap();
        assert_eq!((info.status, info.begin), (TxnStatus::Active, begin));

        let commit = mgr.pre_commit(id, &clock).unwrap();
        assert!(commit > begin);
        assert_eq!(mgr.get(id).unwrap().status, TxnStatus::PreCommit);
        assert_eq!(mgr.pre_commit(id, &clock), None, "only from active");

        mgr.commit(id);
        let info = mgr.get(id).unwrap();
        assert_eq!((info.status, info.commit), (TxnStatus::Committed, commit));
        assert!(!mgr.abort(id), "a committed transaction stays committed");
        assert_eq!(mgr.get(id).unwrap().status, TxnStatus::Committed);
    }

    #[test]
    fn resolve_start_time_visibility() {
        let clock = GlobalClock::new();
        let mgr = TxnManager::new();
        let (id, _) = mgr.begin(&clock);
        let resolve = |cell| mgr.resolve_start_time(cell, unstamped(cell));

        // Plain timestamps resolve to themselves.
        assert_eq!(resolve(42), StartTime::Committed(42));
        // Active transactions are invisible, even speculatively.
        assert_eq!(resolve(id), StartTime::Active);
        assert_eq!(resolve(id).visible(true), None);
        assert!(resolve(id).in_flight());

        let commit = mgr.pre_commit(id, &clock).unwrap();
        // Pre-commit: visible only to speculative readers.
        assert_eq!(resolve(id), StartTime::PreCommit(commit));
        assert_eq!(resolve(id).visible(false), None);
        assert_eq!(resolve(id).visible(true), Some(commit));

        mgr.commit(id);
        assert_eq!(resolve(id), StartTime::Committed(commit));
        assert_eq!(resolve(id).visible(false), Some(commit));
    }

    #[test]
    fn aborted_versions_are_invisible() {
        let clock = GlobalClock::new();
        let mgr = TxnManager::new();
        let (id, _) = mgr.begin(&clock);
        assert!(mgr.abort(id));
        assert_eq!(
            mgr.resolve_start_time(id, unstamped(id)),
            StartTime::Aborted
        );
        assert_eq!(StartTime::Aborted.visible(true), None);
        assert!(!mgr.abort(id), "already aborted");
    }

    #[test]
    fn a_retired_id_is_resolved_by_reading_the_cell_again() {
        let clock = GlobalClock::new();
        let mgr = TxnManager::new();
        let (committed, _) = mgr.begin(&clock);
        let (aborted, _) = mgr.begin(&clock);
        let never = TXN_ID_FLAG | 1 << 30;
        let commit = mgr.pre_commit(committed, &clock).unwrap();
        mgr.commit(committed);
        mgr.abort(aborted);
        mgr.retire(committed);
        mgr.retire(aborted);
        assert!(mgr.get(committed).is_none() && mgr.get(aborted).is_none());
        // The committer stamped its cell before it retired.
        assert_eq!(
            mgr.resolve_start_time(committed, || commit),
            StartTime::Committed(commit)
        );
        // An aborted version's cell keeps the id; so does a cell holding
        // an id the table never issued, or one whose page was released.
        assert_eq!(
            mgr.resolve_start_time(aborted, unstamped(aborted)),
            StartTime::Aborted
        );
        assert_eq!(
            mgr.resolve_start_time(never, unstamped(never)),
            StartTime::Aborted
        );
        assert_eq!(
            mgr.resolve_start_time(aborted, || u64::MAX),
            StartTime::Aborted
        );
        // Finalizing again is refused, not applied to a stranger's entry.
        assert_eq!(mgr.pre_commit(committed, &clock), None);
        assert!(!mgr.abort(committed));
        mgr.retire(committed);
    }

    #[test]
    fn retired_pages_are_reused_for_later_ids() {
        let clock = GlobalClock::new();
        let mgr = TxnManager::with_page_bits(2);
        // An open transaction pins its page; everything else retires.
        let (open, _) = mgr.begin(&clock);
        let mut early = Vec::new();
        for round in 0..10_000u64 {
            let (id, _) = mgr.begin(&clock);
            if round % 3 == 0 {
                mgr.abort(id);
            } else {
                mgr.pre_commit(id, &clock).unwrap();
                mgr.commit(id);
            }
            mgr.retire(id);
            if round < 16 {
                early.push(id);
            }
            assert!(mgr.tracked() <= 3 * 4, "pages in use: {}", mgr.tracked());
        }
        assert_eq!(mgr.get(open).unwrap().status, TxnStatus::Active);
        // Ids whose pages serve other ranges now are unknown, not confused
        // with the transactions that took their entries.
        for id in early {
            assert!(mgr.get(id).is_none());
            assert_eq!(
                mgr.resolve_start_time(id, unstamped(id)),
                StartTime::Aborted
            );
        }
        mgr.abort(open);
        mgr.retire(open);
        for _ in 0..8 {
            let (id, _) = mgr.begin(&clock);
            mgr.abort(id);
            mgr.retire(id);
        }
        assert!(mgr.tracked() <= 2 * 4);
    }

    /// Concurrent commit visibility: transactions committing concurrently
    /// from many threads (as writers on disjoint ranges do) get commit
    /// timestamps that are globally unique, totally ordered, and strictly
    /// after their begin times — so any snapshot timestamp cuts every
    /// range's history at one consistent point.
    #[test]
    fn commit_timestamps_totally_order_concurrent_writers() {
        let clock = Arc::new(GlobalClock::new());
        let mgr = Arc::new(TxnManager::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let clock = Arc::clone(&clock);
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    (0..1000)
                        .map(|_| {
                            let (id, begin) = mgr.begin(&clock);
                            let commit = mgr.pre_commit(id, &clock).unwrap();
                            mgr.commit(id);
                            (begin, commit)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut commits = Vec::new();
        for h in handles {
            for (begin, commit) in h.join().unwrap() {
                assert!(commit > begin, "commit {commit} after begin {begin}");
                commits.push(commit);
            }
        }
        let n = commits.len();
        commits.sort_unstable();
        commits.dedup();
        assert_eq!(commits.len(), n, "commit timestamps form a total order");
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let clock = Arc::new(GlobalClock::new());
        let mgr = Arc::new(TxnManager::with_page_bits(3));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let clock = Arc::clone(&clock);
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    (0..1000).map(|_| mgr.begin(&clock).0).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert!(all
            .iter()
            .all(|&id| mgr.get(id).unwrap().status == TxnStatus::Active));
    }
}
