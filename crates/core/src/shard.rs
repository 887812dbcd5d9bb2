//! Insert lanes and the range registry.
//!
//! The update range is the one unit of partitioning (§3): it is the unit of
//! storage, merging and lineage. The primary index and the statistics are
//! one structure per table, the merge queue one per database. What `DbConfig::shards` still sets is how many **insert lanes** fill at
//! once: each lane has its own active insert range (the §3.2 table-level
//! tail pages), so concurrent inserters of different key stripes append to
//! different ranges.
//!
//! **Routing** is striped: the key space splits into contiguous *stripes*
//! of `TableConfig::range_size` keys, and stripe `s` inserts through lane
//! `s % lanes`. A sequentially loaded dense key space therefore fills one
//! insert range per stripe, so global range ids follow key order — the
//! property the benches' RID-span scans rely on.
//!
//! **RIDs stay global.** Ranges live in one table-wide, append-only
//! `RangeRegistry` and keep their dense global ids, so a RID — and
//! therefore the WAL format — never encodes the lane count. Replaying a
//! WAL written under `shards = 4` into a database opened with `shards = 2`
//! reconstructs identical ranges and identical reads (`tests/recovery.rs`
//! proves this).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::range::UpdateRange;

/// Striped key → insert-lane routing.
///
/// Keys partition into contiguous stripes of `stripe` keys; stripe `s`
/// inserts through lane `s % lanes`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardMap {
    shards: u32,
    stripe: u64,
}

impl ShardMap {
    /// A map over `shards` lanes with `stripe`-key stripes (both clamped
    /// to ≥ 1).
    pub(crate) fn new(shards: usize, stripe: usize) -> ShardMap {
        ShardMap {
            shards: shards.max(1) as u32,
            stripe: stripe.max(1) as u64,
        }
    }

    /// The lane `key` inserts through.
    #[inline]
    pub(crate) fn shard_of(&self, key: u64) -> usize {
        ((key / self.stripe) % self.shards as u64) as usize
    }
}

const SLAB_BITS: u32 = 10;
const SLAB_SIZE: usize = 1 << SLAB_BITS; // ranges per slab
const MAX_SLABS: usize = 1 << 12; // 4M ranges ≈ 16G records at 2^12/range

type Slab = Box<[OnceLock<Arc<UpdateRange>>]>;

/// Table-wide, append-only directory of update ranges, indexed by dense
/// global range id — the per-table slice of the paper's page directory.
///
/// Lookups are lock-free: the registry is a two-level array of
/// write-once slots, so `get` performs two `Acquire` loads on memory that
/// is never written again after publication. This matters because *every*
/// read and write resolves a RID through here; under the previous
/// `RwLock<Vec<_>>` all writer threads serialized on one reader-count
/// cache line. Appends (range rollover, replay) serialize on a small
/// mutex — they are rare and never on the hot path.
pub(crate) struct RangeRegistry {
    slabs: Box<[OnceLock<Slab>]>,
    len: AtomicUsize,
    grow: parking_lot::Mutex<()>,
}

impl RangeRegistry {
    /// An empty registry.
    pub(crate) fn new() -> RangeRegistry {
        RangeRegistry {
            slabs: (0..MAX_SLABS).map(|_| OnceLock::new()).collect(),
            len: AtomicUsize::new(0),
            grow: parking_lot::Mutex::new(()),
        }
    }

    /// Number of ranges registered.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Borrow the range with global id `id` — registered ranges live as
    /// long as the registry, so an operation needs no refcount of its own.
    /// Panics when `id` was never registered (a RID can only name a
    /// registered range).
    #[inline]
    pub(crate) fn get(&self, id: u32) -> &Arc<UpdateRange> {
        let slab = self.slabs[(id >> SLAB_BITS) as usize]
            .get()
            .expect("range slab exists");
        slab[(id as usize) & (SLAB_SIZE - 1)]
            .get()
            .expect("range registered")
    }

    /// Snapshot all registered ranges in global-id order.
    pub(crate) fn snapshot(&self) -> Vec<Arc<UpdateRange>> {
        (0..self.len() as u32)
            .map(|id| Arc::clone(self.get(id)))
            .collect()
    }

    /// Append a new range under the grow lock; `make` receives the id the
    /// range will get.
    pub(crate) fn append(&self, make: impl FnOnce(u32) -> UpdateRange) -> Arc<UpdateRange> {
        let _g = self.grow.lock();
        let id = self.len.load(Ordering::Relaxed);
        assert!(id < MAX_SLABS * SLAB_SIZE, "range registry full");
        let range = Arc::new(make(id as u32));
        let slab = self.slabs[id >> SLAB_BITS]
            .get_or_init(|| (0..SLAB_SIZE).map(|_| OnceLock::new()).collect());
        slab[id & (SLAB_SIZE - 1)]
            .set(Arc::clone(&range))
            .expect("slot unused");
        self.len.store(id + 1, Ordering::Release);
        range
    }
}

impl std::fmt::Debug for RangeRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangeRegistry")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mkrange(id: u32) -> UpdateRange {
        UpdateRange::new(id, 16, 2, 16, &lstore_storage::epoch::EpochManager::new())
    }

    #[test]
    fn shard_map_stripes_rotate() {
        let m = ShardMap::new(4, 256);
        // One stripe stays on one shard…
        assert_eq!(m.shard_of(0), 0);
        assert_eq!(m.shard_of(255), 0);
        // …and consecutive stripes rotate across shards.
        assert_eq!(m.shard_of(256), 1);
        assert_eq!(m.shard_of(512), 2);
        assert_eq!(m.shard_of(768), 3);
        assert_eq!(m.shard_of(1024), 0);
        // Huge keys route without overflow.
        assert_eq!(m.shard_of(u64::MAX), ((u64::MAX / 256) % 4) as usize);
    }

    #[test]
    fn shard_map_single_shard_is_identity() {
        let m = ShardMap::new(1, 4096);
        for key in [0u64, 1, 4095, 4096, u64::MAX] {
            assert_eq!(m.shard_of(key), 0);
        }
        // Degenerate inputs clamp instead of dividing by zero: zero lanes
        // become one, a zero stripe becomes one key.
        assert_eq!(ShardMap::new(0, 0).shard_of(123), 0);
        assert_eq!(ShardMap::new(0, 4).shard_of(4), 0);
        let m = ShardMap::new(2, 0);
        assert_eq!((m.shard_of(1), m.shard_of(2)), (1, 0));
    }

    #[test]
    fn registry_appends_and_resolves() {
        let reg = RangeRegistry::new();
        assert_eq!(reg.len(), 0);
        for expect in 0..2500u32 {
            let r = reg.append(|id| {
                assert_eq!(id, expect);
                mkrange(id)
            });
            assert_eq!(r.id, expect);
        }
        assert_eq!(reg.len(), 2500, "crosses slab boundaries");
        assert_eq!(reg.get(0).id, 0);
        assert_eq!(reg.get(1024).id, 1024);
        assert_eq!(reg.get(2499).id, 2499);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2500);
        assert!(snap.iter().enumerate().all(|(i, r)| r.id == i as u32));
    }

    #[test]
    fn registry_concurrent_append_and_get() {
        let reg = std::sync::Arc::new(RangeRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move || {
                    for _ in 0..500 {
                        let r = reg.append(mkrange);
                        // Immediately resolvable by any thread.
                        assert_eq!(reg.get(r.id).id, r.id);
                    }
                });
            }
        });
        assert_eq!(reg.len(), 2000);
        let snap = reg.snapshot();
        assert!(snap.iter().enumerate().all(|(i, r)| r.id == i as u32));
    }
}
