//! Key-range sharding: the writer-side scalability counterpart of the scan
//! pool.
//!
//! PR 2 made *reads* scale with cores by fanning analytical queries across
//! the shared [`crate::pool::TaskPool`]; writers, however, still funneled
//! through one table's shared structures — one primary index, one insert
//! tail, one stats block, and one lock-guarded range list. This module
//! partitions a table's key space into `DbConfig::shards` independent
//! **shards** (`crate::config::DbConfig::shards`), each owning
//!
//! * its own partition of the primary index,
//! * its own active insert range (the §3.2 table-level tail pages), and
//! * its own statistics block,
//!
//! so concurrent writers touching different key ranges share no hot cache
//! lines on the table itself. The paper's lineage machinery is untouched:
//! update ranges, tail segments, the merge, and the TPS lineage are already
//! per-range, and commit timestamps stay global through the one
//! `lstore_txn::GlobalClock`, so snapshot semantics are byte-for-byte
//! identical for every shard count (the `property_model` suite enforces
//! this for shards 1/2/8).
//!
//! **Routing** is striped range partitioning: the key space splits into
//! contiguous *stripes* of `TableConfig::range_size` keys, and stripe `s`
//! belongs to shard `s % shards`. Contiguous key intervals
//! (`sum_key_range`, the paper's partial scans) stay local to one shard per
//! stripe, while dense key spaces still spread across all shards — plain
//! `key % shards` would also spread, but would put every contiguous scan
//! interval on every shard, and plain `key / (domain/shards)` would put all
//! practically-occurring small keys on shard 0. Because routing is pure
//! arithmetic, the batched point-read planner ([`crate::multi_read`]) can
//! group a whole key batch by shard without touching the primary index.
//!
//! **RIDs stay global.** Ranges live in one table-wide, append-only
//! `RangeRegistry` and keep their dense global ids, so a RID — and
//! therefore the WAL format — never encodes the shard count. Replaying a
//! WAL written under `shards = 4` into a database opened with `shards = 2`
//! reconstructs identical ranges and identical reads; the shard count is a
//! runtime parallelism knob, not a persistence format (`tests/recovery.rs`
//! proves this).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use lstore_index::PrimaryIndex;

use crate::range::UpdateRange;
use crate::stats::TableStats;

/// Striped key → shard routing.
///
/// Keys partition into contiguous stripes of `stripe` keys; stripe `s` is
/// owned by shard `s % shards`. With `stripe` equal to the table's insert
/// range size, a sequentially loaded dense key space fills one insert range
/// per stripe, so global range ids follow key order — the property the
/// benches' RID-span scans rely on.
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    shards: u32,
    stripe: u64,
}

impl ShardMap {
    /// A map over `shards` shards with `stripe`-key stripes (both clamped
    /// to ≥ 1).
    pub fn new(shards: usize, stripe: usize) -> ShardMap {
        ShardMap {
            shards: shards.max(1) as u32,
            stripe: stripe.max(1) as u64,
        }
    }

    /// The shard owning `key`.
    #[inline]
    pub fn shard_of(&self, key: u64) -> u32 {
        ((key / self.stripe) % self.shards as u64) as u32
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// Keys per contiguous stripe.
    #[inline]
    pub fn stripe(&self) -> u64 {
        self.stripe
    }
}

/// Writer-side state owned by one shard of a table.
///
/// Aligned to its own cache-line neighborhood so one shard's counter
/// traffic never invalidates another shard's lines.
#[derive(Debug)]
#[repr(align(128))]
pub struct TableShard {
    /// This shard's partition of the primary index (key → base RID).
    pub(crate) pk: PrimaryIndex,
    /// Global id of the range currently accepting this shard's inserts.
    pub(crate) current_insert: AtomicU32,
    /// Serializes this shard's insert-range rollover.
    pub(crate) grow: parking_lot::Mutex<()>,
    /// This shard's statistics block.
    pub(crate) stats: TableStats,
}

impl TableShard {
    /// A fresh shard whose inserts start at global range `initial_range`.
    /// The primary-index lock striping is divided among shards so a sharded
    /// table carries roughly the same total number of locks as an unsharded
    /// one.
    pub(crate) fn new(initial_range: u32, table_shards: usize) -> TableShard {
        TableShard {
            pk: PrimaryIndex::with_shards(
                (PrimaryIndex::DEFAULT_SHARDS / table_shards.max(1)).max(8),
            ),
            current_insert: AtomicU32::new(initial_range),
            grow: parking_lot::Mutex::new(()),
            stats: TableStats::default(),
        }
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

    /// Append a new range under the grow lock. `make` receives the id the
    /// range will get and may return `None` to abort (used by the rollover
    /// path to re-check, under the lock, that no competing writer already
    /// grew the same shard).
    pub(crate) fn append_with<F>(&self, make: F) -> Option<Arc<UpdateRange>>
    where
        F: FnOnce(u32) -> Option<Arc<UpdateRange>>,
    {
        let _g = self.grow.lock();
        let id = self.len.load(Ordering::Relaxed);
        assert!(id < MAX_SLABS * SLAB_SIZE, "range registry full");
        let range = make(id as u32)?;
        let slab = self.slabs[id >> SLAB_BITS]
            .get_or_init(|| (0..SLAB_SIZE).map(|_| OnceLock::new()).collect());
        slab[id & (SLAB_SIZE - 1)]
            .set(Arc::clone(&range))
            .expect("slot unused");
        self.len.store(id + 1, Ordering::Release);
        Some(range)
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

    fn mkrange(id: u32) -> Arc<UpdateRange> {
        Arc::new(UpdateRange::new(id, 0, 16, 2, 16))
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
        assert_eq!(m.shard_of(u64::MAX), ((u64::MAX / 256) % 4) as u32);
    }

    #[test]
    fn shard_map_single_shard_is_identity() {
        let m = ShardMap::new(1, 4096);
        for key in [0u64, 1, 4095, 4096, u64::MAX] {
            assert_eq!(m.shard_of(key), 0);
        }
        // Degenerate inputs clamp instead of dividing by zero.
        let m = ShardMap::new(0, 0);
        assert_eq!(m.shards(), 1);
        assert_eq!(m.stripe(), 1);
        assert_eq!(m.shard_of(123), 0);
    }

    #[test]
    fn registry_appends_and_resolves() {
        let reg = RangeRegistry::new();
        assert_eq!(reg.len(), 0);
        for expect in 0..2500u32 {
            let r = reg
                .append_with(|id| {
                    assert_eq!(id, expect);
                    Some(mkrange(id))
                })
                .unwrap();
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
    fn registry_append_can_abort() {
        let reg = RangeRegistry::new();
        assert!(reg.append_with(|_| None).is_none());
        assert_eq!(reg.len(), 0, "aborted append registers nothing");
        reg.append_with(|id| Some(mkrange(id))).unwrap();
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn registry_concurrent_append_and_get() {
        let reg = std::sync::Arc::new(RangeRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move || {
                    for _ in 0..500 {
                        let r = reg.append_with(|id| Some(mkrange(id))).unwrap();
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
