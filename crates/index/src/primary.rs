//! Primary key index: unique key → base RID.
//!
//! Lock-striped hash map so concurrent point lookups and inserts from many
//! writer threads do not serialize on one lock (the evaluation drives up to
//! 22 concurrent update threads against a single primary index, §6). A
//! table holds one `PrimaryIndex` ([`PrimaryIndex::new`], 128 stripes);
//! [`PrimaryIndex::with_shards`] picks another stripe count.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hashing of one `u64` key, in place of SipHash: the keys
/// are the table's own primary keys, and a probe is on the path of every
/// point read and write. The product's high half is folded onto its low
/// half because the map takes its bucket from the low bits, where a product
/// only reflects the key's own low bits (keys at a stride of 2²⁰ would
/// share them all). The multiplier differs from the stripe selector's, or
/// the keys of one stripe would agree on the bits the fold brings down.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        let product = key.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        self.0 = product ^ (product >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are hashed here; kept total for the trait's sake.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(self.0 ^ u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type Stripe = HashMap<u64, u64, BuildHasherDefault<KeyHasher>>;

/// A lock-striped unique index from `u64` key to base RID.
#[derive(Debug)]
pub struct PrimaryIndex {
    shards: Vec<RwLock<Stripe>>,
}

impl Default for PrimaryIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl PrimaryIndex {
    /// Default lock-stripe count of [`PrimaryIndex::new`].
    pub const DEFAULT_SHARDS: usize = 128;

    /// Create an empty index with the default stripe count.
    pub fn new() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Create an empty index striped across `shards` locks (clamped to ≥ 1,
    /// rounded up to a power of two so stripe selection stays a mask).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        PrimaryIndex {
            shards: (0..n).map(|_| RwLock::new(Stripe::default())).collect(),
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard(&self, key: u64) -> &RwLock<Stripe> {
        // Fibonacci hashing spreads dense integer keys across stripes.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 33) as usize & (self.shards.len() - 1)]
    }

    /// Insert `key → rid`; returns the previous RID when the key existed
    /// (callers treat that as a uniqueness violation).
    pub fn insert(&self, key: u64, rid: u64) -> Option<u64> {
        self.shard(key).write().insert(key, rid)
    }

    /// Point lookup.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        self.shard(key).read().get(&key).copied()
    }

    /// Remove a key (used when garbage-collecting deleted records after
    /// their tombstones fall outside all snapshots).
    pub fn remove(&self, key: u64) -> Option<u64> {
        self.shard(key).write().remove(&key)
    }

    /// Number of keys indexed.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn insert_get_remove() {
        let idx = PrimaryIndex::new();
        assert_eq!(idx.insert(10, 100), None);
        assert_eq!(idx.get(10), Some(100));
        assert_eq!(idx.insert(10, 200), Some(100), "duplicate reported");
        assert_eq!(idx.remove(10), Some(200));
        assert!(idx.is_empty());
    }

    #[test]
    fn stripe_count_is_configurable() {
        assert_eq!(PrimaryIndex::new().shard_count(), 128);
        assert_eq!(PrimaryIndex::with_shards(8).shard_count(), 8);
        // Clamped and rounded to a power of two.
        assert_eq!(PrimaryIndex::with_shards(0).shard_count(), 1);
        assert_eq!(PrimaryIndex::with_shards(9).shard_count(), 16);
        // A narrow index still indexes correctly.
        let idx = PrimaryIndex::with_shards(2);
        for k in 0..1000 {
            assert_eq!(idx.insert(k, k + 7), None);
        }
        assert_eq!(idx.len(), 1000);
        assert_eq!(idx.get(999), Some(1006));
    }

    /// The hasher is a multiply and a fold, not SipHash: key patterns whose
    /// low bits never change must still spread over stripes and buckets.
    #[test]
    fn strided_keys_stay_usable() {
        const KEYS: u64 = 1_000_000;
        let run = |stride: u64| {
            let idx = PrimaryIndex::new();
            let start = std::time::Instant::now();
            for i in 0..KEYS {
                assert_eq!(idx.insert(i * stride, i), None);
            }
            for i in 0..KEYS {
                assert_eq!(idx.get(i * stride), Some(i), "stride {stride}");
            }
            assert_eq!(idx.get(KEYS * stride), None);
            assert_eq!(idx.len() as u64, KEYS);
            start.elapsed()
        };
        let dense = run(1);
        for stride in [4096, 1 << 20] {
            let strided = run(stride);
            // Generous: a degenerate hash is slower by orders of magnitude.
            assert!(
                strided < dense * 10 + std::time::Duration::from_secs(2),
                "stride {stride}: {strided:?} against {dense:?} dense"
            );
        }
    }

    #[test]
    fn concurrent_inserts_disjoint_keys() {
        let idx = Arc::new(PrimaryIndex::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let idx = Arc::clone(&idx);
                thread::spawn(move || {
                    for k in 0..5_000u64 {
                        idx.insert(t * 1_000_000 + k, k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 40_000);
        assert_eq!(idx.get(7 * 1_000_000 + 4_999), Some(4_999));
    }
}
