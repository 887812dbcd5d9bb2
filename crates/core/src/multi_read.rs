//! Batched parallel point reads over the unified task pool.
//!
//! The paper's Table 9 workload issues point lookups in groups ("each
//! transaction issues 10 point reads"); after the scan fan-out (PR 2) and
//! the merge/scan pool unification (PR 4), those multi-key reads were the
//! last read path still resolving one key at a time on the caller. This
//! module batches them: [`Table::read_batch`] (and its adapters
//! [`Table::multi_read_latest`] and [`Table::multi_read_as_of`]) take a
//! slice of keys and return one `Result` per key, **in input order**.
//!
//! The batched plan:
//!
//! 1. **Fast path.** Batches smaller than `DbConfig::batch_read_min` (or
//!    any batch when `pool_threads = 1`) resolve in a plain sequential
//!    loop on the caller — no planning, no pool dispatch. Per-key index
//!    probes are far cheaper than waking pool workers for them.
//! 2. **Sort.** One `(shard, key, input position)` sort — the shard from
//!    pure [`crate::shard::ShardMap`] routing arithmetic, no
//!    primary-index probe on the caller — buys shard grouping, range
//!    locality, and deduplication at once: runs of equal keys become
//!    adjacent and resolve a single time (duplicate positions share the
//!    outcome), and stripe-contiguous keys land on consecutive ranges so
//!    a worker reuses each range's base-version snapshot instead of
//!    re-resolving it per key.
//! 3. **Cut.** The sorted run splits into fan-out units at shard
//!    boundaries and size targets — but never below `4 × batch_read_min`
//!    keys per unit, because handing a unit to a worker costs a wakeup
//!    worth many point probes. A batch that fits one unit resolves
//!    inline on the caller (keeping the locality win); wider batches fan
//!    out for real.
//! 4. **Fan out.** The units run through `Table::scan_fanout` on the
//!    unified [`crate::pool::TaskPool`]: the caller executes units
//!    itself alongside the workers (and steals queued ones back rather
//!    than idle), workers interleave units with pending merge jobs, and
//!    every worker re-pins the batch's reclamation epoch by cloning its
//!    [`lstore_storage::epoch::EpochGuard`] before touching base pages
//!    (§4.1.1 step 5).
//!
//! **Concurrency contract.** Key resolution is independent per key —
//! `locate` is a lock-free primary-index probe and version resolution
//! reads an immutable base snapshot plus the append-only tail — so the
//! grouping and the pool width are pure execution strategy: at any fixed
//! snapshot timestamp a batch is byte-identical to a sequential loop of
//! [`Table::read_as_of`] calls, for every `pool_threads` and `shards`
//! value (`multi_read_agrees_with_sequential_reads` pins widths and shard
//! counts 1/2/8). Under `latest` semantics each key independently sees
//! some committed version at least as new as any commit that completed
//! before the batch began, exactly like a loop of single reads.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::range::{BaseVersion, UpdateRange};
use crate::read::{ReadMode, Resolved};
use crate::table::Table;

/// Resolution of one key against one table — the shared currency of every
/// point-read entry point, batched or not. `Clone` so duplicate keys in a
/// batch can share a single resolution. Carries the base and version RIDs
/// so transactional callers can join outcomes into their read set exactly
/// as the single-key [`Table::read`] path does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PointOutcome {
    /// A visible version existed; the requested columns' values.
    Visible {
        /// The probed base record.
        base_rid: u64,
        /// The version that was visible (read-set validation currency).
        version_rid: u64,
        /// The requested columns' values.
        values: Vec<u64>,
    },
    /// The key is indexed but no version is visible (deleted, or not yet
    /// committed at the requested snapshot).
    Invisible {
        /// The probed base record.
        base_rid: u64,
        /// True when the visible version is a delete marker (tracked by
        /// transactional reads, like [`Table::read`]'s `Deleted` arm);
        /// false when nothing is visible at all (never tracked).
        deleted: bool,
    },
    /// The key is absent from the primary index.
    Missing,
}

impl Table {
    /// Resolve one key under `mode` (internal data-column indices). The
    /// single-key readers (`read_one`, `read_as_of`, `read_latest_auto`)
    /// and the batched planner all come through here, so
    /// batched and sequential reads cannot drift apart semantically.
    pub(crate) fn resolve_point(&self, key: u64, cols: &[usize], mode: ReadMode) -> PointOutcome {
        let Ok(base_rid) = self.locate(key) else {
            return PointOutcome::Missing;
        };
        let range = self.range(base_rid.range());
        let base = range.base();
        let reader = self.reader(range, &base);
        Self::outcome_of(base_rid, reader.read_record(base_rid.slot(), cols, mode))
    }

    /// Map one slot resolution to the shared [`PointOutcome`] currency.
    fn outcome_of(base_rid: crate::rid::Rid, resolved: Resolved) -> PointOutcome {
        match resolved {
            Resolved::Visible {
                version_rid,
                values,
            } => PointOutcome::Visible {
                base_rid: base_rid.0,
                version_rid: version_rid.0,
                values,
            },
            Resolved::Deleted => PointOutcome::Invisible {
                base_rid: base_rid.0,
                deleted: true,
            },
            Resolved::NotVisible => PointOutcome::Invisible {
                base_rid: base_rid.0,
                deleted: false,
            },
        }
    }

    /// Sequentially resolve one worker's unit: a `(shard, key, input
    /// position)` slice sorted by key. Runs of duplicate keys resolve
    /// once and share (clone) the outcome, and the `(range, base)`
    /// snapshot is reused across consecutive keys instead of re-resolved
    /// per key — sorted stripe-contiguous keys land on consecutive
    /// ranges, the same locality trick as `sum_key_range`'s keyed partial
    /// sums.
    fn resolve_sorted_unit(
        &self,
        unit: &[(u32, u64, u32)],
        cols: &[usize],
        mode: ReadMode,
        out: &mut Vec<(u32, PointOutcome)>,
    ) {
        type Cached = (u32, Arc<UpdateRange>, Arc<BaseVersion>);
        let mut cache: Option<Cached> = None;
        let mut i = 0;
        while i < unit.len() {
            let key = unit[i].1;
            let mut j = i + 1;
            while j < unit.len() && unit[j].1 == key {
                j += 1; // run of duplicate input positions for this key
            }
            let outcome = match self.locate(key) {
                Err(_) => PointOutcome::Missing,
                Ok(base_rid) => {
                    let hit = matches!(&cache, Some((rid, _, _)) if *rid == base_rid.range());
                    if !hit {
                        let r = self.range(base_rid.range());
                        let b = r.base();
                        cache = Some((base_rid.range(), Arc::clone(r), b));
                    }
                    let (_, range, base) = cache.as_ref().expect("cache just filled");
                    let reader = self.reader(range, base);
                    Self::outcome_of(base_rid, reader.read_record(base_rid.slot(), cols, mode))
                }
            };
            for &(_, _, pos) in &unit[i..j - 1] {
                out.push((pos, outcome.clone()));
            }
            out.push((unit[j - 1].2, outcome));
            i = j;
        }
    }

    /// The batched point-read planner: sort by (shard, key) → cut into
    /// units → fan out → scatter back to input order. `cols` are internal
    /// data-column indices. One sort buys everything at once: shard
    /// grouping, range locality within a unit, and adjacent-duplicate
    /// deduplication.
    pub(crate) fn multi_read_outcomes(
        &self,
        keys: &[u64],
        cols: &[usize],
        mode: ReadMode,
    ) -> Vec<PointOutcome> {
        let width = self.runtime.scan_width();
        if keys.len() <= 1 || width <= 1 || keys.len() < self.runtime.batch_read_min() {
            // Small-batch fast path: the plain per-key loop. No pool
            // dispatch, no planning bookkeeping — and with `pool_threads
            // = 1` (the `deterministic()` setting) every batch takes this
            // branch, keeping batched reads strictly sequential there.
            return keys
                .iter()
                .map(|&key| self.resolve_point(key, cols, mode))
                .collect();
        }

        // Plan: `(shard, key, input position)` triples sorted by (shard,
        // key). The shard comes from pure `ShardMap` routing arithmetic —
        // no primary-index probe happens on the caller.
        let shard_map = self.shard_map();
        let mut triples: Vec<(u32, u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(pos, &key)| (shard_map.shard_of(key), key, pos as u32))
            .collect();
        triples.sort_unstable_by_key(|&(shard, key, _)| (shard, key));

        // Cut the sorted run into fan-out units at shard boundaries and
        // size targets, never splitting a run of duplicate keys. Units
        // never drop below `4 × batch_read_min` keys: handing a unit to a
        // worker costs a wakeup (~10µs, many times a point probe), so
        // work splits no finer than several dispatch-thresholds per unit
        // — a batch that fits one unit resolves inline on the caller,
        // keeping the sorted order's per-range locality win.
        let min_unit = self.runtime.batch_read_min() * 4;
        let target = triples.len().div_ceil(width).max(min_unit);
        let mut units: Vec<(usize, usize)> = Vec::new();
        let mut start = 0;
        for i in 1..=triples.len() {
            // The floor gates *every* cut — shard-boundary cuts included:
            // shard purity is a locality preference, not a correctness
            // requirement (resolution is per-key; a unit spanning shards
            // merely misses the range cache once at the boundary), so a
            // small batch scattered over many shards must still coalesce
            // into one inline unit rather than dispatch per-shard slivers.
            // Equal keys always share a shard, so neither cut can split a
            // duplicate run.
            let cut = i == triples.len()
                || (i - start >= min_unit
                    && (triples[i].0 != triples[i - 1].0
                        || (i - start >= target && triples[i].1 != triples[i - 1].1)));
            if cut {
                units.push((start, i));
                start = i;
            }
        }

        // Fan the units out across the pool (caller participates; workers
        // interleave units with pending merge jobs), each worker
        // re-pinning the batch's epoch through the cloned guard. A single
        // unit short-circuits to an inline call in `scan_fanout`.
        let guard = self.runtime.epoch.pin();
        let triples = &triples;
        let partials = self.scan_fanout(&units, &guard, |chunk| {
            let mut out = Vec::new();
            for &(lo, hi) in chunk {
                self.resolve_sorted_unit(&triples[lo..hi], cols, mode, &mut out);
            }
            out
        });

        // Scatter straight back to input positions.
        let mut resolved: Vec<Option<PointOutcome>> = vec![None; keys.len()];
        for (pos, outcome) in partials.into_iter().flatten() {
            resolved[pos as usize] = Some(outcome);
        }
        resolved
            .into_iter()
            .map(|outcome| outcome.expect("every input position resolved"))
            .collect()
    }

    /// Map public value-column indices (the legacy `usize` flavor) to the
    /// [`crate::request::ReadRequest`] `u32` column selection.
    fn wire_cols(user_cols: &[usize]) -> Vec<u32> {
        user_cols.iter().map(|&c| c as u32).collect()
    }

    /// Batched latest-committed point reads of **all value columns** — the
    /// batch variant of [`Table::read_latest_auto`], a thin adapter over
    /// [`Table::read_batch`]. One `Result` per key, in input order:
    /// `Ok(values)` for a visible record, [`Error::KeyNotFound`] for an
    /// absent *or deleted* key (matching the single-key reader). A missing
    /// key never fails the rest of the batch.
    ///
    /// Batches of at least `DbConfig::batch_read_min` keys deduplicate,
    /// group by key-range shard, and fan out across the unified task pool
    /// with the caller participating; smaller batches (and all batches
    /// under `pool_threads = 1`) resolve sequentially on the caller.
    /// Either way the results are byte-identical.
    pub fn multi_read_latest(&self, keys: &[u64]) -> Vec<Result<Vec<u64>>> {
        self.read_batch(keys, None, None)
            .into_iter()
            .zip(keys)
            .map(|(result, &key)| result.and_then(|r| r.values.ok_or(Error::KeyNotFound(key))))
            .collect()
    }

    /// Batched snapshot point reads at timestamp `ts` — the batch variant
    /// of [`Table::read_as_of`], a thin adapter over
    /// [`Table::read_batch`], byte-identical to calling the single-key
    /// reader in a loop (for every pool width and shard count):
    /// `Ok(Some(values))` for a version visible at `ts`, `Ok(None)` for a
    /// record deleted or not yet inserted at `ts`,
    /// [`Error::KeyNotFound`] per unindexed key.
    pub fn multi_read_as_of(
        &self,
        keys: &[u64],
        user_cols: &[usize],
        ts: u64,
    ) -> Vec<Result<Option<Vec<u64>>>> {
        self.read_batch(keys, Some(&Self::wire_cols(user_cols)), Some(ts))
            .into_iter()
            .map(|result| result.map(|r| r.values))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{DbConfig, TableConfig};
    use crate::db::Database;
    use crate::error::Error;

    /// A table with keys 0..n (value cols = [k+1, k*2]), key 3 deleted.
    fn setup(
        config: DbConfig,
        n: u64,
    ) -> (
        std::sync::Arc<Database>,
        std::sync::Arc<crate::table::Table>,
    ) {
        let db = Database::new(config);
        let t = db
            .create_table("batch", &["a", "b"], TableConfig::small())
            .unwrap();
        for k in 0..n {
            t.insert_auto(k, &[k + 1, k * 2]).unwrap();
        }
        if n > 3 {
            t.delete_auto(3).unwrap();
        }
        (db, t)
    }

    #[test]
    fn empty_batch_returns_empty() {
        let (_db, t) = setup(DbConfig::new().with_pool_threads(4), 10);
        assert!(t.multi_read_latest(&[]).is_empty());
        assert!(t.multi_read_as_of(&[], &[0], t.now()).is_empty());
    }

    #[test]
    fn all_missing_batch_surfaces_per_key_not_found() {
        // Every key absent: the batch must not fail as a whole, and every
        // slot carries its own key's error. Large enough to take the
        // pooled path.
        let (_db, t) = setup(
            DbConfig::new().with_pool_threads(4).with_batch_read_min(2),
            4,
        );
        let keys: Vec<u64> = (1000..1064).collect();
        let got = t.multi_read_latest(&keys);
        assert_eq!(got.len(), keys.len());
        for (r, &k) in got.iter().zip(&keys) {
            assert!(
                matches!(r, Err(Error::KeyNotFound(missing)) if *missing == k),
                "key {k}: {r:?}"
            );
        }
    }

    #[test]
    fn small_batches_skip_the_pool_entirely() {
        // Below `batch_read_min` the batch resolves inline: the lazily
        // spawned pool must never come up for it.
        let (_db, t) = setup(DbConfig::new().with_pool_threads(8), 10);
        assert!(t.runtime.spawned_pool().is_none(), "pool spawns lazily");
        for keys in [&[5u64][..], &[5, 6][..], &[9, 5, 7][..]] {
            let got = t.multi_read_latest(keys);
            for (r, &k) in got.iter().zip(keys) {
                assert_eq!(r.as_deref().unwrap(), &[k + 1, k * 2]);
            }
        }
        assert!(
            t.runtime.spawned_pool().is_none(),
            "sub-threshold batches must not dispatch on the pool"
        );
        // A batch worth a single unit (≤ 4 × batch_read_min distinct keys)
        // also stays inline: splitting it would hand workers less work
        // than their wakeup costs.
        let keys: Vec<u64> = (0..DbConfig::DEFAULT_BATCH_READ_MIN as u64 * 4).collect();
        let _ = t.multi_read_latest(&keys);
        assert!(
            t.runtime.spawned_pool().is_none(),
            "single-unit batches must not dispatch on the pool"
        );
        // A batch wide enough for several units is what finally fans out.
        let keys: Vec<u64> = (0..DbConfig::DEFAULT_BATCH_READ_MIN as u64 * 16).collect();
        let _ = t.multi_read_latest(&keys);
        assert!(t.runtime.spawned_pool().is_some(), "large batch fans out");
    }

    #[test]
    fn small_multi_shard_batches_coalesce_into_one_inline_unit() {
        // Keys scattered one-per-stripe across 8 shards: shard-boundary
        // cuts must not carve a floor-sized batch into per-shard slivers
        // — the whole batch coalesces into one unit and resolves inline.
        let db = Database::new(DbConfig::new().with_pool_threads(8).with_shards(8));
        let t = db
            .create_table("scatter", &["v"], TableConfig::small())
            .unwrap();
        let keys: Vec<u64> = (0..24u64).map(|k| k * 256).collect(); // stripe = 256
        for &k in &keys {
            t.insert_auto(k, &[k + 1]).unwrap();
        }
        assert!(t.runtime.spawned_pool().is_none(), "pool spawns lazily");
        let got = t.multi_read_latest(&keys); // 24 ≥ batch_read_min: planned path
        for (r, &k) in got.iter().zip(&keys) {
            assert_eq!(r.as_deref().unwrap(), &[k + 1]);
        }
        assert!(
            t.runtime.spawned_pool().is_none(),
            "a floor-sized batch spread over all shards must stay inline"
        );
    }

    #[test]
    fn duplicates_and_mixed_fates_keep_input_order() {
        let (_db, t) = setup(
            DbConfig::new().with_pool_threads(4).with_batch_read_min(2),
            8,
        );
        let ts = t.now();
        // dup visible, deleted, missing, dup of the dup, huge key.
        let keys = [5u64, 3, 999, 5, u64::MAX, 5, 0];
        let got = t.multi_read_as_of(&keys, &[0, 1], ts);
        assert_eq!(got[0].as_ref().unwrap().as_deref(), Some(&[6, 10][..]));
        assert_eq!(got[1].as_ref().unwrap(), &None, "deleted => Ok(None)");
        assert!(matches!(got[2], Err(Error::KeyNotFound(999))));
        assert_eq!(got[3].as_ref().unwrap().as_deref(), Some(&[6, 10][..]));
        assert!(matches!(got[4], Err(Error::KeyNotFound(u64::MAX))));
        assert_eq!(got[5].as_ref().unwrap().as_deref(), Some(&[6, 10][..]));
        assert_eq!(got[6].as_ref().unwrap().as_deref(), Some(&[1, 0][..]));
        // Latest semantics: deleted keys surface as per-key NotFound.
        let latest = t.multi_read_latest(&keys);
        assert!(matches!(latest[1], Err(Error::KeyNotFound(3))));
    }

    #[test]
    fn bad_column_errors_every_key_without_probing() {
        let (_db, t) = setup(
            DbConfig::new().with_pool_threads(4).with_batch_read_min(2),
            8,
        );
        let got = t.multi_read_as_of(&[1, 2, 999], &[0, 7], t.now());
        for r in &got {
            assert!(
                matches!(
                    r,
                    Err(Error::ColumnOutOfRange {
                        column: 7,
                        columns: 2
                    })
                ),
                "{r:?}"
            );
        }
    }
}
