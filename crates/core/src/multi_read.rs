//! The point-read core: one key resolution, and one batch planner.
//!
//! Every point read — [`Table::read_one`], [`Table::read_batch`], the
//! transactional [`Table::read`] and `TransactionReads::multi_read` —
//! resolves a key through `Table::resolve_point` (single keys) or the
//! batched planner below, and maps the shared `PointOutcome` to its own
//! return shape. Commit-time validation of a large read set
//! (`Table::validate_reads_batch`) runs on the same planner.
//!
//! The batched plan:
//!
//! 1. **Fast path.** Batches smaller than `DbConfig::batch_read_min` (or
//!    any batch when `pool_threads = 1`) resolve in a plain sequential
//!    loop on the caller — no planning, no pool dispatch. Per-key index
//!    probes are far cheaper than waking pool workers for them.
//! 2. **Sort.** One key sort — no primary-index probe on the caller — buys
//!    range locality and deduplication at once: runs of equal keys become
//!    adjacent and resolve a single time (duplicate positions share the
//!    outcome), and contiguous keys land on consecutive ranges, so a worker
//!    walks each range's cells while they are warm.
//! 3. **Cut.** The sorted run splits into fan-out units by size — but
//!    never below `4 × batch_read_min` items per unit, because handing a
//!    unit to a worker costs a wakeup worth many point probes. A batch
//!    that fits one unit resolves inline on the caller (keeping the
//!    locality win); wider batches fan out for real.
//! 4. **Fan out.** The units run through `Table::scan_fanout` on the
//!    unified [`crate::pool::TaskPool`]: the caller executes units
//!    itself alongside the workers (and steals queued ones back rather
//!    than idle), workers interleave units with pending merge jobs, and
//!    every worker reads under the batch's one pin, a borrowed
//!    [`lstore_storage::epoch::EpochGuard`] (§4.1.1 step 5).
//!
//! **Concurrency contract.** Key resolution is independent per key —
//! `locate` is a lock-free primary-index probe and version resolution
//! reads an immutable base snapshot plus the append-only tail — so the
//! grouping and the pool width are pure execution strategy: at any fixed
//! snapshot timestamp a batch is byte-identical to a sequential loop of
//! [`Table::read_one`] calls, for every `pool_threads` and `shards` value
//! (`multi_read_agrees_with_sequential_reads` pins widths and lane counts
//! 1/2/8). Under `latest` semantics each key independently sees some
//! committed version at least as new as any commit that completed before
//! the batch began, exactly like a loop of single reads.

use lstore_storage::epoch::EpochGuard;
use lstore_txn::ReadSetEntry;

use crate::error::{Error, Result};
use crate::read::{ReadMode, Resolved};
use crate::rid::Rid;
use crate::table::Table;

/// Resolution of one key against one table — the shared currency of every
/// point-read entry point, batched or not: `None` when the key is absent
/// from the primary index, else its base RID and what the read saw there.
/// The RIDs let transactional callers join outcomes into their read set.
pub(crate) type PointOutcome = Option<(Rid, Resolved)>;

impl Table {
    /// Resolve one key under `mode` (internal data-column indices). Every
    /// single-key read comes through here, and the batched planner's fast
    /// path too, so batched and sequential reads cannot drift apart
    /// semantically. The slot's indirection and meta cells are prefetched
    /// as soon as the index probe yields the RID.
    pub(crate) fn resolve_point(
        &self,
        key: u64,
        cols: &[usize],
        mode: ReadMode,
        guard: &EpochGuard<'_>,
    ) -> PointOutcome {
        let base_rid = self.locate(key).ok()?;
        let range = self.range(base_rid.range());
        range.prefetch_slot(base_rid.slot());
        let base = range.base(guard);
        base.prefetch_meta(base_rid.slot());
        let reader = self.reader(range, base, guard);
        Some((base_rid, reader.read_record(base_rid.slot(), cols, mode)))
    }

    /// Resolve the record at `base_rid` under `mode`, with no index probe.
    fn resolve_rid(
        &self,
        base_rid: Rid,
        cols: &[usize],
        mode: ReadMode,
        guard: &EpochGuard<'_>,
    ) -> Resolved {
        let range = self.range(base_rid.range());
        let reader = self.reader(range, range.base(guard), guard);
        reader.read_record(base_rid.slot(), cols, mode)
    }

    /// Whether a batch of `len` items resolves in a plain loop on the
    /// caller rather than through [`Table::fan_out_sorted`].
    fn batch_is_small(&self, len: usize) -> bool {
        len < self.runtime.batch_read_min() || self.runtime.scan_width() <= 1
    }

    /// The batch planner: sort `items` by key (a base RID, for read-set
    /// validation), cut the run into units, and fan the units out across
    /// the task pool. `fold` runs once per unit, into one accumulator per
    /// pool chunk, under the batch's one pin; the accumulators come back in
    /// chunk order.
    ///
    /// Units never drop below `4 × batch_read_min` items: handing a unit to
    /// a worker costs a wakeup (~10µs, many times a point probe), so a
    /// batch that fits one unit resolves inline on the caller. A cut waits
    /// for the key to change, so no cut splits a run of duplicates.
    fn fan_out_sorted<P, A, F>(&self, items: &mut [(u64, P)], fold: F) -> Vec<A>
    where
        P: Sync,
        A: Default + Send,
        F: Fn(&mut A, &[(u64, P)], &EpochGuard<'_>) + Sync,
    {
        items.sort_unstable_by_key(|&(key, _)| key);
        let target = items
            .len()
            .div_ceil(self.runtime.scan_width())
            .max(self.runtime.batch_read_min() * 4);
        let mut units: Vec<(usize, usize)> = Vec::new();
        let mut start = 0;
        for i in 1..=items.len() {
            let cut = i == items.len() || (i - start >= target && items[i].0 != items[i - 1].0);
            if cut {
                units.push((start, i));
                start = i;
            }
        }
        let guard = self.runtime.epoch.pin();
        let items = &*items;
        self.scan_fanout(&units, |chunk| {
            let mut acc = A::default();
            for &(lo, hi) in chunk {
                fold(&mut acc, &items[lo..hi], &guard);
            }
            acc
        })
    }

    /// The batched readers' front end: resolve `keys` under `mode` and map
    /// each outcome with `each`, one `Result` per key in input order. An
    /// out-of-range column (`cols` is `Err((column, columns))`) fails every
    /// key with its own [`Error::ColumnOutOfRange`], as a loop would.
    pub(crate) fn read_keys<T>(
        &self,
        keys: &[u64],
        cols: std::result::Result<Vec<usize>, (usize, usize)>,
        mode: ReadMode,
        mut each: impl FnMut(u64, PointOutcome) -> Result<T>,
    ) -> Vec<Result<T>> {
        match cols {
            Ok(cols) => self
                .multi_read_outcomes(keys, &cols, mode)
                .into_iter()
                .zip(keys)
                .map(|(outcome, &key)| each(key, outcome))
                .collect(),
            Err((column, columns)) => keys
                .iter()
                .map(|_| Err(Error::ColumnOutOfRange { column, columns }))
                .collect(),
        }
    }

    /// Resolve every key under `mode`, one outcome per key in input order.
    /// Small batches loop over [`Table::resolve_point`]; larger ones go
    /// through the planner, each unit resolving a run of duplicate keys
    /// once and scattering the outcome to every input position.
    fn multi_read_outcomes(
        &self,
        keys: &[u64],
        cols: &[usize],
        mode: ReadMode,
    ) -> Vec<PointOutcome> {
        if self.batch_is_small(keys.len()) {
            let guard = self.runtime.epoch.pin();
            return keys
                .iter()
                .map(|&key| self.resolve_point(key, cols, mode, &guard))
                .collect();
        }
        let mut plan: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(pos, &key)| (key, pos as u32))
            .collect();
        let partials = self.fan_out_sorted(
            &mut plan,
            |out: &mut Vec<(u32, PointOutcome)>, unit, guard| {
                for run in unit.chunk_by(|a, b| a.0 == b.0) {
                    let Some((&(key, first), dups)) = run.split_first() else {
                        continue;
                    };
                    let outcome = self
                        .locate(key)
                        .ok()
                        .map(|base_rid| (base_rid, self.resolve_rid(base_rid, cols, mode, guard)));
                    out.extend(dups.iter().map(|&(_, pos)| (pos, outcome.clone())));
                    out.push((first, outcome));
                }
            },
        );
        // Every input position appears in exactly one unit, so the
        // pre-filled placeholders are all overwritten.
        let mut resolved: Vec<PointOutcome> = vec![None; keys.len()];
        for (pos, outcome) in partials.into_iter().flatten() {
            resolved[pos as usize] = outcome;
        }
        resolved
    }

    /// Batched §5.1.1 validate-reads over this table's slice of a commit's
    /// read set: `entries` carries `(read-set position, entry)` pairs.
    /// Returns the **lowest-position** failing entry as `(position, base
    /// RID)` — the same entry a sequential front-to-back loop would trip
    /// on first — or `None` when every entry validates. Large slices go
    /// through the planner sorted by base RID: the read set already
    /// carries resolved base RIDs, so no index probe is needed.
    pub(crate) fn validate_reads_batch(
        &self,
        entries: &[(usize, ReadSetEntry)],
        txn_id: u64,
    ) -> Option<(usize, u64)> {
        if self.batch_is_small(entries.len()) {
            let guard = self.runtime.epoch.pin();
            return entries
                .iter()
                .find(|(_, e)| !self.entry_still_visible(e, txn_id, &guard))
                .map(|&(pos, e)| (pos, e.base_rid));
        }
        let mut plan: Vec<(u64, (usize, ReadSetEntry))> = entries
            .iter()
            .map(|&(pos, e)| (e.base_rid, (pos, e)))
            .collect();
        let partials = self.fan_out_sorted(
            &mut plan,
            |worst: &mut Option<(usize, u64)>, unit, guard| {
                for &(base_rid, (pos, entry)) in unit {
                    if worst.is_none_or(|(p, _)| pos < p)
                        && !self.entry_still_visible(&entry, txn_id, guard)
                    {
                        *worst = Some((pos, base_rid));
                    }
                }
            },
        );
        partials.into_iter().flatten().min_by_key(|&(pos, _)| pos)
    }

    /// The validation kernel: re-resolve `entry`'s base record with own
    /// writes excluded and compare against the observed version.
    fn entry_still_visible(
        &self,
        entry: &ReadSetEntry,
        txn_id: u64,
        guard: &EpochGuard<'_>,
    ) -> bool {
        let mode = ReadMode {
            as_of: None,
            txn_id,
            speculative: entry.speculative,
            exclude_own: true,
        };
        match self.resolve_rid(Rid(entry.base_rid), &[0], mode, guard) {
            Resolved::Visible { version_rid, .. } => version_rid.0 == entry.version_rid,
            Resolved::Deleted => entry.version_rid == 0,
            Resolved::NotVisible => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{DbConfig, TableConfig};
    use crate::db::Database;
    use crate::error::Error;
    use lstore_txn::IsolationLevel;

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
        assert!(t.read_batch(&[], None, None).is_empty());
        assert!(t.read_batch(&[], Some(&[0]), Some(t.now())).is_empty());
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
        let got = t.read_batch(&keys, None, None);
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
            let got = t.read_batch(keys, None, None);
            for (r, &k) in got.iter().zip(keys) {
                assert_eq!(r.as_ref().unwrap().values, Some(vec![k + 1, k * 2]));
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
        let _ = t.read_batch(&keys, None, None);
        assert!(
            t.runtime.spawned_pool().is_none(),
            "single-unit batches must not dispatch on the pool"
        );
        // A batch wide enough for several units is what finally fans out.
        let keys: Vec<u64> = (0..DbConfig::DEFAULT_BATCH_READ_MIN as u64 * 16).collect();
        let _ = t.read_batch(&keys, None, None);
        assert!(t.runtime.spawned_pool().is_some(), "large batch fans out");
    }

    #[test]
    fn small_multi_shard_batches_coalesce_into_one_inline_unit() {
        // Keys scattered one-per-stripe across 8 insert lanes: a
        // floor-sized batch must not be carved into per-range slivers —
        // the whole batch coalesces into one unit and resolves inline.
        let db = Database::new(DbConfig::new().with_pool_threads(8).with_shards(8));
        let t = db
            .create_table("scatter", &["v"], TableConfig::small())
            .unwrap();
        let keys: Vec<u64> = (0..24u64).map(|k| k * 256).collect(); // stripe = 256
        for &k in &keys {
            t.insert_auto(k, &[k + 1]).unwrap();
        }
        assert!(t.runtime.spawned_pool().is_none(), "pool spawns lazily");
        let got = t.read_batch(&keys, None, None); // 24 ≥ batch_read_min: planned path
        for (r, &k) in got.iter().zip(&keys) {
            assert_eq!(r.as_ref().unwrap().values, Some(vec![k + 1]));
        }
        assert!(
            t.runtime.spawned_pool().is_none(),
            "a floor-sized batch spread over all lanes must stay inline"
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
        let got = t.read_batch(&keys, Some(&[0, 1]), Some(ts));
        let values = |i: usize| got[i].as_ref().unwrap().values.clone();
        assert_eq!(values(0), Some(vec![6, 10]));
        assert_eq!(values(1), None, "deleted => invisible");
        assert!(matches!(got[2], Err(Error::KeyNotFound(999))));
        assert_eq!(values(3), Some(vec![6, 10]));
        assert!(matches!(got[4], Err(Error::KeyNotFound(u64::MAX))));
        assert_eq!(values(5), Some(vec![6, 10]));
        assert_eq!(values(6), Some(vec![1, 0]));
        // Latest semantics: a deleted key is indexed, so it is an
        // invisible response, not a missing key.
        let latest = t.read_batch(&keys, None, None);
        assert_eq!(latest[1].as_ref().unwrap().values, None);
    }

    #[test]
    fn bad_column_errors_every_key_without_probing() {
        let (_db, t) = setup(
            DbConfig::new().with_pool_threads(4).with_batch_read_min(2),
            8,
        );
        let got = t.read_batch(&[1, 2, 999], Some(&[0, 7]), Some(t.now()));
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

    #[test]
    fn batched_validation_blames_the_lowest_position_like_the_loop() {
        // 96 reads in descending key order, so read-set position and the
        // planner's base-RID order run opposite ways; two later
        // writers invalidate one read each.
        let (db, t) = setup(
            DbConfig::new()
                .with_pool_threads(4)
                .with_batch_read_min(2)
                .with_shards(2),
            96,
        );
        let mut txn = db.begin_with(IsolationLevel::RepeatableRead);
        for k in (0..96).rev() {
            t.read(&mut txn, k, &[0]).unwrap();
        }
        t.update_auto(17, &[(0, 1)]).unwrap();
        t.update_auto(70, &[(0, 1)]).unwrap();
        let entries: Vec<_> = txn.read_set.iter().copied().enumerate().collect();
        assert_eq!(entries.len(), 96);
        assert!(!t.batch_is_small(entries.len()), "the planner runs");

        let looped = entries
            .iter()
            .find(|(_, e)| !t.entry_still_visible(e, txn.id, &db.runtime().epoch.pin()))
            .map(|&(pos, e)| (pos, e.base_rid));
        let batched = t.validate_reads_batch(&entries, txn.id);
        assert_eq!(batched, looped);
        assert_eq!(batched, Some((95 - 70, t.locate(70).unwrap().0)));
        db.abort(&mut txn);
    }
}
