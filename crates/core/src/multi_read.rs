//! The point-read core: one key resolution, and one batched read.
//!
//! Every point read — [`Table::read_one`], [`Table::read_batch`], the
//! transactional [`Table::read`] and `TransactionReads::multi_read` —
//! resolves a key through `Table::resolve_point` and maps the shared
//! `PointOutcome` to its own return shape. A point read is one index probe
//! and one walk from the base record into the tail (§3), so a batch runs
//! on its caller, whatever its size and the pool's width:
//!
//! 1. **Sort.** The `(key, position)` pairs sort by key, so runs of equal
//!    keys become adjacent and contiguous keys land on consecutive ranges,
//!    whose cells are then walked while they are warm.
//! 2. **Resolve each distinct key once.** Every run of equal keys resolves
//!    through `resolve_point` (prefetches included) under the batch's one
//!    pin, a [`lstore_storage::epoch::EpochGuard`] (§4.1.1 step 5), and the
//!    outcome is written into every input position of the run.
//!
//! The task pool serves scans and merges only; commit-time validation
//! runs on the committer too (`Runtime::validate_read_set`).
//!
//! **Concurrency contract.** Key resolution is independent per key —
//! `locate` is a lock-free primary-index probe and version resolution
//! reads an immutable base snapshot plus the append-only tail — so the
//! order of resolution is pure execution strategy: at any fixed snapshot
//! timestamp a batch is byte-identical to a sequential loop of
//! [`Table::read_one`] calls, for every `pool_threads` and `shards` value
//! (`multi_read_agrees_with_sequential_reads` pins widths and lane counts
//! 1/2/8). Under `latest` semantics each key independently sees some
//! committed version at least as new as any commit that completed before
//! the batch began, exactly like a loop of single reads.

use lstore_storage::epoch::EpochGuard;

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
    /// point read comes through here, batched or not, so batched and
    /// sequential reads cannot drift apart semantically. The slot's
    /// indirection and meta cells are prefetched as soon as the index
    /// probe yields the RID.
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

    /// Resolve every key under `mode`, one outcome per key in input order:
    /// sort `(key, position)` pairs, resolve each run of equal keys once,
    /// and write the outcome into every position of the run.
    fn multi_read_outcomes(
        &self,
        keys: &[u64],
        cols: &[usize],
        mode: ReadMode,
    ) -> Vec<PointOutcome> {
        let mut order: Vec<(u64, usize)> = keys
            .iter()
            .enumerate()
            .map(|(pos, &key)| (key, pos))
            .collect();
        order.sort_unstable_by_key(|&(key, _)| key);
        // Every position lies in exactly one run, so every placeholder is
        // overwritten.
        let mut resolved: Vec<PointOutcome> = vec![None; keys.len()];
        let guard = self.runtime.epoch.pin();
        for run in order.chunk_by(|a, b| a.0 == b.0) {
            let Some((&(key, last), dups)) = run.split_last() else {
                continue;
            };
            let outcome = self.resolve_point(key, cols, mode, &guard);
            for &(_, pos) in dups {
                resolved[pos] = outcome.clone();
            }
            resolved[last] = outcome;
        }
        resolved
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
        // slot carries its own key's error.
        let (_db, t) = setup(DbConfig::new().with_pool_threads(4), 4);
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
    fn batches_of_every_size_run_on_the_caller() {
        // Keys scattered one-per-stripe across 8 insert lanes on an
        // 8-wide pool, merging off so nothing else spawns the pool: a
        // batch of any size resolves on the caller, and the lazily
        // spawned pool never comes up for it.
        let db = Database::new(DbConfig {
            background_merge: false,
            ..DbConfig::new().with_pool_threads(8).with_shards(8)
        });
        let t = db
            .create_table("scatter", &["v"], TableConfig::small())
            .unwrap();
        for k in 0..64u64 {
            t.insert_auto(k * 256, &[k + 1]).unwrap(); // stripe = 256
        }
        assert!(t.runtime.spawned_pool().is_none(), "pool spawns lazily");
        for len in [1u64, 64, 100_000] {
            // Every 128th key is indexed, the rest are missing; larger
            // batches repeat keys.
            let keys: Vec<u64> = (0..len).map(|i| (i * 128) % (64 * 256)).collect();
            let got = t.read_batch(&keys, None, None);
            assert_eq!(got.len(), keys.len());
            for (r, &k) in got.iter().zip(&keys) {
                match r {
                    Ok(response) => {
                        assert_eq!(k % 256, 0, "key {k}");
                        assert_eq!(response.values, Some(vec![k / 256 + 1]));
                    }
                    Err(e) => assert!(matches!(e, Error::KeyNotFound(m) if *m == k), "{e:?}"),
                }
            }
            assert!(
                t.runtime.spawned_pool().is_none(),
                "a {len}-key batch must not dispatch on the pool"
            );
        }
    }

    #[test]
    fn duplicates_and_mixed_fates_keep_input_order() {
        let (_db, t) = setup(DbConfig::new().with_pool_threads(4), 8);
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
        let (_db, t) = setup(DbConfig::new().with_pool_threads(4), 8);
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
    fn validation_blames_the_lowest_read_set_position() {
        // 96 reads in descending key order, so read-set position and
        // base-RID order run opposite ways; two later writers invalidate
        // one read each, and the commit blames the earlier-read one.
        let (db, t) = setup(DbConfig::new().with_pool_threads(4).with_shards(2), 96);
        let mut txn = db.begin_with(IsolationLevel::RepeatableRead);
        for k in (0..96).rev() {
            t.read(&mut txn, k, &[0]).unwrap();
        }
        assert_eq!(txn.read_set.len(), 96, "a delete marker joins as version 0");
        t.update_auto(17, &[(0, 1)]).unwrap();
        t.update_auto(70, &[(0, 1)]).unwrap();
        let base_rid = t.locate(70).unwrap().0;
        assert!(matches!(
            db.commit(&mut txn),
            Err(Error::ValidationFailed { base_rid: blamed }) if blamed == base_rid
        ));
    }
}
