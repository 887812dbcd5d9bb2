//! `Transaction::multi_read` equivalence: the batched transactional read
//! path must agree byte-for-byte with a loop of per-key [`lstore::Table`]
//! reads — same values, same per-key errors, same read-set entries in the
//! same order (so commit-time validation reaches identical verdicts) —
//! across pool widths, shard counts, and isolation levels, with duplicate
//! keys, missing keys, deleted rows, and the transaction's own writes in
//! the mix.

use std::sync::Arc;

use proptest::prelude::*;

use lstore::{Database, DbConfig, Error, IsolationLevel, Table, TableConfig, TransactionReads};

const ROWS: u64 = 120;

/// A table with history: every third row updated (tail chains), every
/// seventeenth deleted.
fn build(pool: usize, shards: usize) -> (Arc<Database>, Arc<Table>) {
    let db = Database::new(DbConfig::new().with_pool_threads(pool).with_shards(shards));
    let t = db
        .create_table("mr", &["a", "b", "c"], TableConfig::small())
        .unwrap();
    for k in 0..ROWS {
        t.insert_auto(k, &[k, k * 2, k * 3]).unwrap();
    }
    for k in (0..ROWS).step_by(3) {
        t.update_auto(k, &[(1, k + 1000)]).unwrap();
    }
    for k in (0..ROWS).step_by(17) {
        t.delete_auto(k).unwrap();
    }
    (db, t)
}

/// `Error` is not `Clone`/`PartialEq`; compare results through their debug
/// rendering on the error side.
fn canon(r: lstore::Result<Option<Vec<u64>>>) -> Result<Option<Vec<u64>>, String> {
    r.map_err(|e| format!("{e:?}"))
}

/// Run the equivalence check for one configuration and key vector: one
/// transaction performs its own writes, then reads `keys` per-key and
/// again through `multi_read`; values and read-set segments must match
/// exactly.
fn check_equivalence(pool: usize, shards: usize, iso: IsolationLevel, keys: &[u64]) {
    let (db, t) = build(pool, shards);
    let mut txn = db.begin_with(iso);
    // Own writes the reads must see (or not): an update, an insert, a
    // delete — all inside the transaction.
    t.update(&mut txn, 5, &[(0, 50_000)]).unwrap();
    t.insert(&mut txn, ROWS + 2, &[1, 2, 3]).unwrap();
    t.delete(&mut txn, 7).unwrap();

    let cols = [0usize, 1, 2];
    let base = txn.read_set.len();
    let per_key: Vec<_> = keys
        .iter()
        .map(|&k| canon(t.read(&mut txn, k, &cols)))
        .collect();
    let tracked_per_key = txn.read_set.len() - base;

    let batched: Vec<_> = txn.multi_read(&t, keys).into_iter().map(canon).collect();

    assert_eq!(
        per_key, batched,
        "values diverge at pool={pool} shards={shards} iso={iso:?}"
    );
    let loop_entries = &txn.read_set[base..base + tracked_per_key];
    let batch_entries = &txn.read_set[base + tracked_per_key..];
    assert_eq!(
        loop_entries, batch_entries,
        "read-set entries diverge at pool={pool} shards={shards} iso={iso:?}"
    );
    db.abort(&mut txn);
}

/// A fixed adversarial key vector over the full configuration matrix:
/// duplicates (hot key repeated), a deleted row, the own-update, the
/// own-insert, the own-delete, and keys past the end of the table.
#[test]
fn multi_read_matches_per_key_loop_across_configs() {
    let keys = [
        3,
        5,
        5,
        17,
        7,
        3,
        ROWS + 2,
        60,
        999,
        5,
        0,
        ROWS + 2,
        34,
        61,
        61,
        999,
        1,
    ];
    for &pool in &[1usize, 2, 8] {
        for &shards in &[1usize, 2, 8] {
            for &iso in &[
                IsolationLevel::ReadCommitted,
                IsolationLevel::Snapshot,
                IsolationLevel::RepeatableRead,
            ] {
                check_equivalence(pool, shards, iso, &keys);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, .. ProptestConfig::default()
    })]

    #[test]
    fn multi_read_matches_per_key_loop(
        (keys, cfg) in (prop::collection::vec(0u64..(ROWS + 10), 0..80), 0usize..12)
    ) {
        // Decode the configuration index: pool {1,4} × shards {1,3} × the
        // three isolation levels.
        let pool = [1usize, 4][cfg % 2];
        let shards = [1usize, 3][(cfg / 2) % 2];
        let iso = [
            IsolationLevel::ReadCommitted,
            IsolationLevel::Snapshot,
            IsolationLevel::RepeatableRead,
        ][cfg / 4];
        check_equivalence(pool, shards, iso, &keys);
    }
}

/// Under a conflicting committed writer, a per-key reader and a batched
/// reader must reach the same validation verdict — failure, blaming the
/// same record — at every pool width (validation runs on the committer
/// whatever the width).
#[test]
fn batched_and_per_key_readers_fail_validation_identically() {
    for &pool in &[1usize, 4] {
        let (db, t) = build(pool, 1);
        let keys: Vec<u64> = (1..=40).filter(|k| k % 17 != 0).collect();
        let cols = [0usize, 1, 2];
        let mut per_key = db.begin_with(IsolationLevel::RepeatableRead);
        for &k in &keys {
            t.read(&mut per_key, k, &cols).unwrap();
        }
        let mut batched = db.begin_with(IsolationLevel::RepeatableRead);
        for r in batched.multi_read(&t, &keys) {
            r.unwrap();
        }
        // The conflicting writer lands on a key both transactions read.
        t.update_auto(9, &[(0, 424_242)]).unwrap();
        let ea = db.commit(&mut per_key).unwrap_err();
        let eb = db.commit(&mut batched).unwrap_err();
        match (ea, eb) {
            (
                Error::ValidationFailed { base_rid: ra },
                Error::ValidationFailed { base_rid: rb },
            ) => assert_eq!(ra, rb, "both must blame the same record (pool={pool})"),
            other => panic!("expected two validation failures, got {other:?}"),
        }
    }
}

/// Commit-time write application enqueues deferred removals for superseded
/// secondary-index entries (§3.1 footnote 3): after the index GC horizon
/// passes the commit, the old value's entry is gone and the new value's
/// entry resolves. (The write path alone only ever *inserted* entries, so
/// superseded values lingered forever.)
#[test]
fn commit_enqueues_deferred_secondary_removals() {
    let db = Database::new(DbConfig::deterministic());
    let t = db
        .create_table("sec", &["v", "w"], TableConfig::small())
        .unwrap();
    let idx = t.create_secondary_index(0).unwrap();
    for k in 0..20 {
        t.insert_auto(k, &[k + 100, 0]).unwrap();
    }
    let mut txn = db.begin();
    t.update(&mut txn, 5, &[(0, 555)]).unwrap();
    t.update(&mut txn, 6, &[(1, 9)]).unwrap(); // unindexed column: no churn
    t.delete(&mut txn, 8).unwrap();
    let commit_ts = db.commit(&mut txn).unwrap();

    // Entries stay until the GC horizon passes the commit timestamp (a
    // snapshot taken *at* `commit_ts` already resolves the new version, but
    // gc's horizon is strict).
    idx.gc(commit_ts + 1);
    assert!(idx.get(105).is_empty(), "superseded entry must be removed");
    assert_eq!(idx.get(555), vec![t.locate(5).unwrap().0]);
    assert_eq!(
        idx.get(106),
        vec![t.locate(6).unwrap().0],
        "update of an unindexed column must not disturb the index"
    );
    assert!(
        idx.get(108).is_empty(),
        "deleted row's entry must be removed"
    );
}
