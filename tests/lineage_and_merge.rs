//! Lineage machinery: TPS fast paths, independent per-column merges
//! (Lemma 3 / Theorem 2), epoch-based reclamation, merge batching, and
//! scan consistency under merges.

use lstore::{Database, DbConfig, ReadRequest, TableConfig};

fn setup(n: u64) -> (std::sync::Arc<Database>, std::sync::Arc<lstore::Table>) {
    let db = Database::new(DbConfig::deterministic());
    let t = db
        .create_table("lineage", &["a", "b", "c"], TableConfig::small())
        .unwrap();
    for k in 0..n {
        t.insert_auto(k, &[k, 2 * k, 3 * k]).unwrap();
    }
    (db, t)
}

#[test]
fn scans_agree_before_during_after_merge() {
    let (_db, t) = setup(1000);
    let base_sum: u64 = (0..1000).sum();
    assert_eq!(t.sum_auto(0), base_sum);
    // Update every 3rd record (+1 each).
    for k in (0..1000).step_by(3) {
        t.update_auto(k, &[(0, k + 1)]).unwrap();
    }
    let expected = base_sum + 334;
    assert_eq!(t.sum_auto(0), expected, "pre-merge scan via tail chains");
    t.merge_all();
    assert_eq!(t.sum_auto(0), expected, "post-merge scan via base pages");
    // Updates after the merge layer correctly on top.
    t.update_auto(0, &[(0, 500)]).unwrap();
    assert_eq!(t.sum_auto(0), expected + 500 - 1);
}

#[test]
fn per_column_merge_diverges_tps_and_reads_reconcile() {
    let (_db, t) = setup(600);
    // Graduate insert ranges first so tail merges are allowed.
    t.merge_all();
    for k in 0..600 {
        t.update_auto(k, &[(0, 7_000 + k), (2, 9_000 + k)]).unwrap();
    }
    // Merge ONLY column a (§4.2: columns merged independently at different
    // points in time).
    for r in 0..t.range_count() {
        t.merge_columns_now(r as u32, &[0]).unwrap();
    }
    // Lemma 3: the divergence is detectable…
    let (values, consistent) = t.read_consistent(5, &[0, 2], t.now()).unwrap();
    assert!(!consistent, "column TPS counters must differ");
    // …and Theorem 2: the read still reconciles to a consistent snapshot.
    assert_eq!(values.unwrap(), vec![7_005, 9_005]);
    // Now merge the remaining columns; consistency returns.
    for r in 0..t.range_count() {
        t.merge_columns_now(r as u32, &[1, 2]).unwrap();
    }
    let (values, consistent) = t.read_consistent(5, &[0, 2], t.now()).unwrap();
    assert!(consistent);
    assert_eq!(values.unwrap(), vec![7_005, 9_005]);
}

#[test]
fn merge_with_limit_batches_consume_incrementally() {
    let (db, t) = setup(300);
    t.merge_all(); // graduate inserts
    for k in 0..300 {
        t.update_auto(k, &[(0, k + 1)]).unwrap();
    }
    // Drive partial merges through the low-level API.
    let rt = db.runtime();
    let mut total_consumed = 0;
    for r in 0..t.range_count() as u32 {
        loop {
            let range_consumed = {
                use lstore::merge::merge_range;
                let report = merge_range(
                    &db_range(&t, r),
                    &rt.mgr,
                    &rt.epoch,
                    t.config(),
                    None,
                    Some(64),
                    None,
                );
                report.consumed
            };
            if range_consumed == 0 {
                break;
            }
            total_consumed += range_consumed;
            // Reads stay correct between partial merges.
            assert_eq!(
                t.read_one(&ReadRequest::latest(10))
                    .unwrap()
                    .values
                    .unwrap()[0],
                11
            );
        }
    }
    assert!(
        total_consumed >= 300,
        "updates + snapshots consumed in batches"
    );
    let expected: u64 = (0..300u64).map(|k| k + 1).sum();
    assert_eq!(t.sum_auto(0), expected);
}

// Test-only access to the range handle through the public merge API.
fn db_range(t: &lstore::Table, id: u32) -> std::sync::Arc<lstore::range::UpdateRange> {
    t.range_handle(id)
}

#[test]
fn epoch_reclamation_counts_retired_versions() {
    let (db, t) = setup(500);
    t.merge_all();
    for k in 0..500 {
        t.update_auto(k, &[(0, 1)]).unwrap();
    }
    let before = db.metrics().epoch;
    t.merge_all();
    let after = db.metrics().epoch;
    assert!(
        after.retired > before.retired,
        "merges retire outdated base versions through the epoch queue"
    );
    db.reclaim();
    assert!(db.metrics().epoch.reclaimed > 0);
}

#[test]
fn long_scan_blocks_reclamation_until_it_drains() {
    let (db, t) = setup(400);
    t.merge_all();
    for k in 0..400 {
        t.update_auto(k, &[(0, 2)]).unwrap();
    }
    // A "long-running query" pins the epoch.
    let guard = db.runtime().epoch.pin();
    t.merge_all(); // retires the pre-merge base versions
    let freed_while_pinned = db.runtime().epoch.try_reclaim();
    assert_eq!(freed_while_pinned, 0, "reader began before the merge");
    drop(guard);
    let freed_after = db.runtime().epoch.try_reclaim();
    assert!(freed_after > 0, "pages reclaimed once the reader drained");
}

#[test]
fn deletes_survive_merges_and_historic() {
    let (_db, t) = setup(100);
    let before_delete = t.now();
    for k in 0..50 {
        t.delete_auto(k).unwrap();
    }
    assert_eq!(t.count_as_of(t.now()), 50);
    assert_eq!(t.count_as_of(before_delete), 100);
    t.merge_all();
    assert_eq!(t.count_as_of(t.now()), 50, "merged deletes stay deleted");
    assert_eq!(t.count_as_of(before_delete), 100, "history intact");
    let sum_after: u64 = (50..100).sum();
    assert_eq!(t.sum_auto(0), sum_after);
}

#[test]
fn lazy_timestamp_swap_happens_on_read() {
    let (db, t) = setup(10);
    let mut txn = db.begin();
    t.update(&mut txn, 1, &[(0, 42)]).unwrap();
    let commit_ts = db.commit(&mut txn).unwrap();
    // First read resolves the txn id and swaps the commit timestamp in.
    assert_eq!(
        t.read_one(&ReadRequest::latest(1)).unwrap().values.unwrap()[0],
        42
    );
    // After the swap, visibility no longer needs the transaction table.
    assert_eq!(
        t.read_one(&ReadRequest::latest(1)).unwrap().values.unwrap()[0],
        42
    );
    let _ = commit_ts;
}

#[test]
fn secondary_index_returns_stale_and_fresh_rids_for_reevaluation() {
    let (_db, t) = setup(50);
    // Index column b (= 2k).
    let idx = t.create_secondary_index(1).unwrap();
    // Find records with b = 20 → key 10.
    let hits = idx.get(20);
    assert_eq!(hits.len(), 1);
    // Update key 10's b to 999: index gains the new entry, keeps the old.
    t.update_auto(10, &[(1, 999)]).unwrap();
    assert_eq!(idx.get(999).len(), 1);
    assert_eq!(idx.get(20).len(), 1, "deferred removal keeps the old entry");
    // Reader re-evaluates the predicate on the visible version: key 10 no
    // longer matches b=20.
    let visible = t
        .read_one(&ReadRequest::latest(10))
        .unwrap()
        .values
        .unwrap();
    assert_eq!(visible[1], 999);
}

/// A column merge consolidates a delete like a full merge does. It used to
/// skip the delete record — yet apply the slot's older updates and advance
/// the merged columns' TPS past it — so a latest read of a merged column
/// took the TPS fast path and returned a live, stale value for a deleted
/// key. Every read shape is compared with a twin table that ran the same
/// operations and never merged past its insert ranges.
#[test]
fn column_merge_consolidates_deletes() {
    let run = |merge: bool| {
        let (db, t) = setup(100);
        t.merge_all(); // graduate the insert range on both twins
        for k in 0..40 {
            t.update_auto(k, &[(0, 1000 + k)]).unwrap();
        }
        let before_delete = t.now();
        for k in (0..60).step_by(2) {
            t.delete_auto(k).unwrap(); // updated and never-updated rows
        }
        let after_delete = t.now();
        t.update_auto(1, &[(0, 7)]).unwrap();
        if merge {
            let report = t.merge_columns_now(0, &[0]).unwrap();
            assert!(report.swapped && report.consumed > 0);
            let tps = t
                .range_handle(0)
                .base(&db.runtime().epoch.pin())
                .column_tps
                .clone();
            assert!(tps[1] > tps[2], "column a merged ahead of b: {tps:?}");
        }
        let mut seen = Vec::new();
        for k in 0..100 {
            for cols in [vec![0], vec![1], vec![0, 1, 2]] {
                let latest = ReadRequest::latest(k).with_columns(cols.clone());
                seen.push(t.read_one(&latest).unwrap().values);
                for ts in [before_delete, after_delete] {
                    let as_of = ReadRequest::as_of(k, ts).with_columns(cols.clone());
                    seen.push(t.read_one(&as_of).unwrap().values);
                }
            }
        }
        let mut sums = Vec::new();
        for ts in [before_delete, after_delete, t.now()] {
            sums.push((t.sum_as_of(0, ts), t.sum_as_of(1, ts), t.count_as_of(ts)));
        }
        drop(db);
        (seen, sums)
    };
    let (merged, unmerged) = (run(true), run(false));
    assert_eq!(merged.1, unmerged.1, "scans");
    assert_eq!(merged.0, unmerged.0, "point reads");
    // And the twin is right about the deleted keys.
    assert_eq!(unmerged.1[2].2, 70);
}

/// A merged one-range table of `range_size` keys (`TableConfig::small`)
/// whose first 40 keys carry one committed update each: 80 unmerged tail
/// records (a snapshot and an update per key), below the writer-side
/// `merge_threshold` of 128.
fn backlog_below_threshold(
    config: DbConfig,
) -> (std::sync::Arc<Database>, std::sync::Arc<lstore::Table>) {
    let db = Database::new(config);
    let t = db
        .create_table("demand", &["a"], TableConfig::small())
        .unwrap();
    let keys = t.config().range_size as u64;
    for k in 0..keys {
        t.insert_auto(k, &[k]).unwrap();
    }
    t.merge_all();
    db.drain_merges(); // the merge the last insert requested finds nothing
    for k in 0..40 {
        t.update_auto(k, &[(0, 10_000 + k)]).unwrap();
    }
    assert_eq!(t.unmerged_tail_records(), 80);
    assert!(
        80 < t.config().merge_threshold as u64,
        "no writer-side trigger"
    );
    (db, t)
}

/// The sum a scan at `ts` must return, one `read_one` per key.
fn per_key_sum(t: &lstore::Table, ts: u64) -> u64 {
    (0..t.config().range_size as u64)
        .filter_map(|k| t.read_one(&ReadRequest::as_of(k, ts)).unwrap().values)
        .map(|v| v[0])
        .sum()
}

/// Scans at a current snapshot request the merge they keep paying for:
/// once their suffix passes have walked as many unmerged records as the
/// range has rows, the range is merged in the background, although no
/// writer crossed `merge_threshold`.
#[test]
fn current_scans_request_a_merge_below_the_writer_threshold() {
    let (db, t) = backlog_below_threshold(DbConfig::new().with_pool_threads(2));
    let merges = t.stats().merges;
    // 80 records walked per scan: the fourth reaches the 256-row budget.
    for _ in 0..4 {
        let ts = t.now();
        assert_eq!(t.sum_as_of(0, ts), per_key_sum(&t, ts));
    }
    db.drain_merges();
    assert_eq!(t.stats().merges, merges + 1, "one scan-requested merge");
    assert_eq!(t.unmerged_tail_records(), 0);
    let ts = t.now();
    assert_eq!(t.sum_as_of(0, ts), per_key_sum(&t, ts), "after the merge");
}

/// With background merges off (`DbConfig::deterministic`) scans request
/// nothing: merges run only when called.
#[test]
fn scans_request_no_merge_when_background_merges_are_off() {
    let (db, t) = backlog_below_threshold(DbConfig::deterministic());
    let merges = t.stats().merges;
    for _ in 0..20 {
        let ts = t.now();
        assert_eq!(t.sum_as_of(0, ts), per_key_sum(&t, ts));
    }
    db.drain_merges();
    assert_eq!(t.stats().merges, merges);
    assert_eq!(t.unmerged_tail_records(), 80);
}

/// A scan behind the writers counts nothing toward a merge: a snapshot
/// older than committed suffix records, or one that meets a record still
/// in flight, would gain nothing from it.
#[test]
fn scans_behind_the_writers_request_no_merge() {
    let db = Database::new(DbConfig::new().with_pool_threads(2));
    let t = db
        .create_table("behind", &["a"], TableConfig::small())
        .unwrap();
    let keys = t.config().range_size as u64;
    for k in 0..keys {
        t.insert_auto(k, &[k]).unwrap();
    }
    t.merge_all();
    db.drain_merges();
    let frozen = t.now();
    let expected = per_key_sum(&t, frozen);
    for k in 0..40 {
        t.update_auto(k, &[(0, 10_000 + k)]).unwrap();
    }
    let merges = t.stats().merges;
    for _ in 0..20 {
        assert_eq!(t.sum_as_of(0, frozen), expected, "frozen snapshot");
    }
    db.drain_merges();
    assert_eq!(t.stats().merges, merges, "a snapshot older than the suffix");
    // An open transaction's update sits at the newest end of the suffix.
    let mut open = db.begin();
    t.update(&mut open, 50, &[(0, 7)]).unwrap();
    for _ in 0..20 {
        let now = t.now();
        assert_eq!(
            t.sum_as_of(0, now),
            per_key_sum(&t, now),
            "beside the open writer"
        );
    }
    db.drain_merges();
    assert_eq!(t.stats().merges, merges, "a suffix with a record in flight");
    db.abort(&mut open);
}
