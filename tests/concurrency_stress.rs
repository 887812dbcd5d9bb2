//! Multi-threaded stress: concurrent writers, scanners, and the background
//! merge daemon, checked against serial ground truth after quiescing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use lstore::{Database, DbConfig, ReadRequest, TableConfig};

/// Writers increment per-key counters under REPEATABLE READ (read-committed
/// would permit the classic lost-update anomaly, which the paper's §5.1.1
/// validation exists to prevent); a scan at any moment must observe a
/// consistent snapshot, and after quiescing the sum must equal the exact
/// number of commits.
#[test]
fn concurrent_increments_scans_and_merges() {
    let db = Database::new(DbConfig::new()); // background merge daemon on
    let t = db
        .create_table("stress", &["count", "payload"], TableConfig::small())
        .unwrap();
    const KEYS: u64 = 512;
    for k in 0..KEYS {
        t.insert_auto(k, &[0, k]).unwrap();
    }
    t.merge_all();

    let committed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // 4 writer threads doing read-modify-write increments.
        for w in 0..4u64 {
            let db = Arc::clone(&db);
            let t = Arc::clone(&t);
            let committed = Arc::clone(&committed);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut rng = 0x1234_5678u64 ^ (w << 32);
                while !stop.load(Ordering::Relaxed) {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(13);
                    let key = (rng >> 20) % KEYS;
                    let mut txn = db.begin_with(lstore::IsolationLevel::RepeatableRead);
                    let result = t
                        .read(&mut txn, key, &[0])
                        .ok()
                        .flatten()
                        .and_then(|v| t.update(&mut txn, key, &[(0, v[0] + 1)]).ok());
                    match result {
                        Some(_) => {
                            if db.commit(&mut txn).is_ok() {
                                committed.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        None => db.abort(&mut txn),
                    }
                }
            });
        }
        // 2 scanner threads checking snapshot consistency.
        for _ in 0..2 {
            let t = Arc::clone(&t);
            let committed = Arc::clone(&committed);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut last_sum = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let sum = t.sum_auto(0);
                    let after = committed.load(Ordering::SeqCst);
                    // Monotone snapshots, and never ahead of the commits
                    // that could have been visible (each of the 4 writers
                    // may have one commit visible but not yet counted).
                    assert!(sum >= last_sum, "monotone: {sum} >= {last_sum}");
                    assert!(sum <= after + 4, "scan saw uncommitted: {sum} > {after}+4");
                    last_sum = sum;
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(1500));
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesce and verify exact ground truth.
    let total = committed.load(Ordering::SeqCst);
    assert!(total > 0, "some transactions must have committed");
    assert_eq!(t.sum_auto(0), total, "every commit counted exactly once");
    t.merge_all();
    assert_eq!(t.sum_auto(0), total, "merges change nothing");
    let per_key: u64 = (0..KEYS)
        .map(|k| t.read_one(&ReadRequest::latest(k)).unwrap().values.unwrap()[0])
        .sum();
    assert_eq!(per_key, total);
}

/// Two transactions racing on the same record: exactly one wins; the loser
/// aborts with a write-write conflict. Run many rounds.
#[test]
fn write_write_races_have_single_winner() {
    let db = Database::new(DbConfig::new());
    let t = db
        .create_table("race", &["v"], TableConfig::small())
        .unwrap();
    t.insert_auto(0, &[0]).unwrap();
    let wins = Arc::new(AtomicU64::new(0));
    for round in 0..200u64 {
        let barrier = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            for tid in 0..2u64 {
                let db = Arc::clone(&db);
                let t = Arc::clone(&t);
                let wins = Arc::clone(&wins);
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut txn = db.begin();
                    barrier.wait();
                    match t.update(&mut txn, 0, &[(0, round * 2 + tid)]) {
                        Ok(_) => {
                            db.commit(&mut txn).unwrap();
                            wins.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(lstore::Error::WriteConflict { .. }) => db.abort(&mut txn),
                        Err(e) => panic!("unexpected: {e}"),
                    }
                });
            }
        });
    }
    let w = wins.load(Ordering::SeqCst);
    // At least one writer must win each round; both can win when they
    // serialize cleanly (no overlap at the latch).
    assert!(w >= 200, "wins {w} < rounds");
    assert!(w <= 400);
    // The record's final value came from a committed transaction.
    let v = t.read_one(&ReadRequest::latest(0)).unwrap().values.unwrap()[0];
    assert!(v < 400);
}

/// Parallel scans agree with sequential ground truth under concurrent
/// updates and a live merge daemon. Writers and the merge thread keep
/// churning while the main thread freezes a snapshot timestamp and checks
/// that the pool-parallel aggregates (`sum_as_of`, `count_as_of`,
/// `group_by_sum` with `scan_threads = 4`) are (a) stable across repeated
/// evaluation and (b) equal to a sequential per-key reconstruction of the
/// same snapshot via as-of `read_one` — a completely different, single-threaded
/// code path.
///
/// Snapshot timestamps are captured at writer quiesce points (a brief pause
/// barrier): a transaction caught *between* pre-commit and commit is
/// invisible to non-speculative readers until it commits, so a timestamp
/// frozen mid-commit would not be stable for any scanner, sequential or
/// parallel. Scans themselves run against live concurrent churn.
#[test]
fn parallel_scans_agree_with_sequential_under_load() {
    let db = Database::new(DbConfig::new().with_pool_threads(4)); // background merges on
    let t = db
        .create_table("parscan", &["count", "bucket"], TableConfig::small())
        .unwrap();
    const KEYS: u64 = 768; // several small ranges => real fan-out
    const WRITERS: u64 = 3;
    for k in 0..KEYS {
        t.insert_auto(k, &[1, k % 7]).unwrap();
    }
    t.merge_all();

    let stop = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let db = Arc::clone(&db);
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let pause = Arc::clone(&pause);
            let parked = Arc::clone(&parked);
            s.spawn(move || {
                let mut rng = 0x9e37_79b9u64 ^ (w << 40);
                while !stop.load(Ordering::Relaxed) {
                    if pause.load(Ordering::SeqCst) {
                        parked.fetch_add(1, Ordering::SeqCst);
                        while pause.load(Ordering::SeqCst) && !stop.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                        parked.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(13);
                    let key = (rng >> 17) % KEYS;
                    let mut txn = db.begin_with(lstore::IsolationLevel::RepeatableRead);
                    let ok = t
                        .read(&mut txn, key, &[0])
                        .ok()
                        .flatten()
                        .and_then(|v| t.update(&mut txn, key, &[(0, v[0] + 1)]).ok());
                    match ok {
                        Some(_) => {
                            let _ = db.commit(&mut txn);
                        }
                        None => db.abort(&mut txn),
                    }
                }
            });
        }

        // While writers and merges run, repeatedly freeze a timestamp (at a
        // writer quiesce point) and cross-check parallel vs sequential at
        // that exact snapshot.
        for _ in 0..20 {
            pause.store(true, Ordering::SeqCst);
            while parked.load(Ordering::SeqCst) < WRITERS {
                std::thread::yield_now();
            }
            let ts = t.now(); // no transaction is in flight at this instant
            pause.store(false, Ordering::SeqCst);
            let par_sum = t.sum_as_of(0, ts);
            let par_count = t.count_as_of(ts);
            let par_groups = t.group_by_sum(1, 0, ts);
            let par_cols = t.sum_cols_as_of(&[0, 1], ts);

            // Parallel scans at a frozen ts are deterministic under load.
            assert_eq!(par_sum, t.sum_as_of(0, ts), "sum stable at frozen ts");
            assert_eq!(par_count, t.count_as_of(ts), "count stable at frozen ts");
            assert_eq!(
                par_groups,
                t.group_by_sum(1, 0, ts),
                "groups stable at frozen ts"
            );

            // Sequential ground truth: per-key time-travel point reads.
            let mut seq_sum = 0u64;
            let mut seq_bucket_sum = 0u64;
            let mut seq_count = 0u64;
            let mut seq_groups = std::collections::BTreeMap::<u64, u64>::new();
            for k in 0..KEYS {
                if let Some(row) = t
                    .read_one(&ReadRequest::as_of(k, ts).with_columns(vec![0, 1]))
                    .unwrap()
                    .values
                {
                    seq_sum += row[0];
                    seq_bucket_sum += row[1];
                    seq_count += 1;
                    *seq_groups.entry(row[1]).or_insert(0) += row[0];
                }
            }
            assert_eq!(par_sum, seq_sum, "parallel sum == sequential sum");
            assert_eq!(par_count, seq_count, "parallel count == sequential count");
            assert_eq!(par_groups, seq_groups, "parallel groups == sequential");
            assert_eq!(par_cols, vec![seq_sum, seq_bucket_sum], "multi-column sums");
        }
        stop.store(true, Ordering::Relaxed);
    });
}

/// Writers on disjoint update ranges of a four-lane table, under a live
/// merge daemon and pool-parallel scans, validated against sequential
/// per-key as-of `read_one` ground truth at frozen snapshot timestamps.
///
/// Each writer thread owns the ranges `r` with `r % 4 == w` and updates only
/// their keys, so writers genuinely run on disjoint ranges; the scans must
/// still observe one consistent snapshot across them because commit
/// timestamps come from the single global clock. Snapshot
/// timestamps are captured at writer quiesce points, exactly as in
/// `parallel_scans_agree_with_sequential_under_load` (a timestamp frozen
/// mid-commit is not stable for any reader).
#[test]
fn sharded_writers_agree_with_sequential_ground_truth() {
    const SHARDS: usize = 4;
    let db = Database::new(
        DbConfig::new() // background merges on
            .with_pool_threads(4)
            .with_shards(SHARDS),
    );
    let t = db
        .create_table("shardstress", &["count", "bucket"], TableConfig::small())
        .unwrap();
    // 2048 keys = 8 ranges of 256 → every writer owns exactly 2 ranges.
    const KEYS: u64 = 2048;
    const RANGE: u64 = 256; // TableConfig::small's range_size
    for k in 0..KEYS {
        t.insert_auto(k, &[1, k % 5]).unwrap();
    }
    t.merge_all();
    let range_of = |k: u64| t.locate(k).unwrap().range();
    assert!((0..KEYS).all(|k| range_of(k) as u64 == k / RANGE));
    let owned: Vec<Vec<u64>> = (0..SHARDS)
        .map(|w| {
            (0..KEYS)
                .filter(|&k| range_of(k) as usize % SHARDS == w)
                .collect()
        })
        .collect();
    assert!(owned
        .iter()
        .all(|keys| keys.len() == (KEYS as usize) / SHARDS));

    let stop = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicU64::new(0));
    let committed = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        // One writer per range class, incrementing only its own keys.
        for (w, keys) in owned.iter().enumerate() {
            let db = Arc::clone(&db);
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let pause = Arc::clone(&pause);
            let parked = Arc::clone(&parked);
            let committed = Arc::clone(&committed);
            s.spawn(move || {
                let mut rng = 0xfeed_beefu64 ^ ((w as u64) << 48);
                while !stop.load(Ordering::Relaxed) {
                    if pause.load(Ordering::SeqCst) {
                        parked.fetch_add(1, Ordering::SeqCst);
                        while pause.load(Ordering::SeqCst) && !stop.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                        parked.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(13);
                    let key = keys[(rng >> 19) as usize % keys.len()];
                    let mut txn = db.begin_with(lstore::IsolationLevel::RepeatableRead);
                    let ok = t
                        .read(&mut txn, key, &[0])
                        .ok()
                        .flatten()
                        .and_then(|v| t.update(&mut txn, key, &[(0, v[0] + 1)]).ok());
                    match ok {
                        Some(_) => {
                            if db.commit(&mut txn).is_ok() {
                                committed.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        None => db.abort(&mut txn),
                    }
                }
            });
        }

        for _ in 0..15 {
            pause.store(true, Ordering::SeqCst);
            while parked.load(Ordering::SeqCst) < SHARDS as u64 {
                std::thread::yield_now();
            }
            let ts = t.now(); // no transaction in flight at this instant
            pause.store(false, Ordering::SeqCst);

            // Pool-parallel aggregates at the frozen snapshot…
            let par_sum = t.sum_as_of(0, ts);
            let par_count = t.count_as_of(ts);
            let par_groups = t.group_by_sum(1, 0, ts);
            let par_rows = t.scan_as_of(&[0], ts);
            assert_eq!(par_sum, t.sum_as_of(0, ts), "sum stable at frozen ts");

            // …against a sequential per-key reconstruction of the same
            // snapshot (single-threaded, index-routed code path).
            let mut seq_sum = 0u64;
            let mut seq_count = 0u64;
            let mut seq_groups = std::collections::BTreeMap::<u64, u64>::new();
            let mut seq_rows = Vec::new();
            for k in 0..KEYS {
                if let Some(row) = t
                    .read_one(&ReadRequest::as_of(k, ts).with_columns(vec![0, 1]))
                    .unwrap()
                    .values
                {
                    seq_sum += row[0];
                    seq_count += 1;
                    *seq_groups.entry(row[1]).or_insert(0) += row[0];
                    seq_rows.push((k, vec![row[0]]));
                }
            }
            assert_eq!(par_sum, seq_sum, "parallel sum == sequential sum");
            assert_eq!(par_count, seq_count, "parallel count == sequential");
            assert_eq!(par_groups, seq_groups, "parallel groups == sequential");
            assert_eq!(par_rows, seq_rows, "scan rows == sequential, key order");
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesced ground truth: the sum equals exactly the committed
    // increments (updates of merge-invalidated transactions are tombstones
    // and contribute nothing), and every writer's ranges took updates.
    let total = committed.load(Ordering::SeqCst);
    assert!(total > 0, "some transactions must have committed");
    let final_sum = t.sum_auto(0);
    let per_key: u64 = (0..KEYS)
        .map(|k| t.read_one(&ReadRequest::latest(k)).unwrap().values.unwrap()[0])
        .sum();
    assert_eq!(final_sum, per_key);
    assert_eq!(final_sum, KEYS + total, "every commit counted exactly once");
    assert!(t.stats().updates >= total, "applied ≥ committed");
    t.merge_all();
    assert_eq!(t.sum_auto(0), final_sum, "merges change nothing");
    for r in 0..(KEYS / RANGE) as u32 {
        assert!(t.range_handle(r).base().tps > 0, "range {r} was updated");
    }
}

/// The unified merge/scan pool under saturation: wide scans keep every pool
/// worker busy while each of four writers pushes its own hot range past
/// `merge_threshold` over and over. The work-stealing scheduler must still
/// drain the merge queue (no dedicated merge thread exists to fall back
/// on), every hot range must reach merged state in the background,
/// and frozen-ts scan results must equal the per-key as-of `read_one` ground
/// truth throughout the churn.
#[test]
fn merges_complete_under_saturated_scan_pool() {
    const SHARDS: usize = 4;
    const KEYS: u64 = 2048;
    const STRIPE: u64 = 256; // TableConfig::small's range_size
    let db = Database::new(DbConfig::new().with_pool_threads(4).with_shards(SHARDS));
    let t = db
        .create_table("saturated", &["count", "bucket"], TableConfig::small())
        .unwrap();
    for k in 0..KEYS {
        t.insert_auto(k, &[0, k % 3]).unwrap();
    }
    t.merge_all();
    let threshold = t.config().merge_threshold as u64;

    let stop = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        // Writer `w` hammers only range `w` (keys of stripe `w`), so tail
        // records concentrate in four update ranges and every one of them
        // crosses the merge threshold repeatedly.
        for w in 0..SHARDS as u64 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let pause = Arc::clone(&pause);
            let parked = Arc::clone(&parked);
            s.spawn(move || {
                assert_eq!(
                    t.locate(w * STRIPE).unwrap().range(),
                    w as u32,
                    "range of stripe"
                );
                let mut i = 0u64;
                let mut appended = 0u64;
                loop {
                    // Guarantee well past the threshold per range before
                    // honoring stop, then churn until stopped.
                    if appended > 2 * threshold && stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if pause.load(Ordering::SeqCst) {
                        parked.fetch_add(1, Ordering::SeqCst);
                        while pause.load(Ordering::SeqCst) && !stop.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                        parked.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    let key = w * STRIPE + (i % STRIPE);
                    let cur = t
                        .read_one(&ReadRequest::latest(key))
                        .unwrap()
                        .values
                        .unwrap()[0];
                    t.update_auto(key, &[(0, cur + 1)]).unwrap();
                    i += 1;
                    appended += 1;
                }
            });
        }
        // Two scanner threads saturating the pool with wide fan-outs.
        for _ in 0..2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let ts = t.now();
                    std::hint::black_box(t.sum_as_of(0, ts));
                    std::hint::black_box(t.group_by_sum(1, 0, ts));
                }
            });
        }
        // Frozen-ts ground-truth cross-checks during the churn.
        for _ in 0..8 {
            pause.store(true, Ordering::SeqCst);
            while parked.load(Ordering::SeqCst) < SHARDS as u64 {
                std::thread::yield_now();
            }
            let ts = t.now(); // no transaction in flight at this instant
            pause.store(false, Ordering::SeqCst);
            let par_sum = t.sum_as_of(0, ts);
            let par_rows = t.scan_as_of(&[0], ts);
            let mut seq_sum = 0u64;
            let mut seq_rows = Vec::new();
            for k in 0..KEYS {
                if let Some(row) = t
                    .read_one(&ReadRequest::as_of(k, ts).with_columns(vec![0]))
                    .unwrap()
                    .values
                {
                    seq_sum += row[0];
                    seq_rows.push((k, row));
                }
            }
            assert_eq!(par_sum, seq_sum, "scan sum == per-key ground truth");
            assert_eq!(par_rows, seq_rows, "scan rows == per-key ground truth");
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });

    // One quiet append per hot range re-arms the threshold trigger for any
    // range whose last merge raced the writers stopping, then the queues
    // must drain to fully merged ranges — in the background, on the pool.
    for w in 0..SHARDS as u64 {
        let key = w * STRIPE;
        let cur = t
            .read_one(&ReadRequest::latest(key))
            .unwrap()
            .values
            .unwrap()[0];
        t.update_auto(key, &[(0, cur)]).unwrap();
    }
    db.drain_merges();
    for w in 0..SHARDS as u32 {
        let tps = t.range_handle(w).base().tps;
        assert!(tps > 0, "range {w} merged in the background (tps={tps})");
    }
    assert!(t.stats().merged_records > 0, "merges consumed records");
    for r in 0..t.range_count() as u32 {
        let unmerged = t.range_handle(r).unmerged();
        assert!(
            unmerged < threshold,
            "range {r} drained below threshold (unmerged={unmerged})"
        );
    }
    // Quiesced equality through an independent code path.
    let final_sum = t.sum_auto(0);
    let per_key: u64 = (0..KEYS)
        .map(|k| t.read_one(&ReadRequest::latest(k)).unwrap().values.unwrap()[0])
        .sum();
    assert_eq!(final_sum, per_key, "scan equals per-key reads after drain");
}

/// Batched point reads against live writers and background merges: at a
/// timestamp frozen at a writer quiesce point, `read_batch` — with
/// duplicates and missing keys mixed into the batch — must return exactly
/// what per-key `read_one` returns at the same snapshot, stably across
/// repeats, while the same pool workers keep draining the merge queue
/// underneath (the batch's epoch re-pinning is what keeps
/// merged-away base pages alive for the slower units).
#[test]
fn batched_reads_agree_under_live_writers_and_merges() {
    let db = Database::new(
        DbConfig::new()
            .with_pool_threads(4)
            .with_shards(2)
            .with_batch_read_min(2), // small batches still take the pooled path
    );
    let t = db
        .create_table("batchstress", &["count", "bucket"], TableConfig::small())
        .unwrap();
    const KEYS: u64 = 768; // several small ranges => real fan-out
    const WRITERS: u64 = 3;
    for k in 0..KEYS {
        t.insert_auto(k, &[1, k % 7]).unwrap();
    }
    t.merge_all();

    let stop = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let db = Arc::clone(&db);
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let pause = Arc::clone(&pause);
            let parked = Arc::clone(&parked);
            s.spawn(move || {
                let mut rng = 0x51ce_b00bu64 ^ (w << 40);
                while !stop.load(Ordering::Relaxed) {
                    if pause.load(Ordering::SeqCst) {
                        parked.fetch_add(1, Ordering::SeqCst);
                        while pause.load(Ordering::SeqCst) && !stop.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                        parked.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(13);
                    let key = (rng >> 17) % KEYS;
                    let mut txn = db.begin_with(lstore::IsolationLevel::RepeatableRead);
                    let ok = t
                        .read(&mut txn, key, &[0])
                        .ok()
                        .flatten()
                        .and_then(|v| t.update(&mut txn, key, &[(0, v[0] + 1)]).ok());
                    match ok {
                        Some(_) => {
                            let _ = db.commit(&mut txn);
                        }
                        None => db.abort(&mut txn),
                    }
                }
            });
        }

        // The batch: every key, a sprinkle of duplicates, and keys that
        // were never inserted (within and beyond the routing stripes).
        let mut batch: Vec<u64> = (0..KEYS).collect();
        batch.extend([5, 5, 123, 123, 123, KEYS + 10, KEYS + 10, 40_000, u64::MAX]);

        for round in 0..15 {
            // Freeze a timestamp at a writer quiesce point (a txn caught
            // between pre-commit and commit would make the snapshot
            // unstable for any reader, batched or not).
            pause.store(true, Ordering::SeqCst);
            while parked.load(Ordering::SeqCst) < WRITERS {
                std::thread::yield_now();
            }
            let ts = t.now();

            // While the writers are parked nothing new commits: batched
            // latest reads must equal the per-key loop right now (merges
            // may still be running — they change representation only).
            let batched_latest = t.read_batch(&batch, None, None);
            for (r, &k) in batched_latest.iter().zip(&batch) {
                match t.read_one(&ReadRequest::latest(k)) {
                    Ok(v) => assert_eq!(r.as_ref().unwrap(), &v, "latest key {k}"),
                    Err(_) => assert!(r.is_err(), "latest key {k} should be absent"),
                }
            }
            pause.store(false, Ordering::SeqCst);

            // Snapshot reads race live writers and merges from here on.
            let batched = t.read_batch(&batch, Some(&[0, 1]), Some(ts));
            for (r, &k) in batched.iter().zip(&batch) {
                let want = t.read_one(&ReadRequest::as_of(k, ts).with_columns(vec![0, 1]));
                match want {
                    Ok(want) => assert_eq!(
                        r.as_ref().ok(),
                        Some(&want),
                        "round {round}: key {k} at frozen ts {ts}"
                    ),
                    Err(_) => assert!(r.is_err(), "round {round}: key {k} should be absent"),
                }
            }
            // Batched reads at a frozen ts are deterministic under load.
            let again = t.read_batch(&batch, Some(&[0, 1]), Some(ts));
            for ((a, b), &k) in batched.iter().zip(&again).zip(&batch) {
                assert_eq!(
                    a.as_ref().ok(),
                    b.as_ref().ok(),
                    "round {round}: key {k} unstable at frozen ts"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesce and cross-check the batch against the final ground truth.
    db.drain_merges();
    let ts = t.now();
    let final_batch = t.read_batch(&(0..KEYS).collect::<Vec<_>>(), Some(&[0]), Some(ts));
    let sum: u64 = final_batch
        .iter()
        .map(|r| r.as_ref().unwrap().values.as_ref().unwrap()[0])
        .sum();
    assert_eq!(sum, t.sum_as_of(0, ts), "batch sum equals scan sum");
}

/// Inserts from many threads with interleaved scans: no keys lost, no
/// duplicates, ranges roll over correctly.
#[test]
fn concurrent_inserts_roll_ranges() {
    let db = Database::new(DbConfig::new());
    let t = db
        .create_table("ins", &["v"], TableConfig::small())
        .unwrap();
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for i in 0..2_000u64 {
                    t.insert_auto(w * 10_000 + i, &[1]).unwrap();
                }
            });
        }
    });
    assert_eq!(t.count_as_of(t.now()), 8_000);
    assert_eq!(t.sum_auto(0), 8_000);
    assert!(t.range_count() >= 8_000 / 256, "ranges rolled over");
    t.merge_all();
    assert_eq!(t.count_as_of(t.now()), 8_000);
    for w in 0..4u64 {
        assert_eq!(
            t.read_one(&ReadRequest::latest(w * 10_000 + 1_999))
                .unwrap()
                .values,
            Some(vec![1])
        );
    }
}

/// Scans patch their dirty rows from page snapshots of the unmerged tail
/// suffix while writers keep appending to it. With four cells per tail page
/// every column's page directory grows every few appends, so a scan that
/// kept any directory lock while reading — or took one twice, with a
/// growing writer queued in between — would stall or deadlock here: the
/// whole case must finish under a timeout. Long-lived open transactions
/// (committed or aborted only between the frozen-ts checks) sit in the
/// suffix and hold the merges' committed prefix back, so suffixes grow
/// long; frozen-ts scans must still equal the per-key ground truth.
#[test]
fn scans_patch_from_a_growing_tail_under_open_transactions() {
    const KEYS: u64 = 1024;
    const WRITERS: u64 = 3; // keys ≡ 0, 1, 2 (mod 4); the holder owns ≡ 3
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let db = Database::new(DbConfig::new().with_pool_threads(4).with_shards(2));
        let config = TableConfig {
            tail_page_slots: 4,
            ..TableConfig::small()
        };
        let t = db
            .create_table("growing", &["count", "bucket"], config)
            .unwrap();
        for k in 0..KEYS {
            t.insert_auto(k, &[0, k % 5]).unwrap();
        }
        t.merge_all();

        let stop = Arc::new(AtomicBool::new(false));
        let pause = Arc::new(AtomicBool::new(false));
        let parked = Arc::new(AtomicU64::new(0));
        // Park while `pause` is up; whatever the caller holds stays held.
        let park = |pause: &AtomicBool, parked: &AtomicU64, stop: &AtomicBool| {
            if pause.load(Ordering::SeqCst) {
                parked.fetch_add(1, Ordering::SeqCst);
                while pause.load(Ordering::SeqCst) && !stop.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                parked.fetch_sub(1, Ordering::SeqCst);
            }
        };
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (t, stop, pause, parked) = (&t, &stop, &pause, &parked);
                s.spawn(move || {
                    let mut i = w;
                    while !stop.load(Ordering::Relaxed) {
                        park(pause, parked, stop);
                        let key = (i * 4 + w) % KEYS;
                        let cur = t
                            .read_one(&ReadRequest::latest(key))
                            .unwrap()
                            .values
                            .unwrap();
                        t.update_auto(key, &[(0, cur[0] + 1), (1, (cur[1] + 1) % 5)])
                            .unwrap();
                        i += 7;
                    }
                });
            }
            // The holder: a transaction that stays open across freezes,
            // then commits or aborts, over and over.
            {
                let (db, t, stop, pause, parked) = (&db, &t, &stop, &pause, &parked);
                s.spawn(move || {
                    let mut round = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let mut txn = db.begin();
                        for j in 0..8 {
                            let key = ((round * 8 + j) * 4 + 3) % KEYS;
                            t.update(&mut txn, key, &[(0, round)]).unwrap();
                        }
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        park(pause, parked, stop); // parked with the transaction open
                        if round.is_multiple_of(3) {
                            db.abort(&mut txn);
                        } else {
                            db.commit(&mut txn).unwrap();
                        }
                        round += 1;
                    }
                });
            }
            for _ in 0..2 {
                let (t, stop) = (&t, &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let ts = t.now();
                        std::hint::black_box(t.sum_as_of(0, ts));
                        std::hint::black_box(t.sum_cols_as_of(&[1, 0], ts));
                        std::hint::black_box(t.count_as_of(ts));
                    }
                });
            }
            for _ in 0..10 {
                std::thread::sleep(std::time::Duration::from_millis(30));
                pause.store(true, Ordering::SeqCst);
                while parked.load(Ordering::SeqCst) < WRITERS + 1 {
                    std::thread::yield_now();
                }
                let ts = t.now(); // nothing commits at this instant
                pause.store(false, Ordering::SeqCst);
                let mut rows = Vec::new();
                for k in 0..KEYS {
                    if let Some(row) = t
                        .read_one(&ReadRequest::as_of(k, ts).with_columns(vec![0, 1]))
                        .unwrap()
                        .values
                    {
                        rows.push((k, row));
                    }
                }
                let sums = |c: usize| rows.iter().map(|(_, r)| r[c]).sum::<u64>();
                assert_eq!(t.scan_as_of(&[0, 1], ts), rows, "rows at frozen ts");
                assert_eq!(t.sum_as_of(0, ts), sums(0), "sum at frozen ts");
                assert_eq!(t.sum_cols_as_of(&[1, 0], ts), vec![sums(1), sums(0)]);
                assert_eq!(t.count_as_of(ts), rows.len() as u64);
                let mut groups = std::collections::BTreeMap::new();
                for (_, r) in &rows {
                    *groups.entry(r[1]).or_insert(0u64) += r[0];
                }
                assert_eq!(t.group_by_sum(1, 0, ts), groups, "groups at frozen ts");
            }
            stop.store(true, Ordering::Relaxed);
        });
        let stats = t.stats();
        assert!(stats.tail_pass_rows > 0, "scans took the suffix pass");
        db.drain_merges();
        let per_key: u64 = (0..KEYS)
            .map(|k| t.read_one(&ReadRequest::latest(k)).unwrap().values.unwrap()[0])
            .sum();
        assert_eq!(
            t.sum_auto(0),
            per_key,
            "scan equals per-key reads after drain"
        );
        done_tx.send(()).unwrap();
    });
    match done_rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(()) => {}
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("scanners and page-growing writers deadlocked")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("the stress body panicked (see its message above)")
        }
    }
}

/// Readers resolve Start Time cells whose owners commit, retire and have
/// their page of the transaction table reused underneath them. With four
/// entries per page an id's entry serves another transaction a handful of
/// begins after it retired, so a reader that loaded a cell holding an id
/// and resolves it a moment later meets every case: the owner still
/// tracked, retired with the cell stamped, aborted (the cell keeps the id
/// for good), the entry already a stranger's. Each key has one writer,
/// which publishes a lower bound (after a commit returned) and an upper
/// bound (before it writes) of the key's committed value; a transaction
/// that is going to abort writes a poison value. Point reads, as-of reads
/// and scans must stay inside the bounds and never see poison; background
/// merges (insert ranges included) run through the same resolver.
#[test]
fn readers_resolve_ids_that_retire_and_recycle_underneath() {
    const KEYS: u64 = 256;
    const WRITERS: u64 = 3; // keys ≡ w (mod 3)
    const POISON: u64 = 1 << 40;
    const INSERT_BASE: u64 = 1 << 20;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let db = Database::with_parts(
            DbConfig::new().with_pool_threads(2).with_shards(2),
            &lstore_wal::io::OsFs,
            &lstore_storage::io::OsFs,
            lstore_txn::TxnManager::with_page_bits(2),
        )
        .unwrap();
        let t = db
            .create_table("recycled", &["count"], TableConfig::small())
            .unwrap();
        for k in 0..KEYS {
            t.insert_auto(k, &[0]).unwrap();
        }
        let committed: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
        let attempted: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
        let inserted = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let total =
            |bound: &[AtomicU64]| -> u64 { bound.iter().map(|b| b.load(Ordering::SeqCst)).sum() };
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (db, t, stop, committed, attempted) = (&db, &t, &stop, &committed, &attempted);
                s.spawn(move || {
                    let mut round = w;
                    while !stop.load(Ordering::Relaxed) {
                        let key = (round * WRITERS + w) % (KEYS / WRITERS * WRITERS);
                        let at = key as usize;
                        let next = committed[at].load(Ordering::SeqCst) + 1;
                        let aborts = round % 3 == 0;
                        let mut txn = db.begin();
                        if aborts {
                            t.update(&mut txn, key, &[(0, POISON + round)]).unwrap();
                            db.abort(&mut txn);
                        } else {
                            attempted[at].store(next, Ordering::SeqCst);
                            assert_eq!(t.read(&mut txn, key, &[0]).unwrap(), Some(vec![next - 1]));
                            t.update(&mut txn, key, &[(0, next)]).unwrap();
                            db.commit(&mut txn).unwrap();
                            committed[at].store(next, Ordering::SeqCst);
                        }
                        round += 7;
                    }
                });
            }
            // Inserts, a third of them aborted: insert ranges fill and
            // graduate while inserters stamp (or abandon) their cells.
            {
                let (db, t, stop, inserted) = (&db, &t, &stop, &inserted);
                s.spawn(move || {
                    let mut next = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if next % 3 == 2 {
                            let mut txn = db.begin();
                            t.insert(&mut txn, INSERT_BASE - 1 - next, &[POISON])
                                .unwrap();
                            db.abort(&mut txn);
                        }
                        let mut txn = db.begin();
                        t.insert(&mut txn, INSERT_BASE + next, &[0]).unwrap();
                        db.commit(&mut txn).unwrap();
                        next += 1;
                        inserted.store(next, Ordering::SeqCst);
                    }
                });
            }
            for r in 0..2u64 {
                let (t, stop, committed, attempted, inserted) =
                    (&t, &stop, &committed, &attempted, &inserted);
                s.spawn(move || {
                    let mut i = r;
                    while !stop.load(Ordering::Relaxed) {
                        let key = i % KEYS;
                        let at = key as usize;
                        let low = committed[at].load(Ordering::SeqCst);
                        let ts = t.now();
                        let latest = t
                            .read_one(&ReadRequest::latest(key))
                            .unwrap()
                            .values
                            .unwrap()[0];
                        let as_of = t
                            .read_one(&ReadRequest::as_of(key, ts).with_columns(vec![0]))
                            .unwrap()
                            .values
                            .expect("visible")[0];
                        let high = attempted[at].load(Ordering::SeqCst);
                        assert!(
                            (low..=high).contains(&latest) && (low..=high).contains(&as_of),
                            "key {key}: latest {latest}, as of {ts} {as_of}, outside {low}..={high}"
                        );
                        let rows = inserted.load(Ordering::SeqCst);
                        if rows > 0 {
                            let key = INSERT_BASE + i % rows;
                            assert_eq!(
                                t.read_one(&ReadRequest::latest(key)).unwrap().values,
                                Some(vec![0]),
                                "key {key}"
                            );
                        }
                        if i % 64 == r {
                            let (low, rows) = (total(committed), inserted.load(Ordering::SeqCst));
                            let ts = t.now();
                            let sum = t.sum_as_of(0, ts);
                            let count = t.count_as_of(ts);
                            let high = total(attempted);
                            assert!(
                                (low..=high).contains(&sum),
                                "sum {sum} outside {low}..={high}"
                            );
                            let most = KEYS + inserted.load(Ordering::SeqCst) + 1;
                            assert!(
                                (KEYS + rows..=most).contains(&count),
                                "count {count} outside {}..={most}",
                                KEYS + rows
                            );
                        }
                        i += 5;
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(1500));
            stop.store(true, Ordering::Relaxed);
        });
        db.drain_merges();
        let begun = db.begin().id & !(1 << 63);
        assert!(begun > 1000, "only {begun} transactions ran");
        assert!(
            db.runtime().mgr.tracked() <= 64,
            "{} slots held after {begun} transactions",
            db.runtime().mgr.tracked()
        );
        for k in 0..KEYS {
            let truth = committed[k as usize].load(Ordering::SeqCst);
            assert_eq!(
                t.read_one(&ReadRequest::latest(k)).unwrap().values,
                Some(vec![truth]),
                "key {k}"
            );
        }
        assert_eq!(t.sum_auto(0), total(&committed));
        t.merge_all();
        assert_eq!(t.sum_auto(0), total(&committed), "after the merges");
        assert_eq!(
            t.count_as_of(t.now()),
            KEYS + inserted.load(Ordering::SeqCst)
        );
        done_tx.send(()).unwrap();
    });
    match done_rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(()) => {}
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("a reader or writer hung on the transaction table")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("the stress body panicked (see its message above)")
        }
    }
}
