//! Crash recovery (§5.1.3): redo-only WAL replay, tombstoning of in-flight
//! transactions, indirection-column rebuild.

use std::path::{Path, PathBuf};

use lstore::{Database, DbConfig, Durability, ReadRequest, Table, TableConfig};

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lstore-recovery-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.wal", std::process::id()))
}

/// Latest committed values of `cols` under `key`; `None` once deleted.
fn read_cols(t: &Table, key: u64, cols: &[u32]) -> Option<Vec<u64>> {
    t.read_one(&ReadRequest::latest(key).with_columns(cols.to_vec()))
        .unwrap()
        .values
}

/// Remove the base log and every legacy per-shard stream file next to it.
fn remove_streams(path: &Path) {
    std::fs::remove_file(path).ok();
    for i in 1.. {
        let stream = lstore_wal::sharded::stream_path(path, i);
        if std::fs::remove_file(&stream).is_err() {
            break;
        }
    }
}

/// Read every file of a log into memory: the base path, plus the `.s<i>`
/// siblings only an older build (or a hand-built image) puts beside it.
fn read_streams(path: &Path) -> Vec<Vec<u8>> {
    let mut streams = vec![std::fs::read(path).unwrap()];
    for i in 1.. {
        let stream = lstore_wal::sharded::stream_path(path, i);
        if !stream.exists() {
            break;
        }
        streams.push(std::fs::read(&stream).unwrap());
    }
    streams
}

#[test]
fn replay_reconstructs_committed_state() {
    let path = wal_path("basic");
    let expected: Vec<Vec<u64>>;
    {
        // "Before the crash": run a workload with the WAL on.
        let db = Database::new(DbConfig::deterministic().with_wal_path(path.clone()));
        let t = db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        for k in 0..500 {
            t.insert_auto(k, &[k, 2 * k]).unwrap();
        }
        for k in (0..500).step_by(3) {
            t.update_auto(k, &[(0, k + 7)]).unwrap();
        }
        for k in (0..500).step_by(50) {
            t.delete_auto(k).unwrap();
        }
        expected = (0..500)
            .filter(|k| k % 50 != 0)
            .map(|k| {
                let row = t.read_latest_auto(k).unwrap();
                vec![k, row[0], row[1]]
            })
            .collect();
        db.runtime().wal.as_ref().unwrap().sync().unwrap();
        // db dropped here = crash (no clean shutdown logic exists anyway).
    }

    // "After the crash": recover the log and replay into a fresh database.
    let state = lstore_wal::recover(&path).unwrap();
    assert!(!state.records.is_empty());
    let db2 = Database::new(DbConfig::deterministic());
    let t2 = db2
        .create_table("r", &["a", "b"], TableConfig::small())
        .unwrap();
    let report = t2.replay(&state).unwrap();
    assert_eq!(report.inserts, 500);
    assert!(report.appends > 0);

    for row in &expected {
        let got = t2.read_latest_auto(row[0]).unwrap();
        assert_eq!(got, vec![row[1], row[2]], "key {}", row[0]);
    }
    for k in (0..500).step_by(50) {
        assert!(read_cols(&t2, k, &[0]).is_none(), "key {k} deleted");
    }
    // Scans agree too (indirection rebuilt correctly).
    let sum_before: u64 = expected.iter().map(|r| r[1]).sum();
    assert_eq!(t2.sum_auto(0), sum_before);
    std::fs::remove_file(&path).ok();
}

#[test]
fn inflight_transactions_are_tombstoned() {
    let path = wal_path("inflight");
    {
        let db = Database::new(DbConfig::deterministic().with_wal_path(path.clone()));
        let t = db.create_table("r", &["a"], TableConfig::small()).unwrap();
        for k in 0..50 {
            t.insert_auto(k, &[k]).unwrap();
        }
        // A transaction that never commits (crash mid-flight).
        let mut txn = db.begin();
        t.update(&mut txn, 1, &[(0, 999)]).unwrap();
        t.insert(&mut txn, 100, &[123]).unwrap();
        // An aborted transaction.
        let mut txn2 = db.begin();
        t.update(&mut txn2, 2, &[(0, 888)]).unwrap();
        db.abort(&mut txn2);
        db.runtime().wal.as_ref().unwrap().sync().unwrap();
    }
    let state = lstore_wal::recover(&path).unwrap();
    assert_eq!(state.in_flight.len(), 1);
    assert_eq!(state.aborted.len(), 1);

    let db2 = Database::new(DbConfig::deterministic());
    let t2 = db2.create_table("r", &["a"], TableConfig::small()).unwrap();
    let report = t2.replay(&state).unwrap();
    assert!(
        report.skipped >= 2,
        "in-flight + aborted records tombstoned"
    );
    // Neither uncommitted write is visible.
    assert_eq!(t2.read_latest_auto(1).unwrap(), vec![1]);
    assert_eq!(t2.read_latest_auto(2).unwrap(), vec![2]);
    assert!(matches!(
        t2.read_latest_auto(100),
        Err(lstore::Error::KeyNotFound(100))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_log_tail_recovers_prefix() {
    let path = wal_path("torn");
    {
        let db = Database::new(DbConfig::deterministic().with_wal_path(path.clone()));
        let t = db.create_table("r", &["a"], TableConfig::small()).unwrap();
        for k in 0..20 {
            t.insert_auto(k, &[k]).unwrap();
        }
        db.runtime().wal.as_ref().unwrap().sync().unwrap();
    }
    // Tear the tail mid-record.
    let mut bytes = std::fs::read(&path).unwrap();
    let torn_len = bytes.len() - 5;
    bytes.truncate(torn_len);
    std::fs::write(&path, &bytes).unwrap();

    let state = lstore_wal::recover(&path).unwrap();
    assert!(state.torn_tail);
    let db2 = Database::new(DbConfig::deterministic());
    let t2 = db2.create_table("r", &["a"], TableConfig::small()).unwrap();
    t2.replay(&state).unwrap();
    // The torn record is the commit/insert of the last key; everything
    // durable before it is intact.
    for k in 0..19 {
        assert_eq!(t2.read_latest_auto(k).unwrap(), vec![k]);
    }
    std::fs::remove_file(&path).ok();
}

/// Shard count is a runtime knob, not a persistence format: a WAL written
/// by a 4-shard table replays into 2-shard (and 1-shard) databases with
/// identical post-replay reads. Logged range ids are global — a RID never
/// encodes the shard count — and the primary index is rebuilt through key
/// routing, so every replayed record is reachable regardless of how many
/// shards the recovering database runs.
#[test]
fn replay_is_shard_count_agnostic() {
    let path = wal_path("shardcount");
    const KEYS: u64 = 1200; // spans 5 routing stripes of 256 keys
    {
        // "Before the crash": a 4-shard database with the WAL on.
        let db = Database::new(
            DbConfig::deterministic()
                .with_shards(4)
                .with_wal_path(path.clone()),
        );
        let t = db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        assert_eq!(t.shard_count(), 4);
        for k in 0..KEYS {
            t.insert_auto(k, &[k, 3 * k]).unwrap();
        }
        for k in (0..KEYS).step_by(3) {
            t.update_auto(k, &[(0, k + 11)]).unwrap();
        }
        for k in (0..KEYS).step_by(75) {
            t.delete_auto(k).unwrap();
        }
        db.runtime().wal.as_ref().unwrap().sync().unwrap();
    }

    // "After the crash": the 4-shard run wrote one log file, in commit
    // order.
    assert_eq!(read_streams(&path).len(), 1);
    let state = lstore_wal::recover_merged(&path).unwrap();
    // Replay into databases with different shard counts.
    let replayed: Vec<_> = [2usize, 1]
        .iter()
        .map(|&shards| {
            let db = Database::new(DbConfig::deterministic().with_shards(shards));
            let t = db
                .create_table("r", &["a", "b"], TableConfig::small())
                .unwrap();
            let report = t.replay(&state).unwrap();
            assert_eq!(report.inserts, KEYS);
            (db, t)
        })
        .collect();
    let (_, t2) = &replayed[0];
    let (_, t1) = &replayed[1];
    assert_eq!(t2.shard_count(), 2);

    // Identical post-replay reads through every code path.
    for k in 0..KEYS {
        if k % 75 == 0 {
            assert!(read_cols(t2, k, &[0]).is_none(), "key {k}");
            assert!(read_cols(t1, k, &[0]).is_none(), "key {k}");
            continue;
        }
        let expect = if k % 3 == 0 {
            vec![k + 11, 3 * k]
        } else {
            vec![k, 3 * k]
        };
        assert_eq!(t2.read_latest_auto(k).unwrap(), expect, "key {k} shards=2");
        assert_eq!(t1.read_latest_auto(k).unwrap(), expect, "key {k} shards=1");
    }
    let ts2 = t2.now();
    let ts1 = t1.now();
    assert_eq!(t2.sum_as_of(0, ts2), t1.sum_as_of(0, ts1));
    assert_eq!(t2.count_as_of(ts2), t1.count_as_of(ts1));
    assert_eq!(t2.scan_as_of(&[0, 1], ts2), t1.scan_as_of(&[0, 1], ts1));

    // Both recovered databases accept new writes and merges, routed by
    // their own shard maps.
    for (_, t) in &replayed {
        t.update_auto(1, &[(1, 777)]).unwrap();
        t.insert_auto(KEYS + 500, &[9, 9]).unwrap(); // a fresh stripe
        assert!(t.merge_all() > 0);
        assert_eq!(t.read_latest_auto(1).unwrap()[1], 777);
        assert_eq!(t.read_latest_auto(KEYS + 500).unwrap(), vec![9, 9]);
    }
    remove_streams(&path);
}

#[test]
fn recovered_table_resumes_writes_and_merges() {
    let path = wal_path("resume");
    {
        let db = Database::new(DbConfig::deterministic().with_wal_path(path.clone()));
        let t = db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        for k in 0..300 {
            t.insert_auto(k, &[k, 0]).unwrap();
        }
        for k in 0..300 {
            t.update_auto(k, &[(0, k + 1)]).unwrap();
        }
        db.runtime().wal.as_ref().unwrap().sync().unwrap();
    }
    let state = lstore_wal::recover(&path).unwrap();
    let db2 = Database::new(DbConfig::deterministic());
    let t2 = db2
        .create_table("r", &["a", "b"], TableConfig::small())
        .unwrap();
    t2.replay(&state).unwrap();

    // Life goes on: new writes, merges, historic compression, scans.
    for k in 0..300 {
        t2.update_auto(k, &[(1, 5)]).unwrap();
    }
    let consumed = t2.merge_all();
    assert!(consumed > 0);
    assert_eq!(t2.sum_auto(0), (1..=300u64).sum::<u64>());
    assert_eq!(t2.sum_auto(1), 300 * 5);
    for r in 0..t2.range_count() {
        t2.compress_historic(r as u32, t2.now());
    }
    assert_eq!(t2.sum_auto(0), (1..=300u64).sum::<u64>());
    std::fs::remove_file(&path).ok();
}

/// The CI recovery matrix drives this roundtrip across every
/// (shards, durability) combination via `LSTORE_SHARDS` and
/// `LSTORE_DURABILITY` — every cell must produce identical post-recovery
/// reads. Locally (no env) it runs one representative cell.
#[test]
fn recovery_roundtrip_matrix_cell() {
    let shards: usize = std::env::var("LSTORE_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let durability = match std::env::var("LSTORE_DURABILITY").as_deref() {
        Ok("wal") => Durability::Wal,
        Ok("group") => Durability::group_commit(),
        _ => Durability::None,
    };
    let path = wal_path(&format!("matrix-s{shards}"));
    const KEYS: u64 = 600;
    let expected_sum: u64;
    {
        let db = Database::new(
            DbConfig::deterministic()
                .with_shards(shards)
                .with_wal_path(path.clone())
                .with_durability(durability),
        );
        let t = db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        for k in 0..KEYS {
            t.insert_auto(k, &[k, 7 * k]).unwrap();
        }
        for k in (0..KEYS).step_by(4) {
            t.update_auto(k, &[(1, k + 3)]).unwrap();
        }
        for k in (0..KEYS).step_by(90) {
            t.delete_auto(k).unwrap();
        }
        expected_sum = t.sum_auto(0);
        db.runtime().wal.as_ref().unwrap().sync().unwrap();
    }

    let state = lstore_wal::recover_merged(&path).unwrap();
    let db2 = Database::new(DbConfig::deterministic().with_shards(shards));
    let t2 = db2
        .create_table("r", &["a", "b"], TableConfig::small())
        .unwrap();
    let report = t2.replay(&state).unwrap();
    assert_eq!(report.inserts, KEYS);

    for k in 0..KEYS {
        if k % 90 == 0 {
            assert!(read_cols(&t2, k, &[0]).is_none(), "key {k}");
            continue;
        }
        let b = if k % 4 == 0 { k + 3 } else { 7 * k };
        assert_eq!(t2.read_latest_auto(k).unwrap(), vec![k, b], "key {k}");
    }
    assert_eq!(t2.sum_auto(0), expected_sum);
    remove_streams(&path);
}

/// Crash-replay loop: kill the database at seeded random points in its
/// history (including mid-record torn tails) and verify the recovered
/// database reads byte-identically to an undamaged run of the same
/// workload prefix. Kill points land on durability boundaries — each chunk
/// of the workload ends with a full-log `sync()`, so the truncated log
/// holds exactly the chunks before the kill plus at most a torn frame
/// prefix after it.
#[test]
fn crash_replay_at_random_kill_points_matches_undamaged_run() {
    const CHUNKS: usize = 10;
    const CHUNK_KEYS: u64 = 80;

    // One chunk of deterministic workload: fresh inserts, updates of this
    // chunk's keys, deletes of the previous chunk's keys (each key is
    // deleted at most once, and never updated after deletion).
    fn apply_chunk(t: &lstore::Table, c: usize) {
        let lo = c as u64 * CHUNK_KEYS;
        for k in lo..lo + CHUNK_KEYS {
            t.insert_auto(k, &[k, k ^ 0xABCD]).unwrap();
        }
        for k in (lo..lo + CHUNK_KEYS).step_by(3) {
            t.update_auto(k, &[(0, k + 1000)]).unwrap();
        }
        if c > 0 {
            let prev = (c as u64 - 1) * CHUNK_KEYS;
            for k in (prev..prev + CHUNK_KEYS).step_by(13) {
                t.delete_auto(k).unwrap();
            }
        }
    }

    let path = wal_path("killpoints");
    // Stream byte lengths at each chunk boundary (everything synced).
    let mut boundaries: Vec<Vec<u64>> = Vec::new();
    {
        let db = Database::new(
            DbConfig::deterministic()
                .with_shards(4)
                .with_wal_path(path.clone()),
        );
        let t = db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        for c in 0..CHUNKS {
            apply_chunk(&t, c);
            db.runtime().wal.as_ref().unwrap().sync().unwrap();
            boundaries.push(read_streams(&path).iter().map(|s| s.len() as u64).collect());
        }
    }
    let full_streams = read_streams(&path);
    assert_eq!(full_streams.len(), 1, "four shards, one log file");

    // Seeded xorshift so failures reproduce; no wall-clock anywhere.
    let mut rng: u64 = 0x9E3779B97F4A7C15;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    for _ in 0..6 {
        let kill = (next() % CHUNKS as u64) as usize;
        // Truncate every stream to the kill boundary, then re-append a
        // torn prefix (≤ 8 bytes — always shorter than a frame header +
        // body, so recovery must stop cleanly) of whatever followed.
        let damaged: Vec<Vec<u8>> = full_streams
            .iter()
            .enumerate()
            .map(|(s, bytes)| {
                let cut = boundaries[kill][s] as usize;
                let tear = (next() % 9) as usize;
                let end = (cut + tear).min(bytes.len());
                bytes[..end].to_vec()
            })
            .collect();
        let state = lstore_wal::recovery::recover_merged_bytes(&damaged).unwrap();

        // The undamaged run of the same prefix: replay chunks 0..=kill
        // directly, no WAL, no crash.
        let oracle_db = Database::new(DbConfig::deterministic());
        let oracle = oracle_db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        for c in 0..=kill {
            apply_chunk(&oracle, c);
        }

        let db2 = Database::new(DbConfig::deterministic().with_shards(2));
        let t2 = db2
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        t2.replay(&state).unwrap();

        // Byte-identical reads: every key, every aggregate, every scan.
        for k in 0..(kill as u64 + 1) * CHUNK_KEYS {
            assert_eq!(
                read_cols(&t2, k, &[0, 1]),
                read_cols(&oracle, k, &[0, 1]),
                "key {k} after kill at chunk {kill}"
            );
        }
        assert_eq!(t2.sum_auto(0), oracle.sum_auto(0), "kill at chunk {kill}");
        assert_eq!(
            t2.scan_as_of(&[0, 1], t2.now()),
            oracle.scan_as_of(&[0, 1], oracle.now()),
            "kill at chunk {kill}"
        );
    }
    remove_streams(&path);
}

/// A log image in the per-shard layout older builds wrote — records routed
/// to `<base>` and `<base>.s1` by range id, each transaction's resolution
/// in the stream of its first record — still recovers through the same
/// entry point, to the same reads as the one-file log it was cut from.
#[test]
fn legacy_two_file_image_still_recovers() {
    use lstore_wal::LogRecord;

    let path = wal_path("legacy-two-files");
    const KEYS: u64 = 700; // three routing stripes, so several ranges
    {
        let db = Database::new(
            DbConfig::deterministic()
                .with_shards(2)
                .with_wal_path(path.clone()),
        );
        let t = db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        for k in 0..KEYS {
            t.insert_auto(k, &[k, 5 * k]).unwrap();
        }
        for k in (0..KEYS).step_by(2) {
            t.update_auto(k, &[(1, k + 1)]).unwrap();
        }
        for k in (0..KEYS).step_by(60) {
            t.delete_auto(k).unwrap();
        }
        // A transaction across ranges, and one that never resolves.
        let mut wide = db.begin();
        t.update(&mut wide, 1, &[(0, 1001)]).unwrap();
        t.update(&mut wide, KEYS - 1, &[(0, 1002)]).unwrap();
        db.commit(&mut wide).unwrap();
        let mut lost = db.begin();
        t.update(&mut lost, 3, &[(0, 4242)]).unwrap();
        db.runtime().wal.as_ref().unwrap().sync().unwrap();
    }
    let one_file = lstore_wal::recover_merged(&path).unwrap();

    let mut streams = [Vec::new(), Vec::new()];
    let mut home = std::collections::HashMap::new();
    for record in &one_file.records {
        let stream = match record {
            LogRecord::TailAppend { range_id, .. }
            | LogRecord::Insert { range_id, .. }
            | LogRecord::MergeCompleted { range_id, .. }
            | LogRecord::HistoricCompressed { range_id, .. } => *range_id as usize % 2,
            _ => 0,
        };
        let stream = match record.txn_id() {
            Some(txn) if matches!(record, LogRecord::Commit { .. } | LogRecord::Abort { .. }) => {
                home.get(&txn).copied().unwrap_or(0)
            }
            Some(txn) => {
                home.entry(txn).or_insert(stream);
                stream
            }
            None => stream,
        };
        streams[stream].extend_from_slice(&record.encode());
    }
    assert!(streams.iter().all(|s| !s.is_empty()), "both files in use");
    std::fs::write(&path, &streams[0]).unwrap();
    std::fs::write(lstore_wal::sharded::stream_path(&path, 1), &streams[1]).unwrap();
    let two_files = lstore_wal::recover_merged(&path).unwrap();
    assert_eq!(two_files.records.len(), one_file.records.len());
    assert_eq!(two_files.committed, one_file.committed);
    assert_eq!(two_files.in_flight, one_file.in_flight);
    assert_eq!(two_files.in_flight.len(), 1);

    let replayed = [&one_file, &two_files].map(|state| {
        let db = Database::new(DbConfig::deterministic());
        let t = db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        t.replay(state).unwrap();
        (db, t)
    });
    let (_, expect) = &replayed[0];
    let (_, got) = &replayed[1];
    assert_eq!(expect.read_latest_auto(1).unwrap()[0], 1001);
    assert_eq!(
        expect.read_latest_auto(3).unwrap()[0],
        3,
        "unresolved update"
    );
    assert_eq!(
        got.scan_as_of(&[0, 1], got.now()),
        expect.scan_as_of(&[0, 1], expect.now())
    );

    // And a new database at the same path clears the sibling away.
    drop(Database::new(
        DbConfig::deterministic().with_wal_path(path.clone()),
    ));
    assert_eq!(read_streams(&path).len(), 1);
    remove_streams(&path);
}
