//! Crash recovery (§5.1.3): redo-only WAL replay, tombstoning of in-flight
//! transactions, indirection-column rebuild.

use std::path::PathBuf;

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
                let row = t.read_one(&ReadRequest::latest(k)).unwrap().values.unwrap();
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
        let got = t2
            .read_one(&ReadRequest::latest(row[0]))
            .unwrap()
            .values
            .unwrap();
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
    assert_eq!(
        t2.read_one(&ReadRequest::latest(1)).unwrap().values,
        Some(vec![1])
    );
    assert_eq!(
        t2.read_one(&ReadRequest::latest(2)).unwrap().values,
        Some(vec![2])
    );
    assert!(matches!(
        t2.read_one(&ReadRequest::latest(100)),
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
        assert_eq!(
            t2.read_one(&ReadRequest::latest(k)).unwrap().values,
            Some(vec![k])
        );
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

    // "After the crash": the 4-shard run wrote one log file.
    let state = lstore_wal::recover(&path).unwrap();
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
        assert_eq!(
            t2.read_one(&ReadRequest::latest(k))
                .unwrap()
                .values
                .unwrap(),
            expect,
            "key {k} shards=2"
        );
        assert_eq!(
            t1.read_one(&ReadRequest::latest(k))
                .unwrap()
                .values
                .unwrap(),
            expect,
            "key {k} shards=1"
        );
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
        assert_eq!(
            t.read_one(&ReadRequest::latest(1)).unwrap().values.unwrap()[1],
            777
        );
        assert_eq!(
            t.read_one(&ReadRequest::latest(KEYS + 500)).unwrap().values,
            Some(vec![9, 9])
        );
    }
    std::fs::remove_file(&path).ok();
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

    let state = lstore_wal::recover(&path).unwrap();
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
        assert_eq!(
            t2.read_one(&ReadRequest::latest(k)).unwrap().values,
            Some(vec![k, b]),
            "key {k}"
        );
    }
    assert_eq!(t2.sum_auto(0), expected_sum);
    std::fs::remove_file(&path).ok();
}

/// Crash points enumerated, not sampled: the workload runs in chunks, each
/// ending with a full-log `sync()`, and the log is cut at every chunk
/// boundary with every possible torn prefix of the frame that followed
/// (0 up to its length − 1 bytes). Each damaged log must replay to reads
/// identical to an undamaged run of the chunks before the cut. A flipped
/// byte inside a chunk's first frame, with later chunks behind it, is
/// corruption and never a shorter state.
#[test]
fn crash_replay_at_every_boundary_and_tear_matches_undamaged_run() {
    const CHUNKS: usize = 6;
    const CHUNK_KEYS: u64 = 40;
    let shards: usize = std::env::var("LSTORE_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    // One chunk of deterministic workload: fresh inserts, updates of this
    // chunk's keys, deletes of the previous chunk's keys (each key is
    // deleted at most once, and never updated after deletion).
    fn apply_chunk(t: &Table, c: usize) {
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

    fn fresh(shards: usize) -> (std::sync::Arc<Database>, std::sync::Arc<Table>) {
        let db = Database::new(DbConfig::deterministic().with_shards(shards));
        let t = db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        (db, t)
    }

    let path = wal_path("killpoints");
    // Log length at each chunk boundary (everything synced), from 0.
    let mut boundaries = vec![0usize];
    {
        let db = Database::new(
            DbConfig::deterministic()
                .with_shards(shards)
                .with_wal_path(path.clone()),
        );
        let t = db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        for c in 0..CHUNKS {
            apply_chunk(&t, c);
            db.runtime().wal.as_ref().unwrap().sync().unwrap();
            boundaries.push(std::fs::metadata(&path).unwrap().len() as usize);
        }
    }
    let log = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(log.len(), boundaries[CHUNKS]);
    let frame_len = |at: usize| {
        lstore_wal::LogRecord::decode(&log[at..])
            .unwrap()
            .unwrap()
            .1
    };

    for (done, &cut) in boundaries[..CHUNKS].iter().enumerate() {
        // The undamaged run of chunks 0..done: no WAL, no crash.
        let (_oracle_db, oracle) = fresh(1);
        for c in 0..done {
            apply_chunk(&oracle, c);
        }
        let keys = 0..done as u64 * CHUNK_KEYS;
        let expect: Vec<_> = keys
            .clone()
            .map(|k| read_cols(&oracle, k, &[0, 1]))
            .collect();
        let expect_scan = oracle.scan_as_of(&[0, 1], oracle.now());

        for tear in 0..frame_len(cut) {
            let state = lstore_wal::recovery::recover_from_bytes(&log[..cut + tear]).unwrap();
            assert_eq!(state.bytes_scanned, cut, "cut {done} tear {tear}");
            let (_db, t) = fresh(2);
            t.replay(&state).unwrap();
            let got: Vec<_> = keys.clone().map(|k| read_cols(&t, k, &[0, 1])).collect();
            assert!(got == expect, "reads after chunk {done}, tear {tear}");
            assert_eq!(
                t.sum_auto(0),
                oracle.sum_auto(0),
                "chunk {done} tear {tear}"
            );
            assert!(
                t.scan_as_of(&[0, 1], t.now()) == expect_scan,
                "scan after chunk {done}, tear {tear}"
            );
        }

        // A damaged frame with later chunks behind it is not a torn tail.
        let mut damaged = log.clone();
        damaged[cut + frame_len(cut) - 1] ^= 0x5A;
        assert!(
            matches!(
                lstore_wal::recovery::recover_from_bytes(&damaged),
                Err(lstore_wal::WalError::Corrupt(_))
            ),
            "a flipped byte in chunk {done}'s first frame was not refused"
        );
    }
}

/// A log written in the per-shard layout of an older build has a
/// `<path>.s1` sibling that the file at `path` does not include: recovery
/// refuses it, naming the sibling, instead of half-reading it. Creating the
/// log anew removes the sibling, and the new log recovers.
#[test]
fn an_old_layout_log_is_refused_until_the_log_is_created_anew() {
    use lstore_wal::{CommitPolicy, Wal};

    let path = wal_path("old-layout");
    {
        let db = Database::new(DbConfig::deterministic().with_wal_path(path.clone()));
        let t = db.create_table("r", &["a"], TableConfig::small()).unwrap();
        for k in 0..20 {
            t.insert_auto(k, &[k]).unwrap();
        }
        db.runtime().wal.as_ref().unwrap().sync().unwrap();
    }
    assert_eq!(lstore_wal::recover(&path).unwrap().committed.len(), 20);
    let mut sibling = path.clone().into_os_string();
    sibling.push(".s1");
    let sibling = PathBuf::from(sibling);
    std::fs::write(&sibling, std::fs::read(&path).unwrap()).unwrap();

    match lstore_wal::recover(&path) {
        Err(lstore_wal::WalError::Corrupt(message)) => assert!(
            message.contains(&*sibling.to_string_lossy()),
            "the refusal names the sibling: {message}"
        ),
        other => panic!(
            "an old-layout log recovered: {:?}",
            other.map(|s| s.records.len())
        ),
    }

    drop(Wal::create(&path, CommitPolicy::Buffered).unwrap());
    assert!(!sibling.exists());
    assert!(lstore_wal::recover(&path).unwrap().records.is_empty());
    std::fs::remove_file(&path).ok();
}
