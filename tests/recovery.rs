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

/// The insert-lane count (`DbConfig::shards`) is a runtime knob, not a
/// persistence format: a WAL written by a 4-lane table replays into 2-lane
/// (and 1-lane) databases with identical post-replay reads. Logged range
/// ids are global — a RID never encodes the lane count — so every replayed
/// record is reachable regardless of how many lanes the recovering
/// database runs.
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
        assert_eq!(t.range_count(), 4, "one insert range per lane");
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
    assert_eq!(t2.range_count(), t1.range_count(), "the logged ranges");

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

    // Both recovered databases accept new writes and merges, inserting
    // through their own lanes.
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

/// The recovery roundtrip in every (insert lanes, durability) cell: lanes
/// {1, 2, 4} × {no fsync, group commit}. Every cell must produce identical
/// post-recovery reads.
#[test]
fn recovery_roundtrip_matrix_cell() {
    for shards in [1usize, 2, 4] {
        for durability in [Durability::None, Durability::group_commit()] {
            recovery_roundtrip(shards, durability);
        }
    }
}

fn recovery_roundtrip(shards: usize, durability: Durability) {
    let path = wal_path(&format!("matrix-s{shards}-{durability:?}"));
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
    let shards = 4;

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

/// Crash images of a group-commit log, enumerated. The log is written in
/// place over zeros, so the 512-byte sectors of a flush that no sync has
/// covered yet may reach the disk in any order. One committer runs
/// transactions of assorted sizes; each returned commit is one flush and
/// one `fdatasync`, and the file image is kept after each. At every such
/// boundary, images are built in which each sector of the next flush has
/// landed or is still zeros (every subset up to 4 sectors; otherwise none,
/// all, and each single hole), and in which the next flush is torn after
/// every byte of its first frame. Each must recover every commit
/// acknowledged before the boundary, none acknowledged later than the
/// next, and replay to the reads of an undamaged run of what it recovered.
/// Finally, a byte flipped in any frame below the offset the last
/// watermark frame names is corruption, never a shorter state.
#[test]
fn group_commit_crash_images_keep_every_acknowledged_commit() {
    use lstore_wal::recovery::recover_from_bytes;
    const COHORTS: usize = 14;
    const SECTOR: usize = 512;

    // Cohort `c`: one transaction inserting fresh keys, updating some of
    // its own and of the previous cohort's; sizes cycle through 1 to 5
    // sectors of log.
    fn keys_of(c: usize) -> std::ops::Range<u64> {
        let lo: u64 = (0..c).map(|c| 4 * (c as u64 % 6 + 1)).sum();
        lo..lo + 4 * (c as u64 % 6 + 1)
    }
    fn apply_cohort(db: &Database, t: &Table, c: usize) -> u64 {
        let mut txn = db.begin();
        for k in keys_of(c) {
            t.insert(&mut txn, k, &[k, 3 * k]).unwrap();
        }
        for k in keys_of(c).step_by(3) {
            t.update(&mut txn, k, &[(0, k + 500)]).unwrap();
        }
        if c > 0 {
            for k in keys_of(c - 1).step_by(2) {
                t.update(&mut txn, k, &[(1, k + c as u64)]).unwrap();
            }
        }
        db.commit(&mut txn).unwrap();
        txn.id
    }
    fn fresh() -> (std::sync::Arc<Database>, std::sync::Arc<Table>) {
        let db = Database::new(DbConfig::deterministic());
        let t = db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        (db, t)
    }
    // Every key any cohort writes; one not inserted yet reads as `None`.
    let reads = |t: &Table| -> Vec<_> {
        (0..keys_of(COHORTS).start)
            .map(|k| {
                let request = ReadRequest::latest(k).with_columns(vec![0, 1]);
                t.read_one(&request).ok().map(|r| r.values)
            })
            .collect()
    };

    let path = wal_path("group-commit-images");
    // The file after creation, then after each cohort returned.
    let mut images = Vec::new();
    let mut acked = Vec::new();
    {
        let db = Database::new(
            DbConfig::deterministic()
                .with_wal_path(path.clone())
                .with_durability(Durability::group_commit()),
        );
        let t = db
            .create_table("r", &["a", "b"], TableConfig::small())
            .unwrap();
        images.push(std::fs::read(&path).unwrap());
        for c in 0..COHORTS {
            acked.push(apply_cohort(&db, &t, c));
            images.push(std::fs::read(&path).unwrap());
        }
        assert_eq!(db.wal_stats().unwrap().syncs, COHORTS as u64);
    }
    std::fs::remove_file(&path).ok();

    // Reads of an undamaged run of the first `n` cohorts.
    let oracles: Vec<_> = (0..=COHORTS)
        .map(|n| {
            let (db, t) = fresh();
            for c in 0..n {
                apply_cohort(&db, &t, c);
            }
            (reads(&t), t.sum_auto(0), t.scan_as_of(&[0, 1], t.now()))
        })
        .collect();

    let mut checked = 0;
    for k in 0..COHORTS {
        let len = images[k].len().max(images[k + 1].len());
        let mut before = images[k].clone();
        let mut after = images[k + 1].clone();
        before.resize(len, 0);
        after.resize(len, 0);
        // Where the next flush starts: the image ends there in zeros.
        let start = recover_from_bytes(&before).unwrap().bytes_scanned;
        assert!(before[start..].iter().all(|&b| b == 0), "boundary {k}");
        let sectors: Vec<usize> = (0..len.div_ceil(SECTOR))
            .filter(|s| {
                let r = s * SECTOR..((s + 1) * SECTOR).min(len);
                before[r.clone()] != after[r]
            })
            .collect();
        let landed = |set: &dyn Fn(usize) -> bool| {
            let mut image = before.clone();
            for (i, s) in sectors.iter().enumerate() {
                if set(i) {
                    let r = s * SECTOR..((s + 1) * SECTOR).min(len);
                    image[r.clone()].copy_from_slice(&after[r]);
                }
            }
            image
        };
        let mut crash_images = Vec::new();
        if sectors.len() <= 4 {
            for subset in 0..1usize << sectors.len() {
                crash_images.push(landed(&|i| subset >> i & 1 == 1));
            }
        } else {
            crash_images.push(landed(&|_| false));
            crash_images.push(landed(&|_| true));
            for hole in 0..sectors.len() {
                crash_images.push(landed(&|i| i != hole));
            }
        }
        let first_frame =
            8 + u32::from_be_bytes(after[start..start + 4].try_into().unwrap()) as usize;
        for tear in 0..=first_frame {
            let mut image = before.clone();
            image[start..start + tear].copy_from_slice(&after[start..start + tear]);
            crash_images.push(image);
        }

        for (i, image) in crash_images.iter().enumerate() {
            let state = recover_from_bytes(image)
                .unwrap_or_else(|e| panic!("boundary {k}, image {i}: {e}"));
            let n = state.committed.len();
            assert!(n == k || n == k + 1, "boundary {k}, image {i}: {n} commits");
            for id in &acked[..n] {
                assert!(state.committed.contains_key(id), "boundary {k}, image {i}");
            }
            let (_db, t) = fresh();
            t.replay(&state).unwrap();
            let (expect, sum, scan) = &oracles[n];
            assert!(&reads(&t) == expect, "reads at boundary {k}, image {i}");
            assert_eq!(t.sum_auto(0), *sum, "boundary {k}, image {i}");
            assert!(
                &t.scan_as_of(&[0, 1], t.now()) == scan,
                "scan at boundary {k}, image {i}"
            );
            checked += 1;
        }
    }
    assert!(checked > 20 * COHORTS, "{checked} crash images");

    // Damage below the offset the last watermark frame names is refused.
    let image = &images[COHORTS];
    let mut frames = Vec::new();
    let mut at = 0;
    while at + 8 < image.len() && image[at..at + 8] != [0; 8] {
        let len = 8 + u32::from_be_bytes(image[at..at + 4].try_into().unwrap()) as usize;
        frames.push((at, len));
        at += len;
    }
    let synced = frames
        .iter()
        .filter(|&&(at, len)| len == 17 && image[at + 8] == 8)
        .map(|&(at, _)| u64::from_be_bytes(image[at + 9..at + 17].try_into().unwrap()))
        .max()
        .unwrap() as usize;
    let below: Vec<_> = frames.iter().filter(|&&(at, _)| at < synced).collect();
    assert!(
        below.len() > 3 * COHORTS,
        "{} frames below {synced}",
        below.len()
    );
    for &&(at, len) in &below {
        for byte in [at, at + 5, at + len / 2, at + len - 1] {
            let mut damaged = image.clone();
            damaged[byte] ^= 0x5A;
            assert!(
                matches!(
                    recover_from_bytes(&damaged),
                    Err(lstore_wal::WalError::Corrupt(_))
                ),
                "a flipped byte at {byte}, in the frame at {at}, was not refused"
            );
        }
    }
}
