//! Durability is a *wait* policy, never a *data* policy: what a commit
//! fsyncs (nothing, or the log once per group-commit cohort) must
//! not change what any reader observes, at any snapshot, under any shard
//! count. These tests run one deterministic workload through every
//! (durability, shards) cell and require byte-identical reads everywhere,
//! plus recovery-level invariants on the logs the cells produced.

use std::path::PathBuf;

use lstore::{Database, DbConfig, Durability, IsolationLevel, ReadRequest, Table, TableConfig};

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lstore-durability-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.wal", std::process::id()))
}

const KEYS: u64 = 400;

/// One read snapshot: (sum of column 0, full keyed scan).
type Snapshot = (u64, Vec<(u64, Vec<u64>)>);

/// Deterministic workload with a read snapshot taken after each phase.
fn run_workload(t: &Table) -> Vec<Snapshot> {
    let mut snapshots = Vec::new();
    let mut observe = |t: &Table| {
        let ts = t.now();
        snapshots.push((t.sum_as_of(0, ts), t.scan_as_of(&[0, 1], ts)));
    };
    for k in 0..KEYS {
        t.insert_auto(k, &[k, k * 5]).unwrap();
    }
    observe(t);
    for k in (0..KEYS).step_by(2) {
        t.update_auto(k, &[(0, k + 1_000_000)]).unwrap();
    }
    observe(t);
    for k in (0..KEYS).step_by(31) {
        t.delete_auto(k).unwrap();
    }
    observe(t);
    for k in (1..KEYS).step_by(5).filter(|k| k % 31 != 0) {
        t.update_auto(k, &[(1, 42)]).unwrap();
    }
    observe(t);
    snapshots
}

#[test]
fn durability_modes_produce_identical_reads() {
    let modes: [(&str, Durability); 2] = [
        ("none", Durability::None),
        ("group", Durability::group_commit()),
    ];
    let mut reference: Option<Vec<Snapshot>> = None;
    for (mode_name, durability) in modes {
        for shards in [1usize, 2, 4] {
            let path = wal_path(&format!("modes-{mode_name}-{shards}"));
            let db = Database::new(
                DbConfig::deterministic()
                    .with_shards(shards)
                    .with_wal_path(path.clone())
                    .with_durability(durability),
            );
            let t = db
                .create_table("r", &["a", "b"], TableConfig::small())
                .unwrap();
            let snapshots = run_workload(&t);
            db.runtime().wal.as_ref().unwrap().sync().unwrap();
            drop(t);
            drop(db);

            // Identical reads at every snapshot, against the first cell.
            match &reference {
                None => reference = Some(snapshots),
                Some(expect) => {
                    assert_eq!(
                        &snapshots, expect,
                        "reads diverged: durability={mode_name} shards={shards}"
                    );
                }
            }

            // Recovery-level invariants on the log this cell produced:
            // every commit is present exactly once, commit timestamps are
            // unique, and the file order never goes backwards in
            // commit timestamp — group-commit cohorts batch *fsyncs*, not
            // timestamps, so cohort boundaries must be invisible here.
            let state = lstore_wal::recover(&path).unwrap();
            assert!(state.in_flight.is_empty(), "{mode_name}/{shards}");
            let mut timestamps: Vec<u64> = state.committed.values().copied().collect();
            let unique_before = timestamps.len();
            timestamps.sort_unstable();
            timestamps.dedup();
            assert_eq!(
                timestamps.len(),
                unique_before,
                "duplicate commit_ts: durability={mode_name} shards={shards}"
            );
            let mut last_commit_ts = 0u64;
            for record in &state.records {
                if let lstore_wal::LogRecord::Commit { commit_ts, .. } = record {
                    assert!(
                        *commit_ts > last_commit_ts,
                        "one writer logged commits out of order: {commit_ts} after \
                         {last_commit_ts} (durability={mode_name} shards={shards})"
                    );
                    last_commit_ts = *commit_ts;
                }
            }

            // And the recovered database reads identically too.
            let db2 = Database::new(DbConfig::deterministic().with_shards(shards));
            let t2 = db2
                .create_table("r", &["a", "b"], TableConfig::small())
                .unwrap();
            t2.replay(&state).unwrap();
            let expect = reference.as_ref().unwrap();
            let (final_sum, final_scan) = expect.last().unwrap();
            assert_eq!(
                t2.sum_as_of(0, t2.now()),
                *final_sum,
                "recovered sum: durability={mode_name} shards={shards}"
            );
            assert_eq!(
                &t2.scan_as_of(&[0, 1], t2.now()),
                final_scan,
                "recovered scan: durability={mode_name} shards={shards}"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Every key's latest row and the column-0 sum: what a table replayed from
/// the log must read.
type Reads = (Vec<Vec<u64>>, u64);

fn reads(t: &Table, keys: &[u64]) -> Reads {
    let rows = keys
        .iter()
        .map(|&k| t.read_one(&ReadRequest::latest(k)).unwrap().values.unwrap())
        .collect();
    (rows, t.sum_auto(0))
}

/// Run `load` then `work(writer)` on four writer threads of a 4-shard
/// group-commit database with background merges, and record the live reads
/// of `keys` before the database drops. Recovery reads the log in file
/// order, where concurrent committers' commit records need not be in
/// timestamp order: the table replayed from it must read exactly the same.
fn concurrent_run(
    name: &str,
    keys: &[u64],
    load: impl FnOnce(&Table),
    work: impl Fn(&Table, u64) + Sync,
) -> lstore_wal::RecoveredState {
    let path = wal_path(name);
    let live = {
        let db = Database::new(
            DbConfig::new()
                .with_shards(4)
                .with_pool_threads(2)
                .with_wal_path(path.clone())
                .with_durability(Durability::group_commit()),
        );
        let t = db.create_table("r", &["a"], TableConfig::small()).unwrap();
        load(&t);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (t, work) = (&t, &work);
                scope.spawn(move || work(t, w));
            }
        });
        db.drain_merges();
        reads(&t, keys)
    };

    let state = lstore_wal::recover(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let db2 = Database::new(DbConfig::deterministic());
    let t2 = db2.create_table("r", &["a"], TableConfig::small()).unwrap();
    t2.replay(&state).unwrap();
    assert!(
        reads(&t2, keys) == live,
        "{name}: replay in file order diverged"
    );
    state
}

const WRITERS: u64 = 4;

/// Concurrent committers under group commit: cohorts amortize fsyncs
/// across writer threads, and the durable log still recovers to exactly
/// the committed state — one commit record per transaction, unique
/// timestamps, no lost updates.
#[test]
fn group_commit_under_concurrency_recovers_every_commit() {
    const PER_WRITER: u64 = 100;
    let keys: Vec<u64> = (0..WRITERS)
        .flat_map(|w| (0..PER_WRITER).map(move |i| w * 10_000 + i))
        .collect();
    let state = concurrent_run(
        "group-concurrent",
        &keys,
        |_| {},
        |t, w| {
            for i in 0..PER_WRITER {
                t.insert_auto(w * 10_000 + i, &[w]).unwrap();
            }
        },
    );
    assert_eq!(
        state.committed.len() as u64,
        WRITERS * PER_WRITER,
        "every group-committed transaction recovered"
    );
    let mut timestamps: Vec<u64> = state.committed.values().copied().collect();
    timestamps.sort_unstable();
    timestamps.dedup();
    assert_eq!(timestamps.len() as u64, WRITERS * PER_WRITER);

    let db2 = Database::new(DbConfig::deterministic());
    let t2 = db2.create_table("r", &["a"], TableConfig::small()).unwrap();
    let report = t2.replay(&state).unwrap();
    assert_eq!(report.inserts, WRITERS * PER_WRITER);
    for w in 0..WRITERS {
        for i in 0..PER_WRITER {
            assert_eq!(
                t2.read_one(&ReadRequest::latest(w * 10_000 + i))
                    .unwrap()
                    .values,
                Some(vec![w])
            );
        }
    }
}

/// The same with every writer updating keys the others update too, while
/// background merges log their completion between the commits.
#[test]
fn shared_key_updates_beside_merges_replay_in_file_order() {
    const SHARED: u64 = 512;
    const PER_WRITER: u64 = 150;
    let keys: Vec<u64> = (0..SHARED).collect();
    let state = concurrent_run(
        "group-shared",
        &keys,
        |t| {
            for k in 0..SHARED {
                t.insert_auto(k, &[k]).unwrap();
            }
        },
        |t, w| {
            for i in 0..PER_WRITER {
                let key = (w * 7 + i * 13) % SHARED;
                loop {
                    match t.update_auto(key, &[(0, w * 1000 + i)]) {
                        Ok(_) => break,
                        Err(lstore::Error::WriteConflict { .. }) => continue,
                        Err(e) => panic!("update {key}: {e}"),
                    }
                }
            }
        },
    );
    let merged_at = state
        .records
        .iter()
        .position(|r| matches!(r, lstore_wal::LogRecord::MergeCompleted { .. }))
        .expect("a merge was logged");
    assert!(
        state.records[merged_at..]
            .iter()
            .any(|r| matches!(r, lstore_wal::LogRecord::Commit { .. })),
        "merge records interleave with commits"
    );
}

/// A transaction that logged nothing has nothing to make durable: under
/// group commit an empty or read-only commit returns without an fsync, a
/// read-only abort writes nothing, and recovery never hears of either.
#[test]
fn nothing_logged_means_nothing_to_wait_for() {
    let path = wal_path("nothing-logged");
    let mut unlogged = Vec::new();
    let writer_id;
    {
        let db = Database::new(
            DbConfig::deterministic()
                .with_wal_path(path.clone())
                .with_durability(Durability::group_commit()),
        );
        let t = db.create_table("r", &["a"], TableConfig::small()).unwrap();
        for k in 0..20 {
            t.insert_auto(k, &[k]).unwrap();
        }
        let wal = db.runtime().wal.clone().unwrap();
        wal.sync().unwrap();
        let stats = db.metrics().wal.unwrap();
        assert_eq!(stats.commits_enrolled, 20);
        let log_len = std::fs::metadata(&path).unwrap().len();

        let mut empty = db.begin();
        db.commit(&mut empty).unwrap();
        unlogged.push(empty.id);

        let mut reader = db.begin();
        assert_eq!(t.read(&mut reader, 3, &[0]).unwrap(), Some(vec![3]));
        db.commit(&mut reader).unwrap();
        unlogged.push(reader.id);

        let mut validated = db.begin_with(IsolationLevel::RepeatableRead);
        assert_eq!(t.read(&mut validated, 4, &[0]).unwrap(), Some(vec![4]));
        db.commit(&mut validated).unwrap();
        unlogged.push(validated.id);

        let mut given_up = db.begin();
        assert_eq!(t.read(&mut given_up, 5, &[0]).unwrap(), Some(vec![5]));
        db.abort(&mut given_up);
        unlogged.push(given_up.id);

        assert_eq!(db.metrics().wal.unwrap(), stats, "no enrolment, no fsync");
        wal.flush().unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            log_len,
            "not a byte written"
        );

        // A read-only transaction that fails validation is as unknown to
        // the log as one that passes; the writer that made it fail is not.
        let mut stale = db.begin_with(IsolationLevel::RepeatableRead);
        assert_eq!(t.read(&mut stale, 6, &[0]).unwrap(), Some(vec![6]));
        let mut writer = db.begin();
        t.update(&mut writer, 6, &[(0, 66)]).unwrap();
        db.commit(&mut writer).unwrap();
        writer_id = writer.id;
        assert!(db.commit(&mut stale).is_err());
        unlogged.push(stale.id);
        let after = db.metrics().wal.unwrap();
        assert_eq!(after.commits_enrolled, stats.commits_enrolled + 1);
        assert_eq!(after.syncs, stats.syncs + 1);
    }
    let state = lstore_wal::recover(&path).unwrap();
    assert!(state.in_flight.is_empty());
    assert!(state.committed.contains_key(&writer_id));
    for id in unlogged {
        assert!(
            state.records.iter().all(|r| r.txn_id() != Some(id)),
            "transaction {id:#x} logged nothing and is in the log"
        );
    }
    std::fs::remove_file(&path).ok();
}
