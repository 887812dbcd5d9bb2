//! Crash recovery (§5.1.3): redo-only WAL replay, tombstoning of in-flight
//! transactions, indirection-column rebuild.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use lstore::{Database, DbConfig, Durability, ReadRequest, Table, TableConfig};
use lstore_txn::TxnManager;
use lstore_wal::io::{every_crash_point, Crash, FaultFs};
use lstore_wal::recovery::recover_from_bytes;
use lstore_wal::{LogRecord, RecoveredState, WalError};

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

    drop(Wal::create(&lstore_wal::io::OsFs, &path, CommitPolicy::Buffered).unwrap());
    assert!(!sibling.exists());
    assert!(lstore_wal::recover(&path).unwrap().records.is_empty());
    std::fs::remove_file(&path).ok();
}

// ----------------------------------------------------------------------
// Crash images, enumerated over an in-memory `FaultFs`
// ----------------------------------------------------------------------

const LOG: &str = "crash.wal";

/// A database logging to `LOG` in `fs`.
fn logging_to(fs: &FaultFs, shards: usize, durability: Durability) -> Arc<Database> {
    let config = DbConfig::deterministic()
        .with_shards(shards)
        .with_wal_path(LOG.into())
        .with_durability(durability);
    Database::with_parts(config, fs, &lstore_storage::io::OsFs, TxnManager::new())
}

fn table(db: &Database) -> Arc<Table> {
    db.create_table("r", &["a", "b"], TableConfig::small())
        .unwrap()
}

fn log_of(fs: &FaultFs) -> Arc<Vec<u8>> {
    fs.contents(Path::new(LOG)).unwrap()
}

/// What a replayed table is compared on: the row of every key below a
/// bound (`None` for one never inserted), the sum of column 0, a scan.
type Observed = (Vec<Option<Option<Vec<u64>>>>, u64, Vec<(u64, Vec<u64>)>);

fn observe(t: &Table, keys: u64) -> Observed {
    let reads = (0..keys)
        .map(|k| {
            let request = ReadRequest::latest(k).with_columns(vec![0, 1]);
            t.read_one(&request).ok().map(|r| r.values)
        })
        .collect();
    (reads, t.sum_auto(0), t.scan_as_of(&[0, 1], t.now()))
}

/// What every crash image of a log must satisfy, whatever the workload.
struct LogImages<'a> {
    buffered: bool,
    keys: u64,
    undamaged: Vec<LogRecord>,
    /// Reads of an undamaged run of the first `n` commits.
    oracle: &'a dyn Fn(usize) -> Observed,
    oracles: HashMap<usize, Observed>,
    /// Record counts already replayed: a replay of the same records reads
    /// the same, so each prefix is replayed once.
    replayed: HashSet<usize>,
}

impl LogImages<'_> {
    /// Recovery succeeds — except that a buffered log whose unsynced
    /// sectors landed out of order may be refused as corrupt: that policy
    /// promises nothing there. The first `acked` commits, acknowledged as
    /// durable before the crash, are present; the records are a prefix of
    /// the undamaged run's; and replaying them reads the same as an
    /// undamaged run of the commits recovered.
    fn check(&mut self, crash: &Crash, acked: usize, what: &str) -> Option<RecoveredState> {
        let state = match recover_from_bytes(&log_of(&crash.fs)) {
            Err(WalError::Corrupt(_)) if self.buffered && !crash.in_order => return None,
            state => state.unwrap_or_else(|e| panic!("{what}: {e}")),
        };
        let n = state.committed.len();
        assert!(
            n >= acked,
            "{what}: {n} commits recovered, {acked} acknowledged"
        );
        assert!(
            self.undamaged.starts_with(&state.records),
            "{what}: records that are not a prefix of the undamaged run's"
        );
        if self.replayed.insert(state.records.len()) {
            let db = Database::new(DbConfig::deterministic().with_shards(2));
            let t = table(&db);
            t.replay(&state).unwrap();
            let expect = self.oracles.entry(n).or_insert_with(|| (self.oracle)(n));
            assert!(&observe(&t, self.keys) == expect, "{what}: reads diverge");
        }
        Some(state)
    }
}

/// Crash points enumerated: a buffered log (every commit flushed to the
/// OS, never synced) of chunks of auto-commit operations, each chunk ending
/// with a full-log `sync()`, crashed after each of its calls into every
/// image the crash model allows — the sectors of unsynced appends landed
/// or not, and the first unsynced append torn after every byte. A flipped
/// byte inside a chunk's first frame, with later chunks behind it, is
/// corruption and never a shorter state.
#[test]
fn crash_replay_at_every_boundary_and_tear_matches_undamaged_run() {
    buffered_log_crashes(false);
}

#[test]
#[ignore = "exhaustive; run with --ignored --release"]
fn crash_replay_at_every_call_matches_undamaged_run_exhaustive() {
    buffered_log_crashes(true);
}

fn buffered_log_crashes(all: bool) {
    const CHUNKS: usize = 6;
    const CHUNK_KEYS: u64 = 40;
    /// One auto-commit operation on a key.
    enum Op {
        Insert(u64),
        Update(u64),
        Delete(u64),
    }
    fn apply(t: &Table, op: &Op) {
        match *op {
            Op::Insert(k) => t.insert_auto(k, &[k, k ^ 0xABCD]).map(drop),
            Op::Update(k) => t.update_auto(k, &[(0, k + 1000)]).map(drop),
            Op::Delete(k) => t.delete_auto(k),
        }
        .unwrap()
    }
    // One chunk: fresh inserts, updates of this chunk's keys, deletes of
    // the previous chunk's keys (each key is deleted at most once, and
    // never updated after deletion).
    let chunks: Vec<Vec<Op>> = (0..CHUNKS as u64)
        .map(|c| {
            let keys = c * CHUNK_KEYS..(c + 1) * CHUNK_KEYS;
            let prev = c.saturating_sub(1) * CHUNK_KEYS..c * CHUNK_KEYS;
            let inserts = keys.clone().map(Op::Insert);
            let updates = keys.step_by(3).map(Op::Update);
            inserts
                .chain(updates)
                .chain(prev.step_by(13).map(Op::Delete))
                .collect()
        })
        .collect();
    // Calls made, operations done and log length at each sync.
    let synced = Mutex::new(Vec::new());
    let workload = |fs: &FaultFs| {
        let db = logging_to(fs, 4, Durability::None);
        let t = table(&db);
        let (mut marks, mut done) = (Vec::new(), 0);
        for chunk in &chunks {
            chunk.iter().for_each(|op| apply(&t, op));
            db.runtime().wal.as_ref().unwrap().sync().unwrap();
            done += chunk.len();
            marks.push((fs.calls(), done, log_of(fs).len()));
        }
        *synced.lock().unwrap() = marks;
    };
    let fs = FaultFs::new();
    workload(&fs);
    let log = log_of(&fs);
    let oracle = |n: usize| {
        let db = Database::new(DbConfig::deterministic());
        let t = table(&db);
        chunks.iter().flatten().take(n).for_each(|op| apply(&t, op));
        observe(&t, CHUNKS as u64 * CHUNK_KEYS)
    };
    let mut images = LogImages {
        buffered: true,
        keys: CHUNKS as u64 * CHUNK_KEYS,
        undamaged: recover_from_bytes(&log).unwrap().records,
        oracle: &oracle,
        oracles: HashMap::new(),
        replayed: HashSet::new(),
    };
    let marks = synced.lock().unwrap().clone();
    let checked = every_crash_point(all, workload, |point, crash| {
        let acked = marks.iter().filter(|m| m.0 <= point).map(|m| m.1).max();
        images.check(&crash, acked.unwrap_or(0), &format!("after call {point}"));
    });
    eprintln!("{checked} crash images of a buffered log checked");
    assert!(checked > 6 * 40, "{checked} crash images");

    // A damaged frame with later chunks behind it is not a torn tail.
    let frame_len = |at: usize| LogRecord::decode(&log[at..]).unwrap().unwrap().1;
    let boundaries = std::iter::once(0).chain(marks.iter().map(|m| m.2));
    for (done, cut) in boundaries.take(CHUNKS).enumerate() {
        let mut damaged = log.to_vec();
        damaged[cut + frame_len(cut) - 1] ^= 0x5A;
        assert!(
            matches!(recover_from_bytes(&damaged), Err(WalError::Corrupt(_))),
            "a flipped byte in chunk {done}'s first frame was not refused"
        );
    }
}

/// Crash images of a group-commit log, enumerated. The log is written in
/// place over zeros, so the 512-byte sectors of a flush that no sync has
/// covered yet may reach the disk in any order. One committer runs
/// transactions of assorted sizes; each returned commit is one flush and
/// one `fdatasync`. Crashed after each call, every image — each sector of
/// the unsynced flush landed or still zeros, or the flush torn after every
/// byte of its first sector — must recover every commit acknowledged
/// before the crash, at most one more, and replay to the reads of an
/// undamaged run of what it recovered. Finally, a byte flipped in any
/// frame below the offset the last watermark frame names is corruption,
/// never a shorter state.
#[test]
fn group_commit_crash_images_keep_every_acknowledged_commit() {
    group_commit_crashes(false);
}

#[test]
#[ignore = "exhaustive; run with --ignored --release"]
fn group_commit_crash_images_at_every_call_exhaustive() {
    group_commit_crashes(true);
}

fn group_commit_crashes(all: bool) {
    const COHORTS: usize = 14;

    // Cohort `c`: one transaction inserting fresh keys, updating some of
    // its own and of the previous cohort's; sizes cycle through 1 to 5
    // sectors of log.
    fn keys_of(c: usize) -> std::ops::Range<u64> {
        let lo: u64 = (0..c).map(|c| 4 * (c as u64 % 6 + 1)).sum();
        lo..lo + 4 * (c as u64 % 6 + 1)
    }
    fn apply_cohort(db: &Database, t: &Table, c: usize) {
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
    }
    let keys = keys_of(COHORTS).start;

    // Calls made when each commit returned; the live log after the last.
    let acks = Mutex::new(Vec::new());
    let last = Mutex::new(Arc::default());
    let workload = |fs: &FaultFs| {
        let db = logging_to(fs, 1, Durability::group_commit());
        let t = table(&db);
        let mut calls = Vec::new();
        for c in 0..COHORTS {
            apply_cohort(&db, &t, c);
            calls.push(fs.calls());
        }
        assert_eq!(db.metrics().wal.unwrap().syncs, COHORTS as u64);
        *acks.lock().unwrap() = calls;
        *last.lock().unwrap() = log_of(fs);
    };
    let fs = FaultFs::new();
    workload(&fs);
    let oracle = |n: usize| {
        let db = Database::new(DbConfig::deterministic());
        let t = table(&db);
        (0..n).for_each(|c| apply_cohort(&db, &t, c));
        observe(&t, keys)
    };
    let mut images = LogImages {
        buffered: false,
        keys,
        undamaged: recover_from_bytes(&log_of(&fs)).unwrap().records,
        oracle: &oracle,
        oracles: HashMap::new(),
        replayed: HashSet::new(),
    };
    let acked_at = acks.lock().unwrap().clone();
    let checked = every_crash_point(all, workload, |point, crash| {
        let acked = acked_at.iter().filter(|&&at| at <= point).count();
        let what = format!("after call {point}");
        let state = images.check(&crash, acked, &what).unwrap();
        assert!(
            state.committed.len() <= acked + 1,
            "{what}: a commit from the future"
        );
    });
    eprintln!("{checked} crash images of a group-commit log checked");
    assert!(checked > 382, "{checked} crash images");

    // Damage below the offset the last watermark frame names is refused.
    let image = last.lock().unwrap().clone();
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
            let mut damaged = image.to_vec();
            damaged[byte] ^= 0x5A;
            assert!(
                matches!(recover_from_bytes(&damaged), Err(WalError::Corrupt(_))),
                "a flipped byte at {byte}, in the frame at {at}, was not refused"
            );
        }
    }
}
