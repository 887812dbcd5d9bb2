//! Commit-path fault handling: every way a commit can fail must leave the
//! transaction cleanly aborted — in the §5.1.1 state machine *and* in the
//! WAL, so crash recovery classifies it instead of finding it unresolved —
//! and the transaction handle must be finalized (no second commit, no
//! state-machine re-entry).

use std::path::PathBuf;
use std::sync::Arc;

use lstore::{Database, DbConfig, Error, IsolationLevel, ReadRequest, TableConfig};
use lstore_txn::TxnManager;
use lstore_wal::io::{Fault, FaultFs};

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lstore-commit-fault-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.wal", std::process::id()))
}

/// The database logging to `log` in `fs`, opened from what the log holds.
fn logging_to(fs: &FaultFs, log: &str) -> Arc<Database> {
    let config = DbConfig::deterministic().with_wal_path(log.into());
    Database::with_parts(config, fs, &lstore_storage::io::OsFs, TxnManager::new()).unwrap()
}

/// Table `name` of a fresh database whose every log write fails from now
/// on, as on a full device.
fn on_a_full_device(name: &str) -> (Arc<Database>, Arc<lstore::Table>) {
    let fs = FaultFs::new();
    let db = logging_to(&fs, "full.wal");
    let t = db.create_table(name, &["a"], TableConfig::small()).unwrap();
    fs.fail(fs.calls() + 1, Fault::Full);
    (db, t)
}

/// Key 1 → `[10]`, committed under a working log, then the database
/// reopened from that log, which from then on is on a full device.
fn one_row_reopened_on_a_full_device(name: &str) -> (Arc<Database>, Arc<lstore::Table>) {
    let fs = FaultFs::new();
    {
        let db = logging_to(&fs, "ok.wal");
        let t = db.create_table(name, &["a"], TableConfig::small()).unwrap();
        t.insert_auto(1, &[10]).unwrap();
        db.runtime().wal.as_ref().unwrap().sync().unwrap();
    }
    let db = logging_to(&fs, "ok.wal");
    let t = db.table(name).unwrap();
    fs.fail(fs.calls() + 1, Fault::Full);
    (db, t)
}

/// A validation failure aborts through the WAL-writing abort path: the log
/// must contain an Abort record for a transaction it holds records of, so
/// replay after a crash tombstones it instead of leaving it unresolved.
/// (The pre-fix commit called the manager's abort directly and never
/// logged the record.) The reader writes a row of its own for that: a
/// read-only transaction is unknown to the log and stays so — see
/// `durability_modes::nothing_logged_means_nothing_to_wait_for`.
#[test]
fn failed_validation_logs_abort_record() {
    let path = wal_path("validation-abort");
    std::fs::remove_file(&path).ok();
    let reader_id;
    {
        let db = Database::new(DbConfig::deterministic().with_wal_path(path.clone()));
        let t = db.create_table("f", &["a"], TableConfig::small()).unwrap();
        for k in 0..10 {
            t.insert_auto(k, &[k]).unwrap();
        }
        let mut reader = db.begin_with(IsolationLevel::RepeatableRead);
        assert_eq!(t.read(&mut reader, 3, &[0]).unwrap().unwrap(), vec![3]);
        t.update(&mut reader, 5, &[(0, 55)]).unwrap();
        reader_id = reader.id;
        // A conflicting committed writer invalidates the read.
        t.update_auto(3, &[(0, 99)]).unwrap();
        let err = db.commit(&mut reader).unwrap_err();
        assert!(matches!(err, Error::ValidationFailed { .. }), "{err:?}");
        db.runtime().wal.as_ref().unwrap().sync().unwrap();
        // db dropped here = crash: no clean-shutdown reconciliation runs.
    }
    let log = std::fs::read(&path).unwrap();
    let state = lstore_wal::recovery::recover_from_bytes(&log).unwrap();
    assert!(
        state.aborted.contains(&reader_id),
        "recovery must classify the validation-failed transaction as aborted, \
         not unresolved (aborted set: {:?})",
        state.aborted
    );
    assert!(!state.committed.contains_key(&reader_id));
    std::fs::remove_file(&path).ok();
}

/// A WAL error while logging the commit record must abort the transaction
/// and propagate the error — not leave it in pre-commit limbo (commit
/// timestamp stamped, speculative readers building on it, recovery
/// undecided). A full device makes every flush fail with `StorageFull`,
/// which surfaces exactly at the commit record (statement records are
/// buffered).
#[test]
fn wal_commit_failure_aborts_txn() {
    let (db, t) = on_a_full_device("w");
    let mut txn = db.begin();
    t.insert(&mut txn, 1, &[10]).unwrap();
    let err = db.commit(&mut txn).unwrap_err();
    assert!(
        matches!(err, Error::Wal(_) | Error::Storage(_)),
        "commit over a full device must surface the WAL error, got {err:?}"
    );
    // The transaction aborted: its insert is unhooked from the index, not
    // in limbo.
    assert!(matches!(
        t.read_one(&ReadRequest::latest(1)).unwrap_err(),
        Error::KeyNotFound(1)
    ));
    // And the handle is finalized — a retry is a fresh transaction.
    assert!(matches!(
        db.commit(&mut txn).unwrap_err(),
        Error::TxnFinalized
    ));
}

/// Repeated WAL failures must not wedge the engine: every attempt aborts
/// cleanly (no state-machine re-entry, no pinned pre-commit entries), and
/// each aborted insert stays invisible. The first failed flush stops the
/// log for good, so the first transaction fails at its commit record and
/// the later ones already at the insert's own record.
#[test]
fn wal_commit_failures_do_not_wedge_the_database() {
    let (db, t) = on_a_full_device("u");
    for k in 0..10 {
        let mut txn = db.begin();
        let outcome = t
            .insert(&mut txn, k, &[k * 10])
            .and_then(|_| db.commit(&mut txn));
        assert!(
            matches!(outcome, Err(Error::Wal(_) | Error::Storage(_))),
            "key {k}: {outcome:?}"
        );
        assert_eq!(txn.commit != 0, k == 0, "only the first reached its commit");
        db.abort(&mut txn);
        assert!(
            matches!(
                t.read_one(&ReadRequest::latest(k)).unwrap_err(),
                Error::KeyNotFound(_)
            ),
            "aborted insert of key {k} must be unhooked from the index"
        );
    }
}

/// A WAL error while logging an update must release the record's
/// indirection latch on the way out: `write_tail` returned through `?`
/// with the latch bit still set, so the slot stayed latched forever and
/// every later writer of the key got `WriteConflict`. The row is committed
/// under a working log, and the database reopened from it before the
/// device fills; one transaction then updates it until the 1 MiB log
/// buffer spills and the append fails.
#[test]
fn wal_append_failure_releases_the_latch() {
    let (db, t) = one_row_reopened_on_a_full_device("l");

    let mut txn = db.begin();
    let err = (0..1_000_000)
        .find_map(|i| t.update(&mut txn, 1, &[(0, i)]).err())
        .expect("a full device fails the append once the buffer spills");
    assert!(
        matches!(err, Error::Wal(_) | Error::Storage(_)),
        "the spill must surface the WAL error, got {err:?}"
    );
    db.abort(&mut txn);

    // The failed flush stopped the log, so later writers are refused by it
    // — after taking the latch, which must therefore be free each time.
    for attempt in 0..3 {
        let mut fresh = db.begin();
        let outcome = t.update(&mut fresh, 1, &[(0, 7)]);
        assert!(
            matches!(outcome, Err(Error::Wal(_) | Error::Storage(_))),
            "attempt {attempt}: the failed append left key 1 latched, or a \
             stopped log took a write: {outcome:?}"
        );
        assert_eq!(t.read(&mut fresh, 1, &[0]).unwrap(), Some(vec![10]));
        db.abort(&mut fresh);
    }
    assert_eq!(
        t.read_one(&ReadRequest::latest(1)).unwrap().values,
        Some(vec![10])
    );
}

/// Auto-commit goes through the same commit sequence as `Database::commit`:
/// a commit record that cannot be logged is an `Err` and an aborted
/// transaction. (Each `*_auto` used to carry its own copy of the sequence
/// with `let _ = wal.commit(..)`: the failed commit was acknowledged and the
/// write stayed visible.) The row is committed under a working log, and
/// the database reopened from it before the device fills, so that every
/// commit record fails to flush.
#[test]
fn auto_commit_surfaces_wal_failures() {
    let (_db, t) = one_row_reopened_on_a_full_device("a");

    let is_log_error = |e: &Error| matches!(e, Error::Wal(_) | Error::Storage(_));
    let err = t.update_auto(1, &[(0, 99)]).unwrap_err();
    assert!(
        is_log_error(&err),
        "update_auto over a full device: {err:?}"
    );
    assert_eq!(
        t.read_one(&ReadRequest::latest(1)).unwrap().values,
        Some(vec![10]),
        "old value stands"
    );
    let err = t.delete_auto(1).unwrap_err();
    assert!(
        is_log_error(&err),
        "delete_auto over a full device: {err:?}"
    );
    assert_eq!(
        t.read_one(&ReadRequest::latest(1)).unwrap().values,
        Some(vec![10]),
        "row still there"
    );
    let err = t.insert_auto(2, &[20]).unwrap_err();
    assert!(
        is_log_error(&err),
        "insert_auto over a full device: {err:?}"
    );
    // The aborted insert is unhooked from the index.
    assert!(matches!(
        t.read_one(&ReadRequest::latest(2)).unwrap_err(),
        Error::KeyNotFound(2)
    ));
    assert_eq!(t.count_as_of(t.now()), 1);
}
