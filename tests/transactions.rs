//! Transactional semantics (§5.1.1): write-write conflicts, abort
//! tombstones, speculative reads, commit-time validation, isolation levels.

use lstore::{Database, DbConfig, IsolationLevel, ReadRequest, TableConfig, TransactionReads};

fn setup() -> (std::sync::Arc<Database>, std::sync::Arc<lstore::Table>) {
    let db = Database::new(DbConfig::deterministic());
    let t = db
        .create_table("txn", &["a", "b"], TableConfig::small())
        .unwrap();
    for k in 0..100 {
        t.insert_auto(k, &[k * 10, k * 100]).unwrap();
    }
    (db, t)
}

#[test]
fn write_write_conflict_aborts_second_writer() {
    let (db, t) = setup();
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t.update(&mut t1, 5, &[(0, 111)]).unwrap();
    // t2 hits the uncommitted version of t1 → conflict.
    let err = t.update(&mut t2, 5, &[(0, 222)]).unwrap_err();
    assert!(matches!(err, lstore::Error::WriteConflict { .. }));
    db.abort(&mut t2);
    db.commit(&mut t1).unwrap();
    assert_eq!(
        t.read_one(&ReadRequest::latest(5)).unwrap().values.unwrap()[0],
        111
    );
    assert_eq!(t.stats().write_conflicts, 1);
}

#[test]
fn uncommitted_writes_invisible_until_commit() {
    let (db, t) = setup();
    let mut writer = db.begin();
    t.update(&mut writer, 7, &[(0, 999)]).unwrap();
    // Other readers do not see it.
    assert_eq!(
        t.read_one(&ReadRequest::latest(7)).unwrap().values.unwrap()[0],
        70
    );
    // The writer sees its own write.
    let own = t.read(&mut writer, 7, &[0]).unwrap().unwrap();
    assert_eq!(own[0], 999);
    db.commit(&mut writer).unwrap();
    assert_eq!(
        t.read_one(&ReadRequest::latest(7)).unwrap().values.unwrap()[0],
        999
    );
}

#[test]
fn aborted_writes_become_tombstones() {
    let (db, t) = setup();
    let mut writer = db.begin();
    t.update(&mut writer, 3, &[(0, 555)]).unwrap();
    t.update(&mut writer, 3, &[(1, 556)]).unwrap();
    db.abort(&mut writer);
    // The tail records exist but readers skip them.
    assert_eq!(
        t.read_one(&ReadRequest::latest(3)).unwrap().values,
        Some(vec![30, 300])
    );
    // A later writer chains past the tombstones without issue.
    t.update_auto(3, &[(0, 42)]).unwrap();
    assert_eq!(
        t.read_one(&ReadRequest::latest(3)).unwrap().values,
        Some(vec![42, 300])
    );
    // The merge skips tombstones too.
    t.merge_all();
    assert_eq!(
        t.read_one(&ReadRequest::latest(3)).unwrap().values,
        Some(vec![42, 300])
    );
}

#[test]
fn aborted_insert_unhooks_primary_index() {
    let (db, t) = setup();
    let mut txn = db.begin();
    t.insert(&mut txn, 1000, &[1, 2]).unwrap();
    db.abort(&mut txn);
    assert!(matches!(
        t.read_one(&ReadRequest::latest(1000)),
        Err(lstore::Error::KeyNotFound(1000))
    ));
    // The key can be inserted again.
    t.insert_auto(1000, &[3, 4]).unwrap();
    assert_eq!(
        t.read_one(&ReadRequest::latest(1000)).unwrap().values,
        Some(vec![3, 4])
    );
}

#[test]
fn snapshot_isolation_reads_begin_time_state() {
    let (db, t) = setup();
    let mut snap = db.begin_with(IsolationLevel::Snapshot);
    // Concurrent committed update after `snap` began.
    t.update_auto(1, &[(0, 777)]).unwrap();
    // Snapshot reader still sees the old value; read-committed sees the new.
    let seen = t.read(&mut snap, 1, &[0]).unwrap().unwrap();
    assert_eq!(seen[0], 10);
    db.commit(&mut snap).unwrap();
    let mut rc = db.begin();
    assert_eq!(t.read(&mut rc, 1, &[0]).unwrap().unwrap()[0], 777);
    db.commit(&mut rc).unwrap();
}

#[test]
fn repeatable_read_validation_detects_interleaved_write() {
    let (db, t) = setup();
    let mut rr = db.begin_with(IsolationLevel::RepeatableRead);
    let v = t.read(&mut rr, 2, &[0]).unwrap().unwrap();
    assert_eq!(v[0], 20);
    // Interleaved committed write to the same record.
    t.update_auto(2, &[(0, 888)]).unwrap();
    // Validation compares the visible version RID at commit vs at read.
    let err = db.commit(&mut rr).unwrap_err();
    assert!(matches!(err, lstore::Error::ValidationFailed { .. }));
}

#[test]
fn repeatable_read_commits_when_undisturbed() {
    let (db, t) = setup();
    let mut rr = db.begin_with(IsolationLevel::RepeatableRead);
    t.read(&mut rr, 2, &[0]).unwrap().unwrap();
    t.read(&mut rr, 3, &[1]).unwrap().unwrap();
    // Writes to *other* records do not disturb the read-set.
    t.update_auto(50, &[(0, 1)]).unwrap();
    db.commit(&mut rr).unwrap();
}

#[test]
fn speculative_read_sees_precommit_and_validates() {
    let (db, t) = setup();
    // Manually drive a writer into pre-commit.
    let mut writer = db.begin();
    t.update(&mut writer, 9, &[(0, 123)]).unwrap();
    let rt = db.runtime();
    rt.mgr.pre_commit(writer.id, &rt.clock);

    // A normal read does not see the pre-committed version…
    let mut normal = db.begin();
    assert_eq!(t.read(&mut normal, 9, &[0]).unwrap().unwrap()[0], 90);
    db.commit(&mut normal).unwrap();

    // …a speculative read does (§5.1.1 speculative-read).
    let mut spec = db.begin();
    assert_eq!(
        t.read_speculative(&mut spec, 9, &[0]).unwrap().unwrap()[0],
        123
    );
    // The speculative read forces validation; finalize the writer so the
    // speculated version is indeed the committed one.
    rt.mgr.commit(writer.id);
    db.commit(&mut spec).unwrap();
}

#[test]
fn speculative_read_fails_validation_if_writer_aborts() {
    let (db, t) = setup();
    let mut writer = db.begin();
    t.update(&mut writer, 11, &[(0, 321)]).unwrap();
    let rt = db.runtime();
    rt.mgr.pre_commit(writer.id, &rt.clock);

    let mut spec = db.begin();
    assert_eq!(
        t.read_speculative(&mut spec, 11, &[0]).unwrap().unwrap()[0],
        321
    );
    // The writer aborts after the speculation.
    rt.mgr.abort(writer.id);
    let err = db.commit(&mut spec).unwrap_err();
    assert!(matches!(err, lstore::Error::ValidationFailed { .. }));
}

#[test]
fn multi_statement_transaction_is_atomic() {
    let (db, t) = setup();
    // A transfer that aborts mid-way must leave no trace.
    let mut txn = db.begin();
    t.update(&mut txn, 20, &[(0, 0)]).unwrap();
    t.update(&mut txn, 21, &[(0, 999_999)]).unwrap();
    db.abort(&mut txn);
    assert_eq!(
        t.read_one(&ReadRequest::latest(20))
            .unwrap()
            .values
            .unwrap()[0],
        200
    );
    assert_eq!(
        t.read_one(&ReadRequest::latest(21))
            .unwrap()
            .values
            .unwrap()[0],
        210
    );
}

#[test]
fn same_record_updated_twice_in_one_txn() {
    let (db, t) = setup();
    let mut txn = db.begin();
    t.update(&mut txn, 8, &[(0, 1)]).unwrap();
    t.update(&mut txn, 8, &[(0, 2)]).unwrap();
    t.update(&mut txn, 8, &[(1, 3)]).unwrap();
    db.commit(&mut txn).unwrap();
    // "only the final update becomes visible".
    assert_eq!(
        t.read_one(&ReadRequest::latest(8)).unwrap().values,
        Some(vec![2, 3])
    );
}

#[test]
fn double_commit_returns_txn_finalized() {
    let (db, t) = setup();
    let mut txn = db.begin();
    t.update(&mut txn, 30, &[(0, 77)]).unwrap();
    db.commit(&mut txn).unwrap();
    // A second commit must return the stable-coded error, not re-enter the
    // §5.1.1 state machine (which would panic on the Committed entry).
    let err = db.commit(&mut txn).unwrap_err();
    assert!(matches!(err, lstore::Error::TxnFinalized), "{err:?}");
    // The committed write is untouched by the failed retry.
    assert_eq!(
        t.read_one(&ReadRequest::latest(30))
            .unwrap()
            .values
            .unwrap()[0],
        77
    );
}

#[test]
fn commit_after_abort_returns_txn_finalized() {
    let (db, t) = setup();
    let mut txn = db.begin();
    t.update(&mut txn, 31, &[(0, 88)]).unwrap();
    db.abort(&mut txn);
    let err = db.commit(&mut txn).unwrap_err();
    assert!(matches!(err, lstore::Error::TxnFinalized), "{err:?}");
    // The abort stands: the write stays a tombstone.
    assert_eq!(
        t.read_one(&ReadRequest::latest(31))
            .unwrap()
            .values
            .unwrap()[0],
        310
    );
}

#[test]
fn abort_after_commit_is_a_noop() {
    let (db, t) = setup();
    let mut txn = db.begin();
    t.update(&mut txn, 32, &[(0, 99)]).unwrap();
    db.commit(&mut txn).unwrap();
    // Aborting a committed transaction must not flip its entry to Aborted
    // (which would retroactively tombstone the committed version).
    db.abort(&mut txn);
    assert_eq!(
        t.read_one(&ReadRequest::latest(32))
            .unwrap()
            .values
            .unwrap()[0],
        99
    );
    // Double abort is equally inert.
    db.abort(&mut txn);
    assert_eq!(
        t.read_one(&ReadRequest::latest(32))
            .unwrap()
            .values
            .unwrap()[0],
        99
    );
}

/// The transaction table is collected: every commit and abort retires its
/// id, and a page of retired ids is reused for later ones, so a million
/// transactions hold a page or two — the parent tracked all 1 010 000.
/// Aborted versions keep their transaction's id in the Start Time cell for
/// good; they must stay invisible — to latest reads, as-of reads, scans and
/// the merge — long after the page that knew the id serves strangers, some
/// of which committed.
#[test]
fn transaction_table_stays_bounded_and_recycled_aborts_stay_invisible() {
    const KEYS: u64 = 64;
    const POISON: u64 = 1 << 40;
    let db = Database::new(DbConfig::deterministic());
    let t = db
        .create_table("bounded", &["a"], TableConfig::small())
        .unwrap();
    for k in 0..KEYS {
        t.insert_auto(k, &[0]).unwrap();
    }
    let mut model = vec![0u64; KEYS as usize];
    let mut halfway = None;
    let mut aborted = 0;
    for i in 0..1_010_000u64 {
        let key = i % KEYS;
        let mut txn = db.begin();
        if i % 101 == 100 {
            t.update(&mut txn, key, &[(0, POISON + i)]).unwrap();
            db.abort(&mut txn);
            aborted += 1;
        } else {
            t.update(&mut txn, key, &[(0, i)]).unwrap();
            db.commit(&mut txn).unwrap();
            model[key as usize] = i;
        }
        if i == 500_000 {
            halfway = Some((t.now(), model.clone()));
        }
    }
    assert_eq!(aborted, 10_000);
    let tracked = db.runtime().mgr.tracked();
    assert!(tracked <= 2 * 1024, "{tracked} transaction slots in use");

    let (then, model_then) = halfway.unwrap();
    let check = |when: &str| {
        for k in 0..KEYS {
            let at = k as usize;
            assert_eq!(
                t.read_one(&ReadRequest::latest(k)).unwrap().values,
                Some(vec![model[at]]),
                "{when}"
            );
            assert_eq!(
                t.read_one(&ReadRequest::as_of(k, then).with_columns(vec![0]))
                    .unwrap()
                    .values,
                Some(vec![model_then[at]]),
                "{when}, as of {then}"
            );
        }
        assert_eq!(t.sum_auto(0), model.iter().sum::<u64>(), "{when}");
        assert_eq!(
            t.sum_as_of(0, then),
            model_then.iter().sum::<u64>(),
            "{when}"
        );
    };
    check("from the version chains");
    t.merge_all();
    check("after the merge");
    assert!(db.runtime().mgr.tracked() <= 2 * 1024);
}

#[test]
fn interleaved_read_modify_writes_on_distinct_keys_all_commit() {
    let (db, t) = setup();
    // Ten keys of one update range, one repeatable-read transaction each,
    // all begun before any commits.
    let keys: Vec<u64> = (20..30).collect();
    let mut txns: Vec<_> = keys
        .iter()
        .map(|_| db.begin_with(IsolationLevel::RepeatableRead))
        .collect();
    // Interleave: every transaction reads its key, then every one writes.
    let seen: Vec<u64> = keys
        .iter()
        .zip(&mut txns)
        .map(|(&k, txn)| t.read(txn, k, &[0]).unwrap().unwrap()[0])
        .collect();
    for ((&k, txn), v) in keys.iter().zip(&mut txns).zip(&seen) {
        t.update(txn, k, &[(0, v + 1)]).unwrap();
    }
    // Commit in reverse begin order: none of them touched another's key,
    // so validation passes for every one.
    for txn in txns.iter_mut().rev() {
        db.commit(txn).unwrap();
    }
    for &k in &keys {
        assert_eq!(
            t.read_one(&ReadRequest::latest(k)).unwrap().values,
            Some(vec![k * 10 + 1, k * 100])
        );
    }
}

#[test]
fn snapshot_multi_read_commits_over_keys_a_committed_writer_changed() {
    let (db, t) = setup();
    let keys = [4u64, 5, 6, 7];
    let mut reader = db.begin_with(IsolationLevel::Snapshot);
    let before = reader.multi_read(&t, &keys);
    let mut writer = db.begin();
    for &k in &keys {
        t.update(&mut writer, k, &[(1, 1)]).unwrap();
    }
    db.commit(&mut writer).unwrap();
    // The reader still sees its begin-time snapshot, and a read-only
    // snapshot transaction has nothing to validate: it commits.
    let after = reader.multi_read(&t, &keys);
    for ((&k, b), a) in keys.iter().zip(before).zip(after) {
        assert_eq!(b.unwrap(), Some(vec![k * 10, k * 100]));
        assert_eq!(a.unwrap(), Some(vec![k * 10, k * 100]));
    }
    db.commit(&mut reader).unwrap();
    assert_eq!(
        t.read_one(&ReadRequest::latest(4)).unwrap().values,
        Some(vec![40, 1])
    );
}

#[test]
fn a_first_update_snapshot_record_is_not_a_new_version() {
    let (db, t) = setup();
    // Column 0 of key 8 already has a tail version; column 1 has none, so
    // the update below copies its original into a snapshot record first.
    t.update_auto(8, &[(0, 81)]).unwrap();
    let mut rmw = db.begin_with(IsolationLevel::RepeatableRead);
    let seen = t.read(&mut rmw, 8, &[0, 1]).unwrap().unwrap();
    t.update(&mut rmw, 8, &[(1, seen[1] + 1)]).unwrap();
    db.commit(&mut rmw).unwrap();

    // A writer whose first update of a column aborts leaves its snapshot
    // record in the chain; a reader of the record before it still commits.
    let mut reader = db.begin_with(IsolationLevel::RepeatableRead);
    t.read(&mut reader, 9, &[0, 1]).unwrap().unwrap();
    let mut writer = db.begin();
    t.update(&mut writer, 9, &[(1, 0)]).unwrap();
    db.abort(&mut writer);
    db.commit(&mut reader).unwrap();
    assert_eq!(
        t.read_one(&ReadRequest::latest(8)).unwrap().values,
        Some(vec![81, 801])
    );
}
