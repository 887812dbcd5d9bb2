//! Page-store fault injection at the engine level, over an in-memory
//! `FaultFs`.
//!
//! * **ENOSPC on writeback** — a store on a full device (every write fails
//!   with "no space left on device") must surface a stable
//!   [`lstore::Error::Storage`] through `flush_store` while every read
//!   keeps answering from the un-evictable resident frames: a writeback
//!   failure may stall eviction, never corrupt data.
//! * **EIO on sync** — a failed `fsync` of the store fails the
//!   `flush_store` or checkpoint that asked for it.
//! * **A crash at every call** — every image a crash after any I/O call
//!   of a two-checkpoint workload could leave must restore exactly the
//!   last checkpoint published before it, or one published at the crash:
//!   a torn record tail is ignored, a torn manifest is passed over for the
//!   previous one, and the pages a manifest names are never missing from
//!   an image that holds it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use lstore::{Database, DbConfig, Error, ReadRequest, Table, TableConfig};
use lstore_storage::io::{every_crash_point, Fault, FaultFs};
use lstore_txn::TxnManager;

const STORE: &str = "kill.pages";

fn open(fs: &FaultFs, pool: Option<usize>) -> Arc<Database> {
    let mut config = DbConfig::deterministic().with_page_store(STORE.into());
    config.buffer_pool_pages = pool;
    Database::with_parts(config, &lstore_wal::io::OsFs, fs, TxnManager::new()).unwrap()
}

#[test]
fn enospc_on_writeback_surfaces_error_without_corrupting_reads() {
    // Budget 1 forces eviction on every second sealed page; every eviction
    // needs a dirty writeback, and every writeback hits ENOSPC.
    let fs = FaultFs::new();
    fs.fail(1, Fault::Full);
    let db = open(&fs, Some(1));
    let t = db
        .create_table("enospc", &["a", "b"], TableConfig::small())
        .unwrap();
    for k in 0..600 {
        t.insert_auto(k, &[k * 2, k * 3]).unwrap();
    }
    t.merge_all();

    // Reads answer correctly from the resident frames the failed
    // writebacks could not release.
    for k in [0u64, 1, 255, 256, 599] {
        assert_eq!(
            t.read_one(&ReadRequest::latest(k)).unwrap().values,
            Some(vec![k * 2, k * 3])
        );
    }
    let expect_sum: u64 = (0..600u64).map(|k| k * 2).sum();
    assert_eq!(t.sum_auto(0), expect_sum);

    // The failure is surfaced, not swallowed — and it is stable: every
    // flush attempt reports it again.
    for _ in 0..2 {
        match db.flush_store() {
            Err(Error::Storage(lstore_storage::StorageError::Io(e))) => {
                assert_eq!(e.kind(), std::io::ErrorKind::StorageFull, "{e}");
            }
            other => panic!("expected sticky storage error, got {other:?}"),
        }
    }

    // Frames the pool could not evict stay resident past the budget —
    // correctness outranks the budget when the disk is gone — and reads
    // still work afterwards.
    let stats = db.store_stats().unwrap();
    assert!(
        stats.resident > 1,
        "dirty victims stayed resident: {stats:?}"
    );
    assert_eq!(
        t.sum_auto(0),
        expect_sum,
        "reads survive the flush failures"
    );
}

#[test]
fn a_failed_store_sync_fails_the_flush_and_the_checkpoint() {
    let fs = FaultFs::new();
    let db = open(&fs, None);
    let t = db
        .create_table("kill", &["a", "b"], TableConfig::small())
        .unwrap();
    populate(&t);
    fs.fail(fs.calls() + 1, Fault::Eio);
    assert!(matches!(db.flush_store(), Err(Error::Storage(_))));
    fs.fail(fs.calls() + 1, Fault::Eio);
    assert!(matches!(t.checkpoint_to_store(), Err(Error::Storage(_))));
}

#[derive(Debug, PartialEq)]
struct Observation {
    restored: usize,
    sum_a: u64,
    sum_b: u64,
    count: u64,
    groups: BTreeMap<u64, u64>,
    rows: Vec<(u64, Vec<u64>)>,
}

/// Cold-open the store in `fs` under a 3-page pool, restore the table
/// from its manifest, and observe everything a reader could ask; `None`
/// when the store holds no checkpoint.
fn observe_cold(fs: &FaultFs) -> Option<Observation> {
    let db = open(fs, Some(3));
    let t = db
        .create_table("kill", &["a", "b"], TableConfig::small())
        .unwrap();
    let restored = match t.restore_from_store() {
        Err(Error::Storage(lstore_storage::StorageError::MissingEntry { .. })) => return None,
        restored => restored.unwrap(),
    };
    let ts = t.now();
    Some(Observation {
        restored,
        sum_a: t.sum_as_of(0, ts),
        sum_b: t.sum_as_of(1, ts),
        count: t.count_as_of(ts),
        groups: t.group_by_sum(0, 1, ts),
        rows: t.scan_as_of(&[0, 1], ts),
    })
}

fn populate(t: &Table) {
    for k in 0..600 {
        t.insert_auto(k, &[(k / 64) % 8, k]).unwrap();
    }
    t.merge_all();
}

/// Populate, checkpoint, then more history and a second checkpoint — up
/// to `checkpoints` of them — noting the calls made when each returned.
fn two_checkpoints(fs: &FaultFs, checkpoints: usize, published: &Mutex<Vec<u64>>) {
    published.lock().unwrap().clear();
    let db = open(fs, None);
    let t = db
        .create_table("kill", &["a", "b"], TableConfig::small())
        .unwrap();
    populate(&t);
    t.checkpoint_to_store().unwrap();
    published.lock().unwrap().push(fs.calls());
    if checkpoints == 2 {
        for k in (0..600).step_by(3) {
            t.update_auto(k, &[(1, k + 10_000)]).unwrap();
        }
        for k in (0..600).step_by(90) {
            t.delete_auto(k).unwrap();
        }
        t.merge_all();
        t.checkpoint_to_store().unwrap();
        published.lock().unwrap().push(fs.calls());
    }
}

/// Every image a crash after any call of the two-checkpoint workload could
/// leave restores checkpoint 1 or checkpoint 2, exactly, or — before the
/// first was published — nothing: never a manifest without its pages, a
/// panic or an `Err`. And the store stays usable: new writes, a merge and
/// a fresh checkpoint append cleanly after whatever the crash left.
fn crash_anywhere_restores_a_published_checkpoint(all: bool) {
    let published = Mutex::new(Vec::new());
    let oracle = |checkpoints| {
        let fs = FaultFs::new();
        two_checkpoints(&fs, checkpoints, &published);
        let synced = fs.crash().next().unwrap().fs;
        observe_cold(&synced).unwrap()
    };
    let oracles = [oracle(1), oracle(2)];
    assert_ne!(oracles[0].rows, oracles[1].rows, "the checkpoints differ");
    let checked = every_crash_point(
        all,
        |fs| two_checkpoints(fs, 2, &published),
        |point, crash| {
            let done = published
                .lock()
                .unwrap()
                .iter()
                .filter(|&&at| at <= point)
                .count();
            // 0: no checkpoint; 1 or 2: that checkpoint, exactly.
            let restored = match observe_cold(&crash.fs) {
                None => Some(0),
                Some(o) => oracles.iter().position(|w| *w == o).map(|i| i + 1),
            };
            assert!(
                restored.is_some_and(|r| r == done || r == done + 1),
                "after call {point}, with {done} checkpoints published, the \
                 image restored checkpoint {restored:?}"
            );
            let db = open(&crash.fs, Some(3));
            let t = db
                .create_table("kill", &["a", "b"], TableConfig::small())
                .unwrap();
            if restored > Some(0) {
                t.restore_from_store().unwrap();
            } else {
                t.insert_auto(1, &[0, 0]).unwrap();
            }
            t.update_auto(1, &[(1, 424_242)]).unwrap();
            t.merge_all();
            t.checkpoint_to_store().unwrap();
            assert_eq!(
                t.read_one(&ReadRequest::latest(1)).unwrap().values.unwrap()[1],
                424_242
            );
        },
    );
    eprintln!("{checked} crash images of the page store checked");
    assert!(checked >= 12, "{checked} crash images");
}

#[test]
fn a_crash_at_any_call_restores_a_published_checkpoint() {
    crash_anywhere_restores_a_published_checkpoint(false);
}

#[test]
#[ignore = "exhaustive; run with --ignored --release"]
fn a_crash_at_any_call_restores_a_published_checkpoint_exhaustive() {
    crash_anywhere_restores_a_published_checkpoint(true);
}
