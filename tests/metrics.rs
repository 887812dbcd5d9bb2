//! `Database::metrics()` reads the same counters as the per-layer
//! accessors: every table's `Table::stats()`, the pool's `store_stats()`,
//! the log's `Wal::stats()` and the epoch manager's counters and gauges.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;

use lstore::{Database, DbConfig, Durability, TableConfig};

#[test]
fn metrics_equal_the_per_layer_counters_at_a_quiesced_point() {
    let dir = std::env::temp_dir().join(format!("lstore-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = Database::new(
        DbConfig::deterministic()
            .with_wal_path(dir.join("wal"))
            .with_durability(Durability::group_commit())
            .with_page_store(dir.join("pages"))
            .with_buffer_pool_pages(4),
    );
    let a = db
        .create_table("a", &["x", "y"], TableConfig::small())
        .unwrap();
    let b = db.create_table("b", &["z"], TableConfig::small()).unwrap();
    for k in 0..600 {
        a.insert_auto(k, &[k, 2 * k]).unwrap();
        b.insert_auto(k, &[k]).unwrap();
    }
    for k in 0..300 {
        a.update_auto(k, &[(0, k + 1)]).unwrap();
    }
    a.merge_all();
    b.merge_all();
    a.update_auto(7, &[(1, 0)]).unwrap();
    a.merge_all();
    assert_eq!(a.sum_auto(0), (0..600).sum::<u64>() + 300);
    db.reclaim();
    db.flush_store().unwrap();

    let metrics = db.metrics();
    let tables = BTreeMap::from([("a".to_string(), a.stats()), ("b".to_string(), b.stats())]);
    assert_eq!(metrics.tables, tables);
    assert_eq!(metrics.store, db.store_stats());
    let wal = db.runtime().wal.as_ref().unwrap().stats();
    assert_eq!(metrics.wal, Some(wal));
    assert_eq!(metrics.epoch, db.runtime().epoch.stats());

    // Every set counted something, so a reading of defaults fails above.
    assert_eq!((tables["a"].inserts, tables["a"].updates), (600, 301));
    assert_eq!(tables["b"].inserts, 600);
    let store = metrics.store.unwrap();
    assert!(store.writebacks > 0 && store.evictions > 0, "{store:?}");
    assert!(wal.commits_enrolled >= 1501 && wal.syncs > 0, "{wal:?}");
    assert!(metrics.epoch.retired > 0 && metrics.epoch.reclaimed > 0);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn epoch_gauges_show_a_pinned_reader_holding_a_retired_base_version() {
    let db = Database::new(DbConfig::deterministic());
    let t = db.create_table("t", &["v"], TableConfig::small()).unwrap();
    for k in 0..100 {
        t.insert_auto(k, &[k]).unwrap();
    }
    t.merge_all();
    t.update_auto(5, &[(0, 500)]).unwrap();
    db.reclaim();
    let idle = db.metrics().epoch;
    assert_eq!((idle.pending, idle.lag, idle.pinned), (0, 0, 0));

    let range = t.range_handle(0);
    thread::scope(|s| {
        let (pinned, wait_pinned) = mpsc::channel();
        let (merged, wait_merged) = mpsc::channel::<()>();
        let (db, range) = (&db, &range);
        let reader = s.spawn(move || {
            let guard = db.runtime().epoch.pin();
            let base = range.base(&guard);
            pinned.send(base.tps).unwrap();
            wait_merged.recv().unwrap();
            // Retired by the merge, still readable under the pin.
            (base.tps, base.value(1, 5, &guard))
        });
        let tps_before = wait_pinned.recv().unwrap();
        t.merge_all();
        db.reclaim();
        let held = db.metrics().epoch;
        assert!(held.pending >= 1, "the retired version waits: {held:?}");
        assert!(held.lag >= 1, "the reader's epoch is behind: {held:?}");
        assert_eq!(held.pinned, 1, "{held:?}");
        assert!(range.base(&db.runtime().epoch.pin()).tps > tps_before);
        merged.send(()).unwrap();
        assert_eq!(
            reader.join().unwrap(),
            (tps_before, 5),
            "the old version's cell"
        );
    });
    let freed = db.reclaim();
    assert!(freed >= 1);
    let drained = db.metrics().epoch;
    assert_eq!((drained.pending, drained.lag, drained.pinned), (0, 0, 0));
    assert_eq!(drained.retired, drained.reclaimed);
}
