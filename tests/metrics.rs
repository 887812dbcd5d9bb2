//! `Database::metrics()` reads the same counters as the per-layer
//! accessors: every table's `Table::stats()`, the pool's `store_stats()`,
//! the log's `Wal::stats()` and the epoch manager's counters.

use std::collections::BTreeMap;

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
    assert_eq!(metrics.epoch, db.runtime().epoch.counters().snapshot());

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
