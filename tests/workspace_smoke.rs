//! Workspace smoke test: exercises the public API end-to-end through the
//! top-level `lstore-repro` re-exports, guarding the crate wiring the
//! workspace manifests establish (core → storage/index/txn/wal, baselines →
//! core, bench → core + baselines).

use lstore::{Database, DbConfig, ReadRequest, TableConfig};
use lstore_baselines::{DbmEngine, Engine, IuhEngine, LStoreEngine};
use lstore_bench::workload::{Contention, Workload, WorkloadConfig};

/// Create table → insert → update → merge → read_latest / time-travel read,
/// via auto-commit and via explicit transactions.
#[test]
fn end_to_end_lifecycle() {
    let db = Database::new(DbConfig::default());
    let table = db
        .create_table(
            "accounts",
            &["balance", "branch", "status"],
            TableConfig::small(),
        )
        .unwrap();

    // Bulk insert.
    for key in 0..200u64 {
        table.insert_auto(key, &[key * 10, key % 7, 0]).unwrap();
    }

    // Auto-commit updates, creating tail versions.
    let before_updates = table.now();
    for key in 0..200u64 {
        table.update_auto(key, &[(0, key * 10 + 1)]).unwrap();
    }

    // Multi-statement transaction across two records.
    let mut txn = db.begin();
    table.update(&mut txn, 1, &[(1, 99)]).unwrap();
    table.update(&mut txn, 2, &[(1, 98)]).unwrap();
    db.commit(&mut txn).unwrap();

    // Latest reads see all committed updates.
    assert_eq!(
        table.read_one(&ReadRequest::latest(1)).unwrap().values,
        Some(vec![11, 99, 0])
    );
    assert_eq!(
        table.read_one(&ReadRequest::latest(2)).unwrap().values,
        Some(vec![21, 98, 0])
    );

    // Contention-free merge must not change query results.
    table.merge_all();
    assert_eq!(
        table.read_one(&ReadRequest::latest(1)).unwrap().values,
        Some(vec![11, 99, 0])
    );

    // Analytical scan on the merged data.
    let expected_sum: u64 = (0..200u64).map(|k| k * 10 + 1).sum();
    assert_eq!(table.sum_auto(0), expected_sum);

    // Time travel to before the update wave, across the merge.
    let old = table
        .read_one(&ReadRequest::as_of(5, before_updates).with_columns(vec![0, 1, 2]))
        .unwrap()
        .values;
    assert_eq!(old, Some(vec![50, 5, 0]));
    let old_sum: u64 = (0..200u64).map(|k| k * 10).sum();
    assert_eq!(table.sum_as_of(0, before_updates), old_sum);

    // Delete is visible in latest state but not in the past.
    table.delete_auto(5).unwrap();
    // Deleted: still indexed, so a response with nothing visible.
    assert_eq!(
        table.read_one(&ReadRequest::latest(5)).unwrap().values,
        None
    );
    assert_eq!(
        table
            .read_one(&ReadRequest::as_of(5, before_updates).with_columns(vec![0, 1, 2]))
            .unwrap()
            .values,
        Some(vec![50, 5, 0])
    );
}

/// The three evaluation engines run the same generated workload and agree
/// with each other on final scan totals (bench → baselines → core wiring).
#[test]
fn engines_execute_generated_workload() {
    let cfg = WorkloadConfig {
        rows: 500,
        contention: Contention::Medium,
        ..WorkloadConfig::default()
    };
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(LStoreEngine::new()),
        Box::new(IuhEngine::new()),
        Box::new(DbmEngine::default()),
    ];
    for e in &engines {
        e.populate(cfg.rows, cfg.cols);
    }

    let mut wl = Workload::new(cfg.clone(), 0);
    let txns: Vec<_> = (0..50).map(|_| wl.next_txn(None)).collect();
    for e in &engines {
        for t in &txns {
            e.update_transaction(&t.reads, &t.writes);
        }
    }

    let sums: Vec<u64> = engines
        .iter()
        .map(|e| e.scan_sum(0, 0, cfg.rows - 1))
        .collect();
    assert_eq!(sums[0], sums[1], "L-Store vs In-place Update + History");
    assert_eq!(sums[0], sums[2], "L-Store vs Delta + Blocking Merge");
}
