//! Quickstart: the L-Store API in five minutes.
//!
//! Creates a table, runs transactional updates and analytical scans against
//! the same single copy of the data, and peeks at the lineage machinery
//! (merges, tail records, fast-path reads).
//!
//! Run with: `cargo run --example quickstart`

use lstore::{Database, DbConfig, IsolationLevel, ReadRequest, TableConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An in-memory database with the background merge daemon running.
    let db = Database::new(DbConfig::new());
    let accounts = db.create_table(
        "accounts",
        &["balance", "branch", "status"],
        TableConfig::small(),
    )?;

    // ---- OLTP: inserts and updates --------------------------------------
    for key in 0..1_000u64 {
        accounts.insert_auto(key, &[1_000, key % 10, 0])?;
    }
    println!("loaded {} accounts", accounts.count_as_of(accounts.now()));

    // Single-statement updates.
    accounts.update_auto(42, &[(0, 1_500)])?;

    // A multi-statement transaction: transfer 200 from key 1 to key 2.
    let mut txn = db.begin_with(IsolationLevel::ReadCommitted);
    let from = accounts.read(&mut txn, 1, &[0])?.expect("account 1")[0];
    let to = accounts.read(&mut txn, 2, &[0])?.expect("account 2")[0];
    accounts.update(&mut txn, 1, &[(0, from - 200)])?;
    accounts.update(&mut txn, 2, &[(0, to + 200)])?;
    let commit_ts = db.commit(&mut txn)?;
    println!("transfer committed at ts={commit_ts}");

    // ---- OLAP: analytics on the same data, no ETL -----------------------
    let total: u64 = accounts.sum_auto(0);
    println!("total balance across all accounts = {total}");
    assert_eq!(total, 1_000 * 1_000 + 500); // +500 net from the update of 42

    // Per-branch aggregate via a full scan.
    let rows = accounts.scan_as_of(&[0, 1], accounts.now());
    let mut per_branch = [0u64; 10];
    for (_key, vals) in &rows {
        per_branch[vals[1] as usize] += vals[0];
    }
    println!("branch 0 holds {}", per_branch[0]);

    // ---- Lineage machinery ----------------------------------------------
    // Force consolidation and look at the stats: updates became tail
    // records; merges folded them into fresh compressed base pages.
    accounts.merge_all();
    let stats = accounts.stats();
    println!(
        "stats: {} inserts, {} updates, {} merges ({} tail records consolidated)",
        stats.inserts, stats.updates, stats.merges, stats.merged_records
    );

    // Reads keep working identically after the merge — and old versions
    // remain reachable (see the time_travel example).
    let balance = ReadRequest::latest(42).with_columns(vec![0]);
    assert_eq!(accounts.read_one(&balance)?.values, Some(vec![1_500]));
    println!("ok");
    Ok(())
}
