//! Exact-semantics reproductions of the paper's conceptual walk-throughs:
//! Table 2 (update & delete), Table 3 (insert with concurrent updates),
//! Table 4 (relaxed merge), Table 5 (indirection interpretation & lineage),
//! Table 6 (historic compression).
//!
//! The paper's tables use symbolic values (a2, a21, …); these tests encode
//! them as numbers (a2 = 0xA2, a21 = 0xA21, …) and assert the same state
//! transitions: schema encodings, snapshot records, chain shapes, merge
//! results, and time-travel answers at each labelled timestamp.

use lstore::{Database, DbConfig, ReadRequest, TableConfig};

/// Build the paper's three-record table (Key, A, B, C) with keys k1..k3.
/// Returns (db, table). Columns: 0 = A, 1 = B, 2 = C.
fn paper_table() -> (std::sync::Arc<Database>, std::sync::Arc<lstore::Table>) {
    let db = Database::new(DbConfig::deterministic());
    let t = db
        .create_table("paper", &["A", "B", "C"], TableConfig::small())
        .unwrap();
    t.insert_auto(1, &[0xA1, 0xB1, 0xC1]).unwrap(); // k1 → (a1, b1, c1)
    t.insert_auto(2, &[0xA2, 0xB2, 0xC2]).unwrap(); // k2
    t.insert_auto(3, &[0xA3, 0xB3, 0xC3]).unwrap(); // k3
    (db, t)
}

/// Table 2: the update/delete walk-through.
#[test]
fn table2_update_and_delete_procedure() {
    let (_db, t) = paper_table();
    let t_before_updates = t.now();

    // t1+t2: first update of k2's column A → snapshot record + update record.
    t.update_auto(2, &[(0, 0xA21)]).unwrap();
    let stats = t.stats();
    assert_eq!(stats.snapshots_taken, 1, "t1 snapshot of original a2");
    let after_a21 = t.now();

    // t3: subsequent update of the same column → only one tail record.
    t.update_auto(2, &[(0, 0xA22)]).unwrap();
    assert_eq!(t.stats().snapshots_taken, 1, "no second snapshot for A");

    // t4+t5: first update of k2's column C → snapshot of c2, then a
    // cumulative record carrying both a22 and c21 (paper's t5: "0101").
    t.update_auto(2, &[(2, 0xC21)]).unwrap();
    assert_eq!(t.stats().snapshots_taken, 2, "t4 snapshot of original c2");

    // t6+t7: first update of k3's column C.
    t.update_auto(3, &[(2, 0xC31)]).unwrap();
    assert_eq!(t.stats().snapshots_taken, 3);

    // Latest state matches the table.
    assert_eq!(
        t.read_one(&ReadRequest::latest(2)).unwrap().values,
        Some(vec![0xA22, 0xB2, 0xC21])
    );
    assert_eq!(
        t.read_one(&ReadRequest::latest(3)).unwrap().values,
        Some(vec![0xA3, 0xB3, 0xC31])
    );

    // Historic state: before any update, k2 was (a2, b2, c2).
    assert_eq!(
        t.read_one(&ReadRequest::as_of(2, t_before_updates).with_columns(vec![0, 1, 2]))
            .unwrap()
            .values,
        Some(vec![0xA2, 0xB2, 0xC2])
    );
    // Between t2 and t3, A was a21 and C still c2.
    assert_eq!(
        t.read_one(&ReadRequest::as_of(2, after_a21).with_columns(vec![0, 2]))
            .unwrap()
            .values,
        Some(vec![0xA21, 0xC2])
    );

    // t8: delete of k1 — "all data columns are implicitly set to ∅".
    t.delete_auto(1).unwrap();
    assert!(!t
        .read_one(&ReadRequest::latest(1).with_columns(vec![0]))
        .unwrap()
        .is_visible());
    // But k1 is still visible in the past (snapshot semantics).
    assert_eq!(
        t.read_one(&ReadRequest::as_of(1, t_before_updates).with_columns(vec![0, 1, 2]))
            .unwrap()
            .values,
        Some(vec![0xA1, 0xB1, 0xC1])
    );
}

/// Table 3: inserts land in table-level tail pages; updates to freshly
/// inserted records flow through the regular tail pages.
#[test]
fn table3_insert_with_concurrent_updates() {
    let db = Database::new(DbConfig::deterministic());
    let t = db
        .create_table("t3", &["A", "B", "C"], TableConfig::small())
        .unwrap();
    // Insert k7..k9 (paper's b7..b9 / tt7..tt9).
    t.insert_auto(7, &[0xA7, 0xB7, 0xC7]).unwrap();
    t.insert_auto(8, &[0xA8, 0xB8, 0xC8]).unwrap();
    t.insert_auto(9, &[0xA9, 0xB9, 0xC9]).unwrap();
    let after_insert = t.now();

    // Update the recently inserted records (t13/t14: k8.C; t15/t16: k9.A).
    t.update_auto(8, &[(2, 0xC81)]).unwrap();
    t.update_auto(9, &[(0, 0xA91)]).unwrap();

    assert_eq!(
        t.read_one(&ReadRequest::latest(8)).unwrap().values,
        Some(vec![0xA8, 0xB8, 0xC81])
    );
    assert_eq!(
        t.read_one(&ReadRequest::latest(9)).unwrap().values,
        Some(vec![0xA91, 0xB9, 0xC9])
    );
    // The original insert values remain reachable (snapshot records took
    // c8 and a9 with the insert-time start).
    assert_eq!(
        t.read_one(&ReadRequest::as_of(8, after_insert).with_columns(vec![0, 1, 2]))
            .unwrap()
            .values,
        Some(vec![0xA8, 0xB8, 0xC8])
    );
    assert_eq!(
        t.read_one(&ReadRequest::as_of(9, after_insert).with_columns(vec![0]))
            .unwrap()
            .values,
        Some(vec![0xA9])
    );
    // Duplicate-key inserts are rejected.
    assert!(matches!(
        t.insert_auto(8, &[1, 2, 3]),
        Err(lstore::Error::DuplicateKey(8))
    ));
}

/// Table 4: the relaxed merge consolidates only the latest version of every
/// updated record; the Start Time column survives; Last Updated Time is
/// populated; TPS advances.
#[test]
fn table4_relaxed_merge() {
    let (_db, t) = paper_table();
    let before = t.now();
    // The update sequence t1..t7 of Table 2.
    t.update_auto(2, &[(0, 0xA21)]).unwrap();
    t.update_auto(2, &[(0, 0xA22)]).unwrap();
    t.update_auto(2, &[(2, 0xC21)]).unwrap();
    t.update_auto(3, &[(2, 0xC31)]).unwrap();

    // Graduate the insert range, then merge the tail.
    let consumed = t.merge_all();
    assert!(
        consumed >= 7,
        "snapshots + updates all consumed, got {consumed}"
    );

    // Merged pages answer the latest state directly (2-hop fast path).
    assert_eq!(
        t.read_one(&ReadRequest::latest(2)).unwrap().values,
        Some(vec![0xA22, 0xB2, 0xC21])
    );
    assert_eq!(
        t.read_one(&ReadRequest::latest(3)).unwrap().values,
        Some(vec![0xA3, 0xB3, 0xC31])
    );
    assert_eq!(
        t.read_one(&ReadRequest::latest(1)).unwrap().values,
        Some(vec![0xA1, 0xB1, 0xC1])
    );
    // …and a scan aggregates all three records straight off them, chasing
    // no version chain.
    let stats = t.stats();
    assert_eq!(t.sum_auto(0), 0xA1 + 0xA22 + 0xA3);
    assert_eq!(t.stats().fast_path_reads, stats.fast_path_reads + 3);
    assert_eq!(t.stats().chain_reads, stats.chain_reads);
    assert_eq!(t.stats().tail_pass_rows, 0, "a clean table has no suffix");

    // "the old Start Time column is remained intact": pre-update versions
    // still resolve by timestamp.
    assert_eq!(
        t.read_one(&ReadRequest::as_of(2, before).with_columns(vec![0, 1, 2]))
            .unwrap()
            .values,
        Some(vec![0xA2, 0xB2, 0xC2])
    );

    // Merge is idempotent: running it again consumes nothing new.
    assert_eq!(t.merge_all(), 0);
}

/// Table 5: TPS interpretation — after a merge, an indirection pointer at or
/// below the TPS means the base page is current; cumulation resets at the
/// merge watermark.
#[test]
fn table5_tps_interpretation_and_cumulation_reset() {
    let (_db, t) = paper_table();
    t.update_auto(2, &[(0, 0xA21)]).unwrap();
    t.update_auto(2, &[(0, 0xA22)]).unwrap();
    t.update_auto(2, &[(2, 0xC21)]).unwrap();
    t.merge_all(); // TPS now covers t1..t5-equivalents

    // Post-merge updates (the paper's t9..t12): B then C then A+B.
    t.update_auto(2, &[(1, 0xB21)]).unwrap(); // resets nothing; new snapshot for B
    t.update_auto(3, &[(2, 0xC32)]).unwrap();
    t.update_auto(2, &[(0, 0xA23)]).unwrap();

    // A reader on the merged pages needs only the post-merge chain: the
    // pre-merge values of C must come from the merged base, not the chain
    // (cumulation was reset, so t12-equivalent does not carry c21).
    assert_eq!(
        t.read_one(&ReadRequest::latest(2)).unwrap().values,
        Some(vec![0xA23, 0xB21, 0xC21])
    );
    assert_eq!(
        t.read_one(&ReadRequest::latest(3)).unwrap().values,
        Some(vec![0xA3, 0xB3, 0xC32])
    );

    // A scan reads the same lineage the other way round: one backward pass
    // over the post-merge records (two first-update snapshots, three
    // updates) patches both updated records — c21 again from the merged
    // base — and the untouched one comes off the base page.
    let stats = t.stats();
    assert_eq!(
        t.sum_cols_as_of(&[0, 2], t.now()),
        vec![0xA1 + 0xA23 + 0xA3, 0xC1 + 0xC21 + 0xC32]
    );
    let after = t.stats();
    assert_eq!(after.fast_path_reads, stats.fast_path_reads + 1);
    assert_eq!(after.chain_reads, stats.chain_reads + 2);
    assert_eq!(after.tail_pass_rows, after.chain_reads, "none is chased");
    assert_eq!(after.tail_pass_records, stats.tail_pass_records + 5);
}

/// Table 6: historic compression inlines versions per record in base-RID
/// order and strips cumulative repetitions (delta form).
#[test]
fn table6_historic_compression() {
    let (_db, t) = paper_table();
    let day0 = t.now();
    t.update_auto(2, &[(0, 0xA21)]).unwrap();
    t.update_auto(2, &[(0, 0xA22)]).unwrap();
    let mid = t.now();
    t.update_auto(2, &[(2, 0xC21)]).unwrap();
    t.update_auto(3, &[(2, 0xC31)]).unwrap();
    t.merge_all();

    let mut compressed = 0;
    for r in 0..t.range_count() {
        compressed += t.compress_historic(r as u32, t.now());
    }
    assert!(compressed >= 7, "all merged tail records compressed");
    assert_eq!(t.stats().historic_compressed as usize, compressed);

    // Reads at every historical point still work, now served from the
    // historic store + merged base pages.
    assert_eq!(
        t.read_one(&ReadRequest::as_of(2, day0).with_columns(vec![0, 1, 2]))
            .unwrap()
            .values,
        Some(vec![0xA2, 0xB2, 0xC2])
    );
    assert_eq!(
        t.read_one(&ReadRequest::as_of(2, mid).with_columns(vec![0, 2]))
            .unwrap()
            .values,
        Some(vec![0xA22, 0xC2])
    );
    assert_eq!(
        t.read_one(&ReadRequest::latest(2)).unwrap().values,
        Some(vec![0xA22, 0xB2, 0xC21])
    );

    // Compression is incremental: a second pass finds nothing new.
    let mut again = 0;
    for r in 0..t.range_count() {
        again += t.compress_historic(r as u32, t.now());
    }
    assert_eq!(again, 0);
}

/// Schema-encoding rendering matches the paper's notation.
#[test]
fn schema_encoding_notation() {
    use lstore::SchemaEncoding;
    // Table 2 row t5: encoding 0101 over (Key, A, B, C).
    let t5 = SchemaEncoding::from_columns([1, 3]);
    assert_eq!(t5.render(4), "0101");
    // Row t6: 0001* (snapshot of C).
    let t6 = SchemaEncoding::from_columns([3]).with_snapshot();
    assert_eq!(t6.render(4), "0001*");
}
