//! §4.1.3's temporal-coordination extension: merging "only those consecutive
//! committed records before an agreed upon time ti" yields base pages that
//! form a consistent snapshot at ti across the whole table.

use lstore::{Database, DbConfig, TableConfig};

#[test]
fn merge_upto_time_stops_at_the_agreed_timestamp() {
    let db = Database::new(DbConfig::deterministic());
    let t = db.create_table("tm", &["v"], TableConfig::small()).unwrap();
    for k in 0..400 {
        t.insert_auto(k, &[0]).unwrap();
    }
    t.merge_all(); // graduate insert ranges

    // Epoch 1: set everything to 1.
    for k in 0..400 {
        t.update_auto(k, &[(0, 1)]).unwrap();
    }
    let ti = t.now();
    // Epoch 2: set everything to 2 (after ti).
    for k in 0..400 {
        t.update_auto(k, &[(0, 2)]).unwrap();
    }

    // Merge only up to ti: base pages must reflect epoch 1, not epoch 2.
    let consumed = t.merge_upto_time(ti);
    assert!(consumed > 0);
    for range in 0..t.range_count() as u32 {
        let handle = t.range_handle(range);
        let g = db.runtime().epoch.pin();
        let base = handle.base(&g);
        if base.len == 0 {
            continue;
        }
        // Every merged base cell is 1 (epoch-1 value), never 2.
        for slot in 0..base.len as u32 {
            let v = base.value(1, slot, &g); // internal col 1 = user col 0
            assert!(v <= 1, "base page leaked a post-ti value: {v}");
        }
        // Temporal lineage: the earliest unmerged record is after ti.
        if let Some(earliest) = t.earliest_unmerged_ts(range) {
            assert!(earliest > ti, "earliest unmerged {earliest} ≤ ti {ti}");
        }
    }

    // Readers still see the latest state through the tail.
    assert_eq!(t.sum_auto(0), 800);
    // And the ti snapshot is exactly epoch 1.
    assert_eq!(t.sum_as_of(0, ti), 400);

    // A later full merge brings pages to the present.
    t.merge_all();
    assert_eq!(t.sum_auto(0), 800);
    assert_eq!(
        t.sum_as_of(0, ti),
        400,
        "history preserved after full merge"
    );
}

#[test]
fn advancing_ti_consumes_incrementally() {
    let db = Database::new(DbConfig::deterministic());
    let t = db
        .create_table("tm2", &["v"], TableConfig::small())
        .unwrap();
    for k in 0..100 {
        t.insert_auto(k, &[0]).unwrap();
    }
    t.merge_all();
    let mut marks = Vec::new();
    for epoch in 1..=4u64 {
        for k in 0..100 {
            t.update_auto(k, &[(0, epoch)]).unwrap();
        }
        marks.push(t.now());
    }
    // "Periodically, the agreed upon merge time is advanced from ti to ti+1,
    // and all subsequent merges are adjusted accordingly."
    let mut consumed_total = 0;
    for (i, &ti) in marks.iter().enumerate() {
        let consumed = t.merge_upto_time(ti);
        consumed_total += consumed;
        assert!(consumed > 0, "advance {i} consumed nothing");
        assert_eq!(t.sum_as_of(0, ti), 100 * (i as u64 + 1));
    }
    assert!(consumed_total > 0);
    assert_eq!(t.merge_upto_time(marks[3]), 0, "nothing left below t4");
}
