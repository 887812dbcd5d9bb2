//! Scan-driver equivalence at the engine level: every aggregate scan must
//! return exactly what a decoded reference returns — a test-side fold over
//! per-key `ReadRequest::as_of` point reads, which go through the batched
//! point-read planner and never through the scan driver — across merges,
//! updates, deletes, historic compression, insert-phase ranges and
//! time-travel snapshots. The window shapes are chosen so both of the
//! driver's strategies (page kernel + patched rows, per-row), every
//! condition that picks between them and every shape the suffix pass has to
//! settle (`suffix_pass_shapes`) get exercised; the `fast_path_reads` /
//! `chain_reads` / `tail_pass_*` counters pin which path a shape took.

use std::collections::BTreeMap;
use std::sync::Arc;

use lstore::{Database, DbConfig, ReadRequest, Rid, Table, TableConfig};

/// Rows in the initial load: four full 256-slot ranges plus a partial one.
const KEYS: u64 = 1200;
/// Rows inserted at the end into a range that stays in its insert phase.
const LATE_KEYS: u64 = 100;
/// `scan.rs`'s private `KERNEL_SPAN_MIN`: the shortest `sum_key_range`
/// span that may take the kernel strategy.
const KERNEL_SPAN_MIN: u64 = 16;

fn row(k: u64) -> [u64; 3] {
    // One group per 32-long run (compressible), a small value column, and
    // a max-width column that exercises wrapping arithmetic in the kernels.
    [k / 32, k % 97, u64::MAX - (k % 7)]
}

/// Decoded reference: the visible rows of keys `0..KEYS + LATE_KEYS` at
/// `ts`, resolved one key at a time.
fn reference(t: &Table, ts: u64) -> Vec<(u64, Vec<u64>)> {
    (0..KEYS + LATE_KEYS)
        .filter_map(|k| {
            let values = t.read_one(&ReadRequest::as_of(k, ts)).ok()?.values?;
            Some((k, values))
        })
        .collect()
}

fn wrapping_sum(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0, u64::wrapping_add)
}

/// Compare every aggregate at `ts` against the reference fold.
fn check(t: &Table, ts: u64, what: &str) {
    let rows = reference(t, ts);
    assert_eq!(t.scan_as_of(&[0, 1, 2], ts), rows, "scan_as_of, {what}");
    let col_sum = |c: usize| wrapping_sum(rows.iter().map(|(_, v)| v[c]));
    for c in 0..3 {
        assert_eq!(t.sum_as_of(c, ts), col_sum(c), "sum col {c}, {what}");
    }
    assert_eq!(
        t.sum_cols_as_of(&[0, 1, 2], ts),
        vec![col_sum(0), col_sum(1), col_sum(2)],
        "sum_cols, {what}"
    );
    assert_eq!(
        t.sum_cols_as_of(&[2, 0], ts),
        vec![col_sum(2), col_sum(0)],
        "sum_cols reordered, {what}"
    );
    assert_eq!(t.count_as_of(ts), rows.len() as u64, "count, {what}");
    let mut groups: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, v) in &rows {
        let sum = groups.entry(v[0]).or_insert(0);
        *sum = sum.wrapping_add(v[1]);
    }
    assert_eq!(t.group_by_sum(0, 1, ts), groups, "group_by_sum, {what}");

    let keyed = |c: usize, lo: u64, hi: u64| {
        wrapping_sum(
            rows.iter()
                .filter(|(k, _)| (lo..=hi).contains(k))
                .map(|(_, v)| v[c]),
        )
    };
    for (c, lo, hi) in [
        (1, 0, KEYS + LATE_KEYS),            // everything, past the last key
        (1, 100, 500),                       // crosses range boundaries mid-range
        (2, 63, 64),                         // two slots: always per-row
        (1, 900, 900 + KERNEL_SPAN_MIN - 2), // one slot short of the kernel floor
        (1, 900, 900 + KERNEL_SPAN_MIN - 1), // exactly the kernel floor
        (0, 1000, KEYS + 50),                // merged tail range into the insert-phase range
    ] {
        assert_eq!(
            t.sum_key_range(c, lo, hi, ts),
            keyed(c, lo, hi),
            "sum_key_range col {c} [{lo}, {hi}], {what}"
        );
    }
    // Keys were loaded in order into one shard, so RID order is key order
    // and a RID span is a key interval (`layout_is_key_ordered` pins it).
    for (c, first, count) in [
        (1, 5, KEYS / 2),     // starts and ends mid-range, crosses two boundaries
        (2, 800, 100),        // starts and ends inside one range
        (1, 768, 256),        // exactly one whole range
        (0, 1000, 10_000),    // runs off the end: partial range, then insert phase
        (1, KEYS, LATE_KEYS), // the insert-phase range alone
    ] {
        let Ok(start) = t.locate(first) else {
            continue; // the late keys do not exist yet at the early checks
        };
        assert_eq!(
            t.sum_rid_span(start, count, c, ts),
            keyed(c, first, first + count - 1),
            "sum_rid_span col {c} from key {first} x{count}, {what}"
        );
    }
}

fn table() -> (Arc<Database>, Arc<Table>) {
    table_with(TableConfig::small())
}

fn table_with(config: TableConfig) -> (Arc<Database>, Arc<Table>) {
    let db = Database::new(DbConfig::deterministic());
    let t = db
        .create_table("agg", &["grp", "val", "wide"], config)
        .unwrap();
    (db, t)
}

/// (fast_path_reads, chain_reads) added by `scan`.
fn path_split<R>(t: &Table, scan: impl FnOnce() -> R) -> (u64, u64) {
    let before = t.stats();
    scan();
    let after = t.stats();
    (
        after.fast_path_reads - before.fast_path_reads,
        after.chain_reads - before.chain_reads,
    )
}

#[test]
fn every_aggregate_matches_the_decoded_reference_at_every_mark() {
    let (_db, t) = table();
    let mut marks = Vec::new();

    for k in 0..KEYS {
        t.insert_auto(k, &row(k)).unwrap();
        if k == KEYS / 2 {
            // A snapshot that straddles the load: half the base records
            // start after it.
            marks.push((t.now(), "mid-load"));
        }
    }
    t.merge_all();
    marks.push((t.now(), "loaded and merged"));
    check(&t, t.now(), "clean merged pages");

    // Sparse updates: a few MVCC holes per page for the masked kernels.
    for k in (0..KEYS).step_by(37) {
        t.update_auto(k, &[(1, k + 1_000_000)]).unwrap();
    }
    marks.push((t.now(), "sparse unmerged updates"));
    check(&t, t.now(), "sparse holes");

    // Deletes, then a second merge so some deletes live in merged pages —
    // and every earlier mark is now older than the last merge
    // (`ts < max_last_updated`): the rows merged since are holes there.
    let alive = |k: &u64| !k.is_multiple_of(101);
    for k in (0..KEYS).filter(|k| !alive(k)) {
        t.delete_auto(k).unwrap();
    }
    t.merge_all();
    marks.push((t.now(), "merged deletes"));
    check(&t, t.now(), "merged deletes");

    // A dense update wave over the first two ranges: half their rows dirty,
    // which pushes their masks past the density cutoff. Ranges 3 and 4
    // stay clean, so old snapshots still reach them through the kernels.
    for k in (0..512).step_by(2).filter(alive) {
        t.update_auto(k, &[(0, (k / 64) % 5), (1, k)]).unwrap();
    }
    marks.push((t.now(), "dense unmerged updates"));
    check(&t, t.now(), "dense holes");

    for range in 0..t.range_count() as u32 {
        t.compress_historic(range, t.now());
    }
    marks.push((t.now(), "historic compressed"));

    // Move group 25 — one whole 32-row run of range 3 (keys 768..1024) —
    // to a group that exists nowhere else: the window stays on the kernel
    // strategy (an eighth of it masked), group 25 keeps its run in the
    // base page but has no visible row left, and group 999 exists only as
    // masked holes.
    for k in (800..832).filter(alive) {
        t.update_auto(k, &[(0, 999)]).unwrap();
    }
    let groups = t.group_by_sum(0, 1, t.now());
    assert!(
        !groups.contains_key(&25),
        "a fully masked run must not appear"
    );
    assert!(groups.contains_key(&999), "group made of holes must appear");
    let deleted_elsewhere = |k: &u64| !alive(k) && !(800..832).contains(k);
    let holes = 32 + (768..1024).filter(deleted_elsewhere).count() as u64;
    let start = t.locate(768).unwrap();
    assert_eq!(
        path_split(&t, || t.sum_rid_span(start, 256, 0, t.now())),
        (256 - holes, holes),
        "moved and deleted rows are chased, the rest stays on the kernel"
    );
    marks.push((t.now(), "group of holes"));

    // A range that stays in its insert phase, with updates on top.
    for k in KEYS..KEYS + LATE_KEYS {
        t.insert_auto(k, &row(k)).unwrap();
    }
    for k in (KEYS..KEYS + LATE_KEYS).step_by(9) {
        t.update_auto(k, &[(1, 7)]).unwrap();
    }
    marks.push((t.now(), "insert-phase range"));

    for &(ts, what) in &marks {
        check(&t, ts, what);
    }
}

#[test]
fn layout_is_key_ordered() {
    let (_db, t) = table();
    for k in 0..KEYS {
        t.insert_auto(k, &row(k)).unwrap();
    }
    t.merge_all();
    for k in KEYS..KEYS + LATE_KEYS {
        t.insert_auto(k, &row(k)).unwrap();
    }
    for k in 0..KEYS {
        let rid = Rid::base((k / 256) as u32, (k % 256) as u32);
        assert_eq!(t.locate(k).unwrap(), rid);
    }
    // `merge_all` sealed the partial range 4, so late keys open range 5.
    for k in KEYS..KEYS + LATE_KEYS {
        assert_eq!(t.locate(k).unwrap(), Rid::base(5, (k - KEYS) as u32));
    }
}

#[test]
fn counters_split_rows_by_strategy() {
    let (_db, t) = table();
    for k in 0..KEYS {
        t.insert_auto(k, &row(k)).unwrap();
    }
    // Insert phase: every row resolves per row.
    assert_eq!(path_split(&t, || t.sum_auto(1)), (0, KEYS));

    t.merge_all();
    let ts = t.now();
    // Fully merged: every row comes off the base pages, none is chased.
    assert_eq!(path_split(&t, || t.sum_as_of(1, ts)), (KEYS, 0));
    assert_eq!(path_split(&t, || t.count_as_of(ts)), (KEYS, 0));
    assert_eq!(path_split(&t, || t.scan_as_of(&[0, 2], ts)), (KEYS, 0));
    // Sub-range windows: a RID span that starts and ends mid-range.
    let start = t.locate(5).unwrap();
    let split = path_split(&t, || t.sum_rid_span(start, 600, 1, ts));
    assert_eq!(split, (600, 0));
    // Keyed spans below the kernel floor resolve per row; at it, by kernel.
    let (lo, n) = (300, KERNEL_SPAN_MIN);
    let split = path_split(&t, || t.sum_key_range(1, lo, lo + n - 2, ts));
    assert_eq!(split, (0, n - 1));
    let split = path_split(&t, || t.sum_key_range(1, lo, lo + n - 1, ts));
    assert_eq!(split, (n, 0));

    // k unmerged updates on distinct rows: exactly k rows are chased.
    let updated = (0..KEYS).step_by(50).count() as u64;
    for k in (0..KEYS).step_by(50) {
        t.update_auto(k, &[(1, 1)]).unwrap();
    }
    let sparse = (KEYS - updated, updated);
    assert_eq!(path_split(&t, || t.sum_auto(1)), sparse);
    // The snapshot from before the updates chases the same rows.
    assert_eq!(path_split(&t, || t.sum_as_of(1, ts)), sparse);
    // After the merge the table is clean again…
    t.merge_all();
    assert_eq!(path_split(&t, || t.sum_auto(1)), (KEYS, 0));
    // …but a snapshot older than that merge still chases the re-merged rows.
    assert_eq!(path_split(&t, || t.sum_as_of(1, ts)), sparse);

    // No density cutoff: however much of a window is dirty, the clean
    // rest stays on the kernel and only the dirty rows are patched.
    let start = t.locate(0).unwrap();
    for k in 0..65 {
        t.update_auto(k, &[(1, 2)]).unwrap();
    }
    let split = path_split(&t, || t.sum_rid_span(start, 256, 1, t.now()));
    assert_eq!(split, (191, 65));
    for k in 65..255 {
        t.update_auto(k, &[(1, 2)]).unwrap();
    }
    let split = path_split(&t, || t.sum_rid_span(start, 256, 1, t.now()));
    assert_eq!(split, (1, 255));
}

/// (tail_pass_records, tail_pass_rows, chain_reads) added by `scan`.
fn pass_split<R>(t: &Table, scan: impl FnOnce() -> R) -> (u64, u64, u64) {
    let before = t.stats();
    scan();
    let after = t.stats();
    (
        after.tail_pass_records - before.tail_pass_records,
        after.tail_pass_rows - before.tail_pass_rows,
        after.chain_reads - before.chain_reads,
    )
}

/// The shapes the suffix pass can get wrong, each checked when it is
/// created and every mark re-checked at the end, when it is older than
/// later merges.
fn suffix_pass_shapes(config: TableConfig) {
    /// Two full 256-slot ranges and a partial one.
    const N: u64 = 700;
    let (db, t) = table_with(config);
    let mut marks: Vec<(u64, &str)> = Vec::new();
    let mut mark_at = |t: &Table, ts: u64, what: &'static str| {
        marks.push((ts, what));
        check(t, ts, what);
    };
    macro_rules! mark {
        ($t:expr, $what:literal) => {
            mark_at($t, $t.now(), $what)
        };
    }
    for k in 0..N {
        t.insert_auto(k, &row(k)).unwrap();
    }
    t.merge_all();
    mark!(&t, "merged load");

    // A column whose last value lies at or below the TPS while another
    // column of the row is in the suffix: column 0 is merged, column 1
    // updated on top of it (a merge resets cumulation, so the new version
    // does not carry column 0).
    for k in (0..N).step_by(5) {
        t.update_auto(k, &[(0, k % 11)]).unwrap();
    }
    mark!(&t, "column 0 updated");
    t.merge_all();
    mark!(&t, "column 0 merged");
    for k in (0..N).step_by(10) {
        t.update_auto(k, &[(1, k + 5_000)]).unwrap();
    }
    // Rows whose suffix versions carry neither column 0 nor column 1.
    for k in (3..N).step_by(10) {
        t.update_auto(k, &[(2, k)]).unwrap();
    }
    mark!(&t, "columns 1 and 2 in the suffix, column 0 below the TPS");

    // The newest version committed after the snapshot, an older visible
    // one beneath it.
    let beneath = t.now();
    for k in (0..N).step_by(20) {
        t.update_auto(k, &[(1, k + 9_000)]).unwrap();
    }
    mark_at(&t, beneath, "newest version committed after the snapshot");

    // The newest suffix versions uncommitted in an open transaction. Rows
    // 1, 26, … never had column 2 updated: its only visible carrier is the
    // first-update snapshot record the open transaction's update wrote.
    let mut open = db.begin();
    for k in (1..N).step_by(25) {
        t.update(&mut open, k, &[(2, 42), (0, 1)]).unwrap();
    }
    mark!(&t, "open transaction on top");
    // …and aborted: tombstones, among them a delete.
    let mut doomed = db.begin();
    for k in (2..N).step_by(25) {
        t.update(&mut doomed, k, &[(1, 13)]).unwrap();
    }
    t.delete(&mut doomed, 8).unwrap();
    db.abort(&mut doomed);
    mark!(&t, "aborted transaction on top");

    // Per-column merges leave `column_tps` unequal (they stop at the open
    // transaction's first record), and more versions land on top.
    assert!(t.merge_columns_now(0, &[1]).unwrap().swapped);
    assert!(t.merge_columns_now(1, &[0]).unwrap().swapped);
    let tps = t.range_handle(0).base().column_tps.clone();
    assert!(
        tps[2] > tps[1],
        "column 1 merged ahead of column 0: {tps:?}"
    );
    mark!(&t, "per-column merges");
    for k in (0..N).step_by(15) {
        t.update_auto(k, &[(0, 3), (2, k + 1)]).unwrap();
    }
    mark!(&t, "updates over unequal column TPS");

    db.commit(&mut open).unwrap();
    mark!(&t, "open transaction committed");

    // Deletes in the suffix, then merged (`has_deletes`), then a suffix on
    // top of merged deletes.
    for k in (4..N).step_by(50) {
        t.delete_auto(k).unwrap();
    }
    mark!(&t, "deletes in the suffix");
    t.merge_all();
    mark!(&t, "merged deletes");
    let alive = |k: &u64| k % 50 != 4 && *k != 6;
    for k in (5..N).step_by(7).filter(alive) {
        t.update_auto(k, &[(1, k * 3)]).unwrap();
    }
    t.delete_auto(6).unwrap();
    mark!(&t, "suffix over merged deletes");

    // A window narrower than the suffix: range 0 gets a backlog of a few
    // hundred records, then 20-slot windows find their dirty rows from
    // their own indirection cells while the whole range takes the pass.
    for round in 0..3 {
        for k in (0..256).step_by(2).filter(alive) {
            t.update_auto(k, &[(1, k + round)]).unwrap();
        }
    }
    mark!(&t, "long backlog");
    let ts = t.now();
    let rows = reference(&t, ts);
    let keyed = |lo: u64, hi: u64| {
        wrapping_sum(
            rows.iter()
                .filter(|(k, _)| (lo..=hi).contains(k))
                .map(|(_, v)| v[1]),
        )
    };
    let suffix = t.range_handle(0).tail.high_seq() as u64 - t.range_handle(0).base().tps;
    assert!(suffix > 16 * 20, "the backlog outgrows a 20-slot window");
    let narrow = pass_split(&t, || {
        assert_eq!(t.sum_key_range(1, 100, 119, ts), keyed(100, 119));
    });
    assert_eq!(narrow.0, 0, "a narrow window does not walk the suffix");
    assert_eq!(narrow.1, 0);
    assert!(narrow.2 >= 10, "its dirty rows are chased: {narrow:?}");
    let start = t.locate(100).unwrap();
    let narrow = pass_split(&t, || {
        assert_eq!(t.sum_rid_span(start, 20, 1, ts), keyed(100, 119));
    });
    assert_eq!((narrow.0, narrow.1), (0, 0));
    let wide = pass_split(&t, || {
        assert_eq!(t.sum_key_range(1, 0, 255, ts), keyed(0, 255));
    });
    assert_eq!(wide.0, suffix, "the whole range walks its suffix once");
    let merged_deletes = (4..256).step_by(50).count() as u64;
    assert_eq!(
        wide.1 + merged_deletes,
        wide.2,
        "and patches every dirty row from it; only merged deletes are chased"
    );
    assert!(wide.1 >= 128);

    for &(ts, what) in &marks {
        check(&t, ts, what);
    }
}

#[test]
fn suffix_pass_shapes_cumulative() {
    suffix_pass_shapes(TableConfig::small());
}

#[test]
fn suffix_pass_shapes_non_cumulative() {
    suffix_pass_shapes(TableConfig::small().with_cumulative(false));
}
