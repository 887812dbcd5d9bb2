//! Point-read equivalence: the prefetched row gather and the bitmask chain
//! walk must return exactly what one cell read per column returns.
//!
//! * [`BaseVersion::gather`] against [`BaseVersion::value`] for every
//!   codec and the awkward cells (width-64 frame of reference, a packed
//!   value straddling two words, the last slot of a page), for
//!   heap-resident pages and for store-backed ones behind a 2-page pool,
//!   for column lists with repeats and longer than the inline buffer, and
//!   for every column subset.
//! * Cell reads of store-backed pages — answered from the image blocks of
//!   evicted pages or from pages faulted in — against heap-resident ones,
//!   for every codec shape above, every slot and the three metadata
//!   columns.
//! * Multi-column reads through the table against one single-column read
//!   per column and against a model, for chains that settle a row's columns
//!   from three different tail versions, from first-update snapshot
//!   records, across the historic boundary — with cumulative updates on
//!   and off.

use lstore::range::{BaseData, BaseVersion};
use lstore::{Database, DbConfig, ReadRequest, TableConfig};
use lstore_storage::compress::CodecChoice;
use lstore_storage::page::BasePage;
use lstore_storage::store::{PagePtr, PageStore};

const SLOTS: usize = 777;

/// One column per codec shape; `(name, codec, values)`.
fn columns() -> Vec<(&'static str, CodecChoice, Vec<u64>)> {
    let mix = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    vec![
        ("plain", CodecChoice::None, (0..SLOTS).map(mix).collect()),
        (
            "rle",
            CodecChoice::Rle,
            (0..SLOTS).map(|i| (i / 50) as u64).collect(),
        ),
        (
            "for, 10 bits",
            CodecChoice::ForPack,
            (0..SLOTS).map(|i| 5000 + mix(i) % 1000).collect(),
        ),
        (
            "dictionary",
            CodecChoice::Dictionary,
            (0..SLOTS).map(|i| (mix(i) % 7) * 1_000_003).collect(),
        ),
        (
            "for, 64 bits",
            CodecChoice::ForPack,
            (0..SLOTS).map(|i| mix(i).min(u64::MAX - 1)).collect(),
        ),
        (
            // 13 does not divide 64: every fifth value straddles two words.
            "for, 13 bits",
            CodecChoice::ForPack,
            (0..SLOTS).map(|i| mix(i) % (1 << 13)).collect(),
        ),
    ]
}

fn base_version(seal: impl Fn(BasePage) -> PagePtr) -> BaseVersion {
    let columns = columns();
    let meta = |v: u64| seal(BasePage::plain(vec![v; SLOTS]));
    let data: Vec<PagePtr> = columns
        .iter()
        .map(|(_, codec, values)| seal(BasePage::from_values(values, *codec)))
        .collect();
    for ((name, _, _), page) in columns.iter().zip(&data) {
        let expected = name.split(',').next().unwrap();
        assert!(
            page.read().codec_name().starts_with(expected),
            "{name} is stored as {}",
            page.read().codec_name()
        );
    }
    BaseVersion {
        tps: 0,
        column_tps: vec![0; columns.len()].into_boxed_slice(),
        len: SLOTS,
        max_start: 0,
        max_last_updated: 0,
        has_deletes: false,
        data: BaseData::Pages {
            data: data.into_boxed_slice(),
            start_time: meta(0),
            last_updated: meta(u64::MAX),
            schema_enc: meta(0),
        },
    }
}

fn check_gather(base: &BaseVersion, step: usize) {
    let ncols = columns().len();
    let all: Vec<usize> = (0..ncols).collect();
    let repeats = vec![2, 0, 2, 5, 5, 1, 2];
    // Longer than any inline buffer, every column many times over.
    let long: Vec<usize> = (0..67).map(|i| (i * 5 + 3) % ncols).collect();
    for slot in (0..SLOTS as u32).step_by(step).chain([SLOTS as u32 - 1]) {
        for list in [&all, &repeats, &long] {
            let expected: Vec<u64> = list.iter().map(|&c| base.value(c, slot)).collect();
            let mut got = vec![0; list.len()];
            base.gather(list, slot, u64::MAX, &mut got);
            assert_eq!(got, expected, "slot {slot}, columns {list:?}");
        }
        // Every subset: untouched places keep what they held.
        let subsets = if slot % 7 == 0 { 1u64 << ncols } else { 0 };
        for only in 0..subsets {
            let mut got = vec![7; long.len()];
            base.gather(&long, slot, only, &mut got);
            for (value, &c) in got.iter().zip(&long) {
                let expected = match only & (1 << c) {
                    0 => 7,
                    _ => base.value(c, slot),
                };
                assert_eq!(*value, expected, "slot {slot}, column {c}, only {only:b}");
            }
        }
    }
    // The cells the packed codecs find hardest are the values stored.
    for (c, (name, _, values)) in columns().iter().enumerate() {
        for slot in [0, 4, 63, 64, SLOTS - 1] {
            let mut got = [0];
            base.gather(&[c], slot as u32, u64::MAX, &mut got);
            assert_eq!(got[0], values[slot], "{name}, slot {slot}");
        }
    }
}

#[test]
fn gather_equals_cell_reads_on_resident_pages() {
    check_gather(&base_version(PagePtr::resident), 1);
}

#[test]
fn gather_equals_cell_reads_behind_a_two_page_pool() {
    let dir = std::env::temp_dir().join("lstore-read-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("gather-{}.pages", std::process::id()));
    std::fs::remove_file(&path).ok();
    let store = PageStore::open(&path, Some(2)).unwrap();
    // Nine pages behind two frames: every gather faults pages in.
    let base = base_version(|page| PagePtr::seal(Some(&store), page));
    check_gather(&base, 31);
    let pool = store.pool_stats();
    assert!(pool.faults > 0 && pool.evictions > 0, "{pool:?}");
    drop(base);
    drop(store);
    std::fs::remove_file(&path).ok();
}

#[test]
fn block_reads_equal_resident_reads_behind_a_two_page_pool() {
    let dir = std::env::temp_dir().join("lstore-read-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("blocks-{}.pages", std::process::id()));
    std::fs::remove_file(&path).ok();
    let store = PageStore::open(&path, Some(2)).unwrap();
    let resident = base_version(PagePtr::resident);
    let stored = base_version(|page| PagePtr::seal(Some(&store), page));
    let ncols = columns().len();
    // Row by row across nine pages and two frames: a page's next touch
    // comes a lap of the other eight later, so reads alternate between
    // the image blocks of evicted pages and pages faulted in on a touch
    // soon after their last one.
    for slot in 0..SLOTS as u32 {
        for c in 0..ncols {
            assert_eq!(
                stored.value(c, slot),
                resident.value(c, slot),
                "{}, slot {slot}",
                columns()[c].0
            );
        }
        assert_eq!(stored.start_cell(slot), resident.start_cell(slot));
        assert_eq!(stored.last_updated(slot), resident.last_updated(slot));
        assert_eq!(stored.schema_enc(slot), resident.schema_enc(slot));
    }
    let pool = store.pool_stats();
    assert!(pool.block_reads > 0 && pool.faults > 0, "{pool:?}");
    assert_eq!(pool.pinned, 0, "{pool:?}");
    drop(stored);
    drop(store);
    std::fs::remove_file(&path).ok();
}

/// The row's columns as `model` has them at each mark, read three ways.
fn check_reads(t: &lstore::Table, key: u64, marks: &[(u64, Option<Vec<u64>>)], when: &str) {
    let ncols = t.value_columns();
    let all: Vec<usize> = (0..ncols).collect();
    let repeats = vec![3, 0, 3, 1, 1];
    let long: Vec<usize> = (0..40).map(|i| (i * 3 + 1) % ncols).collect();
    for (ts, model) in marks {
        for list in [&all, &repeats, &long] {
            let expected = model
                .as_ref()
                .map(|row| list.iter().map(|&c| row[c]).collect::<Vec<u64>>());
            let what = format!("{when}: key {key} as of {ts}, columns {list:?}");
            let as_of =
                ReadRequest::as_of(key, *ts).with_columns(list.iter().map(|&c| c as u32).collect());
            assert_eq!(t.read_one(&as_of).unwrap().values, expected, "{what}");
            // One read per column sees what the gathered read sees.
            let singles: Option<Vec<u64>> = list
                .iter()
                .map(|&c| {
                    t.read_one(&ReadRequest::as_of(key, *ts).with_columns(vec![c as u32]))
                        .unwrap()
                        .values
                        .map(|v| v[0])
                })
                .collect();
            assert_eq!(singles, expected, "{what}, column by column");
        }
    }
    let (_, latest) = marks.last().unwrap();
    for list in [&all, &repeats, &long] {
        let wire: Vec<u32> = list.iter().map(|&c| c as u32).collect();
        let got = t
            .read_one(&ReadRequest::latest(key).with_columns(wire))
            .unwrap()
            .values;
        let expected = latest
            .as_ref()
            .map(|row| list.iter().map(|&c| row[c]).collect::<Vec<u64>>());
        assert_eq!(got, expected, "{when}: key {key} latest, columns {list:?}");
    }
}

fn chain_walks(cumulative: bool) {
    const KEY: u64 = 5;
    let db = Database::new(DbConfig::deterministic());
    let config = TableConfig {
        cumulative_updates: cumulative,
        ..TableConfig::small()
    };
    let names = ["a", "b", "c", "d", "e", "f"];
    let t = db.create_table("walks", &names, config).unwrap();
    for k in 0..20u64 {
        let row: Vec<u64> = (0..6).map(|c| 100 * k + c).collect();
        t.insert_auto(k, &row).unwrap();
    }
    let mut row: Vec<u64> = (0..6).map(|c| 100 * KEY + c).collect();
    let mut marks = vec![(t.now(), Some(row.clone()))];
    let mut update = |t: &lstore::Table, changes: &[(usize, u64)], marks: &mut Vec<_>| {
        t.update_auto(KEY, changes).unwrap();
        for &(c, v) in changes {
            row[c] = v;
        }
        marks.push((t.now(), Some(row.clone())));
    };
    let when = |what: &str| format!("cumulative {cumulative}, {what}");

    // Insert phase, then three versions each carrying another column (plus
    // what cumulation repeats): a full-row read settles a, b and c from
    // three tail records and d, e, f from the base record, and the reads
    // as of the earlier marks settle them from first-update snapshots.
    update(&t, &[(0, 1)], &mut marks);
    check_reads(&t, KEY, &marks, &when("insert phase"));
    t.merge_all();
    update(&t, &[(1, 2)], &mut marks);
    update(&t, &[(2, 3)], &mut marks);
    update(&t, &[(0, 4), (3, 5)], &mut marks);
    check_reads(&t, KEY, &marks, &when("three versions"));

    // A column merge leaves the others to the walk.
    t.merge_columns_now(0, &[1]).unwrap();
    check_reads(&t, KEY, &marks, &when("column b merged"));
    update(&t, &[(4, 6)], &mut marks);
    t.merge_all();
    check_reads(&t, KEY, &marks, &when("merged"));

    // Push everything merged so far below the historic boundary, then go
    // on: walks start in the tail pages and finish in the historic store.
    let horizon = t.now();
    assert!(t.compress_historic(0, horizon) > 0);
    update(&t, &[(5, 7)], &mut marks);
    update(&t, &[(1, 8)], &mut marks);
    check_reads(&t, KEY, &marks, &when("across the historic boundary"));

    // Own writes on top of the chain, inside a transaction.
    let mut txn = db.begin();
    t.update(&mut txn, KEY, &[(2, 4242)]).unwrap();
    let mut own = row.clone();
    own[2] = 4242;
    let list = [2, 0, 5, 2, 1, 3, 4];
    let expected: Vec<u64> = list.iter().map(|&c| own[c]).collect();
    assert_eq!(t.read(&mut txn, KEY, &list).unwrap(), Some(expected));
    db.abort(&mut txn);

    t.delete_auto(KEY).unwrap();
    marks.push((t.now(), None));
    check_reads(&t, KEY, &marks, &when("deleted"));
    t.merge_all();
    check_reads(&t, KEY, &marks, &when("deleted and merged"));
}

#[test]
fn chain_walks_settle_columns_like_single_column_reads() {
    chain_walks(true);
    chain_walks(false);
}
