//! Buffer-pool stress: concurrent writers, saturating scans, and background
//! merges against a deliberately starved 4-page pool. Every sealed base
//! page lives behind the store, so the scans and merges continuously evict
//! and fault pages while the workload churns; frozen-timestamp scans must
//! still equal a sequential per-key reconstruction of the same snapshot,
//! the resident gauge must respect `budget + pinned` at every probe, and
//! all pins must return at quiesce.
//!
//! And the `cold_scan` shape: one streaming range scanner beside one
//! skewed point reader on a quiet table several times the pool, every
//! answer checked against an in-memory copy.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use lstore::{Database, DbConfig, ReadRequest, TableConfig};

/// A failed assertion unwinds inside a thread scope, which then joins the
/// other threads: whoever unwinds raises `stop` on the way out, or the
/// failure would show as a hang.
struct StopOnUnwind<'a>(&'a AtomicBool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

#[test]
fn scans_stay_exact_while_a_4_page_pool_thrashes() {
    const SHARDS: usize = 2;
    const KEYS: u64 = 1536; // 6 stripes of 256 → several ranges per shard
    const WRITERS: u64 = 3;
    const BUDGET: u64 = 4;
    let path =
        std::env::temp_dir().join(format!("lstore-pool-stress-{}.pages", std::process::id()));
    std::fs::remove_file(&path).ok();
    let db = Database::new(
        DbConfig::new() // background merges on
            .with_pool_threads(4)
            .with_shards(SHARDS)
            .with_page_store(path.clone())
            .with_buffer_pool_pages(BUDGET as usize),
    );
    let t = db
        .create_table("poolstress", &["count", "bucket"], TableConfig::small())
        .unwrap();
    for k in 0..KEYS {
        t.insert_auto(k, &[1, k % 7]).unwrap();
    }
    t.merge_all();

    let stop = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        let _release = StopOnUnwind(&stop);
        // Writers doing read-modify-write increments: their updates force
        // re-merges, which reseal fresh pages into the starved store.
        for w in 0..WRITERS {
            let db = Arc::clone(&db);
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let pause = Arc::clone(&pause);
            let parked = Arc::clone(&parked);
            s.spawn(move || {
                let _release = StopOnUnwind(&stop);
                let mut rng = 0x0dd_ba11u64 ^ (w << 40);
                while !stop.load(Ordering::Relaxed) {
                    if pause.load(Ordering::SeqCst) {
                        parked.fetch_add(1, Ordering::SeqCst);
                        while pause.load(Ordering::SeqCst) && !stop.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                        parked.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(13);
                    let key = (rng >> 17) % KEYS;
                    let mut txn = db.begin_with(lstore::IsolationLevel::RepeatableRead);
                    let ok = t
                        .read(&mut txn, key, &[0])
                        .ok()
                        .flatten()
                        .and_then(|v| t.update(&mut txn, key, &[(0, v[0] + 1)]).ok());
                    match ok {
                        Some(_) => {
                            let _ = db.commit(&mut txn);
                        }
                        None => db.abort(&mut txn),
                    }
                }
            });
        }
        // Saturating scanners: every wide aggregate walks far more pages
        // than the pool can hold, so each pass evicts what the last pass
        // faulted in.
        for _ in 0..2 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let _release = StopOnUnwind(&stop);
                while !stop.load(Ordering::Relaxed) {
                    let ts = t.now();
                    std::hint::black_box(t.sum_as_of(0, ts));
                    std::hint::black_box(t.group_by_sum(1, 0, ts));
                }
            });
        }

        // Frozen-ts ground-truth cross-checks while eviction thrashes.
        for round in 0..12 {
            pause.store(true, Ordering::SeqCst);
            while parked.load(Ordering::SeqCst) < WRITERS {
                assert!(!stop.load(Ordering::SeqCst), "a worker thread died");
                std::thread::yield_now();
            }
            let ts = t.now(); // no transaction in flight at this instant
            pause.store(false, Ordering::SeqCst);

            let par_sum = t.sum_as_of(0, ts);
            let par_count = t.count_as_of(ts);
            let par_rows = t.scan_as_of(&[0, 1], ts);
            // Deterministic at the frozen ts despite pool churn.
            assert_eq!(par_sum, t.sum_as_of(0, ts), "sum stable at frozen ts");

            let mut seq_sum = 0u64;
            let mut seq_count = 0u64;
            let mut seq_rows = Vec::new();
            for k in 0..KEYS {
                if let Some(row) = t
                    .read_one(&ReadRequest::as_of(k, ts).with_columns(vec![0, 1]))
                    .unwrap()
                    .values
                {
                    seq_sum += row[0];
                    seq_count += 1;
                    seq_rows.push((k, row));
                }
            }
            assert_eq!(par_sum, seq_sum, "round {round}: sum == ground truth");
            assert_eq!(par_count, seq_count, "round {round}: count == ground truth");
            assert_eq!(par_rows, seq_rows, "round {round}: rows == ground truth");

            let stats = db.store_stats().unwrap();
            assert!(
                stats.resident <= BUDGET + stats.pinned,
                "round {round}: budget invariant violated: {stats:?}"
            );
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesce: queues drained, scans finished — pin accounting must be
    // exactly zero and the thrash must have actually happened.
    db.drain_merges();
    let final_sum = t.sum_auto(0);
    let per_key: u64 = (0..KEYS)
        .map(|k| t.read_one(&ReadRequest::latest(k)).unwrap().values.unwrap()[0])
        .sum();
    assert_eq!(final_sum, per_key, "scan equals per-key reads after drain");
    // The scans above may have requested merges (a scan asks for the merge
    // of a range whose unmerged records it keeps walking): let them finish.
    db.drain_merges();
    let stats = db.store_stats().unwrap();
    assert_eq!(stats.pinned, 0, "pins returned at quiesce: {stats:?}");
    assert!(
        stats.resident <= BUDGET,
        "no pins → resident within budget: {stats:?}"
    );
    assert!(
        stats.evictions > 0 && stats.faults > 0,
        "the pool must have thrashed for this test to mean anything: {stats:?}"
    );
    db.flush_store().unwrap();
    drop(db);
    std::fs::remove_file(&path).ok();
}

/// The `cold_scan` pair on a quiet table of ≈ 630 sealed pages: a scanner
/// summing a tenth of the rows (columns in rotation, streaming pins) beside
/// a point reader whose keys pile up at the low end, on a pool that holds
/// a hundredth and one that holds half of the pages. A wrong word in a
/// faulted image, a frame lost by the ring or a pin leaked by either path
/// shows as a wrong answer or a gauge that does not come back.
#[test]
fn a_scanner_and_a_skewed_reader_agree_with_memory_on_small_pools() {
    const KEYS: u64 = 20_000;
    const COLS: usize = 4;
    const SCAN_ROWS: u64 = KEYS / 10;
    let value = |k: u64, c: usize| (k.wrapping_mul(0x9E37_79B9) >> 7) % 1000 + c as u64 * 1_000_000;
    for budget in [7u64, 320] {
        let path = std::env::temp_dir().join(format!(
            "lstore-pool-cold-{budget}-{}.pages",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let db = Database::new(
            DbConfig::new()
                .with_pool_threads(2)
                .with_shards(2)
                .with_page_store(path.clone())
                .with_buffer_pool_pages(budget as usize),
        );
        let t = db
            .create_table("cold", &["a", "b", "c", "d"], TableConfig::small())
            .unwrap();
        let rows: Vec<[u64; COLS]> = (0..KEYS)
            .map(|k| std::array::from_fn(|c| value(k, c)))
            .collect();
        for (k, row) in rows.iter().enumerate() {
            t.insert_auto(k as u64, row).unwrap();
        }
        t.merge_all();
        db.drain_merges();
        db.flush_store().unwrap();
        // prefix[c][k] = wrapping sum of column c over keys 0..k.
        let prefix: Vec<Vec<u64>> = (0..COLS)
            .map(|c| {
                let mut acc = 0u64;
                std::iter::once(0)
                    .chain(rows.iter().map(|row| {
                        acc = acc.wrapping_add(row[c]);
                        acc
                    }))
                    .collect()
            })
            .collect();

        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (t, rows, prefix, stop) = (&t, &rows, &prefix, &stop);
            s.spawn(move || {
                let _release = StopOnUnwind(stop);
                let mut rng = 0x5ca7u64;
                for scan in 0..400usize {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(13);
                    let lo = (rng >> 20) % (KEYS - SCAN_ROWS + 1);
                    let col = scan % COLS;
                    let start = t.locate(lo).unwrap();
                    let sum = t.sum_rid_span(start, SCAN_ROWS, col, t.now());
                    let hi = (lo + SCAN_ROWS) as usize;
                    assert_eq!(
                        sum,
                        prefix[col][hi].wrapping_sub(prefix[col][lo as usize]),
                        "budget {budget}: scan {scan} of column {col} from key {lo}"
                    );
                }
            });
            s.spawn(move || {
                let _release = StopOnUnwind(stop);
                let mut rng = 0x9e7du64;
                for _ in 0..3000 {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(17);
                    // The cube of a uniform draw: half the reads fall on
                    // the first eighth of the keys.
                    let u = (rng >> 40) as f64 / (1u64 << 24) as f64;
                    let key = ((u * u * u) * KEYS as f64) as u64;
                    assert_eq!(
                        t.read_one(&ReadRequest::latest(key))
                            .unwrap()
                            .values
                            .unwrap(),
                        rows[key as usize],
                        "budget {budget}: key {key}"
                    );
                }
            });
        });

        let stats = db.store_stats().unwrap();
        assert_eq!(stats.pinned, 0, "budget {budget}: pins returned: {stats:?}");
        assert!(
            stats.resident <= budget,
            "budget {budget}: no pins → resident within budget: {stats:?}"
        );
        assert!(
            stats.evictions > 0 && stats.faults > 0 && stats.hits > 0,
            "budget {budget}: the pool must have been smaller than the table: {stats:?}"
        );
        drop(t);
        drop(db);
        std::fs::remove_file(&path).ok();
    }
}
