//! Table 7: single-threaded scan seconds for L-Store vs IUH vs DBM with 16
//! concurrent update threads (low contention, 4K update ranges), plus the
//! engine's `pool_threads` axis: the same L-Store scan fanned out across a
//! unified task pool of each swept width.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lstore::{Database, DbConfig, ReadRequest, TableConfig};
use lstore_baselines::{DbmEngine, Engine, IuhEngine, LStoreEngine};
use lstore_bench::report::{self, secs, secs_fine, speedup};
use lstore_bench::setup;
use lstore_bench::workload::Contention;
use lstore_bench::{run_scan_while_updating, scan_thread_axis};
use lstore_storage::compress::CodecChoice;
use lstore_storage::store::PoolStatsSnapshot;

/// Timed scans per codec and pool cell.
const SCAN_ITERS: usize = 3;

/// Base-page codec policies of the codec axis, every one the engine has.
const CODECS: [(&str, CodecChoice); 5] = [
    ("plain", CodecChoice::None),
    ("rle", CodecChoice::Rle),
    ("dict", CodecChoice::Dictionary),
    ("for", CodecChoice::ForPack),
    ("auto", CodecChoice::Auto),
];

fn main() {
    let config = setup::workload(Contention::Low);
    report::header(
        "Table 7",
        &format!("scan seconds, 16 update threads; rows={}", config.rows),
    );
    let lstore = Arc::new(LStoreEngine::with_config(
        TableConfig::default().with_range_size(4096),
    ));
    let engines: Vec<Arc<dyn Engine>> = vec![
        lstore,
        Arc::new(IuhEngine::new()),
        Arc::new(DbmEngine::default()),
    ];
    let mut results = Vec::new();
    for e in &engines {
        e.populate(config.rows, config.cols);
        let t = run_scan_while_updating(e, &config, 16, 3, Duration::ZERO);
        results.push((e.name(), t));
        report::row(e.name(), &[("scan", secs(t))]);
    }
    report::row(
        "speedups",
        &[
            ("vs IUH", speedup(results[1].1, results[0].1)),
            ("vs DBM", speedup(results[2].1, results[0].1)),
        ],
    );

    // The pool_threads axis: same workload, L-Store only, task-pool width
    // swept (BENCH_POOL_THREADS, default 1,4).
    report::header(
        "Table 7 (scan_threads)",
        &format!(
            "L-Store scan seconds vs task-pool width, 16 update threads; rows={}",
            config.rows
        ),
    );
    let widths = setup::pool_thread_sweep();
    let axis = scan_thread_axis(
        |w| {
            let engine = LStoreEngine::with_configs(
                DbConfig::new().with_pool_threads(w),
                TableConfig::default().with_range_size(4096),
            );
            engine.populate(config.rows, config.cols);
            Arc::new(engine) as Arc<dyn Engine>
        },
        &config,
        &widths,
        16,
        3,
    );
    for &(w, t) in &axis {
        report::row(&format!("scan_threads={w}"), &[("scan", secs(t))]);
    }
    if let (Some(&(_, seq)), Some(&(wmax, par))) = (axis.first(), axis.last()) {
        report::row(
            "pool speedup",
            &[(&format!("x{wmax} vs x{}", axis[0].0), speedup(seq, par))],
        );
    }

    // The codec axis: compressed-columnar kernel execution per base-page
    // codec. The table is loaded with run-structured values
    // (64-long runs, 16 distinct values — the shape dictionary and
    // run-length coding exist for), merged, and left quiescent, so the
    // `kernel` cell isolates the aggregation itself: summing runs / packed
    // words / code frequencies in place.
    report::header(
        "Table 7 (codec)",
        &format!(
            "SUM over one quiesced column, per base-page codec; rows={}",
            config.rows
        ),
    );
    for (name, choice) in CODECS {
        let kernel = time_codec_scan(config.rows, choice, SCAN_ITERS);
        report::row(&format!("codec={name}"), &[("kernel", secs_fine(kernel))]);
    }

    // The pool axis: the same quiesced SUM, but with every sealed base
    // page owned by a budgeted page store (4 frames vs unbounded). A
    // budget below the working set makes each scan pass fault evicted
    // pages back in from disk — that cost is the scan cell. The hit_rate
    // cell is measured over a separate hot-set phase (repeated point
    // reads of a pool-sized key range): a cyclic full scan through a
    // starved pool misses by construction, but the hot set stays resident
    // at every budget, so the cell shows how well eviction respects
    // recency.
    report::header(
        "Table 7 (pool)",
        &format!(
            "SUM over one quiesced store-backed column vs pool budget; rows={}",
            config.rows
        ),
    );
    for budget in setup::POOL_BUDGETS {
        let label = setup::pool_pages_label(budget);
        let (scan, hit_rate) = time_pooled_scan(config.rows, budget, &label, SCAN_ITERS);
        report::row(
            &format!("pool_pages={label}"),
            &[
                ("scan", secs_fine(scan)),
                ("hit_rate", format!("{hit_rate:.3}")),
                ("miss_rate", format!("{:.1}%", (1.0 - hit_rate) * 100.0)),
            ],
        );
    }
}

/// Average seconds per full-column `sum_as_of` over a freshly built,
/// merged, update-free table whose sealed pages live behind a page store
/// budgeted to `budget` frames, plus the pool hit rate over a hot-set
/// point-read phase run after the timed scans.
fn time_pooled_scan(rows: u64, budget: Option<usize>, tag: &str, iters: usize) -> (f64, f64) {
    let path = setup::store_scratch(&format!("table7-pool-{tag}"));
    let mut config = DbConfig::new()
        .with_pool_threads(1)
        .with_shards(1)
        .with_page_store(path.clone());
    if let Some(pages) = budget {
        config = config.with_buffer_pool_pages(pages);
    }
    let db = Database::new(config);
    let t = db
        .create_table("pool", &["v"], TableConfig::default().with_range_size(4096))
        .expect("create pool table");
    for k in 0..rows {
        t.insert_auto(k, &[(k / 64) % 16]).expect("load row");
    }
    t.merge_all();
    let ts = t.now();
    // Warm-up pass doubles as a correctness pin across residency configs.
    let expected = t.sum_as_of(0, ts);
    let start = Instant::now();
    for _ in 0..iters {
        assert_eq!(std::hint::black_box(t.sum_as_of(0, ts)), expected);
    }
    let elapsed = start.elapsed().as_secs_f64() / iters as f64;
    // Hot-set phase: repeated point reads over a key range whose pages fit
    // in even the starved budget. The first keys read the hot pages'
    // image blocks and fault them in on their second touch; every later
    // read must hit, so the rate is high and stable at any
    // budget — unlike the cyclic scan above, which misses every frame of
    // a too-small pool by construction.
    let before = db.store_stats().expect("store configured");
    for _ in 0..8 {
        for k in 0..64u64.min(rows) {
            std::hint::black_box(
                t.read_one(&ReadRequest::as_of(k, ts).with_columns(vec![0]))
                    .expect("hot read")
                    .values,
            );
        }
    }
    let after = db.store_stats().expect("store configured");
    // Block reads (point reads of a page not resident, answered from its
    // image without admitting it) are misses like faults. An unbounded
    // pool never misses during the window: that is a perfect hit rate,
    // not a degenerate cell.
    let hit_rate = PoolStatsSnapshot {
        hits: after.hits - before.hits,
        faults: after.faults - before.faults,
        block_reads: after.block_reads - before.block_reads,
        ..after
    }
    .hit_rate();
    drop(t);
    drop(db);
    std::fs::remove_file(&path).ok();
    (elapsed, hit_rate)
}

/// Average seconds per full-column `sum_as_of` over a freshly built,
/// merged, update-free table whose base pages use `codec`.
fn time_codec_scan(rows: u64, codec: CodecChoice, iters: usize) -> f64 {
    let db = Database::new(DbConfig::new().with_pool_threads(1).with_shards(1));
    let t = db
        .create_table(
            "codec",
            &["v"],
            TableConfig::default()
                .with_codec(codec)
                .with_range_size(4096),
        )
        .expect("create codec table");
    for k in 0..rows {
        t.insert_auto(k, &[(k / 64) % 16]).expect("load row");
    }
    t.merge_all();
    let ts = t.now();
    // Warm-up pass doubles as a correctness pin: the kernel must agree
    // with the values loaded (sixteen 64-long runs per 1024 keys).
    let expected = (0..rows).map(|k| (k / 64) % 16).sum::<u64>();
    assert_eq!(t.sum_as_of(0, ts), expected);
    let start = Instant::now();
    for _ in 0..iters {
        assert_eq!(std::hint::black_box(t.sum_as_of(0, ts)), expected);
    }
    start.elapsed().as_secs_f64() / iters as f64
}
