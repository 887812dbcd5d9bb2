//! Shared experiment setup: engine construction and environment knobs.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use lstore::{DbConfig, TableConfig};
use lstore_baselines::{DbmEngine, Engine, IuhEngine, LStoreEngine};

use crate::workload::{Contention, WorkloadConfig};

/// Rows for full-table experiments (env `BENCH_ROWS`, default 100k —
/// laptop-scale stand-in for the paper's 10M active set).
pub fn rows() -> u64 {
    std::env::var("BENCH_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000)
}

/// Measurement window per data point (env `BENCH_SECONDS`, default 1.0).
pub fn window() -> Duration {
    let s: f64 = std::env::var("BENCH_SECONDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    Duration::from_secs_f64(s)
}

/// Thread counts to sweep (env `BENCH_THREADS`, comma-separated).
pub fn thread_sweep() -> Vec<usize> {
    usize_list("BENCH_THREADS").unwrap_or_else(|| vec![1, 2, 4, 8])
}

/// Update-thread counts for the fig8 merge-lag experiment: `BENCH_THREADS`
/// when set, else the paper's 4 and 16 concurrent update threads.
pub fn fig8_thread_sweep() -> Vec<usize> {
    usize_list("BENCH_THREADS").unwrap_or_else(|| vec![4, 16])
}

/// Parse a comma-separated usize list from the environment.
fn usize_list(name: &str) -> Option<Vec<usize>> {
    std::env::var(name)
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
}

/// Unified task-pool widths to sweep (env `BENCH_POOL_THREADS`,
/// comma-separated; default `1,4` — sequential baseline vs a 4-wide pool).
pub fn pool_thread_sweep() -> Vec<usize> {
    usize_list("BENCH_POOL_THREADS").unwrap_or_else(|| vec![1, 4])
}

/// Buffer-pool page budgets of the Table 7 / fig7 pool axes: a starved
/// 4-page pool that must fault pages back from the store on every pass vs
/// the keep-everything-resident configuration (`None` = unbounded).
pub const POOL_BUDGETS: [Option<usize>; 2] = [Some(4), None];

/// Row-label fragment for a pool budget: the page count, or `inf` for
/// unbounded.
pub fn pool_pages_label(budget: Option<usize>) -> String {
    budget.map_or_else(|| "inf".into(), |b| b.to_string())
}

/// Fresh page-store path for one bench engine, deleted first so every run
/// starts from a cold store (a reused file would replay stale pages into
/// the measurement).
pub fn store_scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lstore-bench-store");
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{tag}-{}.pages", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

/// Build a populated engine of each architecture for `config`.
pub fn all_engines(config: &WorkloadConfig) -> Vec<Arc<dyn Engine>> {
    let engines: Vec<Arc<dyn Engine>> = vec![
        Arc::new(LStoreEngine::new()),
        Arc::new(IuhEngine::new()),
        Arc::new(DbmEngine::default()),
    ];
    for e in &engines {
        e.populate(config.rows, config.cols);
    }
    engines
}

/// Build one populated L-Store engine.
pub fn lstore_engine(config: &WorkloadConfig) -> Arc<LStoreEngine> {
    let e = Arc::new(LStoreEngine::new());
    e.populate(config.rows, config.cols);
    e
}

/// Build one populated L-Store engine whose table is key-range sharded
/// `shards` ways (scans stay sequential, as in the cross-engine setting, so
/// the axis isolates writer-side scaling).
pub fn lstore_sharded_engine(config: &WorkloadConfig, shards: usize) -> Arc<LStoreEngine> {
    let e = Arc::new(LStoreEngine::with_configs(
        DbConfig::new().with_pool_threads(1).with_shards(shards),
        TableConfig::default(),
    ));
    e.populate(config.rows, config.cols);
    e
}

/// Build one populated L-Store engine whose sealed base pages live behind
/// a page store budgeted to `pool_pages` frames (`None` = unbounded).
/// Without the store, bench setup keeps whole-table page vectors
/// heap-resident forever and an eviction measurement measures nothing;
/// here every merged page is owned by the store, so a budget below the
/// working set forces real faults during the measured window.
pub fn lstore_store_engine(
    config: &WorkloadConfig,
    store_path: PathBuf,
    pool_pages: Option<usize>,
) -> Arc<LStoreEngine> {
    let mut db = DbConfig::new()
        .with_pool_threads(1)
        .with_shards(1)
        .with_page_store(store_path);
    if let Some(pages) = pool_pages {
        db = db.with_buffer_pool_pages(pages);
    }
    let e = Arc::new(LStoreEngine::with_configs(db, TableConfig::default()));
    e.populate(config.rows, config.cols);
    e
}

/// Build one populated L-Store engine for the fig_serve runner: a
/// `pool_threads`-wide task pool, one shard, background merge and
/// cumulative updates off. The serving figure pre-updates its hot set and
/// needs the resulting tail chains to *stay* — a cross-connection batch
/// resolves each expensive chain-walking read once, and a background merge
/// consolidating mid-run would turn the axis into a race against the
/// merge queue.
pub fn lstore_serving_engine(config: &WorkloadConfig, pool_threads: usize) -> Arc<LStoreEngine> {
    let e = Arc::new(LStoreEngine::with_configs(
        DbConfig {
            background_merge: false,
            ..DbConfig::new()
                .with_pool_threads(pool_threads)
                .with_shards(1)
        },
        TableConfig::default().with_cumulative(false),
    ));
    e.populate(config.rows, config.cols);
    e
}

/// Build one populated L-Store engine for the fig_tatp contention runner:
/// a `pool_threads`-wide task pool, one shard, background merge and
/// cumulative updates off (the runner pre-updates its rows and measures
/// reads that walk the resulting tail chains, like the serving figure),
/// and a lowered `batch_read_min` of 4 so the runner's 64-key
/// transactional batches cut into several parallel units even at modest
/// pool widths (the default floor of 16 would keep a 64-key batch in one
/// inline unit and hide the fan-out entirely).
pub fn lstore_contention_engine(config: &WorkloadConfig, pool_threads: usize) -> Arc<LStoreEngine> {
    let e = Arc::new(LStoreEngine::with_configs(
        DbConfig {
            background_merge: false,
            ..DbConfig::new()
                .with_pool_threads(pool_threads)
                .with_shards(1)
                .with_batch_read_min(4)
        },
        TableConfig::default().with_cumulative(false),
    ));
    e.populate(config.rows, config.cols);
    e
}

/// Build one populated L-Store engine with a `pool_threads`-wide unified
/// task pool and a single key-range shard: the Table 9 batched-read axis
/// varies only read-side fan-out, so writer sharding is pinned off.
pub fn lstore_pooled_engine(config: &WorkloadConfig, pool_threads: usize) -> Arc<LStoreEngine> {
    let e = Arc::new(LStoreEngine::with_configs(
        DbConfig::new()
            .with_pool_threads(pool_threads)
            .with_shards(1),
        TableConfig::default(),
    ));
    e.populate(config.rows, config.cols);
    e
}

/// Workload config at the requested contention, rows from env.
pub fn workload(contention: Contention) -> WorkloadConfig {
    WorkloadConfig {
        rows: rows(),
        contention,
        ..WorkloadConfig::default()
    }
}
