//! Figure 8: single-threaded scan execution time vs the number of tail
//! records processed per merge (merge-lag sensitivity), with concurrent
//! update threads (`BENCH_THREADS`, default 4 and 16 as in the paper) —
//! swept across unified task-pool widths (`BENCH_POOL_THREADS`, default
//! 1,4), so the merge-lag curve is visible both for sequential scans and
//! for pool-parallel scans.
//!
//! Each cell reports two metrics:
//! * `scan` — mean seconds per full-active-set scan under the churn;
//! * `merge_drain` — seconds to fully consolidate the table once the
//!   writers stop: drain the per-shard merge queues, then `merge_all` the
//!   remainder. This measures how well background merging kept up with the
//!   mixed merge+scan load — the merge-completion half of Fig. 8.

use std::sync::Arc;
use std::time::Instant;

use lstore::{DbConfig, TableConfig};
use lstore_baselines::{Engine, LStoreEngine};
use lstore_bench::report::{self, secs};
use lstore_bench::run_scan_while_updating;
use lstore_bench::setup;
use lstore_bench::workload::Contention;

/// Tail records per merge trigger, swept.
const MERGE_BATCHES: [usize; 5] = [256, 512, 1024, 2048, 4096];

fn main() {
    let config = setup::workload(Contention::Low);
    report::header(
        "Figure 8",
        &format!(
            "scan seconds vs tail records per merge (range=4096); rows={}",
            config.rows
        ),
    );
    for pool_threads in setup::pool_thread_sweep() {
        for threads in setup::fig8_thread_sweep() {
            for merge_batch in MERGE_BATCHES {
                let table_config = TableConfig::default()
                    .with_range_size(4096)
                    .with_merge_threshold(merge_batch);
                let engine = Arc::new(LStoreEngine::with_configs(
                    DbConfig::new().with_pool_threads(pool_threads),
                    table_config,
                ));
                engine.populate(config.rows, config.cols);
                let db = Arc::clone(engine.database());
                let table = engine.table();
                let e: Arc<dyn Engine> = engine;
                let t = run_scan_while_updating(&e, &config, threads, 3);
                // Merge completion: queued merge jobs finish on the pool,
                // then a synchronous sweep consolidates the sub-threshold
                // remainder.
                let drain_start = Instant::now();
                db.drain_merges();
                table.merge_all();
                let drain = drain_start.elapsed().as_secs_f64();
                report::row(
                    &format!("st={pool_threads} threads={threads} M={merge_batch}"),
                    &[("scan", secs(t)), ("merge_drain", secs(drain))],
                );
            }
        }
    }
}
