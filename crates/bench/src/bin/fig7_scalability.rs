//! Figure 7: transaction throughput vs number of parallel short update
//! transactions, at low / medium / high contention, for L-Store vs
//! In-place Update + History vs Delta + Blocking Merge (one scan thread and
//! one merge thread always running).
//!
//! A shard axis extends the figure with L-Store rows whose table fills four
//! insert ranges at once (`DbConfig::shards`, `threads=T shards=4`
//! labels): the base cross-engine rows always run one insert lane, and the
//! 4-lane rows add an L-Store-only row per thread count.
//!
//! A pool axis (low contention only) adds store-backed L-Store rows
//! (`threads=T pool_pages=B` labels, a 4-page and an unbounded pool):
//! sealed base pages live behind a budgeted page store, so the update path
//! pays for faulting evicted pages back in while it runs.

use std::sync::Arc;

use lstore_baselines::Engine;
use lstore_bench::report::{self, mtxns};
use lstore_bench::run_throughput;
use lstore_bench::setup;
use lstore_bench::workload::Contention;

/// Insert lanes of the `shards=4` L-Store rows (the base rows run one).
const SHARDS: usize = 4;

fn main() {
    for contention in [Contention::Low, Contention::Medium, Contention::High] {
        let config = setup::workload(contention);
        report::header(
            &format!("Figure 7 ({})", contention.label()),
            &format!(
                "throughput (M txns/s) vs update threads; rows={} active={}",
                config.rows,
                contention.active_set(config.rows)
            ),
        );
        let engines = setup::all_engines(&config);
        for threads in setup::thread_sweep() {
            let mut cells = Vec::new();
            for e in &engines {
                let r = run_throughput(e, &config, threads, setup::window(), None, true);
                cells.push((e.name(), mtxns(r.txns_per_sec)));
            }
            let label = format!("threads={threads}");
            let cells_ref: Vec<(&str, String)> =
                cells.iter().map(|(n, v)| (*n, v.clone())).collect();
            report::row(&label, &cells_ref);
        }
        // Insert-lane axis: L-Store only (the baselines have no such
        // knob), one row per thread count.
        let engine: Arc<dyn Engine> = setup::lstore_sharded_engine(&config, SHARDS);
        for threads in setup::thread_sweep() {
            let r = run_throughput(&engine, &config, threads, setup::window(), None, true);
            report::row(
                &format!("threads={threads} shards={SHARDS}"),
                &[("L-Store", mtxns(r.txns_per_sec))],
            );
        }
        drop(engine);
        // Store-backed axis: L-Store only, low contention only — one
        // residency configuration per pool budget is enough to catch an
        // update path that stalls on page faulting; repeating it at the
        // other contention levels would triple the cost of the same
        // signal.
        if matches!(contention, Contention::Low) {
            for budget in setup::POOL_BUDGETS {
                let label = setup::pool_pages_label(budget);
                let path = setup::store_scratch(&format!("fig7-pool-{label}"));
                let engine: Arc<dyn Engine> =
                    setup::lstore_store_engine(&config, path.clone(), budget);
                for threads in setup::thread_sweep() {
                    let r = run_throughput(&engine, &config, threads, setup::window(), None, true);
                    report::row(
                        &format!("threads={threads} pool_pages={label}"),
                        &[("L-Store", mtxns(r.txns_per_sec))],
                    );
                }
                drop(engine);
                std::fs::remove_file(&path).ok();
            }
        }
    }
}
