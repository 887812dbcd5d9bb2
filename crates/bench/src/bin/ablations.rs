//! Ablation studies for four of the paper's design choices: update-range
//! size (§4.4), cumulative vs non-cumulative updates (§3.1), base-page
//! codec choice (§4.1.3), merge threshold (Fig. 8 companion).

use std::sync::Arc;

use lstore::TableConfig;
use lstore_baselines::{Engine, LStoreEngine};
use lstore_bench::report::{self, mtxns, secs};
use lstore_bench::setup;
use lstore_bench::workload::Contention;
use lstore_bench::{run_scan_while_updating, run_throughput};
use lstore_storage::compress::CodecChoice;

fn main() {
    let config = setup::workload(Contention::Medium);

    report::header(
        "Ablation A (§4.4)",
        "update-range size vs throughput & scan",
    );
    for range_size in [1usize << 10, 1 << 12, 1 << 14, 1 << 16] {
        let engine = Arc::new(LStoreEngine::with_config(
            TableConfig::default().with_range_size(range_size),
        ));
        engine.populate(config.rows, config.cols);
        let e: Arc<dyn Engine> = engine;
        let thr = run_throughput(&e, &config, 4, setup::window(), None, true);
        let scan = run_scan_while_updating(&e, &config, 4, 3);
        report::row(
            &format!("range=2^{}", range_size.trailing_zeros()),
            &[("Mtxn/s", mtxns(thr.txns_per_sec)), ("scan", secs(scan))],
        );
    }

    report::header("Ablation B (§3.1)", "cumulative vs non-cumulative updates");
    for cumulative in [true, false] {
        let engine = Arc::new(LStoreEngine::with_config(
            TableConfig::default().with_cumulative(cumulative),
        ));
        engine.populate(config.rows, config.cols);
        let e: Arc<dyn Engine> = engine;
        let thr = run_throughput(&e, &config, 4, setup::window(), None, true);
        let scan = run_scan_while_updating(&e, &config, 4, 3);
        report::row(
            if cumulative {
                "cumulative"
            } else {
                "non-cumulative"
            },
            &[("Mtxn/s", mtxns(thr.txns_per_sec)), ("scan", secs(scan))],
        );
    }

    report::header("Ablation C (§4.1.3)", "base-page codec vs scan & footprint");
    for (name, codec) in [
        ("auto", CodecChoice::Auto),
        ("dictionary", CodecChoice::Dictionary),
        ("for-bitpack", CodecChoice::ForPack),
        ("none", CodecChoice::None),
    ] {
        let engine = Arc::new(LStoreEngine::with_config(
            TableConfig::default().with_codec(codec),
        ));
        engine.populate(config.rows, config.cols);
        let table = engine.table();
        let e: Arc<dyn Engine> = engine;
        let scan = run_scan_while_updating(&e, &config, 2, 3);
        report::row(
            name,
            &[
                ("scan", secs(scan)),
                ("base MB", format!("{:.2}", table.base_bytes() as f64 / 1e6)),
            ],
        );
    }

    report::header("Ablation D (Fig. 8)", "merge threshold vs scan latency");
    for threshold in [64usize, 256, 1024, 4096] {
        let engine = Arc::new(LStoreEngine::with_config(
            TableConfig::default().with_merge_threshold(threshold),
        ));
        engine.populate(config.rows, config.cols);
        let e: Arc<dyn Engine> = engine;
        let scan = run_scan_while_updating(&e, &config, 4, 3);
        report::row(&format!("threshold={threshold}"), &[("scan", secs(scan))]);
    }
}
