//! Table 9: point-query throughput (M txns/s) vs percentage of columns
//! fetched, L-Store (Column) vs L-Store (Row). Each transaction issues 10
//! point reads.
//!
//! A second section measures the **batched** point-read path
//! (`Table::read_batch` behind `Engine::multi_point_read`) at batch sizes
//! 1 and 64, at 100% of columns: the rows read directly as "what does
//! sorting a 64-key batch buy over one key at a time".

use std::sync::Arc;
use std::time::Instant;

use lstore::RowTable;
use lstore_baselines::engine::seed;
use lstore_baselines::Engine;
use lstore_bench::report::{self, mtxns};
use lstore_bench::setup;
use lstore_bench::workload::Contention;

/// Point reads per measured cell.
const POINT_ITERS: u64 = 20_000;

/// Keys per batched read: the per-key baseline vs a 64-key batch.
const BATCH_SIZES: [usize; 2] = [1, 64];

fn main() {
    let config = setup::workload(Contention::Low);
    report::header(
        "Table 9",
        &format!(
            "point-query throughput vs %columns read (10 reads/txn); rows={}",
            config.rows
        ),
    );
    let col_engine = setup::lstore_engine(&config);
    let row = Arc::new(RowTable::new(config.cols, 4096));
    let mut values = vec![0u64; config.cols];
    for k in 0..config.rows {
        for (c, v) in values.iter_mut().enumerate() {
            *v = seed(k, c);
        }
        row.insert(k, &values).unwrap();
    }
    for pct in [10usize, 20, 40, 80, 100] {
        let ncols = ((config.cols * pct) as f64 / 100.0).round().max(1.0) as usize;
        let cols: Vec<usize> = (0..ncols).collect();
        // Column layout.
        let start = Instant::now();
        for i in 0..POINT_ITERS {
            let k = (i * 7919) % config.rows;
            std::hint::black_box(col_engine.point_read(k, &cols));
        }
        // 10 reads per transaction.
        let col_tps = (POINT_ITERS as f64 / 10.0) / start.elapsed().as_secs_f64();
        // Row layout.
        let start = Instant::now();
        for i in 0..POINT_ITERS {
            let k = (i * 7919) % config.rows;
            std::hint::black_box(row.read(k, &cols).unwrap());
        }
        let row_tps = (POINT_ITERS as f64 / 10.0) / start.elapsed().as_secs_f64();
        report::row(
            &format!("{pct}% of columns"),
            &[("column", mtxns(col_tps)), ("row", mtxns(row_tps))],
        );
    }

    // Batched multi-key point reads: same keys, same access pattern,
    // grouped `batch` keys at a time.
    report::header(
        "Table 9 (batched)",
        &format!(
            "batched point-read throughput (M txns/s, 10 reads/txn) vs batch size; rows={}",
            config.rows
        ),
    );
    let cols: Vec<usize> = (0..config.cols).collect();
    for batch in BATCH_SIZES {
        let mut keys = Vec::with_capacity(batch);
        let mut done = 0u64;
        let start = Instant::now();
        while done < POINT_ITERS {
            keys.clear();
            for i in 0..batch as u64 {
                keys.push(((done + i) * 7919) % config.rows);
            }
            std::hint::black_box(col_engine.multi_point_read(&keys, &cols));
            done += batch as u64;
        }
        let tps = (done as f64 / 10.0) / start.elapsed().as_secs_f64();
        report::row(&format!("batch={batch}"), &[("column", mtxns(tps))]);
    }
}
