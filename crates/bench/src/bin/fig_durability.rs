//! Durability axis: committed-transaction throughput under the WAL commit
//! policies — `none` (buffered logging, no fsync), `wal` (fsync the log
//! per commit, §5.1.3's strict setting), and `group` (leader-batched
//! cohort fsyncs, the §6.1 group-commit remark) — per
//! (update threads × table shards) combination. The paper turns logging
//! off for its headline numbers; this figure measures what each level of
//! crash durability costs on top, and what group commit buys back.
//!
//! Cells are named after the durability mode, so the CI gate judges each
//! policy's throughput trajectory as its own group. A derived
//! `group_vs_wal` cell reports the group-commit speedup over per-commit
//! fsync as a gated plain-number metric: its baseline pins the invariant
//! that group commit stays well above plain WAL (a regression of the
//! cohort batching collapses the ratio toward 1 long before either
//! absolute throughput looks alarming on a noisy runner).
//!
//! Env: `BENCH_DURABILITY` picks the modes (default `none,wal,group`),
//! `BENCH_THREADS`/`BENCH_SHARDS` the writer axes; `BENCH_WAL_DIR`
//! overrides where the logs are written (default: a temp dir,
//! removed afterwards — fsync cost depends on the backing device, so CI
//! pins this to the runner's real disk).

use lstore_bench::report;
use lstore_bench::run_throughput;
use lstore_bench::setup;
use lstore_bench::workload::Contention;

fn main() {
    let config = setup::workload(Contention::Low);
    let modes = setup::durability_sweep();
    if modes.is_empty() {
        eprintln!("fig_durability: BENCH_DURABILITY selected no known modes");
        return;
    }
    let wal_dir = std::env::var("BENCH_WAL_DIR")
        .ok()
        .filter(|s| !s.is_empty())
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("lstore-fig-durability-{}", std::process::id()))
        });
    std::fs::create_dir_all(&wal_dir).expect("create wal dir");

    report::header(
        "Durability",
        &format!(
            "commit throughput (txns/s) per durability policy; rows={} modes={}",
            config.rows,
            modes.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(",")
        ),
    );
    for threads in setup::thread_sweep() {
        for &shards in &setup::shard_sweep() {
            let mut cells: Vec<(&str, String)> = Vec::new();
            let mut wal_tps = None;
            let mut group_tps = None;
            for &(mode, durability) in &modes {
                let path = wal_dir.join(format!("t{threads}-s{shards}-{mode}.wal"));
                let engine = setup::lstore_durable_engine(&config, shards, path, durability);
                let engine: std::sync::Arc<dyn lstore_baselines::Engine> = engine;
                // No scan thread: the axis isolates the commit path.
                let r = run_throughput(&engine, &config, threads, setup::window(), None, false);
                cells.push((mode, report::tps(r.txns_per_sec)));
                match mode {
                    "wal" => wal_tps = Some(r.txns_per_sec),
                    "group" => group_tps = Some(r.txns_per_sec),
                    _ => {}
                }
            }
            // The gated group-commit dividend: plain number (not an
            // `…x`-suffixed speedup, which the gate ignores) so the
            // baseline floor pins group ≥ plain WAL.
            if let (Some(wal), Some(group)) = (wal_tps, group_tps) {
                if wal > 0.0 {
                    cells.push(("group_vs_wal", format!("{:.3}", group / wal)));
                }
            }
            report::row(&format!("threads={threads} shards={shards}"), &cells);
        }
    }
    if std::env::var("BENCH_WAL_DIR").is_err() {
        std::fs::remove_dir_all(&wal_dir).ok();
    }
}
