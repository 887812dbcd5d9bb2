//! Multi-threaded measurement harness.
//!
//! Mirrors the §6.1 setup: "transactional throughput of these schemes are
//! evaluated while running (at least) one scan thread and one merge thread
//! to create the real-time OLTP and OLAP scenario."

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lstore_baselines::Engine;

use crate::workload::{Workload, WorkloadConfig};

/// Result of a throughput run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Committed update transactions per second (all threads).
    pub txns_per_sec: f64,
    /// Aborted transactions per second.
    pub aborts_per_sec: f64,
    /// Scans completed by the concurrent scan thread.
    pub scans_completed: u64,
}

/// Run `threads` update-transaction threads for `duration`, with one
/// concurrent scan thread and one merge/maintenance thread (the paper's
/// default scenario). `read_fraction` optionally overrides the 8r/2w mix.
pub fn run_throughput(
    engine: &Arc<dyn Engine>,
    config: &WorkloadConfig,
    threads: usize,
    duration: Duration,
    read_fraction: Option<f64>,
    with_scan_thread: bool,
) -> ThroughputResult {
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let scans = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Update threads.
        for t in 0..threads {
            let engine = Arc::clone(engine);
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&committed);
            let aborted = Arc::clone(&aborted);
            let mut wl = Workload::new(config.clone(), t as u64);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let txn = wl.next_txn(read_fraction);
                    if engine.update_transaction(&txn.reads, &txn.writes) {
                        committed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Scan thread (snapshot SUM over 10% of the table).
        if with_scan_thread {
            let engine = Arc::clone(engine);
            let stop = Arc::clone(&stop);
            let scans = Arc::clone(&scans);
            let mut wl = Workload::new(config.clone(), 10_001);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let (lo, hi) = wl.scan_interval(0.1);
                    std::hint::black_box(engine.scan_sum(0, lo, hi));
                    scans.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Merge / maintenance thread.
        {
            let engine = Arc::clone(engine);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if !engine.maintain() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });

    let secs = duration.as_secs_f64();
    ThroughputResult {
        txns_per_sec: committed.load(Ordering::Relaxed) as f64 / secs,
        aborts_per_sec: aborted.load(Ordering::Relaxed) as f64 / secs,
        scans_completed: scans.load(Ordering::Relaxed),
    }
}

/// Result of a mixed OLTP/OLAP run (Fig. 10).
#[derive(Debug, Clone, Copy)]
pub struct MixedResult {
    /// Committed short update transactions per second.
    pub update_txns_per_sec: f64,
    /// Completed long read-only transactions (10% scans) per second.
    pub read_txns_per_sec: f64,
}

/// Run a fixed population of `update_threads` + `scan_threads` concurrent
/// transactions (the paper fixes the total at 17 and varies the split).
pub fn run_mixed(
    engine: &Arc<dyn Engine>,
    config: &WorkloadConfig,
    update_threads: usize,
    scan_threads: usize,
    duration: Duration,
) -> MixedResult {
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    let scans = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..update_threads {
            let engine = Arc::clone(engine);
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&committed);
            let mut wl = Workload::new(config.clone(), t as u64);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let txn = wl.next_txn(None);
                    if engine.update_transaction(&txn.reads, &txn.writes) {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        for t in 0..scan_threads {
            let engine = Arc::clone(engine);
            let stop = Arc::clone(&stop);
            let scans = Arc::clone(&scans);
            let mut wl = Workload::new(config.clone(), 20_000 + t as u64);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let (lo, hi) = wl.scan_interval(0.1);
                    std::hint::black_box(engine.scan_sum(0, lo, hi));
                    scans.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        {
            let engine = Arc::clone(engine);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if !engine.maintain() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    let secs = duration.as_secs_f64();
    MixedResult {
        update_txns_per_sec: committed.load(Ordering::Relaxed) as f64 / secs,
        read_txns_per_sec: scans.load(Ordering::Relaxed) as f64 / secs,
    }
}

/// Sweep scan worker-pool widths for one engine family: `build(width)`
/// constructs and populates an engine whose scans fan out across `width`
/// threads; each variant's mean full-scan seconds are measured under
/// `update_threads` concurrent writers (the `scan_threads` axis of Fig. 8 /
/// Table 7). Returns `(width, mean_scan_seconds)` in sweep order.
pub fn scan_thread_axis<B>(
    build: B,
    config: &WorkloadConfig,
    widths: &[usize],
    update_threads: usize,
    scan_iterations: usize,
) -> Vec<(usize, f64)>
where
    B: Fn(usize) -> Arc<dyn Engine>,
{
    widths
        .iter()
        .map(|&w| {
            let engine = build(w);
            let secs = run_scan_while_updating(
                &engine,
                config,
                update_threads,
                scan_iterations,
                Duration::ZERO,
            );
            (w, secs)
        })
        .collect()
}

/// Measure single-threaded scan latency while `update_threads` writers run
/// (Fig. 8 / Table 7): returns mean seconds per full-active-set scan. The
/// writers run for `churn` before the first (warm-up) scan, so the scans
/// meet the backlog that much churn leaves behind.
pub fn run_scan_while_updating(
    engine: &Arc<dyn Engine>,
    config: &WorkloadConfig,
    update_threads: usize,
    scan_iterations: usize,
    churn: Duration,
) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let mut mean = 0.0;
    std::thread::scope(|s| {
        for t in 0..update_threads {
            let engine = Arc::clone(engine);
            let stop = Arc::clone(&stop);
            let mut wl = Workload::new(config.clone(), t as u64);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let txn = wl.next_txn(None);
                    std::hint::black_box(engine.update_transaction(&txn.reads, &txn.writes));
                }
            });
        }
        {
            let engine = Arc::clone(engine);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if !engine.maintain() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
        }
        std::thread::sleep(churn);
        // Warm-up.
        std::hint::black_box(engine.scan_sum(0, 0, config.rows - 1));
        let start = Instant::now();
        for _ in 0..scan_iterations {
            std::hint::black_box(engine.scan_sum(0, 0, config.rows - 1));
        }
        mean = start.elapsed().as_secs_f64() / scan_iterations as f64;
        stop.store(true, Ordering::Relaxed);
    });
    mean
}
