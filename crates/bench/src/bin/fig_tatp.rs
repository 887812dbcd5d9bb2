//! TATP-style contention figure: committed throughput **and abort rate**
//! of short point transactions over zipfian hot keys, per (worker threads
//! × task-pool width) combination — the contention face of the §1
//! motivating scenarios, where the §5.1.1 commit path (batched validation,
//! batched write application) earns its keep.
//!
//! Three workloads per row, all drawing keys from one Zipfian(θ = 0.99)
//! distribution over the whole table:
//!
//! * **tatp** — a TATP-shaped mix: 80% read transactions
//!   (`Transaction::multi_read` of 4 keys under snapshot isolation) and
//!   20% read-modify-write transactions (read one hot key, update it,
//!   repeatable-read so commit-time validation arbitrates the conflicts).
//! * **fraud_rmw** — the `examples/fraud_detection.rs` authorization loop
//!   scaled up: every transaction batch-reads an 8-key "fraud ring"
//!   around the charged card, then updates the card's running window —
//!   an RMW whose read set is wide enough to make batched validation and
//!   the batched read join visible.
//! * **multi_read_64 / per_key_64** — the tentpole criterion: one
//!   read-only transaction per iteration touching 64 zipfian keys, once
//!   through `Transaction::multi_read` (planner + pool fan-out + read-set
//!   join) and once as a per-key `Table::read` loop. `batched_speedup`
//!   is their ratio; above 1 at pool ≥ 2 means transactional batching
//!   pays for its planning.
//!
//! The `*_commit_ratio` cells are committed / attempted transactions
//! (higher is better): the share of each workload's attempts that
//! survives conflicts and commit-time validation. Raw abort rates ride
//! along as `…/s` cells.
//!
//! Env: `BENCH_THREADS` × `BENCH_POOL_THREADS` pick the axes, `BENCH_ROWS`
//! the table size, `BENCH_SECONDS` the window per workload cell.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lstore::{Database, Error, IsolationLevel, Table, TransactionReads};
use lstore_bench::workload::{Contention, Zipfian};
use lstore_bench::{report, setup};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Keys per TATP read transaction (GET_SUBSCRIBER_DATA-style lookups).
const TATP_READ_KEYS: usize = 4;
/// Keys batch-read per fraud authorization (the "fraud ring" check).
const FRAUD_RING: usize = 8;
/// Keys per tentpole batched-vs-per-key read transaction.
const BATCH_KEYS: usize = 64;

/// Committed / aborted transaction counts from one measurement window.
#[derive(Default, Clone, Copy)]
struct Counts {
    commits: u64,
    aborts: u64,
}

impl Counts {
    fn attempted(&self) -> u64 {
        self.commits + self.aborts
    }

    fn ratio(&self) -> f64 {
        if self.attempted() == 0 {
            1.0
        } else {
            self.commits as f64 / self.attempted() as f64
        }
    }
}

/// Drive `body` from `threads` closed-loop workers for `window`, each with
/// a deterministic per-thread RNG (`salt` keeps the three workloads on
/// distinct streams), and return the summed counts plus the elapsed time.
fn run_window<F>(threads: usize, window: Duration, salt: u64, body: F) -> (Counts, f64)
where
    F: Fn(&mut SmallRng, &mut Counts) + Sync,
{
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut total = Counts::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                let stop = &stop;
                let body = &body;
                s.spawn(move || {
                    let mut rng =
                        SmallRng::seed_from_u64(0x7A79_0000 ^ salt ^ t.wrapping_mul(0x9E37_79B9));
                    let mut counts = Counts::default();
                    while !stop.load(Ordering::Relaxed) {
                        body(&mut rng, &mut counts);
                    }
                    counts
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let c = h.join().expect("worker panicked");
            total.commits += c.commits;
            total.aborts += c.aborts;
        }
    });
    (total, start.elapsed().as_secs_f64())
}

/// One read-modify-write attempt on `key` under repeatable read: read the
/// running window, bump it. Commit-time validation (or a write conflict)
/// turns concurrent attempts on the same hot key into aborts.
fn rmw(db: &Database, table: &Table, key: u64, counts: &mut Counts) {
    let mut txn = db.begin_with(IsolationLevel::RepeatableRead);
    let attempt = (|| -> lstore::Result<()> {
        let row = table
            .read(&mut txn, key, &[0])?
            .ok_or(Error::KeyNotFound(key))?;
        table.update(&mut txn, key, &[(0, row[0].wrapping_add(1))])?;
        Ok(())
    })();
    match attempt {
        Ok(()) => {
            if db.commit(&mut txn).is_ok() {
                counts.commits += 1;
            } else {
                counts.aborts += 1;
            }
        }
        Err(_) => {
            db.abort(&mut txn);
            counts.aborts += 1;
        }
    }
}

/// The scaled fraud authorization: batch-read the ring, then RMW the card.
fn fraud_txn(
    db: &Database,
    table: &Table,
    zipf: &Zipfian,
    rng: &mut SmallRng,
    counts: &mut Counts,
) {
    let card = zipf.sample(rng);
    let mut ring = Vec::with_capacity(FRAUD_RING);
    ring.push(card);
    while ring.len() < FRAUD_RING {
        ring.push(zipf.sample(rng));
    }
    let mut txn = db.begin_with(IsolationLevel::RepeatableRead);
    let attempt = (|| -> lstore::Result<()> {
        let rows = txn.multi_read_cols(table, &ring, &[0, 1]);
        let mut ring_spend = 0u64;
        let mut card_state = None;
        for (i, row) in rows.into_iter().enumerate() {
            if let Some(values) = row? {
                if i == 0 {
                    card_state = Some([values[0], values[1]]);
                }
                ring_spend = ring_spend.wrapping_add(values[1]);
            }
        }
        let state = card_state.ok_or(Error::KeyNotFound(card))?;
        table.update(
            &mut txn,
            card,
            &[
                (0, state[0] + 1),
                (1, state[1].wrapping_add(ring_spend % 1000)),
            ],
        )?;
        Ok(())
    })();
    match attempt {
        Ok(()) => {
            if db.commit(&mut txn).is_ok() {
                counts.commits += 1;
            } else {
                counts.aborts += 1;
            }
        }
        Err(_) => {
            db.abort(&mut txn);
            counts.aborts += 1;
        }
    }
}

fn main() {
    let config = setup::workload(Contention::Low);
    let window = setup::window();
    report::header(
        "TATP",
        &format!(
            "committed txns/s and abort rate over zipfian hot keys; rows={} theta=0.99",
            config.rows
        ),
    );
    let zipf = Zipfian::new(config.rows, 0.99);
    let all_cols: Vec<usize> = (0..config.cols).collect();

    for threads in setup::thread_sweep() {
        for pool in setup::pool_thread_sweep() {
            let engine = setup::lstore_contention_engine(&config, pool);
            let db: Arc<Database> = engine.database().clone();
            let table = engine.table();
            // Pre-update a fifth of the table so point reads walk real tail
            // chains instead of resolving on merged base pages.
            for key in (0..config.rows).step_by(5) {
                table
                    .update_auto(key, &[(0, key + 1), (3, 7)])
                    .expect("pre-update");
            }

            // --- TATP mix: 80% 4-key read txns, 20% single-key RMW txns.
            let (tatp, tatp_secs) = run_window(threads, window, 0x7A7, |rng, counts| {
                if rng.random_bool(0.8) {
                    let keys: Vec<u64> = (0..TATP_READ_KEYS).map(|_| zipf.sample(rng)).collect();
                    let mut txn = db.begin_with(IsolationLevel::Snapshot);
                    let ok = txn.multi_read(&table, &keys).into_iter().all(|r| r.is_ok());
                    if ok && db.commit(&mut txn).is_ok() {
                        counts.commits += 1;
                    } else {
                        db.abort(&mut txn);
                        counts.aborts += 1;
                    }
                } else {
                    rmw(&db, &table, zipf.sample(rng), counts);
                }
            });

            // --- Scaled fraud_detection: ring check + card RMW.
            let (fraud, fraud_secs) = run_window(threads, window, 0xF4A0D, |rng, counts| {
                fraud_txn(&db, &table, &zipf, rng, counts);
            });

            // --- Tentpole criterion: 64-key read txns, batched vs per-key.
            let (multi, multi_secs) = run_window(threads, window, 0xBA7C4, |rng, counts| {
                let keys: Vec<u64> = (0..BATCH_KEYS).map(|_| zipf.sample(rng)).collect();
                let mut txn = db.begin_with(IsolationLevel::Snapshot);
                let ok = txn.multi_read(&table, &keys).into_iter().all(|r| r.is_ok());
                if ok && db.commit(&mut txn).is_ok() {
                    counts.commits += 1;
                } else {
                    db.abort(&mut txn);
                    counts.aborts += 1;
                }
            });
            let (per_key, per_key_secs) = run_window(threads, window, 0x9E44, |rng, counts| {
                let keys: Vec<u64> = (0..BATCH_KEYS).map(|_| zipf.sample(rng)).collect();
                let mut txn = db.begin_with(IsolationLevel::Snapshot);
                let mut ok = true;
                for &key in &keys {
                    if table.read(&mut txn, key, &all_cols).is_err() {
                        ok = false;
                        break;
                    }
                }
                if ok && db.commit(&mut txn).is_ok() {
                    counts.commits += 1;
                } else {
                    db.abort(&mut txn);
                    counts.aborts += 1;
                }
            });

            let multi_tps = multi.commits as f64 / multi_secs;
            let per_key_tps = per_key.commits as f64 / per_key_secs;
            report::row(
                &format!("threads={threads} pool={pool}"),
                &[
                    ("tatp", report::tps(tatp.commits as f64 / tatp_secs)),
                    ("tatp_commit_ratio", format!("{:.3}", tatp.ratio())),
                    (
                        "tatp_aborts",
                        format!("{:.0}/s", tatp.aborts as f64 / tatp_secs),
                    ),
                    ("fraud_rmw", report::tps(fraud.commits as f64 / fraud_secs)),
                    ("fraud_commit_ratio", format!("{:.3}", fraud.ratio())),
                    (
                        "fraud_aborts",
                        format!("{:.0}/s", fraud.aborts as f64 / fraud_secs),
                    ),
                    ("multi_read_64", report::tps(multi_tps)),
                    ("per_key_64", report::tps(per_key_tps)),
                    ("batched_speedup", report::speedup(multi_tps, per_key_tps)),
                ],
            );
        }
    }
}
