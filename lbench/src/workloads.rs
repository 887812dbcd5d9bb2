//! The five workloads. Each runs exactly two generator threads from the
//! warm-up to the end of the window, while the main thread samples the
//! engine's counters; every answer is checked against the driver's copy.

use std::net::SocketAddr;
use std::time::Instant;

use lstore::stats::StatsSnapshot;
use lstore::ReadRequest;
use lstore_server::{Client, Reply, ServerStats};
use lstore_storage::store::PoolStatsSnapshot;

use crate::bench::{
    prefix_sums, range_sum, sleep_until, verify_against, Ctx, Loaded, Pacer, Phases, TxnClient,
    Workload, KEYS_PER_REQUEST, PACE_PER_S, PIPELINE_DEPTH, TABLE,
};
use crate::gen::{Row, SplitMix64, Zipfian, COLS};
use crate::stats::{OpLog, Outcome};
use crate::trace::{Name, Span, Tracer};

/// Spans one generator may record (32 bytes each, touched only when used).
const SPAN_CAPACITY: usize = 6_000_000;
/// Every 16th `htap_scan` scan is followed by a scan of column 1 at the
/// same snapshot, and the pair is checked against the transfer invariant.
const INVARIANT_EVERY: u64 = 16;
/// Point reads compared with the driver's copy after the window.
const FINAL_SAMPLE_READS: u64 = 1_000;

/// Engine counters read from outside, before and after the window.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub table: StatsSnapshot,
    pub store: Option<PoolStatsSnapshot>,
    pub server: Option<ServerStats>,
    pub wal_bytes: u64,
    pub store_file_bytes: u64,
    /// `Table::base_bytes`: encoded bytes of the base pages in memory.
    pub base_bytes: u64,
}

impl Counters {
    pub fn read(loaded: &Loaded) -> Counters {
        let len = |p: std::path::PathBuf| std::fs::metadata(p).map_or(0, |m| m.len());
        let wal_bytes = std::fs::read_dir(&loaded.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal"))
            .map(|e| len(e.path()))
            .sum();
        Counters {
            table: loaded.table.stats(),
            store: loaded.db.store_stats(),
            server: loaded.server.as_ref().map(|s| s.stats()),
            wal_bytes,
            store_file_bytes: len(loaded.dir.join("pages")),
            base_bytes: loaded.table.base_bytes() as u64,
        }
    }
}

/// Everything one measured window produced.
pub struct Measured {
    pub phases: Phases,
    /// The workload's primary operation, both generators pooled where both
    /// run it.
    pub primary: OpLog,
    /// Generator 1's operation.
    pub peer: OpLog,
    /// Both generators run one operation, and `primary` holds both.
    pub pooled: bool,
    /// `htap_scan`: how late the paced writer started each transaction, and
    /// how long the transaction itself took.
    pub lateness_ns: Vec<u32>,
    pub service_ns: Vec<u32>,
    /// Span buffers, one per generator thread.
    pub spans: Vec<Vec<Span>>,
    pub before: Counters,
    pub after: Counters,
    /// Largest `Table::unmerged_tail_records` seen at a slice boundary.
    pub backlog_max: u64,
    /// `Database::drain_merges` after the generators stopped.
    pub drain_s: f64,
    /// End-of-window checks against the driver's copy: `(made, wrong)`.
    pub final_checks: (u64, u64),
}

impl Measured {
    /// Pool the window of another set-up of the same workload into this
    /// one: slices and latencies follow each other, counts add up.
    pub fn append(&mut self, other: Measured) {
        self.primary.append(other.primary);
        self.peer.append(other.peer);
        self.lateness_ns.extend(other.lateness_ns);
        self.service_ns.extend(other.service_ns);
        self.final_checks.0 += other.final_checks.0;
        self.final_checks.1 += other.final_checks.1;
    }
}

type GenOut = (OpLog, Tracer);

fn clamp_ns(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Closed loop of short transactions.
fn txn_loop(ctx: &Ctx, phases: &Phases, client: &mut TxnClient) -> GenOut {
    let mut log = OpLog::new(phases.window, (ctx.seconds * 100_000.0) as usize);
    let mut tr = phases.tracer(ctx.clock, SPAN_CAPACITY);
    let end = phases.window.end_ns();
    let mut now = ctx.clock.now_ns();
    while now < end {
        let root = tr.root(Name::Txn, now);
        let outcome = client.txn(&mut tr, root);
        let done = ctx.clock.now_ns();
        tr.end_at(root, done);
        log.finish(outcome, now, done);
        now = done;
    }
    (log, tr)
}

/// Open loop of short transactions at a fixed rate, timed from the due
/// time. Returns the lateness and service time of the transactions that
/// completed inside the window.
fn paced_txn_loop(
    ctx: &Ctx,
    phases: &Phases,
    client: &mut TxnClient,
) -> (GenOut, Vec<u32>, Vec<u32>) {
    let expected = (ctx.seconds * PACE_PER_S as f64 * 1.2) as usize;
    let mut log = OpLog::new(phases.window, expected);
    let mut lateness = Vec::with_capacity(expected);
    let mut service = Vec::with_capacity(expected);
    let mut tr = phases.tracer(ctx.clock, SPAN_CAPACITY);
    let pacer = Pacer {
        first_ns: ctx.clock.now_ns(),
        interval_ns: 1_000_000_000 / PACE_PER_S,
    };
    let end = phases.window.end_ns();
    for i in 0.. {
        let due = pacer.due_ns(i);
        if due >= end {
            break;
        }
        sleep_until(ctx.clock, due);
        let started = ctx.clock.now_ns();
        let root = tr.root(Name::Txn, started);
        let outcome = client.txn(&mut tr, root);
        let done = ctx.clock.now_ns();
        tr.end_at(root, done);
        let paced = pacer.account(i, started, done);
        let outcome = if paced.too_late && outcome == Outcome::Done {
            Outcome::Failed
        } else {
            outcome
        };
        if log.finish(outcome, due, done) {
            lateness.push(clamp_ns(paced.lateness_ns));
            service.push(clamp_ns(done - started));
        }
    }
    ((log, tr), lateness, service)
}

/// Closed loop of range scans over a random contiguous tenth of the keys.
/// `updated`: writers run beside it, so only the transfer invariant can be
/// checked (`prefix` then holds the values at window start); otherwise the
/// table is quiet, columns rotate and every answer is checked exactly.
fn scan_loop(
    ctx: &Ctx,
    phases: &Phases,
    loaded: &Loaded,
    prefix: &[Vec<u64>],
    updated: bool,
) -> GenOut {
    let table = &*loaded.table;
    let mut log = OpLog::new(phases.window, (ctx.seconds * 50_000.0) as usize);
    let mut tr = phases.tracer(ctx.clock, SPAN_CAPACITY);
    let mut rng = SplitMix64::stream(ctx.seed, 10);
    let rows = ctx.sizes.scan_rows();
    let expected = |col: usize, lo: u64| {
        prefix[col][(lo + rows) as usize].wrapping_sub(prefix[col][lo as usize])
    };
    let end = phases.window.end_ns();
    let mut now = ctx.clock.now_ns();
    let mut scans = 0u64;
    while now < end {
        let lo = rng.below(ctx.sizes.rows - rows + 1);
        let col = if updated {
            0
        } else {
            (scans % COLS as u64) as usize
        };
        let ts = table.now();
        let root = tr.root(Name::Scan, now);
        let sum = range_sum(table, &mut tr, root, lo, rows, col, ts);
        let done = ctx.clock.now_ns();
        tr.end_at(root, done);
        let outcome = match sum {
            None => Outcome::Failed,
            Some(s) if !updated && s != expected(col, lo) => Outcome::Wrong,
            Some(_) => Outcome::Done,
        };
        log.finish(outcome, now, done);
        now = done;
        scans += 1;
        if updated && scans.is_multiple_of(INVARIANT_EVERY) {
            // Column 1 at the same snapshot: each row's transfers keep
            // column 0 + column 1 constant, so the two sums must add up to
            // what was loaded whatever was committed in between.
            let root = tr.root(Name::Scan, now);
            let other = range_sum(table, &mut tr, root, lo, rows, 1, ts);
            let done = ctx.clock.now_ns();
            tr.end_at(root, done);
            let outcome = match (sum, other) {
                (Some(a), Some(b))
                    if a.wrapping_add(b) == expected(0, lo).wrapping_add(expected(1, lo)) =>
                {
                    Outcome::Done
                }
                (Some(_), Some(_)) => Outcome::Wrong,
                _ => Outcome::Failed,
            };
            log.finish(outcome, now, done);
            now = done;
        }
    }
    (log, tr)
}

/// Closed loop of latest-version point reads with zipfian (θ = 0.99) keys
/// spread over the key space; every answer is compared with `current`.
fn point_read_loop(ctx: &Ctx, phases: &Phases, loaded: &Loaded, current: &[Row]) -> GenOut {
    let table = &*loaded.table;
    let mut log = OpLog::new(phases.window, (ctx.seconds * 3_000_000.0) as usize);
    let mut tr = phases.tracer(ctx.clock, SPAN_CAPACITY);
    let mut rng = SplitMix64::stream(ctx.seed, 11);
    let zipf = Zipfian::new(ctx.sizes.rows, 0.99);
    let end = phases.window.end_ns();
    let mut now = ctx.clock.now_ns();
    while now < end {
        let key = zipf.scrambled_key(&mut rng, ctx.seed);
        let root = tr.root(Name::Read, now);
        let s = tr.begin(root, Name::TableReadOne);
        let got = table.read_one(&ReadRequest::latest(key));
        tr.end(s);
        let done = ctx.clock.now_ns();
        tr.end_at(root, done);
        let outcome = match got {
            Err(_) => Outcome::Failed,
            Ok(r) if r.values.as_deref() == Some(&current[key as usize][..]) => Outcome::Done,
            Ok(_) => Outcome::Wrong,
        };
        log.finish(outcome, now, done);
        now = done;
    }
    (log, tr)
}

/// One closed-loop connection keeping `PIPELINE_DEPTH` requests of
/// `KEYS_PER_REQUEST` hot keys in flight; every reply is compared with the
/// values set-up left in `current`.
fn multiget_loop(
    ctx: &Ctx,
    phases: &Phases,
    addr: SocketAddr,
    hot: &[u64],
    current: &[Row],
    id: u64,
) -> GenOut {
    struct Flight {
        id: u64,
        sent_ns: u64,
        root: u32,
        picks: [u32; KEYS_PER_REQUEST],
    }
    let mut log = OpLog::new(phases.window, (ctx.seconds * 20_000.0) as usize);
    let mut tr = phases.tracer(ctx.clock, SPAN_CAPACITY);
    let mut rng = SplitMix64::stream(ctx.seed, 20 + id);
    let mut client = Client::connect(addr).expect("connect to the in-process server");
    let mut flights: Vec<Flight> = Vec::with_capacity(PIPELINE_DEPTH);
    let mut keys = [0u64; KEYS_PER_REQUEST];
    let end = phases.window.end_ns();
    let mut now = ctx.clock.now_ns();
    loop {
        while flights.len() < PIPELINE_DEPTH && now < end {
            let picks: [u32; KEYS_PER_REQUEST] =
                std::array::from_fn(|_| rng.below(hot.len() as u64) as u32);
            for (key, &p) in keys.iter_mut().zip(&picks) {
                *key = hot[p as usize];
            }
            let root = tr.root(Name::Req, now);
            let s = tr.begin(root, Name::ClientSendMultiRead);
            let sent = client.send_multi_read(TABLE, &keys, None, None);
            tr.end(s);
            match sent {
                Ok(id) => flights.push(Flight {
                    id,
                    sent_ns: now,
                    root,
                    picks,
                }),
                Err(_) => {
                    tr.end(root);
                    log.finish(Outcome::Failed, now, now);
                }
            }
            now = ctx.clock.now_ns();
        }
        if flights.is_empty() {
            break;
        }
        let waiting_from = now;
        let reply = client.recv();
        now = ctx.clock.now_ns();
        let Ok((id, reply)) = reply else {
            // The connection is gone: everything in flight has failed.
            for f in flights.drain(..) {
                tr.end_at(f.root, now);
                log.finish(Outcome::Failed, f.sent_ns, now);
            }
            break;
        };
        let Some(at) = flights.iter().position(|f| f.id == id) else {
            log.finish(Outcome::Wrong, now, now);
            continue;
        };
        let flight = flights.swap_remove(at);
        tr.record(flight.root, Name::ClientRecv, waiting_from, now);
        tr.end_at(flight.root, now);
        let outcome = match reply {
            Reply::Results(results) => {
                let right = results.len() == KEYS_PER_REQUEST
                    && results.iter().zip(&flight.picks).all(|(r, &p)| {
                        let expected = &current[hot[p as usize] as usize];
                        r.as_ref()
                            .is_ok_and(|r| r.values.as_deref() == Some(&expected[..]))
                    });
                if right {
                    Outcome::Done
                } else {
                    Outcome::Wrong
                }
            }
            Reply::Rejected(_) | Reply::Pong => Outcome::Failed,
        };
        log.finish(outcome, flight.sent_ns, now);
    }
    (log, tr)
}

/// Main thread while the generators run: counters at both ends of the
/// window and the merge backlog at every slice boundary.
fn watch(ctx: &Ctx, phases: &Phases, loaded: &Loaded) -> (Counters, Counters, u64) {
    let w = phases.window;
    sleep_until(ctx.clock, w.start_ns);
    let before = Counters::read(loaded);
    let mut backlog_max = 0;
    for i in 1..=w.slices as u64 {
        sleep_until(ctx.clock, w.start_ns + i * w.slice_ns);
        backlog_max = backlog_max.max(loaded.table.unmerged_tail_records());
    }
    (before, Counters::read(loaded), backlog_max)
}

/// Run `workload` on `loaded` for one window. `current` is the driver's
/// copy of the table; it comes back holding what the engine must hold now.
pub fn measure(
    ctx: &Ctx,
    workload: Workload,
    loaded: &Loaded,
    current: &mut [Row],
    trace: bool,
) -> Measured {
    // Generator inputs that take a moment to build come before the clock
    // of the phases starts.
    let prefix = match workload {
        Workload::HtapScan | Workload::ColdScan => prefix_sums(current),
        _ => Vec::new(),
    };
    let stride = if workload == Workload::HtapScan { 1 } else { 2 };
    let mut clients: Vec<TxnClient> = match workload {
        Workload::OltpUpdate | Workload::DurableCommit | Workload::HtapScan => (0..stride)
            .map(|id| {
                TxnClient::new(
                    (&loaded.db, &loaded.table),
                    SplitMix64::stream(ctx.seed, id),
                    id,
                    stride,
                    current,
                )
            })
            .collect(),
        _ => Vec::new(),
    };
    let addr = loaded.server.as_ref().map(|s| s.local_addr());
    let phases = Phases::starting_now(ctx, trace);
    let (ph, frozen) = (&phases, &*current);

    let mut lateness_ns = Vec::new();
    let mut service_ns = Vec::new();
    let ((log0, tr0), (log1, tr1), (before, after, backlog_max)) = std::thread::scope(|s| {
        let (g0, g1) = match workload {
            Workload::OltpUpdate | Workload::DurableCommit => {
                let (a, b) = clients.split_at_mut(1);
                (
                    s.spawn(move || txn_loop(ctx, ph, &mut a[0])),
                    s.spawn(move || txn_loop(ctx, ph, &mut b[0])),
                )
            }
            Workload::HtapScan => {
                let (late, service, writer) = (&mut lateness_ns, &mut service_ns, &mut clients[0]);
                let prefix = &prefix;
                (
                    s.spawn(move || scan_loop(ctx, ph, loaded, prefix, true)),
                    s.spawn(move || {
                        let (out, l, sv) = paced_txn_loop(ctx, ph, writer);
                        (*late, *service) = (l, sv);
                        out
                    }),
                )
            }
            Workload::ColdScan => {
                let prefix = &prefix;
                (
                    s.spawn(move || scan_loop(ctx, ph, loaded, prefix, false)),
                    s.spawn(move || point_read_loop(ctx, ph, loaded, frozen)),
                )
            }
            Workload::ServeMultiget => {
                let addr = addr.expect("serve_multiget is set up with a server");
                let hot = &loaded.hot;
                (
                    s.spawn(move || multiget_loop(ctx, ph, addr, hot, frozen, 0)),
                    s.spawn(move || multiget_loop(ctx, ph, addr, hot, frozen, 1)),
                )
            }
        };
        let watched = watch(ctx, ph, loaded);
        (
            g0.join().expect("generator 0 panicked"),
            g1.join().expect("generator 1 panicked"),
            watched,
        )
    });

    let t = Instant::now();
    loaded.db.drain_merges();
    let drain_s = t.elapsed().as_secs_f64();
    for c in &clients {
        c.store_into(current);
    }
    let final_checks = verify_against(&loaded.table, current, ctx.seed, FINAL_SAMPLE_READS);

    let same_op = matches!(
        workload,
        Workload::OltpUpdate | Workload::DurableCommit | Workload::ServeMultiget
    );
    let mut primary = log0;
    if same_op {
        primary.absorb(&log1);
    }
    Measured {
        phases,
        primary,
        peer: log1,
        pooled: same_op,
        lateness_ns,
        service_ns,
        spans: vec![tr0.into_spans(), tr1.into_spans()],
        before,
        after,
        backlog_max,
        drain_s,
        final_checks,
    }
}
