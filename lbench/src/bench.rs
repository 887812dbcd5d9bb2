//! What every workload shares: sizes, set-up, the driver's copy of the
//! table, the short transaction, the range scan and the open-loop pacer.
//! The engine is driven only through public functions of `lstore` and
//! `lstore-server`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use lstore::{Database, DbConfig, Durability, ReadRequest, Table, TableConfig};
use lstore_server::{Server, ServerConfig};

use crate::gen::{apply_update, plan_update, Row, SplitMix64, COLS};
use crate::stats::{Outcome, Window};
use crate::trace::{Clock, Name, Tracer, When};

pub const TABLE: &str = "bench";
pub const ALL_COLS: [usize; COLS] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
/// Bytes of user data per row (the key is not counted).
pub const ROW_BYTES: u64 = 8 * COLS as u64;
/// Keys per `MULTI_READ` request and requests in flight per connection.
pub const KEYS_PER_REQUEST: usize = 64;
pub const PIPELINE_DEPTH: usize = 4;
/// Slices the measuring window is cut into.
pub const SLICES: usize = 20;
/// Rows per insert transaction while loading.
const LOAD_BATCH: u64 = 8192;
/// Updates each hot key of `serve_multiget` receives before the merge.
const HOT_KEY_UPDATES: usize = 8;
/// Short transactions per second the `htap_scan` writer is paced at.
pub const PACE_PER_S: u64 = 10_000;
/// An open-loop transaction that starts later than this has failed.
pub const LATE_LIMIT_NS: u64 = 100_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OltpUpdate,
    HtapScan,
    ColdScan,
    DurableCommit,
    ServeMultiget,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::OltpUpdate,
        Workload::HtapScan,
        Workload::ColdScan,
        Workload::DurableCommit,
        Workload::ServeMultiget,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpUpdate => "oltp_update",
            Workload::HtapScan => "htap_scan",
            Workload::ColdScan => "cold_scan",
            Workload::DurableCommit => "durable_commit",
            Workload::ServeMultiget => "serve_multiget",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the two generator threads do, for the printed header.
    pub fn shape(self) -> &'static str {
        match self {
            Workload::OltpUpdate => "2 closed-loop clients, short transactions, no WAL",
            Workload::HtapScan => "1 closed-loop 10% range scanner beside 1 open-loop paced writer",
            Workload::ColdScan => {
                "1 closed-loop 10% range scanner beside 1 closed-loop zipfian point reader, \
                 page store with a small pool"
            }
            Workload::DurableCommit => {
                "2 closed-loop clients, short transactions, WAL with group commit 200us/64"
            }
            Workload::ServeMultiget => {
                "2 closed-loop connections, 4 requests of 64 keys in flight each"
            }
        }
    }
}

/// Sizes of a run. The full sizes are fixed; `--smoke` shrinks them so the
/// whole suite takes seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub rows: u64,
    /// Keys `serve_multiget` reads from.
    pub hot_keys: u64,
    /// Buffer-pool budget of `cold_scan`, in pages: between an eighth and a
    /// twelfth of the pages the load seals (3430 for the full table, 14 per
    /// 4096-row range).
    pub pool_pages: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        rows: 1_000_000,
        hot_keys: 10_000,
        pool_pages: 320,
    };
    pub const SMOKE: Sizes = Sizes {
        rows: 20_000,
        hot_keys: 1_000,
        pool_pages: 7,
    };

    /// Rows one range scan covers: a tenth of the table.
    pub fn scan_rows(&self) -> u64 {
        self.rows / 10
    }
}

/// One run's fixed facts.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub clock: Clock,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
    /// Scratch directory for WAL and page-store files, under
    /// `bench-output/`, removed when the run ends.
    pub dir: PathBuf,
}

/// The measured phases of a run on the run's clock: an untimed warm-up up
/// to `window.start_ns`, then the window. In a traced run the odd slices of
/// the window record spans and the even ones do not.
#[derive(Debug, Clone)]
pub struct Phases {
    pub window: Window,
    pub traced: bool,
}

impl Phases {
    pub fn starting_now(ctx: &Ctx, traced: bool) -> Phases {
        let window = Window {
            start_ns: ctx.clock.now_ns() + (ctx.seconds * 0.15e9) as u64,
            slice_ns: (ctx.seconds * 1e9 / SLICES as f64) as u64,
            slices: SLICES,
        };
        Phases { window, traced }
    }

    /// Slices measured with the recorder off: all of an untraced run.
    pub fn untraced_slices(&self) -> Vec<usize> {
        (0..self.window.slices)
            .step_by(if self.traced { 2 } else { 1 })
            .collect()
    }

    /// Slices measured with the recorder on.
    pub fn traced_slices(&self) -> Vec<usize> {
        let odd = (1..self.window.slices).step_by(2);
        odd.take(if self.traced { usize::MAX } else { 0 }).collect()
    }

    pub fn tracer(&self, clock: Clock, capacity: usize) -> Tracer {
        if !self.traced {
            return Tracer::off(clock);
        }
        let odd = When::OddSlices {
            start_ns: self.window.start_ns,
            slice_ns: self.window.slice_ns,
        };
        Tracer::new(clock, odd, capacity)
    }
}

/// Sleep until `t_ns` on the run's clock.
pub fn sleep_until(clock: Clock, t_ns: u64) {
    let now = clock.now_ns();
    if t_ns > now {
        std::thread::sleep(Duration::from_nanos(t_ns - now));
    }
}

/// A loaded engine, ready to measure. Fields drop in this order: the
/// server stops before the database does.
pub struct Loaded {
    /// Where this set-up's WAL (`wal*`) and page-store (`pages`) files are.
    pub dir: PathBuf,
    pub server: Option<Server>,
    pub table: Arc<Table>,
    pub db: Arc<Database>,
    /// `serve_multiget`: the keys it reads.
    pub hot: Vec<u64>,
}

fn db_config(ctx: &Ctx, workload: Workload, dir: &Path) -> DbConfig {
    // Pinned, not derived from the core count: the same program on every box.
    let config = DbConfig::new().with_shards(2).with_pool_threads(2);
    match workload {
        Workload::ColdScan => config
            .with_page_store(dir.join("pages"))
            .with_buffer_pool_pages(ctx.sizes.pool_pages),
        Workload::DurableCommit => config
            .with_wal_path(dir.join("wal"))
            .with_durability(Durability::group_commit()),
        _ => config,
    }
}

/// Create a database and load `initial` into table `bench`, in key order
/// from one thread, so that consecutive keys are consecutive record slots.
pub fn load(config: DbConfig, initial: &[Row]) -> (Arc<Database>, Arc<Table>) {
    let db = Database::new(config);
    let names: Vec<String> = (0..COLS).map(|c| format!("c{c}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let table = db
        .create_table(TABLE, &names, TableConfig::default())
        .expect("create table");
    for (batch, rows) in initial.chunks(LOAD_BATCH as usize).enumerate() {
        let mut txn = db.begin();
        for (i, row) in rows.iter().enumerate() {
            table
                .insert(&mut txn, batch as u64 * LOAD_BATCH + i as u64, row)
                .expect("load row");
        }
        db.commit(&mut txn).expect("commit load batch");
    }
    (db, table)
}

/// Apply one update (`plan_update`) to each of `keys`, a thousand per
/// transaction, and to the driver's copy.
fn pre_update(loaded: (&Database, &Table), rng: &mut SplitMix64, keys: &[u64], rows: &mut [Row]) {
    let (db, table) = loaded;
    for chunk in keys.chunks(1000) {
        let mut txn = db.begin();
        for &key in chunk {
            let row = &mut rows[key as usize];
            let update = plan_update(rng, row);
            table.update(&mut txn, key, &update).expect("pre-update");
            apply_update(row, &update);
        }
        db.commit(&mut txn).expect("commit pre-updates");
    }
}

/// Set-up, the part timed as `setup_s`: a fresh database, the load of
/// `rows`, the workload's pre-updates (applied to `rows` too), merges
/// drained, the page store flushed, the server started.
///
/// Each set-up of a run gets a directory of its own, `slot`, and the run
/// deletes them all when it ends: freeing hundreds of megabytes makes the
/// file system discard blocks, which slows every `fsync` after it, so no
/// file is deleted while a run still has windows to measure.
pub fn set_up(ctx: &Ctx, workload: Workload, slot: usize, rows: &mut [Row]) -> Loaded {
    let dir = ctx.dir.join(format!("{}-{slot}", workload.name()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory under bench-output");
    let (db, table) = load(db_config(ctx, workload, &dir), rows);
    let mut rng = SplitMix64::stream(ctx.seed, 100);
    let mut hot: Vec<u64> = Vec::new();
    if workload == Workload::ServeMultiget {
        let mut taken = std::collections::HashSet::new();
        while (hot.len() as u64) < ctx.sizes.hot_keys {
            let k = rng.below(ctx.sizes.rows);
            if taken.insert(k) {
                hot.push(k);
            }
        }
        for _ in 0..HOT_KEY_UPDATES {
            pre_update((&db, &table), &mut rng, &hot, rows);
        }
    }
    table.merge_all();
    db.drain_merges();
    if matches!(
        workload,
        Workload::OltpUpdate | Workload::DurableCommit | Workload::HtapScan
    ) {
        // Uniform updates fill every range's tail at the same rate, so from
        // a merged table all ranges would reach the merge threshold in the
        // same instant, again and again. Leave each range a different share
        // of the threshold already filled: merges then come one range at a
        // time from the first second on, which is the steady state a
        // long-running system is in.
        let config = TableConfig::default();
        let mut keys = Vec::new();
        for (range, first) in (0..ctx.sizes.rows).step_by(config.range_size).enumerate() {
            let len = (ctx.sizes.rows - first).min(config.range_size as u64);
            let filled = (range as f64 * 0.618_033_988_75).fract();
            // A row's first update also writes a snapshot record to the tail.
            let updates = (filled * config.merge_threshold as f64 / 2.0) as u64;
            keys.extend((0..updates).map(|_| first + rng.below(len)));
        }
        pre_update((&db, &table), &mut rng, &keys, rows);
    }
    db.flush_store().expect("flush the page store");
    let server = (workload == Workload::ServeMultiget).then(|| {
        Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
            .expect("start the server on a loopback port")
    });
    Loaded {
        dir,
        server,
        table,
        db,
        hot,
    }
}

/// The keys of one short transaction of the client that owns the `owned`
/// keys ≡ `id` (mod `stride`): two distinct owned rows to write (as indices
/// into its copy), and the eight keys to read, which start with those two
/// and go on with six drawn from all `rows`.
pub fn pick_keys(
    rng: &mut SplitMix64,
    owned: u64,
    stride: u64,
    id: u64,
    rows: u64,
) -> ([usize; 2], [u64; 8]) {
    let first = rng.below(owned);
    let mut second = rng.below(owned - 1);
    if second >= first {
        second += 1;
    }
    let written = [first as usize, second as usize];
    let mut keys = [0u64; 8];
    for (slot, key) in keys.iter_mut().enumerate() {
        *key = match written.get(slot) {
            Some(&i) => i as u64 * stride + id,
            None => rng.below(rows),
        };
    }
    (written, keys)
}

/// A client running the paper's short update transaction: begin
/// (read-committed), 8 reads of all columns of which the first two are the
/// rows about to be written, 2 updates of 4 of the 10 columns, commit.
/// It writes only keys ≡ `id` (mod `stride`), so its copy of those rows is
/// authoritative and no conflict is expected.
pub struct TxnClient<'a> {
    db: &'a Database,
    table: &'a Table,
    rng: SplitMix64,
    rows: u64,
    id: u64,
    stride: u64,
    /// The driver's copy of the owned rows; row of key `k` is at `k / stride`.
    pub own: Vec<Row>,
}

impl<'a> TxnClient<'a> {
    pub fn new(
        (db, table): (&'a Database, &'a Table),
        rng: SplitMix64,
        id: u64,
        stride: u64,
        current: &[Row],
    ) -> TxnClient<'a> {
        let own: Vec<Row> = current
            .iter()
            .skip(id as usize)
            .step_by(stride as usize)
            .copied()
            .collect();
        assert!(own.len() >= 2, "a client needs two rows to write");
        TxnClient {
            db,
            table,
            rng,
            rows: current.len() as u64,
            id,
            stride,
            own,
        }
    }

    /// Write the owned rows back into the whole-table copy.
    pub fn store_into(&self, current: &mut [Row]) {
        for (i, row) in self.own.iter().enumerate() {
            current[i * self.stride as usize + self.id as usize] = *row;
        }
    }

    /// Run one short transaction under the root span `root`.
    pub fn txn(&mut self, tr: &mut Tracer, root: u32) -> Outcome {
        let owned = self.own.len() as u64;
        let (written, keys) = pick_keys(&mut self.rng, owned, self.stride, self.id, self.rows);

        let s = tr.begin(root, Name::DbBegin);
        let mut txn = self.db.begin();
        tr.end(s);
        let mut outcome = Outcome::Done;
        for (slot, &key) in keys.iter().enumerate() {
            let s = tr.begin(root, Name::TableRead);
            let got = self.table.read(&mut txn, key, &ALL_COLS);
            tr.end(s);
            match got {
                // Every key is loaded and none is ever deleted.
                Ok(None) => outcome = Outcome::Wrong,
                Ok(Some(values)) => match written.get(slot) {
                    Some(&i) if values[..] != self.own[i][..] => outcome = Outcome::Wrong,
                    _ => {
                        black_box(values);
                    }
                },
                Err(_) => {
                    self.db.abort(&mut txn);
                    return Outcome::Failed;
                }
            }
        }
        let updates = written.map(|i| plan_update(&mut self.rng, &self.own[i]));
        for (key, update) in keys.iter().zip(&updates) {
            let s = tr.begin(root, Name::TableUpdate);
            let done = self.table.update(&mut txn, *key, update);
            tr.end(s);
            if done.is_err() {
                self.db.abort(&mut txn);
                return Outcome::Failed;
            }
        }
        let s = tr.begin(root, Name::DbCommit);
        let committed = self.db.commit(&mut txn);
        tr.end(s);
        if committed.is_err() {
            return Outcome::Failed;
        }
        for (i, update) in written.into_iter().zip(&updates) {
            apply_update(&mut self.own[i], update);
        }
        outcome
    }
}

/// `Table::locate` + `Table::sum_rid_span` over the `rows` keys from `lo`,
/// under the root span `root`. `None` when the key does not resolve.
pub fn range_sum(
    table: &Table,
    tr: &mut Tracer,
    root: u32,
    lo: u64,
    rows: u64,
    col: usize,
    ts: u64,
) -> Option<u64> {
    let s = tr.begin(root, Name::TableLocate);
    let start = table.locate(lo);
    tr.end(s);
    let start = start.ok()?;
    let s = tr.begin(root, Name::TableSumRidSpan);
    let sum = table.sum_rid_span(start, rows, col, ts);
    tr.end(s);
    Some(sum)
}

/// `prefix[c][k]` = wrapping sum of column `c` over keys `0..k`, so the
/// expected answer of a range scan is one subtraction.
pub fn prefix_sums(current: &[Row]) -> Vec<Vec<u64>> {
    (0..COLS)
        .map(|c| {
            let mut acc = 0u64;
            std::iter::once(0)
                .chain(current.iter().map(|row| {
                    acc = acc.wrapping_add(row[c]);
                    acc
                }))
                .collect()
        })
        .collect()
}

/// The schedule of an open-loop generator: operation `i` is due at
/// `first_ns + i * interval_ns` whatever happened to the ones before it.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    pub first_ns: u64,
    pub interval_ns: u64,
}

/// Timing of one open-loop operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Paced {
    /// How late the generator started it.
    pub lateness_ns: u64,
    /// Latency from the due time: what a user who sent it on schedule saw.
    pub latency_ns: u64,
    /// Started later than `LATE_LIMIT_NS`: counted as failed.
    pub too_late: bool,
}

impl Pacer {
    pub fn due_ns(&self, i: u64) -> u64 {
        self.first_ns + i * self.interval_ns
    }

    pub fn account(&self, i: u64, started_ns: u64, finished_ns: u64) -> Paced {
        let due = self.due_ns(i);
        let lateness_ns = started_ns.saturating_sub(due);
        Paced {
            lateness_ns,
            latency_ns: finished_ns.saturating_sub(due),
            too_late: lateness_ns > LATE_LIMIT_NS,
        }
    }
}

/// After the window: compare the engine with the driver's copy, quiesced.
/// Every column's `sum_as_of` at the current time and `samples` point reads
/// must agree. Returns `(checks made, checks that disagreed)`.
pub fn verify_against(table: &Table, current: &[Row], seed: u64, samples: u64) -> (u64, u64) {
    let ts = table.now();
    let mut wrong = 0u64;
    for c in 0..COLS {
        let expected = current.iter().fold(0u64, |a, row| a.wrapping_add(row[c]));
        wrong += u64::from(table.sum_as_of(c, ts) != expected);
    }
    let mut rng = SplitMix64::stream(seed, 200);
    for _ in 0..samples {
        let key = rng.below(current.len() as u64);
        let matches = table
            .read_one(&ReadRequest::latest(key))
            .is_ok_and(|r| r.values.as_deref() == Some(&current[key as usize][..]));
        wrong += u64::from(!matches);
    }
    (COLS as u64 + samples, wrong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::initial_rows;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let pacer = Pacer {
            first_ns: 1_000,
            interval_ns: 100,
        };
        assert_eq!(pacer.due_ns(0), 1_000);
        assert_eq!(pacer.due_ns(7), 1_700);
        // On time: latency is the service time.
        let p = pacer.account(3, 1_300, 1_340);
        assert_eq!((p.lateness_ns, p.latency_ns, p.too_late), (0, 40, false));
        // A stall delays the start: the wait counts into the latency.
        let p = pacer.account(3, 1_900, 1_940);
        assert_eq!((p.lateness_ns, p.latency_ns, p.too_late), (600, 640, false));
        // The generator ran ahead of the clock read: never negative.
        let p = pacer.account(3, 1_290, 1_330);
        assert_eq!((p.lateness_ns, p.latency_ns), (0, 30));
        let p = pacer.account(0, 1_000 + LATE_LIMIT_NS + 1, 1_000 + LATE_LIMIT_NS + 50);
        assert!(p.too_late);
        assert!(!pacer.account(0, 1_000 + LATE_LIMIT_NS, 0).too_late);
    }

    #[test]
    fn a_traced_window_alternates_untraced_and_traced_slices() {
        let ctx = Ctx {
            clock: Clock::start(),
            seed: 1,
            seconds: 2.0,
            sizes: Sizes::SMOKE,
            dir: PathBuf::from("unused"),
        };
        let plain = Phases::starting_now(&ctx, false);
        assert_eq!(plain.untraced_slices(), (0..SLICES).collect::<Vec<_>>());
        assert!(plain.traced_slices().is_empty());
        assert_eq!(plain.window.slice_ns, 100_000_000);
        assert_eq!(plain.window.end_ns(), plain.window.start_ns + 2_000_000_000);
        let traced = Phases::starting_now(&ctx, true);
        assert_eq!(
            traced.untraced_slices(),
            [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        );
        assert_eq!(traced.traced_slices(), [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]);
        let mut tr = traced.tracer(ctx.clock, 64);
        let w = traced.window;
        assert_eq!(
            tr.root(Name::Txn, w.start_ns + w.slice_ns / 2),
            crate::trace::OFF
        );
        assert_ne!(
            tr.root(Name::Txn, w.start_ns + w.slice_ns * 3 / 2),
            crate::trace::OFF
        );
    }

    #[test]
    fn prefix_sums_answer_range_sums() {
        let rows = initial_rows(3, 50);
        let prefix = prefix_sums(&rows);
        let direct: u64 = rows[10..30].iter().map(|r| r[4]).sum();
        assert_eq!(prefix[4][30] - prefix[4][10], direct);
        assert_eq!(prefix[0][0], 0);
        assert_eq!(prefix.len(), COLS);
    }

    /// The engine end of the short transaction, on a small table: answers
    /// agree with the driver's copy, which `verify_against` then confirms,
    /// and a tampered copy is caught.
    #[test]
    fn short_transactions_keep_the_copy_and_the_engine_equal() {
        let initial = initial_rows(11, 2_000);
        let (db, table) = load(
            DbConfig::new().with_shards(2).with_pool_threads(2),
            &initial,
        );
        let mut current = initial.clone();
        let clock = Clock::start();
        let mut tr = Tracer::new(clock, When::Always, 1 << 12);
        let mut clients: Vec<TxnClient> = (0..2)
            .map(|id| TxnClient::new((&db, &table), SplitMix64::stream(11, id), id, 2, &current))
            .collect();
        for _ in 0..200 {
            for c in &mut clients {
                let root = tr.root(Name::Txn, clock.now_ns());
                assert_eq!(c.txn(&mut tr, root), Outcome::Done);
                tr.end(root);
            }
        }
        for c in &clients {
            c.store_into(&mut current);
        }
        assert_ne!(current, initial);
        assert_eq!(verify_against(&table, &current, 11, 100), (110, 0));
        let totals = crate::trace::totals(&[tr.spans()]);
        let count = |n| {
            totals
                .iter()
                .find(|(name, _)| *name == n)
                .map(|(_, t)| t.count)
        };
        assert_eq!(count(Name::TableRead), Some(8 * count(Name::Txn).unwrap()));
        assert_eq!(
            count(Name::TableUpdate),
            Some(2 * count(Name::Txn).unwrap())
        );

        let prefix = prefix_sums(&current);
        let mut off = Tracer::off(clock);
        let sum = range_sum(
            &table,
            &mut off,
            crate::trace::OFF,
            100,
            500,
            1,
            table.now(),
        );
        assert_eq!(sum, Some(prefix[1][600].wrapping_sub(prefix[1][100])));

        current[5][3] ^= 1;
        let (_, wrong) = verify_against(&table, &current, 11, 0);
        assert_eq!(wrong, 1, "a tampered copy is caught by the column sum");
    }
}
