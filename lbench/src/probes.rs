//! Per-layer probe loops: one layer at a time, measured from outside on the
//! table the traced window just used, single-threaded and after the
//! generators stopped. Each reports the median batch, so a stall in one
//! batch does not move the number.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lstore::{DbConfig, Durability, ReadResponse};
use lstore_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use lstore_server::{Client, Server, ServerConfig};
use lstore_storage::compress::{self, CodecChoice, ColumnKernel};
use lstore_storage::page::BasePage;
use lstore_storage::store::PageStore;

use crate::bench::{load, range_sum, Ctx, Loaded, TxnClient, KEYS_PER_REQUEST, TABLE};
use crate::gen::{initial_rows, Row, SplitMix64, COLS};
use crate::report::Cell;
use crate::stats::median;
use crate::trace::{totals, Name, Tracer, When};

/// Values per page the kernel and fault probes use (the engine's page size).
const PAGE_VALUES: usize = 4096;
/// Rows of the scratch tables of the commit-wait probe.
const SCRATCH_ROWS: u64 = 20_000;
/// Short transactions the commit-wait probe runs on each scratch table.
const COMMIT_PROBE_TXNS: usize = 300;

/// Median time per call, in nanoseconds, over batches of `batch` calls
/// repeated for about `budget` (at least five batches).
fn per_call_ns(budget: Duration, batch: usize, mut call: impl FnMut()) -> f64 {
    let mut batches = Vec::new();
    let t0 = Instant::now();
    while batches.len() < 5 || (t0.elapsed() < budget && batches.len() < 100_000) {
        let t = Instant::now();
        for _ in 0..batch {
            call();
        }
        batches.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&batches)
}

/// One page of values that suits `codec`, so each kernel runs on the data
/// shape its codec is chosen for.
fn page_for(codec: CodecChoice, rng: &mut SplitMix64) -> Vec<u64> {
    match codec {
        CodecChoice::Rle => {
            let mut v = Vec::with_capacity(PAGE_VALUES);
            while v.len() < PAGE_VALUES {
                let (value, run) = (rng.below(1000), 1 + rng.below(64) as usize);
                v.extend(std::iter::repeat_n(value, run.min(PAGE_VALUES - v.len())));
            }
            v
        }
        CodecChoice::Dictionary => {
            let dict: [u64; 16] = std::array::from_fn(|_| rng.next_u64() >> 1);
            (0..PAGE_VALUES)
                .map(|_| dict[rng.below(16) as usize])
                .collect()
        }
        CodecChoice::ForPack => (0..PAGE_VALUES)
            .map(|_| 1_000_000 + rng.below(1000))
            .collect(),
        _ => (0..PAGE_VALUES).map(|_| rng.next_u64() >> 1).collect(),
    }
}

/// `db.commit` of the short transaction on a scratch table with the WAL and
/// group commit, minus the same without a WAL: what a commit waits for the
/// log, in microseconds, with one client.
fn commit_wait_us(ctx: &Ctx) -> f64 {
    let initial = initial_rows(ctx.seed, SCRATCH_ROWS);
    let pool = DbConfig::new().with_shards(2).with_pool_threads(2);
    let commit_ns = |config: DbConfig| {
        let (db, table) = load(config, &initial);
        let mut client = TxnClient::new(
            (&db, &table),
            SplitMix64::stream(ctx.seed, 300),
            0,
            1,
            &initial,
        );
        let mut tr = Tracer::new(ctx.clock, When::Always, COMMIT_PROBE_TXNS * 16);
        for _ in 0..COMMIT_PROBE_TXNS {
            let root = tr.root(Name::Txn, ctx.clock.now_ns());
            client.txn(&mut tr, root);
            tr.end(root);
        }
        totals(&[tr.spans()])
            .iter()
            .find(|(n, _)| *n == Name::DbCommit)
            .map_or(0.0, |(_, t)| t.median_ns)
    };
    let wal_path = ctx.dir.join("probe-wal");
    let logged = commit_ns(
        pool.clone()
            .with_wal_path(wal_path)
            .with_durability(Durability::group_commit()),
    );
    (logged - commit_ns(pool)) / 1e3
}

/// The layers of a workload that runs no transactions or no scans still get
/// a time: `txns` short transactions and `scans` range scans on the loaded
/// table, one client, after the window and its checks. Returns cells
/// `table.read_ns`, `table.update_ns`, `commit.commit_ns` (median span) and
/// `scan.ns_per_row`; a traced window's own spans take precedence.
fn idle_layer_cells(
    ctx: &Ctx,
    loaded: &Loaded,
    current: &[Row],
    txns: usize,
    scans: usize,
) -> Vec<Cell> {
    let mut client = TxnClient::new(
        (&loaded.db, &loaded.table),
        SplitMix64::stream(ctx.seed, 304),
        0,
        64,
        current,
    );
    let mut rng = SplitMix64::stream(ctx.seed, 305);
    let mut tr = Tracer::new(ctx.clock, When::Always, txns * 16 + scans * 4);
    for _ in 0..txns {
        let root = tr.root(Name::Txn, ctx.clock.now_ns());
        client.txn(&mut tr, root);
        tr.end(root);
    }
    let rows = ctx.sizes.scan_rows();
    for i in 0..scans {
        let lo = rng.below(ctx.sizes.rows - rows + 1);
        let root = tr.root(Name::Scan, ctx.clock.now_ns());
        black_box(range_sum(
            &loaded.table,
            &mut tr,
            root,
            lo,
            rows,
            i % COLS,
            loaded.table.now(),
        ));
        tr.end(root);
    }
    let table = totals(&[tr.spans()]);
    let median = |name| {
        table
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, t)| t.median_ns)
    };
    vec![
        Cell::new("table.read_ns", median(Name::TableRead), "ns"),
        Cell::new("table.update_ns", median(Name::TableUpdate), "ns"),
        Cell::new("commit.commit_ns", median(Name::DbCommit), "ns"),
        Cell::new(
            "scan.ns_per_row",
            median(Name::TableSumRidSpan) / rows as f64,
            "ns",
        ),
    ]
}

/// `PageStore::read_page` on a scratch store: read and decode one page
/// image, bypassing the pool. The file was just written, so this is the
/// operating system's cache, not a device.
fn store_fault_us(ctx: &Ctx, budget: Duration) -> f64 {
    const PAGES: u64 = 64;
    let mut rng = SplitMix64::stream(ctx.seed, 301);
    let path = ctx.dir.join("probe-pages");
    let _ = std::fs::remove_file(&path);
    let store: Arc<PageStore> = PageStore::open(&path, None).expect("open the scratch page store");
    for id in 0..PAGES {
        let values: Vec<u64> = (0..PAGE_VALUES).map(|_| rng.below(1000)).collect();
        store
            .put_page(id, &BasePage::from_values(&values, CodecChoice::Auto))
            .expect("write a scratch page");
    }
    store.sync().expect("sync the scratch page store");
    per_call_ns(budget, 64, || {
        black_box(
            store
                .read_page(rng.below(PAGES))
                .expect("read a scratch page"),
        );
    }) / 1e3
}

/// Encode and decode one 64-key `MULTI_READ` request and its response.
fn codec_ns(ctx: &Ctx, budget: Duration) -> f64 {
    let mut rng = SplitMix64::stream(ctx.seed, 302);
    let request = Request::MultiRead {
        table: TABLE.to_string(),
        keys: (0..KEYS_PER_REQUEST)
            .map(|_| rng.below(ctx.sizes.rows))
            .collect(),
        columns: None,
        as_of: None,
    };
    let response = Response::Results(
        (0..KEYS_PER_REQUEST)
            .map(|_| {
                Ok(ReadResponse::visible(
                    (0..10).map(|_| rng.below(1000)).collect(),
                ))
            })
            .collect(),
    );
    per_call_ns(budget, 64, || {
        let frame = encode_request(7, &request);
        black_box(decode_request(&frame[4..]).expect("decode our own request"));
        let frame = encode_response(7, &response);
        black_box(decode_response(&frame[4..]).expect("decode our own response"));
    })
}

/// `Client::ping` round trip through a server on the loaded database: the
/// floor under every request latency.
fn ping_us(loaded: &Loaded, budget: Duration) -> f64 {
    let own;
    let server = match &loaded.server {
        Some(s) => s,
        None => {
            own = Server::start(
                Arc::clone(&loaded.db),
                "127.0.0.1:0",
                ServerConfig::default(),
            )
            .expect("start a server for the ping probe");
            &own
        }
    };
    let mut client = Client::connect(server.local_addr()).expect("connect for the ping probe");
    per_call_ns(budget, 16, || client.ping().expect("ping")) / 1e3
}

/// Run every probe loop. `smoke` shortens each loop.
pub fn run(ctx: &Ctx, loaded: &Loaded, current: &[Row], smoke: bool) -> Vec<Cell> {
    let budget = Duration::from_millis(if smoke { 20 } else { 150 });
    let table = &*loaded.table;
    let mut rng = SplitMix64::stream(ctx.seed, 303);
    let mut cells = Vec::new();

    let rows = ctx.sizes.rows;
    cells.push(Cell::new(
        "index.locate_ns",
        per_call_ns(budget, 1024, || {
            black_box(table.locate(rng.below(rows)).expect("loaded key"));
        }),
        "ns",
    ));
    cells.push(Cell::new(
        "txn.begin_commit_ns",
        per_call_ns(budget, 64, || {
            let mut txn = loaded.db.begin();
            black_box(
                loaded
                    .db
                    .commit(&mut txn)
                    .expect("commit an empty transaction"),
            );
        }),
        "ns",
    ));
    cells.push(Cell::new("wal.commit_wait_us", commit_wait_us(ctx), "us"));

    for (name, codec) in [
        ("plain", CodecChoice::None),
        ("rle", CodecChoice::Rle),
        ("dict", CodecChoice::Dictionary),
        ("for", CodecChoice::ForPack),
    ] {
        let page = compress::encode(&page_for(codec, &mut rng), codec);
        let ns = per_call_ns(budget / 2, 64, || {
            black_box(black_box(&page).sum_range(0, PAGE_VALUES));
        });
        cells.push(Cell::new(
            &format!("storage.kernel_ns_per_row.{name}"),
            ns / PAGE_VALUES as f64,
            "ns",
        ));
    }
    cells.push(Cell::new(
        "store.fault_us",
        store_fault_us(ctx, budget),
        "us",
    ));

    cells.push(Cell::new("server.ping_us", ping_us(loaded, budget), "us"));
    cells.push(Cell::new("server.codec_ns", codec_ns(ctx, budget), "ns"));
    // The requests `serve_multiget` sends, through the embedded call the
    // server makes for them; other workloads have no hot set and read keys
    // from the whole table.
    let mut keys = [0u64; KEYS_PER_REQUEST];
    let batch_ns = per_call_ns(budget, 16, || {
        for k in &mut keys {
            *k = match loaded.hot.len() as u64 {
                0 => rng.below(rows),
                hot => loaded.hot[rng.below(hot) as usize],
            };
        }
        black_box(table.read_batch(&keys, None, None));
    });
    cells.push(Cell::new(
        "multi_read.ns_per_key",
        batch_ns / KEYS_PER_REQUEST as f64,
        "ns",
    ));
    // Last: these write to the table.
    let (txns, scans) = if smoke { (100, 10) } else { (500, 30) };
    cells.extend(idle_layer_cells(ctx, loaded, current, txns, scans));
    cells
}
