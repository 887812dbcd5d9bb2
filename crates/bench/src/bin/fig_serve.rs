//! Service-tier axis: closed-loop multi-get throughput and latency through
//! the wire protocol. The workload is hot-key multi-gets over the
//! medium-contention active set — many connections reading one hot range,
//! the traffic lbench's scattered-key `serve_multiget` cannot show. On it
//! a single dispatcher once beat running requests on the connections'
//! threads 2–4×, while the point path took locks that bounced between
//! cores. With the point path lock-free, the server runs each request on
//! its connection's thread and this figure reads better for it at four
//! connections: 23.8–26.4 k req/s against the dispatcher's 17.3–23.1 k on
//! a 2-core box. One connection reads about 12 % lower (14.4–15.6 k
//! against 16.5–21.7 k), because its decode, execute and write no longer
//! overlap on three threads (`docs/BENCHMARKS.md`, "Each request on its
//! connection's thread").
//!
//! Cells per connection count (1 and 4): `req_s` reports requests/s over
//! the window, `p50`/`p95`/`p99` client-observed request latency in
//! microseconds. Every request reads 64 keys and each connection keeps 4
//! requests outstanding.
//!
//! Env: `BENCH_ROWS`/`BENCH_SECONDS` as everywhere.
//! The table runs with background merge off so the pre-update pass pins a
//! deterministic tail-chain depth for the whole measurement.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lstore_bench::report;
use lstore_bench::setup;
use lstore_bench::workload::Contention;
use lstore_server::{Client, Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Client connections, swept: one connection's requests run one at a
/// time on its server thread; four run side by side on one hot range.
const CONNS: [usize; 2] = [1, 4];
/// Point-read keys per wire request: a fan-out multi-get, the shape a
/// service tier sees when one upstream call hydrates a page of items.
const KEYS_PER_REQUEST: usize = 64;
/// Pipelined requests outstanding per connection (1 would be lockstep).
const DEPTH: usize = 4;

/// Drive one closed-loop connection until `deadline`, keeping [`DEPTH`]
/// requests outstanding (the wire protocol's request ids exist exactly so
/// a client can pipeline). Returns the latency (ns) of every request
/// completed.
fn drive(
    addr: std::net::SocketAddr,
    table: &str,
    active_set: u64,
    seed: u64,
    deadline: Instant,
) -> Vec<u64> {
    let mut client = Client::connect(addr).expect("connect");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut keys = vec![0u64; KEYS_PER_REQUEST];
    let send = |client: &mut Client, rng: &mut SmallRng, keys: &mut Vec<u64>| {
        for k in keys.iter_mut() {
            *k = rng.random_range(0..active_set);
        }
        let id = client
            .send_multi_read(table, keys, None, None)
            .expect("send");
        (id, Instant::now())
    };
    // Warm the connection (and its server thread) off the clock.
    for _ in 0..3 {
        send(&mut client, &mut rng, &mut keys);
        client.recv().expect("warmup");
    }
    let mut latencies_ns = Vec::new();
    let mut inflight = std::collections::HashMap::new();
    for _ in 0..DEPTH {
        let (id, t0) = send(&mut client, &mut rng, &mut keys);
        inflight.insert(id, t0);
    }
    loop {
        let (id, reply) = client.recv().expect("recv");
        let t0 = inflight.remove(&id).expect("known id");
        latencies_ns.push(t0.elapsed().as_nanos() as u64);
        match reply {
            lstore_server::Reply::Results(replies) => assert_eq!(replies.len(), keys.len()),
            other => panic!("unexpected reply {other:?}"),
        }
        if Instant::now() < deadline {
            let (id, t0) = send(&mut client, &mut rng, &mut keys);
            inflight.insert(id, t0);
        } else if inflight.is_empty() {
            return latencies_ns;
        }
    }
}

/// Measure one connection count: requests/s plus the merged latency
/// distribution.
fn measure(
    db: &Arc<lstore::Database>,
    conns: usize,
    active_set: u64,
    window: Duration,
) -> (f64, Vec<u64>) {
    let server = Server::start(Arc::clone(db), "127.0.0.1:0", ServerConfig::default())
        .expect("start server");
    let addr = server.local_addr();
    let start = Instant::now();
    let deadline = start + window;
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                drive(
                    addr,
                    "bench",
                    active_set,
                    0xC0FFEE ^ (c as u64).wrapping_mul(0x9E37_79B9),
                    deadline,
                )
            })
        })
        .collect();
    let mut latencies = Vec::new();
    for h in handles {
        latencies.append(&mut h.join().expect("client thread"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();
    latencies.sort_unstable();
    (latencies.len() as f64 / elapsed, latencies)
}

/// Percentile (0..=100) of a sorted ns distribution, in microseconds.
fn percentile_us(sorted_ns: &[u64], pct: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * pct / 100.0).round() as usize;
    sorted_ns[rank] as f64 / 1_000.0
}

fn main() {
    let config = setup::workload(Contention::Medium);
    let engine = setup::lstore_chain_engine(&config);
    let active_set = config.contention.active_set(config.rows);

    // Give the hot set real version chains: remote reads should walk tails
    // like a warmed-up system, not freshly merged base pages.
    let table = engine.table();
    for round in 0..8u64 {
        for key in 0..active_set {
            let col = ((key + round) % config.cols as u64) as usize;
            table
                .update_auto(key, &[(col, key ^ round)])
                .expect("pre-update");
        }
    }

    report::header(
        "Serving",
        &format!(
            "closed-loop multi-get ({KEYS_PER_REQUEST} keys/req, depth {DEPTH}) over the wire; \
             rows={} active={}",
            config.rows, active_set
        ),
    );
    for conns in CONNS {
        let (rps, latencies) = measure(engine.database(), conns, active_set, setup::window());
        let mut cells: Vec<(&str, String)> = vec![("req_s", format!("{rps:.0}"))];
        for (label, pct) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
            cells.push((label, format!("{:.0}us", percentile_us(&latencies, pct))));
        }
        report::row(&format!("conns={conns}"), &cells);
    }
}
