//! Loopback client/server integration: the service tier must be a
//! transparent window onto the embedded engine — remote reads
//! byte-identical to embedded batched reads even under concurrent
//! writers — its backpressure (load shed) must surface as the explicit
//! wire error, never as silence, and its one execution rule (each
//! connection runs its own requests, one at a time) must hold: a lone
//! request is never held for company, a busy connection never holds
//! another, a client that stops reading is held by TCP, and no byte a
//! client sends makes a server thread panic.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use lstore::{Database, DbConfig, Durability, Error, ReadRequest, Table, TableConfig};
use lstore_server::protocol::{self, encode_response, Response};
use lstore_server::{Client, ClientError, Reply, Server, ServerConfig};

const COLS: usize = 3;

fn populated_db(rows: u64) -> (Arc<Database>, Arc<Table>) {
    let db = Database::new(DbConfig::new().with_shards(2).with_pool_threads(2));
    let table = db
        .create_table("kv", &["a", "b", "c"], TableConfig::small())
        .unwrap();
    for k in 0..rows {
        table.insert_auto(k, &[k, k * 2, k * 3]).unwrap();
    }
    (db, table)
}

/// Tiny deterministic generator so tests need no rand dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn remote_reads_are_byte_identical_to_embedded_reads_under_writers() {
    let (db, table) = populated_db(2_000);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = Lcg(0x9E3779B9 + w);
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.next() % 2_000;
                    let col = (rng.next() % COLS as u64) as usize;
                    let _ = table.update_auto(key, &[(col, rng.next())]);
                }
            })
        })
        .collect();

    // Concurrent clients: frozen-timestamp batches must match the
    // embedded engine byte-for-byte while writers churn, because both
    // sides read the same immutable snapshot.
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = Lcg(0xDEADBEEF + c);
                for _ in 0..50 {
                    let keys: Vec<u64> = (0..32)
                        .map(|i| {
                            if i % 7 == 3 {
                                5_000_000 + rng.next() % 10 // unindexed
                            } else {
                                rng.next() % 600 // hot range, cross-client overlap
                            }
                        })
                        .collect();
                    let ts = table.now();
                    let remote = client.multi_read("kv", &keys, None, Some(ts)).unwrap();
                    let embedded = table.read_batch(&keys, None, Some(ts));
                    let remote_frame = encode_response(0, &Response::Results(remote));
                    let embedded_frame = encode_response(0, &Response::Results(embedded));
                    assert_eq!(remote_frame, embedded_frame, "snapshot reads diverged");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }

    // Every admitted request ran as its own batch, and the execution
    // histogram saw exactly what the counters saw.
    let stats = server.stats();
    assert_eq!(stats.batched_requests, stats.admitted, "{stats:?}");
    assert_eq!(stats.batches, stats.admitted, "{stats:?}");
    assert_eq!(
        stats.execute_us_log2.iter().sum::<u64>(),
        stats.admitted,
        "{stats:?}"
    );
    assert_eq!(stats.timed_out, 0, "{stats:?}");

    // With writers quiesced, latest-mode remote reads equal the embedded
    // batched reads exactly.
    let mut client = Client::connect(addr).unwrap();
    let keys: Vec<u64> = (0..64).chain([5_000_001]).collect();
    let remote = client.multi_read("kv", &keys, None, None).unwrap();
    let embedded = table.read_batch(&keys, None, None);
    for ((key, remote), embedded) in keys.iter().zip(remote).zip(embedded) {
        match (remote, embedded) {
            (Ok(r), Ok(e)) => assert_eq!(r, e, "key {key}"),
            (Err(a), Err(b)) => assert_eq!(a.to_parts(), b.to_parts(), "key {key}"),
            (a, b) => panic!("key {key}: remote {a:?} vs embedded {b:?}"),
        }
    }
    server.shutdown();
}

/// A database restarts under its server: rows written with the log on and
/// read over the wire, then the server and the database dropped, and the
/// database opened from the same paths and served again — the same
/// `MULTI_READ`, the same answers, byte for byte.
#[test]
fn a_reopened_database_serves_the_same_answers() {
    let dir = std::env::temp_dir().join("lstore-server-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("reopen-{}.wal", std::process::id()));
    let config = DbConfig::new()
        .with_shards(2)
        .with_pool_threads(2)
        .with_wal_path(path.clone())
        .with_durability(Durability::group_commit());
    let keys: Vec<u64> = (0..600).chain([5_000_001]).collect();
    let frame = |results| encode_response(0, &Response::Results(results));
    let served = |db: &Arc<Database>| {
        let server = Server::start(Arc::clone(db), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        frame(client.multi_read("kv", &keys, None, None).unwrap())
    };

    let before = {
        let db = Database::new(config.clone());
        let table = db
            .create_table("kv", &["a", "b", "c"], TableConfig::small())
            .unwrap();
        for k in 0..500 {
            table.insert_auto(k, &[k, k * 2, k * 3]).unwrap();
        }
        for k in (0..500).step_by(7) {
            table.update_auto(k, &[(1, k + 1)]).unwrap();
        }
        for k in (0..500).step_by(50) {
            table.delete_auto(k).unwrap();
        }
        let before = served(&db);
        assert_eq!(before, frame(table.read_batch(&keys, None, None)));
        assert_eq!(Arc::strong_count(&db), 1, "the server let the database go");
        before
    };

    let db = Database::open(config).unwrap();
    assert_eq!(
        served(&db),
        before,
        "the reopened database answers differently"
    );
    drop(db);
    std::fs::remove_file(&path).ok();
}

#[test]
fn pipelined_requests_match_by_id_out_of_order() {
    let (db, _table) = populated_db(100);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    let mut expected = std::collections::HashMap::new();
    for k in 0..20u64 {
        let id = client.send_read("kv", &ReadRequest::latest(k)).unwrap();
        expected.insert(id, k);
    }
    for _ in 0..20 {
        let (id, reply) = client.recv().unwrap();
        let key = expected.remove(&id).expect("unknown or duplicate id");
        match reply {
            Reply::Results(results) => {
                assert_eq!(results.len(), 1);
                assert_eq!(
                    results[0].as_ref().unwrap().values,
                    Some(vec![key, key * 2, key * 3])
                );
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(expected.is_empty());
}

#[test]
fn a_lone_request_is_never_held_for_company() {
    let (db, _table) = populated_db(200);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for k in 0..200u64 {
        let response = client.read("kv", &ReadRequest::latest(k)).unwrap().unwrap();
        assert_eq!(response.values, Some(vec![k, k * 2, k * 3]));
    }
    // Every request is its own batch, executed once.
    let stats = server.stats();
    assert_eq!(stats.admitted, 200, "{stats:?}");
    assert_eq!(stats.batches, stats.admitted, "{stats:?}");
    assert_eq!(stats.execute_us_log2.iter().sum::<u64>(), 200, "{stats:?}");
}

/// Send one 100 000-key `MULTI_READ` over `rows` keys on `client` and
/// return (its id, its keys) once the server has admitted it — `admitted`
/// is bumped before the engine runs — so `client`'s connection is busy
/// executing it.
fn occupy_connection(server: &Server, client: &mut Client, rows: u64) -> (u64, Vec<u64>) {
    let before = server.stats().admitted;
    let keys: Vec<u64> = (0..100_000u64).map(|i| i % rows).collect();
    let id = client.send_multi_read("kv", &keys, None, None).unwrap();
    while server.stats().admitted == before {
        std::thread::yield_now();
    }
    (id, keys)
}

#[test]
fn a_busy_connection_never_holds_another() {
    const ROWS: u64 = 1_000;
    let (db, _table) = populated_db(ROWS);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    b.ping().unwrap();
    // Connection A is busy with one very large request, and only then does
    // B pipeline 50 small ones; A's reply is awaited on a thread of its own.
    let (big_id, big) = occupy_connection(&server, &mut a, ROWS);
    let a_reply = std::thread::spawn(move || {
        let reply = a.recv().unwrap();
        (reply, Instant::now())
    });
    let mut expected = std::collections::HashMap::new();
    for k in 0..50u64 {
        expected.insert(b.send_read("kv", &ReadRequest::latest(k)).unwrap(), k);
    }
    for _ in 0..50 {
        let (id, reply) = b.recv().unwrap();
        let key = expected.remove(&id).expect("unknown or duplicate id");
        match reply {
            Reply::Results(results) => assert_eq!(
                results[0].as_ref().unwrap().values,
                Some(vec![key, key * 2, key * 3])
            ),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    let b_done = Instant::now();
    let ((id, reply), a_done) = a_reply.join().unwrap();
    assert!(
        b_done < a_done,
        "B's 50 replies waited for A's reply ({:?} after it)",
        b_done - a_done
    );
    assert_eq!(id, big_id);
    match reply {
        Reply::Results(results) => {
            assert_eq!(results.len(), big.len());
            for (key, result) in big.iter().zip(results) {
                assert_eq!(result.unwrap().values, Some(vec![*key, key * 2, key * 3]));
            }
        }
        other => panic!("unexpected reply {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.batched_requests, 51, "{stats:?}");
    assert_eq!(stats.batches, 51, "{stats:?}");
}

#[test]
fn shutdown_with_requests_queued_never_hangs() {
    const ROWS: u64 = 1_000;
    let (db, _table) = populated_db(ROWS);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // One large request keeps one connection busy while 200 more queue up
    // on four other connections; then the server goes away under them.
    let mut clients: Vec<Client> = (0..5).map(|_| Client::connect(addr).unwrap()).collect();
    for c in &mut clients {
        c.ping().unwrap();
    }
    occupy_connection(&server, &mut clients[0], ROWS);
    let mut sent = vec![1usize];
    for c in &mut clients[1..] {
        for k in 0..50u64 {
            c.send_read("kv", &ReadRequest::latest(k)).unwrap();
        }
        sent.push(50);
    }
    let started = std::time::Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");

    // Every request was answered correctly or its connection closed.
    for (mut client, sent) in clients.into_iter().zip(sent) {
        for _ in 0..sent {
            match client.recv() {
                Ok((_, Reply::Results(results))) => assert!(results.iter().all(|r| r.is_ok())),
                Ok((_, other)) => panic!("unexpected reply {other:?}"),
                Err(_) => break, // closed: nothing further arrives
            }
        }
    }
}

#[test]
fn exhausted_budget_sheds_with_overloaded() {
    let (db, _table) = populated_db(10);
    let server = Server::start(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 0, // every admission is over budget
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.read("kv", &ReadRequest::latest(1)) {
        Err(ClientError::Rejected(Error::Overloaded)) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Pings are control traffic, not reads: they bypass the budget, so a
    // drowning server still answers liveness probes.
    client.ping().unwrap();
    assert!(server.stats().shed >= 1);
}

#[test]
fn engine_errors_cross_the_wire_with_stable_codes() {
    let (db, _table) = populated_db(10);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    match client.read("ghost", &ReadRequest::latest(1)).unwrap() {
        Err(Error::TableNotFound(name)) => assert_eq!(name, "ghost"),
        other => panic!("expected TableNotFound, got {other:?}"),
    }
    match client.read("kv", &ReadRequest::latest(12345)).unwrap() {
        Err(e @ Error::KeyNotFound(12345)) => assert_eq!(e.code(), 2),
        other => panic!("expected KeyNotFound, got {other:?}"),
    }
    match client
        .read("kv", &ReadRequest::latest(1).with_columns(vec![99]))
        .unwrap()
    {
        Err(Error::ColumnOutOfRange {
            column: 99,
            columns,
        }) => assert_eq!(columns, COLS),
        other => panic!("expected ColumnOutOfRange, got {other:?}"),
    }
}

/// A client that pipelines requests and never reads its replies is held by
/// TCP: its connection's thread blocks writing a reply, so it stops reading
/// requests, so the client's `send` blocks long before its 20 000 requests
/// (about 80 MiB) are queued. Meanwhile another connection is served, and
/// `shutdown` does not wait for the stuck one to read.
#[test]
fn a_client_that_never_reads_is_held_by_tcp() {
    const ROWS: u64 = 1_000;
    const REQUESTS: u64 = 20_000;
    const QUEUED_LIMIT: usize = 64 << 20;
    let (db, table) = populated_db(ROWS);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // 512 keys a request: about 4 KiB out, about 14 KiB back.
    let keys: Vec<u64> = (0..512).map(|i| i % ROWS).collect();
    let mut stuck = TcpStream::connect(addr).unwrap();
    stuck.set_nonblocking(true).unwrap();
    let mut queued = 0usize;
    let mut blocked = false;
    'send: for id in 1..=REQUESTS {
        let frame = protocol::encode_multi_read(id, "kv", &keys, None, None);
        let mut at = 0;
        let mut last_progress = Instant::now();
        while at < frame.len() {
            match stuck.write(&frame[at..]) {
                Ok(n) => {
                    at += n;
                    queued += n;
                    last_progress = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Full for now; held once nothing moves for a while.
                    if last_progress.elapsed() > Duration::from_millis(500) {
                        blocked = true;
                        break 'send;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("send failed after {queued} bytes: {e}"),
            }
        }
    }
    assert!(
        blocked,
        "all {REQUESTS} requests ({queued} bytes) were taken"
    );
    assert!(
        queued < QUEUED_LIMIT,
        "{queued} bytes queued before send blocked"
    );

    let mut other = Client::connect(addr).unwrap();
    for round in 0..20u64 {
        let keys: Vec<u64> = (0..64).map(|i| (i * 7 + round) % ROWS).collect();
        let remote = other.multi_read("kv", &keys, None, None).unwrap();
        assert_eq!(
            encode_response(0, &Response::Results(remote)),
            encode_response(0, &Response::Results(table.read_batch(&keys, None, None))),
        );
    }

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
}

/// Panics raised on the server's (and the engine's) own threads.
static SERVER_PANICS: AtomicUsize = AtomicUsize::new(0);

fn count_server_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let name = std::thread::current().name().map(str::to_owned);
            if name.is_some_and(|n| n.starts_with("lstore-")) {
                SERVER_PANICS.fetch_add(1, Ordering::SeqCst);
            }
            previous(info);
        }));
    });
}

/// Every single-byte corruption of a valid `MULTI_READ` frame, each on a
/// connection of its own: the server answers with well-formed frames and
/// closes the connection, no server thread panics, and a second
/// connection's answers stay byte-identical to embedded reads throughout.
#[test]
fn every_byte_flip_of_a_multi_read_is_answered_or_closed() {
    count_server_panics();
    let (db, table) = populated_db(100);
    let server = Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let ts = table.now();
    let valid = protocol::encode_multi_read(9, "kv", &[3, 1, 99, 4], Some(&[0, 2]), Some(ts));
    let mut witness = Client::connect(addr).unwrap();
    let witness_keys: Vec<u64> = (0..16).chain([5_000_001]).collect();

    for at in 0..valid.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut frame = valid.clone();
            frame[at] ^= mask;
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            // Ignore a send error: the server may already have closed a
            // connection whose length prefix it refused.
            let _ = conn.write_all(&frame);
            // End of stream: a frame whose length now claims more bytes than
            // were sent is cut, and the server must close on it.
            let _ = conn.shutdown(Shutdown::Write);
            let mut replies = Vec::new();
            match conn.read_to_end(&mut replies) {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
                Err(e) => panic!("byte {at} ^ {mask:#x}: no answer and no close: {e}"),
            }
            let mut rest = replies.as_slice();
            while let Some(payload) = protocol::read_frame(&mut rest).unwrap() {
                if let Err(e) = protocol::decode_response(&payload) {
                    panic!("byte {at} ^ {mask:#x}: undecodable reply: {e}");
                }
            }

            let remote = witness.multi_read("kv", &witness_keys, None, None).unwrap();
            let embedded = table.read_batch(&witness_keys, None, None);
            assert_eq!(
                encode_response(0, &Response::Results(remote)),
                encode_response(0, &Response::Results(embedded)),
                "byte {at} ^ {mask:#x}: the witness connection diverged"
            );
        }
    }
    assert_eq!(
        SERVER_PANICS.load(Ordering::SeqCst),
        0,
        "a server thread panicked"
    );
    server.shutdown();
}
