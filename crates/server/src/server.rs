//! The service tier: a TCP acceptor and one thread per connection.
//!
//! A connection's thread reads a frame, admits it past the in-flight
//! budget, runs its keys through one [`Table::read_batch`] call — which
//! sorts the keys and resolves each distinct one once, on this same
//! thread — and writes the reply on its own socket
//! before it reads the next frame. Point reads take no lock on their way
//! to a record (they reach every range's state through the operation's
//! epoch pin), so connections need nothing from each other: there is no
//! shared queue, no dispatcher and no writer thread. A pipelining client's
//! later requests wait in its own socket buffer, so one busy connection
//! never holds another's, and a client that stops reading blocks its own
//! thread's write, which stops it reading, which lets TCP hold the client.
//!
//! Backpressure is a bounded in-flight budget: a request admitted past
//! `max_inflight` executing ones is answered at once with
//! [`Error::Overloaded`] — the client hears "shed, retry elsewhere/later",
//! never silence. `PING` bypasses the budget.
//!
//! [`Table::read_batch`]: lstore::Table::read_batch

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lstore::{Database, Error};
use parking_lot::Mutex;

use crate::protocol::{self, Request, Response, HEADER_LEN, MAX_FRAME_LEN};

/// Service-tier configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bounded in-flight request budget: admissions beyond this many
    /// executing requests shed with [`Error::Overloaded`].
    pub max_inflight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_inflight: 4096 }
    }
}

lstore::metric_set! {
    /// The service tier's live counters.
    struct ServerCounters;
    /// Monotonic service-tier counters (snapshot via [`Server::stats`]).
    pub struct ServerStats {
        /// Read/multi-read requests admitted past the budget.
        admitted: Counter,
        /// Requests shed with `Overloaded`.
        shed: Counter,
        /// Requests dropped with `RequestTimeout`. Always 0: a request
        /// waits only in its own connection's socket buffer, where the
        /// server cannot age it.
        timed_out: Counter,
        /// Engine batches executed. Every admitted request is its own
        /// batch, so this equals `batched_requests`.
        batches: Counter,
        /// Requests served through those batches.
        batched_requests: Counter,
        /// Microseconds each admitted request spent in the engine and the
        /// reply's encoding, log₂-bucketed: bucket `i` counts requests of
        /// `2^i ..= 2^(i+1) - 1` µs (bucket 0 also holds 0 µs, the last
        /// bucket everything from `2^15` µs up).
        execute_us_log2: Histogram,
    }
}

struct Shared {
    db: Arc<Database>,
    config: ServerConfig,
    stop: AtomicBool,
    inflight: AtomicUsize,
    counters: ServerCounters,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running service tier. Dropping (or [`Server::shutdown`]) stops the
/// acceptor and joins every connection thread.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port; see
    /// [`Server::local_addr`]) and start serving `db`.
    pub fn start(
        db: Arc<Database>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            db,
            config,
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            counters: ServerCounters::default(),
            conn_threads: Mutex::new(Vec::new()),
        });
        let s = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("lstore-acceptor".into())
            .spawn(move || acceptor_loop(&s, listener))?;
        Ok(Server {
            shared,
            addr,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// The bound address (resolves port-0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the service-tier counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.counters.snapshot()
    }

    /// Stop accepting and join every thread. Each connection finishes the
    /// request it is executing and stops within one poll tick of its next
    /// read or blocked write, so requests still in its socket buffer go
    /// unanswered and those clients see their connection close — also a
    /// client that stopped reading. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.acceptor.lock().take() {
            let _ = handle.join();
        }
        for handle in self.shared.conn_threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Acceptor + per-connection threads
// ---------------------------------------------------------------------

/// How long blocked reads and writes (and the accept poll) sleep before
/// re-checking the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    while !shared.stop.load(Ordering::Acquire) {
        // Connections that closed since the last tick: their threads have
        // returned, so dropping the handles loses nothing.
        shared.conn_threads.lock().retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Socket setup failed (peer already gone, fd limits): drop
                // the connection, keep serving.
                let _ = spawn_connection(shared, stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn spawn_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(POLL_INTERVAL))?;
    let s = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("lstore-conn".into())
        .spawn(move || connection_loop(&s, stream))?;
    shared.conn_threads.lock().push(handle);
    Ok(())
}

/// Read a frame, answer it, write the answer; repeat until the peer
/// closes, misbehaves or stops reading past shutdown.
fn connection_loop(shared: &Shared, mut stream: TcpStream) {
    let stop = &shared.stop;
    while !stop.load(Ordering::Acquire) {
        let Some(payload) = read_frame_polled(&mut stream, stop) else {
            return;
        };
        let (frame, keep_open) = answer(shared, &payload);
        if !transfer(stop, frame.len(), |at| stream.write(&frame[at..])) || !keep_open {
            return;
        }
    }
}

/// The reply frame to one request payload, and whether the connection
/// stays open after it.
fn answer(shared: &Shared, payload: &[u8]) -> (Vec<u8>, bool) {
    let (id, table, keys, columns, as_of) = match protocol::decode_request(payload) {
        Ok((id, Request::Ping)) => return (protocol::encode_response(id, &Response::Pong), true),
        Ok((id, Request::Read { table, request })) => {
            (id, table, vec![request.key], request.columns, request.as_of)
        }
        Ok((
            id,
            Request::MultiRead {
                table,
                keys,
                columns,
                as_of,
            },
        )) => (id, table, keys, columns, as_of),
        // The frame was well-delimited but unspeakable. Framing is still
        // sound, yet the peer is confused (or hostile): answer with the
        // protocol error and drop the connection.
        Err(e) => return (protocol::encode_response(0, &Response::Rejected(e)), false),
    };
    let counters = &shared.counters;
    if shared.inflight.fetch_add(1, Ordering::AcqRel) >= shared.config.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        counters.shed.inc();
        let shed = Response::Rejected(Error::Overloaded);
        return (protocol::encode_response(id, &shed), true);
    }
    counters.admitted.inc();
    let started = Instant::now();
    let results = match shared.db.table_or_err(&table) {
        Ok(t) => t.read_batch(&keys, columns.as_deref(), as_of),
        Err(_) => keys
            .iter()
            .map(|_| Err(Error::TableNotFound(table.clone())))
            .collect(),
    };
    let frame = protocol::encode_response(id, &Response::Results(results));
    counters
        .execute_us_log2
        .record(started.elapsed().as_micros() as u64);
    counters.batches.inc();
    counters.batched_requests.inc();
    shared.inflight.fetch_sub(1, Ordering::AcqRel);
    (frame, true)
}

// ---------------------------------------------------------------------
// Interruptible socket I/O
// ---------------------------------------------------------------------

/// Move `len` bytes through `call`, which is handed the offset reached so
/// far, across poll ticks: the offset lives here, so a timeout never loses
/// partial progress (as `read_exact`/`write_all` would). False when the
/// peer closes, the socket fails or `stop` is raised first.
fn transfer(
    stop: &AtomicBool,
    len: usize,
    mut call: impl FnMut(usize) -> io::Result<usize>,
) -> bool {
    let mut done = 0;
    while done < len {
        match call(done) {
            Ok(0) => return false,
            Ok(n) => done += n,
            Err(e) => {
                // A poll tick (or a signal): check the stop flag and retry.
                let tick = matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                );
                if !tick || stop.load(Ordering::Acquire) {
                    return false;
                }
            }
        }
    }
    true
}

/// [`protocol::read_frame`] with stop-flag polling. `None` ends the
/// connection: end of stream, a cut frame, a length prefix outside
/// `[HEADER_LEN, MAX_FRAME_LEN]`, a socket error or shutdown.
fn read_frame_polled(stream: &mut TcpStream, stop: &AtomicBool) -> Option<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    if !transfer(stop, 4, |at| stream.read(&mut len_bytes[at..])) {
        return None;
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if !(HEADER_LEN..=MAX_FRAME_LEN).contains(&len) {
        return None;
    }
    let mut payload = vec![0u8; len];
    transfer(stop, len, |at| stream.read(&mut payload[at..])).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use lstore::DbConfig;

    #[test]
    fn closed_connections_are_reaped_while_live_ones_keep_serving() {
        let server = Server::start(
            Database::new(DbConfig::new()),
            "127.0.0.1:0",
            ServerConfig::default(),
        )
        .unwrap();
        let mut live = Client::connect(server.local_addr()).unwrap();
        live.ping().unwrap();
        for _ in 0..200 {
            let mut c = Client::connect(server.local_addr()).unwrap();
            c.ping().unwrap();
        }
        // The acceptor reaps on its next poll tick after the last closed
        // connection's thread returns; only `live`'s thread stays tracked.
        let tracked = || server.shared.conn_threads.lock().len();
        for _ in 0..500 {
            if tracked() <= 1 {
                break;
            }
            std::thread::sleep(POLL_INTERVAL);
        }
        assert!(
            tracked() <= 1,
            "{} connection threads still tracked after 200 closed connections",
            tracked()
        );
        live.ping().unwrap();
        server.shutdown();
    }
}
