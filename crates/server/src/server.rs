//! The service tier: a TCP acceptor, per-connection reader/writer threads,
//! and one dispatcher.
//!
//! Connection readers enqueue decoded point-read requests on one shared
//! queue. The dispatcher thread sleeps while that queue is empty; the
//! moment it is free it takes everything queued (at most `MAX_BATCH` = 256
//! requests), merges requests with the same `(table, columns, as_of)`
//! signature into one [`Table::read_batch`] call — which sorts,
//! deduplicates, and fans out across the engine's unified task pool — and
//! scatters the per-key results back to their originating connections. A
//! lone request is dispatched at once; requests that arrive while a batch
//! executes form the next batch, so batches grow exactly as fast as load
//! outruns the executor and nothing reads a clock to decide when to run.
//!
//! Backpressure is a bounded in-flight budget: a request admitted past
//! `max_inflight` outstanding ones is answered immediately with
//! [`Error::Overloaded`] instead of queueing unboundedly, and a request
//! that sits queued past `request_timeout` is dropped with
//! [`Error::RequestTimeout`] when the dispatcher reaches it — the client
//! hears "shed, retry elsewhere/later", never silence.
//!
//! [`Table::read_batch`]: lstore::Table::read_batch

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lstore::{Database, Error, ReadResponse};
use parking_lot::{Condvar, Mutex};

use crate::protocol::{self, Request, Response, HEADER_LEN, MAX_FRAME_LEN};

/// Service-tier configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bounded in-flight request budget: admissions beyond this many
    /// outstanding requests shed with [`Error::Overloaded`].
    pub max_inflight: usize,
    /// Per-request queue deadline: a request still unexecuted this long
    /// after arrival is answered with [`Error::RequestTimeout`]. `None`
    /// disables the deadline.
    pub request_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_inflight: 4096,
            request_timeout: Some(Duration::from_secs(1)),
        }
    }
}

/// Monotonic service-tier counters (snapshot via [`Server::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Read/multi-read requests admitted past the budget.
    pub admitted: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Requests dropped with `RequestTimeout`.
    pub timed_out: u64,
    /// Engine batches the dispatcher executed.
    pub batches: u64,
    /// Requests served through those batches.
    pub batched_requests: u64,
    /// Requests per executed batch, log₂-bucketed: bucket `i` counts
    /// batches of `2^i ..= 2^(i+1) - 1` requests.
    pub batch_size_log2: [u64; HIST_BUCKETS],
    /// Microseconds each request sat queued before the dispatcher took
    /// it, log₂-bucketed the same way (bucket 0 also holds 0 µs, the last
    /// bucket everything from `2^15` µs up).
    pub queue_wait_us_log2: [u64; HIST_BUCKETS],
}

/// Buckets per [`ServerStats`] histogram.
const HIST_BUCKETS: usize = 16;

fn log2_bucket(value: u64) -> usize {
    ((value | 1).ilog2() as usize).min(HIST_BUCKETS - 1)
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    batch_size_log2: [AtomicU64; HIST_BUCKETS],
    queue_wait_us_log2: [AtomicU64; HIST_BUCKETS],
}

/// One admitted request waiting for (or undergoing) execution.
struct Pending {
    writer: Arc<ConnWriter>,
    request_id: u64,
    table: String,
    keys: Vec<u64>,
    columns: Option<Vec<u32>>,
    as_of: Option<u64>,
    arrived: Instant,
}

/// Outbound frame queue of one connection, drained by its writer thread.
/// Readers and the dispatcher push encoded frames; the writer thread owns
/// the socket's write half, so response order within a connection is
/// whatever completion order was — request ids do the matching.
struct ConnWriter {
    frames: Mutex<Vec<Vec<u8>>>,
    cv: Condvar,
    done: AtomicBool,
}

impl ConnWriter {
    fn new() -> ConnWriter {
        ConnWriter {
            frames: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
        }
    }

    fn push(&self, frame: Vec<u8>) {
        self.frames.lock().push(frame);
        self.cv.notify_one();
    }

    fn close(&self) {
        self.done.store(true, Ordering::Release);
        self.cv.notify_one();
    }
}

struct Shared {
    db: Arc<Database>,
    config: ServerConfig,
    stop: AtomicBool,
    inflight: AtomicUsize,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    counters: Counters,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running service tier. Dropping (or [`Server::shutdown`]) stops the
/// acceptor and dispatcher and joins every connection thread.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    core_threads: Mutex<Vec<JoinHandle<()>>>,
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
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            counters: Counters::default(),
            conn_threads: Mutex::new(Vec::new()),
        });
        let mut core = Vec::new();
        let s = Arc::clone(&shared);
        core.push(
            std::thread::Builder::new()
                .name("lstore-dispatcher".into())
                .spawn(move || dispatcher_loop(&s))?,
        );
        let s = Arc::clone(&shared);
        core.push(
            std::thread::Builder::new()
                .name("lstore-acceptor".into())
                .spawn(move || acceptor_loop(&s, listener))?,
        );
        Ok(Server {
            shared,
            addr,
            core_threads: Mutex::new(core),
        })
    }

    /// The bound address (resolves port-0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the service-tier counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        let hist = |h: &[AtomicU64; HIST_BUCKETS]| h.each_ref().map(|b| b.load(Ordering::Relaxed));
        ServerStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            timed_out: c.timed_out.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_requests: c.batched_requests.load(Ordering::Relaxed),
            batch_size_log2: hist(&c.batch_size_log2),
            queue_wait_us_log2: hist(&c.queue_wait_us_log2),
        }
    }

    /// Stop accepting, wake the dispatcher, and join every thread. The
    /// dispatcher finishes the batch it is executing and leaves whatever
    /// is still queued unanswered; those clients see their connection
    /// close. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            // Under the queue lock, so the dispatcher is either before its
            // stop check or already parked — never between the two.
            let _queue = self.shared.queue.lock();
            self.shared.stop.store(true, Ordering::Release);
        }
        self.shared.queue_cv.notify_all();
        for handle in self.core_threads.lock().drain(..) {
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

/// How long blocked reads (and the accept poll) sleep before re-checking
/// the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    while !shared.stop.load(Ordering::Acquire) {
        // Connections that closed since the last tick: both their threads
        // have returned, so dropping the handles loses nothing.
        shared.conn_threads.lock().retain(|h| !h.is_finished());
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Err(e) = spawn_connection(shared, stream) {
                    // Socket setup failed (peer already gone, fd limits);
                    // drop the connection, keep serving.
                    let _ = e;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn spawn_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let write_half = stream.try_clone()?;
    let writer = Arc::new(ConnWriter::new());
    let mut handles = shared.conn_threads.lock();
    let w = Arc::clone(&writer);
    handles.push(
        std::thread::Builder::new()
            .name("lstore-conn-writer".into())
            .spawn(move || writer_loop(&w, write_half))?,
    );
    let s = Arc::clone(shared);
    handles.push(
        std::thread::Builder::new()
            .name("lstore-conn-reader".into())
            .spawn(move || {
                reader_loop(&s, stream, &writer);
                writer.close();
            })?,
    );
    Ok(())
}

fn writer_loop(writer: &ConnWriter, mut stream: TcpStream) {
    use std::io::Write;
    loop {
        let batch = {
            let mut frames = writer.frames.lock();
            while frames.is_empty() {
                if writer.done.load(Ordering::Acquire) {
                    return;
                }
                writer.cv.wait(&mut frames);
            }
            std::mem::take(&mut *frames)
        };
        for frame in batch {
            if stream.write_all(&frame).is_err() {
                // Peer gone: drain silently until the reader notices EOF
                // and closes us.
                writer.done.store(true, Ordering::Release);
                return;
            }
        }
    }
}

fn reader_loop(shared: &Arc<Shared>, mut stream: TcpStream, writer: &Arc<ConnWriter>) {
    loop {
        let payload = match read_frame_interruptible(&mut stream, &shared.stop) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        match protocol::decode_request(&payload) {
            Ok((id, Request::Ping)) => {
                writer.push(protocol::encode_response(id, &Response::Pong));
            }
            Ok((id, Request::Read { table, request })) => {
                let keys = vec![request.key];
                submit(
                    shared,
                    writer,
                    id,
                    table,
                    keys,
                    request.columns,
                    request.as_of,
                );
            }
            Ok((
                id,
                Request::MultiRead {
                    table,
                    keys,
                    columns,
                    as_of,
                },
            )) => {
                submit(shared, writer, id, table, keys, columns, as_of);
            }
            Err(e) => {
                // The frame was well-delimited but unspeakable. Framing is
                // still sound, yet the peer is confused (or hostile):
                // answer with the protocol error and drop the connection.
                writer.push(protocol::encode_response(0, &Response::Rejected(e)));
                return;
            }
        }
    }
}

/// Admit one read request past the in-flight budget, then hand it to the
/// dispatcher's queue.
#[allow(clippy::too_many_arguments)]
fn submit(
    shared: &Arc<Shared>,
    writer: &Arc<ConnWriter>,
    request_id: u64,
    table: String,
    keys: Vec<u64>,
    columns: Option<Vec<u32>>,
    as_of: Option<u64>,
) {
    let prev = shared.inflight.fetch_add(1, Ordering::AcqRel);
    if prev >= shared.config.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        writer.push(protocol::encode_response(
            request_id,
            &Response::Rejected(Error::Overloaded),
        ));
        return;
    }
    shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
    shared.queue.lock().push_back(Pending {
        writer: Arc::clone(writer),
        request_id,
        table,
        keys,
        columns,
        as_of,
        arrived: Instant::now(),
    });
    shared.queue_cv.notify_one();
}

/// Encode + enqueue a response and release the request's budget slot.
fn respond(shared: &Shared, pending: &Pending, response: &Response) {
    pending
        .writer
        .push(protocol::encode_response(pending.request_id, response));
    shared.inflight.fetch_sub(1, Ordering::AcqRel);
}

// ---------------------------------------------------------------------
// The dispatcher
// ---------------------------------------------------------------------

/// Most requests one batch takes off the queue.
const MAX_BATCH: usize = 256;

/// Sleep while the queue is empty; take everything queued (at most
/// [`MAX_BATCH`]); execute; repeat. Whatever arrives while a batch
/// executes is the next batch, so closed-loop clients batch exactly as
/// deeply as they outrun the executor and an idle server answers a lone
/// request at once.
fn dispatcher_loop(shared: &Shared) {
    loop {
        let batch: Vec<Pending> = {
            let mut queue = shared.queue.lock();
            loop {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                if !queue.is_empty() {
                    break;
                }
                shared.queue_cv.wait(&mut queue);
            }
            let n = queue.len().min(MAX_BATCH);
            queue.drain(..n).collect()
        };
        execute_batch(shared, batch);
    }
}

/// Execute one batch: drop timed-out requests, merge the rest by
/// `(table, columns, as_of)` signature into one engine batch each, and
/// scatter results back per request.
fn execute_batch(shared: &Shared, batch: Vec<Pending>) {
    let mut live: Vec<Pending> = Vec::with_capacity(batch.len());
    for pending in batch {
        let waited = pending.arrived.elapsed();
        shared.counters.queue_wait_us_log2[log2_bucket(waited.as_micros() as u64)]
            .fetch_add(1, Ordering::Relaxed);
        match shared.config.request_timeout {
            Some(deadline) if waited > deadline => {
                shared.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                respond(shared, &pending, &Response::Rejected(Error::RequestTimeout));
            }
            _ => live.push(pending),
        }
    }
    if live.is_empty() {
        return;
    }
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .batched_requests
        .fetch_add(live.len() as u64, Ordering::Relaxed);
    shared.counters.batch_size_log2[log2_bucket(live.len() as u64)].fetch_add(1, Ordering::Relaxed);

    // Group member indices by execution signature.
    type Signature<'a> = (&'a str, Option<&'a [u32]>, Option<u64>);
    let mut index: HashMap<Signature<'_>, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, p) in live.iter().enumerate() {
        let sig = (p.table.as_str(), p.columns.as_deref(), p.as_of);
        let g = *index.entry(sig).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }

    // One engine batch per signature; results split back per member.
    let mut results: Vec<Vec<lstore::Result<ReadResponse>>> =
        live.iter().map(|_| Vec::new()).collect();
    for members in &groups {
        let first = &live[members[0]];
        let keys: Vec<u64> = members
            .iter()
            .flat_map(|&i| live[i].keys.iter().copied())
            .collect();
        let outs = match shared.db.table_or_err(&first.table) {
            Ok(t) => t.read_batch(&keys, first.columns.as_deref(), first.as_of),
            Err(_) => keys
                .iter()
                .map(|_| Err(Error::TableNotFound(first.table.clone())))
                .collect(),
        };
        let mut iter = outs.into_iter();
        for &i in members {
            let n = live[i].keys.len();
            results[i] = iter.by_ref().take(n).collect();
        }
    }
    for (pending, result) in live.iter().zip(results) {
        respond(shared, pending, &Response::Results(result));
    }
}

// ---------------------------------------------------------------------
// Interruptible frame reads
// ---------------------------------------------------------------------

fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// [`protocol::read_frame`] with stop-flag polling: the socket has a read
/// timeout, and partial reads accumulate in our buffer across timeouts —
/// a poll tick can never lose frame sync.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    stop: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match stream.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                }
            }
            Ok(n) => filled += n,
            Err(e) if is_poll_timeout(&e) => {
                if stop.load(Ordering::Acquire) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if !(HEADER_LEN..=MAX_FRAME_LEN).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside [{HEADER_LEN}, {MAX_FRAME_LEN}]"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if is_poll_timeout(&e) => {
                if stop.load(Ordering::Acquire) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use lstore::DbConfig;

    #[test]
    fn log2_buckets_cover_zero_to_overflow() {
        let buckets: Vec<usize> = [0, 1, 2, 3, 4, 255, 256, 32_767, 32_768, u64::MAX]
            .into_iter()
            .map(log2_bucket)
            .collect();
        assert_eq!(buckets, [0, 0, 1, 1, 2, 7, 8, 14, 15, 15]);
    }

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
        // The acceptor reaps on its next poll tick after the last pair of
        // threads returns; only `live`'s reader and writer stay tracked.
        let tracked = || server.shared.conn_threads.lock().len();
        for _ in 0..500 {
            if tracked() <= 2 {
                break;
            }
            std::thread::sleep(POLL_INTERVAL);
        }
        assert!(
            tracked() <= 2,
            "{} connection threads still tracked after 200 closed connections",
            tracked()
        );
        live.ping().unwrap();
        server.shutdown();
    }
}
