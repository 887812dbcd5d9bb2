//! Synchronous wire client.
//!
//! One [`Client`] wraps one TCP connection. The blocking convenience
//! calls ([`Client::read`], [`Client::multi_read`], [`Client::ping`])
//! send one request and wait for its response; the split
//! `send_*`/[`Client::recv`] pair pipelines — any number of requests may
//! be in flight, and responses are matched by request id (the server
//! completes requests batch-by-batch, so pipelined responses can arrive
//! out of order).

use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use lstore::{Error, ReadRequest, ReadResponse};

use crate::protocol::{self, read_frame, Request, Response};

/// Client-side failure: transport, framing, or a server-side rejection.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connection reset, unexpected EOF, …).
    Io(io::Error),
    /// The server's bytes could not be decoded.
    Protocol(String),
    /// The server rejected the request without executing it
    /// ([`Error::Overloaded`], [`Error::RequestTimeout`], or a protocol
    /// complaint about our request).
    Rejected(Error),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            ClientError::Rejected(e) => write!(f, "request rejected: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Rejected(e) => Some(e),
            ClientError::Protocol(_) => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One decoded server reply, paired with its request id by
/// [`Client::recv`].
#[derive(Debug)]
pub enum Reply {
    /// Per-key results, in the order the request named its keys.
    Results(Vec<lstore::Result<ReadResponse>>),
    /// The request was shed or timed out before execution.
    Rejected(Error),
    /// Answer to a ping.
    Pong,
}

/// A synchronous connection to an L-Store server.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connect and disable Nagle (requests are latency-bound small
    /// frames).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            next_id: 0,
        })
    }

    fn send(&mut self, request: &Request) -> Result<u64, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        self.writer
            .write_all(&protocol::encode_request(id, request))?;
        Ok(id)
    }

    /// Pipeline a single-key read; returns its request id.
    pub fn send_read(&mut self, table: &str, request: &ReadRequest) -> Result<u64, ClientError> {
        self.send(&Request::Read {
            table: table.to_string(),
            request: request.clone(),
        })
    }

    /// Pipeline a batched read sharing one column selection and snapshot;
    /// returns its request id.
    pub fn send_multi_read(
        &mut self,
        table: &str,
        keys: &[u64],
        columns: Option<&[u32]>,
        as_of: Option<u64>,
    ) -> Result<u64, ClientError> {
        self.send(&Request::MultiRead {
            table: table.to_string(),
            keys: keys.to_vec(),
            columns: columns.map(<[u32]>::to_vec),
            as_of,
        })
    }

    /// Receive the next reply (any pipelined request's; match by id).
    pub fn recv(&mut self) -> Result<(u64, Reply), ClientError> {
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        let (id, response) = protocol::decode_response(&payload)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        let reply = match response {
            Response::Results(results) => Reply::Results(results),
            Response::Rejected(err) => Reply::Rejected(err),
            Response::Pong => Reply::Pong,
        };
        Ok((id, reply))
    }

    /// Await the reply for `want_id`, erroring on anything unexpected
    /// (the blocking convenience calls keep exactly one request in
    /// flight, so replies cannot legitimately interleave).
    fn recv_for(&mut self, want_id: u64) -> Result<Vec<lstore::Result<ReadResponse>>, ClientError> {
        let (id, reply) = self.recv()?;
        if id != want_id {
            return Err(ClientError::Protocol(format!(
                "response id {id} does not match request id {want_id}"
            )));
        }
        match reply {
            Reply::Results(results) => Ok(results),
            Reply::Rejected(err) => Err(ClientError::Rejected(err)),
            Reply::Pong => Err(ClientError::Protocol("unexpected pong".into())),
        }
    }

    /// Blocking single-key read: the remote twin of
    /// [`lstore::Table::read_one`]. The outer `Result` is the transport;
    /// the inner one is the engine's per-key verdict.
    pub fn read(
        &mut self,
        table: &str,
        request: &ReadRequest,
    ) -> Result<lstore::Result<ReadResponse>, ClientError> {
        let id = self.send_read(table, request)?;
        match <[_; 1]>::try_from(self.recv_for(id)?) {
            Ok([result]) => Ok(result),
            Err(results) => Err(ClientError::Protocol(format!(
                "single read answered with {} results",
                results.len()
            ))),
        }
    }

    /// Blocking batched read: the remote twin of
    /// [`lstore::Table::read_batch`], one result per key in order.
    pub fn multi_read(
        &mut self,
        table: &str,
        keys: &[u64],
        columns: Option<&[u32]>,
        as_of: Option<u64>,
    ) -> Result<Vec<lstore::Result<ReadResponse>>, ClientError> {
        let id = self.send_multi_read(table, keys, columns, as_of)?;
        let results = self.recv_for(id)?;
        if results.len() != keys.len() {
            return Err(ClientError::Protocol(format!(
                "{} keys answered with {} results",
                keys.len(),
                results.len()
            )));
        }
        Ok(results)
    }

    /// Blocking liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let id = self.send(&Request::Ping)?;
        let (got, reply) = self.recv()?;
        match reply {
            Reply::Pong if got == id => Ok(()),
            Reply::Pong => Err(ClientError::Protocol(format!(
                "pong id {got} does not match ping id {id}"
            ))),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }
}
