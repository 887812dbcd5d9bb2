//! The length-prefixed binary wire protocol (see `docs/PROTOCOL.md`).
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload. The payload starts with a fixed 12-byte
//! header — magic byte, protocol version, message kind, flags, and a
//! `u64` request id — then a kind-specific body. Request ids are chosen
//! by the client and echoed verbatim on the response, so clients may
//! pipeline any number of requests per connection and match responses
//! out of order (the server completes requests batch-by-batch, not
//! arrival-by-arrival).
//!
//! All integers are little-endian. Strings are length-prefixed UTF-8.
//! Engine errors travel as [`ErrorParts`] — stable code, two numeric
//! payload slots, detail text — so they round-trip losslessly
//! (`Error::from_parts ∘ Error::to_parts` preserves every structured
//! variant; see `error_codes.rs` for the property test).

use lstore::{Error, ErrorParts, ReadRequest, ReadResponse};
use std::io::{self, Read, Write};

/// First payload byte of every frame: `b'L'` for L-Store.
pub const MAGIC: u8 = 0x4C;
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed header size: magic, version, kind, flags, request id.
pub const HEADER_LEN: usize = 12;
/// Upper bound on a frame payload; larger length prefixes are rejected
/// before any allocation (a corrupt or hostile peer cannot OOM the
/// server with one 4 GiB length word).
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Request kind bytes.
pub mod kind {
    /// Liveness probe; body empty.
    pub const PING: u8 = 1;
    /// Single point read.
    pub const READ: u8 = 2;
    /// Batched point reads sharing one column selection and snapshot.
    pub const MULTI_READ: u8 = 3;
    /// Response to [`PING`].
    pub const PONG: u8 = 0x81;
    /// Per-key results for a [`READ`] / [`MULTI_READ`].
    pub const RESULTS: u8 = 0x82;
    /// Request-level rejection (overload shed, queue timeout, protocol
    /// fault) — the request was not executed.
    pub const REJECTED: u8 = 0x83;
}

/// One decoded client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Single point read against `table`.
    Read {
        /// Target table name.
        table: String,
        /// The read to execute.
        request: ReadRequest,
    },
    /// Batched point reads against `table`, all sharing `columns` and
    /// `as_of` — the wire twin of [`lstore::Table::read_batch`].
    MultiRead {
        /// Target table name.
        table: String,
        /// Keys to read, answered in order.
        keys: Vec<u64>,
        /// Shared column selection (`None` = all value columns).
        columns: Option<Vec<u32>>,
        /// Shared snapshot timestamp (`None` = latest committed).
        as_of: Option<u64>,
    },
}

/// One decoded server→client message.
#[derive(Debug)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// Per-key results, in request key order. `Read` answers with exactly
    /// one entry.
    Results(Vec<lstore::Result<ReadResponse>>),
    /// The request was rejected without executing: [`Error::Overloaded`],
    /// [`Error::RequestTimeout`], or [`Error::Protocol`].
    Rejected(Error),
}

// ---------------------------------------------------------------------
// Little-endian encode helpers
// ---------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

fn put_error(buf: &mut Vec<u8>, err: &Error) {
    let ErrorParts { code, a, b, detail } = err.to_parts();
    put_u16(buf, code);
    put_u64(buf, a);
    put_u64(buf, b);
    put_str(buf, &detail);
}

/// Column-selection + snapshot spec shared by `Read` and `MultiRead`
/// bodies: a flags byte, then the optional fields it announces.
fn put_spec(buf: &mut Vec<u8>, columns: Option<&[u32]>, as_of: Option<u64>) {
    let mut flags = 0u8;
    if as_of.is_some() {
        flags |= 1;
    }
    if columns.is_some() {
        flags |= 2;
    }
    buf.push(flags);
    if let Some(ts) = as_of {
        put_u64(buf, ts);
    }
    if let Some(cols) = columns {
        put_u16(buf, cols.len() as u16);
        for &c in cols {
            put_u32(buf, c);
        }
    }
}

fn frame(kind_byte: u8, request_id: u64, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u32(&mut buf, 0); // length placeholder
    buf.push(MAGIC);
    buf.push(VERSION);
    buf.push(kind_byte);
    buf.push(0); // header flags, reserved
    put_u64(&mut buf, request_id);
    body(&mut buf);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Encode one request as a complete frame (length prefix included).
pub fn encode_request(request_id: u64, request: &Request) -> Vec<u8> {
    match request {
        Request::Ping => frame(kind::PING, request_id, |_| {}),
        Request::Read { table, request } => frame(kind::READ, request_id, |buf| {
            put_str(buf, table);
            put_spec(buf, request.columns.as_deref(), request.as_of);
            put_u64(buf, request.key);
        }),
        Request::MultiRead {
            table,
            keys,
            columns,
            as_of,
        } => frame(kind::MULTI_READ, request_id, |buf| {
            put_str(buf, table);
            put_spec(buf, columns.as_deref(), *as_of);
            put_u32(buf, keys.len() as u32);
            for &k in keys {
                put_u64(buf, k);
            }
        }),
    }
}

/// Encode one response as a complete frame (length prefix included).
pub fn encode_response(request_id: u64, response: &Response) -> Vec<u8> {
    match response {
        Response::Pong => frame(kind::PONG, request_id, |_| {}),
        Response::Results(results) => frame(kind::RESULTS, request_id, |buf| {
            put_u32(buf, results.len() as u32);
            for result in results {
                match result {
                    Ok(ReadResponse { values: Some(v) }) => {
                        buf.push(0);
                        put_u16(buf, v.len() as u16);
                        for &x in v {
                            put_u64(buf, x);
                        }
                    }
                    Ok(ReadResponse { values: None }) => buf.push(1),
                    Err(e) => {
                        buf.push(2);
                        put_error(buf, e);
                    }
                }
            }
        }),
        Response::Rejected(err) => frame(kind::REJECTED, request_id, |buf| put_error(buf, err)),
    }
}

// ---------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------

/// Unread bytes of one payload. Every read either consumes exactly the
/// bytes it names or returns `Error::Protocol`; nothing here can panic.
struct Cursor<'a> {
    rest: &'a [u8],
}

fn truncated(wanted: usize, had: usize) -> Error {
    Error::Protocol(format!(
        "truncated frame: wanted {wanted} more bytes, had {had}"
    ))
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let (out, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| truncated(n, self.rest.len()))?;
        self.rest = rest;
        Ok(out)
    }

    /// The next `N` bytes as an array: the fixed-size twin of [`Self::take`].
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let (out, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| truncated(N, self.rest.len()))?;
        self.rest = rest;
        Ok(*out)
    }

    fn u8(&mut self) -> Result<u8, Error> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u16(&mut self) -> Result<u16, Error> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn str(&mut self) -> Result<String, Error> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Protocol("string field is not UTF-8".into()))
    }

    fn error(&mut self) -> Result<Error, Error> {
        let code = self.u16()?;
        let a = self.u64()?;
        let b = self.u64()?;
        let detail = self.str()?;
        Ok(Error::from_parts(ErrorParts { code, a, b, detail }))
    }

    fn finish(self) -> Result<(), Error> {
        if !self.rest.is_empty() {
            return Err(Error::Protocol(format!(
                "{} trailing bytes after message body",
                self.rest.len()
            )));
        }
        Ok(())
    }
}

fn spec(c: &mut Cursor<'_>) -> Result<(Option<Vec<u32>>, Option<u64>), Error> {
    let flags = c.u8()?;
    if flags & !3 != 0 {
        return Err(Error::Protocol(format!("unknown spec flags {flags:#x}")));
    }
    let as_of = if flags & 1 != 0 { Some(c.u64()?) } else { None };
    let columns = if flags & 2 != 0 {
        let n = c.u16()? as usize;
        let mut cols = Vec::with_capacity(n);
        for _ in 0..n {
            cols.push(c.u32()?);
        }
        Some(cols)
    } else {
        None
    };
    Ok((columns, as_of))
}

fn header(c: &mut Cursor<'_>) -> Result<(u8, u64), Error> {
    let magic = c.u8()?;
    if magic != MAGIC {
        return Err(Error::Protocol(format!("bad magic byte {magic:#x}")));
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(Error::Protocol(format!(
            "unsupported protocol version {version} (this build speaks {VERSION})"
        )));
    }
    let kind_byte = c.u8()?;
    let _flags = c.u8()?;
    let request_id = c.u64()?;
    Ok((kind_byte, request_id))
}

/// Decode one request payload (frame contents after the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), Error> {
    let mut c = Cursor { rest: payload };
    let (kind_byte, request_id) = header(&mut c)?;
    let request = match kind_byte {
        kind::PING => Request::Ping,
        kind::READ => {
            let table = c.str()?;
            let (columns, as_of) = spec(&mut c)?;
            let key = c.u64()?;
            Request::Read {
                table,
                request: ReadRequest {
                    key,
                    columns,
                    as_of,
                },
            }
        }
        kind::MULTI_READ => {
            let table = c.str()?;
            let (columns, as_of) = spec(&mut c)?;
            let n = c.u32()? as usize;
            if n > MAX_FRAME_LEN / 8 {
                return Err(Error::Protocol(format!("absurd key count {n}")));
            }
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(c.u64()?);
            }
            Request::MultiRead {
                table,
                keys,
                columns,
                as_of,
            }
        }
        other => {
            return Err(Error::Protocol(format!("unknown request kind {other:#x}")));
        }
    };
    c.finish()?;
    Ok((request_id, request))
}

/// Decode one response payload (frame contents after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), Error> {
    let mut c = Cursor { rest: payload };
    let (kind_byte, request_id) = header(&mut c)?;
    let response = match kind_byte {
        kind::PONG => Response::Pong,
        kind::RESULTS => {
            let n = c.u32()? as usize;
            if n > MAX_FRAME_LEN {
                return Err(Error::Protocol(format!("absurd result count {n}")));
            }
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(match c.u8()? {
                    0 => {
                        let nvals = c.u16()? as usize;
                        let mut values = Vec::with_capacity(nvals);
                        for _ in 0..nvals {
                            values.push(c.u64()?);
                        }
                        Ok(ReadResponse::visible(values))
                    }
                    1 => Ok(ReadResponse::invisible()),
                    2 => Err(c.error()?),
                    t => {
                        return Err(Error::Protocol(format!("unknown result tag {t}")));
                    }
                });
            }
            Response::Results(results)
        }
        kind::REJECTED => Response::Rejected(c.error()?),
        other => {
            return Err(Error::Protocol(format!("unknown response kind {other:#x}")));
        }
    };
    c.finish()?;
    Ok((request_id, response))
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Write one already-encoded frame.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)
}

/// Read one frame payload. `Ok(None)` on clean EOF at a frame boundary;
/// `InvalidData` on an over-limit length prefix; `UnexpectedEof` on a
/// connection cut mid-frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection cut inside a frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if !(HEADER_LEN..=MAX_FRAME_LEN).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside [{HEADER_LEN}, {MAX_FRAME_LEN}]"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let frame = encode_request(7, &request);
        let (len_prefix, payload) = frame.split_at(4);
        assert_eq!(
            u32::from_le_bytes(len_prefix.try_into().unwrap()) as usize,
            payload.len()
        );
        let (id, back) = decode_request(payload).unwrap();
        assert_eq!(id, 7);
        assert_eq!(back, request);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Read {
            table: "t".into(),
            request: ReadRequest::latest(42),
        });
        round_trip_request(Request::Read {
            table: "t".into(),
            request: ReadRequest::as_of(42, 9).with_columns(vec![0, 3]),
        });
        round_trip_request(Request::MultiRead {
            table: "orders".into(),
            keys: vec![1, 2, 3, 2],
            columns: Some(vec![1]),
            as_of: None,
        });
        round_trip_request(Request::MultiRead {
            table: "orders".into(),
            keys: vec![],
            columns: None,
            as_of: Some(123),
        });
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response::Results(vec![
            Ok(ReadResponse::visible(vec![1, 2, 3])),
            Ok(ReadResponse::invisible()),
            Err(Error::KeyNotFound(9)),
            Err(Error::TableNotFound("ghost".into())),
        ]);
        let frame = encode_response(99, &resp);
        let (id, back) = decode_response(&frame[4..]).unwrap();
        assert_eq!(id, 99);
        match back {
            Response::Results(results) => {
                assert_eq!(results.len(), 4);
                assert_eq!(results[0].as_ref().unwrap().values, Some(vec![1, 2, 3]));
                assert_eq!(results[1].as_ref().unwrap().values, None);
                assert!(matches!(results[2], Err(Error::KeyNotFound(9))));
                assert!(matches!(&results[3], Err(Error::TableNotFound(name)) if name == "ghost"));
            }
            other => panic!("expected Results, got {other:?}"),
        }

        let frame = encode_response(1, &Response::Rejected(Error::Overloaded));
        match decode_response(&frame[4..]).unwrap() {
            (1, Response::Rejected(Error::Overloaded)) => {}
            other => panic!("expected Rejected(Overloaded), got {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_protocol_errors() {
        // Bad magic.
        let mut frame = encode_request(1, &Request::Ping);
        frame[4] = 0xFF;
        assert!(matches!(
            decode_request(&frame[4..]),
            Err(Error::Protocol(_))
        ));
        // Future version.
        let mut frame = encode_request(1, &Request::Ping);
        frame[5] = VERSION + 1;
        assert!(matches!(
            decode_request(&frame[4..]),
            Err(Error::Protocol(_))
        ));
        // Trailing garbage.
        let mut frame = encode_request(1, &Request::Ping);
        frame.push(0);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_request(&frame[4..]),
            Err(Error::Protocol(_))
        ));
    }

    /// Every error code the engine assigns, plus one it does not know.
    fn every_error() -> Vec<Error> {
        (1..=14)
            .chain([999])
            .map(|code| {
                Error::from_parts(ErrorParts {
                    code,
                    a: 3,
                    b: 5,
                    detail: "why".into(),
                })
            })
            .collect()
    }

    #[test]
    fn every_truncation_of_every_frame_is_a_protocol_error() {
        let requests = [
            Request::Ping,
            Request::Read {
                table: "t".into(),
                request: ReadRequest::latest(42),
            },
            Request::Read {
                table: "orders".into(),
                request: ReadRequest::as_of(42, 9).with_columns(vec![0, 3]),
            },
            Request::MultiRead {
                table: "orders".into(),
                keys: vec![1, 2, 3],
                columns: Some(vec![1]),
                as_of: Some(7),
            },
            Request::MultiRead {
                table: "t".into(),
                keys: vec![],
                columns: None,
                as_of: None,
            },
        ];
        let mut responses = vec![
            Response::Pong,
            Response::Results(vec![]),
            Response::Results(vec![
                Ok(ReadResponse::visible(vec![1, 2, 3])),
                Ok(ReadResponse::visible(vec![])),
                Ok(ReadResponse::invisible()),
            ]),
            Response::Results(every_error().into_iter().map(Err).collect()),
        ];
        responses.extend(every_error().into_iter().map(Response::Rejected));

        let frames = requests
            .iter()
            .map(|r| (true, encode_request(1, r)))
            .chain(responses.iter().map(|r| (false, encode_response(1, r))));
        for (is_request, frame) in frames {
            let payload = &frame[4..];
            for cut in 0..payload.len() {
                let err = if is_request {
                    decode_request(&payload[..cut]).err()
                } else {
                    decode_response(&payload[..cut]).err()
                };
                assert!(
                    matches!(err, Some(Error::Protocol(_))),
                    "{cut}-byte cut of {payload:?} gave {err:?}"
                );
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0];
        let err = read_frame(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
