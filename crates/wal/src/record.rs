//! Binary log record format.
//!
//! Records are length-prefixed and checksummed so recovery can detect a torn
//! write at the log tail and stop cleanly:
//!
//! ```text
//! u32 len | u32 checksum | u8 tag | payload
//! ```
//!
//! The checksum is a simple FNV-1a over the tag+payload — adequate for
//! detecting torn writes (the failure mode that matters for a log whose
//! bytes are never rewritten once framed), not for adversarial corruption.
//! A body whose checksum matches is still read through a bounds-checked
//! cursor: one that is shorter or longer than its tag's fields is
//! [`WalError::Corrupt`], never a panic.
//!
//! Tag 8 is the writer's own *watermark frame*, never a [`LogRecord`]: a
//! fixed 17 bytes, `len = 9 | checksum | 8 | upto: u64`, naming the byte
//! offset below which a completed `fdatasync` made the log durable. A
//! group-commit log opens with a watermark of 0 and logs one after every
//! sync; recovery reads them to tell a torn tail from corruption
//! ([`crate::recovery`]).

use bytes::{BufMut, Bytes, BytesMut};

use crate::{WalError, WalResult};

/// All record kinds written to the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Redo record for one tail-record append: everything needed to replay
    /// the append into the range's tail pages. Undo is never needed
    /// (append-only, §5.1.3).
    TailAppend {
        /// Table the append belongs to.
        table_id: u32,
        /// Update range within the table.
        range_id: u32,
        /// Tail sequence number within the range (slot in tail pages).
        seq: u32,
        /// Transaction that performed the append.
        txn_id: u64,
        /// Base RID of the updated record.
        base_rid: u64,
        /// Back-pointer stored in the tail record's Indirection column.
        prev_rid: u64,
        /// Schema-encoding cell (bitmap + flags).
        schema_encoding: u64,
        /// Explicit column values `(column_index, value)`.
        columns: Vec<(u16, u64)>,
    },
    /// Redo record for an insert into table-level tail pages (§3.2).
    Insert {
        /// Table the insert belongs to.
        table_id: u32,
        /// Insert-range id.
        range_id: u32,
        /// Slot within the insert range.
        slot: u32,
        /// Inserting transaction.
        txn_id: u64,
        /// Full record values, one per data column.
        values: Vec<u64>,
    },
    /// Transaction commit, with its commit timestamp.
    Commit {
        /// Committing transaction.
        txn_id: u64,
        /// Commit timestamp from the global clock.
        commit_ts: u64,
    },
    /// Transaction abort (its appends become tombstones).
    Abort {
        /// Aborting transaction.
        txn_id: u64,
    },
    /// Operational record: a merge consolidated `range_id` up to `tps`.
    /// Idempotent — replay just re-runs the merge (§5.1.3).
    MergeCompleted {
        /// Table the merge belongs to.
        table_id: u32,
        /// Merged update range.
        range_id: u32,
        /// New tail-page sequence number (lineage watermark).
        tps: u64,
    },
    /// Operational record: historic tail pages of a range were compressed up
    /// to `seq` (§4.3). Idempotent for the same reason merges are.
    HistoricCompressed {
        /// Table the compression belongs to.
        table_id: u32,
        /// Affected update range.
        range_id: u32,
        /// Tail records strictly below this sequence were re-organized.
        below_seq: u64,
    },
    /// Checkpoint marker: recovery may skip records before the previous
    /// checkpoint pair once pages are persisted.
    Checkpoint {
        /// Clock value at checkpoint time.
        ts: u64,
    },
}

const TAG_TAIL_APPEND: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_MERGE: u8 = 5;
const TAG_HISTORIC: u8 = 6;
const TAG_CHECKPOINT: u8 = 7;
const TAG_WATERMARK: u8 = 8;

/// Bytes in a watermark frame (see module docs).
pub(crate) const WATERMARK_LEN: usize = 17;

fn fnv1a(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A bounds-checked big-endian cursor: a field that runs past the end of
/// the bytes is `Corrupt("short record")`.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> WalResult<[u8; N]> {
        let (field, rest) = self
            .0
            .split_first_chunk()
            .ok_or_else(|| WalError::Corrupt("short record".into()))?;
        self.0 = rest;
        Ok(*field)
    }

    fn u8(&mut self) -> WalResult<u8> {
        self.take().map(u8::from_be_bytes)
    }

    fn u16(&mut self) -> WalResult<u16> {
        self.take().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> WalResult<u32> {
        self.take().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> WalResult<u64> {
        self.take().map(u64::from_be_bytes)
    }

    /// A `u16` count, then that many items.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> WalResult<T>) -> WalResult<Vec<T>> {
        let n = self.u16()?;
        (0..n).map(|_| item(self)).collect()
    }
}

/// The whole frame at the front of `buf` as `(checksum, body)`, unchecked,
/// or `None` while `buf` holds less than a whole frame.
fn frame(buf: &[u8]) -> Option<(u32, &[u8])> {
    let mut header = Reader(buf);
    let len = header.u32().ok()? as usize;
    let checksum = header.u32().ok()?;
    Some((checksum, header.0.get(..len)?))
}

/// Whether the undecodable frame at the front of `buf` may be a torn write:
/// it runs to the end of `buf` and fails its checksum. A frame whose
/// checksum matches was written as it stands, so a body that does not
/// decode is corruption wherever it sits.
pub(crate) fn torn_at_end(buf: &[u8]) -> bool {
    match frame(buf) {
        Some((checksum, body)) => 8 + body.len() == buf.len() && fnv1a(body) != checksum,
        None => true,
    }
}

/// `body` behind its length and checksum.
fn framed(body: &[u8]) -> Vec<u8> {
    [
        &(body.len() as u32).to_be_bytes(),
        &fnv1a(body).to_be_bytes(),
        body,
    ]
    .concat()
}

/// The watermark frame naming `upto` (see module docs).
pub(crate) fn watermark(upto: u64) -> Vec<u8> {
    framed(&[&[TAG_WATERMARK][..], &upto.to_be_bytes()].concat())
}

/// The offset named by an intact watermark frame at `at` in the log `data`,
/// unless it names more than its own offset, which the writer never does
/// (so a forged frame cannot vouch for bytes after it). Cheap on bytes that
/// are not one.
pub(crate) fn watermark_at(data: &[u8], at: usize) -> Option<u64> {
    let frame = data.get(at..)?.first_chunk::<WATERMARK_LEN>()?;
    let upto = u64::from_be_bytes(*frame[9..].first_chunk()?);
    (frame[8] == TAG_WATERMARK && upto <= at as u64 && frame[..] == watermark(upto)).then_some(upto)
}

/// Offsets from `from` on at which `data` could hold a watermark frame: a
/// `0 0 0 9` length prefix with [`TAG_WATERMARK`] after the checksum. Every
/// offset [`watermark_at`] accepts is among them, found in one pass of
/// byte compares.
pub(crate) fn watermark_starts(data: &[u8], from: usize) -> impl Iterator<Item = usize> + '_ {
    let body_len = (WATERMARK_LEN - 8) as u8;
    let mut at = from;
    std::iter::from_fn(move || {
        while at + 8 < data.len() {
            let w = at;
            at += 1;
            if data[w + 3] == body_len
                && data[w + 8] == TAG_WATERMARK
                && data[w] | data[w + 1] | data[w + 2] == 0
            {
                return Some(w);
            }
        }
        None
    })
}

impl LogRecord {
    /// The transaction a record belongs to, when it belongs to one.
    pub fn txn_id(&self) -> Option<u64> {
        match self {
            LogRecord::TailAppend { txn_id, .. }
            | LogRecord::Insert { txn_id, .. }
            | LogRecord::Commit { txn_id, .. }
            | LogRecord::Abort { txn_id } => Some(*txn_id),
            _ => None,
        }
    }

    /// Serialize into a framed, checksummed byte buffer.
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::with_capacity(64);
        match self {
            LogRecord::TailAppend {
                table_id,
                range_id,
                seq,
                txn_id,
                base_rid,
                prev_rid,
                schema_encoding,
                columns,
            } => {
                body.put_u8(TAG_TAIL_APPEND);
                body.put_u32(*table_id);
                body.put_u32(*range_id);
                body.put_u32(*seq);
                body.put_u64(*txn_id);
                body.put_u64(*base_rid);
                body.put_u64(*prev_rid);
                body.put_u64(*schema_encoding);
                body.put_u16(columns.len() as u16);
                for (col, val) in columns {
                    body.put_u16(*col);
                    body.put_u64(*val);
                }
            }
            LogRecord::Insert {
                table_id,
                range_id,
                slot,
                txn_id,
                values,
            } => {
                body.put_u8(TAG_INSERT);
                body.put_u32(*table_id);
                body.put_u32(*range_id);
                body.put_u32(*slot);
                body.put_u64(*txn_id);
                body.put_u16(values.len() as u16);
                for v in values {
                    body.put_u64(*v);
                }
            }
            LogRecord::Commit { txn_id, commit_ts } => {
                body.put_u8(TAG_COMMIT);
                body.put_u64(*txn_id);
                body.put_u64(*commit_ts);
            }
            LogRecord::Abort { txn_id } => {
                body.put_u8(TAG_ABORT);
                body.put_u64(*txn_id);
            }
            LogRecord::MergeCompleted {
                table_id,
                range_id,
                tps,
            } => {
                body.put_u8(TAG_MERGE);
                body.put_u32(*table_id);
                body.put_u32(*range_id);
                body.put_u64(*tps);
            }
            LogRecord::HistoricCompressed {
                table_id,
                range_id,
                below_seq,
            } => {
                body.put_u8(TAG_HISTORIC);
                body.put_u32(*table_id);
                body.put_u32(*range_id);
                body.put_u64(*below_seq);
            }
            LogRecord::Checkpoint { ts } => {
                body.put_u8(TAG_CHECKPOINT);
                body.put_u64(*ts);
            }
        }
        framed(&body).into()
    }

    /// Decode one framed record from the front of `buf`. Returns the record
    /// and the number of bytes consumed, or `Ok(None)` when `buf` holds an
    /// incomplete (torn) frame.
    pub fn decode(buf: &[u8]) -> WalResult<Option<(LogRecord, usize)>> {
        let Some((checksum, body)) = frame(buf) else {
            return Ok(None); // torn tail
        };
        if fnv1a(body) != checksum {
            return Err(WalError::Corrupt("checksum mismatch".into()));
        }
        let mut b = Reader(body);
        let record = match b.u8()? {
            TAG_TAIL_APPEND => LogRecord::TailAppend {
                table_id: b.u32()?,
                range_id: b.u32()?,
                seq: b.u32()?,
                txn_id: b.u64()?,
                base_rid: b.u64()?,
                prev_rid: b.u64()?,
                schema_encoding: b.u64()?,
                columns: b.list(|b| Ok((b.u16()?, b.u64()?)))?,
            },
            TAG_INSERT => LogRecord::Insert {
                table_id: b.u32()?,
                range_id: b.u32()?,
                slot: b.u32()?,
                txn_id: b.u64()?,
                values: b.list(Reader::u64)?,
            },
            TAG_COMMIT => LogRecord::Commit {
                txn_id: b.u64()?,
                commit_ts: b.u64()?,
            },
            TAG_ABORT => LogRecord::Abort { txn_id: b.u64()? },
            TAG_MERGE => LogRecord::MergeCompleted {
                table_id: b.u32()?,
                range_id: b.u32()?,
                tps: b.u64()?,
            },
            TAG_HISTORIC => LogRecord::HistoricCompressed {
                table_id: b.u32()?,
                range_id: b.u32()?,
                below_seq: b.u64()?,
            },
            TAG_CHECKPOINT => LogRecord::Checkpoint { ts: b.u64()? },
            other => return Err(WalError::Corrupt(format!("unknown tag {other}"))),
        };
        if !b.0.is_empty() {
            return Err(WalError::Corrupt("bytes after the record's fields".into()));
        }
        Ok(Some((record, 8 + body.len())))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn samples() -> Vec<LogRecord> {
        vec![
            LogRecord::TailAppend {
                table_id: 1,
                range_id: 2,
                seq: 3,
                txn_id: 1 << 63 | 9,
                base_rid: 77,
                prev_rid: 76,
                schema_encoding: 0b0101,
                columns: vec![(0, 10), (2, 30)],
            },
            LogRecord::Insert {
                table_id: 1,
                range_id: 0,
                slot: 5,
                txn_id: 1 << 63 | 10,
                values: vec![1, 2, 3, 4],
            },
            LogRecord::Commit {
                txn_id: 1 << 63 | 9,
                commit_ts: 555,
            },
            LogRecord::Abort {
                txn_id: 1 << 63 | 10,
            },
            LogRecord::MergeCompleted {
                table_id: 1,
                range_id: 2,
                tps: 4096,
            },
            LogRecord::HistoricCompressed {
                table_id: 1,
                range_id: 2,
                below_seq: 2048,
            },
            LogRecord::Checkpoint { ts: 999 },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for r in samples() {
            let bytes = r.encode();
            let (back, used) = LogRecord::decode(&bytes).unwrap().unwrap();
            assert_eq!(back, r);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn stream_of_records_decodes_sequentially() {
        let mut stream = Vec::new();
        for r in samples() {
            stream.extend_from_slice(&r.encode());
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while let Some((r, used)) = LogRecord::decode(&stream[offset..]).unwrap() {
            decoded.push(r);
            offset += used;
        }
        assert_eq!(decoded, samples());
        assert_eq!(offset, stream.len());
    }

    #[test]
    fn torn_tail_returns_none() {
        let bytes = samples()[0].encode();
        for cut in 1..bytes.len() {
            let r = LogRecord::decode(&bytes[..cut]);
            assert!(matches!(r, Ok(None)), "cut to {cut}: {r:?}");
        }
    }

    /// `body` framed with its length and a matching checksum.
    pub(crate) fn reframe(body: &[u8]) -> Vec<u8> {
        let mut framed = Vec::with_capacity(8 + body.len());
        framed.extend_from_slice(&(body.len() as u32).to_be_bytes());
        framed.extend_from_slice(&fnv1a(body).to_be_bytes());
        framed.extend_from_slice(body);
        framed
    }

    #[test]
    fn checksum_valid_body_of_the_wrong_length_is_corrupt() {
        for r in samples() {
            let body = r.encode()[8..].to_vec();
            let long = [&body[..], &[0]].concat();
            for wrong in (0..body.len()).map(|cut| &body[..cut]).chain([&long[..]]) {
                let result = LogRecord::decode(&reframe(wrong));
                assert!(
                    matches!(result, Err(WalError::Corrupt(_))),
                    "{r:?} as {wrong:?}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn corrupted_body_detected() {
        let mut bytes = samples()[0].encode().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            LogRecord::decode(&bytes),
            Err(WalError::Corrupt(_))
        ));
    }
}
