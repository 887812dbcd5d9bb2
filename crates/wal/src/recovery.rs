//! Crash recovery: scan the redo log and rebuild engine state.
//!
//! §5.1.3: "Upon a crash, the redo log for tail pages are replayed, and for
//! any uncommitted transactions (or partial rollback), the tail record is
//! marked as invalid (e.g., tombstone) … one can simply rebuild the
//! Indirection column upon crash" using the Base RID column of tail records.
//!
//! Recovery is a pure scan of the one log file, in file order, producing a
//! [`RecoveredState`]: the engine (the `lstore` crate) replays it into
//! fresh tables. File order is enough: replay writes every tail record at
//! its logged sequence number, so neither commit records appended out of
//! timestamp order by concurrent committers nor interleaved merge records
//! change the result. Torn frames at the log tail end the scan cleanly;
//! checksum failures *before* the tail are reported as corruption, and so
//! is a frame anywhere whose checksum matches but whose body does not
//! decode.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;

use crate::record::{self, LogRecord};
use crate::{WalError, WalResult};

/// Everything recovery learns from the log.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// All records, in log order, with torn tails trimmed.
    pub records: Vec<LogRecord>,
    /// Transactions with a Commit record, and their commit timestamps.
    pub committed: HashMap<u64, u64>,
    /// Transactions with an Abort record.
    pub aborted: HashSet<u64>,
    /// Transactions that appended but neither committed nor aborted — their
    /// tail records become tombstones ("marked as invalid").
    pub in_flight: HashSet<u64>,
    /// Bytes of log consumed.
    pub bytes_scanned: usize,
    /// True when a torn (incomplete) frame terminated the scan.
    pub torn_tail: bool,
}

impl RecoveredState {
    /// Visibility decision for a replayed tail append: committed appends are
    /// replayed with their commit timestamp; everything else is a tombstone.
    pub fn commit_ts_of(&self, txn_id: u64) -> Option<u64> {
        self.committed.get(&txn_id).copied()
    }
}

/// Scan the log at `path` into a [`RecoveredState`], in file order.
///
/// A log whose `<path>.s1` sibling exists was written in the per-shard
/// layout of an older build, and the file at `path` holds only part of it:
/// it is refused as [`WalError::Corrupt`] rather than half-read.
pub fn recover(path: &Path) -> WalResult<RecoveredState> {
    let stream = crate::log::sibling(path, 1);
    if stream.exists() {
        return Err(WalError::Corrupt(format!(
            "{} is a stream of the per-shard log layout, which this build \
             does not read",
            stream.display()
        )));
    }
    let data = fs::read(path)?;
    recover_from_bytes(&data)
}

/// Scan an in-memory log image (separated for testing).
pub fn recover_from_bytes(data: &[u8]) -> WalResult<RecoveredState> {
    let mut state = RecoveredState::default();
    let mut offset = 0usize;
    while offset < data.len() {
        match LogRecord::decode(&data[offset..]) {
            Ok(Some((record, used))) => {
                offset += used;
                match record {
                    LogRecord::Commit { txn_id, commit_ts } => {
                        state.committed.insert(txn_id, commit_ts);
                    }
                    LogRecord::Abort { txn_id } => {
                        state.aborted.insert(txn_id);
                    }
                    _ => {}
                }
                state.records.push(record);
            }
            // A checksum failure at the very tail is indistinguishable from
            // a torn write; anything else is real corruption.
            Err(e) if !record::torn_at_end(&data[offset..]) => return Err(e),
            Ok(None) | Err(_) => {
                state.torn_tail = true;
                break;
            }
        }
    }
    state.bytes_scanned = offset;
    // Whatever logged but never resolved is in-flight (a resolution
    // record's own transaction is resolved).
    state.in_flight = state
        .records
        .iter()
        .filter_map(LogRecord::txn_id)
        .filter(|id| !state.committed.contains_key(id) && !state.aborted.contains(id))
        .collect();
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn append(stream: &mut Vec<u8>, r: &LogRecord) {
        stream.extend_from_slice(&r.encode());
    }

    const T1: u64 = 1 << 63 | 1;
    const T2: u64 = 1 << 63 | 2;
    const T3: u64 = 1 << 63 | 3;

    fn tail_append(txn_id: u64, seq: u32) -> LogRecord {
        LogRecord::TailAppend {
            table_id: 0,
            range_id: 0,
            seq,
            txn_id,
            base_rid: 5,
            prev_rid: 5,
            schema_encoding: 1,
            columns: vec![(0, seq as u64)],
        }
    }

    #[test]
    fn classifies_committed_aborted_inflight() {
        let mut stream = Vec::new();
        append(&mut stream, &tail_append(T1, 1));
        append(&mut stream, &tail_append(T2, 2));
        append(&mut stream, &tail_append(T3, 3));
        append(
            &mut stream,
            &LogRecord::Commit {
                txn_id: T1,
                commit_ts: 100,
            },
        );
        append(&mut stream, &LogRecord::Abort { txn_id: T2 });

        let state = recover_from_bytes(&stream).unwrap();
        assert_eq!(state.commit_ts_of(T1), Some(100));
        assert!(state.aborted.contains(&T2));
        assert_eq!(
            state.in_flight.iter().copied().collect::<Vec<_>>(),
            vec![T3]
        );
        assert!(!state.torn_tail);
        assert_eq!(state.bytes_scanned, stream.len());
    }

    #[test]
    fn torn_tail_is_trimmed_not_fatal() {
        let mut stream = Vec::new();
        append(&mut stream, &tail_append(T1, 1));
        append(
            &mut stream,
            &LogRecord::Commit {
                txn_id: T1,
                commit_ts: 9,
            },
        );
        let full = stream.len();
        append(&mut stream, &tail_append(T2, 2));
        // Tear the final record in half, or keep its length whole and
        // change its body after it was checksummed.
        let mut changed = stream.clone();
        changed[stream.len() - 1] ^= 0xFF;
        stream.truncate(full + 10);

        for torn in [stream, changed] {
            let state = recover_from_bytes(&torn).unwrap();
            assert!(state.torn_tail);
            assert_eq!(state.records.len(), 2);
            assert_eq!(state.bytes_scanned, full);
        }
    }

    #[test]
    fn mid_log_corruption_is_fatal() {
        let mut stream = Vec::new();
        append(&mut stream, &tail_append(T1, 1));
        let first = stream.len();
        append(
            &mut stream,
            &LogRecord::Commit {
                txn_id: T1,
                commit_ts: 9,
            },
        );
        append(&mut stream, &tail_append(T2, 2));
        append(
            &mut stream,
            &LogRecord::Commit {
                txn_id: T2,
                commit_ts: 10,
            },
        );
        // Flip a byte inside the *first* record's body.
        stream[first - 2] ^= 0xFF;
        assert!(recover_from_bytes(&stream).is_err());
    }

    #[test]
    fn checksum_valid_short_frame_at_the_end_is_an_error() {
        let mut stream = Vec::new();
        append(&mut stream, &tail_append(T1, 1));
        // An abort's tag alone, framed with a checksum that matches: not a
        // torn write, so not trimmed as one.
        let abort = LogRecord::Abort { txn_id: T1 }.encode();
        stream.extend_from_slice(&crate::record::tests::reframe(&abort[8..9]));
        let path =
            std::env::temp_dir().join(format!("lstore-short-frame-{}.wal", std::process::id()));
        std::fs::write(&path, &stream).unwrap();
        let result = recover(&path);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(result, Err(WalError::Corrupt(_))), "{result:?}");
    }

    #[test]
    fn empty_log_recovers_empty() {
        let state = recover_from_bytes(&[]).unwrap();
        assert!(state.records.is_empty());
        assert!(state.in_flight.is_empty());
    }
}
