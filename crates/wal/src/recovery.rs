//! Crash recovery: scan the redo log and rebuild engine state.
//!
//! §5.1.3: "Upon a crash, the redo log for tail pages are replayed, and for
//! any uncommitted transactions (or partial rollback), the tail record is
//! marked as invalid (e.g., tombstone) … one can simply rebuild the
//! Indirection column upon crash" using the Base RID column of tail records.
//!
//! Recovery is a pure log scan producing a [`RecoveredState`]: the engine
//! (the `lstore` crate) replays it into fresh tables. Torn frames at the log
//! tail end the scan cleanly; checksum failures *before* the tail are
//! reported as corruption.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::Path;

use crate::record::LogRecord;
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

/// Scan the log at `path` into a [`RecoveredState`].
pub fn recover(path: &Path) -> WalResult<RecoveredState> {
    let data = fs::read(path)?;
    recover_from_bytes(&data)
}

/// Recover the log rooted at `base`. The writer keeps everything in the
/// base file; a build that still split the log per shard left `<base>.s<i>`
/// siblings beside it (see [`crate::sharded`]), and those are read too:
/// streams are scanned independently and merged by commit timestamp.
pub fn recover_merged(base: &Path) -> WalResult<RecoveredState> {
    let mut streams = vec![fs::read(base)?];
    let mut i = 1;
    loop {
        let path = crate::sharded::stream_path(base, i);
        if !path.exists() {
            break;
        }
        streams.push(fs::read(&path)?);
        i += 1;
    }
    recover_merged_bytes(&streams)
}

/// Merge per-shard stream images into one [`RecoveredState`] (separated
/// from [`recover_merged`] for testing).
///
/// Commit/abort classification is global — a transaction's appends and its
/// commit record may live in different streams. Record order is rebuilt by
/// a stable sort on **commit timestamp**: every record of a committed
/// transaction sorts at that transaction's commit timestamp, operational
/// records (merge/compression/checkpoint markers) at the timestamp of the
/// last commit preceding them in their stream, and unresolved transactions'
/// records at the end (replay tombstones them regardless of position). The
/// sort is stable over (stream, in-stream position), and within one stream
/// a record's governing commit timestamp is what ordered it originally —
/// the global clock hands out commit timestamps in real-time order — so
/// per-key append order (insert before its updates, updates in commit
/// order) is preserved exactly as a single merged stream would have it.
pub fn recover_merged_bytes(streams: &[Vec<u8>]) -> WalResult<RecoveredState> {
    let mut per_stream = Vec::with_capacity(streams.len());
    for data in streams {
        per_stream.push(recover_from_bytes(data)?);
    }
    let mut merged = RecoveredState::default();
    for state in &per_stream {
        merged.committed.extend(state.committed.iter());
        merged.aborted.extend(state.aborted.iter().copied());
        merged.bytes_scanned += state.bytes_scanned;
        merged.torn_tail |= state.torn_tail;
    }
    // Sort key per record: the governing transaction's commit timestamp
    // (u64::MAX when unresolved), carried forward for operational records.
    let mut keyed: Vec<(u64, usize, usize, LogRecord)> = Vec::new();
    for (stream_idx, state) in per_stream.into_iter().enumerate() {
        let mut watermark = 0u64;
        for (pos, record) in state.records.into_iter().enumerate() {
            let ts = match record.txn_id() {
                Some(txn_id) => merged.committed.get(&txn_id).copied().unwrap_or(u64::MAX),
                None => watermark,
            };
            if ts != u64::MAX {
                watermark = watermark.max(ts);
            }
            keyed.push((ts, stream_idx, pos, record));
        }
    }
    keyed.sort_by_key(|&(ts, stream, pos, _)| (ts, stream, pos));
    merged.records = keyed.into_iter().map(|(_, _, _, r)| r).collect();
    // Whatever appended but never resolved (in any stream) is in-flight.
    let resolved: HashSet<u64> = merged
        .committed
        .keys()
        .chain(merged.aborted.iter())
        .copied()
        .collect();
    merged.in_flight = merged
        .records
        .iter()
        .filter_map(|r| match r {
            LogRecord::TailAppend { txn_id, .. } | LogRecord::Insert { txn_id, .. } => {
                Some(*txn_id)
            }
            _ => None,
        })
        .filter(|id| !resolved.contains(id))
        .collect();
    Ok(merged)
}

/// Scan an in-memory log image (separated for testing).
pub fn recover_from_bytes(data: &[u8]) -> WalResult<RecoveredState> {
    let mut state = RecoveredState::default();
    let mut offset = 0usize;
    while offset < data.len() {
        match LogRecord::decode(&data[offset..]) {
            Ok(Some((record, used))) => {
                offset += used;
                track(&mut state, &record);
                state.records.push(record);
            }
            Ok(None) => {
                state.torn_tail = true;
                break;
            }
            Err(WalError::Corrupt(m)) => {
                // A checksum failure at the very tail is indistinguishable
                // from a torn write; anywhere else it is real corruption.
                if is_plausible_tail(data, offset) {
                    state.torn_tail = true;
                    break;
                }
                return Err(WalError::Corrupt(m));
            }
            Err(e) => return Err(e),
        }
    }
    state.bytes_scanned = offset;
    // Whatever appended but never resolved is in-flight.
    let resolved: HashSet<u64> = state
        .committed
        .keys()
        .chain(state.aborted.iter())
        .copied()
        .collect();
    state.in_flight = state
        .records
        .iter()
        .filter_map(|r| match r {
            LogRecord::TailAppend { txn_id, .. } | LogRecord::Insert { txn_id, .. } => {
                Some(*txn_id)
            }
            _ => None,
        })
        .filter(|id| !resolved.contains(id))
        .collect();
    Ok(state)
}

fn track(state: &mut RecoveredState, record: &LogRecord) {
    match record {
        LogRecord::Commit { txn_id, commit_ts } => {
            state.committed.insert(*txn_id, *commit_ts);
        }
        LogRecord::Abort { txn_id } => {
            state.aborted.insert(*txn_id);
        }
        _ => {}
    }
}

/// Heuristic: the failing frame extends to the end of the file, so it could
/// have been torn mid-write.
fn is_plausible_tail(data: &[u8], offset: usize) -> bool {
    if data.len() - offset < 8 {
        return true;
    }
    let len = u32::from_be_bytes(data[offset..offset + 4].try_into().unwrap()) as usize;
    offset + 8 + len >= data.len()
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
        // Tear the final record in half.
        stream.truncate(full + 10);

        let state = recover_from_bytes(&stream).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.records.len(), 2);
        assert_eq!(state.bytes_scanned, full);
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
    fn empty_log_recovers_empty() {
        let state = recover_from_bytes(&[]).unwrap();
        assert!(state.records.is_empty());
        assert!(state.in_flight.is_empty());
    }

    #[test]
    fn merged_streams_classify_globally_and_order_by_commit_ts() {
        // T1 commits in stream 0 but appended to both streams; T2 appends
        // in stream 1 and never resolves; T3 aborts in stream 1.
        let mut s0 = Vec::new();
        let mut s1 = Vec::new();
        append(&mut s0, &tail_append(T1, 1));
        append(&mut s1, &tail_append(T1, 2));
        append(&mut s1, &tail_append(T2, 3));
        append(&mut s1, &tail_append(T3, 4));
        append(&mut s1, &LogRecord::Abort { txn_id: T3 });
        append(
            &mut s0,
            &LogRecord::Commit {
                txn_id: T1,
                commit_ts: 100,
            },
        );

        let state = recover_merged_bytes(&[s0, s1]).unwrap();
        assert_eq!(state.commit_ts_of(T1), Some(100));
        assert!(state.aborted.contains(&T3));
        assert_eq!(
            state.in_flight.iter().copied().collect::<Vec<_>>(),
            vec![T2],
            "unresolved-in-any-stream is in-flight"
        );
        // Committed records sort before unresolved ones; T1's two appends
        // keep stream order within the same commit timestamp.
        let t1_positions: Vec<usize> = state
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.txn_id() == Some(T1))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(t1_positions, vec![0, 1, 2], "T1 fully ahead of unresolved");
    }

    #[test]
    fn merged_streams_order_cross_stream_commits_by_timestamp() {
        // Stream 1's transaction committed first (ts 5), stream 0's second
        // (ts 9): the merge interleaves by commit timestamp, not stream
        // index.
        let mut s0 = Vec::new();
        let mut s1 = Vec::new();
        append(&mut s0, &tail_append(T1, 1));
        append(
            &mut s0,
            &LogRecord::Commit {
                txn_id: T1,
                commit_ts: 9,
            },
        );
        append(&mut s1, &tail_append(T2, 2));
        append(
            &mut s1,
            &LogRecord::Commit {
                txn_id: T2,
                commit_ts: 5,
            },
        );
        let state = recover_merged_bytes(&[s0, s1]).unwrap();
        let txn_order: Vec<u64> = state.records.iter().filter_map(|r| r.txn_id()).collect();
        assert_eq!(txn_order, vec![T2, T2, T1, T1]);
        assert!(!state.torn_tail);
    }

    #[test]
    fn merged_streams_tolerate_one_torn_tail() {
        let mut s0 = Vec::new();
        append(&mut s0, &tail_append(T1, 1));
        append(
            &mut s0,
            &LogRecord::Commit {
                txn_id: T1,
                commit_ts: 3,
            },
        );
        let mut s1 = Vec::new();
        append(&mut s1, &tail_append(T2, 2));
        s1.truncate(s1.len() - 4); // torn mid-record
        let state = recover_merged_bytes(&[s0, s1]).unwrap();
        assert!(state.torn_tail);
        assert_eq!(state.records.len(), 2, "torn stream contributes nothing");
        assert_eq!(state.commit_ts_of(T1), Some(3));
    }
}
