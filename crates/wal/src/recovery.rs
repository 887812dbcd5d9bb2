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
//! change the result. Watermark frames are skipped; the scan ends at the
//! first frame that does not decode, at offset `o`, which is either a torn
//! tail (trimmed) or [`WalError::Corrupt`]:
//!
//! * **A log with a watermark frame** (every group-commit log) is written
//!   over zeros, and the pages of a flush that no sync covered may land in
//!   any order, so valid frames after `o` say nothing. The frame at `o` is
//!   corruption exactly when an intact watermark frame anywhere after it
//!   names an offset above `o`: those bytes were synced before that frame
//!   was written. Otherwise it is a torn tail — or, when nothing but zeros
//!   follows, simply the end of the log. Watermark frames are found by
//!   trying every offset after `o` whose bytes could start one, in one
//!   pass, so no length field of a damaged frame is trusted; one naming an
//!   offset above its own position, which the writer never logs, is not
//!   believed.
//! * **A log with none** (every buffered log) is appended, so only its
//!   last frame can be torn: a checksum failure before the end is
//!   corruption, and so is a frame anywhere whose checksum matches but
//!   whose body does not decode.
//!
//! The limit: a damaged frame that a sync made durable, but that no later
//! watermark frame names, reads as a torn tail. That covers at most the
//! flushes since the last intact watermark — what a damaged *last* frame of
//! a buffered log has always read as.

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
    /// True when a torn (incomplete) frame terminated the scan; false when
    /// the log ended cleanly, in zeros or at the end of the file.
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
            // Watermark frames are the writer's, not records.
            _ if record::watermark_at(data, offset).is_some() => offset += record::WATERMARK_LEN,
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
            undecodable => {
                state.torn_tail = ends_torn(data, offset, undecodable.err())?;
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

/// Whether the frame at `at`, which did not decode (`error`, if it was not
/// merely incomplete), is a torn tail; `false` when the log just ends in
/// zeros there. `Err` when it is corruption (see module docs).
fn ends_torn(data: &[u8], at: usize, error: Option<WalError>) -> WalResult<bool> {
    // A watermark frame's bytes 3 and 8 are not zero, so none ends in
    // trailing zeros.
    let written = nonzero_len(data);
    let named = named_after(data, at, written);
    let appended = named.is_none() && record::watermark_at(data, 0).is_none();
    match (named, error) {
        (Some(upto), _) if upto > at as u64 => Err(WalError::Corrupt(format!(
            "frame at byte {at} is below the synced-to offset {upto}"
        ))),
        // Appended: a checksum failure at the very tail is indistinguishable
        // from a torn write; anything else is real corruption.
        (_, Some(e)) if appended && !record::torn_at_end(&data[at..]) => Err(e),
        _ => Ok(appended || written > at),
    }
}

/// The largest offset an intact watermark frame after `at` names, trying
/// only the offsets before `written` whose bytes could start one.
fn named_after(data: &[u8], at: usize, written: usize) -> Option<u64> {
    record::watermark_starts(&data[..written], at + 1)
        .filter_map(|w| record::watermark_at(data, w))
        .max()
}

/// The length of `data` without the zeros it ends in, compared a sector at
/// a time: a group-commit log ends in up to a MiB of them.
fn nonzero_len(data: &[u8]) -> usize {
    let sector = data.chunks(512).rposition(|s| s != &[0; 512][..s.len()]);
    let end = sector.map_or(0, |i| data.len().min((i + 1) * 512));
    let last = data[..end].iter().rposition(|&b| b != 0);
    last.map_or(0, |last| last + 1)
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

    /// A live group-commit log: cohorts of commits of assorted sizes, an
    /// abort, explicit syncs, and the zeros ahead of the write position —
    /// cut to one 512-byte sector of them, since the rest are alike.
    fn group_commit_image() -> Vec<u8> {
        use crate::{CommitPolicy, Wal};
        let path = std::env::temp_dir().join(format!(
            "lstore-wal-hostile-{}-{:?}.wal",
            std::process::id(),
            std::thread::current().id()
        ));
        let wal = Wal::create(&crate::io::OsFs, &path, CommitPolicy::GroupCommit).unwrap();
        for n in 1..=24u64 {
            let t = 1 << 63 | n;
            for seq in 0..(n % 5) as u32 * 3 {
                wal.append(&tail_append(t, seq)).unwrap();
            }
            if n % 7 == 0 {
                wal.commit(&LogRecord::Abort { txn_id: t }).unwrap();
                wal.sync().unwrap();
            } else {
                let commit = LogRecord::Commit {
                    txn_id: t,
                    commit_ts: n,
                };
                wal.commit(&commit).unwrap();
            }
        }
        let mut image = std::fs::read(&path).unwrap();
        drop(wal);
        std::fs::remove_file(&path).ok();
        image.truncate(nonzero_len(&image) + 512);
        image
    }

    /// The damaged image must not panic recovery, and whatever recovery
    /// accepts must be a prefix of what the undamaged image holds.
    fn check(damaged: &[u8], undamaged: &[LogRecord], what: &str) {
        if let Ok(state) = recover_from_bytes(damaged) {
            assert!(
                undamaged.starts_with(&state.records),
                "{what}: recovered records that are not a prefix"
            );
        }
    }

    /// splitmix64: a seeded stream without a dependency.
    fn next(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One seeded damage of `image`: a byte flip, a truncation, a zeroed
    /// sector, a run of garbage, or a forged watermark frame naming
    /// `u64::MAX` at a random offset.
    fn damage(image: &[u8], seed: &mut u64) -> (Vec<u8>, String) {
        let mut out = image.to_vec();
        let at = next(seed) as usize % image.len();
        let what = match next(seed) % 5 {
            0 => {
                out[at] ^= (next(seed) % 255 + 1) as u8;
                format!("flip at {at}")
            }
            1 => {
                out.truncate(at);
                format!("cut at {at}")
            }
            2 => {
                let sector = at / 512 * 512;
                let end = (sector + 512).min(out.len());
                out[sector..end].fill(0);
                format!("sector at {sector} zeroed")
            }
            3 => {
                let end = (at + 1 + next(seed) as usize % 64).min(out.len());
                for b in &mut out[at..end] {
                    *b = next(seed) as u8;
                }
                format!("garbage at {at}..{end}")
            }
            _ => {
                let forged = crate::record::watermark(u64::MAX);
                let end = (at + forged.len()).min(out.len());
                out[at..end].copy_from_slice(&forged[..end - at]);
                format!("forged watermark at {at}")
            }
        };
        (out, what)
    }

    /// What [`named_after`] finds, by its definition: a watermark frame
    /// tried at every offset after `at`.
    fn named_by_every_offset(data: &[u8], at: usize) -> Option<u64> {
        (at + 1..data.len())
            .filter_map(|w| crate::record::watermark_at(data, w))
            .max()
    }

    #[test]
    fn the_watermark_search_finds_what_every_offset_finds() {
        let mut found = 0;
        let mut agree = |data: &[u8], at: usize, what: &str| {
            let named = named_after(data, at, nonzero_len(data));
            assert_eq!(named, named_by_every_offset(data, at), "{what}, after {at}");
            found += usize::from(named.is_some());
        };
        // Torn and damaged group-commit images.
        let image = group_commit_image();
        let mut seed = 0x5EED_0038;
        for cut in (0..image.len()).step_by(7) {
            let at = next(&mut seed) as usize % (cut + 1);
            agree(&image[..cut], at, &format!("cut at {cut}"));
        }
        for _ in 0..500 {
            let (damaged, what) = damage(&image, &mut seed);
            let at = next(&mut seed) as usize % damaged.len();
            agree(&damaged, at, &what);
        }
        // Random bytes, zero runs and frames naming offsets at, below and
        // above their own.
        for round in 0..300 {
            let len = 1 + next(&mut seed) as usize % 2048;
            let mut data: Vec<u8> = (0..len).map(|_| next(&mut seed) as u8).collect();
            for _ in 0..next(&mut seed) % 8 {
                let pos = next(&mut seed) as usize % len;
                let upto = (pos as u64 + 2).saturating_sub(next(&mut seed) % 64);
                let frame = crate::record::watermark(upto);
                let end = (pos + frame.len()).min(len);
                data[pos..end].copy_from_slice(&frame[..end - pos]);
                let zeros = (end + next(&mut seed) as usize % 64).min(len);
                data[end..zeros].fill(0);
            }
            for at in [0, next(&mut seed) as usize % len, len - 1] {
                agree(&data, at, &format!("random buffer {round}"));
            }
        }
        assert!(found > 500, "only {found} searches found a watermark");
    }

    #[test]
    fn hostile_bytes_in_a_group_commit_log_never_panic() {
        let image = group_commit_image();
        let undamaged = recover_from_bytes(&image).unwrap();
        assert!(!undamaged.torn_tail && undamaged.committed.len() > 15);
        let mut seed = 0x5EED_0035;
        for _ in 0..2_000 {
            let (damaged, what) = damage(&image, &mut seed);
            check(&damaged, &undamaged.records, &what);
        }
    }

    /// The exhaustive variant: every byte under every single-bit flip and
    /// under `0xFF`, every truncation, every sector zeroed, a forged
    /// watermark frame at every offset, and many seeds of garbage.
    #[test]
    #[ignore = "exhaustive; run with --ignored --release"]
    fn hostile_bytes_in_a_group_commit_log_never_panic_exhaustive() {
        let image = group_commit_image();
        let undamaged = recover_from_bytes(&image).unwrap().records;
        let forged = crate::record::watermark(u64::MAX);
        for at in 0..image.len() {
            for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                let mut damaged = image.clone();
                damaged[at] ^= mask;
                check(&damaged, &undamaged, &format!("{mask:#x} at {at}"));
            }
            check(&image[..at], &undamaged, &format!("cut at {at}"));
            let mut damaged = image.clone();
            let end = (at + forged.len()).min(image.len());
            damaged[at..end].copy_from_slice(&forged[..end - at]);
            check(&damaged, &undamaged, &format!("forged watermark at {at}"));
        }
        for sector in (0..image.len()).step_by(512) {
            let mut damaged = image.clone();
            let end = (sector + 512).min(image.len());
            damaged[sector..end].fill(0);
            check(&damaged, &undamaged, &format!("sector at {sector}"));
        }
        let mut seed = 0x5EED_0036;
        for _ in 0..200_000 {
            let (damaged, what) = damage(&image, &mut seed);
            check(&damaged, &undamaged, &what);
        }
    }
}
