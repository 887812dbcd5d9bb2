//! Historic tail-page compression (§4.3).
//!
//! "For historic tail pages, namely, the committed and subsequently merged
//! tail pages, we introduce a contention-free compression scheme …
//! the compressed tail records are re-ordered according to the base RID
//! order … for each record, and within each column, the different versions
//! are stored inline and contiguously. The version inlining avoid the need
//! to repeatedly store unchanged values due to cumulative updates … it
//! enables delta compression among the different versions … Also collapsing
//! the different versions of the same record into a single tail record
//! eliminates the need for back pointers."
//!
//! A [`HistoricSegment`] is exactly that re-organization: per base slot, one
//! [`RecordHistory`] with start times ascending and, per version, only the
//! columns whose value *changed* relative to the previous version (the delta
//! form — cumulative repetitions are stripped). Segments are read-only:
//! each range publishes its current one through an epoch cell, read under
//! the reader's pin, and a compression replaces it the way a merge
//! replaces a base version. The segment's `below_seq` is the range's
//! historic boundary.

use std::collections::BTreeMap;

use lstore_storage::epoch::EpochGuard;
use lstore_txn::TxnManager;

use crate::range::UpdateRange;
use crate::schema::SchemaEncoding;

/// The inlined, compressed version history of one record.
#[derive(Debug, Clone, Default)]
pub struct RecordHistory {
    /// Commit timestamps, ascending ("tightly packed and ordered
    /// temporally", Table 6).
    starts: Vec<u64>,
    /// Schema-encoding cells per version (flags preserved).
    encodings: Vec<u64>,
    /// Delta values per version: only columns that changed.
    deltas: Vec<Vec<(u16, u64)>>,
}

impl RecordHistory {
    /// Index of the newest version with start ≤ `bound`.
    fn newest_at(&self, bound: u64) -> Option<usize> {
        let idx = self.starts.partition_point(|&s| s <= bound);
        idx.checked_sub(1)
    }

    /// Value of `column` as of `bound`: the newest delta at or before the
    /// visible version that carries the column.
    pub fn read_column(&self, column: usize, bound: u64) -> Option<u64> {
        let at = self.newest_at(bound)?;
        for v in (0..=at).rev() {
            if let Some(&(_, val)) = self.deltas[v].iter().find(|(c, _)| *c as usize == column) {
                return Some(val);
            }
        }
        None
    }
}

/// Result of a historic record read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoricRead {
    /// Values per requested column plus a flag telling whether the column
    /// had historic coverage (false → caller falls back to base pages).
    Visible(Vec<u64>, Vec<bool>),
    /// The record was deleted at the read time.
    Deleted,
}

/// One immutable compressed segment for a range.
#[derive(Debug)]
pub struct HistoricSegment {
    /// First tail sequence *not* included (records `1..below_seq` are
    /// here): the range's historic boundary.
    pub below_seq: u64,
    /// Per-slot histories, ordered by base RID (BTreeMap keeps RID order,
    /// "improving the locality of access").
    records: BTreeMap<u32, RecordHistory>,
}

impl HistoricSegment {
    /// The segment a range starts with: nothing compressed, the boundary
    /// at the first tail record.
    pub fn empty() -> Self {
        HistoricSegment {
            below_seq: 1,
            records: BTreeMap::new(),
        }
    }

    /// Read `column` of `slot` as of `bound`.
    pub fn read_column(&self, slot: u32, column: usize, bound: u64) -> Option<u64> {
        self.records.get(&slot)?.read_column(column, bound)
    }

    /// Read a whole record as of `bound`. `None` when the slot has no
    /// historic versions at or before `bound`.
    pub fn read_record(&self, slot: u32, columns: &[usize], bound: u64) -> Option<HistoricRead> {
        let hist = self.records.get(&slot)?;
        let at = hist.newest_at(bound)?;
        if SchemaEncoding(hist.encodings[at]).is_delete() {
            return Some(HistoricRead::Deleted);
        }
        let mut values = Vec::with_capacity(columns.len());
        let mut filled = Vec::with_capacity(columns.len());
        for &c in columns {
            match hist.read_column(c, bound) {
                Some(v) => {
                    values.push(v);
                    filled.push(true);
                }
                None => {
                    values.push(u64::MAX);
                    filled.push(false);
                }
            }
        }
        Some(HistoricRead::Visible(values, filled))
    }
}

/// What one compression published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compression {
    /// Tail records compressed into the new segment.
    pub records: usize,
    /// The new segment's boundary.
    pub below_seq: u64,
}

/// Compress the merged tail records of `range` with sequence numbers in
/// `[boundary, upto_seq]` into a new segment, built from the range's
/// current one, and publish it: the boundary moves. The caller releases
/// the tail pages below the published boundary once no reader that may
/// have read the old one is pinned.
///
/// Preconditions enforced here (the caller picks `upto_seq`):
/// * only records already consolidated by a merge participate
///   (`upto_seq ≤ base.tps`), keeping the scheme contention-free, and
/// * every participating record must be committed (true by definition of
///   TPS) with commit time at or below the oldest active snapshot — the
///   caller passes that horizon as `oldest_snapshot` (inclusive: records
///   at the horizon remain readable through the historic segment).
///
/// `None` when nothing was published: no record could move, or another
/// compression of the range published first (the new segment replaces
/// only the one it was built from, so the boundary never moves back).
pub fn compress_range(
    range: &UpdateRange,
    upto_seq: u64,
    oldest_snapshot: u64,
    mgr: &TxnManager,
    guard: &EpochGuard<'_>,
) -> Option<Compression> {
    let prev = range.historic.load(guard);
    let upto = upto_seq.min(range.base(guard).tps);
    let from = prev.below_seq;
    if upto < from {
        return None;
    }
    // Collect committed records in (from..=upto) whose commit time is
    // safely below the snapshot horizon, grouped by slot:
    // slot -> [(commit_ts, raw_encoding, explicit column values)].
    type Collected = BTreeMap<u32, Vec<(u64, u64, Vec<(u16, u64)>)>>;
    let mut grouped: Collected = BTreeMap::new();
    let mut compressed = 0usize;
    let mut effective_upto = from.saturating_sub(1);
    for seq in from..=upto {
        let seq32 = seq as u32;
        let ts = match range.tail.resolve_start(seq32, mgr, guard).visible(false) {
            Some(t) => t,
            None => {
                // Aborted tombstone: drop it (space reclaimed here, as
                // §5.1.3 prescribes: "the space is not reclaimed until
                // the compression phase").
                effective_upto = seq;
                continue;
            }
        };
        if ts > oldest_snapshot {
            break; // still inside an active snapshot window: stop here
        }
        effective_upto = seq;
        let base_rid = range.tail.base_rid(seq32, guard);
        if base_rid.is_null() || !base_rid.is_base() {
            continue;
        }
        let enc = range.tail.encoding(seq32, guard);
        let cols: Vec<(u16, u64)> = enc
            .columns()
            .map(|c| (c as u16, range.tail.value(seq32, c, guard)))
            .collect();
        grouped
            .entry(base_rid.slot())
            .or_default()
            .push((ts, enc.0, cols));
        compressed += 1;
    }
    if effective_upto < from {
        return None;
    }

    // Build the new segment by merging with the previous one.
    let mut records = prev.records.clone();
    for (slot, versions) in grouped {
        let hist = records.entry(slot).or_default();
        for (ts, enc_raw, cols) in versions {
            let enc = SchemaEncoding(enc_raw);
            // Delta-compress: drop values identical to the current state
            // (cumulative repetitions); snapshot records still contribute
            // columns seen for the first time.
            let delta: Vec<(u16, u64)> = cols
                .into_iter()
                .filter(|&(c, v)| hist.read_column(c as usize, u64::MAX) != Some(v))
                .collect();
            if enc.is_snapshot() {
                // Old-value snapshots sort *before* the updates they
                // precede; insert in timestamp order.
                let pos = hist.starts.partition_point(|&s| s <= ts);
                hist.starts.insert(pos, ts);
                hist.encodings.insert(pos, enc_raw);
                hist.deltas.insert(pos, delta);
            } else {
                hist.starts.push(ts);
                hist.encodings.push(enc_raw);
                hist.deltas.push(delta);
            }
        }
    }
    let below_seq = effective_upto + 1;
    // The foreground action: advance the boundary, unless another pass
    // replaced the segment this one was built from.
    let segment = HistoricSegment { below_seq, records };
    range.historic.compare_swap(prev, segment, guard).ok()?;
    Some(Compression {
        records: compressed,
        below_seq,
    })
}
