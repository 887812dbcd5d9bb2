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
//! form — cumulative repetitions are stripped). Segments are read-only; the
//! store swaps them per range like the page directory swaps base pages.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

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
#[derive(Debug, Default)]
pub struct HistoricSegment {
    /// First tail sequence *not* included (records `1..below_seq` are here).
    pub below_seq: u64,
    /// Per-slot histories, ordered by base RID (BTreeMap keeps RID order,
    /// "improving the locality of access").
    records: BTreeMap<u32, RecordHistory>,
}

/// The historic store: the current segment per range.
#[derive(Debug, Default)]
pub struct HistoricStore {
    segments: RwLock<BTreeMap<u32, Arc<HistoricSegment>>>,
}

impl HistoricStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current segment for `range_id`, if any.
    pub fn segment(&self, range_id: u32) -> Option<Arc<HistoricSegment>> {
        self.segments.read().get(&range_id).cloned()
    }

    /// Read `column` of `slot` as of `bound` from historic data.
    pub fn read_column(&self, range_id: u32, slot: u32, column: usize, bound: u64) -> Option<u64> {
        let seg = self.segment(range_id)?;
        seg.records.get(&slot)?.read_column(column, bound)
    }

    /// Read a whole record as of `bound` from historic data. `None` when the
    /// slot has no historic versions at or before `bound`.
    pub fn read_record(
        &self,
        range_id: u32,
        slot: u32,
        columns: &[usize],
        bound: u64,
    ) -> Option<HistoricRead> {
        let seg = self.segment(range_id)?;
        let hist = seg.records.get(&slot)?;
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

    /// Compress the merged tail records of `range` with sequence numbers in
    /// `[range.historic_boundary(), upto_seq]` into the store, then advance
    /// the boundary. The caller releases the tail pages below it once no
    /// reader that may have read the old boundary is pinned.
    ///
    /// Preconditions enforced here (the caller picks `upto_seq`):
    /// * only records already consolidated by a merge participate
    ///   (`upto_seq ≤ base.tps`), keeping the scheme contention-free, and
    /// * every participating record must be committed (true by definition of
    ///   TPS) with commit time at or below the oldest active snapshot — the
    ///   caller passes that horizon as `oldest_snapshot` (inclusive: records
    ///   at the horizon remain readable through the historic store).
    ///
    /// Returns the number of tail records compressed.
    pub fn compress_range(
        &self,
        range: &UpdateRange,
        upto_seq: u64,
        oldest_snapshot: u64,
        mgr: &TxnManager,
        guard: &EpochGuard<'_>,
    ) -> usize {
        let upto = upto_seq.min(range.base(guard).tps);
        let from = range.historic_boundary();
        if upto < from {
            return 0;
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
            return 0;
        }

        // Build the new segment by merging with the previous one.
        let prev = self.segment(range.id);
        let mut records: BTreeMap<u32, RecordHistory> =
            prev.as_ref().map(|s| s.records.clone()).unwrap_or_default();
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
        let segment = Arc::new(HistoricSegment {
            below_seq: effective_upto + 1,
            records,
        });
        self.segments.write().insert(range.id, segment);

        // The foreground action: advance the boundary.
        range.set_historic_boundary(effective_upto + 1);
        compressed
    }
}
