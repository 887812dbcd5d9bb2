//! The contention-free, relaxed merge (§4.1, Algorithm 1).
//!
//! The merge consolidates "a set of consecutive fully committed tail
//! records" into a new set of read-only, compressed base pages, tracking
//! lineage in-page via the TPS counter. By construction it only touches
//! stable data (Lemma 1): committed tail records and read-only base pages;
//! its only foreground action is the page-directory pointer swap, and the
//! outdated pages retire through the epoch queue (Fig. 6). That stability
//! argument is thread-agnostic: [`merge_range`] runs identically from the
//! caller (`Table::merge_now`), from any worker of the unified task pool
//! draining a shard's merge queue ([`crate::pool`]), or concurrently for
//! *different* ranges — only the per-range merge-pending claim serializes
//! passes over one range.
//!
//! Step map to Algorithm 1:
//! 1. [`committed_prefix`] — identify consecutive committed tail records.
//! 2. [`merge_range`] loads the outdated base pages (decoding only columns
//!    that actually changed).
//! 3. Reverse-scan with a seen-set, newest update per (record, column) wins
//!    (the per-column set generalizes the paper's per-record hashtable so
//!    non-cumulative updates merge correctly too); re-compress.
//! 4. `UpdateRange::swap_base` — the pointer swap.
//! 5. `EpochManager::retire` — epoch-based de-allocation.
//!
//! The same module implements the *simplified merge* for insert ranges
//! (§3.2/§4.1.1 "Merging Table-level Tail-pages"): compress the aligned
//! table-level tail pages into regular base pages, after which the range
//! leaves its insert phase.

use std::sync::Arc;

use lstore_storage::epoch::EpochManager;
use lstore_storage::page::BasePage;
use lstore_storage::store::{PagePtr, PageStore};
use lstore_storage::NULL_VALUE;
use lstore_txn::{StartTime, TxnManager};

use crate::config::TableConfig;
use crate::range::{BaseData, BaseVersion, UpdateRange};
use crate::schema::SchemaEncoding;

/// Outcome of one merge pass over a range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeReport {
    /// Tail records consumed (committed prefix length).
    pub consumed: u64,
    /// Tail records actually applied (latest version per record/column).
    pub applied: u64,
    /// New TPS of the range.
    pub tps: u64,
    /// Whether a new base version was installed.
    pub swapped: bool,
}

/// Find the end of the consecutive committed (or resolved-aborted) prefix of
/// tail records after `from_seq`, stopping at the first in-flight record —
/// "Select a set of consecutive fully committed tail records" (step 1).
/// Aborted records are *resolved* (tombstones), so they do not break
/// consecutiveness; they are skipped during application.
pub fn committed_prefix(range: &UpdateRange, from_seq: u64, mgr: &TxnManager) -> u64 {
    let high = range.tail.high_seq() as u64;
    let mut upto = from_seq - 1;
    for seq in from_seq..=high {
        let seq32 = seq as u32;
        if !range.tail.is_written(seq32) {
            break; // allocated but not yet fully written
        }
        if range.tail.resolve_start(seq32, mgr).in_flight() {
            break; // active or pre-commit: stop the prefix
        }
        upto = seq;
    }
    upto
}

/// Count the committed tail records after `from_seq` whose commit time is
/// at or before `upto_time` — the §4.1.3 *temporal coordination* extension:
/// "every merge not only take a set of consecutive committed tail records,
/// but also takes only those consecutive committed records before an agreed
/// upon time ti", so that after merging, base pages across the table form
/// an almost up-to-date consistent snapshot at ti.
pub fn committed_prefix_upto_time(
    range: &UpdateRange,
    from_seq: u64,
    mgr: &TxnManager,
    upto_time: u64,
) -> u64 {
    let upto = committed_prefix(range, from_seq, mgr);
    let mut bounded = from_seq.saturating_sub(1);
    for seq in from_seq..=upto {
        let StartTime::Committed(ts) = range.tail.resolve_start(seq as u32, mgr) else {
            bounded = seq; // aborted tombstone: consumable at any time
            continue;
        };
        if ts > upto_time {
            break;
        }
        bounded = seq;
    }
    bounded
}

/// The earliest commit timestamp among a range's unmerged committed tail
/// records — the per-page *temporal lineage* of §4.1.3 ("every page also
/// maintains its temporal lineage to remember the timestamp of the earliest
/// committed records that have not been merged yet").
pub fn earliest_unmerged_ts(range: &UpdateRange, mgr: &TxnManager) -> Option<u64> {
    let base = range.base();
    let from = base.tps + 1;
    let high = range.tail.high_seq() as u64;
    for seq in from..=high {
        let seq32 = seq as u32;
        if !range.tail.is_written(seq32) {
            break;
        }
        if let StartTime::Committed(ts) = range.tail.resolve_start(seq32, mgr) {
            return Some(ts);
        }
    }
    None
}

/// Run one merge pass over `range`, consolidating up to `limit` committed
/// tail records (`None` = everything committed). Returns a report.
///
/// `columns = None` merges all data columns; `Some(subset)` exercises the
/// paper's *independent per-column merging* (§4.2): only the subset's
/// `column_tps` advance, and readers detect the divergence (Lemma 3).
///
/// When a `store` is configured, freshly built pages are *sealed* into it
/// (resident dirty buffer-pool frames — no merge-path I/O) so they become
/// evictable; without one they stay plain heap residents.
pub fn merge_range(
    range: &UpdateRange,
    mgr: &TxnManager,
    epoch: &EpochManager,
    config: &TableConfig,
    store: Option<&Arc<PageStore>>,
    limit: Option<u64>,
    columns: Option<&[usize]>,
) -> MergeReport {
    let base = range.base();
    if base.is_insert_phase() {
        // Strengthened stability condition (§4.1.1): insert ranges must
        // leave the insert phase (via the simplified merge) first.
        return MergeReport::default();
    }
    let ncols = base.column_tps.len();
    let all_columns: Vec<usize> = (0..ncols).collect();
    let merge_cols: &[usize] = columns.unwrap_or(&all_columns);

    // Step 1: consecutive committed prefix, per the least-merged column.
    let from = merge_cols
        .iter()
        .map(|&c| base.column_tps[c])
        .min()
        .unwrap_or(base.tps)
        + 1;
    let mut upto = committed_prefix(range, from, mgr);
    if let Some(l) = limit {
        upto = upto.min(from + l - 1);
    }
    if upto < from {
        return MergeReport {
            consumed: 0,
            applied: 0,
            tps: base.tps,
            swapped: false,
        };
    }

    // Step 2: load the outdated base pages — only for columns that actually
    // changed in the batch (plus meta columns).
    let len = base.len;
    let (old_data, old_start, old_lu, old_enc) = match &base.data {
        BaseData::Pages {
            data,
            start_time,
            last_updated,
            schema_enc,
        } => (data, start_time, last_updated, schema_enc),
        BaseData::Insert(_) => unreachable!("checked above"),
    };

    // Which columns changed in (column_tps[c], upto]?
    let mut changed = vec![false; ncols];
    for seq in from..=upto {
        let enc = SchemaEncoding(range.tail.encoding(seq as u32).0);
        for c in enc.columns() {
            changed[c] = true;
        }
        if enc.is_delete() {
            changed.fill(true);
        }
    }

    let mut new_cols: Vec<Option<Vec<u64>>> = (0..ncols).map(|_| None).collect();
    for &c in merge_cols {
        if changed[c] && base.column_tps[c] < upto {
            new_cols[c] = Some(old_data[c].read().decode());
        }
    }
    let mut new_lu = old_lu.read().decode();
    let mut new_enc = old_enc.read().decode();

    // Step 3: reverse scan with a per-(slot, column) seen-set.
    let mut seen = vec![0u64; len]; // bitmaps per slot
    let mut deleted_seen = vec![false; len];
    let mut applied = 0u64;
    let full_merge = merge_cols.len() == ncols;
    for seq in (from..=upto).rev() {
        let seq32 = seq as u32;
        let StartTime::Committed(ts) = range.tail.resolve_start(seq32, mgr) else {
            continue; // aborted tombstone
        };
        let enc = range.tail.encoding(seq32);
        if enc.is_snapshot() {
            continue; // old-value snapshots never win (an update follows)
        }
        let base_rid = range.tail.base_rid(seq32);
        if base_rid.is_null() || !base_rid.is_base() {
            continue;
        }
        let slot = base_rid.slot() as usize;
        if slot >= len {
            continue;
        }
        if deleted_seen[slot] {
            continue; // a newer delete supersedes everything older
        }
        let mut contributed = false;
        if enc.is_delete() {
            // "the deleted record will be included in the consolidated
            // records": null the data columns and flag the base encoding —
            // whatever the column set. A column merge advances its columns'
            // TPS past the delete like a full merge does, and a reader on
            // the TPS fast path sees only the flag. (Every merged column
            // that has not consolidated the delete before is materialized:
            // a delete marks them all changed.)
            for &c in merge_cols {
                if let Some(v) = new_cols[c].as_mut() {
                    v[slot] = NULL_VALUE;
                }
            }
            new_enc[slot] = SchemaEncoding(new_enc[slot]).with_delete().0;
            deleted_seen[slot] = true;
            contributed = true;
        } else {
            for c in enc.columns() {
                if !merge_cols.contains(&c) {
                    continue;
                }
                let bit = 1u64 << c;
                if seen[slot] & bit != 0 {
                    continue; // a newer value for this column already applied
                }
                seen[slot] |= bit;
                if let Some(col) = new_cols[c].as_mut() {
                    col[slot] = range.tail.value(seq32, c);
                    contributed = true;
                }
            }
            if contributed {
                new_enc[slot] = SchemaEncoding(new_enc[slot])
                    .union(SchemaEncoding(enc.column_bits()))
                    .0;
            }
        }
        if contributed {
            applied += 1;
            // Last Updated Time: the newest applied update per record.
            if new_lu[slot] == NULL_VALUE || ts > new_lu[slot] {
                new_lu[slot] = ts;
            }
        }
    }

    // Re-compress changed columns; unchanged ones share the old pointer
    // (and, when store-backed, the old frame — no image is duplicated).
    let data: Vec<PagePtr> = (0..ncols)
        .map(|c| match new_cols[c].take() {
            Some(values) => PagePtr::seal(store, BasePage::from_values(&values, config.codec)),
            None => old_data[c].clone(),
        })
        .collect();
    let column_tps: Vec<u64> = (0..ncols)
        .map(|c| {
            if merge_cols.contains(&c) {
                upto
            } else {
                base.column_tps[c]
            }
        })
        .collect();
    let tps = column_tps.iter().copied().min().unwrap_or(upto);
    // Scan fast-path metadata (§4.2's stable lineage makes these cheap to
    // maintain per merged version). One pin covers the whole pass.
    let max_start = {
        let start_page = old_start.read();
        (0..len)
            .map(|s| start_page.get(s))
            .filter(|&v| v != NULL_VALUE)
            .max()
            .unwrap_or(0)
    };
    let max_last_updated = new_lu
        .iter()
        .copied()
        .filter(|&v| v != NULL_VALUE)
        .max()
        .unwrap_or(0);
    let has_deletes = base.has_deletes || new_enc.iter().any(|&e| SchemaEncoding(e).is_delete());
    let new_version = Arc::new(BaseVersion {
        tps,
        column_tps: column_tps.into_boxed_slice(),
        len,
        max_start,
        max_last_updated,
        has_deletes,
        data: BaseData::Pages {
            data: data.into_boxed_slice(),
            // "the old Start Time column is remained intact during the merge"
            start_time: old_start.clone(),
            last_updated: PagePtr::seal(store, BasePage::from_values(&new_lu, config.codec)),
            schema_enc: PagePtr::seal(store, BasePage::from_values(&new_enc, config.codec)),
        },
    });

    // Step 4: pointer swap (the only foreground action).
    let outdated = range.swap_base(new_version);
    // Step 5: epoch-based de-allocation of the outdated pages.
    epoch.retire(outdated);
    epoch.try_reclaim();

    let consumed = upto - from + 1;
    range.consume_unmerged(consumed);
    if full_merge {
        // TPS doubles as the cumulation reset high-water mark (§4.2).
        range.set_cumulation_reset(upto);
    }
    MergeReport {
        consumed,
        applied,
        tps,
        swapped: true,
    }
}

/// The simplified merge for insert ranges (§3.2): compress the committed
/// prefix of table-level tail pages into regular base pages. Returns `true`
/// when the range left its insert phase.
///
/// "the merge process is essentially reading a set of consecutive committed
/// tail records and compressing them" — alignment makes consolidation "a
/// trivial join-like operation".
pub fn merge_insert_range(
    range: &UpdateRange,
    mgr: &TxnManager,
    epoch: &EpochManager,
    config: &TableConfig,
    store: Option<&Arc<PageStore>>,
    force: bool,
) -> bool {
    let base = range.base();
    let tail = match &base.data {
        BaseData::Insert(t) => Arc::clone(t),
        BaseData::Pages { .. } => return false, // already merged
    };
    let used = range.used_slots() as usize;
    if used == 0 {
        return false;
    }
    if !force && used < range.capacity {
        return false; // only full insert ranges graduate automatically
    }
    // Every slot must be resolved (committed or aborted).
    let mut starts = Vec::with_capacity(used);
    for slot in 0..used {
        let cell = tail.start_time.get_or_null(slot);
        if cell == NULL_VALUE {
            return false; // slot allocated but not yet written
        }
        match mgr.resolve_start_time(cell, || tail.start_time.get_or_null(slot)) {
            StartTime::Committed(ts) => {
                // Stamp the insert tail too: a reader still holding it may
                // resolve the id after the inserter — who finds merged
                // pages in its place and stamps nothing — has retired.
                if lstore_txn::is_txn_id(cell) {
                    let _ = tail.start_time.cas(slot, cell, ts);
                }
                starts.push(ts);
            }
            StartTime::Aborted => starts.push(NULL_VALUE), // never existed
            _ => return false,                             // in-flight insert: try again later
        }
    }

    let ncols = base.column_tps.len();
    let mut data = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let values: Vec<u64> = (0..used)
            .map(|slot| {
                if starts[slot] == NULL_VALUE {
                    NULL_VALUE // aborted insert: null slot
                } else {
                    tail.data[c].get_or_null(slot)
                }
            })
            .collect();
        data.push(PagePtr::seal(
            store,
            BasePage::from_values(&values, config.codec),
        ));
    }
    let enc: Vec<u64> = starts
        .iter()
        .map(|&s| {
            if s == NULL_VALUE {
                SchemaEncoding::empty().with_delete().0
            } else {
                0
            }
        })
        .collect();
    let max_start = starts
        .iter()
        .copied()
        .filter(|&v| v != NULL_VALUE)
        .max()
        .unwrap_or(0);
    let has_deletes = starts.contains(&NULL_VALUE);
    let new_version = Arc::new(BaseVersion {
        tps: 0,
        column_tps: vec![0; ncols].into_boxed_slice(),
        len: used,
        max_start,
        max_last_updated: 0,
        has_deletes,
        data: BaseData::Pages {
            data: data.into_boxed_slice(),
            start_time: PagePtr::seal(store, BasePage::from_values(&starts, config.codec)),
            last_updated: PagePtr::seal(store, BasePage::plain(vec![NULL_VALUE; used])),
            schema_enc: PagePtr::seal(store, BasePage::from_values(&enc, config.codec)),
        },
    });
    let outdated = range.swap_base(new_version);
    // "the old table-level tail-pages can be discarded permanently after all
    // the active queries that started prior to the merge process are
    // terminated" — the epoch queue provides exactly that window.
    epoch.retire(outdated);
    epoch.try_reclaim();
    true
}
