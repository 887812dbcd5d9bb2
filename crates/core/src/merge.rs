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
//! draining the merge queue ([`crate::pool`]), or concurrently for
//! *different* ranges — only the per-range merge-pending claim serializes
//! passes over one range.
//!
//! Step map to Algorithm 1:
//! 1. [`committed_prefix`] — identify consecutive committed tail records.
//! 2. [`merge_range`] finds the columns that actually changed; only they
//!    are rebuilt.
//! 3. Reverse-scan with a seen-set, newest update per (record, column) wins
//!    (the per-column set generalizes the paper's per-record hashtable so
//!    non-cumulative updates merge correctly too); each changed column is
//!    then decoded, patched and re-compressed in turn, through one buffer.
//! 4. `UpdateRange::swap_base` — the pointer swap.
//! 5. The swap retires the outdated version into the epoch limbo, and
//!    `EpochManager::try_reclaim` frees it once the readers pinned before
//!    it drain — epoch-based de-allocation.
//!
//! The same module implements the *simplified merge* for insert ranges
//! (§3.2/§4.1.1 "Merging Table-level Tail-pages"): compress the aligned
//! table-level tail pages into regular base pages, after which the range
//! leaves its insert phase.

use std::sync::Arc;

use lstore_storage::epoch::{EpochGuard, EpochManager};
use lstore_storage::page::BasePage;
use lstore_storage::store::{PagePtr, PageStore};
use lstore_storage::tail::TailSpan;
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
pub fn committed_prefix(
    range: &UpdateRange,
    from_seq: u64,
    mgr: &TxnManager,
    guard: &EpochGuard<'_>,
) -> u64 {
    let high = range.tail.high_seq() as u64;
    let mut upto = from_seq - 1;
    for seq in from_seq..=high {
        let seq32 = seq as u32;
        if !range.tail.is_written(seq32, guard) {
            break; // allocated but not yet fully written
        }
        if range.tail.resolve_start(seq32, mgr, guard).in_flight() {
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
    guard: &EpochGuard<'_>,
) -> u64 {
    let upto = committed_prefix(range, from_seq, mgr, guard);
    let mut bounded = from_seq.saturating_sub(1);
    for seq in from_seq..=upto {
        let StartTime::Committed(ts) = range.tail.resolve_start(seq as u32, mgr, guard) else {
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
pub fn earliest_unmerged_ts(
    range: &UpdateRange,
    mgr: &TxnManager,
    guard: &EpochGuard<'_>,
) -> Option<u64> {
    let from = range.base(guard).tps + 1;
    let high = range.tail.high_seq() as u64;
    for seq in from..=high {
        let seq32 = seq as u32;
        if !range.tail.is_written(seq32, guard) {
            break;
        }
        if let StartTime::Committed(ts) = range.tail.resolve_start(seq32, mgr, guard) {
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
///
/// The merge holds one pin of `epoch` while it reads, and drops it before
/// reclaiming what it retired.
pub fn merge_range(
    range: &UpdateRange,
    mgr: &TxnManager,
    epoch: &EpochManager,
    config: &TableConfig,
    store: Option<&Arc<PageStore>>,
    limit: Option<u64>,
    columns: Option<&[usize]>,
) -> MergeReport {
    let report = merge_pinned(range, mgr, &epoch.pin(), config, store, limit, columns);
    if report.swapped {
        epoch.try_reclaim();
    }
    report
}

/// [`merge_range`] under `guard`.
fn merge_pinned(
    range: &UpdateRange,
    mgr: &TxnManager,
    guard: &EpochGuard<'_>,
    config: &TableConfig,
    store: Option<&Arc<PageStore>>,
    limit: Option<u64>,
    columns: Option<&[usize]>,
) -> MergeReport {
    let base = range.base(guard);
    // Strengthened stability condition (§4.1.1): insert ranges must leave
    // the insert phase (via the simplified merge) first.
    let BaseData::Pages {
        data: old_data,
        start_time: old_start,
        last_updated: old_lu,
        schema_enc: old_enc,
    } = &base.data
    else {
        return MergeReport::default();
    };
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
    let mut upto = committed_prefix(range, from, mgr, guard);
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

    // Which merged columns changed in (column_tps[c], upto]? Only those
    // are rebuilt.
    let mut changed = vec![false; ncols];
    for seq in from..=upto {
        let enc = range.tail.encoding(seq as u32, guard);
        for c in enc.columns() {
            changed[c] = true;
        }
        if enc.is_delete() {
            changed.fill(true);
        }
    }
    let rebuild: Vec<bool> = (0..ncols)
        .map(|c| changed[c] && merge_cols.contains(&c) && base.column_tps[c] < upto)
        .collect();
    let mut new_lu = old_lu.read().decode();
    let mut new_enc = old_enc.read().decode();

    // Step 3: reverse scan with a per-(slot, column) seen-set. The newest
    // value of each (slot, rebuilt column) becomes a patch, and each
    // consolidated delete a nulled slot, applied as each column is rebuilt.
    let mut seen = vec![0u64; len]; // bitmaps per slot
    let mut deleted_seen = vec![false; len];
    let mut patches: Vec<Vec<(usize, u64)>> = vec![Vec::new(); ncols];
    let mut deleted = Vec::new();
    let mut applied = 0u64;
    let full_merge = merge_cols.len() == ncols;
    for seq in (from..=upto).rev() {
        let seq32 = seq as u32;
        let StartTime::Committed(ts) = range.tail.resolve_start(seq32, mgr, guard) else {
            continue; // aborted tombstone
        };
        let enc = range.tail.encoding(seq32, guard);
        if enc.is_snapshot() {
            continue; // old-value snapshots never win (an update follows)
        }
        let base_rid = range.tail.base_rid(seq32, guard);
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
            // that has not consolidated the delete before is rebuilt: a
            // delete marks them all changed.)
            deleted.push(slot);
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
                if rebuild[c] {
                    patches[c].push((slot, range.tail.value(seq32, c, guard)));
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

    // Rebuild and re-compress the changed columns, one at a time through
    // one buffer; unchanged ones share the old pointer (and, when
    // store-backed, the old frame — no image is duplicated).
    let mut values = Vec::new();
    let data: Vec<PagePtr> = (0..ncols)
        .map(|c| {
            if !rebuild[c] {
                return old_data[c].clone();
            }
            old_data[c].read().decode_into(&mut values);
            for &(slot, v) in &patches[c] {
                values[slot] = v;
            }
            for &slot in &deleted {
                values[slot] = NULL_VALUE;
            }
            PagePtr::seal(store, BasePage::from_values(&values, config.codec))
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
    // maintain per merged version). The Start Time page is carried over
    // unchanged, so its maximum is too.
    let max_last_updated = new_lu
        .iter()
        .copied()
        .filter(|&v| v != NULL_VALUE)
        .max()
        .unwrap_or(0);
    let has_deletes = base.has_deletes || new_enc.iter().any(|&e| SchemaEncoding(e).is_delete());
    let new_version = BaseVersion {
        tps,
        column_tps: column_tps.into_boxed_slice(),
        len,
        max_start: base.max_start,
        max_last_updated,
        has_deletes,
        data: BaseData::Pages {
            data: data.into_boxed_slice(),
            // "the old Start Time column is remained intact during the merge"
            start_time: old_start.clone(),
            last_updated: PagePtr::seal(store, BasePage::from_values(&new_lu, config.codec)),
            schema_enc: PagePtr::seal(store, BasePage::from_values(&new_enc, config.codec)),
        },
    };

    // Step 4: pointer swap (the only foreground action), which hands the
    // outdated pages to step 5, epoch-based de-allocation.
    range.swap_base(new_version);

    let consumed = upto - from + 1;
    range.consume_unmerged(consumed);
    range.reset_scanned_suffix();
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
    let merged = merge_insert_pinned(range, mgr, &epoch.pin(), config, store, force);
    if merged {
        epoch.try_reclaim();
    }
    merged
}

/// [`merge_insert_range`] under `guard`.
fn merge_insert_pinned(
    range: &UpdateRange,
    mgr: &TxnManager,
    guard: &EpochGuard<'_>,
    config: &TableConfig,
    store: Option<&Arc<PageStore>>,
    force: bool,
) -> bool {
    let base = range.base(guard);
    let tail = match &base.data {
        BaseData::Insert(t) => t,
        BaseData::Pages { .. } => return false, // already merged
    };
    let used = range.used_slots() as usize;
    if used == 0 {
        return false;
    }
    if !force && used < range.capacity {
        return false; // only full insert ranges graduate automatically
    }
    // Every slot must be resolved (committed or aborted). Each column is
    // read through one snapshot of its pages.
    let mut span = TailSpan::default();
    tail.start_time.snapshot_pages(0..used, &mut span, guard);
    let mut starts = Vec::with_capacity(used);
    for slot in 0..used {
        let cell = span.get(slot);
        if cell == NULL_VALUE {
            return false; // slot allocated but not yet written
        }
        match mgr.resolve_start_time(cell, || span.get(slot)) {
            StartTime::Committed(ts) => {
                // Stamp the insert tail too: a reader still holding it may
                // resolve the id after the inserter — who finds merged
                // pages in its place and stamps nothing — has retired.
                if lstore_txn::is_txn_id(cell) {
                    let _ = tail.start_time.cas(slot, cell, ts, guard);
                }
                starts.push(ts);
            }
            StartTime::Aborted => starts.push(NULL_VALUE), // never existed
            _ => return false,                             // in-flight insert: try again later
        }
    }

    let ncols = base.column_tps.len();
    let mut data = Vec::with_capacity(ncols);
    for column in tail.data.iter() {
        column.snapshot_pages(0..used, &mut span, guard);
        let values: Vec<u64> = (0..used)
            .map(|slot| {
                if starts[slot] == NULL_VALUE {
                    NULL_VALUE // aborted insert: null slot
                } else {
                    span.get(slot)
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
    let new_version = BaseVersion {
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
    };
    // "the old table-level tail-pages can be discarded permanently after all
    // the active queries that started prior to the merge process are
    // terminated" — the swap retires them into the epoch queue, which
    // provides exactly that window.
    range.swap_base(new_version);
    true
}
