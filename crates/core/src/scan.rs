//! Analytical scans over the unified store.
//!
//! Scans are the OLAP half of the paper's evaluation: snapshot-isolated
//! aggregations over columns that are concurrently updated (§6.2 "computing
//! the SUM aggregation on a column that is continuously been updated").
//! A scan pins the reclamation epoch (so merged-away base pages survive
//! until it drains, §4.1.1 step 5), plans the `(range, lo, hi)` slot
//! windows it covers, and folds them through **one** driver,
//! `Table::fold_windows`, into an accumulator (`WindowFold`: sums,
//! count, group-sum, rows).
//!
//! Per window the driver snapshots the range's base version once, asks
//! `Table::visibility_mask` once, and takes one of two strategies:
//!
//! * **kernel** — the accumulator's page step aggregates the clean rows
//!   straight off the compressed pages (the codec's
//!   [`lstore_storage::compress::ColumnKernel`]: run arithmetic for RLE,
//!   word-walk block sums for FOR/bit-packing, code frequencies for
//!   dictionaries), and only the masked holes — rows whose lineage outruns
//!   the TPS, or whose merged image is newer than the snapshot, or that
//!   are deleted — resolve through the version chain;
//! * **per-row** — every slot resolves through the version chain. Three
//!   observable conditions pick it: the range is still in its insert phase
//!   (no base pages yet), the snapshot straddles the base records' start
//!   times, or more than 1/`DENSE_MASK_DENOM` of the window is masked.
//!
//! Results are byte-identical on both strategies. Full scans,
//! [`Table::sum_rid_span`] and [`Table::sum_key_range`] differ only in how
//! they plan windows.
//!
//! Every analytical entry point fans its per-range work out across the
//! unified merge/scan task pool ([`crate::pool::TaskPool`], sized by
//! `DbConfig::pool_threads`): ranges partition the table into disjoint
//! record sets whose base versions are immutable snapshots, so per-range
//! partial aggregates combine without any synchronization — the epoch
//! discipline makes the fan-out embarrassingly parallel. The same workers
//! drain the per-shard merge queues, interleaving scan partitions with
//! merge jobs so neither starves the other under mixed load. Each worker
//! clones the scan's epoch guard (pinning the same window) and snapshots
//! its ranges' `BaseVersion`s exactly as the sequential path does; with
//! `pool_threads = 1` (the `DbConfig::deterministic()` setting) every scan
//! stays strictly sequential on the calling thread.
//!
//! The fan-out units are the shard-aligned partitions of
//! `Table::scan_partitions`: each partition holds ranges of exactly one
//! key-range shard, so pool workers walk ranges written by one writer
//! shard rather than an interleaving of all of them, and the `TaskPool`
//! partitioning stays aligned with the writer-side sharding. Aggregates
//! combine associatively and `scan_as_of` sorts by key, so neither the
//! shard count nor the pool width is observable in any result (the
//! `property_model` suite pins both).

use std::collections::BTreeMap;
use std::ops::{Deref, Range};
use std::sync::Arc;

use lstore_storage::compress::{Compressed, RowMask};
use lstore_storage::store::{PagePtr, PageRead};
use lstore_storage::NULL_VALUE;

use crate::range::{BaseData, BaseVersion, UpdateRange};
use crate::read::{ReadMode, Resolved};
use crate::rid::Rid;
use crate::schema::SchemaEncoding;
use crate::stats::TableStats;
use crate::table::Table;

/// Mask-density threshold: once more than `1/DENSE_MASK_DENOM` of a window
/// is excluded, the encoded-sum-minus-holes arithmetic loses to plain
/// per-slot resolution and the whole window is resolved per row.
const DENSE_MASK_DENOM: usize = 4;

/// Minimum coalesced slot-span length before `sum_key_range` tries the
/// kernel strategy; shorter spans resolve per row (building a mask costs
/// one atomic load per slot and must amortize).
const KERNEL_SPAN_MIN: u32 = 16;

/// One scan window: slots `lo..hi` of one update range (`R` is however
/// the planner holds it: `&UpdateRange` or `Arc<UpdateRange>`). The driver
/// clamps `hi` to the range's occupied slots, so `u32::MAX` means "to the
/// end".
type Window<R> = (R, u32, u32);

/// What a scan folds its windows into. [`Table::fold_windows`] decides per
/// window which rows go to which step; `cols` are the internal columns the
/// scan reads, in the order `fold_row` receives their values.
trait WindowFold: Sized {
    /// Kernel step: fold the rows of the window `rows` that `mask` keeps,
    /// straight off the range's compressed data pages.
    fn fold_pages(&mut self, data: &[PagePtr], cols: &[usize], rows: Range<usize>, mask: &RowMask);

    /// Per-row step: fold one visible record resolved through the version
    /// chain.
    fn fold_row(&mut self, values: &[u64]);

    /// Absorb another fan-out chunk's partial (partials combine
    /// associatively, so the pool width is never observable).
    fn merge(self, other: Self) -> Self;
}

/// Wrapping SUM per scanned column.
struct Sums(Vec<u64>);

impl WindowFold for Sums {
    fn fold_pages(&mut self, data: &[PagePtr], cols: &[usize], rows: Range<usize>, mask: &RowMask) {
        // One pin per column covers the whole window; an evicted page
        // faults in here.
        for (sum, &col) in self.0.iter_mut().zip(cols) {
            let page = data[col].read();
            *sum = sum.wrapping_add(page.sum_range_masked(rows.start, rows.end, mask));
        }
    }

    fn fold_row(&mut self, values: &[u64]) {
        for (sum, &v) in self.0.iter_mut().zip(values) {
            *sum = sum.wrapping_add(v);
        }
    }

    fn merge(mut self, other: Self) -> Self {
        self.fold_row(&other.0);
        self
    }
}

/// Visible-record count. Scans the key column only, so visibility is
/// governed by column 0 on both steps; the kernel step needs nothing but
/// the mask — clean rows count without touching any page payload.
#[derive(Default)]
struct Count(u64);

impl WindowFold for Count {
    fn fold_pages(&mut self, _: &[PagePtr], _: &[usize], rows: Range<usize>, mask: &RowMask) {
        self.0 += (rows.len() - mask.excluded_in(rows.start, rows.end)) as u64;
    }

    fn fold_row(&mut self, _: &[u64]) {
        self.0 += 1;
    }

    fn merge(self, other: Self) -> Self {
        Count(self.0 + other.0)
    }
}

/// GROUP BY `cols[0]`, wrapping SUM of `cols[1]`.
#[derive(Default)]
struct Groups(BTreeMap<u64, u64>);

impl Groups {
    fn add(&mut self, group: u64, value: u64) {
        let sum = self.0.entry(group).or_insert(0);
        *sum = sum.wrapping_add(value);
    }
}

impl WindowFold for Groups {
    /// When the group column is run-length encoded the accumulation is
    /// run-granular: each run contributes one masked value-kernel sum to
    /// its group — no per-row group decoding at all. Other group codecs
    /// pair O(1) random access on clean rows, which still skips the whole
    /// version-resolution machinery.
    fn fold_pages(&mut self, data: &[PagePtr], cols: &[usize], rows: Range<usize>, mask: &RowMask) {
        let (gpage, vpage) = (data[cols[0]].read(), data[cols[1]].read());
        match gpage.compressed() {
            Compressed::Rle(runs) => {
                for (start, end, group) in runs.runs_in(rows.start, rows.end) {
                    if mask.excluded_in(start, end) == end - start {
                        continue; // no visible row: the group must not appear
                    }
                    self.add(group, vpage.sum_range_masked(start, end, mask));
                }
            }
            _ => {
                for slot in rows.filter(|&slot| !mask.is_excluded(slot)) {
                    self.add(gpage.get(slot), vpage.get(slot));
                }
            }
        }
    }

    fn fold_row(&mut self, values: &[u64]) {
        self.add(values[0], values[1]);
    }

    fn merge(mut self, other: Self) -> Self {
        for (group, sum) in other.0 {
            self.add(group, sum);
        }
        self
    }
}

/// Materialized `(key, value-columns)` rows; `cols[0]` is the key column.
#[derive(Default)]
struct Rows(Vec<(u64, Vec<u64>)>);

impl WindowFold for Rows {
    fn fold_pages(&mut self, data: &[PagePtr], cols: &[usize], rows: Range<usize>, mask: &RowMask) {
        let pages: Vec<PageRead<'_>> = cols.iter().map(|&col| data[col].read()).collect();
        for slot in rows.filter(|&slot| !mask.is_excluded(slot)) {
            let values = pages[1..].iter().map(|page| page.get(slot)).collect();
            self.0.push((pages[0].get(slot), values));
        }
    }

    fn fold_row(&mut self, values: &[u64]) {
        self.0.push((values[0], values[1..].to_vec()));
    }

    fn merge(mut self, other: Self) -> Self {
        self.0.extend(other.0);
        self
    }
}

impl Table {
    /// Plan the kernel strategy for slots `lo..hi` of one range: the
    /// range's data pages plus the row-visibility mask over `cols`. A row
    /// is *clean* (kept in the mask) exactly when `read_column` would take
    /// its TPS fast path for every requested column: no newer-than-TPS
    /// tail version, a merged image no newer than the snapshot, and no
    /// delete marker. Every other row is excluded — the kernel skips it
    /// and the driver resolves it through the version chain.
    ///
    /// `None` sends the whole window to the per-row strategy: the range is
    /// still in its insert phase, some base record's start time is beyond
    /// the snapshot (`max_start` tracks raw Start Time cells, so unresolved
    /// transaction ids — bit 63 set — disqualify the range too), or the
    /// mask would be dense enough (> 1/[`DENSE_MASK_DENOM`] of the window)
    /// that per-slot resolution is cheaper than encoded-sum-minus-holes.
    fn visibility_mask<'b>(
        &self,
        range: &UpdateRange,
        base: &'b BaseVersion,
        cols: &[usize],
        ts: u64,
        lo: u32,
        hi: u32,
    ) -> Option<(&'b [PagePtr], RowMask)> {
        let BaseData::Pages { data, .. } = &base.data else {
            return None; // insert phase
        };
        if base.max_start == u64::MAX || base.max_start > ts {
            return None; // the snapshot straddles the base records
        }
        let mut mask = RowMask::new(base.len);
        let min_tps = cols
            .iter()
            .map(|&c| base.column_tps[c])
            .min()
            .unwrap_or(base.tps);
        let lu_clean = base.max_last_updated <= ts;
        // Whole-window shortcut: nothing unmerged for these columns, all
        // merged images inside the snapshot, no deletes — the empty mask,
        // without touching a single indirection cell. This is the
        // read-optimized path that makes L-Store scans behave like a
        // column store (§2.1).
        if !base.has_deletes && (range.tail.high_seq() as u64) <= min_tps && lu_clean {
            return Some((data, mask));
        }
        for slot in lo..hi {
            let head = range.indirection(slot);
            let clean = if head.is_null() {
                true
            } else {
                min_tps >= head.seq() as u64
                    && (lu_clean || {
                        let lu = base.last_updated(slot);
                        lu == NULL_VALUE || lu <= ts
                    })
            };
            if !clean || base.has_deletes && SchemaEncoding(base.schema_enc(slot)).is_delete() {
                mask.exclude(slot as usize);
            }
        }
        if mask.excluded() * DENSE_MASK_DENOM > (hi - lo) as usize {
            return None; // masked-dense
        }
        Some((data, mask))
    }

    /// The scan driver: fold `windows` of internal columns `cols` at
    /// snapshot `ts` into `acc`. Windows shorter than `kernel_min` slots go
    /// per-row without building a mask; every other window asks
    /// [`Table::visibility_mask`] which strategy it gets. Each range picks
    /// the codec kernel of its own base pages (pages merged under
    /// different codec policies coexist).
    ///
    /// Accounts the split once per window: rows the kernel step aggregated
    /// count as `fast_path_reads`, rows resolved per row as `chain_reads`.
    fn fold_windows<R: Deref<Target = UpdateRange>, A: WindowFold>(
        &self,
        windows: impl IntoIterator<Item = Window<R>>,
        cols: &[usize],
        ts: u64,
        kernel_min: u32,
        acc: &mut A,
    ) {
        let mode = ReadMode::as_of(ts);
        for (range, lo, hi) in windows {
            let range: &UpdateRange = &range;
            let base = range.base();
            let hi = hi.min(self.occupied_slots(range, &base));
            if lo >= hi {
                continue;
            }
            let reader = self.reader(range, &base);
            // A single column resolves through `read_column`, whose TPS
            // fast path needs no allocation.
            let row = |acc: &mut A, slot: u32| match *cols {
                [col] => {
                    if let Some(v) = reader.read_column(slot, col, mode) {
                        acc.fold_row(&[v]);
                    }
                }
                _ => {
                    if let Resolved::Visible { values, .. } = reader.read_record(slot, cols, mode) {
                        acc.fold_row(&values);
                    }
                }
            };
            let plan = if hi - lo >= kernel_min {
                self.visibility_mask(range, &base, cols, ts, lo, hi)
            } else {
                None
            };
            let chained = match plan {
                Some((data, mask)) => {
                    let (lo, hi) = (lo as usize, hi as usize);
                    acc.fold_pages(data, cols, lo..hi, &mask);
                    if !mask.all_visible() {
                        for slot in mask.iter_excluded(lo, hi) {
                            row(acc, slot as u32);
                        }
                    }
                    mask.excluded() as u64
                }
                None => {
                    for slot in lo..hi {
                        row(acc, slot);
                    }
                    (hi - lo) as u64
                }
            };
            let stats = self.range_stats(range);
            let fast = (hi - lo) as u64 - chained;
            if fast > 0 {
                TableStats::add(&stats.fast_path_reads, fast);
            }
            if chained > 0 {
                TableStats::add(&stats.chain_reads, chained);
            }
        }
    }

    /// Full-table fold: every range's occupied slots, fanned out over the
    /// shard-aligned scan partitions, one accumulator (from `init`) per
    /// fan-out chunk.
    fn fold_table<A: WindowFold + Send>(
        &self,
        cols: &[usize],
        ts: u64,
        init: impl Fn() -> A + Sync,
    ) -> A {
        let guard = self.runtime.epoch.pin();
        let parts = self.scan_partitions();
        merged(self.scan_fanout(&parts, &guard, |chunk| {
            let mut acc = init();
            let windows = chunk.iter().flatten().map(|range| (&**range, 0, u32::MAX));
            self.fold_windows(windows, cols, ts, 0, &mut acc);
            acc
        }))
    }

    /// Current clock value — convenient snapshot timestamp for detached
    /// scans ("now").
    pub fn now(&self) -> u64 {
        self.runtime.clock.peek()
    }

    /// SUM over a value column at snapshot `ts` (wrapping arithmetic, as
    /// deleted/invisible records contribute nothing). Fans out across the
    /// scan pool, one partial sum per contiguous chunk of ranges.
    pub fn sum_as_of(&self, user_col: usize, ts: u64) -> u64 {
        self.sum_cols_as_of(&[user_col], ts)[0]
    }

    /// SUM over a value column at the current snapshot.
    pub fn sum_auto(&self, user_col: usize) -> u64 {
        self.sum_as_of(user_col, self.now())
    }

    /// SUM over several value columns at once at snapshot `ts`: one table
    /// pass producing one total per requested column, all at the same
    /// snapshot, so the totals are mutually consistent. The mask is built
    /// jointly over the columns (a row is clean only when *every* requested
    /// cell is current).
    pub fn sum_cols_as_of(&self, user_cols: &[usize], ts: u64) -> Vec<u64> {
        let cols: Vec<usize> = user_cols.iter().map(|&c| c + 1).collect();
        self.fold_table(&cols, ts, || Sums(vec![0; cols.len()])).0
    }

    /// GROUP BY one value column, SUM another, at snapshot `ts`. Workers
    /// build per-chunk partial maps that merge associatively, so the result
    /// is identical for every pool width.
    pub fn group_by_sum(
        &self,
        group_user_col: usize,
        value_user_col: usize,
        ts: u64,
    ) -> BTreeMap<u64, u64> {
        let cols = [group_user_col + 1, value_user_col + 1];
        self.fold_table(&cols, ts, Groups::default).0
    }

    /// Count visible records at snapshot `ts`.
    pub fn count_as_of(&self, ts: u64) -> u64 {
        self.fold_table(&[0], ts, Count::default).0
    }

    /// Full scan: visible `(key, value-columns)` rows at snapshot `ts`, in
    /// ascending key order. Workers materialize rows per shard partition
    /// and the concatenation is key-sorted at the end, so the row order is
    /// identical for every shard count and pool width (physical placement
    /// — which shard's range holds a record — is never observable).
    pub fn scan_as_of(&self, user_cols: &[usize], ts: u64) -> Vec<(u64, Vec<u64>)> {
        let mut cols = vec![0usize]; // key first
        cols.extend(user_cols.iter().map(|&c| c + 1));
        let mut rows = self.fold_table(&cols, ts, Rows::default).0;
        rows.sort_by_key(|&(key, _)| key);
        rows
    }

    /// SUM over a value column restricted to keys in `[key_lo, key_hi]` via
    /// the primary index — the paper's partial scans "up to 10% of the data"
    /// (§6.1). The key interval splits into contiguous sub-intervals, one
    /// per pool thread; each worker plans its sub-interval's windows
    /// (`Table::key_windows`), and spans of at least `KERNEL_SPAN_MIN`
    /// slots are eligible for the kernel strategy — on merged, densely
    /// keyed data a 10% partial scan becomes a handful of masked kernel
    /// sums.
    pub fn sum_key_range(&self, user_col: usize, key_lo: u64, key_hi: u64, ts: u64) -> u64 {
        if key_hi < key_lo {
            return 0;
        }
        let cols = [user_col + 1];
        let guard = self.runtime.epoch.pin();
        // One sub-interval per configured width; saturating, so a
        // full-domain interval still partitions correctly (the loop is
        // bounded by `key_hi`, not by span).
        let span = (key_hi - key_lo).saturating_add(1);
        let width = (self.runtime.scan_width() as u64).min(span).max(1);
        let per = span.div_ceil(width);
        let mut bounds = Vec::with_capacity(width as usize);
        let mut lo = key_lo;
        loop {
            let hi = key_hi.min(lo.saturating_add(per - 1));
            bounds.push((lo, hi));
            if hi == key_hi {
                break;
            }
            lo = hi + 1;
        }
        let partials = self.scan_fanout(&bounds, &guard, |chunk| {
            let mut acc = Sums(vec![0]);
            for &(lo, hi) in chunk {
                let windows = self.key_windows(lo, hi);
                self.fold_windows(windows, &cols, ts, KERNEL_SPAN_MIN, &mut acc);
            }
            acc
        });
        merged(partials).0[0]
    }

    /// Plan the windows of the keys in `[key_lo, key_hi]`: consecutive
    /// keys that resolve to consecutive slots of one range coalesce into
    /// one window (keys are usually clustered per range).
    fn key_windows(&self, key_lo: u64, key_hi: u64) -> Vec<Window<Arc<UpdateRange>>> {
        let mut windows: Vec<Window<Arc<UpdateRange>>> = Vec::new();
        for key in key_lo..=key_hi {
            let Ok(rid) = self.locate(key) else {
                continue;
            };
            let range = match windows.last_mut() {
                Some((range, _, hi)) if range.id == rid.range() => {
                    if *hi == rid.slot() {
                        *hi += 1; // extend the open window
                        continue;
                    }
                    Arc::clone(range)
                }
                _ => self.range(rid.range()),
            };
            windows.push((range, rid.slot(), rid.slot() + 1));
        }
        windows
    }

    /// RID-ordered partial scan: SUM `user_col` over `count` consecutive
    /// record slots starting at `start` (crossing range boundaries). This is
    /// how a columnar engine scans a segment of the table — no per-record
    /// index lookups (§6.1's "scan up to 10% of the data"). The span is
    /// pre-split at range boundaries and the per-range windows — which may
    /// start or end mid-range; the kernels take `lo..hi` natively — fan
    /// out across the pool.
    pub fn sum_rid_span(&self, start: Rid, count: u64, user_col: usize, ts: u64) -> u64 {
        let cols = [user_col + 1];
        let guard = self.runtime.epoch.pin();
        let mut windows: Vec<Window<Arc<UpdateRange>>> = Vec::new();
        let mut remaining = count;
        let mut slot = start.slot();
        for range_id in start.range()..self.range_count() as u32 {
            if remaining == 0 {
                break;
            }
            let range = self.range(range_id);
            let slots = self.occupied_slots(&range, &range.base());
            if slot < slots {
                let take = remaining.min((slots - slot) as u64);
                windows.push((range, slot, slot + take as u32));
                remaining -= take;
            }
            slot = 0;
        }
        let partials = self.scan_fanout(&windows, &guard, |chunk| {
            let mut acc = Sums(vec![0]);
            self.fold_windows(chunk.iter().cloned(), &cols, ts, 0, &mut acc);
            acc
        });
        merged(partials).0[0]
    }

    /// Multi-column consistency check (Lemma 3 / Theorem 2): read several
    /// columns of one record, *detecting* per-column TPS divergence from
    /// independent column merges and reconciling through the version chain.
    /// Returns `(values, was_consistent)` where `was_consistent` is false
    /// when the fast path had to be abandoned because the columns' TPS
    /// counters differed.
    pub fn read_consistent(
        &self,
        key: u64,
        user_cols: &[usize],
        ts: u64,
    ) -> crate::error::Result<(Option<Vec<u64>>, bool)> {
        let cols: Vec<usize> = user_cols.iter().map(|&c| c + 1).collect();
        let base_rid = self.locate(key)?;
        let range = self.range(base_rid.range());
        let base = range.base();
        // Lemma 3: "for a range of records, all read base pages must have an
        // identical TPS counter; otherwise, the read will be inconsistent."
        let tps0 = cols.first().map(|&c| base.column_tps[c]).unwrap_or(0);
        let consistent = cols.iter().all(|&c| base.column_tps[c] == tps0);
        // Theorem 2: reconciliation is always possible — the as-of chain
        // walk brings every column to the same snapshot independently.
        let reader = self.reader(&range, &base);
        match reader.read_record(base_rid.slot(), &cols, ReadMode::as_of(ts)) {
            Resolved::Visible { values, .. } => Ok((Some(values), consistent)),
            _ => Ok((None, consistent)),
        }
    }

    /// Latest-committed point read of all value columns (auto-commit) — a
    /// thin adapter over [`Table::read_one`] with a latest-snapshot
    /// [`crate::request::ReadRequest`]; [`Table::multi_read_latest`] is the
    /// batched variant.
    pub fn read_latest_auto(&self, key: u64) -> crate::error::Result<Vec<u64>> {
        self.read_one(&crate::request::ReadRequest::latest(key))?
            .values
            .ok_or(crate::error::Error::KeyNotFound(key))
    }

    /// Latest-committed point read of selected value columns (auto-commit);
    /// `None` when the record is deleted, [`Error::ColumnOutOfRange`] when
    /// `user_cols` names a column the table lacks. A thin adapter over
    /// [`Table::read_one`]; the batched variant is
    /// [`Table::multi_read_cols_latest`].
    ///
    /// [`Error::ColumnOutOfRange`]: crate::error::Error::ColumnOutOfRange
    pub fn read_cols_auto(
        &self,
        key: u64,
        user_cols: &[usize],
    ) -> crate::error::Result<Option<Vec<u64>>> {
        let cols: Vec<u32> = user_cols.iter().map(|&c| c as u32).collect();
        let request = crate::request::ReadRequest::latest(key).with_columns(cols);
        Ok(self.read_one(&request)?.values)
    }
}

/// Combine the per-chunk partials of one fanned-out scan.
fn merged<A: WindowFold>(partials: Vec<A>) -> A {
    partials
        .into_iter()
        .reduce(A::merge)
        .expect("scan_fanout returns one partial per chunk, at least one")
}
