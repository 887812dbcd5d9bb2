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
//! Per window the driver snapshots the range's base version once and plans
//! (`Table::plan_window`) one of two strategies:
//!
//! * **kernel + patched rows** — the plan for every merged window whose
//!   base records all predate the snapshot. The window's dirty rows come
//!   from one backward pass over the range's *unmerged tail suffix*
//!   (`seq ∈ (min column TPS of the scanned columns, high_seq]`), the way
//!   the merge itself consumes the tail (§4.1.1, Algorithm 1 step 3):
//!   newest version wins, everything at or below the TPS is already in the
//!   base page (§4.2). The pass reads a lock-free snapshot of the covering
//!   tail pages ([`crate::tailseg::TailSuffix`]), excludes every base slot
//!   it meets from the window's `RowMask`, lets the first version visible
//!   at the snapshot decide delete vs live, settles each scanned column
//!   from the newest visible version that carries it, and fills what is
//!   left from the base page. The accumulator's page step then aggregates
//!   the clean rows straight off the compressed pages (the codec's
//!   [`lstore_storage::compress::ColumnKernel`]: run arithmetic for RLE,
//!   word-walk block sums for FOR/bit-packing, code frequencies for
//!   dictionaries) and its row step receives one patched row per live
//!   dirty slot. Rows the pass cannot decide — a merged image newer than
//!   the snapshot (checked per slot only when the base version's
//!   `max_last_updated` says one exists), a merged delete marker (only
//!   under `has_deletes`) — are *chased* through the version chain
//!   (`VersionReader::read_column`, allocation-free for one column). A
//!   window with neither unmerged records nor such rows skips all of it:
//!   the empty mask, no cell touched. A window much narrower than the
//!   suffix (a short `sum_key_range` span under a long backlog) finds its
//!   dirty rows from its own indirection cells instead and chases them.
//! * **per-row** — every slot resolves through the version chain. Two
//!   observable conditions pick it: the range is still in its insert phase
//!   (no base pages yet), or the snapshot straddles the base records'
//!   start times. (Also the fallback when historic compression retired
//!   suffix pages under the scan, which takes a race to see.)
//!
//! Results are byte-identical on every path. Full scans,
//! [`Table::sum_rid_span`] and [`Table::sum_key_range`] differ only in how
//! they plan windows.
//!
//! Every analytical entry point fans its per-range work out across the
//! unified merge/scan task pool ([`crate::pool::TaskPool`], sized by
//! `DbConfig::pool_threads`): ranges partition the table into disjoint
//! record sets whose base versions are immutable snapshots, so per-range
//! partial aggregates combine without any synchronization — the epoch
//! discipline makes the fan-out embarrassingly parallel. The same workers
//! drain the merge queue, interleaving scan partitions with
//! merge jobs so neither starves the other under mixed load. Each worker
//! reads under the scan's one pin (a borrowed epoch guard) and loads its
//! ranges' `BaseVersion`s exactly as the sequential path does; with
//! `pool_threads = 1` (the `DbConfig::deterministic()` setting) every scan
//! stays strictly sequential on the calling thread.
//!
//! The fan-out units are contiguous runs of ranges in global-id order, one
//! per pool thread (`Table::scan_fanout`). Aggregates combine associatively
//! and `scan_as_of` sorts by key, so neither the insert-lane count nor the
//! pool width is observable in any result (the `property_model` suite pins
//! both).

use std::collections::BTreeMap;
use std::ops::{Deref, Range};
use std::sync::Arc;

use lstore_storage::compress::{Compressed, RowMask};
use lstore_storage::epoch::EpochGuard;
use lstore_storage::store::{PagePtr, PageRead};
use lstore_storage::NULL_VALUE;

use lstore_txn::TxnManager;

use crate::range::{BaseData, BaseVersion, UpdateRange};
use crate::read::{ReadMode, Resolved};
use crate::rid::Rid;
use crate::schema::SchemaEncoding;
use crate::table::Table;
use crate::tailseg::TailSuffix;

/// A window shorter than `1/NARROW_WINDOW_DENOM` of its range's unmerged
/// suffix finds its dirty rows from its own indirection cells and chases
/// them. Warm, the pass walks a suffix record in ≈ 2–3 ns and patches a
/// dirty row in ≈ 20; cold — a full 4096-row window under ≈ 1400 records,
/// its ≈ 800 dirty rows included — a window costs ≈ 22–29 ns per suffix
/// record all told. A chase costs 60–190 ns, so at 16 records per slot
/// even a window whose every slot is dirty loses little to the pass, and
/// the usual sparse one wins several times over (docs/BENCHMARKS.md has
/// the table).
const NARROW_WINDOW_DENOM: u64 = 16;

/// Minimum coalesced slot-span length before `sum_key_range` tries the
/// kernel strategy; shorter spans resolve per row (planning a window must
/// amortize).
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

    /// Per-row step: fold one visible record — a dirty row patched by the
    /// suffix pass, or one resolved through the version chain.
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
        // faults in here. Streaming: the scan will not come back to it.
        for (sum, &col) in self.0.iter_mut().zip(cols) {
            let page = data[col].read_streaming();
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
        let (gpage, vpage) = (
            data[cols[0]].read_streaming(),
            data[cols[1]].read_streaming(),
        );
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
        let pages: Vec<PageRead<'_>> = cols.iter().map(|&col| data[col].read_streaming()).collect();
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

/// `WindowPlan::index` markers; any other value is an index into `rows`.
const CLEAN: u32 = u32::MAX;
const CHASED: u32 = u32::MAX - 1;

/// A dirty row the suffix pass is settling.
struct PatchedRow {
    slot: u32,
    /// `None` until the pass meets the row's newest visible version, then
    /// whether that version is live (not a delete).
    live: Option<bool>,
    /// Scanned columns no visible suffix version has carried yet.
    missing: u32,
}

/// The plan of one kernel-strategy window, and the scratch it is built in:
/// one per [`Table::fold_windows`] call, reused across its windows.
#[derive(Default)]
struct WindowPlan {
    /// Rows the kernel step must skip: `rows` and `chased`.
    mask: RowMask,
    /// Dirty rows the suffix pass settled, in the order it met them.
    rows: Vec<PatchedRow>,
    /// `rows.len() × cols.len()` column values, row-major, and whether a
    /// suffix version supplied each (the rest come off the base page).
    values: Vec<u64>,
    settled: Vec<bool>,
    /// Rows left to the version chain.
    chased: Vec<u32>,
    /// Per window slot: [`CLEAN`], [`CHASED`] or the slot's place in `rows`.
    index: Vec<u32>,
    suffix: TailSuffix,
}

impl WindowPlan {
    /// Start the plan of a window over base pages of `len` rows: nothing
    /// excluded.
    fn reset(&mut self, len: usize) {
        self.mask.reset(len);
        self.rows.clear();
        self.values.clear();
        self.settled.clear();
        self.chased.clear();
    }

    /// Leave `slot` to the version chain.
    fn chase(&mut self, slot: u32) {
        if !self.mask.is_excluded(slot as usize) {
            self.mask.exclude(slot as usize);
            self.chased.push(slot);
        }
    }

    /// The suffix pass over `self.suffix`, for slots `lo..hi`: one walk
    /// newest → oldest, the merge's reverse scan (§4.1.1) with a snapshot
    /// bound. Every record's base slot inside the window becomes a
    /// [`PatchedRow`] (unless already chased) and leaves the mask; the
    /// first version visible at `ts` decides delete vs live; each scanned
    /// column settles from the newest visible version that carries it.
    /// Transaction-id Start Time cells resolve through `mgr` (and are
    /// swapped for the commit timestamp once committed, §5.1.1), exactly
    /// as `VersionReader::resolve_tail` does for a detached reader.
    ///
    /// Returns whether the snapshot is current for the records the pass
    /// resolved: none was in flight or committed after `ts`.
    fn tail_pass(&mut self, mgr: &TxnManager, cols: &[usize], ts: u64, lo: u32, hi: u32) -> bool {
        let WindowPlan {
            mask,
            rows,
            values,
            settled,
            chased,
            index,
            suffix,
        } = self;
        let n = cols.len();
        let mut current = true;
        index.clear();
        index.resize((hi - lo) as usize, CLEAN);
        for &slot in chased.iter() {
            index[(slot - lo) as usize] = CHASED;
        }
        suffix.for_each_newest_first(|rec| {
            if !rec.base_rid.is_base() {
                return;
            }
            let slot = rec.base_rid.slot();
            if slot < lo || slot >= hi {
                return;
            }
            let at = &mut index[(slot - lo) as usize];
            if *at == CHASED {
                return;
            }
            if *at == CLEAN {
                *at = rows.len() as u32;
                rows.push(PatchedRow {
                    slot,
                    live: None,
                    missing: n as u32,
                });
                values.resize(values.len() + n, 0);
                settled.resize(settled.len() + n, false);
                mask.exclude(slot as usize);
            }
            let first = *at as usize * n;
            let row = &mut rows[*at as usize];
            if row.live == Some(false) || (row.live == Some(true) && row.missing == 0) {
                return; // nothing older can matter
            }
            let cell = rec.start_cell;
            let owner = mgr.resolve_start_time(cell, || rec.reread_start_cell());
            let Some(commit) = owner.visible(false) else {
                current &= !owner.in_flight();
                return; // in flight or aborted
            };
            if lstore_txn::is_txn_id(cell) {
                rec.swap_start_cell(cell, commit);
            }
            if commit > ts {
                current = false;
                return;
            }
            let enc = rec.encoding();
            if row.live.is_none() {
                row.live = Some(!enc.is_delete());
            }
            if enc.is_delete() {
                return; // carries no values
            }
            for (i, &col) in cols.iter().enumerate() {
                if !settled[first + i] && enc.has(col) {
                    values[first + i] = rec.value(i);
                    settled[first + i] = true;
                    row.missing -= 1;
                }
            }
        });
        current
    }

    /// Hand the live patched rows to `acc`, after giving their unsettled
    /// columns the base page's value — the merged image holds everything
    /// at or below the TPS. One page pin per column that needs any.
    fn fold_patched<A: WindowFold>(&mut self, data: &[PagePtr], cols: &[usize], acc: &mut A) {
        let n = cols.len();
        let deleted = |row: &PatchedRow| row.live == Some(false);
        for (i, &col) in cols.iter().enumerate() {
            let mut page = None;
            for (r, row) in self.rows.iter().enumerate() {
                if !deleted(row) && !self.settled[r * n + i] {
                    let page = page.get_or_insert_with(|| data[col].read());
                    self.values[r * n + i] = page.get(row.slot as usize);
                }
            }
        }
        for (r, row) in self.rows.iter().enumerate() {
            if !deleted(row) {
                acc.fold_row(&self.values[r * n..(r + 1) * n]);
            }
        }
    }
}

impl Table {
    /// Plan the kernel strategy for slots `lo..hi` of one range into
    /// `plan` and return the range's data pages. A row stays *clean* (kept
    /// in the mask, folded by the kernel step) exactly when its base cells
    /// are what a reader at `ts` sees for every column of `cols`: no
    /// version above the columns' TPS, a merged image no newer than the
    /// snapshot, no delete marker. Dirty rows are patched by
    /// [`WindowPlan::tail_pass`] or, where the pass cannot decide, chased.
    ///
    /// `None` sends the whole window to the per-row strategy: the range is
    /// still in its insert phase, or some base record's start time is
    /// beyond the snapshot (`max_start` tracks raw Start Time cells, so
    /// unresolved transaction ids — bit 63 set — disqualify the range too).
    #[allow(clippy::too_many_arguments)]
    fn plan_window<'b>(
        &self,
        range: &UpdateRange,
        base: &'b BaseVersion,
        cols: &[usize],
        ts: u64,
        lo: u32,
        hi: u32,
        plan: &mut WindowPlan,
        guard: &EpochGuard<'_>,
    ) -> Option<&'b [PagePtr]> {
        let BaseData::Pages {
            data,
            last_updated,
            schema_enc,
            ..
        } = &base.data
        else {
            return None; // insert phase
        };
        if base.max_start == u64::MAX || base.max_start > ts {
            return None; // the snapshot straddles the base records
        }
        plan.reset(base.len);
        let min_tps = cols
            .iter()
            .map(|&c| base.column_tps[c])
            .min()
            .unwrap_or(base.tps);
        let high_seq = range.tail.high_seq() as u64;
        let lu_clean = base.max_last_updated <= ts;
        // Whole-window shortcut: nothing unmerged for these columns, all
        // merged images inside the snapshot, no deletes — the empty mask,
        // without touching a single cell. This is the read-optimized path
        // that makes L-Store scans behave like a column store (§2.1).
        if !base.has_deletes && high_seq <= min_tps && lu_clean {
            return Some(data);
        }
        // Rows whose merged image is not what the snapshot sees: the
        // per-slot checks run only under the base-level flags that make
        // them necessary, one page pin each.
        if !lu_clean || base.has_deletes {
            let last_updated = (!lu_clean).then(|| last_updated.read());
            let schema_enc = base.has_deletes.then(|| schema_enc.read());
            for slot in lo..hi {
                let newer = last_updated.as_ref().is_some_and(|page| {
                    let lu = page.get(slot as usize);
                    lu != NULL_VALUE && lu > ts
                });
                let deleted = schema_enc
                    .as_ref()
                    .is_some_and(|page| SchemaEncoding(page.get(slot as usize)).is_delete());
                if newer || deleted {
                    plan.chase(slot);
                }
            }
        }
        let suffix_len = high_seq.saturating_sub(min_tps);
        if suffix_len > (hi - lo) as u64 * NARROW_WINDOW_DENOM {
            for slot in lo..hi {
                let head = range.indirection(slot);
                if !head.is_null() && head.seq() as u64 > min_tps {
                    plan.chase(slot);
                }
            }
        } else if suffix_len > 0 {
            range.tail.snapshot_suffix(
                min_tps as u32,
                high_seq as u32,
                cols,
                &mut plan.suffix,
                guard,
            );
            // Historic compression (§4.3) advances the boundary before it
            // releases pages, so a suffix that lost pages shows here.
            if range.historic_boundary() > min_tps + 1 {
                return None;
            }
            let current = plan.tail_pass(&self.runtime.mgr, cols, ts, lo, hi);
            let walked = plan.suffix.len() as u64;
            let stats = &self.stats;
            stats.tail_pass_records.add(walked);
            stats.tail_pass_rows.add(plan.rows.len() as u64);
            // Scans request the merge they keep paying for: once their
            // passes have walked as many unmerged records as the range has
            // rows. Only a current snapshot counts — a merge would save a
            // scan behind the writers nothing, and would turn its patched
            // rows into chased ones.
            if current && range.note_scanned_suffix(walked) >= range.capacity as u64 {
                self.enqueue_merge(range);
            }
        }
        Some(data)
    }

    /// The scan driver: fold `windows` of internal columns `cols` at
    /// snapshot `ts` into `acc`. Windows shorter than `kernel_min` slots go
    /// per-row without a plan; every other window asks
    /// [`Table::plan_window`] which strategy it gets. Each range picks the
    /// codec kernel of its own base pages (pages merged under different
    /// codec policies coexist).
    ///
    /// Accounts the split once per window: rows the kernel step aggregated
    /// count as `fast_path_reads`, all others as `chain_reads` (of which
    /// [`Table::plan_window`] counts the `tail_pass_rows` its suffix pass
    /// settled rather than left to be chased).
    fn fold_windows<R: Deref<Target = UpdateRange>, A: WindowFold>(
        &self,
        windows: impl IntoIterator<Item = Window<R>>,
        cols: &[usize],
        ts: u64,
        kernel_min: u32,
        acc: &mut A,
        guard: &EpochGuard<'_>,
    ) {
        let mode = ReadMode::as_of(ts);
        let mut plan = WindowPlan::default();
        for (range, lo, hi) in windows {
            let range: &UpdateRange = &range;
            let base = range.base(guard);
            let hi = hi.min(self.occupied_slots(range, base));
            if lo >= hi {
                continue;
            }
            let reader = self.reader(range, base, guard);
            // A single column resolves through `read_column`, which
            // allocates nothing.
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
            let pages = if hi - lo >= kernel_min {
                self.plan_window(range, base, cols, ts, lo, hi, &mut plan, guard)
            } else {
                None
            };
            let chained = match pages {
                Some(data) => {
                    acc.fold_pages(data, cols, lo as usize..hi as usize, &plan.mask);
                    plan.fold_patched(data, cols, acc);
                    for &slot in &plan.chased {
                        row(acc, slot);
                    }
                    plan.mask.excluded() as u64
                }
                None => {
                    for slot in lo..hi {
                        row(acc, slot);
                    }
                    (hi - lo) as u64
                }
            };
            let stats = &self.stats;
            let fast = (hi - lo) as u64 - chained;
            if fast > 0 {
                stats.fast_path_reads.add(fast);
            }
            if chained > 0 {
                stats.chain_reads.add(chained);
            }
        }
    }

    /// Full-table fold: every range's occupied slots, the ranges split into
    /// one contiguous chunk per pool thread, one accumulator (from `init`)
    /// per chunk.
    fn fold_table<A: WindowFold + Send>(
        &self,
        cols: &[usize],
        ts: u64,
        init: impl Fn() -> A + Sync,
    ) -> A {
        let guard = self.runtime.epoch.pin();
        let ranges = self.all_ranges();
        let partials = self.scan_fanout(&ranges, |chunk| {
            let mut acc = init();
            let windows = chunk.iter().map(|range| (&**range, 0, u32::MAX));
            self.fold_windows(windows, cols, ts, 0, &mut acc, &guard);
            acc
        });
        merged(init(), partials)
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
    /// ascending key order. Workers materialize rows per chunk of ranges
    /// and the concatenation is key-sorted at the end, so the row order is
    /// identical for every lane count and pool width (physical placement
    /// — which range holds a record — is never observable).
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
        let partials = self.scan_fanout(&bounds, |chunk| {
            let mut acc = Sums(vec![0]);
            for &(lo, hi) in chunk {
                let windows = self.key_windows(lo, hi);
                self.fold_windows(windows, &cols, ts, KERNEL_SPAN_MIN, &mut acc, &guard);
            }
            acc
        });
        merged(Sums(vec![0]), partials).0[0]
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
                _ => Arc::clone(self.range(rid.range())),
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
            let slots = self.occupied_slots(range, range.base(&guard));
            if slot < slots {
                let take = remaining.min((slots - slot) as u64);
                windows.push((Arc::clone(range), slot, slot + take as u32));
                remaining -= take;
            }
            slot = 0;
        }
        let partials = self.scan_fanout(&windows, |chunk| {
            let mut acc = Sums(vec![0]);
            self.fold_windows(chunk.iter().cloned(), &cols, ts, 0, &mut acc, &guard);
            acc
        });
        merged(Sums(vec![0]), partials).0[0]
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
        let guard = self.runtime.epoch.pin();
        let base = range.base(&guard);
        // Lemma 3: "for a range of records, all read base pages must have an
        // identical TPS counter; otherwise, the read will be inconsistent."
        let tps0 = cols.first().map(|&c| base.column_tps[c]).unwrap_or(0);
        let consistent = cols.iter().all(|&c| base.column_tps[c] == tps0);
        // Theorem 2: reconciliation is always possible — the as-of chain
        // walk brings every column to the same snapshot independently.
        let reader = self.reader(range, base, &guard);
        match reader.read_record(base_rid.slot(), &cols, ReadMode::as_of(ts)) {
            Resolved::Visible { values, .. } => Ok((Some(values), consistent)),
            _ => Ok((None, consistent)),
        }
    }
}

/// Combine the per-chunk partials of one fanned-out scan; `empty`, the
/// accumulator of no rows, stands in when there are none.
fn merged<A: WindowFold>(empty: A, partials: Vec<A>) -> A {
    let mut partials = partials.into_iter();
    let first = partials.next().unwrap_or(empty);
    partials.fold(first, A::merge)
}
