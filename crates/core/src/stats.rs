//! Engine statistics counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lifetime counters for one table. All counters are monotone and relaxed —
//  they inform benchmarks and tests, never control flow.
#[derive(Debug, Default)]
pub struct TableStats {
    /// Records inserted.
    pub inserts: AtomicU64,
    /// Update statements applied (tail records, excluding snapshots).
    pub updates: AtomicU64,
    /// Delete statements applied.
    pub deletes: AtomicU64,
    /// First-update snapshot records taken (§3.1).
    pub snapshots_taken: AtomicU64,
    /// Write-write conflicts detected (→ aborts).
    pub write_conflicts: AtomicU64,
    /// Merge passes executed.
    pub merges: AtomicU64,
    /// Tail records consumed by merges.
    pub merged_records: AtomicU64,
    /// Insert ranges graduated to base pages.
    pub insert_merges: AtomicU64,
    /// Tail records compressed into the historic store.
    pub historic_compressed: AtomicU64,
    /// Scan rows aggregated straight off base pages by the kernel step
    /// (counted once per scan window, never per row).
    pub fast_path_reads: AtomicU64,
    /// Scan rows the kernel step did not fold: the dirty rows of kernel
    /// windows (patched by the suffix pass or chased through the version
    /// chain) plus every slot of per-row windows.
    pub chain_reads: AtomicU64,
    /// Tail records the scans' suffix passes covered.
    pub tail_pass_records: AtomicU64,
    /// Of `chain_reads`, the dirty rows a suffix pass settled instead of
    /// a chain walk.
    pub tail_pass_rows: AtomicU64,
}

impl TableStats {
    /// Bump a counter.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot all counters into a plain struct for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            inserts: self.inserts.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            snapshots_taken: self.snapshots_taken.load(Ordering::Relaxed),
            write_conflicts: self.write_conflicts.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            merged_records: self.merged_records.load(Ordering::Relaxed),
            insert_merges: self.insert_merges.load(Ordering::Relaxed),
            historic_compressed: self.historic_compressed.load(Ordering::Relaxed),
            fast_path_reads: self.fast_path_reads.load(Ordering::Relaxed),
            chain_reads: self.chain_reads.load(Ordering::Relaxed),
            tail_pass_records: self.tail_pass_records.load(Ordering::Relaxed),
            tail_pass_rows: self.tail_pass_rows.load(Ordering::Relaxed),
            pool_resident: 0,
            pool_pinned: 0,
            pool_hits: 0,
            pool_faults: 0,
            pool_evictions: 0,
            pool_writebacks: 0,
        }
    }
}

impl StatsSnapshot {
    /// Add `other`'s counters into this snapshot — aggregating the
    /// per-shard statistics blocks of a key-range sharded table into one
    /// table-wide view. The exhaustive destructuring (no `..`) makes
    /// adding a counter without aggregating it a compile error.
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        let StatsSnapshot {
            inserts,
            updates,
            deletes,
            snapshots_taken,
            write_conflicts,
            merges,
            merged_records,
            insert_merges,
            historic_compressed,
            fast_path_reads,
            chain_reads,
            tail_pass_records,
            tail_pass_rows,
            pool_resident,
            pool_pinned,
            pool_hits,
            pool_faults,
            pool_evictions,
            pool_writebacks,
        } = *other;
        self.inserts += inserts;
        self.updates += updates;
        self.deletes += deletes;
        self.snapshots_taken += snapshots_taken;
        self.write_conflicts += write_conflicts;
        self.merges += merges;
        self.merged_records += merged_records;
        self.insert_merges += insert_merges;
        self.historic_compressed += historic_compressed;
        self.fast_path_reads += fast_path_reads;
        self.chain_reads += chain_reads;
        self.tail_pass_records += tail_pass_records;
        self.tail_pass_rows += tail_pass_rows;
        // Buffer-pool fields describe the one database-global pool, not a
        // per-shard block: `max` keeps the stamped value intact whether the
        // other side is an unstamped shard block (zeros) or another table's
        // view of the same pool (equal values) — never double-counting.
        self.pool_resident = self.pool_resident.max(pool_resident);
        self.pool_pinned = self.pool_pinned.max(pool_pinned);
        self.pool_hits = self.pool_hits.max(pool_hits);
        self.pool_faults = self.pool_faults.max(pool_faults);
        self.pool_evictions = self.pool_evictions.max(pool_evictions);
        self.pool_writebacks = self.pool_writebacks.max(pool_writebacks);
    }
}

/// Plain-data snapshot of [`TableStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Records inserted.
    pub inserts: u64,
    /// Update statements applied.
    pub updates: u64,
    /// Delete statements applied.
    pub deletes: u64,
    /// First-update snapshot records taken.
    pub snapshots_taken: u64,
    /// Write-write conflicts detected.
    pub write_conflicts: u64,
    /// Merge passes executed.
    pub merges: u64,
    /// Tail records consumed by merges.
    pub merged_records: u64,
    /// Insert ranges graduated to base pages.
    pub insert_merges: u64,
    /// Tail records compressed into the historic store.
    pub historic_compressed: u64,
    /// Scan rows aggregated straight off base pages.
    pub fast_path_reads: u64,
    /// Scan rows the kernel step did not fold (patched or chased).
    pub chain_reads: u64,
    /// Tail records covered by scans' suffix passes.
    pub tail_pass_records: u64,
    /// Dirty scan rows settled by a suffix pass (a subset of `chain_reads`).
    pub tail_pass_rows: u64,
    /// Buffer-pool gauge: base-page frames currently resident in memory
    /// (0 when the database runs without a page store). The eviction
    /// invariant `pool_resident <= budget + pool_pinned` holds at every
    /// snapshot, absent writeback failures pinning dirty victims.
    pub pool_resident: u64,
    /// Buffer-pool gauge: outstanding page pins (reader guards in flight).
    pub pool_pinned: u64,
    /// Buffer-pool counter: pins served from a resident frame.
    pub pool_hits: u64,
    /// Buffer-pool counter: pins that faulted the page in from the store.
    pub pool_faults: u64,
    /// Buffer-pool counter: frames evicted to enforce the budget.
    pub pool_evictions: u64,
    /// Buffer-pool counter: dirty-frame writebacks (eviction or flush).
    pub pool_writebacks: u64,
}
