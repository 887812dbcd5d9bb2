//! Engine statistics counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lifetime counters for one table. All counters are monotone and relaxed —
//  they inform benchmarks and tests, never control flow. Aligned to its own
//  cache-line neighbourhood so the counter traffic of writers and scans
//  never invalidates the table's read-mostly fields.
#[derive(Debug, Default)]
#[repr(align(128))]
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
        }
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
}
