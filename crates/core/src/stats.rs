//! Engine statistics: each table's counters, and [`Metrics`], the one
//! snapshot of every counter set in a database ([`crate::Database::metrics`]).

use std::collections::BTreeMap;

use lstore_storage::epoch::EpochStats;
use lstore_storage::store::PoolStatsSnapshot;
use lstore_wal::WalStats;

lstore_storage::metric_set! {
    /// Lifetime counters for one table. Aligned to its own cache-line
    /// neighbourhood so the counter traffic of writers and scans never
    /// invalidates the table's read-mostly fields.
    #[repr(align(128))]
    pub struct TableStats;
    /// Plain-data snapshot of [`TableStats`].
    pub struct StatsSnapshot {
        /// Records inserted.
        inserts: Counter,
        /// Update statements applied (tail records, excluding snapshots).
        updates: Counter,
        /// Delete statements applied.
        deletes: Counter,
        /// First-update snapshot records taken (§3.1).
        snapshots_taken: Counter,
        /// Write-write conflicts detected (→ aborts).
        write_conflicts: Counter,
        /// Merge passes executed.
        merges: Counter,
        /// Tail records consumed by merges.
        merged_records: Counter,
        /// Insert ranges graduated to base pages.
        insert_merges: Counter,
        /// Tail records compressed into the historic store.
        historic_compressed: Counter,
        /// Scan rows aggregated straight off base pages by the kernel step
        /// (counted once per scan window, never per row).
        fast_path_reads: Counter,
        /// Scan rows the kernel step did not fold: the dirty rows of kernel
        /// windows (patched by the suffix pass or chased through the version
        /// chain) plus every slot of per-row windows.
        chain_reads: Counter,
        /// Tail records the scans' suffix passes covered.
        tail_pass_records: Counter,
        /// Of `chain_reads`, the dirty rows a suffix pass settled instead of
        /// a chain walk.
        tail_pass_rows: Counter,
    }
}

/// Every counter set of a database, read at one call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Each table's counters, by table name.
    pub tables: BTreeMap<String, StatsSnapshot>,
    /// The page store's buffer pool (`None` without a page store).
    pub store: Option<PoolStatsSnapshot>,
    /// The log's commit-wait counters (`None` without a WAL).
    pub wal: Option<WalStats>,
    /// Epoch reclamation of outdated base pages.
    pub epoch: EpochStats,
}
