//! Engine configuration.

use lstore_storage::compress::CodecChoice;
use std::path::PathBuf;

/// Per-table tuning knobs.
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Update-range size: records per (virtual) range partition. The paper
    /// finds 2^12..2^16 best (§4.4); default 2^12. Insert ranges (§3.2) have
    /// the same capacity, so a merged insert range is one update range, and
    /// insert lanes stripe the key space in runs of this many keys.
    pub range_size: usize,
    /// Slots per physical tail page. Tail pages "could be smaller than base
    /// pages" (§4.4 footnote); default 2^10.
    pub tail_page_slots: usize,
    /// Enqueue a background merge for a range once this many unmerged tail
    /// records accumulate. §6.2 finds ~50% of the range size optimal.
    pub merge_threshold: usize,
    /// Cumulative updates (§3.1): each tail record repeats the latest values
    /// of previously updated columns, trading write-side copying for
    /// shorter read chains. Cumulation resets at every merge (§4.2).
    pub cumulative_updates: bool,
    /// Codec policy for merged base pages.
    pub codec: CodecChoice,
}

impl Default for TableConfig {
    fn default() -> Self {
        let range_size = 1 << 12;
        TableConfig {
            range_size,
            tail_page_slots: 1 << 10,
            merge_threshold: range_size / 2,
            cumulative_updates: true,
            codec: CodecChoice::Auto,
        }
    }
}

impl TableConfig {
    /// A small configuration for examples and tests: 256-record ranges so
    /// merges and range rollover happen quickly.
    pub fn small() -> Self {
        TableConfig {
            range_size: 256,
            tail_page_slots: 64,
            merge_threshold: 128,
            ..TableConfig::default()
        }
    }

    /// Set the update-range size (and scale the merge threshold to 50%).
    pub fn with_range_size(mut self, range_size: usize) -> Self {
        self.range_size = range_size;
        self.merge_threshold = (range_size / 2).max(1);
        self
    }

    /// Set the merge threshold (number of tail records per merge trigger).
    pub fn with_merge_threshold(mut self, threshold: usize) -> Self {
        self.merge_threshold = threshold.max(1);
        self
    }

    /// Enable/disable cumulative updates.
    pub fn with_cumulative(mut self, on: bool) -> Self {
        self.cumulative_updates = on;
        self
    }

    /// Set the base-page codec policy.
    pub fn with_codec(mut self, codec: CodecChoice) -> Self {
        self.codec = codec;
        self
    }

    /// The configuration as the log's catalog record carries it.
    pub(crate) fn to_words(&self) -> Vec<u64> {
        let codec = CODECS.iter().position(|&c| c == self.codec);
        vec![
            self.range_size as u64,
            self.tail_page_slots as u64,
            self.merge_threshold as u64,
            self.cumulative_updates as u64,
            codec.unwrap_or_default() as u64,
        ]
    }

    /// The configuration a catalog record carries, `None` when its words
    /// are not ones [`TableConfig::to_words`] writes.
    pub(crate) fn from_words(words: &[u64]) -> Option<TableConfig> {
        let &[range_size, tail_page_slots, merge_threshold, cumulative, codec] = words else {
            return None;
        };
        Some(TableConfig {
            range_size: range_size as usize,
            tail_page_slots: tail_page_slots as usize,
            merge_threshold: merge_threshold as usize,
            cumulative_updates: cumulative != 0,
            codec: *CODECS.get(codec as usize)?,
        })
    }
}

/// Every codec policy, in the order the catalog record numbers them.
const CODECS: [CodecChoice; 5] = [
    CodecChoice::Auto,
    CodecChoice::Dictionary,
    CodecChoice::Rle,
    CodecChoice::ForPack,
    CodecChoice::None,
];

/// Commit durability policy for the write-ahead log (§5.1.3 + the §6.1
/// group-commit remark). The WAL itself is enabled by
/// [`DbConfig::wal_path`]; `Durability` picks what a commit *waits for*:
///
/// * [`Durability::None`] — commits only flush the log to the OS, never
///   fsync. Crash durability is best-effort (the benchmark setting).
/// * [`Durability::WalGroupCommit`] — commits enrol in the log's
///   group-commit cohort: one leader's fsync publishes every commit record
///   enrolled by then, and followers park until their record is durable.
///   There is no timer: a leader waits only for the committers the
///   previous fsync released to come back, never longer than 200 µs or one
///   measured fsync, and syncs early once 64 commits are enrolled. A lone
///   committer never waits, so this is also the per-commit fsync.
///
/// A transaction that logged nothing (read-only, empty) waits for nothing
/// under either policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No fsync on commit (OS-buffered logging).
    #[default]
    None,
    /// Leader-batched cohort fsync.
    WalGroupCommit,
}

impl Durability {
    /// Group commit, [`Durability::WalGroupCommit`].
    pub const fn group_commit() -> Durability {
        Durability::WalGroupCommit
    }
}

/// Database-wide configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Write-ahead log path; `None` disables logging (the evaluation
    /// setting: "logging has been turned off for all systems", §6.1). One
    /// file, whatever `shards` is; `.s<i>` siblings left beside it by an
    /// older build are removed by `Database::new` (`Database::open` refuses
    /// a log that still has them). `Database::open` restarts the database
    /// from this log.
    pub wal_path: Option<PathBuf>,
    /// What a commit waits for when the WAL is enabled.
    pub durability: Durability,
    /// Run merges in the background on the shared task pool (Fig. 5's merge
    /// queue, one per database). Disable for
    /// single-threaded deterministic tests, where merges then run only
    /// inline on the caller (`merge_now` / `merge_all`).
    pub background_merge: bool,
    /// Width of the shared merge/scan task pool: how many threads a single
    /// analytical query (`sum_as_of`, `scan_as_of`, `group_by_sum`, …) may
    /// fan out across, and the workers that drain the merge queue. `1`
    /// keeps scans strictly sequential on the calling thread
    /// (background merges, when enabled, still get one worker); the pool is
    /// spawned lazily on the first parallel scan or merge enqueue.
    pub pool_threads: usize,
    /// Number of insert ranges a table fills at once (its *insert lanes*):
    /// the key space splits into contiguous stripes of
    /// `TableConfig::range_size` keys, and stripe `s` inserts into lane
    /// `s % shards`. Nothing else is per lane — the index, statistics,
    /// merge queue and scans are table- or database-wide. Results, commit
    /// timestamps, RIDs of a key-ordered load and the WAL format are
    /// identical for every value. Whether the knob stays is decided with
    /// the benchmark re-cut (ROADMAP.md, item 4).
    pub shards: usize,
    /// Minimum batch size before a batched read (`Table::read_batch`,
    /// `Transaction::multi_read`) or a commit's read-set validation
    /// dispatches across the task pool: smaller batches resolve in a plain
    /// sequential loop on the caller (no deduplication, no pool hand-off —
    /// per-key index probes are far cheaper than waking workers for them).
    /// Purely an execution knob, like `pool_threads`: results are identical
    /// on both sides of the threshold.
    pub batch_read_min: usize,
    /// Page-store file path; `None` (the default) keeps every sealed base
    /// page resident in memory, exactly the pre-store behavior. When set,
    /// the merge seals base pages into this file behind the buffer pool,
    /// and checkpoints can persist page images by id instead of rewriting
    /// them (§2.1's "persisted identically" promise, now with a shared
    /// on-disk home).
    pub page_store_path: Option<PathBuf>,
    /// Buffer-pool capacity in pages for the page store; `None` means
    /// unbounded (every stored page stays resident once faulted in).
    /// Takes effect only when [`DbConfig::page_store_path`] is set.
    /// Eviction is clock/second-chance over unpinned frames; results are
    /// byte-identical at any budget (the `buffer_pool_equivalence` suite
    /// pins this) — the knob trades memory for fault-in I/O, never
    /// answers.
    pub buffer_pool_pages: Option<usize>,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl DbConfig {
    /// Default [`DbConfig::batch_read_min`]: below this many keys, a
    /// batched read is a plain sequential loop.
    pub const DEFAULT_BATCH_READ_MIN: usize = 16;

    /// In-memory database with live background merging (the common case).
    /// Scans fan out across all available cores, and tables fill as many
    /// insert ranges at once.
    pub fn new() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        DbConfig {
            wal_path: None,
            durability: Durability::None,
            background_merge: true,
            pool_threads: cores,
            shards: cores,
            batch_read_min: DbConfig::DEFAULT_BATCH_READ_MIN,
            page_store_path: None,
            buffer_pool_pages: None,
        }
    }

    /// Deterministic configuration: no background merging (merges run only
    /// inline, on demand, via `merge_now`/`merge_all`), scans stay
    /// sequential (`pool_threads = 1`), one insert lane (`shards = 1`) —
    /// every operation single-threaded and repeatable.
    pub fn deterministic() -> Self {
        DbConfig {
            wal_path: None,
            durability: Durability::None,
            background_merge: false,
            pool_threads: 1,
            shards: 1,
            batch_read_min: DbConfig::DEFAULT_BATCH_READ_MIN,
            page_store_path: None,
            buffer_pool_pages: None,
        }
    }

    /// Enable the WAL at `path`, leaving the commit durability policy to
    /// [`DbConfig::with_durability`] (default: [`Durability::None`],
    /// OS-buffered logging).
    pub fn with_wal_path(mut self, path: PathBuf) -> Self {
        self.wal_path = Some(path);
        self
    }

    /// Set the commit durability policy (takes effect when
    /// [`DbConfig::wal_path`] is set).
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Set the unified merge/scan task-pool width (clamped to ≥ 1).
    pub fn with_pool_threads(mut self, pool_threads: usize) -> Self {
        self.pool_threads = pool_threads.max(1);
        self
    }

    /// Set the per-table insert-lane count (clamped to ≥ 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Set the minimum batch size at which a batched read fans out across
    /// the task pool (clamped to ≥ 2 — a single-key batch never has
    /// anything to fan out).
    pub fn with_batch_read_min(mut self, batch_read_min: usize) -> Self {
        self.batch_read_min = batch_read_min.max(2);
        self
    }

    /// Back sealed base pages with a page-store file at `path` (merges
    /// write page images there; evicted pages fault back in on demand).
    pub fn with_page_store(mut self, path: PathBuf) -> Self {
        self.page_store_path = Some(path);
        self
    }

    /// Cap the page store's buffer pool at `pages` resident pages (clamped
    /// to ≥ 1; meaningful only with [`DbConfig::with_page_store`]).
    pub fn with_buffer_pool_pages(mut self, pages: usize) -> Self {
        self.buffer_pool_pages = Some(pages.max(1));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    #[test]
    fn range_size_is_the_insert_range_capacity() {
        let n = 8;
        let db = Database::new(DbConfig::deterministic());
        let config = TableConfig::default().with_range_size(n);
        let table = db.create_table("ranges", &["v"], config).unwrap();
        for key in 0..=n as u64 {
            table.insert_auto(key, &[key]).unwrap();
        }
        assert_eq!(table.range_handle(0).capacity, n);
        assert_eq!(table.locate(n as u64 - 1).unwrap().range(), 0);
        assert_eq!(table.locate(n as u64).unwrap().range(), 1);
        assert_eq!(table.range_count(), 2);
    }

    #[test]
    fn deterministic_pins_single_threaded_inline_merges() {
        let config = DbConfig::deterministic();
        assert_eq!(config.pool_threads, 1);
        assert_eq!(config.shards, 1);
        assert!(!config.background_merge, "merges stay inline on demand");
    }

    #[test]
    fn wal_path_builder_leaves_durability_alone() {
        let config = DbConfig::new()
            .with_durability(Durability::group_commit())
            .with_wal_path("/tmp/x.wal".into());
        assert_eq!(config.wal_path, Some(PathBuf::from("/tmp/x.wal")));
        assert_eq!(config.durability, Durability::group_commit());
    }

    #[test]
    fn page_store_defaults_off_and_pool_budget_clamps() {
        let config = DbConfig::new();
        assert!(config.page_store_path.is_none(), "store is opt-in");
        assert!(config.buffer_pool_pages.is_none(), "unbounded by default");
        let config = DbConfig::deterministic()
            .with_page_store("/tmp/x.pages".into())
            .with_buffer_pool_pages(0);
        assert_eq!(config.page_store_path, Some(PathBuf::from("/tmp/x.pages")));
        // A zero-page pool could never admit a frame: clamp to 1.
        assert_eq!(config.buffer_pool_pages, Some(1));
    }

    #[test]
    fn batch_read_min_defaults_and_clamps() {
        assert_eq!(
            DbConfig::new().batch_read_min,
            DbConfig::DEFAULT_BATCH_READ_MIN
        );
        assert_eq!(DbConfig::new().with_batch_read_min(64).batch_read_min, 64);
        // A threshold below 2 is meaningless (a 1-key batch has nothing to
        // fan out): the builder clamps instead of producing a config whose
        // "batched" path degenerates per key.
        assert_eq!(DbConfig::new().with_batch_read_min(0).batch_read_min, 2);
    }
}
