//! The uniform engine interface driven by the benchmark harness.
//!
//! One short update transaction of the micro-benchmark ([18, 33], §6.1) is
//! "8 read and 2 write statements (executed under committed read semantics)";
//! analytical queries are snapshot scans over up to 10% of the table. The
//! trait exposes exactly those operations plus loading and maintenance
//! hooks, so L-Store and both baselines run byte-identical workloads.

/// A storage engine under benchmark.
pub trait Engine: Send + Sync {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Bulk-load `rows` records with `cols` value columns; key `k` gets
    /// value `seed(k, c)` in column `c`.
    fn populate(&self, rows: u64, cols: usize);

    /// Execute one short update transaction: read the listed keys (all value
    /// columns of each), then apply the listed writes, atomically. Returns
    /// `false` when the transaction aborted (e.g. write-write conflict).
    fn update_transaction(&self, reads: &[u64], writes: &[(u64, Vec<(usize, u64)>)]) -> bool;

    /// Snapshot-consistent SUM over one value column for keys in
    /// `[lo, hi]` — the analytical query.
    fn scan_sum(&self, col: usize, lo: u64, hi: u64) -> u64;

    /// Latest-committed point read of selected value columns.
    fn point_read(&self, key: u64, cols: &[usize]) -> Option<Vec<u64>>;

    /// Latest-committed point reads of a whole batch of keys, results in
    /// input order — the Table 9 multi-key lookup shape. The default is
    /// the sequential per-key loop; engines with a batched read path
    /// (L-Store's `Table::read_batch`) override it, so Table 9's batch-size
    /// axis measures batching against this exact baseline.
    fn multi_point_read(&self, keys: &[u64], cols: &[usize]) -> Vec<Option<Vec<u64>>> {
        keys.iter().map(|&k| self.point_read(k, cols)).collect()
    }

    /// Background maintenance opportunity (merge a pending range, etc.);
    /// called by the harness's dedicated merge thread. Returns `true` when
    /// work was done.
    fn maintain(&self) -> bool {
        false
    }
}

/// Deterministic initial value for key `k`, column `c` (shared by all
/// engines so scans are comparable).
pub fn seed(k: u64, c: usize) -> u64 {
    k.wrapping_mul(31).wrapping_add(c as u64) % 1000
}
