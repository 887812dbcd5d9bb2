//! L-Store behind the common [`Engine`] trait.
//!
//! The adapter wires the real engine into the harness with the paper's
//! settings: short update transactions run under read-committed semantics,
//! scans under snapshot isolation, and background merging handles
//! consolidation — the paper's "one merge thread" (§6.1) is here one worker
//! of the unified merge/scan task pool draining the merge queue.

use std::sync::Arc;

use lstore::{Database, DbConfig, Error, ReadRequest, Table, TableConfig};

use crate::engine::{seed, Engine};

/// The harness's `usize` column indices as a [`ReadRequest`] selection; an
/// index past `u32::MAX` stays out of range instead of wrapping.
fn column_selection(cols: &[usize]) -> Vec<u32> {
    cols.iter()
        .map(|&c| u32::try_from(c).unwrap_or(u32::MAX))
        .collect()
}

/// Adapter exposing an L-Store table as a benchmark [`Engine`].
pub struct LStoreEngine {
    db: Arc<Database>,
    table: parking_lot::RwLock<Option<Arc<Table>>>,
    table_config: TableConfig,
}

impl LStoreEngine {
    /// Create with a default table configuration (background merge on).
    pub fn new() -> Self {
        Self::with_config(TableConfig::default())
    }

    /// Create with a custom table configuration. Scans stay sequential
    /// (`pool_threads = 1`, which still leaves one pool worker draining the
    /// merge queue in the background) and the table fills one insert range
    /// at a time (`shards = 1`), matching the paper's evaluation setting of
    /// one scan thread and one merge thread against one table (§6.1) so
    /// cross-engine comparisons measure the same thing; use
    /// [`Self::with_configs`] to give the engine a wider pool and/or more
    /// insert lanes.
    pub fn with_config(table_config: TableConfig) -> Self {
        Self::with_configs(
            DbConfig::new().with_pool_threads(1).with_shards(1),
            table_config,
        )
    }

    /// Create with custom database and table configurations (the
    /// `pool_threads` and `shards` axes of the benchmarks enter here).
    pub fn with_configs(db_config: DbConfig, table_config: TableConfig) -> Self {
        LStoreEngine {
            db: Database::new(db_config),
            table: parking_lot::RwLock::new(None),
            table_config,
        }
    }

    /// Access the underlying database (for bench-specific control).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Access the underlying table (after `populate`).
    pub fn table(&self) -> Arc<Table> {
        self.table.read().as_ref().expect("populated").clone()
    }
}

impl Default for LStoreEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine for LStoreEngine {
    fn name(&self) -> &'static str {
        "L-Store"
    }

    fn populate(&self, rows: u64, cols: usize) {
        let names: Vec<String> = (0..cols).map(|c| format!("c{c}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let table = self
            .db
            .create_table("bench", &refs, self.table_config.clone())
            .expect("create table");
        let mut values = vec![0u64; cols];
        for k in 0..rows {
            for (c, v) in values.iter_mut().enumerate() {
                *v = seed(k, c);
            }
            table.insert_auto(k, &values).expect("load row");
        }
        // Graduate all full insert ranges so the steady state starts from
        // merged base pages, as a freshly loaded system would.
        table.merge_all();
        *self.table.write() = Some(table);
    }

    fn update_transaction(&self, reads: &[u64], writes: &[(u64, Vec<(usize, u64)>)]) -> bool {
        let table = self.table();
        let mut txn = self.db.begin(); // read-committed, per §6.1
        let all_cols: Vec<usize> = (0..table.value_columns()).collect();
        for &key in reads {
            match table.read(&mut txn, key, &all_cols) {
                Ok(v) => {
                    std::hint::black_box(v);
                }
                Err(Error::KeyNotFound(_)) => {}
                Err(_) => {
                    self.db.abort(&mut txn);
                    return false;
                }
            }
        }
        for (key, updates) in writes {
            if let Err(e) = table.update(&mut txn, *key, updates) {
                match e {
                    Error::WriteConflict { .. } => {
                        self.db.abort(&mut txn);
                        return false;
                    }
                    Error::KeyNotFound(_) => {}
                    _ => {
                        self.db.abort(&mut txn);
                        return false;
                    }
                }
            }
        }
        self.db.commit(&mut txn).is_ok()
    }

    fn scan_sum(&self, col: usize, lo: u64, hi: u64) -> u64 {
        // The benchmark loads dense keys in insertion order, so a key span
        // is a RID span: scan it in slot order like the other engines scan
        // their arrays, instead of one primary-index probe per key.
        let table = self.table();
        match table.locate(lo) {
            Ok(start) => table.sum_rid_span(start, hi - lo + 1, col, table.now()),
            Err(_) => table.sum_key_range(col, lo, hi, table.now()),
        }
    }

    fn point_read(&self, key: u64, cols: &[usize]) -> Option<Vec<u64>> {
        let request = ReadRequest::latest(key).with_columns(column_selection(cols));
        self.table().read_one(&request).ok()?.values
    }

    fn multi_point_read(&self, keys: &[u64], cols: &[usize]) -> Vec<Option<Vec<u64>>> {
        // The batched read path: key sort + dedup + task-pool
        // fan-out (a per-key sequential loop when the batch is below
        // `DbConfig::batch_read_min` or the pool is 1 wide).
        self.table()
            .read_batch(keys, Some(&column_selection(cols)), None)
            .into_iter()
            .map(|r| r.ok()?.values)
            .collect()
    }

    fn maintain(&self) -> bool {
        // The pool workers already drain the merge queue; a
        // manual sweep here merges anything above threshold synchronously
        // when the harness drives maintenance itself.
        let table = self.table();
        table.merge_all() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_roundtrip() {
        let e = LStoreEngine::with_config(TableConfig::small());
        e.populate(1000, 4);
        assert_eq!(
            e.point_read(123, &[0, 1, 2, 3]).unwrap(),
            (0..4).map(|c| seed(123, c)).collect::<Vec<_>>()
        );
        let base: u64 = (0..1000).map(|k| seed(k, 1)).sum();
        assert_eq!(e.scan_sum(1, 0, 999), base);
        assert!(e.update_transaction(&[1, 2, 3], &[(10, vec![(1, seed(10, 1) + 7)])]));
        assert_eq!(e.scan_sum(1, 0, 999), base + 7);
        assert_eq!(e.point_read(10, &[1]).unwrap(), vec![seed(10, 1) + 7]);
    }

    #[test]
    fn all_three_engines_agree_on_scans() {
        let engines: Vec<Box<dyn Engine>> = vec![
            Box::new(LStoreEngine::with_config(TableConfig::small())),
            Box::new(crate::IuhEngine::new()),
            Box::new(crate::DbmEngine::new(64)),
        ];
        let mut sums = Vec::new();
        for e in &engines {
            e.populate(2000, 3);
            for k in (0..2000).step_by(7) {
                e.update_transaction(&[k], &[(k, vec![(0, 5), (2, 6)])]);
            }
            e.maintain();
            sums.push((e.scan_sum(0, 0, 1999), e.scan_sum(2, 100, 1099)));
        }
        assert_eq!(sums[0], sums[1], "L-Store vs IUH");
        assert_eq!(sums[0], sums[2], "L-Store vs DBM");
    }
}
