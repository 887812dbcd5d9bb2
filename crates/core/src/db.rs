//! The database: shared runtime, transaction lifecycle, merge scheduling.
//!
//! The database ties the substrates together: the global clock and
//! transaction manager (§5.1.1), the epoch manager for page reclamation
//! (§4.1.1 step 5), the optional redo-only WAL (§5.1.3), and the merge
//! queue of Fig. 5 ("writer threads place candidate tail pages to be merged
//! into the merge queue"). There is no dedicated merge thread: requests go
//! to the one merge queue of the unified [`TaskPool`], whose workers
//! interleave merge jobs with scan partitions — see [`crate::pool`] for the
//! scheduling discipline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::RwLock;

use lstore_storage::epoch::EpochManager;
use lstore_storage::io as store_io;
use lstore_storage::store::{PageStore, PoolStatsSnapshot};
use lstore_txn::{GlobalClock, IsolationLevel, Transaction, TxnManager};
use lstore_wal::{io as log_io, CommitPolicy, LogRecord, Wal};

use crate::config::{DbConfig, Durability, TableConfig};
use crate::error::{Error, Result};
use crate::pool::TaskPool;
use crate::stats::Metrics;
use crate::table::Table;

/// Shared engine runtime handed to every table.
pub struct Runtime {
    /// The synchronized transaction clock.
    pub clock: GlobalClock,
    /// Transaction state table.
    pub mgr: TxnManager,
    /// Epoch-based reclamation of outdated pages.
    pub epoch: EpochManager,
    /// Optional redo-only WAL: one append-only file for every table, with
    /// the configured [`Durability`] policy on commits.
    pub wal: Option<Arc<Wal>>,
    /// Optional buffer-pool page store: merges seal base pages into it,
    /// evicted pages fault back in on demand (`DbConfig::page_store_path`).
    store: Option<Arc<PageStore>>,
    /// Configured scan fan-out width (`DbConfig::pool_threads`).
    pool_threads: usize,
    /// Whether writers may queue background merges (`DbConfig::background_merge`).
    pub(crate) background_merge: bool,
    /// Insert ranges each table fills at once (`DbConfig::shards`).
    insert_lanes: usize,
    /// The unified merge/scan worker pool, spawned lazily on the first
    /// parallel scan or merge enqueue so purely transactional databases
    /// with merging disabled never pay for idle threads.
    pool: OnceLock<Option<TaskPool>>,
    /// Tables by id, for resolving queued merge jobs and the tables a
    /// committing transaction wrote. Weak: the pool must never keep a
    /// dropped database's tables alive.
    tables: RwLock<Vec<Weak<Table>>>,
    /// Set by [`Runtime::shutdown`]: merge enqueues return false from here
    /// on (the enqueue-returns-false-when-stopped contract).
    stopped: AtomicBool,
}

impl Runtime {
    /// The unified pool, or `None` when the configuration needs no worker
    /// threads at all (`pool_threads <= 1` and background merging off).
    /// First call spawns the workers. A width-1 configuration with
    /// background merging on still gets one worker — the successor of the
    /// old dedicated merge daemon — but scans stay on the caller.
    fn pool(&self) -> Option<&TaskPool> {
        self.pool
            .get_or_init(|| {
                let workers = if self.background_merge {
                    // At least one worker so merges run in the background
                    // even when scans are configured sequential.
                    self.pool_threads.max(2) - 1
                } else {
                    self.pool_threads.saturating_sub(1)
                };
                if workers == 0 {
                    None
                } else {
                    Some(TaskPool::new(self.pool_threads, workers))
                }
            })
            .as_ref()
    }

    /// Queue a merge request on the pool's merge queue; false when the
    /// pool has stopped (database dropping) — the caller then clears the
    /// range's merge-pending claim and leaves the work to manual merges.
    /// Callers check `background_merge` first.
    pub(crate) fn enqueue_merge(&self, table_id: u32, range_id: u32) -> bool {
        if self.stopped.load(Ordering::Acquire) {
            return false;
        }
        let Some(table) = self.tables.read().get(table_id as usize).cloned() else {
            return false;
        };
        let Some(pool) = self.pool() else {
            return false;
        };
        pool.enqueue_merge(Box::new(move || {
            if let Some(t) = table.upgrade() {
                t.process_merge(range_id);
                t.runtime.epoch.try_reclaim();
            }
        }))
    }

    /// Create and register a table: `make` receives the id the table gets
    /// (its index here).
    fn register_table(&self, make: impl FnOnce(u32) -> Result<Arc<Table>>) -> Result<Arc<Table>> {
        let mut tables = self.tables.write();
        let table = make(tables.len() as u32)?;
        tables.push(Arc::downgrade(&table));
        Ok(table)
    }

    /// The table with id `id`, while its database is alive.
    pub(crate) fn table(&self, id: u32) -> Option<Arc<Table>> {
        self.tables.read().get(id as usize)?.upgrade()
    }

    /// The one commit sequence, shared by [`Database::commit`] and the
    /// auto-commit conveniences: pre-commit → validate → WAL commit record
    /// → finalize → stamp the written cells → retire the id. A failed
    /// validation or commit record aborts through [`Runtime::abort`]. A
    /// transaction that logged nothing (read-only, empty) has nothing to
    /// make durable: it writes no record and never enrols in a cohort.
    pub(crate) fn commit(&self, txn: &mut Transaction) -> Result<u64> {
        let Some(commit_ts) = self.mgr.pre_commit(txn.id, &self.clock) else {
            return Err(Error::TxnFinalized);
        };
        txn.commit = commit_ts;
        if txn.needs_validation() {
            let read_set = std::mem::take(&mut txn.read_set);
            if let Some(base_rid) = self.validate_read_set(&read_set, txn.id) {
                self.abort(txn);
                return Err(Error::ValidationFailed { base_rid });
            }
        }
        if let Some(wal) = self.wal.as_ref().filter(|_| txn.logged) {
            if let Err(e) = wal.commit(&LogRecord::Commit {
                txn_id: txn.id,
                commit_ts,
            }) {
                self.abort(txn);
                return Err(e.into());
            }
        }
        self.mgr.commit(txn.id);
        self.apply_committed_writes(txn, commit_ts);
        self.mgr.retire(txn.id);
        Ok(commit_ts)
    }

    /// The one abort sequence: mark aborted, unhook the primary-index
    /// entries of its inserts, log the abort record if the log holds
    /// anything of the transaction, retire the id (the cells it wrote keep
    /// the id, which from now on reads as aborted because the table no
    /// longer knows it). A no-op on a finalized transaction.
    pub(crate) fn abort(&self, txn: &mut Transaction) {
        if !self.mgr.abort(txn.id) {
            return;
        }
        for w in &txn.write_set {
            if let Some(key) = w.insert_key {
                if let Some(table) = self.table(w.table_id) {
                    table.remove_pk_entry(key, w.base_rid);
                }
            }
        }
        if let Some(wal) = self.wal.as_ref().filter(|_| txn.logged) {
            let _ = wal.commit(&LogRecord::Abort { txn_id: txn.id });
        }
        self.mgr.retire(txn.id);
    }

    /// The pool as seen by scans, or `None` when `pool_threads <= 1`
    /// (sequential scans on the caller, even if a merge worker exists).
    pub(crate) fn scan_pool(&self) -> Option<&TaskPool> {
        if self.pool_threads <= 1 {
            None
        } else {
            self.pool()
        }
    }

    /// Configured fan-out width — how many partitions a scan should plan
    /// for. Does not spawn the pool.
    pub(crate) fn scan_width(&self) -> usize {
        self.pool_threads
    }

    /// Insert ranges each table fills at once.
    pub(crate) fn insert_lanes(&self) -> usize {
        self.insert_lanes
    }

    /// The buffer-pool page store, when configured — the merge seals new
    /// base pages through it instead of keeping them pinned in memory.
    pub(crate) fn page_store(&self) -> Option<&Arc<PageStore>> {
        self.store.as_ref()
    }

    /// Block until every queued merge job has executed.
    pub(crate) fn drain_merges(&self) {
        if let Some(Some(pool)) = self.pool.get() {
            pool.drain_merges();
        }
    }

    /// The pool, but only if some call already spawned (or pinned) it —
    /// never triggers the lazy spawn itself.
    #[cfg(test)]
    pub(crate) fn spawned_pool(&self) -> Option<&TaskPool> {
        self.pool.get().and_then(|p| p.as_ref())
    }

    /// Stop accepting merge enqueues, drain the queues, join the workers.
    pub(crate) fn shutdown(&self) {
        self.stopped.store(true, Ordering::Release);
        // Force the lazy-init cell to a decision. A never-spawned pool is
        // pinned to `None` so a racing `enqueue_merge` that passed its
        // `stopped` check cannot resurrect a fresh pool after this returns;
        // if such a racer is mid-spawn inside `get_or_init`, the `OnceLock`
        // serializes us behind it and we shut the new pool down (draining
        // whatever the racer enqueued). Either way no worker outlives
        // `Database::drop`.
        if let Some(pool) = self.pool.get_or_init(|| None) {
            pool.shutdown();
        }
    }
}

/// The L-Store database.
pub struct Database {
    runtime: Arc<Runtime>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
}

impl Database {
    /// Create a fresh database with `config`: its log, when it has one,
    /// is emptied first and then opened like any other. Panics when the
    /// log or the page store cannot be opened; [`Database::open`] returns
    /// that error instead.
    pub fn new(config: DbConfig) -> Arc<Database> {
        let emptied = match &config.wal_path {
            Some(path) => Wal::clear(&log_io::OsFs, path).map_err(Error::from),
            None => Ok(()),
        };
        emptied
            .and_then(|()| Self::open(config))
            .expect("create database")
    }

    /// Open the database `config` names, restarting it from its log
    /// (§5.1.3): recovery reads the log at [`DbConfig::wal_path`] (an
    /// absent one starts empty), the file is cut back to the end of what
    /// recovery read and appended from there, the log's catalog records
    /// re-create every table with the schema and configuration it was
    /// created with, and the redo records are replayed into them, in file
    /// order. New transactions take ids above every id in the log and
    /// timestamps above every commit in it. A log recovery refuses fails
    /// the open with [`Error::Wal`] and is left as it was; so does a
    /// record that does not fit its table, which replay finds after the
    /// log was opened — under group commit, the log then ends in one more
    /// watermark frame, naming its old end. The page store
    /// at [`DbConfig::page_store_path`] is opened as it is; restoring a
    /// table's checkpoint from it is still [`Table::restore_from_store`].
    /// Secondary indexes are not in the log, so a reopened table has none
    /// until [`Table::create_secondary_index`] re-creates (and back-fills)
    /// each one.
    pub fn open(config: DbConfig) -> Result<Arc<Database>> {
        Self::with_parts(config, &log_io::OsFs, &store_io::OsFs, TxnManager::new())
    }

    /// [`Database::open`] over given parts — for tests: the log's file
    /// lives in `log_fs` and the page store's in `store_fs` (either may be
    /// an in-memory `FaultFs` that fails or crashes on cue; the two
    /// crates' are two types of one source), and `mgr` may be a
    /// transaction table with tiny pages (`TxnManager::with_page_bits`), so
    /// that ids retire and their pages are reused every few transactions.
    #[doc(hidden)]
    pub fn with_parts(
        config: DbConfig,
        log_fs: &dyn log_io::Fs,
        store_fs: &dyn store_io::Fs,
        mgr: TxnManager,
    ) -> Result<Arc<Database>> {
        let policy = match config.durability {
            Durability::None => CommitPolicy::Buffered,
            Durability::WalGroupCommit => CommitPolicy::GroupCommit,
        };
        let (wal, recovered) = config
            .wal_path
            .as_ref()
            .map(|p| Wal::open(log_fs, p, policy))
            .transpose()?
            .unzip();
        let store = config
            .page_store_path
            .as_ref()
            .map(|p| PageStore::open_in(store_fs, p, config.buffer_pool_pages))
            .transpose()?;
        let runtime = Arc::new(Runtime {
            clock: GlobalClock::new(),
            mgr,
            epoch: EpochManager::new(),
            wal: wal.map(Arc::new),
            store,
            pool_threads: config.pool_threads.max(1),
            background_merge: config.background_merge,
            insert_lanes: config.shards.max(1),
            pool: OnceLock::new(),
            tables: RwLock::new(Vec::new()),
            stopped: AtomicBool::new(false),
        });
        let db = Arc::new(Database {
            runtime,
            tables: RwLock::new(HashMap::new()),
        });
        if let Some(state) = recovered {
            db.replay(&state)?;
        }
        Ok(db)
    }

    /// Block until every queued background merge has executed — after this,
    /// the merge queue is empty and no merge is in flight (tests and
    /// checkpoints use it to observe quiesced ranges).
    pub fn drain_merges(&self) {
        self.runtime.drain_merges();
    }

    /// Access the shared runtime (clock, transaction manager, epochs).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Create a table with the given value columns (key is implicit). Its
    /// catalog record is logged before any record of the table, and is as
    /// durable as a commit record when this returns, so
    /// [`Database::open`] re-creates it. A name already taken is
    /// [`Error::TableExists`], and nothing is created or logged. A log
    /// that fails to make the record durable is poisoned: the error is
    /// returned, and the table, registered by then, can commit nothing.
    pub fn create_table(
        &self,
        name: &str,
        value_columns: &[&str],
        config: TableConfig,
    ) -> Result<Arc<Table>> {
        let wal = self.runtime.wal.as_deref();
        let (table, lsn) = self.add_table(name, value_columns, config, wal)?;
        // The wait comes after the registration locks are released: every
        // later commit of the table waits for an LSN above this one anyway.
        if let (Some(wal), Some(lsn)) = (wal, lsn) {
            wal.make_durable(lsn)?;
        }
        Ok(table)
    }

    /// Create and register a table, appending its catalog record to `log`
    /// under the registration locks, so that catalog order is id order;
    /// returns the record's LSN (replay re-creates a table from its record
    /// and logs nothing).
    pub(crate) fn add_table(
        &self,
        name: &str,
        value_columns: &[&str],
        config: TableConfig,
        log: Option<&Wal>,
    ) -> Result<(Arc<Table>, Option<u64>)> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(Error::TableExists(name.to_string()));
        }
        let mut lsn = None;
        let table = self.runtime.register_table(|id| {
            let runtime = Arc::clone(&self.runtime);
            let table = Table::create(id, name, value_columns, config.clone(), runtime)?;
            if let Some(wal) = log {
                lsn = Some(wal.append(&LogRecord::CreateTable {
                    table_id: id,
                    name: name.to_string(),
                    columns: value_columns.iter().map(|c| c.to_string()).collect(),
                    config: config.to_words(),
                })?);
            }
            Ok(table)
        })?;
        tables.insert(name.to_string(), Arc::clone(&table));
        Ok((table, lsn))
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.read().get(name).cloned()
    }

    /// Look up a table by name, or [`Error::TableNotFound`]. The `Result`
    /// twin of [`Database::table`] for callers where a missing table is an
    /// error — the same error the batched readers return per request, so
    /// single-table and batched paths can never disagree about what a
    /// missing table means.
    pub fn table_or_err(&self, name: &str) -> Result<Arc<Table>> {
        self.table(name)
            .ok_or_else(|| Error::TableNotFound(name.to_string()))
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle (§5.1.1)
    // ------------------------------------------------------------------

    /// Begin a read-committed transaction (the paper's setting for short
    /// update transactions).
    pub fn begin(&self) -> Transaction {
        self.begin_with(IsolationLevel::ReadCommitted)
    }

    /// Begin a transaction at a chosen isolation level.
    pub fn begin_with(&self, isolation: IsolationLevel) -> Transaction {
        let (id, begin) = self.runtime.mgr.begin(&self.runtime.clock);
        Transaction::new(id, begin, isolation)
    }

    /// Commit: pre-commit (commit timestamp + state change), validate reads
    /// if required (batched over the task pool, see
    /// `Runtime::validate_read_set`), write the commit log record,
    /// finalize, and apply the write set (eager timestamp stamping +
    /// deferred secondary-index removals, see
    /// `Runtime::apply_committed_writes`).
    ///
    /// On validation failure the transaction aborts **through the
    /// WAL-writing abort path** — recovery must classify it as aborted,
    /// not unresolved — and `ValidationFailed` is returned. A WAL error on
    /// the commit record likewise aborts before propagating: a transaction
    /// whose commit never became durable must not linger in pre-commit
    /// limbo (commit timestamp stamped, its page of the transaction table
    /// pinned, recovery undecided). Calling `commit` on an
    /// already-finalized transaction (committed or aborted) returns
    /// [`Error::TxnFinalized`] without touching the §5.1.1 state machine.
    /// The last step retires the transaction's id: every Start Time cell it
    /// wrote holds the commit timestamp by then, so the transaction table
    /// need not remember it (see `lstore_txn::manager`).
    pub fn commit(&self, txn: &mut Transaction) -> Result<u64> {
        self.runtime.commit(txn)
    }

    /// Abort: mark the transaction aborted (its tail records become
    /// tombstones — nothing is physically removed, §5.1.3) and unhook
    /// primary-index entries of its inserts. A no-op on an
    /// already-finalized transaction: aborting after a successful commit
    /// must not flip a `Committed` entry to `Aborted` (which would
    /// retroactively tombstone durably committed versions).
    pub fn abort(&self, txn: &mut Transaction) {
        self.runtime.abort(txn)
    }

    /// Buffer-pool counters of the page store (`None` when the database
    /// runs without one). Gauges: resident/pinned frames; monotonic
    /// counters: hits, faults, evictions, writebacks.
    pub fn store_stats(&self) -> Option<PoolStatsSnapshot> {
        self.runtime.store.as_ref().map(|s| s.pool_stats())
    }

    /// Every counter set of the database: each table's
    /// [`Table::stats`], the buffer pool's [`Database::store_stats`], the
    /// log's commit-wait counters — commits enrolled, fsyncs and their
    /// time, leader waits, largest cohort — and epoch reclamation. The sets
    /// are read one after another, not at one instant.
    pub fn metrics(&self) -> Metrics {
        let tables = self.tables.read();
        Metrics {
            tables: tables.iter().map(|(n, t)| (n.clone(), t.stats())).collect(),
            store: self.store_stats(),
            wal: self.runtime.wal.as_ref().map(|wal| wal.stats()),
            epoch: self.runtime.epoch.stats(),
        }
    }

    /// Write back every dirty resident page and fsync the page-store file
    /// (surfacing any sticky writeback error recorded by eviction). A
    /// no-op `Ok` when the database runs without a store.
    pub fn flush_store(&self) -> Result<()> {
        match &self.runtime.store {
            Some(store) => store.flush().map_err(Error::Storage),
            None => Ok(()),
        }
    }

    /// Reclaim pass over the epoch queue: frees the base versions merges
    /// retired once no pinned scan can still reach them. Returns the
    /// objects reclaimed. (The transaction table needs no pass of its own:
    /// every commit and abort retires its id, and pages of retired ids are
    /// reused as transactions begin.)
    pub fn reclaim(&self) -> usize {
        self.runtime.epoch.try_reclaim()
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        // Quiesce while the tables are still alive: stop accepting merge
        // enqueues, let the pool workers drain the merge queue, then join
        // them — checkpoints and tests observing the dropped database's
        // files see fully merged ranges, never a half-applied queue.
        self.runtime.shutdown();
        if let Some(wal) = &self.runtime.wal {
            let _ = wal.flush();
        }
        // After the merge queues drain: persist every dirty resident page
        // so a reopened store recovers the freshest images. Best-effort,
        // like the WAL flush — Drop cannot surface errors.
        if let Some(store) = &self.runtime.store {
            let _ = store.flush();
        }
    }
}

impl Table {
    /// Remove a primary-index entry if it still maps to `expected_rid`
    /// (abort of an insert).
    pub(crate) fn remove_pk_entry(&self, key: u64, expected_rid: u64) {
        if let Ok(rid) = self.locate(key) {
            if rid.0 == expected_rid {
                // Best-effort: a racing re-insert of the same key after our
                // abort would have failed DuplicateKey anyway.
                let _ = self.remove_pk(key);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Auto-commit conveniences
// ----------------------------------------------------------------------

impl Table {
    /// Run `op` in an implicit single-statement transaction: committed
    /// through the one commit sequence when `op` succeeds — so a failed
    /// commit record is an `Err` and an aborted transaction, never an
    /// acknowledged write — and aborted when it fails.
    fn auto_commit<T>(&self, op: impl FnOnce(&mut Transaction) -> Result<T>) -> Result<T> {
        let rt = &self.runtime;
        let (id, begin) = rt.mgr.begin(&rt.clock);
        let mut txn = Transaction::new(id, begin, IsolationLevel::ReadCommitted);
        match op(&mut txn) {
            Ok(done) => rt.commit(&mut txn).map(|_| done),
            Err(e) => {
                rt.abort(&mut txn);
                Err(e)
            }
        }
    }

    /// Insert with an implicit single-statement transaction.
    pub fn insert_auto(&self, key: u64, values: &[u64]) -> Result<crate::rid::Rid> {
        self.auto_commit(|txn| self.insert(txn, key, values))
    }

    /// Update with an implicit single-statement transaction.
    pub fn update_auto(&self, key: u64, updates: &[(usize, u64)]) -> Result<crate::rid::Rid> {
        self.auto_commit(|txn| self.update(txn, key, updates))
    }

    /// Delete with an implicit single-statement transaction.
    pub fn delete_auto(&self, key: u64) -> Result<()> {
        self.auto_commit(|txn| self.delete(txn, key).map(|_| ()))
    }

    pub(crate) fn remove_pk(&self, key: u64) -> Result<()> {
        // Exposed through remove_pk_entry only; keeps the index crate's
        // remove sealed behind abort handling.
        self.pk_remove_inner(key);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_taken_table_name_is_refused_and_nothing_is_registered_or_logged() {
        let fs = log_io::FaultFs::new();
        let log = std::path::Path::new("names.wal");
        let config = DbConfig::deterministic().with_wal_path(log.into());
        let db = Database::with_parts(config, &fs, &store_io::OsFs, TxnManager::new()).unwrap();
        let first = db.create_table("t", &["a"], TableConfig::small()).unwrap();
        first.insert_auto(1, &[10]).unwrap();
        let logged = fs.contents(log).unwrap();
        let again = db.create_table("t", &["a", "b"], TableConfig::small());
        match again {
            Err(e @ Error::TableExists(_)) => assert_eq!(e.code(), 15),
            other => panic!("a second table \"t\": {other:?}"),
        }
        assert_eq!(fs.contents(log).unwrap(), logged, "nothing logged");
        assert_eq!(db.runtime.tables.read().len(), 1, "nothing registered");
        assert!(Arc::ptr_eq(&db.table("t").unwrap(), &first));
    }

    #[test]
    fn shutdown_pins_never_spawned_pool_and_refuses_enqueues() {
        let db = Database::new(DbConfig::new().with_pool_threads(4));
        let table = db
            .create_table("quiesce", &["v"], TableConfig::default())
            .unwrap();
        assert!(table.runtime.spawned_pool().is_none(), "pool spawns lazily");
        db.runtime.shutdown();
        // The lazy-init cell is pinned: a racing enqueue that reaches the
        // pool after shutdown finds `None` instead of resurrecting workers,
        // and the enqueue contract reports the stop.
        assert!(!db.runtime.enqueue_merge(table.id, 0));
        assert!(db.runtime.spawned_pool().is_none(), "no pool resurrected");
        drop(db);
    }

    #[test]
    fn background_merge_off_leaves_merges_to_the_caller_with_workers_present() {
        let db = Database::new(DbConfig {
            background_merge: false,
            ..DbConfig::new().with_pool_threads(2).with_shards(1)
        });
        assert!(db.runtime.pool().is_some(), "a worker is running");
        let config = TableConfig::small();
        let (size, threshold) = (config.range_size as u64, config.merge_threshold as u64);
        let table = db.create_table("off", &["v"], config).unwrap();
        let ranges = 3;
        for key in 0..ranges * size {
            table.insert_auto(key, &[key]).unwrap();
        }
        table.merge_all(); // graduate the insert ranges
        for round in 0..=threshold {
            for range in 0..ranges {
                table.update_auto(range * size, &[(0, round)]).unwrap();
            }
        }
        db.drain_merges();
        let updated = || (0..ranges as u32).map(|id| table.range_handle(id));
        for range in updated() {
            assert!(range.unmerged() > threshold, "range {} updated", range.id);
            let tps = range.base(&db.runtime.epoch.pin()).tps;
            assert_eq!(tps, 0, "range {} merged unasked", range.id);
            assert!(range.claim_merge(), "range {} left claimed", range.id);
            range.merge_done();
        }
        assert!(table.merge_all() >= ranges * (threshold + 1));
        for range in updated() {
            let tps = range.base(&db.runtime.epoch.pin()).tps;
            assert!(tps > 0, "range {} not merged", range.id);
        }
    }
}
