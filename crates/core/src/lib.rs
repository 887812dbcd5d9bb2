//! # lstore — Lineage-based Data Store
//!
//! A from-scratch Rust implementation of **L-Store** (Sadoghi, Bhattacherjee,
//! Bhattacharjee, Canim: *L-Store: A Real-time OLTP and OLAP System*, EDBT
//! 2018). L-Store unifies transactional and analytical processing in one
//! engine over one copy of the data through a *lineage-based* columnar
//! storage architecture:
//!
//! * Records live in read-only, compressed **base pages**; every update is
//!   appended to per-range, append-only **tail pages**, keeping all versions.
//! * A table-embedded **indirection column** (the only in-place-updated
//!   column) links each base record to its latest version; versions chain
//!   backwards, so any version is at most two hops away.
//! * A background, **contention-free merge** consolidates committed tail
//!   records into fresh base pages; each page tracks its lineage with a
//!   **tail-page sequence number (TPS)**, and outdated pages are reclaimed
//!   via **epoch-based de-allocation** without draining transactions.
//! * Historic tail pages are re-organized and delta-compressed for
//!   time-travel queries.
//! * The update range is the one unit of partitioning: storage, merging
//!   and lineage are per range, while the primary index, the statistics
//!   and the merge queue are one per table (the queue one per database).
//!   `DbConfig::shards` only sets how many insert ranges fill at once.
//! * A point read is one [`ReadRequest`] (key, columns, snapshot) through
//!   **`Table::read_one`**; multi-key lookups batch through
//!   **`Table::read_batch`** (and the multi-table `Database::multi_read`):
//!   one key sort on the caller dedups a batch and clusters
//!   range-neighbors, and each distinct key resolves once — byte-identical
//!   to the per-key loop, with per-key `Result`s in input order. Inside a transaction, `Table::read` and
//!   [`TransactionReads::multi_read`] join the read set.
//!
//! ## Quick start
//!
//! ```
//! use lstore::{Database, DbConfig, ReadRequest, TableConfig};
//!
//! let db = Database::new(DbConfig::default());
//! let table = db
//!     .create_table("accounts", &["balance", "branch", "status"], TableConfig::small())
//!     .unwrap();
//!
//! // Auto-commit writes.
//! table.insert_auto(1, &[100, 7, 0]).unwrap();
//! table.update_auto(1, &[(0, 150)]).unwrap();
//!
//! // Multi-statement transaction.
//! let mut txn = db.begin();
//! table.update(&mut txn, 1, &[(1, 8)]).unwrap();
//! db.commit(&mut txn).unwrap();
//!
//! let row = table.read_one(&ReadRequest::latest(1)).unwrap();
//! assert_eq!(row.values, Some(vec![150, 8, 0]));
//!
//! // Analytical scan on the same data, no ETL, no second copy.
//! assert_eq!(table.sum_auto(0), 150);
//! ```

pub mod checkpoint;
pub mod commit;
pub mod config;
pub mod db;
pub mod error;
pub mod historic;
mod inline;
pub mod merge;
pub mod multi_read;
pub mod pool;
pub mod range;
pub mod read;
mod replay;
pub mod request;
pub mod rid;
pub mod row;
pub mod scan;
pub mod schema;
mod shard;
pub mod stats;
pub mod table;
pub mod tailseg;

pub use commit::TransactionReads;
pub use config::{DbConfig, Durability, TableConfig};
pub use db::Database;
pub use error::{Error, ErrorParts, Result};
pub use request::{ReadRequest, ReadResponse};
pub use rid::Rid;
pub use row::RowTable;
pub use schema::{Schema, SchemaEncoding};
pub use stats::Metrics;
pub use table::Table;

pub use lstore_storage::{metric_set, metrics, NULL_VALUE};
pub use lstore_txn::{IsolationLevel, Transaction};
pub use lstore_wal::WalStats;
