//! The unified point-read request/response vocabulary.
//!
//! Every point-read entry point — embedded ([`Table::read_latest_auto`],
//! [`Table::read_as_of`], [`Table::multi_read_latest`],
//! [`Table::multi_read_as_of`]) and remote (`crates/server`'s wire
//! protocol) — routes through
//! one pair of types: a [`ReadRequest`] names *what* to read (key, optional
//! column selection, optional snapshot timestamp) and a [`ReadResponse`]
//! says *what was there* (`Some(values)` for a visible version, `None` for
//! a key that is indexed but has no visible version — deleted, or not yet
//! inserted at the requested snapshot). A key absent from the primary index
//! is an [`Error::KeyNotFound`], never a response.
//!
//! The batched forms ([`Table::read_batch`], [`Table::multi_read`],
//! [`Database::multi_read`]) feed one planner (`crate::multi_read`: sort by
//! `(shard, key)`, dedup adjacent duplicates, fan out across the task
//! pool), so a batch is byte-identical to a loop of [`Table::read_one`]
//! calls at any fixed snapshot — the invariant the service tier's
//! dispatcher relies on when it merges requests from many connections into
//! one engine batch.

use std::collections::HashMap;

use crate::db::Database;
use crate::error::{Error, Result};
use crate::multi_read::PointOutcome;
use crate::read::ReadMode;
use crate::table::Table;

/// One point read: which key, which value columns (`None` = all), at which
/// snapshot (`None` = latest committed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReadRequest {
    /// Primary key to read.
    pub key: u64,
    /// Value-column selection (public indices); `None` reads every value
    /// column.
    pub columns: Option<Vec<u32>>,
    /// Snapshot timestamp; `None` reads the latest committed version.
    pub as_of: Option<u64>,
}

impl ReadRequest {
    /// Read all value columns of `key` at the latest committed snapshot.
    pub fn latest(key: u64) -> ReadRequest {
        ReadRequest {
            key,
            columns: None,
            as_of: None,
        }
    }

    /// Read all value columns of `key` as of timestamp `ts` (time travel).
    pub fn as_of(key: u64, ts: u64) -> ReadRequest {
        ReadRequest {
            key,
            columns: None,
            as_of: Some(ts),
        }
    }

    /// Restrict the read to the given public value-column indices.
    pub fn with_columns(mut self, columns: Vec<u32>) -> ReadRequest {
        self.columns = Some(columns);
        self
    }

    /// The `(columns, as_of)` execution signature: requests with equal
    /// signatures can share one batched engine call.
    fn signature(&self) -> (Option<&[u32]>, Option<u64>) {
        (self.columns.as_deref(), self.as_of)
    }
}

/// Outcome of one successful point read. `values` is `Some` when a version
/// was visible (one value per requested column, in request order) and
/// `None` when the key is indexed but nothing is visible — deleted, or not
/// yet committed at the requested snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResponse {
    /// The visible version's values, or `None` for an invisible record.
    pub values: Option<Vec<u64>>,
}

impl ReadResponse {
    /// A visible record with the given column values.
    pub fn visible(values: Vec<u64>) -> ReadResponse {
        ReadResponse {
            values: Some(values),
        }
    }

    /// An indexed key with no visible version.
    pub fn invisible() -> ReadResponse {
        ReadResponse { values: None }
    }

    /// Whether a version was visible.
    pub fn is_visible(&self) -> bool {
        self.values.is_some()
    }
}

impl Table {
    /// Map a request's column selection to internal data-column indices;
    /// `Err((column, columns))` names the first out-of-range column, so
    /// batched callers can mint one identical per-key error each.
    pub(crate) fn request_cols(
        &self,
        columns: Option<&[u32]>,
    ) -> std::result::Result<Vec<usize>, (usize, usize)> {
        match columns {
            None => Ok((1..self.schema().column_count()).collect()),
            Some(user) => {
                let mut cols = Vec::with_capacity(user.len());
                for &c in user {
                    match self.internal_col(c as usize) {
                        Ok(col) => cols.push(col),
                        Err(_) => return Err((c as usize, self.value_columns())),
                    }
                }
                Ok(cols)
            }
        }
    }

    /// Execute one [`ReadRequest`] against this table. The single-key spine
    /// under every point-read adapter: resolves through the same
    /// `resolve_point` path as the batched planner.
    pub fn read_one(&self, request: &ReadRequest) -> Result<ReadResponse> {
        let cols = self
            .request_cols(request.columns.as_deref())
            .map_err(|(column, columns)| Error::ColumnOutOfRange { column, columns })?;
        let mode = match request.as_of {
            Some(ts) => ReadMode::as_of(ts),
            None => ReadMode::latest(),
        };
        match self.resolve_point(request.key, &cols, mode) {
            PointOutcome::Visible { values, .. } => Ok(ReadResponse::visible(values)),
            PointOutcome::Invisible { .. } => Ok(ReadResponse::invisible()),
            PointOutcome::Missing => Err(Error::KeyNotFound(request.key)),
        }
    }

    /// Batched reads sharing one column selection and one snapshot — the
    /// vectorized form of [`Table::read_one`], and the call the service
    /// tier's dispatcher makes per `(table, columns, as_of)` group. One
    /// `Result` per key, in input order; an out-of-range column fails every
    /// key with its own [`Error::ColumnOutOfRange`], exactly as a
    /// sequential loop would.
    ///
    /// Batches of at least `DbConfig::batch_read_min` keys deduplicate,
    /// group by key-range shard, and fan out across the unified task pool;
    /// smaller batches resolve sequentially on the caller. Either way the
    /// results are byte-identical.
    pub fn read_batch(
        &self,
        keys: &[u64],
        columns: Option<&[u32]>,
        as_of: Option<u64>,
    ) -> Vec<Result<ReadResponse>> {
        let cols = match self.request_cols(columns) {
            Ok(cols) => cols,
            Err((column, columns)) => {
                return keys
                    .iter()
                    .map(|_| Err(Error::ColumnOutOfRange { column, columns }))
                    .collect()
            }
        };
        let mode = match as_of {
            Some(ts) => ReadMode::as_of(ts),
            None => ReadMode::latest(),
        };
        self.multi_read_outcomes(keys, &cols, mode)
            .into_iter()
            .zip(keys)
            .map(|(outcome, &key)| match outcome {
                PointOutcome::Visible { values, .. } => Ok(ReadResponse::visible(values)),
                PointOutcome::Invisible { .. } => Ok(ReadResponse::invisible()),
                PointOutcome::Missing => Err(Error::KeyNotFound(key)),
            })
            .collect()
    }

    /// Execute a mixed batch of [`ReadRequest`]s: requests sharing a
    /// `(columns, as_of)` signature group into one [`Table::read_batch`]
    /// call (the common all-uniform case costs no grouping allocation), and
    /// results scatter back to input order.
    pub fn multi_read(&self, requests: &[ReadRequest]) -> Vec<Result<ReadResponse>> {
        let Some(first) = requests.first() else {
            return Vec::new();
        };
        let sig = first.signature();
        if requests.iter().all(|r| r.signature() == sig) {
            let keys: Vec<u64> = requests.iter().map(|r| r.key).collect();
            return self.read_batch(&keys, sig.0, sig.1);
        }
        type Group<'a> = (Option<&'a [u32]>, Option<u64>, Vec<u64>, Vec<usize>);
        let mut index: HashMap<(Option<&[u32]>, Option<u64>), usize> = HashMap::new();
        let mut groups: Vec<Group<'_>> = Vec::new();
        for (pos, r) in requests.iter().enumerate() {
            let sig = r.signature();
            let g = *index.entry(sig).or_insert_with(|| {
                groups.push((sig.0, sig.1, Vec::new(), Vec::new()));
                groups.len() - 1
            });
            groups[g].2.push(r.key);
            groups[g].3.push(pos);
        }
        let mut out: Vec<Option<Result<ReadResponse>>> = requests.iter().map(|_| None).collect();
        for (columns, as_of, keys, positions) in groups {
            for (result, pos) in self
                .read_batch(&keys, columns, as_of)
                .into_iter()
                .zip(positions)
            {
                out[pos] = Some(result);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every request resolved"))
            .collect()
    }
}

impl Database {
    /// Execute one [`ReadRequest`] against the named table.
    pub fn read(&self, table: &str, request: &ReadRequest) -> Result<ReadResponse> {
        self.table_or_err(table)?.read_one(request)
    }

    /// Execute a batch of [`ReadRequest`]s that may span tables: requests
    /// group by table (then by signature, via [`Table::multi_read`]), and
    /// results return in input order. A request naming an unknown table
    /// fails with its own [`Error::TableNotFound`] without affecting the
    /// rest of the batch.
    pub fn multi_read(&self, requests: &[(&str, ReadRequest)]) -> Vec<Result<ReadResponse>> {
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut groups: Vec<(&str, Vec<ReadRequest>, Vec<usize>)> = Vec::new();
        for (pos, (name, request)) in requests.iter().enumerate() {
            let g = *index.entry(name).or_insert_with(|| {
                groups.push((name, Vec::new(), Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(request.clone());
            groups[g].2.push(pos);
        }
        let mut out: Vec<Option<Result<ReadResponse>>> = requests.iter().map(|_| None).collect();
        for (name, reqs, positions) in groups {
            match self.table_or_err(name) {
                Ok(table) => {
                    for (result, pos) in table.multi_read(&reqs).into_iter().zip(positions) {
                        out[pos] = Some(result);
                    }
                }
                Err(_) => {
                    for pos in positions {
                        out[pos] = Some(Err(Error::TableNotFound(name.to_string())));
                    }
                }
            }
        }
        out.into_iter()
            .map(|r| r.expect("every request resolved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DbConfig, TableConfig};
    use std::sync::Arc;

    /// Keys 0..n with value cols [k+1, k*2]; key 3 deleted when n > 3.
    fn setup(n: u64) -> (Arc<Database>, Arc<Table>) {
        let db = Database::new(DbConfig::deterministic());
        let t = db
            .create_table("req", &["a", "b"], TableConfig::small())
            .unwrap();
        for k in 0..n {
            t.insert_auto(k, &[k + 1, k * 2]).unwrap();
        }
        if n > 3 {
            t.delete_auto(3).unwrap();
        }
        (db, t)
    }

    #[test]
    fn read_one_latest_columns_and_as_of() {
        let (_db, t) = setup(8);
        assert_eq!(
            t.read_one(&ReadRequest::latest(5)).unwrap(),
            ReadResponse::visible(vec![6, 10])
        );
        assert_eq!(
            t.read_one(&ReadRequest::latest(5).with_columns(vec![1]))
                .unwrap(),
            ReadResponse::visible(vec![10])
        );
        // Deleted key: indexed but invisible.
        assert!(!t.read_one(&ReadRequest::latest(3)).unwrap().is_visible());
        // Unindexed key: an error, never a response.
        assert!(matches!(
            t.read_one(&ReadRequest::latest(99)),
            Err(Error::KeyNotFound(99))
        ));
        // Before any insert, nothing is visible at ts 0.
        assert!(!t.read_one(&ReadRequest::as_of(5, 0)).unwrap().is_visible());
    }

    #[test]
    fn read_one_rejects_out_of_range_columns() {
        let (_db, t) = setup(4);
        assert!(matches!(
            t.read_one(&ReadRequest::latest(1).with_columns(vec![7])),
            Err(Error::ColumnOutOfRange {
                column: 7,
                columns: 2
            })
        ));
    }

    #[test]
    fn mixed_signature_batch_matches_single_reads() {
        let (_db, t) = setup(16);
        let now = t.now();
        let requests = vec![
            ReadRequest::latest(1),
            ReadRequest::as_of(2, now),
            ReadRequest::latest(3),
            ReadRequest::latest(1).with_columns(vec![0]),
            ReadRequest::latest(99),
            ReadRequest::as_of(1, now),
        ];
        let batched = t.multi_read(&requests);
        assert_eq!(batched.len(), requests.len());
        for (result, request) in batched.iter().zip(&requests) {
            match (result, t.read_one(request)) {
                (Ok(a), Ok(b)) => assert_eq!(a, &b),
                (Err(a), Err(b)) => assert_eq!(a.to_parts(), b.to_parts()),
                (a, b) => panic!("batched {a:?} vs single {b:?}"),
            }
        }
    }

    #[test]
    fn database_multi_read_spans_tables_and_reports_missing_ones() {
        let (db, t) = setup(4);
        let other = db
            .create_table("other", &["x"], TableConfig::small())
            .unwrap();
        other.insert_auto(100, &[41]).unwrap();
        let ts = t.now();
        let results = db.multi_read(&[
            ("req", ReadRequest::latest(1)),
            ("other", ReadRequest::latest(100)),
            ("ghost", ReadRequest::latest(1)),
            ("req", ReadRequest::latest(2)),
            ("req", ReadRequest::latest(404)),
            ("other", ReadRequest::as_of(100, ts).with_columns(vec![0])),
            ("ghost", ReadRequest::as_of(7, ts).with_columns(vec![0])),
        ]);
        assert_eq!(
            results[0].as_ref().unwrap(),
            &t.read_one(&ReadRequest::latest(1)).unwrap()
        );
        assert_eq!(
            results[1].as_ref().unwrap(),
            &ReadResponse::visible(vec![41])
        );
        assert!(matches!(&results[2], Err(Error::TableNotFound(name)) if name == "ghost"));
        assert_eq!(
            results[3].as_ref().unwrap(),
            &ReadResponse::visible(vec![3, 4])
        );
        assert!(matches!(results[4], Err(Error::KeyNotFound(404))));
        // Snapshot requests ride the same batch.
        assert_eq!(
            results[5].as_ref().unwrap(),
            &ReadResponse::visible(vec![41])
        );
        assert!(matches!(&results[6], Err(Error::TableNotFound(name)) if name == "ghost"));
    }
}
