//! The detached point-read API: one request/response vocabulary, one
//! single-key reader and one batched reader.
//!
//! Every detached point read — embedded ([`Table::read_one`],
//! [`Table::read_batch`], [`Database::read`], [`Database::multi_read`]) and
//! remote (`crates/server`'s wire protocol) — routes through one pair of
//! types: a [`ReadRequest`] names *what* to read (key, optional column
//! selection, optional snapshot timestamp) and a [`ReadResponse`] says
//! *what was there* (`Some(values)` for a visible version, `None` for a key
//! that is indexed but has no visible version — deleted, or not yet
//! inserted at the requested snapshot). A key absent from the primary index
//! is an [`Error::KeyNotFound`], never a response.
//!
//! The batched forms feed one planner (`crate::multi_read`: sort by key,
//! dedup adjacent duplicates, fan out across the task pool), so a batch is byte-identical to a loop of [`Table::read_one`]
//! calls at any fixed snapshot — the invariant that makes the service
//! tier's remote reads byte-identical to embedded ones.

use std::collections::HashMap;

use crate::db::Database;
use crate::error::{Error, Result};
use crate::inline::{InlineVec, INLINE_COLS};
use crate::multi_read::PointOutcome;
use crate::read::{ReadMode, Resolved};
use crate::table::{column_out_of_range, Table};

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

/// The detached reader's view of an outcome: deleted and not-yet-visible
/// records are both an invisible response.
fn response(key: u64, outcome: PointOutcome) -> Result<ReadResponse> {
    match outcome {
        Some((_, Resolved::Visible { values, .. })) => Ok(ReadResponse::visible(values)),
        Some(_) => Ok(ReadResponse::invisible()),
        None => Err(Error::KeyNotFound(key)),
    }
}

impl Table {
    /// A request's column selection as internal data-column indices.
    fn request_cols<C: FromIterator<usize>>(
        &self,
        columns: Option<&[u32]>,
    ) -> std::result::Result<C, (usize, usize)> {
        match columns {
            Some(user) => self.data_cols(user.iter().map(|&c| c as usize)),
            None => self.data_cols(0..self.value_columns()),
        }
    }

    /// Execute one [`ReadRequest`] against this table: the single-key
    /// spine, resolving through the same `resolve_point` path as the
    /// batched planner's fast path.
    pub fn read_one(&self, request: &ReadRequest) -> Result<ReadResponse> {
        let cols: InlineVec<usize, INLINE_COLS> = self
            .request_cols(request.columns.as_deref())
            .map_err(column_out_of_range)?;
        let mode = ReadMode {
            as_of: request.as_of,
            ..ReadMode::latest()
        };
        let guard = self.runtime.epoch.pin();
        response(
            request.key,
            self.resolve_point(request.key, &cols, mode, &guard),
        )
    }

    /// Batched reads sharing one column selection and one snapshot — the
    /// vectorized form of [`Table::read_one`], and the call the service
    /// tier makes for each `READ`/`MULTI_READ` request. One
    /// `Result` per key, in input order; an out-of-range column fails every
    /// key with its own [`Error::ColumnOutOfRange`], exactly as a
    /// sequential loop would.
    ///
    /// Batches of at least `DbConfig::batch_read_min` keys sort by key,
    /// deduplicate, and fan out across the unified task pool;
    /// smaller batches resolve sequentially on the caller. Either way the
    /// results are byte-identical.
    pub fn read_batch(
        &self,
        keys: &[u64],
        columns: Option<&[u32]>,
        as_of: Option<u64>,
    ) -> Vec<Result<ReadResponse>> {
        let mode = ReadMode {
            as_of,
            ..ReadMode::latest()
        };
        self.read_keys(keys, self.request_cols(columns), mode, response)
    }
}

impl Database {
    /// Execute one [`ReadRequest`] against the named table.
    pub fn read(&self, table: &str, request: &ReadRequest) -> Result<ReadResponse> {
        self.table_or_err(table)?.read_one(request)
    }

    /// Execute a batch of [`ReadRequest`]s that may span tables: requests
    /// group by `(table, columns, as_of)`, each group is one
    /// [`Table::read_batch`] call, and results return in input order —
    /// byte-identical to a loop of [`Database::read`] calls at any fixed
    /// snapshot. A request naming an unknown table fails with its own
    /// [`Error::TableNotFound`] without affecting the rest of the batch.
    pub fn multi_read(&self, requests: &[(&str, ReadRequest)]) -> Vec<Result<ReadResponse>> {
        type Signature<'a> = (&'a str, Option<&'a [u32]>, Option<u64>);
        let mut index: HashMap<Signature<'_>, usize> = HashMap::new();
        let mut groups: Vec<(Signature<'_>, Vec<u64>, Vec<usize>)> = Vec::new();
        for (pos, (name, request)) in requests.iter().enumerate() {
            let sig = (*name, request.columns.as_deref(), request.as_of);
            let g = *index.entry(sig).or_insert_with(|| {
                groups.push((sig, Vec::new(), Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(request.key);
            groups[g].2.push(pos);
        }
        // Placeholders only: every position belongs to exactly one group.
        let mut out: Vec<Result<ReadResponse>> = requests
            .iter()
            .map(|_| Ok(ReadResponse::invisible()))
            .collect();
        for ((name, columns, as_of), keys, positions) in groups {
            let results = match self.table(name) {
                Some(table) => table.read_batch(&keys, columns, as_of),
                None => keys
                    .iter()
                    .map(|_| Err(Error::TableNotFound(name.to_string())))
                    .collect(),
            };
            for (result, pos) in results.into_iter().zip(positions) {
                out[pos] = result;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DbConfig, TableConfig};
    use std::sync::Arc;

    /// Keys 0..n with value cols [k+1, k*2]; key 3 deleted when n > 3.
    fn setup(n: u64) -> (Arc<Database>, Arc<Table>) {
        setup_with(DbConfig::deterministic(), n)
    }

    fn setup_with(config: DbConfig, n: u64) -> (Arc<Database>, Arc<Table>) {
        let db = Database::new(config);
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

    /// Equal results, comparing errors by their stable parts.
    fn assert_same(got: &Result<ReadResponse>, want: &Result<ReadResponse>, what: &str) {
        match (got, want) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}"),
            (Err(a), Err(b)) => assert_eq!(a.to_parts(), b.to_parts(), "{what}"),
            (a, b) => panic!("{what}: batched {a:?} vs single {b:?}"),
        }
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
        // A column past `u32::MAX` cannot be named: the selection is `u32`.
        assert!(matches!(
            t.read_one(&ReadRequest::latest(1).with_columns(vec![u32::MAX])),
            Err(Error::ColumnOutOfRange { column, columns: 2 }) if column == u32::MAX as usize
        ));
    }

    #[test]
    fn mixed_signature_batch_matches_single_reads() {
        let (db, t) = setup(16);
        let now = t.now();
        let requests = vec![
            ReadRequest::latest(1),
            ReadRequest::as_of(2, now),
            ReadRequest::latest(3),
            ReadRequest::latest(1).with_columns(vec![0]),
            ReadRequest::latest(99),
            ReadRequest::as_of(1, now),
        ];
        let named: Vec<(&str, ReadRequest)> = requests.iter().map(|r| ("req", r.clone())).collect();
        let batched = db.multi_read(&named);
        assert_eq!(batched.len(), requests.len());
        for (result, request) in batched.iter().zip(&requests) {
            assert_same(result, &t.read_one(request), &format!("{request:?}"));
        }
    }

    #[test]
    fn database_multi_read_equals_a_read_loop() {
        // Two tables × two signatures × a duplicate key × a missing table,
        // with groups wide enough to take the planned path.
        let (db, t) = setup_with(
            DbConfig::new().with_pool_threads(4).with_batch_read_min(2),
            80,
        );
        let other = db
            .create_table("other", &["x"], TableConfig::small())
            .unwrap();
        for k in 0..40 {
            other.insert_auto(k, &[k + 100]).unwrap();
        }
        let ts = t.now();
        t.update_auto(7, &[(0, 777)]).unwrap();
        let mut requests: Vec<(&str, ReadRequest)> = Vec::new();
        for k in (0..90).rev() {
            requests.push(("req", ReadRequest::latest(k)));
            requests.push(("req", ReadRequest::as_of(k, ts).with_columns(vec![1])));
            if k % 2 == 0 {
                requests.push(("other", ReadRequest::latest(k / 2)));
                requests.push(("other", ReadRequest::as_of(k, ts).with_columns(vec![0])));
            }
            if k % 9 == 0 {
                requests.push(("ghost", ReadRequest::latest(k)));
            }
        }
        requests.push(("req", ReadRequest::latest(7))); // duplicate key
        requests.push(("other", ReadRequest::latest(1).with_columns(vec![3])));
        let batched = db.multi_read(&requests);
        assert_eq!(batched.len(), requests.len());
        for (result, (name, request)) in batched.iter().zip(&requests) {
            assert_same(
                result,
                &db.read(name, request),
                &format!("{name} {request:?}"),
            );
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
