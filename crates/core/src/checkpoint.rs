//! Table checkpoints: persisting and restoring base pages.
//!
//! §2.1: "both base and tail pages are referenced through the database page
//! directory using RIDs and persisted identically." A checkpoint persists
//! every range's current base version — the merged, compressed, read-only
//! pages — as page images in the page store
//! ([`crate::DbConfig::with_page_store`]), together with a small manifest
//! of per-range lineage (TPS, length, column count, page ids).
//!
//! [`Table::checkpoint_to_store`] persists the page images into the store
//! (sealed pages are usually already there — persisting is then just a
//! dirty-frame writeback) plus one manifest page under a reserved id, and
//! [`Table::restore_from_store`] rebuilds a freshly created table *without
//! loading the pages* — every restored range holds store-backed page
//! handles that fault in on first read, so a restore never materializes
//! more than the pool budget. No engine path restores a checkpoint and
//! then replays the log after it: [`crate::Database::open`] replays the
//! whole log and ignores the manifests, since a manifest records no log
//! position to replay from. Because base pages are immutable,
//! checkpointing reads only stable data and never blocks transactions —
//! the same contention-free argument as the merge.
//!
//! A crash mid-checkpoint restores the previous checkpoint, never a
//! manifest without its pages. Two rules of the page store see to that.
//! The **sync barrier**: a manifest record is appended only after a sync
//! of every record before it, so no crash image holds the manifest
//! without its pages. The **manifest fallback**: the store's open treats a
//! last manifest record whose image does not decode as a torn tail, so
//! the id keeps the record before it. A damaged record *before* a whole
//! manifest was durable, so it is corruption, and the open fails.

use std::sync::Arc;

use lstore_storage::page::BasePage;
use lstore_storage::store::{PageStore, MANIFEST_ID_BASE};
use lstore_storage::{StorageError, NULL_VALUE};

use crate::error::{Error, Result};
use crate::range::{BaseData, BaseVersion};
use crate::table::Table;

/// Layout version of the in-store checkpoint manifest (first manifest cell).
const STORE_MANIFEST_VERSION: u64 = 1;

/// The reserved page-store id holding a table's checkpoint manifest.
/// `MANIFEST_ID_BASE` keeps the whole manifest id space disjoint from
/// `PageStore::allocate_id`.
fn store_manifest_id(table_id: u32) -> u64 {
    MANIFEST_ID_BASE | table_id as u64
}

/// Summary of a checkpoint operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Ranges whose base pages were persisted.
    pub ranges: usize,
    /// Ranges skipped because they are still in their insert phase (their
    /// content is in the WAL, not in merged pages).
    pub skipped_insert_phase: usize,
    /// Total page images written.
    pub pages: usize,
}

impl Table {
    fn ensure_ranges_for_restore(&self, range_id: u32) {
        while self.range_count() <= range_id as usize {
            self.grow_for_replay();
        }
    }

    /// The runtime's page store, or an `Unsupported` storage error naming
    /// the missing configuration knob.
    fn require_store(&self) -> Result<&Arc<PageStore>> {
        self.runtime.page_store().ok_or_else(|| {
            Error::Storage(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "page store not configured (DbConfig::with_page_store)",
            )))
        })
    }

    /// Checkpoint this table *into the page store*: persist every merged
    /// range's base pages (pages the merge already sealed are just written
    /// back if still dirty — no second copy) and publish one manifest page
    /// under the table's reserved id — an append the store makes only
    /// after an fsync of the pages — then flush + fsync the store file.
    ///
    /// Manifest layout (a plain page of u64 cells):
    /// `[version, n_ranges, n_data_columns]`, then per range
    /// `[range_id, tps, len, persisted]` followed — when `persisted` — by
    /// the store ids of the data pages and the three meta pages. The
    /// manifest is appended after its pages are durable, so a crash
    /// mid-checkpoint leaves the previous manifest (and every page id it
    /// references) intact (see the module docs).
    ///
    /// Requires [`crate::DbConfig::with_page_store`]. Ranges still in
    /// their insert phase have no read-only pages yet and are skipped —
    /// their state is recovered from the WAL; run [`Table::merge_all`]
    /// first to checkpoint everything.
    pub fn checkpoint_to_store(&self) -> Result<CheckpointReport> {
        let store = self.require_store()?;
        let mut report = CheckpointReport::default();
        let ranges = self.all_ranges();
        let mut manifest = vec![
            STORE_MANIFEST_VERSION,
            ranges.len() as u64,
            self.schema().column_count() as u64,
        ];
        for range in &ranges {
            let base = range.base();
            let persisted = !base.is_insert_phase();
            manifest.extend_from_slice(&[
                range.id as u64,
                base.tps,
                base.len as u64,
                persisted as u64,
            ]);
            match &base.data {
                BaseData::Insert(_) => {
                    report.skipped_insert_phase += 1;
                }
                BaseData::Pages {
                    data,
                    start_time,
                    last_updated,
                    schema_enc,
                } => {
                    for ptr in data.iter() {
                        manifest.push(store.persist(ptr)?);
                        report.pages += 1;
                    }
                    for ptr in [start_time, last_updated, schema_enc] {
                        manifest.push(store.persist(ptr)?);
                    }
                    report.pages += 3;
                    report.ranges += 1;
                }
            }
        }
        store.put_page(store_manifest_id(self.id), &BasePage::plain(manifest))?;
        store.flush()?;
        Ok(report)
    }

    /// Restore base pages from the page store's manifest written by
    /// [`Table::checkpoint_to_store`] into this freshly created table.
    /// [`crate::Database::open`] does not call it: it replays the whole log
    /// instead.
    ///
    /// Restored ranges hold store-backed page handles: no page data is
    /// read here beyond the meta columns needed to rebuild the primary
    /// index and clock horizon, and once restored the resident set stays
    /// within the pool budget however large the table is. Returns the
    /// number of ranges restored, or [`StorageError::MissingEntry`] for
    /// the manifest id when the store holds no checkpoint of this table.
    pub fn restore_from_store(&self) -> Result<usize> {
        let store = self.require_store()?;
        let manifest = store.read_page(store_manifest_id(self.id))?.decode();
        if manifest.len() < 3 || manifest[0] != STORE_MANIFEST_VERSION {
            return Err(Error::Storage(StorageError::Corrupt(
                "unrecognized page-store checkpoint manifest".into(),
            )));
        }
        let n_ranges = manifest[1] as usize;
        let ncols = manifest[2] as usize;
        if ncols != self.schema().column_count() {
            return Err(Error::ColumnOutOfRange {
                column: ncols,
                columns: self.schema().column_count(),
            });
        }
        let mut cursor = 3usize;
        let mut restored = 0usize;
        for _ in 0..n_ranges {
            if manifest.len() < cursor + 4 {
                return Err(Error::Storage(StorageError::Corrupt(
                    "truncated page-store checkpoint manifest".into(),
                )));
            }
            let entry = &manifest[cursor..cursor + 4];
            cursor += 4;
            let (range_id, tps, len, persisted) =
                (entry[0] as u32, entry[1], entry[2] as usize, entry[3] != 0);
            self.ensure_ranges_for_restore(range_id);
            if !persisted {
                continue;
            }
            if manifest.len() < cursor + ncols + 3 {
                return Err(Error::Storage(StorageError::Corrupt(
                    "truncated page-store checkpoint manifest".into(),
                )));
            }
            let page_ids = &manifest[cursor..cursor + ncols + 3];
            cursor += ncols + 3;
            let mut data = Vec::with_capacity(ncols);
            for &id in &page_ids[..ncols] {
                data.push(store.handle(id)?);
            }
            let start_time = store.handle(page_ids[ncols])?;
            let last_updated = store.handle(page_ids[ncols + 1])?;
            let schema_enc = store.handle(page_ids[ncols + 2])?;
            // One pin per meta column covers the whole lineage scan.
            let (max_start, max_last_updated, has_deletes) = {
                let st = start_time.read();
                let lu = last_updated.read();
                let se = schema_enc.read();
                (
                    (0..len)
                        .map(|s| st.get(s))
                        .filter(|&v| v != NULL_VALUE)
                        .max()
                        .unwrap_or(0),
                    (0..len)
                        .map(|s| lu.get(s))
                        .filter(|&v| v != NULL_VALUE)
                        .max()
                        .unwrap_or(0),
                    (0..len).any(|s| crate::schema::SchemaEncoding(se.get(s)).is_delete()),
                )
            };
            let version = Arc::new(BaseVersion {
                tps,
                column_tps: vec![tps; ncols].into_boxed_slice(),
                len,
                max_start,
                max_last_updated,
                has_deletes,
                data: BaseData::Pages {
                    data: data.into_boxed_slice(),
                    start_time: start_time.clone(),
                    last_updated,
                    schema_enc: schema_enc.clone(),
                },
            });
            // Rebuild the primary index and the clock horizon from the
            // restored pages.
            let range = self.range_handle(range_id);
            range.reserve_slots(len as u32);
            range.tail.ensure_seq(tps as u32);
            {
                let st = start_time.read();
                let se = schema_enc.read();
                for slot in 0..len as u32 {
                    let start = st.get(slot as usize);
                    if start != NULL_VALUE {
                        self.runtime.clock.advance_to(start + 1);
                    }
                    let deleted = crate::schema::SchemaEncoding(se.get(slot as usize)).is_delete();
                    let key = version.value(0, slot);
                    if !deleted && key != NULL_VALUE {
                        self.pk_insert_raw(key, crate::rid::Rid::base(range_id, slot));
                    }
                }
            }
            range.swap_base(version);
            restored += 1;
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Database, DbConfig, ReadRequest, TableConfig};

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lstore-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.ckpt", std::process::id()))
    }

    #[test]
    fn store_checkpoint_roundtrip_under_a_tiny_pool() {
        let path = ckpt_path("store-roundtrip");
        let config = || {
            DbConfig::deterministic()
                .with_page_store(path.clone())
                .with_buffer_pool_pages(2)
        };
        let (expect_sum, expect_count, report, expect_rows);
        {
            let db = Database::new(config());
            let t = db
                .create_table("c", &["a", "b"], TableConfig::small())
                .unwrap();
            for k in 0..600 {
                t.insert_auto(k, &[k * 2, k * 3]).unwrap();
            }
            for k in (0..600).step_by(5) {
                t.update_auto(k, &[(0, k + 1)]).unwrap();
            }
            for k in (0..600).step_by(100) {
                t.delete_auto(k).unwrap();
            }
            t.merge_all();
            report = t.checkpoint_to_store().unwrap();
            assert!(report.ranges >= 2);
            expect_sum = t.sum_auto(0);
            expect_count = t.count_as_of(t.now());
            expect_rows = [1u64, 5, 250, 599]
                .map(|k| t.read_one(&ReadRequest::latest(k)).unwrap().values.unwrap());
            drop(db);
        }
        // Reopen the same store cold: restore consults only the manifest
        // and meta columns, then reads fault pages in under the 2-page
        // budget.
        let db2 = Database::new(config());
        let t2 = db2
            .create_table("c", &["a", "b"], TableConfig::small())
            .unwrap();
        let restored = t2.restore_from_store().unwrap();
        assert_eq!(restored, report.ranges);
        assert_eq!(t2.sum_auto(0), expect_sum);
        assert_eq!(t2.count_as_of(t2.now()), expect_count);
        for (k, expect) in [1u64, 5, 250, 599].into_iter().zip(expect_rows) {
            assert_eq!(
                t2.read_one(&ReadRequest::latest(k))
                    .unwrap()
                    .values
                    .unwrap(),
                expect,
                "key {k}"
            );
        }
        let stats = db2.store_stats().unwrap();
        assert!(
            stats.resident <= 2 + stats.pinned,
            "restore must not blow the budget: {stats:?}"
        );
        // The restored table accepts new writes, merges, and re-checkpoints.
        t2.update_auto(1, &[(1, 999)]).unwrap();
        t2.merge_all();
        assert_eq!(
            t2.read_one(&ReadRequest::latest(1))
                .unwrap()
                .values
                .unwrap()[1],
            999
        );
        t2.checkpoint_to_store().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_checkpoint_requires_a_configured_store() {
        let db = Database::new(DbConfig::deterministic());
        let t = db.create_table("c", &["a"], TableConfig::small()).unwrap();
        assert!(t.checkpoint_to_store().is_err());
        assert!(t.restore_from_store().is_err());
    }

    #[test]
    fn restore_from_store_without_manifest_is_missing_entry() {
        let path = ckpt_path("store-nomanifest");
        let db = Database::new(DbConfig::deterministic().with_page_store(path.clone()));
        let t = db.create_table("c", &["a"], TableConfig::small()).unwrap();
        match t.restore_from_store() {
            Err(crate::Error::Storage(lstore_storage::StorageError::MissingEntry { .. })) => {}
            other => panic!("expected MissingEntry, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn insert_phase_ranges_are_skipped() {
        let path = ckpt_path("insertphase");
        let db = Database::new(DbConfig::deterministic().with_page_store(path.clone()));
        let t = db.create_table("c", &["a"], TableConfig::small()).unwrap();
        for k in 0..10 {
            t.insert_auto(k, &[k]).unwrap();
        }
        // No merge: the only range is still in its insert phase.
        let report = t.checkpoint_to_store().unwrap();
        assert_eq!(report.ranges, 0);
        assert_eq!(report.skipped_insert_phase, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_rejects_schema_mismatch() {
        let path = ckpt_path("mismatch");
        let config = || DbConfig::deterministic().with_page_store(path.clone());
        {
            let db = Database::new(config());
            let t = db
                .create_table("c", &["a", "b"], TableConfig::small())
                .unwrap();
            for k in 0..300 {
                t.insert_auto(k, &[k, k]).unwrap();
            }
            t.merge_all();
            t.checkpoint_to_store().unwrap();
        }
        let db2 = Database::new(config());
        let t2 = db2
            .create_table("c", &["only_one"], TableConfig::small())
            .unwrap();
        assert!(matches!(
            t2.restore_from_store(),
            Err(crate::Error::ColumnOutOfRange { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
