//! WAL replay: rebuilding a database from the redo log (§5.1.3).
//!
//! "Upon a crash, the redo log for tail pages are replayed, and for any
//! uncommitted transactions … the tail record is marked as invalid", and
//! the in-place-updated Indirection column is simply *rebuilt* — recovery
//! option 2: "one can follow backpointers in the Indirection column of tail
//! records to fetch the base RID" / use the materialized Base RID column.
//!
//! [`Database::open`] replays what recovery read of the log, in log order:
//! * a `CreateTable` catalog record re-creates its table, with the id,
//!   schema and configuration it was created with;
//! * committed inserts go into the insert ranges (Start Time = commit
//!   time);
//! * committed tail appends go in at their logged sequence numbers (Start
//!   Time = commit time, except old-value snapshot records which recover
//!   the base record's original start time);
//! * in-flight or aborted appends are *skipped*: their slots stay ∅, which
//!   reads treat as tombstones — equivalent to the paper's invalidation;
//! * `MergeCompleted` is ignored — the merge is idempotent and re-runs
//!   lazily on the recovered tail data.
//!
//! Afterwards the Indirection column of each table is rebuilt from the
//! newest committed tail record of each base record.

use std::collections::HashMap;
use std::sync::Arc;

use lstore_wal::{LogRecord, RecoveredState, WalError};

use crate::config::TableConfig;
use crate::db::Database;
use crate::error::{Error, Result};
use crate::range::BaseData;
use crate::rid::Rid;
use crate::schema::SchemaEncoding;
use crate::table::Table;

/// Newest committed tail sequence number per (range, slot) of a table.
type Heads = HashMap<(u32, u32), u32>;

fn corrupt(message: String) -> Error {
    Error::Wal(WalError::Corrupt(message))
}

impl Database {
    /// Replay a recovered log into this freshly opened database (see the
    /// module docs). New transactions take ids above every id in the log,
    /// so that none of their commit records resolves a transaction the
    /// log left in flight, and timestamps above every commit in it.
    pub(crate) fn replay(&self, state: &RecoveredState) -> Result<()> {
        let runtime = self.runtime();
        if let Some(&max_ts) = state.committed.values().max() {
            runtime.clock.advance_to(max_ts + 1);
        }
        if let Some(max_id) = state.records.iter().filter_map(LogRecord::txn_id).max() {
            runtime.mgr.issue_above(max_id);
        }
        let mut tables: Vec<(Arc<Table>, Heads)> = Vec::new();
        for record in &state.records {
            let table_id = match record {
                LogRecord::CreateTable {
                    table_id,
                    name,
                    columns,
                    config,
                } => {
                    let config = TableConfig::from_words(config)
                        .ok_or_else(|| corrupt(format!("table {name:?}: unknown configuration")))?;
                    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
                    let (table, _) = self.add_table(name, &columns, config, None)?;
                    if table.id != *table_id {
                        return Err(corrupt(format!(
                            "catalog record of table {table_id} names it as table {}",
                            table.id
                        )));
                    }
                    tables.push((table, Heads::new()));
                    continue;
                }
                LogRecord::Insert { table_id, .. } | LogRecord::TailAppend { table_id, .. } => {
                    table_id
                }
                _ => continue,
            };
            let (table, heads) = tables.get_mut(*table_id as usize).ok_or_else(|| {
                corrupt(format!(
                    "a record of table {table_id} comes before its catalog record"
                ))
            })?;
            table.replay(record, state, heads)?;
        }
        // Rebuild the Indirection column (recovery option 2). Chain
        // integrity: the newest committed record's prev pointers were
        // replayed verbatim, so pointing the base record at it restores
        // the whole version chain.
        for (table, heads) in tables {
            for ((range_id, slot), seq) in heads {
                let range = table.range(range_id);
                range.unlatch_install(slot, Rid::tail(range_id, seq));
            }
        }
        Ok(())
    }
}

impl Table {
    /// Apply one recovered insert or tail append of this table, noting in
    /// `heads` the newest committed tail record of each base record. A
    /// record that does not fit the table — a row of another width, a slot
    /// past a range's end, a column the table does not have — is
    /// `WalError::Corrupt`, whatever its checksum says.
    fn replay(&self, record: &LogRecord, state: &RecoveredState, heads: &mut Heads) -> Result<()> {
        let width = self.schema().column_count();
        let misfit = |what: String| Err(corrupt(format!("table {}: {what}", self.id)));
        match record {
            LogRecord::Insert {
                range_id,
                slot,
                txn_id,
                values,
                ..
            } => {
                if values.len() != width || *slot as usize >= self.config().range_size {
                    return misfit(format!(
                        "an insert of {} values at slot {slot}",
                        values.len()
                    ));
                }
                self.ensure_ranges(*range_id);
                let range = self.range(*range_id);
                range.reserve_slots(slot + 1);
                let Some(commit_ts) = state.commit_ts_of(*txn_id) else {
                    return Ok(()); // aborted / in-flight insert: slot stays ∅
                };
                let base = range.base();
                if let BaseData::Insert(tail) = &base.data {
                    for (c, &v) in values.iter().enumerate() {
                        tail.data[c].set(*slot as usize, v);
                    }
                    tail.start_time.set(*slot as usize, commit_ts);
                }
                self.pk_insert_raw(values[0], Rid::base(*range_id, *slot));
            }
            LogRecord::TailAppend {
                range_id,
                seq,
                txn_id,
                base_rid,
                prev_rid,
                schema_encoding,
                columns,
                ..
            } => {
                let base = Rid(*base_rid);
                let fits = (1..u32::MAX).contains(seq)
                    && base.is_base()
                    && base.range() == *range_id
                    && (base.slot() as usize) < self.config().range_size
                    && columns.iter().all(|&(c, _)| (c as usize) < width);
                if !fits {
                    return misfit(format!(
                        "a tail append at {seq} of base record {base_rid:#x}"
                    ));
                }
                self.ensure_ranges(*range_id);
                let range = self.range(*range_id);
                range.tail.ensure_seq(*seq);
                let enc = SchemaEncoding(*schema_encoding);
                let start_cell = if enc.is_snapshot() {
                    // Snapshot records carry the *original* start time of
                    // the base record; recover it from the replayed base.
                    range.base().start_cell(Rid(*base_rid).slot())
                } else {
                    match state.commit_ts_of(*txn_id) {
                        Some(ts) => ts,
                        None => return Ok(()), // tombstone: leave the slot ∅
                    }
                };
                let cols: Vec<(usize, u64)> =
                    columns.iter().map(|&(c, v)| (c as usize, v)).collect();
                range.tail.write_record(
                    *seq,
                    Rid(*prev_rid),
                    enc,
                    Rid(*base_rid),
                    &cols,
                    start_cell,
                );
                let slot = Rid(*base_rid).slot();
                range.mark_updated(slot, enc.column_bits());
                if !enc.is_snapshot() {
                    let head = heads.entry((*range_id, slot)).or_insert(0);
                    *head = (*head).max(*seq);
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn ensure_ranges(&self, range_id: u32) {
        while self.range_count() <= range_id as usize {
            self.grow_for_replay();
        }
    }
}
