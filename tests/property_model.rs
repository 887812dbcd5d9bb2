//! Property-based testing: random operation sequences against a simple
//! in-memory model, with merges and historic compression injected at random
//! points. The engine must agree with the model on latest reads, scans, and
//! time-travel reads at every recorded snapshot.

use std::collections::BTreeMap;

use proptest::prelude::*;

use lstore::{Database, DbConfig, ReadRequest, TableConfig};

const COLS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Insert { key: u64, values: [u64; COLS] },
    Update { key: u64, col: usize, value: u64 },
    Delete { key: u64 },
    Merge,
    CompressHistoric,
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..40, prop::array::uniform3(0u64..1000))
            .prop_map(|(key, values)| Op::Insert { key, values }),
        6 => (0u64..40, 0usize..COLS, 0u64..1000)
            .prop_map(|(key, col, value)| Op::Update { key, col, value }),
        1 => (0u64..40).prop_map(|key| Op::Delete { key }),
        1 => Just(Op::Merge),
        1 => Just(Op::CompressHistoric),
        2 => Just(Op::Snapshot),
    ]
}

/// The model: key → row, plus a log of (ts, full model state) snapshots.
#[derive(Default)]
struct Model {
    rows: BTreeMap<u64, [u64; COLS]>,
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48, .. ProptestConfig::default()
    })]

    #[test]
    fn engine_matches_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let db = Database::new(DbConfig::deterministic());
        let t = db.create_table("prop", &["c0", "c1", "c2"], TableConfig::small()).unwrap();
        let mut model = Model::default();
        // (snapshot_ts, model state at that time)
        let mut snapshots: Vec<(u64, BTreeMap<u64, [u64; COLS]>)> = Vec::new();

        for op in &ops {
            match op {
                Op::Insert { key, values } => {
                    let engine_result = t.insert_auto(*key, values);
                    if model.rows.contains_key(key) {
                        prop_assert!(engine_result.is_err(), "duplicate accepted");
                    } else {
                        // Deleted keys stay in the PK (deferred removal), so
                        // re-insert after delete is rejected by the engine;
                        // mirror that in the model by skipping.
                        if engine_result.is_ok() {
                            model.rows.insert(*key, *values);
                        }
                    }
                }
                Op::Update { key, col, value } => {
                    let engine_result = t.update_auto(*key, &[(*col, *value)]);
                    match model.rows.get_mut(key) {
                        Some(row) => {
                            prop_assert!(engine_result.is_ok());
                            row[*col] = *value;
                        }
                        None => {
                            // Key unknown or deleted: engine may update a
                            // deleted record (resurrection is not modelled) —
                            // only assert for never-inserted keys.
                        }
                    }
                }
                Op::Delete { key } => {
                    if model.rows.remove(key).is_some() {
                        prop_assert!(t.delete_auto(*key).is_ok());
                    }
                }
                Op::Merge => {
                    t.merge_all();
                }
                Op::CompressHistoric => {
                    // Horizon: before the oldest snapshot we still check, so
                    // time travel must keep working afterwards.
                    let horizon = snapshots.first().map(|(ts, _)| *ts).unwrap_or(0);
                    if horizon > 0 {
                        for r in 0..t.range_count() {
                            t.compress_historic(r as u32, horizon.saturating_sub(1));
                        }
                    }
                }
                Op::Snapshot => {
                    snapshots.push((t.now(), model.rows.clone()));
                }
            }

            // Latest-read agreement after every operation (cheap for ≤40 keys).
            for (key, row) in &model.rows {
                let got = t.read_one(&ReadRequest::latest(*key));
                prop_assert!(got.is_ok(), "visible key {key} unreadable: {got:?}");
                prop_assert_eq!(got.unwrap().values, Some(row.to_vec()), "key {}", key);
            }
        }

        // Scan agreement.
        let model_sum: u64 = model.rows.values().map(|r| r[0]).sum();
        prop_assert_eq!(t.sum_auto(0), model_sum);
        let scanned = t.scan_as_of(&[0, 1, 2], t.now());
        prop_assert_eq!(scanned.len(), model.rows.len());
        for (key, vals) in scanned {
            prop_assert_eq!(&vals[..], &model.rows[&key][..], "scan key {}", key);
        }

        // Time-travel agreement at every recorded snapshot — across merges
        // and historic compression.
        for (ts, state) in &snapshots {
            for (key, row) in state {
                let got = t.read_one(&ReadRequest::as_of(*key, *ts).with_columns(vec![0, 1, 2]));
                prop_assert!(got.is_ok());
                prop_assert_eq!(
                    got.unwrap().values,
                    Some(row.to_vec()),
                    "time travel key {} at ts {}", key, ts
                );
            }
            let model_sum: u64 = state.values().map(|r| r[0]).sum();
            prop_assert_eq!(t.sum_as_of(0, *ts), model_sum, "sum at ts {}", ts);
        }
    }

    /// Scan-pool width is invisible to results: replaying one random
    /// operation sequence into databases configured with `scan_threads` of
    /// 1, 2, and 8 produces byte-identical `sum_as_of`, `sum_cols_as_of`,
    /// `count_as_of`, `group_by_sum`, and `scan_as_of` answers (the
    /// parallel fan-out is a pure execution strategy).
    #[test]
    fn scan_threads_produce_identical_aggregates(
        ops in prop::collection::vec(op_strategy(), 1..100)
    ) {
        let dbs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let db = Database::new(DbConfig::deterministic().with_pool_threads(w));
                let t = db
                    .create_table("widths", &["c0", "c1", "c2"], TableConfig::small())
                    .unwrap();
                (db, t)
            })
            .collect();

        // Replay the identical sequence into every database.
        for op in &ops {
            for (_, t) in &dbs {
                match op {
                    Op::Insert { key, values } => {
                        let _ = t.insert_auto(*key, values);
                    }
                    Op::Update { key, col, value } => {
                        let _ = t.update_auto(*key, &[(*col, *value)]);
                    }
                    Op::Delete { key } => {
                        let _ = t.delete_auto(*key);
                    }
                    Op::Merge => {
                        t.merge_all();
                    }
                    Op::CompressHistoric | Op::Snapshot => {}
                }
            }
        }

        // Aggregate at each database's own "now": the op replay is
        // deterministic, so all three must agree exactly.
        let answers: Vec<_> = dbs
            .iter()
            .map(|(_, t)| {
                let ts = t.now();
                (
                    t.sum_as_of(0, ts),
                    t.sum_cols_as_of(&[0, 1, 2], ts),
                    t.count_as_of(ts),
                    t.group_by_sum(1, 0, ts),
                    t.scan_as_of(&[0, 1, 2], ts),
                    t.sum_key_range(0, 0, 39, ts), // key-partitioned fan-out
                )
            })
            .collect();
        prop_assert_eq!(&answers[0], &answers[1], "scan_threads 1 vs 2");
        prop_assert_eq!(&answers[0], &answers[2], "scan_threads 1 vs 8");
    }

    /// Key-range sharding is invisible to results: replaying one random
    /// operation sequence into databases configured with `shards` of 1, 2,
    /// and 8 produces byte-identical as-of `read_one`, `sum_as_of`,
    /// `group_by_sum`, and `scan_as_of` answers (plus `sum_cols_as_of`,
    /// `count_as_of`, and `sum_key_range` for good measure) at every
    /// recorded snapshot timestamp. Keys span several routing stripes
    /// (stripe = `TableConfig::small()`'s 256-record insert-range size) so
    /// shard counts above 1 genuinely split the key space, and the op
    /// replay is clock-deterministic, so snapshot timestamps coincide
    /// across all three databases.
    #[test]
    fn shard_counts_produce_identical_results(
        ops in prop::collection::vec(
            prop_oneof![
                3 => (0u64..2048, prop::array::uniform3(0u64..1000))
                    .prop_map(|(key, values)| Op::Insert { key, values }),
                6 => (0u64..2048, 0usize..COLS, 0u64..1000)
                    .prop_map(|(key, col, value)| Op::Update { key, col, value }),
                1 => (0u64..2048).prop_map(|key| Op::Delete { key }),
                1 => Just(Op::Merge),
                2 => Just(Op::Snapshot),
            ],
            1..100,
        )
    ) {
        let dbs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&s| {
                let db = Database::new(DbConfig::deterministic().with_shards(s));
                let t = db
                    .create_table("shards", &["c0", "c1", "c2"], TableConfig::small())
                    .unwrap();
                (db, t)
            })
            .collect();
        prop_assert_eq!(dbs[0].1.shard_count(), 1);
        prop_assert_eq!(dbs[2].1.shard_count(), 8);

        // Replay the identical sequence into every database, recording
        // snapshot timestamps (which must agree: sharding never changes
        // how many clock ticks an operation consumes).
        let mut snapshots: Vec<u64> = Vec::new();
        for op in &ops {
            let mut stamps = Vec::new();
            for (_, t) in &dbs {
                match op {
                    Op::Insert { key, values } => {
                        let _ = t.insert_auto(*key, values);
                    }
                    Op::Update { key, col, value } => {
                        let _ = t.update_auto(*key, &[(*col, *value)]);
                    }
                    Op::Delete { key } => {
                        let _ = t.delete_auto(*key);
                    }
                    Op::Merge => {
                        t.merge_all();
                    }
                    Op::CompressHistoric => {}
                    Op::Snapshot => stamps.push(t.now()),
                }
            }
            if let Op::Snapshot = op {
                prop_assert!(stamps.windows(2).all(|w| w[0] == w[1]),
                    "clocks diverged across shard counts: {:?}", stamps);
                snapshots.push(stamps[0]);
            }
        }

        // Byte-identical answers at every snapshot and at "now".
        snapshots.push(dbs[0].1.now());
        for &ts in &snapshots {
            let answers: Vec<_> = dbs
                .iter()
                .map(|(_, t)| {
                    (
                        t.sum_as_of(0, ts),
                        t.sum_cols_as_of(&[0, 1, 2], ts),
                        t.count_as_of(ts),
                        t.group_by_sum(1, 0, ts),
                        t.scan_as_of(&[0, 1, 2], ts),
                        t.sum_key_range(0, 0, 2047, ts),
                    )
                })
                .collect();
            prop_assert_eq!(&answers[0], &answers[1], "shards 1 vs 2 at ts {}", ts);
            prop_assert_eq!(&answers[0], &answers[2], "shards 1 vs 8 at ts {}", ts);

            // Per-key time travel through a different code path.
            for key in 0..2048u64 {
                let reads: Vec<_> = dbs
                    .iter()
                    .map(|(_, t)| {
                        let request = ReadRequest::as_of(key, ts).with_columns(vec![0, 1, 2]);
                        t.read_one(&request).ok().and_then(|r| r.values)
                    })
                    .collect();
                prop_assert_eq!(&reads[0], &reads[1], "as-of read {} at {}", key, ts);
                prop_assert_eq!(&reads[0], &reads[2], "as-of read {} at {}", key, ts);
            }
        }

        // Writer-side bookkeeping agrees in aggregate: per-shard stats sum
        // to the single-shard table's counters.
        let flat = dbs[0].1.stats();
        for (_, t) in &dbs[1..] {
            let mut total = lstore::stats::StatsSnapshot::default();
            for s in 0..t.shard_count() {
                total.absorb(&t.shard_stats(s));
            }
            prop_assert_eq!(total.inserts, flat.inserts);
            prop_assert_eq!(total.updates, flat.updates);
            prop_assert_eq!(total.deletes, flat.deletes);
            prop_assert_eq!(t.stats().inserts, flat.inserts);
        }
    }

    /// The unified task pool is invisible to results even with background
    /// merging enabled: replaying one random operation sequence into
    /// databases configured with `pool_threads` of 1, 2, and 8 (background merge
    /// on, two key-range shards so two per-shard merge queues are live)
    /// produces byte-identical as-of `read_one`, `sum_as_of`/`sum_cols_as_of`/
    /// `count_as_of`/`group_by_sum`, and `scan_as_of` answers at every
    /// recorded snapshot timestamp. Background merges race the replay
    /// differently at every width, but a merge only changes representation
    /// (Lemma 2), never results — and merges never tick the clock, so the
    /// snapshot timestamps coincide across all three databases.
    #[test]
    fn pool_widths_with_background_merge_produce_identical_results(
        ops in prop::collection::vec(
            prop_oneof![
                3 => (0u64..512, prop::array::uniform3(0u64..1000))
                    .prop_map(|(key, values)| Op::Insert { key, values }),
                6 => (0u64..512, 0usize..COLS, 0u64..1000)
                    .prop_map(|(key, col, value)| Op::Update { key, col, value }),
                1 => (0u64..512).prop_map(|key| Op::Delete { key }),
                1 => Just(Op::Merge),
                2 => Just(Op::Snapshot),
            ],
            1..60,
        )
    ) {
        let dbs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let db = Database::new(
                    DbConfig::new() // background merging on
                        .with_pool_threads(w)
                        .with_shards(2),
                );
                let t = db
                    .create_table("poolwidths", &["c0", "c1", "c2"], TableConfig::small())
                    .unwrap();
                (db, t)
            })
            .collect();

        // Replay the identical sequence into every database, recording
        // snapshot timestamps (which must agree: pool width and merge
        // timing never change how many clock ticks an operation consumes).
        let mut snapshots: Vec<u64> = Vec::new();
        for op in &ops {
            let mut stamps = Vec::new();
            for (_, t) in &dbs {
                match op {
                    Op::Insert { key, values } => {
                        let _ = t.insert_auto(*key, values);
                    }
                    Op::Update { key, col, value } => {
                        let _ = t.update_auto(*key, &[(*col, *value)]);
                    }
                    Op::Delete { key } => {
                        let _ = t.delete_auto(*key);
                    }
                    Op::Merge => {
                        t.merge_all();
                    }
                    Op::CompressHistoric => {}
                    Op::Snapshot => stamps.push(t.now()),
                }
            }
            if let Op::Snapshot = op {
                prop_assert!(stamps.windows(2).all(|w| w[0] == w[1]),
                    "clocks diverged across pool widths: {:?}", stamps);
                snapshots.push(stamps[0]);
            }
        }

        // Quiesce the per-shard merge queues, then compare — at every
        // snapshot and at "now" (which must also coincide).
        let nows: Vec<u64> = dbs.iter().map(|(db, t)| { db.drain_merges(); t.now() }).collect();
        prop_assert!(nows.windows(2).all(|w| w[0] == w[1]), "final clocks: {:?}", nows);
        snapshots.push(nows[0]);
        for &ts in &snapshots {
            let answers: Vec<_> = dbs
                .iter()
                .map(|(_, t)| {
                    (
                        t.sum_as_of(0, ts),
                        t.sum_cols_as_of(&[0, 1, 2], ts),
                        t.count_as_of(ts),
                        t.group_by_sum(1, 0, ts),
                        t.scan_as_of(&[0, 1, 2], ts),
                    )
                })
                .collect();
            prop_assert_eq!(&answers[0], &answers[1], "pool_threads 1 vs 2 at ts {}", ts);
            prop_assert_eq!(&answers[0], &answers[2], "pool_threads 1 vs 8 at ts {}", ts);

            // Per-key time travel through the point-read code path.
            for key in (0..512u64).step_by(13) {
                let reads: Vec<_> = dbs
                    .iter()
                    .map(|(_, t)| {
                        let request = ReadRequest::as_of(key, ts).with_columns(vec![0, 1, 2]);
                        t.read_one(&request).ok().and_then(|r| r.values)
                    })
                    .collect();
                prop_assert_eq!(&reads[0], &reads[1], "as-of read {} at {}", key, ts);
                prop_assert_eq!(&reads[0], &reads[2], "as-of read {} at {}", key, ts);
            }
        }
    }

    /// Batched point reads are pure execution strategy: for every pool
    /// width × shard count in {1, 2, 8}², replaying one random operation
    /// sequence and then issuing one big batch — every domain key plus
    /// duplicates, never-inserted keys, and out-of-range keys — through
    /// `read_batch` (as of a snapshot, latest, and latest with a column
    /// selection) produces, per key and in input order, exactly what the
    /// sequential single-key reader `read_one` returns on the same
    /// database, and byte-identical
    /// answers across all nine configurations. `batch_read_min` is pinned
    /// low so the batch genuinely plans, splits, and fans out.
    #[test]
    fn multi_read_agrees_with_sequential_reads(
        ops in prop::collection::vec(
            prop_oneof![
                3 => (0u64..2048, prop::array::uniform3(0u64..1000))
                    .prop_map(|(key, values)| Op::Insert { key, values }),
                6 => (0u64..2048, 0usize..COLS, 0u64..1000)
                    .prop_map(|(key, col, value)| Op::Update { key, col, value }),
                1 => (0u64..2048).prop_map(|key| Op::Delete { key }),
                1 => Just(Op::Merge),
                2 => Just(Op::Snapshot),
            ],
            1..60,
        )
    ) {
        let combos: Vec<(usize, usize)> = [1usize, 2, 8]
            .iter()
            .flat_map(|&w| [1usize, 2, 8].map(|s| (w, s)))
            .collect();
        let dbs: Vec<_> = combos
            .iter()
            .map(|&(w, s)| {
                let db = Database::new(
                    DbConfig::deterministic()
                        .with_pool_threads(w)
                        .with_shards(s)
                        .with_batch_read_min(2),
                );
                let t = db
                    .create_table("batch", &["c0", "c1", "c2"], TableConfig::small())
                    .unwrap();
                (db, t)
            })
            .collect();

        // Replay the identical sequence into every database, recording
        // snapshot timestamps (clock-deterministic, so they coincide).
        let mut snapshots: Vec<u64> = Vec::new();
        for op in &ops {
            let mut stamps = Vec::new();
            for (_, t) in &dbs {
                match op {
                    Op::Insert { key, values } => {
                        let _ = t.insert_auto(*key, values);
                    }
                    Op::Update { key, col, value } => {
                        let _ = t.update_auto(*key, &[(*col, *value)]);
                    }
                    Op::Delete { key } => {
                        let _ = t.delete_auto(*key);
                    }
                    Op::Merge => {
                        t.merge_all();
                    }
                    Op::CompressHistoric => {}
                    Op::Snapshot => stamps.push(t.now()),
                }
            }
            if let Op::Snapshot = op {
                prop_assert!(stamps.windows(2).all(|w| w[0] == w[1]),
                    "clocks diverged across configs: {:?}", stamps);
                snapshots.push(stamps[0]);
            }
        }
        snapshots.push(dbs[0].1.now());

        // One batch covering the whole domain, plus duplicates, missing
        // keys, and far-out-of-range keys scattered through it.
        let mut batch: Vec<u64> = (0..2048u64).step_by(3).collect();
        batch.extend([7, 7, 7, 2047, 0, 5000, 5000, 9999, u64::MAX, u64::MAX - 1]);
        batch.extend((0..64u64).map(|i| i * 31 % 2048)); // more duplicates
        let norm = |r: lstore::Result<lstore::ReadResponse>| {
            r.map(|r| r.values).map_err(|e| e.to_string())
        };

        // Snapshot semantics: batched == per-key as-of `read_one`, at every
        // recorded timestamp, on every configuration.
        for &ts in &snapshots {
            let mut reference: Option<Vec<_>> = None;
            for (&(w, s), (_, t)) in combos.iter().zip(&dbs) {
                let batched: Vec<_> = t
                    .read_batch(&batch, Some(&[0, 1, 2]), Some(ts))
                    .into_iter()
                    .map(norm)
                    .collect();
                let sequential: Vec<_> = batch
                    .iter()
                    .map(|&k| {
                        let request = ReadRequest::as_of(k, ts).with_columns(vec![0, 1, 2]);
                        norm(t.read_one(&request))
                    })
                    .collect();
                prop_assert_eq!(
                    &batched, &sequential,
                    "batch != sequential at ts {} (pool={}, shards={})", ts, w, s
                );
                match &reference {
                    None => reference = Some(batched),
                    Some(first) => prop_assert_eq!(
                        first, &batched,
                        "configs diverged at ts {} (pool={}, shards={})", ts, w, s
                    ),
                }
            }
        }

        // Latest semantics, all columns and a column selection.
        for (&(w, s), (_, t)) in combos.iter().zip(&dbs) {
            let batched: Vec<_> = t.read_batch(&batch, None, None).into_iter().map(norm).collect();
            let sequential: Vec<_> = batch
                .iter()
                .map(|&k| norm(t.read_one(&ReadRequest::latest(k))))
                .collect();
            prop_assert_eq!(&batched, &sequential, "latest batch (pool={}, shards={})", w, s);
            let batched_cols: Vec<_> = t
                .read_batch(&batch, Some(&[1]), None)
                .into_iter()
                .map(norm)
                .collect();
            let sequential_cols: Vec<_> = batch
                .iter()
                .map(|&k| {
                    let request = ReadRequest::latest(k).with_columns(vec![1]);
                    norm(t.read_one(&request))
                })
                .collect();
            prop_assert_eq!(
                &batched_cols, &sequential_cols,
                "latest cols batch (pool={}, shards={})", w, s
            );
        }
    }

    /// The row-layout variant agrees with a model on latest state.
    #[test]
    fn row_table_matches_model(
        ops in prop::collection::vec((0u64..30, 0usize..3, 0u64..1000), 1..200)
    ) {
        let t = lstore::RowTable::new(3, 16);
        let mut model: BTreeMap<u64, [u64; 3]> = BTreeMap::new();
        for (key, col, value) in ops {
            if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                let init = [key, key + 1, key + 2];
                t.insert(key, &init).unwrap();
                e.insert(init);
            }
            t.update(key, &[(col, value)]).unwrap();
            model.get_mut(&key).unwrap()[col] = value;
            if key % 7 == 0 {
                t.merge_all();
            }
        }
        for (key, row) in &model {
            prop_assert_eq!(t.read(*key, &[0, 1, 2]).unwrap(), row.to_vec());
        }
        let model_sum: u64 = model.values().map(|r| r[1]).sum();
        prop_assert_eq!(t.sum(1), model_sum);
    }
}
