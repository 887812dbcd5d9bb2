//! Readers of one range race everything that retires memory under them.
//!
//! One tiny range (16 records, 4-cell tail pages) takes a stream of
//! updates while, every few dozen updates, the writer merges the range (a
//! new base version is swapped in and the old one retired) and compresses
//! its merged tail records into the historic store (whole tail pages are
//! released and retired). Four readers read the range the whole time: one
//! key at a time, all keys in one batch, all keys in one scan at the
//! current snapshot, and all keys as of a moment the writer recorded just
//! before it compressed. Every value the first three read must be one the
//! writer wrote for that key, no older than what had committed when the
//! read began and no newer than what had been started when it ended; the
//! time-travel reader must read exactly what had committed at its moment.
//! A reader that kept a released page or a retired base version past its
//! reclamation would read cells of memory reused by later pages, and one
//! whose pages went while it was pinned would read ∅ where a version was.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

use lstore::{Database, DbConfig, ReadRequest, Table, TableConfig};

const KEYS: u64 = 16;
const ROUNDS: u64 = 12_000;

/// What the writer has committed and started, per key.
struct Model {
    committed: Vec<AtomicU64>,
    started: Vec<AtomicU64>,
}

impl Model {
    /// Check `value`, read for `key` between `floor` (committed before the
    /// read) and the started value after it.
    fn check(&self, key: u64, floor: u64, value: u64) {
        let ceiling = self.started[key as usize].load(Ordering::Acquire);
        assert!(
            (floor..=ceiling).contains(&value),
            "key {key} read {value}, outside {floor}..={ceiling}"
        );
        assert!(
            value == 0 || (value - 1) % KEYS == key,
            "key {key} read {value}, which was written to another key"
        );
    }
}

fn read_one(t: &Table, key: u64) -> u64 {
    let row = t.read_one(&ReadRequest::latest(key)).unwrap();
    row.values.unwrap()[0]
}

/// Moments the writer recorded: a snapshot timestamp and what every key
/// held at it.
#[derive(Default)]
struct Moments(Mutex<Vec<(u64, Vec<u64>)>>);

impl Moments {
    /// Record the table's current snapshot, at which `model` holds
    /// exactly what committed (the writer is the only writer).
    fn record(&self, t: &Table, model: &Model) {
        let values = model
            .committed
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect();
        self.0.lock().unwrap().push((t.now(), values));
    }

    /// The `i`-th moment counted from the newest, wrapping; `None` while
    /// nothing is recorded.
    fn back(&self, i: usize) -> Option<(u64, Vec<u64>)> {
        let moments = self.0.lock().unwrap();
        let len = moments.len();
        (len > 0).then(|| moments[len - 1 - i % len].clone())
    }
}

/// Read every key as of each recorded moment in turn, newest first and
/// then one further back each time, until `done`: each read must return
/// exactly what had committed at its moment. Returns the reads made.
fn read_moments(t: &Table, moments: &Moments, done: &AtomicBool) -> u64 {
    let keys: Vec<u64> = (0..KEYS).collect();
    let mut reads = 0u64;
    let mut back = 0;
    while !done.load(Ordering::Acquire) {
        for i in [0, back] {
            let Some((ts, expected)) = moments.back(i) else {
                thread::yield_now();
                continue;
            };
            let read: Vec<u64> = t
                .read_batch(&keys, None, Some(ts))
                .into_iter()
                .map(|row| row.unwrap().values.unwrap()[0])
                .collect();
            assert_eq!(read, expected, "as of {ts}");
            reads += KEYS;
        }
        back += 1;
    }
    reads
}

/// A one-range table of `KEYS` keys, all 0, out of its insert phase.
fn table(db: &Database) -> std::sync::Arc<Table> {
    let config = TableConfig {
        range_size: KEYS as usize,
        tail_page_slots: 4,
        ..TableConfig::small()
    };
    let t = db.create_table("t", &["v"], config).unwrap();
    for k in 0..KEYS {
        t.insert_auto(k, &[0]).unwrap();
    }
    t.merge_all(); // the range leaves its insert phase
    t
}

fn model() -> Model {
    Model {
        committed: (0..KEYS).map(|_| AtomicU64::new(0)).collect(),
        started: (0..KEYS).map(|_| AtomicU64::new(0)).collect(),
    }
}

#[test]
fn reads_stay_exact_while_tails_grow_release_and_bases_swap() {
    let db = Database::new(DbConfig::deterministic());
    let t = table(&db);
    let model = model();
    let moments = Moments::default();
    let done = AtomicBool::new(false);
    let reads = thread::scope(|s| {
        let (t, model, moments, done) = (&t, &model, &moments, &done);
        let one_at_a_time = s.spawn(move || {
            let mut reads = 0u64;
            while !done.load(Ordering::Acquire) {
                for key in 0..KEYS {
                    let floor = model.committed[key as usize].load(Ordering::Acquire);
                    model.check(key, floor, read_one(t, key));
                    reads += 1;
                }
            }
            reads
        });
        let batched = s.spawn(move || {
            let keys: Vec<u64> = (0..KEYS).collect();
            let mut reads = 0u64;
            while !done.load(Ordering::Acquire) {
                let floors: Vec<u64> = model
                    .committed
                    .iter()
                    .map(|c| c.load(Ordering::Acquire))
                    .collect();
                for (key, row) in keys.iter().zip(t.read_batch(&keys, None, None)) {
                    let value = row.unwrap().values.unwrap()[0];
                    model.check(*key, floors[*key as usize], value);
                    reads += 1;
                }
            }
            reads
        });
        let scanner = s.spawn(move || {
            let mut reads = 0u64;
            while !done.load(Ordering::Acquire) {
                let floors: Vec<u64> = model
                    .committed
                    .iter()
                    .map(|c| c.load(Ordering::Acquire))
                    .collect();
                let rows = t.scan_as_of(&[0], t.now());
                assert_eq!(rows.len(), KEYS as usize);
                for (key, values) in rows {
                    model.check(key, floors[key as usize], values[0]);
                    reads += 1;
                }
            }
            reads
        });
        let time_travel = s.spawn(move || read_moments(t, moments, done));
        // The writer: updates, merges, and compression that releases pages.
        let writer = s.spawn(move || {
            let stop = StopOnDrop(done);
            for round in 0..ROUNDS {
                let key = round % KEYS;
                let value = round + 1;
                model.started[key as usize].store(value, Ordering::Release);
                t.update_auto(key, &[(0, value)]).unwrap();
                model.committed[key as usize].store(value, Ordering::Release);
                if round % 48 == 47 {
                    assert!(t.merge_now(0).swapped, "round {round}");
                }
                if round % 160 == 159 {
                    moments.record(t, model);
                    t.compress_historic(0, t.now());
                }
            }
            drop(stop);
        });
        writer.join().unwrap();
        [one_at_a_time, batched, scanner, time_travel].map(|r| r.join().unwrap())
    });
    assert!(reads.iter().all(|&n| n > 0), "{reads:?}");
    for key in 0..KEYS {
        assert_eq!(read_one(&t, key), ROUNDS - KEYS + key + 1, "key {key}");
    }
    // Everything the race retired is freed once the readers are done (a
    // deferred page release retires the pages it releases: a second pass).
    while db.reclaim() > 0 {}
    let stats = t.stats();
    let epoch = db.metrics().epoch;
    assert!(
        stats.merges >= ROUNDS / 48 && stats.historic_compressed > 0,
        "{stats:?}"
    );
    assert!(epoch.retired > ROUNDS / 48, "{epoch:?}");
    assert_eq!(
        (epoch.retired, epoch.pending),
        (epoch.reclaimed, 0),
        "{epoch:?}"
    );
}

/// Raises the readers' stop flag however the writer leaves, so a failed
/// assertion in it fails the test instead of hanging it.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn concurrent_compressions_never_move_the_boundary_back() {
    const UPDATES: u64 = 20_000;
    let db = Database::new(DbConfig::deterministic());
    let t = table(&db);
    let model = model();
    let moments = Moments::default();
    let done = AtomicBool::new(false);
    let compressed = thread::scope(|s| {
        let (t, model, moments, done) = (&t, &model, &moments, &done);
        let time_travel = s.spawn(move || read_moments(t, moments, done));
        // Two passes over the one range, racing each other: one up to now,
        // one up to a horizon a few updates back. Whichever publishes
        // second built its segment from the one the first replaced.
        let compressors = [0, 24].map(|lag| {
            s.spawn(move || {
                let mut compressed = 0;
                while !done.load(Ordering::Acquire) {
                    compressed += t.compress_historic(0, t.now().saturating_sub(lag));
                }
                compressed
            })
        });
        let writer = s.spawn(move || {
            let stop = StopOnDrop(done);
            for round in 0..UPDATES {
                let key = round % KEYS;
                t.update_auto(key, &[(0, round + 1)]).unwrap();
                model.committed[key as usize].store(round + 1, Ordering::Release);
                if round % 16 == 15 {
                    moments.record(t, model);
                    assert!(t.merge_now(0).swapped, "round {round}");
                }
            }
            drop(stop);
        });
        writer.join().unwrap();
        assert!(time_travel.join().unwrap() > 0);
        compressors.map(|c| c.join().unwrap())
    });
    assert!(compressed.iter().sum::<usize>() > 0, "{compressed:?}");
    // Every moment reads back exactly once the race is over, too.
    let keys: Vec<u64> = (0..KEYS).collect();
    for (ts, expected) in moments.0.into_inner().unwrap() {
        let read: Vec<u64> = t
            .read_batch(&keys, None, Some(ts))
            .into_iter()
            .map(|row| row.unwrap().values.unwrap()[0])
            .collect();
        assert_eq!(read, expected, "as of {ts}");
    }
}
