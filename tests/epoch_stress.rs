//! Readers of one range race everything that retires memory under them.
//!
//! One tiny range (16 records, 4-cell tail pages) takes a stream of
//! updates while, every few dozen updates, the writer merges the range (a
//! new base version is swapped in and the old one retired) and compresses
//! its merged tail records into the historic store (whole tail pages are
//! released and retired). Two readers read the range the whole time: one
//! key at a time, and all keys in one batch. Every value they read must be
//! one the writer wrote for that key, no older than what had committed
//! when the read began and no newer than what had been started when it
//! ended. A reader that kept a released page or a retired base version
//! past its reclamation would read cells of memory reused by later pages.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

#[test]
fn reads_stay_exact_while_tails_grow_release_and_bases_swap() {
    let db = Database::new(DbConfig::deterministic());
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
    let model = Model {
        committed: (0..KEYS).map(|_| AtomicU64::new(0)).collect(),
        started: (0..KEYS).map(|_| AtomicU64::new(0)).collect(),
    };
    let done = AtomicBool::new(false);
    let reads = thread::scope(|s| {
        let (t, model, done) = (&t, &model, &done);
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
                    t.compress_historic(0, t.now());
                }
            }
            drop(stop);
        });
        writer.join().unwrap();
        one_at_a_time.join().unwrap() + batched.join().unwrap()
    });
    assert!(reads > 0);
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
