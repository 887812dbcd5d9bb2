//! The short transaction's allocation budget, pinned as a count rather than
//! a timing: with one thread, no background merging and no log, the number
//! of heap allocations a transaction makes repeats exactly.
//!
//! Steady state is one allocation per read (the `Vec<u64>` it returns) and
//! one per transaction for its write set; tail pages add a handful per
//! thousand updates: 9.10 per transaction here. `begin` and `commit`
//! allocate nothing. At the parent of the change that added this test the
//! same loop made 43.69 per transaction and 320 in the empty pairs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lstore::{Database, DbConfig, TableConfig};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the count touches
// only a thread-local `Cell`, which allocates nothing and is skipped while
// the thread tears down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_of(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

const ROWS: u64 = 20_000;
const COLS: usize = 10;

/// lbench's table shape: 10 value columns, default table configuration.
fn loaded() -> (std::sync::Arc<Database>, std::sync::Arc<lstore::Table>) {
    let db = Database::new(DbConfig::deterministic());
    let names: Vec<String> = (0..COLS).map(|c| format!("c{c}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let t = db
        .create_table("budget", &names, TableConfig::default())
        .unwrap();
    let mut txn = db.begin();
    for k in 0..ROWS {
        let row: Vec<u64> = (0..COLS as u64).map(|c| k * 16 + c).collect();
        t.insert(&mut txn, k, &row).unwrap();
    }
    db.commit(&mut txn).unwrap();
    t.merge_all();
    (db, t)
}

#[test]
fn short_transaction_stays_within_its_allocation_budget() {
    const TXNS: u64 = 10_000;
    let (db, t) = loaded();
    let all: Vec<usize> = (0..COLS).collect();
    let mut next = 12345u64;
    let mut draw = move || {
        next = next
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (next >> 33) % ROWS
    };
    // lbench's short transaction: 8 reads of all columns, the first two of
    // the rows about to be written, then 2 updates of 4 columns each.
    let run = |draw: &mut dyn FnMut() -> u64| {
        let keys: [u64; 8] = std::array::from_fn(|_| draw());
        let mut txn = db.begin();
        for &key in &keys {
            let row = t.read(&mut txn, key, &all).unwrap().expect("visible");
            assert_eq!(row.len(), COLS);
        }
        if keys[0] != keys[1] {
            for &key in &keys[..2] {
                let updates: [(usize, u64); 4] =
                    std::array::from_fn(|i| ((key as usize + 3 * i) % COLS, key + i as u64));
                t.update(&mut txn, key, &updates).unwrap();
            }
        }
        db.commit(&mut txn).unwrap();
    };
    for _ in 0..1000 {
        run(&mut draw); // warm up: first tail pages, first write sets
    }
    let total = allocations_of(|| {
        for _ in 0..TXNS {
            run(&mut draw);
        }
    });
    let per_txn = total as f64 / TXNS as f64;
    assert!(
        per_txn <= 12.0,
        "{per_txn:.2} allocations per short transaction ({total} over {TXNS})"
    );
    // The floor, so that a miscount does not pass as a saving: 8 returned
    // rows and a write set.
    assert!(per_txn >= 9.0, "{per_txn:.2} allocations per transaction");
}

#[test]
fn begin_and_commit_allocate_nothing() {
    let (db, _t) = loaded();
    // Open the transaction table's first pages before counting.
    for _ in 0..2048 {
        let mut txn = db.begin();
        db.commit(&mut txn).unwrap();
    }
    let total = allocations_of(|| {
        for _ in 0..100_000 {
            let mut txn = db.begin();
            db.commit(&mut txn).unwrap();
        }
    });
    assert_eq!(
        total, 0,
        "allocations in 100 000 empty begin + commit pairs"
    );
}
