//! Page-store fault injection at the engine level.
//!
//! * **ENOSPC on writeback** — a store whose file is `/dev/full` (every
//!   write fails with "no space left on device") must surface a stable
//!   [`lstore::Error::Storage`] through `flush_store` while every read
//!   keeps answering from the un-evictable resident frames: a writeback
//!   failure may stall eviction, never corrupt data.
//! * **Kill at a random offset** — truncating the store file at arbitrary
//!   byte offsets (a crash mid-append) and reopening cold must yield
//!   exactly the last fully published checkpoint: any torn record tail is
//!   ignored, a half-written manifest is superseded by the previous one,
//!   and the restored table matches an oracle restored from an undamaged
//!   copy of the file as of that checkpoint.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lstore::{Database, DbConfig, ReadRequest, Table, TableConfig};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lstore-store-faults");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.pages", std::process::id()))
}

#[test]
fn enospc_on_writeback_surfaces_error_without_corrupting_reads() {
    if !Path::new("/dev/full").exists() {
        eprintln!("skipping: /dev/full not available on this platform");
        return;
    }
    // Budget 1 forces eviction on every second sealed page; every eviction
    // needs a dirty writeback, and every writeback hits ENOSPC.
    let db = Database::new(
        DbConfig::deterministic()
            .with_page_store("/dev/full".into())
            .with_buffer_pool_pages(1),
    );
    let t = db
        .create_table("enospc", &["a", "b"], TableConfig::small())
        .unwrap();
    for k in 0..600 {
        t.insert_auto(k, &[k * 2, k * 3]).unwrap();
    }
    t.merge_all();

    // Reads answer correctly from the resident frames the failed
    // writebacks could not release.
    for k in [0u64, 1, 255, 256, 599] {
        assert_eq!(
            t.read_one(&ReadRequest::latest(k)).unwrap().values,
            Some(vec![k * 2, k * 3])
        );
    }
    let expect_sum: u64 = (0..600u64).map(|k| k * 2).sum();
    assert_eq!(t.sum_auto(0), expect_sum);

    // The failure is surfaced, not swallowed — and it is stable: every
    // flush attempt reports it again.
    for _ in 0..2 {
        match db.flush_store() {
            Err(lstore::Error::Storage(lstore_storage::StorageError::Io(e))) => {
                assert_eq!(
                    e.raw_os_error(),
                    Some(libc_enospc()),
                    "expected ENOSPC: {e}"
                );
            }
            other => panic!("expected sticky storage error, got {other:?}"),
        }
    }

    // Frames the pool could not evict stay resident past the budget —
    // correctness outranks the budget when the disk is gone — and reads
    // still work afterwards.
    let stats = t.stats();
    assert!(
        stats.pool_resident > 1,
        "dirty victims stayed resident: {stats:?}"
    );
    assert_eq!(
        t.sum_auto(0),
        expect_sum,
        "reads survive the flush failures"
    );
}

/// `ENOSPC`'s errno without linking anything new: write to /dev/full.
fn libc_enospc() -> i32 {
    let err = std::fs::write("/dev/full", b"x").expect_err("/dev/full accepts no writes");
    err.raw_os_error().expect("raw os error")
}

#[derive(Debug, PartialEq)]
struct Observation {
    restored: usize,
    sum_a: u64,
    sum_b: u64,
    count: u64,
    groups: BTreeMap<u64, u64>,
    rows: Vec<(u64, Vec<u64>)>,
}

/// Cold-open `path` as a page store, restore the table from its manifest,
/// and observe everything a reader could ask.
fn observe_cold(path: &Path) -> Observation {
    let db = Database::new(
        DbConfig::deterministic()
            .with_page_store(path.to_path_buf())
            .with_buffer_pool_pages(3),
    );
    let t = db
        .create_table("kill", &["a", "b"], TableConfig::small())
        .unwrap();
    let restored = t.restore_from_store().unwrap();
    let ts = t.now();
    Observation {
        restored,
        sum_a: t.sum_as_of(0, ts),
        sum_b: t.sum_as_of(1, ts),
        count: t.count_as_of(ts),
        groups: t.group_by_sum(0, 1, ts),
        rows: t.scan_as_of(&[0, 1], ts),
    }
}

fn populate(t: &Table) {
    for k in 0..600 {
        t.insert_auto(k, &[(k / 64) % 8, k]).unwrap();
    }
    t.merge_all();
}

#[test]
fn kill_at_random_offset_recovers_the_last_published_checkpoint() {
    let live = scratch("kill-live");
    std::fs::remove_file(&live).ok();

    // Checkpoint 1, and a pristine copy of the file as of that instant.
    let db = Database::new(DbConfig::deterministic().with_page_store(live.clone()));
    let t = db
        .create_table("kill", &["a", "b"], TableConfig::small())
        .unwrap();
    populate(&t);
    t.checkpoint_to_store().unwrap();
    let bytes_ckpt1 = std::fs::read(&live).unwrap();

    // More history, then checkpoint 2: its appends (new pages + a
    // superseding manifest) are exactly the bytes a crash can tear.
    for k in (0..600).step_by(3) {
        t.update_auto(k, &[(1, k + 10_000)]).unwrap();
    }
    for k in (0..600).step_by(90) {
        t.delete_auto(k).unwrap();
    }
    t.merge_all();
    t.checkpoint_to_store().unwrap();
    drop(db);
    let bytes_full = std::fs::read(&live).unwrap();
    assert!(
        bytes_full.len() > bytes_ckpt1.len(),
        "checkpoint 2 appended"
    );

    // Undamaged oracles for both checkpoint states.
    let oracle1_path = scratch("kill-oracle1");
    std::fs::write(&oracle1_path, &bytes_ckpt1).unwrap();
    let oracle1 = observe_cold(&oracle1_path);
    let oracle2 = observe_cold(&live);
    assert_ne!(
        oracle1.rows, oracle2.rows,
        "the two checkpoints must differ"
    );

    // Kill at pseudo-random offsets across the checkpoint-2 append span:
    // every cut must recover checkpoint 1 exactly; an uncut file recovers
    // checkpoint 2.
    let span = bytes_full.len() - bytes_ckpt1.len();
    let mut rng = 0xdead_beef_cafe_f00du64;
    let mut cuts: Vec<usize> = (0..10)
        .map(|_| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            bytes_ckpt1.len() + (rng >> 33) as usize % span
        })
        .collect();
    // Plus the exact boundaries: nothing of checkpoint 2, and all of it.
    cuts.push(bytes_ckpt1.len());
    cuts.push(bytes_full.len());
    for (i, cut) in cuts.into_iter().enumerate() {
        let damaged = scratch(&format!("kill-cut{i}"));
        std::fs::write(&damaged, &bytes_full[..cut]).unwrap();
        let observed = observe_cold(&damaged);
        let want = if cut == bytes_full.len() {
            &oracle2
        } else {
            &oracle1
        };
        assert_eq!(
            &observed,
            want,
            "cut at byte {cut} (of {}) diverged from the oracle",
            bytes_full.len()
        );
        // The torn store is fully usable going forward: new writes, a
        // merge, and a fresh checkpoint append cleanly after the tear.
        let db = Database::new(
            DbConfig::deterministic()
                .with_page_store(damaged.clone())
                .with_buffer_pool_pages(3),
        );
        let t = db
            .create_table("kill", &["a", "b"], TableConfig::small())
            .unwrap();
        t.restore_from_store().unwrap();
        t.update_auto(1, &[(1, 424_242)]).unwrap();
        t.merge_all();
        t.checkpoint_to_store().unwrap();
        assert_eq!(
            t.read_one(&ReadRequest::latest(1)).unwrap().values.unwrap()[1],
            424_242
        );
        drop(db);
        std::fs::remove_file(&damaged).ok();
    }
    std::fs::remove_file(&oracle1_path).ok();
    std::fs::remove_file(&live).ok();
}
