//! L-Store (Row): the row-major layout variant of §6.2, Tables 8 & 9.
//!
//! "Notably our proposed lineage-based storage architecture is not limited
//! to any particular data layout" (§6.2, footnote 18). This variant keeps
//! every L-Store ingredient — read-only base storage, append-only tail,
//! in-place indirection, contention-free merge — but stores records
//! row-major: all columns of a record contiguous, one full row per version.
//!
//! The trade-offs the paper measures follow directly:
//! * scans of one column touch `width ×` more memory (Table 8), while
//! * point reads fetching *all* columns need a single contiguous row
//!   (Table 9's crossover).
//!
//! The row variant exposes the auto-commit subset of the API used by the
//! layout experiments; full multi-statement transactions live in the
//! columnar [`crate::Table`].

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use lstore_index::PrimaryIndex;
use lstore_storage::epoch::{EpochCell, EpochGuard, EpochManager};
use lstore_storage::tail::AppendVec;
use lstore_storage::NULL_VALUE;

use crate::error::{Error, Result};

/// A range's base image and the tail records consolidated into it,
/// published together: a reader never pairs one merge's image with
/// another's TPS.
struct RowBase {
    /// Row-major: slot * width .. +width. Cells are atomic so insert-phase
    /// slots can be published safely; after the insert phase a slot's
    /// cells are read-only and the merge swaps whole images.
    image: Box<[AtomicU64]>,
    /// Tail seq consolidated into the image.
    tps: u64,
}

/// One range of row-major records.
struct RowRange {
    /// The base image; the merge swaps it, and the replaced one retires
    /// into the table's epoch manager.
    base: EpochCell<RowBase>,
    /// Start times of base rows.
    base_start: Box<[AtomicU64]>,
    /// Per-slot indirection: tail seq (0 = ⊥), bit 63 = latch.
    indirection: Box<[AtomicU64]>,
    /// Tail rows: full row per version at (seq-1)*width.
    tail_rows: AppendVec,
    /// Start time per tail version.
    tail_start: AppendVec,
    /// Previous seq per tail version (0 = base).
    tail_prev: AppendVec,
    next_seq: AtomicU32,
    occupied: AtomicU32,
    /// Inserts hold this shared while they write a row into the image they
    /// loaded; a merge holds it exclusively from copying the image to
    /// publishing the new one, so no row lands in an image already copied.
    image_write: RwLock<()>,
}

impl RowRange {
    fn new(capacity: usize, width: usize, page_slots: usize, epoch: &EpochManager) -> Self {
        let nulls = |n| (0..n).map(|_| AtomicU64::new(NULL_VALUE)).collect();
        RowRange {
            base: EpochCell::new(
                RowBase {
                    image: nulls(capacity * width),
                    tps: 0,
                },
                epoch,
            ),
            base_start: nulls(capacity),
            indirection: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            tail_rows: AppendVec::new(page_slots * width, epoch),
            tail_start: AppendVec::new(page_slots, epoch),
            tail_prev: AppendVec::new(page_slots, epoch),
            next_seq: AtomicU32::new(1),
            occupied: AtomicU32::new(0),
            image_write: RwLock::new(()),
        }
    }
}

/// A row-major lineage table (auto-commit API).
pub struct RowTable {
    /// key + value columns.
    width: usize,
    range_size: usize,
    page_slots: usize,
    ranges: RwLock<Vec<Arc<RowRange>>>,
    pk: PrimaryIndex,
    clock: AtomicU64,
    merge_threshold: u64,
    unmerged: AtomicU64,
    /// What the ranges' tail pages and base images are read under.
    epoch: EpochManager,
}

const LATCH: u64 = 1 << 63;

impl RowTable {
    /// Create a row table with `value_columns` value columns.
    pub fn new(value_columns: usize, range_size: usize) -> Self {
        RowTable {
            width: value_columns + 1,
            range_size,
            page_slots: 1 << 10,
            ranges: RwLock::new(vec![]),
            pk: PrimaryIndex::new(),
            clock: AtomicU64::new(1),
            merge_threshold: (range_size as u64 / 2).max(1),
            unmerged: AtomicU64::new(0),
            epoch: EpochManager::new(),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Number of value columns.
    pub fn value_columns(&self) -> usize {
        self.width - 1
    }

    /// Insert a record (auto-commit).
    pub fn insert(&self, key: u64, values: &[u64]) -> Result<()> {
        if values.len() != self.width - 1 {
            return Err(Error::ColumnOutOfRange {
                column: values.len(),
                columns: self.width - 1,
            });
        }
        if self.pk.get(key).is_some() {
            return Err(Error::DuplicateKey(key));
        }
        let (range_id, slot) = loop {
            let ranges = self.ranges.read();
            if let Some((id, r)) = ranges.last().map(|r| (ranges.len() - 1, r)) {
                let slot = r.occupied.fetch_add(1, Ordering::AcqRel);
                if (slot as usize) < self.range_size {
                    break (id as u32, slot);
                }
            }
            drop(ranges);
            let mut ranges = self.ranges.write();
            let full = ranges
                .last()
                .map(|r| r.occupied.load(Ordering::Acquire) as usize >= self.range_size)
                .unwrap_or(true);
            if full {
                ranges.push(Arc::new(RowRange::new(
                    self.range_size,
                    self.width,
                    self.page_slots,
                    &self.epoch,
                )));
            }
        };
        let range = Arc::clone(&self.ranges.read()[range_id as usize]);
        {
            // Freshly inserted rows go straight into the aligned base image
            // (the row variant's collapsed insert range); the start-time
            // store below publishes the row.
            let _writing = range.image_write.read();
            let guard = self.epoch.pin();
            let image = &range.base.load(&guard).image;
            let off = slot as usize * self.width;
            image[off].store(key, Ordering::Relaxed);
            for (i, &v) in values.iter().enumerate() {
                image[off + 1 + i].store(v, Ordering::Relaxed);
            }
        }
        let ts = self.tick();
        range.base_start[slot as usize].store(ts, Ordering::Release);
        self.pk.insert(key, pack_rid(range_id, slot));
        Ok(())
    }

    /// Update value columns of `key` (auto-commit). Appends a full new row
    /// version (row stores copy entire rows).
    pub fn update(&self, key: u64, updates: &[(usize, u64)]) -> Result<()> {
        let rid = self.pk.get(key).ok_or(Error::KeyNotFound(key))?;
        let (range_id, slot) = unpack_rid(rid);
        let range = Arc::clone(&self.ranges.read()[range_id as usize]);
        let cell = &range.indirection[slot as usize];
        // Latch.
        let prev = loop {
            let cur = cell.load(Ordering::Acquire);
            if cur & LATCH != 0 {
                return Err(Error::WriteConflict { base_rid: rid });
            }
            if cell
                .compare_exchange(cur, cur | LATCH, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break cur;
            }
        };
        // Build the new full row from the current visible row.
        let guard = self.epoch.pin();
        let mut row = self.current_row(&range, slot, prev as u32, &guard);
        for &(c, v) in updates {
            if c + 1 >= self.width {
                cell.store(prev, Ordering::Release);
                return Err(Error::ColumnOutOfRange {
                    column: c,
                    columns: self.width - 1,
                });
            }
            row[c + 1] = v;
        }
        let seq = range.next_seq.fetch_add(1, Ordering::AcqRel);
        let base_off = (seq - 1) as usize * self.width;
        for (i, &v) in row.iter().enumerate() {
            range.tail_rows.set(base_off + i, v, &guard);
        }
        range.tail_prev.set((seq - 1) as usize, prev, &guard);
        range
            .tail_start
            .set((seq - 1) as usize, self.tick(), &guard);
        cell.store(seq as u64, Ordering::Release);
        if self.unmerged.fetch_add(1, Ordering::AcqRel) + 1 >= self.merge_threshold {
            // Inline merge trigger mirrors the columnar engine's threshold.
            if self
                .unmerged
                .compare_exchange(self.merge_threshold, 0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.merge_range(&range, &guard);
                drop(guard);
                self.epoch.try_reclaim();
            }
        }
        Ok(())
    }

    fn current_row(
        &self,
        range: &RowRange,
        slot: u32,
        head_seq: u32,
        guard: &EpochGuard<'_>,
    ) -> Vec<u64> {
        let base = range.base.load(guard);
        if head_seq == 0 || (head_seq as u64) <= base.tps {
            let off = slot as usize * self.width;
            (off..off + self.width)
                .map(|i| base.image[i].load(Ordering::Acquire))
                .collect()
        } else {
            let off = (head_seq - 1) as usize * self.width;
            (0..self.width)
                .map(|i| range.tail_rows.get(off + i, guard))
                .collect()
        }
    }

    /// Read selected value columns of `key` (latest committed).
    pub fn read(&self, key: u64, user_cols: &[usize]) -> Result<Vec<u64>> {
        let rid = self.pk.get(key).ok_or(Error::KeyNotFound(key))?;
        let (range_id, slot) = unpack_rid(rid);
        let range = Arc::clone(&self.ranges.read()[range_id as usize]);
        let head = (range.indirection[slot as usize].load(Ordering::Acquire) & !LATCH) as u32;
        let row = self.current_row(&range, slot, head, &self.epoch.pin());
        user_cols
            .iter()
            .map(|&c| {
                if c + 1 >= self.width {
                    Err(Error::ColumnOutOfRange {
                        column: c,
                        columns: self.width - 1,
                    })
                } else {
                    Ok(row[c + 1])
                }
            })
            .collect()
    }

    /// SUM over one value column — every read drags the full row stride
    /// through memory, the Table 8 effect.
    pub fn sum(&self, user_col: usize) -> u64 {
        let col = user_col + 1;
        let mut sum = 0u64;
        let guard = self.epoch.pin();
        for range in self.ranges.read().iter() {
            let base = range.base.load(&guard);
            let occupied = (range.occupied.load(Ordering::Acquire) as usize).min(self.range_size);
            for slot in 0..occupied {
                if range.base_start[slot].load(Ordering::Acquire) == NULL_VALUE {
                    continue;
                }
                let head = (range.indirection[slot].load(Ordering::Acquire) & !LATCH) as u32;
                let v = if head == 0 || (head as u64) <= base.tps {
                    base.image[slot * self.width + col].load(Ordering::Acquire)
                } else {
                    range
                        .tail_rows
                        .get((head - 1) as usize * self.width + col, &guard)
                };
                if v != NULL_VALUE {
                    sum = sum.wrapping_add(v);
                }
            }
        }
        sum
    }

    /// Merge all ranges: consolidate the newest tail row per record into a
    /// fresh base image (contention-free: the image is built aside and the
    /// pointer swapped).
    pub fn merge_all(&self) {
        let guard = self.epoch.pin();
        for range in self.ranges.read().iter() {
            self.merge_range(range, &guard);
        }
        drop(guard);
        self.epoch.try_reclaim();
    }

    fn merge_range(&self, range: &RowRange, guard: &EpochGuard<'_>) {
        let _copying = range.image_write.write();
        let upto = range.next_seq.load(Ordering::Acquire) as u64 - 1;
        let old = range.base.load(guard);
        let tps = old.tps;
        if upto <= tps {
            return;
        }
        let image: Box<[AtomicU64]> = old
            .image
            .iter()
            .map(|c| AtomicU64::new(c.load(Ordering::Acquire)))
            .collect();
        let occupied = (range.occupied.load(Ordering::Acquire) as usize).min(self.range_size);
        for slot in 0..occupied {
            let head = (range.indirection[slot].load(Ordering::Acquire) & !LATCH) as u32;
            if head as u64 > tps && head as u64 <= upto {
                let off = (head - 1) as usize * self.width;
                for i in 0..self.width {
                    image[slot * self.width + i]
                        .store(range.tail_rows.get(off + i, guard), Ordering::Relaxed);
                }
            }
        }
        range.base.swap(RowBase { image, tps: upto });
    }

    /// Number of ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.read().len()
    }
}

#[inline]
fn pack_rid(range: u32, slot: u32) -> u64 {
    ((range as u64) << 32) | slot as u64
}

#[inline]
fn unpack_rid(rid: u64) -> (u32, u32) {
    ((rid >> 32) as u32, rid as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn insert_read_update_roundtrip() {
        let t = RowTable::new(3, 64);
        for k in 0..100 {
            t.insert(k, &[k * 10, k * 100, 7]).unwrap();
        }
        assert_eq!(t.read(5, &[0, 1, 2]).unwrap(), vec![50, 500, 7]);
        t.update(5, &[(1, 999)]).unwrap();
        assert_eq!(t.read(5, &[0, 1, 2]).unwrap(), vec![50, 999, 7]);
        assert!(matches!(
            t.insert(5, &[0, 0, 0]),
            Err(Error::DuplicateKey(5))
        ));
        assert!(matches!(t.read(1000, &[0]), Err(Error::KeyNotFound(1000))));
    }

    #[test]
    fn sum_tracks_updates_across_merges() {
        let t = RowTable::new(2, 32);
        for k in 0..100 {
            t.insert(k, &[1, 2]).unwrap();
        }
        assert_eq!(t.sum(0), 100);
        for k in 0..100 {
            t.update(k, &[(0, 3)]).unwrap();
        }
        assert_eq!(t.sum(0), 300);
        t.merge_all();
        assert_eq!(t.sum(0), 300);
        assert!(t.range_count() >= 3);
    }

    #[test]
    fn full_row_versions_preserve_unwritten_columns() {
        let t = RowTable::new(3, 16);
        t.insert(1, &[10, 20, 30]).unwrap();
        t.update(1, &[(0, 11)]).unwrap();
        t.merge_all();
        t.update(1, &[(2, 33)]).unwrap();
        assert_eq!(t.read(1, &[0, 1, 2]).unwrap(), vec![11, 20, 33]);
    }
    #[test]
    fn rows_inserted_beside_inline_merges_all_read_back() {
        // One thread fills a range while another updates a key of it fast
        // enough to merge the range every few inserts. A merge that copied
        // the image before an insert wrote its row would publish an image
        // without that row, which would then read ∅ for good.
        const KEYS: u64 = 4_000;
        for round in 0..8 {
            let t = RowTable::new(2, 4096);
            t.insert(0, &[0, 0]).unwrap();
            let inserted = AtomicBool::new(false);
            let updating = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut v = 0;
                    updating.store(true, Ordering::Release);
                    while !inserted.load(Ordering::Acquire) {
                        v += 1;
                        t.update(0, &[(0, v)]).unwrap();
                    }
                });
                while !updating.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                for k in 1..=KEYS {
                    t.insert(k, &[k, k * 3]).unwrap();
                    std::thread::yield_now();
                }
                inserted.store(true, Ordering::Release);
            });
            let lost: Vec<u64> = (1..=KEYS)
                .filter(|&k| t.read(k, &[0, 1]).unwrap() != vec![k, k * 3])
                .collect();
            assert!(
                lost.is_empty(),
                "round {round}: {} rows lost, first {:?}",
                lost.len(),
                &lost[..lost.len().min(5)]
            );
        }
    }
}
