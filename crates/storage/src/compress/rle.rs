//! Run-length encoding with binary-search random access.
//!
//! Suited to sorted or near-constant columns (e.g. the Start Time column of a
//! freshly loaded range, or the Schema Encoding column where most records are
//! untouched). Runs store their *starting logical index* so `get` is a
//! partition-point search over the run boundaries.
//!
//! Aggregation never looks at individual rows: the [`ColumnKernel`] sums
//! `value × run_len` per run, and [`RleColumn::runs_in`] exposes the
//! run segmentation so scans can do run-granular GROUP BY accumulation.
//!
//! # Examples
//!
//! ```
//! use lstore_storage::compress::rle::RleColumn;
//!
//! let c = RleColumn::encode(&[4, 4, 4, 9, 9, 2]);
//! assert_eq!(c.run_count(), 3);
//! // Runs overlapping rows 1..6, clipped: (start, end, value).
//! let runs: Vec<_> = c.runs_in(1, 6).collect();
//! assert_eq!(runs, [(1, 3, 4), (3, 5, 9), (5, 6, 2)]);
//! ```

use super::kernel::ColumnKernel;
use crate::error::{StorageError, StorageResult};

/// A run-length encoded read-only column.
#[derive(Debug, Clone)]
pub struct RleColumn {
    /// Logical start index of each run (strictly increasing, starts at 0).
    starts: Box<[u32]>,
    /// The value of each run.
    values: Box<[u64]>,
    len: usize,
}

impl RleColumn {
    /// Encode `values` into runs. Columns longer than `u32::MAX` are not
    /// supported (pages are far smaller).
    pub fn encode(values: &[u64]) -> Self {
        assert!(values.len() <= u32::MAX as usize, "column too long for RLE");
        let mut starts = Vec::new();
        let mut vals = Vec::new();
        let mut i = 0usize;
        while i < values.len() {
            let v = values[i];
            starts.push(i as u32);
            vals.push(v);
            let mut j = i + 1;
            while j < values.len() && values[j] == v {
                j += 1;
            }
            i = j;
        }
        RleColumn {
            starts: starts.into_boxed_slice(),
            values: vals.into_boxed_slice(),
            len: values.len(),
        }
    }

    /// Rebuild a column from its stored parts (a page image); no run is
    /// re-detected. `Corrupt` unless there is one value per run and the
    /// run starts rise strictly from 0 and stay below `len` (an empty
    /// column has no run), which is all `get` and `runs_in` rely on.
    pub(crate) fn from_parts(
        starts: Box<[u32]>,
        values: Box<[u64]>,
        len: usize,
    ) -> StorageResult<Self> {
        let ordered = starts.first().is_none_or(|&s| s == 0)
            && starts.windows(2).all(|w| w[0] < w[1])
            && starts.last().map_or(len == 0, |&s| (s as usize) < len);
        if starts.len() != values.len() || !ordered {
            return Err(StorageError::Corrupt(format!(
                "run index of {} starts, {} values over {len} rows",
                starts.len(),
                values.len()
            )));
        }
        Ok(RleColumn {
            starts,
            values,
            len,
        })
    }

    /// Logical start index of each run.
    pub(crate) fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// The value of each run.
    pub(crate) fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.values.len()
    }

    /// Random access decode of value `idx` (O(log runs)).
    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        assert!(idx < self.len, "rle index {idx} out of bounds {}", self.len);
        let run = self.starts.partition_point(|&s| s as usize <= idx) - 1;
        self.values[run]
    }

    /// Heap bytes used by run starts plus values.
    pub fn encoded_bytes(&self) -> usize {
        self.starts.len() * 4 + self.values.len() * 8
    }

    /// Iterate the runs overlapping `lo..hi` as `(start, end, value)`
    /// segments, clipped to the window. The entry run is found by binary
    /// search; subsequent runs stream sequentially.
    pub fn runs_in(&self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        let hi = hi.min(self.len);
        let lo = lo.min(hi);
        let first = if lo >= hi {
            self.starts.len() // empty window: start past the last run
        } else {
            self.starts.partition_point(|&s| (s as usize) <= lo) - 1
        };
        (first..self.starts.len())
            .map(move |run| {
                let start = (self.starts[run] as usize).max(lo);
                let end = self
                    .starts
                    .get(run + 1)
                    .map_or(self.len, |&s| s as usize)
                    .min(hi);
                (start, end, self.values[run])
            })
            .take_while(|&(start, end, _)| start < end)
    }
}

impl ColumnKernel for RleColumn {
    /// Run-level arithmetic: one multiply-add per run instead of one add
    /// per row — a constant column sums in O(1) regardless of length.
    fn sum_range(&self, lo: usize, hi: usize) -> u64 {
        self.runs_in(lo, hi).fold(0u64, |acc, (start, end, v)| {
            acc.wrapping_add(v.wrapping_mul((end - start) as u64))
        })
    }

    fn value_at(&self, idx: usize) -> u64 {
        self.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_runs() {
        let mut values = Vec::new();
        for run in 0..50u64 {
            for _ in 0..(run % 9 + 1) {
                values.push(run * run);
            }
        }
        let c = RleColumn::encode(&values);
        assert_eq!(c.run_count(), 50);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(c.get(i), v);
        }
    }

    #[test]
    fn constant_column_is_one_run() {
        let c = RleColumn::encode(&[5; 100_000]);
        assert_eq!(c.run_count(), 1);
        assert_eq!(c.get(99_999), 5);
        assert_eq!(c.encoded_bytes(), 12);
    }

    #[test]
    fn alternating_column_degenerates() {
        let values: Vec<u64> = (0..100).map(|i| i % 2).collect();
        let c = RleColumn::encode(&values);
        assert_eq!(c.run_count(), 100);
        assert_eq!(c.decode_all(), values);
    }

    impl RleColumn {
        fn decode_all(&self) -> Vec<u64> {
            (0..self.len()).map(|i| self.get(i)).collect()
        }
    }
}
