//! Aggregation kernels that execute *over* the encoded column.
//!
//! The paper's scan experiment (§6.2) aggregates a column that is being
//! concurrently updated. Base pages are read-only and compressed (§2.1), so
//! the natural way to aggregate them is per-encoding arithmetic — the same
//! shape as an inference stack picking a compute kernel per quantization
//! format:
//!
//! * **RLE** — run-level arithmetic: `value × run_len` per run instead of
//!   one addition per row.
//! * **FOR / bit-packing** — `frame × n + Σ deltas`, the deltas unpacked a
//!   block of 64 at a time with constant shifts (a block starts on a word
//!   boundary and is exactly `width` words); only a window's ragged head
//!   and tail go through the per-value bit cursor.
//! * **Dictionary** — code-frequency aggregation: count occurrences per
//!   code once, then one multiply per *distinct* value.
//! * **Plain** — a tight slice fold (the decode-free baseline).
//!
//! Each codec implements [`ColumnKernel`]; [`super::Compressed`] dispatches
//! per variant, so a scan picks the right kernel per page without knowing
//! what the merge chose to encode.
//!
//! # Visibility masks
//!
//! MVCC scans cannot always take a whole page: records whose updates outran
//! the merge must be resolved through the version chain. A [`RowMask`]
//! records those rows as *excluded*, and
//! [`ColumnKernel::sum_range_masked`] punches the holes without forcing a
//! full decode: the kernel computes the unmasked encoded sum and then
//! *subtracts* each excluded row via random access. With wrapping
//! arithmetic this is exact, and for the sparse masks scans produce (the
//! merge keeps pages mostly clean) it touches O(holes) rows instead of
//! O(page). Dense masks defeat the subtraction trick — callers are expected
//! to fall back to decode-then-aggregate once a mask covers a substantial
//! fraction of the page (see `docs/COMPRESSION.md` for the contract).
//!
//! # Examples
//!
//! ```
//! use lstore_storage::compress::{encode, CodecChoice, ColumnKernel, RowMask};
//!
//! let values: Vec<u64> = (0..1000).map(|i| i / 100).collect(); // 100-long runs
//! let col = encode(&values, CodecChoice::Rle);
//!
//! // Whole-column and windowed sums, straight off the runs.
//! assert_eq!(col.sum_range(0, 1000), values.iter().sum::<u64>());
//! assert_eq!(col.sum_range(150, 250), values[150..250].iter().sum::<u64>());
//!
//! // Punch two holes: the masked sum skips them.
//! let mut mask = RowMask::new(1000);
//! mask.exclude(170);
//! mask.exclude(200);
//! assert_eq!(
//!     col.sum_range_masked(150, 250, &mask),
//!     values[150..250].iter().sum::<u64>() - values[170] - values[200],
//! );
//! ```

/// A per-page bitset of rows *excluded* from kernel aggregation.
///
/// Bit set = the row's visible version is **not** the base cell (a newer
/// tail version exists within the snapshot, or the record is deleted); the
/// scan supplies such rows itself, from the tail. Rows outside any mask
/// are *clean* and aggregate straight off the encoding.
#[derive(Debug, Clone, Default)]
pub struct RowMask {
    /// One bit per row, LSB-first within each word.
    words: Box<[u64]>,
    /// Logical number of rows covered.
    len: usize,
    /// Number of distinct excluded rows (maintained by [`RowMask::exclude`]).
    excluded: usize,
}

impl RowMask {
    /// An all-visible mask over `len` rows.
    pub fn new(len: usize) -> Self {
        RowMask {
            words: vec![0u64; len.div_ceil(64)].into_boxed_slice(),
            len,
            excluded: 0,
        }
    }

    /// Make this an all-visible mask over `len` rows, keeping the word
    /// buffer when the length allows (scans reuse one mask across the
    /// windows of a call).
    pub fn reset(&mut self, len: usize) {
        let words = len.div_ceil(64);
        if self.words.len() == words {
            self.words.fill(0);
        } else {
            self.words = vec![0u64; words].into_boxed_slice();
        }
        self.len = len;
        self.excluded = 0;
    }

    /// Number of rows covered by the mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclude `idx` from kernel aggregation (idempotent).
    #[inline]
    pub fn exclude(&mut self, idx: usize) {
        assert!(
            idx < self.len,
            "mask index {idx} out of bounds {}",
            self.len
        );
        let bit = 1u64 << (idx % 64);
        let word = &mut self.words[idx / 64];
        if *word & bit == 0 {
            *word |= bit;
            self.excluded += 1;
        }
    }

    /// Is `idx` excluded?
    #[inline]
    pub fn is_excluded(&self, idx: usize) -> bool {
        idx < self.len && self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Total excluded rows.
    pub fn excluded(&self) -> usize {
        self.excluded
    }

    /// True when no row is excluded (kernels can skip masking entirely).
    pub fn all_visible(&self) -> bool {
        self.excluded == 0
    }

    /// Excluded rows within `lo..hi` (popcount with edge-word masking).
    pub fn excluded_in(&self, lo: usize, hi: usize) -> usize {
        self.iter_excluded_words(lo, hi)
            .map(|(_, w)| w.count_ones() as usize)
            .sum()
    }

    /// Iterate the indices of excluded rows within `lo..hi`, ascending.
    pub fn iter_excluded(&self, lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
        self.iter_excluded_words(lo, hi).flat_map(|(word_idx, w)| {
            let base = word_idx * 64;
            BitIter(w).map(move |b| base + b)
        })
    }

    /// Iterate `(word_index, word)` pairs with bits outside `lo..hi` cleared
    /// and all-zero words skipped.
    fn iter_excluded_words(&self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let hi = hi.min(self.len);
        let lo = lo.min(hi);
        let first = lo / 64;
        let last = hi.div_ceil(64);
        self.words[first..last]
            .iter()
            .enumerate()
            .filter_map(move |(i, &w)| {
                let word_idx = first + i;
                let mut w = w;
                let word_lo = word_idx * 64;
                if word_lo < lo {
                    w &= u64::MAX << (lo - word_lo);
                }
                if word_lo + 64 > hi {
                    let keep = hi - word_lo;
                    w &= if keep == 0 {
                        0
                    } else {
                        u64::MAX >> (64 - keep)
                    };
                }
                (w != 0).then_some((word_idx, w))
            })
    }
}

/// Iterator over the set-bit positions of one word, LSB-first.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// An aggregation kernel over one encoded column.
///
/// All arithmetic wraps (scans treat `u64` sums as modular, so deleted and
/// extreme values never panic). Implementations must return exactly what
/// decode-then-aggregate would — the `kernel_equivalence` property suite
/// pins this for every codec and [`super::encode_auto`].
pub trait ColumnKernel {
    /// Wrapping SUM over rows `lo..hi`, straight off the encoding.
    ///
    /// `lo..hi` must lie within the column (`hi <= len`, `lo <= hi`).
    fn sum_range(&self, lo: usize, hi: usize) -> u64;

    /// Random access to one row (the hole-subtraction primitive).
    fn value_at(&self, idx: usize) -> u64;

    /// Wrapping SUM over rows `lo..hi`, skipping rows excluded by `mask`.
    ///
    /// The default computes the unmasked encoded sum and subtracts the
    /// excluded rows — O(encoded range) + O(holes), exact under wrapping
    /// arithmetic. A hole costs one random access, so the walk pays at
    /// any mask density the scan driver produces.
    fn sum_range_masked(&self, lo: usize, hi: usize, mask: &RowMask) -> u64 {
        let mut sum = self.sum_range(lo, hi);
        for idx in mask.iter_excluded(lo, hi) {
            sum = sum.wrapping_sub(self.value_at(idx));
        }
        sum
    }

    /// Visible-row COUNT over `lo..hi` under `mask` (no decode at all —
    /// counting never touches the payload).
    fn count_range_masked(&self, lo: usize, hi: usize, mask: &RowMask) -> usize {
        (hi - lo) - mask.excluded_in(lo, hi)
    }
}

/// Wrapping slice fold — the plain-codec kernel and the reference the
/// property suite compares every other kernel against.
#[inline]
pub fn sum_plain(values: &[u64], lo: usize, hi: usize) -> u64 {
    values[lo..hi].iter().fold(0u64, |a, &b| a.wrapping_add(b))
}

impl ColumnKernel for super::Compressed {
    fn sum_range(&self, lo: usize, hi: usize) -> u64 {
        match self {
            super::Compressed::Dict(c) => c.sum_range(lo, hi),
            super::Compressed::Rle(c) => c.sum_range(lo, hi),
            super::Compressed::For(c) => c.sum_range(lo, hi),
            super::Compressed::Plain(v) => sum_plain(v, lo, hi),
        }
    }

    fn value_at(&self, idx: usize) -> u64 {
        self.get(idx)
    }

    fn sum_range_masked(&self, lo: usize, hi: usize, mask: &RowMask) -> u64 {
        match self {
            super::Compressed::Dict(c) => c.sum_range_masked(lo, hi, mask),
            super::Compressed::Rle(c) => c.sum_range_masked(lo, hi, mask),
            super::Compressed::For(c) => c.sum_range_masked(lo, hi, mask),
            super::Compressed::Plain(v) => {
                let mut sum = sum_plain(v, lo, hi);
                for idx in mask.iter_excluded(lo, hi) {
                    sum = sum.wrapping_sub(v[idx]);
                }
                sum
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{encode, CodecChoice};
    use super::*;

    fn reference_sum(values: &[u64], lo: usize, hi: usize, mask: Option<&RowMask>) -> u64 {
        (lo..hi)
            .filter(|&i| mask.is_none_or(|m| !m.is_excluded(i)))
            .fold(0u64, |a, i| a.wrapping_add(values[i]))
    }

    #[test]
    fn mask_tracks_exclusions() {
        let mut m = RowMask::new(130);
        assert!(m.all_visible());
        m.exclude(0);
        m.exclude(0); // idempotent
        m.exclude(63);
        m.exclude(64);
        m.exclude(129);
        assert_eq!(m.excluded(), 4);
        assert!(m.is_excluded(63));
        assert!(!m.is_excluded(1));
        assert_eq!(m.excluded_in(0, 130), 4);
        assert_eq!(m.excluded_in(1, 129), 2);
        assert_eq!(
            m.iter_excluded(0, 130).collect::<Vec<_>>(),
            [0, 63, 64, 129]
        );
        assert_eq!(m.iter_excluded(64, 129).collect::<Vec<_>>(), [64]);
    }

    #[test]
    fn kernels_match_reference_across_codecs() {
        let shapes: Vec<Vec<u64>> = vec![
            vec![7; 300],                                               // constant
            (0..300).map(|i| i / 25).collect(),                         // sorted runs
            (0..300u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect(), // high-card
            (0..300u64).map(|i| u64::MAX - (i % 3)).collect(),          // max-width
        ];
        for values in &shapes {
            let mut mask = RowMask::new(values.len());
            for i in (0..values.len()).step_by(17) {
                mask.exclude(i);
            }
            for choice in [
                CodecChoice::None,
                CodecChoice::Rle,
                CodecChoice::Dictionary,
                CodecChoice::ForPack,
                CodecChoice::Auto,
            ] {
                let col = encode(values, choice);
                for (lo, hi) in [(0, values.len()), (13, 260), (64, 64), (100, 164)] {
                    assert_eq!(
                        col.sum_range(lo, hi),
                        reference_sum(values, lo, hi, None),
                        "{choice:?} unmasked {lo}..{hi}"
                    );
                    assert_eq!(
                        col.sum_range_masked(lo, hi, &mask),
                        reference_sum(values, lo, hi, Some(&mask)),
                        "{choice:?} masked {lo}..{hi}"
                    );
                    assert_eq!(
                        col.count_range_masked(lo, hi, &mask),
                        (lo..hi).filter(|&i| !mask.is_excluded(i)).count(),
                        "{choice:?} count {lo}..{hi}"
                    );
                }
            }
        }
    }
}
