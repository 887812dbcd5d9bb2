//! Fixed-width bit-packing of `u64` values.
//!
//! The building block shared by the dictionary and frame-of-reference codecs:
//! `n` logical values are stored in `ceil(n * width / 64)` machine words with
//! O(1) random access.
//!
//! For aggregation, [`BitPacked::iter_range`] walks the packed words with a
//! rolling bit cursor — one shift-and-mask per value, masking the tail of
//! the final partial word — which is what the [`ColumnKernel`] block sums
//! are built on.
//!
//! # Examples
//!
//! ```
//! use lstore_storage::compress::bitpack::BitPacked;
//!
//! let packed = BitPacked::pack(&[1, 5, 3, 7], 3);
//! assert_eq!(packed.get(1), 5);
//! assert_eq!(packed.iter_range(1, 4).collect::<Vec<_>>(), [5, 3, 7]);
//! ```

use super::kernel::ColumnKernel;

/// A bit-packed array of fixed-width unsigned integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPacked {
    words: Box<[u64]>,
    width: u8,
    len: usize,
}

impl BitPacked {
    /// Minimum bit width able to represent `max` (at least 1).
    pub fn width_for(max: u64) -> u8 {
        (64 - max.leading_zeros()).max(1) as u8
    }

    /// Pack `values` with `width` bits each. Values must fit in `width` bits.
    pub fn pack(values: &[u64], width: u8) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        let total_bits = values.len() * width as usize;
        let mut words = vec![0u64; total_bits.div_ceil(64)];
        for (i, &v) in values.iter().enumerate() {
            debug_assert!(width == 64 || v < (1u64 << width), "value exceeds width");
            let bit = i * width as usize;
            let word = bit / 64;
            let off = bit % 64;
            words[word] |= v << off;
            let spill = off + width as usize;
            if spill > 64 {
                words[word + 1] |= v >> (64 - off);
            }
        }
        BitPacked {
            words: words.into_boxed_slice(),
            width,
            len: values.len(),
        }
    }

    /// Number of logical values stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit width per value.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Random access to value `idx`. Panics when out of bounds.
    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        assert!(
            idx < self.len,
            "bitpack index {idx} out of bounds {}",
            self.len
        );
        let width = self.width as usize;
        let bit = idx * width;
        let word = bit / 64;
        let off = bit % 64;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let lo = self.words[word] >> off;
        if off + width <= 64 {
            lo & mask
        } else {
            let hi = self.words[word + 1] << (64 - off);
            (lo | hi) & mask
        }
    }

    /// Hint the word value `idx` starts in (see [`crate::prefetch`]); a
    /// value straddling two words almost always finds both on one line.
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        if let Some(word) = self.words.get(idx * self.width as usize / 64) {
            crate::prefetch(word);
        }
    }

    /// Heap bytes used by the packed words.
    pub fn encoded_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Sequential decode of values `lo..hi` with a rolling bit cursor: the
    /// word index and intra-word offset advance by `width` per step, so the
    /// per-value cost is a shift and a mask — no index multiply, no bounds
    /// assert per element. The aggregation kernels fold over this.
    pub fn iter_range(&self, lo: usize, hi: usize) -> BitIterRange<'_> {
        let hi = hi.min(self.len);
        let lo = lo.min(hi);
        BitIterRange {
            words: &self.words,
            width: self.width as usize,
            mask: if self.width == 64 {
                u64::MAX
            } else {
                (1u64 << self.width) - 1
            },
            bit: lo * self.width as usize,
            remaining: hi - lo,
        }
    }
}

/// Rolling-cursor iterator over a [`BitPacked`] sub-range.
pub struct BitIterRange<'a> {
    words: &'a [u64],
    width: usize,
    mask: u64,
    bit: usize,
    remaining: usize,
}

impl Iterator for BitIterRange<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let word = self.bit / 64;
        let off = self.bit % 64;
        self.bit += self.width;
        let lo = self.words[word] >> off;
        Some(if off + self.width <= 64 {
            lo & self.mask
        } else {
            // Value spills into the next word: splice the tail bits in.
            (lo | (self.words[word + 1] << (64 - off))) & self.mask
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for BitIterRange<'_> {}

impl ColumnKernel for BitPacked {
    fn sum_range(&self, lo: usize, hi: usize) -> u64 {
        self.iter_range(lo, hi).fold(0u64, u64::wrapping_add)
    }

    fn value_at(&self, idx: usize) -> u64 {
        self.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_widths() {
        for width in [1u8, 3, 7, 8, 13, 31, 33, 63, 64] {
            let max = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..257u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9).wrapping_add(7) & max)
                .collect();
            let packed = BitPacked::pack(&values, width);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(packed.get(i), v, "width {width} idx {i}");
            }
        }
    }

    #[test]
    fn width_for_edges() {
        assert_eq!(BitPacked::width_for(0), 1);
        assert_eq!(BitPacked::width_for(1), 1);
        assert_eq!(BitPacked::width_for(2), 2);
        assert_eq!(BitPacked::width_for(255), 8);
        assert_eq!(BitPacked::width_for(256), 9);
        assert_eq!(BitPacked::width_for(u64::MAX), 64);
    }

    #[test]
    fn packs_compactly() {
        let values = vec![1u64; 64];
        let packed = BitPacked::pack(&values, 1);
        assert_eq!(packed.encoded_bytes(), 8);
    }

    #[test]
    fn iter_range_matches_get_across_widths() {
        for width in [1u8, 3, 7, 13, 31, 33, 63, 64] {
            let max = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..257u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9).wrapping_add(7) & max)
                .collect();
            let packed = BitPacked::pack(&values, width);
            assert_eq!(packed.iter_range(0, 257).collect::<Vec<_>>(), values);
            assert_eq!(
                packed.iter_range(100, 200).collect::<Vec<_>>(),
                &values[100..200],
                "width {width}"
            );
            assert_eq!(packed.iter_range(57, 57).count(), 0);
            let expected = values[3..251].iter().fold(0u64, |a, &b| a.wrapping_add(b));
            assert_eq!(packed.sum_range(3, 251), expected, "width {width}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let packed = BitPacked::pack(&[1, 2, 3], 2);
        packed.get(3);
    }
}
