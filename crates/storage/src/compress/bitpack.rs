//! Fixed-width bit-packing of `u64` values.
//!
//! The building block shared by the dictionary and frame-of-reference codecs:
//! `n` logical values are stored in `ceil(n * width / 64)` machine words with
//! O(1) random access.
//!
//! For aggregation a block of 64 values starts on a word boundary
//! and is exactly `width` words, so whole blocks are unpacked with every
//! shift, word index and spill test a compile-time constant (the
//! [`ColumnKernel`] sum and the dictionary's code tally fold those);
//! [`BitPacked::iter_range`] — a rolling bit cursor, one shift-and-mask per
//! value — covers the ragged head and tail.
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
use crate::error::{StorageError, StorageResult};

/// Evaluate `$body` with `$w` bound to `$width` as a constant: one match
/// per call, and inside it every shift and word index of a block is known
/// at compile time.
macro_rules! with_width {
    ($width:expr, $w:ident => $body:expr) => {
        with_width!(@ $width, $w, $body;
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
            17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
            33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48
            49 50 51 52 53 54 55 56 57 58 59 60 61 62 63 64)
    };
    (@ $width:expr, $w:ident, $body:expr; $($n:literal)*) => {
        match $width {
            $($n => {
                const $w: usize = $n;
                $body
            })*
            _ => unreachable!("the width is checked on construction"),
        }
    };
}

/// Values per unpacked block: the period after which a packed value starts
/// on a word boundary again, whatever the width.
pub(crate) const BLOCK: usize = 64;

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
        Self::pack_iter(values.iter().copied(), width)
    }

    /// Pack the values `values` yields with `width` bits each, a block of
    /// 64 at a time with the width a constant inside (the inverse of the
    /// kernels' unpack).
    pub(crate) fn pack_iter(values: impl ExactSizeIterator<Item = u64>, width: u8) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        let (len, width_bits) = (values.len(), width as usize);
        let mut words = vec![0u64; (len * width_bits).div_ceil(64)];
        let mut values = values;
        let mut block = [0u64; BLOCK];
        // A whole block fills `width` words; the last, padded with zeros,
        // fills only the words its values reach.
        for out in words.chunks_mut(width_bits) {
            let mut n = 0;
            for (slot, v) in block.iter_mut().zip(&mut values) {
                debug_assert!(width == 64 || v < (1u64 << width), "value exceeds width");
                *slot = v;
                n += 1;
            }
            block[n..].fill(0);
            pack_into(width_bits, &block, out);
        }
        BitPacked {
            words: words.into_boxed_slice(),
            width,
            len,
        }
    }

    /// Rebuild a packed array from its stored parts (a page image): the
    /// words are taken as they are, never re-packed. `Corrupt` unless
    /// `width` is in `1..=64` and `words` is exactly `⌈len × width / 64⌉`
    /// long, which is all `get` and the kernels rely on.
    pub(crate) fn from_parts(words: Box<[u64]>, width: u8, len: usize) -> StorageResult<Self> {
        if !(1..=64).contains(&width) {
            return Err(StorageError::Corrupt(format!("bit width {width}")));
        }
        let expect = len
            .checked_mul(width as usize)
            .map(|bits| bits.div_ceil(64));
        if expect != Some(words.len()) {
            return Err(StorageError::Corrupt(format!(
                "{} packed words for {len} values of {width} bits",
                words.len()
            )));
        }
        Ok(BitPacked { words, width, len })
    }

    /// The packed words, as [`BitPacked::from_parts`] takes them back.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
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

    /// Unpack the whole blocks `lo..hi` (both multiples of [`BLOCK`], within
    /// the array) and hand each to `f`, in order. One dispatch on the width
    /// per call; inside, the width is a constant.
    fn for_each_block(&self, lo: usize, hi: usize, mut f: impl FnMut(&[u64; BLOCK])) {
        debug_assert!(lo.is_multiple_of(BLOCK) && hi.is_multiple_of(BLOCK));
        debug_assert!(lo <= hi && hi <= self.len);
        let width = self.width as usize;
        let words = &self.words[lo / BLOCK * width..hi / BLOCK * width];
        with_width!(width, W => unpack_blocks::<W>(words, &mut f));
    }

    /// Hand values `lo..hi` to `f` in order, a slice at a time: the ragged
    /// head up to the next block boundary through the iterator, whole
    /// blocks unpacked, the ragged tail through the iterator.
    pub(crate) fn for_each_in(&self, lo: usize, hi: usize, mut f: impl FnMut(&[u64])) {
        let hi = hi.min(self.len);
        let lo = lo.min(hi);
        let head_end = lo.next_multiple_of(BLOCK).min(hi);
        let tail_start = (hi / BLOCK * BLOCK).max(head_end);
        let ragged = |from: usize, to: usize, f: &mut dyn FnMut(&[u64])| {
            let mut values = [0u64; BLOCK];
            for (slot, v) in values.iter_mut().zip(self.iter_range(from, to)) {
                *slot = v;
            }
            if to > from {
                f(&values[..to - from]);
            }
        };
        ragged(lo, head_end, &mut f);
        if head_end < tail_start {
            self.for_each_block(head_end, tail_start, |block| f(block));
        }
        ragged(tail_start, hi, &mut f);
    }

    /// Append every value to `out`, whole blocks unpacked.
    pub(crate) fn unpack_into(&self, out: &mut Vec<u64>) {
        self.for_each_in(0, self.len, |values| out.extend_from_slice(values));
    }

    /// Sequential decode of values `lo..hi` with a rolling bit cursor: the
    /// word index and intra-word offset advance by `width` per step, so the
    /// per-value cost is a shift and a mask — no index multiply, no bounds
    /// assert per element. The kernels' ragged edges go through this.
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

/// Value `j` of the block packed in `w`. Inlined with `j` a literal, so
/// the word index, the shift and the spill test are all constants.
#[inline(always)]
fn extract<const W: usize>(w: &[u64; W], j: usize) -> u64 {
    let (word, off) = (j * W / 64, j * W % 64);
    let lo = w[word] >> off;
    let v = if off + W > 64 {
        lo | (w[word + 1] << (64 - off))
    } else {
        lo
    };
    v & (u64::MAX >> (64 - W))
}

/// The 64 values of one block. Written out rather than looped: LLVM does
/// not unroll the loop, and without constant shifts a value costs what the
/// iterator's does.
#[inline(always)]
fn unpack_block<const W: usize>(w: &[u64; W]) -> [u64; BLOCK] {
    let mut out = [0u64; BLOCK];
    macro_rules! unpack {
        ($($j:literal)*) => { $(out[$j] = extract(w, $j);)* };
    }
    unpack!(
        0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
        16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
        32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47
        48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
    );
    out
}

fn unpack_blocks<const W: usize>(words: &[u64], f: &mut impl FnMut(&[u64; BLOCK])) {
    for block in words.as_chunks::<W>().0 {
        f(&unpack_block(block));
    }
}

/// Or value `v` into slot `j` of the block packed in `w`: [`extract`]'s
/// inverse, with the same constants.
#[inline(always)]
fn deposit<const W: usize>(w: &mut [u64; W], j: usize, v: u64) {
    let (word, off) = (j * W / 64, j * W % 64);
    w[word] |= v << off;
    if off + W > 64 {
        w[word + 1] |= v >> (64 - off);
    }
}

/// Pack `block` at `width` bits into `out`: `width` words, or fewer for a
/// last block padded with zeros. Not generic, so the 64 width-specialised
/// packers exist once however many callers there are.
fn pack_into(width: usize, block: &[u64; BLOCK], out: &mut [u64]) {
    let len = out.len();
    with_width!(width, W => out.copy_from_slice(&pack_block::<W>(block)[..len]));
}

/// The 64 values `v` packed into one block, written out like
/// [`unpack_block`].
#[inline(always)]
fn pack_block<const W: usize>(v: &[u64; BLOCK]) -> [u64; W] {
    let mut w = [0u64; W];
    macro_rules! pack {
        ($($j:literal)*) => { $(deposit(&mut w, $j, v[$j]);)* };
    }
    pack!(
        0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
        16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
        32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47
        48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
    );
    w
}

impl ColumnKernel for BitPacked {
    fn sum_range(&self, lo: usize, hi: usize) -> u64 {
        let mut sum = 0u64;
        self.for_each_in(lo, hi, |values| {
            sum = values.iter().fold(sum, |a, &b| a.wrapping_add(b));
        });
        sum
    }

    fn value_at(&self, idx: usize) -> u64 {
        self.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value at a time at its computed bit offset: the packer the
    /// block packer replaced, kept as the reference for the word layout.
    fn pack_indexed(values: &[u64], width: usize) -> Vec<u64> {
        let mut words = vec![0u64; (values.len() * width).div_ceil(64)];
        for (i, &v) in values.iter().enumerate() {
            let (word, off) = (i * width / 64, i * width % 64);
            words[word] |= v << off;
            if off + width > 64 {
                words[word + 1] |= v >> (64 - off);
            }
        }
        words
    }

    #[test]
    fn block_packing_lays_out_words_like_the_indexed_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for width in 1..=64usize {
            let mask = u64::MAX >> (64 - width);
            for len in [0usize, 1, 63, 64, 65, 130, 4096] {
                let values: Vec<u64> = (0..len)
                    .map(|_| {
                        x = x.rotate_left(23).wrapping_mul(0xD6E8_FEB8_6659_FD93);
                        x & mask
                    })
                    .collect();
                let packed = BitPacked::pack(&values, width as u8);
                assert_eq!(
                    packed.words(),
                    pack_indexed(&values, width),
                    "width {width} len {len}"
                );
            }
        }
    }

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
    fn sum_range_equals_the_iterator_fold_at_every_width_and_ragged_edge() {
        for width in 1..=64u8 {
            let max = u64::MAX >> (64 - width);
            for len in [0usize, 1, 63, 64, 65, 576, 4096] {
                // Every third value at the width's maximum, so block sums
                // wrap and a spilled high bit cannot go missing.
                let values: Vec<u64> = (0..len as u64)
                    .map(|i| match i % 3 {
                        0 => max,
                        _ => i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & max,
                    })
                    .collect();
                let packed = BitPacked::pack(&values, width);
                let edges = [0, 1, 63, 64, 65, 127, len];
                for &lo in edges.iter().filter(|&&e| e <= len) {
                    for &hi in edges.iter().filter(|&&e| lo <= e && e <= len) {
                        let expected = packed.iter_range(lo, hi).fold(0u64, u64::wrapping_add);
                        assert_eq!(
                            packed.sum_range(lo, hi),
                            expected,
                            "width {width} len {len} {lo}..{hi}"
                        );
                        let mut seen = Vec::new();
                        packed.for_each_in(lo, hi, |part| seen.extend_from_slice(part));
                        assert_eq!(seen, &values[lo..hi], "width {width} len {len} {lo}..{hi}");
                    }
                }
            }
        }
    }

    #[test]
    fn from_parts_takes_exactly_the_packed_words() {
        let packed = BitPacked::pack(&[1, 5, 3, 7, 2], 3);
        let back = BitPacked::from_parts(packed.words().into(), 3, 5).unwrap();
        assert_eq!(back, packed);
        for (words, width, len) in [(1usize, 0u8, 5usize), (1, 65, 1), (2, 3, 5), (0, 3, 5)] {
            let got = BitPacked::from_parts(vec![0; words].into(), width, len);
            assert!(got.is_err(), "{words} words, width {width}, len {len}");
        }
        assert!(BitPacked::from_parts(Box::new([]), 64, usize::MAX).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let packed = BitPacked::pack(&[1, 2, 3], 2);
        packed.get(3);
    }
}
