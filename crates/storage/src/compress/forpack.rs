//! Frame-of-reference (FOR) encoding with bit-packed deltas.
//!
//! Values are stored as bit-packed offsets from the column minimum. This is
//! the workhorse for numeric data with a narrow dynamic range — timestamps,
//! keys within an update range, Base RID columns ("a highly compressible
//! column", §2.2) — and is also the delta compressor used for inlined
//! historic versions (§4.3).

//!
//! The [`ColumnKernel`] exploits the affine shape directly:
//! `SUM(lo..hi) = frame × (hi − lo) + Σ deltas`, with the delta sum folding
//! the packed words 64 values at a time (the [`BitPacked`] kernel).
//!
//! # Examples
//!
//! ```
//! use lstore_storage::compress::forpack::ForColumn;
//! use lstore_storage::compress::ColumnKernel;
//!
//! let c = ForColumn::encode(&[1000, 1003, 1001]);
//! assert_eq!(c.frame(), 1000);
//! assert_eq!(c.sum_range(0, 3), 3004);
//! ```

use super::bitpack::BitPacked;
use super::kernel::ColumnKernel;

/// A frame-of-reference encoded read-only column.
#[derive(Debug, Clone)]
pub struct ForColumn {
    base: u64,
    deltas: BitPacked,
}

impl ForColumn {
    /// Encode `values` relative to their minimum.
    pub fn encode(values: &[u64]) -> Self {
        let base = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        Self::encode_framed(values, base, max)
    }

    /// Encode `values` whose minimum is `min` and maximum `max`, as
    /// [`ForColumn::encode`] would (0 and 0 for an empty column).
    pub(crate) fn encode_framed(values: &[u64], min: u64, max: u64) -> Self {
        let deltas = values.iter().map(|&v| v - min);
        ForColumn {
            base: min,
            deltas: BitPacked::pack_iter(deltas, BitPacked::width_for(max - min)),
        }
    }

    /// Bytes [`ForColumn::encoded_bytes`] reports for `len` values spanning
    /// `max - min`, without encoding them.
    pub(crate) fn encoded_bytes_for(len: usize, min: u64, max: u64) -> usize {
        8 + (len * BitPacked::width_for(max - min) as usize).div_ceil(64) * 8
    }

    /// Rebuild a column from its stored parts (a page image); nothing is
    /// re-encoded. Any frame over any valid [`BitPacked`] is a column.
    pub(crate) fn from_parts(base: u64, deltas: BitPacked) -> Self {
        ForColumn { base, deltas }
    }

    /// The packed offsets from [`ForColumn::frame`].
    pub(crate) fn deltas(&self) -> &BitPacked {
        &self.deltas
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True when the column is empty.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The frame of reference (column minimum).
    pub fn frame(&self) -> u64 {
        self.base
    }

    /// Bits per value after packing.
    pub fn width(&self) -> u8 {
        self.deltas.width()
    }

    /// Random access decode of value `idx`. The add wraps like the
    /// kernel's: an encoded column never overflows, and one rebuilt from a
    /// foreign image must not panic.
    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        self.base.wrapping_add(self.deltas.get(idx))
    }

    /// Hint the packed word of value `idx`.
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        self.deltas.prefetch(idx);
    }

    /// Heap bytes used by the packed deltas.
    pub fn encoded_bytes(&self) -> usize {
        8 + self.deltas.encoded_bytes()
    }
}

impl ColumnKernel for ForColumn {
    /// Affine block sum: `frame × n` once, plus the packed delta sum. The
    /// multiply wraps so full-width frames (e.g. `u64::MAX` sentinels in an
    /// otherwise-constant column) stay exact modulo 2⁶⁴, matching
    /// decode-then-aggregate.
    fn sum_range(&self, lo: usize, hi: usize) -> u64 {
        let hi = hi.min(self.len());
        let lo = lo.min(hi);
        self.base
            .wrapping_mul((hi - lo) as u64)
            .wrapping_add(self.deltas.sum_range(lo, hi))
    }

    fn value_at(&self, idx: usize) -> u64 {
        self.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_narrow_range() {
        let values: Vec<u64> = (0..4096u64).map(|i| 1_000_000_000 + i % 100).collect();
        let c = ForColumn::encode(&values);
        assert_eq!(c.frame(), 1_000_000_000);
        assert_eq!(c.width(), 7);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(c.get(i), v);
        }
        assert!(c.encoded_bytes() < values.len());
    }

    #[test]
    fn roundtrip_extremes() {
        let values = vec![u64::MAX, 0, u64::MAX / 2];
        let c = ForColumn::encode(&values);
        assert_eq!(c.get(0), u64::MAX);
        assert_eq!(c.get(1), 0);
        assert_eq!(c.get(2), u64::MAX / 2);
    }

    #[test]
    fn empty_column() {
        let c = ForColumn::encode(&[]);
        assert!(c.is_empty());
    }

    #[test]
    fn sums_wrap_exactly_under_a_frame_next_to_u64_max() {
        for spread in [0u64, 1, 2, 1000] {
            let base = u64::MAX - spread;
            for len in [0usize, 1, 63, 64, 65, 576, 4096] {
                let values: Vec<u64> = (0..len as u64)
                    .map(|i| base + i.wrapping_mul(0x9E37_79B9) % (spread + 1))
                    .collect();
                let c = ForColumn::encode(&values);
                let edges = [0, 1, 63, 64, 65, 127, len];
                for &lo in edges.iter().filter(|&&e| e <= len) {
                    for &hi in edges.iter().filter(|&&e| lo <= e && e <= len) {
                        let expected = values[lo..hi].iter().fold(0u64, |a, &b| a.wrapping_add(b));
                        assert_eq!(
                            c.sum_range(lo, hi),
                            expected,
                            "spread {spread} len {len} {lo}..{hi}"
                        );
                    }
                }
            }
        }
    }
}
