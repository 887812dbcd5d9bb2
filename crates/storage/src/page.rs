//! Read-only base pages.
//!
//! Base pages hold the read-optimized representation of a range of records
//! (§2.1). They are immutable once built — the merge process only ever
//! *creates new* base pages and retires old ones through the epoch mechanism
//! — which is what makes readers latch-free on them (§5.1.2: "readers do not
//! have to latch the read-only base pages").

use crate::compress::{self, CodecChoice, ColumnKernel, Compressed, RowMask};

/// An immutable, optionally compressed columnar base page.
///
/// One `BasePage` stores one column for one range of records. The in-place
/// updated Indirection column is deliberately *not* a `BasePage` — it lives
/// in an atomic array owned by the table layer, because it is "the only
/// column that requires an in-place update in our architecture" (§3.1).
#[derive(Debug, Clone)]
pub struct BasePage {
    data: Compressed,
}

impl BasePage {
    /// Build a page from raw values using the given codec policy.
    pub fn from_values(values: &[u64], choice: CodecChoice) -> Self {
        BasePage {
            data: compress::encode(values, choice),
        }
    }

    /// Build an uncompressed page (used for freshly loaded data and tests).
    pub fn plain(values: Vec<u64>) -> Self {
        BasePage {
            data: Compressed::Plain(values.into_boxed_slice()),
        }
    }

    /// Wrap an already-built compressed column as a page, preserving its
    /// codec exactly (no decode, no re-encode). This is how page images
    /// loaded from disk become pages again.
    pub fn from_compressed(col: Compressed) -> Self {
        BasePage { data: col }
    }

    /// Number of record slots.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the page holds no slots.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read the value at `slot`.
    #[inline]
    pub fn get(&self, slot: usize) -> u64 {
        self.data.get(slot)
    }

    /// Hint the cache line [`Self::get`] will read `slot` from.
    #[inline]
    pub fn prefetch(&self, slot: usize) {
        self.data.prefetch(slot);
    }

    /// Decode every slot into a vector (used by the merge to load outdated
    /// base pages, §4.1.1 step 2).
    pub fn decode(&self) -> Vec<u64> {
        self.data.decode()
    }

    /// Sum all slots; the building block of the paper's scan experiment (§6.2
    /// "computing the SUM aggregation on a column"). Dispatches to the
    /// codec's [`ColumnKernel`] — runs, packed words, or code frequencies —
    /// never a per-slot decode loop.
    pub fn sum(&self) -> u64 {
        self.data.sum_range(0, self.data.len())
    }

    /// Wrapping sum of slots `lo..hi` via the codec's kernel.
    pub fn sum_range(&self, lo: usize, hi: usize) -> u64 {
        self.data.sum_range(lo, hi)
    }

    /// Wrapping sum of slots `lo..hi`, skipping rows `mask` excludes (the
    /// MVCC holes a scan resolves through the version chain instead).
    pub fn sum_range_masked(&self, lo: usize, hi: usize, mask: &RowMask) -> u64 {
        if mask.all_visible() {
            self.data.sum_range(lo, hi)
        } else {
            self.data.sum_range_masked(lo, hi, mask)
        }
    }

    /// Codec used by this page.
    pub fn codec_name(&self) -> &'static str {
        self.data.codec_name()
    }

    /// Encoded heap size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.data.encoded_bytes()
    }

    /// Borrow the underlying compressed representation.
    pub fn compressed(&self) -> &Compressed {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_page_reads_back() {
        let p = BasePage::plain(vec![1, 2, 3]);
        assert_eq!(p.get(0), 1);
        assert_eq!(p.get(2), 3);
        assert_eq!(p.len(), 3);
        assert_eq!(p.sum(), 6);
    }

    #[test]
    fn compressed_page_reads_back() {
        let values: Vec<u64> = (0..4096).map(|i| i % 3).collect();
        let p = BasePage::from_values(&values, CodecChoice::Auto);
        assert_ne!(p.codec_name(), "plain");
        assert_eq!(p.decode(), values);
        let expected: u64 = values.iter().sum();
        assert_eq!(p.sum(), expected);
    }

    #[test]
    fn sum_wraps_instead_of_panicking() {
        let p = BasePage::plain(vec![u64::MAX, 2]);
        assert_eq!(p.sum(), 1);
    }

    #[test]
    fn from_compressed_preserves_codec() {
        let values: Vec<u64> = (0..512).map(|i| i / 64).collect();
        for choice in [
            CodecChoice::Dictionary,
            CodecChoice::Rle,
            CodecChoice::ForPack,
            CodecChoice::None,
        ] {
            let col = compress::encode(&values, choice);
            let name = col.codec_name();
            let page = BasePage::from_compressed(col);
            assert_eq!(page.codec_name(), name, "{choice:?} must not re-encode");
            assert_eq!(page.decode(), values);
        }
    }

    #[test]
    fn ranged_sums_agree_with_decode() {
        let values: Vec<u64> = (0..777).map(|i| (i % 13) * 3).collect();
        let page = BasePage::from_values(&values, CodecChoice::Auto);
        let expected: u64 = values[100..700].iter().sum();
        assert_eq!(page.sum_range(100, 700), expected);
        let mut mask = RowMask::new(values.len());
        mask.exclude(100);
        mask.exclude(699);
        assert_eq!(
            page.sum_range_masked(100, 700, &mask),
            expected - values[100] - values[699]
        );
    }
}
