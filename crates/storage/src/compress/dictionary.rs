//! Dictionary encoding with bit-packed codes.
//!
//! The codec the paper names explicitly for merged pages (§4.1.1 step 3):
//! distinct values are collected into a sorted dictionary and each cell is
//! replaced by a bit-packed code. Random access is O(1): unpack the code,
//! index the dictionary.

//!
//! The [`ColumnKernel`] aggregates in *code space*: it counts occurrences
//! per code across the window once, then spends one multiply per **distinct**
//! value (`Σ freq[c] × dict[c]`) — on a low-cardinality column that is a
//! handful of multiplies for thousands of rows.
//!
//! # Examples
//!
//! ```
//! use lstore_storage::compress::dictionary::DictColumn;
//! use lstore_storage::compress::ColumnKernel;
//!
//! let c = DictColumn::encode(&[30, 10, 30, 20, 30]);
//! assert_eq!(c.cardinality(), 3);
//! assert_eq!(c.sum_range(0, 5), 120);
//! ```

use super::bitpack::BitPacked;
use super::kernel::ColumnKernel;
use crate::error::{StorageError, StorageResult};

/// A dictionary-encoded read-only column.
#[derive(Debug, Clone)]
pub struct DictColumn {
    dict: Box<[u64]>,
    codes: BitPacked,
}

impl DictColumn {
    /// Encode `values` into a sorted dictionary plus packed codes.
    pub fn encode(values: &[u64]) -> Self {
        let mut dict: Vec<u64> = values.to_vec();
        dict.sort_unstable();
        dict.dedup();
        let width = BitPacked::width_for(dict.len().saturating_sub(1) as u64);
        let codes: Vec<u64> = values
            .iter()
            .map(|v| dict.binary_search(v).expect("value in dictionary") as u64)
            .collect();
        DictColumn {
            dict: dict.into_boxed_slice(),
            codes: BitPacked::pack(&codes, width),
        }
    }

    /// Rebuild a column from its stored parts (a page image); nothing is
    /// sorted, searched or re-packed. `Corrupt` if some code has no
    /// dictionary entry, which is all `get` and the kernel rely on. Codes
    /// as wide as the dictionary is long cannot be out of range, so a full
    /// dictionary is not even looked at.
    pub(crate) fn from_parts(dict: Box<[u64]>, codes: BitPacked) -> StorageResult<Self> {
        let entries = dict.len() as u64;
        let full = codes.width() < 64 && entries >= 1u64 << codes.width();
        if !full {
            let mut in_range = true;
            codes.for_each_in(0, codes.len(), |block| {
                in_range &= block.iter().all(|&code| code < entries);
            });
            if !in_range {
                return Err(StorageError::Corrupt(format!(
                    "dictionary code beyond its {entries} entries"
                )));
            }
        }
        Ok(DictColumn { dict, codes })
    }

    /// The dictionary, in code order.
    pub(crate) fn dict(&self) -> &[u64] {
        &self.dict
    }

    /// The packed code of every value.
    pub(crate) fn codes(&self) -> &BitPacked {
        &self.codes
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct values in the dictionary.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// Random access decode of value `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        self.dict[self.codes.get(idx) as usize]
    }

    /// Hint the packed word of code `idx` (the dictionary is small and
    /// shared by every row of the page).
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        self.codes.prefetch(idx);
    }

    /// Heap bytes used by dictionary plus codes.
    pub fn encoded_bytes(&self) -> usize {
        self.dict.len() * 8 + self.codes.encoded_bytes()
    }
}

impl ColumnKernel for DictColumn {
    /// Code-frequency aggregation: tally codes across the window, then one
    /// `freq × value` multiply per dictionary entry. When the window is
    /// smaller than the dictionary the frequency table would cost more than
    /// it saves, so the kernel decodes per row instead.
    fn sum_range(&self, lo: usize, hi: usize) -> u64 {
        let hi = hi.min(self.len());
        let lo = lo.min(hi);
        if self.dict.len() <= hi - lo {
            let mut freq = vec![0u64; self.dict.len()];
            self.codes.for_each_in(lo, hi, |codes| {
                for &code in codes {
                    freq[code as usize] += 1;
                }
            });
            freq.iter()
                .zip(self.dict.iter())
                .fold(0u64, |acc, (&n, &v)| acc.wrapping_add(v.wrapping_mul(n)))
        } else {
            self.codes
                .iter_range(lo, hi)
                .fold(0u64, |acc, code| acc.wrapping_add(self.dict[code as usize]))
        }
    }

    fn value_at(&self, idx: usize) -> u64 {
        self.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_low_cardinality() {
        let values: Vec<u64> = (0..10_000).map(|i| (i % 7) * 1000).collect();
        let c = DictColumn::encode(&values);
        assert_eq!(c.cardinality(), 7);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(c.get(i), v);
        }
        // 3-bit codes: 10_000 * 3 / 8 bytes plus a 7-entry dictionary.
        assert!(c.encoded_bytes() < 4_000);
    }

    #[test]
    fn roundtrip_single_value() {
        let c = DictColumn::encode(&[9, 9, 9]);
        assert_eq!(c.cardinality(), 1);
        assert_eq!(c.get(2), 9);
    }

    #[test]
    fn empty_column() {
        let c = DictColumn::encode(&[]);
        assert!(c.is_empty());
        assert_eq!(c.cardinality(), 0);
    }
}
