//! Column compression codecs applied to read-optimized pages.
//!
//! The paper keeps base pages "read-only and compressed" (§2.1) and notes
//! that "any compression algorithm (e.g., dictionary encoding) can be applied
//! on the consolidated pages (on column basis)" during the merge (§4.1.1
//! step 3). Historic tail pages additionally receive delta compression across
//! inlined versions (§4.3).
//!
//! Three codecs are provided, all supporting O(1) or O(log n) random access
//! so point reads through the indirection layer never require decompressing
//! a whole page:
//!
//! * [`dictionary`] — dictionary encoding with bit-packed codes; shines on
//!   low-cardinality columns.
//! * [`rle`] — run-length encoding with a run-offset index for binary-search
//!   random access; shines on sorted or highly repetitive columns.
//! * [`forpack`] — frame-of-reference + bit-packing; shines on numeric
//!   columns with a narrow value range (timestamps, monotone RIDs).
//!
//! [`encode_auto`] picks the smallest encoding for a slice, falling back to a
//! plain copy when compression does not pay.
//!
//! Aggregation does not undo any of this: the [`kernel`] module defines
//! [`ColumnKernel`], implemented per codec (and dispatched by
//! [`Compressed`]), so scans sum RLE columns run-by-run, FOR/bit-packed
//! columns word-by-word, and dictionary columns code-by-code — with a
//! [`RowMask`] punching per-row MVCC holes without a full decode.
//!
//! # Examples
//!
//! ```
//! use lstore_storage::compress::{encode_auto, ColumnKernel};
//!
//! let values: Vec<u64> = (0..4096).map(|i| i % 8).collect();
//! let col = encode_auto(&values);
//! assert_ne!(col.codec_name(), "plain");          // something paid off
//! assert_eq!(col.decode(), values);               // lossless
//! assert_eq!(col.sum_range(0, 4096), values.iter().sum::<u64>());
//! ```

pub mod bitpack;
pub mod dictionary;
pub mod forpack;
pub mod kernel;
pub mod rle;

pub use bitpack::BitPacked;
pub use dictionary::DictColumn;
pub use forpack::ForColumn;
pub use kernel::{ColumnKernel, RowMask};
pub use rle::RleColumn;

/// A compressed, random-access read-only column.
#[derive(Debug, Clone)]
pub enum Compressed {
    /// Dictionary-encoded codes into a sorted value dictionary.
    Dict(DictColumn),
    /// Run-length encoded runs with an offset index.
    Rle(RleColumn),
    /// Frame-of-reference bit-packed values.
    For(ForColumn),
    /// Plain uncompressed copy (used when no codec pays off).
    Plain(Box<[u64]>),
}

impl Compressed {
    /// Number of logical values stored.
    pub fn len(&self) -> usize {
        match self {
            Compressed::Dict(c) => c.len(),
            Compressed::Rle(c) => c.len(),
            Compressed::For(c) => c.len(),
            Compressed::Plain(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Random access to the value at `idx`. Panics when out of bounds,
    /// matching slice indexing semantics.
    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        match self {
            Compressed::Dict(c) => c.get(idx),
            Compressed::Rle(c) => c.get(idx),
            Compressed::For(c) => c.get(idx),
            Compressed::Plain(v) => v[idx],
        }
    }

    /// Hint the cache line [`Self::get`] will decode `idx` from (see
    /// [`crate::prefetch`]): the plain word, or the packed word of a FOR
    /// delta or dictionary code. RLE takes none — its run index is a few
    /// lines that every row of the page shares.
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        match self {
            Compressed::Dict(c) => c.prefetch(idx),
            Compressed::For(c) => c.prefetch(idx),
            Compressed::Plain(v) => {
                if let Some(cell) = v.get(idx) {
                    crate::prefetch(cell);
                }
            }
            Compressed::Rle(_) => {}
        }
    }

    /// Decode the whole column into a vector.
    pub fn decode(&self) -> Vec<u64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Approximate heap size of the encoded representation in bytes.
    pub fn encoded_bytes(&self) -> usize {
        match self {
            Compressed::Dict(c) => c.encoded_bytes(),
            Compressed::Rle(c) => c.encoded_bytes(),
            Compressed::For(c) => c.encoded_bytes(),
            Compressed::Plain(v) => v.len() * 8,
        }
    }

    /// Name of the codec, for stats and EXPLAIN-style output.
    pub fn codec_name(&self) -> &'static str {
        match self {
            Compressed::Dict(_) => "dictionary",
            Compressed::Rle(_) => "rle",
            Compressed::For(_) => "for-bitpack",
            Compressed::Plain(_) => "plain",
        }
    }
}

/// Codec selection policy used when building merged pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodecChoice {
    /// Try every codec and keep the smallest encoding (the default).
    #[default]
    Auto,
    /// Force dictionary encoding.
    Dictionary,
    /// Force run-length encoding.
    Rle,
    /// Force frame-of-reference bit-packing.
    ForPack,
    /// Store plainly (compression disabled).
    None,
}

/// Encode `values` with the requested policy.
pub fn encode(values: &[u64], choice: CodecChoice) -> Compressed {
    match choice {
        CodecChoice::Auto => encode_auto(values),
        CodecChoice::Dictionary => Compressed::Dict(DictColumn::encode(values)),
        CodecChoice::Rle => Compressed::Rle(RleColumn::encode(values)),
        CodecChoice::ForPack => Compressed::For(ForColumn::encode(values)),
        CodecChoice::None => Compressed::Plain(values.into()),
    }
}

/// Encode `values` with whichever codec yields the smallest representation,
/// keeping a plain copy when nothing beats 8 bytes/value.
pub fn encode_auto(values: &[u64]) -> Compressed {
    let plain_bytes = values.len() * 8;
    let mut best = Compressed::Plain(values.into());
    let mut best_bytes = plain_bytes;

    let rle = RleColumn::encode(values);
    if rle.encoded_bytes() < best_bytes {
        best_bytes = rle.encoded_bytes();
        best = Compressed::Rle(rle);
    }
    let fr = ForColumn::encode(values);
    if fr.encoded_bytes() < best_bytes {
        best_bytes = fr.encoded_bytes();
        best = Compressed::For(fr);
    }
    // Dictionary encoding is the most expensive to build; only attempt it when
    // the column is plausibly low-cardinality (sampling heuristic).
    if plausibly_low_cardinality(values) {
        let dict = DictColumn::encode(values);
        if dict.encoded_bytes() < best_bytes {
            best = Compressed::Dict(dict);
        }
    }
    best
}

/// Cheap sampling heuristic: look at up to 64 evenly spaced values and guess
/// whether cardinality is low enough for dictionary encoding to pay.
fn plausibly_low_cardinality(values: &[u64]) -> bool {
    if values.len() < 16 {
        return true;
    }
    let step = (values.len() / 64).max(1);
    let mut sample: Vec<u64> = values.iter().step_by(step).copied().collect();
    sample.sort_unstable();
    sample.dedup();
    // If more than half of the sample is distinct, a dictionary is unlikely
    // to beat FOR packing.
    sample.len() * 2 <= values.len().clamp(1, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_roundtrips_constant_column() {
        let values = vec![42u64; 1000];
        let c = encode_auto(&values);
        assert_eq!(c.codec_name(), "rle");
        assert_eq!(c.decode(), values);
        assert!(c.encoded_bytes() < 100);
    }

    #[test]
    fn auto_roundtrips_narrow_range() {
        let values: Vec<u64> = (0..4096).map(|i| 1_000_000 + (i % 17)).collect();
        let c = encode_auto(&values);
        assert_eq!(c.decode(), values);
        assert!(c.encoded_bytes() < values.len() * 8);
    }

    #[test]
    fn auto_keeps_incompressible_plain() {
        // A permutation-ish spread over the full u64 space defeats all codecs.
        let values: Vec<u64> = (0..512u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
            .collect();
        let c = encode_auto(&values);
        assert_eq!(c.decode(), values);
        assert!(c.encoded_bytes() <= values.len() * 8 + 64);
    }

    #[test]
    fn forced_choices_roundtrip() {
        let values: Vec<u64> = (0..333).map(|i| i / 10).collect();
        for choice in [
            CodecChoice::Dictionary,
            CodecChoice::Rle,
            CodecChoice::ForPack,
            CodecChoice::None,
        ] {
            let c = encode(&values, choice);
            assert_eq!(c.decode(), values, "codec {:?}", choice);
        }
    }

    #[test]
    fn empty_column_is_fine() {
        let c = encode_auto(&[]);
        assert!(c.is_empty());
        assert_eq!(c.decode(), Vec::<u64>::new());
    }
}
