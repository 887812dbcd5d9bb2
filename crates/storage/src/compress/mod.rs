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
        let mut out = Vec::new();
        self.decode_into(&mut out);
        out
    }

    /// Decode the whole column into `out`, replacing what it held and
    /// reusing its allocation: runs are repeated, packed words unpack a
    /// block of 64 values at a time (the kernels' unpack).
    pub fn decode_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(self.len());
        match self {
            Compressed::Dict(c) => {
                c.codes().unpack_into(out);
                for v in out.iter_mut() {
                    *v = c.dict()[*v as usize];
                }
            }
            Compressed::Rle(c) => {
                for (start, end, v) in c.runs_in(0, c.len()) {
                    out.resize(out.len() + (end - start), v);
                }
            }
            Compressed::For(c) => {
                c.deltas().unpack_into(out);
                for v in out.iter_mut() {
                    *v = c.frame().wrapping_add(*v);
                }
            }
            Compressed::Plain(v) => out.extend_from_slice(v),
        }
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
/// keeping a plain copy when nothing beats 8 bytes/value. Candidates rank
/// plain, RLE, FOR, dictionary, and a later one wins only when strictly
/// smaller.
///
/// One pass over the values finds their minimum, maximum and run count,
/// which fix the RLE and FOR sizes without building either; only the
/// winner is encoded. The dictionary's size needs the distinct values, so
/// they are collected — only when the sampling heuristic says the column is
/// plausibly low-cardinality — and the codes are packed only if it wins.
pub fn encode_auto(values: &[u64]) -> Compressed {
    enum Winner {
        Plain,
        Rle,
        For,
    }
    let Some(&first) = values.first() else {
        return Compressed::Plain(Box::default()); // nothing beats 0 bytes
    };
    let (mut min, mut max, mut runs, mut prev) = (first, first, 1usize, first);
    for &v in values {
        min = min.min(v);
        max = max.max(v);
        runs += usize::from(v != prev);
        prev = v;
    }
    let (mut best, mut best_bytes) = (Winner::Plain, values.len() * 8);
    if RleColumn::encoded_bytes_for(runs) < best_bytes {
        (best, best_bytes) = (Winner::Rle, RleColumn::encoded_bytes_for(runs));
    }
    let for_bytes = ForColumn::encoded_bytes_for(values.len(), min, max);
    if for_bytes < best_bytes {
        (best, best_bytes) = (Winner::For, for_bytes);
    }
    if plausibly_low_cardinality(values) {
        let dict = DictColumn::dictionary_of(values);
        if DictColumn::encoded_bytes_for(values.len(), dict.len()) < best_bytes {
            return Compressed::Dict(DictColumn::encode_with(values, dict));
        }
    }
    match best {
        Winner::Plain => Compressed::Plain(values.into()),
        Winner::Rle => Compressed::Rle(RleColumn::encode(values)),
        Winner::For => Compressed::For(ForColumn::encode_framed(values, min, max)),
    }
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

    /// The chooser `encode_auto` replaced, with the FOR and dictionary
    /// builds it used: build every candidate, keep the strictly smallest
    /// in the order plain, RLE, FOR, dictionary.
    fn build_every_codec(values: &[u64]) -> Compressed {
        let mut best = Compressed::Plain(values.into());
        let rle = Compressed::Rle(RleColumn::encode(values));
        if rle.encoded_bytes() < best.encoded_bytes() {
            best = rle;
        }
        let frame = values.iter().copied().min().unwrap_or(0);
        let deltas: Vec<u64> = values.iter().map(|&v| v - frame).collect();
        let width = BitPacked::width_for(deltas.iter().copied().max().unwrap_or(0));
        let fr = Compressed::For(ForColumn::from_parts(
            frame,
            BitPacked::pack(&deltas, width),
        ));
        if fr.encoded_bytes() < best.encoded_bytes() {
            best = fr;
        }
        if plausibly_low_cardinality(values) {
            let mut dict = values.to_vec();
            dict.sort_unstable();
            dict.dedup();
            let width = BitPacked::width_for(dict.len().saturating_sub(1) as u64);
            let codes: Vec<u64> = values
                .iter()
                .map(|v| dict.binary_search(v).unwrap() as u64)
                .collect();
            let dict = DictColumn::from_parts(dict.into(), BitPacked::pack(&codes, width)).unwrap();
            let dict = Compressed::Dict(dict);
            if dict.encoded_bytes() < best.encoded_bytes() {
                best = dict;
            }
        }
        best
    }

    #[test]
    fn auto_matches_the_build_every_codec_oracle() {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut columns: Vec<(String, Vec<u64>)> = vec![
            ("empty".into(), vec![]),
            ("one value".into(), vec![7]),
            ("constant".into(), vec![42; 4096]),
            ("alternating".into(), (0..4096).map(|i| i % 2).collect()),
            ("runs of 3".into(), (0..4096).map(|i| i / 3).collect()),
            (
                "runs of 40".into(),
                (0..4096).map(|i| (i / 40) % 5).collect(),
            ),
            (
                "narrow".into(),
                (0..4096).map(|i| 1_000_000 + i % 17).collect(),
            ),
            ("wide".into(), (0..4096).map(|i| i << 40).collect()),
            (
                "low cardinality".into(),
                (0..4096).map(|i| (i % 7) * 1_000_003).collect(),
            ),
            (
                "two far values".into(),
                (0..4096).map(|i| [3, 1 << 60][i % 2]).collect(),
            ),
        ];
        let mut sentinel = vec![5u64; 4096];
        sentinel[100] = u64::MAX;
        columns.push(("constant with a u64::MAX sentinel".into(), sentinel));
        columns.push((
            "incompressible".into(),
            (0..4096u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
                .collect(),
        ));
        for round in 0..200 {
            let len = [0, 1, 2, 15, 16, 17, 63, 64, 65, 1000, 4096][round % 11];
            let bits = next() % 65;
            let run = 1 + next() % 50;
            let mut values = Vec::with_capacity(len);
            while values.len() < len {
                let v = if bits == 64 {
                    next()
                } else {
                    next() & ((1u64 << bits) - 1)
                };
                let take = (run as usize).min(len - values.len());
                values.extend(std::iter::repeat_n(v, take));
            }
            columns.push((format!("random {round}: {bits} bits, runs ≤ {run}"), values));
        }
        let mut winners = std::collections::BTreeSet::new();
        for (name, values) in &columns {
            let (got, want) = (encode_auto(values), build_every_codec(values));
            winners.insert(want.codec_name());
            assert_eq!(got.codec_name(), want.codec_name(), "{name}");
            assert_eq!(got.encoded_bytes(), want.encoded_bytes(), "{name}");
            assert_eq!(
                crate::disk::encode_image(1, &got),
                crate::disk::encode_image(1, &want),
                "{name}: page image"
            );
            assert_eq!(got.decode(), *values, "{name}");
        }
        assert_eq!(winners.len(), 4, "every codec wins somewhere: {winners:?}");
    }
}
