//! On-disk page images.
//!
//! The paper stresses that base and tail pages are "persisted identically"
//! (§2.1): at this layer there is no difference between page kinds, only a
//! column of `u64` cells (possibly compressed). This module defines the
//! small self-describing binary format for page images that the page store
//! ([`crate::store`]) frames into its file.
//!
//! An image is a sequence of little-endian `u64` words holding the codec's
//! own arrays — the file is the resident encoding, not its decoded values:
//! ```text
//! word 0   magic "LSPI" | u8 version | u8 codec | u8 bit width | u8 zero
//! word 1   len (logical values)
//! body     plain       len cells
//!          for         frame | ⌈len × width / 64⌉ packed words
//!          dictionary  entries | the dictionary | ⌈len × width / 64⌉ packed codes
//!          rle         runs | run starts (u32, zero-padded to a word) | run values
//! last     checksum of every word before it
//! ```
//!
//! [`encode_image`] copies the arrays out and [`decode_image`] copies them
//! back in through the codecs' `from_parts` constructors: nothing is decoded,
//! sorted, searched or re-packed on either side, so a fault costs what its
//! bytes cost. The price is that a codec's array layout *is* the file
//! format — changing one is a version bump here.
//!
//! Images come from a file, so [`decode_image`] trusts nothing: the
//! checksum catches damage, and the structural checks (here and in
//! `from_parts`) make sure that even an image with a valid checksum can
//! only build a column whose every `get` stays inside its arrays.
//!
//! # Examples
//!
//! ```
//! use lstore_storage::compress::{encode, CodecChoice};
//! use lstore_storage::disk::{decode_image, encode_image};
//!
//! let col = encode(&[5, 5, 5, 9], CodecChoice::Rle);
//! let image = encode_image(&col);
//! let back = decode_image(&image).unwrap();
//! assert_eq!(back.codec_name(), "rle");
//! assert_eq!(back.decode(), vec![5, 5, 5, 9]);
//! ```

use bytes::Bytes;

use crate::compress::{BitPacked, Compressed, DictColumn, ForColumn, RleColumn};
use crate::error::{StorageError, StorageResult};

const MAGIC: &[u8; 4] = b"LSPI";
/// Magic of the previous format (decoded big-endian values), recognized
/// only to be refused by name.
const OLD_MAGIC: &[u8; 4] = b"LSPG";
const VERSION: u8 = 1;

const CODEC_PLAIN: u8 = 0;
const CODEC_DICT: u8 = 1;
const CODEC_RLE: u8 = 2;
const CODEC_FOR: u8 = 3;

/// Most values one page image may hold. Far above any page the engine
/// builds (a range's column, a checkpoint manifest); it bounds what a
/// length read from a file can make the decoder or a later
/// [`Compressed::decode`] allocate.
pub const MAX_PAGE_CELLS: usize = 1 << 28;

fn corrupt<T>(what: impl Into<String>) -> StorageResult<T> {
    Err(StorageError::Corrupt(what.into()))
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// Append `words` little-endian (a block copy on a little-endian machine).
fn put_words(image: &mut Vec<u8>, words: &[u64]) {
    let at = image.len();
    image.resize(at + words.len() * 8, 0);
    for (bytes, word) in image[at..].chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
}

/// Word-wise checksum of `body` (a whole number of words): four
/// independent multiply–rotate lanes, folded with the length at the end.
/// Every step is a bijection of the state for a fixed word and of the word
/// for a fixed state, so changing any one word always changes the result.
/// Not a byte-wise CRC: at 5 KB that would cost more than the rest of the
/// fault.
fn checksum(body: &[u8]) -> u64 {
    fn step(h: u64, word: u64) -> u64 {
        (h ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    }
    let mut lanes = [1u64, 2, 3, 4];
    let mut quads = body.chunks_exact(32);
    for quad in &mut quads {
        for (lane, word) in lanes.iter_mut().zip(quad.chunks_exact(8)) {
            *lane = step(*lane, le_word(word));
        }
    }
    let mut h = body.len() as u64;
    for word in quads.remainder().chunks_exact(8) {
        h = step(h, le_word(word));
    }
    lanes.iter().fold(h, |h, &lane| step(h, lane))
}

/// Serialize a compressed column into a self-describing byte image.
pub fn encode_image(col: &Compressed) -> Bytes {
    let (codec, width) = match col {
        Compressed::Plain(_) => (CODEC_PLAIN, 0),
        Compressed::Dict(c) => (CODEC_DICT, c.codes().width()),
        Compressed::Rle(_) => (CODEC_RLE, 0),
        Compressed::For(c) => (CODEC_FOR, c.deltas().width()),
    };
    let mut image = Vec::with_capacity(col.encoded_bytes() + 48);
    image.extend_from_slice(MAGIC);
    image.extend_from_slice(&[VERSION, codec, width, 0]);
    put_words(&mut image, &[col.len() as u64]);
    match col {
        Compressed::Plain(cells) => put_words(&mut image, cells),
        Compressed::For(c) => {
            put_words(&mut image, &[c.frame()]);
            put_words(&mut image, c.deltas().words());
        }
        Compressed::Dict(c) => {
            put_words(&mut image, &[c.dict().len() as u64]);
            put_words(&mut image, c.dict());
            put_words(&mut image, c.codes().words());
        }
        Compressed::Rle(c) => {
            put_words(&mut image, &[c.starts().len() as u64]);
            for start in c.starts() {
                image.extend_from_slice(&start.to_le_bytes());
            }
            image.resize(image.len().next_multiple_of(8), 0);
            put_words(&mut image, c.values());
        }
    }
    let sum = checksum(&image);
    put_words(&mut image, &[sum]);
    Bytes::from(image)
}

/// Check that `prefix` — the first bytes of an image, at least five when
/// the image has them — starts an image this build reads: its magic and
/// version. The previous format is refused by name.
pub(crate) fn check_header(prefix: &[u8]) -> StorageResult<()> {
    if prefix.len() < 5 {
        return corrupt("page image shorter than its header");
    }
    if &prefix[..4] == OLD_MAGIC {
        return corrupt(
            "page image in the old LSPG format (decoded big-endian values); \
             this build reads only LSPI, the codec-native format",
        );
    }
    if &prefix[..4] != MAGIC {
        return corrupt("bad page image magic");
    }
    if prefix[4] != VERSION {
        return corrupt(format!("page image version {}", prefix[4]));
    }
    Ok(())
}

/// The part of an image body not read yet.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// The next `n` bytes. A count the image cannot hold is `Corrupt`
    /// before anything is allocated for it.
    fn bytes(&mut self, n: u64) -> StorageResult<&'a [u8]> {
        if n > self.0.len() as u64 {
            return corrupt(format!(
                "page image array of {n} bytes with {} left",
                self.0.len()
            ));
        }
        let (head, rest) = self.0.split_at(n as usize);
        self.0 = rest;
        Ok(head)
    }

    fn word(&mut self) -> StorageResult<u64> {
        Ok(le_word(self.bytes(8)?))
    }

    /// The next `n` words (a block copy on a little-endian machine).
    fn words(&mut self, n: u64) -> StorageResult<Box<[u64]>> {
        let bytes = self.bytes(n.saturating_mul(8))?;
        Ok(bytes.chunks_exact(8).map(le_word).collect())
    }

    /// Every word left: the last array of an image is as long as the
    /// image says, and the codec's `from_parts` checks that length.
    fn rest(&mut self) -> StorageResult<Box<[u64]>> {
        self.words(self.0.len() as u64 / 8)
    }
}

/// Deserialize a page image produced by [`encode_image`]. Anything else —
/// damaged, truncated, foreign, or well-summed but structurally impossible
/// — is [`StorageError::Corrupt`].
pub fn decode_image(data: &[u8]) -> StorageResult<Compressed> {
    check_header(data)?;
    if data.len() < 24 || !data.len().is_multiple_of(8) {
        return corrupt(format!("page image of {} bytes", data.len()));
    }
    let (body, sum) = data.split_at(data.len() - 8);
    if checksum(body) != le_word(sum) {
        return corrupt("page image checksum mismatch");
    }
    let (codec, width, zero) = (data[5], data[6], data[7]);
    let mut body = Reader(&body[8..]);
    let len = body.word()?;
    if len > MAX_PAGE_CELLS as u64 {
        return corrupt(format!("page image of {len} values"));
    }
    let len = len as usize;
    let packed = matches!(codec, CODEC_DICT | CODEC_FOR);
    if zero != 0 || (!packed && width != 0) {
        return corrupt("page image header bytes that must be zero");
    }
    let col = match codec {
        CODEC_PLAIN => Compressed::Plain(body.rest()?),
        CODEC_FOR => {
            let frame = body.word()?;
            let deltas = BitPacked::from_parts(body.rest()?, width, len)?;
            Compressed::For(ForColumn::from_parts(frame, deltas))
        }
        CODEC_DICT => {
            let entries = body.word()?;
            let dict = body.words(entries)?;
            let codes = BitPacked::from_parts(body.rest()?, width, len)?;
            Compressed::Dict(DictColumn::from_parts(dict, codes)?)
        }
        CODEC_RLE => {
            let runs = body.word()?;
            let starts = body.bytes(runs.div_ceil(2).saturating_mul(8))?;
            let mut starts = starts
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("a 4-byte chunk")));
            let index: Box<[u32]> = starts.by_ref().take(runs as usize).collect();
            if starts.any(|pad| pad != 0) {
                return corrupt("run index padding");
            }
            Compressed::Rle(RleColumn::from_parts(index, body.words(runs)?, len)?)
        }
        other => return corrupt(format!("unknown codec {other}")),
    };
    if col.len() != len || !body.0.is_empty() {
        return corrupt("page image arrays disagree with its header");
    }
    Ok(col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{encode, CodecChoice};
    use crate::page::BasePage;

    const CODECS: [CodecChoice; 4] = [
        CodecChoice::None,
        CodecChoice::Dictionary,
        CodecChoice::Rle,
        CodecChoice::ForPack,
    ];

    /// Pages at the edges of every codec's layout.
    fn edge_pages() -> Vec<(&'static str, Vec<u64>)> {
        vec![
            ("empty", vec![]),
            ("one value", vec![42]),
            ("all u64::MAX", vec![u64::MAX; 130]),
            ("width 1", (0..200).map(|i| 7 + i % 2).collect()),
            ("width 64", vec![0, u64::MAX, 1, u64::MAX - 1, 12345]),
            ("4096 distinct", (0..4096u64).map(|i| i * 3 + 1).collect()),
            ("one run", vec![9; 4096]),
            (
                "576-row last page",
                (0..576u64).map(|i| 1_000_000 + i % 1000).collect(),
            ),
            ("odd run count", vec![1, 1, 2, 2, 2, 3]),
        ]
    }

    #[test]
    fn every_codec_and_edge_page_round_trips_without_re_encoding() {
        for (name, values) in edge_pages() {
            for choice in CODECS {
                let col = encode(&values, choice);
                let image = encode_image(&col);
                let back =
                    decode_image(&image).unwrap_or_else(|e| panic!("{name} {choice:?}: {e}"));
                assert_eq!(back.decode(), values, "{name} {choice:?}");
                // The codec choice survives the round trip, and wrapping
                // the loaded column as a page must not re-encode it (the
                // page keeps what the image said, not what Auto would pick).
                assert_eq!(back.codec_name(), col.codec_name(), "{name} {choice:?}");
                assert_eq!(
                    back.encoded_bytes(),
                    col.encoded_bytes(),
                    "{name} {choice:?}"
                );
                let page = BasePage::from_compressed(back);
                assert_eq!(page.codec_name(), col.codec_name(), "{name} {choice:?}");
                // The file holds the resident encoding plus a fixed frame.
                assert!(image.len() <= col.encoded_bytes() + 48, "{name} {choice:?}");
            }
        }
    }

    #[test]
    fn a_damaged_image_is_an_error_never_a_panic() {
        for (name, values) in edge_pages() {
            for choice in CODECS {
                let image = encode_image(&encode(&values, choice)).to_vec();
                // Every position of a small image; of a page-sized one the
                // header, the checksum and every 13th byte between (odd, so
                // every offset within a word comes up).
                let positions = |n: usize| {
                    let step = if n <= 2048 { 1 } else { 13 };
                    (0..n).filter(move |&at| at < 64 || at + 64 >= n || at % step == 0)
                };
                let mut bad = image.clone();
                for at in positions(image.len()) {
                    for flip in [0x01u8, 0xff] {
                        bad[at] ^= flip;
                        assert!(
                            decode_image(&bad).is_err(),
                            "{name} {choice:?}: byte {at} ^ {flip:#x} went unnoticed"
                        );
                        bad[at] ^= flip;
                    }
                }
                for cut in positions(image.len()) {
                    assert!(
                        decode_image(&image[..cut]).is_err(),
                        "{name} {choice:?}: truncation at {cut} went unnoticed"
                    );
                }
                let mut longer = image.clone();
                longer.extend_from_slice(&[0; 8]);
                assert!(
                    decode_image(&longer).is_err(),
                    "{name} {choice:?}: trailing word"
                );
            }
        }
    }

    /// A hand-built image with a *valid* checksum: what the structural
    /// checks alone must refuse.
    fn sealed(codec: u8, width: u8, words: &[u64]) -> Vec<u8> {
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&[VERSION, codec, width, 0]);
        put_words(&mut image, words);
        let sum = checksum(&image);
        put_words(&mut image, &[sum]);
        image
    }

    #[test]
    fn well_summed_but_impossible_images_are_refused() {
        // Two run starts in one word.
        let starts = |a: u64, b: u64| b << 32 | a;
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "plain: fewer cells than len",
                sealed(CODEC_PLAIN, 0, &[3, 1, 2]),
            ),
            ("plain: a width", sealed(CODEC_PLAIN, 7, &[1, 1])),
            (
                "len beyond the page capacity",
                sealed(CODEC_RLE, 0, &[1 << 40, 1, 0, 5]),
            ),
            ("for: width 0", sealed(CODEC_FOR, 0, &[2, 10, 0])),
            ("for: width 65", sealed(CODEC_FOR, 65, &[1, 10, 0, 0])),
            ("for: a word short", sealed(CODEC_FOR, 33, &[2, 10, 0])),
            ("for: a word over", sealed(CODEC_FOR, 8, &[2, 10, 0, 0])),
            ("for: no frame", sealed(CODEC_FOR, 8, &[0])),
            (
                "dict: code 3 of 3 entries",
                sealed(CODEC_DICT, 2, &[2, 3, 7, 8, 9, 0b1101]),
            ),
            (
                "dict: more entries than words",
                sealed(CODEC_DICT, 2, &[2, 900, 7]),
            ),
            (
                "dict: entry count overflows",
                sealed(CODEC_DICT, 2, &[2, u64::MAX, 7]),
            ),
            (
                "rle: first run not at 0",
                sealed(CODEC_RLE, 0, &[4, 1, 1, 5]),
            ),
            (
                "rle: starts not rising",
                sealed(CODEC_RLE, 0, &[4, 2, starts(0, 0), 5, 6]),
            ),
            (
                "rle: start at len",
                sealed(CODEC_RLE, 0, &[4, 2, starts(0, 4), 5, 6]),
            ),
            (
                "rle: runs in an empty column",
                sealed(CODEC_RLE, 0, &[0, 1, 0, 5]),
            ),
            ("rle: no runs in a column", sealed(CODEC_RLE, 0, &[4, 0])),
            (
                "rle: a value short",
                sealed(CODEC_RLE, 0, &[4, 2, starts(0, 1), 5]),
            ),
            (
                "rle: padding not zero",
                sealed(CODEC_RLE, 0, &[4, 1, starts(0, 9), 5]),
            ),
            (
                "rle: run count overflows",
                sealed(CODEC_RLE, 0, &[4, u64::MAX, 0, 5]),
            ),
            ("rle: trailing word", sealed(CODEC_RLE, 0, &[4, 1, 0, 5, 5])),
            ("unknown codec", sealed(9, 0, &[0])),
        ];
        for (name, image) in cases {
            match decode_image(&image) {
                Err(StorageError::Corrupt(_)) => {}
                other => panic!("{name}: expected Corrupt, got {other:?}"),
            }
        }
        // The builder itself makes valid images: the refusals above are
        // about structure, not about `sealed`.
        let ok = decode_image(&sealed(CODEC_RLE, 0, &[4, 2, starts(0, 1), 5, 6])).unwrap();
        assert_eq!(ok.decode(), [5, 6, 6, 6]);
        let ok = decode_image(&sealed(CODEC_DICT, 2, &[2, 3, 7, 8, 9, 0b1001])).unwrap();
        assert_eq!(ok.decode(), [8, 9]);
    }

    #[test]
    fn foreign_headers_are_named() {
        assert!(decode_image(b"nope").is_err());
        let old = decode_image(b"LSPG\x00\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x05").unwrap_err();
        assert!(old.to_string().contains("old LSPG format"), "{old}");
        let mut future = encode_image(&encode(&[1, 2, 3], CodecChoice::None)).to_vec();
        future[4] = VERSION + 1;
        let err = decode_image(&future).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
