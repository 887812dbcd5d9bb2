//! On-disk page images.
//!
//! The paper stresses that base and tail pages are "persisted identically"
//! (§2.1): at this layer there is no difference between page kinds, only a
//! column of `u64` cells (possibly compressed). This module defines the
//! small self-describing binary format for page images that the page store
//! ([`crate::store`]) frames into its file.
//!
//! An image holds the codec's own arrays — the file is the resident
//! encoding, not its decoded values — as little-endian `u64` *data words*:
//! ```text
//! word 0   magic "LSPI" | u8 version | u8 codec | u8 bit width | u8 zero
//! word 1   len (logical values)
//! body     plain       len cells
//!          for         frame | ⌈len × width / 64⌉ packed words
//!          dictionary  entries | the dictionary | ⌈len × width / 64⌉ packed codes
//!          rle         runs | run starts (two u32 a word, the last zero-padded) | run values
//! ```
//! The data words are cut into 512-byte **blocks** of 63 data words and one
//! checksum word (the last block holds what is left, then its checksum).
//! Block `b`'s checksum covers its data words and is seeded with `b`, the
//! image's data word count and the page id, so a block only checks out in
//! its own place, in an image of its own length, of its own page.
//!
//! [`encode_image`] copies the arrays out and [`decode_image`] copies them
//! back in through the codecs' `from_parts` constructors: nothing is decoded,
//! sorted, searched or re-packed on either side, so a fault costs what its
//! bytes cost. The price is that a codec's array layout *is* the file
//! format — changing one is a version bump here.
//!
//! A point read needs one cell, not the page: `Layout` says which blocks
//! hold a cell (`Layout::blocks_for`) and reads it from just those
//! (`Layout::cell`), checking each one first.
//!
//! Images come from a file, so [`decode_image`] trusts nothing: the
//! checksums catch damage, and the structural checks (here and in
//! `from_parts`) make sure that even an image with valid checksums can
//! only build a column whose every `get` stays inside its arrays.
//!
//! # Examples
//!
//! ```
//! use lstore_storage::compress::{encode, CodecChoice};
//! use lstore_storage::disk::{decode_image, encode_image};
//!
//! let col = encode(&[5, 5, 5, 9], CodecChoice::Rle);
//! let image = encode_image(7, &col);
//! let back = decode_image(7, &image).unwrap();
//! assert_eq!(back.codec_name(), "rle");
//! assert_eq!(back.decode(), vec![5, 5, 5, 9]);
//! // The image of page 7 is not an image of page 8.
//! assert!(decode_image(8, &image).is_err());
//! ```

use std::ops::Range;

use bytes::Bytes;

use crate::compress::{BitPacked, Compressed, DictColumn, ForColumn, RleColumn};
use crate::error::{StorageError, StorageResult};

const MAGIC: &[u8; 4] = b"LSPI";
/// Magic of the first format (decoded big-endian values), recognized
/// only to be refused by name.
const OLD_MAGIC: &[u8; 4] = b"LSPG";
const VERSION: u8 = 2;

const CODEC_PLAIN: u8 = 0;
const CODEC_DICT: u8 = 1;
const CODEC_RLE: u8 = 2;
const CODEC_FOR: u8 = 3;

/// Bytes per image block: the unit a point read reads and checks.
pub(crate) const BLOCK_BYTES: usize = 512;
/// Data words per block; the block's last word is its checksum.
const BLOCK_DATA: usize = BLOCK_BYTES / 8 - 1;

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

/// Bytes of an image of `words` data words: one checksum word per block.
fn image_bytes(words: usize) -> usize {
    (words + words.div_ceil(BLOCK_DATA)) * 8
}

/// Word-wise checksum of one block's data words: four independent
/// multiply–rotate lanes, folded at the end with the block's length and
/// `seed` (its index, the image's data word count, the page id). Every
/// step is a bijection of the state for a fixed word and of the word for
/// a fixed state, so changing any one word — or any one seed value —
/// always changes the result. Not a byte-wise CRC: over a page that would
/// cost more than the rest of the fault.
fn block_sum(seed: [u64; 3], data: &[u8]) -> u64 {
    fn step(h: u64, word: u64) -> u64 {
        (h ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    }
    let mut lanes = [1u64, 2, 3, 4];
    let mut quads = data.chunks_exact(32);
    for quad in &mut quads {
        for (lane, word) in lanes.iter_mut().zip(quad.chunks_exact(8)) {
            *lane = step(*lane, le_word(word));
        }
    }
    let mut h = seed.iter().fold(data.len() as u64, |h, &s| step(h, s));
    for word in quads.remainder().chunks_exact(8) {
        h = step(h, le_word(word));
    }
    lanes.iter().fold(h, |h, &lane| step(h, lane))
}

/// Serialize a compressed column into a self-describing byte image of
/// page `id` (see the module docs; the id seeds every block checksum).
pub fn encode_image(id: u64, col: &Compressed) -> Bytes {
    let (codec, width) = match col {
        Compressed::Plain(_) => (CODEC_PLAIN, 0),
        Compressed::Dict(c) => (CODEC_DICT, c.codes().width()),
        Compressed::Rle(_) => (CODEC_RLE, 0),
        Compressed::For(c) => (CODEC_FOR, c.deltas().width()),
    };
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(MAGIC);
    header[4..7].copy_from_slice(&[VERSION, codec, width]);
    let mut data = Vec::with_capacity(col.encoded_bytes() / 8 + 4);
    data.extend([u64::from_le_bytes(header), col.len() as u64]);
    match col {
        Compressed::Plain(cells) => data.extend_from_slice(cells),
        Compressed::For(c) => {
            data.push(c.frame());
            data.extend_from_slice(c.deltas().words());
        }
        Compressed::Dict(c) => {
            data.push(c.dict().len() as u64);
            data.extend_from_slice(c.dict());
            data.extend_from_slice(c.codes().words());
        }
        Compressed::Rle(c) => {
            data.push(c.starts().len() as u64);
            data.extend(
                c.starts()
                    .chunks(2)
                    .map(|pair| pair[0] as u64 | (pair.get(1).copied().unwrap_or(0) as u64) << 32),
            );
            data.extend_from_slice(c.values());
        }
    }
    let mut image = Vec::with_capacity(image_bytes(data.len()));
    for (b, block) in data.chunks(BLOCK_DATA).enumerate() {
        let at = image.len();
        put_words(&mut image, block);
        let sum = block_sum([b as u64, data.len() as u64, id], &image[at..]);
        put_words(&mut image, &[sum]);
    }
    Bytes::from(image)
}

/// Check that `prefix` — the first bytes of an image, at least five when
/// the image has them — starts an image this build reads: its magic and
/// version. The earlier formats are refused by name.
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
    match prefix[4] {
        VERSION => Ok(()),
        1 => corrupt(
            "page image version 1 (one checksum per image); this build reads \
             only version 2, checksummed per 512-byte block",
        ),
        other => corrupt(format!("page image version {other}")),
    }
}

/// Checked blocks of one image, from block `first` on: a whole image, or
/// what a point read read of it.
struct Blocks<'a> {
    bytes: &'a [u8],
    first: usize,
}

impl<'a> Blocks<'a> {
    /// Check `bytes` as blocks `first..` of page `id`'s image of `words`
    /// data words: every block whole and its checksum right.
    fn check(id: u64, words: usize, first: usize, bytes: &'a [u8]) -> StorageResult<Self> {
        for (i, block) in bytes.chunks(BLOCK_BYTES).enumerate() {
            let b = first + i;
            let held = words.saturating_sub(b * BLOCK_DATA).min(BLOCK_DATA);
            if held == 0 || block.len() != (held + 1) * 8 {
                return corrupt(format!(
                    "page image block {b} of {} bytes in an image of {words} words",
                    block.len()
                ));
            }
            let (data, sum) = block.split_at(block.len() - 8);
            if block_sum([b as u64, words as u64, id], data) != le_word(sum) {
                return corrupt(format!("page image block {b} checksum mismatch"));
            }
        }
        Ok(Blocks { bytes, first })
    }

    /// Byte offset, in `bytes`, of data word `w` (which must be held).
    fn offset(&self, w: usize) -> usize {
        (w / BLOCK_DATA - self.first) * BLOCK_BYTES + w % BLOCK_DATA * 8
    }

    fn word(&self, w: usize) -> u64 {
        let at = self.offset(w);
        le_word(&self.bytes[at..at + 8])
    }

    /// Data words `range`, copied a block's run at a time.
    fn copy(&self, range: Range<usize>) -> Box<[u64]> {
        let mut out = Vec::with_capacity(range.len());
        let mut w = range.start;
        while w < range.end {
            let n = (BLOCK_DATA - w % BLOCK_DATA).min(range.end - w);
            let at = self.offset(w);
            let (words, _) = self.bytes[at..at + n * 8].as_chunks::<8>();
            out.extend(words.iter().map(|word| u64::from_le_bytes(*word)));
            w += n;
        }
        out.into_boxed_slice()
    }

    /// Value `slot` of `width` bits packed from data word `at` on: the
    /// arithmetic of [`BitPacked::get`].
    fn packed(&self, at: usize, slot: usize, width: u8) -> u64 {
        let width = width as usize;
        let bit = slot * width;
        let (word, off) = (at + bit / 64, bit % 64);
        let lo = self.word(word) >> off;
        let value = if off + width > 64 {
            lo | self.word(word + 1) << (64 - off)
        } else {
            lo
        };
        value & (u64::MAX >> (64 - width))
    }
}

/// The data words of an image not read yet.
struct Reader<'a> {
    image: Blocks<'a>,
    at: usize,
    end: usize,
}

impl Reader<'_> {
    /// The next `n` words. A count the image cannot hold is `Corrupt`
    /// before anything is allocated for it.
    fn words(&mut self, n: u64) -> StorageResult<Box<[u64]>> {
        let left = self.end - self.at;
        if n > left as u64 {
            return corrupt(format!("page image array of {n} words with {left} left"));
        }
        let range = self.at..self.at + n as usize;
        self.at = range.end;
        Ok(self.image.copy(range))
    }

    fn word(&mut self) -> StorageResult<u64> {
        if self.at == self.end {
            return corrupt("page image ends inside its header");
        }
        self.at += 1;
        Ok(self.image.word(self.at - 1))
    }

    /// Every word left: the last array of an image is as long as the
    /// image says, and the codec's `from_parts` checks that length.
    fn rest(&mut self) -> StorageResult<Box<[u64]>> {
        self.words((self.end - self.at) as u64)
    }
}

/// Whether `start` — the first block of a stored record's `len`-byte
/// payload, or all of it when shorter — begins page `id`'s image: a header
/// this build reads, a length an image can have, and the first block's
/// checksum. The page store asks it of every record before indexing it,
/// so that a record a crash tore, or whose header landed half and names
/// another page, ends the scan. A `first` record whose header is not
/// zeros (torn) but not one this build reads either is an `Err` naming
/// it: the file is not this build's.
pub(crate) fn starts_image(id: u64, len: usize, start: &[u8], first: bool) -> StorageResult<bool> {
    if let Err(e) = check_header(start) {
        let torn = start.iter().take(4).all(|&b| b == 0);
        return if first && !torn { Err(e) } else { Ok(false) };
    }
    let total = len / 8;
    let words = total - total.div_ceil(BLOCK_DATA + 1);
    Ok(words >= 2 && image_bytes(words) == len && Blocks::check(id, words, 0, start).is_ok())
}

/// Deserialize page `id`'s image produced by [`encode_image`]. Anything
/// else — damaged, truncated, foreign, another page's, or well-summed but
/// structurally impossible — is [`StorageError::Corrupt`].
pub fn decode_image(id: u64, data: &[u8]) -> StorageResult<Compressed> {
    check_header(data)?;
    let total = data.len() / 8;
    let words = total - total.div_ceil(BLOCK_DATA + 1);
    if words < 2 || image_bytes(words) != data.len() {
        return corrupt(format!("page image of {} bytes", data.len()));
    }
    let image = Blocks::check(id, words, 0, data)?;
    let (codec, width, zero) = (data[5], data[6], data[7]);
    let mut body = Reader {
        image,
        at: 1,
        end: words,
    };
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
            let pairs = body.words(runs.div_ceil(2))?;
            let mut starts = pairs.iter().flat_map(|&w| [w as u32, (w >> 32) as u32]);
            let index: Box<[u32]> = starts.by_ref().take(runs as usize).collect();
            if starts.any(|pad| pad != 0) {
                return corrupt("run index padding");
            }
            Compressed::Rle(RleColumn::from_parts(index, body.words(runs)?, len)?)
        }
        other => return corrupt(format!("unknown codec {other}")),
    };
    if col.len() != len || body.at != body.end {
        return corrupt("page image arrays disagree with its header");
    }
    Ok(col)
}

/// Where a page's cells sit in its image: what a point read needs to read
/// one cell from the blocks that hold it instead of faulting the whole
/// image in. Taken from the column itself ([`Layout::of`]) when the page is
/// sealed or faulted in, so it costs no I/O and agrees with
/// [`encode_image`] by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    Plain {
        len: usize,
    },
    For {
        len: usize,
        width: u8,
        frame: u64,
    },
    Dict {
        len: usize,
        width: u8,
        entries: usize,
    },
    Rle {
        len: usize,
        runs: usize,
        /// The first run's value: every cell's, when it is the only run.
        first: u64,
    },
}

impl Layout {
    pub(crate) fn of(col: &Compressed) -> Layout {
        match col {
            Compressed::Plain(cells) => Layout::Plain { len: cells.len() },
            Compressed::For(c) => Layout::For {
                len: c.len(),
                width: c.width(),
                frame: c.frame(),
            },
            Compressed::Dict(c) => Layout::Dict {
                len: c.len(),
                width: c.codes().width(),
                entries: c.cardinality(),
            },
            Compressed::Rle(c) => Layout::Rle {
                len: c.len(),
                runs: c.run_count(),
                first: c.values().first().copied().unwrap_or(0),
            },
        }
    }

    fn len(&self) -> usize {
        match *self {
            Layout::Plain { len }
            | Layout::For { len, .. }
            | Layout::Dict { len, .. }
            | Layout::Rle { len, .. } => len,
        }
    }

    /// Data words of the image.
    fn words(&self) -> usize {
        let packed = |len: usize, width: u8| (len * width as usize).div_ceil(64);
        match *self {
            Layout::Plain { len } => 2 + len,
            Layout::For { len, width, .. } => 3 + packed(len, width),
            Layout::Dict {
                len,
                width,
                entries,
            } => 3 + entries + packed(len, width),
            Layout::Rle { runs, .. } => 3 + runs.div_ceil(2) + runs,
        }
    }

    /// Bytes of the image.
    #[cfg(test)]
    fn image_bytes(&self) -> usize {
        image_bytes(self.words())
    }

    /// # Panics
    ///
    /// When `slot` is out of bounds, as [`Compressed::get`] does.
    fn check_slot(&self, slot: usize) {
        let len = self.len();
        assert!(slot < len, "page cell {slot} out of bounds {len}");
    }

    /// The value of cell `slot` when the layout alone holds it: every cell
    /// of a one-run RLE page — the metadata columns of a range nobody
    /// updated — is that run's value, so a point read needs no I/O.
    ///
    /// # Panics
    ///
    /// When `slot` is out of bounds, as [`Compressed::get`] does.
    pub(crate) fn constant(&self, slot: usize) -> Option<u64> {
        self.check_slot(slot);
        match *self {
            Layout::Rle { runs: 1, first, .. } => Some(first),
            _ => None,
        }
    }

    /// The bytes of the image a point read of `slot` reads: the block
    /// holding a plain cell or a packed FOR value, both blocks when the
    /// value straddles their boundary, and the whole image of a dictionary
    /// or RLE page (a code and its entry, or a run search, may lie anywhere).
    ///
    /// # Panics
    ///
    /// When `slot` is out of bounds, as [`Compressed::get`] does.
    pub(crate) fn blocks_for(&self, slot: usize) -> Range<usize> {
        self.check_slot(slot);
        let words = match *self {
            Layout::Plain { .. } => 2 + slot..3 + slot,
            Layout::For { width, .. } => {
                let bit = slot * width as usize;
                3 + bit / 64..4 + (bit + width as usize - 1) / 64
            }
            Layout::Dict { .. } | Layout::Rle { .. } => 0..self.words(),
        };
        let first = words.start / BLOCK_DATA * BLOCK_BYTES;
        let last = (words.end - 1) / BLOCK_DATA * BLOCK_BYTES;
        first..(last + BLOCK_BYTES).min(image_bytes(self.words()))
    }

    /// The value of `slot`, read from `bytes` — the image bytes
    /// [`Layout::blocks_for`] names — of page `id`'s image. Every block is
    /// checked before a word of it is used; a damaged or misplaced block is
    /// [`StorageError::Corrupt`], and no value of `bytes` can make the read
    /// leave them.
    pub(crate) fn cell(&self, id: u64, slot: usize, bytes: &[u8]) -> StorageResult<u64> {
        let first = self.blocks_for(slot).start / BLOCK_BYTES;
        let image = Blocks::check(id, self.words(), first, bytes)?;
        Ok(match *self {
            Layout::Plain { .. } => image.word(2 + slot),
            Layout::For { width, frame, .. } => frame.wrapping_add(image.packed(3, slot, width)),
            Layout::Dict { width, entries, .. } => {
                let code = image.packed(3 + entries, slot, width);
                if code >= entries as u64 {
                    return corrupt(format!("dictionary code beyond its {entries} entries"));
                }
                image.word(3 + code as usize)
            }
            Layout::Rle { runs, .. } => {
                // Runs starting at or before `slot`: a binary search over
                // the run starts, two to a word.
                let start = |run: usize| (image.word(3 + run / 2) >> (run % 2 * 32)) as u32;
                let (mut lo, mut hi) = (0, runs);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if start(mid) as usize <= slot {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                if lo == 0 {
                    return corrupt("run index without a run at 0");
                }
                image.word(3 + runs.div_ceil(2) + lo - 1)
            }
        })
    }
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
                let image = encode_image(3, &col);
                let back =
                    decode_image(3, &image).unwrap_or_else(|e| panic!("{name} {choice:?}: {e}"));
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
                // The file holds the resident encoding plus a fixed frame
                // and one checksum word per 63 words.
                let words = col.encoded_bytes() / 8 + 4;
                assert!(
                    image.len() <= (words + words.div_ceil(63)) * 8,
                    "{name} {choice:?}"
                );
                // The point read's idea of the image is the image.
                assert_eq!(
                    Layout::of(&col).image_bytes(),
                    image.len(),
                    "{name} {choice:?}"
                );
            }
        }
    }

    /// Where a point read would look for every cell of `col`'s image, as
    /// the page store reads it: the bytes `blocks_for` names, and nothing
    /// else, handed to `cell`.
    fn block_read(id: u64, image: &[u8], layout: &Layout, slot: usize) -> StorageResult<u64> {
        layout.cell(id, slot, &image[layout.blocks_for(slot)])
    }

    /// Lengths of a `width`-bit packed array, after a FOR header of three
    /// words, whose last value straddles two words, and whose last value
    /// straddles the first block boundary (when some value does).
    fn straddling_lengths(width: usize) -> Vec<usize> {
        let straddles = |i: usize| i * width % 64 + width > 64;
        let mut lengths: Vec<usize> = (0..4096).filter(|&i| straddles(i)).take(1).collect();
        // The boundary between data words 62 and 63 is packed words 59/60.
        let across = (0..8192).find(|&i| i * width / 64 == BLOCK_DATA - 4 && straddles(i));
        lengths.extend(across);
        lengths.iter().map(|i| i + 1).collect()
    }

    #[test]
    fn a_block_read_equals_get_for_every_codec_width_and_cell() {
        let mix = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let mut cases: Vec<(String, Compressed)> = Vec::new();
        for width in 1..=64usize {
            let max = u64::MAX >> (64 - width);
            // A frame next to `u64::MAX`: the frame add must wrap like
            // `ForColumn::get`'s.
            let frame = u64::MAX - max;
            let mut lengths = vec![1, 4096];
            lengths.extend(straddling_lengths(width));
            for len in lengths {
                // Offsets 0 and `max` both appear, so the packed width is
                // exactly `width`.
                let values: Vec<u64> = (0..len as u64)
                    .map(|i| match i % 5 {
                        0 => frame,
                        1 => frame + max,
                        _ => frame + (mix(i) & max),
                    })
                    .collect();
                let col = encode(&values, CodecChoice::ForPack);
                if len > 1 {
                    assert_eq!(
                        Layout::of(&col),
                        Layout::For {
                            len,
                            width: width as u8,
                            frame
                        }
                    );
                }
                cases.push((format!("for width {width} len {len}"), col));
            }
        }
        // Plain cells are words; slots 60..=61 sit on either side of the
        // first block boundary.
        for len in [1u64, 61, 62, 4096] {
            let values: Vec<u64> = (0..len).map(mix).collect();
            cases.push((
                format!("plain len {len}"),
                encode(&values, CodecChoice::None),
            ));
        }
        // Dictionary codes are as wide as the dictionary needs: widths
        // 1..=12 are all a 4096-value page can reach.
        for width in 1..=12u32 {
            let entries = 1u64 << width;
            for len in [1usize, 577, 4096] {
                let values: Vec<u64> = (0..len as u64).map(|i| mix(i % entries) | 1).collect();
                let col = encode(&values, CodecChoice::Dictionary);
                cases.push((format!("dict width {width} len {len}"), col));
            }
        }
        for (runs, len) in [
            (1usize, 1usize),
            (1, 4096),
            (2, 4096),
            (3, 4096),
            (4096, 4096),
            (77, 4095),
        ] {
            let values: Vec<u64> = (0..len).map(|i| mix((i * runs / len) as u64)).collect();
            cases.push((
                format!("rle {runs} runs len {len}"),
                encode(&values, CodecChoice::Rle),
            ));
        }
        for (name, col) in cases {
            let image = encode_image(11, &col);
            let layout = Layout::of(&col);
            // A dictionary or RLE read checks the whole image: every slot
            // of a small one, a sample of a page-sized one.
            let whole = matches!(layout, Layout::Dict { .. } | Layout::Rle { .. });
            let slots =
                (0..col.len()).filter(|&s| !whole || s < 70 || s % 61 == 0 || s + 70 > col.len());
            for slot in slots {
                if let Some(value) = layout.constant(slot) {
                    assert_eq!(value, col.get(slot), "{name} slot {slot}");
                }
                let span = layout.blocks_for(slot);
                if matches!(layout, Layout::Plain { .. } | Layout::For { .. }) {
                    // One block, two only across a block boundary.
                    assert!(span.len() <= 2 * BLOCK_BYTES, "{name} slot {slot}");
                    assert_eq!(span.start % BLOCK_BYTES, 0, "{name} slot {slot}");
                }
                assert_eq!(
                    block_read(11, &image, &layout, slot).unwrap(),
                    col.get(slot),
                    "{name} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn a_flipped_byte_spoils_only_the_reads_of_its_block() {
        let values: Vec<u64> = (0..4096u64).map(|i| i * 7919).collect();
        for choice in [CodecChoice::None, CodecChoice::ForPack] {
            let col = encode(&values, choice);
            let layout = Layout::of(&col);
            let image = encode_image(5, &col).to_vec();
            let blocks = image.len().div_ceil(BLOCK_BYTES);
            for b in [0, 1, blocks / 2, blocks - 1] {
                for at in [0, 77, 511].map(|i| (b * BLOCK_BYTES + i).min(image.len() - 1)) {
                    let mut bad = image.clone();
                    bad[at] ^= 0x10;
                    for (slot, &value) in values.iter().enumerate() {
                        let span = layout.blocks_for(slot);
                        let got = block_read(5, &bad, &layout, slot);
                        if span.contains(&at) {
                            assert!(
                                matches!(got, Err(StorageError::Corrupt(_))),
                                "{choice:?}: byte {at} of block {b}, slot {slot}: {got:?}"
                            );
                        } else {
                            assert_eq!(got.unwrap(), value, "{choice:?}: byte {at}, slot {slot}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_block_out_of_place_is_corrupt() {
        let page = |seed: u64| -> Vec<u64> { (0..4096u64).map(|i| i * 31 + seed).collect() };
        for choice in [CodecChoice::None, CodecChoice::ForPack] {
            let a = encode(&page(1), choice);
            let b = encode(&page(2), choice);
            let layout = Layout::of(&a);
            assert_eq!(layout.words(), Layout::of(&b).words(), "same-sized pages");
            let image_a = encode_image(40, &a).to_vec();
            let image_b = encode_image(41, &b).to_vec();
            let block =
                |image: &[u8], n: usize| image[n * BLOCK_BYTES..(n + 1) * BLOCK_BYTES].to_vec();
            // Block 2 swapped with block 5 of the same image; block 2 of
            // page 41 (same length, same offset) in page 40's image.
            let mut swapped = image_a.clone();
            swapped[2 * BLOCK_BYTES..3 * BLOCK_BYTES].copy_from_slice(&block(&image_a, 5));
            swapped[5 * BLOCK_BYTES..6 * BLOCK_BYTES].copy_from_slice(&block(&image_a, 2));
            let mut foreign = image_a.clone();
            foreign[2 * BLOCK_BYTES..3 * BLOCK_BYTES].copy_from_slice(&block(&image_b, 2));
            for (what, bad, wrong) in [
                ("swapped", &swapped, &[2usize, 5][..]),
                ("foreign", &foreign, &[2][..]),
            ] {
                assert!(
                    decode_image(40, bad).is_err(),
                    "{choice:?} {what}: whole image"
                );
                let mut spoiled = 0;
                for slot in 0..4096 {
                    let span = layout.blocks_for(slot);
                    let got = block_read(40, bad, &layout, slot);
                    if wrong.iter().any(|&n| span.contains(&(n * BLOCK_BYTES))) {
                        spoiled += 1;
                        assert!(
                            matches!(got, Err(StorageError::Corrupt(_))),
                            "{choice:?} {what}: slot {slot}: {got:?}"
                        );
                    } else {
                        assert_eq!(got.unwrap(), a.get(slot), "{choice:?} {what}: slot {slot}");
                    }
                }
                assert!(spoiled > 0, "{choice:?} {what}");
            }
            // The whole image of page 41 read as page 40's.
            assert!(decode_image(40, &image_b).is_err());
            assert!(block_read(40, &image_b, &layout, 0).is_err());
        }
    }

    /// Flip bytes at `positions` (both ways) and cut at `cuts`; every
    /// result must be an error, never a panic or a column.
    fn damage_is_refused(
        name: &str,
        choice: CodecChoice,
        image: &[u8],
        positions: impl Iterator<Item = usize>,
        cuts: impl Iterator<Item = usize>,
    ) {
        let mut bad = image.to_vec();
        for at in positions {
            for flip in [0x01u8, 0xff] {
                bad[at] ^= flip;
                assert!(
                    decode_image(1, &bad).is_err(),
                    "{name} {choice:?}: byte {at} ^ {flip:#x} went unnoticed"
                );
                bad[at] ^= flip;
            }
        }
        for cut in cuts {
            assert!(
                decode_image(1, &image[..cut]).is_err(),
                "{name} {choice:?}: truncation at {cut} went unnoticed"
            );
        }
        let mut longer = image.to_vec();
        longer.extend_from_slice(&[0; 8]);
        assert!(
            decode_image(1, &longer).is_err(),
            "{name} {choice:?}: trailing word"
        );
        // A whole block more, checksummed as its own block would be, is a
        // longer image of other data words: still refused.
        let mut block_more = image.to_vec();
        block_more.extend_from_slice(&image[..BLOCK_BYTES.min(image.len())]);
        assert!(
            decode_image(1, &block_more).is_err(),
            "{name} {choice:?}: a block more"
        );
    }

    #[test]
    fn a_damaged_image_is_an_error_never_a_panic() {
        for (name, values) in edge_pages() {
            for choice in CODECS {
                let image = encode_image(1, &encode(&values, choice)).to_vec();
                // Every position of a small image; of a page-sized one the
                // header, the end, both sides of every block boundary and
                // every 13th byte between (odd, so every offset within a
                // word comes up). The exhaustive pass is the ignored test
                // below.
                let n = image.len();
                let sampled = move |at: &usize| {
                    let in_block = at % BLOCK_BYTES;
                    n <= 2048
                        || *at < 64
                        || at + 64 >= n
                        || !(16..496).contains(&in_block)
                        || at.is_multiple_of(13)
                };
                damage_is_refused(
                    name,
                    choice,
                    &image,
                    (0..n).filter(sampled),
                    (0..n).filter(sampled),
                );
            }
        }
    }

    /// Every byte of every edge page flipped both ways, every length cut.
    /// Tens of seconds in debug, under a second in release:
    /// `cargo test --release -p lstore-storage -- --ignored`.
    #[test]
    #[ignore]
    fn every_byte_and_cut_of_every_image_is_refused() {
        for (name, values) in edge_pages() {
            for choice in CODECS {
                let image = encode_image(1, &encode(&values, choice)).to_vec();
                damage_is_refused(name, choice, &image, 0..image.len(), 0..image.len());
            }
        }
    }

    /// A hand-built image with *valid* checksums: what the structural
    /// checks alone must refuse.
    fn sealed(codec: u8, width: u8, words: &[u64]) -> Vec<u8> {
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(MAGIC);
        header[4..7].copy_from_slice(&[VERSION, codec, width]);
        let mut data = vec![u64::from_le_bytes(header)];
        data.extend_from_slice(words);
        let mut image = Vec::new();
        for (b, block) in data.chunks(BLOCK_DATA).enumerate() {
            let at = image.len();
            put_words(&mut image, block);
            let sum = block_sum([b as u64, data.len() as u64, 0], &image[at..]);
            put_words(&mut image, &[sum]);
        }
        image
    }

    #[test]
    fn well_summed_but_impossible_images_are_refused() {
        // Two run starts in one word.
        let starts = |a: u64, b: u64| b << 32 | a;
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("no len", sealed(CODEC_PLAIN, 0, &[])),
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
            match decode_image(0, &image) {
                Err(StorageError::Corrupt(_)) => {}
                other => panic!("{name}: expected Corrupt, got {other:?}"),
            }
        }
        // The builder itself makes valid images: the refusals above are
        // about structure, not about `sealed`.
        let ok = decode_image(0, &sealed(CODEC_RLE, 0, &[4, 2, starts(0, 1), 5, 6])).unwrap();
        assert_eq!(ok.decode(), [5, 6, 6, 6]);
        let ok = decode_image(0, &sealed(CODEC_DICT, 2, &[2, 3, 7, 8, 9, 0b1001])).unwrap();
        assert_eq!(ok.decode(), [8, 9]);
        // A point read of a well-summed dictionary image whose code has no
        // entry is refused too, not an index out of range.
        let layout = Layout::Dict {
            len: 2,
            width: 2,
            entries: 3,
        };
        let image = sealed(CODEC_DICT, 2, &[2, 3, 7, 8, 9, 0b1101]);
        assert!(layout.cell(0, 0, &image).is_ok());
        assert!(matches!(
            layout.cell(0, 1, &image),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn foreign_headers_are_named() {
        assert!(decode_image(0, b"nope").is_err());
        let old = decode_image(0, b"LSPG\x00\0\0\0\0\0\0\0\x01\0\0\0\0\0\0\0\x05").unwrap_err();
        assert!(old.to_string().contains("old LSPG format"), "{old}");
        let mut v1 = encode_image(0, &encode(&[1, 2, 3], CodecChoice::None)).to_vec();
        v1[4] = 1;
        let err = decode_image(0, &v1).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
        let mut future = v1;
        future[4] = VERSION + 1;
        let err = decode_image(0, &future).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
