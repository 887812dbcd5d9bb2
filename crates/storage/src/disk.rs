//! On-disk page images.
//!
//! The paper stresses that base and tail pages are "persisted identically"
//! (§2.1): at this layer there is no difference between page kinds, only a
//! column of `u64` cells (possibly compressed). This module defines the
//! small self-describing binary format for page images that the page store
//! ([`crate::store`]) frames into its file.
//!
//! Format of one image:
//! ```text
//! magic "LSPG" | u8 codec | u64 len | len × u64 values (big-endian)
//! ```
//!
//! The payload is always the *decoded* cell values; the codec byte records
//! which encoding to rebuild on load. Codecs are deterministic functions of
//! the values, so this keeps the wire format independent of in-memory
//! layout details (bit widths, run indexes, dictionary order) while still
//! round-tripping the codec choice exactly — [`decode_image`] re-encodes
//! with the tagged codec and [`crate::page::BasePage::from_compressed`]
//! wraps the result without another encode pass.
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

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::compress::{Compressed, DictColumn, ForColumn, RleColumn};
use crate::error::{StorageError, StorageResult};

const MAGIC: &[u8; 4] = b"LSPG";

const CODEC_PLAIN: u8 = 0;
const CODEC_DICT: u8 = 1;
const CODEC_RLE: u8 = 2;
const CODEC_FOR: u8 = 3;

/// Serialize a compressed column into a self-describing byte image.
pub fn encode_image(col: &Compressed) -> Bytes {
    let mut buf = BytesMut::with_capacity(col.encoded_bytes() + 64);
    buf.put_slice(MAGIC);
    match col {
        Compressed::Plain(v) => {
            buf.put_u8(CODEC_PLAIN);
            buf.put_u64(v.len() as u64);
            for &x in v.iter() {
                buf.put_u64(x);
            }
        }
        Compressed::Dict(_) | Compressed::Rle(_) | Compressed::For(_) => {
            // Re-encode through decode: codecs are deterministic, and this
            // keeps the wire format independent of in-memory layout details.
            let values = col.decode();
            match col {
                Compressed::Dict(_) => {
                    buf.put_u8(CODEC_DICT);
                    buf.put_u64(values.len() as u64);
                    put_values(&mut buf, &values);
                }
                Compressed::Rle(_) => {
                    buf.put_u8(CODEC_RLE);
                    buf.put_u64(values.len() as u64);
                    put_values(&mut buf, &values);
                }
                Compressed::For(_) => {
                    buf.put_u8(CODEC_FOR);
                    buf.put_u64(values.len() as u64);
                    put_values(&mut buf, &values);
                }
                Compressed::Plain(_) => unreachable!(),
            }
        }
    }
    buf.freeze()
}

fn put_values(buf: &mut BytesMut, values: &[u64]) {
    for &x in values {
        buf.put_u64(x);
    }
}

/// Deserialize a page image produced by [`encode_image`].
pub fn decode_image(mut data: &[u8]) -> StorageResult<Compressed> {
    if data.len() < 13 || &data[..4] != MAGIC {
        return Err(StorageError::Corrupt("bad magic".into()));
    }
    data.advance(4);
    let codec = data.get_u8();
    let len = data.get_u64() as usize;
    if data.remaining() < len * 8 {
        return Err(StorageError::Corrupt(format!(
            "truncated payload: want {} cells, have {} bytes",
            len,
            data.remaining()
        )));
    }
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        values.push(data.get_u64());
    }
    Ok(match codec {
        CODEC_PLAIN => Compressed::Plain(values.into_boxed_slice()),
        CODEC_DICT => Compressed::Dict(DictColumn::encode(&values)),
        CODEC_RLE => Compressed::Rle(RleColumn::encode(&values)),
        CODEC_FOR => Compressed::For(ForColumn::encode(&values)),
        other => return Err(StorageError::Corrupt(format!("unknown codec {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CodecChoice;
    use crate::page::BasePage;

    #[test]
    fn image_roundtrip_all_codecs() {
        let values: Vec<u64> = (0..1000).map(|i| i % 5 + 100).collect();
        for choice in [
            CodecChoice::None,
            CodecChoice::Dictionary,
            CodecChoice::Rle,
            CodecChoice::ForPack,
        ] {
            let col = crate::compress::encode(&values, choice);
            let image = encode_image(&col);
            let back = decode_image(&image).unwrap();
            assert_eq!(back.decode(), values, "{choice:?}");
            // The codec choice survives the round trip, and wrapping the
            // loaded column as a page must not re-encode it (the page keeps
            // whatever the image said, not what CodecChoice::Auto would pick).
            assert_eq!(back.codec_name(), col.codec_name(), "{choice:?}");
            let page = BasePage::from_compressed(back);
            assert_eq!(page.codec_name(), col.codec_name(), "{choice:?}");
        }
    }

    #[test]
    fn corrupt_images_rejected() {
        assert!(decode_image(b"nope").is_err());
        assert!(decode_image(b"LSPG\x09\0\0\0\0\0\0\0\x01").is_err());
        // Truncated payload.
        let col = Compressed::Plain(vec![1u64, 2, 3].into_boxed_slice());
        let image = encode_image(&col);
        assert!(decode_image(&image[..image.len() - 4]).is_err());
    }
}
