//! Offline shim for [`bytes`](https://crates.io/crates/bytes).
//!
//! The build environment has no crates.io access; this crate provides the
//! subset of the bytes API the workspace uses: `Bytes` / `BytesMut` buffers
//! plus the `Buf` / `BufMut` cursor traits. Multi-byte integers are
//! big-endian, matching the real crate. No zero-copy sharing — `Bytes` owns
//! a plain `Vec<u8>` — which is semantically equivalent for this workspace's
//! encode/decode paths.

use std::ops::{Deref, DerefMut};

/// An immutable byte buffer (owning; no reference-counted slices).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copy `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: data.to_vec(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copy out as a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::copy_from_slice(data)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// A growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Empty buffer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Clear contents, keeping capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Append a byte slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Read cursor over a byte buffer. Integers are big-endian.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Skip `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Consume one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Consume a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_be_bytes(b)
    }

    /// Consume a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(b)
    }

    /// Consume a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write cursor appending to a byte buffer. Integers are big-endian.
pub trait BufMut {
    /// Append a byte slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(0xAB);
        buf.put_u16(0x1234);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(0x0102_0304_0506_0708);
        buf.put_slice(b"xyz");
        let frozen = buf.freeze();
        let mut cur = &frozen[..];
        assert_eq!(cur.get_u8(), 0xAB);
        assert_eq!(cur.get_u16(), 0x1234);
        assert_eq!(cur.get_u32(), 0xDEAD_BEEF);
        assert_eq!(cur.get_u64(), 0x0102_0304_0506_0708);
        assert_eq!(cur.chunk(), b"xyz");
        cur.advance(3);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn big_endian_layout() {
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        assert_eq!(&buf[..], &[0, 0, 0, 1]);
    }
}
