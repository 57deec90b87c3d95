//! Offline stand-in for the `bytes` crate: `Vec<u8>`-backed buffers with
//! exactly the cursor surface the storage codec uses. `Bytes` is an owned
//! buffer with a read cursor (no refcounted zero-copy slicing, so
//! [`Bytes::split_to`] copies; decoders borrow through [`Buf::chunk`] and
//! [`Buf::advance`] instead); `BytesMut` is a growable write buffer.

use std::ops::{Deref, DerefMut};

/// A growable byte buffer for encoding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            pos: 0,
        }
    }

    /// Number of bytes written.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the buffer empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reserve room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Written bytes are patchable in place (a length prefix reserved first
/// and filled in once the body's size is known).
impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Write-side cursor operations.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a little-endian `u16`.
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u32`.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u64`.
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `i64`.
    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// An immutable byte buffer with a consuming read cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Copy a slice into an owned buffer.
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        Bytes {
            data: src.to_vec(),
            pos: 0,
        }
    }

    /// Unread bytes remaining.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Are all bytes consumed?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split off and return the first `n` unread bytes as a new `Bytes`.
    ///
    /// Panics if fewer than `n` bytes remain (callers bounds-check with
    /// [`Buf::remaining`] first, as the real crate requires too).
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to out of bounds");
        let out = Bytes {
            data: self.data[self.pos..self.pos + n].to_vec(),
            pos: 0,
        };
        self.pos += n;
        out
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes { data, pos: 0 }
    }
}

/// Read-side cursor operations.
pub trait Buf {
    /// Unread bytes remaining.
    fn remaining(&self) -> usize;
    /// The unread bytes, borrowed. This stand-in's buffers are
    /// contiguous, so the slice is always `remaining()` long.
    fn chunk(&self) -> &[u8];
    /// Consume `cnt` bytes without copying them anywhere.
    ///
    /// Panics if fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);

    /// Copy out and consume `dst.len()` bytes.
    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.remaining(), "copy_to_slice out of bounds");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Consume one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }
    /// Consume a little-endian `u16`.
    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }
    /// Consume a little-endian `u32`.
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }
    /// Consume a little-endian `u64`.
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
    /// Consume a little-endian `i64`.
    #[inline]
    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.pos += cnt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u16_le(300);
        w.put_u32_le(70_000);
        w.put_i64_le(-5);
        w.put_u64_le(u64::MAX);
        w.put_slice(b"abc");
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 300);
        assert_eq!(r.get_u32_le(), 70_000);
        assert_eq!(r.get_i64_le(), -5);
        assert_eq!(r.get_u64_le(), u64::MAX);
        let tail = r.split_to(3);
        assert_eq!(&tail[..], b"abc");
        assert!(r.is_empty());
    }

    #[test]
    fn remaining_tracks_cursor() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(b.remaining(), 4);
        b.get_u16_le();
        assert_eq!(b.remaining(), 2);
        assert_eq!(&b[..], &[3, 4]);
    }

    #[test]
    fn chunk_borrows_and_advance_consumes() {
        let mut b = Bytes::copy_from_slice(b"\x02hiX");
        let n = b.get_u8() as usize;
        assert_eq!(&b.chunk()[..n], b"hi");
        b.advance(n);
        assert_eq!(b.chunk(), b"X");
        assert_eq!(b.remaining(), 1);
    }

    #[test]
    #[should_panic(expected = "advance out of bounds")]
    fn advance_checks_bounds() {
        Bytes::copy_from_slice(&[1]).advance(2);
    }

    #[test]
    fn written_bytes_can_be_back_patched() {
        let mut w = BytesMut::new();
        w.put_u32_le(0);
        w.put_slice(b"body");
        let len = (w.len() - 4) as u32;
        w[..4].copy_from_slice(&len.to_le_bytes());
        let mut r = w.freeze();
        assert_eq!(r.get_u32_le(), 4);
        assert_eq!(r.chunk(), b"body");
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_to_checks_bounds() {
        Bytes::copy_from_slice(&[1]).split_to(2);
    }
}
