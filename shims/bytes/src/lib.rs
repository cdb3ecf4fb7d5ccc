//! Offline shim for `bytes 1`: cheap-to-clone immutable [`Bytes`] (shared
//! `Arc` storage + range), growable [`BytesMut`], and the little-endian
//! [`Buf`]/[`BufMut`] cursor traits — exactly the subset the wire protocol
//! and transports use.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Read cursor over a byte container.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Drop `n` bytes from the front.
    fn advance(&mut self, n: usize);

    /// View of the unread bytes.
    fn chunk(&self) -> &[u8];

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        raw.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_le_bytes(raw)
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(raw)
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(raw)
    }
}

/// Append cursor over a growable byte container.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Bytes
// ---------------------------------------------------------------------------

/// Immutable, cheaply clonable byte buffer (shared storage + view range).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wrap a static slice (copied; the shim keeps one storage path).
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Split off the first `n` bytes into their own `Bytes` (shared storage,
    /// no copy); `self` keeps the rest.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to out of range");
        let head = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of range");
        self.start += n;
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

// ---------------------------------------------------------------------------
// BytesMut
// ---------------------------------------------------------------------------

/// Growable byte buffer with front consumption.
#[derive(Clone, Default)]
pub struct BytesMut {
    /// Storage: `inner[head..tail]` is the content. `inner[tail..]` is spare
    /// room, kept initialised so [`BytesMut::read_from`] can lend it to a
    /// reader as `&mut [u8]`; only a buffer that was read into has any.
    inner: Vec<u8>,
    /// Read offset; bytes before it are consumed. Compacted opportunistically.
    head: usize,
    /// Write offset: end of the content.
    tail: usize,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            inner: Vec::with_capacity(cap),
            head: 0,
            tail: 0,
        }
    }

    /// Length of the unconsumed bytes.
    pub fn len(&self) -> usize {
        self.tail - self.head
    }

    /// True when no unconsumed bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Make room for `additional` more bytes without reallocating on the
    /// way there.
    pub fn reserve(&mut self, additional: usize) {
        let spare = self.inner.len() - self.tail;
        self.inner.reserve(additional.saturating_sub(spare));
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.compact_if_large();
        let end = self.tail + src.len();
        if end <= self.inner.len() {
            self.inner[self.tail..end].copy_from_slice(src);
        } else {
            self.inner.truncate(self.tail);
            self.inner.extend_from_slice(src);
        }
        self.tail = end;
    }

    /// Append what one `read` call on `src` delivers, offering it at least
    /// `min` bytes of room; returns that call's result. The bytes land in
    /// place, with no intermediate buffer. (Shim extension: `bytes 1` spells
    /// this `chunk_mut` + `unsafe advance_mut`.)
    pub fn read_from(
        &mut self,
        src: &mut impl std::io::Read,
        min: usize,
    ) -> std::io::Result<usize> {
        self.compact_if_large();
        if self.inner.len() - self.tail < min {
            self.inner.resize(self.tail + min, 0);
        }
        let room = &mut self.inner[self.tail..];
        let n = src.read(room)?;
        assert!(n <= room.len(), "reader reported more than it was lent");
        self.tail += n;
        Ok(n)
    }

    /// Split off the first `n` unconsumed bytes into their own `BytesMut`.
    pub fn split_to(&mut self, n: usize) -> BytesMut {
        assert!(n <= self.len(), "split_to out of range");
        let head = self.inner[self.head..self.head + n].to_vec();
        self.head += n;
        BytesMut {
            inner: head,
            head: 0,
            tail: n,
        }
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(mut self) -> Bytes {
        self.inner.truncate(self.tail);
        if self.head > 0 {
            self.inner.drain(..self.head);
        }
        Bytes::from(self.inner)
    }

    fn compact_if_large(&mut self) {
        if self.head == self.tail {
            // Everything consumed: start over at the front, for free.
            self.head = 0;
            self.tail = 0;
        } else if self.head > 4096 && self.head > self.tail / 2 {
            // Keep the dead prefix bounded so long-lived decode buffers (the
            // TCP read loop) do not grow without bound.
            self.inner.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for BytesMut {}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of range");
        self.head += n;
        self.compact_if_large();
    }

    fn chunk(&self) -> &[u8] {
        &self.inner[self.head..self.tail]
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.inner[self.head..self.tail]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner[self.head..self.tail]
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut {
            inner: s.to_vec(),
            head: 0,
            tail: s.len(),
        }
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        Bytes::from(self[..].to_vec()).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u16_le(0xBEEF);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(u64::MAX - 1);
        b.put_slice(b"xyz");
        assert_eq!(b.len(), 1 + 2 + 4 + 8 + 3);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16_le(), 0xBEEF);
        assert_eq!(b.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(b.get_u64_le(), u64::MAX - 1);
        assert_eq!(&b[..], b"xyz");
    }

    #[test]
    fn split_and_freeze() {
        let mut b = BytesMut::from(&b"hello world"[..]);
        let head = b.split_to(5);
        assert_eq!(&head[..], b"hello");
        b.advance(1);
        let frozen = b.freeze();
        assert_eq!(&frozen[..], b"world");
        let mut tail = frozen.clone();
        let w = tail.split_to(1);
        assert_eq!(&w[..], b"w");
        assert_eq!(&tail[..], b"orld");
        assert_eq!(frozen.len(), 5);
    }

    #[test]
    fn bytes_equality_and_indexing() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::copy_from_slice(b"abc");
        assert_eq!(a, b);
        assert_eq!(a[0], b'a');
        assert_eq!(a.to_vec(), b"abc".to_vec());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn index_mut_patch_in_place() {
        let mut out = BytesMut::new();
        out.put_u32_le(0);
        out.put_slice(b"body");
        let len = (out.len() - 4) as u32;
        out[0..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(out.get_u32_le(), 4);
    }

    #[test]
    fn read_from_appends_in_place_and_reuses_its_room() {
        let mut b = BytesMut::with_capacity(16);
        b.put_slice(b"ab");
        let mut src: &[u8] = b"cdefgh";
        assert_eq!(b.read_from(&mut src, 4).unwrap(), 4);
        assert_eq!(&b[..], b"abcdef");
        // Appends land after the content, not after the lent room.
        b.put_slice(b"!");
        assert_eq!(b.read_from(&mut src, 4).unwrap(), 2);
        assert_eq!(&b[..], b"abcdef!gh");
        assert_eq!(b.read_from(&mut src, 4).unwrap(), 0, "source dry");
        // Consumed to the end, the buffer starts over at the front.
        b.advance(9);
        assert!(b.is_empty());
        b.put_slice(b"xyz");
        assert_eq!(&b.clone().freeze()[..], b"xyz");
        assert_eq!(b, BytesMut::from(&b"xyz"[..]));
        b.reserve(100);
        assert_eq!(&b.split_to(2)[..], b"xy");
        assert_eq!(&b[..], b"z");
    }

    #[test]
    fn compaction_keeps_contents() {
        let mut b = BytesMut::new();
        for i in 0..1000u32 {
            b.put_u32_le(i);
        }
        for i in 0..900u32 {
            assert_eq!(b.get_u32_le(), i);
        }
        b.extend_from_slice(&[1]);
        for i in 900..1000u32 {
            assert_eq!(b.get_u32_le(), i);
        }
        assert_eq!(b.get_u8(), 1);
    }
}
