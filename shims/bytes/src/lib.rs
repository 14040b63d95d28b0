//! Minimal std-only stand-in for the `bytes` crate.
//!
//! The build environment has no registry access, so the subset of the
//! `bytes` API that histok uses — the cheaply-clonable [`Bytes`] buffer and
//! the [`Buf`]/[`BufMut`] cursor traits — is implemented here on top of
//! `Arc<[u8]>`. Semantics match the real crate for this subset: cloning a
//! `Bytes` is a refcount bump, `Buf` consumes from the front, and all
//! integer accessors are little-endian.

use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable byte buffer (an `Arc<[u8]>` plus a range;
/// no `Arc` at all when empty from the start).
#[derive(Clone)]
pub struct Bytes {
    data: Option<Arc<[u8]>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Bytes { data: None, start: 0, end: 0 }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        self.data.as_deref().map_or(&[], |data| &data[self.start..self.end])
    }

    /// Copies the view into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A sub-view of `self` (panics if out of range), sharing the backing
    /// allocation.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: Some(Arc::from(data)), start: 0, end: data.len() }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}
impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}
impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes { data: Some(Arc::from(v.into_boxed_slice())), start: 0, end: len }
    }
}
impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        let len = v.len();
        Bytes { data: Some(Arc::from(v)), start: 0, end: len }
    }
}
impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}
impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Self {
        Bytes::copy_from_slice(v)
    }
}
impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}
impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

/// Read cursor over a byte source, consuming from the front.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The current contiguous front chunk.
    fn chunk(&self) -> &[u8];
    /// Consumes `n` bytes.
    fn advance(&mut self, n: usize);

    /// Copies `dst.len()` bytes into `dst`, consuming them.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "copy_to_slice out of bounds");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Consumes `n` bytes into an owned [`Bytes`].
    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let mut v = vec![0u8; n];
        self.copy_to_slice(&mut v);
        Bytes::from(v)
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
    /// Reads a little-endian `i32`.
    fn get_i32_le(&mut self) -> i32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        i32::from_le_bytes(b)
    }
    /// Reads a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }
    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        f64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        *self = &self[n..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.start += n;
    }
    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "copy_to_bytes out of bounds");
        let out = self.slice(0..n);
        self.start += n;
        out
    }
}

/// Write cursor appending to a growable buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `i32`.
    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
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
    fn bytes_clone_shares_and_slices() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let c = b.clone();
        assert_eq!(b, c);
        let s = b.slice(1..4);
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn buf_roundtrips_le_integers() {
        let mut v = Vec::new();
        v.put_u32_le(7);
        v.put_u64_le(u64::MAX);
        v.put_i32_le(-5);
        v.put_i64_le(i64::MIN);
        v.put_f64_le(1.5);
        let mut s = &v[..];
        assert_eq!(s.get_u32_le(), 7);
        assert_eq!(s.get_u64_le(), u64::MAX);
        assert_eq!(s.get_i32_le(), -5);
        assert_eq!(s.get_i64_le(), i64::MIN);
        assert_eq!(s.get_f64_le(), 1.5);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn copy_to_bytes_consumes() {
        let mut s: &[u8] = &[1, 2, 3, 4];
        let b = s.copy_to_bytes(3);
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert_eq!(s.remaining(), 1);

        let mut owned = Bytes::from(vec![9u8, 8, 7]);
        let first = owned.copy_to_bytes(2);
        assert_eq!(first.as_slice(), &[9, 8]);
        assert_eq!(owned.as_slice(), &[7]);
    }
}
