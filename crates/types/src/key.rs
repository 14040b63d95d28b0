//! Sort-key trait and the key types shipped with `histok`.
//!
//! A [`SortKey`] is the value of the query's sort expression for one row.
//! The top-k machinery only ever needs three things from it: a total order
//! (`Ord`), a stable binary encoding (so keys can live in spilled runs), and
//! a heap-size estimate (so the memory budget can account for it).
//!
//! Keys are encoded with a self-describing length so run files can be
//! decoded without external schema information.

use bytes::{Buf, BufMut};
use std::cmp::Ordering;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::memsize::HeapSize;

/// A value of the sort expression, as required by every `histok` operator.
///
/// The trait bundles the total order, a `Hash` that agrees with its `Eq`
/// (dedup queries track distinct keys in a hash set), and two binary codecs:
///
/// * the *storage* codec ([`SortKey::encode`]/[`SortKey::decode`]), which
///   must round-trip exactly (`decode(encode(k)) == k`) so keys can live in
///   spilled runs;
/// * the *normalized* encoding ([`SortKey::norm_encode`]), an
///   order-preserving byte string: for any two keys,
///   `norm(a).cmp(&norm(b)) == a.cmp(&b)`. Normalized keys never need
///   decoding — they exist so the sort hot path (loser-tree merging,
///   offset-value codes, cutoff checks) can compare keys with `memcmp` and,
///   most of the time, with a single `u64` comparison on
///   [`SortKey::norm_prefix`]. The encoding must also be prefix-free across
///   distinct keys, so concatenations (pair keys) stay order-preserving.
pub trait SortKey: Clone + Ord + Hash + Debug + Send + Sync + HeapSize + 'static {
    /// Byte length of [`SortKey::norm_encode`]'s output when it is the same
    /// for every value of the type; `None` for variable-width keys.
    const NORM_WIDTH: Option<usize>;

    /// Number of bytes [`SortKey::encode`] will append for `self`.
    fn encoded_len(&self) -> usize;

    /// Appends the binary representation of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one key from the front of `buf`, consuming its bytes.
    ///
    /// Returns [`Error::Corrupt`] if the buffer is too short or the payload
    /// is malformed.
    fn decode(buf: &mut impl Buf) -> Result<Self>;

    /// Appends the order-preserving normalized encoding of `self` to `buf`.
    fn norm_encode(&self, buf: &mut Vec<u8>);

    /// The first eight bytes of the normalized encoding, zero-padded and
    /// read big-endian, so that *differing* prefixes order two keys exactly
    /// like their full normalized strings (equal prefixes are
    /// inconclusive unless [`SortKey::norm_prefix_is_exact`]).
    ///
    /// Implementations must not allocate for fixed-width keys; this is the
    /// per-row fast path of the cutoff filter and the selection heap.
    fn norm_prefix(&self) -> u64;

    /// True if the prefix *is* the whole normalized key for every value of
    /// the type, making equal prefixes mean equal keys.
    #[inline]
    fn norm_prefix_is_exact() -> bool {
        matches!(Self::NORM_WIDTH, Some(w) if w <= 8)
    }

    /// The normalized encoding as a fresh buffer (tests and cold paths).
    fn norm_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.norm_encode(&mut buf);
        buf
    }
}

/// Reads up to the first eight bytes of `bytes` as a zero-padded big-endian
/// `u64` — the generic way to compute [`SortKey::norm_prefix`] from an
/// already-normalized string.
#[inline]
pub fn prefix_of_norm(bytes: &[u8]) -> u64 {
    let mut out = [0u8; 8];
    let n = bytes.len().min(8);
    out[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(out)
}

/// Checks that `buf` has at least `n` readable bytes before a fixed-width
/// decode.
fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(Error::Corrupt(format!(
            "truncated key: need {n} bytes for {what}, have {}",
            buf.remaining()
        )));
    }
    Ok(())
}

macro_rules! int_sort_key {
    ($t:ty, $get:ident, $put:ident, $len:expr, |$v:ident| $to_unsigned:expr) => {
        impl SortKey for $t {
            const NORM_WIDTH: Option<usize> = Some($len);
            fn encoded_len(&self) -> usize {
                $len
            }
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.$put(*self);
            }
            fn decode(buf: &mut impl Buf) -> Result<Self> {
                need(buf, $len, stringify!($t))?;
                Ok(buf.$get())
            }
            fn norm_encode(&self, buf: &mut Vec<u8>) {
                let $v = *self;
                buf.extend_from_slice(&($to_unsigned).to_be_bytes());
            }
            #[inline]
            fn norm_prefix(&self) -> u64 {
                let $v = *self;
                u64::from($to_unsigned) << (8 * (8 - $len))
            }
        }
    };
}

// Unsigned integers normalize to their big-endian bytes; signed ones flip
// the sign bit first (xor with MIN), mapping the `Ord` range monotonically
// onto the unsigned range.
int_sort_key!(u32, get_u32_le, put_u32_le, 4, |v| v);
int_sort_key!(u64, get_u64_le, put_u64_le, 8, |v| v);
int_sort_key!(i32, get_i32_le, put_i32_le, 4, |v| (v ^ i32::MIN) as u32);
int_sort_key!(i64, get_i64_le, put_i64_le, 8, |v| (v ^ i64::MIN) as u64);

/// An `f64` sort key with a *total* order.
///
/// IEEE-754 comparison is partial (`NaN` compares to nothing), which rules
/// out raw `f64` as a sort key. `F64Key` uses [`f64::total_cmp`], placing
/// `-NaN < -inf < ... < -0.0 < 0.0 < ... < inf < NaN`. The paper's analysis
/// (§3.2) works on uniformly distributed `[0, 1]` floats, so this is the key
/// type used by the analytical model and the uniform-float workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct F64Key(pub f64);

impl F64Key {
    /// Returns the wrapped float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for F64Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for F64Key {}
/// Hashes the bit pattern: `total_cmp` equality is bit equality, so `0.0` and
/// `-0.0`, or two NaNs with different payloads, are different keys to both.
impl Hash for F64Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}
impl PartialOrd for F64Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64Key {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl From<f64> for F64Key {
    fn from(v: f64) -> Self {
        F64Key(v)
    }
}

impl SortKey for F64Key {
    const NORM_WIDTH: Option<usize> = Some(8);
    fn encoded_len(&self) -> usize {
        8
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_f64_le(self.0);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        need(buf, 8, "F64Key")?;
        Ok(F64Key(buf.get_f64_le()))
    }
    fn norm_encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.norm_prefix().to_be_bytes());
    }
    /// The classic total-order bit trick: negative floats (sign bit set,
    /// including -NaN) have all bits complemented, non-negative ones only
    /// the sign bit flipped. The resulting `u64` order equals
    /// [`f64::total_cmp`].
    #[inline]
    fn norm_prefix(&self) -> u64 {
        let bits = self.0.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        }
    }
}

/// A variable-length byte-string sort key (lexicographic order).
///
/// Useful for string sort columns; the encoding is a `u32` length prefix
/// followed by the bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BytesKey(pub Vec<u8>);

impl BytesKey {
    /// Creates a key from anything byte-like.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        BytesKey(bytes.into())
    }
    /// The raw bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl From<&str> for BytesKey {
    fn from(s: &str) -> Self {
        BytesKey(s.as_bytes().to_vec())
    }
}

impl SortKey for BytesKey {
    const NORM_WIDTH: Option<usize> = None;
    fn encoded_len(&self) -> usize {
        4 + self.0.len()
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u32_le(self.0.len() as u32);
        buf.extend_from_slice(&self.0);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        need(buf, 4, "BytesKey length")?;
        let len = buf.get_u32_le() as usize;
        need(buf, len, "BytesKey payload")?;
        let mut v = vec![0u8; len];
        buf.copy_to_slice(&mut v);
        Ok(BytesKey(v))
    }
    /// Escape-and-terminate normalization (the standard order-preserving
    /// encoding for variable-length strings under concatenation): every
    /// `0x00` content byte becomes `0x00 0xFF`, and the string ends with
    /// `0x00 0x00`. The terminator sorts before every escaped or plain
    /// content byte, so prefixes sort first and the encoding is prefix-free
    /// across distinct keys.
    fn norm_encode(&self, buf: &mut Vec<u8>) {
        if !self.0.contains(&0) {
            // Hot path: nothing to escape, bulk-copy the content.
            buf.extend_from_slice(&self.0);
        } else {
            for &b in &self.0 {
                if b == 0 {
                    buf.extend_from_slice(&[0x00, 0xFF]);
                } else {
                    buf.push(b);
                }
            }
        }
        buf.extend_from_slice(&[0x00, 0x00]);
    }
    #[inline]
    fn norm_prefix(&self) -> u64 {
        let mut out = [0u8; 8];
        let mut at = 0;
        let mut content = self.0.iter();
        while at < 8 {
            match content.next() {
                Some(0) => {
                    out[at] = 0x00;
                    if at + 1 < 8 {
                        out[at + 1] = 0xFF;
                    }
                    at += 2;
                }
                Some(&b) => {
                    out[at] = b;
                    at += 1;
                }
                // Terminator; the rest stays zero, matching norm_encode.
                None => break,
            }
        }
        u64::from_be_bytes(out)
    }
}

/// A composite key of two sort columns, ordered lexicographically.
///
/// Multi-column `ORDER BY a, b` clauses map to `KeyPair<A, B>`; deeper
/// nesting (`KeyPair<A, KeyPair<B, C>>`) covers arbitrary arity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyPair<A, B>(pub A, pub B);

impl<A: SortKey, B: SortKey> SortKey for KeyPair<A, B> {
    const NORM_WIDTH: Option<usize> = match (A::NORM_WIDTH, B::NORM_WIDTH) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    };
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        let a = A::decode(buf)?;
        let b = B::decode(buf)?;
        Ok(KeyPair(a, b))
    }
    /// Concatenation of the components' normalizations — order-preserving
    /// because each component encoding is prefix-free.
    fn norm_encode(&self, buf: &mut Vec<u8>) {
        self.0.norm_encode(buf);
        self.1.norm_encode(buf);
    }
    fn norm_prefix(&self) -> u64 {
        match A::NORM_WIDTH {
            Some(w) if w >= 8 => self.0.norm_prefix(),
            // Fixed-width first component: splice the second component's
            // prefix in after the first's `w` bytes, no allocation.
            Some(w) => self.0.norm_prefix() | (self.1.norm_prefix() >> (8 * w)),
            // Variable-width first component: normalize into a scratch
            // buffer (cold path; only pairs with byte-string majors).
            None => crate::key::prefix_of_norm(&self.norm_bytes()),
        }
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for KeyPair<A, B> {
    fn heap_size(&self) -> usize {
        self.0.heap_size() + self.1.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<K: SortKey>(k: &K) -> K {
        let mut buf = Vec::new();
        k.encode(&mut buf);
        assert_eq!(buf.len(), k.encoded_len(), "encoded_len must match encode");
        let mut slice = &buf[..];
        let back = K::decode(&mut slice).expect("decode");
        assert_eq!(slice.len(), 0, "decode must consume exactly encoded_len");
        back
    }

    #[test]
    fn integer_keys_roundtrip() {
        assert_eq!(roundtrip(&42u64), 42u64);
        assert_eq!(roundtrip(&u64::MAX), u64::MAX);
        assert_eq!(roundtrip(&-7i64), -7i64);
        assert_eq!(roundtrip(&7u32), 7u32);
        assert_eq!(roundtrip(&i32::MIN), i32::MIN);
    }

    #[test]
    fn f64_key_total_order_handles_nan_and_zero() {
        let nan = F64Key(f64::NAN);
        let inf = F64Key(f64::INFINITY);
        let one = F64Key(1.0);
        assert!(one < inf);
        assert!(inf < nan);
        assert_eq!(nan, nan); // total order: NaN equals itself
        assert!(F64Key(-0.0) < F64Key(0.0)); // total_cmp distinguishes zeros
    }

    #[test]
    fn f64_key_roundtrips_special_values() {
        for v in [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, f64::INFINITY] {
            assert_eq!(roundtrip(&F64Key(v)), F64Key(v));
        }
        // NaN round-trips bit-exactly under total order equality.
        assert_eq!(roundtrip(&F64Key(f64::NAN)), F64Key(f64::NAN));
    }

    #[test]
    fn bytes_key_orders_lexicographically() {
        let a = BytesKey::from("apple");
        let b = BytesKey::from("banana");
        let ab = BytesKey::from("apple2");
        assert!(a < b);
        assert!(a < ab);
        assert_eq!(roundtrip(&a), a);
        assert_eq!(roundtrip(&BytesKey::new(Vec::new())), BytesKey::new(Vec::new()));
    }

    #[test]
    fn key_pair_orders_by_first_then_second() {
        let k1 = KeyPair(1u64, F64Key(9.0));
        let k2 = KeyPair(1u64, F64Key(10.0));
        let k3 = KeyPair(2u64, F64Key(0.0));
        assert!(k1 < k2);
        assert!(k2 < k3);
        assert_eq!(roundtrip(&k1), k1);
    }

    /// `Hash` must agree with `Eq` (equal keys hash equally); for the
    /// distinct pairs below the default hasher also tells them apart.
    #[test]
    fn hash_agrees_with_eq() {
        fn hash_of<K: SortKey>(k: &K) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        }
        fn check<K: SortKey>(keys: &[K]) {
            for a in keys {
                for b in keys {
                    assert_eq!(a == b, hash_of(a) == hash_of(b), "{a:?} vs {b:?}");
                }
            }
        }
        // `total_cmp` tells the zeros apart, and NaNs by sign and payload.
        let quiet_nan = f64::NAN;
        let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
        assert!(other_nan.is_nan() && other_nan.to_bits() != quiet_nan.to_bits());
        check(&[0.0, -0.0, quiet_nan, -quiet_nan, other_nan, 0.5, 0.0, quiet_nan].map(F64Key));
        check(&[
            KeyPair(1u64, F64Key(0.0)),
            KeyPair(1u64, F64Key(-0.0)),
            KeyPair(2u64, F64Key(0.0)),
            KeyPair(1u64, F64Key(0.0)),
        ]);
        // ("a", "bc") and ("ab", "c") concatenate alike and are not equal.
        check(&[
            KeyPair(BytesKey::from("a"), BytesKey::from("bc")),
            KeyPair(BytesKey::from("ab"), BytesKey::from("c")),
            KeyPair(BytesKey::from("a"), BytesKey::from("bc")),
        ]);
    }

    #[test]
    fn truncated_buffers_yield_corrupt_errors() {
        let mut buf = Vec::new();
        42u64.encode(&mut buf);
        let mut short = &buf[..4];
        assert!(matches!(u64::decode(&mut short), Err(Error::Corrupt(_))));

        let mut buf = Vec::new();
        BytesKey::from("hello").encode(&mut buf);
        let mut short = &buf[..6]; // length says 5, only 2 payload bytes present
        assert!(matches!(BytesKey::decode(&mut short), Err(Error::Corrupt(_))));
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v in any::<u64>()) {
            prop_assert_eq!(roundtrip(&v), v);
        }

        #[test]
        fn prop_f64_roundtrip(v in any::<f64>()) {
            let k = F64Key(v);
            prop_assert_eq!(roundtrip(&k), k);
        }

        #[test]
        fn prop_bytes_roundtrip(v in proptest::collection::vec(any::<u8>(), 0..256)) {
            let k = BytesKey(v);
            prop_assert_eq!(roundtrip(&k), k.clone());
        }

        #[test]
        fn prop_f64_order_matches_float_order(a in -1.0e9..1.0e9f64, b in -1.0e9..1.0e9f64) {
            let (ka, kb) = (F64Key(a), F64Key(b));
            prop_assert_eq!(ka < kb, a < b);
        }

        #[test]
        fn prop_pair_order_is_lexicographic(a1 in any::<u32>(), b1 in any::<u32>(),
                                            a2 in any::<u32>(), b2 in any::<u32>()) {
            let k1 = KeyPair(a1, b1);
            let k2 = KeyPair(a2, b2);
            prop_assert_eq!(k1.cmp(&k2), (a1, b1).cmp(&(a2, b2)));
        }
    }

    /// Core normalization law: byte-wise comparison of `norm_bytes` must
    /// agree with the key's `Ord`, and `norm_prefix` must be the zero-padded
    /// first 8 bytes of `norm_bytes`.
    fn check_norm<K: SortKey>(a: &K, b: &K) {
        assert_eq!(
            a.norm_bytes().cmp(&b.norm_bytes()),
            a.cmp(b),
            "normalization must preserve Ord"
        );
        for k in [a, b] {
            assert_eq!(
                k.norm_prefix(),
                prefix_of_norm(&k.norm_bytes()),
                "norm_prefix must match the full normalization's first 8 bytes"
            );
            if let Some(w) = K::NORM_WIDTH {
                assert_eq!(k.norm_bytes().len(), w, "NORM_WIDTH must match encoding length");
            }
        }
    }

    #[test]
    fn norm_handles_integer_extremes() {
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            for w in [i64::MIN, -1, 0, 1, i64::MAX] {
                check_norm(&v, &w);
            }
        }
        check_norm(&u32::MIN, &u32::MAX);
        check_norm(&i32::MIN, &i32::MAX);
    }

    #[test]
    fn norm_handles_f64_special_values() {
        let specials = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &specials {
            for &b in &specials {
                check_norm(&F64Key(a), &F64Key(b));
            }
        }
    }

    #[test]
    fn norm_bytes_key_escapes_embedded_zeros() {
        // 0x00 must sort before any other byte but the terminator must not
        // make a shorter string sort after its extension.
        let empty = BytesKey::new(Vec::new());
        let zero = BytesKey::new(vec![0]);
        let zero_zero = BytesKey::new(vec![0, 0]);
        let zero_one = BytesKey::new(vec![0, 1]);
        let one = BytesKey::new(vec![1]);
        let keys = [&empty, &zero, &zero_zero, &zero_one, &one];
        for &a in &keys {
            for &b in &keys {
                check_norm(a, b);
            }
        }
    }

    #[test]
    fn norm_pair_concatenation_preserves_order_across_first_key_boundary() {
        // ("a", "bc") vs ("ab", "c") — raw concatenation would collide;
        // the terminator keeps them ordered by the first component.
        let k1 = KeyPair(BytesKey::from("a"), BytesKey::from("bc"));
        let k2 = KeyPair(BytesKey::from("ab"), BytesKey::from("c"));
        check_norm(&k1, &k2);
        assert_eq!(k1.norm_bytes().cmp(&k2.norm_bytes()), k1.cmp(&k2));
    }

    proptest! {
        #[test]
        fn prop_norm_preserves_order_u64(a in any::<u64>(), b in any::<u64>()) {
            check_norm(&a, &b);
        }

        #[test]
        fn prop_norm_preserves_order_i64(a in any::<i64>(), b in any::<i64>()) {
            check_norm(&a, &b);
        }

        #[test]
        fn prop_norm_preserves_order_f64(a in any::<f64>(), b in any::<f64>()) {
            check_norm(&F64Key(a), &F64Key(b));
        }

        #[test]
        fn prop_norm_preserves_order_bytes(
            a in proptest::collection::vec(0u8..4, 0..12),
            b in proptest::collection::vec(0u8..4, 0..12),
        ) {
            check_norm(&BytesKey(a), &BytesKey(b));
        }

        #[test]
        fn prop_norm_preserves_order_pair(
            a1 in 0u32..4, b1 in proptest::collection::vec(0u8..4, 0..6),
            a2 in 0u32..4, b2 in proptest::collection::vec(0u8..4, 0..6),
        ) {
            check_norm(&KeyPair(a1, BytesKey(b1)), &KeyPair(a2, BytesKey(b2)));
        }

        #[test]
        fn prop_norm_preserves_order_bytes_major_pair(
            a1 in proptest::collection::vec(0u8..3, 0..6), b1 in any::<u32>(),
            a2 in proptest::collection::vec(0u8..3, 0..6), b2 in any::<u32>(),
        ) {
            check_norm(&KeyPair(BytesKey(a1), b1), &KeyPair(BytesKey(a2), b2));
        }
    }
}
