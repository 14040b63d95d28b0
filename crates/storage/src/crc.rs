//! CRC-32 (IEEE 802.3) used to checksum run-file blocks: one checksum per
//! block per direction, in `Frame::write` and `RunReader::load_next_block`.
//!
//! Implemented locally to keep the dependency set to the approved crates.
//! Run files are written once and read back within the same query, but
//! checksums still catch backend bugs, torn writes in fault-injection
//! tests, and block-boundary mistakes.
//!
//! **Two kernels, one value.** Both compute the reflected polynomial
//! `0xEDB88320` with the same initial and final inversion, so format v1's
//! stored checksums do not depend on which one ran.
//!
//! * *Carry-less folding* (`carryless`; Gopal et al., Intel 2009, "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ"). Four 128-bit
//!   lanes of the message are each multiplied, without carries, by
//!   `x^512 mod P` and added into the next 64 bytes, so the register only
//!   has to be reduced once, at the end: the lanes fold into one, the one
//!   folds over any further 16-byte lanes, and a Barrett reduction takes
//!   its 64 bits to 32. Every constant is `x^n mod P` for some distance
//!   `n`, or Barrett's `x^64 div P`, computed here at compile time from
//!   `POLY`. x86-64 only, and only for inputs of at least 64 bytes:
//!   [`crc32`] checks `pclmulqdq` and `sse4.1` at run time (a cached flag
//!   after the first call), and the bytes behind the last whole lane go
//!   through the table kernel.
//! * *Slicing-by-16* (`table`). `TABLES[k][b]` is the register after byte
//!   `b` and `k` zero bytes; CRC is linear, so the register after a 16-byte
//!   chunk is the XOR of sixteen lookups, one per byte, the running value
//!   folded into the first four. Twelve of them do not depend on the
//!   previous chunk at all and the other four wait for it once per 16
//!   bytes, where the bytewise loop (kept as the tests' reference) waits
//!   for a dependent load on every byte. The tables are 16 KiB of
//!   read-only data built at compile time. It stays as the only kernel on
//!   other targets and on CPUs without `pclmulqdq`, and as the one for
//!   inputs shorter than four lanes and for the tail of every input.
//!
//! In cache, the carry-less kernel runs at about seven times the table
//! kernel's speed (DESIGN.md §7 has the figures and how they were taken).
//!
//! **Why not the CPU's CRC instruction.** x86 `crc32` and Arm `crc32c*`
//! compute CRC-32C (Castagnoli), another polynomial: every stored checksum
//! of format v1 would change. Carry-less multiplication has no polynomial
//! of its own, so it computes this one.

/// The standard CRC-32 polynomial (reflected form).
const POLY: u32 = 0xEDB8_8320;

/// Sixteen 256-entry lookup tables, built at compile time.
static TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Takes one byte into the register: the bytewise step, which finishes a
/// length that is not a multiple of 16.
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// XORs the lookups of `bytes` into `acc`, the last byte through `tables[0]`.
fn fold(acc: u32, bytes: &[u8], tables: &[[u32; 256]]) -> u32 {
    bytes.iter().zip(tables.iter().rev()).fold(acc, |acc, (&b, t)| acc ^ t[usize::from(b)])
}

/// The table kernel: takes `data` into the register `crc` by
/// slicing-by-16 and returns the register.
fn table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        // The twelve lookups that do not wait for `crc` go first.
        let tail = fold(0, &chunk[4..], &TABLES[..12]);
        let head = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = fold(tail, &head.to_le_bytes(), &TABLES[12..]);
    }
    chunks.remainder().iter().fold(crc, |crc, &b| step(crc, b))
}

/// The carry-less kernel: takes `data` into the register `crc` and returns
/// the register, or `None` where the CPU lacks the instructions (then the
/// caller uses [`table`]). Inputs shorter than its four 16-byte lanes go
/// to the table kernel inside it.
#[allow(unsafe_code)]
fn carryless(crc: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        // SAFETY: `clmul::update` is safe code compiled for `pclmulqdq`
        // and `sse4.1`; calling it is sound exactly when the CPU has both,
        // which the line above has just checked.
        return Some(unsafe { clmul::update(crc, data) });
    }
    let _ = (crc, data);
    None
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !carryless(!0, data).unwrap_or_else(|| table(!0, data))
}

/// CRC-32 by PCLMULQDQ folding; see the module doc.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::{table, POLY};

    /// `x^n mod P`, bit-reflected: `x^0` is the top bit, and a multiply by
    /// `x` is a right shift that adds `P` when a term leaves the bottom.
    const fn xpow_mod(n: u32) -> u32 {
        let mut r = 1 << 31;
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        r
    }

    /// `x^n mod P` as a folding multiplier: one bit up, since the
    /// carry-less product of two reflected operands comes out one bit
    /// short.
    const fn key(n: u32) -> i64 {
        (xpow_mod(n) as i64) << 1
    }

    /// Barrett's `μ = x^64 div P`, reflected over its 33 bits.
    const fn barrett_mu() -> i64 {
        let p = 1 << 32 | POLY.reverse_bits() as u128;
        let (mut rem, mut quotient) = (1u128 << 64, 0u64);
        let mut bit = 33;
        while bit > 0 {
            bit -= 1;
            if rem >> (bit + 32) & 1 != 0 {
                rem ^= p << bit;
                quotient |= 1 << bit;
            }
        }
        (quotient.reverse_bits() >> 31) as i64
    }

    /// Fold a lane 512 bits forward, over the three lanes behind it: the
    /// multipliers of its low and high halves.
    const K1: i64 = key(4 * 128 + 32);
    const K2: i64 = key(4 * 128 - 32);
    /// Fold a lane 128 bits forward, into the next one.
    const K3: i64 = key(128 + 32);
    const K4: i64 = key(128 - 32);
    /// Reduces 96 bits to 64.
    const K5: i64 = key(64);
    /// Barrett's divisor: `P` with its `x^32` term, reflected over 33 bits.
    const P_X: i64 = (POLY as i64) << 1 | 1;
    /// Barrett's `μ`.
    const MU: i64 = barrett_mu();

    /// One unaligned 16-byte lane, least significant byte first.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(bytes: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*bytes);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `acc` moved forward by the distance `keys` encode, added into `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Takes `data` into the register `crc` and returns the register.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let (lanes, tail) = data.as_chunks::<16>();
        let (quads, singles) = lanes.as_chunks::<4>();
        let Some((first, quads)) = quads.split_first() else { return table(crc, data) };
        let mut x = [lane(&first[0]), lane(&first[1]), lane(&first[2]), lane(&first[3])];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let by_four = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (x, next) in x.iter_mut().zip(quad) {
                *x = fold_into(*x, lane(next), by_four);
            }
        }
        let by_one = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(x[0], x[1], by_one);
        acc = fold_into(acc, x[2], by_one);
        acc = fold_into(acc, x[3], by_one);
        for next in singles {
            acc = fold_into(acc, lane(next), by_one);
        }
        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc =
            _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(acc, by_one), _mm_srli_si128::<8>(acc));
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett: 64 bits to the 32-bit remainder, in the reflected
        // domain's upper half.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
        table(crc, tail)
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    use super::*;

    /// The byte-at-a-time table loop: the textbook definition, which both
    /// kernels must agree with on every input.
    fn bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0, |crc, &b| step(crc, b))
    }

    /// Seeded filler, so a failure names a reproducible buffer.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut data = vec![0u8; len];
        StdRng::seed_from_u64(seed).fill_bytes(&mut data);
        data
    }

    /// `data`'s checksum by `crc32`, by the table kernel and, where the CPU
    /// has it, by the carry-less kernel, each checked against the bytewise
    /// loop.
    fn check_every_kernel(data: &[u8], what: &str) {
        let expected = bytewise(data);
        assert_eq!(crc32(data), expected, "crc32, {what}");
        assert_eq!(!table(!0, data), expected, "table kernel, {what}");
        if let Some(folded) = carryless(!0, data) {
            assert_eq!(!folded, expected, "carry-less kernel, {what}");
        }
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 ("crc32b") test vectors. The end marker relies
        // on the empty one.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn agrees_with_the_bytewise_reference_at_every_length_and_alignment() {
        // Lengths on both sides of the four-lane start (64 bytes) and of
        // every 16-byte lane behind it, with every remainder; the start
        // offset moves the lanes over the allocation's alignment.
        let buf = noise(300 + 8, 1);
        for offset in 0..8 {
            for len in 0..=300 {
                check_every_kernel(
                    &buf[offset..offset + len],
                    &format!("offset {offset}, length {len}"),
                );
            }
        }
    }

    #[test]
    fn agrees_with_the_bytewise_reference_on_a_block_and_a_request() {
        // A full block payload, and a request's worth plus a file header
        // and a block header (a length that is no multiple of 16).
        for (len, seed) in [(64 * 1024, 42), (256 * 1024 + 24, 7)] {
            check_every_kernel(&noise(len, seed), &format!("length {len}"));
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn sensitive_to_reordering() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}
