//! CRC-32 (IEEE 802.3) used to checksum run-file blocks: one checksum per
//! block per direction, in `Frame::write` and `RunReader::load_next_block`.
//!
//! Implemented locally to keep the dependency set to the approved crates.
//! Run files are written once and read back within the same query, but
//! checksums still catch backend bugs, torn writes in fault-injection
//! tests, and block-boundary mistakes.
//!
//! **Algorithm: slicing-by-16.** `TABLES[k][b]` is the register after byte
//! `b` and `k` zero bytes; CRC is linear, so the register after a 16-byte
//! chunk is the XOR of sixteen lookups, one per byte, the running value
//! folded into the first four. Twelve of them do not depend on the previous
//! chunk at all and the other four wait for it once per 16 bytes, where the
//! bytewise loop (kept as the tests' reference) waits for a dependent load
//! on every byte. The tables are 16 KiB of read-only data built at compile
//! time; the values are those of the bytewise loop, so format v1 is
//! unchanged.
//!
//! **Why not the CPU's CRC instruction.** x86 `crc32` and Arm `crc32c*`
//! compute CRC-32C (Castagnoli), another polynomial: every stored checksum
//! of format v1 would change, and the intrinsics need `unsafe` plus a
//! runtime feature check with this code kept as the fallback.

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

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        // The twelve lookups that do not wait for `crc` go first.
        let tail = fold(0, &chunk[4..], &TABLES[..12]);
        let head = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = fold(tail, &head.to_le_bytes(), &TABLES[12..]);
    }
    !chunks.remainder().iter().fold(crc, |crc, &b| step(crc, b))
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    use super::*;

    /// The byte-at-a-time table loop: the textbook definition, which the
    /// sliced kernel must agree with on every input.
    fn bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0, |crc, &b| step(crc, b))
    }

    /// Seeded filler, so a failure names a reproducible buffer.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut data = vec![0u8; len];
        StdRng::seed_from_u64(seed).fill_bytes(&mut data);
        data
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
        // Zero to eight whole chunks with every remainder behind them; the
        // start offset moves the chunks over the allocation's alignment.
        let buf = noise(130 + 8, 1);
        for offset in 0..8 {
            for len in 0..=130 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), bytewise(data), "offset {offset}, length {len}");
            }
        }
    }

    #[test]
    fn agrees_with_the_bytewise_reference_on_a_block_and_a_request() {
        // A full block payload, and a request's worth plus a file header
        // and a block header (a length that is no multiple of 16).
        for (len, seed) in [(64 * 1024, 42), (256 * 1024 + 24, 7)] {
            let data = noise(len, seed);
            assert_eq!(crc32(&data), bytewise(&data), "length {len}");
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
