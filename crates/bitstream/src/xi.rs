//! The LUT bitstream permutation ξ of Xilinx 7-series devices
//! (Table I of the paper).
//!
//! The 64-bit truth table `F` of a 6-input LUT is not stored
//! contiguously: each bit `F[i]` (where `i` is the input assignment
//! with `a1` as bit 0, matching Table I's row order) lands at position
//! `ξ(i)` of the permuted vector `B`, which is then split into four
//! 16-bit sub-vectors.

/// Table I, transcribed verbatim: `XI_TABLE[i]` is the index of
/// `B` that receives `F[i]`.
pub const XI_TABLE: [u8; 64] = [
    63, 47, 62, 46, 61, 45, 60, 44, 15, 31, 14, 30, 13, 29, 12, 28, //
    59, 43, 58, 42, 57, 41, 56, 40, 11, 27, 10, 26, 9, 25, 8, 24, //
    55, 39, 54, 38, 53, 37, 52, 36, 7, 23, 6, 22, 5, 21, 4, 20, //
    51, 35, 50, 34, 49, 33, 48, 32, 3, 19, 2, 18, 1, 17, 0, 16,
];

/// The closed form of ξ: starting from all-ones, each input bit of
/// the assignment toggles a fixed mask
/// (`a1 → 0x10`, `a2 → 0x01`, `a3 → 0x02`, `a4 → 0x30`, `a5 → 0x04`,
/// `a6 → 0x08`). A unit test pins this against [`XI_TABLE`].
#[must_use]
pub fn xi(i: u8) -> u8 {
    const MASKS: [u8; 6] = [0x10, 0x01, 0x02, 0x30, 0x04, 0x08];
    let mut b = 0x3f;
    for (bit, mask) in MASKS.iter().enumerate() {
        if (i >> bit) & 1 == 1 {
            b ^= mask;
        }
    }
    b
}

/// One direction of ξ as byte-indexed lookups: `t[j][v]` is where the
/// set bits of `v`, read as byte `j` of the input, land in the output.
/// Because ξ moves bits, the image of a word is the OR (equally, the
/// XOR) of its eight bytes' images.
type ByteTables = [[u64; 256]; 8];

/// Builds the byte tables of the bit move `from bit i to bit to[i]`.
const fn byte_tables(to: &[u8; 64]) -> ByteTables {
    let mut t = [[0u64; 256]; 8];
    let mut j = 0;
    while j < 8 {
        let mut v = 0;
        while v < 256 {
            let mut bit = 0;
            while bit < 8 {
                if (v >> bit) & 1 == 1 {
                    t[j][v] |= 1 << to[8 * j + bit];
                }
                bit += 1;
            }
            v += 1;
        }
        j += 1;
    }
    t
}

/// ξ⁻¹ as a bit move: `XI_INVERSE[b]` is the truth-table row stored at
/// bit `b` of `B`.
const XI_INVERSE: [u8; 64] = {
    let mut inv = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        inv[XI_TABLE[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

static FORWARD: ByteTables = byte_tables(&XI_TABLE);
static INVERSE: ByteTables = byte_tables(&XI_INVERSE);

/// Moves the bits of `x` through one direction's byte tables.
#[inline]
fn through(t: &ByteTables, x: u64) -> u64 {
    x.to_le_bytes().iter().zip(t).fold(0, |acc, (&v, row)| acc | row[usize::from(v)])
}

/// Applies ξ to a full 64-bit truth table: bit `i` of `f` moves to
/// bit `ξ(i)` of the result.
///
/// # Example
///
/// ```
/// use bitstream::xi;
///
/// // Table I, first row: F[0] lands at B[63].
/// assert_eq!(xi::permute(1), 1 << 63);
/// assert_eq!(xi::unpermute(xi::permute(0xDEADBEEF)), 0xDEADBEEF);
/// ```
#[must_use]
pub fn permute(f: u64) -> u64 {
    through(&FORWARD, f)
}

/// Inverts ξ: recovers the truth table from the permuted vector.
#[must_use]
pub fn unpermute(b: u64) -> u64 {
    through(&INVERSE, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_table() {
        for i in 0..64u8 {
            assert_eq!(xi(i), XI_TABLE[i as usize], "xi({i})");
        }
    }

    #[test]
    fn table_is_a_permutation() {
        let mut seen = [false; 64];
        for &b in &XI_TABLE {
            assert!(!seen[b as usize], "duplicate target {b}");
            seen[b as usize] = true;
        }
    }

    #[test]
    fn permute_roundtrip() {
        let mut x: u64 = 0x0123_4567_89AB_CDEF;
        for _ in 0..100 {
            assert_eq!(unpermute(permute(x)), x);
            assert_eq!(permute(unpermute(x)), x);
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
        }
    }

    #[test]
    fn spot_checks_from_paper_table() {
        // F[0] → B[63], F[9] → B[31], F[40] → B[7], F[63] → B[16].
        assert_eq!(permute(1 << 0) >> 63 & 1, 1);
        assert_eq!(permute(1 << 9) >> 31 & 1, 1);
        assert_eq!(permute(1 << 40) >> 7 & 1, 1);
        assert_eq!(permute(1 << 63) >> 16 & 1, 1);
    }

    #[test]
    fn permute_is_linear_in_xor() {
        let a = 0xDEAD_BEEF_0BAD_F00Du64;
        let b = 0x1234_5678_9ABC_DEF0u64;
        assert_eq!(permute(a ^ b), permute(a) ^ permute(b));
    }
}
