//! The configuration CRC.
//!
//! 7-series devices compute a 32-bit CRC over every `(register
//! address, data word)` pair written during configuration, reset it
//! on the `RCRC` command, and compare it against the value written to
//! the CRC register; a mismatch pulls `INIT_B` low and aborts
//! configuration (Section V-B). The polynomial is CRC-32C
//! (Castagnoli); each update feeds the 32 data bits and the 5-bit
//! register address.

/// Reflected CRC-32C polynomial.
pub const POLY: u32 = 0x82F6_3B78;

/// Runs `k` steps of the reflected LFSR with an all-zero bit feed.
///
/// This is the kernel every lookup table is built from: by linearity
/// of the LFSR over GF(2), feeding `k` data bits `b` from state `crc`
/// equals `(crc >> k) ^ step_zero((crc ^ b) & mask_k, k)`.
const fn step_zero(mut crc: u32, k: u32) -> u32 {
    let mut j = 0;
    while j < k {
        let feed = crc & 1;
        crc >>= 1;
        if feed == 1 {
            crc ^= POLY;
        }
        j += 1;
    }
    crc
}

/// Slicing-by-8 tables: `SLICE8[k][b]` is the state contribution of
/// byte `b` fed with `k` more bytes still to follow it, so eight
/// independent lookups retire eight bytes. `SLICE8[0]` is the plain
/// byte-at-a-time table.
static SLICE8: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        t[0][i] = step_zero(i as u32, 8);
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// A whole register write folded into one step: `FOLD[j][b]` is what
/// byte `j` of `state ^ word` contributes after all 37 steps (the 32
/// data steps, then the 5 address steps). The state is fully shifted
/// out after 32 steps, so by linearity the update is the XOR of four
/// independent lookups plus the address's [`TABLE5`] term.
static FOLD: [[u32; 256]; 4] = {
    let mut t = [[0u32; 256]; 4];
    let mut j = 0;
    while j < 4 {
        let mut b = 0;
        while b < 256 {
            t[j][b] = step_zero(step_zero((b as u32) << (8 * j), 32), 5);
            b += 1;
        }
        j += 1;
    }
    t
};

/// Five-bit table for the register-address tail of a register write.
static TABLE5: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        t[i] = step_zero(i as u32, 5);
        i += 1;
    }
    t
};

/// A running configuration CRC.
///
/// # Example
///
/// ```
/// use bitstream::crc::ConfigCrc;
///
/// let mut crc = ConfigCrc::new();
/// crc.update(2, 0xDEADBEEF); // write to FDRI (reg 2)
/// let a = crc.value();
/// crc.reset();
/// assert_eq!(crc.value(), ConfigCrc::new().value());
/// assert_ne!(a, crc.value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigCrc {
    state: u32,
}

impl Default for ConfigCrc {
    fn default() -> Self {
        Self::new()
    }
}

impl ConfigCrc {
    /// A freshly reset CRC.
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0 }
    }

    /// A CRC resumed from a previously observed running value.
    ///
    /// The register stream is fed through a plain LFSR, so the whole
    /// computation is a function of the running value alone; this
    /// constructor lets differential tooling (e.g. the candidate-edit
    /// forge) continue a walk from a cached midpoint.
    #[must_use]
    pub fn with_state(state: u32) -> Self {
        Self { state }
    }

    /// Resets the running value (the `RCRC` command).
    pub fn reset(&mut self) {
        self.state = 0;
    }

    /// Feeds one register write: the 32 data bits followed by the
    /// 5 address bits.
    ///
    /// One folded step: four byte lookups for the data word and one
    /// 5-bit lookup for the address, none of which waits on another;
    /// bit-for-bit equivalent to the reference 37-step LFSR loop,
    /// which the test suite pins.
    pub fn update(&mut self, addr: u16, word: u32) {
        let [x0, x1, x2, x3] = (self.state ^ word).to_le_bytes();
        self.state = FOLD[0][usize::from(x0)]
            ^ FOLD[1][usize::from(x1)]
            ^ FOLD[2][usize::from(x2)]
            ^ FOLD[3][usize::from(x3)]
            ^ TABLE5[usize::from(addr & 0x1F)];
    }

    /// The current CRC value.
    #[must_use]
    pub fn value(&self) -> u32 {
        self.state
    }
}

/// A running CRC-32C over a plain byte stream (same Castagnoli
/// polynomial as [`ConfigCrc`], fed 8 bits at a time instead of
/// 37-bit register writes). This is the guard the crash-safe journal
/// codec puts on every frame it writes: a torn write or a flipped
/// bit in a persisted checkpoint must be detected, never decoded.
///
/// The value is finalised like the standard CRC-32C (initial value
/// `0xFFFF_FFFF`, output complemented), so `ByteCrc::of(b"123456789")`
/// is the catalogue check value `0xE306_9283`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteCrc {
    state: u32,
}

impl Default for ByteCrc {
    fn default() -> Self {
        Self::new()
    }
}

impl ByteCrc {
    /// A fresh CRC (initial state `0xFFFF_FFFF`).
    #[must_use]
    pub fn new() -> Self {
        Self { state: u32::MAX }
    }

    /// Feeds a slice of bytes, eight at a time by slicing-by-8 and
    /// the tail byte by byte.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let [b0, b1, b2, b3, b4, b5, b6, b7] = chunk.try_into().expect("8-byte chunk");
            let [x0, x1, x2, x3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
            crc = SLICE8[7][usize::from(x0)]
                ^ SLICE8[6][usize::from(x1)]
                ^ SLICE8[5][usize::from(x2)]
                ^ SLICE8[4][usize::from(x3)]
                ^ SLICE8[3][usize::from(b4)]
                ^ SLICE8[2][usize::from(b5)]
                ^ SLICE8[1][usize::from(b6)]
                ^ SLICE8[0][usize::from(b7)];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ SLICE8[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The finalised CRC value (complemented state).
    #[must_use]
    pub fn value(&self) -> u32 {
        !self.state
    }

    /// One-shot CRC of a byte slice.
    #[must_use]
    pub fn of(bytes: &[u8]) -> u32 {
        let mut crc = Self::new();
        crc.update(bytes);
        crc.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-table reference implementation: one LFSR step per bit,
    /// 32 data bits then 5 address bits.
    fn update_reference(state: u32, addr: u16, word: u32) -> u32 {
        let mut bits = u64::from(word) | (u64::from(addr & 0x1F) << 32);
        let mut crc = state;
        for _ in 0..37 {
            let feed = (crc ^ (bits as u32)) & 1;
            crc >>= 1;
            if feed == 1 {
                crc ^= POLY;
            }
            bits >>= 1;
        }
        crc
    }

    #[test]
    fn table_update_matches_bitwise_reference() {
        // A deterministic pseudo-random sweep over (state, addr, word)
        // triples plus the structured corners.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut cases: Vec<(u32, u16, u32)> = vec![
            (0, 0, 0),
            (0, 0x1F, 0),
            (0, 2, 0xFFFF_FFFF),
            (u32::MAX, 0x1F, u32::MAX),
            (1, 0, 1),
            (0x8000_0000, 0x10, 0x8000_0000),
        ];
        for _ in 0..2000 {
            let r = next();
            cases.push((r as u32, (r >> 32) as u16 & 0x3F, (r >> 13) as u32));
        }
        for (state, addr, word) in cases {
            let mut c = ConfigCrc::with_state(state);
            c.update(addr, word);
            assert_eq!(
                c.value(),
                update_reference(state, addr, word),
                "state {state:#x} addr {addr:#x} word {word:#x}"
            );
        }
    }

    #[test]
    fn with_state_resumes_a_walk() {
        let mut whole = ConfigCrc::new();
        whole.update(2, 0xDEAD_BEEF);
        whole.update(2, 0x0123_4567);
        let mut front = ConfigCrc::new();
        front.update(2, 0xDEAD_BEEF);
        let mut back = ConfigCrc::with_state(front.value());
        back.update(2, 0x0123_4567);
        assert_eq!(whole.value(), back.value());
    }

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = ConfigCrc::new();
        a.update(2, 1);
        a.update(2, 2);
        let mut b = ConfigCrc::new();
        b.update(2, 2);
        b.update(2, 1);
        assert_ne!(a.value(), b.value());

        let mut c = ConfigCrc::new();
        c.update(2, 1);
        c.update(2, 2);
        assert_eq!(a.value(), c.value());
    }

    #[test]
    fn address_matters() {
        let mut a = ConfigCrc::new();
        a.update(2, 0x1234);
        let mut b = ConfigCrc::new();
        b.update(4, 0x1234);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let words = [0xAAAA_5555u32, 0x0F0F_F0F0, 0x1234_5678];
        let crc_of = |ws: &[u32]| {
            let mut c = ConfigCrc::new();
            for &w in ws {
                c.update(2, w);
            }
            c.value()
        };
        let base = crc_of(&words);
        for i in 0..3 {
            for bit in [0, 7, 31] {
                let mut mutated = words;
                mutated[i] ^= 1 << bit;
                assert_ne!(crc_of(&mutated), base, "word {i} bit {bit}");
            }
        }
    }

    #[test]
    fn byte_crc_matches_the_crc32c_check_value() {
        // The catalogue check value for CRC-32C ("iSCSI CRC").
        assert_eq!(ByteCrc::of(b"123456789"), 0xE306_9283);
        assert_eq!(ByteCrc::of(b""), 0);
    }

    #[test]
    fn byte_crc_is_incremental_and_bit_sensitive() {
        let mut inc = ByteCrc::new();
        inc.update(b"hello ");
        inc.update(b"world");
        assert_eq!(inc.value(), ByteCrc::of(b"hello world"));
        let mut mutated = b"hello world".to_vec();
        for i in 0..mutated.len() {
            for bit in [0u8, 3, 7] {
                mutated[i] ^= 1 << bit;
                assert_ne!(
                    ByteCrc::of(&mutated),
                    ByteCrc::of(b"hello world"),
                    "byte {i} bit {bit}"
                );
                mutated[i] ^= 1 << bit;
            }
        }
    }

    /// The bit-serial reference: one LFSR step per bit, from the
    /// un-finalised state.
    fn byte_update_reference(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let feed = crc & 1;
                crc >>= 1;
                if feed == 1 {
                    crc ^= POLY;
                }
            }
        }
        crc
    }

    #[test]
    fn sliced_byte_crc_matches_the_bitwise_loop_at_any_split() {
        let mut x = 0x0DDB_A11C_0FFE_E5EDu64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..300 {
            let len = (next() % 600) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let split = (next() % (len as u64 + 1)) as usize;
            let mut crc = ByteCrc::new();
            crc.update(&bytes[..split]);
            crc.update(&bytes[split..]);
            let want = !byte_update_reference(u32::MAX, &bytes);
            assert_eq!(crc.value(), want, "len {len} split {split}");
            assert_eq!(ByteCrc::of(&bytes), want, "len {len}");
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut c = ConfigCrc::new();
        c.update(2, 0xFFFF_FFFF);
        c.reset();
        assert_eq!(c.value(), 0);
    }
}
