//! The SNOW 3G cipher: `γ(K, IV)` loading, initialization, and
//! keystream generation.

use core::fmt;

use crate::fsm::Fsm;
use crate::lfsr::{Lfsr, LfsrState};
use crate::INIT_ROUNDS;

/// A 128-bit SNOW 3G key as four 32-bit words `(k0, k1, k2, k3)`.
///
/// The standard hex notation `2BD6459F82C5B300952C49104881FF48` reads
/// left to right as `k0, k1, k2, k3` (the paper recovers the key from
/// LFSR stages `s4..s7 = k0..k3`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key(pub [u32; 4]);

/// A 128-bit SNOW 3G initialization vector as four 32-bit words
/// `(iv0, iv1, iv2, iv3)`, read left to right from the hex notation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Iv(pub [u32; 4]);

impl Key {
    /// Parses a key from its 16-byte big-endian representation.
    #[must_use]
    pub fn from_bytes(b: &[u8; 16]) -> Self {
        Self(words_from_bytes(b))
    }

    /// The 16-byte big-endian representation.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 16] {
        words_to_bytes(self.0)
    }
}

impl Iv {
    /// Parses an IV from its 16-byte big-endian representation.
    #[must_use]
    pub fn from_bytes(b: &[u8; 16]) -> Self {
        Self(words_from_bytes(b))
    }

    /// The 16-byte big-endian representation.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 16] {
        words_to_bytes(self.0)
    }
}

fn words_from_bytes(b: &[u8; 16]) -> [u32; 4] {
    let mut w = [0u32; 4];
    for (i, chunk) in b.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("chunk of 4"));
    }
    w
}

fn words_to_bytes(w: [u32; 4]) -> [u8; 16] {
    let mut b = [0u8; 16];
    for (i, word) in w.iter().enumerate() {
        b[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    b
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({:08X} {:08X} {:08X} {:08X})", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08X}{:08X}{:08X}{:08X}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl fmt::Debug for Iv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Iv({:08X} {:08X} {:08X} {:08X})", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl fmt::Display for Iv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08X}{:08X}{:08X}{:08X}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// Computes the loaded LFSR state `γ(K, IV)` (spec §4.1, Section III of
/// the paper), with `1` denoting the all-1s word.
#[must_use]
pub fn gamma(key: Key, iv: Iv) -> LfsrState {
    let [k0, k1, k2, k3] = key.0;
    let [iv0, iv1, iv2, iv3] = iv.0;
    let ones = u32::MAX;
    [
        k0 ^ ones,       // s0
        k1 ^ ones,       // s1
        k2 ^ ones,       // s2
        k3 ^ ones,       // s3
        k0,              // s4
        k1,              // s5
        k2,              // s6
        k3,              // s7
        k0 ^ ones,       // s8
        k1 ^ ones ^ iv3, // s9
        k2 ^ ones ^ iv2, // s10
        k3 ^ ones,       // s11
        k0 ^ iv1,        // s12
        k1,              // s13
        k2,              // s14
        k3 ^ iv0,        // s15
    ]
}

/// The SNOW 3G stream cipher.
///
/// `new` performs the full 32-round initialization; each subsequent
/// [`Snow3g::keystream_word`] yields one 32-bit keystream word.
///
/// # Example
///
/// ```
/// use snow3g::{Key, Iv, Snow3g};
///
/// let key = Key([0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48]);
/// let iv = Iv([0xEA024714, 0xAD5C4D84, 0xDF1F9B25, 0x1C0BF45F]);
/// let z = Snow3g::new(key, iv).keystream(2);
/// assert_eq!(z, vec![0xABEE9704, 0x7AC31373]);
/// ```
#[derive(Debug, Clone)]
pub struct Snow3g {
    lfsr: Lfsr,
    fsm: Fsm,
}

impl Snow3g {
    /// Creates and initializes the cipher: loads `γ(K, IV)`, runs the
    /// 32 initialization rounds, then performs the keystream-mode
    /// transition clocking whose FSM output is discarded (spec §5.4,
    /// "the FSM is clocked once ... and the LFSR is clocked in
    /// keystream mode").
    #[must_use]
    pub fn new(key: Key, iv: Iv) -> Self {
        let mut c = Self { lfsr: Lfsr::from_state(gamma(key, iv)), fsm: Fsm::new() };
        for _ in 0..INIT_ROUNDS {
            let f = c.fsm.clock(c.lfsr.stage(15), c.lfsr.stage(5));
            c.lfsr.clock_init(f);
        }
        // Transition to keystream mode: one clocking with the FSM
        // output discarded.
        let _ = c.fsm.clock(c.lfsr.stage(15), c.lfsr.stage(5));
        c.lfsr.clock_keystream();
        c
    }

    /// Produces the next 32-bit keystream word
    /// `z = F ⊕ s₀` (spec §5.4).
    pub fn keystream_word(&mut self) -> u32 {
        let f = self.fsm.clock(self.lfsr.stage(15), self.lfsr.stage(5));
        let z = f ^ self.lfsr.stage(0);
        self.lfsr.clock_keystream();
        z
    }

    /// Produces `n` keystream words.
    pub fn keystream(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.keystream_word()).collect()
    }

    /// The current LFSR state (for analysis and testing).
    #[must_use]
    pub fn lfsr_state(&self) -> LfsrState {
        self.lfsr.state()
    }

    /// Encrypts (or, identically, decrypts) `data` in place by XORing
    /// it with the keystream, consuming one keystream word per 4 bytes
    /// (big-endian), with a final partial word for trailing bytes.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        let mut chunks = data.chunks_exact_mut(4);
        for chunk in &mut chunks {
            let z = self.keystream_word().to_be_bytes();
            for (b, k) in chunk.iter_mut().zip(z) {
                *b ^= k;
            }
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let z = self.keystream_word().to_be_bytes();
            for (b, k) in rem.iter_mut().zip(z) {
                *b ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_structure_redundancy() {
        let key = Key([1, 2, 3, 4]);
        let iv = Iv([10, 20, 30, 40]);
        let s = gamma(key, iv);
        // The redundancy exploited by key recovery: several stages are
        // forced equal by construction.
        assert_eq!(s[0], s[8]);
        assert_eq!(s[3], s[11]);
        assert_eq!(s[5], s[13]);
        assert_eq!(s[6], s[14]);
        assert_eq!(s[4], s[0] ^ u32::MAX);
        assert_eq!(s[7], s[3] ^ u32::MAX);
    }

    #[test]
    fn key_iv_byte_roundtrip() {
        let key = Key([0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48]);
        assert_eq!(Key::from_bytes(&key.to_bytes()), key);
        assert_eq!(key.to_bytes()[..4], [0x2B, 0xD6, 0x45, 0x9F], "big-endian word order");
        let iv = Iv([0xEA024714, 0xAD5C4D84, 0xDF1F9B25, 0x1C0BF45F]);
        assert_eq!(Iv::from_bytes(&iv.to_bytes()), iv);
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = Key([5, 6, 7, 8]);
        let iv = Iv([9, 10, 11, 12]);
        let mut data = b"attack at dawn - bitstreams beware".to_vec();
        let orig = data.clone();
        Snow3g::new(key, iv).apply_keystream(&mut data);
        assert_ne!(data, orig);
        Snow3g::new(key, iv).apply_keystream(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn keystream_depends_on_key_and_iv() {
        let z1 = Snow3g::new(Key([1, 2, 3, 4]), Iv([0, 0, 0, 0])).keystream(4);
        let z2 = Snow3g::new(Key([1, 2, 3, 5]), Iv([0, 0, 0, 0])).keystream(4);
        let z3 = Snow3g::new(Key([1, 2, 3, 4]), Iv([0, 0, 0, 1])).keystream(4);
        assert_ne!(z1, z2);
        assert_ne!(z1, z3);
    }

    #[test]
    fn display_formats() {
        let key = Key([0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48]);
        assert_eq!(key.to_string(), "2BD6459F82C5B300952C49104881FF48");
    }
}
