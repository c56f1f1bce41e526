//! The Fig. 1 bitstream security container: MAC-then-encrypt with the
//! authentication key stored inside the encrypted stream.
//!
//! Xilinx 7-series devices authenticate a bitstream with
//! HMAC-SHA-256 under a key `K_A`, append the MAC, then encrypt with
//! AES-256-CBC under a key `K_E` held on-chip. Crucially, `K_A`
//! itself travels *inside the encrypted bitstream* (in two places —
//! an "HMAC header" and an "HMAC footer"). The paper's attack model
//! assumes `K_E` can be recovered by a side-channel attack
//! (\[16\]–\[18\] in the paper); [`ScaOracle`] stands in for that
//! capability. Once `K_E` is known, the attacker decrypts, reads
//! `K_A`, modifies the bitstream, recomputes the MAC and re-encrypts.
//!
//! The primitives (SHA-256, HMAC, AES-256) are implemented here from
//! the FIPS specifications and pinned by standard test vectors. The
//! [`patch`] submodule builds the position-seekable CBC patch oracle
//! on top of them: it re-seals a candidate edit by touching only the
//! ciphertext blocks downstream of the edit, never the whole stream.

pub mod patch;

use core::fmt;

use crate::image::Bitstream;

// --------------------------------------------------------------------
// SHA-256
// --------------------------------------------------------------------

/// SHA-256 round constants.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 with a cloneable midstate.
///
/// The patch oracle checkpoints copies of this state at fixed
/// boundaries of the authenticated body so a candidate edit can
/// re-MAC from the nearest checkpoint instead of from byte zero.
#[derive(Clone, Copy)]
pub struct Sha256 {
    h: [u32; 8],
    /// Bytes absorbed so far (including those still buffered).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sha256(absorbed: {} bytes)", self.len)
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Starts a fresh hash.
    #[must_use]
    pub fn new() -> Self {
        Self {
            h: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // `take` drained all of `rest`, or the buffer would
                // be full — nothing left for the block loop below.
                return;
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.as_chunks::<64>();
        for block in blocks {
            self.compress(block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Pads and produces the digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        let bitlen = self.len * 8;
        // 0x80, then zeros up to 56 mod 64, then the 64-bit length.
        let zeros = (119 - self.buf_len) % 64;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bitlen.to_be_bytes());
        self.update(&pad[..9 + zeros]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (w, c) in w.iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let h = &mut self.h;
        let (mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh) =
            (h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }
}

/// Computes SHA-256 of `data`.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Streaming HMAC-SHA-256 with a cloneable midstate (the inner-hash
/// state can be checkpointed and resumed like [`Sha256`]).
#[derive(Clone, Copy)]
pub struct HmacSha256 {
    inner: Sha256,
    /// The outer hash with the opad block already absorbed, so a tag
    /// costs one compression less per container.
    outer: Sha256,
}

impl fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HmacSha256(<key material redacted>)")
    }
}

impl HmacSha256 {
    /// Starts a MAC under `key`.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h
        };
        Self { inner: keyed(0x36), outer: keyed(0x5c) }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the tag.
    #[must_use]
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// Computes HMAC-SHA-256 of `data` under `key`.
#[must_use]
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

// --------------------------------------------------------------------
// AES-256
// --------------------------------------------------------------------

/// Multiplies by `x` in GF(2⁸) modulo the AES polynomial.
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (if a & 0x80 != 0 { 0x1B } else { 0 })
}

/// Bit-serial GF(2⁸) multiplication: the generating reference for
/// every table below.
const fn gmul(a: u8, mut b: u8) -> u8 {
    let mut p = 0;
    let mut x = a;
    while b != 0 {
        if b & 1 != 0 {
            p ^= x;
        }
        x = xtime(x);
        b >>= 1;
    }
    p
}

/// The AES S-box: GF(2⁸) inversion (`a²⁵⁴`, which maps 0 to 0) then
/// the affine map — the same construction as the Rijndael S-box
/// inside SNOW 3G's S1.
const fn sbox() -> [u8; 256] {
    let mut s = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        // a^254 = a^2 · a^4 · … · a^128.
        let mut sq = gmul(i as u8, i as u8);
        let mut x = 1;
        let mut k = 1;
        while k < 8 {
            x = gmul(x, sq);
            sq = gmul(sq, sq);
            k += 1;
        }
        s[i] = x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63;
        i += 1;
    }
    s
}

/// One direction of the cipher. `t[r][x]` is the (Inv)MixColumns
/// column `r` scaled by `sbox[x]`, packed big-endian (row 0 in the top
/// byte), so one lookup per state byte fuses SubBytes and MixColumns;
/// `t[r]` is `t[0]` rotated right by `r` bytes. The last round has no
/// MixColumns and uses `sbox` alone.
struct Tables {
    sbox: [u8; 256],
    t: [[u32; 256]; 4],
}

impl Tables {
    /// Builds the tables for `sbox` and the first matrix column `col`.
    const fn new(sbox: [u8; 256], col: [u8; 4]) -> Self {
        let mut t = [[0u32; 256]; 4];
        let mut x = 0;
        while x < 256 {
            let s = sbox[x];
            let w = u32::from_be_bytes([
                gmul(s, col[0]),
                gmul(s, col[1]),
                gmul(s, col[2]),
                gmul(s, col[3]),
            ]);
            let mut r = 0;
            while r < 4 {
                t[r][x] = w.rotate_right(8 * r as u32);
                r += 1;
            }
            x += 1;
        }
        Self { sbox, t }
    }

    /// Runs the 14 rounds over `block` under round keys `rk`. The
    /// byte in row `r` of output column `j` comes from input column
    /// `j + r·STEP`: `STEP` 1 is ShiftRows, 3 is InvShiftRows.
    fn crypt<const STEP: usize>(&self, rk: &[u32; 60], block: &[u8; 16]) -> [u8; 16] {
        let mut s: [u32; 4] = core::array::from_fn(|j| {
            u32::from_be_bytes([block[4 * j], block[4 * j + 1], block[4 * j + 2], block[4 * j + 3]])
                ^ rk[j]
        });
        for round in rk[4..56].as_chunks::<4>().0 {
            s = core::array::from_fn(|j| {
                round[j]
                    ^ self.t[0][row(s[j], 0)]
                    ^ self.t[1][row(s[(j + STEP) % 4], 1)]
                    ^ self.t[2][row(s[(j + 2 * STEP) % 4], 2)]
                    ^ self.t[3][row(s[(j + 3 * STEP) % 4], 3)]
            });
        }
        let mut out = [0u8; 16];
        for (j, col) in out.chunks_exact_mut(4).enumerate() {
            let w = (0..4).fold(rk[56 + j], |acc, r| {
                acc ^ u32::from(self.sbox[row(s[(j + r * STEP) % 4], r)]) << (24 - 8 * r)
            });
            col.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// The byte in row `r` of the big-endian column word `w`.
fn row(w: u32, r: usize) -> usize {
    usize::from((w >> (24 - 8 * r)) as u8)
}

const SBOX: [u8; 256] = sbox();

/// Encryption: S-box and the MixColumns column (2, 1, 1, 3).
static ENC: Tables = Tables::new(SBOX, [2, 1, 1, 3]);

/// Decryption: S⁻¹ and the InvMixColumns column (14, 9, 13, 11).
static DEC: Tables = Tables::new(
    {
        let mut inv = [0u8; 256];
        let mut i = 0;
        while i < 256 {
            inv[SBOX[i] as usize] = i as u8;
            i += 1;
        }
        inv
    },
    [14, 9, 13, 11],
);

/// An expanded AES-256 key (15 round keys per direction).
///
/// The cipher is table-driven: every round is 16 lookups into 1 KiB
/// tables indexed by state bytes, so its cache footprint depends on
/// the key and data and it is **not constant-time**. That is
/// acceptable here only because the attacker and the device are both
/// simulated in one process; it is no model for a real decryptor.
#[derive(Clone)]
pub struct Aes256 {
    /// Encryption round keys, one big-endian column per word.
    enc: [u32; 60],
    /// Decryption round keys for the equivalent inverse cipher
    /// (FIPS-197 §5.3.5): the encryption keys in reverse round order,
    /// the inner 13 passed through InvMixColumns.
    dec: [u32; 60],
}

impl fmt::Debug for Aes256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Aes256(<key material redacted>)")
    }
}

impl Aes256 {
    /// Expands a 256-bit key.
    #[must_use]
    pub fn new(key: &[u8; 32]) -> Self {
        let sub_word = |w: u32| u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[usize::from(b)]));
        let mut enc = [0u32; 60];
        for (w, c) in enc.iter_mut().zip(key.chunks_exact(4)) {
            *w = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        let mut rcon = 1u8;
        for i in 8..60 {
            let mut temp = enc[i - 1];
            if i % 8 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ u32::from(rcon) << 24;
                rcon = xtime(rcon);
            } else if i % 8 == 4 {
                temp = sub_word(temp);
            }
            enc[i] = enc[i - 8] ^ temp;
        }
        // InvMixColumns of a word: DEC.t maps S⁻¹(x) to a column, so
        // feeding it S(x) leaves the bare column.
        let inv_mix =
            |w: u32| (0..4).fold(0, |acc, r| acc ^ DEC.t[r][usize::from(SBOX[row(w, r)])]);
        let mut dec = [0u32; 60];
        for (round, keys) in dec.chunks_exact_mut(4).enumerate() {
            let from = &enc[4 * (14 - round)..4 * (15 - round)];
            for (d, &e) in keys.iter_mut().zip(from) {
                *d = if round == 0 || round == 14 { e } else { inv_mix(e) };
            }
        }
        Self { enc, dec }
    }

    /// Encrypts one 16-byte block.
    #[must_use]
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        ENC.crypt::<1>(&self.enc, block)
    }

    /// Decrypts one 16-byte block.
    #[must_use]
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        DEC.crypt::<3>(&self.dec, block)
    }

    /// Encrypts with CBC mode and PKCS#7 padding.
    #[must_use]
    pub fn cbc_encrypt(&self, iv: &[u8; 16], plaintext: &[u8]) -> Vec<u8> {
        let pad = 16 - (plaintext.len() % 16);
        let mut data = Vec::with_capacity(plaintext.len() + pad);
        data.extend_from_slice(plaintext);
        data.extend(std::iter::repeat_n(pad as u8, pad));
        self.cbc_encrypt_in_place(iv, &mut data);
        data
    }

    /// Decrypts CBC + PKCS#7.
    ///
    /// # Errors
    ///
    /// [`CbcError::BadLength`] when the ciphertext is empty or not a
    /// multiple of the block size (a framing problem — no key was
    /// consulted); [`CbcError::BadPadding`] when decryption succeeds
    /// structurally but the PKCS#7 trailer is inconsistent (wrong key
    /// or tampered final blocks).
    pub fn cbc_decrypt(&self, iv: &[u8; 16], ciphertext: &[u8]) -> Result<Vec<u8>, CbcError> {
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(16) {
            return Err(CbcError::BadLength { len: ciphertext.len() });
        }
        let mut out = ciphertext.to_vec();
        self.cbc_decrypt_in_place(iv, &mut out);
        strip_pkcs7(&mut out)?;
        Ok(out)
    }

    /// CBC-encrypts whole blocks in place, chaining from `prev` (the
    /// IV, or the ciphertext block before `data`).
    pub(crate) fn cbc_encrypt_in_place(&self, prev: &[u8; 16], data: &mut [u8]) {
        debug_assert!(data.len().is_multiple_of(16));
        let mut prev = *prev;
        for block in data.as_chunks_mut::<16>().0 {
            for (b, p) in block.iter_mut().zip(prev) {
                *b ^= p;
            }
            prev = self.encrypt_block(block);
            *block = prev;
        }
    }

    /// CBC-decrypts whole blocks in place, chaining from `prev` (the
    /// IV, or the ciphertext block before `data`).
    pub(crate) fn cbc_decrypt_in_place(&self, prev: &[u8; 16], data: &mut [u8]) {
        debug_assert!(data.len().is_multiple_of(16));
        let mut prev = *prev;
        for block in data.as_chunks_mut::<16>().0 {
            let ct = *block;
            *block = self.decrypt_block(&ct);
            for (b, p) in block.iter_mut().zip(prev) {
                *b ^= p;
            }
            prev = ct;
        }
    }
}

/// Validates and removes PKCS#7 padding in place.
pub(crate) fn strip_pkcs7(out: &mut Vec<u8>) -> Result<(), CbcError> {
    let pad = *out.last().ok_or(CbcError::BadPadding)? as usize;
    if pad == 0 || pad > 16 || out.len() < pad {
        return Err(CbcError::BadPadding);
    }
    if !out[out.len() - pad..].iter().all(|&b| b == pad as u8) {
        return Err(CbcError::BadPadding);
    }
    out.truncate(out.len() - pad);
    Ok(())
}

/// An error from [`Aes256::cbc_decrypt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CbcError {
    /// The ciphertext length is not a non-zero multiple of the AES
    /// block size — a framing/truncation problem, detected before any
    /// key material is consulted.
    BadLength {
        /// The offending ciphertext length in bytes.
        len: usize,
    },
    /// The PKCS#7 padding did not verify after decryption — a wrong
    /// key or tampered trailing blocks.
    BadPadding,
}

impl fmt::Display for CbcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CbcError::BadLength { len } => {
                write!(f, "ciphertext length {len} is not a non-zero multiple of 16")
            }
            CbcError::BadPadding => write!(f, "pkcs#7 padding check failed"),
        }
    }
}

impl std::error::Error for CbcError {}

// --------------------------------------------------------------------
// The Fig. 1 container
// --------------------------------------------------------------------

/// Magic prefix of the authenticated payload.
pub(crate) const MAGIC: &[u8; 8] = b"XLNXSEC1";

/// A sealed (MAC-then-encrypt) bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureBitstream {
    /// The unencrypted CBC initialization vector.
    pub iv: [u8; 16],
    /// The AES-256-CBC ciphertext.
    pub ciphertext: Vec<u8>,
}

/// An error from [`SecureBitstream::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenSecureError {
    /// Decryption failed (wrong key or corrupted ciphertext); carries
    /// whether the problem was framing or padding.
    Decrypt(CbcError),
    /// The payload structure is malformed.
    Malformed,
    /// The HMAC does not verify. Reported via `BOOTSTS` in real
    /// devices.
    MacMismatch,
}

impl fmt::Display for OpenSecureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenSecureError::Decrypt(e) => write!(f, "decryption failed: {e}"),
            OpenSecureError::Malformed => write!(f, "malformed secure payload"),
            OpenSecureError::MacMismatch => write!(f, "hmac verification failed"),
        }
    }
}

impl std::error::Error for OpenSecureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpenSecureError::Decrypt(e) => Some(e),
            _ => None,
        }
    }
}

/// The decrypted contents of a secure bitstream.
#[derive(Debug, Clone)]
pub struct OpenedBitstream {
    /// The configuration bitstream.
    pub bitstream: Bitstream,
    /// The authentication key recovered from the stream — the Fig. 1
    /// design flaw the paper highlights: once `K_E` leaks, `K_A` is
    /// free.
    pub k_auth: [u8; 32],
}

impl SecureBitstream {
    /// Seals `bitstream`: authenticates with HMAC-SHA-256 under
    /// `k_auth` (storing `k_auth` in the header *and* footer, as in
    /// Fig. 1), then encrypts with AES-256-CBC under `k_enc`.
    #[must_use]
    pub fn seal(bitstream: &Bitstream, k_enc: &[u8; 32], k_auth: &[u8; 32], iv: [u8; 16]) -> Self {
        let body = bitstream.as_bytes();
        let mac = hmac_sha256(k_auth, body);
        let mut plain = Vec::with_capacity(body.len() + 128);
        plain.extend_from_slice(MAGIC);
        plain.extend_from_slice(k_auth); // HMAC header (contains K_A)
        plain.extend_from_slice(&(body.len() as u64).to_be_bytes());
        plain.extend_from_slice(body);
        plain.extend_from_slice(k_auth); // HMAC footer (contains K_A again)
        plain.extend_from_slice(&mac);
        let ciphertext = Aes256::new(k_enc).cbc_encrypt(&iv, &plain);
        Self { iv, ciphertext }
    }

    /// Decrypts and verifies, returning the bitstream and the
    /// recovered `K_A`.
    ///
    /// # Errors
    ///
    /// See [`OpenSecureError`].
    pub fn open(&self, k_enc: &[u8; 32]) -> Result<OpenedBitstream, OpenSecureError> {
        let plain = Aes256::new(k_enc)
            .cbc_decrypt(&self.iv, &self.ciphertext)
            .map_err(OpenSecureError::Decrypt)?;
        let (body, k_auth) = parse_and_verify_plain(&plain)?;
        Ok(OpenedBitstream { bitstream: Bitstream::from_bytes(plain[body].to_vec()), k_auth })
    }
}

/// Validates a decrypted container payload (structure, footer key,
/// MAC) and returns the body range plus the embedded `K_A`. Shared by
/// [`SecureBitstream::open`] and the patch oracle's slow path so both
/// agree byte-for-byte on what the device accepts.
pub(crate) fn parse_and_verify_plain(
    plain: &[u8],
) -> Result<(core::ops::Range<usize>, [u8; 32]), OpenSecureError> {
    if plain.len() < 8 + 32 + 8 + 32 + 32 || &plain[..8] != MAGIC {
        return Err(OpenSecureError::Malformed);
    }
    let mut k_auth = [0u8; 32];
    k_auth.copy_from_slice(&plain[8..40]);
    let len_bytes: [u8; 8] =
        plain.get(40..48).and_then(|s| s.try_into().ok()).ok_or(OpenSecureError::Malformed)?;
    let len = u64::from_be_bytes(len_bytes) as usize;
    let body_end = 48usize.checked_add(len).ok_or(OpenSecureError::Malformed)?;
    if plain.len() != body_end.checked_add(32 + 32).ok_or(OpenSecureError::Malformed)? {
        return Err(OpenSecureError::Malformed);
    }
    let body = &plain[48..body_end];
    let footer_key = &plain[body_end..body_end + 32];
    if footer_key != k_auth {
        return Err(OpenSecureError::Malformed);
    }
    let mac = &plain[body_end + 32..];
    if hmac_sha256(&k_auth, body) != mac[..32] {
        return Err(OpenSecureError::MacMismatch);
    }
    Ok((48..body_end, k_auth))
}

/// A model of the side-channel capability assumed by the attack
/// (paper references \[16\]–\[18\]): measuring enough power traces of the
/// decryption engine recovers the on-chip AES key `K_E`.
#[derive(Clone)]
pub struct ScaOracle {
    k_enc: [u8; 32],
    traces_needed: u32,
}

impl fmt::Debug for ScaOracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ScaOracle(traces_needed: {})", self.traces_needed)
    }
}

impl ScaOracle {
    /// Creates an oracle holding the victim's key; `traces_needed`
    /// models the measurement effort (~10⁴–10⁵ traces in the cited
    /// attacks).
    #[must_use]
    pub fn new(k_enc: [u8; 32], traces_needed: u32) -> Self {
        Self { k_enc, traces_needed }
    }

    /// Attempts key recovery with `traces` measured power traces.
    /// Returns the key once enough traces are collected.
    #[must_use]
    pub fn extract_key(&self, traces: u32) -> Option<[u8; 32]> {
        (traces >= self.traces_needed).then_some(self.k_enc)
    }

    /// The measurement effort this oracle demands before it yields
    /// the key.
    #[must_use]
    pub fn traces_needed(&self) -> u32 {
        self.traces_needed
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_vectors() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn hmac_vectors() {
        // RFC 4231 test case 2.
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // RFC 4231 test case 1.
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn aes256_fips_vector() {
        // FIPS-197 Appendix C.3.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let aes = Aes256::new(&key);
        let ct = aes.encrypt_block(&pt);
        assert_eq!(hex(&ct), "8ea2b7ca516745bfeafc49904b496089");
        assert_eq!(aes.decrypt_block(&ct), pt);
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn cbc_aes256_sp800_38a_known_answer() {
        // NIST SP 800-38A F.2.5 (encrypt) and F.2.6 (decrypt).
        let key: [u8; 32] =
            unhex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
                .try_into()
                .unwrap();
        let iv: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let pt = unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        let ct = unhex(concat!(
            "f58c4c04d6e5f1ba779eabfb5f7bfbd6",
            "9cfc4e967edb808d679f777bc6702c7d",
            "39f23369a9d9bacfa530e26304231461",
            "b2eb05e2c39be9fcda6c19078c6a9d1b",
        ));
        let aes = Aes256::new(&key);
        let sealed = aes.cbc_encrypt(&iv, &pt);
        // PKCS#7 appends a fifth, all-padding block.
        assert_eq!(sealed.len(), 80);
        assert_eq!(hex(&sealed[..64]), hex(&ct));
        let mut opened = ct.clone();
        aes.cbc_decrypt_in_place(&iv, &mut opened);
        assert_eq!(hex(&opened), hex(&pt));
        assert_eq!(aes.cbc_decrypt(&iv, &sealed).unwrap(), pt);
    }

    #[test]
    fn const_tables_match_the_bit_serial_reference() {
        for x in 0..=255u8 {
            let i = usize::from(x);
            assert_eq!(DEC.sbox[usize::from(ENC.sbox[i])], x, "S⁻¹(S({x:#04x}))");
            let s = ENC.sbox[i];
            let te = [gmul(s, 2), s, s, gmul(s, 3)];
            assert_eq!(ENC.t[0][i], u32::from_be_bytes(te), "Te0[{x:#04x}]");
            let si = DEC.sbox[i];
            let td = [gmul(si, 14), gmul(si, 9), gmul(si, 13), gmul(si, 11)];
            assert_eq!(DEC.t[0][i], u32::from_be_bytes(td), "Td0[{x:#04x}]");
            for r in 1..4 {
                assert_eq!(ENC.t[r][i], ENC.t[0][i].rotate_right(8 * r as u32));
                assert_eq!(DEC.t[r][i], DEC.t[0][i].rotate_right(8 * r as u32));
            }
        }
        assert_eq!([SBOX[0x00], SBOX[0x01], SBOX[0x53]], [0x63, 0x7c, 0xed]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn aes_and_cbc_round_trip(
            key in any::<[u8; 32]>(),
            iv in any::<[u8; 16]>(),
            block in any::<[u8; 16]>(),
            msg in prop::collection::vec(any::<u8>(), 0..300),
        ) {
            let aes = Aes256::new(&key);
            prop_assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
            let ct = aes.cbc_encrypt(&iv, &msg);
            prop_assert_eq!(ct.len(), (msg.len() / 16 + 1) * 16);
            prop_assert_eq!(aes.cbc_decrypt(&iv, &ct).unwrap(), msg);
        }
    }

    #[test]
    fn cbc_roundtrip_various_lengths() {
        let key = [7u8; 32];
        let iv = [9u8; 16];
        let aes = Aes256::new(&key);
        for len in [0usize, 1, 15, 16, 17, 100, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let ct = aes.cbc_encrypt(&iv, &msg);
            assert_eq!(ct.len() % 16, 0);
            assert_eq!(aes.cbc_decrypt(&iv, &ct).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn cbc_rejects_tampered_padding() {
        let key = [1u8; 32];
        let iv = [2u8; 16];
        let aes = Aes256::new(&key);
        let ct = aes.cbc_encrypt(&iv, b"hello");
        // Truncation is a framing error, caught before decryption.
        assert_eq!(
            aes.cbc_decrypt(&iv, &ct[..ct.len() - 1]),
            Err(CbcError::BadLength { len: ct.len() - 1 })
        );
        assert_eq!(aes.cbc_decrypt(&iv, &[]), Err(CbcError::BadLength { len: 0 }));
        // A wrong key decrypts to garbage: structurally fine, padding
        // almost surely wrong — and distinguishable from framing.
        let wrong = Aes256::new(&[3u8; 32]);
        assert_eq!(wrong.cbc_decrypt(&iv, &ct), Err(CbcError::BadPadding));
    }

    #[test]
    fn streaming_sha256_matches_oneshot_at_all_split_points() {
        let msg: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        let want = sha256(&msg);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            // The clone is a midstate: resuming it must not disturb
            // the original semantics.
            let mut resumed = h;
            resumed.update(&msg[split..]);
            assert_eq!(resumed.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn streaming_hmac_matches_oneshot() {
        let msg: Vec<u8> = (0..517u32).map(|i| (i * 11 % 256) as u8).collect();
        let want = hmac_sha256(b"a key", &msg);
        let mut mac = HmacSha256::new(b"a key");
        mac.update(&msg[..129]);
        let checkpoint = mac;
        mac.update(&msg[129..]);
        assert_eq!(mac.finalize(), want);
        let mut resumed = checkpoint;
        resumed.update(&msg[129..]);
        assert_eq!(resumed.finalize(), want);
    }

    #[test]
    fn seal_open_roundtrip() {
        let bs = Bitstream::from_bytes((0..512u32).map(|i| (i % 256) as u8).collect());
        let k_enc = [0xE1; 32];
        let k_auth = [0xA2; 32];
        let sealed = SecureBitstream::seal(&bs, &k_enc, &k_auth, [3; 16]);
        let opened = sealed.open(&k_enc).expect("opens");
        assert_eq!(opened.bitstream, bs);
        assert_eq!(opened.k_auth, k_auth, "K_A recovered from the stream");
    }

    #[test]
    fn wrong_key_fails() {
        let bs = Bitstream::from_bytes(vec![1, 2, 3, 4]);
        let sealed = SecureBitstream::seal(&bs, &[5; 32], &[6; 32], [7; 16]);
        assert!(sealed.open(&[0; 32]).is_err());
    }

    #[test]
    fn tampered_ciphertext_fails_mac_or_structure() {
        let bs = Bitstream::from_bytes(vec![0xAB; 256]);
        let k_enc = [5; 32];
        let mut sealed = SecureBitstream::seal(&bs, &k_enc, &[6; 32], [7; 16]);
        // Flip one bit in a body block (CBC garbles one block and
        // bit-flips the next; HMAC must catch it).
        let mid = sealed.ciphertext.len() / 2;
        sealed.ciphertext[mid] ^= 1;
        assert!(sealed.open(&k_enc).is_err());
    }

    #[test]
    fn sca_oracle_thresholds() {
        let oracle = ScaOracle::new([9; 32], 50_000);
        assert_eq!(oracle.extract_key(10_000), None);
        assert_eq!(oracle.extract_key(50_000), Some([9; 32]));
    }
}
