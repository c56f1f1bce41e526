//! The position-seekable CBC patch oracle.
//!
//! A 545-load attack over the Fig. 1 container must re-seal one
//! candidate edit per load. Re-running [`SecureBitstream::seal`] would
//! decrypt, re-MAC and re-encrypt the *whole* stream every time; the
//! [`PatchOracle`] instead pays once to open the golden container and
//! cache its plaintext, ciphertext and HMAC midstates, after which
//! each candidate costs crypto work proportional to the **dirty
//! window** only (see below). This is the same trick xous-core's
//! restartable `BitstreamOracle` plays on real 7-series streams: CBC
//! is position-seekable, so there is no reason to touch clean blocks.
//!
//! # Block/frame geometry
//!
//! The sealed plaintext is laid out as
//!
//! ```text
//! offset   0        8        40       48        48+n     80+n   112+n
//!          | MAGIC  |  K_A   | len(n) |  body   |  K_A   | MAC  | pad
//! CBC blk  |----- blocks 0..2 ------->|-- blk 3 + p/16 --...
//! ```
//!
//! The 48-byte header is exactly three AES blocks, so bitstream byte
//! `p` lives in plaintext block `3 + p/16`. A frame-word edit at byte
//! `p` therefore dirties plaintext from block `⌊(48+p)/16⌋` onward.
//!
//! # Dirty-window rules
//!
//! * **Decrypt** — never: the golden plaintext is cached at
//!   construction. The *device-side* seekable verifier
//!   ([`PatchOracle::open_patched`]) decrypts only the ciphertext
//!   blocks that differ from the cached golden container (CBC
//!   decryption is random-access: block `i` depends only on
//!   ciphertext blocks `i-1` and `i`).
//! * **CRC** — repaired in O(changed words × log stream) via
//!   [`DeltaCrc`], never by re-walking the packet stream.
//! * **MAC** — HMAC-SHA-256 inner-hash midstates are checkpointed
//!   every [`MIDSTATE_STRIDE`] body bytes; a re-MAC resumes from the
//!   last checkpoint before the first edited byte and absorbs only
//!   the suffix.
//! * **Re-encrypt** — CBC chains forward, so every ciphertext block
//!   from the first dirty block to the end of the stream changes (the
//!   MAC and footer live in the trailing blocks and are always dirty
//!   anyway). Blocks *before* the first dirty block are reused
//!   byte-for-byte from the golden ciphertext — the clean prefix is
//!   the saved work, and for edits uniformly placed in the stream it
//!   averages half the container on top of skipping the decrypt
//!   entirely.
//!
//! Plain `memcpy` of cached bytes is not counted against the budget —
//! only AES and SHA-256 work scales with the container, and both are
//! confined to the dirty window.

use core::cell::Cell;
use core::fmt;
use core::ops::Range;

use crate::delta::DeltaCrc;
use crate::image::Bitstream;

use super::{
    parse_and_verify_plain, strip_pkcs7, Aes256, HmacSha256, OpenSecureError, SecureBitstream,
};

/// Plaintext offset where the bitstream body starts (3 CBC blocks of
/// header: magic, K_A, length).
pub const BODY_OFFSET: usize = 48;

/// Body bytes between consecutive HMAC inner-hash checkpoints. A
/// multiple of the SHA-256 block size so checkpoints carry no partial
/// buffer.
pub const MIDSTATE_STRIDE: usize = 1024;

/// A contiguous, length-preserving byte splice into the bitstream
/// body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BodyEdit {
    /// Byte offset into the bitstream body.
    pub offset: usize,
    /// Replacement bytes (the edit cannot grow or shrink the body —
    /// CBC geometry is fixed at seal time).
    pub bytes: Vec<u8>,
}

impl BodyEdit {
    /// Convenience constructor.
    #[must_use]
    pub fn new(offset: usize, bytes: Vec<u8>) -> Self {
        Self { offset, bytes }
    }
}

/// An error from the patch paths.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PatchError {
    /// An edit extends past the end of the body.
    OutOfRange {
        /// The edit's byte offset.
        offset: usize,
        /// The edit's length.
        len: usize,
        /// The body length it overran.
        body: usize,
    },
    /// Two edits overlap (the result would depend on application
    /// order).
    Overlap {
        /// Offset of the second edit of the overlapping pair.
        offset: usize,
    },
    /// A variant bitstream changed length; CBC geometry is fixed at
    /// seal time, so only same-length variants can be patched.
    LengthChanged {
        /// The variant's length.
        got: usize,
        /// The golden length.
        want: usize,
    },
    /// CRC repair was requested but the golden stream has no
    /// [`DeltaCrc`]-coverable FDRI payload (no payload, or a stream
    /// shape the delta model declines).
    CrcUnrepairable,
    /// A CRC-repaired edit fell outside the FDRI payload, where the
    /// delta model cannot price its CRC contribution.
    OutsidePayload {
        /// The offending edit's byte offset.
        offset: usize,
    },
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::OutOfRange { offset, len, body } => {
                write!(f, "edit at {offset}+{len} overruns the {body}-byte body")
            }
            PatchError::Overlap { offset } => write!(f, "overlapping edit at offset {offset}"),
            PatchError::LengthChanged { got, want } => {
                write!(f, "variant is {got} bytes, sealed geometry is fixed at {want}")
            }
            PatchError::CrcUnrepairable => {
                write!(f, "no delta-CRC coverage: the stream has no analyzable FDRI payload")
            }
            PatchError::OutsidePayload { offset } => {
                write!(f, "edit at offset {offset} is outside the FDRI payload")
            }
        }
    }
}

impl std::error::Error for PatchError {}

/// Cumulative crypto-work accounting for one oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PatchStats {
    /// Containers produced by the patch paths.
    pub patches: u64,
    /// AES blocks re-encrypted (the dirty window).
    pub blocks_reencrypted: u64,
    /// AES blocks reused from the golden ciphertext (the clean
    /// prefix).
    pub blocks_reused: u64,
    /// Body bytes re-absorbed into HMAC past the nearest checkpoint.
    pub mac_bytes: u64,
    /// Seekable device-side opens served.
    pub opens: u64,
    /// AES blocks decrypted by seekable opens.
    pub blocks_decrypted: u64,
    /// AES blocks a seekable open reused from the cached plaintext.
    pub open_blocks_reused: u64,
    /// Seekable opens that fell back to a full decrypt (different IV,
    /// different length, or a dirty header).
    pub full_opens: u64,
}

/// A position-seekable patch-and-verify oracle over one golden sealed
/// container. See the module docs for the geometry and the
/// dirty-window rules.
pub struct PatchOracle {
    aes: Aes256,
    iv: [u8; 16],
    /// K_A as embedded in the container's header and footer.
    k_auth: [u8; 32],
    /// Key used to recompute the MAC of a patched body. Equals
    /// `k_auth` unless overridden via [`PatchOracle::with_mac_key`]
    /// (modelling an attacker guessing K_A instead of reading it).
    mac_key: [u8; 32],
    /// The unpadded golden plaintext (header ‖ body ‖ footer ‖ MAC).
    plain: Vec<u8>,
    /// The golden ciphertext (PKCS#7 padded length).
    golden_ct: Vec<u8>,
    /// The golden body parsed as a bitstream.
    golden: Bitstream,
    /// HMAC inner midstates under `mac_key`: entry `i` has absorbed
    /// the first `i·MIDSTATE_STRIDE` body bytes.
    mac_midstates: Vec<HmacSha256>,
    /// HMAC inner midstates under the embedded `k_auth`, for the
    /// device-side seekable verify.
    auth_midstates: Vec<HmacSha256>,
    /// Delta-CRC analysis of the golden stream, when coverable.
    delta: Option<DeltaCrc>,
    /// The FDRI payload range, when present.
    payload: Option<Range<usize>>,
    stats: Cell<PatchStats>,
}

impl fmt::Debug for PatchOracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PatchOracle(body: {} bytes, container: {} blocks, delta-crc: {})",
            self.golden.len(),
            self.golden_ct.len() / 16,
            self.delta.is_some(),
        )
    }
}

impl PatchOracle {
    /// Opens `sealed` under `k_enc` (one full decrypt + verify — the
    /// only whole-container crypto this oracle ever performs) and
    /// builds the caches.
    ///
    /// # Errors
    ///
    /// Exactly [`SecureBitstream::open`]'s errors: the oracle refuses
    /// containers the device would refuse.
    pub fn new(sealed: &SecureBitstream, k_enc: &[u8; 32]) -> Result<Self, OpenSecureError> {
        let aes = Aes256::new(k_enc);
        let plain =
            aes.cbc_decrypt(&sealed.iv, &sealed.ciphertext).map_err(OpenSecureError::Decrypt)?;
        let (body_range, k_auth) = parse_and_verify_plain(&plain)?;
        let golden = Bitstream::from_bytes(plain[body_range.clone()].to_vec());
        let payload = golden.fdri_data_range();
        let delta = payload.as_ref().and_then(|p| DeltaCrc::analyze(&golden, p));
        let midstates = Self::build_midstates(&k_auth, golden.as_bytes());
        Ok(Self {
            aes,
            iv: sealed.iv,
            k_auth,
            mac_key: k_auth,
            golden_ct: sealed.ciphertext.clone(),
            golden,
            mac_midstates: midstates.clone(),
            auth_midstates: midstates,
            delta,
            payload,
            plain,
            stats: Cell::new(PatchStats::default()),
        })
    }

    /// Replaces the re-MAC key — modelling an attacker who *guessed*
    /// K_A instead of reading it from the opened container. The
    /// embedded header/footer keys are left untouched, so a wrong
    /// guess yields containers the device rejects with
    /// [`OpenSecureError::MacMismatch`].
    #[must_use]
    pub fn with_mac_key(mut self, key: [u8; 32]) -> Self {
        self.mac_key = key;
        self.mac_midstates = Self::build_midstates(&key, self.golden.as_bytes());
        self
    }

    /// The golden bitstream recovered from the container — the only
    /// plaintext source an encrypted-path attack works from.
    #[must_use]
    pub fn golden(&self) -> &Bitstream {
        &self.golden
    }

    /// The authentication key read from the opened container (the
    /// Fig. 1 design flaw: once `K_E` leaks, `K_A` is free).
    #[must_use]
    pub fn k_auth(&self) -> [u8; 32] {
        self.k_auth
    }

    /// The golden sealed container (byte-identical to the input).
    #[must_use]
    pub fn golden_container(&self) -> SecureBitstream {
        SecureBitstream { iv: self.iv, ciphertext: self.golden_ct.clone() }
    }

    /// Cumulative crypto-work accounting.
    #[must_use]
    pub fn stats(&self) -> PatchStats {
        self.stats.get()
    }

    fn build_midstates(key: &[u8; 32], body: &[u8]) -> Vec<HmacSha256> {
        let mut mac = HmacSha256::new(key);
        let mut states = Vec::with_capacity(body.len() / MIDSTATE_STRIDE + 1);
        states.push(mac);
        for chunk in body.chunks(MIDSTATE_STRIDE) {
            mac.update(chunk);
            if chunk.len() == MIDSTATE_STRIDE {
                states.push(mac);
            }
        }
        states
    }

    /// Seals a candidate variant of the golden bitstream, re-touching
    /// only the dirty window. The variant must be the same length and
    /// carry its own valid config CRC (the attack's candidate forge
    /// already delta-patches it); use
    /// [`PatchOracle::patch_payload_edits`] to have the oracle repair
    /// the CRC itself.
    ///
    /// # Errors
    ///
    /// [`PatchError::LengthChanged`] on a length-changing variant.
    pub fn patch_bitstream(&self, variant: &Bitstream) -> Result<SecureBitstream, PatchError> {
        if variant.len() != self.golden.len() {
            return Err(PatchError::LengthChanged { got: variant.len(), want: self.golden.len() });
        }
        let diff = self.golden.diff(variant);
        match diff.first() {
            None => {
                // Unchanged: the golden container is already sealed.
                let mut stats = self.stats.get();
                stats.patches += 1;
                stats.blocks_reused += (self.golden_ct.len() / 16) as u64;
                self.stats.set(stats);
                Ok(self.golden_container())
            }
            Some(first) => Ok(self.reseal(variant.as_bytes(), first.start)),
        }
    }

    /// Applies raw body edits (caller-supplied CRC) and seals.
    ///
    /// # Errors
    ///
    /// [`PatchError::OutOfRange`] / [`PatchError::Overlap`] on
    /// malformed edit lists.
    pub fn patch_edits(&self, edits: &[BodyEdit]) -> Result<SecureBitstream, PatchError> {
        let Some(first_changed) = self.check_edits(edits)? else {
            return self.patch_bitstream(&self.golden.clone());
        };
        let mut body = self.golden.as_bytes().to_vec();
        for e in edits {
            body[e.offset..e.offset + e.bytes.len()].copy_from_slice(&e.bytes);
        }
        Ok(self.reseal(&body, first_changed))
    }

    /// Applies frame-payload edits, repairs the config CRC via the
    /// cached [`DeltaCrc`] analysis, and seals — the candidate-LUT
    /// fast path: the caller supplies only the LUT delta and the
    /// oracle prices the CRC in O(changed words × log stream).
    ///
    /// # Errors
    ///
    /// [`PatchError::CrcUnrepairable`] when the golden stream has no
    /// delta-coverable payload, [`PatchError::OutsidePayload`] when an
    /// edit leaves it, plus the edit-list errors of
    /// [`PatchOracle::patch_edits`].
    pub fn patch_payload_edits(&self, edits: &[BodyEdit]) -> Result<SecureBitstream, PatchError> {
        let (Some(delta), Some(payload)) = (&self.delta, &self.payload) else {
            return Err(PatchError::CrcUnrepairable);
        };
        let Some(first_edit) = self.check_edits(edits)? else {
            return self.patch_bitstream(&self.golden.clone());
        };
        let mut words: Vec<usize> = Vec::new();
        for e in edits {
            if e.offset < payload.start || e.offset + e.bytes.len() > payload.end {
                return Err(PatchError::OutsidePayload { offset: e.offset });
            }
            let first_word = (e.offset - payload.start) / 4;
            let last_word = (e.offset + e.bytes.len() - 1 - payload.start) / 4;
            words.extend(first_word..=last_word);
        }
        words.sort_unstable();
        words.dedup();
        let mut body = self.golden.as_bytes().to_vec();
        for e in edits {
            body[e.offset..e.offset + e.bytes.len()].copy_from_slice(&e.bytes);
        }
        delta.patch(self.golden.as_bytes(), &mut body, payload.start, &words);
        let first_changed = if self.golden.as_bytes()
            [delta.crc_value_at()..delta.crc_value_at() + 4]
            == body[delta.crc_value_at()..delta.crc_value_at() + 4]
        {
            first_edit
        } else {
            first_edit.min(delta.crc_value_at())
        };
        Ok(self.reseal(&body, first_changed))
    }

    /// Validates an edit list; returns the first changed body offset,
    /// or `None` for an empty list.
    fn check_edits(&self, edits: &[BodyEdit]) -> Result<Option<usize>, PatchError> {
        let body = self.golden.len();
        for e in edits {
            if e.offset + e.bytes.len() > body {
                return Err(PatchError::OutOfRange { offset: e.offset, len: e.bytes.len(), body });
            }
        }
        let mut spans: Vec<(usize, usize)> =
            edits.iter().map(|e| (e.offset, e.offset + e.bytes.len())).collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(PatchError::Overlap { offset: pair[1].0 });
            }
        }
        Ok(spans.first().map(|&(start, _)| start))
    }

    /// Seals `body` (a same-length variant of the golden body whose
    /// bytes before `first_changed` equal the golden's), re-encrypting
    /// only from the first dirty CBC block and re-MACing from the
    /// nearest midstate checkpoint.
    fn reseal(&self, body: &[u8], first_changed: usize) -> SecureBitstream {
        debug_assert_eq!(body.len(), self.golden.len());
        debug_assert_eq!(body[..first_changed], self.golden.as_bytes()[..first_changed]);

        // Incremental re-MAC: resume the inner hash at the last
        // checkpoint before the edit.
        let ckpt = (first_changed / MIDSTATE_STRIDE).min(self.mac_midstates.len() - 1);
        let mut mac = self.mac_midstates[ckpt];
        mac.update(&body[ckpt * MIDSTATE_STRIDE..]);
        let mac = mac.finalize();

        // The dirty window starts at the CBC block holding the first
        // changed plaintext byte and runs to the end of the stream:
        // reuse the clean ciphertext prefix, then CBC forward from its
        // last block over the new plaintext tail.
        let first_plain = BODY_OFFSET + first_changed;
        let tail_start = first_plain - first_plain % 16;
        let pad = 16 - self.plain.len() % 16;
        let mut ciphertext = Vec::with_capacity(self.golden_ct.len());
        ciphertext.extend_from_slice(&self.golden_ct[..tail_start]);
        ciphertext.extend_from_slice(&body[tail_start - BODY_OFFSET..]);
        ciphertext.extend_from_slice(&self.k_auth);
        ciphertext.extend_from_slice(&mac);
        ciphertext.extend(core::iter::repeat_n(pad as u8, pad));
        debug_assert_eq!(ciphertext.len(), self.golden_ct.len());
        let (prefix, tail) = ciphertext.split_at_mut(tail_start);
        let prev = prefix.last_chunk::<16>().expect("the header is three blocks");
        self.aes.cbc_encrypt_in_place(prev, tail);

        let mut stats = self.stats.get();
        stats.patches += 1;
        stats.blocks_reencrypted += (tail.len() / 16) as u64;
        stats.blocks_reused += (tail_start / 16) as u64;
        stats.mac_bytes += (body.len() - ckpt * MIDSTATE_STRIDE) as u64;
        self.stats.set(stats);

        SecureBitstream { iv: self.iv, ciphertext }
    }

    /// Device-side seekable open: decrypts and verifies `sealed`
    /// against the cached golden container, decrypting only the
    /// ciphertext blocks that differ and resuming the MAC from the
    /// nearest checkpoint. Byte-identical in outcome to
    /// [`SecureBitstream::open`] under the construction key; falls
    /// back to the full open on containers that changed IV, length or
    /// header blocks.
    ///
    /// # Errors
    ///
    /// Exactly [`SecureBitstream::open`]'s errors.
    pub fn open_patched(&self, sealed: &SecureBitstream) -> Result<Bitstream, OpenSecureError> {
        if sealed.iv != self.iv || sealed.ciphertext.len() != self.golden_ct.len() {
            return self.open_full(sealed);
        }
        let ct = &sealed.ciphertext;
        let first_dirty = (0..ct.len() / 16)
            .find(|&b| ct[b * 16..b * 16 + 16] != self.golden_ct[b * 16..b * 16 + 16]);
        let Some(fd) = first_dirty else {
            // The golden container itself.
            let mut stats = self.stats.get();
            stats.opens += 1;
            stats.open_blocks_reused += (ct.len() / 16) as u64;
            self.stats.set(stats);
            return Ok(self.golden.clone());
        };
        if fd < BODY_OFFSET / 16 {
            // Header blocks touched: no clean prefix to lean on.
            return self.open_full(sealed);
        }

        // Seek-decrypt the dirty suffix (CBC block `i` needs only
        // ciphertext blocks `i-1` and `i`) after the cached clean
        // plaintext prefix.
        let mut plain = Vec::with_capacity(ct.len());
        plain.extend_from_slice(&self.plain[..fd * 16]);
        plain.extend_from_slice(&ct[fd * 16..]);
        let prev = ct[..fd * 16].last_chunk::<16>().expect("the header is three blocks");
        self.aes.cbc_decrypt_in_place(prev, &mut plain[fd * 16..]);
        strip_pkcs7(&mut plain).map_err(OpenSecureError::Decrypt)?;

        // The length field sits in the (unchanged) header, so the
        // total must still match the golden geometry.
        if plain.len() != self.plain.len() {
            return Err(OpenSecureError::Malformed);
        }
        let n = self.golden.len();
        let body = &plain[BODY_OFFSET..BODY_OFFSET + n];
        let footer = &plain[BODY_OFFSET + n..BODY_OFFSET + n + 32];
        if footer != self.k_auth {
            return Err(OpenSecureError::Malformed);
        }
        let stored_mac = &plain[BODY_OFFSET + n + 32..];

        // Seekable verify under the *embedded* K_A: resume from the
        // last checkpoint before the first dirty body byte.
        let first_changed_body = (fd * 16).saturating_sub(BODY_OFFSET).min(n);
        let ckpt = (first_changed_body / MIDSTATE_STRIDE).min(self.auth_midstates.len() - 1);
        let mut mac = self.auth_midstates[ckpt];
        mac.update(&body[ckpt * MIDSTATE_STRIDE..]);
        if mac.finalize() != stored_mac[..32] {
            return Err(OpenSecureError::MacMismatch);
        }

        let mut stats = self.stats.get();
        stats.opens += 1;
        stats.blocks_decrypted += (ct.len() / 16 - fd) as u64;
        stats.open_blocks_reused += fd as u64;
        self.stats.set(stats);
        Ok(Bitstream::from_bytes(body.to_vec()))
    }

    /// Seals an arbitrary body — a *partial* bitstream, whose length
    /// has nothing to do with the golden container — into a fresh
    /// Fig. 1 container under the oracle's keys. Partial streams are a
    /// few frames long, so there is no clean prefix to reuse: the
    /// whole (small) container is MACed and encrypted, and the work is
    /// charged to the same counters as a patch.
    ///
    /// The MAC is computed under the oracle's re-MAC key (normally the
    /// embedded `K_A`; a [`PatchOracle::with_mac_key`] guess produces
    /// containers the device rejects, exactly like the full-load
    /// path).
    #[must_use]
    pub fn seal_fresh(&self, body: &[u8]) -> SecureBitstream {
        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(body);
        let mac = mac.finalize();
        let mut plain = Vec::with_capacity(body.len() + 128);
        plain.extend_from_slice(crate::secure::MAGIC);
        plain.extend_from_slice(&self.k_auth);
        plain.extend_from_slice(&(body.len() as u64).to_be_bytes());
        plain.extend_from_slice(body);
        plain.extend_from_slice(&self.k_auth);
        plain.extend_from_slice(&mac);
        let ciphertext = self.aes.cbc_encrypt(&self.iv, &plain);
        let mut stats = self.stats.get();
        stats.patches += 1;
        stats.blocks_reencrypted += (ciphertext.len() / 16) as u64;
        stats.mac_bytes += body.len() as u64;
        self.stats.set(stats);
        SecureBitstream { iv: self.iv, ciphertext }
    }

    /// Device-side open of a fresh (non-golden-geometry) container:
    /// full decrypt + structural + `K_A` + MAC verification, exactly
    /// as [`SecureBitstream::open`] under the construction key.
    /// Returns the raw body bytes.
    ///
    /// # Errors
    ///
    /// Exactly [`SecureBitstream::open`]'s errors.
    pub fn open_fresh(&self, sealed: &SecureBitstream) -> Result<Vec<u8>, OpenSecureError> {
        let plain = self
            .aes
            .cbc_decrypt(&sealed.iv, &sealed.ciphertext)
            .map_err(OpenSecureError::Decrypt)?;
        let (body_range, _) = parse_and_verify_plain(&plain)?;
        let mut stats = self.stats.get();
        stats.opens += 1;
        stats.full_opens += 1;
        stats.blocks_decrypted += (sealed.ciphertext.len() / 16) as u64;
        self.stats.set(stats);
        Ok(plain[body_range].to_vec())
    }

    /// The slow-path open under the construction key, for containers
    /// the seekable path cannot relate to the golden one.
    fn open_full(&self, sealed: &SecureBitstream) -> Result<Bitstream, OpenSecureError> {
        let plain = self
            .aes
            .cbc_decrypt(&sealed.iv, &sealed.ciphertext)
            .map_err(OpenSecureError::Decrypt)?;
        let (body_range, _) = parse_and_verify_plain(&plain)?;
        let mut stats = self.stats.get();
        stats.opens += 1;
        stats.full_opens += 1;
        stats.blocks_decrypted += (sealed.ciphertext.len() / 16) as u64;
        self.stats.set(stats);
        Ok(Bitstream::from_bytes(plain[body_range].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameData;
    use crate::image::BitstreamBuilder;

    const K_ENC: [u8; 32] = [0xE1; 32];
    const K_AUTH: [u8; 32] = [0xA2; 32];
    const IV: [u8; 16] = [0x35; 16];

    fn sample(frames: usize, seed: u64) -> Bitstream {
        let mut data = FrameData::new(frames);
        let mut x = seed | 1;
        for b in data.as_mut_bytes() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        BitstreamBuilder::new(data).build()
    }

    fn oracle(frames: usize, seed: u64) -> (Bitstream, PatchOracle) {
        let golden = sample(frames, seed);
        let sealed = SecureBitstream::seal(&golden, &K_ENC, &K_AUTH, IV);
        let oracle = PatchOracle::new(&sealed, &K_ENC).expect("golden container opens");
        (golden, oracle)
    }

    #[test]
    fn construction_recovers_golden_and_k_auth() {
        let (golden, oracle) = oracle(4, 1);
        assert_eq!(oracle.golden(), &golden);
        assert_eq!(oracle.k_auth(), K_AUTH);
        assert_eq!(oracle.golden_container(), SecureBitstream::seal(&golden, &K_ENC, &K_AUTH, IV));
    }

    #[test]
    fn patched_container_equals_full_reseal() {
        let (golden, oracle) = oracle(4, 2);
        let payload = golden.fdri_data_range().expect("payload");
        for offset in [payload.start, payload.start + 1021, payload.end - 4, 0, golden.len() - 1] {
            let mut variant = golden.clone();
            variant.as_mut_bytes()[offset] ^= 0x5A;
            let patched = oracle.patch_bitstream(&variant).expect("patches");
            let resealed = SecureBitstream::seal(&variant, &K_ENC, &K_AUTH, IV);
            assert_eq!(patched, resealed, "offset {offset}");
            // And the device accepts it.
            let opened = patched.open(&K_ENC).expect("device opens");
            assert_eq!(opened.bitstream, variant);
        }
    }

    #[test]
    fn fresh_container_round_trips_and_matches_full_seal() {
        let (_, oracle) = oracle(4, 7);
        // A short body (a partial stream is a few hundred bytes, not a
        // whole configuration) seals into a device-valid container.
        let body: Vec<u8> = (0u16..600).map(|i| (i * 7) as u8).collect();
        let fresh = oracle.seal_fresh(&body);
        assert_eq!(
            fresh,
            SecureBitstream::seal(&Bitstream::from_bytes(body.clone()), &K_ENC, &K_AUTH, IV),
            "a fresh seal is byte-identical to the vendor sealer"
        );
        assert_eq!(oracle.open_fresh(&fresh).expect("device opens"), body);
        // The full-container open agrees too.
        assert_eq!(fresh.open(&K_ENC).expect("opens").bitstream.as_bytes(), &body[..]);
    }

    #[test]
    fn fresh_container_under_wrong_mac_key_is_refused() {
        let (_, oracle) = oracle(4, 8);
        let oracle = oracle.with_mac_key([0x77; 32]);
        let fresh = oracle.seal_fresh(&[1, 2, 3, 4]);
        assert_eq!(oracle.open_fresh(&fresh), Err(OpenSecureError::MacMismatch));
        assert!(matches!(fresh.open(&K_ENC), Err(OpenSecureError::MacMismatch)));
    }

    #[test]
    fn patch_reuses_clean_prefix_blocks() {
        let (golden, oracle) = oracle(8, 3);
        let offset = golden.len() - 64;
        let mut variant = golden.clone();
        variant.as_mut_bytes()[offset] ^= 1;
        let before = oracle.stats();
        let patched = oracle.patch_bitstream(&variant).expect("patches");
        let stats = oracle.stats();
        let total_blocks = (patched.ciphertext.len() / 16) as u64;
        let dirty = stats.blocks_reencrypted - before.blocks_reencrypted;
        let clean = stats.blocks_reused - before.blocks_reused;
        assert_eq!(dirty + clean, total_blocks);
        assert!(
            dirty < total_blocks / 4,
            "a tail edit must not re-encrypt the stream: {dirty}/{total_blocks}"
        );
        // Clean prefix is byte-identical to the golden ciphertext.
        let golden_ct = oracle.golden_container().ciphertext;
        let split = (clean as usize) * 16;
        assert_eq!(patched.ciphertext[..split], golden_ct[..split]);
    }

    #[test]
    fn payload_edit_mode_repairs_crc() {
        let (golden, oracle) = oracle(4, 4);
        let payload = golden.fdri_data_range().expect("payload");
        let edit = BodyEdit::new(payload.start + 128, vec![0xDE, 0xAD, 0xBE, 0xEF]);
        let patched = oracle.patch_payload_edits(std::slice::from_ref(&edit)).expect("patches");
        let opened = patched.open(&K_ENC).expect("device opens: CRC was repaired");
        assert!(opened.bitstream.parse().expect("parses").crc_checked);
        assert_eq!(
            &opened.bitstream.as_bytes()[payload.start + 128..payload.start + 132],
            &[0xDE, 0xAD, 0xBE, 0xEF],
        );
        // Raw mode with the same edit and no CRC repair is refused by
        // the device model's parser.
        let raw = oracle.patch_edits(&[edit]).expect("raw mode seals");
        let opened_raw =
            raw.open(&K_ENC).expect("MAC still verifies — raw mode MACs what it is given");
        assert!(matches!(
            opened_raw.bitstream.parse(),
            Err(crate::image::ParseBitstreamError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn open_patched_matches_full_open() {
        let (golden, oracle) = oracle(4, 5);
        let mut variant = golden.clone();
        let mid = golden.len() / 2;
        variant.as_mut_bytes()[mid] ^= 0xF0;
        let patched = oracle.patch_bitstream(&variant).expect("patches");
        assert_eq!(oracle.open_patched(&patched).expect("seekable open"), variant);
        // Golden container short-circuits.
        assert_eq!(oracle.open_patched(&oracle.golden_container()).expect("golden opens"), golden);
        let stats = oracle.stats();
        assert_eq!(stats.full_opens, 0, "no fallback needed");
        assert!(stats.blocks_decrypted < (patched.ciphertext.len() / 16) as u64);
    }

    #[test]
    fn open_patched_rejects_what_open_rejects() {
        let (_, oracle) = oracle(4, 6);
        let golden_ct = oracle.golden_container();
        // Garble a body block: both paths must agree on the error.
        for at in [60usize, 300, 1000] {
            let mut tampered = golden_ct.clone();
            tampered.ciphertext[at] ^= 1;
            let full = tampered.open(&K_ENC).expect_err("tampered");
            let seek = oracle.open_patched(&tampered).expect_err("tampered");
            assert_eq!(seek, full, "byte {at}");
        }
        // Truncated container falls back to the full path's error.
        let mut short = golden_ct.clone();
        short.ciphertext.truncate(short.ciphertext.len() - 7);
        assert_eq!(
            oracle.open_patched(&short).expect_err("truncated"),
            short.open(&K_ENC).expect_err("truncated"),
        );
    }

    #[test]
    fn wrong_mac_key_is_rejected_by_the_device() {
        let (golden, oracle) = oracle(4, 7);
        let oracle = oracle.with_mac_key([0x13; 32]);
        let mut variant = golden.clone();
        variant.as_mut_bytes()[100] ^= 1;
        let forged = oracle.patch_bitstream(&variant).expect("seals under the wrong key");
        assert_eq!(forged.open(&K_ENC).expect_err("device refuses"), OpenSecureError::MacMismatch);
        assert_eq!(
            oracle.open_patched(&forged).expect_err("seekable verify agrees"),
            OpenSecureError::MacMismatch
        );
    }

    #[test]
    fn edit_list_validation() {
        let (golden, oracle) = oracle(2, 8);
        let n = golden.len();
        assert!(matches!(
            oracle.patch_edits(&[BodyEdit::new(n - 1, vec![0, 0])]),
            Err(PatchError::OutOfRange { .. })
        ));
        assert!(matches!(
            oracle.patch_edits(&[BodyEdit::new(10, vec![0; 8]), BodyEdit::new(12, vec![1])]),
            Err(PatchError::Overlap { offset: 12 })
        ));
        let mut grown = golden.clone().into_bytes();
        grown.push(0);
        assert!(matches!(
            oracle.patch_bitstream(&Bitstream::from_bytes(grown)),
            Err(PatchError::LengthChanged { .. })
        ));
        assert!(matches!(
            oracle.patch_payload_edits(&[BodyEdit::new(0, vec![9])]),
            Err(PatchError::OutsidePayload { offset: 0 })
        ));
    }
}
