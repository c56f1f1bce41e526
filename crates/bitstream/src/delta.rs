//! Differential configuration-CRC arithmetic.
//!
//! The configuration CRC is a linear feedback shift register, hence
//! linear over GF(2) in (state, fed bits): for a stream `x` and a
//! byte-delta `δ` confined to the FDRI payload,
//! `crc(x ⊕ δ) = crc(x) ⊕ L(δ)`, where `L` advances a 32-bit delta
//! state through precomputed powers of the one-update transition
//! matrix. A [`DeltaCrc`] caches one walk of a reference stream — the
//! packet walker [`Bitstream::parse`] runs — (where the CRC value
//! lives, how payload words map onto update indices, the doubling
//! matrices) and then prices any variant's CRC at O(changed words ×
//! log stream) XORs instead of a full re-walk. [`DeltaCrc::analyze`]
//! declines every reference on which one stored CRC word does not
//! carry the device's whole verdict, so the verdict below equals a
//! full parse by construction.
//!
//! One rule sits on top of the analysis, and every caller that
//! relates a stream to a reference goes through it: a variant is
//! *delta-expressible* iff it differs from the reference only inside
//! the FDRI payload and the stored CRC word ([`DeltaCrc::word_diff`]),
//! and the device accepts it iff its stored CRC equals the value the
//! delta prices ([`DeltaCrc::check`], which refuses with the same
//! typed error a full parse returns). The callers are the candidate
//! forge in the attack crate ([`DeltaCrc::patch`] writes the priced
//! CRC so the device accepts the variant), the partial-stream forge
//! ([`crate::PartialForge`]) and the gang batch decoder in the FPGA
//! simulator. Each is pinned byte-for-byte against the slow full walk
//! by its test suite.

use core::fmt;
use core::ops::Range;

use crate::crc::ConfigCrc;
use crate::frame::FRAME_WORDS;
use crate::image::{Bitstream, ParseBitstreamError};
use crate::packet::{RegisterAddress, Step, Walk};

/// Bytes per block [`for_each_diff`] compares whole before it looks
/// inside.
const DIFF_BLOCK: usize = 256;

/// Calls `at` with every position where the equal-length `a` and `b`
/// differ, in increasing order, until `at` returns `false`; returns
/// whether every call returned `true`. Configuration deltas differ in
/// a handful of bytes, so the scan is dominated by equal blocks: one
/// slice compare retires each equal 256-byte block, and a differing
/// block is scanned 8 bytes at a time through `u64` compares.
///
/// # Panics
///
/// Panics if `a` and `b` differ in length.
pub fn for_each_diff(a: &[u8], b: &[u8], mut at: impl FnMut(usize) -> bool) -> bool {
    assert_eq!(a.len(), b.len(), "diffed slices differ in length");
    let mut scan = |from: usize, xa: &[u8], xb: &[u8]| {
        xa.iter().zip(xb).enumerate().all(|(j, (x, y))| x == y || at(from + j))
    };
    for (block, (ba, bb)) in a.chunks(DIFF_BLOCK).zip(b.chunks(DIFF_BLOCK)).enumerate() {
        if ba == bb {
            continue;
        }
        let base = block * DIFF_BLOCK;
        for (k, (ca, cb)) in ba.chunks_exact(8).zip(bb.chunks_exact(8)).enumerate() {
            let x = u64::from_ne_bytes(ca.try_into().expect("8-byte chunk"));
            let y = u64::from_ne_bytes(cb.try_into().expect("8-byte chunk"));
            if x != y && !scan(base + 8 * k, ca, cb) {
                return false;
            }
        }
        let tail = ba.len() - ba.len() % 8;
        if !scan(base + tail, &ba[tail..], &bb[tail..]) {
            return false;
        }
    }
    true
}

/// Applies a GF(2) linear map in column form: `out = Σ m[i]` over the
/// set bits `i` of `v`.
fn apply(m: &[u32; 32], v: u32) -> u32 {
    let mut out = 0;
    for (i, &col) in m.iter().enumerate() {
        if (v >> i) & 1 == 1 {
            out ^= col;
        }
    }
    out
}

/// The one-update state-advance map `A`: column `i` is where state
/// `1 << i` lands after one `update` whose fed bits are all zero.
/// (The config CRC is linear over GF(2), so
/// `update(s, a, w) = A·s ⊕ f(a, w)` and `A` is recovered by feeding
/// zero bits from each basis state.)
fn advance_matrix() -> [u32; 32] {
    let mut m = [0u32; 32];
    for (i, col) in m.iter_mut().enumerate() {
        let mut crc = ConfigCrc::with_state(1 << i);
        crc.update(0, 0);
        *col = crc.value();
    }
    m
}

/// Matrix square in column form: `(m²)[i] = m · m[i]`.
fn square(m: &[u32; 32]) -> [u32; 32] {
    let mut out = [0u32; 32];
    for (i, col) in out.iter_mut().enumerate() {
        *col = apply(m, m[i]);
    }
    out
}

/// The contribution a payload-word delta `d` makes to the CRC delta
/// state at its own update step: `f(0, d)` from the zero state. The
/// register-address bits are identical on the reference and variant
/// streams (both FDRI), so they cancel out of the delta and only the
/// word bits remain.
fn word_delta(d: u32) -> u32 {
    let mut crc = ConfigCrc::with_state(0);
    crc.update(0, d);
    crc.value()
}

/// A cached differential-CRC analysis of one reference bitstream,
/// from which any payload-only variant's CRC follows in
/// O(changed words × log stream) — see the module docs.
#[derive(Clone)]
pub struct DeltaCrc {
    /// Raw bytes of the reference stream.
    reference: Vec<u8>,
    /// Byte range of the FDRI payload within `reference`.
    payload: Range<usize>,
    /// Absolute byte offset of the stored CRC value word.
    crc_value_at: usize,
    /// The running CRC the slow walk computes for the reference image
    /// — exactly what [`Bitstream::recompute_crc`] would store.
    reference_crc: u32,
    /// Update index (counting from the last `RCRC` reset) at which
    /// payload word 0 is fed.
    first_payload_update: u64,
    /// Total updates fed before the CRC value is written.
    total_updates: u64,
    /// `pow[j]` advances a delta state by `2^j` zero-delta updates.
    pow: Vec<[u32; 32]>,
    /// The device ID the reference writes.
    idcode: Option<u32>,
}

impl fmt::Debug for DeltaCrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeltaCrc(payload: {:?}, crc word at: {})", self.payload, self.crc_value_at)
    }
}

impl DeltaCrc {
    /// Walks `bs` once, recording where the CRC lives and how the FDRI
    /// payload ([`Bitstream::fdri_data_range`]) maps onto update
    /// indices. Returns `None` (→ the caller takes the full walk) unless
    /// the delta model covers the stream, which makes [`DeltaCrc::check`]
    /// equal [`Bitstream::parse`] on every variant
    /// [`DeltaCrc::word_diff`] admits:
    ///
    /// * the walk reads the stream to its end without an error, and
    ///   its FDRI writes are a whole number of frames — so a variant's
    ///   parse can fail only at its CRC write;
    /// * the walk checks exactly one CRC write — so one stored word
    ///   carries the whole verdict;
    /// * the payload is fed as one contiguous run of FDRI writes before
    ///   that CRC write, with no `RCRC` between the payload and it — so
    ///   payload word `w` is update `first + w` of the value checked.
    #[must_use]
    pub fn analyze(bs: &Bitstream) -> Option<Self> {
        let payload = bs.fdri_data_range()?;
        if !payload.start.is_multiple_of(4) || !payload.end.is_multiple_of(4) || payload.is_empty()
        {
            return None;
        }
        let bytes = bs.as_bytes();
        let mut walk = Walk::new(bytes).ok()?;
        // CRC updates since the last reset.
        let mut updates: u64 = 0;
        // Update index of the first payload word.
        let mut first: Option<u64> = None;
        // Value offset, running value and update count of the CRC write.
        let mut check: Option<(usize, u32, u64)> = None;
        let mut fdri_words = 0usize;
        for step in walk.by_ref() {
            match step.ok()? {
                Step::Writes { at, reg, words, .. } => {
                    let end = at + words.len();
                    if (at..end).contains(&payload.start) {
                        // The whole payload must lie in this one run of
                        // FDRI writes, ahead of the CRC write.
                        if reg != RegisterAddress::Fdri || check.is_some() || end < payload.end {
                            return None;
                        }
                        first = Some(updates + (payload.start - at) as u64 / 4);
                    }
                    let n = words.len() / 4;
                    fdri_words += if reg == RegisterAddress::Fdri { n } else { 0 };
                    updates += n as u64;
                }
                Step::Reset { .. } => {
                    if first.is_some() && check.is_none() {
                        return None;
                    }
                    updates = 0;
                }
                Step::Crc { at, computed, .. } => {
                    if check.replace((at, computed, updates)).is_some() {
                        return None;
                    }
                }
                Step::Nop { .. } | Step::Packet { .. } => {}
            }
        }
        let (crc_value_at, reference_crc, total_updates) = check?;
        let first = first?;
        if !fdri_words.is_multiple_of(FRAME_WORDS) {
            return None;
        }
        let mut pow = vec![advance_matrix()];
        while (1u64 << pow.len()) < total_updates {
            pow.push(square(pow.last().expect("non-empty")));
        }
        Some(DeltaCrc {
            reference: bytes.to_vec(),
            payload,
            crc_value_at,
            reference_crc,
            first_payload_update: first,
            total_updates,
            pow,
            idcode: walk.idcode(),
        })
    }

    /// The device ID the reference stream writes, as
    /// [`Bitstream::parse`] reports it.
    pub(crate) fn idcode(&self) -> Option<u32> {
        self.idcode
    }

    /// The raw bytes of the analyzed reference stream.
    #[must_use]
    pub fn reference(&self) -> &[u8] {
        &self.reference
    }

    /// Byte range of the FDRI payload within the reference stream
    /// (and any delta-expressible variant).
    #[must_use]
    pub fn payload(&self) -> Range<usize> {
        self.payload.clone()
    }

    /// The payload word indices (sorted, deduplicated) at which two
    /// streams of the reference's structure differ — typically the
    /// reference and a variant, or two variants. `None` when either
    /// stream has a different length or they differ anywhere outside
    /// the payload and the stored CRC word (a structural difference
    /// the delta model does not cover).
    #[must_use]
    pub fn word_diff(&self, a: &[u8], b: &[u8]) -> Option<Vec<usize>> {
        if a.len() != self.reference.len() || b.len() != self.reference.len() {
            return None;
        }
        let crc_word = self.crc_value_at..self.crc_value_at + 4;
        let mut words: Vec<usize> = Vec::new();
        let payload_only = for_each_diff(a, b, |pos| {
            if self.payload.contains(&pos) {
                let w = (pos - self.payload.start) / 4;
                if words.last() != Some(&w) {
                    words.push(w);
                }
                true
            } else {
                crc_word.contains(&pos)
            }
        });
        payload_only.then_some(words)
    }

    /// The device's CRC verdict on a delta-expressible `variant` whose
    /// payload differs from the reference at `words` (as
    /// [`DeltaCrc::word_diff`] returns them against the reference):
    /// accepted, or refused with exactly the
    /// [`ParseBitstreamError::CrcMismatch`] a full
    /// [`Bitstream::parse`] of the variant returns.
    ///
    /// # Errors
    ///
    /// [`ParseBitstreamError::CrcMismatch`] when the stored CRC word is
    /// not the value the device computes.
    pub fn check(&self, variant: &[u8], words: &[usize]) -> Result<(), ParseBitstreamError> {
        let stored = self.stored(variant);
        let computed = self.value_for(variant, words);
        if stored == computed {
            Ok(())
        } else {
            Err(ParseBitstreamError::CrcMismatch { stored, computed })
        }
    }

    /// Repairs `variant`'s stored CRC from its delta against the
    /// reference at the payload word indices `words` (sorted ascending,
    /// deduplicated; listed words that turn out equal are skipped).
    /// Bit-identical to a [`Bitstream::recompute_crc`] re-walk.
    pub fn patch(&self, variant: &mut [u8], words: &[usize]) {
        let value = self.value_for(variant, words);
        variant[self.crc_value_at..self.crc_value_at + 4].copy_from_slice(&value.to_be_bytes());
    }

    /// The stored CRC value word of a same-structure variant.
    fn stored(&self, variant: &[u8]) -> u32 {
        u32::from_be_bytes(
            variant[self.crc_value_at..self.crc_value_at + 4].try_into().expect("4 bytes"),
        )
    }

    /// Advances a delta state by `k` zero-delta updates via the
    /// doubling matrices.
    fn advance(&self, mut v: u32, k: u64) -> u32 {
        debug_assert_eq!(k >> self.pow.len(), 0, "gap exceeds precomputed powers");
        for (j, m) in self.pow.iter().enumerate() {
            if (k >> j) & 1 == 1 {
                v = apply(m, v);
            }
        }
        v
    }

    /// The configuration CRC the device would compute for `variant`,
    /// given that it differs from the reference only at the payload
    /// word indices `words` (sorted ascending, deduplicated; indices
    /// whose words turn out equal are skipped). Bit-identical to a full
    /// re-walk of the variant.
    fn value_for(&self, variant: &[u8], words: &[usize]) -> u32 {
        let mut state = 0u32;
        let mut prev: Option<u64> = None;
        for &w in words {
            let at = self.payload.start + 4 * w;
            let g = u32::from_be_bytes(self.reference[at..at + 4].try_into().expect("4 bytes"));
            let m = u32::from_be_bytes(variant[at..at + 4].try_into().expect("4 bytes"));
            if g == m {
                continue;
            }
            let u = self.first_payload_update + w as u64;
            if let Some(p) = prev {
                state = self.advance(state, u - p);
            }
            state ^= word_delta(g ^ m);
            prev = Some(u);
        }
        match prev {
            None => self.reference_crc,
            Some(last) => self.reference_crc ^ self.advance(state, self.total_updates - 1 - last),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameData;
    use crate::image::BitstreamBuilder;

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

    #[test]
    fn value_for_matches_full_recompute() {
        let golden = sample(8, 0x5EED);
        let delta = DeltaCrc::analyze(&golden).expect("builder output analyzes");
        let payload = delta.payload();
        assert_eq!(Some(payload.clone()), golden.fdri_data_range());

        // Several edit shapes: single word, adjacent words, first and
        // last payload words, and a no-op (equal words listed).
        let word_count = payload.len() / 4;
        let cases: Vec<Vec<usize>> = vec![
            vec![0],
            vec![5, 6],
            vec![word_count - 1],
            vec![0, word_count / 2, word_count - 1],
            vec![3], // listed but left unchanged below for i == 3
        ];
        for (case, words) in cases.iter().enumerate() {
            let mut variant = golden.clone();
            for &w in words {
                if case == 4 {
                    continue; // no-op case: words listed, bytes equal
                }
                let at = payload.start + 4 * w;
                variant.as_mut_bytes()[at] ^= 0xA5;
                variant.as_mut_bytes()[at + 3] ^= 0x3C;
            }
            let fast = delta.value_for(variant.as_bytes(), words);
            let mut slow = variant.clone();
            assert!(slow.recompute_crc(), "slow path patches");
            assert_eq!(delta.stored(slow.as_bytes()), fast, "case {case}");

            let mut patched = variant.clone();
            delta.patch(patched.as_mut_bytes(), words);
            assert_eq!(patched.as_bytes(), slow.as_bytes(), "case {case}");
            assert!(patched.parse().expect("parses").crc_checked, "case {case}");
        }
    }

    #[test]
    fn detects_unlisted_word_changes_as_mismatch() {
        // A changed word NOT in the list makes value_for disagree with
        // the device's walk — why `check` must be given the full
        // `word_diff` against the reference.
        let golden = sample(4, 0xBAD);
        let delta = DeltaCrc::analyze(&golden).expect("analyzes");
        let mut variant = golden.clone();
        variant.as_mut_bytes()[delta.payload().start + 40] ^= 0x01;
        let claimed = delta.value_for(variant.as_bytes(), &[]);
        assert_eq!(claimed, delta.stored(golden.as_bytes()), "empty list claims reference CRC");
        let words = delta.word_diff(delta.reference(), variant.as_bytes()).expect("payload edit");
        assert_eq!(words, vec![10]);
        assert_eq!(delta.check(variant.as_bytes(), &words), variant.parse().map(|_| ()));
        assert!(
            matches!(variant.parse(), Err(ParseBitstreamError::CrcMismatch { .. })),
            "the device rejects the unpatched variant"
        );
    }

    /// The block-skipping diff names exactly the payload words a
    /// byte-by-byte walk names, and refuses exactly the pairs that
    /// differ outside the payload and the stored CRC word.
    #[test]
    fn payload_word_diff_matches_a_byte_by_byte_reference() {
        let golden = sample(24, 7);
        let delta = DeltaCrc::analyze(&golden).expect("analyzes");
        let payload = delta.payload();
        let crc_word = delta.crc_value_at..delta.crc_value_at + 4;
        let reference = |a: &[u8], b: &[u8]| -> Option<Vec<usize>> {
            let mut words: Vec<usize> = Vec::new();
            for (pos, (x, y)) in a.iter().zip(b).enumerate() {
                if x == y {
                    continue;
                }
                if payload.contains(&pos) {
                    let w = (pos - payload.start) / 4;
                    if words.last() != Some(&w) {
                        words.push(w);
                    }
                } else if !crc_word.contains(&pos) {
                    return None;
                }
            }
            Some(words)
        };
        let mut x = 0x5EED_0FD1_FF00_0001u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut refused, mut accepted) = (0, 0);
        for _ in 0..400 {
            let mut pair = [golden.as_bytes().to_vec(), golden.as_bytes().to_vec()];
            for side in &mut pair {
                for _ in 0..next() % 6 {
                    let pos = match next() % 16 {
                        0 => (next() % payload.start as u64) as usize,
                        1 => crc_word.start + (next() % 4) as usize,
                        _ => payload.start + (next() % payload.len() as u64) as usize,
                    };
                    side[pos] ^= (next() % 255 + 1) as u8;
                }
            }
            let [a, b] = &pair;
            let want = reference(a, b);
            if want.is_some() {
                accepted += 1;
            } else {
                refused += 1;
            }
            assert_eq!(delta.word_diff(a, b), want);
        }
        assert!(refused > 0 && accepted > 0, "both outcomes drawn: {refused} / {accepted}");
        // A length change is structural too.
        assert_eq!(delta.word_diff(golden.as_bytes(), &golden.as_bytes()[4..]), None);
    }
}
