//! Bitstream patching: writing faulted LUT functions at search hits.
//!
//! A [`crate::findlut::LutHit`] records the input permutation
//! under which a candidate matched; any replacement function must be
//! stored under the *same* permutation so the LUT's pins keep their
//! meaning. After editing, the configuration CRC is repaired —
//! either recomputed, or disabled by zeroing the CRC packet as in
//! Section V-B of the paper.
//!
//! One writer does this for every caller: a [`GoldenForge`] walks
//! one golden stream once, caching where the CRC lives and how many
//! register writes feed it, and each [`ForgeSession`] it starts edits
//! a copy of the golden image and repairs the candidate's CRC from the
//! byte *delta* alone. The configuration CRC is a linear feedback
//! shift register, hence linear over GF(2) in (state, fed bits):
//! `crc(golden ⊕ δ) = crc(golden) ⊕ L(δ)`, where `L` advances a
//! 32-bit delta state through precomputed powers of the one-update
//! transition matrix. A candidate edit costs one image clone plus
//! O(edited words × log stream) XORs instead of a full re-walk —
//! byte-identical to [`Bitstream::recompute_crc`], which the test
//! suite pins. Streams the delta model declines fall back to that
//! full re-walk.

use boolfn::{DualOutputInit, Permutation, TruthTable};

use bitstream::{codec, Bitstream, DeltaCrc};

use crate::findlut::LutHit;

/// How to keep the device accepting a modified bitstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrcStrategy {
    /// Recompute and patch the stored CRC value.
    #[default]
    Recompute,
    /// Zero out the CRC packet (the paper's approach).
    Disable,
}

/// A cached analysis of one golden bitstream, from which thousands of
/// one-LUT candidate variants can be forged without re-walking the
/// packet stream per candidate.
///
/// Construction performs a single [`Bitstream::recompute_crc`]-shaped
/// walk; each [`GoldenForge::session`] then clones the golden bytes
/// and repairs the CRC incrementally from the edit delta (see the
/// module docs for the linearity argument). On any stream structure
/// the delta model does not cover, sessions transparently fall back
/// to the slow full re-walk — output bytes are identical either way.
#[derive(Debug, Clone)]
pub struct GoldenForge {
    golden: Bitstream,
    data_start: usize,
    d: usize,
    delta: Option<DeltaCrc>,
}

impl GoldenForge {
    /// Analyzes `bitstream` once for fast candidate forging.
    ///
    /// # Panics
    ///
    /// Panics if the bitstream has no FDRI payload.
    #[must_use]
    pub fn new(bitstream: &Bitstream, d: usize) -> Self {
        let range = bitstream.fdri_data_range().expect("bitstream has an FDRI payload");
        let delta = DeltaCrc::analyze(bitstream);
        Self { golden: bitstream.clone(), data_start: range.start, d, delta }
    }

    /// Starts forging one candidate: a fresh copy of the golden image.
    #[must_use]
    pub fn session(&self) -> ForgeSession<'_> {
        ForgeSession { forge: self, bitstream: self.golden.clone(), touched: Vec::new() }
    }
}

/// One candidate being forged from a [`GoldenForge`];
/// [`ForgeSession::finish`] repairs the CRC from the accumulated edit
/// delta instead of re-walking the stream.
#[derive(Debug)]
pub struct ForgeSession<'f> {
    forge: &'f GoldenForge,
    bitstream: Bitstream,
    /// Payload word indices the edits may have altered.
    touched: Vec<usize>,
}

impl ForgeSession<'_> {
    /// Writes `function` (a 6-variable table) at `hit`, permuted the
    /// same way the original content was stored.
    pub fn write_function(&mut self, hit: &LutHit, function: TruthTable) {
        let stored = function.extend(6).permute(&extend_perm(&hit.perm));
        self.write_init(hit, DualOutputInit::from_single(stored));
    }

    /// Writes a raw INIT value at `hit`.
    pub fn write_init(&mut self, hit: &LutHit, init: DualOutputInit) {
        let loc = hit.location(self.forge.d);
        for j in 0..4 {
            let b = loc.l + j * loc.d;
            self.touched.push(b / 4);
            self.touched.push((b + 1) / 4);
        }
        let data = &mut self.bitstream.as_mut_bytes()[self.forge.data_start..];
        codec::write_lut(data, loc, init);
    }

    /// Replaces a single half of the INIT at `hit`: `half` 0 is the
    /// `O5` (low) half, 1 the `O6` (high) half.
    ///
    /// # Panics
    ///
    /// Panics if `half` is not 0 or 1.
    pub fn write_half(&mut self, hit: &LutHit, half: u8, function: TruthTable) {
        assert!(half < 2, "half must be 0 (O5) or 1 (O6)");
        let current = self.read_init(hit);
        let bits = function.extend(5).bits() & 0xffff_ffff;
        let new = if half == 0 {
            (current.init() & 0xffff_ffff_0000_0000) | bits
        } else {
            (current.init() & 0x0000_0000_ffff_ffff) | (bits << 32)
        };
        self.write_init(hit, DualOutputInit::new(new));
    }

    /// Reads the INIT currently stored at `hit`.
    #[must_use]
    pub fn read_init(&self, hit: &LutHit) -> DualOutputInit {
        let data = &self.bitstream.as_bytes()[self.forge.data_start..];
        codec::read_lut(data, hit.location(self.forge.d))
    }

    /// Finalizes the candidate, repairing the CRC. Byte-identical to
    /// applying the same writes to a copy of the golden image and then
    /// calling [`Bitstream::recompute_crc`] (or
    /// [`Bitstream::disable_crc`]).
    #[must_use]
    pub fn finish(mut self, crc: CrcStrategy) -> Bitstream {
        match crc {
            CrcStrategy::Recompute => match &self.forge.delta {
                Some(delta) => {
                    let mut words = core::mem::take(&mut self.touched);
                    words.sort_unstable();
                    words.dedup();
                    delta.patch(self.bitstream.as_mut_bytes(), &words);
                }
                None => {
                    let ok = self.bitstream.recompute_crc();
                    debug_assert!(ok, "bitstream had a CRC packet to patch");
                }
            },
            CrcStrategy::Disable => {
                self.bitstream.disable_crc();
            }
        }
        self.bitstream
    }
}

/// Extends a `k ≤ 6` permutation to exactly 6 pins (identity on the
/// rest).
#[must_use]
pub fn extend_perm(p: &Permutation) -> Permutation {
    if p.len() == 6 {
        return *p;
    }
    let mut full = [0u8; 6];
    for (j, &x) in p.as_slice().iter().enumerate() {
        full[j] = x;
    }
    for (j, slot) in full.iter_mut().enumerate().skip(p.len()) {
        *slot = j as u8;
    }
    Permutation::from_slice(&full).expect("valid permutation")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findlut::Scanner;
    use bitstream::{BitstreamBuilder, FrameData, LutLocation, SubVectorOrder, FRAME_BYTES};
    use boolfn::expr::var;

    fn find_lut(data: &[u8], f: TruthTable) -> Vec<LutHit> {
        let scanner = Scanner::builder().stride(FRAME_BYTES).candidate(f).build().unwrap();
        scanner.scan(data).into_iter().map(|h| h.hit).collect()
    }

    fn sample_bitstream_with(f: TruthTable, l: usize) -> Bitstream {
        let mut frames = FrameData::new(8);
        codec::write_lut(
            frames.as_mut_bytes(),
            LutLocation { l, d: FRAME_BYTES, order: SubVectorOrder::SliceL },
            DualOutputInit::from_single(f.extend(6)),
        );
        BitstreamBuilder::new(frames).build()
    }

    /// The slow path the forge must match: `writes` applied by hand
    /// to a copy of `bs`, then the CRC recomputed by a full re-walk or
    /// disabled.
    fn hand_edited(
        bs: &Bitstream,
        writes: &[(&LutHit, DualOutputInit)],
        crc: CrcStrategy,
    ) -> Bitstream {
        let mut out = bs.clone();
        let range = out.fdri_data_range().expect("payload");
        for (hit, init) in writes {
            codec::write_lut(
                &mut out.as_mut_bytes()[range.clone()],
                hit.location(FRAME_BYTES),
                *init,
            );
        }
        match crc {
            CrcStrategy::Recompute => assert!(out.recompute_crc(), "a CRC packet to patch"),
            CrcStrategy::Disable => assert_eq!(out.disable_crc(), 1),
        }
        out
    }

    #[test]
    fn edit_at_hit_then_reparse() {
        let f2 = ((var(1) ^ var(2) ^ var(3)) & var(4) & var(5) & !var(6)).truth_table(6);
        let bs = sample_bitstream_with(f2, 64);
        let range = bs.fdri_data_range().unwrap();
        let hits = find_lut(&bs.as_bytes()[range], f2);
        let hit = hits.iter().find(|h| h.l == 64).expect("hit at plant");

        let forge = GoldenForge::new(&bs, FRAME_BYTES);
        let mut session = forge.session();
        session.write_function(hit, TruthTable::zero(6));
        let edited = session.finish(CrcStrategy::Recompute);
        let cfg = edited.parse().expect("CRC repaired");
        assert!(cfg.crc_checked);
        // The LUT now stores constant 0.
        let data_range = edited.fdri_data_range().unwrap();
        let init = codec::read_lut(
            &edited.as_bytes()[data_range],
            LutLocation { l: 64, d: FRAME_BYTES, order: SubVectorOrder::SliceL },
        );
        assert_eq!(init.init(), 0);
    }

    #[test]
    fn disable_strategy_removes_crc() {
        let f = (var(1) & var(2)).truth_table(6);
        let bs = sample_bitstream_with(f, 0);
        let range = bs.fdri_data_range().unwrap();
        let hits = find_lut(&bs.as_bytes()[range], f);
        let forge = GoldenForge::new(&bs, FRAME_BYTES);
        let mut session = forge.session();
        session.write_function(&hits[0], TruthTable::one(6));
        let edited = session.finish(CrcStrategy::Disable);
        let cfg = edited.parse().expect("parses");
        assert!(!cfg.crc_checked);
    }

    #[test]
    fn permuted_write_respects_pin_roles() {
        // Store f2 under a scrambled permutation, then write the α₂
        // variant; the stored bytes must equal variant.permute(same).
        let f2 = ((var(1) ^ var(2) ^ var(3)) & var(4) & var(5) & !var(6)).truth_table(6);
        let p = Permutation::from_slice(&[3, 1, 5, 0, 2, 4]).unwrap();
        let stored = f2.permute(&p);
        let bs = sample_bitstream_with(stored, 120);
        let range = bs.fdri_data_range().unwrap();
        let hits = find_lut(&bs.as_bytes()[range], f2);
        let hit = hits.iter().find(|h| h.l == 120).expect("found");

        let variant = (var(3) & var(4) & var(5) & !var(6)).truth_table(6);
        let forge = GoldenForge::new(&bs, FRAME_BYTES);
        let mut session = forge.session();
        session.write_function(hit, variant);
        let got = session.read_init(hit);
        assert_eq!(got.o6(), variant.permute(&hit.perm));
    }

    #[test]
    fn half_writes_preserve_other_half() {
        let a = (var(1) | var(2)).truth_table(5);
        let b = (var(3) & var(4)).truth_table(5);
        let mut frames = FrameData::new(8);
        let loc = LutLocation { l: 10, d: FRAME_BYTES, order: SubVectorOrder::SliceM };
        codec::write_lut(frames.as_mut_bytes(), loc, DualOutputInit::from_pair(a, b));
        let bs = BitstreamBuilder::new(frames).build();

        let forge = GoldenForge::new(&bs, FRAME_BYTES);
        let mut session = forge.session();
        let hit = raw_hit(10, SubVectorOrder::SliceM);
        let repl = (!var(1) & var(2)).truth_table(5);
        session.write_half(&hit, 0, repl);
        let got = session.read_init(&hit);
        assert_eq!(got.o5(), repl);
        assert_eq!(got.o6_fractured(), b, "O6 half untouched");
    }

    /// A raw hit addressing byte `l` directly (identity permutation).
    fn raw_hit(l: usize, order: SubVectorOrder) -> LutHit {
        LutHit { l, order, perm: Permutation::identity(6), init: DualOutputInit::new(0) }
    }

    #[test]
    fn forge_single_write_matches_slow_path() {
        let f2 = ((var(1) ^ var(2) ^ var(3)) & var(4) & var(5) & !var(6)).truth_table(6);
        let p = Permutation::from_slice(&[3, 1, 5, 0, 2, 4]).unwrap();
        let bs = sample_bitstream_with(f2.permute(&p), 64);
        let range = bs.fdri_data_range().unwrap();
        let hits = find_lut(&bs.as_bytes()[range], f2);
        let hit = hits.iter().find(|h| h.l == 64).expect("hit at plant");

        let variant = (var(3) & var(4) & var(5) & !var(6)).truth_table(6);
        let stored = DualOutputInit::from_single(variant.permute(&extend_perm(&hit.perm)));
        let want = hand_edited(&bs, &[(hit, stored)], CrcStrategy::Recompute);

        let forge = GoldenForge::new(&bs, FRAME_BYTES);
        let mut fast = forge.session();
        fast.write_function(hit, variant);
        let got = fast.finish(CrcStrategy::Recompute);

        assert_eq!(got.as_bytes(), want.as_bytes(), "forge must be byte-identical");
        assert!(got.parse().expect("parses").crc_checked);
    }

    #[test]
    fn forge_multi_write_and_half_write_match_slow_path() {
        let f2 = ((var(1) ^ var(2) ^ var(3)) & var(4) & var(5) & !var(6)).truth_table(6);
        let bs = sample_bitstream_with(f2, 64);
        let a = raw_hit(64, SubVectorOrder::SliceL);
        let b = raw_hit(301, SubVectorOrder::SliceM);
        let half = (!var(1) & var(2)).truth_table(5);
        let a_init = DualOutputInit::new(0xDEAD_BEEF_0BAD_F00D);
        let b_init = DualOutputInit::new(0x0123_4567_89AB_CDEF);

        let want = hand_edited(
            &bs,
            &[(&a, a_init), (&b, DualOutputInit::from_pair(b_init.o5(), half))],
            CrcStrategy::Recompute,
        );

        let forge = GoldenForge::new(&bs, FRAME_BYTES);
        let mut fast = forge.session();
        fast.write_init(&a, a_init);
        fast.write_init(&b, b_init);
        fast.write_half(&b, 1, half);
        assert_eq!(fast.read_init(&b).o6_fractured(), half);
        let got = fast.finish(CrcStrategy::Recompute);

        assert_eq!(got.as_bytes(), want.as_bytes());
        assert!(got.parse().expect("parses").crc_checked);
    }

    #[test]
    fn forge_disable_and_no_op_match_slow_path() {
        let f = (var(1) & var(2)).truth_table(6);
        let bs = sample_bitstream_with(f, 0);
        let forge = GoldenForge::new(&bs, FRAME_BYTES);

        // Untouched candidate: both paths just re-store the computed
        // CRC.
        let want = hand_edited(&bs, &[], CrcStrategy::Recompute);
        let got = forge.session().finish(CrcStrategy::Recompute);
        assert_eq!(got.as_bytes(), want.as_bytes());

        // Disable delegates to the same zeroing walk.
        let hit = raw_hit(0, SubVectorOrder::SliceL);
        let one = DualOutputInit::from_single(TruthTable::one(6));
        let want = hand_edited(&bs, &[(&hit, one)], CrcStrategy::Disable);
        let mut fast = forge.session();
        fast.write_function(&hit, TruthTable::one(6));
        let got = fast.finish(CrcStrategy::Disable);
        assert_eq!(got.as_bytes(), want.as_bytes());
        assert!(!got.parse().expect("parses").crc_checked);
    }
}
