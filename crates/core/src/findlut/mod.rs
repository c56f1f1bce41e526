//! Algorithm 1: finding all k-input LUTs implementing given Boolean
//! functions in a bitstream.
//!
//! The module is organised around the [`Scanner`] engine, which makes
//! **one pass** over an FDRI payload for an arbitrary *set* of
//! candidate functions:
//!
//! * every input permutation of every candidate is ξ-permuted,
//!   partitioned into stored sub-vectors per sub-vector order, and
//!   deduplicated into a single index keyed by the packed stored
//!   sub-vectors (the `index` module);
//! * byte positions are then scanned in parallel over frame-aligned
//!   chunks, each position costing one 8-byte strided read and at most
//!   one hash lookup, gated by a 2¹⁶-entry prefilter bitmap over the
//!   first sub-vector that rejects ~99% of positions after a two-byte
//!   read (the `scanner` module);
//! * per-chunk hit vectors are merged in chunk order, so the hit list
//!   is deterministic regardless of thread count, and per candidate it
//!   is **byte-identical** to [`find_lut_reference`], the literal
//!   transcription of the paper's pseudo-code kept as differential-test
//!   ground truth (the `reference` module).
//!
//! This realises the paper's "all Boolean functions within the same
//! P equivalence class" search for free, and restores the Section VI-B
//! performance figure ("for bitstreams of size less than 10 MB and
//! k = 6, our tool takes less than 4 sec") with ample margin even when
//! the whole Table II catalogue is scanned at once.
//!
//! [`Scanner::scan_halves`] is the complementary tool of Section
//! VII-B: an exhaustive scan that decodes a whole dual-output LUT at
//! every byte position and applies an arbitrary predicate to its two
//! halves, over the same parallel chunks.

use boolfn::{DualOutputInit, Permutation, TruthTable};

use bitstream::{codec, LutLocation, SubVectorOrder};

mod halves;
mod index;
mod reference;
mod scanner;

pub use reference::find_lut_reference;
pub use scanner::{ScanConfigError, ScanHit, Scanner, ScannerBuilder};

/// Search parameters (the `k`, `d` and `r` of Algorithm 1).
///
/// `r` is fixed at 4 by the 7-series LUT partitioning; `d` is the
/// sub-vector stride in bytes (one frame on our device model).
///
/// New code should configure an equivalent [`Scanner`] via
/// [`Scanner::builder`]; this type remains the parameter block of the
/// ground-truth [`find_lut_reference`].
#[derive(Debug, Clone, Copy)]
pub struct FindLutParams {
    /// Number of LUT inputs `k` (2..=6).
    pub k: u8,
    /// Byte offset between consecutive sub-vectors.
    pub d: usize,
    /// Sub-vector orders to try; `None` means both known orders
    /// (SLICEL and SLICEM).
    pub orders: Option<SubVectorOrder>,
}

impl FindLutParams {
    /// Parameters for a 6-input search at sub-vector stride `d`.
    #[must_use]
    pub fn k6(d: usize) -> Self {
        Self { k: 6, d, orders: None }
    }

    pub(crate) fn order_list(&self) -> Vec<SubVectorOrder> {
        match self.orders {
            Some(o) => vec![o],
            None => SubVectorOrder::both().to_vec(),
        }
    }
}

/// A search hit: where a LUT implementing the function may live, and
/// under which input permutation / sub-vector order it matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LutHit {
    /// Byte index of the first sub-vector.
    pub l: usize,
    /// Matching sub-vector order.
    pub order: SubVectorOrder,
    /// Input permutation `p` such that `candidate.permute(p)` equals
    /// the stored function.
    pub perm: Permutation,
    /// The full decoded 64-bit INIT at this location.
    pub init: DualOutputInit,
}

impl LutHit {
    /// The [`LutLocation`] of this hit at stride `d`.
    #[must_use]
    pub fn location(&self, d: usize) -> LutLocation {
        LutLocation { l: self.l, d, order: self.order }
    }
}

/// Extends a k-pin permutation to 6 pins (identity on the rest).
pub(crate) fn extend_permutation(p: &Permutation, k: u8) -> Permutation {
    let mut full = [0u8; 6];
    for (j, &x) in p.as_slice().iter().enumerate() {
        full[j] = x;
    }
    for (j, slot) in full.iter_mut().enumerate().skip(k as usize) {
        *slot = j as u8;
    }
    Permutation::from_slice(&full).expect("valid permutation")
}

#[inline]
pub(crate) fn pack_stored(s: [u16; 4]) -> u64 {
    u64::from(s[0]) | (u64::from(s[1]) << 16) | (u64::from(s[2]) << 32) | (u64::from(s[3]) << 48)
}

/// Reads the four stored sub-vectors at byte position `l`, stride `d`.
#[inline]
pub(crate) fn stored_at(data: &[u8], l: usize, d: usize) -> [u16; 4] {
    [
        u16::from_le_bytes([data[l], data[l + 1]]),
        u16::from_le_bytes([data[l + d], data[l + d + 1]]),
        u16::from_le_bytes([data[l + 2 * d], data[l + 2 * d + 1]]),
        u16::from_le_bytes([data[l + 3 * d], data[l + 3 * d + 1]]),
    ]
}

/// Re-attempts a candidate match at a single position under a given
/// sub-vector order, returning the hit (with its permutation) if the
/// stored content is a permutation of `f`.
#[must_use]
pub fn rematch_at(
    data: &[u8],
    l: usize,
    d: usize,
    order: SubVectorOrder,
    f: TruthTable,
) -> Option<LutHit> {
    if l + 3 * d + 2 > data.len() {
        return None;
    }
    let stored = stored_at(data, l, d);
    let init = codec::decode(stored, order);
    // The first permutation in rank order is the one the search reports.
    let f6 = f.extend(6);
    let perm = Permutation::all(6).find(|p| f6.permute(p).bits() == init.init())?;
    Some(LutHit { l, order, perm, init })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstream::FRAME_BYTES;
    use boolfn::expr::var;

    /// Single-candidate FINDLUT through a one-candidate [`Scanner`].
    fn find_lut(data: &[u8], f: TruthTable, params: &FindLutParams) -> Vec<LutHit> {
        let scanner = Scanner::builder()
            .k(params.k)
            .stride(params.d)
            .orders(params.orders)
            .candidate(f)
            .build()
            .expect("valid configuration");
        scanner.scan(data).into_iter().map(|h| h.hit).collect()
    }

    fn plant(data: &mut [u8], l: usize, order: SubVectorOrder, tt: TruthTable) {
        codec::write_lut(
            data,
            LutLocation { l, d: FRAME_BYTES, order },
            DualOutputInit::from_single(tt.extend(6)),
        );
    }

    #[test]
    fn finds_planted_lut_exact_position() {
        let f2 = ((var(1) ^ var(2) ^ var(3)) & var(4) & var(5) & !var(6)).truth_table(6);
        let mut data = vec![0u8; 8 * FRAME_BYTES];
        plant(&mut data, 123, SubVectorOrder::SliceL, f2);
        let hits = find_lut(&data, f2, &FindLutParams::k6(FRAME_BYTES));
        let planted: Vec<_> = hits.iter().filter(|h| h.l == 123).collect();
        assert_eq!(planted.len(), 1);
        assert_eq!(planted[0].order, SubVectorOrder::SliceL);
    }

    #[test]
    fn finds_permuted_plant() {
        // Plant f2 with scrambled pins; the search must still hit and
        // report the permutation that maps the candidate onto it.
        let f2 = ((var(1) ^ var(2) ^ var(3)) & var(4) & var(5) & !var(6)).truth_table(6);
        let p = Permutation::from_slice(&[4, 0, 5, 1, 3, 2]).unwrap();
        let stored = f2.permute(&p);
        let mut data = vec![0u8; 8 * FRAME_BYTES];
        plant(&mut data, 200, SubVectorOrder::SliceM, stored);
        let hits = find_lut(&data, f2, &FindLutParams::k6(FRAME_BYTES));
        let hit = hits.iter().find(|h| h.l == 200).expect("found");
        assert_eq!(f2.permute(&hit.perm), stored, "reported permutation reproduces storage");
    }

    #[test]
    fn optimized_equals_reference() {
        let f = (((var(1) ^ var(2)) & !var(3) & var(4) & var(5)) ^ var(6)).truth_table(6);
        // Data with structured and random-ish content.
        let mut data = vec![0u8; 6 * FRAME_BYTES];
        let mut x = 0x12345u32;
        for b in data.iter_mut() {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            *b = (x >> 16) as u8;
        }
        plant(&mut data, 77, SubVectorOrder::SliceL, f);
        plant(
            &mut data,
            400,
            SubVectorOrder::SliceM,
            f.permute(&Permutation::from_slice(&[1, 0, 2, 3, 4, 5]).unwrap()),
        );
        let fast = find_lut(&data, f, &FindLutParams::k6(FRAME_BYTES));
        let slow = find_lut_reference(&data, f, &FindLutParams::k6(FRAME_BYTES));
        assert_eq!(fast, slow);
        let fast_pos: Vec<usize> = fast.iter().map(|h| h.l).collect();
        assert!(fast_pos.contains(&77) && fast_pos.contains(&400));
    }

    #[test]
    fn small_k_functions_found() {
        // A 2-input XOR stored in a 6-LUT (unused pins don't-care).
        let xor2 = (var(1) ^ var(2)).truth_table(2);
        let mut data = vec![0u8; 6 * FRAME_BYTES];
        plant(&mut data, 50, SubVectorOrder::SliceL, xor2.extend(6));
        let hits = find_lut(&data, xor2.extend(6), &FindLutParams::k6(FRAME_BYTES));
        assert!(hits.iter().any(|h| h.l == 50));
    }

    #[test]
    fn no_false_negatives_across_all_positions() {
        let f = ((var(1) ^ var(2) ^ var(3)) & var(4) & var(5) & !var(6)).truth_table(6);
        for l in [0usize, 1, 2, 3, 401, 402] {
            let mut data = vec![0u8; 6 * FRAME_BYTES];
            plant(&mut data, l, SubVectorOrder::SliceL, f);
            let hits = find_lut(&data, f, &FindLutParams::k6(FRAME_BYTES));
            assert!(hits.iter().any(|h| h.l == l), "missed plant at {l}");
        }
    }

    #[test]
    fn empty_and_tiny_data() {
        let f = (var(1) & var(2)).truth_table(6);
        assert!(find_lut(&[], f, &FindLutParams::k6(FRAME_BYTES)).is_empty());
        assert!(find_lut(&[0u8; 64], f, &FindLutParams::k6(FRAME_BYTES)).is_empty());
    }

    #[test]
    fn rematch_at_roundtrip() {
        let f = ((var(1) ^ var(2)) & var(3)).truth_table(6);
        let mut data = vec![0u8; 6 * FRAME_BYTES];
        plant(&mut data, 60, SubVectorOrder::SliceL, f);
        let hit = rematch_at(&data, 60, FRAME_BYTES, SubVectorOrder::SliceL, f).expect("rematch");
        assert_eq!(hit.l, 60);
        assert!(rematch_at(&data, 61, FRAME_BYTES, SubVectorOrder::SliceL, f).is_none());
    }
}
