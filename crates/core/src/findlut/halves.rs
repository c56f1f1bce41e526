//! The Section VII-B dual-output half scan over one run of byte
//! positions. [`Scanner::scan_halves`](super::Scanner::scan_halves)
//! splits a payload into frame-aligned chunks and runs this scan on
//! each of them.

use std::ops::Range;

use bitstream::{codec, SubVectorOrder};
use boolfn::{Permutation, TruthTable};

use super::{stored_at, LutHit};

/// Decodes the dual-output LUT stored at every byte position in
/// `positions` (sub-vector stride `d`) under each sub-vector order,
/// and appends to `out` the positions where `predicate` accepts the
/// two 5-variable halves `(O5, O6)`. Positions rejected by
/// `pos_filter` are skipped before anything is decoded.
///
/// This is the paper's search for "all LUTs having the 2-input XOR in
/// one half of their truth table and any Boolean function of up to 5
/// dependent variables in another", generalised to an arbitrary
/// predicate. Every position must leave room for the four stored
/// sub-vectors (`l + 3d + 2 <= data.len()`); the scanner clamps its
/// range before it gets here.
///
/// The public entry point is the scanner:
///
/// ```
/// use bitmod::findlut::Scanner;
/// use bitstream::FRAME_BYTES;
///
/// let data = vec![0u8; 6 * FRAME_BYTES];
/// let scanner = Scanner::builder().stride(FRAME_BYTES).build().unwrap();
/// // Count LUTs whose O5 half is a 2-input XOR (none in zeroed data).
/// let hits = scanner.scan_halves(&data, 0..data.len(), |o5, _| o5.as_xor_pair().is_some());
/// assert!(hits.is_empty());
/// ```
pub(super) fn scan_halves(
    data: &[u8],
    d: usize,
    positions: Range<usize>,
    pos_filter: &impl Fn(usize) -> bool,
    predicate: &impl Fn(TruthTable, TruthTable) -> bool,
    out: &mut Vec<LutHit>,
) {
    for l in positions {
        if !pos_filter(l) {
            continue;
        }
        for order in SubVectorOrder::both() {
            let init = codec::decode(stored_at(data, l, d), order);
            if predicate(init.o5(), init.o6_fractured()) {
                out.push(LutHit { l, order, perm: Permutation::identity(6), init });
                // No break: a position can satisfy the predicate
                // under both sub-vector orders, and only the order
                // matching the hosting slice type survives the
                // caller's oracle tests.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstream::{LutLocation, FRAME_BYTES};
    use boolfn::expr::var;
    use boolfn::DualOutputInit;

    /// Every position of `data` that holds four whole sub-vectors.
    fn all_positions(data: &[u8]) -> Range<usize> {
        0..data.len() - (3 * FRAME_BYTES + 2) + 1
    }

    #[test]
    fn scan_halves_finds_xor_half() {
        let xor = (var(2) ^ var(4)).truth_table(5);
        let other = (var(1) & var(3)).truth_table(5);
        let mut data = vec![0u8; 6 * FRAME_BYTES];
        codec::write_lut(
            &mut data,
            LutLocation { l: 99, d: FRAME_BYTES, order: SubVectorOrder::SliceL },
            DualOutputInit::from_pair(xor, other),
        );
        let mut hits = Vec::new();
        scan_halves(
            &data,
            FRAME_BYTES,
            all_positions(&data),
            &|_| true,
            &|o5: TruthTable, o6: TruthTable| {
                o5.as_xor_pair().is_some() || o6.as_xor_pair().is_some()
            },
            &mut hits,
        );
        assert!(hits.iter().any(|h| h.l == 99));
    }

    #[test]
    fn scan_halves_respects_range() {
        let xor = (var(1) ^ var(2)).truth_table(5);
        let mut data = vec![0u8; 6 * FRAME_BYTES];
        codec::write_lut(
            &mut data,
            LutLocation { l: 900, d: FRAME_BYTES, order: SubVectorOrder::SliceL },
            DualOutputInit::from_pair(xor, xor),
        );
        let is_xor = |o5: TruthTable, _: TruthTable| o5.as_xor_pair().is_some();
        let scan = |positions: Range<usize>, pos_filter: &dyn Fn(usize) -> bool| {
            let mut hits = Vec::new();
            scan_halves(&data, FRAME_BYTES, positions, &pos_filter, &is_xor, &mut hits);
            hits
        };
        assert!(scan(0..100, &|_| true).iter().all(|h| h.l < 100));
        // The plant is found once its position is in range, and a
        // position filter that rejects it hides it again.
        assert!(scan(all_positions(&data), &|_| true).iter().any(|h| h.l == 900));
        assert!(scan(all_positions(&data), &|l| l != 900).iter().all(|h| h.l != 900));
    }
}
