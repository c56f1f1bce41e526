//! Packing covers into physical dual-output LUT6s (Fig. 4 of the
//! paper).
//!
//! A Xilinx 7-series LUT either implements one function of up to 6
//! variables or two functions of up to 5 *shared* variables. Packing
//! greedily pairs covers whose input-set union fits in 5 pins; the
//! pair shares one physical LUT, with the first function on `O5` (low
//! INIT half) and the second on `O6` (high half).

use boolfn::{DualOutputInit, TruthTable};
use netlist::NodeId;

use crate::design::{Cover, PackedLut};

/// The deterministic pin-order scrambling hash of cover selection and
/// packing.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Re-expresses `truth` (over `old_pins`) as a function of
/// `new_pins`, which must be a superset of `old_pins`.
///
/// # Panics
///
/// Panics if an old pin is missing from `new_pins` or if `new_pins`
/// has more than 6 entries.
fn retarget(truth: TruthTable, old_pins: &[NodeId], new_pins: &[NodeId]) -> TruthTable {
    assert!(new_pins.len() <= 6);
    let mut positions = [0usize; 6];
    for (slot, p) in positions.iter_mut().zip(old_pins) {
        *slot = new_pins
            .iter()
            .position(|q| q == p)
            .expect("every old pin must appear among the new pins");
    }
    let positions = &positions[..old_pins.len()];
    TruthTable::from_fn(new_pins.len() as u8, |i| {
        let mut old_idx = 0u8;
        for (o, &np) in positions.iter().enumerate() {
            if (i >> np) & 1 == 1 {
                old_idx |= 1 << o;
            }
        }
        truth.eval(old_idx)
    })
}

/// A lower bound on the pin count of a leaf union: each leaf sets bit
/// `id mod 64`, so the union of two signatures has at most as many set
/// bits as the two leaf lists have distinct pins.
fn signature(leaves: &[NodeId]) -> u64 {
    leaves.iter().fold(0, |sig, l| sig | 1 << (l.0 % 64))
}

/// Number of distinct pins over two covers' leaf lists.
fn union_len(a: &[NodeId], b: &[NodeId]) -> usize {
    a.len() + b.iter().filter(|l| !a.contains(l)).count()
}

/// Packs covers into physical LUTs; covers with more than 5 inputs
/// occupy a full LUT, smaller covers are paired when their combined
/// input set fits 5 shared pins.
pub(crate) fn pack(covers: &[Cover], seed: u64) -> Vec<PackedLut> {
    let mut singles: Vec<usize> = Vec::new();
    let mut out: Vec<PackedLut> = Vec::new();
    for (i, c) in covers.iter().enumerate() {
        if c.leaves.len() > 5 {
            out.push(single_lut(c));
        } else {
            singles.push(i);
        }
    }
    let sigs: Vec<u64> = covers.iter().map(|c| signature(&c.leaves)).collect();
    // Greedy best-fit pairing over the not-yet-packed small covers:
    // prefer the partner with the most shared input pins (smallest
    // union), as real slice packers do to save routing. This also
    // keeps structurally related functions (e.g. two load-mux bits
    // sharing their control net) in the same physical LUT.
    let mut used = vec![false; covers.len()];
    for idx in 0..singles.len() {
        let i = singles[idx];
        if used[i] {
            continue;
        }
        used[i] = true;
        let ci = &covers[i];
        let mut partner: Option<usize> = None;
        let mut best_union = usize::MAX;
        for &j in &singles[idx + 1..] {
            // A partner needs a union of at most 5 pins that is
            // strictly smaller than the best so far; the signature
            // bound rejects most candidates without counting.
            if used[j] || (sigs[i] | sigs[j]).count_ones() as usize >= best_union.min(6) {
                continue;
            }
            let u = union_len(&ci.leaves, &covers[j].leaves);
            if u <= 5 && u < best_union {
                best_union = u;
                partner = Some(j);
                if u == ci.leaves.len().max(covers[j].leaves.len()) {
                    break; // cannot share more pins than this
                }
            }
        }
        match partner {
            Some(j) => {
                used[j] = true;
                let cj = &covers[j];
                let mut union: Vec<NodeId> = ci.leaves.clone();
                union.extend(cj.leaves.iter().filter(|l| !ci.leaves.contains(l)));
                // Deterministic shared-pin order.
                union.sort_by_key(|l| {
                    splitmix64(seed ^ (u64::from(ci.root.0) << 20) ^ u64::from(l.0))
                });
                let t5 = retarget(ci.truth, &ci.leaves, &union);
                let t6 = retarget(cj.truth, &cj.leaves, &union);
                out.push(PackedLut {
                    inputs: union,
                    init: DualOutputInit::from_pair(t5, t6),
                    o6: cj.root,
                    o5: Some(ci.root),
                });
            }
            None => out.push(single_lut(ci)),
        }
    }
    out
}

fn single_lut(c: &Cover) -> PackedLut {
    PackedLut {
        inputs: c.leaves.clone(),
        init: DualOutputInit::from_single(c.truth.extend(6)),
        o6: c.root,
        o5: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolfn::expr::var;

    fn cover(root: u32, leaves: &[u32], truth: TruthTable) -> Cover {
        Cover { root: NodeId(root), leaves: leaves.iter().map(|&l| NodeId(l)).collect(), truth }
    }

    #[test]
    fn retarget_preserves_semantics() {
        // f(a, b) = a ^ b over pins [10, 11], retargeted to
        // [12, 11, 10]: f' must be (pin10 ^ pin11) = a3 ^ a2.
        let f = (var(1) ^ var(2)).truth_table(2);
        let old = [NodeId(10), NodeId(11)];
        let new = [NodeId(12), NodeId(11), NodeId(10)];
        let g = retarget(f, &old, &new);
        assert_eq!(g, (var(3) ^ var(2)).truth_table(3));
    }

    #[test]
    fn big_cover_is_single() {
        let t = (var(1) ^ var(2) ^ var(3) ^ var(4) ^ var(5) ^ var(6)).truth_table(6);
        let c = cover(100, &[1, 2, 3, 4, 5, 6], t);
        let packed = pack(&[c], 0);
        assert_eq!(packed.len(), 1);
        assert!(!packed[0].is_fractured());
        assert_eq!(packed[0].init.o6(), t.permute(&pin_perm(&packed[0], &[1, 2, 3, 4, 5, 6])));
    }

    /// Builds the permutation mapping the original leaf order to the
    /// packed pin order.
    fn pin_perm(lut: &PackedLut, orig: &[u32]) -> boolfn::Permutation {
        let map: Vec<u8> = (0..orig.len())
            .map(|j| {
                orig.iter().position(|&o| NodeId(o) == lut.inputs[j]).expect("pin present") as u8
            })
            .collect();
        boolfn::Permutation::from_slice(&map).expect("valid permutation")
    }

    #[test]
    fn two_shared_xors_fracture() {
        // Two 2-input XORs over pins {1,2} and {2,3}: union {1,2,3}
        // fits, so they share a fractured LUT.
        let f = (var(1) ^ var(2)).truth_table(2);
        let c1 = cover(100, &[1, 2], f);
        let c2 = cover(101, &[2, 3], f);
        let packed = pack(&[c1, c2], 42);
        assert_eq!(packed.len(), 1);
        let lut = &packed[0];
        assert!(lut.is_fractured());
        assert_eq!(lut.o5, Some(NodeId(100)));
        assert_eq!(lut.o6, NodeId(101));
        // Both halves are 2-input XORs of some pin pair.
        assert!(lut.init.o5().as_xor_pair().is_some());
        assert!(lut.init.o6_fractured().as_xor_pair().is_some());
    }

    #[test]
    fn incompatible_covers_stay_separate() {
        // Unions of 6 distinct pins cannot fracture.
        let f = (var(1) ^ var(2) ^ var(3)).truth_table(3);
        let c1 = cover(100, &[1, 2, 3], f);
        let c2 = cover(101, &[4, 5, 6], f);
        let packed = pack(&[c1, c2], 0);
        assert_eq!(packed.len(), 2);
        assert!(packed.iter().all(|l| !l.is_fractured()));
    }

    #[test]
    fn fractured_semantics_correct() {
        let fa = (var(1) & var(2)).truth_table(2); // over pins [7, 8]
        let fb = (var(1) | var(2)).truth_table(2); // over pins [8, 9]
        let c1 = cover(100, &[7, 8], fa);
        let c2 = cover(101, &[8, 9], fb);
        let packed = pack(&[c1, c2], 7);
        let lut = &packed[0];
        // Evaluate both halves for every assignment of the union pins
        // and compare with the original functions.
        for assign in 0..(1u8 << lut.inputs.len()) {
            let pin_val = |pin: NodeId| -> bool {
                let pos = lut.inputs.iter().position(|&p| p == pin).unwrap();
                (assign >> pos) & 1 == 1
            };
            let want_a = pin_val(NodeId(7)) && pin_val(NodeId(8));
            let want_b = pin_val(NodeId(8)) || pin_val(NodeId(9));
            assert_eq!(lut.init.o5().eval(assign), want_a);
            assert_eq!(lut.init.o6_fractured().eval(assign), want_b);
        }
    }
}
