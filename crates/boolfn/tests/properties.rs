//! Property tests on the Boolean-function substrate.

use boolfn::expr::var;
use boolfn::{pclass, DualOutputInit, Permutation, SwapNetwork, TruthTable};
use proptest::prelude::*;

fn arb_perm(k: u8) -> impl Strategy<Value = Permutation> {
    Just(()).prop_perturb(move |(), mut rng| {
        let mut v: Vec<u8> = (0..k).collect();
        for i in (1..v.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            v.swap(i, j);
        }
        Permutation::from_slice(&v).expect("valid")
    })
}

/// A Fisher–Yates shuffle of `0..k` driven by an xorshift state.
fn shuffled(k: u8, state: &mut u64) -> Permutation {
    let mut v: Vec<u8> = (0..k).collect();
    for i in (1..v.len()).rev() {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        v.swap(i, (*state % (i as u64 + 1)) as usize);
    }
    Permutation::from_slice(&v).expect("valid")
}

/// The permutation semantics evaluated row by row: row `i` of the
/// result reads `f` at the row whose input `perm(j)` is bit `j` of `i`.
fn permute_rows(f: TruthTable, perm: &Permutation) -> TruthTable {
    TruthTable::from_fn(f.num_vars(), |i| {
        let src = perm
            .as_slice()
            .iter()
            .enumerate()
            .fold(0u8, |src, (j, &p)| src | (((i >> j) & 1) << p));
        f.eval(src)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delta_swap_permute_equals_row_by_row(bits in any::<u64>(), seed in any::<u64>()) {
        let mut state = seed | 1;
        for k in 1u8..=6 {
            let f = TruthTable::new(k, bits);
            let p = shuffled(k, &mut state);
            let q = shuffled(k, &mut state);
            let g = f.permute(&p);
            prop_assert_eq!(g, permute_rows(f, &p));
            prop_assert_eq!(SwapNetwork::new(&p).apply(f), g);
            prop_assert_eq!(g.permute(&q), f.permute(&p.compose(&q)));
            prop_assert_eq!(g.permute(&q), permute_rows(permute_rows(f, &p), &q));
        }
    }

    #[test]
    fn permute_respects_composition(bits in any::<u64>(), p in arb_perm(6), q in arb_perm(6)) {
        let f = TruthTable::new(6, bits);
        // f.permute(p).permute(q) applies p "inside" q.
        let lhs = f.permute(&p).permute(&q);
        let rhs = f.permute(&p.compose(&q));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn permute_inverse_roundtrip(bits in any::<u64>(), p in arb_perm(6)) {
        let f = TruthTable::new(6, bits);
        prop_assert_eq!(f.permute(&p).permute(&p.inverse()), f);
    }

    #[test]
    fn permutation_preserves_weight_and_support_size(bits in any::<u64>(), p in arb_perm(6)) {
        let f = TruthTable::new(6, bits);
        let g = f.permute(&p);
        prop_assert_eq!(f.weight(), g.weight());
        prop_assert_eq!(f.support().count_ones(), g.support().count_ones());
    }

    #[test]
    fn canonical_is_invariant_under_permutation(bits in any::<u64>(), p in arb_perm(6)) {
        let f = TruthTable::new(6, bits);
        prop_assert_eq!(pclass::canonical(f), pclass::canonical(f.permute(&p)));
        prop_assert!(pclass::equivalent(f, f.permute(&p)));
    }

    #[test]
    fn class_members_contains_all_permutations(bits in any::<u32>()) {
        // 5-var functions keep the orbit enumeration fast.
        let f = TruthTable::new(5, u64::from(bits));
        let members = pclass::members(f);
        for p in Permutation::all(5) {
            prop_assert!(members.contains(&f.permute(&p)));
        }
        // Orbit size divides 5!.
        prop_assert_eq!(120 % members.len(), 0);
    }

    #[test]
    fn witness_maps_between_equivalents(bits in any::<u64>(), p in arb_perm(6)) {
        let f = TruthTable::new(6, bits);
        let g = f.permute(&p);
        let w = pclass::witness(f, g).expect("equivalent by construction");
        prop_assert_eq!(f.permute(&w), g);
    }

    #[test]
    fn shannon_expansion(bits in any::<u64>(), v in 1u8..=6) {
        let f = TruthTable::new(6, bits);
        let (lo, hi) = f.cofactors(v);
        let sel = TruthTable::var(6, v);
        let recon = sel.not().and(lo).or(sel.and(hi));
        prop_assert_eq!(recon, f);
        prop_assert!(!lo.depends_on(v));
        prop_assert!(!hi.depends_on(v));
    }

    #[test]
    fn support_is_exact(bits in any::<u64>()) {
        let f = TruthTable::new(6, bits);
        let support = f.support();
        for v in 1u8..=6 {
            let in_support = (support >> (v - 1)) & 1 == 1;
            prop_assert_eq!(in_support, f.depends_on(v));
            if !in_support {
                prop_assert_eq!(f.restrict(v, false), f.restrict(v, true));
            }
        }
    }

    #[test]
    fn extend_preserves_evaluation(bits in any::<u16>(), input in 0u8..16) {
        let f = TruthTable::new(4, u64::from(bits));
        let g = f.extend(6);
        prop_assert_eq!(g.eval(input), f.eval(input));
        // High inputs are don't-cares.
        prop_assert_eq!(g.eval(input | 0b110000), f.eval(input));
    }

    #[test]
    fn dual_output_roundtrip(lo in any::<u32>(), hi in any::<u32>()) {
        let o5 = TruthTable::new(5, u64::from(lo));
        let o6 = TruthTable::new(5, u64::from(hi));
        let init = DualOutputInit::from_pair(o5, o6);
        prop_assert_eq!(init.o5(), o5);
        prop_assert_eq!(init.o6_fractured(), o6);
        prop_assert_eq!(init.is_fractured(), lo != hi);
    }

    #[test]
    fn xor_pair_detection_is_sound(a in 1u8..=5, b in 1u8..=5) {
        prop_assume!(a != b);
        let f = TruthTable::var(5, a).xor(TruthTable::var(5, b));
        let (x, y) = f.as_xor_pair().expect("is an xor pair");
        prop_assert_eq!((x, y), (a.min(b), a.max(b)));
        // And soundness: a reported pair really is the function.
        prop_assert!(f.is_xor_of(x, y));
    }

    #[test]
    fn xor_pair_detection_rejects_non_xors(bits in any::<u32>()) {
        let f = TruthTable::new(5, u64::from(bits));
        if let Some((x, y)) = f.as_xor_pair() {
            prop_assert!(f.is_xor_of(x, y));
        } else {
            // No pair may satisfy it.
            for x in 1u8..=5 {
                for y in x + 1..=5 {
                    prop_assert!(!f.is_xor_of(x, y));
                }
            }
        }
    }
}

#[test]
fn expression_algebra_sanity() {
    // (a ^ b) ^ b == a, De Morgan, distribution — via truth tables.
    let a = var(1).truth_table(3);
    let b = var(2).truth_table(3);
    let c = var(3).truth_table(3);
    assert_eq!(a.xor(b).xor(b), a);
    assert_eq!(a.and(b).not(), a.not().or(b.not()));
    assert_eq!(a.and(b.or(c)), a.and(b).or(a.and(c)));
}
