//! Property tests pinning the optimized FINDLUT (the multi-candidate
//! `Scanner`, alone and with a single candidate) to the literal
//! Algorithm 1 transcription, on random data with random plants; plus
//! thread-count determinism.

use bitmod::findlut::{find_lut_reference, rematch_at, FindLutParams, LutHit, Scanner};
use bitmod::Catalogue;
use bitstream::{codec, LutLocation, SubVectorOrder, FRAME_BYTES};
use boolfn::{DualOutputInit, Permutation, TruthTable};
use proptest::prelude::*;

/// Single-candidate FINDLUT through a one-candidate `Scanner`.
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

fn arb_perm6() -> impl Strategy<Value = Permutation> {
    Just(()).prop_perturb(|(), mut rng| {
        let mut v: Vec<u8> = (0..6).collect();
        for i in (1..6).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            v.swap(i, j);
        }
        Permutation::from_slice(&v).expect("valid")
    })
}

fn arb_shape() -> impl Strategy<Value = TruthTable> {
    // Draw from the real candidate catalogue: these are the functions
    // the attack actually searches for.
    (0usize..Catalogue::full().shapes.len()).prop_map(|i| Catalogue::full().shapes[i].truth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimized_equals_reference(
        shape in arb_shape(),
        seed in any::<u64>(),
        plants in prop::collection::vec((0usize..1200, arb_perm6(), any::<bool>()), 0..4),
    ) {
        // Random payload with a few planted (permuted) instances.
        let mut data = vec![0u8; 6 * FRAME_BYTES];
        let mut x = seed;
        for b in data.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (x >> 55) as u8;
        }
        // Plant instances whose byte footprints do not overlap (two
        // valid LUTs never overlap in a real bitstream).
        let mut planted: Vec<LutLocation> = Vec::new();
        for (l, perm, slicem) in &plants {
            let order = if *slicem { SubVectorOrder::SliceM } else { SubVectorOrder::SliceL };
            let loc = LutLocation { l: *l, d: FRAME_BYTES, order };
            if planted.iter().any(|p| p.overlaps(&loc)) {
                continue;
            }
            codec::write_lut(&mut data, loc, DualOutputInit::from_single(shape.permute(perm)));
            planted.push(loc);
        }
        let params = FindLutParams::k6(FRAME_BYTES);
        let fast = find_lut(&data, shape, &params);
        let slow = find_lut_reference(&data, shape, &params);
        let fast_l: Vec<usize> = fast.iter().map(|h| h.l).collect();
        let slow_l: Vec<usize> = slow.iter().map(|h| h.l).collect();
        prop_assert_eq!(fast_l, slow_l);
        // Every plant is found.
        for loc in &planted {
            prop_assert!(fast.iter().any(|h| h.l == loc.l), "missed plant at {}", loc.l);
        }
    }

    #[test]
    fn scanner_one_pass_matches_reference_per_candidate(
        start in 0usize..Catalogue::full().shapes.len(),
        seed in any::<u64>(),
        plants in prop::collection::vec((0usize..1200, 0usize..3, arb_perm6(), any::<bool>()), 0..4),
    ) {
        // Three candidates scanned in one pass must each produce a hit
        // list byte-identical to the reference algorithm run alone.
        let cat = Catalogue::full();
        let n = cat.shapes.len();
        let cands: Vec<TruthTable> = (0..3).map(|i| cat.shapes[(start + i) % n].truth).collect();
        let mut data = vec![0u8; 6 * FRAME_BYTES];
        let mut x = seed;
        for b in data.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (x >> 55) as u8;
        }
        let mut planted: Vec<LutLocation> = Vec::new();
        for (l, ci, perm, slicem) in &plants {
            let order = if *slicem { SubVectorOrder::SliceM } else { SubVectorOrder::SliceL };
            let loc = LutLocation { l: *l, d: FRAME_BYTES, order };
            if planted.iter().any(|p| p.overlaps(&loc)) {
                continue;
            }
            codec::write_lut(&mut data, loc, DualOutputInit::from_single(cands[*ci].permute(perm)));
            planted.push(loc);
        }
        let scanner = Scanner::builder()
            .k(6)
            .stride(FRAME_BYTES)
            .candidates(cands.iter().copied())
            .build()
            .expect("valid configuration");
        let grouped = scanner.scan_grouped(&data);
        for (i, &c) in cands.iter().enumerate() {
            let reference = find_lut_reference(&data, c, &FindLutParams::k6(FRAME_BYTES));
            prop_assert_eq!(grouped[i].clone(), reference, "candidate {} diverges", i);
        }
    }

    #[test]
    fn reported_permutation_reproduces_storage(
        shape in arb_shape(),
        perm in arb_perm6(),
        slicem in any::<bool>(),
        l in 0usize..1000,
    ) {
        let order = if slicem { SubVectorOrder::SliceM } else { SubVectorOrder::SliceL };
        let stored = shape.permute(&perm);
        let mut data = vec![0u8; 6 * FRAME_BYTES];
        codec::write_lut(
            &mut data,
            LutLocation { l, d: FRAME_BYTES, order },
            DualOutputInit::from_single(stored),
        );
        let hits = find_lut(&data, shape, &FindLutParams::k6(FRAME_BYTES));
        let hit = hits.iter().find(|h| h.l == l).expect("plant found");
        // The contract the attack's edit machinery relies on: applying
        // the reported permutation to the candidate reproduces the
        // stored function.
        prop_assert_eq!(shape.permute(&hit.perm), hit.init.o6());
    }

    #[test]
    fn rematch_at_agrees_with_search(
        shape in arb_shape(),
        perm in arb_perm6(),
        l in 0usize..800,
    ) {
        let order = SubVectorOrder::SliceM;
        let mut data = vec![0u8; 6 * FRAME_BYTES];
        codec::write_lut(
            &mut data,
            LutLocation { l, d: FRAME_BYTES, order },
            DualOutputInit::from_single(shape.permute(&perm)),
        );
        let hit = rematch_at(&data, l, FRAME_BYTES, order, shape).expect("rematches");
        prop_assert_eq!(shape.permute(&hit.perm), hit.init.o6());
        // And under the wrong order the content should (almost
        // always) not match; when it does, the contract still holds.
        if let Some(wrong) = rematch_at(&data, l, FRAME_BYTES, SubVectorOrder::SliceL, shape) {
            prop_assert_eq!(shape.permute(&wrong.perm), wrong.init.o6());
        }
    }
}

#[test]
fn scanner_thread_count_does_not_change_hits() {
    // The parallel scan must be deterministic: any worker count yields
    // the same hit list in the same order (chunk results are merged in
    // chunk order, not completion order).
    let cat = Catalogue::full();
    let f2 = cat.shape("f2").unwrap().truth;
    let m0 = cat.shape("m0").unwrap().truth;
    // Large enough to engage the parallel path.
    let mut data = vec![0u8; 1300 * FRAME_BYTES];
    let mut x = 0x9e3779b9u64;
    for b in data.iter_mut() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        *b = (x >> 55) as u8;
    }
    for (i, &tt) in [f2, m0, f2, m0, f2].iter().enumerate() {
        let order = if i % 2 == 0 { SubVectorOrder::SliceL } else { SubVectorOrder::SliceM };
        codec::write_lut(
            &mut data,
            LutLocation { l: 200 * (i + 1) * FRAME_BYTES / 2 + 7 * i, d: FRAME_BYTES, order },
            DualOutputInit::from_single(tt),
        );
    }
    let scan = |threads: usize| {
        Scanner::builder()
            .stride(FRAME_BYTES)
            .threads(threads)
            .catalogue(&cat)
            .build()
            .expect("valid configuration")
            .scan(&data)
    };
    let sequential = scan(1);
    assert!(!sequential.is_empty(), "plants must be found");
    for threads in [2, 4, 7] {
        assert_eq!(scan(threads), sequential, "thread count {threads} changes the hit list");
    }
}

#[test]
fn d_parameter_generalizes_to_other_families() {
    // The paper treats d as a device-family parameter (it reports
    // d = 101 bytes for its 7-series tool). FINDLUT must work for any
    // stride; plant at the paper's d and search with it.
    use bitmod::Catalogue;
    let shape = Catalogue::full().shape("f2").unwrap().truth;
    for d in [101usize, 256, bitstream::FRAME_BYTES] {
        let mut data = vec![0u8; 8 * bitstream::FRAME_BYTES];
        codec::write_lut(
            &mut data,
            LutLocation { l: 33, d, order: SubVectorOrder::SliceL },
            DualOutputInit::from_single(shape),
        );
        let hits = find_lut(&data, shape, &FindLutParams { k: 6, d, orders: None });
        assert!(hits.iter().any(|h| h.l == 33), "missed plant at stride d = {d}");
    }
}
