//! Section VII: the countermeasure defeats the attack.
//!
//! The protected board maps the target XOR vector `v` (and five decoy
//! XOR vectors) to trivial 2-input-XOR LUTs. The composite covers of
//! Table II disappear (Table VI), the key-recovery attack aborts, and
//! the XOR-half candidate scan leaves an exhaustive search that is
//! infeasible (the paper's `C(171, 32) ≈ 2^115`).

use bitmod::countermeasure::{self, complexity};
use bitmod::{Attack, AttackError, Catalogue};
use fpga_sim::{ImplementOptions, Load, Snow3gBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

fn protected_board() -> Snow3gBoard {
    Snow3gBoard::build(
        Snow3gCircuitConfig::protected(TEST_SET_1_KEY, TEST_SET_1_IV),
        &ImplementOptions::default(),
    )
    .expect("board builds")
}

#[test]
fn attack_fails_on_protected_board() {
    let board = protected_board();
    let result = Attack::new(&board, board.extract_bitstream()).expect("attack prepares").run();
    // The keystream-path LUTs no longer exist as composite f2 covers,
    // so the attack cannot even complete its first identification
    // phase.
    match result {
        Err(AttackError::ZPathIncomplete { bits_found }) => {
            assert!(bits_found < 32, "no full z-path cover set: {bits_found}");
        }
        Err(other) => panic!("attack failed for an unexpected reason: {other}"),
        Ok(report) => panic!(
            "attack must not succeed against the protected design (recovered {})",
            report.recovered.key
        ),
    }
}

#[test]
fn table6_analog_feedback_rows_are_zero() {
    // Table VI of the paper: every feedback-path candidate function
    // has zero (true) hits in the protected bitstream. We assert the
    // composite implementation-family rows are empty up to filler
    // coincidences, which the paper also observed ("the obtained
    // information is not useful").
    let board = protected_board();
    let golden = board.extract_bitstream();
    let range = golden.fdri_data_range().unwrap();
    let payload = &golden.as_bytes()[range];
    // Like the paper's Table VI, a few stray matches remain (other
    // logic or filler coincidentally in the same P class — e.g. the
    // g4 shape, a gated 4-input XOR, also occurs in adder covers);
    // what matters is that the 32-strong target populations are gone.
    let cat = Catalogue::full();
    let rows = [("m0", 2), ("m0b", 2), ("g4", 8), ("g3c", 2)];
    let scanner = bitmod::Scanner::builder()
        .stride(bitstream::FRAME_BYTES)
        .candidates(rows.iter().map(|(name, _)| cat.shape(name).unwrap().truth))
        .build()
        .expect("valid scan configuration");
    for ((name, max), hits) in rows.iter().zip(scanner.scan_grouped(payload)) {
        assert!(
            hits.len() <= *max,
            "protected bitstream should have almost no {name} covers, found {}",
            hits.len()
        );
    }
}

#[test]
fn xor_half_scan_leaves_intractable_search() {
    let board = protected_board();
    let golden = board.extract_bitstream();
    // Constrain the second scan to a window, as the paper does
    // ("interval of 200,000 byte positions").
    let range = golden.fdri_data_range().unwrap();
    let window = 0..(range.len() / 2);
    let report = countermeasure::evaluate(&board, &golden, Some(window)).expect("evaluation runs");

    // The scan floods the attacker with candidates...
    assert!(
        report.xor_half_hits_unconstrained >= 96,
        "expected a large candidate set, got {}",
        report.xor_half_hits_unconstrained
    );
    assert!(report.xor_half_hits_constrained <= report.xor_half_hits_unconstrained);

    // ... of which the keystream-path ones can be pruned
    // (Section VII-C), but what remains is far more than 32 ...
    assert!(report.z_path_pruned >= 16, "z-path XORs prunable: {}", report.z_path_pruned);
    assert!(
        report.remaining > 64,
        "remaining candidates must swamp the 32 targets: {}",
        report.remaining
    );

    // ... making the exhaustive search infeasible.
    assert!(
        report.search_bits > 60.0,
        "exhaustive search must be intractable: 2^{:.1}",
        report.search_bits
    );
}

#[test]
fn lemma_arithmetic_matches_paper() {
    // C(171, 32) ≈ 4.9 × 10³⁴ ≈ 2¹¹⁵.
    assert!((complexity::log2_binomial(171, 32) - 115.0).abs() < 1.0);
    // r = 32x decoys with x ≥ 16/e − 1 ≈ 4.9 reach 128-bit security.
    let x = complexity::required_decoy_multiple(128.0);
    assert!(x > 4.8 && x < 5.0);
    // And the bound is monotone in r.
    assert!(complexity::log2_stirling_bound(32, 32 * 5) > complexity::log2_stirling_bound(32, 32));
}

#[test]
fn protected_board_still_functions() {
    // The countermeasure must not change the cipher.
    let board = protected_board();
    let golden = board.extract_bitstream();
    let z = board.load(&[Load::Full(&golden)], 2).pop().expect("one lane").expect("runs");
    assert_eq!(z, vec![0xABEE9704, 0x7AC31373]);
}
