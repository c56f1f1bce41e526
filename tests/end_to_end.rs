//! The headline experiment: the complete bitstream-modification
//! attack of Section VI recovers the key from the victim board,
//! without touching any ground-truth artifact — only the extracted
//! bitstream and the keystream oracle.

use bitmod::Attack;
use fpga_sim::{ImplementOptions, Snow3gBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::vectors::{PAPER_TABLE_III, PAPER_TABLE_V, TEST_SET_1_IV, TEST_SET_1_KEY};
use snow3g::{Iv, Key};

fn build_board(key: Key, iv: Iv) -> Snow3gBoard {
    Snow3gBoard::build(Snow3gCircuitConfig::unprotected(key, iv), &ImplementOptions::default())
        .expect("board builds")
}

#[test]
fn attack_recovers_test_set_1_key() {
    let board = build_board(TEST_SET_1_KEY, TEST_SET_1_IV);
    let golden = board.extract_bitstream();
    let report = Attack::new(&board, golden).expect("attack prepares").run().expect("attack runs");

    // The recovered key is the ETSI Test Set 1 key the paper reports
    // in Section VI-D.3.
    assert_eq!(report.recovered.key, TEST_SET_1_KEY);
    assert_eq!(report.recovered.iv, TEST_SET_1_IV);
    assert_eq!(report.recovered.key.to_string(), "2BD6459F82C5B300952C49104881FF48");

    // Table III: the key-independent keystream matches the paper
    // exactly.
    assert_eq!(report.key_independent_keystream, PAPER_TABLE_III);

    // Table V: the reversed LFSR state matches the paper exactly.
    assert_eq!(report.recovered.initial_state, PAPER_TABLE_V);

    // Structure: 32 verified keystream-path LUTs covering every bit,
    // and 32 feedback-path LUTs.
    assert_eq!(report.z_luts.len(), 32);
    let mut bits: Vec<u8> = report.z_luts.iter().map(|z| z.bit).collect();
    bits.sort_unstable();
    assert_eq!(bits, (0..32).collect::<Vec<u8>>());
    assert_eq!(report.feedback_luts.len(), 32);
    assert!(report.z_luts.iter().all(|z| z.pair.is_some()));
}

#[test]
fn attack_recovers_random_key() {
    // The attack must work for any key/IV, not just the test vector.
    let key = Key([0xDEADBEEF, 0x01234567, 0x89ABCDEF, 0x0F1E2D3C]);
    let iv = Iv([0xCAFEBABE, 0x31415926, 0x27182818, 0x16180339]);
    let board = build_board(key, iv);
    let report =
        Attack::new(&board, board.extract_bitstream()).expect("prepares").run().expect("runs");
    assert_eq!(report.recovered.key, key);
    assert_eq!(report.recovered.iv, iv);
    // Table III is key-independent: same value as for the test key.
    assert_eq!(report.key_independent_keystream, PAPER_TABLE_III);
}

#[test]
fn attack_is_oblivious_to_placement() {
    // A different placement seed moves every LUT; the attack must
    // still succeed because it searches rather than assumes offsets.
    let key = Key([0x00010203, 0x04050607, 0x08090A0B, 0x0C0D0E0F]);
    let iv = Iv([1, 2, 3, 4]);
    let board = Snow3gBoard::build(
        Snow3gCircuitConfig::unprotected(key, iv),
        &ImplementOptions { seed: 0xA5A5_5A5A, ..ImplementOptions::default() },
    )
    .expect("board builds");
    let report =
        Attack::new(&board, board.extract_bitstream()).expect("prepares").run().expect("runs");
    assert_eq!(report.recovered.key, key);
}

#[test]
fn candidate_counts_shape_matches_paper() {
    // The Table II analog: f2 dominates the keystream path with ≥ 32
    // hits (the paper found 81 incl. false positives); the feedback
    // path splits across the byte-shift-induced classes; the unused
    // paper rows stay near zero.
    let board = build_board(TEST_SET_1_KEY, TEST_SET_1_IV);
    let report =
        Attack::new(&board, board.extract_bitstream()).expect("prepares").run().expect("runs");
    let count = |name: &str| {
        report.candidate_counts.iter().find(|(n, _)| *n == name).map_or(0, |(_, c)| *c)
    };
    assert!(count("f2") >= 32, "f2 hits: {}", count("f2"));
    assert!(count("m0") + count("m0b") >= 16);
    assert!(count("g4") >= 14);
    // Effort bookkeeping.
    assert!(report.oracle_loads > 50, "the attack reconfigures the device many times");
    assert!(report.beta_edits > 0, "β edits were applied");
}

#[test]
fn bifi_baseline_fails_where_targeted_attack_succeeds() {
    // The untargeted BiFI baseline (paper reference [23]) mutates one
    // LUT at a time; SNOW 3G requires a coordinated 64-LUT fault, so
    // no single mutation yields a recoverable keystream.
    use bitmod::bifi::{self, BifiConfig};
    let board = build_board(TEST_SET_1_KEY, TEST_SET_1_IV);
    let golden = board.extract_bitstream();
    let config = BifiConfig { max_trials: Some(400), ..BifiConfig::default() };
    let report = bifi::run(&board, &golden, &config).expect("campaign runs");
    assert_eq!(report.trials, 400);
    assert!(report.keystream_changed > 0, "mutations do disturb the device");
    assert!(
        report.recovered_keys.is_empty(),
        "single-LUT faults must not break SNOW 3G: {:?}",
        report.recovered_keys
    );
    assert_eq!(report.rejected, 0, "CRC is repaired per trial");
}

#[test]
fn attack_works_on_the_d101_device_family() {
    // The paper's own tool ran with d = 101 bytes. Implement the
    // victim on the quarter-frame family (sub-vectors packed in the
    // four 101-byte quarters of one frame) and attack with the
    // matching stride parameter.
    use fpga_sim::InitLayout;
    let key = Key([0xAABBCCDD, 0x11223344, 0x55667788, 0x99AA77EE]);
    let iv = Iv([0x01020304, 0x05060708, 0x090A0B0C, 0x0D0E0F10]);
    let board = Snow3gBoard::build(
        Snow3gCircuitConfig::unprotected(key, iv),
        &ImplementOptions { layout: InitLayout::QuarterFrame, ..ImplementOptions::default() },
    )
    .expect("board builds");
    // Sanity: the family really uses the paper's stride.
    assert_eq!(board.fpga().geometry().stride(), 101);
    // The stride is a session parameter now: the facade validates it
    // and threads it through to the forge.
    let spec = bitmod::fleet::SessionSpec::builder().stride(101).build().expect("valid spec");
    let io = bitmod::fleet::SessionIo {
        journal: None,
        resume: bitmod::fleet::ResumePolicy::Never,
        telemetry: bitmod::Telemetry::off(),
        cancel: bitmod::fleet::CancelToken::new(),
        expected_key: Some(key),
    };
    let session = spec.run_harnessed(&board, board.extract_bitstream(), &io).expect("runs");
    let report = session.attack.expect("recovered sessions carry a report");
    assert_eq!(report.recovered.key, key);
    assert_eq!(report.recovered.iv, iv);
    assert_eq!(report.key_independent_keystream, PAPER_TABLE_III);
}

#[test]
fn attack_robust_across_keys_and_placements() {
    // Statistical robustness: different secrets move the γ constants
    // (changing the m0/m0b and load-mux populations) and different
    // seeds move every LUT; the pipeline must absorb all of it.
    let cases = [
        (Key([0, 0, 0, 0]), Iv([0, 0, 0, 0]), 0xB00Fu64),
        (Key([u32::MAX; 4]), Iv([u32::MAX; 4]), 0xD00Du64),
        (Key([0x80000000, 1, 0x7FFFFFFF, 0xA5A5A5A5]), Iv([2, 4, 8, 16]), 42u64),
    ];
    for (key, iv, seed) in cases {
        let board = Snow3gBoard::build(
            Snow3gCircuitConfig::unprotected(key, iv),
            &ImplementOptions { seed, ..ImplementOptions::default() },
        )
        .expect("board builds");
        let report = Attack::new(&board, board.extract_bitstream())
            .expect("prepares")
            .run()
            .unwrap_or_else(|e| panic!("attack failed for key {key:?} seed {seed}: {e}"));
        assert_eq!(report.recovered.key, key, "seed {seed}");
        assert_eq!(report.recovered.iv, iv, "seed {seed}");
    }
}
