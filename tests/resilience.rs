//! Surviving a flaky board: the complete Section VI attack against an
//! [`UnreliableBoard`] — transient load failures, simulated timeouts,
//! per-bit keystream glitches and truncated reads — must still
//! recover the ETSI Test Set 1 key, deterministically for a fixed
//! seed and within a physical query budget. Exhausting the budget
//! mid-run must yield a structured partial result, never a panic or
//! an opaque error.

use bitmod::attack::AttackPhase;
use bitmod::fleet::CancelToken;
use bitmod::fleet::{ResumePolicy, SessionIo, SessionOutcome, SessionSpec};
use bitmod::Telemetry;
use fpga_sim::{ImplementOptions, Snow3gBoard, UnreliableBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

/// The fault seed every deterministic assertion in this file pins.
const SEED: u64 = 7;

/// Physical-attempt ceiling for the full noisy run. At seed 7 with
/// the rates below the attack needs ≈3,100 attempts; the cap proves
/// the run stays within a budget while leaving head-room against
/// incidental query-order changes.
const BUDGET: u64 = 8_000;

/// The noisy session every test here starts from: the "flaky" fault
/// preset (≥ 1% per-bit keystream glitches, ≥ 10% transient load
/// failures, plus the preset's timeouts and truncated reads) with
/// seeded retry/voting — the acceptance floor.
fn noisy_spec(budget: u64) -> SessionSpec {
    SessionSpec::builder().noisy(true).seed(SEED).budget(budget).build().expect("valid spec")
}

/// The flaky board the spec's own fault profile describes.
fn flaky_board(spec: &SessionSpec) -> UnreliableBoard {
    let board = Snow3gBoard::build(
        Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV),
        &ImplementOptions::default(),
    )
    .expect("board builds");
    UnreliableBoard::new(board, spec.fault_profile())
}

fn io() -> SessionIo {
    SessionIo {
        journal: None,
        resume: ResumePolicy::Never,
        telemetry: Telemetry::off(),
        cancel: CancelToken::new(),
        expected_key: Some(TEST_SET_1_KEY),
    }
}

#[test]
fn noisy_attack_recovers_key_within_budget() {
    let spec = noisy_spec(BUDGET);
    let board = flaky_board(&spec);
    let golden = board.extract_bitstream();
    let session = spec.run_harnessed(&board, golden, &io()).expect("session runs");
    let report = session.attack.expect("attack survives the flaky board");

    assert_eq!(report.recovered.key, TEST_SET_1_KEY);
    assert_eq!(report.recovered.iv, TEST_SET_1_IV);
    assert_eq!(report.recovered.key.to_string(), "2BD6459F82C5B300952C49104881FF48");
    assert_eq!(report.z_luts.len(), 32);
    assert_eq!(report.feedback_luts.len(), 32);

    // Faults were actually injected and absorbed — this was not a
    // lucky clean run.
    let faults = board.fault_stats();
    assert!(faults.transient_failures > 0, "load failures occurred: {faults:?}");
    assert!(faults.bits_flipped > 0, "keystream glitches occurred: {faults:?}");
    assert!(report.resilience.transient_errors > 0, "the retry layer absorbed them");
    assert!(report.resilience.backoff_ms > 0, "backoff advanced the virtual clock");
    assert!(
        report.oracle_loads as u64 <= BUDGET,
        "{} attempts within the {BUDGET} budget",
        report.oracle_loads
    );
    // Majority voting multiplies physical cost: more ballots than
    // logical queries.
    assert!(report.resilience.votes_cast > report.resilience.queries);
}

#[test]
fn noisy_attack_is_deterministic_for_a_fixed_seed() {
    let run = || {
        let spec = noisy_spec(BUDGET);
        let board = flaky_board(&spec);
        let golden = board.extract_bitstream();
        let session = spec.run_harnessed(&board, golden, &io()).expect("session runs");
        let report = session.attack.expect("runs");
        (report.oracle_loads, report.resilience.backoff_ms, board.fault_stats())
    };
    let (loads_a, backoff_a, faults_a) = run();
    let (loads_b, backoff_b, faults_b) = run();
    assert_eq!(loads_a, loads_b, "identical seed, identical physical load count");
    assert_eq!(backoff_a, backoff_b, "identical backoff trace");
    assert_eq!(faults_a, faults_b, "identical injected-fault trace");
}

#[test]
fn budget_exhaustion_yields_structured_partial_result() {
    // 500 attempts is enough to verify the keystream path but not to
    // finish the feedback hypothesis at these fault rates.
    let spec = noisy_spec(500);
    let board = flaky_board(&spec);
    let golden = board.extract_bitstream();
    let session = spec.run_harnessed(&board, golden, &io()).expect("session runs");

    let SessionOutcome::Exhausted { summary, .. } = &session.outcome else {
        panic!("expected a checkpointed exhaustion, got: {:?}", session.outcome);
    };
    assert!(summary.contains("500/500"), "the cut names its budget: {summary}");
    // The partial result carries real progress: phase 2 completed
    // (all 32 keystream-path LUTs) and phase 3 was underway.
    let checkpoint = session.checkpoint.expect("exhaustion carries the checkpoint");
    assert!(checkpoint.phase >= AttackPhase::FeedbackHypothesis, "phase: {}", checkpoint.phase);
    assert_eq!(checkpoint.z_luts.len(), 32);
    assert!(!checkpoint.feedback_luts.is_empty(), "some feedback LUTs verified before the cut");
    assert!(checkpoint.lattice.is_some(), "the site lattice was inferred");
    assert_eq!(checkpoint.oracle_attempts, 500);
    assert!(!checkpoint.candidate_counts.is_empty());
    // The summary names the phase for the operator.
    assert!(checkpoint.to_string().contains("feedback-path hypothesis"));
}

#[test]
fn resilience_off_matches_the_ideal_run() {
    // Against the ideal board, the pass-through configuration must
    // behave exactly like the unwrapped attack: one physical attempt
    // per logical query, no backoff, no extra ballots.
    let board = Snow3gBoard::build(
        Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV),
        &ImplementOptions::default(),
    )
    .expect("board builds");
    let golden = board.extract_bitstream();
    let spec = SessionSpec::builder().build().expect("valid spec");
    let session = spec.run_harnessed(&board, golden, &io()).expect("session runs");
    let report = session.attack.expect("runs");
    assert_eq!(report.recovered.key, TEST_SET_1_KEY);
    assert_eq!(report.oracle_loads as u64, report.resilience.queries);
    assert_eq!(report.resilience.transient_errors, 0);
    assert_eq!(report.resilience.backoff_ms, 0);
}
