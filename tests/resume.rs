//! Kill-and-resume: a journalled noisy attack cut at an arbitrary
//! point and resumed in a "new process" (fresh board object, state
//! restored from the journal) must recover the key AND produce
//! physical-attempt totals bit-identical to an uninterrupted run —
//! the journal replays the exact query trace, it does not merely
//! approximate it.

use bitmod::fleet::CancelToken;
use bitmod::fleet::{ResumePolicy, SessionIo, SessionOutcome, SessionSpec};
use bitmod::journal::{AttackJournal, JournalError};
use bitmod::{Attack, AttackError, Telemetry};
use fpga_sim::{ImplementOptions, Snow3gBoard, UnreliableBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};
use std::path::{Path, PathBuf};

/// The fault seed every deterministic assertion in this file pins.
const SEED: u64 = 7;

/// Ample ceiling for a full run at seed 7 (needs ≈3,100 attempts).
const BUDGET: u64 = 8_000;

/// The noisy journalled session every test here starts from.
fn spec(budget: u64, journal: Option<&Path>, resume: bool) -> SessionSpec {
    let mut b = SessionSpec::builder().noisy(true).seed(SEED).budget(budget).resume(resume);
    if let Some(path) = journal {
        b = b.journal(path);
    }
    b.build().expect("valid spec")
}

fn flaky_board(spec: &SessionSpec) -> UnreliableBoard {
    let board = Snow3gBoard::build(
        Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV),
        &ImplementOptions::default(),
    )
    .expect("board builds");
    UnreliableBoard::new(board, spec.fault_profile())
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bitmod-resume-{tag}-{}.journal", std::process::id()))
}

struct RunTotals {
    physical: usize,
    logical: u64,
    retries: u64,
    backoff_ms: u64,
}

fn totals_of(report: &bitmod::AttackReport) -> RunTotals {
    RunTotals {
        physical: report.oracle_loads,
        logical: report.resilience.queries,
        retries: report.resilience.transient_errors,
        backoff_ms: report.resilience.backoff_ms,
    }
}

/// The ground truth: the uninterrupted run's key and accounting.
fn uninterrupted() -> RunTotals {
    let session = spec(BUDGET, None, false).run_local().expect("uninterrupted run completes");
    let report = session.attack.expect("uninterrupted run recovers");
    assert_eq!(report.recovered.key, TEST_SET_1_KEY);
    totals_of(&report)
}

/// Cuts a journalled run at `budget` physical attempts ("the kill"),
/// then resumes it from the journal in a fresh session ("the new
/// process") with the full budget.
fn kill_and_resume(tag: &str, budget: u64) -> RunTotals {
    let path = journal_path(tag);
    let _ = std::fs::remove_file(&path);

    let session = spec(budget, Some(&path), false).run_local().expect("cut run completes");
    assert!(
        matches!(session.outcome, SessionOutcome::Exhausted { .. }),
        "structured cut, got: {:?}",
        session.outcome
    );
    assert!(path.exists(), "the journal survives the kill");

    let session = spec(BUDGET, Some(&path), true).run_local().expect("resumed run completes");
    let report = session.attack.expect("resumed run recovers");

    assert_eq!(report.recovered.key, TEST_SET_1_KEY);
    assert_eq!(report.recovered.iv, TEST_SET_1_IV);
    assert!(!path.exists(), "the journal removes itself on success");
    totals_of(&report)
}

#[test]
fn a_killed_run_resumes_to_the_bit_identical_trace() {
    let truth = uninterrupted();
    // Cuts land in different phases: 600 stops in the key-independent
    // configuration, 1500 and 2500 later still — the trace must be
    // identical no matter where the kill fell.
    for (tag, budget) in [("early", 600), ("mid", 1_500), ("late", 2_500)] {
        let resumed = kill_and_resume(tag, budget);
        assert_eq!(resumed.physical, truth.physical, "physical attempts (cut at {budget})");
        assert_eq!(resumed.logical, truth.logical, "logical queries (cut at {budget})");
        assert_eq!(resumed.retries, truth.retries, "absorbed retries (cut at {budget})");
        assert_eq!(resumed.backoff_ms, truth.backoff_ms, "backoff trace (cut at {budget})");
    }
}

/// Journals a cut run for the refusal tests, against a caller-owned
/// board, and returns the cut session's outcome.
fn journal_a_cut(path: &Path) -> SessionOutcome {
    let cut_spec = spec(600, None, false);
    let board = flaky_board(&cut_spec);
    let golden = board.extract_bitstream();
    let io = SessionIo {
        journal: Some(path.to_path_buf()),
        resume: ResumePolicy::Never,
        telemetry: Telemetry::off(),
        cancel: CancelToken::new(),
        expected_key: Some(TEST_SET_1_KEY),
    };
    cut_spec.run_harnessed(&board, golden, &io).expect("cut run completes").outcome
}

#[test]
fn resume_refuses_a_different_golden_bitstream() {
    let path = journal_path("wrong-golden");
    let _ = std::fs::remove_file(&path);
    let outcome = journal_a_cut(&path);
    assert!(matches!(outcome, SessionOutcome::Exhausted { .. }), "cut, got {outcome:?}");

    // A different victim build produces a different golden bitstream;
    // resuming against it must be refused, not silently attempted.
    let board = flaky_board(&spec(BUDGET, None, false));
    let mut golden = board.extract_bitstream();
    let n = golden.as_bytes().len();
    golden.as_mut_bytes()[n / 2] ^= 0x40;
    let err = Attack::resume(&board, golden, AttackJournal::new(&path))
        .expect_err("mismatched golden refused");
    assert!(
        matches!(err, AttackError::Journal(JournalError::GoldenMismatch { .. })),
        "typed refusal, got: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_refuses_a_trace_changing_config_override() {
    let path = journal_path("wrong-config");
    let _ = std::fs::remove_file(&path);
    let outcome = journal_a_cut(&path);
    assert!(matches!(outcome, SessionOutcome::Exhausted { .. }), "cut, got {outcome:?}");

    // Changing the vote count would diverge the physical trace from
    // the journalled prefix — refused. Raising the budget is fine.
    let board = flaky_board(&spec(BUDGET, None, false));
    let golden = board.extract_bitstream();
    let diverging = spec(BUDGET, None, false).resilience_config().with_votes(3);
    let err = Attack::resume_with(&board, golden, AttackJournal::new(&path), diverging)
        .expect_err("trace-changing override refused");
    assert!(
        matches!(err, AttackError::Journal(JournalError::ConfigMismatch { .. })),
        "typed refusal, got: {err}"
    );
    let _ = std::fs::remove_file(&path);
}
