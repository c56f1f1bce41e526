//! Telemetry inertness, the differential guarantee of the tracing
//! layer: an attack with the recorder attached must behave
//! bit-identically to one without it — same recovered key, same
//! physical query trace, same injected-fault trace, same journal
//! bytes. The recorder only *observes* (it reads stats deltas after
//! each query and writes to its own sink), so turning it on must
//! never perturb the RNG streams, the virtual clock, or the query
//! order. These tests fail if any future recording site forgets that.

use bitmod::fleet::CancelToken;
use bitmod::fleet::{ResumePolicy, SessionIo, SessionOutcome, SessionSpec};
use bitmod::resilient::ResilientStats;
use bitmod::telemetry::names;
use bitmod::{Metrics, Telemetry};
use fpga_sim::{FaultStats, ImplementOptions, Snow3gBoard, UnreliableBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};
use snow3g::Key;
use std::path::{Path, PathBuf};

/// The fault seed every deterministic assertion in this file pins.
const SEED: u64 = 7;

/// Ample ceiling for a full run at seed 7 (needs ≈3,100 attempts).
const BUDGET: u64 = 8_000;

/// A cut that lands mid-run (inside the key-independent phase).
const CUT: u64 = 600;

fn noisy_spec(budget: u64, journal: Option<&Path>, resume: bool) -> SessionSpec {
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

fn io(telemetry: Telemetry, journal: Option<&Path>, resume: ResumePolicy) -> SessionIo {
    SessionIo {
        journal: journal.map(Path::to_path_buf),
        resume,
        telemetry,
        cancel: CancelToken::new(),
        expected_key: Some(TEST_SET_1_KEY),
    }
}

fn scratch_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bitmod-telemetry-{tag}-{}.{ext}", std::process::id()))
}

/// Everything that must be identical between a traced and an untraced
/// run for the recorder to count as inert.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    key: Key,
    oracle_loads: usize,
    resilience: ResilientStats,
    faults: FaultStats,
}

/// Runs the noisy journalled attack cut at [`CUT`] attempts, then
/// resumes it to completion — with or without a live recorder on both
/// legs. Returns the cut journal's raw bytes, the completed run's
/// fingerprint, and the resumed leg's metrics.
fn cut_and_resume(tag: &str, traced: bool) -> (Vec<u8>, Fingerprint, Metrics) {
    let path = scratch_path(tag, "journal");
    let _ = std::fs::remove_file(&path);

    let spec = noisy_spec(CUT, None, false);
    let board = flaky_board(&spec);
    let golden = board.extract_bitstream();
    let telemetry = if traced { Telemetry::new() } else { Telemetry::off() };
    let session = spec
        .run_harnessed(&board, golden, &io(telemetry, Some(&path), ResumePolicy::Never))
        .expect("cut run completes");
    assert!(
        matches!(session.outcome, SessionOutcome::Exhausted { .. }),
        "structured cut, got: {:?}",
        session.outcome
    );
    let journal_bytes = std::fs::read(&path).expect("the journal survives the cut");

    let spec = noisy_spec(BUDGET, None, false);
    let board = flaky_board(&spec);
    let golden = board.extract_bitstream();
    let telemetry = if traced { Telemetry::new() } else { Telemetry::off() };
    let session = spec
        .run_harnessed(&board, golden, &io(telemetry.clone(), Some(&path), ResumePolicy::Require))
        .expect("resumed run completes");
    let report = session.attack.expect("resumed run recovers");

    let fingerprint = Fingerprint {
        key: report.recovered.key,
        oracle_loads: report.oracle_loads,
        resilience: report.resilience,
        faults: board.fault_stats(),
    };
    (journal_bytes, fingerprint, telemetry.metrics())
}

#[test]
fn tracing_is_inert_across_cut_resume_and_journal_bytes() {
    let (journal_off, run_off, metrics_off) = cut_and_resume("off", false);
    let (journal_on, run_on, metrics_on) = cut_and_resume("on", true);

    assert_eq!(run_off.key, TEST_SET_1_KEY, "untraced run recovers the key");
    assert_eq!(run_on.key, TEST_SET_1_KEY, "traced run recovers the key");
    assert_eq!(run_on, run_off, "recorder perturbed the query or fault trace");
    assert_eq!(journal_on, journal_off, "recorder perturbed the journal bytes");

    // And the recorder itself: off records nothing, on records the
    // resumed leg's queries.
    assert!(metrics_off.is_empty(), "a disabled recorder accumulates nothing");
    assert!(metrics_on.counter(names::ORACLE_QUERIES) > 0, "a live recorder saw the queries");
}

#[test]
fn metrics_reconcile_with_the_report_and_are_deterministic() {
    let run = || {
        let spec = noisy_spec(BUDGET, None, false);
        let board = flaky_board(&spec);
        let golden = board.extract_bitstream();
        let telemetry = Telemetry::new();
        let session = spec
            .run_harnessed(&board, golden, &io(telemetry.clone(), None, ResumePolicy::Never))
            .expect("session runs");
        let report = session.attack.expect("recovers");
        assert_eq!(report.recovered.key, TEST_SET_1_KEY);
        (report.oracle_loads, report.resilience, telemetry.metrics())
    };
    let (loads_a, stats_a, metrics_a) = run();
    let (loads_b, stats_b, metrics_b) = run();

    // Same seed, same trace: metric bags are exactly reproducible
    // (no wall-clock time leaks into [`Metrics`]).
    assert_eq!(metrics_a, metrics_b, "metrics must be a pure function of the seed");
    assert_eq!((loads_a, stats_a), (loads_b, stats_b));

    // The per-query deltas the recorder summed must reconcile with
    // the oracle's own totals — nothing double- or under-counted.
    assert_eq!(metrics_a.counter(names::ORACLE_LOADS), loads_a as u64);
    assert_eq!(metrics_a.counter(names::ORACLE_QUERIES), stats_a.queries);
    assert_eq!(metrics_a.counter(names::ORACLE_RETRIES), stats_a.transient_errors);
    assert_eq!(metrics_a.counter(names::ORACLE_BACKOFF_MS), stats_a.backoff_ms);

    // Histograms conserve the same totals.
    let per_query = metrics_a.histogram(names::ORACLE_LOADS_PER_QUERY).expect("histogram kept");
    assert_eq!(per_query.count(), stats_a.queries);
    assert_eq!(per_query.sum(), loads_a as u64);
}

#[test]
fn the_ndjson_trace_is_well_formed() {
    let path = scratch_path("trace", "ndjson");
    let _ = std::fs::remove_file(&path);

    let spec = noisy_spec(BUDGET, None, false);
    let board = flaky_board(&spec);
    let golden = board.extract_bitstream();
    let telemetry = Telemetry::to_path(&path).expect("sink opens");
    let session = spec
        .run_harnessed(&board, golden, &io(telemetry.clone(), None, ResumePolicy::Never))
        .expect("session runs");
    let report = session.attack.expect("recovers");
    assert_eq!(report.recovered.key, TEST_SET_1_KEY);
    let fs = board.fault_stats();
    telemetry.record_board_faults(
        fs.loads_attempted,
        fs.transient_failures,
        fs.timeouts,
        fs.truncated_reads,
        fs.bits_flipped,
    );
    telemetry.finish().expect("flushes without sink errors");

    let text = std::fs::read_to_string(&path).expect("trace written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 10, "a full run emits a real event stream, got {}", lines.len());
    assert!(lines[0].contains("\"ev\":\"trace_start\""), "first event: {}", lines[0]);
    assert!(lines[0].contains("\"schema\":1"), "schema version stamped: {}", lines[0]);
    assert!(
        lines.last().unwrap().contains("\"ev\":\"summary\""),
        "last event: {}",
        lines.last().unwrap()
    );

    let mut last_seq = None;
    let mut opens = 0u32;
    let mut closes = 0u32;
    let mut queries = 0u32;
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each line is one JSON object: {line}"
        );
        let seq: u64 = line
            .strip_prefix("{\"seq\":")
            .and_then(|r| r.split(',').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("event carries a leading seq: {line}"));
        if let Some(prev) = last_seq {
            assert!(seq > prev, "seq strictly increases: {prev} then {seq}");
        }
        last_seq = Some(seq);
        if line.contains("\"ev\":\"span_open\"") {
            opens += 1;
        }
        if line.contains("\"ev\":\"span_close\"") {
            closes += 1;
        }
        if line.contains("\"ev\":\"query\"") {
            queries += 1;
        }
    }
    assert_eq!(opens, closes, "every span that opens also closes");
    assert!(opens >= 5, "the attack phases appear as spans, got {opens}");
    assert_eq!(u64::from(queries), report.resilience.queries, "one query event per oracle query");
    assert!(text.contains("\"ev\":\"board\""), "board fault accounting recorded");

    let _ = std::fs::remove_file(&path);
}
