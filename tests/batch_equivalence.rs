//! Determinism pin for the batched oracle pipeline: a batched attack
//! must be observationally indistinguishable from a serial one — the
//! same recovered key, the same verified findings, the same load
//! accounting, and (against the fault-injecting board) the same fault
//! trace. Batching is allowed to change throughput and journal write
//! cadence, nothing else.

use bitmod::fleet::CancelToken;
use bitmod::fleet::{ResumePolicy, SessionIo, SessionSpec};
use bitmod::telemetry::Telemetry;
use bitmod::{Attack, AttackReport};
use fpga_sim::{ImplementOptions, Snow3gBoard, UnreliableBoard, GANG_LANES};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

fn build_board() -> Snow3gBoard {
    Snow3gBoard::build(
        Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV),
        &ImplementOptions::default(),
    )
    .expect("board builds")
}

fn io(telemetry: Telemetry) -> SessionIo {
    SessionIo {
        journal: None,
        resume: ResumePolicy::Never,
        telemetry,
        cancel: CancelToken::new(),
        expected_key: Some(TEST_SET_1_KEY),
    }
}

/// Every attack outcome that must not depend on the batch width.
fn assert_equivalent(serial: &AttackReport, batched: &AttackReport) {
    assert_eq!(batched.recovered.key, serial.recovered.key);
    assert_eq!(batched.recovered.iv, serial.recovered.iv);
    assert_eq!(batched.recovered.initial_state, serial.recovered.initial_state);
    assert_eq!(batched.z_luts, serial.z_luts, "verified keystream-path LUTs");
    assert_eq!(batched.feedback_luts, serial.feedback_luts, "feedback LUTs");
    assert_eq!(batched.beta_edits, serial.beta_edits);
    assert_eq!(batched.dead_candidates, serial.dead_candidates);
    assert_eq!(batched.candidate_counts, serial.candidate_counts);
    assert_eq!(batched.alpha_keystream, serial.alpha_keystream);
    assert_eq!(
        batched.alpha_bitstream.as_bytes(),
        serial.alpha_bitstream.as_bytes(),
        "the final α bitstream is byte-identical"
    );
    assert_eq!(batched.oracle_loads, serial.oracle_loads, "load accounting");
    assert_eq!(batched.resilience, serial.resilience, "resilience counters");
}

#[test]
fn batched_clean_attack_equals_serial() {
    let board = build_board();
    let golden = board.extract_bitstream();

    let serial = Attack::new(&board, golden.clone()).expect("prepares").run().expect("serial runs");
    let batched = Attack::new(&board, golden)
        .expect("prepares")
        .with_batch(GANG_LANES)
        .run()
        .expect("batched runs");

    assert_eq!(serial.recovered.key, TEST_SET_1_KEY);
    assert_equivalent(&serial, &batched);
}

#[test]
fn small_batch_width_equals_serial() {
    // The greedy batch planner must be width-independent, not just
    // correct at the gang width: width 3 exercises many batch
    // boundaries, including boundaries forced by the cap rather than
    // by overlap closure.
    let board = build_board();
    let golden = board.extract_bitstream();

    let serial = Attack::new(&board, golden.clone()).expect("prepares").run().expect("serial runs");
    let batched =
        Attack::new(&board, golden).expect("prepares").with_batch(3).run().expect("batched runs");
    assert_equivalent(&serial, &batched);
}

#[test]
fn batched_noisy_attack_replays_the_serial_fault_trace() {
    // Against the fault-injecting board the resilience layer is not
    // in pass-through (majority voting draws RNG per item), so the
    // batched path must execute per item sequentially — identical
    // fault draws, identical retries, identical board-side fault
    // accounting.
    let run = |batch: usize| {
        let spec =
            SessionSpec::builder().noisy(true).seed(7).batch(batch).build().expect("valid spec");
        let noisy = UnreliableBoard::new(build_board(), spec.fault_profile());
        let golden = noisy.extract_bitstream();
        let session = spec.run_harnessed(&noisy, golden, &io(Telemetry::off())).expect("runs");
        (session.attack.expect("recovers"), noisy.fault_stats())
    };
    let (serial, serial_faults) = run(1);
    let (batched, batched_faults) = run(GANG_LANES);

    assert_eq!(serial.recovered.key, TEST_SET_1_KEY);
    assert_equivalent(&serial, &batched);
    assert_eq!(
        batched_faults.loads_attempted, serial_faults.loads_attempted,
        "identical physical load sequence"
    );
    assert_eq!(batched_faults.transient_failures, serial_faults.transient_failures);
    assert_eq!(batched_faults.bits_flipped, serial_faults.bits_flipped);
}

#[test]
fn traced_batched_run_is_bit_identical_to_untraced() {
    let board = build_board();
    let golden = board.extract_bitstream();
    let trace_path =
        std::env::temp_dir().join(format!("bitmod-batch-trace-{}.ndjson", std::process::id()));

    let spec = SessionSpec::builder().batch(GANG_LANES).build().expect("valid spec");
    let untraced = spec
        .run_harnessed(&board, golden.clone(), &io(Telemetry::off()))
        .expect("runs")
        .attack
        .expect("recovers");
    let telemetry = Telemetry::to_path(&trace_path).expect("trace sink opens");
    let traced = spec
        .run_harnessed(&board, golden, &io(telemetry.clone()))
        .expect("runs")
        .attack
        .expect("recovers");
    telemetry.finish().expect("trace flushes");

    assert_equivalent(&untraced, &traced);
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(trace.lines().any(|l| l.contains("\"batch\"")), "batch events recorded");
    let _ = std::fs::remove_file(&trace_path);
}
