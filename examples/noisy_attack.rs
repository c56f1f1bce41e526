//! The Section VI attack against a *flaky* board: transient
//! configuration failures, simulated timeouts, truncated reads and
//! per-bit keystream glitches, survived with retries, exponential
//! backoff and per-bit majority voting.
//!
//! ```text
//! cargo run --release --example noisy_attack
//! ```
//!
//! Everything is seeded: the same seed reproduces the same faults,
//! the same retries and the same physical query count.

use bitmod::fleet::CancelToken;
use bitmod::fleet::{ResumePolicy, SessionIo, SessionOutcome, SessionSpec};
use bitmod::Telemetry;
use fpga_sim::{ImplementOptions, Snow3gBoard, UnreliableBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 7u64;

    println!("== Describing the session ==");
    // The spec is the whole experiment: the "flaky" fault preset (10%
    // transient load failures, 2% timeouts, 2% truncated reads, 1%
    // per-bit keystream glitches), 5-ballot per-bit majority voting,
    // seeded exponential backoff (jitter stream decorrelated from the
    // fault stream), and a hard physical-attempt budget.
    let spec = SessionSpec::builder().noisy(true).seed(seed).budget(8_000).build()?;

    println!("\n== Building the victim and wrapping it in the fault profile ==");
    let profile = spec.fault_profile();
    println!("{profile:?}");
    let ideal = Snow3gBoard::build(
        Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV),
        &ImplementOptions::default(),
    )?;
    let board = UnreliableBoard::new(ideal, profile);
    let golden = board.extract_bitstream();

    println!("\n== Running the attack through the resilience layer ==");
    let io = SessionIo {
        journal: None,
        resume: ResumePolicy::Never,
        telemetry: Telemetry::off(),
        cancel: CancelToken::new(),
        expected_key: Some(TEST_SET_1_KEY),
    };
    let report = spec.run_harnessed(&board, golden, &io)?;
    let attack = match report.outcome {
        SessionOutcome::Recovered(_) => report.attack.expect("recovered sessions carry a report"),
        // A budget cut mid-run is a structured partial result, not a
        // panic: the summary says which phase stopped and what was
        // already verified.
        SessionOutcome::Exhausted { summary, .. } => {
            println!("budget exhausted; partial result: {summary}");
            return Ok(());
        }
        other => return Err(format!("session did not recover: {other}").into()),
    };

    println!("recovered key: 0x{}", attack.recovered.key);
    println!("recovered IV : 0x{}", attack.recovered.iv);
    assert_eq!(attack.recovered.key, TEST_SET_1_KEY);

    println!("\n== What the flaky board threw at us ==");
    let faults = board.fault_stats();
    println!("physical loads attempted : {}", faults.loads_attempted);
    println!("transient load failures  : {}", faults.transient_failures);
    println!("simulated timeouts       : {}", faults.timeouts);
    println!("truncated reads          : {}", faults.truncated_reads);
    println!("keystream bits flipped   : {}", faults.bits_flipped);

    println!("\n== What surviving it cost ==");
    let r = &attack.resilience;
    println!("logical oracle queries   : {}", r.queries);
    println!("physical attempts        : {}", r.attempts);
    println!("majority-vote ballots    : {}", r.votes_cast);
    println!("transient errors retried : {}", r.transient_errors);
    println!("virtual backoff          : {} ms", r.backoff_ms);
    Ok(())
}
