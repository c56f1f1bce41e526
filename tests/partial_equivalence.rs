//! Partial/full differential layer: the whole attack run with
//! `--partial` (frame-delta partial-reconfiguration loading) must be
//! behaviourally identical to the full-load run — same recovered key,
//! same logical query sequence with the same per-query keystreams,
//! same resilience totals, plaintext and encrypted, clean and noisy,
//! and bit-identical across a kill-and-resume. Delta loading is a
//! wire-traffic optimisation, never a behavioural fork.

use std::cell::RefCell;
use std::path::PathBuf;

use bitmod::fleet::CancelToken;
use bitmod::fleet::{ResumePolicy, SessionIo, SessionOutcome, SessionSpec};
use bitmod::oracle::{KeystreamOracle, OracleError};
use bitmod::telemetry::names;
use bitmod::Telemetry;
use bitstream::{Bitstream, PartialBitstream};
use fpga_sim::{ImplementOptions, Snow3gBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

fn clean_board() -> Snow3gBoard {
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

/// A pass-through oracle that records every keystream the device
/// returns, in order — over the full *and* the partial port, so the
/// differential tests can compare per-query device traffic no matter
/// which wire format each logical query shipped in.
struct Recorder<'a> {
    inner: &'a dyn KeystreamOracle,
    log: RefCell<Vec<Vec<u32>>>,
}

impl<'a> Recorder<'a> {
    fn new(inner: &'a dyn KeystreamOracle) -> Self {
        Self { inner, log: RefCell::new(Vec::new()) }
    }
}

impl KeystreamOracle for Recorder<'_> {
    fn keystream(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
        let out = self.inner.keystream(bitstream, words);
        if let Ok(ks) = &out {
            self.log.borrow_mut().push(ks.clone());
        }
        out
    }

    fn keystream_batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        let out = self.inner.keystream_batch(bitstreams, words);
        for ks in out.iter().flatten() {
            self.log.borrow_mut().push(ks.clone());
        }
        out
    }

    fn partial_capable(&self) -> bool {
        self.inner.partial_capable()
    }

    fn keystream_partial(
        &self,
        partial: &PartialBitstream,
        words: usize,
    ) -> Result<Vec<u32>, OracleError> {
        let out = self.inner.keystream_partial(partial, words);
        if let Ok(ks) = &out {
            self.log.borrow_mut().push(ks.clone());
        }
        out
    }

    fn keystream_partial_batch_clean(
        &self,
        partials: &[PartialBitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        let out = self.inner.keystream_partial_batch_clean(partials, words);
        for ks in out.iter().flatten() {
            self.log.borrow_mut().push(ks.clone());
        }
        out
    }
}

#[test]
fn partial_and_full_runs_are_query_for_query_identical() {
    // Full-load arm.
    let board = clean_board();
    let golden = board.extract_bitstream();
    let full_recorder = Recorder::new(&board);
    let spec = SessionSpec::builder().build().expect("valid spec");
    let full = spec
        .run_harnessed(&full_recorder, golden.clone(), &io(Telemetry::off()))
        .expect("full-load session runs");

    // Delta-load arm, over the same physical device.
    let pr_recorder = Recorder::new(&board);
    let spec = SessionSpec::builder().partial(true).build().expect("valid spec");
    let telemetry = Telemetry::new();
    let partial = spec
        .run_harnessed(&pr_recorder, golden.clone(), &io(telemetry))
        .expect("delta-load session runs");

    let full_attack = full.attack.expect("full attack report");
    let pr_attack = partial.attack.expect("partial attack report");
    assert_eq!(full_attack.recovered.key, pr_attack.recovered.key);
    assert_eq!(pr_attack.recovered.key, TEST_SET_1_KEY);
    assert_eq!(pr_attack.recovered.iv, TEST_SET_1_IV);
    assert_eq!(
        full_attack.oracle_loads, pr_attack.oracle_loads,
        "delta loading must not change the 545-load accounting"
    );
    assert_eq!(full_attack.resilience, pr_attack.resilience);

    // The strongest form of the claim: the device answered the same
    // logical queries with the same keystreams, in the same order —
    // only the wire format of each load differed.
    let full_log = full_recorder.log.into_inner();
    let pr_log = pr_recorder.log.into_inner();
    assert_eq!(full_log.len(), pr_log.len(), "query counts diverged");
    assert_eq!(full_log, pr_log, "per-query keystreams diverged");

    // And the wire actually got cheaper: all but the first load went
    // partial. The candidate schedule is deterministic, so the traffic
    // is pinned exactly — one frame more or less in any forged delta
    // moves these numbers.
    let loads = partial.metrics.counter(names::PR_PARTIAL_LOADS)
        + partial.metrics.counter(names::PR_FULL_LOADS);
    assert_eq!(partial.metrics.counter(names::PR_FULL_LOADS), 1, "only the first load is full");
    assert_eq!(loads, full_attack.oracle_loads as u64);
    assert_eq!(partial.metrics.counter(names::PR_BYTES_SHIPPED), 975_096);
    assert_eq!(partial.metrics.counter(names::PR_FRAMES_WRITTEN), 2_228);
    assert_eq!(loads * golden.len() as u64, 10_642_760, "full-load traffic");
}

#[test]
fn batched_partial_runs_match_serial_full_runs() {
    let board = clean_board();
    let golden = board.extract_bitstream();
    let spec = SessionSpec::builder().build().expect("valid spec");
    let serial =
        spec.run_harnessed(&board, golden.clone(), &io(Telemetry::off())).expect("serial full run");

    let spec = SessionSpec::builder()
        .partial(true)
        .batch(fpga_sim::GANG_LANES)
        .build()
        .expect("valid spec");
    let batched = spec
        .run_harnessed(&board, golden.clone(), &io(Telemetry::off()))
        .expect("batched partial run");

    // The headline mode: batch 64 × partial × encrypted, every fast
    // path on at once. Its deterministic traffic is pinned exactly.
    let spec = SessionSpec::builder()
        .partial(true)
        .batch(fpga_sim::GANG_LANES)
        .encrypted(true)
        .build()
        .expect("valid spec");
    let headline =
        spec.run_harnessed(&board, golden, &io(Telemetry::new())).expect("headline-mode run");

    let serial_attack = serial.attack.expect("serial attack report");
    let batched_attack = batched.attack.expect("batched attack report");
    let headline_attack = headline.attack.expect("headline attack report");
    assert_eq!(serial_attack.recovered.key, batched_attack.recovered.key);
    assert_eq!(batched_attack.recovered.key, TEST_SET_1_KEY);
    assert_eq!(headline_attack.recovered.key, TEST_SET_1_KEY);
    assert_eq!(
        serial_attack.oracle_loads, batched_attack.oracle_loads,
        "batched delta chains must keep the load accounting"
    );
    assert_eq!(headline_attack.oracle_loads, 545);
    let m = &headline.metrics;
    assert_eq!(m.counter(names::PR_BYTES_SHIPPED), 925_496);
    assert_eq!(m.counter(names::PR_FRAMES_WRITTEN), 2_100);
    assert_eq!(m.counter(names::ENCRYPTED_BLOCKS_REENCRYPTED), 60_789);
    assert_eq!(m.counter(names::ENCRYPTED_MAC_BYTES), 905_968);
    assert_eq!(m.histogram(names::ORACLE_BATCH_SIZE).map(|h| h.count()), Some(14));
}

#[test]
fn encrypted_partial_runs_match_plaintext_full_runs() {
    let board = clean_board();
    let golden = board.extract_bitstream();
    let spec = SessionSpec::builder().build().expect("valid spec");
    let plain =
        spec.run_harnessed(&board, golden.clone(), &io(Telemetry::off())).expect("plaintext run");

    // Encrypted *and* partial: every delta ships as a fresh sealed
    // container, and the run still matches the plaintext full-load
    // ground truth.
    let spec = SessionSpec::builder().encrypted(true).partial(true).build().expect("valid spec");
    let telemetry = Telemetry::new();
    let enc = spec.run_harnessed(&board, golden, &io(telemetry)).expect("encrypted partial run");

    let plain_attack = plain.attack.expect("plaintext attack report");
    let enc_attack = enc.attack.expect("encrypted attack report");
    assert_eq!(plain_attack.recovered.key, enc_attack.recovered.key);
    assert_eq!(enc_attack.recovered.key, TEST_SET_1_KEY);
    assert_eq!(plain_attack.oracle_loads, enc_attack.oracle_loads);
    assert_eq!(plain_attack.resilience, enc_attack.resilience);
    assert_eq!(
        enc.metrics.counter(names::ENCRYPTED_LOADS),
        enc_attack.oracle_loads as u64,
        "every load — full or delta — went through a sealed container"
    );
    assert!(enc.metrics.counter(names::PR_PARTIAL_LOADS) > 0, "the deltas actually shipped");
}

#[test]
fn noisy_partial_runs_match_noisy_full_runs() {
    // The fault stream is keyed by (seed, load index); a partial load
    // draws the identical plan a full load at the same index would,
    // so switching load modes must not shift a single fault.
    let full_spec = SessionSpec::builder().noisy(true).seed(7).build().expect("valid spec");
    let full = full_spec.run_local().expect("noisy full run");
    let SessionOutcome::Recovered(full_stats) = full.outcome else {
        panic!("noisy full run did not recover: {:?}", full.outcome);
    };

    let pr_spec =
        SessionSpec::builder().noisy(true).seed(7).partial(true).build().expect("valid spec");
    let partial = pr_spec.run_local().expect("noisy partial run");
    let SessionOutcome::Recovered(pr_stats) = partial.outcome else {
        panic!("noisy partial run did not recover: {:?}", partial.outcome);
    };

    assert_eq!(full_stats, pr_stats, "noisy totals must be bit-identical across load modes");
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bitmod-partial-{tag}-{}.journal", std::process::id()))
}

#[test]
fn a_killed_partial_run_resumes_to_identical_totals() {
    // Ground truth: one uninterrupted noisy partial run.
    let spec =
        SessionSpec::builder().noisy(true).seed(11).partial(true).build().expect("valid spec");
    let truth = spec.run_local().expect("uninterrupted partial run");
    let SessionOutcome::Recovered(truth_stats) = truth.outcome else {
        panic!("uninterrupted run did not recover: {:?}", truth.outcome);
    };

    // The kill: same spec, journalled, budget-cut mid-attack.
    let path = journal_path("resume");
    let _ = std::fs::remove_file(&path);
    let cut = (truth_stats.physical / 3).max(1);
    let spec = SessionSpec::builder()
        .noisy(true)
        .seed(11)
        .partial(true)
        .budget(cut)
        .journal(&path)
        .build()
        .expect("valid spec");
    let report = spec.run_local().expect("cut run returns structured outcome");
    let SessionOutcome::Exhausted { summary, .. } = &report.outcome else {
        panic!("the cut budget must exhaust, got {:?}", report.outcome);
    };
    assert!(path.exists(), "the journal survives the kill: {summary}");

    // The new process: same spec, raised budget, resume from journal.
    // The resumed session starts with no on-device image (its first
    // load ships in full again) — which must not change a single
    // logical query or fault draw.
    let spec = SessionSpec::builder()
        .noisy(true)
        .seed(11)
        .partial(true)
        .budget(truth_stats.physical * 2)
        .journal(&path)
        .resume(true)
        .build()
        .expect("valid spec");
    let resumed = spec.run_local().expect("resumed run completes");
    let SessionOutcome::Recovered(resumed_stats) = resumed.outcome else {
        panic!("resumed run did not recover: {:?}", resumed.outcome);
    };
    assert_eq!(
        resumed_stats, truth_stats,
        "killed-and-resumed partial totals must replay the uninterrupted trace"
    );
    let attack = resumed.attack.expect("attack report");
    assert_eq!(attack.recovered.key, TEST_SET_1_KEY);
    assert!(!path.exists(), "the journal removes itself on success");
}
