//! Encrypted/plaintext differential layer: the whole attack run over
//! the Fig. 1 sealed container must be *bit-identical* to the run
//! over the plaintext bitstream — same recovered key, same per-query
//! keystreams, same load accounting, same journal totals across a
//! kill-and-resume. The container is pure overhead the attack pays,
//! never a behavioural fork.

use std::cell::RefCell;
use std::path::PathBuf;

use bitmod::fleet::CancelToken;
use bitmod::fleet::{ResumePolicy, SessionIo, SessionOutcome, SessionSpec};
use bitmod::journal::AttackJournal;
use bitmod::oracle::{KeystreamOracle, OracleError};
use bitmod::telemetry::names;
use bitmod::{Telemetry, SCA_TRACES_REQUIRED};
use bitstream::Bitstream;
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
/// returns, in order — the probe that lets the differential tests
/// compare *per-query* traffic, not just totals.
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
}

#[test]
fn the_encrypted_attack_recovers_the_key_from_the_sealed_container() {
    let board = clean_board();
    let golden = board.extract_bitstream();
    let spec = SessionSpec::builder().encrypted(true).build().expect("valid spec");
    let telemetry = Telemetry::new();
    let report =
        spec.run_harnessed(&board, golden, &io(telemetry)).expect("encrypted session runs");
    let SessionOutcome::Recovered(stats) = &report.outcome else {
        panic!("encrypted attack did not recover: {:?}", report.outcome);
    };
    let attack = report.attack.as_ref().expect("attack report");
    assert_eq!(attack.recovered.key, TEST_SET_1_KEY);
    assert_eq!(attack.recovered.iv, TEST_SET_1_IV);

    // The accounting shows the run actually went through the
    // container: every physical load was shipped as ciphertext, and
    // the SCA budget was spent once, up front.
    assert_eq!(report.metrics.counter(names::ENCRYPTED_LOADS), stats.physical);
    assert_eq!(report.metrics.counter(names::SCA_TRACES), u64::from(SCA_TRACES_REQUIRED));
    let reencrypted = report.metrics.counter(names::ENCRYPTED_BLOCKS_REENCRYPTED);
    let reused = report.metrics.counter(names::ENCRYPTED_BLOCKS_REUSED);
    assert!(reencrypted > 0, "candidate loads re-encrypt their dirty window");
    assert!(
        reused > 0,
        "the seekable patch oracle must reuse clean prefix blocks, not reseal everything"
    );
}

#[test]
fn encrypted_and_plaintext_runs_are_query_for_query_identical() {
    // Plaintext arm.
    let board = clean_board();
    let golden = board.extract_bitstream();
    let plain_recorder = Recorder::new(&board);
    let spec = SessionSpec::builder().build().expect("valid spec");
    let plain = spec
        .run_harnessed(&plain_recorder, golden.clone(), &io(Telemetry::off()))
        .expect("plaintext session runs");

    // Encrypted arm, over the same physical device.
    let enc_recorder = Recorder::new(&board);
    let spec = SessionSpec::builder().encrypted(true).build().expect("valid spec");
    let encrypted = spec
        .run_harnessed(&enc_recorder, golden, &io(Telemetry::off()))
        .expect("encrypted session runs");

    let plain_attack = plain.attack.expect("plaintext attack report");
    let enc_attack = encrypted.attack.expect("encrypted attack report");
    assert_eq!(plain_attack.recovered.key, enc_attack.recovered.key);
    assert_eq!(plain_attack.recovered.key, TEST_SET_1_KEY);
    assert_eq!(
        plain_attack.oracle_loads, enc_attack.oracle_loads,
        "the container must not change the 545-load accounting"
    );
    assert_eq!(plain_attack.resilience, enc_attack.resilience);

    // The strongest form of the claim: the device answered the same
    // queries with the same keystreams, in the same order.
    let plain_log = plain_recorder.log.into_inner();
    let enc_log = enc_recorder.log.into_inner();
    assert_eq!(plain_log.len(), enc_log.len(), "query counts diverged");
    assert_eq!(plain_log, enc_log, "per-query keystreams diverged");
}

#[test]
fn noisy_encrypted_runs_match_noisy_plaintext_runs() {
    // The fault stream is keyed by (seed, load index) on the inner
    // board; shipping loads through the container must not shift it.
    let plain_spec = SessionSpec::builder().noisy(true).seed(7).build().expect("valid spec");
    let plain = plain_spec.run_local().expect("plaintext noisy run");
    let SessionOutcome::Recovered(plain_stats) = plain.outcome else {
        panic!("plaintext noisy run did not recover: {:?}", plain.outcome);
    };

    let enc_spec =
        SessionSpec::builder().noisy(true).seed(7).encrypted(true).build().expect("valid spec");
    let encrypted = enc_spec.run_local().expect("encrypted noisy run");
    let SessionOutcome::Recovered(enc_stats) = encrypted.outcome else {
        panic!("encrypted noisy run did not recover: {:?}", encrypted.outcome);
    };

    assert_eq!(plain_stats, enc_stats, "noisy totals must be bit-identical through the container");
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bitmod-encrypted-{tag}-{}.journal", std::process::id()))
}

#[test]
fn a_killed_encrypted_run_resumes_to_identical_journal_totals() {
    // Ground truth: one uninterrupted encrypted noisy run.
    let spec = SessionSpec::builder().noisy(true).seed(7).encrypted(true).build().expect("spec");
    let truth = spec.run_local().expect("uninterrupted encrypted run");
    let SessionOutcome::Recovered(truth_stats) = truth.outcome else {
        panic!("uninterrupted run did not recover: {:?}", truth.outcome);
    };

    // The kill: the same spec, journalled, budget-cut mid-attack.
    let path = journal_path("resume");
    let _ = std::fs::remove_file(&path);
    let cut = (truth_stats.physical / 3).max(1);
    let spec = SessionSpec::builder()
        .noisy(true)
        .seed(7)
        .encrypted(true)
        .budget(cut)
        .journal(&path)
        .build()
        .expect("spec");
    let report = spec.run_local().expect("cut run returns structured outcome");
    let SessionOutcome::Exhausted { summary, .. } = &report.outcome else {
        panic!("the cut budget must exhaust, got {:?}", report.outcome);
    };
    assert!(report.checkpoint.is_some(), "exhaustion names a checkpoint");
    assert!(path.exists(), "the journal survives the kill: {summary}");

    // The journal carries the SCA accounting, so the resumed process
    // reports the traces the dead one spent.
    let doc = AttackJournal::new(&path).load().expect("journal loads");
    assert_eq!(doc.sca_traces, SCA_TRACES_REQUIRED);

    // The new process: same spec, raised budget, resume from journal.
    let spec = SessionSpec::builder()
        .noisy(true)
        .seed(7)
        .encrypted(true)
        .budget(truth_stats.physical * 2)
        .journal(&path)
        .resume(true)
        .build()
        .expect("spec");
    let resumed = spec.run_local().expect("resumed run completes");
    let SessionOutcome::Recovered(resumed_stats) = resumed.outcome else {
        panic!("resumed run did not recover: {:?}", resumed.outcome);
    };
    assert_eq!(
        resumed_stats, truth_stats,
        "killed-and-resumed encrypted totals must replay the uninterrupted trace"
    );
    let attack = resumed.attack.expect("attack report");
    assert_eq!(attack.recovered.key, TEST_SET_1_KEY);
    assert!(!path.exists(), "the journal removes itself on success");
}
