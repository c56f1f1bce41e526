//! Width 1 is the batched path: an attack at `batch 1` must issue the
//! exact device trace of the historical serial query loop — the same
//! bitstreams loaded through the scalar `keystream` port in the same
//! order, the same keystreams (or errors) returned, and the same
//! number of crash-safe journal writes. The constants below were
//! recorded from the serial implementation; a recording oracle
//! between the session and the board replays them as a digest.

use std::cell::Cell;
use std::path::PathBuf;

use bitmod::fleet::{CancelToken, ResumePolicy, SessionIo, SessionSpec};
use bitmod::oracle::{KeystreamOracle, OracleError};
use bitmod::telemetry::names;
use bitmod::Telemetry;
use bitstream::Bitstream;
use fpga_sim::{ImplementOptions, ReadPlan, Snow3gBoard, UnreliableBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

/// The clean Test Set 1 run at width 1: FNV-1a digest of the load
/// trace, loads, journal writes.
const CLEAN: (u64, u64, u64) = (4_403_990_643_215_801_624, 545, 277);

/// The `noisy(true).seed(7)` run at width 1.
const NOISY: (u64, u64, u64) = (9_659_585_089_910_820_904, 3145, 277);

/// Forwards every port to `inner` and folds each load — the port it
/// used, the bitstream and the answer — into a running FNV-1a digest.
/// Wide ports carry their own tags, so a width-1 run that stopped
/// issuing scalar `keystream` calls changes the digest even when the
/// answers agree.
struct Recorder<'a> {
    inner: &'a dyn KeystreamOracle,
    digest: Cell<u64>,
    loads: Cell<u64>,
}

impl<'a> Recorder<'a> {
    fn new(inner: &'a dyn KeystreamOracle) -> Self {
        Self { inner, digest: Cell::new(0xcbf2_9ce4_8422_2325), loads: Cell::new(0) }
    }

    fn absorb(&self, bytes: &[u8]) {
        let mut h = self.digest.get();
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.digest.set(h);
    }

    fn record(&self, port: u8, bitstream: &Bitstream, answer: &Result<Vec<u32>, OracleError>) {
        self.loads.set(self.loads.get() + 1);
        self.absorb(&[port]);
        self.absorb(&(bitstream.as_bytes().len() as u64).to_le_bytes());
        self.absorb(bitstream.as_bytes());
        match answer {
            Ok(z) => {
                self.absorb(b"ok");
                for w in z {
                    self.absorb(&w.to_le_bytes());
                }
            }
            Err(e) => self.absorb(format!("err {e}").as_bytes()),
        }
    }

    fn record_all(
        &self,
        port: u8,
        bitstreams: &[Bitstream],
        answers: Vec<Result<Vec<u32>, OracleError>>,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        for (bs, answer) in bitstreams.iter().zip(&answers) {
            self.record(port, bs, answer);
        }
        answers
    }
}

impl KeystreamOracle for Recorder<'_> {
    fn keystream(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
        let answer = self.inner.keystream(bitstream, words);
        self.record(b'K', bitstream, &answer);
        answer
    }

    fn keystream_batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.record_all(b'B', bitstreams, self.inner.keystream_batch(bitstreams, words))
    }

    fn keystream_batch_clean(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.record_all(b'C', bitstreams, self.inner.keystream_batch_clean(bitstreams, words))
    }

    fn state_snapshot(&self) -> Option<Vec<u8>> {
        self.inner.state_snapshot()
    }

    fn restore_state(&self, state: &[u8]) -> Result<(), OracleError> {
        self.inner.restore_state(state)
    }

    fn fault_planning(&self) -> bool {
        self.inner.fault_planning()
    }

    fn plan_read(&self, ahead: u64, words: usize) -> Option<ReadPlan> {
        self.inner.plan_read(ahead, words)
    }

    fn commit_reads(&self, plans: &[ReadPlan]) {
        self.inner.commit_reads(plans);
    }

    fn resolve_plan(
        &self,
        plan: &ReadPlan,
        clean: Result<Vec<u32>, OracleError>,
        want: usize,
    ) -> Result<Vec<u32>, OracleError> {
        self.inner.resolve_plan(plan, clean, want)
    }
}

fn build_board() -> Snow3gBoard {
    Snow3gBoard::build(
        Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV),
        &ImplementOptions::default(),
    )
    .expect("board builds")
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bitmod-width-one-{tag}-{}.journal", std::process::id()))
}

/// Runs `spec` at width 1 through a recorder over `board`, journalled
/// and traced, and returns (digest, loads, journal writes).
fn trace(
    spec: &SessionSpec,
    board: &dyn KeystreamOracle,
    golden: Bitstream,
    tag: &str,
) -> (u64, u64, u64) {
    assert_eq!(spec.batch_width(), 1);
    let path = journal_path(tag);
    let _ = std::fs::remove_file(&path);
    let telemetry = Telemetry::new();
    let io = SessionIo {
        journal: Some(path.clone()),
        resume: ResumePolicy::Never,
        telemetry: telemetry.clone(),
        cancel: CancelToken::new(),
        expected_key: Some(TEST_SET_1_KEY),
    };
    let recorder = Recorder::new(board);
    let report = spec.run_harnessed(&recorder, golden, &io).expect("runs");
    let _ = std::fs::remove_file(&path);
    let attack = report.attack.expect("recovers");
    assert_eq!(attack.recovered.key, TEST_SET_1_KEY);
    assert_eq!(recorder.loads.get(), attack.oracle_loads as u64, "every load is recorded");
    (
        recorder.digest.get(),
        recorder.loads.get(),
        telemetry.metrics().counter(names::JOURNAL_WRITES),
    )
}

#[test]
fn clean_width_one_replays_the_serial_trace() {
    let spec = SessionSpec::builder().batch(1).build().expect("valid spec");
    let board = build_board();
    let golden = board.extract_bitstream();
    assert_eq!(trace(&spec, &board, golden, "clean"), CLEAN);
}

#[test]
fn noisy_width_one_replays_the_serial_trace() {
    let spec = SessionSpec::builder().noisy(true).seed(7).batch(1).build().expect("valid spec");
    let board = UnreliableBoard::new(build_board(), spec.fault_profile());
    let golden = board.extract_bitstream();
    assert_eq!(trace(&spec, &board, golden, "noisy"), NOISY);
}
