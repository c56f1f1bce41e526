//! The victim-device interface the attack drives.
//!
//! Per the attack model (Section IV-A), the adversary can load a
//! (possibly modified) bitstream into the victim FPGA and collect
//! keystream words. Nothing else — no netlist, no placement, no key.

use core::fmt;

use bitstream::{Bitstream, PartialBitstream};
use fpga_sim::{BoardError, Load, ProgramError, ReadPlan, Snow3gBoard, UnreliableBoard};

/// An error from the device.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum OracleError {
    /// The device refused the bitstream (CRC failure, malformed
    /// stream, wrong size). Deterministic: retrying the same load
    /// fails the same way.
    Rejected(String),
    /// The configuration port glitched mid-load. Transient: the same
    /// bitstream can succeed on retry.
    TransientLoad(String),
    /// The configuration interface stopped responding. Transient.
    Timeout {
        /// How long the (possibly simulated) wait lasted.
        ms: u64,
    },
    /// The read returned fewer keystream words than requested.
    /// Transient: a clean retry can return the full read.
    ShortRead {
        /// Words actually returned.
        got: usize,
        /// Words requested.
        want: usize,
    },
    /// The board died permanently (power or fabric failure). Not
    /// transient — and unlike [`OracleError::Rejected`] the fault is
    /// board-local, not query-local: the same query succeeds on a
    /// healthy board, so the session should migrate rather than give
    /// up.
    BoardDead,
}

impl OracleError {
    /// Whether retrying the same query can succeed. The resilience
    /// layer retries transient errors and aborts on the rest.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            OracleError::TransientLoad(_)
                | OracleError::Timeout { .. }
                | OracleError::ShortRead { .. }
        )
    }
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Rejected(why) => write!(f, "device refused configuration: {why}"),
            OracleError::TransientLoad(why) => write!(f, "transient load failure: {why}"),
            OracleError::Timeout { ms } => {
                write!(f, "configuration interface timed out after {ms} ms")
            }
            OracleError::ShortRead { got, want } => {
                write!(f, "short keystream read: {got} of {want} words")
            }
            OracleError::BoardDead => {
                write!(f, "board died permanently (configuration port unresponsive)")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// *Load a bitstream, generate keystream* — the only capability the
/// attack needs from the victim device.
pub trait KeystreamOracle {
    /// Loads `bitstream` and returns `words` keystream words.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::Rejected`] when the device aborts
    /// configuration.
    fn keystream(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError>;

    /// Loads every bitstream and returns `words` keystream words from
    /// each, positionally aligned with the input. The default is a
    /// serial [`keystream`](Self::keystream) loop in input order, so
    /// every existing oracle — including stateful fault models, whose
    /// draw sequence must match a serial run exactly — batches
    /// correctly without an override. Oracles with a genuinely
    /// parallel substrate (the gang-simulated [`Snow3gBoard`]
    /// (fpga_sim::Snow3gBoard)) override this with a wide
    /// implementation whose per-item results are still bit-identical
    /// to the serial loop.
    fn keystream_batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        bitstreams.iter().map(|bs| self.keystream(bs, words)).collect()
    }

    /// An opaque snapshot of any mutable device-side state, for
    /// crash-safe attack journals. Simulated boards persist their
    /// fault-model position here so a resumed run replays the exact
    /// fault trace an uninterrupted run would have seen; stateless
    /// oracles (ideal boards, real hardware) return `None` and resume
    /// works without it.
    fn state_snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores a [`KeystreamOracle::state_snapshot`]. The default
    /// rejects: an oracle that never produces snapshots cannot be
    /// handed one from a journal recorded against a different device.
    ///
    /// # Errors
    ///
    /// [`OracleError::Rejected`] if this oracle does not support
    /// state restoration or the snapshot does not match its
    /// configuration.
    fn restore_state(&self, _state: &[u8]) -> Result<(), OracleError> {
        Err(OracleError::Rejected("oracle does not support state restoration".into()))
    }

    /// Whether this oracle can *plan* its fault decisions ahead of
    /// executing them ([`KeystreamOracle::plan_read`] /
    /// [`KeystreamOracle::commit_reads`]). Fault-planning oracles let
    /// the resilience layer run batched noisy queries that are
    /// bit-identical to the serial loop: faults are planned for the
    /// exact load indices serial execution would use, device data is
    /// read clean in one wide pass, and only the reads serial
    /// execution performs are committed.
    fn fault_planning(&self) -> bool {
        false
    }

    /// Plans the fault decisions of the physical read `ahead` loads
    /// past the current commit point, without executing or committing
    /// anything. `None` when this oracle does not plan
    /// (`fault_planning()` is false).
    fn plan_read(&self, _ahead: u64, _words: usize) -> Option<ReadPlan> {
        None
    }

    /// Commits planned reads (in load-index order), applying their
    /// fault-stat deltas as if they had been executed serially. A
    /// no-op for non-planning oracles.
    fn commit_reads(&self, _plans: &[ReadPlan]) {}

    /// Loads every bitstream and reads keystream words from the
    /// *clean* substrate, bypassing fault injection and fault
    /// accounting entirely. The speculative data pass of planned
    /// batched execution; the default (no fault model to bypass) is
    /// the ordinary batch.
    fn keystream_batch_clean(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.keystream_batch(bitstreams, words)
    }

    /// Resolves one planned read against its clean device data:
    /// applies the plan's fault outcome (typed error, truncation,
    /// glitch masks, stuck bits) to `clean` exactly as executing the
    /// plan against the device would have. The default (non-planning
    /// oracle) passes the clean result through.
    fn resolve_plan(
        &self,
        _plan: &ReadPlan,
        clean: Result<Vec<u32>, OracleError>,
        _want: usize,
    ) -> Result<Vec<u32>, OracleError> {
        clean
    }

    /// Whether this oracle's device accepts partial-reconfiguration
    /// streams ([`KeystreamOracle::keystream_partial`]). The default
    /// is `false`: callers fall back to full loads.
    fn partial_capable(&self) -> bool {
        false
    }

    /// Partial reconfiguration: applies a frame-delta to the current
    /// on-device image (established by the last successful full
    /// [`keystream`](Self::keystream) load) and returns `words`
    /// keystream words, exactly as a full load of the resulting image
    /// would. One physical load — fault models draw for it exactly as
    /// for a full load at the same load index.
    ///
    /// # Errors
    ///
    /// [`OracleError::Rejected`] when the device refuses the stream,
    /// no base image exists, or — the default — the device has no
    /// partial-reconfiguration port at all.
    fn keystream_partial(
        &self,
        _partial: &PartialBitstream,
        _words: usize,
    ) -> Result<Vec<u32>, OracleError> {
        Err(OracleError::Rejected("device has no partial-reconfiguration port".into()))
    }

    /// Batched partial reconfiguration with serial-chain semantics:
    /// lane `i`'s delta is applied to the image lane `i − 1` left
    /// behind, on the *clean* substrate (no fault injection or
    /// accounting — the partial analogue of
    /// [`keystream_batch_clean`](Self::keystream_batch_clean)). The
    /// default is the serial loop.
    fn keystream_partial_batch_clean(
        &self,
        partials: &[PartialBitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        partials.iter().map(|p| self.keystream_partial(p, words)).collect()
    }
}

impl From<BoardError> for OracleError {
    /// The injected link faults keep their type (the resilience layer
    /// retries the transient ones and migrates off a dead board); every
    /// other board error is a refusal.
    fn from(e: BoardError) -> Self {
        match e {
            BoardError::Program(ProgramError::TransientLoad) => {
                OracleError::TransientLoad("configuration port glitched mid-load".into())
            }
            BoardError::Program(ProgramError::ConfigTimeout { ms }) => OracleError::Timeout { ms },
            BoardError::Program(ProgramError::BoardDead) => OracleError::BoardDead,
            e => OracleError::Rejected(e.to_string()),
        }
    }
}

/// One load on the ideal board.
fn load_one(board: &Snow3gBoard, load: Load<'_>, words: usize) -> Result<Vec<u32>, OracleError> {
    Ok(board.load(&[load], words).pop().expect("one lane")?)
}

/// Many loads on the ideal board, one result per lane.
fn load_all<'a>(
    board: &Snow3gBoard,
    loads: impl Iterator<Item = Load<'a>>,
    words: usize,
) -> Vec<Result<Vec<u32>, OracleError>> {
    let loads: Vec<Load<'a>> = loads.collect();
    board.load(&loads, words).into_iter().map(|r| r.map_err(OracleError::from)).collect()
}

/// A read the fault model cut short is a [`OracleError::ShortRead`].
fn whole(read: Result<Vec<u32>, OracleError>, want: usize) -> Result<Vec<u32>, OracleError> {
    match read {
        Ok(z) if z.len() < want => Err(OracleError::ShortRead { got: z.len(), want }),
        read => read,
    }
}

impl KeystreamOracle for Snow3gBoard {
    fn keystream(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
        load_one(self, Load::Full(bitstream), words)
    }

    /// 64-lane gang simulation: up to 64 candidate configurations are
    /// evaluated bit-parallel per device pass. Lane *i* is
    /// bit-identical to a serial `keystream` call (pinned by the gang
    /// differential tests), so batching changes throughput only.
    fn keystream_batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        load_all(self, bitstreams.iter().map(Load::Full), words)
    }

    fn partial_capable(&self) -> bool {
        true
    }

    fn keystream_partial(
        &self,
        partial: &PartialBitstream,
        words: usize,
    ) -> Result<Vec<u32>, OracleError> {
        load_one(self, Load::Partial(partial), words)
    }

    /// Gang-simulated serial-chain batch: deltas apply sequentially,
    /// lanes run 64-wide.
    fn keystream_partial_batch_clean(
        &self,
        partials: &[PartialBitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        load_all(self, partials.iter().map(Load::Partial), words)
    }
}

impl KeystreamOracle for UnreliableBoard {
    fn keystream(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
        whole(self.load(Load::Full(bitstream), words).map_err(OracleError::from), words)
    }

    fn state_snapshot(&self) -> Option<Vec<u8>> {
        Some(self.snapshot().to_bytes())
    }

    fn restore_state(&self, state: &[u8]) -> Result<(), OracleError> {
        let snapshot = fpga_sim::FaultSnapshot::from_bytes(state)
            .ok_or_else(|| OracleError::Rejected("malformed fault-state snapshot".into()))?;
        self.restore(&snapshot).map_err(|e| OracleError::Rejected(e.to_string()))
    }

    fn fault_planning(&self) -> bool {
        true
    }

    fn plan_read(&self, ahead: u64, words: usize) -> Option<ReadPlan> {
        Some(self.plan_read(ahead, words))
    }

    fn commit_reads(&self, plans: &[ReadPlan]) {
        self.commit_plans(plans);
    }

    /// The clean substrate is the inner ideal board's 64-lane gang
    /// batch: no faults, no fault accounting.
    fn keystream_batch_clean(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        load_all(self.inner(), bitstreams.iter().map(Load::Full), words)
    }

    fn partial_capable(&self) -> bool {
        true
    }

    /// One physical load under the identical fault model: the partial
    /// load at load index `q` draws exactly the plan a full load at
    /// `q` would, so a run's fault trace is invariant under switching
    /// load modes.
    fn keystream_partial(
        &self,
        partial: &PartialBitstream,
        words: usize,
    ) -> Result<Vec<u32>, OracleError> {
        whole(self.load(Load::Partial(partial), words).map_err(OracleError::from), words)
    }

    /// Clean substrate: the inner ideal board's gang-simulated
    /// serial-chain partial batch.
    fn keystream_partial_batch_clean(
        &self,
        partials: &[PartialBitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        load_all(self.inner(), partials.iter().map(Load::Partial), words)
    }

    fn resolve_plan(
        &self,
        plan: &ReadPlan,
        clean: Result<Vec<u32>, OracleError>,
        want: usize,
    ) -> Result<Vec<u32>, OracleError> {
        whole(self.resolve(plan, |_| clean), want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_sim::ImplementOptions;
    use netlist::snow3g_circuit::Snow3gCircuitConfig;
    use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

    #[test]
    fn board_implements_oracle() {
        let board = Snow3gBoard::build(
            Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV),
            &ImplementOptions::default(),
        )
        .expect("board");
        let oracle: &dyn KeystreamOracle = &board;
        let z = oracle.keystream(&board.extract_bitstream(), 2).expect("runs");
        assert_eq!(z, vec![0xABEE9704, 0x7AC31373]);
        let err =
            oracle.keystream(&Bitstream::from_bytes(vec![0; 64]), 1).expect_err("garbage rejected");
        assert!(err.to_string().contains("refused"));
    }
}
