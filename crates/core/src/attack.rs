//! The full key-recovery attack of Section VI.
//!
//! Phases (matching the paper's narrative):
//!
//! 1. **Candidate search** — run FINDLUT over the extracted bitstream
//!    for every catalogue shape (the Table II data).
//! 2. **Keystream-path identification** (Section VI-C.1) — for every
//!    `f2` hit, replace the LUT with constant 0 and check the
//!    "i-th keystream bit stuck at 0, all other bits unchanged"
//!    signature; prune overlapping candidates.
//! 3. **Feedback-path hypothesis** (Section VI-C.2) — collect hits of
//!    the feedback shapes, discard those overlapping verified LUTs
//!    and those whose modification does not change the keystream
//!    (dead configuration bytes).
//! 4. **Key-independent configuration** (Section VI-D) — locate the
//!    LFSR load multiplexers (fractured LUT halves of the form
//!    `c ∨ a` / `¬c ∧ a`), identify the control pin structurally,
//!    inject `β` (load all-0) together with `α₁` (v = 0 on the
//!    feedback path) and compare the keystream against the
//!    key-independent reference (Table III) that the attacker
//!    computes with the public software model.
//! 5. **Pair disambiguation** (Section VI-D.1) — two keystream
//!    computations decide, for every keystream-path LUT, which two
//!    inputs feed `v`.
//! 6. **Key extraction** (Section VI-A / VI-D.3) — inject the full
//!    `α` into a fresh copy of the bitstream (load constants
//!    preserved), read 16 keystream words (= LFSR state `S³³`),
//!    reverse the LFSR 33 steps and read the key.

use core::fmt;
use std::collections::HashMap;

use boolfn::TruthTable;

use bitstream::{Bitstream, FRAME_BYTES};
use snow3g::recover::{recover_key, RecoverKeyError, RecoveredSecret};
use snow3g::{FaultSpec, FaultySnow3g, Iv, Key};

use crate::candidates::{Catalogue, Role};
use crate::edit::{CrcStrategy, GoldenForge};
use crate::findlut::{LutHit, ScanConfigError, Scanner};
use crate::oracle::{KeystreamOracle, OracleError};
use crate::resilient::{ResilienceConfig, ResilienceError, ResilientOracle, ResilientStats};
use crate::telemetry::Telemetry;

/// A verified keystream-path LUT (`LUT₁[i]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZPathLut {
    /// The bitstream location.
    pub hit: LutHit,
    /// The keystream bit this LUT drives.
    pub bit: u8,
    /// The inputs of `v`, once disambiguated (candidate pin pair).
    pub pair: Option<(u8, u8)>,
}

/// The byte/frame lattice real LUT sites occupy, inferred from the
/// verified keystream-path LUTs (the Section VII-B move of guessing
/// "in which frames LUTs are located" and limiting the search). It
/// prunes misaligned windows over real configuration data that would
/// otherwise look like additional candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteLattice {
    /// Byte parity of LUT base offsets (`None` = unconstrained).
    pub(crate) parity: Option<usize>,
    /// Frame-index modulus.
    pub(crate) modulus: usize,
    /// Frame-index residue.
    pub(crate) residue: usize,
    /// Sub-vector stride (bytes per frame).
    pub(crate) d: usize,
    /// Observed sub-vector order per column-group parity
    /// (SLICEL/SLICEM column alternation); `None` when inconsistent.
    pub(crate) order_of_group: [Option<bitstream::SubVectorOrder>; 2],
}

impl SiteLattice {
    /// Infers the lattice from verified LUT hits. Returns a
    /// permissive lattice when the samples are inconsistent.
    #[must_use]
    pub fn infer(samples: &[(usize, bitstream::SubVectorOrder)], d: usize) -> Self {
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let permissive =
            Self { parity: None, modulus: 1, residue: 0, d, order_of_group: [None, None] };
        if samples.is_empty() {
            return permissive;
        }
        // Majority-vote parity (≥ 80% decisive), mirroring the
        // frame-modulus handling below: a single misaligned window
        // that verified by coincidence must not disable the whole
        // lattice.
        let even = samples.iter().filter(|(l, _)| l % 2 == 0).count();
        let odd = samples.len() - even;
        let parity = if even * 5 >= samples.len() * 4 {
            Some(0)
        } else if odd * 5 >= samples.len() * 4 {
            Some(1)
        } else {
            None
        };
        // Off-parity samples are outliers; exclude them from stride
        // and order inference.
        let samples: Vec<(usize, bitstream::SubVectorOrder)> =
            samples.iter().copied().filter(|(l, _)| parity.is_none_or(|p| l % 2 == p)).collect();
        let samples = &samples[..];
        let Some(&(first, _)) = samples.first() else { return permissive };
        let f0 = first / d;
        let base = samples.iter().fold(0usize, |g, &(l, _)| gcd(g, (l / d).abs_diff(f0)));
        if base == 0 {
            // All samples in one frame group: no stride information.
            return Self { parity, modulus: 1, residue: 0, d, order_of_group: [None, None] };
        }
        // A few samples may be misaligned windows that verified by
        // coincidence; take the largest multiple of the raw gcd whose
        // dominant residue class covers ≥ 80% of the samples.
        let mut modulus = base.max(1);
        for factor in [8usize, 4, 2] {
            let g = base.max(1) * factor;
            let mut counts: std::collections::HashMap<usize, usize> =
                std::collections::HashMap::new();
            for &(l, _) in samples {
                *counts.entry((l / d) % g).or_default() += 1;
            }
            let dominant = counts.values().copied().max().unwrap_or(0);
            if dominant * 5 >= samples.len() * 4 {
                modulus = g;
                break;
            }
        }
        if modulus <= 1 {
            return Self { parity, modulus: 1, residue: 0, d, order_of_group: [None, None] };
        }
        // Dominant residue (not necessarily the first sample's).
        let mut counts: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for &(l, _) in samples {
            *counts.entry((l / d) % modulus).or_default() += 1;
        }
        let residue = counts
            .into_iter()
            .max_by_key(|&(r, c)| (c, std::cmp::Reverse(r)))
            .map_or(f0 % modulus, |(r, _)| r);
        // Order inference restricted to on-lattice samples.
        let samples: Vec<(usize, bitstream::SubVectorOrder)> =
            samples.iter().copied().filter(|(l, _)| (l / d) % modulus == residue).collect();
        let samples = &samples[..];
        // Learn the slice-type alternation by majority vote: which
        // sub-vector order appears in even vs odd column groups. A
        // few samples may carry the wrong order (an f2 permutation
        // can coincidentally match the other order's decoding, and
        // the constant-0 verification write is order-invariant), so
        // strict consistency is too brittle.
        let mut votes = [[0usize; 2]; 2];
        for &(l, order) in samples {
            let group = (l / d / modulus) % 2;
            let o = usize::from(order == bitstream::SubVectorOrder::SliceM);
            votes[group][o] += 1;
        }
        // Use a group's majority order only when it is decisive
        // (≥ 80%): some device families do not alternate slice types
        // at this granularity, and a wrong prediction would discard
        // real candidates.
        let order_of_group = votes.map(|v| {
            let total = v[0] + v[1];
            if total == 0 {
                None
            } else if v[0] * 5 >= total * 4 {
                Some(bitstream::SubVectorOrder::SliceL)
            } else if v[1] * 5 >= total * 4 {
                Some(bitstream::SubVectorOrder::SliceM)
            } else {
                None
            }
        });
        Self { parity, modulus, residue, d, order_of_group }
    }

    /// Whether a candidate byte offset lies on the lattice.
    #[must_use]
    pub fn accepts(&self, l: usize) -> bool {
        self.parity.is_none_or(|p| l % 2 == p) && (l / self.d) % self.modulus == self.residue
    }

    /// Whether a hit's sub-vector order matches the slice type
    /// expected at its column.
    #[must_use]
    pub fn accepts_order(&self, l: usize, order: bitstream::SubVectorOrder) -> bool {
        if self.modulus <= 1 {
            return true;
        }
        let group = (l / self.d / self.modulus) % 2;
        self.order_of_group[group].is_none_or(|o| o == order)
    }

    /// Combined position + order acceptance.
    #[must_use]
    pub fn accepts_hit(&self, hit: &LutHit) -> bool {
        self.accepts(hit.l) && self.accepts_order(hit.l, hit.order)
    }

    /// The order the lattice predicts for a site, if learned.
    #[must_use]
    pub fn expected_order(&self, l: usize) -> Option<bitstream::SubVectorOrder> {
        if self.modulus <= 1 {
            return None;
        }
        self.order_of_group[(l / self.d / self.modulus) % 2]
    }
}

/// A hypothesised feedback-path LUT (`LUT₂`/`LUT₃` analog).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackLut {
    /// Which catalogue shape matched.
    pub shape: &'static str,
    /// The bitstream location.
    pub hit: LutHit,
}

/// An identified load-multiplexer half (stages `s0..s14`).
///
/// Which of the two pins is the load control and which is the
/// shift-in never needs to be resolved: the `β` edit replaces
/// `x ∨ y` by `x ∧ y`, which loads 0 in the first cycle (the shift-in
/// is still at its power-up value 0) and then holds 0 — exactly the
/// behaviour an all-zero LFSR needs in the key-independent
/// configuration, under either pin assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadMuxHalf {
    /// The bitstream location of the hosting LUT.
    pub hit: LutHit,
    /// Which half (0 = O5, 1 = O6).
    pub half: u8,
    /// The two support pins of the `x ∨ y` half.
    pub pins: (u8, u8),
}

/// How far the attack progressed (checkpoint granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackPhase {
    /// Phase 1: FINDLUT candidate search (no oracle queries).
    CandidateSearch,
    /// Phase 2: keystream-path verification.
    ZPathVerification,
    /// Phase 3: feedback-path hypothesis.
    FeedbackHypothesis,
    /// Phase 4: key-independent configuration.
    KeyIndependent,
    /// Phase 5: pair disambiguation.
    PairDisambiguation,
    /// Phase 6: α injection and key extraction.
    KeyExtraction,
}

impl fmt::Display for AttackPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AttackPhase::CandidateSearch => "candidate search",
            AttackPhase::ZPathVerification => "keystream-path verification",
            AttackPhase::FeedbackHypothesis => "feedback-path hypothesis",
            AttackPhase::KeyIndependent => "key-independent configuration",
            AttackPhase::PairDisambiguation => "pair disambiguation",
            AttackPhase::KeyExtraction => "key extraction",
        };
        f.write_str(name)
    }
}

/// A structured partial result: everything verified before the
/// oracle budget ran out. A later run can skip re-verifying these
/// findings (the whole point of surviving a flaky board with a
/// metered configuration port).
///
/// The `pass`/`cursor` fields pin the exact loop position the attack
/// had reached, so a journalled checkpoint resumes *mid-phase*: the
/// phases iterate deterministic item lists (candidate hits, drop
/// sets, f2 variants), and a resumed run continues at `cursor` with
/// the restored RNG states, replaying the identical query trace an
/// uninterrupted run would have produced.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCheckpoint {
    /// The phase the attack was executing when it stopped.
    pub phase: AttackPhase,
    /// The pass within the phase (phases 2 and 4 run two passes; all
    /// others a single pass 0).
    pub pass: u8,
    /// Items of the current pass's deterministic work list consumed.
    pub cursor: usize,
    /// Physical oracle attempts spent.
    pub oracle_attempts: u64,
    /// Candidates discarded because editing them did not change the
    /// keystream (dead configuration bytes / false positives).
    pub dead_candidates: u64,
    /// Raw FINDLUT match counts (phase 1; oracle-free, always
    /// present).
    pub candidate_counts: Vec<(&'static str, usize)>,
    /// The golden keystream read at attack setup (resume skips the
    /// initial golden query).
    pub golden_keystream: Vec<u32>,
    /// Phase 2 first-pass verifications (pre-lattice; kept for
    /// forensics — the lattice was inferred from these positions).
    pub z_pass1: Vec<ZPathLut>,
    /// Keystream-path LUTs verified so far (current pass).
    pub z_luts: Vec<ZPathLut>,
    /// Feedback-path LUTs surviving pruning so far.
    pub feedback_luts: Vec<FeedbackLut>,
    /// The site lattice, once inferred (end of phase 2 pass 0).
    pub lattice: Option<SiteLattice>,
    /// γ=1 load-mux halves located so far (phase 4 pass 0).
    pub mux_halves: Vec<LoadMuxHalf>,
    /// Phase 5 stuck-bit masks, one per completed f2 variant.
    pub stuck_masks: Vec<u32>,
}

impl AttackCheckpoint {
    pub(crate) fn new() -> Self {
        Self {
            phase: AttackPhase::CandidateSearch,
            pass: 0,
            cursor: 0,
            oracle_attempts: 0,
            dead_candidates: 0,
            candidate_counts: Vec::new(),
            golden_keystream: Vec::new(),
            z_pass1: Vec::new(),
            z_luts: Vec::new(),
            feedback_luts: Vec::new(),
            lattice: None,
            mux_halves: Vec::new(),
            stuck_masks: Vec::new(),
        }
    }
}

impl fmt::Display for AttackCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stopped during {} (pass {}, item {}): {} z-path LUTs, {} feedback LUTs, \
             lattice {}, {} attempts spent",
            self.phase,
            self.pass,
            self.cursor,
            self.z_luts.len(),
            self.feedback_luts.len(),
            if self.lattice.is_some() { "inferred" } else { "unknown" },
            self.oracle_attempts
        )
    }
}

/// The attack's findings and effort metrics.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Raw FINDLUT match counts per catalogue shape (the Table II
    /// analog).
    pub candidate_counts: Vec<(&'static str, usize)>,
    /// Verified keystream-path LUTs.
    pub z_luts: Vec<ZPathLut>,
    /// Hypothesised feedback-path LUTs (validated jointly by the
    /// key-independent keystream).
    pub feedback_luts: Vec<FeedbackLut>,
    /// γ=1 load-mux halves that received the `β` edit.
    pub beta_edits: usize,
    /// Candidates discarded because editing them did not change the
    /// keystream (dead configuration bytes / false positives).
    pub dead_candidates: usize,
    /// The key-independent keystream observed (must equal Table III).
    pub key_independent_keystream: Vec<u32>,
    /// The final faulty keystream (Table IV; equals LFSR state S³³).
    pub alpha_keystream: Vec<u32>,
    /// The final α-faulted bitstream that produced it (diff against
    /// the golden bitstream to see exactly which bytes the attack
    /// rewrote).
    pub alpha_bitstream: Bitstream,
    /// The recovered secrets (Table V and the key).
    pub recovered: RecoveredSecret,
    /// Number of device configurations the attack performed
    /// (physical attempts, including retries and majority-vote
    /// re-reads).
    pub oracle_loads: usize,
    /// Resilience-layer effort counters (retries, votes, backoff).
    pub resilience: ResilientStats,
}

/// An error aborting the attack.
#[derive(Debug)]
pub enum AttackError {
    /// The bitstream has no FDRI payload to search.
    NoFdriPayload,
    /// The device refused a bitstream the attack expected to load.
    Oracle(OracleError),
    /// Fewer than 32 keystream-path LUTs were verified.
    ZPathIncomplete {
        /// Bits covered by verified LUTs.
        bits_found: u32,
    },
    /// No combination of load-mux hypotheses produced the
    /// key-independent keystream.
    KeyIndependentMismatch,
    /// A keystream bit's XOR pair could not be resolved.
    PairUnresolved {
        /// The offending keystream bit.
        bit: u8,
    },
    /// LFSR reversal failed on the final faulty keystream.
    Recover(RecoverKeyError),
    /// The candidate scan could not be configured (e.g. zero stride).
    Config(ScanConfigError),
    /// The resilience layer gave up (retries exhausted or a fatal
    /// oracle error behind the retry loop).
    Resilience(ResilienceError),
    /// The crash-safe journal could not be written, read or matched
    /// against this run's configuration.
    Journal(crate::journal::JournalError),
    /// The oracle-query budget (or virtual-clock deadline) ran out
    /// mid-run. Carries everything verified so far as a structured
    /// partial result.
    Exhausted {
        /// Findings accumulated before the budget ran out.
        checkpoint: Box<AttackCheckpoint>,
        /// The underlying budget failure.
        source: ResilienceError,
    },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::NoFdriPayload => write!(f, "bitstream has no FDRI payload"),
            AttackError::Oracle(e) => write!(f, "oracle failure: {e}"),
            AttackError::ZPathIncomplete { bits_found } => {
                write!(f, "only {bits_found} keystream bits covered by verified LUTs")
            }
            AttackError::KeyIndependentMismatch => {
                write!(f, "no hypothesis produced the key-independent keystream")
            }
            AttackError::PairUnresolved { bit } => {
                write!(f, "could not resolve the v input pair for keystream bit {bit}")
            }
            AttackError::Recover(e) => write!(f, "key recovery failed: {e}"),
            AttackError::Config(e) => write!(f, "invalid scan configuration: {e}"),
            AttackError::Resilience(e) => write!(f, "oracle resilience failure: {e}"),
            AttackError::Journal(e) => write!(f, "attack journal failure: {e}"),
            AttackError::Exhausted { checkpoint, source } => {
                write!(f, "{source}; partial result: {checkpoint}")
            }
        }
    }
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Oracle(e) => Some(e),
            AttackError::Recover(e) => Some(e),
            AttackError::Config(e) => Some(e),
            AttackError::Resilience(e) => Some(e),
            AttackError::Journal(e) => Some(e),
            AttackError::Exhausted { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ResilienceError> for AttackError {
    fn from(e: ResilienceError) -> Self {
        match e {
            // A fatal (non-transient, non-budget) rejection is the
            // device speaking, not the resilience layer: keep the
            // pre-resilience `Oracle` contract for it.
            ResilienceError::Fatal(e) => AttackError::Oracle(e),
            other => AttackError::Resilience(other),
        }
    }
}

impl From<OracleError> for AttackError {
    fn from(e: OracleError) -> Self {
        AttackError::Oracle(e)
    }
}

impl From<RecoverKeyError> for AttackError {
    fn from(e: RecoverKeyError) -> Self {
        AttackError::Recover(e)
    }
}

impl From<ScanConfigError> for AttackError {
    fn from(e: ScanConfigError) -> Self {
        AttackError::Config(e)
    }
}

impl From<crate::journal::JournalError> for AttackError {
    fn from(e: crate::journal::JournalError) -> Self {
        AttackError::Journal(e)
    }
}

/// The attack driver.
pub struct Attack<'a> {
    oracle: ResilientOracle<'a>,
    golden: Bitstream,
    golden_crc: u32,
    payload: Vec<u8>,
    d: usize,
    words: usize,
    /// Maximum queries issued per oracle call.
    batch: usize,
    forge: GoldenForge,
    catalogue: Catalogue,
    golden_keystream: Vec<u32>,
    checkpoint: AttackCheckpoint,
    journal: Option<crate::journal::AttackJournal>,
    telemetry: Telemetry,
    /// Side-channel traces the encrypted path spent recovering `K_E`
    /// (0 on plaintext runs); journalled so a resumed encrypted
    /// session reports identical SCA accounting.
    sca_traces: u32,
}

impl fmt::Debug for Attack<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Attack(payload: {} bytes, d: {}, w: {}, loads so far: {})",
            self.payload.len(),
            self.d,
            self.words,
            self.oracle.stats().attempts
        )
    }
}

impl<'a> Attack<'a> {
    /// Prepares the attack against a device and its extracted
    /// bitstream. `d` defaults to one frame (the device family
    /// parameter of Section V-A).
    ///
    /// # Errors
    ///
    /// Fails if the bitstream has no FDRI payload or the device
    /// rejects the golden bitstream.
    pub fn new(oracle: &'a dyn KeystreamOracle, golden: Bitstream) -> Result<Self, AttackError> {
        Self::instrumented(oracle, golden, FRAME_BYTES, ResilienceConfig::off(), Telemetry::off())
    }

    /// The full constructor: the sub-vector stride `d` of the device
    /// family (the paper's tool used `d = 101` bytes), a resilience
    /// layer between the attack and the oracle for unreliable boards
    /// (retry transient load failures, majority-vote keystream reads,
    /// meter the total number of device configurations), and a
    /// telemetry recorder installed *before* the initial golden query,
    /// so the trace meters every oracle interaction the attack
    /// performs. Telemetry is inert: the query trace is bit-identical
    /// with recording on or off. Sessions normally come through
    /// [`SessionSpec::run_against`](crate::fleet::SessionSpec::run_against),
    /// which derives all three from one validated spec.
    ///
    /// # Errors
    ///
    /// Same as [`Attack::new`], plus [`AttackError::Resilience`] /
    /// [`AttackError::Exhausted`] if even the initial golden read
    /// does not survive the configured policy.
    pub fn instrumented(
        oracle: &'a dyn KeystreamOracle,
        golden: Bitstream,
        d: usize,
        config: ResilienceConfig,
        telemetry: Telemetry,
    ) -> Result<Self, AttackError> {
        let range = golden.fdri_data_range().ok_or(AttackError::NoFdriPayload)?;
        let payload = golden.as_bytes()[range].to_vec();
        let golden_crc = bitstream::crc::ByteCrc::of(golden.as_bytes());
        let forge = GoldenForge::new(&golden, d);
        let mut resilient = ResilientOracle::new(oracle, config);
        resilient.set_telemetry(telemetry.clone());
        let mut attack = Self {
            oracle: resilient,
            golden,
            golden_crc,
            payload,
            d,
            words: 16,
            batch: 1,
            forge,
            catalogue: Catalogue::full(),
            golden_keystream: Vec::new(),
            checkpoint: AttackCheckpoint::new(),
            journal: None,
            telemetry,
            sca_traces: 0,
        };
        attack.golden_keystream = attack.run_oracle(&attack.golden.clone())?;
        attack.checkpoint.golden_keystream = attack.golden_keystream.clone();
        Ok(attack)
    }

    /// Sets the oracle batch width: every querying phase except the
    /// feedback-subset search and key extraction issues up to `batch`
    /// queries per oracle call (the load-mux scan only when the oracle
    /// is order-free, else one), exploiting a batched substrate such
    /// as the 64-lane gang simulator. There is one code path for every
    /// width: `batch ≤ 1` runs the same phases with one query per
    /// call, which the resilience layer serves as a plain
    /// [`ResilientOracle::query`]. All widths recover the same key
    /// from identical per-query keystreams with identical load
    /// accounting (pinned by the batch-equivalence tests); the width
    /// changes throughput and journal write cadence only (one write
    /// per oracle call instead of one per item).
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Installs a telemetry recorder on an already-built attack (the
    /// resume path: [`Attack::resume`] cannot take it up front).
    /// Recording starts from this call; queries already performed are
    /// not retrofitted.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.oracle.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Attaches a crash-safe journal: from here on, every completed
    /// work item persists the checkpoint (plus the RNG/clock states
    /// of the resilience layer and the board) atomically to disk, and
    /// a killed process can continue with [`Attack::resume`].
    ///
    /// # Errors
    ///
    /// [`AttackError::Journal`] if the initial journal write fails.
    pub fn with_journal(
        mut self,
        journal: crate::journal::AttackJournal,
    ) -> Result<Self, AttackError> {
        self.journal = Some(journal);
        self.save_journal()?;
        Ok(self)
    }

    /// Rebuilds an in-flight attack from a journal written by a
    /// previous (killed) run, continuing with the configuration the
    /// journal recorded. The resumed run replays the identical query
    /// trace the uninterrupted run would have produced: the verified
    /// findings, loop cursors, jitter RNG, virtual clock and (for
    /// simulated boards) the device fault state are all restored.
    ///
    /// # Errors
    ///
    /// [`AttackError::Journal`] if the journal is unreadable,
    /// corrupt, or was recorded against a different golden bitstream;
    /// [`AttackError::Oracle`] if the oracle rejects the journalled
    /// device state.
    pub fn resume(
        oracle: &'a dyn KeystreamOracle,
        golden: Bitstream,
        journal: crate::journal::AttackJournal,
    ) -> Result<Self, AttackError> {
        let config = journal.load()?.config;
        Self::resume_with(oracle, golden, journal, config)
    }

    /// Like [`Attack::resume`] but with an overridden resilience
    /// configuration — for raising the budget or deadline of the
    /// resumed run. The override must drive the same noisy trace as
    /// the journalled run ([`ResilienceConfig::same_trace`]).
    ///
    /// # Errors
    ///
    /// Same as [`Attack::resume`], plus
    /// [`crate::journal::JournalError::ConfigMismatch`] (wrapped in
    /// [`AttackError::Journal`]) when `config` changes a
    /// trace-determining parameter.
    pub fn resume_with(
        oracle: &'a dyn KeystreamOracle,
        golden: Bitstream,
        journal: crate::journal::AttackJournal,
        config: ResilienceConfig,
    ) -> Result<Self, AttackError> {
        use crate::journal::JournalError;
        let doc = journal.load()?;
        if !config.same_trace(&doc.config) {
            return Err(JournalError::ConfigMismatch {
                journalled: Box::new(doc.config),
                requested: Box::new(config),
            }
            .into());
        }
        let golden_crc = bitstream::crc::ByteCrc::of(golden.as_bytes());
        if golden_crc != doc.golden_crc || golden.as_bytes().len() as u64 != doc.golden_len {
            return Err(JournalError::GoldenMismatch {
                journalled: doc.golden_crc,
                found: golden_crc,
            }
            .into());
        }
        if let Some(state) = &doc.oracle_state {
            oracle.restore_state(state).map_err(AttackError::Oracle)?;
        }
        let range = golden.fdri_data_range().ok_or(AttackError::NoFdriPayload)?;
        let payload = golden.as_bytes()[range].to_vec();
        let forge = GoldenForge::new(&golden, doc.d);
        Ok(Self {
            oracle: ResilientOracle::from_snapshot(oracle, config, &doc.resilient),
            golden,
            golden_crc,
            payload,
            d: doc.d,
            words: doc.words,
            batch: 1,
            forge,
            catalogue: Catalogue::full(),
            golden_keystream: doc.checkpoint.golden_keystream.clone(),
            checkpoint: doc.checkpoint,
            journal: Some(journal),
            telemetry: Telemetry::off(),
            sca_traces: doc.sca_traces,
        })
    }

    /// Records the side-channel effort of an encrypted run: `traces`
    /// is the number of power traces spent recovering `K_E` before
    /// the attack started. Persisted in the journal (format v3) and
    /// reported in telemetry, so a killed-and-resumed encrypted
    /// session replays identical SCA accounting.
    #[must_use]
    pub fn with_sca_traces(mut self, traces: u32) -> Self {
        self.sca_traces = traces;
        self.telemetry.incr(crate::telemetry::names::SCA_TRACES, u64::from(traces));
        self
    }

    /// Persists the current checkpoint (no-op without a journal).
    fn save_journal(&mut self) -> Result<(), AttackError> {
        let Some(journal) = &self.journal else { return Ok(()) };
        self.checkpoint.oracle_attempts = self.oracle.stats().attempts;
        let doc = crate::journal::JournalDoc {
            config: *self.oracle.config(),
            d: self.d,
            words: self.words,
            golden_len: self.golden.as_bytes().len() as u64,
            golden_crc: self.golden_crc,
            resilient: self.oracle.snapshot(),
            oracle_state: self.oracle.inner().state_snapshot(),
            sca_traces: self.sca_traces,
            checkpoint: self.checkpoint.clone(),
        };
        let bytes = journal.save(&doc)?;
        self.telemetry.record_journal_write(bytes as u64);
        Ok(())
    }

    /// Moves the checkpoint to a new phase (pass 0, cursor 0) and
    /// persists it.
    fn advance_phase(&mut self, phase: AttackPhase) -> Result<(), AttackError> {
        self.checkpoint.phase = phase;
        self.checkpoint.pass = 0;
        self.checkpoint.cursor = 0;
        self.save_journal()
    }

    /// Moves the checkpoint to the next pass of the current phase and
    /// persists it.
    fn advance_pass(&mut self) -> Result<(), AttackError> {
        self.checkpoint.pass += 1;
        self.checkpoint.cursor = 0;
        self.save_journal()
    }

    /// Number of keystream words used per observation (the paper's
    /// `w`; default 16).
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The golden bitstream under attack.
    #[must_use]
    pub fn golden(&self) -> &Bitstream {
        &self.golden
    }

    /// The resilience configuration in force.
    #[must_use]
    pub fn resilience_config(&self) -> &ResilienceConfig {
        self.oracle.config()
    }

    /// One query through the resilience layer, for the steps whose
    /// next query depends on this answer (the golden read, the
    /// feedback-subset search, key extraction); the other phases call
    /// `query_batch` directly. Budget and deadline exhaustion are
    /// converted into a checkpointed partial result on the spot, so
    /// they carry whatever was verified up to the failing query.
    fn run_oracle(&mut self, bs: &Bitstream) -> Result<Vec<u32>, AttackError> {
        self.oracle.query(bs, self.words).map_err(|e| self.attack_error(e))
    }

    /// Converts a resilience-layer failure into an attack error,
    /// snapshotting the checkpoint for budget/deadline exhaustion.
    /// The caller must have `checkpoint.cursor` pointing at the work
    /// item whose query failed (matching where a serial run stops).
    fn attack_error(&self, e: ResilienceError) -> AttackError {
        match e {
            e @ (ResilienceError::BudgetExhausted { .. }
            | ResilienceError::DeadlineExceeded { .. }) => {
                let mut checkpoint = self.checkpoint.clone();
                checkpoint.oracle_attempts = self.oracle.stats().attempts;
                AttackError::Exhausted { checkpoint: Box::new(checkpoint), source: e }
            }
            e => e.into(),
        }
    }

    /// Re-expresses a hit under the sub-vector order the lattice
    /// predicts for its site, re-deriving the matching permutation.
    /// Hits that no longer match the candidate under the corrected
    /// order are returned unchanged.
    fn normalize_hit(
        &self,
        hit: &LutHit,
        shape_truth: TruthTable,
        lattice: &SiteLattice,
    ) -> LutHit {
        let Some(order) = lattice.expected_order(hit.l) else { return hit.clone() };
        if order == hit.order {
            return hit.clone();
        }
        let corrected =
            crate::findlut::rematch_at(&self.payload, hit.l, self.d, order, shape_truth);
        corrected.unwrap_or_else(|| hit.clone())
    }

    /// Runs the complete attack (or, for a resumed instance, the
    /// remainder of it: completed phases and items are skipped, and
    /// the restored RNG/clock states make the continuation replay the
    /// identical query trace an uninterrupted run would have).
    ///
    /// # Errors
    ///
    /// See [`AttackError`].
    pub fn run(mut self) -> Result<AttackReport, AttackError> {
        let _attack_span = self.telemetry.span("attack");
        // Phase 1: candidate search (Table II data) — the whole
        // catalogue in one pass over the payload. Oracle-free and
        // deterministic, so a resumed run recomputes it instead of
        // journalling the hit lists.
        let scan_span = self.telemetry.span("phase:candidate-search");
        let scanner = Scanner::builder().k(6).stride(self.d).catalogue(&self.catalogue).build()?;
        let grouped = scanner.scan_grouped(&self.payload);
        let mut hits_by_shape: HashMap<&'static str, Vec<LutHit>> = HashMap::new();
        let mut candidate_counts = Vec::new();
        for (shape, hits) in self.catalogue.shapes.iter().zip(grouped) {
            candidate_counts.push((shape.name, hits.len()));
            hits_by_shape.insert(shape.name, hits);
        }
        self.checkpoint.candidate_counts = candidate_counts.clone();
        self.telemetry.record_candidates(&candidate_counts);
        drop(scan_span);
        if self.checkpoint.phase == AttackPhase::CandidateSearch {
            self.advance_phase(AttackPhase::ZPathVerification)?;
        }

        let f2_hits = hits_by_shape.remove("f2").unwrap_or_default();
        let f2_truth = self.catalogue.shape("f2").expect("f2").truth;

        // Phase 2: verify the keystream path. A misaligned window
        // over two real LUTs can occasionally verify *instead of* a
        // true site (the true site is then skipped by the overlap
        // rule), so verification runs twice: the first pass's
        // positions reveal the site lattice (Section VII-B: "guess in
        // which frames LUTs are located ... and limit the search"),
        // and the second pass re-verifies with off-lattice candidates
        // removed.
        if self.checkpoint.phase == AttackPhase::ZPathVerification {
            let _span = self.telemetry.span("phase:z-path-verification");
            if self.checkpoint.pass == 0 {
                self.verify_z_path(&f2_hits, true)?;
                let lattice_span = self.telemetry.span("lattice-inference");
                let samples: Vec<(usize, bitstream::SubVectorOrder)> =
                    self.checkpoint.z_luts.iter().map(|z| (z.hit.l, z.hit.order)).collect();
                let lattice = SiteLattice::infer(&samples, self.d);
                drop(lattice_span);
                self.checkpoint.z_pass1 = std::mem::take(&mut self.checkpoint.z_luts);
                self.checkpoint.lattice = Some(lattice);
                self.advance_pass()?;
            }
            let lattice = self.checkpoint.lattice.clone().expect("lattice set at pass 0 → 1");
            let on_lattice: Vec<LutHit> =
                f2_hits.iter().filter(|h| lattice.accepts(h.l)).cloned().collect();
            self.verify_z_path(&on_lattice, false)?;
            let bits_found =
                self.checkpoint.z_luts.iter().map(|z| 1u32 << z.bit).fold(0u32, |a, b| a | b);
            if bits_found != u32::MAX {
                return Err(AttackError::ZPathIncomplete { bits_found: bits_found.count_ones() });
            }
            // Normalize verified hits to the lattice-predicted orders
            // so that subsequent permuted writes land on the right
            // bytes.
            let z_luts: Vec<ZPathLut> = std::mem::take(&mut self.checkpoint.z_luts)
                .into_iter()
                .map(|z| ZPathLut { hit: self.normalize_hit(&z.hit, f2_truth, &lattice), ..z })
                .collect();
            self.checkpoint.z_luts = z_luts;
            self.advance_phase(AttackPhase::FeedbackHypothesis)?;
        }

        let lattice =
            self.checkpoint.lattice.clone().expect("past phase 2, the lattice is inferred");

        // Phase 3: feedback-path hypothesis.
        if self.checkpoint.phase == AttackPhase::FeedbackHypothesis {
            let _span = self.telemetry.span("phase:feedback-hypothesis");
            self.feedback_hypothesis(&hits_by_shape, &lattice)?;
            self.advance_phase(AttackPhase::KeyIndependent)?;
        }

        // Phase 4: key-independent configuration (selects the true
        // 32-LUT feedback subset if there are surplus candidates).
        let m1b_hits: Vec<LutHit> = hits_by_shape
            .get("m1b")
            .cloned()
            .unwrap_or_default()
            .into_iter()
            .filter(|h| lattice.accepts_hit(h))
            .collect();
        let mut keyindep_bs = None;
        if self.checkpoint.phase == AttackPhase::KeyIndependent {
            let _span = self.telemetry.span("phase:key-independent");
            if self.checkpoint.pass == 0 {
                self.find_load_mux_halves(&lattice)?;
                self.advance_pass()?;
            }
            let (feedback, bs) = self.select_feedback_subset(&m1b_hits)?;
            self.checkpoint.feedback_luts = feedback;
            keyindep_bs = Some(bs);
            self.advance_phase(AttackPhase::PairDisambiguation)?;
        }
        // The key-independent keystream equals the attacker's public
        // software model by construction (phase 4 accepts nothing
        // else), and the β + α₁ bitstream rebuilds deterministically
        // from the journalled findings — neither needs journalling.
        let keyindep_z = FaultySnow3g::new(Key([0; 4]), Iv([0; 4]), FaultSpec::key_independent())
            .keystream(self.words);
        let keyindep_bs = keyindep_bs.unwrap_or_else(|| {
            self.build_keyindep(&self.checkpoint.feedback_luts.clone(), &m1b_hits)
        });

        // Phase 5: pair disambiguation (two keystream computations).
        if self.checkpoint.phase == AttackPhase::PairDisambiguation {
            let _span = self.telemetry.span("phase:pair-disambiguation");
            self.disambiguate_pairs(&keyindep_bs)?;
            self.advance_phase(AttackPhase::KeyExtraction)?;
        }

        // Phase 6: inject α into a fresh copy and extract the key.
        let extract_span = self.telemetry.span("phase:key-extraction");
        let (alpha_bitstream, alpha_keystream) = self.extract()?;
        let recovered = recover_key(&alpha_keystream)?;
        drop(extract_span);

        // The attack is complete; the journal has served its purpose.
        // Removal is best-effort — a lingering file only costs a
        // redundant (successful) phase-6 replay if resumed again.
        if let Some(journal) = &self.journal {
            let _ = journal.remove();
        }

        Ok(AttackReport {
            candidate_counts,
            z_luts: self.checkpoint.z_luts.clone(),
            feedback_luts: self.checkpoint.feedback_luts.clone(),
            beta_edits: self.checkpoint.mux_halves.len(),
            dead_candidates: self.checkpoint.dead_candidates as usize,
            key_independent_keystream: keyindep_z,
            alpha_keystream,
            alpha_bitstream,
            recovered,
            oracle_loads: self.oracle.stats().attempts as usize,
            resilience: self.oracle.stats(),
        })
    }

    /// Phase 2: Section VI-C.1 — verify `f2` candidates by the
    /// stuck-bit signature. Iterates `candidates` from the checkpoint
    /// cursor, accumulating into `checkpoint.z_luts`; `count_dead`
    /// is set on the first pass only (the second pass revisits the
    /// same dead bytes). Two valid LUTs cannot overlap in a bitstream
    /// (Section VI-C), so candidates clashing with verified ones are
    /// skipped without a query.
    fn verify_z_path(
        &mut self,
        candidates: &[LutHit],
        count_dead: bool,
    ) -> Result<(), AttackError> {
        let hits: Vec<&LutHit> = candidates.iter().collect();
        self.zero_scan(
            &hits,
            |this, hit| this.claimed(hit),
            |this, j, z| match stuck_bit(&z, &this.golden_keystream) {
                Some(bit) => {
                    this.checkpoint.z_luts.push(ZPathLut {
                        hit: candidates[j].clone(),
                        bit,
                        pair: None,
                    });
                }
                None => {
                    if count_dead && z == this.golden_keystream {
                        this.checkpoint.dead_candidates += 1;
                    }
                }
            },
        )
    }

    /// Whether a hit's bytes overlap a LUT already verified on the
    /// keystream path or kept on the feedback path.
    fn claimed(&self, hit: &LutHit) -> bool {
        let loc = hit.location(self.d);
        self.checkpoint.z_luts.iter().any(|z| loc.overlaps(&z.hit.location(self.d)))
            || self.checkpoint.feedback_luts.iter().any(|f| loc.overlaps(&f.hit.location(self.d)))
    }

    /// Walks `hits` from the checkpoint cursor, querying each hit
    /// rewritten to constant 0 and handing the keystream to `verdict`
    /// — the shared loop of phases 2 and 3. Hits for which `skip`
    /// holds are consumed without a query. Queries go out up to
    /// `self.batch` per oracle call, with one journal write per call.
    ///
    /// A batch closes early at the first hit whose bytes overlap a
    /// pending member. Then no verdict can change whether another
    /// member of the same batch is skipped: `skip` reads only state
    /// that grows by the members' own locations, so the skip
    /// decisions taken up front equal those of an item-by-item walk.
    /// On an oracle failure the cursor points at the failing hit.
    fn zero_scan(
        &mut self,
        hits: &[&LutHit],
        skip: impl Fn(&Self, &LutHit) -> bool,
        mut verdict: impl FnMut(&mut Self, usize, Vec<u32>),
    ) -> Result<(), AttackError> {
        while self.checkpoint.cursor < hits.len() {
            let mut queries: Vec<usize> = Vec::new();
            let mut pending: Vec<bitstream::LutLocation> = Vec::new();
            let mut end = self.checkpoint.cursor;
            while end < hits.len() && queries.len() < self.batch {
                if !skip(self, hits[end]) {
                    let loc = hits[end].location(self.d);
                    if pending.iter().any(|p| loc.overlaps(p)) {
                        break;
                    }
                    queries.push(end);
                    pending.push(loc);
                }
                end += 1;
            }
            let bss: Vec<Bitstream> = queries
                .iter()
                .map(|&j| {
                    let mut session = self.forge.session();
                    session.write_function(hits[j], TruthTable::zero(6));
                    session.finish(CrcStrategy::Recompute)
                })
                .collect();
            let results = self.oracle.query_batch(&bss, self.words);
            for (&j, result) in queries.iter().zip(results) {
                self.checkpoint.cursor = j;
                let z = result.map_err(|e| self.attack_error(e))?;
                verdict(self, j, z);
            }
            self.checkpoint.cursor = end;
            if !queries.is_empty() {
                self.save_journal()?;
            }
        }
        Ok(())
    }

    /// Phase 3: collect feedback-shape hits, pruning off-lattice
    /// hits, overlaps and dead bytes (a modification that does not
    /// change the keystream hit filler bits). Accumulates into
    /// `checkpoint.feedback_luts` from the checkpoint cursor over a
    /// deterministic flattened (shape, hit) list.
    fn feedback_hypothesis(
        &mut self,
        hits_by_shape: &HashMap<&'static str, Vec<LutHit>>,
        lattice: &SiteLattice,
    ) -> Result<(), AttackError> {
        let mut items: Vec<(&'static str, &LutHit)> = Vec::new();
        for shape in self.catalogue.shapes.iter().filter(|s| s.role == Role::Feedback) {
            for hit in hits_by_shape.get(shape.name).into_iter().flatten() {
                items.push((shape.name, hit));
            }
        }
        let hits: Vec<&LutHit> = items.iter().map(|&(_, hit)| hit).collect();
        self.zero_scan(
            &hits,
            |this, hit| !lattice.accepts_hit(hit) || this.claimed(hit),
            |this, j, z| {
                if z == this.golden_keystream {
                    this.checkpoint.dead_candidates += 1;
                } else {
                    let (shape, hit) = items[j];
                    this.checkpoint.feedback_luts.push(FeedbackLut { shape, hit: hit.clone() });
                }
            },
        )
    }

    /// Builds the β + α₁ bitstream for a feedback-LUT subset, using
    /// the journalled load-mux halves (Section VI-D).
    fn build_keyindep(&self, feedback: &[FeedbackLut], m1b_hits: &[LutHit]) -> Bitstream {
        let mut session = self.forge.session();
        for f in feedback {
            let shape = self.catalogue.shape(f.shape).expect("catalogue shape");
            if let Some(ki) = shape.keyindep {
                session.write_function(&f.hit, ki);
            }
        }
        // s15 outer-byte γ=1 load-mux covers.
        let m1b = self.catalogue.shape("m1b").expect("m1b shape");
        for hit in m1b_hits {
            session.write_function(hit, m1b.keyindep.expect("m1b has keyindep"));
        }
        // Stage 0..14 γ=1 halves: (x ∨ y) → (x ∧ y), the role-free
        // load-0 form (see [`LoadMuxHalf`]).
        for h in &self.checkpoint.mux_halves {
            let (x, y) = h.pins;
            let edit = TruthTable::var(5, x).and(TruthTable::var(5, y));
            session.write_half(&h.hit, h.half, edit);
        }
        session.finish(CrcStrategy::Recompute)
    }

    /// Phase 4 pass 0: finds the γ=1 load-mux halves of stages
    /// `s0..s14`, accumulating into `checkpoint.mux_halves` from the
    /// checkpoint cursor.
    ///
    /// Each accepted hit runs a short decision chain per OR half: an
    /// XOR null test, then a zero liveness test. The chains run as a
    /// rolling wavefront: every round batches each in-flight hit's
    /// *next* query into one oracle call, and a finished hit frees its
    /// lane for the next pending hit at once. With more than one lane
    /// this reorders queries (hit A's second query rides alongside hit
    /// B's first), so the lane count is `self.batch` only when the
    /// oracle is order-free (`ResilientOracle::reorder_transparent`)
    /// and 1 otherwise. One lane runs the hits strictly in order. The
    /// query *set* and every verdict are width-independent, because
    ///
    /// - the accept filter reads only state this phase never writes
    ///   (the lattice, `z_luts`, `feedback_luts`), so it is static and
    ///   precomputable, and
    /// - the only cross-hit dependency, the duplicate-claim skip, which
    ///   compares byte offsets `l`, is confined to same-`l` hits, and a
    ///   hit is admitted only once every earlier same-`l` hit has
    ///   finished (later different-`l` hits may overtake it).
    ///
    /// Verdicts commit to the checkpoint strictly in hit order, with a
    /// journal write after each commit that includes a hit which
    /// queried. A mid-flight oracle error rewinds the cursor to the
    /// first uncommitted hit, so a resumed run redoes everything past
    /// the committed prefix.
    fn find_load_mux_halves(&mut self, lattice: &SiteLattice) -> Result<(), AttackError> {
        // Scan for LUTs with an OR-of-two-pins half, on the site
        // lattice learned from the verified LUTs. The lattice is a
        // pure position test, so applying it as a scan prefilter
        // skips the expensive sub-vector decode at off-lattice
        // positions; the accept filter below still rejects hits whose
        // *order* contradicts the lattice.
        let scanner = Scanner::builder().stride(self.d).build()?;
        let raw = scanner.scan_halves_where(
            &self.payload,
            0..self.payload.len(),
            |l| lattice.accepts(l),
            |o5, o6| or_pair(o5).is_some() || or_pair(o6).is_some(),
        );
        let lanes = if self.oracle.reorder_transparent() { self.batch } else { 1 };
        let accepted: Vec<usize> = (self.checkpoint.cursor..raw.len())
            .filter(|&j| lattice.accepts_hit(&raw[j]) && !self.claimed(&raw[j]))
            .collect();

        // Per-hit state machine. `half` and `stage` name the next
        // query to issue; `pos` indexes `accepted`.
        enum Stage {
            Xor,
            Zero,
        }
        struct HitState {
            pos: usize,
            half: u8,
            pins: (u8, u8),
            stage: Stage,
            found: Vec<LoadMuxHalf>,
            dead: bool,
            queried: bool,
            done: bool,
        }
        // (half, l) pairs already claimed, extended as hits finish.
        // Skipping them drops duplicate views of the same physical
        // half: it can match under both sub-vector orders when the
        // lattice could not learn the slice alternation, and one edit
        // suffices (both views write the same reachable-row
        // semantics). A same-`l` successor is admitted only after its
        // predecessors finished, so its claim check reads exactly the
        // in-order state.
        let mut claimed: Vec<(u8, usize)> =
            self.checkpoint.mux_halves.iter().map(|h| (h.half, h.hit.l)).collect();
        let advance = |claimed: &[(u8, usize)], state: &mut HitState, from: u8| {
            let hit = &raw[accepted[state.pos]];
            let halves = [hit.init.o5(), hit.init.o6_fractured()];
            for half in from..2u8 {
                let Some((p, q)) = or_pair(halves[half as usize]) else { continue };
                if claimed.contains(&(half, hit.l)) {
                    continue;
                }
                state.half = half;
                state.pins = (p, q);
                state.stage = Stage::Xor;
                return;
            }
            state.done = true;
        };
        // Commits the finished prefix in hit order; the whole hit is
        // one journal item, so its half edits and dead verdict land
        // together with the cursor advance.
        let commit = |this: &mut Self,
                      completed: &mut [Option<HitState>],
                      frontier: &mut usize|
         -> Result<(), AttackError> {
            let mut queried = false;
            while let Some(state) = completed.get_mut(*frontier).and_then(Option::take) {
                if state.dead {
                    this.checkpoint.dead_candidates += 1;
                }
                this.checkpoint.mux_halves.extend(state.found);
                this.checkpoint.cursor = accepted[*frontier] + 1;
                queried |= state.queried;
                *frontier += 1;
            }
            if queried {
                this.save_journal()?;
            }
            Ok(())
        };

        let mut pending: Vec<usize> = (0..accepted.len()).collect();
        let mut inflight: Vec<HitState> = Vec::new();
        let mut completed: Vec<Option<HitState>> = (0..accepted.len()).map(|_| None).collect();
        let mut frontier = 0usize;
        while frontier < accepted.len() {
            // Admit pending hits into free lanes, in order; a hit
            // sharing `l` with an unfinished predecessor holds that
            // `l` — and every later same-`l` hit — back while
            // different-`l` hits may overtake it.
            let mut busy: Vec<usize> = inflight.iter().map(|s| raw[accepted[s.pos]].l).collect();
            let mut rest: Vec<usize> = Vec::new();
            for &pos in &pending {
                let l = raw[accepted[pos]].l;
                if inflight.len() >= lanes || busy.contains(&l) {
                    busy.push(l);
                    rest.push(pos);
                    continue;
                }
                busy.push(l);
                let mut state = HitState {
                    pos,
                    half: 0,
                    pins: (0, 0),
                    stage: Stage::Xor,
                    found: Vec::new(),
                    dead: false,
                    queried: false,
                    done: false,
                };
                advance(&claimed, &mut state, 0);
                if state.done {
                    // No queryable half: finished without a lane.
                    completed[pos] = Some(state);
                } else {
                    state.queried = true;
                    inflight.push(state);
                }
            }
            pending = rest;
            commit(self, &mut completed, &mut frontier)?;
            if inflight.is_empty() {
                continue;
            }

            // One oracle call carrying every in-flight hit's next
            // query.
            let bss: Vec<Bitstream> = inflight
                .iter()
                .map(|state| {
                    let (p, q) = state.pins;
                    let table = match state.stage {
                        // Null test: a genuine load mux is insensitive
                        // to replacing (x ∨ y) by (x ⊕ y), because the
                        // control and the shift-in are never 1
                        // together on a real device (c_load is high
                        // only in the first cycle, when every
                        // shift-in is still at its power-up value 0).
                        Stage::Xor => TruthTable::var(5, p).xor(TruthTable::var(5, q)),
                        // Liveness: forcing the half to 0 must disturb
                        // the keystream, otherwise these are dead
                        // filler bytes.
                        Stage::Zero => TruthTable::zero(5),
                    };
                    let mut session = self.forge.session();
                    session.write_half(&raw[accepted[state.pos]], state.half, table);
                    session.finish(CrcStrategy::Recompute)
                })
                .collect();
            let results = self.oracle.query_batch(&bss, self.words);
            for (state, result) in inflight.iter_mut().zip(results) {
                let z = result.map_err(|e| {
                    self.checkpoint.cursor = accepted[frontier];
                    self.attack_error(e)
                })?;
                let half = state.half;
                match state.stage {
                    // A real OR gate elsewhere in the design: try the
                    // other half.
                    Stage::Xor if z != self.golden_keystream => {
                        advance(&claimed, state, half + 1);
                    }
                    Stage::Xor => state.stage = Stage::Zero,
                    // Dead filler: skip the hit's remaining half.
                    Stage::Zero if z == self.golden_keystream => {
                        state.dead = true;
                        state.done = true;
                    }
                    Stage::Zero => {
                        let hit = raw[accepted[state.pos]].clone();
                        state.found.push(LoadMuxHalf { hit, half, pins: state.pins });
                        advance(&claimed, state, half + 1);
                    }
                }
            }
            // Retire finished hits: their claims become visible to
            // same-`l` successors before any can be admitted.
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].done {
                    let state = inflight.swap_remove(i);
                    claimed.extend(state.found.iter().map(|h| (h.half, h.hit.l)));
                    let pos = state.pos;
                    completed[pos] = Some(state);
                } else {
                    i += 1;
                }
            }
            commit(self, &mut completed, &mut frontier)?;
        }
        self.checkpoint.cursor = raw.len();
        Ok(())
    }

    /// Phase 4 pass 1: Section VI-D — β + α₁, validated against the
    /// key-independent keystream computed with the public software
    /// model. When more feedback candidates than the 32 required by
    /// SNOW 3G's word width survive pruning, the true subset is
    /// selected by hypothesis testing — the paper's Section VI-C.2
    /// move ("the sum of matches ... is 32 ... we make a
    /// hypothesis"). The checkpoint cursor walks the deterministic
    /// drop-set enumeration.
    fn select_feedback_subset(
        &mut self,
        m1b_hits: &[LutHit],
    ) -> Result<(Vec<FeedbackLut>, Bitstream), AttackError> {
        // Expected keystream: the attacker simulates the public
        // algorithm with an all-0 LFSR and the FSM disconnected
        // during initialization (Section VI-D, Table III).
        let expected = FaultySnow3g::new(Key([0; 4]), Iv([0; 4]), FaultSpec::key_independent())
            .keystream(self.words);
        let fb_candidates = self.checkpoint.feedback_luts.clone();
        let n = fb_candidates.len();
        if n < 32 {
            return Err(AttackError::KeyIndependentMismatch);
        }
        let drop_count = n - 32;
        let mut drop_sets = subsets(n, drop_count);
        if drop_sets.len() > 20_000 {
            drop_sets.truncate(20_000);
        }
        while self.checkpoint.cursor < drop_sets.len() {
            let drops = &drop_sets[self.checkpoint.cursor];
            let feedback: Vec<FeedbackLut> = fb_candidates
                .iter()
                .enumerate()
                .filter(|(i, _)| !drops.contains(i))
                .map(|(_, f)| f.clone())
                .collect();
            let bs = self.build_keyindep(&feedback, m1b_hits);
            let z = self.run_oracle(&bs)?;
            if z == expected {
                // The cursor still points at the matching drop set;
                // the caller's phase advance persists the selection.
                // (Journalling `cursor + 1` here instead would make a
                // crash-resumed run skip past the match and never
                // converge.)
                return Ok((feedback, bs));
            }
            self.checkpoint.cursor += 1;
            self.save_journal()?;
        }
        Err(AttackError::KeyIndependentMismatch)
    }

    /// Phase 5: Section VI-D.1 — two keystream computations resolve
    /// every keystream-path LUT's `v` input pair. The checkpoint
    /// cursor walks the f2 fault variants; the observed stuck-bit
    /// masks are journalled so a resumed run re-queries only the
    /// variants it has not yet seen.
    fn disambiguate_pairs(&mut self, keyindep: &Bitstream) -> Result<(), AttackError> {
        let f2 = self.catalogue.shape("f2").expect("f2 shape").clone();
        let forge = GoldenForge::new(keyindep, self.d);
        let variant_bs = |this: &Self, variant: &crate::candidates::PairVariant| {
            let mut session = forge.session();
            for z in &this.checkpoint.z_luts {
                session.write_function(&z.hit, variant.faulted);
            }
            session.finish(CrcStrategy::Recompute)
        };
        // Both variant bitstreams derive from the same static inputs
        // (the key-independent image and the verified LUT list), so
        // they batch: up to `self.batch` variants per oracle call,
        // one journal write per call.
        while self.checkpoint.cursor < 2 {
            let chunk = self.checkpoint.cursor..(self.checkpoint.cursor + self.batch).min(2);
            let bss: Vec<Bitstream> =
                f2.variants[chunk.clone()].iter().map(|v| variant_bs(self, v)).collect();
            let results = self.oracle.query_batch(&bss, self.words);
            for (j, result) in chunk.zip(results) {
                self.checkpoint.cursor = j;
                let zs = result.map_err(|e| self.attack_error(e))?;
                let mut mask = u32::MAX;
                for w in &zs {
                    mask &= !w;
                }
                self.checkpoint.stuck_masks.push(mask); // bit set ⇒ all-0
                self.checkpoint.cursor = j + 1;
            }
            self.save_journal()?;
        }
        // Pure computation over the journalled masks — idempotent, so
        // replaying it on resume is harmless.
        let stuck = self.checkpoint.stuck_masks.clone();
        for z in &mut self.checkpoint.z_luts {
            let bit = z.bit;
            let pair = if (stuck[0] >> bit) & 1 == 1 {
                f2.variants[0].pair
            } else if (stuck[1] >> bit) & 1 == 1 {
                f2.variants[1].pair
            } else {
                f2.variants[2].pair
            };
            z.pair = Some(pair);
        }
        Ok(())
    }

    /// Phase 6: inject the full `α` (keystream-path `α₂` with the
    /// resolved pairs + feedback-path `α₁`) into a fresh copy of the
    /// golden bitstream, and read the faulty keystream.
    fn extract(&mut self) -> Result<(Bitstream, Vec<u32>), AttackError> {
        let f2 = self.catalogue.shape("f2").expect("f2 shape").clone();
        let bs = {
            let mut session = self.forge.session();
            for z in &self.checkpoint.z_luts {
                let pair = z.pair.ok_or(AttackError::PairUnresolved { bit: z.bit })?;
                let variant = f2
                    .variants
                    .iter()
                    .find(|v| v.pair == pair)
                    .ok_or(AttackError::PairUnresolved { bit: z.bit })?;
                session.write_function(&z.hit, variant.faulted);
            }
            for f in &self.checkpoint.feedback_luts {
                let shape = self.catalogue.shape(f.shape).expect("catalogue shape");
                if let Some(alpha) = shape.alpha {
                    session.write_function(&f.hit, alpha);
                }
            }
            session.finish(CrcStrategy::Recompute)
        };
        let z = self.run_oracle(&bs)?;
        Ok((bs, z))
    }
}

/// Enumerates all `k`-element subsets of `0..n` (ascending index
/// sets), smallest-lexicographic first.
fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..k).collect();
    if k == 0 {
        return vec![Vec::new()];
    }
    if k > n {
        return out;
    }
    loop {
        out.push(cur.clone());
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if cur[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        cur[i] += 1;
        for j in i + 1..k {
            cur[j] = cur[j - 1] + 1;
        }
    }
}

/// Checks the Section VI-C.1 signature: exactly one keystream bit is
/// stuck at 0 while every other bit matches the golden keystream.
/// Returns the stuck bit.
#[must_use]
pub fn stuck_bit(z: &[u32], golden: &[u32]) -> Option<u8> {
    if z.len() != golden.len() || z.is_empty() {
        return None;
    }
    let mut all_zero = u32::MAX;
    let mut differs = 0u32;
    for (a, b) in z.iter().zip(golden) {
        all_zero &= !a;
        differs |= a ^ b;
    }
    // The stuck bit must be all-zero now, must have been live in the
    // golden keystream, and must be the only differing bit.
    let golden_live = {
        let mut live = 0u32;
        for w in golden {
            live |= w;
        }
        live
    };
    let candidates = all_zero & golden_live & differs;
    if candidates.count_ones() == 1 && differs == candidates {
        Some(candidates.trailing_zeros() as u8)
    } else {
        None
    }
}

/// Recognises a 5-variable half that is exactly `x ∨ y` for a pin
/// pair `(x, y)`; returns the (1-based) pair.
fn or_pair(t: TruthTable) -> Option<(u8, u8)> {
    let support = t.support();
    if support.count_ones() != 2 {
        return None;
    }
    let x = support.trailing_zeros() as u8 + 1;
    let y = 8 - support.leading_zeros() as u8;
    let want = TruthTable::var(5, x).or(TruthTable::var(5, y));
    (t == want).then_some((x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_bit_detects_single_dead_bit() {
        let golden = vec![0xFFFF_FFFFu32; 4];
        let z: Vec<u32> = golden.iter().map(|w| w & !(1 << 7)).collect();
        assert_eq!(stuck_bit(&z, &golden), Some(7));
    }

    #[test]
    fn stuck_bit_rejects_multiple_changes() {
        let golden = vec![0xFFFF_FFFFu32; 4];
        let z: Vec<u32> = golden.iter().map(|w| w & !(1 << 7) & !(1 << 9)).collect();
        assert_eq!(stuck_bit(&z, &golden), None);
    }

    #[test]
    fn stuck_bit_rejects_unchanged() {
        let golden = vec![0x1234_5678u32; 4];
        assert_eq!(stuck_bit(&golden, &golden), None);
    }

    #[test]
    fn stuck_bit_requires_live_golden_bit() {
        // If the golden keystream never had that bit set, it carries
        // no information.
        let golden = vec![0xFFFF_FFFEu32; 4];
        let z = golden.clone();
        assert_eq!(stuck_bit(&z, &golden), None);
    }

    #[test]
    fn lattice_inference_and_acceptance() {
        use bitstream::SubVectorOrder::{SliceL, SliceM};
        // True sites: frames 0, 12, 24 (modulus 12), even offsets,
        // alternating orders by column parity.
        let d = 404usize;
        let samples: Vec<(usize, bitstream::SubVectorOrder)> = vec![
            (10, SliceL),
            (44, SliceL),
            (12 * d + 8, SliceM),
            (12 * d + 70, SliceM),
            (24 * d + 2, SliceL),
        ];
        let lat = SiteLattice::infer(&samples, d);
        assert!(lat.accepts(12 * d + 100));
        assert!(!lat.accepts(13 * d + 100), "off-lattice frame rejected");
        assert!(!lat.accepts(12 * d + 101), "odd offset rejected");
        assert!(lat.accepts_order(0, SliceL));
        assert!(!lat.accepts_order(0, SliceM));
        assert!(lat.accepts_order(12 * d, SliceM));
    }

    #[test]
    fn lattice_tolerates_outliers() {
        use bitstream::SubVectorOrder::SliceL;
        let d = 404usize;
        // Nine aligned samples and one misaligned (frame 7).
        let mut samples: Vec<(usize, bitstream::SubVectorOrder)> =
            (0..9).map(|i| (i * 12 * d + 2 * i, SliceL)).collect();
        samples.push((7 * d + 6, SliceL));
        let lat = SiteLattice::infer(&samples, d);
        assert!(lat.accepts(36 * d), "true sites still accepted");
        assert!(!lat.accepts(7 * d + 6), "the outlier itself is rejected");
    }

    #[test]
    fn lattice_tolerates_parity_outliers() {
        use bitstream::SubVectorOrder::SliceL;
        let d = 404usize;
        // Nine even-offset samples and one odd-offset coincidence: a
        // single misaligned window that verified by accident must not
        // disable the lattice (it once did, leaving the d=101 family
        // with 39 feedback candidates and an intractable drop search).
        let mut samples: Vec<(usize, bitstream::SubVectorOrder)> =
            (0..9).map(|i| (i * 4 * d + 2 * i, SliceL)).collect();
        samples.push((7 * d + 9, SliceL));
        let lat = SiteLattice::infer(&samples, d);
        assert!(lat.accepts(16 * d + 2), "true sites still accepted");
        assert!(!lat.accepts(16 * d + 3), "odd offsets rejected");
        assert!(!lat.accepts(7 * d + 9), "the parity outlier itself is rejected");
    }

    #[test]
    fn lattice_degrades_gracefully() {
        use bitstream::SubVectorOrder::SliceL;
        // A single sample gives no stride information: permissive.
        let lat = SiteLattice::infer(&[(808, SliceL)], 404);
        assert!(lat.accepts(808));
        assert!(lat.accepts(1212));
        // Mixed parity disables everything.
        let lat = SiteLattice::infer(&[(0, SliceL), (1, SliceL)], 404);
        assert!(lat.accepts(3));
        // No samples at all.
        let lat = SiteLattice::infer(&[], 404);
        assert!(lat.accepts(12345));
    }

    #[test]
    fn subsets_enumeration() {
        assert_eq!(subsets(4, 0), vec![Vec::<usize>::new()]);
        assert_eq!(subsets(3, 3), vec![vec![0, 1, 2]]);
        let two_of_four = subsets(4, 2);
        assert_eq!(two_of_four.len(), 6);
        assert_eq!(two_of_four[0], vec![0, 1]);
        assert_eq!(two_of_four[5], vec![2, 3]);
        assert!(subsets(2, 3).is_empty());
    }

    #[test]
    fn or_pair_recognition() {
        let t = TruthTable::var(5, 2).or(TruthTable::var(5, 5));
        assert_eq!(or_pair(t), Some((2, 5)));
        let not_or = TruthTable::var(5, 2).xor(TruthTable::var(5, 5));
        assert_eq!(or_pair(not_or), None);
        let three = t.or(TruthTable::var(5, 1));
        assert_eq!(or_pair(three), None);
    }
}
