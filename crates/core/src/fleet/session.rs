//! The session facade: one validated way to describe and run an
//! attack.
//!
//! A fleet server accepting specs over a socket cannot afford several
//! construction paths, each validating (or not validating) its inputs
//! independently, so this module funnels every attack through one:
//!
//! * [`SessionSpec::builder`] — a validating builder producing an
//!   immutable, wire-serialisable [`SessionSpec`] (typed
//!   [`ConfigError`]s instead of panics or silent nonsense);
//! * [`SessionSpec::run_local`] — builds the standard simulated
//!   victim (ETSI Test Set 1) and runs the full pipeline, honouring
//!   the spec's journal/trace/resume settings. `bitmod attack` is
//!   `run_local` plus rendering, and fleet workers run their pooled
//!   boards through the same board runner;
//! * [`SessionSpec::run_against`] — the same engine over a
//!   caller-supplied oracle, for custom experiments.
//!
//! CLI flags (`bitmod attack`, `bitmod submit`) and server-submitted
//! wire specs both parse into the same builder, so a spec that
//! validates locally validates on the server and vice versa.

use core::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitstream::{Bitstream, PartialBitstream, FRAME_BYTES};

use crate::attack::{Attack, AttackCheckpoint, AttackError, AttackReport};
use crate::journal::AttackJournal;
use crate::oracle::{KeystreamOracle, OracleError};
use crate::resilient::ResilienceConfig;
use crate::telemetry::{names, Telemetry, TelemetryError};

use super::layout::LayoutError;

/// A spec-construction failure: the typed reasons a [`SessionSpec`]
/// (or a sweep grid) can be rejected, shared by the CLI flag parser
/// and the wire-protocol decoder.
#[derive(Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A probability was outside `[0, 1]`.
    RateOutOfRange {
        /// Which rate (`glitch`, `load_fail`).
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Majority voting needs an odd, non-zero ballot count.
    BadVotes(u32),
    /// The sub-vector stride must be non-zero.
    ZeroStride,
    /// The oracle batch width must be between 1 and the gang lane
    /// count.
    BatchTooWide {
        /// Requested width.
        got: usize,
        /// The widest supported batch ([`fpga_sim::GANG_LANES`]).
        max: usize,
    },
    /// A zero physical-query budget can never complete the golden
    /// read.
    ZeroBudget,
    /// `resume` was requested without a journal to resume from.
    ResumeWithoutJournal,
    /// A wire/spec field was not recognised.
    UnknownField(String),
    /// A wire/spec field failed to parse.
    BadField {
        /// The field name.
        name: String,
        /// The unparsable value.
        value: String,
    },
    /// A sweep axis was empty.
    EmptyAxis(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::RateOutOfRange { name, value } => {
                write!(f, "{name} = {value} is not a probability in [0, 1]")
            }
            ConfigError::BadVotes(v) => {
                write!(f, "votes = {v}: majority voting needs an odd, non-zero ballot count")
            }
            ConfigError::ZeroStride => write!(f, "stride must be non-zero"),
            ConfigError::BatchTooWide { got, max } => {
                write!(f, "batch = {got} exceeds the {max}-lane gang simulator")
            }
            ConfigError::ZeroBudget => write!(f, "budget = 0 cannot cover the golden read"),
            ConfigError::ResumeWithoutJournal => {
                write!(f, "resume requires a journal path")
            }
            ConfigError::UnknownField(name) => write!(f, "unknown spec field '{name}'"),
            ConfigError::BadField { name, value } => {
                write!(f, "spec field {name} = '{value}' does not parse")
            }
            ConfigError::EmptyAxis(axis) => write!(f, "sweep axis '{axis}' is empty"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A validated, immutable attack-session description. Construct with
/// [`SessionSpec::builder`] (CLI flags) or [`SessionSpec::from_wire`]
/// (server submissions) — both run the same validation.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Attack an [`fpga_sim::UnreliableBoard`] instead of the ideal
    /// board.
    pub(crate) noisy: bool,
    /// Seed for the fault model and the resilience jitter.
    pub(crate) seed: u64,
    /// Per-bit keystream glitch probability (noisy mode).
    pub(crate) glitch: f64,
    /// Transient load-failure probability (noisy mode).
    pub(crate) load_fail: f64,
    /// Majority-vote reads per oracle query (noisy mode).
    pub(crate) votes: u32,
    /// Drive votes/retries/backoff from the online fault-rate
    /// estimator instead of fixed settings (noisy mode).
    pub(crate) adaptive: bool,
    /// Gilbert–Elliott burst entry probability per load (0 = no burst
    /// model).
    pub(crate) burst_enter: f64,
    /// Gilbert–Elliott burst exit probability per load.
    pub(crate) burst_exit: f64,
    /// Per-bit glitch probability while inside a burst.
    pub(crate) burst_glitch: f64,
    /// Progressive degradation: per-load multiplicative fault-rate
    /// drift (0 = stable board).
    pub(crate) drift: f64,
    /// Stuck-at mask over the first keystream word (0 = no stuck
    /// bits).
    pub(crate) stuck: u32,
    /// Cap on physical oracle attempts (`None` = unlimited).
    pub(crate) budget: Option<u64>,
    /// Sub-vector stride `d`.
    pub(crate) stride: usize,
    /// Oracle batch width (1 = serial).
    pub(crate) batch: usize,
    /// Wall-clock deadline for the session, enforced at the oracle
    /// chokepoint (`None` = unlimited).
    pub(crate) deadline_ms: Option<u64>,
    /// Crash-safe journal path (local runs; fleet workers use the
    /// session layout instead).
    pub(crate) journal: Option<PathBuf>,
    /// Resume from the journal instead of starting fresh.
    pub(crate) resume: bool,
    /// NDJSON telemetry trace path (local runs).
    pub(crate) trace: Option<PathBuf>,
    /// Run the attack over the sealed container: the golden bitstream
    /// is only available as ciphertext, `K_E` comes from the
    /// side-channel trace budget, and every candidate load is
    /// patch-sealed and device-verified before the board sees it.
    pub(crate) encrypted: bool,
    /// Side-channel power traces the encrypted session may spend
    /// recovering `K_E`.
    pub(crate) sca_traces: u32,
    /// Ship candidate loads as frame-delta partial-reconfiguration
    /// streams (first load full, later candidates delta from the
    /// on-device image; non-expressible candidates fall back to full
    /// loads).
    pub(crate) partial: bool,
}

impl Default for SessionSpec {
    fn default() -> Self {
        Self {
            noisy: false,
            seed: 1,
            glitch: 0.01,
            load_fail: 0.10,
            votes: 5,
            adaptive: false,
            burst_enter: 0.0,
            burst_exit: 0.0,
            burst_glitch: 0.0,
            drift: 0.0,
            stuck: 0,
            budget: None,
            stride: FRAME_BYTES,
            batch: 1,
            deadline_ms: None,
            journal: None,
            resume: false,
            trace: None,
            encrypted: false,
            sca_traces: crate::encrypted::SCA_TRACES_REQUIRED,
            partial: false,
        }
    }
}

/// Builds a [`SessionSpec`], validating on
/// [`SessionSpecBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct SessionSpecBuilder {
    spec: SessionSpec,
}

impl SessionSpecBuilder {
    /// Attack the seeded fault-injecting board.
    #[must_use]
    pub fn noisy(mut self, noisy: bool) -> Self {
        self.spec.noisy = noisy;
        self
    }

    /// Seed for the fault model and resilience jitter.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Per-bit keystream glitch probability (noisy mode).
    #[must_use]
    pub fn glitch(mut self, glitch: f64) -> Self {
        self.spec.glitch = glitch;
        self
    }

    /// Transient load-failure probability (noisy mode).
    #[must_use]
    pub fn load_fail(mut self, load_fail: f64) -> Self {
        self.spec.load_fail = load_fail;
        self
    }

    /// Majority-vote ballots per oracle query (noisy mode; odd).
    #[must_use]
    pub fn votes(mut self, votes: u32) -> Self {
        self.spec.votes = votes;
        self
    }

    /// Let the adaptive policy controller drive votes/retries/backoff
    /// from the online fault-rate estimate.
    #[must_use]
    pub fn adaptive(mut self, adaptive: bool) -> Self {
        self.spec.adaptive = adaptive;
        self
    }

    /// Gilbert–Elliott burst noise: `enter`/`exit` are the per-load
    /// state-transition probabilities, `glitch` the per-bit glitch
    /// probability while inside a burst.
    #[must_use]
    pub fn burst(mut self, enter: f64, exit: f64, glitch: f64) -> Self {
        self.spec.burst_enter = enter;
        self.spec.burst_exit = exit;
        self.spec.burst_glitch = glitch;
        self
    }

    /// Progressive degradation: per-load multiplicative fault-rate
    /// drift.
    #[must_use]
    pub fn drift(mut self, drift: f64) -> Self {
        self.spec.drift = drift;
        self
    }

    /// Stuck-at mask over the first keystream word.
    #[must_use]
    pub fn stuck(mut self, mask: u32) -> Self {
        self.spec.stuck = mask;
        self
    }

    /// Cap on physical oracle attempts.
    #[must_use]
    pub fn budget(mut self, budget: u64) -> Self {
        self.spec.budget = Some(budget);
        self
    }

    /// Sub-vector stride `d` (device-family parameter).
    #[must_use]
    pub fn stride(mut self, stride: usize) -> Self {
        self.spec.stride = stride;
        self
    }

    /// Oracle batch width (up to [`fpga_sim::GANG_LANES`]).
    #[must_use]
    pub fn batch(mut self, batch: usize) -> Self {
        self.spec.batch = batch;
        self
    }

    /// Wall-clock deadline, enforced at the oracle chokepoint.
    #[must_use]
    pub fn deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.spec.deadline_ms = Some(deadline_ms);
        self
    }

    /// Crash-safe journal path for local runs.
    #[must_use]
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.spec.journal = Some(path.into());
        self
    }

    /// Resume from the journal instead of starting fresh.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.spec.resume = resume;
        self
    }

    /// NDJSON telemetry trace path for local runs.
    #[must_use]
    pub fn trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.spec.trace = Some(path.into());
        self
    }

    /// Run the attack over the sealed container (ciphertext-only
    /// attacker; `K_E` from the side channel).
    #[must_use]
    pub fn encrypted(mut self, encrypted: bool) -> Self {
        self.spec.encrypted = encrypted;
        self
    }

    /// Side-channel trace budget of an encrypted session (defaults to
    /// [`crate::encrypted::SCA_TRACES_REQUIRED`]).
    #[must_use]
    pub fn sca_traces(mut self, traces: u32) -> Self {
        self.spec.sca_traces = traces;
        self
    }

    /// Ship candidate loads as frame-delta partial-reconfiguration
    /// streams instead of full configurations.
    #[must_use]
    pub fn partial(mut self, partial: bool) -> Self {
        self.spec.partial = partial;
        self
    }

    /// Validates and produces the spec.
    ///
    /// # Errors
    ///
    /// A typed [`ConfigError`] naming the first invalid field.
    pub fn build(self) -> Result<SessionSpec, ConfigError> {
        let s = self.spec;
        for (name, value) in [
            ("glitch", s.glitch),
            ("load_fail", s.load_fail),
            ("burst_enter", s.burst_enter),
            ("burst_exit", s.burst_exit),
            ("burst_glitch", s.burst_glitch),
            ("drift", s.drift),
        ] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(ConfigError::RateOutOfRange { name, value });
            }
        }
        if s.votes == 0 || s.votes.is_multiple_of(2) {
            return Err(ConfigError::BadVotes(s.votes));
        }
        if s.stride == 0 {
            return Err(ConfigError::ZeroStride);
        }
        if s.batch == 0 || s.batch > fpga_sim::GANG_LANES {
            return Err(ConfigError::BatchTooWide { got: s.batch, max: fpga_sim::GANG_LANES });
        }
        if s.budget == Some(0) {
            return Err(ConfigError::ZeroBudget);
        }
        if s.resume && s.journal.is_none() {
            return Err(ConfigError::ResumeWithoutJournal);
        }
        Ok(s)
    }
}

impl SessionSpec {
    /// A fresh validating builder with the library defaults (clean
    /// board, seed 1, serial oracle, one-frame stride).
    #[must_use]
    pub fn builder() -> SessionSpecBuilder {
        SessionSpecBuilder::default()
    }

    /// The canonical one-line wire form: space-separated `key=value`
    /// pairs, stable field order. Local-only fields (journal, trace,
    /// resume) are deliberately absent — the serving side owns its
    /// session layout.
    #[must_use]
    pub fn to_wire(&self) -> String {
        let mut line = format!(
            "noisy={} seed={} glitch={} load_fail={} votes={} stride={} batch={}",
            self.noisy, self.seed, self.glitch, self.load_fail, self.votes, self.stride, self.batch
        );
        if let Some(budget) = self.budget {
            line.push_str(&format!(" budget={budget}"));
        }
        if let Some(deadline) = self.deadline_ms {
            line.push_str(&format!(" deadline_ms={deadline}"));
        }
        // Resilience/fault-taxonomy extensions ride the wire only when
        // set, so pre-0.8 lines still parse and default lines still
        // render identically.
        if self.adaptive {
            line.push_str(" adaptive=true");
        }
        if self.burst_enter > 0.0 {
            line.push_str(&format!(
                " burst_enter={} burst_exit={} burst_glitch={}",
                self.burst_enter, self.burst_exit, self.burst_glitch
            ));
        }
        if self.drift > 0.0 {
            line.push_str(&format!(" drift={}", self.drift));
        }
        if self.stuck != 0 {
            line.push_str(&format!(" stuck={:#010x}", self.stuck));
        }
        // Encrypted-path extensions (0.10): absent on plaintext specs
        // with the default trace budget, so pre-0.10 lines still parse
        // and default lines still render identically.
        if self.encrypted {
            line.push_str(" encrypted=true");
        }
        if self.sca_traces != crate::encrypted::SCA_TRACES_REQUIRED {
            line.push_str(&format!(" sca_traces={}", self.sca_traces));
        }
        // Partial-reconfiguration extension (0.11): absent when off,
        // so pre-0.11 lines still parse and default lines still
        // render identically.
        if self.partial {
            line.push_str(" partial=true");
        }
        line
    }

    /// Parses the wire form back through the validating builder.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnknownField`] / [`ConfigError::BadField`] on
    /// malformed input, plus every validation [`ConfigError`] a
    /// locally-built spec can raise.
    pub fn from_wire(line: &str) -> Result<Self, ConfigError> {
        let mut b = Self::builder();
        for pair in line.split_ascii_whitespace() {
            let (key, value) = pair.split_once('=').ok_or_else(|| ConfigError::BadField {
                name: pair.to_string(),
                value: String::new(),
            })?;
            let bad = || ConfigError::BadField { name: key.to_string(), value: value.to_string() };
            b = match key {
                "noisy" => b.noisy(value.parse().map_err(|_| bad())?),
                "seed" => b.seed(value.parse().map_err(|_| bad())?),
                "glitch" => b.glitch(value.parse().map_err(|_| bad())?),
                "load_fail" => b.load_fail(value.parse().map_err(|_| bad())?),
                "votes" => b.votes(value.parse().map_err(|_| bad())?),
                "adaptive" => b.adaptive(value.parse().map_err(|_| bad())?),
                "burst_enter" => {
                    b.spec.burst_enter = value.parse().map_err(|_| bad())?;
                    b
                }
                "burst_exit" => {
                    b.spec.burst_exit = value.parse().map_err(|_| bad())?;
                    b
                }
                "burst_glitch" => {
                    b.spec.burst_glitch = value.parse().map_err(|_| bad())?;
                    b
                }
                "drift" => b.drift(value.parse().map_err(|_| bad())?),
                "stuck" => {
                    let digits = value.strip_prefix("0x").unwrap_or(value);
                    b.stuck(u32::from_str_radix(digits, 16).map_err(|_| bad())?)
                }
                "budget" => b.budget(value.parse().map_err(|_| bad())?),
                "stride" => b.stride(value.parse().map_err(|_| bad())?),
                "batch" => b.batch(value.parse().map_err(|_| bad())?),
                "deadline_ms" => b.deadline_ms(value.parse().map_err(|_| bad())?),
                "encrypted" => b.encrypted(value.parse().map_err(|_| bad())?),
                "sca_traces" => b.sca_traces(value.parse().map_err(|_| bad())?),
                "partial" => b.partial(value.parse().map_err(|_| bad())?),
                _ => return Err(ConfigError::UnknownField(key.to_string())),
            };
        }
        b.build()
    }

    /// Whether this session attacks the fault-injecting board.
    #[must_use]
    pub fn is_noisy(&self) -> bool {
        self.noisy
    }

    /// The fault/jitter seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The physical-attempt budget, when capped.
    #[must_use]
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The oracle batch width (1 = serial).
    #[must_use]
    pub fn batch_width(&self) -> usize {
        self.batch
    }

    /// Whether this session runs over the sealed container.
    #[must_use]
    pub fn is_encrypted(&self) -> bool {
        self.encrypted
    }

    /// The journal path of a local run, when journalled.
    #[must_use]
    pub fn journal_path(&self) -> Option<&std::path::Path> {
        self.journal.as_deref()
    }

    /// The trace path of a local run, when traced.
    #[must_use]
    pub fn trace_path(&self) -> Option<&std::path::Path> {
        self.trace.as_deref()
    }

    /// The fault profile this spec describes (noisy mode): the flaky
    /// baseline at the spec's rates, plus whichever taxonomy
    /// extensions (burst chain, drift, stuck bits) the spec enables.
    /// Board-local pathology (`dies_at`) is deliberately absent — the
    /// fleet owns *which board* is dying, the spec only owns the
    /// ambient noise (see [`fpga_sim::FaultProfile::same_ambient`]).
    #[must_use]
    pub fn fault_profile(&self) -> fpga_sim::FaultProfile {
        let mut profile = fpga_sim::FaultProfile::flaky(self.seed)
            .with_bit_glitch(self.glitch)
            .with_load_failure(self.load_fail);
        if self.burst_enter > 0.0 {
            profile = profile.with_burst(self.burst_enter, self.burst_exit, self.burst_glitch);
        }
        if self.drift > 0.0 {
            profile = profile.with_drift(self.drift);
        }
        if self.stuck != 0 {
            profile = profile.with_stuck_mask(self.stuck);
        }
        profile
    }

    /// The resilience configuration this spec describes: seeded
    /// retry/voting for noisy sessions (jitter stream decorrelated
    /// from the board's fault stream), pass-through otherwise, with
    /// the budget applied either way.
    #[must_use]
    pub fn resilience_config(&self) -> ResilienceConfig {
        let mut config = if self.noisy {
            ResilienceConfig::noisy(self.seed ^ 0x5EED).with_votes(self.votes)
        } else {
            ResilienceConfig::off()
        };
        if self.adaptive {
            config = config.with_adaptive();
        }
        if let Some(budget) = self.budget {
            config = config.with_budget(budget);
        }
        config
    }

    /// Builds the standard simulated victim (ETSI Test Set 1,
    /// unprotected mapping) and runs this session against it,
    /// honouring the spec's journal/trace/resume settings. The
    /// recovered key is verified against the known Test Set 1 key (a
    /// mismatch is a [`SessionOutcome::Failed`], not a silent
    /// success). A traced run ends its trace with the `summary` event.
    ///
    /// # Errors
    ///
    /// [`SessionError::Board`] when the victim cannot be built;
    /// [`SessionError::Telemetry`] when the trace sink cannot be
    /// opened or written; otherwise as [`SessionSpec::run_against`].
    pub fn run_local(&self) -> Result<SessionReport, SessionError> {
        let board = test_set_1_board()?;
        let telemetry = match &self.trace {
            Some(path) => Telemetry::to_path(path).map_err(SessionError::Telemetry)?,
            None => Telemetry::off(),
        };
        let io = SessionIo {
            journal: self.journal.clone(),
            resume: if self.resume { ResumePolicy::Require } else { ResumePolicy::Never },
            telemetry,
            cancel: CancelToken::new(),
            expected_key: Some(snow3g::vectors::TEST_SET_1_KEY),
        };
        let (result, _, _) = self.run_on_board(board, None, &CancelToken::new(), &io);
        let finished = io.telemetry.finish();
        let report = result?;
        finished.map_err(SessionError::Telemetry)?;
        Ok(report)
    }

    /// Runs this session on `board`, the one victim fork every
    /// board-owning caller shares (`run_local`, `bitmod attack` through
    /// it, and the fleet worker). A noisy spec wraps the board in the
    /// fault model its [`fault_profile`](Self::fault_profile) describes,
    /// plus the board-local death fuse `dies_at`, which the fleet owns
    /// and the spec cannot express. `stop` gates the device boundary: a
    /// [`SupervisedOracle`] on it rejects every load once it is
    /// cancelled (the fleet worker's kill switch), below the session's
    /// own cancel and deadline gate, so a killed leg ends in an error
    /// the worker requeues rather than a [`SessionOutcome`].
    ///
    /// Returns the session result, the board (for the worker's pool)
    /// and, for noisy sessions, the board's fault fate. The board's
    /// injected faults are recorded into `io.telemetry` after the run,
    /// and a traced report's metrics are refreshed to include them.
    pub(crate) fn run_on_board(
        &self,
        board: fpga_sim::Snow3gBoard,
        dies_at: Option<u64>,
        stop: &CancelToken,
        io: &SessionIo,
    ) -> (Result<SessionReport, SessionError>, fpga_sim::Snow3gBoard, Option<BoardFate>) {
        if !self.noisy {
            let gate = SupervisedOracle::new(&board, stop.clone(), None, Telemetry::off());
            let result = self.run_harnessed(&gate, board.extract_bitstream(), io);
            return (result, board, None);
        }
        let mut profile = self.fault_profile();
        if let Some(load) = dies_at {
            profile = profile.with_dies_at(load);
        }
        let noisy = fpga_sim::UnreliableBoard::new(board, profile);
        let gate = SupervisedOracle::new(&noisy, stop.clone(), None, Telemetry::off());
        let mut result = self.run_harnessed(&gate, noisy.extract_bitstream(), io);
        // Faults *injected*, recorded after the run so the trace can
        // set them against the retries the attack *observed* (glitched
        // bits that majority voting outvotes never surface as
        // retries).
        let session = noisy.fault_stats();
        io.telemetry.record_board_faults(
            session.loads_attempted,
            session.transient_failures,
            session.timeouts,
            session.truncated_reads,
            session.bits_flipped,
        );
        // A traced report was read from this recorder, so refresh it to
        // carry the `board.*` counters; an untraced run records into a
        // private recorder the board faults never reach.
        if io.telemetry.is_enabled() {
            if let Ok(report) = &mut result {
                report.metrics = io.telemetry.metrics();
            }
        }
        let fate = BoardFate { session, local: noisy.local_stats(), dead: noisy.is_dead() };
        (result, noisy.into_inner(), Some(fate))
    }

    /// Runs this session with the spec's container mode honoured: a
    /// plaintext spec passes straight to
    /// [`SessionSpec::run_against`]; an encrypted spec first seals
    /// `golden` into the demo Fig. 1 container (the vendor-side step
    /// that produced what sits in flash), spends the spec's
    /// side-channel trace budget recovering `K_E`, builds the
    /// seekable patch oracle over the ciphertext, and runs the same
    /// engine through an [`EncryptedOracle`](crate::EncryptedOracle)
    /// — the attack's golden bitstream comes *out of the container*,
    /// and every candidate load is patch-sealed and device-verified.
    ///
    /// An insufficient trace budget is a
    /// [`SessionOutcome::Exhausted`] with an empty checkpoint (the
    /// attack never started), not an error: re-submit with a raised
    /// `sca_traces` to proceed.
    ///
    /// # Errors
    ///
    /// As [`SessionSpec::run_against`], plus [`SessionError::Attack`]
    /// when the sealed container is rejected under the recovered key.
    pub fn run_harnessed(
        &self,
        oracle: &dyn KeystreamOracle,
        golden: Bitstream,
        io: &SessionIo,
    ) -> Result<SessionReport, SessionError> {
        if !self.encrypted {
            return self.run_against(oracle, golden, io);
        }
        // Vendor side: seal, then forget the plaintext — from here on
        // the attacker's world is the container.
        let sealed = crate::encrypted::demo_seal(&golden);
        drop(golden);
        let patcher = match crate::encrypted::open_with_sca(
            &sealed,
            &crate::encrypted::demo_sca(),
            self.sca_traces,
        ) {
            Ok(patcher) => patcher,
            Err(AttackError::Exhausted { checkpoint, source }) => {
                return Ok(SessionReport {
                    outcome: SessionOutcome::Exhausted {
                        stats: CellStats::default(),
                        summary: source.to_string(),
                    },
                    metrics: io.telemetry.metrics(),
                    attack: None,
                    checkpoint: Some(*checkpoint),
                });
            }
            Err(e) => return Err(SessionError::Attack(e)),
        };
        // Attacker side: the golden bitstream is *recovered from the
        // ciphertext*; the plaintext never crossed the seal boundary.
        let recovered_golden = patcher.golden().clone();
        let enc = crate::encrypted::EncryptedOracle::new(oracle, patcher)
            .with_telemetry(io.telemetry.clone());
        self.run_against(&enc, recovered_golden, io)
    }

    /// Runs this session against a caller-supplied oracle — the
    /// engine underneath [`SessionSpec::run_local`], fleet workers
    /// and the sweep binaries. The oracle is wrapped in a supervised
    /// chokepoint enforcing `io.cancel` and the spec's wall-clock
    /// deadline at every query; with `io.journal` set, the attack
    /// checkpoints write-ahead and resumes per `io.resume`.
    ///
    /// # Errors
    ///
    /// [`SessionError::Attack`] on setup or pipeline failures that
    /// are neither budget exhaustion nor cancellation (those are
    /// [`SessionOutcome`]s, not errors);
    /// [`SessionError::Config`] when `io.resume` requires a journal
    /// that does not exist.
    pub fn run_against(
        &self,
        oracle: &dyn KeystreamOracle,
        golden: Bitstream,
        io: &SessionIo,
    ) -> Result<SessionReport, SessionError> {
        // Metrics feed the outcome's effort accounting even when the
        // caller traces nothing; an enabled recorder is inert (the
        // telemetry differential tests pin this), so swapping one in
        // never perturbs the query trace.
        let telemetry =
            if io.telemetry.is_enabled() { io.telemetry.clone() } else { Telemetry::new() };
        // Delta loading sits directly above the device (below
        // supervision and resilience): with `partial` unset — or an
        // oracle without a partial-reconfiguration port — it is a pure
        // pass-through.
        let pr = crate::pr::PrOracle::new(oracle, self.partial).with_telemetry(telemetry.clone());
        let deadline = self.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let supervised = SupervisedOracle::new(&pr, io.cancel.clone(), deadline, telemetry.clone());

        let journal_exists = io.journal.as_ref().is_some_and(|p| p.exists());
        let resuming = match io.resume {
            ResumePolicy::Never => false,
            ResumePolicy::IfJournalExists => journal_exists,
            ResumePolicy::Require if journal_exists => true,
            ResumePolicy::Require => return Err(SessionError::Config(missing_journal(io))),
        };

        let build_resumed = |golden: Bitstream| {
            let path = io.journal.as_ref().expect("resuming implies a journal path");
            let journal = AttackJournal::new(path);
            let attack = match self.budget {
                // A fresh budget raises the cap of the resumed run;
                // all trace-determining parameters stay journalled.
                Some(budget) => {
                    let config =
                        journal.load().map_err(AttackError::from)?.config.with_budget(budget);
                    Attack::resume_with(&supervised, golden, journal, config)
                }
                None => Attack::resume(&supervised, golden, journal),
            };
            attack.map(|attack| attack.with_telemetry(telemetry.clone()))
        };
        let build_fresh = |golden: Bitstream| {
            let mut attack = Attack::instrumented(
                &supervised,
                golden,
                self.stride,
                self.resilience_config(),
                telemetry.clone(),
            )
            .map_err(SessionError::Attack)?;
            if self.encrypted {
                // Before the journal attaches, so the initial frame
                // already carries the SCA accounting.
                attack = attack.with_sca_traces(self.sca_traces);
            }
            if let Some(path) = &io.journal {
                attack =
                    attack.with_journal(AttackJournal::new(path)).map_err(SessionError::Attack)?;
            }
            Ok::<_, SessionError>(attack)
        };

        let attack = if resuming {
            match build_resumed(golden.clone()) {
                Ok(attack) => Some(attack),
                // A torn journal (crash mid-checkpoint under opt-in
                // resume) is not a dead session: discard the damaged
                // frame and restart from scratch. The attack is a pure
                // function of its seed, so the fresh run reaches the
                // same totals the journalled run would have — the only
                // cost is the re-burned queries. `Require` still
                // escalates (the caller asserted the journal's truth).
                Err(AttackError::Journal(je))
                    if je.is_corruption() && io.resume == ResumePolicy::IfJournalExists =>
                {
                    telemetry.incr(names::JOURNAL_TORN_DISCARDED, 1);
                    if let Some(path) = &io.journal {
                        let _ = std::fs::remove_file(path);
                    }
                    None
                }
                Err(e) => return Err(SessionError::Attack(e)),
            }
        } else {
            None
        };
        let attack = match attack {
            Some(attack) => attack,
            None => build_fresh(golden)?,
        };
        let attack = attack.with_batch(self.batch);

        match attack.run() {
            Ok(report) => {
                // Effort from the resilience layer, not the live
                // recorder: the journal restores these counters in
                // full, so a resumed (or fleet-stolen) session reports
                // the same totals an uninterrupted run would — the
                // recorder only saw the post-resume queries.
                let stats = CellStats {
                    physical: report.resilience.attempts,
                    logical: report.resilience.queries,
                    retries: report.resilience.transient_errors,
                    backoff_ms: report.resilience.backoff_ms,
                };
                let wrong_key =
                    io.expected_key.is_some_and(|expected| report.recovered.key != expected);
                let outcome = if wrong_key {
                    SessionOutcome::Failed { stats, note: "recovered a wrong key".into() }
                } else {
                    SessionOutcome::Recovered(stats)
                };
                Ok(SessionReport {
                    outcome,
                    metrics: telemetry.metrics(),
                    attack: Some(report),
                    checkpoint: None,
                })
            }
            Err(AttackError::Exhausted { checkpoint, source }) => Ok(SessionReport {
                outcome: SessionOutcome::Exhausted {
                    // The checkpoint's attempt counter survives
                    // resume; the recorder-derived remainder is
                    // post-resume-only on a resumed session.
                    stats: CellStats {
                        physical: checkpoint.oracle_attempts,
                        ..stats_from(&telemetry)
                    },
                    summary: source.to_string(),
                },
                metrics: telemetry.metrics(),
                attack: None,
                checkpoint: Some(*checkpoint),
            }),
            Err(_) if io.cancel.is_cancelled() => Ok(SessionReport {
                outcome: SessionOutcome::Cancelled,
                metrics: telemetry.metrics(),
                attack: None,
                checkpoint: None,
            }),
            Err(e) => Err(SessionError::Attack(e)),
        }
    }
}

fn missing_journal(io: &SessionIo) -> ConfigError {
    match &io.journal {
        None => ConfigError::ResumeWithoutJournal,
        Some(path) => ConfigError::BadField {
            name: "journal".into(),
            value: format!("{} does not exist", path.display()),
        },
    }
}

/// A cooperative cancellation flag shared between a session and
/// whoever supervises it (a fleet handle, a watchdog thread, a test).
/// Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks. Sequentially
    /// consistent, so whoever sees the cancellation also sees what the
    /// canceller wrote before it (the fleet's drain flag).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// An oracle wrapper that enforces session supervision at the query
/// chokepoint: every committing query first checks the cancellation
/// token and the wall-clock deadline. Both surface as the
/// non-transient [`OracleError::Rejected`], which the resilience
/// layer aborts on immediately instead of retrying.
///
/// It gates twice in a session: [`SessionSpec::run_against`] puts one
/// on top of the stack for the session's cancel token and deadline,
/// and the board runner puts one at the device boundary for the fleet
/// worker's kill switch. Both of the board's ports pass through, the
/// full-configuration port and the partial-reconfiguration port, each
/// behind the same check; hiding the partial port would silently turn
/// `partial` sessions into full loads.
pub struct SupervisedOracle<'a> {
    inner: &'a dyn KeystreamOracle,
    cancel: CancelToken,
    deadline: Option<Instant>,
    telemetry: Telemetry,
}

impl<'a> SupervisedOracle<'a> {
    /// Supervises `inner` with `cancel` and an optional wall-clock
    /// `deadline`, counting calls and rejections into `telemetry`.
    #[must_use]
    pub fn new(
        inner: &'a dyn KeystreamOracle,
        cancel: CancelToken,
        deadline: Option<Instant>,
        telemetry: Telemetry,
    ) -> Self {
        Self { inner, cancel, deadline, telemetry }
    }

    /// Counts one supervised call and returns the rejection it gets,
    /// if cancellation was requested or the deadline has passed.
    fn rejection(&self) -> Option<OracleError> {
        self.telemetry.incr(names::SUPERVISED_CALLS, 1);
        let reason = if self.cancel.is_cancelled() {
            "session cancelled"
        } else if self.deadline.is_some_and(|deadline| Instant::now() > deadline) {
            "session wall-clock deadline exceeded"
        } else {
            return None;
        };
        self.telemetry.incr(names::SUPERVISED_REJECTIONS, 1);
        Some(OracleError::Rejected(reason.into()))
    }
}

impl KeystreamOracle for SupervisedOracle<'_> {
    fn keystream(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
        match self.rejection() {
            Some(e) => Err(e),
            None => self.inner.keystream(bitstream, words),
        }
    }

    /// Batches pass through to the inner oracle's wide path (the
    /// 64-lane gang simulator) after one supervision check — the
    /// whole batch is one device pass, so cancellation cannot land
    /// between its lanes any more than it could land mid-keystream.
    fn keystream_batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        match self.rejection() {
            Some(e) => vec![Err(e); bitstreams.len()],
            None => self.inner.keystream_batch(bitstreams, words),
        }
    }

    fn state_snapshot(&self) -> Option<Vec<u8>> {
        self.inner.state_snapshot()
    }

    fn restore_state(&self, state: &[u8]) -> Result<(), OracleError> {
        self.inner.restore_state(state)
    }

    // Fault planning forwards verbatim: plans and clean reads carry
    // no supervision of their own because the *committing* call paths
    // already gate every batch, and a cancellation that lands between
    // planning and commit surfaces on the next supervised query
    // exactly as it would between two serial queries.
    fn fault_planning(&self) -> bool {
        self.inner.fault_planning()
    }

    fn plan_read(&self, ahead: u64, words: usize) -> Option<fpga_sim::ReadPlan> {
        self.inner.plan_read(ahead, words)
    }

    fn commit_reads(&self, plans: &[fpga_sim::ReadPlan]) {
        self.inner.commit_reads(plans);
    }

    fn keystream_batch_clean(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        match self.rejection() {
            Some(e) => vec![Err(e); bitstreams.len()],
            None => self.inner.keystream_batch_clean(bitstreams, words),
        }
    }

    fn resolve_plan(
        &self,
        plan: &fpga_sim::ReadPlan,
        clean: Result<Vec<u32>, OracleError>,
        want: usize,
    ) -> Result<Vec<u32>, OracleError> {
        self.inner.resolve_plan(plan, clean, want)
    }

    fn partial_capable(&self) -> bool {
        self.inner.partial_capable()
    }

    fn keystream_partial(
        &self,
        partial: &PartialBitstream,
        words: usize,
    ) -> Result<Vec<u32>, OracleError> {
        match self.rejection() {
            Some(e) => Err(e),
            None => self.inner.keystream_partial(partial, words),
        }
    }

    fn keystream_partial_batch_clean(
        &self,
        partials: &[PartialBitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        match self.rejection() {
            Some(e) => vec![Err(e); partials.len()],
            None => self.inner.keystream_partial_batch_clean(partials, words),
        }
    }
}

/// Where a session's artifacts go and how it is observed — the
/// run-site parameters [`SessionSpec::run_against`] needs beyond the
/// spec itself. A fleet worker points these at the session's
/// [`SessionLayout`](super::layout::SessionLayout); `run_local`
/// derives them from the spec's own paths.
#[derive(Debug, Clone, Default)]
pub struct SessionIo {
    /// Crash-safe journal path (`None` = not journalled).
    pub journal: Option<PathBuf>,
    /// When to resume from an existing journal.
    pub resume: ResumePolicy,
    /// The telemetry recorder observing the session
    /// ([`Telemetry::off`] records nothing user-visible; effort
    /// accounting still works).
    pub telemetry: Telemetry,
    /// Cooperative cancellation, enforced at every oracle query.
    pub cancel: CancelToken,
    /// When set, a recovered key differing from this is reported as
    /// [`SessionOutcome::Failed`] rather than trusted.
    pub expected_key: Option<snow3g::Key>,
}

/// When [`SessionSpec::run_against`] resumes from an existing
/// journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ResumePolicy {
    /// Never resume; an existing journal is overwritten.
    #[default]
    Never,
    /// Resume exactly when the journal file exists — the fleet
    /// worker policy, which is what lets a stolen session continue on
    /// a peer.
    IfJournalExists,
    /// Resume, and fail if the journal is missing (`--resume`).
    Require,
}

/// Physical-query accounting for one session, mirroring the columns
/// of the noise-sweep table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellStats {
    /// Physical bitstream loads the board saw.
    pub physical: u64,
    /// Logical keystream queries the attack issued.
    pub logical: u64,
    /// Transient errors absorbed by the retry layer.
    pub retries: u64,
    /// Virtual milliseconds spent backing off.
    pub backoff_ms: u64,
}

/// How a session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The attack recovered (and verified) the key.
    Recovered(CellStats),
    /// The physical-query budget ran out; the journal (if any) holds
    /// the partial result.
    Exhausted {
        /// Effort burned before the cut.
        stats: CellStats,
        /// Human-readable checkpoint summary.
        summary: String,
    },
    /// The session completed without recovering the key, or aborted
    /// on a typed error.
    Failed {
        /// Effort burned.
        stats: CellStats,
        /// The typed failure rendered, or a wrong-key note.
        note: String,
    },
    /// The session was cancelled.
    Cancelled,
}

impl SessionOutcome {
    /// The wire/state string (`recovered`, `exhausted`, `failed`,
    /// `cancelled`).
    #[must_use]
    pub fn state_str(&self) -> &'static str {
        match self {
            SessionOutcome::Recovered(_) => "recovered",
            SessionOutcome::Exhausted { .. } => "exhausted",
            SessionOutcome::Failed { .. } => "failed",
            SessionOutcome::Cancelled => "cancelled",
        }
    }

    /// The effort stats, when the outcome carries them.
    #[must_use]
    pub fn stats(&self) -> CellStats {
        match self {
            SessionOutcome::Recovered(stats)
            | SessionOutcome::Exhausted { stats, .. }
            | SessionOutcome::Failed { stats, .. } => stats.clone(),
            SessionOutcome::Cancelled => CellStats::default(),
        }
    }

    /// The note/summary text, when any.
    #[must_use]
    pub fn note(&self) -> &str {
        match self {
            SessionOutcome::Exhausted { summary, .. } => summary,
            SessionOutcome::Failed { note, .. } => note,
            _ => "",
        }
    }
}

impl fmt::Display for SessionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let note = self.note();
        if note.is_empty() {
            f.write_str(self.state_str())
        } else {
            write!(f, "{}: {note}", self.state_str())
        }
    }
}

/// What a completed session returns.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// How the session ended.
    pub outcome: SessionOutcome,
    /// The session's full metric bag (oracle effort, journal writes,
    /// batch utilisation).
    pub metrics: crate::telemetry::Metrics,
    /// The full attack report, when the pipeline completed.
    pub attack: Option<AttackReport>,
    /// The partial-result checkpoint, on budget exhaustion.
    pub checkpoint: Option<AttackCheckpoint>,
}

/// A session-harness failure (distinct from a session *outcome*: a
/// budget cut or cancellation is a result, not an error).
#[derive(Debug)]
#[non_exhaustive]
pub enum SessionError {
    /// The simulated victim board could not be built.
    Board(fpga_sim::BoardError),
    /// The session's output layout could not be materialised.
    Layout(LayoutError),
    /// The telemetry trace sink could not be opened.
    Telemetry(TelemetryError),
    /// The attack pipeline failed (setup or a non-budget abort).
    Attack(AttackError),
    /// The spec/run-site combination was invalid.
    Config(ConfigError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Board(e) => write!(f, "victim board construction failed: {e}"),
            SessionError::Layout(e) => write!(f, "session layout: {e}"),
            SessionError::Telemetry(e) => write!(f, "telemetry: {e}"),
            SessionError::Attack(e) => write!(f, "attack: {e}"),
            SessionError::Config(e) => write!(f, "session config: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Board(e) => Some(e),
            SessionError::Layout(e) => Some(e),
            SessionError::Telemetry(e) => Some(e),
            SessionError::Attack(e) => Some(e),
            SessionError::Config(e) => Some(e),
        }
    }
}

impl From<LayoutError> for SessionError {
    fn from(e: LayoutError) -> Self {
        SessionError::Layout(e)
    }
}

impl From<ConfigError> for SessionError {
    fn from(e: ConfigError) -> Self {
        SessionError::Config(e)
    }
}

/// Effort accounting from a session's metric bag — the same four
/// columns the sweep table reports, so failed sessions still account
/// for the physical work they burned.
#[must_use]
pub fn stats_from(telemetry: &Telemetry) -> CellStats {
    let m = telemetry.metrics();
    CellStats {
        physical: m.counter(names::ORACLE_LOADS),
        logical: m.counter(names::ORACLE_QUERIES),
        retries: m.counter(names::ORACLE_RETRIES),
        backoff_ms: m.counter(names::ORACLE_BACKOFF_MS),
    }
}

/// Builds the standard simulated victim: ETSI Test Set 1 on the
/// unprotected mapping.
pub(crate) fn test_set_1_board() -> Result<fpga_sim::Snow3gBoard, SessionError> {
    let config = netlist::snow3g_circuit::Snow3gCircuitConfig::unprotected(
        snow3g::vectors::TEST_SET_1_KEY,
        snow3g::vectors::TEST_SET_1_IV,
    );
    fpga_sim::Snow3gBoard::build(config, &fpga_sim::ImplementOptions::default())
        .map_err(SessionError::Board)
}

/// How a noisy session left its board. Two fault views with different
/// owners: the session-wide counters (journal-restored across
/// migrations) and the board-local wear, so a healthy board inheriting
/// a dying peer's session is not blamed for the faults the dead board
/// injected.
pub(crate) struct BoardFate {
    /// Faults injected over the whole session, resumed legs included.
    pub(crate) session: fpga_sim::FaultStats,
    /// Faults this board injected itself.
    pub(crate) local: fpga_sim::FaultStats,
    /// Whether the board's death fuse has blown.
    pub(crate) dead: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_each_field() {
        assert!(SessionSpec::builder().build().is_ok(), "defaults validate");
        let cases: [(SessionSpecBuilder, ConfigError); 6] = [
            (
                SessionSpec::builder().glitch(1.5),
                ConfigError::RateOutOfRange { name: "glitch", value: 1.5 },
            ),
            (
                SessionSpec::builder().load_fail(-0.1),
                ConfigError::RateOutOfRange { name: "load_fail", value: -0.1 },
            ),
            (SessionSpec::builder().votes(4), ConfigError::BadVotes(4)),
            (SessionSpec::builder().stride(0), ConfigError::ZeroStride),
            (
                SessionSpec::builder().batch(65),
                ConfigError::BatchTooWide { got: 65, max: fpga_sim::GANG_LANES },
            ),
            (SessionSpec::builder().budget(0), ConfigError::ZeroBudget),
        ];
        for (builder, expected) in cases {
            let err = builder.build().expect_err("invalid");
            assert_eq!(err, expected);
        }
        let err = SessionSpec::builder().resume(true).build().expect_err("resume needs journal");
        assert_eq!(err, ConfigError::ResumeWithoutJournal);
        assert!(SessionSpec::builder().resume(true).journal("a.journal").build().is_ok());
    }

    #[test]
    fn wire_form_roundtrips_through_the_validating_builder() {
        let spec = SessionSpec::builder()
            .noisy(true)
            .seed(7)
            .glitch(0.015)
            .load_fail(0.25)
            .votes(9)
            .adaptive(true)
            .burst(0.05, 0.3, 0.12)
            .drift(0.001)
            .stuck(0x8000_0001)
            .budget(4_000)
            .stride(101)
            .batch(64)
            .deadline_ms(30_000)
            .build()
            .expect("valid");
        let wire = spec.to_wire();
        let parsed = SessionSpec::from_wire(&wire).expect("parses");
        assert_eq!(parsed, spec);
        // Defaulted taxonomy fields stay off the wire, so pre-0.8
        // lines and new default lines are byte-identical.
        let plain = SessionSpec::builder().build().expect("valid").to_wire();
        for field in ["adaptive", "burst", "drift", "stuck"] {
            assert!(!plain.contains(field), "default wire line leaks '{field}'");
        }
        // Local-only fields never cross the wire.
        let local = SessionSpec::builder().journal("x.journal").trace("x.ndjson").build().unwrap();
        assert!(!local.to_wire().contains("journal"));
        assert!(!local.to_wire().contains("trace"));
    }

    #[test]
    fn wire_decode_rejects_malformed_input_with_typed_errors() {
        let err = SessionSpec::from_wire("frobnicate=1").expect_err("unknown field");
        assert_eq!(err, ConfigError::UnknownField("frobnicate".into()));
        let err = SessionSpec::from_wire("seed=banana").expect_err("bad value");
        assert_eq!(err, ConfigError::BadField { name: "seed".into(), value: "banana".into() });
        let err = SessionSpec::from_wire("seed").expect_err("no equals");
        assert!(matches!(err, ConfigError::BadField { .. }));
        // Validation runs on wire specs exactly as on built ones.
        let err = SessionSpec::from_wire("votes=2").expect_err("even votes");
        assert_eq!(err, ConfigError::BadVotes(2));
    }

    #[test]
    fn spec_maps_taxonomy_and_adaptive_flags_onto_profile_and_config() {
        let spec = SessionSpec::builder()
            .noisy(true)
            .seed(3)
            .adaptive(true)
            .burst(0.2, 0.4, 0.1)
            .drift(0.01)
            .stuck(0xF)
            .build()
            .expect("valid");
        let profile = spec.fault_profile();
        assert_eq!(profile.burst_enter, 0.2);
        assert_eq!(profile.burst_exit, 0.4);
        assert_eq!(profile.burst_glitch, 0.1);
        assert_eq!(profile.drift, 0.01);
        assert_eq!(profile.stuck_mask, 0xF);
        assert!(profile.dies_at.is_none(), "pathology is fleet-owned, not spec-owned");
        assert!(spec.resilience_config().adaptive);
        assert!(!SessionSpec::builder().build().expect("valid").resilience_config().adaptive);
    }

    #[test]
    fn outcome_accessors_and_display() {
        let stats = CellStats { physical: 5, logical: 2, retries: 1, backoff_ms: 10 };
        let o = SessionOutcome::Recovered(stats.clone());
        assert_eq!(o.state_str(), "recovered");
        assert_eq!(o.stats(), stats);
        assert_eq!(o.to_string(), "recovered");
        let o = SessionOutcome::Failed { stats: CellStats::default(), note: "boom".into() };
        assert_eq!(o.to_string(), "failed: boom");
        assert_eq!(SessionOutcome::Cancelled.stats(), CellStats::default());
    }

    #[test]
    fn a_traced_local_run_ends_its_trace_with_the_summary() {
        let path =
            std::env::temp_dir().join(format!("bitmod-run-local-{}.ndjson", std::process::id()));
        let spec =
            SessionSpec::builder().batch(fpga_sim::GANG_LANES).trace(&path).build().expect("valid");
        let report = spec.run_local().expect("session runs");
        let trace = std::fs::read_to_string(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(report.outcome, SessionOutcome::Recovered(_)), "{}", report.outcome);
        let last = trace.lines().last().expect("trace has events");
        assert!(last.contains("\"ev\":\"summary\""), "{last}");
    }

    #[test]
    fn the_supervised_oracle_enforces_cancellation_and_deadline() {
        struct Null;
        impl KeystreamOracle for Null {
            fn keystream(&self, _: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
                Ok(vec![0; words])
            }
            fn partial_capable(&self) -> bool {
                true
            }
            fn keystream_partial(
                &self,
                _: &PartialBitstream,
                words: usize,
            ) -> Result<Vec<u32>, OracleError> {
                Ok(vec![0; words])
            }
        }
        let bs = Bitstream::from_bytes(vec![0; 8]);
        let delta = PartialBitstream::from_bytes(vec![0; 8]);

        let cancel = CancelToken::new();
        let telemetry = Telemetry::new();
        let oracle = SupervisedOracle::new(&Null, cancel.clone(), None, telemetry.clone());
        assert!(oracle.partial_capable(), "the partial port must stay visible");
        assert_eq!(oracle.keystream(&bs, 2).expect("clean"), vec![0, 0]);
        assert_eq!(oracle.keystream_partial(&delta, 2).expect("clean"), vec![0, 0]);
        cancel.cancel();
        let err = oracle.keystream(&bs, 2).expect_err("cancelled");
        assert!(!err.is_transient(), "cancellation must not be retried");
        assert!(err.to_string().contains("cancelled"), "{err}");
        let rejected =
            |r: &Result<Vec<u32>, OracleError>| r.as_ref().is_err_and(|e| !e.is_transient());
        let batch = oracle.keystream_batch(&[bs.clone(), bs.clone()], 2);
        assert!(batch.iter().all(rejected));
        assert!(rejected(&oracle.keystream_partial(&delta, 2)));
        let batch = oracle.keystream_partial_batch_clean(&[delta.clone(), delta.clone()], 2);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(rejected));
        assert!(oracle.partial_capable(), "a cancelled gate still reports its port");
        let m = telemetry.metrics();
        assert_eq!(m.counter(names::SUPERVISED_CALLS), 6);
        assert_eq!(m.counter(names::SUPERVISED_REJECTIONS), 4);

        let expired = Some(Instant::now() - Duration::from_millis(1));
        let oracle = SupervisedOracle::new(&Null, CancelToken::new(), expired, Telemetry::new());
        let err = oracle.keystream(&bs, 2).expect_err("expired");
        assert!(!err.is_transient());
        assert!(err.to_string().contains("deadline"), "{err}");
    }
}
