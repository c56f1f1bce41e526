//! Surviving a flaky board: retry, backoff, majority voting and a
//! query budget between the attack and the oracle.
//!
//! The paper's attack assumes every *load bitstream / read keystream*
//! query succeeds and returns the true keystream. A real lab board
//! does not cooperate: loads transiently fail, the configuration port
//! times out, readback glitches bits and truncates transfers, glitch
//! rates burst and drift, and boards die outright (the fault classes
//! modelled by `fpga_sim::UnreliableBoard`). This module wraps any
//! [`KeystreamOracle`] in a resilience layer:
//!
//! * **retry with exponential backoff** — transient errors
//!   ([`OracleError::is_transient`]) are retried up to a configured
//!   attempt count, with seeded jitter so concurrent retries would
//!   not stampede a shared programmer;
//! * **per-bit majority voting** — each logical query performs an odd
//!   number of full reads and takes the bitwise majority. At a 1%
//!   per-bit glitch rate a 512-bit read is almost never entirely
//!   clean, so vote-per-read cannot work; vote-per-*bit* drives the
//!   per-bit error from 10⁻² to ≈10⁻⁵ with 5 reads;
//! * **query budget** — a hard cap on physical oracle attempts.
//!   Exhausting it mid-attack surfaces as a typed
//!   [`ResilienceError::BudgetExhausted`], which the attack driver
//!   converts into a checkpointed partial result;
//! * **virtual clock** — backoff advances a deterministic virtual
//!   clock instead of sleeping, so noisy runs are bit-reproducible
//!   and tests run instantly;
//! * **adaptive policy** ([`adaptive`]) — with
//!   [`ResilienceConfig::with_adaptive`], an online EWMA fault-rate
//!   estimator drives a hysteresis ladder that escalates and
//!   de-escalates votes, retries and backoff as the board degrades
//!   and recovers, emitting typed [`PolicyEvent`]s.
//!
//! Determinism argument: faults come from the board's counter-keyed
//! draws, jitter from this layer's counter-keyed draws (a pure
//! function of `(seed, query index, read ordinal)` — no shared RNG
//! cursor), time from the virtual clock, and the adaptive controller
//! consumes only counters derived from that trace. A fixed
//! (seed, call sequence) pair therefore replays the identical noisy
//! run, a journal resumes it from counters alone, and *batched* noisy
//! queries can be planned speculatively yet produce the bit-identical
//! trace of the serial loop ([`ResilientOracle::query_batch`]).

pub mod adaptive;

use core::fmt;

use rand::rngs::SmallRng;
use rand::Rng;

use bitstream::Bitstream;

use crate::oracle::{KeystreamOracle, OracleError};
use crate::telemetry::Telemetry;

pub use adaptive::{PolicyController, PolicyEvent};

/// A deterministic clock: backoff advances it, nothing sleeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now_ms: u64,
}

impl VirtualClock {
    /// A clock at t = 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Milliseconds elapsed on the virtual timeline.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Advances the timeline (saturating).
    pub fn advance(&mut self, ms: u64) {
        self.now_ms = self.now_ms.saturating_add(ms);
    }
}

/// Exponential-backoff retry policy for transient oracle errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Physical attempts per read (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual milliseconds.
    pub base_delay_ms: u64,
    /// Backoff ceiling, in virtual milliseconds.
    pub max_delay_ms: u64,
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    #[must_use]
    pub fn none() -> Self {
        Self { max_attempts: 1, base_delay_ms: 0, max_delay_ms: 0 }
    }

    /// The default flaky-board policy: 8 attempts, 10 ms base delay
    /// doubling up to 2 s.
    #[must_use]
    pub fn standard() -> Self {
        Self { max_attempts: 8, base_delay_ms: 10, max_delay_ms: 2_000 }
    }

    /// The backoff before retry number `attempt` (0-based): an
    /// exponential ramp capped at the ceiling, plus up to 50% seeded
    /// jitter.
    fn delay_ms(&self, attempt: u32, rng: &mut SmallRng) -> u64 {
        let ramp = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_delay_ms.max(self.base_delay_ms));
        if ramp == 0 {
            return 0;
        }
        ramp + rng.gen_range(0..=ramp / 2)
    }
}

/// How a [`ResilientOracle`] behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Full keystream reads per logical query; the bitwise majority
    /// wins. Use an odd count — even counts resolve ties toward 0.
    pub votes: u32,
    /// Retry policy for transient errors.
    pub retry: RetryPolicy,
    /// Cap on *physical* oracle attempts across the whole run
    /// (`None` = unlimited).
    pub budget: Option<u64>,
    /// Virtual-clock deadline in milliseconds (`None` = unlimited):
    /// once backoff has advanced the clock past it, further queries
    /// fail with [`ResilienceError::DeadlineExceeded`] — a bound on
    /// how long a single run may fight a hostile board (the
    /// wall-clock analogue is the session's `deadline_ms`, enforced by
    /// [`crate::fleet::SupervisedOracle`]).
    pub deadline_ms: Option<u64>,
    /// Seed for the backoff jitter.
    pub seed: u64,
    /// Whether the adaptive policy controller is on: `votes` and
    /// `retry` become the *floor*, and the [`adaptive`] hysteresis
    /// ladder escalates or de-escalates effort with the observed
    /// fault rate.
    pub adaptive: bool,
}

impl ResilienceConfig {
    /// The pass-through configuration: one vote, no retries, no
    /// budget. Against an ideal oracle this is byte-for-byte the
    /// unwrapped behaviour.
    #[must_use]
    pub fn off() -> Self {
        Self {
            votes: 1,
            retry: RetryPolicy::none(),
            budget: None,
            deadline_ms: None,
            seed: 0,
            adaptive: false,
        }
    }

    /// The flaky-board configuration: 5 votes, standard backoff, no
    /// budget, fixed (non-adaptive) policy.
    #[must_use]
    pub fn noisy(seed: u64) -> Self {
        Self { votes: 5, retry: RetryPolicy::standard(), seed, ..Self::off() }
    }

    /// Overrides the vote count.
    #[must_use]
    pub fn with_votes(mut self, votes: u32) -> Self {
        self.votes = votes;
        self
    }

    /// Sets the physical-attempt budget.
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Overrides the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the virtual-clock deadline.
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Turns the adaptive policy controller on.
    #[must_use]
    pub fn with_adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Whether two configurations drive the *same* noisy trace: the
    /// vote count, retry policy, jitter seed and adaptive flag
    /// determine every draw, backoff and policy decision, while
    /// `budget` and `deadline_ms` only decide where a run is cut
    /// short. A journal may therefore be resumed under a raised
    /// budget or deadline, but never under a different
    /// trace-determining configuration.
    #[must_use]
    pub fn same_trace(&self, other: &Self) -> bool {
        self.votes == other.votes
            && self.retry == other.retry
            && self.seed == other.seed
            && self.adaptive == other.adaptive
    }
}

/// A resilience-layer failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum ResilienceError {
    /// The physical-attempt budget ran out. The attack driver turns
    /// this into a checkpointed partial result.
    BudgetExhausted {
        /// Attempts performed.
        used: u64,
        /// The configured cap.
        limit: u64,
    },
    /// The virtual-clock deadline passed. Like a budget cut, the
    /// attack driver turns this into a checkpointed partial result.
    DeadlineExceeded {
        /// The virtual timeline position.
        now_ms: u64,
        /// The configured deadline.
        limit_ms: u64,
    },
    /// Every allowed attempt of one read failed transiently.
    RetriesExhausted {
        /// Attempts performed for this read.
        attempts: u32,
        /// The last transient error observed.
        last: OracleError,
    },
    /// A non-transient oracle error; retrying cannot help.
    Fatal(OracleError),
    /// The side-channel trace budget of an encrypted session is too
    /// small to recover `K_E`: the golden container cannot be opened,
    /// so the attack cannot even start. Like a budget cut, the attack
    /// driver turns this into a checkpointed partial result — rerun
    /// with a raised trace budget to proceed.
    ScaTracesExhausted {
        /// Power traces the session was allowed to collect.
        collected: u32,
        /// Traces the side-channel attack needs for key recovery.
        needed: u32,
    },
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::BudgetExhausted { used, limit } => {
                write!(f, "oracle query budget exhausted ({used}/{limit} attempts)")
            }
            ResilienceError::DeadlineExceeded { now_ms, limit_ms } => {
                write!(f, "virtual-clock deadline exceeded ({now_ms} ms of {limit_ms} ms allowed)")
            }
            ResilienceError::RetriesExhausted { attempts, last } => {
                write!(f, "read still failing after {attempts} attempts: {last}")
            }
            ResilienceError::Fatal(e) => write!(f, "unrecoverable oracle error: {e}"),
            ResilienceError::ScaTracesExhausted { collected, needed } => {
                write!(
                    f,
                    "side-channel trace budget exhausted ({collected}/{needed} traces): \
                     K_E not recovered, container cannot be opened"
                )
            }
        }
    }
}

impl std::error::Error for ResilienceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilienceError::BudgetExhausted { .. }
            | ResilienceError::DeadlineExceeded { .. }
            | ResilienceError::ScaTracesExhausted { .. } => None,
            ResilienceError::RetriesExhausted { last, .. } => Some(last),
            ResilienceError::Fatal(e) => Some(e),
        }
    }
}

/// Effort and fault counters for one resilient run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilientStats {
    /// Logical queries served.
    pub queries: u64,
    /// Physical oracle attempts (what the budget caps).
    pub attempts: u64,
    /// Successful full reads (majority-vote ballots).
    pub votes_cast: u64,
    /// Transient errors absorbed by retry.
    pub transient_errors: u64,
    /// Virtual milliseconds spent backing off.
    pub backoff_ms: u64,
}

/// The complete mutable state of a [`ResilientOracle`], for
/// crash-safe journals. Restoring it (with the *same* trace-relevant
/// [`ResilienceConfig`], see [`ResilienceConfig::same_trace`]) makes
/// the resumed layer produce the identical stream of jitter draws,
/// backoff delays, policy decisions and stats a never-interrupted run
/// would have. There is no RNG state here: jitter is a pure function
/// of `(seed, query index, read ordinal)`, so the counters pin the
/// resume point by themselves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilientSnapshot {
    /// Effort counters at the snapshot point.
    pub stats: ResilientStats,
    /// Virtual-clock position, in milliseconds.
    pub clock_ms: u64,
    /// Adaptive-policy controller state (level 0 with an empty
    /// history on non-adaptive runs).
    pub policy: PolicyController,
}

/// A [`KeystreamOracle`] front-end that retries, votes and meters.
pub struct ResilientOracle<'a> {
    inner: &'a dyn KeystreamOracle,
    config: ResilienceConfig,
    clock: VirtualClock,
    stats: ResilientStats,
    policy: PolicyController,
    /// Inert observer: records per-query effort deltas *after* each
    /// query completes. Never consulted for control flow, never
    /// influences a draw, never advances the clock — so an
    /// instrumented run replays the identical query trace (see
    /// `telemetry`).
    telemetry: Telemetry,
}

impl fmt::Debug for ResilientOracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ResilientOracle(votes: {}, attempts: {}/{:?}, t: {} ms, level: {})",
            self.config.votes,
            self.stats.attempts,
            self.config.budget,
            self.clock.now_ms(),
            self.policy.level(),
        )
    }
}

impl<'a> ResilientOracle<'a> {
    /// Wraps an oracle in the resilience layer.
    #[must_use]
    pub fn new(inner: &'a dyn KeystreamOracle, config: ResilienceConfig) -> Self {
        Self {
            inner,
            config,
            clock: VirtualClock::new(),
            stats: ResilientStats::default(),
            policy: PolicyController::new(),
            telemetry: Telemetry::off(),
        }
    }

    /// Rebuilds a resilience layer mid-run from a journal snapshot.
    /// `config` may raise the budget or deadline relative to the run
    /// that produced `snap`, but must drive the same trace
    /// ([`ResilienceConfig::same_trace`]) — the caller enforces that.
    #[must_use]
    pub fn from_snapshot(
        inner: &'a dyn KeystreamOracle,
        config: ResilienceConfig,
        snap: &ResilientSnapshot,
    ) -> Self {
        let mut clock = VirtualClock::new();
        clock.advance(snap.clock_ms);
        Self {
            inner,
            config,
            clock,
            stats: snap.stats,
            policy: snap.policy.clone(),
            telemetry: Telemetry::off(),
        }
    }

    /// Installs a telemetry recorder. Recording is observation only —
    /// the query trace is bit-identical with telemetry on or off.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The installed telemetry handle (disabled by default).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The full mutable state, for crash-safe journals.
    #[must_use]
    pub fn snapshot(&self) -> ResilientSnapshot {
        ResilientSnapshot {
            stats: self.stats,
            clock_ms: self.clock.now_ms(),
            policy: self.policy.clone(),
        }
    }

    /// The wrapped oracle (e.g. for journalling its device state).
    #[must_use]
    pub fn inner(&self) -> &dyn KeystreamOracle {
        self.inner
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// Effort counters so far.
    #[must_use]
    pub fn stats(&self) -> ResilientStats {
        self.stats
    }

    /// The adaptive policy controller (level 0 and inert unless
    /// [`ResilienceConfig::with_adaptive`] is set).
    #[must_use]
    pub fn policy(&self) -> &PolicyController {
        &self.policy
    }

    /// The virtual timeline (advanced by backoff only).
    #[must_use]
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Physical attempts still allowed (`None` = unlimited).
    #[must_use]
    pub fn remaining_budget(&self) -> Option<u64> {
        self.config.budget.map(|limit| limit.saturating_sub(self.stats.attempts))
    }

    /// The jitter generator for read `ordinal` of logical query `q` —
    /// a pure function of the key, so draws are order-free across
    /// queries and resumable from counters alone.
    fn jitter_rng(&self, q: u64, ordinal: u64) -> SmallRng {
        rand::counter_rng(self.config.seed, q, ordinal)
    }

    /// Majority votes per logical query under the current policy
    /// level (the configured count is the floor; each adaptive level
    /// adds two, keeping an odd count odd).
    fn effective_votes(&self) -> u32 {
        let base = self.config.votes.max(1);
        if self.config.adaptive {
            base + 2 * u32::from(self.policy.level())
        } else {
            base
        }
    }

    /// The retry policy under the current policy level (each adaptive
    /// level adds two attempts and doubles the backoff base, capped
    /// at the ceiling).
    fn effective_retry(&self) -> RetryPolicy {
        let mut p = self.config.retry;
        if self.config.adaptive && self.policy.level() > 0 {
            let level = self.policy.level();
            p.max_attempts = p.max_attempts.max(1) + 2 * u32::from(level);
            p.base_delay_ms = (p.base_delay_ms << level).min(p.max_delay_ms.max(p.base_delay_ms));
        }
        p
    }

    /// Feeds one *completed* query's fault sample into the adaptive
    /// controller: transient errors plus outvoted ballots, per
    /// physical attempt, in milli units. Failed (budget- or
    /// deadline-cut) queries are never observed — they are re-issued
    /// verbatim after a resume, so observing them would make a
    /// killed-and-resumed run diverge from an uninterrupted one.
    fn observe_query(&mut self, q: u64, mismatches: u64, before: ResilientStats) {
        if !self.config.adaptive {
            return;
        }
        let attempts = self.stats.attempts - before.attempts;
        if attempts == 0 {
            return;
        }
        let faults = (self.stats.transient_errors - before.transient_errors) + mismatches;
        let sample = u32::try_from((faults * 1000 / attempts).min(1000)).expect("clamped");
        if let Some(event) = self.policy.observe(q, sample) {
            self.telemetry.record_policy(
                event.at_query,
                event.from_level,
                event.to_level,
                event.ewma_milli,
            );
        }
    }

    /// One logical query: collect the policy's number of full reads
    /// (each individually retried) and return their bitwise majority.
    ///
    /// # Errors
    ///
    /// [`ResilienceError::BudgetExhausted`] when the attempt cap is
    /// hit, [`ResilienceError::RetriesExhausted`] when a read stays
    /// transiently broken, [`ResilienceError::Fatal`] on a
    /// non-transient oracle error.
    pub fn query(
        &mut self,
        bitstream: &Bitstream,
        words: usize,
    ) -> Result<Vec<u32>, ResilienceError> {
        let inner = self.inner;
        self.query_one(words, &mut || inner.keystream(bitstream, words))
    }

    /// Whether a *reordered* speculative query wave is faithful: only
    /// when no query draws jitter, votes, retries, backs off, adapts,
    /// or consumes a fault stream indexed by load order. The attack's
    /// load-mux scan interleaves queries from different candidates
    /// when it runs more than one lane, so it must check this — a
    /// fault-planning oracle's trace is defined by serial load order,
    /// and only [`query_batch`](Self::query_batch) (which preserves
    /// that order) is exact there.
    pub(crate) fn reorder_transparent(&self) -> bool {
        self.pass_through() && !self.inner.fault_planning()
    }

    /// Whether this configuration is pass-through: a single vote, a
    /// single attempt, zero base backoff and a fixed policy — no
    /// query draws jitter or advances the simulated clock.
    fn pass_through(&self) -> bool {
        self.config.votes.max(1) == 1
            && self.config.retry.max_attempts.max(1) == 1
            && self.config.retry.base_delay_ms == 0
            && !self.config.adaptive
    }

    /// A batch of independent logical queries, answered positionally,
    /// always bit-identical to the serial [`query`](Self::query) loop
    /// in results, accounting and fault trace. Every item runs the
    /// same vote/retry/budget loop as `query`; only where its reads
    /// come from differs:
    ///
    /// * a **one-item batch** is `query` itself: one scalar device
    ///   load per read, which beats a one-lane gang pass;
    /// * against a **fault-planning oracle** (an `UnreliableBoard`),
    ///   each read is a speculative fault plan for the exact load
    ///   index serial execution would use, resolved against device
    ///   data read once from the clean substrate via
    ///   [`KeystreamOracle::keystream_batch_clean`] (a gang-simulated
    ///   board evaluates up to 64 lanes per pass). Exactly the reads
    ///   serial execution performs are committed afterwards, which is
    ///   what lets noisy runs batch end-to-end;
    /// * on a **pass-through configuration** over a non-planning
    ///   oracle, each item's single read is the next answer of one
    ///   wide [`KeystreamOracle::keystream_batch`] call over the
    ///   budget-admitted prefix;
    /// * otherwise (a voting/retrying configuration over an oracle
    ///   whose fault stream cannot be planned), batching is the
    ///   per-item `query` loop outright.
    pub fn query_batch(
        &mut self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, ResilienceError>> {
        let inner = self.inner;
        if bitstreams.len() <= 1 {
            return bitstreams.iter().map(|bs| self.query(bs, words)).collect();
        }
        let results = if inner.fault_planning() {
            let clean = inner.keystream_batch_clean(bitstreams, words);
            let mut plans: Vec<fpga_sim::ReadPlan> = Vec::new();
            let mut out = Vec::with_capacity(bitstreams.len());
            for item in &clean {
                out.push(self.query_one(words, &mut || {
                    // `plans.len()` loads are already planned ahead of
                    // the board's commit point, so this read's load
                    // index is that many past it — exactly where
                    // serial execution would be.
                    let plan = inner
                        .plan_read(plans.len() as u64, words)
                        .expect("planned path requires a fault-planning oracle");
                    let outcome = inner.resolve_plan(&plan, item.clone(), words);
                    plans.push(plan);
                    outcome
                }));
            }
            inner.commit_reads(&plans);
            out
        } else if self.pass_through() {
            // With one vote, one attempt and zero base delay no query
            // can draw jitter or advance the clock, so the gate is
            // static over the batch: the per-item loop would admit
            // exactly this prefix to the device, and every later item
            // stops at the gate before asking for an answer.
            let admitted = match self.headroom() {
                Err(_) => 0,
                Ok(room) => room.map_or(bitstreams.len(), |room| {
                    usize::try_from(room).unwrap_or(usize::MAX).min(bitstreams.len())
                }),
            };
            let mut answers = inner.keystream_batch(&bitstreams[..admitted], words).into_iter();
            (0..bitstreams.len())
                .map(|_| {
                    self.query_one(words, &mut || {
                        answers.next().expect("one answer per admitted read")
                    })
                })
                .collect()
        } else {
            bitstreams.iter().map(|bs| self.query(bs, words)).collect()
        };
        if self.telemetry.is_enabled() {
            self.telemetry.record_batch(bitstreams.len() as u64, fpga_sim::GANG_LANES as u64);
        }
        results
    }

    /// The one vote/retry/budget loop behind every logical query.
    /// `read` performs one physical read — a device load, a resolved
    /// fault plan or a prefetched wide answer — and is called once per
    /// admitted attempt. Everything that touches the clock, budget and
    /// policy happens here, *before* the inert telemetry recording.
    fn query_one(
        &mut self,
        words: usize,
        read: &mut dyn FnMut() -> Result<Vec<u32>, OracleError>,
    ) -> Result<Vec<u32>, ResilienceError> {
        let before = self.stats;
        self.stats.queries += 1;
        let q = before.queries;
        let mut reads = 0u64;
        let result = (0..self.effective_votes())
            .map(|_| self.read_once(words, q, &mut reads, read))
            .collect::<Result<Vec<_>, _>>()
            .map(|ballots| {
                let (z, mismatches) = tally(ballots);
                self.observe_query(q, mismatches, before);
                z
            });
        self.record_query_telemetry(before, &result);
        result
    }

    /// One full read, retried through transient errors.
    fn read_once(
        &mut self,
        words: usize,
        q: u64,
        reads: &mut u64,
        read: &mut dyn FnMut() -> Result<Vec<u32>, OracleError>,
    ) -> Result<Vec<u32>, ResilienceError> {
        let policy = self.effective_retry();
        let attempts = policy.max_attempts.max(1);
        let mut last: Option<OracleError> = None;
        for attempt in 0..attempts {
            self.headroom()?;
            self.stats.attempts += 1;
            let ordinal = *reads;
            *reads += 1;
            // A short Ok from a non-typed oracle is the same fault as
            // a typed ShortRead: retry it.
            let outcome = match read() {
                Ok(z) if z.len() < words => {
                    Err(OracleError::ShortRead { got: z.len(), want: words })
                }
                other => other,
            };
            match outcome {
                Ok(z) => {
                    self.stats.votes_cast += 1;
                    return Ok(z);
                }
                Err(e) if e.is_transient() => {
                    self.stats.transient_errors += 1;
                    let mut rng = self.jitter_rng(q, ordinal);
                    let delay = policy.delay_ms(attempt, &mut rng);
                    self.clock.advance(delay);
                    self.stats.backoff_ms += delay;
                    last = Some(e);
                }
                Err(e) => return Err(ResilienceError::Fatal(e)),
            }
        }
        Err(ResilienceError::RetriesExhausted {
            attempts,
            last: last.unwrap_or(OracleError::ShortRead { got: 0, want: words }),
        })
    }

    /// The budget and deadline gate in front of every physical
    /// attempt: the attempts still allowed (`None` = unlimited), or
    /// the typed cut when the budget is spent or the virtual clock is
    /// past the deadline (checked in that order).
    fn headroom(&self) -> Result<Option<u64>, ResilienceError> {
        if let Some(limit) = self.config.budget.filter(|&limit| self.stats.attempts >= limit) {
            return Err(ResilienceError::BudgetExhausted { used: self.stats.attempts, limit });
        }
        if let Some(limit_ms) = self.config.deadline_ms.filter(|&ms| self.clock.now_ms() > ms) {
            return Err(ResilienceError::DeadlineExceeded {
                now_ms: self.clock.now_ms(),
                limit_ms,
            });
        }
        Ok(self.remaining_budget())
    }

    /// Records one completed query's effort deltas and outcome
    /// (inert; no-op when telemetry is off).
    fn record_query_telemetry(
        &self,
        before: ResilientStats,
        result: &Result<Vec<u32>, ResilienceError>,
    ) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let outcome = match result {
            Ok(_) => "ok",
            Err(ResilienceError::BudgetExhausted { .. }) => "budget-exhausted",
            Err(ResilienceError::DeadlineExceeded { .. }) => "deadline-exceeded",
            Err(ResilienceError::RetriesExhausted { .. }) => "retries-exhausted",
            Err(_) => "fatal",
        };
        self.telemetry.record_query(
            self.stats.attempts - before.attempts,
            self.stats.votes_cast - before.votes_cast,
            self.stats.transient_errors - before.transient_errors,
            self.stats.backoff_ms - before.backoff_ms,
            outcome,
        );
    }
}

/// Reduces a query's ballots to its answer and the number of outvoted
/// ballots (the adaptive controller's glitch signal): with one ballot
/// the answer is the ballot itself; otherwise the per-bit majority,
/// counting ballots that differ from it anywhere.
fn tally(mut ballots: Vec<Vec<u32>>) -> (Vec<u32>, u64) {
    if ballots.len() == 1 {
        return (ballots.pop().expect("one ballot"), 0);
    }
    let z = majority(&ballots);
    let mismatches = ballots.iter().filter(|b| b.as_slice() != z.as_slice()).count() as u64;
    (z, mismatches)
}

/// The bitwise majority of equal-length ballots: bit `b` of word `w`
/// is 1 iff a strict majority of ballots has it 1 (even-split ties
/// resolve to 0). Ballots shorter than the longest are treated as
/// missing (not zero) for the words they lack.
#[must_use]
pub fn majority(ballots: &[Vec<u32>]) -> Vec<u32> {
    let words = ballots.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(words);
    for w in 0..words {
        let mut word = 0u32;
        for bit in 0..32 {
            let (mut ones, mut present) = (0usize, 0usize);
            for ballot in ballots {
                if let Some(v) = ballot.get(w) {
                    present += 1;
                    ones += usize::from((v >> bit) & 1 == 1);
                }
            }
            if ones * 2 > present {
                word |= 1 << bit;
            }
        }
        out.push(word);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A scriptable oracle: pops the front of the script on every
    /// call; an empty script returns the clean keystream.
    struct Scripted {
        clean: Vec<u32>,
        script: RefCell<Vec<Result<Vec<u32>, OracleError>>>,
        calls: RefCell<usize>,
    }

    impl Scripted {
        fn new(clean: Vec<u32>, script: Vec<Result<Vec<u32>, OracleError>>) -> Self {
            Self { clean, script: RefCell::new(script), calls: RefCell::new(0) }
        }

        fn calls(&self) -> usize {
            *self.calls.borrow()
        }
    }

    impl KeystreamOracle for Scripted {
        fn keystream(&self, _bs: &Bitstream, _words: usize) -> Result<Vec<u32>, OracleError> {
            *self.calls.borrow_mut() += 1;
            let mut script = self.script.borrow_mut();
            if script.is_empty() {
                Ok(self.clean.clone())
            } else {
                script.remove(0)
            }
        }
    }

    fn bs() -> Bitstream {
        Bitstream::from_bytes(vec![0; 16])
    }

    #[test]
    fn off_config_is_pass_through() {
        let oracle = Scripted::new(vec![0xAB, 0xCD], vec![]);
        let mut r = ResilientOracle::new(&oracle, ResilienceConfig::off());
        assert_eq!(r.query(&bs(), 2).expect("clean"), vec![0xAB, 0xCD]);
        assert_eq!(oracle.calls(), 1);
        assert_eq!(r.stats().attempts, 1);
        assert_eq!(r.clock().now_ms(), 0, "no backoff on the clean path");
    }

    #[test]
    fn transient_errors_are_retried_with_backoff() {
        let oracle = Scripted::new(
            vec![7, 7],
            vec![
                Err(OracleError::TransientLoad("glitch".into())),
                Err(OracleError::Timeout { ms: 120 }),
            ],
        );
        let mut r = ResilientOracle::new(&oracle, ResilienceConfig::noisy(1).with_votes(1));
        assert_eq!(r.query(&bs(), 2).expect("recovers"), vec![7, 7]);
        assert_eq!(oracle.calls(), 3);
        let stats = r.stats();
        assert_eq!(stats.transient_errors, 2);
        assert!(stats.backoff_ms > 0, "backoff advanced the virtual clock");
        assert_eq!(r.clock().now_ms(), stats.backoff_ms);
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let oracle = Scripted::new(vec![1], vec![Err(OracleError::Rejected("bad CRC".into()))]);
        let mut r = ResilientOracle::new(&oracle, ResilienceConfig::noisy(1).with_votes(1));
        assert!(matches!(r.query(&bs(), 1), Err(ResilienceError::Fatal(_))));
        assert_eq!(oracle.calls(), 1, "a deterministic rejection is never retried");
    }

    #[test]
    fn retries_exhausted_is_typed_and_chains_source() {
        use std::error::Error as _;
        let oracle =
            Scripted::new(vec![1], (0..8).map(|_| Err(OracleError::Timeout { ms: 5 })).collect());
        let mut r = ResilientOracle::new(&oracle, ResilienceConfig::noisy(9).with_votes(1));
        let err = r.query(&bs(), 1).expect_err("board never recovers");
        assert!(matches!(err, ResilienceError::RetriesExhausted { attempts: 8, .. }));
        assert!(err.source().expect("chains to the oracle error").to_string().contains("5 ms"));
    }

    #[test]
    fn short_ok_reads_are_retried_like_short_read_errors() {
        let oracle = Scripted::new(vec![3, 4], vec![Ok(vec![3])]);
        let mut r = ResilientOracle::new(&oracle, ResilienceConfig::noisy(2).with_votes(1));
        assert_eq!(r.query(&bs(), 2).expect("full read on retry"), vec![3, 4]);
        assert_eq!(r.stats().transient_errors, 1);
    }

    #[test]
    fn budget_exhaustion_is_exact() {
        let oracle = Scripted::new(vec![1], vec![]);
        let mut r = ResilientOracle::new(&oracle, ResilienceConfig::off().with_budget(3));
        for _ in 0..3 {
            r.query(&bs(), 1).expect("within budget");
        }
        assert_eq!(r.remaining_budget(), Some(0));
        let err = r.query(&bs(), 1).expect_err("over budget");
        assert!(matches!(err, ResilienceError::BudgetExhausted { used: 3, limit: 3 }));
        assert_eq!(oracle.calls(), 3, "the budget gate precedes the device");
    }

    #[test]
    fn majority_vote_outvotes_disjoint_glitches() {
        // Three reads, each with a different single-bit flip: the
        // per-bit majority is the clean keystream.
        let clean = vec![0xDEAD_BEEFu32, 0x0123_4567];
        let oracle = Scripted::new(
            clean.clone(),
            vec![
                Ok(vec![clean[0] ^ 1, clean[1]]),
                Ok(vec![clean[0], clean[1] ^ (1 << 30)]),
                Ok(vec![clean[0] ^ (1 << 9), clean[1]]),
            ],
        );
        let mut r = ResilientOracle::new(&oracle, ResilienceConfig::noisy(5).with_votes(3));
        assert_eq!(r.query(&bs(), 2).expect("votes"), clean);
        assert_eq!(r.stats().votes_cast, 3);
    }

    #[test]
    fn majority_handles_ties_and_ragged_ballots() {
        assert_eq!(majority(&[]), Vec::<u32>::new());
        // Even split resolves to 0.
        assert_eq!(majority(&[vec![0b11], vec![0b01]]), vec![0b01]);
        // A short ballot abstains on the words it lacks.
        assert_eq!(majority(&[vec![1, 0xF0], vec![1], vec![3, 0xF0]]), vec![1, 0xF0]);
    }

    #[test]
    fn deadline_cuts_a_run_once_backoff_passes_it() {
        // Every read fails transiently, so backoff keeps advancing
        // the virtual clock until the deadline gate trips.
        let oracle =
            Scripted::new(vec![1], (0..64).map(|_| Err(OracleError::Timeout { ms: 5 })).collect());
        let config = ResilienceConfig::noisy(3).with_votes(1).with_deadline_ms(40);
        let mut r = ResilientOracle::new(&oracle, config);
        let err = loop {
            match r.query(&bs(), 1) {
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, ResilienceError::DeadlineExceeded { now_ms, limit_ms: 40 } if now_ms > 40),
            "got {err:?}"
        );
        use std::error::Error as _;
        assert!(err.source().is_none(), "a deadline cut has no underlying oracle error");
    }

    #[test]
    fn snapshot_resumes_the_exact_noisy_trace() {
        // Reference: one uninterrupted noisy run of 6 queries.
        let script = || -> Vec<Result<Vec<u32>, OracleError>> {
            (0..9)
                .flat_map(|i| {
                    vec![Err(OracleError::TransientLoad(format!("glitch {i}"))), Ok(vec![i, i + 1])]
                })
                .collect()
        };
        let oracle = Scripted::new(vec![0xAA], script());
        let mut full = ResilientOracle::new(&oracle, ResilienceConfig::noisy(21).with_votes(1));
        let full_out: Vec<_> = (0..6).map(|_| full.query(&bs(), 2).expect("reads")).collect();
        let full_stats = full.stats();

        // Interrupted run: 3 queries, snapshot, rebuild, 3 more.
        let oracle2 = Scripted::new(vec![0xAA], script());
        let mut first = ResilientOracle::new(&oracle2, ResilienceConfig::noisy(21).with_votes(1));
        let mut out: Vec<_> = (0..3).map(|_| first.query(&bs(), 2).expect("reads")).collect();
        let snap = first.snapshot();
        // (the first "process" is dead from here on; only `snap` survives)
        let mut resumed = ResilientOracle::from_snapshot(
            &oracle2,
            ResilienceConfig::noisy(21).with_votes(1).with_budget(10_000),
            &snap,
        );
        out.extend((0..3).map(|_| resumed.query(&bs(), 2).expect("reads")));

        assert_eq!(out, full_out, "results are bit-identical");
        assert_eq!(resumed.stats(), full_stats, "attempt/backoff accounting is identical");
        assert_eq!(resumed.clock().now_ms(), full.clock().now_ms());
    }

    #[test]
    fn same_trace_ignores_budget_and_deadline_only() {
        let base = ResilienceConfig::noisy(5);
        assert!(base.same_trace(&base.with_budget(9).with_deadline_ms(100)));
        assert!(!base.same_trace(&ResilienceConfig::noisy(6)));
        assert!(!base.same_trace(&base.with_votes(3)));
        assert!(!base.same_trace(&base.with_retry(RetryPolicy::none())));
        assert!(!base.same_trace(&base.with_adaptive()));
    }

    #[test]
    fn wide_batch_matches_the_serial_loop_exactly() {
        // Same script run twice: once through query_batch, once
        // through a serial query loop. Results and every stats
        // counter must agree, including the budget cut mid-batch.
        let script = || -> Vec<Result<Vec<u32>, OracleError>> {
            vec![
                Ok(vec![1, 2]),
                Ok(vec![3]), // short Ok → transient → RetriesExhausted
                Err(OracleError::Rejected("bad".into())), // fatal
                Ok(vec![4, 5]),
            ]
        };
        let config = ResilienceConfig::off().with_budget(4);
        let batch: Vec<Bitstream> = (0..6).map(|_| bs()).collect();

        let oracle_a = Scripted::new(vec![9, 9], script());
        let mut a = ResilientOracle::new(&oracle_a, config);
        let batched = a.query_batch(&batch, 2);

        let oracle_b = Scripted::new(vec![9, 9], script());
        let mut b = ResilientOracle::new(&oracle_b, config);
        let serial: Vec<_> = batch.iter().map(|x| b.query(x, 2)).collect();

        assert_eq!(a.stats(), b.stats());
        assert_eq!(oracle_a.calls(), oracle_b.calls());
        assert_eq!(batched.len(), serial.len());
        for (i, (x, y)) in batched.iter().zip(&serial).enumerate() {
            match (x, y) {
                (Ok(zx), Ok(zy)) => assert_eq!(zx, zy, "item {i}"),
                (Err(ex), Err(ey)) => {
                    assert_eq!(format!("{ex:?}"), format!("{ey:?}"), "item {i}")
                }
                other => panic!("item {i} diverged: {other:?}"),
            }
        }
        // Items 4 and 5 were cut by the budget before reaching the
        // device in both modes.
        assert!(matches!(batched[4], Err(ResilienceError::BudgetExhausted { used: 4, limit: 4 })));
        assert_eq!(oracle_a.calls(), 4);
    }

    #[test]
    fn noisy_batch_over_an_unplannable_oracle_is_the_serial_loop() {
        // A retrying/voting configuration over an oracle whose fault
        // stream cannot be planned must fall back to the sequential
        // loop so the fault-draw order (hence the reproducible noisy
        // trace) is unchanged.
        let script = || -> Vec<Result<Vec<u32>, OracleError>> {
            vec![
                Err(OracleError::TransientLoad("glitch".into())),
                Ok(vec![1, 2]),
                Ok(vec![1, 6]),
                Ok(vec![5, 2]),
                Ok(vec![8, 8]),
                Err(OracleError::Timeout { ms: 3 }),
                Ok(vec![8, 8]),
                Ok(vec![8, 8]),
            ]
        };
        let config = ResilienceConfig::noisy(42).with_votes(3);
        let batch: Vec<Bitstream> = (0..2).map(|_| bs()).collect();

        let oracle_a = Scripted::new(vec![7, 7], script());
        let mut a = ResilientOracle::new(&oracle_a, config);
        let batched = a.query_batch(&batch, 2);

        let oracle_b = Scripted::new(vec![7, 7], script());
        let mut b = ResilientOracle::new(&oracle_b, config);
        let serial: Vec<_> = batch.iter().map(|x| b.query(x, 2)).collect();

        assert_eq!(a.stats(), b.stats(), "identical fault trace and accounting");
        assert_eq!(a.clock().now_ms(), b.clock().now_ms());
        assert_eq!(a.snapshot(), b.snapshot(), "identical snapshots either way");
        let unwrap_all = |v: Vec<Result<Vec<u32>, ResilienceError>>| -> Vec<Vec<u32>> {
            v.into_iter().map(|r| r.expect("recovers")).collect()
        };
        assert_eq!(unwrap_all(batched), unwrap_all(serial));
    }

    #[test]
    fn same_seed_same_backoff_trace() {
        let run = |seed: u64| {
            let oracle = Scripted::new(
                vec![1],
                (0..5).map(|_| Err(OracleError::TransientLoad("x".into()))).collect(),
            );
            let mut r = ResilientOracle::new(&oracle, ResilienceConfig::noisy(seed).with_votes(1));
            r.query(&bs(), 1).expect("recovers on attempt 6");
            r.stats().backoff_ms
        };
        assert_eq!(run(11), run(11), "jitter is a function of the seed");
    }

    #[test]
    fn jitter_is_order_free_across_queries() {
        // The backoff a failing query accumulates is keyed by
        // (seed, query index, read ordinal), not by a shared RNG
        // cursor — so the draws of *earlier* queries cannot influence
        // it, which is exactly what lets planned batches replay
        // serial jitter without replaying a cursor.
        let config = ResilienceConfig::noisy(77).with_votes(1);
        let backoff_of_query = |clean_before: usize| {
            let mut script: Vec<Result<Vec<u32>, OracleError>> =
                (0..clean_before).map(|_| Ok(vec![2])).collect();
            script.push(Err(OracleError::TransientLoad("a".into())));
            script.push(Err(OracleError::TransientLoad("b".into())));
            let oracle = Scripted::new(vec![1], script);
            let mut r = ResilientOracle::new(&oracle, config);
            for _ in 0..clean_before {
                r.query(&bs(), 1).expect("clean");
            }
            let before = r.stats().backoff_ms;
            r.query(&bs(), 1).expect("recovers");
            (r.stats().queries - 1, r.stats().backoff_ms - before)
        };
        let (q0, b0) = backoff_of_query(0);
        let (q2, b2) = backoff_of_query(2);
        assert!(b0 > 0 && b2 > 0, "both failing queries backed off");
        assert_ne!(q0, q2);
        // Same query index → same draws, regardless of history: a
        // second run with the same prefix length reproduces exactly.
        assert_eq!(backoff_of_query(2), (q2, b2));
    }

    mod on_a_real_board {
        use super::*;
        use fpga_sim::{FaultProfile, ImplementOptions, Snow3gBoard, UnreliableBoard};
        use netlist::snow3g_circuit::Snow3gCircuitConfig;
        use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

        fn noisy_board(profile: FaultProfile) -> UnreliableBoard {
            let config = Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV);
            let inner =
                Snow3gBoard::build(config, &ImplementOptions::default()).expect("board builds");
            UnreliableBoard::new(inner, profile)
        }

        /// The headline batched-noise property: against a
        /// fault-planning board, `query_batch` on a voting + retrying
        /// configuration produces the results, stats, clock, policy
        /// state *and board fault trace* of the serial loop, bit for
        /// bit — including a budget cut mid-batch.
        #[test]
        fn planned_batch_equals_the_serial_loop_on_a_noisy_board() {
            let profile = FaultProfile::bursty(17).with_truncate(0.10);
            for (label, config) in [
                ("fixed", ResilienceConfig::noisy(0xBAD5EED).with_votes(3).with_budget(40)),
                ("adaptive", ResilienceConfig::noisy(0xBAD5EED).with_votes(3).with_adaptive()),
            ] {
                let board_a = noisy_board(profile);
                let golden = board_a.extract_bitstream();
                let batch: Vec<Bitstream> = (0..12).map(|_| golden.clone()).collect();
                let mut a = ResilientOracle::new(&board_a, config);
                let batched = a.query_batch(&batch, 4);

                let board_b = noisy_board(profile);
                let mut b = ResilientOracle::new(&board_b, config);
                let serial: Vec<_> = batch.iter().map(|x| b.query(x, 4)).collect();

                assert_eq!(a.stats(), b.stats(), "{label}: oracle accounting");
                assert_eq!(a.clock().now_ms(), b.clock().now_ms(), "{label}: virtual clock");
                assert_eq!(a.snapshot(), b.snapshot(), "{label}: snapshot incl. policy");
                assert_eq!(
                    board_a.fault_stats(),
                    board_b.fault_stats(),
                    "{label}: board-side fault trace"
                );
                assert_eq!(batched.len(), serial.len());
                for (i, (x, y)) in batched.iter().zip(&serial).enumerate() {
                    match (x, y) {
                        (Ok(zx), Ok(zy)) => assert_eq!(zx, zy, "{label}: item {i}"),
                        (Err(ex), Err(ey)) => {
                            assert_eq!(format!("{ex:?}"), format!("{ey:?}"), "{label}: item {i}");
                        }
                        other => panic!("{label}: item {i} diverged: {other:?}"),
                    }
                }
            }
        }

        /// Adaptive policy end-to-end: a board stuck in its bad burst
        /// state makes the controller escalate, and the policy state
        /// is identical between a traced and an untraced run.
        #[test]
        fn adaptive_policy_escalates_under_burst_noise_identically_traced_or_not() {
            let profile = FaultProfile::clean(33).with_burst(1.0, 0.0, 0.10).with_timeout(0.05);
            let run = |traced: bool| {
                let board = noisy_board(profile);
                let golden = board.extract_bitstream();
                let mut r = ResilientOracle::new(
                    &board,
                    ResilienceConfig::noisy(5).with_votes(3).with_adaptive(),
                );
                if traced {
                    r.set_telemetry(Telemetry::new());
                }
                for _ in 0..40 {
                    let _ = r.query(&golden, 4);
                }
                (r.policy().clone(), r.stats())
            };
            let (policy_untraced, stats_untraced) = run(false);
            let (policy_traced, stats_traced) = run(true);
            assert!(!policy_untraced.events().is_empty(), "the storm escalates the policy");
            assert!(policy_untraced.level() > 0);
            assert_eq!(policy_untraced, policy_traced, "telemetry never perturbs the policy");
            assert_eq!(stats_untraced, stats_traced);
        }
    }
}
