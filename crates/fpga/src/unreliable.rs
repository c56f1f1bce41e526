//! A flaky victim board: the [`Snow3gBoard`] behind an unreliable
//! configuration link.
//!
//! The paper's experiments ran against a real Artix-7 over a
//! configuration port. On real hardware, loads transiently fail
//! (`INIT_B` pulses low on a perfectly valid stream), the port can
//! stop responding, and keystream readback can glitch individual
//! bits or cut a transfer short. Real fault behaviour is also
//! *correlated*: glitches arrive in bursts (modelled here as a
//! Gilbert–Elliott two-state chain), boards degrade progressively as
//! they age (fault-rate drift over loads), readback bits get stuck,
//! and boards die outright. [`UnreliableBoard`] injects exactly those
//! fault classes behind the same *load bitstream / read keystream*
//! interface the ideal board exposes.
//!
//! Every fault decision is a **pure function of
//! `(profile.seed, load index)`**: each physical load draws from its
//! own counter-keyed RNG stream ([`rand::counter_rng`]), and the
//! burst chain's state at load `q` is computed by iterating a second
//! counter stream from load 0. Consequences:
//!
//! * a snapshot needs no RNG state — [`FaultSnapshot`] is just the
//!   profile plus the fault counters, and restoring the counters
//!   resumes the bit-identical fault trace;
//! * faults can be **planned ahead** without being committed
//!   ([`UnreliableBoard::plan_read`] /
//!   [`UnreliableBoard::commit_plans`]), which is what lets the
//!   resilience layer run batched noisy queries that are
//!   deterministically equal to the serial loop.

use std::sync::Mutex;

use rand::{counter_rng, Rng, RngCore};

use bitstream::Bitstream;

use crate::board::{BoardError, Load, Snow3gBoard};
use crate::fabric::{Fpga, ProgramError};

/// Counter-stream tags: each fault-model concern draws from its own
/// keyed stream so adding draws to one can never perturb another.
const STREAM_READ: u64 = 1;
const STREAM_BURST: u64 = 2;

/// The seeded fault model of an unreliable board. All probabilities
/// are per-event in `[0, 1]`. Every load's draws come from a counter
/// stream keyed by `(seed, load index)` in a fixed order (load
/// failure, timeout, truncation point, then one draw per keystream
/// bit), so the complete fault trace is a pure function of the seed —
/// independent of call interleaving, batching, or process restarts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// RNG seed; the whole fault trace is a function of it.
    pub seed: u64,
    /// Probability a load aborts with [`ProgramError::TransientLoad`].
    pub load_failure: f64,
    /// Probability a load aborts with [`ProgramError::ConfigTimeout`].
    pub timeout: f64,
    /// Per-bit probability that a keystream bit reads back flipped
    /// (the Gilbert–Elliott *good* state rate).
    pub bit_glitch: f64,
    /// Probability a keystream read returns fewer words than asked.
    pub truncate: f64,
    /// Gilbert–Elliott: per-load probability of entering the bursty
    /// *bad* state (0 disables the chain).
    pub burst_enter: f64,
    /// Gilbert–Elliott: per-load probability of leaving the bad state.
    pub burst_exit: f64,
    /// Per-bit glitch probability while the chain is in the bad state
    /// (replaces `bit_glitch` for those loads).
    pub burst_glitch: f64,
    /// Progressive degradation: every fault rate is multiplied by
    /// `1 + drift × load_index` (clamped to 1), modelling a board
    /// whose link degrades as it ages. 0 disables drift.
    pub drift: f64,
    /// Keystream bits stuck at 0 on every read (readback line faults).
    pub stuck_mask: u32,
    /// Number of loads *this physical board* performs before it dies
    /// permanently ([`ProgramError::BoardDead`] from then on). Wear is
    /// board-local: a board that inherits a journalled session via
    /// [`UnreliableBoard::restore`] counts its fuse from the restore
    /// point, not from the session's accumulated load position.
    /// Board-local pathology: excluded from
    /// [`FaultProfile::same_ambient`], so a session journalled on a
    /// dying board restores onto a healthy replacement.
    pub dies_at: Option<u64>,
}

impl FaultProfile {
    /// A fault-free profile (the wrapper becomes a transparent proxy).
    #[must_use]
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            load_failure: 0.0,
            timeout: 0.0,
            bit_glitch: 0.0,
            truncate: 0.0,
            burst_enter: 0.0,
            burst_exit: 0.0,
            burst_glitch: 0.0,
            drift: 0.0,
            stuck_mask: 0,
            dies_at: None,
        }
    }

    /// The "flaky lab board" preset the noise experiments use: 10%
    /// transient load failures, 2% timeouts, 1% keystream bit
    /// glitches, 2% truncated reads; no burst chain, drift or
    /// pathology.
    #[must_use]
    pub fn flaky(seed: u64) -> Self {
        Self {
            load_failure: 0.10,
            timeout: 0.02,
            bit_glitch: 0.01,
            truncate: 0.02,
            ..Self::clean(seed)
        }
    }

    /// The "bursty board" preset: the flaky rates plus a
    /// Gilbert–Elliott chain that enters a 12%-per-bit glitch storm
    /// with 5% probability per load and leaves it with 30%.
    #[must_use]
    pub fn bursty(seed: u64) -> Self {
        Self { burst_enter: 0.05, burst_exit: 0.30, burst_glitch: 0.12, ..Self::flaky(seed) }
    }

    /// Overrides the transient-load-failure probability.
    #[must_use]
    pub fn with_load_failure(mut self, p: f64) -> Self {
        self.load_failure = p;
        self
    }

    /// Overrides the timeout probability.
    #[must_use]
    pub fn with_timeout(mut self, p: f64) -> Self {
        self.timeout = p;
        self
    }

    /// Overrides the per-bit keystream glitch probability.
    #[must_use]
    pub fn with_bit_glitch(mut self, p: f64) -> Self {
        self.bit_glitch = p;
        self
    }

    /// Overrides the truncated-read probability.
    #[must_use]
    pub fn with_truncate(mut self, p: f64) -> Self {
        self.truncate = p;
        self
    }

    /// Configures the Gilbert–Elliott burst chain.
    #[must_use]
    pub fn with_burst(mut self, enter: f64, exit: f64, glitch: f64) -> Self {
        self.burst_enter = enter;
        self.burst_exit = exit;
        self.burst_glitch = glitch;
        self
    }

    /// Configures progressive fault-rate drift.
    #[must_use]
    pub fn with_drift(mut self, drift: f64) -> Self {
        self.drift = drift;
        self
    }

    /// Configures stuck-at-0 keystream bits.
    #[must_use]
    pub fn with_stuck_mask(mut self, mask: u32) -> Self {
        self.stuck_mask = mask;
        self
    }

    /// Configures permanent board death after `load` loads of local
    /// wear (loads this physical board performs — a restored session's
    /// inherited load position does not count against the fuse).
    #[must_use]
    pub fn with_dies_at(mut self, load: u64) -> Self {
        self.dies_at = Some(load);
        self
    }

    /// Whether two profiles drive the same *ambient* fault trace —
    /// every trace-determining field except board-local pathology
    /// (`dies_at`). A journal snapshot taken on a dying board restores
    /// onto any ambient-equal board: the counter-keyed draws replay
    /// identically, only the death point differs.
    #[must_use]
    pub fn same_ambient(&self, other: &Self) -> bool {
        let a = Self { dies_at: None, ..*self };
        let b = Self { dies_at: None, ..*other };
        a == b
    }
}

/// Counters of the faults actually injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Keystream requests received (including failed ones).
    pub loads_attempted: u64,
    /// Loads aborted with a transient failure.
    pub transient_failures: u64,
    /// Loads aborted with a simulated timeout.
    pub timeouts: u64,
    /// Keystream reads that returned fewer words than requested.
    pub truncated_reads: u64,
    /// Keystream bits flipped by glitch injection.
    pub bits_flipped: u64,
}

impl FaultStats {
    /// Total faults injected across all classes — the board-side
    /// number a telemetry trace sets against the retries the attack
    /// *observed* (glitched bits that majority voting silently
    /// outvotes never surface as retries).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.transient_failures + self.timeouts + self.truncated_reads + self.bits_flipped
    }
}

/// What the fault model decided for one (planned or executed)
/// physical read. Produced by [`UnreliableBoard::plan_read`]; a plan
/// is *pure* — nothing changes on the board until
/// [`UnreliableBoard::commit_plans`] applies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPlan {
    /// The load index this plan is for (`loads_attempted` at commit
    /// time; commits must arrive in index order).
    pub query: u64,
    /// The planned outcome.
    pub outcome: ReadOutcome,
}

/// The outcome a [`ReadPlan`] prescribes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The load aborts with [`ProgramError::TransientLoad`].
    TransientLoad,
    /// The load aborts with [`ProgramError::ConfigTimeout`].
    Timeout {
        /// Simulated milliseconds waited.
        ms: u64,
    },
    /// The board is permanently dead ([`ProgramError::BoardDead`]).
    Dead,
    /// The read succeeds: return `keep` words of the true keystream,
    /// XORed with the per-word glitch masks and ANDed with the
    /// inverted stuck mask.
    Read {
        /// Words actually returned (< requested when `truncated`).
        keep: usize,
        /// Whether this read was cut short by a truncation fault.
        truncated: bool,
        /// Per-word glitch XOR masks (`keep` entries).
        glitch: Vec<u32>,
    },
}

impl ReadPlan {
    /// Faults this plan injects, by class — the stats delta a commit
    /// applies.
    #[must_use]
    pub fn injected_bits(&self) -> u64 {
        match &self.outcome {
            ReadOutcome::Read { glitch, .. } => {
                glitch.iter().map(|m| u64::from(m.count_ones())).sum()
            }
            _ => 0,
        }
    }
}

/// A portable snapshot of an [`UnreliableBoard`]'s mutable state: the
/// fault profile it was configured with and the fault counters.
///
/// No RNG state: every draw is a pure function of
/// `(profile.seed, load index)`, so the counters alone pin the exact
/// resume point — a run killed after N loads and restored from a
/// snapshot injects exactly the faults loads N+1, N+2, ... of an
/// uninterrupted run would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSnapshot {
    /// The profile in force when the snapshot was taken.
    pub profile: FaultProfile,
    /// Fault counters at the snapshot point.
    pub stats: FaultStats,
}

impl FaultSnapshot {
    /// Serialized size of [`FaultSnapshot::to_bytes`].
    pub const BYTES: usize = 126;
    /// Format version (bumped when counter-keyed streams replaced the
    /// journalled RNG state).
    pub const VERSION: u8 = 2;

    /// Encodes the snapshot as a fixed-width little-endian record
    /// (the opaque oracle-state section of an attack journal).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::BYTES);
        out.push(Self::VERSION);
        out.extend_from_slice(&self.profile.seed.to_le_bytes());
        for p in [
            self.profile.load_failure,
            self.profile.timeout,
            self.profile.bit_glitch,
            self.profile.truncate,
            self.profile.burst_enter,
            self.profile.burst_exit,
            self.profile.burst_glitch,
            self.profile.drift,
        ] {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&self.profile.stuck_mask.to_le_bytes());
        out.push(u8::from(self.profile.dies_at.is_some()));
        out.extend_from_slice(&self.profile.dies_at.unwrap_or(0).to_le_bytes());
        for c in [
            self.stats.loads_attempted,
            self.stats.transient_failures,
            self.stats.timeouts,
            self.stats.truncated_reads,
            self.stats.bits_flipped,
        ] {
            out.extend_from_slice(&c.to_le_bytes());
        }
        debug_assert_eq!(out.len(), Self::BYTES);
        out
    }

    /// Decodes a [`FaultSnapshot::to_bytes`] record; `None` if the
    /// version or length is wrong or a probability field is not a
    /// valid probability (corruption that slipped past outer CRC
    /// guards).
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::BYTES || bytes[0] != Self::VERSION {
            return None;
        }
        let u64_at = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i..i + 8]);
            u64::from_le_bytes(b)
        };
        let prob_at = |i: usize| {
            let p = f64::from_bits(u64_at(i));
            ((0.0..=1.0).contains(&p)).then_some(p)
        };
        let drift = f64::from_bits(u64_at(65));
        if !drift.is_finite() || drift < 0.0 {
            return None;
        }
        let mut stuck = [0u8; 4];
        stuck.copy_from_slice(&bytes[73..77]);
        let dies_at = match bytes[77] {
            0 => None,
            1 => Some(u64_at(78)),
            _ => return None,
        };
        Some(Self {
            profile: FaultProfile {
                seed: u64_at(1),
                load_failure: prob_at(9)?,
                timeout: prob_at(17)?,
                bit_glitch: prob_at(25)?,
                truncate: prob_at(33)?,
                burst_enter: prob_at(41)?,
                burst_exit: prob_at(49)?,
                burst_glitch: prob_at(57)?,
                drift,
                stuck_mask: u32::from_le_bytes(stuck),
                dies_at,
            },
            stats: FaultStats {
                loads_attempted: u64_at(86),
                transient_failures: u64_at(94),
                timeouts: u64_at(102),
                truncated_reads: u64_at(110),
                bits_flipped: u64_at(118),
            },
        })
    }
}

/// An error restoring a [`FaultSnapshot`] onto a board.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The snapshot was taken under a different *ambient* fault
    /// profile; resuming would not reproduce the interrupted trace.
    /// (Board-local pathology — `dies_at` — may differ: that is
    /// exactly how a session migrates off a dead board.)
    ProfileMismatch {
        /// The profile the board is configured with.
        board: Box<FaultProfile>,
        /// The profile recorded in the snapshot.
        snapshot: Box<FaultProfile>,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::ProfileMismatch { board, snapshot } => write!(
                f,
                "fault-profile mismatch: board is configured with {board:?} \
                 but the snapshot was taken under {snapshot:?}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Burst-chain memo: the chain state after `loads` transitions.
/// Recomputable from scratch (the chain is a pure iterated function
/// of the seed), cached because loads are usually monotone.
#[derive(Debug, Clone, Copy)]
struct BurstMemo {
    loads: u64,
    bad: bool,
}

/// The [`Snow3gBoard`] behind an unreliable configuration link.
///
/// Exposes the board interface the attack drives (extract the golden
/// bitstream, load a bitstream and read keystream words) with faults
/// injected per the profile. Interior mutability keeps the interface
/// `&self` like the ideal board's; the only mutable state is the
/// fault counters (plus a recomputable burst-chain memo).
#[derive(Debug)]
pub struct UnreliableBoard {
    inner: Snow3gBoard,
    profile: FaultProfile,
    stats: Mutex<FaultStats>,
    burst: Mutex<BurstMemo>,
    /// The fault counters inherited from the last [`Self::restore`]:
    /// session history some *other* physical board already performed.
    /// Local wear — what drives the `dies_at` fuse and per-board
    /// health accounting — is `stats − inherited`.
    inherited: Mutex<FaultStats>,
}

impl UnreliableBoard {
    /// Wraps a board in the fault model.
    #[must_use]
    pub fn new(inner: Snow3gBoard, profile: FaultProfile) -> Self {
        Self {
            inner,
            profile,
            stats: Mutex::new(FaultStats::default()),
            burst: Mutex::new(BurstMemo { loads: 0, bad: false }),
            inherited: Mutex::new(FaultStats::default()),
        }
    }

    /// The ideal board underneath (ground truth for tests, and the
    /// clean substrate batched noisy queries read device data from).
    #[must_use]
    pub fn inner(&self) -> &Snow3gBoard {
        &self.inner
    }

    /// Unwraps the fault model, returning the ideal board. Board
    /// pools use this to reclaim a pooled board after a noisy
    /// session finishes with it.
    #[must_use]
    pub fn into_inner(self) -> Snow3gBoard {
        self.inner
    }

    /// The active fault profile.
    #[must_use]
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Faults injected so far.
    ///
    /// # Panics
    ///
    /// Panics if a previous caller panicked while holding the
    /// internal lock.
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        *self.stats.lock().expect("fault stats lock")
    }

    /// Fault accounting attributable to *this* physical board: the
    /// session counters minus whatever a [`Self::restore`] inherited
    /// from a predecessor. Fleet board-health scoring uses this view,
    /// so a healthy board that picks up a dying peer's session is not
    /// blamed for the faults the dead board injected.
    ///
    /// # Panics
    ///
    /// Panics if a previous caller panicked while holding the
    /// internal lock.
    #[must_use]
    pub fn local_stats(&self) -> FaultStats {
        let total = self.fault_stats();
        let base = *self.inherited.lock().expect("inherited stats lock");
        FaultStats {
            loads_attempted: total.loads_attempted.saturating_sub(base.loads_attempted),
            transient_failures: total.transient_failures.saturating_sub(base.transient_failures),
            timeouts: total.timeouts.saturating_sub(base.timeouts),
            truncated_reads: total.truncated_reads.saturating_sub(base.truncated_reads),
            bits_flipped: total.bits_flipped.saturating_sub(base.bits_flipped),
        }
    }

    /// The load index (session position) at which this board's wear
    /// started: 0 for a fresh board, the restore point after a
    /// [`Self::restore`].
    fn wear_base(&self) -> u64 {
        self.inherited.lock().expect("inherited stats lock").loads_attempted
    }

    /// Whether the board has reached (or passed) its death point: the
    /// next load — and every one after it — will be rejected with
    /// [`ProgramError::BoardDead`]. The fuse counts *local wear*
    /// (loads this instance performed), so a board resuming a
    /// journalled session is not killed by its predecessor's mileage.
    /// Fleet health checks use this to quarantine the board and
    /// migrate its session.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.profile.dies_at.is_some_and(|n| self.local_stats().loads_attempted >= n)
    }

    /// Snapshots the board's mutable state (profile and fault
    /// counters) for a crash-safe journal. No RNG state is needed:
    /// draws are counter-keyed by load index.
    #[must_use]
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot { profile: self.profile, stats: self.fault_stats() }
    }

    /// Restores a snapshot taken by [`UnreliableBoard::snapshot`],
    /// rewinding (or fast-forwarding) the fault trace to the exact
    /// point the snapshot captured.
    ///
    /// # Errors
    ///
    /// [`RestoreError::ProfileMismatch`] if the board's *ambient*
    /// profile differs from the snapshot's — the resumed trace would
    /// not reproduce the interrupted run. Board-local pathology
    /// (`dies_at`) may differ; that is how a journalled session
    /// migrates from a dying board to a healthy replacement.
    ///
    /// # Panics
    ///
    /// Panics if a previous caller panicked while holding the
    /// internal lock.
    pub fn restore(&self, snapshot: &FaultSnapshot) -> Result<(), RestoreError> {
        if !self.profile.same_ambient(&snapshot.profile) {
            return Err(RestoreError::ProfileMismatch {
                board: Box::new(self.profile),
                snapshot: Box::new(snapshot.profile),
            });
        }
        *self.stats.lock().expect("fault stats lock") = snapshot.stats;
        // The restored counters are session history, not this board's
        // wear: the `dies_at` fuse and `local_stats` count from here.
        *self.inherited.lock().expect("inherited stats lock") = snapshot.stats;
        Ok(())
    }

    /// Extracting the bitstream from external flash does not use the
    /// configuration port; it is reliable.
    #[must_use]
    pub fn extract_bitstream(&self) -> Bitstream {
        self.inner.extract_bitstream()
    }

    /// The device model (public knowledge, same as the ideal board).
    #[must_use]
    pub fn fpga(&self) -> &Fpga {
        self.inner.fpga()
    }

    /// The burst-chain state at load `q` (true = bad/bursty). A pure
    /// iterated function of the seed, memoised for monotone access.
    fn burst_bad_at(&self, q: u64) -> bool {
        if self.profile.burst_enter <= 0.0 {
            return false;
        }
        let mut memo = self.burst.lock().expect("burst memo lock");
        if memo.loads > q {
            *memo = BurstMemo { loads: 0, bad: false };
        }
        while memo.loads < q {
            let mut rng = counter_rng(self.profile.seed, STREAM_BURST, memo.loads);
            let p = if memo.bad { self.profile.burst_exit } else { self.profile.burst_enter };
            if bernoulli(&mut rng, p) {
                memo.bad = !memo.bad;
            }
            memo.loads += 1;
        }
        memo.bad
    }

    /// A fault rate after progressive drift at load `q`.
    fn rate_at(&self, base: f64, q: u64) -> f64 {
        if self.profile.drift <= 0.0 {
            return base;
        }
        #[allow(clippy::cast_precision_loss)]
        (base * (1.0 + self.profile.drift * q as f64)).clamp(0.0, 1.0)
    }

    /// Plans the fault decisions of the read at absolute load index
    /// `q` — pure: repeated calls return the same plan and nothing on
    /// the board changes.
    fn plan_at(&self, q: u64, words: usize) -> ReadPlan {
        // The death fuse measures local wear: loads this instance
        // performed, i.e. the session position minus the inherited
        // restore point.
        if self.profile.dies_at.is_some_and(|n| q.saturating_sub(self.wear_base()) >= n) {
            return ReadPlan { query: q, outcome: ReadOutcome::Dead };
        }
        // Fixed draw order within the read's own counter stream:
        // load glitch, timeout (+ duration), truncation (+ point),
        // then one draw per returned bit.
        let mut rng = counter_rng(self.profile.seed, STREAM_READ, q);
        if bernoulli(&mut rng, self.rate_at(self.profile.load_failure, q)) {
            return ReadPlan { query: q, outcome: ReadOutcome::TransientLoad };
        }
        if bernoulli(&mut rng, self.rate_at(self.profile.timeout, q)) {
            let ms = 100 + rng.gen_range(0u64..900);
            return ReadPlan { query: q, outcome: ReadOutcome::Timeout { ms } };
        }
        let truncated = words > 0 && bernoulli(&mut rng, self.rate_at(self.profile.truncate, q));
        let keep = if truncated { rng.gen_range(0..words) } else { words };
        let base =
            if self.burst_bad_at(q) { self.profile.burst_glitch } else { self.profile.bit_glitch };
        let p = self.rate_at(base, q);
        let glitch: Vec<u32> = (0..keep)
            .map(|_| {
                let mut mask = 0u32;
                if p > 0.0 {
                    for bit in 0..32 {
                        if bernoulli(&mut rng, p) {
                            mask |= 1 << bit;
                        }
                    }
                }
                mask
            })
            .collect();
        ReadPlan { query: q, outcome: ReadOutcome::Read { keep, truncated, glitch } }
    }

    /// Plans the read `ahead` loads past the current commit point
    /// without committing anything. `plan_read(0, w)` is the next
    /// physical read; `plan_read(1, w)` the one after it, and so on —
    /// the speculative lookahead batched noisy execution uses.
    ///
    /// # Panics
    ///
    /// Panics if a previous caller panicked while holding the
    /// internal lock.
    #[must_use]
    pub fn plan_read(&self, ahead: u64, words: usize) -> ReadPlan {
        let q = self.fault_stats().loads_attempted + ahead;
        self.plan_at(q, words)
    }

    /// Commits planned reads in load-index order, applying their
    /// stats deltas. Committing exactly the plans a serial run would
    /// have executed leaves the board in the bit-identical state.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if plans arrive out of order, and if a
    /// previous caller panicked while holding the internal lock.
    pub fn commit_plans(&self, plans: &[ReadPlan]) {
        let mut stats = self.stats.lock().expect("fault stats lock");
        for plan in plans {
            commit(&mut stats, plan);
        }
    }

    /// Plans the next read and commits it atomically under the stats
    /// lock.
    fn commit_next_plan(&self, words: usize) -> ReadPlan {
        let mut stats = self.stats.lock().expect("fault stats lock");
        let plan = self.plan_at(stats.loads_attempted, words);
        commit(&mut stats, &plan);
        plan
    }

    /// Loads through the flaky link and collects up to `words`
    /// keystream words, with faults injected: the load can
    /// transiently fail or time out (or be rejected outright once the
    /// board dies), the read can come back short, each returned bit
    /// can be flipped, and stuck bits always read 0. Either port is
    /// one physical load, so a partial load draws exactly the plan a
    /// full load at the same load index would — a run's fault trace
    /// does not depend on the load mode.
    ///
    /// # Errors
    ///
    /// [`ProgramError::TransientLoad`] / [`ProgramError::ConfigTimeout`]
    /// / [`ProgramError::BoardDead`] (wrapped in
    /// [`BoardError::Program`]) for injected faults, plus everything
    /// [`Snow3gBoard::load`] can return.
    ///
    /// # Panics
    ///
    /// Panics if a previous caller panicked while holding the
    /// internal lock.
    pub fn load(&self, load: Load<'_>, words: usize) -> Result<Vec<u32>, BoardError> {
        let plan = self.commit_next_plan(words);
        self.resolve(&plan, |keep| self.inner.load(&[load], keep).pop().expect("one lane"))
    }

    /// Turns a plan's outcome into the read it prescribes. An injected
    /// fault becomes its typed error and touches no device; a read
    /// asks `read` for the plan's `keep` words, truncates what comes
    /// back to `keep` and applies the glitch masks and stuck bits.
    /// [`Self::load`] reads the device here; batched planned execution
    /// passes the clean data it already read.
    ///
    /// # Errors
    ///
    /// The injected fault, or whatever `read` returns.
    pub fn resolve<E: From<BoardError>>(
        &self,
        plan: &ReadPlan,
        read: impl FnOnce(usize) -> Result<Vec<u32>, E>,
    ) -> Result<Vec<u32>, E> {
        let fault = match &plan.outcome {
            ReadOutcome::TransientLoad => ProgramError::TransientLoad,
            ReadOutcome::Timeout { ms } => ProgramError::ConfigTimeout { ms: *ms },
            ReadOutcome::Dead => ProgramError::BoardDead,
            ReadOutcome::Read { keep, glitch, .. } => {
                let mut z = read(*keep)?;
                z.truncate(*keep);
                for (w, mask) in z.iter_mut().zip(glitch) {
                    *w = (*w ^ mask) & !self.profile.stuck_mask;
                }
                return Ok(z);
            }
        };
        Err(BoardError::Program(fault).into())
    }
}

/// Applies one plan's stats delta.
fn commit(stats: &mut FaultStats, plan: &ReadPlan) {
    debug_assert_eq!(plan.query, stats.loads_attempted, "plans commit in load order");
    stats.loads_attempted += 1;
    match &plan.outcome {
        ReadOutcome::TransientLoad => stats.transient_failures += 1,
        ReadOutcome::Timeout { .. } => stats.timeouts += 1,
        ReadOutcome::Dead => {}
        ReadOutcome::Read { truncated, .. } => {
            stats.truncated_reads += u64::from(*truncated);
            stats.bits_flipped += plan.injected_bits();
        }
    }
}

/// One Bernoulli draw with probability `p` (53-bit uniform mantissa).
fn bernoulli(rng: &mut rand::rngs::SmallRng, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    ((rng.next_u64() >> 11) as f64) * SCALE < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::implementer::ImplementOptions;
    use netlist::snow3g_circuit::Snow3gCircuitConfig;
    use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

    fn board(profile: FaultProfile) -> UnreliableBoard {
        let config = Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV);
        let inner = Snow3gBoard::build(config, &ImplementOptions::default()).expect("board builds");
        UnreliableBoard::new(inner, profile)
    }

    #[test]
    fn clean_profile_is_transparent() {
        let b = board(FaultProfile::clean(1));
        let golden = b.extract_bitstream();
        let z = b.load(Load::Full(&golden), 4).expect("clean board runs");
        let reference = b
            .inner()
            .load(&[Load::Full(&golden)], 4)
            .pop()
            .expect("one lane")
            .expect("ideal board runs");
        assert_eq!(z, reference);
        assert_eq!(b.fault_stats().bits_flipped, 0);
        assert_eq!(b.fault_stats().transient_failures, 0);
    }

    #[test]
    fn same_seed_same_fault_trace() {
        let run = |seed: u64| -> (Vec<Result<Vec<u32>, String>>, FaultStats) {
            let b = board(FaultProfile::bursty(seed).with_drift(0.001));
            let golden = b.extract_bitstream();
            let outs = (0..12)
                .map(|_| b.load(Load::Full(&golden), 4).map_err(|e| e.to_string()))
                .collect();
            (outs, b.fault_stats())
        };
        let (a, sa) = run(7);
        let (b, sb) = run(7);
        let (c, sc) = run(8);
        assert_eq!(a, b, "identical seeds replay the identical trace");
        assert_eq!(sa, sb);
        assert!(a != c || sa != sc, "a different seed perturbs the trace");
    }

    #[test]
    fn faults_are_injected_at_the_configured_rates() {
        let b = board(FaultProfile::clean(42).with_load_failure(0.5));
        let golden = b.extract_bitstream();
        let failures = (0..40)
            .filter(|_| {
                matches!(
                    b.load(Load::Full(&golden), 1),
                    Err(BoardError::Program(ProgramError::TransientLoad))
                )
            })
            .count();
        assert!((10..=30).contains(&failures), "≈ 50% failures, got {failures}/40");
        let stats = b.fault_stats();
        assert_eq!(stats.transient_failures as usize, failures);
        assert_eq!(stats.loads_attempted, 40);
    }

    #[test]
    fn glitches_flip_bits_and_truncation_shortens_reads() {
        let b = board(FaultProfile::clean(3).with_bit_glitch(0.05).with_truncate(0.5));
        let golden = b.extract_bitstream();
        let mut short = 0usize;
        for _ in 0..10 {
            let z = b.load(Load::Full(&golden), 4).expect("no load faults configured");
            if z.len() < 4 {
                short += 1;
            }
        }
        let stats = b.fault_stats();
        assert_eq!(stats.truncated_reads as usize, short);
        assert!(short > 0, "truncation at 50% must occur in 10 reads");
        assert!(stats.bits_flipped > 0, "5% glitch rate must flip bits");
    }

    #[test]
    fn burst_chain_raises_the_glitch_rate_in_bad_state() {
        // A chain pinned in the bad state (enter 100%, never exits)
        // glitches at burst_glitch, not bit_glitch.
        let stormy = board(FaultProfile::clean(5).with_burst(1.0, 0.0, 0.5));
        let calm = board(FaultProfile::clean(5));
        let golden = stormy.extract_bitstream();
        for _ in 0..6 {
            let _ = stormy.load(Load::Full(&golden), 4);
            let _ = calm.load(Load::Full(&golden), 4);
        }
        assert!(stormy.fault_stats().bits_flipped > 50, "bad state glitches heavily");
        assert_eq!(calm.fault_stats().bits_flipped, 0, "good-state rate still applies");
        // The chain itself is deterministic in the seed.
        let again = board(FaultProfile::clean(5).with_burst(1.0, 0.0, 0.5));
        for _ in 0..6 {
            let _ = again.load(Load::Full(&golden), 4);
        }
        assert_eq!(again.fault_stats(), stormy.fault_stats());
    }

    #[test]
    fn drift_degrades_the_board_over_loads() {
        // 1% base load-failure rate drifting 10× per 100 loads: the
        // second hundred loads must fail noticeably more often than
        // the first.
        let b = board(FaultProfile::clean(11).with_load_failure(0.01).with_drift(0.1));
        let golden = b.extract_bitstream();
        let fails = |n: usize| (0..n).filter(|_| b.load(Load::Full(&golden), 1).is_err()).count();
        let early = fails(100);
        let late = fails(100);
        assert!(late > early, "drift must raise the failure rate ({early} → {late})");
    }

    #[test]
    fn stuck_bits_always_read_zero() {
        let mask = 0x8000_0001;
        let b = board(FaultProfile::clean(2).with_stuck_mask(mask));
        let golden = b.extract_bitstream();
        let z = b.load(Load::Full(&golden), 8).expect("clean otherwise");
        assert!(z.iter().all(|w| w & mask == 0), "stuck bits never read 1");
        let reference =
            b.inner().load(&[Load::Full(&golden)], 8).pop().expect("one lane").expect("ideal");
        assert!(reference.iter().any(|w| w & mask != 0), "the true keystream uses those bits");
    }

    #[test]
    fn a_dying_board_rejects_every_load_past_its_death_point() {
        let b = board(FaultProfile::clean(1).with_dies_at(3));
        let golden = b.extract_bitstream();
        assert!(!b.is_dead());
        for _ in 0..3 {
            b.load(Load::Full(&golden), 2).expect("alive before the death point");
        }
        assert!(b.is_dead(), "death point reached");
        for _ in 0..2 {
            let err = b.load(Load::Full(&golden), 2).expect_err("dead board rejects");
            assert!(matches!(err, BoardError::Program(ProgramError::BoardDead)));
        }
        assert!(!ProgramError::BoardDead.is_transient(), "death is not retryable");
        assert_eq!(b.fault_stats().loads_attempted, 5, "dead attempts are still counted");
    }

    #[test]
    fn plans_are_pure_and_commit_matches_serial_execution() {
        // Planning reads ahead, reading the clean device, resolving
        // each plan against that data and committing the plans leaves
        // the board in the identical state a serial run reaches, with
        // identical results — for every outcome kind, on both ports.
        const READS: u64 = 24;
        const WORDS: usize = 4;
        let profile = FaultProfile::clean(4)
            .with_load_failure(0.2)
            .with_timeout(0.2)
            .with_truncate(0.3)
            .with_bit_glitch(0.01)
            .with_burst(0.05, 0.30, 0.12)
            .with_stuck_mask(0x0000_8000)
            .with_dies_at(20);
        let planner = board(profile);
        let serial = board(profile);
        let golden = planner.extract_bitstream();
        let mut cand = golden.clone();
        let range = cand.fdri_data_range().expect("payload");
        cand.as_mut_bytes()[range.start + 512] ^= 0x40;
        cand.recompute_crc();
        let delta = bitstream::PartialForge::new(&golden)
            .expect("analyzes")
            .delta(&golden, &cand)
            .expect("expressible");
        // Even reads use the full port, odd reads the partial port.
        // Both boards start from a latched base outside the fault
        // model, so a faulted full load cannot leave either without
        // one.
        let lane = |i: u64| {
            if i.is_multiple_of(2) {
                Load::Full(&golden)
            } else {
                Load::Partial(&delta.stream)
            }
        };
        for b in [&planner, &serial] {
            b.inner().load(&[Load::Full(&golden)], 1).pop().expect("one lane").expect("base");
        }

        let plans: Vec<ReadPlan> = (0..READS).map(|i| planner.plan_read(i, WORDS)).collect();
        let replanned: Vec<ReadPlan> =
            (0..READS).rev().map(|i| planner.plan_read(i, WORDS)).collect();
        assert_eq!(
            plans,
            replanned.into_iter().rev().collect::<Vec<_>>(),
            "plans are pure: evaluation order does not matter"
        );
        assert_eq!(planner.fault_stats(), FaultStats::default(), "planning commits nothing");
        let burst_read = |bad: bool| {
            plans.iter().any(|p| {
                matches!(&p.outcome, ReadOutcome::Read { keep, .. } if *keep > 0)
                    && planner.burst_bad_at(p.query) == bad
            })
        };
        assert!(burst_read(true) && burst_read(false), "reads in both burst-chain states");
        let occurs = |kind: fn(&ReadOutcome) -> bool| plans.iter().any(|p| kind(&p.outcome));
        assert!(occurs(|o| matches!(o, ReadOutcome::TransientLoad)), "a transient load");
        assert!(occurs(|o| matches!(o, ReadOutcome::Timeout { .. })), "a timeout");
        assert!(occurs(|o| matches!(o, ReadOutcome::Dead)), "a dead board");
        assert!(occurs(|o| matches!(o, ReadOutcome::Read { truncated: true, .. })), "a short read");
        assert!(
            occurs(
                |o| matches!(o, ReadOutcome::Read { glitch, .. } if glitch.iter().any(|&m| m != 0))
            ),
            "a glitched read"
        );

        let serial_out: Vec<_> =
            (0..READS).map(|i| serial.load(lane(i), WORDS).map_err(|e| e.to_string())).collect();
        let planned_out: Vec<_> = plans
            .iter()
            .zip(0..READS)
            .map(|(plan, i)| {
                let clean = planner.inner().load(&[lane(i)], WORDS).pop().expect("one lane");
                planner.resolve(plan, |_| clean).map_err(|e| e.to_string())
            })
            .collect();
        planner.commit_plans(&plans);
        assert_eq!(planned_out, serial_out, "planned data path equals serial execution");
        assert_eq!(planner.fault_stats(), serial.fault_stats(), "committed stats line up");
        let reads: Vec<&Vec<u32>> = serial_out.iter().flatten().collect();
        assert!(reads.iter().any(|z| z.len() < WORDS), "a truncated read came back short");
        assert!(reads.iter().all(|z| z.iter().all(|w| w & 0x0000_8000 == 0)), "stuck bit reads 0");
    }

    #[test]
    fn snapshot_restore_resumes_the_exact_fault_trace() {
        // Reference: one uninterrupted run of 20 reads.
        let reference = board(FaultProfile::bursty(9));
        let golden = reference.extract_bitstream();
        let full: Vec<_> = (0..20)
            .map(|_| reference.load(Load::Full(&golden), 4).map_err(|e| e.to_string()))
            .collect();

        // Interrupted run: 8 reads, snapshot, "crash", restore onto a
        // fresh board, 12 more reads.
        let first = board(FaultProfile::bursty(9));
        for _ in 0..8 {
            let _ = first.load(Load::Full(&golden), 4);
        }
        let snap = first.snapshot();
        drop(first);
        let resumed = board(FaultProfile::bursty(9));
        resumed.restore(&snap).expect("matching profile restores");
        let tail: Vec<_> = (0..12)
            .map(|_| resumed.load(Load::Full(&golden), 4).map_err(|e| e.to_string()))
            .collect();
        assert_eq!(tail, full[8..], "restored board continues the identical trace");
        assert_eq!(resumed.fault_stats(), reference.fault_stats(), "counters line up too");
    }

    #[test]
    fn a_session_migrates_from_a_dying_board_to_a_healthy_one() {
        // The headline fleet property at board scale: a snapshot taken
        // on a board with local pathology (dies_at) restores onto an
        // ambient-equal healthy board and continues the ambient trace.
        let reference = board(FaultProfile::flaky(21));
        let golden = reference.extract_bitstream();
        let full: Vec<_> = (0..16)
            .map(|_| reference.load(Load::Full(&golden), 4).map_err(|e| e.to_string()))
            .collect();

        let dying = board(FaultProfile::flaky(21).with_dies_at(6));
        for _ in 0..6 {
            let _ = dying.load(Load::Full(&golden), 4);
        }
        assert!(dying.is_dead());
        let snap = dying.snapshot();
        let healthy = board(FaultProfile::flaky(21));
        healthy.restore(&snap).expect("ambient profiles match despite dies_at");
        // The healthy board replays the dead attempts' load indices
        // too (the resilient layer re-issues the failed query).
        let resumed_stats = healthy.fault_stats();
        assert_eq!(resumed_stats.loads_attempted, 6);
        let tail: Vec<_> = (0..10)
            .map(|_| healthy.load(Load::Full(&golden), 4).map_err(|e| e.to_string()))
            .collect();
        assert_eq!(tail, full[6..], "migrated session continues the ambient trace");
    }

    #[test]
    fn the_death_fuse_counts_local_wear_not_inherited_session_position() {
        // A fleet of boards that all share the same fuse must be able
        // to hand a session down the line: each successor inherits the
        // session's load position via restore() but starts its own
        // wear counter at zero, so the predecessor's mileage cannot
        // kill it on arrival.
        let golden;
        let snap = {
            let first = board(FaultProfile::flaky(21).with_dies_at(6));
            golden = first.extract_bitstream();
            for _ in 0..6 {
                let _ = first.load(Load::Full(&golden), 4);
            }
            assert!(first.is_dead());
            first.snapshot()
        };
        let successor = board(FaultProfile::flaky(21).with_dies_at(6));
        successor.restore(&snap).expect("ambient profiles match");
        assert!(!successor.is_dead(), "inherited mileage does not burn the successor's fuse");
        // Its local accounting starts at zero even though the session
        // position carries on from load 6.
        assert_eq!(successor.local_stats(), FaultStats::default());
        assert_eq!(successor.fault_stats().loads_attempted, 6);
        for i in 0..6 {
            let result = successor.load(Load::Full(&golden), 4);
            assert!(
                !matches!(&result, Err(BoardError::Program(ProgramError::BoardDead))),
                "local load {i} is within the fuse"
            );
        }
        assert!(successor.is_dead(), "six local loads burn the successor's own fuse");
        let err = successor.load(Load::Full(&golden), 4).expect_err("dead");
        assert!(matches!(err, BoardError::Program(ProgramError::BoardDead)));
        assert_eq!(successor.local_stats().loads_attempted, 7, "dead attempts count as wear");
        assert_eq!(successor.fault_stats().loads_attempted, 13, "session position kept going");
    }

    #[test]
    fn snapshot_bytes_roundtrip_and_reject_garbage() {
        let b = board(FaultProfile::bursty(3).with_bit_glitch(0.25).with_dies_at(1_000));
        let golden = b.extract_bitstream();
        let _ = b.load(Load::Full(&golden), 2);
        let snap = b.snapshot();
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), FaultSnapshot::BYTES);
        assert_eq!(FaultSnapshot::from_bytes(&bytes), Some(snap));
        assert_eq!(FaultSnapshot::from_bytes(&bytes[..40]), None, "short record rejected");
        let mut bad = bytes.clone();
        bad[16] = 0x7F; // load_failure's exponent explodes out of [0, 1]
        assert_eq!(FaultSnapshot::from_bytes(&bad), None, "invalid probability rejected");
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 1;
        assert_eq!(FaultSnapshot::from_bytes(&wrong_version), None, "old format rejected");
    }

    #[test]
    fn restore_refuses_a_mismatched_ambient_profile() {
        let a = board(FaultProfile::flaky(1));
        let b = board(FaultProfile::flaky(1).with_bit_glitch(0.5));
        let snap = a.snapshot();
        let err = b.restore(&snap).expect_err("ambient profile differs");
        assert!(err.to_string().contains("mismatch"));
        assert!(matches!(err, RestoreError::ProfileMismatch { .. }));
        // Pathology-only differences are explicitly tolerated.
        let c = board(FaultProfile::flaky(1).with_dies_at(5));
        c.restore(&snap).expect("dies_at alone is not a mismatch");
    }

    #[test]
    fn transient_errors_expose_their_nature() {
        assert!(ProgramError::TransientLoad.is_transient());
        assert!(ProgramError::ConfigTimeout { ms: 250 }.is_transient());
        assert!(!ProgramError::WrongFrameCount { got: 1, expected: 2 }.is_transient());
        assert!(!ProgramError::BoardDead.is_transient());
    }
}
