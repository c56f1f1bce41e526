//! Online fault-rate estimation and the adaptive resilience policy.
//!
//! The fixed `votes`/`retry` settings of a
//! [`ResilienceConfig`](super::ResilienceConfig) must be hand-picked per fault
//! rate (the noise-sweep tables in EXPERIMENTS.md exist to do exactly
//! that), and a fixed pick is wrong twice on a *drifting* or *bursty*
//! board: wasteful while the board is healthy, insufficient once it
//! degrades. This module closes the loop at the oracle chokepoint:
//!
//! * an **EWMA fault-rate estimator** over the per-query effort
//!   deltas the resilient layer already tracks — transient errors
//!   plus outvoted (mismatching) majority ballots, per physical
//!   attempt — in integer milli units so the estimate is exactly
//!   reproducible;
//! * a **hysteresis policy ladder**: the controller escalates to the
//!   next level when the smoothed fault rate crosses
//!   [`ESCALATE_MILLI`] and de-escalates below [`DEESCALATE_MILLI`],
//!   with a cooldown between transitions so one burst cannot make the
//!   policy oscillate. Each level adds two majority votes (keeping
//!   the count odd) and two retry attempts, and doubles the backoff
//!   base;
//! * typed [`PolicyEvent`]s: every transition is recorded (and
//!   journalled with the resilience snapshot), so a resumed run
//!   continues with the same policy and an identical event history,
//!   and telemetry can expose the policy's behaviour without
//!   participating in it.
//!
//! Determinism: the controller consumes only counters the resilient
//! layer derives from the (seeded) query trace, and its state rides
//! in [`ResilientSnapshot`](crate::resilient::ResilientSnapshot).
//! Traced and untraced runs, and killed-and-resumed runs, therefore
//! produce identical `PolicyEvent` sequences (pinned by
//! `tests/adaptive.rs`).

/// Highest policy level. Level L means `votes + 2L` majority votes
/// and `max_attempts + 2L` retry attempts per read, with the backoff
/// base doubled L times.
pub const MAX_LEVEL: u8 = 3;

/// Escalate when the smoothed fault rate exceeds this (milli units:
/// 180 = 0.18 faults per physical attempt).
pub const ESCALATE_MILLI: u32 = 180;

/// De-escalate when the smoothed fault rate falls below this.
pub const DEESCALATE_MILLI: u32 = 60;

/// Queries to wait after a transition before the next one (hysteresis
/// against oscillation on bursty boards).
pub const COOLDOWN_QUERIES: u32 = 8;

/// EWMA smoothing: `ewma += (sample - ewma) >> ALPHA_SHIFT`, i.e.
/// α = 1/8.
pub const ALPHA_SHIFT: u32 = 3;

/// One policy transition, in query-trace coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyEvent {
    /// Logical query index (0-based) whose completion triggered the
    /// transition.
    pub at_query: u64,
    /// Level before the transition.
    pub from_level: u8,
    /// Level after the transition.
    pub to_level: u8,
    /// The smoothed fault rate (milli units) at the transition.
    pub ewma_milli: u32,
}

impl PolicyEvent {
    /// Whether this transition raised the level.
    #[must_use]
    pub fn is_escalation(&self) -> bool {
        self.to_level > self.from_level
    }
}

/// The online policy controller: EWMA estimator plus hysteresis
/// ladder plus event history.
///
/// Fields are public so the crash-safe journal codec can persist and
/// restore the controller verbatim; mutate through
/// [`PolicyController::observe`] in normal operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyController {
    /// Smoothed fault rate in milli units (faults per physical
    /// attempt × 1000), clamped to `0..=1000`.
    pub ewma_milli: u32,
    /// Current policy level, `0..=MAX_LEVEL`.
    pub level: u8,
    /// Queries remaining before another transition is allowed.
    pub cooldown: u32,
    /// Every transition so far, in query order.
    pub events: Vec<PolicyEvent>,
}

impl PolicyController {
    /// A controller at level 0 with an empty history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current policy level.
    #[must_use]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The smoothed fault-rate estimate, in milli units.
    #[must_use]
    pub fn ewma_milli(&self) -> u32 {
        self.ewma_milli
    }

    /// Every transition so far, in query order.
    #[must_use]
    pub fn events(&self) -> &[PolicyEvent] {
        &self.events
    }

    /// Feeds one completed query's fault-rate sample (milli units;
    /// clamped to 1000) into the estimator and applies the hysteresis
    /// ladder. Returns the transition, if one fired.
    pub fn observe(&mut self, at_query: u64, sample_milli: u32) -> Option<PolicyEvent> {
        let sample = sample_milli.min(1000);
        let delta = i64::from(sample) - i64::from(self.ewma_milli);
        // Arithmetic shift: negative deltas round toward −∞, so the
        // estimate decays all the way to a clean board's 0.
        let next = i64::from(self.ewma_milli) + (delta >> ALPHA_SHIFT);
        self.ewma_milli = u32::try_from(next.clamp(0, 1000)).expect("clamped");
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        let to_level = if self.ewma_milli >= ESCALATE_MILLI && self.level < MAX_LEVEL {
            self.level + 1
        } else if self.ewma_milli <= DEESCALATE_MILLI && self.level > 0 {
            self.level - 1
        } else {
            return None;
        };
        let event =
            PolicyEvent { at_query, from_level: self.level, to_level, ewma_milli: self.ewma_milli };
        self.level = to_level;
        self.cooldown = COOLDOWN_QUERIES;
        self.events.push(event);
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quiet_board_never_transitions() {
        let mut c = PolicyController::new();
        for q in 0..100 {
            assert_eq!(c.observe(q, 0), None);
        }
        assert_eq!(c.level(), 0);
        assert!(c.events().is_empty());
    }

    #[test]
    fn sustained_faults_escalate_with_hysteresis() {
        let mut c = PolicyController::new();
        let mut transitions = Vec::new();
        for q in 0..200 {
            if let Some(e) = c.observe(q, 1000) {
                transitions.push(e);
            }
        }
        assert_eq!(c.level(), MAX_LEVEL, "saturates at the top level");
        assert_eq!(transitions.len(), usize::from(MAX_LEVEL), "one step per rung");
        assert!(transitions.iter().all(PolicyEvent::is_escalation));
        // Cooldown spaces the transitions out.
        for pair in transitions.windows(2) {
            assert!(pair[1].at_query - pair[0].at_query > u64::from(COOLDOWN_QUERIES));
        }
        assert_eq!(c.events(), transitions.as_slice());
    }

    #[test]
    fn recovery_de_escalates_back_to_zero() {
        let mut c = PolicyController::new();
        for q in 0..60 {
            c.observe(q, 1000);
        }
        let top = c.level();
        assert!(top > 0);
        for q in 60..400 {
            c.observe(q, 0);
        }
        assert_eq!(c.level(), 0, "a recovered board sheds the extra effort");
        assert_eq!(c.ewma_milli(), 0, "the estimate decays fully");
        let escalations = c.events().iter().filter(|e| e.is_escalation()).count();
        let de_escalations = c.events().iter().filter(|e| !e.is_escalation()).count();
        assert_eq!(escalations, usize::from(top));
        assert_eq!(de_escalations, usize::from(top));
    }

    #[test]
    fn the_band_between_thresholds_is_stable() {
        // A rate between the two thresholds must neither escalate nor
        // de-escalate — that band is the hysteresis.
        let mid = (ESCALATE_MILLI + DEESCALATE_MILLI) / 2;
        let mut c = PolicyController::new();
        for q in 0..300 {
            c.observe(q, mid);
        }
        assert_eq!(c.level(), 0, "never escalates from below the high threshold");
        for q in 0..60 {
            c.observe(300 + q, 1000);
        }
        let level = c.level();
        assert!(level > 0);
        let events_before = c.events().len();
        for q in 0..300 {
            c.observe(400 + q, mid);
        }
        assert_eq!(c.level(), level, "never de-escalates from above the low threshold");
        assert_eq!(c.events().len(), events_before);
    }

    #[test]
    fn controller_state_is_a_pure_function_of_the_sample_stream() {
        let feed = |samples: &[u32]| {
            let mut c = PolicyController::new();
            for (q, &s) in samples.iter().enumerate() {
                c.observe(q as u64, s);
            }
            c
        };
        let samples: Vec<u32> = (0..120).map(|i| if i % 7 < 3 { 900 } else { 40 }).collect();
        assert_eq!(feed(&samples), feed(&samples), "identical streams, identical state");
    }
}
