//! `bitmod` — the bitstream modification attack on SNOW 3G
//! (Moraitis & Dubrova, DATE 2020), plus the proposed countermeasure
//! and its evaluation.
//!
//! The crate implements the paper's contribution end to end:
//!
//! * [`findlut`] — Algorithm 1: the parallel multi-candidate
//!   [`Scanner`] finds every `k`-input LUT implementing any function
//!   of a candidate *set* (and their whole P equivalence classes) in
//!   one pass over a bitstream, validated against a literal
//!   transcription of the paper's pseudo-code; plus the dual-output
//!   *half scan* used by Section VII-B;
//! * [`candidates`] — the candidate-function catalogue: the paper's
//!   Table II functions `f1..f21` and the cover shapes of this
//!   repository's implementation flow, each with its stuck-at-0 fault
//!   semantics (`α`, `α₁`, `α₂`, `β`);
//! * [`oracle`] — the victim-device interface (*load bitstream, read
//!   keystream*) the attack drives;
//! * [`resilient`] — the flaky-board survival layer: retry with
//!   seeded exponential backoff, per-bit majority voting, a physical
//!   query budget and a deterministic virtual clock between the
//!   attack and the oracle;
//! * [`journal`] — the crash-safe attack journal: a versioned,
//!   CRC-guarded snapshot of an in-flight attack, written atomically
//!   after every completed work item so a killed run resumes
//!   mid-phase with a bit-identical query trace;
//! * [`fleet`] — the attack-as-a-service layer: the validating
//!   [`SessionSpec`](fleet::SessionSpec) facade (the one way to run
//!   attacks since 0.7), a work-stealing worker pool sharding
//!   sessions across board-backed workers with kill-and-steal
//!   recovery over the crash-safe journals, and the `bitmod serve`
//!   line-protocol server plus `submit`/`status`/`tail` client;
//! * [`telemetry`] — the attack-phase telemetry engine: hierarchical
//!   spans over the attack phases, counters and histograms at the
//!   oracle chokepoints, an NDJSON event sink
//!   (`bitmod attack --trace`) and an associative [`Metrics`] rollup
//!   across sessions — provably inert: recording never perturbs the
//!   query trace;
//! * [`edit`] — bitstream patching under a matched input permutation,
//!   with CRC repair or disable;
//! * [`attack`] — the full key-recovery pipeline of Section VI:
//!   identify the keystream-path LUTs, hypothesise the feedback-path
//!   LUTs, enter the key-independent configuration (`α₁ + β`),
//!   disambiguate the XOR input pairs with two keystream
//!   computations, inject `α`, and reverse the LFSR to the key;
//! * [`countermeasure`] — Section VII: constrained-mapping
//!   evaluation, the XOR-half candidate scan, and the Lemma VII-A
//!   complexity bounds;
//! * [`bifi`] — the untargeted BiFI baseline (the paper's reference
//!   \[23\]), demonstrating that single-LUT faults do not break
//!   SNOW 3G and motivating the targeted attack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod bifi;
pub mod candidates;
pub mod cli;
pub mod countermeasure;
pub mod edit;
pub mod encrypted;
pub mod error;
pub mod findlut;
pub mod fleet;
pub mod journal;
pub mod oracle;
pub mod pr;
pub mod resilient;
pub mod telemetry;

pub use attack::{Attack, AttackCheckpoint, AttackError, AttackPhase, AttackReport};
pub use candidates::{Catalogue, Role, Shape};
pub use encrypted::{
    demo_sca, demo_seal, EncryptedOracle, DEMO_IV, DEMO_K_AUTH, DEMO_K_ENC, SCA_TRACES_REQUIRED,
};
pub use error::Error;
pub use findlut::{
    find_lut_reference, FindLutParams, LutHit, ScanConfigError, ScanHit, Scanner, ScannerBuilder,
};
pub use fleet::{
    ConfigError, Fleet, FleetClient, FleetConfig, FleetServer, SessionHandle, SessionIo,
    SessionOutcome, SessionReport, SessionSpec, SessionState,
};
pub use journal::{AttackJournal, JournalDoc, JournalError};
pub use oracle::{KeystreamOracle, OracleError};
pub use pr::PrOracle;
pub use resilient::{
    PolicyController, PolicyEvent, ResilienceConfig, ResilienceError, ResilientOracle,
    ResilientSnapshot, ResilientStats, RetryPolicy, VirtualClock,
};
pub use telemetry::{Histogram, Metrics, Span, Telemetry, TelemetryError};
