//! The attack-as-a-service fleet layer: session specs, a
//! work-stealing scheduler, and a line-protocol server/client pair.
//!
//! The paper's attack is cheap per query but campaign-shaped in
//! practice — 545 configuration loads per key, multiplied across
//! noise grids and (eventually) many targets — so the natural serving
//! shape is a long-running daemon that shards sessions across a pool
//! of simulated boards, not a one-shot CLI. This module provides that
//! daemon in layers:
//!
//! * [`session`] — the redesigned public facade: a validating
//!   [`SessionSpec`] builder and one engine
//!   ([`SessionSpec::run_against`](session::SessionSpec::run_against))
//!   every execution path shares;
//! * [`layout`] — the typed on-disk session directory (journal,
//!   trace, spec, result) with atomic creation;
//! * [`store`] — the in-memory session table:
//!   [`SessionHandle`]s to poll/await/cancel
//!   and tap live telemetry;
//! * [`scheduler`] — the work-stealing worker pool
//!   ([`Fleet`]): per-worker queues, steal-on-idle,
//!   kill-and-steal recovery over the crash-safe journals;
//! * [`health`] — board-health scoring from injected-fault telemetry,
//!   durable quarantine of dead boards, session migration to healthy
//!   peers and the boot re-probe;
//! * [`chaos`] — seeded wire-and-disk fault injection
//!   ([`ChaosStream`] transport wrapper, torn-write
//!   simulation) that the hardened client/server are tested under;
//! * [`wire`] — the framed line protocol (`submit`/`status`/`tail`/
//!   `cancel`/…) shared by server and client;
//! * [`server`] / [`client`] — `bitmod serve` and the thin
//!   `submit`/`status`/`tail` client over TCP or Unix sockets;
//! * [`sweep`] — the validating sweep-grid builder the noise-sweep
//!   binary and batch submissions share.

pub mod chaos;
pub mod client;
pub mod health;
pub mod layout;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod store;
pub mod sweep;
pub mod wire;

pub use chaos::{ChaosListener, ChaosProfile, ChaosStream, NetStream};
pub use client::{ClientConfig, ClientError, FleetClient};
pub use health::{BoardHealth, BoardScore, WorkerHealth};
pub use layout::{LayoutError, SessionLayout};
pub use scheduler::{Fleet, FleetConfig};
pub use server::{Endpoint, FleetServer};
pub use session::{
    CancelToken, CellStats, ConfigError, ResumePolicy, SessionError, SessionIo, SessionOutcome,
    SessionReport, SessionSpec, SessionSpecBuilder, SupervisedOracle,
};
pub use store::{SessionHandle, SessionState, SessionStatus};
pub use sweep::{SweepCell, SweepGrid, SweepGridBuilder};
pub use wire::{Request, WireError};
