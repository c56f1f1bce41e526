//! A cycle-accurate model of an SRAM-based FPGA ("SimArtix") that is
//! configured from a bitstream.
//!
//! This crate is the substitute for the Xilinx Artix-7 board used in
//! the paper's experiments. It separates, exactly along the attack
//! boundary, the two artifacts a bitstream-modification adversary
//! interacts with:
//!
//! * the **device** ([`Fpga`]): a fixed site grid (slices of four
//!   dual-output LUTs, SLICEL/SLICEM columns), flip-flops, block RAMs
//!   and a static routing database produced by the implementation
//!   flow. Routing is *not* re-derived from the bitstream — the
//!   attack only rewrites LUT truth tables, so modelling the routing
//!   bits as opaque filler preserves the attack surface (see
//!   DESIGN.md);
//! * the **bitstream** (from the [`bitstream`] crate): the only thing
//!   the attacker touches. LUT INIT values are read from the frames
//!   at configuration time; the CRC is enforced; modified LUT content
//!   changes device behaviour exactly as in hardware.
//!
//! [`Snow3gBoard`] wires a generated SNOW 3G circuit through
//! technology mapping, placement and bitstream emission, and exposes
//! the victim-device interface: *load a bitstream, read keystream
//! words*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board;
pub mod fabric;
pub mod gang;
pub mod geom;
pub mod implementer;
pub mod sealed;
pub mod unreliable;

pub use board::{BoardError, Load, Snow3gBoard};
pub use fabric::{Fpga, PartialApplyError, ProgramError};
pub use gang::{GangConfiguredFpga, GANG_LANES};
pub use geom::{Geometry, InitLayout, SiteId};
pub use implementer::{implement, ImplementError, ImplementOptions, Implementation};
pub use sealed::{SealedBoard, SealedLoadError};
pub use unreliable::{
    FaultProfile, FaultSnapshot, FaultStats, ReadOutcome, ReadPlan, RestoreError, UnreliableBoard,
};
