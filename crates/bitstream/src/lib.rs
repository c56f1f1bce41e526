//! A Xilinx-7-series-style FPGA bitstream model.
//!
//! Implements everything the paper documents about the format under
//! attack (Section V):
//!
//! * configuration packets (Type 1 / Type 2), the `FDRI` register,
//!   frames of 101 32-bit words ([`packet`], [`frame`]), with one
//!   packet walker that every reader of a stream loops over and one
//!   stream writer behind every encoder ([`packet`]);
//! * the LUT-content permutation ξ of Table I ([`xi`]) and the
//!   partitioning of a 64-bit LUT INIT into `r = 4` 16-bit
//!   sub-vectors placed at a fixed byte offset `d` from each other,
//!   in SLICEL or SLICEM order ([`codec`]);
//! * the 32-bit configuration CRC: computation, verification,
//!   re-computation after modification, and the disable-by-zeroing
//!   trick of Section V-B ([`crc`], [`image`]);
//! * bitstream assembly and parsing ([`image`]), and partial
//!   (frame-delta) streams ([`partial`]);
//! * the Fig. 1 security container: AES-256-CBC encryption over an
//!   HMAC-SHA-256-authenticated payload with the authentication key
//!   stored *inside* the encrypted stream ([`secure`]).
//!
//! The cryptographic primitives in [`secure`] are implemented in-repo
//! (they are part of the modelled system, and an attack-tooling
//! repository benefits from an auditable supply chain).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod delta;
pub mod frame;
pub mod image;
pub mod packet;
pub mod partial;
pub mod secure;
pub mod xi;

pub use codec::{LutLocation, SubVectorOrder};
pub use delta::DeltaCrc;
pub use frame::{FrameData, FRAME_BYTES, FRAME_WORDS};
pub use image::{Bitstream, BitstreamBuilder, ConfigData, ParseBitstreamError};
pub use packet::{CommandCode, Packet, PacketEncodeError, RegisterAddress, SYNC_WORD};
pub use partial::{
    ParsePartialError, PartialBitstream, PartialConfig, PartialDelta, PartialForge, PartialRun,
};
pub use secure::patch::{PatchError, PatchOracle, PatchStats, BODY_OFFSET, MIDSTATE_STRIDE};
pub use secure::{CbcError, OpenSecureError, ScaOracle, SecureBitstream};
