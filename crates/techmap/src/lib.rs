//! FPGA technology mapping for k-LUT architectures.
//!
//! Implements the textbook flow sketched in Section II-B of the paper:
//! enumerate *k-feasible cuts* for every gate, then cover the network
//! backward from its outputs, reusing already-mapped nodes. The cover
//! of a node `v` with cut `C` becomes a LUT whose inputs are the
//! leaves in `C` and whose function is the cone between `C` and `v`.
//!
//! Two features matter for the attack reproduction:
//!
//! * **Pin scrambling** — LUT input pins are assigned in a
//!   deterministic but key-stream-like order (as real placers do),
//!   which is why the bitstream search must try all input
//!   permutations (`P_k` in Algorithm 1).
//! * **Countermeasure constraints** (Section VII-A) — nodes carrying
//!   the `keep` attribute are covered by *trivial cuts* (a LUT
//!   computing exactly that 2-input XOR) and are never absorbed into
//!   other LUTs. Packing then fractures pairs of small functions
//!   into dual-output LUT6s, producing the "2-input XOR in one half"
//!   population the paper's protected design exhibits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod timing;

mod cover;
mod cut;
mod pack;

pub use cover::{map, MapConfig, MapError, MapObjective};
pub use design::{BramCell, Cover, DffCell, MappedDesign, PackedLut};
pub use timing::{DelayModel, TimingReport};
