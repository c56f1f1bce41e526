//! Boolean functions of up to 6 variables, as used by LUT-based FPGAs.
//!
//! This crate is the substrate for the bitstream-modification attack
//! tooling: it provides compact truth tables ([`TruthTable`]), input
//! permutations ([`perm`]), P-equivalence classes ([`pclass`]), a small
//! expression builder ([`expr`]) used to write the paper's candidate
//! functions readably, and dual-output (O5/O6) LUT semantics ([`dual`])
//! matching the fracturable 6-input LUTs of Xilinx 7-series devices.
//!
//! # Conventions
//!
//! Variables are named `a1..a6` following the paper. A truth table of a
//! `k`-variable function is stored in the low `2^k` bits of a `u64`; the
//! bit at index `i` is the function value for the assignment in which
//! `a1` is bit 0 of `i`, `a2` is bit 1, ..., `a6` is bit 5. This matches
//! the row order of Table I in the paper (where `a1` toggles fastest).
//!
//! # Example
//!
//! ```
//! use boolfn::expr::var;
//!
//! // f2 from the paper: (a1 ^ a2 ^ a3) & a4 & a5 & !a6
//! let (a1, a2, a3, a4, a5, a6) = (var(1), var(2), var(3), var(4), var(5), var(6));
//! let f2 = (a1 ^ a2 ^ a3) & a4 & a5 & !a6;
//! let tt = f2.truth_table(6);
//! assert_eq!(tt.support().count_ones(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dual;
pub mod expr;
pub mod npn;
pub mod pclass;
pub mod perm;
pub mod truth;

pub use dual::DualOutputInit;
pub use expr::Expr;
pub use perm::Permutation;
pub use truth::{SwapNetwork, TruthTable};

/// Maximum number of LUT inputs supported by this crate (Xilinx 7-series
/// LUTs have six inputs).
pub const MAX_VARS: u8 = 6;
