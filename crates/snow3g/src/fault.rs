//! Fault-injection model for SNOW 3G.
//!
//! The DATE 2020 attack injects stuck-at-0 faults into the node `v`
//! that distributes the FSM output word `W`, by rewriting the LUTs
//! that absorb `v`:
//!
//! * on the LFSR-feedback path (the paper's `LUT₂`/`LUT₃`, fault `α₁`):
//!   the initialization update becomes purely linear;
//! * on the keystream path (`LUT₁`, fault `α₂` applied to all 32
//!   bits): the keystream becomes `z_t = s₀`;
//! * fault `α` is both at once — the configuration used for key
//!   extraction;
//! * fault `β` makes the LFSR load the all-0 vector instead of
//!   `γ(K, IV)` — the key-independent exploration device of
//!   Section VI-D.
//!
//! [`FaultySnow3g`] is the *software model* of a faulted device; the
//! `fpga-sim` crate produces the same behaviour from an actually
//! modified bitstream, and the integration tests assert both agree.

use core::fmt;

use crate::cipher::{gamma, Iv, Key};
use crate::fsm::Fsm;
use crate::lfsr::{Lfsr, LfsrState};
use crate::INIT_ROUNDS;

/// Which stuck-at-0 faults are injected into the device.
///
/// # Example
///
/// ```
/// use snow3g::FaultSpec;
///
/// let alpha = FaultSpec::alpha();
/// assert!(alpha.fsm_to_lfsr_zero && alpha.fsm_to_output_zero && !alpha.load_zero);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultSpec {
    /// `v = 0` on the feedback path: the LFSR consumes 0 instead of
    /// the FSM output during initialization (`LUT₂`/`LUT₃` rewritten).
    pub fsm_to_lfsr_zero: bool,
    /// `v = 0` on the keystream path: `z_t = s₀` (`LUT₁` rewritten for
    /// all 32 bits).
    pub fsm_to_output_zero: bool,
    /// The LFSR loads the all-0 vector instead of `γ(K, IV)`
    /// (load-MUX LUTs rewritten; the paper's fault `β`).
    pub load_zero: bool,
}

impl FaultSpec {
    /// No faults: the device behaves as specified.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// The paper's fault `α`: `v = 0` in both paths. Used for key
    /// extraction (Section VI-A): initialization becomes linear and
    /// the keystream exposes the LFSR state `S³³`.
    #[must_use]
    pub fn alpha() -> Self {
        Self { fsm_to_lfsr_zero: true, fsm_to_output_zero: true, load_zero: false }
    }

    /// The key-independent configuration of Section VI-D: `α₁ + β`.
    /// The LFSR stays all-0 forever, so the keystream equals the FSM
    /// output sequence — independent of `K` and `IV` (Table III).
    #[must_use]
    pub fn key_independent() -> Self {
        Self { fsm_to_lfsr_zero: true, fsm_to_output_zero: false, load_zero: true }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.fsm_to_lfsr_zero {
            parts.push("v=0@feedback");
        }
        if self.fsm_to_output_zero {
            parts.push("v=0@output");
        }
        if self.load_zero {
            parts.push("load=0");
        }
        if parts.is_empty() {
            write!(f, "no-fault")
        } else {
            write!(f, "{}", parts.join("+"))
        }
    }
}

/// A SNOW 3G device with stuck-at-0 faults injected, mirroring what a
/// modified bitstream produces in hardware.
///
/// # Example
///
/// ```
/// use snow3g::{FaultSpec, FaultySnow3g, Key, Iv};
///
/// // The key-independent keystream does not depend on K or IV.
/// let z1 = FaultySnow3g::new(Key([1, 2, 3, 4]), Iv([5, 6, 7, 8]), FaultSpec::key_independent())
///     .keystream(4);
/// let z2 = FaultySnow3g::new(Key([9, 9, 9, 9]), Iv([0, 0, 0, 0]), FaultSpec::key_independent())
///     .keystream(4);
/// assert_eq!(z1, z2);
/// ```
#[derive(Debug, Clone)]
pub struct FaultySnow3g {
    lfsr: Lfsr,
    fsm: Fsm,
    faults: FaultSpec,
}

impl FaultySnow3g {
    /// Creates and initializes a faulted device.
    #[must_use]
    pub fn new(key: Key, iv: Iv, faults: FaultSpec) -> Self {
        let loaded = if faults.load_zero { [0u32; 16] } else { gamma(key, iv) };
        let mut c = Self { lfsr: Lfsr::from_state(loaded), fsm: Fsm::new(), faults };
        for _ in 0..INIT_ROUNDS {
            let f = c.fsm.clock(c.lfsr.stage(15), c.lfsr.stage(5));
            let consumed = if faults.fsm_to_lfsr_zero { 0 } else { f };
            c.lfsr.clock_init(consumed);
        }
        let _ = c.fsm.clock(c.lfsr.stage(15), c.lfsr.stage(5));
        c.lfsr.clock_keystream();
        c
    }

    /// Produces the next keystream word under the configured faults.
    pub fn keystream_word(&mut self) -> u32 {
        let f = self.fsm.clock(self.lfsr.stage(15), self.lfsr.stage(5));
        let w = if self.faults.fsm_to_output_zero { 0 } else { f };
        let z = w ^ self.lfsr.stage(0);
        self.lfsr.clock_keystream();
        z
    }

    /// Produces `n` keystream words.
    pub fn keystream(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.keystream_word()).collect()
    }

    /// The active fault specification.
    #[must_use]
    pub fn faults(&self) -> FaultSpec {
        self.faults
    }

    /// The current LFSR state (for analysis and testing).
    #[must_use]
    pub fn lfsr_state(&self) -> LfsrState {
        self.lfsr.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cipher::Snow3g;

    const KEY: Key = Key([0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48]);
    const IV: Iv = Iv([0xEA024714, 0xAD5C4D84, 0xDF1F9B25, 0x1C0BF45F]);

    #[test]
    fn no_fault_matches_reference() {
        let a = FaultySnow3g::new(KEY, IV, FaultSpec::none()).keystream(8);
        let b = Snow3g::new(KEY, IV).keystream(8);
        assert_eq!(a, b);
    }

    #[test]
    fn alpha_exposes_lfsr_state() {
        // Under fault α, the 16 keystream words are exactly the LFSR
        // state S^33 (Section VI-A of the paper): z_{t+1} = s_t(S^33).
        let mut dev = FaultySnow3g::new(KEY, IV, FaultSpec::alpha());
        let state_after_init = dev.lfsr_state();
        let z = dev.keystream(16);
        assert_eq!(&z[..], &state_after_init[..]);
    }

    #[test]
    fn alpha_init_is_linear() {
        // With the feedback fault, S^33 = L^33(γ(K, IV)): reversing 33
        // linear steps recovers the loaded state.
        let dev = FaultySnow3g::new(KEY, IV, FaultSpec::alpha());
        let mut lfsr = Lfsr::from_state(dev.lfsr_state());
        lfsr.unclock_by(crate::REVERSAL_STEPS);
        assert_eq!(lfsr.state(), gamma(KEY, IV));
    }

    #[test]
    fn key_independent_keystream_ignores_key() {
        let z1 = FaultySnow3g::new(KEY, IV, FaultSpec::key_independent()).keystream(16);
        let z2 =
            FaultySnow3g::new(Key([0, 0, 0, 0]), Iv([0, 0, 0, 0]), FaultSpec::key_independent())
                .keystream(16);
        assert_eq!(z1, z2);
        // And it is NOT the all-zero stream: the FSM self-evolves.
        assert!(z1.iter().any(|&w| w != 0));
    }

    #[test]
    fn output_fault_alone_still_key_dependent() {
        let z1 =
            FaultySnow3g::new(KEY, IV, FaultSpec { fsm_to_output_zero: true, ..FaultSpec::none() })
                .keystream(4);
        let z2 = FaultySnow3g::new(
            Key([1, 1, 1, 1]),
            IV,
            FaultSpec { fsm_to_output_zero: true, ..FaultSpec::none() },
        )
        .keystream(4);
        assert_ne!(z1, z2);
    }

    #[test]
    fn display_names_faults() {
        assert_eq!(FaultSpec::none().to_string(), "no-fault");
        assert_eq!(FaultSpec::alpha().to_string(), "v=0@feedback+v=0@output");
        assert_eq!(FaultSpec::key_independent().to_string(), "v=0@feedback+load=0");
    }
}
