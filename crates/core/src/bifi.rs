//! An untargeted bitstream-fault-injection baseline, after
//! Swierczynski et al.'s *BiFI* (reference \[23\] of the paper:
//! "Bitstream Fault Injections (BiFI) — Automated Fault Attacks
//! against SRAM-based FPGAs").
//!
//! BiFI needs no reverse engineering: it blindly mutates one LUT at a
//! time (constant-0, constant-1, or inverted truth table), reloads,
//! and checks whether the faulted output leaks the key. It works on
//! ciphers where a *single* LUT fault collapses the algorithm (e.g.
//! zeroing an AES S-box byte). The paper's point — demonstrated
//! quantitatively by this module — is that SNOW 3G does *not* fall to
//! single-LUT faults: linearising the cipher needs a *coordinated*
//! 64-LUT modification (32 keystream-path + 32 feedback-path), which
//! requires the targeted search-and-verify machinery of [`crate::attack`].

use core::fmt;

use boolfn::DualOutputInit;

use bitstream::Bitstream;
use snow3g::recover::recover_key;
use snow3g::Key;

use crate::edit::{CrcStrategy, GoldenForge};
use crate::findlut::LutHit;
use crate::oracle::{KeystreamOracle, OracleError};

/// A single-LUT mutation rule.
///
/// # Example
///
/// ```
/// use bitmod::bifi::MutationRule;
/// use boolfn::DualOutputInit;
///
/// let init = DualOutputInit::new(0xFF00);
/// assert_eq!(MutationRule::Invert.apply(init).init(), !0xFF00u64);
/// assert_eq!(MutationRule::Const0.apply(init).init(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationRule {
    /// Replace the LUT content with all zeros.
    Const0,
    /// Replace the LUT content with all ones.
    Const1,
    /// Invert every truth-table bit.
    Invert,
}

impl MutationRule {
    /// All rules, in the order BiFI applies them.
    #[must_use]
    pub fn all() -> [MutationRule; 3] {
        [MutationRule::Const0, MutationRule::Const1, MutationRule::Invert]
    }

    /// Applies the rule to an INIT value.
    #[must_use]
    pub fn apply(self, init: DualOutputInit) -> DualOutputInit {
        match self {
            MutationRule::Const0 => DualOutputInit::new(0),
            MutationRule::Const1 => DualOutputInit::new(u64::MAX),
            MutationRule::Invert => DualOutputInit::new(!init.init()),
        }
    }
}

impl fmt::Display for MutationRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationRule::Const0 => write!(f, "const-0"),
            MutationRule::Const1 => write!(f, "const-1"),
            MutationRule::Invert => write!(f, "invert"),
        }
    }
}

/// Configuration of a BiFI campaign.
#[derive(Debug, Clone)]
pub struct BifiConfig {
    /// Keystream words observed per trial.
    pub words: usize,
    /// Cap on the number of (position, rule) trials; `None` runs the
    /// full campaign.
    pub max_trials: Option<usize>,
    /// Mutation rules to apply.
    pub rules: Vec<MutationRule>,
}

impl Default for BifiConfig {
    fn default() -> Self {
        Self { words: 16, max_trials: None, rules: MutationRule::all().to_vec() }
    }
}

/// The outcome of a BiFI campaign.
#[derive(Debug, Clone, Default)]
pub struct BifiReport {
    /// Total (position, rule) mutations tried.
    pub trials: usize,
    /// Mutations whose keystream differed from the golden one.
    pub keystream_changed: usize,
    /// Mutations with no observable effect (dead or don't-care bits).
    pub keystream_unchanged: usize,
    /// Mutations the device refused (should be zero: the CRC is
    /// repaired per trial).
    pub rejected: usize,
    /// Keys recovered by interpreting a faulty keystream as an
    /// exposed LFSR state. For SNOW 3G this stays empty: no single
    /// LUT fault linearises the cipher.
    pub recovered_keys: Vec<(usize, MutationRule, Key)>,
}

/// Enumerates the non-empty LUT slots of the payload: 2-byte-aligned
/// positions whose decoded INIT is non-zero under some sub-vector
/// order. (BiFI tooling knows LUT slot granularity but nothing about
/// the design.)
#[must_use]
pub fn candidate_positions(payload: &[u8], d: usize) -> Vec<LutHit> {
    let mut out = Vec::new();
    if payload.len() < 3 * d + 2 {
        return out;
    }
    let last = payload.len() - (3 * d + 2);
    for l in (0..=last).step_by(2) {
        for order in bitstream::SubVectorOrder::both() {
            let mut stored = [0u16; 4];
            for (j, sv) in stored.iter_mut().enumerate() {
                let at = l + j * d;
                *sv = u16::from_le_bytes([payload[at], payload[at + 1]]);
            }
            let init = bitstream::codec::decode(stored, order);
            if init.init() != 0 {
                out.push(LutHit { l, order, perm: boolfn::Permutation::identity(6), init });
                break;
            }
        }
    }
    out
}

/// Runs a BiFI campaign against a device.
///
/// # Errors
///
/// Propagates oracle errors other than configuration rejections
/// (rejections are counted in the report).
pub fn run(
    oracle: &dyn KeystreamOracle,
    golden: &Bitstream,
    config: &BifiConfig,
) -> Result<BifiReport, OracleError> {
    let range =
        golden.fdri_data_range().ok_or_else(|| OracleError::Rejected("no FDRI payload".into()))?;
    let payload = &golden.as_bytes()[range];
    let d = bitstream::FRAME_BYTES;
    let golden_keystream = oracle.keystream(golden, config.words)?;
    let forge = GoldenForge::new(golden, d);

    let mut report = BifiReport::default();
    'campaign: for hit in candidate_positions(payload, d) {
        for &rule in &config.rules {
            if let Some(max) = config.max_trials {
                if report.trials >= max {
                    break 'campaign;
                }
            }
            report.trials += 1;
            let mut session = forge.session();
            session.write_init(&hit, rule.apply(hit.init));
            let bs = session.finish(CrcStrategy::Recompute);
            let z = match oracle.keystream(&bs, config.words) {
                Ok(z) => z,
                Err(OracleError::Rejected(_)) => {
                    report.rejected += 1;
                    continue;
                }
                // The untargeted campaign has no resilience layer;
                // a transiently failed trial is simply abandoned.
                Err(e) if e.is_transient() => {
                    report.rejected += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            if z == golden_keystream {
                report.keystream_unchanged += 1;
                continue;
            }
            report.keystream_changed += 1;
            // The BiFI success criterion for a stream cipher: does
            // the faulty keystream expose a recoverable LFSR state?
            if let Ok(secret) = recover_key(&z) {
                report.recovered_keys.push((hit.l, rule, secret.key));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstream::{codec, BitstreamBuilder, FrameData, LutLocation, SubVectorOrder};

    #[test]
    fn rules_apply() {
        let init = DualOutputInit::new(0x1234_5678_9ABC_DEF0);
        assert_eq!(MutationRule::Const0.apply(init).init(), 0);
        assert_eq!(MutationRule::Const1.apply(init).init(), u64::MAX);
        assert_eq!(MutationRule::Invert.apply(init).init(), !0x1234_5678_9ABC_DEF0);
    }

    #[test]
    fn candidate_positions_find_planted_luts() {
        let mut frames = FrameData::new(6);
        let loc = LutLocation { l: 40, d: bitstream::FRAME_BYTES, order: SubVectorOrder::SliceL };
        codec::write_lut(frames.as_mut_bytes(), loc, DualOutputInit::new(0xDEAD));
        let bs = BitstreamBuilder::new(frames).build();
        let range = bs.fdri_data_range().unwrap();
        let positions = candidate_positions(&bs.as_bytes()[range], bitstream::FRAME_BYTES);
        assert!(positions.iter().any(|h| h.l == 40));
        // Odd positions are never proposed.
        assert!(positions.iter().all(|h| h.l % 2 == 0));
    }

    #[test]
    fn empty_payload_yields_no_candidates() {
        let positions =
            candidate_positions(&[0u8; 4 * bitstream::FRAME_BYTES], bitstream::FRAME_BYTES);
        assert!(positions.is_empty());
    }
}
