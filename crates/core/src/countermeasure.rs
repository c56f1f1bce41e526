//! Section VII: the countermeasure and its evaluation.
//!
//! The countermeasure constrains technology mapping so that the
//! target XOR vector `v` — and `r` additional decoy XORs with the
//! same function — are covered by *trivial cuts* (bare 2-input XOR
//! LUTs, typically fractured in pairs). The composite covers of
//! Table II disappear (Table VI), and an attacker is left to pick the
//! right 32 LUTs out of hundreds of identical-looking 2-input XOR
//! halves: an exhaustive search of `C(m + r, m)` combinations
//! (Lemma VII-A).

use boolfn::TruthTable;

use bitstream::Bitstream;

use crate::attack::{AttackError, ZPathLut};
use crate::candidates::Catalogue;
use crate::edit::{CrcStrategy, GoldenForge};
use crate::findlut::{LutHit, ScanConfigError, Scanner};
use crate::oracle::KeystreamOracle;
use crate::resilient::{ResilienceConfig, ResilientOracle};

/// Lemma VII-A arithmetic.
pub mod complexity {
    /// Natural-log of the binomial coefficient `C(n, m)` (exact
    /// summation; `n` up to a few thousand).
    #[must_use]
    pub fn ln_binomial(n: u64, m: u64) -> f64 {
        if m > n {
            return f64::NEG_INFINITY;
        }
        let m = m.min(n - m);
        let mut ln = 0.0f64;
        for i in 0..m {
            ln += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
        }
        ln
    }

    /// `log2(C(n, m))` — the bit-security of the exhaustive search.
    ///
    /// # Example
    ///
    /// ```
    /// use bitmod::countermeasure::complexity::log2_binomial;
    ///
    /// // The paper's Section VII-C figure: C(171, 32) ≈ 2^115.
    /// assert!((log2_binomial(171, 32) - 115.2).abs() < 0.1);
    /// ```
    #[must_use]
    pub fn log2_binomial(n: u64, m: u64) -> f64 {
        ln_binomial(n, m) / core::f64::consts::LN_2
    }

    /// The Stirling upper bound of Lemma VII-A:
    /// `C(m + r, m) ≤ (e(m + r)/m)^m`, returned as `log2`.
    #[must_use]
    pub fn log2_stirling_bound(m: u64, r: u64) -> f64 {
        let e = core::f64::consts::E;
        (m as f64) * (e * ((m + r) as f64) / (m as f64)).log2()
    }

    /// The minimal decoy multiple `x` (with `r = 32x`, `m = 32`) that
    /// pushes the bound `(e(1 + x))³²` past `2^bits`; the paper's
    /// `x ≥ 16/e − 1 ≈ 4.9` for 128-bit security.
    #[must_use]
    pub fn required_decoy_multiple(bits: f64) -> f64 {
        let e = core::f64::consts::E;
        2f64.powf(bits / 32.0) / e - 1.0
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn paper_figures() {
            // C(171, 32) ≈ 4.9 × 10^34 ≈ 2^115 (Section VII-C).
            let l2 = log2_binomial(171, 32);
            assert!((l2 - 115.0).abs() < 1.0, "log2 C(171,32) = {l2}");
            let log10 = ln_binomial(171, 32) / core::f64::consts::LN_10;
            assert!((log10 - 34.7).abs() < 0.3, "log10 C(171,32) = {log10}");
            // x ≥ 16/e − 1 ≈ 4.9 for 128 bits.
            let x = required_decoy_multiple(128.0);
            assert!((x - (16.0 / core::f64::consts::E - 1.0)).abs() < 1e-9);
            assert!((x - 4.886).abs() < 0.01, "x = {x}");
        }

        #[test]
        fn bound_dominates_binomial() {
            for (m, r) in [(32u64, 32u64), (32, 160), (16, 64)] {
                assert!(
                    log2_stirling_bound(m, r) >= log2_binomial(m + r, m),
                    "bound must be an upper bound for m={m} r={r}"
                );
            }
        }

        #[test]
        fn edge_cases() {
            assert_eq!(log2_binomial(10, 0), 0.0);
            assert_eq!(log2_binomial(10, 10), 0.0);
            assert!(ln_binomial(5, 6).is_infinite());
        }
    }
}

/// The result of evaluating a (protected) bitstream.
#[derive(Debug, Clone)]
pub struct CountermeasureReport {
    /// Candidate counts per catalogue shape — the Table VI analog.
    pub candidate_counts: Vec<(&'static str, usize)>,
    /// Hits of the Section VII-B scan ("2-input XOR in one half, any
    /// function in the other") over the whole payload.
    pub xor_half_hits_unconstrained: usize,
    /// The same scan restricted to a window around the LUT frames
    /// (the paper's "interval of 200,000 byte positions").
    pub xor_half_hits_constrained: usize,
    /// XOR-half LUTs verified to sit on the keystream path (prunable,
    /// per Section VII-C).
    pub z_path_pruned: usize,
    /// Remaining candidates after pruning.
    pub remaining: usize,
    /// `log2 C(remaining, 32)` — the exhaustive-search cost.
    pub search_bits: f64,
    /// Device configurations performed during evaluation.
    pub oracle_loads: usize,
}

/// The Section VII-B predicate: one half is exactly a 2-input XOR of
/// two of the five shared pins (the other half is then "any Boolean
/// function of up to 5 dependent variables").
#[must_use]
pub fn xor_half_predicate(o5: TruthTable, o6: TruthTable) -> bool {
    o5.as_xor_pair().is_some() || o6.as_xor_pair().is_some()
}

/// Counts the XOR-half LUT candidates in `payload` (optionally over a
/// byte window), scanning in parallel.
///
/// # Errors
///
/// [`ScanConfigError::ZeroStride`] if the sub-vector stride `d` is 0.
pub fn xor_half_scan(
    payload: &[u8],
    d: usize,
    window: core::ops::Range<usize>,
) -> Result<Vec<LutHit>, ScanConfigError> {
    let scanner = Scanner::builder().stride(d).build()?;
    Ok(scanner.scan_halves(payload, window, xor_half_predicate))
}

/// Evaluates the countermeasure against a protected device, following
/// the attack strategy of Section VII-B/C:
///
/// 1. run the Table II candidate sweep (Table VI analog);
/// 2. scan for XOR-half LUTs, unconstrained and window-constrained;
/// 3. prune the keystream-path XORs with the stuck-bit verification
///    of Section VI-C (these LUTs *can* be identified);
/// 4. report the remaining candidate set and the exhaustive-search
///    complexity `log2 C(remaining, 32)`.
///
/// # Errors
///
/// Propagates oracle failures.
pub fn evaluate(
    oracle: &dyn KeystreamOracle,
    golden: &Bitstream,
    constrained_window: Option<core::ops::Range<usize>>,
) -> Result<CountermeasureReport, AttackError> {
    evaluate_with(oracle, golden, constrained_window, ResilienceConfig::off())
}

/// [`evaluate`] with a resilience layer between the verification
/// passes and the oracle, for unreliable boards (see
/// [`crate::resilient`]). The stuck-bit pruning of step 3 performs
/// hundreds of loads; on a flaky board each is retried and
/// majority-voted per the configuration.
///
/// # Errors
///
/// Propagates oracle and resilience failures (budget exhaustion
/// surfaces as [`AttackError::Resilience`]).
pub fn evaluate_with(
    oracle: &dyn KeystreamOracle,
    golden: &Bitstream,
    constrained_window: Option<core::ops::Range<usize>>,
    config: ResilienceConfig,
) -> Result<CountermeasureReport, AttackError> {
    let range = golden.fdri_data_range().ok_or(AttackError::NoFdriPayload)?;
    let payload = golden.as_bytes()[range].to_vec();
    let d = bitstream::FRAME_BYTES;
    let words = 16usize;
    let mut oracle = ResilientOracle::new(oracle, config);

    let golden_keystream = oracle.query(golden, words).map_err(AttackError::from)?;

    // Table VI analog — one pass over the payload for the whole
    // catalogue.
    let catalogue = Catalogue::full();
    let scanner = Scanner::builder().k(6).stride(d).catalogue(&catalogue).build()?;
    let candidate_counts: Vec<(&'static str, usize)> = catalogue
        .shapes
        .iter()
        .zip(scanner.scan_grouped(&payload))
        .map(|(shape, hits)| (shape.name, hits.len()))
        .collect();

    // XOR-half scans (parallel; the predicate is stateless).
    let unconstrained = scanner.scan_halves(&payload, 0..payload.len(), xor_half_predicate);
    let window = constrained_window.unwrap_or(0..payload.len());
    let constrained = scanner.scan_halves(&payload, window, xor_half_predicate);

    // Prune the z-path XORs: replace each candidate's XOR half with
    // constant 0 and look for the stuck-bit signature.
    let forge = GoldenForge::new(golden, d);
    let mut z_path: Vec<ZPathLut> = Vec::new();
    let mut live = 0usize;
    for hit in &unconstrained {
        let halves = [hit.init.o5(), hit.init.o6_fractured()];
        for half in 0..2u8 {
            if halves[half as usize].as_xor_pair().is_none() {
                continue;
            }
            let mut session = forge.session();
            session.write_half(hit, half, TruthTable::zero(5));
            let z = oracle
                .query(&session.finish(CrcStrategy::Recompute), words)
                .map_err(AttackError::from)?;
            if z == golden_keystream {
                continue; // dead bytes
            }
            live += 1;
            if let Some(bit) = crate::attack::stuck_bit(&z, &golden_keystream) {
                z_path.push(ZPathLut { hit: hit.clone(), bit, pair: None });
            }
        }
    }

    let remaining = live.saturating_sub(z_path.len());
    Ok(CountermeasureReport {
        candidate_counts,
        xor_half_hits_unconstrained: unconstrained.len(),
        xor_half_hits_constrained: constrained.len(),
        z_path_pruned: z_path.len(),
        remaining,
        search_bits: complexity::log2_binomial(remaining as u64, 32),
        oracle_loads: oracle.stats().attempts as usize,
    })
}
