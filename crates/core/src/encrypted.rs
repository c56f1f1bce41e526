//! The encrypted attack path: every oracle query goes through the
//! Fig. 1 container.
//!
//! In the Starbleed setting (Ender et al., PAPERS.md) the attacker
//! only ever holds ciphertext: the golden bitstream is extracted from
//! flash as a sealed container, `K_E` comes from the side channel,
//! `K_A` falls out of the decrypted stream, and every candidate load
//! must be re-MACed and re-encrypted before the device will take it.
//! [`EncryptedOracle`] packages that pipeline as a
//! [`KeystreamOracle`], so the whole existing stack — `Attack`, the
//! resilience layer, batching, fleet sessions — runs over ciphertext
//! without modification:
//!
//! 1. a candidate bitstream from the attack loop is turned into a
//!    sealed container by the seekable patch oracle
//!    ([`PatchOracle::patch_bitstream`]): O(touched blocks) of AES +
//!    SHA work, not O(container);
//! 2. the device-side verifier ([`PatchOracle::open_patched`])
//!    decrypts/verifies the container exactly as the board would and
//!    yields the plaintext the fabric sees;
//! 3. the inner oracle (ideal or unreliable board) loads that
//!    plaintext and returns keystream.
//!
//! Because step 2 reproduces the candidate byte-for-byte and the
//! fault models are counter-keyed by (seed, load index), the
//! encrypted path produces *bit-identical* keystreams, fault traces
//! and load accounting to the plaintext path — the differential
//! property `tests/encrypted_equivalence.rs` pins.

use core::fmt;

use bitstream::{Bitstream, PartialBitstream, PatchOracle, PatchStats, ScaOracle, SecureBitstream};

use crate::oracle::{KeystreamOracle, OracleError};
use crate::telemetry::{names, Telemetry};

/// The demo on-chip AES-256 key (`K_E`) used by `--encrypted` runs,
/// the example, and the tests. In the modelled system this lives in
/// eFUSE/BBRAM and reaches the attacker only via the side channel.
pub const DEMO_K_ENC: [u8; 32] = *b"on-chip AES-256 bitstream key!!!";

/// The demo vendor HMAC key (`K_A`). Fig. 1 stores it *inside* the
/// encrypted stream, which is the design flaw the paper exploits:
/// the attacker never needs to guess it.
pub const DEMO_K_AUTH: [u8; 32] = *b"vendor's HMAC-SHA-256 key (K_A)!";

/// The public CBC IV the demo containers are sealed with.
pub const DEMO_IV: [u8; 16] = *b"public CBC iv 16";

/// Power traces the modelled side-channel attack needs before it
/// yields `K_E` (~10⁴–10⁵ in the attacks the paper cites).
pub const SCA_TRACES_REQUIRED: u32 = 40_000;

/// Seals `golden` into the demo container — the vendor-side step that
/// produces what the attacker later extracts from flash.
#[must_use]
pub fn demo_seal(golden: &Bitstream) -> SecureBitstream {
    SecureBitstream::seal(golden, &DEMO_K_ENC, &DEMO_K_AUTH, DEMO_IV)
}

/// The demo side-channel oracle guarding `K_E`.
#[must_use]
pub fn demo_sca() -> ScaOracle {
    ScaOracle::new(DEMO_K_ENC, SCA_TRACES_REQUIRED)
}

/// The attacker's entry into the ciphertext world: spend `traces`
/// power traces against `sca`, and — if the side channel yields
/// `K_E` — build the seekable patch oracle over the sealed golden
/// container.
///
/// # Errors
///
/// [`crate::AttackError::Exhausted`] (with a fresh checkpoint and a
/// [`crate::resilient::ResilienceError::ScaTracesExhausted`] source)
/// when the trace budget is too small: nothing was decrypted, so the
/// checkpoint is empty and re-running with a raised budget resumes
/// from scratch at identical totals. [`crate::AttackError::Oracle`]
/// when the container itself is rejected under the recovered key.
pub fn open_with_sca(
    sealed: &SecureBitstream,
    sca: &ScaOracle,
    traces: u32,
) -> Result<PatchOracle, crate::AttackError> {
    let Some(k_enc) = sca.extract_key(traces) else {
        return Err(crate::AttackError::Exhausted {
            checkpoint: Box::new(crate::AttackCheckpoint::new()),
            source: crate::resilient::ResilienceError::ScaTracesExhausted {
                collected: traces,
                needed: sca.traces_needed(),
            },
        });
    };
    PatchOracle::new(sealed, &k_enc).map_err(|e| {
        crate::AttackError::Oracle(OracleError::Rejected(format!(
            "sealed golden container rejected: {e}"
        )))
    })
}

/// A [`KeystreamOracle`] adapter that ships every query through the
/// seekable CBC patch oracle: candidate plaintext → sealed container
/// → device-side open → inner oracle load.
///
/// All state/fault-planning capabilities delegate to the inner
/// oracle, so resilience, batching and journal resume behave exactly
/// as on the plaintext path.
pub struct EncryptedOracle<'a> {
    inner: &'a dyn KeystreamOracle,
    patcher: PatchOracle,
    telemetry: Telemetry,
}

impl fmt::Debug for EncryptedOracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EncryptedOracle({:?})", self.patcher)
    }
}

impl<'a> EncryptedOracle<'a> {
    /// Wraps `inner` so every load goes through `patcher`'s
    /// seal/verify pipeline.
    #[must_use]
    pub fn new(inner: &'a dyn KeystreamOracle, patcher: PatchOracle) -> Self {
        Self { inner, patcher, telemetry: Telemetry::off() }
    }

    /// Attaches a telemetry recorder; encrypted-path counters
    /// (`encrypted.*`) are accumulated per shipped load.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The patch oracle (its golden plaintext is the attack's golden
    /// bitstream — recovered from the container, not handed over).
    #[must_use]
    pub fn patcher(&self) -> &PatchOracle {
        &self.patcher
    }

    /// Cumulative seal/verify work statistics.
    #[must_use]
    pub fn patch_stats(&self) -> PatchStats {
        self.patcher.stats()
    }

    /// One full trip through the container: patch-seal the candidate,
    /// then open it exactly as the device would. The returned
    /// plaintext is what the fabric programs.
    fn ship(&self, bitstream: &Bitstream) -> Result<Bitstream, OracleError> {
        let before = self.patcher.stats();
        let sealed = self
            .patcher
            .patch_bitstream(bitstream)
            .map_err(|e| OracleError::Rejected(format!("patch oracle refused edit: {e}")))?;
        let opened = self
            .patcher
            .open_patched(&sealed)
            .map_err(|e| OracleError::Rejected(format!("device rejected container: {e}")))?;
        let after = self.patcher.stats();
        self.telemetry.incr(names::ENCRYPTED_LOADS, 1);
        self.telemetry.incr(
            names::ENCRYPTED_BLOCKS_REENCRYPTED,
            after.blocks_reencrypted - before.blocks_reencrypted,
        );
        self.telemetry
            .incr(names::ENCRYPTED_BLOCKS_REUSED, after.blocks_reused - before.blocks_reused);
        self.telemetry.incr(
            names::ENCRYPTED_BLOCKS_DECRYPTED,
            after.blocks_decrypted - before.blocks_decrypted,
        );
        self.telemetry.incr(names::ENCRYPTED_MAC_BYTES, after.mac_bytes - before.mac_bytes);
        Ok(opened)
    }

    /// One partial-reconfiguration trip through the container: the
    /// forged frame-delta is sealed into a *fresh* (short) Fig. 1
    /// container, then opened exactly as the device's encrypted
    /// partial port would. The sealed container is a few frames long,
    /// so the crypto work is O(delta), not O(full configuration) —
    /// the encrypted path's share of the partial-loading win.
    fn ship_partial(&self, partial: &PartialBitstream) -> Result<PartialBitstream, OracleError> {
        let sealed = self.patcher.seal_fresh(partial.as_bytes());
        let body = self
            .patcher
            .open_fresh(&sealed)
            .map_err(|e| OracleError::Rejected(format!("device rejected container: {e}")))?;
        self.telemetry.incr(names::ENCRYPTED_LOADS, 1);
        self.telemetry
            .incr(names::ENCRYPTED_BLOCKS_REENCRYPTED, (sealed.ciphertext.len() / 16) as u64);
        self.telemetry
            .incr(names::ENCRYPTED_BLOCKS_DECRYPTED, (sealed.ciphertext.len() / 16) as u64);
        self.telemetry.incr(names::ENCRYPTED_MAC_BYTES, partial.len() as u64);
        Ok(PartialBitstream::from_bytes(body))
    }

    /// Ships a whole batch and loads it through `load` — the inner
    /// oracle's full-load batch (with or without fault accounting). A
    /// refused container occupies its lane as an error; the accepted
    /// lanes then load one at a time, preserving order.
    fn batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
        load: impl Fn(&[Bitstream]) -> Vec<Result<Vec<u32>, OracleError>>,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        let shipped: Vec<Result<Bitstream, OracleError>> =
            bitstreams.iter().map(|bs| self.ship(bs)).collect();
        if shipped.iter().all(Result::is_ok) {
            let opened: Vec<Bitstream> = shipped.into_iter().filter_map(Result::ok).collect();
            return load(&opened);
        }
        shipped
            .into_iter()
            .map(|r| {
                r.and_then(|bs| {
                    load(core::slice::from_ref(&bs))
                        .pop()
                        .unwrap_or(Err(OracleError::ShortRead { got: 0, want: words }))
                })
            })
            .collect()
    }

    /// Loads shipped partial lanes as one serial delta chain. The
    /// lanes before the first refused container load as one batch; a
    /// refused container breaks the chain for every later lane,
    /// exactly as a refused partial stream would on the device.
    fn load_chain(
        &self,
        shipped: Vec<Result<PartialBitstream, OracleError>>,
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        let accepted = shipped.iter().take_while(|r| r.is_ok()).count();
        let mut shipped = shipped.into_iter();
        let opened: Vec<PartialBitstream> =
            shipped.by_ref().take(accepted).filter_map(Result::ok).collect();
        let mut out = if opened.is_empty() {
            Vec::new()
        } else {
            self.inner.keystream_partial_batch_clean(&opened, words)
        };
        out.extend(shipped.map(|r| {
            r.and_then(|_| {
                Err(OracleError::Rejected(
                    "partial chain broken by an earlier refused container".into(),
                ))
            })
        }));
        out
    }
}

impl KeystreamOracle for EncryptedOracle<'_> {
    fn keystream(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
        let opened = self.ship(bitstream)?;
        self.inner.keystream(&opened, words)
    }

    fn keystream_batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.batch(bitstreams, words, |bs| self.inner.keystream_batch(bs, words))
    }

    fn state_snapshot(&self) -> Option<Vec<u8>> {
        self.inner.state_snapshot()
    }

    fn restore_state(&self, state: &[u8]) -> Result<(), OracleError> {
        self.inner.restore_state(state)
    }

    fn fault_planning(&self) -> bool {
        self.inner.fault_planning()
    }

    fn plan_read(&self, ahead: u64, words: usize) -> Option<fpga_sim::ReadPlan> {
        self.inner.plan_read(ahead, words)
    }

    fn commit_reads(&self, plans: &[fpga_sim::ReadPlan]) {
        self.inner.commit_reads(plans);
    }

    fn keystream_batch_clean(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.batch(bitstreams, words, |bs| self.inner.keystream_batch_clean(bs, words))
    }

    fn resolve_plan(
        &self,
        plan: &fpga_sim::ReadPlan,
        clean: Result<Vec<u32>, OracleError>,
        want: usize,
    ) -> Result<Vec<u32>, OracleError> {
        self.inner.resolve_plan(plan, clean, want)
    }

    fn partial_capable(&self) -> bool {
        self.inner.partial_capable()
    }

    fn keystream_partial(
        &self,
        partial: &PartialBitstream,
        words: usize,
    ) -> Result<Vec<u32>, OracleError> {
        let opened = self.ship_partial(partial)?;
        self.inner.keystream_partial(&opened, words)
    }

    fn keystream_partial_batch_clean(
        &self,
        partials: &[PartialBitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.load_chain(partials.iter().map(|p| self.ship_partial(p)).collect(), words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_sim::{ImplementOptions, Snow3gBoard};
    use netlist::snow3g_circuit::Snow3gCircuitConfig;
    use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

    fn board() -> Snow3gBoard {
        Snow3gBoard::build(
            Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV),
            &ImplementOptions::default(),
        )
        .expect("board")
    }

    #[test]
    fn encrypted_oracle_matches_plaintext_oracle() {
        let b = board();
        let golden = b.extract_bitstream();
        let sealed = demo_seal(&golden);
        let patcher = PatchOracle::new(&sealed, &DEMO_K_ENC).expect("container opens");
        let enc = EncryptedOracle::new(&b, patcher);

        // Golden query: identical keystream through the container.
        let plain = b.keystream(&golden, 4).expect("plaintext path");
        let over_ct = enc.keystream(&golden, 4).expect("encrypted path");
        assert_eq!(plain, over_ct);

        // A modified candidate (CRC-repaired via the payload editor).
        let mut variant = golden.clone();
        let range = variant.fdri_data_range().expect("payload");
        variant.as_mut_bytes()[range.start + 512] ^= 0x40;
        variant.recompute_crc();
        let plain = b.keystream(&variant, 4).expect("plaintext path");
        let over_ct = enc.keystream(&variant, 4).expect("encrypted path");
        assert_eq!(plain, over_ct);
        assert!(enc.patch_stats().patches >= 1);
    }

    #[test]
    fn batch_matches_serial_through_the_container() {
        let b = board();
        let golden = b.extract_bitstream();
        let sealed = demo_seal(&golden);
        let patcher = PatchOracle::new(&sealed, &DEMO_K_ENC).expect("container opens");
        let enc = EncryptedOracle::new(&b, patcher);
        let mut variant = golden.clone();
        let range = variant.fdri_data_range().expect("payload");
        variant.as_mut_bytes()[range.start + 64] ^= 0x08;
        variant.recompute_crc();
        let batch = vec![golden.clone(), variant.clone(), golden.clone()];
        let batched = enc.keystream_batch(&batch, 3);
        for (i, bs) in batch.iter().enumerate() {
            let serial = enc.keystream(bs, 3).expect("serial");
            assert_eq!(batched[i].as_ref().expect("lane ok"), &serial, "lane {i}");
        }

        // A container the patch oracle refuses fails its own lane
        // alone; the accepted lanes still equal their serial loads.
        let mut grown = golden.clone().into_bytes();
        grown.push(0);
        let batch = vec![variant, Bitstream::from_bytes(grown), golden];
        let batched = enc.keystream_batch(&batch, 3);
        let serial: Vec<_> =
            batch.iter().map(|bs| enc.keystream(bs, 3).map_err(|e| e.to_string())).collect();
        let batched: Vec<_> = batched.into_iter().map(|r| r.map_err(|e| e.to_string())).collect();
        assert_eq!(batched, serial, "lane for lane, error strings included");
        assert!(
            matches!(&batched[1], Err(why) if why.contains("patch oracle refused")),
            "{:?}",
            batched[1]
        );
        assert!(batched[0].is_ok() && batched[2].is_ok(), "accepted lanes still load");
    }

    #[test]
    fn a_refused_partial_container_breaks_the_chain_after_it() {
        let b = board();
        let golden = b.extract_bitstream();
        let sealed = demo_seal(&golden);
        let enc = EncryptedOracle::new(&b, PatchOracle::new(&sealed, &DEMO_K_ENC).expect("opens"));
        let mut forge = bitstream::PartialForge::new(&golden).expect("forge");
        let range = golden.fdri_data_range().expect("payload");
        let mut image = golden.clone();
        let mut partials = Vec::new();
        for at in [64, 4096, 128] {
            let mut next = image.clone();
            next.as_mut_bytes()[range.start + at] ^= 0x08;
            next.recompute_crc();
            partials.push(forge.delta(&image, &next).expect("delta").stream);
            image = next;
        }
        let serial_after_full = |lanes: &[PartialBitstream]| -> Vec<Vec<u32>> {
            enc.keystream(&golden, 2).expect("full load");
            lanes.iter().map(|p| enc.keystream_partial(p, 3).expect("serial delta")).collect()
        };
        let serial = serial_after_full(&partials);
        enc.keystream(&golden, 2).expect("full load");
        let batched = enc.keystream_partial_batch_clean(&partials, 3);
        let batched: Vec<Vec<u32>> = batched.into_iter().map(|r| r.expect("lane ok")).collect();
        assert_eq!(batched, serial, "an all-accepted batch is the serial chain");

        // A freshly sealed container is refused only under a wrong K_A
        // guess, which refuses every lane, so the refusal comes from
        // a second oracle. Lanes 0 and 1 load; lane 2 carries the
        // patch oracle's refusal; lane 3 ships but the chain is broken.
        let guessed = EncryptedOracle::new(
            &b,
            PatchOracle::new(&sealed, &DEMO_K_ENC).expect("opens").with_mac_key([0x5A; 32]),
        );
        let refusal = guessed.ship_partial(&partials[2]).expect_err("wrong K_A is refused");
        let shipped = vec![
            enc.ship_partial(&partials[0]),
            enc.ship_partial(&partials[1]),
            Err(refusal.clone()),
            enc.ship_partial(&partials[2]),
        ];
        enc.keystream(&golden, 2).expect("full load");
        let out: Vec<_> =
            enc.load_chain(shipped, 3).into_iter().map(|r| r.map_err(|e| e.to_string())).collect();
        assert_eq!(out.len(), 4);
        assert_eq!(out[..2], serial[..2].iter().cloned().map(Ok).collect::<Vec<_>>()[..]);
        assert_eq!(out[2], Err(refusal.to_string()));
        assert!(refusal.to_string().contains("hmac verification failed"), "{refusal}");
        assert!(
            matches!(&out[3], Err(why) if why.contains("partial chain broken")),
            "{:?}",
            out[3]
        );

        // Through the trait, the wrong guess refuses every lane with
        // its own refusal, as the serial loads do.
        guessed.keystream(&golden, 2).expect("the unedited golden container opens");
        let batched: Vec<_> = guessed
            .keystream_partial_batch_clean(&partials, 3)
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect();
        let serial: Vec<_> = partials
            .iter()
            .map(|p| guessed.keystream_partial(p, 3).map_err(|e| e.to_string()))
            .collect();
        assert_eq!(batched, serial);
        assert!(batched.iter().all(|r| matches!(r, Err(why) if why.contains("hmac"))));
    }

    #[test]
    fn wrong_mac_key_surfaces_as_typed_rejection() {
        let b = board();
        let golden = b.extract_bitstream();
        let sealed = demo_seal(&golden);
        let patcher = PatchOracle::new(&sealed, &DEMO_K_ENC)
            .expect("container opens")
            .with_mac_key([0x5A; 32]);
        let enc = EncryptedOracle::new(&b, patcher);
        let mut variant = golden.clone();
        let range = variant.fdri_data_range().expect("payload");
        variant.as_mut_bytes()[range.start + 128] ^= 0x01;
        variant.recompute_crc();
        let err = enc.keystream(&variant, 1).expect_err("bad K_A must be refused");
        assert!(matches!(&err, OracleError::Rejected(why) if why.contains("hmac")), "{err}");
        assert!(!err.is_transient(), "a re-MAC failure is deterministic");
    }
}
