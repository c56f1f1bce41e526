//! Partial-reconfiguration delta loading — the attack's fast
//! configuration path.
//!
//! A bitstream-modification attack is load-bound: every candidate
//! costs one full configuration (~hundreds of KiB over JTAG/SelectMAP
//! in the paper's setup) even though consecutive candidates differ in
//! a handful of frames. 7-series devices expose exactly the shortcut
//! this wastes: *partial reconfiguration*. A partial bitstream seeks
//! FAR to a frame address, writes only the frames that changed, and
//! leaves the rest of the configuration memory alone.
//!
//! [`PrOracle`] packages that as a transparent [`KeystreamOracle`]
//! layer:
//!
//! * the **first** load of a session ships in full and latches both
//!   the on-device image and a [`PartialForge`] built from the
//!   stream's structure;
//! * every later candidate is diffed against the tracked on-device
//!   image and shipped as a forged frame-delta partial stream —
//!   including *rollbacks*: a rejected candidate is never re-loaded,
//!   the next delta simply starts from whatever the device holds;
//! * candidates the forge cannot express (structural edits, streams
//!   whose own CRC the device would refuse) fall back to a full load,
//!   so device-visible accept/reject behaviour is preserved exactly;
//! * batched queries become serial delta *chains*: lane `i`'s delta
//!   applies to the image lane `i − 1` leaves behind, shipped through
//!   the gang-simulated partial batch.
//!
//! The layer sits *below* resilience and supervision: fault planning,
//! journaling and retries all delegate untouched, and on a
//! fault-planning oracle batched queries run as a serial loop — one
//! physical load per lane, so a run's fault trace is invariant under
//! switching load modes (`tests/partial_equivalence.rs` pins this
//! differentially).

use std::sync::Mutex;

use bitstream::{Bitstream, PartialBitstream, PartialDelta, PartialForge};

use crate::oracle::{KeystreamOracle, OracleError};
use crate::telemetry::{names, Telemetry};

/// Delta-tracking state: what the device currently holds, and the
/// forge built from the first full load's structure.
struct PrState {
    forge: Option<PartialForge>,
    image: Option<Bitstream>,
}

/// A [`KeystreamOracle`] adapter that ships every query the device can
/// take as a frame-delta partial bitstream, falling back to full
/// loads whenever it cannot prove the delta path is equivalent.
///
/// Constructed unconditionally by the session layer; with `enabled`
/// false (or an inner oracle that is not
/// [`partial_capable`](KeystreamOracle::partial_capable)) it is a pure
/// pass-through.
pub struct PrOracle<'a> {
    inner: &'a dyn KeystreamOracle,
    enabled: bool,
    telemetry: Telemetry,
    state: Mutex<PrState>,
}

impl core::fmt::Debug for PrOracle<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PrOracle(enabled: {})", self.enabled)
    }
}

impl<'a> PrOracle<'a> {
    /// Wraps `inner`. Delta loading activates only when `enabled` is
    /// set *and* the inner oracle's device has a
    /// partial-reconfiguration port; otherwise every call delegates
    /// unchanged.
    #[must_use]
    pub fn new(inner: &'a dyn KeystreamOracle, enabled: bool) -> Self {
        let enabled = enabled && inner.partial_capable();
        Self {
            inner,
            enabled,
            telemetry: Telemetry::off(),
            state: Mutex::new(PrState { forge: None, image: None }),
        }
    }

    /// Attaches a telemetry recorder; `pr.*` counters accumulate per
    /// shipped load.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Whether delta loading is actually active (flag *and* device
    /// capability).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.enabled
    }

    /// Tries to forge a frame-delta from the tracked on-device image
    /// to `candidate`. `None` means: no image yet, no forge, or the
    /// candidate is not delta-expressible — ship a full load.
    fn forge_delta(&self, candidate: &Bitstream) -> Option<PartialDelta> {
        let st = self.state.lock().expect("pr state lock");
        let (Some(forge), Some(image)) = (st.forge.as_ref(), st.image.as_ref()) else {
            return None;
        };
        forge.delta(image, candidate)
    }

    /// Forges the serial delta chain for a batch: lane `i` diffs
    /// against lane `i − 1` (lane 0 against the on-device image).
    /// `None` if any lane is not delta-expressible — the whole batch
    /// then ships as full loads.
    fn forge_chain(&self, bitstreams: &[Bitstream]) -> Option<Vec<PartialDelta>> {
        let st = self.state.lock().expect("pr state lock");
        let (Some(forge), Some(image)) = (st.forge.as_ref(), st.image.as_ref()) else {
            return None;
        };
        let mut chain = Vec::with_capacity(bitstreams.len());
        let mut prev = image;
        for bs in bitstreams {
            chain.push(forge.delta(prev, bs)?);
            prev = bs;
        }
        Some(chain)
    }

    /// A full load, with image/forge bookkeeping: success latches the
    /// candidate as the on-device image (and builds the forge from the
    /// first such stream); failure clears the image so the next load
    /// ships in full again.
    fn full_load(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
        let out = self.inner.keystream(bitstream, words);
        let mut st = self.state.lock().expect("pr state lock");
        match &out {
            Ok(_) => {
                if st.forge.is_none() {
                    st.forge = PartialForge::new(bitstream);
                }
                st.image = Some(bitstream.clone());
            }
            Err(_) => st.image = None,
        }
        drop(st);
        self.telemetry.incr(names::PR_FULL_LOADS, 1);
        self.telemetry.incr(names::PR_BYTES_SHIPPED, bitstream.len() as u64);
        out
    }

    /// Clears the tracked image (the forge survives: it encodes the
    /// reference *structure*, not device state).
    fn clear_image(&self) {
        self.state.lock().expect("pr state lock").image = None;
    }

    /// Counts one shipped frame-delta.
    fn count_partial(&self, delta: &PartialDelta) {
        self.telemetry.incr(names::PR_PARTIAL_LOADS, 1);
        self.telemetry.incr(names::PR_FRAMES_WRITTEN, delta.frames_written as u64);
        self.telemetry.incr(names::PR_BYTES_SHIPPED, delta.stream.len() as u64);
    }

    /// Ships a batch as one serial delta chain when every lane is
    /// delta-expressible, else through `full` — the inner oracle's
    /// full-load batch (with or without fault accounting). Either way
    /// the tracked image follows: the chain's last lane after an
    /// all-clean chain, nothing otherwise (a multi-lane full batch on
    /// the simulated board decodes differentially and never
    /// materialises a frame image).
    fn batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
        full: impl FnOnce(&[Bitstream]) -> Vec<Result<Vec<u32>, OracleError>>,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        if !self.enabled {
            return full(bitstreams);
        }
        let Some(chain) = self.forge_chain(bitstreams) else {
            let out = full(bitstreams);
            self.clear_image();
            self.telemetry.incr(names::PR_FULL_LOADS, bitstreams.len() as u64);
            self.telemetry
                .incr(names::PR_BYTES_SHIPPED, bitstreams.iter().map(|b| b.len() as u64).sum());
            return out;
        };
        let partials: Vec<PartialBitstream> = chain.iter().map(|d| d.stream.clone()).collect();
        let out = self.inner.keystream_partial_batch_clean(&partials, words);
        match (bitstreams.last(), out.iter().all(Result::is_ok)) {
            (Some(last), true) => {
                self.state.lock().expect("pr state lock").image = Some(last.clone());
            }
            _ => self.clear_image(),
        }
        for d in &chain {
            self.count_partial(d);
        }
        out
    }
}

impl KeystreamOracle for PrOracle<'_> {
    fn keystream(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
        if !self.enabled {
            return self.inner.keystream(bitstream, words);
        }
        let Some(delta) = self.forge_delta(bitstream) else {
            return self.full_load(bitstream, words);
        };
        let out = self.inner.keystream_partial(&delta.stream, words);
        // Conservative image tracking: only a clean success proves the
        // device now holds `bitstream`. Any error — transient faults
        // included — drops to a full load on the next query, which is
        // correct regardless of what the device actually holds.
        match &out {
            Ok(_) => {
                self.state.lock().expect("pr state lock").image = Some(bitstream.clone());
            }
            Err(_) => self.clear_image(),
        }
        self.count_partial(&delta);
        out
    }

    fn keystream_batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        if self.enabled && self.inner.fault_planning() {
            // A fault-modelled oracle batches as a serial loop (its
            // default), so route each lane through `keystream`: one
            // physical load per lane, drawing the identical fault
            // plan a full load at the same index would.
            return bitstreams.iter().map(|bs| self.keystream(bs, words)).collect();
        }
        self.batch(bitstreams, words, |bs| self.inner.keystream_batch(bs, words))
    }

    fn state_snapshot(&self) -> Option<Vec<u8>> {
        self.inner.state_snapshot()
    }

    fn restore_state(&self, state: &[u8]) -> Result<(), OracleError> {
        // A restore rewinds the fault model to a journaled position;
        // the device is about to be reloaded from scratch, so drop
        // any delta-tracking state.
        self.clear_image();
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
        self.inner.keystream_partial(partial, words)
    }

    fn keystream_partial_batch_clean(
        &self,
        partials: &[PartialBitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.inner.keystream_partial_batch_clean(partials, words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Metrics;
    use fpga_sim::{ImplementOptions, Load, Snow3gBoard};
    use netlist::snow3g_circuit::Snow3gCircuitConfig;
    use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

    fn board() -> Snow3gBoard {
        Snow3gBoard::build(
            Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV),
            &ImplementOptions::default(),
        )
        .expect("board")
    }

    /// One payload-edit variant of `golden` with a repaired CRC.
    fn variant(golden: &Bitstream, offset: usize, mask: u8) -> Bitstream {
        let mut v = golden.clone();
        let range = v.fdri_data_range().expect("payload");
        v.as_mut_bytes()[range.start + offset] ^= mask;
        v.recompute_crc();
        v
    }

    fn counters(t: &Telemetry) -> Metrics {
        t.metrics()
    }

    #[test]
    fn serial_queries_go_partial_after_the_first_full_load() {
        let b = board();
        let golden = b.extract_bitstream();
        let telemetry = Telemetry::new();
        let pr = PrOracle::new(&b, true).with_telemetry(telemetry.clone());
        assert!(pr.is_active());

        // First load: full (nothing on the device yet).
        let z_golden = pr.keystream(&golden, 4).expect("first load");
        assert_eq!(z_golden, b.keystream(&golden, 4).expect("direct"));

        // Second query: ships as a delta, same keystream as a full
        // load of the candidate.
        let cand = variant(&golden, 512, 0x40);
        let z_cand = pr.keystream(&cand, 4).expect("delta load");
        assert_eq!(z_cand, b.keystream(&cand, 4).expect("direct"));

        // Rollback: revisiting the golden rides the next delta.
        let z_back = pr.keystream(&golden, 4).expect("rollback");
        assert_eq!(z_back, z_golden);

        let m = counters(&telemetry);
        assert_eq!(m.counter(names::PR_FULL_LOADS), 1);
        assert_eq!(m.counter(names::PR_PARTIAL_LOADS), 2);
        assert!(
            m.counter(names::PR_BYTES_SHIPPED) < 2 * golden.len() as u64,
            "three loads must ship well under three full streams"
        );
    }

    #[test]
    fn disabled_oracle_is_a_pure_pass_through() {
        let b = board();
        let golden = b.extract_bitstream();
        let telemetry = Telemetry::new();
        let pr = PrOracle::new(&b, false).with_telemetry(telemetry.clone());
        assert!(!pr.is_active());
        pr.keystream(&golden, 2).expect("load");
        pr.keystream(&variant(&golden, 64, 0x08), 2).expect("load");
        assert!(counters(&telemetry).is_empty(), "no pr.* accounting when disabled");
    }

    #[test]
    fn batches_ship_as_serial_delta_chains() {
        let b = board();
        let golden = b.extract_bitstream();
        let pr = PrOracle::new(&b, true);
        pr.keystream(&golden, 2).expect("first full load");

        let lanes = vec![variant(&golden, 0, 0x01), variant(&golden, 4096, 0x80), golden.clone()];
        let batched = pr.keystream_batch(&lanes, 3);
        for (i, bs) in lanes.iter().enumerate() {
            let direct = b.keystream(bs, 3).expect("direct");
            assert_eq!(batched[i].as_ref().expect("lane ok"), &direct, "lane {i}");
        }

        // And the image tracked through the chain is the last lane:
        // the next serial query deltas from it successfully.
        let next = variant(&golden, 128, 0x02);
        let z = pr.keystream(&next, 3).expect("delta from batch tail");
        assert_eq!(z, b.keystream(&next, 3).expect("direct"));
    }

    #[test]
    fn structural_candidates_fall_back_to_full_loads() {
        let b = board();
        let golden = b.extract_bitstream();
        let telemetry = Telemetry::new();
        let pr = PrOracle::new(&b, true).with_telemetry(telemetry.clone());
        pr.keystream(&golden, 2).expect("first full load");

        // A payload edit *without* a CRC repair: the candidate's own
        // stored CRC is wrong, so it is not delta-expressible (a
        // partial write would launder the bad CRC away) — it must
        // ship in full and draw the *same* refusal the full stream
        // gets.
        let mut bad_crc = golden.clone();
        let range = bad_crc.fdri_data_range().expect("payload");
        bad_crc.as_mut_bytes()[range.start + 256] ^= 0x04;
        let err = pr.keystream(&bad_crc, 2).expect_err("refused");
        let direct = b.load(&[Load::Full(&bad_crc)], 2).pop().expect("one lane");
        let direct = direct.expect_err("refused directly");
        assert_eq!(err.to_string(), format!("device refused configuration: {direct}"));
        let m = counters(&telemetry);
        assert_eq!(m.counter(names::PR_FULL_LOADS), 2, "fallback ships in full");

        // The failed full load cleared the image: the next good query
        // ships in full again, then deltas resume.
        pr.keystream(&golden, 2).expect("full reload");
        pr.keystream(&variant(&golden, 40, 0x10), 2).expect("delta resumes");
        let m = counters(&telemetry);
        assert_eq!(m.counter(names::PR_FULL_LOADS), 3);
        assert_eq!(m.counter(names::PR_PARTIAL_LOADS), 1);
    }
}
