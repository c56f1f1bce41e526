//! The victim board: a SNOW 3G design implemented on the device, with
//! the interface an attacker actually has — *load a bitstream,
//! collect keystream words*.

use core::fmt;
use std::sync::Mutex;

use netlist::snow3g_circuit::{Snow3gCircuit, Snow3gCircuitConfig, WARMUP_CYCLES};
use netlist::NodeId;
use techmap::{map, MapConfig, MappedDesign};

use bitstream::partial::PartialBitstream;
use bitstream::{Bitstream, FrameData};
use boolfn::DualOutputInit;

use crate::fabric::{Fpga, PartialApplyError, ProgramError};
use crate::gang::{GangConfiguredFpga, GANG_LANES};
use crate::implementer::{implement, ImplementError, ImplementOptions, Implementation};

/// An error from board construction or operation.
#[derive(Debug)]
pub enum BoardError {
    /// Technology mapping failed.
    Map(techmap::MapError),
    /// Placement failed.
    Implement(ImplementError),
    /// Configuration was refused.
    Program(ProgramError),
    /// A partial-reconfiguration stream was refused.
    PartialApply(PartialApplyError),
    /// A partial stream arrived before any full load established the
    /// on-device configuration image it deltas against.
    NoPartialBase,
}

impl fmt::Display for BoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoardError::Map(e) => write!(f, "mapping failed: {e}"),
            BoardError::Implement(e) => write!(f, "implementation failed: {e}"),
            BoardError::Program(e) => write!(f, "programming failed: {e}"),
            BoardError::PartialApply(e) => write!(f, "partial reconfiguration refused: {e}"),
            BoardError::NoPartialBase => {
                write!(f, "no full configuration precedes this partial stream")
            }
        }
    }
}

impl std::error::Error for BoardError {}

impl From<techmap::MapError> for BoardError {
    fn from(e: techmap::MapError) -> Self {
        BoardError::Map(e)
    }
}

impl From<ImplementError> for BoardError {
    fn from(e: ImplementError) -> Self {
        BoardError::Implement(e)
    }
}

impl From<ProgramError> for BoardError {
    fn from(e: ProgramError) -> Self {
        BoardError::Program(e)
    }
}

/// One load through one of the device's configuration ports.
#[derive(Debug, Clone, Copy)]
pub enum Load<'a> {
    /// A complete configuration through the full-load port.
    Full(&'a Bitstream),
    /// A frame-delta through the partial-reconfiguration port, applied
    /// to the image the last load left on the device.
    Partial(&'a PartialBitstream),
}

/// The configuration-memory image a successful full load leaves on
/// the device — the base later frame-deltas are applied to.
struct PrBase {
    frames: FrameData,
    inits: Vec<DualOutputInit>,
}

/// A SNOW 3G victim board.
///
/// Construction runs the full implementation flow (circuit
/// generation → technology mapping → placement → bitstream). The
/// resulting board exposes the attack surface of Section IV-A: the
/// golden bitstream (as extracted from external flash) and the
/// ability to load modified bitstreams and observe the keystream.
pub struct Snow3gBoard {
    fpga: Fpga,
    golden: Bitstream,
    run_net: NodeId,
    z_nets: Vec<NodeId>,
    /// On-device configuration image partial lanes delta against (see
    /// [`Snow3gBoard::load`] for when it is latched and dropped).
    pr_base: Mutex<Option<PrBase>>,
    /// Ground-truth artifacts for tests and evaluation only.
    pub circuit: Snow3gCircuit,
    /// The mapped design (ground truth, tests only).
    pub design: MappedDesign,
    /// The placement (ground truth, tests only).
    pub implementation_placement: Vec<crate::geom::SiteId>,
}

impl fmt::Debug for Snow3gBoard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Snow3gBoard(protected: {}, bitstream: {} bytes, luts: {})",
            self.circuit.protected,
            self.golden.len(),
            self.design.luts.len()
        )
    }
}

impl Snow3gBoard {
    /// Builds a board for the given circuit configuration.
    ///
    /// # Errors
    ///
    /// Propagates mapping and placement failures.
    pub fn build(
        config: Snow3gCircuitConfig,
        options: &ImplementOptions,
    ) -> Result<Self, BoardError> {
        let circuit = Snow3gCircuit::generate(config);
        let design = map(&circuit.network, &MapConfig::default())?;
        let Implementation { fpga, bitstream, placement } = implement(&design, options)?;
        Ok(Self {
            fpga,
            golden: bitstream,
            run_net: circuit.run,
            z_nets: circuit.z_out.clone(),
            pr_base: Mutex::new(None),
            circuit,
            design,
            implementation_placement: placement,
        })
    }

    /// The bitstream as the attacker extracts it from the board's
    /// flash.
    #[must_use]
    pub fn extract_bitstream(&self) -> Bitstream {
        self.golden.clone()
    }

    /// The device model (geometry is public knowledge; the routing
    /// database inside is the implementation's static artifact).
    #[must_use]
    pub fn fpga(&self) -> &Fpga {
        &self.fpga
    }

    /// Loads each lane through its configuration port and collects
    /// `words` keystream words from every lane the device accepts —
    /// the one oracle the attack drives. Results are positionally
    /// aligned with `loads`; a refused lane gets its own error while
    /// the others still run, and every accepted lane's keystream is
    /// bit-identical to the same load issued alone.
    ///
    /// Configuration walks the lanes in order against the on-device
    /// image (the base partial streams delta against):
    ///
    /// * a full lane replaces the image. When it is the only full lane
    ///   it is decoded with its frames, which become the new base;
    ///   several full lanes share one differential decode
    ///   ([`Fpga::decode_lut_inits_batch`]) that never materialises
    ///   frames, so each leaves no base behind. A refused full lane
    ///   leaves no base either;
    /// * a partial lane applies its frame-delta to the image the lanes
    ///   before it left. With no base it fails with
    ///   [`BoardError::NoPartialBase`]; a refused stream drops the
    ///   base, so the partial lanes after it fail the same way and the
    ///   next load must be full.
    ///
    /// The accepted lanes then run once: the scalar simulator when one
    /// lane is live, gang passes of up to [`GANG_LANES`] lanes
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if a previous caller panicked while holding the
    /// internal lock.
    #[must_use]
    pub fn load(&self, loads: &[Load<'_>], words: usize) -> Vec<Result<Vec<u32>, BoardError>> {
        let mut out: Vec<Result<Vec<u32>, BoardError>> = Vec::with_capacity(loads.len());
        let mut slots: Vec<usize> = Vec::new();
        let mut lanes: Vec<Vec<DualOutputInit>> = Vec::new();
        for (slot, lane) in self.configure(loads).into_iter().enumerate() {
            match lane {
                Ok(inits) => {
                    slots.push(slot);
                    lanes.push(inits);
                    out.push(Ok(Vec::with_capacity(words)));
                }
                Err(e) => out.push(Err(e)),
            }
        }
        if let [slot] = slots[..] {
            out[slot] = Ok(self.collect_keystream(lanes.pop().expect("one live lane"), words));
            return out;
        }
        for (slots, lanes) in slots.chunks(GANG_LANES).zip(lanes.chunks(GANG_LANES)) {
            let mut gang = GangConfiguredFpga::with_inits(&self.fpga, lanes);
            gang.set_input(self.run_net, u64::MAX);
            gang.run(WARMUP_CYCLES);
            for _ in 0..words {
                gang.step();
                let z = gang.lane_words(&self.z_nets);
                for (&word, &slot) in z.iter().zip(slots) {
                    if let Ok(zs) = &mut out[slot] {
                        zs.push(word);
                    }
                }
            }
        }
        out
    }

    /// The configuration half of [`Self::load`]: each lane's LUT
    /// INITs, or its refusal. Full streams are decoded before the
    /// image lock is taken.
    fn configure(&self, loads: &[Load<'_>]) -> Vec<Result<Vec<DualOutputInit>, BoardError>> {
        let full: Vec<&Bitstream> = loads
            .iter()
            .filter_map(|load| match load {
                Load::Full(bs) => Some(*bs),
                Load::Partial(_) => None,
            })
            .collect();
        // A lone full lane keeps its frames for the base.
        let mut frames = None;
        let mut decoded = if let [bs] = full[..] {
            vec![self.fpga.decode_with_frames(bs).map(|(f, inits)| {
                frames = Some(f);
                inits
            })]
        } else {
            self.fpga.decode_lut_inits_batch(&full)
        }
        .into_iter();
        let mut base = self.pr_base.lock().expect("pr base lock");
        loads
            .iter()
            .map(|load| match load {
                Load::Full(_) => {
                    let decoded = decoded.next().expect("one decode per full lane");
                    *base = match (&decoded, frames.take()) {
                        (Ok(inits), Some(frames)) => Some(PrBase { frames, inits: inits.clone() }),
                        _ => None,
                    };
                    Ok(decoded?)
                }
                Load::Partial(partial) => {
                    let image = base.as_mut().ok_or(BoardError::NoPartialBase)?;
                    match self.fpga.apply_partial_base(&mut image.frames, &mut image.inits, partial)
                    {
                        Ok(_) => Ok(image.inits.clone()),
                        Err(e) => {
                            *base = None;
                            Err(BoardError::PartialApply(e))
                        }
                    }
                }
            })
            .collect()
    }

    /// Runs a freshly-configured device (global set/reset just
    /// released) and collects `words` keystream words.
    fn collect_keystream(&self, inits: Vec<DualOutputInit>, words: usize) -> Vec<u32> {
        let mut dev = self.fpga.configured_from_inits(inits);
        dev.set_input(self.run_net, true);
        dev.run(WARMUP_CYCLES);
        let mut out = Vec::with_capacity(words);
        for _ in 0..words {
            dev.step();
            out.push(dev.word(&self.z_nets));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow3g::vectors::{PAPER_TABLE_IV, TEST_SET_1_IV, TEST_SET_1_KEY};
    use snow3g::{FaultSpec, FaultySnow3g, Snow3g};

    fn board(protected: bool) -> Snow3gBoard {
        let config = Snow3gCircuitConfig { key: TEST_SET_1_KEY, iv: TEST_SET_1_IV, protected };
        Snow3gBoard::build(config, &ImplementOptions::default()).expect("board builds")
    }

    /// One load issued alone, as the serial oracle issues it.
    fn one(b: &Snow3gBoard, load: Load<'_>, words: usize) -> Result<Vec<u32>, BoardError> {
        b.load(&[load], words).pop().expect("one lane")
    }

    #[test]
    fn golden_bitstream_generates_correct_keystream() {
        let b = board(false);
        let z = one(&b, Load::Full(&b.extract_bitstream()), 4).expect("runs");
        let sw = Snow3g::new(TEST_SET_1_KEY, TEST_SET_1_IV).keystream(4);
        assert_eq!(z, sw, "the board is a faithful SNOW 3G device");
    }

    #[test]
    fn protected_board_same_function() {
        let b = board(true);
        let z = one(&b, Load::Full(&b.extract_bitstream()), 2).expect("runs");
        assert_eq!(z, vec![0xABEE9704, 0x7AC31373]);
    }

    #[test]
    fn tampered_bitstream_rejected_until_crc_disabled() {
        let b = board(false);
        let mut bs = b.extract_bitstream();
        let range = bs.fdri_data_range().unwrap();
        bs.as_mut_bytes()[range.start + 2048] ^= 0x01;
        assert!(matches!(
            one(&b, Load::Full(&bs), 1),
            Err(BoardError::Program(ProgramError::Bitstream(_)))
        ));
        bs.disable_crc();
        assert!(one(&b, Load::Full(&bs), 1).is_ok());
    }

    #[test]
    fn ground_truth_fault_injection_recovers_state() {
        // Sanity for the attack to come: modify, via ground truth
        // placement, all LUTs whose cones realise the v faults, and
        // check the keystream equals the software fault model. Here
        // we take the cheap route: rewrite every LUT that the design
        // says computes a z-path cover to constant zero and verify
        // the output bits die.
        let b = board(false);
        let mut bs = b.extract_bitstream();
        let range = bs.fdri_data_range().unwrap();
        // Find, via ground truth, the LUT whose o6 net is the D input
        // of z_reg bit 0 (the f2 LUT of bit 0) and zero it.
        let z0 = b.circuit.z_out[0];
        let d0 = b.design.dffs.iter().find(|ff| ff.q == z0).unwrap().d;
        let (idx, _) = b
            .design
            .luts
            .iter()
            .enumerate()
            .find(|(_, l)| l.o6 == d0 || l.o5 == Some(d0))
            .expect("z0 driver is a LUT");
        let site = b.implementation_placement[idx];
        let loc = b.fpga().geometry().lut_location(site);
        let data = &mut bs.as_mut_bytes()[range];
        bitstream::codec::write_lut(data, loc, boolfn::DualOutputInit::new(0));
        bs.recompute_crc();
        let z = one(&b, Load::Full(&bs), 8).expect("runs");
        assert!(z.iter().all(|w| w & 1 == 0), "bit 0 stuck at 0: {z:08x?}");
        // Other bits unaffected.
        let sw = Snow3g::new(TEST_SET_1_KEY, TEST_SET_1_IV).keystream(8);
        assert!(z.iter().zip(&sw).all(|(a, b)| (a & !1) == (b & !1)));
    }

    #[test]
    fn keystream_batch_matches_serial_per_lane() {
        let b = board(false);
        let golden = b.extract_bitstream();
        // Three variants: golden, one faulted LUT, one refused (bad
        // CRC) — the refused lane must not disturb its neighbours.
        let mut faulted = golden.clone();
        let range = faulted.fdri_data_range().unwrap();
        let z0 = b.circuit.z_out[0];
        let d0 = b.design.dffs.iter().find(|ff| ff.q == z0).unwrap().d;
        let (idx, _) = b
            .design
            .luts
            .iter()
            .enumerate()
            .find(|(_, l)| l.o6 == d0 || l.o5 == Some(d0))
            .expect("z0 driver is a LUT");
        let site = b.implementation_placement[idx];
        let loc = b.fpga().geometry().lut_location(site);
        bitstream::codec::write_lut(
            &mut faulted.as_mut_bytes()[range],
            loc,
            boolfn::DualOutputInit::new(0),
        );
        faulted.recompute_crc();
        let mut refused = golden.clone();
        let r = refused.fdri_data_range().unwrap();
        refused.as_mut_bytes()[r.start + 64] ^= 0x02;
        let batch = [&golden, &faulted, &refused, &golden].map(Load::Full);
        let batched = b.load(&batch, 6);
        for (i, &lane) in batch.iter().enumerate() {
            match (&batched[i], one(&b, lane, 6)) {
                (Ok(got), Ok(want)) => assert_eq!(got, &want, "lane {i}"),
                (Err(_), Err(_)) => {}
                (got, want) => panic!("lane {i}: batched {got:?} vs serial {want:?}"),
            }
        }
        // Several full lanes decode differentially and leave no frame
        // image behind: a partial load right after them has no base.
        let _ = b.load(&batch, 1);
        let delta = bitstream::PartialForge::new(&golden)
            .expect("analyzes")
            .delta(&golden, &faulted)
            .expect("expressible");
        assert!(matches!(one(&b, Load::Partial(&delta.stream), 1), Err(BoardError::NoPartialBase)));
    }

    #[test]
    fn partial_load_equals_full_load_of_the_candidate() {
        let b = board(false);
        let golden = b.extract_bitstream();
        assert!(
            matches!(
                one(&b, Load::Partial(&PartialBitstream::from_bytes(vec![0; 64])), 1),
                Err(BoardError::NoPartialBase)
            ),
            "no base before the first full load"
        );
        let full_golden = one(&b, Load::Full(&golden), 6).expect("full load");

        // Forge a delta for a one-LUT edit and ship it partially.
        let mut forge = bitstream::PartialForge::new(&golden).expect("analyzes");
        let mut cand = golden.clone();
        let range = cand.fdri_data_range().unwrap();
        let z0 = b.circuit.z_out[0];
        let d0 = b.design.dffs.iter().find(|ff| ff.q == z0).unwrap().d;
        let (idx, _) = b
            .design
            .luts
            .iter()
            .enumerate()
            .find(|(_, l)| l.o6 == d0 || l.o5 == Some(d0))
            .expect("z0 driver is a LUT");
        let site = b.implementation_placement[idx];
        let loc = b.fpga().geometry().lut_location(site);
        bitstream::codec::write_lut(
            &mut cand.as_mut_bytes()[range],
            loc,
            boolfn::DualOutputInit::new(0),
        );
        cand.recompute_crc();
        let delta = forge.delta(&golden, &cand).expect("expressible");
        assert!(delta.stream.len() < golden.len() / 10, "delta ships a fraction of the bytes");

        let via_partial = one(&b, Load::Partial(&delta.stream), 6).expect("applies");
        let via_full = one(&b, Load::Full(&cand), 6).expect("full load");
        assert_eq!(via_partial, via_full, "partial load behaves as the full candidate load");

        // Roll back to golden with a second delta (the image now holds
        // the candidate) and check the multi-lane path too.
        let back = forge.delta(&cand, &golden).expect("rollback delta");
        let again = forge.delta(&golden, &cand).expect("re-edit delta");
        let batched = b.load(&[Load::Partial(&back.stream), Load::Partial(&again.stream)], 6);
        assert_eq!(batched[0].as_ref().expect("rollback lane"), &full_golden);
        assert_eq!(batched[1].as_ref().expect("edit lane"), &via_full);

        // A mixed slice equals the same loads issued one at a time,
        // lane by lane: the full lane latches the base the partial
        // lanes chain on.
        let mixed =
            [Load::Full(&golden), Load::Partial(&delta.stream), Load::Partial(&back.stream)];
        let together: Vec<_> =
            b.load(&mixed, 6).into_iter().map(|r| r.map_err(|e| e.to_string())).collect();
        let alone: Vec<_> =
            mixed.iter().map(|&lane| one(&b, lane, 6).map_err(|e| e.to_string())).collect();
        assert_eq!(together, alone, "one slice equals the loads issued one at a time");
        assert_eq!(together, [&full_golden, &via_full, &full_golden].map(|z| Ok(z.clone())));

        // A garbled delta poisons the chain: its lane and all later
        // lanes fail, and the base is dropped, so the next load must
        // be full.
        let poisoned = b.load(
            &[
                Load::Partial(&PartialBitstream::from_bytes(vec![0xAA; 96])),
                Load::Partial(&again.stream),
            ],
            2,
        );
        assert!(matches!(poisoned[0], Err(BoardError::PartialApply(_))));
        assert!(matches!(poisoned[1], Err(BoardError::NoPartialBase)));
        assert!(
            matches!(one(&b, Load::Partial(&again.stream), 2), Err(BoardError::NoPartialBase)),
            "refusal mid-chain drops the base"
        );
    }

    #[test]
    fn software_fault_model_reference() {
        // The full α fault applied in software gives Table IV; the
        // attack crate must reproduce this through the bitstream.
        let z = FaultySnow3g::new(TEST_SET_1_KEY, TEST_SET_1_IV, FaultSpec::alpha()).keystream(16);
        assert_eq!(z, PAPER_TABLE_IV);
    }
}
