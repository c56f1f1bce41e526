//! Gang simulation: 64 independently configured devices evaluated in
//! bit-parallel lockstep.
//!
//! A [`GangConfiguredFpga`] packs up to [`GANG_LANES`] configurations
//! of the *same* device into one `u64` word per net, where bit *i* is
//! lane *i*'s boolean value. LUT evaluation becomes a word-wide
//! binary mux-tree reduction over pre-decoded per-lane truth-table
//! bit-planes, flip-flop latching is a word copy, and one [`step`]
//! advances all lanes at once — the throughput primitive behind
//! batched oracle queries (`Snow3gBoard::load` over several lanes).
//!
//! Lane *i* is bit-identical to the scalar [`ConfiguredFpga`]
//! programmed with the same bitstream: the bit-planes are built by
//! calling the scalar truth-table evaluators row by row, and the gang
//! walks the same precomputed topological order, so equivalence holds
//! by construction and is additionally pinned by a differential
//! property test.
//!
//! [`step`]: GangConfiguredFpga::step
//! [`ConfiguredFpga`]: crate::fabric::ConfiguredFpga

use boolfn::DualOutputInit;

use bitstream::Bitstream;

use crate::fabric::{EvalStep, Fpga, NetId, ProgramError};

/// Number of simulated devices packed into one gang word.
pub const GANG_LANES: usize = 64;

/// Pre-decoded truth tables for one LUT cell across all lanes.
///
/// `planes[r]` holds, in bit *i*, lane *i*'s truth-table output for
/// input row *r* — so selecting row `addr[lane]` in every lane at
/// once is a `log2(rows)` chain of word-wide 2:1 muxes.
#[derive(Debug, Clone)]
enum GangLut {
    /// Single-output mode: O6 reads the full 64-row table.
    Single { planes: Box<[u64; 64]> },
    /// Fractured mode: O5 and O6 each read a 32-row half sharing
    /// pins `a1..a5`.
    Fractured { o5: Box<[u64; 32]>, o6: Box<[u64; 32]> },
}

/// Selects one row per lane from a plane set: `planes[r]` bit *i* is
/// lane *i*'s table bit at row `r`; `addr[p]` bit *i* is lane *i*'s
/// pin `p`. Standard binary reduction: each level folds the planes in
/// half with a word-wide mux on the next address bit.
fn mux_tree(planes: &[u64], addr: impl Fn(usize) -> u64) -> u64 {
    debug_assert!(planes.len().is_power_of_two());
    if planes.len() == 1 {
        return planes[0];
    }
    // The first level folds straight out of `planes`, so the planes
    // are read once instead of copied wholesale into scratch first.
    let mut scratch = [0u64; 32];
    let a = addr(0);
    let mut n = planes.len() / 2;
    for r in 0..n {
        scratch[r] = (planes[2 * r] & !a) | (planes[2 * r + 1] & a);
    }
    let mut level = 1;
    while n > 1 {
        let a = addr(level);
        for r in 0..n / 2 {
            scratch[r] = (scratch[2 * r] & !a) | (scratch[2 * r + 1] & a);
        }
        n /= 2;
        level += 1;
    }
    scratch[0]
}

/// Up to 64 configured devices clocked in lockstep.
///
/// Construct with [`Fpga::program_gang`] (whole-gang validation) or
/// [`GangConfiguredFpga::with_inits`] from per-lane INIT vectors
/// decoded by [`Fpga::decode_lut_inits`] (per-lane error handling).
#[derive(Debug, Clone)]
pub struct GangConfiguredFpga<'a> {
    fpga: &'a Fpga,
    lanes: usize,
    luts: Vec<GangLut>,
    /// Per-net lane words; bit *i* is lane *i*'s value.
    values: Vec<u64>,
    /// FF double buffer, index-aligned with `db.ffs`.
    latch: Vec<u64>,
    /// Same laziness contract as the scalar simulator: when set, the
    /// pre-latch evaluation in `step` is skipped.
    clean: bool,
    cycle: u64,
}

impl Fpga {
    /// Configures up to [`GANG_LANES`] bitstreams onto one gang
    /// simulator. Every lane is validated exactly like
    /// [`Fpga::program`]; the first failing lane aborts the whole
    /// gang (use [`Fpga::decode_lut_inits`] plus
    /// [`GangConfiguredFpga::with_inits`] for per-lane fallout).
    ///
    /// # Errors
    ///
    /// Returns the first lane's [`ProgramError`] if any bitstream
    /// fails to parse or validate.
    ///
    /// # Panics
    ///
    /// Panics if `bitstreams` is empty or has more than
    /// [`GANG_LANES`] entries.
    pub fn program_gang<'a>(
        &'a self,
        bitstreams: &[&Bitstream],
    ) -> Result<GangConfiguredFpga<'a>, ProgramError> {
        let mut lanes = Vec::with_capacity(bitstreams.len());
        for bs in bitstreams {
            lanes.push(self.decode_lut_inits(bs)?);
        }
        Ok(GangConfiguredFpga::with_inits(self, &lanes))
    }
}

impl<'a> GangConfiguredFpga<'a> {
    /// Builds a gang from already-decoded per-lane INIT vectors (one
    /// `Vec<DualOutputInit>` per lane, as returned by
    /// [`Fpga::decode_lut_inits`]).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty, has more than [`GANG_LANES`]
    /// entries, or a lane's INIT count does not match the device's
    /// LUT count.
    #[must_use]
    pub fn with_inits(fpga: &'a Fpga, lanes: &[Vec<DualOutputInit>]) -> Self {
        assert!(
            !lanes.is_empty() && lanes.len() <= GANG_LANES,
            "gang wants 1..={GANG_LANES} lanes, got {}",
            lanes.len()
        );
        let db = &fpga.db;
        for (i, lane) in lanes.iter().enumerate() {
            assert_eq!(lane.len(), db.luts.len(), "lane {i} INIT count");
        }
        let luts = db
            .luts
            .iter()
            .enumerate()
            .map(|(cell_idx, cell)| {
                // Batched oracle queries differ from their reference
                // lane in at most a couple of LUTs, so most cells
                // carry the same INIT in every lane: evaluate lane 0's
                // tables once and broadcast the row bit to every lane
                // with a matching INIT; only divergent lanes pay a
                // per-lane evaluation.
                let base = lanes[0][cell_idx];
                let mut broadcast = 0u64;
                for (lane_idx, lane) in lanes.iter().enumerate() {
                    if lane[cell_idx] == base {
                        broadcast |= 1 << lane_idx;
                    }
                }
                let rest =
                    || lanes.iter().enumerate().filter(move |(i, _)| (broadcast >> i) & 1 == 0);
                if cell.o5.is_none() {
                    let mut planes = Box::new([0u64; 64]);
                    let table = base.o6();
                    for (r, plane) in planes.iter_mut().enumerate() {
                        if table.eval(r as u8) {
                            *plane |= broadcast;
                        }
                    }
                    for (lane_idx, lane) in rest() {
                        let table = lane[cell_idx].o6();
                        for (r, plane) in planes.iter_mut().enumerate() {
                            *plane |= u64::from(table.eval(r as u8)) << lane_idx;
                        }
                    }
                    GangLut::Single { planes }
                } else {
                    let mut o5 = Box::new([0u64; 32]);
                    let mut o6 = Box::new([0u64; 32]);
                    let (b5, b6) = (base.o5(), base.o6_fractured());
                    for r in 0..32u8 {
                        o5[usize::from(r)] |= u64::from(b5.eval(r)) * broadcast;
                        o6[usize::from(r)] |= u64::from(b6.eval(r)) * broadcast;
                    }
                    for (lane_idx, lane) in rest() {
                        let t5 = lane[cell_idx].o5();
                        let t6 = lane[cell_idx].o6_fractured();
                        for r in 0..32u8 {
                            o5[usize::from(r)] |= u64::from(t5.eval(r)) << lane_idx;
                            o6[usize::from(r)] |= u64::from(t6.eval(r)) << lane_idx;
                        }
                    }
                    GangLut::Fractured { o5, o6 }
                }
            })
            .collect();
        // Power-up state is lane-independent: FF INITs and ties come
        // from the static database, so a set bit fills every lane.
        let mut values = vec![0u64; fpga.net_count];
        for ff in &db.ffs {
            if ff.init {
                values[ff.q.index()] = u64::MAX;
            }
        }
        for &(net, v) in &db.ties {
            if v {
                values[net.index()] = u64::MAX;
            }
        }
        let latch = vec![0u64; db.ffs.len()];
        Self { fpga, lanes: lanes.len(), luts, values, latch, clean: false, cycle: 0 }
    }

    /// Number of active lanes (1..=[`GANG_LANES`]).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Clock cycles executed.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drives a primary input net on every lane at once: bit *i* of
    /// `mask` is lane *i*'s value (use `u64::MAX` to assert the net
    /// everywhere).
    pub fn set_input(&mut self, net: NetId, mask: u64) {
        self.values[net.index()] = mask;
        self.clean = false;
    }

    /// The current value of a net on one lane (after the last
    /// evaluation).
    #[must_use]
    pub fn net(&self, lane: usize, net: NetId) -> bool {
        debug_assert!(lane < self.lanes);
        (self.values[net.index()] >> lane) & 1 == 1
    }

    /// Reads up to 32 nets on one lane as a word, LSB first — the
    /// gang counterpart of `ConfiguredFpga::word`.
    #[must_use]
    pub fn word(&self, lane: usize, nets: &[NetId]) -> u32 {
        nets.iter().enumerate().fold(0u32, |acc, (i, &n)| acc | (u32::from(self.net(lane, n)) << i))
    }

    /// One word-wide combinational pass over the shared topological
    /// order: lane-for-lane the same computation as the scalar
    /// `evaluate`.
    fn evaluate(&mut self) {
        let db = &self.fpga.db;
        for &step in &self.fpga.order {
            match step {
                EvalStep::Lut(i) => {
                    let cell = &db.luts[i];
                    let pin = |p: usize| {
                        // Unconnected pins read low on every lane,
                        // matching the scalar `addr & 0x3F` masking.
                        cell.inputs.get(p).map_or(0u64, |net| self.values[net.index()])
                    };
                    match &self.luts[i] {
                        GangLut::Single { planes } => {
                            self.values[cell.o6.index()] = mux_tree(&planes[..], pin);
                        }
                        GangLut::Fractured { o5, o6 } => {
                            let o5_word = mux_tree(&o5[..], pin);
                            let o6_word = mux_tree(&o6[..], pin);
                            self.values[cell.o5.expect("fractured cell has o5").index()] = o5_word;
                            self.values[cell.o6.index()] = o6_word;
                        }
                    }
                }
                EvalStep::Bram(i) => {
                    // Each lane addresses the shared ROM
                    // independently, so the lookup is a per-lane
                    // gather; the 32 data bits are then scattered
                    // back as lane words.
                    let cell = &db.brams[i];
                    let mut data_words = [0u64; 32];
                    debug_assert!(cell.data.len() <= data_words.len());
                    for lane in 0..self.lanes {
                        let mut a = 0usize;
                        for (p, net) in cell.addr.iter().enumerate() {
                            if (self.values[net.index()] >> lane) & 1 == 1 {
                                a |= 1 << p;
                            }
                        }
                        let word = cell.table[a];
                        for (bit, slot) in data_words.iter_mut().enumerate().take(cell.data.len()) {
                            *slot |= u64::from((word >> bit) & 1) << lane;
                        }
                    }
                    for (bit, net) in cell.data.iter().enumerate() {
                        self.values[net.index()] = data_words[bit];
                    }
                }
            }
        }
    }

    /// Runs one clock cycle on every lane with the current input
    /// values — same two-phase latch and laziness contract as the
    /// scalar `step`.
    pub fn step(&mut self) {
        if !self.clean {
            self.evaluate();
        }
        let db = &self.fpga.db;
        for (slot, ff) in self.latch.iter_mut().zip(&db.ffs) {
            *slot = self.values[ff.d.index()];
        }
        for (slot, ff) in self.latch.iter().zip(&db.ffs) {
            self.values[ff.q.index()] = *slot;
        }
        self.cycle += 1;
        self.evaluate();
        self.clean = true;
    }

    /// Runs `n` clock cycles.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{FfCell, LutCell, RoutingDb};
    use crate::geom::{Geometry, SiteId};
    use bitstream::{codec, BitstreamBuilder, FrameData};
    use netlist::NodeId;

    fn n(i: u32) -> NetId {
        NodeId(i)
    }

    /// The fabric test device: one XOR LUT fed by a toggle FF and a
    /// hold FF.
    fn tiny() -> Fpga {
        let geometry = Geometry::with_columns(2);
        let db = RoutingDb {
            luts: vec![
                LutCell {
                    site: SiteId { col: 0, row: 0, lut: 0 },
                    inputs: vec![n(0), n(1)],
                    o6: n(2),
                    o5: None,
                },
                LutCell {
                    site: SiteId { col: 1, row: 3, lut: 2 },
                    inputs: vec![n(0)],
                    o6: n(3),
                    o5: None,
                },
            ],
            ffs: vec![
                FfCell { q: n(0), d: n(3), init: false },
                FfCell { q: n(1), d: n(1), init: true },
            ],
            brams: vec![],
            inputs: vec![],
            ties: vec![],
        };
        Fpga::new(geometry, db)
    }

    fn bitstream_for(fpga: &Fpga, lut0: u64, lut1: u64) -> Bitstream {
        let mut frames = FrameData::new(fpga.geometry().frame_count());
        let loc0 = fpga.geometry().lut_location(SiteId { col: 0, row: 0, lut: 0 });
        let loc1 = fpga.geometry().lut_location(SiteId { col: 1, row: 3, lut: 2 });
        codec::write_lut(frames.as_mut_bytes(), loc0, DualOutputInit::new(lut0));
        codec::write_lut(frames.as_mut_bytes(), loc1, DualOutputInit::new(lut1));
        BitstreamBuilder::new(frames).build()
    }

    #[test]
    fn lanes_track_their_own_configuration() {
        let fpga = tiny();
        let xor = boolfn::TruthTable::var(6, 1).xor(boolfn::TruthTable::var(6, 2)).bits();
        let and = boolfn::TruthTable::var(6, 1).and(boolfn::TruthTable::var(6, 2)).bits();
        let inv = boolfn::TruthTable::var(6, 1).not().bits();
        let lane_inits = [xor, and, 0u64];
        let streams: Vec<Bitstream> =
            lane_inits.iter().map(|&i| bitstream_for(&fpga, i, inv)).collect();
        let refs: Vec<&Bitstream> = streams.iter().collect();
        let mut gang = fpga.program_gang(&refs).expect("programs");
        let mut scalars: Vec<_> =
            streams.iter().map(|bs| fpga.program(bs).expect("programs")).collect();
        for _ in 0..8 {
            gang.step();
            for (lane, dev) in scalars.iter_mut().enumerate() {
                dev.step();
                for net in 0..4u32 {
                    assert_eq!(
                        gang.net(lane, n(net)),
                        dev.net(n(net)),
                        "lane {lane} net {net} cycle {}",
                        gang.cycle()
                    );
                }
            }
        }
    }

    #[test]
    fn gang_word_matches_scalar_word() {
        let fpga = tiny();
        let xor = boolfn::TruthTable::var(6, 1).xor(boolfn::TruthTable::var(6, 2)).bits();
        let inv = boolfn::TruthTable::var(6, 1).not().bits();
        let bs = bitstream_for(&fpga, xor, inv);
        let mut gang = fpga.program_gang(&[&bs]).expect("programs");
        let mut dev = fpga.program(&bs).expect("programs");
        let nets = [n(2), n(3), n(0)];
        for _ in 0..5 {
            gang.step();
            dev.step();
            assert_eq!(gang.word(0, &nets), dev.word(&nets));
        }
    }

    #[test]
    fn bad_lane_aborts_program_gang() {
        let fpga = tiny();
        let inv = boolfn::TruthTable::var(6, 1).not().bits();
        let good = bitstream_for(&fpga, 0, inv);
        let mut bad = bitstream_for(&fpga, 0, inv);
        let range = bad.fdri_data_range().expect("fdri");
        bad.as_mut_bytes()[range.start + 1] ^= 0x10; // break the CRC
        assert!(fpga.program_gang(&[&good, &bad]).is_err());
    }

    #[test]
    #[should_panic(expected = "lanes")]
    fn empty_gang_panics() {
        let fpga = tiny();
        let _ = GangConfiguredFpga::with_inits(&fpga, &[]);
    }
}
