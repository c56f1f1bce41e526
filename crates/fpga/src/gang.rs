//! The device simulator: up to 64 independently configured devices
//! evaluated in bit-parallel lockstep.
//!
//! A [`GangConfiguredFpga`] packs up to [`GANG_LANES`] configurations
//! of the *same* device into one `u64` word per net, where bit *i* is
//! lane *i*'s boolean value. Flip-flop latching is a word copy, and
//! one [`step`] advances all lanes at once — the throughput primitive
//! behind batched oracle queries. It is the only simulator: a lone
//! load (`Snow3gBoard::load` with one live lane, [`Fpga::program`]) is
//! a one-lane pass.
//!
//! Building a gang compiles its LUTs into one flat list of product
//! terms, in the device's topological order. Each distinct INIT a
//! cell holds across the lanes is turned into algebraic normal form
//! (ANF, an XOR of ANDs of input pins) by a Möbius transform; the
//! mapped SNOW 3G cells are XOR-of-2/3 covers, so a whole pass is a
//! few thousand short products. A cell whose lanes disagree blends
//! its INITs under disjoint lane masks: `OR(f_g & mask_g)`, which is
//! `XOR(f_g & mask_g)` because the masks are disjoint, so the mask is
//! just one more literal of each of group *g*'s products. Block RAMs
//! are read through bit-matrix transposes: per-lane address bytes in,
//! per-bit lane words out.
//!
//! Lane *i* behaves as one device programmed with lane *i*'s
//! bitstream. That rests on the Möbius transform being the exact
//! truth-table-to-ANF inverse (checked over single-variable, constant
//! and random tables by this module's tests) and on the
//! `gang_differential` property test, which runs random devices
//! through the gang and through a plain per-net reference evaluator
//! lane for lane.
//!
//! [`step`]: GangConfiguredFpga::step

use boolfn::DualOutputInit;

use bitstream::Bitstream;

use crate::fabric::{BramCellDb, EvalStep, Fpga, NetId, ProgramError};

/// Number of simulated devices packed into one gang word.
pub const GANG_LANES: usize = 64;

/// Literals per compiled term. A longer product first stores its
/// trailing literals' AND in a slot of its own.
const TERM_LITS: usize = 4;
/// `Term::ctl` flag: the output's last term; the XOR restarts after it.
const END: u32 = 1 << 31;
/// `Term::ctl` bits holding the destination slot.
const DST: u32 = END - 1;

/// Masks of the Möbius transform's butterfly steps: step *i* folds
/// every truth-table row with variable *i* set onto its partner row.
const MOBIUS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The ANF of a truth table over `vars` variables: bit *m* of the
/// result is the coefficient of the monomial of the variables set in
/// *m*. Over 5 variables the two 32-bit halves transform
/// independently, which is exactly a fractured LUT's O5/O6 pair.
fn anf(table: u64, vars: usize) -> u64 {
    MOBIUS[..vars].iter().enumerate().fold(table, |t, (i, &m)| t ^ ((t << (1 << i)) & m))
}

/// A value-slot index in the term encoding.
fn slot(i: usize) -> u32 {
    let s = u32::try_from(i).expect("slot fits the term encoding");
    assert!(s <= DST, "slot {s} past the term encoding");
    s
}

/// One product term of a compiled LUT output: the AND of
/// [`TERM_LITS`] value slots (padded with the all-ones slot), XORed
/// into the running output, which is stored to the `ctl` destination.
#[derive(Debug, Clone, Copy)]
struct Term {
    lits: [u32; TERM_LITS],
    ctl: u32,
}

/// Transposes an 8 × 8 bit matrix held one row per byte: bit *c* of
/// byte *r* moves to bit *r* of byte *c*.
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Turns 64 per-lane 32-bit words into 32 lane words: bit *l* of
/// `out[b]` is bit *b* of `words[l]`.
fn transpose_lanes(words: &[u32; GANG_LANES]) -> [u64; 32] {
    let mut rows: [u64; 32] =
        core::array::from_fn(|k| u64::from(words[k]) | (u64::from(words[k + 32]) << 32));
    transpose_halves(&mut rows);
    rows
}

/// Transposes the two 32 × 32 bit blocks of `rows` (the low and the
/// high halves) side by side in five block-swap rounds: bit *c* of
/// row *r* moves to bit *r* of row *c* within each half. It is its
/// own inverse, so it turns lane words back into per-lane words too.
fn transpose_halves(rows: &mut [u64; 32]) {
    // Round `j` swaps the off-diagonal j × j blocks of every 2j × 2j
    // block: bit c + j of row k with bit c of row k + j.
    let mut mask = 0x0000_FFFF_0000_FFFFu64;
    for j in [16, 8, 4, 2, 1] {
        for block in rows.chunks_exact_mut(2 * j) {
            let (lo, hi) = block.split_at_mut(j);
            for (a, b) in lo.iter_mut().zip(hi) {
                let t = ((*a >> j) ^ *b) & mask;
                *b ^= t;
                *a ^= t << j;
            }
        }
        mask ^= mask << (j / 2);
    }
}

/// Up to 64 configured devices clocked in lockstep.
///
/// Construct with [`Fpga::program`] (one lane), [`Fpga::program_gang`]
/// (whole-gang validation) or [`GangConfiguredFpga::with_inits`] from
/// per-lane INIT vectors decoded by [`Fpga::decode_lut_inits`]
/// (per-lane error handling).
#[derive(Debug, Clone)]
pub struct GangConfiguredFpga<'a> {
    fpga: &'a Fpga,
    lanes: usize,
    /// Every LUT output's product terms, in evaluation order.
    terms: Vec<Term>,
    /// `(terms before it, BRAM index)` for each block RAM, in
    /// evaluation order.
    brams: Vec<(usize, usize)>,
    /// Value slots, one lane word each: the nets, the all-ones and
    /// all-zeros slots, then the lane mask of each INIT group of every
    /// blended cell and the stored tail of every long product.
    values: Vec<u64>,
    /// FF double buffer, index-aligned with `db.ffs`.
    latch: Vec<u64>,
    /// Whether `values` reflects a completed combinational evaluation
    /// of the current state. Cleared by `set_input`; when set, the
    /// pre-latch evaluation in `step` is skipped.
    clean: bool,
    cycle: u64,
}

impl Fpga {
    /// Configures the device from a bitstream: parses it, enforces the
    /// CRC if present, loads every LUT site's INIT value, and returns
    /// the device just out of global set/reset (every FF at its
    /// power-up value, ties driven) as a one-lane gang.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if parsing fails, the CRC mismatches
    /// or the payload size is wrong.
    pub fn program(&self, bs: &Bitstream) -> Result<GangConfiguredFpga<'_>, ProgramError> {
        self.program_gang(&[bs])
    }

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

/// A pass being compiled: the term list and the value slots it reads.
struct Compiler {
    terms: Vec<Term>,
    /// The output being compiled, held back while its long products
    /// store their tails (reused across outputs).
    body: Vec<Term>,
    values: Vec<u64>,
    /// The all-ones slot; the all-zeros slot follows it.
    one: u32,
}

impl Compiler {
    /// Value slots for `net_count` nets, then the all-ones and
    /// all-zeros slots.
    fn new(net_count: usize, luts: usize) -> Self {
        let mut values = vec![0u64; net_count + 2];
        values[net_count] = u64::MAX;
        Self { terms: Vec::with_capacity(8 * luts), body: Vec::new(), values, one: slot(net_count) }
    }

    /// A fresh value slot holding `word`.
    fn new_slot(&mut self, word: u64) -> u32 {
        self.values.push(word);
        slot(self.values.len() - 1)
    }

    /// Appends the products of one LUT output. `groups` holds each INIT
    /// group's ANF with its lane-mask slot (`None` when one INIT serves
    /// every lane); `pins` holds the slots of the connected pins, so a
    /// monomial naming a pin past them reads an unconnected (low) pin
    /// and drops out. An output with no product left is constant 0. A
    /// product longer than [`TERM_LITS`] first stores the AND of its
    /// trailing literals in a fresh slot, ahead of the output's terms.
    fn output(&mut self, dst: u32, pins: &[u32], groups: &[(u64, Option<u32>)]) {
        let one = self.one;
        let connected = if pins.len() == 6 { u64::MAX } else { (1u64 << (1 << pins.len())) - 1 };
        let window = |lits: &[u32], k: usize| -> [u32; TERM_LITS] {
            lits[k..k + TERM_LITS].try_into().expect("a full window")
        };
        self.body.clear();
        for &(anf, mask) in groups {
            let mut monomials = anf & connected;
            while monomials != 0 {
                // A mask literal, then one literal per pin of the
                // monomial, padded with the all-ones slot (so the empty
                // product reads all ones).
                let mut lits = [one; 3 + TERM_LITS];
                let mut len = 0;
                if let Some(mask) = mask {
                    lits[0] = mask;
                    len = 1;
                }
                let mut m = monomials.trailing_zeros();
                monomials &= monomials - 1;
                while m != 0 {
                    lits[len] = pins[m.trailing_zeros() as usize];
                    m &= m - 1;
                    len += 1;
                }
                if len > TERM_LITS {
                    // The literals from the fourth on go first into a
                    // slot of their own, which stands in for them.
                    let temp = self.new_slot(0);
                    self.terms.push(Term { lits: window(&lits, 3), ctl: temp | END });
                    lits[3] = temp;
                }
                self.body.push(Term { lits: window(&lits, 0), ctl: dst });
            }
        }
        if self.body.is_empty() {
            self.body.push(Term { lits: [one + 1, one, one, one], ctl: dst });
        }
        self.body.last_mut().expect("at least one term").ctl |= END;
        self.terms.extend_from_slice(&self.body);
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
        let mut c = Compiler::new(fpga.net_count, db.luts.len());
        let mut brams = Vec::with_capacity(db.brams.len());
        // Batched queries differ from lane 0 in a few cells: one
        // sequential sweep per lane finds them, so every other cell
        // skips the per-lane grouping.
        let mut diverges = vec![false; db.luts.len()];
        for lane in &lanes[1..] {
            for ((d, a), b) in diverges.iter_mut().zip(lane).zip(&lanes[0]) {
                *d |= a != b;
            }
        }
        let all = u64::MAX >> (GANG_LANES - lanes.len());
        // The cell being compiled: its lane groups as (INIT, lane
        // mask), then each group's ANF and mask slot.
        let mut groups = [(DualOutputInit::default(), 0u64); GANG_LANES];
        let mut anfs = [(0u64, None); GANG_LANES];
        for &step in &fpga.order {
            let i = match step {
                EvalStep::Lut(i) => i,
                EvalStep::Bram(i) => {
                    brams.push((c.terms.len(), i));
                    continue;
                }
            };
            let cell = &db.luts[i];
            let mut n = 1;
            groups[0] = (lanes[0][i], all);
            if diverges[i] {
                groups[0].1 = 0;
                for (lane, inits) in lanes.iter().enumerate() {
                    let init = inits[i];
                    let g = groups[..n].iter().position(|&(g, _)| g == init).unwrap_or_else(|| {
                        groups[n] = (init, 0);
                        n += 1;
                        n - 1
                    });
                    groups[g].1 |= 1 << lane;
                }
            }
            // A cell held by one INIT in every lane needs no mask;
            // otherwise each group's lane mask gets a value slot.
            let vars = if cell.o5.is_some() { 5 } else { 6 };
            for (anf_g, &(init, mask)) in anfs.iter_mut().zip(&groups[..n]) {
                *anf_g = (anf(init.init(), vars), (n > 1).then(|| c.new_slot(mask)));
            }
            let mut pins = [0u32; 6];
            let pins = &mut pins[..cell.inputs.len().min(vars)];
            for (pin, net) in pins.iter_mut().zip(&cell.inputs) {
                *pin = slot(net.index());
            }
            // Fractured cells share pins a1..a5: O5 reads the ANF's
            // low half (the pin mask drops the high one), O6 the high.
            for dst in [cell.o5, Some(cell.o6)].into_iter().flatten() {
                c.output(slot(dst.index()), pins, &anfs[..n]);
                for (a, _) in &mut anfs[..n] {
                    *a >>= 32;
                }
            }
        }
        let Compiler { terms, mut values, .. } = c;
        // Power-up state is lane-independent: FF INITs and ties come
        // from the static database, so a set bit fills every lane.
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
        Self { fpga, lanes: lanes.len(), terms, brams, values, latch, clean: false, cycle: 0 }
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

    /// Reads up to 32 nets on one lane as a word, LSB first.
    #[must_use]
    pub fn word(&self, lane: usize, nets: &[NetId]) -> u32 {
        nets.iter().enumerate().fold(0u32, |acc, (i, &n)| acc | (u32::from(self.net(lane, n)) << i))
    }

    /// Reads up to 32 nets on every lane at once, LSB first: `out[l]`
    /// is `self.word(l, nets)`, by one 32 × 64 transpose instead of
    /// per-lane bit reads. Entries past [`Self::lanes`] are
    /// unspecified.
    ///
    /// # Panics
    ///
    /// Panics if more than 32 nets are given.
    #[must_use]
    pub fn lane_words(&self, nets: &[NetId]) -> [u32; GANG_LANES] {
        assert!(nets.len() <= 32, "a word holds at most 32 nets");
        let mut rows = [0u64; 32];
        for (row, net) in rows.iter_mut().zip(nets) {
            *row = self.values[net.index()];
        }
        transpose_halves(&mut rows);
        core::array::from_fn(|l| (rows[l % 32] >> (32 * (l / 32))) as u32)
    }

    /// One word-wide combinational pass: the compiled terms run in
    /// the device's topological order, broken only by the block RAMs.
    fn evaluate(&mut self) {
        let mut start = 0;
        for &(end, bram) in &self.brams {
            run_terms(&self.terms[start..end], &mut self.values);
            read_bram(&self.fpga.db.brams[bram], self.lanes, &mut self.values);
            start = end;
        }
        run_terms(&self.terms[start..], &mut self.values);
    }

    /// Runs one clock cycle on every lane with the current input
    /// values: evaluate, latch every FF's D input at once, evaluate.
    pub fn step(&mut self) {
        // Evaluation is idempotent, so when the previous step's
        // post-latch evaluation is still current (no input changed in
        // between) the pre-latch pass would recompute the same values
        // and is skipped — back-to-back steps pay one pass, not two.
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

/// Runs compiled terms over the value slots without branching on the
/// term shape: every term XORs the AND of its literals into the
/// running output and stores it to its destination; the XOR restarts
/// after an output's last term.
fn run_terms(terms: &[Term], values: &mut [u64]) {
    let mut sum = 0u64;
    for t in terms {
        let [a, b, c, d] = t.lits;
        sum ^= values[a as usize] & values[b as usize] & values[c as usize] & values[d as usize];
        values[(t.ctl & DST) as usize] = sum;
        sum &= u64::from(t.ctl >> 31).wrapping_sub(1);
    }
}

/// Reads a block RAM on every lane: each block of 8 lanes transposes
/// its address bits into per-lane address bytes and reads the ROM once
/// per lane; the 32 data bits then transpose back into lane words.
fn read_bram(cell: &BramCellDb, lanes: usize, values: &mut [u64]) {
    debug_assert!(cell.addr.len() <= 8 && cell.data.len() <= 32);
    let mut words = [0u32; GANG_LANES];
    for (block, words) in words.chunks_exact_mut(8).take(lanes.div_ceil(8)).enumerate() {
        let shift = 8 * block;
        let mut rows = 0u64;
        for (p, net) in cell.addr.iter().enumerate() {
            rows |= ((values[net.index()] >> shift) & 0xFF) << (8 * p);
        }
        let addrs = transpose8(rows).to_le_bytes();
        for (word, &a) in words.iter_mut().zip(&addrs) {
            *word = cell.table[usize::from(a)];
        }
    }
    for (net, word) in cell.data.iter().zip(transpose_lanes(&words)) {
        values[net.index()] = word;
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

    /// Each lane of a gang whose cells blend several INITs steps like
    /// the same bitstream programmed alone, as a one-lane gang.
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
        let mut alone: Vec<_> =
            streams.iter().map(|bs| fpga.program(bs).expect("programs")).collect();
        for _ in 0..8 {
            gang.step();
            for (lane, dev) in alone.iter_mut().enumerate() {
                dev.step();
                for net in 0..4u32 {
                    assert_eq!(
                        gang.net(lane, n(net)),
                        dev.net(0, n(net)),
                        "lane {lane} net {net} cycle {}",
                        gang.cycle()
                    );
                }
            }
        }
    }

    /// `word` packs the nets' bits LSB first, and the tiny device
    /// follows its truth tables: q0 toggles, q1 holds 1, the XOR LUT
    /// reads `q0 ^ q1` and the inverter `!q0`.
    #[test]
    fn gang_word_matches_scalar_word() {
        let fpga = tiny();
        let xor = boolfn::TruthTable::var(6, 1).xor(boolfn::TruthTable::var(6, 2)).bits();
        let inv = boolfn::TruthTable::var(6, 1).not().bits();
        let bs = bitstream_for(&fpga, xor, inv);
        let mut dev = fpga.program(&bs).expect("programs");
        let nets = [n(2), n(3), n(0)];
        for cycle in 1..=5u32 {
            dev.step();
            let q0 = cycle % 2;
            let bits = nets.iter().enumerate().map(|(i, &net)| u32::from(dev.net(0, net)) << i);
            assert_eq!(dev.word(0, &nets), bits.sum::<u32>());
            assert_eq!(dev.word(0, &nets), (q0 ^ 1) | ((q0 ^ 1) << 1) | (q0 << 2), "cycle {cycle}");
        }
    }

    #[test]
    fn lane_words_match_per_lane_words() {
        let fpga = tiny();
        let xor = boolfn::TruthTable::var(6, 1).xor(boolfn::TruthTable::var(6, 2)).bits();
        let and = boolfn::TruthTable::var(6, 1).and(boolfn::TruthTable::var(6, 2)).bits();
        let inv = boolfn::TruthTable::var(6, 1).not().bits();
        let streams: Vec<Bitstream> =
            [xor, and, 0, xor].iter().map(|&i| bitstream_for(&fpga, i, inv)).collect();
        let refs: Vec<&Bitstream> = streams.iter().collect();
        let mut gang = fpga.program_gang(&refs).expect("programs");
        let nets = [n(2), n(3), n(0), n(1), n(2)];
        for _ in 0..6 {
            gang.step();
            let words = gang.lane_words(&nets);
            for (lane, &w) in words.iter().enumerate().take(gang.lanes()) {
                assert_eq!(w, gang.word(lane, &nets), "lane {lane} cycle {}", gang.cycle());
            }
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

    /// The ANF evaluated at every row rebuilds the truth table: a row
    /// is the XOR of the coefficients of the monomials it covers.
    #[test]
    fn mobius_transform_inverts_to_the_truth_table() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut tables: Vec<u64> =
            (0..6).map(|v| boolfn::TruthTable::var(6, v + 1).bits()).collect();
        tables.extend([0, u64::MAX]);
        tables.extend((0..64).map(|_| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            state ^ (state >> 29)
        }));
        for table in tables {
            for (vars, rows) in [(6, 64u32), (5, 32)] {
                let coeffs = anf(table, vars);
                for half in 0..64 / rows {
                    for row in 0..rows {
                        let covered = (0..rows)
                            .filter(|&m| m & row == m)
                            .fold(0, |acc, m| acc ^ (coeffs >> (half * rows + m)) & 1);
                        assert_eq!(
                            covered,
                            (table >> (half * rows + row)) & 1,
                            "{table:#x} {vars}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transposes_match_bit_by_bit_moves() {
        let x = 0x0123_4567_89AB_CDEFu64;
        let t = transpose8(x);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!((t >> (8 * c + r)) & 1, (x >> (8 * r + c)) & 1);
            }
        }
        let mut words = [0u32; GANG_LANES];
        for (l, w) in words.iter_mut().enumerate() {
            *w = (l as u32).wrapping_mul(0x9E37_79B9) ^ 0x5A5A_0F0F;
        }
        let lanes = transpose_lanes(&words);
        for (b, lane_word) in lanes.iter().enumerate() {
            for (l, w) in words.iter().enumerate() {
                assert_eq!((lane_word >> l) & 1, u64::from((w >> b) & 1), "bit {b} lane {l}");
            }
        }
        let mut back = lanes;
        transpose_halves(&mut back);
        for (l, w) in words.iter().enumerate() {
            assert_eq!((back[l % 32] >> (32 * (l / 32))) as u32, *w, "lane {l}");
        }
    }

    #[test]
    #[should_panic(expected = "lanes")]
    fn empty_gang_panics() {
        let fpga = tiny();
        let _ = GangConfiguredFpga::with_inits(&fpga, &[]);
    }
}
