//! The device fabric: static routing database, configuration from a
//! bitstream, and cycle simulation.

use core::fmt;
use std::collections::HashMap;

use boolfn::DualOutputInit;
use netlist::NodeId;

use bitstream::partial::{ParsePartialError, PartialBitstream};
use bitstream::{codec, Bitstream, DeltaCrc, FrameData, ParseBitstreamError, FRAME_BYTES};

use crate::geom::{Geometry, SiteId};

/// A net identifier (inherited from the source design's node ids).
pub type NetId = NodeId;

/// A placed LUT cell: the site tells the configuration logic where
/// its truth table lives; the nets are part of the static routing.
#[derive(Debug, Clone)]
pub struct LutCell {
    /// The physical site.
    pub site: SiteId,
    /// Input nets in pin order `a1..`.
    pub inputs: Vec<NetId>,
    /// Net driven by O6.
    pub o6: NetId,
    /// Net driven by O5 (fractured LUTs).
    pub o5: Option<NetId>,
}

/// A flip-flop cell.
#[derive(Debug, Clone, Copy)]
pub struct FfCell {
    /// Output net.
    pub q: NetId,
    /// Data input net.
    pub d: NetId,
    /// Power-up value (set by global set/reset at configuration).
    pub init: bool,
}

/// A block RAM configured as a 256×32 ROM. Contents are part of the
/// static database in this model (see DESIGN.md).
#[derive(Debug, Clone)]
pub struct BramCellDb {
    /// ROM contents.
    pub table: Box<[u32; 256]>,
    /// Address nets (LSB first).
    pub addr: Vec<NetId>,
    /// Data nets (LSB first).
    pub data: Vec<NetId>,
}

/// The static part of an implemented design: everything except LUT
/// truth tables.
#[derive(Debug, Clone, Default)]
pub struct RoutingDb {
    /// Placed LUTs.
    pub luts: Vec<LutCell>,
    /// Flip-flops.
    pub ffs: Vec<FfCell>,
    /// Block RAMs.
    pub brams: Vec<BramCellDb>,
    /// Primary input nets with names.
    pub inputs: Vec<(String, NetId)>,
    /// Nets tied to constants.
    pub ties: Vec<(NetId, bool)>,
}

/// An error from [`Fpga::program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The bitstream failed to parse or its CRC mismatched — the
    /// device refuses configuration (INIT_B low).
    Bitstream(ParseBitstreamError),
    /// The payload has the wrong number of frames for this device.
    WrongFrameCount {
        /// Frames found.
        got: usize,
        /// Frames the device expects.
        expected: usize,
    },
    /// The bitstream was built for a different device (IDCODE
    /// mismatch) — real devices refuse such streams.
    WrongDevice {
        /// IDCODE found in the stream, if any.
        got: Option<u32>,
        /// This device's IDCODE.
        expected: u32,
    },
    /// The configuration port glitched mid-load (`INIT_B` pulsed low
    /// with a valid stream). Transient: retrying the same load can
    /// succeed. Only injected by fault models such as
    /// [`crate::UnreliableBoard`]; the ideal fabric never emits it.
    TransientLoad,
    /// The configuration interface stopped responding before `DONE`
    /// went high. Transient: retrying can succeed.
    ConfigTimeout {
        /// Milliseconds waited before giving up (simulated).
        ms: u64,
    },
    /// The board died permanently (power/fabric failure). Not
    /// transient: no retry on this board can succeed — the session
    /// must migrate to another board. Only injected by fault models
    /// such as [`crate::UnreliableBoard`].
    BoardDead,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Bitstream(e) => write!(f, "configuration aborted: {e}"),
            ProgramError::WrongFrameCount { got, expected } => {
                write!(f, "payload has {got} frames, device expects {expected}")
            }
            ProgramError::WrongDevice { got, expected } => {
                write!(f, "bitstream idcode {got:08x?} does not match device {expected:08x}")
            }
            ProgramError::TransientLoad => {
                write!(f, "configuration port glitched mid-load (transient)")
            }
            ProgramError::ConfigTimeout { ms } => {
                write!(f, "configuration interface timed out after {ms} ms (transient)")
            }
            ProgramError::BoardDead => {
                write!(f, "board died permanently (configuration port unresponsive)")
            }
        }
    }
}

impl ProgramError {
    /// Whether retrying the same load can succeed. CRC/size/IDCODE
    /// refusals are permanent properties of the stream; port glitches
    /// and timeouts are not.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, ProgramError::TransientLoad | ProgramError::ConfigTimeout { .. })
    }
}

impl std::error::Error for ProgramError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProgramError::Bitstream(e) => Some(e),
            ProgramError::WrongFrameCount { .. }
            | ProgramError::WrongDevice { .. }
            | ProgramError::TransientLoad
            | ProgramError::ConfigTimeout { .. }
            | ProgramError::BoardDead => None,
        }
    }
}

impl From<ParseBitstreamError> for ProgramError {
    fn from(e: ParseBitstreamError) -> Self {
        ProgramError::Bitstream(e)
    }
}

/// An error from [`Fpga::apply_partial_base`]. All variants are
/// permanent refusals of the stream (the partial-reconfiguration
/// analogue of the CRC/size/IDCODE refusals of a full load); the
/// device image is untouched when any of them is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartialApplyError {
    /// The partial stream failed to parse or its CRC mismatched.
    Stream(ParsePartialError),
    /// The stream was built for a different device (IDCODE mismatch),
    /// or carried no IDCODE at all.
    WrongDevice {
        /// IDCODE found in the stream, if any.
        got: Option<u32>,
        /// This device's IDCODE.
        expected: u32,
    },
    /// A frame run writes past the end of the device's frame space.
    FrameOutOfRange {
        /// First frame of the offending run.
        start: usize,
        /// Frames in the run.
        frames: usize,
        /// Frames the device has.
        device_frames: usize,
    },
}

impl fmt::Display for PartialApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartialApplyError::Stream(e) => write!(f, "partial stream refused: {e}"),
            PartialApplyError::WrongDevice { got, expected } => {
                write!(f, "partial idcode {got:08x?} does not match device {expected:08x}")
            }
            PartialApplyError::FrameOutOfRange { start, frames, device_frames } => {
                write!(
                    f,
                    "frame run {start}+{frames} writes past the device's {device_frames} frames"
                )
            }
        }
    }
}

impl std::error::Error for PartialApplyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartialApplyError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

/// One evaluation step of the configured fabric. Shared with the
/// gang simulator so both walk the identical topological order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EvalStep {
    Lut(usize),
    Bram(usize),
}

/// Marks a frame-space byte that no LUT cell stores (routing, slack).
const NO_LUT: u32 = u32::MAX;

/// A device: geometry plus the static routing database.
#[derive(Debug, Clone)]
pub struct Fpga {
    geometry: Geometry,
    pub(crate) db: RoutingDb,
    pub(crate) order: Vec<EvalStep>,
    pub(crate) net_count: usize,
    /// Frame-space byte → index of the LUT cell storing it, or
    /// [`NO_LUT`]. A configuration step re-reads exactly the cells its
    /// changed bytes map to.
    byte_lut: Vec<u32>,
    idcode: u32,
}

impl Fpga {
    /// Creates a device from geometry and routing database,
    /// precomputing the evaluation order.
    ///
    /// # Panics
    ///
    /// Panics if the database contains a combinational cycle, a site
    /// outside the geometry, or two LUT cells storing the same
    /// configuration byte (real placements never overlap — the pruning
    /// rule of Section VI-C).
    #[must_use]
    pub fn new(geometry: Geometry, db: RoutingDb) -> Self {
        geometry.assert_valid();
        let mut byte_lut = vec![NO_LUT; geometry.frame_count() * FRAME_BYTES];
        for (i, lut) in db.luts.iter().enumerate() {
            for b in geometry.lut_location(lut.site).byte_indices() {
                let owner = &mut byte_lut[b];
                assert!(*owner == NO_LUT, "LUT cells {owner} and {i} share configuration byte {b}");
                *owner = u32::try_from(i).expect("LUT count fits u32");
            }
        }
        let net_count = net_count(&db);
        let order = eval_order(&db);
        Self { geometry, db, order, net_count, byte_lut, idcode: bitstream::image::DEFAULT_IDCODE }
    }

    /// The LUT cell storing frame-space byte `b`, if any.
    fn lut_at(&self, b: usize) -> Option<usize> {
        self.byte_lut.get(b).filter(|&&i| i != NO_LUT).map(|&i| i as usize)
    }

    /// Re-reads the INIT of every listed LUT cell from `frames`.
    fn reread(&self, frames: &[u8], inits: &mut [DualOutputInit], mut luts: Vec<usize>) {
        luts.sort_unstable();
        luts.dedup();
        for i in luts {
            inits[i] = codec::read_lut(frames, self.geometry.lut_location(self.db.luts[i].site));
        }
    }

    /// Overrides the device IDCODE (enforced during configuration).
    #[must_use]
    pub fn with_idcode(mut self, idcode: u32) -> Self {
        self.idcode = idcode;
        self
    }

    /// The device IDCODE.
    #[must_use]
    pub fn idcode(&self) -> u32 {
        self.idcode
    }

    /// The device geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The static routing database.
    #[must_use]
    pub fn routing_db(&self) -> &RoutingDb {
        &self.db
    }

    /// Configures the device from a bitstream: parses it, enforces
    /// the CRC if present, and loads every LUT site's INIT value.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if parsing fails, the CRC mismatches
    /// or the payload size is wrong.
    pub fn program(&self, bs: &Bitstream) -> Result<ConfiguredFpga<'_>, ProgramError> {
        Ok(self.configured_from_inits(self.decode_lut_inits(bs)?))
    }

    /// Builds a freshly-configured simulator from already-decoded INIT
    /// values — the global-set/reset half of programming: every FF at
    /// its power-up value, ties driven, cycle counter at zero.
    #[must_use]
    pub fn configured_from_inits(&self, inits: Vec<DualOutputInit>) -> ConfiguredFpga<'_> {
        let mut values = vec![false; self.net_count];
        for ff in &self.db.ffs {
            values[ff.q.index()] = ff.init;
        }
        for &(net, v) in &self.db.ties {
            values[net.index()] = v;
        }
        let latch = vec![false; self.db.ffs.len()];
        ConfiguredFpga { fpga: self, inits, values, latch, clean: false, cycle: 0 }
    }

    /// Parses and validates a bitstream exactly like [`Fpga::program`]
    /// and returns the per-cell INIT values without building a
    /// simulator — the configuration half of programming, reused by
    /// the gang simulator to load each lane.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if parsing fails, the CRC mismatches
    /// or the payload size is wrong.
    pub fn decode_lut_inits(&self, bs: &Bitstream) -> Result<Vec<DualOutputInit>, ProgramError> {
        Ok(self.decode_with_frames(bs)?.1)
    }

    /// [`Fpga::decode_lut_inits`] with the parsed frame image retained
    /// — the configuration-memory state a partial-reconfiguration base
    /// needs (later frame-deltas are applied to it absolutely).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if parsing fails, the CRC mismatches
    /// or the payload size is wrong.
    pub fn decode_with_frames(
        &self,
        bs: &Bitstream,
    ) -> Result<(FrameData, Vec<DualOutputInit>), ProgramError> {
        let config = bs.parse()?;
        if config.idcode != Some(self.idcode) {
            return Err(ProgramError::WrongDevice { got: config.idcode, expected: self.idcode });
        }
        if config.frames.frame_count() != self.geometry.frame_count() {
            return Err(ProgramError::WrongFrameCount {
                got: config.frames.frame_count(),
                expected: self.geometry.frame_count(),
            });
        }
        let inits = self
            .db
            .luts
            .iter()
            .map(|cell| {
                codec::read_lut(config.frames.as_bytes(), self.geometry.lut_location(cell.site))
            })
            .collect();
        Ok((config.frames, inits))
    }

    /// Applies a partial stream to a configuration-memory base:
    /// validates the stream in full first (the apply is atomic —
    /// refusal leaves `frames` and `inits` untouched), writes each
    /// frame run absolutely into `frames`, and re-reads only the LUTs
    /// with a byte the runs actually changed. Returns the number of
    /// frames written.
    ///
    /// `inits` must be the INITs `frames` decodes to (as
    /// [`Fpga::decode_with_frames`] returns them): a LUT none of whose
    /// bytes changed then keeps a correct INIT, so the result equals a
    /// full decode of the new image.
    ///
    /// # Errors
    ///
    /// See [`PartialApplyError`].
    pub fn apply_partial_base(
        &self,
        frames: &mut FrameData,
        inits: &mut [DualOutputInit],
        partial: &PartialBitstream,
    ) -> Result<usize, PartialApplyError> {
        let cfg = partial.parse().map_err(PartialApplyError::Stream)?;
        if cfg.idcode != Some(self.idcode) {
            return Err(PartialApplyError::WrongDevice { got: cfg.idcode, expected: self.idcode });
        }
        let device_frames = self.geometry.frame_count();
        for run in &cfg.runs {
            if run.start_frame + run.frames.frame_count() > device_frames {
                return Err(PartialApplyError::FrameOutOfRange {
                    start: run.start_frame,
                    frames: run.frames.frame_count(),
                    device_frames,
                });
            }
        }
        let mut changed: Vec<usize> = Vec::new();
        for run in &cfg.runs {
            let at = run.start_frame * FRAME_BYTES;
            let new = run.frames.as_bytes();
            let old = &mut frames.as_mut_bytes()[at..at + new.len()];
            for_each_diff(old, new, |pos| {
                changed.extend(self.lut_at(at + pos));
                true
            });
            old.copy_from_slice(new);
        }
        self.reread(frames.as_bytes(), inits, changed);
        Ok(cfg.frames_written())
    }

    /// Decodes many bitstreams with per-item results, exactly as if
    /// each went through [`Fpga::decode_lut_inits`] — but
    /// differentially: the first accepted stream is walked in full and
    /// becomes the reference; every later stream that differs from it
    /// only inside the FDRI payload (and the stored CRC word) is
    /// validated through the linear CRC delta
    /// ([`bitstream::DeltaCrc`]) and re-reads only the LUTs whose
    /// bytes changed. Streams the delta model does not cover fall back
    /// to the full walk, so acceptance, rejection errors and decoded
    /// INITs are bit-identical to the serial path in every case.
    #[must_use]
    pub fn decode_lut_inits_batch(
        &self,
        bitstreams: &[&Bitstream],
    ) -> Vec<Result<Vec<DualOutputInit>, ProgramError>> {
        let mut reference: Option<RefDecode> = None;
        bitstreams
            .iter()
            .map(|&bs| {
                if let Some(r) = &reference {
                    if let Some(result) = self.decode_against(r, bs) {
                        return result;
                    }
                }
                let full = self.decode_lut_inits(bs);
                if reference.is_none() {
                    if let Ok(inits) = &full {
                        reference = RefDecode::analyze(bs, inits.clone());
                    }
                }
                full
            })
            .collect()
    }

    /// Differential decode of `bs` against the reference, or `None`
    /// when the byte delta strays outside the payload/CRC-word region
    /// the delta model covers (→ caller falls back to the full walk).
    fn decode_against(
        &self,
        r: &RefDecode,
        bs: &Bitstream,
    ) -> Option<Result<Vec<DualOutputInit>, ProgramError>> {
        let bytes = bs.as_bytes();
        if bytes.len() != r.bytes.len() {
            return None;
        }
        let crc_word = r.delta.crc_value_at()..r.delta.crc_value_at() + 4;
        let mut words: Vec<usize> = Vec::new();
        let mut changed: Vec<usize> = Vec::new();
        let payload_delta = for_each_diff(&r.bytes, bytes, |pos| {
            if r.payload.contains(&pos) {
                let b = pos - r.payload.start;
                words.push(b / 4);
                changed.extend(self.lut_at(b));
                true
            } else {
                crc_word.contains(&pos)
            }
        });
        if !payload_delta {
            // A structural difference (headers, commands, a zeroed CRC
            // packet): not expressible as a payload delta.
            return None;
        }
        words.dedup();
        let computed = r.delta.value_for(&r.bytes, bytes, r.payload.start, &words);
        let stored = r.delta.stored(bytes);
        if stored != computed {
            return Some(Err(ProgramError::Bitstream(ParseBitstreamError::CrcMismatch {
                stored,
                computed,
            })));
        }
        let mut inits = r.inits.clone();
        self.reread(&bytes[r.payload.clone()], &mut inits, changed);
        Some(Ok(inits))
    }
}

/// Calls `at` with every position where the equal-length `a` and `b`
/// differ, in increasing order, until `at` returns `false`; returns
/// whether every call returned `true`. Compares in 8-byte blocks via
/// `u64` loads: configuration deltas differ in a handful of bytes, so
/// the scan is dominated by equal blocks and one integer compare
/// retires each of them.
fn for_each_diff(a: &[u8], b: &[u8], mut at: impl FnMut(usize) -> bool) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut chunks_a = a.chunks_exact(8);
    let mut chunks_b = b.chunks_exact(8);
    let mut block = 0;
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        let wa = u64::from_ne_bytes(ca.try_into().expect("8-byte chunk"));
        let wb = u64::from_ne_bytes(cb.try_into().expect("8-byte chunk"));
        if wa != wb {
            for (k, (x, y)) in ca.iter().zip(cb).enumerate() {
                if x != y && !at(block + k) {
                    return false;
                }
            }
        }
        block += 8;
    }
    let tail = chunks_a.remainder().iter().zip(chunks_b.remainder());
    for (k, (x, y)) in tail.enumerate() {
        if x != y && !at(block + k) {
            return false;
        }
    }
    true
}

/// The reference stream a [`Fpga::decode_lut_inits_batch`] call
/// decodes later streams against.
struct RefDecode {
    /// Raw bytes of the reference bitstream.
    bytes: Vec<u8>,
    /// Byte range of the FDRI payload within `bytes`.
    payload: core::ops::Range<usize>,
    /// Differential-CRC analysis of the reference stream.
    delta: DeltaCrc,
    /// The reference stream's decoded INIT values.
    inits: Vec<DualOutputInit>,
}

impl RefDecode {
    /// Builds the reference from an accepted stream, or `None` when
    /// the stream's structure defeats the delta model.
    fn analyze(bs: &Bitstream, inits: Vec<DualOutputInit>) -> Option<Self> {
        let payload = bs.fdri_data_range()?;
        let delta = DeltaCrc::analyze(bs, &payload)?;
        Some(Self { bytes: bs.as_bytes().to_vec(), payload, delta, inits })
    }
}

fn net_count(db: &RoutingDb) -> usize {
    let mut max = 0usize;
    let mut consider = |n: NetId| max = max.max(n.index() + 1);
    for l in &db.luts {
        l.inputs.iter().copied().for_each(&mut consider);
        consider(l.o6);
        if let Some(o5) = l.o5 {
            consider(o5);
        }
    }
    for f in &db.ffs {
        consider(f.q);
        consider(f.d);
    }
    for b in &db.brams {
        b.addr.iter().copied().for_each(&mut consider);
        b.data.iter().copied().for_each(&mut consider);
    }
    for &(n, _) in &db.ties {
        consider(n);
    }
    for &(_, n) in &db.inputs {
        consider(n);
    }
    max
}

fn eval_order(db: &RoutingDb) -> Vec<EvalStep> {
    // Kahn over combinational dependencies (FF outputs, inputs and
    // ties are sources).
    let mut producer: HashMap<NetId, EvalStep> = HashMap::new();
    for (i, l) in db.luts.iter().enumerate() {
        producer.insert(l.o6, EvalStep::Lut(i));
        if let Some(o5) = l.o5 {
            producer.insert(o5, EvalStep::Lut(i));
        }
    }
    for (i, b) in db.brams.iter().enumerate() {
        for &d in &b.data {
            producer.insert(d, EvalStep::Bram(i));
        }
    }
    let idx = |s: EvalStep| match s {
        EvalStep::Lut(i) => i,
        EvalStep::Bram(i) => db.luts.len() + i,
    };
    let total = db.luts.len() + db.brams.len();
    let mut indeg = vec![0usize; total];
    let mut fanout: Vec<Vec<EvalStep>> = vec![Vec::new(); total];
    let deps = |s: EvalStep| -> Vec<NetId> {
        match s {
            EvalStep::Lut(i) => db.luts[i].inputs.clone(),
            EvalStep::Bram(i) => db.brams[i].addr.clone(),
        }
    };
    let steps: Vec<EvalStep> = (0..db.luts.len())
        .map(EvalStep::Lut)
        .chain((0..db.brams.len()).map(EvalStep::Bram))
        .collect();
    for &s in &steps {
        for net in deps(s) {
            if let Some(&p) = producer.get(&net) {
                indeg[idx(s)] += 1;
                fanout[idx(p)].push(s);
            }
        }
    }
    let mut queue: Vec<EvalStep> = steps.iter().copied().filter(|&s| indeg[idx(s)] == 0).collect();
    let mut order = Vec::with_capacity(total);
    let mut head = 0;
    while head < queue.len() {
        let s = queue[head];
        head += 1;
        order.push(s);
        for &succ in &fanout[idx(s)].clone() {
            indeg[idx(succ)] -= 1;
            if indeg[idx(succ)] == 0 {
                queue.push(succ);
            }
        }
    }
    assert_eq!(order.len(), total, "combinational cycle in routing database");
    order
}

/// A configured (programmed) device, ready to clock.
#[derive(Debug, Clone)]
pub struct ConfiguredFpga<'a> {
    fpga: &'a Fpga,
    inits: Vec<DualOutputInit>,
    values: Vec<bool>,
    /// Double buffer for FF state: `latch[i]` holds the sampled D
    /// input of `db.ffs[i]` between the two phases of a step, so no
    /// step allocates.
    latch: Vec<bool>,
    /// Whether `values` reflects a completed combinational evaluation
    /// of the current state. Cleared by `set_input`; when set, the
    /// pre-latch evaluation in `step` is a no-op and is skipped.
    clean: bool,
    cycle: u64,
}

impl ConfiguredFpga<'_> {
    /// The INIT value loaded at LUT cell `i` (diagnostics).
    #[must_use]
    pub fn lut_init(&self, i: usize) -> DualOutputInit {
        self.inits[i]
    }

    /// Drives a primary input net.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.values[net.index()] = value;
        self.clean = false;
    }

    /// The current value of a net (after the last evaluation).
    #[must_use]
    pub fn net(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Reads 32 nets as a word, LSB first.
    #[must_use]
    pub fn word(&self, nets: &[NetId]) -> u32 {
        nets.iter().enumerate().fold(0u32, |acc, (i, &n)| acc | (u32::from(self.net(n)) << i))
    }

    /// Clock cycles executed.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    fn evaluate(&mut self) {
        let db = &self.fpga.db;
        for &step in &self.fpga.order {
            match step {
                EvalStep::Lut(i) => {
                    let cell = &db.luts[i];
                    let init = self.inits[i];
                    let mut addr = 0u8;
                    for (p, net) in cell.inputs.iter().enumerate() {
                        if self.values[net.index()] {
                            addr |= 1 << p;
                        }
                    }
                    match cell.o5 {
                        None => {
                            // Single-output mode: O6 reads the full
                            // 6-input table (unconnected pins low).
                            self.values[cell.o6.index()] = init.o6().eval(addr & 0x3F);
                        }
                        Some(o5) => {
                            // Fractured: both halves share pins a1..a5.
                            let a = addr & 0x1F;
                            self.values[o5.index()] = init.o5().eval(a);
                            self.values[cell.o6.index()] = init.o6_fractured().eval(a);
                        }
                    }
                }
                EvalStep::Bram(i) => {
                    let cell = &db.brams[i];
                    let mut a = 0usize;
                    for (p, net) in cell.addr.iter().enumerate() {
                        if self.values[net.index()] {
                            a |= 1 << p;
                        }
                    }
                    let word = cell.table[a];
                    for (bit, net) in cell.data.iter().enumerate() {
                        self.values[net.index()] = (word >> bit) & 1 == 1;
                    }
                }
            }
        }
    }

    /// Runs one clock cycle with the current input values.
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

    /// Configuration readback (the `FDRO` path of real devices):
    /// reconstructs the frame contents from the loaded LUT INITs.
    /// Non-LUT bits (routing) are masked to zero, mirroring the mask
    /// files vendors ship for readback verification.
    #[must_use]
    pub fn readback_frames(&self) -> bitstream::FrameData {
        let geometry = self.fpga.geometry();
        let mut frames = bitstream::FrameData::new(geometry.frame_count());
        for (cell, &init) in self.fpga.db.luts.iter().zip(&self.inits) {
            codec::write_lut(frames.as_mut_bytes(), geometry.lut_location(cell.site), init);
        }
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstream::{codec, BitstreamBuilder, FrameData};

    /// A tiny device: one LUT computing a function of two FF outputs,
    /// both toggling.
    fn tiny() -> (Fpga, Vec<NetId>) {
        let geometry = Geometry::with_columns(2);
        let n = |i: u32| NodeId(i);
        let db = RoutingDb {
            luts: vec![
                // LUT computing o = a ^ b at site (0,0,0).
                LutCell {
                    site: SiteId { col: 0, row: 0, lut: 0 },
                    inputs: vec![n(0), n(1)],
                    o6: n(2),
                    o5: None,
                },
                // Inverter for the toggle FF at site (1,3,2).
                LutCell {
                    site: SiteId { col: 1, row: 3, lut: 2 },
                    inputs: vec![n(0)],
                    o6: n(3),
                    o5: None,
                },
            ],
            ffs: vec![
                FfCell { q: n(0), d: n(3), init: false }, // toggles
                FfCell { q: n(1), d: n(1), init: true },  // holds 1
            ],
            brams: vec![],
            inputs: vec![],
            ties: vec![],
        };
        (Fpga::new(geometry, db), vec![n(2)])
    }

    fn bitstream_for(fpga: &Fpga, xor_init: u64, inv_init: u64) -> Bitstream {
        let mut frames = FrameData::new(fpga.geometry().frame_count());
        let loc0 = fpga.geometry().lut_location(SiteId { col: 0, row: 0, lut: 0 });
        let loc1 = fpga.geometry().lut_location(SiteId { col: 1, row: 3, lut: 2 });
        codec::write_lut(frames.as_mut_bytes(), loc0, DualOutputInit::new(xor_init));
        codec::write_lut(frames.as_mut_bytes(), loc1, DualOutputInit::new(inv_init));
        BitstreamBuilder::new(frames).build()
    }

    /// 6-var extension of XOR2 on pins a1, a2.
    fn xor2_init() -> u64 {
        boolfn::TruthTable::var(6, 1).xor(boolfn::TruthTable::var(6, 2)).bits()
    }

    /// 6-var extension of NOT on pin a1.
    fn not1_init() -> u64 {
        boolfn::TruthTable::var(6, 1).not().bits()
    }

    #[test]
    fn configured_device_follows_lut_contents() {
        let (fpga, outs) = tiny();
        let bs = bitstream_for(&fpga, xor2_init(), not1_init());
        let mut dev = fpga.program(&bs).expect("programs");
        // q0 toggles 0,1,0,...; q1 holds 1; o = q0 ^ q1.
        let mut expect_q0 = false;
        for _ in 0..6 {
            dev.step();
            expect_q0 = !expect_q0;
            assert_eq!(dev.net(outs[0]), expect_q0 ^ true);
        }
    }

    #[test]
    fn modified_lut_changes_behaviour() {
        let (fpga, outs) = tiny();
        // Replace XOR with constant-0 (the paper's verification
        // fault): output must be stuck at 0.
        let bs = bitstream_for(&fpga, 0, not1_init());
        let mut dev = fpga.program(&bs).expect("programs");
        for _ in 0..4 {
            dev.step();
            assert!(!dev.net(outs[0]));
        }
    }

    #[test]
    fn crc_mismatch_refuses_configuration() -> Result<(), Box<dyn std::error::Error>> {
        let (fpga, _) = tiny();
        let mut bs = bitstream_for(&fpga, xor2_init(), not1_init());
        let range = bs.fdri_data_range().ok_or("golden stream has no FDRI write")?;
        bs.as_mut_bytes()[range.start + 11] ^= 0x40;
        assert!(matches!(
            fpga.program(&bs),
            Err(ProgramError::Bitstream(ParseBitstreamError::CrcMismatch { .. }))
        ));
        Ok(())
    }

    #[test]
    fn crc_disabled_configuration_proceeds() -> Result<(), Box<dyn std::error::Error>> {
        let (fpga, outs) = tiny();
        let mut bs = bitstream_for(&fpga, xor2_init(), not1_init());
        // Flip a bit inside the XOR LUT's init: turn XOR into XNOR by
        // rewriting the whole LUT.
        let loc = fpga.geometry().lut_location(SiteId { col: 0, row: 0, lut: 0 });
        let range = bs.fdri_data_range().ok_or("golden stream has no FDRI write")?;
        let xnor = boolfn::TruthTable::var(6, 1).xor(boolfn::TruthTable::var(6, 2)).not().bits();
        codec::write_lut(&mut bs.as_mut_bytes()[range.clone()], loc, DualOutputInit::new(xnor));
        assert!(fpga.program(&bs).is_err(), "CRC still enforced");
        bs.disable_crc();
        let mut dev = fpga.program(&bs).expect("CRC disabled");
        dev.step();
        assert!(dev.net(outs[0]), "after one step q0=1, q1=1, and XNOR(1,1)=1");
        Ok(())
    }

    #[test]
    fn readback_returns_loaded_inits() {
        let (fpga, _) = tiny();
        let bs = bitstream_for(&fpga, xor2_init(), not1_init());
        let dev = fpga.program(&bs).expect("programs");
        let frames = dev.readback_frames();
        let loc = fpga.geometry().lut_location(SiteId { col: 0, row: 0, lut: 0 });
        let got = codec::read_lut(frames.as_bytes(), loc);
        assert_eq!(got.init(), xor2_init());
        // Routing bits are masked out.
        let ranges = fpga.geometry().non_init_ranges();
        for r in ranges {
            assert!(frames.as_bytes()[r].iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn wrong_idcode_rejected() -> Result<(), ParseBitstreamError> {
        let (fpga, _) = tiny();
        let frames = bitstream_for(&fpga, xor2_init(), not1_init()).parse()?.frames;
        let bs = BitstreamBuilder::new(frames).idcode(0x1234_5678).build();
        assert!(matches!(fpga.program(&bs), Err(ProgramError::WrongDevice { .. })));
        Ok(())
    }

    #[test]
    fn wrong_payload_size_rejected() {
        let (fpga, _) = tiny();
        let frames = FrameData::new(fpga.geometry().frame_count() + 1);
        let bs = BitstreamBuilder::new(frames).build();
        assert!(matches!(fpga.program(&bs), Err(ProgramError::WrongFrameCount { .. })));
    }
}
