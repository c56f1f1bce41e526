//! Partial-reconfiguration streams: frame-delta configuration.
//!
//! 7-series devices accept configuration streams that rewrite only a
//! window of frames: a `FAR` (frame address register) write selects
//! where the next `FDRI` payload lands, and the payload may be any
//! whole number of frames instead of the full device image. This
//! module models that capability along the same attack boundary as
//! [`crate::image`]:
//!
//! * [`PartialBitstream`] is the wire form — sync header, `RCRC`,
//!   `IDCODE`, then one `FAR`/`WCFG`/`FDRI` group per contiguous run
//!   of touched frames, a CRC write over exactly the words shipped,
//!   and `Start`/`Desync`;
//! * [`PartialBitstream::parse`] consumes such streams the way the
//!   configuration logic does (zero words skipped, `RCRC` resets,
//!   stored-CRC compare), returning typed errors for anything
//!   malformed;
//! * [`PartialForge`] turns a candidate full bitstream into the
//!   frame-delta against the image currently on the device, refusing
//!   (→ caller falls back to a full load) any pair the delta model
//!   does not cover — so acceptance and rejection stay bit-identical
//!   to full-load behaviour in every case.
//!
//! The frame address is modelled as a linear frame index (the real
//! device's block/row/column major address decomposes to one; the
//! attack never needs the split fields). The forge caches one
//! assembled stream per run *shape* and re-CRCs same-shape variants
//! through the linear [`DeltaCrc`], so steady-state forging costs
//! O(changed words × log stream) instead of a fresh CRC walk.

use core::fmt;
use core::ops::Range;
use std::collections::HashMap;

use crate::crc::ConfigCrc;
use crate::delta::{for_each_diff, DeltaCrc};
use crate::frame::{FrameData, FRAME_BYTES, FRAME_WORDS};
use crate::image::Bitstream;
use crate::packet::{
    CommandCode, Packet, PacketEncodeError, RegisterAddress, BUS_WIDTH_DETECT, BUS_WIDTH_SYNC,
    DUMMY_WORD, NOP, SYNC_WORD,
};

/// One contiguous run of frames carried by a partial stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialRun {
    /// Linear index of the first frame written.
    pub start_frame: usize,
    /// The frame contents, written absolutely (idempotent: re-shipping
    /// the same run is a no-op on a device already holding it).
    pub frames: FrameData,
}

/// The result of parsing a partial stream, as seen by the
/// configuration logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialConfig {
    /// The device ID written during configuration, if any.
    pub idcode: Option<u32>,
    /// The frame runs, in stream order.
    pub runs: Vec<PartialRun>,
    /// Whether a CRC write was present and matched.
    pub crc_checked: bool,
}

impl PartialConfig {
    /// Total frames written across all runs.
    #[must_use]
    pub fn frames_written(&self) -> usize {
        self.runs.iter().map(|r| r.frames.frame_count()).sum()
    }
}

/// An error from [`PartialBitstream::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParsePartialError {
    /// No sync word found.
    NoSync,
    /// The stream ended in the middle of a packet.
    Truncated,
    /// A packet addressed an unknown register.
    UnknownRegister {
        /// Raw address field.
        raw: u16,
    },
    /// The CRC written in the stream does not match the computed one.
    CrcMismatch {
        /// Value found in the stream.
        stored: u32,
        /// Value computed from the writes.
        computed: u32,
    },
    /// FDRI payload arrived before any FAR write selected a frame
    /// address.
    FdriBeforeFar,
    /// A frame run was not a whole number of frames.
    RaggedRun {
        /// Payload words received in the run.
        words: usize,
    },
}

impl fmt::Display for ParsePartialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePartialError::NoSync => write!(f, "no sync word found"),
            ParsePartialError::Truncated => write!(f, "partial stream truncated mid-packet"),
            ParsePartialError::UnknownRegister { raw } => {
                write!(f, "write to unknown register {raw:#x}")
            }
            ParsePartialError::CrcMismatch { stored, computed } => {
                write!(f, "crc mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            ParsePartialError::FdriBeforeFar => {
                write!(f, "FDRI payload before any FAR write")
            }
            ParsePartialError::RaggedRun { words } => {
                write!(f, "frame run of {words} words is not a whole number of frames")
            }
        }
    }
}

impl std::error::Error for ParsePartialError {}

/// A partial-reconfiguration stream: raw bytes in the device's wire
/// format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialBitstream(Vec<u8>);

impl PartialBitstream {
    /// Wraps raw bytes.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self(bytes)
    }

    /// The raw bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Consumes the wrapper.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Size in bytes — the configuration traffic this delta ships.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the stream is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Assembles a partial stream writing `runs`, computing the CRC
    /// over exactly the words shipped.
    ///
    /// # Errors
    ///
    /// Returns [`PacketEncodeError`] if a run exceeds the Type 2
    /// word-count field.
    pub fn assemble(idcode: u32, runs: &[PartialRun]) -> Result<Self, PacketEncodeError> {
        let mut words: Vec<u32> = Vec::new();
        // Short header: two dummy pad words, bus width detection, sync.
        words.extend([DUMMY_WORD; 2]);
        words.push(BUS_WIDTH_SYNC);
        words.push(BUS_WIDTH_DETECT);
        words.push(SYNC_WORD);
        words.push(NOP);

        let mut crc = ConfigCrc::new();
        let write1 = |words: &mut Vec<u32>,
                      crc: &mut ConfigCrc,
                      addr: RegisterAddress,
                      vals: &[u32]|
         -> Result<(), PacketEncodeError> {
            words.push(Packet::type1_header(addr, vals.len())?);
            for &v in vals {
                words.push(v);
                if addr != RegisterAddress::Crc {
                    crc.update(addr as u16, v);
                }
            }
            Ok(())
        };

        write1(&mut words, &mut crc, RegisterAddress::Cmd, &[CommandCode::Rcrc as u32])?;
        crc.reset();
        words.push(NOP);
        write1(&mut words, &mut crc, RegisterAddress::Idcode, &[idcode])?;
        for run in runs {
            write1(&mut words, &mut crc, RegisterAddress::Far, &[run.start_frame as u32])?;
            write1(&mut words, &mut crc, RegisterAddress::Cmd, &[CommandCode::Wcfg as u32])?;
            let payload = run.frames.to_words();
            words.push(Packet::type1_header(RegisterAddress::Fdri, 0)?);
            words.push(Packet::type2_header(payload.len())?);
            for &w in &payload {
                crc.update(RegisterAddress::Fdri as u16, w);
                words.push(w);
            }
        }
        let expected = crc.value();
        write1(&mut words, &mut crc, RegisterAddress::Crc, &[expected])?;
        words.push(NOP);
        write1(&mut words, &mut crc, RegisterAddress::Cmd, &[CommandCode::Start as u32])?;
        write1(&mut words, &mut crc, RegisterAddress::Cmd, &[CommandCode::Desync as u32])?;
        words.push(NOP);

        let mut bytes = Vec::with_capacity(words.len() * 4);
        for w in words {
            bytes.extend_from_slice(&w.to_be_bytes());
        }
        Ok(Self(bytes))
    }

    /// Parses the stream the way the device configuration logic does:
    /// zero/NOP/dummy words skipped, `RCRC` resets the CRC, every FAR
    /// write closes the current frame run and opens a new one, and a
    /// stored CRC must match the computed value.
    ///
    /// # Errors
    ///
    /// See [`ParsePartialError`]. Total over arbitrary bytes: never
    /// panics, never allocates from attacker-controlled length claims.
    pub fn parse(&self) -> Result<PartialConfig, ParsePartialError> {
        let bytes = &self.0;
        let sync = {
            let pat = SYNC_WORD.to_be_bytes();
            let mut at = 0;
            loop {
                if at + 4 > bytes.len() {
                    break None;
                }
                if bytes[at..at + 4] == pat {
                    break Some(at);
                }
                at += 4;
            }
        };
        let mut at = sync.ok_or(ParsePartialError::NoSync)? + 4;
        let read = |at: usize| -> Result<u32, ParsePartialError> {
            bytes
                .get(at..at + 4)
                .map(|b| u32::from_be_bytes(b.try_into().expect("4 bytes")))
                .ok_or(ParsePartialError::Truncated)
        };

        let mut crc = ConfigCrc::new();
        let mut last_addr: Option<RegisterAddress> = None;
        let mut idcode = None;
        let mut crc_checked = false;
        let mut far: Option<u32> = None;
        let mut runs: Vec<PartialRun> = Vec::new();
        let mut pending: Vec<u32> = Vec::new();

        // Closes the currently-accumulating frame run.
        let flush = |far: Option<u32>,
                     pending: &mut Vec<u32>,
                     runs: &mut Vec<PartialRun>|
         -> Result<(), ParsePartialError> {
            if pending.is_empty() {
                return Ok(());
            }
            if !pending.len().is_multiple_of(FRAME_WORDS) {
                return Err(ParsePartialError::RaggedRun { words: pending.len() });
            }
            let start = far.ok_or(ParsePartialError::FdriBeforeFar)?;
            runs.push(PartialRun {
                start_frame: start as usize,
                frames: FrameData::from_words(pending),
            });
            pending.clear();
            Ok(())
        };

        'stream: while at + 4 <= bytes.len() {
            let word = read(at)?;
            at += 4;
            if word == 0 || word == NOP || word == DUMMY_WORD {
                continue;
            }
            let h = Packet::decode_header(word);
            match (h.packet_type, h.opcode) {
                (1, 2) => {
                    let addr = RegisterAddress::from_raw(h.addr)
                        .ok_or(ParsePartialError::UnknownRegister { raw: h.addr })?;
                    let mut values = Vec::with_capacity(h.count_type1.min(64));
                    for _ in 0..h.count_type1 {
                        values.push(read(at)?);
                        at += 4;
                    }
                    match addr {
                        RegisterAddress::Crc => {
                            let stored = *values.first().ok_or(ParsePartialError::Truncated)?;
                            let computed = crc.value();
                            if stored != computed {
                                return Err(ParsePartialError::CrcMismatch { stored, computed });
                            }
                            crc_checked = true;
                        }
                        RegisterAddress::Cmd => {
                            for &v in &values {
                                if v == CommandCode::Rcrc as u32 {
                                    crc.reset();
                                } else {
                                    crc.update(addr as u16, v);
                                }
                                if v == CommandCode::Desync as u32 {
                                    break 'stream;
                                }
                            }
                        }
                        RegisterAddress::Idcode => {
                            idcode = values.first().copied();
                            for &v in &values {
                                crc.update(addr as u16, v);
                            }
                        }
                        RegisterAddress::Far => {
                            flush(far, &mut pending, &mut runs)?;
                            far = values.last().copied();
                            for &v in &values {
                                crc.update(addr as u16, v);
                            }
                        }
                        RegisterAddress::Fdri => {
                            if far.is_none() {
                                return Err(ParsePartialError::FdriBeforeFar);
                            }
                            for &v in &values {
                                crc.update(addr as u16, v);
                                pending.push(v);
                            }
                        }
                        _ => {
                            for &v in &values {
                                crc.update(addr as u16, v);
                            }
                        }
                    }
                    last_addr = Some(addr);
                }
                (2, 2) => {
                    let addr = last_addr.ok_or(ParsePartialError::Truncated)?;
                    if addr == RegisterAddress::Fdri && far.is_none() {
                        return Err(ParsePartialError::FdriBeforeFar);
                    }
                    for _ in 0..h.count_type2 {
                        let v = read(at)?;
                        at += 4;
                        crc.update(addr as u16, v);
                        if addr == RegisterAddress::Fdri {
                            pending.push(v);
                        }
                    }
                }
                (1, 0) => {} // packet-level NOP
                _ => {}      // reads and reserved types are ignored
            }
        }
        flush(far, &mut pending, &mut runs)?;
        Ok(PartialConfig { idcode, runs, crc_checked })
    }
}

impl AsRef<[u8]> for PartialBitstream {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A forged frame-delta, ready to ship.
#[derive(Debug, Clone)]
pub struct PartialDelta {
    /// The wire stream.
    pub stream: PartialBitstream,
    /// Frames the stream writes.
    pub frames_written: usize,
}

/// A cached same-shape stream: re-forging a delta whose run layout
/// matches only splices new frame bytes and patches the CRC through
/// the linear delta.
struct Template {
    bytes: Vec<u8>,
    /// Byte range of the (single) run's payload within `bytes`.
    payload: Range<usize>,
    delta: DeltaCrc,
}

/// Forges frame-delta partial streams against a reference full
/// bitstream's structure.
///
/// Built once from the first full load of a session; every later
/// candidate that differs from the on-device image only inside the
/// FDRI payload (and the stored CRC word) forges in O(touched
/// frames). Anything else — structural edits, CRC-disabled streams,
/// candidates whose own stored CRC would be refused — returns `None`
/// and the caller falls back to a full load, so device-visible
/// accept/reject behaviour is preserved exactly.
pub struct PartialForge {
    /// Raw bytes of the reference stream.
    reference: Vec<u8>,
    /// Byte range of the FDRI payload within the reference.
    payload: Range<usize>,
    /// Differential-CRC analysis of the reference structure.
    delta: DeltaCrc,
    /// Byte range of the stored CRC value word.
    crc_word: Range<usize>,
    /// Device ID carried by the reference (re-emitted in deltas).
    idcode: u32,
    /// Per-run-shape template cache (single-run shapes only).
    templates: HashMap<(usize, usize), Template>,
}

impl fmt::Debug for PartialForge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PartialForge(payload: {} bytes, templates: {})",
            self.payload.len(),
            self.templates.len()
        )
    }
}

impl PartialForge {
    /// Analyzes `reference` (a full bitstream the device accepted).
    /// `None` when the stream's structure defeats the delta model —
    /// no FDRI payload, no checkable CRC, or no IDCODE.
    #[must_use]
    pub fn new(reference: &Bitstream) -> Option<Self> {
        let payload = reference.fdri_data_range()?;
        let delta = DeltaCrc::analyze(reference, &payload)?;
        let idcode = reference.parse().ok()?.idcode?;
        let crc_word = delta.crc_value_at()..delta.crc_value_at() + 4;
        Some(Self {
            reference: reference.as_bytes().to_vec(),
            payload,
            delta,
            crc_word,
            idcode,
            templates: HashMap::new(),
        })
    }

    /// Forges the frame-delta that turns the on-device `image` into
    /// `candidate`. Returns `None` — caller ships a full load — when
    /// the pair is not expressible as a payload delta: length or
    /// structural bytes differ from the reference, or the candidate's
    /// stored CRC is not the value the device would compute (the
    /// device must keep refusing such streams).
    #[must_use]
    pub fn delta(&mut self, image: &Bitstream, candidate: &Bitstream) -> Option<PartialDelta> {
        let cand = candidate.as_bytes();
        let img = image.as_bytes();
        if cand.len() != self.reference.len() || img.len() != self.reference.len() {
            return None;
        }
        // Structural check + CRC validity, both against the reference:
        // every byte where the candidate differs from the reference
        // must lie in the payload or be the stored CRC word.
        let words_vs_ref = self.payload_word_diff(&self.reference, cand)?;
        let computed =
            self.delta.value_for(&self.reference, cand, self.payload.start, &words_vs_ref);
        if self.delta.stored(cand) != computed {
            // The device would refuse this candidate; ship it whole so
            // it can.
            return None;
        }
        // The shipped delta: frames where the candidate differs from
        // what is on the device. The image was validated when it was
        // latched, so a payload-confined scan suffices.
        let words_vs_img = self.payload_word_diff(img, cand)?;
        let mut frames: Vec<usize> = words_vs_img.iter().map(|w| w * 4 / FRAME_BYTES).collect();
        frames.dedup();
        let runs = contiguous_runs(&frames);
        let frames_written = frames.len();
        let stream = self.forge_runs(cand, &runs).ok()?;
        Some(PartialDelta { stream, frames_written })
    }

    /// Payload word indices where `a` and `b` differ, or `None` if
    /// they differ anywhere structural (outside payload and stored CRC
    /// word).
    fn payload_word_diff(&self, a: &[u8], b: &[u8]) -> Option<Vec<usize>> {
        let mut words: Vec<usize> = Vec::new();
        let payload_only = for_each_diff(a, b, |pos| {
            if self.payload.contains(&pos) {
                let w = (pos - self.payload.start) / 4;
                if words.last() != Some(&w) {
                    words.push(w);
                }
                true
            } else {
                self.crc_word.contains(&pos)
            }
        });
        payload_only.then_some(words)
    }

    /// Assembles (or re-CRCs from a cached template) the stream
    /// shipping `runs` with frame bytes taken from `candidate`.
    fn forge_runs(
        &mut self,
        candidate: &[u8],
        runs: &[(usize, usize)],
    ) -> Result<PartialBitstream, PacketEncodeError> {
        let payload_start = self.payload.start;
        let run_bytes = |start: usize, len: usize| {
            let at = payload_start + start * FRAME_BYTES;
            &candidate[at..at + len * FRAME_BYTES]
        };
        if let [(start, len)] = runs {
            // Single contiguous run: the common case (one LUT edit
            // touches 4–5 consecutive frames). Same-shape templates
            // re-CRC through the linear delta instead of re-walking.
            if let Some(t) = self.templates.get(&(*start, *len)) {
                // `t.bytes` is the exact stream `t.delta` was analyzed
                // against and stays immutable: every reforge patches a
                // clone against it.
                let fresh = run_bytes(*start, *len);
                let mut words: Vec<usize> = Vec::new();
                for_each_diff(&t.bytes[t.payload.clone()], fresh, |pos| {
                    if words.last() != Some(&(pos / 4)) {
                        words.push(pos / 4);
                    }
                    true
                });
                let mut out = t.bytes.clone();
                out[t.payload.clone()].copy_from_slice(fresh);
                t.delta.patch(&t.bytes, &mut out, t.payload.start, &words);
                return Ok(PartialBitstream(out));
            }
        }
        let assembled_runs: Vec<PartialRun> = runs
            .iter()
            .map(|&(start, len)| PartialRun {
                start_frame: start,
                frames: FrameData::from_bytes(run_bytes(start, len).to_vec()),
            })
            .collect();
        let stream = PartialBitstream::assemble(self.idcode, &assembled_runs)?;
        if let [(start, len)] = runs {
            // Cache the shape for same-shape reforges, when the
            // partial stream's own structure is delta-coverable
            // (single contiguous payload run — always true here).
            let as_image = Bitstream::from_bytes(stream.0.clone());
            if let Some(payload) = as_image.fdri_data_range() {
                if let Some(delta) = DeltaCrc::analyze(&as_image, &payload) {
                    self.templates.insert(
                        (*start, *len),
                        Template { bytes: stream.0.clone(), payload, delta },
                    );
                }
            }
        }
        Ok(stream)
    }
}

/// Groups sorted frame indices into `(start, len)` runs of
/// consecutive frames.
#[must_use]
pub fn contiguous_runs(frames: &[usize]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    for &f in frames {
        match out.last_mut() {
            Some((start, len)) if *start + *len == f => *len += 1,
            _ => out.push((f, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::BitstreamBuilder;

    fn sample(frames: usize, seed: u64) -> Bitstream {
        let mut data = FrameData::new(frames);
        let mut x = seed | 1;
        for b in data.as_mut_bytes() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        BitstreamBuilder::new(data).build()
    }

    #[test]
    fn assemble_parse_roundtrip() {
        let mut frames = FrameData::new(2);
        frames.as_mut_bytes()[3] = 0xAB;
        let runs = vec![
            PartialRun { start_frame: 5, frames: frames.clone() },
            PartialRun { start_frame: 11, frames: FrameData::new(1) },
        ];
        let stream = PartialBitstream::assemble(0x0362_D093, &runs).expect("assembles");
        let cfg = stream.parse().expect("parses");
        assert_eq!(cfg.idcode, Some(0x0362_D093));
        assert!(cfg.crc_checked);
        assert_eq!(cfg.runs, runs);
        assert_eq!(cfg.frames_written(), 3);
    }

    #[test]
    fn corrupted_stream_is_refused() {
        let runs = vec![PartialRun { start_frame: 0, frames: FrameData::new(1) }];
        let stream = PartialBitstream::assemble(1, &runs).expect("assembles");
        let mut bad = stream.as_bytes().to_vec();
        // Flip a payload bit: the partial CRC must catch it.
        let at = bad.len() - 40;
        bad[at] ^= 0x10;
        assert!(matches!(
            PartialBitstream::from_bytes(bad).parse(),
            Err(ParsePartialError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn fdri_without_far_is_refused() {
        // A full builder stream writes FAR=0 before FDRI, so it parses
        // as one run at frame 0; stripping the FAR write must be
        // refused. Easier: hand-build words.
        let mut words = vec![SYNC_WORD, NOP];
        words.push(Packet::type1_header(RegisterAddress::Cmd, 1).unwrap());
        words.push(CommandCode::Rcrc as u32);
        words.push(Packet::type1_header(RegisterAddress::Fdri, 0).unwrap());
        words.push(Packet::type2_header(FRAME_WORDS).unwrap());
        words.extend(std::iter::repeat_n(0x1111_1111u32, FRAME_WORDS));
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        assert_eq!(
            PartialBitstream::from_bytes(bytes).parse(),
            Err(ParsePartialError::FdriBeforeFar)
        );
    }

    #[test]
    fn ragged_run_is_refused() {
        let mut words = vec![SYNC_WORD, NOP];
        words.push(Packet::type1_header(RegisterAddress::Far, 1).unwrap());
        words.push(3);
        words.push(Packet::type1_header(RegisterAddress::Fdri, 0).unwrap());
        words.push(Packet::type2_header(FRAME_WORDS / 2).unwrap());
        words.extend(std::iter::repeat_n(0u32, FRAME_WORDS / 2));
        // Zero words are skipped by the parser, so pad with non-zero.
        let words: Vec<u32> =
            words.into_iter().map(|w| if w == 0 { 0x2222_2222 } else { w }).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        assert!(matches!(
            PartialBitstream::from_bytes(bytes).parse(),
            Err(ParsePartialError::RaggedRun { .. })
        ));
    }

    #[test]
    fn forge_ships_only_touched_frames() {
        let golden = sample(16, 0xFEED);
        let mut forge = PartialForge::new(&golden).expect("analyzes");
        let payload = golden.fdri_data_range().expect("payload");

        // Edit two bytes inside frame 7 and repair the CRC.
        let mut cand = golden.clone();
        cand.as_mut_bytes()[payload.start + 7 * FRAME_BYTES + 10] ^= 0xA5;
        cand.as_mut_bytes()[payload.start + 7 * FRAME_BYTES + 200] ^= 0x0F;
        assert!(cand.recompute_crc());

        let d = forge.delta(&golden, &cand).expect("expressible");
        assert_eq!(d.frames_written, 1);
        assert!(d.stream.len() < golden.len() / 4, "a delta is much smaller than a full load");
        let cfg = d.stream.parse().expect("parses");
        assert!(cfg.crc_checked);
        assert_eq!(cfg.runs.len(), 1);
        assert_eq!(cfg.runs[0].start_frame, 7);
        assert_eq!(
            cfg.runs[0].frames.as_bytes(),
            &cand.as_bytes()[payload.start + 7 * FRAME_BYTES..payload.start + 8 * FRAME_BYTES]
        );
    }

    #[test]
    fn template_reforge_is_byte_identical_to_fresh_assembly() {
        let golden = sample(8, 0x0DD);
        let payload = golden.fdri_data_range().expect("payload");
        let mut forge = PartialForge::new(&golden).expect("analyzes");

        // Two different edits with the same run shape (frame 3).
        let edit = |mask: u8| {
            let mut cand = golden.clone();
            cand.as_mut_bytes()[payload.start + 3 * FRAME_BYTES + 42] ^= mask;
            assert!(cand.recompute_crc());
            cand
        };
        let a = edit(0x11);
        let b = edit(0x2C);
        let first = forge.delta(&golden, &a).expect("expressible");
        let second = forge.delta(&golden, &b).expect("expressible (template path)");
        // An un-cached forge of the same delta must agree byte for
        // byte with the template fast path.
        let mut fresh_forge = PartialForge::new(&golden).expect("analyzes");
        let fresh = fresh_forge.delta(&golden, &b).expect("expressible");
        assert_eq!(second.stream.as_bytes(), fresh.stream.as_bytes());
        assert_ne!(first.stream.as_bytes(), second.stream.as_bytes());
        assert!(second.stream.parse().expect("parses").crc_checked);
        // A third reforge returning to the first edit must reproduce
        // the originally-assembled stream exactly (templates must not
        // drift as they are reused).
        let third = forge.delta(&golden, &a).expect("expressible (template path)");
        assert_eq!(third.stream.as_bytes(), first.stream.as_bytes());
        assert!(third.stream.parse().expect("parses").crc_checked);
    }

    #[test]
    fn structural_or_invalid_crc_candidates_fall_back() {
        let golden = sample(6, 0xBEE);
        let payload = golden.fdri_data_range().expect("payload");
        let mut forge = PartialForge::new(&golden).expect("analyzes");

        // A candidate with a broken stored CRC: the device must still
        // refuse it, so it cannot ship as a (valid) delta.
        let mut bad_crc = golden.clone();
        bad_crc.as_mut_bytes()[payload.start + 9] ^= 0x80;
        assert!(forge.delta(&golden, &bad_crc).is_none());

        // A CRC-disabled candidate differs structurally (zeroed CRC
        // packet) — not expressible.
        let mut disabled = golden.clone();
        disabled.as_mut_bytes()[payload.start + 9] ^= 0x80;
        disabled.disable_crc();
        assert!(forge.delta(&golden, &disabled).is_none());

        // A different length is never expressible.
        let longer = Bitstream::from_bytes([golden.as_bytes(), &[0u8; 4][..]].concat());
        assert!(forge.delta(&golden, &longer).is_none());
    }

    #[test]
    fn rollback_rides_the_next_delta() {
        // image holds edit A; the next candidate has only edit B: the
        // delta must cover both A's frame (reverting it) and B's.
        let golden = sample(16, 0x1CE);
        let payload = golden.fdri_data_range().expect("payload");
        let mut forge = PartialForge::new(&golden).expect("analyzes");
        let with_edit = |frame: usize| {
            let mut cand = golden.clone();
            cand.as_mut_bytes()[payload.start + frame * FRAME_BYTES + 5] ^= 0xFF;
            assert!(cand.recompute_crc());
            cand
        };
        let a = with_edit(2);
        let b = with_edit(12);
        let d = forge.delta(&a, &b).expect("expressible");
        assert_eq!(d.frames_written, 2, "revert frame 2 and write frame 12");
        let cfg = d.stream.parse().expect("parses");
        let starts: Vec<usize> = cfg.runs.iter().map(|r| r.start_frame).collect();
        assert_eq!(starts, vec![2, 12]);
        // The reverting run carries the *golden* frame bytes.
        assert_eq!(
            cfg.runs[0].frames.as_bytes(),
            &golden.as_bytes()[payload.start + 2 * FRAME_BYTES..payload.start + 3 * FRAME_BYTES]
        );
    }

    /// The block-skipping diff names exactly the payload words a
    /// byte-by-byte walk names, and refuses exactly the pairs that
    /// differ outside the payload and the stored CRC word.
    #[test]
    fn payload_word_diff_matches_a_byte_by_byte_reference() {
        let golden = sample(24, 7);
        let forge = PartialForge::new(&golden).expect("analyzes");
        let reference = |a: &[u8], b: &[u8]| -> Option<Vec<usize>> {
            let mut words: Vec<usize> = Vec::new();
            for (pos, (x, y)) in a.iter().zip(b).enumerate() {
                if x == y {
                    continue;
                }
                if forge.payload.contains(&pos) {
                    let w = (pos - forge.payload.start) / 4;
                    if words.last() != Some(&w) {
                        words.push(w);
                    }
                } else if !forge.crc_word.contains(&pos) {
                    return None;
                }
            }
            Some(words)
        };
        let mut x = 0x5EED_0FD1_FF00_0001u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut refused, mut accepted) = (0, 0);
        for _ in 0..400 {
            let mut pair = [golden.as_bytes().to_vec(), golden.as_bytes().to_vec()];
            for side in &mut pair {
                for _ in 0..next() % 6 {
                    let pos = match next() % 16 {
                        0 => (next() % forge.payload.start as u64) as usize,
                        1 => forge.crc_word.start + (next() % 4) as usize,
                        _ => forge.payload.start + (next() % forge.payload.len() as u64) as usize,
                    };
                    side[pos] ^= (next() % 255 + 1) as u8;
                }
            }
            let [a, b] = &pair;
            let want = reference(a, b);
            if want.is_some() {
                accepted += 1;
            } else {
                refused += 1;
            }
            assert_eq!(forge.payload_word_diff(a, b), want);
        }
        assert!(refused > 0 && accepted > 0, "both outcomes drawn: {refused} / {accepted}");
    }

    #[test]
    fn parse_is_total_on_garbage() {
        for seed in 0u8..16 {
            let bytes: Vec<u8> =
                (0..256).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect();
            let _ = PartialBitstream::from_bytes(bytes).parse();
        }
        let _ = PartialBitstream::from_bytes(Vec::new()).parse();
    }
}
