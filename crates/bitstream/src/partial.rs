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
//!   and `Start`/`Desync` — written by the same routine as a full
//!   bitstream, with a shorter preamble;
//! * [`PartialBitstream::parse`] consumes such streams with the same
//!   packet walker as [`Bitstream::parse`] (zero words skipped, `RCRC`
//!   resets, stored-CRC compare) and splits the payload into runs at
//!   each FAR write, returning typed errors for anything malformed;
//! * [`PartialForge`] turns a candidate full bitstream into the
//!   frame-delta against the image currently on the device, refusing
//!   (→ caller falls back to a full load) any pair the delta model
//!   does not cover — so acceptance and rejection stay bit-identical
//!   to full-load behaviour in every case.
//!
//! The frame address is modelled as a linear frame index (the real
//! device's block/row/column major address decomposes to one; the
//! attack never needs the split fields). Each delta is a fresh
//! [`PartialBitstream::assemble`] of the touched frames: a 4–5-frame
//! stream's CRC walk is a few hundred register writes.

use core::fmt;

use crate::delta::DeltaCrc;
use crate::frame::{FrameData, FRAME_BYTES};
use crate::image::Bitstream;
use crate::packet::{
    be_word, write_stream, PacketEncodeError, RegisterAddress, Step, Walk, WalkError,
    BUS_WIDTH_DETECT, BUS_WIDTH_SYNC, DUMMY_WORD,
};

/// The short preamble of a partial stream before the sync word: two
/// dummy words and the bus-width auto-detect words.
const PREAMBLE: [u32; 4] = [DUMMY_WORD, DUMMY_WORD, BUS_WIDTH_SYNC, BUS_WIDTH_DETECT];

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

impl From<WalkError> for ParsePartialError {
    fn from(e: WalkError) -> Self {
        match e {
            WalkError::NoSync => ParsePartialError::NoSync,
            WalkError::Truncated => ParsePartialError::Truncated,
            WalkError::UnknownRegister { raw } => ParsePartialError::UnknownRegister { raw },
        }
    }
}

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
        let runs = runs.iter().map(|run| (run.start_frame as u32, &run.frames));
        write_stream(&PREAMBLE, idcode, runs, 1).map(Self)
    }

    /// Parses the stream the way the device configuration logic does
    /// (the rules of [`Bitstream::parse`]), splitting the FDRI payload
    /// into runs: every Type 1 FAR write closes the current frame run
    /// and opens a new one at the address it writes.
    ///
    /// # Errors
    ///
    /// See [`ParsePartialError`]. Total over arbitrary bytes: never
    /// panics, never allocates from attacker-controlled length claims.
    pub fn parse(&self) -> Result<PartialConfig, ParsePartialError> {
        let mut walk = Walk::new(&self.0)?;
        let mut crc_checked = false;
        let mut far: Option<u32> = None;
        let mut runs: Vec<PartialRun> = Vec::new();
        let mut pending: Vec<u8> = Vec::new();
        for step in walk.by_ref() {
            match step? {
                Step::Packet { reg: RegisterAddress::Far, long: false, .. } => {
                    close_run(far, &mut pending, &mut runs)?;
                    far = None;
                }
                Step::Writes { reg: RegisterAddress::Far, words, long: false, .. } => {
                    far = Some(be_word(&words[words.len() - 4..]));
                }
                Step::Packet { reg: RegisterAddress::Fdri, .. } if far.is_none() => {
                    return Err(ParsePartialError::FdriBeforeFar);
                }
                Step::Writes { reg: RegisterAddress::Fdri, words, .. } => {
                    pending.extend_from_slice(words);
                }
                Step::Crc { stored, computed, .. } => {
                    if stored != computed {
                        return Err(ParsePartialError::CrcMismatch { stored, computed });
                    }
                    crc_checked = true;
                }
                _ => {}
            }
        }
        close_run(far, &mut pending, &mut runs)?;
        Ok(PartialConfig { idcode: walk.idcode(), runs, crc_checked })
    }
}

/// Closes the frame run accumulating in `pending` (if any) as a run at
/// frame address `far`.
fn close_run(
    far: Option<u32>,
    pending: &mut Vec<u8>,
    runs: &mut Vec<PartialRun>,
) -> Result<(), ParsePartialError> {
    if pending.is_empty() {
        return Ok(());
    }
    if !pending.len().is_multiple_of(FRAME_BYTES) {
        return Err(ParsePartialError::RaggedRun { words: pending.len() / 4 });
    }
    let start = far.ok_or(ParsePartialError::FdriBeforeFar)?;
    let frames = FrameData::from_bytes(core::mem::take(pending));
    runs.push(PartialRun { start_frame: start as usize, frames });
    Ok(())
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

/// Forges frame-delta partial streams against a reference full
/// bitstream's structure.
///
/// Built once from the first full load of a session; every later
/// candidate that is delta-expressible against the reference (see
/// [`DeltaCrc`]) forges in O(touched frames). Anything else —
/// structural edits, CRC-disabled streams, candidates whose own stored
/// CRC would be refused — returns `None` and the caller falls back to
/// a full load, so device-visible accept/reject behaviour is preserved
/// exactly.
#[derive(Debug)]
pub struct PartialForge {
    /// Differential-CRC analysis of the reference stream.
    delta: DeltaCrc,
    /// Device ID carried by the reference (re-emitted in deltas).
    idcode: u32,
}

impl PartialForge {
    /// Analyzes `reference` (a full bitstream the device accepted).
    /// `None` when the stream's structure defeats the delta model —
    /// no FDRI payload, no checkable CRC, or no IDCODE.
    #[must_use]
    pub fn new(reference: &Bitstream) -> Option<Self> {
        let delta = DeltaCrc::analyze(reference)?;
        let idcode = delta.idcode()?;
        Some(Self { delta, idcode })
    }

    /// Forges the frame-delta that turns the on-device `image` into
    /// `candidate`. Returns `None` — caller ships a full load — when
    /// the candidate is not delta-expressible against the reference,
    /// or its stored CRC is not the value the device would compute
    /// (the device must keep refusing such streams).
    #[must_use]
    pub fn delta(&self, image: &Bitstream, candidate: &Bitstream) -> Option<PartialDelta> {
        let cand = candidate.as_bytes();
        let words_vs_ref = self.delta.word_diff(self.delta.reference(), cand)?;
        self.delta.check(cand, &words_vs_ref).ok()?;
        // The shipped delta: frames where the candidate differs from
        // what is on the device. The image was validated when it was
        // latched, so a payload-confined scan suffices.
        let words_vs_img = self.delta.word_diff(image.as_bytes(), cand)?;
        let mut frames: Vec<usize> = words_vs_img.iter().map(|w| w * 4 / FRAME_BYTES).collect();
        frames.dedup();
        let payload_start = self.delta.payload().start;
        let runs: Vec<PartialRun> = contiguous_runs(&frames)
            .into_iter()
            .map(|(start, len)| {
                let at = payload_start + start * FRAME_BYTES;
                let bytes = cand[at..at + len * FRAME_BYTES].to_vec();
                PartialRun { start_frame: start, frames: FrameData::from_bytes(bytes) }
            })
            .collect();
        let stream = PartialBitstream::assemble(self.idcode, &runs).ok()?;
        Some(PartialDelta { stream, frames_written: frames.len() })
    }
}

/// Groups sorted frame indices into `(start, len)` runs of
/// consecutive frames.
fn contiguous_runs(frames: &[usize]) -> Vec<(usize, usize)> {
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
    use crate::frame::FRAME_WORDS;
    use crate::image::BitstreamBuilder;
    use crate::packet::{CommandCode, Packet, NOP, SYNC_WORD};

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
        let forge = PartialForge::new(&golden).expect("analyzes");
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
    fn structural_or_invalid_crc_candidates_fall_back() {
        let golden = sample(6, 0xBEE);
        let payload = golden.fdri_data_range().expect("payload");
        let forge = PartialForge::new(&golden).expect("analyzes");

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
        let forge = PartialForge::new(&golden).expect("analyzes");
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
