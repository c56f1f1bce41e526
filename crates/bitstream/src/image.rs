//! Whole-bitstream assembly and parsing.
//!
//! A bitstream file consists of a header, the sync word, and a packet
//! stream that resets the CRC (`RCRC`), writes device registers,
//! streams the configuration frames into `FDRI`, writes the expected
//! CRC, and desynchronizes. [`BitstreamBuilder`] produces such files
//! with the crate's one stream writer; [`Bitstream::parse`],
//! [`Bitstream::recompute_crc`] and [`Bitstream::packets`] are loops
//! over its one packet walker, which reads the stream the way the
//! device's configuration logic does (see [`crate::packet`]) —
//! including the quirk the paper's CRC-disable trick relies on:
//! all-zero words are ignored, so overwriting the `Write CRC` packet
//! with zeros removes the check. [`Bitstream::fdri_data_range`] and
//! [`Bitstream::disable_crc`] are the paper's plain word searches
//! instead: they model what the attacker does, not how the device
//! reads.

use core::fmt;
use core::ops::Range;

use crate::frame::{FrameData, FRAME_BYTES};
use crate::packet::{
    be_word, find_word, repair_crcs, type2_count, write_stream, Packet, PacketEncodeError,
    RegisterAddress, Step, Walk, WalkError, BUS_WIDTH_DETECT, BUS_WIDTH_SYNC, DUMMY_WORD,
};

/// The full-file preamble before the sync word: dummy padding around
/// the bus-width auto-detect words.
const PREAMBLE: [u32; 12] = {
    let mut words = [DUMMY_WORD; 12];
    (words[8], words[9]) = (BUS_WIDTH_SYNC, BUS_WIDTH_DETECT);
    words
};

/// Default device ID used by the builder.
pub const DEFAULT_IDCODE: u32 = 0x0362_D093; // Artix-7 XC7A35T

/// Builds a bitstream file from configuration frames.
///
/// # Example
///
/// ```
/// use bitstream::{BitstreamBuilder, FrameData};
///
/// let frames = FrameData::new(3);
/// let bs = BitstreamBuilder::new(frames).build();
/// let config = bs.parse()?;
/// assert_eq!(config.frames.frame_count(), 3);
/// assert!(config.crc_checked);
/// # Ok::<(), bitstream::ParseBitstreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BitstreamBuilder {
    frames: FrameData,
    idcode: u32,
}

impl BitstreamBuilder {
    /// Starts a builder around the given frame payload.
    #[must_use]
    pub fn new(frames: FrameData) -> Self {
        Self { frames, idcode: DEFAULT_IDCODE }
    }

    /// Overrides the device ID word.
    #[must_use]
    pub fn idcode(mut self, idcode: u32) -> Self {
        self.idcode = idcode;
        self
    }

    /// Serializes the bitstream, computing the correct CRC.
    ///
    /// # Panics
    ///
    /// Panics if the frame payload exceeds the 27-bit Type 2 word
    /// count (≥ 512 MiB of frames); use [`BitstreamBuilder::try_build`]
    /// to handle that case as a typed error.
    #[must_use]
    pub fn build(self) -> Bitstream {
        self.try_build().expect("frame payload fits the Type 2 word count")
    }

    /// Serializes the bitstream, computing the correct CRC.
    ///
    /// # Errors
    ///
    /// Returns [`PacketEncodeError`] if the frame payload does not fit
    /// the Type 2 word-count field.
    pub fn try_build(self) -> Result<Bitstream, PacketEncodeError> {
        write_stream(&PREAMBLE, self.idcode, [(0, &self.frames)], 2).map(Bitstream)
    }
}

/// The result of parsing a bitstream, as seen by the configuration
/// logic.
#[derive(Debug, Clone)]
pub struct ConfigData {
    /// The FDRI payload.
    pub frames: FrameData,
    /// The device ID written during configuration, if any.
    pub idcode: Option<u32>,
    /// Whether a CRC write was present and matched. When the CRC
    /// packet has been zeroed out (the paper's disable trick) this is
    /// `false` and configuration proceeds unchecked.
    pub crc_checked: bool,
}

/// An error from [`Bitstream::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBitstreamError {
    /// No sync word found.
    NoSync,
    /// The stream ended in the middle of a packet.
    Truncated,
    /// A packet addressed an unknown register.
    UnknownRegister {
        /// Raw address field.
        raw: u16,
    },
    /// The CRC written in the stream does not match the computed one;
    /// the device aborts configuration (pulls `INIT_B` low).
    CrcMismatch {
        /// Value found in the stream.
        stored: u32,
        /// Value computed from the writes.
        computed: u32,
    },
    /// The FDRI payload was not a whole number of frames.
    RaggedFrames {
        /// Number of payload words received.
        words: usize,
    },
}

impl fmt::Display for ParseBitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBitstreamError::NoSync => write!(f, "no sync word found"),
            ParseBitstreamError::Truncated => write!(f, "bitstream truncated mid-packet"),
            ParseBitstreamError::UnknownRegister { raw } => {
                write!(f, "write to unknown register {raw:#x}")
            }
            ParseBitstreamError::CrcMismatch { stored, computed } => {
                write!(f, "crc mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            ParseBitstreamError::RaggedFrames { words } => {
                write!(f, "FDRI payload of {words} words is not a whole number of frames")
            }
        }
    }
}

impl std::error::Error for ParseBitstreamError {}

impl From<WalkError> for ParseBitstreamError {
    fn from(e: WalkError) -> Self {
        match e {
            WalkError::NoSync => ParseBitstreamError::NoSync,
            WalkError::Truncated => ParseBitstreamError::Truncated,
            WalkError::UnknownRegister { raw } => ParseBitstreamError::UnknownRegister { raw },
        }
    }
}

/// A bitstream file: raw bytes plus the operations the attack needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream(Vec<u8>);

impl Bitstream {
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

    /// Mutable access to the raw bytes.
    pub fn as_mut_bytes(&mut self) -> &mut [u8] {
        &mut self.0
    }

    /// Consumes the wrapper.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the bitstream is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Finds the first occurrence of a big-endian 32-bit word at a
    /// 4-byte-aligned offset at or after `from`.
    #[must_use]
    pub fn find_word(&self, word: u32, from: usize) -> Option<usize> {
        find_word(&self.0, word, from)
    }

    /// The byte range of the FDRI Type 2 payload — the region the LUT
    /// search scans. Mirrors the paper's procedure: locate
    /// `0x30004000`, read the following Type 2 header's word count.
    #[must_use]
    pub fn fdri_data_range(&self) -> Option<Range<usize>> {
        let hdr = self.find_word(crate::packet::FDRI_WRITE_HEADER, 0)?;
        let t2_at = hdr + 4;
        let t2 = be_word(self.0.get(t2_at..t2_at + 4)?);
        let start = t2_at + 4;
        let end = start + type2_count(t2)? * 4;
        (end <= self.0.len()).then_some(start..end)
    }

    /// Disables the CRC check by replacing the `Write CRC` packet
    /// header and its value with all-zero words, exactly as described
    /// in Section V-B. Returns the number of CRC packets zeroed.
    pub fn disable_crc(&mut self) -> usize {
        let hdr = crate::packet::CRC_WRITE_HEADER;
        let mut n = 0;
        let mut from = self.fdri_data_range().map_or(0, |r| r.end);
        while let Some(at) = self.find_word(hdr, from) {
            // A truncated stream may end right after the header; zero
            // only the bytes that exist.
            let end = (at + 8).min(self.0.len());
            self.0[at..end].fill(0);
            from = end;
            n += 1;
        }
        n
    }

    /// Recomputes the configuration CRC after a modification and
    /// patches the stored value (the alternative to
    /// [`Bitstream::disable_crc`]): every CRC write the device checks
    /// gets the value the device computes there, so [`Bitstream::parse`]
    /// never refuses the result with a CRC mismatch. Returns `true` if
    /// at least one CRC write was patched.
    pub fn recompute_crc(&mut self) -> bool {
        repair_crcs(&mut self.0)
    }

    /// Byte-level diff of two bitstreams: ranges (in absolute byte
    /// offsets) where they differ. Adjacent differing bytes are
    /// merged into one range. Used by tooling to show exactly which
    /// configuration bytes an attack touched.
    #[must_use]
    pub fn diff(&self, other: &Bitstream) -> Vec<Range<usize>> {
        let mut out: Vec<Range<usize>> = Vec::new();
        let n = self.0.len().max(other.0.len());
        let mut i = 0;
        while i < n {
            let differs = self.0.get(i) != other.0.get(i);
            if differs {
                match out.last_mut() {
                    Some(last) if last.end == i => last.end = i + 1,
                    _ => out.push(i..i + 1),
                }
            }
            i += 1;
        }
        out
    }

    /// Decodes the packet stream for inspection tools: every packet
    /// the device reads after the sync word, with its byte offset.
    /// Zero and dummy words are skipped; the listing ends at `Desync`
    /// or where [`Bitstream::parse`] would stop with an error.
    #[must_use]
    pub fn packets(&self) -> Vec<(usize, Packet)> {
        let mut out: Vec<(usize, Packet)> = Vec::new();
        let Ok(walk) = Walk::new(&self.0) else { return out };
        for step in walk.map_while(Result::ok) {
            let words = match step {
                Step::Nop { at } => {
                    out.push((at, Packet::Nop));
                    continue;
                }
                Step::Packet { at, reg, long } => {
                    let data = Vec::new();
                    let packet = if long {
                        Packet::Type2Write { data }
                    } else {
                        Packet::Type1Write { addr: reg, data }
                    };
                    out.push((at, packet));
                    continue;
                }
                Step::Writes { words, .. } => words,
                Step::Reset { at } | Step::Crc { at, .. } => &self.0[at..at + 4],
            };
            if let Some((_, Packet::Type1Write { data, .. } | Packet::Type2Write { data })) =
                out.last_mut()
            {
                data.extend(words.chunks_exact(4).map(be_word));
            }
        }
        out
    }

    /// Parses the bitstream the way the device configuration logic
    /// does (see the module docs).
    ///
    /// # Errors
    ///
    /// See [`ParseBitstreamError`]; notably, a stored CRC that does
    /// not match the computed value aborts parsing, while an *absent*
    /// CRC write (zeroed packet) does not.
    pub fn parse(&self) -> Result<ConfigData, ParseBitstreamError> {
        let mut walk = Walk::new(&self.0)?;
        let mut fdri: Vec<u8> = Vec::new();
        let mut crc_checked = false;
        for step in walk.by_ref() {
            match step? {
                Step::Writes { reg: RegisterAddress::Fdri, words, .. } => {
                    fdri.extend_from_slice(words);
                }
                Step::Crc { stored, computed, .. } => {
                    if stored != computed {
                        return Err(ParseBitstreamError::CrcMismatch { stored, computed });
                    }
                    crc_checked = true;
                }
                _ => {}
            }
        }
        if !fdri.len().is_multiple_of(FRAME_BYTES) {
            return Err(ParseBitstreamError::RaggedFrames { words: fdri.len() / 4 });
        }
        Ok(ConfigData { frames: FrameData::from_bytes(fdri), idcode: walk.idcode(), crc_checked })
    }
}

impl AsRef<[u8]> for Bitstream {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{CommandCode, SYNC_WORD};

    fn sample(frames: usize) -> Bitstream {
        let mut data = FrameData::new(frames);
        for (i, b) in data.as_mut_bytes().iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        BitstreamBuilder::new(data).build()
    }

    #[test]
    fn build_parse_roundtrip() {
        let bs = sample(5);
        let cfg = bs.parse().expect("valid bitstream");
        assert_eq!(cfg.frames.frame_count(), 5);
        assert!(cfg.crc_checked);
        assert_eq!(cfg.idcode, Some(DEFAULT_IDCODE));
        assert_eq!(cfg.frames.as_bytes()[7], 7);
    }

    #[test]
    fn fdri_range_matches_payload() {
        let bs = sample(3);
        let range = bs.fdri_data_range().expect("has FDRI payload");
        assert_eq!(range.len(), 3 * FRAME_BYTES);
        assert_eq!(&bs.as_bytes()[range.start..range.start + 4], &[0, 1, 2, 3]);
    }

    #[test]
    fn modification_breaks_crc() {
        let mut bs = sample(3);
        let range = bs.fdri_data_range().unwrap();
        bs.as_mut_bytes()[range.start + 100] ^= 0xFF;
        assert!(matches!(bs.parse(), Err(ParseBitstreamError::CrcMismatch { .. })));
    }

    #[test]
    fn disable_crc_allows_modification() {
        let mut bs = sample(3);
        let range = bs.fdri_data_range().unwrap();
        bs.as_mut_bytes()[range.start + 100] ^= 0xFF;
        assert_eq!(bs.disable_crc(), 1);
        let cfg = bs.parse().expect("parses without CRC");
        assert!(!cfg.crc_checked);
        assert_eq!(cfg.frames.as_bytes()[100], 100u8 ^ 0xFF);
    }

    #[test]
    fn recompute_crc_allows_modification() {
        let mut bs = sample(3);
        let range = bs.fdri_data_range().unwrap();
        bs.as_mut_bytes()[range.start + 100] ^= 0xFF;
        assert!(bs.recompute_crc());
        let cfg = bs.parse().expect("parses with fixed CRC");
        assert!(cfg.crc_checked, "CRC still present and now correct");
    }

    #[test]
    fn no_sync_rejected() {
        let bs = Bitstream::from_bytes(vec![0u8; 64]);
        assert_eq!(bs.parse().unwrap_err(), ParseBitstreamError::NoSync);
    }

    #[test]
    fn find_word_aligned_only() {
        let bs = sample(1);
        let at = bs.find_word(SYNC_WORD, 0).unwrap();
        assert_eq!(at % 4, 0);
        assert!(bs.find_word(0x12345677, 0).is_none());
    }

    #[test]
    fn diff_reports_touched_ranges() {
        let a = sample(2);
        let mut b = a.clone();
        let range = b.fdri_data_range().unwrap();
        b.as_mut_bytes()[range.start + 10] ^= 0xFF;
        b.as_mut_bytes()[range.start + 11] ^= 0xFF;
        b.as_mut_bytes()[range.start + 100] ^= 0x01;
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], range.start + 10..range.start + 12);
        assert_eq!(d[1], range.start + 100..range.start + 101);
        assert!(a.diff(&a).is_empty());
        // Length differences count as differing bytes.
        let longer = Bitstream::from_bytes([a.as_bytes(), &[0xEE][..]].concat());
        assert_eq!(a.diff(&longer).last().unwrap().end, a.len() + 1);
    }

    #[test]
    fn packet_listing_matches_structure() {
        let bs = sample(2);
        let packets = bs.packets();
        // RCRC first, FDRI type-2 payload present, CRC write present,
        // ends at DESYNC.
        assert!(packets.iter().find(|(_, p)| matches!(p, Packet::Type1Write { addr: RegisterAddress::Cmd, data } if data == &vec![CommandCode::Rcrc as u32])).is_some());
        let t2 = packets.iter().find_map(|(_, p)| match p {
            Packet::Type2Write { data } => Some(data.len()),
            _ => None,
        });
        assert_eq!(t2, Some(2 * crate::frame::FRAME_WORDS));
        let last_write = packets
            .iter()
            .rev()
            .find_map(|(_, p)| match p {
                Packet::Type1Write { addr: RegisterAddress::Cmd, data } => Some(data.clone()),
                _ => None,
            })
            .unwrap();
        assert!(last_write.contains(&(CommandCode::Desync as u32)));
    }

    #[test]
    fn truncated_stream_detected() {
        let bs = sample(2);
        let cut = bs.as_bytes().len() / 2;
        let bs2 = Bitstream::from_bytes(bs.as_bytes()[..cut].to_vec());
        assert!(matches!(
            bs2.parse(),
            Err(ParseBitstreamError::Truncated | ParseBitstreamError::RaggedFrames { .. })
        ));
    }
}
