//! Configuration packets, and the one reader and one writer of the
//! packet stream.
//!
//! 7-series configuration data is a stream of 32-bit words: a sync
//! word, then Type 1 packets (register reads/writes with an 11-bit
//! word count) optionally followed by Type 2 packets (long payloads
//! using the previous packet's address; 27-bit word count). The
//! constants below reproduce the values quoted in Section V of the
//! paper: `0x30004000` (Type 1 write FDRI, count 0), `0x5xxxxxxx`
//! (Type 2 payload), `0x30000001` (write CRC), `0x30008001` +
//! `0x00000007` (CMD = RCRC).
//!
//! The crate reads a stream one way and writes it one way. `Walk`
//! applies the device's reading rules, and every reader is a loop over
//! its steps: [`Bitstream::parse`], [`PartialBitstream::parse`],
//! [`Bitstream::recompute_crc`], [`Bitstream::packets`] and
//! [`DeltaCrc::analyze`]. `write_stream` is the one encoder:
//! [`BitstreamBuilder`] and [`PartialBitstream::assemble`] differ only
//! in the preamble, the frame runs and the trailing padding they hand
//! it. Only the paper's own word searches
//! ([`Bitstream::fdri_data_range`], [`Bitstream::disable_crc`]) look
//! at the stream without walking it, because they model what the
//! attacker does, not how the device reads.
//!
//! [`Bitstream::parse`]: crate::Bitstream::parse
//! [`Bitstream::recompute_crc`]: crate::Bitstream::recompute_crc
//! [`Bitstream::packets`]: crate::Bitstream::packets
//! [`Bitstream::fdri_data_range`]: crate::Bitstream::fdri_data_range
//! [`Bitstream::disable_crc`]: crate::Bitstream::disable_crc
//! [`PartialBitstream::parse`]: crate::PartialBitstream::parse
//! [`PartialBitstream::assemble`]: crate::PartialBitstream::assemble
//! [`DeltaCrc::analyze`]: crate::DeltaCrc::analyze
//! [`BitstreamBuilder`]: crate::BitstreamBuilder

use core::fmt;

use crate::crc::ConfigCrc;
use crate::frame::FrameData;

/// The synchronization word that starts configuration.
pub const SYNC_WORD: u32 = 0xAA99_5566;

/// The dummy padding word.
pub(crate) const DUMMY_WORD: u32 = 0xFFFF_FFFF;

/// The bus-width auto-detect words.
pub(crate) const BUS_WIDTH_SYNC: u32 = 0x0000_00BB;
/// Second bus-width detect word.
pub(crate) const BUS_WIDTH_DETECT: u32 = 0x1122_0044;

/// A Type 1 NOP.
pub(crate) const NOP: u32 = 0x2000_0000;

/// The Type 1 "write FDRI register, WORD_COUNT=0" header the paper
/// quotes (`0x30004000`) — the anchor the payload search locates.
pub const FDRI_WRITE_HEADER: u32 = 0x3000_4000;

/// The Type 1 "write CRC register, WORD_COUNT=1" header the paper
/// quotes (`0x30000001`) — the packet the CRC-disable trick zeroes.
pub const CRC_WRITE_HEADER: u32 = 0x3000_0001;

/// Configuration register addresses (7-series subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum RegisterAddress {
    /// Cyclic-redundancy-check register.
    Crc = 0,
    /// Frame address register.
    Far = 1,
    /// Frame data input register (configuration payload).
    Fdri = 2,
    /// Frame data output register.
    Fdro = 3,
    /// Command register.
    Cmd = 4,
    /// Control register 0.
    Ctl0 = 5,
    /// Mask register.
    Mask = 6,
    /// Status register.
    Stat = 7,
    /// Legacy output register.
    Lout = 8,
    /// Configuration option register 0.
    Cor0 = 9,
    /// Device ID register.
    Idcode = 12,
}

impl RegisterAddress {
    /// Decodes a register address field.
    fn from_raw(raw: u16) -> Option<Self> {
        Some(match raw {
            0 => Self::Crc,
            1 => Self::Far,
            2 => Self::Fdri,
            3 => Self::Fdro,
            4 => Self::Cmd,
            5 => Self::Ctl0,
            6 => Self::Mask,
            7 => Self::Stat,
            8 => Self::Lout,
            9 => Self::Cor0,
            12 => Self::Idcode,
            _ => return None,
        })
    }
}

/// Values written to the CMD register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum CommandCode {
    /// Null command.
    Null = 0,
    /// Write configuration data.
    Wcfg = 1,
    /// Reset the CRC register (`CMD[4:0] = 00111`, as quoted in the
    /// paper).
    Rcrc = 7,
    /// Begin the startup sequence.
    Start = 5,
    /// Desynchronize: stop interpreting packets.
    Desync = 13,
}

/// A decoded configuration packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Type 1 register write with inline payload (≤ 2047 words).
    Type1Write {
        /// Target register.
        addr: RegisterAddress,
        /// Payload words.
        data: Vec<u32>,
    },
    /// Type 2 long write; uses the address of the preceding Type 1
    /// packet.
    Type2Write {
        /// Payload words.
        data: Vec<u32>,
    },
    /// A NOP word.
    Nop,
}

/// A word count that does not fit its packet header field. Encoding
/// is total over all other inputs; these are the only failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketEncodeError {
    /// A Type 1 count exceeds the 11-bit field.
    Type1CountOverflow {
        /// The offending word count.
        count: usize,
    },
    /// A Type 2 count exceeds the 27-bit field.
    Type2CountOverflow {
        /// The offending word count.
        count: usize,
    },
}

impl fmt::Display for PacketEncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketEncodeError::Type1CountOverflow { count } => {
                write!(f, "word count {count} exceeds the 11-bit Type 1 field")
            }
            PacketEncodeError::Type2CountOverflow { count } => {
                write!(f, "word count {count} exceeds the 27-bit Type 2 field")
            }
        }
    }
}

impl std::error::Error for PacketEncodeError {}

impl Packet {
    /// Encodes a Type 1 write header for `count` payload words.
    ///
    /// # Errors
    ///
    /// Returns [`PacketEncodeError::Type1CountOverflow`] if `count`
    /// exceeds the 11-bit field.
    pub fn type1_header(addr: RegisterAddress, count: usize) -> Result<u32, PacketEncodeError> {
        if count >= (1 << 11) {
            return Err(PacketEncodeError::Type1CountOverflow { count });
        }
        Ok(0x3000_0000 | ((addr as u32) << 13) | count as u32)
    }

    /// Encodes a Type 2 write header for `count` payload words.
    ///
    /// # Errors
    ///
    /// Returns [`PacketEncodeError::Type2CountOverflow`] if `count`
    /// exceeds the 27-bit field.
    pub fn type2_header(count: usize) -> Result<u32, PacketEncodeError> {
        if count >= (1 << 27) {
            return Err(PacketEncodeError::Type2CountOverflow { count });
        }
        Ok(0x5000_0000 | count as u32)
    }

    /// Decodes the header fields of a packet word.
    fn decode_header(word: u32) -> HeaderFields {
        HeaderFields {
            packet_type: (word >> 29) as u8,
            opcode: ((word >> 27) & 0x3) as u8,
            addr: ((word >> 13) & 0x3FFF) as u16,
            count_type1: (word & 0x7FF) as usize,
            count_type2: (word & 0x07FF_FFFF) as usize,
        }
    }
}

/// Raw header fields of a packet word.
struct HeaderFields {
    /// Bits `[31:29]`.
    packet_type: u8,
    /// Bits `[28:27]`: 0 = NOP, 1 = read, 2 = write.
    opcode: u8,
    /// Bits `[26:13]` (Type 1 only).
    addr: u16,
    /// Bits `[10:0]` (Type 1).
    count_type1: usize,
    /// Bits `[26:0]` (Type 2).
    count_type2: usize,
}

/// The word count of a Type 2 header, or `None` for any other word.
pub(crate) fn type2_count(word: u32) -> Option<usize> {
    let h = Packet::decode_header(word);
    (h.packet_type == 2).then_some(h.count_type2)
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Packet::Type1Write { addr, data } => {
                write!(f, "Type 1: write {addr:?}, {} words", data.len())
            }
            Packet::Type2Write { data } => write!(f, "Type 2: write, {} words", data.len()),
            Packet::Nop => write!(f, "NOP"),
        }
    }
}

/// A big-endian configuration word.
pub(crate) fn be_word(bytes: &[u8]) -> u32 {
    u32::from_be_bytes(bytes.try_into().expect("4 bytes"))
}

/// The offset of the first big-endian `word` at a 4-byte-aligned
/// offset at or after `from`.
pub(crate) fn find_word(bytes: &[u8], word: u32, from: usize) -> Option<usize> {
    let skip = from / 4;
    let at = bytes.chunks_exact(4).skip(skip).position(|w| w == word.to_be_bytes())?;
    Some(4 * (skip + at))
}

/// An error the walk raises; each reader maps it onto its own error
/// type, variant for variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalkError {
    NoSync,
    Truncated,
    UnknownRegister { raw: u16 },
}

/// One thing a [`Walk`] reads. Offsets are byte offsets into the
/// walked stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step<'a> {
    /// A NOP word or packet.
    Nop { at: usize },
    /// A write packet header; `long` for Type 2.
    Packet { at: usize, reg: RegisterAddress, long: bool },
    /// Register writes of the big-endian `words` found at `at`,
    /// already fed to the CRC; `long` when they are part of a Type 2
    /// payload. A packet's words come as one run, except that a
    /// Type 1 `CMD` write comes one word at a time.
    Writes { at: usize, reg: RegisterAddress, words: &'a [u8], long: bool },
    /// `CMD = RCRC` at `at`: the CRC was reset.
    Reset { at: usize },
    /// A CRC write's `stored` value (at `at`) against the running
    /// value the device `computed`. The walk goes on either way.
    Crc { at: usize, stored: u32, computed: u32 },
}

/// The device's reading of a configuration stream, as an iterator of
/// [`Step`]s:
///
/// * it starts after the first aligned [`SYNC_WORD`] and skips `0`
///   and [`DUMMY_WORD`] words, and yields [`NOP`] words as
///   [`Step::Nop`] (the zero skip is what the paper's CRC-disable
///   trick relies on);
/// * a Type 1 write to an unknown register, a packet cut short, a CRC
///   write without a value, or a Type 2 write with no Type 1 write
///   before it is an error, and the last item;
/// * every register write but a CRC write feeds the CRC. A Type 1
///   `CMD = RCRC` resets it instead, and a Type 1 `CMD = Desync` ends
///   the walk (a Type 2 payload is never read as a command);
/// * a CRC write yields its first word as a [`Step::Crc`] and skips
///   the rest; the words of any other write come as [`Step::Writes`];
/// * reads and reserved packet types are one word each, ignored.
///
/// A walk allocates nothing.
pub(crate) struct Walk<'a> {
    bytes: &'a [u8],
    /// Offset of the next word.
    at: usize,
    crc: ConfigCrc,
    /// Register of the last Type 1 write: where a Type 2 write goes.
    last: Option<RegisterAddress>,
    /// Register, type and words left of the packet being read.
    reg: RegisterAddress,
    long: bool,
    left: usize,
    /// First value of the last Type 1 IDCODE write.
    idcode: Option<u32>,
    /// Set by `Desync` and by an error.
    done: bool,
}

impl<'a> Walk<'a> {
    /// Starts after the first aligned sync word of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Result<Self, WalkError> {
        let at = find_word(bytes, SYNC_WORD, 0).ok_or(WalkError::NoSync)? + 4;
        Ok(Self {
            bytes,
            at,
            crc: ConfigCrc::new(),
            last: None,
            reg: RegisterAddress::Crc,
            long: false,
            left: 0,
            idcode: None,
            done: false,
        })
    }

    /// The device ID written so far: the first value of the last
    /// Type 1 IDCODE write.
    pub(crate) fn idcode(&self) -> Option<u32> {
        self.idcode
    }

    fn word(&self, at: usize) -> Option<u32> {
        self.bytes.get(at..at + 4).map(be_word)
    }

    /// Reads the rest of the current packet, or only its next word if
    /// it is a Type 1 CMD or CRC write.
    fn data(&mut self) -> Result<Option<Step<'a>>, WalkError> {
        let (at, reg, long) = (self.at, self.reg, self.long);
        let command = !long && matches!(reg, RegisterAddress::Cmd | RegisterAddress::Crc);
        let n = if command { 1 } else { self.left };
        let words = self.bytes.get(at..at + 4 * n).ok_or(WalkError::Truncated)?;
        self.at += 4 * n;
        self.left -= n;
        if command {
            let value = be_word(words);
            if reg == RegisterAddress::Crc {
                self.at += 4 * core::mem::take(&mut self.left);
                return Ok(Some(Step::Crc { at, stored: value, computed: self.crc.value() }));
            }
            if value == CommandCode::Rcrc as u32 {
                self.crc.reset();
                return Ok(Some(Step::Reset { at }));
            }
            self.done = value == CommandCode::Desync as u32;
        }
        for word in words.chunks_exact(4) {
            self.crc.update(reg as u16, be_word(word));
        }
        Ok(Some(Step::Writes { at, reg, words, long }))
    }

    /// Reads up to the next packet header or NOP.
    fn header(&mut self) -> Result<Option<Step<'a>>, WalkError> {
        while let Some(word) = self.word(self.at) {
            let at = self.at;
            self.at += 4;
            let h = Packet::decode_header(word);
            let (reg, long, left) = match (h.packet_type, h.opcode) {
                (1, 0) => return Ok(Some(Step::Nop { at })),
                (1, 2) => {
                    let reg = RegisterAddress::from_raw(h.addr)
                        .ok_or(WalkError::UnknownRegister { raw: h.addr })?;
                    let n = h.count_type1;
                    if self.bytes.len() - self.at < 4 * n || (reg == RegisterAddress::Crc && n == 0)
                    {
                        return Err(WalkError::Truncated);
                    }
                    if reg == RegisterAddress::Idcode {
                        self.idcode = if n > 0 { self.word(self.at) } else { None };
                    }
                    self.last = Some(reg);
                    (reg, false, n)
                }
                (2, 2) => (self.last.ok_or(WalkError::Truncated)?, true, h.count_type2),
                // Reads, reserved types, and the `0` and DUMMY_WORD
                // padding words (types 0 and 7).
                _ => continue,
            };
            (self.reg, self.long, self.left) = (reg, long, left);
            return Ok(Some(Step::Packet { at, reg, long }));
        }
        Ok(None)
    }
}

impl<'a> Iterator for Walk<'a> {
    type Item = Result<Step<'a>, WalkError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let step = if self.left > 0 { self.data() } else { self.header() };
        self.done |= step.is_err();
        step.transpose()
    }
}

/// Encodes a configuration stream: `preamble`, the sync word, `RCRC`,
/// `IDCODE`, one `FAR`/`WCFG`/`FDRI` group per `(frame address,
/// frames)` run, the CRC write, `Start`, `Desync`, then
/// `trailing_nops` NOPs. The CRC value is the one the walk computes,
/// so the writer and every reader apply one CRC rule.
///
/// # Errors
///
/// [`PacketEncodeError`] if a run overflows the Type 2 word count.
pub(crate) fn write_stream<'f>(
    preamble: &[u32],
    idcode: u32,
    runs: impl IntoIterator<Item = (u32, &'f FrameData)>,
    trailing_nops: usize,
) -> Result<Vec<u8>, PacketEncodeError> {
    let write = |reg| Packet::type1_header(reg, 1);
    let cmd = write(RegisterAddress::Cmd)?;
    let mut out = Vec::new();
    put(&mut out, preamble);
    put(&mut out, &[SYNC_WORD, NOP, cmd, CommandCode::Rcrc as u32, NOP]);
    put(&mut out, &[write(RegisterAddress::Idcode)?, idcode]);
    for (far, frames) in runs {
        let payload = frames.as_bytes();
        put(&mut out, &[write(RegisterAddress::Far)?, far, cmd, CommandCode::Wcfg as u32]);
        let fdri = Packet::type1_header(RegisterAddress::Fdri, 0)?;
        put(&mut out, &[fdri, Packet::type2_header(payload.len() / 4)?]);
        out.extend_from_slice(payload);
    }
    put(&mut out, &[write(RegisterAddress::Crc)?, 0, NOP]);
    put(&mut out, &[cmd, CommandCode::Start as u32, cmd, CommandCode::Desync as u32]);
    for _ in 0..trailing_nops {
        put(&mut out, &[NOP]);
    }
    let repaired = repair_crcs(&mut out);
    debug_assert!(repaired, "the stream carries its CRC write");
    Ok(out)
}

/// Appends big-endian words.
fn put(out: &mut Vec<u8>, words: &[u32]) {
    out.extend(words.iter().flat_map(|w| w.to_be_bytes()));
}

/// Writes the value the device computes into every CRC write the walk
/// of `bytes` checks; returns whether there was one.
pub(crate) fn repair_crcs(bytes: &mut [u8]) -> bool {
    let mut fixes: Vec<(usize, u32)> = Vec::new();
    if let Ok(walk) = Walk::new(bytes) {
        for step in walk.map_while(Result::ok) {
            if let Step::Crc { at, computed, .. } = step {
                fixes.push((at, computed));
            }
        }
    }
    for &(at, value) in &fixes {
        bytes[at..at + 4].copy_from_slice(&value.to_be_bytes());
    }
    !fixes.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        // "Packet Type 1: Write FDRI register, WORD_COUNT=0" is
        // 0x30004000.
        assert_eq!(Packet::type1_header(RegisterAddress::Fdri, 0), Ok(FDRI_WRITE_HEADER));
        // "Packet Type 1: Write CRC register, WORD_COUNT=1" is
        // 0x30000001.
        assert_eq!(Packet::type1_header(RegisterAddress::Crc, 1), Ok(CRC_WRITE_HEADER));
        // "Packet Type 1: Write CMD register, WORD_COUNT=1" is
        // 0x30008001.
        assert_eq!(Packet::type1_header(RegisterAddress::Cmd, 1), Ok(0x3000_8001));
        // "Packet Type 2: Write FDRI register, WORD_COUNT=2432080" is
        // 0x50251c50.
        assert_eq!(Packet::type2_header(2_432_080), Ok(0x5025_1C50));
    }

    #[test]
    fn header_field_extraction() {
        let h = Packet::decode_header(0x3000_4000);
        assert_eq!(h.packet_type, 1);
        assert_eq!(h.opcode, 2);
        assert_eq!(RegisterAddress::from_raw(h.addr), Some(RegisterAddress::Fdri));
        assert_eq!(h.count_type1, 0);

        let h2 = Packet::decode_header(0x5025_1C50);
        assert_eq!(h2.packet_type, 2);
        assert_eq!(h2.count_type2, 2_432_080);
    }

    #[test]
    fn rcrc_is_00111() {
        assert_eq!(CommandCode::Rcrc as u32, 0b00111);
        assert_eq!(CommandCode::Desync as u32, 13);
    }

    #[test]
    fn count_overflow_is_a_typed_error_not_a_panic() {
        assert_eq!(
            Packet::type1_header(RegisterAddress::Fdri, 2048),
            Err(PacketEncodeError::Type1CountOverflow { count: 2048 })
        );
        assert_eq!(Packet::type1_header(RegisterAddress::Fdri, 2047).map(|w| w & 0x7FF), Ok(2047));
        assert_eq!(
            Packet::type2_header(1 << 27),
            Err(PacketEncodeError::Type2CountOverflow { count: 1 << 27 })
        );
        let e = Packet::type2_header(usize::MAX).unwrap_err();
        assert!(e.to_string().contains("27-bit"));
    }
}
