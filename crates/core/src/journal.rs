//! The crash-safe attack journal: a durable, versioned, CRC-guarded
//! snapshot of an in-flight attack.
//!
//! A long noisy campaign can be killed at any moment — power cut,
//! OOM, operator Ctrl-C — and restarting a metered attack from
//! scratch wastes every physical configuration already spent. The
//! attack driver persists its complete mutable state here after every
//! completed work item: the [`AttackCheckpoint`] (verified findings
//! plus exact loop cursors), the resilience layer's clock/stats and
//! adaptive-policy controller ([`ResilientSnapshot`]), and the
//! board's opaque fault state
//! ([`crate::oracle::KeystreamOracle::state_snapshot`]). Reloading
//! the journal resumes the run *mid-phase*, replaying the identical
//! query trace an uninterrupted run would have produced.
//!
//! # On-disk format (version 3)
//!
//! Version 2 dropped the resilience layer's 16-byte jitter-RNG state
//! (jitter became a pure function of `(seed, query index, read
//! ordinal)`, so the stats counters pin the resume point by
//! themselves) and added the adaptive-policy flag and controller
//! state. Version 3 appends the side-channel trace count of the
//! encrypted attack path (`sca_traces`, 0 for plaintext runs), so a
//! killed-and-resumed encrypted session replays its SCA accounting
//! bit-identically; version-2 journals still decode (the field
//! defaults to 0). Version-1 journals are refused with
//! [`JournalError::UnsupportedVersion`]-style typed errors rather
//! than being misread.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"BMODJRNL"
//! 8       2     version (little-endian u16, currently 3)
//! 10      2     reserved (0)
//! 12      4     payload length (little-endian u32)
//! 16      n     payload (the encoded JournalDoc)
//! 16+n    4     CRC-32C over bytes 0..16+n (little-endian u32)
//! ```
//!
//! All integers are little-endian; the payload codec is hand-rolled
//! (no serde in this offline workspace) with length-prefixed
//! sequences and 0/1 option tags. The CRC is the same Castagnoli
//! polynomial the configuration logic uses
//! ([`bitstream::crc::ByteCrc`]).
//!
//! # Atomicity and corruption
//!
//! [`AttackJournal::save`] writes the frame to a sibling temporary
//! file, `sync_all`s it, and renames it over the journal path —
//! readers see either the previous complete journal or the new one,
//! never a mix. Whatever still goes wrong on disk (a torn write
//! leaves a short file; bit rot flips payload or even length-field
//! bits) is detected by the exact-length check and the CRC and
//! surfaces as a typed [`JournalError`] — a corrupt journal can
//! never decode into a silently wrong checkpoint, and no input
//! panics the decoder.

use core::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use bitstream::crc::ByteCrc;
use boolfn::{DualOutputInit, Permutation};

use crate::attack::{
    AttackCheckpoint, AttackPhase, FeedbackLut, LoadMuxHalf, SiteLattice, ZPathLut,
};
use crate::candidates::Catalogue;
use crate::findlut::LutHit;
use crate::resilient::adaptive::MAX_LEVEL;
use crate::resilient::{
    PolicyController, PolicyEvent, ResilienceConfig, ResilientSnapshot, ResilientStats, RetryPolicy,
};

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"BMODJRNL";

/// The current format version.
pub const VERSION: u16 = 3;

/// Frame header size: magic + version + reserved + payload length.
const HEADER_BYTES: usize = 16;

/// A journal failure. Every corruption mode decodes to a typed error
/// — never a panic, never a silently wrong checkpoint.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file is shorter than a complete frame (torn write or
    /// truncation).
    TooShort {
        /// Bytes present.
        got: usize,
        /// Bytes a complete frame needs.
        need: usize,
    },
    /// The file does not start with the journal magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The file length disagrees with the header's payload length
    /// (torn write, trailing junk, or a flipped length bit).
    LengthMismatch {
        /// Length the header implies.
        expected: u64,
        /// Actual file length.
        actual: u64,
    },
    /// The frame CRC does not match (bit rot / partial overwrite).
    CrcMismatch {
        /// CRC stored in the frame.
        stored: u32,
        /// CRC computed over the frame.
        computed: u32,
    },
    /// The payload is structurally invalid (bad tag, impossible
    /// enum value, inconsistent invariants).
    Malformed(String),
    /// The journal was recorded against a different golden bitstream.
    GoldenMismatch {
        /// Golden-bitstream CRC the journal recorded.
        journalled: u32,
        /// CRC of the bitstream offered for resume.
        found: u32,
    },
    /// A resume override changed a trace-determining resilience
    /// parameter (see [`ResilienceConfig::same_trace`]).
    ConfigMismatch {
        /// The configuration the journal recorded.
        journalled: Box<ResilienceConfig>,
        /// The configuration requested for the resume.
        requested: Box<ResilienceConfig>,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O failure: {e}"),
            JournalError::TooShort { got, need } => {
                write!(f, "journal truncated: {got} bytes, a complete frame needs {need}")
            }
            JournalError::BadMagic => write!(f, "not an attack journal (bad magic)"),
            JournalError::UnsupportedVersion(v) => {
                write!(f, "journal format version {v} is newer than this build (max {VERSION})")
            }
            JournalError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "journal length mismatch: header implies {expected} bytes, file has {actual}"
                )
            }
            JournalError::CrcMismatch { stored, computed } => {
                write!(f, "journal CRC mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            JournalError::Malformed(why) => write!(f, "malformed journal payload: {why}"),
            JournalError::GoldenMismatch { journalled, found } => write!(
                f,
                "journal was recorded against a different golden bitstream \
                 (CRC {journalled:#010x}, offered {found:#010x})"
            ),
            JournalError::ConfigMismatch { .. } => write!(
                f,
                "resume configuration changes a trace-determining parameter \
                 (votes, retry policy, seed or the adaptive flag); only budget \
                 and deadline may differ"
            ),
        }
    }
}

impl JournalError {
    /// Whether this failure means the on-disk journal *bytes* are
    /// unusable — a torn write, truncation, bit rot or an
    /// unrecognisable frame — as opposed to a sound journal the caller
    /// is holding wrong (I/O trouble reaching it, a golden or config
    /// mismatch). The fleet's resume policy uses this split: a
    /// corrupt journal is discarded and the session restarts fresh
    /// (trace-identical, because the fault streams are counter-keyed),
    /// while a mismatch is a refusal that must surface.
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            JournalError::TooShort { .. }
                | JournalError::BadMagic
                | JournalError::UnsupportedVersion(_)
                | JournalError::LengthMismatch { .. }
                | JournalError::CrcMismatch { .. }
                | JournalError::Malformed(_)
        )
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Everything a resumed run needs, exactly as the killed run left it.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalDoc {
    /// The resilience configuration of the journalled run.
    pub config: ResilienceConfig,
    /// Sub-vector stride (the device-family parameter `d`).
    pub d: usize,
    /// Keystream words per observation (`w`).
    pub words: usize,
    /// Length of the golden bitstream, in bytes.
    pub golden_len: u64,
    /// CRC-32C of the golden bitstream (resume refuses a different
    /// one — the checkpoint's byte offsets would silently corrupt a
    /// different stream).
    pub golden_crc: u32,
    /// The resilience layer's clock/stats and adaptive-policy state.
    pub resilient: ResilientSnapshot,
    /// The board's opaque fault-state snapshot (`None` for stateless
    /// oracles).
    pub oracle_state: Option<Vec<u8>>,
    /// Side-channel power traces collected before `K_E` was recovered
    /// (0 on plaintext runs; format v3).
    pub sca_traces: u32,
    /// The attack's verified findings and loop cursors.
    pub checkpoint: AttackCheckpoint,
}

/// A crash-safe journal file.
#[derive(Debug, Clone)]
pub struct AttackJournal {
    path: PathBuf,
}

impl AttackJournal {
    /// A journal at `path` (the file need not exist yet).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The journal's on-disk location.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically persists `doc`: the complete frame is written to a
    /// sibling temporary file, synced, and renamed over the journal
    /// path, so a crash mid-save leaves the previous journal intact.
    /// Returns the size of the written frame in bytes (what telemetry
    /// meters as `journal.bytes`).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub fn save(&self, doc: &JournalDoc) -> Result<usize, JournalError> {
        let frame = encode_frame(doc);
        write_atomic(&self.path, &frame)?;
        Ok(frame.len())
    }

    /// Loads and verifies the journal.
    ///
    /// # Errors
    ///
    /// See [`JournalError`] — every corruption mode (truncation,
    /// trailing junk, flipped bits, structural nonsense) is a typed
    /// error, never a panic.
    pub fn load(&self) -> Result<JournalDoc, JournalError> {
        decode_frame(&fs::read(&self.path)?)
    }

    /// Deletes the journal file (e.g. after the attack completes).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file exists but cannot be removed.
    pub fn remove(&self) -> Result<(), JournalError> {
        match fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

/// Writes `bytes` to `path` atomically: sibling temp file,
/// `sync_all`, rename.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), JournalError> {
    let tmp = path.with_extension("journal.tmp");
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Frames a payload: magic + version + reserved + length + payload +
/// CRC-32C over everything before the CRC.
fn frame(version: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(payload.len()).expect("journal payload < 4 GiB").to_le_bytes(),
    );
    out.extend_from_slice(payload);
    let crc = ByteCrc::of(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Verifies a frame and returns its payload. Every corruption mode
/// (short file, wrong magic, future version, length disagreement,
/// CRC failure) is a typed error.
fn unframe(bytes: &[u8]) -> Result<&[u8], JournalError> {
    if bytes.len() < HEADER_BYTES + 4 {
        return Err(JournalError::TooShort { got: bytes.len(), need: HEADER_BYTES + 4 });
    }
    if bytes[..8] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version > VERSION {
        return Err(JournalError::UnsupportedVersion(version));
    }
    let payload_len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let expected = (HEADER_BYTES + 4) as u64 + payload_len as u64;
    // Exact-length enforcement: a flipped length bit, a torn tail or
    // appended junk all surface *before* the CRC is even consulted.
    if (bytes.len() as u64) < expected {
        return Err(JournalError::TooShort { got: bytes.len(), need: expected as usize });
    }
    if bytes.len() as u64 != expected {
        return Err(JournalError::LengthMismatch { expected, actual: bytes.len() as u64 });
    }
    let body = &bytes[..HEADER_BYTES + payload_len];
    let stored = u32::from_le_bytes(
        bytes[HEADER_BYTES + payload_len..].try_into().expect("4 CRC bytes (length checked)"),
    );
    let computed = ByteCrc::of(body);
    if stored != computed {
        return Err(JournalError::CrcMismatch { stored, computed });
    }
    Ok(&body[HEADER_BYTES..])
}

/// Encodes a complete frame (header + payload + CRC).
#[must_use]
pub fn encode_frame(doc: &JournalDoc) -> Vec<u8> {
    frame(VERSION, &encode_doc(doc))
}

/// Decodes and verifies a complete frame.
///
/// # Errors
///
/// See [`JournalError`].
pub fn decode_frame(bytes: &[u8]) -> Result<JournalDoc, JournalError> {
    let payload = unframe(bytes)?;
    // `unframe` verified the header, so the version field is present.
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    let mut dec = Dec::new(payload);
    let doc = decode_doc(&mut dec, version)?;
    if !dec.is_empty() {
        return Err(JournalError::Malformed(format!(
            "{} undecoded payload bytes",
            dec.remaining()
        )));
    }
    Ok(doc)
}

// ---------------------------------------------------------------
// Primitive encoder / decoder
// ---------------------------------------------------------------

struct Enc {
    out: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Self { out: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.u32(u32::try_from(bytes.len()).expect("journal field < 4 GiB"));
        self.raw(bytes);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn opt<T>(&mut self, v: Option<T>, mut f: impl FnMut(&mut Self, T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }

    fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.u32(u32::try_from(items.len()).expect("journal sequence < 2^32 items"));
        for item in items {
            f(self, item);
        }
    }
}

struct Dec<'b> {
    rest: &'b [u8],
}

impl<'b> Dec<'b> {
    fn new(rest: &'b [u8]) -> Self {
        Self { rest }
    }

    fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn take(&mut self, n: usize) -> Result<&'b [u8], JournalError> {
        if self.rest.len() < n {
            return Err(JournalError::Malformed(format!(
                "payload exhausted: need {n} more bytes, have {}",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, JournalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize, JournalError> {
        usize::try_from(self.u64()?)
            .map_err(|_| JournalError::Malformed("64-bit count on a 32-bit host".into()))
    }

    fn bytes(&mut self) -> Result<&'b [u8], JournalError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn str(&mut self) -> Result<&'b str, JournalError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| JournalError::Malformed("non-UTF-8 string".into()))
    }

    fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, JournalError>,
    ) -> Result<Option<T>, JournalError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            t => Err(JournalError::Malformed(format!("option tag {t}"))),
        }
    }

    fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, JournalError>,
    ) -> Result<Vec<T>, JournalError> {
        let n = self.u32()? as usize;
        // An honest length never exceeds the bytes actually present
        // (every element is ≥ 1 byte); a corrupt one must not drive a
        // pre-allocation.
        if n > self.rest.len() {
            return Err(JournalError::Malformed(format!(
                "sequence claims {n} items but only {} payload bytes remain",
                self.rest.len()
            )));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------
// Domain codec
// ---------------------------------------------------------------

fn encode_doc(doc: &JournalDoc) -> Vec<u8> {
    let mut e = Enc::new();
    // Resilience configuration.
    e.u32(doc.config.votes);
    e.u32(doc.config.retry.max_attempts);
    e.u64(doc.config.retry.base_delay_ms);
    e.u64(doc.config.retry.max_delay_ms);
    e.opt(doc.config.budget, Enc::u64);
    e.opt(doc.config.deadline_ms, Enc::u64);
    e.u64(doc.config.seed);
    e.u8(u8::from(doc.config.adaptive));
    // Attack geometry.
    e.usize(doc.d);
    e.usize(doc.words);
    e.u64(doc.golden_len);
    e.u32(doc.golden_crc);
    // Resilience-layer state.
    e.u64(doc.resilient.stats.queries);
    e.u64(doc.resilient.stats.attempts);
    e.u64(doc.resilient.stats.votes_cast);
    e.u64(doc.resilient.stats.transient_errors);
    e.u64(doc.resilient.stats.backoff_ms);
    e.u64(doc.resilient.clock_ms);
    // Adaptive-policy controller state.
    let p = &doc.resilient.policy;
    e.u32(p.ewma_milli);
    e.u8(p.level);
    e.u32(p.cooldown);
    e.seq(&p.events, |e, ev| {
        e.u64(ev.at_query);
        e.u8(ev.from_level);
        e.u8(ev.to_level);
        e.u32(ev.ewma_milli);
    });
    // Board state.
    e.opt(doc.oracle_state.as_deref(), |e, s| e.bytes(s));
    // Encrypted-path accounting (format v3; decoded as 0 from v2).
    e.u32(doc.sca_traces);
    // Checkpoint.
    let c = &doc.checkpoint;
    e.u8(phase_code(c.phase));
    e.u8(c.pass);
    e.usize(c.cursor);
    e.u64(c.oracle_attempts);
    e.u64(c.dead_candidates);
    e.seq(&c.candidate_counts, |e, (name, count)| {
        e.str(name);
        e.usize(*count);
    });
    e.seq(&c.golden_keystream, |e, w| e.u32(*w));
    e.seq(&c.z_pass1, encode_z_lut);
    e.seq(&c.z_luts, encode_z_lut);
    e.seq(&c.feedback_luts, |e, f| {
        e.str(f.shape);
        encode_hit(e, &f.hit);
    });
    e.opt(c.lattice.as_ref(), |e, lat| {
        e.opt(lat.parity, Enc::usize);
        e.usize(lat.modulus);
        e.usize(lat.residue);
        e.usize(lat.d);
        for group in lat.order_of_group {
            e.opt(group, |e, o| e.u8(order_code(o)));
        }
    });
    e.seq(&c.mux_halves, |e, h| {
        encode_hit(e, &h.hit);
        e.u8(h.half);
        e.u8(h.pins.0);
        e.u8(h.pins.1);
    });
    e.seq(&c.stuck_masks, |e, m| e.u32(*m));
    e.out
}

fn decode_doc(d: &mut Dec<'_>, version: u16) -> Result<JournalDoc, JournalError> {
    let config = ResilienceConfig {
        votes: d.u32()?,
        retry: RetryPolicy {
            max_attempts: d.u32()?,
            base_delay_ms: d.u64()?,
            max_delay_ms: d.u64()?,
        },
        budget: d.opt(Dec::u64)?,
        deadline_ms: d.opt(Dec::u64)?,
        seed: d.u64()?,
        adaptive: match d.u8()? {
            0 => false,
            1 => true,
            t => return Err(JournalError::Malformed(format!("adaptive flag {t}"))),
        },
    };
    let stride = d.usize()?;
    if stride == 0 {
        return Err(JournalError::Malformed("zero sub-vector stride".into()));
    }
    let words = d.usize()?;
    let golden_len = d.u64()?;
    let golden_crc = d.u32()?;
    let resilient = ResilientSnapshot {
        stats: ResilientStats {
            queries: d.u64()?,
            attempts: d.u64()?,
            votes_cast: d.u64()?,
            transient_errors: d.u64()?,
            backoff_ms: d.u64()?,
        },
        clock_ms: d.u64()?,
        policy: decode_policy(d)?,
    };
    let oracle_state = d.opt(|d| Ok(d.bytes()?.to_vec()))?;
    // Version 2 journals predate the encrypted path: no traces field.
    let sca_traces = if version >= 3 { d.u32()? } else { 0 };

    // The catalogue owns the 'static shape names the checkpoint
    // references; decoded strings resolve against it.
    let catalogue = Catalogue::full();
    let resolve = |name: &str| -> Result<&'static str, JournalError> {
        catalogue
            .shapes
            .iter()
            .map(|s| s.name)
            .find(|n| *n == name)
            .ok_or_else(|| JournalError::Malformed(format!("unknown catalogue shape {name:?}")))
    };

    let phase = decode_phase(d.u8()?)?;
    let pass = d.u8()?;
    if pass > 1 {
        return Err(JournalError::Malformed(format!("pass {pass} (phases have at most 2)")));
    }
    let cursor = d.usize()?;
    let oracle_attempts = d.u64()?;
    let dead_candidates = d.u64()?;
    let candidate_counts = d.seq(|d| {
        let name = resolve(d.str()?)?;
        Ok((name, d.usize()?))
    })?;
    let golden_keystream = d.seq(Dec::u32)?;
    let z_pass1 = d.seq(decode_z_lut)?;
    let z_luts = d.seq(decode_z_lut)?;
    let feedback_luts = d.seq(|d| {
        let shape = resolve(d.str()?)?;
        Ok(FeedbackLut { shape, hit: decode_hit(d)? })
    })?;
    let lattice = d.opt(|d| {
        let parity = d.opt(Dec::usize)?;
        let modulus = d.usize()?;
        let residue = d.usize()?;
        let lat_d = d.usize()?;
        if modulus == 0 || lat_d == 0 || residue >= modulus || parity.is_some_and(|p| p > 1) {
            return Err(JournalError::Malformed("inconsistent site lattice".into()));
        }
        let mut order_of_group = [None, None];
        for group in &mut order_of_group {
            *group = d.opt(|d| decode_order(d.u8()?))?;
        }
        Ok(SiteLattice { parity, modulus, residue, d: lat_d, order_of_group })
    })?;
    let mux_halves = d.seq(|d| {
        let hit = decode_hit(d)?;
        let half = d.u8()?;
        if half > 1 {
            return Err(JournalError::Malformed(format!("LUT half {half}")));
        }
        Ok(LoadMuxHalf { hit, half, pins: (d.u8()?, d.u8()?) })
    })?;
    let stuck_masks = d.seq(Dec::u32)?;

    // Cross-field invariants a resumed run relies on: a malformed
    // combination must fail here, not panic mid-attack.
    if phase > AttackPhase::CandidateSearch && golden_keystream.len() != words {
        return Err(JournalError::Malformed(format!(
            "{} golden keystream words journalled, run reads {words}",
            golden_keystream.len()
        )));
    }
    if phase > AttackPhase::ZPathVerification && lattice.is_none() {
        return Err(JournalError::Malformed("past phase 2 without an inferred lattice".into()));
    }
    if phase == AttackPhase::PairDisambiguation && stuck_masks.len() != cursor {
        return Err(JournalError::Malformed(format!(
            "{} stuck masks journalled at disambiguation cursor {cursor}",
            stuck_masks.len()
        )));
    }
    if phase > AttackPhase::PairDisambiguation && stuck_masks.len() < 2 {
        return Err(JournalError::Malformed("past phase 5 without both stuck masks".into()));
    }

    Ok(JournalDoc {
        config,
        d: stride,
        words,
        golden_len,
        golden_crc,
        resilient,
        oracle_state,
        sca_traces,
        checkpoint: AttackCheckpoint {
            phase,
            pass,
            cursor,
            oracle_attempts,
            dead_candidates,
            candidate_counts,
            golden_keystream,
            z_pass1,
            z_luts,
            feedback_luts,
            lattice,
            mux_halves,
            stuck_masks,
        },
    })
}

fn decode_policy(d: &mut Dec<'_>) -> Result<PolicyController, JournalError> {
    let ewma_milli = d.u32()?;
    let level = d.u8()?;
    let cooldown = d.u32()?;
    if ewma_milli > 1000 || level > MAX_LEVEL {
        return Err(JournalError::Malformed(format!(
            "policy state out of range (ewma {ewma_milli} milli, level {level})"
        )));
    }
    let events = d.seq(|d| {
        let ev = PolicyEvent {
            at_query: d.u64()?,
            from_level: d.u8()?,
            to_level: d.u8()?,
            ewma_milli: d.u32()?,
        };
        if ev.from_level > MAX_LEVEL || ev.to_level > MAX_LEVEL || ev.from_level == ev.to_level {
            return Err(JournalError::Malformed(format!(
                "policy event {} -> {} at query {}",
                ev.from_level, ev.to_level, ev.at_query
            )));
        }
        Ok(ev)
    })?;
    Ok(PolicyController { ewma_milli, level, cooldown, events })
}

fn encode_hit(e: &mut Enc, hit: &LutHit) {
    e.usize(hit.l);
    e.u8(order_code(hit.order));
    e.bytes(hit.perm.as_slice());
    e.u64(hit.init.init());
}

fn decode_hit(d: &mut Dec<'_>) -> Result<LutHit, JournalError> {
    let l = d.usize()?;
    let order = decode_order(d.u8()?)?;
    let perm = Permutation::from_slice(d.bytes()?)
        .map_err(|_| JournalError::Malformed("invalid input permutation".into()))?;
    let init = DualOutputInit::new(d.u64()?);
    Ok(LutHit { l, order, perm, init })
}

fn encode_z_lut(e: &mut Enc, z: &ZPathLut) {
    encode_hit(e, &z.hit);
    e.u8(z.bit);
    e.opt(z.pair, |e, (a, b)| {
        e.u8(a);
        e.u8(b);
    });
}

fn decode_z_lut(d: &mut Dec<'_>) -> Result<ZPathLut, JournalError> {
    let hit = decode_hit(d)?;
    let bit = d.u8()?;
    if bit > 31 {
        return Err(JournalError::Malformed(format!("keystream bit {bit}")));
    }
    let pair = d.opt(|d| Ok((d.u8()?, d.u8()?)))?;
    Ok(ZPathLut { hit, bit, pair })
}

fn phase_code(phase: AttackPhase) -> u8 {
    match phase {
        AttackPhase::CandidateSearch => 0,
        AttackPhase::ZPathVerification => 1,
        AttackPhase::FeedbackHypothesis => 2,
        AttackPhase::KeyIndependent => 3,
        AttackPhase::PairDisambiguation => 4,
        AttackPhase::KeyExtraction => 5,
    }
}

fn decode_phase(code: u8) -> Result<AttackPhase, JournalError> {
    Ok(match code {
        0 => AttackPhase::CandidateSearch,
        1 => AttackPhase::ZPathVerification,
        2 => AttackPhase::FeedbackHypothesis,
        3 => AttackPhase::KeyIndependent,
        4 => AttackPhase::PairDisambiguation,
        5 => AttackPhase::KeyExtraction,
        c => return Err(JournalError::Malformed(format!("attack phase {c}"))),
    })
}

fn order_code(order: bitstream::SubVectorOrder) -> u8 {
    match order {
        bitstream::SubVectorOrder::SliceL => 0,
        bitstream::SubVectorOrder::SliceM => 1,
    }
}

fn decode_order(code: u8) -> Result<bitstream::SubVectorOrder, JournalError> {
    Ok(match code {
        0 => bitstream::SubVectorOrder::SliceL,
        1 => bitstream::SubVectorOrder::SliceM,
        c => return Err(JournalError::Malformed(format!("sub-vector order {c}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstream::SubVectorOrder;

    pub(crate) fn sample_doc() -> JournalDoc {
        let hit = LutHit {
            l: 1234,
            order: SubVectorOrder::SliceM,
            perm: Permutation::from_slice(&[2, 0, 1, 3, 4, 5]).expect("valid"),
            init: DualOutputInit::new(0xDEAD_BEEF_0BAD_F00D),
        };
        JournalDoc {
            config: ResilienceConfig::noisy(7).with_budget(8000).with_deadline_ms(90_000),
            d: 101,
            words: 16,
            golden_len: 40_000,
            golden_crc: 0x1234_5678,
            resilient: ResilientSnapshot {
                stats: ResilientStats {
                    queries: 10,
                    attempts: 61,
                    votes_cast: 50,
                    transient_errors: 11,
                    backoff_ms: 420,
                },
                clock_ms: 420,
                policy: PolicyController {
                    ewma_milli: 250,
                    level: 1,
                    cooldown: 5,
                    events: vec![PolicyEvent {
                        at_query: 6,
                        from_level: 0,
                        to_level: 1,
                        ewma_milli: 231,
                    }],
                },
            },
            oracle_state: Some(vec![9u8; 96]),
            sca_traces: 40_000,
            checkpoint: AttackCheckpoint {
                phase: AttackPhase::KeyIndependent,
                pass: 1,
                cursor: 3,
                oracle_attempts: 61,
                dead_candidates: 4,
                candidate_counts: vec![("f2", 40), ("m1b", 2)],
                golden_keystream: (0..16).map(|i| 0xABC0_0000 | i).collect(),
                z_pass1: vec![ZPathLut { hit: hit.clone(), bit: 5, pair: None }],
                z_luts: vec![ZPathLut { hit: hit.clone(), bit: 5, pair: Some((2, 4)) }],
                feedback_luts: vec![FeedbackLut { shape: "f2", hit: hit.clone() }],
                lattice: Some(SiteLattice {
                    parity: Some(0),
                    modulus: 12,
                    residue: 4,
                    d: 101,
                    order_of_group: [Some(SubVectorOrder::SliceL), None],
                }),
                mux_halves: vec![LoadMuxHalf { hit, half: 1, pins: (2, 5) }],
                stuck_masks: vec![0xFFFF_0000, 0x0000_FFFF],
            },
        }
    }

    #[test]
    fn frame_roundtrip_is_identity() {
        let doc = sample_doc();
        let frame = encode_frame(&doc);
        let back = decode_frame(&frame).expect("clean frame decodes");
        assert_eq!(back, doc);
    }

    #[test]
    fn save_load_roundtrip_and_remove() {
        let dir = std::env::temp_dir().join(format!("bitmod-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let journal = AttackJournal::new(dir.join("attack.journal"));
        let doc = sample_doc();
        journal.save(&doc).expect("save");
        assert_eq!(journal.load().expect("load"), doc);
        // Overwrite with a different doc: rename replaces atomically.
        let mut doc2 = doc.clone();
        doc2.checkpoint.cursor = 99;
        journal.save(&doc2).expect("second save");
        assert_eq!(journal.load().expect("reload").checkpoint.cursor, 99);
        journal.remove().expect("remove");
        assert!(matches!(journal.load(), Err(JournalError::Io(_))));
        journal.remove().expect("removing an absent journal is not an error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_2_frames_still_decode_with_zero_traces() {
        // A v2 payload is a v3 payload minus the 4-byte trace count
        // (the field was appended after `oracle_state`, which is the
        // last field before the checkpoint — so strip it by
        // re-encoding without it). Build the exact v2 bytes by
        // splicing the trace count out of the v3 payload.
        let mut doc = sample_doc();
        doc.sca_traces = 0x1234_5678;
        let v3_payload = encode_doc(&doc);
        // Locate the field: everything after oracle_state is
        // `sca_traces ‖ checkpoint`; re-encode with traces 0xDEAD to
        // find its offset by diffing.
        let mut probe = doc.clone();
        probe.sca_traces = 0xAA55_55AA;
        let probe_payload = encode_doc(&probe);
        let at = v3_payload
            .iter()
            .zip(&probe_payload)
            .position(|(a, b)| a != b)
            .expect("payloads differ at the trace field");
        let mut v2_payload = v3_payload.clone();
        v2_payload.drain(at..at + 4);
        let v2_frame = frame(2, &v2_payload);
        let back = decode_frame(&v2_frame).expect("v2 journal decodes");
        let mut expected = doc.clone();
        expected.sca_traces = 0;
        assert_eq!(back, expected);
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let frame = encode_frame(&sample_doc());
        for cut in [0, 4, 15, 16, 60, frame.len() - 5, frame.len() - 1] {
            let err = decode_frame(&frame[..cut]).expect_err("truncated frame rejected");
            assert!(matches!(err, JournalError::TooShort { .. }), "cut at {cut} gave {err:?}");
        }
    }

    #[test]
    fn trailing_junk_is_a_length_mismatch() {
        let mut frame = encode_frame(&sample_doc());
        frame.push(0xAA);
        assert!(matches!(decode_frame(&frame), Err(JournalError::LengthMismatch { .. })));
    }

    #[test]
    fn bad_magic_and_future_version_are_typed() {
        let mut frame = encode_frame(&sample_doc());
        frame[0] ^= 0xFF;
        assert!(matches!(decode_frame(&frame), Err(JournalError::BadMagic)));

        let mut frame = encode_frame(&sample_doc());
        frame[8] = 0xFF; // version 0x__FF
                         // Re-CRC so only the version field is at fault.
        let crc_at = frame.len() - 4;
        let crc = ByteCrc::of(&frame[..crc_at]);
        frame[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_frame(&frame), Err(JournalError::UnsupportedVersion(_))));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = encode_frame(&sample_doc());
        // Flip one bit at a spread of positions across the frame:
        // header, payload and CRC. Decode must fail with a typed
        // error (which one depends on the field hit) — never succeed,
        // never panic.
        for pos in (0..frame.len()).step_by(7) {
            for bit in [0u8, 5] {
                let mut bad = frame.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
    }
}

/// Property tests: the codec is total — every structurally valid
/// document round-trips to itself, and *no* byte-level corruption
/// (truncation, bit flips, garbage) panics the decoder or slips
/// through as a silently wrong checkpoint.
#[cfg(test)]
mod proptests {
    use super::tests::sample_doc;
    use super::*;
    use proptest::prelude::*;

    /// A structurally valid document with the journalled state drawn
    /// at random, respecting the decoder's cross-field invariants
    /// (golden length, lattice presence, stuck-mask counts).
    fn arb_doc() -> impl Strategy<Value = JournalDoc> {
        (
            (0u8..6, 0u8..2, 0usize..8, any::<u64>(), any::<u64>(), any::<u64>()),
            (1usize..48, any::<u32>(), any::<bool>(), 0usize..120, 1u32..12, any::<bool>()),
        )
            .prop_map(|(a, b)| {
                let (phase_code, pass, cursor, attempts, clock, rng) = a;
                let (words, golden_crc, with_oracle, oracle_len, modulus, with_deadline) = b;
                let phase = match phase_code {
                    0 => AttackPhase::CandidateSearch,
                    1 => AttackPhase::ZPathVerification,
                    2 => AttackPhase::FeedbackHypothesis,
                    3 => AttackPhase::KeyIndependent,
                    4 => AttackPhase::PairDisambiguation,
                    _ => AttackPhase::KeyExtraction,
                };
                let mut doc = sample_doc();
                doc.checkpoint.phase = phase;
                doc.checkpoint.pass = pass;
                doc.checkpoint.cursor = cursor;
                doc.checkpoint.oracle_attempts = attempts;
                doc.checkpoint.dead_candidates = attempts / 7;
                doc.words = words;
                doc.checkpoint.golden_keystream =
                    (0..words as u32).map(|i| i.wrapping_mul(0x9E37)).collect();
                doc.golden_crc = golden_crc;
                doc.golden_len = u64::from(golden_crc) + 1;
                doc.resilient.clock_ms = clock;
                doc.resilient.policy = PolicyController {
                    ewma_milli: (rng % 1001) as u32,
                    level: (rng % (u64::from(MAX_LEVEL) + 1)) as u8,
                    cooldown: (clock % 9) as u32,
                    events: (0..(rng % 4))
                        .map(|i| PolicyEvent {
                            at_query: clock.wrapping_add(i),
                            from_level: (i % 2) as u8,
                            to_level: (i % 2) as u8 + 1,
                            ewma_milli: (rng % 1001) as u32,
                        })
                        .collect(),
                };
                doc.oracle_state = with_oracle.then(|| vec![0xA5u8; oracle_len]);
                if let Some(lattice) = &mut doc.checkpoint.lattice {
                    lattice.modulus = modulus as usize;
                    lattice.residue = (golden_crc as usize) % modulus as usize;
                }
                doc.config = if with_deadline {
                    ResilienceConfig::noisy(rng).with_deadline_ms(clock | 1)
                } else {
                    ResilienceConfig::noisy(rng).with_budget(attempts | 1)
                };
                if rng % 2 == 1 {
                    doc.config = doc.config.with_adaptive();
                }
                // Honour the decoder's cross-field invariants.
                doc.checkpoint.stuck_masks = match phase {
                    AttackPhase::PairDisambiguation => vec![rng as u32; cursor],
                    p if p > AttackPhase::PairDisambiguation => vec![rng as u32; 2 + cursor],
                    _ => vec![rng as u32; cursor % 3],
                };
                doc
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_valid_document_round_trips_to_itself(doc in arb_doc()) {
            let frame = encode_frame(&doc);
            let back = decode_frame(&frame);
            prop_assert!(back.is_ok(), "clean frame failed to decode: {:?}", back.err());
            prop_assert_eq!(back.expect("checked"), doc);
        }

        #[test]
        fn arbitrary_truncation_is_a_typed_error_never_a_panic(
            doc in arb_doc(),
            cut_salt in any::<u64>(),
        ) {
            let frame = encode_frame(&doc);
            let cut = (cut_salt as usize) % frame.len();
            match decode_frame(&frame[..cut]) {
                Err(JournalError::TooShort { .. }) => {}
                other => prop_assert!(false, "cut at {cut} of {}: {other:?}", frame.len()),
            }
        }

        #[test]
        fn arbitrary_bit_mutation_is_detected_never_a_panic(
            doc in arb_doc(),
            pos_salt in any::<u64>(),
            bit in 0u32..8,
            second in any::<bool>(),
        ) {
            // One or two flipped bits anywhere in the frame: CRC-32C
            // detects all 1-3 bit errors at these frame lengths, so
            // decode must return a typed error (which one depends on
            // the field hit) — and must never panic.
            let mut frame = encode_frame(&doc);
            let pos = (pos_salt as usize) % frame.len();
            frame[pos] ^= 1 << bit;
            if second {
                let pos2 = (pos_salt >> 32) as usize % frame.len();
                let bit2 = (7 - bit) % 8;
                if pos2 != pos || bit2 != bit {
                    frame[pos2] ^= 1 << bit2;
                }
            }
            prop_assert!(
                decode_frame(&frame).is_err(),
                "mutation at byte {pos} bit {bit} went undetected"
            );
        }

        #[test]
        fn random_garbage_never_panics_the_decoder(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            // Totality: any byte string decodes to Ok or a typed
            // error. (An accidental Ok would need a forged magic,
            // version, length *and* CRC — not reachable from 256
            // random bytes.)
            prop_assert!(decode_frame(&bytes).is_err());
        }
    }
}
