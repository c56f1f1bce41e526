//! Delta-CRC properties: the differential verdict [`DeltaCrc::check`]
//! must equal a full [`Bitstream::parse`] on every delta-expressible
//! variant — accepted together, or refused with the same
//! `CrcMismatch { stored, computed }` — and [`DeltaCrc::word_diff`]
//! must refuse every structural edit, so no caller of the rule ever
//! accepts a stream the device would refuse or the reverse.
//!
//! The reference streams also vary the tail after the payload: one CRC
//! write (the builder's shape), a duplicated CRC write, `Desync` before
//! the CRC write, a CRC write after `Desync`, and an `RCRC` between the
//! payload and the CRC write. [`DeltaCrc::analyze`] must decline every
//! shape whose verdict one stored CRC word cannot carry, and
//! [`Bitstream::recompute_crc`] must repair every shape so that the
//! full parse never refuses it with a CRC mismatch.

use bitstream::packet::CRC_WRITE_HEADER;
use bitstream::{
    Bitstream, BitstreamBuilder, CommandCode, DeltaCrc, FrameData, Packet, ParseBitstreamError,
    RegisterAddress,
};
use proptest::prelude::*;

/// A well-formed reference bitstream with pseudo-random frame contents.
fn reference(frames: usize, seed: u64) -> Bitstream {
    let mut data = FrameData::new(frames);
    let mut x = seed | 1;
    for b in data.as_mut_bytes().iter_mut() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *b = (x >> 56) as u8;
    }
    BitstreamBuilder::new(data).build()
}

/// The shape of a reference stream's tail after the FDRI payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// The builder's tail: one CRC write, then `Start` and `Desync`.
    OneCrc,
    /// The CRC write repeated right after itself.
    DuplicatedCrc,
    /// The `Desync` write moved in front of the CRC write.
    DesyncBeforeCrc,
    /// A copy of the CRC write after `Desync`, which the device never
    /// reads.
    CrcAfterDesync,
    /// A `CMD = RCRC` write between the payload and the CRC write.
    RcrcAfterPayload,
}

const TAILS: [Tail; 5] = [
    Tail::OneCrc,
    Tail::DuplicatedCrc,
    Tail::DesyncBeforeCrc,
    Tail::CrcAfterDesync,
    Tail::RcrcAfterPayload,
];

impl Tail {
    /// Whether one stored CRC word carries the whole verdict: the walk
    /// checks exactly one CRC write, and no reset sits between the
    /// payload and it.
    fn delta_expressible(self) -> bool {
        matches!(self, Tail::OneCrc | Tail::CrcAfterDesync)
    }
}

/// A one-word Type 1 `CMD` write.
fn command(code: CommandCode) -> Vec<u8> {
    let header = Packet::type1_header(RegisterAddress::Cmd, 1).expect("fits");
    [header, code as u32].iter().flat_map(|w| w.to_be_bytes()).collect()
}

/// Rewrites the builder stream `bs` to end in `tail`.
fn with_tail(bs: &Bitstream, tail: Tail) -> Bitstream {
    let payload_end = bs.fdri_data_range().expect("payload").end;
    let crc = bs.find_word(CRC_WRITE_HEADER, payload_end).expect("a CRC write");
    let desync_write = command(CommandCode::Desync);
    let desync = (crc..bs.len())
        .step_by(4)
        .find(|&at| bs.as_bytes()[at..].starts_with(&desync_write))
        .expect("a Desync write");
    let mut bytes = bs.as_bytes().to_vec();
    let crc_write = bytes[crc..crc + 8].to_vec();
    match tail {
        Tail::OneCrc => {}
        Tail::DuplicatedCrc => {
            bytes.splice(crc + 8..crc + 8, crc_write);
        }
        Tail::DesyncBeforeCrc => {
            bytes.drain(desync..desync + 8);
            bytes.splice(crc..crc, desync_write);
        }
        Tail::CrcAfterDesync => {
            bytes.splice(desync + 8..desync + 8, crc_write);
        }
        Tail::RcrcAfterPayload => {
            bytes.splice(payload_end..payload_end, command(CommandCode::Rcrc));
        }
    }
    Bitstream::from_bytes(bytes)
}

/// How a payload-edited variant gets its CRC repaired.
#[derive(Debug, Clone, Copy)]
enum Repair {
    None,
    /// A full re-walk, [`Bitstream::recompute_crc`].
    Recompute,
    /// The differential repair, [`DeltaCrc::patch`], where the
    /// reference analyzes.
    Delta,
}

/// Edits the payload of `reference` at `edits`, repairs the CRC as
/// `repair` says, then XORs `crc_mask` into the first CRC value word
/// after the payload. Returns the variant and the reference's analysis.
fn variant(
    reference: &Bitstream,
    edits: &[(u64, u8)],
    repair: Repair,
    crc_mask: u32,
) -> (Bitstream, Option<DeltaCrc>) {
    let delta = DeltaCrc::analyze(reference);
    let payload = reference.fdri_data_range().expect("payload");
    let mut variant = reference.clone();
    for &(pos, mask) in edits {
        variant.as_mut_bytes()[payload.start + (pos as usize) % payload.len()] ^= mask;
    }
    match (repair, &delta) {
        (Repair::Recompute, _) => {
            variant.recompute_crc();
        }
        (Repair::Delta, Some(d)) => {
            let words = d.word_diff(d.reference(), variant.as_bytes()).expect("payload edits");
            d.patch(variant.as_mut_bytes(), &words);
        }
        (Repair::None | Repair::Delta, _) => {}
    }
    let crc_at = reference.find_word(CRC_WRITE_HEADER, payload.end).expect("a CRC write") + 4;
    for (b, m) in variant.as_mut_bytes()[crc_at..crc_at + 4].iter_mut().zip(crc_mask.to_be_bytes())
    {
        *b ^= m;
    }
    (variant, delta)
}

/// Where `analyze` gives a verdict it equals the full parse's, and a
/// full CRC recompute always leaves a stream the parse does not refuse
/// for its CRC.
fn assert_verdicts_agree(variant: &Bitstream, delta: Option<&DeltaCrc>) {
    if let Some(d) = delta {
        let words = d.word_diff(d.reference(), variant.as_bytes()).expect("delta-expressible");
        assert_eq!(d.check(variant.as_bytes(), &words), variant.parse().map(|_| ()));
    }
    let mut repaired = variant.clone();
    repaired.recompute_crc();
    let parsed = repaired.parse();
    assert!(!matches!(parsed, Err(ParseBitstreamError::CrcMismatch { .. })), "{parsed:?}");
}

/// Runs the shape through edits with and without repair, for a few
/// references.
fn check_tail(tail: Tail) {
    for (frames, seed) in [(1, 3), (2, 0x5EED), (4, 0xC0FFEE)] {
        let reference = with_tail(&reference(frames, seed), tail);
        let edits = [(seed, 0x5A), (seed / 3 + 17, 0x81)];
        for repair in [Repair::None, Repair::Recompute, Repair::Delta] {
            let (variant, delta) = variant(&reference, &edits, repair, 0);
            assert_verdicts_agree(&variant, delta.as_ref());
        }
    }
}

/// With the CRC write duplicated, the device checks both
/// copies, so a variant whose first copy alone is repaired is refused.
#[test]
fn duplicated_crc_write_verdict_equals_a_full_parse() {
    check_tail(Tail::DuplicatedCrc);
}

/// With `Desync` before the CRC write, the device never
/// checks the CRC, so even an unrepaired payload edit is accepted.
#[test]
fn desync_before_crc_write_verdict_equals_a_full_parse() {
    check_tail(Tail::DesyncBeforeCrc);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random payload edits on a reference with a drawn tail shape,
    /// unrepaired or CRC-repaired by a full re-walk or the delta, then
    /// optionally a stored-CRC-word edit: wherever `analyze` gives a
    /// verdict it is the full parse's verdict, error values included,
    /// and it gives one exactly on the shapes a single CRC word decides.
    #[test]
    fn delta_verdict_equals_a_full_parse(
        frames in 1usize..5,
        seed in any::<u64>(),
        tail in 0usize..TAILS.len(),
        edits in prop::collection::vec((any::<u64>(), 1u8..=255), 0..4),
        repair in 0usize..3,
        crc_mask in prop_oneof![Just(0u32), any::<u32>()],
    ) {
        let tail = TAILS[tail];
        let reference = with_tail(&reference(frames, seed), tail);
        let repair = [Repair::None, Repair::Recompute, Repair::Delta][repair];
        let (variant, delta) = variant(&reference, &edits, repair, crc_mask);
        prop_assert_eq!(delta.is_some(), tail.delta_expressible(), "{:?}", tail);
        assert_verdicts_agree(&variant, delta.as_ref());
    }

    /// Any edit outside the payload and the stored CRC word is
    /// structural: no word diff, so no caller takes the delta path.
    #[test]
    fn structural_edits_have_no_word_diff(
        frames in 1usize..4,
        seed in any::<u64>(),
        pos in any::<u64>(),
        mask in 1u8..=255,
        payload_edit in any::<bool>(),
    ) {
        let bs = reference(frames, seed);
        let delta = DeltaCrc::analyze(&bs).expect("builder output analyzes");
        let payload = delta.payload();
        let crc_at = bs.find_word(CRC_WRITE_HEADER, payload.end).expect("a CRC write") + 4;
        let outside: Vec<usize> = (0..bs.len())
            .filter(|p| !payload.contains(p) && !(crc_at..crc_at + 4).contains(p))
            .collect();
        let mut variant = bs.clone();
        variant.as_mut_bytes()[outside[(pos as usize) % outside.len()]] ^= mask;
        if payload_edit {
            // A payload edit riding along does not make it expressible.
            variant.as_mut_bytes()[payload.start] ^= mask;
        }
        prop_assert_eq!(delta.word_diff(delta.reference(), variant.as_bytes()), None);
        prop_assert_eq!(delta.word_diff(variant.as_bytes(), delta.reference()), None);
    }
}
