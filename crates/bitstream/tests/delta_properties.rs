//! Delta-CRC properties: the differential verdict [`DeltaCrc::check`]
//! must equal a full [`Bitstream::parse`] on every delta-expressible
//! variant — accepted together, or refused with the same
//! `CrcMismatch { stored, computed }` — and [`DeltaCrc::word_diff`]
//! must refuse every structural edit, so no caller of the rule ever
//! accepts a stream the device would refuse or the reverse.

use bitstream::packet::CRC_WRITE_HEADER;
use bitstream::{Bitstream, BitstreamBuilder, DeltaCrc, FrameData};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random payload edits, optionally CRC-repaired by a full re-walk,
    /// then optionally a stored-CRC-word edit: the delta verdict is the
    /// full parse's verdict, error values included.
    #[test]
    fn delta_verdict_equals_a_full_parse(
        frames in 1usize..5,
        seed in any::<u64>(),
        edits in prop::collection::vec((any::<u64>(), 1u8..=255), 0..4),
        repair in any::<bool>(),
        crc_mask in prop_oneof![Just(0u32), any::<u32>()],
    ) {
        let bs = reference(frames, seed);
        let delta = DeltaCrc::analyze(&bs).expect("builder output analyzes");
        let payload = delta.payload();
        let mut variant = bs.clone();
        for &(pos, mask) in &edits {
            variant.as_mut_bytes()[payload.start + (pos as usize) % payload.len()] ^= mask;
        }
        if repair {
            prop_assert!(variant.recompute_crc());
        }
        let crc_at = bs.find_word(CRC_WRITE_HEADER, payload.end).expect("a CRC write") + 4;
        for (b, m) in variant.as_mut_bytes()[crc_at..crc_at + 4].iter_mut().zip(crc_mask.to_be_bytes()) {
            *b ^= m;
        }

        let words = delta.word_diff(delta.reference(), variant.as_bytes());
        prop_assert!(words.is_some(), "payload and CRC-word edits are delta-expressible");
        let verdict = delta.check(variant.as_bytes(), &words.expect("checked"));
        prop_assert_eq!(verdict, variant.parse().map(|_| ()));
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
