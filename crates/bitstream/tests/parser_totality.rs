//! Parser totality: every reader of the configuration stream —
//! `Bitstream::parse`, `PartialBitstream::parse`, `DeltaCrc::analyze`,
//! `packets` and `recompute_crc`, all loops over the one packet walker,
//! plus the paper's word searches `fdri_data_range` and `disable_crc`
//! — must be total over arbitrary bytes. Every input either parses or
//! yields a typed [`ParseBitstreamError`]; no input may panic. On the
//! same bytes the readers must also agree: where `analyze` accepts a
//! stream its delta verdict on the stream itself is the parse's, and
//! after `recompute_crc` the parse never refuses for the CRC. The fuzz
//! corpus covers fully random streams, truncated well-formed streams,
//! and single-bit-mutated well-formed streams — the three shapes a
//! glitchy configuration port actually produces.

use bitstream::{
    Bitstream, BitstreamBuilder, DeltaCrc, FrameData, ParseBitstreamError, PartialBitstream,
    SYNC_WORD,
};
use proptest::prelude::*;

/// A well-formed bitstream with pseudo-random frame contents.
fn well_formed(frames: usize, seed: u64) -> Bitstream {
    let mut data = FrameData::new(frames);
    let mut x = seed | 1;
    for b in data.as_mut_bytes().iter_mut() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *b = (x >> 56) as u8;
    }
    BitstreamBuilder::new(data).build()
}

/// Drives every attacker-facing decode path; returns whether `parse`
/// succeeded. Any panic here is a test failure by definition.
fn exercise(bs: &Bitstream) -> bool {
    let parsed = bs.parse();
    let ok = parsed.is_ok();
    let _ = bs.fdri_data_range();
    let _ = bs.packets();
    let _ = PartialBitstream::from_bytes(bs.as_bytes().to_vec()).parse();
    if let Some(delta) = DeltaCrc::analyze(bs) {
        assert_eq!(delta.check(bs.as_bytes(), &[]), parsed.map(|_| ()));
    }
    let mut m = bs.clone();
    let _ = m.recompute_crc();
    assert!(!matches!(m.parse(), Err(ParseBitstreamError::CrcMismatch { .. })));
    let mut m = bs.clone();
    let _ = m.disable_crc();
    ok
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let bs = Bitstream::from_bytes(bytes);
        let _ = exercise(&bs);
    }

    #[test]
    fn arbitrary_bytes_after_sync_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        // Force the parser past the sync search so the packet decoder
        // itself sees the random words.
        let mut all = SYNC_WORD.to_be_bytes().to_vec();
        all.extend(bytes);
        let bs = Bitstream::from_bytes(all);
        let _ = exercise(&bs);
    }

    #[test]
    fn truncations_never_panic(frames in 1usize..4, seed in any::<u64>(), cut in any::<u64>()) {
        let bs = well_formed(frames, seed);
        let cut = (cut as usize) % (bs.len() + 1);
        let truncated = Bitstream::from_bytes(bs.as_bytes()[..cut].to_vec());
        let _ = exercise(&truncated);
    }

    #[test]
    fn single_bit_mutations_never_panic(
        frames in 1usize..4,
        seed in any::<u64>(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bs = well_formed(frames, seed);
        let n = bs.len();
        bs.as_mut_bytes()[(pos as usize) % n] ^= 1 << bit;
        // A mutated stream must either parse (mutation hit padding or
        // was CRC-neutral) or fail with a typed error.
        match bs.parse() {
            Ok(_) | Err(ParseBitstreamError::NoSync)
            | Err(ParseBitstreamError::Truncated)
            | Err(ParseBitstreamError::UnknownRegister { .. })
            | Err(ParseBitstreamError::CrcMismatch { .. })
            | Err(ParseBitstreamError::RaggedFrames { .. }) => {}
        }
        let _ = exercise(&bs);
    }

    #[test]
    fn well_formed_always_parse(frames in 1usize..5, seed in any::<u64>()) {
        let bs = well_formed(frames, seed);
        prop_assert!(exercise(&bs), "a builder-produced stream must parse");
    }
}
