//! Partial-stream codec properties: [`PartialBitstream::parse`] must
//! be total over arbitrary bytes (every input parses or yields a
//! typed [`ParsePartialError`]; none may panic), and
//! [`PartialBitstream::assemble`] → `parse` must round-trip the run
//! list exactly — the two halves of the wire boundary the forge and
//! the simulated configuration port meet at. The fuzz corpus covers
//! fully random streams, random words dropped behind a forced sync,
//! truncated well-formed streams, and single-bit-mutated well-formed
//! streams — the shapes a glitchy configuration port produces.

use bitstream::{
    BitstreamBuilder, FrameData, ParsePartialError, PartialBitstream, PartialRun, SYNC_WORD,
};
use proptest::prelude::*;

const IDCODE: u32 = 0x0362_D093;

/// A run list with pseudo-random frame contents, shaped by the
/// proptest-drawn `(start_frame, frame_count)` pairs.
fn runs_from(shape: &[(u16, u8)], seed: u64) -> Vec<PartialRun> {
    let mut x = seed | 1;
    shape
        .iter()
        .map(|&(start, count)| {
            let mut frames = FrameData::new(usize::from(count) + 1);
            for b in frames.as_mut_bytes().iter_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *b = (x >> 56) as u8;
            }
            PartialRun { start_frame: usize::from(start), frames }
        })
        .collect()
}

/// Parses and asserts the outcome is a value or a typed error — any
/// panic is a test failure by definition.
fn exercise(stream: &PartialBitstream) -> bool {
    match stream.parse() {
        Ok(_) => true,
        Err(
            ParsePartialError::NoSync
            | ParsePartialError::Truncated
            | ParsePartialError::UnknownRegister { .. }
            | ParsePartialError::CrcMismatch { .. }
            | ParsePartialError::FdriBeforeFar
            | ParsePartialError::RaggedRun { .. },
        ) => false,
        // `ParsePartialError` is non_exhaustive; new variants are
        // still typed errors, which is all totality asks for.
        Err(_) => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = exercise(&PartialBitstream::from_bytes(bytes));
    }

    #[test]
    fn arbitrary_bytes_after_sync_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        // Force the parser past the sync search so the packet decoder
        // itself sees the random words.
        let mut all = SYNC_WORD.to_be_bytes().to_vec();
        all.extend(bytes);
        let _ = exercise(&PartialBitstream::from_bytes(all));
    }

    #[test]
    fn assemble_parse_round_trips(
        shape in prop::collection::vec((any::<u16>(), 0u8..3), 1..4),
        seed in any::<u64>(),
    ) {
        let runs = runs_from(&shape, seed);
        let stream = PartialBitstream::assemble(IDCODE, &runs).expect("runs fit the encoding");
        let config = stream.parse().expect("assembled streams parse");
        prop_assert_eq!(config.idcode, Some(IDCODE));
        prop_assert!(config.crc_checked, "assembled streams carry a matching CRC");
        prop_assert_eq!(&config.runs, &runs, "runs survive the wire byte-exactly");
        let total: usize = runs.iter().map(|r| r.frames.frame_count()).sum();
        prop_assert_eq!(config.frames_written(), total);
    }

    /// The builder and `assemble` share one stream writer: a one-run
    /// partial stream at frame 0 and the full stream over the same
    /// frames configure the same frames, device ID and CRC check.
    #[test]
    fn one_run_at_frame_zero_reads_like_the_full_stream(
        count in 0u8..4,
        seed in any::<u64>(),
    ) {
        let run = runs_from(&[(0, count)], seed).remove(0);
        let full = BitstreamBuilder::new(run.frames.clone()).idcode(IDCODE).build();
        let full = full.parse().expect("builder streams parse");
        let partial = PartialBitstream::assemble(IDCODE, &[run]).expect("fits");
        let partial = partial.parse().expect("assembled streams parse");
        prop_assert_eq!(partial.runs.len(), 1);
        prop_assert_eq!(partial.runs[0].start_frame, 0);
        prop_assert_eq!(&partial.runs[0].frames, &full.frames);
        prop_assert_eq!(partial.idcode, full.idcode);
        prop_assert_eq!(partial.crc_checked, full.crc_checked);
    }

    #[test]
    fn truncations_never_panic(
        shape in prop::collection::vec((any::<u16>(), 0u8..3), 1..3),
        seed in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let runs = runs_from(&shape, seed);
        let stream = PartialBitstream::assemble(IDCODE, &runs).expect("runs fit the encoding");
        let cut = (cut as usize) % (stream.len() + 1);
        let truncated = PartialBitstream::from_bytes(stream.as_bytes()[..cut].to_vec());
        let _ = exercise(&truncated);
    }

    #[test]
    fn single_bit_mutations_never_panic(
        shape in prop::collection::vec((any::<u16>(), 0u8..3), 1..3),
        seed in any::<u64>(),
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let runs = runs_from(&shape, seed);
        let stream = PartialBitstream::assemble(IDCODE, &runs).expect("runs fit the encoding");
        let mut bytes = stream.into_bytes();
        let n = bytes.len();
        bytes[(pos as usize) % n] ^= 1 << bit;
        // A mutated stream must either parse (mutation hit padding or
        // was CRC-neutral) or fail with a typed error.
        let _ = exercise(&PartialBitstream::from_bytes(bytes));
    }
}
