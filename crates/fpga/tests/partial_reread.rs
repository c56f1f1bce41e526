//! Property test for the changed-byte re-read rule: a partial load
//! ([`Fpga::apply_partial_base`]) and a differential batch decode
//! ([`Fpga::decode_lut_inits_batch`]) re-read only the LUTs whose
//! stored bytes changed. Over random devices on both INIT layouts,
//! random bases and random multi-run partial streams, both must agree
//! with a full decode of the resulting configuration.

mod common;

use bitstream::partial::{PartialBitstream, PartialRun};
use bitstream::{codec, Bitstream, BitstreamBuilder, FrameData, LutLocation, FRAME_BYTES};
use boolfn::DualOutputInit;
use common::{random_device, Rng};
use fpga_sim::{Fpga, PartialApplyError};
use proptest::prelude::*;

/// What a generated run writes over the frames it covers.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// The bytes already there (a no-op rewrite).
    Same,
    /// New bytes only where no LUT is stored (routing, slack).
    Routing,
    /// A new INIT for LUT cell `i` (only its bytes inside the run).
    Lut(usize),
    /// One flipped bit in one stored byte of LUT cell `i`.
    Bit(usize),
    /// Random bytes over the whole run.
    Random,
}

fn location(fpga: &Fpga, i: usize) -> LutLocation {
    fpga.geometry().lut_location(fpga.routing_db().luts[i].site)
}

/// The frames holding LUT cell `i`'s stored bytes.
fn lut_frames(fpga: &Fpga, i: usize) -> Vec<usize> {
    let mut frames: Vec<usize> =
        location(fpga, i).byte_indices().iter().map(|b| b / FRAME_BYTES).collect();
    frames.dedup();
    frames
}

/// A run of `len` frames at `start` holding `image` with `edit`
/// applied, and `image` updated to what the device holds after it.
fn run(
    fpga: &Fpga,
    image: &mut FrameData,
    start: usize,
    len: usize,
    edit: Edit,
    rng: &mut Rng,
) -> PartialRun {
    let span = start * FRAME_BYTES..(start + len) * FRAME_BYTES;
    let mut next = image.clone();
    let bytes = next.as_mut_bytes();
    match edit {
        Edit::Same => {}
        Edit::Routing => {
            for b in fpga.geometry().non_init_ranges().into_iter().flatten() {
                bytes[b] = rng.next() as u8;
            }
        }
        Edit::Lut(i) => codec::write_lut(bytes, location(fpga, i), DualOutputInit::new(rng.next())),
        Edit::Bit(i) => {
            let stored = location(fpga, i).byte_indices();
            bytes[stored[rng.below(8)]] ^= 1 << rng.below(8);
        }
        Edit::Random => bytes[span.clone()].iter_mut().for_each(|b| *b = rng.next() as u8),
    }
    image.as_mut_bytes()[span.clone()].copy_from_slice(&bytes[span.clone()]);
    PartialRun { start_frame: start, frames: FrameData::from_bytes(bytes[span].to_vec()) }
}

/// A random run, half the time starting on a frame of a random LUT.
fn random_run(fpga: &Fpga, image: &mut FrameData, rng: &mut Rng) -> PartialRun {
    let frame_count = fpga.geometry().frame_count();
    let len = 1 + rng.below(3);
    let lut = rng.below(fpga.routing_db().luts.len());
    let start = if rng.below(2) == 0 {
        let frames = lut_frames(fpga, lut);
        frames[rng.below(frames.len())].min(frame_count - len)
    } else {
        rng.below(frame_count - len + 1)
    };
    let edit =
        [Edit::Same, Edit::Routing, Edit::Lut(lut), Edit::Bit(lut), Edit::Random][rng.below(5)];
    run(fpga, image, start, len, edit, rng)
}

fn full_stream(frames: &FrameData) -> Bitstream {
    BitstreamBuilder::new(frames.clone()).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partial_loads_and_batch_decodes_equal_full_decodes(
        device_seed in any::<u64>(),
        stream_seed in any::<u64>(),
    ) {
        let (fpga, _) = random_device(device_seed);
        let mut rng = Rng(stream_seed);
        let frame_count = fpga.geometry().frame_count();
        let mut base = FrameData::new(frame_count);
        base.as_mut_bytes().iter_mut().for_each(|b| *b = rng.next() as u8);
        let (mut frames, mut inits) =
            fpga.decode_with_frames(&full_stream(&base)).expect("random base programs");
        let mut expected = frames.clone();
        let mut images = vec![full_stream(&frames)];

        let n_luts = fpga.routing_db().luts.len();
        for s in 0..8 {
            let before = inits.clone();
            let runs: Vec<PartialRun> = match s {
                0 => {
                    let start = rng.below(frame_count);
                    vec![run(&fpga, &mut expected, start, 1, Edit::Same, &mut rng)]
                }
                1 => (0..2)
                    .map(|_| {
                        let start = rng.below(frame_count);
                        run(&fpga, &mut expected, start, 1, Edit::Routing, &mut rng)
                    })
                    .collect(),
                2 => {
                    // Two runs rewriting the same LUT, each from the
                    // image the first one left.
                    let lut = rng.below(n_luts);
                    let held = lut_frames(&fpga, lut);
                    let a = held[rng.below(held.len())];
                    let b = held[rng.below(held.len())];
                    vec![
                        run(&fpga, &mut expected, a, 1, Edit::Lut(lut), &mut rng),
                        run(&fpga, &mut expected, b, 1, Edit::Lut(lut), &mut rng),
                    ]
                }
                _ => (0..1 + rng.below(4)).map(|_| random_run(&fpga, &mut expected, &mut rng)).collect(),
            };
            let stream = PartialBitstream::assemble(fpga.idcode(), &runs).expect("assembles");
            let written = fpga.apply_partial_base(&mut frames, &mut inits, &stream);
            let shipped: usize = runs.iter().map(|r| r.frames.frame_count()).sum();
            prop_assert_eq!(written, Ok(shipped), "stream {}", s);
            prop_assert!(frames == expected, "stream {} left the wrong image", s);
            let full = fpga.decode_lut_inits(&full_stream(&frames)).expect("image programs");
            prop_assert_eq!(&inits, &full, "stream {} (seeds {}, {})", s, device_seed, stream_seed);
            if s < 2 {
                prop_assert_eq!(&inits, &before, "stream {} changed no LUT byte", s);
            }
            images.push(full_stream(&frames));
        }

        // A refused stream leaves the image and the INITs untouched.
        let mut scratch = expected.clone();
        let good = random_run(&fpga, &mut scratch, &mut rng);
        let beyond = PartialRun { start_frame: frame_count, frames: FrameData::new(1) };
        for (stream, idcode) in [(vec![good.clone(), beyond], fpga.idcode()), (vec![good], 7)] {
            let stream = PartialBitstream::assemble(idcode, &stream).expect("assembles");
            let (frames_before, inits_before) = (frames.clone(), inits.clone());
            let refused = fpga.apply_partial_base(&mut frames, &mut inits, &stream);
            prop_assert!(
                matches!(
                    refused,
                    Err(PartialApplyError::FrameOutOfRange { .. } | PartialApplyError::WrongDevice { .. })
                ),
                "{:?}",
                refused
            );
            prop_assert!(frames == frames_before && inits == inits_before);
        }

        // The batch decode over every image plus refusals of each kind
        // the delta model must hand back to the full walk (or refuse
        // itself), in random order.
        let last = images.last().expect("images").clone();
        let mut bad_crc = last.clone();
        let payload = bad_crc.fdri_data_range().expect("payload");
        bad_crc.as_mut_bytes()[payload.start + rng.below(payload.len())] ^= 0x10;
        let mut no_crc = full_stream(&base);
        no_crc.disable_crc();
        let wrong_device = BitstreamBuilder::new(base.clone()).idcode(0x1234_5678).build();
        let wrong_size = full_stream(&FrameData::new(frame_count + 1));
        let mut truncated = last.clone().into_bytes();
        truncated.truncate(payload.end - FRAME_BYTES);
        images.extend([bad_crc, no_crc, wrong_device, wrong_size, Bitstream::from_bytes(truncated)]);
        for i in (1..images.len()).rev() {
            images.swap(i, rng.below(i + 1));
        }
        let refs: Vec<&Bitstream> = images.iter().collect();
        let serial: Vec<_> = refs.iter().map(|bs| fpga.decode_lut_inits(bs)).collect();
        prop_assert_eq!(fpga.decode_lut_inits_batch(&refs), serial.clone());
        prop_assert!(serial.iter().filter(|r| r.is_err()).count() >= 4, "refusals are covered");
    }
}
