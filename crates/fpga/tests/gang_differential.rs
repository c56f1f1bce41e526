//! Differential property test: every gang lane must be bit-identical
//! to the plain reference evaluator (`common/reference.rs`) configured
//! from the same bitstream, over random routing databases
//! (single-output LUTs, fractured O5/O6 pairs, block RAMs of random
//! widths, flip-flops, ties) and random input sequences. Two lane
//! shapes are drawn: a random INIT for every LUT in every lane, and the
//! attack's batch shape — one base configuration per device with 0–3
//! cells edited per lane, so most cells hold one INIT across the lanes
//! and a few blend several.

mod common;
#[path = "common/reference.rs"]
mod reference;

use boolfn::DualOutputInit;
use common::{random_device, Rng};
use fpga_sim::gang::GANG_LANES;
use fpga_sim::Fpga;
use netlist::NodeId;
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;
use reference::Reference;

use bitstream::{codec, Bitstream, BitstreamBuilder, FrameData};

/// A bitstream holding `inits`, one INIT per LUT cell of the device.
fn bitstream_with(fpga: &Fpga, inits: &[u64]) -> Bitstream {
    let mut frames = FrameData::new(fpga.geometry().frame_count());
    for (cell, &init) in fpga.routing_db().luts.iter().zip(inits) {
        let loc = fpga.geometry().lut_location(cell.site);
        codec::write_lut(frames.as_mut_bytes(), loc, DualOutputInit::new(init));
    }
    BitstreamBuilder::new(frames).build()
}

/// A random INIT for every LUT cell the device uses.
fn random_inits(fpga: &Fpga, rng: &mut Rng) -> Vec<u64> {
    fpga.routing_db().luts.iter().map(|_| rng.next()).collect()
}

/// Programs `streams` onto one gang and one reference device each, drives
/// the same random per-lane inputs into both for `cycles` cycles, and
/// checks every net of every lane after each step.
fn lanes_match_references(
    fpga: &Fpga,
    inputs: &[NodeId],
    streams: &[Bitstream],
    rng: &mut Rng,
    cycles: usize,
    seeds: (u64, u64),
) -> TestCaseResult {
    let refs: Vec<&Bitstream> = streams.iter().collect();
    let mut gang = fpga.program_gang(&refs).expect("gang programs");
    let mut references: Vec<Reference<'_>> = streams
        .iter()
        .map(|bs| Reference::new(fpga, fpga.decode_lut_inits(bs).expect("decodes")))
        .collect();
    for _ in 0..cycles {
        // Random per-lane input drive: one mask per input net.
        for &net in inputs {
            let mask = rng.next();
            gang.set_input(net, mask);
            for (lane, dev) in references.iter_mut().enumerate() {
                dev.set_input(net, (mask >> lane) & 1 == 1);
            }
        }
        gang.step();
        for (lane, dev) in references.iter_mut().enumerate() {
            dev.step();
            for net in (0..dev.nets()).map(|i| NodeId(i as u32)) {
                prop_assert_eq!(
                    gang.net(lane, net),
                    dev.net(net),
                    "seed ({}, {}) lane {} net {} cycle {}",
                    seeds.0,
                    seeds.1,
                    lane,
                    net.0,
                    gang.cycle()
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_gang_lane_matches_the_scalar_simulator(
        device_seed in any::<u64>(),
        config_seed in any::<u64>(),
        n_lanes in 1usize..=GANG_LANES,
        cycles in 1usize..8,
    ) {
        let (fpga, inputs) = random_device(device_seed);
        let mut rng = Rng(config_seed);
        let streams: Vec<Bitstream> = (0..n_lanes)
            .map(|_| bitstream_with(&fpga, &random_inits(&fpga, &mut rng)))
            .collect();
        lanes_match_references(&fpga, &inputs, &streams, &mut rng, cycles, (device_seed, config_seed))?;
    }

    /// The attack's batch shape: lanes share one base configuration and
    /// each edits 0–3 random cells. Lane counts are never a multiple of
    /// 8, so the block RAM's last 8-lane block is always partial.
    #[test]
    fn batch_shaped_gang_lanes_match_the_scalar_simulator(
        device_seed in any::<u64>(),
        config_seed in any::<u64>(),
        full_blocks in 0usize..GANG_LANES / 8,
        extra_lanes in 1usize..8,
        cycles in 1usize..8,
    ) {
        let (fpga, inputs) = random_device(device_seed);
        let mut rng = Rng(config_seed);
        let base = random_inits(&fpga, &mut rng);
        let streams: Vec<Bitstream> = (0..8 * full_blocks + extra_lanes)
            .map(|_| {
                let mut inits = base.clone();
                for _ in 0..rng.below(4) {
                    let cell = rng.below(inits.len());
                    inits[cell] = rng.next();
                }
                bitstream_with(&fpga, &inits)
            })
            .collect();
        lanes_match_references(&fpga, &inputs, &streams, &mut rng, cycles, (device_seed, config_seed))?;
    }
}
