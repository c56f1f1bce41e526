//! Differential property test: every gang lane must be bit-identical
//! to the scalar simulator programmed with the same bitstream, over
//! random routing databases (single-output LUTs, fractured O5/O6
//! pairs, block RAMs, flip-flops, ties), random LUT INITs and random
//! input sequences.

mod common;

use boolfn::DualOutputInit;
use common::{random_device, Rng};
use fpga_sim::gang::GANG_LANES;
use fpga_sim::Fpga;
use netlist::NodeId;
use proptest::prelude::*;

use bitstream::{codec, Bitstream, BitstreamBuilder, FrameData};

/// A bitstream assigning a random INIT to every LUT site the device
/// uses.
fn random_bitstream(fpga: &Fpga, rng: &mut Rng) -> Bitstream {
    let mut frames = FrameData::new(fpga.geometry().frame_count());
    for cell in &fpga.routing_db().luts {
        let loc = fpga.geometry().lut_location(cell.site);
        codec::write_lut(frames.as_mut_bytes(), loc, DualOutputInit::new(rng.next()));
    }
    BitstreamBuilder::new(frames).build()
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
        let streams: Vec<Bitstream> =
            (0..n_lanes).map(|_| random_bitstream(&fpga, &mut rng)).collect();
        let refs: Vec<&Bitstream> = streams.iter().collect();
        let mut gang = fpga.program_gang(&refs).expect("gang programs");
        let mut scalars: Vec<_> = streams
            .iter()
            .map(|bs| fpga.program(bs).expect("scalar programs"))
            .collect();
        let net_count = {
            let db = fpga.routing_db();
            let mut max = 0u32;
            for l in &db.luts {
                max = max.max(l.o6.0 + 1);
                if let Some(o5) = l.o5 { max = max.max(o5.0 + 1); }
            }
            for f in &db.ffs { max = max.max(f.q.0 + 1).max(f.d.0 + 1); }
            for b in &db.brams {
                for &d in &b.data { max = max.max(d.0 + 1); }
            }
            max
        };
        for _ in 0..cycles {
            // Random per-lane input drive: one mask per input net.
            for &net in &inputs {
                let mask = rng.next();
                gang.set_input(net, mask);
                for (lane, dev) in scalars.iter_mut().enumerate() {
                    dev.set_input(net, (mask >> lane) & 1 == 1);
                }
            }
            gang.step();
            for (lane, dev) in scalars.iter_mut().enumerate() {
                dev.step();
                for net in 0..net_count {
                    prop_assert_eq!(
                        gang.net(lane, NodeId(net)),
                        dev.net(NodeId(net)),
                        "seed ({}, {}) lane {} net {} cycle {}",
                        device_seed, config_seed, lane, net, gang.cycle()
                    );
                }
            }
        }
    }
}
