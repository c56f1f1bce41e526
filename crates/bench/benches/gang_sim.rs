//! Gang-simulator costs: 64 scalar board loads versus one 64-lane
//! bit-parallel batch over the same bitstreams — the core ratio the
//! batched oracle pipeline's speedup comes from — and the same batch
//! as one full load plus 63 partial lanes, which adds the configure
//! step's delta cost next to the gang stepping. The partial lanes come
//! in two shapes: a chain that edits one more LUT per lane, and lanes
//! each one LUT off the golden (the attack's batch shape). Last, one
//! lane through each simulator: the scalar board load against a
//! one-lane gang.

use bench::test_board;
use bitstream::{codec, Bitstream, PartialBitstream, PartialForge};
use boolfn::DualOutputInit;
use criterion::{criterion_group, criterion_main, Criterion};
use fpga_sim::{GangConfiguredFpga, Load, Snow3gBoard, GANG_LANES};
use netlist::snow3g_circuit::WARMUP_CYCLES;

const WORDS: usize = 16;

/// `base` with LUT cell `cell`'s truth table inverted.
fn inverted(board: &Snow3gBoard, base: &Bitstream, cell: usize) -> Bitstream {
    let payload = base.fdri_data_range().expect("payload");
    let loc = board.fpga().geometry().lut_location(board.fpga().routing_db().luts[cell].site);
    let mut next = base.clone();
    let frames = &mut next.as_mut_bytes()[payload];
    let init = codec::read_lut(frames, loc).init();
    codec::write_lut(frames, loc, DualOutputInit::new(!init));
    next.recompute_crc();
    next
}

/// Ships each image as the frame-delta from the image before it,
/// starting from the golden: one partial lane per image.
fn deltas(golden: &Bitstream, images: Vec<Bitstream>) -> Vec<PartialBitstream> {
    let mut forge = PartialForge::new(golden).expect("golden is delta-forgeable");
    let mut image = golden.clone();
    images
        .into_iter()
        .map(|next| {
            let delta = forge.delta(&image, &next).expect("a LUT edit is a delta");
            image = next;
            delta.stream
        })
        .collect()
}

fn bench_keystream(c: &mut Criterion) {
    let board = test_board(false);
    let golden = board.extract_bitstream();
    let batch: Vec<_> = (0..GANG_LANES).map(|_| Load::Full(&golden)).collect();
    // A chain: lane `k` inverts LUT cell `k` in the image lane `k − 1`
    // left, so the edits pile up.
    let mut image = golden.clone();
    let chain = deltas(
        &golden,
        (0..GANG_LANES - 1)
            .map(|cell| {
                image = inverted(&board, &image, cell);
                image.clone()
            })
            .collect(),
    );
    let partial: Vec<_> =
        core::iter::once(Load::Full(&golden)).chain(chain.iter().map(Load::Partial)).collect();
    let mut g = c.benchmark_group("gang/keystream-16-words");
    g.sample_size(10);
    g.bench_function("scalar-x64", |b| {
        b.iter(|| {
            for &lane in &batch {
                board.load(&[lane], WORDS).pop().expect("one lane").expect("runs");
            }
        });
    });
    g.bench_function("gang-1x64", |b| {
        b.iter(|| {
            for lane in board.load(&batch, WORDS) {
                lane.expect("runs");
            }
        });
    });
    g.bench_function("gang-full+63-partial", |b| {
        b.iter(|| {
            for lane in board.load(&partial, WORDS) {
                lane.expect("runs");
            }
        });
    });
    // The attack's batch shape: lane `k` is the golden with only LUT
    // cell `k` inverted, so its delta also rolls LUT `k − 1` back.
    let off_golden =
        deltas(&golden, (0..GANG_LANES - 1).map(|cell| inverted(&board, &golden, cell)).collect());
    let one_lut: Vec<_> =
        core::iter::once(Load::Full(&golden)).chain(off_golden.iter().map(Load::Partial)).collect();
    g.bench_function("gang-full+63-one-lut", |b| {
        b.iter(|| {
            for lane in board.load(&one_lut, WORDS) {
                lane.expect("runs");
            }
        });
    });
    // One lane each: `load` runs a lone lane on the scalar simulator,
    // so the one-lane gang is driven directly, configure included.
    g.bench_function("scalar-x1", |b| {
        b.iter(|| board.load(&batch[..1], WORDS).pop().expect("one lane").expect("runs"));
    });
    let fpga = board.fpga();
    let (run, z_out) = (board.circuit.run, &board.circuit.z_out);
    g.bench_function("gang-1x1", |b| {
        b.iter(|| {
            let inits = fpga.decode_lut_inits(&golden).expect("golden programs");
            let mut gang = GangConfiguredFpga::with_inits(fpga, &[inits]);
            gang.set_input(run, u64::MAX);
            gang.run(WARMUP_CYCLES);
            (0..WORDS)
                .map(|_| {
                    gang.step();
                    gang.word(0, z_out)
                })
                .collect::<Vec<u32>>()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_keystream);
criterion_main!(benches);
