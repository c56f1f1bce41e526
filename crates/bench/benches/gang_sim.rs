//! Gang-simulator costs: 64 scalar board loads versus one 64-lane
//! bit-parallel batch over the same bitstreams — the core ratio the
//! batched oracle pipeline's speedup comes from — and the same batch
//! as one full load plus 63 one-LUT partial lanes, which adds the
//! configure step's delta cost next to the gang stepping.

use bench::test_board;
use bitstream::{codec, Bitstream, PartialBitstream, PartialForge};
use boolfn::DualOutputInit;
use criterion::{criterion_group, criterion_main, Criterion};
use fpga_sim::{Load, Snow3gBoard, GANG_LANES};

const WORDS: usize = 16;

/// The serial delta chain the attack ships: lane `k` inverts the
/// truth table of LUT cell `k` in the image lane `k − 1` left.
fn one_lut_chain(board: &Snow3gBoard, golden: &Bitstream) -> Vec<PartialBitstream> {
    let mut forge = PartialForge::new(golden).expect("golden is delta-forgeable");
    let payload = golden.fdri_data_range().expect("payload");
    let geometry = board.fpga().geometry();
    let mut image = golden.clone();
    board.fpga().routing_db().luts[..GANG_LANES - 1]
        .iter()
        .map(|cell| {
            let loc = geometry.lut_location(cell.site);
            let mut next = image.clone();
            let frames = &mut next.as_mut_bytes()[payload.clone()];
            let init = codec::read_lut(frames, loc).init();
            codec::write_lut(frames, loc, DualOutputInit::new(!init));
            next.recompute_crc();
            let delta = forge.delta(&image, &next).expect("one-LUT edit is a delta");
            image = next;
            delta.stream
        })
        .collect()
}

fn bench_keystream(c: &mut Criterion) {
    let board = test_board(false);
    let golden = board.extract_bitstream();
    let batch: Vec<_> = (0..GANG_LANES).map(|_| Load::Full(&golden)).collect();
    let chain = one_lut_chain(&board, &golden);
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
    g.finish();
}

criterion_group!(benches, bench_keystream);
criterion_main!(benches);
