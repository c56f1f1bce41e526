//! Gang-simulator costs: 64 scalar board loads versus one 64-lane
//! bit-parallel batch over the same bitstreams — the core ratio the
//! batched oracle pipeline's speedup comes from.

use bench::test_board;
use criterion::{criterion_group, criterion_main, Criterion};
use fpga_sim::{Load, GANG_LANES};

const WORDS: usize = 16;

fn bench_keystream(c: &mut Criterion) {
    let board = test_board(false);
    let golden = board.extract_bitstream();
    let batch: Vec<_> = (0..GANG_LANES).map(|_| Load::Full(&golden)).collect();
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
    g.finish();
}

criterion_group!(benches, bench_keystream);
criterion_main!(benches);
