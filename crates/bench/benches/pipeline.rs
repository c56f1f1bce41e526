//! End-to-end pipeline costs: board construction (the implementation
//! flow), device configuration, keystream generation, and the
//! complete key-recovery attack.

use bench::test_board;
use bitmod::Attack;
use criterion::{criterion_group, criterion_main, Criterion};
use fpga_sim::Load;

fn bench_board_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline/board-build");
    g.sample_size(10);
    g.bench_function("unprotected", |b| b.iter(|| test_board(false)));
    // The protected circuit is the slowest map (`paper-tables table6`
    // and `countermeasure` build it).
    g.bench_function("protected", |b| b.iter(|| test_board(true)));
    g.finish();
}

fn bench_configure_and_run(c: &mut Criterion) {
    let board = test_board(false);
    let golden = board.extract_bitstream();
    let mut g = c.benchmark_group("pipeline/device");
    g.bench_function("parse-bitstream", |b| b.iter(|| golden.parse().expect("parses")));
    g.bench_function("program", |b| b.iter(|| board.fpga().program(&golden).expect("programs")));
    g.bench_function("keystream-16-words", |b| {
        let load = [Load::Full(&golden)];
        b.iter(|| board.load(&load, 16).pop().expect("one lane").expect("runs"));
    });
    g.finish();
}

fn bench_full_attack(c: &mut Criterion) {
    let board = test_board(false);
    let mut g = c.benchmark_group("pipeline/attack");
    g.sample_size(10);
    g.bench_function("full-key-recovery", |b| {
        b.iter(|| {
            Attack::new(&board, board.extract_bitstream())
                .expect("prepares")
                .run()
                .expect("recovers")
        });
    });
    g.finish();
}

fn bench_crc_operations(c: &mut Criterion) {
    let board = test_board(false);
    let golden = board.extract_bitstream();
    let mut g = c.benchmark_group("pipeline/crc");
    g.bench_function("recompute", |b| {
        b.iter_batched(
            || golden.clone(),
            |mut bs| {
                bs.as_mut_bytes()[2048] ^= 1;
                bs.recompute_crc()
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.bench_function("disable", |b| {
        b.iter_batched(
            || golden.clone(),
            |mut bs| bs.disable_crc(),
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_board_build,
    bench_configure_and_run,
    bench_full_attack,
    bench_crc_operations
);
criterion_main!(benches);
