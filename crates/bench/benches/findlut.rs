//! FINDLUT performance (Section VI-B: "For bitstreams of size less
//! than 10MB and k = 6, our tool takes less than 4 sec to execute for
//! a given f"), the multi-candidate one-pass `Scanner` vs the legacy
//! per-candidate loop, the candidate index's build alone, the
//! naive-vs-optimized ablation, and the Section VII-B half scan.

use bench::{payload_of, synthetic_payload, test_board};
use bitmod::{find_lut_reference, Catalogue, FindLutParams, Scanner};
use bitstream::FRAME_BYTES;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// One single-candidate scanner per shape — the pre-`Scanner` usage
/// pattern (a `find_lut` call per catalogue row).
fn per_candidate_sweep(payload: &[u8], cat: &Catalogue) -> usize {
    cat.shapes
        .iter()
        .map(|shape| {
            Scanner::builder()
                .k(6)
                .stride(FRAME_BYTES)
                .threads(1)
                .candidate(shape.truth)
                .build()
                .unwrap()
                .scan(payload)
                .len()
        })
        .sum()
}

fn bench_findlut_real_bitstream(c: &mut Criterion) {
    let board = test_board(false);
    let payload = payload_of(&board.extract_bitstream());
    let cat = Catalogue::full();
    let f2 = Scanner::builder().stride(FRAME_BYTES).candidate(cat.shape("f2").unwrap().truth);
    let f2 = f2.build().unwrap();
    let m0 = Scanner::builder().stride(FRAME_BYTES).candidate(cat.shape("m0").unwrap().truth);
    let m0 = m0.build().unwrap();

    let mut g = c.benchmark_group("findlut/real-bitstream");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("f2", |b| b.iter(|| f2.scan(&payload)));
    g.bench_function("m0", |b| b.iter(|| m0.scan(&payload)));
    g.finish();
}

fn bench_findlut_scaling(c: &mut Criterion) {
    // The paper's headline timing claim is for a 10 MB bitstream.
    let cat = Catalogue::full();
    let f2 = cat.shape("f2").unwrap().truth;
    let seq = Scanner::builder().stride(FRAME_BYTES).threads(1).candidate(f2).build().unwrap();
    let par = Scanner::builder().stride(FRAME_BYTES).candidate(f2).build().unwrap();

    let mut g = c.benchmark_group("findlut/scaling");
    g.sample_size(10);
    for mb in [1usize, 4, 10] {
        let data = synthetic_payload(mb * 1_000_000, 0xF1A5);
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("f2-1thread", format!("{mb}MB")), &data, |b, d| {
            b.iter(|| seq.scan(d));
        });
        g.bench_with_input(BenchmarkId::new("f2-parallel", format!("{mb}MB")), &data, |b, d| {
            b.iter(|| par.scan(d));
        });
    }
    g.finish();
}

fn bench_multi_candidate_scan(c: &mut Criterion) {
    // The tentpole claim: scanning the whole Table II catalogue in
    // one pass vs the legacy per-candidate loop (single-threaded on
    // both sides for an apples-to-apples index comparison, then the
    // parallel engine on top).
    let cat = Catalogue::full();
    let data = synthetic_payload(4_000_000, 0xF1A5);
    let one_pass_seq =
        Scanner::builder().stride(FRAME_BYTES).threads(1).catalogue(&cat).build().unwrap();
    let one_pass_par = Scanner::builder().stride(FRAME_BYTES).catalogue(&cat).build().unwrap();

    let mut g = c.benchmark_group("findlut/catalogue-4MB");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("per-candidate-loop", |b| b.iter(|| per_candidate_sweep(&data, &cat)));
    g.bench_function("one-pass-1thread", |b| b.iter(|| one_pass_seq.scan(&data)));
    g.bench_function("one-pass-parallel", |b| b.iter(|| one_pass_par.scan(&data)));
    g.finish();
}

fn bench_index_build(c: &mut Criterion) {
    // The candidate index every attack session compiles before its
    // scan: 720 permutations of each Table II shape, timed apart from
    // any payload.
    let cat = Catalogue::full();
    c.bench_function("findlut/index-build", |b| {
        b.iter(|| Scanner::builder().k(6).catalogue(&cat).build().unwrap());
    });
}

fn bench_naive_vs_optimized(c: &mut Criterion) {
    // Ablation: the literal Algorithm 1 transcription vs the
    // hash-decoded single pass (same results, see property tests).
    let cat = Catalogue::full();
    let f2 = cat.shape("f2").unwrap().truth;
    let params = FindLutParams::k6(FRAME_BYTES);
    let data = synthetic_payload(100_000, 0xBEEF);
    let scanner = Scanner::builder().stride(FRAME_BYTES).threads(1).candidate(f2).build().unwrap();

    let mut g = c.benchmark_group("findlut/ablation-100kB");
    g.sample_size(10);
    g.bench_function("optimized", |b| b.iter(|| scanner.scan(&data)));
    g.bench_function("reference-algorithm1", |b| b.iter(|| find_lut_reference(&data, f2, &params)));
    g.finish();
}

fn bench_xor_half_scan(c: &mut Criterion) {
    let board = test_board(true);
    let payload = payload_of(&board.extract_bitstream());
    let scanner = Scanner::builder().stride(FRAME_BYTES).build().unwrap();
    let mut g = c.benchmark_group("findlut/xor-half-scan");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("parallel", |b| {
        b.iter(|| {
            scanner.scan_halves(&payload, 0..payload.len(), |o5, o6| {
                o5.as_xor_pair().is_some() || o6.as_xor_pair().is_some()
            })
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_findlut_real_bitstream,
    bench_findlut_scaling,
    bench_multi_candidate_scan,
    bench_index_build,
    bench_naive_vs_optimized,
    bench_xor_half_scan
);
criterion_main!(benches);
