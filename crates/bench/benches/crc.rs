//! Configuration-CRC costs: the register-write CRC walked over every
//! word of the golden stream (the work inside every full parse,
//! delta analysis and CRC recompute), the byte CRC over the same
//! bytes (the journal's and the attack's golden-stream guard), a full
//! parse of the golden stream (one serial board load's stream check),
//! and a parse of a 4-frame partial stream (one partial lane's CRC
//! check).

use bench::test_board;
use bitstream::crc::{ByteCrc, ConfigCrc};
use bitstream::partial::{PartialBitstream, PartialRun};
use bitstream::{FrameData, FRAME_BYTES};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_crc(c: &mut Criterion) {
    let board = test_board(false);
    let golden = board.extract_bitstream();
    let words: Vec<u32> = golden
        .as_bytes()
        .chunks_exact(4)
        .map(|w| u32::from_be_bytes(w.try_into().expect("4 bytes")))
        .collect();
    let payload = golden.fdri_data_range().expect("payload");
    let frames = golden.as_bytes()[payload.start..payload.start + 4 * FRAME_BYTES].to_vec();
    let run = PartialRun { start_frame: 0, frames: FrameData::from_bytes(frames) };
    let partial = PartialBitstream::assemble(board.fpga().idcode(), &[run]).expect("assembles");
    let mut g = c.benchmark_group("crc");
    g.bench_function("config-walk-golden", |b| {
        b.iter(|| {
            let mut crc = ConfigCrc::new();
            for &w in &words {
                crc.update(2, w);
            }
            crc.value()
        });
    });
    g.bench_function("byte-golden", |b| b.iter(|| ByteCrc::of(golden.as_bytes())));
    g.bench_function("parse-golden", |b| b.iter(|| golden.parse().expect("parses")));
    g.bench_function("parse-partial-4-frames", |b| {
        b.iter(|| partial.parse().expect("parses"));
    });
    g.finish();
}

criterion_group!(benches, bench_crc);
criterion_main!(benches);
