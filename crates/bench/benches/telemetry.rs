//! Telemetry recorder costs: what one recording call charges at the
//! oracle chokepoint, off vs. on vs. streaming to a sink — the
//! microscopic view behind the end-to-end overhead gate
//! (`bench-gate telemetry`, ceiling 5%).

use bench::test_board;
use bitmod::resilient::{ResilienceConfig, ResilientOracle};
use bitmod::Telemetry;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::io::{self, Write};

/// A sink that swallows bytes, isolating serialization cost from I/O.
struct NullSink;

impl Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn bench_recording_call(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry/record-query");
    // The disabled handle: one Option check — this is what every
    // untraced attack pays per query.
    g.bench_function("off", |b| {
        let t = Telemetry::off();
        b.iter(|| t.record_query(black_box(5), 5, 2, 40, "ok"));
    });
    // Metrics only (no sink): counter bumps plus two histogram
    // observations behind a mutex.
    g.bench_function("metrics-only", |b| {
        let t = Telemetry::new();
        b.iter(|| t.record_query(black_box(5), 5, 2, 40, "ok"));
    });
    // Full treatment: metrics plus one NDJSON event serialized into a
    // buffered null sink.
    g.bench_function("ndjson-sink", |b| {
        let t = Telemetry::with_sink(Box::new(NullSink));
        b.iter(|| t.record_query(black_box(5), 5, 2, 40, "ok"));
    });
    g.finish();
}

fn bench_span_guard(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry/span");
    g.bench_function("off", |b| {
        let t = Telemetry::off();
        b.iter(|| drop(t.span(black_box("phase:bench"))));
    });
    g.bench_function("ndjson-sink", |b| {
        let t = Telemetry::with_sink(Box::new(NullSink));
        b.iter(|| drop(t.span(black_box("phase:bench"))));
    });
    g.finish();
}

fn bench_instrumented_query(c: &mut Criterion) {
    // The realistic ratio: a full resilient oracle query (one device
    // configuration + 16-word read) with the recorder off vs. on.
    // This is the per-query view of the <5% end-to-end gate.
    let board = test_board(false);
    let golden = board.extract_bitstream();
    let mut g = c.benchmark_group("telemetry/oracle-query");
    g.sample_size(20);
    g.bench_function("untraced", |b| {
        let mut oracle = ResilientOracle::new(&board, ResilienceConfig::off());
        b.iter(|| oracle.query(&golden, 16).expect("runs"));
    });
    g.bench_function("traced", |b| {
        let mut oracle = ResilientOracle::new(&board, ResilienceConfig::off());
        oracle.set_telemetry(Telemetry::with_sink(Box::new(NullSink)));
        b.iter(|| oracle.query(&golden, 16).expect("runs"));
    });
    g.finish();
}

criterion_group!(benches, bench_recording_call, bench_span_guard, bench_instrumented_query);
criterion_main!(benches);
