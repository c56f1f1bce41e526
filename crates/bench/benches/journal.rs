//! Checkpoint-journal costs: what crash-safety charges per completed
//! work item. The attack saves after every item, so the codec and the
//! atomic write (temp file + `sync_all` + rename) sit on the campaign
//! hot path — the EXPERIMENTS.md claim is that journalling stays
//! under 1% of campaign wall time.

use bench::test_board;
use bitmod::journal::{decode_frame, encode_frame, AttackJournal};
use bitmod::resilient::ResilienceConfig;
use bitmod::{Attack, JournalDoc, Telemetry};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fpga_sim::{FaultProfile, UnreliableBoard};

/// A realistic mid-campaign document: the seed-7 noisy attack cut at
/// 600 physical attempts has all 32 keystream-path LUTs, the full
/// feedback set and the site lattice on board — the heaviest
/// checkpoint the attack ever writes.
fn mid_campaign_doc(path: &std::path::Path) -> JournalDoc {
    let board = UnreliableBoard::new(test_board(false), FaultProfile::flaky(7));
    let golden = board.extract_bitstream();
    let config = ResilienceConfig::noisy(7 ^ 0x5EED).with_budget(600);
    let outcome =
        Attack::instrumented(&board, golden, bitstream::FRAME_BYTES, config, Telemetry::off())
            .expect("prepares")
            .with_journal(AttackJournal::new(path))
            .expect("journal attaches")
            .run();
    assert!(outcome.is_err(), "the 600-attempt budget must cut the run");
    AttackJournal::new(path).load().expect("journal loads")
}

fn bench_journal(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("bitmod-bench-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("attack.journal");
    let doc = mid_campaign_doc(&path);
    let frame = encode_frame(&doc);

    let mut g = c.benchmark_group("journal");
    g.throughput(Throughput::Bytes(frame.len() as u64));
    // Pure codec: serialize the checkpoint to its CRC-framed bytes.
    g.bench_function("encode", |b| {
        b.iter(|| encode_frame(&doc));
    });
    // Pure codec: verify the frame and rebuild the document.
    g.bench_function("decode", |b| {
        b.iter(|| decode_frame(&frame).expect("clean frame"));
    });
    // The per-item durability cost: encode + temp file + sync_all +
    // rename. This is what every completed work item actually pays.
    g.sample_size(20);
    g.bench_function("save-atomic", |b| {
        let journal = AttackJournal::new(&path);
        b.iter(|| journal.save(&doc).expect("saves"));
    });
    // Resume-time cost: read + verify + rebuild.
    g.bench_function("reload", |b| {
        let journal = AttackJournal::new(&path);
        b.iter(|| journal.load().expect("loads"));
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_journal);
criterion_main!(benches);
