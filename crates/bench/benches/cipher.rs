//! SNOW 3G software-model performance: keystream generation, the
//! faulted models used by the attack, LFSR reversal and key recovery;
//! plus the Fig. 1 container's AES-256-CBC and HMAC-SHA-256, which
//! seal and open every encrypted candidate load.

use bitstream::secure::{hmac_sha256, Aes256};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use snow3g::vectors::{PAPER_TABLE_IV, TEST_SET_1_IV, TEST_SET_1_KEY};
use snow3g::{recover_key, FaultSpec, FaultySnow3g, Lfsr, Snow3g};

fn bench_keystream(c: &mut Criterion) {
    let mut g = c.benchmark_group("cipher/keystream");
    g.throughput(Throughput::Bytes(4 * 1024));
    g.bench_function("1k-words", |b| {
        let mut cipher = Snow3g::new(TEST_SET_1_KEY, TEST_SET_1_IV);
        b.iter(|| cipher.keystream(1024));
    });
    g.finish();
}

fn bench_initialization(c: &mut Criterion) {
    c.bench_function("cipher/initialize", |b| {
        b.iter(|| Snow3g::new(TEST_SET_1_KEY, TEST_SET_1_IV));
    });
}

fn bench_faulty_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("cipher/faulty");
    g.bench_function("alpha-16-words", |b| {
        b.iter(|| {
            FaultySnow3g::new(TEST_SET_1_KEY, TEST_SET_1_IV, FaultSpec::alpha()).keystream(16)
        });
    });
    g.bench_function("key-independent-16-words", |b| {
        b.iter(|| {
            FaultySnow3g::new(TEST_SET_1_KEY, TEST_SET_1_IV, FaultSpec::key_independent())
                .keystream(16)
        });
    });
    g.finish();
}

fn bench_reversal_and_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("cipher/recover");
    g.bench_function("lfsr-reverse-33", |b| {
        b.iter(|| {
            let mut l = Lfsr::from_state(PAPER_TABLE_IV);
            l.unclock_by(33);
            l.state()
        });
    });
    g.bench_function("recover-key-from-table4", |b| {
        b.iter(|| recover_key(&PAPER_TABLE_IV).expect("recovers"));
    });
    g.finish();
}

fn bench_encrypt(c: &mut Criterion) {
    let mut g = c.benchmark_group("cipher/apply-keystream");
    let mut data = vec![0u8; 64 * 1024];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("64kB", |b| {
        b.iter(|| {
            Snow3g::new(TEST_SET_1_KEY, TEST_SET_1_IV).apply_keystream(&mut data);
        });
    });
    g.finish();
}

fn bench_container(c: &mut Criterion) {
    let mut g = c.benchmark_group("container");
    let data = vec![0xA5u8; 1 << 20];
    let aes = Aes256::new(&[0x4B; 32]);
    let iv = [0x1F; 16];
    let sealed = aes.cbc_encrypt(&iv, &data);
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("aes256-cbc/encrypt", |b| b.iter(|| aes.cbc_encrypt(&iv, black_box(&data))));
    g.bench_function("aes256-cbc/decrypt", |b| {
        b.iter(|| aes.cbc_decrypt(&iv, black_box(&sealed)).expect("own ciphertext"))
    });
    g.bench_function("hmac-sha256", |b| b.iter(|| hmac_sha256(&[0x2C; 32], black_box(&data))));
    g.finish();
}

criterion_group!(
    benches,
    bench_keystream,
    bench_initialization,
    bench_faulty_models,
    bench_reversal_and_recovery,
    bench_encrypt,
    bench_container
);
criterion_main!(benches);
