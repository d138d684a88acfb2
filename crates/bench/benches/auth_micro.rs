//! Micro-benchmarks of the authentication substrate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wanacl_auth::hmac::{hmac_sha256, HmacKey};
use wanacl_auth::rsa::{self, KeyPair};
use wanacl_auth::sha256::Digest;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("auth/sha256");
    for size in [64usize, 1_024, 65_536] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| black_box(Digest::of(black_box(&data))))
        });
    }
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let data = vec![0x5Au8; 256];
    c.bench_function("auth/hmac_256B", |b| {
        b.iter(|| black_box(hmac_sha256(b"shared-key", black_box(&data))))
    });
    // The channel's widest message (a granting `QueryReply`) under a
    // 32-byte key: set the key up per tag, or hold it.
    let (key, msg) = ([0x11u8; 32], [0x5Au8; 31]);
    c.bench_function("auth/hmac_tag_oneshot_31B", |b| {
        b.iter(|| black_box(hmac_sha256(black_box(&key), black_box(&msg))))
    });
    let held = HmacKey::new(&key);
    c.bench_function("auth/hmac_tag_keyed_31B", |b| {
        b.iter(|| black_box(held.tag(black_box(&msg))))
    });
}

fn bench_rsa(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let kp = KeyPair::generate(&mut rng);
    let msg = b"Add(app0, u1, use)";
    let sig = kp.sign(msg);
    c.bench_function("auth/rsa_keygen", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(KeyPair::generate(&mut rng)))
    });
    c.bench_function("auth/rsa_sign", |b| b.iter(|| black_box(kp.sign(black_box(msg)))));
    c.bench_function("auth/rsa_verify", |b| {
        b.iter(|| black_box(rsa::verify(&kp.public, black_box(msg), &sig)))
    });
}

criterion_group!(benches, bench_sha256, bench_hmac, bench_rsa);
criterion_main!(benches);
