//! Hash-function throughput on 13-byte flow keys: the per-packet primitive
//! every algorithm's cost is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hashflow_hashing::{
    compute_lanes, HashFamily, HashLanes, KeyHasher, Murmur3, TabulationHash, XxHash64,
};
use hashflow_types::FlowKey;
use std::hint::black_box;
use std::time::Duration;

const KEYS: usize = 4_096;

fn keys() -> Vec<FlowKey> {
    (0..KEYS as u64).map(FlowKey::from_index).collect()
}

fn hash_one<H: KeyHasher>(c: &mut Criterion, name: &str) {
    let keys = keys();
    let hasher = H::with_seed(42);
    let mut group = c.benchmark_group("hash_key");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(KEYS as u64));
    group.bench_function(BenchmarkId::from_parameter(name), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in &keys {
                acc ^= hasher.hash_key(black_box(k));
            }
            acc
        })
    });
    group.finish();
}

fn family_probe(c: &mut Criterion) {
    // The realistic pattern: d = 3 bucket indices per key.
    let keys = keys();
    let family = HashFamily::<XxHash64>::new(3, 7);
    let mut group = c.benchmark_group("hash_family_probe");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(KEYS as u64));
    group.bench_function("xxhash64_d3_buckets", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for k in &keys {
                for i in 0..3 {
                    acc ^= family.bucket(i, black_box(k), 65_536);
                }
            }
            acc
        })
    });
    group.finish();
}

fn key_lanes(c: &mut Criterion) {
    // What one HashFlow packet costs in hashing — h_1..h_3 plus g_1 —
    // through `compute_lanes`' lane-major kernel (one loop per member over
    // the whole batch, in the widest compiled copy this CPU runs), against
    // the generic byte-slice path evaluated member by member.
    let keys = keys();
    let main = HashFamily::<XxHash64>::new(3, 7);
    let ancillary = HashFamily::<XxHash64>::new(1, 8);
    let mut lanes = HashLanes::default();
    let mut group = c.benchmark_group("hash_lanes_d3_plus_g1");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(KEYS as u64));
    group.bench_function("lane_major", |b| {
        b.iter(|| {
            compute_lanes(&[&main, &ancillary], keys.iter().copied(), &mut lanes);
            black_box(&lanes).lane(3).len()
        })
    });
    group.bench_function("bytes", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in &keys {
                let bytes = black_box(k).to_bytes();
                for i in 0..3 {
                    acc ^= main.hash_bytes(i, &bytes);
                }
                acc ^= ancillary.hash_bytes(0, &bytes);
            }
            acc
        })
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    hash_one::<XxHash64>(c, "xxhash64");
    hash_one::<Murmur3>(c, "murmur3");
    hash_one::<TabulationHash>(c, "tabulation");
    family_probe(c);
    key_lanes(c);
}

criterion_group!(hashing, benches);
criterion_main!(hashing);
