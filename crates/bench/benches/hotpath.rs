//! Scalar vs batched single-core ingestion, per main-table scheme — the
//! wall-clock counterpart of the `hotpath` experiments exhibit
//! (`cargo run -p experiments --bin hotpath` writes `BENCH_hotpath.json`).
//!
//! `scalar/*` drives `process_packet` one packet at a time; `batched/*`
//! drives the default `process_trace`, which feeds `process_batch`. For
//! HashFlow both are the same step — a packet is a batch of one — and a
//! real batch adds lane-major probe plans (one vectorised loop per hash
//! member over the whole batch), their cells prefetched ahead of the step,
//! and one cost flush. Recorded costs are identical either way
//! by contract; only wall clock differs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hashflow_bench::{bench_budget, bench_trace};
use hashflow_core::{HashFlow, HashFlowConfig, TableScheme};
use hashflow_monitor::FlowMonitor;
use hashflow_trace::TraceProfile;
use std::time::Duration;

fn scheme_monitor(scheme: TableScheme) -> HashFlow {
    let config = HashFlowConfig::with_memory(bench_budget())
        .expect("bench budget fits HashFlow")
        .rebuild()
        .scheme(scheme)
        .build()
        .expect("scheme variant fits the same budget");
    HashFlow::new(config).expect("valid config")
}

fn hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    let trace = bench_trace(TraceProfile::Caida, 20_000);
    group.throughput(Throughput::Elements(trace.packets().len() as u64));

    let schemes = [
        ("multi_hash", TableScheme::MultiHash { depth: 3 }),
        (
            "pipelined",
            TableScheme::Pipelined {
                depth: 3,
                alpha: 0.7,
            },
        ),
    ];
    for (name, scheme) in schemes {
        let mut scalar = scheme_monitor(scheme);
        group.bench_with_input(
            BenchmarkId::new("scalar", name),
            trace.packets(),
            |b, packets| {
                b.iter(|| {
                    scalar.reset();
                    for p in packets {
                        scalar.process_packet(p);
                    }
                    scalar.cost().packets
                })
            },
        );
        let mut batched = scheme_monitor(scheme);
        group.bench_with_input(
            BenchmarkId::new("batched", name),
            trace.packets(),
            |b, packets| {
                b.iter(|| {
                    batched.reset();
                    batched.process_trace(packets);
                    batched.cost().packets
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, hotpath);
criterion_main!(benches);
