//! Shard-scaling throughput of `ShardedMonitor<HashFlow>` on the CAIDA
//! profile at N = 1/2/4/8 shards (beyond the paper's single-core §IV-D).
//!
//! One measurement per shard count: `ingest`, the real threaded path
//! (dispatcher + N workers over bounded batch queues), by this machine's
//! wall clock.
//!
//! Each timed iteration includes `reset()` (the vendored criterion has
//! no `iter_batched` to exclude setup). Zeroing the 256 KiB budget costs
//! ~1% of a 20K-packet ingest and is identical across shard counts, so
//! relative numbers are unaffected; the clean absolute throughput is the
//! `scaling_shards` exhibit's, which times ingest alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hashflow_bench::{bench_sharded_hashflow, bench_trace};
use hashflow_monitor::FlowMonitor;
use hashflow_trace::TraceProfile;
use std::time::Duration;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn shard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    let trace = bench_trace(TraceProfile::Caida, 20_000);
    group.throughput(Throughput::Elements(trace.packets().len() as u64));

    for shards in SHARD_COUNTS {
        let mut monitor = bench_sharded_hashflow(shards);
        group.bench_with_input(
            BenchmarkId::new("ingest", shards),
            trace.packets(),
            |b, packets| {
                b.iter(|| {
                    monitor.reset();
                    monitor.ingest(packets).packets
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, shard_scaling);
criterion_main!(benches);
