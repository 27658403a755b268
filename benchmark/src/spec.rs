//! What the benchmark measures: the workloads, the metrics and their
//! bounds. `BENCHMARK.json` at the repository root is this file rendered
//! by [`benchmark_json`]; a unit test keeps the two identical.

use hashflow_trace::{TraceProfile, TraceRegime};
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20190707;

/// What is driven, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Collector`, one shard: `process_batch` in 256-packet batches,
    /// `seal()` per epoch.
    Collector,
    /// `ShardedMonitor<HashFlow>`, two shards: `ingest(epoch)`,
    /// `seal_epoch()`.
    Sharded,
    /// `Server`, closed-loop `IngestPort::offer` under `Block` with at most
    /// 32 batches in flight, no readers.
    DaemonCeiling,
    /// `Server`, open-loop UDP ingest at 250 kpps with HTTP readers at
    /// 50 req/s.
    DaemonUdpReaders,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub regime: TraceRegime,
    pub flows: usize,
    pub memory_kib: usize,
    pub kind: Kind,
    /// Whether `BENCHMARK.json` lists it, so that later changes are judged
    /// by it. The others run on request and in the suite, and print the
    /// same metrics.
    pub gated: bool,
}

const CAIDA: TraceRegime = TraceRegime::Calibrated(TraceProfile::Caida);

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "lib-caida-1m",
        why:
            "Collector at 1 MiB, CAIDA 100k flows per epoch: tables stay in cache, so hashing and \
              probe arithmetic dominate and memory-layout work should not show",
        regime: CAIDA,
        flows: 100_000,
        memory_kib: 1024,
        kind: Kind::Collector,
        gated: true,
    },
    Workload {
        name: "lib-caida-8m",
        why: "Collector at 8 MiB, CAIDA 800k flows per epoch: tables exceed cache, so memory \
              latency and the long seal dominate; prefetch, layout and seal work show here",
        regime: CAIDA,
        flows: 800_000,
        memory_kib: 8192,
        kind: Kind::Collector,
        gated: true,
    },
    Workload {
        name: "lib-churn-8m",
        why:
            "Collector at 8 MiB, churn-heavy 800k flows: mostly first-packet inserts and ancillary \
              writes, so a hit-path gain that taxes the collision path shows as a loss",
        regime: TraceRegime::ChurnHeavy,
        flows: 800_000,
        memory_kib: 8192,
        kind: Kind::Collector,
        gated: true,
    },
    Workload {
        name: "lib-caida-8m-s2",
        why: "ShardedMonitor with 2 shards over the lib-caida-8m input: the only workload where \
              dispatch, BatchQueue and worker threads do the work; it prices sharding",
        regime: CAIDA,
        flows: 800_000,
        memory_kib: 8192,
        kind: Kind::Sharded,
        gated: false,
    },
    Workload {
        name: "daemon-ceiling",
        why: "Server at 1 MiB fed through IngestPort::offer by one thread, at most 32 batches \
              ahead of the ingest thread, no readers: queue hand-off, ingest thread and timer \
              seals dominate; the daemon's ceiling",
        regime: CAIDA,
        flows: 100_000,
        memory_kib: 1024,
        kind: Kind::DaemonCeiling,
        gated: true,
    },
    Workload {
        name: "daemon-udp-readers",
        why: "Server at 1 MiB, open loop: HFW1 datagrams over loopback UDP at 250 kpps, HTTP GETs \
              at 50 req/s, one plan attached: ingest is light, so the read path dominates",
        regime: CAIDA,
        flows: 100_000,
        memory_kib: 1024,
        kind: Kind::DaemonUdpReaders,
        gated: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may worsen before a change counts as a regression. Every workload
/// reports every one of them (see README for what each means where).
pub const END_TO_END: [(Metric, f64); 5] = [
    (lower("setup_s", "s"), 0.25),
    (higher("ingest_mpps", "Mpackets/s"), 0.25),
    (higher("fsc", "ratio"), 0.005),
    (lower("size_are", "ratio"), 0.005),
    (lower("peak_rss_mib", "MiB"), 0.2),
];

/// Per-layer metrics of the traced run, named `<layer>.<what>`.
pub const PER_LAYER: [Metric; 45] = [
    lower("hashing.lanes_ns_per_pkt", "ns"),
    lower("core.batch_ns_per_pkt", "ns"),
    lower("core.scalar_ns_per_pkt", "ns"),
    lower("core.hashes_per_pkt", "count"),
    lower("core.reads_per_pkt", "count"),
    lower("core.writes_per_pkt", "count"),
    higher("core.main_table_load", "ratio"),
    lower("core.promotions_per_kpkt", "count"),
    lower("core.digest_collisions_per_kpkt", "count"),
    lower("core.seal_ms", "ms"),
    lower("monitor.rotator_self_ns_per_pkt", "ns"),
    lower("monitor.rotate_ms", "ms"),
    lower("monitor.snapshot_topk_us", "us"),
    lower("monitor.snapshot_lookup_ns", "ns"),
    lower("collector.self_ns_per_pkt", "ns"),
    lower("collector.seal_ms", "ms"),
    higher("collector.busy_share", "ratio"),
    lower("query.stream_self_ns_per_pkt", "ns"),
    lower("query.execute_snapshot_ms", "ms"),
    lower("shard.ingest_ns_per_pkt", "ns"),
    lower("shard.partition_ns_per_pkt", "ns"),
    lower("shard.imbalance", "ratio"),
    lower("shard.seal_ms", "ms"),
    lower("shard.queue_roundtrip_ns", "ns"),
    lower("shard.dropped_pkts", "count"),
    lower("server.wire.encode_ns_per_pkt", "ns"),
    lower("server.wire.decode_ns_per_pkt", "ns"),
    lower("server.offer_wait_ns_per_pkt", "ns"),
    higher("server.epochs_sealed", "count"),
    lower("server.udp_lost_share", "ratio"),
    lower("server.shed_share", "ratio"),
    lower("server.start_ms", "ms"),
    lower("server.shutdown_ms", "ms"),
    lower("server.http.epochs.p50_us", "us"),
    lower("server.http.top10.p50_us", "us"),
    lower("server.http.flow.p50_us", "us"),
    lower("server.http.metrics.p50_us", "us"),
    lower("server.http.queries.p50_us", "us"),
    lower("server.http.all.p99_us", "us"),
    lower("server.http.queries_body_kib", "KiB"),
    lower("obs.render_prometheus_us", "us"),
    lower("loadgen.late_ms_p99", "ms"),
    lower("loadgen.late_ms_max", "ms"),
    higher("loadgen.sent_kpps", "kpackets/s"),
    higher("trace_overhead_share", "ratio"),
];

/// By what share of `first` the value `second` of the end-to-end metric
/// `name` is worse (negative if it is better), and the metric's bound.
pub fn worsening(name: &str, first: f64, second: f64) -> Option<(f64, f64)> {
    let (metric, bound) = END_TO_END.iter().find(|(m, _)| m.name == name)?;
    let worse_by = match metric.better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    Some((worse_by / first, *bound))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let gated: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.gated).collect();
    for (i, w) in gated.iter().enumerate() {
        let comma = if i + 1 < gated.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (m, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The name grammar of `BENCHMARK.json`: starts with a letter or digit,
    /// at most 64 letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn name_grammar() {
        for ok in ["a", "lib-caida-8m-s2", "server.http.all.p99_us", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(m, _)| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn units_whys_and_bounds_fit_the_contract() {
        for unit in END_TO_END
            .iter()
            .map(|(m, _)| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{unit}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (m, b) in &END_TO_END {
            assert!(*b > 0.0 && *b <= 0.25, "{}", m.name);
        }
        assert_eq!(worsening("setup_s", 2.0, 2.5), Some((0.25, 0.25)));
        assert_eq!(worsening("ingest_mpps", 8.0, 6.0), Some((0.25, 0.25)));
        assert_eq!(worsening("ingest_mpps", 8.0, 10.0), Some((-0.25, 0.25)));
        assert_eq!(worsening("nope", 1.0, 1.0), None);
    }

    #[test]
    fn benchmark_json_is_this_table() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --print-spec > BENCHMARK.json"
        );
    }
}
