#!/usr/bin/env bash
# Structure guards: APIs, layers and exhibits that were removed on purpose
# stay removed. Run from anywhere; exits non-zero, printing the offending
# lines, when one comes back.
#
# Usage: .github/scripts/structure_guards.sh
set -euo pipefail
cd "$(dirname "$0")/../.."
# `non_test_source FILE`: FILE without its `#[cfg(test)] mod` blocks.
. .github/scripts/nontest_lines.sh

# Prints `what` and fails.
fail() {
    echo "structure guard: $1" >&2
    exit 1
}

# The plumbing stays collapsed: handles reach a stage through
# `Instruments` + `FlowMonitor::instrument` only, and a removed API is
# deleted, not kept as a shim. Fails if a per-handle setter or a
# deprecated item comes back.
if grep -rnE '#\[deprecated|allow\(deprecated\)|pub fn (set|with)_(metrics|recorder|tracer)\b' crates tests examples; then
    fail "a per-handle setter or a deprecated shim"
fi

# No policy that no deployment selects: the evicting queue policy, a
# shard-queue or sink-health knob, the retry decorator, or the unused
# Murmur3 hasher.
if grep -rnE 'DropOldest|Displaced|RetrySink|RetryPolicy|HealthPolicy|set_queue_policy|sink_health_policy|Murmur3' crates tests examples; then
    fail "a policy no deployment selects"
fi

# HashFlow's pass 2 stays one loop on lane slices cut once per batch: no
# per-word slab accessor `HashLanes::word`, and no second `fn steps` in
# `algorithm.rs` (a trace-only or untraced copy of the batch loop).
if grep -rn 'fn word(' crates/hashing; then
    fail "the per-word slab accessor"
fi
if [ "$(grep -c 'fn steps' crates/core/src/algorithm.rs)" -gt 1 ]; then
    fail "a second copy of the batch loop"
fi

# HashFlow's probes derive from one hash pair: no per-probe lane type,
# no independent lane per main-table probe, and no hash function of the
# ancillary table's own (its bucket is `HashFlow::ancillary_coords`).
if grep -rnE 'type Lane\b|fn probe_lanes|fn slot_of' crates/core/src; then
    fail "an independent probe lane"
fi

# One timing harness: no criterion micro-benches or their stand-in beside
# the exhibits and `benchmark/`.
test ! -e crates/bench || fail "crates/bench"
test ! -e vendor/criterion || fail "vendor/criterion"

# One `process_trace`: the trait default is its only definition (the
# shard layer's threaded entry is `ShardedMonitor::ingest`).
test "$(grep -rn 'fn process_trace(' crates | wc -l)" -eq 1 || fail "a process_trace override"

# Fig. 11 stays measured: no `simswitch` crate and no bmv2 throughput
# model (a rate computed from the per-packet counts).
test ! -e crates/simswitch || fail "crates/simswitch"
if grep -rnE 'SoftwareSwitch|ThroughputModel|modeled_kpps|baseline_kpps' crates tests examples; then
    fail "a modeled throughput"
fi

# Shards hold disjoint flows, so nothing merges monitor state: no merge
# trait, `merge_from`, sharding capability flag,
# `ShardedMonitor::collapse` or substrate union.
if grep -rnE 'MergeableMonitor|merge_from|supports_sharding|fn collapse|union_with|merge_max|merge_add' crates tests examples; then
    fail "a merge of monitor state"
fi

# `experiments` keeps only what the benchmark and the tests do not
# already measure: no `overload` or `scaling_shards` exhibit or BENCH
# record, no uncalled `HyperLogLog`, no rotator `inner_mut`, no unread
# `dispatch_hashes`.
if grep -rnE 'mod (overload|scaling_shards)|BENCH_(overload|shard)|HyperLogLog|fn inner_mut|dispatch_hashes' crates tests examples; then
    fail "a retired exhibit or an unused item"
fi

# The chaos harness is test support, not runtime: `FaultPlan`,
# `FaultInjectingSink` and `PanicInjector` live in `crates/suite` beside
# the suites that drive them.
if grep -rnE 'FaultPlan|FaultInjectingSink|PanicInjector' crates/monitor; then
    fail "the chaos harness in the runtime"
fi

# SampledNetFlow keeps one ingest body: its batched sampler pass gained
# under 10 %, so batches take the trait's per-packet loop.
if grep -n 'fn process_batch' crates/sampled/src/lib.rs; then
    fail "a second SampledNetFlow ingest body"
fi

# Public API has a reader outside tests: these items had none and
# were deleted with the tests of their own.
if grep -rnE 'fn (add_sink|sink_count|total_records|into_epochs|lines_written|span_if_sampled|key_set|src_eq|dst_eq|is_key_level|first_hash|datagrams_written|has_dump_writer|same_as|storage_bits|fraction_at|tracked_keys|shard_count)\b' crates tests examples; then
    fail "a public item without a reader"
fi
if grep -nE 'fn split\(' crates/monitor/src/budget.rs || grep -nE 'fn packets\(' crates/monitor/src/stats.rs; then
    fail "a public item without a reader (MemoryBudget::split, PipelineMetrics::packets)"
fi
# Read only inside `hashflow-monitor`, so not public.
if grep -nE 'pub (struct PipelineMetrics|const SCALAR_FLUSH_PACKETS)' crates/monitor/src/stats.rs; then
    fail "PipelineMetrics or SCALAR_FLUSH_PACKETS public again"
fi

# One way in per layer: the shard layer tests for a single shard in at
# most two places — the split's short-circuit and `ingest` not spawning
# a worker for it — not once per entry.
if [ "$(non_test_source crates/shard/src/lib.rs | grep -cE 'shards\.len\(\) == 1|shard_count == 1')" -gt 2 ]; then
    fail "a single-shard fork in the shard layer"
fi

# A sealed epoch has one owner: the rotator seals and numbers it, and
# the `Collector` exports, announces, answers and retains it. The shard
# layer keeps no clock; no runtime code outside the `Collector` banks
# query answers; the rotator has no sink API and emits no seal spans;
# and the shard seal times no merge (records concatenate inside it).
if non_test_source crates/shard/src/lib.rs | grep -nE 'first_ns|last_ns|note_timestamps'; then
    fail "a clock in the shard layer"
fi
for f in $(grep -rlF --exclude-dir=tests '"query_answers"' crates examples); do
    if non_test_source "$f" | grep -nF '"query_answers"'; then
        fail "query answers banked outside the Collector, in $f"
    fi
done
if grep -nE 'SinkSet|fn add_sink|fn sink_health|fn finish_sinks|instruments\.tracer' crates/monitor/src/epoch.rs; then
    fail "sealed-side work in the rotator"
fi
if grep -rn 'hashflow_shard_merge_ns' crates tests examples; then
    fail "the shard merge timer"
fi

# A deployed collector runs one monitor: no shard count on the registry
# or the `Collector`, in the daemon's configuration or health view, or
# on the CLI. `ShardedMonitor` is the library type that shards.
if grep -rn 'fn shards(' crates/collector/src; then
    fail "a shard count on the registry or the Collector"
fi
if non_test_source crates/server/src/daemon.rs | grep -nE '\bshards\b'; then
    fail "a shard count in the daemon"
fi
if non_test_source crates/server/src/state.rs | grep -n 'faults'; then
    fail "monitor faults in the daemon's health view"
fi
for f in crates/cli/src/*.rs; do
    if non_test_source "$f" | grep -nF -- '--shards'; then
        fail "a --shards option in $f"
    fi
done

# The shard layer keeps only what its callers read: no metric families
# of its own (its `shard_queue` ledger stays), no `dispatch` span, and no
# `FlowMonitor::faults` report (`ShardedMonitor::shard_faults` is the
# accessor).
for f in $(grep -rlE --include='*.rs' 'hashflow_shard_|ShardMetrics|DispatchTrace|fn faults\(|"dispatch"' crates/*/src); do
    if non_test_source "$f" | grep -nE 'hashflow_shard_(packets_total|queue_depth|dispatch_ns|seal_ns)|ShardMetrics|DispatchTrace|fn faults\(|"dispatch"'; then
        fail "a shard metric, the dispatch span or a faults report, in $f"
    fi
done
