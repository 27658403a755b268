#!/usr/bin/env bash
# Structure guards: APIs, layers and exhibits that were removed on purpose
# stay removed. Run from anywhere; exits non-zero, printing the offending
# lines, when one comes back.
#
# Usage: .github/scripts/structure_guards.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

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
