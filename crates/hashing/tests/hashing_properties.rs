//! Statistical and determinism properties of the hashing crate, exercised
//! through its public API only.
//!
//! Five groups:
//! * known-answer sanity for the widened [`Murmur3`] (the canonical 32-bit
//!   vectors live next to the private reference function),
//! * independence checks for [`TabulationHash`] (the paper's ball-and-urn
//!   analysis in §III-B assumes the hash family behaves independently),
//! * determinism of [`HashFamily`] under a fixed master seed,
//! * the fixed-width key path: `hash_key` against its `hash_bytes` oracle,
//!   and `compute_lanes` against `HashFamily::hash`,
//! * the lane kernel: every compiled copy this host runs against the
//!   scalar `offset + fast_range(hash_key(k), len)`.

use hashflow_hashing::{
    compute_lanes, digest_from_hash, fast_range, fast_range32, probe_hash_low, probe_slot,
    HashFamily, HashLanes, KernelCopy, KeyHasher, Murmur3, TabulationHash, XxHash64,
};
use hashflow_types::{FlowKey, Ipv4Addr};
use proptest::prelude::*;

fn keys(n: u64) -> impl Iterator<Item = FlowKey> {
    (0..n).map(FlowKey::from_index)
}

// --- Murmur3 (widened 64-bit construction) -------------------------------

/// The widened hash must change whenever the underlying 32-bit hash does,
/// and its halves must come from decorrelated seeds: pin the structural
/// properties on a fixed corpus.
#[test]
fn murmur3_widened_is_injective_on_small_corpus() {
    let h = Murmur3::with_seed(0);
    let mut seen = std::collections::HashSet::new();
    for key in keys(50_000) {
        assert!(seen.insert(h.hash_key(&key)), "collision at {key:?}");
    }
}

#[test]
fn murmur3_empty_and_prefix_inputs_distinct() {
    let h = Murmur3::with_seed(1);
    let outputs = [
        h.hash_bytes(b""),
        h.hash_bytes(b"\0"),
        h.hash_bytes(b"\0\0"),
        h.hash_bytes(b"a"),
        h.hash_bytes(b"ab"),
        h.hash_bytes(b"abc"),
        h.hash_bytes(b"abcd"),
        h.hash_bytes(b"abcde"),
    ];
    let distinct: std::collections::HashSet<u64> = outputs.iter().copied().collect();
    assert_eq!(distinct.len(), outputs.len());
}

// --- Tabulation independence ---------------------------------------------

/// Pairwise (2-)independence proxy: for distinct keys x != y the events
/// "bucket(x) == bucket(y)" should occur with probability about 1/n.
#[test]
fn tabulation_pairwise_collision_rate_matches_uniform() {
    let h = TabulationHash::with_seed(42);
    let n = 64usize;
    let trials = 40_000;
    let mut collisions = 0usize;
    for i in 0..trials as u64 {
        let a = fast_range(h.hash_key(&FlowKey::from_index(2 * i)), n);
        let b = fast_range(h.hash_key(&FlowKey::from_index(2 * i + 1)), n);
        if a == b {
            collisions += 1;
        }
    }
    let expected = trials as f64 / n as f64; // 625
    let got = collisions as f64;
    assert!(
        (got - expected).abs() < expected * 0.25,
        "collision count {got} vs expected {expected}"
    );
}

/// Every output bit should be unbiased: across many keys, each of the 64
/// bits is set about half the time.
#[test]
fn tabulation_output_bits_are_unbiased() {
    let h = TabulationHash::with_seed(7);
    let trials = 20_000u64;
    let mut ones = [0u32; 64];
    for key in keys(trials) {
        let v = h.hash_key(&key);
        for (bit, count) in ones.iter_mut().enumerate() {
            *count += ((v >> bit) & 1) as u32;
        }
    }
    let expect = trials as f64 / 2.0;
    for (bit, &count) in ones.iter().enumerate() {
        assert!(
            (f64::from(count) - expect).abs() < expect * 0.05,
            "bit {bit} set {count} times, expected about {expect}"
        );
    }
}

/// Keys differing in a single byte of the five-tuple must land in
/// uncorrelated buckets (no alignment artifacts from the per-position
/// tables).
#[test]
fn tabulation_single_byte_neighbors_spread_uniformly() {
    let h = TabulationHash::with_seed(13);
    let n = 32usize;
    let trials = 20_000u64;
    let mut histogram = vec![0usize; n];
    for i in 0..trials {
        let base = FlowKey::from_index(i);
        let neighbor = FlowKey::from_index(i ^ 1);
        let delta =
            (fast_range(h.hash_key(&base), n) + n - fast_range(h.hash_key(&neighbor), n)) % n;
        histogram[delta] += 1;
    }
    let expect = trials as f64 / n as f64;
    for (delta, &count) in histogram.iter().enumerate() {
        assert!(
            (count as f64 - expect).abs() < expect * 0.25,
            "bucket distance {delta} hit {count} times, expected about {expect}"
        );
    }
}

// --- Family determinism under a fixed seed --------------------------------

fn family_fingerprint<H: KeyHasher>(members: usize, seed: u64) -> Vec<u64> {
    let family = HashFamily::<H>::new(members, seed);
    let mut out = Vec::new();
    for key in keys(256) {
        for i in 0..members {
            out.push(family.hash(i, &key));
        }
    }
    out
}

#[test]
fn families_are_deterministic_under_fixed_seed() {
    assert_eq!(
        family_fingerprint::<XxHash64>(4, 0xdead_beef),
        family_fingerprint::<XxHash64>(4, 0xdead_beef)
    );
    assert_eq!(
        family_fingerprint::<Murmur3>(4, 0xdead_beef),
        family_fingerprint::<Murmur3>(4, 0xdead_beef)
    );
    assert_eq!(
        family_fingerprint::<TabulationHash>(4, 0xdead_beef),
        family_fingerprint::<TabulationHash>(4, 0xdead_beef)
    );
}

#[test]
fn families_differ_across_seeds_and_hashers() {
    let a = family_fingerprint::<XxHash64>(3, 1);
    let b = family_fingerprint::<XxHash64>(3, 2);
    assert_ne!(a, b, "different master seeds must give different families");
    let c = family_fingerprint::<Murmur3>(3, 1);
    assert_ne!(a, c, "different hashers must not produce the same stream");
}

/// A family's member list is a pure function of (members, seed): growing the
/// family must not change the earlier members.
#[test]
fn family_members_stable_under_growth() {
    let small = HashFamily::<XxHash64>::new(2, 99);
    let large = HashFamily::<XxHash64>::new(6, 99);
    for key in keys(64) {
        for i in 0..2 {
            assert_eq!(small.hash(i, &key), large.hash(i, &key), "member {i}");
        }
    }
}

/// Digest extraction is deterministic and never produces the reserved
/// empty-cell value, whatever hash feeds it.
#[test]
fn digests_from_any_family_member_are_nonzero() {
    let family = HashFamily::<TabulationHash>::new(3, 5);
    for key in keys(10_000) {
        for i in 0..3 {
            let d = digest_from_hash(family.hash(i, &key), 12);
            assert!((1..1 << 12).contains(&d));
        }
    }
}

// --- Fixed-width key hashing against the byte-slice oracle ----------------

/// Five-tuples whose every field is, a quarter of the time each, all-zero
/// or all-ones (`edges` spends two bits per field), and arbitrary
/// otherwise.
fn five_tuple() -> impl Strategy<Value = FlowKey> {
    let fields = (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
    );
    (fields, 0u32..1 << 10).prop_map(|((src, dst, sport, dport, proto), edges)| {
        let edge = |field: u32, value: u32, ones: u32| match (edges >> (2 * field)) & 3 {
            2 => 0,
            3 => ones,
            _ => value,
        };
        FlowKey::new(
            Ipv4Addr::new(edge(0, src, u32::MAX)),
            Ipv4Addr::new(edge(1, dst, u32::MAX)),
            edge(2, u32::from(sport), 0xffff) as u16,
            edge(3, u32::from(dport), 0xffff) as u16,
            edge(4, u32::from(proto), 0xff) as u8,
        )
    })
}

/// Keys every run must cover whatever the sampler draws: all-zero,
/// all-ones, and each of protocol / ports at its extremes alone.
fn edge_keys() -> Vec<FlowKey> {
    let ip = |bits: u32| Ipv4Addr::new(bits);
    vec![
        FlowKey::default(),
        FlowKey::new(ip(u32::MAX), ip(u32::MAX), u16::MAX, u16::MAX, u8::MAX),
        FlowKey::new(ip(0), ip(0), 0, 0, u8::MAX),
        FlowKey::new(ip(0), ip(0), u16::MAX, 0, 0),
        FlowKey::new(ip(0), ip(0), 0, u16::MAX, 0),
        FlowKey::new(ip(u32::MAX), ip(u32::MAX), 0, 0, 0),
        FlowKey::new(ip(0x0102_0304), ip(0x0506_0708), 0x090a, 0x0b0c, 0x0d),
    ]
}

fn assert_key_path_matches_bytes<H: KeyHasher>(seed: u64, key: &FlowKey) {
    let hasher = H::with_seed(seed);
    assert_eq!(
        hasher.hash_key(key),
        hasher.hash_bytes(&key.to_bytes()),
        "{hasher:?} on {key:?}"
    );
}

/// `compute_lanes` over `n` keys against `HashFamily::hash`, member by
/// member, for a `[main, ancillary]`-shaped pair of families.
fn assert_lanes_match_members<H: KeyHasher>(seed: u64, n: u64) {
    let main = HashFamily::<H>::new(3, seed);
    let anc = HashFamily::<H>::new(1, !seed);
    // Dirty slab: a refill must leave nothing of the previous batch.
    let mut lanes = HashLanes::default();
    compute_lanes(&[&anc], keys(5), &mut lanes);
    compute_lanes(&[&main, &anc], keys(n), &mut lanes);
    assert_eq!(lanes.lanes(), 4);
    assert_eq!(lanes.rows(), n as usize);
    for (i, key) in keys(n).enumerate() {
        for m in 0..3 {
            assert_eq!(
                lanes.lane(m)[i],
                main.hash(m, &key),
                "main lane {m} of key {i}"
            );
        }
        assert_eq!(
            lanes.lane(3)[i],
            anc.hash(0, &key),
            "ancillary lane of key {i}"
        );
    }
}

proptest! {
    /// `hash_key` may be specialised for the 13-byte width, but must
    /// equal `hash_bytes` over the canonical serialization.
    #[test]
    fn hash_key_equals_hash_bytes_of_the_serialized_key(key in five_tuple(), seed in any::<u64>()) {
        for key in edge_keys().iter().chain([&key]) {
            assert_key_path_matches_bytes::<XxHash64>(seed, key);
            assert_key_path_matches_bytes::<Murmur3>(seed, key);
            assert_key_path_matches_bytes::<TabulationHash>(seed, key);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Empty, singleton, either side of the short-batch cut and
    /// just-past-a-batch key sets.
    #[test]
    fn compute_lanes_rows_equal_family_members(seed in any::<u64>()) {
        for n in [0, 1, 7, 8, 257] {
            assert_lanes_match_members::<XxHash64>(seed, n);
            assert_lanes_match_members::<Murmur3>(seed, n);
            assert_lanes_match_members::<TabulationHash>(seed, n);
        }
    }
}

/// An iterator whose `size_hint` under- or over-states its length must
/// still yield exactly one row per key.
#[test]
fn compute_lanes_tolerates_inexact_size_hints() {
    let family = HashFamily::<XxHash64>::new(2, 3);
    let mut lanes = HashLanes::default();
    // `filter` reports (0, Some(40)); 20 keys arrive.
    let evens = (0..40u64).filter(|i| i % 2 == 0).map(FlowKey::from_index);
    compute_lanes(&[&family], evens, &mut lanes);
    assert_eq!(lanes.rows(), 20);
    assert_eq!(lanes.lane(1)[19], family.hash(1, &FlowKey::from_index(38)));
    // `take_while` reports (0, None); 9 keys arrive.
    let few = (0..).take_while(|&i| i < 9).map(FlowKey::from_index);
    compute_lanes(&[&family], few, &mut lanes);
    assert_eq!(lanes.rows(), 9);
    assert_eq!(lanes.lane(0)[8], family.hash(0, &FlowKey::from_index(8)));
}

// --- The lane kernel, copy by copy -----------------------------------------

/// Batch lengths around the short-batch cut, one vector, and a batch of
/// 256: empty, one key, vector tails of every kind.
const BATCH_LENGTHS: [usize; 8] = [0, 1, 7, 8, 9, 255, 256, 257];

/// The half-word high multiply is the `u128` one, at the corners of both
/// operands and wherever the sampler lands.
#[test]
fn half_word_range_reduction_equals_the_wide_multiply_at_the_corners() {
    for len in [1u32, 2, 0x8000_0000, u32::MAX] {
        for hash in [0u64, 1, 0xffff_ffff, 1 << 32, u64::MAX - 1, u64::MAX] {
            assert_eq!(
                fast_range32(hash, len) as usize,
                fast_range(hash, len as usize),
                "hash {hash:#x} len {len:#x}"
            );
        }
    }
}

proptest! {
    #[test]
    fn half_word_range_reduction_equals_the_wide_multiply(hash in any::<u64>(), len in 1u32..=u32::MAX) {
        prop_assert_eq!(fast_range32(hash, len) as usize, fast_range(hash, len as usize));
    }
}

/// Runs `fill_probes` through `copy` on a dirty slab and holds every
/// probe word to the scalar definition.
fn assert_copy_matches_scalar<H: KeyHasher>(
    copy: KernelCopy,
    seed: u64,
    lanes_spec: &[(u32, u32)],
    batch: &[FlowKey],
    slab: &mut HashLanes,
) {
    let family = HashFamily::<H>::new(lanes_spec.len(), seed);
    let lanes = family.members().iter().zip(lanes_spec.iter().copied());
    slab.fill_probes(copy, batch.iter().copied(), lanes);
    assert_eq!((slab.rows(), slab.lanes()), (batch.len(), lanes_spec.len()));
    for (m, &(offset, len)) in lanes_spec.iter().enumerate() {
        assert_eq!(slab.lane(m).len(), batch.len());
        for (i, key) in batch.iter().enumerate() {
            let hash = family.hash(m, key);
            let word = slab.lane(m)[i];
            assert_eq!(word, slab.word(m, i));
            assert_eq!(
                probe_slot(word),
                offset as usize + fast_range(hash, len as usize),
                "{} copy, lane {m}, key {i} of {}",
                copy.name(),
                batch.len()
            );
            assert_eq!(probe_hash_low(word), hash as u32, "{} copy", copy.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every compiled copy of the kernel this host runs — the baseline
    /// always, the AVX-512 one where the CPU has it — computes, for random
    /// seeds, keys, offsets and lengths up to 2³² − 1, exactly what the
    /// scalar query path does. Prints which copies ran (CI runners differ).
    #[test]
    fn every_kernel_copy_equals_the_scalar_path(
        seed in any::<u64>(),
        first in five_tuple(),
        spec in prop::collection::vec((any::<u32>(), 1u32..=u32::MAX), 1..6),
    ) {
        // `offset + len` must stay within 32 bits: shrink the offset.
        let spec: Vec<(u32, u32)> =
            spec.into_iter().map(|(offset, len)| (offset % (u32::MAX - len + 1).max(1), len)).collect();
        // The baseline always; the AVX-512 copy too where `best` finds it.
        let mut copies = vec![KernelCopy::BASELINE, KernelCopy::best()];
        copies.dedup();
        let mut slab = HashLanes::default();
        for &copy in &copies {
            for n in BATCH_LENGTHS {
                let batch: Vec<FlowKey> = edge_keys()
                    .into_iter()
                    .chain([first])
                    .chain(keys(n as u64))
                    .take(n)
                    .collect();
                assert_copy_matches_scalar::<XxHash64>(copy, seed, &spec, &batch, &mut slab);
                assert_copy_matches_scalar::<Murmur3>(copy, seed, &spec[..1], &batch, &mut slab);
            }
        }
        static PRINTED: std::sync::Once = std::sync::Once::new();
        PRINTED.call_once(|| {
            let names: Vec<&str> = copies.iter().map(|c| c.name()).collect();
            println!("kernel copies run on this host: {names:?}");
        });
    }
}
