//! Adversarial trace regimes: workloads chosen to stress exactly the
//! assumptions the calibrated power-law profiles are friendly to.
//!
//! The paper's §IV evaluation ranks algorithms on CAIDA-calibrated
//! heavy-tailed selections; an accuracy ranking earned on one regime can
//! invert on another. Each [`TraceRegime`] here isolates one failure
//! axis:
//!
//! * [`TraceRegime::UniformFlood`] — no elephants at all: every flow has
//!   1–[`FLOOD_MAX_FLOW_SIZE`] packets, so record-cache eviction
//!   heuristics and elephant-biased promotion buy nothing.
//! * [`TraceRegime::SingleElephant`] — maximal skew: one flow carries
//!   exactly [`ELEPHANT_PACKET_SHARE`] of all packets over a floor of
//!   1–2-packet mice.
//! * [`TraceRegime::ChurnHeavy`] — a [`CHURN_SINGLETON_SHARE`] fraction
//!   of flows are single-packet: worst case for structures that promote
//!   on the second packet and for sampled baselines.
//! * [`TraceRegime::CollisionAdversarial`] — every flow key is sieved to
//!   collide in one bucket of a [`COLLISION_BUCKETS`]-way tabulation
//!   lane under [`COLLISION_SEED`] — the algorithmic-complexity attack
//!   surface of any hash-indexed monitor.
//!
//! [`TraceRegime::Calibrated`] wraps the existing [`TraceProfile`]s so
//! one enum spans the full evaluation matrix ([`REGIME_MATRIX`]).

use crate::generator::{layout, Trace, TraceGenerator};
use crate::interleave::InterleaveMode;
use crate::profile::TraceProfile;
use hashflow_hashing::{fast_range, KeyHasher, TabulationHash};
use hashflow_types::{FlowKey, FlowRecord};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Largest flow size in the uniform-flood regime.
pub const FLOOD_MAX_FLOW_SIZE: u32 = 3;

/// Exact fraction of all packets carried by the single elephant.
pub const ELEPHANT_PACKET_SHARE: f64 = 0.5;

/// Fraction of churn-heavy flows that are single-packet.
pub const CHURN_SINGLETON_SHARE: f64 = 0.95;

/// The tabulation seed the collision sieve targets. Every key the
/// collision-adversarial generator emits lands in bucket 0 of a
/// [`COLLISION_BUCKETS`]-way [`TabulationHash`] lane built with this
/// seed — the scenario of an attacker who learned (or guessed) one
/// deployment seed.
pub const COLLISION_SEED: u64 = 0xdead_beef_0bad_cafe;

/// Bucket count of the attacked tabulation lane.
pub const COLLISION_BUCKETS: usize = 1024;

/// One cell of the evaluation's trace axis: either a Table-I-calibrated
/// power-law profile or one of the adversarial regimes above.
///
/// # Examples
///
/// ```
/// use hashflow_trace::TraceRegime;
///
/// let trace = TraceRegime::UniformFlood.generate(7, 500);
/// assert_eq!(trace.flow_count(), 500);
/// assert!(trace.ground_truth().iter().all(|r| r.count() <= 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceRegime {
    /// A Table-I-calibrated power-law selection (the paper's §IV setup).
    Calibrated(TraceProfile),
    /// Uniform mice flood: no skew for elephant heuristics to exploit.
    UniformFlood,
    /// One elephant with exactly half of all packets over a mice floor.
    SingleElephant,
    /// Mostly single-packet flows: promotion and sampling worst case.
    ChurnHeavy,
    /// Keys sieved to collide in one tabulation bucket.
    CollisionAdversarial,
}

/// The monitor × regime evaluation matrix's trace axis: two calibrated
/// profiles bracketing the paper's setup plus the four adversarial
/// regimes.
pub const REGIME_MATRIX: [TraceRegime; 6] = [
    TraceRegime::Calibrated(TraceProfile::Caida),
    TraceRegime::Calibrated(TraceProfile::Campus),
    TraceRegime::UniformFlood,
    TraceRegime::SingleElephant,
    TraceRegime::ChurnHeavy,
    TraceRegime::CollisionAdversarial,
];

impl TraceRegime {
    /// Stable lower-case label used in exhibit tables and stats.
    pub const fn name(&self) -> &'static str {
        match self {
            TraceRegime::Calibrated(profile) => profile.name(),
            TraceRegime::UniformFlood => "uniform-flood",
            TraceRegime::SingleElephant => "single-elephant",
            TraceRegime::ChurnHeavy => "churn-heavy",
            TraceRegime::CollisionAdversarial => "collision-adversarial",
        }
    }

    /// A heavy-hitter threshold that separates the regime's elephants
    /// from its mice (for calibrated profiles: the profile's mid-range
    /// threshold).
    pub fn heavy_hitter_threshold(&self) -> u32 {
        match self {
            TraceRegime::Calibrated(profile) => {
                let thresholds = profile.heavy_hitter_thresholds();
                thresholds[thresholds.len() / 2]
            }
            // Flood and collision flows top out at FLOOD_MAX_FLOW_SIZE,
            // so the threshold selects exactly the max-size flows.
            TraceRegime::UniformFlood | TraceRegime::CollisionAdversarial => FLOOD_MAX_FLOW_SIZE,
            // Far above the 1-2-packet mice floor, far below the elephant.
            TraceRegime::SingleElephant => 100,
            // Above every singleton and most of the 2..=20 tail.
            TraceRegime::ChurnHeavy => 10,
        }
    }

    /// Generates a trace of exactly `flows` distinct flows; the same
    /// `(regime, seed)` pair always yields identical traces.
    ///
    /// # Panics
    ///
    /// Panics if `flows == 0`.
    pub fn generate(&self, seed: u64, flows: usize) -> Trace {
        assert!(flows > 0, "a trace needs at least one flow");
        if let TraceRegime::Calibrated(profile) = self {
            return TraceGenerator::new(*profile, seed).generate(flows);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ regime_salt(*self));
        let keys = self.keys(&mut rng, flows);
        let sizes = self.sizes(&mut rng, flows);
        let truth: Vec<FlowRecord> = keys
            .into_iter()
            .zip(sizes)
            .map(|(key, size)| FlowRecord::new(key, size))
            .collect();
        assemble(*self, truth, &mut rng, seed)
    }

    /// Distinct flow keys for one trace. All regimes but the collision
    /// sieve use a random disjoint key window, like the calibrated
    /// generator.
    fn keys(&self, rng: &mut StdRng, flows: usize) -> Vec<FlowKey> {
        let key_base = rng.gen::<u64>() & 0x7fff_ffff_ffff_0000;
        if *self != TraceRegime::CollisionAdversarial {
            return (0..flows as u64)
                .map(|i| FlowKey::from_index(key_base + i))
                .collect();
        }
        // Sieve the key window for keys landing in bucket 0 of the
        // attacked lane; ~COLLISION_BUCKETS candidates per hit.
        let lane = TabulationHash::with_seed(COLLISION_SEED);
        let mut keys = Vec::with_capacity(flows);
        let mut candidate = key_base;
        while keys.len() < flows {
            let key = FlowKey::from_index(candidate);
            if fast_range(lane.hash_bytes(&key.to_bytes()), COLLISION_BUCKETS) == 0 {
                keys.push(key);
            }
            candidate += 1;
        }
        keys
    }

    /// Per-flow packet counts realizing the regime's declared statistics.
    fn sizes(&self, rng: &mut StdRng, flows: usize) -> Vec<u32> {
        match self {
            TraceRegime::Calibrated(_) => unreachable!("calibrated regimes delegate"),
            TraceRegime::UniformFlood | TraceRegime::CollisionAdversarial => (0..flows)
                .map(|_| rng.gen_range(1..=FLOOD_MAX_FLOW_SIZE))
                .collect(),
            TraceRegime::SingleElephant => {
                // Mice first, then one elephant matching their packet sum
                // exactly — the elephant's share is precisely 1/2.
                let mut sizes: Vec<u32> = (1..flows).map(|_| rng.gen_range(1..=2u32)).collect();
                let elephant: u32 = sizes.iter().sum::<u32>().max(1);
                sizes.push(elephant);
                sizes.shuffle(rng);
                sizes
            }
            TraceRegime::ChurnHeavy => {
                let singletons = (flows as f64 * CHURN_SINGLETON_SHARE).round() as usize;
                let mut sizes: Vec<u32> = (0..flows)
                    .map(|i| {
                        if i < singletons {
                            1
                        } else {
                            rng.gen_range(2..=20)
                        }
                    })
                    .collect();
                sizes.shuffle(rng);
                sizes
            }
        }
    }
}

impl std::fmt::Display for TraceRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-regime RNG stream separation (mirrors the calibrated generator's
/// profile salt).
fn regime_salt(regime: TraceRegime) -> u64 {
    let tag: u64 = match regime {
        TraceRegime::Calibrated(profile) => profile as u64,
        TraceRegime::UniformFlood => 101,
        TraceRegime::SingleElephant => 102,
        TraceRegime::ChurnHeavy => 103,
        TraceRegime::CollisionAdversarial => 104,
    };
    tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Lays out each flow's packets with the calibrated generator's bimodal
/// wire lengths and hands them to the shuffled interleaver.
fn assemble(regime: TraceRegime, truth: Vec<FlowRecord>, rng: &mut StdRng, seed: u64) -> Trace {
    let packets = layout(&truth, rng);
    let packets = InterleaveMode::Shuffled.interleave(packets, &truth, seed);
    Trace::from_parts(regime, packets, truth)
}

/// The bucket `key` occupies in the attacked tabulation lane
/// ([`COLLISION_SEED`], [`COLLISION_BUCKETS`]) — the statistic the
/// collision-adversarial generator drives to zero for every emitted key.
pub fn collision_bucket_of(key: &FlowKey) -> usize {
    let lane = TabulationHash::with_seed(COLLISION_SEED);
    fast_range(lane.hash_bytes(&key.to_bytes()), COLLISION_BUCKETS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_regime_is_deterministic_and_sized() {
        for regime in REGIME_MATRIX {
            let a = regime.generate(11, 300);
            let b = regime.generate(11, 300);
            assert_eq!(a.packets(), b.packets(), "{regime}");
            assert_eq!(a.flow_count(), 300, "{regime}");
            assert_eq!(a.regime(), regime);
            let total: u64 = a.ground_truth().iter().map(|r| u64::from(r.count())).sum();
            assert_eq!(total as usize, a.packets().len(), "{regime}");
        }
    }

    #[test]
    fn flood_sizes_are_bounded() {
        let trace = TraceRegime::UniformFlood.generate(3, 2_000);
        assert!(trace
            .ground_truth()
            .iter()
            .all(|r| (1..=FLOOD_MAX_FLOW_SIZE).contains(&r.count())));
    }

    #[test]
    fn elephant_carries_exactly_half_the_packets() {
        let trace = TraceRegime::SingleElephant.generate(5, 1_000);
        let stats = trace.stats();
        let share = stats.packet_share_of_top_flows(1.0 / 1_000.0);
        assert!(
            (share - ELEPHANT_PACKET_SHARE).abs() < 1e-9,
            "share {share}"
        );
    }

    #[test]
    fn churn_is_mostly_singletons() {
        let trace = TraceRegime::ChurnHeavy.generate(7, 4_000);
        let singletons = trace
            .ground_truth()
            .iter()
            .filter(|r| r.count() == 1)
            .count();
        let share = singletons as f64 / 4_000.0;
        assert!(
            (share - CHURN_SINGLETON_SHARE).abs() < 0.01,
            "share {share}"
        );
    }

    #[test]
    fn collision_keys_share_one_bucket_and_stay_distinct() {
        let trace = TraceRegime::CollisionAdversarial.generate(9, 500);
        let mut seen = HashSet::new();
        for rec in trace.ground_truth() {
            assert_eq!(collision_bucket_of(&rec.key()), 0);
            assert!(seen.insert(rec.key()), "duplicate key");
        }
    }

    #[test]
    fn regime_names_are_distinct() {
        let names: HashSet<&str> = REGIME_MATRIX.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), REGIME_MATRIX.len());
    }

    #[test]
    fn calibrated_regime_delegates_to_the_generator() {
        let via_regime = TraceRegime::Calibrated(TraceProfile::Isp1).generate(13, 400);
        let via_generator = TraceGenerator::new(TraceProfile::Isp1, 13).generate(400);
        assert_eq!(via_regime.packets(), via_generator.packets());
        assert_eq!(via_regime.regime(), via_generator.regime());
    }

    #[test]
    fn thresholds_prune_each_regime() {
        for regime in REGIME_MATRIX {
            let trace = regime.generate(1, 2_000);
            let hh = trace.true_heavy_hitters(regime.heavy_hitter_threshold());
            assert!(
                hh.len() < trace.flow_count() / 2,
                "{regime}: threshold keeps {} of {}",
                hh.len(),
                trace.flow_count()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn zero_flows_panics() {
        TraceRegime::UniformFlood.generate(0, 0);
    }
}
