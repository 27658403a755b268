use crate::adversarial::TraceRegime;
use crate::interleave::InterleaveMode;
use crate::profile::TraceProfile;
use crate::stats::TraceStats;
use hashflow_types::{FlowKey, FlowRecord, Packet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A generated packet trace with known per-flow ground truth.
///
/// The paper's methodology (§IV-A): "for each trial, we select a constant
/// number of flows from each trace, and feed the packets of these flows to
/// each algorithm" — a `Trace` is exactly one such selection.
///
/// # Examples
///
/// ```
/// use hashflow_trace::{TraceGenerator, TraceProfile};
///
/// let trace = TraceGenerator::new(TraceProfile::Isp1, 7).generate(500);
/// assert_eq!(trace.flow_count(), 500);
/// let total: u64 = trace.ground_truth().iter().map(|r| u64::from(r.count())).sum();
/// assert_eq!(total as usize, trace.packets().len());
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    regime: TraceRegime,
    packets: Vec<Packet>,
    truth: Vec<FlowRecord>,
}

impl Trace {
    /// Assembles a trace from an already-interleaved packet stream and
    /// its ground truth (used by the regime generators).
    pub(crate) const fn from_parts(
        regime: TraceRegime,
        packets: Vec<Packet>,
        truth: Vec<FlowRecord>,
    ) -> Self {
        Trace {
            regime,
            packets,
            truth,
        }
    }

    /// The regime this trace was generated from (calibrated profiles are
    /// wrapped as [`TraceRegime::Calibrated`]).
    pub const fn regime(&self) -> TraceRegime {
        self.regime
    }

    /// The interleaved packet stream, in arrival order.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Number of distinct flows.
    pub fn flow_count(&self) -> usize {
        self.truth.len()
    }

    /// Exact per-flow packet counts (the evaluation ground truth).
    pub fn ground_truth(&self) -> &[FlowRecord] {
        &self.truth
    }

    /// True flows with at least `threshold` packets, largest first (ground
    /// truth for heavy-hitter detection).
    pub fn true_heavy_hitters(&self, threshold: u32) -> Vec<FlowRecord> {
        let mut hh: Vec<FlowRecord> = self
            .truth
            .iter()
            .copied()
            .filter(|r| r.count() >= threshold)
            .collect();
        hh.sort_by(|a, b| b.count().cmp(&a.count()).then(a.key().cmp(&b.key())));
        hh
    }

    /// Summary statistics (regenerates a Table I row for this selection).
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_ground_truth(self.regime.name(), &self.truth)
    }
}

/// Deterministic synthetic trace generator for one [`TraceProfile`].
///
/// Flow sizes are drawn from the profile's calibrated power law, flow keys
/// are distinct five-tuples, and packets of all flows are interleaved by a
/// seeded shuffle — matching how a real capture mixes concurrent flows.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: TraceProfile,
    seed: u64,
    interleave: InterleaveMode,
}

impl TraceGenerator {
    /// Creates a generator for `profile`; the same `(profile, seed)` pair
    /// always yields identical traces.
    pub const fn new(profile: TraceProfile, seed: u64) -> Self {
        TraceGenerator {
            profile,
            seed,
            interleave: InterleaveMode::Shuffled,
        }
    }

    /// Selects an arrival-order [`InterleaveMode`] (default: shuffled).
    pub const fn with_interleave(mut self, mode: InterleaveMode) -> Self {
        self.interleave = mode;
        self
    }

    /// Generates a trace with exactly `flows` distinct flows.
    ///
    /// # Panics
    ///
    /// Panics if `flows == 0`.
    pub fn generate(&self, flows: usize) -> Trace {
        assert!(flows > 0, "a trace needs at least one flow");
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (self.profile as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let sampler = self.profile.sampler();

        // Disjoint key spaces per (profile, seed) so cross-trace tests never
        // alias flows.
        let key_base = rng.gen::<u64>() & 0x7fff_ffff_ffff_0000;

        // §IV-A selects a constant number of flows from a fixed capture, so
        // the realized size distribution of a selection tracks the capture's
        // (Table I) distribution far more tightly than iid sampling of a
        // heavy-tailed law ever would. Model that with stratified quantile
        // sampling — one size per probability stratum, assigned to flows in
        // seeded random order — which pins the realized average near the
        // Table I target at any trace size.
        let mut sizes: Vec<u32> = (0..flows)
            .map(|i| sampler.quantile((i as f64 + 0.5) / flows as f64) as u32)
            .collect();
        sizes.shuffle(&mut rng);
        let truth: Vec<FlowRecord> = sizes
            .into_iter()
            .enumerate()
            .map(|(i, size)| FlowRecord::new(FlowKey::from_index(key_base + i as u64), size))
            .collect();

        let packets = layout(&truth, &mut rng);
        let packets = self.interleave.interleave(packets, &truth, self.seed);

        Trace {
            regime: TraceRegime::Calibrated(self.profile),
            packets,
            truth,
        }
    }
}

/// Writes every flow's packets, with sampled wire lengths, into one
/// vector: flow after flow in `truth` order, ready for the interleaver.
pub(crate) fn layout(truth: &[FlowRecord], rng: &mut StdRng) -> Vec<Packet> {
    let total = truth.iter().map(|rec| rec.count() as usize).sum();
    let mut packets = Vec::with_capacity(total);
    for rec in truth {
        for _ in 0..rec.count() {
            // Bimodal wire length: mostly small packets, some MTU-sized.
            let len = if rng.gen_bool(0.6) {
                rng.gen_range(60..=200)
            } else {
                rng.gen_range(1000..=1500)
            };
            packets.push(Packet::new(rec.key(), 0, len));
        }
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_per_seed() {
        let a = TraceGenerator::new(TraceProfile::Caida, 1).generate(200);
        let b = TraceGenerator::new(TraceProfile::Caida, 1).generate(200);
        assert_eq!(a.packets(), b.packets());
        let c = TraceGenerator::new(TraceProfile::Caida, 2).generate(200);
        assert_ne!(a.packets(), c.packets());
    }

    #[test]
    fn ground_truth_matches_stream() {
        let trace = TraceGenerator::new(TraceProfile::Campus, 3).generate(300);
        let mut counted: HashMap<FlowKey, u32> = HashMap::new();
        for p in trace.packets() {
            *counted.entry(p.key()).or_insert(0) += 1;
        }
        assert_eq!(counted.len(), trace.flow_count());
        for rec in trace.ground_truth() {
            assert_eq!(counted[&rec.key()], rec.count(), "flow {:?}", rec.key());
        }
    }

    #[test]
    fn all_flows_have_at_least_one_packet() {
        let trace = TraceGenerator::new(TraceProfile::Isp2, 4).generate(1000);
        assert!(trace.ground_truth().iter().all(|r| r.count() >= 1));
    }

    #[test]
    fn timestamps_are_monotone() {
        let trace = TraceGenerator::new(TraceProfile::Isp1, 5).generate(100);
        let ts: Vec<u64> = trace.packets().iter().map(|p| p.timestamp_ns()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn heavy_hitters_sorted_and_thresholded() {
        let trace = TraceGenerator::new(TraceProfile::Campus, 6).generate(2000);
        let hh = trace.true_heavy_hitters(50);
        assert!(hh.iter().all(|r| r.count() >= 50));
        assert!(hh.windows(2).all(|w| w[0].count() >= w[1].count()));
        assert!(hh.len() < trace.flow_count() / 4, "threshold should prune");
    }

    #[test]
    fn avg_size_tracks_profile_target() {
        // 40K flows gives the empirical mean room to converge.
        let trace = TraceGenerator::new(TraceProfile::Caida, 7).generate(40_000);
        let stats = trace.stats();
        assert!(
            (stats.avg_flow_size - 3.2).abs() / 3.2 < 0.2,
            "avg {} vs 3.2",
            stats.avg_flow_size
        );
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn zero_flows_panics() {
        TraceGenerator::new(TraceProfile::Caida, 0).generate(0);
    }
}
