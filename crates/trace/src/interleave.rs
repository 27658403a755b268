//! Arrival-order interleaving strategies.
//!
//! The paper feeds "the packets of these flows" to each algorithm without
//! pinning an arrival order; a real capture interleaves concurrent flows
//! almost uniformly, but eviction-based designs (HashPipe, ElasticSketch)
//! are sensitive to order — a flow whose packets arrive back-to-back is
//! much harder to evict than one whose packets spread out. These modes let
//! experiments quantify that sensitivity; [`crate::TraceGenerator`] uses
//! [`InterleaveMode::Shuffled`] by default.

use hashflow_types::{FlowRecord, Packet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How the packets of different flows are mixed into one arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InterleaveMode {
    /// Uniform random shuffle of all packets (default; matches the mixing
    /// of a high-speed aggregated link).
    #[default]
    Shuffled,
    /// All packets of flow 1, then all of flow 2, ... — the adversarial
    /// best case for eviction-based designs.
    Sequential,
    /// Round-robin over flows that still have packets left — maximal
    /// inter-packet gap within each flow, the adversarial worst case for
    /// eviction-based designs.
    RoundRobin,
    /// Flows arrive in bursts: a random flow emits a geometric burst, then
    /// another flow is picked. Closest to edge-link traffic.
    Bursty,
}

impl InterleaveMode {
    /// Orders `packets` into a single stream, re-stamping timestamps to
    /// keep them monotone (1 µs spacing).
    ///
    /// `packets` holds every flow's packets back to back, in `truth`
    /// order, each flow `truth[i].count()` packets long (the layout
    /// `generator::layout` writes).
    pub(crate) fn interleave(
        self,
        mut packets: Vec<Packet>,
        truth: &[FlowRecord],
        seed: u64,
    ) -> Vec<Packet> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1317_e11e);
        match self {
            InterleaveMode::Sequential => {}
            InterleaveMode::Shuffled => packets.shuffle(&mut rng),
            InterleaveMode::RoundRobin => {
                let mut out = Vec::with_capacity(packets.len());
                let mut flows = flow_ranges(truth);
                while !flows.is_empty() {
                    flows.retain_mut(|(start, end)| {
                        if start < end {
                            out.push(packets[*start]);
                            *start += 1;
                            true
                        } else {
                            false
                        }
                    });
                }
                packets = out;
            }
            InterleaveMode::Bursty => {
                let mut out = Vec::with_capacity(packets.len());
                let mut flows = flow_ranges(truth);
                while !flows.is_empty() {
                    let i = rng.gen_range(0..flows.len());
                    // Geometric burst, mean 4 packets.
                    loop {
                        let (start, end) = &mut flows[i];
                        if start == end {
                            flows.swap_remove(i);
                            break;
                        }
                        out.push(packets[*start]);
                        *start += 1;
                        if rng.gen_bool(0.25) {
                            break;
                        }
                    }
                }
                packets = out;
            }
        }
        for (i, p) in packets.iter_mut().enumerate() {
            *p = p.with_timestamp(i as u64 * 1_000);
        }
        packets
    }
}

/// Each flow's `(start, end)` range in the flat layout.
fn flow_ranges(truth: &[FlowRecord]) -> Vec<(usize, usize)> {
    let mut start = 0;
    truth
        .iter()
        .map(|rec| {
            let range = (start, start + rec.count() as usize);
            start = range.1;
            range
        })
        .collect()
}

impl std::fmt::Display for InterleaveMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            InterleaveMode::Shuffled => "shuffled",
            InterleaveMode::Sequential => "sequential",
            InterleaveMode::RoundRobin => "round-robin",
            InterleaveMode::Bursty => "bursty",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashflow_types::FlowKey;

    /// Five flows of four packets each, laid out flow after flow.
    fn truth() -> Vec<FlowRecord> {
        (0..5u64)
            .map(|f| FlowRecord::new(FlowKey::from_index(f), 4))
            .collect()
    }

    fn interleave(mode: InterleaveMode, seed: u64) -> Vec<Packet> {
        let truth = truth();
        let packets = truth
            .iter()
            .flat_map(|rec| (0..rec.count()).map(|_| Packet::new(rec.key(), 0, 64)))
            .collect();
        mode.interleave(packets, &truth, seed)
    }

    fn key_sequence(packets: &[Packet]) -> Vec<u16> {
        packets.iter().map(|p| p.key().src_port()).collect()
    }

    #[test]
    fn all_modes_preserve_multiset() {
        for mode in [
            InterleaveMode::Shuffled,
            InterleaveMode::Sequential,
            InterleaveMode::RoundRobin,
            InterleaveMode::Bursty,
        ] {
            let out = interleave(mode, 1);
            assert_eq!(out.len(), 20, "{mode}");
            let mut counts = std::collections::HashMap::new();
            for p in &out {
                *counts.entry(p.key()).or_insert(0) += 1;
            }
            assert!(counts.values().all(|&c| c == 4), "{mode}");
        }
    }

    #[test]
    fn sequential_keeps_flows_contiguous() {
        let out = interleave(InterleaveMode::Sequential, 1);
        let seq = key_sequence(&out);
        let mut seen = std::collections::HashSet::new();
        let mut last = None;
        for k in seq {
            if last != Some(k) {
                assert!(seen.insert(k), "flow {k} appeared twice non-contiguously");
                last = Some(k);
            }
        }
    }

    #[test]
    fn round_robin_cycles_flows() {
        let out = interleave(InterleaveMode::RoundRobin, 1);
        let seq = key_sequence(&out);
        // First 5 packets are one from each flow.
        let first: std::collections::HashSet<u16> = seq[..5].iter().copied().collect();
        assert_eq!(first.len(), 5);
    }

    #[test]
    fn timestamps_are_monotone_everywhere() {
        for mode in [InterleaveMode::Shuffled, InterleaveMode::Bursty] {
            let out = interleave(mode, 2);
            assert!(out
                .windows(2)
                .all(|w| w[0].timestamp_ns() < w[1].timestamp_ns()));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = interleave(InterleaveMode::Bursty, 3);
        let b = interleave(InterleaveMode::Bursty, 3);
        assert_eq!(a, b);
        let c = interleave(InterleaveMode::Bursty, 4);
        assert_ne!(key_sequence(&a), key_sequence(&c));
    }

    #[test]
    fn empty_input_is_fine() {
        for mode in [
            InterleaveMode::Shuffled,
            InterleaveMode::Sequential,
            InterleaveMode::RoundRobin,
            InterleaveMode::Bursty,
        ] {
            assert!(mode.interleave(Vec::new(), &[], 0).is_empty());
        }
    }
}
