//! Pass 1 of HashFlow's ingestion, on the monitor's thread or ahead of it.
//!
//! Everything Algorithm 1 computes before it touches a table depends on
//! the packets alone: the `d + 1` probe words of each packet and, with a
//! tracer attached, which packets' flows are sampled. [`Probes`] holds
//! them for one batch. [`HashFlow`](crate::HashFlow) fills its own in
//! place; a [`HashFlowPlanner`] fills them on whatever thread offers the
//! batch, stamped with whose hash functions, slot ranges and sampling
//! rate they came from, so that the monitor can check a plan before it
//! uses one. The probes are not independent hashes: each packet's key is
//! hashed by a pair of functions, and the `d + 1` probes are derived
//! from the pair by double hashing ([`hashflow_hashing::pair_hash`]).

use hashflow_hashing::{HashLanes, KernelCopy, XxHash64};
use hashflow_monitor::{BatchPlan, BatchPlanner, FlowTracer};
use hashflow_types::Packet;

/// Pass 1's output for one batch.
#[derive(Debug, Clone, Default)]
pub(crate) struct Probes {
    /// Every packet's probe words, lane-major: the main-table slots of
    /// `h_1 .. h_d`, then the ancillary slot of `g_1`, all derived from
    /// one hash pair; the digest comes out of `h_1`'s word.
    pub(crate) words: HashLanes,
    /// The positions in the batch, ascending, of the packets whose flows
    /// are sampled, when a tracer asked; empty otherwise.
    pub(crate) sampled: Vec<u32>,
}

impl Probes {
    /// Pass 1 over `packets`: every key hashed by the two functions of
    /// `pair`, and one probe word per range of `ranges` derived from the
    /// two, each one loop over the whole batch, with no table access; then
    /// the positions of the packets `tracer`, if any, samples. Always
    /// inlined, so that a caller whose batch length is a constant is
    /// compiled for it.
    ///
    /// # Panics
    ///
    /// Panics if a sampled packet sits past position `u32::MAX`.
    #[inline(always)]
    pub(crate) fn fill(
        &mut self,
        packets: &[Packet],
        pair: [&XxHash64; 2],
        ranges: impl Iterator<Item = (u32, u32)> + Clone,
        tracer: Option<&FlowTracer>,
    ) {
        let keys = packets.iter().map(|p| p.key());
        self.words
            .fill_probes(KernelCopy::best(), keys, pair, ranges);
        self.sampled.clear();
        if let Some(tracer) = tracer {
            let positions = (packets.iter().enumerate())
                .filter(|(_, p)| tracer.is_sampled(&p.key()))
                .map(|(i, _)| u32::try_from(i).expect("batch positions fit 32 bits"));
            self.sampled.extend(positions);
        }
    }
}

/// A HashFlow plan: [`Probes`] made by a [`HashFlowPlanner`], and whose
/// they are.
#[derive(Debug, Default)]
pub(crate) struct PlannedProbes {
    /// The hash pair the words were derived from, once filled.
    pub(crate) pair: Option<[XxHash64; 2]>,
    /// The slot range of each word: the geometry.
    pub(crate) ranges: Vec<(u32, u32)>,
    /// The sampling rate of `probes.sampled`, `None` when no tracer asked.
    pub(crate) sample_one_in: Option<u64>,
    pub(crate) probes: Probes,
}

/// HashFlow's [`BatchPlanner`]: its pass 1, with copies of its hash
/// pair, its slot ranges and its tracer as they were when the planner was
/// taken.
pub(crate) struct HashFlowPlanner {
    pub(crate) pair: [XxHash64; 2],
    pub(crate) ranges: Vec<(u32, u32)>,
    pub(crate) tracer: Option<FlowTracer>,
}

impl BatchPlanner for HashFlowPlanner {
    fn plan(&self, packets: &[Packet], plan: &mut BatchPlan) {
        let plan = plan.refill::<PlannedProbes>();
        plan.pair = Some(self.pair);
        plan.ranges.clone_from(&self.ranges);
        plan.sample_one_in = self.tracer.as_ref().map(FlowTracer::sample_one_in);
        let [a, b] = &self.pair;
        let ranges = self.ranges.iter().copied();
        plan.probes
            .fill(packets, [a, b], ranges, self.tracer.as_ref());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::TableScheme;
    use crate::{HashFlow, HashFlowConfig};
    use hashflow_monitor::{FlowMonitor, Instruments};
    use hashflow_types::FlowKey;

    /// A 256-packet plan at depth 3, with a 1-in-4 tracer attached, holds
    /// the probe words of its four lanes and the positions of the packets
    /// sampled, ascending; its other fields — the hash pair, four slot
    /// ranges, the sampling rate — are per plan, not per packet.
    /// The pattern names every field, so a field added to a plan fails to
    /// compile here.
    #[test]
    fn a_plan_holds_probe_words_and_verdicts_only() {
        let config = HashFlowConfig::builder()
            .main_cells(4096)
            .scheme(TableScheme::MultiHash { depth: 3 })
            .build()
            .expect("valid config");
        let mut hf = HashFlow::new(config).expect("valid geometry");
        hf.instrument(&Instruments {
            tracer: Some(FlowTracer::new(Default::default(), 4)),
            ..Instruments::default()
        });
        let packets: Vec<Packet> = (0..256)
            .map(|i| Packet::new(FlowKey::from_index(i), 0, 64))
            .collect();
        let mut plan = BatchPlan::default();
        hf.planner()
            .expect("HashFlow plans")
            .plan(&packets, &mut plan);
        let PlannedProbes {
            pair,
            ranges,
            sample_one_in,
            probes: Probes { words, sampled },
        } = plan.get::<PlannedProbes>().expect("a HashFlow plan");
        assert!(pair.is_some());
        assert_eq!((ranges.len(), *sample_one_in), (4, Some(4)));
        assert_eq!((words.lanes(), words.rows()), (4, 256));
        assert!((0..4).all(|m| words.lane(m).len() == 256));
        let tracer = FlowTracer::new(Default::default(), 4);
        let expect: Vec<u32> = (0..256)
            .filter(|&i| tracer.is_sampled(&packets[i as usize].key()))
            .collect();
        assert!(!expect.is_empty() && expect.len() < 256);
        assert_eq!(*sampled, expect);
    }
}
