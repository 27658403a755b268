//! Pass 1 of HashFlow's ingestion, on the monitor's thread or ahead of it.
//!
//! Everything Algorithm 1 computes before it touches a table depends on
//! the packets alone: the `d + 1` probe words of each packet and, with a
//! tracer attached, whether its flow is sampled. [`Probes`] holds them for
//! one batch. [`HashFlow`](crate::HashFlow) fills its own in place; a
//! [`HashFlowPlanner`] fills them on whatever thread offers the batch,
//! stamped with whose hash functions and sampling rate they came from, so
//! that the monitor can check a plan before it uses one.

use hashflow_hashing::{HashLanes, KernelCopy, XxHash64};
use hashflow_monitor::{BatchPlan, BatchPlanner, FlowTracer};
use hashflow_types::Packet;

/// One probe lane: a hash function and the `(offset, len)` range of table
/// slots its probe lands in.
pub(crate) type Lane = (XxHash64, (u32, u32));

/// Pass 1's output for one batch.
#[derive(Debug, Clone, Default)]
pub(crate) struct Probes {
    /// Every packet's probe words, lane-major: the main-table slots of
    /// `h_1 .. h_d`, then the ancillary slot of `g_1`; the digest comes out
    /// of `h_1`'s word.
    pub(crate) words: HashLanes,
    /// Whether each packet's flow is sampled, when a tracer asked; empty
    /// otherwise.
    pub(crate) sampled: Vec<bool>,
}

impl Probes {
    /// Pass 1 over `packets`: the probe words of every lane, each one
    /// loop over the whole batch, with no table access, then the sampling
    /// verdicts of `tracer`, if any. Always inlined, so that a caller
    /// whose batch length is a constant is compiled for it.
    #[inline(always)]
    pub(crate) fn fill<'a>(
        &mut self,
        packets: &[Packet],
        lanes: impl Iterator<Item = (&'a XxHash64, (u32, u32))> + Clone,
        tracer: Option<&FlowTracer>,
    ) {
        let keys = packets.iter().map(|p| p.key());
        self.words.fill_probes(KernelCopy::best(), keys, lanes);
        self.sampled.clear();
        if let Some(tracer) = tracer {
            (self.sampled).extend(packets.iter().map(|p| tracer.is_sampled(&p.key())));
        }
    }
}

/// A HashFlow plan: [`Probes`] made by a [`HashFlowPlanner`], and whose
/// they are.
#[derive(Debug, Default)]
pub(crate) struct PlannedProbes {
    /// The lanes the words were computed under: seeds and geometry.
    pub(crate) lanes: Vec<Lane>,
    /// The sampling rate of `probes.sampled`, `None` when no tracer asked.
    pub(crate) sample_one_in: Option<u64>,
    pub(crate) probes: Probes,
}

/// HashFlow's [`BatchPlanner`]: its pass 1, with copies of its hash
/// functions and its tracer as they were when the planner was taken.
pub(crate) struct HashFlowPlanner {
    pub(crate) lanes: Vec<Lane>,
    pub(crate) tracer: Option<FlowTracer>,
}

impl BatchPlanner for HashFlowPlanner {
    fn plan(&self, packets: &[Packet], plan: &mut BatchPlan) {
        let plan = plan.refill::<PlannedProbes>();
        plan.lanes.clone_from(&self.lanes);
        plan.sample_one_in = self.tracer.as_ref().map(FlowTracer::sample_one_in);
        let lanes = self.lanes.iter().map(|(hash, range)| (hash, *range));
        plan.probes.fill(packets, lanes, self.tracer.as_ref());
    }
}
