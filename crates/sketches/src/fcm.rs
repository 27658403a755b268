//! FCM: the two-layer escalating-counter sketch (SIGCOMM'21).

use hashflow_hashing::{fast_range, HashFamily, XxHash64};
use hashflow_monitor::{
    CostRecorder, CostSnapshot, FlowMonitor, IntrospectMetric, MemoryBudget, MergeableMonitor,
};
use hashflow_primitives::{linear_counting_estimate, CounterArray};
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet};

/// Independent trees (hash functions); the query takes the cross-tree
/// minimum, Count-Min style.
pub const FCM_TREES: usize = 2;

/// First-layer counter width: narrow 8-bit counters absorb the mice.
pub const FCM_L1_BITS: u32 = 8;

/// Second-layer counter width: wide counters absorb the escalated
/// elephants.
pub const FCM_L2_BITS: u32 = 32;

/// First-layer cells sharing one second-layer cell.
pub const FCM_FANIN: usize = 8;

/// First-layer saturation point; increments beyond it escalate.
const L1_MAX: u64 = (1 << FCM_L1_BITS) - 1;

/// One FCM tree: a narrow first layer and a wide second layer shared
/// `FCM_FANIN`-to-1. The invariant that makes batching and merging
/// exact: `l2[p] = sum over p's cells c of max(0, n_c - L1_MAX)` where
/// `n_c` is the total increments that hit `c` — a pure function of the
/// per-cell totals, independent of arrival order.
#[derive(Debug, Clone)]
struct FcmTree {
    l1: CounterArray,
    l2: CounterArray,
}

impl FcmTree {
    fn new(l1_cells: usize) -> Result<Self, ConfigError> {
        Ok(FcmTree {
            l1: CounterArray::new(l1_cells, FCM_L1_BITS)?,
            l2: CounterArray::new(l1_cells / FCM_FANIN, FCM_L2_BITS)?,
        })
    }

    /// Returns `true` when the increment escalated into the second layer.
    fn increment(&mut self, idx: usize) -> bool {
        if self.l1.get(idx) < L1_MAX {
            self.l1.increment(idx);
            false
        } else {
            self.l2.add(idx / FCM_FANIN, 1);
            true
        }
    }

    fn query(&self, idx: usize) -> u64 {
        let v1 = self.l1.get(idx);
        if v1 < L1_MAX {
            v1
        } else {
            // Saturated: the shared second-layer cell holds the escalated
            // excess of *all* its first-layer cells, so this overestimates
            // — never underestimates — like every Count-Min read.
            L1_MAX + self.l2.get(idx / FCM_FANIN)
        }
    }

    /// Order-exact merge (see the invariant above): the merged first
    /// layer is the saturating sum, and the second layer needs a
    /// per-cell correction of `max(0, l1a + l1b - L1_MAX)` — the excess
    /// that *would* have escalated had one tree seen both streams but is
    /// still sitting unsaturated in the two first layers.
    fn merge_from(&mut self, other: &FcmTree) {
        for idx in 0..self.l1.len() {
            let correction = (self.l1.get(idx) + other.l1.get(idx)).saturating_sub(L1_MAX);
            if correction > 0 {
                self.l2.add(idx / FCM_FANIN, correction);
            }
        }
        self.l1.merge_add(&other.l1);
        self.l2.merge_add(&other.l2);
    }

    fn logical_bits(&self) -> usize {
        self.l1.logical_bits() + self.l2.logical_bits()
    }

    fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
    }
}

/// The FCM sketch (SIGCOMM'21) as a [`FlowMonitor`]: per tree, a narrow
/// first-layer counter takes every increment until it saturates, after
/// which increments escalate into a wide second-layer counter shared by
/// `FCM_FANIN` first-layer cells. Mice stay cheap (one 8-bit
/// read-modify-write), elephants keep counting in 32 bits, and the
/// cross-tree minimum preserves Count-Min's no-underestimate guarantee.
///
/// Estimate-only, like [`CountMinMonitor`](crate::CountMinMonitor): no
/// flow keys are retained, so the record report is empty by design.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::{FlowMonitor, MemoryBudget};
/// use hashflow_sketches::FcmMonitor;
/// use hashflow_types::{FlowKey, Packet};
///
/// let mut fcm = FcmMonitor::with_memory(MemoryBudget::from_kib(32)?)?;
/// for t in 0..300 {
///     fcm.process_packet(&Packet::new(FlowKey::from_index(3), t, 64));
/// }
/// // Past the 8-bit layer's 255 cap, yet the estimate keeps tracking:
/// assert!(fcm.estimate_size(&FlowKey::from_index(3)) >= 300);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FcmMonitor {
    trees: Vec<FcmTree>,
    l1_cells: usize,
    seed: u64,
    hashes: HashFamily<XxHash64>,
    // Increments that escalated into a second layer (all trees), exposed
    // through introspection as a saturation-pressure signal.
    escalations: u64,
    cost: CostRecorder,
}

impl FcmMonitor {
    /// Creates a monitor of `FCM_TREES` trees with `l1_cells`
    /// first-layer cells each (rounded down to a multiple of
    /// `FCM_FANIN`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if fewer than `FCM_FANIN` first-layer
    /// cells are requested.
    pub fn new(l1_cells: usize, seed: u64) -> Result<Self, ConfigError> {
        let l1_cells = l1_cells - l1_cells % FCM_FANIN;
        if l1_cells == 0 {
            return Err(ConfigError::new(
                "FCM needs at least one second-layer counter per tree",
            ));
        }
        Ok(FcmMonitor {
            trees: (0..FCM_TREES)
                .map(|_| FcmTree::new(l1_cells))
                .collect::<Result<Vec<_>, _>>()?,
            l1_cells,
            seed,
            hashes: HashFamily::new(FCM_TREES, seed ^ 0x00fc_a7e5),
            escalations: 0,
            cost: CostRecorder::new(),
        })
    }

    /// Sizes the trees for a memory budget. Each first-layer cell costs
    /// `FCM_L1_BITS + FCM_L2_BITS / FCM_FANIN` bits (its own counter plus
    /// its share of the second layer), per tree.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no tree.
    pub fn with_memory(budget: MemoryBudget) -> Result<Self, ConfigError> {
        Self::with_memory_seeded(budget, 0x000f_c500)
    }

    /// [`Self::with_memory`] with an explicit hash seed, for experiments
    /// that re-derive every monitor per trial.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no tree.
    pub fn with_memory_seeded(budget: MemoryBudget, seed: u64) -> Result<Self, ConfigError> {
        let bits_per_cell = FCM_L1_BITS as usize + FCM_L2_BITS as usize / FCM_FANIN;
        let l1_cells = budget.bits() / (FCM_TREES * bits_per_cell);
        if l1_cells < FCM_FANIN {
            return Err(ConfigError::new("memory budget too small for an FCM tree"));
        }
        Self::new(l1_cells, seed)
    }

    /// First-layer cells per tree.
    pub const fn l1_cells(&self) -> usize {
        self.l1_cells
    }

    /// The configured master hash seed.
    pub const fn seed(&self) -> u64 {
        self.seed
    }
}

impl FlowMonitor for FcmMonitor {
    fn process_packet(&mut self, packet: &Packet) {
        self.cost.start_packet();
        let key = packet.key();
        for (t, tree) in self.trees.iter_mut().enumerate() {
            let idx = fast_range(self.hashes.hash(t, &key), self.l1_cells);
            // One hash and one first-layer read-modify-write per tree;
            // an escalated increment touches the second layer too.
            self.cost.record_hashes(1);
            self.cost.record_reads(1);
            self.cost.record_writes(1);
            if tree.increment(idx) {
                self.escalations += 1;
                self.cost.record_reads(1);
                self.cost.record_writes(1);
            }
        }
    }

    /// Estimate-only: the sketch cannot enumerate keys.
    fn flow_records(&self) -> Vec<FlowRecord> {
        Vec::new()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.trees
            .iter()
            .enumerate()
            .map(|(t, tree)| tree.query(fast_range(self.hashes.hash(t, key), self.l1_cells)))
            .min()
            .expect("monitor has at least one tree")
            .min(u64::from(u32::MAX)) as u32
    }

    fn estimate_cardinality(&self) -> f64 {
        // Linear counting over tree 0's first layer: a zero cell means no
        // flow hashed there. Clamp the zero count at one so the estimate
        // stays finite when the layer fills.
        let zeros = self.trees[0].l1.count_zeros();
        if zeros == self.l1_cells {
            return 0.0;
        }
        linear_counting_estimate(self.l1_cells, zeros.max(1))
    }

    fn memory_bits(&self) -> usize {
        self.trees.iter().map(FcmTree::logical_bits).sum()
    }

    fn name(&self) -> &'static str {
        "FCM"
    }

    fn cost(&self) -> CostSnapshot {
        self.cost.snapshot()
    }

    fn reset(&mut self) {
        for tree in &mut self.trees {
            tree.reset();
        }
        self.escalations = 0;
        self.cost.reset();
    }

    /// First-layer pressure on tree 0 (occupancy and saturation) plus the
    /// total escalations absorbed by the wide second layers — the signals
    /// that predict when the cheap 8-bit layer stops doing the work.
    fn introspection(&self) -> Vec<IntrospectMetric> {
        let l1 = &self.trees[0].l1;
        let cells = self.l1_cells.max(1);
        let occupied = self.l1_cells - l1.count_zeros();
        let saturated = (0..self.l1_cells)
            .filter(|&idx| l1.get(idx) >= L1_MAX)
            .count();
        vec![
            IntrospectMetric::ratio("fcm_l1_occupancy", occupied as f64 / cells as f64),
            IntrospectMetric::ratio("fcm_l1_saturation", saturated as f64 / cells as f64),
            IntrospectMetric::count("fcm_escalations", self.escalations),
        ]
    }
}

impl MergeableMonitor for FcmMonitor {
    /// Order-exact tree-wise merge: the merged monitor answers every
    /// point query exactly as if one monitor had ingested both streams
    /// (see `FcmTree::merge_from` for the escalation correction).
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            (self.l1_cells, self.seed),
            (other.l1_cells, other.seed),
            "cannot merge FCM monitors of different configuration"
        );
        for (tree, other_tree) in self.trees.iter_mut().zip(&other.trees) {
            tree.merge_from(other_tree);
        }
        self.escalations += other.escalations;
        self.cost.absorb(&other.cost.snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flow: u64, ts: u64) -> Packet {
        Packet::new(FlowKey::from_index(flow), ts, 64)
    }

    #[test]
    fn never_underestimates_across_the_escalation_boundary() {
        let mut fcm = FcmMonitor::new(1 << 12, 7).unwrap();
        let sizes = [1u32, 100, 254, 255, 256, 300, 5_000];
        for (flow, &size) in sizes.iter().enumerate() {
            for t in 0..size {
                fcm.process_packet(&pkt(flow as u64, u64::from(t)));
            }
        }
        for (flow, &size) in sizes.iter().enumerate() {
            let est = fcm.estimate_size(&FlowKey::from_index(flow as u64));
            assert!(est >= size, "flow {flow}: estimate {est} < true {size}");
        }
        assert!(fcm.flow_records().is_empty());
    }

    #[test]
    fn sparse_elephant_is_tracked_exactly_up_to_shared_excess() {
        // One elephant alone in its second-layer group: the estimate is
        // exact past saturation.
        let mut fcm = FcmMonitor::new(1 << 14, 1).unwrap();
        for t in 0..10_000u64 {
            fcm.process_packet(&pkt(42, t));
        }
        assert_eq!(fcm.estimate_size(&FlowKey::from_index(42)), 10_000);
    }

    #[test]
    fn budget_sizing_fills_both_layers() {
        let budget = MemoryBudget::from_kib(256).unwrap();
        let fcm = FcmMonitor::with_memory(budget).unwrap();
        assert!(fcm.memory_bits() <= budget.bits());
        assert!(fcm.memory_bits() > budget.bits() * 9 / 10);
        assert!(FcmMonitor::with_memory_seeded(MemoryBudget::from_bytes(2).unwrap(), 0).is_err());
    }

    #[test]
    fn cardinality_tracks_distinct_flows() {
        let mut fcm = FcmMonitor::new(1 << 15, 3).unwrap();
        for flow in 0..5_000u64 {
            for t in 0..2 {
                fcm.process_packet(&pkt(flow, t));
            }
        }
        let est = fcm.estimate_cardinality();
        assert!((est - 5_000.0).abs() / 5_000.0 < 0.1, "estimate {est}");
    }

    #[test]
    fn merge_equals_single_monitor_over_union() {
        // Flow sizes straddle the escalation boundary on both sides of
        // the split, so the merge correction path is exercised.
        let make = || FcmMonitor::new(64, 9).unwrap();
        let (mut single, mut a, mut b) = (make(), make(), make());
        for flow in 0..40u64 {
            let size = 200 + flow * 7; // some cells saturate on one side only
            for t in 0..size {
                let p = pkt(flow, t);
                single.process_packet(&p);
                if t % 2 == 0 {
                    a.process_packet(&p);
                } else {
                    b.process_packet(&p);
                }
            }
        }
        a.merge_from(&b);
        for flow in 0..40u64 {
            let k = FlowKey::from_index(flow);
            assert_eq!(a.estimate_size(&k), single.estimate_size(&k), "flow {flow}");
        }
        assert_eq!(a.estimate_cardinality(), single.estimate_cardinality());
    }

    #[test]
    #[should_panic(expected = "different configuration")]
    fn merge_of_mismatched_config_panics() {
        let mut a = FcmMonitor::new(64, 0).unwrap();
        a.merge_from(&FcmMonitor::new(128, 0).unwrap());
    }

    #[test]
    fn escalated_packets_cost_an_extra_access() {
        let mut fcm = FcmMonitor::new(64, 2).unwrap();
        for t in 0..255u64 {
            fcm.process_packet(&pkt(1, t));
        }
        let before = fcm.cost();
        assert_eq!(before.reads, 255 * FCM_TREES as u64);
        fcm.process_packet(&pkt(1, 255));
        let after = fcm.cost();
        // Both trees' first-layer cells are saturated: 2 extra reads.
        assert_eq!(after.reads - before.reads, 2 * FCM_TREES as u64);
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut fcm = FcmMonitor::new(64, 0).unwrap();
        for t in 0..500u64 {
            fcm.process_packet(&pkt(1, t));
        }
        fcm.reset();
        assert_eq!(fcm.estimate_size(&FlowKey::from_index(1)), 0);
        assert_eq!(fcm.estimate_cardinality(), 0.0);
        assert_eq!(fcm.cost().packets, 0);
    }
}
