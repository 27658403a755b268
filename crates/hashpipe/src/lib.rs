//! HashPipe (Sivaraman et al., SOSR 2017) — baseline heavy-hitter
//! detection entirely in the data plane.
//!
//! HashPipe keeps `d` independent hash tables in a pipeline (4 equal-size
//! sub-tables in the paper's evaluation, §IV-A). The first stage *always
//! inserts*: an arriving packet whose bucket holds another flow evicts that
//! record and carries it down the pipeline. At later stages the carried
//! record and the incumbent compete — the one with the smaller packet count
//! is kicked out and carried on; whatever is still carried after the last
//! stage is discarded.
//!
//! The HashFlow paper points out the structural consequence (§II): because
//! an evicted flow's later packets re-enter at stage one, a single flow is
//! frequently **split across multiple records** with partial counts, which
//! wastes memory and degrades accuracy. This implementation reproduces that
//! behaviour faithfully — queries sum all fragments of a flow, and the
//! flow-record report deduplicates fragments (keeping per-key totals), so
//! the metrics measure exactly what the paper measured.
//!
//! # Examples
//!
//! ```
//! use hashpipe::HashPipe;
//! use hashflow_monitor::{FlowMonitor, MemoryBudget};
//! use hashflow_types::{FlowKey, Packet};
//!
//! let mut hp = HashPipe::with_memory(MemoryBudget::from_kib(64)?)?;
//! hp.process_packet(&Packet::new(FlowKey::from_index(1), 0, 64));
//! assert_eq!(hp.estimate_size(&FlowKey::from_index(1)), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hashflow_hashing::{fast_range, HashFamily, XxHash64};
use hashflow_monitor::{CostRecorder, CostSnapshot, FlowMonitor, IntrospectMetric, MemoryBudget};
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet, RECORD_BITS};
use std::collections::HashMap;

/// Number of pipeline stages used in the paper's evaluation (§IV-A: "we use
/// 4 sub-tables of equal size").
pub const DEFAULT_STAGES: usize = 4;

/// The HashPipe algorithm. See the crate docs for the update rule.
#[derive(Debug, Clone)]
pub struct HashPipe {
    // stage tables, each sized `cells_per_stage`; count == 0 means empty.
    stages: Vec<Vec<FlowRecord>>,
    cells_per_stage: usize,
    hashes: HashFamily<XxHash64>,
    cost: CostRecorder,
}

impl HashPipe {
    /// Creates a HashPipe with `stages` sub-tables of `cells_per_stage`
    /// buckets each.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if either dimension is zero.
    pub fn new(stages: usize, cells_per_stage: usize, seed: u64) -> Result<Self, ConfigError> {
        if stages == 0 {
            return Err(ConfigError::new("hashpipe needs at least one stage"));
        }
        if cells_per_stage == 0 {
            return Err(ConfigError::new("hashpipe stages need at least one cell"));
        }
        Ok(HashPipe {
            stages: vec![vec![FlowRecord::new(FlowKey::default(), 0); cells_per_stage]; stages],
            cells_per_stage,
            hashes: HashFamily::new(stages, seed ^ 0x4a51_99e1),
            cost: CostRecorder::new(),
        })
    }

    /// Creates the paper's configuration (4 equal sub-tables of full
    /// 136-bit records) from a memory budget.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds fewer cells than stages.
    pub fn with_memory(budget: MemoryBudget) -> Result<Self, ConfigError> {
        Self::with_memory_seeded(budget, 0x4a51_99e1)
    }

    /// Like [`Self::with_memory`] with an explicit seed (experiments vary
    /// seeds across trials).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds fewer cells than stages.
    pub fn with_memory_seeded(budget: MemoryBudget, seed: u64) -> Result<Self, ConfigError> {
        let total_cells = budget.cells(RECORD_BITS);
        if total_cells < DEFAULT_STAGES {
            return Err(ConfigError::new("budget too small for 4 hashpipe stages"));
        }
        Self::new(DEFAULT_STAGES, total_cells / DEFAULT_STAGES, seed)
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// Buckets per stage.
    pub const fn cells_per_stage(&self) -> usize {
        self.cells_per_stage
    }

    /// Total occupied buckets across all stages (counts fragments, not
    /// distinct flows).
    pub fn occupied(&self) -> usize {
        self.stages
            .iter()
            .flatten()
            .filter(|r| r.count() > 0)
            .count()
    }

    /// Per-key totals across all stages: a flow split into fragments is
    /// reassembled here.
    fn aggregate(&self) -> HashMap<FlowKey, u32> {
        let mut agg = HashMap::new();
        for rec in self.stages.iter().flatten().filter(|r| r.count() > 0) {
            let total = agg.entry(rec.key()).or_insert(0u32);
            *total = total.saturating_add(rec.count());
        }
        agg
    }
}

impl FlowMonitor for HashPipe {
    fn process_packet(&mut self, packet: &Packet) {
        self.cost.start_packet();
        let key = packet.key();

        // Stage 1: always insert. A colliding incumbent is evicted and
        // carried into the rest of the pipeline.
        let idx = fast_range(self.hashes.hash(0, &key), self.cells_per_stage);
        self.cost.record_hashes(1);
        self.cost.record_reads(1);
        let incumbent = self.stages[0][idx];
        let mut carried = if incumbent.count() == 0 {
            self.stages[0][idx] = FlowRecord::new(key, 1);
            self.cost.record_writes(1);
            return;
        } else if incumbent.key() == key {
            let mut updated = incumbent;
            updated.increment();
            self.stages[0][idx] = updated;
            self.cost.record_writes(1);
            return;
        } else {
            self.stages[0][idx] = FlowRecord::new(key, 1);
            self.cost.record_writes(1);
            incumbent
        };

        // Stages 2..d: keep the larger record, carry the smaller onward.
        for stage in 1..self.stages.len() {
            let idx = fast_range(
                self.hashes.hash(stage, &carried.key()),
                self.cells_per_stage,
            );
            self.cost.record_hashes(1);
            self.cost.record_reads(1);
            let incumbent = self.stages[stage][idx];
            if incumbent.count() == 0 {
                self.stages[stage][idx] = carried;
                self.cost.record_writes(1);
                return;
            }
            if incumbent.key() == carried.key() {
                let merged = FlowRecord::new(
                    carried.key(),
                    incumbent.count().saturating_add(carried.count()),
                );
                self.stages[stage][idx] = merged;
                self.cost.record_writes(1);
                return;
            }
            if incumbent.count() < carried.count() {
                self.stages[stage][idx] = carried;
                self.cost.record_writes(1);
                carried = incumbent;
            }
        }
        // The record still carried after the last stage is discarded.
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        self.aggregate()
            .into_iter()
            .map(|(k, c)| FlowRecord::new(k, c))
            .collect()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        // Sum every fragment of the flow across the pipeline.
        let mut total = 0u32;
        for (stage, table) in self.stages.iter().enumerate() {
            let rec = table[fast_range(self.hashes.hash(stage, key), self.cells_per_stage)];
            if rec.count() > 0 && rec.key() == *key {
                total = total.saturating_add(rec.count());
            }
        }
        total
    }

    fn estimate_cardinality(&self) -> f64 {
        // §IV-A: HashPipe "does not use any advanced cardinality estimation
        // technique to compensate for the flows it drops" — the best it can
        // report is the number of distinct keys it still holds.
        self.aggregate().len() as f64
    }

    fn memory_bits(&self) -> usize {
        self.stages.len() * self.cells_per_stage * RECORD_BITS
    }

    fn name(&self) -> &'static str {
        "HashPipe"
    }

    fn cost(&self) -> CostSnapshot {
        self.cost.snapshot()
    }

    fn reset(&mut self) {
        for table in &mut self.stages {
            for slot in table.iter_mut() {
                *slot = FlowRecord::new(FlowKey::default(), 0);
            }
        }
        self.cost.reset();
    }

    /// Per-stage occupancy (fragments, not distinct flows) plus the
    /// fragmentation ratio — occupied cells per distinct flow, the §II
    /// record-splitting pathology made directly observable.
    fn introspection(&self) -> Vec<IntrospectMetric> {
        let mut metrics = Vec::with_capacity(self.stages.len() + 2);
        for (i, table) in self.stages.iter().enumerate() {
            let filled = table.iter().filter(|r| r.count() > 0).count();
            metrics.push(IntrospectMetric::ratio(
                format!("hp_stage{i}_load"),
                filled as f64 / self.cells_per_stage as f64,
            ));
        }
        let occupied = self.occupied();
        let flows = self.aggregate().len();
        let fragmentation = if flows == 0 {
            1.0
        } else {
            occupied as f64 / flows as f64
        };
        metrics.push(IntrospectMetric::count(
            "hp_fragments_per_flow_ppm",
            (fragmentation * 1e6).round() as u64,
        ));
        metrics.push(IntrospectMetric::count(
            "hp_occupied_cells",
            occupied as u64,
        ));
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flow: u64) -> Packet {
        Packet::new(FlowKey::from_index(flow), 0, 64)
    }

    #[test]
    fn single_flow_counts_exactly() {
        let mut hp = HashPipe::new(4, 64, 1).unwrap();
        for _ in 0..10 {
            hp.process_packet(&pkt(1));
        }
        assert_eq!(hp.estimate_size(&FlowKey::from_index(1)), 10);
    }

    #[test]
    fn sparse_flows_all_recorded() {
        let mut hp = HashPipe::new(4, 1024, 2).unwrap();
        for flow in 0..100 {
            for _ in 0..3 {
                hp.process_packet(&pkt(flow));
            }
        }
        let records = hp.flow_records();
        assert_eq!(records.len(), 100);
        // Fragmented or not, totals must sum to the truth under no loss.
        let total: u64 = records.iter().map(|r| u64::from(r.count())).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn first_stage_always_inserts() {
        // One-stage HashPipe with one bucket: the newest flow always wins.
        let mut hp = HashPipe::new(1, 1, 3).unwrap();
        hp.process_packet(&pkt(1));
        hp.process_packet(&pkt(2));
        assert_eq!(hp.estimate_size(&FlowKey::from_index(2)), 1);
        assert_eq!(hp.estimate_size(&FlowKey::from_index(1)), 0);
    }

    #[test]
    fn eviction_prefers_larger_count_downstream() {
        // Two stages, one bucket each: flow A accumulates, then B evicts A
        // from stage 1; at stage 2, A (larger) wins the empty bucket. A
        // third flow C then evicts B; B (count 1) loses to A (count 5) at
        // stage 2 and is dropped.
        let mut hp = HashPipe::new(2, 1, 4).unwrap();
        for _ in 0..5 {
            hp.process_packet(&pkt(1));
        }
        hp.process_packet(&pkt(2)); // evicts flow 1 -> stage 2
        assert_eq!(hp.estimate_size(&FlowKey::from_index(1)), 5);
        hp.process_packet(&pkt(3)); // evicts flow 2; flow 2 loses to flow 1
        assert_eq!(hp.estimate_size(&FlowKey::from_index(1)), 5);
        assert_eq!(hp.estimate_size(&FlowKey::from_index(2)), 0, "dropped");
        assert_eq!(hp.estimate_size(&FlowKey::from_index(3)), 1);
    }

    #[test]
    fn flows_can_fragment_under_pressure() {
        // Drive a small pipe hard; the totals may undercount (drops) but
        // never overcount the ground truth.
        let mut hp = HashPipe::new(4, 32, 5).unwrap();
        let mut truth: HashMap<FlowKey, u32> = HashMap::new();
        for i in 0..5_000u64 {
            let flow = i % 300;
            hp.process_packet(&pkt(flow));
            *truth.entry(FlowKey::from_index(flow)).or_insert(0) += 1;
        }
        for rec in hp.flow_records() {
            assert!(
                rec.count() <= truth[&rec.key()],
                "overcounted {:?}: {} > {}",
                rec.key(),
                rec.count(),
                truth[&rec.key()]
            );
        }
    }

    #[test]
    fn cost_at_most_stage_count_hashes() {
        let mut hp = HashPipe::with_memory(MemoryBudget::from_kib(16).unwrap()).unwrap();
        for i in 0..10_000 {
            hp.process_packet(&pkt(i % 4_000));
        }
        let avg = hp.cost().avg_hashes_per_packet();
        assert!((1.0..=4.0).contains(&avg), "avg hashes {avg}");
    }

    #[test]
    fn memory_budget_respected() {
        let hp = HashPipe::with_memory(MemoryBudget::from_bytes(1 << 20).unwrap()).unwrap();
        assert!(hp.memory_bits() <= 1 << 23);
        assert_eq!(hp.stages(), 4);
        assert!(hp.memory_bits() > (1 << 23) * 9 / 10);
    }

    #[test]
    fn reset_clears_everything() {
        let mut hp = HashPipe::new(2, 16, 6).unwrap();
        hp.process_packet(&pkt(1));
        hp.reset();
        assert_eq!(hp.flow_records().len(), 0);
        assert_eq!(hp.occupied(), 0);
        assert_eq!(hp.cost().packets, 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(HashPipe::new(0, 10, 0).is_err());
        assert!(HashPipe::new(4, 0, 0).is_err());
        assert!(HashPipe::with_memory(MemoryBudget::from_bytes(17).unwrap()).is_err());
    }

    #[test]
    fn fragments_merge_when_they_meet() {
        // Two stages, one bucket each. Flow 1 accumulates at stage 1, gets
        // evicted to stage 2 by flow 2, then flow 1's new packets rebuild a
        // fragment at stage 1 after flow 2 is evicted in turn; when flow
        // 1's stage-1 fragment is later evicted it must MERGE with its
        // stage-2 fragment, not overwrite it.
        let mut hp = HashPipe::new(2, 1, 8).unwrap();
        for _ in 0..4 {
            hp.process_packet(&pkt(1)); // stage 1: (f1, 4)
        }
        hp.process_packet(&pkt(2)); // f1 -> stage 2; stage 1: (f2, 1)
        for _ in 0..3 {
            hp.process_packet(&pkt(1)); // evicts f2; stage 1: (f1, ...)
        }
        // All of f1's packets are preserved across fragments.
        assert_eq!(hp.estimate_size(&FlowKey::from_index(1)), 7);
    }

    #[test]
    fn aggregate_reassembles_split_flows() {
        let mut hp = HashPipe::new(4, 8, 9).unwrap();
        let mut truth: HashMap<FlowKey, u32> = HashMap::new();
        for i in 0..2_000u64 {
            let flow = i % 40;
            hp.process_packet(&pkt(flow));
            *truth.entry(FlowKey::from_index(flow)).or_insert(0) += 1;
        }
        // flow_records returns one record per distinct key even when the
        // flow is fragmented across stages internally.
        let records = hp.flow_records();
        let mut seen = std::collections::HashSet::new();
        for rec in &records {
            assert!(seen.insert(rec.key()), "duplicate key in report");
        }
    }

    #[test]
    fn cardinality_is_held_flow_count() {
        let mut hp = HashPipe::new(4, 1024, 7).unwrap();
        for flow in 0..50 {
            hp.process_packet(&pkt(flow));
        }
        assert_eq!(hp.estimate_cardinality(), 50.0);
    }
}
