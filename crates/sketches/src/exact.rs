//! The exact baseline: a plain hash map under the shared memory
//! accounting — the ground-truth row of every accuracy table.

use hashflow_monitor::{CostRecorder, CostSnapshot, FlowMonitor, IntrospectMetric, MemoryBudget};
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet, RECORD_BITS};
use std::collections::HashMap;

/// A deterministic exact flow table as a [`FlowMonitor`].
///
/// Every flow gets a full-width record; nothing is ever sampled,
/// evicted, or approximated, so every §IV-A application query answers
/// with ground truth (ARE = 0, F1 = 1, cardinality RE = 0 by
/// construction). This is the reference row the equal-memory comparison
/// normalizes against and the oracle `tests/accuracy_bounds.rs` checks
/// the probabilistic monitors' bounds with.
///
/// Memory accounting is nominal: [`Self::with_memory`] sizes the
/// capacity at `budget / RECORD_BITS` record slots, and
/// [`FlowMonitor::memory_bits`] reports `max(capacity, tracked) *
/// RECORD_BITS` — when the flow count exceeds the budgeted capacity the
/// overrun is *reported honestly* rather than traded for accuracy,
/// because a ground-truth baseline that silently dropped flows would
/// poison every comparison built on it. [`Self::overflowed`] flags that
/// condition so exhibits can annotate the cell.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::{FlowMonitor, MemoryBudget};
/// use hashflow_sketches::ExactBaselineMonitor;
/// use hashflow_types::{FlowKey, Packet};
///
/// let mut exact = ExactBaselineMonitor::with_memory(MemoryBudget::from_kib(64)?)?;
/// for t in 0..9 {
///     exact.process_packet(&Packet::new(FlowKey::from_index(2), t, 64));
/// }
/// assert_eq!(exact.estimate_size(&FlowKey::from_index(2)), 9);
/// assert_eq!(exact.estimate_cardinality(), 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExactBaselineMonitor {
    flows: HashMap<FlowKey, u32>,
    capacity: usize,
    cost: CostRecorder,
}

impl ExactBaselineMonitor {
    /// Creates a baseline accounted at `capacity` record slots.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `capacity == 0`.
    pub fn new(capacity: usize) -> Result<Self, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::new(
                "exact baseline needs at least one record slot",
            ));
        }
        Ok(ExactBaselineMonitor {
            flows: HashMap::with_capacity(capacity),
            capacity,
            cost: CostRecorder::new(),
        })
    }

    /// Sizes the table for a memory budget at full flow-record width.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no record.
    pub fn with_memory(budget: MemoryBudget) -> Result<Self, ConfigError> {
        Self::new(budget.cells(RECORD_BITS))
    }

    /// [`Self::with_memory`] with a seed parameter for registry
    /// uniformity. The baseline is hash-seed-free (a plain map), so the
    /// seed only needs to exist, not to matter.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no record.
    pub fn with_memory_seeded(budget: MemoryBudget, _seed: u64) -> Result<Self, ConfigError> {
        Self::with_memory(budget)
    }

    /// Budgeted record slots.
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the workload outgrew the budgeted capacity (the reported
    /// [`FlowMonitor::memory_bits`] then exceeds the nominal budget).
    pub fn overflowed(&self) -> bool {
        self.flows.len() > self.capacity
    }
}

impl FlowMonitor for ExactBaselineMonitor {
    fn process_packet(&mut self, packet: &Packet) {
        self.cost.start_packet();
        // The map's key hash, one probe, one counter write.
        self.cost.record_hashes(1);
        self.cost.record_reads(1);
        self.cost.record_writes(1);
        let count = self.flows.entry(packet.key()).or_insert(0);
        *count = count.saturating_add(1);
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        self.flows
            .iter()
            .map(|(k, c)| FlowRecord::new(*k, *c))
            .collect()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.flows.get(key).copied().unwrap_or(0)
    }

    fn estimate_cardinality(&self) -> f64 {
        self.flows.len() as f64
    }

    fn memory_bits(&self) -> usize {
        self.capacity.max(self.flows.len()) * RECORD_BITS
    }

    fn name(&self) -> &'static str {
        "ExactBaseline"
    }

    fn cost(&self) -> CostSnapshot {
        self.cost.snapshot()
    }

    fn reset(&mut self) {
        self.flows.clear();
        self.cost.reset();
    }

    /// Fill against nominal capacity, plus the overflow flag — the exact
    /// baseline keeps every flow, so `overflowed` marks the point where
    /// its memory claim stopped being honest.
    fn introspection(&self) -> Vec<IntrospectMetric> {
        let tracked = self.flows.len();
        let fill = tracked as f64 / self.capacity.max(1) as f64;
        vec![
            IntrospectMetric::ratio("exact_fill", fill.min(1.0)),
            IntrospectMetric::count("exact_tracked_keys", tracked as u64),
            IntrospectMetric::flag("exact_overflowed", self.overflowed()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flow: u64, ts: u64) -> Packet {
        Packet::new(FlowKey::from_index(flow), ts, 64)
    }

    #[test]
    fn matches_a_reference_hashmap_exactly() {
        let mut exact = ExactBaselineMonitor::new(1024).unwrap();
        let mut reference: HashMap<FlowKey, u32> = HashMap::new();
        for i in 0..5_000u64 {
            let p = pkt(i % 377, i);
            exact.process_packet(&p);
            *reference.entry(p.key()).or_insert(0) += 1;
        }
        assert_eq!(exact.estimate_cardinality(), reference.len() as f64);
        for (key, &count) in &reference {
            assert_eq!(exact.estimate_size(key), count);
        }
        let mut records = exact.flow_records();
        records.sort_unstable_by_key(FlowRecord::key);
        let mut expected: Vec<(FlowKey, u32)> = reference.into_iter().collect();
        expected.sort_unstable_by_key(|(k, _)| *k);
        assert_eq!(
            records
                .iter()
                .map(|r| (r.key(), r.count()))
                .collect::<Vec<_>>(),
            expected
        );
        assert_eq!(exact.estimate_size(&FlowKey::from_index(99_999)), 0);
    }

    #[test]
    fn budget_accounting_and_overflow_reporting() {
        let budget = MemoryBudget::from_kib(256).unwrap();
        let mut exact = ExactBaselineMonitor::with_memory(budget).unwrap();
        assert!(exact.memory_bits() <= budget.bits());
        assert!(exact.memory_bits() > budget.bits() * 9 / 10);
        assert!(!exact.overflowed());

        // Outgrow the capacity: nothing is dropped, the footprint grows.
        let capacity = exact.capacity();
        for flow in 0..capacity as u64 + 10 {
            exact.process_packet(&pkt(flow, 0));
        }
        assert!(exact.overflowed());
        assert_eq!(exact.flow_records().len(), capacity + 10);
        assert_eq!(exact.memory_bits(), (capacity + 10) * RECORD_BITS);
    }

    #[test]
    fn reset_and_config_checks() {
        assert!(ExactBaselineMonitor::new(0).is_err());
        let mut exact = ExactBaselineMonitor::new(10).unwrap();
        exact.process_packet(&pkt(1, 0));
        exact.reset();
        assert!(exact.flow_records().is_empty());
        assert_eq!(exact.cost().packets, 0);
        assert_eq!(exact.capacity(), 10);
    }
}
