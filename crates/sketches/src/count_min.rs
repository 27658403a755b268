//! Count-Min as a registry monitor: the estimate-only end of the zoo.

use hashflow_monitor::{CostRecorder, CostSnapshot, FlowMonitor, IntrospectMetric, MemoryBudget};
use hashflow_primitives::{linear_counting_estimate, CountMinSketch};
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet};

/// Rows (independent hash functions) of the monitor's sketch. Three rows
/// put the overestimate-tail probability at `e^-3 ~ 5%` while leaving the
/// columns wide at any realistic budget — the standard accuracy-oriented
/// configuration.
pub const CM_DEPTH: usize = 3;

/// Counter width. 32-bit counters never saturate on the workloads the
/// evaluation replays, so `query` keeps the strict no-underestimate
/// guarantee.
pub const CM_COUNTER_BITS: u32 = 32;

/// The Count-Min sketch (Cormode & Muthukrishnan, 2005) as a
/// [`FlowMonitor`].
///
/// An **estimate-only** monitor: point size queries answer with the
/// row-minimum (never an underestimate; within `e/cols * N` of truth with
/// probability `1 - e^-rows`), and cardinality comes from linear counting
/// over the first row's occupancy — but **no flow keys are retained**, so
/// [`FlowMonitor::flow_records`] is empty by design and every
/// records-derived application (flow report, heavy hitters, top-k)
/// degenerates. The registry exposes this capability gap as
/// `AlgorithmKind::supports_records() == false` so query surfaces can
/// reject instead of silently answering nothing.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::{FlowMonitor, MemoryBudget};
/// use hashflow_sketches::CountMinMonitor;
/// use hashflow_types::{FlowKey, Packet};
///
/// let mut cm = CountMinMonitor::with_memory(MemoryBudget::from_kib(32)?)?;
/// for t in 0..5 {
///     cm.process_packet(&Packet::new(FlowKey::from_index(9), t, 64));
/// }
/// assert!(cm.estimate_size(&FlowKey::from_index(9)) >= 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CountMinMonitor {
    sketch: CountMinSketch,
    cost: CostRecorder,
}

impl CountMinMonitor {
    /// Creates a monitor over a `CM_DEPTH x cols` sketch of 32-bit
    /// counters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cols == 0`.
    pub fn new(cols: usize, seed: u64) -> Result<Self, ConfigError> {
        Ok(CountMinMonitor {
            sketch: CountMinSketch::new(CM_DEPTH, cols, CM_COUNTER_BITS, seed)?,
            cost: CostRecorder::new(),
        })
    }

    /// Sizes the sketch for a memory budget: every budgeted bit goes into
    /// the counter plane (`cols = bits / (rows * counter_bits)`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no counter column.
    pub fn with_memory(budget: MemoryBudget) -> Result<Self, ConfigError> {
        Self::with_memory_seeded(budget, 0x00c0_cafe)
    }

    /// [`Self::with_memory`] with an explicit hash seed, for experiments
    /// that re-derive every monitor per trial.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no counter column.
    pub fn with_memory_seeded(budget: MemoryBudget, seed: u64) -> Result<Self, ConfigError> {
        let cols = budget.bits() / (CM_DEPTH * CM_COUNTER_BITS as usize);
        if cols == 0 {
            return Err(ConfigError::new(
                "memory budget too small for one count-min column",
            ));
        }
        Self::new(cols, seed)
    }

    /// Columns per row.
    pub fn cols(&self) -> usize {
        self.sketch.cols()
    }
}

impl FlowMonitor for CountMinMonitor {
    fn process_packet(&mut self, packet: &Packet) {
        self.cost.start_packet();
        // One hash, one counter read-modify-write per row.
        self.cost.record_hashes(CM_DEPTH as u64);
        self.cost.record_reads(CM_DEPTH as u64);
        self.cost.record_writes(CM_DEPTH as u64);
        self.sketch.add(&packet.key(), 1);
    }

    /// Estimate-only: the sketch cannot enumerate keys.
    fn flow_records(&self) -> Vec<FlowRecord> {
        Vec::new()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.sketch.query(key).min(u64::from(u32::MAX)) as u32
    }

    fn estimate_cardinality(&self) -> f64 {
        // Linear counting over the first row's occupancy (the same
        // statistic ElasticSketch reads off its light part). Clamping the
        // zero count at one keeps the estimate finite when the row
        // saturates — the estimator's divergence point.
        let zeros = self.sketch.first_row_zeros();
        if zeros == self.sketch.cols() {
            return 0.0;
        }
        linear_counting_estimate(self.sketch.cols(), zeros.max(1))
    }

    fn memory_bits(&self) -> usize {
        self.sketch.logical_bits()
    }

    fn name(&self) -> &'static str {
        "CountMin"
    }

    fn cost(&self) -> CostSnapshot {
        self.cost.snapshot()
    }

    fn reset(&mut self) {
        self.sketch.reset();
        self.cost.reset();
    }

    /// Row occupancy is the fraction of first-row counters touched at
    /// least once — the statistic the linear-counting cardinality
    /// estimator diverges on as it approaches 1.
    fn introspection(&self) -> Vec<IntrospectMetric> {
        let cols = self.sketch.cols();
        let occupied = cols - self.sketch.first_row_zeros();
        vec![
            IntrospectMetric::ratio("cm_row_occupancy", occupied as f64 / cols.max(1) as f64),
            IntrospectMetric::count("cm_cols", cols as u64),
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
    fn never_underestimates_and_reports_no_records() {
        let mut cm = CountMinMonitor::new(512, 7).unwrap();
        for flow in 0..300u64 {
            for t in 0..=(flow % 4) {
                cm.process_packet(&pkt(flow, t));
            }
        }
        for flow in 0..300u64 {
            assert!(
                cm.estimate_size(&FlowKey::from_index(flow)) >= (flow % 4 + 1) as u32,
                "flow {flow}"
            );
        }
        assert!(cm.flow_records().is_empty());
        assert!(cm.heavy_hitters(0).is_empty());
    }

    #[test]
    fn budget_sizing_fills_the_counter_plane() {
        let budget = MemoryBudget::from_kib(256).unwrap();
        let cm = CountMinMonitor::with_memory(budget).unwrap();
        assert!(cm.memory_bits() <= budget.bits());
        assert!(cm.memory_bits() > budget.bits() * 9 / 10);
        assert!(
            CountMinMonitor::with_memory_seeded(MemoryBudget::from_bytes(1).unwrap(), 0).is_err()
        );
    }

    #[test]
    fn cardinality_tracks_distinct_flows() {
        let mut cm = CountMinMonitor::new(1 << 15, 3).unwrap();
        for flow in 0..4_000u64 {
            for t in 0..3 {
                cm.process_packet(&pkt(flow, t));
            }
        }
        let est = cm.estimate_cardinality();
        assert!(est.is_finite());
        assert!((est - 4_000.0).abs() / 4_000.0 < 0.1, "estimate {est}");
    }

    #[test]
    fn cardinality_stays_finite_at_saturation() {
        let mut cm = CountMinMonitor::new(4, 1).unwrap();
        for flow in 0..1_000u64 {
            cm.process_packet(&pkt(flow, 0));
        }
        assert!(cm.estimate_cardinality().is_finite());
        assert!(cm.estimate_cardinality() > 0.0);
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut cm = CountMinMonitor::new(64, 0).unwrap();
        cm.process_packet(&pkt(1, 0));
        cm.reset();
        assert_eq!(cm.estimate_size(&FlowKey::from_index(1)), 0);
        assert_eq!(cm.estimate_cardinality(), 0.0);
        assert_eq!(cm.cost().packets, 0);
    }
}
