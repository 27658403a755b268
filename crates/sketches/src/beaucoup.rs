//! BeauCoup: coupon-collector counting with O(1) memory accesses per
//! packet (SIGCOMM'20), specialized to per-flow packet counting.

use hashflow_hashing::{fast_range, HashFamily, XxHash64};
use hashflow_monitor::{CostRecorder, CostSnapshot, FlowMonitor, IntrospectMetric, MemoryBudget};
use hashflow_primitives::LinearCounter;
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet, FLOW_KEY_BITS};
use std::collections::HashMap;

/// Coupons per tracked key (the bitmap width).
pub const COUPONS: u32 = 32;

/// Coupon draw space: each packet draws one value uniform in
/// `0..DRAW_SPACE` and collects a coupon only when it lands in
/// `0..COUPONS`, so each individual coupon is collected with probability
/// `1/DRAW_SPACE` per packet and most packets touch no per-key state at
/// all — BeauCoup's constant-memory-access property.
pub const DRAW_SPACE: usize = 128;

/// Bits per tracked key: the flow key plus its coupon bitmap.
const ENTRY_BITS: usize = FLOW_KEY_BITS + COUPONS as usize;

/// Fraction of the budget carved out for the cardinality bitmap
/// (1/`LC_SHARE`).
const LC_SHARE: usize = 8;

/// BeauCoup (SIGCOMM'20) as a [`FlowMonitor`]: every packet draws at
/// most one of `COUPONS` coupons (a hash of the packet's key and
/// timestamp, so draws are independent across a flow's packets); a drawn
/// coupon sets one bit in the flow's coupon bitmap. The collected-coupon
/// count inverts to a size estimate through the coupon-collector
/// expectation `c = m (1 - (1-q)^n)`.
///
/// The paper's design point is bounding *memory accesses* per packet: a
/// packet that draws no coupon (the `1 - m/DRAW_SPACE = 3/4` common
/// case) performs no table write at all. The price is resolution — sizes
/// are only distinguishable on a logarithmic-ish grid (~4 packets at the
/// low end, saturating around 530) — which is exactly the accuracy
/// trade-off the adversarial-regime comparison is meant to expose.
///
/// The key table is capacity-bounded under the shared
/// [`MemoryBudget`] accounting; once full, *new* keys are dropped
/// (deterministically — no eviction), while tracked keys keep
/// collecting. A [`LinearCounter`] carved from the same budget answers
/// cardinality.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::{FlowMonitor, MemoryBudget};
/// use hashflow_sketches::BeauCoupMonitor;
/// use hashflow_types::{FlowKey, Packet};
///
/// let mut bc = BeauCoupMonitor::with_memory(MemoryBudget::from_kib(64)?)?;
/// for t in 0..1_000 {
///     bc.process_packet(&Packet::new(FlowKey::from_index(5), t, 64));
/// }
/// let est = bc.estimate_size(&FlowKey::from_index(5));
/// assert!(est > 100, "a kilopacket flow collects most coupons: {est}");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BeauCoupMonitor {
    coupons: HashMap<FlowKey, u32>,
    capacity: usize,
    hash: HashFamily<XxHash64>,
    cardinality: LinearCounter,
    dropped_keys: u64,
    cost: CostRecorder,
}

impl BeauCoupMonitor {
    /// Creates a monitor tracking at most `capacity` keys, with
    /// `lc_cells` linear-counting bitmap cells for cardinality.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `capacity == 0` or `lc_cells == 0`.
    pub fn new(capacity: usize, lc_cells: usize, seed: u64) -> Result<Self, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::new("BeauCoup needs at least one key slot"));
        }
        if lc_cells == 0 {
            return Err(ConfigError::new(
                "BeauCoup needs at least one cardinality cell",
            ));
        }
        Ok(BeauCoupMonitor {
            coupons: HashMap::with_capacity(capacity),
            capacity,
            hash: HashFamily::new(1, seed ^ 0x00bc_0bc0),
            cardinality: LinearCounter::new(lc_cells, seed),
            dropped_keys: 0,
            cost: CostRecorder::new(),
        })
    }

    /// Sizes the monitor for a memory budget: one `LC_SHARE`-th of the
    /// bits becomes the cardinality bitmap, the rest key slots of
    /// `ENTRY_BITS` each.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no key slot.
    pub fn with_memory(budget: MemoryBudget) -> Result<Self, ConfigError> {
        Self::with_memory_seeded(budget, 0x0000_bc05)
    }

    /// [`Self::with_memory`] with an explicit hash seed, for experiments
    /// that re-derive every monitor per trial.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no key slot.
    pub fn with_memory_seeded(budget: MemoryBudget, seed: u64) -> Result<Self, ConfigError> {
        let lc_cells = (budget.bits() / LC_SHARE).max(1);
        let capacity = budget.bits().saturating_sub(lc_cells) / ENTRY_BITS;
        if capacity == 0 {
            return Err(ConfigError::new(
                "memory budget too small for a BeauCoup key slot",
            ));
        }
        Self::new(capacity, lc_cells, seed)
    }

    /// Maximum tracked keys.
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// New keys dropped because the table was full.
    pub const fn dropped_keys(&self) -> u64 {
        self.dropped_keys
    }

    /// Inverts a collected-coupon count into a size estimate via the
    /// coupon-collector expectation `c = m (1 - (1-q)^n)` with
    /// `q = 1/DRAW_SPACE`. A full bitmap inverts at `m - 1/2` coupons
    /// (the estimator's saturation point, ~530 packets).
    fn invert(collected: u32) -> u32 {
        if collected == 0 {
            return 0;
        }
        let m = f64::from(COUPONS);
        let c = f64::from(collected.min(COUPONS)).min(m - 0.5);
        let q = 1.0 / DRAW_SPACE as f64;
        ((1.0 - c / m).ln() / (1.0 - q).ln()).round() as u32
    }

    /// The per-packet coupon draw: a hash of (key, timestamp) so a
    /// flow's packets draw independently, mapped uniformly onto
    /// `0..DRAW_SPACE`. Returns the coupon index for the ~`m/DRAW_SPACE`
    /// fraction of packets that collect one.
    fn draw(&self, packet: &Packet) -> Option<u32> {
        let mut bytes = [0u8; 21];
        bytes[..13].copy_from_slice(&packet.key().to_bytes());
        bytes[13..].copy_from_slice(&packet.timestamp_ns().to_le_bytes());
        let r = fast_range(self.hash.hash_bytes(0, &bytes), DRAW_SPACE) as u32;
        (r < COUPONS).then_some(r)
    }
}

impl FlowMonitor for BeauCoupMonitor {
    fn process_packet(&mut self, packet: &Packet) {
        self.cost.start_packet();
        // Coupon-draw hash + cardinality-bitmap hash, one bitmap write.
        self.cost.record_hashes(2);
        self.cost.record_writes(1);
        self.cardinality.observe(&packet.key());
        let Some(coupon) = self.draw(packet) else {
            return; // the common case: no per-key state touched
        };
        self.cost.record_reads(1);
        if let Some(bitmap) = self.coupons.get_mut(&packet.key()) {
            *bitmap |= 1 << coupon;
            self.cost.record_writes(1);
        } else if self.coupons.len() < self.capacity {
            self.coupons.insert(packet.key(), 1 << coupon);
            self.cost.record_writes(1);
        } else {
            self.dropped_keys += 1;
        }
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        self.coupons
            .iter()
            .map(|(k, bitmap)| FlowRecord::new(*k, Self::invert(bitmap.count_ones())))
            .collect()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.coupons
            .get(key)
            .map(|bitmap| Self::invert(bitmap.count_ones()))
            .unwrap_or(0)
    }

    fn estimate_cardinality(&self) -> f64 {
        let est = self.cardinality.estimate();
        if est.is_finite() {
            est
        } else {
            // Saturated bitmap: report the estimator's last resolvable
            // point instead of diverging.
            let cells = self.cardinality.cells() as f64;
            cells * cells.ln()
        }
    }

    fn memory_bits(&self) -> usize {
        self.capacity * ENTRY_BITS + self.cardinality.cells()
    }

    fn name(&self) -> &'static str {
        "BeauCoup"
    }

    fn cost(&self) -> CostSnapshot {
        self.cost.snapshot()
    }

    fn reset(&mut self) {
        self.coupons.clear();
        self.cardinality.reset();
        self.dropped_keys = 0;
        self.cost.reset();
    }

    /// Table pressure (tracked keys against capacity, keys dropped at the
    /// full table) and how far the average tracked key's coupon bitmap
    /// has filled toward the 32-coupon ceiling.
    fn introspection(&self) -> Vec<IntrospectMetric> {
        let tracked = self.coupons.len();
        let mean_fill = if tracked == 0 {
            0.0
        } else {
            let collected: u64 = self
                .coupons
                .values()
                .map(|bitmap| u64::from(bitmap.count_ones()))
                .sum();
            collected as f64 / (tracked as u64 * COUPONS as u64) as f64
        };
        vec![
            IntrospectMetric::ratio(
                "bc_table_fill",
                tracked as f64 / self.capacity.max(1) as f64,
            ),
            IntrospectMetric::ratio("bc_coupon_fill", mean_fill),
            IntrospectMetric::count("bc_tracked_keys", tracked as u64),
            IntrospectMetric::count("bc_dropped_keys", self.dropped_keys),
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
    fn estimates_grow_with_flow_size() {
        let mut bc = BeauCoupMonitor::new(1024, 4096, 7).unwrap();
        for t in 0..40u64 {
            bc.process_packet(&pkt(1, t));
        }
        for t in 0..400u64 {
            bc.process_packet(&pkt(2, t));
        }
        let small = bc.estimate_size(&FlowKey::from_index(1));
        let large = bc.estimate_size(&FlowKey::from_index(2));
        assert!(small < large, "40-packet {small} vs 400-packet {large}");
        // Coupon-collector resolution: within a factor ~3 of truth.
        assert!((10..=120).contains(&small), "small {small}");
        assert!(large >= 150, "large {large}");
    }

    #[test]
    fn most_packets_touch_no_per_key_state() {
        let mut bc = BeauCoupMonitor::new(1024, 4096, 3).unwrap();
        for t in 0..10_000u64 {
            bc.process_packet(&pkt(t % 100, t));
        }
        let cost = bc.cost();
        // Reads happen only on coupon draws: ~ m/DRAW_SPACE = 1/4.
        let rate = cost.reads as f64 / cost.packets as f64;
        assert!((rate - 0.25).abs() < 0.05, "draw rate {rate}");
    }

    #[test]
    fn estimator_inverts_the_draw_probability() {
        assert_eq!(BeauCoupMonitor::invert(0), 0);
        assert_eq!(BeauCoupMonitor::invert(1), 4);
        // Full bitmap saturates near the estimator's resolution limit.
        let cap = BeauCoupMonitor::invert(COUPONS);
        assert!((450..700).contains(&(cap as i64)), "saturation {cap}");
        // Monotone in the coupon count.
        for c in 1..=COUPONS {
            assert!(BeauCoupMonitor::invert(c) > BeauCoupMonitor::invert(c - 1));
        }
    }

    #[test]
    fn full_table_drops_new_keys_deterministically() {
        let mut bc = BeauCoupMonitor::new(8, 1024, 1).unwrap();
        // Enough packets that far more than 8 flows draw coupons.
        for flow in 0..200u64 {
            for t in 0..20 {
                bc.process_packet(&pkt(flow, t));
            }
        }
        assert_eq!(bc.flow_records().len(), 8);
        assert!(bc.dropped_keys() > 0);
    }

    #[test]
    fn budget_sizing_accounts_table_plus_bitmap() {
        let budget = MemoryBudget::from_kib(256).unwrap();
        let bc = BeauCoupMonitor::with_memory(budget).unwrap();
        assert!(bc.memory_bits() <= budget.bits());
        assert!(bc.memory_bits() > budget.bits() * 9 / 10);
        assert!(
            BeauCoupMonitor::with_memory_seeded(MemoryBudget::from_bytes(4).unwrap(), 0).is_err()
        );
    }

    #[test]
    fn cardinality_tracks_distinct_flows() {
        let mut bc = BeauCoupMonitor::new(64, 1 << 14, 5).unwrap();
        for flow in 0..3_000u64 {
            bc.process_packet(&pkt(flow, 0));
        }
        let est = bc.estimate_cardinality();
        assert!((est - 3_000.0).abs() / 3_000.0 < 0.1, "estimate {est}");
    }

    #[test]
    fn reset_and_config_checks() {
        assert!(BeauCoupMonitor::new(0, 64, 0).is_err());
        assert!(BeauCoupMonitor::new(8, 0, 0).is_err());
        let mut bc = BeauCoupMonitor::new(8, 64, 0).unwrap();
        for t in 0..100 {
            bc.process_packet(&pkt(1, t));
        }
        bc.reset();
        assert!(bc.flow_records().is_empty());
        assert_eq!(bc.estimate_cardinality(), 0.0);
        assert_eq!(bc.cost().packets, 0);
    }
}
