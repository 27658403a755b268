//! Sampled NetFlow — the "traditional" baseline the paper's introduction
//! argues against (§I: "sampling reduces processing overhead at the cost of
//! less packets or flows being recorded, thus less accurate statistics").
//!
//! One in `N` packets is selected (deterministic hash-based sampling so the
//! reproduction stays replayable); a selected packet inserts or increments
//! its flow in a fixed-size exact flow cache with NetFlow-style random
//! eviction on overflow. Queries scale counts back up by `N`, the standard
//! inversion.
//!
//! Not part of the paper's §IV comparison set — provided as the historical
//! reference point for the ablation experiments and examples.
//!
//! # Examples
//!
//! ```
//! use hashflow_monitor::{FlowMonitor, MemoryBudget};
//! use hashflow_types::{FlowKey, Packet};
//! use sampled_netflow::SampledNetFlow;
//!
//! let mut nf = SampledNetFlow::with_memory(MemoryBudget::from_kib(64)?, 1)?;
//! nf.process_packet(&Packet::new(FlowKey::from_index(1), 0, 64));
//! assert_eq!(nf.estimate_size(&FlowKey::from_index(1)), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hashflow_hashing::{fast_range, HashFamily, XxHash64};
use hashflow_monitor::{CostRecorder, CostSnapshot, FlowMonitor, IntrospectMetric, MemoryBudget};
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet, RECORD_BITS};
use std::collections::HashMap;

/// Sampled NetFlow flow cache. See the crate docs.
#[derive(Debug, Clone)]
pub struct SampledNetFlow {
    // Indexed arena + key index: O(1) updates and *deterministic* random
    // eviction (HashMap iteration order would not be reproducible).
    slots: Vec<(FlowKey, u32)>,
    index: HashMap<FlowKey, usize>,
    capacity: usize,
    sampling_n: u32,
    // Deterministic per-packet sampling decision and eviction choice.
    hash: HashFamily<XxHash64>,
    sampled_packets: u64,
    evictions: u64,
    cost: CostRecorder,
}

impl SampledNetFlow {
    /// Creates a flow cache of `capacity` records with 1-in-`sampling_n`
    /// packet sampling.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `capacity == 0` or `sampling_n == 0`.
    pub fn new(capacity: usize, sampling_n: u32, seed: u64) -> Result<Self, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::new("flow cache needs at least one record"));
        }
        if sampling_n == 0 {
            return Err(ConfigError::new("sampling rate 1-in-N needs N >= 1"));
        }
        Ok(SampledNetFlow {
            slots: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
            capacity,
            sampling_n,
            hash: HashFamily::new(2, seed ^ 0x5a3b_11ed),
            sampled_packets: 0,
            evictions: 0,
            cost: CostRecorder::new(),
        })
    }

    /// Sizes the cache for a memory budget at full flow-record width.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no record or
    /// `sampling_n == 0`.
    pub fn with_memory(budget: MemoryBudget, sampling_n: u32) -> Result<Self, ConfigError> {
        Self::with_memory_seeded(budget, sampling_n, 0x0005_a111)
    }

    /// [`Self::with_memory`] with an explicit hash seed, for experiments
    /// that re-derive every monitor per trial.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no record or
    /// `sampling_n == 0`.
    pub fn with_memory_seeded(
        budget: MemoryBudget,
        sampling_n: u32,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        Self::new(budget.cells(RECORD_BITS), sampling_n, seed)
    }

    /// The configured 1-in-N sampling rate.
    pub const fn sampling_n(&self) -> u32 {
        self.sampling_n
    }

    /// Packets that passed the sampler.
    pub const fn sampled_packets(&self) -> u64 {
        self.sampled_packets
    }

    /// Records evicted due to cache overflow.
    pub const fn evictions(&self) -> u64 {
        self.evictions
    }

    fn sampled(&self, packet: &Packet) -> bool {
        if self.sampling_n == 1 {
            return true;
        }
        // Hash the (key, timestamp) pair so repeated packets of one flow are
        // sampled independently, like a clock-driven sampler.
        let mut bytes = [0u8; 21];
        bytes[..13].copy_from_slice(&packet.key().to_bytes());
        bytes[13..].copy_from_slice(&packet.timestamp_ns().to_le_bytes());
        fast_range(self.hash.hash_bytes(0, &bytes), self.sampling_n as usize) == 0
    }

    /// The per-packet update for a packet whose sampler verdict is
    /// `take`: one sampler hash, and for a sampled packet the flow-cache
    /// update — one cache read and one cache write in every branch — with
    /// the packet's cost added to `cost`. Batches take the trait's
    /// per-packet loop: a batched sampler pass gained under 10 %.
    #[inline]
    fn update(&mut self, key: FlowKey, take: bool, cost: &mut CostSnapshot) {
        cost.packets += 1;
        cost.hashes += 1;
        if take {
            cost.reads += 1;
            cost.writes += 1;
            self.admit(key);
        }
    }

    /// Flow-cache update for a packet that passed the sampler. Kept out
    /// of line so [`Self::update`] inlines to two additions and a branch
    /// for the packets the sampler skips.
    #[inline(never)]
    fn admit(&mut self, key: FlowKey) {
        self.sampled_packets += 1;
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot].1 = self.slots[slot].1.saturating_add(1);
            return;
        }
        if self.slots.len() >= self.capacity {
            // NetFlow expires a record to make room; model it as evicting a
            // pseudo-random resident (hash-chosen for determinism).
            let victim_idx = fast_range(
                self.hash.hash_bytes(1, &self.sampled_packets.to_le_bytes()),
                self.slots.len(),
            );
            let (victim_key, _) = self.slots.swap_remove(victim_idx);
            self.index.remove(&victim_key);
            if let Some(moved) = self.slots.get(victim_idx) {
                self.index.insert(moved.0, victim_idx);
            }
            self.evictions += 1;
        }
        self.index.insert(key, self.slots.len());
        self.slots.push((key, 1));
    }
}

impl FlowMonitor for SampledNetFlow {
    fn process_packet(&mut self, packet: &Packet) {
        let mut cost = CostSnapshot::default();
        self.update(packet.key(), self.sampled(packet), &mut cost);
        self.cost.absorb(&cost);
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        self.slots
            .iter()
            .map(|(k, c)| FlowRecord::new(*k, c.saturating_mul(self.sampling_n)))
            .collect()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.index
            .get(key)
            .map(|&slot| self.slots[slot].1.saturating_mul(self.sampling_n))
            .unwrap_or(0)
    }

    fn estimate_cardinality(&self) -> f64 {
        // Classic inversion is biased for small flows; report the scaled
        // cache size, the best NetFlow itself can do.
        self.slots.len() as f64 * f64::from(self.sampling_n).sqrt()
    }

    fn memory_bits(&self) -> usize {
        self.capacity * RECORD_BITS
    }

    fn name(&self) -> &'static str {
        "SampledNetFlow"
    }

    fn cost(&self) -> CostSnapshot {
        self.cost.snapshot()
    }

    fn reset(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.sampled_packets = 0;
        self.evictions = 0;
        self.cost.reset();
    }

    /// Cache fill, sampler throughput, and eviction churn — rising
    /// evictions mean the cache is thrashing and the scale-back-by-N
    /// inversion is losing flows, not just precision.
    fn introspection(&self) -> Vec<IntrospectMetric> {
        vec![
            IntrospectMetric::ratio(
                "nf_cache_fill",
                self.slots.len() as f64 / self.capacity.max(1) as f64,
            ),
            IntrospectMetric::count("nf_sampled_packets", self.sampled_packets),
            IntrospectMetric::count("nf_evictions", self.evictions),
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
    fn zero_sampling_rate_is_rejected() {
        let budget = MemoryBudget::from_kib(64).unwrap();
        assert!(SampledNetFlow::with_memory(budget, 0).is_err());
        assert!(SampledNetFlow::with_memory_seeded(budget, 0, 7).is_err());
        assert!(SampledNetFlow::with_memory(budget, 30).is_ok());
    }

    #[test]
    fn unsampled_mode_is_exact_until_overflow() {
        let mut nf = SampledNetFlow::new(100, 1, 0).unwrap();
        for flow in 0..50 {
            for t in 0..3 {
                nf.process_packet(&pkt(flow, t));
            }
        }
        for flow in 0..50 {
            assert_eq!(nf.estimate_size(&FlowKey::from_index(flow)), 3);
        }
        assert_eq!(nf.evictions(), 0);
    }

    #[test]
    fn sampling_rate_is_roughly_one_in_n() {
        let mut nf = SampledNetFlow::new(100_000, 10, 1).unwrap();
        for i in 0..100_000u64 {
            nf.process_packet(&pkt(i % 50_000, i));
        }
        let rate = nf.sampled_packets() as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn estimates_scale_up_by_n() {
        let mut nf = SampledNetFlow::new(1000, 8, 2).unwrap();
        // One huge flow: expect estimate near truth after inversion.
        for t in 0..80_000u64 {
            nf.process_packet(&pkt(7, t));
        }
        let est = f64::from(nf.estimate_size(&FlowKey::from_index(7)));
        assert!(
            (est - 80_000.0).abs() / 80_000.0 < 0.1,
            "inverted estimate {est}"
        );
    }

    #[test]
    fn overflow_evicts() {
        let mut nf = SampledNetFlow::new(10, 1, 3).unwrap();
        for flow in 0..50 {
            nf.process_packet(&pkt(flow, 0));
        }
        assert!(nf.evictions() > 0);
        assert!(nf.flow_records().len() <= 10);
    }

    #[test]
    fn small_flows_are_missed_under_sampling() {
        // The paper's point: 1-in-N sampling cannot see most mice.
        let mut nf = SampledNetFlow::new(100_000, 100, 4).unwrap();
        for flow in 0..10_000 {
            nf.process_packet(&pkt(flow, 1));
        }
        let seen = (0..10_000)
            .filter(|&f| nf.estimate_size(&FlowKey::from_index(f)) > 0)
            .count();
        assert!(
            seen < 500,
            "1:100 sampling should miss ~99% of single-packet flows, saw {seen}"
        );
    }

    #[test]
    fn reset_and_config_checks() {
        assert!(SampledNetFlow::new(0, 1, 0).is_err());
        assert!(SampledNetFlow::new(1, 0, 0).is_err());
        let mut nf = SampledNetFlow::new(10, 1, 0).unwrap();
        nf.process_packet(&pkt(1, 0));
        nf.reset();
        assert_eq!(nf.flow_records().len(), 0);
        assert_eq!(nf.sampled_packets(), 0);
        assert_eq!(nf.sampling_n(), 1);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut nf = SampledNetFlow::new(64, 4, 9).unwrap();
            for i in 0..1_000u64 {
                nf.process_packet(&pkt(i % 100, i));
            }
            let mut recs = nf.flow_records();
            recs.sort_by_key(|r| r.key());
            recs
        };
        assert_eq!(run(), run());
    }
}
