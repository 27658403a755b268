//! ElasticSketch (Yang et al., SIGCOMM 2018) — baseline, *hardware
//! version* as configured in the HashFlow paper's evaluation (§IV-A):
//! a heavy part of 3 sub-tables plus a light part that is a single-array
//! count-min sketch of 8-bit counters, with the same number of cells in
//! both parts.
//!
//! Each heavy bucket stores `(key, vote+, vote-, flag)`. An arriving packet
//! that matches the bucket's key increments `vote+`; a colliding packet
//! increments `vote-` and, while `vote-/vote+` stays below the threshold
//! `λ = 8`, is passed down the pipeline (ending in the light part). When
//! `vote-/vote+` reaches `λ` the incumbent is **evicted** and carried to
//! the next sub-table (or folded into the light part after the last), and
//! the newcomer takes the bucket with its `flag` set — the flag records
//! that earlier packets of the bucket's flow may live in the light part.
//!
//! The HashFlow paper's critique (§II) — records split between heavy and
//! light parts, and light-part collisions inflating estimates — emerges
//! naturally from this implementation.
//!
//! # Examples
//!
//! ```
//! use elastic_sketch::ElasticSketch;
//! use hashflow_monitor::{FlowMonitor, MemoryBudget};
//! use hashflow_types::{FlowKey, Packet};
//!
//! let mut es = ElasticSketch::with_memory(MemoryBudget::from_kib(64)?)?;
//! es.process_packet(&Packet::new(FlowKey::from_index(1), 0, 64));
//! assert_eq!(es.estimate_size(&FlowKey::from_index(1)), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basic;

pub use basic::BasicElasticSketch;

use hashflow_hashing::{fast_range, HashFamily, XxHash64};
use hashflow_monitor::{CostRecorder, CostSnapshot, FlowMonitor, IntrospectMetric, MemoryBudget};
use hashflow_primitives::{linear_counting_estimate, CountMinSketch};
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet, FLOW_KEY_BITS};

/// Eviction threshold λ from the ElasticSketch paper (vote-/vote+ ratio).
pub const DEFAULT_LAMBDA: u32 = 8;

/// Number of heavy sub-tables in the hardware version (§IV-A).
pub const DEFAULT_HEAVY_TABLES: usize = 3;

/// Light-part counter width used in the evaluation (8-bit count-min cells).
pub const LIGHT_COUNTER_BITS: u32 = 8;

/// Heavy-part bucket footprint: 104-bit key + two 32-bit vote counters +
/// a presence flag.
pub const HEAVY_CELL_BITS: usize = FLOW_KEY_BITS + 32 + 32 + 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeavyBucket {
    key: FlowKey,
    vote_pos: u32,
    vote_neg: u32,
    flag: bool,
}

impl HeavyBucket {
    const EMPTY: HeavyBucket = HeavyBucket {
        key: FlowKey::new(
            hashflow_types::Ipv4Addr::new(0),
            hashflow_types::Ipv4Addr::new(0),
            0,
            0,
            0,
        ),
        vote_pos: 0,
        vote_neg: 0,
        flag: false,
    };

    fn is_empty(&self) -> bool {
        self.vote_pos == 0
    }
}

/// A flow item carried between pipeline stages (a packet, or an evicted
/// partial record).
#[derive(Debug, Clone, Copy)]
struct Carried {
    key: FlowKey,
    count: u32,
    flag: bool,
}

/// The ElasticSketch algorithm (hardware version). See crate docs.
#[derive(Debug, Clone)]
pub struct ElasticSketch {
    heavy: Vec<Vec<HeavyBucket>>,
    heavy_cells_per_table: usize,
    light: CountMinSketch,
    lambda: u32,
    hashes: HashFamily<XxHash64>,
    cost: CostRecorder,
}

impl ElasticSketch {
    /// Creates an ElasticSketch with `heavy_tables` sub-tables of
    /// `heavy_cells_per_table` buckets and a light part of `light_cells`
    /// 8-bit counters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any dimension is zero or `lambda == 0`.
    pub fn new(
        heavy_tables: usize,
        heavy_cells_per_table: usize,
        light_cells: usize,
        lambda: u32,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if heavy_tables == 0 || heavy_cells_per_table == 0 {
            return Err(ConfigError::new("heavy part needs at least one cell"));
        }
        if lambda == 0 {
            return Err(ConfigError::new("eviction threshold lambda must be >= 1"));
        }
        Ok(ElasticSketch {
            heavy: vec![vec![HeavyBucket::EMPTY; heavy_cells_per_table]; heavy_tables],
            heavy_cells_per_table,
            light: CountMinSketch::new(1, light_cells, LIGHT_COUNTER_BITS, seed ^ 0xe1a5)?,
            lambda,
            hashes: HashFamily::new(heavy_tables, seed ^ 0xe1a5_71c5),
            cost: CostRecorder::new(),
        })
    }

    /// Creates the paper's configuration from a memory budget: 3 heavy
    /// sub-tables and a single-array light part with the *same number of
    /// cells* as the heavy part (§IV-A).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget is too small.
    pub fn with_memory(budget: MemoryBudget) -> Result<Self, ConfigError> {
        Self::with_memory_seeded(budget, 0x00e1_a571)
    }

    /// Like [`Self::with_memory`] with an explicit seed.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget is too small.
    pub fn with_memory_seeded(budget: MemoryBudget, seed: u64) -> Result<Self, ConfigError> {
        // c heavy cells + c light cells: c * (169 + 8) bits total.
        let cells = budget.bits() / (HEAVY_CELL_BITS + LIGHT_COUNTER_BITS as usize);
        let per_table = cells / DEFAULT_HEAVY_TABLES;
        if per_table == 0 {
            return Err(ConfigError::new("budget too small for 3 heavy sub-tables"));
        }
        Self::new(
            DEFAULT_HEAVY_TABLES,
            per_table,
            per_table * DEFAULT_HEAVY_TABLES,
            DEFAULT_LAMBDA,
            seed,
        )
    }

    /// Number of heavy sub-tables.
    pub fn heavy_tables(&self) -> usize {
        self.heavy.len()
    }

    /// Buckets per heavy sub-table.
    pub const fn heavy_cells_per_table(&self) -> usize {
        self.heavy_cells_per_table
    }

    /// Occupied heavy buckets.
    pub fn heavy_occupied(&self) -> usize {
        self.heavy
            .iter()
            .flatten()
            .filter(|b| !b.is_empty())
            .count()
    }

    fn light_insert(&mut self, item: &Carried) {
        self.light.add(&item.key, u64::from(item.count));
        self.cost.record_hashes(1);
        self.cost.record_reads(1);
        self.cost.record_writes(1);
    }
}

impl FlowMonitor for ElasticSketch {
    fn process_packet(&mut self, packet: &Packet) {
        self.cost.start_packet();
        let mut item = Carried {
            key: packet.key(),
            count: 1,
            flag: false,
        };

        for stage in 0..self.heavy.len() {
            let idx = fast_range(
                self.hashes.hash(stage, &item.key),
                self.heavy_cells_per_table,
            );
            self.cost.record_hashes(1);
            self.cost.record_reads(1);
            let bucket = self.heavy[stage][idx];
            if bucket.is_empty() {
                self.heavy[stage][idx] = HeavyBucket {
                    key: item.key,
                    vote_pos: item.count,
                    vote_neg: 0,
                    flag: item.flag,
                };
                self.cost.record_writes(1);
                return;
            }
            if bucket.key == item.key {
                let mut updated = bucket;
                updated.vote_pos = updated.vote_pos.saturating_add(item.count);
                self.heavy[stage][idx] = updated;
                self.cost.record_writes(1);
                return;
            }
            // Collision: vote against the incumbent.
            let mut updated = bucket;
            updated.vote_neg = updated.vote_neg.saturating_add(item.count);
            if updated.vote_neg / updated.vote_pos.max(1) >= self.lambda {
                // Evict: the newcomer takes the bucket (flag set: packets of
                // this flow were already sent to the light part along the
                // way); the incumbent is carried onward with its own flag.
                self.heavy[stage][idx] = HeavyBucket {
                    key: item.key,
                    vote_pos: item.count,
                    vote_neg: 1,
                    flag: true,
                };
                self.cost.record_writes(1);
                item = Carried {
                    key: bucket.key,
                    count: bucket.vote_pos,
                    flag: bucket.flag,
                };
            } else {
                self.heavy[stage][idx] = updated;
                self.cost.record_writes(1);
            }
        }
        // Whatever is still carried after the last heavy stage joins the
        // light part.
        self.light_insert(&item);
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        self.heavy
            .iter()
            .flatten()
            .filter(|b| !b.is_empty())
            .map(|b| {
                let light = if b.flag {
                    self.light.query(&b.key) as u32
                } else {
                    0
                };
                FlowRecord::new(b.key, b.vote_pos.saturating_add(light))
            })
            .collect()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        for (stage, table) in self.heavy.iter().enumerate() {
            let bucket =
                table[fast_range(self.hashes.hash(stage, key), self.heavy_cells_per_table)];
            if !bucket.is_empty() && bucket.key == *key {
                let light = if bucket.flag {
                    self.light.query(key) as u32
                } else {
                    0
                };
                return bucket.vote_pos.saturating_add(light);
            }
        }
        self.light.query(key) as u32
    }

    fn estimate_cardinality(&self) -> f64 {
        // §IV-A: "linear counting is used by ElasticSketch to estimate the
        // number of flows in its count-min sketch"; heavy-part residents
        // are counted exactly.
        let cells = self.light.cols();
        let zeros = self.light.first_row_zeros();
        let light = linear_counting_estimate(cells, zeros);
        let light = if light.is_finite() {
            light
        } else {
            let n = cells as f64;
            n * n.ln()
        };
        self.heavy_occupied() as f64 + light
    }

    fn memory_bits(&self) -> usize {
        self.heavy.len() * self.heavy_cells_per_table * HEAVY_CELL_BITS + self.light.logical_bits()
    }

    fn name(&self) -> &'static str {
        "ElasticSketch"
    }

    fn cost(&self) -> CostSnapshot {
        self.cost.snapshot()
    }

    fn reset(&mut self) {
        for table in &mut self.heavy {
            table.fill(HeavyBucket::EMPTY);
        }
        self.light.reset();
        self.cost.reset();
    }

    /// Per-sub-table heavy occupancy, the fraction of heavy buckets whose
    /// flag marks light-part spillover (the §II record-splitting signal),
    /// and the light part's counter occupancy.
    fn introspection(&self) -> Vec<IntrospectMetric> {
        let mut metrics = Vec::with_capacity(self.heavy.len() + 2);
        let mut flagged = 0usize;
        for (i, table) in self.heavy.iter().enumerate() {
            let filled = table.iter().filter(|b| !b.is_empty()).count();
            flagged += table.iter().filter(|b| !b.is_empty() && b.flag).count();
            metrics.push(IntrospectMetric::ratio(
                format!("es_heavy{i}_load"),
                filled as f64 / self.heavy_cells_per_table as f64,
            ));
        }
        let occupied = self.heavy_occupied();
        let flagged_ratio = if occupied == 0 {
            0.0
        } else {
            flagged as f64 / occupied as f64
        };
        metrics.push(IntrospectMetric::ratio("es_flagged_buckets", flagged_ratio));
        let light_cols = self.light.cols();
        metrics.push(IntrospectMetric::ratio(
            "es_light_occupancy",
            (light_cols - self.light.first_row_zeros()) as f64 / light_cols.max(1) as f64,
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
    fn single_flow_exact() {
        let mut es = ElasticSketch::new(3, 64, 192, 8, 1).unwrap();
        for _ in 0..25 {
            es.process_packet(&pkt(1));
        }
        assert_eq!(es.estimate_size(&FlowKey::from_index(1)), 25);
    }

    #[test]
    fn sparse_flows_live_in_heavy_part() {
        let mut es = ElasticSketch::new(3, 1024, 3072, 8, 2).unwrap();
        for flow in 0..200 {
            for _ in 0..2 {
                es.process_packet(&pkt(flow));
            }
        }
        assert_eq!(es.flow_records().len(), 200);
        for flow in 0..200 {
            assert_eq!(es.estimate_size(&FlowKey::from_index(flow)), 2);
        }
    }

    #[test]
    fn eviction_requires_lambda_votes() {
        // One heavy table, one bucket, lambda 8: incumbent with vote+ = 1
        // survives 7 colliding packets and is evicted by the 8th.
        let mut es = ElasticSketch::new(1, 1, 64, 8, 3).unwrap();
        es.process_packet(&pkt(1));
        for _ in 0..7 {
            es.process_packet(&pkt(2));
        }
        // Flow 1 still owns the bucket.
        assert!(es
            .flow_records()
            .iter()
            .any(|r| r.key() == FlowKey::from_index(1)));
        es.process_packet(&pkt(2));
        // Now flow 2 owns it; flow 1 was folded into the light part.
        assert!(es
            .flow_records()
            .iter()
            .any(|r| r.key() == FlowKey::from_index(2)));
        assert!(
            es.estimate_size(&FlowKey::from_index(1)) >= 1,
            "light part remembers"
        );
    }

    #[test]
    fn light_part_overestimates_only() {
        let mut es = ElasticSketch::new(1, 4, 32, 8, 4).unwrap();
        let mut truth = std::collections::HashMap::new();
        for i in 0..2_000u64 {
            let flow = i % 97;
            es.process_packet(&pkt(flow));
            *truth.entry(flow).or_insert(0u32) += 1;
        }
        // Count-min + heavy cannot *undercount* small flows that stayed
        // entirely in the light part unless 8-bit counters saturated; with
        // 2000 packets over 32 cells saturation is possible, so just check
        // the estimates are positive.
        for flow in truth.keys() {
            assert!(es.estimate_size(&FlowKey::from_index(*flow)) > 0);
        }
    }

    #[test]
    fn cardinality_counts_heavy_and_light() {
        let mut es = ElasticSketch::new(3, 2000, 6000, 8, 5).unwrap();
        for flow in 0..3_000 {
            es.process_packet(&pkt(flow));
        }
        let est = es.estimate_cardinality();
        assert!(
            (est - 3_000.0).abs() / 3_000.0 < 0.15,
            "estimate {est} vs 3000"
        );
    }

    #[test]
    fn memory_budget_split_matches_paper() {
        let es = ElasticSketch::with_memory(MemoryBudget::from_bytes(1 << 20).unwrap()).unwrap();
        // Same number of cells in heavy and light parts.
        assert_eq!(
            es.heavy_tables() * es.heavy_cells_per_table(),
            es.light.cols()
        );
        assert!(es.memory_bits() <= 1 << 23);
        assert!(es.memory_bits() > (1 << 23) * 9 / 10);
    }

    #[test]
    fn worst_case_hash_count() {
        let mut es = ElasticSketch::with_memory(MemoryBudget::from_kib(16).unwrap()).unwrap();
        for i in 0..20_000 {
            es.process_packet(&pkt(i % 8_000));
        }
        // 3 heavy stages + 1 light hash = worst case 4 (§IV-A).
        let avg = es.cost().avg_hashes_per_packet();
        assert!((1.0..=4.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn reset_clears() {
        let mut es = ElasticSketch::new(2, 8, 16, 8, 6).unwrap();
        es.process_packet(&pkt(1));
        es.reset();
        assert_eq!(es.flow_records().len(), 0);
        assert_eq!(es.heavy_occupied(), 0);
        assert_eq!(es.estimate_size(&FlowKey::from_index(1)), 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ElasticSketch::new(0, 8, 8, 8, 0).is_err());
        assert!(ElasticSketch::new(1, 0, 8, 8, 0).is_err());
        assert!(ElasticSketch::new(1, 8, 0, 8, 0).is_err());
        assert!(ElasticSketch::new(1, 8, 8, 0, 0).is_err());
    }
}
