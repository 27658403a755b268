//! FlowRadar (Li et al., NSDI 2016) — baseline NetFlow for data centers.
//!
//! FlowRadar keeps a Bloom filter (the *flow filter*) to detect the first
//! packet of each flow, and a *counting table* whose cells hold three
//! fields: `FlowXOR` (XOR of all flow IDs mapped to the cell), `FlowCount`
//! (number of flows mapped to the cell) and `PacketCount` (packets of all
//! those flows). Each flow is mapped to `k_c` cells. At the end of the
//! epoch the well-known **single-flow peeling** decode recovers flows from
//! cells with `FlowCount == 1` and subtracts them everywhere, rippling
//! until nothing pure remains.
//!
//! The HashFlow paper's observation (§II): "the chances that such decoding
//! succeeds drop abruptly if the table is heavily loaded" — visible in
//! Fig. 6/8 as a cliff once flows exceed the decode capacity. This
//! implementation reproduces that cliff.
//!
//! Configuration per §IV-A: 4 hash functions for the Bloom filter, 3 for
//! the counting table, and `bloom bits = 40 x counting cells`.
//!
//! # Examples
//!
//! ```
//! use flowradar::FlowRadar;
//! use hashflow_monitor::{FlowMonitor, MemoryBudget};
//! use hashflow_types::{FlowKey, Packet};
//!
//! let mut fr = FlowRadar::with_memory(MemoryBudget::from_kib(64)?)?;
//! fr.process_packet(&Packet::new(FlowKey::from_index(1), 0, 64));
//! assert_eq!(fr.estimate_size(&FlowKey::from_index(1)), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hashflow_hashing::{fast_range, prefetch_read, HashFamily, XxHash64};
use hashflow_monitor::{CostRecorder, CostSnapshot, FlowMonitor, IntrospectMetric, MemoryBudget};
use hashflow_primitives::BloomFilter;
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet, FLOW_KEY_BITS};
use std::cell::{Ref, RefCell};
use std::collections::HashMap;

/// Bloom-filter hash count (§IV-A).
pub const BLOOM_HASHES: usize = 4;

/// Counting-table hash count (§IV-A).
pub const COUNTING_HASHES: usize = 3;

/// Bloom bits per counting cell (§IV-A: "the number of cells in the bloom
/// filter is 40 times of that in the counting table").
pub const BLOOM_BITS_PER_CELL: usize = 40;

/// FlowCount field width: 16 bits.
pub const FLOW_COUNT_BITS: usize = 16;

/// PacketCount field width: 32 bits.
pub const PACKET_COUNT_BITS: usize = 32;

/// Total footprint of one counting cell plus its Bloom share.
pub const CELL_BITS: usize =
    FLOW_KEY_BITS + FLOW_COUNT_BITS + PACKET_COUNT_BITS + BLOOM_BITS_PER_CELL;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CountingCell {
    flow_xor: FlowKey,
    flow_count: u16,
    packet_count: u32,
}

/// The FlowRadar algorithm. See crate docs.
#[derive(Debug)]
pub struct FlowRadar {
    bloom: BloomFilter,
    cells: Vec<CountingCell>,
    hashes: HashFamily<XxHash64>,
    cost: CostRecorder,
    // Decode output is derived state over an immutable query interface;
    // cache it so estimate_size over many flows decodes once. Invalidated
    // on every update.
    decoded: RefCell<Option<HashMap<FlowKey, u32>>>,
    // Reusable counting-cell index scratch for `process_batch`; carries
    // no observable state (cleared and refilled per batch).
    scratch: Vec<[usize; COUNTING_HASHES]>,
}

impl Clone for FlowRadar {
    fn clone(&self) -> Self {
        FlowRadar {
            bloom: self.bloom.clone(),
            cells: self.cells.clone(),
            hashes: self.hashes.clone(),
            cost: self.cost.clone(),
            decoded: RefCell::new(self.decoded.borrow().clone()),
            scratch: Vec::new(),
        }
    }
}

impl FlowRadar {
    /// Creates a FlowRadar with `counting_cells` cells (Bloom sized at the
    /// paper's 40 bits per cell).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `counting_cells == 0`.
    pub fn new(counting_cells: usize, seed: u64) -> Result<Self, ConfigError> {
        if counting_cells == 0 {
            return Err(ConfigError::new("counting table needs at least one cell"));
        }
        Ok(FlowRadar {
            bloom: BloomFilter::new(
                counting_cells * BLOOM_BITS_PER_CELL,
                BLOOM_HASHES,
                seed ^ 0xf10a_0001,
            )?,
            cells: vec![CountingCell::default(); counting_cells],
            hashes: HashFamily::new(COUNTING_HASHES, seed ^ 0xf10a_0002),
            cost: CostRecorder::new(),
            decoded: RefCell::new(None),
            scratch: Vec::new(),
        })
    }

    /// Creates the paper's configuration from a memory budget
    /// (192 bits per counting cell including the Bloom share).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no cell.
    pub fn with_memory(budget: MemoryBudget) -> Result<Self, ConfigError> {
        Self::with_memory_seeded(budget, 0x00f1_0a0a)
    }

    /// Like [`Self::with_memory`] with an explicit seed.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget holds no cell.
    pub fn with_memory_seeded(budget: MemoryBudget, seed: u64) -> Result<Self, ConfigError> {
        Self::new(budget.bits() / CELL_BITS, seed)
    }

    /// Number of counting-table cells.
    pub fn counting_cells(&self) -> usize {
        self.cells.len()
    }

    /// Runs the single-flow peeling decode and returns the recovered
    /// `(flow, packet count)` map. Results are cached until the next
    /// update.
    ///
    /// Flows whose cells never become pure are *not* recovered — under
    /// heavy load this is most of them, the paper's decode cliff.
    pub fn decode(&self) -> HashMap<FlowKey, u32> {
        self.decoded().clone()
    }

    /// The cached decode, read in place: peeled on the first read after
    /// an update.
    fn decoded(&self) -> Ref<'_, HashMap<FlowKey, u32>> {
        if self.decoded.borrow().is_none() {
            *self.decoded.borrow_mut() = Some(self.peel());
        }
        Ref::map(self.decoded.borrow(), |d| d.as_ref().expect("peeled above"))
    }

    /// The single-flow peeling decode over a copy of the counting table.
    fn peel(&self) -> HashMap<FlowKey, u32> {
        let mut work = self.cells.clone();
        let mut out = HashMap::new();
        // Queue of candidate pure cells; each pop may create new ones.
        let mut queue: Vec<usize> = (0..work.len())
            .filter(|&i| work[i].flow_count == 1)
            .collect();
        while let Some(i) = queue.pop() {
            if work[i].flow_count != 1 {
                continue;
            }
            let flow = work[i].flow_xor;
            let count = work[i].packet_count;
            out.insert(flow, count);
            for j in 0..COUNTING_HASHES {
                let idx = fast_range(self.hashes.hash(j, &flow), work.len());
                let cell = &mut work[idx];
                cell.flow_xor = cell.flow_xor.xor(&flow);
                cell.flow_count = cell.flow_count.saturating_sub(1);
                cell.packet_count = cell.packet_count.saturating_sub(count);
                if cell.flow_count == 1 {
                    queue.push(idx);
                }
            }
        }
        out
    }

    /// The `k_c` counting-table cells `key` maps to. (A plain loop:
    /// `array::from_fn` here cost the batched pass ≈ 5 % at 1 MiB.)
    fn cell_indices(&self, key: &FlowKey) -> [usize; COUNTING_HASHES] {
        let mut cells = [0; COUNTING_HASHES];
        for (j, cell) in cells.iter_mut().enumerate() {
            *cell = self.hashes.bucket(j, key, self.cells.len());
        }
        cells
    }

    /// The per-packet update, behind both ingestion entries: the flow
    /// filter (4 hashes and 4 bit reads, plus 4 writes for a new flow),
    /// then the packet's 3 counting cells, with the packet's cost added
    /// to `cost`.
    #[inline]
    fn update(&mut self, key: &FlowKey, cells: [usize; COUNTING_HASHES], cost: &mut CostSnapshot) {
        let seen = self.bloom.insert(key);
        for &idx in &cells {
            let cell = &mut self.cells[idx];
            if !seen {
                cell.flow_xor = cell.flow_xor.xor(key);
                cell.flow_count = cell.flow_count.saturating_add(1);
            }
            cell.packet_count = cell.packet_count.saturating_add(1);
        }
        let touched = (BLOOM_HASHES + COUNTING_HASHES) as u64;
        cost.packets += 1;
        cost.hashes += touched;
        cost.reads += touched;
        cost.writes += COUNTING_HASHES as u64 + if seen { 0 } else { BLOOM_HASHES as u64 };
    }

    /// Fraction of inserted flows the decode recovered, given the true
    /// number of flows — a direct decode-success diagnostic.
    pub fn decode_success_ratio(&self, true_flows: usize) -> f64 {
        if true_flows == 0 {
            return 1.0;
        }
        self.decoded().len() as f64 / true_flows as f64
    }
}

impl FlowMonitor for FlowRadar {
    fn process_packet(&mut self, packet: &Packet) {
        self.decoded.borrow_mut().take();
        let key = packet.key();
        let mut cost = CostSnapshot::default();
        self.update(&key, self.cell_indices(&key), &mut cost);
        self.cost.absorb(&cost);
    }

    /// The batched hot path: FlowRadar's update is Bloom + `k_c` blind
    /// counter bumps per packet, so it batches naturally. Pass 1 computes
    /// every counting-table index for the batch (pure); pass 2 runs the
    /// same per-packet `update` the scalar entry runs, against prefetched
    /// cells, invalidating the decode cache and flushing costs once per
    /// batch. State and recorded costs are identical to the scalar loop.
    fn process_batch(&mut self, packets: &[Packet]) {
        const PREFETCH_AHEAD: usize = 8;
        // Nothing changes on an empty batch, so the cached decode stays.
        if packets.is_empty() {
            return;
        }
        self.decoded.borrow_mut().take();
        let mut cell_idx = std::mem::take(&mut self.scratch);
        cell_idx.clear();
        cell_idx.extend(packets.iter().map(|p| self.cell_indices(&p.key())));
        let prefetch_row = |cells: &[CountingCell], row: &[usize; COUNTING_HASHES]| {
            for &idx in row {
                prefetch_read(cells, idx);
            }
        };
        for row in cell_idx.iter().take(PREFETCH_AHEAD) {
            prefetch_row(&self.cells, row);
        }
        let mut cost = CostSnapshot::default();
        for (i, p) in packets.iter().enumerate() {
            if let Some(ahead) = cell_idx.get(i + PREFETCH_AHEAD) {
                prefetch_row(&self.cells, ahead);
            }
            self.update(&p.key(), cell_idx[i], &mut cost);
        }
        self.cost.absorb(&cost);
        self.scratch = cell_idx;
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        (self.decoded().iter())
            .map(|(&k, &c)| FlowRecord::new(k, c))
            .collect()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.decoded().get(key).copied().unwrap_or(0)
    }

    fn estimate_cardinality(&self) -> f64 {
        // The flow filter is insensitive to flow sizes; invert its fill
        // ratio (§IV-A: "it uses a bloom filter to count flows").
        let est = self.bloom.estimate_cardinality();
        if est.is_finite() {
            est
        } else {
            // Saturated filter: every bit set. Report its capacity ceiling.
            let bits = self.bloom.bits() as f64;
            bits * bits.ln() / BLOOM_HASHES as f64
        }
    }

    fn memory_bits(&self) -> usize {
        self.cells.len() * (FLOW_KEY_BITS + FLOW_COUNT_BITS + PACKET_COUNT_BITS) + self.bloom.bits()
    }

    fn name(&self) -> &'static str {
        "FlowRadar"
    }

    fn cost(&self) -> CostSnapshot {
        self.cost.snapshot()
    }

    fn reset(&mut self) {
        self.bloom.reset();
        self.cells.fill(CountingCell::default());
        self.cost.reset();
        self.decoded.borrow_mut().take();
    }

    /// The peeling decode starts from pure cells (`FlowCount == 1`), so
    /// the pure-cell ratio is the leading indicator of the decode cliff:
    /// when it hits zero under load, no flow can be recovered.
    fn introspection(&self) -> Vec<IntrospectMetric> {
        let occupied = self.cells.iter().filter(|c| c.flow_count > 0).count();
        let pure = self.cells.iter().filter(|c| c.flow_count == 1).count();
        let pure_ratio = if occupied == 0 {
            0.0
        } else {
            pure as f64 / occupied as f64
        };
        vec![
            IntrospectMetric::ratio("fr_pure_cells", pure_ratio),
            IntrospectMetric::ratio(
                "fr_cell_occupancy",
                occupied as f64 / self.cells.len() as f64,
            ),
            IntrospectMetric::ratio("fr_bloom_fill", self.bloom.fill_ratio()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flow: u64) -> Packet {
        Packet::new(FlowKey::from_index(flow), 0, 64)
    }

    #[test]
    fn light_load_decodes_everything() {
        // 1000 cells, 300 flows: decode succeeds with overwhelming
        // probability (0.3 flows per cell, well under the ≈ 0.82 peeling
        // threshold of three hashes per flow).
        let mut fr = FlowRadar::new(1000, 1).unwrap();
        for flow in 0..300u64 {
            for _ in 0..=flow % 5 {
                fr.process_packet(&pkt(flow));
            }
        }
        let decoded = fr.decode();
        assert_eq!(decoded.len(), 300);
        for flow in 0..300u64 {
            assert_eq!(decoded[&FlowKey::from_index(flow)], (flow % 5 + 1) as u32);
        }
    }

    #[test]
    fn heavy_load_decode_collapses() {
        // 500 cells, 5000 flows: far beyond decode capacity; recovery must
        // collapse (the paper's cliff).
        let mut fr = FlowRadar::new(500, 2).unwrap();
        for flow in 0..5_000 {
            fr.process_packet(&pkt(flow));
        }
        assert!(
            fr.decode_success_ratio(5_000) < 0.05,
            "ratio {}",
            fr.decode_success_ratio(5_000)
        );
    }

    #[test]
    fn counts_are_exact_for_decoded_flows() {
        let mut fr = FlowRadar::new(2000, 3).unwrap();
        let mut truth = std::collections::HashMap::new();
        for i in 0..4_000u64 {
            let flow = i % 900;
            fr.process_packet(&pkt(flow));
            *truth.entry(flow).or_insert(0u32) += 1;
        }
        let decoded = fr.decode();
        for (flow, count) in decoded {
            let idx = (0..900)
                .find(|&f| FlowKey::from_index(f) == flow)
                .expect("decoded flow must be real");
            assert_eq!(count, truth[&idx], "flow {idx}");
        }
    }

    #[test]
    fn estimate_size_uses_decode() {
        let mut fr = FlowRadar::new(512, 4).unwrap();
        for _ in 0..9 {
            fr.process_packet(&pkt(7));
        }
        assert_eq!(fr.estimate_size(&FlowKey::from_index(7)), 9);
        assert_eq!(fr.estimate_size(&FlowKey::from_index(8)), 0);
    }

    #[test]
    fn decode_cache_invalidated_by_updates() {
        let mut fr = FlowRadar::new(512, 5).unwrap();
        fr.process_packet(&pkt(1));
        assert_eq!(fr.estimate_size(&FlowKey::from_index(1)), 1);
        fr.process_packet(&pkt(1));
        assert_eq!(fr.estimate_size(&FlowKey::from_index(1)), 2);
    }

    #[test]
    fn cardinality_from_bloom_is_size_insensitive() {
        let mut fr = FlowRadar::new(4000, 6).unwrap();
        // 1000 flows with wildly different sizes.
        for flow in 0..1_000u64 {
            for _ in 0..(1 + (flow % 50) * 3) {
                fr.process_packet(&pkt(flow));
            }
        }
        let est = fr.estimate_cardinality();
        assert!((est - 1_000.0).abs() / 1_000.0 < 0.1, "estimate {est}");
    }

    #[test]
    fn seven_hashes_per_packet() {
        let mut fr = FlowRadar::new(256, 7).unwrap();
        for i in 0..1_000 {
            fr.process_packet(&pkt(i));
        }
        // §IV-A: "FlowRadar needs to compute 7 hash results".
        assert_eq!(fr.cost().avg_hashes_per_packet(), 7.0);
    }

    #[test]
    fn memory_accounting_matches_cell_math() {
        let fr = FlowRadar::with_memory(MemoryBudget::from_bytes(1 << 20).unwrap()).unwrap();
        assert_eq!(fr.counting_cells(), (1 << 23) / CELL_BITS);
        assert!(fr.memory_bits() <= 1 << 23);
        assert!(fr.memory_bits() > (1 << 23) * 9 / 10);
    }

    #[test]
    fn reset_clears() {
        let mut fr = FlowRadar::new(64, 8).unwrap();
        fr.process_packet(&pkt(1));
        fr.reset();
        assert_eq!(fr.flow_records().len(), 0);
        assert_eq!(fr.estimate_cardinality(), 0.0);
        assert_eq!(fr.cost().packets, 0);
    }

    #[test]
    fn zero_cells_rejected() {
        assert!(FlowRadar::new(0, 0).is_err());
    }

    #[test]
    fn decode_is_deterministic() {
        let build = || {
            let mut fr = FlowRadar::new(800, 10).unwrap();
            for i in 0..600u64 {
                fr.process_packet(&pkt(i));
            }
            let mut records = fr.flow_records();
            records.sort_by_key(|r| r.key());
            records
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn reuse_after_reset_decodes_fresh_epoch() {
        let mut fr = FlowRadar::new(512, 11).unwrap();
        for i in 0..200u64 {
            fr.process_packet(&pkt(i));
        }
        assert_eq!(fr.flow_records().len(), 200);
        fr.reset();
        for i in 1_000..1_100u64 {
            fr.process_packet(&pkt(i));
        }
        let records = fr.flow_records();
        assert_eq!(records.len(), 100);
        assert!(
            records.iter().all(|r| r.key() != FlowKey::from_index(5)),
            "old epoch leaked"
        );
    }

    #[test]
    fn bloom_false_positive_undercounts_not_corrupts() {
        // Even at heavy bloom load, decoded counts for recovered flows are
        // exact or the flow is simply not recovered; never a wrong count
        // for a wrong key pairing that passes key equality.
        let mut fr = FlowRadar::new(4_000, 12).unwrap();
        let mut truth = std::collections::HashMap::new();
        for i in 0..3_000u64 {
            let flow = i % 1_500;
            fr.process_packet(&pkt(flow));
            *truth.entry(FlowKey::from_index(flow)).or_insert(0u32) += 1;
        }
        for rec in fr.flow_records() {
            assert_eq!(truth.get(&rec.key()), Some(&rec.count()));
        }
    }

    #[test]
    fn clone_preserves_state() {
        let mut fr = FlowRadar::new(128, 9).unwrap();
        fr.process_packet(&pkt(3));
        let copy = fr.clone();
        assert_eq!(copy.estimate_size(&FlowKey::from_index(3)), 1);
    }

    #[test]
    fn empty_batch_keeps_the_cached_decode() {
        let mut fr = FlowRadar::new(256, 4).unwrap();
        fr.process_batch(&[pkt(1), pkt(2), pkt(2)]);
        let decoded = fr.decode();
        fr.process_batch(&[]);
        assert_eq!(fr.decoded.borrow().as_ref(), Some(&decoded));
        assert_eq!(fr.cost().packets, 3);
        fr.process_batch(&[pkt(3)]);
        assert!(fr.decoded.borrow().is_none());
        assert_eq!(fr.decode()[&FlowKey::from_index(3)], 1);
    }
}
