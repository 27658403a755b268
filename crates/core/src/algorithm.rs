use crate::ancillary::{AncillaryOutcome, AncillaryTable};
use crate::config::HashFlowConfig;
use crate::probes::{HashFlowPlanner, PlannedProbes, Probes};
use crate::scheme::{MainTable, OpCount, ProbeOutcome};
use hashflow_hashing::{probe_hash_low, probe_slot, HashLanes, XxHash64};
use hashflow_monitor::{
    BatchPlan, BatchPlanner, CostRecorder, CostSnapshot, EpochSnapshot, FlowMonitor, FlowTracer,
    Instruments, IntrospectMetric, MemoryBudget, MergeableMonitor, StageTally,
};
use hashflow_types::{ConfigError, FlowKey, FlowRecord, Packet, RECORD_BITS};

/// How many packets ahead of the update cursor a batch's probe plans are
/// built and their table cells prefetched: far enough that the lines
/// arrive before the probe, near enough that they are not evicted again
/// first.
pub const PREFETCH_AHEAD: usize = 8;

/// The Algorithm 1 stage a packet landed in, as a trace span names it.
#[derive(Clone, Copy)]
enum Placement {
    MainInsert,
    MainHit,
    Ancillary,
    Promotion,
}

/// Span names of the [`Placement`] stages, in declaration order.
const PLACEMENTS: [&str; 4] = ["main_insert", "main_hit", "ancillary", "promotion"];

/// Stage of the span [`FlowMonitor::seal`] records for each sampled flow:
/// how many of its packets landed in each [`PLACEMENTS`] stage.
const PLACEMENT_SUMMARY: &str = "placement";

/// The HashFlow algorithm (Algorithm 1 of the paper).
///
/// Per-packet update:
///
/// 1. **Collision resolution** — probe the main table with `h_1..h_d`:
///    insert into the first empty bucket, or increment on a key match,
///    remembering the *sentinel* (smallest record seen) otherwise.
/// 2. **Ancillary update** — on main-table collision, locate `A[g_1(f)]`:
///    an empty or differently-keyed bucket is overwritten with
///    `(digest, 1)`; a matching bucket with count below the sentinel's is
///    incremented.
/// 3. **Record promotion** — a matching bucket whose count has reached the
///    sentinel's is promoted: the sentinel is replaced by
///    `(f, A[idx].count + 1)`, rescuing the flow that turned out to be an
///    elephant.
///
/// Queries: [`FlowMonitor::flow_records`] reports the (exact) main-table
/// records; [`FlowMonitor::estimate_size`] falls back to the ancillary
/// count on digest match; [`FlowMonitor::estimate_cardinality`] combines
/// the main-table occupancy with linear counting over the ancillary table
/// (§IV-A).
///
/// # Examples
///
/// ```
/// use hashflow_core::{HashFlow, HashFlowConfig};
/// use hashflow_monitor::FlowMonitor;
/// use hashflow_types::{FlowKey, Packet};
///
/// let mut hf = HashFlow::new(HashFlowConfig::builder().main_cells(1024).build()?)?;
/// hf.process_packet(&Packet::new(FlowKey::from_index(1), 0, 64));
/// assert_eq!(hf.estimate_size(&FlowKey::from_index(1)), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HashFlow {
    config: HashFlowConfig,
    main: MainTable,
    ancillary: AncillaryTable,
    cost: CostRecorder,
    promotions: u64,
    ancillary_replacements: u64,
    // Reusable scratch of `process_batch`, refilled per batch and carrying
    // no observable state: pass 1's probe words and sampling verdicts.
    // Boxed, so that taking it out for a batch moves one pointer: moving
    // the slab itself is a `memcpy` call, which cost `process_packet`
    // 8–20 % per packet.
    probes: Option<Box<Probes>>,
    /// Optional sampled flow-path tracer: a sampled flow's first packet
    /// in each Algorithm 1 stage of an epoch (`main_insert`, `main_hit`,
    /// `ancillary`, `promotion`) emits a span, the rest are counted in
    /// `placements`, and the seal emits one `placement` span per sampled
    /// flow with the counts. Measurement state is unaffected; the scalar
    /// and batched paths emit identical spans.
    tracer: Option<FlowTracer>,
    placements: StageTally<4>,
}

impl HashFlow {
    /// Creates a HashFlow instance from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration's geometry cannot be
    /// realized (e.g. fewer main-table cells than pipeline stages).
    pub fn new(config: HashFlowConfig) -> Result<Self, ConfigError> {
        Ok(HashFlow {
            main: MainTable::new(config.scheme(), config.main_cells(), config.seed())?,
            ancillary: AncillaryTable::new(
                config.ancillary_cells(),
                config.digest_bits(),
                config.ancillary_counter_bits(),
                config.seed().wrapping_add(1),
            )?,
            config,
            cost: CostRecorder::new(),
            promotions: 0,
            ancillary_replacements: 0,
            probes: None,
            tracer: None,
            placements: StageTally::new(PLACEMENTS),
        })
    }

    /// Creates a HashFlow instance with §IV-A defaults from a memory budget.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget is too small.
    pub fn with_memory(budget: MemoryBudget) -> Result<Self, ConfigError> {
        Self::new(HashFlowConfig::with_memory(budget)?)
    }

    /// The configuration this instance was built from.
    pub const fn config(&self) -> &HashFlowConfig {
        &self.config
    }

    /// Main-table utilization (fraction of buckets occupied) — the quantity
    /// the §III-B model predicts.
    pub fn main_table_utilization(&self) -> f64 {
        self.main.utilization()
    }

    /// Number of record promotions performed so far.
    pub const fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Number of ancillary-table replacements (evicted summaries) so far.
    pub const fn ancillary_replacements(&self) -> u64 {
        self.ancillary_replacements
    }

    /// Counts a packet of an already-sampled flow in its stage, with a
    /// span if it is the flow's first there this epoch. Kept out of line:
    /// one packet in a thousand gets here, and the tally would otherwise
    /// sit in the middle of the ingestion loop.
    #[cold]
    #[inline(never)]
    fn trace_stage(&mut self, key: &FlowKey, stage: Placement, count: u32) {
        if let Some(t) = &self.tracer {
            self.placements
                .note(t, key, stage as usize, || format!("count {count}"));
        }
    }

    /// Clears everything an epoch leaves outside the main table — the
    /// ancillary table, the cost counters, the promotion and replacement
    /// counts, the trace tally — for [`FlowMonitor::reset`] and
    /// [`FlowMonitor::seal`] alike.
    fn reset_side_state(&mut self) {
        self.ancillary.reset();
        self.cost.reset();
        self.promotions = 0;
        self.ancillary_replacements = 0;
        self.placements.clear();
    }

    /// Read-only view of the main table.
    pub const fn main_table(&self) -> &MainTable {
        &self.main
    }

    /// Read-only view of the ancillary table.
    pub const fn ancillary_table(&self) -> &AncillaryTable {
        &self.ancillary
    }

    /// The ancillary coordinates of `key`: its `g_1` slot and the digest
    /// derived from its `h_1` hash (Algorithm 1, lines 14–15), for size
    /// queries and the merge path; ingestion reads the same pair out of
    /// the packet's probe plan.
    fn ancillary_coords(&self, key: &FlowKey) -> (usize, u32) {
        (
            self.ancillary.slot_of(key),
            self.ancillary.digest_of(self.main.first_hash(key)),
        )
    }

    /// The probe lanes of pass 1, `h_1 .. h_d` then `g_1`: each hash
    /// function with the slot range its probe lands in.
    fn probe_lanes(&self) -> impl Iterator<Item = (&XxHash64, (u32, u32))> + Clone {
        (self.main.probe_lanes()).chain([self.ancillary.probe_lane()])
    }

    /// Whether `plan` can stand in for this monitor's own pass 1 over a
    /// batch of `rows` packets: the same hash functions over the same slot
    /// ranges, as many rows, and, with a tracer attached, verdicts drawn
    /// at its rate.
    fn accepts(&self, plan: &PlannedProbes, rows: usize) -> bool {
        plan.probes.words.rows() == rows
            && (plan.lanes.iter().map(|(hash, range)| (hash, *range))).eq(self.probe_lanes())
            && (self.tracer.as_ref()).is_none_or(|t| plan.sample_one_in == Some(t.sample_one_in()))
    }

    /// Hints every cell the probe plan of packet `i` names toward L1.
    #[inline(always)]
    fn prefetch_plan(&self, plans: &HashLanes, depth: usize, i: usize) {
        for m in 0..depth {
            self.main.prefetch(probe_slot(plans.word(m, i)));
        }
        self.ancillary
            .prefetch_slot(probe_slot(plans.word(depth, i)));
    }

    /// One step of Algorithm 1 for packet `i` of a batch, of flow `key`,
    /// on its probe plan (`depth` main-table lanes, then the ancillary
    /// one); `traced` is its flow's sampling verdict. The packet pays one
    /// data-dependent branch, settled in the main table or lost to it;
    /// only a traced flow tells an insert from a hit. Returns the step's
    /// cost under the lazy schedule: the probes made, plus one hash
    /// (`g_1`; the digest reuses `h_1`), one read and one write when the
    /// packet goes on to the ancillary phase.
    #[inline(always)]
    fn step(
        &mut self,
        key: FlowKey,
        plans: &HashLanes,
        depth: usize,
        i: usize,
        traced: bool,
    ) -> OpCount {
        // Phase 1: collision resolution in the main table (lines 2-13).
        let path = (0..depth).map(|m| probe_slot(plans.word(m, i)));
        let (outcome, mut ops) = self.main.resolve(&key, path);
        let ProbeOutcome::Collision {
            sentinel,
            min_count,
        } = outcome
        else {
            if traced {
                let (stage, count) = match outcome {
                    ProbeOutcome::Incremented(count) => (Placement::MainHit, count),
                    _ => (Placement::MainInsert, 1),
                };
                self.trace_stage(&key, stage, count);
            }
            return ops;
        };
        // Phases 2+3: ancillary table and promotion (lines 14-23); every
        // outcome writes exactly one cell.
        let slot = probe_slot(plans.word(depth, i));
        let h1_low = probe_hash_low(plans.word(0, i));
        let digest = self.ancillary.digest_of(u64::from(h1_low));
        match self.ancillary.update(slot, digest, min_count) {
            AncillaryOutcome::Counted { count, evicted } => {
                self.ancillary_replacements += u64::from(evicted);
                if traced {
                    self.trace_stage(&key, Placement::Ancillary, count);
                }
            }
            AncillaryOutcome::CaughtUp(count) => self.caught_up(key, slot, sentinel, count, traced),
        }
        ops += OpCount {
            hashes: 1,
            reads: 1,
            writes: 1,
        };
        ops
    }

    /// Pass 2 ([`Self::run`]): one Algorithm 1 step per packet while,
    /// [`PREFETCH_AHEAD`] packets further on, the cells each plan names
    /// are prefetched; `sampled` holds the verdict of every packet, or
    /// nothing when none is traced. One source body compiled once per
    /// depth `D` in `1..=4`, where the depth is a constant and the `d`
    /// reads of a step unroll into straight-line code, and once with
    /// `D = 0` for every other depth, read at run time from `depth`.
    #[inline(always)]
    fn steps<const D: usize>(
        &mut self,
        packets: &[Packet],
        plans: &HashLanes,
        sampled: &[bool],
        depth: usize,
    ) -> OpCount {
        let depth = if D == 0 { depth } else { D };
        for i in 0..PREFETCH_AHEAD.min(packets.len()) {
            self.prefetch_plan(plans, depth, i);
        }
        let mut ops = OpCount::default();
        for (i, packet) in packets.iter().enumerate() {
            let ahead = i + PREFETCH_AHEAD;
            if ahead < packets.len() {
                self.prefetch_plan(plans, depth, ahead);
            }
            let traced = sampled.get(i) == Some(&true);
            ops += self.step(packet.key(), plans, depth, i, traced);
        }
        ops
    }

    /// The in-place ingestion path: pass 1 ([`Probes::fill`]) into the
    /// monitor's own scratch, then [`Self::run`]. Always inlined, so that
    /// `process_packet` is compiled for a batch of exactly one.
    #[inline(always)]
    fn ingest(&mut self, packets: &[Packet]) {
        if packets.is_empty() {
            return;
        }
        let mut probes = self.probes.take().unwrap_or_default();
        probes.fill(packets, self.probe_lanes(), self.tracer.as_ref());
        self.run(packets, &probes);
        self.probes = Some(probes);
    }

    /// The one body after pass 1, wherever pass 1 ran: pass 2
    /// ([`Self::steps`], picked once per batch by depth) runs the
    /// Algorithm 1 steps on `probes`. Operation counts fold into one cost
    /// flush and count Algorithm 1's lazy schedule (Fig. 11): batching
    /// changes when costs are recorded, never what.
    #[inline(always)]
    fn run(&mut self, packets: &[Packet], probes: &Probes) {
        if packets.is_empty() {
            return;
        }
        let plans = &probes.words;
        // Every `word(m, i)` below stays inside the lane it names.
        let depth = self.main.scheme().depth();
        assert_eq!((plans.lanes(), plans.rows()), (depth + 1, packets.len()));
        // Verdicts count only with a tracer to record the spans, and then
        // there is one per packet.
        let sampled = match &self.tracer {
            Some(_) => &probes.sampled[..],
            None => &[],
        };
        assert!(self.tracer.is_none() || sampled.len() == packets.len());
        let ops = match depth {
            1 => self.steps::<1>(packets, plans, sampled, depth),
            2 => self.steps::<2>(packets, plans, sampled, depth),
            3 => self.steps::<3>(packets, plans, sampled, depth),
            4 => self.steps::<4>(packets, plans, sampled, depth),
            _ => self.steps::<0>(packets, plans, sampled, depth),
        };
        self.cost.absorb(&CostSnapshot {
            packets: packets.len() as u64,
            hashes: ops.hashes,
            reads: ops.reads,
            writes: ops.writes,
        });
    }

    /// Algorithm 1, lines 20–23, for a packet of `key` whose ancillary
    /// summary at `slot` (count `count`) caught up with the sentinel
    /// record: promote the flow into the sentinel's bucket, or, in the
    /// promotion-disabled ablation, keep counting in place. Either way one
    /// cell is written. Out of line: a few packets in a hundred get here.
    #[cold]
    #[inline(never)]
    fn caught_up(&mut self, key: FlowKey, slot: usize, sentinel: usize, count: u32, traced: bool) {
        let (stage, count) = if self.config.promotion_enabled() {
            // Phase 3: record promotion (lines 21-23). The flow's count
            // caught up with the sentinel: re-insert it into the main
            // table with count + 1 (the current packet), evicting the
            // sentinel record.
            let count = count.saturating_add(1);
            self.main.replace(sentinel, key, count);
            self.promotions += 1;
            (Placement::Promotion, count)
        } else {
            // Ablation: keep counting in place, saturating.
            (Placement::Ancillary, self.ancillary.increment(slot))
        };
        if traced {
            self.trace_stage(&key, stage, count);
        }
    }
}

impl FlowMonitor for HashFlow {
    /// A batch of one: the same plan, the same step.
    fn process_packet(&mut self, packet: &Packet) {
        self.ingest(std::slice::from_ref(packet));
    }

    /// A real batch: pass 1 over all of it, then the prefetch window.
    fn process_batch(&mut self, packets: &[Packet]) {
        self.ingest(packets);
    }

    /// Pass 1 on the planner's thread, with copies of this monitor's hash
    /// functions and its tracer as they are now.
    fn planner(&self) -> Option<Box<dyn BatchPlanner>> {
        Some(Box::new(HashFlowPlanner {
            lanes: (self.probe_lanes())
                .map(|(hash, range)| (*hash, range))
                .collect(),
            tracer: self.tracer.clone(),
        }))
    }

    /// Pass 2 on a plan's probes when they are this monitor's: the same
    /// hash functions over the same slot ranges, one row per packet, and
    /// with a tracer attached, verdicts drawn at its rate. Pass 1 in place
    /// otherwise.
    fn process_planned(&mut self, packets: &[Packet], plan: &BatchPlan) {
        match plan.get::<PlannedProbes>() {
            Some(planned) if self.accepts(planned, packets.len()) => {
                self.run(packets, &planned.probes);
            }
            _ => self.ingest(packets),
        }
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        let mut records = Vec::with_capacity(self.main.occupied());
        records.extend(self.main.records());
        records
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        if let Some(count) = self.main.lookup(key) {
            return count;
        }
        let (slot, digest) = self.ancillary_coords(key);
        self.ancillary.count_if_match(slot, digest).unwrap_or(0)
    }

    fn estimate_cardinality(&self) -> f64 {
        // Flows resident in the main table are counted exactly; the
        // ancillary table's occupancy is inverted with linear counting.
        // When the ancillary bitmap saturates the estimator diverges; we
        // clamp to its usable ceiling n*ln(n) (Whang et al.).
        let anc = self.ancillary.linear_counting_estimate();
        let n = self.ancillary.len() as f64;
        let anc = if anc.is_finite() { anc } else { n * n.ln() };
        self.main.occupied() as f64 + anc
    }

    fn memory_bits(&self) -> usize {
        self.main.len() * RECORD_BITS + self.ancillary.memory_bits()
    }

    fn name(&self) -> &'static str {
        "HashFlow"
    }

    fn cost(&self) -> CostSnapshot {
        self.cost.snapshot()
    }

    fn reset(&mut self) {
        self.main.reset();
        self.reset_side_state();
    }

    /// [`EpochSnapshot::capture`] and [`Self::reset`] in one sweep of the
    /// main table: the scalars are read first, then each occupied bucket
    /// moves into the report and is cleared in the same visit
    /// ([`MainTable::drain`]).
    fn seal(&mut self) -> EpochSnapshot {
        let cardinality = self.estimate_cardinality();
        let cost = self.cost();
        let introspection = self.introspection();
        let records = self.main.drain();
        if let Some(t) = &self.tracer {
            self.placements.seal(t, PLACEMENT_SUMMARY);
        }
        self.reset_side_state();
        EpochSnapshot::from_parts(0, None, None, records, cardinality, cost)
            .with_introspection(introspection)
    }

    /// Saturation of Algorithm 1's two tables plus its inter-stage
    /// traffic: the main-table load factor the §III-B model predicts, the
    /// ancillary load factor, promotions (phase 3 firing) and
    /// digest-collision evictions (ancillary summaries overwritten by a
    /// different digest).
    fn introspection(&self) -> Vec<IntrospectMetric> {
        let ancillary_load = self.ancillary.occupied() as f64 / self.ancillary.len().max(1) as f64;
        vec![
            IntrospectMetric::ratio("main_table_load", self.main_table_utilization()),
            IntrospectMetric::ratio("ancillary_load", ancillary_load),
            IntrospectMetric::count("promotions", self.promotions),
            IntrospectMetric::count("digest_collisions", self.ancillary_replacements),
        ]
    }

    /// Takes the tracer: from here on a sampled flow records the
    /// Algorithm 1 stages its packets land in, one span per stage and
    /// epoch plus the seal's `placement` summary.
    fn instrument(&mut self, instruments: &Instruments) {
        self.tracer = instruments.tracer.clone();
    }
}

impl MergeableMonitor for HashFlow {
    /// Folds another HashFlow's state into this one.
    ///
    /// Main-table records from `other` are re-inserted under the same
    /// non-evicting preference order the live algorithm uses; a record
    /// that loses a full collision (the smaller count) is folded into the
    /// ancillary table rather than dropped. Ancillary summaries merge
    /// slot-wise. Both instances must share a configuration (geometry and
    /// seeds) — the [`MergeableMonitor`] contract.
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(
            (self.main.len(), self.ancillary.len(), self.config.seed()),
            (other.main.len(), other.ancillary.len(), other.config.seed()),
            "cannot merge HashFlow instances of different configuration"
        );
        // Ancillary state first, so main-table losers below land in the
        // already-merged summaries.
        self.ancillary.merge_from(&other.ancillary);
        for record in other.main.records() {
            if let Some(loser) = self.main.insert_record(record) {
                let (slot, digest) = self.ancillary_coords(&loser.key());
                match self.ancillary.entry(slot) {
                    Some((resident, _)) if resident == digest => {
                        self.ancillary.add_count(slot, loser.count());
                    }
                    Some((_, count)) if count < loser.count() => {
                        self.ancillary_replacements += 1;
                        self.ancillary.store_counted(slot, digest, loser.count());
                    }
                    Some(_) => {}
                    None => self.ancillary.store_counted(slot, digest, loser.count()),
                }
            }
        }
        self.cost.absorb(&other.cost.snapshot());
        self.promotions += other.promotions;
        self.ancillary_replacements += other.ancillary_replacements;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::TableScheme;

    fn pkt(flow: u64) -> Packet {
        Packet::new(FlowKey::from_index(flow), 0, 64)
    }

    fn small(main_cells: usize) -> HashFlow {
        HashFlow::new(
            HashFlowConfig::builder()
                .main_cells(main_cells)
                .scheme(TableScheme::MultiHash { depth: 2 })
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn exact_counts_without_pressure() {
        let mut hf = small(4096);
        for flow in 0..100u64 {
            for _ in 0..=flow % 7 {
                hf.process_packet(&pkt(flow));
            }
        }
        for flow in 0..100u64 {
            assert_eq!(
                hf.estimate_size(&FlowKey::from_index(flow)),
                (flow % 7 + 1) as u32
            );
        }
        assert_eq!(hf.flow_records().len(), 100);
    }

    #[test]
    fn unknown_flow_estimates_zero() {
        let hf = small(64);
        assert_eq!(hf.estimate_size(&FlowKey::from_index(404)), 0);
    }

    #[test]
    fn promotion_rescues_elephants() {
        // Tiny main table so collisions are guaranteed; one elephant flow
        // keeps sending while mice hold the main table.
        let mut hf = small(8);
        // Fill the main table with mice (1 packet each).
        for flow in 0..64u64 {
            hf.process_packet(&pkt(flow));
        }
        // The elephant is very likely in the ancillary table now; pump
        // packets until the promotion rule moves it to the main table.
        let elephant = 10_000u64;
        for _ in 0..100 {
            hf.process_packet(&pkt(elephant));
        }
        assert!(hf.promotions() > 0, "expected at least one promotion");
        let records = hf.flow_records();
        let found = records
            .iter()
            .find(|r| r.key() == FlowKey::from_index(elephant));
        let rec = found.expect("elephant must be promoted into the main table");
        assert!(
            rec.count() >= 8,
            "promoted count {} should be near the true 100",
            rec.count()
        );
    }

    #[test]
    fn promoted_count_close_to_truth() {
        // Promotion writes A.count + 1; further packets increment exactly,
        // so the final count must be <= truth (no overestimation for the
        // promoted flow) and within the sentinel min of it.
        let mut hf = small(8);
        for flow in 0..64u64 {
            hf.process_packet(&pkt(flow));
        }
        let elephant = 9_999u64;
        let truth = 200u32;
        for _ in 0..truth {
            hf.process_packet(&pkt(elephant));
        }
        let est = hf.estimate_size(&FlowKey::from_index(elephant));
        assert!(est <= truth, "estimate {est} must not exceed truth {truth}");
        assert!(est >= truth / 2, "estimate {est} suspiciously low");
    }

    #[test]
    fn main_records_are_never_split() {
        // Feed an adversarial interleaving; every main-table record must be
        // consistent with at most the true packet count of its flow.
        let mut hf = small(128);
        let mut truth = std::collections::HashMap::new();
        for i in 0..5000u64 {
            let flow = i % 700;
            hf.process_packet(&pkt(flow));
            *truth.entry(flow).or_insert(0u32) += 1;
        }
        for rec in hf.flow_records() {
            // Reverse-engineer the flow index is impossible; instead check
            // against every candidate's truth via the estimate API.
            let est = hf.estimate_size(&rec.key());
            assert_eq!(est, rec.count());
        }
        let _ = truth;
    }

    #[test]
    fn cardinality_tracks_flow_count() {
        let mut hf = HashFlow::new(
            HashFlowConfig::builder()
                .main_cells(4000)
                .ancillary_cells(4000)
                .build()
                .unwrap(),
        )
        .unwrap();
        for flow in 0..3000u64 {
            hf.process_packet(&pkt(flow));
        }
        let est = hf.estimate_cardinality();
        assert!(
            (est - 3000.0).abs() / 3000.0 < 0.15,
            "cardinality estimate {est} too far from 3000"
        );
    }

    #[test]
    fn cost_bounds_match_paper() {
        // Worst case 4 hash computations (3 main + 1 ancillary); best case 1.
        let mut hf = HashFlow::with_memory(MemoryBudget::from_kib(16).unwrap()).unwrap();
        for i in 0..20_000u64 {
            hf.process_packet(&pkt(i % 7_000));
        }
        let snap = hf.cost();
        let avg_hashes = snap.avg_hashes_per_packet();
        assert!((1.0..=4.0).contains(&avg_hashes), "avg {avg_hashes}");
        assert!(snap.avg_memory_accesses_per_packet() <= 6.0);
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut hf = small(32);
        for i in 0..100 {
            hf.process_packet(&pkt(i));
        }
        hf.reset();
        assert_eq!(hf.flow_records().len(), 0);
        assert_eq!(hf.cost().packets, 0);
        assert_eq!(hf.promotions(), 0);
        assert_eq!(hf.estimate_cardinality(), 0.0);
    }

    #[test]
    fn memory_accounting_matches_config() {
        let hf = HashFlow::with_memory(MemoryBudget::from_bytes(1 << 20).unwrap()).unwrap();
        assert!(hf.memory_bits() <= 1 << 23);
        assert!(hf.memory_bits() > (1 << 23) * 9 / 10, "budget underused");
    }

    #[test]
    fn merge_preserves_what_each_shard_retained() {
        // Two shards over disjoint flow sets with ample memory: whatever
        // estimate the owning shard reports before the merge, the merged
        // monitor reports identically afterwards (the merge itself loses
        // nothing when the main table absorbs every record).
        let mut a = small(4096);
        let mut b = small(4096);
        for flow in 0..200u64 {
            let m = if flow % 2 == 0 { &mut a } else { &mut b };
            for _ in 0..=(flow % 5) {
                m.process_packet(&pkt(flow));
            }
        }
        let premerge: Vec<u32> = (0..200u64)
            .map(|flow| {
                let m = if flow % 2 == 0 { &a } else { &b };
                m.estimate_size(&FlowKey::from_index(flow))
            })
            .collect();
        let (a_records, b_records) = (a.flow_records().len(), b.flow_records().len());
        a.merge_from(&b);
        assert_eq!(a.flow_records().len(), a_records + b_records);
        for flow in 0..200u64 {
            assert_eq!(
                a.estimate_size(&FlowKey::from_index(flow)),
                premerge[flow as usize],
                "flow {flow}"
            );
        }
        assert_eq!(
            a.cost().packets,
            (0..200u64).map(|f| f % 5 + 1).sum::<u64>()
        );
    }

    #[test]
    fn merge_under_pressure_keeps_heavy_records() {
        // Tiny tables: merging must prefer large counts, and every
        // surviving main-table record keeps its exact count.
        let mut a = small(8);
        let mut b = small(8);
        for flow in 0..32u64 {
            a.process_packet(&pkt(2 * flow));
            b.process_packet(&pkt(2 * flow + 1));
        }
        for _ in 0..50 {
            b.process_packet(&pkt(1001)); // odd: lands in b's partition
        }
        let b_heavy = b.estimate_size(&FlowKey::from_index(1001));
        let before: std::collections::HashMap<_, _> = a
            .flow_records()
            .into_iter()
            .map(|r| (r.key(), r.count()))
            .collect();
        a.merge_from(&b);
        // The elephant from b survives the merge with at least its count.
        assert!(
            a.estimate_size(&FlowKey::from_index(1001)) >= b_heavy.min(8),
            "elephant lost in merge"
        );
        // No record invented a count out of thin air.
        for rec in a.flow_records() {
            if let Some(&prev) = before.get(&rec.key()) {
                assert!(rec.count() >= prev.min(1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "different configuration")]
    fn merge_of_mismatched_geometry_panics() {
        let mut a = small(64);
        let b = small(128);
        a.merge_from(&b);
    }

    #[test]
    fn merged_cardinality_combines_by_sum() {
        let estimates = [100.0, 120.0, 80.0, 95.0];
        assert_eq!(HashFlow::combine_cardinality(&estimates), 395.0);
    }

    #[test]
    fn batched_ingest_is_state_identical_to_scalar() {
        for scheme in [
            TableScheme::MultiHash { depth: 3 },
            TableScheme::Pipelined {
                depth: 3,
                alpha: 0.7,
            },
        ] {
            let build = || {
                HashFlow::new(
                    HashFlowConfig::builder()
                        .main_cells(64)
                        .scheme(scheme)
                        .build()
                        .unwrap(),
                )
                .unwrap()
            };
            // Heavy collision pressure so the ancillary and promotion
            // phases are exercised, not just clean inserts.
            let packets: Vec<Packet> = (0..2_000u64).map(|i| pkt(i % 300)).collect();
            let mut scalar = build();
            for p in &packets {
                scalar.process_packet(p);
            }
            let mut batched = build();
            // Mixed batch sizes: empty, singleton, odd tail.
            batched.process_batch(&[]);
            let (head, rest) = packets.split_at(1);
            batched.process_batch(head);
            for chunk in rest.chunks(77) {
                batched.process_batch(chunk);
            }
            assert_eq!(batched.flow_records(), scalar.flow_records());
            assert_eq!(batched.cost(), scalar.cost());
            assert_eq!(batched.promotions(), scalar.promotions());
            assert_eq!(
                batched.ancillary_replacements(),
                scalar.ancillary_replacements()
            );
            for flow in 0..300u64 {
                let k = FlowKey::from_index(flow);
                assert_eq!(batched.estimate_size(&k), scalar.estimate_size(&k));
            }
        }
    }

    #[test]
    fn pipelined_default_handles_load() {
        let mut hf = HashFlow::with_memory(MemoryBudget::from_kib(64).unwrap()).unwrap();
        // ~3.4K main cells; feed 10K flows (m/n ~ 3).
        for i in 0..10_000u64 {
            hf.process_packet(&pkt(i));
        }
        let u = hf.main_table_utilization();
        assert!(u > 0.9, "high load should nearly fill the table, got {u}");
    }
}
