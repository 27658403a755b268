//! Algorithm 1 of PAPER.md §III, transcribed literally, as the judge of
//! `HashFlow`'s step.
//!
//! Everything else that checks the step compares the code with itself:
//! scalar against batched ingestion runs one step on both sides, and the
//! pinned digests were computed by the code. [`Reference`] shares nothing
//! with it but the hash functions and the geometry. Its main table is a
//! `Vec<Option<(FlowKey, u32)>>` and its ancillary table a vector of
//! `(digest, count)` cells. Its slots come from `HashFamily::hash`, the
//! pair formula and `fast_range`, with no lanes or plans. It walks each
//! probe path forward and stops at the first empty or matching bucket.
//! Where the paper leaves a choice open, the comment names the choice.
//!
//! The property test replays a trace of every `REGIME_MATRIX` regime
//! through both, in batches of arbitrary shape. After every batch it
//! compares the main table in bucket order, every ancillary cell,
//! promotions, replacements, `cost()`, `flow_records` and `estimate_size`
//! of every key sent so far.

use hashflow_suite::hashing::{fast_range, HashFamily, XxHash64};
use hashflow_suite::monitor::FlowTracer;
use hashflow_suite::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// HashFlow's two tables as §III-A describes them, updated by Algorithm 1.
struct Reference {
    config: HashFlowConfig,
    /// Where probe `i` lands: `(offset, len)` of its sub-table, or the
    /// whole table for every probe of the multi-hash scheme.
    ranges: Vec<(usize, usize)>,
    /// The two seeded functions `a` and `b` that every probe word comes
    /// from (Kirsch and Mitzenmacher's double hashing).
    pair: HashFamily<XxHash64>,
    main: Vec<Option<(FlowKey, u32)>>,
    ancillary: Vec<Option<(u32, u32)>>,
    promotions: u64,
    replacements: u64,
    cost: CostSnapshot,
}

impl Reference {
    fn new(config: HashFlowConfig) -> Self {
        let sizes = config.scheme().segment_sizes(config.main_cells()).unwrap();
        let ranges = match config.scheme() {
            TableScheme::MultiHash { depth } => vec![(0, config.main_cells()); depth],
            TableScheme::Pipelined { .. } => (sizes.iter())
                .scan(0, |offset, &len| {
                    *offset += len;
                    Some((*offset - len, len))
                })
                .collect(),
        };
        Reference {
            ranges,
            pair: HashFamily::new(2, config.seed() ^ 0x3a1d_77f0),
            main: vec![None; config.main_cells()],
            ancillary: vec![None; config.ancillary_cells()],
            promotions: 0,
            replacements: 0,
            cost: CostSnapshot::default(),
            config,
        }
    }

    /// The `d + 1` probe words of `key`: `w_i = a + i·(b | 1)`. Words
    /// `0 .. d` name the main-table buckets of `h_1 .. h_d`, word `d` the
    /// ancillary bucket of `g_1`.
    fn words(&self, key: &FlowKey) -> Vec<u64> {
        let (a, b) = (self.pair.hash(0, key), self.pair.hash(1, key));
        (0..=self.ranges.len() as u64)
            .map(|i| a.wrapping_add(i.wrapping_mul(b | 1)))
            .collect()
    }

    /// `h_1 .. h_d`'s buckets, in probe order.
    fn path(&self, key: &FlowKey) -> Vec<usize> {
        let words = self.words(key);
        (self.ranges.iter().zip(&words))
            .map(|(&(offset, len), &word)| offset + fast_range(word, len))
            .collect()
    }

    /// `g_1`'s bucket and the digest. Choice: the digest is the low
    /// `digest_bits` of `h_1`'s word (line 15), and a digest of 0, which
    /// would read as an empty cell, is taken as 1.
    fn ancillary_coords(&self, key: &FlowKey) -> (usize, u32) {
        let words = self.words(key);
        let slot = fast_range(words[self.ranges.len()], self.ancillary.len());
        let mask = u32::MAX >> (32 - self.config.digest_bits());
        (slot, ((words[0] as u32) & mask).max(1))
    }

    fn process(&mut self, key: FlowKey) {
        self.cost.packets += 1;
        // Lines 2–13: collision resolution, forward, exiting early.
        let mut sentinel: Option<(usize, u32)> = None;
        for idx in self.path(&key) {
            self.cost.hashes += 1;
            self.cost.reads += 1;
            match &mut self.main[idx] {
                None => {
                    self.main[idx] = Some((key, 1));
                    self.cost.writes += 1;
                    return;
                }
                // Choice: a main-table count saturates at u32::MAX.
                Some((resident, count)) if *resident == key => {
                    *count = count.saturating_add(1);
                    self.cost.writes += 1;
                    return;
                }
                // Choice: the sentinel is the earliest of equally small
                // records, so only a strictly smaller one replaces it.
                Some((_, count)) => {
                    if sentinel.is_none_or(|(_, min)| *count < min) {
                        sentinel = Some((idx, *count));
                    }
                }
            }
        }
        let (sentinel, min) = sentinel.expect("a probe path has at least one bucket");
        // Lines 14–23: the ancillary table and record promotion.
        self.cost.hashes += 1;
        self.cost.reads += 1;
        self.cost.writes += 1;
        let (slot, digest) = self.ancillary_coords(&key);
        let max = u32::MAX >> (32 - self.config.ancillary_counter_bits());
        match self.ancillary[slot] {
            // Choice: promotion fires at `>=`, when the summary has caught
            // up with the sentinel; a saturated counter counts as caught up.
            Some((resident, count)) if resident == digest && count >= min.min(max) => {
                if self.config.promotion_enabled() {
                    self.main[sentinel] = Some((key, count.saturating_add(1)));
                    self.promotions += 1;
                } else {
                    self.ancillary[slot] = Some((digest, (count + 1).min(max)));
                }
            }
            Some((resident, count)) if resident == digest => {
                self.ancillary[slot] = Some((digest, count + 1));
            }
            // Lines 16–17: an empty or differently-keyed bucket is replaced.
            cell => {
                self.replacements += u64::from(cell.is_some());
                self.ancillary[slot] = Some((digest, 1));
            }
        }
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        let resident =
            (self.path(key).into_iter()).find_map(|idx| self.main[idx].filter(|(k, _)| k == key));
        if let Some((_, count)) = resident {
            return count;
        }
        let (slot, digest) = self.ancillary_coords(key);
        match self.ancillary[slot] {
            Some((resident, count)) if resident == digest => count,
            _ => 0,
        }
    }

    fn records(&self) -> Vec<FlowRecord> {
        (self.main.iter().flatten())
            .map(|&(key, count)| FlowRecord::new(key, count))
            .collect()
    }

    /// A seal: the records leave, both tables and every counter clear.
    fn seal(&mut self) -> Vec<FlowRecord> {
        let records = self.records();
        *self = Reference::new(self.config);
        records
    }
}

/// Everything the reference and `hf` must agree on after a batch.
fn assert_agree(hf: &HashFlow, reference: &Reference, keys: &BTreeSet<FlowKey>, at: usize) {
    let records: Vec<FlowRecord> = hf.main_table().records().collect();
    assert_eq!(records, reference.records(), "main table, batch {at}");
    assert_eq!(hf.flow_records(), records, "flow_records, batch {at}");
    let ancillary = hf.ancillary_table();
    assert_eq!(ancillary.len(), reference.ancillary.len());
    for (slot, cell) in reference.ancillary.iter().enumerate() {
        assert_eq!(ancillary.entry(slot), *cell, "ancillary {slot}, batch {at}");
    }
    assert_eq!(
        hf.promotions(),
        reference.promotions,
        "promotions, batch {at}"
    );
    assert_eq!(hf.ancillary_replacements(), reference.replacements);
    assert_eq!(hf.cost(), reference.cost, "cost, batch {at}");
    for key in keys {
        let size = reference.estimate_size(key);
        assert_eq!(hf.estimate_size(key), size, "{key:?}, batch {at}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Depths 1–5 of both schemes, every regime, the no-promotion
    /// ablation, narrow digests and counters (so that flows share
    /// summaries and counters saturate), tracers off, 1-in-1 and 1-in-4,
    /// arbitrary batch shapes and a seal halfway through.
    #[test]
    fn hashflow_steps_as_algorithm_1_says(
        regime in 0..REGIME_MATRIX.len(),
        depth in 1usize..=5,
        pipelined in any::<bool>(),
        promotion in any::<bool>(),
        widths in 0usize..3,
        tracer in 0usize..3,
        seed in any::<u64>(),
        (first, more) in (1usize..300, prop::collection::vec(0usize..300, 0..11)),
    ) {
        let (digest_bits, counter_bits) = [(8, 8), (3, 2), (12, 4)][widths];
        let sample = [None, Some(1), Some(4)][tracer];
        let shapes: Vec<usize> = [first].into_iter().chain(more).collect();
        let scheme = if pipelined {
            TableScheme::Pipelined { depth, alpha: 0.7 }
        } else {
            TableScheme::MultiHash { depth }
        };
        let config = HashFlowConfig::builder()
            .main_cells(96)
            .ancillary_cells(61)
            .scheme(scheme)
            .digest_bits(digest_bits)
            .ancillary_counter_bits(counter_bits)
            .promotion_enabled(promotion)
            .seed(seed)
            .build()
            .expect("valid config");
        let mut hf = HashFlow::new(config).expect("valid geometry");
        hf.instrument(&Instruments {
            tracer: sample.map(|one_in| FlowTracer::new(Default::default(), one_in)),
            ..Instruments::default()
        });
        let mut reference = Reference::new(config);
        let trace = REGIME_MATRIX[regime].generate(seed, 400);
        let packets = &trace.packets()[..trace.packets().len().min(3_000)];
        let mut keys = BTreeSet::new();
        let mut at = 0;
        for (epoch, packets) in packets.chunks(packets.len().div_ceil(2)).enumerate() {
            if epoch > 0 {
                let sealed: Vec<FlowRecord> = hf.seal().records().copied().collect();
                prop_assert_eq!(sealed, reference.seal(), "sealed records");
            }
            let mut rest = packets;
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at(shapes[at % shapes.len()].min(rest.len()));
                hf.process_batch(batch);
                for p in batch {
                    reference.process(p.key());
                    keys.insert(p.key());
                }
                assert_agree(&hf, &reference, &keys, at);
                (at, rest) = (at + 1, tail);
            }
        }
    }
}
