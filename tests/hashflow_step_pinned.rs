//! Pins what HashFlow's per-packet step produces, bit for bit.
//!
//! Scalar and batched ingestion run the same Algorithm 1 step, so an
//! equivalence suite that plays one against the other cannot see the step
//! itself go wrong. These digests can: each folds, over two sealed epochs
//! of one configuration, the sorted sealed records, the epoch's
//! `CostSnapshot` and cardinality, the promotion and ancillary-replacement
//! counts, `estimate_size` of every key of the trace, and every flow-path
//! span a 1-in-4 tracer recorded. The grid covers depths 1–5 of both table
//! schemes over a calibrated, a churn-heavy and a collision-adversarial
//! trace at a table of a few KiB, plus the promotion-disabled ablation;
//! every cell is replayed in batches of 256 and of 1 and must give the
//! same digest both ways.
//!
//! A mismatch prints the whole table of digests as computed; update a
//! constant only when the change in output is intended.

use hashflow_suite::monitor::{FlowTracer, Instruments, FLOW_SPAN_KIND};
use hashflow_suite::obs::FlightRecorder;
use hashflow_suite::prelude::*;

/// Main-table buckets (≈ 4.3 KiB of 17-byte records); the ancillary table
/// gets as many cells.
const MAIN_CELLS: usize = 256;
const FLOWS: usize = 2_000;
const SEED: u64 = 20_190_707;
const REGIMES: [TraceRegime; 3] = [
    TraceRegime::Calibrated(TraceProfile::Caida),
    TraceRegime::ChurnHeavy,
    TraceRegime::CollisionAdversarial,
];

/// One digest per depth 1..=5, per regime in `REGIMES` order; depth 1
/// is one table either way.
const MULTI_HASH: [[u64; 3]; 5] = [
    // CAIDA, churn-heavy, collision-adversarial
    [
        0xa199_9299_da81_a6cb,
        0xdddc_bb2b_35c6_b0aa,
        0x35af_408f_21b0_7ec6,
    ], // d = 1
    [
        0x732a_3b68_fc29_3289,
        0x4495_f9d4_5b82_3e5f,
        0xee45_49f0_7b85_f1ed,
    ], // d = 2
    [
        0x8e06_9a7c_c6aa_cc2c,
        0x8cc3_a883_b8c9_8892,
        0x63ac_186e_d812_622b,
    ], // d = 3
    [
        0x908b_1742_8213_40c3,
        0xc1b1_41a3_5c37_6072,
        0x14de_de56_271f_131c,
    ], // d = 4
    [
        0x88fb_724a_8af0_e47d,
        0x2f2c_43b6_5196_ab85,
        0xe7b6_46d1_04bd_4a31,
    ], // d = 5
];
const PIPELINED: [[u64; 3]; 5] = [
    // CAIDA, churn-heavy, collision-adversarial
    [
        0xa199_9299_da81_a6cb,
        0xdddc_bb2b_35c6_b0aa,
        0x35af_408f_21b0_7ec6,
    ], // d = 1
    [
        0xbbb6_3698_ba48_fb61,
        0x3b6f_e084_46cf_4735,
        0x0b22_9f64_a9b9_d886,
    ], // d = 2
    [
        0x6b48_7a41_d7f1_e334,
        0xd09f_21ad_7d8e_2fb9,
        0xe9bf_df19_7000_a618,
    ], // d = 3
    [
        0x2214_3fec_6363_6f5b,
        0x45c4_10bf_1440_3f82,
        0x1eda_1aed_509a_7236,
    ], // d = 4
    [
        0x1dc0_49d6_648b_f16c,
        0x11bc_dc9e_89e7_04a2,
        0xd37b_e20c_f719_af48,
    ], // d = 5
];
/// Pipelined depth 3 without record promotion, per regime.
const NO_PROMOTION: [u64; 3] = [
    0x295f_c85c_f061_49cb,
    0xf37d_8eac_363f_775b,
    0x2188_a977_d4d1_b8b8,
];

/// 64-bit FNV-1a, written out by hand: std's `DefaultHasher` does not
/// promise the same algorithm across Rust releases.
struct Fnv1a(u64);

impl Fnv1a {
    const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }
}

/// Replays `trace` through one HashFlow of `scheme` as two epochs, in
/// batches of `batch`, and digests everything the step decides.
fn digest(scheme: TableScheme, promotion: bool, trace: &Trace, batch: usize) -> u64 {
    let config = HashFlowConfig::builder()
        .main_cells(MAIN_CELLS)
        .scheme(scheme)
        .promotion_enabled(promotion)
        .seed(SEED)
        .build()
        .expect("valid config");
    let mut hf = HashFlow::new(config).expect("constructible");
    let recorder = FlightRecorder::with_capacity(1 << 16);
    hf.instrument(&Instruments {
        tracer: Some(FlowTracer::new(recorder.clone(), 4)),
        ..Instruments::default()
    });
    let mut keys: Vec<FlowKey> = trace.ground_truth().iter().map(|r| r.key()).collect();
    keys.sort_unstable();
    let mut fnv = Fnv1a::new();
    let packets = trace.packets();
    for epoch in packets.chunks(packets.len().div_ceil(2)) {
        for chunk in epoch.chunks(batch) {
            hf.process_batch(chunk);
        }
        fnv.u64(hf.promotions());
        fnv.u64(hf.ancillary_replacements());
        for key in &keys {
            fnv.u64(u64::from(hf.estimate_size(key)));
        }
        let sealed = hf.seal();
        let mut records: Vec<FlowRecord> = sealed.records().copied().collect();
        records.sort_unstable_by_key(|r| (r.key(), r.count()));
        for record in records {
            fnv.write(&record.key().to_bytes());
            fnv.u64(u64::from(record.count()));
        }
        let cost = sealed.cost();
        for value in [cost.packets, cost.hashes, cost.reads, cost.writes] {
            fnv.u64(value);
        }
        fnv.u64(sealed.cardinality().to_bits());
    }
    let spans = recorder.snapshot();
    assert!(
        spans.iter().any(|e| e.kind == FLOW_SPAN_KIND),
        "1-in-4 sampling must trace some flows"
    );
    for event in spans.into_iter().filter(|e| e.kind == FLOW_SPAN_KIND) {
        fnv.write(event.message.as_bytes());
        for (name, value) in &event.fields {
            fnv.write(name.as_bytes());
            fnv.write(value.as_bytes());
        }
    }
    fnv.0
}

/// The digest of one grid cell, checked to be the same whether the trace
/// arrives in batches of 256 or one packet at a time.
fn cell(scheme: TableScheme, promotion: bool, trace: &Trace) -> u64 {
    let batched = digest(scheme, promotion, trace, 256);
    let scalar = digest(scheme, promotion, trace, 1);
    assert_eq!(batched, scalar, "{scheme}: batch of 256 vs batch of 1");
    batched
}

#[test]
fn hashflow_output_is_pinned_at_every_depth() {
    let traces: Vec<Trace> = REGIMES.iter().map(|r| r.generate(SEED, FLOWS)).collect();
    let per_regime = |scheme: TableScheme, promotion: bool| -> [u64; 3] {
        std::array::from_fn(|r| cell(scheme, promotion, &traces[r]))
    };
    let multi_hash: [[u64; 3]; 5] =
        std::array::from_fn(|d| per_regime(TableScheme::MultiHash { depth: d + 1 }, true));
    let pipelined: [[u64; 3]; 5] = std::array::from_fn(|d| {
        let scheme = TableScheme::Pipelined {
            depth: d + 1,
            alpha: 0.7,
        };
        per_regime(scheme, true)
    });
    let default_scheme = TableScheme::Pipelined {
        depth: 3,
        alpha: 0.7,
    };
    let no_promotion = per_regime(default_scheme, false);
    let table = format!(
        "MULTI_HASH = {multi_hash:#018x?}\nPIPELINED = {pipelined:#018x?}\n\
         NO_PROMOTION = {no_promotion:#018x?}"
    );
    assert_eq!(multi_hash, MULTI_HASH, "multi-hash digests moved:\n{table}");
    assert_eq!(pipelined, PIPELINED, "pipelined digests moved:\n{table}");
    assert_eq!(
        no_promotion, NO_PROMOTION,
        "promotion-disabled digests moved:\n{table}"
    );
}
