//! Pins what HashFlow's per-packet step produces, bit for bit.
//!
//! Scalar and batched ingestion run the same Algorithm 1 step, so an
//! equivalence suite that plays one against the other cannot see the step
//! itself go wrong. These digests can: each folds, over two sealed epochs
//! of one configuration, the sorted sealed records, the epoch's
//! `CostSnapshot` and cardinality, the promotion and ancillary-replacement
//! counts, `estimate_size` of every key of the trace, and every flow-path
//! span the tracer recorded. The grid covers depths 1–5 of both table
//! schemes over a calibrated, a churn-heavy and a collision-adversarial
//! trace at a table of a few KiB, plus the promotion-disabled ablation;
//! every cell is replayed in batches of 256 and of 1 and must give the
//! same digest both ways. The grid is pinned three times: with a 1-in-4
//! tracer, with no tracer (the loop most callers run) and with a 1-in-1
//! tracer (every packet takes the traced step).
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

/// One digest table over the whole grid.
#[derive(Debug, PartialEq)]
struct Grid {
    multi_hash: [[u64; 3]; 5],
    pipelined: [[u64; 3]; 5],
    no_promotion: [u64; 3],
}

/// The grid with a 1-in-4 tracer attached.
const ONE_IN_FOUR: Grid = Grid {
    multi_hash: MULTI_HASH,
    pipelined: PIPELINED,
    no_promotion: NO_PROMOTION,
};

/// The grid with no tracer attached.
const UNTRACED: Grid = Grid {
    multi_hash: [
        [
            0x0b82_e601_e8e2_24af,
            0x83c0_0212_01a5_0eff,
            0x8f95_7314_8bd6_4e2d,
        ],
        [
            0x26ca_2343_3495_c7a3,
            0xb6dc_3327_4a12_921d,
            0xd4f7_ab18_a808_2afa,
        ],
        [
            0xf216_c35d_7d27_13a4,
            0xc32d_bde2_6bed_8820,
            0xbce6_070d_58f3_5550,
        ],
        [
            0x7589_0cae_7713_6a05,
            0xcc3a_db67_6dd2_27cc,
            0x7c45_ea60_a9d2_b8d2,
        ],
        [
            0xb5bd_00ea_14ae_fc8e,
            0xef53_f26b_6f64_bfe7,
            0x1f60_db5c_a11b_d625,
        ],
    ],
    pipelined: [
        [
            0x0b82_e601_e8e2_24af,
            0x83c0_0212_01a5_0eff,
            0x8f95_7314_8bd6_4e2d,
        ],
        [
            0x01b7_41dd_c548_89fb,
            0xf801_06b6_d16e_051f,
            0x6693_9f15_3f71_b7f8,
        ],
        [
            0x9531_d251_83d9_5020,
            0x5484_4ad0_cd73_e027,
            0x752b_d41f_1d62_5d58,
        ],
        [
            0x2e7d_4f51_2bd8_eb2c,
            0xad2b_721e_d2bb_09a6,
            0x2729_8a57_d464_8de0,
        ],
        [
            0x8c69_8f0d_8b1e_cfd9,
            0xeaee_737d_c113_5d1d,
            0x5527_7c4a_991d_9004,
        ],
    ],
    no_promotion: [
        0xafa4_6b47_89a1_4aaa,
        0xf30a_618c_93ec_e544,
        0xee3d_315b_9492_a608,
    ],
};

/// The grid with a 1-in-1 tracer attached: every flow is sampled.
const ONE_IN_ONE: Grid = Grid {
    multi_hash: [
        [
            0x0b18_65c0_a0b9_2fb2,
            0xe50f_e5e0_d1af_f3d8,
            0xb853_44c1_e379_32a5,
        ],
        [
            0xe4c0_eef0_8d29_e2a3,
            0x18b0_2cab_7344_d404,
            0x2233_6471_d2e3_87e1,
        ],
        [
            0x7c59_67d5_7020_37dd,
            0x7fcc_b7ce_2eb2_4758,
            0x8c24_32f3_beee_dd63,
        ],
        [
            0x5ebd_5291_b1c0_2586,
            0x3613_e16e_c745_42e9,
            0x4fe9_9079_e493_dbcc,
        ],
        [
            0x2c8c_edec_ff9b_0405,
            0xa9a8_7351_12ff_4ff5,
            0x345e_c258_1a7a_dc96,
        ],
    ],
    pipelined: [
        [
            0x0b18_65c0_a0b9_2fb2,
            0xe50f_e5e0_d1af_f3d8,
            0xb853_44c1_e379_32a5,
        ],
        [
            0x4700_af8a_b00a_3173,
            0xacfb_96f7_8314_8f14,
            0xc893_ca21_2faa_8533,
        ],
        [
            0xec4d_a4ab_8cd9_d13e,
            0x0bc8_59a1_eb6b_30de,
            0xc646_e081_7a00_e621,
        ],
        [
            0xb9d9_7530_3d53_8525,
            0xc3ed_ce3b_f4e2_160c,
            0x6315_c5fc_09e6_9474,
        ],
        [
            0x3ddd_966e_b8f6_282b,
            0x21a2_0b90_11f6_931f,
            0x4a2b_44fb_0aa5_89e9,
        ],
    ],
    no_promotion: [
        0x2e6e_cc04_7b25_d38a,
        0x5d2e_1099_54f3_a4e8,
        0xdb71_74a1_ecb7_ab3c,
    ],
};

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
/// batches of `batch`, with a 1-in-`sample` tracer attached when `sample`
/// is given, and digests everything the step decides.
fn digest(
    scheme: TableScheme,
    promotion: bool,
    trace: &Trace,
    batch: usize,
    sample: Option<u64>,
) -> u64 {
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
        tracer: sample.map(|one_in| FlowTracer::new(recorder.clone(), one_in)),
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
    assert_eq!(
        spans.iter().any(|e| e.kind == FLOW_SPAN_KIND),
        sample.is_some(),
        "a tracer traces some flows, and only a tracer does"
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
fn cell(scheme: TableScheme, promotion: bool, trace: &Trace, sample: Option<u64>) -> u64 {
    let batched = digest(scheme, promotion, trace, 256, sample);
    let scalar = digest(scheme, promotion, trace, 1, sample);
    assert_eq!(batched, scalar, "{scheme}: batch of 256 vs batch of 1");
    batched
}

/// Computes the whole grid under a 1-in-`sample` tracer (none if `None`)
/// and checks it against `pinned`.
fn assert_grid(sample: Option<u64>, pinned: &Grid) {
    let traces: Vec<Trace> = REGIMES.iter().map(|r| r.generate(SEED, FLOWS)).collect();
    let per_regime = |scheme: TableScheme, promotion: bool| -> [u64; 3] {
        std::array::from_fn(|r| cell(scheme, promotion, &traces[r], sample))
    };
    let multi_hash =
        std::array::from_fn(|d| per_regime(TableScheme::MultiHash { depth: d + 1 }, true));
    let pipelined = std::array::from_fn(|d| {
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
    let grid = Grid {
        multi_hash,
        pipelined,
        no_promotion,
    };
    assert_eq!(
        &grid, pinned,
        "digests moved with sampling {sample:?}; as computed:\n{grid:#018x?}"
    );
}

#[test]
fn hashflow_output_is_pinned_at_every_depth() {
    assert_grid(Some(4), &ONE_IN_FOUR);
}

#[test]
fn hashflow_output_is_pinned_untraced() {
    assert_grid(None, &UNTRACED);
}

#[test]
fn hashflow_output_is_pinned_with_every_flow_traced() {
    assert_grid(Some(1), &ONE_IN_ONE);
}
