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
        0xb5e3_65a4_cafd_c500,
        0x42b1_d2ba_81a4_e3e6,
        0xc00a_2652_6b6e_128d,
    ], // d = 1
    [
        0x68f9_cf48_70ad_2049,
        0x52d3_70c5_8438_384c,
        0x50d3_240e_c148_c7e1,
    ], // d = 2
    [
        0xf480_1e94_1d90_5df6,
        0xf1bf_7bf8_cb5f_e328,
        0xaf91_eadc_dea1_c40c,
    ], // d = 3
    [
        0x3c73_fe07_19b5_00d7,
        0xfb82_021a_f7fc_add9,
        0x01ff_7e0b_cb77_8d68,
    ], // d = 4
    [
        0x70d0_47af_64b0_e5a0,
        0x27d6_7dfb_1ad1_2771,
        0xd06c_9e73_bb9c_4230,
    ], // d = 5
];
const PIPELINED: [[u64; 3]; 5] = [
    // CAIDA, churn-heavy, collision-adversarial
    [
        0xb5e3_65a4_cafd_c500,
        0x42b1_d2ba_81a4_e3e6,
        0xc00a_2652_6b6e_128d,
    ], // d = 1
    [
        0xd994_6c62_319d_5315,
        0x6fdf_b48f_06bc_0f33,
        0xdcd9_2c03_e663_f693,
    ], // d = 2
    [
        0x1801_ad81_dfe5_c8c6,
        0xed82_433b_7946_fab5,
        0xebe5_f2ae_a0e1_78c9,
    ], // d = 3
    [
        0x4103_d24c_43dc_ba5d,
        0x384e_5f2f_55e6_f157,
        0x586e_15f6_b340_3ccd,
    ], // d = 4
    [
        0xd764_9218_c940_405b,
        0xa080_48af_21fc_2ce1,
        0x60b5_b1f1_9f20_b90e,
    ], // d = 5
];
/// Pipelined depth 3 without record promotion, per regime.
const NO_PROMOTION: [u64; 3] = [
    0x6719_fe42_09e3_2930,
    0xa36c_121f_07e1_9338,
    0x3041_6832_bbc0_6296,
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
            0xcf6b_66ca_49c3_7ea2,
            0x6d4c_f1f8_96cd_a003,
            0x27e9_7677_9609_20c2,
        ],
        [
            0x5cc8_d2ec_574f_55a4,
            0x8089_ed98_825f_78a6,
            0xf346_2a0c_3f9f_5e96,
        ],
        [
            0xac0b_a238_b008_cb90,
            0x46c7_0153_bac6_1fa7,
            0x8705_2b7f_d6c4_310a,
        ],
        [
            0x1375_2490_f1c9_625b,
            0xce6f_b4d3_cad2_9f4c,
            0x7fe0_8f48_c002_d7d0,
        ],
        [
            0xd582_510d_f37c_0147,
            0x96e0_3fc8_5e73_9e06,
            0xe07c_a510_e066_fcec,
        ],
    ],
    pipelined: [
        [
            0xcf6b_66ca_49c3_7ea2,
            0x6d4c_f1f8_96cd_a003,
            0x27e9_7677_9609_20c2,
        ],
        [
            0x2297_1b3f_81b9_4b93,
            0x8977_3a05_cd63_d233,
            0xebce_c448_c787_4fda,
        ],
        [
            0x96e4_bd28_dd3e_b4dc,
            0x2418_b937_81e3_bab3,
            0xcab5_bb03_266d_9ad0,
        ],
        [
            0x4164_c1ef_dceb_a194,
            0xffa2_c51d_5c1a_459d,
            0x6f8b_3f55_33f3_e99a,
        ],
        [
            0x2c8c_ee45_54bf_e4f6,
            0xed20_0175_949a_ec5c,
            0x77f6_9bc2_696a_c832,
        ],
    ],
    no_promotion: [
        0x06ea_0af2_f5cb_22a3,
        0x46e3_f3ff_7dd2_4fa2,
        0x9e3d_618a_812b_f728,
    ],
};

/// The grid with a 1-in-1 tracer attached: every flow is sampled.
const ONE_IN_ONE: Grid = Grid {
    multi_hash: [
        [
            0xc218_36d7_0815_a041,
            0x537b_5a77_afb0_df49,
            0x891f_b8e8_f3ed_ea07,
        ],
        [
            0xc799_3b60_4941_ca29,
            0x5b2e_6030_85c5_39f7,
            0x5f8b_21c7_87ed_efea,
        ],
        [
            0x9e7b_9b8b_cdde_b7b7,
            0xdca9_9e63_6fc4_76d6,
            0xaabd_0dfc_91f1_9a91,
        ],
        [
            0x3ace_f030_7869_6593,
            0x6702_f3af_6100_fb40,
            0x604e_be30_4ad5_0cfa,
        ],
        [
            0xe231_7efa_5cd5_8d71,
            0x5d14_f9a0_cd0f_07d3,
            0x478f_14ec_3802_4795,
        ],
    ],
    pipelined: [
        [
            0xc218_36d7_0815_a041,
            0x537b_5a77_afb0_df49,
            0x891f_b8e8_f3ed_ea07,
        ],
        [
            0x64b3_0ae7_3b13_a70b,
            0x50c3_1a27_1113_fac7,
            0x5996_8e97_3638_ebc5,
        ],
        [
            0x3ad4_0978_4169_69ce,
            0x858b_238a_a4ee_090e,
            0x253c_a485_c548_635a,
        ],
        [
            0xc466_8792_6929_6f83,
            0xc6ba_162d_21fd_353e,
            0xc90b_bddd_545b_344b,
        ],
        [
            0x2179_541a_995c_2feb,
            0x6ae4_8ad3_8d4e_9aa1,
            0x8147_ddda_916a_42b0,
        ],
    ],
    no_promotion: [
        0xdf06_c970_ad22_53eb,
        0xf5ed_542d_274a_3c3f,
        0x3dde_0463_3291_7835,
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
