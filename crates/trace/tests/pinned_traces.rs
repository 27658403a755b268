//! Pins the generator's output bit for bit.
//!
//! Every trace this workspace measures comes out of `TraceRegime::generate`
//! or `TraceGenerator::generate`, so a change to either that moves one
//! packet, timestamp or wire length silently moves every exhibit and
//! benchmark number. Each digest below folds the traces of one regime (or
//! one profile × interleave mode) over the same seed × flow-count grid.
//! A mismatch names the cell and prints the new digest; update a constant
//! only when the change in output is intended.

use hashflow_trace::{InterleaveMode, Trace, TraceGenerator, ALL_PROFILES, REGIME_MATRIX};

const SEEDS: [u64; 3] = [1, 7, 20_190_707];
const FLOWS: [usize; 3] = [1, 17, 3_000];
const MODES: [InterleaveMode; 4] = [
    InterleaveMode::Shuffled,
    InterleaveMode::Sequential,
    InterleaveMode::RoundRobin,
    InterleaveMode::Bursty,
];

/// One digest per `REGIME_MATRIX` entry, in matrix order.
const REGIME_DIGESTS: [u64; 6] = [
    0x194c_3e1c_a3f6_97b7, // CAIDA
    0xea3a_eda8_c77f_c78b, // Campus
    0x96a2_81a0_2cfa_db50, // uniform-flood
    0x963d_0e3b_71ab_d6ad, // single-elephant
    0x198d_79df_7302_f012, // churn-heavy
    0x2446_a60a_910e_5c6c, // collision-adversarial
];

/// One digest per `ALL_PROFILES` × `MODES` cell.
const PROFILE_MODE_DIGESTS: [[u64; 4]; 4] = [
    // shuffled, sequential, round-robin, bursty
    [
        0x194c_3e1c_a3f6_97b7,
        0xa3a6_7013_57b1_5023,
        0x4783_d3a3_01ea_119d,
        0x232e_b6cd_e042_1fa9,
    ], // CAIDA
    [
        0xea3a_eda8_c77f_c78b,
        0xf979_1602_4849_2e97,
        0x4259_e6d4_dccb_dd95,
        0x4f18_6a7d_5d54_a955,
    ], // Campus
    [
        0x4632_1b03_47b4_a208,
        0x4afd_0b43_5b8f_5612,
        0x3b62_c6bb_4d8a_9cd8,
        0x1c85_88bd_ac64_980e,
    ], // ISP1
    [
        0xe71b_d67f_e7a6_f92b,
        0x014b_572d_4785_6bc1,
        0x125f_d61e_9af8_fc2d,
        0x0c12_e57a_c655_a13f,
    ], // ISP2
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
}

/// Folds every packet's `(key, timestamp, wire length)` and every
/// ground-truth `(key, count)` of the traces over the seed × flow grid.
fn digest(generate: impl Fn(u64, usize) -> Trace) -> u64 {
    let mut h = Fnv1a::new();
    for seed in SEEDS {
        for flows in FLOWS {
            let trace = generate(seed, flows);
            for p in trace.packets() {
                h.write(&p.key().to_bytes());
                h.write(&p.timestamp_ns().to_le_bytes());
                h.write(&p.wire_len().to_le_bytes());
            }
            for r in trace.ground_truth() {
                h.write(&r.key().to_bytes());
                h.write(&r.count().to_le_bytes());
            }
        }
    }
    h.0
}

/// Asserts every `(label, actual, pinned)` cell at once, so one run
/// reports all the digests that moved.
fn assert_pinned(cells: Vec<(String, u64, u64)>) {
    let moved: Vec<String> = cells
        .into_iter()
        .filter(|(_, actual, pinned)| actual != pinned)
        .map(|(label, actual, pinned)| format!("{label}: {actual:#018x} (pinned {pinned:#018x})"))
        .collect();
    assert!(
        moved.is_empty(),
        "trace output moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn every_regime_reproduces_its_pinned_digest() {
    assert_pinned(
        REGIME_MATRIX
            .iter()
            .zip(REGIME_DIGESTS)
            .map(|(regime, pinned)| {
                let actual = digest(|seed, flows| regime.generate(seed, flows));
                (regime.to_string(), actual, pinned)
            })
            .collect(),
    );
}

#[test]
fn every_interleave_mode_on_every_profile_reproduces_its_pinned_digest() {
    let mut cells = Vec::new();
    for (profile, row) in ALL_PROFILES.iter().zip(PROFILE_MODE_DIGESTS) {
        for (mode, pinned) in MODES.iter().zip(row) {
            let actual = digest(|seed, flows| {
                TraceGenerator::new(*profile, seed)
                    .with_interleave(*mode)
                    .generate(flows)
            });
            cells.push((format!("{profile}/{mode}"), actual, pinned));
        }
    }
    assert_pinned(cells);
}
