//! Integration: the two cardinality substrates (linear counting and
//! Bloom-filter inversion) against each other and against the estimators
//! embedded in the algorithms — validating §IV-A's choice of linear
//! counting inside its operating range, and showing where it saturates.

use hashflow_suite::prelude::*;
use hashflow_suite::primitives::{BloomFilter, LinearCounter};

fn rel_err(estimate: f64, truth: f64) -> f64 {
    (estimate - truth).abs() / truth
}

#[test]
fn all_substrates_agree_in_linear_counting_range() {
    let truth = 20_000u64;
    let mut lc = LinearCounter::new(80_000, 1);
    let mut bf = BloomFilter::new(1 << 19, 4, 1).unwrap();
    for i in 0..truth {
        let k = FlowKey::from_index(i);
        lc.observe(&k);
        bf.insert(&k);
    }
    assert!(
        rel_err(lc.estimate(), truth as f64) < 0.02,
        "lc {}",
        lc.estimate()
    );
    assert!(
        rel_err(bf.estimate_cardinality(), truth as f64) < 0.02,
        "bf {}",
        bf.estimate_cardinality()
    );
}

#[test]
fn linear_counting_is_sharp_at_low_load_and_saturates_far_beyond_it() {
    // At 25% load linear counting is within 2%; at 100x its table size
    // the cells fill up and the estimate is lost. This is why the paper
    // sizes its tables for the epoch.
    let truth_small = 5_000u64;
    let cells = 20_000;
    let mut lc = LinearCounter::new(cells, 7);
    for i in 0..truth_small {
        lc.observe(&FlowKey::from_index(i));
    }
    let lc_err = rel_err(lc.estimate(), truth_small as f64);
    assert!(lc_err < 0.02, "linear counting err {lc_err}");

    let truth_large = 2_000_000u64;
    lc.reset();
    for i in 0..truth_large {
        lc.observe(&FlowKey::from_index(i));
    }
    assert!(
        !lc.estimate().is_finite() || lc.estimate() < truth_large as f64 / 2.0,
        "linear counting must be saturated, got {}",
        lc.estimate()
    );
}

#[test]
fn algorithm_embedded_estimators_match_standalone_substrates() {
    // HashFlow's ancillary linear counting and FlowRadar's Bloom inversion
    // should estimate like their standalone counterparts on the same trace.
    let trace = TraceGenerator::new(TraceProfile::Caida, 55).generate(30_000);
    let budget = MemoryBudget::from_kib(512).unwrap();

    let mut hf = HashFlow::with_memory(budget).unwrap();
    let mut fr = FlowRadar::with_memory(budget).unwrap();
    hf.process_trace(trace.packets());
    fr.process_trace(trace.packets());

    let truth = trace.flow_count() as f64;
    assert!(
        rel_err(hf.estimate_cardinality(), truth) < 0.1,
        "HashFlow {}",
        hf.estimate_cardinality()
    );
    assert!(
        rel_err(fr.estimate_cardinality(), truth) < 0.05,
        "FlowRadar {}",
        fr.estimate_cardinality()
    );
}

#[test]
fn estimators_are_insensitive_to_flow_sizes() {
    // Cardinality must depend on distinct flows, not packets. Feed the
    // same flow set with 1x and 5x the packets per flow.
    let budget = MemoryBudget::from_kib(256).unwrap();
    let estimates: Vec<f64> = [1u32, 5]
        .into_iter()
        .map(|repeat| {
            let mut hf = HashFlow::with_memory(budget).unwrap();
            for i in 0..10_000u64 {
                for r in 0..repeat {
                    hf.process_packet(&Packet::new(FlowKey::from_index(i), u64::from(r), 64));
                }
            }
            hf.estimate_cardinality()
        })
        .collect();
    assert!(
        (estimates[0] - estimates[1]).abs() / estimates[0] < 0.02,
        "size sensitivity: {estimates:?}"
    );
}
