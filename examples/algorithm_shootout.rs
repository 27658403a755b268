//! Equal-memory shootout: HashFlow vs HashPipe vs ElasticSketch vs
//! FlowRadar on the same trace with the same byte budget — a miniature of
//! the paper's Fig. 6/7/8/11 methodology.
//!
//! Run with:
//! `cargo run --release -p hashflow-suite --example algorithm_shootout [flows] [kib]`

use hashflow_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let flows: usize = args
        .next()
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(60_000);
    let kib: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(256);

    let budget = MemoryBudget::from_kib(kib)?;
    let trace = TraceGenerator::new(TraceProfile::Caida, 99).generate(flows);
    println!(
        "trace: CAIDA profile, {} flows, {} packets; budget {} per algorithm\n",
        flows,
        trace.packets().len(),
        budget
    );

    let mut monitors: Vec<Box<dyn FlowMonitor>> = vec![
        Box::new(HashFlow::with_memory(budget)?),
        Box::new(HashPipe::with_memory(budget)?),
        Box::new(ElasticSketch::with_memory(budget)?),
        Box::new(FlowRadar::with_memory(budget)?),
    ];

    println!(
        "{:>14}  {:>7}  {:>9}  {:>8}  {:>9}  {:>10}  {:>9}",
        "algorithm", "fsc", "size_are", "card_re", "hh_f1", "hashes/pkt", "mem/pkt"
    );
    for monitor in monitors.iter_mut() {
        let report = evaluate(monitor.as_mut(), &trace, &[500]);
        let hh = &report.heavy_hitters[0];
        println!(
            "{:>14}  {:>7.4}  {:>9.4}  {:>8.4}  {:>9.4}  {:>10.2}  {:>9.2}",
            report.algorithm,
            report.fsc,
            report.size_are,
            report.cardinality_re,
            hh.f1,
            report.cost.avg_hashes_per_packet(),
            report.cost.avg_memory_accesses_per_packet(),
        );
    }

    Ok(())
}
