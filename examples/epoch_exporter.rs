//! An operational collection loop on the collector pipeline API:
//! a registry-built HashFlow measures traffic in fixed epochs; at each
//! boundary the sealed epoch streams to two sinks at once — NetFlow v5
//! datagrams for a classic collector and JSON lines for a log pipeline —
//! the deployment shape the paper's introduction targets ("collecting
//! flow records is a common practice of network operators").
//!
//! Run with:
//! `cargo run --release -p hashflow-suite --example epoch_exporter`

use hashflow_suite::netflow_export::{decode_datagrams, split_datagrams, NetFlowV5Sink};
use hashflow_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Traffic: 30K ISP-style flows, packets spaced ~1 us apart.
    let trace = TraceGenerator::new(TraceProfile::Isp1, 12).generate(30_000);
    println!(
        "trace: {} flows, {} packets spanning ~{} ms",
        trace.flow_count(),
        trace.packets().len(),
        trace
            .packets()
            .last()
            .map(|p| p.timestamp_ns() / 1_000_000)
            .unwrap_or(0)
    );

    // The whole pipeline from the registry: HashFlow at 128 KiB, 20 ms
    // epochs, both export sinks attached.
    let mut collector = Collector::builder(AlgorithmKind::HashFlow)
        .budget(MemoryBudget::from_kib(128)?)
        .epoch_ns(20_000_000)
        .sink(Box::new(NetFlowV5Sink::new(Vec::new())))
        .sink(Box::new(JsonLinesSink::new(Vec::new())))
        .build()?;
    collector.process_trace(trace.packets());
    let tail = collector.seal(); // flush the running epoch
    collector.finish()?;

    println!(
        "\n{:>6} {:>12} {:>9} {:>12} {:>8}",
        "epoch", "records", "flows", "span(ms)", "top-1"
    );
    for snapshot in collector.drain_completed() {
        let span_ms = match (snapshot.start_ns(), snapshot.end_ns()) {
            (Some(s), Some(e)) => (e - s) as f64 / 1e6,
            _ => 0.0,
        };
        // Sealed-side queries: bounded-heap top-k, no full sort.
        let top = snapshot.top_k(1);
        println!(
            "{:>6} {:>12} {:>9.0} {:>12.2} {:>8}",
            snapshot.epoch(),
            snapshot.len(),
            snapshot.cardinality(),
            span_ms,
            top.first().map(|r| r.count()).unwrap_or(0),
        );
    }

    // Prove the wire format round-trips before "sending": replay the
    // sealed tail epoch through a fresh v5 sink and decode it back.
    let mut verify = NetFlowV5Sink::new(Vec::new());
    verify.export_epoch(&tail)?;
    let bytes = verify.into_inner();
    let datagrams = split_datagrams(&bytes)?;
    let parsed = decode_datagrams(datagrams.iter().copied())?;
    assert_eq!(parsed.len(), tail.len());
    println!(
        "\ntail epoch re-parsed from the wire: {} records in {} datagrams ({} bytes)",
        parsed.len(),
        datagrams.len(),
        bytes.len(),
    );
    Ok(())
}
