//! The telemetry query subsystem end to end: declarative plans and the
//! built-in application library detect planted anomalies in a two-epoch
//! packet stream, through the full collector pipeline.
//!
//! Planted in background ISP traffic: a superspreader (one source
//! contacting many destinations), a vertical port scan (one source
//! probing many ports of one host), a DDoS victim (many sources hitting
//! one destination), and a flow that grows sharply in the second epoch
//! (a heavy changer).
//!
//! Run with:
//! `cargo run --release -p hashflow-suite --example telemetry_queries`

use hashflow_suite::prelude::*;

const EPOCH_NS: u64 = 1_000_000; // 1 ms epochs
const SPREADER_FANOUT: u64 = 60;
const SCAN_PORTS: u64 = 50;
const DDOS_SOURCES: u64 = 80;
const CHANGE_DELTA: u64 = 400;

/// Background traffic plus the planted anomalies, two epochs long.
fn build_stream() -> Vec<Packet> {
    let mut packets = Vec::new();
    let mut at = 0u64;
    let mut push = |key: FlowKey, at: &mut u64| {
        packets.push(Packet::new(key, *at, 64));
        *at += 120; // ~120 ns spacing keeps both epochs busy
    };
    let host = |b: u8, d: u8| Ipv4Addr::from([10, b, 0, d]);
    for epoch in 0..2u8 {
        // Background: a few thousand benign flows.
        for i in 0..6_000u64 {
            let key = FlowKey::from_index(u64::from(epoch) * 10_000 + i % 2_500);
            push(key, &mut at);
        }
        // Superspreader: 10.1.0.1 fans out to 90 destinations.
        for d in 0..90u8 {
            push(
                FlowKey::new(host(1, 1), host(2, d), 40_000, 443, 6),
                &mut at,
            );
        }
        // Port scan: 10.3.0.3 probes 70 ports of 10.4.0.4.
        for port in 0..70u16 {
            push(
                FlowKey::new(host(3, 3), host(4, 4), 55_555, 1_000 + port, 6),
                &mut at,
            );
        }
        // DDoS: 120 sources converge on 10.5.0.5.
        for s in 0..120u8 {
            push(FlowKey::new(host(6, s), host(5, 5), 1_234, 80, 6), &mut at);
        }
        // Heavy changer: 10.7.0.7's flow sends 50 packets in epoch 0,
        // then bursts to 700 in epoch 1.
        let burst = if epoch == 0 { 50 } else { 700 };
        let elephant = FlowKey::new(host(7, 7), host(8, 8), 5_000, 443, 6);
        for _ in 0..burst {
            push(elephant, &mut at);
        }
        // Park the clock at the next epoch edge.
        at = (u64::from(epoch) + 1) * EPOCH_NS;
    }
    packets
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let packets = build_stream();
    println!("stream: {} packets over 2 epochs\n", packets.len());

    // The application library: five detections, each a query plan.
    let mut apps =
        TelemetryApp::standard_suite(SPREADER_FANOUT, DDOS_SOURCES, SCAN_PORTS, CHANGE_DELTA);
    for app in &apps {
        println!("{:>14}: {}", app.kind().name(), app.plan());
    }
    println!();

    // One collector measures with HashFlow; each rotation answers every
    // plan over the epoch it sealed and banks the answers.
    let mut builder = Collector::builder(AlgorithmKind::HashFlow)
        .budget(MemoryBudget::from_kib(512)?)
        .epoch_ns(EPOCH_NS);
    for app in &apps {
        builder = builder.query(app.plan().clone());
    }
    let mut collector = builder.build()?;
    collector.process_trace(&packets);
    collector.seal();

    // Feed each epoch's banked answers to the applications, in order.
    for epoch_answers in collector.drain_query_answers() {
        for (app, answer) in apps.iter_mut().zip(epoch_answers.iter()) {
            let verdict = app.observe(answer);
            match verdict.scalar {
                Some(entropy) => println!(
                    "epoch {} {:>14}: flow-size entropy {entropy:.2} bits",
                    verdict.epoch,
                    app.kind().name(),
                ),
                None => {
                    let shown: Vec<String> = verdict
                        .offenders
                        .iter()
                        .take(3)
                        .map(|o| format!("{} ({})", answer.group().format(&o.key), o.value))
                        .collect();
                    println!(
                        "epoch {} {:>14}: {} offender(s)  {}",
                        verdict.epoch,
                        app.kind().name(),
                        verdict.offenders.len(),
                        shown.join(", "),
                    );
                }
            }
        }
    }

    // The same executor answers new questions post hoc over any retained
    // sealed epoch.
    println!("\npost-hoc query over the retained sealed epochs:");
    let mut spreader = TelemetryApp::superspreader(SPREADER_FANOUT);
    for snapshot in collector.completed_epochs() {
        let sealed = execute_snapshot(spreader.plan(), snapshot);
        let verdict = spreader.observe(&sealed);
        println!(
            "epoch {}: superspreader offenders from sealed records: {}",
            snapshot.epoch(),
            verdict.offenders.len()
        );
    }
    Ok(())
}
