//! Command execution: each subcommand renders its report into a `String`
//! so the logic is unit-testable without capturing stdout.

use crate::args::{
    usage, Analyze, Command, Compare, Export, ExportFormat, Generate, MetricsFormat, Model, Query,
    Serve, Stats,
};
use hashflow_collector::{AlgorithmKind, Collector, MetricsRegistry, MonitorBuilder};
use hashflow_core::model;
use hashflow_metrics::{evaluate, GroundTruth};
use hashflow_monitor::{
    FlowMonitor, Instruments, JsonLinesSink, MemoryBudget, RecordSink, INGEST_BATCH,
};
use hashflow_query::execute;
use hashflow_server::{ReplayPace, Server, ServerConfig};
use hashflow_trace::{read_pcap, write_pcap, PcapReader, TraceGenerator};
use hashflow_types::{FlowRecord, Packet};
use netflow_export::NetFlowV5Sink;
use simswitch::SoftwareSwitch;
use std::collections::HashMap;
use std::error::Error;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;

/// Streams a capture through `monitor` in [`INGEST_BATCH`]-sized batches
/// without materializing it ([`PcapReader`]), handing every packet to
/// `per_packet` first (ground-truth counting, custom stats).
fn stream_capture(
    path: &str,
    monitor: &mut dyn FlowMonitor,
    mut per_packet: impl FnMut(&Packet),
) -> Result<(), Box<dyn Error>> {
    let reader = PcapReader::new(BufReader::new(File::open(path)?))?;
    let mut batch = Vec::with_capacity(INGEST_BATCH);
    for packet in reader {
        let packet = packet?;
        per_packet(&packet);
        batch.push(packet);
        if batch.len() == INGEST_BATCH {
            monitor.process_batch(&batch);
            batch.clear();
        }
    }
    monitor.process_batch(&batch);
    Ok(())
}

/// The packets `collector` ingested, read from the metrics snapshot that
/// `--metrics-out` writes (JSON lines when the path ends in `.jsonl`,
/// Prometheus text otherwise), so the printed and exported numbers
/// cannot disagree.
fn packets_and_metrics(
    collector: &mut Collector,
    metrics_out: Option<&str>,
) -> std::io::Result<u64> {
    let metrics = collector
        .metrics_snapshot()
        .expect("registry attached at build");
    if let Some(path) = metrics_out {
        let rendered = if path.ends_with(".jsonl") {
            metrics.to_jsonl()
        } else {
            metrics.to_prometheus()
        };
        std::fs::write(path, rendered)?;
    }
    Ok(metrics
        .counter("hashflow_ingest_packets_total", &[])
        .unwrap_or(0))
}

/// Executes a parsed command and returns its rendered report.
///
/// # Errors
///
/// Propagates I/O and configuration errors with context.
pub(crate) fn run(command: &Command) -> Result<String, Box<dyn Error>> {
    match command {
        Command::Help => Ok(usage()),
        Command::Analyze(a) => analyze(a),
        Command::Stats(s) => stats(s),
        Command::Generate(g) => generate(g),
        Command::Compare(c) => compare(c),
        Command::Model(m) => Ok(predict(m)),
        Command::Export(e) => export(e),
        Command::Serve(s) => serve(s),
        Command::Query(q) => query_capture(q),
    }
}

fn generate(g: &Generate) -> Result<String, Box<dyn Error>> {
    let trace = TraceGenerator::new(g.profile, g.seed).generate(g.flows);
    write_pcap(File::create(&g.out)?, trace.packets())?;
    Ok(format!(
        "wrote {} packets of {} flows ({} profile) to {}\n",
        trace.packets().len(),
        trace.flow_count(),
        g.profile.name(),
        g.out
    ))
}

fn predict(&Model { load, depth, alpha }: &Model) -> String {
    let mut out = String::new();
    match alpha {
        Some(a) => {
            let u = model::pipelined_utilization(load, depth, a);
            let _ = writeln!(
                out,
                "pipelined tables: d = {depth}, alpha = {a}, load m/n = {load}"
            );
            let _ = writeln!(out, "predicted utilization: {:.4}", u);
            let _ = writeln!(
                out,
                "improvement over multi-hash: {:+.4}",
                model::pipelined_improvement(load, depth, a)
            );
        }
        None => {
            let u = model::multi_hash_utilization(load, depth);
            let _ = writeln!(out, "multi-hash table: d = {depth}, load m/n = {load}");
            let _ = writeln!(out, "predicted utilization: {:.4}", u);
        }
    }
    out
}

/// Boots the daemon, optionally replays a capture into it, waits for
/// shutdown (`POST /shutdown` or `--duration-ms`), then renders the
/// end-of-run conservation report.
fn serve(s: &Serve) -> Result<String, Box<dyn Error>> {
    let mut server = Server::start(ServerConfig {
        algorithm: s.algorithm,
        memory_kib: s.memory_kib,
        shards: s.shards,
        seed: s.seed,
        epoch_ms: s.epoch_ms,
        retention: s.retention,
        http_addr: s.http.clone(),
        udp_addr: s.udp.clone(),
        http_workers: s.workers,
        ingest_capacity: s.queue_batches,
        queries: s.queries.clone(),
        trace_sampling: s.trace_sample_one_in,
        dump_path: s.dump_path.clone(),
        ..ServerConfig::default()
    })?;
    // Scripts binding port 0 learn the real addresses from this file.
    if let Some(path) = &s.addr_file {
        let mut lines = server.http_addr().to_string();
        if let Some(udp) = server.udp_addr() {
            lines.push('\n');
            lines.push_str(&udp.to_string());
        }
        lines.push('\n');
        std::fs::write(path, lines)?;
    }
    if let Some(capture) = &s.replay {
        let packets = read_pcap(BufReader::new(File::open(capture)?))?;
        let pace = match s.pps {
            Some(pps) => ReplayPace::Pps(pps),
            None => ReplayPace::LineRate,
        };
        server.start_replay(packets, pace);
    }
    eprintln!(
        "hashflow-server listening on http://{}{}",
        server.http_addr(),
        server
            .udp_addr()
            .map(|u| format!(", udp ingest on {u}"))
            .unwrap_or_default()
    );
    let deadline = s
        .duration_ms
        .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
    while !server.shutdown_requested() {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let report = server.shutdown();
    let mut out = String::new();
    let _ = writeln!(out, "packets processed:   {}", report.packets_processed);
    let _ = writeln!(out, "epochs sealed:       {}", report.epochs_sealed);
    let _ = writeln!(out, "records offered:     {}", report.offered_records);
    let _ = writeln!(out, "records dropped:     {}", report.dropped_records);
    for (i, replay) in report.replays.iter().enumerate() {
        let _ = writeln!(
            out,
            "replay {i}:            {} packets in {:.3}s",
            replay.packets,
            replay.elapsed.as_secs_f64()
        );
    }
    let _ = writeln!(
        out,
        "ledger conserved:    {}",
        if report.conserved() { "yes" } else { "NO" }
    );
    if let Some(errors) = &report.sink_errors {
        return Err(format!("sink flush failed: {errors}").into());
    }
    if !report.conserved() {
        return Err(format!(
            "drop ledger violated conservation: offered {} != processed {} + dropped {}",
            report.offered_records, report.packets_processed, report.dropped_records
        )
        .into());
    }
    Ok(out)
}

fn export(e: &Export) -> Result<String, Box<dyn Error>> {
    let budget = MemoryBudget::from_kib(e.memory_kib)?;
    let mut monitor = MonitorBuilder::new(e.algorithm).budget(budget).build()?;
    stream_capture(&e.path, monitor.as_mut(), |_| {})?;
    let snapshot = monitor.seal();
    let out = &e.out;
    let file = File::create(out)?;

    // One sealed epoch through the chosen sink; the same loop a
    // continuously-rotating deployment runs per epoch.
    let (mut sink, unit): (Box<dyn RecordSink>, &str) = match e.format {
        ExportFormat::NetFlowV5 => (Box::new(NetFlowV5Sink::new(file)), "netflow v5 datagrams"),
        ExportFormat::JsonLines => (Box::new(JsonLinesSink::new(file)), "json lines"),
    };
    sink.export_epoch(&snapshot)?;
    sink.finish()?;
    let bytes = std::fs::metadata(out)?.len();
    Ok(format!(
        "exported {} {} flow records as {unit} ({bytes} bytes) to {out}\n",
        snapshot.len(),
        monitor.name(),
    ))
}

/// A fresh registry and nothing else: the capture commands run the whole
/// pipeline instrumented and render from `Collector::metrics_snapshot`.
fn metered() -> Instruments {
    Instruments {
        registry: Some(MetricsRegistry::new()),
        ..Instruments::default()
    }
}

/// Runs a declarative telemetry query ([`QueryPlan`]) over a capture:
/// the capture streams through the registry-built collector (batched,
/// never fully in memory) with the plan attached, and the answer it
/// banks over the sealed records is reported next to the exact answer,
/// the same plan executed over the capture's ground truth — the
/// approximation gap an operator would actually ship.
fn query_capture(q: &Query) -> Result<String, Box<dyn Error>> {
    let Query {
        path, plan, top, ..
    } = q;
    let budget = MemoryBudget::from_kib(q.memory_kib)?;
    let mut collector = Collector::builder(q.algorithm)
        .budget(budget)
        .query(plan.clone())
        .instruments(metered())
        .build()?;
    let mut truth = GroundTruth::default();
    stream_capture(path, &mut collector, |p| truth.observe(p))?;

    let truth: Vec<FlowRecord> = truth.iter().map(|(k, c)| FlowRecord::new(*k, c)).collect();
    let exact = execute(plan, &truth);
    let snapshot = collector.seal();
    let sealed = (collector.drain_query_answers().first())
        .and_then(|answers| answers.first().cloned())
        .expect("one plan answered over the one sealed epoch");
    let group = exact.group();
    let packets = packets_and_metrics(&mut collector, q.metrics_out.as_deref())?;

    let mut out = String::new();
    let _ = writeln!(out, "capture: {path}   packets: {packets}");
    let _ = writeln!(out, "plan: {plan}");
    let _ = writeln!(
        out,
        "algorithm: {} ({budget} budget, {} sealed records)",
        collector.name(),
        snapshot.len()
    );
    let _ = writeln!(
        out,
        "groups reported: {} exact (ground truth), {} from sealed records\n",
        exact.len(),
        sealed.len()
    );
    // One pass over the sealed rows; `QueryResult::get` is a linear scan,
    // so probing it per exact row would be quadratic in group count.
    let sealed_by_key: HashMap<_, _> = sealed.rows().iter().map(|r| (r.key, r.value)).collect();

    let _ = writeln!(out, "top {top} groups (exact):");
    for row in exact.rows().iter().take(*top) {
        let sealed_value = sealed_by_key
            .get(&row.key)
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".to_owned());
        let _ = writeln!(
            out,
            "  {:>10}  (sealed {sealed_value:>6})  {}",
            row.value,
            group.format(&row.key)
        );
    }
    let agree = exact
        .rows()
        .iter()
        .filter(|r| sealed_by_key.get(&r.key) == Some(&r.value))
        .count();
    let _ = writeln!(
        out,
        "\nagreement: {agree}/{} exact groups answered identically from the sealed records",
        exact.len()
    );
    Ok(out)
}

fn analyze(a: &Analyze) -> Result<String, Box<dyn Error>> {
    let &Analyze {
        threshold, shards, ..
    } = a;
    let budget = MemoryBudget::from_kib(a.memory_kib)?;
    // The registry is the single construction path: shards > 1 wraps the
    // monitor in the threaded RSS dispatch layer, shards == 1 runs the
    // bare single-core batched hot path.
    // Analyze prints the flow report and top flows, so the estimate-only
    // sketches are rejected up front with the registry's typed error
    // instead of rendering an empty table.
    let mut collector = Collector::builder(a.algorithm)
        .budget(budget)
        .shards(shards)
        .require_records()
        .instruments(metered())
        .build()?;
    // One streaming pass: the capture is never materialized; ground
    // truth folds packet by packet while the monitor ingests batches.
    let mut truth = GroundTruth::default();
    stream_capture(&a.path, &mut collector, |p| truth.observe(p))?;
    let packets = packets_and_metrics(&mut collector, a.metrics_out.as_deref())?;

    let mut out = String::new();
    let _ = writeln!(out, "capture: {}", a.path);
    let _ = writeln!(
        out,
        "packets: {}   distinct flows: {}",
        packets,
        truth.flow_count()
    );
    if shards > 1 {
        let _ = writeln!(
            out,
            "algorithm: {} ({} budget over {} shards of {} each)\n",
            collector.name(),
            budget,
            shards,
            budget.split(shards)?,
        );
    } else {
        let _ = writeln!(out, "algorithm: {} ({} budget)\n", collector.name(), budget);
    }
    let records = collector.flow_records();
    let _ = writeln!(out, "records reported:    {}", records.len());
    let _ = writeln!(
        out,
        "cardinality estimate: {:.0}",
        collector.estimate_cardinality()
    );
    let hh = collector.heavy_hitters(threshold);
    let _ = writeln!(
        out,
        "heavy hitters (>= {threshold} pkts): {} reported, {} true\n",
        hh.len(),
        truth.heavy_hitter_count(threshold)
    );
    let _ = writeln!(out, "top {} flows:", a.top);
    for rec in hh.iter().take(a.top) {
        let true_size = truth
            .size_of(&rec.key())
            .map(|s| s.to_string())
            .unwrap_or_else(|| "?".to_owned());
        let _ = writeln!(
            out,
            "  {:>8} pkts (true {true_size:>6})  {}",
            rec.count(),
            rec.key()
        );
    }
    let _ = writeln!(out, "\nper-packet cost: {}", collector.cost());
    Ok(out)
}

/// Streams a capture through a fully instrumented pipeline and renders
/// the resulting runtime metrics — the operational "what did the
/// collector actually do" view (packets, bytes, epochs, drops, shard
/// split, latencies) next to `analyze`'s accuracy view.
fn stats(s: &Stats) -> Result<String, Box<dyn Error>> {
    let budget = MemoryBudget::from_kib(s.memory_kib)?;
    let mut builder = Collector::builder(s.algorithm)
        .budget(budget)
        .shards(s.shards)
        .instruments(metered());
    if s.epoch_ms > 0 {
        builder = builder.epoch_ns(s.epoch_ms.saturating_mul(1_000_000));
    }
    let mut collector = builder.build()?;
    stream_capture(&s.path, &mut collector, |_| {})?;
    collector.seal();
    collector.finish()?;
    let metrics = collector
        .metrics_snapshot()
        .expect("registry attached at build");
    let rendered = match s.format {
        MetricsFormat::Prometheus => metrics.to_prometheus(),
        MetricsFormat::JsonLines => metrics.to_jsonl(),
    };
    match &s.out {
        Some(out_path) => {
            std::fs::write(out_path, &rendered)?;
            Ok(format!(
                "wrote {} metric samples to {out_path}\n",
                metrics.samples().len()
            ))
        }
        None => Ok(rendered),
    }
}

fn compare(
    &Compare {
        profile,
        flows,
        memory_kib,
        seed,
    }: &Compare,
) -> Result<String, Box<dyn Error>> {
    let budget = MemoryBudget::from_kib(memory_kib)?;
    let trace = TraceGenerator::new(profile, seed).generate(flows);
    let switch = SoftwareSwitch::default();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile {} | {} flows | {} packets | {} per algorithm\n",
        profile.name(),
        flows,
        trace.packets().len(),
        budget
    );
    let _ = writeln!(
        out,
        "{:>14}  {:>7}  {:>9}  {:>8}  {:>11}  {:>10}",
        "algorithm", "fsc", "size_are", "card_re", "kpps(model)", "hashes/pkt"
    );
    for algorithm in AlgorithmKind::ALL {
        let mut monitor = MonitorBuilder::new(algorithm).budget(budget).build()?;
        let report = evaluate(monitor.as_mut(), &trace, &[]);
        let _ = writeln!(
            out,
            "{:>14}  {:>7.4}  {:>9.4}  {:>8.4}  {:>11.2}  {:>10.2}",
            report.algorithm,
            report.fsc,
            report.size_are,
            report.cardinality_re,
            switch.model().kpps(&report.cost),
            report.cost.avg_hashes_per_packet(),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_line(line: &str) -> Result<String, Box<dyn Error>> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        run(&parse(&args).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let out = run_line("help").unwrap();
        assert!(out.contains("usage: hashflow"));
    }

    #[test]
    fn model_command_multihash_and_pipelined() {
        let out = run_line("model --load 1.0 --depth 3").unwrap();
        assert!(out.contains("multi-hash"));
        assert!(out.contains("0.80"), "expected ~0.80 in: {out}");
        let out = run_line("model --load 1.0 --depth 3 --alpha 0.7").unwrap();
        assert!(out.contains("pipelined"));
        assert!(out.contains("improvement"));
    }

    #[test]
    fn generate_then_analyze_round_trip() {
        let dir = std::env::temp_dir().join("hashflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pcap = dir.join("t.pcap");
        let out = run_line(&format!(
            "generate --profile isp2 --flows 500 --seed 3 --out {}",
            pcap.display()
        ))
        .unwrap();
        assert!(out.contains("500 flows"));

        let out = run_line(&format!(
            "analyze {} --memory-kib 64 --threshold 5 --top 3",
            pcap.display()
        ))
        .unwrap();
        assert!(out.contains("distinct flows: 500"));
        assert!(out.contains("HashFlow"));
    }

    #[test]
    fn analyze_each_algorithm() {
        let dir = std::env::temp_dir().join("hashflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pcap = dir.join("algos.pcap");
        run_line(&format!(
            "generate --profile caida --flows 300 --out {}",
            pcap.display()
        ))
        .unwrap();
        for alg in [
            "hashflow",
            "hashpipe",
            "elastic",
            "flowradar",
            "netflow",
            "beaucoup",
            "exact",
        ] {
            let out = run_line(&format!(
                "analyze {} --algorithm {alg} --memory-kib 64",
                pcap.display()
            ))
            .unwrap();
            assert!(out.contains("records reported"), "{alg}: {out}");
        }
        // The estimate-only sketches cannot answer the flow report the
        // analyze command renders; the registry gate rejects them with a
        // typed error before any ingestion happens.
        for alg in ["countmin", "fcm"] {
            let err = run_line(&format!(
                "analyze {} --algorithm {alg} --memory-kib 64",
                pcap.display()
            ))
            .unwrap_err();
            assert!(err.to_string().contains("estimate-only"), "{alg}: {err}");
        }
    }

    #[test]
    fn compare_renders_all_rows() {
        let out = run_line("compare --profile isp2 --flows 2000 --memory-kib 64").unwrap();
        for name in [
            "HashFlow",
            "HashPipe",
            "ElasticSketch",
            "FlowRadar",
            "SampledNetFlow",
            "CountMin",
            "FCM",
            "BeauCoup",
            "ExactBaseline",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn export_writes_datagrams() {
        let dir = std::env::temp_dir().join("hashflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pcap = dir.join("exp.pcap");
        let nf5 = dir.join("exp.nf5");
        run_line(&format!(
            "generate --profile isp2 --flows 200 --out {}",
            pcap.display()
        ))
        .unwrap();
        let out = run_line(&format!(
            "export {} --memory-kib 64 --out {}",
            pcap.display(),
            nf5.display()
        ))
        .unwrap();
        assert!(out.contains("netflow v5"));
        let bytes = std::fs::read(&nf5).unwrap();
        // First datagram header: version 5 big-endian.
        assert_eq!(u16::from_be_bytes([bytes[0], bytes[1]]), 5);
        assert!(bytes.len() > netflow_export::HEADER_LEN);
    }

    #[test]
    fn query_command_reports_both_paths() {
        let dir = std::env::temp_dir().join("hashflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pcap = dir.join("query.pcap");
        run_line(&format!(
            "generate --profile caida --flows 400 --seed 9 --out {}",
            pcap.display()
        ))
        .unwrap();
        // Plan strings carry spaces: build the argv by hand.
        let args: Vec<String> = [
            "query",
            pcap.to_str().unwrap(),
            "--plan",
            "map src | distinct dst | reduce count | threshold 1",
            "--memory-kib",
            "256",
            "--top",
            "5",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        let out = run(&parse(&args).unwrap()).unwrap();
        assert!(out.contains("plan: map src | distinct dst | reduce count | threshold 1"));
        assert!(out.contains("top 5 groups"), "{out}");
        assert!(out.contains("agreement:"), "{out}");
        // The capture has 400 distinct src-dst-varied flows; the exact
        // side must report a non-zero group count.
        assert!(out.contains("exact (ground truth)"), "{out}");
        assert!(!out.contains("groups reported: 0 exact"), "{out}");
        // Count-filter plans run end to end.
        let args: Vec<String> = [
            "query",
            pcap.to_str().unwrap(),
            "--plan",
            "filter count>=2 | map flow | reduce sum",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        run(&parse(&args).unwrap()).unwrap();
    }

    #[test]
    fn stats_command_renders_both_formats() {
        let dir = std::env::temp_dir().join("hashflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pcap = dir.join("stats.pcap");
        run_line(&format!(
            "generate --profile isp2 --flows 300 --out {}",
            pcap.display()
        ))
        .unwrap();
        let prom = run_line(&format!(
            "stats {} --memory-kib 64 --shards 2 --epoch-ms 1",
            pcap.display()
        ))
        .unwrap();
        assert!(
            prom.contains("# TYPE hashflow_ingest_packets_total counter"),
            "{prom}"
        );
        assert!(
            prom.contains("hashflow_shard_packets_total{shard=\"1\"}"),
            "{prom}"
        );
        assert!(prom.contains("hashflow_epochs_sealed_total"), "{prom}");
        let jsonl = run_line(&format!("stats {} --format jsonl", pcap.display())).unwrap();
        assert!(
            jsonl.contains(r#""name":"hashflow_ingest_packets_total""#),
            "{jsonl}"
        );
        // --out writes the file and reports the sample count instead.
        let out_file = dir.join("stats.prom");
        let report = run_line(&format!(
            "stats {} --out {}",
            pcap.display(),
            out_file.display()
        ))
        .unwrap();
        assert!(report.contains("metric samples"), "{report}");
        let written = std::fs::read_to_string(&out_file).unwrap();
        assert!(written.contains("hashflow_ingest_packets_total"));
    }

    #[test]
    fn metrics_out_agrees_with_the_printed_report() {
        let dir = std::env::temp_dir().join("hashflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pcap = dir.join("agree.pcap");
        run_line(&format!(
            "generate --profile caida --flows 300 --seed 4 --out {}",
            pcap.display()
        ))
        .unwrap();
        let metrics_file = dir.join("agree.prom");
        let out = run_line(&format!(
            "analyze {} --memory-kib 64 --metrics-out {}",
            pcap.display(),
            metrics_file.display()
        ))
        .unwrap();
        // The printed packet count and the exported counter come from one
        // snapshot; cross-check them literally.
        let printed: u64 = out
            .lines()
            .find_map(|l| l.strip_prefix("packets: "))
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap()
            .parse()
            .unwrap();
        let exported = std::fs::read_to_string(&metrics_file).unwrap();
        assert!(
            exported.contains(&format!("hashflow_ingest_packets_total {printed}")),
            "printed {printed} not in:\n{exported}"
        );
        // A .jsonl path switches the exposition format.
        let jsonl_file = dir.join("agree.jsonl");
        let args: Vec<String> = [
            "query",
            pcap.to_str().unwrap(),
            "--plan",
            "map src | reduce count",
            "--metrics-out",
            jsonl_file.to_str().unwrap(),
        ]
        .into_iter()
        .map(String::from)
        .collect();
        run(&parse(&args).unwrap()).unwrap();
        // The plan's answer bank took one epoch: the one the run sealed.
        let jsonl = std::fs::read_to_string(&jsonl_file).unwrap();
        assert!(
            jsonl.contains(
                r#""name":"hashflow_offered_epochs_total","labels":{"component":"query_answers"},"type":"counter","value":1"#
            ),
            "{jsonl}"
        );
    }

    #[test]
    fn serve_replays_a_capture_and_reports_conservation() {
        let dir = std::env::temp_dir().join("hashflow-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pcap = dir.join("serve.pcap");
        run_line(&format!(
            "generate --profile isp2 --flows 400 --seed 9 --out {}",
            pcap.display()
        ))
        .unwrap();
        let addr_file = dir.join("addr.txt");
        let out = run_line(&format!(
            "serve --http 127.0.0.1:0 --epoch-ms 50 --duration-ms 400 \
             --replay {} --query bogus --addr-file {}",
            pcap.display(),
            addr_file.display()
        ));
        // 'bogus' is not a valid plan; boot must fail with a config error.
        assert!(out.is_err());

        let out = run_line(&format!(
            "serve --http 127.0.0.1:0 --epoch-ms 50 --duration-ms 400 \
             --replay {} --addr-file {}",
            pcap.display(),
            addr_file.display()
        ))
        .unwrap();
        assert!(out.contains("ledger conserved:    yes"), "{out}");
        assert!(out.contains("packets processed:"), "{out}");
        let addr = std::fs::read_to_string(&addr_file).unwrap();
        assert!(addr.starts_with("127.0.0.1:"), "{addr}");
    }

    #[test]
    fn analyze_missing_file_errors() {
        assert!(run_line("analyze /definitely/not/here.pcap").is_err());
    }

    #[test]
    fn analyze_sharded_matches_flow_universe() {
        let dir = std::env::temp_dir().join("hashflow-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pcap = dir.join("sharded.pcap");
        run_line(&format!(
            "generate --profile caida --flows 400 --out {}",
            pcap.display()
        ))
        .unwrap();
        let out = run_line(&format!(
            "analyze {} --memory-kib 256 --shards 4 --threshold 5",
            pcap.display()
        ))
        .unwrap();
        assert!(out.contains("4 shards"), "{out}");
        assert!(out.contains("distinct flows: 400"), "{out}");
        // Sharded analyze works for every merge-capable algorithm.
        for alg in ["flowradar", "netflow"] {
            let out = run_line(&format!(
                "analyze {} --algorithm {alg} --memory-kib 256 --shards 2",
                pcap.display()
            ))
            .unwrap();
            assert!(out.contains("2 shards"), "{alg}: {out}");
        }
        // ... and reports a clear error for the rest.
        for alg in ["elastic", "hashpipe"] {
            let err = run_line(&format!(
                "analyze {} --algorithm {alg} --shards 2",
                pcap.display()
            ))
            .unwrap_err();
            assert!(err.to_string().contains("merge layer"), "{alg}: {err}");
        }
    }
}
