//! One workload in this process: the untraced run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer ones.

use crate::env;
use crate::layers::{self, Samples};
use crate::span::Recorder;
use crate::spec::{self, Kind, Workload};
use crate::stats::{fast_time, median, percentile};
use crate::workload::{
    self, accuracy, boot_kind, prepare, scalar_twin_records, sorted_records, teardown, window,
    Check, Inputs, Route, Sut, Teardown, WindowStats, UDP_PPS,
};
use hashflow_server::json::Obj;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// `setup_s` is the fastest making of the inputs plus the fastest boot
/// among the set-ups of an untraced run. Before the window: one, and more
/// while they are cheap (up to seven within three seconds). After
/// it: one more, because a burst of the host that slowed every set-up
/// before the window has passed by then.
const MIN_SETUPS: usize = 1;
const MAX_SETUPS: usize = 7;
const SETUPS_BUDGET_S: f64 = 3.0;
const LATE_SETUPS: usize = 1;

/// Untraced-then-traced window pairs of a traced run.
const PAIRED_ROUNDS: usize = 4;
/// Shares of a traced run's seconds: the paired windows together, the
/// ingest ladder, and the short runs of the other kinds of system. With
/// boots and probes a traced run takes about as long as an untraced one.
const PAIRED_SHARE: f64 = 0.6;
const LADDER_SHARE: f64 = 0.2;
const COLLECTOR_SHARE: f64 = 0.04;
const CEILING_SHARE: f64 = 0.08;
const UDP_SHARE: f64 = 0.15;

/// Everything one run reports.
#[derive(Default)]
struct Output {
    metrics: Samples,
    checks: Vec<Check>,
    attempted: u64,
    failed: u64,
    disturbed: bool,
}

impl Output {
    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.push((name, value, n));
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    fn count(&mut self, stats: &WindowStats) {
        self.attempted += stats.packets_sent + stats.reads_us.len() as u64;
        self.failed += stats.packets_lost() + stats.reads_failed;
    }

    /// Library workloads: a packet missing from the sealed epochs' cost
    /// is one a shard queue shed.
    fn check_every_packet_counted(&mut self, sent: u64, lost: u64) {
        self.check(
            "every packet offered was counted by the sealed epochs",
            lost == 0,
            format!("{lost} missing of {sent} sent"),
        );
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn single(w: &'static Workload, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let stamp = env::stamp(
        Obj::new()
            .str("workload", w.name)
            .u64("seed", seed)
            .f64("seconds", seconds)
            .bool("traced", traced),
    )
    .build();
    println!("env {stamp}");
    let (output, expected): (Output, Vec<spec::Metric>) = if traced {
        (run_traced(w, seed, seconds), spec::PER_LAYER.to_vec())
    } else {
        (
            run_untraced(w, seed, seconds),
            spec::END_TO_END.iter().map(|(m, _)| *m).collect(),
        )
    };
    report(w, &stamp, traced, output, &expected)
}

/// Prints the metrics, the checks and the result line, and keeps a copy
/// under `benchmark/out/`.
fn report(
    w: &Workload,
    stamp: &str,
    traced: bool,
    mut output: Output,
    expected: &[spec::Metric],
) -> ExitCode {
    let mut metrics = Obj::new();
    let mut lines = String::new();
    for spec in expected {
        let found = output.metrics.iter().find(|(name, ..)| *name == spec.name);
        let (value, n) = found.map_or((f64::NAN, 0), |&(_, v, n)| (v, n));
        if !value.is_finite() {
            output.check("every metric has a value", false, spec.name.to_string());
        }
        lines += &format!("metric {} {value} {} n={n}\n", spec.name, spec.unit);
        metrics = metrics.raw(
            spec.name,
            Obj::new()
                .f64("value", value)
                .str("unit", spec.unit)
                .build(),
        );
    }
    print!("{lines}");
    for check in &output.checks {
        let verdict = if check.ok { "ok" } else { "FAILED" };
        println!("check {verdict}: {} ({})", check.name, check.detail);
    }
    if output.disturbed {
        println!(
            "disturbed: the load generator ran more than {} ms late",
            workload::DISTURBED_LATE_MS
        );
    }
    let correct = output.checks.iter().all(|c| c.ok);
    let result = Obj::new()
        .bool("correct", correct)
        .u64("attempted", output.attempted.max(1))
        .u64("failed", output.failed)
        .raw("metrics", metrics.build())
        .build();
    let kept = Obj::new()
        .raw("env", stamp)
        .bool("disturbed", output.disturbed)
        .raw("result", result.clone())
        .build();
    let path = out_dir().join(format!("result-{}-trace{}.json", w.name, u8::from(traced)));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, kept)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}

/// Shuts a daemon down; library systems just drop.
fn discard(sut: Sut) {
    if let Sut::Daemon(d) = sut {
        d.server.shutdown();
    }
}

/// Drives one window. On a quiet host nothing is lost and the generator is
/// on time: a window in which something failed measured a stall of the
/// host (a vCPU taken away for longer than the kernel's socket buffer
/// holds). It is discarded, its `(sent, processed)` added to `discarded`,
/// and one more is driven; what that one loses is reported.
fn window_or_repeat(
    sut: &mut Sut,
    inputs: &Inputs,
    seconds: f64,
    rec: &mut Recorder,
    discarded: &mut (u64, u64),
) -> WindowStats {
    let stats = window(sut, inputs, seconds, rec);
    if !stats.disturbed() && stats.packets_lost() + stats.reads_failed == 0 {
        return stats;
    }
    println!(
        "disturbed: a window that lost {} of {} packets and failed {} reads (generator late: \
         {}) is discarded and repeated once",
        stats.packets_lost(),
        stats.packets_sent,
        stats.reads_failed,
        stats.disturbed()
    );
    discarded.0 += stats.packets_sent;
    discarded.1 += stats.packets_processed;
    window(sut, inputs, seconds, rec)
}

/// Everything before the timed window, timed in its two parts: making
/// the inputs, and building and warming up the system.
fn set_up(w: &Workload, seed: u64, rec: &mut Recorder) -> ([f64; 2], Inputs, Sut) {
    let started = Instant::now();
    let inputs = prepare(w, seed, rec);
    let prepared = started.elapsed().as_secs_f64();
    let sut = boot_kind(w.kind, w.memory_kib, &inputs, true, rec);
    let booted = started.elapsed().as_secs_f64() - prepared;
    ([prepared, booted], inputs, sut)
}

fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Output {
    let mut out = Output::default();
    let mut rec = Recorder::new(Instant::now(), false);
    // Set up several times; measure on the last.
    let mut setups: Vec<[f64; 2]> = Vec::new();
    let mut booted: Option<(Inputs, Sut)> = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().flatten().sum::<f64>() < SETUPS_BUDGET_S)
    {
        if let Some((_, previous)) = booted.take() {
            discard(previous);
        }
        let (took, inputs, sut) = set_up(w, seed, &mut rec);
        setups.push(took);
        booted = Some((inputs, sut));
    }
    let (inputs, mut sut) = booted.expect("at least one set-up ran");
    // (sent, processed) of a discarded window: the daemon still counts them.
    let mut discarded = (0, 0);
    let mut stats = window_or_repeat(&mut sut, &inputs, seconds, &mut rec, &mut discarded);
    // Before the checks below build second collectors and truth tables.
    let peak_rss = env::peak_rss_mib().unwrap_or(f64::NAN);
    out.disturbed = stats.disturbed();
    for _ in 0..LATE_SETUPS {
        let (took, _, late) = set_up(w, seed, &mut rec);
        discard(late);
        setups.push(took);
    }

    let truth = inputs.trace.ground_truth();
    let accuracy_epoch = match sut {
        Sut::Collector(_) | Sut::Sharded(_) => {
            out.check_every_packet_counted(stats.packets_sent, stats.packets_lost());
            let first = stats.first_epoch.take().expect("a window seals an epoch");
            let twin = scalar_twin_records(w, inputs.trace.packets());
            out.check(
                "first epoch equals a process_packet twin's",
                sorted_records(&first) == twin,
                format!("{} records, twin {}", first.len(), twin.len()),
            );
            Some(std::sync::Arc::new(first))
        }
        Sut::Daemon(d) => {
            let d = *d;
            // Only where a plan is attached and its answers are banked.
            if d.kind == Kind::DaemonUdpReaders {
                let kib = stats.queries_body_kib.last().copied().unwrap_or(0.0);
                out.check(
                    "/queries body within 256 KiB-2 MiB",
                    (256.0..=2048.0).contains(&kib),
                    format!("{kib:.0} KiB"),
                );
            }
            let boot_epoch = d.boot_epoch.clone();
            let sent = d.boot_packets + discarded.0 + stats.packets_sent;
            let processed = d.boot_packets + discarded.1 + stats.packets_processed;
            let Teardown {
                report, mut checks, ..
            } = teardown(d, sent, &mut rec);
            out.checks.append(&mut checks);
            out.check(
                "the benchmark's packet count equals the daemon's",
                report.packets_processed == processed,
                format!(
                    "counted {processed}, daemon processed {}",
                    report.packets_processed
                ),
            );
            boot_epoch
        }
    };
    out.count(&stats);

    // Each part at its fastest: a part is short enough to fit between two
    // bursts of the host where a whole set-up is not.
    let fastest = |part: usize| {
        let times: Vec<f64> = setups.iter().map(|s| s[part]).collect();
        fast_time(&times).unwrap_or(f64::NAN)
    };
    out.put("setup_s", fastest(0) + fastest(1), setups.len());
    out.put("ingest_mpps", stats.ingest_mpps(), stats.mpps.len());
    match accuracy_epoch {
        Some(epoch) => {
            let (fsc, size_are) = accuracy(&epoch, truth);
            out.put("fsc", fsc, truth.len());
            out.put("size_are", size_are, truth.len());
        }
        None => out.check(
            "the boot pass landed in one epoch",
            false,
            "every daemon booted split it across epochs".to_string(),
        ),
    }
    out.put("peak_rss_mib", peak_rss, 1);

    // Reported where they apply, not gated: no row in BENCHMARK.json.
    let extra = |name: &str, value: f64, unit: &str, n: usize| {
        println!("extra {name} {value} {unit} n={n}");
    };
    let drop_share = stats.packets_lost() as f64 / stats.packets_sent.max(1) as f64;
    extra(
        "drop_share",
        drop_share,
        "ratio",
        stats.packets_sent as usize,
    );
    if let Some(stall) = median(&stats.stall_ms) {
        extra("seal_stall_ms", stall, "ms", stats.stall_ms.len());
    }
    let reads = stats.latencies(None);
    if !reads.is_empty() {
        let quantile = |q| percentile(&reads, q).unwrap_or(f64::NAN);
        extra("query_p50_us", quantile(0.50), "us", reads.len());
        extra("query_p95_us", quantile(0.95), "us", reads.len());
        let fail_share = stats.reads_failed as f64 / reads.len() as f64;
        extra("query_fail_share", fail_share, "ratio", reads.len());
    }
    out
}

/// A system booted, driven and torn down.
struct Driven {
    /// Every window driven with `rec`, added up.
    stats: WindowStats,
    /// `ingest_mpps` over the windows driven with `rec` as a share of that
    /// over the untraced windows between them, on the same system.
    overhead_share: f64,
    /// `(attempted, failed)` over every window.
    counts: (u64, u64),
    start_ms: f64,
    teardown: Option<Teardown>,
}

/// Boots a system of `kind` and drives it for `seconds` per window:
/// `paired_rounds` times an untraced window then one with `rec` (so that
/// host drift hits both alike), or a single window with `rec` if zero.
fn drive(
    kind: Kind,
    kib: usize,
    inputs: &Inputs,
    seconds: f64,
    paired_rounds: usize,
    rec: &mut Recorder,
) -> Driven {
    let mut sut = boot_kind(kind, kib, inputs, false, rec);
    let mut off = Recorder::new(Instant::now(), false);
    let mut plain = WindowStats::default();
    let mut stats = WindowStats::default();
    let mut discarded = (0, 0);
    for _ in 0..paired_rounds.max(1) {
        if paired_rounds > 0 {
            plain.absorb(window_or_repeat(
                &mut sut,
                inputs,
                seconds,
                &mut off,
                &mut discarded,
            ));
        }
        stats.absorb(window_or_repeat(
            &mut sut,
            inputs,
            seconds,
            rec,
            &mut discarded,
        ));
    }
    let overhead_share = stats.ingest_mpps() / plain.ingest_mpps();
    let mut all = Output::default();
    all.count(&plain);
    all.count(&stats);
    let (start_ms, teardown) = match sut {
        Sut::Daemon(d) => {
            let sent = d.boot_packets + discarded.0 + plain.packets_sent + stats.packets_sent;
            (d.start_ms, Some(teardown(*d, sent, rec)))
        }
        _ => (0.0, None),
    };
    Driven {
        stats,
        overhead_share,
        counts: (all.attempted, all.failed),
        start_ms,
        teardown,
    }
}

fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Output {
    let mut out = Output::default();
    let mut rec = Recorder::new(Instant::now(), true);
    let setup = rec.enter("setup", 0);
    let mut inputs = prepare(w, seed, &mut rec);
    rec.exit(setup);

    // The workload itself: untraced and traced windows in turn, on the
    // same system.
    let main = drive(
        w.kind,
        w.memory_kib,
        &inputs,
        seconds * PAIRED_SHARE / (2 * PAIRED_ROUNDS) as f64,
        PAIRED_ROUNDS,
        &mut rec,
    );
    out.put("trace_overhead_share", main.overhead_share, PAIRED_ROUNDS);

    // The layers on their own, over the same packets and memory size.
    let collector_rung = layers::ladder(
        &inputs.trace,
        w.memory_kib,
        seconds * LADDER_SHARE,
        &mut out.metrics,
    );
    layers::shard(inputs.trace.packets(), w.memory_kib, &mut out.metrics);
    layers::wire(inputs.trace.packets(), &mut out.metrics);

    // Each kind of system contributes its layer's numbers: the workload's
    // own traced window where it is of that kind, a short run otherwise.
    let of_kind = |kind: Kind, share: f64, inputs: &Inputs| {
        let mut off = Recorder::new(Instant::now(), false);
        (kind != w.kind).then(|| drive(kind, w.memory_kib, inputs, seconds * share, 0, &mut off))
    };
    let collector = of_kind(Kind::Collector, COLLECTOR_SHARE, &inputs);
    let ceiling = of_kind(Kind::DaemonCeiling, CEILING_SHARE, &inputs);
    if inputs.datagrams.is_empty() {
        let needed = (UDP_PPS * seconds * UDP_SHARE) as usize;
        let mut off = Recorder::new(Instant::now(), false);
        inputs.datagrams = workload::encode(inputs.trace.packets(), needed, &mut off);
    }
    let udp = of_kind(Kind::DaemonUdpReaders, UDP_SHARE, &inputs);
    for driven in [
        Some(&main),
        collector.as_ref(),
        ceiling.as_ref(),
        udp.as_ref(),
    ]
    .into_iter()
    .flatten()
    {
        out.attempted += driven.counts.0;
        out.failed += driven.counts.1;
        match &driven.teardown {
            Some(torn) => out.checks.extend(torn.checks.iter().cloned()),
            None => out.check_every_packet_counted(driven.counts.0, driven.counts.1),
        }
    }

    let stats = &collector.as_ref().unwrap_or(&main).stats;
    out.put(
        "collector.busy_share",
        stats.busy_s / stats.wall_s,
        stats.mpps.len(),
    );
    let stats = &ceiling.as_ref().unwrap_or(&main).stats;
    out.put(
        "server.offer_wait_ns_per_pkt",
        stats.offer_wait_ns_per_pkt(),
        stats.packets_sent as usize,
    );
    let udp = udp.as_ref().unwrap_or(&main);
    let stats = &udp.stats;
    let torn = udp.teardown.as_ref().expect("a daemon was torn down");
    out.put("server.epochs_sealed", torn.report.epochs_sealed as f64, 1);
    out.put(
        "server.udp_lost_share",
        stats.udp_lost_share(),
        stats.packets_sent as usize,
    );
    out.put(
        "server.shed_share",
        stats.shed_share(),
        stats.packets_sent as usize,
    );
    out.put("server.start_ms", udp.start_ms, 1);
    out.put("server.shutdown_ms", torn.shutdown_ms, 1);
    for (name, route) in [
        ("server.http.epochs.p50_us", Route::Epochs),
        ("server.http.top10.p50_us", Route::Top10),
        ("server.http.flow.p50_us", Route::Flow),
        ("server.http.metrics.p50_us", Route::Metrics),
        ("server.http.queries.p50_us", Route::Queries),
    ] {
        let us = stats.latencies(Some(route));
        out.put(name, median(&us).unwrap_or(f64::NAN), us.len());
    }
    let all = stats.latencies(None);
    out.put(
        "server.http.all.p99_us",
        percentile(&all, 0.99).unwrap_or(f64::NAN),
        all.len(),
    );
    out.put(
        "server.http.queries_body_kib",
        median(&stats.queries_body_kib).unwrap_or(f64::NAN),
        stats.queries_body_kib.len(),
    );
    out.put("obs.render_prometheus_us", torn.render_prometheus_us, 20);
    let late = |q| percentile(&stats.late_ms, q).unwrap_or(f64::NAN);
    out.put("loadgen.late_ms_p99", late(0.99), stats.late_ms.len());
    out.put("loadgen.late_ms_max", late(1.0), stats.late_ms.len());
    out.put("loadgen.sent_kpps", stats.sent_kpps(), stats.late_ms.len());
    out.disturbed = stats.disturbed();

    // Where the time went, by span name.
    let summary = rec.summary();
    for &(name, count, total_ns, self_ns) in &summary {
        println!(
            "span {name} count={count} total_ms={:.3} self_ms={:.3}",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    // The ladder's Collector rung against the same calls in the traced
    // windows, epoch by epoch (a batch's parent span is its epoch).
    let mut in_epoch = std::collections::BTreeMap::new();
    for span in rec.spans() {
        if let ("collector.process_batch", Some(epoch)) = (span.name, span.parent) {
            *in_epoch.entry(epoch).or_insert(0u64) += span.end_ns - span.start_ns;
        }
    }
    if !in_epoch.is_empty() {
        let packets = inputs.trace.packets().len() as f64;
        let per_pkt: Vec<f64> = in_epoch.values().map(|&ns| ns as f64 / packets).collect();
        let in_run = fast_time(&per_pkt).unwrap_or(f64::NAN);
        println!(
            "peel collector rung {collector_rung:.2} ns/pkt, traced windows {in_run:.2} ns/pkt, \
             ratio {:.3}",
            collector_rung / in_run
        );
    }
    let path = out_dir().join(format!("trace-{}.jsonl", w.name));
    match std::fs::create_dir_all(out_dir()).and_then(|()| rec.write_jsonl(&path)) {
        Ok(()) => println!("trace {} spans in {}", rec.spans().len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    out
}
