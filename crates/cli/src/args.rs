//! Hand-rolled argument parsing (no external parser dependency).
//!
//! Algorithm names resolve through the registry
//! ([`hashflow_collector::AlgorithmKind`]) — the CLI holds no
//! name→algorithm table of its own.

use hashflow_collector::AlgorithmKind;
use hashflow_trace::TraceProfile;
use std::error::Error;
use std::fmt;

/// Usage text shown on parse errors and `--help`.
pub const USAGE: &str = "\
usage: hashflow <command> [options]

commands:
  analyze <capture.pcap>    analyze an Ethernet/IPv4 pcap capture
      --memory-kib <N>      memory budget in KiB        [default: 256]
      --algorithm <name>    hashflow|hashpipe|elastic|flowradar|netflow|
                            beaucoup|exact              [default: hashflow]
                            (not the estimate-only countmin|fcm)
      --threshold <T>       heavy-hitter threshold      [default: 100]
      --top <K>             flows to list               [default: 10]
      --shards <N>          flow-partitioned shards     [default: 1]
                            fed in turn on one thread (the threaded
                            replay is ShardedMonitor::ingest)
                            each flow is pinned to one shard by hashing
                            its key; the memory budget is split into N
                            equal shard budgets whose sum never exceeds
                            the single-monitor budget (the remainder of
                            the division is dropped, not rounded up);
                            supported by hashflow, flowradar, netflow,
                            countmin, fcm, beaucoup and exact
      --metrics-out <file>  also write the run's pipeline metrics
                            (Prometheus text; JSON lines when the path
                            ends in .jsonl)
  stats <capture.pcap>      stream a capture and report the pipeline's
                            runtime metrics (ingest/rotation/sink/shard/
                            query counters, gauges and histograms)
      --memory-kib <N>      memory budget in KiB        [default: 256]
      --algorithm <name>    hashflow|hashpipe|elastic|flowradar|netflow|
                            countmin|fcm|beaucoup|exact [default: hashflow]
      --shards <N>          flow-partitioned shards     [default: 1]
                            fed in turn on one thread (the threaded
                            replay is ShardedMonitor::ingest)
      --epoch-ms <N>        epoch length in ms; 0 seals one epoch at the
                            end of the capture          [default: 0]
      --format <name>       prom (Prometheus text) or jsonl (JSON lines)
                                                        [default: prom]
      --out <file>          write the metrics to a file instead of stdout
  generate                  write a synthetic trace as pcap
      --profile <name>      caida|campus|isp1|isp2      [default: caida]
      --flows <N>           number of flows             [default: 10000]
      --seed <S>            RNG seed                    [default: 1]
      --out <file>          output path                 (required)
  compare                   equal-memory algorithm shootout
      --profile <name>      caida|campus|isp1|isp2      [default: caida]
      --flows <N>           number of flows             [default: 60000]
      --memory-kib <N>      per-algorithm budget in KiB [default: 256]
      --seed <S>            RNG seed                    [default: 1]
  model                     evaluate the utilization model
      --load <m/n>          traffic load                [default: 1.0]
      --depth <d>           hash functions              [default: 3]
      --alpha <a>           pipeline weight (omit for multi-hash)
  export <capture.pcap>     collect records and stream them to an export sink
      --memory-kib <N>      memory budget in KiB        [default: 256]
      --algorithm <name>    hashflow|hashpipe|elastic|flowradar|netflow|
                            countmin|fcm|beaucoup|exact [default: hashflow]
      --format <name>       nf5 (NetFlow v5 datagrams) or jsonl (JSON lines)
                                                        [default: nf5]
      --out <file>          output path                 (required)
  serve                     run the collector as a long-lived daemon with
                            live UDP ingest and a concurrent HTTP query API
                            (GET /epochs, /epochs/{n}/top, /queries,
                            /metrics, /healthz, /debug/*; POST /queries,
                            /shutdown)
      --http <addr>         HTTP bind address           [default: 127.0.0.1:8640]
                            use port 0 for an ephemeral port (see --addr-file)
      --udp <addr>          UDP ingest bind address (HFW1 datagrams);
                            omitted = no UDP front-end
      --algorithm <name>    hashflow|hashpipe|elastic|flowradar|netflow|
                            countmin|fcm|beaucoup|exact [default: hashflow]
      --memory-kib <N>      memory budget in KiB        [default: 256]
      --shards <N>          flow-partitioned shards     [default: 1]
                            fed in turn on one thread (the threaded
                            replay is ShardedMonitor::ingest)
      --epoch-ms <N>        wall-clock epoch length     [default: 1000]
      --retention <N>       sealed epochs kept queryable[default: 64]
      --workers <N>         HTTP worker threads         [default: 4]
      --queue-batches <N>   ingest queue bound          [default: 64]
      --query <plan>        attach a query plan at boot (repeatable)
      --replay <file.pcap>  also replay a capture through the ingest queue
      --pps <N>             pace the replay (packets/s; default line rate)
      --duration-ms <N>     exit after N ms (otherwise run until
                            POST /shutdown)
      --seed <S>            hash seed                   [default: 12648430]
      --addr-file <file>    write the bound HTTP address (line 1) and UDP
                            address (line 2, if any) for scripts using
                            ephemeral ports
      --trace-sample-one-in <N>
                            flow-path tracing: deterministically trace
                            1-in-N flows by key hash (0 disables tracing)
                                                        [default: 1024]
      --dump-path <file>    append flight-recorder JSONL dumps here on
                            fault transitions (sink quarantine, shard
                            panic)
  query <capture.pcap>      run a declarative telemetry query over a capture
      --plan <string>       pipeline of the form        (required)
                            'filter proto=6 | map dst | distinct src |
                             reduce count | threshold 40'
                            stages: filter (fields src, dst, srcport,
                            dstport, proto, count; ops = != < <= > >=),
                            map/distinct (flow, src, dst, srcdst,
                            srcport, dstport, proto), reduce
                            (sum|count|max), threshold N
      --memory-kib <N>      memory budget in KiB        [default: 256]
      --algorithm <name>    hashflow|hashpipe|elastic|flowradar|netflow|
                            countmin|fcm|beaucoup|exact [default: hashflow]
      --top <K>             result rows to print        [default: 10]
                            the capture streams through the monitor in
                            batches (never fully in memory); the report
                            shows the exact answer (the plan over the
                            capture's ground truth) next to the answer
                            from the monitor's sealed records
      --metrics-out <file>  also write the run's pipeline metrics
                            (Prometheus text; JSON lines when the path
                            ends in .jsonl)
";

/// Argument parsing failure with a message for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(String);

impl ArgError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ArgError(msg.into())
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: {}", self.0)
    }
}

impl Error for ArgError {}

/// Resolves `--algorithm` through the registry; unknown names report the
/// registry's full list of valid algorithms.
fn parse_algorithm(s: &str) -> Result<AlgorithmKind, ArgError> {
    AlgorithmKind::parse(s).map_err(|e| ArgError::new(e.to_string()))
}

/// Export serialization format for the `export` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportFormat {
    /// NetFlow v5 datagrams (`NetFlowV5Sink`).
    NetFlowV5,
    /// JSON lines, one record per line (`JsonLinesSink`).
    JsonLines,
}

impl ExportFormat {
    fn parse(s: &str) -> Result<Self, ArgError> {
        match s.to_ascii_lowercase().as_str() {
            "nf5" | "netflow" | "netflowv5" => Ok(ExportFormat::NetFlowV5),
            "jsonl" | "json-lines" => Ok(ExportFormat::JsonLines),
            other => Err(ArgError::new(format!(
                "unknown export format '{other}'; valid formats: nf5, jsonl"
            ))),
        }
    }
}

/// Exposition format for runtime pipeline metrics (`stats --format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition.
    Prometheus,
    /// JSON lines, one metric per line.
    JsonLines,
}

impl MetricsFormat {
    fn parse(s: &str) -> Result<Self, ArgError> {
        match s.to_ascii_lowercase().as_str() {
            "prom" | "prometheus" => Ok(MetricsFormat::Prometheus),
            "jsonl" | "json-lines" => Ok(MetricsFormat::JsonLines),
            other => Err(ArgError::new(format!(
                "unknown metrics format '{other}'; valid formats: prom, jsonl"
            ))),
        }
    }
}

/// A fully parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    /// The subcommand and its parameters.
    pub command: Command,
}

/// Subcommands of the CLI.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Analyze a pcap capture.
    Analyze {
        /// Path to the capture.
        path: String,
        /// Memory budget in KiB.
        memory_kib: usize,
        /// Which algorithm to run.
        algorithm: AlgorithmKind,
        /// Heavy-hitter threshold in packets.
        threshold: u32,
        /// How many top flows to list.
        top: usize,
        /// Parallel ingest shards (1 = the single-core paper setup).
        shards: usize,
        /// Optional file receiving the run's pipeline metrics.
        metrics_out: Option<String>,
    },
    /// Stream a capture and report the pipeline's runtime metrics.
    Stats {
        /// Path to the capture.
        path: String,
        /// Memory budget in KiB.
        memory_kib: usize,
        /// Which algorithm to run.
        algorithm: AlgorithmKind,
        /// Parallel ingest shards.
        shards: usize,
        /// Epoch length in milliseconds; 0 seals a single epoch at the
        /// end of the capture.
        epoch_ms: u64,
        /// Exposition format.
        format: MetricsFormat,
        /// Optional output file (stdout otherwise).
        out: Option<String>,
    },
    /// Generate a synthetic pcap.
    Generate {
        /// Trace profile.
        profile: TraceProfile,
        /// Number of flows.
        flows: usize,
        /// RNG seed.
        seed: u64,
        /// Output file.
        out: String,
    },
    /// Equal-memory comparison of all algorithms.
    Compare {
        /// Trace profile.
        profile: TraceProfile,
        /// Number of flows.
        flows: usize,
        /// Budget per algorithm in KiB.
        memory_kib: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Collect flow records from a capture and stream them to a sink.
    Export {
        /// Path to the capture.
        path: String,
        /// Memory budget in KiB.
        memory_kib: usize,
        /// Which algorithm to run.
        algorithm: AlgorithmKind,
        /// Serialization format of the sink.
        format: ExportFormat,
        /// Output file receiving the serialized epochs.
        out: String,
    },
    /// Run a declarative telemetry query over a capture.
    Query {
        /// Path to the capture.
        path: String,
        /// The parsed query plan.
        plan: hashflow_collector::QueryPlan,
        /// Memory budget in KiB.
        memory_kib: usize,
        /// Which algorithm to run.
        algorithm: AlgorithmKind,
        /// How many result rows to print.
        top: usize,
        /// Optional file receiving the run's pipeline metrics.
        metrics_out: Option<String>,
    },
    /// Run the collector as a long-lived daemon.
    Serve {
        /// Which algorithm to run.
        algorithm: AlgorithmKind,
        /// Memory budget in KiB.
        memory_kib: usize,
        /// Parallel ingest shards.
        shards: usize,
        /// Wall-clock epoch length in milliseconds.
        epoch_ms: u64,
        /// Sealed epochs kept queryable.
        retention: usize,
        /// HTTP bind address.
        http: String,
        /// UDP ingest bind address, if the front-end is enabled.
        udp: Option<String>,
        /// HTTP worker threads.
        workers: usize,
        /// Ingest queue bound in batches.
        queue_batches: usize,
        /// Query plans (text form) attached at boot.
        queries: Vec<String>,
        /// Capture to replay through the ingest queue, if any.
        replay: Option<String>,
        /// Replay pacing in packets per second (`None` = line rate).
        pps: Option<u64>,
        /// Exit after this many milliseconds (`None` = run until
        /// `POST /shutdown`).
        duration_ms: Option<u64>,
        /// Hash seed.
        seed: u64,
        /// File receiving the bound addresses, for ephemeral ports.
        addr_file: Option<String>,
        /// Flow-path tracing rate: trace 1-in-N flows (`None` = off).
        trace_sample_one_in: Option<u64>,
        /// File receiving flight-recorder dumps on fault transitions.
        dump_path: Option<String>,
    },
    /// Print utilization-model predictions.
    Model {
        /// Traffic load m/n.
        load: f64,
        /// Number of hash functions.
        depth: usize,
        /// Pipeline weight; `None` selects the multi-hash model.
        alpha: Option<f64>,
    },
    /// Show usage.
    Help,
}

fn parse_profile(s: &str) -> Result<TraceProfile, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "caida" => Ok(TraceProfile::Caida),
        "campus" => Ok(TraceProfile::Campus),
        "isp1" => Ok(TraceProfile::Isp1),
        "isp2" => Ok(TraceProfile::Isp2),
        other => Err(ArgError::new(format!("unknown profile '{other}'"))),
    }
}

/// Parses `--flows`, rejecting 0 before it can trip the trace
/// generator's internal assertion.
fn parse_flows(opts: &Options<'_>, default: usize) -> Result<usize, ArgError> {
    let flows: usize = opts.parse_or("flows", default)?;
    if flows == 0 {
        return Err(ArgError::new("--flows must be at least 1"));
    }
    Ok(flows)
}

struct Options<'a> {
    pairs: Vec<(&'a str, &'a str)>,
    positional: Vec<&'a str>,
}

fn split_options(args: &[String]) -> Result<Options<'_>, ArgError> {
    let mut pairs = Vec::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| ArgError::new(format!("option --{name} needs a value")))?;
            pairs.push((name, value.as_str()));
            i += 2;
        } else {
            positional.push(a);
            i += 1;
        }
    }
    Ok(Options { pairs, positional })
}

impl Options<'_> {
    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Every value given for a repeatable option, in order.
    fn get_all(&self, name: &str) -> Vec<String> {
        self.pairs
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| (*v).to_string())
            .collect()
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::new(format!("invalid value '{v}' for --{name}"))),
        }
    }

    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for (name, _) in &self.pairs {
            if !allowed.contains(name) {
                return Err(ArgError::new(format!("unknown option --{name}")));
            }
        }
        Ok(())
    }
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`ArgError`] on unknown commands, unknown options, or
/// malformed values.
pub fn parse(args: &[String]) -> Result<ParsedArgs, ArgError> {
    let Some(cmd) = args.first() else {
        return Ok(ParsedArgs {
            command: Command::Help,
        });
    };
    let rest = &args[1..];
    let command = match cmd.as_str() {
        "help" | "--help" | "-h" => Command::Help,
        "analyze" => {
            let opts = split_options(rest)?;
            opts.reject_unknown(&[
                "memory-kib",
                "algorithm",
                "threshold",
                "top",
                "shards",
                "metrics-out",
            ])?;
            let path = opts
                .positional
                .first()
                .ok_or_else(|| ArgError::new("analyze needs a capture path"))?
                .to_string();
            let shards: usize = opts.parse_or("shards", 1)?;
            if shards == 0 {
                return Err(ArgError::new("--shards must be at least 1"));
            }
            Command::Analyze {
                path,
                memory_kib: opts.parse_or("memory-kib", 256)?,
                algorithm: match opts.get("algorithm") {
                    Some(v) => parse_algorithm(v)?,
                    None => AlgorithmKind::HashFlow,
                },
                threshold: opts.parse_or("threshold", 100)?,
                top: opts.parse_or("top", 10)?,
                shards,
                metrics_out: opts.get("metrics-out").map(String::from),
            }
        }
        "stats" => {
            let opts = split_options(rest)?;
            opts.reject_unknown(&[
                "memory-kib",
                "algorithm",
                "shards",
                "epoch-ms",
                "format",
                "out",
            ])?;
            let shards: usize = opts.parse_or("shards", 1)?;
            if shards == 0 {
                return Err(ArgError::new("--shards must be at least 1"));
            }
            Command::Stats {
                path: opts
                    .positional
                    .first()
                    .ok_or_else(|| ArgError::new("stats needs a capture path"))?
                    .to_string(),
                memory_kib: opts.parse_or("memory-kib", 256)?,
                algorithm: match opts.get("algorithm") {
                    Some(v) => parse_algorithm(v)?,
                    None => AlgorithmKind::HashFlow,
                },
                shards,
                epoch_ms: opts.parse_or("epoch-ms", 0)?,
                format: match opts.get("format") {
                    Some(v) => MetricsFormat::parse(v)?,
                    None => MetricsFormat::Prometheus,
                },
                out: opts.get("out").map(String::from),
            }
        }
        "generate" => {
            let opts = split_options(rest)?;
            opts.reject_unknown(&["profile", "flows", "seed", "out"])?;
            Command::Generate {
                profile: parse_profile(opts.get("profile").unwrap_or("caida"))?,
                flows: parse_flows(&opts, 10_000)?,
                seed: opts.parse_or("seed", 1)?,
                out: opts
                    .get("out")
                    .ok_or_else(|| ArgError::new("generate needs --out <file>"))?
                    .to_string(),
            }
        }
        "compare" => {
            let opts = split_options(rest)?;
            opts.reject_unknown(&["profile", "flows", "memory-kib", "seed"])?;
            Command::Compare {
                profile: parse_profile(opts.get("profile").unwrap_or("caida"))?,
                flows: parse_flows(&opts, 60_000)?,
                memory_kib: opts.parse_or("memory-kib", 256)?,
                seed: opts.parse_or("seed", 1)?,
            }
        }
        "serve" => {
            let opts = split_options(rest)?;
            opts.reject_unknown(&[
                "algorithm",
                "memory-kib",
                "shards",
                "epoch-ms",
                "retention",
                "http",
                "udp",
                "workers",
                "queue-batches",
                "query",
                "replay",
                "pps",
                "duration-ms",
                "seed",
                "addr-file",
                "trace-sample-one-in",
                "dump-path",
            ])?;
            if let Some(extra) = opts.positional.first() {
                return Err(ArgError::new(format!(
                    "serve takes no positional argument (got '{extra}'); \
                     use --replay <file.pcap> to feed a capture"
                )));
            }
            let shards: usize = opts.parse_or("shards", 1)?;
            if shards == 0 {
                return Err(ArgError::new("--shards must be at least 1"));
            }
            let epoch_ms: u64 = opts.parse_or("epoch-ms", 1_000)?;
            if epoch_ms == 0 {
                return Err(ArgError::new("--epoch-ms must be at least 1"));
            }
            let retention: usize = opts.parse_or("retention", 64)?;
            if retention == 0 {
                return Err(ArgError::new("--retention must be at least 1"));
            }
            let pps = match opts.get("pps") {
                None => None,
                Some(v) => {
                    let pps: u64 = v
                        .parse()
                        .map_err(|_| ArgError::new(format!("invalid value '{v}' for --pps")))?;
                    if pps == 0 {
                        return Err(ArgError::new("--pps must be at least 1"));
                    }
                    Some(pps)
                }
            };
            let replay = opts.get("replay").map(String::from);
            if pps.is_some() && replay.is_none() {
                return Err(ArgError::new("--pps needs --replay <file.pcap>"));
            }
            Command::Serve {
                algorithm: match opts.get("algorithm") {
                    Some(v) => parse_algorithm(v)?,
                    None => AlgorithmKind::HashFlow,
                },
                memory_kib: opts.parse_or("memory-kib", 256)?,
                shards,
                epoch_ms,
                retention,
                http: opts.get("http").unwrap_or("127.0.0.1:8640").to_string(),
                udp: opts.get("udp").map(String::from),
                workers: opts.parse_or("workers", 4)?,
                queue_batches: opts.parse_or("queue-batches", 64)?,
                queries: opts.get_all("query"),
                replay,
                pps,
                duration_ms: match opts.get("duration-ms") {
                    None => None,
                    Some(v) => Some(v.parse().map_err(|_| {
                        ArgError::new(format!("invalid value '{v}' for --duration-ms"))
                    })?),
                },
                seed: opts.parse_or("seed", 0xC0FFEE)?,
                addr_file: opts.get("addr-file").map(String::from),
                // 0 switches tracing off; anything else is the 1-in-N rate.
                trace_sample_one_in: match opts.parse_or("trace-sample-one-in", 1024u64)? {
                    0 => None,
                    n => Some(n),
                },
                dump_path: opts.get("dump-path").map(String::from),
            }
        }
        "model" => {
            let opts = split_options(rest)?;
            opts.reject_unknown(&["load", "depth", "alpha"])?;
            let load: f64 = opts.parse_or("load", 1.0)?;
            if !load.is_finite() || load < 0.0 {
                return Err(ArgError::new(format!(
                    "--load must be a non-negative traffic load, got {load}"
                )));
            }
            let depth: usize = opts.parse_or("depth", 3)?;
            if depth == 0 {
                return Err(ArgError::new("--depth must be at least 1"));
            }
            let alpha = match opts.get("alpha") {
                None => None,
                Some(v) => {
                    let a: f64 = v
                        .parse()
                        .map_err(|_| ArgError::new(format!("invalid value '{v}' for --alpha")))?;
                    if !a.is_finite() || a <= 0.0 || a > 1.0 {
                        return Err(ArgError::new(format!("--alpha must be in (0, 1], got {a}")));
                    }
                    Some(a)
                }
            };
            Command::Model { load, depth, alpha }
        }
        "export" => {
            let opts = split_options(rest)?;
            opts.reject_unknown(&["memory-kib", "algorithm", "format", "out"])?;
            Command::Export {
                path: opts
                    .positional
                    .first()
                    .ok_or_else(|| ArgError::new("export needs a capture path"))?
                    .to_string(),
                memory_kib: opts.parse_or("memory-kib", 256)?,
                algorithm: match opts.get("algorithm") {
                    Some(v) => parse_algorithm(v)?,
                    None => AlgorithmKind::HashFlow,
                },
                format: match opts.get("format") {
                    Some(v) => ExportFormat::parse(v)?,
                    None => ExportFormat::NetFlowV5,
                },
                out: opts
                    .get("out")
                    .ok_or_else(|| ArgError::new("export needs --out <file>"))?
                    .to_string(),
            }
        }
        "query" => {
            let opts = split_options(rest)?;
            opts.reject_unknown(&["plan", "memory-kib", "algorithm", "top", "metrics-out"])?;
            Command::Query {
                path: opts
                    .positional
                    .first()
                    .ok_or_else(|| ArgError::new("query needs a capture path"))?
                    .to_string(),
                plan: opts
                    .get("plan")
                    .ok_or_else(|| ArgError::new("query needs --plan '<stages>'"))?
                    .parse::<hashflow_collector::QueryPlan>()
                    .map_err(|e| ArgError::new(e.to_string()))?,
                memory_kib: opts.parse_or("memory-kib", 256)?,
                algorithm: match opts.get("algorithm") {
                    Some(v) => parse_algorithm(v)?,
                    None => AlgorithmKind::HashFlow,
                },
                top: opts.parse_or("top", 10)?,
                metrics_out: opts.get("metrics-out").map(String::from),
            }
        }
        other => return Err(ArgError::new(format!("unknown command '{other}'"))),
    };
    Ok(ParsedArgs { command })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap().command, Command::Help);
    }

    #[test]
    fn analyze_defaults_and_overrides() {
        let p = parse(&argv("analyze cap.pcap")).unwrap();
        match p.command {
            Command::Analyze {
                path,
                memory_kib,
                algorithm,
                threshold,
                top,
                shards,
                metrics_out,
            } => {
                assert_eq!(path, "cap.pcap");
                assert_eq!(memory_kib, 256);
                assert_eq!(algorithm, AlgorithmKind::HashFlow);
                assert_eq!(threshold, 100);
                assert_eq!(top, 10);
                assert_eq!(shards, 1);
                assert_eq!(metrics_out, None);
            }
            other => panic!("{other:?}"),
        }
        let p = parse(&argv(
            "analyze cap.pcap --memory-kib 64 --algorithm elastic --threshold 7 --top 3",
        ))
        .unwrap();
        match p.command {
            Command::Analyze {
                memory_kib,
                algorithm,
                threshold,
                top,
                ..
            } => {
                assert_eq!(memory_kib, 64);
                assert_eq!(algorithm, AlgorithmKind::Elastic);
                assert_eq!(threshold, 7);
                assert_eq!(top, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shards_flag_is_validated() {
        let p = parse(&argv("analyze cap.pcap --shards 4")).unwrap();
        match p.command {
            Command::Analyze { shards, .. } => assert_eq!(shards, 4),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("analyze cap.pcap --shards 0")).is_err());
        assert!(parse(&argv("analyze cap.pcap --shards -1")).is_err());
        assert!(parse(&argv("analyze cap.pcap --shards many")).is_err());
        // Documented in --help, including the budget-splitting rule.
        assert!(USAGE.contains("--shards"));
        assert!(USAGE.contains("split into N"));
    }

    /// Every `flag` entry of [`USAGE`] with its continuation lines,
    /// paired with the command it belongs to.
    fn usage_entries(flag: &str) -> Vec<(&'static str, String)> {
        let mut entries = Vec::new();
        let mut command = "";
        let mut entry: Option<String> = None;
        for line in USAGE.lines() {
            if !line.starts_with("        ") {
                entries.extend(entry.take().map(|e| (command, e)));
            }
            if let Some(name) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                command = name.split_whitespace().next().unwrap_or("");
            }
            if line.trim_start().starts_with(flag) {
                entry = Some(String::new());
            }
            if let Some(e) = &mut entry {
                e.push_str(line);
                e.push('\n');
            }
        }
        entries.extend(entry.map(|e| (command, e)));
        entries
    }

    #[test]
    fn usage_names_every_algorithm_each_command_accepts() {
        let names = |entry: &str| -> Vec<String> {
            entry
                .split(|c: char| !c.is_ascii_alphanumeric())
                .map(str::to_string)
                .collect()
        };
        let entries = usage_entries("--algorithm");
        let commands: Vec<&str> = entries.iter().map(|(command, _)| *command).collect();
        assert_eq!(commands, ["analyze", "stats", "export", "serve", "query"]);
        for (command, entry) in &entries {
            // Analyze prints the flow report, so it refuses the
            // estimate-only sketches; every other command takes all kinds.
            let accepted = AlgorithmKind::ALL
                .into_iter()
                .filter(|kind| *command != "analyze" || kind.supports_records());
            for kind in accepted {
                assert!(
                    names(entry).iter().any(|n| n == kind.name()),
                    "{command} --algorithm omits {}:\n{entry}",
                    kind.name()
                );
            }
        }
        let shards = usage_entries("--shards");
        let (_, analyze) = shards
            .iter()
            .find(|(command, _)| *command == "analyze")
            .expect("analyze documents --shards");
        for kind in AlgorithmKind::ALL
            .into_iter()
            .filter(|k| k.supports_sharding())
        {
            assert!(
                names(analyze).iter().any(|n| n == kind.name()),
                "--shards omits {}:\n{analyze}",
                kind.name()
            );
        }
    }

    #[test]
    fn generate_requires_out() {
        assert!(parse(&argv("generate --profile campus")).is_err());
        let p = parse(&argv("generate --profile campus --flows 500 --out x.pcap")).unwrap();
        match p.command {
            Command::Generate {
                profile,
                flows,
                out,
                ..
            } => {
                assert_eq!(profile, TraceProfile::Campus);
                assert_eq!(flows, 500);
                assert_eq!(out, "x.pcap");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_options_rejected() {
        assert!(parse(&argv("compare --bogus 1")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("model --load abc")).is_err());
        assert!(parse(&argv("analyze cap.pcap --algorithm quantum")).is_err());
    }

    #[test]
    fn model_alpha_optional() {
        let p = parse(&argv("model --load 2.0 --depth 4")).unwrap();
        match p.command {
            Command::Model { load, depth, alpha } => {
                assert_eq!(load, 2.0);
                assert_eq!(depth, 4);
                assert_eq!(alpha, None);
            }
            other => panic!("{other:?}"),
        }
        let p = parse(&argv("model --alpha 0.7")).unwrap();
        match p.command {
            Command::Model { alpha, .. } => assert_eq!(alpha, Some(0.7)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn last_option_wins() {
        let p = parse(&argv("compare --flows 10 --flows 20")).unwrap();
        match p.command {
            Command::Compare { flows, .. } => assert_eq!(flows, 20),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv("compare --flows")).is_err());
    }

    #[test]
    fn query_parses_plan_and_options() {
        // A plan string is one argv element (quoted on a real shell).
        let args: Vec<String> = [
            "query",
            "cap.pcap",
            "--plan",
            "filter proto=6 | map dst | distinct src | reduce count | threshold 40",
            "--algorithm",
            "flowradar",
            "--top",
            "5",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        match parse(&args).unwrap().command {
            Command::Query {
                path,
                plan,
                memory_kib,
                algorithm,
                top,
                metrics_out,
            } => {
                assert_eq!(path, "cap.pcap");
                assert_eq!(memory_kib, 256);
                assert_eq!(algorithm, AlgorithmKind::FlowRadar);
                assert_eq!(top, 5);
                assert_eq!(plan.threshold(), Some(40));
                assert_eq!(metrics_out, None);
            }
            other => panic!("{other:?}"),
        }
        // Missing pieces and bad plans are rejected with context.
        assert!(parse(&argv("query")).is_err());
        assert!(parse(&argv("query cap.pcap")).is_err());
        let args: Vec<String> = ["query", "cap.pcap", "--plan", "map dst"]
            .into_iter()
            .map(String::from)
            .collect();
        let err = parse(&args).unwrap_err().to_string();
        assert!(err.contains("reduce"), "{err}");
        assert!(USAGE.contains("query <capture.pcap>"));
    }

    #[test]
    fn stats_parses_knobs_and_format() {
        let p = parse(&argv("stats cap.pcap")).unwrap();
        match p.command {
            Command::Stats {
                path,
                memory_kib,
                algorithm,
                shards,
                epoch_ms,
                format,
                out,
            } => {
                assert_eq!(path, "cap.pcap");
                assert_eq!(memory_kib, 256);
                assert_eq!(algorithm, AlgorithmKind::HashFlow);
                assert_eq!(shards, 1);
                assert_eq!(epoch_ms, 0);
                assert_eq!(format, MetricsFormat::Prometheus);
                assert_eq!(out, None);
            }
            other => panic!("{other:?}"),
        }
        let p = parse(&argv(
            "stats cap.pcap --shards 4 --epoch-ms 10 --format jsonl --out m.jsonl",
        ))
        .unwrap();
        match p.command {
            Command::Stats {
                shards,
                epoch_ms,
                format,
                out,
                ..
            } => {
                assert_eq!(shards, 4);
                assert_eq!(epoch_ms, 10);
                assert_eq!(format, MetricsFormat::JsonLines);
                assert_eq!(out.as_deref(), Some("m.jsonl"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("stats")).is_err());
        assert!(parse(&argv("stats cap.pcap --shards 0")).is_err());
        assert!(parse(&argv("stats cap.pcap --format xml")).is_err());
        assert!(USAGE.contains("stats <capture.pcap>"));
    }

    #[test]
    fn metrics_out_rides_analyze_and_query() {
        let p = parse(&argv("analyze cap.pcap --metrics-out m.prom")).unwrap();
        match p.command {
            Command::Analyze { metrics_out, .. } => {
                assert_eq!(metrics_out.as_deref(), Some("m.prom"));
            }
            other => panic!("{other:?}"),
        }
        let args: Vec<String> = [
            "query",
            "cap.pcap",
            "--plan",
            "map src | reduce count",
            "--metrics-out",
            "m.jsonl",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        match parse(&args).unwrap().command {
            Command::Query { metrics_out, .. } => {
                assert_eq!(metrics_out.as_deref(), Some("m.jsonl"));
            }
            other => panic!("{other:?}"),
        }
        assert!(USAGE.contains("--metrics-out"));
    }

    #[test]
    fn serve_defaults_overrides_and_validation() {
        let p = parse(&argv("serve")).unwrap();
        match p.command {
            Command::Serve {
                algorithm,
                memory_kib,
                shards,
                epoch_ms,
                retention,
                http,
                udp,
                workers,
                queue_batches,
                queries,
                replay,
                pps,
                duration_ms,
                addr_file,
                trace_sample_one_in,
                dump_path,
                ..
            } => {
                assert_eq!(algorithm, AlgorithmKind::HashFlow);
                assert_eq!(memory_kib, 256);
                assert_eq!(shards, 1);
                assert_eq!(epoch_ms, 1_000);
                assert_eq!(retention, 64);
                assert_eq!(http, "127.0.0.1:8640");
                assert_eq!(udp, None);
                assert_eq!(workers, 4);
                assert_eq!(queue_batches, 64);
                assert!(queries.is_empty());
                assert_eq!(replay, None);
                assert_eq!(pps, None);
                assert_eq!(duration_ms, None);
                assert_eq!(addr_file, None);
                // Tracing is on by default at the library's 1-in-1024 rate.
                assert_eq!(trace_sample_one_in, Some(1_024));
                assert_eq!(dump_path, None);
            }
            other => panic!("{other:?}"),
        }
        let args: Vec<String> = [
            "serve",
            "--http",
            "127.0.0.1:0",
            "--udp",
            "127.0.0.1:0",
            "--query",
            "map dst | reduce count",
            "--query",
            "map src | reduce sum",
            "--replay",
            "t.pcap",
            "--pps",
            "50000",
            "--duration-ms",
            "250",
            "--trace-sample-one-in",
            "64",
            "--dump-path",
            "crash.jsonl",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        match parse(&args).unwrap().command {
            Command::Serve {
                udp,
                queries,
                replay,
                pps,
                duration_ms,
                trace_sample_one_in,
                dump_path,
                ..
            } => {
                assert_eq!(udp.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(queries.len(), 2);
                assert_eq!(replay.as_deref(), Some("t.pcap"));
                assert_eq!(pps, Some(50_000));
                assert_eq!(duration_ms, Some(250));
                assert_eq!(trace_sample_one_in, Some(64));
                assert_eq!(dump_path.as_deref(), Some("crash.jsonl"));
            }
            other => panic!("{other:?}"),
        }
        // --trace-sample-one-in 0 switches flow tracing off entirely.
        match parse(&argv("serve --trace-sample-one-in 0"))
            .unwrap()
            .command
        {
            Command::Serve {
                trace_sample_one_in,
                ..
            } => assert_eq!(trace_sample_one_in, None),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --epoch-ms 0")).is_err());
        assert!(parse(&argv("serve --retention 0")).is_err());
        assert!(parse(&argv("serve --shards 0")).is_err());
        // --pps only makes sense with a replay source.
        assert!(parse(&argv("serve --pps 1000")).is_err());
        // Stray positional arguments are called out.
        assert!(parse(&argv("serve t.pcap")).is_err());
        assert!(USAGE.contains("serve"));
        assert!(USAGE.contains("--addr-file"));
    }

    #[test]
    fn export_requires_path_and_out() {
        assert!(parse(&argv("export")).is_err());
        assert!(parse(&argv("export cap.pcap")).is_err());
        let p = parse(&argv("export cap.pcap --out flows.nf5 --memory-kib 32")).unwrap();
        match p.command {
            Command::Export {
                path,
                memory_kib,
                algorithm,
                format,
                out,
            } => {
                assert_eq!(path, "cap.pcap");
                assert_eq!(memory_kib, 32);
                assert_eq!(algorithm, AlgorithmKind::HashFlow);
                assert_eq!(format, ExportFormat::NetFlowV5);
                assert_eq!(out, "flows.nf5");
            }
            other => panic!("{other:?}"),
        }
        let p = parse(&argv(
            "export cap.pcap --algorithm flowradar --format jsonl --out flows.jsonl",
        ))
        .unwrap();
        match p.command {
            Command::Export {
                algorithm, format, ..
            } => {
                assert_eq!(algorithm, AlgorithmKind::FlowRadar);
                assert_eq!(format, ExportFormat::JsonLines);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("export cap.pcap --format xml --out x")).is_err());
    }
}
