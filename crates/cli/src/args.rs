//! Argument parsing from one table per subcommand (no external parser
//! dependency).
//!
//! Each subcommand is a [`Spec`]: its usage head (name and positional
//! argument), its flags (usage head, what an absent flag means, help) and
//! the function that builds its [`Command`]. [`usage`] renders the same
//! tables, and an absent flag's value is its rendered default run through
//! the flag type's `FromStr`. Algorithm names resolve through the registry
//! ([`hashflow_collector::AlgorithmKind`]) — the CLI holds no
//! name→algorithm table of its own.

use hashflow_collector::{AlgorithmKind, QueryPlan};
use hashflow_trace::{TraceProfile, ALL_PROFILES};
use std::error::Error;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Argument parsing failure with a message for the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArgError(String);

impl ArgError {
    fn new(msg: impl Into<String>) -> Self {
        ArgError(msg.into())
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: {}", self.0)
    }
}

impl Error for ArgError {}

/// Export serialization format for the `export` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExportFormat {
    /// NetFlow v5 datagrams (`NetFlowV5Sink`).
    NetFlowV5,
    /// JSON lines, one record per line (`JsonLinesSink`).
    JsonLines,
}

impl FromStr for ExportFormat {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "nf5" | "netflow" | "netflowv5" => Ok(ExportFormat::NetFlowV5),
            "jsonl" | "json-lines" => Ok(ExportFormat::JsonLines),
            _ => Err("valid formats: nf5, jsonl"),
        }
    }
}

/// Exposition format for runtime pipeline metrics (`stats --format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricsFormat {
    /// Prometheus text exposition.
    Prometheus,
    /// JSON lines, one metric per line.
    JsonLines,
}

impl FromStr for MetricsFormat {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "prom" | "prometheus" => Ok(MetricsFormat::Prometheus),
            "jsonl" | "json-lines" => Ok(MetricsFormat::JsonLines),
            _ => Err("valid formats: prom, jsonl"),
        }
    }
}

// One struct per subcommand, a field per flag; the flag tables in
// `COMMANDS` document each value.

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Analyze {
    pub path: String,
    pub memory_kib: usize,
    pub algorithm: AlgorithmKind,
    pub threshold: u32,
    pub top: usize,
    pub metrics_out: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Stats {
    pub path: String,
    pub memory_kib: usize,
    pub algorithm: AlgorithmKind,
    /// 0 seals one epoch at the end of the capture.
    pub epoch_ms: u64,
    pub format: MetricsFormat,
    pub out: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Generate {
    pub profile: TraceProfile,
    pub flows: usize,
    pub seed: u64,
    pub out: String,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Compare {
    pub profile: TraceProfile,
    pub flows: usize,
    pub memory_kib: usize,
    pub seed: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Model {
    pub load: f64,
    pub depth: usize,
    /// Pipeline weight; `None` selects the multi-hash model.
    pub alpha: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Export {
    pub path: String,
    pub memory_kib: usize,
    pub algorithm: AlgorithmKind,
    pub format: ExportFormat,
    pub out: String,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Serve {
    pub http: String,
    pub udp: Option<String>,
    pub algorithm: AlgorithmKind,
    pub memory_kib: usize,
    pub epoch_ms: u64,
    pub retention: usize,
    pub workers: usize,
    pub queue_batches: usize,
    pub queries: Vec<String>,
    pub replay: Option<String>,
    /// `None` replays at line rate.
    pub pps: Option<u64>,
    /// `None` runs until `POST /shutdown`.
    pub duration_ms: Option<u64>,
    pub seed: u64,
    pub addr_file: Option<String>,
    /// `None` switches flow-path tracing off.
    pub trace_sample_one_in: Option<u64>,
    pub dump_path: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Query {
    pub path: String,
    pub plan: QueryPlan,
    pub memory_kib: usize,
    pub algorithm: AlgorithmKind,
    pub top: usize,
    pub metrics_out: Option<String>,
}

/// A parsed command line: one subcommand with its parameters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Command {
    Analyze(Analyze),
    Stats(Stats),
    Generate(Generate),
    Compare(Compare),
    Model(Model),
    Export(Export),
    Serve(Serve),
    Query(Query),
    Help,
}

/// What an absent flag means.
#[derive(Clone, Copy)]
enum Absent {
    /// Nothing: the flag is optional.
    Unset,
    /// This text, parsed as if it had been given.
    Value(&'static str),
    /// An error: the command cannot run without it.
    Required,
}

use Absent::{Required, Unset, Value};

/// One row of a subcommand's flag table.
struct Flag {
    /// `--name <value>`, as the usage shows it.
    head: &'static str,
    absent: Absent,
    /// Help lines; `{algorithms}` and `{profiles}` render the registry's
    /// and the trace generator's names.
    help: &'static str,
}

const fn flag(head: &'static str, absent: Absent, help: &'static str) -> Flag {
    Flag { head, absent, help }
}

impl Flag {
    fn name(&self) -> &'static str {
        let flag = self.head.split(' ').next().unwrap_or_default();
        flag.trim_start_matches('-')
    }
}

/// One subcommand: what it takes and how its [`Command`] is built.
struct Spec {
    /// The name and, if it takes one, the positional argument.
    head: &'static str,
    about: &'static str,
    /// Refuses the estimate-only algorithms (its `--algorithm` lists
    /// only the record-keeping ones).
    records_only: bool,
    flags: &'static [Flag],
    build: fn(&Matches<'_>) -> Result<Command, ArgError>,
}

impl Spec {
    fn name(&self) -> &'static str {
        self.head.split(' ').next().unwrap_or_default()
    }

    fn positional(&self) -> Option<&'static str> {
        self.head.split_once(' ').map(|(_, positional)| positional)
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name() == name)
    }
}

const MEMORY_KIB: Flag = flag("--memory-kib <N>", Value("256"), "memory budget in KiB");
const ALGORITHM: Flag = flag("--algorithm <name>", Value("hashflow"), "{algorithms}");
const METRICS_OUT: Flag = flag(
    "--metrics-out <file>",
    Unset,
    "also write the run's pipeline metrics\n\
     (Prometheus text; JSON lines when the path\n\
     ends in .jsonl)",
);
const PROFILE: Flag = flag("--profile <name>", Value("caida"), "{profiles}");
const SEED: Flag = flag("--seed <S>", Value("1"), "RNG seed");

/// Every subcommand, in usage order.
static COMMANDS: [Spec; 8] = [
    Spec {
        head: "analyze <capture.pcap>",
        about: "analyze an Ethernet/IPv4 pcap capture",
        records_only: true,
        flags: &[
            MEMORY_KIB,
            ALGORITHM,
            flag("--threshold <T>", Value("100"), "heavy-hitter threshold"),
            flag("--top <K>", Value("10"), "flows to list"),
            METRICS_OUT,
        ],
        build: |m| {
            Ok(Command::Analyze(Analyze {
                path: m.positional()?,
                memory_kib: m.value("memory-kib")?,
                algorithm: m.value("algorithm")?,
                threshold: m.value("threshold")?,
                top: m.value("top")?,
                metrics_out: m.opt("metrics-out")?,
            }))
        },
    },
    Spec {
        head: "stats <capture.pcap>",
        about: "stream a capture and report the pipeline's\n\
                runtime metrics (ingest/rotation/sink/query\n\
                counters, gauges and histograms)",
        records_only: false,
        flags: &[
            MEMORY_KIB,
            ALGORITHM,
            flag(
                "--epoch-ms <N>",
                Value("0"),
                "epoch length in ms; 0 seals one epoch at the\nend of the capture",
            ),
            flag(
                "--format <name>",
                Value("prom"),
                "prom (Prometheus text) or jsonl (JSON lines)",
            ),
            flag(
                "--out <file>",
                Unset,
                "write the metrics to a file instead of stdout",
            ),
        ],
        build: |m| {
            Ok(Command::Stats(Stats {
                path: m.positional()?,
                memory_kib: m.value("memory-kib")?,
                algorithm: m.value("algorithm")?,
                epoch_ms: m.value("epoch-ms")?,
                format: m.value("format")?,
                out: m.opt("out")?,
            }))
        },
    },
    Spec {
        head: "generate",
        about: "write a synthetic trace as pcap",
        records_only: false,
        flags: &[
            PROFILE,
            flag("--flows <N>", Value("10000"), "number of flows"),
            SEED,
            flag("--out <file>", Required, "output path"),
        ],
        build: |m| {
            Ok(Command::Generate(Generate {
                profile: m.value("profile")?,
                flows: m.nonzero("flows")?,
                seed: m.value("seed")?,
                out: m.value("out")?,
            }))
        },
    },
    Spec {
        head: "compare",
        about: "equal-memory algorithm shootout\n(--memory-kib is each algorithm's budget)",
        records_only: false,
        flags: &[
            PROFILE,
            flag("--flows <N>", Value("60000"), "number of flows"),
            MEMORY_KIB,
            SEED,
        ],
        build: |m| {
            Ok(Command::Compare(Compare {
                profile: m.value("profile")?,
                flows: m.nonzero("flows")?,
                memory_kib: m.value("memory-kib")?,
                seed: m.value("seed")?,
            }))
        },
    },
    Spec {
        head: "model",
        about: "evaluate the utilization model",
        records_only: false,
        flags: &[
            flag("--load <m/n>", Value("1.0"), "traffic load"),
            flag("--depth <d>", Value("3"), "hash functions"),
            flag(
                "--alpha <a>",
                Unset,
                "pipeline weight (omit for multi-hash)",
            ),
        ],
        build: |m| {
            let load: f64 = m.value("load")?;
            if !load.is_finite() || load < 0.0 {
                return Err(ArgError::new(format!(
                    "--load must be a non-negative traffic load, got {load}"
                )));
            }
            let alpha: Option<f64> = m.opt("alpha")?;
            if let Some(a) = alpha.filter(|a| !a.is_finite() || *a <= 0.0 || *a > 1.0) {
                return Err(ArgError::new(format!("--alpha must be in (0, 1], got {a}")));
            }
            let depth = m.nonzero("depth")?;
            Ok(Command::Model(Model { load, depth, alpha }))
        },
    },
    Spec {
        head: "export <capture.pcap>",
        about: "collect records and stream them to an export sink",
        records_only: false,
        flags: &[
            MEMORY_KIB,
            ALGORITHM,
            flag(
                "--format <name>",
                Value("nf5"),
                "nf5 (NetFlow v5 datagrams) or jsonl (JSON lines)",
            ),
            flag("--out <file>", Required, "output path"),
        ],
        build: |m| {
            Ok(Command::Export(Export {
                path: m.positional()?,
                memory_kib: m.value("memory-kib")?,
                algorithm: m.value("algorithm")?,
                format: m.value("format")?,
                out: m.value("out")?,
            }))
        },
    },
    Spec {
        head: "serve",
        about: "run the collector as a long-lived daemon with\n\
                live UDP ingest and a concurrent HTTP query API\n\
                (GET /epochs, /epochs/{n}/top, /queries,\n\
                /metrics, /healthz, /debug/*; POST /queries,\n\
                /shutdown); --replay <file.pcap> feeds a capture",
        records_only: false,
        flags: &[
            flag(
                "--http <addr>",
                Value("127.0.0.1:8640"),
                "HTTP bind address\nuse port 0 for an ephemeral port (see --addr-file)",
            ),
            flag(
                "--udp <addr>",
                Unset,
                "UDP ingest bind address (HFW1 datagrams);\nomitted = no UDP front-end",
            ),
            ALGORITHM,
            MEMORY_KIB,
            flag("--epoch-ms <N>", Value("1000"), "wall-clock epoch length"),
            flag(
                "--retention <N>",
                Value("64"),
                "sealed epochs kept queryable",
            ),
            flag("--workers <N>", Value("4"), "HTTP worker threads"),
            flag("--queue-batches <N>", Value("64"), "ingest queue bound"),
            flag(
                "--query <plan>",
                Unset,
                "attach a query plan at boot (repeatable)",
            ),
            flag(
                "--replay <file.pcap>",
                Unset,
                "also replay a capture through the ingest queue",
            ),
            flag(
                "--pps <N>",
                Unset,
                "pace the replay (packets/s; default line rate)",
            ),
            flag(
                "--duration-ms <N>",
                Unset,
                "exit after N ms (otherwise run until\nPOST /shutdown)",
            ),
            flag("--seed <S>", Value("12648430"), "hash seed"),
            flag(
                "--addr-file <file>",
                Unset,
                "write the bound HTTP address (line 1) and UDP\n\
                 address (line 2, if any) for scripts using\n\
                 ephemeral ports",
            ),
            flag(
                "--trace-sample-one-in <N>",
                Value("1024"),
                "flow-path tracing: deterministically trace\n\
                 1-in-N flows by key hash (0 disables tracing)",
            ),
            flag(
                "--dump-path <file>",
                Unset,
                "append flight-recorder JSONL dumps here on\n\
                 fault transitions (sink quarantine)",
            ),
        ],
        build: |m| {
            let replay = m.opt("replay")?;
            let pps = m.opt("pps")?;
            if pps == Some(0) {
                return Err(ArgError::new("--pps must be at least 1"));
            }
            if pps.is_some() && replay.is_none() {
                return Err(ArgError::new("--pps needs --replay <file.pcap>"));
            }
            Ok(Command::Serve(Serve {
                http: m.value("http")?,
                udp: m.opt("udp")?,
                algorithm: m.value("algorithm")?,
                memory_kib: m.value("memory-kib")?,
                epoch_ms: m.nonzero("epoch-ms")?,
                retention: m.nonzero("retention")?,
                workers: m.value("workers")?,
                queue_batches: m.value("queue-batches")?,
                queries: m.all("query"),
                replay,
                pps,
                duration_ms: m.opt("duration-ms")?,
                seed: m.value("seed")?,
                addr_file: m.opt("addr-file")?,
                // 0 switches tracing off; anything else is the 1-in-N rate.
                trace_sample_one_in: Some(m.value("trace-sample-one-in")?).filter(|&n| n != 0),
                dump_path: m.opt("dump-path")?,
            }))
        },
    },
    Spec {
        head: "query <capture.pcap>",
        about: "run a declarative telemetry query over a capture\n\
                the capture streams through the monitor in\n\
                batches (never fully in memory); the report\n\
                shows the exact answer (the plan over the\n\
                capture's ground truth) next to the answer\n\
                from the monitor's sealed records",
        records_only: false,
        flags: &[
            flag(
                "--plan <string>",
                Required,
                "pipeline of the form\n\
                 'filter proto=6 | map dst | distinct src |\n \
                 reduce count | threshold 40'\n\
                 stages: filter (fields src, dst, srcport,\n\
                 dstport, proto, count; ops = != < <= > >=),\n\
                 map/distinct (flow, src, dst, srcdst,\n\
                 srcport, dstport, proto), reduce\n\
                 (sum|count|max), threshold N",
            ),
            MEMORY_KIB,
            ALGORITHM,
            flag("--top <K>", Value("10"), "result rows to print"),
            METRICS_OUT,
        ],
        build: |m| {
            Ok(Command::Query(Query {
                path: m.positional()?,
                plan: m.value("plan")?,
                memory_kib: m.value("memory-kib")?,
                algorithm: m.value("algorithm")?,
                top: m.value("top")?,
                metrics_out: m.opt("metrics-out")?,
            }))
        },
    },
];

/// A command line matched against one [`Spec`]'s table.
struct Matches<'a> {
    spec: &'static Spec,
    /// Given flags in order, so the last of a repeated flag wins.
    given: Vec<(&'static str, &'a str)>,
    positional: Option<&'a str>,
}

impl<'a> Matches<'a> {
    fn new(spec: &'static Spec, args: &'a [String]) -> Result<Self, ArgError> {
        let mut matches = Matches {
            spec,
            given: Vec::new(),
            positional: None,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let flag = spec
                    .flag(name)
                    .ok_or_else(|| ArgError::new(format!("unknown option --{name}")))?;
                let value = args
                    .next()
                    .ok_or_else(|| ArgError::new(format!("option --{name} needs a value")))?;
                matches.given.push((flag.name(), value));
            } else if spec.positional().is_some() && matches.positional.is_none() {
                matches.positional = Some(arg);
            } else {
                let name = spec.name();
                return Err(ArgError::new(format!(
                    "unexpected argument '{arg}' for {name}"
                )));
            }
        }
        Ok(matches)
    }

    fn positional(&self) -> Result<String, ArgError> {
        let (name, positional) = (self.spec.name(), self.spec.positional());
        let missing = || ArgError::new(format!("{name} needs {}", positional.unwrap_or_default()));
        self.positional.map(String::from).ok_or_else(missing)
    }

    /// Every value given for `name`, in order.
    fn given(&self, name: &str) -> impl Iterator<Item = &'a str> + '_ {
        let name = self.flag(name).name();
        let given = self.given.iter().filter(move |(n, _)| *n == name);
        given.map(|(_, value)| *value)
    }

    /// Every value of a repeatable flag (`serve --query`).
    fn all(&self, name: &str) -> Vec<String> {
        self.given(name).map(String::from).collect()
    }

    /// The flag's value: the last one given, else its default.
    fn value<T: FromStr<Err: fmt::Display>>(&self, name: &str) -> Result<T, ArgError> {
        let flag = self.flag(name);
        let text = match (self.given(name).last(), flag.absent) {
            (Some(text), _) | (None, Value(text)) => text,
            (None, Unset | Required) => {
                let missing = format!("{} needs {}", self.spec.name(), flag.head);
                return Err(ArgError::new(missing));
            }
        };
        text.parse()
            .map_err(|e| ArgError::new(format!("invalid --{name} '{text}': {e}")))
    }

    /// An optional flag's value, if it was given.
    fn opt<T: FromStr<Err: fmt::Display>>(&self, name: &str) -> Result<Option<T>, ArgError> {
        let given = self.given(name).next().is_some();
        given.then(|| self.value(name)).transpose()
    }

    /// [`Self::value`] for counts that must be at least 1.
    fn nonzero<T>(&self, name: &str) -> Result<T, ArgError>
    where
        T: FromStr<Err: fmt::Display> + Default + PartialEq,
    {
        let value = self.value(name)?;
        if value == T::default() {
            return Err(ArgError::new(format!("--{name} must be at least 1")));
        }
        Ok(value)
    }

    /// The row of `name`; a build function reading a flag its table
    /// lacks is a bug.
    fn flag(&self, name: &str) -> &'static Flag {
        let spec = self.spec;
        let missing = || panic!("--{name} is not in the {} table", spec.name());
        spec.flag(name).unwrap_or_else(missing)
    }
}

/// Parses a full argument vector (without the program name). An empty
/// one, `help`, and `--help` or `-h` anywhere after a command ask for the
/// usage.
///
/// # Errors
///
/// Returns [`ArgError`] on unknown commands and options, stray
/// positional arguments, missing required arguments and malformed values.
pub(crate) fn parse(args: &[String]) -> Result<Command, ArgError> {
    let Some((name, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let spec = COMMANDS
        .iter()
        .find(|spec| spec.name() == name)
        .ok_or_else(|| ArgError::new(format!("unknown command '{name}'")))?;
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    (spec.build)(&Matches::new(spec, rest)?)
}

/// Column where every help text starts.
const HELP_COL: usize = 28;

/// The usage text shown on parse errors and `--help`, rendered from the
/// command tables.
pub(crate) fn usage() -> String {
    let mut out = "usage: hashflow <command> [options]\n       hashflow <command> --help\n\n\
                   commands:\n"
        .to_owned();
    let profiles = ALL_PROFILES.map(|p| p.name().to_lowercase()).join("|");
    for spec in &COMMANDS {
        entry(&mut out, 2, spec.head, spec.about, None);
        let algorithms = if spec.records_only {
            let estimate_only = names(|k| !k.supports_records(), "|");
            let records = names(AlgorithmKind::supports_records, "|");
            format!("{records}\n(not the estimate-only {estimate_only})")
        } else {
            names(|_| true, "|")
        };
        for flag in spec.flags {
            let help = flag.help.replace("{algorithms}", &algorithms);
            let help = help.replace("{profiles}", &profiles);
            let tag = match flag.absent {
                Unset => None,
                Value(default) => Some(format!("[default: {default}]")),
                Required => Some("(required)".to_owned()),
            };
            entry(&mut out, 6, flag.head, &help, tag);
        }
    }
    out
}

/// The registry's names of the algorithms `keep` selects, five a line.
fn names(keep: fn(&AlgorithmKind) -> bool, sep: &str) -> String {
    let names: Vec<&str> = AlgorithmKind::ALL
        .iter()
        .filter(|k| keep(k))
        .map(AlgorithmKind::name)
        .collect();
    let lines: Vec<String> = names.chunks(5).map(|line| line.join(sep)).collect();
    lines.join(&format!("{}\n", sep.trim_end()))
}

/// One usage entry: `head` at `indent`, its help lines from
/// [`HELP_COL`], and `tag` (the default, or "(required)") beside the
/// first line when it fits, on a line of its own otherwise.
fn entry(out: &mut String, indent: usize, head: &str, help: &str, tag: Option<String>) {
    let mut lines: Vec<String> = help.lines().map(String::from).collect();
    if let Some(tag) = tag {
        match lines.first_mut() {
            Some(first) if first.len() < HELP_COL => *first = format!("{first:HELP_COL$}{tag}"),
            _ => lines.push(format!("{:HELP_COL$}{tag}", "")),
        }
    }
    let mut left = format!("{:indent$}{head}", "");
    if left.len() >= HELP_COL {
        let _ = writeln!(out, "{left}");
        left.clear();
    }
    for line in lines {
        let _ = writeln!(out, "{left:HELP_COL$}{line}");
        left.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashflow_monitor::DEFAULT_TRACE_SAMPLING;
    use hashflow_server::ServerConfig;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// `argv(head)` followed by a `--plan` (one argv element, as a quoted
    /// plan is on a real shell) and `tail`.
    fn query_argv(head: &str, plan: &str, tail: &str) -> Vec<String> {
        let mut args = argv(head);
        args.extend(["--plan".to_owned(), plan.to_owned()]);
        args.extend(argv(tail));
        args
    }

    fn err(args: &[String]) -> String {
        parse(args).unwrap_err().to_string()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        // `--help` or `-h` after any command asks for the usage too.
        for spec in &COMMANDS {
            for help in ["--help", "-h"] {
                let args = argv(&format!("{} --memory-kib 64 {help}", spec.name()));
                assert_eq!(parse(&args).unwrap(), Command::Help, "{args:?}");
            }
        }
        assert!(err(&argv("frobnicate --help")).contains("unknown command"));
    }

    #[test]
    fn analyze_defaults_and_overrides() {
        let p = parse(&argv("analyze cap.pcap")).unwrap();
        let expected = Analyze {
            path: "cap.pcap".to_owned(),
            memory_kib: 256,
            algorithm: AlgorithmKind::HashFlow,
            threshold: 100,
            top: 10,
            metrics_out: None,
        };
        assert_eq!(p, Command::Analyze(expected.clone()));
        let p = parse(&argv(
            "analyze cap.pcap --memory-kib 64 --algorithm elastic --threshold 7 --top 3",
        ))
        .unwrap();
        let expected = Analyze {
            memory_kib: 64,
            algorithm: AlgorithmKind::Elastic,
            threshold: 7,
            top: 3,
            ..expected
        };
        assert_eq!(p, Command::Analyze(expected));
    }

    #[test]
    fn shards_is_an_unknown_option() {
        // A deployed collector runs one monitor; no command takes a
        // shard count.
        for line in ["analyze cap.pcap", "stats cap.pcap", "serve"] {
            let args = argv(&format!("{line} --shards 2"));
            assert!(err(&args).contains("unknown option --shards"), "{args:?}");
        }
        assert!(!usage().contains("--shards"));
    }

    /// Every `flag` entry of the usage with its continuation lines,
    /// paired with the command it belongs to.
    fn usage_entries(usage: &str, flag: &str) -> Vec<(String, String)> {
        let mut entries = Vec::new();
        let mut command = "";
        let mut entry: Option<String> = None;
        for line in usage.lines() {
            if !line.starts_with("        ") {
                entries.extend(entry.take().map(|e| (command.to_owned(), e)));
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
        entries.extend(entry.map(|e| (command.to_owned(), e)));
        entries
    }

    #[test]
    fn usage_names_every_algorithm_each_command_accepts() {
        let usage = usage();
        let names = |entry: &str| -> Vec<String> {
            entry
                .split(|c: char| !c.is_ascii_alphanumeric())
                .map(str::to_string)
                .collect()
        };
        let entries = usage_entries(&usage, "--algorithm");
        let commands: Vec<&str> = entries
            .iter()
            .map(|(command, _)| command.as_str())
            .collect();
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
    }

    /// What a command cannot parse without: its positional argument and
    /// its required flags, each given a valid value.
    fn required_args(spec: &Spec) -> Vec<String> {
        let mut args = vec![spec.name().to_owned()];
        args.extend(spec.positional().map(|_| "cap.pcap".to_owned()));
        for flag in spec.flags.iter().filter(|f| matches!(f.absent, Required)) {
            let value = if flag.name() == "plan" {
                "map src | reduce count"
            } else {
                "x"
            };
            args.extend([format!("--{}", flag.name()), value.to_owned()]);
        }
        args
    }

    #[test]
    fn defaults_as_rendered_parse_like_absent_flags() {
        let usage = usage();
        for spec in &COMMANDS {
            let base = required_args(spec);
            let absent = parse(&base).unwrap_or_else(|e| panic!("{base:?}: {e}"));
            for flag in spec.flags {
                let Value(default) = flag.absent else {
                    continue;
                };
                // The default as the usage shows it is the one parsed.
                assert!(
                    usage.contains(&format!("[default: {default}]")),
                    "{default}"
                );
                let mut given = base.clone();
                given.extend([format!("--{}", flag.name()), default.to_owned()]);
                assert_eq!(parse(&given).unwrap(), absent, "{given:?}");
            }
        }
    }

    #[test]
    fn rendered_flags_are_the_accepted_flags() {
        let usage = usage();
        let mut rendered: Vec<(&str, &str)> = Vec::new();
        let mut command = "";
        for line in usage.lines() {
            if let Some(flag) = line.strip_prefix("      --") {
                rendered.extend(flag.split_whitespace().next().map(|f| (command, f)));
            } else if let Some(head) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                command = head.split_whitespace().next().unwrap_or("");
            }
        }
        for spec in &COMMANDS {
            let rendered: Vec<&str> = rendered
                .iter()
                .filter(|(command, _)| *command == spec.name())
                .map(|(_, flag)| *flag)
                .collect();
            let accepted: Vec<&str> = spec.flags.iter().map(Flag::name).collect();
            assert_eq!(rendered, accepted, "{}", spec.name());
            for name in rendered {
                let mut args = required_args(spec);
                args.extend([format!("--{name}"), "1".to_owned()]);
                if let Err(e) = parse(&args) {
                    assert!(!e.to_string().contains("unknown option"), "{args:?}: {e}");
                }
            }
            let mut args = required_args(spec);
            args.extend(argv("--bogus 1"));
            assert!(err(&args).contains("unknown option --bogus"), "{args:?}");
        }
    }

    #[test]
    fn stray_positionals_are_refused() {
        for (line, stray) in [
            ("model --load 0.5 extra junk", "extra"),
            ("generate campus --flows 50 --out t.pcap", "campus"),
            ("analyze a.pcap b.pcap", "b.pcap"),
            ("stats a.pcap --epoch-ms 2 b.pcap", "b.pcap"),
            ("export a.pcap b.pcap --out x", "b.pcap"),
            ("compare caida", "caida"),
            ("serve t.pcap", "t.pcap"),
        ] {
            let e = err(&argv(line));
            assert!(
                e.contains(&format!("unexpected argument '{stray}'")),
                "{line}: {e}"
            );
        }
        let e = err(&query_argv(
            "query a.pcap b.pcap",
            "map src | reduce count",
            "",
        ));
        assert!(e.contains("'b.pcap'"), "{e}");
    }

    #[test]
    fn serve_defaults_match_the_server_config() {
        let Command::Serve(serve) = parse(&argv("serve")).unwrap() else {
            panic!("serve");
        };
        let config = ServerConfig::default();
        assert_eq!(serve.algorithm, config.algorithm);
        assert_eq!(serve.memory_kib, config.memory_kib);
        assert_eq!(serve.seed, config.seed);
        assert_eq!(serve.epoch_ms, config.epoch_ms);
        assert_eq!(serve.retention, config.retention);
        assert_eq!(serve.udp, config.udp_addr);
        assert_eq!(serve.workers, config.http_workers);
        assert_eq!(serve.queue_batches, config.ingest_capacity);
        assert_eq!(serve.queries, config.queries);
        assert_eq!(serve.trace_sample_one_in, config.trace_sampling);
        assert_eq!(serve.dump_path, config.dump_path);
        // The library binds an ephemeral port; the CLI a fixed one.
        assert_eq!(serve.http, "127.0.0.1:8640");
        assert_eq!(
            (serve.memory_kib, serve.epoch_ms, serve.retention),
            (256, 1_000, 64)
        );
        assert_eq!((serve.workers, serve.queue_batches), (4, 64));
        assert_eq!(serve.seed, 0xC0FFEE);
        assert_eq!(serve.trace_sample_one_in, Some(DEFAULT_TRACE_SAMPLING));
    }

    #[test]
    fn generate_requires_out() {
        assert!(err(&argv("generate --profile campus")).contains("needs --out"));
        let p = parse(&argv("generate --profile campus --flows 500 --out x.pcap")).unwrap();
        let expected = Generate {
            profile: TraceProfile::Campus,
            flows: 500,
            seed: 1,
            out: "x.pcap".to_owned(),
        };
        assert_eq!(p, Command::Generate(expected));
        assert!(err(&argv("generate --flows 0 --out x")).contains("at least 1"));
        assert!(err(&argv("generate --profile mars --out x")).contains("valid profiles"));
    }

    #[test]
    fn unknown_options_rejected() {
        assert!(parse(&argv("compare --bogus 1")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("model --load abc")).is_err());
        // The registry's list of valid names rides the error.
        let e = err(&argv("analyze cap.pcap --algorithm quantum"));
        assert!(e.contains(&AlgorithmKind::valid_names()), "{e}");
    }

    #[test]
    fn model_alpha_optional() {
        let p = parse(&argv("model --load 2.0 --depth 4")).unwrap();
        let expected = Model {
            load: 2.0,
            depth: 4,
            alpha: None,
        };
        assert_eq!(p, Command::Model(expected));
        let Command::Model(m) = parse(&argv("model --alpha 0.7")).unwrap() else {
            panic!("model");
        };
        assert_eq!(m.alpha, Some(0.7));
        for bad in [
            "--alpha 0",
            "--alpha 1.5",
            "--alpha nan",
            "--depth 0",
            "--load -1",
        ] {
            assert!(parse(&argv(&format!("model {bad}"))).is_err(), "{bad}");
        }
    }

    #[test]
    fn last_option_wins() {
        let Command::Compare(c) = parse(&argv("compare --flows 10 --flows 20")).unwrap() else {
            panic!("compare");
        };
        assert_eq!(c.flows, 20);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(err(&argv("compare --flows")).contains("needs a value"));
    }

    #[test]
    fn query_parses_plan_and_options() {
        let plan = "filter proto=6 | map dst | distinct src | reduce count | threshold 40";
        let args = query_argv("query cap.pcap", plan, "--algorithm flowradar --top 5");
        let Command::Query(q) = parse(&args).unwrap() else {
            panic!("query");
        };
        assert_eq!(q.path, "cap.pcap");
        assert_eq!(q.memory_kib, 256);
        assert_eq!(q.algorithm, AlgorithmKind::FlowRadar);
        assert_eq!(q.top, 5);
        assert_eq!(q.plan.threshold(), Some(40));
        assert_eq!(q.metrics_out, None);
        // Missing pieces and bad plans are rejected with context.
        assert!(parse(&argv("query")).is_err());
        assert!(parse(&argv("query cap.pcap")).is_err());
        let e = err(&query_argv("query cap.pcap", "map dst", ""));
        assert!(e.contains("reduce"), "{e}");
        assert!(usage().contains("query <capture.pcap>"));
    }

    #[test]
    fn stats_parses_knobs_and_format() {
        let p = parse(&argv("stats cap.pcap")).unwrap();
        let expected = Stats {
            path: "cap.pcap".to_owned(),
            memory_kib: 256,
            algorithm: AlgorithmKind::HashFlow,
            epoch_ms: 0,
            format: MetricsFormat::Prometheus,
            out: None,
        };
        assert_eq!(p, Command::Stats(expected.clone()));
        let p = parse(&argv(
            "stats cap.pcap --epoch-ms 10 --format jsonl --out m.jsonl",
        ))
        .unwrap();
        let expected = Stats {
            epoch_ms: 10,
            format: MetricsFormat::JsonLines,
            out: Some("m.jsonl".to_owned()),
            ..expected
        };
        assert_eq!(p, Command::Stats(expected));
        assert!(parse(&argv("stats")).is_err());
        assert!(parse(&argv("stats cap.pcap --format xml")).is_err());
        assert!(usage().contains("stats <capture.pcap>"));
    }

    #[test]
    fn metrics_out_rides_analyze_and_query() {
        let Command::Analyze(a) = parse(&argv("analyze cap.pcap --metrics-out m.prom")).unwrap()
        else {
            panic!("analyze");
        };
        assert_eq!(a.metrics_out.as_deref(), Some("m.prom"));
        let args = query_argv(
            "query cap.pcap",
            "map src | reduce count",
            "--metrics-out m.jsonl",
        );
        let Command::Query(q) = parse(&args).unwrap() else {
            panic!("query");
        };
        assert_eq!(q.metrics_out.as_deref(), Some("m.jsonl"));
        assert!(usage().contains("--metrics-out"));
    }

    #[test]
    fn serve_defaults_overrides_and_validation() {
        let Command::Serve(defaults) = parse(&argv("serve")).unwrap() else {
            panic!("serve");
        };
        assert_eq!(defaults.http, "127.0.0.1:8640");
        assert!(defaults.queries.is_empty());
        assert_eq!(defaults.replay, None);
        assert_eq!(defaults.pps, None);
        assert_eq!(defaults.duration_ms, None);
        assert_eq!(defaults.addr_file, None);
        // Tracing is on by default at the library's 1-in-1024 rate.
        assert_eq!(defaults.trace_sample_one_in, Some(1_024));
        let mut args = argv("serve --http 127.0.0.1:0 --udp 127.0.0.1:0");
        for plan in ["map dst | reduce count", "map src | reduce sum"] {
            args.extend(["--query".to_owned(), plan.to_owned()]);
        }
        args.extend(argv(
            "--replay t.pcap --pps 50000 --duration-ms 250 \
             --trace-sample-one-in 64 --dump-path crash.jsonl",
        ));
        let Command::Serve(serve) = parse(&args).unwrap() else {
            panic!("serve");
        };
        let expected = Serve {
            http: "127.0.0.1:0".to_owned(),
            udp: Some("127.0.0.1:0".to_owned()),
            queries: vec![
                "map dst | reduce count".to_owned(),
                "map src | reduce sum".to_owned(),
            ],
            replay: Some("t.pcap".to_owned()),
            pps: Some(50_000),
            duration_ms: Some(250),
            trace_sample_one_in: Some(64),
            dump_path: Some("crash.jsonl".to_owned()),
            ..defaults
        };
        assert_eq!(serve, expected);
        // --trace-sample-one-in 0 switches flow tracing off entirely.
        let Command::Serve(serve) = parse(&argv("serve --trace-sample-one-in 0")).unwrap() else {
            panic!("serve");
        };
        assert_eq!(serve.trace_sample_one_in, None);
        assert!(parse(&argv("serve --epoch-ms 0")).is_err());
        assert!(parse(&argv("serve --retention 0")).is_err());
        assert!(parse(&argv("serve --replay t.pcap --pps 0")).is_err());
        // --pps only makes sense with a replay source.
        assert!(err(&argv("serve --pps 1000")).contains("needs --replay"));
        // Stray positional arguments are called out.
        assert!(parse(&argv("serve t.pcap")).is_err());
        assert!(usage().contains("serve"));
        assert!(usage().contains("--addr-file"));
    }

    #[test]
    fn export_requires_path_and_out() {
        assert!(parse(&argv("export")).is_err());
        assert!(parse(&argv("export cap.pcap")).is_err());
        let p = parse(&argv("export cap.pcap --out flows.nf5 --memory-kib 32")).unwrap();
        let expected = Export {
            path: "cap.pcap".to_owned(),
            memory_kib: 32,
            algorithm: AlgorithmKind::HashFlow,
            format: ExportFormat::NetFlowV5,
            out: "flows.nf5".to_owned(),
        };
        assert_eq!(p, Command::Export(expected));
        let p = parse(&argv(
            "export cap.pcap --algorithm flowradar --format jsonl --out flows.jsonl",
        ))
        .unwrap();
        let Command::Export(e) = p else {
            panic!("export");
        };
        assert_eq!(e.algorithm, AlgorithmKind::FlowRadar);
        assert_eq!(e.format, ExportFormat::JsonLines);
        assert!(parse(&argv("export cap.pcap --format xml --out x")).is_err());
    }
}
