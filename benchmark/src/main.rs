//! The collector's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hashflow-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! hashflow-benchmark [--seed N] [--seconds S] [--smoke] [--selfcheck]
//! ```
//!
//! With `--workload` it runs one workload in this process and prints its
//! metrics, its checks and, as the last line, the result object. Without,
//! it runs every workload, one child process each, untraced and traced.

mod env;
mod layers;
mod pace;
mod run;
mod span;
mod spec;
mod stats;
mod suite;
mod workload;

use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    selfcheck: bool,
    print_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        selfcheck: false,
        print_spec: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be within (0, 60]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--print-spec" => args.print_spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: hashflow-benchmark [--workload NAME] [--seed N] [--seconds S] \
                 [--trace 0|1] [--smoke] [--selfcheck]"
            );
            return ExitCode::from(2);
        }
    };
    if args.print_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let seconds = args.seconds.unwrap_or(if args.smoke {
        2.0
    } else {
        spec::RUN_SECONDS as f64
    });
    match args.workload {
        Some(name) => match spec::workload(&name) {
            Some(w) => run::single(w, args.seed, seconds, args.traced),
            None => {
                let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("error: no workload {name}; there are: {}", names.join(", "));
                ExitCode::from(2)
            }
        },
        None => suite::run(args.seed, seconds, args.smoke, args.selfcheck),
    }
}
