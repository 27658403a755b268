//! Every workload, one child process each, run one after another.
//!
//! Plain: each workload untraced, then traced. `--selfcheck`: the untraced
//! set twice on the same build, reporting for each metric and workload
//! both values, by what share of the first the second is worse, and
//! whether that is inside the metric's bound.

use crate::spec::{self, WORKLOADS};
use std::process::{Command, ExitCode};

/// The `metric <name> <value> <unit> n=<count>` lines of a child.
fn metric_lines(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some("metric")).then_some(())?;
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect()
}

struct Child {
    metrics: Vec<(String, f64)>,
    correct: bool,
}

fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Child {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("the benchmark can start itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let correct = output.status.success()
        && stdout
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"correct\":true,"));
    Child {
        metrics: metric_lines(&stdout),
        correct,
    }
}

pub fn run(seed: u64, seconds: f64, smoke: bool, selfcheck: bool) -> ExitCode {
    let mut all_correct = true;
    let mut outside = 0;
    // Per workload: the metrics of the first and the second untraced run.
    let mut rounds: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
    for round in 0..if selfcheck { 2 } else { 1 } {
        let mut of_round = Vec::new();
        for w in &WORKLOADS {
            println!("== {} (untraced, round {})", w.name, round + 1);
            let child = run_child(w.name, seed, seconds, false);
            all_correct &= child.correct;
            of_round.push(child.metrics);
            if !selfcheck {
                println!("== {} (traced)", w.name);
                all_correct &= run_child(w.name, seed, seconds, true).correct;
            }
        }
        rounds.push(of_round);
    }
    if let [first, second] = rounds.as_slice() {
        println!("== selfcheck: two untraced runs of the same build");
        println!("workload metric first second worse_by bound verdict");
        for (w, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(second)) {
            for ((name, x), (_, y)) in a.iter().zip(b) {
                let (worse_by, bound) = spec::worsening(name, *x, *y).unwrap_or((0.0, 0.0));
                let inside = worse_by <= bound;
                // Only the workloads of `BENCHMARK.json` are held to it.
                outside += usize::from(!inside && w.gated);
                let verdict = match (inside, w.gated) {
                    (true, _) => "inside",
                    (false, true) => "OUTSIDE",
                    (false, false) => "outside (not gated)",
                };
                println!("{} {name} {x} {y} {worse_by:+.4} {bound} {verdict}", w.name);
            }
        }
        println!("selfcheck: {outside} metric x gated workload pairs outside their bound");
    }
    println!("suite: every run correct: {all_correct}");
    // A smoke run is too short for the bounds to mean anything.
    if all_correct && (smoke || outside == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
