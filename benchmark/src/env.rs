//! The environment stamp printed with every result, and the process's
//! own peak memory.

use hashflow_server::json::Obj;
use std::process::Command;

fn first_line_of(command: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(command).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// CPU model, core count, compiler and commit, as JSON fields. Anything
/// that cannot be found out (no `/proc`, not a git checkout) reads
/// `unknown` rather than failing the run.
pub fn stamp(obj: Obj) -> Obj {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    // Only ask git inside a checkout of its own, so it never walks up
    // into directories that are not the benchmark's.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| first_line_of("git", &["rev-parse", "--short", "HEAD"]))
        .flatten();
    obj.str("cpu", &cpu_model().unwrap_or_else(unknown))
        .u64("nproc", nproc)
        .str(
            "rustc",
            &first_line_of("rustc", &["--version"]).unwrap_or_else(unknown),
        )
        .str("commit", &commit.unwrap_or_else(unknown))
}

/// `VmHWM` of this process in MiB (Linux; `None` elsewhere).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
