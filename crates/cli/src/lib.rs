//! `hashflow` — command-line flow analysis built on the reproduction.
//!
//! ```text
//! hashflow generate --profile campus --flows 50000 --out trace.pcap
//! hashflow analyze trace.pcap --memory-kib 256 --threshold 100
//! hashflow compare --profile caida --flows 60000 --memory-kib 256
//! hashflow model --load 1.0 --depth 3 --alpha 0.7
//! ```
//!
//! All logic lives in this library so it is unit-testable; `main.rs` is a
//! two-line wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

/// Entry point used by the binary: parse, run, render.
///
/// # Errors
///
/// Returns a human-readable error string for bad usage or I/O failures.
pub fn main_with_args(args: &[String]) -> Result<String, String> {
    let parsed = args::parse(args).map_err(|e| format!("{e}\n\n{}", args::usage()))?;
    commands::run(&parsed).map_err(|e| e.to_string())
}
