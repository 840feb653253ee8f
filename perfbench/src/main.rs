//! The repository benchmark: encrypted CNN inference end to end.
//!
//! ```text
//! perfbench --workload <cnn_seq|serve_packed|tenant_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload checks each answer against the served pipeline's
//! plaintext reference (`infer_plain`) and against the same weights
//! with exact ReLU/MaxPool. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. The line before it (`perfbench-meta`)
//! records the run's settings, sample counts and auxiliary figures.

mod models;
mod probe;
mod report;
mod service;
mod stats;
mod trace;
mod workloads;

use report::Report;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report: Result<Report, String> = match args.workload.as_str() {
        "cnn_seq" => workloads::cnn_seq(&args),
        "serve_packed" => workloads::serve_packed(&args),
        "tenant_churn" => workloads::tenant_churn(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match report {
        Ok(r) => {
            r.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
