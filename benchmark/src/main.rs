//! The repository benchmark. One command per workload and seed:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve_hot|serve_tail|pc_exact|ctable_join> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of the workload;
//! with `--trace 1` the per-layer metrics, from spans it records around
//! its calls into each layer (written to `.bench_trace/`). The last line
//! of stdout is one JSON object; the lines before it start with `# `.
//! Every answer is checked; a wrong answer aborts the run with exit
//! code 1. See `README.md` for the workloads and what each metric means.

#![forbid(unsafe_code)]

mod adapter;
mod ctable;
mod harness;
mod prob;
mod scan;
mod serve;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use harness::Report;
use trace::Trace;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measurement.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let mut trace = Trace::default();
    let result = match args.workload.as_str() {
        "serve_hot" => serve::run(&args, serve::HOT_POOL, &mut trace, epoch),
        "serve_tail" => serve::run(&args, serve::TAIL_POOL, &mut trace, epoch),
        "pc_exact" => prob::run(&args, &mut trace, epoch),
        "ctable_join" => ctable::run(&args, &mut trace, epoch),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let report: Report = match result {
        Ok(r) => r,
        Err(e) => {
            // A set-up or reference computation failed: no result.
            eprintln!("error: {}", e.0);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        if let Err(e) = trace.write(Path::new(".bench_trace"), &args.workload) {
            eprintln!("error: writing the trace: {e}");
            return ExitCode::from(1);
        }
    }
    report.print();
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
