//! The repository benchmark: three seeded workloads through the entry
//! points users hit (`parse_model`, `SolvePlan::build`/`execute`, the
//! `serve` loop), printing every end-to-end metric (or, with
//! `--trace 1`, every per-layer metric) and a correctness verdict as a
//! JSON object on the last line of standard output.
//!
//! Usage: `somrm-perfbench --workload <solve-paper|serve-hot|serve-churn>
//! --seed N --seconds S --trace 0|1 --work-dir DIR`. `perfbench/run.py`
//! builds this binary and supplies `--work-dir`.

mod calib;
mod check;
mod paper;
mod report;
mod rng;
mod serve_load;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;

pub const WORKLOADS: [&str; 3] = ["solve-paper", "serve-hot", "serve-churn"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where generated model files and trace output go.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    // The measured work, the load generator and the calibration slices
    // share one CPU, so slices time the CPU the work ran on.
    let cpu = stats::pin_to_current_cpu();
    report::print_header(&args.workload, args.seed, args.seconds, args.trace, cpu);
    let outcome = if args.workload == "solve-paper" {
        paper::run(&args)
    } else {
        serve_load::run(&args)
    };
    match outcome {
        Ok(o) => {
            report::print_result(&o);
            std::process::exit(if o.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
