//! `somrm` — command-line analysis of (second-order) Markov reward
//! models.
//!
//! ```text
//! somrm-tool check    <model-file>
//! somrm-tool moments  <model-file> [--t T] [--order N] [--eps E]
//! somrm-tool sweep    <model-file> [--t T] [--points K] [--times T1,T2,...]
//! somrm-tool bounds   <model-file> [--t T] [--moments N] [--points K] [--eps E]
//! somrm-tool simulate <model-file> [--t T] [--order N] [--samples K] [--seed S]
//! somrm-tool density  <model-file> [--t T] [--points K]
//! somrm-tool verify   [--cases N] [--seed S] [--out-dir DIR] [--metrics DEST]
//! somrm-tool serve    [--cache-size N] [--cache-bytes B] [--threads N] [--eps E] [--metrics PATH]
//!                     [--stats-out PATH] [--stats-format json|prom]
//!                     [--slow-trace-dir DIR] [--slow-ms T]
//! somrm-tool stats    <snapshot-file>
//! ```

use somrm_cli::commands::{
    cmd_bounds, cmd_check, cmd_density, cmd_moments, cmd_serve, cmd_simulate, cmd_stats,
    cmd_sweep, cmd_verify, CommonOpts, ServeTelemetryOpts, StatsFormat,
};
use somrm_cli::format::parse_model;
use somrm_linalg::MatrixFormat;
use std::process::ExitCode;

const USAGE: &str = "usage: somrm-tool <check|moments|bounds|simulate|density|sweep> <model-file> [options]
       somrm-tool verify [--cases N] [--seed S] [--out-dir DIR] [--metrics DEST]
       somrm-tool serve [--cache-size N] [--cache-bytes B] [--threads N] [--eps E]
                        [--metrics PATH]
                        [--stats-out PATH] [--stats-format json|prom]
                        [--slow-trace-dir DIR] [--slow-ms T]
       somrm-tool stats <snapshot-file>

options:
  --t T           accumulation time (default 1.0)
  --order N       highest moment order (default 3)
  --moments N     moments fed to the bounding step (default 20)
  --points K      grid points for bounds/density output (default 21)
  --times LIST    explicit sweep time grid, comma-separated; unsorted or
                  duplicate entries are normalized with a stderr note
  --samples K     simulation paths (default 100000)
  --seed S        simulation seed (default 1)
  --eps E         solver precision (default 1e-9)
  --threads N     solver worker threads (default 1; results are
                  identical for any count)
  --format F      iteration-matrix storage: auto|csr|dia|operator
                  (default auto; results are identical for any choice;
                  operator runs matrix-free and needs a model with a
                  Kronecker structure, which model files do not carry)
  --metrics DEST  emit the JSON solve report; DEST '-' replaces the
                  normal output on stdout, anything else is a file path
  --trace         print solver stage timings to stderr as they happen
  --trace-out P   write the solve timeline to P as Chrome trace_event
                  JSON (open in Perfetto / chrome://tracing)
  --progress      print a throttled k/G heartbeat with ETA to stderr
  --events-out P  stream the typed solve event log (JSONL, schema
                  somrm-events-v1: solve.start, plan.resolved,
                  truncation, health, progress with ETA, complete) to P
  --progress-json stream the same event records to stderr, for
                  supervisors tailing the process

verify options:
  --cases N       number of generated cases (default 200)
  --seed S        generation seed (default 0)
  --out-dir DIR   write shrunken reproducer JSON files here on failure
  --metrics DEST  emit per-case solve timings and check counters as a
                  JSON report ('-' or file path, as above)

serve options (JSON-lines requests on stdin, responses on stdout,
summary on stderr; see the somrm-serve crate docs for the protocol;
lines with a top-level \"cmd\" member are sideband admin commands:
{\"cmd\":\"stats\"}, {\"cmd\":\"reset\"}, {\"cmd\":\"health\"}):
  --cache-size N    plan-cache capacity in entries (default 32)
  --cache-bytes B   additional plan-cache byte budget: evict LRU plans,
                    with their series, while resident bytes exceed B
                    (default unlimited; the newest plan is always
                    retained)
  --metrics PATH    write the JSON solve report on exit ('-' rejected:
                    stdout carries the response protocol)
  --stats-out PATH  write the final request-stats snapshot on exit
  --stats-format F  snapshot format: json|prom (default json)
  --slow-trace-dir DIR  write per-request Chrome traces of slow
                    requests into DIR (named req-<seq>.json)
  --slow-ms T       slow threshold in milliseconds (default 250;
                    0 captures every request)

stats: pretty-print a snapshot file from serve --stats-out (or a
captured {\"cmd\":\"stats\"} response line)

model file format:
  states N
  rate   i j RATE
  reward i DRIFT VARIANCE
  impulse i j AMOUNT     (optional)
  init   i PROB          (optional; default: all mass on state 0)";

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("missing value after {name}"))?
            .parse()
            .map_err(|_| format!("cannot parse value of {name}")),
    }
}

/// Valueless boolean flag: present or absent.
fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Optional-valued flag (`--metrics -` or `--metrics report.json`).
fn opt_flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("missing value after {name}")),
    }
}

/// Refuses every `--` token of `args` that is neither one of `options`
/// (each followed by its value, which is skipped whatever it looks like)
/// nor one of `switches`, so a misspelt option fails instead of being
/// ignored.
fn check_options(args: &[String], options: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut tokens = args.iter();
    while let Some(token) = tokens.next() {
        if options.contains(&token.as_str()) {
            tokens.next();
        } else if token.starts_with("--") && !switches.contains(&token.as_str()) {
            return Err(format!("unknown option {token}\n\n{USAGE}"));
        }
    }
    Ok(())
}

/// The value-taking options every model subcommand accepts.
const MODEL_OPTIONS: [&str; 7] = [
    "--t",
    "--eps",
    "--threads",
    "--metrics",
    "--trace-out",
    "--format",
    "--events-out",
];

/// The valueless switches every model subcommand accepts.
const MODEL_SWITCHES: [&str; 3] = ["--trace", "--progress", "--progress-json"];

/// Optional *parsed* flag: absent → `None`, present → parsed value.
fn opt_parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match opt_flag(args, name)? {
        None => Ok(None),
        Some(s) => s
            .parse()
            .map(Some)
            .map_err(|_| format!("cannot parse value of {name}")),
    }
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `verify` generates its own models, so it takes no model file.
    if args.first().map(String::as_str) == Some("verify") {
        check_options(&args, &["--cases", "--seed", "--out-dir", "--metrics"], &[])?;
        return cmd_verify(
            flag(&args, "--cases", 200u64)?,
            flag(&args, "--seed", 0u64)?,
            opt_flag(&args, "--out-dir")?,
            opt_flag(&args, "--metrics")?,
        );
    }
    // `serve` reads models from its request stream, not from argv.
    if args.first().map(String::as_str) == Some("serve") {
        check_options(
            &args,
            &[
                "--cache-size",
                "--cache-bytes",
                "--threads",
                "--eps",
                "--metrics",
                "--format",
                "--events-out",
                "--stats-out",
                "--stats-format",
                "--slow-trace-dir",
                "--slow-ms",
            ],
            &["--progress-json"],
        )?;
        let opts = CommonOpts {
            epsilon: flag(&args, "--eps", 1e-9)?,
            threads: flag(&args, "--threads", 1usize)?,
            metrics: opt_flag(&args, "--metrics")?,
            format: flag(&args, "--format", MatrixFormat::Auto)?,
            events_out: opt_flag(&args, "--events-out")?,
            progress_json: switch(&args, "--progress-json"),
            ..CommonOpts::default()
        };
        let tel_opts = ServeTelemetryOpts {
            stats_out: opt_flag(&args, "--stats-out")?,
            stats_format: flag(&args, "--stats-format", StatsFormat::Json)?,
            slow_trace_dir: opt_flag(&args, "--slow-trace-dir")?,
            slow_ms: flag(&args, "--slow-ms", 250u64)?,
        };
        return cmd_serve(
            flag(&args, "--cache-size", 32usize)?,
            opt_parsed(&args, "--cache-bytes")?,
            &tel_opts,
            &opts,
        );
    }
    // `stats` pretty-prints a snapshot file, no model involved.
    if args.first().map(String::as_str) == Some("stats") {
        check_options(&args, &[], &[])?;
        let Some(file) = args.get(1).filter(|f| !f.starts_with("--")) else {
            return Err(
                "stats: need a snapshot file (from serve --stats-out, or a captured \
                 {\"cmd\":\"stats\"} response line)"
                    .to_string(),
            );
        };
        return cmd_stats(file);
    }
    let (cmd, file) = match (args.first(), args.get(1)) {
        (Some(c), Some(f)) if !f.starts_with("--") => (c.clone(), f.clone()),
        _ => return Err(USAGE.to_string()),
    };
    let own_options: &[&str] = match cmd.as_str() {
        "check" => &[],
        "moments" => &["--order"],
        "bounds" => &["--moments", "--points"],
        "simulate" => &["--order", "--samples", "--seed"],
        "density" => &["--points"],
        "sweep" => &["--points", "--times"],
        other => return Err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    check_options(
        &args,
        &[&MODEL_OPTIONS[..], own_options].concat(),
        &MODEL_SWITCHES,
    )?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let parsed = parse_model(&text).map_err(|e| e.to_string())?;
    let opts = CommonOpts {
        t: flag(&args, "--t", 1.0)?,
        epsilon: flag(&args, "--eps", 1e-9)?,
        threads: flag(&args, "--threads", 1usize)?,
        metrics: opt_flag(&args, "--metrics")?,
        trace: switch(&args, "--trace"),
        trace_out: opt_flag(&args, "--trace-out")?,
        progress: switch(&args, "--progress"),
        format: flag(&args, "--format", MatrixFormat::Auto)?,
        events_out: opt_flag(&args, "--events-out")?,
        progress_json: switch(&args, "--progress-json"),
    };
    match cmd.as_str() {
        "check" => cmd_check(&parsed, &opts),
        "moments" => cmd_moments(&parsed, flag(&args, "--order", 3usize)?, &opts),
        "bounds" => cmd_bounds(
            &parsed,
            flag(&args, "--moments", 20usize)?,
            flag(&args, "--points", 21usize)?,
            &opts,
        ),
        "simulate" => cmd_simulate(
            &parsed,
            flag(&args, "--order", 3usize)?,
            flag(&args, "--samples", 100_000usize)?,
            flag(&args, "--seed", 1u64)?,
            &opts,
        ),
        "density" => cmd_density(&parsed, flag(&args, "--points", 21usize)?, &opts),
        "sweep" => {
            let times = match opt_flag(&args, "--times")? {
                None => None,
                Some(csv) => Some(
                    csv.split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<f64>()
                                .map_err(|_| format!("cannot parse --times entry '{}'", s.trim()))
                        })
                        .collect::<Result<Vec<f64>, String>>()?,
                ),
            };
            cmd_sweep(&parsed, flag(&args, "--points", 20usize)?, times.as_deref(), &opts)
        }
        _ => unreachable!("the command was matched above"),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
