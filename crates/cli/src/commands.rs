//! The CLI subcommands, as testable functions.

use crate::format::{parse_model, ParsedModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use somrm_bounds::cms::cdf_bounds_recorded;
use somrm_bounds::reconstruct::gauss_mixture_cdf;
use somrm_core::moments::summarize;
use somrm_core::uniformization::{MomentSolution, SolverConfig};
use somrm_core::SolvePlan;
use somrm_ctmc::stationary::{stationary_birth_death, stationary_gth};
use somrm_linalg::MatrixFormat;
use somrm_num::Dd;
use somrm_obs::{ChromeTraceRecorder, MetricsRegistry, Recorder, RecorderHandle, SolveReport};
use somrm_sim::reward::{estimate_moments, estimate_moments_impulse};
use somrm_transform::{density_at, TransformConfig};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;

/// Options shared by the analysis commands.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonOpts {
    /// Accumulation time.
    pub t: f64,
    /// Solver precision ε.
    pub epsilon: f64,
    /// Solver worker threads (results are identical for any count; only
    /// engaged on models above the solver's parallel threshold).
    pub threads: usize,
    /// `--metrics` destination: `Some("-")` replaces the human-readable
    /// output with the JSON [`SolveReport`] on stdout; `Some(path)`
    /// writes the JSON to `path` and keeps the human output.
    pub metrics: Option<String>,
    /// `--trace-out`: capture the solve timeline and write it to this
    /// path as Chrome `trace_event` JSON (open in Perfetto or
    /// `chrome://tracing`).
    pub trace_out: Option<String>,
    /// `--format`: iteration-matrix storage (`auto` detects banded
    /// structure and promotes to DIA; `csr`/`dia` force a format).
    pub format: MatrixFormat,
    /// `--events-out`: stream the typed solve event log (JSONL,
    /// `somrm-events-v1`) to this file.
    pub events_out: Option<String>,
    /// `--progress-json`: stream the same event records to stderr, for
    /// supervisors that tail the process instead of a file.
    pub progress_json: bool,
}

impl Default for CommonOpts {
    fn default() -> Self {
        CommonOpts {
            t: 1.0,
            epsilon: 1e-9,
            threads: 1,
            metrics: None,
            trace_out: None,
            format: MatrixFormat::Auto,
            events_out: None,
            progress_json: false,
        }
    }
}

/// The recorder of one command invocation plus, for `--trace-out` runs,
/// the timeline recorder and its destination path so `emit` can write
/// the trace file once the command finishes.
pub struct Telemetry {
    rec: RecorderHandle,
    chrome: Option<(Arc<ChromeTraceRecorder>, String)>,
}

impl Telemetry {
    /// The recorder to hand to solvers and spans.
    pub fn rec(&self) -> &RecorderHandle {
        &self.rec
    }
}

impl CommonOpts {
    /// Builds the telemetry for one command invocation. A `--trace-out`
    /// run captures the timeline with [`ChromeTraceRecorder`] (which
    /// also aggregates, so `--metrics` composes with it); a
    /// `--metrics`-only run aggregates silently; otherwise recording is
    /// disabled and the solver pays a single predictable branch per
    /// instrumentation point.
    fn telemetry(&self) -> Telemetry {
        if let Some(path) = &self.trace_out {
            let chrome = Arc::new(ChromeTraceRecorder::new());
            Telemetry {
                rec: RecorderHandle::new(chrome.clone() as Arc<dyn Recorder>),
                chrome: Some((chrome, path.clone())),
            }
        } else if self.metrics.is_some() {
            Telemetry {
                rec: RecorderHandle::new(Arc::new(MetricsRegistry::new()) as Arc<dyn Recorder>),
                chrome: None,
            }
        } else {
            Telemetry {
                rec: RecorderHandle::disabled(),
                chrome: None,
            }
        }
    }

    /// Builds the solve event log: a file sink for `--events-out`, a
    /// stderr sink for `--progress-json`, both teed when both are set,
    /// disabled (one predictable branch per emit point) otherwise.
    fn events_handle(&self) -> Result<somrm_obs::EventLogHandle, String> {
        if self.events_out.is_none() && !self.progress_json {
            return Ok(somrm_obs::EventLogHandle::disabled());
        }
        let log = somrm_obs::EventLogRecorder::new();
        if let Some(path) = &self.events_out {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create --events-out {path}: {e}"))?;
            log.add_sink(Box::new(file));
        }
        if self.progress_json {
            log.add_sink(Box::new(std::io::stderr()));
        }
        Ok(somrm_obs::EventLogHandle::new(log))
    }

    fn solver_config(&self, rec: &RecorderHandle) -> Result<SolverConfig, String> {
        Ok(SolverConfig {
            epsilon: self.epsilon,
            threads: self.threads,
            format: self.format,
            recorder: rec.clone(),
            events: self.events_handle()?,
            ..SolverConfig::default()
        })
    }
}

/// Sorts and dedups a command's evaluation grid in place. Returns a
/// human-readable note when anything was reordered or dropped, `None`
/// when the grid was already sorted and duplicate-free. Callers write
/// the note to stderr and ignore a failed write: a closed stderr loses
/// the note, not the result.
///
/// The solvers require strictly increasing grids; user-supplied lists
/// (and degenerate generated ones, e.g. `sweep --t 0`) get normalized
/// here instead of erroring deep inside the recursion.
pub fn normalize_grid(label: &str, grid: &mut Vec<f64>) -> Option<String> {
    let before = grid.len();
    let was_sorted = grid
        .windows(2)
        .all(|w| w[0].total_cmp(&w[1]) != std::cmp::Ordering::Greater);
    grid.sort_by(f64::total_cmp);
    grid.dedup();
    let dropped = before - grid.len();
    if was_sorted && dropped == 0 {
        return None;
    }
    let mut parts = Vec::new();
    if !was_sorted {
        parts.push("sorted".to_string());
    }
    if dropped > 0 {
        parts.push(format!(
            "dropped {dropped} duplicate point{}",
            if dropped == 1 { "" } else { "s" }
        ));
    }
    Some(format!("note: {label} grid {}", parts.join(", ")))
}

/// The solve plan of a parsed model for moments up to `order`; impulse
/// models plan their coupling too.
fn build_plan(parsed: &ParsedModel, order: usize, cfg: &SolverConfig) -> Result<SolvePlan, String> {
    if parsed.has_impulses() {
        let m = parsed
            .clone()
            .into_impulse_mrm()
            .map_err(|e| e.to_string())?;
        SolvePlan::build_impulse(&m, order, cfg)
    } else {
        SolvePlan::build(&parsed.model, order, cfg)
    }
    .map_err(|e| e.to_string())
}

fn solve(
    parsed: &ParsedModel,
    order: usize,
    opts: &CommonOpts,
    rec: &RecorderHandle,
) -> Result<MomentSolution, String> {
    let cfg = opts.solver_config(rec)?;
    let mut sols = build_plan(parsed, order, &cfg)?
        .execute(&[opts.t], order)
        .map_err(|e| e.to_string())?;
    Ok(sols.pop().expect("one time point requested"))
}

/// Routes a finished command's output according to `--trace-out` and
/// `--metrics`.
///
/// The report is the solver-attached one when a solve ran (it carries
/// the full solver section), or a fresh solver-less report otherwise;
/// either way its metrics are re-snapshotted here so stages recorded
/// *after* the solve (e.g. the CDF-bound stages) are included.
fn emit(
    opts: &CommonOpts,
    tel: &Telemetry,
    command: &str,
    report: Option<&Arc<SolveReport>>,
    human: String,
) -> Result<String, String> {
    if let Some((chrome, path)) = &tel.chrome {
        std::fs::write(path, chrome.to_json())
            .map_err(|e| format!("cannot write trace {path}: {e}"))?;
    }
    let Some(dest) = &opts.metrics else {
        return Ok(human);
    };
    let mut report = match report {
        Some(r) => (**r).clone(),
        None => SolveReport::new(command),
    };
    report.set_metrics(tel.rec.snapshot().unwrap_or_default());
    let json = report.to_json();
    if dest == "-" {
        Ok(format!("{json}\n"))
    } else {
        std::fs::write(dest, format!("{json}\n"))
            .map_err(|e| format!("cannot write {dest}: {e}"))?;
        Ok(human)
    }
}

/// `somrm check`: validates the model and prints structural facts.
///
/// # Errors
///
/// Returns a human-readable message on analysis failure.
pub fn cmd_check(parsed: &ParsedModel, opts: &CommonOpts) -> Result<String, String> {
    let tel = opts.telemetry();
    let m = &parsed.model;
    let mut out = String::new();
    let _ = writeln!(out, "states            : {}", m.n_states());
    let _ = writeln!(
        out,
        "transitions       : {}",
        m.generator().as_csr().nnz() - m.generator().diagonal().iter().filter(|&&d| d != 0.0).count()
    );
    let _ = writeln!(
        out,
        "uniformization q  : {}",
        m.generator().uniformization_rate()
    );
    let _ = writeln!(
        out,
        "order             : {}",
        if m.is_first_order() { "first (all variances zero)" } else { "second" }
    );
    let _ = writeln!(out, "impulses          : {}", parsed.impulses.len());
    let _ = writeln!(
        out,
        "drift range       : [{}, {}]",
        m.rates().iter().copied().fold(f64::INFINITY, f64::min),
        m.rates().iter().copied().fold(f64::NEG_INFINITY, f64::max)
    );
    match long_run_distribution(m.generator()) {
        Ok(pi) => {
            let growth: f64 = pi.iter().zip(m.rates()).map(|(&p, &r)| p * r).sum();
            let _ = writeln!(out, "long-run rate     : {growth}");
        }
        Err(reason) => {
            let _ = writeln!(out, "long-run rate     : ({reason})");
        }
    }
    emit(opts, &tel, "check", None, out)
}

/// Largest non-tridiagonal generator `check` hands to dense GTH, which
/// stores the full `n × n` matrix (32 MiB here) and costs `O(n³)`.
const DENSE_GTH_MAX_STATES: usize = 2048;

/// The stationary distribution `check` reports the long-run rate with:
/// the `O(n)` product form for a tridiagonal (birth–death) generator, so
/// the paper's 200,001-state models need no dense matrix, and dense GTH
/// up to [`DENSE_GTH_MAX_STATES`] otherwise. The error says why there is
/// none, without allocating anything dense.
fn long_run_distribution(gen: &somrm_ctmc::generator::Generator) -> Result<Vec<f64>, String> {
    const NOT_IRREDUCIBLE: &str = "chain not irreducible";
    let n = gen.n_states();
    let csr = gen.as_csr();
    let mut birth = vec![0.0; n.saturating_sub(1)];
    let mut death = vec![0.0; n.saturating_sub(1)];
    let tridiagonal = (0..n).all(|i| {
        csr.row(i).all(|(j, v)| {
            if j == i + 1 {
                birth[i] = v;
            } else if j + 1 == i {
                death[j] = v;
            }
            j + 1 >= i && j <= i + 1
        })
    });
    if tridiagonal {
        return stationary_birth_death(&birth, &death).map_err(|_| NOT_IRREDUCIBLE.to_string());
    }
    if n > DENSE_GTH_MAX_STATES {
        return Err(format!(
            "too large for dense GTH: {n} states > {DENSE_GTH_MAX_STATES}, not tridiagonal"
        ));
    }
    stationary_gth(gen).map_err(|_| NOT_IRREDUCIBLE.to_string())
}

/// `somrm moments`: raw moments and summary statistics at time `t`.
///
/// # Errors
///
/// Returns a human-readable message on analysis failure.
pub fn cmd_moments(
    parsed: &ParsedModel,
    order: usize,
    opts: &CommonOpts,
) -> Result<String, String> {
    let tel = opts.telemetry();
    let rec = tel.rec().clone();
    let sol = solve(parsed, order.max(2), opts, &rec)?;
    let mut out = String::new();
    let _ = writeln!(out, "t = {}, solver iterations G = {}, error bound {:.2e}",
        opts.t, sol.stats.iterations, sol.stats.error_bound);
    for n in 0..=order {
        let _ = writeln!(
            out,
            "E[B^{n}] = {:.12e}  (bound {:.2e})",
            sol.raw_moment(n),
            sol.error_bound(n)
        );
    }
    let s = summarize(&sol.weighted);
    let _ = writeln!(out, "mean      = {:.6}", s.mean);
    let _ = writeln!(out, "variance  = {:.6}", s.variance);
    match (sol.time_average_mean(), sol.time_average_variance()) {
        (Ok(mean), Ok(var)) => {
            let _ = writeln!(out, "time-avg mean     = {mean:.6}");
            let _ = writeln!(out, "time-avg variance = {var:.6}");
        }
        (Err(e), _) | (_, Err(e)) => {
            let _ = writeln!(out, "time-avg          = ({e})");
        }
    }
    if order >= 3 {
        let _ = writeln!(out, "skewness  = {:.6}", s.skewness);
    }
    if order >= 4 {
        let _ = writeln!(out, "kurtosis  = {:.6}", s.kurtosis);
    }
    emit(opts, &tel, "moments", sol.report.as_ref(), out)
}

/// `somrm bounds`: CDF envelope (and moment-matched estimate) on a grid.
///
/// # Errors
///
/// Returns a human-readable message on analysis failure.
pub fn cmd_bounds(
    parsed: &ParsedModel,
    n_moments: usize,
    n_points: usize,
    opts: &CommonOpts,
) -> Result<String, String> {
    if n_points < 2 {
        return Err("need at least 2 grid points".to_string());
    }
    let tel = opts.telemetry();
    let rec = tel.rec().clone();
    let sol = solve(parsed, n_moments.max(3), opts, &rec)?;
    let mean = sol.mean();
    let sd = sol.variance().max(0.0).sqrt();
    if sd == 0.0 {
        return Err("reward distribution is degenerate (zero variance)".to_string());
    }
    let mut xs: Vec<f64> = (0..n_points)
        .map(|k| mean + sd * (k as f64 / (n_points - 1).max(1) as f64 * 8.0 - 4.0))
        .collect();
    if let Some(note) = normalize_grid("bounds x", &mut xs) {
        let _ = writeln!(std::io::stderr(), "{note}");
    }
    let bounds =
        cdf_bounds_recorded::<Dd>(&sol.weighted, &xs, &rec).map_err(|e| e.to_string())?;
    let estimate = gauss_mixture_cdf::<Dd>(&sol.weighted, &xs).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "CDF bounds from {} moments at t = {} ({} canonical nodes)",
        n_moments, opts.t, bounds[0].nodes_used
    );
    let _ = writeln!(out, "{:>14} {:>10} {:>10} {:>10}", "x", "lower", "upper", "estimate");
    for (i, b) in bounds.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>14.6} {:>10.6} {:>10.6} {:>10.6}",
            b.x, b.lower, b.upper, estimate[i]
        );
    }
    emit(opts, &tel, "bounds", sol.report.as_ref(), out)
}

/// `somrm simulate`: Monte-Carlo moment estimates with standard errors.
///
/// # Errors
///
/// Returns a human-readable message on analysis failure.
pub fn cmd_simulate(
    parsed: &ParsedModel,
    order: usize,
    samples: usize,
    seed: u64,
    opts: &CommonOpts,
) -> Result<String, String> {
    if samples < 2 {
        return Err("need at least 2 samples".to_string());
    }
    let tel = opts.telemetry();
    let rec = tel.rec().clone();
    let sim = rec.span("simulate.paths");
    let mut rng = StdRng::seed_from_u64(seed);
    let est = if parsed.has_impulses() {
        let m = parsed.clone().into_impulse_mrm().map_err(|e| e.to_string())?;
        estimate_moments_impulse(&mut rng, &m, order, opts.t, samples)
    } else {
        estimate_moments(&mut rng, &parsed.model, order, opts.t, samples)
    };
    drop(sim);
    let mut out = String::new();
    let _ = writeln!(out, "{samples} paths, seed {seed}, t = {}", opts.t);
    for n in 0..=order {
        let _ = writeln!(
            out,
            "E[B^{n}] = {:.8e} +- {:.2e}",
            est.estimates[n], est.std_errors[n]
        );
    }
    emit(opts, &tel, "simulate", None, out)
}

/// `somrm sweep`: mean and standard deviation of `B(t)` over a time
/// grid `(0, t]` — or an explicit `--times` list — CSV-ish output
/// suitable for plotting.
///
/// An explicit grid may arrive unsorted or with duplicates (a shell
/// one-liner gluing ranges together, say); it is sorted and deduped
/// with a note on stderr rather than rejected. The same normalization
/// catches the degenerate generated grid of `--t 0` (every point 0),
/// which collapses to a single row.
///
/// # Errors
///
/// Returns a human-readable message on analysis failure.
pub fn cmd_sweep(
    parsed: &ParsedModel,
    n_points: usize,
    explicit_times: Option<&[f64]>,
    opts: &CommonOpts,
) -> Result<String, String> {
    let mut times: Vec<f64> = match explicit_times {
        Some(ts) => {
            if ts.is_empty() {
                return Err("--times list is empty".to_string());
            }
            for &t in ts {
                if !(t >= 0.0) || !t.is_finite() {
                    return Err(format!("--times: time must be finite and non-negative, got {t}"));
                }
            }
            ts.to_vec()
        }
        None => {
            if n_points < 2 {
                return Err("need at least 2 sweep points".to_string());
            }
            (1..=n_points)
                .map(|k| opts.t * k as f64 / n_points as f64)
                .collect()
        }
    };
    if let Some(note) = normalize_grid("sweep time", &mut times) {
        let _ = writeln!(std::io::stderr(), "{note}");
    }
    let tel = opts.telemetry();
    let rec = tel.rec().clone();
    let cfg = opts.solver_config(&rec)?;
    let sweep = build_plan(parsed, 2, &cfg)?
        .execute(&times, 2)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "t,mean,stddev");
    for sol in &sweep {
        let _ = writeln!(out, "{},{},{}", sol.t, sol.mean(), sol.variance().max(0.0).sqrt());
    }
    let report = sweep.last().and_then(|s| s.report.clone());
    emit(opts, &tel, "sweep", report.as_ref(), out)
}

/// `somrm density`: the reward density on a grid (transform inversion;
/// small models, no impulses).
///
/// # Errors
///
/// Returns a human-readable message on analysis failure, including
/// impulse models (the characteristic-function route implemented here
/// covers rate rewards only) and models too large for dense transforms.
pub fn cmd_density(
    parsed: &ParsedModel,
    n_points: usize,
    opts: &CommonOpts,
) -> Result<String, String> {
    if n_points < 2 {
        return Err("need at least 2 grid points".to_string());
    }
    if parsed.has_impulses() {
        return Err("density: impulse models are not supported by the transform route".into());
    }
    if parsed.model.n_states() > 200 {
        return Err(format!(
            "density: model has {} states; the dense transform route is limited to 200",
            parsed.model.n_states()
        ));
    }
    let tel = opts.telemetry();
    let rec = tel.rec().clone();
    let sol = solve(parsed, 2, opts, &rec)?;
    let mean = sol.mean();
    let sd = sol.variance().max(1e-12).sqrt();
    let mut xs: Vec<f64> = (0..n_points)
        .map(|k| mean + sd * (k as f64 / (n_points - 1).max(1) as f64 * 10.0 - 5.0))
        .collect();
    if let Some(note) = normalize_grid("density x", &mut xs) {
        let _ = writeln!(std::io::stderr(), "{note}");
    }
    let d = rec.time("density.transform", || {
        density_at(&parsed.model, opts.t, &xs, &TransformConfig::default())
    })
    .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "{:>14} {:>14}", "x", "density");
    for (i, &x) in xs.iter().enumerate() {
        let _ = writeln!(out, "{:>14.6} {:>14.8}", x, d[i]);
    }
    emit(opts, &tel, "density", sol.report.as_ref(), out)
}

/// `somrm verify`: runs the differential oracle harness over randomly
/// generated models (no model file — the harness generates its own).
///
/// With `--metrics DEST`, per-case solve timings and check/violation
/// counters are aggregated and emitted as a `"verify"` [`SolveReport`]:
/// `-` replaces the summary on stdout (pass only), a path gets the JSON
/// either way.
///
/// # Errors
///
/// Returns the rendered summary as an error when any case violated the
/// oracle, so the process exits nonzero for CI.
pub fn cmd_verify(
    cases: u64,
    seed: u64,
    out_dir: Option<String>,
    metrics: Option<String>,
) -> Result<String, String> {
    let rec = if metrics.is_some() {
        RecorderHandle::new(Arc::new(MetricsRegistry::new()) as Arc<dyn Recorder>)
    } else {
        RecorderHandle::disabled()
    };
    let opts = somrm_verify::VerifyOpts {
        cases,
        seed,
        out_dir: out_dir.map(std::path::PathBuf::from),
        oracle: somrm_verify::OracleConfig {
            recorder: rec.clone(),
            ..somrm_verify::OracleConfig::default()
        },
        ..somrm_verify::VerifyOpts::default()
    };
    let summary = somrm_verify::run_verification(&opts);
    let human = summary.render();
    if let Some(dest) = &metrics {
        let mut report = SolveReport::new("verify");
        report.set_metrics(rec.snapshot().unwrap_or_default());
        let json = report.to_json();
        if dest == "-" {
            if summary.passed() {
                return Ok(format!("{json}\n"));
            }
        } else {
            std::fs::write(dest, format!("{json}\n"))
                .map_err(|e| format!("cannot write {dest}: {e}"))?;
        }
    }
    if summary.passed() {
        Ok(human)
    } else {
        Err(human)
    }
}

/// The `somrm-tool serve` model resolver: inline text is parsed
/// directly (the server passes every text it reads this way), a
/// `model_file` path is read by [`somrm_serve::read_model_file`],
/// relative to the working directory and capped like an inline model.
/// Impulse models are rejected: a plan can solve them
/// ([`SolvePlan::build_impulse`]), but serve's `ModelResolver` hands the
/// plan cache a bare `SecondOrderMrm`, which has no place for the
/// impulse matrix.
///
/// # Errors
///
/// A human-readable message; the serve loop wraps it in a per-request
/// error response.
pub fn resolve_model_spec(spec: &somrm_serve::ModelSpec) -> Result<somrm_core::model::SecondOrderMrm, String> {
    let file;
    let text = match spec {
        somrm_serve::ModelSpec::Inline(text) => text,
        somrm_serve::ModelSpec::File(path) => {
            file = somrm_serve::read_model_file(path)?;
            &file
        }
    };
    let parsed = parse_model(text).map_err(|e| e.to_string())?;
    if parsed.has_impulses() {
        return Err(
            "impulse models are not served (the serve resolver carries rate rewards only)"
                .to_string(),
        );
    }
    Ok(parsed.model)
}

/// How `serve --stats-out` serializes the end-of-run [`ServeStats`]
/// snapshot.
///
/// [`ServeStats`]: somrm_obs::ServeStats
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsFormat {
    /// The sideband `{"cmd":"stats"}` JSON object (plus a newline).
    #[default]
    Json,
    /// Prometheus text exposition format (counters, latency
    /// histograms in seconds) via [`somrm_obs::write_prometheus`].
    Prom,
}

impl std::str::FromStr for StatsFormat {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(StatsFormat::Json),
            "prom" | "prometheus" => Ok(StatsFormat::Prom),
            other => Err(format!("unknown stats format '{other}' (expected json or prom)")),
        }
    }
}

/// The `somrm-tool serve` telemetry flags.
#[derive(Debug, Clone, Default)]
pub struct ServeTelemetryOpts {
    /// `--stats-out PATH`: write the final stats snapshot here on exit
    /// (`-` is rejected — stdout belongs to the response protocol).
    pub stats_out: Option<String>,
    /// `--stats-format json|prom`.
    pub stats_format: StatsFormat,
    /// `--slow-trace-dir DIR`: capture per-request Chrome traces here.
    pub slow_trace_dir: Option<String>,
    /// `--slow-ms T`: capture threshold in milliseconds (`0` captures
    /// every request).
    pub slow_ms: u64,
}

/// `somrm serve`: long-running JSON-lines service on stdin/stdout (see
/// `somrm-serve` for the protocol). Responses go straight to stdout as
/// they are produced; the returned string is the exit summary, which
/// [`main`](crate) prints — callers route it to stderr-adjacent use.
///
/// With `--metrics PATH`, cache and solver counters accumulated over
/// the whole run are emitted as a `"serve"` [`SolveReport`]; with
/// `--stats-out PATH`, the request-level [`somrm_obs::ServeStats`]
/// snapshot is written on exit in `--stats-format` (JSON or Prometheus
/// text). Both reject `-`: stdout carries the response protocol, and a
/// report interleaved into it would corrupt the stream a client is
/// parsing — the live alternative is the in-band `{"cmd":"stats"}`
/// sideband.
///
/// # Errors
///
/// Only I/O failures on stdout (or the report destinations) — bad
/// requests are answered in-protocol, never fatal.
pub fn cmd_serve(
    cache_size: usize,
    cache_bytes: Option<u64>,
    tel_opts: &ServeTelemetryOpts,
    opts: &CommonOpts,
) -> Result<String, String> {
    if opts.metrics.as_deref() == Some("-") {
        return Err("serve: --metrics - would interleave the report with the response \
                    protocol on stdout; write it to a file (--metrics report.json) or \
                    query the live sideband ({\"cmd\":\"stats\"}) instead"
            .to_string());
    }
    if tel_opts.stats_out.as_deref() == Some("-") {
        return Err("serve: --stats-out - would interleave the snapshot with the response \
                    protocol on stdout; use a file path or the sideband {\"cmd\":\"stats\"}"
            .to_string());
    }
    let slow_trace = match &tel_opts.slow_trace_dir {
        None => None,
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("serve: cannot create --slow-trace-dir {dir}: {e}"))?;
            Some(somrm_serve::SlowTraceOptions {
                dir: std::path::PathBuf::from(dir),
                slow_ms: tel_opts.slow_ms,
            })
        }
    };
    let tel = opts.telemetry();
    let rec = tel.rec().clone();
    let options = somrm_serve::ServeOptions {
        solver: opts.solver_config(&rec)?,
        cache_capacity: cache_size,
        cache_bytes,
        slow_trace,
        ..somrm_serve::ServeOptions::default()
    };
    let mut stdout = std::io::stdout().lock();
    let summary = somrm_serve::serve(std::io::stdin(), &mut stdout, &resolve_model_spec, &options)
        .map_err(|e| format!("serve: stdout write failed: {e}"))?;
    drop(stdout);
    // The summary goes to stderr: stdout is the response stream, and a
    // consumer piping it must see protocol lines only. A closed stderr
    // loses the summary, nothing else.
    let _ = writeln!(
        std::io::stderr(),
        "serve: {} requests in {} batches — {} ok, {} errors, {} cmds; plan cache {} hits / {} misses / {} evictions ({} bytes evicted); series {} hits / {} resumes / {} builds / {} evictions",
        summary.requests,
        summary.batches,
        summary.ok,
        summary.errors,
        summary.cmds,
        summary.cache.hits,
        summary.cache.misses,
        summary.cache.evictions,
        summary.cache.evict_bytes,
        summary.projection.hits,
        summary.projection.resumes,
        summary.projection.builds,
        summary.projection.evictions,
    );
    if let Some(path) = &tel_opts.stats_out {
        let snap = options.stats.snapshot();
        let text = match tel_opts.stats_format {
            StatsFormat::Json => format!("{}\n", snap.to_json()),
            StatsFormat::Prom => somrm_obs::write_prometheus(&snap.to_metrics_snapshot()),
        };
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    emit(opts, &tel, "serve", None, String::new())
}

fn fmt_bytes_human(b: f64) -> String {
    const KIB: f64 = 1024.0;
    if b >= KIB * KIB * KIB {
        format!("{:.2} GiB", b / (KIB * KIB * KIB))
    } else if b >= KIB * KIB {
        format!("{:.2} MiB", b / (KIB * KIB))
    } else if b >= KIB {
        format!("{:.1} KiB", b / KIB)
    } else {
        format!("{b:.0} B")
    }
}

fn fmt_ns_human(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Renders the memory-ledger object (`mem` in a solve report, or any
/// future stats section with the same `{category: {current, peak}}`
/// shape): one row per touched category, plus the peak-RSS sample.
fn render_mem_section(mem: &somrm_obs::json::Value) -> String {
    use somrm_obs::json::Value;
    let mut out = String::new();
    let _ = writeln!(out, "memory     :");
    if let Value::Obj(entries) = mem {
        for (key, v) in entries {
            if key == "peak_rss_bytes" {
                if let Some(b) = v.as_f64() {
                    let _ = writeln!(out, "  {:<15}: {}", "peak RSS", fmt_bytes_human(b));
                }
                continue;
            }
            let (current, peak) = (
                v.get("current").and_then(Value::as_f64).unwrap_or(0.0),
                v.get("peak").and_then(Value::as_f64).unwrap_or(0.0),
            );
            if peak == 0.0 {
                continue; // untouched category
            }
            let _ = writeln!(
                out,
                "  {key:<15}: {} now, {} peak",
                fmt_bytes_human(current),
                fmt_bytes_human(peak)
            );
        }
    }
    out
}

/// A one-line warning naming top-level sections the renderer does not
/// know, or `None` when everything was recognized. Unknown sections
/// are skipped, never fatal — a snapshot from a newer somrm-tool must
/// still render — but silently dropping them would hide data.
fn unknown_sections_warning(v: &somrm_obs::json::Value, known: &[&str]) -> Option<String> {
    use somrm_obs::json::Value;
    let Value::Obj(entries) = v else { return None };
    let unknown: Vec<&str> = entries
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| !known.contains(k))
        .collect();
    if unknown.is_empty() {
        None
    } else {
        Some(format!(
            "warning: ignoring unknown section{} {} (snapshot from a newer somrm-tool?)",
            if unknown.len() == 1 { "" } else { "s" },
            unknown.join(", ")
        ))
    }
}

fn render_stats_human(stats: &somrm_obs::json::Value) -> Option<String> {
    use somrm_obs::json::Value;
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64);
    let requests = num(stats, "requests")?;
    let ok = num(stats, "ok")?;
    let batches = num(stats, "batches")?;
    let mut out = String::new();
    let _ = writeln!(out, "requests   : {requests:.0} ({ok:.0} ok) in {batches:.0} batches");
    if let Some(Value::Obj(kinds)) = stats.get("errors") {
        if kinds.is_empty() {
            let _ = writeln!(out, "errors     : none");
        } else {
            let parts: Vec<String> = kinds
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| format!("{k} {n:.0}")))
                .collect();
            let _ = writeln!(out, "errors     : {}", parts.join(", "));
        }
    }
    if let Some(cache) = stats.get("cache") {
        let rate = match cache.get("hit_rate").and_then(Value::as_f64) {
            Some(r) => format!("{:.1}% hit rate", r * 100.0),
            None => "no lookups".to_string(),
        };
        let _ = writeln!(
            out,
            "plan cache : {:.0} hits / {:.0} misses / {:.0} evictions ({rate})",
            num(cache, "hits").unwrap_or(0.0),
            num(cache, "misses").unwrap_or(0.0),
            num(cache, "evictions").unwrap_or(0.0),
        );
        // Byte accounting arrived with the byte-aware cache; older
        // snapshots lack the keys and keep the short row.
        if let (Some(resident), Some(evicted)) =
            (num(cache, "resident_bytes"), num(cache, "evict_bytes"))
        {
            let _ = writeln!(
                out,
                "             {} resident, {} evicted over the run",
                fmt_bytes_human(resident),
                fmt_bytes_human(evicted)
            );
        }
        // The series counters arrived with weighted serve queries.
        if let Some(proj) = cache.get("projection") {
            let _ = writeln!(
                out,
                "projections: {:.0} hits / {:.0} resumes / {:.0} builds / {:.0} evictions, {} resident",
                num(proj, "hits").unwrap_or(0.0),
                num(proj, "resumes").unwrap_or(0.0),
                num(proj, "builds").unwrap_or(0.0),
                num(proj, "evictions").unwrap_or(0.0),
                fmt_bytes_human(num(proj, "resident_bytes").unwrap_or(0.0)),
            );
        }
    }
    if let Some(mem) = stats.get("mem") {
        if !matches!(mem, Value::Null) {
            out.push_str(&render_mem_section(mem));
        }
    }
    let latency = stats.get("latency")?;
    let _ = writeln!(
        out,
        "latency    : {:>8} {:>10} {:>10} {:>10} {:>10}",
        "count", "mean", "p50", "p99", "max"
    );
    for phase in ["total", "queue", "plan", "execute", "slice"] {
        let Some(t) = latency.get(phase) else { continue };
        let count = num(t, "count").unwrap_or(0.0);
        // Empty windows carry no percentile keys (a 0 would read as
        // "instant", not "no data"); render the absence.
        let cell = |key: &str| num(t, key).map_or_else(|| "-".to_string(), fmt_ns_human);
        let max = if count > 0.0 { cell("max_ns") } else { "-".to_string() };
        let _ = writeln!(
            out,
            "  {phase:<9}: {count:>8.0} {:>10} {:>10} {:>10} {max:>10}",
            cell("mean_ns"),
            cell("p50_ns"),
            cell("p99_ns"),
        );
    }
    if let Some(Value::Obj(models)) = stats.get("models") {
        if !models.is_empty() {
            let _ = writeln!(out, "models     :");
            for (digest, m) in models {
                let p99 = m
                    .get("latency")
                    .and_then(|l| l.get("p99_ns"))
                    .and_then(Value::as_f64)
                    .map_or_else(|| "-".to_string(), fmt_ns_human);
                let _ = writeln!(
                    out,
                    "  {digest}  {:>6.0} requests ({:.0} ok, {:.0} errors)  p99 {p99}",
                    num(m, "requests").unwrap_or(0.0),
                    num(m, "ok").unwrap_or(0.0),
                    num(m, "errors").unwrap_or(0.0),
                );
            }
        }
    }
    if let Some(warning) = unknown_sections_warning(
        stats,
        &["requests", "ok", "batches", "errors", "cache", "latency", "models", "mem"],
    ) {
        let _ = writeln!(out, "{warning}");
    }
    Some(out)
}

/// Renders a `--metrics` solve report: the headline solver facts, the
/// stage timings and the memory section the ledger recorded, with a
/// one-line warning for any section this renderer does not know.
fn render_report_human(report: &somrm_obs::json::Value) -> Option<String> {
    use somrm_obs::json::Value;
    let command = report.get("command")?.as_str()?;
    let num = |key: &str| report.get(key).and_then(Value::as_f64);
    let mut out = String::new();
    let _ = writeln!(out, "command    : {command}");
    if let (Some(g), Some(bound)) = (num("G"), num("error_bound")) {
        let _ = writeln!(out, "solver     : G = {g:.0}, error bound {bound:.2e}");
    }
    if let (Some(n), Some(threads)) = (num("n_states"), num("threads")) {
        let _ = writeln!(out, "model      : {n:.0} states, {threads:.0} threads");
    }
    // One line per horizon: where its Poisson window sits in 0..=G and
    // what the left edge adds to the truncation bound.
    for p in report.get("poisson").and_then(Value::as_array).unwrap_or(&[]) {
        let get = |key: &str| p.get(key).and_then(Value::as_f64);
        if let (Some(t), Some(kept), Some(left), Some(trimmed)) = (
            get("t"),
            get("weights_kept"),
            get("weights_left_skipped"),
            get("weights_trimmed"),
        ) {
            let _ = write!(
                out,
                "poisson    : t = {t}: {kept:.0} weights kept, {left:.0} left of the window, \
                 {trimmed:.0} trimmed"
            );
            if let Some(bound) = get("left_error_bound") {
                let _ = write!(out, ", left bound {bound:.2e}");
            }
            out.push('\n');
        }
    }
    if let Some(Value::Obj(stages)) = report.get("stages") {
        let _ = writeln!(out, "stages     :");
        let width = stages.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
        for (name, t) in stages {
            let ns = |key: &str| t.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {name:<width$} : {:.0} runs, {} total, p50 {}, p99 {}",
                ns("count"),
                fmt_ns_human(ns("total_ns")),
                fmt_ns_human(ns("p50_ns")),
                fmt_ns_human(ns("p99_ns")),
            );
        }
    }
    match report.get("mem") {
        Some(mem) if !matches!(mem, Value::Null) => out.push_str(&render_mem_section(mem)),
        _ => {
            let _ = writeln!(out, "memory     : (no ledger in this report)");
        }
    }
    if let Some(warning) = unknown_sections_warning(
        report,
        &[
            "command", "q", "d", "qt", "shift", "G", "max_iterations", "epsilon", "order",
            "n_states", "n_times", "threads", "error_bound", "error_bounds",
            "poisson", "pool", "health", "mem", "stages", "counters", "gauges",
        ],
    ) {
        let _ = writeln!(out, "{warning}");
    }
    Some(out)
}

/// `somrm stats <file>`: pretty-prints a serve statistics snapshot —
/// either the file written by `serve --stats-out` (JSON format) or a
/// captured sideband `{"cmd":"stats"}` response line (the `stats`
/// member is unwrapped automatically) — or a `--metrics` solve report,
/// recognized by its `command` key, rendering the memory section.
///
/// # Errors
///
/// Unreadable files, non-JSON content, and JSON without the stats keys
/// all produce readable messages.
pub fn cmd_stats(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = somrm_obs::json::parse(text.trim())
        .map_err(|e| format!("{path}: not a stats JSON document: {e}"))?;
    if v.get("command").is_some() {
        return render_report_human(&v)
            .ok_or_else(|| format!("{path}: malformed solve report (non-string command)"));
    }
    let stats = v.get("stats").unwrap_or(&v);
    render_stats_human(stats).ok_or_else(|| {
        format!(
            "{path}: missing stats keys (expected a serve --stats-out snapshot, \
             a captured {{\"cmd\":\"stats\"}} response, or a --metrics solve report)"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::parse_model;

    const MODEL: &str = "states 2\nrate 0 1 1.0\nrate 1 0 2.0\nreward 0 0.0 0.0\nreward 1 3.0 1.0\n";

    fn parsed() -> ParsedModel {
        parse_model(MODEL).unwrap()
    }

    #[test]
    fn check_reports_structure() {
        let out = cmd_check(&parsed(), &CommonOpts::default()).unwrap();
        assert!(out.contains("states            : 2"));
        assert!(out.contains("second"));
        assert!(out.contains("long-run rate     : 1"));
    }

    #[test]
    fn moments_prints_all_orders() {
        let out = cmd_moments(&parsed(), 3, &CommonOpts::default()).unwrap();
        assert!(out.contains("E[B^0]"));
        assert!(out.contains("E[B^3]"));
        assert!(out.contains("skewness"));
    }

    #[test]
    fn bounds_produces_monotone_envelope() {
        let out = cmd_bounds(&parsed(), 12, 9, &CommonOpts::default()).unwrap();
        assert!(out.contains("lower"));
        // Crude sanity: at least 9 data lines.
        assert!(out.lines().count() >= 11);
    }

    #[test]
    fn simulate_agrees_with_moments() {
        let opts = CommonOpts::default();
        let exact = solve(&parsed(), 1, &opts, &RecorderHandle::disabled())
            .unwrap()
            .mean();
        let out = cmd_simulate(&parsed(), 1, 20_000, 1, &opts).unwrap();
        // Extract E[B^1] from the printed line.
        let line = out.lines().find(|l| l.starts_with("E[B^1]")).unwrap();
        let val: f64 = line
            .split('=')
            .nth(1)
            .unwrap()
            .split("+-")
            .next()
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!((val - exact).abs() < 0.05, "{val} vs {exact}");
    }

    #[test]
    fn sweep_outputs_monotone_mean() {
        let out = cmd_sweep(&parsed(), 10, None, &CommonOpts::default()).unwrap();
        let means: Vec<f64> = out
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(means.len(), 10);
        // Non-negative drifts: the mean grows with t.
        for w in means.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn normalize_grid_sorts_dedups_and_reports() {
        let mut g = vec![0.5, 0.1, 0.5, 0.3];
        let note = normalize_grid("test", &mut g).unwrap();
        assert_eq!(g, vec![0.1, 0.3, 0.5]);
        assert!(note.contains("sorted"), "{note}");
        assert!(note.contains("1 duplicate point"), "{note}");

        let mut ok = vec![0.1, 0.2, 0.3];
        assert_eq!(normalize_grid("test", &mut ok), None);
        assert_eq!(ok, vec![0.1, 0.2, 0.3]);

        // Degenerate all-equal grid collapses to one point.
        let mut flat = vec![0.25; 6];
        let note = normalize_grid("test", &mut flat).unwrap();
        assert_eq!(flat, vec![0.25]);
        assert!(note.contains("5 duplicate points"), "{note}");
    }

    #[test]
    fn sweep_accepts_unsorted_duplicate_times() {
        // Before the grid normalization fix this was rejected by the
        // solver's strictly-increasing-times validation.
        let out = cmd_sweep(
            &parsed(),
            20,
            Some(&[0.5, 0.1, 0.5, 0.3]),
            &CommonOpts::default(),
        )
        .unwrap();
        let ts: Vec<f64> = out
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(ts, vec![0.1, 0.3, 0.5], "sorted, deduped, in output order");
    }

    #[test]
    fn sweep_degenerate_all_equal_grid_collapses_to_one_row() {
        // `--t 0` generates an all-zero grid; it must collapse to a
        // single t=0 row instead of erroring on duplicate time points.
        let opts = CommonOpts {
            t: 0.0,
            ..CommonOpts::default()
        };
        let out = cmd_sweep(&parsed(), 10, None, &opts).unwrap();
        assert_eq!(out.lines().count(), 2, "header + one row:\n{out}");
        assert!(out.lines().nth(1).unwrap().starts_with("0,"));

        // Same via an explicit all-equal --times list.
        let out = cmd_sweep(&parsed(), 20, Some(&[0.4; 5]), &CommonOpts::default()).unwrap();
        assert_eq!(out.lines().count(), 2, "header + one row:\n{out}");
    }

    #[test]
    fn sweep_rejects_bad_explicit_times() {
        let opts = CommonOpts::default();
        assert!(cmd_sweep(&parsed(), 20, Some(&[]), &opts).is_err());
        assert!(cmd_sweep(&parsed(), 20, Some(&[0.1, -0.5]), &opts).is_err());
        assert!(cmd_sweep(&parsed(), 20, Some(&[f64::NAN]), &opts).is_err());
    }

    #[test]
    fn serve_resolver_parses_inline_and_rejects_impulses() {
        let m = resolve_model_spec(&somrm_serve::ModelSpec::Inline(MODEL.to_string())).unwrap();
        assert_eq!(m.n_states(), 2);
        let imp = "states 2\nrate 0 1 1.0\nrate 1 0 1.0\nimpulse 0 1 1.0\n";
        let err =
            resolve_model_spec(&somrm_serve::ModelSpec::Inline(imp.to_string())).unwrap_err();
        assert!(err.contains("impulse"), "{err}");
        let err = resolve_model_spec(&somrm_serve::ModelSpec::File(
            "/nonexistent/model.somrm".to_string(),
        ))
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn serve_answers_around_a_hostile_state_count() {
        // A 45-byte request asking for 10^13 states used to abort the
        // process in the allocator; now it gets its own error response
        // and both neighbours are answered.
        let good = format!(r#"{{"id":0,"model":{:?},"t":0.5}}"#, MODEL);
        let hostile = r#"{"id":1,"model":"states 10000000000000\n","t":1}"#;
        let input = format!(
            "{good}\n{hostile}\n{}\n",
            good.replace("\"id\":0", "\"id\":2")
        );
        let mut out = Vec::new();
        let summary = somrm_serve::serve(
            std::io::Cursor::new(input),
            &mut out,
            &resolve_model_spec,
            &somrm_serve::ServeOptions::default(),
        )
        .unwrap();
        assert_eq!((summary.ok, summary.errors), (2, 1));
        let lines: Vec<somrm_obs::json::Value> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| somrm_obs::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        let ok: Vec<bool> = lines
            .iter()
            .map(|v| v.get("ok") == Some(&somrm_obs::json::Value::Bool(true)))
            .collect();
        assert_eq!(ok, [true, false, true]);
        let err = lines[1].get("error").and_then(|e| e.as_str()).unwrap();
        assert!(err.contains("exceeds the limit"), "{err}");
    }

    #[test]
    fn serve_refuses_an_overflowing_exit_rate() {
        // Two rates of 1e308 out of state 0 sum to an infinite exit
        // rate; this used to answer moments [1, 0, 0] with bounds 0.
        let request = r#"{"id":1,"model":"states 3\nrate 0 1 1e308\nrate 0 2 1e308\nrate 1 0 1\nrate 2 0 1\nreward 0 1 0\nreward 1 2 1\n","t":1,"order":2}"#;
        let mut out = Vec::new();
        let summary = somrm_serve::serve(
            std::io::Cursor::new(format!("{request}\n")),
            &mut out,
            &resolve_model_spec,
            &somrm_serve::ServeOptions::default(),
        )
        .unwrap();
        assert_eq!((summary.ok, summary.errors), (0, 1));
        let out = String::from_utf8(out).unwrap();
        let response = somrm_obs::json::parse(out.trim_end()).unwrap();
        assert_eq!(
            response.get("ok"),
            Some(&somrm_obs::json::Value::Bool(false))
        );
        let err = response.get("error").and_then(|e| e.as_str()).unwrap();
        assert!(
            err.contains("exit rate inf of state 0 is not finite"),
            "{err}"
        );
    }

    #[test]
    fn sweep_impulse_route() {
        let p = parse_model("states 2\nrate 0 1 2.0\nrate 1 0 2.0\nimpulse 0 1 1.0\n").unwrap();
        let out = cmd_sweep(&p, 5, None, &CommonOpts::default()).unwrap();
        assert_eq!(out.lines().count(), 6);
    }

    #[test]
    fn impulse_sweep_points_agree_with_moments_within_both_bounds() {
        // One plan execute covers the whole grid (G of the last point);
        // each row must match a separate solve at its own t to within
        // the two reported order-1 truncation bounds.
        let p = parse_model(
            "states 2\nrate 0 1 2.0\nrate 1 0 3.0\nreward 0 1.0 0.5\nreward 1 -2.0 1.0\n\
             impulse 0 1 1.5\nimpulse 1 0 0.5\n",
        )
        .unwrap();
        let path =
            std::env::temp_dir().join(format!("somrm-impulse-sweep-{}.json", std::process::id()));
        let opts = CommonOpts {
            t: 3.0,
            metrics: Some(path.display().to_string()),
            ..CommonOpts::default()
        };
        let out = cmd_sweep(&p, 6, None, &opts).unwrap();
        let report = somrm_obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            report.get("command").and_then(|c| c.as_str()),
            Some("impulse")
        );
        let sweep_bound = report
            .get("error_bounds")
            .and_then(|b| b.as_array())
            .unwrap()[1]
            .as_f64()
            .unwrap();
        assert_eq!(out.lines().count(), 7, "{out}");
        for row in out.lines().skip(1) {
            let cols: Vec<f64> = row.split(',').map(|c| c.parse().unwrap()).collect();
            let (t, mean) = (cols[0], cols[1]);
            let at_t = CommonOpts {
                t,
                ..CommonOpts::default()
            };
            let sol = solve(&p, 2, &at_t, &RecorderHandle::disabled()).unwrap();
            assert!(
                (mean - sol.mean()).abs() <= sweep_bound + sol.error_bound(1),
                "t = {t}: sweep {mean} vs moments {} (bounds {sweep_bound:e} + {:e})",
                sol.mean(),
                sol.error_bound(1)
            );
        }
    }

    #[test]
    fn check_reports_the_long_run_rate_of_a_large_birth_death_chain() {
        // 100,001 states: dense GTH would allocate 80 GB; the tridiagonal
        // generator takes the O(n) product form instead.
        let n = 100_001;
        let mut text = format!("states {n}\nreward 0 1.0 0.0\n");
        for i in 0..n - 1 {
            let _ = writeln!(text, "rate {i} {} 1.0\nrate {} {i} 2.0", i + 1, i + 1);
        }
        let out = cmd_check(&parse_model(&text).unwrap(), &CommonOpts::default()).unwrap();
        let rate: f64 = out
            .lines()
            .find_map(|l| l.strip_prefix("long-run rate     : "))
            .unwrap()
            .parse()
            .unwrap();
        // Only state 0 earns: the rate is π₀ = (1 − ρ)/(1 − ρⁿ), ρ = ½.
        assert!((rate - 0.5).abs() < 1e-12, "{out}");
    }

    #[test]
    fn check_refuses_dense_gth_past_its_cap_with_its_own_message() {
        // A ring is irreducible but not tridiagonal.
        let n = DENSE_GTH_MAX_STATES + 1;
        let mut text = format!("states {n}\n");
        for i in 0..n {
            let _ = writeln!(text, "rate {i} {} 1.0", (i + 1) % n);
        }
        let out = cmd_check(&parse_model(&text).unwrap(), &CommonOpts::default()).unwrap();
        assert!(out.contains("too large for dense GTH"), "{out}");
        assert!(!out.contains("not irreducible"), "{out}");
        // Reducible chains keep their own message.
        let out = cmd_check(
            &parse_model("states 3\nrate 0 1 1.0\nrate 1 2 1.0\n").unwrap(),
            &CommonOpts::default(),
        )
        .unwrap();
        assert!(out.contains("(chain not irreducible)"), "{out}");
    }

    #[test]
    fn density_rejects_impulse_models() {
        let with_imp =
            parse_model("states 2\nrate 0 1 1.0\nrate 1 0 1.0\nimpulse 0 1 1.0\n").unwrap();
        assert!(cmd_density(&with_imp, 10, &CommonOpts::default()).is_err());
    }

    #[test]
    fn density_outputs_grid() {
        let out = cmd_density(&parsed(), 11, &CommonOpts::default()).unwrap();
        assert_eq!(out.lines().count(), 12);
    }

    #[test]
    fn points_guard_is_uniform_across_grid_commands() {
        let opts = CommonOpts::default();
        for n in [0usize, 1] {
            assert!(cmd_bounds(&parsed(), 12, n, &opts).is_err(), "bounds --points {n}");
            assert!(cmd_density(&parsed(), n, &opts).is_err(), "density --points {n}");
            assert!(cmd_sweep(&parsed(), n, None, &opts).is_err(), "sweep --points {n}");
        }
    }

    #[test]
    fn metrics_stdout_replaces_output_with_json() {
        let opts = CommonOpts {
            metrics: Some("-".to_string()),
            ..CommonOpts::default()
        };
        let out = cmd_moments(&parsed(), 3, &opts).unwrap();
        let v = somrm_obs::json::parse(&out).expect("valid JSON");
        assert_eq!(v.get("command").and_then(|c| c.as_str()), Some("moments"));
        assert!(v.get("G").and_then(|g| g.as_f64()).unwrap() > 0.0);
        assert!(v.get("error_bound").and_then(|b| b.as_f64()).unwrap() < 1e-9);
        assert_eq!(v.get("threads").and_then(|t| t.as_f64()), Some(1.0));
    }

    #[test]
    fn metrics_file_keeps_human_output() {
        let path = std::env::temp_dir().join("somrm-cli-metrics-test.json");
        let opts = CommonOpts {
            metrics: Some(path.display().to_string()),
            ..CommonOpts::default()
        };
        let out = cmd_moments(&parsed(), 2, &opts).unwrap();
        assert!(out.contains("E[B^1]"), "human output preserved");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let v = somrm_obs::json::parse(&text).expect("valid JSON file");
        assert_eq!(v.get("command").and_then(|c| c.as_str()), Some("moments"));
    }

    #[test]
    fn metrics_without_solver_emits_null_solver_fields() {
        let opts = CommonOpts {
            metrics: Some("-".to_string()),
            ..CommonOpts::default()
        };
        let out = cmd_check(&parsed(), &opts).unwrap();
        let v = somrm_obs::json::parse(&out).expect("valid JSON");
        assert_eq!(v.get("command").and_then(|c| c.as_str()), Some("check"));
        assert!(matches!(v.get("G"), Some(somrm_obs::json::Value::Null)));
    }

    #[test]
    fn trace_out_writes_chrome_trace_json() {
        let path = std::env::temp_dir().join("somrm-cli-trace-test.json");
        let opts = CommonOpts {
            trace_out: Some(path.display().to_string()),
            ..CommonOpts::default()
        };
        let out = cmd_moments(&parsed(), 2, &opts).unwrap();
        assert!(out.contains("E[B^1]"), "human output preserved");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let v = somrm_obs::json::parse(&text).expect("valid trace JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("solve.recursion")),
            "timeline carries the recursion span"
        );
    }

    #[test]
    fn verify_metrics_stdout_emits_counters() {
        let out = cmd_verify(2, 5, None, Some("-".to_string())).unwrap();
        let v = somrm_obs::json::parse(&out).expect("valid JSON");
        assert_eq!(v.get("command").and_then(|c| c.as_str()), Some("verify"));
        let counters = v.get("counters").unwrap();
        assert_eq!(
            counters.get("verify.cases").and_then(|c| c.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            counters.get("verify.passed").and_then(|c| c.as_f64()),
            Some(2.0)
        );
        assert!(
            v.get("stages").unwrap().get("verify.case").is_some(),
            "per-case wall time recorded"
        );
    }

    #[test]
    fn serve_rejects_stdout_metrics_with_a_hint() {
        // Regression: `serve --metrics -` used to write the JSON report
        // to stdout after the run — interleaved with the response
        // protocol a client was parsing. It must be rejected up front
        // (before stdin is touched), pointing at the alternatives.
        let opts = CommonOpts {
            metrics: Some("-".to_string()),
            ..CommonOpts::default()
        };
        let err = cmd_serve(8, None, &ServeTelemetryOpts::default(), &opts).unwrap_err();
        assert!(err.contains("--metrics -"), "{err}");
        assert!(err.contains("stdout"), "{err}");
        assert!(err.contains("cmd"), "hint at the sideband: {err}");

        // Same guard for --stats-out.
        let tel = ServeTelemetryOpts {
            stats_out: Some("-".to_string()),
            ..ServeTelemetryOpts::default()
        };
        let err = cmd_serve(8, None, &tel, &CommonOpts::default()).unwrap_err();
        assert!(err.contains("--stats-out -"), "{err}");
    }

    #[test]
    fn stats_format_parses_known_names_only() {
        assert_eq!("json".parse::<StatsFormat>(), Ok(StatsFormat::Json));
        assert_eq!("prom".parse::<StatsFormat>(), Ok(StatsFormat::Prom));
        assert_eq!("prometheus".parse::<StatsFormat>(), Ok(StatsFormat::Prom));
        assert!("yaml".parse::<StatsFormat>().is_err());
    }

    #[test]
    fn stats_pretty_prints_snapshots_and_sideband_captures() {
        use somrm_obs::{RequestLatency, ServeStats};
        let stats = ServeStats::new();
        for i in 0..5u64 {
            stats.record_request(
                Some(0xabc),
                None,
                &RequestLatency {
                    queue_ns: 100,
                    plan_ns: 200,
                    execute_ns: 1_000 * (i + 1),
                    slice_ns: 50,
                    total_ns: 2_000_000 * (i + 1),
                },
            );
        }
        stats.record_request(None, Some("parse"), &RequestLatency::default());
        stats.record_batch();
        stats.record_cache_delta(3, 2, 1, 4_096);
        stats.record_cache_resident(65_536);
        stats.record_projection_delta(4, 1, 2, 0);
        stats.record_projection_resident(8_192);
        let snap = stats.snapshot();

        // The raw --stats-out file form.
        let path = std::env::temp_dir().join("somrm-cli-stats-test.json");
        std::fs::write(&path, format!("{}\n", snap.to_json())).unwrap();
        let out = cmd_stats(&path.display().to_string()).unwrap();
        assert!(out.contains("requests   : 6 (5 ok)"), "{out}");
        assert!(out.contains("parse 1"), "{out}");
        assert!(out.contains("3 hits / 2 misses / 1 evictions"), "{out}");
        assert!(out.contains("60.0% hit rate"), "{out}");
        assert!(out.contains("64.0 KiB resident"), "{out}");
        assert!(out.contains("4.0 KiB evicted"), "{out}");
        assert!(
            out.contains("4 hits / 1 resumes / 2 builds / 0 evictions, 8.0 KiB resident"),
            "{out}"
        );
        assert!(!out.contains("warning:"), "all sections known: {out}");
        assert!(out.contains("total"), "{out}");
        assert!(out.contains("ms"), "human units: {out}");
        assert!(out.contains("0000000000000abc"), "per-model row: {out}");

        // The captured sideband response form unwraps `stats`.
        std::fs::write(
            &path,
            format!("{{\"id\":null,\"ok\":true,\"cmd\":\"stats\",\"stats\":{}}}\n", snap.to_json()),
        )
        .unwrap();
        let wrapped = cmd_stats(&path.display().to_string()).unwrap();
        assert_eq!(out, wrapped, "both forms render identically");

        // An empty window renders dashes, not fake zero percentiles.
        std::fs::write(&path, format!("{}\n", ServeStats::new().snapshot().to_json())).unwrap();
        let empty = cmd_stats(&path.display().to_string()).unwrap();
        assert!(empty.contains('-'), "{empty}");
        assert!(empty.contains("no lookups"), "{empty}");

        // Garbage errors readably.
        std::fs::write(&path, "not json").unwrap();
        assert!(cmd_stats(&path.display().to_string()).is_err());
        std::fs::write(&path, "{\"unrelated\": true}").unwrap();
        let err = cmd_stats(&path.display().to_string()).unwrap_err();
        assert!(err.contains("missing stats keys"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn events_out_streams_a_parseable_log_and_preserves_output() {
        let path = std::env::temp_dir().join("somrm-cli-events-test.jsonl");
        let opts = CommonOpts {
            events_out: Some(path.display().to_string()),
            ..CommonOpts::default()
        };
        let logged = cmd_moments(&parsed(), 2, &opts).unwrap();
        let bare = cmd_moments(&parsed(), 2, &CommonOpts::default()).unwrap();
        assert_eq!(logged, bare, "event logging must not change results");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let events = somrm_obs::Event::parse_lines(&text).expect("strict parse");
        assert_eq!(events.first().map(somrm_obs::Event::kind), Some("solve.start"));
        assert_eq!(events.last().map(somrm_obs::Event::kind), Some("complete"));
        assert!(events.iter().any(|e| e.kind() == "progress"), "{text}");
        assert!(events.iter().any(|e| e.kind() == "plan.resolved"), "{text}");
    }

    #[test]
    fn events_out_to_an_unwritable_path_errors_readably() {
        let opts = CommonOpts {
            events_out: Some("/nonexistent-dir/events.jsonl".to_string()),
            ..CommonOpts::default()
        };
        let err = cmd_moments(&parsed(), 2, &opts).unwrap_err();
        assert!(err.contains("--events-out"), "{err}");
    }

    #[test]
    fn stats_renders_solve_reports_with_memory_section() {
        let path = std::env::temp_dir().join("somrm-cli-report-stats-test.json");
        let opts = CommonOpts {
            metrics: Some(path.display().to_string()),
            ..CommonOpts::default()
        };
        cmd_moments(&parsed(), 2, &opts).unwrap();
        let out = cmd_stats(&path.display().to_string()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(out.contains("command    : moments"), "{out}");
        assert!(out.contains("stages     :"), "{out}");
        let recursion = out.lines().find(|l| l.starts_with("  solve.recursion "));
        assert!(recursion.is_some_and(|l| l.contains(": 1 runs, ")), "{out}");
        assert!(out.contains("memory     :"), "{out}");
        assert!(out.contains("kernel.buffers"), "{out}");
        assert!(out.contains("poisson    : t = "), "{out}");
        assert!(out.contains(", left bound "), "{out}");
        assert!(!out.contains("warning:"), "all report sections known: {out}");
    }

    #[test]
    fn stats_warns_once_on_unknown_sections() {
        let path = std::env::temp_dir().join("somrm-cli-unknown-section-test.json");
        std::fs::write(
            &path,
            "{\"requests\":1,\"ok\":1,\"batches\":1,\"latency\":{},\"frobnicator\":{},\"zetagauge\":3}",
        )
        .unwrap();
        let out = cmd_stats(&path.display().to_string()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(
            out.contains("warning: ignoring unknown sections frobnicator, zetagauge"),
            "{out}"
        );
    }

    #[test]
    fn moments_prints_per_order_bounds() {
        let out = cmd_moments(&parsed(), 3, &CommonOpts::default()).unwrap();
        let bound_lines = out.lines().filter(|l| l.contains("(bound ")).count();
        assert_eq!(bound_lines, 4);
    }

    #[test]
    fn impulse_model_moments_route() {
        let p = parse_model("states 2\nrate 0 1 2.0\nrate 1 0 2.0\nimpulse 0 1 1.0\n").unwrap();
        let out = cmd_moments(&p, 2, &CommonOpts::default()).unwrap();
        assert!(out.contains("E[B^1]"));
        // Mean = E[#(0->1) transitions] = t/2·2 + ... > 0.
        let line = out.lines().find(|l| l.starts_with("mean")).unwrap();
        let val: f64 = line.split('=').nth(1).unwrap().trim().parse().unwrap();
        assert!(val > 0.5);
    }
}
