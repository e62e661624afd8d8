//! Run records, per-layer metrics and the result line.

use crate::stats::{mean, ratio};
use crate::trace::{ExecRec, Phase, Trace};
use somrm_core::uniformization::SolverConfig;
use somrm_linalg::{KernelVariant, MatrixFormat};
use somrm_obs::{EventLogHandle, EventLogRecorder, RecorderHandle, ServeStatsSnapshot, TimingStat};
use std::sync::Arc;

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

const MIB: f64 = 1024.0 * 1024.0;

/// The solver settings of `somrm-tool` without flags, with the kernel
/// variant pinned: `SolverConfig::default()` would read `SOMRM_KERNEL`
/// and let an exported variable change what is measured.
pub fn solver_config() -> SolverConfig {
    SolverConfig {
        epsilon: 1e-9,
        threads: 1,
        format: MatrixFormat::Auto,
        kernel: KernelVariant::Auto,
        ..SolverConfig::default()
    }
}

/// `cfg` with the trace attached as recorder and event-log sink.
pub fn traced(cfg: &SolverConfig, trace: &Arc<Trace>) -> SolverConfig {
    let log = EventLogRecorder::new();
    log.add_sink(Box::new(crate::trace::EventSink::new(trace.clone())));
    SolverConfig {
        recorder: RecorderHandle::new(trace.clone()),
        events: EventLogHandle::new(log),
        ..cfg.clone()
    }
}

/// Prints what was run and where: git revision, kernel, CPU, seed.
pub fn print_header(workload: &str, seed: u64, seconds: f64, trace: bool, cpu: Option<usize>) {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let cfg = solver_config();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {workload}: seed {seed}, {seconds} s measured, trace {}",
        u8::from(trace)
    );
    println!(
        "  git {rev} | kernel {} (resolved {}) | cpu [{}] | nproc {nproc} | pinned to cpu {} | threads {} | eps {:e} | cache 8 plans",
        cfg.kernel,
        cfg.kernel.resolve().name(),
        somrm_linalg::simd::cpu_features(),
        cpu.map_or_else(|| "none".to_string(), |c| c.to_string()),
        cfg.threads,
        cfg.epsilon,
    );
}

/// Inputs to the per-layer metrics that do not come from the trace.
#[derive(Default)]
pub struct LayerInputs {
    /// The traced serve loop's request statistics (measured phase).
    pub serve: Option<ServeStatsSnapshot>,
    pub line_kb: f64,
    /// Wall-clock request latency from the due time (traced phase).
    pub wall_p50_ms: f64,
    pub wall_p95_ms: f64,
    /// Mean time per request the loop thread spent off its CPU clock.
    pub offcpu_ms: f64,
    /// Median CPU time of a calibration slice in the traced phase.
    pub calib_slice_us: f64,
    pub order2_over_order1: f64,
    pub overhead_pct: f64,
    pub late_ms: f64,
    pub sent: u64,
    pub failed: u64,
}

/// Mean kernel-pass time (ns) of executes at `order`.
pub fn pass_ns(execs: &[ExecRec], order: u64) -> f64 {
    let (ns, passes) = execs
        .iter()
        .filter(|e| e.order == order)
        .fold((0, 0), |(a, b), e| (a + e.pass_ns, b + e.passes));
    ratio(ns as f64, passes as f64)
}

fn timing_ms(t: &TimingStat) -> f64 {
    ratio(t.total_ns as f64 / 1e6, t.count as f64)
}

/// Every per-layer metric, from exact span and counter totals (never
/// from histogram percentiles). A layer a workload does not use reads 0.
pub fn layer_metrics(t: &Trace, x: &LayerInputs) -> Vec<Metric> {
    let run = Some(Phase::Run);
    let mean_ns = |phase: Option<Phase>, name: &str| {
        let (c, total) = t.spans(phase, name);
        ratio(total as f64, c as f64)
    };
    let (parses, parse_ns) = t.spans(None, "bench.parse");
    let parse_bytes = t.span_bytes(None, "bench.parse");
    let matrices: Vec<f64> = ["mem.matrix.csr", "mem.matrix.dia", "mem.matrix.operator"]
        .iter()
        .flat_map(|g| t.gauges(g))
        .collect();
    let (hits, misses) = (
        t.counter(Phase::Run, "serve.plan.hit") as f64,
        t.counter(Phase::Run, "serve.plan.miss") as f64,
    );
    let execs = t.execs(Phase::Run);
    let n_exec = execs.len() as f64;
    let sum = |f: &dyn Fn(&ExecRec) -> f64| execs.iter().map(f).sum::<f64>();
    let passes = sum(&|e| e.passes as f64);
    let pass_ns = sum(&|e| e.pass_ns as f64);
    let bytes = sum(&|e| e.computed_bytes());
    let serve = x.serve.clone().unwrap_or_default();
    let requests = serve.requests as f64;
    let times_per_execute = if x.serve.is_some() {
        ratio(sum(&|e| e.n_times as f64), n_exec)
    } else {
        0.0
    };
    vec![
        (
            "format.parse_ms",
            ratio(parse_ns as f64 / 1e6, parses as f64),
            "ms",
        ),
        (
            "format.mb_per_s",
            ratio(parse_bytes as f64 / 1e6, parse_ns as f64 / 1e9),
            "MB/s",
        ),
        (
            "proto.parse_ms",
            mean_ns(Some(Phase::Probe), "bench.parse_request") / 1e6,
            "ms",
        ),
        ("proto.line_kb", x.line_kb, "KB"),
        ("plan.build_ms", mean_ns(None, "solve.setup") / 1e6, "ms"),
        ("plan.builds", t.spans(run, "solve.setup").0 as f64, "count"),
        ("plan.matrix_mb", mean(&matrices) / MIB, "MiB"),
        ("cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        (
            "cache.evictions",
            t.counter(Phase::Run, "serve.plan.evict") as f64,
            "count",
        ),
        (
            "cache.evict_mb",
            t.counter(Phase::Run, "serve.plan.evict_bytes") as f64 / MIB,
            "MiB",
        ),
        ("serve.queue_ms", timing_ms(&serve.queue), "ms"),
        (
            "serve.resolve_ms",
            mean_ns(run, "bench.resolve") / 1e6,
            "ms",
        ),
        ("serve.execute_ms", timing_ms(&serve.execute), "ms"),
        ("serve.slice_ms", timing_ms(&serve.slice), "ms"),
        ("serve.wall_p50_ms", x.wall_p50_ms, "ms"),
        ("serve.wall_p95_ms", x.wall_p95_ms, "ms"),
        ("serve.offcpu_ms", x.offcpu_ms, "ms"),
        (
            "serve.batch_size",
            ratio(requests, serve.batches as f64),
            "count",
        ),
        (
            "serve.executes_per_req",
            ratio(t.counter(Phase::Run, "plan.executes") as f64, requests),
            "ratio",
        ),
        ("serve.times_per_execute", times_per_execute, "count"),
        ("execute.ms", mean_ns(run, "plan.execute") / 1e6, "ms"),
        ("execute.g", ratio(sum(&|e| e.g as f64), n_exec), "count"),
        (
            "truncation.us",
            mean_ns(run, "solve.truncation") / 1e3,
            "us",
        ),
        ("poisson.us", mean_ns(run, "solve.poisson") / 1e3, "us"),
        ("assemble.ms", mean_ns(run, "solve.assemble") / 1e6, "ms"),
        (
            "poisson.kept_per_execute",
            ratio(sum(&|e| e.kept as f64), n_exec),
            "count",
        ),
        ("kernel.pass_us", ratio(pass_ns, passes) / 1e3, "us"),
        (
            "kernel.acc_updates",
            ratio(sum(&|e| e.acc_updates()), n_exec),
            "count",
        ),
        ("kernel.bytes_per_pass", ratio(bytes, passes), "B"),
        ("kernel.gbps", ratio(bytes, pass_ns), "GB/s"),
        ("kernel.order2_over_order1", x.order2_over_order1, "ratio"),
        ("trace.overhead_pct", x.overhead_pct, "%"),
        ("calib.slice_us", x.calib_slice_us, "us"),
        ("driver.late_ms", x.late_ms, "ms"),
        ("driver.sent", x.sent as f64, "count"),
        ("driver.failed", x.failed as f64, "count"),
    ]
}

/// Prints the traced run's per-span table (count, total, self time).
pub fn print_span_summary(t: &Trace) {
    println!("  traced phase, per span name (self = duration minus direct children):");
    println!(
        "    {:<24} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, count, total, own) in t.summary(Phase::Run) {
        println!("    {name:<24} {count:>9} {total:>12.3} {own:>12.3}");
    }
}

/// Prints the metrics table, then the result object as the last line.
pub fn print_result(o: &Outcome) {
    println!("  metrics:");
    for (name, value, unit) in &o.metrics {
        println!("    {name:<26} {value:>14.6} {unit}");
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i > 0 { ", " } else { "" };
        line.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    line.push_str("}}");
    println!("{line}");
}
