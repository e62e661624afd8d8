//! `somrm-tool bench` — the machine-readable perf trajectory.
//!
//! Runs a fixed ladder of solver benchmarks (ON-OFF multiplexer models
//! at 1k/10k/100k states, CSR and DIA storage) and writes one JSON
//! document per run. Two documents from different revisions feed the
//! comparator (`--compare old.json new.json`), which flags per-rung
//! wall-time regressions beyond a percentage threshold — so the perf
//! trajectory of the solver is a series of small files that diff, plot,
//! and gate in CI.
//!
//! The ladder holds `q·t ≈ 2000` on every rung (the uniformization rate
//! of the scaled Table-2 multiplexer is `4N`): the recursion depth is
//! constant across sizes and wall time isolates per-iteration cost,
//! which is what regresses when a kernel changes.

use somrm_core::uniformization::{moments, SolverConfig};
use somrm_linalg::{simd, KernelVariant, MatrixFormat};
use somrm_models::OnOffMultiplexer;
use somrm_obs::{json, MetricsRegistry, MetricsSnapshot, Recorder, RecorderHandle};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Schema tag written into every bench document.
pub const SCHEMA: &str = "somrm-bench-v1";

/// Moment order solved on every rung.
const ORDER: usize = 2;

/// Solver precision on every rung.
const EPSILON: f64 = 1e-9;

/// One rung of the ladder: a model size, a storage format, and a rep
/// count (wall time is the minimum over reps, so noisy machines still
/// produce comparable numbers).
#[derive(Debug, Clone)]
pub struct Rung {
    /// Entry name, the comparator's join key (e.g. `onoff-10k-dia`).
    pub name: String,
    /// Source count `N` of the scaled multiplexer (`N + 1` states).
    pub sources: usize,
    /// Forced iteration-matrix storage.
    pub format: MatrixFormat,
    /// Accumulation time (chosen so `q·t ≈ 2000`).
    pub t: f64,
    /// Solve repetitions; the fastest is reported.
    pub reps: usize,
}

/// The fixed ladder. `quick` drops the 100k-state and 2M-state rungs
/// (CI's debug-friendly tier); the full ladder is meant for release
/// builds.
pub fn standard_ladder(quick: bool) -> Vec<Rung> {
    let sizes: &[(&str, usize, f64, usize)] = &[
        ("1k", 1_000, 0.5, 3),
        ("10k", 10_000, 0.05, 2),
        ("100k", 100_000, 0.005, 1),
    ];
    let formats = [
        ("csr", MatrixFormat::Csr),
        ("dia", MatrixFormat::Dia),
        ("op", MatrixFormat::Operator),
    ];
    let mut rungs = Vec::new();
    for &(label, sources, t, reps) in sizes {
        if quick && sources > 10_000 {
            continue;
        }
        for (fmt_name, format) in formats {
            rungs.push(Rung {
                name: format!("onoff-{label}-{fmt_name}"),
                sources,
                format,
                t,
                reps,
            });
        }
    }
    // The memory-wall rung: 2,000,001 states is far past what CSR or
    // DIA can materialize comfortably, so it runs matrix-free only and
    // only on the full (release-tier) ladder.
    if !quick {
        rungs.push(Rung {
            name: "onoff-2m-op".to_string(),
            sources: 2_000_000,
            format: MatrixFormat::Operator,
            t: 0.000_25,
            reps: 1,
        });
    }
    rungs
}

/// Measured result of one rung.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// The rung's name.
    pub name: String,
    /// CTMC state count.
    pub states: usize,
    /// Storage format label (`csr`/`dia`/`operator`).
    pub format: String,
    /// Accumulation time.
    pub t: f64,
    /// Reps run.
    pub reps: usize,
    /// Recursion depth `G` of the solve.
    pub iterations: u64,
    /// Fastest wall time over the reps, nanoseconds.
    pub wall_ns: u64,
    /// `iterations / wall_seconds` of the fastest rep.
    pub iters_per_sec: f64,
    /// Per-stage total nanoseconds of the fastest rep, from the solve's
    /// metrics snapshot (`solve.setup`, `solve.recursion`, …).
    pub stages: Vec<(String, u64)>,
    /// Serving throughput of the fastest rep (`serve-*` rungs only).
    pub requests_per_sec: Option<f64>,
    /// Median per-request end-to-end latency of the fastest rep
    /// (`serve-*-warm` only; absent elsewhere, like `requests_per_sec`).
    pub latency_p50_ns: Option<u64>,
    /// p99 per-request end-to-end latency of the fastest rep.
    pub latency_p99_ns: Option<u64>,
    /// Exact iteration-matrix bytes of the fastest rep (sum of the
    /// `mem.matrix.*` ledger gauges); absent for serve rungs and for
    /// documents predating the memory ledger.
    pub matrix_bytes: Option<u64>,
    /// OS peak RSS (`VmHWM`) sampled after the rung; absent where the
    /// platform exposes no cheap probe (non-Linux).
    pub peak_rss_bytes: Option<u64>,
}

/// Solves one rung at the given thread count and kernel variant and
/// reports its fastest rep.
///
/// # Errors
///
/// Propagates model-construction and solver errors as readable strings.
pub fn run_rung(rung: &Rung, threads: usize, kernel: KernelVariant) -> Result<BenchEntry, String> {
    let model = OnOffMultiplexer::table2_scaled(rung.sources)
        .model()
        .map_err(|e| format!("{}: {e}", rung.name))?;
    let mut best: Option<(u64, u64, MetricsSnapshot)> = None;
    for _ in 0..rung.reps.max(1) {
        let registry = Arc::new(MetricsRegistry::new());
        let cfg = SolverConfig {
            epsilon: EPSILON,
            format: rung.format,
            threads,
            kernel,
            recorder: RecorderHandle::new(registry.clone() as Arc<dyn Recorder>),
            ..SolverConfig::default()
        };
        let start = Instant::now();
        let sol = moments(&model, ORDER, rung.t, &cfg).map_err(|e| format!("{}: {e}", rung.name))?;
        let wall = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if best.as_ref().is_none_or(|(w, _, _)| wall < *w) {
            best = Some((wall, sol.stats.iterations, registry.snapshot()));
        }
    }
    let (wall_ns, iterations, snapshot) = best.expect("at least one rep");
    let secs = wall_ns as f64 / 1e9;
    // The solve ran with an enabled recorder, so the plan attached a
    // memory ledger and published its exact byte gauges; only one
    // `mem.matrix.*` category is nonzero per rung (the chosen backend).
    let matrix_bytes = {
        let sum: f64 = snapshot
            .gauges
            .iter()
            .filter(|(name, _)| name.starts_with("mem.matrix."))
            .map(|(_, v)| *v)
            .sum();
        (sum > 0.0).then_some(sum as u64)
    };
    Ok(BenchEntry {
        name: rung.name.clone(),
        states: rung.sources + 1,
        format: match rung.format {
            MatrixFormat::Dia => "dia".to_string(),
            MatrixFormat::Operator => "operator".to_string(),
            _ => "csr".to_string(),
        },
        t: rung.t,
        reps: rung.reps,
        iterations,
        wall_ns,
        iters_per_sec: if secs > 0.0 { iterations as f64 / secs } else { 0.0 },
        stages: snapshot
            .timings
            .iter()
            .map(|(name, stat)| (name.clone(), stat.total_ns))
            .collect(),
        requests_per_sec: None,
        latency_p50_ns: None,
        latency_p99_ns: None,
        matrix_bytes,
        peak_rss_bytes: somrm_obs::peak_rss_bytes(),
    })
}

/// Runs the serving rung pair: `n_requests` moment queries against one
/// model, cycling through four shared horizons in the upper half of
/// `(0, t_max]` — the burst shape serving is built for: many clients
/// polling the same few horizons of one model.
///
/// The **cold** entry answers each request with a full per-request
/// solve — plan built from scratch every time — which is what serving
/// looked like before the plan/execute split. The **warm** entry routes
/// the same requests through `serve_batch` against a pre-warmed cache,
/// whose series already cover every horizon, so each request is a plan
/// lookup, a truncation search and a Poisson sum over recorded
/// projections.
/// Both report `requests_per_sec` of their fastest rep; warm/cold is the
/// speedup the serve mode buys.
///
/// # Errors
///
/// Propagates model-construction and solver errors as readable strings.
pub fn run_serve_rung(
    label: &str,
    sources: usize,
    t_max: f64,
    n_requests: usize,
    reps: usize,
    threads: usize,
    kernel: KernelVariant,
) -> Result<(BenchEntry, BenchEntry), String> {
    let model = OnOffMultiplexer::table2_scaled(sources)
        .model()
        .map_err(|e| format!("serve-{label}: {e}"))?;
    const HORIZONS: usize = 4;
    let distinct: Vec<f64> = (1..=HORIZONS)
        .map(|k| t_max * (HORIZONS + k) as f64 / (2 * HORIZONS) as f64)
        .collect();
    let times: Vec<f64> = (0..n_requests).map(|i| distinct[i % HORIZONS]).collect();
    let cfg = SolverConfig {
        epsilon: EPSILON,
        threads,
        kernel,
        ..SolverConfig::default()
    };

    let mut cold_best = u64::MAX;
    let mut iterations = 0u64;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        for &t in &times {
            let sol = moments(&model, ORDER, t, &cfg).map_err(|e| format!("serve-{label}: {e}"))?;
            iterations = sol.stats.iterations;
        }
        cold_best = cold_best.min(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    let resolver = |_: &somrm_serve::ModelSpec| -> Result<_, String> { Ok(model.clone()) };
    let lines: Vec<String> = times
        .iter()
        .enumerate()
        .map(|(i, t)| format!("{{\"id\":{i},\"model\":\"m\",\"t\":{t},\"order\":{ORDER}}}"))
        .collect();
    let mut cache = somrm_serve::PlanCache::new(8, RecorderHandle::disabled());
    // Prime the cache; the timed reps measure warm serving.
    let primed = somrm_serve::serve_batch(&lines, &resolver, &mut cache, &cfg);
    if primed.errors > 0 {
        return Err(format!("serve-{label}: warm-up batch had errors: {:?}", primed.responses));
    }
    // The warm reps run traced so the document carries per-request
    // latency percentiles (keeping the stats of the fastest rep).
    let mut warm_best = u64::MAX;
    let mut warm_stats: Option<somrm_obs::ServeStatsSnapshot> = None;
    for _ in 0..reps.max(1) {
        let stats = somrm_obs::ServeStats::new();
        let start = Instant::now();
        let traced: Vec<somrm_serve::TracedLine> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| somrm_serve::TracedLine {
                seq: i as u64,
                received: start,
                line: l.clone(),
            })
            .collect();
        let outcome = somrm_serve::serve_batch_traced(
            &traced,
            &resolver,
            &mut cache,
            &cfg,
            Some(&stats),
            start,
        );
        let wall = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if outcome.errors > 0 {
            return Err(format!("serve-{label}: batch had errors: {:?}", outcome.responses));
        }
        if wall < warm_best {
            warm_best = wall;
            warm_stats = Some(stats.snapshot());
        }
    }

    let entry = |suffix: &str, wall_ns: u64, stats: Option<&somrm_obs::ServeStatsSnapshot>| {
        BenchEntry {
            name: format!("serve-{label}-{suffix}"),
            states: sources + 1,
            format: "auto".to_string(),
            t: t_max,
            reps,
            iterations,
            wall_ns,
            iters_per_sec: 0.0,
            stages: vec![],
            requests_per_sec: Some(n_requests as f64 / (wall_ns as f64 / 1e9)),
            latency_p50_ns: stats.and_then(|s| s.total.p50_ns()),
            latency_p99_ns: stats.and_then(|s| s.total.p99_ns()),
            matrix_bytes: None,
            peak_rss_bytes: None,
        }
    };
    Ok((
        entry("cold", cold_best, None),
        entry("warm", warm_best, warm_stats.as_ref()),
    ))
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Serializes a run as one bench document.
///
/// The metadata pins the machine-dependent half of the measurement:
/// `threads` and `kernel` are the knobs the ladder ran with (`kernel`
/// as requested, `kernel_resolved` after auto-detection), and
/// `cpu_features` is the host's detected SIMD feature list — two
/// documents only compare meaningfully when these match.
pub fn to_json(entries: &[BenchEntry], quick: bool, threads: usize, kernel: KernelVariant) -> String {
    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::new();
    out.push_str("{\"schema\":");
    json::write_string(&mut out, SCHEMA);
    out.push_str(",\"git_rev\":");
    json::write_string(&mut out, &git_rev());
    let _ = write!(out, ",\"created_unix\":{created}");
    let _ = write!(out, ",\"quick\":{quick}");
    let _ = write!(out, ",\"order\":{ORDER}");
    out.push_str(",\"epsilon\":");
    json::write_f64(&mut out, EPSILON);
    let _ = write!(out, ",\"threads\":{threads}");
    out.push_str(",\"kernel\":");
    json::write_string(&mut out, &kernel.to_string());
    out.push_str(",\"kernel_resolved\":");
    json::write_string(&mut out, kernel.resolve().name());
    out.push_str(",\"cpu_features\":");
    json::write_string(&mut out, &simd::cpu_features());
    out.push_str(",\"entries\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_string(&mut out, &e.name);
        let _ = write!(out, ",\"states\":{}", e.states);
        out.push_str(",\"format\":");
        json::write_string(&mut out, &e.format);
        out.push_str(",\"t\":");
        json::write_f64(&mut out, e.t);
        let _ = write!(
            out,
            ",\"reps\":{},\"iterations\":{},\"wall_ns\":{}",
            e.reps, e.iterations, e.wall_ns
        );
        out.push_str(",\"iters_per_sec\":");
        json::write_f64(&mut out, e.iters_per_sec);
        if let Some(rps) = e.requests_per_sec {
            out.push_str(",\"requests_per_sec\":");
            json::write_f64(&mut out, rps);
        }
        // Optional like requests_per_sec: absent keys mean "not a
        // traced serving rung" (or an empty histogram), never 0 ns.
        if let Some(p) = e.latency_p50_ns {
            let _ = write!(out, ",\"latency_p50_ns\":{p}");
        }
        if let Some(p) = e.latency_p99_ns {
            let _ = write!(out, ",\"latency_p99_ns\":{p}");
        }
        // Memory facts are optional the same way: absent keys mean the
        // rung predates the ledger (or the platform has no RSS probe).
        if let Some(b) = e.matrix_bytes {
            let _ = write!(out, ",\"matrix_bytes\":{b}");
        }
        if let Some(b) = e.peak_rss_bytes {
            let _ = write!(out, ",\"peak_rss_bytes\":{b}");
        }
        out.push_str(",\"stages\":{");
        for (j, (name, ns)) in e.stages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            let _ = write!(out, ":{ns}");
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

/// Runs the ladder and writes the document to `out_path`.
///
/// # Errors
///
/// Solver errors and the output write are propagated as readable
/// strings.
pub fn cmd_bench_run(
    quick: bool,
    out_path: &str,
    threads: usize,
    kernel: KernelVariant,
) -> Result<String, String> {
    let mut entries = Vec::new();
    let mut human = String::new();
    let _ = writeln!(
        human,
        "ladder: threads {threads}, kernel {kernel} (resolved {}), cpu {}",
        kernel.resolve().name(),
        simd::cpu_features()
    );
    for rung in standard_ladder(quick) {
        let e = run_rung(&rung, threads, kernel)?;
        let _ = writeln!(
            human,
            "{:<16} {:>7} states  G={:<6} wall {:>12} (min of {})",
            e.name,
            e.states,
            e.iterations,
            fmt_ms(e.wall_ns),
            e.reps
        );
        entries.push(e);
    }
    // The serving rung pair: quick stays at 1k sources so the CI tier
    // keeps its debug-build budget; the full ladder serves the 10k
    // model (t chosen as in the solver ladder, qt up to 2000).
    let (label, sources, t_max, reps) =
        if quick { ("1k", 1_000, 0.5, 1) } else { ("10k", 10_000, 0.05, 2) };
    let (cold, warm) = run_serve_rung(label, sources, t_max, 24, reps, threads, kernel)?;
    for e in [cold, warm] {
        let _ = writeln!(
            human,
            "{:<16} {:>7} states  {:>10.1} req/s  wall {:>12} (min of {})",
            e.name,
            e.states,
            e.requests_per_sec.unwrap_or(0.0),
            fmt_ms(e.wall_ns),
            e.reps
        );
        entries.push(e);
    }
    let doc = to_json(&entries, quick, threads, kernel);
    std::fs::write(out_path, &doc).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let _ = writeln!(human, "wrote {out_path} (git {})", git_rev());
    Ok(human)
}

fn load_entries(path: &str) -> Result<Vec<(String, u64)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} document"));
    }
    let entries = doc
        .get("entries")
        .and_then(|e| e.as_array())
        .ok_or_else(|| format!("{path}: missing entries array"))?;
    entries
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or_else(|| format!("{path}: entry without name"))?;
            let wall = e
                .get("wall_ns")
                .and_then(|w| w.as_f64())
                .ok_or_else(|| format!("{path}: entry {name} without wall_ns"))?;
            Ok((name.to_string(), wall as u64))
        })
        .collect()
}

/// Compares two bench documents rung-by-rung.
///
/// A rung regresses when its new wall time exceeds the old one by more
/// than `threshold_pct` percent. Rungs present only in the new file are
/// explicitly warned about but never fail (the ladder may grow, but a
/// rung with no baseline is untracked perf and should get one); rungs
/// present in the old file but **missing from the new one are
/// failures** — a silently dropped rung is how a perf regression
/// escapes the gate.
///
/// # Errors
///
/// Unreadable/malformed documents always error; detected regressions
/// and missing rungs error unless `warn_only` is set (then they are
/// reported and the comparison still succeeds, for advisory CI lanes).
pub fn cmd_bench_compare(
    old_path: &str,
    new_path: &str,
    threshold_pct: f64,
    warn_only: bool,
) -> Result<String, String> {
    let old = load_entries(old_path)?;
    let new = load_entries(new_path)?;
    let mut out = String::new();
    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut unbaselined = 0usize;
    for (name, new_wall) in &new {
        let Some((_, old_wall)) = old.iter().find(|(n, _)| n == name) else {
            unbaselined += 1;
            let _ = writeln!(
                out,
                "{name:<16} new rung ({}) — WARNING: no baseline in {old_path}",
                fmt_ms(*new_wall)
            );
            continue;
        };
        compared += 1;
        let delta_pct = if *old_wall > 0 {
            (*new_wall as f64 - *old_wall as f64) / *old_wall as f64 * 100.0
        } else {
            0.0
        };
        let regressed = delta_pct > threshold_pct;
        regressions += usize::from(regressed);
        let _ = writeln!(
            out,
            "{name:<16} {:>12} -> {:>12}  {delta_pct:+.1}%{}",
            fmt_ms(*old_wall),
            fmt_ms(*new_wall),
            if regressed { "  REGRESSION" } else { "" }
        );
    }
    let mut missing = 0usize;
    for (name, _) in &old {
        if !new.iter().any(|(n, _)| n == name) {
            missing += 1;
            let _ = writeln!(out, "{name:<16} MISSING from {new_path}");
        }
    }
    let _ = writeln!(
        out,
        "bench compare: {compared} rungs, {regressions} regressions, {missing} missing, \
         {unbaselined} without baseline (threshold +{threshold_pct}%)"
    );
    if (regressions > 0 || missing > 0) && !warn_only {
        Err(out)
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_rung(format: MatrixFormat, fmt_name: &str) -> Rung {
        Rung {
            name: format!("onoff-micro-{fmt_name}"),
            sources: 50,
            format,
            t: 0.1,
            reps: 1,
        }
    }

    #[test]
    fn micro_ladder_produces_a_parsable_document() {
        let entries: Vec<BenchEntry> = [
            micro_rung(MatrixFormat::Csr, "csr"),
            micro_rung(MatrixFormat::Dia, "dia"),
            micro_rung(MatrixFormat::Operator, "op"),
        ]
        .iter()
        .map(|r| run_rung(r, 1, KernelVariant::Auto).unwrap())
        .collect();
        assert!(entries[0].iterations > 0);
        assert!(entries[0].wall_ns > 0);
        assert!(
            entries[0].stages.iter().any(|(n, _)| n == "solve.recursion"),
            "stages: {:?}",
            entries[0].stages
        );
        let doc = to_json(&entries, true, 1, KernelVariant::Auto);
        let v = json::parse(&doc).expect("valid bench JSON");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SCHEMA));
        assert!(v.get("git_rev").and_then(|s| s.as_str()).is_some());
        // Machine-dependent metadata is pinned in the document.
        assert_eq!(v.get("threads").and_then(|t| t.as_f64()), Some(1.0));
        assert_eq!(v.get("kernel").and_then(|k| k.as_str()), Some("auto"));
        let resolved = v.get("kernel_resolved").and_then(|k| k.as_str()).unwrap();
        assert!(resolved == "scalar" || resolved == "simd");
        assert!(v.get("cpu_features").and_then(|c| c.as_str()).is_some());
        let parsed = v.get("entries").unwrap().as_array().unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(
            parsed[2].get("format").and_then(|f| f.as_str()),
            Some("operator")
        );
        assert_eq!(
            parsed[0].get("states").and_then(|s| s.as_f64()),
            Some(51.0)
        );
        assert!(parsed[0].get("stages").unwrap().get("solve.recursion").is_some());
        // Memory facts: every solver rung carries exact matrix bytes,
        // and the matrix-free operator strip is the smallest footprint.
        let bytes: Vec<u64> = entries
            .iter()
            .map(|e| e.matrix_bytes.expect("ledger gauge present"))
            .collect();
        assert!(bytes.iter().all(|&b| b > 0), "{bytes:?}");
        assert!(bytes[2] < bytes[0] && bytes[2] < bytes[1], "operator smallest: {bytes:?}");
        assert_eq!(
            parsed[0].get("matrix_bytes").and_then(|b| b.as_f64()),
            Some(bytes[0] as f64)
        );
        #[cfg(target_os = "linux")]
        assert!(
            parsed[0].get("peak_rss_bytes").and_then(|b| b.as_f64()).unwrap() > 0.0,
            "VmHWM probe present on linux"
        );
    }

    #[test]
    fn csr_dia_and_operator_rungs_agree_on_iteration_count() {
        let csr = run_rung(&micro_rung(MatrixFormat::Csr, "csr"), 1, KernelVariant::Auto).unwrap();
        let dia = run_rung(&micro_rung(MatrixFormat::Dia, "dia"), 1, KernelVariant::Auto).unwrap();
        let op = run_rung(&micro_rung(MatrixFormat::Operator, "op"), 1, KernelVariant::Auto)
            .unwrap();
        assert_eq!(csr.iterations, dia.iterations);
        assert_eq!(csr.iterations, op.iterations);
    }

    #[test]
    fn standard_ladder_shape() {
        let full = standard_ladder(false);
        assert_eq!(full.len(), 10);
        assert!(full.iter().any(|r| r.name == "onoff-2m-op"));
        let two_m = full.iter().find(|r| r.name == "onoff-2m-op").unwrap();
        assert_eq!(two_m.sources, 2_000_000);
        assert!(matches!(two_m.format, MatrixFormat::Operator));
        let quick = standard_ladder(true);
        assert_eq!(quick.len(), 6);
        assert!(quick.iter().all(|r| r.sources <= 10_000));
        assert!(quick.iter().any(|r| r.name == "onoff-1k-op"));
        // qt ≈ 2000 on every rung: q = 4N for the scaled multiplexer.
        for r in &full {
            let qt = 4.0 * r.sources as f64 * r.t;
            assert!((qt - 2000.0).abs() < 1e-9, "{}: qt = {qt}", r.name);
        }
    }

    fn doc_with(wall_a: u64, wall_b: u64) -> String {
        let entries = vec![
            BenchEntry {
                name: "a".into(),
                states: 2,
                format: "csr".into(),
                t: 0.1,
                reps: 1,
                iterations: 10,
                wall_ns: wall_a,
                iters_per_sec: 1.0,
                stages: vec![],
                requests_per_sec: None,
                latency_p50_ns: None,
                latency_p99_ns: None,
                matrix_bytes: None,
                peak_rss_bytes: None,
            },
            BenchEntry {
                name: "b".into(),
                states: 2,
                format: "dia".into(),
                t: 0.1,
                reps: 1,
                iterations: 10,
                wall_ns: wall_b,
                iters_per_sec: 1.0,
                stages: vec![],
                requests_per_sec: None,
                latency_p50_ns: None,
                latency_p99_ns: None,
                matrix_bytes: None,
                peak_rss_bytes: None,
            },
        ];
        to_json(&entries, false, 1, KernelVariant::Auto)
    }

    fn write_tmp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, contents).unwrap();
        path.display().to_string()
    }

    #[test]
    fn comparator_accepts_identical_runs() {
        let old = write_tmp("somrm-bench-cmp-old1.json", &doc_with(1000, 2000));
        let new = write_tmp("somrm-bench-cmp-new1.json", &doc_with(1000, 2000));
        let out = cmd_bench_compare(&old, &new, 10.0, false).unwrap();
        assert!(out.contains("0 regressions"), "{out}");
    }

    #[test]
    fn comparator_flags_regressions_beyond_threshold() {
        let old = write_tmp("somrm-bench-cmp-old2.json", &doc_with(1000, 2000));
        // Rung a slows by 50%: over a 10% threshold.
        let new = write_tmp("somrm-bench-cmp-new2.json", &doc_with(1500, 2000));
        let err = cmd_bench_compare(&old, &new, 10.0, false).unwrap_err();
        assert!(err.contains("REGRESSION"), "{err}");
        assert!(err.contains("1 regressions"), "{err}");
        // The same comparison in warn-only mode succeeds but still reports.
        let out = cmd_bench_compare(&old, &new, 10.0, true).unwrap();
        assert!(out.contains("REGRESSION"), "{out}");
        // A 100% threshold absorbs the slowdown entirely.
        let out = cmd_bench_compare(&old, &new, 100.0, false).unwrap();
        assert!(out.contains("0 regressions"), "{out}");
    }

    #[test]
    fn comparator_tolerates_ladder_growth() {
        // A rung only in the NEW file is fine: the ladder may grow.
        let old_doc = doc_with(1000, 2000).replace("\"name\":\"b\"", "\"name\":\"gone\"");
        let old = write_tmp("somrm-bench-cmp-old3.json", &old_doc);
        let new_doc = doc_with(1000, 2000).replace("\"name\":\"gone\"", "\"name\":\"b\"");
        let new = write_tmp("somrm-bench-cmp-new3.json", &new_doc);
        // ...but "gone" is in OLD and not NEW, so this must fail.
        let err = cmd_bench_compare(&old, &new, 10.0, false).unwrap_err();
        assert!(err.contains("new rung"), "{err}");
        // A rung the OLD document lacks is called out loudly: it ran
        // without a baseline, so its perf is untracked this round.
        assert!(err.contains("WARNING: no baseline"), "{err}");
        assert!(err.contains("1 without baseline"), "{err}");
        assert!(err.contains("MISSING"), "{err}");
        assert!(err.contains("1 missing"), "{err}");
        // Warn-only reports the missing rung without failing.
        let out = cmd_bench_compare(&old, &new, 10.0, true).unwrap();
        assert!(out.contains("MISSING"), "{out}");
    }

    #[test]
    fn comparator_fails_on_missing_rung() {
        // Regression of the silent-skip bug: OLD has rungs a and b, NEW
        // only a — before the fix the comparison passed with a note.
        let old = write_tmp("somrm-bench-cmp-old4.json", &doc_with(1000, 2000));
        let new_doc = doc_with(1000, 2000).replace("\"name\":\"b\"", "\"name\":\"c\"");
        let new = write_tmp("somrm-bench-cmp-new4.json", &new_doc);
        let err = cmd_bench_compare(&old, &new, 10.0, false).unwrap_err();
        assert!(err.contains("b                MISSING"), "{err}");
        let ok_doc = doc_with(1000, 2000);
        let new_full = write_tmp("somrm-bench-cmp-new4b.json", &ok_doc);
        assert!(cmd_bench_compare(&old, &new_full, 10.0, false).is_ok());
    }

    #[test]
    fn serve_rung_reports_warm_speedup() {
        let (cold, warm) = run_serve_rung("micro", 50, 0.1, 8, 1, 1, KernelVariant::Auto).unwrap();
        let cold_rps = cold.requests_per_sec.unwrap();
        let warm_rps = warm.requests_per_sec.unwrap();
        assert!(cold_rps > 0.0 && warm_rps > 0.0);
        assert!(
            warm_rps > cold_rps,
            "warm serving must beat per-request cold solves: {warm_rps} vs {cold_rps} req/s"
        );
        // The warm rung carries per-request latency percentiles; the
        // cold rung (no traced batch) omits the keys entirely.
        assert!(warm.latency_p50_ns.unwrap() > 0);
        assert!(warm.latency_p99_ns.unwrap() >= warm.latency_p50_ns.unwrap());
        assert_eq!(cold.latency_p50_ns, None);
        // The fields survive the document round trip.
        let doc = to_json(&[cold, warm], true, 1, KernelVariant::Auto);
        let v = json::parse(&doc).unwrap();
        let entries = v.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries[0].get("name").and_then(|n| n.as_str()), Some("serve-micro-cold"));
        assert!(entries[0].get("requests_per_sec").and_then(|r| r.as_f64()).unwrap() > 0.0);
        assert!(entries[1].get("requests_per_sec").and_then(|r| r.as_f64()).unwrap() > 0.0);
        assert!(entries[0].get("latency_p50_ns").is_none(), "cold: no percentile keys");
        assert!(entries[1].get("latency_p50_ns").and_then(|p| p.as_f64()).unwrap() > 0.0);
    }

    #[test]
    fn comparator_joins_on_wall_time_despite_optional_latency_fields() {
        // The join must not require the optional percentile keys: an
        // old document predating them compares cleanly against a new
        // one that has them (and vice versa).
        let mut with = doc_with(1000, 2000);
        with = with.replace(
            "\"iters_per_sec\":1.0,",
            "\"iters_per_sec\":1.0,\"latency_p50_ns\":500,\"latency_p99_ns\":900,",
        );
        assert!(with.contains("latency_p50_ns"), "replacement applied");
        let old = write_tmp("somrm-bench-cmp-lat-old.json", &doc_with(1000, 2000));
        let new = write_tmp("somrm-bench-cmp-lat-new.json", &with);
        let out = cmd_bench_compare(&old, &new, 10.0, false).unwrap();
        assert!(out.contains("0 regressions"), "{out}");
        let out = cmd_bench_compare(&new, &old, 10.0, false).unwrap();
        assert!(out.contains("0 regressions"), "{out}");
    }

    #[test]
    fn comparator_ignores_optional_memory_fields() {
        // A document carrying the new memory facts compares cleanly
        // against one that predates them, in both directions: the join
        // and threshold logic read names and wall_ns only.
        let mut with = doc_with(1000, 2000);
        with = with.replace(
            "\"iters_per_sec\":1.0,",
            "\"iters_per_sec\":1.0,\"matrix_bytes\":2832,\"peak_rss_bytes\":1048576,",
        );
        assert!(with.contains("matrix_bytes"), "replacement applied");
        let old = write_tmp("somrm-bench-cmp-mem-old.json", &doc_with(1000, 2000));
        let new = write_tmp("somrm-bench-cmp-mem-new.json", &with);
        let out = cmd_bench_compare(&old, &new, 10.0, false).unwrap();
        assert!(out.contains("0 regressions"), "{out}");
        let out = cmd_bench_compare(&new, &old, 10.0, false).unwrap();
        assert!(out.contains("0 regressions"), "{out}");
    }

    #[test]
    #[ignore = "release-scale: run with cargo test --release -p somrm-cli -- --ignored"]
    fn serve_10k_warm_telemetry_overhead_within_2_percent() {
        // The PR's acceptance rung: warm serving of the 10k-state
        // multiplexer with the always-on request telemetry (traced
        // lifecycle bookkeeping + the ServeStats sink, what every
        // `somrm-tool serve` run now pays unconditionally) within 2%
        // of the plain batch path. Span emission and the solver-side
        // metrics registry are opt-in surfaces priced separately by
        // the obs_overhead bench, so both arms run the default
        // disabled recorder. Reps interleave the arms — a single-CPU
        // runner drifts several percent over seconds, which
        // back-to-back arms would read as telemetry cost — and each
        // arm takes its minimum.
        let model = OnOffMultiplexer::table2_scaled(10_000).model().unwrap();
        let resolver = |_: &somrm_serve::ModelSpec| -> Result<_, String> { Ok(model.clone()) };
        const HORIZONS: usize = 4;
        let t_max = 0.05;
        let lines: Vec<String> = (0..24)
            .map(|i| {
                let t = t_max * (HORIZONS + (i % HORIZONS) + 1) as f64 / (2 * HORIZONS) as f64;
                format!("{{\"id\":{i},\"model\":\"m\",\"t\":{t},\"order\":{ORDER}}}")
            })
            .collect();
        const REPS: usize = 5;

        let cfg = SolverConfig {
            epsilon: EPSILON,
            ..SolverConfig::default()
        };
        let mut cache = somrm_serve::PlanCache::new(8, RecorderHandle::disabled());
        let primed = somrm_serve::serve_batch(&lines, &resolver, &mut cache, &cfg);
        assert_eq!(primed.errors, 0);

        let stats = somrm_obs::ServeStats::new();
        let (mut off_ns, mut on_ns) = (u64::MAX, u64::MAX);
        for _ in 0..REPS {
            let start = Instant::now();
            somrm_serve::serve_batch(&lines, &resolver, &mut cache, &cfg);
            off_ns = off_ns.min(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);

            let start = Instant::now();
            let traced: Vec<somrm_serve::TracedLine> = lines
                .iter()
                .enumerate()
                .map(|(i, l)| somrm_serve::TracedLine {
                    seq: i as u64,
                    received: start,
                    line: l.clone(),
                })
                .collect();
            somrm_serve::serve_batch_traced(
                &traced,
                &resolver,
                &mut cache,
                &cfg,
                Some(&stats),
                start,
            );
            on_ns = on_ns.min(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        assert_eq!(stats.snapshot().total.count, 24 * REPS as u64);

        let overhead_pct = (on_ns as f64 - off_ns as f64) / off_ns as f64 * 100.0;
        assert!(
            overhead_pct <= 2.0,
            "telemetry overhead {overhead_pct:+.2}% (off {off_ns} ns, on {on_ns} ns) exceeds 2%"
        );
    }

    #[test]
    #[ignore = "release-scale: run with cargo test --release -p somrm-cli -- --ignored"]
    fn serve_10k_warm_cache_is_5x_over_cold() {
        // The PR's acceptance rung: warm plan-cache serving of the
        // 10k-state multiplexer at ≥5× the cold per-request throughput.
        let (cold, warm) =
            run_serve_rung("10k", 10_000, 0.05, 24, 2, 1, KernelVariant::Auto).unwrap();
        let cold_rps = cold.requests_per_sec.unwrap();
        let warm_rps = warm.requests_per_sec.unwrap();
        assert!(
            warm_rps >= 5.0 * cold_rps,
            "warm {warm_rps:.1} req/s vs cold {cold_rps:.1} req/s: speedup {:.1}x < 5x",
            warm_rps / cold_rps
        );
    }

    #[test]
    fn malformed_documents_error() {
        let bad = write_tmp("somrm-bench-cmp-bad.json", "{\"schema\":\"nope\"}");
        let good = write_tmp("somrm-bench-cmp-good.json", &doc_with(1, 1));
        assert!(cmd_bench_compare(&bad, &good, 10.0, true).is_err());
        assert!(cmd_bench_compare(&good, &bad, 10.0, true).is_err());
    }
}
