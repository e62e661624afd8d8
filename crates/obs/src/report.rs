//! The end-of-run audit artifact: a [`SolveReport`] and its JSON form.

use crate::health::HealthSection;
use crate::json;
use crate::mem::MemSection;
use crate::registry::MetricsSnapshot;
use std::fmt::Write as _;

/// Poisson-weight accounting for one time point of a solve.
///
/// The recursion truncates at the global `G` of the largest requested
/// time; each individual time point's weight window is additionally
/// trimmed where its right tail underflows to exact zero, and starts at
/// a left edge: the largest `L` whose bound on the dropped terms `k < L`
/// spends at most `ε·2⁻⁵²`, or the first weight that does not underflow
/// if that lies further right (large `qt` pushes the window far right of
/// `k = 0`). `weights_kept + weights_left_skipped + weights_trimmed =
/// G + 1` always holds, `retained_mass` is the sum of the kept weights —
/// how much of `P[Pois(qt_i)]` the truncated series actually covers
/// (`1 − retained_mass` is Poisson mass assigned to iterations beyond
/// `G` or below the left edge) — and `left_error_bound` is what the left
/// edge adds to the worst order's truncation bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonStat {
    /// The time point.
    pub t: f64,
    /// Number of non-trimmed Poisson weights (series terms evaluated
    /// with a non-zero weight).
    pub weights_kept: u64,
    /// Number of weight slots below the window's left edge: weights
    /// under the ε-budgeted cut or underflowed to exact zeros (the
    /// recursion still advances through them, but no accumulation
    /// happens there).
    pub weights_left_skipped: u64,
    /// Number of weight slots up to `G` trimmed away as exact zeros
    /// past the window's right edge.
    pub weights_trimmed: u64,
    /// Total Poisson mass of the kept weights.
    pub retained_mass: f64,
    /// Bound on the terms below the left edge, for the worst order
    /// (`0` when nothing was cut; at most `ε·2⁻⁵²` unless the edge sits
    /// at the first non-underflowing weight).
    pub left_error_bound: f64,
}

/// Worker-pool behaviour over one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolSection {
    /// Threads participating in each pass (workers + caller).
    pub threads: usize,
    /// Parallel passes executed (pool epochs).
    pub epochs: u64,
    /// Condvar waits entered by workers (parks).
    pub parks: u64,
    /// Epochs picked up by workers (wakes).
    pub wakes: u64,
}

/// The solver-algorithm facts of a randomization run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverSection {
    /// Uniformization rate `q`.
    pub q: f64,
    /// Normalization constant `d`.
    pub d: f64,
    /// Poisson parameter `q·t_max` the truncation was chosen for.
    pub qt: f64,
    /// Drift shift `ř` applied (0 when no drift is negative).
    pub shift: f64,
    /// Chosen truncation point `G` of Theorem 4.
    pub g: u64,
    /// The configured iteration cap `G` was checked against.
    pub max_iterations: u64,
    /// The requested truncation error `ε`.
    pub epsilon: f64,
    /// Highest moment order computed.
    pub order: usize,
    /// Model size.
    pub n_states: usize,
    /// Number of time points served by the single recursion run.
    pub n_times: usize,
    /// Effective worker threads engaged by the kernel.
    pub threads: usize,
    /// Realized Theorem-4 bound, worst over orders (what `G` guarantees).
    pub error_bound: f64,
    /// Realized Theorem-4 bound per order `0..=order`.
    pub error_bounds: Vec<f64>,
    /// Per-time-point Poisson weight accounting.
    pub poisson: Vec<PoissonStat>,
}

/// Everything one solver run can tell about itself.
///
/// Serialized by [`SolveReport::to_json`] with a *flat, stable* key
/// layout so shell pipelines and the CI report check can address fields
/// without knowing the internal struct nesting: solver fields appear at
/// the top level (as `null` for commands that never ran the
/// randomization solver), followed by `"pool"`, `"stages"`,
/// `"counters"` and `"gauges"`.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Which operation produced the report (`"moments"`, `"terminal"`,
    /// `"impulse"`, `"first_order"`, `"simulate"`, ...).
    pub command: String,
    /// Randomization-solver facts; `None` when the operation did not run
    /// the solver.
    pub solver: Option<SolverSection>,
    /// Worker-pool stats; `None` for serial runs.
    pub pool: Option<PoolSection>,
    /// Numerical-health probes sampled during the recursion; `None`
    /// when the operation has no iterative phase to probe.
    pub health: Option<HealthSection>,
    /// Memory-ledger snapshot (exact per-category bytes + peak RSS);
    /// `None` when no ledger was attached.
    pub mem: Option<MemSection>,
    /// Snapshot of the attached metrics registry (stage timings, pass
    /// counters, gauges). Empty when the recorder does not aggregate.
    pub metrics: MetricsSnapshot,
}

impl SolveReport {
    /// An empty report for `command`.
    pub fn new(command: impl Into<String>) -> Self {
        SolveReport {
            command: command.into(),
            solver: None,
            pool: None,
            health: None,
            mem: None,
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Replaces the metrics snapshot — used to refresh a report with
    /// events recorded *after* the solve attached it (e.g. the CLI's
    /// bound-computation stage).
    pub fn set_metrics(&mut self, metrics: MetricsSnapshot) {
        self.metrics = metrics;
    }

    /// The realized per-order bound, if a solver section is present.
    pub fn error_bound(&self, order: usize) -> Option<f64> {
        self.solver
            .as_ref()
            .and_then(|s| s.error_bounds.get(order).copied())
    }

    /// Serializes the report as a single JSON object (no trailing
    /// newline). The output is guaranteed to parse with
    /// [`crate::json::parse`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        json::write_string(&mut out, "command");
        out.push(':');
        json::write_string(&mut out, &self.command);

        match &self.solver {
            Some(s) => {
                push_num(&mut out, "q", s.q);
                push_num(&mut out, "d", s.d);
                push_num(&mut out, "qt", s.qt);
                push_num(&mut out, "shift", s.shift);
                push_num(&mut out, "G", s.g as f64);
                push_num(&mut out, "max_iterations", s.max_iterations as f64);
                push_num(&mut out, "epsilon", s.epsilon);
                push_num(&mut out, "order", s.order as f64);
                push_num(&mut out, "n_states", s.n_states as f64);
                push_num(&mut out, "n_times", s.n_times as f64);
                push_num(&mut out, "threads", s.threads as f64);
                push_num(&mut out, "error_bound", s.error_bound);
                out.push_str(",\"error_bounds\":[");
                for (i, &b) in s.error_bounds.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_f64(&mut out, b);
                }
                out.push(']');
                out.push_str(",\"poisson\":[");
                for (i, p) in s.poisson.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('{');
                    let _ = write!(out, "\"t\":");
                    json::write_f64(&mut out, p.t);
                    let _ = write!(
                        out,
                        ",\"weights_kept\":{},\"weights_left_skipped\":{},\"weights_trimmed\":{},\"retained_mass\":",
                        p.weights_kept, p.weights_left_skipped, p.weights_trimmed
                    );
                    json::write_f64(&mut out, p.retained_mass);
                    push_num(&mut out, "left_error_bound", p.left_error_bound);
                    out.push('}');
                }
                out.push(']');
            }
            None => {
                for key in [
                    "q",
                    "d",
                    "qt",
                    "shift",
                    "G",
                    "max_iterations",
                    "epsilon",
                    "order",
                    "n_states",
                    "n_times",
                    "threads",
                    "error_bound",
                    "error_bounds",
                    "poisson",
                ] {
                    out.push(',');
                    json::write_string(&mut out, key);
                    out.push_str(":null");
                }
            }
        }

        out.push_str(",\"pool\":");
        match &self.pool {
            Some(p) => {
                let _ = write!(
                    out,
                    "{{\"threads\":{},\"epochs\":{},\"parks\":{},\"wakes\":{}}}",
                    p.threads, p.epochs, p.parks, p.wakes
                );
            }
            None => out.push_str("null"),
        }

        out.push_str(",\"health\":");
        match &self.health {
            Some(h) => {
                let _ = write!(
                    out,
                    "{{\"samples\":{},\"stride\":{},\"nan\":{},\"inf\":{},\"subnormal\":{},\"warnings\":{}",
                    h.samples,
                    h.stride,
                    h.nan,
                    h.inf,
                    h.subnormal,
                    h.warnings()
                );
                for (key, v) in [
                    ("u0_mass_initial", h.u0_mass_initial),
                    ("u0_mass_min", h.u0_mass_min),
                    ("u0_mass_final", h.u0_mass_final),
                    ("compensation_ratio", h.compensation_ratio),
                ] {
                    push_num(&mut out, key, v);
                }
                out.push_str(",\"max_abs\":[");
                for (i, &m) in h.max_abs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_f64(&mut out, m);
                }
                out.push_str("]}");
            }
            None => out.push_str("null"),
        }

        out.push_str(",\"mem\":");
        match &self.mem {
            Some(m) => {
                out.push('{');
                for (i, e) in m.entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_string(&mut out, e.key);
                    let _ = write!(out, ":{{\"current\":{},\"peak\":{}}}", e.current, e.peak);
                }
                out.push_str(",\"peak_rss_bytes\":");
                match m.peak_rss_bytes {
                    Some(b) => {
                        let _ = write!(out, "{b}");
                    }
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            None => out.push_str("null"),
        }

        out.push_str(",\"stages\":{");
        for (i, (name, t)) in self.metrics.timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}",
                t.count, t.total_ns, t.min_ns, t.max_ns,
            );
            // Percentile keys are omitted for empty histograms: a 0 ns
            // placeholder would read as a real sub-ns timing.
            if let (Some(p50), Some(p99)) = (t.p50_ns(), t.p99_ns()) {
                let _ = write!(out, ",\"p50_ns\":{p50},\"p99_ns\":{p99}");
            }
            out.push_str(",\"mean_ns\":");
            json::write_f64(&mut out, t.mean_ns());
            out.push('}');
        }
        out.push('}');

        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.metrics.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push('}');

        out.push_str(",\"gauges\":{");
        for (i, (name, v)) in self.metrics.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, name);
            out.push(':');
            json::write_f64(&mut out, *v);
        }
        out.push_str("}}");
        out
    }
}

fn push_num(out: &mut String, key: &str, v: f64) {
    out.push(',');
    json::write_string(out, key);
    out.push(':');
    json::write_f64(out, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_report() -> SolveReport {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.push(("kernel.passes".into(), 42));
        metrics.gauges.push(("solver.q".into(), 3.0));
        metrics.timings.push((
            "solve.recursion".into(),
            crate::TimingStat {
                count: 1,
                total_ns: 1000,
                min_ns: 1000,
                max_ns: 1000,
                ..crate::TimingStat::default()
            },
        ));
        SolveReport {
            command: "moments".into(),
            solver: Some(SolverSection {
                q: 3.0,
                d: 1.5,
                qt: 3.0,
                shift: 0.0,
                g: 41,
                max_iterations: 50_000_000,
                epsilon: 1e-9,
                order: 3,
                n_states: 2,
                n_times: 1,
                threads: 1,
                error_bound: 4.2e-10,
                error_bounds: vec![1e-12, 1e-11, 1e-10, 4.2e-10],
                poisson: vec![PoissonStat {
                    t: 1.0,
                    weights_kept: 40,
                    weights_left_skipped: 0,
                    weights_trimmed: 2,
                    retained_mass: 0.999999,
                    left_error_bound: 2.5e-26,
                }],
            }),
            pool: Some(PoolSection {
                threads: 4,
                epochs: 42,
                parks: 130,
                wakes: 126,
            }),
            health: Some(HealthSection {
                samples: 42,
                stride: 1,
                nan: 0,
                inf: 0,
                subnormal: 3,
                max_abs: vec![1.0, 0.9, 0.8, 0.7],
                u0_mass_initial: 1.0,
                u0_mass_min: 1.0,
                u0_mass_final: 1.0,
                compensation_ratio: 2.5e-16,
            }),
            mem: {
                let ledger = crate::MemLedger::new();
                ledger.set(crate::MemCategory::MatrixCsr, 224);
                ledger.set(crate::MemCategory::KernelBuffers, 512);
                Some(ledger.section())
            },
            metrics,
        }
    }

    #[test]
    fn json_has_required_keys_and_parses() {
        let report = sample_report();
        let v = parse(&report.to_json()).expect("valid JSON");
        assert_eq!(v.get("command").unwrap().as_str(), Some("moments"));
        assert_eq!(v.get("G").unwrap().as_f64(), Some(41.0));
        assert_eq!(v.get("threads").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("error_bound").unwrap().as_f64(), Some(4.2e-10));
        assert_eq!(v.get("error_bounds").unwrap().as_array().unwrap().len(), 4);
        let p = &v.get("poisson").unwrap().as_array().unwrap()[0];
        assert_eq!(p.get("weights_trimmed").unwrap().as_f64(), Some(2.0));
        assert_eq!(p.get("left_error_bound").unwrap().as_f64(), Some(2.5e-26));
        assert_eq!(v.get("pool").unwrap().get("parks").unwrap().as_f64(), Some(130.0));
        let stage = v.get("stages").unwrap().get("solve.recursion").unwrap();
        assert_eq!(stage.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(stage.get("p50_ns").unwrap().as_f64(), Some(1000.0));
        assert_eq!(stage.get("p99_ns").unwrap().as_f64(), Some(1000.0));
        let health = v.get("health").unwrap();
        assert_eq!(health.get("samples").unwrap().as_f64(), Some(42.0));
        assert_eq!(health.get("subnormal").unwrap().as_f64(), Some(3.0));
        assert_eq!(health.get("warnings").unwrap().as_f64(), Some(3.0));
        assert_eq!(health.get("u0_mass_final").unwrap().as_f64(), Some(1.0));
        assert_eq!(health.get("max_abs").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(
            v.get("counters").unwrap().get("kernel.passes").unwrap().as_f64(),
            Some(42.0)
        );
        let mem = v.get("mem").unwrap();
        let csr = mem.get("matrix.csr").unwrap();
        assert_eq!(csr.get("current").unwrap().as_f64(), Some(224.0));
        assert_eq!(csr.get("peak").unwrap().as_f64(), Some(224.0));
        assert_eq!(
            mem.get("kernel.buffers").unwrap().get("current").unwrap().as_f64(),
            Some(512.0)
        );
        assert_eq!(
            mem.get("cache.resident").unwrap().get("current").unwrap().as_f64(),
            Some(0.0),
            "every category is present even when untouched"
        );
        assert!(mem.get("peak_rss_bytes").is_some());
    }

    #[test]
    fn solverless_report_emits_null_solver_keys() {
        let report = SolveReport::new("simulate");
        let v = parse(&report.to_json()).expect("valid JSON");
        assert_eq!(v.get("G"), Some(&crate::json::Value::Null));
        assert_eq!(v.get("error_bound"), Some(&crate::json::Value::Null));
        assert_eq!(v.get("pool"), Some(&crate::json::Value::Null));
        assert_eq!(v.get("health"), Some(&crate::json::Value::Null));
        assert_eq!(v.get("mem"), Some(&crate::json::Value::Null));
        assert!(v.get("stages").is_some());
    }

    #[test]
    fn empty_stage_histogram_omits_percentile_keys() {
        let mut report = SolveReport::new("serve");
        let mut metrics = MetricsSnapshot::default();
        metrics.timings.push(("never.ran".into(), crate::TimingStat::default()));
        report.set_metrics(metrics);
        let v = parse(&report.to_json()).expect("valid JSON");
        let stage = v.get("stages").unwrap().get("never.ran").unwrap();
        assert_eq!(stage.get("count").unwrap().as_f64(), Some(0.0));
        assert!(stage.get("p50_ns").is_none(), "empty stat must omit p50_ns");
        assert!(stage.get("p99_ns").is_none(), "empty stat must omit p99_ns");
    }

    #[test]
    fn error_bound_accessor() {
        let report = sample_report();
        assert_eq!(report.error_bound(3), Some(4.2e-10));
        assert_eq!(report.error_bound(9), None);
        assert_eq!(SolveReport::new("check").error_bound(0), None);
    }
}
