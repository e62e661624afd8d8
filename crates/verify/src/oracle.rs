//! The differential oracle: solve one case with every backend and check
//! pairwise agreement within *earned* tolerances.
//!
//! Tolerance discipline — every comparison budget is derived from error
//! bounds the solvers themselves report, never from a magic constant:
//!
//! - **CSR vs DIA**, **CSR vs matrix-free operator** (tridiagonal cases
//!   plus a Kronecker-sum companion built per case), and **serial vs
//!   pooled** randomization must agree **bitwise** (prior work proved
//!   the kernels bit-identical; the oracle keeps them honest).
//! - **Randomization vs closed forms / ODE / simulation** must agree
//!   within `bound_rnd + bound_other + rel_floor·scale`, where
//!   `bound_rnd` is the realized Theorem-4 truncation bound,
//!   `bound_other` is a Richardson step-doubling estimate (ODE) or a
//!   `z`-sigma CLT half-width (simulation), and the relative floor
//!   absorbs accumulated f64 rounding.
//! - **Weighted queries** (`rnd-weighted`) sum over states inside the
//!   sum over steps, so they agree with the per-state solve within
//!   both reported bounds plus the relative floor; their projected
//!   series must be bitwise the same run in one go or resumed, on CSR
//!   and DIA (and the operator where it applies), an answer that records
//!   nothing must match the recorded one bitwise, and a pooled series
//!   agrees within the bound.

use crate::case::VerifyCase;
use rand::rngs::StdRng;
use somrm_core::error::MrmError;
use somrm_core::first_order::moments_first_order;
use somrm_core::model::SecondOrderMrm;
use somrm_core::uniformization::{moments, SolverConfig};
use somrm_core::{ModelStructure, MomentSolution, ProjectedSeries, SolvePlan};
use somrm_ctmc::generator::GeneratorBuilder;
use somrm_linalg::{Mat, MatrixFormat};
use somrm_obs::json::{self};
use somrm_obs::RecorderHandle;
use somrm_ode::{moments_ode, OdeMethod};
use somrm_sim::reward::estimate_moments;
use std::fmt;

/// Tolerance and budget knobs of one oracle run.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Truncation `ε` handed to the randomization solver.
    pub epsilon: f64,
    /// Relative rounding floor: every non-bitwise comparison tolerates
    /// `rel_floor · max(1, |a|, |b|)` on top of the method bounds.
    pub rel_floor: f64,
    /// The ODE cross-check is skipped when the stability-mandated step
    /// count (doubled for Richardson) exceeds this budget.
    pub ode_max_steps: u64,
    /// Upper bound on simulated sample paths per case.
    pub sim_samples: usize,
    /// Total jump budget for one case's simulation: the sample count is
    /// scaled down to `sim_jump_budget / max(qt, 1)` and the check is
    /// skipped entirely below [`OracleConfig::sim_min_samples`].
    pub sim_jump_budget: f64,
    /// Minimum sample count for a meaningful CLT half-width.
    pub sim_min_samples: usize,
    /// CLT half-width multiplier (`z` standard errors).
    pub sim_z: f64,
    /// Telemetry sink for per-case solve timings and check/violation
    /// counters. Disabled by default; attaching one never changes which
    /// checks run or their outcomes.
    pub recorder: RecorderHandle,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            epsilon: 1e-10,
            rel_floor: 1e-8,
            ode_max_steps: 200_000,
            sim_samples: 2_000,
            sim_jump_budget: 2_000_000.0,
            sim_min_samples: 200,
            sim_z: 8.0,
            recorder: RecorderHandle::disabled(),
        }
    }
}

impl OracleConfig {
    /// Cheaper budgets for the debug-mode smoke tier.
    pub fn smoke() -> Self {
        OracleConfig {
            ode_max_steps: 40_000,
            sim_samples: 400,
            sim_jump_budget: 200_000.0,
            ..OracleConfig::default()
        }
    }
}

/// Which cross-checks actually ran on a case (budget-skipped checks are
/// reported so a run can't silently verify nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseStats {
    /// DIA-forced randomization compared bitwise.
    pub dia_checked: bool,
    /// Kronecker-sum companion model compared bitwise (operator vs
    /// CSR); runs on every case.
    pub kron_checked: bool,
    /// Pooled randomization compared bitwise.
    pub pool_checked: bool,
    /// Cached-plan execute (cold and warm) compared bitwise.
    pub plan_checked: bool,
    /// Weighted query compared within the bounds, its series bitwise
    /// across resumes and formats.
    pub weighted_checked: bool,
    /// First-order closed form compared (only σ² ≡ 0 models).
    pub first_order_checked: bool,
    /// ODE reference compared with a Richardson tolerance.
    pub ode_checked: bool,
    /// Simulation compared with a CLT half-width.
    pub sim_checked: bool,
}

/// One failed pairwise comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the check (`"rnd-dia"`, `"rnd-pool"`,
    /// `"first-order"`, `"ode-rk4"`, `"simulation"`, or `"solve-error"`).
    pub check: String,
    /// Moment order at which the disagreement occurred.
    pub order: usize,
    /// Reference (randomization CSR serial) value.
    pub reference: f64,
    /// The other backend's value.
    pub candidate: f64,
    /// Tolerance the pair was allowed.
    pub tolerance: f64,
    /// Human-readable detail (tolerance decomposition or solver error).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: order {}: |{} - {}| = {:e} > tol {:e} ({})",
            self.check,
            self.order,
            self.reference,
            self.candidate,
            (self.reference - self.candidate).abs(),
            self.tolerance,
            self.detail
        )
    }
}

impl Violation {
    /// Serializes the violation as a JSON object (embedded in the
    /// regression file's `note`-adjacent metadata).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json::write_string(&mut out, "check");
        out.push(':');
        json::write_string(&mut out, &self.check);
        out.push_str(&format!(",\"order\":{},", self.order));
        json::write_string(&mut out, "reference");
        out.push(':');
        json::write_f64(&mut out, self.reference);
        out.push(',');
        json::write_string(&mut out, "candidate");
        out.push(':');
        json::write_f64(&mut out, self.candidate);
        out.push(',');
        json::write_string(&mut out, "tolerance");
        out.push(':');
        json::write_f64(&mut out, self.tolerance);
        out.push(',');
        json::write_string(&mut out, "detail");
        out.push(':');
        json::write_string(&mut out, &self.detail);
        out.push('}');
        out
    }
}

fn solve_error(check: &str, e: &MrmError) -> Violation {
    Violation {
        check: check.to_string(),
        order: 0,
        reference: f64::NAN,
        candidate: f64::NAN,
        tolerance: 0.0,
        detail: format!("solver returned error: {e}"),
    }
}

fn scale(a: f64, b: f64) -> f64 {
    a.abs().max(b.abs()).max(1.0)
}

fn compare_bitwise(
    check: &str,
    reference: &[f64],
    candidate: &[f64],
) -> Result<(), Violation> {
    for n in 0..reference.len() {
        // Bitwise: NaN-safe exact equality.
        if reference[n].to_bits() != candidate[n].to_bits() {
            return Err(Violation {
                check: check.to_string(),
                order: n,
                reference: reference[n],
                candidate: candidate[n],
                tolerance: 0.0,
                detail: "bitwise equality required".to_string(),
            });
        }
    }
    Ok(())
}

fn compare_bounded(
    check: &str,
    reference: &[f64],
    candidate: &[f64],
    tol_for: impl Fn(usize) -> (f64, String),
) -> Result<(), Violation> {
    for n in 0..reference.len().min(candidate.len()) {
        let (tol, detail) = tol_for(n);
        let diff = (reference[n] - candidate[n]).abs();
        if !(diff <= tol) {
            // NaN diff also lands here.
            return Err(Violation {
                check: check.to_string(),
                order: n,
                reference: reference[n],
                candidate: candidate[n],
                tolerance: tol,
                detail,
            });
        }
    }
    Ok(())
}

/// Runs every backend on `case` and cross-checks the results.
///
/// The randomization solve with CSR storage and one thread is the
/// reference; everything else is compared against it. `rng` drives the
/// simulation check only (pass the case's deterministic stream).
///
/// # Errors
///
/// The first [`Violation`] encountered, including solver errors — a
/// backend erroring on a model another backend accepts is itself a
/// disagreement.
pub fn check_case(
    case: &VerifyCase,
    cfg: &OracleConfig,
    rng: &mut StdRng,
) -> Result<CaseStats, Violation> {
    let rec = &cfg.recorder;
    rec.counter_add("verify.cases", 1);
    let result = rec.time("verify.case", || check_case_inner(case, cfg, rng));
    match &result {
        Ok(_) => rec.counter_add("verify.passed", 1),
        Err(v) => {
            rec.counter_add("verify.violations", 1);
            if rec.enabled() {
                rec.counter_add(&format!("verify.violations.{}", v.check), 1);
            }
        }
    }
    result
}

fn check_case_inner(
    case: &VerifyCase,
    cfg: &OracleConfig,
    rng: &mut StdRng,
) -> Result<CaseStats, Violation> {
    let rec = &cfg.recorder;
    let model = case.build().map_err(|e| solve_error("build", &e))?;
    let mut stats = CaseStats::default();

    let base = SolverConfig {
        epsilon: cfg.epsilon,
        format: MatrixFormat::Csr,
        ..SolverConfig::default()
    };
    let reference = rec
        .time("verify.solve.reference", || {
            moments(&model, case.order, case.t, &base)
        })
        .map_err(|e| solve_error("rnd-csr", &e))?;

    // --- Format oracle: forced DIA must be bit-identical. ---
    let dia_cfg = SolverConfig {
        format: MatrixFormat::Dia,
        ..base.clone()
    };
    let dia = rec
        .time("verify.solve.dia", || {
            moments(&model, case.order, case.t, &dia_cfg)
        })
        .map_err(|e| solve_error("rnd-dia", &e))?;
    compare_bitwise("rnd-dia", &reference.weighted, &dia.weighted)?;
    stats.dia_checked = true;
    rec.counter_add("verify.checks.dia", 1);

    // --- Kronecker companion: a small composite model derived
    // deterministically from the case, solved through the Kronecker-sum
    // operator and through CSR; bitwise agreement required. Runs on
    // every case: the case's own models carry no structure, and the
    // operator is built only from one. ---
    let op_cfg = SolverConfig {
        format: MatrixFormat::Operator,
        ..base.clone()
    };
    let companion = kron_companion(case).map_err(|e| solve_error("rnd-op-kron", &e))?;
    let kron_ref = rec
        .time("verify.solve.kron_ref", || {
            moments(&companion, case.order, case.t, &base)
        })
        .map_err(|e| solve_error("rnd-op-kron", &e))?;
    let kron_op = rec
        .time("verify.solve.kron_op", || {
            moments(&companion, case.order, case.t, &op_cfg)
        })
        .map_err(|e| solve_error("rnd-op-kron", &e))?;
    compare_bitwise("rnd-op-kron", &kron_ref.weighted, &kron_op.weighted)?;
    stats.kron_checked = true;
    rec.counter_add("verify.checks.kron", 1);

    // --- Pool oracle: pooled kernel must be bit-identical. ---
    let pool_cfg = SolverConfig {
        threads: 2,
        parallel_threshold: 2,
        ..base.clone()
    };
    let pooled = rec
        .time("verify.solve.pool", || {
            moments(&model, case.order, case.t, &pool_cfg)
        })
        .map_err(|e| solve_error("rnd-pool", &e))?;
    compare_bitwise("rnd-pool", &reference.weighted, &pooled.weighted)?;
    stats.pool_checked = true;
    rec.counter_add("verify.checks.pool", 1);

    // --- Plan oracle: a prebuilt plan's execute must be bit-identical
    // to the cold solve, and stay so on warm re-execution. ---
    let plan = rec
        .time("verify.solve.plan", || {
            SolvePlan::build(&model, case.order, &base)
        })
        .map_err(|e| solve_error("rnd-plan", &e))?;
    for check in ["rnd-plan", "rnd-plan-warm"] {
        let executed = plan
            .execute(&[case.t], case.order)
            .map_err(|e| solve_error(check, &e))?;
        compare_bitwise(check, &reference.weighted, &executed[0].weighted)?;
    }
    stats.plan_checked = true;
    rec.counter_add("verify.checks.plan", 1);

    rec.time("verify.solve.weighted", || {
        check_weighted(&model, case, cfg, &base, &plan, &reference)
    })?;
    stats.weighted_checked = true;
    rec.counter_add("verify.checks.weighted", 1);

    // --- First-order closed path (σ² ≡ 0 models only). ---
    if model.is_first_order() {
        let fo = rec
            .time("verify.solve.first_order", || {
                moments_first_order(&model, case.order, case.t, &base)
            })
            .map_err(|e| solve_error("first-order", &e))?;
        compare_bounded("first-order", &reference.weighted, &fo.weighted, |n| {
            let s = scale(reference.weighted[n], fo.weighted[n]);
            let tol = reference.error_bound(n) + fo.error_bound(n) + cfg.rel_floor * s;
            (
                tol,
                format!(
                    "bound_rnd={:e} + bound_fo={:e} + floor={:e}",
                    reference.error_bound(n),
                    fo.error_bound(n),
                    cfg.rel_floor * s
                ),
            )
        })?;
        stats.first_order_checked = true;
        rec.counter_add("verify.checks.first_order", 1);
    }

    // --- ODE reference with Richardson step-doubling tolerance. ---
    let q = model.generator().uniformization_rate();
    let method = OdeMethod::Rk4;
    let coarse_steps = method.min_stable_steps(q, case.t).max(64);
    if 2 * coarse_steps <= cfg.ode_max_steps {
        let _ode_span = rec.span("verify.solve.ode");
        let coarse = moments_ode(&model, case.order, case.t, method, coarse_steps as usize)
            .map_err(|e| solve_error("ode-rk4", &e))?;
        let fine = moments_ode(&model, case.order, case.t, method, 2 * coarse_steps as usize)
            .map_err(|e| solve_error("ode-rk4", &e))?;
        drop(_ode_span);
        compare_bounded("ode-rk4", &reference.weighted, &fine.weighted, |n| {
            // Step-doubling: |fine − coarse| over-estimates the fine
            // solution's own error by ~15× for RK4, so using the raw
            // difference as the budget is already conservative.
            let est = (fine.weighted[n] - coarse.weighted[n]).abs();
            let s = scale(reference.weighted[n], fine.weighted[n]);
            let tol = reference.error_bound(n) + est + cfg.rel_floor * s;
            (
                tol,
                format!(
                    "bound_rnd={:e} + richardson={:e} + floor={:e} (steps {})",
                    reference.error_bound(n),
                    est,
                    cfg.rel_floor * s,
                    2 * coarse_steps
                ),
            )
        })?;
        stats.ode_checked = true;
        rec.counter_add("verify.checks.ode", 1);
    }

    // --- Monte-Carlo simulation with a CLT half-width tolerance. ---
    let qt = q * case.t;
    let samples = ((cfg.sim_jump_budget / qt.max(1.0)) as usize).min(cfg.sim_samples);
    if samples >= cfg.sim_min_samples {
        let est = rec.time("verify.solve.sim", || {
            estimate_moments(rng, &model, case.order, case.t, samples)
        });
        compare_bounded("simulation", &reference.weighted, &est.estimates, |n| {
            let s = scale(reference.weighted[n], est.estimates[n]);
            let half_width = cfg.sim_z * est.std_errors[n];
            let tol = reference.error_bound(n) + half_width + cfg.rel_floor * s;
            (
                tol,
                format!(
                    "bound_rnd={:e} + {}sigma={:e} + floor={:e} ({} samples)",
                    reference.error_bound(n),
                    cfg.sim_z,
                    half_width,
                    cfg.rel_floor * s,
                    samples
                ),
            )
        })?;
        stats.sim_checked = true;
        rec.counter_add("verify.checks.sim", 1);
    }

    Ok(stats)
}

/// The `rnd-weighted` arm: a weighted query on `plan` against the
/// per-state `reference`, and its series across a resume, formats and a
/// pool.
fn check_weighted(
    model: &SecondOrderMrm,
    case: &VerifyCase,
    cfg: &OracleConfig,
    base: &SolverConfig,
    plan: &SolvePlan,
    reference: &MomentSolution,
) -> Result<(), Violation> {
    const CHECK: &str = "rnd-weighted";
    // Queries `steps` in turn on one fresh series; the series' values
    // (every order, every step) and the last answer.
    let run = |plan: &SolvePlan, steps: &[f64]| {
        let mut series = ProjectedSeries::new(model.initial().to_vec());
        let mut answer = Vec::new();
        for &t in steps {
            answer = plan
                .execute_weighted(&mut series, &[t], case.order)
                .map_err(|e| solve_error(CHECK, &e))?
                .0;
        }
        let values: Vec<f64> = (0..=series.order())
            .flat_map(|j| series.values(j))
            .collect();
        Ok::<_, Violation>((values, answer.remove(0)))
    };
    let bounded = |candidate: &MomentSolution, against: &MomentSolution| {
        compare_bounded(CHECK, &against.weighted, &candidate.weighted, |n| {
            let s = scale(against.weighted[n], candidate.weighted[n]);
            let tol = against.error_bound(n) + candidate.error_bound(n) + cfg.rel_floor * s;
            (
                tol,
                format!(
                    "bound_exec={:e} + bound_weighted={:e} + floor={:e}",
                    against.error_bound(n),
                    candidate.error_bound(n),
                    cfg.rel_floor * s
                ),
            )
        })
    };
    let (values, answer) = run(plan, &[case.t])?;
    bounded(&answer, reference)?;
    // To about G/2, then resumed: the same series, the same answer.
    let (resumed, again) = run(plan, &[case.t / 2.0, case.t])?;
    compare_bitwise(CHECK, &values, &resumed)?;
    compare_bitwise(CHECK, &answer.weighted, &again.weighted)?;
    // A series that may not grow folds its scalars as they come: the
    // same answer.
    let mut unkept = ProjectedSeries::new(model.initial().to_vec()).with_max_bytes(0);
    let streamed = plan
        .execute_weighted(&mut unkept, &[case.t], case.order)
        .map_err(|e| solve_error(CHECK, &e))?
        .0;
    compare_bitwise(CHECK, &answer.weighted, &streamed[0].weighted)?;
    // DIA strips project the same bits.
    let dia_cfg = SolverConfig {
        format: MatrixFormat::Dia,
        ..base.clone()
    };
    let dia = SolvePlan::build(model, case.order, &dia_cfg).map_err(|e| solve_error(CHECK, &e))?;
    let (dia_values, dia_answer) = run(&dia, &[case.t])?;
    compare_bitwise(CHECK, &values, &dia_values)?;
    compare_bitwise(CHECK, &answer.weighted, &dia_answer.weighted)?;
    // A pool sums its chunks' lanes in chunk order: within the bound.
    let pool_cfg = SolverConfig {
        threads: 2,
        parallel_threshold: 2,
        ..base.clone()
    };
    let pooled =
        SolvePlan::build(model, case.order, &pool_cfg).map_err(|e| solve_error(CHECK, &e))?;
    let (_, pooled_answer) = run(&pooled, &[case.t])?;
    bounded(&pooled_answer, &answer)
}

/// Builds the case's Kronecker companion: a 2×3-factor composite chain
/// (6 states) with rates derived deterministically from the case's own
/// parameters, annotated with a [`ModelStructure::KroneckerSum`]
/// descriptor. The flat generator is assembled from the *same* factor
/// entries the operator enumerates, so the operator's off-diagonal
/// values (`a · 1/q`) coincide exactly with CSR's (`v · 1/q`), and its
/// diagonal is aligned with the stored `Q` — bitwise agreement is owed,
/// not hoped for.
fn kron_companion(case: &VerifyCase) -> Result<SecondOrderMrm, MrmError> {
    let r0 = case
        .transitions
        .first()
        .map_or(1.0, |&(_, _, r)| r.abs().clamp(0.125, 8.0));
    let r1 = (0.5 + case.t).clamp(0.25, 4.0);
    let f0 = Mat::from_rows(&[&[0.0, r0][..], &[0.5 * r1, 0.0][..]])
        .expect("2x2 factor rows are rectangular");
    let f1 = Mat::from_rows(&[
        &[0.0, r1, 0.0][..],
        &[0.75 * r0, 0.0, 1.5][..],
        &[0.0, 2.0 * r1, 0.0][..],
    ])
    .expect("3x3 factor rows are rectangular");
    let factors = vec![f0, f1];

    // Flat generator over the mixed-radix product space (outer factor
    // stride 3, inner stride 1), emitting each factor's off-diagonal
    // entries verbatim.
    let (sizes, strides) = ([2usize, 3], [3usize, 1]);
    let n = 6;
    let mut b = GeneratorBuilder::new(n);
    for i in 0..n {
        let digits = [i / 3, i % 3];
        for k in 0..2 {
            let jk = digits[k];
            let base = i - jk * strides[k];
            for c in 0..sizes[k] {
                let a = factors[k][(jk, c)];
                if c != jk && a > 0.0 {
                    b.rate(i, base + c * strides[k], a)?;
                }
            }
        }
    }
    let drifts: Vec<f64> = (0..n).map(|i| case.drifts[i % case.drifts.len()]).collect();
    let variances: Vec<f64> = (0..n)
        .map(|i| case.variances[i % case.variances.len()])
        .collect();
    let mut initial = vec![0.0; n];
    initial[0] = 1.0;
    SecondOrderMrm::new(b.build()?, drifts, variances, initial)?
        .with_structure(ModelStructure::KroneckerSum { factors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Family;
    use crate::generate::case_rng;

    fn simple_case() -> VerifyCase {
        VerifyCase {
            id: "oracle-test".to_string(),
            family: Family::BirthDeath,
            n_states: 3,
            transitions: vec![(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0), (2, 1, 0.5)],
            drifts: vec![1.0, -2.0, 4.0],
            variances: vec![0.5, 0.0, 1.5],
            initial: vec![1.0, 0.0, 0.0],
            t: 0.8,
            order: 3,
            note: String::new(),
        }
    }

    #[test]
    fn healthy_case_passes_all_checks() {
        let case = simple_case();
        let stats = check_case(&case, &OracleConfig::default(), &mut case_rng(1, 1))
            .unwrap_or_else(|v| panic!("unexpected violation: {v}"));
        assert!(stats.dia_checked);
        assert!(
            stats.kron_checked,
            "every case runs the Kronecker companion"
        );
        assert!(stats.pool_checked);
        assert!(stats.plan_checked);
        assert!(stats.weighted_checked);
        assert!(stats.ode_checked);
        assert!(stats.sim_checked);
        assert!(!stats.first_order_checked, "model has positive variances");
    }

    #[test]
    fn first_order_path_engages_on_zero_variance_models() {
        let mut case = simple_case();
        case.variances = vec![0.0; 3];
        let stats =
            check_case(&case, &OracleConfig::default(), &mut case_rng(1, 2)).unwrap();
        assert!(stats.first_order_checked);
    }

    #[test]
    fn t_zero_boundary_passes() {
        let mut case = simple_case();
        case.t = 0.0;
        let stats =
            check_case(&case, &OracleConfig::default(), &mut case_rng(1, 3)).unwrap();
        assert!(stats.dia_checked && stats.pool_checked && stats.plan_checked);
    }

    #[test]
    fn corrupted_model_is_caught() {
        // A hostile candidate: compare the reference against itself with
        // one moment perturbed far beyond any earned tolerance, through
        // the same comparator the real checks use.
        let case = simple_case();
        let model = case.build().unwrap();
        let cfg = OracleConfig::default();
        let base = SolverConfig {
            epsilon: cfg.epsilon,
            ..SolverConfig::default()
        };
        let sol = moments(&model, case.order, case.t, &base).unwrap();
        let mut bad = sol.weighted.clone();
        bad[2] *= 1.0 + 1e-3;
        let err = compare_bounded("ode-rk4", &sol.weighted, &bad, |n| {
            (sol.error_bound(n) + cfg.rel_floor, "test".to_string())
        })
        .unwrap_err();
        assert_eq!(err.order, 2);
        assert_eq!(err.check, "ode-rk4");
        assert!(err.to_json().contains("\"order\":2"));
    }

    #[test]
    fn recorder_counts_checks_without_changing_outcomes() {
        use somrm_obs::MetricsRegistry;
        use std::sync::Arc;

        let case = simple_case();
        let plain = check_case(&case, &OracleConfig::default(), &mut case_rng(1, 9)).unwrap();

        let registry = Arc::new(MetricsRegistry::new());
        let cfg = OracleConfig {
            recorder: RecorderHandle::new(registry.clone()),
            ..OracleConfig::default()
        };
        let observed = check_case(&case, &cfg, &mut case_rng(1, 9)).unwrap();
        assert_eq!(plain, observed, "recorder must not change which checks run");

        let snap = registry.snapshot();
        assert_eq!(snap.counter("verify.cases"), Some(1));
        assert_eq!(snap.counter("verify.passed"), Some(1));
        assert_eq!(snap.counter("verify.checks.dia"), Some(1));
        assert_eq!(snap.counter("verify.checks.kron"), Some(1));
        assert_eq!(snap.counter("verify.checks.pool"), Some(1));
        assert_eq!(snap.counter("verify.checks.plan"), Some(1));
        assert_eq!(snap.counter("verify.checks.sim"), Some(1));
        assert_eq!(snap.counter("verify.violations"), None);
        assert!(
            snap.timings.iter().any(|(n, _)| n == "verify.case"),
            "per-case wall time must be recorded"
        );
        assert!(snap
            .timings
            .iter()
            .any(|(n, _)| n == "verify.solve.reference"));
    }

    #[test]
    fn bitwise_comparison_rejects_ulp_differences() {
        let a = [1.0f64, 2.0, 3.0];
        let mut b = a;
        b[1] = f64::from_bits(b[1].to_bits() + 1);
        let err = compare_bitwise("rnd-dia", &a, &b).unwrap_err();
        assert_eq!(err.order, 1);
    }
}
