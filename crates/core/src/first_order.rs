//! Dedicated first-order (ordinary) MRM moment solver.
//!
//! The second-order solver handles `S = 0` transparently, but the paper's
//! complexity claim — *"the computational cost … is practically the same
//! as the one of the analysis of first-order reward models"* — deserves a
//! genuinely independent first-order implementation to benchmark against.
//! This is the classical randomization recursion without the `S'` term:
//!
//! ```text
//! U⁽ⁿ⁾(k+1) = R'·U⁽ⁿ⁻¹⁾(k) + Q'·U⁽ⁿ⁾(k),   V⁽ⁿ⁾(t) = n!·dⁿ·Σ w_k U⁽ⁿ⁾(k).
//! ```

use crate::error::MrmError;
use crate::model::SecondOrderMrm;
use crate::moments::unshift_moments;
use crate::plan::SolvePlan;
use crate::uniformization::{
    bound_fronts, poisson_accounting, truncation_point, validate_times, weighted_moments,
    MomentSolution, SolverConfig, SolverStats,
};
use somrm_num::poisson::PoissonWindow;
use somrm_num::special::ln_factorial;
use somrm_num::sum::NeumaierSum;
use somrm_obs::{HealthMonitor, ProgressMeter, SolveReport, SolverSection};
use std::sync::Arc;

/// Computes raw moments `0 ..= order` of a **first-order** model at time
/// `t` with the classical (variance-free) randomization recursion.
///
/// # Errors
///
/// * [`MrmError::InvalidParameter`] if the model has any non-zero
///   variance (use [`crate::uniformization::moments`] instead), or for
///   an invalid `t` or configuration.
/// * [`MrmError::TruncationCapExceeded`] if the Theorem-4 truncation
///   point exceeds `max_iterations`.
/// * [`MrmError::FormatUnsupported`] or [`MrmError::AllocationTooLarge`]
///   if `config.format` cannot hold the model, as for a [`SolvePlan`].
///
/// # Example
///
/// ```
/// use somrm_ctmc::generator::GeneratorBuilder;
/// use somrm_core::model::SecondOrderMrm;
/// use somrm_core::first_order::moments_first_order;
/// use somrm_core::uniformization::SolverConfig;
///
/// let mut b = GeneratorBuilder::new(2);
/// b.rate(0, 1, 1.0)?;
/// b.rate(1, 0, 1.0)?;
/// let m = SecondOrderMrm::first_order(b.build()?, vec![1.0, 1.0], vec![1.0, 0.0])?;
/// let sol = moments_first_order(&m, 1, 0.5, &SolverConfig::default())?;
/// assert!((sol.mean() - 0.5).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn moments_first_order(
    model: &SecondOrderMrm,
    order: usize,
    t: f64,
    config: &SolverConfig,
) -> Result<MomentSolution, MrmError> {
    if !model.is_first_order() {
        return Err(MrmError::InvalidParameter {
            name: "model",
            reason: "model has non-zero variances; use the second-order solver".to_string(),
        });
    }
    let n_states = model.n_states();
    validate_times(&[t])?;
    config.validate(n_states)?;
    let q = model.generator().uniformization_rate();
    let shift = model.min_rate().min(0.0);
    let shifted: Vec<f64> = model.rates().iter().map(|&r| r - shift).collect();
    let max_rate = shifted.iter().copied().fold(0.0, f64::max);

    // Degenerate paths reuse the second-order solver's logic by calling
    // the general routine (it costs the same in these cases).
    if q == 0.0 || max_rate == 0.0 || t == 0.0 {
        return crate::uniformization::moments(model, order, t, config);
    }

    let rec = &config.recorder;
    let d = max_rate / q;
    let (q_prime, r_prime) = rec.time("solve.setup", || {
        let q_prime = SolvePlan::resolve_matrix(model, q, config.format)?;
        let r_prime: Vec<f64> = shifted.iter().map(|&r| r / (q * d)).collect();
        Ok::<_, MrmError>((q_prime, r_prime))
    })?;

    let qt = q * t;
    // Front factor 2, as for second order: without the `S` term the
    // coefficient bound is `U⁽ⁿ⁾(k) ≤ k!/(k−n)!` (no factor 2), but the
    // shared bound makes first- and second-order runs truncate
    // identically, which keeps the cost comparison like for like.
    let (g_limit, error_bounds) = rec.time("solve.truncation", || {
        truncation_point(
            qt,
            &bound_fronts(d, order, |_| std::f64::consts::LN_2),
            0,
            config,
        )
    })?;
    let error_bound = error_bounds.iter().copied().fold(0.0, f64::max);
    if rec.enabled() {
        rec.gauge_set("solver.q", q);
        rec.gauge_set("solver.d", d);
        rec.gauge_set("solver.qt", qt);
        rec.gauge_set("solver.shift", shift);
        rec.gauge_set("solver.g", g_limit as f64);
        rec.gauge_set("solver.error_bound", error_bound);
        rec.gauge_set(
            "solver.matrix_format",
            if q_prime.is_dia() { 1.0 } else { 0.0 },
        );
        rec.gauge_set("solver.bandwidth", q_prime.bandwidth() as f64);
    }
    let window = rec.time("solve.poisson", || Some(PoissonWindow::exact(qt, g_limit)));

    let mut u: Vec<Vec<f64>> = (0..=order)
        .map(|j| vec![if j == 0 { 1.0 } else { 0.0 }; n_states])
        .collect();
    let mut acc: Vec<Vec<NeumaierSum>> = vec![vec![NeumaierSum::new(); n_states]; order + 1];
    let mut scratch = vec![0.0f64; n_states];

    let mut health = rec.enabled().then(|| HealthMonitor::new(g_limit, order));
    let mut meter = config
        .progress
        .then(|| ProgressMeter::new("solve.recursion", g_limit));
    let recursion = rec.span("solve.recursion");
    for k in 0..=g_limit {
        let wk = window.as_ref().map_or(0.0, |w| w.weight(k));
        if wk > 0.0 {
            for j in 0..=order {
                for i in 0..n_states {
                    acc[j][i].add(wk * u[j][i]);
                }
            }
        }
        if let Some(h) = health.as_mut() {
            if h.should_sample(k, g_limit) {
                for (j, uj) in u.iter().enumerate() {
                    h.observe_order(j, uj);
                }
            }
        }
        if let Some(m) = meter.as_mut() {
            m.tick(k);
        }
        if k == g_limit {
            break;
        }
        for j in (0..=order).rev() {
            q_prime.matvec_into(&u[j], &mut scratch);
            if j >= 1 {
                let (lo, hi) = u.split_at_mut(j);
                let uj = &mut hi[0];
                let ujm1 = &lo[j - 1];
                for i in 0..n_states {
                    uj[i] = scratch[i] + r_prime[i] * ujm1[i];
                }
            } else {
                u[0].copy_from_slice(&scratch);
            }
        }
    }
    drop(recursion);
    if let Some(h) = health.as_mut() {
        for row in &acc {
            for a in row {
                h.observe_compensation(a.raw_sum(), a.compensation());
            }
        }
    }

    let assemble = rec.span("solve.assemble");
    let shifted_moments: Vec<Vec<f64>> = (0..=order)
        .map(|j| {
            let scale = (ln_factorial(j as u64) + j as f64 * d.ln()).exp();
            acc[j].iter().map(|a| scale * a.value()).collect()
        })
        .collect();
    let per_state = unshift_moments(&shifted_moments, shift, t);
    let weighted = weighted_moments(&per_state, model.initial());
    drop(assemble);

    let report = rec.enabled().then(|| {
        Arc::new(SolveReport {
            command: "first_order".to_string(),
            solver: Some(SolverSection {
                q,
                d,
                qt,
                shift,
                g: g_limit,
                max_iterations: config.max_iterations,
                epsilon: config.epsilon,
                order,
                n_states,
                n_times: 1,
                threads: 1,
                // The first-order recursion runs serial matvecs, not
                // the fused kernel — always strict scalar arithmetic.
                error_bound,
                error_bounds: error_bounds.clone(),
                // The reference keeps the whole exact window: no left cut.
                poisson: poisson_accounting(&[t], std::slice::from_ref(&window), &[0.0], g_limit),
            }),
            pool: None,
            health: health.take().map(|h| h.finish(rec)),
            mem: None,
            metrics: rec.snapshot().unwrap_or_default(),
        })
    });

    Ok(MomentSolution {
        t,
        per_state,
        weighted,
        stats: SolverStats {
            q,
            d,
            shift,
            iterations: g_limit,
            error_bound,
        },
        error_bounds,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniformization::moments;
    use somrm_ctmc::generator::GeneratorBuilder;

    fn first_order_model(r: [f64; 2]) -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 2.0).unwrap();
        SecondOrderMrm::first_order(b.build().unwrap(), r.to_vec(), vec![1.0, 0.0]).unwrap()
    }

    #[test]
    fn agrees_with_general_solver() {
        let m = first_order_model([0.0, 3.0]);
        for &t in &[0.1, 0.7, 2.0] {
            let a = moments_first_order(&m, 4, t, &SolverConfig::default()).unwrap();
            let b = moments(&m, 4, t, &SolverConfig::default()).unwrap();
            for j in 0..=4 {
                let scale = b.raw_moment(j).abs().max(1.0);
                assert!(
                    (a.raw_moment(j) - b.raw_moment(j)).abs() < 1e-8 * scale,
                    "t = {t}, order {j}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_general_solver_negative_rates() {
        let m = first_order_model([-1.0, 2.0]);
        let a = moments_first_order(&m, 3, 0.9, &SolverConfig::default()).unwrap();
        let b = moments(&m, 3, 0.9, &SolverConfig::default()).unwrap();
        for j in 0..=3 {
            assert!((a.raw_moment(j) - b.raw_moment(j)).abs() < 1e-8);
        }
    }

    #[test]
    fn rejects_second_order_models() {
        let mut b = GeneratorBuilder::new(1);
        let _ = &mut b;
        let m = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0],
            vec![1.0],
            vec![1.0],
        )
        .unwrap();
        assert!(matches!(
            moments_first_order(&m, 1, 1.0, &SolverConfig::default()),
            Err(MrmError::InvalidParameter { name: "model", .. })
        ));
    }

    #[test]
    fn zero_time_and_frozen_paths_delegate() {
        let m = first_order_model([1.0, 2.0]);
        let sol = moments_first_order(&m, 2, 0.0, &SolverConfig::default()).unwrap();
        assert_eq!(sol.raw_moment(1), 0.0);
    }
}
