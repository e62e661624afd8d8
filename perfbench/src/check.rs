//! Correctness checks, with tolerances rather than bit equality so that
//! a change that reorders sums or trims Poisson windows inside the
//! Theorem-4 contract still passes.

use somrm_core::MomentSolution;
use somrm_obs::json::Value;

/// Relative slack for roundoff between two solves of one query that
/// differ only in truncation point and merged time grid.
pub const ROUNDOFF: f64 = 1e-9;

/// `err <= tol`, false for NaN.
fn within(err: f64, tol: f64) -> bool {
    err <= tol
}

/// `solve-paper`: started from the stationary distribution, the mean
/// accumulated reward is exactly `rate·t`. The tolerance is the one of
/// the tier-2 test `table2_full_scale_solves_on_dia_kernel`.
pub fn paper_solution(sol: &MomentSolution, rate: f64) -> Result<(), String> {
    let expect = rate * sol.t;
    let tol = sol.error_bound(1) + 1e-7 * expect;
    if !within((sol.mean() - expect).abs(), tol) {
        return Err(format!(
            "mean {} vs closed form {expect} (tolerance {tol})",
            sol.mean()
        ));
    }
    if sol.variance().is_nan() || sol.variance() <= 0.0 {
        return Err(format!("variance {} is not positive", sol.variance()));
    }
    Ok(())
}

fn numbers(v: Option<&Value>, what: &str) -> Result<Vec<f64>, String> {
    v.and_then(Value::as_array)
        .ok_or_else(|| format!("response lacks {what}"))?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| format!("non-numeric {what}")))
        .collect()
}

/// A serve response against an independent cold solve of the same
/// model, times and order: each moment must lie within the sum of both
/// reported per-order bounds plus roundoff slack.
pub fn serve_response(
    resp: &Value,
    times: &[f64],
    order: usize,
    reference: &[MomentSolution],
) -> Result<(), String> {
    if resp.get("ok") != Some(&Value::Bool(true)) {
        let err = resp.get("error").and_then(Value::as_str).unwrap_or("?");
        return Err(format!("error response: {err}"));
    }
    let results = resp
        .get("results")
        .and_then(Value::as_array)
        .ok_or("response lacks results")?;
    if results.len() != times.len() {
        return Err(format!(
            "{} results for {} times",
            results.len(),
            times.len()
        ));
    }
    for ((r, &t), sol) in results.iter().zip(times).zip(reference) {
        if r.get("t").and_then(Value::as_f64) != Some(t) {
            return Err(format!("result for t={t} missing or out of order"));
        }
        let moments = numbers(r.get("moments"), "moments")?;
        let bounds = numbers(r.get("error_bounds"), "error_bounds")?;
        if moments.len() != order + 1 || bounds.len() != order + 1 {
            return Err(format!("expected {} moments at t={t}", order + 1));
        }
        for j in 0..=order {
            let want = sol.weighted[j];
            let tol = bounds[j] + sol.error_bound(j) + ROUNDOFF * want.abs();
            if !within((moments[j] - want).abs(), tol) {
                return Err(format!(
                    "moment {j} at t={t}: served {} vs cold {want} (tolerance {tol})",
                    moments[j]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::workload::{multiplexer, request_line, Pi, ServeModel};
    use somrm_core::uniformization::{moments_sweep, SolverConfig};
    use somrm_serve::{serve_batch, PlanCache};

    #[test]
    fn checker_accepts_served_moments_and_rejects_a_perturbed_one() {
        let model = multiplexer(60, 10.0, Pi::Steady, &mut Rng::new(3, 0));
        let sm = ServeModel {
            text: crate::workload::model_text(&model),
            model,
            file: None,
        };
        let cfg = SolverConfig::default();
        let times = [0.5, 1.25];
        // Two requests coalesce: the order-1 one is answered from an
        // order-3 sweep, so its truncation differs from its cold solve.
        let lines = vec![
            request_line(0, &sm, &times, 1),
            request_line(1, &sm, &[2.0], 3),
        ];
        let resolver =
            |spec: &somrm_serve::ModelSpec| somrm_cli::commands::resolve_model_spec(spec);
        let mut cache = PlanCache::new(8, Default::default());
        let out = serve_batch(&lines, &resolver, &mut cache, &cfg);
        let resp = somrm_obs::json::parse(&out.responses[0]).unwrap();
        let reference = moments_sweep(&sm.model, 1, &times, &cfg).unwrap();
        serve_response(&resp, &times, 1, &reference).unwrap();

        let sol = &reference[1];
        let mut bad = reference.clone();
        let tol = sol.error_bound(1) * 2.0 + ROUNDOFF * sol.weighted[1].abs();
        bad[1].weighted[1] += 2.0 * tol + 1e-6 * sol.weighted[1].abs();
        assert!(serve_response(&resp, &times, 1, &bad).is_err());
        assert!(serve_response(&resp, &times[..1], 1, &reference[..1]).is_err());
        let err = somrm_obs::json::parse(r#"{"id":0,"ok":false,"error":"x"}"#).unwrap();
        assert!(serve_response(&err, &times, 1, &reference).is_err());
    }

    #[test]
    fn paper_check_rejects_a_perturbed_mean() {
        let m = somrm_models::onoff::OnOffMultiplexer::table2_scaled(200);
        let model = m.model_steady_start().unwrap();
        let sol = somrm_core::solve_moments(&model, 2, 0.5, &SolverConfig::default()).unwrap();
        let rate = m.steady_state_mean_rate();
        paper_solution(&sol, rate).unwrap();
        let mut bad = sol.clone();
        bad.weighted[1] *= 1.0 + 1e-5;
        assert!(paper_solution(&bad, rate).is_err());
    }
}
