//! Terminal-state-resolved reward moments.
//!
//! Classic performability questions condition on where the system ends
//! up: *"how much work is done by time `t` **and** the system is
//! operational at `t`?"* Formally, for a terminal weight vector `w`,
//!
//! ```text
//! W⁽ⁿ⁾_i(t) = E[ Bⁿ(t) · w_{Z(t)} | Z(0) = i ].
//! ```
//!
//! `w = 1` recovers the plain moments; `w = 1_{A}` gives the restricted
//! (defective) moments on the event `{Z(t) ∈ A}`, whose order-0 entry is
//! `P[Z(t) ∈ A | Z(0) = i]`. The derivation of Theorem 2 goes through
//! verbatim with the initial condition `W⁽⁰⁾(0) = w` instead of `1`
//! (the conditioning argument is on the *first* interval, so only the
//! terminal boundary changes), and Theorem 3's recursion follows with
//! `U⁽⁰⁾(0) = w` — one extra detail: Lemma 2 bounds coefficients by
//! `‖w‖_∞·g_{n,k}`, so the Theorem-4 truncation picks up a factor
//! `max(1, ‖w‖_∞)`.

use crate::error::MrmError;
use crate::model::SecondOrderMrm;
use crate::uniformization::{MomentSolution, SolverConfig};

/// Computes terminal-weighted raw moments
/// `E[Bⁿ(t)·w_{Z(t)} | Z(0) = i]` for `n = 0 ..= order`.
///
/// The returned [`MomentSolution`] holds these defective moments; its
/// order-0 entries equal `E[w_{Z(t)}]` rather than 1.
///
/// # Errors
///
/// Same conditions as [`crate::uniformization::moments`], plus a
/// length/validity check on `terminal_weights` (finite, non-negative).
///
/// # Example
///
/// ```
/// use somrm_ctmc::generator::GeneratorBuilder;
/// use somrm_core::model::SecondOrderMrm;
/// use somrm_core::terminal::moments_terminal_weighted;
/// use somrm_core::uniformization::SolverConfig;
///
/// let mut b = GeneratorBuilder::new(2);
/// b.rate(0, 1, 1.0)?;
/// b.rate(1, 0, 1.0)?;
/// let m = SecondOrderMrm::new(b.build()?, vec![1.0, 0.0], vec![0.1, 0.0], vec![1.0, 0.0])?;
/// // Reward accumulated *and* chain in state 0 at t.
/// let sol = moments_terminal_weighted(&m, 1, 0.5, &[1.0, 0.0], &SolverConfig::default())?;
/// assert!(sol.raw_moment(0) < 1.0); // P[Z(t)=0] < 1
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
/// # Implementation
///
/// A thin wrapper over the plan/execute split: builds a one-shot
/// [`crate::plan::SolvePlan`] and calls
/// [`crate::plan::SolvePlan::execute_terminal`] once. Repeated terminal
/// queries on the same model should keep the plan; results are
/// bit-identical either way.
pub fn moments_terminal_weighted(
    model: &SecondOrderMrm,
    order: usize,
    t: f64,
    terminal_weights: &[f64],
    config: &SolverConfig,
) -> Result<MomentSolution, MrmError> {
    crate::plan::SolvePlan::build(model, order, config)?.execute_terminal(t, terminal_weights, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniformization::moments;
    use somrm_ctmc::generator::GeneratorBuilder;
    use somrm_ctmc::transient::transient_distribution;

    fn model2() -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 2.0).unwrap();
        SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, 4.0],
            vec![0.5, 2.0],
            vec![1.0, 0.0],
        )
        .unwrap()
    }

    #[test]
    fn unit_weights_recover_plain_moments() {
        let m = model2();
        let t = 0.8;
        let a =
            moments_terminal_weighted(&m, 3, t, &[1.0, 1.0], &SolverConfig::default()).unwrap();
        let b = moments(&m, 3, t, &SolverConfig::default()).unwrap();
        for n in 0..=3 {
            assert!(
                (a.raw_moment(n) - b.raw_moment(n)).abs() < 1e-9 * b.raw_moment(n).abs().max(1.0),
                "order {n}"
            );
        }
    }

    #[test]
    fn order_zero_is_transient_probability() {
        let m = model2();
        let t = 0.6;
        let sol =
            moments_terminal_weighted(&m, 2, t, &[0.0, 1.0], &SolverConfig::default()).unwrap();
        let p = transient_distribution(m.generator(), m.initial(), t, 1e-12).unwrap();
        assert!(
            (sol.raw_moment(0) - p[1]).abs() < 1e-9,
            "{} vs {}",
            sol.raw_moment(0),
            p[1]
        );
    }

    #[test]
    fn indicator_weights_partition_the_moments() {
        // Σ over a partition of terminal indicators = plain moments.
        let m = model2();
        let t = 1.1;
        let a =
            moments_terminal_weighted(&m, 3, t, &[1.0, 0.0], &SolverConfig::default()).unwrap();
        let b =
            moments_terminal_weighted(&m, 3, t, &[0.0, 1.0], &SolverConfig::default()).unwrap();
        let total = moments(&m, 3, t, &SolverConfig::default()).unwrap();
        for n in 0..=3 {
            assert!(
                (a.raw_moment(n) + b.raw_moment(n) - total.raw_moment(n)).abs()
                    < 1e-8 * total.raw_moment(n).abs().max(1.0),
                "order {n}"
            );
        }
    }

    #[test]
    fn linear_in_the_weights() {
        let m = model2();
        let t = 0.5;
        let w1 = [2.0, 0.5];
        let a = moments_terminal_weighted(&m, 2, t, &w1, &SolverConfig::default()).unwrap();
        let e0 =
            moments_terminal_weighted(&m, 2, t, &[1.0, 0.0], &SolverConfig::default()).unwrap();
        let e1 =
            moments_terminal_weighted(&m, 2, t, &[0.0, 1.0], &SolverConfig::default()).unwrap();
        for n in 0..=2 {
            let combo = 2.0 * e0.raw_moment(n) + 0.5 * e1.raw_moment(n);
            assert!((a.raw_moment(n) - combo).abs() < 1e-8, "order {n}");
        }
    }

    #[test]
    fn negative_rates_handled_via_shift() {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        let m = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![-2.0, 3.0],
            vec![0.5, 0.5],
            vec![1.0, 0.0],
        )
        .unwrap();
        let t = 0.7;
        let a =
            moments_terminal_weighted(&m, 2, t, &[1.0, 1.0], &SolverConfig::default()).unwrap();
        let plain = moments(&m, 2, t, &SolverConfig::default()).unwrap();
        for n in 0..=2 {
            assert!((a.raw_moment(n) - plain.raw_moment(n)).abs() < 1e-8, "order {n}");
        }
    }

    #[test]
    fn zero_time_weights_by_initial_state() {
        let m = model2();
        let sol =
            moments_terminal_weighted(&m, 1, 0.0, &[3.0, 7.0], &SolverConfig::default()).unwrap();
        // Start in state 0 surely: E[w_{Z(0)}] = 3.
        assert!((sol.raw_moment(0) - 3.0).abs() < 1e-12);
        assert_eq!(sol.raw_moment(1), 0.0);
    }

    #[test]
    fn invalid_weights_rejected() {
        let m = model2();
        let cfg = SolverConfig::default();
        assert!(moments_terminal_weighted(&m, 1, 1.0, &[1.0], &cfg).is_err());
        assert!(moments_terminal_weighted(&m, 1, 1.0, &[-1.0, 1.0], &cfg).is_err());
        assert!(moments_terminal_weighted(&m, 1, 1.0, &[f64::NAN, 1.0], &cfg).is_err());
    }
}
