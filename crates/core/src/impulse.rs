//! Impulse rewards — the extension the paper's introduction points at.
//!
//! Section 1 of the paper restricts the presentation to rate rewards
//! but notes that "the introduced solution method allows to relax these
//! restrictions". This module does exactly that: a transition `i → j`
//! may additionally deposit a deterministic impulse reward `c_ij ≥ 0`
//! into `B(t)`.
//!
//! # Theory
//!
//! Conditioning on the first event in `(0, Δ)` as in Theorem 1, a
//! transition `i → j` multiplies the transform by `e^{−v·c_ij}`, so the
//! moment ODE (eq. 6) gains impulse terms. With the *moment matrices*
//! `Q_l = { q_ij · c_ij^l }` (for `l ≥ 1`, off-diagonal only):
//!
//! ```text
//! d/dt V⁽ⁿ⁾ = Q·V⁽ⁿ⁾ + n·R·V⁽ⁿ⁻¹⁾ + ½n(n−1)·S·V⁽ⁿ⁻²⁾
//!             + Σ_{l=1}^{n} C(n,l)·Q_l·V⁽ⁿ⁻ˡ⁾.
//! ```
//!
//! Uniformizing with rate `q` and the normalization `d` extended to
//! also dominate the impulses (`d ≥ max c_ij`), the randomization
//! recursion becomes
//!
//! ```text
//! U⁽ⁿ⁾(k+1) = Q'·U⁽ⁿ⁾(k) + R'·U⁽ⁿ⁻¹⁾(k) + ½S'·U⁽ⁿ⁻²⁾(k)
//!             + Σ_{l=1}^{n} Q'_l·U⁽ⁿ⁻ˡ⁾(k),
//! Q'_l = Q_l / (q·dˡ·l!),
//! ```
//!
//! with every `Q'_l` substochastic. The coefficients obey
//! `U⁽ⁿ⁾(k) ≤ [xⁿ] (1 + x + ½x² + Σ_{l≥1} xˡ/l!)ᵏ ≤ [xⁿ] e^{2xk}
//! = (2k)ⁿ/n!`, and for `k ≥ 2n` one has `(2k)ⁿ ≤ 4ⁿ·k!/(k−n)!`,
//! giving the Theorem-4-style truncation bound
//! `ξ(G) ≤ 4ⁿ·dⁿ·n!·(qt)ⁿ·P[Pois(qt) > G−n]` — same shape, a factor
//! `2ⁿ` looser, still fully computable.

use crate::error::MrmError;
use crate::model::SecondOrderMrm;
use crate::plan::SolvePlan;
use crate::uniformization::{MomentSolution, SolverConfig};
use somrm_linalg::sparse::{CsrMatrix, TripletBuilder};

/// A second-order Markov reward model extended with deterministic
/// impulse rewards at transitions.
///
/// # Example
///
/// ```
/// use somrm_ctmc::generator::GeneratorBuilder;
/// use somrm_core::model::SecondOrderMrm;
/// use somrm_core::impulse::ImpulseMrm;
///
/// let mut b = GeneratorBuilder::new(2);
/// b.rate(0, 1, 1.0)?;
/// b.rate(1, 0, 1.0)?;
/// let base = SecondOrderMrm::new(b.build()?, vec![0.0, 0.0], vec![0.0, 0.0], vec![1.0, 0.0])?;
/// // Each 0 -> 1 transition deposits 2.5 units of reward.
/// let model = ImpulseMrm::new(base, &[(0, 1, 2.5)])?;
/// assert_eq!(model.impulse(0, 1), 2.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImpulseMrm {
    base: SecondOrderMrm,
    /// Sparse impulse matrix `C = {c_ij}` (off-diagonal, non-negative).
    impulses: CsrMatrix<f64>,
    max_impulse: f64,
}

impl ImpulseMrm {
    /// Attaches impulses `(from, to, amount)` to a base model.
    ///
    /// # Errors
    ///
    /// * [`MrmError::InvalidParameter`] if an impulse is negative,
    ///   non-finite, on the diagonal, or on a pair with zero transition
    ///   rate (it could never fire).
    pub fn new(
        base: SecondOrderMrm,
        impulses: &[(usize, usize, f64)],
    ) -> Result<Self, MrmError> {
        let n = base.n_states();
        let mut b = TripletBuilder::with_capacity(n, n, impulses.len());
        let mut max_impulse = 0.0f64;
        for &(i, j, c) in impulses {
            Self::check_impulse(&base, i, j, c)?;
            if c > 0.0 {
                b.push(i, j, c);
                max_impulse = max_impulse.max(c);
            }
        }
        Ok(ImpulseMrm {
            base,
            impulses: b.build(),
            max_impulse,
        })
    }

    /// The check [`ImpulseMrm::new`] applies to each impulse: `c` on the
    /// transition `i → j` of `base`. For a caller that reports each
    /// failure against its own input (a model file's line).
    ///
    /// # Errors
    ///
    /// As [`ImpulseMrm::new`].
    pub fn check_impulse(
        base: &SecondOrderMrm,
        i: usize,
        j: usize,
        c: f64,
    ) -> Result<(), MrmError> {
        let n = base.n_states();
        if i >= n || j >= n {
            return Err(MrmError::InvalidParameter {
                name: "impulse",
                reason: format!("transition ({i},{j}) out of range for {n} states"),
            });
        }
        if i == j || !(c >= 0.0) || !c.is_finite() {
            return Err(MrmError::InvalidParameter {
                name: "impulse",
                reason: format!("invalid impulse {c} on ({i},{j})"),
            });
        }
        if base.generator().as_csr().get(i, j) == 0.0 {
            return Err(MrmError::InvalidParameter {
                name: "impulse",
                reason: format!("impulse on ({i},{j}) but the transition rate is zero"),
            });
        }
        Ok(())
    }

    /// The underlying rate-reward model.
    pub fn base(&self) -> &SecondOrderMrm {
        &self.base
    }

    /// The impulse on transition `i → j` (0 if none).
    pub fn impulse(&self, i: usize, j: usize) -> f64 {
        self.impulses.get(i, j)
    }

    /// The largest impulse.
    pub fn max_impulse(&self) -> f64 {
        self.max_impulse
    }

    /// Sparse impulse matrix.
    pub fn impulse_matrix(&self) -> &CsrMatrix<f64> {
        &self.impulses
    }
}

/// Computes raw moments `0 ..= order` of the accumulated reward of an
/// impulse-extended model at time `t` by the extended randomization
/// recursion (see module docs).
///
/// A thin wrapper over the plan/execute split: builds a one-shot
/// [`SolvePlan::build_impulse`] plan and executes it once. Repeated
/// queries on the same model — a time grid, say — should keep the plan;
/// results are bit-identical either way.
///
/// # Errors
///
/// Same conditions as [`crate::uniformization::moments`].
pub fn moments_with_impulse(
    model: &ImpulseMrm,
    order: usize,
    t: f64,
    config: &SolverConfig,
) -> Result<MomentSolution, MrmError> {
    let mut sweep = SolvePlan::build_impulse(model, order, config)?.execute(&[t], order)?;
    Ok(sweep.pop().expect("one time point requested"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_ctmc::generator::GeneratorBuilder;

    fn cyclic_base(n: usize, rate: f64) -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(n);
        for i in 0..n {
            b.rate(i, (i + 1) % n, rate).unwrap();
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        SecondOrderMrm::new(b.build().unwrap(), vec![0.0; n], vec![0.0; n], init).unwrap()
    }

    #[test]
    fn pure_impulse_counts_poisson_events() {
        // A 1-cycle... use 2-state cyclic chain with equal rates λ: the
        // transition count N(t) is Poisson(λt) (every sojourn is
        // exp(λ)). With impulse c on every transition, B(t) = c·N(t):
        // E[B] = cλt, Var[B] = c²λt, E[B³] = c³·E[N³].
        let lambda = 3.0;
        let base = cyclic_base(2, lambda);
        let c = 2.5;
        let model = ImpulseMrm::new(base, &[(0, 1, c), (1, 0, c)]).unwrap();
        let t = 0.8;
        let sol = moments_with_impulse(&model, 3, t, &SolverConfig::default()).unwrap();
        let m = lambda * t; // Poisson mean
        assert!((sol.mean() - c * m).abs() < 1e-8, "mean {}", sol.mean());
        assert!(
            (sol.raw_moment(2) - c * c * (m + m * m)).abs() < 1e-7,
            "m2 {}",
            sol.raw_moment(2)
        );
        // E[N³] = m³ + 3m² + m for Poisson.
        let n3 = m * m * m + 3.0 * m * m + m;
        assert!(
            (sol.raw_moment(3) - c * c * c * n3).abs() < 1e-6,
            "m3 {}",
            sol.raw_moment(3)
        );
    }

    #[test]
    fn zero_impulses_match_base_solver() {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 2.0).unwrap();
        let base = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, 3.0],
            vec![0.5, 2.0],
            vec![1.0, 0.0],
        )
        .unwrap();
        let model = ImpulseMrm::new(base.clone(), &[]).unwrap();
        let t = 0.9;
        let a = moments_with_impulse(&model, 3, t, &SolverConfig::default()).unwrap();
        let c = crate::uniformization::moments(&base, 3, t, &SolverConfig::default()).unwrap();
        for n in 0..=3 {
            assert!((a.raw_moment(n) - c.raw_moment(n)).abs() < 1e-10);
        }
    }

    #[test]
    fn rate_plus_impulse_mean_decomposes() {
        // E[B] = E[rate part] + Σ_ij c_ij · E[#transitions i→j]; for the
        // symmetric 2-state chain with impulse on 0→1 only, the expected
        // count is ∫ λ·P(Z=0) du.
        let lambda = 2.0;
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, lambda).unwrap();
        b.rate(1, 0, lambda).unwrap();
        let base = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, 4.0],
            vec![0.3, 0.6],
            vec![1.0, 0.0],
        )
        .unwrap();
        let c01 = 1.7;
        let model = ImpulseMrm::new(base.clone(), &[(0, 1, c01)]).unwrap();
        let t = 1.1;
        let with = moments_with_impulse(&model, 1, t, &SolverConfig::default()).unwrap();
        let without =
            crate::uniformization::moments(&base, 1, t, &SolverConfig::default()).unwrap();
        // P(Z=0 | Z0=0) = 1/2 (1 + e^{-2λu}); expected count = λ∫ = λt/2 + (1−e^{−2λt})/4.
        let count = lambda * t / 2.0 + (1.0 - (-2.0 * lambda * t).exp()) / 4.0;
        assert!(
            (with.mean() - without.mean() - c01 * count).abs() < 1e-8,
            "{} vs {} + {}",
            with.mean(),
            without.mean(),
            c01 * count
        );
    }

    #[test]
    fn second_order_plus_impulse_variance_sane() {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        let base = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, 1.0],
            vec![0.5, 0.5],
            vec![1.0, 0.0],
        )
        .unwrap();
        let model = ImpulseMrm::new(base.clone(), &[(0, 1, 1.0)]).unwrap();
        let sol = moments_with_impulse(&model, 2, 1.0, &SolverConfig::default()).unwrap();
        let no_imp = crate::uniformization::moments(&base, 2, 1.0, &SolverConfig::default())
            .unwrap();
        // Impulses add variance.
        assert!(sol.variance() > no_imp.variance());
        assert!((sol.raw_moment(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_impulses_rejected() {
        let base = cyclic_base(2, 1.0);
        assert!(ImpulseMrm::new(base.clone(), &[(0, 0, 1.0)]).is_err());
        assert!(ImpulseMrm::new(base.clone(), &[(0, 1, -1.0)]).is_err());
        assert!(ImpulseMrm::new(base.clone(), &[(0, 5, 1.0)]).is_err());
        assert!(ImpulseMrm::new(base.clone(), &[(0, 1, f64::NAN)]).is_err());
        // 3-state cycle has no 0→2 rate.
        let base3 = cyclic_base(3, 1.0);
        assert!(ImpulseMrm::new(base3, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn terminal_weights_on_an_impulse_plan_partition_its_moments() {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 2.0).unwrap();
        b.rate(1, 0, 3.0).unwrap();
        let base = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![-1.0, 4.0],
            vec![0.5, 1.0],
            vec![0.3, 0.7],
        )
        .unwrap();
        let model = ImpulseMrm::new(base, &[(0, 1, 1.5), (1, 0, 0.5)]).unwrap();
        let plan = SolvePlan::build_impulse(&model, 3, &SolverConfig::default()).unwrap();
        let t = 0.8;
        let all = plan.execute(&[t], 3).unwrap().pop().unwrap();
        // Unit weights are the plain query: same start, front and G.
        let ones = plan.execute_terminal(t, &[1.0, 1.0], 3).unwrap();
        assert_eq!(ones.weighted, all.weighted);
        assert_eq!(ones.error_bounds, all.error_bounds);
        let a = plan.execute_terminal(t, &[1.0, 0.0], 3).unwrap();
        let b = plan.execute_terminal(t, &[0.0, 1.0], 3).unwrap();
        for n in 0..=3 {
            let scale = all.raw_moment(n).abs().max(1.0);
            assert!(
                (a.raw_moment(n) + b.raw_moment(n) - all.raw_moment(n)).abs() < 1e-9 * scale,
                "order {n}"
            );
        }
    }

    #[test]
    fn zero_time_degenerate() {
        let base = cyclic_base(2, 1.0);
        let model = ImpulseMrm::new(base, &[(0, 1, 1.0)]).unwrap();
        let sol = moments_with_impulse(&model, 2, 0.0, &SolverConfig::default()).unwrap();
        assert_eq!(sol.raw_moment(1), 0.0);
    }
}
