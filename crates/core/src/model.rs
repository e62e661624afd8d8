//! The second-order Markov reward model type.
//!
//! Definition 2 of the paper: a CTMC `Z(t)` with generator `Q` and
//! initial distribution `π`, plus per-state Brownian reward parameters —
//! drift `r_i` (any finite real) and variance `σ_i² ≥ 0`. While `Z` stays
//! in state `i`, the accumulated reward `B(t)` evolves as a Brownian
//! motion with drift `r_i` and variance `σ_i²`; at transitions `B` is
//! continuous (preemptive resume, no reward loss).

use crate::error::MrmError;
use somrm_ctmc::error::validate_distribution;
use somrm_ctmc::Generator;
use std::sync::Arc;

/// A second-order Markov reward model `(Q, R, S, π)`.
///
/// The first-order (ordinary) Markov reward model is the special case
/// `σ_i² = 0` for all `i`; construct it with
/// [`SecondOrderMrm::first_order`].
///
/// # Example
///
/// ```
/// use somrm_ctmc::generator::GeneratorBuilder;
/// use somrm_core::model::SecondOrderMrm;
///
/// let mut b = GeneratorBuilder::new(2);
/// b.rate(0, 1, 1.0)?;
/// b.rate(1, 0, 2.0)?;
/// let q = b.build()?;
/// let model = SecondOrderMrm::new(q, vec![0.0, 3.0], vec![0.0, 2.0], vec![1.0, 0.0])?;
/// assert_eq!(model.n_states(), 2);
/// assert!(!model.is_first_order());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// The chain `(Q, R, S)` sits behind one [`Arc`]: a clone, a model
/// started elsewhere ([`SecondOrderMrm::with_initial`]) and a plan's copy
/// of its model share it and copy only `π`.
#[derive(Debug, Clone)]
pub struct SecondOrderMrm {
    chain: Arc<Chain>,
    initial: Vec<f64>,
}

/// The validated chain of a [`SecondOrderMrm`]: generator, drifts and
/// variances.
#[derive(Debug, PartialEq)]
struct Chain {
    generator: Generator,
    rates: Vec<f64>,
    variances: Vec<f64>,
}

/// Equality compares the mathematical content — generator, rewards,
/// initial distribution — and skips comparing the chain entry by entry
/// when both models share it.
impl PartialEq for SecondOrderMrm {
    fn eq(&self, other: &SecondOrderMrm) -> bool {
        self.same_chain(other) && self.initial == other.initial
    }
}

impl SecondOrderMrm {
    /// Builds and validates a model.
    ///
    /// # Errors
    ///
    /// * [`MrmError::DimensionMismatch`] if `rates`, `variances` or
    ///   `initial` do not have one entry per state.
    /// * [`MrmError::InvalidRate`] for a non-finite drift.
    /// * [`MrmError::InvalidVariance`] for a negative or non-finite
    ///   variance.
    /// * [`MrmError::Ctmc`] if `initial` is not a probability
    ///   distribution.
    pub fn new(
        generator: Generator,
        rates: Vec<f64>,
        variances: Vec<f64>,
        initial: Vec<f64>,
    ) -> Result<Self, MrmError> {
        let n = generator.n_states();
        for (what, len) in [
            ("reward rate vector", rates.len()),
            ("variance vector", variances.len()),
            ("initial distribution", initial.len()),
        ] {
            if len != n {
                return Err(MrmError::DimensionMismatch {
                    what,
                    expected: n,
                    actual: len,
                });
            }
        }
        for (i, &r) in rates.iter().enumerate() {
            if !r.is_finite() {
                return Err(MrmError::InvalidRate { state: i, value: r });
            }
        }
        for (i, &s) in variances.iter().enumerate() {
            if !(s >= 0.0) || !s.is_finite() {
                return Err(MrmError::InvalidVariance { state: i, value: s });
            }
        }
        validate_distribution(&initial, 1e-9)?;
        Ok(SecondOrderMrm {
            chain: Arc::new(Chain {
                generator,
                rates,
                variances,
            }),
            initial,
        })
    }

    /// Builds a first-order (deterministic-accumulation) model:
    /// all variances zero.
    ///
    /// # Errors
    ///
    /// See [`SecondOrderMrm::new`].
    pub fn first_order(
        generator: Generator,
        rates: Vec<f64>,
        initial: Vec<f64>,
    ) -> Result<Self, MrmError> {
        let n = generator.n_states();
        Self::new(generator, rates, vec![0.0; n], initial)
    }

    /// Number of structure states.
    pub fn n_states(&self) -> usize {
        self.chain.generator.n_states()
    }

    /// The structure-state generator `Q`.
    pub fn generator(&self) -> &Generator {
        &self.chain.generator
    }

    /// Per-state reward drifts `r_i` (the diagonal of `R`).
    pub fn rates(&self) -> &[f64] {
        &self.chain.rates
    }

    /// Per-state reward variances `σ_i²` (the diagonal of `S`).
    pub fn variances(&self) -> &[f64] {
        &self.chain.variances
    }

    /// The initial distribution `π`.
    pub fn initial(&self) -> &[f64] {
        &self.initial
    }

    /// `true` if every state has zero variance (an ordinary MRM).
    pub fn is_first_order(&self) -> bool {
        self.variances().iter().all(|&s| s == 0.0)
    }

    /// The smallest drift `min_i r_i` (the paper's `ř`, used for the
    /// negative-rate shift).
    pub fn min_rate(&self) -> f64 {
        self.rates().iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Returns a model identical to this one but with a different
    /// initial distribution (the chain is shared, not copied).
    ///
    /// # Errors
    ///
    /// Returns [`MrmError`] if `initial` is invalid.
    pub fn with_initial(&self, initial: Vec<f64>) -> Result<Self, MrmError> {
        if initial.len() != self.n_states() {
            return Err(MrmError::DimensionMismatch {
                what: "initial distribution",
                expected: self.n_states(),
                actual: initial.len(),
            });
        }
        validate_distribution(&initial, 1e-9)?;
        Ok(SecondOrderMrm {
            chain: Arc::clone(&self.chain),
            initial,
        })
    }

    /// Whether `other` is the same chain — equal generator, drifts and
    /// variances — possibly started from another initial distribution.
    /// A [`crate::SolvePlan`] of one serves the other.
    pub fn same_chain(&self, other: &SecondOrderMrm) -> bool {
        Arc::ptr_eq(&self.chain, &other.chain) || self.chain == other.chain
    }

    /// The long-run reward growth rate `π_stat · r` (slope of the mean
    /// accumulated reward in steady state, plotted in the paper's
    /// Figure 3 as the "steady state" line).
    ///
    /// # Errors
    ///
    /// Returns [`MrmError::Ctmc`] if the chain has no stationary
    /// distribution (not irreducible).
    pub fn steady_state_growth_rate(&self) -> Result<f64, MrmError> {
        let pi = somrm_ctmc::stationary::stationary_gth(self.generator())?;
        Ok(pi.iter().zip(self.rates()).map(|(&p, &r)| p * r).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_ctmc::generator::GeneratorBuilder;

    fn gen2() -> Generator {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 2.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn valid_model_accessors() {
        let m = SecondOrderMrm::new(gen2(), vec![1.0, -2.0], vec![0.5, 0.0], vec![0.3, 0.7])
            .unwrap();
        assert_eq!(m.n_states(), 2);
        assert_eq!(m.rates(), &[1.0, -2.0]);
        assert_eq!(m.variances(), &[0.5, 0.0]);
        assert_eq!(m.initial(), &[0.3, 0.7]);
        assert_eq!(m.min_rate(), -2.0);
        assert!(!m.is_first_order());
    }

    #[test]
    fn first_order_constructor() {
        let m = SecondOrderMrm::first_order(gen2(), vec![1.0, 2.0], vec![1.0, 0.0]).unwrap();
        assert!(m.is_first_order());
        assert_eq!(m.variances(), &[0.0, 0.0]);
    }

    #[test]
    fn length_mismatches_rejected() {
        assert!(matches!(
            SecondOrderMrm::new(gen2(), vec![1.0], vec![0.0, 0.0], vec![1.0, 0.0]),
            Err(MrmError::DimensionMismatch { what: "reward rate vector", .. })
        ));
        assert!(matches!(
            SecondOrderMrm::new(gen2(), vec![1.0, 1.0], vec![0.0], vec![1.0, 0.0]),
            Err(MrmError::DimensionMismatch { what: "variance vector", .. })
        ));
        assert!(matches!(
            SecondOrderMrm::new(gen2(), vec![1.0, 1.0], vec![0.0, 0.0], vec![1.0]),
            Err(MrmError::DimensionMismatch { what: "initial distribution", .. })
        ));
    }

    #[test]
    fn invalid_values_rejected() {
        assert!(matches!(
            SecondOrderMrm::new(gen2(), vec![f64::NAN, 1.0], vec![0.0, 0.0], vec![1.0, 0.0]),
            Err(MrmError::InvalidRate { state: 0, .. })
        ));
        assert!(matches!(
            SecondOrderMrm::new(gen2(), vec![1.0, 1.0], vec![-0.1, 0.0], vec![1.0, 0.0]),
            Err(MrmError::InvalidVariance { state: 0, .. })
        ));
        assert!(matches!(
            SecondOrderMrm::new(gen2(), vec![1.0, 1.0], vec![0.0, 0.0], vec![0.9, 0.9]),
            Err(MrmError::Ctmc(_))
        ));
    }

    #[test]
    fn steady_state_growth_rate_two_state() {
        // π = (2/3, 1/3), r = (0, 3) → growth rate 1.
        let m = SecondOrderMrm::new(gen2(), vec![0.0, 3.0], vec![0.0, 1.0], vec![1.0, 0.0])
            .unwrap();
        assert!((m.steady_state_growth_rate().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn with_initial_replaces_distribution() {
        let m = SecondOrderMrm::first_order(gen2(), vec![1.0, 2.0], vec![1.0, 0.0]).unwrap();
        let m2 = m.with_initial(vec![0.0, 1.0]).unwrap();
        assert_eq!(m2.initial(), &[0.0, 1.0]);
        assert!(m.with_initial(vec![2.0, -1.0]).is_err());
    }

    #[test]
    fn clones_and_restarts_share_the_chain() {
        let m =
            SecondOrderMrm::new(gen2(), vec![1.0, 2.0], vec![0.5, 0.0], vec![1.0, 0.0]).unwrap();
        let moved = m.with_initial(vec![0.25, 0.75]).unwrap();
        assert!(Arc::ptr_eq(&m.chain, &moved.chain));
        assert!(Arc::ptr_eq(&m.chain, &m.clone().chain));
        assert!(m.same_chain(&moved) && m != moved);
        // A chain built apart with equal content is still the same chain.
        let apart =
            SecondOrderMrm::new(gen2(), vec![1.0, 2.0], vec![0.5, 0.0], vec![0.25, 0.75]).unwrap();
        assert!(!Arc::ptr_eq(&apart.chain, &moved.chain));
        assert_eq!(apart, moved);
        let other =
            SecondOrderMrm::new(gen2(), vec![1.0, 2.0], vec![0.5, 1.0], vec![1.0, 0.0]).unwrap();
        assert!(!m.same_chain(&other));
        assert!(matches!(
            m.with_initial(vec![1.0]),
            Err(MrmError::DimensionMismatch {
                what: "initial distribution",
                ..
            })
        ));
    }
}
