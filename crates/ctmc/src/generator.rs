//! Validated CTMC generator matrices.

use crate::error::CtmcError;
use somrm_linalg::dense::Mat;
use somrm_linalg::sparse::{CsrMatrix, TripletBuilder};

/// The generator (infinitesimal rate) matrix `Q` of a finite CTMC,
/// stored sparse.
///
/// Invariants (enforced at construction):
/// * off-diagonal entries are finite and non-negative,
/// * diagonal entries are finite, so the uniformization rate is too,
/// * every row sums to zero,
/// * the matrix is square.
///
/// Build one with [`GeneratorBuilder`] (which derives the diagonal for
/// you) or [`Generator::from_csr`] if you already have a full matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Generator {
    q: CsrMatrix<f64>,
    /// Uniformization rate `q = max_i |q_ii|`.
    unif_rate: f64,
}

impl Generator {
    /// Wraps a complete generator matrix, validating the invariants.
    ///
    /// # Errors
    ///
    /// * [`CtmcError::DimensionMismatch`] if the matrix is not square.
    /// * [`CtmcError::InvalidRate`] for a negative/non-finite
    ///   off-diagonal entry.
    /// * [`CtmcError::NonFiniteExitRate`] for a non-finite diagonal
    ///   entry (finite rates whose sum overflows). The row-sum test
    ///   below cannot catch it: its tolerance scales with the row.
    /// * [`CtmcError::RowSumNonzero`] if a row sum deviates from zero by
    ///   more than a tolerance scaled to the row magnitude.
    pub fn from_csr(q: CsrMatrix<f64>) -> Result<Self, CtmcError> {
        let n = q.rows();
        if q.cols() != n {
            return Err(CtmcError::DimensionMismatch {
                expected: n,
                actual: q.cols(),
            });
        }
        let mut unif_rate = 0.0f64;
        for i in 0..n {
            let mut row_sum = 0.0;
            let mut row_scale = 0.0;
            let mut diag = 0.0f64;
            for (j, v) in q.row(i) {
                if i == j {
                    diag = v;
                } else if !(v >= 0.0) || !v.is_finite() {
                    return Err(CtmcError::InvalidRate {
                        from: i,
                        to: j,
                        rate: v,
                    });
                }
                row_sum += v;
                row_scale += v.abs();
            }
            if !diag.is_finite() {
                return Err(CtmcError::NonFiniteExitRate {
                    state: i,
                    rate: -diag,
                });
            }
            if row_sum.abs() > 1e-9 * row_scale.max(1.0) {
                return Err(CtmcError::RowSumNonzero {
                    row: i,
                    sum: row_sum,
                });
            }
            unif_rate = unif_rate.max(diag.abs());
        }
        Ok(Generator { q, unif_rate })
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.q.rows()
    }

    /// The sparse generator matrix.
    pub fn as_csr(&self) -> &CsrMatrix<f64> {
        &self.q
    }

    /// The uniformization rate `q = max_i |q_ii|`.
    pub fn uniformization_rate(&self) -> f64 {
        self.unif_rate
    }

    /// The diagonal (total exit rates, negated).
    pub fn diagonal(&self) -> Vec<f64> {
        self.q.diagonal()
    }

    /// The uniformized DTMC kernel `P = Q/q + I` for a given rate
    /// `q ≥ uniformization_rate()`.
    ///
    /// # Errors
    ///
    /// Returns [`CtmcError::DegenerateChain`] if `rate <= 0`.
    pub fn uniformized_kernel(&self, rate: f64) -> Result<CsrMatrix<f64>, CtmcError> {
        if rate <= 0.0 {
            return Err(CtmcError::DegenerateChain);
        }
        Ok(self
            .q
            .scaled(1.0 / rate)
            .add_scaled_identity(1.0)
            .expect("generator is square"))
    }

    /// Dense copy (small models / tests).
    pub fn to_dense(&self) -> Mat<f64> {
        self.q.to_dense()
    }

    /// Mean number of stored entries per row (the paper's `m`).
    pub fn mean_row_nnz(&self) -> f64 {
        self.q.mean_row_nnz()
    }
}

/// Builder assembling a [`Generator`] from off-diagonal rates; the
/// diagonal is derived as the negated row sum.
///
/// # Example
///
/// ```
/// use somrm_ctmc::generator::GeneratorBuilder;
///
/// let mut b = GeneratorBuilder::new(3);
/// b.rate(0, 1, 2.0).unwrap();
/// b.rate(1, 2, 1.0).unwrap();
/// b.rate(2, 0, 0.5).unwrap();
/// let q = b.build().unwrap();
/// assert_eq!(q.n_states(), 3);
/// assert_eq!(q.uniformization_rate(), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct GeneratorBuilder {
    n: usize,
    /// The accepted off-diagonal rates, in push order; the diagonal
    /// joins them at [`GeneratorBuilder::build`].
    triplets: TripletBuilder<f64>,
    exit: Vec<f64>,
}

impl GeneratorBuilder {
    /// A builder for an `n`-state chain with no transitions yet.
    pub fn new(n: usize) -> Self {
        GeneratorBuilder {
            n,
            triplets: TripletBuilder::new(n, n),
            exit: vec![0.0; n],
        }
    }

    /// Adds (accumulates) a transition rate `from → to`.
    ///
    /// # Errors
    ///
    /// * [`CtmcError::StateOutOfRange`] for bad indices.
    /// * [`CtmcError::InvalidRate`] for a negative/non-finite rate or a
    ///   self-loop (`from == to`).
    pub fn rate(&mut self, from: usize, to: usize, rate: f64) -> Result<&mut Self, CtmcError> {
        if from >= self.n {
            return Err(CtmcError::StateOutOfRange {
                state: from,
                n_states: self.n,
            });
        }
        if to >= self.n {
            return Err(CtmcError::StateOutOfRange {
                state: to,
                n_states: self.n,
            });
        }
        if from == to || !(rate >= 0.0) || !rate.is_finite() {
            return Err(CtmcError::InvalidRate { from, to, rate });
        }
        if rate > 0.0 {
            self.triplets.push(from, to, rate);
            self.exit[from] += rate;
        }
        Ok(self)
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.n
    }

    /// Finalizes the generator.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`Generator::from_csr`]
    /// (cannot occur for rates accepted by [`GeneratorBuilder::rate`]).
    pub fn build(self) -> Result<Generator, CtmcError> {
        let mut b = self.triplets;
        for (i, &x) in self.exit.iter().enumerate() {
            if x > 0.0 {
                b.push(i, i, -x);
            }
        }
        Generator::from_csr(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> Generator {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 3.0).unwrap();
        b.rate(1, 0, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_derives_diagonal() {
        let q = two_state();
        assert_eq!(q.diagonal(), vec![-3.0, -4.0]);
        assert_eq!(q.uniformization_rate(), 4.0);
        assert_eq!(q.as_csr().get(0, 1), 3.0);
    }

    #[test]
    fn rates_accumulate() {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(0, 1, 2.0).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        let q = b.build().unwrap();
        assert_eq!(q.as_csr().get(0, 1), 3.0);
        assert_eq!(q.diagonal()[0], -3.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut b = GeneratorBuilder::new(2);
        assert!(matches!(
            b.rate(0, 0, 1.0),
            Err(CtmcError::InvalidRate { .. })
        ));
        assert!(matches!(
            b.rate(0, 1, -1.0),
            Err(CtmcError::InvalidRate { .. })
        ));
        assert!(matches!(
            b.rate(0, 1, f64::NAN),
            Err(CtmcError::InvalidRate { .. })
        ));
        assert!(matches!(
            b.rate(0, 5, 1.0),
            Err(CtmcError::StateOutOfRange { .. })
        ));
        assert!(matches!(
            b.rate(9, 0, 1.0),
            Err(CtmcError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn from_csr_validates_row_sums() {
        let bad = CsrMatrix::from_triplets(2, 2, &[(0, 0, -1.0), (0, 1, 2.0), (1, 1, 0.0)]);
        assert!(matches!(
            Generator::from_csr(bad),
            Err(CtmcError::RowSumNonzero { row: 0, .. })
        ));
    }

    #[test]
    fn from_csr_validates_offdiag_sign() {
        let bad = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, -1.0)]);
        assert!(matches!(
            Generator::from_csr(bad),
            Err(CtmcError::InvalidRate { .. })
        ));
    }

    #[test]
    fn overflowing_exit_rate_is_refused() {
        // Two finite rates whose sum overflows: the row-sum test passes
        // (its tolerance is infinite too), so the diagonal is checked.
        let mut b = GeneratorBuilder::new(3);
        b.rate(0, 1, 1e308).unwrap();
        b.rate(0, 2, 1e308).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        b.rate(2, 0, 1.0).unwrap();
        let e = b.build().unwrap_err();
        assert_eq!(
            e,
            CtmcError::NonFiniteExitRate {
                state: 0,
                rate: f64::INFINITY
            }
        );
        assert!(e.to_string().contains("not finite"), "{e}");
        // A NaN diagonal handed to from_csr directly.
        let bad = CsrMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN), (0, 1, 1.0)]);
        assert!(matches!(
            Generator::from_csr(bad),
            Err(CtmcError::NonFiniteExitRate { state: 0, .. })
        ));
        // The largest finite sum still builds.
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, f64::MAX).unwrap();
        assert_eq!(b.build().unwrap().uniformization_rate(), f64::MAX);
    }

    #[test]
    fn uniformized_kernel_is_stochastic() {
        let q = two_state();
        let p = q.uniformized_kernel(q.uniformization_rate()).unwrap();
        for s in p.row_sums() {
            assert!((s - 1.0).abs() < 1e-14);
        }
        // With the maximal diagonal, the corresponding self-loop is 0.
        assert!(p.get(1, 1).abs() < 1e-14);
        assert!((p.get(0, 0) - 0.25).abs() < 1e-14);
    }

    #[test]
    fn uniformized_kernel_rejects_zero_rate() {
        let q = two_state();
        assert!(q.uniformized_kernel(0.0).is_err());
    }

    #[test]
    fn absorbing_state_allowed() {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        let q = b.build().unwrap();
        assert_eq!(q.diagonal(), vec![-1.0, 0.0]);
    }

    #[test]
    fn zero_rate_is_dropped() {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 0.0).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        let q = b.build().unwrap();
        assert_eq!(q.as_csr().get(0, 1), 0.0);
        assert_eq!(q.diagonal()[0], 0.0);
    }

    #[test]
    fn dense_copy_matches() {
        let q = two_state();
        let d = q.to_dense();
        assert_eq!(d[(0, 0)], -3.0);
        assert_eq!(d[(1, 0)], 4.0);
    }
}
