//! Error type for CTMC construction and analysis.

use std::error::Error;
use std::fmt;

/// Errors arising while building or analysing a CTMC.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CtmcError {
    /// A transition rate was negative or not finite.
    InvalidRate {
        /// Source state.
        from: usize,
        /// Destination state.
        to: usize,
        /// The offending rate.
        rate: f64,
    },
    /// A state index was out of range.
    StateOutOfRange {
        /// The offending index.
        state: usize,
        /// Number of states in the chain.
        n_states: usize,
    },
    /// A state's total exit rate (its negated generator diagonal) is
    /// not finite — finite rates out of it can still overflow their
    /// sum — so the chain has no finite uniformization rate.
    NonFiniteExitRate {
        /// The offending state.
        state: usize,
        /// Its exit rate `−q_ii`.
        rate: f64,
    },
    /// A generator row does not sum to zero.
    RowSumNonzero {
        /// The offending row.
        row: usize,
        /// Its sum.
        sum: f64,
    },
    /// A probability vector is invalid (negative entries or wrong total).
    InvalidDistribution {
        /// Description of the violation.
        reason: String,
    },
    /// The chain has no transitions out of any state (q = 0), so
    /// uniformization-based methods do not apply (the chain never moves).
    DegenerateChain,
    /// An iterative method failed to converge.
    NoConvergence {
        /// Iterations spent.
        iterations: usize,
        /// Residual at the last iterate.
        residual: f64,
    },
    /// A vector had the wrong length for this chain.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
}

impl fmt::Display for CtmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtmcError::InvalidRate { from, to, rate } => {
                write!(f, "invalid transition rate {rate} from state {from} to {to}")
            }
            CtmcError::StateOutOfRange { state, n_states } => {
                write!(f, "state index {state} out of range for {n_states} states")
            }
            CtmcError::NonFiniteExitRate { state, rate } => {
                write!(f, "total exit rate {rate} of state {state} is not finite")
            }
            CtmcError::RowSumNonzero { row, sum } => {
                write!(f, "generator row {row} sums to {sum}, expected 0")
            }
            CtmcError::InvalidDistribution { reason } => {
                write!(f, "invalid probability distribution: {reason}")
            }
            CtmcError::DegenerateChain => {
                write!(f, "chain has no transitions (uniformization rate is zero)")
            }
            CtmcError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "iteration failed to converge after {iterations} steps (residual {residual})"
            ),
            CtmcError::DimensionMismatch { expected, actual } => {
                write!(f, "vector length {actual} does not match chain size {expected}")
            }
        }
    }
}

impl Error for CtmcError {}

/// Validates a probability vector: entries in `[0, 1]` (within `tol`)
/// and total mass 1 (within `tol`).
///
/// # Errors
///
/// Returns [`CtmcError::InvalidDistribution`] describing the violation.
pub fn validate_distribution(pi: &[f64], tol: f64) -> Result<(), CtmcError> {
    for (i, &p) in pi.iter().enumerate() {
        if !(p >= -tol) || !p.is_finite() {
            return Err(CtmcError::InvalidDistribution {
                reason: format!("entry {i} is {p}"),
            });
        }
    }
    let total: f64 = pi.iter().sum();
    if (total - 1.0).abs() > tol.max(1e-12) * pi.len() as f64 {
        return Err(CtmcError::InvalidDistribution {
            reason: format!("total mass is {total}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = CtmcError::InvalidRate {
            from: 1,
            to: 2,
            rate: -3.0,
        };
        assert!(e.to_string().contains("-3"));
        assert!(CtmcError::DegenerateChain.to_string().contains("no transitions"));
    }

    #[test]
    fn distribution_validation() {
        assert!(validate_distribution(&[0.5, 0.5], 1e-12).is_ok());
        assert!(validate_distribution(&[1.0], 1e-12).is_ok());
        assert!(validate_distribution(&[0.7, 0.7], 1e-12).is_err());
        assert!(validate_distribution(&[-0.1, 1.1], 1e-12).is_err());
        assert!(validate_distribution(&[f64::NAN, 1.0], 1e-12).is_err());
    }

    #[test]
    fn error_trait_bounds() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<CtmcError>();
    }
}
