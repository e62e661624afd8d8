//! Error type for reward-model construction and analysis.

use somrm_ctmc::CtmcError;
use std::error::Error;
use std::fmt;

/// Errors arising while building or analysing a Markov reward model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MrmError {
    /// A per-state parameter vector has the wrong length.
    DimensionMismatch {
        /// What the vector was.
        what: &'static str,
        /// Expected length (number of states).
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A reward rate is not finite.
    InvalidRate {
        /// State index.
        state: usize,
        /// The offending value.
        value: f64,
    },
    /// A variance is negative or not finite.
    InvalidVariance {
        /// State index.
        state: usize,
        /// The offending value.
        value: f64,
    },
    /// A solver parameter is out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Description of the violation.
        reason: String,
    },
    /// The Theorem-4 truncation point `G` for the requested precision
    /// exceeds the configured iteration cap. Raise
    /// `SolverConfig::max_iterations`, loosen `epsilon`, or reduce
    /// `q·t`.
    TruncationCapExceeded {
        /// The uniformization exponent `q·t` of the request.
        qt: f64,
        /// The configured `max_iterations` cap that was exceeded.
        cap: u64,
    },
    /// A time-averaged quantity (`B(t)/t`) was requested at `t = 0`,
    /// where it is undefined.
    UndefinedAtZeroTime {
        /// The accessor that was called.
        what: &'static str,
    },
    /// An explicit ODE scheme would be unstable (or was detected to
    /// have lost accuracy) at the requested step size.
    OdeUnstable {
        /// The realized `h·|λ|_max` product (`λ` ranges over the
        /// generator spectrum, `|λ| ≤ 2q`).
        h_lambda: f64,
        /// The scheme's stability limit on the negative real axis.
        limit: f64,
        /// The smallest step count that satisfies the limit.
        min_steps: u64,
    },
    /// A forced matrix format would allocate past its hard cap (e.g.
    /// `--format dia` on a scattered generator pads every populated
    /// diagonal to full length).
    AllocationTooLarge {
        /// What was being allocated.
        what: &'static str,
        /// The estimated allocation, in bytes.
        estimated_bytes: u64,
        /// The cap that was exceeded, in bytes.
        cap_bytes: u64,
    },
    /// The underlying CTMC is invalid.
    Ctmc(CtmcError),
}

impl fmt::Display for MrmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrmError::DimensionMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what} has length {actual}, expected {expected}"),
            MrmError::InvalidRate { state, value } => {
                write!(f, "reward rate of state {state} is {value}")
            }
            MrmError::InvalidVariance { state, value } => {
                write!(f, "reward variance of state {state} is {value}")
            }
            MrmError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
            MrmError::TruncationCapExceeded { qt, cap } => write!(
                f,
                "Theorem-4 truncation point exceeds the iteration cap {cap} (qt = {qt}); \
                 raise max_iterations, loosen epsilon, or reduce q*t"
            ),
            MrmError::UndefinedAtZeroTime { what } => {
                write!(f, "{what} is undefined at t = 0")
            }
            MrmError::OdeUnstable {
                h_lambda,
                limit,
                min_steps,
            } => write!(
                f,
                "explicit ODE scheme unstable: h*|lambda| = {h_lambda:.3} exceeds the \
                 stability limit {limit}; use at least {min_steps} steps"
            ),
            MrmError::AllocationTooLarge {
                what,
                estimated_bytes,
                cap_bytes,
            } => write!(
                f,
                "{what} would allocate an estimated {estimated_bytes} bytes \
                 (cap {cap_bytes}); use --format auto or csr"
            ),
            MrmError::Ctmc(e) => write!(f, "invalid structure-state process: {e}"),
        }
    }
}

impl Error for MrmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MrmError::Ctmc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CtmcError> for MrmError {
    fn from(e: CtmcError) -> Self {
        MrmError::Ctmc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = MrmError::InvalidVariance {
            state: 3,
            value: -1.0,
        };
        assert!(e.to_string().contains("state 3"));
        let wrapped = MrmError::from(CtmcError::DegenerateChain);
        assert!(wrapped.to_string().contains("structure-state"));
        assert!(wrapped.source().is_some());
    }

    #[test]
    fn error_trait_bounds() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<MrmError>();
    }
}
