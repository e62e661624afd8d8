//! Error type shared by the linear-algebra routines.

use std::error::Error;
use std::fmt;

/// Errors returned by `somrm-linalg` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand shapes are incompatible.
    DimensionMismatch {
        /// What was being attempted.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// A factorization encountered an (numerically) singular matrix.
    Singular {
        /// Pivot column at which elimination broke down.
        pivot: usize,
    },
    /// An FFT length that is not a power of two.
    NotPowerOfTwo {
        /// The offending length.
        len: usize,
    },
    /// An eigenvalue iteration failed to converge.
    NoConvergence {
        /// Index of the eigenvalue being isolated.
        index: usize,
        /// Iterations spent.
        iterations: usize,
    },
    /// A forced storage format would allocate past the hard cap
    /// (e.g. `--format dia` on a scattered matrix padding every
    /// populated diagonal to full length).
    AllocationTooLarge {
        /// What was being allocated.
        what: &'static str,
        /// The estimated allocation, in bytes.
        estimated_bytes: u64,
        /// The cap that was exceeded, in bytes.
        cap_bytes: u64,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            LinalgError::NotPowerOfTwo { len } => {
                write!(f, "FFT length {len} is not a power of two")
            }
            LinalgError::NoConvergence { index, iterations } => write!(
                f,
                "eigenvalue {index} failed to converge after {iterations} iterations"
            ),
            LinalgError::AllocationTooLarge {
                what,
                estimated_bytes,
                cap_bytes,
            } => write!(
                f,
                "{what} would allocate an estimated {estimated_bytes} bytes (cap {cap_bytes})"
            ),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert!(e.to_string().contains("matmul"));
        assert!(LinalgError::Singular { pivot: 3 }.to_string().contains('3'));
        assert!(LinalgError::NotPowerOfTwo { len: 12 }
            .to_string()
            .contains("12"));
        assert!(LinalgError::NoConvergence {
            index: 1,
            iterations: 30
        }
        .to_string()
        .contains("30"));
        let alloc = LinalgError::AllocationTooLarge {
            what: "forced DIA storage",
            estimated_bytes: 1 << 40,
            cap_bytes: 1 << 31,
        };
        assert!(alloc.to_string().contains("forced DIA storage"));
        assert!(alloc.to_string().contains(&(1u64 << 40).to_string()));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<LinalgError>();
    }
}
