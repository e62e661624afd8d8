//! Linear-algebra substrate for the `somrm` workspace.
//!
//! The second-order MRM solvers need a specific, smallish set of kernels,
//! all implemented here from scratch:
//!
//! * [`dense`] — dense matrices generic over a [`scalar::Scalar`]
//!   (`f64` or the complex type [`scalar::Cx`]);
//! * [`lu`] — LU factorization with partial pivoting (solve / det /
//!   inverse), used by the transform-domain solver and small-model
//!   stationary analysis;
//! * [`sparse`] — CSR sparse matrices with a triplet builder; the
//!   randomization solver's inner loop is one sparse mat-vec per step;
//! * [`dia`] — diagonal (DIA) storage for banded matrices with a
//!   branch-free unit-stride kernel, and the [`dia::IterationMatrix`]
//!   the solvers build once per solve, writing the uniformized
//!   generator's strips straight from its rows (the paper's
//!   200,001-state model is tridiagonal: three strips);
//! * [`operator`] — the matrix-free backend ([`operator::KroneckerSum`])
//!   that computes the uniformized mat-vec on the fly from a model's
//!   Kronecker structure with O(1) matrix memory per state,
//!   bitwise-faithful to the CSR pipeline;
//! * [`footprint`] — exact owned-bytes accounting
//!   ([`footprint::FootprintBytes`]) for every matrix storage and the
//!   fused kernel's working set, feeding the `somrm-obs` memory ledger;
//! * [`pool`] — a persistent worker pool (threads spawned once per
//!   solve, parked between passes) with statically-assigned chunks, so
//!   parallel reductions stay deterministic;
//! * [`fused`] — the fused randomization-recursion kernel: one pass per
//!   iteration covering the sparse mat-vec, the `R'`/`½S'` diagonal
//!   combine, and the Poisson-weighted moment accumulation, run in
//!   stretches of passes as a time-skewed wavefront over cache-sized
//!   row blocks (or chunk by chunk on the worker pool);
//! * [`simd`] — the lanes the fused kernel's row loops are written over
//!   (four AVX2 rows or one `f64` row, with the same bits), their
//!   runtime AVX2 dispatch, and the combine and accumulate primitives;
//! * [`expm`] — matrix exponential by scaling-and-squaring with Padé(13),
//!   generic over the scalar, used to evaluate `exp((Q − vR + v²S/2)t)`;
//! * [`tridiag`] — symmetric tridiagonal eigensolver (implicit-shift QL)
//!   returning eigenvalues and first eigenvector components, the engine
//!   of Golub–Welsch quadrature in `somrm-bounds`;
//! * [`fft`] — radix-2 FFT for Fourier inversion of characteristic
//!   functions;
//! * [`vec_ops`] — the handful of BLAS-1 helpers everything shares.
//!
//! # Example
//!
//! ```
//! use somrm_linalg::dense::Mat;
//!
//! let a = Mat::from_rows(&[&[0.0, 1.0][..], &[1.0, 0.0][..]]).unwrap();
//! let v = a.matvec(&[2.0, 3.0]);
//! assert_eq!(v, vec![3.0, 2.0]);
//! ```

pub mod dense;
pub mod dia;
pub mod error;
pub mod expm;
pub mod fft;
pub mod footprint;
pub mod fused;
pub mod lu;
pub mod operator;
pub mod pool;
pub mod scalar;
pub mod simd;
pub mod sparse;
pub mod thomas;
pub mod tridiag;
pub mod vec_ops;

pub use dense::Mat;
pub use dia::{DiaMatrix, IterationMatrix, MatrixFormat, FORCED_DIA_MAX_BYTES};
pub use error::LinalgError;
pub use footprint::FootprintBytes;
pub use fused::{Accumulated, FusedMomentKernel, StepWeights, MAX_STRETCH_STEPS};
pub use operator::{KroneckerSum, ModelStructure, OperatorMatrix};
pub use pool::{PoolStats, WorkerPool};
pub use scalar::{Cx, Scalar};
pub use simd::KernelVariant;
pub use sparse::{CsrMatrix, TripletBuilder};
