//! Second-order Markov reward models: the core library of the `somrm`
//! workspace, reproducing *G. Horváth, S. Rácz, M. Telek, "Analysis of
//! Second-Order Markov Reward Models", DSN 2004*.
//!
//! A second-order MRM extends a finite CTMC with a reward variable that
//! accumulates as a state-modulated Brownian motion: in state `i` the
//! reward has drift `r_i` and variance `σ_i²`. This crate provides:
//!
//! * [`model::SecondOrderMrm`] — the validated model type `(Q, R, S, π)`;
//! * [`uniformization::moments`] — the paper's randomization-based
//!   moment solver (Theorems 3–4) with its computable error bound;
//! * [`first_order::moments_first_order`] — the classical variance-free
//!   recursion, kept separate so the paper's cost-parity claim can be
//!   benchmarked honestly;
//! * [`moments`] — raw/central/standardized moment conversions and
//!   summary statistics.
//!
//! # Quick start
//!
//! ```
//! use somrm_ctmc::generator::GeneratorBuilder;
//! use somrm_core::model::SecondOrderMrm;
//! use somrm_core::uniformization::{moments, SolverConfig};
//!
//! // A 2-state chain: state 1 earns reward at rate 3 with variance 2.
//! let mut b = GeneratorBuilder::new(2);
//! b.rate(0, 1, 1.0)?;
//! b.rate(1, 0, 2.0)?;
//! let model = SecondOrderMrm::new(b.build()?, vec![0.0, 3.0], vec![0.0, 2.0], vec![1.0, 0.0])?;
//!
//! let sol = moments(&model, 3, 0.5, &SolverConfig::default())?;
//! println!("E[B(0.5)] = {}", sol.mean());
//! assert!(sol.variance() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod error;
pub mod first_order;
pub mod impulse;
pub mod model;
pub mod moments;
pub mod plan;
pub mod terminal;
pub mod uniformization;

pub use error::MrmError;
pub use model::SecondOrderMrm;
pub use plan::{chain_digest, digests, model_digest, ProjectedSeries, SeriesUse, SolvePlan};
pub use uniformization::{moments as solve_moments, MomentSolution, SolverConfig, SolverStats};
