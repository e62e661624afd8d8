//! # somrm — Analysis of Second-Order Markov Reward Models
//!
//! A Rust implementation of *G. Horváth, S. Rácz, M. Telek, "Analysis of
//! Second-Order Markov Reward Models", DSN 2004*, together with every
//! substrate and baseline the paper's evaluation relies on.
//!
//! A **second-order Markov reward model** extends a finite CTMC `Z(t)`
//! with a reward `B(t)` that accumulates as a state-modulated Brownian
//! motion: in state `i` the reward has drift `r_i` and variance `σ_i²`.
//! The headline tool is the paper's randomization-based moment solver
//! ([`solver::moments`]) — numerically stable (subtraction-free), with a
//! strict computable error bound, and with per-step cost equal to
//! first-order MRM analysis even on models with hundreds of thousands of
//! states.
//!
//! ## Crates re-exported here
//!
//! | module | contents |
//! |---|---|
//! | [`model`], [`solver`] | the model type and the randomization solver (`somrm-core`) |
//! | [`ctmc`] | generators, uniformization, stationary distributions |
//! | [`bounds`] | moment → CDF envelopes (Chebyshev–Markov–Stieltjes) |
//! | [`sim`] | Monte-Carlo simulation of second-order MRMs |
//! | [`ode`], [`pde`], [`transform`] | the paper's baselines / small-model oracles |
//! | [`models`] | ON-OFF multiplexer (the paper's example), performability, queueing |
//! | [`linalg`], [`num`] | the numeric substrates |
//! | [`serve`] | plan-cached batch serving (LRU `SolvePlan` cache, JSON-lines protocol) |
//! | [`verify`] | differential oracle harness cross-checking every backend |
//!
//! ## Quick start
//!
//! ```
//! use somrm::prelude::*;
//!
//! // The paper's Table-1 telecom model with per-source variance 1.
//! let model = OnOffMultiplexer::table1(1.0).model()?;
//!
//! // Moments of the capacity left for best-effort traffic over (0, 0.5].
//! let sol = moments(&model, 3, 0.5, &SolverConfig::default())?;
//! println!("E[B]  = {:.4}", sol.mean());
//! println!("Var   = {:.4}", sol.variance());
//!
//! // Hard bounds on P[B ≤ x] from 23 moments (Figures 5-7 pipeline).
//! let deep = moments(&model, 23, 0.5, &SolverConfig::default())?;
//! let bound = &cdf_bounds::<somrm::num::Dd>(&deep.weighted, &[sol.mean()])?[0];
//! assert!(bound.lower <= bound.upper);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use somrm_bounds as bounds;
pub use somrm_ctmc as ctmc;
pub use somrm_linalg as linalg;
pub use somrm_models as models;
pub use somrm_num as num;
pub use somrm_obs as obs;
pub use somrm_ode as ode;
pub use somrm_pde as pde;
pub use somrm_serve as serve;
pub use somrm_sim as sim;
pub use somrm_transform as transform;
pub use somrm_verify as verify;

/// The paper's model type and validation errors (`somrm-core`).
pub mod model {
    pub use somrm_core::error::MrmError;
    pub use somrm_core::model::SecondOrderMrm;
    pub use somrm_core::moments::{
        central_to_raw, central_to_standardized, normal_raw_moments, raw_to_central, summarize,
        MomentSummary,
    };
}

/// The randomization moment solvers (`somrm-core`).
pub mod solver {
    pub use somrm_core::first_order::moments_first_order;
    pub use somrm_core::impulse::{moments_with_impulse, ImpulseMrm};
    pub use somrm_core::terminal::moments_terminal_weighted;
    pub use somrm_core::plan::{chain_digest, model_digest, ProjectedSeries, SeriesUse, SolvePlan};
    pub use somrm_core::uniformization::{
        moments, moments_sweep, MomentSolution, SolverConfig, SolverStats,
    };
    pub use somrm_linalg::MatrixFormat;
}

/// One-import convenience for the common workflow.
pub mod prelude {
    pub use crate::bounds::cms::cdf_bounds;
    pub use crate::ctmc::generator::{Generator, GeneratorBuilder};
    pub use crate::model::{MrmError, SecondOrderMrm};
    pub use crate::models::{Multiprocessor, NoisyQueue, OnOffMultiplexer};
    pub use crate::solver::{moments, moments_sweep, MomentSolution, SolverConfig};
}
