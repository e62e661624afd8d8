//! Plan/execute split of the uniformization solver.
//!
//! The paper's workloads are "few hot models, many queries": Table 2
//! re-solves the same multiplexer at many time points and orders. A cold
//! [`crate::uniformization::moments_sweep`] call re-derives everything
//! from scratch each time — uniformization constants, the iteration
//! matrix in its chosen storage format, the normalized reward vectors,
//! and a fresh worker pool. [`SolvePlan`] hoists exactly the parts that
//! depend only on `(model, config)`:
//!
//! - validation of the configuration ([`SolverConfig::validate`]),
//! - `q`, the drift shift `ř`, and the normalization constant `d`,
//! - the [`IterationMatrix`] (CSR or banded DIA, selected once),
//! - the substochastic `R'` and `½S'` diagonals,
//! - for an impulse model ([`SolvePlan::build_impulse`]), the coupling
//!   matrices `Q'_l`,
//! - the [`WorkerPool`], whose threads stay parked between executes.
//!
//! A plan holds its model's chain by [`std::sync::Arc`], not a copy, and
//! takes no digest: a cache that keys plans digests the model itself
//! ([`chain_digest`], [`model_digest`]).
//!
//! [`SolvePlan::execute`] then performs only the per-query work: the
//! Theorem-4 truncation search for the *requested* time grid, the
//! Poisson windows, the fused `U`-recursion, and assembly. Crucially the
//! truncation point is recomputed per execute — a plan-wide `G` would
//! keep extra non-zero Poisson weights alive for small times and break
//! the bitwise guarantee below.
//!
//! # Bitwise contract
//!
//! `SolvePlan::build(m, n, c)?.execute(ts, n)` returns results
//! bit-identical to `moments_sweep(m, n, ts, c)` (which is nowadays a
//! thin wrapper over exactly that), for every matrix format and thread
//! count, on first and on repeated executes; likewise for the terminal
//! and impulse wrappers. The verify crate enforces this as an oracle
//! arm.
//!
//! # Weighted queries
//!
//! [`SolvePlan::execute_weighted`] answers π-weighted moments only. By
//! the linearity of Theorem 3, `πᵀ Σₖ wₖ U⁽ʲ⁾(k) = Σₖ wₖ aⱼ(k)` with
//! `aⱼ(k) = πᵀU⁽ʲ⁾(k)`, one scalar per order and step that does not
//! depend on `t`. A [`ProjectedSeries`] keeps those scalars for one
//! `(chain, π)` plus the iterate it stopped at, so one series answers
//! every horizon whose `G` it covers with no recursion at all, and a
//! longer horizon resumes it. The series is bitwise the same built in
//! one go or resumed, on CSR and on DIA, so each answer is a pure
//! function of the plan's chain, π, the query and the configuration.
//! It differs from [`SolvePlan::execute`]'s `weighted` by rounding only
//! (the sum over states moves inside the sum over steps). A series
//! never grows past its byte limit ([`ProjectedSeries::with_max_bytes`]):
//! a query it cannot keep folds the same scalars into its Poisson sums
//! as they come and records nothing, with the same bits.

use crate::error::MrmError;
use crate::impulse::ImpulseMrm;
use crate::model::SecondOrderMrm;
use crate::moments::unshift_moments;
use crate::uniformization::{
    attach_degenerate_report, bound_fronts, deterministic_solution, frozen_chain_solution,
    left_error_bounds, left_truncation_point, poisson_accounting, pool_section, truncation_point,
    validate_times, weighted_moments, MomentSolution, SolverConfig, SolverStats,
};
use somrm_linalg::sparse::{CsrMatrix, TripletBuilder};
use somrm_linalg::{
    FootprintBytes, FusedMomentKernel, IterationMatrix, LinalgError, MatrixFormat, Start,
    StepWeights, WorkerPool, MAX_STRETCH_STEPS,
};
use somrm_num::poisson::PoissonWindow;
use somrm_num::special::ln_factorial;
use somrm_num::sum::NeumaierSum;
use somrm_obs::{
    Event, HealthMonitor, MemCategory, MemLedger, PoissonStat, SolveReport, SolverSection, Span,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Maps the linalg-level format failures to their typed [`MrmError`]
/// equivalents (anything else would be a solver bug surfacing late).
fn format_error(e: LinalgError) -> MrmError {
    match e {
        LinalgError::AllocationTooLarge {
            what,
            estimated_bytes,
            cap_bytes,
        } => MrmError::AllocationTooLarge {
            what,
            estimated_bytes,
            cap_bytes,
        },
        other => MrmError::InvalidParameter {
            name: "format",
            reason: other.to_string(),
        },
    }
}

/// Folds 64-bit words into a hash state, one whole word per step: the
/// FNV-1a step (xor, then multiply by the FNV prime) on words instead of
/// bytes, then a rotation. A product carries bits only upward, so
/// without the rotation a word's high bits (a float's sign and
/// exponent) would reach only the state's top bits, where a later
/// word's could cancel them.
fn fold_words(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for v in words {
        h = (h ^ v).wrapping_mul(PRIME).rotate_left(29);
    }
    h
}

/// Floats as digest words: their exact bit patterns.
fn f64_words(v: &[f64]) -> impl Iterator<Item = u64> + '_ {
    v.iter().map(|x| x.to_bits())
}

/// Folds a CSR matrix into `h`: row pointers, column indices, values.
fn fold_csr(h: u64, m: &CsrMatrix<f64>) -> u64 {
    let (row_ptr, col_idx, values) = m.csr_parts();
    let h = fold_words(h, row_ptr.iter().map(|&p| p as u64));
    let h = fold_words(h, col_idx.iter().map(|&p| p as u64));
    fold_words(h, f64_words(values))
}

/// Digest of a model's chain — its generator and rewards `(Q, r, σ²)`,
/// not the initial distribution: a word-wise hash over the state count, the
/// CSR arrays and the drift and variance bit patterns. Everything a
/// [`SolvePlan`] holds depends on the chain alone, so this is a plan's
/// cache key. It is index material, not identity: a cache confirms a
/// key match with [`SecondOrderMrm::same_chain`].
pub fn chain_digest(model: &SecondOrderMrm) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let h = fold_words(OFFSET, [model.n_states() as u64]);
    let h = fold_csr(h, model.generator().as_csr());
    let h = fold_words(h, f64_words(model.rates()));
    fold_words(h, f64_words(model.variances()))
}

/// Content digest of a model: structure and every parameter, via the
/// exact bit patterns of the floats — the [`chain_digest`] continued
/// over the initial distribution. Two models share a digest iff they
/// solve identically (modulo an astronomically unlikely collision): a
/// mutated model — one rate nudged, one variance added, π moved —
/// changes the digest.
pub fn model_digest(model: &SecondOrderMrm) -> u64 {
    digests(model).1
}

/// `(chain_digest(model), model_digest(model))` in one pass over the
/// model's content.
pub fn digests(model: &SecondOrderMrm) -> (u64, u64) {
    let chain = chain_digest(model);
    (chain, fold_words(chain, f64_words(model.initial())))
}

/// The π-projected series of one `(chain, π)` (see the module docs):
/// `aⱼ(k) = πᵀU⁽ʲ⁾(k)` for every order `j ≤ order()` and step
/// `k ≤ g()`, and the iterate `U(g)` a query with a larger `G` resumes
/// from. `U⁽⁰⁾ ≡ 1`, so `a₀(k)` is the constant `Σπ` and the series
/// records orders `1..=order()` only. Starts empty;
/// [`SolvePlan::execute_weighted`] fills and extends it, up to its byte
/// limit.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedSeries {
    pi: Vec<f64>,
    /// `Σπ`, summed in state order: `a₀(k)` at every step.
    mass: f64,
    order: usize,
    /// `aⱼ(k)` at `[k·order + j − 1]` for `j = 1..=order`, `k = 0..=g`;
    /// empty before the first recursion.
    values: Vec<f64>,
    /// `U(g)` of orders `1..=order`, flattened as `u[(j−1)·n + i]`.
    iterate: Vec<f64>,
    /// Largest [`ProjectedSeries::footprint_bytes`] a query may grow the
    /// series to.
    max_bytes: usize,
}

impl ProjectedSeries {
    /// An empty series for the initial distribution `pi`, with no byte
    /// limit.
    pub fn new(pi: Vec<f64>) -> Self {
        ProjectedSeries {
            mass: pi.iter().sum(),
            pi,
            order: 0,
            values: Vec::new(),
            iterate: Vec::new(),
            max_bytes: usize::MAX,
        }
    }

    /// Limits the series to `max_bytes` of [`ProjectedSeries::footprint_bytes`].
    /// A query whose `G` and order would take it past that is answered
    /// without recording ([`SeriesUse::Streamed`]), with the same bits,
    /// and leaves the series as it was.
    pub fn with_max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// The initial distribution the series projects onto.
    pub fn pi(&self) -> &[f64] {
        &self.pi
    }

    /// Highest order recorded.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Last step recorded, `None` while empty (an order-0 query records
    /// nothing: it needs no recursion).
    pub fn g(&self) -> Option<u64> {
        (self.values.len() / self.order.max(1))
            .checked_sub(1)
            .map(|g| g as u64)
    }

    /// `aⱼ(k)` for `k = 0..=g()` (`a₀(k) = Σπ`).
    ///
    /// # Panics
    ///
    /// Panics if `j > order()`.
    pub fn values(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(
            j <= self.order,
            "order {j} above the series' {}",
            self.order
        );
        let steps = self.g().map_or(0, |g| g as usize + 1);
        (0..steps).map(move |k| match j {
            0 => self.mass,
            _ => self.values[k * self.order + j - 1],
        })
    }

    /// Whether the series answers order `order` up to step `g` as it is;
    /// order 0 needs no recorded step.
    fn covers(&self, order: usize, g: u64) -> bool {
        order == 0 || (order <= self.order && self.g().is_some_and(|have| have >= g))
    }

    /// Exact owned bytes: π, the recorded values and the iterate.
    pub fn footprint_bytes(&self) -> usize {
        (self.pi.capacity() + self.values.capacity() + self.iterate.capacity())
            * std::mem::size_of::<f64>()
    }

    /// Bytes of the series recorded at `order` up to step `g`: π, the
    /// values of orders `1..=order` and their iterate over `pi().len()`
    /// states.
    fn bytes_at(&self, order: usize, g: u64) -> u128 {
        let (n, order) = (self.pi.len() as u128, order as u128);
        (n + (u128::from(g) + 1) * order + n * order) * std::mem::size_of::<f64>() as u128
    }
}

/// How a weighted query used its [`ProjectedSeries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesUse {
    /// Answered from the recorded values; no recursion ran.
    Hit,
    /// The recursion resumed from the series' last iterate to a larger
    /// `G`.
    Resumed,
    /// The recursion ran from step 0: the series was empty or recorded
    /// too low an order.
    Built,
    /// The recursion ran from step 0 and recorded nothing: the series
    /// would have grown past its byte limit. The series is unchanged.
    Streamed,
}

/// One query's Theorem-4 truncation, the part every query shares: `G`
/// from one search at the largest horizon, each horizon's Poisson window
/// cut at its own left edge, and the reported per-order bounds.
struct Truncation {
    qt: f64,
    g: u64,
    windows: Vec<Option<PoissonWindow>>,
    error_bounds: Vec<f64>,
    error_bound: f64,
    /// Per-horizon window accounting; empty without a recorder.
    poisson_stats: Vec<PoissonStat>,
}

/// What [`SolvePlan::open_query`] leaves to its caller.
enum Opened<'a> {
    /// The answer, found without a recursion (no times, a frozen chain or
    /// a deterministic drift).
    Answered(Vec<MomentSolution>),
    /// A recursion is needed; the query's `plan.execute` span stays open
    /// until this is dropped.
    Recurse(Span<'a>),
}

/// Where a weighted run's `aⱼ(k)` go.
enum Projection<'p, 'w> {
    /// Appended to the series, resuming from its last step.
    Record(&'p mut ProjectedSeries),
    /// Folded into the horizons' Poisson sums stretch by stretch, from
    /// step 0 over the initial distribution given; nothing is kept.
    Fold(&'p [f64], &'p mut WindowSums<'w>),
}

/// Each horizon's compensated Poisson sums `Σₖ wₖ aⱼ(k)` over a weighted
/// run's scalars, fed in ascending `k`: all at once from a recorded
/// series, or stretch by stretch from a run that records nothing. Every
/// sum sees the same adds in the same order either way. Order 0's
/// `a₀(k) = Σπ` is summed over each whole window up front.
struct WindowSums<'w> {
    windows: &'w [Option<PoissonWindow>],
    order: usize,
    /// `[ti·(order+1) + j]`.
    sums: Vec<NeumaierSum>,
}

impl<'w> WindowSums<'w> {
    fn new(windows: &'w [Option<PoissonWindow>], order: usize, mass: f64) -> Self {
        let mut sums = vec![NeumaierSum::new(); windows.len() * (order + 1)];
        for (w, sums) in windows.iter().zip(sums.chunks_mut(order + 1)) {
            if let Some(w) = w {
                w.weights().iter().for_each(|&wk| sums[0].add(wk * mass));
            }
        }
        WindowSums {
            windows,
            order,
            sums,
        }
    }

    /// Adds the steps `k0, k0 + 1, …` of `values` that fall in each
    /// horizon's window; a step holds orders `1..=stride` (at least up to
    /// this query's order), laid out as `[(k − k0)·stride + j − 1]`.
    fn add(&mut self, k0: u64, values: &[f64], stride: usize) {
        if self.order == 0 {
            return;
        }
        let steps = (values.len() / stride) as u64;
        let order1 = self.order + 1;
        for (w, sums) in self.windows.iter().zip(self.sums.chunks_mut(order1)) {
            let Some(w) = w else { continue };
            let (left, weights) = (w.left(), w.weights());
            let hi = (k0 + steps).min(left + weights.len() as u64);
            for k in k0.max(left)..hi {
                let wk = weights[(k - left) as usize];
                let row = &values[(k - k0) as usize * stride..][..self.order];
                for (sum, &a) in sums[1..].iter_mut().zip(row) {
                    sum.add(wk * a);
                }
            }
        }
    }

    fn value(&self, ti: usize, j: usize) -> f64 {
        self.sums[ti * (self.order + 1) + j].value()
    }
}

/// Impulse coupling matrices `Q'_l = {q_ij·c_ijˡ}/(q·dˡ·l!)` for
/// `l = 1..=max_order` (DESIGN.md §7); each is substochastic because
/// `d ≥ max c_ij`.
fn coupling_matrices(model: &ImpulseMrm, q: f64, d: f64, max_order: usize) -> Vec<CsrMatrix<f64>> {
    let n = model.base().n_states();
    let rates = model.base().generator().as_csr();
    let impulses = model.impulse_matrix();
    (1..=max_order)
        .map(|l| {
            let scale = (ln_factorial(l as u64) + l as f64 * d.ln() + q.ln()).exp();
            let mut b = TripletBuilder::with_capacity(n, n, impulses.nnz());
            for i in 0..n {
                for (j, c) in impulses.row(i) {
                    b.push(i, j, rates.get(i, j) * c.powi(l as i32) / scale);
                }
            }
            b.build()
        })
        .collect()
}

/// Adds the impulse terms `Σ_{l=1}^{j} Q'_l·U⁽ʲ⁻ˡ⁾(k)` into `U⁽ʲ⁾(k+1)`
/// for every order `j ≤ coupling.len()`: per row, the terms are summed in
/// ascending `l` and column order and then added once. `next` and `prev`
/// are the kernel's flattened iterates of the orders from `base` up
/// (`u[(j−base)·n + i]`); on a unit start (`base` 1) the `U⁽⁰⁾` term
/// reads the constant 1, so it adds `Q'_j`'s row entries themselves.
fn add_coupling(
    coupling: &[CsrMatrix<f64>],
    n: usize,
    base: usize,
    next: &mut [f64],
    prev: &[f64],
) {
    for j in 1..=coupling.len() {
        for i in 0..n {
            let mut sum = 0.0;
            for l in 1..=j {
                let row = coupling[l - 1].row(i);
                if j - l < base {
                    row.for_each(|(_, v)| sum += v);
                } else {
                    let u = &prev[(j - l - base) * n..(j - l - base + 1) * n];
                    row.for_each(|(col, v)| sum += v * u[col]);
                }
            }
            next[(j - base) * n + i] += sum;
        }
    }
}

/// `Σₖ wₖ` over a horizon's window, Neumaier-summed in ascending `k`:
/// a unit start's order-0 accumulator, the bits of accumulating
/// `wₖ·1.0` for every positive weight.
fn window_mass(window: &PoissonWindow) -> NeumaierSum {
    let mut mass = NeumaierSum::new();
    window
        .weights()
        .iter()
        .filter(|&&wk| wk > 0.0)
        .for_each(|&wk| mass.add(wk));
    mass
}

/// Model- and config-dependent solver state reusable across executes.
///
/// Present only when `q > 0` (a frozen chain never runs the recursion).
/// When the raw `d` is zero the normalized vectors are computed with the
/// terminal solver's `f64::MIN_POSITIVE` floor — the plain sweep takes
/// its exact degenerate path and never reads them, while the terminal
/// path reproduces its historical values bit-for-bit.
#[derive(Debug)]
struct PlanKernel {
    matrix: IterationMatrix,
    /// `matrix.bandwidth()`, scanned once here (`O(nnz)` for CSR): the
    /// kernel's wavefront skew per step.
    bandwidth: usize,
    r_prime: Vec<f64>,
    s_half: Vec<f64>,
    /// Impulse coupling `Q'_1 ..= Q'_max_order`; empty for rate-reward
    /// plans.
    coupling: Vec<CsrMatrix<f64>>,
    /// Parked worker threads, spawned once at plan build. `None` for
    /// serial plans. Behind a mutex so `execute(&self)` can hand the
    /// kernel exclusive access while the plan itself is shared (`Arc`).
    pool: Option<Mutex<WorkerPool>>,
}

impl PlanKernel {
    /// Exact owned bytes beyond the iteration matrix: the `R'`/`½S'`
    /// diagonals and the coupling matrices.
    fn plan_bytes(&self) -> usize {
        (self.r_prime.len() + self.s_half.len()) * std::mem::size_of::<f64>()
            + self
                .coupling
                .iter()
                .map(FootprintBytes::footprint_bytes)
                .sum::<usize>()
    }
}

/// A prepared solve: everything derived from `(model, config)` alone,
/// built once by [`SolvePlan::build`] (or [`SolvePlan::build_impulse`])
/// and executed many times by [`SolvePlan::execute`] /
/// [`SolvePlan::execute_terminal`].
#[derive(Debug)]
pub struct SolvePlan {
    /// The planned model: its chain shared with the caller's, π copied.
    model: SecondOrderMrm,
    max_order: usize,
    config: SolverConfig,
    q: f64,
    d: f64,
    shift: f64,
    /// Built from an [`ImpulseMrm`] with at least one impulse: `d`
    /// dominates the impulses and the truncation uses the impulse front
    /// factor.
    impulse: bool,
    kernel: Option<PlanKernel>,
    /// Memory ledger: exact per-category bytes + peak RSS. Present only
    /// when the config carries a recorder (disabled-by-default, like
    /// every observability hook); the cheap [`SolvePlan::footprint_bytes`]
    /// accounting the byte-aware plan cache budgets against works with
    /// or without it.
    mem: Option<Arc<MemLedger>>,
}

impl SolvePlan {
    /// Builds a plan for moment queries up to `max_order`.
    ///
    /// # Errors
    ///
    /// Returns [`MrmError::InvalidParameter`] when the configuration is
    /// invalid (see [`SolverConfig::validate`]).
    pub fn build(
        model: &SecondOrderMrm,
        max_order: usize,
        config: &SolverConfig,
    ) -> Result<SolvePlan, MrmError> {
        Self::build_with(model, None, max_order, config)
    }

    /// Builds a plan for an impulse-extended model: `d` is widened to
    /// dominate every impulse, and the coupling matrices `Q'_l` for
    /// `l ≤ max_order` are built once, so every execute runs the extended
    /// recursion (`crate::impulse`) on the fused kernel. A model without
    /// impulses plans exactly like its base model.
    ///
    /// # Errors
    ///
    /// Same as [`SolvePlan::build`].
    pub fn build_impulse(
        model: &ImpulseMrm,
        max_order: usize,
        config: &SolverConfig,
    ) -> Result<SolvePlan, MrmError> {
        let impulses = (model.max_impulse() > 0.0).then_some(model);
        Self::build_with(model.base(), impulses, max_order, config)
    }

    fn build_with(
        model: &SecondOrderMrm,
        impulses: Option<&ImpulseMrm>,
        max_order: usize,
        config: &SolverConfig,
    ) -> Result<SolvePlan, MrmError> {
        let n_states = model.n_states();
        config.validate(n_states)?;
        let q = model.generator().uniformization_rate();
        let shift = model.min_rate().min(0.0);
        let shifted_rates: Vec<f64> = model.rates().iter().map(|&r| r - shift).collect();

        let (d, kernel) = if q == 0.0 {
            (0.0, None)
        } else {
            let max_rate = shifted_rates.iter().copied().fold(0.0, f64::max);
            let max_sigma = model
                .variances()
                .iter()
                .map(|&s| s.sqrt())
                .fold(0.0, f64::max);
            let mut d = (max_rate / q).max(max_sigma / q.sqrt());
            if let Some(m) = impulses {
                d = d.max(m.max_impulse());
            }
            let dk = if d > 0.0 { d } else { f64::MIN_POSITIVE };
            let rec = &config.recorder;
            let (matrix, r_prime, s_half, coupling) = rec.time("solve.setup", || {
                let matrix = Self::resolve_matrix(model, q, config.format)?;
                let r_prime: Vec<f64> = shifted_rates.iter().map(|&r| r / (q * dk)).collect();
                let s_half: Vec<f64> = model
                    .variances()
                    .iter()
                    .map(|&s| 0.5 * s / (q * dk * dk))
                    .collect();
                let coupling =
                    impulses.map_or_else(Vec::new, |m| coupling_matrices(m, q, d, max_order));
                Ok::<_, MrmError>((matrix, r_prime, s_half, coupling))
            })?;
            // Same clamp the fused kernel applies internally, so the
            // pool thread count *is* the chunk count — fixed chunk
            // boundaries keep every execute bit-identical to a cold run.
            let threads = config.effective_threads(n_states).clamp(1, n_states.max(1));
            let pool = (threads > 1).then(|| Mutex::new(WorkerPool::new(threads)));
            (
                d,
                Some(PlanKernel {
                    bandwidth: matrix.bandwidth(),
                    matrix,
                    r_prime,
                    s_half,
                    coupling,
                    pool,
                }),
            )
        };

        let mem = match (&kernel, config.recorder.enabled()) {
            (Some(pk), true) => {
                let rec = &config.recorder;
                let ledger = MemLedger::new();
                let cat = Self::matrix_category(&pk.matrix);
                let matrix_bytes = pk.matrix.footprint_bytes() as u64;
                let plan_bytes = pk.plan_bytes() as u64;
                ledger.set(cat, matrix_bytes);
                ledger.set(MemCategory::Plan, plan_bytes);
                ledger.observe_rss();
                rec.gauge_set(cat.gauge_name(), matrix_bytes as f64);
                rec.gauge_set(MemCategory::Plan.gauge_name(), plan_bytes as f64);
                Some(Arc::new(ledger))
            }
            _ => None,
        };

        Ok(SolvePlan {
            model: model.clone(),
            max_order,
            config: config.clone(),
            q,
            d,
            shift,
            impulse: impulses.is_some(),
            kernel,
            mem,
        })
    }

    /// The ledger category the resolved iteration matrix accounts under.
    fn matrix_category(matrix: &IterationMatrix) -> MemCategory {
        match matrix {
            IterationMatrix::Csr(_) => MemCategory::MatrixCsr,
            IterationMatrix::Dia(_) => MemCategory::MatrixDia,
        }
    }

    /// The iteration matrix of this model/format pair, as
    /// [`IterationMatrix::uniformized`] stores it: `Auto` picks DIA
    /// strips or CSR, `Csr`/`Dia` force that storage, with the forced-DIA
    /// path refusing past [`somrm_linalg::FORCED_DIA_MAX_BYTES`].
    pub(crate) fn resolve_matrix(
        model: &SecondOrderMrm,
        q: f64,
        format: MatrixFormat,
    ) -> Result<IterationMatrix, MrmError> {
        IterationMatrix::uniformized(model.generator().as_csr(), q, format).map_err(format_error)
    }

    /// Name of the resolved matrix backend (`"csr"` or `"dia"`), or
    /// `"none"` for a frozen chain with no kernel.
    pub fn matrix_format_name(&self) -> &'static str {
        self.kernel
            .as_ref()
            .map_or("none", |k| k.matrix.format_name())
    }

    /// Highest moment order this plan accepts.
    pub fn max_order(&self) -> usize {
        self.max_order
    }

    /// Number of states of the planned model.
    pub fn n_states(&self) -> usize {
        self.model.n_states()
    }

    /// Uniformization rate `q` of the planned model.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Normalization constant `d` (raw, i.e. possibly `0.0`).
    pub fn d(&self) -> f64 {
        self.d
    }

    /// Drift shift `ř` applied (0 when all drifts are non-negative).
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// The planned model (the base model of an impulse plan).
    pub fn model(&self) -> &SecondOrderMrm {
        &self.model
    }

    /// The configuration the plan was built with.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    fn check_order(&self, order: usize) -> Result<(), MrmError> {
        if order > self.max_order {
            return Err(MrmError::InvalidParameter {
                name: "order",
                reason: format!(
                    "plan was built for orders up to {}, got {order}",
                    self.max_order
                ),
            });
        }
        Ok(())
    }

    fn lock_pool(kernel: &PlanKernel) -> Option<MutexGuard<'_, WorkerPool>> {
        kernel
            .pool
            .as_ref()
            // A panic inside a kernel pass poisons the lock; the pool's
            // epoch protocol re-raises that panic on the next run, so
            // clearing the poison here loses nothing.
            .map(|m| m.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Moments at several time points in one pass of the `U`-recursion —
    /// the per-query half of [`crate::uniformization::moments_sweep`]
    /// (or, on an impulse plan, of [`crate::impulse::moments_with_impulse`]),
    /// bit-identical to a cold call.
    ///
    /// # Errors
    ///
    /// Returns [`MrmError::InvalidParameter`] for a negative/non-finite
    /// time or `order > max_order`, and
    /// [`MrmError::TruncationCapExceeded`] if the truncation point exceeds
    /// the iteration cap.
    pub fn execute(&self, times: &[f64], order: usize) -> Result<Vec<MomentSolution>, MrmError> {
        let _execute = match self.open_query(times, order, self.model.initial())? {
            Opened::Answered(solutions) => return Ok(solutions),
            Opened::Recurse(span) => span,
        };
        let command = if self.impulse { "impulse" } else { "moments" };
        self.drive(
            times,
            order,
            Start::Unit,
            self.d,
            self.left_budget(),
            command,
        )
    }

    /// The prologue of every π-weighted query ([`SolvePlan::execute`],
    /// [`SolvePlan::execute_weighted`]): the order and time checks, then
    /// the `plan.execute` span and counter and `solve.start`. The span
    /// covers every path, degenerate ones included: serve-side cost
    /// attribution needs the full per-query wall time, not just the
    /// recursion. A frozen chain (`q = 0`) or a deterministic drift
    /// (`d = 0`) needs no recursion; their exact closed forms, weighted by
    /// `pi`, are the answer.
    fn open_query(&self, times: &[f64], order: usize, pi: &[f64]) -> Result<Opened<'_>, MrmError> {
        self.check_order(order)?;
        validate_times(times)?;
        if times.is_empty() {
            return Ok(Opened::Answered(Vec::new()));
        }
        let config = &self.config;
        let rec = &config.recorder;
        let span = rec.span("plan.execute");
        rec.counter_add("plan.executes", 1);
        self.emit_solve_start(order, times.len());
        let (q, d, shift) = (self.q, self.d, self.shift);
        if q != 0.0 && d != 0.0 {
            return Ok(Opened::Recurse(span));
        }
        let model = &self.model;
        let mut solutions: Vec<MomentSolution> = times
            .iter()
            .map(|&t| {
                if q == 0.0 {
                    frozen_chain_solution(model, pi, order, t)
                } else {
                    deterministic_solution(model, order, t, shift)
                }
            })
            .collect();
        let shift = if q == 0.0 { 0.0 } else { shift };
        attach_degenerate_report(&mut solutions, model, config, order, q, 0.0, shift);
        let ev = &config.events;
        if ev.enabled() {
            ev.emit(&Event::Complete {
                g: 0,
                error_bound: 0.0,
            });
        }
        Ok(Opened::Answered(solutions))
    }

    /// Terminal-weighted moments — the per-query half of
    /// [`crate::terminal::moments_terminal_weighted`], bit-identical to
    /// a cold call. On an impulse plan the impulses count too.
    ///
    /// # Errors
    ///
    /// Same as [`SolvePlan::execute`], plus the length/validity checks
    /// on `terminal_weights`.
    pub fn execute_terminal(
        &self,
        t: f64,
        terminal_weights: &[f64],
        order: usize,
    ) -> Result<MomentSolution, MrmError> {
        self.check_order(order)?;
        let model = &self.model;
        let n_states = model.n_states();
        if terminal_weights.len() != n_states {
            return Err(MrmError::DimensionMismatch {
                what: "terminal weight vector",
                expected: n_states,
                actual: terminal_weights.len(),
            });
        }
        for (i, &w) in terminal_weights.iter().enumerate() {
            if !(w >= 0.0) || !w.is_finite() {
                return Err(MrmError::InvalidParameter {
                    name: "terminal_weights",
                    reason: format!("weight of state {i} is {w}"),
                });
            }
        }
        validate_times(std::slice::from_ref(&t))?;

        if self.q == 0.0 || t == 0.0 {
            // Frozen chain / zero horizon: w_{Z(t)} = w_{Z(0)}.
            let plain = self
                .execute(&[t], order)?
                .pop()
                .expect("one time point requested");
            let per_state: Vec<Vec<f64>> = (0..=order)
                .map(|n| {
                    (0..n_states)
                        .map(|i| plain.per_state[n][i] * terminal_weights[i])
                        .collect()
                })
                .collect();
            return Ok(MomentSolution {
                t,
                weighted: weighted_moments(&per_state, model.initial()),
                per_state,
                ..plain
            });
        }

        let rec = &self.config.recorder;
        // Mirrors `execute`'s outer span (the q = 0 / t = 0 paths above
        // delegate to `execute` and are covered by its span).
        let _execute = rec.span("plan.execute_terminal");
        rec.counter_add("plan.executes", 1);
        self.emit_solve_start(order, 1);
        // The terminal solver floors d at the smallest positive double
        // (it has no exact d = 0 path); the plan's normalized vectors
        // were computed with the same floor.
        let d = self.d.max(f64::MIN_POSITIVE);
        let start = Start::Vector(terminal_weights);
        let mut solutions = self.drive(&[t], order, start, d, self.left_budget(), "terminal")?;
        Ok(solutions.pop().expect("one time point requested"))
    }

    /// π-weighted moments at several time points from `series`, the
    /// projected series of this plan's chain and `series.pi()` (module
    /// docs): one truncation search, then — when the series does not yet
    /// reach this query's `G` at its order — a recursion that resumes the
    /// series from its last iterate (or rebuilds it from step 0 at
    /// `order`, if it recorded a lower order or nothing), then the
    /// horizons' Poisson sums over the recorded `aⱼ(k)`. When growing the
    /// series would take it past its byte limit, the recursion runs from
    /// step 0, folds each step's `aⱼ(k)` into the sums as it comes and
    /// records nothing, with the same bits. Each solution's `per_state`
    /// is empty and it carries no report; `weighted`, `error_bounds` and
    /// `stats` are as [`SolvePlan::execute`] reports them, up to rounding.
    ///
    /// # Errors
    ///
    /// As [`SolvePlan::execute`], plus [`MrmError::DimensionMismatch`]
    /// if `series.pi()` does not have one entry per state.
    pub fn execute_weighted(
        &self,
        series: &mut ProjectedSeries,
        times: &[f64],
        order: usize,
    ) -> Result<(Vec<MomentSolution>, SeriesUse), MrmError> {
        let n_states = self.n_states();
        if series.pi.len() != n_states {
            return Err(MrmError::DimensionMismatch {
                what: "projection vector",
                expected: n_states,
                actual: series.pi.len(),
            });
        }
        let _execute = match self.open_query(times, order, &series.pi)? {
            Opened::Answered(mut solutions) => {
                for s in &mut solutions {
                    s.per_state = Vec::new();
                    s.report = None;
                }
                return Ok((solutions, SeriesUse::Hit));
            }
            Opened::Recurse(span) => span,
        };
        let config = &self.config;
        let (rec, ev) = (&config.recorder, &config.events);
        let (q, d, shift) = (self.q, self.d, self.shift);
        let pk = self.kernel.as_ref().expect("kernel built whenever q > 0");
        self.emit_plan_resolved(pk, d);
        let tr = self.truncate(pk, times, order, Start::Unit, d, self.left_budget())?;
        let mut sums = WindowSums::new(&tr.windows, order, series.mass);
        let finish_health = |_: &FusedMomentKernel<'_>, health: Option<HealthMonitor>| {
            if let Some(h) = health {
                h.finish(rec);
            }
        };
        let used = if series.covers(order, tr.g) {
            SeriesUse::Hit
        } else {
            let resume = order <= series.order && series.g().is_some();
            let grown_order = if resume { series.order } else { order };
            if series.bytes_at(grown_order, tr.g) > series.max_bytes as u128 {
                let fold = Projection::Fold(&series.pi, &mut sums);
                self.run_recursion(pk, Start::Unit, order, &[], Some(fold), tr.g, finish_health);
                SeriesUse::Streamed
            } else {
                if !resume {
                    series.order = order;
                    series.values = Vec::new();
                    series.iterate.clear();
                }
                let series_order = series.order;
                let record = Projection::Record(series);
                self.run_recursion(
                    pk,
                    Start::Unit,
                    series_order,
                    &[],
                    Some(record),
                    tr.g,
                    finish_health,
                );
                if resume {
                    SeriesUse::Resumed
                } else {
                    SeriesUse::Built
                }
            }
        };
        let stats = SolverStats {
            q,
            d,
            shift,
            iterations: tr.g,
            error_bound: tr.error_bound,
        };
        let solutions = rec.time("solve.assemble", || {
            if used != SeriesUse::Streamed {
                // The windows lie within `0..=G`, which the series covers.
                sums.add(0, &series.values, series.order);
            }
            times
                .iter()
                .enumerate()
                .map(|(ti, &t)| {
                    let moments = Self::assemble_horizon(t, order, d, shift, 1, |j, scale| {
                        vec![scale * sums.value(ti, j)]
                    });
                    MomentSolution {
                        t,
                        weighted: moments.into_iter().map(|m| m[0]).collect(),
                        per_state: Vec::new(),
                        stats,
                        error_bounds: tr.error_bounds.clone(),
                        report: None,
                    }
                })
                .collect()
        });
        if ev.enabled() {
            ev.emit(&Event::Complete {
                g: tr.g,
                error_bound: tr.error_bound,
            });
        }
        Ok((solutions, used))
    }

    /// One horizon's moments, per state (or per weighted entry): order
    /// `j`'s accumulated shifted moments, which `acc(j, j!·dʲ)` returns
    /// scaled, or the delta moments at `t = 0`, then unshifted. The
    /// assembly every query shares.
    fn assemble_horizon(
        t: f64,
        order: usize,
        d: f64,
        shift: f64,
        len: usize,
        mut acc: impl FnMut(usize, f64) -> Vec<f64>,
    ) -> Vec<Vec<f64>> {
        let shifted: Vec<Vec<f64>> = (0..=order)
            .map(|j| {
                if t == 0.0 {
                    vec![if j == 0 { 1.0 } else { 0.0 }; len]
                } else {
                    acc(j, (ln_factorial(j as u64) + j as f64 * d.ln()).exp())
                }
            })
            .collect();
        unshift_moments(&shifted, shift, t)
    }

    /// The share of ε each horizon's left Poisson edge may spend:
    /// `ε·2⁻⁵²`, small enough that no result bit moves (DESIGN.md §2a).
    fn left_budget(&self) -> f64 {
        self.config.epsilon * f64::EPSILON
    }

    /// The execution core every recursive query shares: Theorem-4
    /// truncation (`G`, then each horizon's left edge within
    /// `left_budget`) → Poisson windows → fused recursion (plus the
    /// impulse coupling, on impulse plans) → assembly → report →
    /// `complete` event. Queries differ only in their start (the unit
    /// start, or terminal weights — Lemma 2 adds `max(1, ‖w‖∞)` to the
    /// truncation front) and in the normalization `d` they assemble
    /// with. On a unit start each state's order 0 is its horizon's window
    /// mass ([`window_mass`]), the same for every state.
    fn drive(
        &self,
        times: &[f64],
        order: usize,
        start: Start<'_>,
        d: f64,
        left_budget: f64,
        command: &str,
    ) -> Result<Vec<MomentSolution>, MrmError> {
        let config = &self.config;
        let (rec, ev) = (&config.recorder, &config.events);
        let (q, shift) = (self.q, self.shift);
        let model = &self.model;
        let n_states = model.n_states();
        let pk = self.kernel.as_ref().expect("kernel built whenever q > 0");
        self.emit_plan_resolved(pk, d);

        let Truncation {
            qt,
            g: g_limit,
            windows,
            error_bounds,
            error_bound,
            poisson_stats,
        } = self.truncate(pk, times, order, start, d, left_budget)?;
        let base = start.lowest_order();
        let masses: Vec<Option<NeumaierSum>> = match start {
            Start::Unit => windows
                .iter()
                .map(|w| w.as_ref().map(window_mass))
                .collect(),
            Start::Vector(_) => Vec::new(),
        };

        let stats = SolverStats {
            q,
            d,
            shift,
            iterations: g_limit,
            error_bound,
        };
        let (mut solutions, report) = self.run_recursion(
            pk,
            start,
            order,
            &windows,
            None,
            g_limit,
            |kernel, mut health| {
                if let Some(h) = health.as_mut() {
                    masses
                        .iter()
                        .flatten()
                        .for_each(|m| h.observe_compensation(m.raw_sum(), m.compensation()));
                }
                let solutions: Vec<MomentSolution> = rec.time("solve.assemble", || {
                    times
                        .iter()
                        .enumerate()
                        .map(|(ti, &t)| {
                            let per_state =
                                Self::assemble_horizon(t, order, d, shift, n_states, |j, scale| {
                                    if j < base {
                                        let mass = masses[ti].expect("a window for t > 0");
                                        return vec![scale * mass.value(); n_states];
                                    }
                                    kernel
                                        .accumulated(ti, j)
                                        .values()
                                        .map(|v| scale * v)
                                        .collect()
                                });
                            MomentSolution {
                                t,
                                weighted: weighted_moments(&per_state, model.initial()),
                                per_state,
                                stats,
                                error_bounds: error_bounds.clone(),
                                report: None,
                            }
                        })
                        .collect()
                });
                let report = rec.enabled().then(|| {
                    Arc::new(SolveReport {
                        command: command.to_string(),
                        solver: Some(SolverSection {
                            q,
                            d,
                            qt,
                            shift,
                            g: g_limit,
                            max_iterations: config.max_iterations,
                            epsilon: config.epsilon,
                            order,
                            n_states,
                            n_times: times.len(),
                            threads: kernel.threads(),
                            error_bound,
                            error_bounds: error_bounds.clone(),
                            poisson: poisson_stats,
                        }),
                        pool: kernel.pool_stats().map(pool_section),
                        health: health.map(|h| h.finish(rec)),
                        mem: self.mem.as_ref().map(|l| l.section()),
                        metrics: rec.snapshot().unwrap_or_default(),
                    })
                });
                (solutions, report)
            },
        );
        if let Some(report) = report {
            for s in &mut solutions {
                s.report = Some(Arc::clone(&report));
            }
        }
        if ev.enabled() {
            ev.emit(&Event::Complete {
                g: g_limit,
                error_bound,
            });
        }
        Ok(solutions)
    }

    /// The truncation every recursive query shares (DESIGN.md §2a):
    /// `G` from one Theorem-4 search at the largest horizon, with the
    /// path's front factor (a start vector `w` enters through Lemma 2's
    /// `max(1, ‖w‖∞)`, the unit start as 1), then each horizon's window
    /// from its own left edge, where the dropped terms spend at most
    /// `left_budget`, and the per-order bounds: the right tail plus the
    /// worst realized left edge. Emits the `truncation` event, the solver gauges and, with a
    /// recorder, the Poisson accounting.
    fn truncate(
        &self,
        pk: &PlanKernel,
        times: &[f64],
        order: usize,
        start: Start<'_>,
        d: f64,
        left_budget: f64,
    ) -> Result<Truncation, MrmError> {
        let (q, rec) = (self.q, &self.config.recorder);
        let t_max = times.iter().copied().fold(0.0, f64::max);
        let qt = q * t_max;
        let w_max = match start {
            Start::Unit => 1.0,
            Start::Vector(w) => w.iter().copied().fold(0.0, f64::max),
        };
        let ln_w = w_max.max(1.0).ln();
        let (ln_c, min_g): (fn(usize) -> f64, u64) = if self.impulse {
            (|j| j as f64 * 4.0f64.ln(), 2 * order as u64)
        } else {
            (|_| std::f64::consts::LN_2, 0)
        };
        let (g, right_bounds, fronts) = rec.time("solve.truncation", || {
            let fronts = bound_fronts(d, order, |j| ln_c(j) + ln_w);
            truncation_point(qt, &fronts, min_g, &self.config)
                .map(|(g, bounds)| (g, bounds, fronts))
        })?;

        // Each horizon's window starts at its own left edge; the bound
        // is taken at the edge the window realizes.
        let windows: Vec<Option<PoissonWindow>> = rec.time("solve.poisson", || {
            times
                .iter()
                .map(|&t| {
                    (t > 0.0).then(|| {
                        let floor = left_truncation_point(q * t, &fronts, left_budget);
                        PoissonWindow::exact_from(q * t, floor, g)
                    })
                })
                .collect()
        });
        let left_bounds: Vec<Vec<f64>> = times
            .iter()
            .zip(&windows)
            .map(|(&t, w)| match w {
                Some(w) => left_error_bounds(q * t, &fronts, w.left()).collect(),
                None => vec![0.0; order + 1],
            })
            .collect();
        let error_bounds: Vec<f64> = right_bounds
            .iter()
            .enumerate()
            .map(|(j, &right)| right + left_bounds.iter().map(|b| b[j]).fold(0.0, f64::max))
            .collect();
        let error_bound = self.record_truncation(pk, d, qt, g, &error_bounds);

        let poisson_stats: Vec<PoissonStat> = if rec.enabled() {
            let worst_left: Vec<f64> = left_bounds
                .iter()
                .map(|b| b.iter().copied().fold(0.0, f64::max))
                .collect();
            let stats = poisson_accounting(times, &windows, &worst_left, g);
            let kept: u64 = stats.iter().map(|p| p.weights_kept).sum();
            let trimmed: u64 = stats.iter().map(|p| p.weights_trimmed).sum();
            let left_skipped: u64 = stats.iter().map(|p| p.weights_left_skipped).sum();
            rec.counter_add("poisson.weights_kept", kept);
            rec.counter_add("poisson.weights_trimmed", trimmed);
            rec.counter_add("poisson.weights_left_skipped", left_skipped);
            stats
        } else {
            Vec::new()
        };
        Ok(Truncation {
            qt,
            g,
            windows,
            error_bounds,
            error_bound,
            poisson_stats,
        })
    }

    /// Emits `solve.start` for one execute.
    fn emit_solve_start(&self, order: usize, n_times: usize) {
        let ev = &self.config.events;
        if ev.enabled() {
            ev.emit(&Event::SolveStart {
                order: order as u64,
                n_states: self.n_states() as u64,
                n_times: n_times as u64,
            });
        }
    }

    /// Emits `plan.resolved` for one execute (`d` as that execute uses
    /// it).
    fn emit_plan_resolved(&self, pk: &PlanKernel, d: f64) {
        let ev = &self.config.events;
        if ev.enabled() {
            ev.emit(&Event::PlanResolved {
                format: pk.matrix.format_name().to_string(),
                n_states: self.n_states() as u64,
                matrix_bytes: pk.matrix.footprint_bytes() as u64,
                plan_bytes: pk.plan_bytes() as u64,
                q: self.q,
                d,
                shift: self.shift,
            });
        }
    }

    /// Emits the `truncation` event and the solver gauges of one execute;
    /// returns the worst per-order bound.
    fn record_truncation(
        &self,
        pk: &PlanKernel,
        d: f64,
        qt: f64,
        g: u64,
        error_bounds: &[f64],
    ) -> f64 {
        let (rec, ev) = (&self.config.recorder, &self.config.events);
        let error_bound = error_bounds.iter().copied().fold(0.0, f64::max);
        if ev.enabled() {
            ev.emit(&Event::Truncation {
                qt,
                g,
                error_bounds: error_bounds.to_vec(),
            });
        }
        if rec.enabled() {
            rec.gauge_set("solver.q", self.q);
            rec.gauge_set("solver.d", d);
            rec.gauge_set("solver.qt", qt);
            rec.gauge_set("solver.shift", self.shift);
            rec.gauge_set("solver.g", g as f64);
            rec.gauge_set("solver.error_bound", error_bound);
            rec.gauge_set(
                "solver.matrix_format",
                match pk.matrix {
                    IterationMatrix::Csr(_) => 0.0,
                    IterationMatrix::Dia(_) => 1.0,
                },
            );
            rec.gauge_set("solver.bandwidth", pk.bandwidth as f64);
        }
        error_bound
    }

    /// The recursion driver behind [`SolvePlan::drive`]: runs `k = 0..=g`
    /// through the fused kernel from `start`, accumulating
    /// `windows[ti].weight(k)` for every time point, then hands the
    /// kernel and the health monitor to `finish`. A unit start stores
    /// orders `1..=order` only, and at order 0 the kernel runs no pass
    /// (the hooks below still run).
    ///
    /// With a `projection` the run is weighted instead (no windows; unit
    /// start only). A recording run starts from the series' last step and
    /// iterate (step 0 when empty), appends each step's `aⱼ(k)`, and
    /// leaves `U(g)` as the series' iterate; a folding run starts at step
    /// 0 and adds each stretch's `aⱼ(k)` to the Poisson sums.
    ///
    /// Each step's `(time, weight)` list goes into one reused
    /// [`StepWeights`], and the kernel runs them in stretches that end at
    /// every hook point — a health sample, an event-log progress record,
    /// `G` — and after at most [`MAX_STRETCH_STEPS`] steps, which bounds
    /// the step list and a wavefront sweep's depth. The hooks only read,
    /// and the kernel's result does not depend on where stretches end,
    /// so attaching any of them leaves every bit unchanged. On an impulse
    /// plan every stretch is one step, after which the coupling terms are
    /// added into the new iterate before any hook sees it.
    #[allow(clippy::too_many_arguments)]
    fn run_recursion<R>(
        &self,
        pk: &PlanKernel,
        start: Start<'_>,
        order: usize,
        windows: &[Option<PoissonWindow>],
        projection: Option<Projection<'_, '_>>,
        g: u64,
        finish: impl FnOnce(&FusedMomentKernel<'_>, Option<HealthMonitor>) -> R,
    ) -> R {
        let config = &self.config;
        let (rec, ev) = (&config.recorder, &config.events);
        let coupling = &pk.coupling[..order.min(pk.coupling.len())];
        let n = self.n_states();
        let base = start.lowest_order();
        let stored = order + 1 - base;
        let (pi, mut record, mut fold) = match projection {
            Some(Projection::Record(s)) => {
                (Some(&s.pi[..]), Some((&mut s.values, &mut s.iterate)), None)
            }
            Some(Projection::Fold(pi, sums)) => (Some(pi), None, Some(sums)),
            None => (None, None, None),
        };
        // A recording run resumes at the series' last step, whose value
        // it records again (bit for bit).
        let k_start = record.as_ref().map_or(0, |(v, _)| {
            (v.len() / stored.max(1)).saturating_sub(1) as u64
        });
        if let Some((values, _)) = record.as_mut() {
            values.truncate(k_start as usize * stored);
            // Stored series stay as long as their store keeps them: no
            // growth slack.
            values.reserve_exact((g + 1 - k_start) as usize * stored);
        }
        let mut pool_guard = Self::lock_pool(pk);
        let mut kernel = FusedMomentKernel::with_pool(
            &pk.matrix,
            pk.bandwidth,
            &pk.r_prime,
            &pk.s_half,
            order,
            windows.len(),
            start,
            pool_guard.as_deref_mut(),
        );
        kernel.set_recorder(rec.clone());
        if let Some(pi) = pi {
            kernel.set_projection(pi);
        }
        if let Some((_, iterate)) = record.as_ref().filter(|_| k_start > 0) {
            kernel.set_iterate(iterate);
        }
        if let Some(ledger) = &self.mem {
            let kernel_bytes = kernel.footprint_bytes() as u64;
            ledger.set(MemCategory::KernelBuffers, kernel_bytes);
            rec.gauge_set(MemCategory::KernelBuffers.gauge_name(), kernel_bytes as f64);
        }
        // The monitor also feeds the event log's health records, so it
        // runs whenever either sink is attached (it only reads).
        let mut health = (rec.enabled() || ev.enabled()).then(|| HealthMonitor::new(g, order));
        // Progress events fire every ~5% of G (stride floor 1) plus the
        // final iteration; the ETA is read off a wall clock only when a
        // record is actually emitted.
        let ev_progress = ev.enabled().then(|| (Instant::now(), (g / 20).max(1)));
        let stretch = if coupling.is_empty() {
            MAX_STRETCH_STEPS as u64
        } else {
            1
        };
        {
            let _recursion = rec.span("solve.recursion");
            let mut steps = StepWeights::new();
            let mut k0 = k_start;
            while k0 <= g {
                let cap = (k0 + stretch - 1).min(g);
                let hook = |k: u64| {
                    health.as_ref().is_some_and(|h| h.should_sample(k, g))
                        || ev_progress.is_some_and(|(_, stride)| k.is_multiple_of(stride))
                };
                let k1 = (k0..cap).find(|&k| hook(k)).unwrap_or(cap);
                steps.clear();
                for k in k0..=k1 {
                    steps.push_step(windows.iter().enumerate().filter_map(|(ti, w)| {
                        let wk = w.as_ref().map_or(0.0, |w| w.weight(k));
                        (wk > 0.0).then_some((ti, wk))
                    }));
                }
                kernel.run(&steps, k1 < g);
                if let Some((values, _)) = record.as_mut() {
                    values.extend_from_slice(kernel.projected());
                }
                if let Some(sums) = fold.as_mut() {
                    sums.add(k0, kernel.projected(), stored);
                }
                if !coupling.is_empty() && k1 < g {
                    let (next, prev) = kernel.iterates_mut();
                    add_coupling(coupling, n, base, next, prev);
                }
                if let Some(h) = health.as_mut() {
                    if h.should_sample(k1, g) {
                        if base == 1 {
                            // U⁽⁰⁾ ≡ 1: its mass is exactly 1.
                            h.observe_order(0, &[1.0]);
                        }
                        for j in base..=order {
                            h.observe_order(j, kernel.u_order(j));
                        }
                        if ev.enabled() {
                            ev.emit(&Event::Health {
                                k: k1,
                                g,
                                u0_mass: h.u0_mass_last(),
                                anomalies: h.anomalies(),
                            });
                        }
                    }
                }
                if let Some((start, stride)) = &ev_progress {
                    if k1 % stride == 0 || k1 == g {
                        let elapsed = start.elapsed().as_secs_f64();
                        let eta_s = (k1 > 0).then(|| elapsed * (g - k1) as f64 / k1 as f64);
                        ev.emit(&Event::Progress {
                            k: k1,
                            g,
                            percent: 100.0 * k1 as f64 / g.max(1) as f64,
                            eta_s,
                        });
                    }
                }
                k0 = k1 + 1;
            }
        }
        if let Some(ledger) = &self.mem {
            ledger.observe_rss();
        }
        if let Some((_, iterate)) = record {
            iterate.clear();
            iterate.extend_from_slice(kernel.iterate());
        }
        if let Some(h) = health.as_mut() {
            for ti in 0..windows.len() {
                for j in base..=order {
                    let acc = kernel.accumulated(ti, j);
                    for (&sum, &comp) in acc.sums.iter().zip(acc.comps) {
                        h.observe_compensation(sum, comp);
                    }
                }
            }
        }
        finish(&kernel, health)
    }

    /// Exact resident bytes of the plan's owned solver state: the
    /// iteration matrix (via `FootprintBytes`) plus the normalized
    /// `R'`/`½S'` diagonals and any impulse coupling matrices.
    /// Frozen-chain plans (no kernel) report 0 — they hold no solver
    /// allocations beyond the model itself. This is the number the
    /// byte-aware serve `PlanCache` budgets against.
    pub fn footprint_bytes(&self) -> usize {
        self.kernel
            .as_ref()
            .map_or(0, |k| k.matrix.footprint_bytes() + k.plan_bytes())
    }

    /// Exact owned bytes of just the iteration matrix (0 for frozen
    /// chains).
    pub fn matrix_bytes(&self) -> usize {
        self.kernel.as_ref().map_or(0, |k| k.matrix.footprint_bytes())
    }

    /// The plan's memory ledger, when the build config carried a
    /// recorder.
    pub fn mem_ledger(&self) -> Option<&Arc<MemLedger>> {
        self.mem.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniformization::{moments, moments_sweep};
    use somrm_ctmc::generator::GeneratorBuilder;

    fn chain(n: usize) -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(n);
        for i in 0..n - 1 {
            b.rate(i, i + 1, 1.5).unwrap();
            b.rate(i + 1, i, 2.0).unwrap();
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let rates: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let variances: Vec<f64> = (0..n).map(|i| 0.1 + i as f64 / n as f64).collect();
        SecondOrderMrm::new(b.build().unwrap(), rates, variances, init).unwrap()
    }

    #[test]
    fn digest_changes_with_any_parameter() {
        let m = chain(4);
        let base = model_digest(&m);
        assert_eq!(base, model_digest(&chain(4)), "digest is deterministic");
        let mut rates = m.rates().to_vec();
        rates[2] += 1e-12;
        let mutated = SecondOrderMrm::new(
            m.generator().clone(),
            rates,
            m.variances().to_vec(),
            m.initial().to_vec(),
        )
        .unwrap();
        assert_ne!(base, model_digest(&mutated), "1-ulp rate change must re-key");
        let redistributed = m.clone().with_initial(vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        assert_ne!(base, model_digest(&redistributed));
        // Negating two neighbouring drifts changes only the top bit of
        // two consecutive words; without the word step's rotation the
        // second flip would cancel the first.
        let mut rates = m.rates().to_vec();
        rates[1] = -rates[1];
        rates[2] = -rates[2];
        let flipped = SecondOrderMrm::new(
            m.generator().clone(),
            rates,
            m.variances().to_vec(),
            m.initial().to_vec(),
        )
        .unwrap();
        assert_ne!(chain_digest(&m), chain_digest(&flipped));
    }

    #[test]
    fn warm_executes_are_bitwise_stable() {
        let m = chain(5);
        let plan = SolvePlan::build(&m, 3, &SolverConfig::default()).unwrap();
        let times = [0.2, 0.9];
        let first = plan.execute(&times, 3).unwrap();
        let second = plan.execute(&times, 3).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.weighted, b.weighted);
            assert_eq!(a.per_state, b.per_state);
            assert_eq!(a.error_bounds, b.error_bounds);
        }
        // And both match the one-shot API bit-for-bit.
        let cold = moments_sweep(&m, 3, &times, &SolverConfig::default()).unwrap();
        for (a, b) in first.iter().zip(&cold) {
            assert_eq!(a.weighted, b.weighted);
        }
    }

    #[test]
    fn lower_orders_run_on_a_higher_order_plan() {
        let m = chain(4);
        let plan = SolvePlan::build(&m, 4, &SolverConfig::default()).unwrap();
        let via_plan = plan.execute(&[0.7], 2).unwrap();
        let cold = moments(&m, 2, 0.7, &SolverConfig::default()).unwrap();
        assert_eq!(via_plan[0].weighted, cold.weighted);
        assert!(plan.execute(&[0.7], 5).is_err(), "above max_order");
    }

    #[test]
    fn degenerate_models_plan_without_a_kernel() {
        let b = GeneratorBuilder::new(2);
        let frozen = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, -1.0],
            vec![0.5, 0.0],
            vec![0.5, 0.5],
        )
        .unwrap();
        let plan = SolvePlan::build(&frozen, 2, &SolverConfig::default()).unwrap();
        assert_eq!(plan.q(), 0.0);
        let sol = plan.execute(&[1.0], 2).unwrap();
        let cold = moments(&frozen, 2, 1.0, &SolverConfig::default()).unwrap();
        assert_eq!(sol[0].weighted, cold.weighted);
    }

    #[test]
    fn execute_records_plan_level_telemetry() {
        use somrm_obs::{MetricsRegistry, RecorderHandle};
        let m = chain(3);
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let config = SolverConfig {
            recorder: RecorderHandle::new(reg.clone()),
            ..SolverConfig::default()
        };
        let plan = SolvePlan::build(&m, 2, &config).unwrap();
        plan.execute(&[0.5], 2).unwrap();
        plan.execute(&[0.5, 1.0], 2).unwrap();
        plan.execute_terminal(0.5, &[1.0, 0.0, 1.0], 2).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("plan.executes"), Some(3));
        assert_eq!(snap.timing("plan.execute").map(|t| t.count), Some(2));
        assert_eq!(snap.timing("plan.execute_terminal").map(|t| t.count), Some(1));
    }

    #[test]
    fn terminal_execute_matches_cold_terminal() {
        use crate::terminal::moments_terminal_weighted;
        let m = chain(3);
        let plan = SolvePlan::build(&m, 2, &SolverConfig::default()).unwrap();
        let w = [1.0, 0.0, 2.0];
        let warm = plan.execute_terminal(0.8, &w, 2).unwrap();
        let cold = moments_terminal_weighted(&m, 2, 0.8, &w, &SolverConfig::default()).unwrap();
        assert_eq!(warm.weighted, cold.weighted);
        assert_eq!(warm.per_state, cold.per_state);
    }

    #[test]
    fn forced_dia_past_the_cap_is_a_typed_error() {
        // 20k states with ~15k populated diagonals: the padded DIA
        // estimate (ndiag * n * 8 bytes) crosses the 2 GiB cap.
        let n = 20_000;
        let mut b = GeneratorBuilder::new(n);
        for k in 1..15_000 {
            b.rate(0, k, 1.0).unwrap();
            b.rate(k, 0, 1.0).unwrap();
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let m =
            SecondOrderMrm::first_order(b.build().unwrap(), vec![0.0; n], init).unwrap();
        let dia_cfg = SolverConfig {
            format: MatrixFormat::Dia,
            ..SolverConfig::default()
        };
        let err = SolvePlan::build(&m, 1, &dia_cfg).unwrap_err();
        match err {
            MrmError::AllocationTooLarge {
                estimated_bytes,
                cap_bytes,
                ..
            } => {
                assert!(estimated_bytes > cap_bytes);
                assert_eq!(cap_bytes, somrm_linalg::FORCED_DIA_MAX_BYTES);
            }
            other => panic!("expected AllocationTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn event_log_streams_a_parseable_record_sequence_without_changing_results() {
        use somrm_obs::{Event, EventLogHandle, EventLogRecorder, VecSink};
        let m = chain(5);
        let bare = SolvePlan::build(&m, 2, &SolverConfig::default()).unwrap();
        let sink = VecSink::new();
        let rec = EventLogRecorder::new();
        rec.add_sink(Box::new(sink.clone()));
        let logged_cfg = SolverConfig {
            events: EventLogHandle::new(rec),
            ..SolverConfig::default()
        };
        let logged = SolvePlan::build(&m, 2, &logged_cfg).unwrap();
        let times = [0.4, 1.3];
        let a = bare.execute(&times, 2).unwrap();
        let b = logged.execute(&times, 2).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.weighted, y.weighted, "event log must not perturb results");
            assert_eq!(x.per_state, y.per_state);
        }

        let events = Event::parse_lines(&sink.contents()).expect("strict parse");
        assert!(
            matches!(events[0], Event::SolveStart { n_times: 2, .. }),
            "log opens with solve.start: {:?}",
            events[0]
        );
        let g = match events
            .iter()
            .find_map(|e| match e {
                Event::Truncation { g, .. } => Some(*g),
                _ => None,
            }) {
            Some(g) => g,
            None => panic!("no truncation record"),
        };
        let expected_format = logged.matrix_format_name();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::PlanResolved { format, .. } if format == expected_format)),
            "plan.resolved carries the format"
        );
        assert!(events.iter().any(|e| matches!(e, Event::Health { .. })));
        // Progress ks are strictly increasing and end at G.
        let ks: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::Progress { k, .. } => Some(*k),
                _ => None,
            })
            .collect();
        assert!(!ks.is_empty());
        assert!(ks.windows(2).all(|w| w[0] < w[1]), "monotone k: {ks:?}");
        assert_eq!(*ks.last().unwrap(), g, "final progress lands on G");
        assert!(
            matches!(events.last(), Some(Event::Complete { g: cg, .. }) if *cg == g),
            "log closes with complete"
        );

        // Terminal executes stream the same vocabulary.
        let t_sink = VecSink::new();
        let t_rec = EventLogRecorder::new();
        t_rec.add_sink(Box::new(t_sink.clone()));
        let t_cfg = SolverConfig {
            events: EventLogHandle::new(t_rec),
            ..SolverConfig::default()
        };
        let t_plan = SolvePlan::build(&m, 2, &t_cfg).unwrap();
        let w = [1.0, 0.0, 0.0, 0.0, 2.0];
        let warm = t_plan.execute_terminal(0.8, &w, 2).unwrap();
        let cold = bare.execute_terminal(0.8, &w, 2).unwrap();
        assert_eq!(warm.weighted, cold.weighted);
        let t_events = Event::parse_lines(&t_sink.contents()).expect("terminal log parses");
        assert!(matches!(t_events[0], Event::SolveStart { n_times: 1, .. }));
        assert!(matches!(t_events.last(), Some(Event::Complete { .. })));
    }

    #[test]
    fn progress_cadence_covers_at_least_twenty_records_for_large_g() {
        use somrm_obs::{Event, EventLogHandle, EventLogRecorder, VecSink};
        let m = chain(4);
        let sink = VecSink::new();
        let rec = EventLogRecorder::new();
        rec.add_sink(Box::new(sink.clone()));
        let cfg = SolverConfig {
            events: EventLogHandle::new(rec),
            ..SolverConfig::default()
        };
        let plan = SolvePlan::build(&m, 1, &cfg).unwrap();
        // qt large enough that G >> 20.
        plan.execute(&[40.0], 1).unwrap();
        let events = Event::parse_lines(&sink.contents()).unwrap();
        let progress: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::Progress { .. }))
            .collect();
        assert!(
            progress.len() >= 20,
            "expected >= 20 progress records, got {}",
            progress.len()
        );
        for e in &progress {
            if let Event::Progress { k, g, percent, eta_s } = e {
                assert!(k <= g);
                assert!((0.0..=100.0).contains(percent));
                if *k == 0 {
                    assert!(eta_s.is_none(), "no ETA before the first iteration");
                } else {
                    assert!(eta_s.unwrap() >= 0.0);
                }
            }
        }
    }

    #[test]
    fn mem_ledger_tracks_exact_category_bytes_when_recording() {
        use somrm_obs::{MemCategory, MetricsRegistry, RecorderHandle};
        let n = 1_000;
        let m = chain(n);
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let cfg = SolverConfig {
            recorder: RecorderHandle::new(reg.clone()),
            ..SolverConfig::default()
        };
        let plan = SolvePlan::build(&m, 2, &cfg).unwrap();
        let ledger = plan.mem_ledger().expect("recorder-backed plans carry a ledger");
        // chain(n) is tridiagonal: nnz = 3n - 2, CSR row_ptr n + 1.
        let nnz = 3 * n - 2;
        let expected_matrix = match plan.matrix_format_name() {
            "csr" => (n + 1) * 8 + nnz * 8 + nnz * 8,
            "dia" => 3 * std::mem::size_of::<isize>() + 3 * n * 8,
            other => panic!("unexpected format {other}"),
        } as u64;
        let cat = if plan.matrix_format_name() == "csr" {
            MemCategory::MatrixCsr
        } else {
            MemCategory::MatrixDia
        };
        assert_eq!(ledger.current(cat), expected_matrix);
        assert_eq!(plan.matrix_bytes() as u64, expected_matrix);
        assert_eq!(
            ledger.current(MemCategory::Plan),
            (2 * n * 8) as u64,
            "R' and S'/2 diagonals"
        );
        // Kernel buffers appear after an execute, matching the fused
        // kernel's exact footprint, and flow to the recorder gauges.
        plan.execute(&[0.5], 2).unwrap();
        let kb = ledger.current(MemCategory::KernelBuffers);
        assert!(kb > 0);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("mem.kernel.buffers"), Some(kb as f64));
        assert_eq!(
            snap.gauge(cat.gauge_name()),
            Some(expected_matrix as f64)
        );
        // The report carries the section, and peak RSS was sampled on
        // linux.
        let sol = plan.execute(&[0.5], 2).unwrap();
        let report = sol[0].report.as_ref().expect("recorder attaches a report");
        let mem = report.mem.as_ref().expect("mem section present");
        assert!(mem.entries.iter().any(|e| e.key == "kernel.buffers" && e.current == kb));
        if cfg!(target_os = "linux") {
            assert!(mem.peak_rss_bytes.unwrap() > 0);
        }
    }

    /// One horizon of `plan` through [`SolvePlan::drive`] with the given
    /// left budget (`0` keeps every weight here: nothing underflows at
    /// these rates), with the horizon's weight accounting.
    fn drive_once(
        plan: &SolvePlan,
        t: f64,
        start: Start<'_>,
        budget: f64,
    ) -> (MomentSolution, PoissonStat) {
        let order = plan.max_order();
        let sol = plan
            .drive(&[t], order, start, plan.d(), budget, "moments")
            .unwrap()
            .pop()
            .unwrap();
        let report = sol.report.clone().expect("plans here record");
        let stat = report.solver.as_ref().unwrap().poisson[0];
        (sol, stat)
    }

    #[test]
    fn left_edge_moves_no_value_by_more_than_its_reported_bound() {
        use somrm_obs::{MetricsRegistry, RecorderHandle};
        let m = chain(6);
        let cfg = SolverConfig::default()
            .with_recorder(RecorderHandle::new(Arc::new(MetricsRegistry::new())));
        let plain = SolvePlan::build(&m, 3, &cfg).unwrap();
        let impulses = ImpulseMrm::new(m.clone(), &[(0, 1, 0.5), (3, 2, 1.0)]).unwrap();
        let impulse = SolvePlan::build_impulse(&impulses, 3, &cfg).unwrap();
        let t = 400.0 / plain.q();
        let weights = [1.0, 0.0, 2.5, 0.0, 1.0, 0.5];
        let cases = [
            ("plain", &plain, Start::Unit),
            ("terminal", &plain, Start::Vector(&weights)),
            ("impulse", &impulse, Start::Unit),
        ];
        for (name, plan, start) in cases {
            let (full, full_stat) = drive_once(plan, t, start, 0.0);
            assert_eq!(full_stat.weights_left_skipped, 0, "{name}: uncut reference");
            assert_eq!(full_stat.left_error_bound, 0.0, "{name}");
            // The production budget ε·2⁻⁵², and one loose enough that the
            // cut visibly moves values (the bound is far from tight).
            let mut moved = false;
            for budget in [plan.left_budget(), 1e-3] {
                let (cut, stat) = drive_once(plan, t, start, budget);
                assert!(stat.weights_left_skipped > 0, "{name}: nothing cut");
                assert!(stat.left_error_bound <= budget, "{name}: {stat:?}");
                for j in 0..=3 {
                    for i in 0..6 {
                        let (a, b) = (full.per_state[j][i], cut.per_state[j][i]);
                        assert!(
                            (a - b).abs() <= stat.left_error_bound,
                            "{name}, budget {budget:e}, order {j}, state {i}: {a} vs {b}, \
                             bound {:e}",
                            stat.left_error_bound
                        );
                        moved |= a != b;
                    }
                }
                if budget == plan.left_budget() {
                    let eps = cfg.epsilon;
                    assert!(cut.error_bounds.iter().all(|&b| b <= eps), "{name}");
                    if name == "plain" {
                        assert_eq!(cut.per_state, full.per_state, "same bits at ε·2⁻⁵²");
                        assert_eq!(cut.weighted, full.weighted);
                    }
                }
            }
            assert!(moved, "{name}: a cut at 1e-3 must move some value");
        }
    }

    #[test]
    fn each_horizon_gets_its_own_left_edge_and_the_event_carries_the_full_bound() {
        use somrm_obs::{
            Event, EventLogHandle, EventLogRecorder, MetricsRegistry, RecorderHandle, VecSink,
        };
        let m = chain(5);
        let sink = VecSink::new();
        let log = EventLogRecorder::new();
        log.add_sink(Box::new(sink.clone()));
        let cfg = SolverConfig {
            events: EventLogHandle::new(log),
            ..SolverConfig::default()
        }
        .with_recorder(RecorderHandle::new(Arc::new(MetricsRegistry::new())));
        let plan = SolvePlan::build(&m, 2, &cfg).unwrap();
        let times = [150.0, 300.0, 600.0].map(|qt| qt / plan.q());
        let sols = plan.execute(&times, 2).unwrap();
        let report = sols[0].report.clone().unwrap();
        let stats = &report.solver.as_ref().unwrap().poisson;
        let cuts: Vec<u64> = stats.iter().map(|p| p.weights_left_skipped).collect();
        assert!(cuts[0] > 0 && cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
        for (stat, &t) in stats.iter().zip(&times) {
            assert!(stat.left_error_bound > 0.0, "{stat:?}");
            assert!(stat.left_error_bound <= plan.left_budget(), "{stat:?}");
            // The edge depends on the horizon alone, not on the grid's G.
            let alone = plan.execute(&[t], 2).unwrap();
            let own = alone[0].report.as_ref().unwrap().solver.as_ref().unwrap().poisson[0];
            assert_eq!(own.weights_left_skipped, stat.weights_left_skipped);
            assert_eq!(own.left_error_bound, stat.left_error_bound);
        }
        let events = Event::parse_lines(&sink.contents()).unwrap();
        let logged = events
            .iter()
            .find_map(|e| match e {
                Event::Truncation { error_bounds, .. } => Some(error_bounds.clone()),
                _ => None,
            })
            .expect("truncation record");
        for s in &sols {
            assert_eq!(s.error_bounds, logged);
            assert!(s.error_bounds.iter().all(|&b| b <= cfg.epsilon));
        }
    }

    fn series_bits(s: &ProjectedSeries) -> Vec<u64> {
        (0..=s.order())
            .flat_map(|j| s.values(j).collect::<Vec<_>>())
            .chain(s.iterate.iter().copied())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn weighted_queries_match_execute_and_reuse_their_series() {
        let m = chain(7);
        let pi = vec![0.1, 0.3, 0.0, 0.2, 0.1, 0.2, 0.1];
        let m = m.with_initial(pi.clone()).unwrap();
        let plan = SolvePlan::build(&m, 4, &SolverConfig::default()).unwrap();
        let mut series = ProjectedSeries::new(pi.clone());
        assert_eq!(series.g(), None);
        let check = |sols: &[MomentSolution], times: &[f64], order: usize| {
            let want = plan.execute(times, order).unwrap();
            for (a, b) in sols.iter().zip(&want) {
                assert_eq!(a.t, b.t);
                assert!(a.per_state.is_empty());
                assert_eq!(a.error_bounds, b.error_bounds, "same truncation");
                assert_eq!(a.stats, b.stats);
                for j in 0..=order {
                    let (x, y) = (a.weighted[j], b.weighted[j]);
                    assert!(
                        (x - y).abs() <= 1e-13 * y.abs(),
                        "t {} j {j}: {x} vs {y}",
                        a.t
                    );
                }
            }
        };
        let times = [0.0, 0.4, 1.5];
        let (sols, used) = plan.execute_weighted(&mut series, &times, 2).unwrap();
        assert_eq!(used, SeriesUse::Built);
        check(&sols, &times, 2);
        let g = series.g().unwrap();
        // Shorter horizons and lower orders: answered from the record.
        let (again, used) = plan.execute_weighted(&mut series, &[0.9], 1).unwrap();
        assert_eq!(used, SeriesUse::Hit);
        check(&again, &[0.9], 1);
        assert_eq!(series.g(), Some(g));
        // A longer horizon resumes; a higher order rebuilds.
        let (_, used) = plan.execute_weighted(&mut series, &[6.0], 2).unwrap();
        assert_eq!(used, SeriesUse::Resumed);
        assert!(series.g().unwrap() > g);
        let (sols, used) = plan.execute_weighted(&mut series, &[6.0], 4).unwrap();
        assert_eq!(used, SeriesUse::Built);
        check(&sols, &[6.0], 4);
        assert!(
            plan.execute_weighted(&mut series, &[1.0], 5).is_err(),
            "above max_order"
        );
        let mut short = ProjectedSeries::new(vec![1.0]);
        assert!(matches!(
            plan.execute_weighted(&mut short, &[1.0], 1),
            Err(MrmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn weighted_answers_are_pure_functions_of_the_query() {
        use somrm_obs::{
            EventLogHandle, EventLogRecorder, MetricsRegistry, RecorderHandle, VecSink,
        };
        let m = chain(9);
        let pi = vec![1.0 / 9.0; 9];
        let cfg = SolverConfig::default();
        let csr = SolvePlan::build(
            &m,
            3,
            &SolverConfig {
                format: MatrixFormat::Csr,
                ..cfg.clone()
            },
        )
        .unwrap();
        let dia = SolvePlan::build(
            &m,
            3,
            &SolverConfig {
                format: MatrixFormat::Dia,
                ..cfg.clone()
            },
        )
        .unwrap();
        let log = EventLogRecorder::new();
        log.add_sink(Box::new(VecSink::new()));
        let traced_cfg = SolverConfig {
            events: EventLogHandle::new(log),
            ..cfg.clone()
        }
        .with_recorder(RecorderHandle::new(Arc::new(MetricsRegistry::new())));
        let traced = SolvePlan::build(&m, 3, &traced_cfg).unwrap();
        let (t_long, t_half) = (8.0, 4.0);

        let one_shot = |plan: &SolvePlan| {
            let mut s = ProjectedSeries::new(pi.clone());
            let (sols, _) = plan.execute_weighted(&mut s, &[t_long], 3).unwrap();
            (s, sols)
        };
        let (reference, ref_sols) = one_shot(&csr);
        for (name, plan) in [("dia", &dia), ("recorded", &traced)] {
            let (s, sols) = one_shot(plan);
            assert_eq!(series_bits(&s), series_bits(&reference), "{name}");
            assert_eq!(sols[0].weighted, ref_sols[0].weighted, "{name}");
        }
        // Run to about G/2, then resume: the same bits.
        let mut resumed = ProjectedSeries::new(pi.clone());
        csr.execute_weighted(&mut resumed, &[t_half], 3).unwrap();
        let (sols, used) = csr.execute_weighted(&mut resumed, &[t_long], 3).unwrap();
        assert_eq!(used, SeriesUse::Resumed);
        assert_eq!(series_bits(&resumed), series_bits(&reference));
        assert_eq!(sols[0].weighted, ref_sols[0].weighted);
        // An order-1 answer does not depend on the order its series
        // recorded, nor on what ran before it.
        let mut low = ProjectedSeries::new(pi.clone());
        let (a, _) = csr.execute_weighted(&mut low, &[t_half], 1).unwrap();
        let (b, used) = csr.execute_weighted(&mut resumed, &[t_half], 1).unwrap();
        assert_eq!(used, SeriesUse::Hit);
        assert_eq!(a[0].weighted, b[0].weighted);
        assert_eq!(a[0].error_bounds, b[0].error_bounds);
    }

    #[test]
    fn a_query_past_the_series_limit_streams_the_same_bits() {
        let m = chain(9);
        let pi = vec![1.0 / 9.0; 9];
        let times = [0.5, 8.0];
        for format in [MatrixFormat::Csr, MatrixFormat::Dia] {
            let cfg = SolverConfig {
                format,
                ..SolverConfig::default()
            };
            let plan = SolvePlan::build(&m, 3, &cfg).unwrap();
            let mut kept = ProjectedSeries::new(pi.clone());
            let (want, _) = plan.execute_weighted(&mut kept, &times, 3).unwrap();
            // Room for the short horizon's series only.
            let mut capped = ProjectedSeries::new(pi.clone());
            plan.execute_weighted(&mut capped, &times[..1], 3).unwrap();
            let limit = capped.footprint_bytes();
            let mut capped = capped.with_max_bytes(limit);
            let before = series_bits(&capped);
            let (got, used) = plan.execute_weighted(&mut capped, &times, 3).unwrap();
            assert_eq!(used, SeriesUse::Streamed);
            assert_eq!(series_bits(&capped), before, "left as it was");
            assert_eq!(capped.footprint_bytes(), limit);
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.weighted, b.weighted, "{format:?}");
                assert_eq!(a.error_bounds, b.error_bounds);
                assert_eq!(a.stats, b.stats);
            }
            let (_, used) = plan.execute_weighted(&mut capped, &[0.3], 2).unwrap();
            assert_eq!(used, SeriesUse::Hit, "what it covers still answers");
            let mut none = ProjectedSeries::new(pi.clone()).with_max_bytes(0);
            let (got, used) = plan.execute_weighted(&mut none, &times, 3).unwrap();
            assert_eq!(used, SeriesUse::Streamed);
            assert_eq!((none.g(), none.footprint_bytes()), (None, 9 * 8));
            assert_eq!(got[1].weighted, want[1].weighted);
        }
    }

    #[test]
    fn weighted_queries_cover_impulse_and_degenerate_plans() {
        let m = chain(5);
        let pi = vec![0.2; 5];
        let m = m.with_initial(pi.clone()).unwrap();
        let impulses = ImpulseMrm::new(m.clone(), &[(0, 1, 0.5), (3, 2, 1.0)]).unwrap();
        let plan = SolvePlan::build_impulse(&impulses, 2, &SolverConfig::default()).unwrap();
        let mut series = ProjectedSeries::new(pi.clone());
        let (sols, _) = plan.execute_weighted(&mut series, &[0.7, 2.0], 2).unwrap();
        let want = plan.execute(&[0.7, 2.0], 2).unwrap();
        for (a, b) in sols.iter().zip(&want) {
            for j in 0..=2 {
                assert!((a.weighted[j] - b.weighted[j]).abs() <= 1e-13 * b.weighted[j].abs());
            }
        }
        let frozen = SecondOrderMrm::new(
            GeneratorBuilder::new(2).build().unwrap(),
            vec![1.0, -1.0],
            vec![0.5, 0.0],
            vec![0.5, 0.5],
        )
        .unwrap();
        let plan = SolvePlan::build(&frozen, 2, &SolverConfig::default()).unwrap();
        let mut series = ProjectedSeries::new(vec![0.25, 0.75]);
        let (sols, used) = plan.execute_weighted(&mut series, &[1.0], 2).unwrap();
        assert_eq!(used, SeriesUse::Hit);
        let moved = frozen.with_initial(vec![0.25, 0.75]).unwrap();
        let want = moments(&moved, 2, 1.0, &SolverConfig::default()).unwrap();
        assert_eq!(sols[0].weighted, want.weighted);
    }

    #[test]
    fn chain_digest_ignores_only_pi() {
        let m = chain(4);
        let other_pi = m.with_initial(vec![0.0, 0.5, 0.5, 0.0]).unwrap();
        assert_eq!(chain_digest(&m), chain_digest(&other_pi));
        assert_ne!(model_digest(&m), model_digest(&other_pi));
        let mut rates = m.rates().to_vec();
        rates[1] += 1e-12;
        let other_chain = SecondOrderMrm::new(
            m.generator().clone(),
            rates,
            m.variances().to_vec(),
            m.initial().to_vec(),
        )
        .unwrap();
        assert_ne!(chain_digest(&m), chain_digest(&other_chain));
    }

    #[test]
    fn plans_without_a_recorder_carry_no_ledger() {
        let plan = SolvePlan::build(&chain(4), 1, &SolverConfig::default()).unwrap();
        assert!(plan.mem_ledger().is_none());
        assert!(plan.footprint_bytes() > 0, "byte accounting works regardless");
    }
}
