//! The randomization (uniformization) based moment solver —
//! Theorems 3 and 4 of the paper, implemented as in Appendix B.
//!
//! # Method
//!
//! With `q = max_i |q_ii|` and a normalization constant `d`, define the
//! non-negative substochastic matrices
//!
//! ```text
//! Q' = Q/q + I,     R' = R/(q·d),     S' = S/(q·d²),
//! ```
//!
//! after shifting the drifts by `ř = min_i r_i` when any drift is
//! negative. The n-th raw moment of the (shifted) accumulated reward is
//! the Poisson-weighted series (Theorem 3)
//!
//! ```text
//! V⁽ⁿ⁾(t) = n!·dⁿ · Σ_k e^{−qt}(qt)^k/k! · U⁽ⁿ⁾(k),
//! U⁽ⁿ⁾(k+1) = R'·U⁽ⁿ⁻¹⁾(k) + ½·S'·U⁽ⁿ⁻²⁾(k) + Q'·U⁽ⁿ⁾(k),
//! ```
//!
//! truncated at the `G` of Theorem 4 so the absolute error is below a
//! user-chosen `ε`. The recursion multiplies only substochastic matrices
//! with non-negative vectors: it is subtraction-free, hence numerically
//! stable, and each step costs `(m + 2)` sparse/diagonal vector products
//! (`m` = mean non-zeros per row of `Q'`) — the same as first-order MRM
//! analysis, which is the paper's headline complexity claim.
//!
//! # Deviation from the paper (documented in DESIGN.md §2)
//!
//! The paper prints `d = max_i{r_i, σ_i}/q`, which does **not** make
//! `S' = S/(q·d²)` substochastic whenever `q > 1`. Lemma 2 requires
//! `d ≥ r_i/q` *and* `d ≥ σ_i/√q`; we use the smallest such `d`:
//!
//! ```text
//! d = max( max_i ř_i/q , max_i σ_i/√q )
//! ```
//!
//! All statements of Theorems 3–4 hold verbatim with this `d`.

use crate::error::MrmError;
use crate::model::SecondOrderMrm;
use crate::moments::normal_raw_moments;
use somrm_linalg::{KernelVariant, MatrixFormat};
use somrm_num::poisson::{self, PoissonWindow};
use somrm_num::special::ln_factorial;
use somrm_obs::{
    EventLogHandle, PoissonStat, PoolSection, RecorderHandle, SolveReport, SolverSection,
};
use std::f64::consts::LN_2;
use std::sync::Arc;

/// Configuration of the randomization moment solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Absolute truncation error bound `ε` of Theorem 4 (paper default
    /// `1e-9`).
    pub epsilon: f64,
    /// Hard cap on the number of iterations `G` (safety valve for
    /// extreme `qt`; the bound of Theorem 4 always terminates, this cap
    /// only guards against absurd resource use).
    pub max_iterations: u64,
    /// Worker threads for the fused iteration kernel (1 = serial). The
    /// recursion itself is inherently sequential in `k`, so this
    /// parallelizes within each step: the threads are spawned **once per
    /// solve** into a [`somrm_linalg::WorkerPool`] and parked between
    /// iterations. Thread counts do not change results — the kernel's
    /// fixed chunk boundaries and deterministic per-row evaluation keep
    /// every configuration bit-identical to the serial path.
    pub threads: usize,
    /// Minimum number of states before `threads > 1` is engaged; smaller
    /// models run serially regardless (the parallel handshake costs more
    /// than it saves on short rows). Lower it in tests to exercise the
    /// pooled path on small models.
    pub parallel_threshold: usize,
    /// Storage format for the iteration matrix `Q'`. The default
    /// [`MatrixFormat::Auto`] selects the banded DIA kernel when the
    /// matrix is diagonal-structured (e.g. the paper's birth–death
    /// models) and generic CSR otherwise; forcing either format never
    /// changes results — the two kernels are bit-identical (see
    /// `somrm_linalg::dia`).
    pub format: MatrixFormat,
    /// Read by nothing under `crates/`: the fused kernel has one
    /// arithmetic, strict f64 in canonical order, which runs on AVX2
    /// lanes where the CPU has them and on portable lanes otherwise,
    /// with the same bits (see `somrm_linalg::simd`). The field and
    /// its single-valued [`KernelVariant`] stay only because the
    /// benchmark still sets them; the next benchmark change removes
    /// both.
    pub kernel: KernelVariant,
    /// Telemetry sink. Disabled by default: every instrumentation site
    /// degrades to a single branch, and no [`SolveReport`] is built.
    /// Attaching a recorder never changes computed results — the
    /// instrumentation only observes.
    pub recorder: RecorderHandle,
    /// Structured solve event log (`somrm-events-v1` JSONL): solve
    /// start, resolved plan with exact byte footprints, truncation
    /// result, health samples, ~5%-of-`G` progress with ETA, and
    /// completion. Disabled by default; like the recorder, an attached
    /// log observes only and never changes computed results.
    pub events: EventLogHandle,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            epsilon: 1e-9,
            max_iterations: 50_000_000,
            threads: 1,
            parallel_threshold: 4096,
            format: MatrixFormat::Auto,
            kernel: KernelVariant::Auto,
            recorder: RecorderHandle::disabled(),
            events: EventLogHandle::disabled(),
        }
    }
}

impl SolverConfig {
    /// This config with `recorder` attached (builder style).
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.recorder = recorder;
        self
    }

    /// The thread count the kernels actually engage for an `n_states`
    /// model: [`SolverConfig::threads`] when at or above the
    /// [`SolverConfig::parallel_threshold`], otherwise 1.
    pub fn effective_threads(&self, n_states: usize) -> usize {
        if self.threads > 1 && n_states >= self.parallel_threshold {
            self.threads
        } else {
            1
        }
    }

    /// Validates this configuration for a model with `n_states` states.
    ///
    /// Every solver entry point calls this before doing any work, so a
    /// misconfiguration surfaces as a typed error at plan-build time
    /// rather than as whatever the worker pool makes of it. Checks:
    ///
    /// - `epsilon` must lie in `(0, 1)`;
    /// - `threads` must be at least 1 (the pool used to treat 0 as 1
    ///   silently, masking a configuration bug);
    /// - `threads` must not exceed `max(n_states, 256)` — more threads
    ///   than states is pure handshake overhead (the kernel would clamp
    ///   them away), and far above any machine's core count it is almost
    ///   certainly a typo'd `--threads`. The floor of 256 keeps modest
    ///   over-subscription on small models legal, since the kernel
    ///   clamps chunks to the state count anyway.
    ///
    /// # Errors
    ///
    /// Returns [`MrmError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self, n_states: usize) -> Result<(), MrmError> {
        if !(self.epsilon > 0.0) || self.epsilon >= 1.0 {
            return Err(MrmError::InvalidParameter {
                name: "epsilon",
                reason: format!("must lie in (0,1), got {}", self.epsilon),
            });
        }
        if self.threads == 0 {
            return Err(MrmError::InvalidParameter {
                name: "threads",
                reason: "thread count must be at least 1, got 0".to_string(),
            });
        }
        let cap = n_states.max(256);
        if self.threads > cap {
            return Err(MrmError::InvalidParameter {
                name: "threads",
                reason: format!(
                    "{} threads for a {n_states}-state model exceeds the cap of {cap} \
                     (more threads than states is pure overhead)",
                    self.threads
                ),
            });
        }
        Ok(())
    }
}

/// Moments of the accumulated reward `B(t)` at one time point.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentSolution {
    /// The time of accumulation `t`.
    pub t: f64,
    /// `per_state[n][i] = E[Bⁿ(t) | Z(0) = i]` for `n = 0 ..= order`.
    pub per_state: Vec<Vec<f64>>,
    /// `weighted[n] = π · V⁽ⁿ⁾(t)`, the moments from the model's initial
    /// distribution.
    pub weighted: Vec<f64>,
    /// Diagnostics of the run.
    pub stats: SolverStats,
    /// Realized Theorem-4 truncation bound per order `0..=order()`: the
    /// right tail beyond `G` plus the left Poisson edge's share (at most
    /// `ε·2⁻⁵²`, DESIGN.md §2a). In a sweep the truncation point belongs
    /// to the largest requested time, so each entry is the worst bound
    /// over the sweep's time points. All-zero on the exact degenerate
    /// paths (`q = 0`, `d = 0`, `t = 0`).
    pub error_bounds: Vec<f64>,
    /// Telemetry report of the producing solve; present iff the config
    /// carried an enabled recorder. Shared (`Arc`) across all solutions
    /// of one sweep.
    pub report: Option<Arc<SolveReport>>,
}

impl MomentSolution {
    /// Highest moment order contained in this solution.
    pub fn order(&self) -> usize {
        self.weighted.len() - 1
    }

    /// The realized Theorem-4 absolute error bound of the `n`-th moment
    /// (worst over the sweep's time points — see
    /// [`MomentSolution::error_bounds`]).
    ///
    /// # Panics
    ///
    /// Panics if `n > self.order()`.
    pub fn error_bound(&self, n: usize) -> f64 {
        self.error_bounds[n]
    }

    /// The π-weighted `n`-th raw moment.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.order()`.
    pub fn raw_moment(&self, n: usize) -> f64 {
        self.weighted[n]
    }

    /// The π-weighted mean `E[B(t)]`.
    pub fn mean(&self) -> f64 {
        self.raw_moment(1)
    }

    /// The π-weighted variance `E[B²] − E[B]²`, clamped at `0.0`.
    ///
    /// The two raw moments each carry up to `ε` truncation error plus
    /// rounding, so for a (nearly) deterministic reward — `σ² ≈ 0`, as in
    /// a zero-variance model or the `t → 0` limit — the subtraction can
    /// cancel to a tiny negative value. A negative variance has no
    /// meaning downstream (distribution bounds take `√σ²`), so it is
    /// clamped to exactly `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if the solution holds fewer than 2 moments.
    pub fn variance(&self) -> f64 {
        (self.weighted[2] - self.weighted[1] * self.weighted[1]).max(0.0)
    }

    /// The `n`-th raw moment of the **time-averaged** reward `B(t)/t`
    /// (e.g. the average available bandwidth over the interval, rather
    /// than the accumulated amount).
    ///
    /// # Errors
    ///
    /// Returns [`MrmError::UndefinedAtZeroTime`] when `t == 0` (the
    /// time average is undefined there); callers that used to rely on
    /// the old panicking behaviour should propagate or match instead.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.order()`.
    pub fn time_average_raw_moment(&self, n: usize) -> Result<f64, MrmError> {
        if !(self.t > 0.0) {
            return Err(MrmError::UndefinedAtZeroTime {
                what: "time_average_raw_moment",
            });
        }
        Ok(self.weighted[n] / self.t.powi(n as i32))
    }

    /// Mean of the time-averaged reward `E[B(t)]/t`.
    ///
    /// # Errors
    ///
    /// Returns [`MrmError::UndefinedAtZeroTime`] when `t == 0`.
    pub fn time_average_mean(&self) -> Result<f64, MrmError> {
        self.time_average_raw_moment(1)
    }

    /// Variance of the time-averaged reward `Var[B(t)]/t²`.
    ///
    /// # Errors
    ///
    /// Returns [`MrmError::UndefinedAtZeroTime`] when `t == 0`.
    ///
    /// # Panics
    ///
    /// Panics if the solution holds fewer than 2 moments.
    pub fn time_average_variance(&self) -> Result<f64, MrmError> {
        if !(self.t > 0.0) {
            return Err(MrmError::UndefinedAtZeroTime {
                what: "time_average_variance",
            });
        }
        Ok(self.variance() / (self.t * self.t))
    }
}

/// Diagnostics reported alongside a solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverStats {
    /// Uniformization rate `q = max_i |q_ii|`.
    pub q: f64,
    /// Normalization constant `d` (see module docs).
    pub d: f64,
    /// Drift shift `ř` applied (0 when all drifts are non-negative).
    pub shift: f64,
    /// Truncation point `G` of Theorem 4 for the largest requested
    /// time/order.
    pub iterations: u64,
    /// The absolute error bound of the truncated series, both edges
    /// included: the worst entry of [`MomentSolution::error_bounds`].
    pub error_bound: f64,
}

/// Computes raw moments `0 ..= order` of the accumulated reward at time
/// `t`.
///
/// This is the paper's algorithm (Appendix B) generalized to return all
/// moment orders up to `order` in a single pass (the recursion computes
/// them anyway).
///
/// # Errors
///
/// Returns [`MrmError::InvalidParameter`] for a negative/non-finite `t`,
/// a non-positive `ε`, or if the iteration cap is exceeded.
///
/// # Example
///
/// ```
/// use somrm_ctmc::generator::GeneratorBuilder;
/// use somrm_core::model::SecondOrderMrm;
/// use somrm_core::uniformization::{moments, SolverConfig};
///
/// let mut b = GeneratorBuilder::new(2);
/// b.rate(0, 1, 1.0)?;
/// b.rate(1, 0, 1.0)?;
/// let model = SecondOrderMrm::new(b.build()?, vec![1.0, 1.0], vec![0.5, 0.5], vec![1.0, 0.0])?;
/// // Unit drift everywhere: the mean reward is exactly t.
/// let sol = moments(&model, 2, 0.7, &SolverConfig::default())?;
/// assert!((sol.mean() - 0.7).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn moments(
    model: &SecondOrderMrm,
    order: usize,
    t: f64,
    config: &SolverConfig,
) -> Result<MomentSolution, MrmError> {
    let mut sweep = moments_sweep(model, order, &[t], config)?;
    Ok(sweep.pop().expect("one time point requested"))
}

/// Computes moments at several time points in a single pass of the
/// `U`-recursion.
///
/// The coefficient vectors `U⁽ⁿ⁾(k)` do not depend on `t` — only the
/// Poisson weights do — so one recursion run (to the `G` of the largest
/// time) serves every requested point. This is how the paper's Figure 3,
/// 4 and 8 sweeps are produced efficiently.
///
/// # Errors
///
/// See [`moments`]. An empty `times` slice yields an empty vector.
///
/// # Implementation
///
/// This is a thin wrapper over the plan/execute split: it builds a
/// one-shot [`crate::plan::SolvePlan`] and executes it once. A caller
/// that re-solves the same model should build the plan once and call
/// [`crate::plan::SolvePlan::execute`] per query — the results are
/// bit-identical either way.
pub fn moments_sweep(
    model: &SecondOrderMrm,
    order: usize,
    times: &[f64],
    config: &SolverConfig,
) -> Result<Vec<MomentSolution>, MrmError> {
    crate::plan::SolvePlan::build(model, order, config)?.execute(times, order)
}

/// Per-time-point weight accounting for the report: how many series
/// terms carried non-zero Poisson weight, how many were skipped below
/// the window's left edge, how much mass the kept ones retain, and the
/// worst order's bound on what the left edge dropped (`left_bounds`, one
/// per time point).
pub(crate) fn poisson_accounting(
    times: &[f64],
    windows: &[Option<PoissonWindow>],
    left_bounds: &[f64],
    g_limit: u64,
) -> Vec<PoissonStat> {
    times
        .iter()
        .zip(windows)
        .zip(left_bounds)
        .map(|((&t, w), &left_error_bound)| match w {
            Some(w) => {
                let kept = w.weights().len() as u64;
                let left_skipped = w.left();
                PoissonStat {
                    t,
                    weights_kept: kept,
                    weights_left_skipped: left_skipped,
                    weights_trimmed: (g_limit + 1).saturating_sub(kept + left_skipped),
                    retained_mass: w.weights().iter().sum(),
                    left_error_bound,
                }
            }
            // t = 0: no window; every term of the series is trimmed.
            None => PoissonStat {
                t,
                weights_kept: 0,
                weights_left_skipped: 0,
                weights_trimmed: g_limit + 1,
                retained_mass: 0.0,
                left_error_bound,
            },
        })
        .collect()
}

pub(crate) fn pool_section(stats: somrm_linalg::PoolStats) -> PoolSection {
    PoolSection {
        threads: stats.threads,
        epochs: stats.epochs,
        parks: stats.parks,
        wakes: stats.wakes,
    }
}

/// Attaches a report to solutions produced by the exact degenerate paths
/// (`q = 0` or `d = 0`), which never run the recursion: `G = 0`, zero
/// bounds, no pool.
pub(crate) fn attach_degenerate_report(
    solutions: &mut [MomentSolution],
    model: &SecondOrderMrm,
    config: &SolverConfig,
    order: usize,
    q: f64,
    d: f64,
    shift: f64,
) {
    if !config.recorder.enabled() {
        return;
    }
    let report = Arc::new(SolveReport {
        command: "moments".to_string(),
        solver: Some(SolverSection {
            q,
            d,
            qt: 0.0,
            shift,
            g: 0,
            max_iterations: config.max_iterations,
            epsilon: config.epsilon,
            order,
            n_states: model.n_states(),
            n_times: solutions.len(),
            threads: 1,
            error_bound: 0.0,
            error_bounds: vec![0.0; order + 1],
            poisson: Vec::new(),
        }),
        pool: None,
        // No recursion ran on the exact paths — nothing to probe.
        health: None,
        mem: None,
        metrics: config.recorder.snapshot().unwrap_or_default(),
    });
    for s in solutions {
        s.report = Some(Arc::clone(&report));
    }
}

pub(crate) fn validate_times(times: &[f64]) -> Result<(), MrmError> {
    for &t in times {
        if !(t >= 0.0) || !t.is_finite() {
            return Err(MrmError::InvalidParameter {
                name: "t",
                reason: format!("time must be finite and non-negative, got {t}"),
            });
        }
    }
    Ok(())
}

/// `ln(c_j·dʲ·j!)` for every order `j ≤ order`: the horizon-free front of
/// the Theorem-4 bound on either end of the series, where
/// `ln_c(j) = ln c_j` is the path's front factor (DESIGN.md §2a): `2` for
/// rate rewards, `2·max(1, ‖w‖∞)` for a terminal weight vector `w`
/// (Lemma 2), `4ʲ` for impulse rewards.
pub(crate) fn bound_fronts(d: f64, order: usize, ln_c: impl Fn(usize) -> f64) -> Vec<f64> {
    (0..=order)
        .map(|j| ln_c(j) + j as f64 * d.ln() + ln_factorial(j as u64))
        .collect()
}

/// Theorem 4 (with two corrections), for every solver path: the
/// smallest `G ≥ min_g` with
/// `c_j·dʲ·j!·(qt)ʲ · P[Pois(qt) > G − j] < ε` for every requested order
/// `j ≤ n`, where `fronts[j] = ln(c_j·dʲ·j!)` comes from [`bound_fronts`]
/// (impulse paths pass `min_g = 2n`).
///
/// Corrections relative to the paper's eq. (11), documented in
/// DESIGN.md §2:
///
/// 1. **Tail index.** The proof bounds
///    `Σ_{k>G} w_k·k!/(k−j)! = (qt)ʲ·Σ_{k>G−j} w_k` via the substitution
///    `k → k−j`, i.e. the Poisson tail starts at `G+1−j`; the paper
///    prints `G+j+1`, which *under*-estimates the error (empirically
///    visible: with the printed index the realized truncation error
///    exceeds ε for small `qt`).
/// 2. **All orders.** We return all orders `0..=n` from one pass, so `G`
///    must satisfy the per-order bound for each of them.
///
/// Found by bisection on the monotone log-space bound, bracketed by
/// doubling up to the iteration cap, which is itself tested: the search
/// refuses exactly when the smallest qualifying `G` exceeds the cap.
/// Returns `(G, realized per-order bounds at that G)`; the bound
/// Theorem 4 guarantees for the whole solve is the maximum entry.
///
/// Cost stays sublinear in `qt`. A bound left of the Poisson mode costs
/// an O(qt) CDF sum, so those are skipped wherever the order-0 term
/// `c₀·P[Pois(qt) > g]` alone proves them unqualified; right of the mode
/// a tail sums O(√qt) terms. Skipping a `g` whose bound is known to
/// miss ε takes the branch evaluating it would, so `G` and the bounds
/// are those of the plain search.
pub(crate) fn truncation_point(
    qt: f64,
    fronts: &[f64],
    min_g: u64,
    config: &SolverConfig,
) -> Result<(u64, Vec<f64>), MrmError> {
    let order = fronts.len() - 1;
    if qt == 0.0 {
        return Ok((0, vec![0.0; order + 1]));
    }
    let ln_front: Vec<f64> = fronts
        .iter()
        .enumerate()
        .map(|(j, &f)| f + j as f64 * qt.ln())
        .collect();
    let ln_eps = config.epsilon.ln();
    let cap = config.max_iterations;
    let ln_bound_order = |g: u64, j: usize| {
        let tail = if g >= j as u64 {
            poisson::ln_tail_above(qt, g - j as u64)
        } else {
            0.0 // P[Pois > negative] = 1
        };
        ln_front[j] + tail
    };
    let ln_bound = |g: u64| {
        (0..=order)
            .map(|j| ln_bound_order(g, j))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let cap_exceeded = || MrmError::TruncationCapExceeded { qt, cap };

    // Every g ≤ cap < qt − 1 lies below the Poisson median, which is at
    // least qt − ln 2 (Choi 1994), so P[Pois(qt) > g] ≥ 1/2 and the
    // order-0 term alone misses ε: refuse before any O(qt) evaluation.
    if (cap as f64) + 1.0 < qt && fronts[0] + 0.49f64.ln() >= ln_eps {
        return Err(cap_exceeded());
    }
    // The tail falls with g, so where the order-0 term still misses ε at
    // m = ⌈qt⌉ + n (right of the mode for every order), it misses it at
    // every g < m. The factor 2 and the 1/64 floor absorb the rounding of
    // both tail branches up to qt = 10⁹.
    let m = (qt.ceil() as u64).saturating_add(order as u64);
    let ln_tail = if qt <= 1e9 {
        poisson::ln_tail_above(qt, m)
    } else {
        f64::NEG_INFINITY
    };
    let misses_below_m = ln_tail >= -(64f64.ln()) && fronts[0] + ln_tail - LN_2 >= ln_eps;
    let known_short = if misses_below_m { m } else { 0 };
    let qualifies = |g: u64| g >= known_short && ln_bound(g) < ln_eps;

    let mut hi = (qt as u64).max(16).min(cap);
    while !qualifies(hi) {
        if hi >= cap {
            return Err(cap_exceeded());
        }
        hi = hi.saturating_mul(2).min(cap);
    }
    let mut lo = 0u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if qualifies(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // The per-order bounds are evaluated at the G actually used (raising
    // it to `min_g` only tightens them).
    let g = hi.max(min_g);
    if g > cap {
        return Err(cap_exceeded());
    }
    let per_order = (0..=order).map(|j| ln_bound_order(g, j).exp()).collect();
    Ok((g, per_order))
}

/// Per-order bounds on the series terms `k < l` that a Poisson window
/// starting at `l` drops: `c_j·dʲ·j!·lʲ·P[Pois(qt) < l]`, with `fronts`
/// from [`bound_fronts`] (DESIGN.md §2a). All zero at `l = 0`.
pub(crate) fn left_error_bounds(qt: f64, fronts: &[f64], l: u64) -> impl Iterator<Item = f64> + '_ {
    let ln_tail = poisson::ln_tail_below(qt, l);
    let ln_l = (l.max(1) as f64).ln();
    fronts
        .iter()
        .enumerate()
        .map(move |(j, &f)| (f + j as f64 * ln_l + ln_tail).exp())
}

/// The left edge of one horizon's Poisson window: the largest
/// `L ≤ ⌊qt⌋` whose [`left_error_bounds`] all stay within `budget`.
/// The bounds rise with `L`, so bisection finds it, as in
/// [`truncation_point`]; `L = 0` drops nothing and always fits.
pub(crate) fn left_truncation_point(qt: f64, fronts: &[f64], budget: f64) -> u64 {
    let fits = |l| left_error_bounds(qt, fronts, l).all(|b| b <= budget);
    let (mut lo, mut hi) = (0u64, qt as u64 + 1);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Moments when the chain never leaves its initial state: per state `i`,
/// `B(t) ~ Normal(r_i t, σ_i² t)`, whose raw moments follow the
/// recurrence `m_n = μ·m_{n−1} + (n−1)·σ²·m_{n−2}`; weighted by the
/// initial distribution `pi`.
pub(crate) fn frozen_chain_solution(
    model: &SecondOrderMrm,
    pi: &[f64],
    order: usize,
    t: f64,
) -> MomentSolution {
    let n_states = model.n_states();
    let mut per_state: Vec<Vec<f64>> = vec![vec![0.0; n_states]; order + 1];
    for i in 0..n_states {
        let m = normal_raw_moments(model.rates()[i] * t, model.variances()[i] * t, order);
        for n in 0..=order {
            per_state[n][i] = m[n];
        }
    }
    MomentSolution {
        t,
        weighted: weighted_moments(&per_state, pi),
        per_state,
        stats: SolverStats {
            q: 0.0,
            d: 0.0,
            shift: 0.0,
            iterations: 0,
            error_bound: 0.0,
        },
        error_bounds: vec![0.0; order + 1],
        report: None,
    }
}

/// `π·V⁽ⁿ⁾` for every order `n`: the moments from the initial
/// distribution `initial`, summed in state order.
pub(crate) fn weighted_moments(per_state: &[Vec<f64>], initial: &[f64]) -> Vec<f64> {
    per_state
        .iter()
        .map(|v| v.iter().zip(initial).map(|(&v, &p)| v * p).sum())
        .collect()
}

/// Moments when `B(t) = shift·t` deterministically.
pub(crate) fn deterministic_solution(
    model: &SecondOrderMrm,
    order: usize,
    t: f64,
    shift: f64,
) -> MomentSolution {
    let n_states = model.n_states();
    let per_state: Vec<Vec<f64>> = (0..=order)
        .map(|n| vec![(shift * t).powi(n as i32); n_states])
        .collect();
    let weighted = (0..=order).map(|n| (shift * t).powi(n as i32)).collect();
    MomentSolution {
        t,
        per_state,
        weighted,
        stats: SolverStats {
            q: model.generator().uniformization_rate(),
            d: 0.0,
            shift,
            iterations: 0,
            error_bound: 0.0,
        },
        error_bounds: vec![0.0; order + 1],
        report: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_ctmc::generator::GeneratorBuilder;

    fn two_state_model(r: [f64; 2], s: [f64; 2]) -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 2.0).unwrap();
        SecondOrderMrm::new(b.build().unwrap(), r.to_vec(), s.to_vec(), vec![1.0, 0.0])
            .unwrap()
    }

    #[test]
    fn zeroth_moment_is_one() {
        let m = two_state_model([1.0, 3.0], [0.5, 2.0]);
        let sol = moments(&m, 3, 0.8, &SolverConfig::default()).unwrap();
        for i in 0..2 {
            assert!((sol.per_state[0][i] - 1.0).abs() < 1e-9, "state {i}");
        }
        assert!((sol.raw_moment(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_drift_gives_exact_mean() {
        // r_i = c for all i → B(t) has mean c·t regardless of the chain.
        let m = two_state_model([2.5, 2.5], [1.0, 3.0]);
        let sol = moments(&m, 2, 1.3, &SolverConfig::default()).unwrap();
        assert!((sol.mean() - 2.5 * 1.3).abs() < 1e-8);
    }

    #[test]
    fn single_state_matches_normal_moments() {
        // One state: B(t) ~ Normal(r t, σ² t). Raw moments are known.
        let b = GeneratorBuilder::new(1);
        let m = SecondOrderMrm::new(b.build().unwrap(), vec![2.0], vec![3.0], vec![1.0])
            .unwrap();
        let t = 0.7;
        let sol = moments(&m, 4, t, &SolverConfig::default()).unwrap();
        let mu = 2.0 * t;
        let var = 3.0 * t;
        assert!((sol.raw_moment(1) - mu).abs() < 1e-10);
        assert!((sol.raw_moment(2) - (var + mu * mu)).abs() < 1e-10);
        assert!((sol.raw_moment(3) - (mu * mu * mu + 3.0 * mu * var)).abs() < 1e-9);
        assert!(
            (sol.raw_moment(4) - (mu.powi(4) + 6.0 * mu * mu * var + 3.0 * var * var)).abs()
                < 1e-9
        );
    }

    #[test]
    fn mean_independent_of_variance_parameters() {
        // Figure 3's observation: E[B(t)] does not depend on S.
        let m0 = two_state_model([1.0, 4.0], [0.0, 0.0]);
        let m1 = two_state_model([1.0, 4.0], [1.0, 10.0]);
        let cfg = SolverConfig {
            epsilon: 1e-12,
            ..SolverConfig::default()
        };
        for &t in &[0.2, 0.9, 2.0] {
            let a = moments(&m0, 1, t, &cfg).unwrap();
            let b = moments(&m1, 1, t, &cfg).unwrap();
            // Each run carries up to ε absolute truncation error.
            assert!((a.mean() - b.mean()).abs() < 5e-12, "t = {t}");
        }
    }

    #[test]
    fn variance_increases_second_moment() {
        let m0 = two_state_model([1.0, 4.0], [0.0, 0.0]);
        let m1 = two_state_model([1.0, 4.0], [1.0, 10.0]);
        let t = 0.5;
        let a = moments(&m0, 2, t, &SolverConfig::default()).unwrap();
        let b = moments(&m1, 2, t, &SolverConfig::default()).unwrap();
        assert!(b.raw_moment(2) > a.raw_moment(2) + 0.1);
        // In fact E[B²] grows by exactly E[∫σ²(Z(u))du]; sanity: positive.
        assert!(b.variance() > a.variance());
    }

    #[test]
    fn negative_rates_shift_round_trip() {
        // Same chain, rates shifted by a constant c: moments must satisfy
        // E[(B+ct)ⁿ] relation; easiest check: mean shifts by ct, variance
        // unchanged.
        let m_pos = two_state_model([1.0, 4.0], [0.5, 2.0]);
        let m_neg = two_state_model([-2.0, 1.0], [0.5, 2.0]);
        let t = 0.8;
        let a = moments(&m_pos, 3, t, &SolverConfig::default()).unwrap();
        let b = moments(&m_neg, 3, t, &SolverConfig::default()).unwrap();
        assert!(b.stats.shift < 0.0);
        assert!((a.mean() - 3.0 * t - b.mean()).abs() < 1e-8);
        assert!((a.variance() - b.variance()).abs() < 1e-7);
        // Third central moments also agree.
        let c3 = |s: &MomentSolution| {
            s.raw_moment(3) - 3.0 * s.mean() * s.raw_moment(2) + 2.0 * s.mean().powi(3)
        };
        assert!((c3(&a) - c3(&b)).abs() < 1e-6);
    }

    #[test]
    fn sweep_matches_single_calls() {
        let m = two_state_model([0.0, 3.0], [0.0, 2.0]);
        let times = [0.1, 0.5, 1.0];
        let cfg = SolverConfig {
            epsilon: 1e-12,
            ..SolverConfig::default()
        };
        let sweep = moments_sweep(&m, 3, &times, &cfg).unwrap();
        for (i, &t) in times.iter().enumerate() {
            let single = moments(&m, 3, t, &cfg).unwrap();
            for j in 0..=3 {
                // Sweep and single runs truncate at different G, so each
                // carries its own ≤ ε error.
                assert!(
                    (sweep[i].raw_moment(j) - single.raw_moment(j)).abs()
                        < 5e-12 * single.raw_moment(j).abs().max(1.0) + 5e-12,
                    "t = {t}, order {j}"
                );
            }
        }
    }

    #[test]
    fn zero_time_moments() {
        let m = two_state_model([1.0, 2.0], [1.0, 1.0]);
        let sol = moments(&m, 3, 0.0, &SolverConfig::default()).unwrap();
        assert_eq!(sol.raw_moment(0), 1.0);
        assert_eq!(sol.raw_moment(1), 0.0);
        assert_eq!(sol.raw_moment(3), 0.0);
    }

    #[test]
    fn frozen_chain_normal_moments() {
        // No transitions at all: q = 0 path.
        let b = GeneratorBuilder::new(2);
        let m = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, -1.0],
            vec![2.0, 0.0],
            vec![0.5, 0.5],
        )
        .unwrap();
        let sol = moments(&m, 2, 1.0, &SolverConfig::default()).unwrap();
        // State 0: N(1, 2): E[B²] = 2 + 1 = 3. State 1: B = −1 surely: E[B²] = 1.
        assert!((sol.per_state[2][0] - 3.0).abs() < 1e-12);
        assert!((sol.per_state[2][1] - 1.0).abs() < 1e-12);
        assert!((sol.raw_moment(1) - 0.0).abs() < 1e-12);
    }

    /// Closed-form raw moments of `Normal(mu, var)`:
    /// `m_n = mu·m_{n−1} + (n−1)·var·m_{n−2}`.
    fn normal_raw(mu: f64, var: f64, order: usize) -> Vec<f64> {
        let mut m = vec![1.0];
        for n in 1..=order {
            let a = mu * m[n - 1];
            let b = if n >= 2 { (n - 1) as f64 * var * m[n - 2] } else { 0.0 };
            m.push(a + b);
        }
        m
    }

    #[test]
    fn one_state_absorbing_chain_orders_0_to_3() {
        // A single state with no transitions is the smallest q = 0
        // degenerate chain: B(t) ~ Normal(r·t, σ²·t) exactly.
        let b = GeneratorBuilder::new(1);
        let m = SecondOrderMrm::new(b.build().unwrap(), vec![1.5], vec![0.7], vec![1.0])
            .unwrap();
        for &t in &[0.0, 0.3, 2.0] {
            let sol = moments(&m, 3, t, &SolverConfig::default()).unwrap();
            let want = normal_raw(1.5 * t, 0.7 * t, 3);
            for n in 0..=3 {
                assert!(
                    (sol.raw_moment(n) - want[n]).abs() < 1e-12 * want[n].abs().max(1.0),
                    "t = {t}, order {n}: {} vs {}",
                    sol.raw_moment(n),
                    want[n]
                );
            }
            assert_eq!(sol.stats.iterations, 0);
            assert_eq!(sol.error_bounds, vec![0.0; 4]);
        }
    }

    #[test]
    fn all_absorbing_chain_reduces_to_mixture_of_normals() {
        // Every state absorbing (q = 0 with several states): B(t) is a
        // π-mixture of per-state normals, so the weighted moments are
        // π-combinations of the per-state closed forms — the mean is
        // exactly π·r·t.
        let b = GeneratorBuilder::new(3);
        let rates = vec![2.0, -1.0, 0.5];
        let variances = vec![0.4, 0.0, 3.0];
        let initial = vec![0.5, 0.3, 0.2];
        let m = SecondOrderMrm::new(b.build().unwrap(), rates.clone(), variances.clone(), initial.clone())
            .unwrap();
        let t = 1.7;
        let sol = moments(&m, 3, t, &SolverConfig::default()).unwrap();
        for n in 0..=3 {
            let want: f64 = (0..3)
                .map(|i| initial[i] * normal_raw(rates[i] * t, variances[i] * t, 3)[n])
                .sum();
            assert!(
                (sol.raw_moment(n) - want).abs() < 1e-12 * want.abs().max(1.0),
                "order {n}: {} vs {want}",
                sol.raw_moment(n)
            );
        }
        let pi_r_t: f64 = initial.iter().zip(&rates).map(|(&p, &r)| p * r * t).sum();
        assert!((sol.mean() - pi_r_t).abs() < 1e-14);
    }

    #[test]
    fn all_absorbing_first_order_is_deterministic_per_state() {
        // q = 0 and σ² = 0 everywhere: per state, B(t) = r_i·t surely,
        // so each per-state n-th moment is exactly (r_i·t)ⁿ.
        let b = GeneratorBuilder::new(2);
        let m = SecondOrderMrm::first_order(b.build().unwrap(), vec![3.0, -2.0], vec![0.4, 0.6])
            .unwrap();
        let t = 0.9;
        let sol = moments(&m, 3, t, &SolverConfig::default()).unwrap();
        for n in 0..=3 {
            for (i, &r) in [3.0, -2.0].iter().enumerate() {
                assert!(
                    (sol.per_state[n][i] - (r * t).powi(n as i32)).abs()
                        < 1e-12 * (r * t).powi(n as i32).abs().max(1.0),
                    "state {i}, order {n}"
                );
            }
        }
    }

    #[test]
    fn deterministic_negative_drift_everywhere() {
        // All rates equal and negative, zero variance: B(t) = −3t surely;
        // exercises the d == 0 path after shifting.
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, 1.0).unwrap();
        let m = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![-3.0, -3.0],
            vec![0.0, 0.0],
            vec![1.0, 0.0],
        )
        .unwrap();
        let sol = moments(&m, 2, 2.0, &SolverConfig::default()).unwrap();
        assert!((sol.mean() + 6.0).abs() < 1e-12);
        assert!((sol.raw_moment(2) - 36.0).abs() < 1e-10);
    }

    #[test]
    fn substochasticity_of_normalized_matrices() {
        // The corrected d must make R', S' substochastic even when q > 1
        // and σ is large — the configuration where the paper's printed
        // formula fails.
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 100.0).unwrap();
        b.rate(1, 0, 50.0).unwrap();
        let m = SecondOrderMrm::new(
            b.build().unwrap(),
            vec![1.0, 5.0],
            vec![0.0, 300.0],
            vec![1.0, 0.0],
        )
        .unwrap();
        let sol = moments(&m, 2, 0.1, &SolverConfig::default()).unwrap();
        let q = sol.stats.q;
        let d = sol.stats.d;
        for (&r, &s) in m.rates().iter().zip(m.variances()) {
            assert!(r / (q * d) <= 1.0 + 1e-12);
            assert!(s / (q * d * d) <= 1.0 + 1e-12);
        }
        // And the paper's formula would have failed here:
        let d_paper = m
            .rates()
            .iter()
            .zip(m.variances())
            .map(|(&r, &s)| r.max(s.sqrt()))
            .fold(0.0f64, f64::max)
            / q;
        assert!(300.0 / (q * d_paper * d_paper) > 1.0, "paper d would not be substochastic");
    }

    /// Theorem-4 fronts of a 2-state order-16 query at q = 10⁶ with unit
    /// drift and variance in one state: d = 1/√q.
    fn order16_fronts() -> Vec<f64> {
        bound_fronts(1e-3, 16, |_| LN_2)
    }

    #[test]
    fn truncation_at_qt_4_5e7_order_16_fits_under_the_cap() {
        let config = SolverConfig::default();
        let start = std::time::Instant::now();
        let (g, bounds) = truncation_point(4.5e7, &order16_fronts(), 0, &config).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(g, 45_140_659);
        assert!(g < config.max_iterations);
        assert!(bounds.iter().all(|&b| b < config.epsilon), "{bounds:?}");
        assert!(elapsed.as_secs_f64() < 1.0, "search took {elapsed:?}");
    }

    #[test]
    fn a_g_just_above_the_cap_is_refused() {
        let fits = SolverConfig {
            max_iterations: 45_140_659,
            ..SolverConfig::default()
        };
        let (g, _) = truncation_point(4.5e7, &order16_fronts(), 0, &fits).unwrap();
        assert_eq!(g, 45_140_659);
        let short = SolverConfig {
            max_iterations: 45_140_658,
            ..SolverConfig::default()
        };
        let start = std::time::Instant::now();
        let err = truncation_point(4.5e7, &order16_fronts(), 0, &short).unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            matches!(err, MrmError::TruncationCapExceeded { .. }),
            "{err:?}"
        );
        assert!(elapsed.as_secs_f64() < 1.0, "refusal took {elapsed:?}");
        // A qt past the cap is refused before any bound is evaluated.
        assert!(matches!(
            truncation_point(1e12, &order16_fronts(), 0, &short),
            Err(MrmError::TruncationCapExceeded { .. })
        ));
    }

    #[test]
    fn error_bound_reported_below_epsilon() {
        let m = two_state_model([1.0, 3.0], [0.5, 2.0]);
        let cfg = SolverConfig {
            epsilon: 1e-10,
            ..SolverConfig::default()
        };
        let sol = moments(&m, 3, 1.0, &cfg).unwrap();
        assert!(sol.stats.error_bound < 1e-10);
        assert!(sol.stats.iterations > 0);
    }

    #[test]
    fn tighter_epsilon_needs_more_iterations() {
        let m = two_state_model([1.0, 3.0], [0.5, 2.0]);
        let loose = moments(&m, 2, 1.0, &SolverConfig { epsilon: 1e-4, ..Default::default() })
            .unwrap();
        let tight = moments(&m, 2, 1.0, &SolverConfig { epsilon: 1e-12, ..Default::default() })
            .unwrap();
        assert!(tight.stats.iterations > loose.stats.iterations);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let m = two_state_model([1.0, 1.0], [0.0, 0.0]);
        assert!(moments(&m, 1, -1.0, &SolverConfig::default()).is_err());
        assert!(moments(&m, 1, f64::NAN, &SolverConfig::default()).is_err());
        let bad = SolverConfig {
            epsilon: 0.0,
            ..SolverConfig::default()
        };
        assert!(moments(&m, 1, 1.0, &bad).is_err());
    }

    #[test]
    fn zero_threads_rejected_with_typed_error() {
        // Regression: `threads: 0` used to slip through to the worker
        // pool, which silently treated it as 1 — masking a broken
        // `--threads 0` flag. It must fail at config-validation time.
        let m = two_state_model([1.0, 1.0], [0.5, 0.5]);
        let cfg = SolverConfig {
            threads: 0,
            ..SolverConfig::default()
        };
        match moments(&m, 1, 1.0, &cfg) {
            Err(MrmError::InvalidParameter { name: "threads", .. }) => {}
            other => panic!("expected InvalidParameter(threads), got {other:?}"),
        }
        assert!(matches!(
            cfg.validate(2),
            Err(MrmError::InvalidParameter { name: "threads", .. })
        ));
    }

    #[test]
    fn absurd_thread_counts_rejected_with_typed_error() {
        // Regression: thread counts far above the state count were
        // accepted and spawned that many parked OS threads. The cap is
        // max(n_states, 256): oversubscription on small models stays
        // legal (the kernel clamps chunks to the state count), typo'd
        // counts do not.
        let m = two_state_model([1.0, 1.0], [0.5, 0.5]);
        let cfg = SolverConfig {
            threads: 100_000,
            ..SolverConfig::default()
        };
        match moments(&m, 1, 1.0, &cfg) {
            Err(MrmError::InvalidParameter { name: "threads", .. }) => {}
            other => panic!("expected InvalidParameter(threads), got {other:?}"),
        }
        // Within the floor: 8 threads on a 2-state model stays accepted.
        let small_over = SolverConfig {
            threads: 8,
            ..SolverConfig::default()
        };
        assert!(small_over.validate(2).is_ok());
        moments(&m, 1, 1.0, &small_over).unwrap();
        // Above 256 states the state count itself is the cap.
        assert!(SolverConfig { threads: 300, ..SolverConfig::default() }.validate(500).is_ok());
        assert!(SolverConfig { threads: 501, ..SolverConfig::default() }.validate(500).is_err());
    }

    #[test]
    fn iteration_cap_enforced() {
        let m = two_state_model([1.0, 1.0], [1.0, 1.0]);
        let cfg = SolverConfig {
            epsilon: 1e-9,
            max_iterations: 2,
            ..SolverConfig::default()
        };
        assert!(matches!(
            moments(&m, 2, 100.0, &cfg),
            Err(MrmError::TruncationCapExceeded { cap: 2, .. })
        ));
    }

    #[test]
    fn iteration_cap_enforced_even_when_bracket_starts_beyond_it() {
        // With a loose epsilon the exponential search's initial bracket
        // max(qt, 16) can already satisfy the bound, so the doubling
        // loop never runs; the cap must still be honoured.
        let m = two_state_model([1.0, 1.0], [1.0, 1.0]);
        let cfg = SolverConfig {
            epsilon: 0.5,
            max_iterations: 10,
            ..SolverConfig::default()
        };
        match moments(&m, 2, 1000.0, &cfg) {
            Err(MrmError::TruncationCapExceeded { qt, cap }) => {
                assert_eq!(cap, 10);
                assert!(qt > 1000.0);
            }
            other => panic!("expected TruncationCapExceeded, got {other:?}"),
        }
    }

    #[test]
    fn extreme_qt_fails_fast_instead_of_hanging_in_the_bound_search() {
        // qt ~ 2e9 with the default 5e7 cap: the old code evaluated the
        // Theorem-4 bound at the initial bracket hi = qt before looking
        // at the cap, and left of the Poisson mode that evaluation sums
        // an O(qt)-term CDF — an effective hang. The cap check must come
        // first so every entry point returns the typed error at once.
        use crate::first_order::moments_first_order;
        use crate::impulse::{moments_with_impulse, ImpulseMrm};
        use crate::terminal::moments_terminal_weighted;
        let m = two_state_model([1.0, 1.0], [1.0, 1.0]);
        let first_order = two_state_model([1.0, 2.0], [0.0, 0.0]);
        let impulse = ImpulseMrm::new(m.clone(), &[(0, 1, 1.5)]).unwrap();
        let cfg = SolverConfig::default();
        type Solve<'a> = &'a dyn Fn() -> Result<MomentSolution, MrmError>;
        let entry_points: [(&str, Solve); 4] = [
            ("plain", &|| moments(&m, 2, 1e9, &cfg)),
            ("terminal", &|| {
                moments_terminal_weighted(&m, 2, 1e9, &[1.0, 3.0], &cfg)
            }),
            ("first-order", &|| {
                moments_first_order(&first_order, 2, 1e9, &cfg)
            }),
            ("impulse", &|| moments_with_impulse(&impulse, 2, 1e9, &cfg)),
        ];
        for (name, solve) in entry_points {
            let start = std::time::Instant::now();
            match solve() {
                Err(MrmError::TruncationCapExceeded { qt, cap }) => {
                    assert!(qt > 1e9, "{name}");
                    assert_eq!(cap, cfg.max_iterations, "{name}");
                }
                other => panic!("{name}: expected TruncationCapExceeded, got {other:?}"),
            }
            assert!(
                start.elapsed() < std::time::Duration::from_secs(1),
                "{name}: cap check ran after the expensive bound evaluation"
            );
        }
    }

    #[test]
    fn time_average_measures() {
        let m = two_state_model([1.0, 3.0], [0.5, 2.0]);
        let t = 2.0;
        let sol = moments(&m, 2, t, &SolverConfig::default()).unwrap();
        assert!((sol.time_average_mean().unwrap() - sol.mean() / t).abs() < 1e-14);
        assert!(
            (sol.time_average_variance().unwrap() - sol.variance() / (t * t)).abs() < 1e-14
        );
        assert!((sol.time_average_raw_moment(0).unwrap() - 1.0).abs() < 1e-9);
        // Long horizon: the time average concentrates at the long-run
        // rate and its variance decays like 1/t.
        let long = moments(&m, 2, 50.0, &SolverConfig::default()).unwrap();
        let rate = m.steady_state_growth_rate().unwrap();
        assert!((long.time_average_mean().unwrap() - rate).abs() < 0.05);
        assert!(
            long.time_average_variance().unwrap() < sol.time_average_variance().unwrap()
        );
    }

    #[test]
    fn time_average_rejects_zero_time_as_error() {
        // Regression: these accessors used to panic at t = 0; they now
        // surface a typed error instead.
        let m = two_state_model([1.0, 3.0], [0.5, 2.0]);
        let sol = moments(&m, 2, 0.0, &SolverConfig::default()).unwrap();
        assert!(matches!(
            sol.time_average_mean(),
            Err(MrmError::UndefinedAtZeroTime { .. })
        ));
        assert!(matches!(
            sol.time_average_variance(),
            Err(MrmError::UndefinedAtZeroTime { .. })
        ));
        assert!(matches!(
            sol.time_average_raw_moment(0),
            Err(MrmError::UndefinedAtZeroTime { .. })
        ));
    }

    #[test]
    fn variance_never_negative_for_deterministic_reward() {
        // Unit drift, zero variance everywhere: B(t) = t surely, so the
        // true σ² is 0 and E[B²] − E[B]² is pure cancellation noise.
        let m = two_state_model([1.0, 1.0], [0.0, 0.0]);
        for &t in &[0.3, 1.0, 5.0] {
            let sol = moments(&m, 2, t, &SolverConfig::default()).unwrap();
            assert!(sol.variance() >= 0.0, "t = {t}: {}", sol.variance());
            assert!(sol.variance() < 1e-9, "t = {t}");
            assert!(sol.time_average_variance().unwrap() >= 0.0, "t = {t}");
        }
    }

    #[test]
    fn variance_clamp_regression() {
        // Raw moments that cancel to a tiny negative value must clamp to
        // exactly 0.0.
        let sol = MomentSolution {
            t: 1.0,
            per_state: vec![vec![1.0], vec![1.0], vec![1.0 - 1e-16]],
            weighted: vec![1.0, 1.0, 1.0 - 1e-16],
            stats: SolverStats {
                q: 1.0,
                d: 1.0,
                shift: 0.0,
                iterations: 1,
                error_bound: 0.0,
            },
            error_bounds: vec![0.0; 3],
            report: None,
        };
        assert!(sol.weighted[2] - sol.weighted[1] * sol.weighted[1] < 0.0);
        assert_eq!(sol.variance(), 0.0);
    }

    #[test]
    fn per_order_bounds_monotone_and_capped_by_stats() {
        let m = two_state_model([1.0, 3.0], [0.5, 2.0]);
        let sol = moments(&m, 4, 1.0, &SolverConfig::default()).unwrap();
        assert_eq!(sol.error_bounds.len(), 5);
        // Higher orders carry larger front factors dʲ·j!·(qt)ʲ at the
        // shared G, so the realized bound grows with the order.
        for j in 1..=4 {
            assert!(
                sol.error_bound(j) >= sol.error_bound(j - 1),
                "order {j}: {} < {}",
                sol.error_bound(j),
                sol.error_bound(j - 1)
            );
        }
        // The stats bound is exactly the worst per-order bound.
        let worst = sol.error_bounds.iter().copied().fold(0.0, f64::max);
        assert_eq!(sol.stats.error_bound, worst);
        assert!(worst < SolverConfig::default().epsilon);
    }

    #[test]
    fn recorder_captures_solver_facts_and_attaches_report() {
        use somrm_obs::MetricsRegistry;

        let m = two_state_model([1.0, 3.0], [0.5, 2.0]);
        let registry = Arc::new(MetricsRegistry::new());
        let cfg = SolverConfig::default()
            .with_recorder(RecorderHandle::new(registry.clone()));
        let sol = moments(&m, 2, 1.0, &cfg).unwrap();

        let snap = registry.snapshot();
        assert_eq!(snap.gauge("solver.g"), Some(sol.stats.iterations as f64));
        assert_eq!(snap.gauge("solver.q"), Some(sol.stats.q));
        assert_eq!(
            snap.counter("kernel.passes"),
            Some(sol.stats.iterations + 1)
        );
        // The 2-state tridiagonal kernel is auto-promoted to DIA.
        assert_eq!(snap.gauge("solver.matrix_format"), Some(1.0));
        assert_eq!(snap.gauge("solver.bandwidth"), Some(1.0));
        let kept = snap.counter("poisson.weights_kept").unwrap();
        let trimmed = snap.counter("poisson.weights_trimmed").unwrap();
        let left_skipped = snap.counter("poisson.weights_left_skipped").unwrap_or(0);
        assert_eq!(kept + trimmed + left_skipped, sol.stats.iterations + 1);
        for stage in ["solve.setup", "solve.truncation", "solve.poisson", "solve.recursion", "solve.assemble"] {
            assert_eq!(snap.timing(stage).map(|t| t.count), Some(1), "{stage}");
        }

        let report = sol.report.as_ref().expect("report attached");
        let section = report.solver.as_ref().expect("solver section");
        assert_eq!(section.g, sol.stats.iterations);
        assert_eq!(section.error_bounds, sol.error_bounds);
        assert_eq!(section.poisson.len(), 1);
        assert_eq!(
            section.poisson[0].weights_kept
                + section.poisson[0].weights_trimmed
                + section.poisson[0].weights_left_skipped,
            sol.stats.iterations + 1
        );
        assert!((section.poisson[0].retained_mass - 1.0).abs() < 1e-6);
        // 2-state model stays below the parallel threshold: no pool.
        assert!(report.pool.is_none());
    }

    #[test]
    fn noop_recorder_solves_bit_identical_to_disabled() {
        use somrm_obs::NoopRecorder;

        let m = two_state_model([1.0, 3.0], [0.5, 2.0]);
        let plain = moments(&m, 3, 1.3, &SolverConfig::default()).unwrap();
        let cfg =
            SolverConfig::default().with_recorder(RecorderHandle::new(Arc::new(NoopRecorder)));
        let noop = moments(&m, 3, 1.3, &cfg).unwrap();
        assert_eq!(plain.weighted, noop.weighted);
        assert_eq!(plain.per_state, noop.per_state);
        assert_eq!(plain.error_bounds, noop.error_bounds);
        // NoopRecorder aggregates nothing, so no report is assembled
        // beyond the empty-metrics shell.
        let report = noop.report.as_ref().expect("enabled handle builds a report");
        assert!(report.metrics.counters.is_empty());
    }

    #[test]
    fn degenerate_paths_report_zero_bounds() {
        use somrm_obs::MetricsRegistry;

        // Frozen chain (q = 0).
        let b = GeneratorBuilder::new(1);
        let m = SecondOrderMrm::new(b.build().unwrap(), vec![2.0], vec![1.0], vec![1.0])
            .unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        let cfg = SolverConfig::default()
            .with_recorder(RecorderHandle::new(registry));
        let sol = moments(&m, 2, 1.0, &cfg).unwrap();
        assert_eq!(sol.error_bounds, vec![0.0; 3]);
        let report = sol.report.as_ref().expect("report attached");
        assert_eq!(report.solver.as_ref().unwrap().g, 0);
    }

    #[test]
    fn parallel_threads_give_identical_results() {
        // Birth–death chain big enough to cross the parallel threshold.
        let n = 5000usize;
        let mut b = GeneratorBuilder::new(n);
        for i in 0..n - 1 {
            b.rate(i, i + 1, 3.0).unwrap();
            b.rate(i + 1, i, 4.0).unwrap();
        }
        let mut init = vec![0.0; n];
        init[0] = 1.0;
        let rates: Vec<f64> = (0..n).map(|i| (n - i) as f64 / n as f64).collect();
        let variances: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let m = SecondOrderMrm::new(b.build().unwrap(), rates, variances, init).unwrap();
        let t = 0.5;
        let serial = moments(&m, 2, t, &SolverConfig::default()).unwrap();
        let parallel = moments(
            &m,
            2,
            t,
            &SolverConfig {
                threads: 4,
                ..SolverConfig::default()
            },
        )
        .unwrap();
        // Same summation order per row → bitwise identical.
        assert_eq!(serial.weighted, parallel.weighted);
    }

    #[test]
    fn first_order_special_case_matches_known_two_state_mean() {
        // First-order MRM with r = (0, 1), start in 0:
        // E[B(t)] = ∫ P(Z(u)=1) du, closed form for the 2-state chain.
        let (a, b) = (1.0, 2.0);
        let mut gb = GeneratorBuilder::new(2);
        gb.rate(0, 1, a).unwrap();
        gb.rate(1, 0, b).unwrap();
        let m = SecondOrderMrm::first_order(gb.build().unwrap(), vec![0.0, 1.0], vec![1.0, 0.0])
            .unwrap();
        let t: f64 = 1.1;
        let sol = moments(&m, 1, t, &SolverConfig::default()).unwrap();
        // P(Z(u)=1 | Z(0)=0) = a/(a+b)(1 − e^{−(a+b)u})
        let s = a + b;
        let integral = a / s * (t - (1.0 - (-s * t).exp()) / s);
        assert!((sol.mean() - integral).abs() < 1e-9);
    }
}
