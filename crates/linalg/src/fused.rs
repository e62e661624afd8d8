//! Fused iteration kernel for the randomization `U`-recursion.
//!
//! One step of the moment recursion (paper, Theorem 3)
//!
//! ```text
//! U⁽ʲ⁾(k+1) = R'·U⁽ʲ⁻¹⁾(k) + ½S'·U⁽ʲ⁻²⁾(k) + Q'·U⁽ʲ⁾(k),
//! ```
//!
//! followed by the Poisson-weighted accumulation of `U⁽ʲ⁾(k)` for every
//! requested time point, is one *pass* of [`FusedMomentKernel`]: each
//! row is visited once per pass, doing the sparse dot product, the
//! `R'`/`½S'` diagonal combine, and the weighted Neumaier accumulation
//! for all orders and all time points while its data is hot in cache.
//!
//! # Stretches and the time-skewed wavefront
//!
//! The kernel runs a *stretch* of consecutive passes per call
//! ([`FusedMomentKernel::run`], with one `(time, weight)` list per step
//! in a [`StepWeights`]; [`FusedMomentKernel::step`] is a one-step
//! stretch). Without a worker pool it schedules the stretch as a
//! time-skewed wavefront (Wonnacott, IPDPS 2000): the rows are cut into
//! blocks whose working set — `U` rows, accumulators, matrix rows and
//! `r'`/`½s'` — is about 1 MiB, and each block advances
//! through every step of the stretch before the next block starts, so a
//! paper-scale model streams its vectors from memory once per stretch
//! instead of once per pass. Block `i` covers rows
//! `[lo_i − t·b, lo_{i+1} − t·b)` at step `t` (clipped to `[0, n)`, the
//! first block always from row 0 and the last always to `n`), where `b`
//! is the matrix bandwidth; see `Wavefront` for why two `U` buffers
//! suffice and every row reads exactly the values the pass-by-pass order
//! gives it. With a pool attached, or when the band is too wide for the
//! skew to fit a block (Kronecker sums), the same scheduler runs with
//! depth 1: one pass at a time over fixed row chunks.
//!
//! # Determinism
//!
//! Results are **bit-identical** for every schedule and thread count:
//! chunk and block boundaries only decide *when* a row is computed,
//! never its arithmetic. Each row's dot product accumulates its terms in
//! ascending-column order (CSR storage order, or ascending diagonal
//! offsets for DIA — the same order, see `crate::dia`), the diagonal
//! combine uses the exact expression
//! `dot + r'[i]·u⁽ʲ⁻¹⁾[i] + ½s'[i]·u⁽ʲ⁻²⁾[i]` (left-associated), and
//! each accumulator cell receives its terms in ascending-`k` order from
//! a single thread. The kernel resolves the [`IterationMatrix`] once, so
//! the CSR and DIA backends share every other line of the pass and
//! inherit the same determinism contract. The matrix-free operator
//! backend (`crate::operator`) joins them: it stores each row's dot,
//! computed with the same chain (stores are exact), and
//! `simd::axpy` then adds the same two combine terms in the same
//! order.
//!
//! # Arithmetic
//!
//! There is one: strict f64 in canonical order. Each dot is the plain
//! chain `dot + v·x` from `0.0` over ascending columns, the combine is
//! `(dot + r'·w₁) + ½s'·w₂`, and the Poisson accumulate is a plain
//! product `wk·u` fed to the Neumaier update; no multiply-add is fused
//! (Rust never contracts `a·b + c` on its own, whatever the target
//! CPU). The row loops are written once over `simd::Lanes`: four rows
//! per AVX2 register where the CPU has AVX2, one `f64` row otherwise.
//! Every lane operation is the correctly rounded f64 operation, so both
//! widths give the same bits, which are also those of the plain
//! matrix–vector loop (`CsrMatrix::matvec_into`, then the combine) and
//! of the golden file `tests/regressions/scalar-golden.json`.
//!
//! The DIA interior is a single-pass row loop over groups of rows: it
//! reads each `U` row from memory once and does every order's dot,
//! combine and Neumaier update in registers, specialized at compile time
//! for orders 0–3 and three diagonals. The accumulators live in two
//! planes (running sums, compensations), so the vector Neumaier update
//! needs no shuffles.
//!
//! # Weighted runs
//!
//! A kernel switched to a weighted run ([`FusedMomentKernel::set_projection`])
//! keeps no accumulator planes. Each pass instead records the projection
//! `aⱼ(k) = πᵀU⁽ʲ⁾(k)` of the iterate it reads, one scalar per order and
//! step ([`FusedMomentKernel::projected`]), in the same row bodies, next
//! to the accumulate it replaces. Row `i` adds `π[i]·U⁽ʲ⁾[i]` (plain
//! multiply, plain add) into lane `i % PROJ_LANES` of its step's partial
//! sums; the lanes of a step are reduced as `(l₀+l₁)+(l₂+l₃)` after the
//! stretch. Every lane receives its rows in ascending order on every
//! schedule, so `aⱼ(k)` is bit-identical across wavefront blocks,
//! stretch lengths and matrix backends; a pooled kernel reduces its
//! chunks' partial sums in chunk order, which agrees with a serial run
//! only up to rounding.

use crate::dia::{DiaMatrix, IterationMatrix};
use crate::footprint::FootprintBytes;
use crate::operator::KroneckerSum;
use crate::pool::{chunk_range, PoolStats, SyncMutPtr, WorkerPool};
use crate::simd::{self, lanes_fit, load_lanes, store_lanes, Lanes, PROJ_LANES};
use somrm_num::sum::neumaier_add;
use somrm_obs::RecorderHandle;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Target working set of one wavefront block: half of a 2 MiB L2, so
/// the block's rows stay cache-resident across every step of a sweep
/// with room for the skew, the halo rows and the prefetcher.
const WAVE_BLOCK_BYTES: usize = 1 << 20;

/// Most steps one wavefront sweep advances each block through, and the
/// longest stretch a caller should hand [`FusedMomentKernel::run`]: at
/// 64 the streaming from memory is 1/64 of the pass-by-pass traffic,
/// while the per-step weight list and the skew stay small.
pub const MAX_STRETCH_STEPS: usize = 64;

/// The borrowed raw storage of the iteration matrix, resolved once per
/// kernel so the row bodies dispatch without touching the enum.
#[derive(Debug, Clone, Copy)]
enum MatrixParts<'b> {
    /// `(row_ptr, col_idx, values)`.
    Csr(&'b [usize], &'b [usize], &'b [f64]),
    /// `(offsets, flattened diagonal data)`.
    Dia(&'b [isize], &'b [f64]),
    /// Matrix-free backend; rows computed on the fly.
    Op(&'b KroneckerSum),
}

/// How a kernel reaches its worker threads: none (inline), a pool it
/// owns for the duration of one solve, or a pool borrowed from a
/// longer-lived [`SolvePlan`]-style cache so repeated executes skip the
/// thread spawns entirely.
#[derive(Debug)]
enum KernelPool<'a> {
    /// Single chunk, runs on the calling thread.
    Inline,
    /// Created by [`FusedMomentKernel::new`], dropped with the kernel.
    Owned(WorkerPool),
    /// Supplied by the caller via [`FusedMomentKernel::with_pool`];
    /// outlives the kernel, its threads stay parked between solves.
    Borrowed(&'a mut WorkerPool),
}

impl KernelPool<'_> {
    fn get(&mut self) -> Option<&mut WorkerPool> {
        match self {
            KernelPool::Inline => None,
            KernelPool::Owned(p) => Some(p),
            KernelPool::Borrowed(p) => Some(p),
        }
    }
}

/// The `(time index, weight)` lists of a stretch of consecutive passes,
/// one list per step, in one reusable buffer: the recursion driver
/// clears it, pushes each step's active Poisson weights, and hands it to
/// [`FusedMomentKernel::run`].
#[derive(Debug, Clone, Default)]
pub struct StepWeights {
    pairs: Vec<(usize, f64)>,
    /// Exclusive end of each step's slice of `pairs`.
    ends: Vec<usize>,
}

impl StepWeights {
    /// An empty list (no steps).
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every step, keeping the capacity.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.ends.clear();
    }

    /// Appends one step with the given `(time index, weight)` pairs.
    pub fn push_step(&mut self, active: impl IntoIterator<Item = (usize, f64)>) {
        self.pairs.extend(active);
        self.ends.push(self.pairs.len());
    }
}

/// One `(time, order)` row of the kernel's compensated accumulators: the
/// Neumaier running sums and compensations of `Σ_k wk·U⁽ʲ⁾(k)[i]`, as
/// two planes.
#[derive(Debug, Clone, Copy)]
pub struct Accumulated<'k> {
    /// Running sums, without the compensation applied.
    pub sums: &'k [f64],
    /// Running compensations (the rounding error the sums have lost).
    pub comps: &'k [f64],
}

impl Accumulated<'_> {
    /// The compensated values `sum + compensation`, row by row — the
    /// same `f64` as `NeumaierSum::value`.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.sums.iter().zip(self.comps).map(|(&s, &c)| s + c)
    }
}

/// The time-skewed wavefront schedule of one sweep: `steps` consecutive
/// passes over rows `0..n` of a matrix with bandwidth `band`, cut into
/// blocks of `block_rows` rows, each block running every step before the
/// next block starts.
///
/// Block `i` covers rows `[i·B − t·b, (i+1)·B − t·b)` at step `t`,
/// clipped to `[0, n)`; block 0 always starts at row 0 and the last
/// block always ends at `n`, so every step covers each row exactly once.
/// With `B ≥ b` two `U` buffers suffice and every row reads the values a
/// pass-by-pass run would give it:
///
/// * the left halo block `i` reads at step `t` (`b` rows below its
///   start) was written at step `t−1` by earlier blocks, which next
///   write that buffer at step `t+1`, and only below
///   `i·B − (t+1)·b` — the halo's first row;
/// * its right halo (`b` rows above its end) was written at step `t−1`
///   by block `i` itself, whose range then reached `b` rows further
///   right and started at most `B − b` rows below its new end;
/// * the rows it overwrites at step `t` (the buffer held step `t−1`)
///   are no longer read: block `i+1` reads step `t−1` only from
///   `(i+1)·B − t·b` up.
///
/// Each accumulator row receives its steps in ascending order, since a
/// row only ever moves to later blocks as `t` grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Wavefront {
    n: usize,
    band: usize,
    block_rows: usize,
    steps: usize,
}

impl Wavefront {
    /// # Panics
    ///
    /// Panics if `block_rows` is 0, or smaller than `band` for a
    /// multi-step sweep (the halo would reach a block not yet run).
    pub(crate) fn new(n: usize, band: usize, block_rows: usize, steps: usize) -> Self {
        assert!(block_rows > 0, "wavefront blocks need at least one row");
        assert!(
            steps <= 1 || band <= block_rows,
            "wavefront block of {block_rows} rows is narrower than the band {band}"
        );
        Wavefront {
            n,
            band,
            block_rows,
            steps,
        }
    }

    /// Number of blocks: enough that the last starts at or below `n` at
    /// the last step.
    pub(crate) fn blocks(&self) -> usize {
        let skew = self.steps.saturating_sub(1) * self.band;
        (self.n + skew).div_ceil(self.block_rows).max(1)
    }

    /// Rows block `block` computes at step `t` (`t < steps`).
    pub(crate) fn rows(&self, block: usize, t: usize) -> Range<usize> {
        let edge = |i: usize| {
            if i == 0 {
                0
            } else if i >= self.blocks() {
                self.n
            } else {
                (i * self.block_rows)
                    .saturating_sub(t * self.band)
                    .min(self.n)
            }
        };
        edge(block)..edge(block + 1)
    }
}

/// Fused recursion + accumulation kernel over a persistent worker pool.
///
/// Layout: `U` vectors are flattened as `u[j·n + i]`; the accumulator
/// planes as `acc[(ti·(order+1) + j)·n + i]`.
#[derive(Debug)]
pub struct FusedMomentKernel<'a> {
    parts: MatrixParts<'a>,
    /// DIA rows where every stored diagonal is in band.
    interior: Range<usize>,
    r_prime: &'a [f64],
    s_half: &'a [f64],
    order: usize,
    n: usize,
    n_times: usize,
    chunks: usize,
    pool: KernelPool<'a>,
    band: usize,
    block_rows: usize,
    /// Steps per wavefront sweep (1: pass by pass).
    depth: usize,
    u_cur: Vec<f64>,
    u_next: Vec<f64>,
    acc_sum: Vec<f64>,
    acc_comp: Vec<f64>,
    /// π of a weighted run ([`FusedMomentKernel::set_projection`]);
    /// empty otherwise.
    pi: &'a [f64],
    /// Projection lanes of the current stretch, one lane set per
    /// `(chunk, step, order)`.
    proj_lanes: Vec<[f64; PROJ_LANES]>,
    /// `aⱼ(k)` of the last stretch's steps, `[t·(order+1) + j]`.
    projected: Vec<f64>,
    /// The matrix's owned bytes per row, for sizing wavefront blocks.
    matrix_row_bytes: usize,
    /// Per-chunk kernel time within the current stretch (pooled kernels
    /// with a recorder), so each lane emits one `kernel.chunk` span per
    /// stretch.
    lane_ns: Vec<AtomicU64>,
    recorder: RecorderHandle,
}

impl<'a> FusedMomentKernel<'a> {
    /// Creates the kernel with `U⁽⁰⁾(0) = u0` and `U⁽ʲ⁾(0) = 0` for
    /// `j ≥ 1`, ready to accumulate `n_times` time points.
    ///
    /// `threads` is the number of row chunks (and OS threads engaged);
    /// the worker pool is created here — once per solve — and torn down
    /// when the kernel is dropped. `threads ≤ 1` runs fully inline. The
    /// matrix bandwidth is scanned here (`O(nnz)` for CSR); plans that
    /// build many kernels over one matrix pass it to
    /// [`FusedMomentKernel::with_pool`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` is not square or the vector lengths disagree.
    pub fn new(
        matrix: &'a IterationMatrix,
        r_prime: &'a [f64],
        s_half: &'a [f64],
        order: usize,
        n_times: usize,
        u0: &[f64],
        threads: usize,
    ) -> Self {
        let n = matrix.rows();
        let chunks = threads.clamp(1, n.max(1));
        let pool = if chunks > 1 {
            KernelPool::Owned(WorkerPool::new(chunks))
        } else {
            KernelPool::Inline
        };
        let band = matrix.bandwidth();
        Self::assemble(
            matrix, band, r_prime, s_half, order, n_times, u0, chunks, pool,
        )
    }

    /// Like [`FusedMomentKernel::new`], but running passes on a
    /// caller-owned [`WorkerPool`] instead of spawning one, with the
    /// matrix `bandwidth` computed once by the caller. It must be at
    /// least `matrix.bandwidth()` — the wavefront skews each step by it,
    /// so a smaller value would read stale rows (a larger one only
    /// shortens the sweeps). The pool's thread count decides the chunk
    /// count (`None` runs inline), so a plan that keeps one pool alive
    /// executes any number of solves without paying thread creation
    /// again — with the same fixed chunk boundaries, hence bit-identical
    /// results.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` is not square, the vector lengths disagree, or
    /// the pool has more threads than the matrix has rows (an owned pool
    /// is clamped at construction; a borrowed one must already fit).
    #[allow(clippy::too_many_arguments)]
    pub fn with_pool(
        matrix: &'a IterationMatrix,
        bandwidth: usize,
        r_prime: &'a [f64],
        s_half: &'a [f64],
        order: usize,
        n_times: usize,
        u0: &[f64],
        pool: Option<&'a mut WorkerPool>,
    ) -> Self {
        debug_assert!(
            bandwidth >= matrix.bandwidth(),
            "bandwidth below the matrix's"
        );
        let n = matrix.rows();
        let (chunks, pool) = match pool {
            Some(p) => {
                assert!(
                    p.threads() <= n.max(1),
                    "borrowed pool has {} threads for {} rows",
                    p.threads(),
                    n
                );
                (p.threads().max(1), KernelPool::Borrowed(p))
            }
            None => (1, KernelPool::Inline),
        };
        Self::assemble(
            matrix, bandwidth, r_prime, s_half, order, n_times, u0, chunks, pool,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        matrix: &'a IterationMatrix,
        band: usize,
        r_prime: &'a [f64],
        s_half: &'a [f64],
        order: usize,
        n_times: usize,
        u0: &[f64],
        chunks: usize,
        pool: KernelPool<'a>,
    ) -> Self {
        let n = matrix.rows();
        assert_eq!(matrix.cols(), n, "fused kernel needs a square matrix");
        assert_eq!(r_prime.len(), n, "r_prime length mismatch");
        assert_eq!(s_half.len(), n, "s_half length mismatch");
        assert_eq!(u0.len(), n, "u0 length mismatch");
        let (parts, interior) = match matrix {
            IterationMatrix::Csr(m) => {
                let (row_ptr, col_idx, values) = m.csr_parts();
                (MatrixParts::Csr(row_ptr, col_idx, values), 0..n)
            }
            IterationMatrix::Dia(m) => {
                let (mut lo, mut hi) = (0, n);
                for &o in m.offsets() {
                    let rows = DiaMatrix::diag_rows(n, o);
                    lo = lo.max(rows.start);
                    hi = hi.min(rows.end);
                }
                (MatrixParts::Dia(m.offsets(), m.data()), lo..hi.max(lo))
            }
            IterationMatrix::Operator(m) => (MatrixParts::Op(m.as_kronecker()), 0..n),
        };
        let order1 = order + 1;
        // Bytes a block keeps per row: both U buffers, both accumulator
        // planes, r'/½s' and the row's share of the matrix.
        let matrix_row_bytes = matrix.footprint_bytes().div_ceil(n.max(1));
        let row_bytes =
            std::mem::size_of::<f64>() * (2 * order1 * (1 + n_times) + 2) + matrix_row_bytes;
        let block_rows = (WAVE_BLOCK_BYTES / row_bytes).max(1);
        let mut u_cur = vec![0.0; order1 * n];
        u_cur[..n].copy_from_slice(u0);
        let mut kernel = FusedMomentKernel {
            parts,
            interior,
            r_prime,
            s_half,
            order,
            n,
            n_times,
            chunks,
            pool,
            band,
            block_rows,
            depth: 1,
            u_cur,
            u_next: vec![0.0; order1 * n],
            acc_sum: vec![0.0; n_times * order1 * n],
            acc_comp: vec![0.0; n_times * order1 * n],
            pi: &[],
            proj_lanes: Vec::new(),
            projected: Vec::new(),
            matrix_row_bytes,
            lane_ns: (0..chunks).map(|_| AtomicU64::new(0)).collect(),
            recorder: RecorderHandle::disabled(),
        };
        kernel.set_block_rows(block_rows);
        kernel
    }

    /// Sets the wavefront block size and derives the sweep depth from
    /// it: as many steps as keep the skew (`depth · band`) within an
    /// eighth of a block, capped at [`MAX_STRETCH_STEPS`]; 1 with a
    /// worker pool, whose chunks cannot run ahead of each other.
    fn set_block_rows(&mut self, block_rows: usize) {
        self.block_rows = block_rows.max(1);
        self.depth = if self.chunks > 1 {
            1
        } else {
            (self.block_rows / (8 * self.band.max(1))).clamp(1, MAX_STRETCH_STEPS)
        };
    }

    /// Switches the kernel to a weighted run: from the next pass on, each
    /// step records `aⱼ(k) = πᵀU⁽ʲ⁾(k)` for every order (read back with
    /// [`FusedMomentKernel::projected`]). Meant for a kernel built with
    /// no time points, whose passes then do no per-state accumulation;
    /// the wavefront blocks are resized for the lighter rows.
    ///
    /// # Panics
    ///
    /// Panics if `pi` does not have one entry per row.
    pub fn set_projection(&mut self, pi: &'a [f64]) {
        assert_eq!(pi.len(), self.n, "projection vector length mismatch");
        self.pi = pi;
        let order1 = self.order + 1;
        let row_bytes = std::mem::size_of::<f64>() * (2 * order1 * (1 + self.n_times) + 3)
            + self.matrix_row_bytes;
        self.set_block_rows((WAVE_BLOCK_BYTES / row_bytes).max(1));
    }

    /// `aⱼ(k) = πᵀU⁽ʲ⁾(k)` of every step of the last stretch of a
    /// weighted run, flattened as `[t·(order+1) + j]` (empty otherwise).
    pub fn projected(&self) -> &[f64] {
        &self.projected
    }

    /// The current iterate, flattened as `u[j·n + i]`.
    pub fn iterate(&self) -> &[f64] {
        &self.u_cur
    }

    /// Replaces the current iterate (flattened as `u[j·n + i]`), so a
    /// recursion resumes where an earlier kernel stopped.
    ///
    /// # Panics
    ///
    /// Panics if `u` has the wrong length.
    pub fn set_iterate(&mut self, u: &[f64]) {
        self.u_cur.copy_from_slice(u);
    }

    /// Attaches a telemetry recorder; each stretch is then timed under
    /// `"kernel.pass"` and its steps counted under `"kernel.passes"`, so
    /// the time per pass is `kernel.pass` total over `kernel.passes`.
    /// Disabled by default (zero instrumentation cost).
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = recorder;
    }

    /// Number of row chunks (= threads engaged per pass).
    pub fn threads(&self) -> usize {
        self.chunks
    }

    /// Worker-pool telemetry, if this kernel runs a pool (`None` for
    /// inline single-chunk kernels).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        match &self.pool {
            KernelPool::Inline => None,
            KernelPool::Owned(p) => Some(p.stats()),
            KernelPool::Borrowed(p) => Some(p.stats()),
        }
    }

    /// One fused pass at iteration `k`: adds `wk·U⁽ʲ⁾(k)` into the
    /// accumulators of every `(ti, wk)` in `active`, and, if `advance`,
    /// computes `U⁽ʲ⁾(k+1)` for all `j` in the same sweep (skipped on the
    /// final iteration `k = G`). A one-step [`FusedMomentKernel::run`].
    ///
    /// # Panics
    ///
    /// Panics if an `active` time index is out of range.
    pub fn step(&mut self, active: &[(usize, f64)], advance: bool) {
        self.run_stretch(active, &[active.len()], advance);
    }

    /// Runs the passes of `steps` in order — step `t` accumulates the
    /// pairs pushed `t`-th — advancing the iterate after every step
    /// but the last, and after the last too if `advance_last`. Bitwise
    /// the same as calling [`FusedMomentKernel::step`] once per step.
    ///
    /// # Panics
    ///
    /// Panics if a time index is out of range.
    pub fn run(&mut self, steps: &StepWeights, advance_last: bool) {
        self.run_stretch(&steps.pairs, &steps.ends, advance_last);
    }

    fn run_stretch(&mut self, pairs: &[(usize, f64)], ends: &[usize], advance_last: bool) {
        if self.pi.is_empty() {
            self.run_stretch_with(pairs, ends, advance_last, simd_rows::<false>);
        } else {
            self.run_stretch_with(pairs, ends, advance_last, simd_rows::<true>);
            self.reduce_projection(ends.len());
        }
    }

    /// Folds each step's projection lanes into `aⱼ(k)`: per chunk
    /// `(l₀+l₁)+(l₂+l₃)`, then the chunks in ascending order.
    fn reduce_projection(&mut self, steps: usize) {
        let order1 = self.order + 1;
        self.projected.clear();
        for t in 0..steps {
            for j in 0..order1 {
                let mut v = 0.0;
                for c in 0..self.chunks {
                    let l = self.proj_lanes[(c * steps + t) * order1 + j];
                    let part = (l[0] + l[1]) + (l[2] + l[3]);
                    v = if c == 0 { part } else { v + part };
                }
                self.projected.push(v);
            }
        }
    }

    /// The scheduler: runs `body` over every (rows, step) of the stretch.
    fn run_stretch_with(
        &mut self,
        pairs: &[(usize, f64)],
        ends: &[usize],
        advance_last: bool,
        body: impl Fn(&PassCtx, Range<usize>) + Sync,
    ) {
        for &(ti, _) in pairs {
            assert!(ti < self.n_times, "time index {ti} out of range");
        }
        let steps = ends.len();
        if steps == 0 {
            return;
        }
        let n = self.n;
        let chunks = self.chunks;
        let project = !self.pi.is_empty();
        if project {
            self.proj_lanes.clear();
            self.proj_lanes
                .resize(chunks * steps * (self.order + 1), [0.0; PROJ_LANES]);
        }
        let stretch = Stretch {
            n,
            order1: self.order + 1,
            parts: self.parts,
            interior: self.interior.clone(),
            r_prime: self.r_prime,
            s_half: self.s_half,
            u: [
                SyncMutPtr::new(self.u_cur.as_mut_ptr()),
                SyncMutPtr::new(self.u_next.as_mut_ptr()),
            ],
            u_len: self.u_cur.len(),
            acc_sum: SyncMutPtr::new(self.acc_sum.as_mut_ptr()),
            acc_comp: SyncMutPtr::new(self.acc_comp.as_mut_ptr()),
            pi: self.pi,
            proj: project.then(|| SyncMutPtr::new(self.proj_lanes.as_mut_ptr())),
            pairs,
            ends,
            advance_last,
        };
        let rec = &self.recorder;
        let pass_span = rec.span("kernel.pass");
        // Timeline-only per-lane events (one per stretch and lane, from
        // the thread that ran the rows, so the Chrome trace shows one
        // lane per worker). They do not feed the duration aggregates;
        // those stay at kernel.pass granularity.
        let stretch_start = rec.enabled().then(Instant::now);
        match self.pool.get() {
            None => {
                let mut s0 = 0;
                while s0 < steps {
                    let s1 = (s0 + self.depth).min(steps);
                    let block_rows = if s1 - s0 > 1 {
                        self.block_rows
                    } else {
                        n.max(1)
                    };
                    let wave = Wavefront::new(n, self.band, block_rows, s1 - s0);
                    for block in 0..wave.blocks() {
                        for t in s0..s1 {
                            let rows = wave.rows(block, t - s0);
                            if !rows.is_empty() {
                                // SAFETY: rows run one at a time here,
                                // and `Wavefront` guarantees every read
                                // of step `t`'s buffer sees step `t`.
                                body(&unsafe { stretch.pass(t, 0) }, rows);
                            }
                        }
                    }
                    s0 = s1;
                }
                if let Some(start) = stretch_start {
                    rec.span_complete("kernel.chunk", start, elapsed_ns(start));
                }
            }
            Some(pool) => {
                let lane_ns = &self.lane_ns;
                for t in 0..steps {
                    let task = |c: usize| {
                        let rows = chunk_range(n, chunks, c);
                        if rows.is_empty() {
                            return;
                        }
                        // SAFETY: every chunk of step `t` reads buffer
                        // `t % 2` and writes only its own rows of the
                        // other buffer and of the accumulators, and its
                        // own projection lanes.
                        let ctx = unsafe { stretch.pass(t, c) };
                        let start = stretch_start.map(|_| Instant::now());
                        body(&ctx, rows);
                        if let (Some(first), Some(start)) = (stretch_start, start) {
                            // A statistic only: the pool's run handshake
                            // orders the steps, so Relaxed suffices.
                            let ns = elapsed_ns(start);
                            let busy = lane_ns[c].fetch_add(ns, Ordering::Relaxed) + ns;
                            if t + 1 == steps {
                                lane_ns[c].store(0, Ordering::Relaxed);
                                rec.span_complete("kernel.chunk", first, busy);
                            }
                        }
                    };
                    pool.run(&task);
                }
            }
        }
        drop(pass_span);
        rec.counter_add("kernel.passes", steps as u64);
        let advances = steps - usize::from(!advance_last);
        if advances % 2 == 1 {
            std::mem::swap(&mut self.u_cur, &mut self.u_next);
        }
    }

    /// The accumulator row of `(time index, order)` — Neumaier partial
    /// sums of `Σ_k wk·U⁽ʲ⁾(k)[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `ti` or `j` is out of range.
    pub fn accumulated(&self, ti: usize, j: usize) -> Accumulated<'_> {
        assert!(
            ti < self.n_times && j <= self.order,
            "accumulator index out of range"
        );
        let base = (ti * (self.order + 1) + j) * self.n;
        Accumulated {
            sums: &self.acc_sum[base..base + self.n],
            comps: &self.acc_comp[base..base + self.n],
        }
    }

    /// Read-only view of the order-`j` block of the *current* iterate —
    /// `U⁽ʲ⁾(k+1)` right after an advancing pass at iteration `k`
    /// (`U⁽ʲ⁾(G)` after the final non-advancing step). Health probes
    /// scan this between stretches; it never aliases in-flight writes.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn u_order(&self, j: usize) -> &[f64] {
        assert!(j <= self.order, "order index out of range");
        &self.u_cur[j * self.n..(j + 1) * self.n]
    }

    /// The iterates around the last advance, flattened as `u[j·n + i]`:
    /// the current one `U(k+1)`, writable, and the previous one `U(k)`
    /// it was computed from. Valid between stretches that advanced; a
    /// caller adds recursion terms the pass does not know (impulse
    /// coupling) here before the next stretch reads `U(k+1)`.
    pub fn iterates_mut(&mut self) -> (&mut [f64], &[f64]) {
        (&mut self.u_cur, &self.u_next)
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

impl FootprintBytes for FusedMomentKernel<'_> {
    /// The kernel's owned working set: the `U` ping-pong pair
    /// (`2·(order+1)·n` doubles), the two compensated-accumulator planes
    /// (`2·n_times·(order+1)·n` doubles) and, in a weighted run, the
    /// projection lanes and values of one stretch. The matrix and the
    /// `R'`/`½S'`/`π` strips are borrowed, not owned, and are accounted
    /// by their own [`FootprintBytes`] impls.
    fn footprint_bytes(&self) -> usize {
        (self.u_cur.len()
            + self.u_next.len()
            + self.acc_sum.len()
            + self.acc_comp.len()
            + self.proj_lanes.len() * PROJ_LANES
            + self.projected.len())
            * std::mem::size_of::<f64>()
    }
}

/// What every pass of one stretch shares; [`Stretch::pass`] narrows it
/// to one step.
struct Stretch<'c> {
    n: usize,
    order1: usize,
    parts: MatrixParts<'c>,
    interior: Range<usize>,
    r_prime: &'c [f64],
    s_half: &'c [f64],
    /// The `U` ping-pong pair: step `t` reads `u[t % 2]`, writes the
    /// other.
    u: [SyncMutPtr<f64>; 2],
    u_len: usize,
    acc_sum: SyncMutPtr<f64>,
    acc_comp: SyncMutPtr<f64>,
    pi: &'c [f64],
    /// The projection lanes, laid out `[(chunk·steps + t)·order1 + j]`,
    /// in a weighted run.
    proj: Option<SyncMutPtr<[f64; PROJ_LANES]>>,
    pairs: &'c [(usize, f64)],
    ends: &'c [usize],
    advance_last: bool,
}

impl Stretch<'_> {
    /// The context of step `t` for the rows of chunk `chunk` (0 without
    /// a pool).
    ///
    /// # Safety
    ///
    /// While the returned context lives, nothing may write buffer
    /// `u[t % 2]`, and the rows a pass body writes (in `u[(t+1) % 2]`
    /// and the accumulators) and the chunk's projection lanes of step
    /// `t` must not be accessed by anyone else.
    unsafe fn pass(&self, t: usize, chunk: usize) -> PassCtx<'_> {
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        PassCtx {
            n: self.n,
            order1: self.order1,
            parts: self.parts,
            interior: self.interior.clone(),
            r_prime: self.r_prime,
            s_half: self.s_half,
            u_cur: std::slice::from_raw_parts(self.u[t % 2].add(0), self.u_len),
            u_next: self.u[(t + 1) % 2],
            acc_sum: self.acc_sum,
            acc_comp: self.acc_comp,
            pi: self.pi,
            proj: self
                .proj
                .as_ref()
                .map(|p| SyncMutPtr::new(p.add((chunk * self.ends.len() + t) * self.order1))),
            active: &self.pairs[start..self.ends[t]],
            advance: t + 1 < self.ends.len() || self.advance_last,
        }
    }
}

/// Context of one pass, handed to the row bodies. The raw write targets
/// are only touched inside the rows a body is given.
struct PassCtx<'c> {
    n: usize,
    order1: usize,
    parts: MatrixParts<'c>,
    interior: Range<usize>,
    r_prime: &'c [f64],
    s_half: &'c [f64],
    u_cur: &'c [f64],
    u_next: SyncMutPtr<f64>,
    acc_sum: SyncMutPtr<f64>,
    acc_comp: SyncMutPtr<f64>,
    /// π of a weighted run (empty otherwise).
    pi: &'c [f64],
    /// This step's and chunk's projection lanes, one set per order, in
    /// a weighted run.
    proj: Option<SyncMutPtr<[f64; PROJ_LANES]>>,
    active: &'c [(usize, f64)],
    advance: bool,
}

impl PassCtx<'_> {
    /// The projection lanes of order `j` (weighted runs only).
    ///
    /// # Safety
    ///
    /// No other reference to these lanes may be live: only the body
    /// running this chunk's rows of this step touches them, one order at
    /// a time.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    unsafe fn lanes(&self, j: usize) -> &mut [f64; PROJ_LANES] {
        let base = self.proj.as_ref().expect("a weighted run");
        &mut *base.add(j)
    }

    /// Adds row `i`'s `π[i]·U⁽ʲ⁾[i]` into every order's lanes.
    #[inline(always)]
    fn project_row(&self, i: usize) {
        for j in 0..self.order1 {
            // SAFETY: only this body touches its chunk's lanes.
            unsafe { self.lanes(j)[i % PROJ_LANES] += self.pi[i] * self.u_cur[j * self.n + i] };
        }
    }

    /// Neumaier-adds `wk·U⁽ʲ⁾[i]` for every active pair and order.
    #[inline(always)]
    fn accumulate_row(&self, i: usize) {
        for &(ti, wk) in self.active {
            for j in 0..self.order1 {
                let cell = (ti * self.order1 + j) * self.n + i;
                // SAFETY: bodies write disjoint rows; `ti < n_times` was
                // checked when the stretch started.
                unsafe {
                    neumaier_add(
                        &mut *self.acc_sum.add(cell),
                        &mut *self.acc_comp.add(cell),
                        wk * self.u_cur[j * self.n + i],
                    )
                };
            }
        }
    }
}

/// The canonical combine of row `i` at order `j`:
/// `(dot + r'[i]·u⁽ʲ⁻¹⁾[i]) + ½s'[i]·u⁽ʲ⁻²⁾[i]`, the terms of orders below
/// 0 left out. The DIA interior adds the same two terms lane-wise, and
/// the operator rows with `simd::axpy`, so every row agrees bitwise
/// whatever its path.
#[inline(always)]
fn combine(ctx: &PassCtx, j: usize, i: usize, dot: f64) -> f64 {
    let n = ctx.n;
    let mut v = dot;
    if j >= 1 {
        v += ctx.r_prime[i] * ctx.u_cur[(j - 1) * n + i];
    }
    if j >= 2 {
        v += ctx.s_half[i] * ctx.u_cur[(j - 2) * n + i];
    }
    v
}

/// Orders whose projection lanes the DIA interior keeps in registers
/// (the orders its specialized loops cover).
const PROJ_REG_ORDERS: usize = 4;

/// Row-block size of the CSR and operator rows: 2048 rows =
/// 16 KiB per order stream, sized so a block of every order's `U_k`
/// plus the matrix and combine streams stays in L1/L2 while all time
/// points and orders consume it.
const SIMD_BLOCK: usize = 2048;

/// Lookahead distance (in rows) of the software prefetch issued ahead
/// of the CSR gather `u[col_idx[k]]`.
const CSR_PREFETCH_ROWS: usize = 8;

/// Average-nonzeros-per-row threshold below which the CSR gather skips
/// software prefetching: sparse-banded rows hit cache lines the
/// hardware prefetcher already covers, and the extra traversal of the
/// lookahead row's indices costs more than the stall it would hide.
const CSR_PREFETCH_MIN_NNZ_PER_ROW: usize = 8;

/// The pass body over `range`. The DIA interior runs the single-pass row
/// loop [`dia_groups`]; CSR and operator rows are tiled into
/// [`SIMD_BLOCK`] row blocks where the Poisson-weighted accumulate runs
/// for every `(time, order)` pair while the `U_k` rows are cache-hot,
/// then the advance re-reads the same rows (the CSR gather is
/// software-prefetched [`CSR_PREFETCH_ROWS`] rows ahead).
///
/// Dispatch: with AVX2 detected the body runs inside a
/// `#[target_feature]` wrapper and the DIA interior and the accumulates
/// run four rows per register; without it the same body runs one row at
/// a time, with the same bits.
fn simd_rows<const P: bool>(ctx: &PassCtx, range: Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_available() {
        // SAFETY: AVX2 presence was just checked at runtime.
        unsafe { simd_rows_avx2::<P>(ctx, range) };
        return;
    }
    // SAFETY: plain `f64` lanes run on every CPU.
    unsafe { simd_rows_impl::<f64, P>(ctx, range) };
}

/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn simd_rows_avx2<const P: bool>(ctx: &PassCtx, range: Range<usize>) {
    simd_rows_impl::<simd::Avx2Lanes, P>(ctx, range);
}

/// The pass body with the DIA interior in groups of `V::WIDTH` rows.
/// `P`: a weighted run, adding each row's projection into its lanes, in
/// ascending row order around the interior so every lane sees its rows
/// in order.
///
/// # Safety
///
/// The CPU must support `V`'s instructions.
#[inline(always)]
unsafe fn simd_rows_impl<V: Lanes, const P: bool>(ctx: &PassCtx, range: Range<usize>) {
    let n = ctx.n;
    let order1 = ctx.order1;
    let u_cur = ctx.u_cur;
    if let MatrixParts::Dia(offsets, data) = ctx.parts {
        let ilo = range.start.max(ctx.interior.start).min(range.end);
        let ihi = range.end.min(ctx.interior.end).max(ilo);
        // Edge rows near the matrix border guard each diagonal.
        for i in (range.start..ilo).chain(ihi..range.end) {
            ctx.accumulate_row(i);
            if P && i < ilo {
                ctx.project_row(i);
            }
            if ctx.advance {
                for j in 0..order1 {
                    let mut dot = 0.0;
                    for (&o, diag) in offsets.iter().zip(data.chunks_exact(n)) {
                        if DiaMatrix::diag_rows(n, o).contains(&i) {
                            dot += diag[i] * u_cur[j * n + (i as isize + o) as usize];
                        }
                    }
                    // SAFETY: bodies write disjoint rows.
                    unsafe { *ctx.u_next.add(j * n + i) = combine(ctx, j, i, dot) };
                }
            }
        }
        // SAFETY: `ilo..ihi` lies in the DIA interior and inside this
        // body's rows; our caller guarantees the CPU supports `V`.
        unsafe {
            let rest = dia_interior::<V, P>(ctx, offsets, data, ilo, ihi);
            dia_groups::<f64, 0, 0, false>(ctx, offsets, data, rest, ihi);
            // A weighted pass projects the rows past the interior's whole
            // groups, then the upper edge, in ascending order.
            if P {
                (rest..range.end).for_each(|i| ctx.project_row(i));
            }
        }
        return;
    }
    let mut blo = range.start;
    while blo < range.end {
        let bhi = (blo + SIMD_BLOCK).min(range.end);
        let len = bhi - blo;
        for j in 0..order1 {
            let uj = &u_cur[j * n + blo..j * n + bhi];
            for &(ti, wk) in ctx.active {
                let base = (ti * order1 + j) * n + blo;
                // SAFETY: bodies write disjoint rows.
                let (sums, comps) = unsafe {
                    (
                        std::slice::from_raw_parts_mut(ctx.acc_sum.add(base), len),
                        std::slice::from_raw_parts_mut(ctx.acc_comp.add(base), len),
                    )
                };
                simd::accumulate_planes(sums, comps, uj, wk);
            }
            if P {
                // SAFETY: only this body touches its chunk's lanes; our
                // caller guarantees the CPU supports `V`.
                unsafe { simd::project_strip::<V>(ctx.lanes(j), blo, &ctx.pi[blo..bhi], uj) };
            }
        }
        if ctx.advance {
            match ctx.parts {
                MatrixParts::Csr(row_ptr, col_idx, values) => {
                    // Prefetch pays for itself only on gather-heavy
                    // rows: on narrow-band matrices stored as CSR (few,
                    // adjacent targets per row) the extra index
                    // traversal costs as much as the dot it hides.
                    let prefetch = row_ptr[n] >= CSR_PREFETCH_MIN_NNZ_PER_ROW * n;
                    for j in 0..order1 {
                        let uj = &u_cur[j * n..(j + 1) * n];
                        for i in blo..bhi {
                            let pf = i + CSR_PREFETCH_ROWS;
                            if prefetch && pf < bhi {
                                for k in row_ptr[pf]..row_ptr[pf + 1] {
                                    simd::prefetch_read(&uj[col_idx[k]]);
                                }
                            }
                            let mut dot = 0.0;
                            for k in row_ptr[i]..row_ptr[i + 1] {
                                dot += values[k] * uj[col_idx[k]];
                            }
                            let v = combine(ctx, j, i, dot);
                            // SAFETY: bodies write disjoint rows.
                            unsafe { *ctx.u_next.add(j * n + i) = v };
                        }
                    }
                }
                MatrixParts::Op(op) => {
                    // The operator's dots land in `u_next`, then `axpy`
                    // adds the `r'` and `½s'` terms in `combine`'s
                    // order.
                    for j in 0..order1 {
                        let uj = &u_cur[j * n..(j + 1) * n];
                        // SAFETY: bodies write disjoint rows.
                        let out = unsafe {
                            std::slice::from_raw_parts_mut(ctx.u_next.add(j * n + blo), len)
                        };
                        op.matvec_range(uj, out, blo..bhi);
                        if j >= 1 {
                            let w1 = &u_cur[(j - 1) * n + blo..(j - 1) * n + bhi];
                            simd::axpy(out, &ctx.r_prime[blo..bhi], w1);
                        }
                        if j >= 2 {
                            let w2 = &u_cur[(j - 2) * n + blo..(j - 2) * n + bhi];
                            simd::axpy(out, &ctx.s_half[blo..bhi], w2);
                        }
                    }
                }
                MatrixParts::Dia(..) => unreachable!("DIA rows returned above"),
            }
        }
        blo = bhi;
    }
}

/// Runs [`dia_groups`] over `lo..hi` specialized for the common shapes
/// (orders 0–3; three diagonals), returning the first row left over.
///
/// # Safety
///
/// As [`dia_groups`].
#[inline(always)]
unsafe fn dia_interior<V: Lanes, const P: bool>(
    ctx: &PassCtx,
    offsets: &[isize],
    data: &[f64],
    lo: usize,
    hi: usize,
) -> usize {
    match (ctx.order1, offsets.len()) {
        (1, 3) => dia_groups::<V, 1, 3, P>(ctx, offsets, data, lo, hi),
        (2, 3) => dia_groups::<V, 2, 3, P>(ctx, offsets, data, lo, hi),
        (3, 3) => dia_groups::<V, 3, 3, P>(ctx, offsets, data, lo, hi),
        (4, 3) => dia_groups::<V, 4, 3, P>(ctx, offsets, data, lo, hi),
        (1, _) => dia_groups::<V, 1, 0, P>(ctx, offsets, data, lo, hi),
        (2, _) => dia_groups::<V, 2, 0, P>(ctx, offsets, data, lo, hi),
        (3, _) => dia_groups::<V, 3, 0, P>(ctx, offsets, data, lo, hi),
        (4, _) => dia_groups::<V, 4, 0, P>(ctx, offsets, data, lo, hi),
        _ => dia_groups::<V, 0, 0, P>(ctx, offsets, data, lo, hi),
    }
}

/// The single-pass DIA interior: rows `lo..hi` in groups of `V::WIDTH`.
/// Each group loads its diagonals, `r'` and `½s'` once; computes per
/// order the dot `0 + d₀·x₀ + d₁·x₁ + …` over ascending offsets and the
/// combine `(dot + r'·w₁) + ½s'·w₂`, carrying the lower orders' `U`
/// values in registers; then, per active time point, the Neumaier
/// update of every order's accumulators — so each `U` row comes from
/// memory once per pass, and the per-time loop runs once per group
/// rather than once per order. `O1` (= order + 1) and `ND` (the diagonal
/// count) fix the loop bounds at compile time; 0 reads them from
/// `ctx`/`offsets`. With `P` (a weighted run) each group also adds
/// `π·U⁽ʲ⁾` of its rows into the projection lanes, which stay in
/// registers for orders below [`PROJ_REG_ORDERS`]. Returns the first row
/// not covered by a whole group.
///
/// # Safety
///
/// `lo..hi` must lie inside the DIA interior (every diagonal in band)
/// and inside the rows the calling body owns, and the CPU must support
/// `V`.
#[inline(always)]
unsafe fn dia_groups<V: Lanes, const O1: usize, const ND: usize, const P: bool>(
    ctx: &PassCtx,
    offsets: &[isize],
    data: &[f64],
    lo: usize,
    hi: usize,
) -> usize {
    let n = ctx.n;
    let order1 = if O1 > 0 { O1 } else { ctx.order1 };
    let nd = if ND > 0 { ND } else { offsets.len() };
    assert!(order1 == ctx.order1 && nd == offsets.len());
    assert!(lo >= hi || (ctx.interior.start <= lo && hi <= ctx.interior.end));
    let u = ctx.u_cur.as_ptr();
    let (rp, sh, dp) = (ctx.r_prime.as_ptr(), ctx.s_half.as_ptr(), data.as_ptr());
    // The projection registers of a weighted run, for the orders below
    // PROJ_REG_ORDERS when `V` fits the lanes; otherwise (higher orders,
    // the portable path) the lanes are added in memory.
    let in_regs = P && lanes_fit::<V>();
    let reg_orders = if in_regs {
        order1.min(PROJ_REG_ORDERS)
    } else {
        0
    };
    let mut proj = [V::splat(0.0); PROJ_REG_ORDERS];
    for (j, acc) in proj.iter_mut().enumerate().take(reg_orders) {
        *acc = load_lanes(ctx.lanes(j), lo);
    }
    // Order `j`'s projection `π·U⁽ʲ⁾` of the group at row `i`.
    macro_rules! project {
        ($j:expr, $i:expr, $pi:expr, $u:expr) => {
            if $j < reg_orders {
                proj[$j] = proj[$j].add($pi.mul($u));
            } else {
                project_in_memory(ctx, $j, $i, $pi, $u);
            }
        };
    }
    let mut i = lo;
    while i + V::WIDTH <= hi {
        // The three-diagonal shape keeps its coefficients in registers
        // for every order; other shapes re-load them (from L1).
        let coeffs: [V; ND] = std::array::from_fn(|d| V::load(dp.add(d * n + i)));
        let coeff = |d: usize| match coeffs.get(d) {
            Some(&c) => c,
            None => V::load(dp.add(d * n + i)),
        };
        let r = V::load(rp.add(i));
        let s = V::load(sh.add(i));
        let pi = if P {
            V::load(ctx.pi.as_ptr().add(i))
        } else {
            r
        };
        if ctx.advance {
            // Centre values of orders j−1 and j−2 (read only once set).
            let (mut w1, mut w2) = (r, r);
            for j in 0..order1 {
                let uj = u.add(j * n + i);
                let mut dot = V::splat(0.0);
                for d in 0..nd {
                    dot = dot.add(coeff(d).mul(V::load(uj.offset(offsets[d]))));
                }
                if j >= 1 {
                    dot = dot.add(r.mul(w1));
                }
                if j >= 2 {
                    dot = dot.add(s.mul(w2));
                }
                dot.store(ctx.u_next.add(j * n + i));
                w2 = w1;
                w1 = V::load(uj);
                if P {
                    project!(j, i, pi, w1);
                }
            }
        } else if P {
            for j in 0..order1 {
                project!(j, i, pi, V::load(u.add(j * n + i)));
            }
        }
        for &(ti, wk) in ctx.active {
            let w = V::splat(wk);
            let cell = ti * order1 * n + i;
            for j in 0..order1 {
                let at = cell + j * n;
                V::neumaier(
                    ctx.acc_sum.add(at),
                    ctx.acc_comp.add(at),
                    w.mul(V::load(u.add(j * n + i))),
                );
            }
        }
        i += V::WIDTH;
    }
    for (j, &acc) in proj.iter().enumerate().take(reg_orders) {
        store_lanes(acc, ctx.lanes(j), lo);
    }
    i
}

/// Adds order `j`'s projection `π·U⁽ʲ⁾` of the group at row `i` lane by
/// lane in memory — the same products and sums as the registers.
///
/// # Safety
///
/// As [`PassCtx::lanes`], and the CPU must support `V`.
#[inline(always)]
unsafe fn project_in_memory<V: Lanes>(ctx: &PassCtx, j: usize, i: usize, pi: V, u: V) {
    let mut terms = [0.0; PROJ_LANES];
    pi.mul(u).store(terms.as_mut_ptr());
    let lanes = ctx.lanes(j);
    for (l, &x) in terms.iter().take(V::WIDTH).enumerate() {
        lanes[(i + l) % PROJ_LANES] += x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Mat;
    use crate::dia::{DiaMatrix, MatrixFormat};
    use crate::operator::{KroneckerSum, OperatorMatrix};
    use crate::sparse::{CsrMatrix, TripletBuilder};
    use proptest::prelude::*;
    use somrm_num::sum::NeumaierSum;

    /// Straightforward single-threaded reference implementing the same
    /// recursion as the pre-fusion solver loop.
    struct Reference {
        u: Vec<Vec<f64>>,
        acc: Vec<Vec<Vec<NeumaierSum>>>,
    }

    impl Reference {
        fn new(n: usize, order: usize, n_times: usize, u0: &[f64]) -> Self {
            let mut u = vec![vec![0.0; n]; order + 1];
            u[0].copy_from_slice(u0);
            Reference {
                u,
                acc: vec![vec![vec![NeumaierSum::new(); n]; order + 1]; n_times],
            }
        }

        fn step(
            &mut self,
            m: &CsrMatrix<f64>,
            r_prime: &[f64],
            s_half: &[f64],
            active: &[(usize, f64)],
            advance: bool,
        ) {
            let n = m.rows();
            let order = self.u.len() - 1;
            for &(ti, wk) in active {
                for j in 0..=order {
                    for i in 0..n {
                        self.acc[ti][j][i].add(wk * self.u[j][i]);
                    }
                }
            }
            if !advance {
                return;
            }
            let mut scratch = vec![0.0; n];
            for j in (0..=order).rev() {
                m.matvec_into(&self.u[j], &mut scratch);
                if j >= 1 {
                    let (lo, hi) = self.u.split_at_mut(j);
                    let uj = &mut hi[0];
                    let ujm1 = &lo[j - 1];
                    if j >= 2 {
                        let ujm2 = &lo[j - 2];
                        for i in 0..n {
                            uj[i] = scratch[i] + r_prime[i] * ujm1[i] + s_half[i] * ujm2[i];
                        }
                    } else {
                        for i in 0..n {
                            uj[i] = scratch[i] + r_prime[i] * ujm1[i];
                        }
                    }
                } else {
                    self.u[0].copy_from_slice(&scratch);
                }
            }
        }
    }

    fn values(k: &FusedMomentKernel, ti: usize, j: usize) -> Vec<f64> {
        k.accumulated(ti, j).values().collect()
    }

    fn test_matrix(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, 4 * n);
        for i in 0..n {
            b.push(i, i, 0.4 + (i % 3) as f64 * 0.05);
            if i > 0 {
                b.push(i, i - 1, 0.2);
            }
            if i + 1 < n {
                b.push(i, i + 1, 0.3);
            }
            b.push(i, (i * 7 + 3) % n, 0.01);
        }
        b.build()
    }

    /// `m` in the given storage (DIA forced, whatever its band).
    fn stored(m: &CsrMatrix<f64>, format: MatrixFormat) -> IterationMatrix {
        match format {
            MatrixFormat::Csr => IterationMatrix::Csr(m.clone()),
            MatrixFormat::Dia => IterationMatrix::Dia(DiaMatrix::from_csr_forced(m).unwrap()),
            other => panic!("no {other} storage for a bare matrix"),
        }
    }

    /// A banded matrix (offsets `−band..=band`, with some in-band
    /// entries left out) or a scattered one (diagonal, ring and one far
    /// column per row) of `n` rows, its entries cycled from `vals`.
    fn prop_matrix(n: usize, band: usize, vals: &[f64]) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, (2 * band + 1).max(3) * n);
        let mut next = vals.iter().copied().cycle();
        for i in 0..n {
            if band == 0 {
                for j in [i, (i + 1) % n, (i * 7 + 3) % n] {
                    b.push(i, j, next.next().unwrap());
                }
            } else {
                let lo = i.saturating_sub(band);
                for j in lo..(i + band + 1).min(n) {
                    if j == i || (i + 2 * j) % 5 != 0 {
                        b.push(i, j, next.next().unwrap());
                    }
                }
            }
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The kernel owes the pre-fusion loop (`CsrMatrix::matvec_into`,
        /// then the combine) every bit of its accumulators and of its
        /// final iterate: banded (tridiagonal, so the specialized DIA
        /// shape, or pentadiagonal) and scattered matrices of 4–300 rows,
        /// so whole lane groups, remainder rows and DIA edge rows all
        /// run; orders 0–5; CSR and forced DIA; 1, 2 and 4 threads.
        /// `r'`, `½s'` and the iterates stay non-negative, as in the
        /// solver.
        #[test]
        fn fused_kernel_bitwise_matches_reference(
            n in 4usize..=300,
            band in 0usize..=2,
            vals in prop::collection::vec(0.01f64..0.5, 1..16),
            diag in prop::collection::vec(0.0f64..1.0, 1..16),
            order in 0usize..=5,
            dia in 0usize..2,
            threads_idx in 0usize..3,
            steps in 1usize..12,
        ) {
            let m = prop_matrix(n, band, &vals);
            let cycled = |scale: f64, shift: usize| -> Vec<f64> {
                (0..n).map(|i| scale * diag[(i + shift) % diag.len()]).collect()
            };
            let (r_prime, s_half, u0) = (cycled(1.0, 0), cycled(0.5, 1), cycled(2.0, 2));
            let format = [MatrixFormat::Csr, MatrixFormat::Dia][dia];
            let threads = [1usize, 2, 4][threads_idx];
            let im = stored(&m, format);
            let mut fused = FusedMomentKernel::new(&im, &r_prime, &s_half, order, 2, &u0, threads);
            let mut reference = Reference::new(n, order, 2, &u0);
            let active0 = [(0usize, 0.25f64), (1, 0.5)];
            let active1 = [(1usize, 0.125f64)];
            for k in 0..steps {
                let active: &[(usize, f64)] = if k % 2 == 0 { &active0 } else { &active1 };
                let advance = k + 1 < steps;
                fused.step(active, advance);
                reference.step(&m, &r_prime, &s_half, active, advance);
            }
            let what = format!("{format}, {threads} threads, order {order}");
            for ti in 0..2 {
                for j in 0..=order {
                    let r: Vec<f64> = reference.acc[ti][j].iter().map(|a| a.value()).collect();
                    assert_bits(&values(&fused, ti, j), &r, &format!("{what}, ti {ti}, j {j}"));
                }
            }
            assert_bits(fused.iterate(), &reference.u.concat(), &format!("{what}, iterate"));
        }
    }

    #[test]
    fn banded_dia_kernel_bitwise_matches_csr_kernel() {
        // Purely tridiagonal matrix — the auto-selected DIA case the
        // paper-scale model hits.
        let n = 129;
        let order = 2;
        let mut b = TripletBuilder::with_capacity(n, n, 3 * n);
        for i in 0..n {
            if i > 0 {
                b.push(i, i - 1, 0.2 + (i % 5) as f64 * 0.01);
            }
            b.push(i, i, 0.4);
            if i + 1 < n {
                b.push(i, i + 1, 0.35 - (i % 3) as f64 * 0.01);
            }
        }
        let m = b.build();
        let csr = IterationMatrix::Csr(m.clone());
        let dia = IterationMatrix::Dia(DiaMatrix::from_csr(&m).expect("tridiagonal is DIA"));
        let r_prime: Vec<f64> = (0..n).map(|i| (i % 7) as f64 / 10.0).collect();
        let s_half: Vec<f64> = (0..n).map(|i| (i % 3) as f64 / 20.0).collect();
        let u0 = vec![1.0; n];
        for threads in [1usize, 3, 8] {
            let mut a = FusedMomentKernel::new(&csr, &r_prime, &s_half, order, 1, &u0, threads);
            let mut d = FusedMomentKernel::new(&dia, &r_prime, &s_half, order, 1, &u0, threads);
            for k in 0..25 {
                let active = [(0usize, 0.5f64 / (k + 1) as f64)];
                a.step(&active, k < 24);
                d.step(&active, k < 24);
            }
            for j in 0..=order {
                assert_eq!(
                    values(&a, 0, j),
                    values(&d, 0, j),
                    "threads {threads}, j {j}"
                );
            }
        }
    }

    /// Runs 30 steps and returns every accumulated value, flattened.
    /// Mixed-sign `r'` makes some intermediates negative.
    fn run_kernel(im: &IterationMatrix, threads: usize) -> Vec<f64> {
        let n = im.rows();
        let order = 3;
        let r_prime: Vec<f64> = (0..n).map(|i| (i % 9) as f64 / 10.0 - 0.4).collect();
        let s_half: Vec<f64> = (0..n).map(|i| (i % 4) as f64 / 20.0).collect();
        let u0 = vec![1.0; n];
        let active0 = [(0usize, 0.25f64), (1, 0.5)];
        let active1 = [(1usize, 0.125f64)];
        let mut k = FusedMomentKernel::new(im, &r_prime, &s_half, order, 2, &u0, threads);
        for step in 0..30 {
            let active: &[(usize, f64)] = if step % 2 == 0 { &active0 } else { &active1 };
            k.step(active, step < 29);
        }
        let mut out = Vec::new();
        for ti in 0..2 {
            for j in 0..=order {
                out.extend(values(&k, ti, j));
            }
        }
        out
    }

    /// Fully-populated tridiagonal matrix (no structural zeros), the
    /// shape every storage shares with CSR bitwise for inputs of any
    /// sign.
    fn tridiag_matrix(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, 3 * n);
        for i in 0..n {
            if i > 0 {
                b.push(i, i - 1, 0.21 + (i % 5) as f64 * 0.01);
            }
            b.push(i, i, 0.4 + (i % 3) as f64 * 0.03);
            if i + 1 < n {
                b.push(i, i + 1, 0.33 - (i % 4) as f64 * 0.01);
            }
        }
        b.build()
    }

    fn assert_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what} diverged at {i}: {x} vs {y}"
            );
        }
    }

    /// Factor blocks with every off-diagonal rate positive.
    fn kron_factor(k: usize) -> Mat<f64> {
        Mat::from_fn(k, k, |r, c| {
            if r != c {
                0.25 + ((r + 2 * c) % 4) as f64 * 0.5
            } else {
                0.0
            }
        })
    }

    /// A 48-state Kronecker-sum operator and the uniformized CSR of its
    /// materialized generator, which the operator owes bit for bit.
    fn kronecker_pair() -> (IterationMatrix, IterationMatrix) {
        let rate = 20.0;
        let op =
            KroneckerSum::new(vec![kron_factor(4), kron_factor(3), kron_factor(4)], rate).unwrap();
        let n = op.rows();
        let mut b = TripletBuilder::with_capacity(n, n, 10 * n);
        let mut exit = vec![0.0; n];
        for (i, j, a) in op.generator_triplets() {
            b.push(i, j, a);
            exit[i] += a;
        }
        for (i, &e) in exit.iter().enumerate() {
            b.push(i, i, -e);
        }
        let csr = b
            .build()
            .scaled(1.0 / rate)
            .add_scaled_identity(1.0)
            .unwrap();
        (
            IterationMatrix::Csr(csr),
            IterationMatrix::Operator(OperatorMatrix::kronecker(op)),
        )
    }

    #[test]
    fn operator_kernel_bitwise_matches_csr_kernel() {
        let (csr, op) = kronecker_pair();
        let baseline = run_kernel(&csr, 1);
        for threads in [1usize, 2, 4, 8] {
            let got = run_kernel(&op, threads);
            assert_bits(&baseline, &got, &format!("operator x{threads}"));
        }
    }

    #[test]
    fn portable_lanes_match_the_dispatched_simd_body_bitwise() {
        // The one-row `f64` lanes are the pass body on CPUs without
        // AVX2; on CPUs with it they must still give the very bits of the
        // four-row lanes, for every specialized order and shape.
        let n = 37;
        for offsets in [&[-1isize, 0, 1][..], &[-2, -1, 0, 1, 2][..]] {
            let mut b = TripletBuilder::with_capacity(n, n, offsets.len() * n);
            for i in 0..n {
                for &o in offsets {
                    let j = i as isize + o;
                    if (0..n as isize).contains(&j) {
                        b.push(
                            i,
                            j as usize,
                            0.15 + ((i + 3 * j as usize) % 7) as f64 * 0.02,
                        );
                    }
                }
            }
            let dia = stored(&b.build(), MatrixFormat::Dia);
            let r_prime: Vec<f64> = (0..n).map(|i| (i % 9) as f64 / 10.0 - 0.4).collect();
            let s_half: Vec<f64> = (0..n).map(|i| (i % 4) as f64 / 20.0).collect();
            let u0: Vec<f64> = (0..n).map(|i| 1.0 - (i % 5) as f64 * 0.3).collect();
            for order in 0..=5 {
                let run = |portable: bool| {
                    let mut k = FusedMomentKernel::new(&dia, &r_prime, &s_half, order, 2, &u0, 1);
                    for step in 0..12 {
                        let active = [(0usize, 0.25 / (step + 1) as f64), (1, 0.125)];
                        let (pairs, ends) = (&active[..step % 3], [step % 3]);
                        if portable {
                            k.run_stretch_with(pairs, &ends, step < 11, |ctx, rows| {
                                // SAFETY: `f64` lanes run on every CPU.
                                unsafe { simd_rows_impl::<f64, false>(ctx, rows) }
                            });
                        } else {
                            k.run_stretch(pairs, &ends, step < 11);
                        }
                    }
                    kernel_state(&k, 2, order)
                };
                assert_bits(
                    &run(false),
                    &run(true),
                    &format!("{offsets:?} order {order}"),
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The schedule on its own: every step covers each row exactly
        /// once, every row reads (its own and `band` neighbours on each
        /// side) only values of the step it computes, in the buffer that
        /// step reads, and accumulates its steps in ascending order —
        /// simulated with version stamps in two buffers.
        #[test]
        fn wavefront_schedule_reads_only_current_values(
            n in 1usize..300,
            band in 0usize..9,
            block_rows in 8usize..65,
            steps in 1usize..20,
        ) {
            let wave = Wavefront::new(n, band, block_rows, steps);
            let mut version = [vec![0usize; n], vec![usize::MAX; n]];
            let mut last_step = vec![None::<usize>; n];
            let mut covered = vec![0usize; n * steps];
            for block in 0..wave.blocks() {
                for t in 0..steps {
                    for i in wave.rows(block, t) {
                        covered[t * n + i] += 1;
                        prop_assert_eq!(last_step[i], t.checked_sub(1), "row {} step {}", i, t);
                        last_step[i] = Some(t);
                        for r in i.saturating_sub(band)..(i + band + 1).min(n) {
                            prop_assert_eq!(
                                version[t % 2][r], t, "row {} reads {} at step {}", i, r, t
                            );
                        }
                        version[(t + 1) % 2][i] = t + 1;
                    }
                }
            }
            prop_assert!(covered.iter().all(|&c| c == 1), "each row once per step");
        }
    }

    /// The iteration matrices the schedule test runs: DIA with three and
    /// five diagonals, banded CSR, and a Kronecker sum whose band is too
    /// wide for a skewed sweep.
    fn schedule_matrices(n: usize) -> Vec<(&'static str, IterationMatrix)> {
        let banded = |offsets: &[isize]| {
            let mut b = TripletBuilder::with_capacity(n, n, offsets.len() * n);
            for i in 0..n {
                for &o in offsets {
                    let j = i as isize + o;
                    if (0..n as isize).contains(&j) {
                        b.push(
                            i,
                            j as usize,
                            0.2 + ((i * 7 + o.unsigned_abs()) % 11) as f64 * 0.01,
                        );
                    }
                }
            }
            b.build()
        };
        let tri = banded(&[-1, 0, 1]);
        let penta = banded(&[-2, -1, 0, 1, 2]);
        let wide = banded(&[-3, 0, 2]);
        let (_, kron) = kronecker_pair();
        assert_eq!(kron.rows(), 48);
        vec![
            ("dia3", stored(&tri, MatrixFormat::Dia)),
            ("dia5", stored(&penta, MatrixFormat::Dia)),
            ("csr", IterationMatrix::Csr(wide)),
            ("kron", kron),
        ]
    }

    /// Poisson-like windows of `n_times` time points over `g + 1` steps,
    /// overlapping only in part, so some steps accumulate nothing.
    fn window_weights(n_times: usize, g: usize) -> Vec<Vec<(usize, f64)>> {
        let windows = [(0usize, 9usize), (6, 21), (25, g)];
        (0..=g)
            .map(|k| {
                windows[..n_times]
                    .iter()
                    .enumerate()
                    .filter(|(_, &(lo, hi))| (lo..=hi).contains(&k))
                    .map(|(ti, _)| (ti, 1.0 / (k + ti + 2) as f64))
                    .collect()
            })
            .collect()
    }

    /// Everything a kernel computed, for bitwise comparison.
    fn kernel_state(k: &FusedMomentKernel, n_times: usize, order: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for ti in 0..n_times {
            for j in 0..=order {
                let acc = k.accumulated(ti, j);
                out.extend(acc.sums.iter().chain(acc.comps));
            }
        }
        for j in 0..=order {
            out.extend(k.u_order(j));
        }
        out
    }

    #[test]
    fn stretch_runs_are_bitwise_identical_to_pass_by_pass_runs() {
        let g = 40;
        let mut case = 0usize;
        for (name, matrix) in schedule_matrices(150) {
            let n = matrix.rows();
            let r_prime: Vec<f64> = (0..n).map(|i| (i % 9) as f64 / 10.0).collect();
            let s_half: Vec<f64> = (0..n).map(|i| (i % 4) as f64 / 20.0).collect();
            let u0: Vec<f64> = (0..n).map(|i| 1.0 - (i % 3) as f64 * 0.25).collect();
            for order in 0..=5 {
                case += 1;
                let n_times = 1 + case % 3;
                let block_rows = [8usize, 13, 32, 64][case % 4];
                let depth = [2usize, 5, 16, 64][(case / 4) % 4];
                let weights = window_weights(n_times, g);
                let what = format!(
                    "{name} order {order}, {n_times} times, \
                     {block_rows}-row blocks, depth {depth}"
                );

                let mut by_pass =
                    FusedMomentKernel::new(&matrix, &r_prime, &s_half, order, n_times, &u0, 1);
                for (k, active) in weights.iter().enumerate() {
                    by_pass.step(active, k < g);
                }

                let mut skewed =
                    FusedMomentKernel::new(&matrix, &r_prime, &s_half, order, n_times, &u0, 1);
                skewed.set_block_rows(block_rows);
                if name == "kron" {
                    assert_eq!(skewed.depth, 1, "Kronecker band is too wide to skew");
                } else {
                    skewed.depth = depth;
                }
                let mut steps = StepWeights::new();
                let mut k0 = 0;
                for len in [1usize, 7, 3, 19].iter().cycle() {
                    let k1 = (k0 + len - 1).min(g);
                    steps.clear();
                    for active in &weights[k0..=k1] {
                        steps.push_step(active.iter().copied());
                    }
                    skewed.run(&steps, k1 < g);
                    k0 = k1 + 1;
                    if k0 > g {
                        break;
                    }
                }
                assert_bits(
                    &kernel_state(&by_pass, n_times, order),
                    &kernel_state(&skewed, n_times, order),
                    &what,
                );
            }
        }
    }

    /// Runs a weighted kernel from `u0` over steps `0..=g`, in
    /// stretches of the given lengths (cycled), and returns every step's
    /// `aⱼ(k)` followed by the final iterate.
    #[allow(clippy::too_many_arguments)]
    fn weighted_run(
        matrix: &IterationMatrix,
        r_prime: &[f64],
        s_half: &[f64],
        pi: &[f64],
        order: usize,
        u0: &[f64],
        g: usize,
        threads: usize,
        schedule: Option<(usize, usize)>,
        lens: &[usize],
    ) -> Vec<f64> {
        let mut k = FusedMomentKernel::new(matrix, r_prime, s_half, order, 0, u0, threads);
        k.set_projection(pi);
        if let Some((block_rows, depth)) = schedule {
            k.set_block_rows(block_rows);
            if k.band * depth <= block_rows {
                k.depth = depth;
            }
        }
        let mut out = Vec::new();
        let mut steps = StepWeights::new();
        let mut k0 = 0;
        for len in lens.iter().cycle() {
            let k1 = (k0 + len - 1).min(g);
            steps.clear();
            for _ in k0..=k1 {
                steps.push_step(std::iter::empty());
            }
            k.run(&steps, k1 < g);
            assert_eq!(k.projected().len(), (k1 - k0 + 1) * (order + 1));
            out.extend_from_slice(k.projected());
            k0 = k1 + 1;
            if k0 > g {
                break;
            }
        }
        out.extend_from_slice(k.iterate());
        out
    }

    #[test]
    fn weighted_runs_project_bitwise_across_schedules_and_backends() {
        let g = 40;
        let mut case = 0usize;
        for (name, matrix) in schedule_matrices(150) {
            let n = matrix.rows();
            let r_prime: Vec<f64> = (0..n).map(|i| (i % 9) as f64 / 10.0).collect();
            let s_half: Vec<f64> = (0..n).map(|i| (i % 4) as f64 / 20.0).collect();
            let u0 = vec![1.0; n];
            let pi: Vec<f64> = (0..n)
                .map(|i| (1 + i % 7) as f64 / (4 * n) as f64)
                .collect();
            for order in 0..=5 {
                case += 1;
                let what = format!("{name} order {order}");
                let run = |schedule, lens: &[usize]| {
                    weighted_run(
                        &matrix, &r_prime, &s_half, &pi, order, &u0, g, 1, schedule, lens,
                    )
                };
                let by_pass = run(None, &[1]);
                let schedule = Some(([8usize, 13, 32, 64][case % 4], [2, 5, 16, 64][case / 4 % 4]));
                let skewed = run(schedule, &[1, 7, 3, 19]);
                assert_bits(&by_pass, &skewed, &what);

                // Against πᵀU read off an accumulating kernel's
                // iterates: rounding only.
                let mut plain =
                    FusedMomentKernel::new(&matrix, &r_prime, &s_half, order, 0, &u0, 1);
                for k in 0..=g {
                    for j in 0..=order {
                        let want: f64 = plain.u_order(j).iter().zip(&pi).map(|(u, p)| u * p).sum();
                        let got = by_pass[k * (order + 1) + j];
                        assert!(
                            (got - want).abs() <= 1e-13 * want.abs(),
                            "{what} k {k} j {j}: {got} vs {want}"
                        );
                    }
                    plain.step(&[], k < g);
                }

                // A pool sums its chunks' lanes in chunk order: within
                // rounding of the serial run, its iterate bitwise.
                let pooled = weighted_run(
                    &matrix,
                    &r_prime,
                    &s_half,
                    &pi,
                    order,
                    &u0,
                    g,
                    3,
                    None,
                    &[1],
                );
                let split = (g + 1) * (order + 1);
                assert_bits(&by_pass[split..], &pooled[split..], &what);
                for (a, b) in by_pass[..split].iter().zip(&pooled[..split]) {
                    assert!(
                        (a - b).abs() <= 1e-13 * a.abs(),
                        "{what} pooled: {a} vs {b}"
                    );
                }
            }
        }
        // One matrix in two backends projects the same bits: a
        // tridiagonal one as CSR and DIA, a Kronecker sum as CSR and
        // operator.
        let m = tridiag_matrix(131);
        let pairs = [
            (
                "dia",
                stored(&m, MatrixFormat::Csr),
                stored(&m, MatrixFormat::Dia),
            ),
            ("operator", kronecker_pair().0, kronecker_pair().1),
        ];
        for (name, csr, other) in &pairs {
            let n = csr.rows();
            let r_prime: Vec<f64> = (0..n).map(|i| (i % 9) as f64 / 10.0).collect();
            let s_half: Vec<f64> = (0..n).map(|i| (i % 4) as f64 / 20.0).collect();
            let pi = vec![1.0 / n as f64; n];
            let run = |im| {
                weighted_run(
                    im,
                    &r_prime,
                    &s_half,
                    &pi,
                    3,
                    &vec![1.0; n],
                    g,
                    1,
                    Some((32, 8)),
                    &[5, 64],
                )
            };
            assert_bits(&run(csr), &run(other), &format!("csr vs {name}"));
        }
    }

    #[test]
    fn order_zero_and_empty_active_work() {
        let n = 16;
        let m = test_matrix(n);
        let im = IterationMatrix::Csr(m.clone());
        let zeros = vec![0.0; n];
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(&im, &zeros, &zeros, 0, 1, &u0, 2);
        k.step(&[], true); // pure advance, no accumulation
        k.step(&[(0, 1.0)], false);
        let mut expect = vec![0.0; n];
        m.matvec_into(&u0, &mut expect);
        assert_eq!(values(&k, 0, 0), expect);
    }

    #[test]
    fn recorder_counts_passes_and_pool_stats_surface() {
        use somrm_obs::MetricsRegistry;
        use std::sync::Arc;

        let n = 64;
        let im = IterationMatrix::Csr(test_matrix(n));
        let zeros = vec![0.0; n];
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(&im, &zeros, &zeros, 1, 1, &u0, 2);
        let registry = Arc::new(MetricsRegistry::new());
        k.set_recorder(RecorderHandle::new(registry.clone()));
        for _ in 0..5 {
            k.step(&[(0, 0.1)], true);
        }
        let mut steps = StepWeights::new();
        for _ in 0..4 {
            steps.push_step([(0, 0.1)]);
        }
        k.run(&steps, true);
        let snap = registry.snapshot();
        // One span per stretch, one count per step.
        assert_eq!(snap.counter("kernel.passes"), Some(9));
        assert_eq!(snap.timing("kernel.pass").unwrap().count, 6);
        let stats = k.pool_stats().expect("2-chunk kernel runs a pool");
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.epochs, 9);

        let serial = FusedMomentKernel::new(&im, &zeros, &zeros, 1, 1, &u0, 1);
        assert!(serial.pool_stats().is_none());
    }

    #[test]
    fn chunk_timeline_events_come_once_per_stretch_from_each_worker_lane() {
        use somrm_obs::ChromeTraceRecorder;
        use std::sync::Arc;

        let n = 64;
        let im = IterationMatrix::Csr(test_matrix(n));
        let zeros = vec![0.0; n];
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(&im, &zeros, &zeros, 1, 1, &u0, 2);
        let chrome = Arc::new(ChromeTraceRecorder::new());
        k.set_recorder(RecorderHandle::new(chrome.clone()));
        for _ in 0..3 {
            k.step(&[(0, 0.1)], true);
        }
        let mut steps = StepWeights::new();
        for _ in 0..5 {
            steps.push_step([(0, 0.1)]);
        }
        k.run(&steps, false);
        // 4 stretches × 2 lanes + 4 kernel.pass spans.
        let v = somrm_obs::json::parse(&chrome.to_json()).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let named = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("name").unwrap().as_str() == Some(name))
                .collect::<Vec<_>>()
        };
        let chunk_tids: Vec<f64> = named("kernel.chunk")
            .iter()
            .map(|e| e.get("tid").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(chunk_tids.len(), 8);
        let distinct: std::collections::BTreeSet<u64> =
            chunk_tids.iter().map(|&t| t as u64).collect();
        assert_eq!(
            distinct.len(),
            2,
            "one lane per chunk owner: {chunk_tids:?}"
        );
        assert_eq!(named("kernel.pass").len(), 4);
    }

    #[test]
    fn u_order_exposes_the_current_iterate() {
        let n = 16;
        let m = test_matrix(n);
        let im = IterationMatrix::Csr(m.clone());
        let zeros = vec![0.0; n];
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(&im, &zeros, &zeros, 0, 1, &u0, 1);
        assert_eq!(k.u_order(0), &u0[..]);
        k.step(&[], true);
        let mut expect = vec![0.0; n];
        m.matvec_into(&u0, &mut expect);
        assert_eq!(k.u_order(0), &expect[..]);
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let n = 3;
        let m = test_matrix(n);
        let im = IterationMatrix::Csr(m.clone());
        let zeros = vec![0.0; n];
        let u0 = vec![1.0; n];
        let mut k = FusedMomentKernel::new(&im, &zeros, &zeros, 1, 1, &u0, 64);
        assert!(k.threads() <= n);
        k.step(&[(0, 1.0)], true);
        k.step(&[(0, 0.5)], false);
        let got = values(&k, 0, 0);
        let mut au0 = vec![0.0; n];
        m.matvec_into(&u0, &mut au0);
        for i in 0..n {
            assert_eq!(got[i], 1.0 * u0[i] + 0.5 * au0[i]);
        }
    }
}
