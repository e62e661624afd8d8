//! Diagonal (DIA) sparse storage for banded matrices.
//!
//! The paper's headline model — the 200,001-state ON-OFF multiplexer —
//! has a birth–death generator, so the uniformized `Q'` is tridiagonal.
//! CSR spends its inner loop chasing `col_idx` through memory; for a
//! matrix whose entries live on a handful of diagonals, storing each
//! diagonal contiguously gives a branch-free, unit-stride kernel: for
//! every stored diagonal `o`, `y[i] += diag[i] · x[i + o]` over the rows
//! where the diagonal is in bounds. No index array, no per-entry branch,
//! and both streams advance by one element per step.
//!
//! ## Bit-identity with the CSR kernel
//!
//! [`DiaMatrix::matvec_into`] produces the same floating-point results
//! as [`CsrMatrix::matvec_into`] on the same matrix:
//!
//! * [`TripletBuilder`](crate::sparse::TripletBuilder) sorts entries by
//!   `(row, col)`, so the CSR row dot accumulates in ascending column
//!   order. The DIA kernel visits diagonals in ascending offset order,
//!   which for any fixed row is the *same* ascending column order, with
//!   the same left-associated `acc + v·x` chain (`y[i]` starts at `0.0`
//!   and takes one `+=` per diagonal).
//! * Positions padded with `+0.0` (rows where a stored diagonal has no
//!   structural entry) contribute `+0.0 · x` terms. All solver matrices
//!   (`Q'`, and the `U` iterates they multiply) are non-negative, where
//!   `acc + 0.0·x` is bitwise the identity; for general signed data the
//!   only possible difference is the sign of an exact zero (`-0.0` vs
//!   `+0.0`), which `==` cannot observe.
//!
//! [`IterationMatrix`] is the dispatch point the solvers iterate over.
//! [`IterationMatrix::uniformized`] builds it once per solve straight
//! from the generator's rows: DIA strips when the diagonal count makes
//! them profitable ([`MatrixFormat::Auto`]), CSR otherwise, or either
//! format forced for benchmarks and tests.

use crate::error::LinalgError;
use crate::operator::OperatorMatrix;
use crate::sparse::CsrMatrix;

/// Hard cap on the padded storage a **forced** DIA conversion may
/// allocate (2 GiB of `f64` strips). The `Auto` profitability gate
/// normally keeps DIA within a small factor of the CSR payload, but a
/// forced `--format dia` on a scattered matrix pads every populated
/// diagonal to full length — up to `(2n−1)·n` doubles — which can dwarf
/// the machine before the allocator ever gets to refuse politely.
/// [`IterationMatrix::uniformized`] estimates the allocation up front
/// and returns [`LinalgError::AllocationTooLarge`] instead.
pub const FORCED_DIA_MAX_BYTES: u64 = 1 << 31;

/// A sparse matrix stored by diagonals (DIA format).
///
/// Entry `A[i][j]` with `j - i = offsets[d]` lives at `data[d·n + i]`;
/// positions where a stored diagonal has no structural entry hold `+0.0`.
/// Offsets are strictly ascending.
///
/// # Example
///
/// ```
/// use somrm_linalg::{DiaMatrix, TripletBuilder};
///
/// let mut b = TripletBuilder::new(3, 3);
/// b.push(0, 0, 2.0);
/// b.push(1, 1, 2.0);
/// b.push(2, 2, 2.0);
/// b.push(0, 1, 1.0);
/// b.push(1, 2, 1.0);
/// let csr = b.build();
/// let dia = DiaMatrix::from_csr(&csr).expect("bidiagonal is DIA-friendly");
/// assert_eq!(dia.bandwidth(), 1);
/// assert_eq!(dia.offsets(), &[0, 1]);
/// let mut y = vec![0.0; 3];
/// dia.matvec_into(&[1.0, 10.0, 100.0], &mut y);
/// assert_eq!(y, vec![12.0, 120.0, 200.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiaMatrix {
    n: usize,
    /// Strictly ascending diagonal offsets (`col - row`).
    offsets: Vec<isize>,
    /// Flattened diagonals: `data[d·n + i] = A[i][i + offsets[d]]`.
    data: Vec<f64>,
    /// Structural non-zeros of the source rows (for reporting).
    nnz: usize,
}

/// A square matrix read row by row: [`Rows::row`] emits row `i`'s
/// stored entries `(col, value)` in ascending column order.
trait Rows {
    fn n(&self) -> usize;
    fn row(&self, i: usize, emit: impl FnMut(usize, f64));
}

impl Rows for CsrMatrix<f64> {
    fn n(&self) -> usize {
        self.rows()
    }

    #[inline]
    fn row(&self, i: usize, mut emit: impl FnMut(usize, f64)) {
        for (j, v) in CsrMatrix::row(self, i) {
            emit(j, v);
        }
    }
}

/// The rows of `Q' = Q·(1/q) + I` read off the generator `Q`, entry for
/// entry what `Q.scaled(1/q).add_scaled_identity(1.0)` stores: an
/// off-diagonal `v·(1/q)`, kept only when non-zero (the triplet
/// rebuild drops pushed zeros), and a diagonal that is always stored —
/// `v·(1/q) + 1.0` where that product is non-zero, `1.0` otherwise.
struct Uniformized<'a> {
    q: &'a CsrMatrix<f64>,
    inv: f64,
}

impl Rows for Uniformized<'_> {
    fn n(&self) -> usize {
        self.q.rows()
    }

    #[inline]
    fn row(&self, i: usize, mut emit: impl FnMut(usize, f64)) {
        let mut diag = Some(1.0);
        for (j, v) in self.q.row(i) {
            let s = v * self.inv;
            if j == i {
                if s != 0.0 {
                    diag = Some(s + 1.0);
                }
                continue;
            }
            if j > i {
                if let Some(d) = diag.take() {
                    emit(i, d);
                }
            }
            if s != 0.0 {
                emit(j, s);
            }
        }
        if let Some(d) = diag {
            emit(i, d);
        }
    }
}

impl DiaMatrix {
    /// Converts a square CSR matrix to DIA **if the format is profitable**:
    /// the number of distinct diagonals must satisfy
    /// `ndiag · n ≤ 4 · nnz + 64`, i.e. the padded diagonal storage may
    /// exceed the CSR payload by at most a small constant factor.
    /// Returns `None` for non-square matrices or when too many diagonals
    /// are populated (a scattered matrix would explode to `O(n²)` here).
    pub fn from_csr(csr: &CsrMatrix<f64>) -> Option<DiaMatrix> {
        if csr.rows() != csr.cols() {
            return None;
        }
        Self::from_rows(csr, false).ok().flatten()
    }

    /// Converts any square CSR matrix to DIA, regardless of how many
    /// diagonals are populated (benchmarks and format-forcing only —
    /// a scattered matrix stores up to `2n − 1` full diagonals).
    ///
    /// Returns `None` for non-square matrices and past
    /// [`FORCED_DIA_MAX_BYTES`].
    pub fn from_csr_forced(csr: &CsrMatrix<f64>) -> Option<DiaMatrix> {
        if csr.rows() != csr.cols() {
            return None;
        }
        Self::from_rows(csr, true).ok().flatten()
    }

    /// Strips of `rows`, or `Ok(None)` where `Auto`'s profitability gate
    /// (`!forced`) turns DIA down. Forced strips past
    /// [`FORCED_DIA_MAX_BYTES`] are refused before anything is
    /// allocated; a second pass over the rows writes the entries.
    fn from_rows(rows: &impl Rows, forced: bool) -> Result<Option<DiaMatrix>, LinalgError> {
        let n = rows.n();
        let (offsets, nnz) = offsets_and_nnz(rows);
        if !forced && offsets.len().saturating_mul(n) > 4 * nnz + 64 {
            return Ok(None);
        }
        let estimated_bytes = (offsets.len() as u64)
            .saturating_mul(n as u64)
            .saturating_mul(std::mem::size_of::<f64>() as u64);
        if forced && estimated_bytes > FORCED_DIA_MAX_BYTES {
            return Err(LinalgError::AllocationTooLarge {
                what: "forced DIA storage",
                estimated_bytes,
                cap_bytes: FORCED_DIA_MAX_BYTES,
            });
        }
        let mut data = vec![0.0f64; offsets.len() * n];
        for i in 0..n {
            rows.row(i, |j, v| {
                let d = offsets
                    .binary_search(&(j as isize - i as isize))
                    .expect("offset collected above");
                data[d * n + i] = v;
            });
        }
        Ok(Some(DiaMatrix {
            n,
            offsets,
            data,
            nnz,
        }))
    }

    /// Matrix dimension (the matrix is square by construction).
    pub fn rows(&self) -> usize {
        self.n
    }

    /// The stored diagonal offsets, strictly ascending.
    pub fn offsets(&self) -> &[isize] {
        &self.offsets
    }

    /// The flattened diagonal data (`data[d·n + i]`).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Structural non-zeros of the rows this was built from.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Maximum `|offset|` over the stored diagonals (0 for diagonal or
    /// empty matrices). A birth–death generator reports 1.
    pub fn bandwidth(&self) -> usize {
        self.offsets
            .iter()
            .map(|&o| o.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// The row range `lo..hi` where diagonal offset `o` is in bounds.
    #[inline]
    pub(crate) fn diag_rows(n: usize, o: isize) -> std::ops::Range<usize> {
        let hi = (n as isize - o.max(0)).max(0) as usize;
        let lo = ((-o).max(0) as usize).min(hi);
        lo..hi
    }

    /// Computes `y = A·x`: one branch-free, unit-stride pass per stored
    /// diagonal, bit-identical to the CSR kernel (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the matrix dimension.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "matvec: x length mismatch");
        assert_eq!(y.len(), self.n, "matvec: y length mismatch");
        y.fill(0.0);
        for (d, &o) in self.offsets.iter().enumerate() {
            let diag = &self.data[d * self.n..(d + 1) * self.n];
            for i in Self::diag_rows(self.n, o) {
                y[i] += diag[i] * x[(i as isize + o) as usize];
            }
        }
    }

    /// `A·x` as a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the matrix dimension.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec_into(x, &mut y);
        y
    }
}

/// The distinct `col − row` offsets of `rows`, ascending, and their
/// entry count. One pass marks a `2n − 1` occupancy bitmap indexed by
/// `offset + (n − 1)`, and one scan of it emits the offsets already
/// sorted: `O(nnz + n)` whatever the diagonal count.
fn offsets_and_nnz(rows: &impl Rows) -> (Vec<isize>, usize) {
    let n = rows.n();
    let mut seen = vec![false; (2 * n).saturating_sub(1)];
    let mut nnz = 0usize;
    for i in 0..n {
        rows.row(i, |j, _| {
            seen[j + (n - 1) - i] = true;
            nnz += 1;
        });
    }
    let offsets = seen
        .iter()
        .enumerate()
        .filter(|&(_, &present)| present)
        .map(|(slot, _)| slot as isize - (n as isize - 1))
        .collect();
    (offsets, nnz)
}

/// Which storage the solver's iteration matrix should use.
///
/// `Auto` (the default) stores DIA strips when the bandwidth detector
/// accepts the matrix and CSR otherwise; `Csr`/`Dia` force the format
/// (DIA on a scattered matrix stores every populated diagonal in full —
/// benchmarks only); `Operator` asks for the matrix-free backend, which
/// only a Kronecker-structured model can supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixFormat {
    /// Pick per matrix: DIA when profitable, CSR otherwise.
    #[default]
    Auto,
    /// Always CSR.
    Csr,
    /// Always DIA (padded to every populated diagonal).
    Dia,
    /// Matrix-free operator (`crate::operator`): entries computed on
    /// the fly from model structure, never materialized.
    Operator,
}

impl std::fmt::Display for MatrixFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MatrixFormat::Auto => "auto",
            MatrixFormat::Csr => "csr",
            MatrixFormat::Dia => "dia",
            MatrixFormat::Operator => "operator",
        })
    }
}

impl std::str::FromStr for MatrixFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(MatrixFormat::Auto),
            "csr" => Ok(MatrixFormat::Csr),
            "dia" => Ok(MatrixFormat::Dia),
            "operator" | "op" => Ok(MatrixFormat::Operator),
            other => Err(format!(
                "unknown matrix format '{other}' (auto|csr|dia|operator)"
            )),
        }
    }
}

/// The matrix a solver iterates with, in whichever storage was selected
/// at solve setup. [`FusedMomentKernel`](crate::fused::FusedMomentKernel)
/// and the serial solver loops dispatch over this enum once per pass;
/// every variant produces bit-identical mat-vec results (module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum IterationMatrix {
    /// Generic compressed-sparse-row storage.
    Csr(CsrMatrix<f64>),
    /// Diagonal storage for banded matrices.
    Dia(DiaMatrix),
    /// Matrix-free operator computed from model structure.
    Operator(OperatorMatrix),
}

impl IterationMatrix {
    /// The uniformized matrix `Q' = Q·(1/rate) + I` of the generator
    /// `q` (`rate > 0`), written straight from `q`'s rows in the storage
    /// `format` selects. Every storage holds the entries
    /// `Generator::uniformized_kernel` would — `v·(1/rate)` off the
    /// diagonal, kept where non-zero, and `v·(1/rate) + 1.0` (`1.0`
    /// where `q` stores no diagonal) on it — so each solves bit for bit
    /// like that CSR, and DIA's `nnz` counts its entries:
    ///
    /// * `Auto` stores DIA strips when [`DiaMatrix::from_csr`]'s
    ///   profitability gate on nnz(Q′) accepts them, CSR otherwise;
    /// * `Dia` forces the strips, refusing with
    ///   [`LinalgError::AllocationTooLarge`] before allocating past
    ///   [`FORCED_DIA_MAX_BYTES`];
    /// * `Csr` forces CSR, the only storage that materializes `Q'` in
    ///   that form;
    /// * `Operator` is refused with [`LinalgError::FormatUnsupported`]:
    ///   the matrix-free backend is built from a model's Kronecker
    ///   structure ([`OperatorMatrix::from_structure`]), not from `q`.
    ///
    /// # Errors
    ///
    /// The two above, and [`LinalgError::DimensionMismatch`] if `q` is
    /// not square.
    pub fn uniformized(
        q: &CsrMatrix<f64>,
        rate: f64,
        format: MatrixFormat,
    ) -> Result<IterationMatrix, LinalgError> {
        let n = q.rows();
        if q.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "uniformized",
                lhs: (n, q.cols()),
                rhs: (n, n),
            });
        }
        let rows = Uniformized { q, inv: 1.0 / rate };
        let dia = match format {
            MatrixFormat::Auto => DiaMatrix::from_rows(&rows, false)?,
            MatrixFormat::Dia => DiaMatrix::from_rows(&rows, true)?,
            MatrixFormat::Csr => None,
            MatrixFormat::Operator => {
                return Err(LinalgError::FormatUnsupported {
                    format: "operator",
                    reason: "the matrix-free operator is built from a model's Kronecker \
                             structure, not from its generator matrix"
                        .to_string(),
                })
            }
        };
        Ok(match dia {
            Some(d) => IterationMatrix::Dia(d),
            None => {
                let mut row_ptr = Vec::with_capacity(n + 1);
                let mut col_idx = Vec::with_capacity(q.nnz() + n);
                let mut values = Vec::with_capacity(q.nnz() + n);
                row_ptr.push(0);
                for i in 0..n {
                    rows.row(i, |j, v| {
                        col_idx.push(j);
                        values.push(v);
                    });
                    row_ptr.push(col_idx.len());
                }
                IterationMatrix::Csr(CsrMatrix::from_sorted_parts(n, n, row_ptr, col_idx, values))
            }
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            IterationMatrix::Csr(m) => m.rows(),
            IterationMatrix::Dia(m) => m.rows(),
            IterationMatrix::Operator(m) => m.rows(),
        }
    }

    /// Number of columns (square for the DIA and operator variants by
    /// construction).
    pub fn cols(&self) -> usize {
        match self {
            IterationMatrix::Csr(m) => m.cols(),
            IterationMatrix::Dia(m) => m.rows(),
            IterationMatrix::Operator(m) => m.rows(),
        }
    }

    /// `true` if the DIA storage was selected.
    pub fn is_dia(&self) -> bool {
        matches!(self, IterationMatrix::Dia(_))
    }

    /// The selected format as a report-friendly name.
    pub fn format_name(&self) -> &'static str {
        match self {
            IterationMatrix::Csr(_) => "csr",
            IterationMatrix::Dia(_) => "dia",
            IterationMatrix::Operator(_) => "operator",
        }
    }

    /// Maximum `|col − row|` over the stored entries (an `O(nnz)` scan
    /// for the CSR variant; precomputed for DIA).
    pub fn bandwidth(&self) -> usize {
        match self {
            IterationMatrix::Csr(m) => {
                let (row_ptr, col_idx, _) = m.csr_parts();
                let mut bw = 0usize;
                for i in 0..m.rows() {
                    for k in row_ptr[i]..row_ptr[i + 1] {
                        bw = bw.max(col_idx[k].abs_diff(i));
                    }
                }
                bw
            }
            IterationMatrix::Dia(m) => m.bandwidth(),
            IterationMatrix::Operator(m) => m.bandwidth(),
        }
    }

    /// Computes `y = A·x` with the selected kernel.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the matrix shape.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        match self {
            IterationMatrix::Csr(m) => m.matvec_into(x, y),
            IterationMatrix::Dia(m) => m.matvec_into(x, y),
            IterationMatrix::Operator(m) => m.matvec_into(x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    fn tridiag(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, 3 * n);
        for i in 0..n {
            if i > 0 {
                b.push(i, i - 1, 0.2 + (i % 5) as f64 * 0.03);
            }
            b.push(i, i, 0.4 + (i % 3) as f64 * 0.05);
            if i + 1 < n {
                b.push(i, i + 1, 0.3 - (i % 4) as f64 * 0.02);
            }
        }
        b.build()
    }

    fn ring(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, 2 * n);
        for i in 0..n {
            b.push(i, i, 0.5);
            b.push(i, (i + 1) % n, 0.5);
        }
        b.build()
    }

    fn scattered(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, 2 * n);
        for i in 0..n {
            b.push(i, i, 1.0);
            b.push(i, (i * 7 + 3) % n, 0.01);
        }
        b.build()
    }

    /// A generator (rows sum to zero) with the given off-diagonal
    /// `(row, col, rate)` entries; rows without any keep no diagonal.
    fn generator(n: usize, rates: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::with_capacity(n, n, rates.len() + n);
        let mut exit = vec![0.0; n];
        for &(i, j, r) in rates {
            b.push(i, j, r);
            exit[i] += r;
        }
        for (i, &e) in exit.iter().enumerate() {
            b.push(i, i, -e);
        }
        b.build()
    }

    /// Generator shapes with every corner of the entry rule: a
    /// birth–death chain with absorbing ends (no stored diagonal), a
    /// wrap-around jump, a rate whose scaled value underflows to zero,
    /// a row whose scaled diagonal is exactly −1, and a scattered chain.
    fn generators() -> Vec<(CsrMatrix<f64>, f64)> {
        let n = 40;
        let mut bd: Vec<(usize, usize, f64)> = Vec::new();
        for i in 1..n - 2 {
            bd.push((i, i + 1, 1.0 + (i % 4) as f64 * 0.5));
            bd.push((i + 1, i, 0.75 + (i % 3) as f64));
        }
        let mut wrap = bd.clone();
        wrap.push((n - 1, 0, 2.5));
        let tiny = vec![(0, 1, 1e-310), (1, 0, 3.0), (1, 2, 1.0)];
        let scattered: Vec<_> = (0..300).map(|i| (i, (i * 7 + 3) % 300, 0.25)).collect();
        vec![
            (generator(n, &bd), 9.0),
            (generator(n, &wrap), 6.0),
            (generator(3, &tiny), 1e20),
            (generator(3, &tiny), 4.0),
            (generator(300, &scattered), 0.5),
        ]
    }

    fn test_vector(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 29) % 13) as f64 / 7.0 - 0.8).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn generator_strips_equal_the_uniformized_csr_bit_for_bit() {
        for (q, rate) in generators() {
            let csr = q.scaled(1.0 / rate).add_scaled_identity(1.0).unwrap();
            let want = DiaMatrix::from_csr_forced(&csr).unwrap();
            let IterationMatrix::Dia(got) =
                IterationMatrix::uniformized(&q, rate, MatrixFormat::Dia).unwrap()
            else {
                panic!("forced DIA");
            };
            assert_eq!(got.offsets(), want.offsets(), "rate {rate}");
            assert_eq!(bits(got.data()), bits(want.data()), "rate {rate}");
            assert_eq!(got.nnz(), want.nnz(), "rate {rate}");
            let auto = IterationMatrix::uniformized(&q, rate, MatrixFormat::Auto).unwrap();
            assert_eq!(
                auto.is_dia(),
                DiaMatrix::from_csr(&csr).is_some(),
                "rate {rate}"
            );
            let IterationMatrix::Csr(got) =
                IterationMatrix::uniformized(&q, rate, MatrixFormat::Csr).unwrap()
            else {
                panic!("forced CSR");
            };
            let ((gp, gc, gv), (wp, wc, wv)) = (got.csr_parts(), csr.csr_parts());
            assert_eq!((gp, gc), (wp, wc), "rate {rate}");
            assert_eq!(bits(gv), bits(wv), "rate {rate}");
        }
    }

    #[test]
    fn distinct_offsets_single_pass_on_200k_banded() {
        // Paper-scale detector check: a 200,000-row matrix with a
        // 7-diagonal band (offsets ±1, ±2, ±5, 0 — deliberately
        // non-contiguous) must be detected exactly, and fast. The
        // previous per-entry binary_search + insert detector was fine
        // here but quadratic in the diagonal count on scattered
        // matrices; the single-pass bitmap is O(nnz + n) always. The
        // <100ms budget (debug build!) guards against reintroducing a
        // rescan per candidate offset.
        let n = 200_000;
        let band: [isize; 7] = [-5, -2, -1, 0, 1, 2, 5];
        let mut b = TripletBuilder::with_capacity(n, n, 7 * n);
        for i in 0..n {
            for &o in &band {
                let j = i as isize + o;
                if (0..n as isize).contains(&j) {
                    b.push(i, j as usize, 1.0 + o as f64 * 0.1);
                }
            }
        }
        let csr = b.build();
        let start = std::time::Instant::now();
        let (offsets, nnz) = offsets_and_nnz(&csr);
        let elapsed = start.elapsed();
        assert_eq!(offsets, band.to_vec());
        assert_eq!(nnz, csr.nnz());
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "detector took {elapsed:?} on 200k rows"
        );
    }

    #[test]
    fn distinct_offsets_edge_shapes() {
        // Empty and 1×1 matrices, and a full anti-diagonal touching
        // both bitmap extremes (offsets n−1 and −(n−1)).
        let empty = TripletBuilder::with_capacity(0, 0, 0).build();
        assert_eq!(offsets_and_nnz(&empty), (Vec::new(), 0));
        let mut one = TripletBuilder::with_capacity(1, 1, 1);
        one.push(0, 0, 2.0);
        assert_eq!(offsets_and_nnz(&one.build()), (vec![0], 1));
        let n = 5;
        let mut anti = TripletBuilder::with_capacity(n, n, n);
        for i in 0..n {
            anti.push(i, n - 1 - i, 1.0);
        }
        assert_eq!(offsets_and_nnz(&anti.build()), (vec![-4, -2, 0, 2, 4], n));
    }

    #[test]
    fn tridiagonal_is_detected_with_bandwidth_one() {
        let csr = tridiag(100);
        let dia = DiaMatrix::from_csr(&csr).expect("tridiagonal accepted");
        assert_eq!(dia.offsets(), &[-1, 0, 1]);
        assert_eq!(dia.bandwidth(), 1);
        assert_eq!(dia.nnz(), csr.nnz());
    }

    #[test]
    fn ring_matrix_is_accepted() {
        // A ring chain has offsets {-(n-1), 0, 1}: three diagonals, so
        // DIA is efficient even though the naive bandwidth is n-1.
        let n = 64;
        let dia = DiaMatrix::from_csr(&ring(n)).expect("ring accepted");
        assert_eq!(dia.offsets(), &[-(n as isize - 1), 0, 1]);
        assert_eq!(dia.bandwidth(), n - 1);
    }

    #[test]
    fn scattered_matrix_is_rejected_but_forcible() {
        let csr = scattered(257);
        assert!(DiaMatrix::from_csr(&csr).is_none(), "too many diagonals");
        let forced = DiaMatrix::from_csr_forced(&csr).expect("square always forcible");
        assert_eq!(forced.matvec(&test_vector(257)), csr.matvec(&test_vector(257)));
    }

    #[test]
    fn non_square_is_rejected() {
        let csr = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(DiaMatrix::from_csr(&csr).is_none());
        assert!(DiaMatrix::from_csr_forced(&csr).is_none());
        let err = IterationMatrix::uniformized(&csr, 1.0, MatrixFormat::Auto);
        assert!(matches!(err, Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn dia_matvec_bitwise_matches_csr() {
        for csr in [tridiag(101), ring(101), scattered(101)] {
            let dia = DiaMatrix::from_csr_forced(&csr).unwrap();
            let x = test_vector(101);
            let mut y_csr = vec![f64::NAN; 101];
            let mut y_dia = vec![f64::NAN; 101];
            csr.matvec_into(&x, &mut y_csr);
            dia.matvec_into(&x, &mut y_dia);
            assert_eq!(y_dia, y_csr);
        }
    }

    #[test]
    fn empty_and_tiny_matrices_work() {
        let empty = TripletBuilder::new(0, 0).build();
        let dia = DiaMatrix::from_csr(&empty).unwrap();
        assert_eq!(dia.bandwidth(), 0);
        dia.matvec_into(&[], &mut []);

        let one = CsrMatrix::from_triplets(1, 1, &[(0, 0, 3.0)]);
        let dia = DiaMatrix::from_csr(&one).unwrap();
        assert_eq!(dia.matvec(&[2.0]), vec![6.0]);
    }

    #[test]
    fn diag_rows_clips_to_bounds() {
        assert_eq!(DiaMatrix::diag_rows(5, 0), 0..5);
        assert_eq!(DiaMatrix::diag_rows(5, 2), 0..3);
        assert_eq!(DiaMatrix::diag_rows(5, -2), 2..5);
        assert_eq!(DiaMatrix::diag_rows(5, 7), 0..0);
        assert_eq!(DiaMatrix::diag_rows(5, -7), 5..5);
        assert_eq!(DiaMatrix::diag_rows(0, 0), 0..0);
    }

    #[test]
    fn format_selection_and_names() {
        let gens = generators();
        let ((bd, rate), (spread, spread_rate)) = (&gens[0], &gens[4]);
        let auto = IterationMatrix::uniformized(bd, *rate, MatrixFormat::Auto).unwrap();
        assert!(auto.is_dia());
        assert_eq!(auto.format_name(), "dia");
        assert_eq!(auto.bandwidth(), 1);

        let auto_spread =
            IterationMatrix::uniformized(spread, *spread_rate, MatrixFormat::Auto).unwrap();
        assert!(!auto_spread.is_dia());
        assert_eq!(auto_spread.format_name(), "csr");

        let forced = IterationMatrix::uniformized(spread, *spread_rate, MatrixFormat::Dia).unwrap();
        assert!(forced.is_dia());

        let forced_csr = IterationMatrix::uniformized(bd, *rate, MatrixFormat::Csr).unwrap();
        assert!(!forced_csr.is_dia());
        assert_eq!(forced_csr.bandwidth(), 1);
    }

    #[test]
    fn iteration_matrix_matvec_dispatches() {
        let (q, rate) = generators().swap_remove(1);
        let x = test_vector(q.rows());
        let expect = q
            .scaled(1.0 / rate)
            .add_scaled_identity(1.0)
            .unwrap()
            .matvec(&x);
        for format in [MatrixFormat::Auto, MatrixFormat::Csr, MatrixFormat::Dia] {
            let m = IterationMatrix::uniformized(&q, rate, format).unwrap();
            let mut y = vec![f64::NAN; q.rows()];
            m.matvec_into(&x, &mut y);
            assert_eq!(y, expect, "format {format}");
        }
    }

    #[test]
    fn matrix_format_parses_and_displays() {
        for (s, f) in [
            ("auto", MatrixFormat::Auto),
            ("csr", MatrixFormat::Csr),
            ("dia", MatrixFormat::Dia),
            ("operator", MatrixFormat::Operator),
        ] {
            assert_eq!(s.parse::<MatrixFormat>().unwrap(), f);
            assert_eq!(f.to_string(), s);
        }
        assert_eq!("op".parse::<MatrixFormat>().unwrap(), MatrixFormat::Operator);
        assert!("banded".parse::<MatrixFormat>().is_err());
        assert_eq!(MatrixFormat::default(), MatrixFormat::Auto);
    }

    #[test]
    fn operator_format_needs_a_model_structure() {
        let (q, rate) = generators().swap_remove(0);
        let err = IterationMatrix::uniformized(&q, rate, MatrixFormat::Operator);
        assert!(matches!(err, Err(LinalgError::FormatUnsupported { .. })));
    }

    #[test]
    fn forced_dia_past_the_cap_is_refused_with_the_estimate() {
        // ~20k distinct diagonals over 20k rows pads to ≈ 3.2 GB —
        // the estimate must be rejected before anything is allocated.
        let n = 20_000;
        let rates: Vec<_> = (0..n).map(|i| (i, (i * 7 + 3) % n, 0.01)).collect();
        let q = generator(n, &rates);
        let csr = q.scaled(1.0).add_scaled_identity(1.0).unwrap();
        let ndiag = 1
            + (0..n)
                .map(|i| ((i * 7 + 3) % n) as isize - i as isize)
                .filter(|&o| o != 0)
                .collect::<std::collections::BTreeSet<_>>()
                .len() as u64;
        assert!(ndiag * n as u64 * 8 > FORCED_DIA_MAX_BYTES, "test premise");
        match IterationMatrix::uniformized(&q, 1.0, MatrixFormat::Dia) {
            Err(LinalgError::AllocationTooLarge {
                estimated_bytes,
                cap_bytes,
                ..
            }) => {
                assert_eq!(estimated_bytes, ndiag * n as u64 * 8);
                assert_eq!(cap_bytes, FORCED_DIA_MAX_BYTES);
            }
            other => panic!("expected AllocationTooLarge, got {other:?}"),
        }
        assert!(DiaMatrix::from_csr_forced(&csr).is_none());
        // Auto stays on CSR, and in-bounds forcing still works.
        assert!(!IterationMatrix::uniformized(&q, 1.0, MatrixFormat::Auto)
            .unwrap()
            .is_dia());
        assert!(DiaMatrix::from_csr_forced(&scattered(257)).is_some());
    }
}
