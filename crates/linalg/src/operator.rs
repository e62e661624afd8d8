//! Matrix-free operator backend for structured iteration matrices.
//!
//! A Kronecker-structured generator (`Q = A₀ ⊕ A₁ ⊕ …`, e.g. N
//! independent sources kept apart instead of aggregated into a
//! birth–death chain) has as many states as the product of its
//! factors' sizes, so the CSR/DIA backends that materialize the
//! uniformized matrix run out of memory long before the model is
//! large. This module computes `y = P'·x` **on the fly** from the model
//! structure: a [`KroneckerSum`] holds only the small factor blocks plus
//! one O(n) diagonal — O(1) matrix memory per state beyond the
//! unavoidable diagonal. (A birth–death chain needs no operator: its
//! `Q'` is three DIA strips, written straight from the generator.)
//!
//! ## Bit-identity with the CSR kernel
//!
//! The operator replicates the *exact arithmetic* of the materialized
//! pipeline (`Q.scaled(1/q).add_scaled_identity(1.0)` followed by the
//! CSR row dot in ascending-column order):
//!
//! * every off-diagonal entry is computed as `raw · (1/q)` — the same
//!   two-operation product the CSR scaling performs in place — and the
//!   diagonal as `(raw_diag · (1/q)) + 1.0`, matching the
//!   duplicate-summing triplet rebuild of `add_scaled_identity`;
//! * each row's dot accumulates terms in ascending-column order with
//!   the same left-associated chain `dot + v·x` from `0.0`, exactly as
//!   the fused kernel's CSR branch does;
//! * structural zeros are skipped outright, as CSR skips them.
//!
//! Operator runs are therefore bitwise-identical to CSR runs of the same
//! model; the `rnd-op-kron` verify arm pins this.

use crate::dense::Mat;
use crate::error::LinalgError;
use crate::footprint::FootprintBytes;
use crate::sparse::CsrMatrix;
use std::ops::Range;
use std::sync::Arc;

fn check_rate(rate: f64) -> Result<f64, LinalgError> {
    if !(rate.is_finite() && rate > 0.0) {
        return Err(LinalgError::FormatUnsupported {
            format: "operator",
            reason: format!("uniformization rate {rate} must be finite and positive"),
        });
    }
    Ok(1.0 / rate)
}

/// The uniformized matrix of a Kronecker-sum generator
/// `Q = A₀ ⊕ A₁ ⊕ … ⊕ A_{K−1}` (factor 0 outermost, i.e. largest index
/// stride), holding only the small factor blocks, one O(n) diagonal,
/// and the scale `1/q`. Row `i` decomposes into mixed-radix digits
/// `(j₀, …, j_{K−1})`; its off-diagonal entries are exactly the
/// off-diagonal entries of each factor's row `jₖ`, at global columns
/// `i + (c − jₖ)·sₖ` — strides are nested, so entries from different
/// factors can never collide and ascending-column order is: below the
/// diagonal factors `k = 0..K` each with `c` ascending, the diagonal,
/// then above the diagonal factors `k = K−1..0` each with `c` ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct KroneckerSum {
    factors: Vec<Mat<f64>>,
    sizes: Vec<usize>,
    /// `strides[k] = Π_{m>k} sizes[m]`; `strides[K−1] = 1`.
    strides: Vec<usize>,
    /// `P'[i][i]`, precomputed (the only O(n) state).
    diag: Vec<f64>,
    inv: f64,
    n: usize,
}

impl KroneckerSum {
    /// Builds the operator from factor generator blocks and the
    /// uniformization rate. Factor diagonals are ignored — the global
    /// diagonal is derived from the off-diagonal exit sums, replicating
    /// the canonical triplet emission order of
    /// [`KroneckerSum::generator_triplets`] so the result is
    /// bitwise-identical to materializing those triplets and
    /// uniformizing. Off-diagonal factor entries must be finite and
    /// non-negative.
    pub fn new(factors: Vec<Mat<f64>>, rate: f64) -> Result<KroneckerSum, LinalgError> {
        let inv = check_rate(rate)?;
        if factors.is_empty() {
            return Err(LinalgError::FormatUnsupported {
                format: "operator",
                reason: "Kronecker sum needs at least one factor".to_string(),
            });
        }
        let mut sizes = Vec::with_capacity(factors.len());
        let mut n = 1usize;
        for (k, f) in factors.iter().enumerate() {
            if f.rows() != f.cols() || f.rows() == 0 {
                return Err(LinalgError::FormatUnsupported {
                    format: "operator",
                    reason: format!("factor {k} must be square and non-empty, got {}x{}", f.rows(), f.cols()),
                });
            }
            for i in 0..f.rows() {
                for j in 0..f.cols() {
                    let a = f[(i, j)];
                    if i != j && !(a.is_finite() && a >= 0.0) {
                        return Err(LinalgError::FormatUnsupported {
                            format: "operator",
                            reason: format!("factor {k} entry ({i}, {j}) = {a} must be finite and >= 0"),
                        });
                    }
                }
            }
            sizes.push(f.rows());
            n = n.checked_mul(f.rows()).ok_or(LinalgError::FormatUnsupported {
                format: "operator",
                reason: "Kronecker product dimension overflows usize".to_string(),
            })?;
        }
        let mut strides = vec![1usize; sizes.len()];
        for k in (0..sizes.len().saturating_sub(1)).rev() {
            strides[k] = strides[k + 1] * sizes[k + 1];
        }
        let mut op = KroneckerSum {
            factors,
            sizes,
            strides,
            diag: Vec::new(),
            inv,
            n,
        };
        op.diag = op.derive_diagonal();
        Ok(op)
    }

    /// `P'[i][i] = (−exitᵢ)·(1/q) + 1.0`, with each row's exit sum
    /// accumulated in canonical triplet-emission order.
    fn derive_diagonal(&self) -> Vec<f64> {
        let mut diag = vec![0.0; self.n];
        let mut digits = vec![0usize; self.sizes.len()];
        for d in diag.iter_mut() {
            let mut exit = 0.0f64;
            for (k, f) in self.factors.iter().enumerate() {
                let jk = digits[k];
                for c in 0..self.sizes[k] {
                    if c != jk {
                        let a = f[(jk, c)];
                        if a > 0.0 {
                            exit += a;
                        }
                    }
                }
            }
            *d = (-exit) * self.inv + 1.0;
            incr_digits(&mut digits, &self.sizes);
        }
        diag
    }

    /// Overwrites the diagonal from the **stored** diagonal entries of
    /// the model's raw generator (`diag[i] = v·(1/q) + 1.0`, exactly
    /// `1.0` where no diagonal entry is stored), so operator runs stay
    /// bitwise-identical to the CSR path even when the model's
    /// generator was assembled in a non-canonical push order.
    pub fn align_diagonal_with(&mut self, q: &CsrMatrix<f64>) -> Result<(), LinalgError> {
        if q.rows() != self.n || q.cols() != self.n {
            return Err(LinalgError::FormatUnsupported {
                format: "operator",
                reason: format!(
                    "generator is {}x{} but the Kronecker structure describes {} states",
                    q.rows(),
                    q.cols(),
                    self.n
                ),
            });
        }
        self.diag.fill(1.0);
        for i in 0..self.n {
            for (j, v) in q.row(i) {
                if j == i {
                    self.diag[i] = v * self.inv + 1.0;
                }
            }
        }
        Ok(())
    }

    /// The raw-generator off-diagonal triplets `(row, col, rate)` in
    /// canonical emission order: row-major, factors `k = 0..K` in
    /// order, columns ascending, zero rates skipped. Feeding these to a
    /// generator builder (which appends `−exit` diagonals) materializes
    /// exactly the matrix this operator applies. Intended for tests and
    /// the verify oracle at small sizes.
    pub fn generator_triplets(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        let mut digits = vec![0usize; self.sizes.len()];
        for i in 0..self.n {
            for (k, f) in self.factors.iter().enumerate() {
                let jk = digits[k];
                let base = i - jk * self.strides[k];
                for c in 0..self.sizes[k] {
                    if c != jk {
                        let a = f[(jk, c)];
                        if a > 0.0 {
                            out.push((i, base + c * self.strides[k], a));
                        }
                    }
                }
            }
            incr_digits(&mut digits, &self.sizes);
        }
        out
    }

    /// Dense rendering of `P'` for tiny operators (tests only).
    ///
    /// # Panics
    ///
    /// Panics if the dimension exceeds 2000 (this is a debug helper).
    pub fn to_dense(&self) -> Mat<f64> {
        assert!(self.n <= 2000, "to_dense is for tiny operators");
        let mut m = Mat::zeros(self.n, self.n);
        for (i, &d) in self.diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        for (i, j, a) in self.generator_triplets() {
            m[(i, j)] = a * self.inv;
        }
        m
    }

    /// The per-factor sizes, outermost first.
    pub fn factor_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Rows `rows` of `P'·x` into `out[0..rows.len()]` (`out[k]` is row
    /// `rows.start + k`), so the fused kernel's disjoint row chunks drive
    /// the operator like the CSR/DIA branches: each row the plain
    /// left-associated chain `dot + v·x` from `0.0` in ascending-column
    /// order.
    pub fn matvec_range(&self, x: &[f64], out: &mut [f64], rows: Range<usize>) {
        debug_assert_eq!(x.len(), self.n, "operator matvec: x length mismatch");
        debug_assert_eq!(out.len(), rows.len(), "operator matvec: out length mismatch");
        debug_assert!(rows.end <= self.n, "operator matvec: row range out of bounds");
        let kk = self.factors.len();
        let mut digits = vec![0usize; kk];
        let mut rem = rows.start;
        for k in 0..kk {
            digits[k] = rem / self.strides[k];
            rem %= self.strides[k];
        }
        let inv = self.inv;
        for (row_i, i) in rows.clone().enumerate() {
            let mut dot = 0.0;
            for k in 0..kk {
                let jk = digits[k];
                if jk == 0 {
                    continue;
                }
                let s = self.strides[k];
                let f = &self.factors[k];
                let base = i - jk * s;
                for c in 0..jk {
                    let a = f[(jk, c)];
                    if a > 0.0 {
                        dot += a * inv * x[base + c * s];
                    }
                }
            }
            dot += self.diag[i] * x[i];
            for k in (0..kk).rev() {
                let jk = digits[k];
                let s = self.strides[k];
                let f = &self.factors[k];
                let base = i - jk * s;
                for c in jk + 1..self.sizes[k] {
                    let a = f[(jk, c)];
                    if a > 0.0 {
                        dot += a * inv * x[base + c * s];
                    }
                }
            }
            out[row_i] = dot;
            incr_digits(&mut digits, &self.sizes);
        }
    }
}

/// Mixed-radix increment with the last digit fastest — the digit walk
/// matching `i → i + 1` under `strides[k] = Π_{m>k} sizes[m]`.
fn incr_digits(digits: &mut [usize], sizes: &[usize]) {
    for k in (0..digits.len()).rev() {
        digits[k] += 1;
        if digits[k] < sizes[k] {
            return;
        }
        digits[k] = 0;
    }
}

impl KroneckerSum {
    /// Matrix dimension (the operator is square).
    pub fn rows(&self) -> usize {
        self.n
    }

    /// Maximum `|col − row|` over structural entries.
    pub fn bandwidth(&self) -> usize {
        match self.sizes.first() {
            Some(&s0) if s0 > 1 => (s0 - 1) * self.strides[0],
            _ => 0,
        }
    }
}

impl FootprintBytes for KroneckerSum {
    /// The factor blocks, sizes, strides and diagonal — the operator's
    /// entire memory cost, since rows are recomputed on the fly.
    fn footprint_bytes(&self) -> usize {
        let factor_bytes: usize = self
            .factors
            .iter()
            .map(|f| f.rows() * f.cols() * std::mem::size_of::<f64>())
            .sum();
        factor_bytes
            + (self.sizes.len() + self.strides.len()) * std::mem::size_of::<usize>()
            + self.diag.len() * std::mem::size_of::<f64>()
    }
}

/// The structure a model advertises about its generator, letting the
/// solver build a matrix-free operator instead of materializing the
/// uniformized matrix. Carried by `SecondOrderMrm` as derived metadata
/// (it never changes the numbers a model produces, only how they can be
/// computed).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelStructure {
    /// A Kronecker sum of small factor generators, outermost first.
    KroneckerSum {
        /// Factor generator blocks (diagonals ignored).
        factors: Vec<Mat<f64>>,
    },
}

impl ModelStructure {
    /// The number of global states the structure describes.
    pub fn n_states(&self) -> usize {
        match self {
            ModelStructure::KroneckerSum { factors } => factors.iter().map(Mat::rows).product(),
        }
    }

    /// Report-friendly structure name.
    pub fn kind(&self) -> &'static str {
        match self {
            ModelStructure::KroneckerSum { .. } => "kronecker-sum",
        }
    }
}

/// A cheaply clonable, comparable handle around a [`KroneckerSum`] —
/// the payload of `IterationMatrix::Operator`.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorMatrix {
    inner: Arc<KroneckerSum>,
}

impl OperatorMatrix {
    /// Wraps a Kronecker-sum operator.
    pub fn kronecker(op: KroneckerSum) -> OperatorMatrix {
        OperatorMatrix {
            inner: Arc::new(op),
        }
    }

    /// Builds the uniformized operator for a model from its advertised
    /// structure and raw generator. The generator supplies the stored
    /// diagonal, so the operator is bitwise-faithful to the
    /// materialized pipeline whatever push order assembled the
    /// generator; the structure supplies the factor blocks.
    pub fn from_structure(
        structure: &ModelStructure,
        generator: &CsrMatrix<f64>,
        rate: f64,
    ) -> Result<OperatorMatrix, LinalgError> {
        if structure.n_states() != generator.rows() {
            return Err(LinalgError::FormatUnsupported {
                format: "operator",
                reason: format!(
                    "structure describes {} states but the generator has {} rows",
                    structure.n_states(),
                    generator.rows()
                ),
            });
        }
        match structure {
            ModelStructure::KroneckerSum { factors } => {
                let mut op = KroneckerSum::new(factors.clone(), rate)?;
                op.align_diagonal_with(generator)?;
                Ok(Self::kronecker(op))
            }
        }
    }

    /// The wrapped operator (the fused kernel runs its rows).
    pub fn as_kronecker(&self) -> &KroneckerSum {
        &self.inner
    }

    /// Matrix dimension.
    pub fn rows(&self) -> usize {
        self.inner.rows()
    }

    /// Maximum `|col − row|` over structural entries.
    pub fn bandwidth(&self) -> usize {
        self.inner.bandwidth()
    }

    /// Full `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the dimension.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows(), "matvec: x length mismatch");
        assert_eq!(y.len(), self.rows(), "matvec: y length mismatch");
        self.inner.matvec_range(x, y, 0..self.rows());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    fn uniformize(q: &CsrMatrix<f64>, rate: f64) -> CsrMatrix<f64> {
        q.scaled(1.0 / rate).add_scaled_identity(1.0).unwrap()
    }

    /// Non-negative probe vector (solver iterates are non-negative —
    /// the regime the bitwise contract covers).
    fn probe(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37) % 17) as f64 / 16.0).collect()
    }

    /// Two ON-OFF-like factors and one 3-level factor, rates all > 0.
    fn sample_factors() -> Vec<Mat<f64>> {
        let f0 = Mat::from_rows(&[&[0.0, 2.0][..], &[0.5, 0.0][..]]).unwrap();
        let f1 = Mat::from_rows(&[
            &[0.0, 1.0, 0.25][..],
            &[0.75, 0.0, 1.5][..],
            &[0.0, 2.0, 0.0][..],
        ])
        .unwrap();
        let f2 = Mat::from_rows(&[&[0.0, 3.0][..], &[1.25, 0.0][..]]).unwrap();
        vec![f0, f1, f2]
    }

    fn kron_generator(op: &KroneckerSum) -> CsrMatrix<f64> {
        let n = op.rows();
        let trips = op.generator_triplets();
        let mut b = TripletBuilder::with_capacity(n, n, trips.len() + n);
        let mut exit = vec![0.0f64; n];
        for &(i, j, a) in &trips {
            b.push(i, j, a);
            exit[i] += a;
        }
        for (i, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                b.push(i, i, -e);
            }
        }
        b.build()
    }

    #[test]
    fn kron_matvec_bitwise_matches_uniformized_csr() {
        let rate = 13.0;
        let op = KroneckerSum::new(sample_factors(), rate).unwrap();
        let n = op.rows();
        assert_eq!(n, 12);
        assert_eq!(op.factor_sizes(), &[2, 3, 2]);
        let p = uniformize(&kron_generator(&op), rate);
        let x = probe(n);
        let mut want = vec![f64::NAN; n];
        p.matvec_into(&x, &mut want);
        let mut got = vec![f64::NAN; n];
        op.matvec_range(&x, &mut got, 0..n);
        assert_eq!(got, want, "full range");
        // Arbitrary sub-range starts exercise the digit decomposition.
        for lo in 0..n {
            for hi in lo..=n {
                let mut part = vec![f64::NAN; hi - lo];
                op.matvec_range(&x, &mut part, lo..hi);
                assert_eq!(part, want[lo..hi], "range {lo}..{hi}");
            }
        }
    }

    #[test]
    fn kron_matvec_matches_to_dense() {
        let op = KroneckerSum::new(sample_factors(), 10.0).unwrap();
        let n = op.rows();
        let dense = op.to_dense();
        let x = probe(n);
        let want = dense.matvec(&x);
        let mut got = vec![f64::NAN; n];
        op.matvec_range(&x, &mut got, 0..n);
        assert_eq!(got, want);
    }

    #[test]
    fn kron_align_diagonal_is_noop_on_canonical_generator() {
        let rate = 6.0;
        let mut op = KroneckerSum::new(sample_factors(), rate).unwrap();
        let before = op.clone();
        let q = kron_generator(&op);
        op.align_diagonal_with(&q).unwrap();
        assert_eq!(op, before);
        let wrong = TripletBuilder::new(3, 3).build();
        assert!(op.align_diagonal_with(&wrong).is_err());
    }

    #[test]
    fn kron_reports_shape_metadata() {
        let op = KroneckerSum::new(sample_factors(), 10.0).unwrap();
        // Outermost factor has 2 levels over stride 6.
        assert_eq!(op.bandwidth(), 6);
        assert_eq!(op.rows(), 12);
        // Factor blocks (4 + 9 + 4 doubles), sizes and strides (6
        // words) and the diagonal (12 doubles).
        assert_eq!(op.footprint_bytes(), (4 + 9 + 4) * 8 + 6 * 8 + 12 * 8);
    }

    #[test]
    fn kron_rejects_bad_input() {
        assert!(KroneckerSum::new(vec![], 1.0).is_err());
        assert!(KroneckerSum::new(sample_factors(), f64::INFINITY).is_err());
        let neg = Mat::from_rows(&[&[0.0, -1.0][..], &[1.0, 0.0][..]]).unwrap();
        assert!(KroneckerSum::new(vec![neg], 1.0).is_err());
        let nonsquare = Mat::zeros(2, 3);
        assert!(KroneckerSum::new(vec![nonsquare], 1.0).is_err());
    }

    #[test]
    fn operator_matrix_equality_and_metadata() {
        let a = OperatorMatrix::kronecker(KroneckerSum::new(sample_factors(), 5.0).unwrap());
        let b = OperatorMatrix::kronecker(KroneckerSum::new(sample_factors(), 5.0).unwrap());
        let other = OperatorMatrix::kronecker(KroneckerSum::new(sample_factors(), 6.0).unwrap());
        assert_eq!(a, b);
        assert_ne!(a, other, "different rate, different scale and diagonal");
        assert_eq!(a.rows(), 12);
        assert_eq!(a.bandwidth(), 6);
    }

    #[test]
    fn from_structure_builds_the_kronecker_backend() {
        let ks = KroneckerSum::new(sample_factors(), 5.0).unwrap();
        let kq = kron_generator(&ks);
        let structure = ModelStructure::KroneckerSum {
            factors: sample_factors(),
        };
        assert_eq!(structure.n_states(), 12);
        assert_eq!(structure.kind(), "kronecker-sum");
        let kop = OperatorMatrix::from_structure(&structure, &kq, 5.0).unwrap();
        assert_eq!(kop.as_kronecker(), &ks);
        let x = probe(12);
        let mut y = vec![0.0; 12];
        kop.matvec_into(&x, &mut y);
        let mut want = vec![0.0; 12];
        uniformize(&kq, 5.0).matvec_into(&x, &mut want);
        assert_eq!(y, want);

        // Mismatched dimensions fail with a typed error.
        let wrong = TripletBuilder::new(7, 7).build();
        assert!(OperatorMatrix::from_structure(&structure, &wrong, 5.0).is_err());
    }
}
