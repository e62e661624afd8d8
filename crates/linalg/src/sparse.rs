//! Compressed-sparse-row matrices.
//!
//! The randomization solver's per-iteration cost is one CSR mat-vec with
//! the uniformized generator `Q'` plus two diagonal multiplies — exactly
//! the `(m + 2)` vector multiplications the paper counts in Section 6.
//! The paper's large example (200,001 states, tridiagonal `Q'`) runs
//! through this type.

use crate::error::LinalgError;
use crate::scalar::Scalar;

/// A sparse matrix in CSR (compressed sparse row) format.
///
/// Build one with [`TripletBuilder`] or [`CsrMatrix::from_triplets`].
///
/// # Example
///
/// ```
/// use somrm_linalg::TripletBuilder;
///
/// let mut b = TripletBuilder::new(2, 2);
/// b.push(0, 1, 1.0);
/// b.push(1, 0, 2.0);
/// let m = b.build();
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T = f64> {
    rows: usize,
    cols: usize,
    /// Row start offsets, length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices of the stored entries.
    col_idx: Vec<usize>,
    /// Stored entry values.
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Builds from `(row, col, value)` triplets; duplicate positions are
    /// summed, explicit zeros are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, T)]) -> Self {
        let mut b = TripletBuilder::with_capacity(rows, cols, triplets.len());
        for &(i, j, v) in triplets {
            b.push(i, j, v);
        }
        b.build()
    }

    /// Wraps CSR arrays that already hold a built matrix: `row_ptr` has
    /// `rows + 1` ascending entries from 0 to `col_idx.len()`, and each
    /// row's columns ascend without duplicates.
    pub(crate) fn from_sorted_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(row_ptr.last(), Some(&col_idx.len()));
        debug_assert_eq!(col_idx.len(), values.len());
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let row_ptr = (0..=n).collect();
        let col_idx = (0..n).collect();
        let values = vec![T::one(); n];
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Mean number of stored entries per row (the paper's `m`).
    pub fn mean_row_nnz(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.rows as f64
        }
    }

    /// The raw CSR arrays `(row_ptr, col_idx, values)`.
    ///
    /// `row_ptr` has length `rows + 1`; row `i`'s entries live at
    /// `row_ptr[i]..row_ptr[i+1]` in `col_idx`/`values`. Exposed for the
    /// fused solver kernels, which stream rows without per-row iterator
    /// overhead.
    pub fn csr_parts(&self) -> (&[usize], &[usize], &[T]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Iterates the stored entries of row `i` as `(col, value)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        assert!(i < self.rows, "row index {i} out of bounds");
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&j, &v)| (j, v))
    }

    /// The value at `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> T {
        self.row(i)
            .find(|&(c, _)| c == j)
            .map_or(T::zero(), |(_, v)| v)
    }

    /// The diagonal as a vector.
    pub fn diagonal(&self) -> Vec<T> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Computes `y = A·x` into a caller-provided buffer (the hot kernel:
    /// no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the matrix shape.
    pub fn matvec_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.cols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.rows, "matvec: y length mismatch");
        for i in 0..self.rows {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let mut acc = T::zero();
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            y[i] = acc;
        }
    }

    /// `A·x` as a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `xᵀ·A` (row vector times matrix) as a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn vecmat(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.rows, "vecmat: x length mismatch");
        let mut y = vec![T::zero(); self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi == T::zero() {
                continue;
            }
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            for k in lo..hi {
                y[self.col_idx[k]] += xi * self.values[k];
            }
        }
        y
    }

    /// Multiplies all stored values by `a`.
    pub fn scaled(&self, a: T) -> Self {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= a;
        }
        out
    }

    /// `self + a·I` (used to form the uniformized `Q' = Q/q + I`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the matrix is not
    /// square.
    pub fn add_scaled_identity(&self, a: T) -> Result<Self, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "add_scaled_identity",
                lhs: (self.rows, self.cols),
                rhs: (self.rows, self.rows),
            });
        }
        let mut b = TripletBuilder::with_capacity(self.rows, self.cols, self.nnz() + self.rows);
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                b.push(i, j, v);
            }
            b.push(i, i, a);
        }
        Ok(b.build())
    }

    /// Transpose (CSR → CSR of the transpose).
    pub fn transpose(&self) -> Self {
        let mut b = TripletBuilder::with_capacity(self.cols, self.rows, self.nnz());
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                b.push(j, i, v);
            }
        }
        b.build()
    }

    /// Converts to a dense matrix (tests and small models only).
    ///
    /// This allocates `O(rows × cols)` memory regardless of sparsity —
    /// on the paper's 200,001-state model that would be ~320 GB. Debug
    /// builds assert both dimensions stay at or below 2,000 to catch
    /// accidental use on large models; use the sparse kernels (or
    /// [`crate::dia::DiaMatrix`]) there instead.
    pub fn to_dense(&self) -> crate::dense::Mat<T> {
        debug_assert!(
            self.rows.max(self.cols) <= 2_000,
            "to_dense on a {}x{} matrix allocates O(rows*cols) memory; \
             use the sparse kernels for large models",
            self.rows,
            self.cols
        );
        let mut m = crate::dense::Mat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Row sums (for substochasticity checks).
    pub fn row_sums(&self) -> Vec<T> {
        (0..self.rows)
            .map(|i| self.row(i).map(|(_, v)| v).sum())
            .collect()
    }
}

/// Incremental COO builder producing a [`CsrMatrix`].
///
/// Duplicate entries are summed; entries that sum to exactly zero are
/// still stored (they are structurally present), but pushed zeros are
/// dropped.
#[derive(Debug, Clone)]
pub struct TripletBuilder<T = f64> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> TripletBuilder<T> {
    /// An empty builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_capacity(rows, cols, 0)
    }

    /// An empty builder with preallocated capacity.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        TripletBuilder {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Records `a[i][j] += v`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn push(&mut self, i: usize, j: usize, v: T) {
        assert!(
            i < self.rows && j < self.cols,
            "triplet ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        if v != T::zero() {
            self.entries.push((i, j, v));
        }
    }

    /// Number of triplets recorded so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no triplets were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds the CSR matrix, summing duplicates.
    ///
    /// Entries are ordered by a stable counting sort on the row, then a
    /// stable sort on the column within each row — the order of a
    /// stable sort on `(row, col)` — so duplicates are summed left to
    /// right in push order.
    pub fn build(self) -> CsrMatrix<T> {
        let (rows, cols) = (self.rows, self.cols);
        let nnz = self.entries.len();
        // Row counts at `row_ptr[i + 1]`, prefix-summed into row starts;
        // the scatter then advances `row_ptr[i]` to row i's end, and a
        // shift by one restores the starts.
        let mut row_ptr = vec![0usize; rows + 1];
        for &(i, _, _) in &self.entries {
            row_ptr[i + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![T::zero(); nnz];
        for (i, j, v) in self.entries {
            let at = row_ptr[i];
            col_idx[at] = j;
            values[at] = v;
            row_ptr[i] = at + 1;
        }
        row_ptr.copy_within(0..rows, 1);
        row_ptr[0] = 0;

        // Sort each row by column and sum its duplicates, compacting in
        // place: the write cursor never passes the read cursor.
        let mut w = 0;
        for i in 0..rows {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            sort_row(&mut col_idx[lo..hi], &mut values[lo..hi]);
            row_ptr[i] = w;
            let mut k = lo;
            while k < hi {
                let j = col_idx[k];
                let mut v = values[k];
                k += 1;
                while k < hi && col_idx[k] == j {
                    v += values[k];
                    k += 1;
                }
                col_idx[w] = j;
                values[w] = v;
                w += 1;
            }
        }
        row_ptr[rows] = w;
        col_idx.truncate(w);
        values.truncate(w);
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// Rows longer than this sort through a stable library sort instead of
/// insertion sort.
const INSERTION_SORT_MAX: usize = 32;

/// Stable sort of one row's entries by column. Rows are short and
/// nearly sorted (a generator row is its off-diagonals in order, then
/// the diagonal), which insertion sort handles in one pass.
fn sort_row<T: Scalar>(cols: &mut [usize], vals: &mut [T]) {
    if cols.len() > INSERTION_SORT_MAX {
        if !cols.is_sorted() {
            let mut row: Vec<(usize, T)> = cols.iter().copied().zip(vals.iter().copied()).collect();
            row.sort_by_key(|&(j, _)| j);
            for (k, (j, v)) in row.into_iter().enumerate() {
                cols[k] = j;
                vals[k] = v;
            }
        }
        return;
    }
    for k in 1..cols.len() {
        let (j, v) = (cols[k], vals[k]);
        let mut at = k;
        while at > 0 && cols[at - 1] > j {
            cols[at] = cols[at - 1];
            vals[at] = vals[at - 1];
            at -= 1;
        }
        cols[at] = j;
        vals[at] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Mat;
    use proptest::prelude::*;

    fn example() -> CsrMatrix<f64> {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn matvec_matches_dense() {
        let a = example();
        let d = a.to_dense();
        let x = [1.0, -2.0, 0.5];
        assert_eq!(a.matvec(&x), d.matvec(&x));
        assert_eq!(a.vecmat(&x), d.vecmat(&x));
    }

    #[test]
    fn duplicates_are_summed() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn explicit_zeros_dropped() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 0.0), (1, 0, 1.0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i: CsrMatrix<f64> = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x), x.to_vec());
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn add_scaled_identity_builds_uniformized_form() {
        // Q' = Q/q + I for a tiny generator.
        let q = CsrMatrix::from_triplets(2, 2, &[(0, 0, -1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, -2.0)]);
        let qp = q.scaled(1.0 / 2.0).add_scaled_identity(1.0).unwrap();
        let rs = qp.row_sums();
        assert!((rs[0] - 1.0).abs() < 1e-15);
        assert!((rs[1] - 1.0).abs() < 1e-15);
        assert!((qp.get(0, 0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn transpose_round_trip() {
        let a = example();
        let t = a.transpose();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn diagonal_and_row_iteration() {
        let a = example();
        assert_eq!(a.diagonal(), vec![1.0, 0.0, 0.0]);
        let row2: Vec<_> = a.row(2).collect();
        assert_eq!(row2, vec![(0, 3.0), (1, 4.0)]);
        let row1: Vec<_> = a.row(1).collect();
        assert!(row1.is_empty());
    }

    #[test]
    fn mean_row_nnz_counts() {
        let a = example();
        assert!((a.mean_row_nnz() - 4.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn matvec_into_no_alloc_path() {
        let a = example();
        let mut y = vec![0.0; 3];
        a.matvec_into(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 0.0, 7.0]);
    }

    #[test]
    fn builder_len_and_empty() {
        let mut b: TripletBuilder<f64> = TripletBuilder::new(2, 2);
        assert!(b.is_empty());
        b.push(0, 0, 1.0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_bounds_checked() {
        let mut b: TripletBuilder<f64> = TripletBuilder::new(2, 2);
        b.push(2, 0, 1.0);
    }

    #[test]
    fn non_square_add_identity_rejected() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(a.add_scaled_identity(1.0).is_err());
    }

    /// The comparison-sort build: a stable sort on `(row, col)`, then
    /// duplicates summed left to right.
    fn sort_by_key_build(rows: usize, cols: usize, t: &[(usize, usize, f64)]) -> CsrMatrix<f64> {
        let mut entries: Vec<_> = t.iter().copied().filter(|&(_, _, v)| v != 0.0).collect();
        entries.sort_by_key(|&(i, j, _)| (i, j));
        let mut row_ptr = vec![0usize; rows + 1];
        let (mut col_idx, mut values) = (Vec::new(), Vec::<f64>::new());
        let mut last = None;
        for (i, j, v) in entries {
            if last == Some((i, j)) {
                *values.last_mut().unwrap() += v;
            } else {
                col_idx.push(j);
                values.push(v);
                row_ptr[i + 1] += 1;
                last = Some((i, j));
            }
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix::from_sorted_parts(rows, cols, row_ptr, col_idx, values)
    }

    fn assert_same_bits(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>) {
        let ((ap, ac, av), (bp, bc, bv)) = (a.csr_parts(), b.csr_parts());
        assert_eq!((a.rows(), a.cols(), ap, ac), (b.rows(), b.cols(), bp, bc));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(av), bits(bv));
    }

    #[test]
    fn duplicates_sum_in_push_order() {
        // (1e16 + 1) − 1e16 = 0 but (1e16 − 1e16) + 1 = 1: the sum
        // depends on the order, and the build keeps push order.
        for dups in [[1e16, 1.0, -1e16], [1e16, -1e16, 1.0], [1.0, 1e16, -1e16]] {
            let mut t = vec![(1, 0, 2.0), (0, 2, 5.0)];
            t.extend(dups.iter().map(|&v| (1, 2, v)));
            t.push((1, 1, -3.0));
            let built = CsrMatrix::from_triplets(2, 3, &t);
            assert_same_bits(&built, &sort_by_key_build(2, 3, &t));
            let expect = (dups[0] + dups[1]) + dups[2];
            assert_eq!(built.get(1, 2).to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn long_unsorted_rows_match_the_sort_by_key_build() {
        // Rows past the insertion-sort length, pushed in reverse column
        // order with duplicates, plus a row of explicit zeros.
        let mut t = Vec::new();
        for j in (0..100).rev() {
            t.push((0, j % 37, 1.0 + j as f64 * 1e-3));
            t.push((2, j % 50, [1e16, 1.0, -1e16][j % 3]));
            t.push((1, j, 0.0));
        }
        assert_same_bits(
            &CsrMatrix::from_triplets(3, 100, &t),
            &sort_by_key_build(3, 100, &t),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn counting_sort_build_matches_the_sort_by_key_build(
            (rows, cols, t) in (1usize..12, 1usize..12).prop_flat_map(|(r, c)| {
                let entry = (0..r, 0..c, 0usize..8).prop_map(|(i, j, k)| {
                    (i, j, [1e16, 1.0, -1e16, 0.0, -0.0, 0.5, 3.25, -7.0][k])
                });
                (Just(r), Just(c), prop::collection::vec(entry, 0..80))
            })
        ) {
            let built = CsrMatrix::from_triplets(rows, cols, &t);
            assert_same_bits(&built, &sort_by_key_build(rows, cols, &t));
        }
    }

    #[test]
    fn to_dense_round_trip_values() {
        let a = example();
        let d = a.to_dense();
        let back = Mat::from_fn(3, 3, |i, j| d[(i, j)]);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a.get(i, j), back[(i, j)]);
            }
        }
    }
}

impl CsrMatrix<f64> {
    /// Parallel `y = A·x` over contiguous row chunks using scoped
    /// threads. Falls back to the serial kernel for small matrices or
    /// `n_threads <= 1`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the matrix shape.
    pub fn matvec_into_parallel(&self, x: &[f64], y: &mut [f64], n_threads: usize) {
        assert_eq!(x.len(), self.cols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.rows, "matvec: y length mismatch");
        if n_threads <= 1 || self.rows < 4096 {
            self.matvec_into(x, y);
            return;
        }
        let threads = n_threads.min(self.rows);
        let chunk = self.rows.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut rest = &mut y[..];
            let mut start = 0usize;
            while start < self.rows {
                let len = chunk.min(self.rows - start);
                let (head, tail) = rest.split_at_mut(len);
                rest = tail;
                let row_ptr = &self.row_ptr;
                let col_idx = &self.col_idx;
                let values = &self.values;
                scope.spawn(move || {
                    for (offset, out) in head.iter_mut().enumerate() {
                        let i = start + offset;
                        let lo = row_ptr[i];
                        let hi = row_ptr[i + 1];
                        let mut acc = 0.0;
                        for k in lo..hi {
                            acc += values[k] * x[col_idx[k]];
                        }
                        *out = acc;
                    }
                });
                start += len;
            }
        });
    }

    /// Parallel `y = A·x` on a persistent [`WorkerPool`](crate::WorkerPool),
    /// avoiding the per-call thread spawns of
    /// [`CsrMatrix::matvec_into_parallel`].
    ///
    /// Chunk boundaries depend only on `(rows, pool.threads())`, and each
    /// row's dot product is evaluated in the same order as the serial
    /// kernel, so the result is bit-identical to [`CsrMatrix::matvec_into`].
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the matrix shape.
    pub fn matvec_into_pooled(&self, x: &[f64], y: &mut [f64], pool: &mut crate::pool::WorkerPool) {
        assert_eq!(x.len(), self.cols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.rows, "matvec: y length mismatch");
        let chunks = pool.threads();
        if chunks <= 1 {
            self.matvec_into(x, y);
            return;
        }
        let rows = self.rows;
        let row_ptr = &self.row_ptr;
        let col_idx = &self.col_idx;
        let values = &self.values;
        let y_out = crate::pool::SyncMutPtr::new(y.as_mut_ptr());
        pool.run(&|c| {
            for i in crate::pool::chunk_range(rows, chunks, c) {
                let lo = row_ptr[i];
                let hi = row_ptr[i + 1];
                let mut acc = 0.0;
                for k in lo..hi {
                    acc += values[k] * x[col_idx[k]];
                }
                // SAFETY: chunk row ranges are disjoint.
                unsafe { *y_out.add(i) = acc };
            }
        });
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::pool::WorkerPool;

    #[test]
    fn parallel_matvec_matches_serial() {
        // Large tridiagonal matrix crossing the parallel threshold.
        let n = 10_000;
        let mut b = TripletBuilder::with_capacity(n, n, 3 * n);
        for i in 0..n {
            if i > 0 {
                b.push(i, i - 1, 0.25 + (i % 7) as f64 * 0.1);
            }
            b.push(i, i, -1.0);
            if i + 1 < n {
                b.push(i, i + 1, 0.5);
            }
        }
        let m = b.build();
        let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let mut serial = vec![0.0; n];
        m.matvec_into(&x, &mut serial);
        for threads in [1usize, 2, 3, 8] {
            let mut par = vec![0.0; n];
            m.matvec_into_parallel(&x, &mut par, threads);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn small_matrix_takes_serial_path() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (2, 0, 1.0)]);
        let mut y = vec![0.0; 3];
        m.matvec_into_parallel(&[1.0, 1.0, 1.0], &mut y, 8);
        assert_eq!(y, vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn pooled_matvec_matches_serial_bitwise() {
        let n = 4097;
        let mut b = TripletBuilder::with_capacity(n, n, 3 * n);
        for i in 0..n {
            if i > 0 {
                b.push(i, i - 1, 0.3 + (i % 5) as f64 * 0.01);
            }
            b.push(i, i, -0.9);
            if i + 1 < n {
                b.push(i, i + 1, 0.6);
            }
        }
        let m = b.build();
        let x: Vec<f64> = (0..n).map(|i| ((i * 29) % 13) as f64 / 7.0 - 0.8).collect();
        let mut serial = vec![0.0; n];
        m.matvec_into(&x, &mut serial);
        for threads in [1usize, 2, 5, 8] {
            let mut pool = WorkerPool::new(threads);
            let mut y = vec![f64::NAN; n];
            m.matvec_into_pooled(&x, &mut y, &mut pool);
            assert_eq!(y, serial, "threads = {threads}");
            // The pool is reusable across calls.
            let mut y2 = vec![f64::NAN; n];
            m.matvec_into_pooled(&x, &mut y2, &mut pool);
            assert_eq!(y2, serial, "threads = {threads}, second call");
        }
    }

    #[test]
    fn csr_parts_expose_row_structure() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        let (row_ptr, col_idx, values) = m.csr_parts();
        assert_eq!(row_ptr, &[0, 1, 3]);
        assert_eq!(col_idx, &[1, 0, 1]);
        assert_eq!(values, &[2.0, 3.0, 4.0]);
    }
}
