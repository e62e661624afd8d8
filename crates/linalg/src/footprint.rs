//! Exact owned-allocation accounting for storage-owning types.
//!
//! [`FootprintBytes`] reports the bytes a value's owned heap
//! allocations *store* — `len`-based, not `capacity`-based, so the
//! number is deterministic across allocator and growth-strategy
//! differences and matches what a freshly built (shrunk-to-fit) value
//! would occupy. Inline struct fields (lengths, scalars) are excluded:
//! the interesting quantity at scale is the O(n)/O(nnz) heap payload,
//! and that is what the memory ledger (`somrm-obs`) budgets against.
//!
//! Implementations exist for every iteration-matrix storage
//! ([`CsrMatrix`], [`DiaMatrix`] and the [`IterationMatrix`] dispatch)
//! and for the fused kernel's working set
//! ([`FusedMomentKernel`](crate::fused::FusedMomentKernel)).

use std::mem::size_of;

use crate::dia::{DiaMatrix, IterationMatrix};
use crate::sparse::CsrMatrix;

/// Exact stored bytes of a value's owned heap allocations.
pub trait FootprintBytes {
    /// Bytes stored by owned allocations (`len · size_of::<elem>()`,
    /// summed over every owned buffer).
    fn footprint_bytes(&self) -> usize;
}

impl<T: crate::scalar::Scalar> FootprintBytes for CsrMatrix<T> {
    /// `(rows + 1)` row pointers + one column index and one value per
    /// stored entry.
    fn footprint_bytes(&self) -> usize {
        let (row_ptr, col_idx, values) = self.csr_parts();
        row_ptr.len() * size_of::<usize>()
            + col_idx.len() * size_of::<usize>()
            + values.len() * size_of::<T>()
    }
}

impl FootprintBytes for DiaMatrix {
    /// One offset per stored diagonal + `n` doubles per stored diagonal
    /// (DIA pads every kept diagonal to full length).
    fn footprint_bytes(&self) -> usize {
        self.offsets().len() * size_of::<isize>() + self.data().len() * size_of::<f64>()
    }
}

impl FootprintBytes for IterationMatrix {
    fn footprint_bytes(&self) -> usize {
        match self {
            IterationMatrix::Csr(csr) => csr.footprint_bytes(),
            IterationMatrix::Dia(dia) => dia.footprint_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// Tridiagonal uniformized-style matrix on `n` states, the ladder
    /// shape the solvers actually iterate with.
    fn tridiag(n: usize) -> CsrMatrix<f64> {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            if i > 0 {
                b.push(i, i - 1, 0.25);
            }
            b.push(i, i, 0.5);
            if i + 1 < n {
                b.push(i, i + 1, 0.25);
            }
        }
        b.build()
    }

    #[test]
    fn csr_footprint_is_exact_for_ladder_sizes() {
        for n in [1_000usize, 10_000] {
            let csr = tridiag(n);
            let nnz = 3 * n - 2;
            assert_eq!(csr.nnz(), nnz);
            let expected = (n + 1) * size_of::<usize>()
                + nnz * size_of::<usize>()
                + nnz * size_of::<f64>();
            assert_eq!(csr.footprint_bytes(), expected);
        }
    }

    #[test]
    fn dia_footprint_is_exact_for_ladder_sizes() {
        for n in [1_000usize, 10_000] {
            let dia = DiaMatrix::from_csr(&tridiag(n)).expect("tridiagonal converts");
            // Three diagonals, each padded to n doubles, plus offsets.
            let expected = 3 * size_of::<isize>() + 3 * n * size_of::<f64>();
            assert_eq!(dia.footprint_bytes(), expected);
        }
    }

    #[test]
    fn iteration_matrix_dispatch_matches_inner_storage() {
        let csr = tridiag(64);
        let csr_bytes = csr.footprint_bytes();
        let m = IterationMatrix::Csr(csr.clone());
        assert_eq!(m.footprint_bytes(), csr_bytes);
        let d = IterationMatrix::Dia(DiaMatrix::from_csr(&csr).unwrap());
        assert_eq!(
            d.footprint_bytes(),
            3 * size_of::<isize>() + 3 * 64 * size_of::<f64>()
        );
    }
}
