//! Property-based bitwise contract of the matrix-free operator backend.
//!
//! The operator backend promises more than agreement within tolerance:
//! with the scalar kernel pinned, a forced-`Operator` solve must be
//! **bit-identical** to the forced-`Csr` solve of the same model — the
//! per-row canonical-FMA contract makes storage format unobservable.
//! This property fuzzes that claim over random Kronecker-sum models and
//! start states, across moment orders 0–5, worker-pool sizes 1/2/4, and
//! both query paths (multi-time sweep and terminal-weighted).

use proptest::prelude::*;
use somrm_core::model::SecondOrderMrm;
use somrm_core::terminal::moments_terminal_weighted;
use somrm_core::uniformization::{moments_sweep, MomentSolution, SolverConfig};
use somrm_core::ModelStructure;
use somrm_ctmc::generator::GeneratorBuilder;
use somrm_linalg::{Mat, MatrixFormat};

/// A 2×3 Kronecker-sum model: two small factor generators plus the
/// matching flat generator, assembled entry-for-entry so the operator
/// owes the CSR path exact agreement rather than hoping for it.
fn kron_model(r0: f64, r1: f64, drifts: &[f64], variances: &[f64], start: usize) -> SecondOrderMrm {
    let f0 = Mat::from_rows(&[&[0.0, r0][..], &[0.5 * r1, 0.0][..]]).unwrap();
    let f1 = Mat::from_rows(&[
        &[0.0, r1, 0.0][..],
        &[0.75 * r0, 0.0, 1.5][..],
        &[0.0, 2.0 * r1, 0.0][..],
    ])
    .unwrap();
    let factors = vec![f0, f1];
    let n = 6;
    let strides = [3usize, 1usize];
    let mut b = GeneratorBuilder::new(n);
    for i in 0..n {
        let digits = [i / 3, i % 3];
        for (k, f) in factors.iter().enumerate() {
            let base = i - digits[k] * strides[k];
            for c in 0..f.rows() {
                let a = f[(digits[k], c)];
                if c != digits[k] && a > 0.0 {
                    b.rate(i, base + c * strides[k], a).unwrap();
                }
            }
        }
    }
    let mut initial = vec![0.0; n];
    initial[start] = 1.0;
    SecondOrderMrm::new(b.build().unwrap(), drifts.to_vec(), variances.to_vec(), initial)
        .unwrap()
        .with_structure(ModelStructure::KroneckerSum { factors })
        .unwrap()
}

fn config(format: MatrixFormat, threads: usize) -> SolverConfig {
    SolverConfig {
        format,
        threads,
        // Exercise the pool even on these tiny models.
        parallel_threshold: 0,
        ..SolverConfig::default()
    }
}

fn assert_bitwise(tag: &str, a: &MomentSolution, b: &MomentSolution) {
    assert_eq!(a.weighted.len(), b.weighted.len(), "{tag}: order mismatch");
    for n in 0..a.weighted.len() {
        assert_eq!(
            a.weighted[n].to_bits(),
            b.weighted[n].to_bits(),
            "{tag}: weighted moment {n}: {} vs {}",
            a.weighted[n],
            b.weighted[n]
        );
        assert_eq!(
            a.error_bounds[n].to_bits(),
            b.error_bounds[n].to_bits(),
            "{tag}: error bound {n}"
        );
        for (i, (x, y)) in a.per_state[n].iter().zip(&b.per_state[n]).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{tag}: per-state moment {n}, state {i}: {x} vs {y}"
            );
        }
    }
}

proptest! {
    #[test]
    fn kronecker_operator_matches_csr_bitwise(
        r0 in 0.2f64..4.0,
        r1 in 0.2f64..4.0,
        drifts in prop::collection::vec(-2.0f64..2.0, 6),
        variances in prop::collection::vec(0.0f64..1.5, 6),
        order in 0usize..=5,
        threads in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
        t in 0.05f64..1.5,
        start in 0usize..6,
    ) {
        let model = kron_model(r0, r1, &drifts, &variances, start);
        let times = [0.5 * t, t, 1.7 * t];
        let csr = moments_sweep(&model, order, &times, &config(MatrixFormat::Csr, threads))
            .unwrap();
        let op = moments_sweep(&model, order, &times, &config(MatrixFormat::Operator, threads))
            .unwrap();
        for (a, b) in csr.iter().zip(&op) {
            assert_bitwise("kron sweep", a, b);
        }

        let w = vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let csr_t =
            moments_terminal_weighted(&model, order, t, &w, &config(MatrixFormat::Csr, threads))
                .unwrap();
        let op_t = moments_terminal_weighted(
            &model,
            order,
            t,
            &w,
            &config(MatrixFormat::Operator, threads),
        )
        .unwrap();
        assert_bitwise("kron terminal", &csr_t, &op_t);
    }
}
