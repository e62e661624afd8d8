//! A fault-tolerant multiprocessor performability model.
//!
//! The motivating application class of Markov reward models (Meyer's
//! performability): `n` processors fail independently at rate `λ` and
//! are repaired one at a time at rate `μ`. With `i` processors up, the
//! system performs useful work at rate `i·c`. The second-order
//! extension models the *fluctuation* of delivered work around that
//! rate — contention, cache effects, OS jitter — as a per-processor
//! variance `σ²`, giving `σ_i² = i·σ²`.

use somrm_core::error::MrmError;
use somrm_core::model::SecondOrderMrm;
use somrm_ctmc::generator::GeneratorBuilder;

/// Parameters of the multiprocessor performability model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Multiprocessor {
    /// Number of processors.
    pub n_processors: usize,
    /// Per-processor failure rate `λ`.
    pub failure_rate: f64,
    /// Repair rate `μ` (single repair facility).
    pub repair_rate: f64,
    /// Work rate of one processor (`c`).
    pub work_rate: f64,
    /// Per-processor variance of delivered work (`σ²`).
    pub work_variance: f64,
}

impl Multiprocessor {
    /// A typical configuration: 8 processors, MTBF 1000 time units,
    /// repair 100× faster than failure, unit work rate and 10% noise.
    pub fn typical(n_processors: usize) -> Self {
        Multiprocessor {
            n_processors,
            failure_rate: 1e-3,
            repair_rate: 0.1,
            work_rate: 1.0,
            work_variance: 0.1,
        }
    }

    /// Number of CTMC states (`n + 1`, indexed by processors up).
    pub fn n_states(&self) -> usize {
        self.n_processors + 1
    }

    /// Builds the model starting with all processors operational.
    ///
    /// State `i` = `i` processors up; failures move `i → i−1` at rate
    /// `i·λ`, repair moves `i → i+1` at rate `μ`.
    ///
    /// # Errors
    ///
    /// Returns [`MrmError`] if the rates are invalid.
    pub fn model(&self) -> Result<SecondOrderMrm, MrmError> {
        let n = self.n_processors;
        let mut b = GeneratorBuilder::new(n + 1);
        for i in 1..=n {
            b.rate(i, i - 1, i as f64 * self.failure_rate)?;
            b.rate(i - 1, i, self.repair_rate)?;
        }
        let rates: Vec<f64> = (0..=n).map(|i| i as f64 * self.work_rate).collect();
        let variances: Vec<f64> = (0..=n).map(|i| i as f64 * self.work_variance).collect();
        let mut initial = vec![0.0; n + 1];
        initial[n] = 1.0;
        SecondOrderMrm::new(b.build()?, rates, variances, initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_core::uniformization::{moments, SolverConfig};

    #[test]
    fn builds_and_has_expected_shape() {
        let mp = Multiprocessor::typical(8);
        let m = mp.model().unwrap();
        assert_eq!(m.n_states(), 9);
        assert_eq!(m.rates()[8], 8.0);
        assert_eq!(m.variances()[0], 0.0);
        assert_eq!(m.initial()[8], 1.0);
    }

    #[test]
    fn early_mean_work_is_nearly_full_capacity() {
        // With MTBF ≫ horizon, E[B(t)] ≈ n·c·t.
        let mp = Multiprocessor::typical(4);
        let m = mp.model().unwrap();
        let t = 1.0;
        let sol = moments(&m, 2, t, &SolverConfig::default()).unwrap();
        let full = 4.0 * t;
        assert!(sol.mean() <= full + 1e-9);
        assert!(sol.mean() > 0.99 * full, "mean {}", sol.mean());
        assert!(sol.variance() > 0.0);
    }

    #[test]
    fn degraded_system_accumulates_less() {
        let mp = Multiprocessor {
            n_processors: 4,
            failure_rate: 0.5,
            repair_rate: 0.5,
            work_rate: 1.0,
            work_variance: 0.0,
        };
        let m = mp.model().unwrap();
        let sol = moments(&m, 1, 2.0, &SolverConfig::default()).unwrap();
        assert!(sol.mean() < 8.0, "failures must reduce work: {}", sol.mean());
        assert!(sol.mean() > 0.0);
    }
}
