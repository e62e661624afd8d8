//! An M/M/1/K queue with noisy service as a second-order reward model.
//!
//! The queue-length process of an M/M/1/K queue (arrival rate `λ`,
//! service rate `μ`, capacity `K`) is a birth–death CTMC. The
//! accumulated reward is the amount of *work served*: while the server
//! is busy it completes work at rate `μ·w` with per-unit-time variance
//! `σ²` (service-time jitter), while an idle server produces nothing.

use somrm_core::error::MrmError;
use somrm_core::model::SecondOrderMrm;
use somrm_ctmc::generator::GeneratorBuilder;

/// Parameters of the noisy-throughput M/M/1/K model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyQueue {
    /// Arrival rate `λ`.
    pub arrival_rate: f64,
    /// Service rate `μ`.
    pub service_rate: f64,
    /// Buffer capacity `K` (states `0 ..= K`).
    pub capacity: usize,
    /// Work delivered per unit busy time.
    pub work_rate: f64,
    /// Variance of delivered work per unit busy time.
    pub work_variance: f64,
}

impl NoisyQueue {
    /// Number of CTMC states (`K + 1`).
    pub fn n_states(&self) -> usize {
        self.capacity + 1
    }

    /// Builds the model starting from an empty queue.
    ///
    /// # Errors
    ///
    /// Returns [`MrmError`] if the rates are invalid.
    pub fn model(&self) -> Result<SecondOrderMrm, MrmError> {
        let k = self.capacity;
        let mut b = GeneratorBuilder::new(k + 1);
        for i in 0..k {
            b.rate(i, i + 1, self.arrival_rate)?;
            b.rate(i + 1, i, self.service_rate)?;
        }
        let rates: Vec<f64> = (0..=k)
            .map(|i| if i > 0 { self.work_rate } else { 0.0 })
            .collect();
        let variances: Vec<f64> = (0..=k)
            .map(|i| if i > 0 { self.work_variance } else { 0.0 })
            .collect();
        let mut initial = vec![0.0; k + 1];
        initial[0] = 1.0;
        SecondOrderMrm::new(b.build()?, rates, variances, initial)
    }

    /// Long-run utilization `P[busy]` of the M/M/1/K queue
    /// (closed form).
    pub fn utilization(&self) -> f64 {
        let rho = self.arrival_rate / self.service_rate;
        let k = self.capacity as i32;
        if (rho - 1.0).abs() < 1e-12 {
            return k as f64 / (k as f64 + 1.0);
        }
        let p0 = (1.0 - rho) / (1.0 - rho.powi(k + 1));
        1.0 - p0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_core::uniformization::{moments, SolverConfig};

    fn queue() -> NoisyQueue {
        NoisyQueue {
            arrival_rate: 0.8,
            service_rate: 1.0,
            capacity: 10,
            work_rate: 1.0,
            work_variance: 0.3,
        }
    }

    #[test]
    fn builds_with_idle_state_earning_nothing() {
        let m = queue().model().unwrap();
        assert_eq!(m.rates()[0], 0.0);
        assert_eq!(m.variances()[0], 0.0);
        assert_eq!(m.rates()[3], 1.0);
    }

    #[test]
    fn long_run_throughput_matches_utilization() {
        let q = queue();
        let m = q.model().unwrap();
        // For large t, E[B(t)]/t → utilization·work_rate.
        let t = 400.0;
        let sol = moments(&m, 1, t, &SolverConfig::default()).unwrap();
        let rate = sol.mean() / t;
        assert!(
            (rate - q.utilization()).abs() < 0.01,
            "rate {rate} vs utilization {}",
            q.utilization()
        );
    }

    #[test]
    fn utilization_closed_form_sane() {
        let q = queue();
        assert!(q.utilization() > 0.0 && q.utilization() < 1.0);
        let critical = NoisyQueue {
            arrival_rate: 1.0,
            ..queue()
        };
        assert!((critical.utilization() - 10.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn second_order_noise_only_when_busy() {
        let q = queue();
        let m = q.model().unwrap();
        let sol = moments(&m, 2, 5.0, &SolverConfig::default()).unwrap();
        // Variance has both structure-state and Brownian components > 0.
        assert!(sol.variance() > 0.0);
        // And a zero-noise variant has strictly smaller variance.
        let m0 = NoisyQueue {
            work_variance: 0.0,
            ..q
        }
        .model()
        .unwrap();
        let sol0 = moments(&m0, 2, 5.0, &SolverConfig::default()).unwrap();
        assert!(sol.variance() > sol0.variance());
    }
}
