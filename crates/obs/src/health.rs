//! Numerical-health probes sampled inside the uniformization recursion.
//!
//! The paper's stability claim (Theorem 3's recursion is safe because
//! `Q' = I + Q/q − ř` is stochastic and the iterates stay in `[0, 1]`
//! per order after normalization) is checked *live* here instead of
//! being trusted: a [`HealthMonitor`] periodically scans the iterate
//! blocks `U⁽ʲ⁾(k)` for NaN/Inf/subnormal entries, tracks the sup-norm
//! per order and the order-0 "mass" trajectory, and — at assembly
//! time — the worst Neumaier compensation-to-sum ratio of the
//! accumulators (how hard the compensated summation had to work).
//!
//! A plain, weighted or impulse solve starts from `U⁽⁰⁾ = 1` and keeps
//! no `U⁽⁰⁾` vector (`U⁽⁰⁾(k) = 1` for every `k`): its recursion loop
//! observes order 0 as the one-entry vector `[1.0]`, so the mass is
//! exactly 1. A terminal solve stores `U⁽⁰⁾(k) = Q'ᵏw`, and its mass
//! trajectory is scanned; it decays only where the weights make the
//! iteration genuinely substochastic.
//!
//! A one-horizon plain or impulse solve runs backward, by Horner's
//! scheme, with no accumulators. Its samples are the partial Horner sums
//! `Y⁽ʲ⁾_k = Σ_{i≥k} wᵢ·U⁽ʲ⁾(i − k)` of orders `j ≥ 1` after each
//! sampled count of passes, order 0 again observed as `[1.0]` (its
//! `Y⁽⁰⁾_k = c_k·1` is a scalar the plan keeps). No accumulator
//! compensation is observed, since there are no accumulators; only the
//! order-0 window mass feeds the compensation ratio.
//!
//! The monitor only ever *reads* solver state, so attaching it cannot
//! perturb results; solvers create one only when a recorder is
//! attached, keeping disabled runs at zero cost.

use crate::recorder::RecorderHandle;

/// Sampling cadence: at most this many sampled iterations per solve
/// (plus the final one), so probing a million-iteration recursion costs
/// 64 scans, not a million.
const MAX_SAMPLES: u64 = 64;

/// Live numerical-health accumulator for one recursion run.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthMonitor {
    stride: u64,
    nan: u64,
    inf: u64,
    subnormal: u64,
    samples: u64,
    /// Per-order sup-norm over all sampled iterations.
    max_abs: Vec<f64>,
    u0_initial: Option<f64>,
    u0_min: f64,
    u0_final: f64,
    compensation_ratio: f64,
}

impl HealthMonitor {
    /// A monitor for a recursion truncated at `g` computing orders
    /// `0..=order`.
    pub fn new(g: u64, order: usize) -> Self {
        HealthMonitor {
            stride: ((g + 1) / MAX_SAMPLES).max(1),
            nan: 0,
            inf: 0,
            subnormal: 0,
            samples: 0,
            max_abs: vec![0.0; order + 1],
            u0_initial: None,
            u0_min: f64::INFINITY,
            u0_final: 0.0,
            compensation_ratio: 0.0,
        }
    }

    /// Whether iteration `k` (of `0..=g`) is on the sampling cadence.
    pub fn should_sample(&self, k: u64, g: u64) -> bool {
        k % self.stride == 0 || k == g
    }

    /// Scans the order-`j` iterate block. Call once per order for each
    /// sampled iteration, order 0 first (order 0 drives the mass
    /// trajectory and the sample count).
    pub fn observe_order(&mut self, j: usize, u: &[f64]) {
        let mut sup = 0.0f64;
        for &x in u {
            if x.is_nan() {
                self.nan += 1;
            } else if x.is_infinite() {
                self.inf += 1;
            } else {
                let a = x.abs();
                if a > 0.0 && a < f64::MIN_POSITIVE {
                    self.subnormal += 1;
                }
                if a > sup {
                    sup = a;
                }
            }
        }
        if let Some(m) = self.max_abs.get_mut(j) {
            if sup > *m {
                *m = sup;
            }
        }
        if j == 0 {
            self.samples += 1;
            if self.u0_initial.is_none() {
                self.u0_initial = Some(sup);
            }
            if sup < self.u0_min {
                self.u0_min = sup;
            }
            self.u0_final = sup;
        }
    }

    /// Order-0 sup-norm of the most recently sampled iterate (0 before
    /// the first sample). The solve event log reads this at each sample
    /// point to stream the live mass trajectory.
    pub fn u0_mass_last(&self) -> f64 {
        self.u0_final
    }

    /// Anomaly sightings so far (NaN + Inf + subnormal), the running
    /// counterpart of [`HealthSection::warnings`].
    pub fn anomalies(&self) -> u64 {
        self.nan + self.inf + self.subnormal
    }

    /// Feeds one Neumaier accumulator cell `(sum, compensation)` —
    /// called at assembly over the accumulated moments. Tracks the
    /// worst `|compensation| / |sum|` over non-zero sums.
    pub fn observe_compensation(&mut self, sum: f64, compensation: f64) {
        if sum != 0.0 && sum.is_finite() {
            let ratio = (compensation / sum).abs();
            if ratio > self.compensation_ratio {
                self.compensation_ratio = ratio;
            }
        }
    }

    /// Finalizes the monitor: emits `health.*` counters/gauges on `rec`
    /// and returns the report section.
    pub fn finish(self, rec: &RecorderHandle) -> HealthSection {
        let section = HealthSection {
            samples: self.samples,
            stride: self.stride,
            nan: self.nan,
            inf: self.inf,
            subnormal: self.subnormal,
            max_abs: self.max_abs,
            u0_mass_initial: self.u0_initial.unwrap_or(0.0),
            u0_mass_min: if self.u0_min.is_finite() { self.u0_min } else { 0.0 },
            u0_mass_final: self.u0_final,
            compensation_ratio: self.compensation_ratio,
        };
        rec.counter_add("health.samples", section.samples);
        rec.counter_add("health.nan", section.nan);
        rec.counter_add("health.inf", section.inf);
        rec.counter_add("health.underflow", section.subnormal);
        rec.gauge_set("health.u0_mass_final", section.u0_mass_final);
        rec.gauge_set("health.compensation_ratio", section.compensation_ratio);
        section
    }
}

/// Numerical-health summary of one solve, attached to
/// [`crate::SolveReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSection {
    /// Iterations actually scanned (cadence `stride`, plus the final).
    pub samples: u64,
    /// Sampling stride in iterations.
    pub stride: u64,
    /// NaN entries sighted across all sampled iterates.
    pub nan: u64,
    /// ±Inf entries sighted.
    pub inf: u64,
    /// Subnormal (gradual-underflow) entries sighted.
    pub subnormal: u64,
    /// Per-order sup-norm of the sampled iterates.
    pub max_abs: Vec<f64>,
    /// Order-0 sup-norm at the first sampled iteration (1 for a plain
    /// solve: `U⁽⁰⁾` starts as the all-ones vector).
    pub u0_mass_initial: f64,
    /// Smallest sampled order-0 sup-norm (decay below 1 means the
    /// iteration ran genuinely substochastic).
    pub u0_mass_min: f64,
    /// Order-0 sup-norm at the last sampled iteration.
    pub u0_mass_final: f64,
    /// Worst `|compensation|/|sum|` over the Neumaier accumulators at
    /// assembly (0 when summation never needed compensation).
    pub compensation_ratio: f64,
}

impl HealthSection {
    /// Total anomaly sightings (NaN + Inf + subnormal).
    pub fn warnings(&self) -> u64 {
        self.nan + self.inf + self.subnormal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use std::sync::Arc;

    #[test]
    fn clean_vectors_report_no_warnings() {
        let mut m = HealthMonitor::new(10, 1);
        for k in 0..=10u64 {
            assert!(m.should_sample(k, 10), "stride 1 samples everything");
            m.observe_order(0, &[1.0, 1.0, 1.0]);
            m.observe_order(1, &[0.5, -0.25, 0.0]);
        }
        let reg = Arc::new(MetricsRegistry::new());
        let h = RecorderHandle::new(reg.clone());
        let s = m.finish(&h);
        assert_eq!(s.warnings(), 0);
        assert_eq!(s.samples, 11);
        assert_eq!(s.u0_mass_initial, 1.0);
        assert_eq!(s.u0_mass_min, 1.0);
        assert_eq!(s.u0_mass_final, 1.0);
        assert_eq!(s.max_abs, vec![1.0, 0.5]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("health.underflow"), Some(0));
        assert_eq!(snap.counter("health.samples"), Some(11));
    }

    #[test]
    fn anomalies_are_counted_by_kind() {
        let mut m = HealthMonitor::new(0, 0);
        let sub = f64::MIN_POSITIVE / 2.0;
        assert!(sub > 0.0 && sub < f64::MIN_POSITIVE);
        m.observe_order(0, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, sub, 1.0]);
        let s = m.finish(&RecorderHandle::disabled());
        assert_eq!(s.nan, 1);
        assert_eq!(s.inf, 2);
        assert_eq!(s.subnormal, 1);
        assert_eq!(s.warnings(), 4);
    }

    #[test]
    fn mass_decay_is_tracked_through_min_and_final() {
        let mut m = HealthMonitor::new(2, 0);
        m.observe_order(0, &[1.0]);
        m.observe_order(0, &[0.25]);
        m.observe_order(0, &[0.5]);
        let s = m.finish(&RecorderHandle::disabled());
        assert_eq!(s.u0_mass_initial, 1.0);
        assert_eq!(s.u0_mass_min, 0.25);
        assert_eq!(s.u0_mass_final, 0.5);
    }

    #[test]
    fn stride_throttles_large_recursions() {
        let m = HealthMonitor::new(6_400, 0);
        let sampled = (0..=6_400u64).filter(|&k| m.should_sample(k, 6_400)).count();
        assert!(sampled <= MAX_SAMPLES as usize + 2, "sampled {sampled}");
        assert!(m.should_sample(0, 6_400));
        assert!(m.should_sample(6_400, 6_400), "final iteration always sampled");
    }

    #[test]
    fn compensation_ratio_takes_the_worst_cell() {
        let mut m = HealthMonitor::new(0, 0);
        m.observe_compensation(1.0, 1e-16);
        m.observe_compensation(2.0, -1e-10);
        m.observe_compensation(0.0, 5.0); // zero sum ignored
        let s = m.finish(&RecorderHandle::disabled());
        assert!((s.compensation_ratio - 5e-11).abs() < 1e-22);
    }
}
