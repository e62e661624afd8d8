//! Conversions between raw, central and standardized moments.
//!
//! The solver returns raw moments `E[Bⁿ]`; the paper's Figures 5–7 feed
//! (all 23) raw moments into the distribution-bounding step, while
//! summary statistics (variance, skewness, kurtosis) need central or
//! standardized moments.

use somrm_num::special::binomial;
use somrm_num::sum::NeumaierSum;

/// Converts raw moments `[m₀, m₁, …]` (with `m₀ = 1`) to central
/// moments `[1, 0, μ₂, μ₃, …]` about the mean.
///
/// # Panics
///
/// Panics if `raw` is empty or `raw[0]` is not 1 (within 1e-6).
///
/// # Example
///
/// ```
/// // Normal(2, 9): raw moments 1, 2, 13, 62, ...
/// let central = somrm_core::moments::raw_to_central(&[1.0, 2.0, 13.0]);
/// assert!((central[2] - 9.0).abs() < 1e-12);
/// ```
pub fn raw_to_central(raw: &[f64]) -> Vec<f64> {
    assert!(!raw.is_empty(), "need at least the zeroth moment");
    assert!(
        (raw[0] - 1.0).abs() < 1e-6,
        "zeroth raw moment must be 1, got {}",
        raw[0]
    );
    let mean = if raw.len() > 1 { raw[1] } else { 0.0 };
    (0..raw.len())
        .map(|n| {
            let mut acc = NeumaierSum::new();
            for j in 0..=n {
                acc.add(binomial(n as u32, j as u32) * raw[j] * (-mean).powi((n - j) as i32));
            }
            acc.value()
        })
        .collect()
}

/// Converts central moments back to raw moments given the mean.
pub fn central_to_raw(central: &[f64], mean: f64) -> Vec<f64> {
    (0..central.len())
        .map(|n| {
            let mut acc = NeumaierSum::new();
            for j in 0..=n {
                acc.add(binomial(n as u32, j as u32) * central[j] * mean.powi((n - j) as i32));
            }
            acc.value()
        })
        .collect()
}

/// Standardized moments `μ_n / σⁿ` from central moments.
///
/// Entries 0..=2 are `1, 0, 1` by construction; entry 3 is the
/// skewness, entry 4 the kurtosis.
///
/// # Panics
///
/// Panics if the variance (`central[2]`) is not strictly positive.
pub fn central_to_standardized(central: &[f64]) -> Vec<f64> {
    assert!(
        central.len() >= 3 && central[2] > 0.0,
        "standardization requires a positive variance"
    );
    let sd = central[2].sqrt();
    (0..central.len())
        .map(|n| central[n] / sd.powi(n as i32))
        .collect()
}

/// Summary statistics extracted from a raw-moment sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomentSummary {
    /// `E[B]`.
    pub mean: f64,
    /// `Var[B]`.
    pub variance: f64,
    /// Standardized third central moment (0 when unavailable).
    pub skewness: f64,
    /// Standardized fourth central moment (0 when unavailable).
    pub kurtosis: f64,
}

/// Summarizes a raw-moment sequence (needs at least `[m₀, m₁, m₂]`).
///
/// # Panics
///
/// Panics if fewer than three raw moments are supplied.
pub fn summarize(raw: &[f64]) -> MomentSummary {
    assert!(raw.len() >= 3, "need raw moments up to order 2");
    let central = raw_to_central(raw);
    // Clamp like `MomentSolution::variance()`: cancellation in
    // E[B²] − E[B]² can leave a tiny negative value for
    // near-deterministic rewards, which would otherwise surface as
    // "variance = -0.000000" in user-facing output.
    let variance = central[2].max(0.0);
    let sd = variance.sqrt();
    let skewness = if raw.len() > 3 && sd > 0.0 {
        central[3] / (sd * sd * sd)
    } else {
        0.0
    };
    let kurtosis = if raw.len() > 4 && sd > 0.0 {
        central[4] / (variance * variance)
    } else {
        0.0
    };
    MomentSummary {
        mean: raw[1],
        variance,
        skewness,
        kurtosis,
    }
}

/// Raw moments of a `Normal(mean, var)` variable up to `order`
/// (recurrence `m_n = mean·m_{n−1} + (n−1)·var·m_{n−2}`).
///
/// Useful as a reference in tests and for the frozen-chain special case.
pub fn normal_raw_moments(mean: f64, var: f64, order: usize) -> Vec<f64> {
    let mut m = vec![0.0; order + 1];
    m[0] = 1.0;
    if order >= 1 {
        m[1] = mean;
    }
    for n in 2..=order {
        m[n] = mean * m[n - 1] + (n - 1) as f64 * var * m[n - 2];
    }
    m
}

/// Un-shifts raw moments: if `B = B̌ + ř·t`, then
/// `E[Bⁿ] = Σ_j C(n,j)·(řt)^{n−j}·E[B̌ʲ]`, per state, with a compensated
/// sum. Every solver path applies its drift shift through this one
/// routine — also to defective (terminal-weighted) moments, where the
/// same identity holds for `E[(B̌+c)ⁿ·w]`.
pub(crate) fn unshift_moments(shifted: &[Vec<f64>], shift: f64, t: f64) -> Vec<Vec<f64>> {
    if shift == 0.0 {
        return shifted.to_vec();
    }
    let order = shifted.len() - 1;
    let n_states = shifted[0].len();
    let c = shift * t;
    (0..=order)
        .map(|n| {
            (0..n_states)
                .map(|i| {
                    let mut acc = NeumaierSum::new();
                    for j in 0..=n {
                        acc.add(
                            binomial(n as u32, j as u32) * c.powi((n - j) as i32) * shifted[j][i],
                        );
                    }
                    acc.value()
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_moments_reference() {
        let m = normal_raw_moments(0.0, 1.0, 8);
        // Standard normal: 1, 0, 1, 0, 3, 0, 15, 0, 105.
        assert_eq!(m, vec![1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0, 0.0, 105.0]);
    }

    #[test]
    fn raw_central_round_trip() {
        let raw = normal_raw_moments(2.0, 9.0, 6);
        let central = raw_to_central(&raw);
        assert!((central[0] - 1.0).abs() < 1e-12);
        assert!(central[1].abs() < 1e-12);
        assert!((central[2] - 9.0).abs() < 1e-10);
        assert!(central[3].abs() < 1e-9);
        assert!((central[4] - 3.0 * 81.0).abs() < 1e-8);
        let back = central_to_raw(&central, raw[1]);
        for (a, b) in raw.iter().zip(&back) {
            assert!((a - b).abs() < 1e-8 * a.abs().max(1.0));
        }
    }

    #[test]
    fn standardized_normal_is_parameter_free() {
        for &(mu, var) in &[(0.0, 1.0), (5.0, 0.25), (-3.0, 16.0)] {
            let raw = normal_raw_moments(mu, var, 6);
            let st = central_to_standardized(&raw_to_central(&raw));
            assert!((st[2] - 1.0).abs() < 1e-9);
            assert!(st[3].abs() < 1e-7, "skewness for ({mu},{var})");
            assert!((st[4] - 3.0).abs() < 1e-6, "kurtosis for ({mu},{var})");
        }
    }

    #[test]
    fn summarize_exponential() {
        // Exp(1): raw moments n!; mean 1, var 1, skew 2, kurtosis 9.
        let raw = [1.0, 1.0, 2.0, 6.0, 24.0];
        let s = summarize(&raw);
        assert!((s.mean - 1.0).abs() < 1e-12);
        assert!((s.variance - 1.0).abs() < 1e-12);
        assert!((s.skewness - 2.0).abs() < 1e-10);
        assert!((s.kurtosis - 9.0).abs() < 1e-10);
    }

    #[test]
    fn summarize_clamps_cancellation_variance_at_zero() {
        // Deterministic reward: E[B²] − E[B]² cancels to a tiny
        // negative value in floating point; the summary must report
        // exactly 0.0, never -0.000000.
        let m1 = 1.5f64;
        let raw = [1.0, m1, m1 * m1 - 1e-15];
        assert!(raw[2] - raw[1] * raw[1] < 0.0);
        let s = summarize(&raw);
        assert_eq!(s.variance, 0.0);
        assert!(s.variance.is_sign_positive());
        assert_eq!(s.skewness, 0.0);
    }

    #[test]
    fn summarize_short_sequence_gives_zero_higher_stats() {
        let s = summarize(&[1.0, 2.0, 5.0]);
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.kurtosis, 0.0);
        assert!((s.variance - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zeroth raw moment")]
    fn raw_to_central_validates_m0() {
        raw_to_central(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "positive variance")]
    fn standardize_requires_variance() {
        central_to_standardized(&[1.0, 0.0, 0.0]);
    }
}
