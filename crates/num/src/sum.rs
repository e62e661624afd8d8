//! Compensated summation and related accumulation helpers.
//!
//! The randomization method sums tens of thousands of Poisson-weighted
//! terms; naive summation loses several digits on such series. The
//! [`NeumaierSum`] accumulator keeps a running compensation term and is
//! accurate to a couple of ulps independently of the number of terms.

/// A compensated accumulator implementing Neumaier's improved
/// Kahan–Babuška summation.
///
/// # Example
///
/// ```
/// use somrm_num::sum::NeumaierSum;
///
/// let mut acc = NeumaierSum::new();
/// for _ in 0..10 {
///     acc.add(0.1);
/// }
/// assert!((acc.value() - 1.0).abs() < 1e-15);
/// ```
///
/// Kernels that keep many accumulators side by side (the fused
/// recursion kernel in `somrm-linalg`) store the sums and the
/// compensations as two separate `f64` planes instead and update a
/// cell with [`neumaier_add`], the same arithmetic as
/// [`NeumaierSum::add`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NeumaierSum {
    sum: f64,
    compensation: f64,
}

impl NeumaierSum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an accumulator holding `x`.
    pub fn with_value(x: f64) -> Self {
        Self {
            sum: x,
            compensation: 0.0,
        }
    }

    /// Adds one term.
    pub fn add(&mut self, x: f64) {
        neumaier_add(&mut self.sum, &mut self.compensation, x);
    }

    /// The compensated value of the sum so far.
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }

    /// The raw running sum (without the compensation applied).
    pub fn raw_sum(&self) -> f64 {
        self.sum
    }

    /// The running compensation term: the accumulated rounding error
    /// the naive sum has lost so far. `|compensation| / |sum|` is a
    /// direct measure of how hard compensated summation had to work —
    /// health probes report the worst such ratio over a solve.
    pub fn compensation(&self) -> f64 {
        self.compensation
    }
}

impl Extend<f64> for NeumaierSum {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for NeumaierSum {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut acc = Self::new();
        acc.extend(iter);
        acc
    }
}

/// Adds `x` to the compensated accumulator held as a separate running
/// `sum` and `compensation` — one step of Neumaier's summation, bitwise
/// what [`NeumaierSum::add`] does to its two fields.
#[inline(always)]
pub fn neumaier_add(sum: &mut f64, compensation: &mut f64, x: f64) {
    let t = *sum + x;
    if sum.abs() >= x.abs() {
        *compensation += (*sum - t) + x;
    } else {
        *compensation += (x - t) + *sum;
    }
    *sum = t;
}

/// Sums a slice with Neumaier compensation.
///
/// # Example
///
/// ```
/// let xs = [1.0e16, 1.0, -1.0e16];
/// assert_eq!(somrm_num::sum::compensated_sum(&xs), 1.0);
/// ```
pub fn compensated_sum(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<NeumaierSum>().value()
}

/// Computes `ln(exp(a) + exp(b))` without overflow.
///
/// Either argument may be `-inf` (an "absent" term).
pub fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// Computes `ln(Σ exp(x_i))` over a slice without overflow.
///
/// Returns `-inf` for an empty slice.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let mut acc = NeumaierSum::new();
    for &x in xs {
        acc.add((x - hi).exp());
    }
    hi + acc.value().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neumaier_recovers_cancellation() {
        let xs = [1.0, 1.0e100, 1.0, -1.0e100];
        assert_eq!(compensated_sum(&xs), 2.0);
    }

    #[test]
    fn neumaier_many_small_terms() {
        let mut acc = NeumaierSum::new();
        let n = 1_000_000;
        for _ in 0..n {
            acc.add(0.1);
        }
        assert!((acc.value() - n as f64 * 0.1).abs() < 1e-7);
    }

    #[test]
    fn with_value_seeds_sum() {
        let mut acc = NeumaierSum::with_value(2.5);
        acc.add(0.5);
        assert_eq!(acc.value(), 3.0);
    }

    #[test]
    fn compensation_accessor_exposes_lost_bits() {
        let mut acc = NeumaierSum::new();
        acc.add(1.0e100);
        acc.add(1.0);
        // 1.0 is entirely absorbed by the compensation term.
        assert_eq!(acc.raw_sum(), 1.0e100);
        assert_eq!(acc.compensation(), 1.0);
        assert_eq!(acc.value(), acc.raw_sum() + acc.compensation());
        assert_eq!(NeumaierSum::new().compensation(), 0.0);
    }

    #[test]
    fn from_iterator_collects() {
        let acc: NeumaierSum = (0..10).map(|i| i as f64).collect();
        assert_eq!(acc.value(), 45.0);
    }

    #[test]
    fn log_add_exp_matches_direct() {
        let a: f64 = -3.0;
        let b: f64 = -4.5;
        let direct = (a.exp() + b.exp()).ln();
        assert!((log_add_exp(a, b) - direct).abs() < 1e-14);
        // Symmetry.
        assert_eq!(log_add_exp(a, b), log_add_exp(b, a));
    }

    #[test]
    fn log_add_exp_handles_neg_inf() {
        assert_eq!(log_add_exp(f64::NEG_INFINITY, -1.0), -1.0);
        assert_eq!(log_add_exp(-1.0, f64::NEG_INFINITY), -1.0);
        assert_eq!(
            log_add_exp(f64::NEG_INFINITY, f64::NEG_INFINITY),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn log_add_exp_no_overflow() {
        let r = log_add_exp(800.0, 800.0);
        assert!((r - (800.0 + std::f64::consts::LN_2)).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_basic() {
        let xs = [0.0, 0.0, 0.0, 0.0];
        assert!((log_sum_exp(&xs) - 4.0_f64.ln()).abs() < 1e-14);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }
}
