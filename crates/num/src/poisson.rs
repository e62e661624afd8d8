//! Numerically stable Poisson probabilities, weights and tails.
//!
//! The randomization method of the DSN 2004 paper expresses the moments of
//! the accumulated reward as a Poisson-weighted series (Theorem 3) whose
//! truncation point `G` is chosen from a tail bound (Theorem 4). For large
//! models the Poisson parameter `qt` reaches tens of thousands (the paper
//! runs `qt = 40,000`), where the naive `e^{−λ}λ^k/k!` underflows long
//! before the relevant terms. Everything here therefore works in log
//! space, anchored at the distribution mode.

use crate::special::ln_factorial;
use crate::sum::NeumaierSum;

/// Natural log of the Poisson pmf, `ln(e^{−λ} λ^k / k!)`.
///
/// Stable for any `λ > 0` and any `k`.
///
/// # Panics
///
/// Panics if `λ <= 0` or `λ` is not finite.
///
/// # Example
///
/// ```
/// let lp = somrm_num::poisson::ln_pmf(2.0, 2);
/// assert!((lp.exp() - 2.0 * (-2.0f64).exp()).abs() < 1e-15);
/// ```
pub fn ln_pmf(lambda: f64, k: u64) -> f64 {
    assert!(
        lambda > 0.0 && lambda.is_finite(),
        "Poisson rate must be positive and finite, got {lambda}"
    );
    k as f64 * lambda.ln() - lambda - ln_factorial(k)
}

/// The Poisson pmf `e^{−λ} λ^k / k!`, underflowing gracefully to zero.
pub fn pmf(lambda: f64, k: u64) -> f64 {
    ln_pmf(lambda, k).exp()
}

/// All Poisson weights `w_0 .. w_gmax` as a vector.
///
/// Each entry is computed independently in log space (no error
/// accumulation along the recurrence); entries below the underflow
/// threshold are exactly `0.0`, which is what the randomization solver
/// wants — those terms cannot contribute anyway.
pub fn weights_upto(lambda: f64, gmax: u64) -> Vec<f64> {
    (0..=gmax).map(|k| pmf(lambda, k)).collect()
}

/// Poisson weights `w_0 .. w_g` with the underflowed right tail trimmed:
/// the vector ends at the last index `≤ gmax` whose weight is non-zero.
///
/// A multi-time sweep truncates the recursion at the `G` of the
/// *largest* time, but a small time's weights underflow to exact `0.0`
/// far earlier; allocating each vector to the global `G` costs
/// `O(T·G_max)` memory for entries that can never contribute. Trimming
/// where the weights are exactly `0.0` changes no computed value — the
/// solver treats out-of-range indices as weight zero — so results stay
/// bit-identical to [`weights_upto`].
pub fn weights_trimmed(lambda: f64, gmax: u64) -> Vec<f64> {
    if pmf(lambda, gmax) > 0.0 {
        return weights_upto(lambda, gmax);
    }
    // The pmf is unimodal with a never-underflowing mode, so beyond the
    // mode "weight > 0" is a monotone predicate: bisect for the cut.
    let mut lo = (lambda.floor() as u64).min(gmax); // pmf > 0 here
    let mut hi = gmax; // pmf == 0 here
    debug_assert!(pmf(lambda, lo) > 0.0);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pmf(lambda, mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    weights_upto(lambda, lo)
}

/// CDF `P[Pois(λ) ≤ k]`, computed by compensated summation of the pmf.
pub fn cdf(lambda: f64, k: u64) -> f64 {
    let mut acc = NeumaierSum::new();
    for j in 0..=k {
        acc.add(pmf(lambda, j));
    }
    acc.value().min(1.0)
}

/// Natural log of the upper tail `P[Pois(λ) > g]`.
///
/// For `g` beyond the mean the tail is summed directly upward from
/// `g + 1` (terms decay geometrically), so the result is accurate even
/// when the tail is far below `f64` underflow would allow in linear
/// space — this is exactly what the Theorem-4 truncation search needs,
/// where the tail is compared against `ε / (2 dⁿ n! (qt)ⁿ)` which can be
/// as small as `1e-70`.
pub fn ln_tail_above(lambda: f64, g: u64) -> f64 {
    if (g as f64) < lambda {
        // Tail is O(1): compute 1 − CDF(g) directly.
        let t = 1.0 - cdf(lambda, g);
        return if t <= 0.0 { f64::NEG_INFINITY } else { t.ln() };
    }
    // Sum t_j = pmf(g+1+j) relative to the first term:
    //   t_{j+1}/t_j = λ/(g+2+j) < 1.
    let first_ln = ln_pmf(lambda, g + 1);
    let mut rel = 1.0f64;
    let mut acc = NeumaierSum::with_value(1.0);
    let mut k = g + 2;
    loop {
        rel *= lambda / k as f64;
        acc.add(rel);
        if rel < 1e-18 * acc.value() {
            break;
        }
        k += 1;
    }
    first_ln + acc.value().ln()
}

/// Upper tail `P[Pois(λ) > g]` in linear space.
pub fn tail_above(lambda: f64, g: u64) -> f64 {
    ln_tail_above(lambda, g).exp()
}

/// Natural log of the lower tail `P[Pois(λ) < l]`; `−∞` at `l = 0`.
///
/// The mirror of [`ln_tail_above`] for the left edge of the series:
/// left of the mean the tail is summed directly downward from `l − 1`
/// (terms decay geometrically), so it stays accurate where the linear
/// value would underflow — `P[Pois(2000) < 1000]` is about `e^{−300}`.
pub fn ln_tail_below(lambda: f64, l: u64) -> f64 {
    if l == 0 {
        return f64::NEG_INFINITY;
    }
    if (l - 1) as f64 > lambda {
        // Tail is O(1): sum the CDF directly.
        return cdf(lambda, l - 1).ln();
    }
    // Sum t_j = pmf(l−1−j) relative to the first term:
    //   t_{j+1}/t_j = (l−1−j)/λ < 1.
    let first_ln = ln_pmf(lambda, l - 1);
    let mut rel = 1.0f64;
    let mut acc = NeumaierSum::with_value(1.0);
    let mut k = l - 1;
    while k > 0 {
        rel *= k as f64 / lambda;
        acc.add(rel);
        if rel < 1e-18 * acc.value() {
            break;
        }
        k -= 1;
    }
    first_ln + acc.value().ln()
}

/// A contiguous window `[left, right]` of Poisson weights covering all
/// but at most `eps` of the probability mass.
///
/// This is the classical Fox–Glynn-style truncation used by CTMC
/// uniformization: iterate matrix-vector products only for `k ≤ right`,
/// and start accumulating at `k = left`.
///
/// # Example
///
/// ```
/// use somrm_num::poisson::PoissonWindow;
///
/// let w = PoissonWindow::new(50.0, 1e-10);
/// assert!(w.left() <= 50 && 50 <= w.right());
/// let mass: f64 = w.weights().iter().sum();
/// assert!(mass > 1.0 - 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonWindow {
    lambda: f64,
    left: u64,
    weights: Vec<f64>,
}

impl PoissonWindow {
    /// Builds the window for rate `lambda`, discarding at most `eps`
    /// total mass (split between the two tails).
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0`, `lambda` is not finite, or `eps` is not in
    /// `(0, 1)`.
    pub fn new(lambda: f64, eps: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "Poisson rate must be positive and finite, got {lambda}"
        );
        assert!(eps > 0.0 && eps < 1.0, "eps must lie in (0,1), got {eps}");
        let mode = lambda.floor() as u64;
        let half_ln_eps = (eps / 2.0).ln();

        // Walk left from the mode until the pmf alone drops below eps/2
        // (pmf ≥ tail mass beyond that point, up to a polynomial factor,
        // so add a safety margin afterwards).
        let mut left = mode;
        while left > 0 && ln_pmf(lambda, left - 1) > half_ln_eps - (lambda.sqrt().ln() + 2.0) {
            left -= 1;
        }
        // Walk right until the upper tail is below eps/2.
        let mut right = mode.max(left) + 1;
        let step = (lambda.sqrt().ceil() as u64).max(4);
        while ln_tail_above(lambda, right) > half_ln_eps {
            right += step;
        }
        let weights = (left..=right).map(|k| pmf(lambda, k)).collect();
        Self {
            lambda,
            left,
            weights,
        }
    }

    /// The *exact-underflow* window `[left, right] ⊆ [0, gmax]`: every
    /// index whose pmf is representable as a non-zero `f64`, and nothing
    /// else. All stored weights are `> 0.0`; everything outside is an
    /// exact `0.0`, so a solver that skips the excluded indices computes
    /// **bit-identical** results to one iterating the full `0..=gmax`
    /// range (the skipped terms are multiplications by exact zero).
    ///
    /// At the paper's `qt = 40,000` the left edge sits near
    /// `k ≈ 32,000` — about ⅘ of the [`weights_trimmed`] vector is exact
    /// zeros that [`weights_upto`] would compute, store, and an
    /// accumulation loop would then filter out one by one. The
    /// randomization solvers start further right, at an ε-budgeted
    /// floor ([`PoissonWindow::exact_from`]); the first-order reference
    /// solver iterates this window.
    ///
    /// Both edges are found by bisection (`O(log gmax)` pmf
    /// evaluations): the pmf is unimodal, so "pmf > 0" is monotone on
    /// each side of the mode. A short safety walk at each edge guards
    /// the (never observed) case of non-monotone rounding at the
    /// underflow boundary.
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0` or `lambda` is not finite.
    pub fn exact(lambda: f64, gmax: u64) -> Self {
        Self::exact_from(lambda, 0, gmax)
    }

    /// [`PoissonWindow::exact`] with a left floor: the window starts at
    /// `max(floor, first non-zero weight)` and keeps the exact window's
    /// right edge. Every stored weight equals the exact window's bit for
    /// bit; below the floor [`PoissonWindow::weight`] reads `0.0`. The
    /// floor is clamped to the mode (`⌊λ⌋`, or `gmax` below it), so the
    /// window is never empty.
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0` or `lambda` is not finite.
    pub fn exact_from(lambda: f64, floor: u64, gmax: u64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "Poisson rate must be positive and finite, got {lambda}"
        );
        let mode = (lambda.floor() as u64).min(gmax);
        debug_assert!(pmf(lambda, mode) > 0.0, "mode weight cannot underflow");
        let floor = floor.min(mode);

        // Left edge: smallest k ≥ floor with pmf(k) > 0.
        let mut left = if pmf(lambda, floor) > 0.0 {
            floor
        } else {
            let mut lo = floor; // pmf == 0 here
            let mut hi = mode; // pmf > 0 here
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if pmf(lambda, mid) > 0.0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            hi
        };
        while left > floor && pmf(lambda, left - 1) > 0.0 {
            left -= 1;
        }

        // Right edge: largest k ≤ gmax with pmf(k) > 0.
        let mut right = if pmf(lambda, gmax) > 0.0 {
            gmax
        } else {
            let mut lo = mode; // pmf > 0 here
            let mut hi = gmax; // pmf == 0 here
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if pmf(lambda, mid) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        while right < gmax && pmf(lambda, right + 1) > 0.0 {
            right += 1;
        }

        let weights: Vec<f64> = (left..=right).map(|k| pmf(lambda, k)).collect();
        debug_assert!(weights.iter().all(|&w| w > 0.0));
        Self {
            lambda,
            left,
            weights,
        }
    }

    /// The Poisson rate this window was built for.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// First index covered by the window.
    pub fn left(&self) -> u64 {
        self.left
    }

    /// Last index covered by the window.
    pub fn right(&self) -> u64 {
        self.left + self.weights.len() as u64 - 1
    }

    /// The weights `w_left .. w_right`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The weight of index `k` (zero outside the window).
    pub fn weight(&self, k: u64) -> f64 {
        if k < self.left {
            0.0
        } else {
            self.weights
                .get((k - self.left) as usize)
                .copied()
                .unwrap_or(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_small_rate_matches_direct() {
        let lambda = 2.5f64;
        let mut fact = 1.0;
        for k in 0..15u64 {
            if k > 0 {
                fact *= k as f64;
            }
            let direct = (-lambda).exp() * lambda.powi(k as i32) / fact;
            assert!((pmf(lambda, k) - direct).abs() < 1e-15, "k = {k}");
        }
    }

    #[test]
    fn pmf_huge_rate_no_underflow_at_mode() {
        // At λ = 40000 the mode weight is ≈ 1/sqrt(2πλ) ≈ 2e-3.
        let lambda = 40_000.0;
        let w = pmf(lambda, 40_000);
        assert!((w - 1.0 / (2.0 * std::f64::consts::PI * lambda).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn weights_sum_to_one() {
        for &lambda in &[0.5f64, 3.0, 64.0, 1000.0, 40_000.0] {
            let gmax = (lambda + 12.0 * lambda.sqrt() + 30.0) as u64;
            let w = weights_upto(lambda, gmax);
            let s: f64 = w.iter().copied().collect::<NeumaierSum>().value();
            assert!((s - 1.0).abs() < 1e-10, "lambda = {lambda}, sum = {s}");
        }
    }

    #[test]
    fn trimmed_weights_are_a_prefix_of_full_weights() {
        for &(lambda, gmax) in &[(0.5f64, 4000u64), (8.0, 2500), (100.0, 10_000)] {
            let full = weights_upto(lambda, gmax);
            let trimmed = weights_trimmed(lambda, gmax);
            assert!(trimmed.len() < full.len(), "lambda = {lambda}: should trim");
            assert_eq!(trimmed[..], full[..trimmed.len()], "lambda = {lambda}");
            assert!(*trimmed.last().unwrap() > 0.0, "last kept weight non-zero");
            // Everything trimmed away was an exact zero.
            assert!(full[trimmed.len()..].iter().all(|&w| w == 0.0));
        }
    }

    #[test]
    fn trimmed_weights_keep_everything_when_no_underflow() {
        let lambda = 50.0;
        let gmax = 120;
        assert_eq!(weights_trimmed(lambda, gmax), weights_upto(lambda, gmax));
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let lambda = 7.3;
        let mut prev = 0.0;
        for k in 0..60 {
            let c = cdf(lambda, k);
            assert!(c >= prev && c <= 1.0);
            prev = c;
        }
        assert!(prev > 1.0 - 1e-12);
    }

    #[test]
    fn tail_matches_one_minus_cdf_in_bulk() {
        let lambda = 100.0;
        for g in [80u64, 100, 120, 150] {
            let direct = 1.0 - cdf(lambda, g);
            let tail = tail_above(lambda, g);
            // Compare with an *absolute* tolerance: the 1 − cdf reference
            // itself carries ~1e-13 absolute cancellation error on small
            // tails, where `tail_above` is the more accurate of the two.
            assert!(
                (tail - direct).abs() < 1e-10,
                "g = {g}: {tail} vs {direct}"
            );
        }
    }

    #[test]
    fn ln_tail_deep_is_finite_and_monotone() {
        // Deep tail of Pois(64): far below linear-space underflow is not
        // reached here, but check monotone decrease and rough magnitude.
        let lambda = 64.0;
        let mut prev = f64::INFINITY;
        for g in (70..400).step_by(10) {
            let lt = ln_tail_above(lambda, g);
            assert!(lt < prev, "tail must decrease, g = {g}");
            prev = lt;
        }
        // P[Pois(64) > 300] is astronomically small but finite in log space.
        let lt = ln_tail_above(64.0, 300);
        assert!(lt.is_finite() && lt < -200.0);
    }

    #[test]
    fn lower_tail_matches_cdf_in_bulk() {
        let lambda = 100.0;
        for l in [60u64, 80, 100] {
            let direct = cdf(lambda, l - 1);
            let tail = ln_tail_below(lambda, l).exp();
            assert!(
                (tail - direct).abs() <= 1e-13 * direct,
                "l = {l}: {tail} vs {direct}"
            );
        }
    }

    #[test]
    fn ln_lower_tail_deep_is_finite_and_increasing() {
        // P[Pois(2000) < 1000] ≈ e^{−300}: far below what 1 − tail or a
        // linear-space CDF could resolve.
        let lambda = 2_000.0;
        let mut prev = f64::NEG_INFINITY;
        for l in (1_000..=1_900).step_by(25) {
            let lt = ln_tail_below(lambda, l);
            assert!(lt.is_finite(), "l = {l}");
            assert!(lt > prev, "tail must increase, l = {l}");
            prev = lt;
        }
        assert!(ln_tail_below(lambda, 1_000) < -250.0);
        assert_eq!(ln_tail_below(lambda, 0), f64::NEG_INFINITY);
        assert_eq!(ln_tail_below(3.0, 0), f64::NEG_INFINITY);
    }

    #[test]
    fn floored_window_is_the_exact_window_above_its_floor() {
        for &(lambda, floor, gmax) in &[
            (400.0f64, 250u64, 520u64),
            (2_000.0, 1_486, 2_378),
            (2_000.0, 100, 2_378), // floor below the underflow edge
            (5.0, 50, 40),         // floor past the mode: clamped
        ] {
            let exact = PoissonWindow::exact(lambda, gmax);
            let cut = PoissonWindow::exact_from(lambda, floor, gmax);
            assert_eq!(cut.left(), floor.min(lambda as u64).max(exact.left()));
            assert_eq!(cut.right(), exact.right());
            for k in 0..=gmax {
                if k < cut.left() {
                    assert_eq!(cut.weight(k), 0.0, "lambda = {lambda}, k = {k}");
                } else {
                    assert_eq!(
                        cut.weight(k).to_bits(),
                        exact.weight(k).to_bits(),
                        "lambda = {lambda}, k = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_covers_requested_mass() {
        for &(lambda, eps) in &[(1.0, 1e-8), (64.0, 1e-10), (5_000.0, 1e-12)] {
            let w = PoissonWindow::new(lambda, eps);
            let mass: f64 = w.weights().iter().copied().collect::<NeumaierSum>().value();
            assert!(mass > 1.0 - eps - 1e-9, "lambda = {lambda}: mass = {mass}");
            assert!(mass <= 1.0 + 1e-9);
            // The window should not be absurdly wide: O(sqrt) tails.
            let width = (w.right() - w.left()) as f64;
            assert!(width < 30.0 * lambda.sqrt() + 60.0, "width = {width}");
        }
    }

    #[test]
    fn window_weight_accessor_consistent() {
        let w = PoissonWindow::new(400.0, 1e-10);
        assert!(w.left() > 0, "window for large λ must truncate the left tail");
        assert_eq!(w.weight(w.left() - 1), 0.0);
        assert_eq!(w.weight(w.right() + 1), 0.0);
        assert!((w.weight(400) - pmf(400.0, 400)).abs() < 1e-16);
        assert_eq!(w.lambda(), 400.0);
    }

    #[test]
    fn exact_window_is_the_nonzero_support_of_weights_upto() {
        for &(lambda, gmax) in &[
            (0.5f64, 40u64),
            (8.0, 2500),
            (100.0, 10_000),
            (1000.0, 1300),
            (5000.0, 6000),
        ] {
            let full = weights_upto(lambda, gmax);
            let w = PoissonWindow::exact(lambda, gmax);
            assert!(w.weights().iter().all(|&x| x > 0.0), "lambda = {lambda}");
            for k in 0..=gmax {
                assert_eq!(
                    w.weight(k),
                    full[k as usize],
                    "lambda = {lambda}, k = {k}"
                );
            }
            // Edge weights are the first/last non-zeros of the full vector.
            let first_nz = full.iter().position(|&x| x > 0.0).unwrap() as u64;
            let last_nz = full.iter().rposition(|&x| x > 0.0).unwrap() as u64;
            assert_eq!(w.left(), first_nz, "lambda = {lambda}");
            assert_eq!(w.right(), last_nz, "lambda = {lambda}");
        }
    }

    #[test]
    fn exact_window_skips_deep_left_tail_at_paper_scale() {
        // The paper's qt = 40,000: the left tail underflows to exact 0.0
        // for roughly the first 32,000 indices — the window must exclude
        // them without computing each one.
        let w = PoissonWindow::exact(40_000.0, 42_082);
        assert!(w.left() > 30_000, "left edge {}", w.left());
        assert!(w.left() < 40_000);
        assert_eq!(w.right(), 42_082, "no right underflow before gmax here");
        assert_eq!(w.weight(w.left() - 1), 0.0);
        assert!(w.weight(w.left()) > 0.0);
        let mass: f64 = w.weights().iter().copied().collect::<NeumaierSum>().value();
        assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exact_window_small_gmax_keeps_everything() {
        // No underflow anywhere in range: window is the whole [0, gmax].
        let w = PoissonWindow::exact(3.0, 20);
        assert_eq!(w.left(), 0);
        assert_eq!(w.right(), 20);
        assert_eq!(w.weights().len(), 21);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn exact_window_rejects_bad_rate() {
        PoissonWindow::exact(-1.0, 10);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn window_rejects_bad_rate() {
        PoissonWindow::new(0.0, 1e-9);
    }

    #[test]
    #[should_panic(expected = "eps must lie in (0,1)")]
    fn window_rejects_bad_eps() {
        PoissonWindow::new(1.0, 0.0);
    }
}
