//! Machine-speed calibration. On a shared host the speed of a virtual
//! CPU drifts by tens of percent within seconds and from minute to
//! minute, as other guests contend for the physical core, its caches and
//! its clock, and every CPU time the benchmark measures drifts with it.
//! So the benchmark also times a fixed calibration kernel, its own code
//! and none of the program's, in short slices on the CPU that does the
//! measured work, next to that work, and scales each CPU time by the
//! slice's reference time over the median slice timed next to it: times
//! are reported as they would read on a reference machine on which one
//! slice takes [`Kernel::reference_s`] of CPU time. The slice's working
//! set matches the measured work's, since contention slows work that
//! runs from the first-level cache and work that streams from the
//! last-level cache by different amounts.

use crate::stats::{median, ThreadClock};
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// A CPU time is scaled by the slices timed this close to it.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Gap between the stencil's two arrays: their distance is then 2 KiB
/// away from a multiple of 4 KiB, so the loads and stores never alias
/// in the CPU's store buffer, wherever the buffer lands.
const GAP: usize = 256;
const NUMBERS: usize = 2200;

/// Which slice a calibration times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The stencil swept 140 times over two arrays of 2,048 doubles
    /// (floating-point streaming from the L1 cache, as in the solver's
    /// kernel on a small model) and the parse of 2,200 decimal numbers
    /// (branchy byte-by-byte code, as in the model and request parsers),
    /// about half each.
    Small,
    /// The stencil swept twice over two arrays of 1.5 million doubles,
    /// 24 MB together: streaming from the last-level cache, as the
    /// solver's kernel does on the paper's 200,001-state model.
    Large,
}

impl Kernel {
    fn points(self) -> usize {
        match self {
            Kernel::Small => 2048,
            Kernel::Large => 1_500_000,
        }
    }

    fn sweeps(self) -> usize {
        match self {
            Kernel::Small => 140,
            Kernel::Large => 2,
        }
    }

    /// CPU seconds of one slice on the reference machine.
    pub fn reference_s(self) -> f64 {
        match self {
            Kernel::Small => 200e-6,
            Kernel::Large => 5e-3,
        }
    }
}

/// Decimal numbers in the form the model and request formats use.
fn text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        (0..NUMBERS)
            .map(|i| format!("{}.{:06}e-{} ", i % 97, (i * 7919) % 1_000_000, i % 5))
            .collect()
    })
}

/// `sweeps` sweeps of a three-point stencil, as fused multiply-adds,
/// between the two arrays of `points` doubles at either end of `buf`.
#[inline(always)]
fn stencil(buf: &mut [f64], points: usize, sweeps: usize) -> f64 {
    let (a, b) = buf.split_at_mut(points + GAP);
    let (mut x, mut y) = (&mut a[..points], &mut b[..points]);
    for (i, v) in x.iter_mut().enumerate() {
        *v = (i % 13) as f64;
    }
    for _ in 0..sweeps {
        for i in 1..points - 1 {
            y[i] = 0.25f64.mul_add(x[i - 1], 0.5f64.mul_add(x[i], 0.25 * x[i + 1]));
        }
        std::mem::swap(&mut x, &mut y);
        black_box(&mut *x);
    }
    x[points / 2]
}

/// [`stencil`] compiled for AVX2 and FMA, the instruction sets the
/// solver's kernel uses where the CPU has them.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn stencil_avx2(buf: &mut [f64], points: usize, sweeps: usize) -> f64 {
    stencil(buf, points, sweeps)
}

/// One slice of `kernel` in `buf`, which holds `2 * points + GAP`
/// doubles.
fn slice(kernel: Kernel, buf: &mut [f64]) -> f64 {
    let (points, sweeps) = (kernel.points(), kernel.sweeps());
    #[cfg(target_arch = "x86_64")]
    let swept = if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        // SAFETY: both features were just detected on this CPU.
        unsafe { stencil_avx2(buf, points, sweeps) }
    } else {
        stencil(buf, points, sweeps)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let swept = stencil(buf, points, sweeps);
    if kernel == Kernel::Large {
        return swept;
    }
    let parsed: f64 = black_box(text())
        .split_ascii_whitespace()
        .map(|s| s.parse::<f64>().unwrap_or(0.0))
        .sum();
    swept + parsed
}

/// A CPU time and when it was measured.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at: Instant,
    pub cpu: f64,
}

/// The calibration slices of one part of a run: when each was timed
/// and its CPU seconds.
pub struct Calibration {
    kernel: Kernel,
    /// The stencil's arrays, allocated once.
    buf: Mutex<Vec<f64>>,
    slices: Mutex<Vec<(Instant, f64)>>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration::new(Kernel::Small)
    }
}

impl Calibration {
    pub fn new(kernel: Kernel) -> Calibration {
        Calibration {
            kernel,
            buf: Mutex::new(vec![0.0; 2 * kernel.points() + GAP]),
            slices: Mutex::default(),
        }
    }

    /// [`Kernel::reference_s`] over the median of `slices`, or 1 for
    /// none.
    fn factor_of(&self, slices: &[f64]) -> f64 {
        let m = median(slices);
        if m > 0.0 {
            self.kernel.reference_s() / m
        } else {
            1.0
        }
    }

    fn slices(&self) -> MutexGuard<'_, Vec<(Instant, f64)>> {
        self.slices
            .lock()
            .expect("the slice lock is never held across a panic")
    }

    fn cpu(&self) -> Vec<f64> {
        self.slices().iter().map(|s| s.1).collect()
    }

    /// Times `n` slices on the calling thread's CPU clock; returns the
    /// factor for a CPU time measured next to them.
    pub fn time(&self, n: usize) -> f64 {
        let clock = ThreadClock::current();
        let mut buf = self
            .buf
            .lock()
            .expect("the buffer lock is never held across a panic");
        let mut cpu = Vec::with_capacity(n);
        for _ in 0..n {
            let cpu0 = clock.seconds();
            black_box(slice(self.kernel, &mut buf));
            cpu.push(clock.seconds() - cpu0);
        }
        let at = Instant::now();
        self.slices().extend(cpu.iter().map(|&c| (at, c)));
        self.factor_of(&cpu)
    }

    pub fn count(&self) -> usize {
        self.slices().len()
    }

    /// Size of the stencil's arrays, in MiB.
    pub fn buffer_mib(&self) -> f64 {
        (2 * self.kernel.points() + GAP) as f64 * 8.0 / (1024.0 * 1024.0)
    }

    /// CPU seconds spent in slices.
    pub fn total_s(&self) -> f64 {
        self.cpu().iter().sum()
    }

    /// Median CPU seconds of a slice.
    pub fn median_s(&self) -> f64 {
        median(&self.cpu())
    }

    /// The factor of all slices.
    pub fn factor(&self) -> f64 {
        self.factor_of(&self.cpu())
    }

    /// The factor of the slices timed within [`WINDOW`] of `at`, or of
    /// all slices when none was.
    pub fn factor_near(&self, at: Instant) -> f64 {
        let near: Vec<f64> = self
            .slices()
            .iter()
            .filter(|(t, _)| t.max(&at).duration_since(*t.min(&at)) <= WINDOW)
            .map(|s| s.1)
            .collect();
        if near.is_empty() {
            self.factor()
        } else {
            self.factor_of(&near)
        }
    }

    /// Each sample's CPU time at the reference speed of the slices
    /// timed near it.
    pub fn scale(&self, samples: &[Sample]) -> Vec<f64> {
        samples
            .iter()
            .map(|s| s.cpu * self.factor_near(s.at))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_deterministic_and_factors_scale_to_the_reference() {
        for kernel in [Kernel::Small, Kernel::Large] {
            let mut buf = vec![0.0; 2 * kernel.points() + GAP];
            let first = slice(kernel, &mut buf);
            assert_eq!(first.to_bits(), slice(kernel, &mut buf).to_bits());
        }
        let cal = Calibration::default();
        assert_eq!(cal.factor(), 1.0);
        let f = cal.time(5);
        assert_eq!(cal.count(), 5);
        assert_eq!(f, cal.factor());
        let reference = Kernel::Small.reference_s();
        assert!((cal.factor() * cal.median_s() - reference).abs() < 1e-15);
        let now = Instant::now();
        assert_eq!(cal.factor_near(now), f);
        // No slice near: the factor of all slices.
        let later = now + Duration::from_secs(3600);
        assert_eq!(cal.factor_near(later), f);
        let scaled = cal.scale(&[Sample { at: now, cpu: 2.0 }]);
        assert_eq!(scaled, vec![2.0 * f]);
    }
}
