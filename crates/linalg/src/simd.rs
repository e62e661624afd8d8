//! Vectorized kernel primitives.
//!
//! The fused randomization kernel ([`crate::fused`]) has one
//! arithmetic: strict f64 in a canonical order. Every dot product is the
//! plain chain `dot + v·x` from `0.0` over ascending columns, every
//! diagonal combine is `(dot + r'·w₁) + ½s'·w₂`, and no multiply-add is
//! ever fused. Its row loops are written once over `Lanes`, a group
//! of rows held in registers: four rows in an AVX2 `__m256d`, or one
//! plain `f64` (the portable path and the remainder rows). Each lane
//! operation is the correctly rounded f64 operation of that lane, so
//! both widths give the same bits, on every CPU.
//!
//! Runtime dispatch: the AVX2 code paths are compiled behind
//! `#[target_feature(enable = "avx2")]` and selected once per process
//! via `is_x86_feature_detected!`; without AVX2 the same loops run on
//! the `f64` lanes.

use somrm_num::sum::neumaier_add;

/// A kernel selector with a single value. Nothing under `crates/` reads
/// it: the kernel has one arithmetic, and its lane width follows the
/// CPU. It stays only because the benchmark still names it (with
/// `SolverConfig::kernel`), and the next benchmark change removes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelVariant {
    /// The only kernel.
    #[default]
    Auto,
}

impl KernelVariant {
    /// The variant itself (there is nothing to resolve).
    pub fn resolve(self) -> KernelVariant {
        self
    }

    /// The lanes the kernel runs on this CPU: `"avx2"` or `"portable"`.
    pub fn name(self) -> &'static str {
        if avx2_available() {
            "avx2"
        } else {
            "portable"
        }
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("auto")
    }
}

/// Whether the AVX2 lanes are usable on this CPU. Detected once.
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Detected CPU features relevant to kernel dispatch, as a
/// comma-separated list (recorded in bench metadata so baselines are
/// only compared like-for-like).
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        for (name, present) in [
            ("sse2", true), // baseline on x86_64
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                feats.push(name);
            }
        }
        feats.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("portable")
    }
}

/// Hints the CPU to pull the cache line holding `p` (read intent).
/// No-op on targets without a prefetch instruction. Used by the CSR
/// gather to hide the latency of the indirect `u[col_idx[k]]` loads.
#[inline(always)]
pub fn prefetch_read(p: *const f64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it never faults, even on invalid
    // addresses, so any pointer value is acceptable.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

/// Adds one combine term in place: `out[i] ← out[i] + a[i]·x[i]`, a
/// plain product and then a plain sum. Applied for the `R'` term and then
/// for the `½S'` term, it gives the canonical combine
/// `(dot + r'·w₁) + ½s'·w₂`.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub(crate) fn axpy(out: &mut [f64], a: &[f64], x: &[f64]) {
    assert!(
        a.len() == out.len() && x.len() == out.len(),
        "axpy: length mismatch"
    );
    for ((o, &a), &x) in out.iter_mut().zip(a).zip(x) {
        *o += a * x;
    }
}

// ---------------------------------------------------------------------------
// Lanes: the register type of the fused row loops
// ---------------------------------------------------------------------------

/// A group of [`Lanes::WIDTH`] consecutive rows held in registers: the
/// unit the fused kernel's banded row loop and [`accumulate_planes`]
/// are written over once, for the AVX2 `__m256d` (4 rows) and for a
/// plain `f64` (1 row — the portable path and the remainder rows).
/// Every operation is correctly rounded lane by lane, so both widths
/// give identical bits on the same rows.
pub(crate) trait Lanes: Copy {
    /// Rows per group.
    const WIDTH: usize;

    /// Loads `WIDTH` consecutive values.
    ///
    /// # Safety
    ///
    /// `p..p + WIDTH` must be readable, and the CPU must support the
    /// type's instructions (AVX2 for `Avx2Lanes`).
    unsafe fn load(p: *const f64) -> Self;

    /// Every lane set to `x`.
    ///
    /// # Safety
    ///
    /// The CPU must support the type's instructions.
    unsafe fn splat(x: f64) -> Self;

    /// Stores the lanes to `p..p + WIDTH`.
    ///
    /// # Safety
    ///
    /// `p..p + WIDTH` must be writable and not aliased by a live
    /// reference.
    unsafe fn store(self, p: *mut f64);

    /// Lane-wise plain product `self·b`.
    fn mul(self, b: Self) -> Self;

    /// Lane-wise plain sum `self + b`.
    fn add(self, b: Self) -> Self;

    /// The lanes rotated down by `r`: lane `l` takes lane
    /// `(l + r) % WIDTH`.
    fn rotate(self, r: usize) -> Self;

    /// Neumaier update of the accumulator cells whose sums start at `sum`
    /// and compensations at `comp`: per lane, bitwise
    /// [`somrm_num::sum::neumaier_add`].
    ///
    /// # Safety
    ///
    /// Both ranges must be readable and writable for `WIDTH` values and
    /// not aliased by a live reference.
    unsafe fn neumaier(sum: *mut f64, comp: *mut f64, x: Self);
}

impl Lanes for f64 {
    const WIDTH: usize = 1;

    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        *p
    }

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        x
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        *p = self;
    }

    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        self * b
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        self + b
    }

    #[inline(always)]
    fn rotate(self, _: usize) -> Self {
        self
    }

    #[inline(always)]
    unsafe fn neumaier(sum: *mut f64, comp: *mut f64, x: Self) {
        neumaier_add(&mut *sum, &mut *comp, x);
    }
}

/// Four rows in one AVX2 register. Values only come from the unsafe
/// [`Lanes::load`]/[`Lanes::splat`], whose callers guarantee AVX2, so
/// the safe arithmetic on an existing value is sound.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx2Lanes(core::arch::x86_64::__m256d);

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx2Lanes {
    const WIDTH: usize = 4;

    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        Avx2Lanes(core::arch::x86_64::_mm256_loadu_pd(p))
    }

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Avx2Lanes(core::arch::x86_64::_mm256_set1_pd(x))
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        core::arch::x86_64::_mm256_storeu_pd(p, self.0);
    }

    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        // SAFETY: an `Avx2Lanes` exists only on AVX2 hardware.
        Avx2Lanes(unsafe { core::arch::x86_64::_mm256_mul_pd(self.0, b.0) })
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        // SAFETY: as in `mul`.
        Avx2Lanes(unsafe { core::arch::x86_64::_mm256_add_pd(self.0, b.0) })
    }

    #[inline(always)]
    fn rotate(self, r: usize) -> Self {
        use core::arch::x86_64::_mm256_permute4x64_pd as permute;
        // SAFETY: as in `mul`.
        Avx2Lanes(unsafe {
            match r % 4 {
                0 => self.0,
                1 => permute::<0b00_11_10_01>(self.0),
                2 => permute::<0b01_00_11_10>(self.0),
                _ => permute::<0b10_01_00_11>(self.0),
            }
        })
    }

    #[inline(always)]
    unsafe fn neumaier(sum: *mut f64, comp: *mut f64, x: Self) {
        use core::arch::x86_64::*;
        // The `|sum| ≥ |x|` branch of the scalar update becomes a
        // compare and two blends selecting the same operands; with the
        // sums and compensations in separate planes no shuffles are
        // needed.
        let x = x.0;
        let s = _mm256_loadu_pd(sum);
        let c = _mm256_loadu_pd(comp);
        let t = _mm256_add_pd(s, x);
        let sign = _mm256_set1_pd(-0.0);
        let ge = _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_andnot_pd(sign, s), _mm256_andnot_pd(sign, x));
        let big = _mm256_blendv_pd(x, s, ge);
        let small = _mm256_blendv_pd(s, x, ge);
        _mm256_storeu_pd(sum, t);
        _mm256_storeu_pd(
            comp,
            _mm256_add_pd(c, _mm256_add_pd(_mm256_sub_pd(big, t), small)),
        );
    }
}

// ---------------------------------------------------------------------------
// accumulate_planes: Neumaier-add wk·u[i] into (sums[i], comps[i])
// ---------------------------------------------------------------------------

/// Folds one Poisson-weighted term into a strip of compensated
/// accumulators stored as two planes: `(sums[i], comps[i]) ⊕ wk·u[i]`.
///
/// Bitwise identical to [`neumaier_add`] of the plain product `wk·u[i]`
/// per cell, on either lane width.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub(crate) fn accumulate_planes(sums: &mut [f64], comps: &mut [f64], u: &[f64], wk: f64) {
    assert!(
        sums.len() == u.len() && comps.len() == u.len(),
        "accumulate_planes: length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: gated on runtime AVX2 detection; lengths checked.
        unsafe { accumulate_planes_avx2(sums, comps, u, wk) };
        return;
    }
    // SAFETY: lengths checked above.
    unsafe { accumulate_planes_from::<f64>(sums, comps, u, wk, 0) };
}

/// # Safety
///
/// The CPU must support AVX2, and the slices must have equal lengths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_planes_avx2(sums: &mut [f64], comps: &mut [f64], u: &[f64], wk: f64) {
    let i = accumulate_planes_from::<Avx2Lanes>(sums, comps, u, wk, 0);
    accumulate_planes_from::<f64>(sums, comps, u, wk, i);
}

/// Rows `from..` in whole groups of `V::WIDTH`; returns the first row
/// left over.
///
/// # Safety
///
/// The slices have equal lengths and the CPU supports `V`.
#[inline(always)]
unsafe fn accumulate_planes_from<V: Lanes>(
    sums: &mut [f64],
    comps: &mut [f64],
    u: &[f64],
    wk: f64,
    from: usize,
) -> usize {
    let (ps, pc, pu) = (sums.as_mut_ptr(), comps.as_mut_ptr(), u.as_ptr());
    let w = V::splat(wk);
    let mut i = from;
    while i + V::WIDTH <= u.len() {
        V::neumaier(ps.add(i), pc.add(i), w.mul(V::load(pu.add(i))));
        i += V::WIDTH;
    }
    i
}

// ---------------------------------------------------------------------------
// Projection lanes: the π-projection partial sums of the weighted kernel
// ---------------------------------------------------------------------------

/// Lanes of one `(step, order)` projection partial sum: row `i` adds
/// `π[i]·u[i]` (plain multiply, then plain add) into lane
/// `i % PROJ_LANES`, so each lane sees its rows in ascending order
/// however a pass cuts its rows into blocks and chunks, and four
/// independent lanes keep the add chain off the critical path.
pub const PROJ_LANES: usize = 4;

/// Whether a `V` holds exactly the [`PROJ_LANES`] projection lanes (one
/// AVX2 register); narrower types add them row by row instead.
pub(crate) const fn lanes_fit<V: Lanes>() -> bool {
    V::WIDTH == PROJ_LANES
}

/// Loads projection `lanes` (indexed by row mod [`PROJ_LANES`]) into a
/// register for groups of four rows starting at row `first`: vector
/// lane `l` holds lane `(first + l) % PROJ_LANES`, so each group adds
/// lane by lane.
///
/// # Safety
///
/// The CPU must support `V`, and `V` must fit the lanes
/// ([`lanes_fit`]).
#[inline(always)]
pub(crate) unsafe fn load_lanes<V: Lanes>(lanes: &[f64; PROJ_LANES], first: usize) -> V {
    debug_assert!(lanes_fit::<V>());
    V::load(lanes.as_ptr()).rotate(first % PROJ_LANES)
}

/// Writes a register loaded by [`load_lanes`] with the same `first` back
/// to the lanes, un-rotated.
///
/// # Safety
///
/// As [`load_lanes`].
#[inline(always)]
pub(crate) unsafe fn store_lanes<V: Lanes>(acc: V, lanes: &mut [f64; PROJ_LANES], first: usize) {
    acc.rotate((PROJ_LANES - first % PROJ_LANES) % PROJ_LANES)
        .store(lanes.as_mut_ptr());
}

/// Adds `π[m]·u[m]` into `lanes[(first + m) % PROJ_LANES]` for every
/// `m`, bitwise as the row-by-row scalar loop would: whole groups of
/// [`PROJ_LANES`] rows in a register when `V` fits the lanes, then the
/// remainder row by row.
///
/// # Safety
///
/// `pi` and `u` have equal lengths, and the CPU supports `V`.
#[inline(always)]
pub(crate) unsafe fn project_strip<V: Lanes>(
    lanes: &mut [f64; PROJ_LANES],
    first: usize,
    pi: &[f64],
    u: &[f64],
) {
    let len = u.len();
    let mut m = 0;
    if lanes_fit::<V>() {
        let (pp, pu) = (pi.as_ptr(), u.as_ptr());
        let mut acc: V = load_lanes(lanes, first);
        while m + PROJ_LANES <= len {
            acc = acc.add(V::load(pp.add(m)).mul(V::load(pu.add(m))));
            m += PROJ_LANES;
        }
        store_lanes(acc, lanes, first);
    }
    for m in m..len {
        lanes[(first + m) % PROJ_LANES] += pi[m] * u[m];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_only_variant_names_the_lanes_it_runs() {
        let kernel = KernelVariant::default();
        assert_eq!(kernel.resolve(), KernelVariant::Auto);
        assert_eq!(kernel.to_string(), "auto");
        let want = if avx2_available() { "avx2" } else { "portable" };
        assert_eq!(kernel.resolve().name(), want);
    }

    #[test]
    fn cpu_features_nonempty() {
        let feats = cpu_features();
        assert!(!feats.is_empty());
        if avx2_available() {
            assert!(feats.contains("avx2"), "{feats}");
        }
    }

    #[test]
    fn project_strip_matches_the_row_by_row_lane_sums() {
        // 23 rows from an odd first row: rotation, whole groups and a
        // remainder all take part.
        let n = 23;
        let pi: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 3.0)).collect();
        let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).exp()).collect();
        for first in [0, 1, 6, 7] {
            let mut want = [0.5, 0.25, 0.125, 1.0];
            for m in 0..n {
                want[(first + m) % PROJ_LANES] += pi[m] * u[m];
            }
            let mut got = [0.5, 0.25, 0.125, 1.0];
            if avx2_available() {
                #[cfg(target_arch = "x86_64")]
                {
                    #[target_feature(enable = "avx2")]
                    unsafe fn avx2(l: &mut [f64; PROJ_LANES], f: usize, p: &[f64], u: &[f64]) {
                        project_strip::<Avx2Lanes>(l, f, p, u);
                    }
                    // SAFETY: AVX2 detected; equal lengths.
                    unsafe { avx2(&mut got, first, &pi, &u) };
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "avx2 from {first}"
                    );
                }
            }
            let mut portable = [0.5, 0.25, 0.125, 1.0];
            // SAFETY: equal lengths; plain `f64` lanes run on any CPU.
            unsafe { project_strip::<f64>(&mut portable, first, &pi, &u) };
            assert_eq!(
                portable.map(f64::to_bits),
                want.map(f64::to_bits),
                "portable from {first}"
            );
        }
    }

    #[test]
    fn accumulate_planes_bitwise_matches_scalar_neumaier() {
        // Mix magnitudes so the |sum| >= |x| branch goes both ways and
        // compensation terms are non-trivial; 13 rows leave a remainder.
        let n = 13;
        let wk = 0.3330000000000001;
        let mut sums: Vec<f64> = (0..n).map(|i| 1.0e15 * ((i % 3) as f64 - 1.0)).collect();
        let mut comps: Vec<f64> = (0..n).map(|i| 0.125 * i as f64).collect();
        let (mut ref_sums, mut ref_comps) = (sums.clone(), comps.clone());
        let u: Vec<f64> = (0..n)
            .map(|i| 1.0e15_f64.powi((i % 2) as i32) * 0.7 + i as f64)
            .collect();
        accumulate_planes(&mut sums, &mut comps, &u, wk);
        for i in 0..n {
            neumaier_add(&mut ref_sums[i], &mut ref_comps[i], wk * u[i]);
            assert_eq!(sums[i].to_bits(), ref_sums[i].to_bits(), "sum lane {i}");
            assert_eq!(
                comps[i].to_bits(),
                ref_comps[i].to_bits(),
                "compensation lane {i}"
            );
        }
    }
}
