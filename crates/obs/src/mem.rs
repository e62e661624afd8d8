//! Memory ledger: per-category byte gauges with peak tracking.
//!
//! The solver's capacity story is gated by a handful of allocations —
//! the iteration matrix, the fused kernel's `U`/accumulator working
//! set, the plan's diagonal vectors, and (in serve mode) the resident
//! plan cache. A [`MemLedger`] tracks each as a current/peak byte pair
//! using relaxed atomics, so writers on hot paths pay two uncontended
//! atomic ops and readers can snapshot at any time. Like the
//! `Recorder`, the ledger is **disabled by default**: solvers create
//! one only when telemetry is attached (`Option<Arc<MemLedger>>`), and
//! every byte it reports comes from the exact `FootprintBytes`
//! accounting in `somrm-linalg` — observation never changes what the
//! solver allocates or computes.
//!
//! Ledger state surfaces three ways: a [`MemSection`] in the
//! `SolveReport` JSON (`"mem"` key), `mem.*` gauges on the recorder
//! (which flow into the Prometheus export as `somrm_mem_*`), and the
//! serve stats sideband (`mem.cache.resident`). An OS sampler
//! ([`rss_sample`], or [`peak_rss_bytes`]/[`current_rss_bytes`]) reads
//! `/proc/self/status` so span boundaries can record the process
//! high-water mark next to the exact per-category numbers.

use std::sync::atomic::{AtomicU64, Ordering};

/// The allocation categories the ledger distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemCategory {
    /// CSR iteration-matrix storage (`row_ptr` + `col_idx` + values).
    MatrixCsr,
    /// DIA iteration-matrix storage (offsets + padded diagonals).
    MatrixDia,
    /// Fused-kernel working set: `U` ping-pong pair + accumulators.
    KernelBuffers,
    /// Plan-owned vectors (`R'`, `½S'`) beyond the matrix itself.
    Plan,
    /// Bytes resident in the serve plan cache across all entries.
    CacheResident,
}

impl MemCategory {
    /// Every category, in report order.
    pub const ALL: [MemCategory; 5] = [
        MemCategory::MatrixCsr,
        MemCategory::MatrixDia,
        MemCategory::KernelBuffers,
        MemCategory::Plan,
        MemCategory::CacheResident,
    ];

    /// Key inside the report's `"mem"` section (no `mem.` prefix).
    pub fn key(self) -> &'static str {
        match self {
            MemCategory::MatrixCsr => "matrix.csr",
            MemCategory::MatrixDia => "matrix.dia",
            MemCategory::KernelBuffers => "kernel.buffers",
            MemCategory::Plan => "plan",
            MemCategory::CacheResident => "cache.resident",
        }
    }

    /// Recorder gauge name (`somrm_mem_*` after Prometheus mangling).
    pub fn gauge_name(self) -> &'static str {
        match self {
            MemCategory::MatrixCsr => "mem.matrix.csr",
            MemCategory::MatrixDia => "mem.matrix.dia",
            MemCategory::KernelBuffers => "mem.kernel.buffers",
            MemCategory::Plan => "mem.plan",
            MemCategory::CacheResident => "mem.cache.resident",
        }
    }

    fn index(self) -> usize {
        match self {
            MemCategory::MatrixCsr => 0,
            MemCategory::MatrixDia => 1,
            MemCategory::KernelBuffers => 2,
            MemCategory::Plan => 3,
            MemCategory::CacheResident => 4,
        }
    }
}

#[derive(Debug, Default)]
struct Slot {
    current: AtomicU64,
    peak: AtomicU64,
}

/// Per-category current/peak byte gauges (relaxed atomics throughout —
/// the ledger is a monitor, not a synchronization point).
#[derive(Debug, Default)]
pub struct MemLedger {
    slots: [Slot; 5],
    peak_rss: AtomicU64,
}

impl MemLedger {
    /// An empty ledger (all gauges zero).
    pub fn new() -> MemLedger {
        MemLedger::default()
    }

    /// Sets a category's current bytes, raising its peak if exceeded.
    pub fn set(&self, cat: MemCategory, bytes: u64) {
        let slot = &self.slots[cat.index()];
        slot.current.store(bytes, Ordering::Relaxed);
        slot.peak.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Adds to a category's current bytes, raising its peak if exceeded.
    pub fn add(&self, cat: MemCategory, bytes: u64) {
        let slot = &self.slots[cat.index()];
        let new = slot.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        slot.peak.fetch_max(new, Ordering::Relaxed);
    }

    /// Subtracts from a category's current bytes (saturating at zero).
    pub fn sub(&self, cat: MemCategory, bytes: u64) {
        let slot = &self.slots[cat.index()];
        let _ = slot
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(bytes))
            });
    }

    /// A category's current bytes.
    pub fn current(&self, cat: MemCategory) -> u64 {
        self.slots[cat.index()].current.load(Ordering::Relaxed)
    }

    /// A category's peak bytes over the ledger's lifetime.
    pub fn peak(&self, cat: MemCategory) -> u64 {
        self.slots[cat.index()].peak.load(Ordering::Relaxed)
    }

    /// Samples the OS peak-RSS counter and folds it into the ledger's
    /// high-water mark; returns the sampled value when the platform
    /// exposes one. Called at span boundaries (setup / recursion /
    /// assemble) so the report carries the process-level peak next to
    /// the exact per-category bytes.
    pub fn observe_rss(&self) -> Option<u64> {
        let bytes = peak_rss_bytes()?;
        self.peak_rss.fetch_max(bytes, Ordering::Relaxed);
        Some(bytes)
    }

    /// The highest RSS sample recorded via [`MemLedger::observe_rss`]
    /// (`None` if never sampled successfully).
    pub fn peak_rss(&self) -> Option<u64> {
        match self.peak_rss.load(Ordering::Relaxed) {
            0 => None,
            b => Some(b),
        }
    }

    /// Snapshot of every category for the solve report.
    pub fn section(&self) -> MemSection {
        MemSection {
            entries: MemCategory::ALL
                .iter()
                .map(|&cat| MemEntry {
                    key: cat.key(),
                    current: self.current(cat),
                    peak: self.peak(cat),
                })
                .collect(),
            peak_rss_bytes: self.peak_rss(),
        }
    }
}

/// One category row of a [`MemSection`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemEntry {
    /// Category key (see [`MemCategory::key`]).
    pub key: &'static str,
    /// Bytes currently attributed to the category.
    pub current: u64,
    /// Peak bytes ever attributed to the category.
    pub peak: u64,
}

/// Memory snapshot attached to `SolveReport` as the `"mem"` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSection {
    /// One row per [`MemCategory`], in [`MemCategory::ALL`] order.
    pub entries: Vec<MemEntry>,
    /// OS peak RSS in bytes, when the platform sampler is available.
    pub peak_rss_bytes: Option<u64>,
}

/// One reading of the process resident-set size, both figures from the
/// same snapshot — so `peak >= current` always holds, which two separate
/// reads cannot promise while another thread allocates in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssSample {
    /// Current resident-set size in bytes (`VmRSS`).
    pub current: u64,
    /// Peak resident-set size in bytes (`VmHWM`).
    pub peak: u64,
}

/// Samples `VmRSS` and `VmHWM` from a single read of `/proc/self/status`;
/// `None` where the platform exposes no cheap sampler.
pub fn rss_sample() -> Option<RssSample> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let kb = |field: &str| -> Option<u64> {
            let line = status.lines().find_map(|l| l.strip_prefix(field))?;
            let kb: u64 = line.trim().trim_end_matches(" kB").trim().parse().ok()?;
            Some(kb * 1024)
        };
        Some(RssSample {
            current: kb("VmRSS:")?,
            peak: kb("VmHWM:")?,
        })
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Process peak resident-set size in bytes (`VmHWM`), `None` where the
/// platform exposes no cheap sampler.
pub fn peak_rss_bytes() -> Option<u64> {
    rss_sample().map(|s| s.peak)
}

/// Process current resident-set size in bytes (`VmRSS`), `None` where
/// the platform exposes no cheap sampler.
pub fn current_rss_bytes() -> Option<u64> {
    rss_sample().map(|s| s.current)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_add_sub_track_current_and_peak() {
        let l = MemLedger::new();
        l.set(MemCategory::MatrixCsr, 100);
        l.add(MemCategory::MatrixCsr, 50);
        assert_eq!(l.current(MemCategory::MatrixCsr), 150);
        assert_eq!(l.peak(MemCategory::MatrixCsr), 150);
        l.sub(MemCategory::MatrixCsr, 120);
        assert_eq!(l.current(MemCategory::MatrixCsr), 30);
        assert_eq!(l.peak(MemCategory::MatrixCsr), 150, "peak is sticky");
        l.sub(MemCategory::MatrixCsr, 1_000);
        assert_eq!(l.current(MemCategory::MatrixCsr), 0, "sub saturates");
    }

    #[test]
    fn categories_are_independent() {
        let l = MemLedger::new();
        l.set(MemCategory::KernelBuffers, 7);
        assert_eq!(l.current(MemCategory::Plan), 0);
        assert_eq!(l.current(MemCategory::KernelBuffers), 7);
    }

    #[test]
    fn section_lists_every_category_in_order() {
        let l = MemLedger::new();
        l.set(MemCategory::MatrixDia, 24);
        let s = l.section();
        assert_eq!(s.entries.len(), MemCategory::ALL.len());
        let keys: Vec<&str> = s.entries.iter().map(|e| e.key).collect();
        assert_eq!(
            keys,
            vec![
                "matrix.csr",
                "matrix.dia",
                "kernel.buffers",
                "plan",
                "cache.resident"
            ]
        );
        assert_eq!(s.entries[1].current, 24);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_sampler_reads_something_plausible() {
        let RssSample { current: cur, peak } = rss_sample().expect("linux exposes VmRSS/VmHWM");
        assert!(peak >= cur, "high-water mark below current RSS");
        assert!(peak_rss_bytes().is_some() && current_rss_bytes().is_some());
        assert!(cur > 0);
        let l = MemLedger::new();
        assert_eq!(l.peak_rss(), None);
        l.observe_rss();
        assert!(l.peak_rss().unwrap() >= peak);
    }
}
