//! The recorder protocol: the trait solvers talk to, and the cheap
//! handle they hold.

use crate::registry::MetricsSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide dense thread-lane allocator (see [`thread_lane`]).
static NEXT_THREAD_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_LANE: u64 = NEXT_THREAD_LANE.fetch_add(1, Ordering::Relaxed);
}

/// A small dense integer identifying the calling thread, stable for the
/// thread's lifetime.
///
/// `std::thread::ThreadId` has no stable integer form, but timeline
/// sinks (the Chrome exporter) want one lane per thread with small
/// consecutive numbers. Lanes are assigned on first use in program
/// order, so the main thread is usually lane 0 and pool workers claim
/// theirs at spawn (see `linalg`'s worker loop).
pub fn thread_lane() -> u64 {
    THREAD_LANE.with(|l| *l)
}

/// Sink for solver telemetry.
///
/// Implementations must be cheap and non-blocking relative to the
/// granularity of the events they receive: the solvers emit at *stage*
/// and *iteration/pass* granularity (a recursion pass is `O(n·nnz)`
/// floating-point work), never per matrix row, so one short critical
/// section per event is acceptable.
///
/// Names are dot-separated lower-case paths (`"solve.recursion"`,
/// `"kernel.pass"`, `"pool.wakes"`). Dynamic suffixes are allowed but
/// only ever formatted when a recorder is attached.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the monotonic counter `name`.
    fn counter_add(&self, name: &str, delta: u64);

    /// Sets the gauge `name` to `value` (last write wins).
    fn gauge_set(&self, name: &str, value: f64);

    /// Records one duration observation (histogram-lite: count / total /
    /// min / max) under `name`.
    fn duration_ns(&self, name: &str, nanos: u64);

    /// A timeline event: the span `name` ran on the *calling thread*
    /// from the monotonic instant `start` for `nanos`. Default:
    /// ignored.
    ///
    /// It carries enough to place the span on a wall-clock timeline —
    /// the start instant plus the caller's thread (recover a lane with
    /// [`thread_lane`]). The [`Span`] guard emits it on drop after
    /// reporting the same duration through [`Recorder::duration_ns`];
    /// kernels additionally emit per-chunk events directly from worker
    /// threads so the timeline shows one lane per worker.
    fn span_complete(&self, name: &str, start: Instant, nanos: u64) {
        let _ = (name, start, nanos);
    }

    /// A snapshot of everything aggregated so far, if this recorder
    /// aggregates (the [`crate::MetricsRegistry`] does; a timeline
    /// recorder that forwards to one does too). `None` means "nothing to
    /// report".
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// A recorder that swallows every event.
///
/// Useful for testing that instrumentation does not perturb numerics:
/// a `NoopRecorder`-backed handle drives the solvers down the
/// *instrumented* code path (timers read, events emitted) while
/// discarding everything, and results must stay bit-identical to both
/// disabled and aggregating runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter_add(&self, _name: &str, _delta: u64) {}
    fn gauge_set(&self, _name: &str, _value: f64) {}
    fn duration_ns(&self, _name: &str, _nanos: u64) {}
}

/// The handle solvers hold: either disabled (default — every emit is a
/// single branch) or an `Arc` to a shared [`Recorder`].
///
/// Cloning is cheap (an `Arc` bump at most), so the handle can be stored
/// in solver configs and passed down into kernels.
#[derive(Clone, Default)]
pub struct RecorderHandle(Option<Arc<dyn Recorder>>);

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "RecorderHandle(enabled)"
        } else {
            "RecorderHandle(disabled)"
        })
    }
}

/// Two handles are equal when they point at the same recorder (or both
/// are disabled). Identity, not content: configs differing only in an
/// attached recorder compare unequal on purpose — they do not describe
/// the same run setup.
impl PartialEq for RecorderHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl RecorderHandle {
    /// The disabled handle: every emit is a no-op behind one branch.
    pub fn disabled() -> Self {
        RecorderHandle(None)
    }

    /// Wraps a shared recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        RecorderHandle(Some(recorder))
    }

    /// Whether a recorder is attached. Callers use this to skip
    /// instrumentation-only work (formatting names, reading clocks,
    /// building reports).
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The attached recorder, if any. Lets adapters — tees, filters —
    /// wrap an existing handle's sink.
    pub fn shared(&self) -> Option<Arc<dyn Recorder>> {
        self.0.clone()
    }

    /// See [`Recorder::counter_add`].
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(r) = &self.0 {
            r.counter_add(name, delta);
        }
    }

    /// See [`Recorder::gauge_set`].
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(r) = &self.0 {
            r.gauge_set(name, value);
        }
    }

    /// See [`Recorder::duration_ns`].
    #[inline]
    pub fn duration_ns(&self, name: &str, nanos: u64) {
        if let Some(r) = &self.0 {
            r.duration_ns(name, nanos);
        }
    }

    /// See [`Recorder::span_complete`]. Timeline-only: does *not* feed
    /// the duration aggregates, so high-frequency per-chunk events can
    /// be emitted without drowning the stage timings.
    #[inline]
    pub fn span_complete(&self, name: &str, start: Instant, nanos: u64) {
        if let Some(r) = &self.0 {
            r.span_complete(name, start, nanos);
        }
    }

    /// Opens a timing span; its drop records the elapsed time under
    /// `name` (both as a duration observation and as a timeline event).
    /// Disabled handles return an inert guard without reading the clock.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            handle: self,
            name,
            start: self.0.is_some().then(Instant::now),
        }
    }

    /// Times `f` under `name` and returns its result. Equivalent to
    /// holding a [`Span`] across the call.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Forwards to [`Recorder::snapshot`] of the attached recorder.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.as_ref().and_then(|r| r.snapshot())
    }
}

/// RAII timing guard returned by [`RecorderHandle::span`].
#[derive(Debug)]
pub struct Span<'a> {
    handle: &'a RecorderHandle,
    name: &'static str,
    /// `None` when the handle is disabled: drop does nothing.
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let (Some(start), Some(r)) = (self.start, &self.handle.0) {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            r.duration_ns(self.name, nanos);
            r.span_complete(self.name, start, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn disabled_handle_is_inert() {
        let h = RecorderHandle::disabled();
        assert!(!h.enabled());
        h.counter_add("x", 1);
        h.gauge_set("y", 2.0);
        h.duration_ns("z", 3);
        let v = h.time("t", || 42);
        assert_eq!(v, 42);
        assert!(h.snapshot().is_none());
    }

    #[test]
    fn noop_recorder_is_enabled_but_reports_nothing() {
        let h = RecorderHandle::new(Arc::new(NoopRecorder));
        assert!(h.enabled());
        h.counter_add("x", 1);
        {
            let _s = h.span("stage");
        }
        assert!(h.snapshot().is_none());
    }

    #[test]
    fn span_records_into_registry() {
        let reg = Arc::new(MetricsRegistry::new());
        let h = RecorderHandle::new(reg.clone());
        {
            let _s = h.span("stage.a");
            std::hint::black_box(0u64);
        }
        let snap = reg.snapshot();
        let t = snap.timing("stage.a").expect("span recorded");
        assert_eq!(t.count, 1);
        assert!(t.total_ns >= t.min_ns);
    }

    #[test]
    fn handle_equality_is_identity() {
        let reg: Arc<dyn Recorder> = Arc::new(MetricsRegistry::new());
        let a = RecorderHandle::new(reg.clone());
        let b = RecorderHandle::new(reg);
        let c = RecorderHandle::new(Arc::new(MetricsRegistry::new()));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(RecorderHandle::disabled(), RecorderHandle::default());
        assert_ne!(a, RecorderHandle::disabled());
    }
}
