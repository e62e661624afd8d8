//! Observability layer for the `somrm` solvers.
//!
//! The randomization solver's headline claims — strict computable error
//! bounds (Theorem 4) at first-order cost — are only falsifiable if a
//! run can report what it actually did: the chosen truncation point `G`,
//! the Poisson mass kept after tail trimming, the realized per-order
//! bound, per-stage wall time, and worker-pool behaviour. This crate is
//! the sink for all of that, with three design rules:
//!
//! 1. **Zero cost when off.** Every solver takes a [`RecorderHandle`],
//!    which is an `Option` around a shared [`Recorder`]. The default
//!    handle is disabled: each instrumentation site is a single
//!    `Option` discriminant test, no `Instant` reads, no allocation, no
//!    locking. The satellite regression test in the root crate checks
//!    instrumented and disabled solves are *bit-identical*.
//! 2. **Events flow one way.** Solvers emit counters, gauges, span
//!    timings; sinks aggregate ([`MetricsRegistry`]), some also
//!    drawing a timeline ([`ChromeTraceRecorder`]). Solvers never read
//!    metrics back — the only read path is [`Recorder::snapshot`],
//!    taken once at the end of a solve to assemble a [`SolveReport`].
//! 3. **No dependencies.** JSON serialization is hand-rolled
//!    ([`mod@json`]); timing uses `std::time::Instant`.
//!
//! # Quick start
//!
//! ```
//! use somrm_obs::{MetricsRegistry, RecorderHandle};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let rec = RecorderHandle::new(registry.clone());
//!
//! {
//!     let _span = rec.span("demo.stage");
//!     rec.counter_add("demo.items", 3);
//!     rec.gauge_set("demo.rate", 2.5);
//! } // span drop records its duration
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("demo.items"), Some(3));
//! assert_eq!(snap.gauge("demo.rate"), Some(2.5));
//! assert_eq!(snap.timing("demo.stage").unwrap().count, 1);
//! ```

pub mod chrome;
pub mod events;
pub mod health;
pub mod json;
pub mod mem;
pub mod prom;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod stats;

pub use chrome::ChromeTraceRecorder;
pub use events::{Event, EventLogHandle, EventLogRecorder, VecSink};
pub use health::{HealthMonitor, HealthSection};
pub use mem::{
    current_rss_bytes, peak_rss_bytes, rss_sample, MemCategory, MemEntry, MemLedger, MemSection,
    RssSample,
};
pub use prom::write_prometheus;
pub use recorder::{thread_lane, NoopRecorder, Recorder, RecorderHandle, Span};
pub use registry::{MetricsRegistry, MetricsSnapshot, TimingStat};
pub use report::{PoissonStat, PoolSection, SolveReport, SolverSection};
pub use stats::{ModelStats, ProjectionCounts, RequestLatency, ServeStats, ServeStatsSnapshot};
