//! Plan-cached batch serving of second-order MRM moment queries.
//!
//! The solver's plan/execute split ([`somrm_core::SolvePlan`]) makes a
//! solve's setup — uniformization constants, shifted iteration matrix,
//! worker pool — reusable across requests. This crate turns that into a
//! serving layer:
//!
//! - [`cache`] — an LRU [`PlanCache`] of plans keyed by chain digest,
//!   each entry keeping its chain's weighted series, one per π, and the
//!   model text each series was last asked with; hit/miss/evict counters
//!   published through `somrm-obs`;
//! - [`proto`] — the JSON-lines request/response protocol, and the
//!   capped reader of `model_file` paths;
//! - [`server`] — the batch loop: each request is a weighted query on
//!   its chain's plan and series, which answers every horizon it covers
//!   without a recursion and resumes it for longer ones, and each
//!   response is written as soon as it is rendered;
//! - [`telemetry`] — request-scoped observability riding on top:
//!   id-tagged lifecycle spans per request, the sideband admin
//!   protocol (`{"cmd":"stats"}` / `reset` / `health`), and
//!   slow-request Chrome-trace capture. All read-only — responses are
//!   bitwise identical with telemetry on or off.
//!
//! The CLI front end is `somrm-tool serve`; this crate stays I/O-shaped
//! (any `Read`/`Write`) so tests drive it with in-memory buffers.

pub mod cache;
pub mod proto;
pub mod server;
pub mod telemetry;

pub use cache::{
    Answer, AnswerError, CacheStats, PlanCache, PlanKey, ProjectionStats, SERIES_BYTES_PER_PLAN,
};
pub use proto::{
    parse_request, read_model_file, render_err, render_ok, ModelSpec, Request, RequestId,
    MAX_LINE_BYTES, MAX_ORDER, MAX_TIMES,
};
pub use server::{
    serve, serve_batch, serve_batch_traced, BatchOutcome, ModelResolver, ServeOptions,
    ServeSummary,
};
pub use telemetry::{
    parse_command, Command, CommandKind, SlowTraceOptions, TraceTee, TracedLine,
};
