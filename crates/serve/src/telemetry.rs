//! Request-scoped serve telemetry: traced request lines, the sideband
//! admin protocol, the per-batch trace tee, and slow-trace capture
//! options.
//!
//! # Request lifecycle and cost attribution
//!
//! The solver knows nothing of requests, so request-level accounting
//! happens *around* it, here:
//!
//! - Every accepted request line gets a server-assigned sequence number
//!   (`seq`) and a `received` instant ([`TracedLine`]). Responses never
//!   carry the seq — the response bytes must stay bitwise identical
//!   with telemetry on or off — but slow-trace files and stderr notices
//!   name requests by it.
//! - Per-request latency splits into the phases of
//!   [`somrm_obs::RequestLatency`]: queue wait (received → batch
//!   start), the request's own plan lookup/build and weighted query,
//!   its slice/render, and the end-to-end total (received → its own
//!   response written).
//! - The splits feed the rolling [`somrm_obs::ServeStats`] histograms;
//!   the *timeline* view goes through [`Recorder::span_complete`] as
//!   `req[<seq>]` / `req[<seq>] slice` events — timeline-only on
//!   purpose, so per-request names never grow the aggregating
//!   registry's key space without bound.
//!
//! # The trace tee
//!
//! Cached plans bake their recorder into the plan's `SolverConfig` at
//! build time, so a per-batch trace recorder cannot be swapped in via
//! configuration. [`TraceTee`] is the indirection: the serve loop
//! installs it as *the* solver recorder once, and every event is
//! forwarded to the stable session sink (metrics registry, session
//! trace, or nothing) plus whatever per-batch
//! [`ChromeTraceRecorder`] is currently installed. Slow-request capture
//! installs a fresh batch recorder before each batch and, when a
//! request's total latency exceeds the threshold, writes that batch's
//! timeline named by the slow request's seq.

use crate::proto::{id_text, RequestId};
use somrm_obs::json;
use somrm_obs::{ChromeTraceRecorder, MetricsSnapshot, Recorder, RecorderHandle, ServeStatsSnapshot};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One request line with its server-side identity: the session-unique
/// sequence number and the instant the reader took it off the wire.
#[derive(Debug, Clone)]
pub struct TracedLine {
    /// Server-assigned request sequence number (session-unique,
    /// assigned in arrival order; sideband commands don't consume one).
    pub seq: u64,
    /// When the line was received.
    pub received: Instant,
    /// The raw request line, or the error that answers a line the
    /// reader could not take as text: one that is not UTF-8 or is longer
    /// than [`crate::MAX_LINE_BYTES`].
    pub line: Result<String, String>,
}

/// Slow-request capture configuration (see [`crate::ServeOptions`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowTraceOptions {
    /// Directory the per-request Chrome trace files are written to
    /// (`req-<seq>.json`); must exist.
    pub dir: std::path::PathBuf,
    /// A request whose end-to-end latency exceeds this many
    /// milliseconds gets its batch's trace captured. `0` captures every
    /// request.
    pub slow_ms: u64,
}

impl SlowTraceOptions {
    /// The capture threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.slow_ms.saturating_mul(1_000_000)
    }

    /// The trace path for request `seq`.
    pub fn trace_path(&self, seq: u64) -> std::path::PathBuf {
        self.dir.join(format!("req-{seq:06}.json"))
    }
}

/// A [`Recorder`] that forwards every event to a stable session sink
/// and to a swappable per-batch [`ChromeTraceRecorder`] (see the module
/// docs for why the swap point exists). `snapshot` reads the stable
/// side only — the batch recorder is a timeline capture, not the
/// metrics source of truth.
pub struct TraceTee {
    stable: Option<Arc<dyn Recorder>>,
    batch: Mutex<Option<Arc<ChromeTraceRecorder>>>,
}

impl std::fmt::Debug for TraceTee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceTee")
            .field("stable", &self.stable.is_some())
            .field(
                "batch",
                &self.batch.lock().map(|b| b.is_some()).unwrap_or(false),
            )
            .finish()
    }
}

impl TraceTee {
    /// A tee whose stable side is whatever `session` points at
    /// (possibly nothing — a disabled handle tees only to the batch
    /// slot).
    pub fn new(session: &RecorderHandle) -> Self {
        TraceTee {
            stable: session.shared(),
            batch: Mutex::new(None),
        }
    }

    /// Installs `rec` as the current batch recorder (replacing any
    /// previous one).
    pub fn install(&self, rec: Arc<ChromeTraceRecorder>) {
        *self.batch.lock().expect("trace tee mutex") = Some(rec);
    }

    /// Removes and returns the current batch recorder.
    pub fn take(&self) -> Option<Arc<ChromeTraceRecorder>> {
        self.batch.lock().expect("trace tee mutex").take()
    }

    fn batch_rec(&self) -> Option<Arc<ChromeTraceRecorder>> {
        self.batch.lock().expect("trace tee mutex").clone()
    }
}

impl Recorder for TraceTee {
    fn counter_add(&self, name: &str, delta: u64) {
        if let Some(r) = &self.stable {
            r.counter_add(name, delta);
        }
        if let Some(b) = self.batch_rec() {
            b.counter_add(name, delta);
        }
    }

    fn gauge_set(&self, name: &str, value: f64) {
        if let Some(r) = &self.stable {
            r.gauge_set(name, value);
        }
        if let Some(b) = self.batch_rec() {
            b.gauge_set(name, value);
        }
    }

    fn duration_ns(&self, name: &str, nanos: u64) {
        if let Some(r) = &self.stable {
            r.duration_ns(name, nanos);
        }
        if let Some(b) = self.batch_rec() {
            b.duration_ns(name, nanos);
        }
    }

    fn span_complete(&self, name: &str, start: Instant, nanos: u64) {
        if let Some(r) = &self.stable {
            r.span_complete(name, start, nanos);
        }
        if let Some(b) = self.batch_rec() {
            b.span_complete(name, start, nanos);
        }
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.stable.as_ref().and_then(|r| r.snapshot())
    }
}

/// A sideband admin command on the JSON-lines stream.
///
/// Any line that parses as a JSON object with a top-level `"cmd"`
/// member is a command, not a solve request (`"cmd"` is a reserved
/// member of the protocol). Commands are answered in line order —
/// solve requests drained *before* a command in the same batch are
/// executed and written first, so `{"cmd":"stats"}` reflects them.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// What was asked.
    pub kind: CommandKind,
    /// Echoed back unchanged.
    pub id: RequestId,
}

/// The recognized sideband commands.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandKind {
    /// `{"cmd":"stats"}` — the rolling [`somrm_obs::ServeStats`]
    /// snapshot.
    Stats,
    /// `{"cmd":"reset"}` — start a fresh stats window.
    Reset,
    /// `{"cmd":"health"}` — aggregated `health.*` counters/gauges from
    /// the session recorder.
    Health,
    /// Anything else (answered with an error, never fatal).
    Unknown(String),
}

/// Parses `line` as a sideband command. `None` means the line is not a
/// command (not JSON, not an object, or no `"cmd"` member) and should
/// go down the solve-request path.
pub fn parse_command(line: &str) -> Option<Command> {
    let (v, text) = json::parse_with_member_text(line).ok()?;
    let cmd = v.get("cmd")?;
    let id = id_text(&v, &text);
    let kind = match cmd.as_str() {
        Some("stats") => CommandKind::Stats,
        Some("reset") => CommandKind::Reset,
        Some("health") => CommandKind::Health,
        Some(other) => CommandKind::Unknown(other.to_string()),
        None => CommandKind::Unknown("<non-string>".to_string()),
    };
    Some(Command { kind, id })
}

fn response_head(out: &mut String, id: &RequestId, cmd: &str) {
    out.push_str("{\"id\":");
    out.push_str(id.as_str());
    out.push_str(",\"ok\":true,\"cmd\":\"");
    out.push_str(cmd);
    out.push('"');
}

/// Renders the `{"cmd":"stats"}` response line (no trailing newline).
pub fn render_stats(id: &RequestId, snapshot: &ServeStatsSnapshot) -> String {
    let mut out = String::with_capacity(512);
    response_head(&mut out, id, "stats");
    out.push_str(",\"stats\":");
    out.push_str(&snapshot.to_json());
    out.push('}');
    out
}

/// Renders the `{"cmd":"reset"}` acknowledgement (no trailing newline).
pub fn render_reset(id: &RequestId) -> String {
    let mut out = String::new();
    response_head(&mut out, id, "reset");
    out.push('}');
    out
}

/// Renders the `{"cmd":"health"}` response: every `health.*` counter
/// and gauge of `snapshot` (aggregated across the session's solves),
/// plus whether solver telemetry is attached at all — without a session
/// recorder the health sections are empty, not zero.
pub fn render_health(id: &RequestId, snapshot: Option<&MetricsSnapshot>) -> String {
    let mut out = String::with_capacity(256);
    response_head(&mut out, id, "health");
    out.push_str(",\"telemetry\":");
    out.push_str(if snapshot.is_some() { "true" } else { "false" });
    out.push_str(",\"counters\":{");
    let mut first = true;
    if let Some(snap) = snapshot {
        for (name, value) in &snap.counters {
            if let Some(short) = name.strip_prefix("health.") {
                if !first {
                    out.push(',');
                }
                first = false;
                json::write_string(&mut out, short);
                out.push(':');
                out.push_str(&value.to_string());
            }
        }
    }
    out.push_str("},\"gauges\":{");
    let mut first = true;
    if let Some(snap) = snapshot {
        for (name, value) in &snap.gauges {
            if let Some(short) = name.strip_prefix("health.") {
                if !first {
                    out.push(',');
                }
                first = false;
                json::write_string(&mut out, short);
                out.push(':');
                json::write_f64(&mut out, *value);
            }
        }
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_obs::json::Value;
    use somrm_obs::{MetricsRegistry, ServeStats};

    #[test]
    fn command_lines_are_recognized_and_requests_are_not() {
        let c = parse_command(r#"{"cmd":"stats","id":7}"#).unwrap();
        assert_eq!(c.kind, CommandKind::Stats);
        assert_eq!(c.id.as_str(), "7");
        assert_eq!(parse_command(r#"{"cmd":"reset"}"#).unwrap().kind, CommandKind::Reset);
        assert_eq!(parse_command(r#"{"cmd":"health"}"#).unwrap().kind, CommandKind::Health);
        assert_eq!(
            parse_command(r#"{"cmd":"nope"}"#).unwrap().kind,
            CommandKind::Unknown("nope".to_string())
        );
        assert_eq!(
            parse_command(r#"{"cmd":3}"#).unwrap().kind,
            CommandKind::Unknown("<non-string>".to_string())
        );
        // Solve requests — even ones whose *model text* mentions cmd —
        // are not commands.
        assert!(parse_command(r#"{"model": "x", "t": 1}"#).is_none());
        assert!(parse_command(r#"{"model": "has \"cmd\" inside", "t": 1}"#).is_none());
        assert!(parse_command("not json").is_none());
        assert!(parse_command("[1,2]").is_none());
    }

    #[test]
    fn command_responses_are_valid_json() {
        let stats = ServeStats::new();
        stats.record_request(Some(1), None, &somrm_obs::RequestLatency::default());
        let line = render_stats(&RequestId(r#""s""#.to_string()), &stats.snapshot());
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("cmd").unwrap().as_str(), Some("stats"));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("stats").unwrap().get("requests").unwrap().as_f64(),
            Some(1.0)
        );

        let v = json::parse(&render_reset(&RequestId::null())).unwrap();
        assert_eq!(v.get("cmd").unwrap().as_str(), Some("reset"));
    }

    #[test]
    fn health_response_filters_the_health_namespace() {
        let reg = MetricsRegistry::new();
        reg.counter_add("health.samples", 12);
        reg.counter_add("health.nan", 0);
        reg.counter_add("serve.requests", 99);
        reg.gauge_set("health.u0_mass_final", 0.75);
        reg.gauge_set("solver.q", 2.0);
        let line = render_health(&RequestId::null(), Some(&reg.snapshot()));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("telemetry"), Some(&Value::Bool(true)));
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("samples").unwrap().as_f64(), Some(12.0));
        assert_eq!(counters.get("nan").unwrap().as_f64(), Some(0.0));
        assert!(counters.get("serve.requests").is_none(), "non-health filtered");
        let gauges = v.get("gauges").unwrap();
        assert_eq!(gauges.get("u0_mass_final").unwrap().as_f64(), Some(0.75));
        assert!(gauges.get("solver.q").is_none());

        // No session recorder: telemetry:false, sections empty.
        let v = json::parse(&render_health(&RequestId::null(), None)).unwrap();
        assert_eq!(v.get("telemetry"), Some(&Value::Bool(false)));
        assert_eq!(v.get("counters"), Some(&Value::Obj(vec![])));
    }

    #[test]
    fn tee_forwards_to_both_sides_and_swaps_batches() {
        use std::sync::Arc;
        let session = Arc::new(MetricsRegistry::new());
        let tee = TraceTee::new(&RecorderHandle::new(session.clone()));
        tee.counter_add("x", 1);

        let batch1 = Arc::new(ChromeTraceRecorder::new());
        tee.install(batch1.clone());
        tee.span_complete("req[0]", Instant::now(), 5);
        tee.counter_add("x", 1);
        let got = tee.take().expect("batch recorder installed");
        assert!(Arc::ptr_eq(&got, &batch1));
        assert_eq!(got.event_count(), 1, "batch sees its span");

        // After take(): stable side still receives, batch side is gone.
        tee.span_complete("req[1]", Instant::now(), 5);
        tee.counter_add("x", 1);
        assert_eq!(batch1.event_count(), 1, "old batch no longer fed");
        let snap = Recorder::snapshot(&tee).expect("stable side aggregates");
        assert_eq!(snap.counter("x"), Some(3), "stable side saw every add");

        // A second installed batch starts clean.
        let batch2 = Arc::new(ChromeTraceRecorder::new());
        tee.install(batch2.clone());
        tee.span_complete("req[2]", Instant::now(), 5);
        assert_eq!(batch2.event_count(), 1);
        assert_eq!(batch1.event_count(), 1);
    }

    #[test]
    fn tee_with_disabled_session_still_captures_batches() {
        use std::sync::Arc;
        let tee = TraceTee::new(&RecorderHandle::disabled());
        assert!(Recorder::snapshot(&tee).is_none());
        let batch = Arc::new(ChromeTraceRecorder::new());
        tee.install(batch.clone());
        tee.span_complete("req[0]", Instant::now(), 7);
        assert_eq!(batch.event_count(), 1);
    }
}
