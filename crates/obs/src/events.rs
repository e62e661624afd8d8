//! Streamed solve event log (`somrm-events-v1`): typed JSONL records.
//!
//! Long solves (the 2,000,001-state multiplexer at 10× Table 2 runs
//! about 14 s on DIA strips) need a heartbeat a supervisor can read. An
//! [`EventLogRecorder`] tees one JSON object per line to any number of
//! sinks (a file for `--events-out PATH`, stderr for `--progress-json`),
//! and the solver emits a fixed vocabulary of [`Event`] records through
//! an [`EventLogHandle`]:
//!
//! - `solve.start` — order / state / time-point counts;
//! - `plan.resolved` — chosen matrix format plus exact matrix and plan
//!   bytes (`FootprintBytes` accounting);
//! - `truncation` — `q·t`, the truncation point `G`, and the realized
//!   per-order Theorem-4 bounds;
//! - `health` — live order-0 mass and anomaly count at the
//!   `HealthMonitor` sampling cadence;
//! - `progress` — emitted every ~5% of `G` with a linear-extrapolation
//!   ETA (`null` until `k > 0`);
//! - `complete` — final `G` and the dominant realized bound.
//!
//! Every record round-trips through the strict parser ([`Event::parse`])
//! bit-for-bit: floats are serialized shortest-round-trip, so
//! `parse(to_json_line(e)) == e`. Like every recorder in this crate,
//! the log is write-only from the solver's perspective and
//! **bit-identity-preserving**: emission is gated on an enabled handle,
//! sink I/O errors are swallowed, and nothing the solver computes
//! depends on it.

use crate::json::{self, Value};
use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Schema version stamped on every record (`"v":1`).
pub const EVENTS_VERSION: u64 = 1;

/// One typed record of the solve event log.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A solve began.
    SolveStart {
        /// Highest moment order computed.
        order: u64,
        /// State count `n`.
        n_states: u64,
        /// Number of requested time points.
        n_times: u64,
    },
    /// Setup finished: the iteration matrix was resolved.
    PlanResolved {
        /// Storage chosen for the iteration matrix (`csr`/`dia`/…).
        format: String,
        /// State count `n`.
        n_states: u64,
        /// Exact owned bytes of the iteration matrix.
        matrix_bytes: u64,
        /// Exact owned bytes of the plan's diagonal vectors.
        plan_bytes: u64,
        /// Uniformization rate `q`.
        q: f64,
        /// Reward spread `d = rmax − rmin`.
        d: f64,
        /// Reward shift applied before uniformization.
        shift: f64,
    },
    /// Truncation search finished: `G` and every horizon's left edge.
    Truncation {
        /// Largest Poisson argument `q·t` over the time grid.
        qt: f64,
        /// Truncation point `G` (recursion runs `k = 0..=G`).
        g: u64,
        /// Realized Theorem-4 bound per order (`bounds[j]` for order
        /// `j`), both edges included: what the solutions report.
        error_bounds: Vec<f64>,
    },
    /// A numerical-health sample (cadence of the `HealthMonitor`).
    Health {
        /// Iteration index of the sample.
        k: u64,
        /// Truncation point `G`.
        g: u64,
        /// Order-0 sup-norm ("mass") at this sample.
        u0_mass: f64,
        /// Cumulative NaN/Inf/subnormal sightings so far.
        anomalies: u64,
    },
    /// A progress heartbeat (every ~5% of `G`).
    Progress {
        /// Current iteration index.
        k: u64,
        /// Truncation point `G`.
        g: u64,
        /// `100·k/G`.
        percent: f64,
        /// Linear-extrapolation ETA in seconds (`None` at `k = 0`).
        eta_s: Option<f64>,
    },
    /// The solve finished.
    Complete {
        /// Truncation point the recursion actually ran to.
        g: u64,
        /// Dominant realized error bound.
        error_bound: f64,
    },
}

impl Event {
    /// The record's `"event"` discriminator string.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SolveStart { .. } => "solve.start",
            Event::PlanResolved { .. } => "plan.resolved",
            Event::Truncation { .. } => "truncation",
            Event::Health { .. } => "health",
            Event::Progress { .. } => "progress",
            Event::Complete { .. } => "complete",
        }
    }

    /// Serializes the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(out, "{{\"v\":{EVENTS_VERSION},\"event\":");
        json::write_string(&mut out, self.kind());
        match self {
            Event::SolveStart {
                order,
                n_states,
                n_times,
            } => {
                let _ = write!(
                    out,
                    ",\"order\":{order},\"n_states\":{n_states},\"n_times\":{n_times}"
                );
            }
            Event::PlanResolved {
                format,
                n_states,
                matrix_bytes,
                plan_bytes,
                q,
                d,
                shift,
            } => {
                out.push_str(",\"format\":");
                json::write_string(&mut out, format);
                let _ = write!(
                    out,
                    ",\"n_states\":{n_states},\"matrix_bytes\":{matrix_bytes},\"plan_bytes\":{plan_bytes},\"q\":"
                );
                json::write_f64(&mut out, *q);
                out.push_str(",\"d\":");
                json::write_f64(&mut out, *d);
                out.push_str(",\"shift\":");
                json::write_f64(&mut out, *shift);
            }
            Event::Truncation {
                qt,
                g,
                error_bounds,
            } => {
                out.push_str(",\"qt\":");
                json::write_f64(&mut out, *qt);
                let _ = write!(out, ",\"g\":{g},\"error_bounds\":[");
                for (i, &b) in error_bounds.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_f64(&mut out, b);
                }
                out.push(']');
            }
            Event::Health {
                k,
                g,
                u0_mass,
                anomalies,
            } => {
                let _ = write!(out, ",\"k\":{k},\"g\":{g},\"u0_mass\":");
                json::write_f64(&mut out, *u0_mass);
                let _ = write!(out, ",\"anomalies\":{anomalies}");
            }
            Event::Progress {
                k,
                g,
                percent,
                eta_s,
            } => {
                let _ = write!(out, ",\"k\":{k},\"g\":{g},\"percent\":");
                json::write_f64(&mut out, *percent);
                out.push_str(",\"eta_s\":");
                match eta_s {
                    Some(eta) => json::write_f64(&mut out, *eta),
                    None => out.push_str("null"),
                }
            }
            Event::Complete { g, error_bound } => {
                let _ = write!(out, ",\"g\":{g},\"error_bound\":");
                json::write_f64(&mut out, *error_bound);
            }
        }
        out.push('}');
        out
    }

    /// Strictly parses one event line back into a typed record.
    ///
    /// Rejects malformed JSON (including trailing garbage, via
    /// [`json::parse`]), wrong schema versions, unknown `event` kinds,
    /// and missing or mistyped fields. Inverse of
    /// [`Event::to_json_line`]: floats round-trip bit-for-bit.
    pub fn parse(line: &str) -> Result<Event, String> {
        let v = json::parse(line)?;
        let version = field_u64(&v, "v")?;
        if version != EVENTS_VERSION {
            return Err(format!("unsupported event schema version {version}"));
        }
        let kind = v
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing 'event' discriminator".to_string())?;
        match kind {
            "solve.start" => Ok(Event::SolveStart {
                order: field_u64(&v, "order")?,
                n_states: field_u64(&v, "n_states")?,
                n_times: field_u64(&v, "n_times")?,
            }),
            "plan.resolved" => Ok(Event::PlanResolved {
                format: v
                    .get("format")
                    .and_then(Value::as_str)
                    .ok_or_else(|| "missing 'format'".to_string())?
                    .to_string(),
                n_states: field_u64(&v, "n_states")?,
                matrix_bytes: field_u64(&v, "matrix_bytes")?,
                plan_bytes: field_u64(&v, "plan_bytes")?,
                q: field_f64(&v, "q")?,
                d: field_f64(&v, "d")?,
                shift: field_f64(&v, "shift")?,
            }),
            "truncation" => {
                let arr = v
                    .get("error_bounds")
                    .and_then(Value::as_array)
                    .ok_or_else(|| "missing 'error_bounds' array".to_string())?;
                let mut error_bounds = Vec::with_capacity(arr.len());
                for b in arr {
                    error_bounds.push(
                        b.as_f64()
                            .ok_or_else(|| "non-numeric error bound".to_string())?,
                    );
                }
                Ok(Event::Truncation {
                    qt: field_f64(&v, "qt")?,
                    g: field_u64(&v, "g")?,
                    error_bounds,
                })
            }
            "health" => Ok(Event::Health {
                k: field_u64(&v, "k")?,
                g: field_u64(&v, "g")?,
                u0_mass: field_f64(&v, "u0_mass")?,
                anomalies: field_u64(&v, "anomalies")?,
            }),
            "progress" => {
                let eta = v
                    .get("eta_s")
                    .ok_or_else(|| "missing 'eta_s'".to_string())?;
                let eta_s = match eta {
                    Value::Null => None,
                    other => Some(
                        other
                            .as_f64()
                            .ok_or_else(|| "non-numeric 'eta_s'".to_string())?,
                    ),
                };
                Ok(Event::Progress {
                    k: field_u64(&v, "k")?,
                    g: field_u64(&v, "g")?,
                    percent: field_f64(&v, "percent")?,
                    eta_s,
                })
            }
            "complete" => Ok(Event::Complete {
                g: field_u64(&v, "g")?,
                error_bound: field_f64(&v, "error_bound")?,
            }),
            other => Err(format!("unknown event kind '{other}'")),
        }
    }

    /// Parses a whole event log (one record per non-empty line).
    pub fn parse_lines(text: &str) -> Result<Vec<Event>, String> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .enumerate()
            .map(|(i, l)| Event::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
            .collect()
    }
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric '{key}'"))
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    let n = field_f64(v, key)?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return Err(format!("'{key}' is not a non-negative integer"));
    }
    Ok(n as u64)
}

/// JSONL event sink fan-out: writes each record, newline-terminated and
/// flushed, to every attached sink. Sink I/O failures are deliberately
/// swallowed — a full disk or closed pipe must never fail a solve.
#[derive(Default)]
pub struct EventLogRecorder {
    sinks: Mutex<Vec<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for EventLogRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.sinks.lock().map(|s| s.len()).unwrap_or(0);
        write!(f, "EventLogRecorder({n} sinks)")
    }
}

impl EventLogRecorder {
    /// A recorder with no sinks yet.
    pub fn new() -> EventLogRecorder {
        EventLogRecorder::default()
    }

    /// Attaches a sink; every subsequent record goes to it too.
    pub fn add_sink(&self, sink: Box<dyn Write + Send>) {
        if let Ok(mut sinks) = self.sinks.lock() {
            sinks.push(sink);
        }
    }

    /// Writes one record (plus `\n`) to every sink and flushes, so
    /// supervisors tailing a pipe see records as they happen.
    pub fn emit(&self, event: &Event) {
        let mut line = event.to_json_line();
        line.push('\n');
        if let Ok(mut sinks) = self.sinks.lock() {
            for sink in sinks.iter_mut() {
                let _ = sink.write_all(line.as_bytes());
                let _ = sink.flush();
            }
        }
    }
}

/// Cheap cloneable handle around an optional shared [`EventLogRecorder`]
/// — the same disabled-by-default shape as `RecorderHandle`. A disabled
/// handle makes [`EventLogHandle::emit`] a no-op discriminant test, so
/// untelemetered solves pay nothing.
#[derive(Clone, Default)]
pub struct EventLogHandle(Option<Arc<EventLogRecorder>>);

impl EventLogHandle {
    /// The no-op handle (the default).
    pub fn disabled() -> EventLogHandle {
        EventLogHandle(None)
    }

    /// A handle that logs to `rec`.
    pub fn new(rec: EventLogRecorder) -> EventLogHandle {
        EventLogHandle(Some(Arc::new(rec)))
    }

    /// A handle sharing an existing recorder.
    pub fn shared(rec: Arc<EventLogRecorder>) -> EventLogHandle {
        EventLogHandle(Some(rec))
    }

    /// Whether events will actually be written anywhere.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emits `event` if enabled; no-op otherwise.
    pub fn emit(&self, event: &Event) {
        if let Some(rec) = &self.0 {
            rec.emit(event);
        }
    }
}

impl std::fmt::Debug for EventLogHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "EventLogHandle(enabled)"
        } else {
            "EventLogHandle(disabled)"
        })
    }
}

impl PartialEq for EventLogHandle {
    /// Handles compare by identity (same shared recorder or both
    /// disabled) — mirrors `RecorderHandle` so solver configs holding a
    /// handle keep a meaningful `PartialEq`.
    fn eq(&self, other: &EventLogHandle) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// A `Write` sink over a shared byte buffer, for tests and in-process
/// capture of an event stream.
#[derive(Debug, Clone, Default)]
pub struct VecSink(pub Arc<Mutex<Vec<u8>>>);

impl VecSink {
    /// A fresh empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// The bytes written so far, as UTF-8 (lossy).
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

impl Write for VecSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::SolveStart {
                order: 2,
                n_states: 1_001,
                n_times: 3,
            },
            Event::PlanResolved {
                format: "dia".to_string(),
                n_states: 1_001,
                matrix_bytes: 24_048,
                plan_bytes: 16_016,
                q: 2.5,
                d: 1.0,
                shift: -0.125,
            },
            Event::Truncation {
                qt: 12.5,
                g: 57,
                error_bounds: vec![1e-10, 3.5e-10, 0.6250000000000001e-9],
            },
            Event::Health {
                k: 28,
                g: 57,
                u0_mass: 1.0,
                anomalies: 0,
            },
            Event::Progress {
                k: 0,
                g: 57,
                percent: 0.0,
                eta_s: None,
            },
            Event::Progress {
                k: 28,
                g: 57,
                percent: 49.12280701754386,
                eta_s: Some(0.0375),
            },
            Event::Complete {
                g: 57,
                error_bound: 0.6250000000000001e-9,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_bit_for_bit() {
        for e in samples() {
            let line = e.to_json_line();
            let back = Event::parse(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(back, e, "round trip changed {line}");
        }
    }

    #[test]
    fn parser_is_strict() {
        assert!(Event::parse("not json").is_err());
        assert!(
            Event::parse("{\"v\":1,\"event\":\"progress\"}").is_err(),
            "missing fields rejected"
        );
        assert!(
            Event::parse("{\"v\":2,\"event\":\"complete\",\"g\":1,\"error_bound\":0}")
                .is_err(),
            "future schema version rejected"
        );
        assert!(
            Event::parse("{\"v\":1,\"event\":\"nope\"}").is_err(),
            "unknown kind rejected"
        );
        let good = Event::Complete {
            g: 3,
            error_bound: 1e-9,
        }
        .to_json_line();
        assert!(
            Event::parse(&format!("{good} trailing")).is_err(),
            "trailing garbage rejected"
        );
    }

    #[test]
    fn recorder_tees_to_every_sink_line_per_record() {
        let a = VecSink::new();
        let b = VecSink::new();
        let rec = EventLogRecorder::new();
        rec.add_sink(Box::new(a.clone()));
        rec.add_sink(Box::new(b.clone()));
        let handle = EventLogHandle::new(rec);
        for e in samples() {
            handle.emit(&e);
        }
        let text = a.contents();
        assert_eq!(text, b.contents(), "sinks see identical bytes");
        let parsed = Event::parse_lines(&text).expect("log parses");
        assert_eq!(parsed, samples());
    }

    #[test]
    fn disabled_handle_is_inert_and_handles_compare_by_identity() {
        let disabled = EventLogHandle::disabled();
        assert!(!disabled.enabled());
        disabled.emit(&Event::Complete {
            g: 0,
            error_bound: 0.0,
        });
        assert_eq!(disabled, EventLogHandle::default());
        let shared = Arc::new(EventLogRecorder::new());
        let h1 = EventLogHandle::shared(shared.clone());
        let h2 = EventLogHandle::shared(shared);
        assert_eq!(h1, h2);
        assert_ne!(h1, EventLogHandle::new(EventLogRecorder::new()));
        assert_ne!(h1, disabled);
    }

    #[test]
    fn parse_lines_reports_the_failing_line() {
        let good = Event::Complete {
            g: 1,
            error_bound: 0.0,
        }
        .to_json_line();
        let err = Event::parse_lines(&format!("{good}\nbroken\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
