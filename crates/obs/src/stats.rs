//! Rolling request-level statistics for the serve mode.
//!
//! The solver-side registry ([`crate::MetricsRegistry`]) aggregates
//! *solve* telemetry — stages, kernel passes, health probes — but a
//! server's unit of accounting is the *request*: a cached plan and a
//! stored projection answer many requests, and the operator questions
//! ("what is p99 latency?", "what fraction hits the plan cache?", "which
//! model dominates traffic?") are per-request questions. [`ServeStats`]
//! is the rolling aggregator for those: global and per-model-digest
//! request counters, error counters by kind, plan-cache hit/miss/evict
//! totals, and latency distributions reusing [`TimingStat`]'s log2
//! histograms, broken down by lifecycle phase (queue-wait vs plan vs
//! execute vs slice).
//!
//! Everything is behind one short-held mutex, touched once per request
//! — nanoseconds against the microsecond-to-second scale of the solves
//! being accounted. Snapshots are cheap copies; `reset` starts a new
//! accounting window (the sideband `{"cmd":"reset"}`).

use crate::registry::{MetricsSnapshot, TimingStat};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Per-model rows beyond this count aggregate under the `"other"` key,
/// so a digest-churning client cannot grow the snapshot without bound.
pub const MAX_MODEL_ROWS: usize = 64;

/// The measured lifecycle of one request, nanoseconds per phase.
///
/// `queue_ns` is received → batch processing start; `plan_ns` is the
/// request's plan lookup/build (0 when no lookup was needed);
/// `execute_ns` is its query; `slice_ns` is its rendering; `total_ns`
/// is received → response written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestLatency {
    /// Received → batch start (time spent queued behind the previous
    /// batch).
    pub queue_ns: u64,
    /// Plan lookup / build.
    pub plan_ns: u64,
    /// The query itself.
    pub execute_ns: u64,
    /// Per-request slice + render time (measured, not split).
    pub slice_ns: u64,
    /// Received → response written, end to end.
    pub total_ns: u64,
}

/// Counters of one model digest's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelStats {
    /// Requests attributed to this digest.
    pub requests: u64,
    /// Successful responses among them.
    pub ok: u64,
    /// Error responses among them.
    pub errors: u64,
    /// End-to-end latency distribution of this digest's requests.
    pub latency: TimingStat,
}

/// Point-in-time copy of a [`ServeStats`] window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStatsSnapshot {
    /// Requests recorded (every parsed or unparsable request line;
    /// sideband admin commands are not requests).
    pub requests: u64,
    /// Successful responses.
    pub ok: u64,
    /// Batches processed.
    pub batches: u64,
    /// Error counts by kind (`"parse"`, `"model"`, `"plan"`,
    /// `"solver"`).
    pub errors: BTreeMap<String, u64>,
    /// Plan-cache hits accumulated over the window.
    pub cache_hits: u64,
    /// Plan-cache misses accumulated over the window.
    pub cache_misses: u64,
    /// Plan-cache evictions accumulated over the window.
    pub cache_evictions: u64,
    /// Exact bytes those evictions released (plans and their series).
    pub cache_evict_bytes: u64,
    /// Current resident bytes of the plan cache, series included (a
    /// gauge: the last reported value, not a sum).
    pub cache_resident_bytes: u64,
    /// The weighted series' counters over the window.
    pub projection: ProjectionCounts,
    /// End-to-end request latency.
    pub total: TimingStat,
    /// Queue-wait component.
    pub queue: TimingStat,
    /// Plan lookup/build component.
    pub plan: TimingStat,
    /// Query component.
    pub execute: TimingStat,
    /// Per-request slice/render component.
    pub slice: TimingStat,
    /// Per-model-digest rows, keyed by the digest; overflow traffic
    /// beyond [`MAX_MODEL_ROWS`] distinct digests aggregates in
    /// [`ServeStatsSnapshot::other_models`].
    pub models: BTreeMap<u64, ModelStats>,
    /// Aggregate row for digests beyond the per-model cap.
    pub other_models: ModelStats,
}

/// Counters of the weighted series serve's plan-cache entries keep (one
/// per chain and initial distribution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProjectionCounts {
    /// Queries answered from a recorded series, no recursion.
    pub hits: u64,
    /// Queries that resumed a series to a larger truncation point.
    pub resumes: u64,
    /// Queries that ran a series' recursion from step 0.
    pub builds: u64,
    /// Series dropped: with their plan, or to keep an entry within its
    /// series budget.
    pub evictions: u64,
    /// Current resident bytes of the series (a gauge; part of the plan
    /// cache's resident bytes).
    pub resident_bytes: u64,
}

impl ServeStatsSnapshot {
    /// Total error responses across kinds.
    pub fn errors_total(&self) -> u64 {
        self.errors.values().sum()
    }

    /// Cache hit rate in `[0, 1]`; `None` before any lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.cache_hits + self.cache_misses;
        (lookups > 0).then(|| self.cache_hits as f64 / lookups as f64)
    }

    /// Serializes the snapshot as one JSON object (no trailing newline),
    /// guaranteed to parse with [`crate::json::parse`]. Latency
    /// summaries omit `p50_ns`/`p99_ns` when their histogram is empty.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"requests\":{},\"ok\":{},\"batches\":{}",
            self.requests, self.ok, self.batches
        );
        out.push_str(",\"errors\":{");
        for (i, (kind, n)) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::write_string(&mut out, kind);
            let _ = write!(out, ":{n}");
        }
        out.push('}');
        let _ = write!(
            out,
            ",\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"evict_bytes\":{},\"resident_bytes\":{}",
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_evict_bytes,
            self.cache_resident_bytes
        );
        match self.cache_hit_rate() {
            Some(rate) => {
                out.push_str(",\"hit_rate\":");
                crate::json::write_f64(&mut out, rate);
            }
            None => out.push_str(",\"hit_rate\":null"),
        }
        let p = &self.projection;
        let _ = write!(
            out,
            ",\"projection\":{{\"hits\":{},\"resumes\":{},\"builds\":{},\"evictions\":{},\"resident_bytes\":{}}}",
            p.hits, p.resumes, p.builds, p.evictions, p.resident_bytes
        );
        out.push('}');
        out.push_str(",\"latency\":{");
        for (i, (name, stat)) in [
            ("total", &self.total),
            ("queue", &self.queue),
            ("plan", &self.plan),
            ("execute", &self.execute),
            ("slice", &self.slice),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            write_timing(&mut out, stat);
        }
        out.push('}');
        out.push_str(",\"models\":{");
        let mut first = true;
        for (digest, m) in &self.models {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{digest:016x}\":");
            write_model(&mut out, m);
        }
        if self.other_models.requests > 0 {
            if !first {
                out.push(',');
            }
            out.push_str("\"other\":");
            write_model(&mut out, &self.other_models);
        }
        out.push_str("}}");
        out
    }

    /// Re-expresses the snapshot as a [`MetricsSnapshot`] (counters
    /// named `serve.*`, latency series `serve.latency.*`) so generic
    /// exporters — the Prometheus writer, the report JSON — need no
    /// serve-specific code path. Per-model rows contribute a
    /// per-digest request counter; their latency histograms stay in
    /// the typed snapshot only.
    pub fn to_metrics_snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = vec![
            ("serve.plan.evict".into(), self.cache_evictions),
            ("serve.plan.evict_bytes".into(), self.cache_evict_bytes),
            ("serve.plan.hit".into(), self.cache_hits),
            ("serve.plan.miss".into(), self.cache_misses),
            ("serve.proj.build".into(), self.projection.builds),
            ("serve.proj.evict".into(), self.projection.evictions),
            ("serve.proj.hit".into(), self.projection.hits),
            ("serve.proj.resume".into(), self.projection.resumes),
            ("serve.requests".into(), self.requests),
            ("serve.responses.ok".into(), self.ok),
            ("serve.batches".into(), self.batches),
        ];
        for (kind, n) in &self.errors {
            counters.push((format!("serve.errors.{kind}"), *n));
        }
        for (digest, m) in &self.models {
            counters.push((format!("serve.model.{digest:016x}.requests"), m.requests));
        }
        if self.other_models.requests > 0 {
            counters.push(("serve.model.other.requests".into(), self.other_models.requests));
        }
        counters.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut timings: Vec<(String, TimingStat)> = vec![
            ("serve.latency.execute".into(), self.execute),
            ("serve.latency.plan".into(), self.plan),
            ("serve.latency.queue".into(), self.queue),
            ("serve.latency.slice".into(), self.slice),
            ("serve.latency.total".into(), self.total),
        ];
        timings.sort_by(|(a, _), (b, _)| a.cmp(b));
        MetricsSnapshot {
            counters,
            gauges: vec![
                (
                    "mem.cache.resident".into(),
                    self.cache_resident_bytes as f64,
                ),
                (
                    "mem.proj.resident".into(),
                    self.projection.resident_bytes as f64,
                ),
            ],
            timings,
        }
    }
}

fn write_timing(out: &mut String, t: &TimingStat) {
    let _ = write!(
        out,
        "{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}",
        t.count, t.total_ns, t.min_ns, t.max_ns
    );
    if let (Some(p50), Some(p99)) = (t.p50_ns(), t.p99_ns()) {
        let _ = write!(out, ",\"p50_ns\":{p50},\"p99_ns\":{p99}");
    }
    out.push_str(",\"mean_ns\":");
    crate::json::write_f64(out, t.mean_ns());
    out.push('}');
}

fn write_model(out: &mut String, m: &ModelStats) {
    let _ = write!(
        out,
        "{{\"requests\":{},\"ok\":{},\"errors\":{},\"latency\":",
        m.requests, m.ok, m.errors
    );
    write_timing(out, &m.latency);
    out.push('}');
}

#[derive(Debug, Default)]
struct Inner {
    snapshot: ServeStatsSnapshot,
}

/// Thread-safe rolling request-statistics aggregator (see module docs).
#[derive(Debug, Default)]
pub struct ServeStats {
    inner: Mutex<Inner>,
}

impl ServeStats {
    /// An empty accounting window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finished request: its digest (when the model
    /// resolved), the error kind (`None` for a success), and its
    /// measured lifecycle.
    pub fn record_request(
        &self,
        digest: Option<u64>,
        error_kind: Option<&str>,
        lat: &RequestLatency,
    ) {
        let mut inner = self.inner.lock().expect("serve stats mutex");
        let s = &mut inner.snapshot;
        s.requests += 1;
        match error_kind {
            None => s.ok += 1,
            Some(kind) => {
                *s.errors.entry(kind.to_string()).or_insert(0) += 1;
            }
        }
        s.total.record(lat.total_ns);
        s.queue.record(lat.queue_ns);
        s.plan.record(lat.plan_ns);
        s.execute.record(lat.execute_ns);
        s.slice.record(lat.slice_ns);
        if let Some(digest) = digest {
            let row = if s.models.contains_key(&digest) || s.models.len() < MAX_MODEL_ROWS {
                s.models.entry(digest).or_default()
            } else {
                &mut s.other_models
            };
            row.requests += 1;
            match error_kind {
                None => row.ok += 1,
                Some(_) => row.errors += 1,
            }
            row.latency.record(lat.total_ns);
        }
    }

    /// Records one processed batch.
    pub fn record_batch(&self) {
        self.inner.lock().expect("serve stats mutex").snapshot.batches += 1;
    }

    /// Accumulates a plan-cache counter delta (hits, misses, evictions,
    /// and the bytes those evictions released, observed since the
    /// previous call).
    pub fn record_cache_delta(&self, hits: u64, misses: u64, evictions: u64, evict_bytes: u64) {
        let mut inner = self.inner.lock().expect("serve stats mutex");
        inner.snapshot.cache_hits += hits;
        inner.snapshot.cache_misses += misses;
        inner.snapshot.cache_evictions += evictions;
        inner.snapshot.cache_evict_bytes += evict_bytes;
    }

    /// Sets the plan cache's current resident bytes (gauge semantics:
    /// overwrites, never accumulates).
    pub fn record_cache_resident(&self, bytes: u64) {
        self.inner
            .lock()
            .expect("serve stats mutex")
            .snapshot
            .cache_resident_bytes = bytes;
    }

    /// Accumulates a weighted-series counter delta (hits, resumes,
    /// builds and evictions observed since the previous call).
    pub fn record_projection_delta(&self, hits: u64, resumes: u64, builds: u64, evictions: u64) {
        let mut inner = self.inner.lock().expect("serve stats mutex");
        let p = &mut inner.snapshot.projection;
        p.hits += hits;
        p.resumes += resumes;
        p.builds += builds;
        p.evictions += evictions;
    }

    /// Sets the weighted series' current resident bytes (gauge
    /// semantics).
    pub fn record_projection_resident(&self, bytes: u64) {
        self.inner
            .lock()
            .expect("serve stats mutex")
            .snapshot
            .projection
            .resident_bytes = bytes;
    }

    /// Copies out the current window.
    pub fn snapshot(&self) -> ServeStatsSnapshot {
        self.inner.lock().expect("serve stats mutex").snapshot.clone()
    }

    /// Clears every counter and histogram, starting a fresh window.
    pub fn reset(&self) {
        *self.inner.lock().expect("serve stats mutex") = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn lat(total: u64) -> RequestLatency {
        RequestLatency {
            queue_ns: total / 10,
            plan_ns: total / 10,
            execute_ns: total / 2,
            slice_ns: total / 10,
            total_ns: total,
        }
    }

    #[test]
    fn counts_requests_errors_and_latency_phases() {
        let stats = ServeStats::new();
        stats.record_request(Some(7), None, &lat(1_000));
        stats.record_request(Some(7), None, &lat(3_000));
        stats.record_request(Some(9), Some("solver"), &lat(2_000));
        stats.record_request(None, Some("parse"), &lat(100));
        stats.record_batch();
        stats.record_cache_delta(2, 1, 0, 0);

        let s = stats.snapshot();
        assert_eq!(s.requests, 4);
        assert_eq!(s.ok, 2);
        assert_eq!(s.errors_total(), 2);
        assert_eq!(s.errors.get("parse"), Some(&1));
        assert_eq!(s.errors.get("solver"), Some(&1));
        assert_eq!(s.batches, 1);
        assert_eq!(s.total.count, 4);
        assert_eq!(s.queue.count, 4);
        assert_eq!(s.execute.count, 4);
        assert_eq!(s.slice.count, 4);
        assert_eq!(s.cache_hit_rate(), Some(2.0 / 3.0));
        // Per-model rows: digest 7 saw two successes, digest 9 one
        // solver error; the unresolvable parse error has no digest.
        assert_eq!(s.models.len(), 2);
        assert_eq!(s.models[&7].requests, 2);
        assert_eq!(s.models[&7].ok, 2);
        assert_eq!(s.models[&9].errors, 1);
        assert_eq!(s.models[&7].latency.count, 2);
    }

    #[test]
    fn reset_starts_a_fresh_window() {
        let stats = ServeStats::new();
        stats.record_request(Some(1), None, &lat(500));
        stats.record_cache_delta(1, 1, 1, 640);
        stats.record_cache_resident(1024);
        stats.reset();
        let s = stats.snapshot();
        assert_eq!(s, ServeStatsSnapshot::default());
        assert_eq!(s.cache_hit_rate(), None);
        assert_eq!(s.total.p50_ns(), None, "fresh window has no percentiles");
    }

    #[test]
    fn snapshot_json_parses_with_expected_keys() {
        let stats = ServeStats::new();
        stats.record_request(Some(0xabc), None, &lat(2_000));
        stats.record_request(Some(0xabc), Some("model"), &lat(900));
        stats.record_batch();
        stats.record_cache_delta(1, 1, 2, 4_096);
        stats.record_cache_resident(65_536);
        stats.record_projection_delta(3, 1, 2, 1);
        stats.record_projection_resident(8_192);
        let v = parse(&stats.snapshot().to_json()).expect("valid stats JSON");
        assert_eq!(v.get("requests").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("ok").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("errors").unwrap().get("model").unwrap().as_f64(), Some(1.0));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache.get("hit_rate").unwrap().as_f64(), Some(0.5));
        assert_eq!(cache.get("evict_bytes").unwrap().as_f64(), Some(4_096.0));
        assert_eq!(cache.get("resident_bytes").unwrap().as_f64(), Some(65_536.0));
        let proj = cache.get("projection").unwrap();
        for (key, want) in [
            ("hits", 3.0),
            ("resumes", 1.0),
            ("builds", 2.0),
            ("evictions", 1.0),
            ("resident_bytes", 8_192.0),
        ] {
            assert_eq!(proj.get(key).unwrap().as_f64(), Some(want), "{key}");
        }
        let total = v.get("latency").unwrap().get("total").unwrap();
        assert_eq!(total.get("count").unwrap().as_f64(), Some(2.0));
        assert!(total.get("p50_ns").unwrap().as_f64().is_some());
        assert!(total.get("p99_ns").unwrap().as_f64().is_some());
        let row = v.get("models").unwrap().get("0000000000000abc").unwrap();
        assert_eq!(row.get("requests").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn empty_window_json_omits_percentiles_and_rate() {
        let v = parse(&ServeStats::new().snapshot().to_json()).unwrap();
        let total = v.get("latency").unwrap().get("total").unwrap();
        assert!(total.get("p50_ns").is_none(), "empty histogram: no p50 key");
        assert_eq!(v.get("cache").unwrap().get("hit_rate"), Some(&crate::json::Value::Null));
    }

    #[test]
    fn model_rows_cap_at_the_limit_and_overflow_to_other() {
        let stats = ServeStats::new();
        for d in 0..(MAX_MODEL_ROWS as u64 + 10) {
            stats.record_request(Some(d), None, &lat(1_000));
        }
        // Known digests keep accumulating even after the cap.
        stats.record_request(Some(0), None, &lat(1_000));
        let s = stats.snapshot();
        assert_eq!(s.models.len(), MAX_MODEL_ROWS);
        assert_eq!(s.other_models.requests, 10);
        assert_eq!(s.models[&0].requests, 2);
        let v = parse(&s.to_json()).unwrap();
        assert!(v.get("models").unwrap().get("other").is_some());
    }

    #[test]
    fn metrics_snapshot_view_is_sorted_and_complete() {
        let stats = ServeStats::new();
        stats.record_request(Some(3), None, &lat(1_000));
        stats.record_request(None, Some("parse"), &lat(10));
        stats.record_batch();
        stats.record_cache_delta(0, 1, 1, 2_048);
        stats.record_cache_resident(8_192);
        stats.record_projection_delta(4, 0, 1, 0);
        stats.record_projection_resident(1_024);
        let snap = stats.snapshot().to_metrics_snapshot();
        assert_eq!(snap.counter("serve.proj.hit"), Some(4));
        assert_eq!(snap.counter("serve.proj.build"), Some(1));
        assert_eq!(snap.gauge("mem.proj.resident"), Some(1_024.0));
        assert_eq!(snap.counter("serve.requests"), Some(2));
        assert_eq!(snap.counter("serve.responses.ok"), Some(1));
        assert_eq!(snap.counter("serve.errors.parse"), Some(1));
        assert_eq!(snap.counter("serve.plan.miss"), Some(1));
        assert_eq!(snap.counter("serve.plan.evict_bytes"), Some(2_048));
        assert_eq!(snap.gauge("mem.cache.resident"), Some(8_192.0));
        assert_eq!(snap.counter("serve.model.0000000000000003.requests"), Some(1));
        assert_eq!(snap.timing("serve.latency.total").map(|t| t.count), Some(2));
        // lookup() relies on sort order; spot-check both lists.
        assert!(snap.counters.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(snap.timings.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
