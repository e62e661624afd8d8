//! The batch loop: read request lines, answer each from the plan cache
//! and the series its entries keep, respond.
//!
//! [`serve`] drains its input through a reader thread into a channel and
//! processes whatever has accumulated since the last batch in one go.
//! Serve answers π-weighted moments only, so every request is a
//! weighted query ([`PlanCache::answer`]): plans are shared per chain,
//! and one projected series per `(chain, π)` answers every horizon and
//! order it covers without a recursion, resuming it for a longer
//! horizon. Requests are answered one by one in request order, and each
//! answer is a pure function of its own request — batch-mates, earlier
//! traffic and evictions change how much work it costs, never its bits.
//!
//! Request-scoped telemetry rides on top (see [`crate::telemetry`]):
//! every request line gets a sequence number and a received instant,
//! its lifecycle phases are measured, and they feed a rolling
//! [`ServeStats`] window queryable in-band via `{"cmd":"stats"}`. All
//! of it is read-only — response bytes are bitwise identical with
//! telemetry on or off.
//!
//! Error containment: a malformed line, an unresolvable model, or a
//! solver error produces a structured error response on that request's
//! line slot; the server never exits on bad input.

use crate::cache::{AnswerError, CacheStats, PlanCache, ProjectionStats};
use crate::proto::{
    parse_request, render_err, render_ok, request_id, ModelSpec, RequestId, MAX_LINE_BYTES,
    MAX_ORDER,
};
use crate::telemetry::{
    parse_command, render_health, render_reset, render_stats, CommandKind, SlowTraceOptions,
    TraceTee, TracedLine,
};
use somrm_core::uniformization::SolverConfig;
use somrm_core::{model_digest, SecondOrderMrm, SolvePlan};
use somrm_obs::{ChromeTraceRecorder, RecorderHandle, RequestLatency, ServeStats};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How the server resolves a request's [`ModelSpec`] to a model. The
/// CLI supplies its model-file parser here; tests supply closures.
pub type ModelResolver<'a> = dyn Fn(&ModelSpec) -> Result<SecondOrderMrm, String> + 'a;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Solver configuration every plan is built with (including the
    /// telemetry recorder the cache counters go to).
    pub solver: SolverConfig,
    /// Plan-cache capacity (entries; clamped to at least 1). Defaults
    /// to 32: an entry keeps its chain's series, so a miss costs a
    /// recursion from step 0, not just a plan build, and a serve-sized
    /// entry (100–1,001 states, plan and a few series) takes tens to a
    /// few hundred KB. With chains of thousands of states, bound it by
    /// bytes (`cache_bytes`); with `--threads > 1`, each resident plan
    /// of 4,096 states or more also keeps its parked worker threads.
    pub cache_capacity: usize,
    /// Optional plan-cache byte budget (`--cache-bytes`): the summed
    /// exact bytes of the entries — each plan's footprint plus its
    /// series — are kept at or under this, evicting LRU entries beyond
    /// the count ceiling. `None` disables byte-based eviction.
    pub cache_bytes: Option<u64>,
    /// The rolling request-statistics window, shared with the caller so
    /// an end-of-session snapshot (`--stats-out`) can be taken after
    /// [`serve`] returns. Always on: one short mutex touch per request,
    /// noise against the solves being accounted.
    pub stats: Arc<ServeStats>,
    /// Slow-request trace capture; `None` disables the per-batch trace
    /// recorder entirely.
    pub slow_trace: Option<SlowTraceOptions>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            solver: SolverConfig::default(),
            cache_capacity: 32,
            cache_bytes: None,
            stats: Arc::new(ServeStats::new()),
            slow_trace: None,
        }
    }
}

/// What one [`serve`] run did, for the exit summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines received (blank lines and sideband commands
    /// excluded).
    pub requests: u64,
    /// Success responses written.
    pub ok: u64,
    /// Error responses written.
    pub errors: u64,
    /// Batches processed.
    pub batches: u64,
    /// Sideband command lines answered (recognized or not).
    pub cmds: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Counters of the entries' weighted series.
    pub projection: ProjectionStats,
}

/// Responses and counts of one processed batch.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// One response line per request line, in request order.
    pub responses: Vec<String>,
    /// Success responses among them.
    pub ok: u64,
    /// Error responses among them.
    pub errors: u64,
    /// Measured lifecycle of each request, parallel to `responses`.
    pub latencies: Vec<RequestLatency>,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Processes one batch of request lines exactly like the traced path,
/// with telemetry origin pinned to "now" (zero queue wait) and no stats
/// sink — the compatibility entry point for benches and tests that
/// construct plain line slices.
pub fn serve_batch(
    lines: &[String],
    resolver: &ModelResolver,
    cache: &mut PlanCache,
    solver: &SolverConfig,
) -> BatchOutcome {
    let now = Instant::now();
    let traced: Vec<TracedLine> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| TracedLine {
            seq: i as u64,
            received: now,
            line: Ok(l.clone()),
        })
        .collect();
    serve_batch_traced(&traced, resolver, cache, solver, None, now)
}

/// Processes one batch of request lines: parse and resolve each, answer
/// it on its chain's cached plan and series ([`PlanCache::answer`],
/// which builds plans for orders up to [`MAX_ORDER`] on a miss), then
/// render the responses in request order. A response's `coalesced`
/// counts the batch's successful requests answered from the same series
/// (the same chain and π).
///
/// Telemetry (read-only; responses are not affected): each request's
/// lifecycle is measured into [`RequestLatency`] — queue wait from its
/// `received` instant to `batch_start`, its plan lookup or build, its
/// query, its render — and recorded into `stats` (when given) plus, when
/// the solver recorder is enabled, emitted as `req[<seq>]` timeline
/// events via `span_complete` (timeline-only: per-request names never
/// reach the aggregating registry).
pub fn serve_batch_traced(
    lines: &[TracedLine],
    resolver: &ModelResolver,
    cache: &mut PlanCache,
    solver: &SolverConfig,
    stats: Option<&ServeStats>,
    batch_start: Instant,
) -> BatchOutcome {
    let rec = &solver.recorder;
    let n = lines.len();
    let mut responses: Vec<Option<String>> = vec![None; n];
    let mut latencies: Vec<RequestLatency> = vec![RequestLatency::default(); n];
    let mut digests: Vec<Option<u64>> = vec![None; n];
    let mut error_kinds: Vec<Option<&'static str>> = vec![None; n];
    // Successful answers, rendered once the batch's `coalesced` counts
    // are known.
    let mut answered = Vec::new();

    for (slot, tl) in lines.iter().enumerate() {
        let parsed = match &tl.line {
            // The id may still be recoverable from valid JSON.
            Ok(line) => parse_request(line).map_err(|e| (request_id(line), e)),
            Err(e) => Err((RequestId::null(), e.clone())),
        };
        let req = match parsed {
            Ok(req) => req,
            Err((id, e)) => {
                error_kinds[slot] = Some("parse");
                responses[slot] = Some(render_err(&id, &e));
                continue;
            }
        };
        let model = match resolver(&req.model) {
            Ok(model) => model,
            Err(e) => {
                error_kinds[slot] = Some("model");
                responses[slot] = Some(render_err(&req.id, &format!("model: {e}")));
                continue;
            }
        };
        let t0 = Instant::now();
        let result = cache.answer(&model, &req.times, req.order, || {
            SolvePlan::build(&model, MAX_ORDER, solver)
        });
        let total = ns(t0.elapsed());
        match result {
            Ok(answer) => {
                digests[slot] = Some(answer.entry);
                latencies[slot].plan_ns = answer.plan_ns;
                latencies[slot].execute_ns = total.saturating_sub(answer.plan_ns);
                answered.push((slot, req, answer));
            }
            Err(e) => {
                let kind = match e {
                    AnswerError::Plan(_) => "plan",
                    AnswerError::Solve(_) => "solver",
                };
                latencies[slot].plan_ns = total;
                digests[slot] = Some(model_digest(&model));
                error_kinds[slot] = Some(kind);
                responses[slot] = Some(render_err(&req.id, &e.to_string()));
            }
        }
    }

    for (slot, req, answer) in &answered {
        let coalesced = answered
            .iter()
            .filter(|(_, _, a)| a.entry == answer.entry)
            .count();
        let slice_t0 = Instant::now();
        let sols: Vec<&somrm_core::MomentSolution> = answer.solutions.iter().collect();
        responses[*slot] = Some(render_ok(
            &req.id,
            answer.plan_hit,
            coalesced,
            req.order,
            &sols,
        ));
        let slice_ns = ns(slice_t0.elapsed());
        latencies[*slot].slice_ns = slice_ns;
        if rec.enabled() {
            rec.span_complete(
                &format!("req[{}] slice", lines[*slot].seq),
                slice_t0,
                slice_ns,
            );
        }
    }

    let end = Instant::now();
    let mut outcome = BatchOutcome::default();
    for (slot, r) in responses.into_iter().enumerate() {
        let r = r.expect("every slot answered");
        if r.contains("\"ok\":true") {
            outcome.ok += 1;
        } else {
            outcome.errors += 1;
        }
        outcome.responses.push(r);
        let tl = &lines[slot];
        latencies[slot].queue_ns = ns(batch_start.saturating_duration_since(tl.received));
        latencies[slot].total_ns = ns(end.saturating_duration_since(tl.received));
        if rec.enabled() {
            // The id-tagged lifecycle span: received → responses
            // rendered (the batch flushes as one write, so batch end IS
            // the user-visible response time for every member).
            rec.span_complete(&format!("req[{}]", tl.seq), tl.received, latencies[slot].total_ns);
        }
        if let Some(st) = stats {
            st.record_request(digests[slot], error_kinds[slot], &latencies[slot]);
        }
    }
    if let Some(st) = stats {
        st.record_batch();
    }
    outcome.latencies = latencies;
    outcome
}

/// Flushes one contiguous run of solve requests: executes the batch,
/// writes its responses, publishes counters, rolls the plan-cache delta
/// into the stats window, and captures slow-request traces.
#[allow(clippy::too_many_arguments)]
fn flush_segment<W: Write>(
    pending: &mut Vec<TracedLine>,
    out: &mut W,
    resolver: &ModelResolver,
    cache: &mut PlanCache,
    solver: &SolverConfig,
    stats: &ServeStats,
    tee: Option<&TraceTee>,
    slow: Option<&SlowTraceOptions>,
    summary: &mut ServeSummary,
    last: &mut (CacheStats, ProjectionStats),
) -> std::io::Result<()> {
    if pending.is_empty() {
        return Ok(());
    }
    let rec = &solver.recorder;
    summary.requests += pending.len() as u64;
    rec.counter_add("serve.requests", pending.len() as u64);

    // Slow capture: a fresh per-batch timeline goes into the tee so the
    // cached plans' executes (whose recorder is the tee, baked in at
    // build) land in it alongside the request lifecycle spans.
    let batch_rec = tee.map(|t| {
        let r = Arc::new(ChromeTraceRecorder::new());
        t.install(r.clone());
        r
    });
    let batch_start = Instant::now();
    let outcome = serve_batch_traced(pending, resolver, cache, solver, Some(stats), batch_start);
    if let Some(t) = tee {
        t.take();
    }

    for r in &outcome.responses {
        writeln!(out, "{r}")?;
    }
    out.flush()?;
    summary.ok += outcome.ok;
    summary.errors += outcome.errors;
    summary.batches += 1;
    rec.counter_add("serve.responses.ok", outcome.ok);
    rec.counter_add("serve.responses.err", outcome.errors);
    rec.counter_add("serve.batches", 1);

    let (cur, proj) = (cache.stats(), cache.projection_stats());
    let (last_cache, last_proj) = *last;
    stats.record_cache_delta(
        cur.hits - last_cache.hits,
        cur.misses - last_cache.misses,
        cur.evictions - last_cache.evictions,
        cur.evict_bytes - last_cache.evict_bytes,
    );
    stats.record_cache_resident(cache.resident_bytes());
    stats.record_projection_delta(
        proj.hits - last_proj.hits,
        proj.resumes - last_proj.resumes,
        proj.builds - last_proj.builds,
        proj.evictions - last_proj.evictions,
    );
    stats.record_projection_resident(cache.projection_bytes());
    *last = (cur, proj);

    if let (Some(slow), Some(batch_rec)) = (slow, batch_rec) {
        let threshold = slow.threshold_ns();
        let mut trace_json: Option<String> = None;
        for (tl, lat) in pending.iter().zip(&outcome.latencies) {
            if lat.total_ns > threshold || threshold == 0 {
                // Responses stay untouched (bitwise contract), so the
                // trace is named by seq and correlated on stderr.
                let json = trace_json.get_or_insert_with(|| batch_rec.to_json());
                let path = slow.trace_path(tl.seq);
                match std::fs::write(&path, json.as_bytes()) {
                    Ok(()) => eprintln!(
                        "somrm-serve: slow request seq={} total_ms={:.3} trace={}",
                        tl.seq,
                        lat.total_ns as f64 / 1e6,
                        path.display()
                    ),
                    Err(e) => eprintln!(
                        "somrm-serve: failed to write slow trace {}: {e}",
                        path.display()
                    ),
                }
            }
        }
    }
    pending.clear();
    Ok(())
}

/// Reads the next line of `input` without its `\n` and a `\r` before
/// it, as [`BufRead::lines`] strips them: `None` at the end of the
/// input, and an error message in place of a line that is not UTF-8 or
/// is longer than `limit` bytes, whose rest is skipped without being
/// held — so a bad line is answered instead of ending the input.
fn read_request_line(
    input: &mut impl BufRead,
    limit: usize,
) -> std::io::Result<Option<Result<String, String>>> {
    let mut buf = Vec::new();
    // Room for `limit` bytes and a `\r\n`: anything longer is refused.
    Read::take(&mut *input, limit as u64 + 2).read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Ok(None);
    }
    let ended = buf.last() == Some(&b'\n');
    if ended {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > limit {
        if !ended {
            skip_line(input)?;
        }
        return Ok(Some(Err(format!(
            "request line is longer than the limit of {limit} bytes"
        ))));
    }
    Ok(Some(String::from_utf8(buf).map_err(|e| {
        format!("request line is not UTF-8: {}", e.utf8_error())
    })))
}

/// Consumes `input` through the next `\n` (or to its end), one buffered
/// chunk at a time.
fn skip_line(input: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(());
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let used = newline.map_or(chunk.len(), |i| i + 1);
        input.consume(used);
        if newline.is_some() {
            return Ok(());
        }
    }
}

/// Runs the serve loop until `input` reaches end-of-file: one JSON
/// request per line in, one JSON response per line out (see
/// [`crate::proto`]), batching whatever has queued between writes so
/// concurrent requests share one flush.
///
/// Lines carrying a top-level `"cmd"` member are sideband admin
/// commands (see [`crate::telemetry`]): they are answered in line order
/// — solve requests ahead of a command in the same drain are executed
/// and written first, so `{"cmd":"stats"}` reflects them — and they do
/// not count as requests.
///
/// # Errors
///
/// Only I/O errors end the loop early (on `out`; on `input` they end it
/// as its end would); bad request lines are answered, never fatal.
pub fn serve<R, W>(
    input: R,
    out: &mut W,
    resolver: &ModelResolver,
    options: &ServeOptions,
) -> std::io::Result<ServeSummary>
where
    R: Read + Send + 'static,
    W: Write,
{
    let (tx, rx) = mpsc::channel::<(Instant, Result<String, String>)>();
    let reader = std::thread::Builder::new()
        .name("somrm-serve-reader".to_string())
        .spawn(move || {
            let mut input = BufReader::new(input);
            while let Ok(Some(line)) = read_request_line(&mut input, MAX_LINE_BYTES) {
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        })
        .expect("spawn serve reader thread");

    // Slow capture needs a per-batch recorder swap point behind the
    // stable recorder cached plans bake in at build: the TraceTee.
    let mut solver = options.solver.clone();
    let tee: Option<Arc<TraceTee>> = if options.slow_trace.is_some() {
        let t = Arc::new(TraceTee::new(&solver.recorder));
        solver.recorder = RecorderHandle::new(t.clone());
        Some(t)
    } else {
        None
    };
    let rec = solver.recorder.clone();
    let mut cache = PlanCache::with_budget(options.cache_capacity, options.cache_bytes, rec.clone());
    let stats = &options.stats;
    let mut summary = ServeSummary::default();
    let mut last = (CacheStats::default(), ProjectionStats::default());
    let mut next_seq: u64 = 0;
    // Block for the first line, then drain whatever else has queued —
    // concurrent senders land in one batch. Exits when input
    // closes and the channel drains.
    while let Ok(first) = rx.recv() {
        let mut drained = vec![first];
        while let Ok(x) = rx.try_recv() {
            drained.push(x);
        }
        let mut pending: Vec<TracedLine> = Vec::new();
        for (received, line) in drained {
            // A line the reader could not take as text is neither blank
            // nor a command: it is answered in turn, like any bad request.
            let text = line.as_deref().unwrap_or("");
            if line.is_ok() && text.trim().is_empty() {
                continue;
            }
            // Cheap pre-filter: a full parse only for lines that could
            // possibly carry a top-level "cmd" member.
            if text.contains("\"cmd\"") {
                if let Some(cmd) = parse_command(text) {
                    flush_segment(
                        &mut pending,
                        out,
                        resolver,
                        &mut cache,
                        &solver,
                        stats,
                        tee.as_deref(),
                        options.slow_trace.as_ref(),
                        &mut summary,
                        &mut last,
                    )?;
                    summary.cmds += 1;
                    let resp = match &cmd.kind {
                        CommandKind::Stats => render_stats(&cmd.id, &stats.snapshot()),
                        CommandKind::Reset => {
                            stats.reset();
                            render_reset(&cmd.id)
                        }
                        CommandKind::Health => render_health(&cmd.id, rec.snapshot().as_ref()),
                        CommandKind::Unknown(name) => render_err(
                            &cmd.id,
                            &format!(
                                "unknown cmd {name:?}: expected \"stats\", \"reset\", or \"health\""
                            ),
                        ),
                    };
                    writeln!(out, "{resp}")?;
                    out.flush()?;
                    continue;
                }
            }
            pending.push(TracedLine {
                seq: next_seq,
                received,
                line,
            });
            next_seq += 1;
        }
        flush_segment(
            &mut pending,
            out,
            resolver,
            &mut cache,
            &solver,
            stats,
            tee.as_deref(),
            options.slow_trace.as_ref(),
            &mut summary,
            &mut last,
        )?;
    }
    reader.join().ok();
    summary.cache = cache.stats();
    summary.projection = cache.projection_stats();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_core::uniformization::moments_sweep;
    use somrm_core::ProjectedSeries;
    use somrm_ctmc::generator::GeneratorBuilder;
    use somrm_obs::json::{parse, Value};
    use std::io::Cursor;

    const MODEL_A: &str = "model-a";
    const MODEL_B: &str = "model-b";

    fn build(which: &str) -> SecondOrderMrm {
        let (hi, drift) = match which {
            MODEL_A => (2.0, 3.0),
            MODEL_B => (5.0, 1.0),
            other => panic!("unknown test model {other}"),
        };
        let mut b = GeneratorBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        b.rate(1, 0, hi).unwrap();
        SecondOrderMrm::new(
            b.build().unwrap(),
            vec![0.0, drift],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        )
        .unwrap()
    }

    fn resolver(spec: &ModelSpec) -> Result<SecondOrderMrm, String> {
        match spec {
            ModelSpec::Inline(text) => Ok(build(text)),
            ModelSpec::File(path) => Err(format!("no files in tests: {path}")),
        }
    }

    fn moments_of(response: &Value) -> Vec<f64> {
        response.get("results").unwrap().as_array().unwrap()[0]
            .get("moments")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect()
    }

    #[test]
    fn request_lines_lose_their_line_ends_and_bad_lines_become_errors() {
        let bytes = b"ab\r\n\ncd\n\xff\xfe\n0123456789\r\n0123456789x\n0123456789xyz\nlast\r";
        // A 4-byte buffer makes the skip cross several chunks.
        let mut input = BufReader::with_capacity(4, &bytes[..]);
        let mut read = || read_request_line(&mut input, 10).unwrap();
        assert_eq!(read(), Some(Ok("ab".to_string())));
        assert_eq!(read(), Some(Ok(String::new())));
        assert_eq!(read(), Some(Ok("cd".to_string())));
        let not_utf8 = read().unwrap().unwrap_err();
        assert!(
            not_utf8.starts_with("request line is not UTF-8"),
            "{not_utf8}"
        );
        assert_eq!(read(), Some(Ok("0123456789".to_string())), "at the limit");
        for _ in 0..2 {
            let long = read().unwrap().unwrap_err();
            assert!(long.contains("limit of 10 bytes"), "{long}");
        }
        // As `lines()` does, a `\r` stays when no `\n` follows it.
        assert_eq!(read(), Some(Ok("last\r".to_string())));
        assert_eq!(read(), None);
    }

    #[test]
    fn a_line_that_is_not_utf8_is_answered_and_the_next_line_too() {
        let mut input = br#"{"id": 1, "model": "model-a", "t": 0.5}"#.to_vec();
        input.extend_from_slice(b"\n\xff\n");
        input.extend_from_slice(br#"{"id": 3, "model": "model-a", "t": 0.5}"#);
        input.push(b'\n');
        let mut out = Vec::new();
        let options = ServeOptions::default();
        let summary = serve(Cursor::new(input), &mut out, &resolver, &options).unwrap();
        assert_eq!((summary.requests, summary.ok, summary.errors), (3, 2, 1));
        assert_eq!(options.stats.snapshot().errors.get("parse"), Some(&1));
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(lines[1].get("id"), Some(&Value::Null));
        assert_eq!(lines[1].get("ok"), Some(&Value::Bool(false)));
        let error = lines[1].get("error").and_then(Value::as_str).unwrap();
        assert!(error.starts_with("request line is not UTF-8"), "{error}");
        assert_eq!(lines[2].get("id").and_then(Value::as_f64), Some(3.0));
        assert_eq!(lines[2].get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn round_trip_with_malformed_input_never_exits() {
        let input = format!(
            "{}\n{}\n{}\n{}\n",
            r#"{"id": 1, "model": "model-a", "t": [0.5], "order": 2}"#,
            "this is not json",
            r#"{"id": 3, "model": "model-a", "t": -2}"#,
            r#"{"id": 4, "model_file": "/nope", "t": 1}"#,
        );
        let mut out = Vec::new();
        let summary = serve(
            Cursor::new(input),
            &mut out,
            &resolver,
            &ServeOptions::default(),
        )
        .unwrap();
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.ok, 1);
        assert_eq!(summary.errors, 3);

        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one response per request line");
        for l in &lines {
            parse(l).unwrap_or_else(|e| panic!("response not JSON: {e}: {l}"));
        }
        // The good request matches a cold one-request weighted query
        // bit for bit (shortest round-trip float formatting preserves
        // every bit), and the per-state solve within both bounds.
        let good = lines
            .iter()
            .map(|l| parse(l).unwrap())
            .find(|v| v.get("ok") == Some(&Value::Bool(true)))
            .expect("one success");
        let model = build(MODEL_A);
        let plan = SolvePlan::build(&model, MAX_ORDER, &SolverConfig::default()).unwrap();
        let mut series = ProjectedSeries::new(model.initial().to_vec());
        let (weighted, _) = plan.execute_weighted(&mut series, &[0.5], 2).unwrap();
        assert_eq!(moments_of(&good), weighted[0].weighted);
        let cold = moments_sweep(&model, 2, &[0.5], &SolverConfig::default()).unwrap();
        for (j, served) in moments_of(&good).into_iter().enumerate() {
            let tol = 2.0 * cold[0].error_bound(j) + 1e-12 * cold[0].weighted[j].abs();
            assert!((served - cold[0].weighted[j]).abs() <= tol, "moment {j}");
        }
        // Errors carry their ids and a message.
        let errs: Vec<Value> = lines
            .iter()
            .map(|l| parse(l).unwrap())
            .filter(|v| v.get("ok") == Some(&Value::Bool(false)))
            .collect();
        assert_eq!(errs.len(), 3);
        assert!(errs.iter().any(|v| v.get("id").unwrap().as_f64() == Some(3.0)));
        assert!(errs.iter().all(|v| v.get("error").unwrap().as_str().is_some()));
    }

    #[test]
    fn ids_echo_as_written_and_a_long_t_array_spares_the_next_line() {
        let times = vec!["0.5"; crate::proto::MAX_TIMES + 1].join(",");
        let input = [
            r#"{"id": 7, "model": "model-a", "t": 0.5}"#.to_string(),
            r#"{"id": 12345678901234567891, "model": "model-a", "t": 0.5}"#.to_string(),
            r#"{"id": 1e400, "model": "model-a", "t": -1}"#.to_string(),
            format!(r#"{{"id": "long", "model": "model-a", "t": [{times}]}}"#),
            r#"{"model": "model-b", "t": 0.5}"#.to_string(),
        ]
        .join("\n");
        let mut out = Vec::new();
        let summary = serve(
            Cursor::new(input),
            &mut out,
            &resolver,
            &ServeOptions::default(),
        )
        .unwrap();
        assert_eq!((summary.ok, summary.errors), (3, 2));
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let heads = [
            r#"{"id":7,"ok":true,"#,
            r#"{"id":12345678901234567891,"ok":true,"#,
            r#"{"id":1e400,"ok":false,"#,
            r#"{"id":"long","ok":false,"#,
            r#"{"id":null,"ok":true,"#,
        ];
        assert_eq!(lines.len(), heads.len());
        for (line, head) in lines.iter().zip(heads) {
            assert!(line.starts_with(head), "{line}");
            parse(line).unwrap_or_else(|e| panic!("response not JSON: {e}: {line}"));
        }
        assert!(lines[3].contains("limit of 1024"), "{}", lines[3]);
    }

    #[test]
    fn batch_coalesces_same_model_requests_onto_one_store_entry() {
        let lines: Vec<String> = vec![
            r#"{"id": "a", "model": "model-a", "t": [0.6], "order": 2}"#.to_string(),
            r#"{"id": "b", "model": "model-a", "t": [0.9, 0.6]}"#.to_string(),
            r#"{"id": "c", "model": "model-b", "t": [0.5]}"#.to_string(),
        ];
        let mut cache = PlanCache::new(4, somrm_obs::RecorderHandle::disabled());
        let solver = SolverConfig::default();
        let outcome = serve_batch(&lines, &resolver, &mut cache, &solver);
        assert_eq!(outcome.ok, 3);
        assert_eq!(outcome.errors, 0);

        let a = parse(&outcome.responses[0]).unwrap();
        let b = parse(&outcome.responses[1]).unwrap();
        let c = parse(&outcome.responses[2]).unwrap();
        // a and b share model-a's plan and series: a builds both, b (a
        // longer horizon) hits the plan and resumes the series. c is its
        // own entry.
        assert_eq!(a.get("coalesced").unwrap().as_f64(), Some(2.0));
        assert_eq!(b.get("coalesced").unwrap().as_f64(), Some(2.0));
        assert_eq!(c.get("coalesced").unwrap().as_f64(), Some(1.0));
        assert_eq!(a.get("plan").unwrap().as_str(), Some("miss"));
        assert_eq!(b.get("plan").unwrap().as_str(), Some("hit"));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 1);
        let proj = cache.projection_stats();
        assert_eq!((proj.builds, proj.resumes, proj.hits), (2, 1, 0));

        // Results arrive in request order.
        let b_results = b.get("results").unwrap().as_array().unwrap();
        assert_eq!(b_results[0].get("t").unwrap().as_f64(), Some(0.9));
        assert_eq!(b_results[1].get("t").unwrap().as_f64(), Some(0.6));

        // A second batch with the same shape is all plan and series
        // hits, with byte-identical responses (modulo the miss→hit
        // flip).
        let outcome2 = serve_batch(&lines, &resolver, &mut cache, &solver);
        for r in &outcome2.responses {
            assert_eq!(parse(r).unwrap().get("plan").unwrap().as_str(), Some("hit"));
        }
        assert_eq!(cache.stats().hits, 4);
        assert_eq!(cache.projection_stats().hits, 3);
        let normalized: Vec<String> = outcome
            .responses
            .iter()
            .map(|r| r.replace("\"plan\":\"miss\"", "\"plan\":\"hit\""))
            .collect();
        assert_eq!(normalized, outcome2.responses);
    }

    /// The `results` member of a response line, as raw text.
    fn results_text(response: &str) -> &str {
        let at = response.find("\"results\":").expect("a success response");
        &response[at..]
    }

    #[test]
    fn an_answer_does_not_depend_on_batch_mates_resumes_or_evictions() {
        let request = r#"{"id": 1, "model": "model-a", "t": 0.4, "order": 1}"#.to_string();
        let longer = r#"{"id": 2, "model": "model-a", "t": 1.6, "order": 3}"#.to_string();
        let other = r#"{"id": 3, "model": "model-b", "t": 0.4, "order": 1}"#.to_string();
        let solver = SolverConfig::default();
        let fresh = || PlanCache::new(4, somrm_obs::RecorderHandle::disabled());
        let answer = |cache: &mut PlanCache, lines: &[String], slot: usize| {
            serve_batch(lines, &resolver, cache, &solver).responses[slot].clone()
        };

        // Alone, on a fresh cache.
        let alone = answer(&mut fresh(), std::slice::from_ref(&request), 0);
        // Batched after a higher-order, 4×-longer request of the model.
        let batched = answer(&mut fresh(), &[longer.clone(), request.clone()], 1);
        // After a resume: a short request builds the series, a longer one
        // resumes it, then the request is answered from the record.
        let mut cache = fresh();
        answer(&mut cache, std::slice::from_ref(&request), 0);
        answer(
            &mut cache,
            &[r#"{"model": "model-a", "t": 1.6, "order": 1}"#.to_string()],
            0,
        );
        assert_eq!(cache.projection_stats().resumes, 1);
        let resumed = answer(&mut cache, std::slice::from_ref(&request), 0);
        assert_eq!(cache.projection_stats().hits, 1);
        // After eviction: in a cache of one plan, another model's
        // request evicts model-a's plan and series, so the request
        // rebuilds both.
        let mut cache = PlanCache::new(1, somrm_obs::RecorderHandle::disabled());
        answer(&mut cache, std::slice::from_ref(&longer), 0);
        answer(&mut cache, std::slice::from_ref(&other), 0);
        let evicted = answer(&mut cache, std::slice::from_ref(&request), 0);
        assert_eq!(cache.projection_stats().evictions, 2);

        let want = results_text(&alone);
        for (name, got) in [
            ("batched", &batched),
            ("resumed", &resumed),
            ("evicted", &evicted),
        ] {
            assert_eq!(results_text(got), want, "{name}");
        }
        let r = parse(&alone).unwrap();
        assert_eq!(moments_of(&r).len(), 2, "order 1 → moments 0..=1");
    }

    #[test]
    fn solver_errors_answer_instead_of_killing_the_batch() {
        // Iteration cap exceeded for one group; the other still answers.
        let lines: Vec<String> = vec![
            r#"{"id": 1, "model": "model-a", "t": 1e9}"#.to_string(),
            r#"{"id": 2, "model": "model-b", "t": 0.5}"#.to_string(),
        ];
        let mut cache = PlanCache::new(4, somrm_obs::RecorderHandle::disabled());
        let outcome = serve_batch(&lines, &resolver, &mut cache, &SolverConfig::default());
        assert_eq!(outcome.ok, 1);
        assert_eq!(outcome.errors, 1);
        let r1 = parse(&outcome.responses[0]).unwrap();
        assert_eq!(r1.get("ok"), Some(&Value::Bool(false)));
        assert!(r1.get("error").unwrap().as_str().unwrap().contains("truncation"));
        let r2 = parse(&outcome.responses[1]).unwrap();
        assert_eq!(r2.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn traced_batch_attributes_cost_to_every_member() {
        let lines: Vec<String> = vec![
            r#"{"id": 1, "model": "model-a", "t": 0.6}"#.to_string(),
            r#"{"id": 2, "model": "model-a", "t": 0.9}"#.to_string(),
            r#"{"id": 3, "model": "model-b", "t": 0.5}"#.to_string(),
            "broken".to_string(),
        ];
        let mut cache = PlanCache::new(4, somrm_obs::RecorderHandle::disabled());
        let stats = ServeStats::new();
        let now = Instant::now();
        let traced: Vec<TracedLine> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| TracedLine {
                seq: 100 + i as u64,
                received: now,
                line: Ok(l.clone()),
            })
            .collect();
        let outcome = serve_batch_traced(
            &traced,
            &resolver,
            &mut cache,
            &SolverConfig::default(),
            Some(&stats),
            now,
        );
        assert_eq!(outcome.ok, 3);
        assert_eq!(outcome.latencies.len(), 4);
        // Each request carries its own costs: the first model-a request
        // built the plan, the second only looked it up.
        assert!(outcome.latencies[0].plan_ns > 0, "plan build attributed");
        assert!(outcome.latencies[0].execute_ns > 0, "query cost attributed");
        assert!(outcome.latencies[1].execute_ns > 0);
        assert!(outcome.latencies[2].execute_ns > 0);
        // The parse error never reached the cache: no solver phases.
        assert_eq!(outcome.latencies[3].execute_ns, 0);
        assert_eq!(outcome.latencies[3].plan_ns, 0);
        // Totals cover the whole lifecycle for every slot, errors too.
        for lat in &outcome.latencies {
            assert!(lat.total_ns >= lat.slice_ns);
        }

        let s = stats.snapshot();
        assert_eq!(s.requests, 4);
        assert_eq!(s.ok, 3);
        assert_eq!(s.errors.get("parse"), Some(&1));
        assert_eq!(s.batches, 1);
        assert_eq!(s.total.count, 4);
        assert_eq!(s.execute.count, 4);
        // Two digests saw traffic; the broken line has none.
        assert_eq!(s.models.len(), 2);
        assert_eq!(s.models.values().map(|m| m.requests).sum::<u64>(), 3);
    }

    #[test]
    fn traced_responses_are_bitwise_identical_to_untraced() {
        let lines: Vec<String> = vec![
            r#"{"id": 1, "model": "model-a", "t": [0.6, 0.9], "order": 3}"#.to_string(),
            r#"{"id": 2, "model": "model-a", "t": 0.7}"#.to_string(),
            r#"{"id": 3, "model": "model-b", "t": 0.5, "order": 1}"#.to_string(),
            r#"{"id": 4, "model": "model-a", "t": -1}"#.to_string(),
        ];
        // Arm 1: plain batch, telemetry fully off.
        let mut cache_off = PlanCache::new(4, somrm_obs::RecorderHandle::disabled());
        let off = serve_batch(&lines, &resolver, &mut cache_off, &SolverConfig::default());

        // Arm 2: full telemetry — stats sink, metrics registry, and a
        // per-batch Chrome trace through the tee.
        let session = Arc::new(somrm_obs::MetricsRegistry::new());
        let tee = Arc::new(TraceTee::new(&RecorderHandle::new(session)));
        let batch_rec = Arc::new(ChromeTraceRecorder::new());
        tee.install(batch_rec.clone());
        let solver = SolverConfig {
            recorder: RecorderHandle::new(tee),
            ..SolverConfig::default()
        };
        let mut cache_on = PlanCache::new(4, solver.recorder.clone());
        let stats = ServeStats::new();
        let now = Instant::now();
        let traced: Vec<TracedLine> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| TracedLine {
                seq: i as u64,
                received: now,
                line: Ok(l.clone()),
            })
            .collect();
        let on = serve_batch_traced(&traced, &resolver, &mut cache_on, &solver, Some(&stats), now);

        assert_eq!(off.responses, on.responses, "telemetry must be read-only");
        assert!(batch_rec.event_count() > 0, "the traced arm actually traced");
        assert_eq!(stats.snapshot().requests, 4);
    }

    #[test]
    fn sideband_commands_answer_in_order_and_do_not_count_as_requests() {
        let input = format!(
            "{}\n{}\n{}\n{}\n{}\n{}\n{}\n",
            r#"{"id": 1, "model": "model-a", "t": 0.5}"#,
            r#"{"id": 2, "model": "model-a", "t": 0.6}"#,
            "this is not json",
            r#"{"cmd": "stats", "id": "s1"}"#,
            r#"{"cmd": "reset"}"#,
            r#"{"cmd": "stats", "id": "s2"}"#,
            r#"{"cmd": "bogus"}"#,
        );
        let options = ServeOptions::default();
        let mut out = Vec::new();
        let summary = serve(Cursor::new(input), &mut out, &resolver, &options).unwrap();
        assert_eq!(summary.requests, 3, "commands are not requests");
        assert_eq!(summary.cmds, 4);
        assert_eq!(summary.ok, 2);
        assert_eq!(summary.errors, 1);

        let text = String::from_utf8(out).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 7, "every line answered in order");

        // The first stats snapshot reflects the 3 requests drained
        // before it, whatever batching the channel produced.
        let s1 = &lines[3];
        assert_eq!(s1.get("id").unwrap().as_str(), Some("s1"));
        let stats1 = s1.get("stats").unwrap();
        assert_eq!(stats1.get("requests").unwrap().as_f64(), Some(3.0));
        assert_eq!(stats1.get("ok").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            stats1.get("errors").unwrap().get("parse").unwrap().as_f64(),
            Some(1.0)
        );
        let latency = stats1.get("latency").unwrap().get("total").unwrap();
        assert_eq!(latency.get("count").unwrap().as_f64(), Some(3.0));
        assert!(latency.get("p50_ns").unwrap().as_f64().is_some());
        // Cache counters reconcile with the plan builds: both solves hit
        // one (digest, bucket, order) key — 1 miss, 1 hit.
        let cache = stats1.get("cache").unwrap();
        assert_eq!(cache.get("misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(1.0));

        // reset acknowledged; the next snapshot is a fresh window.
        assert_eq!(lines[4].get("cmd").unwrap().as_str(), Some("reset"));
        let stats2 = lines[5].get("stats").unwrap();
        assert_eq!(stats2.get("requests").unwrap().as_f64(), Some(0.0));
        assert!(
            stats2
                .get("latency")
                .unwrap()
                .get("total")
                .unwrap()
                .get("p50_ns")
                .is_none(),
            "empty window omits percentiles"
        );

        // Unknown commands answer with an error, never kill the server.
        let bogus = &lines[6];
        assert_eq!(bogus.get("ok"), Some(&Value::Bool(false)));
        assert!(bogus.get("error").unwrap().as_str().unwrap().contains("bogus"));
    }

    #[test]
    fn byte_budget_flows_from_options_to_stats_sideband() {
        // Budget of 1 byte: every plan overflows it, so each new chain
        // displaces the resident plan, and the sideband stats must
        // report the eviction bytes and the live resident footprint.
        let options = ServeOptions {
            cache_bytes: Some(1),
            ..ServeOptions::default()
        };
        let input = format!(
            "{}\n{}\n{}\n",
            r#"{"id": 1, "model": "model-a", "t": 0.5}"#,
            r#"{"id": 2, "model": "model-b", "t": 0.5}"#,
            r#"{"cmd": "stats"}"#,
        );
        let mut out = Vec::new();
        let summary = serve(Cursor::new(input), &mut out, &resolver, &options).unwrap();
        assert_eq!(summary.ok, 2);
        assert!(summary.cache.evictions >= 1, "budget forced an eviction");
        assert!(summary.cache.evict_bytes > 0);

        let text = String::from_utf8(out).unwrap();
        let stats_line = parse(text.lines().last().unwrap()).unwrap();
        let cache = stats_line.get("stats").unwrap().get("cache").unwrap();
        let evict_bytes = cache.get("evict_bytes").unwrap().as_f64().unwrap();
        let resident = cache.get("resident_bytes").unwrap().as_f64().unwrap();
        assert_eq!(evict_bytes, summary.cache.evict_bytes as f64);
        assert!(resident > 0.0, "one plan always stays resident");
        // Both test models are 2-state: the resident footprint is one
        // plan's exact bytes plus its one series.
        let plan =
            SolvePlan::build(&build(MODEL_B), 0, &SolverConfig::default()).unwrap();
        let series = cache.get("projection").unwrap().get("resident_bytes");
        let series = series.unwrap().as_f64().unwrap();
        assert!(series > 0.0);
        assert_eq!(resident, plan.footprint_bytes() as f64 + series);
    }

    #[test]
    fn sideband_health_surfaces_aggregated_health_counters() {
        let registry = Arc::new(somrm_obs::MetricsRegistry::new());
        let options = ServeOptions {
            solver: SolverConfig {
                recorder: RecorderHandle::new(registry),
                ..SolverConfig::default()
            },
            ..ServeOptions::default()
        };
        let input = format!(
            "{}\n{}\n",
            r#"{"id": 1, "model": "model-a", "t": 0.5}"#,
            r#"{"cmd": "health"}"#,
        );
        let mut out = Vec::new();
        serve(Cursor::new(input), &mut out, &resolver, &options).unwrap();
        let text = String::from_utf8(out).unwrap();
        let health = parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(health.get("cmd").unwrap().as_str(), Some("health"));
        assert_eq!(health.get("telemetry"), Some(&Value::Bool(true)));
        // The solve above ran with a recorder, so the health monitor
        // sampled it.
        assert!(
            health
                .get("counters")
                .unwrap()
                .get("samples")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn slow_trace_captures_a_chrome_trace_per_slow_request() {
        let dir = std::env::temp_dir().join(format!(
            "somrm-slow-trace-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let options = ServeOptions {
            slow_trace: Some(SlowTraceOptions {
                dir: dir.clone(),
                slow_ms: 0,
            }),
            ..ServeOptions::default()
        };
        let input = format!(
            "{}\n{}\n",
            r#"{"id": 1, "model": "model-a", "t": 0.5}"#,
            r#"{"id": 2, "model": "model-b", "t": 0.5}"#,
        );
        let mut out = Vec::new();
        let summary = serve(Cursor::new(input), &mut out, &resolver, &options).unwrap();
        assert_eq!(summary.ok, 2);

        // --slow-ms 0 captures every request: seq 0 and 1, each a valid
        // Chrome trace containing that request's lifecycle span.
        for seq in 0..2u64 {
            let path = dir.join(format!("req-{seq:06}.json"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing trace {}: {e}", path.display()));
            let v = parse(&text).expect("trace round-trips the JSON parser");
            let events = v.get("traceEvents").unwrap().as_array().unwrap();
            let names: Vec<&str> = events
                .iter()
                .filter_map(|e| e.get("name").unwrap().as_str())
                .collect();
            assert!(
                names.contains(&format!("req[{seq}]").as_str()),
                "lifecycle span of seq {seq} in {names:?}"
            );
            assert!(
                names.contains(&"plan.execute"),
                "solver spans captured alongside: {names:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_output_is_identical_with_full_telemetry_enabled() {
        // Distinct models per line keep responses independent of how
        // the reader thread happened to batch them.
        let input = format!(
            "{}\n{}\n{}\n",
            r#"{"id": 1, "model": "model-a", "t": [0.5, 0.8], "order": 3}"#,
            r#"{"id": 2, "model": "model-b", "t": 0.25}"#,
            r#"{"id": 3, "model": "model-a", "t": -4}"#,
        );
        let mut plain = Vec::new();
        serve(
            Cursor::new(input.clone()),
            &mut plain,
            &resolver,
            &ServeOptions::default(),
        )
        .unwrap();

        let dir = std::env::temp_dir().join(format!(
            "somrm-serve-identity-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let options = ServeOptions {
            solver: SolverConfig {
                recorder: RecorderHandle::new(Arc::new(somrm_obs::MetricsRegistry::new())),
                ..SolverConfig::default()
            },
            slow_trace: Some(SlowTraceOptions {
                dir: dir.clone(),
                slow_ms: 0,
            }),
            ..ServeOptions::default()
        };
        let mut telemetered = Vec::new();
        serve(Cursor::new(input), &mut telemetered, &resolver, &options).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(
            String::from_utf8(plain).unwrap(),
            String::from_utf8(telemetered).unwrap(),
            "stats + slow tracing must not change a single response byte"
        );
    }
}
