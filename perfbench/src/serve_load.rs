//! `serve-hot` and `serve-churn`: the real `somrm_serve::serve` loop,
//! resolving models with the CLI's `resolve_model_spec`, runs on the
//! benchmark's main thread. Its input is a [`Feed`] that the loop's own
//! reader thread pulls lines from: the warm-up requests closed-loop,
//! then each open-loop request at its due time. The loop and its reader
//! are the process's only two threads. A writer on the loop's output
//! stamps each response line as the loop writes it.
//!
//! Latency is counted on the loop thread's CPU clock, from the instant a
//! request reaches the reader to its response line: the work the loop
//! did for it and for everything queued ahead of it. Time the host of a
//! virtual machine gives the CPU to other guests does not count. In each
//! idle gap of the loop the feed times a calibration slice and, in long
//! gaps, solves the next query of the workload's solve deck (`solve_s`).
//! Latencies and solve times are reported at the reference speed of the
//! slices timed near them, as are set-up times (see [`crate::calib`]).
//! Wall-clock latency from the due time is printed too, gates `goodput`,
//! and is a per-layer metric.

use crate::calib::{Calibration, Sample};
use crate::check;
use crate::report::{
    layer_metrics, pass_ns, print_span_summary, solver_config, traced, LayerInputs, Outcome,
};
use crate::stats::{mean, median, peak_rss_mib, percentile, process_cpu_s, ratio, ThreadClock};
use crate::trace::{Phase, Trace, NO_SEQ};
use crate::workload::{chain_key, serve_churn, serve_hot, Request, ServeWorkload};
use crate::Args;
use somrm_cli::commands::resolve_model_spec;
use somrm_core::uniformization::{moments_sweep, SolverConfig};
use somrm_core::{model_digest, MomentSolution, SolvePlan};
use somrm_obs::json::{self, Value};
use somrm_obs::{ServeStats, ServeStatsSnapshot};
use somrm_serve::{serve, ModelSpec, ServeOptions};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Cold set-ups per run, half before and half after the measured
/// phase; `setup_s` is their median.
const SETUPS: usize = 16;
/// A request answered later than this, on the wall clock from its due
/// time, counts as failed: the server's own `--slow-ms` default.
const SLO_MS: f64 = 250.0;
/// Gap between the last warm-up answer and the phase's time zero.
const LEAD: Duration = Duration::from_millis(20);
/// A calibration slice is timed in an idle gap only if the next request
/// is due at least this much later.
const CAL_GAP: Duration = Duration::from_millis(2);
/// After its slice, an idle gap holds a solve probe only if the next
/// request is due at least this much later.
const PROBE_GAP: Duration = Duration::from_millis(20);
/// Calibration slices timed before each cold set-up.
const SLICES_PER_SETUP: usize = 4;

/// A response line, when the loop wrote it and the loop thread's CPU
/// clock then.
struct Response {
    at: Instant,
    cpu: f64,
    line: String,
}

/// When an open-loop request reached the loop's reader, and the loop
/// thread's CPU clock then.
#[derive(Clone, Copy)]
struct Delivery {
    at: Instant,
    cpu: f64,
}

#[derive(Default)]
struct Log {
    responses: Vec<Response>,
    /// One per open-loop request, in order.
    delivered: Vec<Delivery>,
    /// The phase's time zero and the process CPU seconds when it was set.
    start: Option<(Instant, f64)>,
    /// The reader thread's trace lane.
    lane: u64,
    /// The response count the feed waits for; the writer wakes it when
    /// the count is reached.
    want: usize,
}

/// What the feed, the writer and the benchmark share about one loop.
struct Shared {
    log: Mutex<Log>,
    answered: Condvar,
    /// The loop thread's CPU clock.
    clock: ThreadClock,
    stats: Arc<ServeStats>,
    trace: Option<Arc<Trace>>,
    /// Slices the feed times during the phase.
    cal: Arc<Calibration>,
    /// The feed's solve probes: CPU seconds of one `SolvePlan::execute`.
    probes: Mutex<Vec<Sample>>,
    /// CPU seconds the feed spent in probes, plan builds included.
    probe_cpu: Mutex<f64>,
}

impl Shared {
    fn log(&self) -> MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("the log lock is never held across a panic")
    }

    /// Blocks until `n` response lines have been written.
    fn wait_answers(&self, n: usize) {
        let mut log = self.log();
        log.want = n;
        while log.responses.len() < n {
            log = self
                .answered
                .wait(log)
                .expect("the log lock is never held across a panic");
        }
    }

    /// Blocks until `n` response lines have been written or `deadline`
    /// passes; whether they were.
    fn wait_answers_until(&self, n: usize, deadline: Instant) -> bool {
        let mut log = self.log();
        log.want = n;
        while log.responses.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            log = self
                .answered
                .wait_timeout(log, left)
                .expect("the log lock is never held across a panic")
                .0;
        }
        true
    }
}

/// The loop's output: each complete line is stamped as it is written.
struct StampWriter {
    buf: Vec<u8>,
    shared: Arc<Shared>,
}

impl Write for StampWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let (at, cpu) = (Instant::now(), self.shared.clock.seconds());
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..pos]).into_owned();
            let mut log = self.shared.log();
            log.responses.push(Response { at, cpu, line });
            if log.responses.len() == log.want {
                self.shared.answered.notify_all();
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The loop's input. Each warm-up line goes out once the previous one
/// is answered; then each open-loop request at its due time, all that
/// are due by then in one read, as a pipe would hold them; then end of
/// input. In each idle gap of the phase, once the loop has answered all
/// it was sent, the feed times one calibration slice, and in a long gap
/// one solve probe: the next query of the solve deck, so every run
/// probes the same queries.
struct Feed {
    w: Arc<ServeWorkload>,
    /// How many of `w.requests` the phase sends.
    n: usize,
    shared: Arc<Shared>,
    warmed: usize,
    next: usize,
    /// Solve probes run so far.
    probed: usize,
    start: Option<Instant>,
    pending: Vec<u8>,
    pos: usize,
}

fn push_line(buf: &mut Vec<u8>, line: &str) {
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
}

impl Feed {
    fn new(w: Arc<ServeWorkload>, n: usize, shared: Arc<Shared>) -> Feed {
        Feed {
            w,
            n,
            shared,
            warmed: 0,
            next: 0,
            probed: 0,
            start: None,
            pending: Vec::new(),
            pos: 0,
        }
    }

    /// Once every warm-up request is answered: resets the loop's
    /// statistics and returns the phase's time zero.
    fn begin_phase(&self) -> Instant {
        self.shared.wait_answers(self.w.warmup.len());
        self.shared.stats.reset();
        if let Some(t) = &self.shared.trace {
            t.set_phase(Phase::Run);
        }
        let start = Instant::now() + LEAD;
        let mut log = self.shared.log();
        log.start = Some((start, process_cpu_s()));
        log.lane = somrm_obs::thread_lane();
        start
    }

    /// Solves `r` on a fresh plan, timing the execute alone.
    fn probe(&self, r: &Request) {
        let clock = ThreadClock::current();
        let cpu0 = clock.seconds();
        let plan = SolvePlan::build(&self.w.models[r.model].model, r.order, &solver_config());
        let cpu1 = clock.seconds();
        let solved = plan.map(|p| p.execute(&r.times, r.order).is_ok());
        let cpu2 = clock.seconds();
        // A failure here is the checker's to report, on the response.
        if solved == Ok(true) {
            self.shared
                .probes
                .lock()
                .expect("the probe lock is never held across a panic")
                .push(Sample {
                    at: Instant::now(),
                    cpu: cpu2 - cpu1,
                });
        }
        *self
            .shared
            .probe_cpu
            .lock()
            .expect("the probe lock is never held across a panic") += cpu2 - cpu0;
    }

    fn refill(&mut self) {
        self.pending.clear();
        self.pos = 0;
        if self.warmed < self.w.warmup.len() {
            self.shared.wait_answers(self.warmed);
            push_line(&mut self.pending, &self.w.warmup[self.warmed].line);
            self.warmed += 1;
            return;
        }
        if self.next == self.n {
            return;
        }
        let start = match self.start {
            Some(s) => s,
            None => *self.start.insert(self.begin_phase()),
        };
        let requests = &self.w.requests[..self.n];
        let due = |r: &Request| start + Duration::from_secs_f64(r.due);
        let next_due = due(&requests[self.next]);
        if let Some(by) = next_due.checked_sub(CAL_GAP) {
            if self
                .shared
                .wait_answers_until(self.w.warmup.len() + self.next, by)
            {
                self.shared.cal.time(1);
                let deck = &self.w.solve_deck;
                if next_due.saturating_duration_since(Instant::now()) >= PROBE_GAP {
                    self.probe(&deck[self.probed % deck.len()]);
                    self.probed += 1;
                }
            }
        }
        let wait = next_due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        let delivery = Delivery {
            at: Instant::now(),
            cpu: self.shared.clock.seconds(),
        };
        let mut log = self.shared.log();
        while self.next < self.n && due(&requests[self.next]) <= delivery.at {
            push_line(&mut self.pending, &requests[self.next].line);
            log.delivered.push(delivery);
            self.next += 1;
        }
    }
}

impl Read for Feed {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.pending.len() {
            self.refill();
        }
        let n = buf.len().min(self.pending.len() - self.pos);
        buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The measured phase as the loop saw it, per request.
struct PhaseRecord {
    start: Instant,
    delivered: Vec<Delivery>,
    responses: Vec<Option<Response>>,
    /// Process CPU seconds over the phase (loop, reader and feed), less
    /// the calibration slices and solve probes.
    cpu_s: f64,
    lane: u64,
    cal: Arc<Calibration>,
    probes: Vec<Sample>,
}

/// What one fresh serve loop did.
struct LoopRecord {
    /// CPU seconds of the loop thread from its start to its last warm-up
    /// answer: the cold start.
    setup: Sample,
    warmup: Vec<String>,
    phase: PhaseRecord,
    /// The loop's statistics over the phase.
    stats: ServeStatsSnapshot,
}

fn response_id(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Runs a fresh loop on this thread through its warm-up requests and
/// then the first `n` open-loop requests of `w`, until it has answered
/// them all.
fn run_loop(
    w: &Arc<ServeWorkload>,
    n: usize,
    cfg: &SolverConfig,
    trace: Option<&Arc<Trace>>,
) -> Result<LoopRecord, String> {
    let clock = ThreadClock::current();
    let stats = Arc::new(ServeStats::new());
    let cal = Arc::new(Calibration::default());
    let shared = Arc::new(Shared {
        log: Mutex::default(),
        answered: Condvar::new(),
        clock,
        stats: stats.clone(),
        trace: trace.cloned(),
        cal: cal.clone(),
        probes: Mutex::default(),
        probe_cpu: Mutex::default(),
    });
    let options = ServeOptions {
        solver: cfg.clone(),
        stats: stats.clone(),
        ..ServeOptions::default()
    };
    if let Some(t) = trace {
        t.reset_seq();
    }
    let resolver = |spec: &ModelSpec| match trace {
        Some(t) => t.time("bench.resolve", t.next_seq(), 0, || {
            resolve_model_spec(spec)
        }),
        None => resolve_model_spec(spec),
    };
    let mut out = StampWriter {
        buf: Vec::new(),
        shared: shared.clone(),
    };
    let cpu0 = clock.seconds();
    serve(
        Feed::new(w.clone(), n, shared.clone()),
        &mut out,
        &resolver,
        &options,
    )
    .map_err(|e| format!("serve loop: {e}"))?;
    let cpu_end = process_cpu_s();
    let log = std::mem::take(&mut *shared.log());

    let mut responses = log.responses.into_iter();
    let warmup: Vec<Response> = responses.by_ref().take(w.warmup.len()).collect();
    if warmup.len() < w.warmup.len() {
        return Err("the loop left a warm-up request unanswered".to_string());
    }
    let mut by_id: Vec<Option<Response>> = (0..n).map(|_| None).collect();
    for r in responses {
        if let Some(slot) = response_id(&r.line).and_then(|id| by_id.get_mut(id)) {
            *slot = Some(r);
        }
    }
    let (start, cpu_start) = log.start.unwrap_or((Instant::now(), cpu_end));
    let probe_cpu = *shared
        .probe_cpu
        .lock()
        .expect("the probe lock is never held across a panic");
    let probes = std::mem::take(
        &mut *shared
            .probes
            .lock()
            .expect("the probe lock is never held across a panic"),
    );
    Ok(LoopRecord {
        setup: Sample {
            at: warmup.last().map_or(start, |r| r.at),
            cpu: warmup.last().map_or(0.0, |r| r.cpu - cpu0),
        },
        warmup: warmup.into_iter().map(|r| r.line).collect(),
        phase: PhaseRecord {
            start,
            delivered: log.delivered,
            responses: by_id,
            cpu_s: cpu_end - cpu_start - cal.total_s() - probe_cpu,
            lane: log.lane,
            cal,
            probes,
        },
        stats: stats.snapshot(),
    })
}

/// Cold solves the checker compares against, one per distinct query.
#[derive(Default)]
struct References(HashMap<(usize, Vec<u64>, usize), Vec<MomentSolution>>);

impl References {
    fn get(&mut self, w: &ServeWorkload, r: &Request) -> Result<&[MomentSolution], String> {
        let key = (
            r.model,
            r.times.iter().map(|t| t.to_bits()).collect(),
            r.order,
        );
        if let Entry::Vacant(slot) = self.0.entry(key.clone()) {
            let mut sols = moments_sweep(
                &w.models[r.model].model,
                r.order,
                &r.times,
                &solver_config(),
            )
            .map_err(|e| format!("reference solve: {e}"))?;
            // The check reads only the weighted moments and bounds.
            sols.iter_mut().for_each(|s| s.per_state = Vec::new());
            slot.insert(sols);
        }
        Ok(&self.0[&key])
    }
}

/// Checks a loop's warm-up answers against cold solves.
fn check_warmup(
    w: &ServeWorkload,
    answers: &[String],
    refs: &mut References,
) -> Result<(), String> {
    for (r, line) in w.warmup.iter().zip(answers) {
        let resp = json::parse(line).map_err(|e| format!("warm-up response is not JSON: {e}"))?;
        check::serve_response(&resp, &r.times, r.order, refs.get(w, r)?)
            .map_err(|e| format!("warm-up request failed its check: {e}"))?;
    }
    Ok(())
}

/// `count` fresh loops through their warm-up only, each after
/// calibration slices; their cold starts.
fn setups(
    w: &Arc<ServeWorkload>,
    cfg: &SolverConfig,
    refs: &mut References,
    cal: &Calibration,
    count: usize,
) -> Result<Vec<Sample>, String> {
    (0..count)
        .map(|_| {
            cal.time(SLICES_PER_SETUP);
            let l = run_loop(w, 0, cfg, None)?;
            check_warmup(w, &l.warmup, refs)?;
            Ok(l.setup)
        })
        .collect()
}

/// Per-request verdicts of a phase.
struct Verdicts {
    /// Loop-thread CPU milliseconds from delivery to response.
    cpu_ms: Vec<f64>,
    /// The same at the reference speed of the phase's slices near it.
    scaled_ms: Vec<f64>,
    /// Wall milliseconds from due time to response.
    wall_ms: Vec<f64>,
    /// Wall milliseconds between delivery and response that the loop
    /// thread spent off its CPU clock: waking, waiting, or stolen.
    offcpu_ms: Vec<f64>,
    /// How late the feed delivered, in milliseconds.
    late_ms: Vec<f64>,
    good: u64,
    failed: u64,
    wrong: u64,
    coalesced: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn evaluate(
    w: &ServeWorkload,
    n: usize,
    p: &PhaseRecord,
    refs: &mut References,
) -> Result<Verdicts, String> {
    let mut v = Verdicts {
        cpu_ms: Vec::new(),
        scaled_ms: Vec::new(),
        wall_ms: Vec::new(),
        offcpu_ms: Vec::new(),
        late_ms: Vec::new(),
        good: 0,
        failed: 0,
        wrong: 0,
        coalesced: 0,
    };
    for (i, r) in w.requests[..n].iter().enumerate() {
        let sols = refs.get(w, r)?;
        let (Some(d), Some(resp)) = (p.delivered.get(i), &p.responses[i]) else {
            eprintln!("perfbench: request {i} unanswered");
            v.failed += 1;
            continue;
        };
        let due = p.start + Duration::from_secs_f64(r.due);
        let cpu = (resp.cpu - d.cpu) * 1e3;
        let wall = ms(resp.at.saturating_duration_since(due));
        v.cpu_ms.push(cpu);
        v.scaled_ms.push(cpu * p.cal.factor_near(d.at));
        v.wall_ms.push(wall);
        v.offcpu_ms
            .push(ms(resp.at.saturating_duration_since(d.at)) - cpu);
        v.late_ms.push(ms(d.at.saturating_duration_since(due)));
        let parsed =
            json::parse(&resp.line).map_err(|e| format!("response {i} is not JSON: {e}"))?;
        if parsed
            .get("coalesced")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            > 1.0
        {
            v.coalesced += 1;
        }
        if let Err(e) = check::serve_response(&parsed, &r.times, r.order, sols) {
            eprintln!("perfbench: request {i} failed its check: {e}");
            v.wrong += 1;
            v.failed += 1;
        } else if wall > SLO_MS {
            v.failed += 1;
        } else {
            v.good += 1;
        }
    }
    Ok(v)
}

fn print_phase(label: &str, requests: usize, v: &Verdicts) {
    println!(
        "  {label}: {requests} sent, {} ok, {} failed ({} wrong) | latency on the loop's CPU clock p50 {:.3} ms, p95 {:.3} ms | wall clock from due time p50 {:.3} ms, p95 {:.3} ms | off-CPU mean {:.3} ms | generator lateness p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        v.good,
        v.failed,
        v.wrong,
        median(&v.cpu_ms),
        percentile(&v.cpu_ms, 95.0),
        median(&v.wall_ms),
        percentile(&v.wall_ms, 95.0),
        mean(&v.offcpu_ms),
        median(&v.late_ms),
        percentile(&v.late_ms, 99.0),
        percentile(&v.late_ms, 100.0),
    );
}

/// The workload properties a claim that a change helps only some
/// traffic can cite.
fn print_properties(w: &ServeWorkload, requests: &[Request], v: &Verdicts) -> Result<(), String> {
    let n = requests.len() as f64;
    let mut pis: HashMap<u64, HashSet<u64>> = HashMap::new();
    let mut other_pi = 0;
    let mut digests: HashMap<usize, (u64, u64)> = HashMap::new();
    let mut csr: HashMap<usize, bool> = HashMap::new();
    for r in requests {
        let m = &w.models[r.model].model;
        let (chain, digest) = *digests
            .entry(r.model)
            .or_insert_with(|| (chain_key(m), model_digest(m)));
        let seen = pis.entry(chain).or_default();
        if seen.iter().any(|&d| d != digest) {
            other_pi += 1;
        }
        seen.insert(digest);
        if let Entry::Vacant(slot) = csr.entry(r.model) {
            let plan = SolvePlan::build(m, 1, &solver_config()).map_err(|e| e.to_string())?;
            slot.insert(plan.matrix_format_name() == "csr");
        }
    }
    let on_csr = requests.iter().filter(|r| csr[&r.model]).count();
    println!(
        "  workload properties: same chain as an earlier request with another pi {:.3} | shares a (model, qt-bucket) key in its batch {:.3} | CSR path {:.3} | line {:.2} KB | {:.2} horizons per request",
        other_pi as f64 / n,
        v.coalesced as f64 / n,
        on_csr as f64 / n,
        mean_line_kb(requests),
        requests.iter().map(|r| r.times.len() as f64).sum::<f64>() / n,
    );
    Ok(())
}

fn mean_line_kb(requests: &[Request]) -> f64 {
    mean(
        &requests
            .iter()
            .map(|r| r.line.len() as f64 / 1e3)
            .collect::<Vec<_>>(),
    )
}

fn workload(args: &Args) -> Result<ServeWorkload, String> {
    match args.workload.as_str() {
        "serve-hot" => {
            let dir = args.work_dir.to_str().ok_or("work dir is not UTF-8")?;
            serve_hot(args.seed, args.seconds, dir).map_err(|e| format!("write model files: {e}"))
        }
        _ => Ok(serve_churn(args.seed, args.seconds)),
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = Arc::new(workload(args)?);
    let cfg = solver_config();
    let mut refs = References::default();
    if args.trace {
        return run_traced(args, &w, &cfg, &mut refs);
    }
    let n = w.requests.len();
    let setup_cal = Calibration::default();
    let mut setup = setups(&w, &cfg, &mut refs, &setup_cal, SETUPS / 2 - 1)?;
    setup_cal.time(SLICES_PER_SETUP);
    let measured = run_loop(&w, n, &cfg, None)?;
    // Before the checker's reference solves add their own memory.
    let peak_rss = peak_rss_mib();
    check_warmup(&w, &measured.warmup, &mut refs)?;
    setup.push(measured.setup);
    setup.extend(setups(
        &w,
        &cfg,
        &mut refs,
        &setup_cal,
        SETUPS - SETUPS / 2,
    )?);
    println!(
        "  set-up: {SETUPS} fresh loops, {} warm-up requests sent, all ok and checked",
        SETUPS * w.warmup.len(),
    );
    let v = evaluate(&w, n, &measured.phase, &mut refs)?;
    print_phase("measured", n, &v);
    print_properties(&w, &w.requests, &v)?;
    let phase_cal = &measured.phase.cal;
    let probes = &measured.phase.probes;
    println!(
        "  calibration: median slice {:.1} us over {} set-up slices, {:.1} us over {} phase slices (reference {:.1} us) | {} solve probes, median {:.3} ms",
        setup_cal.median_s() * 1e6,
        setup_cal.count(),
        phase_cal.median_s() * 1e6,
        phase_cal.count(),
        crate::calib::Kernel::Small.reference_s() * 1e6,
        probes.len(),
        median(&probes.iter().map(|p| p.cpu * 1e3).collect::<Vec<_>>()),
    );
    let attempted = n as u64;
    Ok(Outcome {
        correct: v.wrong == 0,
        attempted,
        failed: v.failed,
        metrics: vec![
            ("setup_s", median(&setup_cal.scale(&setup)), "s"),
            ("solve_s", median(&phase_cal.scale(probes)), "s"),
            ("p50_ms", median(&v.scaled_ms), "ms"),
            ("p95_ms", percentile(&v.scaled_ms, 95.0), "ms"),
            ("goodput", ratio(v.good as f64, attempted as f64), "share"),
            (
                "req_per_cpu_s",
                ratio(v.good as f64, measured.phase.cpu_s * phase_cal.factor()),
                "1/s",
            ),
            ("peak_rss_mb", peak_rss, "MiB"),
        ],
    })
}

/// Traced run: the first half of the schedule on an untraced loop, then
/// on a traced one (the CPU-per-request ratio is the tracing overhead),
/// then probes: `parse_request` and `parse_model` on the phase's own
/// inputs and one order-1 and one order-2 sweep of the probe model.
fn run_traced(
    args: &Args,
    w: &Arc<ServeWorkload>,
    cfg: &SolverConfig,
    refs: &mut References,
) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let n = w.requests.partition_point(|r| r.due < half);
    let requests = &w.requests[..n];
    let plain = run_loop(w, n, cfg, None)?;
    check_warmup(w, &plain.warmup, refs)?;
    let v_plain = evaluate(w, n, &plain.phase, refs)?;
    print_phase("untraced", n, &v_plain);

    let trace = Trace::new();
    let tcfg = traced(cfg, &trace);
    let l = run_loop(w, n, &tcfg, Some(&trace))?;
    let phase = &l.phase;
    // The loop numbers the warm-up lines first.
    let offset = w.warmup.len() as u32;
    for (i, d) in phase.delivered.iter().enumerate() {
        if let Some(resp) = &phase.responses[i] {
            trace.span_on_lane(
                "bench.request",
                phase.lane,
                offset + i as u32,
                d.at,
                resp.at.saturating_duration_since(d.at),
            );
        }
    }
    trace.set_phase(Phase::Probe);
    check_warmup(w, &l.warmup, refs)?;
    let v = evaluate(w, n, phase, refs)?;
    print_phase("traced", n, &v);
    print_properties(w, requests, &v)?;

    for (i, r) in requests.iter().enumerate() {
        let req = trace.time(
            "bench.parse_request",
            offset + i as u32,
            r.line.len() as u64,
            || somrm_serve::parse_request(&r.line),
        );
        req.map_err(|e| format!("request {i} does not parse: {e}"))?;
    }
    let mut parsed: HashSet<usize> = HashSet::new();
    for r in requests {
        if parsed.insert(r.model) {
            let text = &w.models[r.model].text;
            trace
                .time("bench.parse", NO_SEQ, text.len() as u64, || {
                    somrm_cli::format::parse_model(text)
                })
                .map_err(|e| e.to_string())?;
        }
    }
    let (probe, t) = w.probe;
    let plan = SolvePlan::build(&w.models[probe].model, 2, &tcfg).map_err(|e| e.to_string())?;
    for order in [1, 2] {
        plan.execute(&[t], order).map_err(|e| e.to_string())?;
    }
    let probes = trace.execs(Phase::Probe);
    let per_ok = |cpu: f64, v: &Verdicts| ratio(cpu, v.good as f64);
    let inputs = LayerInputs {
        serve: Some(l.stats.clone()),
        line_kb: mean_line_kb(requests),
        wall_p50_ms: median(&v.wall_ms),
        wall_p95_ms: percentile(&v.wall_ms, 95.0),
        offcpu_ms: mean(&v.offcpu_ms),
        calib_slice_us: phase.cal.median_s() * 1e6,
        order2_over_order1: ratio(pass_ns(&probes, 2), pass_ns(&probes, 1)),
        overhead_pct: (per_ok(phase.cpu_s, &v) / per_ok(plain.phase.cpu_s, &v_plain) - 1.0) * 100.0,
        late_ms: percentile(&v.late_ms, 99.0),
        sent: n as u64,
        failed: v.failed,
    };
    print_span_summary(&trace);
    let out = args.work_dir.join(format!("trace-{}.tsv", args.workload));
    trace
        .write_tsv(&out)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("  trace written to {}", out.display());
    Ok(Outcome {
        correct: v.wrong == 0 && v_plain.wrong == 0,
        attempted: 2 * n as u64,
        failed: v.failed + v_plain.failed,
        metrics: layer_metrics(&trace, &inputs),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_ids_are_read_from_the_line_head() {
        assert_eq!(response_id("{\"id\":42,\"ok\":true}"), Some(42));
        assert_eq!(response_id("{\"id\":null,\"ok\":false}"), None);
    }
}
