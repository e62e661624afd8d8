//! The traced run: an in-memory [`Recorder`] (plus an event-log sink)
//! that keeps every span, counter and gauge the program emits, the
//! benchmark's own spans around the calls it makes, and per-execute
//! records. It is written out when the run ends and read back into
//! per-layer metrics.

use somrm_obs::{thread_lane, Event, Recorder};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Spans that carry no request.
pub const NO_SEQ: u32 = u32::MAX;

/// Which part of a run a record belongs to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Cold set-ups and warm-up requests.
    #[default]
    Setup = 0,
    /// The measured (traced) phase.
    Run = 1,
    /// Post-phase probes: parse timings and the order-1/order-2 pass.
    Probe = 2,
}

const PHASES: [Phase; 3] = [Phase::Setup, Phase::Run, Phase::Probe];

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: u16,
    lane: u16,
    phase: Phase,
    seq: u32,
    /// Bytes handled, for spans that have them (parses).
    arg: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// What one `SolvePlan::execute` did, assembled from its event-log
/// records and the counters and kernel spans emitted on its thread
/// between `solve.start` and `complete`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecRec {
    phase: Phase,
    pub order: u64,
    pub n_states: u64,
    pub n_times: u64,
    pub g: u64,
    pub matrix_bytes: u64,
    /// Poisson weights kept, summed over the time points.
    pub kept: u64,
    pub passes: u64,
    pub pass_ns: u64,
}

impl ExecRec {
    /// Neumaier accumulator updates: each kept weight adds
    /// `(order + 1) × n` terms.
    pub fn acc_updates(&self) -> f64 {
        (self.kept * (self.order + 1) * self.n_states) as f64
    }

    /// Bytes the kernel passes stream, computed from array sizes (not
    /// measured): per pass the iteration matrix, the two diagonal
    /// vectors and the `order + 1` U vectors read and written, and per
    /// kept weight the `(order + 1) × n` Neumaier pairs read and
    /// written.
    pub fn computed_bytes(&self) -> f64 {
        let (n, o1) = (self.n_states as f64, (self.order + 1) as f64);
        self.passes as f64 * (self.matrix_bytes as f64 + 16.0 * n + 16.0 * n * o1)
            + self.kept as f64 * 32.0 * n * o1
    }
}

#[derive(Default)]
struct Inner {
    names: Vec<String>,
    ids: HashMap<String, u16>,
    spans: Vec<SpanRec>,
    counters: BTreeMap<(Phase, u16), u64>,
    gauges: Vec<(Phase, u16, f64)>,
    open: HashMap<u16, ExecRec>,
    execs: Vec<ExecRec>,
}

impl Inner {
    fn id(&mut self, name: &str) -> u16 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u16::try_from(self.names.len()).expect("fewer than 65536 span names");
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }
}

/// The traced run's recorder.
pub struct Trace {
    t0: Instant,
    phase: AtomicU8,
    next_seq: AtomicU32,
    inner: Mutex<Inner>,
}

fn lane() -> u16 {
    thread_lane().min(u64::from(u16::MAX)) as u16
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// `req[<seq>]` and `req[<seq>] slice` become `req` / `req.slice` with
/// the seq kept as a field, so names stay a small set.
fn split_request_name(name: &str) -> (&str, u32) {
    if let Some(rest) = name.strip_prefix("req[") {
        if let Some((seq, tail)) = rest.split_once(']') {
            if let Ok(seq) = seq.parse() {
                return (if tail.is_empty() { "req" } else { "req.slice" }, seq);
            }
        }
    }
    (name, NO_SEQ)
}

impl Trace {
    pub fn new() -> Arc<Trace> {
        Arc::new(Trace {
            t0: Instant::now(),
            phase: AtomicU8::new(Phase::Setup as u8),
            next_seq: AtomicU32::new(0),
            inner: Mutex::new(Inner::default()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("trace lock is never held across a panic")
    }

    pub fn set_phase(&self, phase: Phase) {
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    fn phase(&self) -> Phase {
        PHASES[usize::from(self.phase.load(Ordering::Relaxed))]
    }

    /// Numbers the resolver calls of one serve loop in arrival order,
    /// which is the loop's own request seq when every line parses.
    pub fn next_seq(&self) -> u32 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    pub fn reset_seq(&self) {
        self.next_seq.store(0, Ordering::Relaxed);
    }

    /// Records one of the benchmark's own spans.
    pub fn span(&self, name: &str, seq: u32, arg: u64, start: Instant, dur: Duration) {
        self.push_span(name, lane(), seq, arg, start, ns(dur));
    }

    /// Records a benchmark span that ran on another thread's lane.
    pub fn span_on_lane(&self, name: &str, lane: u64, seq: u32, start: Instant, dur: Duration) {
        let lane = lane.min(u64::from(u16::MAX)) as u16;
        self.push_span(name, lane, seq, 0, start, ns(dur));
    }

    /// Times `f` as a benchmark span.
    pub fn time<T>(&self, name: &str, seq: u32, arg: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, seq, arg, start, start.elapsed());
        out
    }

    fn push_span(&self, name: &str, lane: u16, seq: u32, arg: u64, start: Instant, dur_ns: u64) {
        let phase = self.phase();
        let start_ns = ns(start.saturating_duration_since(self.t0));
        let mut g = self.lock();
        let name = g.id(name);
        g.spans.push(SpanRec {
            name,
            lane,
            phase,
            seq,
            arg,
            start_ns,
            dur_ns,
        });
    }

    fn event(&self, line: &str) {
        // Health and progress records carry nothing the metrics use.
        if line.contains("\"event\":\"health\"") || line.contains("\"event\":\"progress\"") {
            return;
        }
        let Ok(event) = Event::parse(line) else {
            return;
        };
        let (phase, lane) = (self.phase(), lane());
        let mut g = self.lock();
        match event {
            Event::SolveStart {
                order,
                n_states,
                n_times,
            } => {
                g.open.insert(
                    lane,
                    ExecRec {
                        phase,
                        order,
                        n_states,
                        n_times,
                        ..ExecRec::default()
                    },
                );
            }
            Event::PlanResolved { matrix_bytes, .. } => {
                if let Some(e) = g.open.get_mut(&lane) {
                    e.matrix_bytes = matrix_bytes;
                }
            }
            Event::Truncation { g: gl, .. } => {
                if let Some(e) = g.open.get_mut(&lane) {
                    e.g = gl;
                }
            }
            Event::Complete { .. } => {
                if let Some(e) = g.open.remove(&lane) {
                    g.execs.push(e);
                }
            }
            Event::Health { .. } | Event::Progress { .. } => {}
        }
    }

    /// Count and summed duration (ns) of spans `name` in `phase`
    /// (`None`: every phase).
    pub fn spans(&self, phase: Option<Phase>, name: &str) -> (u64, u64) {
        let g = self.lock();
        let Some(&id) = g.ids.get(name) else {
            return (0, 0);
        };
        g.spans
            .iter()
            .filter(|s| s.name == id && phase.is_none_or(|p| s.phase == p))
            .fold((0, 0), |(c, t), s| (c + 1, t + s.dur_ns))
    }

    /// Summed `arg` (bytes) of spans `name` in `phase` (`None`: every
    /// phase).
    pub fn span_bytes(&self, phase: Option<Phase>, name: &str) -> u64 {
        let g = self.lock();
        let Some(&id) = g.ids.get(name) else {
            return 0;
        };
        g.spans
            .iter()
            .filter(|s| s.name == id && phase.is_none_or(|p| s.phase == p))
            .map(|s| s.arg)
            .sum()
    }

    pub fn counter(&self, phase: Phase, name: &str) -> u64 {
        let g = self.lock();
        g.ids
            .get(name)
            .and_then(|id| g.counters.get(&(phase, *id)))
            .copied()
            .unwrap_or(0)
    }

    /// Every value gauge `name` was set to, in any phase.
    pub fn gauges(&self, name: &str) -> Vec<f64> {
        let g = self.lock();
        let Some(&id) = g.ids.get(name) else {
            return Vec::new();
        };
        g.gauges.iter().filter(|x| x.1 == id).map(|x| x.2).collect()
    }

    pub fn execs(&self, phase: Phase) -> Vec<ExecRec> {
        self.lock()
            .execs
            .iter()
            .filter(|e| e.phase == phase)
            .copied()
            .collect()
    }

    /// Self time of every span: its duration minus the part its direct
    /// children on the same thread lane cover. Request-lifecycle spans
    /// (`req`, `bench.request`) start on another thread than the one
    /// that ends them, so they take no part in the nesting.
    fn self_times(g: &Inner) -> Vec<u64> {
        let detached: Vec<u16> = ["req", "bench.request"]
            .iter()
            .filter_map(|n| g.ids.get(*n).copied())
            .collect();
        let mut child = vec![0u64; g.spans.len()];
        let mut by_lane: BTreeMap<u16, Vec<usize>> = BTreeMap::new();
        for (i, s) in g.spans.iter().enumerate() {
            if !detached.contains(&s.name) {
                by_lane.entry(s.lane).or_default().push(i);
            }
        }
        for idx in by_lane.values_mut() {
            idx.sort_by_key(|&i| (g.spans[i].start_ns, std::cmp::Reverse(g.spans[i].dur_ns)));
            let mut stack: Vec<usize> = Vec::new();
            for &i in idx.iter() {
                let s = &g.spans[i];
                while let Some(&top) = stack.last() {
                    let t = &g.spans[top];
                    if t.start_ns <= s.start_ns && s.start_ns + s.dur_ns <= t.start_ns + t.dur_ns {
                        break;
                    }
                    stack.pop();
                }
                if let Some(&parent) = stack.last() {
                    child[parent] += s.dur_ns;
                }
                stack.push(i);
            }
        }
        g.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Per span name in `phase`: count, total and self time (ms),
    /// sorted by self time, largest first.
    pub fn summary(&self, phase: Phase) -> Vec<(String, u64, f64, f64)> {
        let g = self.lock();
        let selfs = Self::self_times(&g);
        let mut rows: BTreeMap<u16, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in g.spans.iter().zip(selfs) {
            if s.phase == phase {
                let r = rows.entry(s.name).or_default();
                *r = (r.0 + 1, r.1 + s.dur_ns, r.2 + own);
            }
        }
        let mut out: Vec<(String, u64, f64, f64)> = rows
            .into_iter()
            .map(|(id, (c, t, o))| {
                (
                    g.names[usize::from(id)].clone(),
                    c,
                    t as f64 / 1e6,
                    o as f64 / 1e6,
                )
            })
            .collect();
        out.sort_by(|a, b| b.3.total_cmp(&a.3));
        out
    }

    /// Writes every record as tab-separated lines: spans (with self
    /// time), counter totals per phase, gauge values and per-execute
    /// records.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let g = self.lock();
        let selfs = Self::self_times(&g);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "#span\tname\tlane\tphase\tseq\tbytes\tstart_ns\tdur_ns\tself_ns"
        )?;
        for (s, own) in g.spans.iter().zip(selfs) {
            let seq = if s.seq == NO_SEQ {
                -1
            } else {
                i64::from(s.seq)
            };
            writeln!(
                out,
                "span\t{}\t{}\t{:?}\t{seq}\t{}\t{}\t{}\t{own}",
                g.names[usize::from(s.name)],
                s.lane,
                s.phase,
                s.arg,
                s.start_ns,
                s.dur_ns
            )?;
        }
        writeln!(out, "#counter\tname\tphase\ttotal")?;
        for ((phase, id), v) in &g.counters {
            writeln!(
                out,
                "counter\t{}\t{phase:?}\t{v}",
                g.names[usize::from(*id)]
            )?;
        }
        writeln!(out, "#gauge\tname\tphase\tvalue")?;
        for (phase, id, v) in &g.gauges {
            writeln!(out, "gauge\t{}\t{phase:?}\t{v}", g.names[usize::from(*id)])?;
        }
        writeln!(
            out,
            "#execute\tphase\torder\tn_states\tn_times\tg\tmatrix_bytes\tkept\tpasses\tpass_ns"
        )?;
        for e in &g.execs {
            writeln!(
                out,
                "execute\t{:?}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                e.phase,
                e.order,
                e.n_states,
                e.n_times,
                e.g,
                e.matrix_bytes,
                e.kept,
                e.passes,
                e.pass_ns
            )?;
        }
        out.flush()
    }
}

impl Recorder for Trace {
    fn counter_add(&self, name: &str, delta: u64) {
        let (phase, lane) = (self.phase(), lane());
        let mut g = self.lock();
        let id = g.id(name);
        *g.counters.entry((phase, id)).or_default() += delta;
        if let Some(e) = g.open.get_mut(&lane) {
            match name {
                "poisson.weights_kept" => e.kept += delta,
                "kernel.passes" => e.passes += delta,
                _ => {}
            }
        }
    }

    fn gauge_set(&self, name: &str, value: f64) {
        let phase = self.phase();
        let mut g = self.lock();
        let id = g.id(name);
        g.gauges.push((phase, id, value));
    }

    /// Durations arrive again, with their start, through
    /// [`Recorder::span_complete`]; only that copy is kept.
    fn duration_ns(&self, _name: &str, _nanos: u64) {}

    fn span_complete(&self, name: &str, start: Instant, nanos: u64) {
        let (name, seq) = split_request_name(name);
        let lane = lane();
        if name == "kernel.pass" {
            if let Some(e) = self.lock().open.get_mut(&lane) {
                e.pass_ns += nanos;
            }
        }
        self.push_span(name, lane, seq, 0, start, nanos);
    }
}

/// Event-log sink feeding [`Trace`]'s per-execute records.
pub struct EventSink {
    trace: Arc<Trace>,
    buf: Vec<u8>,
}

impl EventSink {
    pub fn new(trace: Arc<Trace>) -> EventSink {
        EventSink {
            trace,
            buf: Vec::new(),
        }
    }
}

impl Write for EventSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            self.trace.event(&String::from_utf8_lossy(&line[..pos]));
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_span_names_keep_their_seq() {
        assert_eq!(split_request_name("req[17]"), ("req", 17));
        assert_eq!(split_request_name("req[3] slice"), ("req.slice", 3));
        assert_eq!(split_request_name("kernel.pass"), ("kernel.pass", NO_SEQ));
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Trace::new();
        let base = t.t0 + Duration::from_millis(1);
        let at = |us: u64| base + Duration::from_micros(us);
        t.span("outer", NO_SEQ, 0, at(0), Duration::from_micros(100));
        t.span("inner", NO_SEQ, 0, at(10), Duration::from_micros(50));
        t.span("leaf", NO_SEQ, 0, at(20), Duration::from_micros(20));
        t.span("inner", NO_SEQ, 0, at(70), Duration::from_micros(20));
        let rows = t.summary(Phase::Setup);
        let get = |n: &str| rows.iter().find(|r| r.0 == n).cloned().unwrap();
        assert!((get("outer").3 - 0.030).abs() < 1e-9);
        assert_eq!(get("inner").1, 2);
        assert!((get("inner").3 - 0.050).abs() < 1e-9);
        assert!((get("leaf").3 - 0.020).abs() < 1e-9);
    }
}
