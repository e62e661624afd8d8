//! End-to-end checks of the telemetry layer against the paper's ON-OFF
//! multiplexer model: the recorder must capture the solver facts, the
//! realized per-order Theorem-4 bounds must behave, and instrumentation
//! must never perturb the numerics.

use somrm::ctmc::generator::GeneratorBuilder;
use somrm::model::SecondOrderMrm;
use somrm::models::OnOffMultiplexer;
use somrm::obs::{ChromeTraceRecorder, MetricsRegistry, NoopRecorder, Recorder, RecorderHandle};
use somrm::solver::{moments, moments_sweep, SolverConfig};
use std::sync::Arc;

#[test]
fn recorder_captures_solver_facts_on_onoff_model() {
    let model = OnOffMultiplexer::table1(1.0).model().unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = SolverConfig::default()
        .with_recorder(RecorderHandle::new(Arc::clone(&registry) as Arc<dyn Recorder>));
    let sol = moments(&model, 3, 0.5, &cfg).unwrap();

    let snap = registry.snapshot();
    let g = snap.gauge("solver.g").expect("solver.g gauge");
    assert_eq!(g as u64, sol.stats.iterations);
    let kept = snap.counter("poisson.weights_kept").unwrap();
    let trimmed = snap.counter("poisson.weights_trimmed").unwrap();
    let left_skipped = snap.counter("poisson.weights_left_skipped").unwrap_or(0);
    assert_eq!(
        kept + trimmed + left_skipped,
        sol.stats.iterations + 1,
        "kept + trimmed + left-skipped must cover all G+1 Poisson weights"
    );
    // One horizon runs backward: exactly G passes, none accumulating.
    assert_eq!(snap.counter("kernel.passes").unwrap(), sol.stats.iterations);
    for stage in [
        "solve.setup",
        "solve.truncation",
        "solve.poisson",
        "solve.recursion",
        "solve.assemble",
    ] {
        assert!(snap.timing(stage).is_some(), "missing stage {stage}");
    }

    let report = sol.report.as_ref().expect("report attached");
    let json = report.to_json();
    let v = somrm::obs::json::parse(&json).expect("report JSON parses");
    assert_eq!(v.get("command").and_then(|c| c.as_str()), Some("moments"));
    assert_eq!(
        v.get("G").and_then(|g| g.as_f64()),
        Some(sol.stats.iterations as f64)
    );

    // Two horizons run forward: G + 1 passes, the last one accumulating
    // only.
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = SolverConfig::default()
        .with_recorder(RecorderHandle::new(Arc::clone(&registry) as Arc<dyn Recorder>));
    let sweep = moments_sweep(&model, 3, &[0.25, 0.5], &cfg).unwrap();
    assert_eq!(sweep[1].stats.iterations, sol.stats.iterations, "same G");
    assert_eq!(
        registry.snapshot().counter("kernel.passes").unwrap(),
        sol.stats.iterations + 1
    );
}

#[test]
fn per_order_bounds_are_monotone_on_onoff_model() {
    let model = OnOffMultiplexer::table1(1.0).model().unwrap();
    let order = 5;
    let sol = moments(&model, order, 0.5, &SolverConfig::default()).unwrap();
    for n in 1..=order {
        assert!(
            sol.error_bound(n) >= sol.error_bound(n - 1),
            "per-order bound must grow with the order: bound({n}) = {} < bound({}) = {}",
            sol.error_bound(n),
            n - 1,
            sol.error_bound(n - 1)
        );
    }
    assert_eq!(sol.error_bound(order), sol.stats.error_bound);
    assert!(sol.error_bound(order) < 1e-9, "worst bound within epsilon");
}

#[test]
fn chrome_trace_round_trips_with_nested_spans_and_worker_lanes() {
    let model = OnOffMultiplexer::table2_scaled(200).model().unwrap();
    let chrome = Arc::new(ChromeTraceRecorder::new());
    let cfg = SolverConfig {
        threads: 2,
        parallel_threshold: 2,
        recorder: RecorderHandle::new(Arc::clone(&chrome) as Arc<dyn Recorder>),
        ..SolverConfig::default()
    };
    let sol = moments(&model, 2, 0.02, &cfg).unwrap();
    assert!(sol.stats.iterations > 0);

    let v = somrm::obs::json::parse(&chrome.to_json()).expect("trace JSON parses");
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .collect();
    let span = |name: &str| {
        complete
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("missing span {name}"))
    };
    let ts = |e: &&&somrm::obs::json::Value| e.get("ts").unwrap().as_f64().unwrap();
    let dur = |e: &&&somrm::obs::json::Value| e.get("dur").unwrap().as_f64().unwrap();

    // Nesting: every kernel.pass interval sits inside solve.recursion,
    // which sits inside solve.moments, all on the driving thread's lane.
    let recursion = span("solve.recursion");
    let (r0, r1) = (ts(&recursion), ts(&recursion) + dur(&recursion));
    let main_tid = recursion.get("tid").unwrap().as_f64().unwrap();
    let slack = 0.01; // µs; ts/dur are rounded to fractional µs
    for e in &complete {
        if e.get("name").and_then(|n| n.as_str()) == Some("kernel.pass") {
            assert_eq!(e.get("tid").unwrap().as_f64(), Some(main_tid));
            assert!(ts(&&e) + slack >= r0, "pass starts inside the recursion");
            assert!(ts(&&e) + dur(&&e) <= r1 + slack, "pass ends inside the recursion");
        }
    }

    // One lane per pool participant: chunk 0 runs on the driving thread
    // and chunk 1 on the spawned worker, so the per-chunk events sit on
    // exactly `threads` distinct lanes — the driving lane plus one lane
    // per somrm-worker, each named by a thread_name metadata record.
    let chunk_tids: std::collections::BTreeSet<u64> = complete
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("kernel.chunk"))
        .map(|e| e.get("tid").unwrap().as_f64().unwrap() as u64)
        .collect();
    assert_eq!(chunk_tids.len(), 2, "one lane per participant: {chunk_tids:?}");
    assert!(chunk_tids.contains(&(main_tid as u64)), "chunk 0 on the driving lane");
    let worker_lanes: Vec<u64> = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    .is_some_and(|n| n.starts_with("somrm-worker-"))
        })
        .map(|e| e.get("tid").unwrap().as_f64().unwrap() as u64)
        .collect();
    for tid in chunk_tids.iter().filter(|&&t| t != main_tid as u64) {
        assert!(worker_lanes.contains(tid), "lane {tid} named after its worker");
    }
}

#[test]
fn health_section_is_clean_on_onoff_model() {
    let model = OnOffMultiplexer::table1(1.0).model().unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = SolverConfig::default()
        .with_recorder(RecorderHandle::new(Arc::clone(&registry) as Arc<dyn Recorder>));
    let sol = moments(&model, 3, 0.5, &cfg).unwrap();

    let health = sol
        .report
        .as_ref()
        .and_then(|r| r.health.as_ref())
        .expect("health section populated");
    assert!(health.samples > 0);
    assert_eq!(health.warnings(), 0, "clean model, no anomalies");
    // Theorem 3's stability argument, checked live: the plain order-0
    // iterate is stochastic, so its sup-norm is exactly 1 throughout.
    assert_eq!(health.u0_mass_initial, 1.0);
    assert_eq!(health.u0_mass_min, 1.0);
    assert_eq!(health.u0_mass_final, 1.0);

    let snap = registry.snapshot();
    assert_eq!(snap.counter("health.nan"), Some(0));
    assert_eq!(snap.counter("health.underflow"), Some(0));
    let json = sol.report.as_ref().unwrap().to_json();
    let v = somrm::obs::json::parse(&json).unwrap();
    let h = v.get("health").expect("health key in report JSON");
    assert_eq!(h.get("subnormal").and_then(|s| s.as_f64()), Some(0.0));
    assert_eq!(h.get("u0_mass_final").and_then(|s| s.as_f64()), Some(1.0));
}

#[test]
fn health_probe_flags_engineered_underflow_without_changing_results() {
    // One state's shifted drift is ~1e-310 while the other's is 1, so
    // the normalization r' = r/(q·d) drives the small one subnormal and
    // U⁽¹⁾ picks up gradual-underflow entries in its first iterations.
    let mut b = GeneratorBuilder::new(2);
    b.rate(0, 1, 1.0).unwrap();
    b.rate(1, 0, 1.0).unwrap();
    let model = SecondOrderMrm::new(
        b.build().unwrap(),
        vec![1e-310, 1.0],
        vec![0.0, 0.0],
        vec![0.5, 0.5],
    )
    .unwrap();

    let plain = moments(&model, 2, 1.0, &SolverConfig::default()).unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = SolverConfig::default()
        .with_recorder(RecorderHandle::new(Arc::clone(&registry) as Arc<dyn Recorder>));
    let observed = moments(&model, 2, 1.0, &cfg).unwrap();

    // The probe only reads: results stay bit-identical.
    assert_eq!(plain.weighted, observed.weighted);
    assert_eq!(plain.per_state, observed.per_state);
    assert_eq!(plain.error_bounds, observed.error_bounds);

    let health = observed
        .report
        .as_ref()
        .and_then(|r| r.health.as_ref())
        .expect("health section populated");
    assert!(health.subnormal > 0, "underflow sighted: {health:?}");
    assert_eq!(health.nan, 0);
    assert_eq!(health.inf, 0);
    assert!(registry.snapshot().counter("health.underflow").unwrap() > 0);
}

#[test]
fn noop_recorder_is_bit_identical_to_disabled() {
    let model = OnOffMultiplexer::table1(1.0).model().unwrap();
    let plain_cfg = SolverConfig::default();
    let noop_cfg = SolverConfig::default()
        .with_recorder(RecorderHandle::new(Arc::new(NoopRecorder) as Arc<dyn Recorder>));
    for &t in &[0.1, 0.5, 2.0] {
        let a = moments(&model, 4, t, &plain_cfg).unwrap();
        let b = moments(&model, 4, t, &noop_cfg).unwrap();
        // Bit-for-bit equality, not approximate: instrumentation only
        // observes, so every float must be untouched.
        assert_eq!(a.weighted, b.weighted, "t = {t}");
        assert_eq!(a.per_state, b.per_state, "t = {t}");
        assert_eq!(a.error_bounds, b.error_bounds, "t = {t}");
        assert!(a.report.is_none());
        assert!(b.report.is_some(), "noop is enabled-path: report attached");
    }
}
