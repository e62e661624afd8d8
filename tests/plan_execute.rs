//! Integration contract of the plan/execute split: a prebuilt
//! [`SolvePlan`] must answer bit-for-bit identically to the cold
//! one-shot solvers, whatever storage format or thread count the plan
//! was built with, and however many times it is re-executed.

use somrm::linalg::MatrixFormat;
use somrm::model::SecondOrderMrm;
use somrm::models::OnOffMultiplexer;
use somrm::obs::{
    Event, EventLogHandle, EventLogRecorder, MetricsRegistry, RecorderHandle, VecSink,
};
use somrm::prelude::*;
use somrm::solver::{
    moments_sweep, moments_terminal_weighted, moments_with_impulse, ImpulseMrm, SolvePlan,
};
use std::sync::Arc;

fn asymmetric_model() -> SecondOrderMrm {
    let mut b = GeneratorBuilder::new(4);
    b.rate(0, 1, 2.0).unwrap();
    b.rate(1, 0, 1.0).unwrap();
    b.rate(1, 2, 3.0).unwrap();
    b.rate(2, 1, 4.0).unwrap();
    b.rate(2, 3, 0.5).unwrap();
    b.rate(3, 0, 1.5).unwrap();
    SecondOrderMrm::new(
        b.build().unwrap(),
        vec![-1.0, 2.0, 5.0, 0.0],
        vec![0.5, 1.0, 4.0, 0.0],
        vec![0.6, 0.3, 0.1, 0.0],
    )
    .unwrap()
}

fn impulse_model() -> ImpulseMrm {
    ImpulseMrm::new(
        asymmetric_model(),
        &[(0, 1, 1.5), (1, 2, 0.5), (2, 3, 2.0), (3, 0, 0.25)],
    )
    .unwrap()
}

fn configs() -> Vec<(String, SolverConfig)> {
    let mut cfgs = Vec::new();
    for (fmt_name, format) in [("csr", MatrixFormat::Csr), ("dia", MatrixFormat::Dia)] {
        for threads in [1usize, 2, 4] {
            cfgs.push((
                format!("{fmt_name}/threads-{threads}"),
                SolverConfig {
                    format,
                    threads,
                    // Engage the pool even on these small models.
                    parallel_threshold: 2,
                    ..SolverConfig::default()
                },
            ));
        }
    }
    cfgs
}

fn assert_bitwise(label: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{label}: length");
    for (n, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: order {n}: {x} vs {y}"
        );
    }
}

#[test]
fn plan_execute_is_bitwise_identical_to_cold_sweep() {
    let model = asymmetric_model();
    let times = [0.1, 0.45, 0.8, 2.0];
    for (label, cfg) in configs() {
        let cold = moments_sweep(&model, 3, &times, &cfg).unwrap();
        let plan = SolvePlan::build(&model, 3, &cfg).unwrap();
        for pass in 0..2 {
            let warm = plan.execute(&times, 3).unwrap();
            for (c, w) in cold.iter().zip(&warm) {
                assert_bitwise(
                    &format!("{label} pass {pass} t={}", c.t),
                    &c.weighted,
                    &w.weighted,
                );
                assert_bitwise(
                    &format!("{label} pass {pass} t={} bounds", c.t),
                    &c.error_bounds,
                    &w.error_bounds,
                );
            }
        }
    }
}

#[test]
fn plan_execute_terminal_is_bitwise_identical_to_cold_terminal() {
    let model = asymmetric_model();
    let weights = [1.0, 0.25, 0.0, 0.5];
    for (label, cfg) in configs() {
        let cold = moments_terminal_weighted(&model, 2, 0.7, &weights, &cfg).unwrap();
        let plan = SolvePlan::build(&model, 2, &cfg).unwrap();
        for pass in 0..2 {
            let warm = plan.execute_terminal(0.7, &weights, 2).unwrap();
            assert_bitwise(&format!("{label} pass {pass}"), &cold.weighted, &warm.weighted);
        }
    }
}

#[test]
fn plan_survives_interleaved_grids_and_orders() {
    // A cached plan serves whatever grid/order mix arrives; every answer
    // must still equal the matching cold solve bit-for-bit.
    let model = OnOffMultiplexer::table1(1.0).model().unwrap();
    let cfg = SolverConfig::default();
    let plan = SolvePlan::build(&model, 4, &cfg).unwrap();
    for (times, order) in [
        (vec![0.5], 4usize),
        (vec![0.1, 0.2, 0.5], 2),
        (vec![1.0], 3),
        (vec![0.5], 4),
    ] {
        let warm = plan.execute(&times, order).unwrap();
        let cold = moments_sweep(&model, order, &times, &cfg).unwrap();
        for (c, w) in cold.iter().zip(&warm) {
            assert_bitwise(
                &format!("order {order} t={}", c.t),
                &c.weighted[..=order],
                &w.weighted[..=order],
            );
        }
    }
}

#[test]
fn plan_execute_impulse_is_bitwise_identical_to_cold_impulse_solves() {
    // The one-shot wrapper, warm executes of one plan, every format and
    // thread count, and telemetry on or off: all the same bits.
    let model = impulse_model();
    let times = [0.45, 2.0];
    let mut reference: Option<Vec<Vec<f64>>> = None;
    for (label, cfg) in configs() {
        let plan = SolvePlan::build_impulse(&model, 3, &cfg).unwrap();
        let mut weighted = Vec::new();
        for t in times {
            let cold = moments_with_impulse(&model, 3, t, &cfg).unwrap();
            for pass in 0..2 {
                let warm = plan.execute(&[t], 3).unwrap().pop().unwrap();
                let at = format!("{label} pass {pass} t={t}");
                assert_bitwise(&at, &cold.weighted, &warm.weighted);
                assert_bitwise(
                    &format!("{at} bounds"),
                    &cold.error_bounds,
                    &warm.error_bounds,
                );
                for (j, (c, w)) in cold.per_state.iter().zip(&warm.per_state).enumerate() {
                    assert_bitwise(&format!("{at} per-state order {j}"), c, w);
                }
            }
            weighted.push(cold.weighted);
        }
        match &reference {
            None => reference = Some(weighted),
            Some(first) => {
                for (a, b) in first.iter().zip(&weighted) {
                    assert_bitwise(&format!("{label} vs {}", configs()[0].0), a, b);
                }
            }
        }
    }
    let reference = reference.unwrap();

    let sink = VecSink::new();
    let log = EventLogRecorder::new();
    log.add_sink(Box::new(sink.clone()));
    let observed = SolverConfig {
        recorder: RecorderHandle::new(Arc::new(MetricsRegistry::new())),
        events: EventLogHandle::new(log),
        ..configs()[0].1.clone()
    };
    let sol = moments_with_impulse(&model, 3, times[1], &observed).unwrap();
    assert_bitwise("recorder + event log on", &reference[1], &sol.weighted);
    let report = sol.report.as_ref().expect("recorder attaches a report");
    assert_eq!(report.command, "impulse");
    assert_eq!(report.solver.as_ref().unwrap().g, sol.stats.iterations);
    let events = Event::parse_lines(&sink.contents()).expect("strict parse");
    assert!(matches!(events.first(), Some(Event::SolveStart { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::PlanResolved { .. })));
    assert!(events.iter().any(|e| matches!(e, Event::Truncation { .. })));
    assert!(matches!(events.last(), Some(Event::Complete { g, .. }) if *g == sol.stats.iterations));
}

/// Per-state moments of `a` within a relative `tol` of `b`'s.
fn assert_close(label: &str, a: &[Vec<f64>], b: &[Vec<f64>], tol: f64) {
    assert_eq!(a.len(), b.len(), "{label}: orders");
    for (j, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{label}: order {j} length");
        for (i, (&x, &y)) in x.iter().zip(y).enumerate() {
            assert!(
                (x - y).abs() <= tol * y.abs(),
                "{label}: order {j}, state {i}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn unit_start_execute_matches_the_full_recursion_from_all_ones() {
    // `execute` starts from U⁽⁰⁾ ≡ 1 and stores orders ≥ 1 only;
    // `execute_terminal` with all-ones weights runs the full recursion,
    // U⁽⁰⁾ included. Non-negative drifts, so no unshift amplifies the
    // rounding that separates them.
    let small = OnOffMultiplexer::table2_scaled(200).model().unwrap();
    let large = OnOffMultiplexer::table2_scaled(20_000)
        .model_steady_start()
        .unwrap();
    for (name, model, qt) in [
        ("onoff-200", small, 2_000.0),
        ("multiplexer-20k", large, 400.0),
    ] {
        assert!(model.rates().iter().all(|&r| r >= 0.0), "{name}");
        let n = model.n_states();
        let ones = vec![1.0; n];
        let t = qt / model.generator().uniformization_rate();
        let impulses = ImpulseMrm::new(
            model.clone(),
            &[
                (0, 1, 0.5),
                (2, 1, 1.0),
                (n / 2, n / 2 + 1, 0.25),
                (n - 1, n - 2, 2.0),
            ],
        )
        .unwrap();
        let cfg = SolverConfig::default();
        let plans = [
            ("plain", SolvePlan::build(&model, 3, &cfg).unwrap()),
            (
                "impulse",
                SolvePlan::build_impulse(&impulses, 3, &cfg).unwrap(),
            ),
        ];
        for (kind, plan) in plans {
            let label = format!("{name} {kind}");
            let unit = plan.execute(&[t], 3).unwrap().pop().unwrap();
            let full = plan.execute_terminal(t, &ones, 3).unwrap();
            assert_eq!(unit.stats.iterations, full.stats.iterations, "{label}: G");
            assert!(unit.stats.iterations > 100, "{label}: G");
            assert_bitwise(
                &format!("{label} bounds"),
                &unit.error_bounds,
                &full.error_bounds,
            );
            assert_close(&label, &unit.per_state, &full.per_state, 1e-11);
        }
    }
}

#[test]
fn order_zero_execute_returns_each_window_mass_without_a_pass() {
    use somrm::num::poisson::PoissonWindow;
    use somrm::num::sum::NeumaierSum;

    let model = OnOffMultiplexer::table2_scaled(200).model().unwrap();
    let q = model.generator().uniformization_rate();
    let times = [50.0 / q, 400.0 / q, 2_000.0 / q];
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = SolverConfig::default().with_recorder(RecorderHandle::new(registry.clone()));
    let plan = SolvePlan::build(&model, 2, &cfg).unwrap();
    let sols = plan.execute(&times, 0).unwrap();
    let g = sols[0].stats.iterations;
    let report = sols[0]
        .report
        .clone()
        .expect("a recorder attaches a report");
    let windows = &report.solver.as_ref().unwrap().poisson;
    for (sol, stat) in sols.iter().zip(windows) {
        // The horizon's window, rebuilt from its reported left edge.
        let w = PoissonWindow::exact_from(q * sol.t, stat.weights_left_skipped, g);
        assert_eq!(w.weights().len() as u64, stat.weights_kept);
        let mut mass = NeumaierSum::new();
        w.weights().iter().for_each(|&wk| mass.add(wk));
        assert_eq!(sol.per_state.len(), 1);
        assert!(
            sol.per_state[0]
                .iter()
                .all(|&m| m.to_bits() == mass.value().to_bits()),
            "t = {}: every state's order 0 is the window mass {}",
            sol.t,
            mass.value()
        );
    }
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("kernel.passes").unwrap_or(0),
        0,
        "no kernel pass"
    );
    let health = report.health.as_ref().expect("health section");
    assert!(health.samples > 0);
    assert_eq!(health.u0_mass_final, 1.0);
}
