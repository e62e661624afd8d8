//! `solve-paper`: the paper's Table-2 multiplexer (C = N = 200,000,
//! σ² = 10, 200,001 states) from steady state, solved to order 2 at one
//! horizon near qt = 2,000, through `parse_model`, `SolvePlan::build`
//! and `SolvePlan::execute`. Times are read on the CPU clock of the one
//! thread that does the work, which on a shared virtual machine leaves
//! out the time the host gives the CPU to other guests, and reported at
//! the reference speed of calibration slices timed right before each
//! set-up and on both sides of each sweep (see [`crate::calib`]); wall
//! times are printed beside them.

use crate::calib::{Calibration, Kernel};
use crate::check;
use crate::report::{
    layer_metrics, pass_ns, print_span_summary, solver_config, traced, LayerInputs, Outcome,
};
use crate::rng::Rng;
use crate::stats::{median, peak_rss_mib, percentile, ratio, ThreadClock};
use crate::trace::{Phase, Trace, NO_SEQ};
use crate::workload::{model_text, multiplexer, Pi};
use crate::Args;
use somrm_cli::format::parse_model;
use somrm_core::uniformization::SolverConfig;
use somrm_core::SolvePlan;
use somrm_models::onoff::OnOffMultiplexer;
use std::time::Instant;

/// Cold set-ups before each sweep; the last one's plan serves it.
/// Set-ups and sweeps alternate, so both sample the whole run.
const SETUPS_PER_SWEEP: usize = 2;
const ORDER: usize = 2;
/// Calibration slices timed before each set-up and each sweep.
const SLICES: usize = 4;

/// One cold start: read the model file, parse it, build the plan.
fn setup(path: &str, cfg: &SolverConfig, trace: Option<&Trace>) -> Result<SolvePlan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let parse = || parse_model(&text);
    let parsed = match trace {
        Some(t) => t.time("bench.parse", NO_SEQ, text.len() as u64, parse),
        None => parse(),
    }
    .map_err(|e| e.to_string())?;
    let build = || SolvePlan::build(&parsed.model, ORDER, cfg);
    match trace {
        Some(t) => t.time("bench.build", NO_SEQ, 0, build),
        None => build(),
    }
    .map_err(|e| e.to_string())
}

/// What one sweep took, and whether it passed.
struct Sweep {
    wall: f64,
    cpu: f64,
    ok: bool,
}

/// One sweep of `plan` at `t`.
fn sweep(
    plan: &SolvePlan,
    t: f64,
    order: usize,
    rate: f64,
    trace: Option<&Trace>,
    seq: u32,
) -> Sweep {
    let clock = ThreadClock::current();
    let (t0, cpu0) = (Instant::now(), clock.seconds());
    let result = plan.execute(&[t], order);
    let (wall, cpu) = (t0.elapsed(), clock.seconds() - cpu0);
    if let Some(tr) = trace {
        tr.span("bench.execute", seq, 0, t0, wall);
    }
    let verdict = result.map_err(|e| e.to_string()).and_then(|sols| {
        if order == ORDER {
            check::paper_solution(&sols[0], rate)
        } else {
            Ok(())
        }
    });
    if let Err(e) = &verdict {
        eprintln!("perfbench: solve-paper check failed: {e}");
    }
    Sweep {
        wall: wall.as_secs_f64(),
        cpu,
        ok: verdict.is_ok(),
    }
}

/// What the alternating set-up/sweep loop measured, in CPU seconds at
/// the reference speed, in raw CPU seconds and in wall seconds.
struct Cycles {
    setups: Vec<f64>,
    setup_cpus: Vec<f64>,
    setup_walls: Vec<f64>,
    sweeps: Vec<f64>,
    sweep_cpus: Vec<f64>,
    sweep_walls: Vec<f64>,
    failed: u64,
    plan: SolvePlan,
    cal: Calibration,
}

/// Set-ups and sweeps in turn until the next cycle would end past
/// `seconds` (at least one cycle). Traced, the sweeps are the measured
/// phase and the set-ups stay in the set-up phase.
fn cycles(
    path: &str,
    cfg: &SolverConfig,
    t: f64,
    rate: f64,
    seconds: f64,
    trace: Option<&Trace>,
) -> Result<Cycles, String> {
    let start = Instant::now();
    let clock = ThreadClock::current();
    let cal = Calibration::new(Kernel::Large);
    let (mut setups, mut setup_cpus, mut setup_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sweeps, mut sweep_cpus, mut sweep_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0;
    loop {
        let cycle = Instant::now();
        let mut plan = None;
        for _ in 0..SETUPS_PER_SWEEP {
            drop(plan.take());
            let f = cal.time(SLICES);
            let (t0, cpu0) = (Instant::now(), clock.seconds());
            plan = Some(setup(path, cfg, trace)?);
            let cpu = clock.seconds() - cpu0;
            setups.push(cpu * f);
            setup_cpus.push(cpu);
            setup_walls.push(t0.elapsed().as_secs_f64());
        }
        let plan = plan.expect("at least one set-up per sweep");
        if let Some(tr) = trace {
            tr.set_phase(Phase::Run);
        }
        let before = cal.time(SLICES);
        let s = sweep(&plan, t, ORDER, rate, trace, sweeps.len() as u32);
        if let Some(tr) = trace {
            tr.set_phase(Phase::Setup);
        }
        let after = cal.time(SLICES);
        sweeps.push(s.cpu * (before + after) / 2.0);
        sweep_cpus.push(s.cpu);
        sweep_walls.push(s.wall);
        failed += u64::from(!s.ok);
        let elapsed = start.elapsed();
        if elapsed.as_secs_f64() + cycle.elapsed().as_secs_f64() > seconds {
            return Ok(Cycles {
                setups,
                setup_cpus,
                setup_walls,
                sweeps,
                sweep_cpus,
                sweep_walls,
                failed,
                plan,
                cal,
            });
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let table2 = OnOffMultiplexer::table2();
    let model = multiplexer(
        table2.n_sources,
        table2.variance,
        Pi::Steady,
        &mut Rng::new(0, 0),
    );
    let path = args.work_dir.join("paper.somrm");
    let path = path.to_str().ok_or("work dir is not UTF-8")?.to_string();
    std::fs::write(&path, model_text(&model)).map_err(|e| format!("write {path}: {e}"))?;
    drop(model);
    let rate = table2.steady_state_mean_rate();
    let q = table2.n_sources as f64 * table2.alpha;
    let t = Rng::new(args.seed, 1).range(1990.0, 2010.0) / q;
    println!("  model: 200,001 states, qt = {:.1}, order {ORDER}", q * t);

    let cfg = solver_config();
    if args.trace {
        return run_traced(args, &path, &cfg, t, rate);
    }
    let c = cycles(&path, &cfg, t, rate, args.seconds, None)?;
    let n = c.sweeps.len() as u64;
    let ok = n - c.failed;
    println!(
        "  set-up: {} cold read+parse+build, CPU {:?} s, wall {:?} s, format {}",
        c.setups.len(),
        rounded(&c.setup_cpus),
        rounded(&c.setup_walls),
        c.plan.matrix_format_name()
    );
    println!(
        "  measured: {n} sweeps sent, {ok} ok, {} failed, CPU {:?} s, wall {:?} s",
        c.failed,
        rounded(&c.sweep_cpus),
        rounded(&c.sweep_walls)
    );
    println!(
        "  calibration: median slice {:.3} ms over {} slices (reference {:.3} ms)",
        c.cal.median_s() * 1e3,
        c.cal.count(),
        Kernel::Large.reference_s() * 1e3,
    );
    Ok(Outcome {
        correct: c.failed == 0,
        attempted: n,
        failed: c.failed,
        metrics: vec![
            ("setup_s", median(&c.setups), "s"),
            ("solve_s", median(&c.sweeps), "s"),
            ("p50_ms", median(&c.sweeps) * 1e3, "ms"),
            ("p95_ms", percentile(&c.sweeps, 95.0) * 1e3, "ms"),
            ("goodput", ratio(ok as f64, n as f64), "share"),
            (
                "req_per_cpu_s",
                ratio(ok as f64, c.sweeps.iter().sum()),
                "1/s",
            ),
            // Less the calibration's arrays, resident all run.
            ("peak_rss_mb", peak_rss_mib() - c.cal.buffer_mib(), "MiB"),
        ],
    })
}

fn rounded(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1e4).round() / 1e4).collect()
}

/// Traced run: half the time untraced and half traced on identical
/// cycles (the sweep-time ratio is the tracing overhead), then one
/// order-1 sweep for the order-2/order-1 pass cost.
fn run_traced(
    args: &Args,
    path: &str,
    cfg: &SolverConfig,
    t: f64,
    rate: f64,
) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let plain = cycles(path, cfg, t, rate, half, None)?;
    drop(plain.plan);
    let trace = Trace::new();
    let tcfg = traced(cfg, &trace);
    let c = cycles(path, &tcfg, t, rate, half, Some(&trace))?;
    trace.set_phase(Phase::Probe);
    sweep(&c.plan, t, 1, rate, Some(&trace), 0);
    println!(
        "  untraced sweeps {:?} CPU s, traced sweeps {:?} CPU s",
        rounded(&plain.sweep_cpus),
        rounded(&c.sweep_cpus)
    );

    let mut execs = trace.execs(Phase::Run);
    execs.extend(trace.execs(Phase::Probe));
    let inputs = LayerInputs {
        order2_over_order1: ratio(pass_ns(&execs, 2), pass_ns(&execs, 1)),
        overhead_pct: (median(&c.sweeps) / median(&plain.sweeps) - 1.0) * 100.0,
        calib_slice_us: c.cal.median_s() * 1e6,
        sent: c.sweeps.len() as u64,
        failed: c.failed,
        ..LayerInputs::default()
    };
    print_span_summary(&trace);
    let out = args.work_dir.join("trace-solve-paper.tsv");
    trace
        .write_tsv(&out)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("  trace written to {}", out.display());
    let failed = c.failed + plain.failed;
    Ok(Outcome {
        correct: failed == 0,
        attempted: (c.sweeps.len() + plain.sweeps.len()) as u64,
        failed,
        metrics: layer_metrics(&trace, &inputs),
    })
}
