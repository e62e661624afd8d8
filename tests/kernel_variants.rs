//! The fused kernel's one arithmetic against its recorded bits.
//!
//! - **Golden bit-exactness.** `tests/regressions/scalar-golden.json`
//!   pins the solver's outputs as captured *before* the SIMD lanes
//!   landed, over three structurally distinct models, two thread
//!   configurations, and two orders. The kernel computes strict f64 in
//!   canonical order, with no fused multiply-add, on AVX2 or portable
//!   lanes alike, so it must reproduce every bit forever — on any CPU,
//!   and in a build for any `-C target-cpu`.
//! - **Schedules.** A model spanning several wavefront blocks keeps
//!   its bits with a recorder attached, on a worker pool, and through
//!   terminal-weighted executes.

use somrm::obs::json;
use somrm::prelude::*;
use somrm::solver::{moments_sweep, MatrixFormat};

fn pentadiag_model(n: usize) -> SecondOrderMrm {
    let mut b = GeneratorBuilder::new(n);
    for i in 0..n {
        if i + 1 < n {
            b.rate(i, i + 1, 1.0 + (i % 3) as f64 * 0.25).unwrap();
        }
        if i + 2 < n {
            b.rate(i, i + 2, 0.5 + (i % 2) as f64 * 0.125).unwrap();
        }
        if i >= 1 {
            b.rate(i, i - 1, 0.75).unwrap();
        }
        if i >= 2 {
            b.rate(i, i - 2, 0.25).unwrap();
        }
    }
    let rates: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 1.0).collect();
    let vars: Vec<f64> = (0..n).map(|i| (i % 3) as f64 * 0.5).collect();
    let mut init = vec![0.0; n];
    init[0] = 0.5;
    init[n / 2] = 0.5;
    SecondOrderMrm::new(b.build().unwrap(), rates, vars, init).unwrap()
}

fn scattered_model(n: usize) -> SecondOrderMrm {
    let mut b = GeneratorBuilder::new(n);
    for i in 0..n {
        b.rate(i, (i + 1) % n, 1.0 + (i % 4) as f64 * 0.5).unwrap();
        let j = (i * 7 + 3) % n;
        if j != i {
            b.rate(i, j, 0.25).unwrap();
        }
    }
    let rates: Vec<f64> = (0..n).map(|i| ((i * 13) % 7) as f64 * 0.5 - 1.0).collect();
    let vars: Vec<f64> = (0..n).map(|i| ((i * 5) % 4) as f64 * 0.25).collect();
    let mut init = vec![0.0; n];
    init[0] = 1.0;
    SecondOrderMrm::new(b.build().unwrap(), rates, vars, init).unwrap()
}

fn golden_model(label: &str) -> SecondOrderMrm {
    match label {
        "onoff-200" => OnOffMultiplexer::table2_scaled(200).model().unwrap(),
        "pentadiag-64" => pentadiag_model(64),
        "scattered-97" => scattered_model(97),
        other => panic!("golden file references unknown model '{other}'"),
    }
}

/// The evaluation grid the golden file was captured on.
const GOLDEN_TIMES: [f64; 3] = [0.05, 0.4, 1.1];

#[test]
fn scalar_kernel_matches_pre_simd_golden_bits() {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/regressions/scalar-golden.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let doc = json::parse(&text).expect("golden file parses");
    let cases = doc.get("cases").and_then(|c| c.as_array()).expect("cases array");
    assert!(cases.len() >= 12, "golden corpus went missing ({} cases)", cases.len());
    for case in cases {
        let label = case.get("label").and_then(|l| l.as_str()).expect("label");
        let model = golden_model(case.get("model").and_then(|m| m.as_str()).expect("model"));
        let threads = case.get("threads").and_then(|t| t.as_f64()).expect("threads") as usize;
        let par = case
            .get("parallel_threshold")
            .and_then(|p| p.as_f64())
            .expect("parallel_threshold") as usize;
        let order = case.get("order").and_then(|o| o.as_f64()).expect("order") as usize;
        let expected: Vec<u64> = case
            .get("bits")
            .and_then(|b| b.as_array())
            .expect("bits array")
            .iter()
            .map(|b| u64::from_str_radix(b.as_str().expect("hex string"), 16).unwrap())
            .collect();
        let cfg = SolverConfig {
            threads,
            parallel_threshold: par,
            format: MatrixFormat::Auto,
            ..SolverConfig::default()
        };
        let sols = moments_sweep(&model, order, &GOLDEN_TIMES, &cfg).unwrap();
        let actual: Vec<u64> = sols
            .iter()
            .flat_map(|s| s.weighted.iter().map(|v| v.to_bits()))
            .collect();
        assert_eq!(
            actual.len(),
            expected.len(),
            "{label}: value count drifted from the golden capture"
        );
        for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
            assert_eq!(
                a, e,
                "{label}: value {i} diverged from the pre-SIMD scalar kernel: \
                 {} vs golden {}",
                f64::from_bits(*a),
                f64::from_bits(*e)
            );
        }
    }
}

/// Regenerator for the golden file. Permanently `#[ignore]`d: run it by
/// hand only when the golden corpus is *intentionally* extended, and
/// review the diff — it must never run as part of a normal test pass.
#[test]
#[ignore = "regenerates the golden corpus; run manually, review the diff"]
fn regenerate_scalar_golden() {
    let models = ["onoff-200", "pentadiag-64", "scattered-97"];
    let mut out = String::from(
        "{\n  \"note\": \"pre-PR scalar-kernel golden values; f64 bits as hex\",\n  \"cases\": [\n",
    );
    let mut first = true;
    for label in models {
        let model = golden_model(label);
        for (threads, par) in [(1usize, 4096usize), (4, 2)] {
            for order in [0usize, 3] {
                let cfg = SolverConfig {
                    threads,
                    parallel_threshold: par,
                    format: MatrixFormat::Auto,
                    ..SolverConfig::default()
                };
                let sols = moments_sweep(&model, order, &GOLDEN_TIMES, &cfg).unwrap();
                let bits: Vec<String> = sols
                    .iter()
                    .flat_map(|s| s.weighted.iter().map(|v| format!("\"{:016x}\"", v.to_bits())))
                    .collect();
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                out.push_str(&format!(
                    "    {{\"label\": \"{label}-t{threads}-o{order}\", \"model\": \"{label}\", \
                     \"threads\": {threads}, \"parallel_threshold\": {par}, \"order\": {order}, \
                     \"bits\": [{}]}}",
                    bits.join(", ")
                ));
            }
        }
    }
    out.push_str("\n  ]\n}\n");
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/regressions/scalar-golden.json");
    std::fs::write(path, out).unwrap();
}

/// The paper-scale schedule on a model that spans several wavefront
/// blocks (20,001 states at order 2 with two time points is four 1 MiB
/// blocks): the kernel's stretches end wherever the health probe samples
/// when a recorder is attached, and a worker pool runs it pass by pass,
/// yet every bit must match the plain single-threaded solve.
/// Terminal-weighted executes share the recursion driver. The kernel's
/// own tests cross the schedules with small blocks.
#[test]
fn multiplexer_spanning_several_blocks_keeps_its_bits_under_every_schedule() {
    use somrm::obs::{MetricsRegistry, Recorder, RecorderHandle};
    use somrm::solver::SolvePlan;
    use std::sync::Arc;

    let model = OnOffMultiplexer::table2_scaled(20_000)
        .model_steady_start()
        .unwrap();
    let n = model.n_states();
    assert!(n >= 20_000);
    let q = model.generator().uniformization_rate();
    let times = [20.0 / q, 60.0 / q];
    let weights: Vec<f64> = (0..n).map(|i| (i % 3) as f64 * 0.5).collect();
    let bits = |cfg: &SolverConfig, terminal: bool| {
        let plan = SolvePlan::build(&model, 2, cfg).unwrap();
        let mut sols = plan.execute(&times, 2).unwrap();
        if terminal {
            sols.push(plan.execute_terminal(times[1], &weights, 2).unwrap());
        }
        let bits: Vec<u64> = sols
            .iter()
            .flat_map(|s| s.per_state.iter().flatten().chain(&s.weighted))
            .map(|v| v.to_bits())
            .collect();
        (sols[1].stats.iterations, bits)
    };
    let plain = SolverConfig::default();
    let (g, want) = bits(&plain, true);

    let registry = Arc::new(MetricsRegistry::new());
    let recorded = plain.clone().with_recorder(RecorderHandle::new(
        Arc::clone(&registry) as Arc<dyn Recorder>
    ));
    assert_eq!(bits(&recorded, true), (g, want.clone()), "recorder on");
    let snap = registry.snapshot();
    let passes = snap.counter("kernel.passes").unwrap();
    let stretches = snap.timing("kernel.pass").unwrap().count;
    assert!(
        stretches > 2 && stretches < passes,
        "{passes} passes should run in health-limited stretches, got {stretches}"
    );

    let pooled = SolverConfig {
        threads: 2,
        parallel_threshold: 2,
        ..plain
    };
    let (g2, pooled_bits) = bits(&pooled, false);
    assert_eq!(g2, g);
    assert_eq!(pooled_bits[..], want[..pooled_bits.len()], "2 threads");
}
