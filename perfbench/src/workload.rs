//! Seeded workload inputs: models, their model-file text, and the serve
//! request streams. The program under test only ever sees the text.

use crate::rng::Rng;
use somrm_core::SecondOrderMrm;
use somrm_ctmc::generator::GeneratorBuilder;
use somrm_ctmc::stationary::stationary_birth_death;
use somrm_models::onoff::OnOffMultiplexer;
use std::fmt::Write as _;

/// Initial distributions of the multiplexer variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pi {
    /// All sources off (the paper's initial condition).
    AllOff,
    /// The stationary distribution of the background chain, with
    /// entries below [`PI_FLOOR`] dropped so the text stays short.
    Steady,
    /// Mass on a few seeded states.
    Seeded,
}

/// Stationary-π entries below this are written as zero. The dropped
/// mass is far inside the parser's 1e-9 normalisation tolerance.
const PI_FLOOR: f64 = 1e-12;

/// Shortest text that parses back to exactly `v`.
fn fmt_num(v: f64) -> String {
    let plain = format!("{v}");
    let exp = format!("{v:e}");
    if exp.len() < plain.len() {
        exp
    } else {
        plain
    }
}

/// Writes `model` in the model-file format (`states`, `rate`, `reward`,
/// `init`). Rates go out in CSR row order and every number in its
/// shortest round-trip form, so parsing the text rebuilds the same
/// model bit for bit.
pub fn model_text(model: &SecondOrderMrm) -> String {
    let n = model.n_states();
    let mut out = String::with_capacity(n * 48);
    let _ = writeln!(out, "states {n}");
    let q = model.generator().as_csr();
    for i in 0..n {
        for (j, v) in q.row(i) {
            if j != i && v != 0.0 {
                let _ = writeln!(out, "rate {i} {j} {}", fmt_num(v));
            }
        }
    }
    for (i, (&r, &s)) in model.rates().iter().zip(model.variances()).enumerate() {
        if r != 0.0 || s != 0.0 {
            let _ = writeln!(out, "reward {i} {} {}", fmt_num(r), fmt_num(s));
        }
    }
    for (i, &p) in model.initial().iter().enumerate() {
        if p != 0.0 {
            let _ = writeln!(out, "init {i} {}", fmt_num(p));
        }
    }
    out
}

/// Mass on 1–3 seeded states.
fn seeded_pi(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut pi = vec![0.0; n];
    for _ in 0..1 + rng.below(3) {
        pi[rng.below(n)] += 0.25 + rng.f64();
    }
    let total: f64 = pi.iter().sum();
    pi.iter_mut().for_each(|p| *p /= total);
    pi
}

/// The paper's ON-OFF multiplexer shape (α = 4, β = 3, r = 1, C = N)
/// with `n_sources` sources and per-source variance `variance`.
pub fn multiplexer(n_sources: usize, variance: f64, pi: Pi, rng: &mut Rng) -> SecondOrderMrm {
    let m = OnOffMultiplexer {
        variance,
        ..OnOffMultiplexer::table2_scaled(n_sources)
    };
    let n = m.n_states();
    let initial = match pi {
        Pi::AllOff => {
            let mut p = vec![0.0; n];
            p[0] = 1.0;
            p
        }
        Pi::Steady => {
            let (birth, death) = m.birth_death_rates();
            let mut p = stationary_birth_death(&birth, &death).expect("valid birth-death rates");
            p.iter_mut()
                .filter(|x| **x < PI_FLOOR)
                .for_each(|x| *x = 0.0);
            p
        }
        Pi::Seeded => seeded_pi(n, rng),
    };
    m.model_with_initial(initial).expect("valid multiplexer")
}

/// A seeded unstructured sparse chain (2–4 random targets per state),
/// which the solver keeps in CSR. Drifts are non-negative so no reward
/// shift is applied. Numbers are rounded to a few decimals to keep the
/// model text short.
pub struct SparseChain {
    rates: Vec<(usize, usize, f64)>,
    drift: Vec<f64>,
    variance: Vec<f64>,
}

impl SparseChain {
    pub fn new(n: usize, rng: &mut Rng) -> SparseChain {
        let round = |x: f64, scale: f64| (x * scale).round() / scale;
        let mut rates = Vec::new();
        for i in 0..n {
            let mut targets: Vec<usize> = Vec::new();
            let want = 2 + rng.below(3);
            while targets.len() < want {
                let j = rng.below(n);
                if j != i && !targets.contains(&j) {
                    targets.push(j);
                }
            }
            targets.sort_unstable();
            for j in targets {
                rates.push((i, j, round(rng.range(0.5, 5.0), 1e3)));
            }
        }
        let drift = (0..n).map(|_| round(rng.range(0.0, 10.0), 1e2)).collect();
        let variance = (0..n)
            .map(|_| {
                if rng.f64() < 0.5 {
                    0.0
                } else {
                    round(rng.range(0.0, 5.0), 1e2)
                }
            })
            .collect();
        SparseChain {
            rates,
            drift,
            variance,
        }
    }

    pub fn model(&self, pi: Vec<f64>) -> SecondOrderMrm {
        let mut b = GeneratorBuilder::new(self.drift.len());
        for &(i, j, r) in &self.rates {
            b.rate(i, j, r).expect("valid rate");
        }
        let generator = b.build().expect("valid generator");
        SecondOrderMrm::new(generator, self.drift.clone(), self.variance.clone(), pi)
            .expect("valid sparse model")
    }

    pub fn n_states(&self) -> usize {
        self.drift.len()
    }
}

/// FNV-1a over everything but the initial distribution: two models with
/// the same key are the same chain and rewards started differently.
pub fn chain_key(model: &SecondOrderMrm) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let (row_ptr, col_idx, values) = model.generator().as_csr().csr_parts();
    row_ptr.iter().chain(col_idx).for_each(|&x| eat(x as u64));
    values
        .iter()
        .chain(model.rates())
        .chain(model.variances())
        .for_each(|v| eat(v.to_bits()));
    h
}

/// One model a serve workload sends.
pub struct ServeModel {
    pub model: SecondOrderMrm,
    pub text: String,
    /// `Some(path)` when requests name the model by `model_file`.
    pub file: Option<String>,
}

/// One request of a serve workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Due time, seconds after the measured phase starts.
    pub due: f64,
    /// Index into [`ServeWorkload::models`].
    pub model: usize,
    pub times: Vec<f64>,
    pub order: usize,
    /// The JSON line sent (no newline); its `id` is the request's index.
    pub line: String,
}

/// The generated inputs of one serve workload.
pub struct ServeWorkload {
    pub models: Vec<ServeModel>,
    /// Closed-loop warm-up requests every fresh serve loop answers
    /// first; independent of the seed, so set-up cost is too.
    pub warmup: Vec<Request>,
    /// The open-loop requests of the measured phase, by due time.
    pub requests: Vec<Request>,
    /// Model whose kernel pass cost the traced run compares at orders 1
    /// and 2, with the horizon it uses.
    pub probe: (usize, f64),
    /// One deck of the workload's queries in a fixed order, the same for
    /// every seed: what the phase's solve probes cycle through.
    pub solve_deck: Vec<Request>,
}

/// Offered refresh rate of `serve-hot` (refreshes per second; each
/// carries 2–6 requests, 4 on average).
pub const HOT_REFRESH_RATE: f64 = 17.0;
/// Offered request rate of `serve-churn` (requests per second).
pub const CHURN_RATE: f64 = 45.0;

pub fn request_line(id: usize, model: &ServeModel, times: &[f64], order: usize) -> String {
    let mut line = format!("{{\"id\":{id},");
    match &model.file {
        Some(path) => {
            line.push_str("\"model_file\":");
            somrm_obs::json::write_string(&mut line, path);
        }
        None => {
            line.push_str("\"model\":");
            somrm_obs::json::write_string(&mut line, &model.text);
        }
    }
    line.push_str(",\"t\":[");
    for (i, &t) in times.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        somrm_obs::json::write_f64(&mut line, t);
    }
    let _ = write!(line, "],\"order\":{order}}}");
    line
}

fn request(
    due: f64,
    id: usize,
    models: &[ServeModel],
    model: usize,
    times: Vec<f64>,
    order: usize,
) -> Request {
    Request {
        due,
        model,
        line: request_line(id, &models[model], &times, order),
        times,
        order,
    }
}

fn q_of(m: &SecondOrderMrm) -> f64 {
    m.generator().uniformization_rate()
}

/// Warm-up ids start here so they never collide with phase ids.
pub const WARMUP_ID: usize = 1_000_000;

/// Indices `0..n` in blocks of fresh seeded permutations, `count` in
/// all: every block of `n` draws uses each deck entry once, so runs of
/// different seeds send the same mix in a different order.
fn deck(n: usize, count: usize, rng: &mut Rng) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut block: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            block.swap(i, rng.below(i + 1));
        }
        out.extend(block);
    }
    out.truncate(count);
    out
}

/// Open-loop arrival times over about `seconds` at about `rate`: a
/// whole number of decks of `deck` arrivals (at least one), so every run
/// of a length sends each deck entry equally often, with Poisson gaps
/// drawn by stratified sampling: the gaps are the `n` quantiles
/// `(k + 1/2) / n` of the exponential gap distribution, in seeded order.
/// Every run then holds the same gaps, and so the same number of close
/// arrivals that queue; only which requests meet them depends on the
/// seed.
fn arrivals(rate: f64, seconds: f64, deck: usize, rng: &mut Rng) -> Vec<f64> {
    let n = (rate * seconds / deck as f64).round().max(1.0) as usize * deck;
    let mean_gap = seconds / n as f64;
    let mut gaps: Vec<f64> = (0..n)
        .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln() * mean_gap)
        .collect();
    for i in (1..n).rev() {
        gaps.swap(i, rng.below(i + 1));
    }
    gaps.iter()
        .scan(0.0, |due, gap| {
            *due += gap;
            Some(*due)
        })
        .collect()
}

/// The shared horizons of `serve-hot`, as qt, all inside the qt-bucket
/// `[64, 128)`.
const HOT_QT: [f64; 6] = [68.0, 78.0, 88.0, 98.0, 108.0, 118.0];
/// Distinct refresh shapes; each run cycles through seeded shuffles.
const HOT_DECK: usize = 60;

/// `serve-hot`: dashboard refreshes against two hot 1,001-state chains
/// written to model files under `dir`. A refresh sends 2–6 panel
/// requests back to back, each for one of the two models with 1–4 of
/// its six shared horizons and order 1–3, so the hot key set (2 models
/// × 1 qt-bucket × 3 orders) fits the 8-entry plan cache. The refresh
/// shapes are a fixed deck; the seed picks their order and the arrival
/// times.
pub fn serve_hot(seed: u64, seconds: f64, dir: &str) -> std::io::Result<ServeWorkload> {
    let mut fixed = Rng::new(0, 1);
    let mut models = Vec::new();
    for (k, (variance, pi)) in [(10.0, Pi::Steady), (1.0, Pi::AllOff)]
        .into_iter()
        .enumerate()
    {
        let model = multiplexer(1000, variance, pi, &mut fixed);
        let text = model_text(&model);
        let path = format!("{dir}/hot-{k}.somrm");
        std::fs::write(&path, &text)?;
        models.push(ServeModel {
            model,
            text,
            file: Some(path),
        });
    }
    let q = q_of(&models[0].model);
    let mut warmup = Vec::new();
    for m in 0..models.len() {
        for order in 1..=3 {
            let id = WARMUP_ID + warmup.len();
            warmup.push(request(0.0, id, &models, m, vec![HOT_QT[3] / q], order));
        }
    }

    let shapes: Vec<Vec<(usize, Vec<f64>, usize)>> = (0..HOT_DECK)
        .map(|_| {
            (0..2 + fixed.below(5))
                .map(|_| {
                    let mut qts: Vec<f64> = Vec::new();
                    let want = 1 + fixed.below(4);
                    while qts.len() < want {
                        let qt = HOT_QT[fixed.below(HOT_QT.len())];
                        if !qts.contains(&qt) {
                            qts.push(qt);
                        }
                    }
                    qts.sort_by(f64::total_cmp);
                    let times = qts.iter().map(|qt| qt / q).collect();
                    (fixed.below(models.len()), times, 1 + fixed.below(3))
                })
                .collect()
        })
        .collect();
    let solve_deck = shapes
        .iter()
        .flatten()
        .map(|(m, times, order)| Request {
            due: 0.0,
            model: *m,
            times: times.clone(),
            order: *order,
            line: String::new(),
        })
        .collect();
    let mut rng = Rng::new(seed, 2);
    let dues = arrivals(HOT_REFRESH_RATE, seconds, HOT_DECK, &mut rng);
    let mut requests = Vec::new();
    for (due, shape) in dues.iter().zip(deck(HOT_DECK, dues.len(), &mut rng)) {
        for (m, times, order) in &shapes[shape] {
            let id = requests.len();
            requests.push(request(*due, id, &models, *m, times.clone(), *order));
        }
    }
    Ok(ServeWorkload {
        models,
        warmup,
        requests,
        probe: (0, HOT_QT[3] / q),
        solve_deck,
    })
}

/// `serve-churn`: independent what-if clients sending one inline model
/// each. The population is 16 chains × 3 initial distributions = 48
/// models, far more than the 8-entry cache holds: 12 multiplexer chains
/// of 100–243 states with σ² ∈ {0, 1, 10} (π all-off, steady-state or
/// seeded) plus 4 seeded unstructured sparse chains of 100–175 states
/// (three seeded π each) that take the CSR path. The sizes keep request
/// lines at 3–14 KB: `parse_request` cost grows with the square of the
/// line length. The population is fixed (its seeded parts come from a
/// fixed stream). Each (model, order 1–3) pair is one deck entry with
/// its own stratum of qt, log-uniform over [100, 800] (four
/// qt-buckets); the seed shuffles the deck, draws the arrival times and
/// the qt of each request, the k-th use of an entry in the k-th of as
/// many equal slices of its stratum as the run has decks.
pub fn serve_churn(seed: u64, seconds: f64) -> ServeWorkload {
    const STRATA: usize = 8;
    let mut rng = Rng::new(0, 3);
    let inline = |model: SecondOrderMrm| ServeModel {
        text: model_text(&model),
        model,
        file: None,
    };
    let mut models = Vec::new();
    for c in 0..12 {
        let variance = [0.0, 1.0, 10.0][c % 3];
        for pi in [Pi::AllOff, Pi::Steady, Pi::Seeded] {
            models.push(inline(multiplexer(99 + 13 * c, variance, pi, &mut rng)));
        }
    }
    for c in 0..4 {
        let chain = SparseChain::new(100 + 25 * c, &mut rng);
        for _ in 0..3 {
            let pi = seeded_pi(chain.n_states(), &mut rng);
            models.push(inline(chain.model(pi)));
        }
    }
    let population = models.len();

    // Fixed warm-up models, appended after the population.
    let mut fixed = Rng::new(0, 4);
    for n_sources in [99, 139, 179, 219] {
        models.push(inline(multiplexer(n_sources, 10.0, Pi::AllOff, &mut fixed)));
    }
    let warmup = (population..models.len())
        .enumerate()
        .map(|(k, m)| {
            let t = 500.0 / q_of(&models[m].model);
            request(0.0, WARMUP_ID + k, &models, m, vec![t], 2)
        })
        .collect();

    // Entry `entry` of the deck: its model and order, and its qt at
    // `within` (0 to 1) of its stratum.
    let entry_query = |entry: usize, within: f64| {
        let (m, order) = (entry / 3, 1 + entry % 3);
        let stratum = (entry % STRATA) as f64;
        let qt = (100f64.ln() + (stratum + within) / STRATA as f64 * 8f64.ln()).exp();
        (m, vec![qt / q_of(&models[m].model)], order)
    };
    let solve_deck = (0..3 * population)
        .map(|entry| {
            let (model, times, order) = entry_query(entry, 0.5);
            Request {
                due: 0.0,
                model,
                times,
                order,
                line: String::new(),
            }
        })
        .collect();
    let mut rng = Rng::new(seed, 3);
    let dues = arrivals(CHURN_RATE, seconds, 3 * population, &mut rng);
    let decks = (dues.len() / (3 * population)) as f64;
    let mut uses = vec![0.0; 3 * population];
    let mut requests = Vec::new();
    for (&due, entry) in dues.iter().zip(deck(3 * population, dues.len(), &mut rng)) {
        let (m, times, order) = entry_query(entry, (uses[entry] + rng.f64()) / decks);
        uses[entry] += 1.0;
        let id = requests.len();
        requests.push(request(due, id, &models, m, times, order));
    }
    let probe = population + 3;
    ServeWorkload {
        probe: (probe, 1000.0 / q_of(&models[probe].model)),
        models,
        warmup,
        requests,
        solve_deck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use somrm_core::model_digest;

    fn round_trips(model: &SecondOrderMrm) {
        let text = model_text(model);
        let parsed = somrm_cli::format::parse_model(&text).expect("writer output parses");
        assert_eq!(model_digest(&parsed.model), model_digest(model));
        assert_eq!(chain_key(&parsed.model), chain_key(model));
    }

    #[test]
    fn model_text_round_trips_to_the_same_digest() {
        let mut rng = Rng::new(7, 0);
        round_trips(
            &OnOffMultiplexer::table2_scaled(2000)
                .model_steady_start()
                .unwrap(),
        );
        for pi in [Pi::AllOff, Pi::Steady, Pi::Seeded] {
            round_trips(&multiplexer(150, 10.0, pi, &mut rng));
        }
        let chain = SparseChain::new(120, &mut rng);
        round_trips(&chain.model(seeded_pi(120, &mut rng)));
    }

    #[test]
    fn paper_model_text_round_trips() {
        let model = multiplexer(200_000, 10.0, Pi::Steady, &mut Rng::new(0, 0));
        round_trips(&model);
    }

    #[test]
    fn chain_key_ignores_only_pi() {
        let mut rng = Rng::new(1, 0);
        let a = multiplexer(120, 1.0, Pi::AllOff, &mut rng);
        let b = multiplexer(120, 1.0, Pi::Steady, &mut rng);
        let c = multiplexer(120, 10.0, Pi::AllOff, &mut rng);
        assert_eq!(chain_key(&a), chain_key(&b));
        assert_ne!(model_digest(&a), model_digest(&b));
        assert_ne!(chain_key(&a), chain_key(&c));
    }

    fn lines(w: &ServeWorkload) -> Vec<(u64, String)> {
        w.requests
            .iter()
            .map(|r| (r.due.to_bits(), r.line.clone()))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir = dir.to_str().unwrap();
        let (a, b, c) = (
            serve_hot(5, 4.0, dir).unwrap(),
            serve_hot(5, 4.0, dir).unwrap(),
            serve_hot(6, 4.0, dir).unwrap(),
        );
        assert!(!a.requests.is_empty());
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        // Set-up work does not depend on the seed.
        let warm = |w: &ServeWorkload| w.warmup.iter().map(|r| r.line.clone()).collect::<Vec<_>>();
        assert_eq!(warm(&a), warm(&c));
        std::fs::remove_dir_all(dir).unwrap();

        let (a, b, c) = (
            serve_churn(5, 4.0),
            serve_churn(5, 4.0),
            serve_churn(6, 4.0),
        );
        assert!(!a.requests.is_empty());
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        assert_eq!(warm(&a), warm(&c));
    }

    #[test]
    fn generated_requests_parse_as_sent() {
        let w = serve_churn(9, 3.0);
        for r in &w.requests {
            let req = somrm_serve::parse_request(&r.line).expect("valid request line");
            assert_eq!(req.times, r.times);
            assert_eq!(req.order, r.order);
            assert_eq!(
                req.model,
                somrm_serve::ModelSpec::Inline(w.models[r.model].text.clone())
            );
        }
    }
}
