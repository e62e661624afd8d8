//! The earlier line-by-line `parse_model` (a `Vec` of `&str` tokens per
//! line, every line stored before any is checked), kept verbatim as the
//! reference the one-pass parser is tested against: every input must
//! give the same model bits, or the same error on the same line, except
//! that this parser reports impulse errors on line 0.

use super::{err, ParseError, ParsedModel, MAX_STATES};
use somrm_core::impulse::ImpulseMrm;
use somrm_core::model::SecondOrderMrm;
use somrm_ctmc::generator::GeneratorBuilder;

pub(super) fn parse_model(text: &str) -> Result<ParsedModel, ParseError> {
    let mut n_states: Option<usize> = None;
    let mut rates: Vec<(usize, usize, f64, usize)> = Vec::new();
    let mut rewards: Vec<(usize, f64, f64, usize)> = Vec::new();
    let mut impulses: Vec<(usize, usize, f64)> = Vec::new();
    let mut init: Vec<(usize, f64, usize)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "states" => {
                if n_states.is_some() {
                    return Err(err(lineno, "duplicate 'states' declaration"));
                }
                let n = parse_token::<usize>(&tokens, 1, lineno, "state count")?;
                if n == 0 {
                    return Err(err(lineno, "state count must be positive"));
                }
                if n > MAX_STATES {
                    return Err(err(
                        lineno,
                        format!("state count {n} exceeds the limit of {MAX_STATES}"),
                    ));
                }
                expect_len(&tokens, 2, lineno)?;
                n_states = Some(n);
            }
            "rate" => {
                let i = parse_token::<usize>(&tokens, 1, lineno, "source state")?;
                let j = parse_token::<usize>(&tokens, 2, lineno, "target state")?;
                let r = parse_token::<f64>(&tokens, 3, lineno, "rate")?;
                expect_len(&tokens, 4, lineno)?;
                rates.push((i, j, r, lineno));
            }
            "reward" => {
                let i = parse_token::<usize>(&tokens, 1, lineno, "state")?;
                let r = parse_token::<f64>(&tokens, 2, lineno, "drift")?;
                let s = parse_token::<f64>(&tokens, 3, lineno, "variance")?;
                expect_len(&tokens, 4, lineno)?;
                rewards.push((i, r, s, lineno));
            }
            "impulse" => {
                let i = parse_token::<usize>(&tokens, 1, lineno, "source state")?;
                let j = parse_token::<usize>(&tokens, 2, lineno, "target state")?;
                let c = parse_token::<f64>(&tokens, 3, lineno, "impulse")?;
                expect_len(&tokens, 4, lineno)?;
                impulses.push((i, j, c));
            }
            "init" => {
                let i = parse_token::<usize>(&tokens, 1, lineno, "state")?;
                let p = parse_token::<f64>(&tokens, 2, lineno, "probability")?;
                expect_len(&tokens, 3, lineno)?;
                init.push((i, p, lineno));
            }
            other => {
                return Err(err(
                    lineno,
                    format!(
                        "unknown directive '{other}' (expected states/rate/reward/impulse/init)"
                    ),
                ));
            }
        }
    }

    let n = n_states.ok_or_else(|| err(0, "missing 'states' declaration"))?;
    let check_state = |s: usize, lineno: usize| -> Result<(), ParseError> {
        if s >= n {
            Err(err(lineno, format!("state {s} out of range (states {n})")))
        } else {
            Ok(())
        }
    };

    let mut builder = GeneratorBuilder::new(n);
    for &(i, j, r, lineno) in &rates {
        check_state(i, lineno)?;
        check_state(j, lineno)?;
        builder
            .rate(i, j, r)
            .map_err(|e| err(lineno, e.to_string()))?;
    }
    let generator = builder.build().map_err(|e| err(0, e.to_string()))?;

    let mut drift = vec![0.0; n];
    let mut variance = vec![0.0; n];
    let mut seen = vec![false; n];
    for &(i, r, s, lineno) in &rewards {
        check_state(i, lineno)?;
        if seen[i] {
            return Err(err(lineno, format!("duplicate reward for state {i}")));
        }
        seen[i] = true;
        drift[i] = r;
        variance[i] = s;
    }

    let mut pi = vec![0.0; n];
    if init.is_empty() {
        pi[0] = 1.0;
    } else {
        for &(i, p, lineno) in &init {
            check_state(i, lineno)?;
            pi[i] += p;
        }
    }

    for &(i, j, _) in &impulses {
        check_state(i, 0)?;
        check_state(j, 0)?;
    }

    let model = SecondOrderMrm::new(generator, drift, variance, pi)
        .map_err(|e| err(0, e.to_string()))?;
    // Validate impulses eagerly so errors surface at parse time.
    ImpulseMrm::new(model.clone(), &impulses).map_err(|e| err(0, e.to_string()))?;
    Ok(ParsedModel { model, impulses })
}

fn parse_token<T: std::str::FromStr>(
    tokens: &[&str],
    pos: usize,
    lineno: usize,
    what: &str,
) -> Result<T, ParseError> {
    tokens
        .get(pos)
        .ok_or_else(|| err(lineno, format!("missing {what}")))?
        .parse()
        .map_err(|_| err(lineno, format!("cannot parse {what} '{}'", tokens[pos])))
}

fn expect_len(tokens: &[&str], len: usize, lineno: usize) -> Result<(), ParseError> {
    if tokens.len() != len {
        return Err(err(
            lineno,
            format!("expected {} tokens, got {}", len, tokens.len()),
        ));
    }
    Ok(())
}
