//! The plain-text model format.

use somrm_core::impulse::ImpulseMrm;
use somrm_core::model::SecondOrderMrm;
use somrm_ctmc::generator::GeneratorBuilder;
use std::error::Error;
use std::fmt;

/// A parsed model file: the base model plus optional impulses.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedModel {
    /// The rate/variance part.
    pub model: SecondOrderMrm,
    /// Impulse list (possibly empty).
    pub impulses: Vec<(usize, usize, f64)>,
}

impl ParsedModel {
    /// Wraps the parse result into an [`ImpulseMrm`] (works also with
    /// an empty impulse list).
    ///
    /// # Errors
    ///
    /// Propagates model-validation errors.
    pub fn into_impulse_mrm(self) -> Result<ImpulseMrm, somrm_core::error::MrmError> {
        ImpulseMrm::new(self.model, &self.impulses)
    }

    /// `true` if the file declared any impulse.
    pub fn has_impulses(&self) -> bool {
        !self.impulses.is_empty()
    }
}

/// A parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending input (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "model file: {}", self.message)
        } else {
            write!(f, "model file line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Largest `states` count [`parse_model`] accepts: 2²⁵, about 16× the
/// 2,000,001 states of the largest model the solver has been run on.
/// The parser allocates per-state vectors from this count before any
/// other line is checked, and a failed allocation aborts the process
/// (no error can be returned), so an absurd count is refused first.
pub const MAX_STATES: usize = 1 << 25;

/// Parses the model format described in the crate docs.
///
/// # Errors
///
/// Returns a [`ParseError`] pinpointing the offending line for syntax
/// problems, missing/duplicate declarations, a state count above
/// [`MAX_STATES`], out-of-range states, invalid numbers, or a model that
/// fails semantic validation.
pub fn parse_model(text: &str) -> Result<ParsedModel, ParseError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\n# two-state on/off\nstates 2\nrate 0 1 3.0\nrate 1 0 4.0 # off\nreward 0 0.0 0.0\nreward 1 1.0 0.5\ninit 0 0.25\ninit 1 0.75\n";

    #[test]
    fn parses_a_complete_model() {
        let p = parse_model(GOOD).unwrap();
        assert_eq!(p.model.n_states(), 2);
        assert_eq!(p.model.rates(), &[0.0, 1.0]);
        assert_eq!(p.model.variances(), &[0.0, 0.5]);
        assert_eq!(p.model.initial(), &[0.25, 0.75]);
        assert!(!p.has_impulses());
    }

    #[test]
    fn default_init_is_state_zero() {
        let p = parse_model("states 2\nrate 0 1 1.0\nrate 1 0 1.0\n").unwrap();
        assert_eq!(p.model.initial(), &[1.0, 0.0]);
    }

    #[test]
    fn impulses_parse_and_validate() {
        let text = "states 2\nrate 0 1 1.0\nrate 1 0 1.0\nimpulse 0 1 2.5\n";
        let p = parse_model(text).unwrap();
        assert!(p.has_impulses());
        let m = p.into_impulse_mrm().unwrap();
        assert_eq!(m.impulse(0, 1), 2.5);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_model("states 2\nrate 0 5 1.0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));

        let e = parse_model("states 2\nrate 0 1 oops\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("oops"));

        let e = parse_model("rate 0 1 1.0\n").unwrap_err();
        assert!(e.message.contains("states"));

        let e = parse_model("states 2\nbogus 1 2 3\n").unwrap_err();
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn duplicate_declarations_rejected() {
        assert!(parse_model("states 2\nstates 3\n").is_err());
        let text = "states 2\nrate 0 1 1.0\nrate 1 0 1.0\nreward 0 1.0 0.0\nreward 0 2.0 0.0\n";
        let e = parse_model(text).unwrap_err();
        assert!(e.message.contains("duplicate reward"));
    }

    #[test]
    fn semantic_validation_happens_at_parse_time() {
        // Initial distribution not summing to 1.
        let e = parse_model("states 2\nrate 0 1 1.0\nrate 1 0 1.0\ninit 0 0.4\n").unwrap_err();
        assert!(e.message.contains("distribution"));
        // Negative variance.
        let e = parse_model("states 1\nreward 0 1.0 -2.0\n").unwrap_err();
        assert!(e.message.contains("variance"));
        // Impulse on a zero-rate transition.
        let e = parse_model("states 2\nrate 0 1 1.0\nrate 1 0 1.0\nimpulse 1 0 1.0\nimpulse 0 1 0.0\n");
        assert!(e.is_ok());
        let e = parse_model("states 3\nrate 0 1 1.0\nrate 1 2 1.0\nrate 2 0 1.0\nimpulse 0 2 1.0\n")
            .unwrap_err();
        assert!(e.message.contains("rate is zero"));
    }

    #[test]
    fn absurd_state_counts_are_refused_before_allocating() {
        // 10^13 states would ask for 80 TB per state vector: a typed
        // error, not an aborted process.
        let e = parse_model(
            "states 10000000000000
",
        )
        .unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("exceeds the limit"), "{e}");
        let e = parse_model(&format!(
            "states {}
",
            MAX_STATES + 1
        ))
        .unwrap_err();
        assert!(e.message.contains("limit"));
        // The largest model the solver has been run on still parses.
        const { assert!(MAX_STATES > 2_000_001) };
    }

    #[test]
    fn token_count_enforced() {
        let e = parse_model("states 2 extra\n").unwrap_err();
        assert!(e.message.contains("tokens"));
        let e = parse_model("states 2\nrate 0 1\n").unwrap_err();
        assert!(e.message.contains("missing rate"));
    }
}
