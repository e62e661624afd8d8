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
/// One pass over the text: lines split at `\n` and end at their first
/// `#`, ASCII lines are tokenized in place, and once `states` is known
/// each rate, reward and init line goes straight into the generator
/// builder and the per-state vectors.
///
/// # Errors
///
/// Returns a [`ParseError`] pinpointing the offending line for syntax
/// problems, missing/duplicate declarations, a state count above
/// [`MAX_STATES`], out-of-range states, invalid numbers, an invalid
/// impulse, or a model that fails semantic validation. Every line's
/// syntax is checked before any semantics; then come, in this order,
/// the first bad rate line, the generator (line 0: an exit rate that
/// overflows), the first bad reward line, the first bad init line,
/// the first impulse on an out-of-range state, the model as a whole
/// (line 0: drifts, variances, the initial distribution), and the first
/// impulse the model refuses.
pub fn parse_model(text: &str) -> Result<ParsedModel, ParseError> {
    let mut ingest = Ingest::default();
    let lines = Lines { text, pos: 0 };
    for (idx, tokens) in lines.enumerate() {
        if tokens.len > 0 {
            ingest.line(idx + 1, &tokens)?;
        }
    }
    ingest.finish()
}

/// The longest directive (`rate`, `reward`, `impulse`) has four tokens;
/// a line's further tokens are only counted.
const MAX_TOKENS: usize = 4;

/// The tokens of one line, up to its first `#`: the first
/// [`MAX_TOKENS`] kept, all of them counted.
#[derive(Default)]
struct Tokens<'a> {
    kept: [&'a str; MAX_TOKENS],
    len: usize,
}

/// What a byte is to the line scanner.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    Token,
    /// The ASCII whitespace `char::is_whitespace` accepts, but `\n`:
    /// `\t \x0B \x0C \r` and space (`u8::is_ascii_whitespace` omits
    /// `\x0B`).
    Blank,
    Newline,
    Hash,
    NonAscii,
}

const CLASS: [Class; 256] = {
    let mut class = [Class::Token; 256];
    let mut b = 0x80;
    while b < 256 {
        class[b] = Class::NonAscii;
        b += 1;
    }
    class[b' ' as usize] = Class::Blank;
    class[b'\t' as usize] = Class::Blank;
    class[0x0b] = Class::Blank;
    class[0x0c] = Class::Blank;
    class[b'\r' as usize] = Class::Blank;
    class[b'\n' as usize] = Class::Newline;
    class[b'#' as usize] = Class::Hash;
    class
};

/// The lines of a model text, split at `\n` (as `str::lines` does: a
/// last line needs no line end, and `\r` before it is whitespace) and
/// tokenized in place, each up to its first `#`. A line with a
/// non-ASCII byte before the `#` is tokenized by [`Tokens::unicode`]
/// instead, since Unicode separators such as U+00A0 split tokens too.
struct Lines<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = Tokens<'a>;

    fn next(&mut self) -> Option<Tokens<'a>> {
        let (text, b) = (self.text, self.text.as_bytes());
        let start = self.pos;
        if start >= b.len() {
            return None;
        }
        let mut tokens = Tokens::default();
        let mut k = start;
        loop {
            while k < b.len() && CLASS[usize::from(b[k])] == Class::Blank {
                k += 1;
            }
            match b.get(k).map_or(Class::Newline, |&c| CLASS[usize::from(c)]) {
                Class::Token => {
                    let from = k;
                    while k < b.len() && CLASS[usize::from(b[k])] == Class::Token {
                        k += 1;
                    }
                    tokens.push(&text[from..k]);
                }
                Class::Blank | Class::Newline => {
                    self.pos = k + 1;
                    return Some(tokens);
                }
                class @ (Class::Hash | Class::NonAscii) => {
                    let end = b[k..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(b.len(), |p| k + p);
                    self.pos = end + 1;
                    if class == Class::NonAscii {
                        tokens = Tokens::unicode(&text[start..end]);
                    }
                    return Some(tokens);
                }
            }
        }
    }
}

impl<'a> Tokens<'a> {
    fn push(&mut self, token: &'a str) {
        if self.len < MAX_TOKENS {
            self.kept[self.len] = token;
        }
        self.len += 1;
    }

    /// Splits `line` as `str::split_whitespace` does, after cutting it
    /// at its first `#`.
    fn unicode(line: &'a str) -> Self {
        let mut tokens = Tokens::default();
        let body = line.split('#').next().unwrap_or("");
        for token in body.split_whitespace() {
            tokens.push(token);
        }
        tokens
    }

    fn token(&self, pos: usize, lineno: usize, what: &str) -> Result<&'a str, ParseError> {
        if pos < self.len {
            Ok(self.kept[pos])
        } else {
            Err(err(lineno, format!("missing {what}")))
        }
    }

    /// Token `pos` as a state index or count.
    fn index(&self, pos: usize, lineno: usize, what: &str) -> Result<usize, ParseError> {
        let token = self.token(pos, lineno, what)?;
        let parsed = match digits(token, 19) {
            Some(v) => usize::try_from(v).ok(),
            None => token.parse().ok(),
        };
        parsed.ok_or_else(|| cannot_parse(lineno, what, token))
    }

    /// Token `pos` as a number.
    fn number(&self, pos: usize, lineno: usize, what: &str) -> Result<f64, ParseError> {
        let token = self.token(pos, lineno, what)?;
        let parsed = match digits(token, 15) {
            Some(v) => Ok(v as f64),
            None => token.parse(),
        };
        parsed.map_err(|_| cannot_parse(lineno, what, token))
    }

    fn expect_len(&self, len: usize, lineno: usize) -> Result<(), ParseError> {
        if self.len != len {
            return Err(err(
                lineno,
                format!("expected {} tokens, got {}", len, self.len),
            ));
        }
        Ok(())
    }
}

/// The value of a token of 1 to `max` ASCII digits (`max` ≤ 19, so no
/// overflow), or `None` for any other token. Below 10¹⁵ every value is
/// an exact `f64`, so `digits(t, 15)? as f64` is `t.parse::<f64>()`.
fn digits(token: &str, max: usize) -> Option<u64> {
    let b = token.as_bytes();
    if b.is_empty() || b.len() > max {
        return None;
    }
    let mut v = 0u64;
    for &c in b {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v * 10 + u64::from(d);
    }
    Some(v)
}

fn cannot_parse(lineno: usize, what: &str, token: &str) -> ParseError {
    err(lineno, format!("cannot parse {what} '{token}'"))
}

fn check_state(s: usize, n: usize, lineno: usize) -> Result<(), ParseError> {
    if s >= n {
        Err(err(lineno, format!("state {s} out of range (states {n})")))
    } else {
        Ok(())
    }
}

/// A syntactically valid rate, reward or init line.
enum Item {
    Rate(usize, usize, f64),
    Reward(usize, f64, f64),
    Init(usize, f64),
}

/// What [`parse_model`] has read so far.
#[derive(Default)]
struct Ingest {
    /// Set by the `states` line.
    model: Option<Assembly>,
    /// Rate, reward and init lines before `states`, with their line
    /// numbers; replayed in order when it comes.
    early: Vec<(usize, Item)>,
    impulses: Vec<(usize, usize, f64)>,
    impulse_lines: Vec<usize>,
}

/// The model under construction once `states` is known. A line's
/// semantic error is kept rather than returned, since a later line's
/// syntax error comes first; only the first of each kind is kept.
struct Assembly {
    n: usize,
    generator: GeneratorBuilder,
    drift: Vec<f64>,
    variance: Vec<f64>,
    has_reward: Vec<bool>,
    pi: Vec<f64>,
    any_init: bool,
    rate_error: Option<ParseError>,
    reward_error: Option<ParseError>,
    init_error: Option<ParseError>,
}

impl Ingest {
    fn line(&mut self, lineno: usize, t: &Tokens<'_>) -> Result<(), ParseError> {
        let item = match t.kept[0] {
            "states" => {
                if self.model.is_some() {
                    return Err(err(lineno, "duplicate 'states' declaration"));
                }
                let n = t.index(1, lineno, "state count")?;
                if n == 0 {
                    return Err(err(lineno, "state count must be positive"));
                }
                if n > MAX_STATES {
                    return Err(err(
                        lineno,
                        format!("state count {n} exceeds the limit of {MAX_STATES}"),
                    ));
                }
                t.expect_len(2, lineno)?;
                let mut model = Assembly::new(n);
                for (lineno, item) in std::mem::take(&mut self.early) {
                    model.apply(lineno, item);
                }
                self.model = Some(model);
                return Ok(());
            }
            "rate" => {
                let i = t.index(1, lineno, "source state")?;
                let j = t.index(2, lineno, "target state")?;
                let r = t.number(3, lineno, "rate")?;
                t.expect_len(4, lineno)?;
                Item::Rate(i, j, r)
            }
            "reward" => {
                let i = t.index(1, lineno, "state")?;
                let r = t.number(2, lineno, "drift")?;
                let s = t.number(3, lineno, "variance")?;
                t.expect_len(4, lineno)?;
                Item::Reward(i, r, s)
            }
            "impulse" => {
                let i = t.index(1, lineno, "source state")?;
                let j = t.index(2, lineno, "target state")?;
                let c = t.number(3, lineno, "impulse")?;
                t.expect_len(4, lineno)?;
                self.impulses.push((i, j, c));
                self.impulse_lines.push(lineno);
                return Ok(());
            }
            "init" => {
                let i = t.index(1, lineno, "state")?;
                let p = t.number(2, lineno, "probability")?;
                t.expect_len(3, lineno)?;
                Item::Init(i, p)
            }
            other => {
                return Err(err(
                    lineno,
                    format!(
                        "unknown directive '{other}' (expected states/rate/reward/impulse/init)"
                    ),
                ));
            }
        };
        match &mut self.model {
            Some(model) => model.apply(lineno, item),
            None => self.early.push((lineno, item)),
        }
        Ok(())
    }

    fn finish(self) -> Result<ParsedModel, ParseError> {
        let a = self
            .model
            .ok_or_else(|| err(0, "missing 'states' declaration"))?;
        if let Some(e) = a.rate_error {
            return Err(e);
        }
        let generator = a.generator.build().map_err(|e| err(0, e.to_string()))?;
        if let Some(e) = a.reward_error.or(a.init_error) {
            return Err(e);
        }
        let mut pi = a.pi;
        if !a.any_init {
            pi[0] = 1.0;
        }
        let lines = || self.impulses.iter().zip(&self.impulse_lines);
        for (&(i, j, _), &lineno) in lines() {
            check_state(i, a.n, lineno)?;
            check_state(j, a.n, lineno)?;
        }
        let model = SecondOrderMrm::new(generator, a.drift, a.variance, pi)
            .map_err(|e| err(0, e.to_string()))?;
        for (&(i, j, c), &lineno) in lines() {
            ImpulseMrm::check_impulse(&model, i, j, c).map_err(|e| err(lineno, e.to_string()))?;
        }
        Ok(ParsedModel {
            model,
            impulses: self.impulses,
        })
    }
}

impl Assembly {
    fn new(n: usize) -> Self {
        Assembly {
            n,
            generator: GeneratorBuilder::new(n),
            drift: vec![0.0; n],
            variance: vec![0.0; n],
            has_reward: vec![false; n],
            pi: vec![0.0; n],
            any_init: false,
            rate_error: None,
            reward_error: None,
            init_error: None,
        }
    }

    fn apply(&mut self, lineno: usize, item: Item) {
        match item {
            Item::Rate(i, j, r) if self.rate_error.is_none() => {
                self.rate_error = self.rate(lineno, i, j, r).err();
            }
            Item::Reward(i, r, s) if self.reward_error.is_none() => {
                self.reward_error = self.reward(lineno, i, r, s).err();
            }
            Item::Init(i, p) => {
                self.any_init = true;
                if self.init_error.is_none() {
                    self.init_error = check_state(i, self.n, lineno).err();
                    if self.init_error.is_none() {
                        self.pi[i] += p;
                    }
                }
            }
            _ => {}
        }
    }

    fn rate(&mut self, lineno: usize, i: usize, j: usize, r: f64) -> Result<(), ParseError> {
        check_state(i, self.n, lineno)?;
        check_state(j, self.n, lineno)?;
        self.generator
            .rate(i, j, r)
            .map_err(|e| err(lineno, e.to_string()))?;
        Ok(())
    }

    fn reward(&mut self, lineno: usize, i: usize, r: f64, s: f64) -> Result<(), ParseError> {
        check_state(i, self.n, lineno)?;
        if self.has_reward[i] {
            return Err(err(lineno, format!("duplicate reward for state {i}")));
        }
        self.has_reward[i] = true;
        self.drift[i] = r;
        self.variance[i] = s;
        Ok(())
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn impulse_errors_carry_their_line() {
        let e = parse_model("states 2\nrate 0 1 1.0\nrate 1 0 1.0\nimpulse 0 5 1\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(
            e.to_string(),
            "model file line 4: state 5 out of range (states 2)"
        );
        let text = "states 3\nrate 0 1 1.0\nrate 1 2 1.0\nrate 2 0 1.0\n# a comment\nimpulse 0 1 2\nimpulse 0 2 1.0\n";
        let e = parse_model(text).unwrap_err();
        assert_eq!(e.line, 7);
        assert!(
            e.to_string()
                .starts_with("model file line 7: invalid parameter impulse:"),
            "{e}"
        );
        assert!(e.message.contains("rate is zero"), "{e}");
    }

    #[test]
    fn an_overflowing_exit_rate_is_refused() {
        let text = "states 3\nrate 0 1 1e308\nrate 0 2 1e308\nrate 1 0 1\nrate 2 0 1\nreward 0 1 0\nreward 1 2 1\n";
        let e = parse_model(text).unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("not finite"), "{e}");
    }

    #[test]
    fn separators_line_ends_and_comments_do_not_change_the_model() {
        let plain = "states 3\nrate 0 1 2\nrate 1 2 0.5\nrate 2 0 1e1\nreward 1 -1.5 0.25\ninit 0 0.5\ninit 2 0.5\n";
        let variants = [
            "# header\r\nstates\t3\r\nrate 0 1 2 # fast\r\nrate\t1\t2\t0.5\r\n\r\nrate 2 0 1e1\r\nreward 1 -1.5 0.25\r\ninit 0 0.5\r\ninit 2 0.5",
            "states\u{a0}3\nrate\u{a0}0 1\u{a0}2\nrate 1\u{3000}2 0.5\nrate\x0b2\x0c0 1e1\nreward 1 -1.5 0.25 #é\ninit +0 0.50\ninit 002 .5\n",
        ];
        let base = parse_model(plain).unwrap();
        for text in variants {
            assert_eq!(parse_model(text).unwrap(), base, "{text:?}");
        }
    }

    #[test]
    fn indices_are_range_checked_before_narrowing() {
        // 2³² would alias state 0 if narrowed to 32 bits first.
        let e = parse_model("states 2\nrate 4294967296 0 1\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            "model file line 2: state 4294967296 out of range (states 2)"
        );
        let e = parse_model("states 2\nrate 0 18446744073709551616 1\n").unwrap_err();
        assert_eq!(
            e.message,
            "cannot parse target state '18446744073709551616'"
        );
    }

    /// Whether two parses built the same model, bit for bit: generator
    /// CSR and uniformization rate, drifts, variances, π and impulses.
    fn same_bits(a: &ParsedModel, b: &ParsedModel) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (ma, mb) = (&a.model, &b.model);
        let ((pa, ca, va), (pb, cb, vb)) = (
            ma.generator().as_csr().csr_parts(),
            mb.generator().as_csr().csr_parts(),
        );
        let imp = |m: &ParsedModel| {
            m.impulses
                .iter()
                .map(|&(i, j, c)| (i, j, c.to_bits()))
                .collect::<Vec<_>>()
        };
        (pa, ca) == (pb, cb)
            && bits(va) == bits(vb)
            && ma.generator().uniformization_rate().to_bits()
                == mb.generator().uniformization_rate().to_bits()
            && bits(ma.rates()) == bits(mb.rates())
            && bits(ma.variances()) == bits(mb.variances())
            && bits(ma.initial()) == bits(mb.initial())
            && imp(a) == imp(b)
    }

    /// SplitMix64: the fuzz inputs' random stream.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
        fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
            options[self.below(options.len())]
        }
        fn digit_string(&mut self, len: usize) -> String {
            (0..len)
                .map(|_| char::from(b'0' + self.below(10) as u8))
                .collect()
        }
    }

    /// A state index token: mostly `v` as written, sometimes with a sign
    /// or leading zeros, out of range, overflowing or malformed.
    fn index_token(s: &mut Stream, v: usize, n: usize) -> String {
        match s.below(20) {
            0 => format!("0{v}"),
            1 => format!("+{v}"),
            2 => format!("{}", n + s.below(3)),
            3 => s
                .pick(&[
                    "4294967296",
                    "18446744073709551616",
                    "-0",
                    "-1",
                    "1e1",
                    "x",
                    "00",
                ])
                .to_string(),
            _ => v.to_string(),
        }
    }

    /// A number token: mostly a plain value, else one of the forms that
    /// take the `str::parse` path or fail.
    fn number_token(s: &mut Stream, plain: &str) -> String {
        match s.below(24) {
            0 => {
                let len = 16 + s.below(10);
                s.digit_string(len)
            }
            1 => {
                let len = 1 + s.below(15);
                s.digit_string(len)
            }
            2 => format!("00{plain}"),
            3 => s
                .pick(&[
                    "inf", "-inf", "NaN", "1e400", "-0", ".5", "5.", "1E5", "+2", "1e-3", "abc",
                    "1e308", "-1.5", "0x10", "1_0",
                ])
                .to_string(),
            _ => plain.to_string(),
        }
    }

    /// A random model file around an `n`-state ring: well-formed most of
    /// the time, with every separator, line end, comment, number form
    /// and error the format allows, and lines in any order. Returns the
    /// text and its impulse lines.
    fn fuzz_text(s: &mut Stream) -> (String, Vec<usize>) {
        let n = 1 + s.below(5);
        let mut lines: Vec<Vec<String>> = Vec::new();
        let mut kinds: Vec<&str> = Vec::new();
        let mut push = |kinds: &mut Vec<&str>, kind, tokens: Vec<String>| {
            kinds.push(kind);
            lines.push(tokens);
        };
        for i in 0..n {
            let j = (i + 1) % n;
            if i != j {
                let v = format!("{}", 1 + s.below(9));
                let t = vec![
                    "rate".into(),
                    index_token(s, i, n),
                    index_token(s, j, n),
                    number_token(s, &v),
                ];
                push(&mut kinds, "rate", t);
                if s.chance(15) {
                    // A duplicate rate on the same pair, or a self-loop.
                    let j2 = if s.chance(50) { j } else { i };
                    let t = vec![
                        "rate".into(),
                        i.to_string(),
                        j2.to_string(),
                        number_token(s, "0.5"),
                    ];
                    push(&mut kinds, "rate", t);
                }
            }
            if s.chance(70) {
                let drift = s.pick(&["0", "1", "-2.5", "3e2", "0.125"]).to_string();
                let var = s.pick(&["0", "1", "10", "0.5"]).to_string();
                let t = vec![
                    "reward".into(),
                    index_token(s, i, n),
                    number_token(s, &drift),
                    number_token(s, &var),
                ];
                push(&mut kinds, "reward", t);
            }
            if s.chance(10) {
                let k = s.below(n + 1);
                let t = vec![
                    "impulse".into(),
                    index_token(s, i, n),
                    index_token(s, k, n),
                    number_token(s, "1.5"),
                ];
                push(&mut kinds, "impulse", t);
            }
        }
        match s.below(3) {
            0 => {}
            1 => {
                let t = vec![
                    "init".into(),
                    index_token(s, n - 1, n),
                    number_token(s, "1"),
                ];
                push(&mut kinds, "init", t);
            }
            _ => {
                for k in [0, n - 1] {
                    let t = vec!["init".into(), index_token(s, k, n), number_token(s, "0.5")];
                    push(&mut kinds, "init", t);
                }
            }
        }
        if s.chance(5) {
            push(&mut kinds, "junk", vec!["bogus".into(), "1".into()]);
        }
        // `states` first, later, twice or missing.
        let states = vec!["states".into(), number_token(s, &n.to_string())];
        let at = if s.chance(80) {
            0
        } else {
            s.below(lines.len() + 1)
        };
        if !s.chance(3) {
            lines.insert(at, states.clone());
            kinds.insert(at, "states");
        }
        if s.chance(3) {
            lines.push(states);
            kinds.push("states");
        }
        // A missing or extra token here and there.
        for t in &mut lines {
            if s.chance(3) {
                t.pop();
            } else if s.chance(3) {
                t.push("7".into());
            }
        }

        // Space and the other whitespace `char::is_whitespace` accepts,
        // plus U+001F, which it does not.
        let seps = [
            " ", " ", " ", "  ", "\t", "\x0b", "\x0c", "\r", " \t", "\u{a0}", "\u{3000}", "\u{85}",
            "\u{2028}", "\x1f",
        ];
        let comments = ["", "", "", "#", " # note", "#é ü", " #\u{3000}x", "\t#"];
        let mut text = String::new();
        let mut impulse_lines = Vec::new();
        let mut lineno = 0;
        for (tokens, kind) in lines.iter().zip(&kinds) {
            if s.chance(10) {
                lineno += 1;
                text.push_str(s.pick(&["", "# comment", "   ", "\t#x"]));
                text.push_str(s.pick(&["\n", "\r\n"]));
            }
            lineno += 1;
            if *kind == "impulse" {
                impulse_lines.push(lineno);
            }
            if s.chance(10) {
                text.push_str(s.pick(&seps));
            }
            for (k, token) in tokens.iter().enumerate() {
                if k > 0 {
                    text.push_str(s.pick(&seps));
                }
                text.push_str(token);
            }
            text.push_str(s.pick(&comments));
            text.push_str(s.pick(&["\n", "\n", "\r\n", " \n"]));
        }
        if s.chance(20) {
            text.pop();
        }
        (text, impulse_lines)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        #[test]
        fn one_pass_parser_matches_the_reference(seed in 0u64..u64::MAX) {
            let mut s = Stream(seed);
            let (text, impulse_lines) = fuzz_text(&mut s);
            match (parse_model(&text), reference::parse_model(&text)) {
                (Ok(a), Ok(b)) => prop_assert!(same_bits(&a, &b), "{text:?}"),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(&a.message, &b.message, "{:?}", text);
                    // The one change: impulse errors carry their line.
                    let moved = b.line == 0 && impulse_lines.contains(&a.line);
                    prop_assert!(a.line == b.line || moved, "{a} vs {b} on {text:?}");
                }
                (a, b) => prop_assert!(false, "{a:?} vs {b:?} on {text:?}"),
            }
        }

        #[test]
        fn digit_path_equals_str_parse(len in 1usize..=19, seed in 0u64..u64::MAX) {
            let token = Stream(seed).digit_string(len);
            let v = digits(&token, 19).unwrap();
            prop_assert_eq!(v, token.parse::<u64>().unwrap());
            if len <= 15 {
                prop_assert_eq!(
                    (digits(&token, 15).unwrap() as f64).to_bits(),
                    token.parse::<f64>().unwrap().to_bits()
                );
            } else {
                prop_assert!(digits(&token, 15).is_none());
            }
        }
    }

    #[test]
    fn digit_path_edges() {
        for token in [
            "0",
            "000000000000000",
            "999999999999999",
            "100000000000000",
            "9007199254740993",
        ] {
            let expect = token.parse::<f64>().unwrap().to_bits();
            if let Some(v) = digits(token, 15) {
                assert_eq!((v as f64).to_bits(), expect, "{token}");
            }
        }
        assert_eq!(
            digits("9999999999999999999", 19),
            Some(9_999_999_999_999_999_999)
        );
        for token in ["", "+1", "-1", "1.0", "1e3", "١"] {
            assert_eq!(digits(token, 19), None, "{token:?}");
        }
    }
}
