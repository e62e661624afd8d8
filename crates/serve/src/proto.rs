//! The JSON-lines serve protocol.
//!
//! One request per line on stdin, one response per line on stdout, in
//! request order within a batch. A request:
//!
//! ```json
//! {"id": 1, "model": "states 2\nrate 0 1 1.0\n...", "t": [0.1, 0.5], "order": 2}
//! ```
//!
//! - `id` (optional, any JSON value) — echoed back verbatim, as the
//!   first member of the response: the text the request wrote, so
//!   `7`, `12345678901234567891` and `1e400` come back as written;
//! - `model` (inline model text) **or** `model_file` (path), exactly one.
//!   The server reads a `model_file` itself, for every request, and
//!   refuses one longer than [`MAX_LINE_BYTES`], the limit an inline
//!   model already has, or one that is a FIFO or a socket
//!   ([`read_model_file`]);
//! - `t` — a number or a non-empty array of at most [`MAX_TIMES`]
//!   finite, non-negative numbers;
//! - `order` (optional, default 2) — highest moment order requested.
//!
//! A success response:
//!
//! ```json
//! {"id":1,"ok":true,"plan":"miss","coalesced":1,
//!  "results":[{"t":0.1,"moments":[1.0,...],"error_bounds":[0.0,...]}]}
//! ```
//!
//! - `plan` — `"miss"` when answering this request built a plan, else
//!   `"hit"` (its chain's plan was cached, whether or not its model
//!   text was remembered). The `serve.plan.hit`/`miss` counters and the
//!   stats sideband's `cache.hits`/`misses` count the same per-request
//!   events.
//! - `coalesced` — how many of this batch's successful requests answered
//!   so far were answered from the same weighted series (the same chain
//!   and π), this one included: each response is written as soon as it
//!   is answered, so it cannot count the requests after it. It describes
//!   shared work only: every answer is computed for its own request, so
//!   `results` do not depend on batch-mates.
//! - `error_bounds` — per order, the Theorem-4 bound on what truncating
//!   the Poisson series (both edges) can change in that moment. It does
//!   not cover the floating-point rounding of the recursion and its
//!   sums, which grows with `G` and can be far larger: at qt = 4.5·10⁷,
//!   order 16 (`G` ≈ 4.5·10⁷), the order-0 moment came back as
//!   1.0000000160866536 with a bound of 1.6·10⁻⁹⁷.
//!
//! Any problem — a line that is not UTF-8 or is longer than
//! [`MAX_LINE_BYTES`], unparsable JSON, missing fields, a solver error —
//! yields a structured error on the same line slot and never kills the
//! server, which goes on with the next line:
//!
//! ```json
//! {"id":null,"ok":false,"error":"..."}
//! ```

use somrm_core::MomentSolution;
use somrm_obs::json::{self, Value};
use std::io::Read;

/// Where the model of a request comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// The model file content inline in the request.
    Inline(String),
    /// A path to a model file, which the server reads for every request
    /// ([`read_model_file`], capped at [`MAX_LINE_BYTES`]).
    File(String),
}

impl ModelSpec {
    /// The model text: inline as it is, a file as [`read_model_file`]
    /// reads it.
    ///
    /// # Errors
    ///
    /// [`read_model_file`]'s message.
    pub fn into_text(self) -> Result<String, String> {
        match self {
            ModelSpec::Inline(text) => Ok(text),
            ModelSpec::File(path) => read_model_file(&path),
        }
    }
}

/// Reads the model file at `path` (relative to the working directory):
/// the reader of every `model_file`. A file longer than
/// [`MAX_LINE_BYTES`], the limit an inline model has, is refused after
/// holding at most that many bytes plus one, so `/dev/zero` or a huge
/// file costs a bounded read. A FIFO or a socket is refused before it
/// is opened: opening a FIFO waits for a writer, which would stall the
/// serve loop and every request after this one.
///
/// # Errors
///
/// `cannot read <path>: …` when the file cannot be opened or read, is a
/// FIFO or a socket, is longer than the limit, or is not UTF-8.
pub fn read_model_file(path: &str) -> Result<String, String> {
    let cannot = |e: &dyn std::fmt::Display| format!("cannot read {path}: {e}");
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileTypeExt;
        let kind = std::fs::metadata(path).map_err(|e| cannot(&e))?.file_type();
        if kind.is_fifo() || kind.is_socket() {
            return Err(cannot(&"a FIFO or a socket is not a model file"));
        }
    }
    let file = std::fs::File::open(path).map_err(|e| cannot(&e))?;
    // A regular file's length sizes the buffer once; a pipe or a device
    // reports 0 and grows it.
    let len = file.metadata().map_or(0, |m| m.len());
    let bytes = read_capped(file, len, MAX_LINE_BYTES).map_err(|e| cannot(&e))?;
    if bytes.len() > MAX_LINE_BYTES {
        return Err(cannot(&format_args!(
            "the file is longer than the limit of {MAX_LINE_BYTES} bytes"
        )));
    }
    String::from_utf8(bytes).map_err(|_| cannot(&"stream did not contain valid UTF-8"))
}

/// Reads `input` to its end, or its first `limit` + 1 bytes when it is
/// longer, into a buffer that starts at `len_hint` + 1 bytes and doubles
/// but never holds more than `limit` + 1.
fn read_capped(input: impl Read, len_hint: u64, limit: usize) -> std::io::Result<Vec<u8>> {
    let max = limit.saturating_add(1);
    let mut input = input.take(max as u64);
    let mut bytes = Vec::new();
    let mut grow = usize::try_from(len_hint).map_or(max, |n| n.saturating_add(1).min(max));
    loop {
        bytes
            .try_reserve_exact(grow)
            .map_err(|_| std::io::Error::from(std::io::ErrorKind::OutOfMemory))?;
        let room = bytes.capacity() - bytes.len();
        // Short of its room, the read met the end of the input.
        if (&mut input).take(room as u64).read_to_end(&mut bytes)? < room || bytes.len() >= max {
            return Ok(bytes);
        }
        grow = bytes.len().min(max - bytes.len());
    }
}

/// A request's `id` member as its line wrote it: JSON text the parser
/// has validated, echoed back unchanged (`null` when there is none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestId(pub(crate) String);

impl RequestId {
    /// The id of a request that carried none.
    pub fn null() -> RequestId {
        RequestId("null".to_string())
    }

    /// The id's JSON text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// A parsed, validated request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed back unchanged in the response.
    pub id: RequestId,
    /// The model to solve.
    pub model: ModelSpec,
    /// Requested time points, in request order.
    pub times: Vec<f64>,
    /// Highest moment order requested.
    pub order: usize,
}

/// Orders above this are rejected at parse time: the recursion holds
/// `(order + 1)` state-sized blocks, so an absurd order is a typo (or a
/// memory-exhaustion attempt), not a workload.
pub const MAX_ORDER: usize = 16;

/// `t` arrays longer than this are rejected at parse time: each horizon
/// holds its own Poisson window and solution, so a few megabytes of
/// request text could otherwise claim gigabytes.
pub const MAX_TIMES: usize = 1024;

/// Request lines longer than this many bytes (the line end not counted)
/// are answered with an error, and the reader skips the rest of such a
/// line without holding it: a line that never ends cannot make the
/// server buffer the whole input. A `model_file` longer than this is
/// refused likewise ([`read_model_file`]).
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// The `id` member of the object `v` parsed from a line whose member
/// value texts are `text` (see [`json::parse_with_member_text`]).
pub(crate) fn id_text(v: &Value, text: &[&str]) -> RequestId {
    match v {
        Value::Obj(members) => members
            .iter()
            .position(|(k, _)| k == "id")
            .map_or_else(RequestId::null, |i| RequestId(text[i].to_string())),
        _ => RequestId::null(),
    }
}

/// The `id` member of `line`, `null` when the line is not a JSON object
/// or has none — for answering a line that fails [`parse_request`].
pub fn request_id(line: &str) -> RequestId {
    json::parse_with_member_text(line)
        .map_or_else(|_| RequestId::null(), |(v, text)| id_text(&v, &text))
}

/// Parses and validates one request line.
///
/// # Errors
///
/// A human-readable message describing the first problem; the caller
/// wraps it in an error response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let (v, text) = json::parse_with_member_text(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if !matches!(v, Value::Obj(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let id = id_text(&v, &text);

    let model = match (v.get("model"), v.get("model_file")) {
        (Some(_), Some(_)) => {
            return Err("give either \"model\" or \"model_file\", not both".to_string())
        }
        (Some(m), None) => ModelSpec::Inline(
            m.as_str()
                .ok_or("\"model\" must be a string of model-file text")?
                .to_string(),
        ),
        (None, Some(f)) => ModelSpec::File(
            f.as_str()
                .ok_or("\"model_file\" must be a string path")?
                .to_string(),
        ),
        (None, None) => return Err("request needs \"model\" or \"model_file\"".to_string()),
    };

    let times = match v.get("t") {
        Some(Value::Num(t)) => vec![*t],
        Some(Value::Arr(items)) if items.len() > MAX_TIMES => {
            return Err(format!(
                "\"t\" holds {} horizons, more than the limit of {MAX_TIMES}",
                items.len()
            ))
        }
        Some(Value::Arr(items)) => items
            .iter()
            .map(|x| x.as_f64().ok_or("\"t\" array must contain only numbers"))
            .collect::<Result<Vec<f64>, _>>()?,
        Some(_) => return Err("\"t\" must be a number or an array of numbers".to_string()),
        None => return Err("request needs \"t\"".to_string()),
    };
    if times.is_empty() {
        return Err("\"t\" must not be empty".to_string());
    }
    for &t in &times {
        if !(t >= 0.0) || !t.is_finite() {
            return Err(format!("time must be finite and non-negative, got {t}"));
        }
    }
    // Canonicalize -0.0 to +0.0: the two zeros are one time point, and
    // the response echoes it as `0.0`.
    let times: Vec<f64> = times.into_iter().map(|t| t + 0.0).collect();

    let order = match v.get("order") {
        None => 2,
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_ORDER as f64 => {
            *n as usize
        }
        Some(Value::Num(n)) => {
            return Err(format!(
                "\"order\" must be an integer in 0..={MAX_ORDER}, got {n}"
            ))
        }
        Some(_) => return Err("\"order\" must be a number".to_string()),
    };

    Ok(Request {
        id,
        model,
        times,
        order,
    })
}

/// Renders a success response line (no trailing newline).
///
/// `solutions` must be in the same order as the request's `times`; each
/// is truncated to the request's `order`. `plan_hit` and `coalesced`
/// fill the `plan` and `coalesced` fields (module docs).
pub fn render_ok(
    id: &RequestId,
    plan_hit: bool,
    coalesced: usize,
    order: usize,
    solutions: &[&MomentSolution],
) -> String {
    let mut out = String::new();
    out.push_str("{\"id\":");
    out.push_str(id.as_str());
    out.push_str(",\"ok\":true,\"plan\":");
    out.push_str(if plan_hit { "\"hit\"" } else { "\"miss\"" });
    out.push_str(",\"coalesced\":");
    out.push_str(&coalesced.to_string());
    out.push_str(",\"results\":[");
    for (i, sol) in solutions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"t\":");
        json::write_f64(&mut out, sol.t);
        out.push_str(",\"moments\":[");
        for (j, &m) in sol.weighted.iter().take(order + 1).enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_f64(&mut out, m);
        }
        out.push_str("],\"error_bounds\":[");
        for (j, &b) in sol.error_bounds.iter().take(order + 1).enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_f64(&mut out, b);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Renders an error response line (no trailing newline).
pub fn render_err(id: &RequestId, error: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"id\":");
    out.push_str(id.as_str());
    out.push_str(",\"ok\":false,\"error\":");
    json::write_string(&mut out, error);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r = parse_request(
            r#"{"id": "q1", "model": "states 1\nreward 0 1.0 0.5\n", "t": [0.5, 0.1], "order": 3}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_str(), r#""q1""#);
        assert_eq!(r.model, ModelSpec::Inline("states 1\nreward 0 1.0 0.5\n".to_string()));
        assert_eq!(r.times, vec![0.5, 0.1]);
        assert_eq!(r.order, 3);
    }

    #[test]
    fn scalar_t_and_defaults() {
        let r = parse_request(r#"{"model_file": "models/x.somrm", "t": 0.25}"#).unwrap();
        assert_eq!(r.id, RequestId::null());
        assert_eq!(r.model, ModelSpec::File("models/x.somrm".to_string()));
        assert_eq!(r.times, vec![0.25]);
        assert_eq!(r.order, 2, "order defaults to 2");
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"t": 1}"#, "needs \"model\""),
            (r#"{"model": "x", "model_file": "y", "t": 1}"#, "not both"),
            (r#"{"model": "x"}"#, "needs \"t\""),
            (r#"{"model": "x", "t": []}"#, "must not be empty"),
            (r#"{"model": "x", "t": -1}"#, "non-negative"),
            (r#"{"model": "x", "t": "soon"}"#, "number"),
            (r#"{"model": "x", "t": 1, "order": 2.5}"#, "integer"),
            (r#"{"model": "x", "t": 1, "order": 99}"#, "integer"),
            (&too_many_times(), "limit of 1024"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    /// A request whose `t` array holds one horizon past [`MAX_TIMES`].
    fn too_many_times() -> String {
        let times = vec!["0.5"; MAX_TIMES + 1].join(",");
        format!(r#"{{"id": 3, "model": "x", "t": [{times}]}}"#)
    }

    #[test]
    fn t_arrays_up_to_the_limit_parse() {
        let times = vec!["0.5"; MAX_TIMES].join(",");
        let r = parse_request(&format!(r#"{{"model": "x", "t": [{times}]}}"#)).unwrap();
        assert_eq!(r.times.len(), MAX_TIMES);
        assert_eq!(
            request_id(&too_many_times()).as_str(),
            "3",
            "a refused line keeps its id"
        );
    }

    #[test]
    fn escaped_ids_echo_back_as_the_same_value() {
        for (raw, want) in [
            (r#""\ud83d\ude00""#, "\u{1f600}"),
            (r#""qé\"\n""#, "q\u{e9}\"\n"),
            (r#""\udead""#, "\u{fffd}"),
        ] {
            let line = format!(r#"{{"id":{raw},"model":"states 1\n","t":1}}"#);
            let r = parse_request(&line).unwrap();
            assert_eq!(r.id.as_str(), raw);
            let ok = render_ok(&r.id, false, 1, 2, &[]);
            let v = somrm_obs::json::parse(&ok).unwrap();
            assert_eq!(
                v.get("id"),
                Some(&Value::Str(want.to_string())),
                "{raw} -> {ok}"
            );
        }
    }

    #[test]
    fn ids_come_back_as_written_first_in_every_response() {
        for (raw, what) in [
            ("7", "an integer"),
            ("12345678901234567891", "an integer past 2^64"),
            ("1e400", "a number past f64"),
            ("-0.50", "a number with a trailing zero"),
            (r#""q1""#, "a string"),
            ("null", "null"),
            (r#"[1, {"a": 2}]"#, "a container"),
        ] {
            let line = format!(r#"{{"model": "states 1\n", "id": {raw}, "t": 1}}"#);
            let r = parse_request(&line).unwrap();
            assert_eq!(r.id.as_str(), raw, "{what}");
            let head = format!(r#"{{"id":{raw},"#);
            let ok = render_ok(&r.id, true, 1, 2, &[]);
            let err = render_err(&r.id, "x");
            for out in [&ok, &err] {
                assert!(out.starts_with(&head), "{what}: {out}");
                assert!(somrm_obs::json::parse(out).is_ok(), "{what}: {out}");
            }
        }
        let absent = parse_request(r#"{"model": "states 1\n", "t": 1}"#).unwrap();
        assert!(render_ok(&absent.id, true, 1, 2, &[]).starts_with(r#"{"id":null,"#));
        assert_eq!(request_id("not json"), RequestId::null());
        assert_eq!(
            request_id(r#"{"id": 12345678901234567891, "t": []}"#).as_str(),
            "12345678901234567891"
        );
    }

    #[test]
    fn responses_are_valid_json() {
        let err = render_err(&RequestId("7".to_string()), "bad \"thing\"\nline two");
        let v = somrm_obs::json::parse(&err).unwrap();
        assert_eq!(v.get("id").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("line two"));
    }

    #[test]
    fn the_capped_reader_never_holds_more_than_the_limit_plus_one() {
        for hint in [0, 3, 10, 11, 1 << 40] {
            let endless = read_capped(std::io::repeat(b'x'), hint, 10).unwrap();
            assert_eq!(endless.len(), 11, "hint {hint}");
            assert!(endless.capacity() <= 11, "hint {hint}: {}", endless.capacity());
            assert_eq!(read_capped(&b"abc"[..], hint, 10).unwrap(), b"abc");
            assert_eq!(read_capped(&[b'y'; 10][..], hint, 10).unwrap(), [b'y'; 10]);
            assert!(read_capped(&b""[..], hint, 10).unwrap().is_empty());
        }
    }

    #[test]
    fn model_files_past_the_line_limit_or_not_utf8_are_refused() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("somrm-proto-{}-long.somrm", std::process::id()));
        // Sparse: one byte past the limit, none of it on disk.
        std::fs::File::create(&path)
            .unwrap()
            .set_len(MAX_LINE_BYTES as u64 + 1)
            .unwrap();
        let long = read_model_file(path.to_str().unwrap());
        std::fs::write(&path, b"states 1\n\xff\n").unwrap();
        let not_utf8 = read_model_file(path.to_str().unwrap());
        std::fs::write(&path, b"states 1\n").unwrap();
        let fine = read_model_file(path.to_str().unwrap());
        std::fs::remove_file(&path).ok();
        let head = format!("cannot read {}: ", path.display());
        let long = long.unwrap_err();
        assert!(long.starts_with(&head), "{long}");
        assert!(long.ends_with("longer than the limit of 67108864 bytes"), "{long}");
        let not_utf8 = not_utf8.unwrap_err();
        assert!(not_utf8.starts_with(&head) && not_utf8.contains("UTF-8"), "{not_utf8}");
        assert_eq!(fine.unwrap(), "states 1\n");
        let missing = ModelSpec::File("/nonexistent/m.somrm".to_string()).into_text();
        assert!(missing.unwrap_err().starts_with("cannot read /nonexistent/m.somrm: "));
        let inline = ModelSpec::Inline("states 1\n".to_string()).into_text();
        assert_eq!(inline.unwrap(), "states 1\n");
    }

    #[cfg(unix)]
    #[test]
    fn fifos_and_sockets_are_refused_without_blocking() {
        let dir = std::env::temp_dir();
        let fifo = dir.join(format!("somrm-proto-{}-fifo", std::process::id()));
        let socket = dir.join(format!("somrm-proto-{}-socket", std::process::id()));
        for p in [&fifo, &socket] {
            std::fs::remove_file(p).ok();
        }
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(made.expect("mkfifo runs").success());
        let listener = std::os::unix::net::UnixListener::bind(&socket).unwrap();
        // Each read runs on its own thread, so a reader that blocks in
        // `open` fails the test instead of hanging it.
        let reads = [&fifo, &socket].map(|p| {
            let path = p.to_str().unwrap().to_string();
            let (tx, rx) = std::sync::mpsc::channel();
            let reader = std::thread::spawn(move || tx.send(read_model_file(&path)));
            let read = rx.recv_timeout(std::time::Duration::from_secs(5));
            if read.is_ok() {
                reader.join().unwrap().ok();
            }
            (p.display().to_string(), read)
        });
        drop(listener);
        for p in [&fifo, &socket] {
            std::fs::remove_file(p).ok();
        }
        for (path, read) in reads {
            let err = read
                .unwrap_or_else(|_| panic!("reading {path} blocked"))
                .unwrap_err();
            assert!(err.starts_with(&format!("cannot read {path}: ")), "{err}");
        }
        // A character device is still read, to the cap.
        assert_eq!(read_model_file("/dev/null").unwrap(), "");
    }
}
