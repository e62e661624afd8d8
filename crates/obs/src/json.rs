//! Minimal JSON support: a writer for [`crate::SolveReport`] and a
//! strict recursive-descent parser used by tests (and by the CI report
//! check) to verify that emitted reports are well-formed.
//!
//! Hand-rolled because the workspace builds offline with no registry
//! access; the subset implemented is exactly what the reports need.

use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number. Non-finite values (which JSON cannot
/// represent) are written as `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is the shortest representation that round-trips, and
        // always contains a '.' or an exponent — valid JSON either way.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// A human-readable message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, String> {
    parse_document(text, None)
}

/// [`parse`], also returning the source text of each top-level object
/// member's value exactly as written (surrounding whitespace excluded),
/// in member order — empty unless the document is an object. The serve
/// protocol echoes a request's `id` from this text, so a number keeps
/// its digits.
///
/// # Errors
///
/// As [`parse`].
pub fn parse_with_member_text(text: &str) -> Result<(Value, Vec<&str>), String> {
    let mut spans = Vec::new();
    let value = parse_document(text, Some(&mut spans))?;
    Ok((value, spans.into_iter().map(|(a, b)| &text[a..b]).collect()))
}

fn parse_document(text: &str, spans: Option<&mut Vec<(usize, usize)>>) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = match spans {
        Some(spans) if bytes.get(pos) == Some(&b'{') => parse_object(bytes, &mut pos, Some(spans))?,
        _ => parse_value(bytes, &mut pos)?,
    };
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, None),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
        *pos += 1;
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(&b'e') | Some(&b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(&b'+') | Some(&b'-')) {
            *pos += 1;
        }
        while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run of plain bytes up to the next quote, backslash or
        // control byte in one step, so a long string costs one pass. The
        // input came from a `&str` and a run ends at an ASCII byte, so
        // every run is whole UTF-8.
        let start = *pos;
        while matches!(bytes.get(*pos), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20) {
            *pos += 1;
        }
        if *pos > start {
            let run = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
            out.push_str(run);
        }
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate directly followed by a low one
                        // encodes one scalar above U+FFFF; a lone half of
                        // a pair maps to the replacement character.
                        let mut c = char::from_u32(code);
                        if (0xd800..0xdc00).contains(&code)
                            && bytes.get(*pos + 1..*pos + 3) == Some(&b"\\u"[..])
                        {
                            if let Ok(low @ 0xdc00..=0xdfff) = parse_hex4(bytes, *pos + 3) {
                                c = char::from_u32(
                                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00),
                                );
                                *pos += 6;
                            }
                        }
                        out.push(c.unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => return Err(format!("raw control character at byte {}", *pos)),
        }
    }
}

/// The four hex digits of a `\u` escape starting at byte `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
    u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

/// An object; `spans` (top level only) collects each member value's
/// byte range.
fn parse_object(
    bytes: &[u8],
    pos: &mut usize,
    mut spans: Option<&mut Vec<(usize, usize)>>,
) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        skip_ws(bytes, pos);
        let start = *pos;
        let value = parse_value(bytes, pos)?;
        if let Some(spans) = spans.as_deref_mut() {
            spans.push((start, *pos));
        }
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escaping_round_trips() {
        let mut out = String::new();
        write_string(&mut out, "a\"b\\c\nd\te\u{1}f");
        let parsed = parse(&out).unwrap();
        assert_eq!(parsed.as_str(), Some("a\"b\\c\nd\te\u{1}f"));
    }

    #[test]
    fn f64_formatting_round_trips() {
        for v in [0.0, 1.5, -2.25e-9, 1e300, 41588.0, f64::MIN_POSITIVE] {
            let mut out = String::new();
            write_f64(&mut out, v);
            assert_eq!(parse(&out).unwrap().as_f64(), Some(v), "value {v}");
        }
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5e-3, "x"], "b": {"c": null, "d": true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(2.5e-3));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "nul", "1 2", "\"abc", "{\"a\":1}x"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let v = parse(r#""a\ud83d\ude00b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{1f600}b"));
        // Lone halves (and a high half followed by a non-low escape)
        // become U+FFFD; the escape after them still decodes.
        let v = parse(r#""\ud83dx\ude00\ud83d\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd}x\u{fffd}\u{fffd}A"));
        assert!(parse(r#""\ud83d\uzzzz""#).is_err());
        assert!(parse(r#""\ud8""#).is_err());
    }

    #[test]
    fn long_string_member_parses_in_linear_time() {
        // 1 MiB of mixed ASCII, multi-byte UTF-8 and escapes: a scan that
        // re-validated the rest of the line per character would take
        // minutes on this input.
        let chunk = "plain text é ✓ \\n \\\" \\u00e9 ";
        let body = chunk.repeat((1 << 20) / chunk.len() + 1);
        let doc = format!("{{\"model\": \"{body}\"}}");
        let start = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        let s = v.get("model").unwrap().as_str().unwrap();
        assert!(
            s.starts_with("plain text é ✓ \n \" é "),
            "{:?}",
            s.get(..32)
        );
        assert!(elapsed.as_secs_f64() < 0.5, "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn member_text_is_each_value_as_written() {
        let doc = r#" {"id" : 7 , "a":[1, 2],"b":"x\"y","n":1e400}
"#;
        let (v, text) = parse_with_member_text(doc).unwrap();
        assert_eq!(text, ["7", "[1, 2]", r#""x\"y""#, "1e400"]);
        assert_eq!(v.get("id"), Some(&Value::Num(7.0)));
        let (v, text) = parse_with_member_text("[1]").unwrap();
        assert_eq!((v, text.len()), (Value::Arr(vec![Value::Num(1.0)]), 0));
        assert!(parse_with_member_text(r#"{"id": 1} x"#).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse(" { } ").unwrap(), Value::Obj(vec![]));
    }
}
