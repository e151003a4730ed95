//! A tiny deterministic JSON value type shared by everything in the workspace that
//! persists or parses machine-readable documents: the committed auto-tuning report
//! (`BENCH_autotune.json`, written by `lift-bench` and parsed back by
//! `tests/soundness_differential.rs`), the derivation-service cache store (`store.jsonl` +
//! `index.json`) and the result files of the stand-alone `benchmark/` package.
//!
//! The writer is deterministic — insertion-ordered object keys and fixed float formatting
//! ([`fmt_f64`]) make output byte-identical for equal inputs, which both the autotune
//! determinism test and the cache store's atomic-rewrite format rely on. No external
//! crates: the build environment is offline.
//!
//! This module lives in `lift-telemetry` (the only zero-dependency crate of the
//! workspace) so that `lift-service` and `lift-bench` can share one implementation
//! without a dependency cycle.

use std::fmt::Write as _;

/// A JSON value with insertion-ordered object keys.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number (always rendered through [`fmt_f64`]).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order so output is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: a number value.
    pub fn num(v: impl Into<f64>) -> Json {
        Json::Num(v.into())
    }

    /// Convenience: an optional number (`None` → `null`).
    pub fn opt_num(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::Num)
    }

    /// Convenience: an array of numbers.
    pub fn nums<T: Into<f64> + Copy>(vs: &[T]) -> Json {
        Json::Arr(vs.iter().map(|v| Json::Num((*v).into())).collect())
    }

    /// Looks up `key` in an object (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(vs) => Some(vs),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value on one line with no inter-token whitespace — the JSON-lines form
    /// the derivation-service cache store appends one entry per line of.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => out.push_str(&fmt_f64(*v)),
            Json::Str(s) => write_json_escaped(out, s),
            Json::Arr(vs) => {
                if vs.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_json_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => out.push_str(&fmt_f64(*v)),
            Json::Str(s) => write_json_escaped(out, s),
            Json::Arr(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deterministic float formatting: integers without a fraction, everything else with up to
/// three fractional digits (times and throughputs do not need more).
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        let s = format!("{v:.3}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

pub(crate) fn write_json_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document (the subset the harness emits: standard numbers, strings with the
/// escapes above, arrays, objects, literals).
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut values = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(values));
            }
            loop {
                values.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(values));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("invalid \\u escape at byte {pos}"))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Push the full UTF-8 scalar starting here.
                let s = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {pos}"))?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_harness_shapes() {
        let doc = Json::obj([
            ("name", Json::str("dot product")),
            ("best", Json::opt_num(Some(23243.125))),
            ("missing", Json::opt_num(None)),
            ("sizes", Json::nums(&[2.0, 4.0, 8.0])),
            (
                "nested",
                Json::obj([("ok", Json::Bool(true)), ("n", Json::num(4096))]),
            ),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = doc.render();
        let parsed = parse(&text).expect("parses");
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("dot product")
        );
        assert_eq!(parsed.get("best").and_then(Json::as_f64), Some(23243.125));
        assert_eq!(parsed.get("missing"), Some(&Json::Null));
        assert_eq!(
            parsed
                .get("nested")
                .and_then(|n| n.get("n"))
                .and_then(Json::as_f64),
            Some(4096.0)
        );
        // Rendering is deterministic.
        assert_eq!(text, parse(&text).unwrap().render());
    }

    #[test]
    fn compact_rendering_is_single_line_and_parses_back() {
        let doc = Json::obj([
            ("key", Json::str("ab\ncd")),
            ("values", Json::nums(&[1.0, 2.5])),
            ("nested", Json::obj([("empty", Json::Arr(vec![]))])),
        ]);
        let line = doc.render_compact();
        assert!(!line.contains('\n'), "compact rendering stays on one line");
        assert_eq!(parse(&line).expect("parses"), doc);
        assert_eq!(
            line,
            r#"{"key":"ab\ncd","values":[1,2.5],"nested":{"empty":[]}}"#
        );
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(fmt_f64(4096.0), "4096");
        assert_eq!(fmt_f64(23243.125), "23243.125");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(1.0 / 3.0), "0.333");
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn escapes_are_symmetric() {
        let doc = Json::str("a\"b\\c\nd");
        let parsed = parse(&doc.render()).expect("parses");
        assert_eq!(parsed.as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{}{}").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
