//! A minimal in-tree JSON encoder and parser.
//!
//! The telemetry stream is JSONL: one self-contained JSON object per line.
//! The workspace is dependency-free by policy, so this module implements
//! the small subset of JSON the campaign needs — objects with ordered
//! keys, strings, integers, floats, booleans, nulls and arrays — plus a
//! recursive-descent parser ([`parse_json`]) that reads back the
//! journal, the verdict store and every wire line, and that the tests
//! use to assert every emitted line is well-formed.

use std::fmt::Write as _;

/// An owned JSON value. Object keys keep insertion order so emitted lines
/// are byte-stable across runs — a requirement for the determinism tests.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (covers all counters the campaign emits).
    Int(i64),
    /// An unsigned integer (solver statistics are `u64`).
    UInt(u64),
    /// A finite float; non-finite values render as `null`.
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object, ready for [`JsonValue::field`] chaining.
    pub fn obj() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// Appends a field (builder style). Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> JsonValue {
        match &mut self {
            JsonValue::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// The value of `key`, if `self` is an object containing it. Keys
    /// keep insertion order; the first match wins.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(u) => Some(u),
            JsonValue::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            JsonValue::Int(i) => Some(i),
            JsonValue::UInt(u) => i64::try_from(u).ok(),
            _ => None,
        }
    }

    /// The boolean, if `self` is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an `f64` (integers are widened), if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Float(f) => Some(f),
            JsonValue::Int(i) => Some(i as f64),
            JsonValue::UInt(u) => Some(u as f64),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}
impl From<i64> for JsonValue {
    fn from(i: i64) -> Self {
        JsonValue::Int(i)
    }
}
impl From<u32> for JsonValue {
    fn from(u: u32) -> Self {
        JsonValue::UInt(u64::from(u))
    }
}
impl From<u64> for JsonValue {
    fn from(u: u64) -> Self {
        JsonValue::UInt(u)
    }
}
impl From<usize> for JsonValue {
    fn from(u: usize) -> Self {
        JsonValue::UInt(u as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(f: f64) -> Self {
        JsonValue::Float(f)
    }
}
impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(o: Option<T>) -> Self {
        match o {
            Some(v) => v.into(),
            None => JsonValue::Null,
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return false,
                            }
                        }
                    }
                    _ => return false,
                }
            }
            0x00..=0x1f => return false, // raw control char
            _ => *pos += 1,
        }
    }
    false // unterminated
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match b.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        _ => return false,
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(b.get(*pos), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    true
}

/// Parses `s` as exactly one JSON value, or `None` if it is malformed.
/// The inverse of [`JsonValue::render`] up to number representation:
/// integers without `.`/`e` parse as [`JsonValue::Int`] (or
/// [`JsonValue::UInt`] when they exceed `i64::MAX`), everything else as
/// [`JsonValue::Float`].
pub fn parse_json(s: &str) -> Option<JsonValue> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    let v = p_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos == b.len() {
        Some(v)
    } else {
        None
    }
}

fn p_value(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
    match b.get(*pos)? {
        b'{' => p_object(b, pos),
        b'[' => p_array(b, pos),
        b'"' => p_string(b, pos).map(JsonValue::Str),
        b't' => parse_lit(b, pos, b"true").then_some(JsonValue::Bool(true)),
        b'f' => parse_lit(b, pos, b"false").then_some(JsonValue::Bool(false)),
        b'n' => parse_lit(b, pos, b"null").then_some(JsonValue::Null),
        b'-' | b'0'..=b'9' => p_number(b, pos),
        _ => None,
    }
}

fn p_object(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(JsonValue::Object(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = p_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        skip_ws(b, pos);
        let value = p_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Some(JsonValue::Object(fields));
            }
            _ => return None,
        }
    }
}

fn p_array(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(JsonValue::Array(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(p_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Some(JsonValue::Array(items));
            }
            _ => return None,
        }
    }
}

fn p_string(b: &[u8], pos: &mut usize) -> Option<String> {
    let start = *pos;
    if !parse_string(b, pos) {
        return None;
    }
    // The scanned span (quotes included) is UTF-8: it came from a &str.
    let span = std::str::from_utf8(&b[start + 1..*pos - 1]).ok()?;
    let mut out = String::with_capacity(span.len());
    let mut chars = span.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hi = hex4(&mut chars)?;
                let cp = if (0xd800..0xdc00).contains(&hi) {
                    // High surrogate: must be followed by \uDC00..DFFF.
                    if chars.next() != Some('\\') || chars.next() != Some('u') {
                        return None;
                    }
                    let lo = hex4(&mut chars)?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return None;
                    }
                    0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                } else {
                    hi
                };
                out.push(char::from_u32(cp)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    let mut v = 0u32;
    for _ in 0..4 {
        v = v * 16 + chars.next()?.to_digit(16)?;
    }
    Some(v)
}

fn p_number(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
    let start = *pos;
    if !parse_number(b, pos) {
        return None;
    }
    let text = std::str::from_utf8(&b[start..*pos]).ok()?;
    if text.contains(['.', 'e', 'E']) || text == "-0" {
        // `-0` must stay a float: as an integer it would re-render as
        // `0` and break render → parse → render byte-stability.
        return text.parse::<f64>().ok().map(JsonValue::Float);
    }
    if let Ok(i) = text.parse::<i64>() {
        return Some(JsonValue::Int(i));
    }
    // Positive integers above i64::MAX (e.g. u64 solver statistics).
    if let Ok(u) = text.parse::<u64>() {
        return Some(JsonValue::UInt(u));
    }
    // Integers wider than u64 (e.g. a large float rendered without a
    // fractional part): fall back to the closest float, as every other
    // JSON parser does, rather than reject a well-formed number.
    text.parse::<f64>().ok().map(JsonValue::Float)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ordered_object() {
        let v = JsonValue::obj()
            .field("type", "job_start")
            .field("attempt", 1u32)
            .field("bug", Option::<&str>::None)
            .field("ok", true);
        assert_eq!(
            v.render(),
            r#"{"type":"job_start","attempt":1,"bug":null,"ok":true}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.render(), r#""a\"b\\c\nd\te\u0001""#);
        assert!(parse_json(&v.render()).is_some());
    }

    #[test]
    fn every_rendered_value_parses() {
        let v = JsonValue::obj()
            .field("s", "héllo ✓")
            .field("n", -42i64)
            .field("u", u64::MAX)
            .field("f", 1.5f64)
            .field(
                "a",
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(false)]),
            )
            .field("o", JsonValue::obj().field("k", 0u32));
        assert!(parse_json(&v.render()).is_some());
    }

    #[test]
    fn parser_accepts_canonical_forms() {
        for ok in [
            "null",
            "true",
            "0",
            "-1",
            "1.25e-3",
            r#""""#,
            r#""\u00e9""#,
            "[]",
            "[1,2,3]",
            "{}",
            r#"{"a":[{"b":null}]}"#,
            "  { \"x\" : 1 }  ",
        ] {
            assert!(parse_json(ok).is_some(), "should accept: {ok}");
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\u12g4\"",
            "{} {}",
            "\u{1}",
        ] {
            assert!(parse_json(bad).is_none(), "should reject: {bad}");
        }
    }

    #[test]
    fn nonfinite_floats_render_as_null() {
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parser_round_trips_rendered_values() {
        let v = JsonValue::obj()
            .field("s", "a\"b\\c\nd\te\u{1} héllo ✓")
            .field("n", -42i64)
            .field("u", u64::MAX)
            .field("f", 1.5f64)
            .field(
                "a",
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(false)]),
            )
            .field("o", JsonValue::obj().field("k", 0u32));
        let line = v.render();
        let parsed = parse_json(&line).expect("rendered JSON must parse");
        assert_eq!(parsed.render(), line, "render→parse→render must be stable");
        assert_eq!(
            parsed.get("s").and_then(JsonValue::as_str),
            Some("a\"b\\c\nd\te\u{1} héllo ✓")
        );
        assert_eq!(parsed.get("n").and_then(JsonValue::as_i64), Some(-42));
        assert_eq!(parsed.get("u").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert_eq!(parsed.get("f").and_then(JsonValue::as_f64), Some(1.5));
        assert!(parsed.get("missing").is_none());
    }

    #[test]
    fn parser_decodes_escapes_and_surrogate_pairs() {
        let v = parse_json(r#""é 😀 \b\f\/""#).unwrap();
        assert_eq!(v.as_str(), Some("é 😀 \u{8}\u{c}/"));
        // Unpaired or malformed surrogates are rejected, not replaced.
        assert!(parse_json(r#""\ud83d""#).is_none());
        assert!(parse_json(r#""\ud83dA""#).is_none());
        assert!(parse_json(r#""\udc00""#).is_none());
    }

    #[test]
    fn parser_distinguishes_number_shapes() {
        assert_eq!(parse_json("7"), Some(JsonValue::Int(7)));
        assert_eq!(parse_json("-7"), Some(JsonValue::Int(-7)));
        assert_eq!(
            parse_json("18446744073709551615"),
            Some(JsonValue::UInt(u64::MAX))
        );
        assert_eq!(parse_json("1.25e-3"), Some(JsonValue::Float(1.25e-3)));
        assert_eq!(parse_json("1e2"), Some(JsonValue::Float(100.0)));
        // Integers wider than u64 degrade to the closest float instead of
        // being rejected.
        assert_eq!(
            parse_json("99999999999999999999999999"),
            Some(JsonValue::Float(1e26))
        );
        assert_eq!(parse_json("-0"), Some(JsonValue::Float(-0.0)));
    }
}
