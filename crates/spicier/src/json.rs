//! Minimal JSON value model, parser, and writer: the one codec behind
//! every JSON document the workspace reads or writes — the campaign
//! manifest and run report, bench reports, telemetry JSONL, and the
//! campaign-server wire protocol and job journal.
//!
//! The repo keeps serde out of the dependency tree on purpose, so this
//! module implements a small, strict JSON subset: UTF-8 text, `f64`
//! numbers, full string escapes, arrays, and objects with preserved key
//! order. No comments, no trailing commas, no NaN.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` elsewhere.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members
                .iter()
                .rev()
                .find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then [`as_str`](Self::as_str), owned.
    #[must_use]
    pub fn str_field(&self, key: &str) -> Option<String> {
        self.get(key).and_then(Json::as_str).map(str::to_string)
    }

    /// Convenience: `get(key)` then [`as_f64`](Self::as_f64).
    #[must_use]
    pub fn num_field(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Convenience: `get(key)` then [`as_u64`](Self::as_u64).
    #[must_use]
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Appends the members of the object `other` to this object, in
    /// order: how a document splices a shared record (such as a
    /// telemetry summary) beside its own members. A non-object on either
    /// side leaves `self` unchanged.
    pub fn extend(&mut self, other: Json) {
        if let (Json::Obj(members), Json::Obj(more)) = (self, other) {
            members.extend(more);
        }
    }

    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number value; non-finite inputs degrade to `null`, which
    /// keeps telemetry worst-merges (NaN-pessimal) representable.
    #[must_use]
    pub fn num(n: f64) -> Json {
        if n.is_finite() {
            Json::Num(n)
        } else {
            Json::Null
        }
    }

    /// Builds a number value that keeps non-finite inputs distinct: NaN,
    /// +∞ and −∞ become the strings `"NaN"`, `"inf"` and `"-inf"`. Used
    /// for measured values such as worst backward errors, where a
    /// NaN-pessimal worst must not read as a missing one (`null`).
    #[must_use]
    pub fn num_tagged(n: f64) -> Json {
        if n.is_finite() {
            Json::Num(n)
        } else if n.is_nan() {
            Json::str("NaN")
        } else if n > 0.0 {
            Json::str("inf")
        } else {
            Json::str("-inf")
        }
    }

    /// Serializes to compact JSON text (no whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }
}

/// Writes `s` quoted, copying each run of bytes that needs no escape in
/// one piece. Every byte that needs one is ASCII, so a run never splits a
/// character.
fn write_string(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at offset {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one piece: the
        // text is UTF-8 already, and both delimiters are ASCII.
        let rest = &bytes[*pos..];
        let run = rest.iter().position(|&b| b == b'"' || b == b'\\');
        let run = run.unwrap_or(rest.len());
        out.push_str(std::str::from_utf8(&rest[..run]).map_err(|e| e.to_string())?);
        *pos += run;
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        if b == b'"' {
            return Ok(out);
        }
        // `b` is the backslash of an escape.
        let Some(&esc) = bytes.get(*pos) else {
            return Err("unterminated escape".to_string());
        };
        *pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hex = bytes
                    .get(*pos..*pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or("truncated \\u escape")?;
                *pos += 4;
                let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                // Surrogate pairs: decode \uD800-\uDBFF + \uDC00-\uDFFF.
                let c = if (0xd800..0xdc00).contains(&code) {
                    if bytes.get(*pos..*pos + 2) != Some(b"\\u") {
                        return Err("lone high surrogate".to_string());
                    }
                    *pos += 2;
                    let hex2 = bytes
                        .get(*pos..*pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or("truncated surrogate pair")?;
                    *pos += 4;
                    let low = u32::from_str_radix(hex2, 16).map_err(|_| "invalid \\u escape")?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err("invalid low surrogate".to_string());
                    }
                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    code
                };
                out.push(char::from_u32(c).ok_or("invalid codepoint")?);
            }
            _ => return Err(format!("invalid escape \\{}", esc as char)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let doc = Json::obj(vec![
            ("kind", Json::str("campaign")),
            (
                "deck",
                Json::str("divider\nV1 in 0 3.3\nR1 in out 1k\n.end\n"),
            ),
            ("points", Json::Num(24.0)),
            ("detach", Json::Bool(true)),
            ("none", Json::Null),
            (
                "nested",
                Json::obj(vec![(
                    "arr",
                    Json::Arr(vec![Json::Num(1.5), Json::str("x")]),
                )]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc, "{text}");
        assert_eq!(back.str_field("kind").as_deref(), Some("campaign"));
        assert!(back.str_field("deck").unwrap().contains('\n'));
        assert_eq!(back.u64_field("points"), Some(24));
        assert_eq!(back.get("detach").and_then(Json::as_bool), Some(true));
        assert_eq!(
            back.get("nested").and_then(|n| n.get("arr")).unwrap(),
            &Json::Arr(vec![Json::Num(1.5), Json::str("x")])
        );
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let tricky = "quote \" slash \\ newline \n tab \t bell \u{7} ünïcøde 🦀";
        let doc = Json::str(tricky);
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back.as_str(), Some(tricky));
        // Surrogate-pair escapes decode too.
        assert_eq!(
            Json::parse("\"\\ud83e\\udd80\"").unwrap().as_str(),
            Some("🦀")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "tru",
            "\"unterminated",
            "{\"a\":1} extra",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn tagged_numbers_keep_non_finite_values_distinct() {
        assert_eq!(Json::num_tagged(1.5).render(), "1.5");
        assert_eq!(Json::num_tagged(f64::NAN).render(), "\"NaN\"");
        assert_eq!(Json::num_tagged(f64::INFINITY).render(), "\"inf\"");
        assert_eq!(Json::num_tagged(f64::NEG_INFINITY).render(), "\"-inf\"");
    }
}
