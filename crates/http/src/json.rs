//! A small hand-rolled JSON value type with a parser and serializer.
//!
//! The build environment has no registry access, so the gateway cannot
//! pull in `serde`; this module implements exactly the JSON subset the
//! wire protocol needs — all of RFC 8259 minus non-finite numbers —
//! with full string escaping in both directions (including `\uXXXX`
//! and surrogate pairs). Object keys keep insertion order, so responses
//! serialize deterministically.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

/// Nesting depth guard: deeper documents are rejected rather than
/// allowed to overflow the parser's stack.
const MAX_DEPTH: usize = 64;

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            src: text.as_bytes(),
            pos: 0,
        };
        p.ws();
        let value = p.value(0)?;
        p.ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if this is a
    /// non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact string.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialize into an existing buffer (appending, without clearing
    /// it) — for callers serializing many values that want one
    /// reusable allocation instead of a fresh `String` per value.
    pub fn dump_into(&self, out: &mut String) {
        self.write(out);
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_escaped(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.dump())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// Build an object from (key, value) pairs — the idiom for response
/// bodies: `obj([("name", "x".into()), ("version", 2u64.into())])`.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Append `n` exactly as a [`Json::Num`] serializes (integers without a
/// fraction) — for writers that stream a document without a tree.
pub(crate) fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/inf; never produced by parse
    } else if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

/// Append `s` as a quoted, escaped JSON string, exactly as a
/// [`Json::Str`] serializes. Runs of bytes that need no escape are
/// copied whole; only `"`, `\\` and control characters are rewritten
/// (every byte of a multi-byte UTF-8 sequence is ≥ 0x80, so scanning
/// bytes never splits a character).
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        clean = i + 1;
        if escape.is_empty() {
            out.push_str(&format!("\\u{b:04x}"));
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn ws(&mut self) {
        while matches!(self.src.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.src.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.ws();
        if self.src.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            if self.src.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.ws();
            if self.src.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.ws();
            match self.src.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.ws();
        if self.src.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value(depth + 1)?);
            self.ws();
            match self.src.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let slice = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let code = u16::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.src.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let simple = |b: u8| match b {
                        b'"' => Some('"'),
                        b'\\' => Some('\\'),
                        b'/' => Some('/'),
                        b'b' => Some('\u{08}'),
                        b'f' => Some('\u{0C}'),
                        b'n' => Some('\n'),
                        b'r' => Some('\r'),
                        b't' => Some('\t'),
                        _ => None,
                    };
                    match self.src.get(self.pos) {
                        Some(&b) if simple(b).is_some() => {
                            out.push(simple(b).expect("checked"));
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.src.get(self.pos) != Some(&b'\\')
                                    || self.src.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(combined).ok_or_else(|| self.err("bad codepoint"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                char::from_u32(u32::from(hi))
                                    .ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, escape or
                    // control byte. Those are ASCII, and every byte of a
                    // multi-byte UTF-8 sequence is ≥ 0x80, so the run ends
                    // on a character boundary of the (already valid)
                    // source text.
                    let start = self.pos;
                    self.pos += self.src[start..]
                        .iter()
                        .take_while(|&&b| b >= 0x20 && b != b'"' && b != b'\\')
                        .count();
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.src.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.src.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.src.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            while matches!(self.src.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.src.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.src.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.src.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars_and_structures() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.25",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.dump(), text, "round trip of {text}");
        }
    }

    #[test]
    fn escapes_both_ways() {
        let original = "quote \" slash \\ newline \n tab \t nul \u{01} uni \u{263A}";
        let dumped = Json::Str(original.to_string()).dump();
        assert_eq!(Json::parse(&dumped).unwrap().as_str().unwrap(), original);
        // Parses the standard escapes, \uXXXX and surrogate pairs.
        let v = Json::parse(r#""a\u0041 \ud83d\ude00 \/ \b\f""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aA \u{1F600} / \u{08}\u{0C}");
    }

    #[test]
    fn run_copying_escaper_matches_per_character_escaping() {
        // The per-character reference the run-copying escaper replaced.
        fn reference(s: &str) -> String {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{08}' => out.push_str("\\b"),
                    '\u{0C}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let mut all: String = (0u8..0x80).map(char::from).collect();
        all.push_str("Zürich €5 \u{1F600}\"\\ end");
        for s in [
            all.as_str(),
            "",
            "plain",
            "\"",
            "\u{7f}\u{80}é\n",
            "ends with \\",
        ] {
            let mut out = String::new();
            write_escaped(s, &mut out);
            assert_eq!(out, reference(s), "escaping {s:?}");
        }
    }

    #[test]
    fn non_ascii_strings_decode_in_linear_time() {
        // 1 MiB of 2-, 3- and 4-byte characters with escapes between
        // them. A decoder that re-validates the rest of the input at
        // every multi-byte character needs minutes for this.
        let unit = "ééééé€€😀\"é\\\n";
        let text = unit.repeat((1 << 20) / unit.len() + 1);
        let encoded = Json::Str(text.clone()).dump();
        let started = std::time::Instant::now();
        let decoded = Json::parse(&encoded).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(decoded.as_str(), Some(text.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(3),
            "decoding {} bytes took {elapsed:?}",
            encoded.len()
        );
        // A raw control byte inside a non-ASCII run is still rejected,
        // at its own offset.
        let err = Json::parse("\"éé\u{1}é\"").unwrap_err();
        assert_eq!(err.at, 5);
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "[1] garbage",
            "{'single':1}",
            "\"\\ud800\"", // unpaired surrogate
            "nan",
            "+1",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} must be rejected");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Json::parse(r#"{"name":"w","version":3,"ok":true,"xs":[1,2]}"#).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("w"));
        assert_eq!(v.get("version").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Json::Num(5.0).dump(), "5");
        assert_eq!(Json::Num(-3.0).dump(), "-3");
        assert_eq!(Json::Num(0.5).dump(), "0.5");
        assert_eq!(Json::from(u64::from(u32::MAX)).dump(), "4294967295");
    }

    #[test]
    fn obj_builder_keeps_order() {
        let v = obj([("b", 1u64.into()), ("a", "x".into())]);
        assert_eq!(v.dump(), r#"{"b":1,"a":"x"}"#);
    }
}
