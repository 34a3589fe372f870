//! A small hand-rolled JSON value type with a parser and serializer.
//!
//! The build environment has no registry access, so the gateway cannot
//! pull in `serde`; this module implements exactly the JSON subset the
//! wire protocol needs — all of RFC 8259 minus non-finite numbers —
//! with full string escaping in both directions (including `\uXXXX`
//! and surrogate pairs). Object keys keep insertion order, so responses
//! serialize deterministically.
//!
//! ## Scanning strings
//!
//! Both directions cut strings into *plain runs*: the bytes up to the
//! next `"`, `\\` or control byte (below 0x20), which need no escape.
//! `plain_run` finds the end of a run eight bytes at a time: it loads a
//! little-endian `u64` and flags, with the classic SWAR zero-byte and
//! less-than masks, every lane that is a quote, a backslash or below
//! 0x20; the lowest flagged lane is the first such byte (a mask's false
//! positives only ever sit above a true hit). The last < 8 bytes are
//! checked one at a time. All three stop bytes are ASCII and every byte
//! of a multi-byte UTF-8 sequence is ≥ 0x80, so a run always ends on a
//! character boundary. The decoder copies a string without escapes with
//! one exact-size allocation; a string with escapes is decoded into a
//! per-thread buffer reused across parses (up to 64 KiB of it is kept)
//! and then copied out at its exact size, so it too costs one
//! allocation. The encoder copies each run whole and rewrites only the
//! stop bytes.
//!
//! ## Numbers
//!
//! Numbers follow the RFC 8259 grammar exactly,
//! `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: leading
//! zeros (`01`), a bare or trailing `.` (`-.5`, `1.`, `1.e5`) and a
//! leading `+` are rejected, as are values that overflow to infinity.
//! A rejected number reports the offset just past its longest run of
//! number characters.

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
            items: Vec::new(),
            fields: Vec::new(),
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
        if n < 0.0 {
            out.push('-');
        }
        out.push_str(decimal(n.abs() as u64, &mut [0; 20]));
    } else {
        use std::fmt::Write;
        let _ = write!(out, "{n}"); // writing into a String cannot fail
    }
}

/// `n` in decimal, written into the tail of `digits` — integer
/// formatting without `format!`'s allocation.
pub(crate) fn decimal(mut n: u64, digits: &mut [u8; 20]) -> &str {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&digits[at..]).expect("ASCII digits")
}

/// Length of the plain run at the start of `bytes`: the bytes before the
/// first `"`, `\\` or byte below 0x20 (all of `bytes` if there is none).
/// Checks eight bytes per step; see the module docs.
pub(crate) fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    /// High bit of every lane of `word` that is zero (exact for the
    /// lowest such lane).
    fn zero_lanes(word: u64) -> u64 {
        word.wrapping_sub(ONES) & !word & HIGHS
    }
    let mut chunks = bytes.chunks_exact(8);
    for (i, chunk) in chunks.by_ref().enumerate() {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let stops = zero_lanes(word ^ (ONES * u64::from(b'"')))
            | zero_lanes(word ^ (ONES * u64::from(b'\\')))
            | (word.wrapping_sub(ONES * 0x20) & !word & HIGHS);
        if stops != 0 {
            return i * 8 + (stops.trailing_zeros() / 8) as usize;
        }
    }
    let tail = chunks.remainder();
    let done = bytes.len() - tail.len();
    done + tail
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(tail.len())
}

/// Append `s` as a quoted, escaped JSON string, exactly as a
/// [`Json::Str`] serializes. Plain runs are copied whole; only `"`,
/// `\\` and control characters are rewritten.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut at = 0;
    loop {
        let run = plain_run(&bytes[at..]);
        out.push_str(&s[at..at + run]);
        at += run;
        let Some(&b) = bytes.get(at) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xF)]));
            }
        }
        at += 1;
    }
    out.push('"');
}

thread_local! {
    /// Decode buffer for escaped strings, reused by every parse on the
    /// thread (see `Parser::string`).
    static UNESCAPED: std::cell::Cell<String> = const { std::cell::Cell::new(String::new()) };
}

/// Capacity [`UNESCAPED`] keeps between strings, so one huge escaped
/// string does not pin its size for the thread's lifetime.
const RETAINED_UNESCAPED_BYTES: usize = 64 * 1024;

struct Parser<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    /// Scratch stacks for the children of the arrays and objects being
    /// parsed: each container pushes its children above its own mark and
    /// moves them into an exact-size `Vec` when it closes, so nested
    /// containers share one growing buffer per parse.
    items: Vec<Json>,
    fields: Vec<(String, Json)>,
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
        self.ws();
        if self.src.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let mark = self.fields.len();
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
            self.fields.push((key, value));
            self.ws();
            match self.src.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(self.fields.drain(mark..).collect()));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        self.ws();
        if self.src.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        let mark = self.items.len();
        loop {
            self.ws();
            let item = self.value(depth + 1)?;
            self.items.push(item);
            self.ws();
            match self.src.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(self.items.drain(mark..).collect()));
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
        let start = self.pos;
        self.pos += plain_run(&self.src[start..]);
        if self.src.get(self.pos) == Some(&b'"') {
            // The common case: one plain run up to the closing quote.
            self.pos += 1;
            return Ok(self.text[start..self.pos - 1].to_owned());
        }
        // An escaped string is decoded into this thread's buffer and
        // copied out at its exact size, instead of growing a buffer of
        // its own by doubling.
        let mut buf = UNESCAPED.take();
        buf.clear();
        buf.push_str(&self.text[start..self.pos]);
        let decoded = self.unescape(&mut buf).map(|()| buf.as_str().to_owned());
        if buf.capacity() <= RETAINED_UNESCAPED_BYTES {
            UNESCAPED.set(buf);
        }
        decoded
    }

    /// Decode the rest of a string that holds an escape into `out`, up
    /// to and including its closing quote.
    fn unescape(&mut self, out: &mut String) -> Result<(), JsonError> {
        loop {
            match self.src.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(out)?;
                }
                Some(&b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Plain runs end on a character boundary of the
                    // (already valid) source text; see the module docs.
                    let start = self.pos;
                    self.pos += plain_run(&self.src[start..]);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Decode the escape sequence after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let simple = match self.src.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
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
                    let combined =
                        0x10000 + ((u32::from(hi) - 0xD800) << 10) + (u32::from(lo) - 0xDC00);
                    char::from_u32(combined).ok_or_else(|| self.err("bad codepoint"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired surrogate"));
                } else {
                    char::from_u32(u32::from(hi)).ok_or_else(|| self.err("bad codepoint"))?
                };
                out.push(c);
                return Ok(());
            }
            _ => return Err(self.err("invalid escape")),
        };
        out.push(simple);
        self.pos += 1;
        Ok(())
    }

    /// Scan the longest run of number characters (as every earlier
    /// version of this parser did, so a rejected number reports the same
    /// offset), then accept it only if it matches the RFC 8259 grammar.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.src.get(p.pos), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos - from
        };
        if self.src.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = digits(self);
        let mut valid = int_digits == 1 || (int_digits > 1 && self.src[int_start] != b'0');
        if self.src.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            valid &= digits(self) > 0;
        }
        if matches!(self.src.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.src.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid &= digits(self) > 0;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .ok()
            .filter(|n| valid && n.is_finite())
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
        // (document, offset of the failure). The offsets are the ones the
        // byte-at-a-time scanner this module used to have reported.
        for (text, at) in [
            ("", 0),
            ("{", 1),
            ("[1,", 3),
            ("{\"a\"}", 4),
            ("{\"a\":}", 5),
            ("tru", 0),
            ("\"unterminated", 13),
            ("1 2", 2),
            ("[1] garbage", 4),
            ("{'single':1}", 1),
            ("\"\\ud800\"", 7), // unpaired surrogate
            ("nan", 0),
            ("+1", 0),
            ("\"abc", 4),                // unterminated string
            ("\"a\\", 3),                // backslash at the end of input
            ("\"a\\x\"", 3),             // bad escape
            ("[\"ok\",\"bad\\q\"]", 11), // bad escape behind a plain run
            ("\"\\u12\"", 3),            // truncated \u escape
            ("\"\\u12g4\"", 3),          // bad \u escape
            ("\"\\udc00\"", 7),          // lone low surrogate
            ("\"\\ud800\\u0041\"", 13),  // high surrogate, no low half
            ("{\"k\":\"v\u{1}\"}", 7),   // raw control byte in a value
            ("-", 1),
            ("--1", 1),
            ("1e", 2),
            ("1e+", 3),
            ("1.5e", 4),
            ("1e999", 5), // overflows to infinity
            ("[1,]", 3),
            ("{\"a\":1,}", 7),
            // Not RFC 8259 numbers: leading zeros, bare or trailing '.'.
            ("01", 2),
            ("00", 2),
            ("-01.5", 5),
            ("1.", 2),
            ("1.e5", 4),
            ("-.5", 3),
            ("[0,012]", 6),
            (".5", 0),
        ] {
            let err = Json::parse(text).expect_err(text);
            assert_eq!(err.at, at, "{text:?} must fail at byte {at}: {err}");
        }
        // A raw control byte k bytes into a string fails at its own
        // offset, whether it sits in the first eight-byte word, on a word
        // boundary or in the byte-at-a-time tail, behind ASCII or
        // multi-byte characters.
        for k in 0..40 {
            for b in [0u8, 0x1f, b'\n'] {
                let ascii = format!("\"{}{}tail\"", "x".repeat(k), char::from(b));
                let wide = format!(
                    "\"{}{}{}\"",
                    "é".repeat(k / 2),
                    "x".repeat(k % 2),
                    char::from(b)
                );
                for text in [ascii, wide] {
                    let err = Json::parse(&text).expect_err(&text);
                    assert_eq!(err.at, 1 + k, "{text:?}");
                    assert_eq!(err.message, "raw control character in string");
                }
            }
        }
        // A string that failed half-decoded leaves nothing behind in the
        // thread's reused decode buffer.
        assert!(Json::parse("\"left\\nover\\q\"").is_err());
        assert_eq!(Json::parse("\"a\\\"b\""), Ok(Json::from("a\"b")));
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("7", 7.0),
            ("-12", -12.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.25", -0.25),
            ("1e3", 1000.0),
            ("1E+3", 1000.0),
            ("25e-2", 0.25),
            ("0e0", 0.0),
            ("1.5E-1", 0.15),
            ("9007199254740993", 9_007_199_254_740_992.0),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::Num(value)), "{text}");
        }
    }

    /// Byte-at-a-time reference for [`plain_run`].
    fn plain_run_reference(bytes: &[u8]) -> usize {
        bytes
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(bytes.len())
    }

    #[test]
    fn plain_run_matches_the_byte_at_a_time_reference() {
        // Fillers include the neighbours of every stop byte (0x20 above
        // the control range, '#' above '"', ']' above '\\'), where a SWAR
        // mask's borrow could fake a hit, and multi-byte UTF-8.
        let utf8 = "é€😀".as_bytes();
        let fillers: Vec<Vec<u8>> = [b'a', 0x20, b'#', b']', 0x7f, 0x80, 0xff]
            .iter()
            .map(|&f| vec![f; 32])
            .chain(std::iter::once(
                utf8.iter().copied().cycle().take(32).collect(),
            ))
            .collect();
        let mut checked = 0;
        for filler in &fillers {
            for align in 0..8 {
                // No stop byte at all, every length (the tail included).
                for len in 0..=24 {
                    let bytes = &filler[align..align + len];
                    assert_eq!(plain_run(bytes), len);
                }
                // Every byte value in every lane of the first three words
                // and the tail, alone and behind an earlier stop byte.
                for len in [5, 8, 13, 16, 24] {
                    for lane in 0..len {
                        for v in 0..=255u8 {
                            let mut buf = filler[..align + len].to_vec();
                            buf[align + lane] = v;
                            let bytes = &buf[align..];
                            assert_eq!(plain_run(bytes), plain_run_reference(bytes));
                            for earlier in [b'"', b'\\', 0x00, 0x1f] {
                                let first = lane / 2;
                                if first < lane {
                                    buf[align + first] = earlier;
                                    let bytes = &buf[align..];
                                    assert_eq!(plain_run(bytes), first);
                                    buf[align + first] = filler[align + first];
                                }
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, fillers.len() * 8 * (5 + 8 + 13 + 16 + 24) * 256);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        #[test]
        fn string_dump_parses_back(codes in proptest::collection::vec(0u32..0x1_0000, 0..48)) {
            // A quarter ASCII (controls, quotes and backslashes included),
            // the rest two-, three- and (folded up from the surrogate
            // range) four-byte characters.
            let s: String = codes
                .iter()
                .map(|&c| match c {
                    0..=0x3fff => char::from((c % 0x80) as u8),
                    0x4000..=0x7fff => char::from_u32(0x80 + c % 0x780).expect("two bytes"),
                    0xd800..=0xdfff => char::from_u32(0x1_0000 + c).expect("astral plane"),
                    _ => char::from_u32(c).expect("not a surrogate"),
                })
                .collect();
            let dumped = Json::Str(s.clone()).dump();
            proptest::prop_assert_eq!(Json::parse(&dumped), Ok(Json::Str(s)));
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
