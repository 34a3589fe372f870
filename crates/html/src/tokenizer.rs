//! HTML tokenizer.
//!
//! One scanner walks the source once and reports borrowed slices of it:
//! tag and attribute names as written, attribute values and text before
//! entity decoding, raw-text elements (`script`, `style`, `textarea`,
//! `title`) verbatim up to their matching end tag. Nothing is copied and
//! nothing allocated per token; the scanner matches tag names against the
//! static name table ([`lixto_tree::names`]) ignoring ASCII case, and
//! keeps the attributes of the current start tag in one reused buffer.
//!
//! Two consumers drive it. The [`Tokenizer`] iterator lower-cases names
//! and decodes entities into [`Token`]s that borrow from the source
//! wherever nothing changes. The [tree builder](crate::treebuilder) reads
//! the scanner directly: it decodes into its document's text arena and
//! interns names by table entry, so a parse never materialises a token.
//! All tree-shaping (implied end tags, void elements) happens there.

use std::borrow::Cow;

use lixto_tree::names::{self, HtmlName};

use crate::entities::decode_cow;

/// One token of HTML source, borrowing from it where it can.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr="v" …>`; `self_closing` records a trailing `/`.
    StartTag {
        /// Lower-cased tag name.
        name: Cow<'a, str>,
        /// Attributes in source order: lower-cased names, entity-decoded
        /// values.
        attrs: Vec<(Cow<'a, str>, Cow<'a, str>)>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Lower-cased tag name.
        name: Cow<'a, str>,
    },
    /// Character data between tags, entity-decoded (raw text verbatim).
    Text(Cow<'a, str>),
    /// `<!-- … -->`.
    Comment(&'a str),
    /// `<!DOCTYPE …>` — content ignored.
    Doctype,
}

/// Elements whose content is raw text up to the matching end tag.
const RAW_TEXT: [HtmlName; 4] = [names::SCRIPT, names::STYLE, names::TEXTAREA, names::TITLE];

/// One scanned piece of source; every slice borrows from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event<'a> {
    /// A start tag; its attributes are [`Scanner::attrs`] until the next
    /// event.
    StartTag {
        /// The name as written.
        name: &'a str,
        /// Its static-table entry, matched ignoring ASCII case.
        html: Option<HtmlName>,
        self_closing: bool,
    },
    /// An end tag with a non-empty name, as written.
    EndTag {
        name: &'a str,
    },
    /// Character data, entities not yet decoded.
    Text(&'a str),
    /// The content of a raw-text element: never decoded.
    RawText(&'a str),
    Comment(&'a str),
    Doctype,
}

/// One attribute of the current start tag, as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RawAttr<'a> {
    pub(crate) name: &'a str,
    /// The value between its quotes (or up to whitespace, `>` or `/`),
    /// entities not yet decoded; empty for a boolean attribute.
    pub(crate) value: &'a str,
}

/// The single pass over the source both consumers share.
pub(crate) struct Scanner<'a> {
    src: &'a str,
    pos: usize,
    /// Set when the last start tag opened a raw-text element; the next
    /// event is everything up to its end tag.
    pending_raw: Option<HtmlName>,
    /// The last start tag's attributes; the buffer is reused.
    attrs: Vec<RawAttr<'a>>,
}

impl<'a> Scanner<'a> {
    pub(crate) fn new(src: &'a str) -> Scanner<'a> {
        Scanner {
            src,
            pos: 0,
            pending_raw: None,
            attrs: Vec::new(),
        }
    }

    /// The attributes of the start tag [`next_event`](Self::next_event)
    /// returned last.
    pub(crate) fn attrs(&self) -> &[RawAttr<'a>] {
        &self.attrs
    }

    /// The next event, `None` at the end of the source.
    pub(crate) fn next_event(&mut self) -> Option<Event<'a>> {
        // Raw-text mode: swallow everything up to the matching end tag.
        if let Some(name) = self.pending_raw.take() {
            let end = self.find_end_tag(name.as_str()).unwrap_or(self.src.len());
            let text = &self.src[self.pos..end];
            self.pos = end;
            if !text.is_empty() {
                return Some(Event::RawText(text));
            }
            // fall through to normal tokenization of the end tag
        }
        loop {
            let rest = &self.src.as_bytes()[self.pos..];
            let &first = rest.first()?;
            if first != b'<' {
                return Some(self.text());
            }
            if rest.starts_with(b"<!--") {
                let start = self.pos + 4;
                let end = self.find_str(start, "-->").unwrap_or(self.src.len());
                self.pos = (end + 3).min(self.src.len());
                return Some(Event::Comment(&self.src[start..end]));
            }
            if rest.starts_with(b"<!") || rest.starts_with(b"<?") {
                // DOCTYPE or processing instruction: skip to '>'.
                self.skip_past_gt();
                return Some(Event::Doctype);
            }
            if rest.starts_with(b"</") {
                self.pos += 2;
                let name = self.name();
                // Skip to '>' (tolerate junk in end tags).
                self.skip_past_gt();
                if name.is_empty() {
                    continue;
                }
                return Some(Event::EndTag { name });
            }
            // A '<' not followed by a letter is literal text.
            if !rest.get(1).is_some_and(u8::is_ascii_alphabetic) {
                return Some(self.text());
            }
            self.pos += 1;
            return Some(self.start_tag());
        }
    }

    fn start_tag(&mut self) -> Event<'a> {
        let name = self.name();
        let html = names::lookup_ignore_case(name);
        self.attrs.clear();
        let mut self_closing = false;
        loop {
            self.skip_ws();
            match self.src.as_bytes().get(self.pos) {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.src.as_bytes().get(self.pos) == Some(&b'>') {
                        self.pos += 1;
                        self_closing = true;
                        break;
                    }
                }
                Some(_) => self.attr(),
            }
        }
        if !self_closing {
            self.pending_raw = html.filter(|h| RAW_TEXT.contains(h));
        }
        Event::StartTag {
            name,
            html,
            self_closing,
        }
    }

    /// Character data: at least one character, then up to the next `<`.
    fn text(&mut self) -> Event<'a> {
        let start = self.pos;
        let first = char_len(self.src.as_bytes()[start]);
        let end = self
            .find_byte(start + first, b'<')
            .unwrap_or(self.src.len());
        self.pos = end;
        Event::Text(&self.src[start..end])
    }

    /// A tag or attribute name: ASCII alphanumerics, `-`, `_`, `:`.
    fn name(&mut self) -> &'a str {
        let start = self.pos;
        let len = self.src.as_bytes()[start..]
            .iter()
            .position(|&b| !(b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b':'))
            .unwrap_or(self.src.len() - start);
        self.pos += len;
        &self.src[start..self.pos]
    }

    fn attr(&mut self) {
        let name = self.name();
        if name.is_empty() {
            // Unparseable junk: skip one char to guarantee progress.
            self.pos += char_len(self.src.as_bytes()[self.pos]);
            return;
        }
        self.skip_ws();
        if self.src.as_bytes().get(self.pos) != Some(&b'=') {
            self.attrs.push(RawAttr { name, value: "" }); // boolean attribute
            return;
        }
        self.pos += 1;
        self.skip_ws();
        let value = match self.src.as_bytes().get(self.pos) {
            Some(&q @ (b'"' | b'\'')) => {
                let start = self.pos + 1;
                let end = self.find_byte(start, q).unwrap_or(self.src.len());
                self.pos = (end + 1).min(self.src.len());
                &self.src[start..end]
            }
            _ => {
                let start = self.pos;
                let bytes = self.src.as_bytes();
                while self.pos < bytes.len()
                    && !matches!(bytes[self.pos], b'>' | b'/')
                    && self.whitespace_len() == 0
                {
                    self.pos += char_len(bytes[self.pos]);
                }
                &self.src[start..self.pos]
            }
        };
        self.attrs.push(RawAttr { name, value });
    }

    /// Skip whitespace (in the sense of `char::is_whitespace`).
    fn skip_ws(&mut self) {
        loop {
            let len = self.whitespace_len();
            if len == 0 {
                return;
            }
            self.pos += len;
        }
    }

    /// Byte length of the whitespace character at the current position;
    /// 0 if there is none.
    fn whitespace_len(&self) -> usize {
        match self.src.as_bytes().get(self.pos) {
            None => 0,
            Some(&b) if b.is_ascii() => usize::from(matches!(b, b'\t'..=b'\r' | b' ')),
            Some(_) => {
                let c = self.src[self.pos..].chars().next().unwrap_or('x');
                if c.is_whitespace() {
                    c.len_utf8()
                } else {
                    0
                }
            }
        }
    }

    /// Move past the next `>`, or to the end of the source.
    fn skip_past_gt(&mut self) {
        self.pos = self
            .find_byte(self.pos, b'>')
            .map_or(self.src.len(), |p| p + 1);
    }

    /// Position of the first `byte` at or after `from`.
    fn find_byte(&self, from: usize, byte: u8) -> Option<usize> {
        find_byte(&self.src.as_bytes()[from..], byte).map(|p| from + p)
    }

    fn find_str(&self, from: usize, needle: &str) -> Option<usize> {
        self.src[from..].find(needle).map(|p| from + p)
    }

    /// Case-insensitive search for `</name` from the current position.
    fn find_end_tag(&self, name: &str) -> Option<usize> {
        let bytes = self.src.as_bytes();
        let needle = name.len() + 2;
        let mut from = self.pos;
        while let Some(at) = self.find_byte(from, b'<') {
            if at + needle > bytes.len() {
                return None;
            }
            if bytes[at + 1] == b'/'
                && bytes[at + 2..at + needle].eq_ignore_ascii_case(name.as_bytes())
            {
                return Some(at);
            }
            from = at + 1;
        }
        None
    }
}

/// Position of the first `byte` in `hay`. Most searches end within a few
/// bytes (the `>` of a tag, the `<` after a short text), so the first
/// bytes are tested one by one before a word-at-a-time scan takes over.
pub(crate) fn find_byte(hay: &[u8], byte: u8) -> Option<usize> {
    const LOW: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    let head = hay.len().min(8);
    if let Some(p) = hay[..head].iter().position(|&b| b == byte) {
        return Some(p);
    }
    let splat = u64::from_ne_bytes([byte; 8]);
    let mut at = head;
    while let Some(word) = hay.get(at..at + 8) {
        // A zero byte of `x` marks a match; the lowest flagged byte is
        // always a true zero, so little-endian order finds the first.
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ splat;
        let zeros = x.wrapping_sub(LOW) & !x & HIGH;
        if zeros != 0 {
            return Some(at + zeros.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    hay[at..].iter().position(|&b| b == byte).map(|p| at + p)
}

/// Length of the UTF-8 character whose first byte is `first`.
fn char_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// Streaming tokenizer over HTML source.
pub struct Tokenizer<'a> {
    scanner: Scanner<'a>,
}

impl<'a> Tokenizer<'a> {
    /// Tokenize `src` from the beginning.
    pub fn new(src: &'a str) -> Tokenizer<'a> {
        Tokenizer {
            scanner: Scanner::new(src),
        }
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        Some(match self.scanner.next_event()? {
            Event::StartTag {
                name, self_closing, ..
            } => Token::StartTag {
                name: lower_case(name),
                attrs: self
                    .scanner
                    .attrs()
                    .iter()
                    .map(|a| (lower_case(a.name), decode_cow(a.value)))
                    .collect(),
                self_closing,
            },
            Event::EndTag { name } => Token::EndTag {
                name: lower_case(name),
            },
            // Raw text is NOT entity-decoded (scripts contain '&&').
            Event::RawText(text) => Token::Text(Cow::Borrowed(text)),
            Event::Text(text) => Token::Text(decode_cow(text)),
            Event::Comment(body) => Token::Comment(body),
            Event::Doctype => Token::Doctype,
        })
    }
}

/// `name` lower-cased, borrowed when it already is.
fn lower_case(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token<'_>> {
        Tokenizer::new(s).collect()
    }

    #[test]
    fn simple_tags_and_text() {
        let t = toks("<p>hi</p>");
        assert_eq!(t.len(), 3);
        assert!(matches!(&t[0], Token::StartTag { name, .. } if name == "p"));
        assert!(matches!(&t[1], Token::Text(s) if s == "hi"));
        assert!(matches!(&t[2], Token::EndTag { name } if name == "p"));
    }

    #[test]
    fn attributes_all_quote_styles() {
        let t = toks(r#"<a href="x" id='y' class=z disabled>"#);
        if let Token::StartTag { attrs, .. } = &t[0] {
            assert_eq!(
                attrs,
                &vec![
                    (Cow::from("href"), Cow::from("x")),
                    (Cow::from("id"), Cow::from("y")),
                    (Cow::from("class"), Cow::from("z")),
                    (Cow::from("disabled"), Cow::from("")),
                ]
            );
        } else {
            panic!("expected start tag");
        }
    }

    #[test]
    fn names_are_lowercased() {
        let t = toks("<TABLE BgColor=red></TABLE>");
        assert!(matches!(&t[0], Token::StartTag { name, attrs, .. }
            if name == "table" && attrs[0].0 == "bgcolor"));
        assert!(matches!(&t[1], Token::EndTag { name } if name == "table"));
    }

    #[test]
    fn self_closing_flag() {
        let t = toks("<br/><img src=x />");
        assert!(matches!(
            &t[0],
            Token::StartTag {
                self_closing: true,
                ..
            }
        ));
        assert!(matches!(&t[1], Token::StartTag { name, self_closing: true, .. } if name == "img"));
    }

    #[test]
    fn comments_and_doctype() {
        let t = toks("<!DOCTYPE html><!-- note --><b>x</b>");
        assert!(matches!(&t[0], Token::Doctype));
        assert!(matches!(&t[1], Token::Comment(c) if *c == " note "));
    }

    #[test]
    fn raw_text_script_not_parsed() {
        let t = toks("<script>if (a<b && c>d) {}</script><p>x</p>");
        assert!(matches!(&t[0], Token::StartTag { name, .. } if name == "script"));
        assert!(matches!(&t[1], Token::Text(s) if s.contains("a<b && c>d")));
        assert!(matches!(&t[2], Token::EndTag { name } if name == "script"));
        assert!(matches!(&t[3], Token::StartTag { name, .. } if name == "p"));
    }

    #[test]
    fn raw_text_end_tag_case_insensitive() {
        let t = toks("<style>body{}</STYLE>after");
        assert!(matches!(&t[1], Token::Text(s) if s == "body{}"));
        assert!(matches!(&t[2], Token::EndTag { name } if name == "style"));
        assert!(matches!(&t[3], Token::Text(s) if s == "after"));
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let t = toks(r#"<a title="A &amp; B">&euro;5</a>"#);
        assert!(matches!(&t[0], Token::StartTag { attrs, .. } if attrs[0].1 == "A & B"));
        assert!(matches!(&t[1], Token::Text(s) if s == "€5"));
    }

    #[test]
    fn stray_lt_is_text() {
        let t = toks("a < b");
        assert_eq!(t.len(), 2); // "a " and "< b"
        let joined: String = t
            .iter()
            .map(|tok| match tok {
                Token::Text(s) => s.clone(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(joined, "a < b");
    }

    #[test]
    fn unterminated_tag_at_eof() {
        let t = toks("<p>x<a href=");
        assert!(t.len() >= 2);
    }

    #[test]
    fn find_byte_agrees_with_a_plain_scan() {
        let hay: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in 0..hay.len() {
            for byte in [0u8, 1, 0x80, 0xFF, hay[len / 2], hay[len.saturating_sub(1)]] {
                let want = hay[..len].iter().position(|&b| b == byte);
                assert_eq!(find_byte(&hay[..len], byte), want, "len {len} byte {byte}");
            }
        }
    }

    #[test]
    fn whitespace_is_char_whitespace() {
        for c in (0u32..0x3100).filter_map(char::from_u32) {
            let src = format!("<a{c}b>");
            let mut sc = Scanner::new(&src);
            sc.pos = 2;
            assert_eq!(sc.whitespace_len() > 0, c.is_whitespace(), "{c:?}");
        }
    }

    #[test]
    fn unterminated_raw_text() {
        let t = toks("<script>never ends");
        assert!(matches!(&t[1], Token::Text(s) if s == "never ends"));
    }
}
