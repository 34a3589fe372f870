//! Character-reference (entity) decoding.
//!
//! Covers the numeric forms `&#dd;` / `&#xhh;` and the named entities that
//! actually occur on data-centric pages (currency signs, punctuation,
//! accented letters used by the paper's application domains). Unknown
//! entities are passed through verbatim — the forgiving behaviour browsers
//! exhibit and wrappers depend on.

use std::borrow::Cow;

use crate::tokenizer::find_byte;

/// Named entities we decode. Kept sorted for the binary search in
/// [`lookup_named`].
const NAMED: &[(&str, char)] = &[
    ("AElig", 'Æ'),
    ("Aacute", 'Á'),
    ("Eacute", 'É'),
    ("Oacute", 'Ó'),
    ("Uacute", 'Ú'),
    ("aacute", 'á'),
    ("agrave", 'à'),
    ("amp", '&'),
    ("apos", '\''),
    ("auml", 'ä'),
    ("bull", '•'),
    ("cent", '¢'),
    ("copy", '©'),
    ("curren", '¤'),
    ("deg", '°'),
    ("eacute", 'é'),
    ("egrave", 'è'),
    ("euro", '€'),
    ("frac12", '½'),
    ("gt", '>'),
    ("hellip", '…'),
    ("iexcl", '¡'),
    ("laquo", '«'),
    ("ldquo", '“'),
    ("lsquo", '‘'),
    ("lt", '<'),
    ("mdash", '—'),
    ("middot", '·'),
    ("nbsp", '\u{a0}'),
    ("ndash", '–'),
    ("ouml", 'ö'),
    ("para", '¶'),
    ("plusmn", '±'),
    ("pound", '£'),
    ("quot", '"'),
    ("raquo", '»'),
    ("rdquo", '”'),
    ("reg", '®'),
    ("rsquo", '’'),
    ("sect", '§'),
    ("szlig", 'ß'),
    ("times", '×'),
    ("trade", '™'),
    ("uacute", 'ú'),
    ("uuml", 'ü'),
    ("yen", '¥'),
];

fn lookup_named(name: &str) -> Option<char> {
    NAMED
        .binary_search_by(|(n, _)| n.cmp(&name))
        .ok()
        .map(|i| NAMED[i].1)
}

/// Decode all character references in `input`.
///
/// Handles `&name;`, `&#decimal;`, `&#xhex;` (and `&#Xhex;`). A reference
/// that does not parse — unknown name, bad number, missing `;` — is copied
/// through unchanged.
pub fn decode(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    decode_into(input, &mut out);
    out
}

/// [`decode`], borrowing `input` when it holds no reference at all.
pub(crate) fn decode_cow(input: &str) -> Cow<'_, str> {
    if input.contains('&') {
        Cow::Owned(decode(input))
    } else {
        Cow::Borrowed(input)
    }
}

/// [`decode`], appending to `out`: the tree builder decodes straight into
/// its document's text arena. Text between references is copied in runs.
/// The output is never longer than `input`: the shortest reference
/// (`&lt;`, `&#N;`) takes four bytes and no character takes more.
pub(crate) fn decode_into(input: &str, out: &mut String) {
    let bytes = input.as_bytes();
    let mut copied = 0;
    let mut from = 0;
    while let Some(off) = find_byte(&bytes[from..], b'&') {
        let amp = from + off;
        // Find the ';' within a reasonable window.
        let semi = bytes[amp + 1..]
            .iter()
            .take(32)
            .position(|&b| b == b';')
            .map(|p| amp + 1 + p);
        from = amp + 1;
        if let Some(end) = semi {
            if let Some(c) = decode_reference(&input[amp + 1..end]) {
                out.push_str(&input[copied..amp]);
                out.push(c);
                from = end + 1;
                copied = from;
            }
        }
    }
    out.push_str(&input[copied..]);
}

/// The character a reference's body (between `&` and `;`) stands for.
fn decode_reference(body: &str) -> Option<char> {
    if let Some(num) = body.strip_prefix('#') {
        let code = if let Some(hex) = num.strip_prefix(['x', 'X']) {
            u32::from_str_radix(hex, 16).ok()
        } else {
            num.parse::<u32>().ok()
        };
        code.and_then(char::from_u32)
    } else {
        lookup_named(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_entities() {
        assert_eq!(decode("a &amp; b &lt;c&gt;"), "a & b <c>");
        assert_eq!(decode("&euro;45 &nbsp;"), "€45 \u{a0}");
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(decode("&#65;&#x42;&#X43;"), "ABC");
        assert_eq!(decode("&#8364;"), "€");
    }

    #[test]
    fn unknown_entities_pass_through() {
        assert_eq!(
            decode("&bogus; &noSemicolonEver"),
            "&bogus; &noSemicolonEver"
        );
        assert_eq!(decode("x & y"), "x & y");
    }

    #[test]
    fn invalid_numeric_pass_through() {
        assert_eq!(decode("&#xZZ;"), "&#xZZ;");
        assert_eq!(decode("&#;"), "&#;");
    }

    #[test]
    fn table_is_sorted_for_binary_search() {
        for w in NAMED.windows(2) {
            assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn no_ampersand_fast_path() {
        assert_eq!(decode("plain text"), "plain text");
    }

    #[test]
    fn multibyte_around_entities() {
        assert_eq!(decode("é&amp;ü"), "é&ü");
    }

    #[test]
    fn decode_into_appends_and_cow_borrows_plain_text() {
        let mut out = String::from("x");
        decode_into("a&lt;b&gt", &mut out);
        assert_eq!(out, "xa<b&gt");
        assert!(matches!(decode_cow("plain"), Cow::Borrowed("plain")));
        assert_eq!(decode_cow("&amp;&amp"), "&&amp");
    }
}
