//! The static table of HTML names.
//!
//! Element and attribute names that real pages use over and over (`td`,
//! `href`, `#text`, …) are listed once, here, for the whole process. A
//! document's [`Interner`](crate::Interner) refers to them by
//! [`HtmlName`] instead of storing a copy, and the HTML parser matches
//! a tag against the table — ignoring ASCII case — without lower-casing
//! it into a fresh string. Names outside the table still work; they are
//! just interned the slow way.
//!
//! Each name is packed into a `u128` key (its bytes, big-endian, zero
//! padded) and the keys are hashed, at compile time, into an
//! open-addressed table four times the size of the list, so a lookup is
//! one pass over at most 16 bytes plus one or two probes.

/// A name from the static table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HtmlName(u16);

impl HtmlName {
    /// Position in [`NAMES`].
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// The name's text (lower-case).
    #[inline]
    pub fn as_str(self) -> &'static str {
        NAMES[self.0 as usize]
    }
}

macro_rules! html_names {
    ($($konst:ident = $text:literal,)*) => {
        /// Every name in the table, sorted; [`HtmlName`] indexes it.
        pub(crate) const NAMES: &[&str] = &[$($text),*];

        #[allow(clippy::upper_case_acronyms, non_camel_case_types, dead_code)]
        #[repr(u16)]
        enum Index {
            $($konst),*
        }

        $(
            #[doc = concat!("`", $text, "`")]
            pub const $konst: HtmlName = HtmlName(Index::$konst as u16);
        )*
    };
}

html_names! {
    TEXT = "#text", A = "a", ABBR = "abbr", ACTION = "action", ADDRESS = "address",
    ALIGN = "align", ALT = "alt", AREA = "area", ARTICLE = "article", ASIDE = "aside", B = "b",
    BASE = "base", BGCOLOR = "bgcolor", BLOCKQUOTE = "blockquote", BODY = "body",
    BORDER = "border", BR = "br", BUTTON = "button", CAPTION = "caption",
    CELLPADDING = "cellpadding", CELLSPACING = "cellspacing", CENTER = "center",
    CHARSET = "charset", CHECKED = "checked", CITE = "cite", CLASS = "class", CODE = "code",
    COL = "col", COLGROUP = "colgroup", COLS = "cols", COLSPAN = "colspan", CONTENT = "content",
    DD = "dd", DEL = "del", DFN = "dfn", DIV = "div", DL = "dl", DT = "dt", EM = "em",
    EMBED = "embed", FACE = "face", FIELDSET = "fieldset", FIGCAPTION = "figcaption",
    FIGURE = "figure", FONT = "font", FOOTER = "footer", FOR = "for", FORM = "form",
    FRAME = "frame", H1 = "h1", H2 = "h2", H3 = "h3", H4 = "h4", H5 = "h5", H6 = "h6",
    HEAD = "head", HEADER = "header", HEIGHT = "height", HR = "hr", HREF = "href",
    HTML = "html", HTTP_EQUIV = "http-equiv", I = "i", ID = "id", IFRAME = "iframe",
    IMG = "img", INPUT = "input", INS = "ins", KBD = "kbd", LABEL = "label", LANG = "lang",
    LEGEND = "legend", LI = "li", LINK = "link", MAIN = "main", META = "meta",
    METHOD = "method", NAME = "name", NAV = "nav", NOSCRIPT = "noscript", OL = "ol",
    OPTGROUP = "optgroup", OPTION = "option", P = "p", PARAM = "param", PRE = "pre", Q = "q",
    REL = "rel", ROWS = "rows", ROWSPAN = "rowspan", S = "s", SAMP = "samp", SCRIPT = "script",
    SECTION = "section", SELECT = "select", SELECTED = "selected", SIZE = "size",
    SMALL = "small", SOURCE = "source", SPAN = "span", SRC = "src", STRIKE = "strike",
    STRONG = "strong", STYLE = "style", SUB = "sub", SUMMARY = "summary", SUP = "sup",
    TABLE = "table", TARGET = "target", TBODY = "tbody", TD = "td", TEXTAREA = "textarea",
    TFOOT = "tfoot", TH = "th", THEAD = "thead", TITLE = "title", TR = "tr", TRACK = "track",
    TT = "tt", TYPE = "type", U = "u", UL = "ul", VALIGN = "valign", VALUE = "value",
    VAR = "var", WBR = "wbr", WIDTH = "width",
}

/// Longest name a key can hold.
const MAX_LEN: usize = 16;

/// `KEYS[i]` is the packed key of `NAMES[i]`.
static KEYS: [u128; NAMES.len()] = PACKED;

/// [`KEYS`], computed at compile time.
const PACKED: [u128; NAMES.len()] = {
    let mut keys = [0u128; NAMES.len()];
    let mut i = 0;
    while i < NAMES.len() {
        let bytes = NAMES[i].as_bytes();
        let mut key = 0u128;
        let mut j = 0;
        while j < MAX_LEN {
            key <<= 8;
            if j < bytes.len() {
                key |= bytes[j] as u128;
            }
            j += 1;
        }
        keys[i] = key;
        i += 1;
    }
    keys
};

/// Slots of the hash table: a power of two, at least four per name.
const SLOTS: usize = (4 * NAMES.len()).next_power_of_two();

/// The slot a key's probe sequence starts at.
const fn slot(key: u128) -> usize {
    let folded = (key >> 64) as u64 ^ key as u64;
    (folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.trailing_zeros())) as usize
}

/// Open-addressed (linear probing) table: `PROBE[s]` is one plus the
/// index of the name stored in slot `s`, 0 for an empty slot.
static PROBE: [u8; SLOTS] = {
    assert!(NAMES.len() < u8::MAX as usize);
    let mut table = [0u8; SLOTS];
    let mut i = 0;
    while i < NAMES.len() {
        let mut s = slot(PACKED[i]);
        while table[s] != 0 {
            s = (s + 1) % SLOTS;
        }
        table[s] = (i + 1) as u8;
        i += 1;
    }
    table
};

/// Pack `name` into a key, lower-casing ASCII letters when `fold`.
#[inline]
fn pack(name: &[u8], fold: bool) -> Option<u128> {
    if name.is_empty() || name.len() > MAX_LEN {
        return None;
    }
    let mut key = 0u128;
    for &b in name {
        let b = if fold { b.to_ascii_lowercase() } else { b };
        key = key << 8 | b as u128;
    }
    Some(key << (8 * (MAX_LEN - name.len())))
}

/// The entry whose key is `key`; the length check keeps a name with a
/// trailing NUL from matching the name it pads out.
#[inline]
fn find(key: Option<u128>, len: usize) -> Option<HtmlName> {
    let key = key?;
    let mut s = slot(key);
    loop {
        let i = PROBE[s].checked_sub(1)? as usize;
        if KEYS[i] == key {
            return (NAMES[i].len() == len).then_some(HtmlName(i as u16));
        }
        s = (s + 1) % SLOTS;
    }
}

/// The table entry spelled exactly `name`, if any.
#[inline]
pub(crate) fn lookup(name: &str) -> Option<HtmlName> {
    find(pack(name.as_bytes(), false), name.len())
}

/// The table entry equal to `name` up to ASCII case, if any.
#[inline]
pub fn lookup_ignore_case(name: &str) -> Option<HtmlName> {
    find(pack(name.as_bytes(), true), name.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_short_and_lower_case() {
        for w in NAMES.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
        for (i, name) in NAMES.iter().enumerate() {
            assert!(name.len() <= MAX_LEN, "{name}");
            assert_eq!(*name, name.to_ascii_lowercase());
            assert_eq!(lookup(name), Some(HtmlName(i as u16)), "{name}");
            assert_eq!(HtmlName(i as u16).as_str(), *name);
        }
    }

    #[test]
    fn constants_name_their_text() {
        assert_eq!(TEXT.as_str(), crate::TEXT_LABEL);
        assert_eq!(TD.as_str(), "td");
        assert_eq!(HTTP_EQUIV.as_str(), "http-equiv");
        assert_eq!(WIDTH.as_str(), "width");
    }

    #[test]
    fn exact_and_case_folded_lookups() {
        assert_eq!(lookup("td"), Some(TD));
        assert_eq!(lookup("TD"), None);
        assert_eq!(lookup_ignore_case("TD"), Some(TD));
        assert_eq!(lookup_ignore_case("BgColor"), Some(BGCOLOR));
        assert_eq!(lookup("t"), None, "a prefix is not a name");
        assert_eq!(lookup("tdx"), None);
        assert_eq!(lookup(""), None);
        assert_eq!(lookup("a-name-longer-than-the-key"), None);
        assert_eq!(lookup_ignore_case("tÄble"), None);
        assert_eq!(lookup("td\0"), None);
    }
}
