//! Forgiving tree construction from the scanner's events.
//!
//! Implements the subset of HTML's implied-end-tag rules that data-centric
//! pages exercise: list items, paragraphs, table structure, definition
//! lists, options. Unmatched end tags are dropped; unclosed elements are
//! closed at end of input; everything is rooted under a synthesized `html`
//! element when the source does not provide one (documents are single
//! trees, and Lixto's "root" pattern needs a root node).
//!
//! A parse costs a fixed number of allocations per document, not per
//! token: the builder's node, attribute and text storage is sized from
//! the source length once (and trimmed at the end), text and attribute
//! values are entity-decoded straight into the document's text arena, and
//! names are interned by their static-table entry. The open-element stack
//! holds symbols with their table entries, so the implied-end, void and
//! end-tag rules compare small integers, and a count of open elements
//! per symbol drops an end tag with nothing to close in O(1): matching
//! end tags pop what they scan, so the whole parse is linear.

use lixto_tree::names::{self, HtmlName};
use lixto_tree::{Document, Symbol, TreeBuilder};

use crate::entities::decode_into;
use crate::tokenizer::{Event, RawAttr, Scanner};

/// Elements that never have children.
const VOID: [HtmlName; 14] = [
    names::AREA,
    names::BASE,
    names::BR,
    names::COL,
    names::EMBED,
    names::HR,
    names::IMG,
    names::INPUT,
    names::LINK,
    names::META,
    names::PARAM,
    names::SOURCE,
    names::TRACK,
    names::WBR,
];

/// Source bytes per node the builder's node storage is first sized for;
/// the corpus pages run 10–18.
const BYTES_PER_NODE: usize = 8;

/// Source bytes per attribute the attribute storage is first sized for.
const BYTES_PER_ATTR: usize = 32;

/// Parsing options. Comments and doctypes never become nodes.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Drop text nodes that consist only of whitespace (default: true).
    /// Inter-tag whitespace carries no information for wrappers and would
    /// roughly double node counts on indented markup.
    pub skip_whitespace_text: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            skip_whitespace_text: true,
        }
    }
}

/// Parse with default options.
pub fn parse(src: &str) -> Document {
    parse_with_options(src, &ParseOptions::default())
}

/// Parse `src` into a document tree.
///
/// Never fails: HTML parsing is total. Pathological input produces a tree
/// that reflects a browser-like forgiving interpretation.
pub fn parse_with_options(src: &str, opts: &ParseOptions) -> Document {
    let mut p = Parser {
        b: TreeBuilder::with_capacity(
            src.len() / BYTES_PER_NODE + 2,
            src.len() / BYTES_PER_ATTR + 2,
            src.len(),
        ),
        stack: Vec::with_capacity(32),
        open_count: Vec::with_capacity(32),
        saw_root: false,
        scratch: String::new(),
    };
    let mut scanner = Scanner::new(src);
    while let Some(event) = scanner.next_event() {
        match event {
            Event::Doctype | Event::Comment(_) => {}
            Event::Text(text) => p.text(text, true, opts),
            Event::RawText(text) => p.text(text, false, opts),
            Event::StartTag {
                name,
                html,
                self_closing,
            } => p.start_tag(name, html, self_closing, scanner.attrs()),
            Event::EndTag { name } => p.end_tag(name),
        }
    }
    if !p.saw_root {
        let html = p.b.intern_html(names::HTML);
        p.b.open_symbol(html);
    }
    p.b.finish()
}

/// The tree builder's state over one parse.
struct Parser {
    b: TreeBuilder,
    /// Open elements, outermost first, with their table entries.
    stack: Vec<(Symbol, Option<HtmlName>)>,
    /// `open_count[sym]`: elements labelled `sym` on `stack`.
    open_count: Vec<u32>,
    saw_root: bool,
    /// Reused for lower-casing names outside the table and for decoding
    /// text ahead of the root.
    scratch: String,
}

impl Parser {
    fn text(&mut self, text: &str, decode: bool, opts: &ParseOptions) {
        let skip_blank = opts.skip_whitespace_text;
        if !self.saw_root {
            // Text before any element: open the root only for text that
            // stays, so a later `<html …>` can still become the root.
            if skip_blank && is_blank(text, decode, &mut self.scratch) {
                return;
            }
            self.ensure_root();
        }
        self.b.text_with(|arena| {
            let start = arena.len();
            if decode {
                decode_into(text, arena);
            } else {
                arena.push_str(text);
            }
            // A reference can decode to whitespace (`&nbsp;`): judge the
            // decoded text, and take it back out if it goes.
            if skip_blank && arena[start..].trim().is_empty() {
                arena.truncate(start);
            }
        });
    }

    fn start_tag(
        &mut self,
        name: &str,
        html: Option<HtmlName>,
        self_closing: bool,
        attrs: &[RawAttr<'_>],
    ) {
        if html == Some(names::HTML) && !self.saw_root {
            let sym = self.b.intern_html(names::HTML);
            self.push(sym, html);
            self.saw_root = true;
            self.attrs(attrs);
            return;
        }
        self.ensure_root();
        // Implied end tags: close elements the new tag terminates.
        while let Some(&(_, top)) = self.stack.last() {
            if self.stack.len() > 1 && implies_end(top, html) {
                self.pop();
            } else {
                break;
            }
        }
        let sym = match html {
            Some(html) => self.b.intern_html(html),
            None => self.intern_lower(name),
        };
        if self_closing || html.is_some_and(|h| VOID.contains(&h)) {
            self.b.open_symbol(sym);
            self.attrs(attrs);
            self.b.close();
        } else {
            self.push(sym, html);
            self.attrs(attrs);
        }
    }

    fn end_tag(&mut self, name: &str) {
        // The common case, settled without a table lookup: the end tag
        // closes the innermost element (and that is not the root).
        if let [_, .., (top, _)] = self.stack[..] {
            if self.b.interner().resolve(top).eq_ignore_ascii_case(name) {
                count_examined();
                self.pop();
                return;
            }
        }
        let sym = match names::lookup_ignore_case(name) {
            Some(html) => self.b.html_symbol(html),
            None => {
                lower_into(name, &mut self.scratch);
                self.b.interner().get(&self.scratch)
            }
        };
        // An end tag with no open element of its name is dropped.
        let Some(sym) = sym else { return };
        let open = self.open_count.get(sym.index()).copied().unwrap_or(0);
        if open == 0 || (open == 1 && self.stack[0].0 == sym) {
            // Nothing to close, or only the root: leave it open;
            // finish() closes.
            return;
        }
        // Close the nearest open element of this name and everything
        // opened inside it; it lies above the root.
        loop {
            count_examined();
            if self.pop() == sym {
                return;
            }
        }
    }

    fn attrs(&mut self, attrs: &[RawAttr<'_>]) {
        for a in attrs {
            let sym = match names::lookup_ignore_case(a.name) {
                Some(html) => self.b.intern_html(html),
                None => self.intern_lower(a.name),
            };
            self.b.attr_with(sym, |arena| decode_into(a.value, arena));
        }
    }

    /// Intern a name outside the static table, lower-cased.
    fn intern_lower(&mut self, name: &str) -> Symbol {
        lower_into(name, &mut self.scratch);
        self.b.intern(&self.scratch)
    }

    fn ensure_root(&mut self) {
        if !self.saw_root {
            let sym = self.b.intern_html(names::HTML);
            self.push(sym, Some(names::HTML));
            self.saw_root = true;
        }
    }

    /// Open an element and put it on the stack.
    fn push(&mut self, sym: Symbol, html: Option<HtmlName>) {
        self.b.open_symbol(sym);
        self.stack.push((sym, html));
        if self.open_count.len() <= sym.index() {
            self.open_count.resize(sym.index() + 1, 0);
        }
        self.open_count[sym.index()] += 1;
    }

    /// Close the innermost open element, returning its label.
    fn pop(&mut self) -> Symbol {
        let (sym, _) = self.stack.pop().expect("an open element to close");
        self.open_count[sym.index()] -= 1;
        self.b.close();
        sym
    }
}

/// Is `text` whitespace only once decoded (when `decode`)? `scratch`
/// holds the decoded text.
fn is_blank(text: &str, decode: bool, scratch: &mut String) -> bool {
    if !decode {
        return text.trim().is_empty();
    }
    scratch.clear();
    decode_into(text, scratch);
    scratch.trim().is_empty()
}

/// Replace `out` with `name`, ASCII lower-cased.
fn lower_into(name: &str, out: &mut String) {
    out.clear();
    out.push_str(name);
    out.make_ascii_lowercase();
}

/// Does an open `open` element get implicitly closed by a following
/// `next` start tag? Only table names take part.
fn implies_end(open: Option<HtmlName>, next: Option<HtmlName>) -> bool {
    use names::*;
    let (Some(open), Some(next)) = (open, next) else {
        return false;
    };
    match open {
        LI => next == LI,
        DT | DD => matches!(next, DT | DD),
        OPTION => matches!(next, OPTION | OPTGROUP),
        TR => matches!(next, TR | TBODY | THEAD | TFOOT),
        TD | TH => matches!(next, TD | TH | TR | TBODY | THEAD | TFOOT),
        THEAD | TBODY | TFOOT => matches!(next, TBODY | TFOOT),
        P => matches!(
            next,
            P | DIV
                | TABLE
                | UL
                | OL
                | DL
                | LI
                | H1
                | H2
                | H3
                | H4
                | H5
                | H6
                | BLOCKQUOTE
                | PRE
                | FORM
                | HR
                | SECTION
                | ARTICLE
        ),
        _ => false,
    }
}

// End-tag stack entries examined by this thread's parses; tests hold
// the total to a multiple of the token count.
#[cfg(test)]
thread_local! {
    static EXAMINED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline(always)]
fn count_examined() {
    #[cfg(test)]
    EXAMINED.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use lixto_tree::render::to_sexp;

    fn sexp(src: &str) -> String {
        to_sexp(&parse(src))
    }

    #[test]
    fn well_formed_document() {
        assert_eq!(
            sexp("<html><body><p>hi</p></body></html>"),
            r#"(html (body (p "hi")))"#
        );
    }

    #[test]
    fn missing_root_is_synthesized() {
        assert_eq!(sexp("<p>a</p>"), r#"(html (p "a"))"#);
        assert_eq!(sexp("just text"), r#"(html "just text")"#);
        assert_eq!(sexp(""), "(html)");
    }

    #[test]
    fn implied_li_end_tags() {
        assert_eq!(
            sexp("<ul><li>a<li>b<li>c</ul>"),
            r#"(html (ul (li "a") (li "b") (li "c")))"#
        );
    }

    #[test]
    fn implied_table_cells() {
        assert_eq!(
            sexp("<table><tr><td>1<td>2<tr><td>3</table>"),
            r#"(html (table (tr (td "1") (td "2")) (tr (td "3"))))"#
        );
    }

    #[test]
    fn paragraph_closed_by_block() {
        assert_eq!(
            sexp("<p>one<p>two<div>three</div>"),
            r#"(html (p "one") (p "two") (div "three"))"#
        );
    }

    #[test]
    fn void_elements_take_no_children() {
        // note: <hr> implies </p> (spec behaviour), so it lands as a sibling
        assert_eq!(
            sexp("<p>a<br>b<hr>c</p>"),
            r#"(html (p "a" (br) "b") (hr) "c")"#
        );
        assert_eq!(
            sexp(r#"<img src="x.png">after"#),
            r#"(html (img src="x.png") "after")"#
        );
    }

    #[test]
    fn unmatched_end_tags_ignored() {
        assert_eq!(sexp("<b>x</i></b>"), r#"(html (b "x"))"#);
        assert_eq!(sexp("</div><p>y</p>"), r#"(html (p "y"))"#);
    }

    #[test]
    fn unclosed_elements_closed_at_eof() {
        assert_eq!(sexp("<div><span>deep"), r#"(html (div (span "deep")))"#);
    }

    #[test]
    fn end_tag_closes_intervening_elements() {
        assert_eq!(
            sexp("<div><b>x</div>after"),
            r#"(html (div (b "x")) "after")"#
        );
    }

    #[test]
    fn whitespace_text_skipped_by_default() {
        assert_eq!(
            sexp("<table>\n  <tr>\n    <td>v</td>\n  </tr>\n</table>"),
            r#"(html (table (tr (td "v"))))"#
        );
    }

    #[test]
    fn whitespace_kept_when_requested() {
        let doc = parse_with_options(
            "<p> </p>",
            &ParseOptions {
                skip_whitespace_text: false,
            },
        );
        assert_eq!(to_sexp(&doc), r#"(html (p " "))"#);
    }

    #[test]
    fn attributes_survive_into_tree() {
        let doc = parse(r#"<table bgcolor="green"><tr><td>x</td></tr></table>"#);
        let table = doc
            .node_ids()
            .find(|&n| doc.label_str(n) == "table")
            .unwrap();
        assert_eq!(doc.attr(table, "bgcolor"), Some("green"));
    }

    #[test]
    fn ebay_like_page_shape() {
        // The Figure 5 wrapper counts on: body > (header table, item
        // tables..., hr).
        let src = r#"<html><body>
          <table><tr><td>item</td></tr></table>
          <table><tr><td><a href="i1">Desc 1</a></td><td>$ 10.00</td><td>3</td></tr></table>
          <table><tr><td><a href="i2">Desc 2</a></td><td>$ 22.50</td><td>0</td></tr></table>
          <hr>
        </body></html>"#;
        let doc = parse(src);
        let body = doc
            .node_ids()
            .find(|&n| doc.label_str(n) == "body")
            .unwrap();
        let kids: Vec<_> = doc
            .children(body)
            .map(|n| doc.label_str(n).to_string())
            .collect();
        assert_eq!(kids, vec!["table", "table", "table", "hr"]);
    }

    #[test]
    fn deep_nesting_does_not_recurse() {
        let mut src = String::new();
        for _ in 0..50_000 {
            src.push_str("<div>");
        }
        src.push('x');
        let doc = parse(&src);
        assert_eq!(doc.len(), 50_002); // html + divs + text
    }

    /// `parse(src)` with the end-tag stack entries it examined.
    fn examined_by(src: &str) -> (Document, u64) {
        EXAMINED.with(|c| c.set(0));
        let doc = parse(src);
        (doc, EXAMINED.with(|c| c.get()))
    }

    #[test]
    fn unmatched_end_tags_cost_constant_work_each() {
        // "<div>"×n then "</span>"×n: no end tag has an open element of
        // its name. Scanning the open stack for each would make the parse
        // quadratic; at n = 80k the page is a 960 KB request body.
        for n in [5_000, 20_000, 80_000] {
            let src = "<div>".repeat(n) + &"</span>".repeat(n);
            let (doc, examined) = examined_by(&src);
            assert_eq!(doc.len(), n + 1);
            let tokens = 2 * n as u64;
            assert!(
                examined <= 2 * tokens,
                "n = {n}: {examined} entries examined"
            );
        }
    }

    #[test]
    fn matching_end_tags_pop_what_they_examine() {
        for n in [5_000, 20_000, 80_000] {
            // Each </div> closes an open <b> on its way.
            let src = "<div><b>".repeat(n) + &"</div>".repeat(n) + &"</b>".repeat(n);
            let (doc, examined) = examined_by(&src);
            assert_eq!(doc.len(), 2 * n + 1);
            let tokens = 4 * n as u64;
            assert!(
                examined <= 2 * tokens,
                "n = {n}: {examined} entries examined"
            );
            // The root is never closed by an end tag of its name.
            let (_, examined) = examined_by(&"</html>".repeat(n));
            assert_eq!(examined, 0);
        }
    }

    #[test]
    fn end_tags_match_names_ignoring_case_inside_and_outside_the_table() {
        assert_eq!(
            sexp("<My-Tag><b>x</MY-TAG>y<Div>z</DIV>"),
            r#"(html (my-tag (b "x")) "y" (div "z"))"#
        );
        assert_eq!(
            sexp("<x-a><x-b>q</x-c>r</x-a>s"),
            r#"(html (x-a (x-b "q" "r")) "s")"#
        );
    }

    #[test]
    fn definition_lists() {
        assert_eq!(
            sexp("<dl><dt>t1<dd>d1<dt>t2<dd>d2</dl>"),
            r#"(html (dl (dt "t1") (dd "d1") (dt "t2") (dd "d2")))"#
        );
    }

    #[test]
    fn thead_tbody_sections() {
        assert_eq!(
            sexp("<table><thead><tr><th>h</th></tr><tbody><tr><td>v</td></tr></table>"),
            r#"(html (table (thead (tr (th "h"))) (tbody (tr (td "v")))))"#
        );
    }
}
