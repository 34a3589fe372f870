//! Document construction.
//!
//! [`TreeBuilder`] is the event-style interface used by the HTML parser and
//! the synthetic workload generators; [`from_sexp`] is a compact literal
//! syntax for tests and documentation:
//!
//! ```
//! let doc = lixto_tree::build::from_sexp(
//!     r#"(table (tr (td bgcolor="green" "price") (td "$ 9.99")))"#,
//! ).unwrap();
//! assert_eq!(doc.text_content(doc.root()), "price$ 9.99");
//! ```

use crate::document::Document;
use crate::ids::NodeId;
use crate::interner::{Interner, Symbol};
use crate::names::{self, HtmlName};
use crate::node::{Attr, Link, NodeData, NodeKind, Span};
use crate::order::Order;

/// Incremental, event-driven construction of a [`Document`].
///
/// The builder enforces the tree discipline: exactly one root element, every
/// `open` matched by a `close`, text only inside an open element.
///
/// Text and attribute values are appended to one text arena; a caller
/// that produces them piecewise (the HTML parser decoding entities) can
/// write straight into it with [`text_with`](TreeBuilder::text_with) and
/// [`attr_with`](TreeBuilder::attr_with), and a caller that knows its
/// labels can intern them once and open elements by [`Symbol`].
pub struct TreeBuilder {
    nodes: Vec<NodeData>,
    interner: Interner,
    arena: String,
    attr_list: Vec<Attr>,
    /// Stack of currently open elements.
    open: Vec<NodeId>,
    finished_root: bool,
    /// The symbol of each static-table name interned so far, by
    /// [`HtmlName`]; [`NO_SYMBOL`] where there is none yet. A cache of
    /// the interner's own table, so interning a tag costs one load.
    html_syms: [u32; names::NAMES.len()],
}

/// An [`HtmlName`] the document has not interned.
const NO_SYMBOL: u32 = u32::MAX;

impl Default for TreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Room reserved for the label table and the open-element stack, which
/// stay small on real pages (distinct labels, nesting depth).
const SMALL_TABLE: usize = 32;

impl TreeBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        TreeBuilder {
            nodes: Vec::new(),
            interner: Interner::new(),
            arena: String::new(),
            attr_list: Vec::new(),
            open: Vec::new(),
            finished_root: false,
            html_syms: [NO_SYMBOL; names::NAMES.len()],
        }
    }

    /// Create a builder with room for `nodes` nodes, `attrs` attributes
    /// and `text_bytes` bytes of text and attribute values before any of
    /// them grows. [`finish`](TreeBuilder::finish) trims what is unused.
    pub fn with_capacity(nodes: usize, attrs: usize, text_bytes: usize) -> Self {
        TreeBuilder {
            nodes: Vec::with_capacity(nodes),
            interner: Interner::with_capacity(SMALL_TABLE),
            arena: String::with_capacity(text_bytes),
            attr_list: Vec::with_capacity(attrs),
            open: Vec::with_capacity(SMALL_TABLE),
            finished_root: false,
            html_syms: [NO_SYMBOL; names::NAMES.len()],
        }
    }

    /// The labels interned so far.
    #[inline]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Intern `label` without opening anything.
    pub fn intern(&mut self, label: &str) -> Symbol {
        match names::lookup(label) {
            Some(name) => self.intern_html(name),
            None => self.interner.intern(label),
        }
    }

    /// Intern a name from the static table (no hashing, no allocation).
    #[inline]
    pub fn intern_html(&mut self, name: HtmlName) -> Symbol {
        match self.html_symbol(name) {
            Some(sym) => sym,
            None => {
                let sym = self.interner.intern_html(name);
                self.html_syms[name.index()] = sym.0;
                sym
            }
        }
    }

    /// The symbol of a static-table name, if it has been interned.
    #[inline]
    pub fn html_symbol(&self, name: HtmlName) -> Option<Symbol> {
        let sym = self.html_syms[name.index()];
        (sym != NO_SYMBOL).then_some(Symbol(sym))
    }

    /// Open an element with the given label. Returns its node id.
    ///
    /// # Panics
    /// Panics if a complete root subtree has already been closed (documents
    /// are single trees).
    pub fn open(&mut self, label: &str) -> NodeId {
        let sym = self.intern(label);
        self.open_symbol(sym)
    }

    /// [`open`](TreeBuilder::open) by a label this builder interned.
    ///
    /// # Panics
    /// As [`open`](TreeBuilder::open).
    pub fn open_symbol(&mut self, label: Symbol) -> NodeId {
        assert!(
            !self.finished_root,
            "cannot add a second root to a document"
        );
        let id = NodeId::from_index(self.nodes.len());
        self.nodes
            .push(NodeData::new(label, NodeKind::Element, Span::default()));
        self.attach(id);
        self.open.push(id);
        id
    }

    /// Add an attribute to the innermost open element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn attr(&mut self, name: &str, value: &str) {
        let sym = self.intern(name);
        self.attr_with(sym, |arena| arena.push_str(value));
    }

    /// Add an attribute named by an interned label to the innermost open
    /// element; `value` appends the attribute's value to the text arena.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn attr_with(&mut self, name: Symbol, value: impl FnOnce(&mut String)) {
        let &cur = self.open.last().expect("attr outside any open element");
        let start = self.arena.len();
        value(&mut self.arena);
        let value = Span::between(start, self.arena.len());
        let end = self.attr_list.len() as u32;
        let node = &mut self.nodes[cur.index()];
        if node.attrs.len > 0 && node.attrs.start + node.attrs.len != end {
            // Attributes added after another element's: move this
            // element's list to the end so it stays one span.
            let range = node.attrs.range();
            node.attrs.start = end;
            self.attr_list.extend_from_within(range);
        } else if node.attrs.len == 0 {
            node.attrs.start = end;
        }
        node.attrs.len += 1;
        self.attr_list.push(Attr { name, value });
    }

    /// Append a text node to the innermost open element. Empty strings are
    /// ignored (they would create meaningless leaves). Returns the id if a
    /// node was created.
    pub fn text(&mut self, data: &str) -> Option<NodeId> {
        self.text_with(|arena| arena.push_str(data))
    }

    /// [`text`](TreeBuilder::text) with the node's data appended to the
    /// text arena by `data`. Nothing appended, no node.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn text_with(&mut self, data: impl FnOnce(&mut String)) -> Option<NodeId> {
        let start = self.arena.len();
        data(&mut self.arena);
        if self.arena.len() == start {
            return None;
        }
        assert!(!self.open.is_empty(), "text outside any open element");
        let sym = self.intern_html(names::TEXT);
        let id = NodeId::from_index(self.nodes.len());
        let span = Span::between(start, self.arena.len());
        self.nodes.push(NodeData::new(sym, NodeKind::Text, span));
        self.attach(id);
        Some(id)
    }

    /// Close the innermost open element.
    ///
    /// # Panics
    /// Panics if nothing is open.
    pub fn close(&mut self) {
        self.open.pop().expect("close without matching open");
        if self.open.is_empty() {
            self.finished_root = true;
        }
    }

    /// Label of the innermost open element, if any — used by forgiving
    /// parsers to decide on implied end tags.
    pub fn current_label(&self) -> Option<&str> {
        self.open
            .last()
            .map(|&n| self.interner.resolve(self.nodes[n.index()].label))
    }

    /// Depth of the open-element stack.
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }

    /// Finish construction. Closes any still-open elements (forgiving-HTML
    /// behaviour), trims the node, attribute and text storage to size and
    /// freezes the document, computing its [`Order`].
    ///
    /// # Panics
    /// Panics if no node was ever added — trees have at least one node.
    pub fn finish(mut self) -> Document {
        self.open.clear();
        self.finished_root = true;
        assert!(!self.nodes.is_empty(), "a document needs at least one node");
        self.nodes.shrink_to_fit();
        self.arena.shrink_to_fit();
        self.attr_list.shrink_to_fit();
        let order = Order::compute(&self.nodes);
        Document {
            nodes: self.nodes,
            interner: self.interner,
            order,
            arena: self.arena,
            attr_list: self.attr_list,
        }
    }

    fn attach(&mut self, id: NodeId) {
        if let Some(&parent) = self.open.last() {
            self.nodes[id.index()].parent = Link::to(parent);
            let p = &mut self.nodes[parent.index()];
            match p.last_child.get() {
                None => {
                    p.first_child = Link::to(id);
                    p.last_child = Link::to(id);
                }
                Some(prev) => {
                    p.last_child = Link::to(id);
                    self.nodes[prev.index()].next_sibling = Link::to(id);
                    self.nodes[id.index()].prev_sibling = Link::to(prev);
                }
            }
        } else {
            assert_eq!(
                id,
                NodeId::ROOT,
                "only the first node may be parentless (the root)"
            );
        }
    }
}

/// Error from [`from_sexp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SexpError {
    /// Byte offset of the problem.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for SexpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "s-expression error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for SexpError {}

/// Parse a document literal:
///
/// ```text
/// doc      := element
/// element  := '(' name (attr | child)* ')'
/// attr     := name '=' '"' chars '"'
/// child    := element | '"' chars '"'      (a text node)
/// ```
///
/// Whitespace between tokens is insignificant. `\"` and `\\` escapes are
/// supported inside strings.
pub fn from_sexp(input: &str) -> Result<Document, SexpError> {
    let mut p = SexpParser {
        bytes: input.as_bytes(),
        pos: 0,
        builder: TreeBuilder::new(),
    };
    p.skip_ws();
    p.element()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input after document"));
    }
    Ok(p.builder.finish())
}

struct SexpParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    builder: TreeBuilder,
}

impl SexpParser<'_> {
    fn err(&self, msg: &str) -> SexpError {
        SexpError {
            at: self.pos,
            message: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn element(&mut self) -> Result<(), SexpError> {
        if self.bytes.get(self.pos) != Some(&b'(') {
            return Err(self.err("expected '('"));
        }
        self.pos += 1;
        self.skip_ws();
        let name = self.name()?;
        self.builder.open(&name);
        loop {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b')') => {
                    self.pos += 1;
                    self.builder.close();
                    return Ok(());
                }
                Some(b'(') => self.element()?,
                Some(b'"') => {
                    let s = self.string()?;
                    self.builder.text(&s);
                }
                Some(_) => {
                    // attribute: name = "value"
                    let name = self.name()?;
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'=') {
                        return Err(self.err("expected '=' after attribute name"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let val = self.string()?;
                    self.builder.attr(&name, &val);
                }
                None => return Err(self.err("unexpected end of input inside element")),
            }
        }
    }

    fn name(&mut self) -> Result<String, SexpError> {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_whitespace() || b == b'(' || b == b')' || b == b'=' || b == b'"' {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("name is not UTF-8"))?
            .to_string())
    }

    fn string(&mut self) -> Result<String, SexpError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("string is not UTF-8")),
                b'\\' => {
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    out.push(esc);
                }
                _ => out.push(b),
            }
        }
        Err(self.err("unterminated string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeKind;

    #[test]
    fn builder_produces_sibling_chain() {
        let mut b = TreeBuilder::new();
        b.open("ul");
        for i in 0..3 {
            b.open("li");
            b.text(&format!("item {i}"));
            b.close();
        }
        let doc = b.finish();
        let kids: Vec<_> = doc.children(doc.root()).collect();
        assert_eq!(kids.len(), 3);
        assert!(doc.is_first_sibling(kids[0]));
        assert!(doc.is_last_sibling(kids[2]));
        assert_eq!(doc.text_content(kids[1]), "item 1");
    }

    #[test]
    fn finish_closes_dangling_elements() {
        let mut b = TreeBuilder::new();
        b.open("html");
        b.open("body");
        b.open("p");
        b.text("hello");
        let doc = b.finish();
        assert_eq!(doc.len(), 4);
        assert_eq!(doc.text_content(doc.root()), "hello");
    }

    #[test]
    #[should_panic(expected = "second root")]
    fn two_roots_panic() {
        let mut b = TreeBuilder::new();
        b.open("a");
        b.close();
        b.open("b");
    }

    #[test]
    fn sexp_roundtrip_with_attrs_and_text() {
        let doc = from_sexp(r#"(a href="x.html" (b "bold") " tail")"#).unwrap();
        assert_eq!(doc.attr(doc.root(), "href"), Some("x.html"));
        let kids: Vec<_> = doc.children(doc.root()).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(doc.kind(kids[1]), NodeKind::Text);
        assert_eq!(doc.text(kids[1]), Some(" tail"));
    }

    #[test]
    fn sexp_escapes() {
        let doc = from_sexp(r#"(t "say \"hi\" \\ ok")"#).unwrap();
        assert_eq!(doc.text_content(doc.root()), r#"say "hi" \ ok"#);
    }

    #[test]
    fn sexp_rejects_garbage() {
        assert!(from_sexp("(a").is_err());
        assert!(from_sexp("(a) (b)").is_err());
        assert!(from_sexp("a").is_err());
        assert!(from_sexp(r#"(a x=)"#).is_err());
        assert!(from_sexp(r#"(a "unterminated)"#).is_err());
    }

    #[test]
    fn empty_text_is_skipped() {
        let mut b = TreeBuilder::new();
        b.open("p");
        assert!(b.text("").is_none());
        let doc = b.finish();
        assert_eq!(doc.len(), 1);
    }
}
