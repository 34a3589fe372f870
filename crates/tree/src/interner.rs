//! Label interning.
//!
//! The paper assumes labels are drawn from a *finite* alphabet Σ. Interning
//! makes `label_a(x)` tests integer comparisons and keeps the per-node
//! footprint at one word.
//!
//! A label from the static [`names`] table costs no
//! allocation: the interner records its [`HtmlName`] and finds it again
//! by binary search over the document's (few) table labels. Only a label
//! outside the table is copied, once, and hashed.

use std::collections::HashMap;
use std::sync::Arc;

use crate::names::{self, HtmlName};

/// An interned label (element name, `#text`, attribute name, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// Index into the interner's table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a label's text lives.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Label {
    /// In the static table.
    Html(HtmlName),
    /// Outside it: one shared copy, also the key of `Interner::owned`.
    Owned(Arc<str>),
}

/// A string interner mapping labels to dense [`Symbol`]s.
///
/// Each [`Document`](crate::Document) owns one interner, holding the
/// labels seen in that document in first-seen order; symbols are only
/// comparable within their document.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Interner {
    /// Every label, indexed by symbol.
    labels: Vec<Label>,
    /// The table labels among them, sorted by name.
    html: Vec<(HtmlName, Symbol)>,
    /// The labels outside the table.
    owned: HashMap<Arc<str>, Symbol>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `labels` labels before it grows.
    pub(crate) fn with_capacity(labels: usize) -> Self {
        Interner {
            labels: Vec::with_capacity(labels),
            html: Vec::with_capacity(labels),
            owned: HashMap::new(),
        }
    }

    /// Intern `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(html) = names::lookup(name) {
            return self.intern_html(html);
        }
        if let Some(&sym) = self.owned.get(name) {
            return sym;
        }
        let sym = self.next_symbol();
        let owned: Arc<str> = name.into();
        self.labels.push(Label::Owned(owned.clone()));
        self.owned.insert(owned, sym);
        sym
    }

    /// Intern a name from the static table: no allocation once the
    /// document's label vectors have room.
    #[inline]
    pub(crate) fn intern_html(&mut self, name: HtmlName) -> Symbol {
        match self.html.binary_search_by_key(&name, |&(n, _)| n) {
            Ok(i) => self.html[i].1,
            Err(i) => {
                let sym = self.next_symbol();
                self.labels.push(Label::Html(name));
                self.html.insert(i, (name, sym));
                sym
            }
        }
    }

    /// Look up an already-interned name without inserting.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        match names::lookup(name) {
            Some(html) => self.get_html(html),
            None => self.owned.get(name).copied(),
        }
    }

    /// Look up an already-interned table name without inserting.
    #[inline]
    fn get_html(&self, name: HtmlName) -> Option<Symbol> {
        self.html
            .binary_search_by_key(&name, |&(n, _)| n)
            .ok()
            .map(|i| self.html[i].1)
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        match &self.labels[sym.index()] {
            Label::Html(name) => name.as_str(),
            Label::Owned(name) => name,
        }
    }

    /// Number of distinct interned labels (|Σ| as seen so far).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterate over `(Symbol, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.labels.len()).map(|i| {
            let sym = Symbol(i as u32);
            (sym, self.resolve(sym))
        })
    }

    fn next_symbol(&self) -> Symbol {
        Symbol(self.labels.len() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("table");
        let b = i.intern("table");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("td");
        let b = i.intern("tr");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "td");
        assert_eq!(i.resolve(b), "tr");
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert!(i.get("div").is_none());
        i.intern("div");
        assert!(i.get("div").is_some());
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_preserves_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let names: Vec<_> = i.iter().map(|(_, n)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn table_and_owned_labels_share_one_symbol_space() {
        let mut i = Interner::new();
        let custom = i.intern("my-widget");
        let td = i.intern_html(names::TD);
        let upper = i.intern("TD");
        assert_eq!(
            i.intern("td"),
            td,
            "a table name interns to its table entry"
        );
        assert_ne!(upper, td, "interning is case-sensitive");
        assert_eq!(i.intern("my-widget"), custom);
        assert_eq!(i.get_html(names::TD), Some(td));
        assert_eq!(i.get_html(names::TR), None);
        let order: Vec<_> = i.iter().map(|(s, n)| (s.index(), n.to_string())).collect();
        assert_eq!(
            order,
            vec![(0, "my-widget".into()), (1, "td".into()), (2, "TD".into())]
        );
    }
}
