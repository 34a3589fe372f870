//! The immutable document tree and the τ_ur relational view.

use crate::ids::NodeId;
use crate::interner::{Interner, Symbol};
use crate::node::{Attr, Link, NodeData, NodeKind};
use crate::order::Order;

/// An immutable unranked ordered labeled tree.
///
/// Construct with [`TreeBuilder`](crate::TreeBuilder) or
/// [`build::from_sexp`](crate::build::from_sexp); parse HTML with the
/// `lixto-html` crate. Once built, a document never changes — pre/post
/// numbering is computed at freeze time, so ancestor and document-order
/// tests are O(1) forever after.
///
/// All τ_ur relations of the paper (Section 2.2) are exposed:
///
/// | paper relation        | accessor                                  |
/// |-----------------------|-------------------------------------------|
/// | `dom`                 | [`Document::node_ids`]                    |
/// | `root`                | [`Document::root`] / [`Document::is_root`]|
/// | `leaf`                | [`Document::is_leaf`]                     |
/// | `lastsibling`         | [`Document::is_last_sibling`]             |
/// | `label_a(x)`          | [`Document::label`] / [`Document::has_label`] |
/// | `firstchild(x,y)`     | [`Document::first_child`]                 |
/// | `nextsibling(x,y)`    | [`Document::next_sibling`]                |
/// | document order ≺      | [`Document::doc_before`] / [`Order`]      |
///
/// Payloads are stored once per document, not per node: the character
/// data of every text node and the value of every attribute sit in one
/// text arena, and a node holds spans into it and into the document's
/// attribute list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) interner: Interner,
    pub(crate) order: Order,
    /// Text-node data and attribute values, back to back.
    pub(crate) arena: String,
    /// Every element's attributes; a node's `attrs` span indexes this.
    pub(crate) attr_list: Vec<Attr>,
}

impl Document {
    /// Number of nodes (|dom|).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Documents are never empty — trees have at least one node.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate over all node ids in arena order (which is preorder for
    /// builder-produced documents, but do not rely on that — use
    /// [`Order::preorder`] when order matters).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// τ_ur `root(x)`.
    #[inline]
    pub fn is_root(&self, n: NodeId) -> bool {
        n == NodeId::ROOT
    }

    /// τ_ur `leaf(x)` — true iff the node has no children.
    #[inline]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.node(n).first_child == Link::NONE
    }

    /// τ_ur `lastsibling(x)` — true iff the node is the rightmost child of
    /// some node. Following the paper, the root is *not* a last sibling.
    #[inline]
    pub fn is_last_sibling(&self, n: NodeId) -> bool {
        let d = self.node(n);
        d.parent != Link::NONE && d.next_sibling == Link::NONE
    }

    /// True iff the node is the leftmost child of some node (the unary
    /// `Firstsibling` predicate of Section 4).
    #[inline]
    pub fn is_first_sibling(&self, n: NodeId) -> bool {
        let d = self.node(n);
        d.parent != Link::NONE && d.prev_sibling == Link::NONE
    }

    /// The node's interned label.
    #[inline]
    pub fn label(&self, n: NodeId) -> Symbol {
        self.node(n).label
    }

    /// The node's label as a string.
    #[inline]
    pub fn label_str(&self, n: NodeId) -> &str {
        self.interner.resolve(self.node(n).label)
    }

    /// τ_ur `label_a(x)` by string; false if `a` never occurs in the
    /// document at all.
    pub fn has_label(&self, n: NodeId, a: &str) -> bool {
        match self.interner.get(a) {
            Some(sym) => self.node(n).label == sym,
            None => false,
        }
    }

    /// The document's label interner.
    #[inline]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// τ_ur `firstchild(x, y)` as a partial function x → y.
    #[inline]
    pub fn first_child(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).first_child.get()
    }

    /// Rightmost child, if any.
    #[inline]
    pub fn last_child(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).last_child.get()
    }

    /// τ_ur `nextsibling(x, y)` as a partial function x → y.
    #[inline]
    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).next_sibling.get()
    }

    /// Inverse of `nextsibling`.
    #[inline]
    pub fn prev_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).prev_sibling.get()
    }

    /// Inverse of `firstchild ∪ nextsibling⁺` composition: the parent.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).parent.get()
    }

    /// The node's kind (element or text).
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.node(n).kind
    }

    /// Character data of a text node (None for elements).
    pub fn text(&self, n: NodeId) -> Option<&str> {
        let d = self.node(n);
        (d.kind == NodeKind::Text).then(|| &self.arena[d.text.range()])
    }

    /// Attribute value by name, if present on this element.
    pub fn attr(&self, n: NodeId, name: &str) -> Option<&str> {
        let sym = self.interner.get(name)?;
        self.node_attrs(n)
            .iter()
            .find(|a| a.name == sym)
            .map(|a| &self.arena[a.value.range()])
    }

    /// All attributes of an element, in source order.
    pub fn attrs(&self, n: NodeId) -> impl Iterator<Item = (&str, &str)> {
        self.node_attrs(n)
            .iter()
            .map(move |a| (self.interner.resolve(a.name), &self.arena[a.value.range()]))
    }

    fn node_attrs(&self, n: NodeId) -> &[Attr] {
        &self.attr_list[self.node(n).attrs.range()]
    }

    /// Children of `n`, left to right.
    pub fn children(&self, n: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.node(n).first_child.get(),
        }
    }

    /// Number of children.
    pub fn child_count(&self, n: NodeId) -> usize {
        self.children(n).count()
    }

    /// Descendants of `n` in document order, excluding `n` itself.
    pub fn descendants(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let (start, end) = self.order.subtree_range(n);
        self.order.preorder()[start + 1..end].iter().copied()
    }

    /// `n` and its descendants in document order.
    pub fn descendants_or_self(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let (start, end) = self.order.subtree_range(n);
        self.order.preorder()[start..end].iter().copied()
    }

    /// Ancestors of `n` from parent up to the root.
    pub fn ancestors(&self, n: NodeId) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            next: self.node(n).parent.get(),
        }
    }

    /// `child*(a, b)`: is `a` an ancestor of `b` or equal to it? O(1).
    #[inline]
    pub fn is_ancestor_or_self(&self, a: NodeId, b: NodeId) -> bool {
        self.order.is_ancestor_or_self(a, b)
    }

    /// `child+(a, b)`: is `a` a proper ancestor of `b`? O(1).
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.order.is_ancestor_or_self(a, b)
    }

    /// Document order test `a ≺ b` (strict). O(1).
    #[inline]
    pub fn doc_before(&self, a: NodeId, b: NodeId) -> bool {
        self.order.pre(a) < self.order.pre(b)
    }

    /// XPath `following(a, b)`: `b` starts after the subtree of `a` ends.
    /// Equivalently (paper, Section 4): ∃z1,z2 with child*(z1,a),
    /// nextsibling+(z1,z2), child*(z2,b). O(1).
    #[inline]
    pub fn is_following(&self, a: NodeId, b: NodeId) -> bool {
        self.order.subtree_range(a).1 <= self.order.pre(b) as usize
    }

    /// Pre/post numbering and preorder sequence.
    #[inline]
    pub fn order(&self) -> &Order {
        &self.order
    }

    /// Concatenated text of all text nodes in the subtree of `n`, in
    /// document order. This is the "element text" that Elog's string
    /// conditions and `subtext` extraction operate on.
    pub fn text_content(&self, n: NodeId) -> String {
        let mut out = String::new();
        for d in self.descendants_or_self(n) {
            if let Some(t) = self.text(d) {
                out.push_str(t);
            }
        }
        out
    }

    /// Depth of `n` (root has depth 0).
    pub fn depth(&self, n: NodeId) -> usize {
        self.ancestors(n).count()
    }

    #[inline]
    pub(crate) fn node(&self, n: NodeId) -> &NodeData {
        &self.nodes[n.index()]
    }
}

/// Iterator over a node's children (see [`Document::children`]).
pub struct Children<'d> {
    doc: &'d Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.node(cur).next_sibling.get();
        Some(cur)
    }
}

/// Iterator over a node's ancestors (see [`Document::ancestors`]).
pub struct Ancestors<'d> {
    doc: &'d Document,
    next: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.node(cur).parent.get();
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use crate::build::from_sexp;

    #[test]
    fn tau_ur_relations_of_figure_1() {
        // Figure 1 of the paper: root n1 with children n2..; we encode
        //        n1
        //      / | \
        //    n2 n3 n6    with n3 having children n4 n5
        let doc = from_sexp("(n1 (n2) (n3 (n4) (n5)) (n6))").unwrap();
        let n1 = doc.root();
        let kids: Vec<_> = doc.children(n1).collect();
        assert_eq!(kids.len(), 3);
        let (n2, n3, n6) = (kids[0], kids[1], kids[2]);
        assert_eq!(doc.first_child(n1), Some(n2));
        assert_eq!(doc.next_sibling(n2), Some(n3));
        assert_eq!(doc.next_sibling(n3), Some(n6));
        assert_eq!(doc.next_sibling(n6), None);
        assert!(doc.is_last_sibling(n6));
        assert!(!doc.is_last_sibling(n1), "root is not a last sibling");
        assert!(doc.is_leaf(n2));
        assert!(!doc.is_leaf(n3));
        let grandkids: Vec<_> = doc.children(n3).collect();
        assert_eq!(doc.label_str(grandkids[0]), "n4");
        assert!(doc.is_first_sibling(n2));
        assert!(!doc.is_first_sibling(n3));
    }

    #[test]
    fn ancestor_and_following_are_consistent_with_definitions() {
        let doc = from_sexp("(a (b (c) (d)) (e (f)))").unwrap();
        let ids: Vec<_> = doc.order().preorder().to_vec();
        // preorder: a b c d e f
        let (a, b, c, d, e, f) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        assert!(doc.is_ancestor(a, c));
        assert!(doc.is_ancestor_or_self(a, a));
        assert!(!doc.is_ancestor(a, a));
        assert!(!doc.is_ancestor(c, a));
        // following: everything strictly after the subtree
        assert!(doc.is_following(b, e));
        assert!(doc.is_following(c, d));
        assert!(!doc.is_following(b, c), "descendants are not following");
        assert!(!doc.is_following(e, b));
        assert!(doc.is_following(d, f));
        // doc order
        assert!(doc.doc_before(a, b) && doc.doc_before(d, e) && doc.doc_before(e, f));
    }

    #[test]
    fn text_content_concatenates_in_document_order() {
        let doc = from_sexp(r#"(tr (td "1 " (b "bid")) (td "now"))"#).unwrap();
        assert_eq!(doc.text_content(doc.root()), "1 bidnow");
    }

    #[test]
    fn attrs_are_accessible() {
        let doc = from_sexp(r#"(table bgcolor="green" width="100%")"#).unwrap();
        assert_eq!(doc.attr(doc.root(), "bgcolor"), Some("green"));
        assert_eq!(doc.attr(doc.root(), "width"), Some("100%"));
        assert_eq!(doc.attr(doc.root(), "missing"), None);
        assert_eq!(doc.attrs(doc.root()).count(), 2);
    }

    #[test]
    fn descendants_iterate_in_document_order() {
        let doc = from_sexp("(a (b (c)) (d))").unwrap();
        let labels: Vec<_> = doc
            .descendants(doc.root())
            .map(|n| doc.label_str(n).to_string())
            .collect();
        assert_eq!(labels, vec!["b", "c", "d"]);
        let labels2: Vec<_> = doc
            .descendants_or_self(doc.root())
            .map(|n| doc.label_str(n).to_string())
            .collect();
        assert_eq!(labels2, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn depth_counts_edges_to_root() {
        let doc = from_sexp("(a (b (c)))").unwrap();
        let c = doc.descendants(doc.root()).last().unwrap();
        assert_eq!(doc.depth(doc.root()), 0);
        assert_eq!(doc.depth(c), 2);
    }
}
