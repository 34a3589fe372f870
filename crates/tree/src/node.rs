//! Per-node storage.

use crate::ids::NodeId;
use crate::interner::Symbol;

/// What kind of node this is.
///
/// The relational view of the paper does not distinguish kinds — text is
/// just a `#text`-labeled leaf — but wrappers need the payloads, and the
/// HTML tree builder needs to know which nodes may have children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An element (HTML/XML tag). Carries attributes, may have children.
    Element,
    /// A text leaf. Carries character data (in the document's text arena).
    Text,
}

/// An optional [`NodeId`] in four bytes (`Option<NodeId>` takes eight):
/// `u32::MAX` stands for none, an id no document reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Link(u32);

impl Link {
    pub(crate) const NONE: Link = Link(u32::MAX);

    #[inline]
    pub(crate) fn to(n: NodeId) -> Link {
        Link(n.0)
    }

    #[inline]
    pub(crate) fn get(self) -> Option<NodeId> {
        (self != Link::NONE).then_some(NodeId(self.0))
    }
}

/// A range of a [`Document`](crate::Document)'s text arena or attribute
/// list: `len` entries from `start`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl Span {
    /// The span from `start` to `end` (as `usize` offsets).
    #[inline]
    pub(crate) fn between(start: usize, end: usize) -> Span {
        Span {
            start: start as u32,
            len: (end - start) as u32,
        }
    }

    /// The span as a `usize` range.
    #[inline]
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One attribute: its name and its value's span of the text arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Attr {
    pub(crate) name: Symbol,
    pub(crate) value: Span,
}

/// Arena entry for one node.
///
/// The five structural links realize the binary relations of τ_ur and their
/// inverses (firstchild / firstchild⁻¹ via `parent`+`prev_sibling == None`,
/// nextsibling / nextsibling⁻¹) in O(1). `last_child` accelerates the
/// builder and the `lastsibling` unary relation. Payloads are spans: a
/// text node's character data lives in the document's text arena, an
/// element's attributes in the document's attribute list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeData {
    pub(crate) label: Symbol,
    pub(crate) kind: NodeKind,
    pub(crate) parent: Link,
    pub(crate) first_child: Link,
    pub(crate) last_child: Link,
    pub(crate) next_sibling: Link,
    pub(crate) prev_sibling: Link,
    /// Character data of a text node; empty for elements.
    pub(crate) text: Span,
    /// Attributes of an element, in source order. Linear scan is right:
    /// real HTML elements carry a handful of attributes.
    pub(crate) attrs: Span,
}

impl NodeData {
    pub(crate) fn new(label: Symbol, kind: NodeKind, text: Span) -> Self {
        NodeData {
            label,
            kind,
            parent: Link::NONE,
            first_child: Link::NONE,
            last_child: Link::NONE,
            next_sibling: Link::NONE,
            prev_sibling: Link::NONE,
            text,
            attrs: Span::default(),
        }
    }

    /// The node's interned label.
    #[inline]
    pub fn label(&self) -> Symbol {
        self.label
    }

    /// The node's kind.
    #[inline]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_and_spans_keep_a_node_small() {
        // label, kind, five links, text span, attribute span.
        assert_eq!(std::mem::size_of::<NodeData>(), 44);
        assert_eq!(Link::to(NodeId::ROOT).get(), Some(NodeId::ROOT));
        assert_eq!(Link::NONE.get(), None);
    }
}
