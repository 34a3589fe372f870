//! # lixto-tree
//!
//! Unranked ordered labeled trees — the data model every other `lixto-rs`
//! crate is defined over.
//!
//! The PODS 2004 Lixto paper (Section 2.2) models an HTML/XML document as a
//! relational structure
//!
//! ```text
//! t_ur = <dom, root, leaf, (label_a)_{a in Sigma},
//!         firstchild, nextsibling, lastsibling>
//! ```
//!
//! over a finite alphabet Σ, together with the *document order* relation ≺
//! (the order in which opening tags are reached when reading the document
//! left to right).
//!
//! This crate provides:
//!
//! * [`Document`] — an immutable arena-backed tree, built through
//!   [`TreeBuilder`] (or the s-expression convenience parser in [`build`]),
//!   with interned labels ([`Symbol`]; names from the static [`names`]
//!   table are interned without allocating) and text/attribute payloads
//!   held in one text arena per document;
//! * the τ_ur relations as O(1) accessors plus the derived axes of XPath
//!   ([`axes`]): `child`, `child+`, `child*`, `following`, …;
//! * cached pre/post numbering ([`order`]) giving O(1) ancestor and
//!   document-order tests;
//! * the *tree minor* computation of Section 2.1 ([`minor`]) — the operation
//!   by which a wrapper's unary predicate assignment is turned into an
//!   output tree;
//! * rendering helpers ([`render`]).
//!
//! Strings and attribute values are, in the paper's footnote 4, conceptually
//! encoded as subtrees over a character alphabet. We store them as
//! payloads (a text node's string and an element's attribute values are
//! spans of its document's text arena) but expose the same relational
//! view: a text node is a `#text`-labeled leaf of `dom`.

#![forbid(unsafe_code)]

pub mod axes;
pub mod build;
pub mod document;
pub mod ids;
pub mod interner;
pub mod minor;
pub mod names;
pub mod node;
pub mod order;
pub mod render;

pub use axes::Axis;
pub use build::TreeBuilder;
pub use document::Document;
pub use ids::NodeId;
pub use interner::{Interner, Symbol};
pub use names::HtmlName;
pub use node::{NodeData, NodeKind};
pub use order::Order;

/// The label used for text nodes. Text is modeled as labeled leaves of the
/// document tree, per footnote 4 of the paper.
pub const TEXT_LABEL: &str = "#text";
