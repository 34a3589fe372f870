//! # lixto-html
//!
//! HTML parsing substrate: turns HTML source into the unranked ordered
//! labeled trees (`lixto_tree::Document`) that wrappers run on.
//!
//! The paper's pipeline (Figure 2) starts from "an HTML document" that the
//! Extractor receives already parsed into a document tree; the commercial
//! Lixto system used a Java HTML/DOM stack. This crate is the from-scratch
//! replacement: a tokenizer ([`tokenizer`]) feeding a *forgiving* tree
//! builder ([`treebuilder`]) that applies the HTML idioms real pages rely
//! on — implied end tags (`<li>`, `<tr>`, `<td>`, `<p>`, …), void elements,
//! raw-text elements (`<script>`, `<style>`), case-insensitive names, and
//! entity decoding ([`entities`]).
//!
//! A parse costs a few nanoseconds per byte and a fixed number of heap
//! allocations per document, not per token. One scanner walks the source
//! and hands out slices borrowed from it; the public [`Tokenizer`] turns
//! them into [`Token`]s that borrow wherever nothing changes
//! (`Cow::Owned` only for decoded entities and lower-cased names), while
//! [`parse`] reads the scanner directly: names are matched against the
//! static table of HTML names ([`lixto_tree::names`]) ignoring ASCII
//! case, the open-element stack holds [`Symbol`](lixto_tree::Symbol)s
//! with their table entries, so the implied-end, void and raw-text rules
//! compare small integers, an open count per symbol drops an end tag
//! with nothing to close in O(1), and text and attribute values are
//! entity-decoded straight into the document's one text arena.
//!
//! It is deliberately not a full WHATWG implementation (no foster
//! parenting, no active formatting elements): wrapping workloads — and the
//! synthetic sites in `lixto-workloads` — exercise the table/list/link
//! idioms, which are handled faithfully.
//!
//! # Example
//!
//! ```
//! let doc = lixto_html::parse("<table><tr><td>Item<td>Price</table>");
//! let tds: Vec<_> = doc
//!     .node_ids()
//!     .filter(|&n| doc.label_str(n) == "td")
//!     .collect();
//! assert_eq!(tds.len(), 2, "implied </td> must be inserted");
//! ```

#![forbid(unsafe_code)]

pub mod entities;
pub mod tokenizer;
pub mod treebuilder;

#[cfg(test)]
mod properties;

pub use tokenizer::{Token, Tokenizer};
pub use treebuilder::{parse, parse_with_options, ParseOptions};
