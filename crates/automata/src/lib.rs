//! # lixto-automata
//!
//! Tree automata over the first-child/next-sibling binary encoding, and
//! monadic second-order logic (MSO) — the paper's expressiveness yardstick.
//!
//! Section 2.1: "We assume unary queries in monadic second-order logic
//! (MSO) over trees as the expressiveness yardstick for information
//! extraction functions", and Theorem 2.5 states that unary MSO queries
//! and monadic datalog over τ_ur coincide. This crate provides the
//! automata-theoretic machinery behind those statements:
//!
//! * [`binenc`] — the binary (first-child/next-sibling) view of an
//!   unranked document, Figure 1 of the paper;
//! * [`nta`] / [`dta`] — nondeterministic and deterministic bottom-up
//!   binary tree automata with product, union, projection, determinization
//!   and complement ([`ops`]);
//! * [`mso`] — an MSO formula AST compiled to automata in the classical
//!   Thatcher–Wright style (variables become label bits; ∧/∨ are products,
//!   ¬ is determinize-and-complement, ∃ is projection), answering unary
//!   queries over documents;
//! * [`bruteforce`] — a direct (exponential) MSO model checker used as a
//!   cross-validation oracle for the automaton pipeline;
//! * [`to_datalog`] — the run of a deterministic automaton computed by a
//!   monadic datalog program (the automaton side of the Theorem 2.5
//!   construction): one intensional predicate per state, rules following
//!   the FCNS recursion, and a selection predicate gated on global
//!   acceptance.
//!
//! The top-down path automaton the Elog executor runs element paths
//! with lives next to the path code, in `lixto_elog::topdown`.
//!
//! # Example — an MSO unary query
//!
//! ```
//! use lixto_automata::mso::{exists_fo, and, label, first_child, MsoQuery};
//!
//! // φ(x) = ∃y. firstchild(y, x) ∧ label_ul(y): "x is a first child of a ul"
//! let phi = exists_fo("y", and(first_child("y", "x"), label("y", "ul")));
//! let query = MsoQuery::new("x", phi).unwrap();
//! let doc = lixto_html::parse("<ul><li>first</li><li>second</li></ul>");
//! let selected = query.eval(&doc);
//! assert_eq!(selected.len(), 1);
//! assert_eq!(doc.label_str(selected[0]), "li");
//! ```

#![forbid(unsafe_code)]

pub mod binenc;
pub mod bruteforce;
pub mod dta;
pub mod mso;
pub mod nta;
pub mod ops;
pub mod to_datalog;

pub use dta::Dta;
pub use nta::{Nta, SymbolClass};
