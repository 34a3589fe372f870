//! # lixto-elog
//!
//! The Elog wrapping language and its Extractor — the internal language of
//! the Lixto Visual Wrapper (Section 3.3 of the PODS 2004 paper).
//!
//! A standard Elog rule is
//!
//! ```text
//! New(S, X) ← Par(_, S), Ex(S, X), Φ(S, X)
//! ```
//!
//! where `S` is the parent-pattern instance variable, `X` the new pattern
//! instance, `Ex` an extraction definition atom and `Φ` a set of condition
//! atoms. Pattern predicates are *binary* — "the binary pattern relations
//! define a multigraph that is the basis of the transformation of the
//! wrapped data into XML" — and that multigraph is exactly the
//! [`InstanceBase`] the Extractor produces.
//!
//! Implemented language features (each mapped to the paper's description):
//!
//! * **tree extraction** `subelem` with element-path expressions: child
//!   (`.td`) and descendant (`?.td`) steps, `*` wildcards, regex tag
//!   tests, attribute conditions `(attr, pattern, exact|substr|regvar)`
//!   including the `elementtext` pseudo-attribute and regex variables
//!   `\var[Y]`;
//! * **sequence extraction** `subsq` (the `<tableseq>` pattern of
//!   Figure 5): maximal runs of consecutive children delimited by start
//!   and end path conditions;
//! * **string extraction** `subtext` (regex over element text, optionally
//!   binding variables) and `subatt` (attribute values);
//! * **context conditions** `before` / `after` / `notbefore` / `notafter`
//!   with distance tolerance intervals, optionally binding the context
//!   node to a variable;
//! * **internal conditions** `contains` / `notcontains` and `firstsubtree`;
//! * **concept conditions** — syntactic (regex: `isCurrency`, `isDate`,
//!   `isNumber`, …) and semantic (ontology table: `isCountry`, …), plus
//!   user-defined ones;
//! * **comparison conditions** on bound variables (dates and numbers);
//! * **pattern references** (`price(_, Y)` in the `<bids>` rule of
//!   Figure 5);
//! * **specialization rules** (rules without an extraction atom, matching
//!   a subset of the parent pattern — footnote 6);
//! * **range criteria** (keep only the i-th…j-th matches);
//! * **`document()` and crawling**: entry rules fetch a URL from a
//!   [`web::WebSource`], crawl rules follow URLs bound from attributes,
//!   enabling recursive wrapping across pages.
//!
//! The Extractor evaluates patterns to a fixpoint (recursion across
//! documents included) and yields the hierarchically ordered
//! [`InstanceBase`], from which `lixto-core`'s XML transformer builds the
//! output document.

#![forbid(unsafe_code)]

pub mod ast;
pub mod compile;
pub mod concepts;
pub mod eval;
mod exec;
pub mod fxhash;
pub mod instances;
pub mod optimize;
pub mod parser;
pub mod path;
pub mod plan;
pub mod pretty;
pub mod topdown;
pub mod web;

pub use ast::{
    AttrCond, AttrMode, Condition, ElementPath, ElogProgram, ElogRule, Extraction, ParentSpec,
    PathStep, TagTest, UrlExpr,
};
pub use concepts::ConceptRegistry;
pub use eval::{ExtractionResult, Extractor, ExtractorOptions};
pub use exec::ExecProbe;
pub use instances::{Instance, InstanceBase, Target};
pub use optimize::{OptimizeReport, OptimizedPlan, Schedule};
pub use parser::{parse_program, ParseError, EBAY_PROGRAM};
pub use plan::{CompileError, WrapperPlan};
pub use web::{SharedWeb, SinglePage, StaticWeb, WebSource};
