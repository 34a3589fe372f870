//! Compiled wrapper plans.
//!
//! The paper's central economics are "compile a declarative Elog wrapper
//! once, run it over many documents": the Visual Wrapper emits a program
//! a service then executes continuously (§6). The interpreted
//! [`Extractor`](crate::Extractor) re-walks the raw AST on every run —
//! re-compiling every regex, hashing variable names into `HashMap`
//! environments, and scanning the instance base linearly for parents and
//! duplicates. A [`WrapperPlan`] is the once-per-deploy artifact that
//! removes all of that from the per-document path:
//!
//! * pattern names, variable names and concept references are interned
//!   into dense `u32` ids at compile time — the evaluation environment
//!   becomes a `Vec<Option<Value>>` frame indexed by slot, with no
//!   per-binding hashing or `String` clones;
//! * every rule's parent-pattern edge is resolved to a pattern id, and an
//!   indexed rule table ([`WrapperPlan::rules_for_parent`]) replaces the
//!   per-application name scan;
//! * element-path tag regexes, `regvar` attribute patterns and `subtext`
//!   extraction regexes are compiled exactly once, at plan-compile time;
//!   concept matchers ([`PlanConcept`]) are compiled once per concept
//!   registry and shared by every plan compiled against it;
//! * unknown parent patterns, unbound variables, dangling concept
//!   references and malformed regexes are rejected *at compile time* with
//!   a structured [`CompileError`] — a deploy-time 400 instead of a
//!   per-request silent empty result.
//!
//! A compiled plan can additionally be run through the optimizer phase
//! ([`crate::optimize`]) that sits between `compile` and `exec`: rule
//! scheduling over the pattern-dependency DAG (acyclic wrappers run in a
//! single pass), fusion of each element-path into a precompiled
//! bit-parallel tree automaton walk, and hoisting of identical
//! sub-matchers shared across rules. The optimizer consumes exactly the
//! structures defined here ([`PlanRule`], [`PlanPath`], [`PlanStep`],
//! [`PlanCondition`]) and never rewrites them — it attaches a parallel
//! table of fused/scheduled forms the executor consults.
//!
//! Execution of a plan (see `exec`) — optimized or not — is
//! result-identical to the interpreted reference evaluator — byte for
//! byte, including instance order — which the `plan_equivalence`
//! integration test asserts across the whole workload corpus.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use lixto_regexlite::Regex;

use crate::ast::ElogProgram;

/// Dense id of a pattern name within a plan (index into
/// [`WrapperPlan::patterns`]).
pub type PatternId = u32;

/// Dense id of a rule-local variable (index into the rule's slot frame).
pub type SlotId = u32;

/// Why a program failed to compile into a [`WrapperPlan`].
///
/// Every variant carries the offending rule (0-based source order) and
/// the pattern that rule defines, so a deploy frontend can point at the
/// exact rule of a rejected wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A rule's parent atom names a pattern no rule defines.
    UnknownParentPattern {
        /// 0-based rule index in source order.
        rule: usize,
        /// The pattern the rule defines.
        pattern: String,
        /// The undefined parent pattern.
        parent: String,
    },
    /// A condition references a variable no extraction atom or earlier
    /// condition binds.
    UnboundVariable {
        /// 0-based rule index.
        rule: usize,
        /// The pattern the rule defines.
        pattern: String,
        /// The unbound variable.
        variable: String,
    },
    /// A concept condition names a concept the registry does not define.
    UnknownConcept {
        /// 0-based rule index.
        rule: usize,
        /// The pattern the rule defines.
        pattern: String,
        /// The undefined concept.
        concept: String,
    },
    /// A regex (tag test, `regvar` attribute, `subtext` pattern or
    /// syntactic concept) does not compile.
    BadRegex {
        /// 0-based rule index.
        rule: usize,
        /// The pattern the rule defines.
        pattern: String,
        /// The regex source that failed.
        regex: String,
        /// The regex engine's message.
        message: String,
    },
    /// An entry rule's `document()` URL is a variable; entry URLs must
    /// be constant.
    EntryUrlNotConstant {
        /// 0-based rule index.
        rule: usize,
        /// The pattern the rule defines.
        pattern: String,
    },
}

impl CompileError {
    /// A stable machine-readable code for the error kind.
    pub fn code(&self) -> &'static str {
        match self {
            CompileError::UnknownParentPattern { .. } => "unknown_parent_pattern",
            CompileError::UnboundVariable { .. } => "unbound_variable",
            CompileError::UnknownConcept { .. } => "unknown_concept",
            CompileError::BadRegex { .. } => "bad_regex",
            CompileError::EntryUrlNotConstant { .. } => "entry_url_not_constant",
        }
    }

    /// The 0-based source-order index of the offending rule.
    pub fn rule(&self) -> usize {
        match self {
            CompileError::UnknownParentPattern { rule, .. }
            | CompileError::UnboundVariable { rule, .. }
            | CompileError::UnknownConcept { rule, .. }
            | CompileError::BadRegex { rule, .. }
            | CompileError::EntryUrlNotConstant { rule, .. } => *rule,
        }
    }

    /// The pattern the offending rule defines.
    pub fn pattern(&self) -> &str {
        match self {
            CompileError::UnknownParentPattern { pattern, .. }
            | CompileError::UnboundVariable { pattern, .. }
            | CompileError::UnknownConcept { pattern, .. }
            | CompileError::BadRegex { pattern, .. }
            | CompileError::EntryUrlNotConstant { pattern, .. } => pattern,
        }
    }

    /// The offending identifier (parent pattern, variable, concept, or
    /// regex source), when the variant has one.
    pub fn subject(&self) -> Option<&str> {
        match self {
            CompileError::UnknownParentPattern { parent, .. } => Some(parent),
            CompileError::UnboundVariable { variable, .. } => Some(variable),
            CompileError::UnknownConcept { concept, .. } => Some(concept),
            CompileError::BadRegex { regex, .. } => Some(regex),
            CompileError::EntryUrlNotConstant { .. } => None,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownParentPattern {
                rule,
                pattern,
                parent,
            } => write!(
                f,
                "rule {rule} ({pattern:?}): unknown parent pattern {parent:?}"
            ),
            CompileError::UnboundVariable {
                rule,
                pattern,
                variable,
            } => write!(
                f,
                "rule {rule} ({pattern:?}): unbound variable {variable:?}"
            ),
            CompileError::UnknownConcept {
                rule,
                pattern,
                concept,
            } => write!(f, "rule {rule} ({pattern:?}): unknown concept {concept:?}"),
            CompileError::BadRegex {
                rule,
                pattern,
                regex,
                message,
            } => write!(
                f,
                "rule {rule} ({pattern:?}): regex {regex:?} does not compile: {message}"
            ),
            CompileError::EntryUrlNotConstant { rule, pattern } => write!(
                f,
                "rule {rule} ({pattern:?}): entry document() URL must be a constant"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// A tag test with any regex precompiled.
#[derive(Debug, Clone)]
pub enum PlanTag {
    /// Exact tag name.
    Name(String),
    /// `*` — any element.
    Any,
    /// Precompiled (case-insensitive) regex over the tag name.
    Regex(Regex),
}

/// One step of a compiled element path.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Descend to any depth (`?.tag`) instead of one child level.
    pub descend: bool,
    /// The tag test.
    pub tag: PlanTag,
}

/// A `\var[V]` pattern compiled once: the regex plus its capture names.
/// A capture with a slot binds that variable; a capture without one must
/// still participate in the match (the interpreted semantics) but its
/// text is discarded — delimiter and context paths never bind.
#[derive(Debug, Clone)]
pub struct PlanRegvar {
    /// The compiled regex (named groups per `\var`).
    pub regex: Regex,
    /// `(group name, destination slot)` in `\var` order.
    pub captures: Vec<(String, Option<SlotId>)>,
}

/// An attribute condition with its matcher precompiled.
#[derive(Debug, Clone)]
pub struct PlanAttr {
    /// Attribute name, or `elementtext` for the text pseudo-attribute.
    pub attr: String,
    /// The match mode.
    pub matcher: PlanAttrMatch,
}

/// The compiled forms of [`AttrMode`](crate::ast::AttrMode).
#[derive(Debug, Clone)]
pub enum PlanAttrMatch {
    /// Trimmed value equals the pattern.
    Exact(String),
    /// Value contains the pattern.
    Substr(String),
    /// Value matches the precompiled `\var` regex.
    Regvar(PlanRegvar),
}

/// An element path with every matcher precompiled.
#[derive(Debug, Clone, Default)]
pub struct PlanPath {
    /// The steps, outermost first.
    pub steps: Vec<PlanStep>,
    /// Attribute conditions on the final node.
    pub attrs: Vec<PlanAttr>,
}

/// A compiled URL expression.
#[derive(Debug, Clone)]
pub enum PlanUrl {
    /// A fixed URL.
    Const(String),
    /// A slot bound by an `attrbind` condition in the same rule.
    Slot(SlotId),
}

/// A rule's parent source with the pattern edge resolved.
#[derive(Debug, Clone)]
pub enum PlanParent {
    /// Instances of another pattern, by id.
    Pattern(PatternId),
    /// An entry rule fetching a constant URL.
    Document(String),
}

/// Compiled extraction atoms.
#[derive(Debug, Clone)]
pub enum PlanExtraction {
    /// Specialization: X := S.
    Specialize,
    /// Tree extraction along a compiled path.
    Subelem(PlanPath),
    /// Sequence extraction (context / start / end delimiters).
    Subsq {
        /// Path to the node whose children are scanned.
        context: PlanPath,
        /// First-member delimiter.
        start: PlanPath,
        /// Last-member delimiter.
        end: PlanPath,
    },
    /// String extraction with the regex compiled once.
    Subtext(PlanRegvar),
    /// Attribute value extraction.
    Subatt(String),
    /// Crawl: fetch the page at the URL.
    Document(PlanUrl),
}

/// A variable reference in a condition: a frame slot, or the implicit
/// target variable `X` falling back to the candidate's text.
#[derive(Debug, Clone, Copy)]
pub enum PlanVarRef {
    /// A bound slot; unbound at runtime (an `attrbind` whose parent is
    /// not a node never fires) fails the condition.
    Slot(SlotId),
    /// A slot for a variable literally named `X`: unbound at runtime
    /// falls back to the candidate target's text, as the interpreted
    /// evaluator's `env.get("X")` miss does.
    SlotOrTarget(SlotId),
    /// The candidate target's text content (`X` when nothing binds it).
    TargetText,
}

/// A compiled concept matcher. The [`ConceptRegistry`](crate::ConceptRegistry)
/// compiles it once, when the concept is registered, and every plan
/// condition naming the concept shares it: cloning one is a
/// reference-count bump, so neither a plan compile nor a concept test
/// compiles a regex.
#[derive(Debug, Clone)]
pub enum PlanConcept {
    /// Syntactic concept: the precompiled (case-insensitive) regex.
    Syntactic(Arc<Regex>),
    /// Semantic concept: the lower-cased ontology members.
    Semantic(Arc<HashSet<String>>),
}

impl PlanConcept {
    /// Does the concept hold for `value`? (Mirrors
    /// [`ConceptRegistry::holds`](crate::ConceptRegistry::holds).)
    pub fn holds(&self, value: &str) -> bool {
        match self {
            PlanConcept::Syntactic(re) => re.is_match(value.trim()),
            PlanConcept::Semantic(set) => set.contains(&value.trim().to_lowercase()),
        }
    }
}

/// The right-hand side of a comparison.
#[derive(Debug, Clone)]
pub enum PlanOperand {
    /// A literal from the source.
    Literal(String),
    /// A bound value.
    Var(PlanVarRef),
}

/// Compiled condition atoms.
#[derive(Debug, Clone)]
pub enum PlanCondition {
    /// `before`/`after` (and their negations) with precompiled path.
    Context {
        /// Path of the context node, searched within S.
        path: PlanPath,
        /// Minimum distance.
        min: u32,
        /// Maximum distance.
        max: u32,
        /// Bind the context node (and the path's `regvar` variables).
        bind: Option<SlotId>,
        /// `notbefore`/`notafter`.
        negated: bool,
        /// `before` when true, `after` when false.
        is_before: bool,
    },
    /// `contains` / `notcontains` on the candidate's subtree.
    Contains {
        /// Path searched within X.
        path: PlanPath,
        /// Negated form.
        negated: bool,
    },
    /// `firstsubtree`.
    FirstSubtree {
        /// The path.
        path: PlanPath,
    },
    /// Concept test on a bound value.
    Concept {
        /// The compiled concept matcher.
        concept: PlanConcept,
        /// The tested value.
        var: PlanVarRef,
        /// Negated form.
        negated: bool,
    },
    /// Comparison of two values.
    Comparison {
        /// Left value.
        left: PlanVarRef,
        /// One of `<`, `<=`, `>`, `>=`, `=`, `!=`.
        op: String,
        /// Right value.
        right: PlanOperand,
    },
    /// Pattern reference: the bound value must be an instance of the
    /// referenced pattern.
    PatternRef {
        /// Referenced pattern id.
        pattern: PatternId,
        /// The bound slot.
        var: SlotId,
    },
    /// Bind an attribute of the parent node.
    AttrBind {
        /// Attribute name.
        attr: String,
        /// Destination slot.
        var: SlotId,
    },
    /// Range criterion — handled at the rule level (see
    /// [`PlanRule::range`]); a no-op at condition position.
    Range,
}

/// One compiled rule.
#[derive(Debug, Clone)]
pub struct PlanRule {
    /// The pattern this rule defines.
    pub pattern: PatternId,
    /// Parent source with the pattern edge resolved.
    pub parent: PlanParent,
    /// Compiled extraction atom.
    pub extraction: PlanExtraction,
    /// Compiled conditions, in source order.
    pub conditions: Vec<PlanCondition>,
    /// Number of variable slots the rule's frame needs.
    pub slots: usize,
    /// Slot names (diagnostics; index = [`SlotId`]).
    pub slot_names: Vec<String>,
    /// The first range criterion `(from, to)`, hoisted out of the
    /// condition list.
    pub range: Option<(usize, usize)>,
    /// Pattern ids referenced by `PatternRef` conditions — together with
    /// the parent edge, the rule's complete dependency set, which the
    /// executor uses to skip re-evaluation when nothing it reads has
    /// changed (semi-naive fixpoint).
    pub refs: Vec<PatternId>,
}

/// A compiled, immutable, shareable wrapper: the product of
/// [`WrapperPlan::compile`](WrapperPlan::compile), optimized by
/// [`OptimizedPlan::new`](crate::OptimizedPlan::new) and executed by
/// [`Extractor::from_optimized`](crate::Extractor::from_optimized).
#[derive(Debug, Clone)]
pub struct WrapperPlan {
    /// The source program (kept for pretty-printing and the interpreted
    /// reference path).
    pub(crate) program: ElogProgram,
    /// Interned pattern names; index = [`PatternId`], in
    /// first-definition order.
    pub(crate) patterns: Vec<String>,
    /// Compiled rules, in source order (execution preserves source order
    /// so plan runs are instance-for-instance identical to the
    /// interpreted evaluator).
    pub(crate) rules: Vec<PlanRule>,
    /// Rule indices per parent pattern id — the indexed rule table.
    pub(crate) rules_by_parent: Vec<Vec<usize>>,
    /// Rule indices of entry (`document()`-parent) rules.
    pub(crate) entry_rules: Vec<usize>,
}

impl WrapperPlan {
    /// The interned pattern table, in first-definition order.
    pub fn patterns(&self) -> &[String] {
        &self.patterns
    }

    /// The id of `pattern`, if the program defines it.
    pub fn pattern_id(&self, pattern: &str) -> Option<PatternId> {
        self.patterns
            .iter()
            .position(|p| p == pattern)
            .map(|i| i as PatternId)
    }

    /// The compiled rules in execution (source) order.
    pub fn rules(&self) -> &[PlanRule] {
        &self.rules
    }

    /// Rule indices whose parent is `pattern` — the pre-resolved edge
    /// index of the pattern hierarchy.
    pub fn rules_for_parent(&self, pattern: PatternId) -> &[usize] {
        &self.rules_by_parent[pattern as usize]
    }

    /// Rule indices of the entry rules.
    pub fn entry_rules(&self) -> &[usize] {
        &self.entry_rules
    }

    /// The source program the plan was compiled from.
    pub fn program(&self) -> &ElogProgram {
        &self.program
    }

    /// Total slot count across rules (a size diagnostic).
    pub fn total_slots(&self) -> usize {
        self.rules.iter().map(|r| r.slots).sum()
    }
}
