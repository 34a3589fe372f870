//! Elog abstract syntax.

use std::fmt;

/// How an attribute condition matches its pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrMode {
    /// Value equals the pattern string.
    Exact,
    /// Value contains the pattern as a substring.
    Substr,
    /// Value matches the pattern as a regex; `\var[V]` segments bind
    /// string variables.
    Regvar,
}

/// An attribute condition inside a path step:
/// `(attr, pattern, mode)`. `attr == "elementtext"` matches against the
/// node's text content (the paper's pseudo-attribute).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrCond {
    /// Attribute name or `elementtext`.
    pub attr: String,
    /// Pattern (literal or regex depending on mode; may contain
    /// `\var[V]`).
    pub pattern: String,
    /// Matching mode.
    pub mode: AttrMode,
}

/// A tag test within a path step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagTest {
    /// Exact tag name.
    Name(String),
    /// `*` — any element.
    Any,
    /// Regular expression over the tag name.
    Regex(String),
}

/// One step of an element path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// `true` for `?.tag` — the tag may occur at any depth below the
    /// previous step ("certain regular expressions over tag names"; `?`
    /// is Lixto's arbitrary-depth wildcard).
    pub descend: bool,
    /// The tag test.
    pub tag: TagTest,
}

/// An element path with optional attribute conditions on the final node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ElementPath {
    /// The steps, outermost first.
    pub steps: Vec<PathStep>,
    /// Attribute conditions on the target node.
    pub attrs: Vec<AttrCond>,
}

impl ElementPath {
    /// Path with child steps only (`.a.b`).
    pub fn children(names: &[&str]) -> ElementPath {
        ElementPath {
            steps: names
                .iter()
                .map(|n| PathStep {
                    descend: false,
                    tag: TagTest::Name(n.to_string()),
                })
                .collect(),
            attrs: Vec::new(),
        }
    }

    /// Path `?.name` — the tag anywhere below the context.
    pub fn anywhere(name: &str) -> ElementPath {
        ElementPath {
            steps: vec![PathStep {
                descend: true,
                tag: TagTest::Name(name.to_string()),
            }],
            attrs: Vec::new(),
        }
    }

    /// Builder: add an attribute condition.
    pub fn with_attr(mut self, attr: &str, pattern: &str, mode: AttrMode) -> ElementPath {
        self.attrs.push(AttrCond {
            attr: attr.to_string(),
            pattern: pattern.to_string(),
            mode,
        });
        self
    }
}

/// URL sources for `document()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrlExpr {
    /// A fixed URL.
    Const(String),
    /// A string variable bound by a condition in the same rule.
    Var(String),
}

/// The parent-instance source of a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParentSpec {
    /// `Par(_, S)` — instances of another pattern.
    Pattern(String),
    /// `document(url, S)` — S is the root of the fetched page (an entry
    /// rule).
    Document(UrlExpr),
}

/// Extraction definition atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extraction {
    /// `subelem(S, path, X)` — tree extraction.
    Subelem(ElementPath),
    /// `subsq(S, context, start, end, X)` — sequence extraction.
    Subsq {
        /// Path from S to the node whose children are scanned.
        context: ElementPath,
        /// Tag test the first sequence member must satisfy.
        start: ElementPath,
        /// Tag test the last member must satisfy.
        end: ElementPath,
    },
    /// `subtext(S, regex, X)` — string extraction; `\var[V]` binds V to
    /// the matched text.
    Subtext(String),
    /// `subatt(S, attr, X)` — attribute value extraction.
    Subatt(String),
    /// `document(U, X)` — crawl: X is the root of the page at U.
    Document(UrlExpr),
    /// Specialization rule: X := S (no extraction atom — footnote 6).
    Specialize,
}

/// Condition atoms Φ(S, X).
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `before(S, X, path, min, max, Y?)`: a node matching `path` inside S
    /// whose subtree ends within [min, max] nodes before X starts.
    /// `negated` renders it `notbefore`.
    Before {
        /// Path of the context node, searched within S.
        path: ElementPath,
        /// Minimum distance (in document-order positions).
        min: u32,
        /// Maximum distance.
        max: u32,
        /// Bind the context node to this variable.
        bind: Option<String>,
        /// `notbefore` when true.
        negated: bool,
    },
    /// `after(S, X, path, min, max, Y?)` — mirror image of `Before`.
    After {
        /// Path of the context node.
        path: ElementPath,
        /// Minimum distance.
        min: u32,
        /// Maximum distance.
        max: u32,
        /// Bind the context node.
        bind: Option<String>,
        /// `notafter` when true.
        negated: bool,
    },
    /// `contains(X, path)` — internal condition on X's subtree.
    Contains {
        /// Path searched within X.
        path: ElementPath,
        /// `notcontains` when true.
        negated: bool,
    },
    /// `firstsubtree(S, X, path)` — X is the first (in document order)
    /// match of `path` within S.
    FirstSubtree {
        /// The path.
        path: ElementPath,
    },
    /// Concept condition `isDate(V)`, `isCurrency(V)`, … on a bound
    /// variable (or on X via the variable name `"X"`).
    Concept {
        /// Concept name.
        concept: String,
        /// The variable to test.
        var: String,
        /// Negated form.
        negated: bool,
    },
    /// Comparison of two bound values, e.g. `<(Y, Z)`; values are parsed
    /// as dates or numbers.
    Comparison {
        /// Left variable.
        left: String,
        /// One of `<`, `<=`, `>`, `>=`, `=`, `!=`.
        op: String,
        /// Right variable or literal (literal when quoted in source).
        right: String,
        /// True if `right` is a literal.
        right_is_literal: bool,
    },
    /// Pattern reference `pat(_, Y)` — the node bound to Y must be an
    /// instance of `pat`.
    PatternRef {
        /// Referenced pattern.
        pattern: String,
        /// The bound variable.
        var: String,
    },
    /// `attrbind(S, attr, V)` — bind an attribute value of the parent
    /// node S (used to feed crawl rules).
    AttrBind {
        /// Attribute name.
        attr: String,
        /// Variable receiving the value.
        var: String,
    },
    /// Range criterion `range(i, j)` — keep only the i-th…j-th matches
    /// (1-based, per parent instance, in document order).
    Range {
        /// First kept index.
        from: usize,
        /// Last kept index.
        to: usize,
    },
}

/// One Elog rule.
#[derive(Debug, Clone, PartialEq)]
pub struct ElogRule {
    /// The defined pattern (head predicate).
    pub pattern: String,
    /// Parent source.
    pub parent: ParentSpec,
    /// Extraction atom.
    pub extraction: Extraction,
    /// Conditions.
    pub conditions: Vec<Condition>,
}

/// An Elog program: a set of rules. A pattern may have several rules
/// (filters) — their matches union, the monotone semantics the paper
/// credits for making wrapper construction modular.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ElogProgram {
    /// The rules in source order.
    pub rules: Vec<ElogRule>,
}

impl ElogProgram {
    /// All pattern names, in first-definition order.
    pub fn patterns(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for r in &self.rules {
            if !out.contains(&r.pattern.as_str()) {
                out.push(&r.pattern);
            }
        }
        out
    }

    /// Program size (rules + conditions) — |P| for complexity statements.
    pub fn size(&self) -> usize {
        self.rules.iter().map(|r| 2 + r.conditions.len()).sum()
    }
}

impl fmt::Display for ElogProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            crate::pretty::write_rule(f, r)?;
            f.write_str("\n")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_builders() {
        let p = ElementPath::children(&["body", "table"]);
        assert_eq!(p.steps.len(), 2);
        assert!(!p.steps[0].descend);
        let q = ElementPath::anywhere("td").with_attr("elementtext", "item", AttrMode::Substr);
        assert!(q.steps[0].descend);
        assert_eq!(q.attrs.len(), 1);
    }

    #[test]
    fn pattern_listing_keeps_order() {
        let prog = ElogProgram {
            rules: vec![
                ElogRule {
                    pattern: "b".into(),
                    parent: ParentSpec::Pattern("a".into()),
                    extraction: Extraction::Subelem(ElementPath::anywhere("td")),
                    conditions: vec![],
                },
                ElogRule {
                    pattern: "a".into(),
                    parent: ParentSpec::Document(UrlExpr::Const("u".into())),
                    extraction: Extraction::Specialize,
                    conditions: vec![],
                },
                ElogRule {
                    pattern: "b".into(),
                    parent: ParentSpec::Pattern("a".into()),
                    extraction: Extraction::Subelem(ElementPath::anywhere("th")),
                    conditions: vec![],
                },
            ],
        };
        assert_eq!(prog.patterns(), vec!["b", "a"]);
        assert_eq!(prog.size(), 6);
    }
}
