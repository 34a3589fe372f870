//! Pretty-printing Elog programs back to the textual dialect.
//!
//! The printer writes straight into any [`fmt::Write`] sink — the
//! `Formatter` behind `ElogProgram`'s `Display`, a `String`, or the
//! streaming hasher that computes a wrapper's plan id — and builds no
//! intermediate strings. Its output is the canonical program text that
//! wrapper manifests store and plan ids hash, so the printed bytes are
//! part of the durable format and must not change.

use std::fmt::{self, Write};

use crate::ast::{
    AttrMode, Condition, ElementPath, ElogRule, Extraction, ParentSpec, TagTest, UrlExpr,
};

/// Write a path: `(steps, [attribute conditions])`.
pub fn write_path(w: &mut impl Write, p: &ElementPath) -> fmt::Result {
    w.write_char('(')?;
    for (i, step) in p.steps.iter().enumerate() {
        w.write_str(match (i == 0, step.descend) {
            (true, true) => "?.",
            (false, true) => ".?.",
            (_, false) => ".",
        })?;
        match &step.tag {
            TagTest::Name(n) => w.write_str(n)?,
            TagTest::Any => w.write_char('*')?,
            TagTest::Regex(r) => write!(w, "/{r}/")?,
        }
    }
    w.write_str(", [")?;
    for (i, a) in p.attrs.iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        let mode = match a.mode {
            AttrMode::Exact => "exact",
            AttrMode::Substr => "substr",
            AttrMode::Regvar => "regvar",
        };
        write!(w, "({}, \"{}\", {mode})", a.attr, a.pattern)?;
    }
    w.write_str("])")
}

/// Write one rule, without a line break.
pub fn write_rule(w: &mut impl Write, r: &ElogRule) -> fmt::Result {
    write!(w, "{}(S, X) :- ", r.pattern)?;
    match &r.parent {
        ParentSpec::Pattern(p) => write!(w, "{p}(_, S)")?,
        ParentSpec::Document(UrlExpr::Const(u)) => write!(w, "document(\"{u}\", S)")?,
        ParentSpec::Document(UrlExpr::Var(v)) => write!(w, "document({v}, S)")?,
    }
    match &r.extraction {
        Extraction::Subelem(p) => {
            w.write_str(", subelem(S, ")?;
            write_path(w, p)?;
            w.write_str(", X)")?;
        }
        Extraction::Subsq {
            context,
            start,
            end,
        } => {
            w.write_str(", subsq(S, ")?;
            for p in [context, start, end] {
                write_path(w, p)?;
                w.write_str(", ")?;
            }
            w.write_str("X)")?;
        }
        Extraction::Subtext(t) => write!(w, ", subtext(S, \"{t}\", X)")?,
        Extraction::Subatt(a) => write!(w, ", subatt(S, {a}, X)")?,
        Extraction::Document(UrlExpr::Const(u)) => write!(w, ", document(\"{u}\", X)")?,
        Extraction::Document(UrlExpr::Var(v)) => write!(w, ", document({v}, X)")?,
        Extraction::Specialize => {}
    }
    for c in &r.conditions {
        w.write_str(", ")?;
        match c {
            Condition::Before {
                path,
                min,
                max,
                bind,
                negated,
            }
            | Condition::After {
                path,
                min,
                max,
                bind,
                negated,
            } => {
                let name = match (matches!(c, Condition::Before { .. }), *negated) {
                    (true, false) => "before",
                    (true, true) => "notbefore",
                    (false, false) => "after",
                    (false, true) => "notafter",
                };
                write!(w, "{name}(S, X, ")?;
                write_path(w, path)?;
                let bind = bind.as_deref().unwrap_or("_");
                write!(w, ", {min}, {max}, {bind}, _)")?;
            }
            Condition::Contains { path, negated } => {
                w.write_str(if *negated {
                    "notcontains(X, "
                } else {
                    "contains(X, "
                })?;
                write_path(w, path)?;
                w.write_char(')')?;
            }
            Condition::FirstSubtree { path } => {
                w.write_str("firstsubtree(S, X, ")?;
                write_path(w, path)?;
                w.write_char(')')?;
            }
            Condition::Concept {
                concept,
                var,
                negated,
            } => {
                if *negated {
                    // `notIsCurrency(Y)`: the concept name capitalized.
                    let mut chars = concept.chars();
                    w.write_str("not")?;
                    if let Some(first) = chars.next() {
                        write!(w, "{}", first.to_uppercase())?;
                    }
                    write!(w, "{}({var})", chars.as_str())?;
                } else {
                    write!(w, "{concept}({var})")?;
                }
            }
            Condition::Comparison {
                left,
                op,
                right,
                right_is_literal,
            } => {
                let name = match op.as_str() {
                    "<" => "lt",
                    "<=" => "le",
                    ">" => "gt",
                    ">=" => "ge",
                    "=" => "eq",
                    _ => "ne",
                };
                if *right_is_literal {
                    write!(w, "{name}({left}, \"{right}\")")?;
                } else {
                    write!(w, "{name}({left}, {right})")?;
                }
            }
            Condition::PatternRef { pattern, var } => write!(w, "{pattern}(_, {var})")?,
            Condition::AttrBind { attr, var } => write!(w, "attrbind(S, {attr}, {var})")?,
            Condition::Range { from, to } => write!(w, "range({from}, {to})")?,
        }
    }
    w.write_char('.')
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_program;

    #[test]
    fn roundtrip_through_parser() {
        let src = r#"
        rec(S, X) :- page(_, S), subelem(S, (?.table, [(bgcolor, "green", exact)]), X),
                     before(S, X, (?.h1, []), 0, 5, Y, _), notcontains(X, (.blink, [])),
                     isCurrency(Y), range(1, 10).
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = p1.to_string();
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p1, p2, "printed:\n{printed}");
    }

    #[test]
    fn figure5_roundtrip() {
        let p1 = parse_program(crate::parser::EBAY_PROGRAM).unwrap();
        let printed = p1.to_string();
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p1, p2, "printed:\n{printed}");
    }
}
