//! Compilation of [`ElogProgram`]s into [`WrapperPlan`]s.
//!
//! Compilation interns every pattern and variable name into dense ids,
//! resolves parent-pattern edges, precompiles every regex, bakes in the
//! concept matchers the registry compiled once, and performs the static checks the interpreted
//! evaluator only discovers as silent empty results at run time: unknown
//! parent patterns, variables referenced before anything binds them,
//! dangling concept references, malformed regexes, and non-constant
//! entry URLs all become structured [`CompileError`]s — surfaced at
//! deploy time, once, instead of per request.

use crate::ast::{
    AttrCond, AttrMode, Condition, ElementPath, ElogProgram, ElogRule, Extraction, ParentSpec,
    TagTest, UrlExpr,
};
use crate::concepts::{Concept, ConceptRegistry};
use crate::path::compile_regvar;
use crate::plan::{
    CompileError, PatternId, PlanAttr, PlanAttrMatch, PlanCondition, PlanExtraction, PlanOperand,
    PlanParent, PlanPath, PlanRegvar, PlanRule, PlanStep, PlanTag, PlanUrl, PlanVarRef, SlotId,
    WrapperPlan,
};

use lixto_regexlite::Regex;

/// Rule-local variable interner: names become dense slot ids; `bound`
/// tracks whether anything up to the current compile position binds the
/// slot (a slot can be interned before it is bound — a crawl rule's URL
/// variable is interned at the extraction atom but bound only by its
/// `attrbind` condition).
struct Slots {
    names: Vec<String>,
    bound: Vec<bool>,
}

impl Slots {
    fn new() -> Slots {
        Slots {
            names: Vec::new(),
            bound: Vec::new(),
        }
    }

    /// Intern `name` and mark it bound from here on.
    fn bind(&mut self, name: &str) -> SlotId {
        let id = self.intern(name);
        self.bound[id as usize] = true;
        id
    }

    /// Intern `name` without binding it.
    fn intern(&mut self, name: &str) -> SlotId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as SlotId;
        }
        self.names.push(name.to_string());
        self.bound.push(false);
        (self.names.len() - 1) as SlotId
    }

    /// The slot of `name`, only if something already binds it.
    fn lookup_bound(&self, name: &str) -> Option<SlotId> {
        self.names
            .iter()
            .position(|n| n == name)
            .filter(|&i| self.bound[i])
            .map(|i| i as SlotId)
    }
}

/// Compile context for one rule: everything error variants need.
struct RuleCx<'a> {
    index: usize,
    pattern: &'a str,
}

impl RuleCx<'_> {
    fn bad_regex(&self, regex: &str, error: &lixto_regexlite::Error) -> CompileError {
        CompileError::BadRegex {
            rule: self.index,
            pattern: self.pattern.to_string(),
            regex: regex.to_string(),
            message: error.to_string(),
        }
    }

    fn unbound(&self, variable: &str) -> CompileError {
        CompileError::UnboundVariable {
            rule: self.index,
            pattern: self.pattern.to_string(),
            variable: variable.to_string(),
        }
    }
}

impl WrapperPlan {
    /// Compile `program` against `concepts` into an executable plan.
    ///
    /// The concept registry is consulted (and baked in) at compile time:
    /// a plan carries its concept matchers and needs no registry to
    /// execute. The plan keeps `program` (see [`WrapperPlan::program`]),
    /// so it is taken by value: a caller that still needs its AST clones
    /// it, one that does not hands it over.
    pub fn compile(
        program: ElogProgram,
        concepts: &ConceptRegistry,
    ) -> Result<WrapperPlan, CompileError> {
        // Pattern table, in first-definition order (the order
        // `ElogProgram::patterns` reports).
        let patterns: Vec<String> = program.patterns().into_iter().map(str::to_string).collect();
        let pattern_id = |name: &str| -> Option<PatternId> {
            patterns.iter().position(|p| p == name).map(|i| i as u32)
        };

        let mut rules = Vec::with_capacity(program.rules.len());
        let mut rules_by_parent: Vec<Vec<usize>> = vec![Vec::new(); patterns.len()];
        let mut entry_rules = Vec::new();
        for (index, rule) in program.rules.iter().enumerate() {
            let cx = RuleCx {
                index,
                pattern: &rule.pattern,
            };
            let parent = match &rule.parent {
                ParentSpec::Pattern(name) => match pattern_id(name) {
                    Some(id) => {
                        rules_by_parent[id as usize].push(index);
                        PlanParent::Pattern(id)
                    }
                    None => {
                        return Err(CompileError::UnknownParentPattern {
                            rule: index,
                            pattern: rule.pattern.clone(),
                            parent: name.clone(),
                        })
                    }
                },
                ParentSpec::Document(UrlExpr::Const(url)) => {
                    entry_rules.push(index);
                    PlanParent::Document(url.clone())
                }
                ParentSpec::Document(UrlExpr::Var(_)) => {
                    return Err(CompileError::EntryUrlNotConstant {
                        rule: index,
                        pattern: rule.pattern.clone(),
                    })
                }
            };

            let mut slots = Slots::new();
            let extraction = compile_extraction(rule, &cx, &mut slots)?;
            let mut conditions = Vec::with_capacity(rule.conditions.len());
            let mut refs = Vec::new();
            for cond in &rule.conditions {
                conditions.push(compile_condition(
                    cond,
                    &cx,
                    &mut slots,
                    concepts,
                    &pattern_id,
                    &mut refs,
                )?);
            }
            let range = rule.conditions.iter().find_map(|c| match c {
                Condition::Range { from, to } => Some((*from, *to)),
                _ => None,
            });
            rules.push(PlanRule {
                pattern: pattern_id(&rule.pattern).expect("head is in the pattern table"),
                parent,
                extraction,
                conditions,
                slots: slots.names.len(),
                slot_names: slots.names,
                range,
                refs,
            });
        }
        Ok(WrapperPlan {
            program,
            patterns,
            rules,
            rules_by_parent,
            entry_rules,
        })
    }
}

fn compile_extraction(
    rule: &ElogRule,
    cx: &RuleCx<'_>,
    slots: &mut Slots,
) -> Result<PlanExtraction, CompileError> {
    Ok(match &rule.extraction {
        Extraction::Specialize => PlanExtraction::Specialize,
        Extraction::Subelem(path) => PlanExtraction::Subelem(compile_path(path, cx, slots, true)?),
        Extraction::Subsq {
            context,
            start,
            end,
        } => PlanExtraction::Subsq {
            // Context and delimiter matches never contribute bindings
            // (the interpreted evaluator drops them), so their `regvar`
            // captures are presence checks only.
            context: compile_path(context, cx, slots, false)?,
            start: compile_path(start, cx, slots, false)?,
            end: compile_path(end, cx, slots, false)?,
        },
        Extraction::Subtext(pattern) => {
            PlanExtraction::Subtext(compile_regvar_pattern(pattern, cx, slots, true)?)
        }
        Extraction::Subatt(attr) => PlanExtraction::Subatt(attr.clone()),
        Extraction::Document(UrlExpr::Const(url)) => {
            PlanExtraction::Document(PlanUrl::Const(url.clone()))
        }
        Extraction::Document(UrlExpr::Var(var)) => {
            // The URL variable is resolved from `attrbind` conditions of
            // the same rule (the interpreted evaluator pre-scans them);
            // require one to exist.
            let has_binder = rule
                .conditions
                .iter()
                .any(|c| matches!(c, Condition::AttrBind { var: v, .. } if v == var));
            if !has_binder {
                return Err(cx.unbound(var));
            }
            PlanExtraction::Document(PlanUrl::Slot(slots.intern(var)))
        }
    })
}

fn compile_condition(
    cond: &Condition,
    cx: &RuleCx<'_>,
    slots: &mut Slots,
    concepts: &ConceptRegistry,
    pattern_id: &dyn Fn(&str) -> Option<PatternId>,
    refs: &mut Vec<PatternId>,
) -> Result<PlanCondition, CompileError> {
    // A reference that may fall back to the candidate's text (`X`).
    let resolve_value = |slots: &Slots, var: &str| -> Result<PlanVarRef, CompileError> {
        match slots.lookup_bound(var) {
            Some(slot) if var == "X" => Ok(PlanVarRef::SlotOrTarget(slot)),
            Some(slot) => Ok(PlanVarRef::Slot(slot)),
            None if var == "X" => Ok(PlanVarRef::TargetText),
            None => Err(cx.unbound(var)),
        }
    };
    Ok(match cond {
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
            // A negated context condition never binds (the interpreted
            // evaluator discards the binding on the negated branch).
            let binds = !*negated && bind.is_some();
            let path = compile_path(path, cx, slots, binds)?;
            let bind = if binds {
                bind.as_deref().map(|v| slots.bind(v))
            } else {
                None
            };
            PlanCondition::Context {
                path,
                min: *min,
                max: *max,
                bind,
                negated: *negated,
                is_before: matches!(cond, Condition::Before { .. }),
            }
        }
        Condition::Contains { path, negated } => PlanCondition::Contains {
            path: compile_path(path, cx, slots, false)?,
            negated: *negated,
        },
        Condition::FirstSubtree { path } => PlanCondition::FirstSubtree {
            path: compile_path(path, cx, slots, false)?,
        },
        Condition::Concept {
            concept,
            var,
            negated,
        } => {
            let compiled = match concepts.matcher(concept) {
                Some(Ok(matcher)) => matcher.clone(),
                Some(Err(e)) => {
                    let Some(Concept::Syntactic(re)) = concepts.get(concept) else {
                        unreachable!("only a syntactic concept fails to compile");
                    };
                    return Err(cx.bad_regex(re, e));
                }
                None => {
                    return Err(CompileError::UnknownConcept {
                        rule: cx.index,
                        pattern: cx.pattern.to_string(),
                        concept: concept.clone(),
                    })
                }
            };
            PlanCondition::Concept {
                concept: compiled,
                var: resolve_value(slots, var)?,
                negated: *negated,
            }
        }
        Condition::Comparison {
            left,
            op,
            right,
            right_is_literal,
        } => PlanCondition::Comparison {
            left: resolve_value(slots, left)?,
            op: op.clone(),
            right: if *right_is_literal {
                PlanOperand::Literal(right.clone())
            } else {
                PlanOperand::Var(resolve_value(slots, right)?)
            },
        },
        Condition::PatternRef { pattern, var } => {
            let id = pattern_id(pattern).ok_or_else(|| CompileError::UnknownParentPattern {
                rule: cx.index,
                pattern: cx.pattern.to_string(),
                parent: pattern.clone(),
            })?;
            let slot = slots.lookup_bound(var).ok_or_else(|| cx.unbound(var))?;
            if !refs.contains(&id) {
                refs.push(id);
            }
            PlanCondition::PatternRef {
                pattern: id,
                var: slot,
            }
        }
        Condition::AttrBind { attr, var } => PlanCondition::AttrBind {
            attr: attr.clone(),
            var: slots.bind(var),
        },
        Condition::Range { .. } => PlanCondition::Range,
    })
}

fn compile_path(
    path: &ElementPath,
    cx: &RuleCx<'_>,
    slots: &mut Slots,
    binds: bool,
) -> Result<PlanPath, CompileError> {
    let mut steps = Vec::with_capacity(path.steps.len());
    for step in &path.steps {
        steps.push(PlanStep {
            descend: step.descend,
            tag: match &step.tag {
                TagTest::Name(n) => PlanTag::Name(n.clone()),
                TagTest::Any => PlanTag::Any,
                TagTest::Regex(re) => {
                    PlanTag::Regex(Regex::with_options(re, true).map_err(|e| cx.bad_regex(re, &e))?)
                }
            },
        });
    }
    let mut attrs = Vec::with_capacity(path.attrs.len());
    for cond in &path.attrs {
        attrs.push(compile_attr(cond, cx, slots, binds)?);
    }
    Ok(PlanPath { steps, attrs })
}

fn compile_attr(
    cond: &AttrCond,
    cx: &RuleCx<'_>,
    slots: &mut Slots,
    binds: bool,
) -> Result<PlanAttr, CompileError> {
    Ok(PlanAttr {
        attr: cond.attr.clone(),
        matcher: match cond.mode {
            AttrMode::Exact => PlanAttrMatch::Exact(cond.pattern.clone()),
            AttrMode::Substr => PlanAttrMatch::Substr(cond.pattern.clone()),
            AttrMode::Regvar => {
                PlanAttrMatch::Regvar(compile_regvar_pattern(&cond.pattern, cx, slots, binds)?)
            }
        },
    })
}

fn compile_regvar_pattern(
    pattern: &str,
    cx: &RuleCx<'_>,
    slots: &mut Slots,
    binds: bool,
) -> Result<PlanRegvar, CompileError> {
    let (regex_src, vars) = compile_regvar(pattern);
    let regex = Regex::new(&regex_src).map_err(|e| cx.bad_regex(&regex_src, &e))?;
    let captures = vars
        .into_iter()
        .map(|v| {
            let slot = binds.then(|| slots.bind(&v));
            (v, slot)
        })
        .collect();
    Ok(PlanRegvar { regex, captures })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, EBAY_PROGRAM};
    use crate::plan::PlanParent;

    fn compile(src: &str) -> Result<WrapperPlan, CompileError> {
        WrapperPlan::compile(parse_program(src).unwrap(), &ConceptRegistry::builtin())
    }

    #[test]
    fn figure5_program_compiles_with_interned_tables() {
        let plan = compile(EBAY_PROGRAM).unwrap();
        assert_eq!(
            plan.patterns(),
            ["tableseq", "record", "itemdes", "price", "bids", "currency"]
        );
        assert_eq!(plan.rules().len(), 6);
        // record's parent edge resolves to tableseq's id.
        let record = &plan.rules()[1];
        assert!(matches!(record.parent, PlanParent::Pattern(0)));
        // The indexed rule table: tableseq parents exactly the record rule.
        assert_eq!(plan.rules_for_parent(0), [1]);
        assert_eq!(plan.entry_rules(), [0]);
        // bids binds Y (before/4) and references price.
        let bids = &plan.rules()[4];
        assert_eq!(bids.slots, 1);
        assert_eq!(bids.slot_names, ["Y"]);
        assert_eq!(bids.refs, [plan.pattern_id("price").unwrap()]);
    }

    #[test]
    fn unknown_parent_pattern_is_rejected() {
        let err = compile(r#"x(S, X) :- ghost(_, S), subelem(S, (?.td, []), X)."#).unwrap_err();
        assert_eq!(err.code(), "unknown_parent_pattern");
        assert_eq!(err.rule(), 0);
        assert_eq!(err.pattern(), "x");
        assert_eq!(err.subject(), Some("ghost"));
    }

    #[test]
    fn unknown_pattern_reference_is_rejected() {
        let err = compile(
            r#"x(S, X) :- document("http://u/", S), subelem(S, (?.td, []), X),
               before(S, X, (?.td, []), 0, 9, Y, _), ghost(_, Y)."#,
        )
        .unwrap_err();
        assert_eq!(err.code(), "unknown_parent_pattern");
        assert_eq!(err.subject(), Some("ghost"));
    }

    #[test]
    fn unbound_variable_is_rejected() {
        let err = compile(
            r#"x(S, X) :- document("http://u/", S), subelem(S, (?.td, []), X), isCurrency(Z)."#,
        )
        .unwrap_err();
        assert_eq!(err.code(), "unbound_variable");
        assert_eq!(err.subject(), Some("Z"));
        // The target variable X is always in scope for concepts.
        compile(
            r#"x(S, X) :- document("http://u/", S), subelem(S, (?.td, []), X), isCurrency(X)."#,
        )
        .unwrap();
    }

    #[test]
    fn unknown_concept_is_rejected() {
        let err = compile(
            r#"x(S, X) :- document("http://u/", S), subelem(S, (?.td, []), X), isUnicorn(X)."#,
        )
        .unwrap_err();
        assert_eq!(err.code(), "unknown_concept");
        assert_eq!(err.subject(), Some("isUnicorn"));
    }

    #[test]
    fn bad_regex_is_rejected() {
        let err = compile(r#"x(S, X) :- document("http://u/", S), subtext(S, "\var[Y]((", X)."#)
            .unwrap_err();
        assert_eq!(err.code(), "bad_regex");
        assert!(err.to_string().contains("does not compile"));
    }

    #[test]
    fn crawl_url_variable_needs_an_attrbind() {
        let err = compile(r#"p(S, X) :- q(_, S), document(U, X). q(S, X) :- document("http://u/", S), subelem(S, (?.a, []), X)."#)
            .unwrap_err();
        assert_eq!(err.code(), "unbound_variable");
        assert_eq!(err.subject(), Some("U"));
        compile(
            r#"q(S, X) :- document("http://u/", S), subelem(S, (?.a, []), X).
               p(S, X) :- q(_, S), attrbind(S, href, U), document(U, X)."#,
        )
        .unwrap();
    }

    #[test]
    fn rejected_programs_still_run_through_the_interpreter_fallback() {
        use crate::web::SinglePage;
        let web = SinglePage {
            url: "http://u/".into(),
            html: "<body><td>cell</td></body>".into(),
        };
        // Unknown parent: the interpreter tolerates it as silently empty;
        // run() must not panic and must match run_interpreted().
        let program =
            parse_program(r#"x(S, X) :- ghost(_, S), subelem(S, (?.td, []), X)."#).unwrap();
        let ex = crate::Extractor::new(program, &web);
        assert_eq!(ex.run(), ex.run_interpreted());
        assert!(ex.run().base.is_empty());
    }
}
