//! The Extractor: Elog program evaluation.
//!
//! "The Extractor is the Elog program interpreter that performs the actual
//! extraction based on a given Elog program" (Section 3.1). Evaluation is
//! parent-driven — each rule fires once per parent-pattern instance, which
//! is what keeps the dyadic syntax within the favourable complexity of
//! monadic datalog (Section 3.3) — and iterates to a fixpoint so that
//! recursive wrapping and crawling across documents terminate only when no
//! new instances (or pages) appear.
//!
//! Conditions are evaluated over *environment sets*: a condition that
//! binds a variable (e.g. `before(…, Y)`) forks one environment per
//! witness, so later conditions (`price(_, Y)`) quantify existentially
//! over all of them — the semantics the `<bids>` rule of Figure 5 needs.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use lixto_tree::{Document, NodeId};

use crate::ast::{Condition, ElementPath, ElogProgram, ElogRule, Extraction, ParentSpec, UrlExpr};
use crate::concepts::{compare_values, ConceptRegistry};
use crate::instances::{DocId, Instance, InstanceBase, Target};
use crate::optimize::OptimizedPlan;
use crate::path::{check_attr, eval_path, tag_matches, PathMatch};
use crate::plan::WrapperPlan;
use crate::web::WebSource;

/// Safety limits for the fixpoint loop.
#[derive(Debug, Clone)]
pub struct ExtractorOptions {
    /// Maximum number of fetched documents (crawl cap).
    pub max_documents: usize,
    /// Maximum number of instances.
    pub max_instances: usize,
}

impl Default for ExtractorOptions {
    fn default() -> Self {
        ExtractorOptions {
            max_documents: 128,
            max_instances: 1_000_000,
        }
    }
}

/// A value bound to an Elog variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A node of a fetched document.
    Node(DocId, NodeId),
    /// An extracted string.
    Str(String),
}

type Env = HashMap<String, Value>;

/// The result of an extraction run.
///
/// `Clone` and `PartialEq` let callers (the `lixto_server` result cache in
/// particular) store results and check that a cached result is identical
/// to a fresh run. Equality deliberately ignores [`rule_trace`]: the trace
/// is derivation *metadata* recorded only by the plan executor (the
/// interpreted walker leaves it empty), not part of the extraction
/// semantics the `plan_equivalence` suite compares.
///
/// [`rule_trace`]: ExtractionResult::rule_trace
#[derive(Debug, Clone)]
pub struct ExtractionResult {
    /// The pattern instance base.
    pub base: InstanceBase,
    /// All fetched documents (DocId indexes into this).
    pub docs: Vec<Document>,
    /// URL of each fetched document.
    pub doc_urls: Vec<String>,
    /// Distinct pattern names with at least one instance, in
    /// first-extraction order — recorded once at run time (the plan
    /// executor dedups via its pattern table) so [`patterns`] is a
    /// zero-cost accessor rather than a per-call clone-and-scan.
    ///
    /// [`patterns`]: ExtractionResult::patterns
    pub(crate) pattern_names: Vec<String>,
    /// Provenance: for each instance in [`base`](ExtractionResult::base)
    /// (parallel by index), the index of the plan rule that produced it.
    /// Filled by the plan executor; empty when the interpreted walker
    /// produced the result. Persisted by the `lixto_server` result store
    /// so cached instances can explain which rule derived them.
    pub rule_trace: Vec<u32>,
}

impl PartialEq for ExtractionResult {
    fn eq(&self, other: &ExtractionResult) -> bool {
        self.base == other.base
            && self.docs == other.docs
            && self.doc_urls == other.doc_urls
            && self.pattern_names == other.pattern_names
    }
}

impl ExtractionResult {
    /// An empty result (no documents, no instances) — a placeholder for
    /// tests and error paths.
    pub fn empty() -> ExtractionResult {
        ExtractionResult {
            base: InstanceBase::default(),
            docs: Vec::new(),
            doc_urls: Vec::new(),
            pattern_names: Vec::new(),
            rule_trace: Vec::new(),
        }
    }

    /// The plan-rule index that produced instance `i`, when known. `None`
    /// for interpreter-produced results (which record no trace) and for
    /// out-of-range indices.
    pub fn producing_rule(&self, i: usize) -> Option<u32> {
        self.rule_trace.get(i).copied()
    }

    /// Reassemble a result from externally persisted parts — the
    /// `lixto_server` result store rehydrates recovered entries through
    /// this (instances re-materialized as [`Target::Text`], documents
    /// dropped). The pattern-name order is recomputed from the base.
    ///
    /// [`Target::Text`]: crate::instances::Target::Text
    pub fn from_parts(
        base: InstanceBase,
        docs: Vec<Document>,
        doc_urls: Vec<String>,
        rule_trace: Vec<u32>,
    ) -> ExtractionResult {
        let pattern_names = pattern_names_of(&base);
        ExtractionResult {
            base,
            docs,
            doc_urls,
            pattern_names,
            rule_trace,
        }
    }

    /// Convenience: the text of every instance of `pattern`, in insertion
    /// order.
    pub fn texts_of(&self, pattern: &str) -> Vec<String> {
        self.base
            .of_pattern(pattern)
            .into_iter()
            .map(|i| self.base.text_of(i, &self.docs))
            .collect()
    }

    /// The distinct pattern names with at least one extracted instance,
    /// in first-extraction order.
    pub fn patterns(&self) -> &[String] {
        &self.pattern_names
    }
}

/// First-extraction-order pattern names of a finished base (the
/// interpreted evaluator computes this once per run; the plan executor
/// tracks it incrementally through its pattern table).
fn pattern_names_of(base: &InstanceBase) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for inst in &base.instances {
        if !seen.iter().any(|p| p.as_str() == &*inst.pattern) {
            seen.push(inst.pattern.to_string());
        }
    }
    seen
}

/// How the extractor evaluates: walking the raw AST (compiled and
/// optimized on [`Extractor::run`]) or executing an already-optimized
/// plan (scheduled, path-fused, sub-matcher-hoisted — see
/// [`crate::optimize`]).
enum Engine {
    Ast(ElogProgram),
    Optimized(Arc<OptimizedPlan>),
}

/// The Elog evaluator.
///
/// [`Extractor::new`] takes a program AST; [`run`](Extractor::run)
/// compiles and optimizes it, then executes the plan (falling back to
/// the interpreted reference evaluator for programs that do not compile
/// — e.g. rules whose parent pattern is undefined, which the interpreter
/// tolerates as silently-empty). [`Extractor::from_optimized`] skips
/// compilation entirely: services that compile a wrapper once at deploy
/// time use it to pay only the cheap execution half per document.
pub struct Extractor<'w> {
    engine: Engine,
    concepts: ConceptRegistry,
    web: &'w dyn WebSource,
    options: ExtractorOptions,
    probe: Option<&'w crate::exec::ExecProbe>,
}

impl<'w> Extractor<'w> {
    /// New extractor with built-in concepts and default limits.
    pub fn new(program: ElogProgram, web: &'w dyn WebSource) -> Extractor<'w> {
        Extractor::with_engine(Engine::Ast(program), web)
    }

    /// The compiled fast path: execute a plan that has been through the
    /// [`crate::optimize`] phase. Services optimize a wrapper once at
    /// deploy time and pay only the (scheduled, fused, hoisted)
    /// execution per request; results are byte-identical to
    /// [`run_interpreted`](Extractor::run_interpreted). The plan carries
    /// its own concept matchers (baked in at compile time), so
    /// [`with_concepts`](Extractor::with_concepts) only affects the
    /// interpreted reference path.
    pub fn from_optimized(opt: Arc<OptimizedPlan>, web: &'w dyn WebSource) -> Extractor<'w> {
        Extractor::with_engine(Engine::Optimized(opt), web)
    }

    fn with_engine(engine: Engine, web: &'w dyn WebSource) -> Extractor<'w> {
        Extractor {
            engine,
            concepts: ConceptRegistry::builtin(),
            web,
            options: ExtractorOptions::default(),
            probe: None,
        }
    }

    /// Replace the concept registry.
    pub fn with_concepts(mut self, concepts: ConceptRegistry) -> Self {
        self.concepts = concepts;
        self
    }

    /// Replace the safety limits.
    pub fn with_options(mut self, options: ExtractorOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach an execution probe: the compiled-plan path records
    /// per-rule invocation counts, match counts and wall time into it,
    /// plus cumulative fetch/parse time. Without a probe the executor
    /// takes no clock readings. The interpreted reference path ignores
    /// the probe entirely.
    pub fn with_probe(mut self, probe: &'w crate::exec::ExecProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Run to fixpoint.
    ///
    /// Compiles, optimizes and executes the plan; a program the compiler
    /// rejects (see [`CompileError`](crate::plan::CompileError)) falls
    /// back to the interpreted reference evaluator, whose semantics
    /// tolerate such programs as empty matches — `run` itself never
    /// fails.
    pub fn run(&self) -> ExtractionResult {
        match &self.engine {
            Engine::Optimized(opt) => {
                crate::exec::execute_optimized(opt, self.web, &self.options, self.probe)
            }
            Engine::Ast(program) => match WrapperPlan::compile(program.clone(), &self.concepts) {
                Ok(plan) => {
                    let opt = OptimizedPlan::new(Arc::new(plan));
                    crate::exec::execute_optimized(&opt, self.web, &self.options, self.probe)
                }
                Err(_) => self.interpret(program),
            },
        }
    }

    /// Run the interpreted reference evaluator (the pre-plan AST
    /// walker). Kept public for equivalence testing and benchmarking
    /// against the compiled path.
    pub fn run_interpreted(&self) -> ExtractionResult {
        match &self.engine {
            Engine::Ast(program) => self.interpret(program),
            Engine::Optimized(opt) => self.interpret(opt.plan().program()),
        }
    }

    fn interpret(&self, program: &ElogProgram) -> ExtractionResult {
        let mut st = State {
            base: InstanceBase::default(),
            docs: Vec::new(),
            doc_urls: Vec::new(),
            url_ids: HashMap::new(),
            failed: HashSet::new(),
        };
        loop {
            let mut changed = false;
            for rule in &program.rules {
                changed |= self.apply_rule(rule, &mut st);
                if st.base.len() >= self.options.max_instances {
                    break;
                }
            }
            if !changed || st.base.len() >= self.options.max_instances {
                break;
            }
        }
        let pattern_names = pattern_names_of(&st.base);
        ExtractionResult {
            base: st.base,
            docs: st.docs,
            doc_urls: st.doc_urls,
            pattern_names,
            rule_trace: Vec::new(),
        }
    }

    fn apply_rule(&self, rule: &ElogRule, st: &mut State) -> bool {
        // Collect the parent contexts (S).
        let parents: Vec<(Option<usize>, Target)> = match &rule.parent {
            ParentSpec::Pattern(name) => st
                .base
                .of_pattern(name)
                .into_iter()
                .map(|i| (Some(i), st.base.instances[i].target.clone()))
                .collect(),
            ParentSpec::Document(UrlExpr::Const(url)) => {
                match st.fetch(self.web, url, self.options.max_documents) {
                    Some(did) => {
                        let root = st.docs[did.0 as usize].root();
                        vec![(
                            None,
                            Target::Node {
                                doc: did,
                                node: root,
                            },
                        )]
                    }
                    None => vec![],
                }
            }
            ParentSpec::Document(UrlExpr::Var(_)) => vec![], // entry URLs must be constant
        };

        let mut changed = false;
        for (parent_idx, s_target) in parents {
            // Produce candidate targets + initial environments.
            let candidates = self.extract(rule, &s_target, st);
            // Context-condition witnesses do not depend on the candidate —
            // hoist one path evaluation per (condition, parent) instead of
            // per candidate (subsq can have O(children²) candidates).
            let witnesses: Vec<Option<Vec<PathMatch>>> = rule
                .conditions
                .iter()
                .map(|c| match c {
                    Condition::Before { path, .. } | Condition::After { path, .. } => {
                        forest_of(&s_target, &st.docs)
                            .map(|(did, roots)| eval_path(&st.docs[did.0 as usize], &roots, path))
                    }
                    _ => None,
                })
                .collect();
            // Filter by conditions; collect accepted targets in document
            // order for range criteria.
            let mut accepted: Vec<Target> = Vec::new();
            for (target, env) in candidates {
                if self.conditions_hold(rule, &s_target, &target, env, st, &witnesses) {
                    accepted.push(target);
                }
            }
            // "The (largest) sequence": among condition-satisfying subsq
            // candidates, keep only the maximal ones (not strictly
            // contained in another accepted sequence).
            if matches!(rule.extraction, Extraction::Subsq { .. }) {
                let snapshot = accepted.clone();
                accepted.retain(|t| {
                    let Target::NodeSeq { nodes, .. } = t else {
                        return true;
                    };
                    !snapshot.iter().any(|o| {
                        if let Target::NodeSeq { nodes: onodes, .. } = o {
                            onodes.len() > nodes.len() && nodes.iter().all(|n| onodes.contains(n))
                        } else {
                            false
                        }
                    })
                });
            }
            // Range criterion (1-based, per parent).
            if let Some((from, to)) = rule.conditions.iter().find_map(|c| match c {
                Condition::Range { from, to } => Some((*from, *to)),
                _ => None,
            }) {
                accepted = accepted
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| *i + 1 >= from && *i < to)
                    .map(|(_, t)| t)
                    .collect();
            }
            for target in accepted {
                let (_, new) = st.base.add(Instance {
                    pattern: rule.pattern.as_str().into(),
                    parent: parent_idx,
                    target,
                });
                changed |= new;
            }
        }
        changed
    }

    /// Apply the extraction atom, yielding (target, initial env) pairs.
    fn extract(&self, rule: &ElogRule, s: &Target, st: &mut State) -> Vec<(Target, Env)> {
        match &rule.extraction {
            Extraction::Specialize => vec![(s.clone(), Env::new())],
            Extraction::Subelem(path) => {
                let Some((did, roots)) = forest_of(s, &st.docs) else {
                    return vec![];
                };
                let doc = &st.docs[did.0 as usize];
                eval_path(doc, &roots, path)
                    .into_iter()
                    .map(|PathMatch { node, bindings }| {
                        let env: Env = bindings
                            .into_iter()
                            .map(|(k, v)| (k, Value::Str(v)))
                            .collect();
                        (Target::Node { doc: did, node }, env)
                    })
                    .collect()
            }
            Extraction::Subsq {
                context,
                start,
                end,
            } => {
                let Some((did, roots)) = forest_of(s, &st.docs) else {
                    return vec![];
                };
                let doc = &st.docs[did.0 as usize];
                let mut out = Vec::new();
                for ctx in eval_path(doc, &roots, context) {
                    let kids: Vec<NodeId> = doc.children(ctx.node).collect();
                    // All [i..=j] runs with matching delimiters; maximality
                    // is applied after conditions, in apply_rule order.
                    for i in 0..kids.len() {
                        if !member_matches(doc, kids[i], start) {
                            continue;
                        }
                        for j in i..kids.len() {
                            if member_matches(doc, kids[j], end) {
                                out.push((
                                    Target::NodeSeq {
                                        doc: did,
                                        nodes: kids[i..=j].to_vec(),
                                    },
                                    Env::new(),
                                ));
                            }
                        }
                    }
                }
                out
            }
            Extraction::Subtext(pattern) => {
                let (regex_src, vars) = crate::path::compile_regvar(pattern);
                let Ok(re) = lixto_regexlite::Regex::new(&regex_src) else {
                    return vec![];
                };
                // Only-empty patterns yield nothing (empty whole-matches
                // are discarded below) — skip the per-char-position scan.
                if re.matches_only_empty() {
                    return vec![];
                }
                let text = target_text(s, &st.docs);
                let mut out = Vec::new();
                for caps in re.captures_iter(&text) {
                    let Some(whole) = caps.get(0) else { continue };
                    if whole.text.is_empty() {
                        continue;
                    }
                    let mut env = Env::new();
                    let mut ok = true;
                    for v in &vars {
                        match caps.name(v) {
                            Some(m) => {
                                env.insert(v.clone(), Value::Str(m.text.to_string()));
                            }
                            None => ok = false,
                        }
                    }
                    if ok {
                        out.push((Target::Text(whole.text.to_string()), env));
                    }
                }
                out
            }
            Extraction::Subatt(attr) => match s {
                Target::Node { doc, node } => {
                    let d = &st.docs[doc.0 as usize];
                    match d.attr(*node, attr) {
                        Some(v) => vec![(Target::Text(v.to_string()), Env::new())],
                        None => vec![],
                    }
                }
                _ => vec![],
            },
            Extraction::Document(url_expr) => {
                // Resolve the URL: constant, or a variable bound by an
                // AttrBind/concept condition evaluated against S.
                let url = match url_expr {
                    UrlExpr::Const(u) => Some(u.clone()),
                    UrlExpr::Var(v) => {
                        // Pre-evaluate binding conditions against S.
                        let mut env = Env::new();
                        for c in &rule.conditions {
                            if let Condition::AttrBind { attr, var } = c {
                                if let Target::Node { doc, node } = s {
                                    let d = &st.docs[doc.0 as usize];
                                    if let Some(val) = d.attr(*node, attr) {
                                        env.insert(var.clone(), Value::Str(val.to_string()));
                                    }
                                }
                            }
                        }
                        env.get(v).and_then(|val| match val {
                            Value::Str(u) => Some(u.clone()),
                            Value::Node(..) => None,
                        })
                    }
                };
                let Some(url) = url else { return vec![] };
                match st.fetch(self.web, &url, self.options.max_documents) {
                    Some(did) => {
                        let root = st.docs[did.0 as usize].root();
                        vec![(
                            Target::Node {
                                doc: did,
                                node: root,
                            },
                            Env::new(),
                        )]
                    }
                    None => vec![],
                }
            }
        }
    }

    /// Evaluate Φ(S, X) with environment-set semantics.
    #[allow(clippy::too_many_arguments)]
    fn conditions_hold(
        &self,
        rule: &ElogRule,
        s: &Target,
        x: &Target,
        initial: Env,
        st: &State,
        witnesses: &[Option<Vec<PathMatch>>],
    ) -> bool {
        let mut envs = vec![initial];
        for (ci, cond) in rule.conditions.iter().enumerate() {
            if matches!(cond, Condition::Range { .. } | Condition::AttrBind { .. }) {
                // Range handled in apply_rule; AttrBind binds eagerly here.
                if let Condition::AttrBind { attr, var } = cond {
                    if let Target::Node { doc, node } = s {
                        let d = &st.docs[doc.0 as usize];
                        if let Some(v) = d.attr(*node, attr) {
                            for env in &mut envs {
                                env.insert(var.clone(), Value::Str(v.to_string()));
                            }
                        } else {
                            return false;
                        }
                    }
                }
                continue;
            }
            let mut next: Vec<Env> = Vec::new();
            for env in envs {
                next.extend(self.eval_condition(cond, s, x, env, st, witnesses[ci].as_deref()));
            }
            if next.is_empty() {
                return false;
            }
            envs = next;
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_condition(
        &self,
        cond: &Condition,
        s: &Target,
        x: &Target,
        env: Env,
        st: &State,
        hoisted: Option<&[PathMatch]>,
    ) -> Vec<Env> {
        match cond {
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
                let is_before = matches!(cond, Condition::Before { .. });
                let Some((did, roots)) = forest_of(s, &st.docs) else {
                    return vec![];
                };
                let _ = &roots;
                let doc = &st.docs[did.0 as usize];
                let Some((x_start, x_end)) = target_span(x, doc, did) else {
                    return vec![];
                };
                let all: Vec<PathMatch> = match hoisted {
                    Some(w) => w.to_vec(),
                    None => eval_path(doc, &roots, path),
                };
                let witnesses: Vec<PathMatch> = all
                    .into_iter()
                    .filter(|m| {
                        let (y_start, y_end) = node_span(doc, m.node);
                        if is_before {
                            y_end <= x_start && {
                                let d = (x_start - y_end) as u32;
                                d >= *min && d <= *max
                            }
                        } else {
                            y_start >= x_end && {
                                let d = (y_start - x_end) as u32;
                                d >= *min && d <= *max
                            }
                        }
                    })
                    .collect();
                if *negated {
                    if witnesses.is_empty() {
                        vec![env]
                    } else {
                        vec![]
                    }
                } else if let Some(v) = bind {
                    witnesses
                        .into_iter()
                        .map(|m| {
                            let mut e = env.clone();
                            e.insert(v.clone(), Value::Node(did, m.node));
                            for (k, sv) in m.bindings {
                                e.insert(k, Value::Str(sv));
                            }
                            e
                        })
                        .collect()
                } else if witnesses.is_empty() {
                    vec![]
                } else {
                    vec![env]
                }
            }
            Condition::Contains { path, negated } => {
                let Some((did, roots)) = forest_of(x, &st.docs) else {
                    return vec![];
                };
                let doc = &st.docs[did.0 as usize];
                let found = !eval_path(doc, &roots, path).is_empty();
                if found != *negated {
                    vec![env]
                } else {
                    vec![]
                }
            }
            Condition::FirstSubtree { path } => {
                let Some((did, roots)) = forest_of(s, &st.docs) else {
                    return vec![];
                };
                let doc = &st.docs[did.0 as usize];
                let matches = eval_path(doc, &roots, path);
                match (matches.first(), x) {
                    (Some(first), Target::Node { node, .. }) if first.node == *node => {
                        vec![env]
                    }
                    _ => vec![],
                }
            }
            Condition::Concept {
                concept,
                var,
                negated,
            } => {
                let value = match env.get(var) {
                    Some(Value::Str(sv)) => sv.clone(),
                    Some(Value::Node(did, node)) => st.docs[did.0 as usize].text_content(*node),
                    None if var == "X" => target_text(x, &st.docs),
                    None => return vec![],
                };
                if self.concepts.holds(concept, &value) != *negated {
                    vec![env]
                } else {
                    vec![]
                }
            }
            Condition::Comparison {
                left,
                op,
                right,
                right_is_literal,
            } => {
                let resolve = |name: &str| -> Option<String> {
                    match env.get(name) {
                        Some(Value::Str(sv)) => Some(sv.clone()),
                        Some(Value::Node(did, node)) => {
                            Some(st.docs[did.0 as usize].text_content(*node))
                        }
                        None if name == "X" => Some(target_text(x, &st.docs)),
                        None => None,
                    }
                };
                let Some(l) = resolve(left) else {
                    return vec![];
                };
                let r = if *right_is_literal {
                    right.clone()
                } else {
                    match resolve(right) {
                        Some(r) => r,
                        None => return vec![],
                    }
                };
                if compare_values(&l, op, &r) {
                    vec![env]
                } else {
                    vec![]
                }
            }
            Condition::PatternRef { pattern, var } => {
                let Some(value) = env.get(var) else {
                    return vec![];
                };
                let is_instance = st.base.instances.iter().any(|inst| {
                    &*inst.pattern == pattern.as_str()
                        && match (&inst.target, value) {
                            (Target::Node { doc, node }, Value::Node(vd, vn)) => {
                                doc == vd && node == vn
                            }
                            (Target::Text(t), Value::Str(sv)) => t == sv,
                            _ => false,
                        }
                });
                if is_instance {
                    vec![env]
                } else {
                    vec![]
                }
            }
            Condition::AttrBind { .. } | Condition::Range { .. } => vec![env],
        }
    }
}

struct State {
    base: InstanceBase,
    docs: Vec<Document>,
    doc_urls: Vec<String>,
    url_ids: HashMap<String, DocId>,
    /// URLs that failed to fetch (after the single immediate retry),
    /// pinned for the rest of the run — the same semantics as the plan
    /// executor, so results do not depend on how many fixpoint passes
    /// re-visit a fetching rule.
    failed: HashSet<String>,
}

impl State {
    fn fetch(&mut self, web: &dyn WebSource, url: &str, cap: usize) -> Option<DocId> {
        if let Some(&id) = self.url_ids.get(url) {
            return Some(id);
        }
        if self.failed.contains(url) {
            return None;
        }
        if self.docs.len() >= cap {
            return None;
        }
        let Some(html) = web.fetch(url).or_else(|| web.fetch(url)) else {
            self.failed.insert(url.to_string());
            return None;
        };
        let doc = lixto_html::parse(&html);
        let id = DocId(self.docs.len() as u32);
        self.docs.push(doc);
        self.doc_urls.push(url.to_string());
        self.url_ids.insert(url.to_string(), id);
        Some(id)
    }
}

/// Does a node satisfy a single-step delimiter path (tag test of the last
/// step plus attribute conditions)? Used by `subsq` start/end delimiters.
fn member_matches(doc: &Document, n: NodeId, path: &ElementPath) -> bool {
    let Some(last) = path.steps.last() else {
        return true;
    };
    if !tag_matches(doc, n, &last.tag) {
        return false;
    }
    path.attrs.iter().all(|c| check_attr(doc, n, c).is_some())
}

/// The forest context of a target: (document, roots). For nodes the roots
/// are the children; for sequences, the members.
pub(crate) fn forest_of(t: &Target, docs: &[Document]) -> Option<(DocId, Vec<NodeId>)> {
    match t {
        Target::Node { doc, node } => {
            let d = &docs[doc.0 as usize];
            Some((*doc, d.children(*node).collect()))
        }
        Target::NodeSeq { doc, nodes } => Some((*doc, nodes.clone())),
        Target::Text(_) => None,
    }
}

/// Text content of a target.
pub(crate) fn target_text(t: &Target, docs: &[Document]) -> String {
    match t {
        Target::Node { doc, node } => docs[doc.0 as usize].text_content(*node),
        Target::NodeSeq { doc, nodes } => {
            let d = &docs[doc.0 as usize];
            nodes.iter().map(|&n| d.text_content(n)).collect()
        }
        Target::Text(s) => s.clone(),
    }
}

/// (preorder start, subtree end) of a target — used for distances.
pub(crate) fn target_span(t: &Target, doc: &Document, expected: DocId) -> Option<(usize, usize)> {
    match t {
        Target::Node { doc: d, node } if *d == expected => Some(node_span(doc, *node)),
        Target::NodeSeq { doc: d, nodes } if *d == expected => {
            let first = nodes.first()?;
            let last = nodes.last()?;
            Some((
                doc.order().pre(*first) as usize,
                doc.order().subtree_range(*last).1,
            ))
        }
        _ => None,
    }
}

pub(crate) fn node_span(doc: &Document, n: NodeId) -> (usize, usize) {
    let (s, e) = doc.order().subtree_range(n);
    (s, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AttrMode;
    use crate::web::SinglePage;

    fn rule(
        pattern: &str,
        parent: ParentSpec,
        extraction: Extraction,
        conditions: Vec<Condition>,
    ) -> ElogRule {
        ElogRule {
            pattern: pattern.into(),
            parent,
            extraction,
            conditions,
        }
    }

    fn page(html: &str) -> SinglePage {
        SinglePage {
            url: "http://test/".into(),
            html: html.into(),
        }
    }

    fn doc_parent() -> ParentSpec {
        ParentSpec::Document(UrlExpr::Const("http://test/".into()))
    }

    #[test]
    fn subelem_with_conditions() {
        let web = page(
            "<body><table><tr><td>item</td></tr></table>\
             <table><tr><td><a href='u'>D1</a></td><td>$ 10</td></tr></table><hr></body>",
        );
        let program = ElogProgram {
            rules: vec![
                rule("page", doc_parent(), Extraction::Specialize, vec![]),
                rule(
                    "desc",
                    ParentSpec::Pattern("page".into()),
                    Extraction::Subelem(ElementPath::anywhere("td").with_attr(
                        "elementtext",
                        "D",
                        AttrMode::Substr,
                    )),
                    vec![],
                ),
            ],
        };
        let result = Extractor::new(program, &web).run();
        assert_eq!(result.texts_of("desc"), vec!["D1"]);
    }

    #[test]
    fn probe_counts_rule_invocations_and_matches() {
        let web = page(
            "<body><table><tr><td>item</td></tr></table>\
             <table><tr><td><a href='u'>D1</a></td><td>$ 10</td></tr></table><hr></body>",
        );
        let program = ElogProgram {
            rules: vec![
                rule("page", doc_parent(), Extraction::Specialize, vec![]),
                rule(
                    "cell",
                    ParentSpec::Pattern("page".into()),
                    Extraction::Subelem(ElementPath::anywhere("td")),
                    vec![],
                ),
            ],
        };
        let stats = std::sync::Arc::new(lixto_obs::RuleStats::new(vec![
            "page".to_string(),
            "cell".to_string(),
        ]));
        let probe = crate::ExecProbe::new(Some(stats.clone()));
        let plan = WrapperPlan::compile(program, &ConceptRegistry::builtin()).unwrap();
        let opt = std::sync::Arc::new(OptimizedPlan::new(std::sync::Arc::new(plan)));
        let traced = Extractor::from_optimized(opt.clone(), &web)
            .with_probe(&probe)
            .run();
        // The probe must not change results.
        let plain = Extractor::from_optimized(opt, &web).run();
        assert_eq!(traced.base.instances, plain.base.instances);

        let snap = stats.snapshot();
        // Total matches across rules equals the instance count, and the
        // probe saw the entry fetch + parse.
        let matched: u64 = snap.iter().map(|r| r.matches).sum();
        assert_eq!(matched, traced.base.len() as u64);
        assert!(snap.iter().all(|r| r.invocations >= 1));
        assert_eq!(snap[1].matches, 3); // three <td> cells
        assert!(probe.fetch_ns() > 0);
        assert!(probe.parse_ns() > 0);
    }

    #[test]
    fn before_and_after_distances() {
        let web = page("<body><h1>head</h1><p>target</p><hr></body>");
        // p immediately after h1 (distance 0) and immediately before hr.
        let program = ElogProgram {
            rules: vec![rule(
                "x",
                doc_parent(),
                Extraction::Subelem(ElementPath::anywhere("p")),
                vec![
                    Condition::Before {
                        path: ElementPath::anywhere("h1"),
                        min: 0,
                        max: 0,
                        bind: None,
                        negated: false,
                    },
                    Condition::After {
                        path: ElementPath::anywhere("hr"),
                        min: 0,
                        max: 0,
                        bind: None,
                        negated: false,
                    },
                ],
            )],
        };
        let result = Extractor::new(program, &web).run();
        assert_eq!(result.texts_of("x"), vec!["target"]);
    }

    #[test]
    fn notbefore_excludes() {
        let web = page("<body><h1>h</h1><p>a</p><p>b</p></body>");
        // Select p's NOT immediately preceded by an h1 (only "b": "a"'s
        // subtree starts right after h1 ends).
        let program = ElogProgram {
            rules: vec![rule(
                "x",
                doc_parent(),
                Extraction::Subelem(ElementPath::anywhere("p")),
                vec![Condition::Before {
                    path: ElementPath::anywhere("h1"),
                    min: 0,
                    max: 0,
                    bind: None,
                    negated: true,
                }],
            )],
        };
        let result = Extractor::new(program, &web).run();
        assert_eq!(result.texts_of("x"), vec!["b"]);
    }

    #[test]
    fn specialization_rule_filters_parent() {
        let web = page(
            "<body><table bgcolor='green'><tr><td>g</td></tr></table>\
             <table><tr><td>w</td></tr></table></body>",
        );
        let program = ElogProgram {
            rules: vec![
                rule(
                    "table",
                    doc_parent(),
                    Extraction::Subelem(ElementPath::anywhere("table")),
                    vec![],
                ),
                // greentable(S, X) ← table(S, X), attribute condition — a
                // specialization (footnote 6), here via Contains on self.
                rule(
                    "greentable",
                    ParentSpec::Pattern("table".into()),
                    Extraction::Specialize,
                    vec![Condition::Contains {
                        path: ElementPath {
                            steps: vec![],
                            attrs: vec![],
                        },
                        negated: false,
                    }],
                ),
            ],
        };
        // Contains with an empty path matches the forest roots, i.e. the
        // children — always true; instead filter green via the pattern:
        let mut program = program;
        program.rules[1].extraction = Extraction::Specialize;
        program.rules[1].conditions = vec![Condition::Contains {
            path: ElementPath::anywhere("td").with_attr("elementtext", "g", AttrMode::Exact),
            negated: false,
        }];
        let result = Extractor::new(program, &web).run();
        assert_eq!(result.texts_of("greentable"), vec!["g"]);
        assert_eq!(result.texts_of("table").len(), 2);
    }

    #[test]
    fn subtext_binds_and_concept_checks() {
        let web = page("<body><td>price: $ 10.50 (3 bids)</td></body>");
        let program = ElogProgram {
            rules: vec![
                rule(
                    "cell",
                    doc_parent(),
                    Extraction::Subelem(ElementPath::anywhere("td")),
                    vec![],
                ),
                rule(
                    "currency",
                    ParentSpec::Pattern("cell".into()),
                    Extraction::Subtext(r"\var[Y](\$|EUR|DM)".into()),
                    vec![Condition::Concept {
                        concept: "isCurrency".into(),
                        var: "Y".into(),
                        negated: false,
                    }],
                ),
            ],
        };
        let result = Extractor::new(program, &web).run();
        assert_eq!(result.texts_of("currency"), vec!["$"]);
    }

    #[test]
    fn crawling_follows_links() {
        let mut web = crate::web::StaticWeb::new();
        web.put(
            "http://start/",
            "<body><a href='http://page2/'>next</a><p>first</p></body>",
        );
        web.put("http://page2/", "<body><p>second</p></body>");
        let program = ElogProgram {
            rules: vec![
                rule(
                    "page",
                    ParentSpec::Document(UrlExpr::Const("http://start/".into())),
                    Extraction::Specialize,
                    vec![],
                ),
                rule(
                    "link",
                    ParentSpec::Pattern("page".into()),
                    Extraction::Subelem(ElementPath::anywhere("a")),
                    vec![],
                ),
                rule(
                    "page",
                    ParentSpec::Pattern("link".into()),
                    Extraction::Document(UrlExpr::Var("U".into())),
                    vec![Condition::AttrBind {
                        attr: "href".into(),
                        var: "U".into(),
                    }],
                ),
                rule(
                    "para",
                    ParentSpec::Pattern("page".into()),
                    Extraction::Subelem(ElementPath::anywhere("p")),
                    vec![],
                ),
            ],
        };
        let result = Extractor::new(program, &web).run();
        let mut texts = result.texts_of("para");
        texts.sort();
        assert_eq!(texts, vec!["first", "second"]);
        assert_eq!(result.docs.len(), 2);
    }

    #[test]
    fn range_criterion() {
        let web = page("<ul><li>1</li><li>2</li><li>3</li><li>4</li></ul>");
        let program = ElogProgram {
            rules: vec![
                rule("page", doc_parent(), Extraction::Specialize, vec![]),
                rule(
                    "item",
                    ParentSpec::Pattern("page".into()),
                    Extraction::Subelem(ElementPath::anywhere("li")),
                    vec![Condition::Range { from: 2, to: 3 }],
                ),
            ],
        };
        let result = Extractor::new(program, &web).run();
        assert_eq!(result.texts_of("item"), vec!["2", "3"]);
    }

    #[test]
    fn pattern_reference_with_binding() {
        // bids-like: td cells that are within distance of a price cell.
        let web = page("<table><tr><td>Desc</td><td>$ 5</td><td>7</td></tr></table>");
        let mut program = ElogProgram::default();
        program.rules.push(rule(
            "row",
            doc_parent(),
            Extraction::Subelem(ElementPath::anywhere("tr")),
            vec![],
        ));
        program.rules.push(rule(
            "price",
            ParentSpec::Pattern("row".into()),
            Extraction::Subelem(ElementPath::children(&["td"]).with_attr(
                "elementtext",
                r"\var[Y](\$|EUR)",
                AttrMode::Regvar,
            )),
            vec![],
        ));
        program.rules.push(rule(
            "bids",
            ParentSpec::Pattern("row".into()),
            Extraction::Subelem(ElementPath::children(&["td"])),
            vec![
                Condition::Before {
                    path: ElementPath::children(&["td"]),
                    min: 0,
                    max: 5,
                    bind: Some("Y".into()),
                    negated: false,
                },
                Condition::PatternRef {
                    pattern: "price".into(),
                    var: "Y".into(),
                },
            ],
        ));
        let result = Extractor::new(program, &web).run();
        assert_eq!(result.texts_of("bids"), vec!["7"]);
    }

    #[test]
    fn subsq_maximal_sequences() {
        let web = page(
            "<body><table><tr><td>item</td></tr></table>\
             <table><tr><td>1</td></tr></table>\
             <table><tr><td>2</td></tr></table>\
             <hr></body>",
        );
        let program = ElogProgram {
            rules: vec![rule(
                "tableseq",
                doc_parent(),
                Extraction::Subsq {
                    context: ElementPath::children(&["body"]),
                    start: ElementPath::children(&["table"]),
                    end: ElementPath::children(&["table"]),
                },
                vec![
                    Condition::Before {
                        path: ElementPath::anywhere("table").with_attr(
                            "elementtext",
                            "item",
                            AttrMode::Substr,
                        ),
                        min: 0,
                        max: 0,
                        bind: None,
                        negated: false,
                    },
                    Condition::After {
                        path: ElementPath::anywhere("hr"),
                        min: 0,
                        max: 0,
                        bind: None,
                        negated: false,
                    },
                ],
            )],
        };
        let result = Extractor::new(program, &web).run();
        let seqs = result.base.of_pattern("tableseq");
        assert_eq!(seqs.len(), 1);
        match &result.base.instances[seqs[0]].target {
            Target::NodeSeq { nodes, .. } => assert_eq!(nodes.len(), 2),
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn result_clone_eq_and_patterns() {
        let web = crate::web::SinglePage {
            url: "http://p/".into(),
            html: "<html><body><ul><li><b>x</b></li><li><b>y</b></li></ul></body></html>".into(),
        };
        let program = crate::parser::parse_program(
            r#"item(S, X) :- document("http://p/", S), subelem(S, (?.li, []), X).
               name(S, X) :- item(_, S), subelem(S, (.b, []), X)."#,
        )
        .unwrap();
        let a = Extractor::new(program.clone(), &web).run();
        let b = a.clone();
        assert_eq!(a, b);
        // A fresh run is equal too (deterministic evaluation).
        assert_eq!(a, Extractor::new(program, &web).run());
        assert_eq!(a.patterns(), ["item".to_string(), "name".to_string()]);
    }
}
