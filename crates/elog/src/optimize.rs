//! The plan optimizer: the analysis pass between compilation
//! ([`crate::plan`]) and execution.
//!
//! A compiled [`WrapperPlan`] is faithful to source order and evaluates
//! by running every rule to global quiescence — correct, but wasteful on
//! the common shape of a production wrapper: an acyclic pattern hierarchy
//! whose rules are already written parents-first, where the generic
//! fixpoint pays a full extra pass (re-walking every entry document) just
//! to observe that nothing changed, and sibling rules re-walk the same
//! parent subtrees with almost-identical paths. The optimizer proves three
//! transformations safe per wrapper and records them in an
//! [`OptimizedPlan`] the executor consumes:
//!
//! 1. **Rule scheduling** — the rule dependency DAG (parent-pattern edges
//!    plus `PatternRef` edges) is built from the indexed rule table and
//!    topologically stratified. When every producer precedes every
//!    consumer in source order (true for every acyclic wrapper written
//!    top-down, including the whole workload corpus), the fixpoint
//!    collapses to [`Schedule::SinglePass`]: each rule runs exactly once,
//!    and the result is provably identical because pass two of the
//!    generic fixpoint could only re-read inputs that were already
//!    complete. Any cycle (crawling back to an earlier pattern) or
//!    out-of-order producer falls back to [`Schedule::Fixpoint`] — rules
//!    always run in source order, since instance insertion order is
//!    observable through the XML output.
//! 2. **Path-matcher fusion** — every element path (extraction paths,
//!    `subsq` context paths, condition paths) with at most 64 steps is
//!    compiled to a [`PathAutomaton`]: the path's positional NFA run by
//!    on-the-fly subset construction in one downward traversal, with tag
//!    tests resolved to interned label symbols per document. Longer paths
//!    keep the step-by-step evaluator.
//! 3. **Shared sub-matcher hoisting** — path sites that walk the parent
//!    forest (`subelem`, `subsq` context, `before`/`after` and
//!    `firstsubtree` paths) are grouped by (parent pattern, step
//!    skeleton + tag tests); groups with two or more sites share one
//!    tree walk per (parent instance) through a per-run memo table, each
//!    site applying its own attribute conditions to the shared node list.
//!
//! Conditions always run in source order. Every transformation is
//! observation-equivalent — byte-identical instances, instance order and
//! XML — which `tests/plan_equivalence.rs` asserts against the
//! interpreted walker across the workload corpus. The [`OptimizeReport`]
//! records what fired so `/debug/wrappers/{name}` can expose it.

use std::collections::HashMap;
use std::sync::Arc;

use lixto_regexlite::Regex;

use crate::plan::{
    PatternId, PlanAttr, PlanCondition, PlanExtraction, PlanParent, PlanPath, PlanRule, PlanTag,
    WrapperPlan,
};
use crate::topdown::PathAutomaton;

/// How the executor drives the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// The dependency DAG is acyclic and source order is topological:
    /// every rule runs exactly once, in source order.
    SinglePass,
    /// Cyclic dependencies (or out-of-order producers): iterate to
    /// global quiescence, skipping (semi-naively) every rule whose parent
    /// and referenced patterns have not grown since it last ran.
    Fixpoint,
}

impl Schedule {
    /// Stable lowercase name for reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Schedule::SinglePass => "single_pass",
            Schedule::Fixpoint => "fixpoint",
        }
    }
}

/// A fused path matcher: the step skeleton as a [`PathAutomaton`], the
/// per-step tag tests, and the final-node attribute conditions.
pub(crate) struct FusedPath {
    pub(crate) auto: PathAutomaton,
    pub(crate) shape: FusedShape,
    pub(crate) tests: Vec<FusedTag>,
    pub(crate) attrs: Vec<PlanAttr>,
}

/// How a fused path is evaluated. Documents keep a flat preorder arena,
/// so the two single-step shapes — which cover most real wrapper paths —
/// are answered by a straight slice scan (or by testing the roots
/// themselves), with no DFS stack at all. Longer skeletons run the
/// subset-construction automaton.
pub(crate) enum FusedShape {
    /// One non-descend step: the first step tests each root directly and
    /// nothing descends, so the matches are exactly the roots that pass.
    ChildOne,
    /// One descend step: descendants-or-self of each root, a contiguous
    /// preorder-slice scan per root. Roots are disjoint subtrees in
    /// document order, so concatenation needs no sort or dedup.
    DescendOne,
    /// General multi-step skeleton: the [`PathAutomaton`].
    Auto,
}

/// One step's tag test, ready for per-document symbol resolution.
pub(crate) enum FusedTag {
    /// `*` — any element node.
    Any,
    /// Exact name; resolved to the document's interned symbol once per
    /// evaluation (an absent symbol proves the whole path empty on that
    /// document without walking it).
    Name(String),
    /// Regex over the tag name.
    Regex(Regex),
}

/// How a path site evaluates under the optimizer.
#[derive(Clone, Copy)]
pub(crate) struct PathUse {
    /// Index into [`OptimizedPlan::fused`].
    pub(crate) fused: u32,
    /// Hoist group id, when the site shares its step walk.
    pub(crate) group: Option<u32>,
}

/// Per-rule optimizer decisions, parallel to `WrapperPlan::rules`.
pub(crate) struct OptRule {
    /// Fused matcher for the extraction path (`subelem` path or `subsq`
    /// context path); `None` keeps the fallback evaluator.
    pub(crate) extraction_path: Option<PathUse>,
    /// Fused matcher per condition (paths of `before`/`after`,
    /// `contains`, `firstsubtree`), parallel to `conditions`.
    pub(crate) cond_paths: Vec<Option<PathUse>>,
    /// No other rule produces this rule's pattern. Under a single-pass
    /// schedule the rule then runs exactly once and a subelem extraction
    /// yields distinct nodes per parent, so every `(pattern, parent,
    /// target)` key is provably fresh and the executor's dedup check can
    /// be skipped.
    pub(crate) sole_producer: bool,
}

/// What the optimizer did to a wrapper — exposed through
/// `/debug/wrappers/{name}`.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    /// The chosen schedule.
    pub schedule: Schedule,
    /// Rule count.
    pub rules: usize,
    /// Strata of the topologically stratified rule DAG (0 when the
    /// dependency graph is cyclic and no stratification exists).
    pub strata: usize,
    /// Paths compiled to fused automata.
    pub fused_paths: usize,
    /// Paths kept on the step-by-step fallback (more than
    /// [`PathAutomaton::MAX_STEPS`] steps).
    pub fallback_paths: usize,
    /// Shared sub-matcher groups (two or more sites).
    pub hoist_groups: usize,
    /// Total path sites participating in a shared group.
    pub hoisted_sites: usize,
}

/// A compiled-and-optimized wrapper: the [`WrapperPlan`] plus the
/// schedule, fused matchers and hoist groups the optimized executor
/// consumes. Produced by [`OptimizedPlan::new`]; executed by
/// [`Extractor::from_optimized`](crate::Extractor::from_optimized).
pub struct OptimizedPlan {
    plan: Arc<WrapperPlan>,
    pub(crate) schedule: Schedule,
    pub(crate) rules: Vec<OptRule>,
    pub(crate) fused: Vec<FusedPath>,
    report: OptimizeReport,
}

impl OptimizedPlan {
    /// Optimize a compiled plan. Infallible: transformations that cannot
    /// be proven safe are simply not applied (and the report says so).
    pub fn new(plan: Arc<WrapperPlan>) -> OptimizedPlan {
        optimize(plan)
    }

    /// The underlying compiled plan.
    pub fn plan(&self) -> &Arc<WrapperPlan> {
        &self.plan
    }

    /// The chosen schedule.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// What the optimizer did.
    pub fn report(&self) -> &OptimizeReport {
        &self.report
    }
}

impl std::fmt::Debug for OptimizedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptimizedPlan")
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// A hashable identity for a path's step list (skeleton + tag tests,
/// attribute conditions excluded): two sites with equal signatures walk
/// the tree identically and can share one evaluation.
#[derive(PartialEq, Eq, Hash)]
struct StepsSig(Vec<(bool, TagSig)>);

#[derive(PartialEq, Eq, Hash)]
enum TagSig {
    Any,
    Name(String),
    Regex(String),
}

fn signature(path: &PlanPath) -> StepsSig {
    StepsSig(
        path.steps
            .iter()
            .map(|s| {
                let tag = match &s.tag {
                    PlanTag::Any => TagSig::Any,
                    PlanTag::Name(n) => TagSig::Name(n.clone()),
                    PlanTag::Regex(re) => TagSig::Regex(re.as_str().to_string()),
                };
                (s.descend, tag)
            })
            .collect(),
    )
}

/// Run the analysis. See the module docs for the three transformations.
fn optimize(plan: Arc<WrapperPlan>) -> OptimizedPlan {
    let rules = plan.rules();
    let (schedule, strata) = schedule_of(&plan);

    // --- Fusion + hoisting -------------------------------------------
    // First enumerate the hoistable sites (paths walked over the parent
    // forest) to find signatures shared by two or more sites per parent
    // pattern; then compile every path, attaching group ids.
    let mut sig_counts: HashMap<(PatternId, StepsSig), u32> = HashMap::new();
    for rule in rules {
        let PlanParent::Pattern(parent) = rule.parent else {
            continue;
        };
        for path in hoistable_paths(rule) {
            *sig_counts.entry((parent, signature(path))).or_insert(0) += 1;
        }
    }
    let mut group_ids: HashMap<(PatternId, StepsSig), u32> = HashMap::new();
    for ((parent, sig), count) in sig_counts {
        if count >= 2 {
            let id = group_ids.len() as u32;
            group_ids.insert((parent, sig), id);
        }
    }

    let mut fused: Vec<FusedPath> = Vec::new();
    let mut fallback_paths = 0usize;
    let mut hoisted_sites = 0usize;
    let mut fuse =
        |path: &PlanPath, parent: Option<PatternId>, hoistable: bool| -> Option<PathUse> {
            let skeleton: Vec<bool> = path.steps.iter().map(|s| s.descend).collect();
            let Some(auto) = PathAutomaton::new(&skeleton) else {
                fallback_paths += 1;
                return None;
            };
            let group = match (parent, hoistable) {
                (Some(p), true) => group_ids.get(&(p, signature(path))).copied(),
                _ => None,
            };
            if group.is_some() {
                hoisted_sites += 1;
            }
            let id = fused.len() as u32;
            let shape = match path.steps.as_slice() {
                [s] if s.descend => FusedShape::DescendOne,
                [_] => FusedShape::ChildOne,
                _ => FusedShape::Auto,
            };
            fused.push(FusedPath {
                auto,
                shape,
                tests: path
                    .steps
                    .iter()
                    .map(|s| match &s.tag {
                        PlanTag::Any => FusedTag::Any,
                        PlanTag::Name(n) => FusedTag::Name(n.clone()),
                        PlanTag::Regex(re) => FusedTag::Regex(re.clone()),
                    })
                    .collect(),
                attrs: path.attrs.clone(),
            });
            Some(PathUse { fused: id, group })
        };

    let mut pattern_rules = vec![0usize; plan.patterns().len()];
    for rule in rules {
        pattern_rules[rule.pattern as usize] += 1;
    }
    let mut opt_rules: Vec<OptRule> = Vec::with_capacity(rules.len());
    for rule in rules {
        let parent = match rule.parent {
            PlanParent::Pattern(p) => Some(p),
            PlanParent::Document(_) => None,
        };
        let extraction_path = match &rule.extraction {
            PlanExtraction::Subelem(path) => fuse(path, parent, true),
            PlanExtraction::Subsq { context, .. } => fuse(context, parent, true),
            _ => None,
        };
        let cond_paths: Vec<Option<PathUse>> = rule
            .conditions
            .iter()
            .map(|c| match c {
                // Context and firstsubtree walk the parent forest and can
                // share; contains walks the candidate's own subtree.
                PlanCondition::Context { path, .. } | PlanCondition::FirstSubtree { path } => {
                    fuse(path, parent, true)
                }
                PlanCondition::Contains { path, .. } => fuse(path, None, false),
                _ => None,
            })
            .collect();
        opt_rules.push(OptRule {
            extraction_path,
            cond_paths,
            sole_producer: pattern_rules[rule.pattern as usize] == 1,
        });
    }

    let report = OptimizeReport {
        schedule,
        rules: rules.len(),
        strata,
        fused_paths: fused.len(),
        fallback_paths,
        hoist_groups: group_ids.len(),
        hoisted_sites,
    };
    OptimizedPlan {
        plan,
        schedule,
        rules: opt_rules,
        fused,
        report,
    }
}

/// The paths of a rule that are evaluated over the parent forest (and so
/// can share a walk with sibling rules on the same parent pattern).
fn hoistable_paths(rule: &PlanRule) -> Vec<&PlanPath> {
    let mut out = Vec::new();
    match &rule.extraction {
        PlanExtraction::Subelem(path) => out.push(path),
        PlanExtraction::Subsq { context, .. } => out.push(context),
        _ => {}
    }
    for c in &rule.conditions {
        match c {
            PlanCondition::Context { path, .. } | PlanCondition::FirstSubtree { path } => {
                out.push(path)
            }
            _ => {}
        }
    }
    out
}

/// Build the rule dependency graph and decide the schedule. Returns the
/// schedule and the stratum count (0 when cyclic).
fn schedule_of(plan: &WrapperPlan) -> (Schedule, usize) {
    let rules = plan.rules();
    let mut producers: HashMap<PatternId, Vec<usize>> = HashMap::new();
    for (i, r) in rules.iter().enumerate() {
        producers.entry(r.pattern).or_default().push(i);
    }
    // edges[j] = producers rule j reads from (parent pattern + refs).
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); rules.len()];
    let mut source_topological = true;
    for (j, r) in rules.iter().enumerate() {
        let mut deps: Vec<PatternId> = Vec::new();
        if let PlanParent::Pattern(p) = r.parent {
            deps.push(p);
        }
        deps.extend(r.refs.iter().copied());
        for p in deps {
            for &i in producers.get(&p).into_iter().flatten() {
                if i >= j {
                    source_topological = false;
                }
                edges[j].push(i);
            }
        }
    }
    if source_topological {
        // Forward-only edges: acyclic by construction; stratum of a rule
        // is its longest producer chain.
        let mut depth = vec![1usize; rules.len()];
        for j in 0..rules.len() {
            for &i in &edges[j] {
                depth[j] = depth[j].max(depth[i] + 1);
            }
        }
        let strata = depth.iter().copied().max().unwrap_or(0);
        return (Schedule::SinglePass, strata);
    }
    // Not source-topological. Stratify anyway (for the report) if the
    // graph happens to be acyclic; Kahn's algorithm detects cycles.
    // edges[j] lists predecessors of j, so j's in-degree is edges[j].len()
    // (self-loops count and correctly block the queue).
    let mut indeg: Vec<usize> = edges.iter().map(Vec::len).collect();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); rules.len()];
    for (j, deps) in edges.iter().enumerate() {
        for &i in deps {
            succ[i].push(j);
        }
    }
    let mut queue: Vec<usize> = (0..rules.len()).filter(|&j| indeg[j] == 0).collect();
    let mut depth = vec![1usize; rules.len()];
    let mut seen = 0usize;
    while let Some(i) = queue.pop() {
        seen += 1;
        for &j in &succ[i] {
            depth[j] = depth[j].max(depth[i] + 1);
            indeg[j] -= 1;
            if indeg[j] == 0 {
                queue.push(j);
            }
        }
    }
    let strata = if seen == rules.len() {
        depth.iter().copied().max().unwrap_or(0)
    } else {
        0 // cyclic: no stratification exists
    };
    (Schedule::Fixpoint, strata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::ConceptRegistry;
    use crate::parser::parse_program;

    fn optimized(src: &str) -> OptimizedPlan {
        let program = parse_program(src).unwrap();
        let plan = WrapperPlan::compile(program, &ConceptRegistry::builtin()).unwrap();
        optimize(Arc::new(plan))
    }

    #[test]
    fn acyclic_topdown_wrapper_single_passes() {
        let opt = optimized(
            r#"story(S, X) :- document("http://n/", S), subelem(S, (?.div, [(class, story, exact)]), X).
               headline(S, X) :- story(_, S), subelem(S, (.h2, []), X).
               ticker(S, X) :- story(_, S), subelem(S, (.span, [(class, ticker, exact)]), X).
               quote(S, X) :- story(_, S), subelem(S, (.span, [(class, quote, exact)]), X)."#,
        );
        assert_eq!(opt.schedule(), Schedule::SinglePass);
        let r = opt.report();
        assert_eq!(r.strata, 2); // entry stratum, then the three children
        assert_eq!(r.fused_paths, 4);
        assert_eq!(r.fallback_paths, 0);
        // ticker and quote share the `.span` walk; h2 stands alone.
        assert_eq!(r.hoist_groups, 1);
        assert_eq!(r.hoisted_sites, 2);
    }

    #[test]
    fn crawling_cycle_falls_back_to_fixpoint() {
        let opt = optimized(
            r#"page(S, X) :- document("http://start/", S), subelem(S, (?.body, []), X).
               link(S, X) :- page(_, S), subelem(S, (?.a, []), X).
               page(S, X) :- link(_, S), document(U, X), attrbind(S, href, U).
               para(S, X) :- page(_, S), subelem(S, (?.p, []), X)."#,
        );
        assert_eq!(opt.schedule(), Schedule::Fixpoint);
        assert_eq!(opt.report().strata, 0); // page -> link -> page is a cycle
    }

    #[test]
    fn extraction_and_context_paths_share_a_hoist_group() {
        let opt = optimized(
            r#"row(S, X) :- document("http://p/", S), subelem(S, (?.tr, []), X).
               price(S, X) :- row(_, S), subelem(S, (.td, []), X).
               bids(S, X) :- row(_, S), subelem(S, (.td, []), X),
                             before(S, X, (.td, []), 0, 5, Y), price(_, Y)."#,
        );
        // price's `.td` extraction and bids' extraction + context path all
        // share one walk over each row.
        assert_eq!(opt.report().hoist_groups, 1);
        assert_eq!(opt.report().hoisted_sites, 3);
    }
}
