//! Execution of [`OptimizedPlan`]s — the one compiled executor.
//!
//! The executor is the cheap, repeatable half of the compile-once /
//! run-many split: every per-run cost the interpreted evaluator pays —
//! regex compilation, `HashMap` environments keyed by variable name,
//! linear scans of the instance base for parents, duplicates and pattern
//! references — is replaced by slot frames (`Vec<Option<Value>>`),
//! precompiled matchers, and per-pattern indexes. On top of that it
//! applies the optimizer's decisions: the single-pass schedule, fused
//! path automata and the shared sub-matcher memo. Under a
//! [`Schedule::Fixpoint`] a semi-naive touch skips rules whose inputs
//! (parent pattern and referenced patterns) have not grown since the
//! rule last ran. Paths too long to fuse run through the step-by-step
//! evaluator (`eval_plan_path`).
//!
//! Everything here deliberately mirrors the interpreted evaluator in
//! `eval.rs` step for step: execution must be *result-identical*,
//! instance order included, which the `plan_equivalence` integration
//! test asserts across the workload corpus.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use lixto_obs::RuleStats;
use lixto_tree::{Document, NodeId, NodeKind, Symbol};

use crate::concepts::compare_values;
use crate::eval::{
    forest_of, node_span, target_span, target_text, ExtractionResult, ExtractorOptions, Value,
};
use crate::fxhash::FxHasher64;
use crate::instances::{DocId, Instance, InstanceBase, Target};
use crate::optimize::{FusedPath, FusedShape, FusedTag, OptRule, OptimizedPlan, PathUse, Schedule};
use crate::plan::{
    PatternId, PlanAttr, PlanAttrMatch, PlanCondition, PlanExtraction, PlanParent, PlanPath,
    PlanRule, PlanTag, PlanUrl, PlanVarRef, SlotId, WrapperPlan,
};
use crate::web::WebSource;

/// FxHash: the dedup and reference sets sit on the per-instance hot
/// path, where SipHash's per-lookup cost would eat the win on small
/// documents.
type FxSet<T> = HashSet<T, BuildHasherDefault<FxHasher64>>;

/// Optional execution telemetry. When attached (via
/// [`Extractor::with_probe`](crate::Extractor::with_probe)) the executor
/// times each rule invocation into the shared [`RuleStats`] and
/// accumulates document fetch / HTML parse wall time; when absent the
/// hot loop takes no clock readings at all.
pub struct ExecProbe {
    rules: Option<Arc<RuleStats>>,
    fetch_ns: Cell<u64>,
    parse_ns: Cell<u64>,
    passes: Cell<u64>,
}

impl ExecProbe {
    /// A probe recording per-rule counters into `rules` (pass `None` to
    /// time only fetch/parse).
    pub fn new(rules: Option<Arc<RuleStats>>) -> ExecProbe {
        ExecProbe {
            rules,
            fetch_ns: Cell::new(0),
            parse_ns: Cell::new(0),
            passes: Cell::new(0),
        }
    }

    /// Wall time spent fetching documents (entry + crawl) during runs
    /// observed by this probe, in nanoseconds.
    pub fn fetch_ns(&self) -> u64 {
        self.fetch_ns.get()
    }

    /// Wall time spent parsing fetched HTML, in nanoseconds.
    pub fn parse_ns(&self) -> u64 {
        self.parse_ns.get()
    }

    /// Fixpoint passes the last observed run took (1 for a single-pass
    /// schedule; the generic fixpoint needs at least one extra pass to
    /// observe quiescence).
    pub fn passes(&self) -> u64 {
        self.passes.get()
    }

    fn add(cell: &Cell<u64>, since: Instant) {
        let ns = since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        cell.set(cell.get().saturating_add(ns));
    }
}

/// A rule-local environment: one value per slot.
type Frame = Vec<Option<Value>>;

/// A path match: target node plus slot bindings from `regvar` captures.
struct PlanMatch {
    node: NodeId,
    bindings: Vec<(SlotId, String)>,
}

/// Per-pattern target index for `PatternRef` conditions: O(1) membership
/// instead of the interpreted full-base scan.
#[derive(Default)]
struct RefIndex {
    nodes: FxSet<(DocId, NodeId)>,
    texts: FxSet<String>,
}

/// Reusable buffers for the step-by-step path evaluator: the per-step
/// candidate frontier ping-pongs between two vectors instead of
/// allocating one per step.
#[derive(Default)]
struct PathScratch {
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

/// A fused path's step-tag symbols resolved against one document.
#[derive(Clone)]
enum FusedSyms {
    /// Not resolved against this document yet.
    Todo,
    /// Some `Name` step's tag is absent from the document's interner, so
    /// the path cannot match any node of this document.
    Dead,
    /// One entry per step; only `Name` steps carry a symbol.
    Live(Rc<[Option<Symbol>]>),
}

/// Per-run caches of the optimized executor: scratch for the fused
/// automaton walks, and the shared sub-matcher memo. Interior mutability
/// because path evaluation happens under shared borrows of the state.
struct OptCtx<'o> {
    plan: &'o OptimizedPlan,
    /// DFS stack scratch for [`PathAutomaton::run`](crate::topdown::PathAutomaton::run).
    stack: RefCell<Vec<(NodeId, u64)>>,
    /// Step-match node scratch for non-hoisted fused evaluations.
    nodes: RefCell<Vec<NodeId>>,
    /// Accepted-node scratch for the conditionless subelem fast path.
    accepted: RefCell<Vec<NodeId>>,
    /// Root-forest scratch for the fast path (a parent's child list),
    /// replacing the per-parent `forest_of` allocation.
    roots: RefCell<Vec<NodeId>>,
    /// Tag symbols per (document, fused path), resolved once per document
    /// — a fused path is typically evaluated once per parent instance,
    /// and re-hashing its tag names every evaluation is measurable on
    /// small per-parent forests. Outer index: `DocId`; inner: fused id.
    doc_syms: RefCell<Vec<Vec<FusedSyms>>>,
    /// Hoist memo: (group id, parent instance index) → step-match nodes.
    /// Valid for the whole run — documents are immutable once fetched and
    /// a parent instance's target never changes.
    memo: RefCell<HoistMemo>,
}

/// The shared-sub-matcher memo, arena-backed: match sets are appended to
/// one growing node vector and addressed by span, so memoizing a
/// sub-matcher costs no per-parent allocation (the dominant cost of an
/// `Rc<Vec>`-per-entry layout on small per-parent forests). Spans are
/// held in per-group vectors indexed directly by parent instance index —
/// parent indices are dense, so this is an array load where a hash map
/// would pay more per lookup than the memoized walk saves.
struct HoistMemo {
    arena: Vec<NodeId>,
    /// `spans[group][parent_idx]` — `SPAN_EMPTY` marks "not memoized".
    spans: Vec<Vec<(u32, u32)>>,
}

/// Sentinel for an absent [`HoistMemo`] span.
const SPAN_NONE: (u32, u32) = (u32::MAX, u32::MAX);

impl HoistMemo {
    fn new(groups: usize) -> HoistMemo {
        HoistMemo {
            arena: Vec::new(),
            spans: vec![Vec::new(); groups],
        }
    }

    /// The memoized span for `key`, as an arena range.
    fn get(&self, key: (u32, usize)) -> Option<(usize, usize)> {
        match self.spans[key.0 as usize].get(key.1) {
            Some(&(s, l)) if (s, l) != SPAN_NONE => Some((s as usize, s as usize + l as usize)),
            _ => None,
        }
    }

    /// Record that `key`'s matches occupy `start..` of the arena.
    fn seal(&mut self, key: (u32, usize), start: usize) -> (usize, usize) {
        let len = self.arena.len() - start;
        let spans = &mut self.spans[key.0 as usize];
        if spans.len() <= key.1 {
            spans.resize(key.1 + 1, SPAN_NONE);
        }
        spans[key.1] = (start as u32, len as u32);
        (start, start + len)
    }
}

impl OptCtx<'_> {
    /// The resolved tag symbols for fused path `fid` in `doc`, computing
    /// and caching them on first use. `None` means the path provably
    /// matches nothing in this document.
    fn syms_for(
        &self,
        did: DocId,
        fid: u32,
        fused: &FusedPath,
        doc: &Document,
    ) -> Option<Rc<[Option<Symbol>]>> {
        let mut tabs = self.doc_syms.borrow_mut();
        while tabs.len() <= did.0 as usize {
            tabs.push(vec![FusedSyms::Todo; self.plan.fused.len()]);
        }
        let slot = &mut tabs[did.0 as usize][fid as usize];
        if matches!(slot, FusedSyms::Todo) {
            let mut syms = Vec::with_capacity(fused.tests.len());
            let mut dead = false;
            for test in &fused.tests {
                syms.push(match test {
                    FusedTag::Name(name) => match doc.interner().get(name) {
                        Some(sym) => Some(sym),
                        None => {
                            dead = true;
                            break;
                        }
                    },
                    FusedTag::Any | FusedTag::Regex(_) => None,
                });
            }
            *slot = if dead {
                FusedSyms::Dead
            } else {
                FusedSyms::Live(syms.into())
            };
        }
        match slot {
            FusedSyms::Live(rc) => Some(rc.clone()),
            _ => None,
        }
    }
}

struct PlanState<'p> {
    probe: Option<&'p ExecProbe>,
    opt: OptCtx<'p>,
    /// URLs that failed to fetch (after the single immediate retry) —
    /// pinned for the rest of the run so results cannot depend on how
    /// many passes re-visit the fetching rule.
    failed: FxSet<String>,
    scratch: RefCell<PathScratch>,
    base: InstanceBase,
    docs: Vec<Document>,
    doc_urls: Vec<String>,
    url_ids: HashMap<String, DocId>,
    /// Instance indices per pattern id, in insertion order — the
    /// indexed replacement for `InstanceBase::of_pattern`.
    by_pattern: Vec<Vec<usize>>,
    /// Dedup set replacing the interpreted `add` linear scan.
    dedup: FxSet<(PatternId, Option<usize>, Target)>,
    /// Per-pattern instance counts, used as input generations by the
    /// semi-naive rule-skipping.
    gens: Vec<u64>,
    /// Target indexes for patterns referenced by `PatternRef`.
    refs: Vec<Option<RefIndex>>,
    /// Pattern names in first-extraction order.
    name_order: Vec<String>,
    /// One shared `Arc` per pattern name — instances clone the Arc, not
    /// the string.
    pattern_names: Vec<Arc<str>>,
    seen: Vec<bool>,
    /// Producing rule index per instance, parallel to `base.instances` —
    /// the derivation trace the result store persists as provenance.
    rule_trace: Vec<u32>,
}

impl PlanState<'_> {
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
        let fetch_started = self.probe.map(|_| Instant::now());
        // Retry a failed fetch once, immediately; a second failure pins
        // the URL for the rest of the run. This makes results independent
        // of how many passes re-visit the fetching rule, which both the
        // single-pass schedule and the interpreted evaluator rely on.
        let html = web.fetch(url).or_else(|| web.fetch(url));
        if let (Some(probe), Some(started)) = (self.probe, fetch_started) {
            ExecProbe::add(&probe.fetch_ns, started);
        }
        let Some(html) = html else {
            self.failed.insert(url.to_string());
            return None;
        };
        let parse_started = self.probe.map(|_| Instant::now());
        let doc = lixto_html::parse(&html);
        if let (Some(probe), Some(started)) = (self.probe, parse_started) {
            ExecProbe::add(&probe.parse_ns, started);
        }
        let id = DocId(self.docs.len() as u32);
        self.docs.push(doc);
        self.doc_urls.push(url.to_string());
        self.url_ids.insert(url.to_string(), id);
        Some(id)
    }

    /// Add an instance unless an identical one exists; true when new.
    fn add(
        &mut self,
        plan: &WrapperPlan,
        pattern: PatternId,
        parent: Option<usize>,
        target: Target,
        rule: u32,
    ) -> bool {
        if !self.dedup.insert((pattern, parent, target.clone())) {
            return false;
        }
        self.push_instance(plan, pattern, parent, target, rule);
        true
    }

    /// Add an instance whose dedup key is statically proven fresh — a
    /// sole-producer rule under a single-pass schedule emitting distinct
    /// nodes (see [`OptRule::sole_producer`]). Skips the dedup set; debug
    /// builds still maintain it and assert the proof.
    fn add_unique(
        &mut self,
        plan: &WrapperPlan,
        pattern: PatternId,
        parent: Option<usize>,
        target: Target,
        rule: u32,
    ) {
        #[cfg(debug_assertions)]
        {
            let fresh = self.dedup.insert((pattern, parent, target.clone()));
            debug_assert!(fresh, "sole-producer uniqueness proof violated");
        }
        self.push_instance(plan, pattern, parent, target, rule);
    }

    fn push_instance(
        &mut self,
        plan: &WrapperPlan,
        pattern: PatternId,
        parent: Option<usize>,
        target: Target,
        rule: u32,
    ) {
        let index = self.base.instances.len();
        if let Some(ref_index) = self.refs[pattern as usize].as_mut() {
            match &target {
                Target::Node { doc, node } => {
                    ref_index.nodes.insert((*doc, *node));
                }
                Target::Text(text) => {
                    ref_index.texts.insert(text.clone());
                }
                Target::NodeSeq { .. } => {}
            }
        }
        self.base.instances.push(Instance {
            pattern: self.pattern_names[pattern as usize].clone(),
            parent,
            target,
        });
        self.by_pattern[pattern as usize].push(index);
        self.rule_trace.push(rule);
        self.gens[pattern as usize] += 1;
        if !self.seen[pattern as usize] {
            self.seen[pattern as usize] = true;
            self.name_order
                .push(plan.patterns()[pattern as usize].clone());
        }
    }

    /// Evaluate an element-path against a forest. A fused path runs its
    /// precompiled [`PathAutomaton`](crate::topdown::PathAutomaton) in a
    /// single downward traversal (consulting the shared-sub-matcher memo
    /// when the path belongs to a hoist group and a parent instance is
    /// known); a path too long to fuse (`pu` is `None`) falls back to
    /// the generic step-by-step evaluator.
    fn eval_path(
        &self,
        did: DocId,
        roots: &[NodeId],
        path: &PlanPath,
        pu: Option<PathUse>,
        parent_idx: Option<usize>,
    ) -> Vec<PlanMatch> {
        let doc = &self.docs[did.0 as usize];
        if let Some(pu) = pu {
            let ctx = &self.opt;
            let fused = &ctx.plan.fused[pu.fused as usize];
            let Some(syms) = ctx.syms_for(did, pu.fused, fused, doc) else {
                return Vec::new();
            };
            if let (Some(gid), Some(pi)) = (pu.group, parent_idx) {
                let key = (gid, pi);
                if let Some((s, e)) = ctx.memo.borrow().get(key) {
                    let memo = ctx.memo.borrow();
                    return attr_matches(doc, &memo.arena[s..e], &fused.attrs);
                }
                let mut memo = ctx.memo.borrow_mut();
                let start = memo.arena.len();
                run_fused(ctx, fused, &syms, doc, roots, &mut memo.arena);
                let (s, e) = memo.seal(key, start);
                return attr_matches(doc, &memo.arena[s..e], &fused.attrs);
            }
            let mut nodes = ctx.nodes.borrow_mut();
            nodes.clear();
            run_fused(ctx, fused, &syms, doc, roots, &mut nodes);
            return attr_matches(doc, &nodes, &fused.attrs);
        }
        eval_plan_path(doc, roots, path, &mut self.scratch.borrow_mut())
    }
}

/// Run a fused path matcher over a forest, collecting step-matching
/// nodes in document order. `syms` is the path's per-document symbol
/// table from [`OptCtx::syms_for`]. Single-step shapes scan the
/// document's preorder arena directly; only general skeletons pay for
/// the automaton's DFS.
fn run_fused(
    ctx: &OptCtx,
    fused: &FusedPath,
    syms: &[Option<Symbol>],
    doc: &Document,
    roots: &[NodeId],
    out: &mut Vec<NodeId>,
) {
    let test = |i: u32, n: NodeId| match &fused.tests[i as usize] {
        FusedTag::Any => doc.kind(n) == NodeKind::Element,
        FusedTag::Name(_) => Some(doc.label(n)) == syms[i as usize],
        FusedTag::Regex(re) => re.is_full_match(doc.label_str(n)),
    };
    match fused.shape {
        FusedShape::ChildOne => {
            for &r in roots {
                if test(0, r) {
                    out.push(r);
                }
            }
        }
        FusedShape::DescendOne => {
            for &r in roots {
                for n in doc.descendants_or_self(r) {
                    if test(0, n) {
                        out.push(n);
                    }
                }
            }
        }
        FusedShape::Auto => {
            let mut stack = ctx.stack.borrow_mut();
            fused
                .auto
                .run(doc, roots, test, |n| out.push(n), &mut stack);
        }
    }
}

/// Apply a path's attribute conditions to step-matching nodes, exactly as
/// the tail of `eval_plan_path` does.
fn attr_matches(doc: &Document, nodes: &[NodeId], attrs: &[PlanAttr]) -> Vec<PlanMatch> {
    let mut out = Vec::new();
    'node: for &n in nodes {
        let mut bindings = Vec::new();
        for cond in attrs {
            match check_attr(doc, n, cond) {
                Some(more) => bindings.extend(more),
                None => continue 'node,
            }
        }
        out.push(PlanMatch { node: n, bindings });
    }
    out
}

/// Input generations a rule saw when it last ran; the rule is skipped
/// while they are unchanged (its output is a function of parent and
/// referenced pattern instances only).
struct RuleMark {
    parent_gen: u64,
    ref_gens: Vec<u64>,
}

/// Run an optimized plan to fixpoint over `web` — the compiled
/// counterpart of the interpreted `Extractor::run_interpreted`, with the
/// schedule, fused path automata and hoist memo of the [`OptimizedPlan`]
/// applied. Every transformation is observation-equivalent, so the
/// result is byte-identical to the interpreted walker's.
pub(crate) fn execute_optimized(
    opt: &OptimizedPlan,
    web: &dyn WebSource,
    options: &ExtractorOptions,
    probe: Option<&ExecProbe>,
) -> ExtractionResult {
    let plan = opt.plan();
    let n = plan.patterns().len();
    let mut refs: Vec<Option<RefIndex>> = (0..plan.patterns().len()).map(|_| None).collect();
    for rule in plan.rules() {
        for &r in &rule.refs {
            refs[r as usize].get_or_insert_with(RefIndex::default);
        }
    }
    let rule_stats = probe.and_then(|p| p.rules.as_deref());
    let mut st = PlanState {
        probe,
        opt: OptCtx {
            plan: opt,
            stack: RefCell::new(Vec::new()),
            nodes: RefCell::new(Vec::new()),
            accepted: RefCell::new(Vec::new()),
            roots: RefCell::new(Vec::new()),
            doc_syms: RefCell::new(Vec::new()),
            memo: RefCell::new(HoistMemo::new(opt.report().hoist_groups)),
        },
        failed: FxSet::default(),
        scratch: RefCell::new(PathScratch::default()),
        base: InstanceBase::default(),
        docs: Vec::new(),
        doc_urls: Vec::new(),
        url_ids: HashMap::new(),
        by_pattern: vec![Vec::new(); n],
        dedup: FxSet::default(),
        gens: vec![0; n],
        refs,
        name_order: Vec::new(),
        pattern_names: plan.patterns().iter().map(|p| p.as_str().into()).collect(),
        seen: vec![false; n],
        rule_trace: Vec::new(),
    };
    // A single-pass schedule is a proof that one pass in source order
    // reaches the fixpoint (every dependency edge points strictly
    // forward and fetch failures are pinned), so the generic loop and
    // its per-rule marks bookkeeping are skipped entirely.
    let single_pass = opt.schedule() == Schedule::SinglePass;
    let mut marks: Vec<Option<RuleMark>> = (0..plan.rules().len()).map(|_| None).collect();
    let mut passes: u64 = 0;
    loop {
        passes += 1;
        let mut changed = false;
        for (ri, rule) in plan.rules().iter().enumerate() {
            if !single_pass {
                if can_skip(rule, &marks[ri], &st) {
                    continue;
                }
                marks[ri] = Some(RuleMark {
                    parent_gen: match &rule.parent {
                        PlanParent::Pattern(p) => st.gens[*p as usize],
                        PlanParent::Document(_) => 0,
                    },
                    ref_gens: rule.refs.iter().map(|&r| st.gens[r as usize]).collect(),
                });
            }
            let ori = &opt.rules[ri];
            let rule_started = rule_stats.map(|_| Instant::now());
            let added = apply_rule(plan, rule, ri as u32, &mut st, web, options, ori);
            if let (Some(stats), Some(started)) = (rule_stats, rule_started) {
                let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                stats.record(ri, added as u64, ns);
            }
            changed |= added > 0;
            if st.base.len() >= options.max_instances {
                break;
            }
        }
        if single_pass || !changed || st.base.len() >= options.max_instances {
            break;
        }
    }
    if let Some(probe) = probe {
        probe.passes.set(passes);
    }
    ExtractionResult {
        base: st.base,
        docs: st.docs,
        doc_urls: st.doc_urls,
        pattern_names: st.name_order,
        rule_trace: st.rule_trace,
    }
}

/// A rule can be skipped when it has run before and nothing it reads has
/// grown since. Entry rules and crawl rules always re-run: they fetch,
/// and a URL may come into range only on a later pass (e.g. once a slot
/// binds it); failed fetches themselves are retried once then pinned by
/// [`PlanState::fetch`], so re-running cannot change their outcome.
fn can_skip(rule: &PlanRule, mark: &Option<RuleMark>, st: &PlanState) -> bool {
    let Some(mark) = mark else { return false };
    let PlanParent::Pattern(parent) = &rule.parent else {
        return false;
    };
    if matches!(rule.extraction, PlanExtraction::Document(_)) {
        return false;
    }
    st.gens[*parent as usize] == mark.parent_gen
        && rule
            .refs
            .iter()
            .zip(&mark.ref_gens)
            .all(|(&r, &g)| st.gens[r as usize] == g)
}

/// Apply one rule across every parent instance; returns the number of
/// new instances added (the executor's `changed` signal and the probe's
/// per-invocation match count).
fn apply_rule(
    plan: &WrapperPlan,
    rule: &PlanRule,
    rule_index: u32,
    st: &mut PlanState<'_>,
    web: &dyn WebSource,
    options: &ExtractorOptions,
    ori: &OptRule,
) -> usize {
    let parents: Vec<(Option<usize>, Target)> = match &rule.parent {
        PlanParent::Pattern(pid) => st.by_pattern[*pid as usize]
            .iter()
            .map(|&i| (Some(i), st.base.instances[i].target.clone()))
            .collect(),
        PlanParent::Document(url) => match st.fetch(web, url, options.max_documents) {
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
        },
    };

    // Fast path: a fused subelem rule with no conditions. Every
    // candidate is trivially accepted (empty Φ holds; subsq maximality
    // does not apply), so the fused matches feed `add` directly — no
    // candidate frames, no witness vectors, no acceptance buffer. The
    // `range` window is the same index filter the generic path applies.
    // `Range` markers are no-ops in `conditions_hold` (the window is
    // applied after acceptance, below and in the fast path alike), so
    // they don't disqualify a rule from direct application.
    let trivial_conditions = rule
        .conditions
        .iter()
        .all(|c| matches!(c, PlanCondition::Range));
    if trivial_conditions && matches!(rule.extraction, PlanExtraction::Subelem(_)) {
        if let Some(pu) = ori.extraction_path {
            return apply_simple_subelem(
                plan,
                rule,
                rule_index,
                st,
                parents,
                pu,
                ori.sole_producer,
            );
        }
    }

    let mut added = 0;
    for (parent_idx, s_target) in parents {
        let candidates = extract(rule, &s_target, st, web, options, ori, parent_idx);
        // Context-condition witnesses are per (condition, parent):
        // hoisted exactly as the interpreted evaluator hoists them.
        let witnesses: Vec<Option<Vec<PlanMatch>>> = rule
            .conditions
            .iter()
            .enumerate()
            .map(|(ci, c)| match c {
                PlanCondition::Context { path, .. } => {
                    forest_of(&s_target, &st.docs).map(|(did, roots)| {
                        st.eval_path(did, &roots, path, ori.cond_paths[ci], parent_idx)
                    })
                }
                _ => None,
            })
            .collect();
        let mut accepted: Vec<Target> = Vec::new();
        for (target, frame) in candidates {
            if conditions_hold(
                rule, &s_target, &target, frame, st, &witnesses, ori, parent_idx,
            ) {
                accepted.push(target);
            }
        }
        // Maximality for subsq, mirrored from the interpreter.
        if matches!(rule.extraction, PlanExtraction::Subsq { .. }) {
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
        if let Some((from, to)) = rule.range {
            accepted = accepted
                .into_iter()
                .enumerate()
                .filter(|(i, _)| *i + 1 >= from && *i < to)
                .map(|(_, t)| t)
                .collect();
        }
        for target in accepted {
            if st.add(plan, rule.pattern, parent_idx, target, rule_index) {
                added += 1;
            }
        }
    }
    added
}

/// Apply a conditionless subelem rule through its fused path: per
/// parent, the step-matching nodes (shared via the hoist memo when the
/// path belongs to a group) are attr-filtered and added in document
/// order. Observation-equivalent to the generic `apply_rule` body — it
/// produces the same targets in the same order — but allocation-free per
/// parent.
#[allow(clippy::too_many_arguments)]
fn apply_simple_subelem(
    plan: &WrapperPlan,
    rule: &PlanRule,
    rule_index: u32,
    st: &mut PlanState<'_>,
    parents: Vec<(Option<usize>, Target)>,
    pu: PathUse,
    sole: bool,
) -> usize {
    let (from, to) = rule.range.unwrap_or((1, usize::MAX));
    // Dedup keys are provably fresh when the sole producer of a pattern
    // runs exactly once (single pass) over distinct parents, emitting
    // distinct nodes per parent.
    let unique = sole && st.opt.plan.schedule() == Schedule::SinglePass;
    let mut added = 0;
    for (parent_idx, s_target) in parents {
        let ctx = &st.opt;
        // The target's forest, without `forest_of`'s per-parent Vec:
        // a node target's roots are its children, collected into a
        // reused buffer.
        let mut roots = ctx.roots.take();
        roots.clear();
        let did = match &s_target {
            Target::Node { doc, node } => {
                roots.extend(st.docs[doc.0 as usize].children(*node));
                *doc
            }
            Target::NodeSeq { doc, nodes } => {
                roots.extend_from_slice(nodes);
                *doc
            }
            Target::Text(_) => continue,
        };
        let fused = &ctx.plan.fused[pu.fused as usize];
        let doc = &st.docs[did.0 as usize];
        let mut accepted = ctx.accepted.take();
        accepted.clear();
        if let Some(syms) = ctx.syms_for(did, pu.fused, fused, doc) {
            // Step-matching nodes: via the arena memo for hoist groups,
            // a reused scratch vector otherwise.
            let memo_key = match (pu.group, parent_idx) {
                (Some(gid), Some(pi)) => Some((gid, pi)),
                _ => None,
            };
            let mut scratch = Vec::new();
            let (memo, span) = match memo_key {
                Some(key) => {
                    let span = ctx.memo.borrow().get(key);
                    match span {
                        Some(span) => (ctx.memo.borrow(), span),
                        None => {
                            let mut memo = ctx.memo.borrow_mut();
                            let start = memo.arena.len();
                            run_fused(ctx, fused, &syms, doc, &roots, &mut memo.arena);
                            let span = memo.seal(key, start);
                            drop(memo);
                            (ctx.memo.borrow(), span)
                        }
                    }
                }
                None => {
                    scratch = ctx.nodes.take();
                    scratch.clear();
                    run_fused(ctx, fused, &syms, doc, &roots, &mut scratch);
                    (ctx.memo.borrow(), (0, 0))
                }
            };
            let step_matches: &[NodeId] = if memo_key.is_some() {
                &memo.arena[span.0..span.1]
            } else {
                &scratch
            };
            'node: for &n in step_matches {
                for cond in &fused.attrs {
                    if check_attr(doc, n, cond).is_none() {
                        continue 'node;
                    }
                }
                accepted.push(n);
            }
            drop(memo);
            if memo_key.is_none() {
                ctx.nodes.replace(scratch);
            }
        }
        ctx.roots.replace(roots);
        for (i, &node) in accepted.iter().enumerate() {
            if i + 1 < from || i >= to {
                continue;
            }
            let target = Target::Node { doc: did, node };
            if unique {
                st.add_unique(plan, rule.pattern, parent_idx, target, rule_index);
                added += 1;
            } else if st.add(plan, rule.pattern, parent_idx, target, rule_index) {
                added += 1;
            }
        }
        st.opt.accepted.replace(accepted);
    }
    added
}

/// Apply the extraction atom, yielding (target, initial frame) pairs.
fn extract(
    rule: &PlanRule,
    s: &Target,
    st: &mut PlanState,
    web: &dyn WebSource,
    options: &ExtractorOptions,
    ori: &OptRule,
    parent_idx: Option<usize>,
) -> Vec<(Target, Frame)> {
    let frame = || vec![None; rule.slots];
    match &rule.extraction {
        PlanExtraction::Specialize => vec![(s.clone(), frame())],
        PlanExtraction::Subelem(path) => {
            let Some((did, roots)) = forest_of(s, &st.docs) else {
                return vec![];
            };
            st.eval_path(did, &roots, path, ori.extraction_path, parent_idx)
                .into_iter()
                .map(|m| {
                    let mut env = frame();
                    for (slot, value) in m.bindings {
                        env[slot as usize] = Some(Value::Str(value));
                    }
                    (
                        Target::Node {
                            doc: did,
                            node: m.node,
                        },
                        env,
                    )
                })
                .collect()
        }
        PlanExtraction::Subsq {
            context,
            start,
            end,
        } => {
            let Some((did, roots)) = forest_of(s, &st.docs) else {
                return vec![];
            };
            let contexts = st.eval_path(did, &roots, context, ori.extraction_path, parent_idx);
            let doc = &st.docs[did.0 as usize];
            let mut out = Vec::new();
            for ctx in contexts {
                let kids: Vec<NodeId> = doc.children(ctx.node).collect();
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
                                frame(),
                            ));
                        }
                    }
                }
            }
            out
        }
        PlanExtraction::Subtext(rv) => {
            // A pattern that can only match empty strings yields nothing
            // (empty whole-matches are discarded below) — skip the scan,
            // which otherwise costs a VM run per char position.
            if rv.regex.matches_only_empty() {
                return Vec::new();
            }
            let text = target_text(s, &st.docs);
            let mut out = Vec::new();
            for caps in rv.regex.captures_iter(&text) {
                let Some(whole) = caps.get(0) else { continue };
                if whole.text.is_empty() {
                    continue;
                }
                let mut env = frame();
                let mut ok = true;
                for (name, slot) in &rv.captures {
                    match caps.name(name) {
                        Some(m) => {
                            if let Some(slot) = slot {
                                env[*slot as usize] = Some(Value::Str(m.text.to_string()));
                            }
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
        PlanExtraction::Subatt(attr) => match s {
            Target::Node { doc, node } => {
                let d = &st.docs[doc.0 as usize];
                match d.attr(*node, attr) {
                    Some(v) => vec![(Target::Text(v.to_string()), frame())],
                    None => vec![],
                }
            }
            _ => vec![],
        },
        PlanExtraction::Document(url) => {
            let url = match url {
                PlanUrl::Const(u) => Some(u.clone()),
                PlanUrl::Slot(slot) => {
                    // Resolve from attrbind conditions against S, in
                    // condition order (later bindings overwrite) — the
                    // interpreted evaluator's pre-scan.
                    let mut resolved: Option<String> = None;
                    for c in &rule.conditions {
                        if let PlanCondition::AttrBind { attr, var } = c {
                            if var == slot {
                                if let Target::Node { doc, node } = s {
                                    let d = &st.docs[doc.0 as usize];
                                    if let Some(val) = d.attr(*node, attr) {
                                        resolved = Some(val.to_string());
                                    }
                                }
                            }
                        }
                    }
                    resolved
                }
            };
            let Some(url) = url else { return vec![] };
            match st.fetch(web, &url, options.max_documents) {
                Some(did) => {
                    let root = st.docs[did.0 as usize].root();
                    vec![(
                        Target::Node {
                            doc: did,
                            node: root,
                        },
                        frame(),
                    )]
                }
                None => vec![],
            }
        }
    }
}

/// Evaluate Φ(S, X) with environment-set semantics over slot frames,
/// conditions in source order.
#[allow(clippy::too_many_arguments)]
fn conditions_hold(
    rule: &PlanRule,
    s: &Target,
    x: &Target,
    initial: Frame,
    st: &PlanState,
    witnesses: &[Option<Vec<PlanMatch>>],
    ori: &OptRule,
    parent_idx: Option<usize>,
) -> bool {
    let mut envs = vec![initial];
    for (ci, cond) in rule.conditions.iter().enumerate() {
        match cond {
            PlanCondition::Range => continue,
            PlanCondition::AttrBind { attr, var } => {
                if let Target::Node { doc, node } = s {
                    let d = &st.docs[doc.0 as usize];
                    if let Some(v) = d.attr(*node, attr) {
                        for env in &mut envs {
                            env[*var as usize] = Some(Value::Str(v.to_string()));
                        }
                    } else {
                        return false;
                    }
                }
                continue;
            }
            _ => {}
        }
        let mut next: Vec<Frame> = Vec::new();
        for env in envs {
            next.extend(eval_condition(
                cond,
                s,
                x,
                env,
                st,
                witnesses[ci].as_deref(),
                ori.cond_paths[ci],
                parent_idx,
            ));
        }
        if next.is_empty() {
            return false;
        }
        envs = next;
    }
    true
}

/// Resolve a condition's value reference to a string, mirroring the
/// interpreted resolution (slot values, node text, `X` fallback).
fn resolve_value(var: &PlanVarRef, env: &Frame, x: &Target, st: &PlanState) -> Option<String> {
    let slot_value = |slot: SlotId| -> Option<String> {
        match env[slot as usize].as_ref()? {
            Value::Str(sv) => Some(sv.clone()),
            Value::Node(did, node) => Some(st.docs[did.0 as usize].text_content(*node)),
        }
    };
    match var {
        PlanVarRef::Slot(slot) => slot_value(*slot),
        PlanVarRef::SlotOrTarget(slot) => {
            slot_value(*slot).or_else(|| Some(target_text(x, &st.docs)))
        }
        PlanVarRef::TargetText => Some(target_text(x, &st.docs)),
    }
}

#[allow(clippy::too_many_arguments)]
fn eval_condition(
    cond: &PlanCondition,
    s: &Target,
    x: &Target,
    env: Frame,
    st: &PlanState,
    hoisted: Option<&[PlanMatch]>,
    pu: Option<PathUse>,
    parent_idx: Option<usize>,
) -> Vec<Frame> {
    match cond {
        PlanCondition::Context {
            path,
            min,
            max,
            bind,
            negated,
            is_before,
        } => {
            let Some((did, roots)) = forest_of(s, &st.docs) else {
                return vec![];
            };
            let doc = &st.docs[did.0 as usize];
            let Some((x_start, x_end)) = target_span(x, doc, did) else {
                return vec![];
            };
            let owned;
            let all: &[PlanMatch] = match hoisted {
                Some(w) => w,
                None => {
                    owned = st.eval_path(did, &roots, path, pu, parent_idx);
                    &owned
                }
            };
            let witnesses: Vec<&PlanMatch> = all
                .iter()
                .filter(|m| {
                    let (y_start, y_end) = node_span(doc, m.node);
                    if *is_before {
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
                        e[*v as usize] = Some(Value::Node(did, m.node));
                        for (slot, sv) in &m.bindings {
                            e[*slot as usize] = Some(Value::Str(sv.clone()));
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
        PlanCondition::Contains { path, negated } => {
            let Some((did, roots)) = forest_of(x, &st.docs) else {
                return vec![];
            };
            // `contains` walks the candidate X, not the parent S, so the
            // hoist memo (keyed by parent instance) never applies here.
            let found = !st.eval_path(did, &roots, path, pu, None).is_empty();
            if found != *negated {
                vec![env]
            } else {
                vec![]
            }
        }
        PlanCondition::FirstSubtree { path } => {
            let Some((did, roots)) = forest_of(s, &st.docs) else {
                return vec![];
            };
            let matches = st.eval_path(did, &roots, path, pu, parent_idx);
            match (matches.first(), x) {
                (Some(first), Target::Node { node, .. }) if first.node == *node => {
                    vec![env]
                }
                _ => vec![],
            }
        }
        PlanCondition::Concept {
            concept,
            var,
            negated,
        } => {
            let Some(value) = resolve_value(var, &env, x, st) else {
                return vec![];
            };
            if concept.holds(&value) != *negated {
                vec![env]
            } else {
                vec![]
            }
        }
        PlanCondition::Comparison { left, op, right } => {
            let Some(l) = resolve_value(left, &env, x, st) else {
                return vec![];
            };
            let r = match right {
                crate::plan::PlanOperand::Literal(lit) => lit.clone(),
                crate::plan::PlanOperand::Var(var) => match resolve_value(var, &env, x, st) {
                    Some(r) => r,
                    None => return vec![],
                },
            };
            if compare_values(&l, op, &r) {
                vec![env]
            } else {
                vec![]
            }
        }
        PlanCondition::PatternRef { pattern, var } => {
            let Some(value) = env[*var as usize].as_ref() else {
                return vec![];
            };
            let index = st.refs[*pattern as usize]
                .as_ref()
                .expect("ref index prebuilt");
            let is_instance = match value {
                Value::Node(did, node) => index.nodes.contains(&(*did, *node)),
                Value::Str(sv) => index.texts.contains(sv),
            };
            if is_instance {
                vec![env]
            } else {
                vec![]
            }
        }
        PlanCondition::AttrBind { .. } | PlanCondition::Range => vec![env],
    }
}

/// Does the node satisfy a delimiter path (last step's tag test plus the
/// attribute conditions)? Mirrors the interpreted `member_matches`.
fn member_matches(doc: &Document, n: NodeId, path: &PlanPath) -> bool {
    let Some(last) = path.steps.last() else {
        return true;
    };
    if !tag_matches(doc, n, &last.tag) {
        return false;
    }
    path.attrs.iter().all(|c| check_attr(doc, n, c).is_some())
}

fn tag_matches(doc: &Document, n: NodeId, test: &PlanTag) -> bool {
    match test {
        PlanTag::Any => doc.kind(n) == NodeKind::Element,
        PlanTag::Name(name) => doc.label_str(n) == name,
        PlanTag::Regex(re) => re.is_full_match(doc.label_str(n)),
    }
}

/// Check one attribute condition; `Some(bindings)` on success.
fn check_attr(doc: &Document, n: NodeId, cond: &PlanAttr) -> Option<Vec<(SlotId, String)>> {
    // Borrow attribute values straight from the document; only
    // `elementtext` needs an owned concatenation.
    let text_storage;
    let value: &str = if cond.attr == "elementtext" {
        text_storage = doc.text_content(n);
        &text_storage
    } else {
        doc.attr(n, &cond.attr)?
    };
    match &cond.matcher {
        PlanAttrMatch::Exact(pattern) => (value.trim() == pattern).then(Vec::new),
        PlanAttrMatch::Substr(pattern) => value.contains(pattern).then(Vec::new),
        PlanAttrMatch::Regvar(rv) => {
            let caps = rv.regex.captures(value)?;
            let mut bindings = Vec::new();
            for (name, slot) in &rv.captures {
                let m = caps.name(name)?;
                if let Some(slot) = slot {
                    bindings.push((*slot, m.text.to_string()));
                }
            }
            Some(bindings)
        }
    }
}

/// Evaluate a compiled path against a forest context — the precompiled
/// mirror of `path::eval_path`, with slot bindings instead of name maps.
/// Runs only for paths longer than
/// [`PathAutomaton::MAX_STEPS`](crate::topdown::PathAutomaton::MAX_STEPS),
/// which the optimizer cannot fuse.
/// The per-step candidate frontiers ping-pong between the two scratch
/// vectors, so a whole run allocates no per-step buffers after warm-up.
fn eval_plan_path(
    doc: &Document,
    roots: &[NodeId],
    path: &PlanPath,
    scratch: &mut PathScratch,
) -> Vec<PlanMatch> {
    let PathScratch { frontier, next } = scratch;
    frontier.clear();
    frontier.extend_from_slice(roots);
    for (i, step) in path.steps.iter().enumerate() {
        next.clear();
        for &c in frontier.iter() {
            step_candidates(doc, c, step, i == 0, next);
        }
        std::mem::swap(frontier, next);
        if frontier.is_empty() {
            return Vec::new();
        }
    }
    frontier.sort_by_key(|&n| doc.order().pre(n));
    frontier.dedup();
    attr_matches(doc, frontier, &path.attrs)
}

fn step_candidates(
    doc: &Document,
    c: NodeId,
    step: &crate::plan::PlanStep,
    first: bool,
    out: &mut Vec<NodeId>,
) {
    if first {
        if step.descend {
            for d in doc.descendants_or_self(c) {
                if tag_matches(doc, d, &step.tag) {
                    out.push(d);
                }
            }
        } else if tag_matches(doc, c, &step.tag) {
            out.push(c);
        }
    } else if step.descend {
        for d in doc.descendants(c) {
            if tag_matches(doc, d, &step.tag) {
                out.push(d);
            }
        }
    } else {
        for ch in doc.children(c) {
            if tag_matches(doc, ch, &step.tag) {
                out.push(ch);
            }
        }
    }
}
