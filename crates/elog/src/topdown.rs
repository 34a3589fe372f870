//! Top-down path automata over unranked documents.
//!
//! An element path (`.table ?.tr .td` — child and descendant steps, each
//! with a tag test) is a nondeterministic word automaton read *down* the
//! tree: position `i` is the state "the next node on this branch may match
//! step `i`", a child step advances the position, and a descendant step
//! additionally loops on its own position so candidacy survives any number
//! of intermediate levels. [`PathAutomaton`] runs the subset construction
//! of that NFA on the fly — the classic determinization idea, but with
//! the state set packed into a `u64` bitmask (one bit per path position)
//! so a whole frontier of live positions advances with two shifts and a
//! mask per node. One downward traversal replaces the per-step candidate-list
//! generation of a naive path evaluator: no intermediate materialization,
//! no re-sorting into document order (a preorder DFS emits matches in
//! document order by construction), and no deduplication (each node is
//! visited exactly once, even when several step chains reach it).
//!
//! Tag tests stay outside the automaton: [`PathAutomaton::run`] calls
//! back into the caller (`test(step, node)`), so the caller can inline
//! whatever test representation it has — interned label symbols, regexes —
//! without this module depending on it. The automaton only owns the step
//! *skeleton* (child vs descendant), which is what determines the
//! transition structure.

use lixto_tree::{Document, NodeId};

/// A compiled child/descendant step skeleton, run bit-parallel.
///
/// Paths longer than [`PathAutomaton::MAX_STEPS`] steps do not fit the
/// `u64` state set; [`PathAutomaton::new`] returns `None` and callers
/// fall back to their step-by-step evaluator.
#[derive(Debug, Clone)]
pub struct PathAutomaton {
    n_steps: u32,
    /// Bit `i` set when step `i` is a descendant step (self-loop).
    descend_mask: u64,
    /// Bits `0..n_steps`.
    full_mask: u64,
    /// `1 << (n_steps - 1)` — a node matching this position is a match
    /// of the whole path.
    accept_bit: u64,
}

impl PathAutomaton {
    /// Maximum number of steps representable in the `u64` state set.
    pub const MAX_STEPS: usize = 64;

    /// Build the automaton for a step skeleton; `descend[i]` is true for
    /// a descendant (`?.`) step. `None` when the path has more than
    /// [`MAX_STEPS`](PathAutomaton::MAX_STEPS) steps.
    pub fn new(descend: &[bool]) -> Option<PathAutomaton> {
        if descend.len() > Self::MAX_STEPS {
            return None;
        }
        let n = descend.len() as u32;
        let mut descend_mask = 0u64;
        for (i, &d) in descend.iter().enumerate() {
            if d {
                descend_mask |= 1 << i;
            }
        }
        let full_mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        Some(PathAutomaton {
            n_steps: n,
            descend_mask,
            full_mask,
            accept_bit: if n == 0 { 0 } else { 1 << (n - 1) },
        })
    }

    /// Number of steps.
    pub fn n_steps(&self) -> u32 {
        self.n_steps
    }

    /// Run over a forest context: the roots are the candidate nodes for
    /// step 0 (for a descendant first step, candidacy propagates to every
    /// node below them — the descendant-or-self semantics of a leading
    /// `?.` step). `emit` is called for every node matching the full
    /// path, in document order, exactly once per node. An empty path
    /// matches the roots themselves.
    ///
    /// `stack` is caller-provided scratch so repeated runs allocate
    /// nothing; it is cleared on entry.
    pub fn run(
        &self,
        doc: &Document,
        roots: &[NodeId],
        mut test: impl FnMut(u32, NodeId) -> bool,
        mut emit: impl FnMut(NodeId),
        stack: &mut Vec<(NodeId, u64)>,
    ) {
        if self.n_steps == 0 {
            for &r in roots {
                emit(r);
            }
            return;
        }
        stack.clear();
        for &root in roots {
            stack.push((root, 1));
            while let Some((n, mask)) = stack.pop() {
                // Which live positions does this node's tag satisfy?
                let mut matched = 0u64;
                let mut m = mask;
                while m != 0 {
                    let i = m.trailing_zeros();
                    if test(i, n) {
                        matched |= 1 << i;
                    }
                    m &= m - 1;
                }
                if matched & self.accept_bit != 0 {
                    emit(n);
                }
                // Children inherit: descendant positions survive
                // unconditionally; a matched position arms its successor.
                let child_mask = (mask & self.descend_mask) | ((matched << 1) & self.full_mask);
                if child_mask != 0 {
                    let first_child = stack.len();
                    for c in doc.children(n) {
                        stack.push((c, child_mask));
                    }
                    // Reverse the pushed run so the leftmost child pops
                    // first: preorder = document order.
                    stack[first_child..].reverse();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct per-step reference evaluator (the candidate-list semantics
    /// the automaton must reproduce): step 0 tests the roots themselves
    /// (descendant-or-self for a `?.` step), later steps test children or
    /// proper descendants of the previous step's matches.
    fn reference(doc: &Document, roots: &[NodeId], steps: &[(bool, &str)]) -> Vec<NodeId> {
        let test = |tag: &str, n: NodeId| tag == "*" || doc.label_str(n) == tag;
        let mut current: Vec<NodeId> = roots.to_vec();
        for (i, (descend, tag)) in steps.iter().enumerate() {
            let mut next = Vec::new();
            for &c in &current {
                if i == 0 {
                    if *descend {
                        next.extend(doc.descendants_or_self(c).filter(|&d| test(tag, d)));
                    } else if test(tag, c) {
                        next.push(c);
                    }
                } else if *descend {
                    next.extend(doc.descendants(c).filter(|&d| test(tag, d)));
                } else {
                    next.extend(doc.children(c).filter(|&d| test(tag, d)));
                }
            }
            current = next;
        }
        current.sort_by_key(|&n| doc.order().pre(n));
        current.dedup();
        current
    }

    fn automaton_matches(doc: &Document, roots: &[NodeId], steps: &[(bool, &str)]) -> Vec<NodeId> {
        let auto = PathAutomaton::new(&steps.iter().map(|(d, _)| *d).collect::<Vec<_>>()).unwrap();
        let mut out = Vec::new();
        let mut stack = Vec::new();
        auto.run(
            doc,
            roots,
            |i, n| {
                let (_, tag) = steps[i as usize];
                tag == "*" || doc.label_str(n) == tag
            },
            |n| out.push(n),
            &mut stack,
        );
        out
    }

    fn agree(html: &str, steps: &[(bool, &str)]) {
        let doc = lixto_html::parse(html);
        let roots: Vec<NodeId> = doc.children(doc.root()).collect();
        assert_eq!(
            automaton_matches(&doc, &roots, steps),
            reference(&doc, &roots, steps),
            "steps {steps:?} on {html:?}"
        );
    }

    #[test]
    fn agrees_with_reference_on_step_shapes() {
        let html = "<body><div><div><span>a</span></div><span>b</span></div>\
                    <table><tr><td>1</td><td>2</td></tr><tr><td>3</td></tr></table></body>";
        agree(html, &[]);
        agree(html, &[(true, "span")]);
        agree(html, &[(false, "body")]);
        agree(html, &[(true, "div"), (true, "span")]); // overlapping chains dedup
        agree(html, &[(true, "table"), (false, "tr"), (false, "td")]);
        agree(html, &[(true, "tr"), (true, "*")]);
        agree(html, &[(false, "*"), (false, "*")]);
        agree(html, &[(true, "td"), (false, "td")]); // unsatisfiable tail
    }

    #[test]
    fn nested_descendant_chains_emit_once_in_document_order() {
        // A span below two nested divs is reachable via either div for
        // `?.div ?.span`; the candidate-list evaluator dedups, the
        // automaton must emit it exactly once.
        let doc = lixto_html::parse(
            "<body><div id='o'><div id='i'><p><span>x</span></p></div></div></body>",
        );
        let roots: Vec<NodeId> = doc.children(doc.root()).collect();
        let steps = [(true, "div"), (true, "span")];
        let got = automaton_matches(&doc, &roots, &steps);
        assert_eq!(got.len(), 1);
        assert_eq!(doc.label_str(got[0]), "span");
        assert_eq!(got, reference(&doc, &roots, &steps));
    }

    #[test]
    fn too_long_paths_are_rejected() {
        assert!(PathAutomaton::new(&[false; 65]).is_none());
        assert!(PathAutomaton::new(&[true; 64]).is_some());
    }
}
