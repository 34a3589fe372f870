//! Pre/post numbering and document order.
//!
//! Computed once when a [`Document`](crate::Document) is frozen. The
//! interval encoding (`pre`, `subtree_end`) gives O(1) answers to
//! `child*`, `child+`, `following` and document-order comparisons — the
//! workhorse behind the linear-time evaluators in `lixto-xpath` and
//! `lixto-cq`.

use crate::ids::NodeId;
use crate::node::NodeData;

/// Pre/post numbering of a document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Order {
    /// The numbers of each node, indexed by node id.
    numbers: Vec<Numbers>,
    /// Preorder sequence of node ids; `preorder[pre(n)] == n`.
    preorder: Vec<NodeId>,
}

/// One node's numbers, kept together: an ancestor test reads two of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Numbers {
    /// Position in preorder (document order), 0-based.
    pre: u32,
    /// Position in postorder, 0-based.
    post: u32,
    /// One past the preorder index of the last node in the subtree; the
    /// subtree of `n` is `preorder[pre..subtree_end]`.
    subtree_end: u32,
}

impl Order {
    /// Compute numbering for an arena whose root is node 0. The walk
    /// follows the first-child, next-sibling and parent links, so it needs
    /// neither recursion (documents can be degenerate chains deep enough
    /// to overflow the call stack) nor a stack or per-node child list.
    pub(crate) fn compute(nodes: &[NodeData]) -> Order {
        let n = nodes.len();
        let mut numbers = vec![Numbers::default(); n];
        let mut preorder = Vec::with_capacity(n);

        let mut pre_ctr = 0u32;
        let mut post_ctr = 0u32;
        let mut cur = NodeId::ROOT;
        'walk: loop {
            // Enter `cur`.
            numbers[cur.index()].pre = pre_ctr;
            pre_ctr += 1;
            preorder.push(cur);
            if let Some(child) = nodes[cur.index()].first_child.get() {
                cur = child;
                continue;
            }
            // Leave `cur` and every ancestor whose last child it ends.
            loop {
                let num = &mut numbers[cur.index()];
                num.post = post_ctr;
                num.subtree_end = pre_ctr;
                post_ctr += 1;
                let d = &nodes[cur.index()];
                if let Some(next) = d.next_sibling.get() {
                    cur = next;
                    continue 'walk;
                }
                match d.parent.get() {
                    Some(parent) => cur = parent,
                    None => break 'walk,
                }
            }
        }
        debug_assert_eq!(
            preorder.len(),
            n,
            "all nodes must be reachable from the root"
        );
        Order { numbers, preorder }
    }

    /// Preorder (document-order) index of `n`.
    #[inline]
    pub fn pre(&self, n: NodeId) -> u32 {
        self.numbers[n.index()].pre
    }

    /// Postorder index of `n`.
    #[inline]
    pub fn post(&self, n: NodeId) -> u32 {
        self.numbers[n.index()].post
    }

    /// The preorder sequence of nodes.
    #[inline]
    pub fn preorder(&self) -> &[NodeId] {
        &self.preorder
    }

    /// Node at a given preorder index.
    #[inline]
    pub fn node_at_pre(&self, idx: usize) -> NodeId {
        self.preorder[idx]
    }

    /// Half-open preorder interval covered by `n`'s subtree.
    #[inline]
    pub fn subtree_range(&self, n: NodeId) -> (usize, usize) {
        let num = &self.numbers[n.index()];
        (num.pre as usize, num.subtree_end as usize)
    }

    /// O(1) `child*(a, b)` test via interval containment.
    #[inline]
    pub fn is_ancestor_or_self(&self, a: NodeId, b: NodeId) -> bool {
        let (s, e) = self.subtree_range(a);
        let p = self.pre(b) as usize;
        s <= p && p < e
    }

    /// Subtree size of `n` (including `n`).
    #[inline]
    pub fn subtree_size(&self, n: NodeId) -> usize {
        let (s, e) = self.subtree_range(n);
        e - s
    }
}

#[cfg(test)]
mod tests {
    use crate::build::from_sexp;

    #[test]
    fn pre_and_post_are_permutations() {
        let doc = from_sexp("(a (b (c) (d)) (e))").unwrap();
        let n = doc.len();
        let mut seen_pre = vec![false; n];
        let mut seen_post = vec![false; n];
        for id in doc.node_ids() {
            seen_pre[doc.order().pre(id) as usize] = true;
            seen_post[doc.order().post(id) as usize] = true;
        }
        assert!(seen_pre.into_iter().all(|b| b));
        assert!(seen_post.into_iter().all(|b| b));
    }

    #[test]
    fn ancestor_iff_pre_le_and_post_ge() {
        // Classical characterization: a ancestor-or-self of b iff
        // pre(a) <= pre(b) and post(a) >= post(b).
        let doc = from_sexp("(a (b (c) (d)) (e (f (g))))").unwrap();
        let o = doc.order();
        for x in doc.node_ids() {
            for y in doc.node_ids() {
                let via_interval = o.is_ancestor_or_self(x, y);
                let via_prepost = o.pre(x) <= o.pre(y) && o.post(x) >= o.post(y);
                assert_eq!(via_interval, via_prepost, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn subtree_size_matches_descendant_count() {
        let doc = from_sexp("(a (b (c) (d)) (e))").unwrap();
        for n in doc.node_ids() {
            assert_eq!(
                doc.order().subtree_size(n),
                doc.descendants_or_self(n).count()
            );
        }
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 200k-deep degenerate chain exercises the stackless walk in
        // Order::compute (built with TreeBuilder, whose open/close loop is
        // also iterative).
        let depth = 200_000;
        let mut b = crate::TreeBuilder::new();
        for _ in 0..depth {
            b.open("x");
        }
        b.open("y");
        let doc = b.finish();
        assert_eq!(doc.len(), depth + 1);
        let deepest = doc.order().node_at_pre(depth);
        assert_eq!(doc.label_str(deepest), "y");
        assert!(doc.is_ancestor(doc.root(), deepest));
    }
}
