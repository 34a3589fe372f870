//! The pattern instance base.
//!
//! "The Extractor, provided with an HTML document and a previously
//! constructed program, generates as its output a pattern instance base, a
//! data structure encoding the extracted instances as hierarchically
//! ordered trees and strings." (Section 3.1)

use lixto_tree::{Document, NodeId};
use std::sync::Arc;

/// Identifier of a fetched document within one extraction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DocId(pub u32);

/// What a pattern instance denotes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Target {
    /// A document tree node.
    Node {
        /// Which fetched document.
        doc: DocId,
        /// The node.
        node: NodeId,
    },
    /// A sequence of consecutive sibling nodes (produced by `subsq`).
    NodeSeq {
        /// Which fetched document.
        doc: DocId,
        /// Members, left to right.
        nodes: Vec<NodeId>,
    },
    /// An extracted string (produced by `subtext` / `subatt`).
    Text(String),
}

/// One pattern instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// The pattern this instance belongs to. Shared, not owned: every
    /// instance of a pattern points at the same allocation, so adding an
    /// instance costs a refcount bump instead of a string clone on the
    /// extraction hot path.
    pub pattern: Arc<str>,
    /// Index of the parent instance in the base (None for page-entry
    /// instances).
    pub parent: Option<usize>,
    /// The instance's denotation.
    pub target: Target,
}

/// The hierarchically ordered pattern instance base.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstanceBase {
    /// All instances; children always come after their parent.
    pub instances: Vec<Instance>,
}

impl InstanceBase {
    /// Add an instance; duplicates (same pattern, parent and target) are
    /// ignored. Returns the index and whether it was new.
    pub fn add(&mut self, inst: Instance) -> (usize, bool) {
        if let Some(i) = self.instances.iter().position(|e| {
            e.pattern == inst.pattern && e.parent == inst.parent && e.target == inst.target
        }) {
            return (i, false);
        }
        self.instances.push(inst);
        (self.instances.len() - 1, true)
    }

    /// Indices of all instances of `pattern`.
    pub fn of_pattern(&self, pattern: &str) -> Vec<usize> {
        (0..self.instances.len())
            .filter(|&i| &*self.instances[i].pattern == pattern)
            .collect()
    }

    /// Total number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Is the base empty?
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The textual value of an instance (node text content, concatenated
    /// sequence text, or the extracted string).
    pub fn text_of(&self, i: usize, docs: &[Document]) -> String {
        match &self.instances[i].target {
            Target::Node { doc, node } => docs[doc.0 as usize].text_content(*node),
            Target::NodeSeq { doc, nodes } => {
                let d = &docs[doc.0 as usize];
                nodes.iter().map(|&n| d.text_content(n)).collect()
            }
            Target::Text(s) => s.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_inst(pattern: &str, parent: Option<usize>, node: u32) -> Instance {
        Instance {
            pattern: pattern.into(),
            parent,
            target: Target::Node {
                doc: DocId(0),
                node: NodeId::from_index(node as usize),
            },
        }
    }

    #[test]
    fn dedup_on_add() {
        let mut b = InstanceBase::default();
        let (i0, new0) = b.add(node_inst("rec", None, 1));
        let (i1, new1) = b.add(node_inst("rec", None, 1));
        assert!(new0 && !new1);
        assert_eq!(i0, i1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn hierarchy_queries() {
        let mut b = InstanceBase::default();
        let (root, _) = b.add(node_inst("page", None, 0));
        let (r1, _) = b.add(node_inst("rec", Some(root), 1));
        let (_r2, _) = b.add(node_inst("rec", Some(root), 2));
        let (p1, _) = b.add(node_inst("price", Some(r1), 3));
        assert_eq!(b.of_pattern("rec").len(), 2);
        assert_eq!(b.of_pattern("price"), vec![p1]);
    }
}
