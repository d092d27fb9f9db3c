//! Ordered twig matching (the paper's first future-work direction).
//!
//! Identical to the unordered problem except that the children of each
//! query node must map to data children whose document-order positions are
//! strictly increasing in the query children's order. QUERY 2 of the
//! paper's Figure 1 is the canonical example: `book(author(A1),
//! author(A2), year(Y1))` has two unordered matches but only one ordered
//! match against a book whose authors appear as `A2, A1`.

use twig_tree::{DataTree, NodeId, Twig, TwigLabel, TwigNodeId};
use twig_util::FxHashMap;

use crate::perm::ordered_permanent;

/// Memoizing ordered counter, mirroring [`crate::ExactCounter`].
struct OrderedCounter<'a> {
    tree: &'a DataTree,
    twig: &'a Twig,
    memo: FxHashMap<(u32, u32), u64>,
}

impl OrderedCounter<'_> {
    fn root_candidates(&self) -> Vec<NodeId> {
        match self.twig.label(self.twig.root()) {
            TwigLabel::Element(name) => match self.tree.symbol(name) {
                Some(sym) => self.tree.nodes_with_label(sym).to_vec(),
                None => Vec::new(),
            },
            _ => self.tree.dfs().collect(),
        }
    }

    fn count(&mut self, q: TwigNodeId, v: NodeId) -> u64 {
        if let Some(&cached) = self.memo.get(&(q.0, v.0)) {
            return cached;
        }
        let result = match self.twig.label(q) {
            TwigLabel::Value(prefix) => match self.tree.text(v) {
                Some(text) if text.starts_with(prefix) => 1,
                _ => 0,
            },
            TwigLabel::Element(name) => {
                let matches =
                    self.tree.element_symbol(v).is_some_and(|sym| self.tree.label_str(sym) == name);
                if matches {
                    self.children_mappings(q, v)
                } else {
                    0
                }
            }
            TwigLabel::Star => {
                if self.tree.element_symbol(v).is_none() {
                    0
                } else {
                    let mut total = self.children_mappings(q, v);
                    let children: Vec<NodeId> = self.tree.children(v).collect();
                    for child in children {
                        if self.tree.element_symbol(child).is_some() {
                            total = total.saturating_add(self.count(q, child));
                        }
                    }
                    total
                }
            }
        };
        self.memo.insert((q.0, v.0), result);
        result
    }

    fn children_mappings(&mut self, q: TwigNodeId, v: NodeId) -> u64 {
        let q_children = self.twig.children(q).to_vec();
        if q_children.is_empty() {
            return 1;
        }
        let v_children: Vec<NodeId> = self.tree.children(v).collect();
        if q_children.len() > v_children.len() {
            return 0;
        }
        let rows: Vec<Vec<u64>> = q_children
            .iter()
            .map(|&qc| v_children.iter().map(|&vc| self.count(qc, vc)).collect())
            .collect();
        ordered_permanent(&rows)
    }
}

/// Ordered presence count: distinct rooting nodes with at least one
/// order-preserving mapping.
pub fn count_presence_ordered(tree: &DataTree, twig: &Twig) -> u64 {
    let mut counter = OrderedCounter { tree, twig, memo: FxHashMap::default() };
    counter.root_candidates().iter().filter(|&&v| counter.count(twig.root(), v) > 0).count() as u64
}

/// Ordered occurrence count: total order-preserving mappings.
pub fn count_occurrence_ordered(tree: &DataTree, twig: &Twig) -> u64 {
    let mut counter = OrderedCounter { tree, twig, memo: FxHashMap::default() };
    let root = twig.root();
    counter
        .root_candidates()
        .iter()
        .fold(0u64, |acc, &v| acc.saturating_add(counter.count(root, v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::{count_occurrence, count_presence};
    use twig_tree::DataTree;

    fn twig(expr: &str) -> Twig {
        Twig::parse(expr).unwrap()
    }

    #[test]
    fn paper_query2_ordered_vs_unordered() {
        // Figure 1 discussion: a book with authors in the order A2, A1.
        // Query book(author(A1), author(A2)): unordered 1, ordered 0.
        let tree =
            DataTree::from_xml("<dblp><book><author>A2</author><author>A1</author></book></dblp>")
                .unwrap();
        let q = twig(r#"book(author("A1"),author("A2"))"#);
        assert_eq!(count_occurrence(&tree, &q), 1);
        assert_eq!(count_occurrence_ordered(&tree, &q), 0);
        let q_rev = twig(r#"book(author("A2"),author("A1"))"#);
        assert_eq!(count_occurrence_ordered(&tree, &q_rev), 1);
    }

    #[test]
    fn ordered_at_most_unordered() {
        let tree = DataTree::from_xml(concat!(
            "<r>",
            "<x><a>1</a><b>1</b><a>2</a><b>2</b></x>",
            "<x><b>1</b><a>1</a></x>",
            "</r>"
        ))
        .unwrap();
        for expr in ["x(a,b)", "x(b,a)", "x(a,a)", "x(a)", "r(x(a),x(b))"] {
            let q = twig(expr);
            assert!(
                count_occurrence_ordered(&tree, &q) <= count_occurrence(&tree, &q),
                "query {expr}"
            );
            assert!(count_presence_ordered(&tree, &q) <= count_presence(&tree, &q), "query {expr}");
        }
    }

    #[test]
    fn interleaved_siblings_counted_correctly() {
        // x has children a b a b; query x(a,b): ordered pairs with a
        // before b: (a1,b1), (a1,b2), (a2,b2) = 3; unordered = 4.
        let tree = DataTree::from_xml("<r><x><a>1</a><b>1</b><a>2</a><b>2</b></x></r>").unwrap();
        let q = twig("x(a,b)");
        assert_eq!(count_occurrence(&tree, &q), 4);
        assert_eq!(count_occurrence_ordered(&tree, &q), 3);
    }

    #[test]
    fn single_path_queries_unaffected_by_order() {
        let tree = DataTree::from_xml("<r><x><a>hello</a></x><x><a>help</a></x></r>").unwrap();
        let q = twig(r#"x(a("hel"))"#);
        assert_eq!(count_occurrence(&tree, &q), count_occurrence_ordered(&tree, &q));
        assert_eq!(count_occurrence_ordered(&tree, &q), 2);
    }

    #[test]
    fn ordered_presence_counts_roots() {
        let tree = DataTree::from_xml(concat!(
            "<r>",
            "<x><a>1</a><b>1</b></x>", // ordered ✓
            "<x><b>1</b><a>1</a></x>", // ordered ✗ for (a,b)
            "</r>"
        ))
        .unwrap();
        let q = twig("x(a,b)");
        assert_eq!(count_presence(&tree, &q), 2);
        assert_eq!(count_presence_ordered(&tree, &q), 1);
    }
}
