//! Suffix trie construction with exact counts: a path pass for the
//! label-rooted subpaths and a fragment pass per distinct leaf value.

use twig_tree::{DataTree, NodeId};
use twig_util::FxHashMap;

use crate::trie::{EdgeKey, SuffixTrie, TrieNodeId};
use crate::PrunedTrie;

/// Construction caps.
///
/// The full path suffix tree of an `n`-node document is quadratic in path
/// length; the estimators never need subpaths longer than a query path, so
/// bounding subpath depth keeps construction linear in practice without
/// changing any experiment (query paths in the paper's workloads have ≤ 4
/// internal nodes and ≤ 4 value characters).
#[derive(Debug, Clone)]
pub struct TrieConfig {
    /// Maximum number of element labels in a subpath.
    pub max_label_depth: usize,
    /// Maximum leaf-value prefix length appended after the labels.
    pub max_value_prefix: usize,
    /// Maximum length of pure string fragments.
    pub max_string_suffix: usize,
}

impl Default for TrieConfig {
    fn default() -> Self {
        Self { max_label_depth: 8, max_value_prefix: 8, max_string_suffix: 12 }
    }
}

impl TrieConfig {
    fn validate(&self) {
        assert!(self.max_label_depth >= 1, "max_label_depth must be >= 1");
    }
}

/// Suffixes of one leaf value the fragment pass walks together.
const LANES: usize = 8;

/// Builds the full path suffix trie for `tree` (Sec. 3.1): a path pass
/// for the label-rooted subpaths, then a fragment pass per distinct leaf
/// value (see the crate docs).
///
/// Counts are exact under the precondition documented at the crate root
/// (no subpath matches a single root-to-leaf path at two distinct starts).
pub fn build_suffix_trie(tree: &DataTree, config: &TrieConfig) -> SuffixTrie {
    config.validate();
    let mut trie = SuffixTrie::new();
    let mut path_id: u32 = 0;
    let mut leaves_per_value: FxHashMap<&str, u32> = FxHashMap::default();

    tree.for_each_root_to_leaf_path(|path| {
        if let Some(value) = insert_path(&mut trie, tree, path, path_id, config) {
            *leaves_per_value.entry(value).or_insert(0) += 1;
        }
        path_id += 1;
    });
    trie.total_paths = path_id;
    // Fewer distinct values than paths, so the indices fit a `u32`.
    for ((value, leaves), index) in leaves_per_value.into_iter().zip(0u32..) {
        insert_fragments(&mut trie, value.as_bytes(), index, leaves, config.max_string_suffix);
    }
    trie
}

/// Inserts the label-rooted subpaths of one root-to-leaf path and
/// returns its leaf value, if it ends in one.
fn insert_path<'t>(
    trie: &mut SuffixTrie,
    tree: &'t DataTree,
    path: &[NodeId],
    path_id: u32,
    config: &TrieConfig,
) -> Option<&'t str> {
    // Split into the element chain and the optional trailing text leaf.
    let (elements, value) = match path.split_last() {
        Some((&last, init)) => match tree.text(last) {
            Some(text) => (init, Some((last, text))),
            None => (path, None),
        },
        None => (path, None),
    };
    // Label-start suffixes: every start position i in the element chain.
    for i in 0..elements.len() {
        let start = elements[i].0;
        let mut node = TrieNodeId::ROOT;
        let depth_end = (i + config.max_label_depth).min(elements.len());
        for &element in &elements[i..depth_end] {
            let sym = tree.element_symbol(element).expect("element chain");
            node = trie.child_or_insert(node, EdgeKey::element(sym));
            stamp(trie, node, path_id, start, element.0);
        }
        // Value-prefix extension, only when the chain from i reached the
        // last element (otherwise the subpath is not contiguous).
        if depth_end == elements.len() {
            if let Some((leaf, text)) = value {
                for &byte in text.as_bytes().iter().take(config.max_value_prefix) {
                    node = trie.child_or_insert(node, EdgeKey::ch(byte));
                    stamp(trie, node, path_id, start, leaf.0);
                }
            }
        }
    }
    value.map(|(_, text)| text)
}

#[inline]
fn stamp(trie: &mut SuffixTrie, node: TrieNodeId, path_id: u32, start: u32, end: u32) {
    let data = &mut trie.nodes[node.index()];
    if data.last_path != path_id {
        data.path_count += 1;
        data.last_path = path_id;
    }
    if data.last_start != start {
        data.presence += 1;
        data.last_start = start;
    }
    if data.last_end != end {
        data.occurrence += 1;
        data.last_end = end;
    }
}

/// Inserts the pure string fragments of one distinct leaf value held by
/// `leaves` leaves: the suffixes of `bytes`, each cut to `max_len`.
///
/// Every suffix that reaches a node adds `leaves` to its presence and
/// occurrence (a fragment's start is its instance), and `pc` gains
/// `leaves` once per value, stamped with the value's `index`.
///
/// The suffixes are walked [`LANES`] offsets at a time, advancing one
/// depth step together: their probes of the child map are independent,
/// so their cache misses overlap. The stamps do not depend on order.
fn insert_fragments(trie: &mut SuffixTrie, bytes: &[u8], index: u32, leaves: u32, max_len: usize) {
    for first in (0..bytes.len()).step_by(LANES) {
        let mut lanes = [TrieNodeId::ROOT; LANES];
        for depth in 0..(bytes.len() - first).min(max_len) {
            // Lane k walks the suffix at `first + k`; the zip retires the
            // lanes whose suffix has ended.
            for (node, &byte) in lanes.iter_mut().zip(&bytes[first + depth..]) {
                *node = trie.child_or_insert(*node, EdgeKey::ch(byte));
                let data = &mut trie.nodes[node.index()];
                if data.last_path != index {
                    data.path_count += leaves;
                    data.last_path = index;
                }
                data.presence += leaves;
                data.occurrence += leaves;
            }
        }
    }
}

/// Re-walks the data tree against a pruned trie, invoking `visit` for every
/// `(start node, label-rooted CST node)` pair — the pass that builds the
/// set-hash signatures (the set `S_α` of Sec. 3.4 is exactly the start
/// nodes passed for trie node α; duplicates are harmless because min-hash
/// insertion is idempotent).
pub fn for_each_rooted_subpath<F: FnMut(NodeId, TrieNodeId)>(
    tree: &DataTree,
    pruned: &PrunedTrie,
    config: &TrieConfig,
    visit: F,
) {
    for_each_rooted_subpath_sharded(tree, pruned, config, 0, 1, visit);
}

/// Sharded variant of [`for_each_rooted_subpath`]: processes only the
/// root-to-leaf paths of top-level-subtree shard `shard` of `of`. The
/// shards partition the visits up to duplicates of root-started subpaths
/// (each shard re-walks them for its own paths) — harmless for the
/// min-hash insertions this feeds, which are idempotent.
pub fn for_each_rooted_subpath_sharded<F: FnMut(NodeId, TrieNodeId)>(
    tree: &DataTree,
    pruned: &PrunedTrie,
    config: &TrieConfig,
    shard: usize,
    of: usize,
    mut visit: F,
) {
    tree.for_each_root_to_leaf_path_sharded(shard, of, |path| {
        let (elements, value): (&[NodeId], Option<&str>) = match path.split_last() {
            Some((&last, init)) if tree.text(last).is_some() => (init, tree.text(last)),
            _ => (path, None),
        };
        for i in 0..elements.len() {
            let start = elements[i];
            let mut node = TrieNodeId::ROOT;
            let depth_end = (i + config.max_label_depth).min(elements.len());
            let mut complete = true;
            for &element in &elements[i..depth_end] {
                let sym = tree.element_symbol(element).expect("element chain");
                match pruned.child(node, EdgeKey::element(sym)) {
                    Some(next) => {
                        node = next;
                        visit(start, next);
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete && depth_end == elements.len() {
                if let Some(text) = value {
                    for &byte in text.as_bytes().iter().take(config.max_value_prefix) {
                        match pruned.child(node, EdgeKey::ch(byte)) {
                            Some(next) => {
                                node = next;
                                visit(start, next);
                            }
                            None => break,
                        }
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::PathToken;
    use twig_tree::DataTree;

    fn tokens(tree: &DataTree, labels: &[&str], value: &str) -> Vec<PathToken> {
        let mut out: Vec<PathToken> = labels
            .iter()
            .map(|l| PathToken::Element(tree.symbol(l).expect("known label")))
            .collect();
        out.extend(value.bytes().map(PathToken::Char));
        out
    }

    fn figure1_tree() -> DataTree {
        DataTree::from_xml(concat!(
            "<dblp>",
            "<book><author>A1</author><title>T1</title><year>Y1</year></book>",
            "<book><author>A1</author><author>A2</author><title>T2</title><year>Y1</year></book>",
            "<book><author>A1</author><author>A2</author><author>A3</author><title>T3</title><year>Y2</year></book>",
            "</dblp>"
        ))
        .unwrap()
    }

    #[test]
    fn presence_vs_occurrence_on_multiset_siblings() {
        let tree = figure1_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        // book.author: 3 books root it (presence), 6 author instances.
        let ba = trie.find(&tokens(&tree, &["book", "author"], "")).unwrap();
        assert_eq!(trie.presence(ba), 3);
        assert_eq!(trie.occurrence(ba), 6);
        // author alone: presence = occurrence = 6.
        let a = trie.find(&tokens(&tree, &["author"], "")).unwrap();
        assert_eq!(trie.presence(a), 6);
        assert_eq!(trie.occurrence(a), 6);
    }

    #[test]
    fn path_counts_count_paths_not_instances() {
        let tree = figure1_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        // Every one of the 12 root-to-leaf paths passes through dblp.book.
        let db = trie.find(&tokens(&tree, &["dblp", "book"], "")).unwrap();
        assert_eq!(trie.path_count(db), 12);
        assert_eq!(trie.presence(db), 1, "only the dblp node roots dblp.book");
        assert_eq!(trie.occurrence(db), 3);
        assert_eq!(trie.total_paths(), 12);
    }

    #[test]
    fn value_prefixes_present_with_counts() {
        let tree = figure1_tree();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let ba_a1 = trie.find(&tokens(&tree, &["book", "author"], "A1")).unwrap();
        assert_eq!(trie.presence(ba_a1), 3, "all three books have an A1 author");
        assert_eq!(trie.occurrence(ba_a1), 3);
        let y_y1 = trie.find(&tokens(&tree, &["year"], "Y1")).unwrap();
        assert_eq!(trie.presence(y_y1), 2);
    }

    #[test]
    fn pure_string_fragments_present() {
        let tree = DataTree::from_xml("<r><a>Suciu</a><a>Sudarshan</a></r>").unwrap();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        // "Su" occurs at the start of both values.
        let su = trie.find(&[PathToken::Char(b'S'), PathToken::Char(b'u')]).unwrap();
        assert_eq!(trie.presence(su), 2);
        assert!(!trie.label_rooted(su));
        // "u" occurs at offsets 1,3 of Suciu and 1 of Sudarshan.
        let u = trie.find(&[PathToken::Char(b'u')]).unwrap();
        assert_eq!(trie.presence(u), 3);
        // mid-string fragment: "uciu"
        let uciu: Vec<PathToken> = "uciu".bytes().map(PathToken::Char).collect();
        assert!(trie.find(&uciu).is_some());
    }

    #[test]
    fn label_then_midstring_fragment_absent() {
        // The paper's invariant: "author.uciu" must not occur.
        let tree = DataTree::from_xml("<r><author>Suciu</author></r>").unwrap();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let mut bad = tokens(&tree, &["author"], "");
        bad.extend("uciu".bytes().map(PathToken::Char));
        assert!(trie.find(&bad).is_none());
        let good = tokens(&tree, &["author"], "Suciu");
        assert!(trie.find(&good).is_some());
    }

    #[test]
    fn depth_caps_respected() {
        let tree = DataTree::from_xml("<a><b><c><d>xyz</d></c></b></a>").unwrap();
        let config = TrieConfig { max_label_depth: 2, max_value_prefix: 2, max_string_suffix: 2 };
        let trie = build_suffix_trie(&tree, &config);
        assert!(trie.find(&tokens(&tree, &["a", "b"], "")).is_some());
        assert!(trie.find(&tokens(&tree, &["a", "b", "c"], "")).is_none());
        assert!(trie.find(&tokens(&tree, &["d"], "xy")).is_some());
        assert!(trie.find(&tokens(&tree, &["d"], "xyz")).is_none());
        let xy: Vec<PathToken> = "xy".bytes().map(PathToken::Char).collect();
        assert!(trie.find(&xy).is_some());
        let xyz: Vec<PathToken> = "xyz".bytes().map(PathToken::Char).collect();
        assert!(trie.find(&xyz).is_none());
    }

    #[test]
    fn value_prefix_requires_full_chain() {
        // With max_label_depth 2 the chain a.b.c cannot be completed from
        // start `a`, so no value extension may appear under a.b.
        let tree = DataTree::from_xml("<a><b><c>zz</c></b></a>").unwrap();
        let config = TrieConfig { max_label_depth: 2, max_value_prefix: 8, max_string_suffix: 4 };
        let trie = build_suffix_trie(&tree, &config);
        let mut ab_z = tokens(&tree, &["a", "b"], "");
        ab_z.push(PathToken::Char(b'z'));
        assert!(trie.find(&ab_z).is_none());
        // From start `b` the chain b.c completes, so b.c.z exists.
        let bc_z = tokens(&tree, &["b", "c"], "z");
        assert!(trie.find(&bc_z).is_some());
    }

    #[test]
    fn childless_element_paths_counted() {
        let tree = DataTree::from_xml("<a><b/><b/><c>x</c></a>").unwrap();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        assert_eq!(trie.total_paths(), 3);
        let ab = trie.find(&tokens(&tree, &["a", "b"], "")).unwrap();
        assert_eq!(trie.presence(ab), 1);
        assert_eq!(trie.occurrence(ab), 2);
        assert_eq!(trie.path_count(ab), 2);
    }

    #[test]
    fn repeated_value_in_one_leaf_paths_deduped() {
        // "abab": fragment "ab" occurs at offsets 0 and 2 of one path.
        let tree = DataTree::from_xml("<r><v>abab</v></r>").unwrap();
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let ab = trie.find(&[PathToken::Char(b'a'), PathToken::Char(b'b')]).unwrap();
        assert_eq!(trie.path_count(ab), 1, "one path contains it");
        assert_eq!(trie.presence(ab), 2, "two start offsets");
    }
}
