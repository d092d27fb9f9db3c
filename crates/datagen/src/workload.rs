//! Query workload generation (Sec. 6.1).
//!
//! - **Positive** queries are sampled from the data: pick a record-region
//!   node, walk 2–5 random downward paths of 2–4 internal nodes, and take
//!   a 1–4 character prefix of the reached leaf value. Sampled queries
//!   have at least one match by construction.
//! - **Trivial** queries are the single-path special case.
//! - **Negative** candidates glue subpaths sampled from *different*
//!   instances of the same root label; most have true count 0, and the
//!   harness filters with the exact counter (this crate does not depend
//!   on `twig-exact`).

use twig_tree::{DataTree, NodeId, Twig, TwigNodeId};
use twig_util::FxHashMap;
use twig_util::SplitMix64;

/// Workload shape parameters (defaults follow the paper).
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of queries to produce.
    pub count: usize,
    /// RNG seed.
    pub seed: u64,
    /// Paths per query, inclusive range.
    pub paths: (usize, usize),
    /// Internal (element) nodes per path, inclusive range.
    pub internal: (usize, usize),
    /// Leaf value prefix length, inclusive range.
    pub leaf_chars: (usize, usize),
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self { count: 1000, seed: 99, paths: (2, 5), internal: (2, 4), leaf_chars: (1, 4) }
    }
}

fn element_children(tree: &DataTree, node: NodeId) -> Vec<NodeId> {
    tree.children(node).filter(|&c| tree.element_symbol(c).is_some()).collect()
}

/// Walks a random downward element path of exactly `depth` nodes starting
/// at `start` (inclusive). Returns `None` when the subtree is too shallow.
fn random_path(
    tree: &DataTree,
    rng: &mut SplitMix64,
    start: NodeId,
    depth: usize,
) -> Option<Vec<NodeId>> {
    let mut path = vec![start];
    let mut cursor = start;
    for _ in 1..depth {
        let kids = element_children(tree, cursor);
        if kids.is_empty() {
            return None;
        }
        cursor = kids[rng.index(kids.len())];
        path.push(cursor);
    }
    Some(path)
}

/// The leaf value reached below the last element of `path`, if any.
fn leaf_value(tree: &DataTree, node: NodeId) -> Option<String> {
    tree.children(node).find_map(|c| tree.text(c)).map(str::to_owned)
}

fn char_prefix(value: &str, chars: usize) -> String {
    value.chars().take(chars).collect()
}

/// Builds a twig from data paths that all start at the same data node,
/// merging shared data-node prefixes (two paths through *different*
/// same-labeled children stay separate — the multiset query case).
fn twig_from_paths(tree: &DataTree, paths: &[Vec<NodeId>], leaves: &[Option<String>]) -> Twig {
    let root_sym = tree.element_symbol(paths[0][0]).expect("paths start at elements");
    let mut twig = Twig::with_root_element(tree.label_str(root_sym));
    let mut node_map: FxHashMap<NodeId, TwigNodeId> = FxHashMap::default();
    node_map.insert(paths[0][0], twig.root());
    // A data element has at most one text leaf, so a twig node may carry
    // at most one value child; when two sampled paths converge on the same
    // data node, keep the longer prefix (both are prefixes of one value).
    let mut values: FxHashMap<TwigNodeId, String> = FxHashMap::default();
    for (path, leaf) in paths.iter().zip(leaves) {
        let mut parent_twig = twig.root();
        for &data_node in &path[1..] {
            parent_twig = match node_map.get(&data_node) {
                Some(&existing) => existing,
                None => {
                    let sym = tree.element_symbol(data_node).expect("element path");
                    let id = twig.add_element(parent_twig, tree.label_str(sym));
                    node_map.insert(data_node, id);
                    id
                }
            };
        }
        if let Some(prefix) = leaf {
            let entry = values.entry(parent_twig).or_default();
            if prefix.len() > entry.len() {
                *entry = prefix.clone();
            }
        }
    }
    for (parent, value) in values {
        twig.add_value(parent, value);
    }
    twig
}

/// Candidate query roots: element nodes with at least one element child
/// (excluding text-only leaves); the document root is excluded so queries
/// describe record regions, not the whole corpus.
fn sample_roots(tree: &DataTree) -> Vec<NodeId> {
    tree.dfs()
        .filter(|&n| {
            n != tree.root()
                && tree.element_symbol(n).is_some()
                && !element_children(tree, n).is_empty()
        })
        .collect()
}

/// Generates up to `cfg.count` positive twig queries (each has ≥ 1 match
/// by construction). Returns fewer when the tree is too shallow to yield
/// enough distinct samples.
pub fn positive_queries(tree: &DataTree, cfg: &WorkloadConfig) -> Vec<Twig> {
    let mut rng = SplitMix64::new(cfg.seed);
    let roots = sample_roots(tree);
    assert!(!roots.is_empty(), "tree has no internal structure to sample");
    let mut out = Vec::with_capacity(cfg.count);
    let mut attempts = 0usize;
    while out.len() < cfg.count {
        attempts += 1;
        if attempts > cfg.count * 200 + 10_000 {
            break; // tree too shallow to yield more; return what we have
        }
        let root = roots[rng.index(roots.len())];
        // Half the queries get the sampled node's parent prepended, so the
        // branch node sits below the twig root (a root→branch segment —
        // the shape where the MOSH/PMOSH/MSH decompositions differ).
        let prefix: Option<NodeId> = if rng.index(2) == 0 {
            tree.parent(root).filter(|&p| tree.element_symbol(p).is_some())
        } else {
            None
        };
        let n_paths = rng.usize_in(cfg.paths.0, cfg.paths.1);
        let mut paths = Vec::with_capacity(n_paths);
        let mut leaves = Vec::with_capacity(n_paths);
        let mut ok = true;
        for _ in 0..n_paths {
            let budget = rng.usize_in(cfg.internal.0, cfg.internal.1);
            let depth = if prefix.is_some() { budget.saturating_sub(1).max(1) } else { budget };
            match random_path(tree, &mut rng, root, depth) {
                // Tolerate shallower paths than requested as long as the
                // path has at least 2 internal nodes.
                Some(mut path) => {
                    let leaf = leaf_value(tree, *path.last().expect("non-empty"));
                    let chars = rng.usize_in(cfg.leaf_chars.0, cfg.leaf_chars.1);
                    leaves.push(leaf.map(|v| char_prefix(&v, chars)));
                    if let Some(parent) = prefix {
                        path.insert(0, parent);
                    }
                    paths.push(path);
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok || paths.len() < n_paths {
            continue;
        }
        let twig = twig_from_paths(tree, &paths, &leaves);
        // Queries must be non-trivial for the positive workload (at least
        // two distinct root-to-leaf paths after merging).
        if twig.root_to_leaf_paths().len() >= 2 {
            out.push(twig);
        }
    }
    out
}

/// Generates up to `cfg.count` trivial (single-path) queries (fewer when
/// the tree is too shallow).
pub fn trivial_queries(tree: &DataTree, cfg: &WorkloadConfig) -> Vec<Twig> {
    let single = WorkloadConfig { paths: (1, 1), ..cfg.clone() };
    let mut rng = SplitMix64::new(single.seed);
    let roots = sample_roots(tree);
    assert!(!roots.is_empty(), "tree has no internal structure to sample");
    let mut out = Vec::with_capacity(single.count);
    let mut attempts = 0usize;
    while out.len() < single.count {
        attempts += 1;
        if attempts > single.count * 200 + 10_000 {
            break; // tree too shallow to yield more; return what we have
        }
        let root = roots[rng.index(roots.len())];
        let depth = rng.usize_in(single.internal.0, single.internal.1);
        let Some(path) = random_path(tree, &mut rng, root, depth) else {
            continue;
        };
        let Some(value) = leaf_value(tree, *path.last().expect("non-empty")) else {
            continue;
        };
        let chars = rng.usize_in(single.leaf_chars.0, single.leaf_chars.1);
        let twig = twig_from_paths(tree, &[path], &[Some(char_prefix(&value, chars))]);
        out.push(twig);
    }
    out
}

/// Generates negative-query *candidates*: subpaths sampled from different
/// instances of the same root label, glued at the root. Callers must
/// filter with an exact counter — gluing usually but not always produces
/// count 0 (the paper's negative workload has true count exactly 0).
pub fn negative_query_candidates(tree: &DataTree, cfg: &WorkloadConfig) -> Vec<Twig> {
    let mut rng = SplitMix64::new(cfg.seed ^ 0x4E47); // "NG"
    let roots = sample_roots(tree);
    assert!(!roots.is_empty(), "tree has no internal structure to sample");
    // Group sampling roots by label so we can glue across instances.
    let mut by_label: FxHashMap<u32, Vec<NodeId>> = FxHashMap::default();
    for &r in &roots {
        by_label.entry(tree.element_symbol(r).expect("element").0).or_default().push(r);
    }
    let labels: Vec<u32> = by_label.iter().filter(|(_, v)| v.len() >= 2).map(|(&l, _)| l).collect();
    assert!(!labels.is_empty(), "no repeated record labels to glue across");
    let mut out = Vec::with_capacity(cfg.count);
    let mut attempts = 0usize;
    while out.len() < cfg.count {
        attempts += 1;
        if attempts > cfg.count * 500 + 10_000 {
            break; // caller will see fewer candidates
        }
        let label = labels[rng.index(labels.len())];
        let instances = &by_label[&label];
        let n_paths = rng.usize_in(cfg.paths.0, cfg.paths.1);
        // Sample each path from a different instance, then re-root all of
        // them onto the FIRST instance's node so the twig glues subpaths
        // that never co-occur.
        let mut paths: Vec<Vec<NodeId>> = Vec::with_capacity(n_paths);
        let mut leaves = Vec::with_capacity(n_paths);
        let mut ok = true;
        for _ in 0..n_paths {
            let inst = instances[rng.index(instances.len())];
            let depth = rng.usize_in(cfg.internal.0, cfg.internal.1);
            match random_path(tree, &mut rng, inst, depth) {
                Some(path) => {
                    let leaf = leaf_value(tree, *path.last().expect("non-empty"));
                    let chars = rng.usize_in(cfg.leaf_chars.0, cfg.leaf_chars.1);
                    leaves.push(leaf.map(|v| char_prefix(&v, chars)));
                    paths.push(path);
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        // Glue: build the twig with paths kept separate below the root
        // (no node merging except the root — they come from different
        // instances anyway).
        let root_label = {
            let sym = tree.element_symbol(paths[0][0]).expect("element");
            tree.label_str(sym).to_owned()
        };
        let mut twig = Twig::with_root_element(&root_label);
        for (path, leaf) in paths.iter().zip(&leaves) {
            let mut parent = twig.root();
            for &n in &path[1..] {
                let sym = tree.element_symbol(n).expect("element");
                parent = twig.add_element(parent, tree.label_str(sym));
            }
            if let Some(prefix) = leaf {
                twig.add_value(parent, prefix.clone());
            }
        }
        if twig.root_to_leaf_paths().len() >= 2 {
            out.push(twig);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dblp::{generate_dblp, DblpConfig};
    use twig_exact_shim::count_presence;

    // Keep datagen free of a twig-exact dependency: a tiny local checker
    // is enough for tests (presence > 0 for positives).
    mod twig_exact_shim {
        use twig_tree::{DataTree, NodeId, Twig, TwigLabel, TwigNodeId};

        pub(super) fn count_presence(tree: &DataTree, twig: &Twig) -> u64 {
            let TwigLabel::Element(root_label) = twig.label(twig.root()) else {
                panic!("workload twigs have element roots")
            };
            let Some(sym) = tree.symbol(root_label) else {
                return 0;
            };
            tree.nodes_with_label(sym)
                .iter()
                .filter(|&&v| matches(tree, twig, twig.root(), v))
                .count() as u64
        }

        // Existence check with greedy sibling assignment backtracking.
        fn matches(tree: &DataTree, twig: &Twig, q: TwigNodeId, v: NodeId) -> bool {
            match twig.label(q) {
                TwigLabel::Value(p) => tree.text(v).is_some_and(|t| t.starts_with(p)),
                TwigLabel::Star => unreachable!("workloads have no wildcards"),
                TwigLabel::Element(name) => {
                    if tree.element_symbol(v).map(|s| tree.label_str(s)) != Some(name) {
                        return false;
                    }
                    let kids: Vec<NodeId> = tree.children(v).collect();
                    let qs = twig.children(q);
                    assign(tree, twig, qs, &kids, 0, &mut vec![false; kids.len()])
                }
            }
        }

        fn assign(
            tree: &DataTree,
            twig: &Twig,
            qs: &[TwigNodeId],
            kids: &[NodeId],
            i: usize,
            used: &mut Vec<bool>,
        ) -> bool {
            if i == qs.len() {
                return true;
            }
            for (j, &kid) in kids.iter().enumerate() {
                if !used[j] && matches(tree, twig, qs[i], kid) {
                    used[j] = true;
                    if assign(tree, twig, qs, kids, i + 1, used) {
                        used[j] = false;
                        return true;
                    }
                    used[j] = false;
                }
            }
            false
        }
    }

    fn tree() -> DataTree {
        DataTree::from_xml(&generate_dblp(&DblpConfig {
            target_bytes: 150_000,
            seed: 21,
            ..DblpConfig::default()
        }))
        .unwrap()
    }

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig { count: 40, ..WorkloadConfig::default() }
    }

    #[test]
    fn positive_queries_have_matches() {
        let tree = tree();
        let queries = positive_queries(&tree, &small_cfg());
        assert_eq!(queries.len(), 40);
        for q in &queries {
            assert!(count_presence(&tree, q) > 0, "positive query has no match: {q}");
        }
    }

    #[test]
    fn positive_queries_are_nontrivial() {
        let tree = tree();
        for q in positive_queries(&tree, &small_cfg()) {
            assert!(q.root_to_leaf_paths().len() >= 2, "{q}");
        }
    }

    #[test]
    fn positive_query_shape_within_bounds() {
        let tree = tree();
        let cfg = small_cfg();
        for q in positive_queries(&tree, &cfg) {
            let paths = q.root_to_leaf_paths();
            assert!(paths.len() <= cfg.paths.1, "{q}");
            for path in paths {
                let internals = path
                    .iter()
                    .filter(|&&n| matches!(q.label(n), twig_tree::TwigLabel::Element(_)))
                    .count();
                assert!(internals <= cfg.internal.1, "{q}");
            }
        }
    }

    #[test]
    fn trivial_queries_are_single_path() {
        let tree = tree();
        let queries = trivial_queries(&tree, &small_cfg());
        assert_eq!(queries.len(), 40);
        for q in &queries {
            assert!(q.is_single_path(), "{q}");
            assert!(count_presence(&tree, q) > 0, "trivial query has no match: {q}");
        }
    }

    #[test]
    fn negative_candidates_mostly_zero() {
        let tree = tree();
        let candidates = negative_query_candidates(&tree, &small_cfg());
        assert!(!candidates.is_empty());
        let zeros = candidates.iter().filter(|q| count_presence(&tree, q) == 0).count();
        // Gluing across instances should produce mostly-zero counts.
        assert!(
            zeros * 2 > candidates.len(),
            "only {zeros}/{} candidates are negative",
            candidates.len()
        );
    }

    #[test]
    fn workloads_are_deterministic() {
        let tree = tree();
        let a = positive_queries(&tree, &small_cfg());
        let b = positive_queries(&tree, &small_cfg());
        assert_eq!(
            a.iter().map(ToString::to_string).collect::<Vec<_>>(),
            b.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let tree = tree();
        let a = positive_queries(&tree, &small_cfg());
        let b = positive_queries(&tree, &WorkloadConfig { seed: 1234, ..small_cfg() });
        let a_strs: Vec<String> = a.iter().map(ToString::to_string).collect();
        let b_strs: Vec<String> = b.iter().map(ToString::to_string).collect();
        assert_ne!(a_strs, b_strs);
    }
}
