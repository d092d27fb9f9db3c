//! Property-based tests over randomly generated trees and queries.
//!
//! The key cross-check: the suffix trie's three counts (`pc`, `Cp`, `Co`)
//! are validated against *independent* implementations — `twig-exact`'s
//! match counters for label-rooted subpaths and a direct substring scan
//! for string fragments.
//!
//! Each property sweeps a deterministic seed set (no external property
//! testing framework — the container builds offline). A failing seed
//! prints in the assertion message and reproduces exactly.

use twig_core::{Algorithm, CountKind, Cst, CstConfig, SpaceBudget};
use twig_exact::{count_occurrence, count_occurrence_ordered, count_presence};
use twig_pst::{build_suffix_trie, PathToken, TrieConfig, TrieNodeId};
use twig_tree::{DataTree, TreeBuilder, Twig};
use twig_util::SplitMix64;

const CASES: u64 = 48;

/// The seeds each property sweeps (spread over the old `0..5_000` domain).
fn seeds() -> impl Iterator<Item = u64> {
    (0..CASES).map(|case| case * 104 + 7)
}

/// Builds a random tree from a seed. Labels encode their depth
/// (`l<depth>_<k>`) so no label ever repeats along a vertical chain —
/// the precondition under which the trie counts are exact.
fn random_tree(seed: u64, max_children: u64, depth: usize) -> DataTree {
    let mut rng = SplitMix64::new(seed);
    let mut builder = TreeBuilder::new();
    fn grow(
        builder: &mut TreeBuilder,
        rng: &mut SplitMix64,
        depth: usize,
        max_depth: usize,
        max_children: u64,
    ) {
        if depth == max_depth {
            // Leaf value: short string over a tiny alphabet so fragments
            // repeat across leaves.
            let len = 1 + rng.next_below(4) as usize;
            let mut value = String::new();
            for _ in 0..len {
                value.push((b'a' + rng.next_below(3) as u8) as char);
            }
            builder.text(&value);
            return;
        }
        let children = 1 + rng.next_below(max_children);
        for _ in 0..children {
            let label = format!("l{}_{}", depth, rng.next_below(3));
            builder.open_element(&label);
            if rng.next_below(5) > 0 {
                grow(builder, rng, depth + 1, max_depth, max_children);
            }
            builder.close_element();
        }
    }
    builder.open_element("root");
    grow(&mut builder, &mut rng, 1, depth, max_children);
    builder.close_element();
    let mut tree = builder.finish();
    tree.set_source_bytes(tree.node_count() * 24);
    tree
}

/// True when the workload sampler can operate on `tree` (some non-root
/// element has an element child). Degenerate random trees are skipped.
fn sampleable(tree: &DataTree) -> bool {
    tree.dfs().any(|n| {
        n != tree.root()
            && tree.element_symbol(n).is_some()
            && tree.children(n).any(|c| tree.element_symbol(c).is_some())
    })
}

/// Reconstructs the `(labels, value-prefix)` form of a label-rooted trie
/// node's token sequence.
fn tokens_to_twig(tree: &DataTree, tokens: &[PathToken]) -> Option<Twig> {
    let mut labels: Vec<&str> = Vec::new();
    let mut value = String::new();
    for token in tokens {
        match token {
            PathToken::Element(sym) => {
                if !value.is_empty() {
                    return None; // labels after value chars: not a path twig
                }
                labels.push(tree.label_str(*sym));
            }
            PathToken::Char(byte) => value.push(*byte as char),
        }
    }
    if labels.is_empty() {
        return None;
    }
    Some(Twig::path(&labels, (!value.is_empty()).then_some(value.as_str())))
}

/// The token sequence of every root-to-leaf path: its element labels,
/// then the bytes of its leaf value.
fn path_tokens(tree: &DataTree) -> Vec<Vec<PathToken>> {
    let mut paths = Vec::new();
    tree.for_each_root_to_leaf_path(|path| {
        let mut tokens = Vec::new();
        for &node in path {
            match (tree.element_symbol(node), tree.text(node)) {
                (Some(sym), _) => tokens.push(PathToken::Element(sym)),
                (None, Some(text)) => tokens.extend(text.bytes().map(PathToken::Char)),
                (None, None) => unreachable!("a node is an element or a text leaf"),
            }
        }
        paths.push(tokens);
    });
    paths
}

/// `pc` by its definition: the number of root-to-leaf paths that contain
/// `subpath` as a contiguous run of tokens.
fn paths_containing(paths: &[Vec<PathToken>], subpath: &[PathToken]) -> u32 {
    let count =
        paths.iter().filter(|path| path.windows(subpath.len()).any(|w| w == subpath)).count();
    u32::try_from(count).expect("path count fits u32")
}

/// Counts occurrences of `fragment` across all `(leaf, offset)` positions.
fn substring_positions(tree: &DataTree, fragment: &[u8]) -> u64 {
    let mut total = 0u64;
    for node in tree.dfs() {
        if let Some(text) = tree.text(node) {
            let bytes = text.as_bytes();
            if fragment.len() <= bytes.len() {
                for offset in 0..=(bytes.len() - fragment.len()) {
                    if &bytes[offset..offset + fragment.len()] == fragment {
                        total += 1;
                    }
                }
            }
        }
    }
    total
}

/// Every label-rooted trie count equals what the exact twig counter
/// computes for the corresponding single-path query, and `pc` equals a
/// scan of the root-to-leaf paths.
#[test]
fn trie_counts_match_exact_counter() {
    for seed in seeds() {
        let tree = random_tree(seed, 3, 4);
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let pruned = trie.prune(1);
        let paths = path_tokens(&tree);
        for node in pruned.node_ids().skip(1) {
            if !pruned.label_rooted(node) {
                continue;
            }
            let tokens = pruned.tokens_of(node);
            assert_eq!(
                pruned.path_count(node),
                paths_containing(&paths, &tokens),
                "seed {seed}: pc mismatch for {tokens:?}"
            );
            let Some(twig) = tokens_to_twig(&tree, &tokens) else {
                continue;
            };
            let presence = count_presence(&tree, &twig);
            let occurrence = count_occurrence(&tree, &twig);
            assert_eq!(
                u64::from(pruned.presence(node)),
                presence,
                "seed {seed}: presence mismatch for {twig}"
            );
            assert_eq!(
                u64::from(pruned.occurrence(node)),
                occurrence,
                "seed {seed}: occurrence mismatch for {twig}"
            );
        }
    }
}

/// String-fragment counts equal a direct scan: presence counts the
/// `(leaf, offset)` positions, occurrence equals presence, and `pc`
/// counts the root-to-leaf paths whose value contains the fragment. The
/// values come from a 3-letter alphabet, so they repeat across leaves
/// and fragments repeat within a value.
#[test]
fn trie_string_counts_match_scan() {
    for seed in seeds() {
        let tree = random_tree(seed, 3, 3);
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        let pruned = trie.prune(1);
        let paths = path_tokens(&tree);
        for node in pruned.node_ids().skip(1) {
            if pruned.label_rooted(node) {
                continue;
            }
            let tokens = pruned.tokens_of(node);
            let fragment: Vec<u8> = tokens
                .iter()
                .map(|t| match t {
                    PathToken::Char(byte) => *byte,
                    PathToken::Element(_) => unreachable!("string node"),
                })
                .collect();
            let shown = String::from_utf8_lossy(&fragment);
            assert_eq!(
                u64::from(pruned.presence(node)),
                substring_positions(&tree, &fragment),
                "seed {seed}: fragment {shown:?}"
            );
            assert_eq!(pruned.occurrence(node), pruned.presence(node), "seed {seed}: {shown:?}");
            assert_eq!(
                pruned.path_count(node),
                paths_containing(&paths, &tokens),
                "seed {seed}: pc of fragment {shown:?}"
            );
        }
    }
}

/// Renders a subpath as its labels joined by `.`, then its value bytes
/// in quotes: `a.a."x"`, or `"x"` for a pure string fragment.
fn render_subpath(tree: &DataTree, tokens: &[PathToken]) -> String {
    let mut labels: Vec<&str> = Vec::new();
    let mut value = String::new();
    for token in tokens {
        match token {
            PathToken::Element(sym) => labels.push(tree.label_str(*sym)),
            PathToken::Char(byte) => value.push(char::from(*byte)),
        }
    }
    if !value.is_empty() {
        value = format!("\"{value}\"");
        if !labels.is_empty() {
            value.insert(0, '.');
        }
    }
    format!("{}{value}", labels.join("."))
}

/// Periodic trees, which repeat a label down a chain, and every trie
/// node's `subpath pc Cp Co` in pruned-trie order. In the third, `a` is
/// rooted at 5 nodes but counted 8 times: a path stamps its starts in
/// turn, so `a1, a3, a4` then `a1, a3, a5` re-count `a1` and `a3`.
const PERIODIC: &[(&str, &[&str])] = &[
    (
        "<a><a><a>x</a></a></a>",
        &[
            "a 1 3 3",
            "\"x\" 1 1 1",
            "a.a 1 2 2",
            "a.\"x\" 1 1 1",
            "a.a.a 1 1 1",
            "a.a.\"x\" 1 1 1",
            "a.a.a.\"x\" 1 1 1",
        ],
    ),
    (
        "<a><b><a><b>xy</b></a></b></a>",
        &[
            "a 1 2 2",
            "b 1 2 2",
            "\"x\" 1 1 1",
            "\"y\" 1 1 1",
            "a.b 1 2 2",
            "a.b.a 1 1 1",
            "a.b.\"x\" 1 1 1",
            "a.b.a.b 1 1 1",
            "a.b.a.b.\"x\" 1 1 1",
            "a.b.a.b.\"xy\" 1 1 1",
            "a.b.\"xy\" 1 1 1",
            "b.a 1 1 1",
            "b.\"x\" 1 1 1",
            "b.a.b 1 1 1",
            "b.a.b.\"x\" 1 1 1",
            "b.a.b.\"xy\" 1 1 1",
            "b.\"xy\" 1 1 1",
            "\"xy\" 1 1 1",
        ],
    ),
    (
        "<a><a>aa</a><a><a>a</a><a>aa</a></a></a>",
        &[
            "a 3 8 8",
            "\"a\" 3 5 5",
            "a.a 3 4 5",
            "a.\"a\" 3 3 3",
            "a.a.a 2 1 2",
            "a.a.\"a\" 3 2 3",
            "a.a.a.\"a\" 2 1 2",
            "a.a.a.\"aa\" 1 1 1",
            "a.a.\"aa\" 2 2 2",
            "a.\"aa\" 2 2 2",
            "\"aa\" 2 2 2",
        ],
    ),
];

/// A periodic tree breaks the precondition under which the counts are
/// exact, and the crate docs promise only slight overcounts there. These
/// tables, recorded before the full-trie builder was reworked, pin every
/// node's counts so that the overcounts cannot drift.
#[test]
fn periodic_tree_counts_are_pinned() {
    for &(xml, expected) in PERIODIC {
        let tree = DataTree::from_xml(xml).expect("periodic tree parses");
        let pruned = build_suffix_trie(&tree, &TrieConfig::default()).prune(1);
        let actual: Vec<String> = pruned
            .node_ids()
            .skip(1)
            .map(|node| {
                format!(
                    "{} {} {} {}",
                    render_subpath(&tree, &pruned.tokens_of(node)),
                    pruned.path_count(node),
                    pruned.presence(node),
                    pruned.occurrence(node)
                )
            })
            .collect();
        assert_eq!(actual, expected, "{xml}\nactual: {actual:#?}");
    }
}

/// pc is monotone: child counts never exceed parents'.
#[test]
fn trie_path_counts_monotone() {
    for seed in seeds() {
        let tree = random_tree(seed, 3, 4);
        let pruned = build_suffix_trie(&tree, &TrieConfig::default()).prune(1);
        for node in pruned.node_ids().skip(1) {
            let parent = pruned.parent(node).expect("non-root");
            if parent != TrieNodeId::ROOT {
                assert!(pruned.path_count(node) <= pruned.path_count(parent), "seed {seed}");
            }
            assert!(pruned.presence(node) <= pruned.occurrence(node), "seed {seed}");
            assert!(pruned.occurrence(node) >= 1, "seed {seed}");
        }
    }
}

/// Exact-counting invariants on random twigs sampled from the tree.
#[test]
fn exact_counting_invariants() {
    for seed in seeds() {
        let tree = random_tree(seed, 4, 4);
        if !sampleable(&tree) {
            continue;
        }
        let queries = twig_datagen::positive_queries(
            &tree,
            &twig_datagen::WorkloadConfig {
                count: 4,
                seed,
                paths: (2, 3),
                internal: (2, 3),
                leaf_chars: (1, 2),
            },
        );
        for query in &queries {
            let presence = count_presence(&tree, query);
            let occurrence = count_occurrence(&tree, query);
            let ordered_presence = twig_exact::count_presence_ordered(&tree, query);
            let ordered_occurrence = count_occurrence_ordered(&tree, query);
            assert!(presence >= 1, "seed {seed}: positive query must match: {query}");
            assert!(occurrence >= presence, "seed {seed}: {query}");
            assert!(ordered_occurrence <= occurrence, "seed {seed}: {query}");
            assert!(ordered_presence <= presence, "seed {seed}: {query}");
        }
    }
}

/// Estimates are finite and non-negative for every algorithm, count kind
/// and budget, on arbitrary queries (matching or not).
#[test]
fn estimates_always_sane() {
    for (case, seed) in seeds().enumerate() {
        let tree = random_tree(seed, 3, 4);
        if !sampleable(&tree) {
            continue;
        }
        // Sweep the budget fraction across the old 0.02..0.9 domain.
        let fraction = 0.02 + (case as f64 / (CASES - 1) as f64) * 0.88;
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Fraction(fraction), ..CstConfig::default() },
        )
        .expect("CST config is valid");
        let queries = twig_datagen::positive_queries(
            &tree,
            &twig_datagen::WorkloadConfig {
                count: 3,
                seed: seed ^ 0xF00D,
                paths: (2, 3),
                internal: (2, 3),
                leaf_chars: (1, 2),
            },
        );
        // Plus a certainly-absent query.
        let mut all = queries;
        all.push(Twig::parse(r#"zz_no_such(l9_9("q"))"#).expect("valid"));
        for query in &all {
            for algo in Algorithm::ALL {
                for kind in [CountKind::Presence, CountKind::Occurrence] {
                    let est = cst.estimate(query, algo, kind);
                    assert!(est.is_finite() && est >= 0.0, "seed {seed}: {algo} {kind:?} {query}");
                }
            }
        }
    }
}

/// An unpruned summary answers trivial queries exactly (all MO-family
/// algorithms).
#[test]
fn unpruned_trivial_exactness() {
    for seed in seeds() {
        let tree = random_tree(seed, 3, 4);
        if !sampleable(&tree) {
            continue;
        }
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() },
        )
        .expect("CST config is valid");
        let queries = twig_datagen::trivial_queries(
            &tree,
            &twig_datagen::WorkloadConfig {
                count: 4,
                seed: seed ^ 0xBEEF,
                internal: (2, 3),
                leaf_chars: (1, 2),
                ..twig_datagen::WorkloadConfig::default()
            },
        );
        for query in &queries {
            let truth = count_occurrence(&tree, query) as f64;
            for algo in [Algorithm::PureMo, Algorithm::Mosh, Algorithm::Msh] {
                let est = cst.estimate(query, algo, CountKind::Occurrence);
                assert!(
                    (est - truth).abs() <= 1e-6 * truth.max(1.0),
                    "seed {seed}: {algo} on {query}: {est} vs {truth}"
                );
            }
        }
    }
}

/// XML roundtrip through the writer and parser preserves the tree.
#[test]
fn xml_roundtrip_via_dom() {
    use twig_xml::{Document, Element};
    fn random_element(rng: &mut SplitMix64, depth: usize) -> Element {
        let mut el = Element::new(format!("e{}", rng.next_below(5)));
        if rng.next_below(2) == 0 {
            el = el.with_attr(format!("a{}", rng.next_below(3)), "v&<>\"'");
        }
        if depth < 3 {
            for _ in 0..rng.next_below(3) {
                el = el.with_child(random_element(rng, depth + 1));
            }
        }
        if rng.next_below(2) == 0 {
            el = el.with_text(format!("text {} <&> {}", rng.next_below(100), depth));
        }
        el
    }
    for seed in seeds() {
        let mut rng = SplitMix64::new(seed);
        let original = random_element(&mut rng, 0);
        let written = twig_xml::writer::element_to_string(&original);
        let reparsed = Document::parse(&written).expect("roundtrip parses");
        assert_eq!(reparsed.root, original, "seed {seed}");
    }
}
