//! An independent oracle for the unordered exact counts.
//!
//! Every figure of the evaluation scores its estimates against
//! `twig-exact`, whose counter is a memoized recursion over permanents of
//! child-count matrices. This test checks it against the paper's
//! definitions, read literally: on small random trees (at most 12
//! element nodes, short text values, repeated labels, mixed content) it
//! enumerates every map of a twig into the tree that preserves labels
//! (a value leaf matches a text leaf it is a prefix of) and edges, and
//! sends distinct query siblings to distinct data nodes. Presence
//! (Definition 2) is then the number of distinct images of the twig root,
//! occurrence (Definition 3) the number of maps.
//!
//! Each case is seeded with SplitMix64; a failing one prints its seed,
//! tree and twig and reproduces exactly.

use std::collections::BTreeSet;

use twig_exact::{count_occurrence, count_presence};
use twig_tree::{DataTree, NodeId, TreeBuilder, Twig, TwigLabel, TwigNodeId};
use twig_util::SplitMix64;

const TREES: u64 = 400;
const TWIGS_PER_TREE: usize = 12;
const MAX_ELEMENTS: usize = 12;
const MAX_TWIG_NODES: usize = 6;
const LABELS: [&str; 3] = ["a", "b", "c"];

/// A short text value over a two-letter alphabet, so prefixes collide.
fn random_text(rng: &mut SplitMix64) -> String {
    (0..rng.usize_in(1, 3)).map(|_| if rng.next_below(2) == 0 { 'x' } else { 'y' }).collect()
}

/// A random tree of at most [`MAX_ELEMENTS`] element nodes. An element
/// has up to three children, each an element (while the budget lasts) or
/// a text leaf, so elements may be childless or hold mixed content.
fn random_tree(rng: &mut SplitMix64) -> DataTree {
    fn grow(builder: &mut TreeBuilder, rng: &mut SplitMix64, elements: &mut usize, depth: usize) {
        for _ in 0..rng.next_below(5) {
            if *elements < MAX_ELEMENTS && depth < 4 && rng.next_below(3) > 0 {
                *elements += 1;
                builder.open_element(LABELS[rng.index(LABELS.len())]);
                grow(builder, rng, elements, depth + 1);
                builder.close_element();
            } else {
                builder.text(&random_text(rng));
            }
        }
    }
    let mut builder = TreeBuilder::new();
    builder.open_element(LABELS[rng.index(LABELS.len())]);
    grow(&mut builder, rng, &mut 1, 1);
    builder.close_element();
    builder.finish()
}

/// A random twig over the tree's labels. Half the twigs are planted: they
/// copy a random walk down from a random element (the same data child may
/// be copied twice, which exercises sibling injectivity), so most of them
/// match. The rest draw every label at random. Leaves are elements or
/// value prefixes (the empty prefix included).
fn random_twig(tree: &DataTree, rng: &mut SplitMix64) -> Twig {
    let elements: Vec<NodeId> = tree.dfs().filter(|&v| tree.element_symbol(v).is_some()).collect();
    let texts: Vec<&str> = tree.dfs().filter_map(|v| tree.text(v)).collect();
    let planted = rng.next_below(2) == 0;
    let random_label = |rng: &mut SplitMix64| {
        let v = elements[rng.index(elements.len())];
        tree.label_str(tree.element_symbol(v).expect("an element")).to_owned()
    };
    let random_prefix = |rng: &mut SplitMix64| match texts.len() {
        0 => random_text(rng),
        n => {
            let text = texts[rng.index(n)];
            text[..rng.usize_in(0, text.len())].to_owned()
        }
    };
    let start = elements[rng.index(elements.len())];
    let root_label = if planted {
        tree.label_str(tree.element_symbol(start).expect("an element")).to_owned()
    } else {
        random_label(rng)
    };
    let mut twig = Twig::with_root_element(root_label);
    // (twig node, the data node it was copied from, depth)
    let mut frontier = vec![(twig.root(), start, 0usize)];
    while let Some((q, v, depth)) = frontier.pop() {
        if depth == 3 {
            continue;
        }
        let data_children: Vec<NodeId> = tree.children(v).collect();
        for _ in 0..rng.next_below(3) {
            if twig.node_count() == MAX_TWIG_NODES {
                break;
            }
            if planted && !data_children.is_empty() {
                let child = data_children[rng.index(data_children.len())];
                match tree.text(child) {
                    Some(text) => {
                        twig.add_value(q, &text[..rng.usize_in(0, text.len())]);
                    }
                    None => {
                        let label = tree.label_str(tree.element_symbol(child).expect("an element"));
                        let node = twig.add_element(q, label);
                        frontier.push((node, child, depth + 1));
                    }
                }
            } else if rng.next_below(3) == 0 {
                twig.add_value(q, random_prefix(rng));
            } else {
                let node = twig.add_element(q, random_label(rng));
                frontier.push((node, v, depth + 1));
            }
        }
    }
    twig
}

/// Enumerates every label- and edge-preserving, sibling-injective map of
/// `twig` into `tree`. Returns (distinct root images, number of maps).
fn brute_force(tree: &DataTree, twig: &Twig) -> (u64, u64) {
    struct Search<'a> {
        tree: &'a DataTree,
        twig: &'a Twig,
        data: Vec<NodeId>,
        image: Vec<Option<NodeId>>,
        roots: BTreeSet<NodeId>,
        maps: u64,
    }
    impl Search<'_> {
        fn label_matches(&self, q: TwigNodeId, v: NodeId) -> bool {
            match self.twig.label(q) {
                TwigLabel::Element(name) => {
                    self.tree.element_symbol(v).is_some_and(|sym| self.tree.label_str(sym) == name)
                }
                TwigLabel::Value(prefix) => {
                    self.tree.text(v).is_some_and(|text| text.starts_with(prefix))
                }
                TwigLabel::Star => unreachable!("the oracle draws no wildcards"),
            }
        }

        /// Twig node ids grow from parent to child, so assigning them in
        /// id order fixes every parent before its children.
        fn enumerate_from(&mut self, next: usize) {
            if next == self.image.len() {
                self.maps += 1;
                self.roots.insert(self.image[0].expect("root assigned"));
                return;
            }
            let q = TwigNodeId(next as u32);
            let parent_image =
                self.twig.parent(q).map(|p| self.image[p.index()].expect("parent first"));
            for i in 0..self.data.len() {
                let v = self.data[i];
                let edge = parent_image.is_none() || self.tree.parent(v) == parent_image;
                let injective = self
                    .twig
                    .parent(q)
                    .into_iter()
                    .flat_map(|p| self.twig.children(p))
                    .all(|&s| s == q || self.image[s.index()] != Some(v));
                if edge && injective && self.label_matches(q, v) {
                    self.image[next] = Some(v);
                    self.enumerate_from(next + 1);
                    self.image[next] = None;
                }
            }
        }
    }
    let mut search = Search {
        tree,
        twig,
        data: tree.dfs().collect(),
        image: vec![None; twig.node_count()],
        roots: BTreeSet::new(),
        maps: 0,
    };
    search.enumerate_from(0);
    (search.roots.len() as u64, search.maps)
}

/// Renders a data tree for failure messages: elements as XML tags, text
/// leaves quoted (adjacent leaves stay apart).
fn show_tree(tree: &DataTree, v: NodeId) -> String {
    match tree.text(v) {
        Some(text) => format!("{text:?}"),
        None => {
            let label = tree.label_str(tree.element_symbol(v).expect("an element"));
            let inner: String = tree.children(v).map(|c| show_tree(tree, c)).collect();
            format!("<{label}>{inner}</{label}>")
        }
    }
}

#[test]
fn exact_counts_match_brute_force_enumeration() {
    let (mut cases, mut matched, mut multiset) = (0u32, 0u32, 0u32);
    for seed in 0..TREES {
        let mut rng = SplitMix64::new(seed);
        let tree = random_tree(&mut rng);
        for _ in 0..TWIGS_PER_TREE {
            let twig = random_twig(&tree, &mut rng);
            let (presence, occurrence) = brute_force(&tree, &twig);
            let context =
                || format!("seed {seed}: twig {twig} in {}", show_tree(&tree, tree.root()));
            assert_eq!(count_presence(&tree, &twig), presence, "presence, {}", context());
            assert_eq!(count_occurrence(&tree, &twig), occurrence, "occurrence, {}", context());
            cases += 1;
            matched += u32::from(presence > 0);
            multiset += u32::from(occurrence > presence);
        }
    }
    // The oracle is only as strong as its cases: most must match, and
    // many must count more maps than roots (the multiset problem).
    assert!(matched * 2 > cases, "{matched} of {cases} cases matched");
    assert!(
        multiset * 10 > cases,
        "{multiset} of {cases} cases had occurrence > presence; {matched} matched"
    );
}

#[test]
fn oracle_counts_injective_sibling_maps() {
    // The oracle itself on a hand-worked case: x(a,a) over three `a`
    // children has 3 · 2 ordered maps and one root.
    let tree = DataTree::from_xml("<r><x><a>1</a><a>2</a><a>3</a></x></r>").expect("valid XML");
    let twig = Twig::parse("x(a,a)").expect("valid twig");
    assert_eq!(brute_force(&tree, &twig), (1, 6));
    let twig = Twig::parse(r#"x(a("1"),a)"#).expect("valid twig");
    assert_eq!(brute_force(&tree, &twig), (1, 2));
}
