//! Query compilation: a twig becomes token sequences over the CST
//! vocabulary, with every token tied back to the query node it covers.
//!
//! A compiled query is the one structure every later stage indexes
//! into: a parsed subpath is a token range of one of its paths, and a
//! set of covered query units is a bitset over its dense unit ids.

use twig_pst::{PathToken, TrieNodeId};
use twig_tree::{Twig, TwigLabel, TwigNodeId};

use crate::summary::{Summary, TrieAccess};

/// One coverable position of the query tree.
///
/// Element query nodes are one unit each; a value leaf contributes one
/// unit per character (subpaths may cover value prefixes partially).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Unit {
    /// An element query node.
    El(TwigNodeId),
    /// Character `index` of the value at a leaf query node.
    Ch(TwigNodeId, u16),
}

/// A token of a compiled query path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A token that can be walked in the CST trie.
    Ok(PathToken),
    /// An element label that does not occur in the data vocabulary — the
    /// subpath containing it has true count 0.
    Unknown,
    /// A wildcard query node: exempt from coverage, never part of a
    /// subpath (parsing restarts after it). See `DESIGN.md` §6.
    Wild,
}

/// The compiled query: all root-to-leaf paths, stored back to back.
///
/// Token `i` of a path covers unit `i` of it, and `i` is that unit's
/// depth in the query tree, so two paths hold the same unit at the same
/// index exactly up to the point where they diverge. Compiling again
/// into the same value reuses its buffers.
#[derive(Debug, Clone, Default)]
pub struct CompiledQuery {
    /// Tokens of every path, in query-DFS order.
    tokens: Vec<Token>,
    /// The query unit each token covers.
    units: Vec<Unit>,
    /// One past the last token of each path.
    path_ends: Vec<usize>,
    /// Branch query nodes (two or more children).
    branches: Vec<TwigNodeId>,
    /// Dense id of each query node's first unit.
    unit_base: Vec<usize>,
    /// Compile-time buffers: each node's resolved element token, the
    /// DFS stack of (node, depth) and the current root-to-node trail.
    node_tokens: Vec<Token>,
    stack: Vec<(TwigNodeId, usize)>,
    trail: Vec<TwigNodeId>,
}

impl CompiledQuery {
    /// Compiles `twig` against the summary's label vocabulary.
    pub fn compile<S: Summary>(cst: &S, twig: &Twig) -> Self {
        let mut query = CompiledQuery::default();
        query.recompile(cst, twig);
        query
    }

    /// Compiles `twig` into this value, reusing its buffers.
    pub(crate) fn recompile<S: Summary>(&mut self, cst: &S, twig: &Twig) {
        self.tokens.clear();
        self.units.clear();
        self.path_ends.clear();
        self.branches.clear();
        self.unit_base.clear();
        self.node_tokens.clear();
        // Per node, in id order: its first dense unit id, its token (each
        // label is resolved once, however many paths pass through it; a
        // value leaf's is unused, as it spells one char token per byte)
        // and whether it branches.
        let mut next_unit = 0;
        for index in 0..twig.node_count() {
            let node = TwigNodeId(u32::try_from(index).unwrap_or(u32::MAX));
            self.unit_base.push(next_unit);
            let (token, units) = match twig.label(node) {
                TwigLabel::Element(name) => match cst.symbol(name) {
                    Some(sym) => (Token::Ok(PathToken::Element(sym)), 1),
                    None => (Token::Unknown, 1),
                },
                TwigLabel::Value(value) => (Token::Wild, value.len()),
                TwigLabel::Star => (Token::Wild, 1),
            };
            self.node_tokens.push(token);
            next_unit = next_unit.saturating_add(units);
            if twig.is_branch(node) {
                self.branches.push(node);
            }
        }
        // Root-to-leaf paths in DFS order.
        self.stack.clear();
        self.trail.clear();
        self.stack.push((twig.root(), 0));
        while let Some((node, depth)) = self.stack.pop() {
            self.trail.truncate(depth);
            self.trail.push(node);
            let children = twig.children(node);
            if !children.is_empty() {
                self.stack.extend(children.iter().rev().map(|&child| (child, depth + 1)));
                continue;
            }
            for &node in &self.trail {
                match twig.label(node) {
                    TwigLabel::Value(value) => {
                        for (i, byte) in value.bytes().enumerate() {
                            self.tokens.push(Token::Ok(PathToken::Char(byte)));
                            self.units.push(Unit::Ch(node, i as u16));
                        }
                    }
                    TwigLabel::Element(_) | TwigLabel::Star => {
                        self.tokens.push(
                            self.node_tokens.get(node.index()).copied().unwrap_or(Token::Unknown),
                        );
                        self.units.push(Unit::El(node));
                    }
                }
            }
            self.path_ends.push(self.tokens.len());
        }
    }

    /// Number of root-to-leaf paths.
    pub fn path_count(&self) -> usize {
        self.path_ends.len()
    }

    /// The token positions of `path` in the back-to-back arrays.
    fn span(&self, path: usize) -> std::ops::Range<usize> {
        let start = match path.checked_sub(1) {
            Some(previous) => self.path_ends.get(previous).copied().unwrap_or(0),
            None => 0,
        };
        start..self.path_ends.get(path).copied().unwrap_or(start)
    }

    /// The tokens of `path`, one per unit.
    pub(crate) fn tokens(&self, path: usize) -> &[Token] {
        self.tokens.get(self.span(path)).unwrap_or(&[])
    }

    /// The query units `path` covers, root first.
    pub(crate) fn units(&self, path: usize) -> &[Unit] {
        self.units.get(self.span(path)).unwrap_or(&[])
    }

    /// Branch query nodes (two or more children), in id order.
    pub fn branches(&self) -> &[TwigNodeId] {
        &self.branches
    }

    /// The dense id of `unit`.
    pub(crate) fn unit_id(&self, unit: Unit) -> usize {
        match unit {
            Unit::El(node) => self.unit_base.get(node.index()).copied().unwrap_or(0),
            Unit::Ch(node, index) => {
                self.unit_base.get(node.index()).copied().unwrap_or(0) + usize::from(index)
            }
        }
    }

    /// The trie node spelled by tokens `start..end` of `path`, walked
    /// from the root; `None` when some token is not in the trie (or is
    /// not a resolved token at all).
    pub(crate) fn lookup<S: Summary>(
        &self,
        cst: &S,
        path: usize,
        start: usize,
        end: usize,
    ) -> Option<TrieNodeId> {
        let trie = cst.trie();
        let mut node = TrieNodeId::ROOT;
        for token in self.tokens(path).get(start..end)? {
            let Token::Ok(token) = token else { return None };
            node = trie.child(node, token.edge())?;
        }
        Some(node)
    }

    /// All units that must be covered by parsed subpaths (wildcards are
    /// exempt).
    pub fn coverable_units(&self) -> impl Iterator<Item = Unit> + '_ {
        self.tokens
            .iter()
            .zip(&self.units)
            .filter(|(token, _)| !matches!(token, Token::Wild))
            .map(|(_, &unit)| unit)
    }
}

/// A set of query units: one bit per dense unit id of its query,
/// growing to the highest id inserted.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnitSet {
    words: Vec<u64>,
}

impl UnitSet {
    pub(crate) fn clear(&mut self) {
        self.words.clear();
    }

    pub(crate) fn insert(&mut self, id: usize) {
        let (word, mask) = Self::bit(id);
        while self.words.len() <= word {
            self.words.push(0);
        }
        if let Some(word) = self.words.get_mut(word) {
            *word |= mask;
        }
    }

    pub(crate) fn contains(&self, id: usize) -> bool {
        let (word, mask) = Self::bit(id);
        self.words.get(word).is_some_and(|word| word & mask != 0)
    }

    /// The word holding `id`'s bit, and the bit's mask in it.
    fn bit(id: usize) -> (usize, u64) {
        (id / 64, 1u64.wrapping_shl((id % 64) as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstConfig, SpaceBudget};
    use twig_tree::DataTree;

    fn cst() -> Cst {
        let tree =
            DataTree::from_xml("<dblp><book><author>A1</author><year>Y1</year></book></dblp>")
                .unwrap();
        Cst::build(&tree, &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() })
            .expect("CST config is valid")
    }

    #[test]
    fn compiles_paths_with_units() {
        let cst = cst();
        let twig = Twig::parse(r#"book(author("A1"),year("Y1"))"#).unwrap();
        let compiled = CompiledQuery::compile(&cst, &twig);
        assert_eq!(compiled.path_count(), 2);
        // book, author, 'A', '1'
        assert_eq!(compiled.tokens(0).len(), 4);
        assert!(matches!(compiled.units(0)[0], Unit::El(_)));
        assert!(matches!(compiled.units(0)[2], Unit::Ch(_, 0)));
        assert!(matches!(compiled.units(0)[3], Unit::Ch(_, 1)));
        assert_eq!(compiled.branches().len(), 1);
        // Dense unit ids: one per element, one per value byte.
        let mut ids: Vec<usize> = compiled.coverable_units().map(|u| compiled.unit_id(u)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn shared_prefix_has_identical_units() {
        let cst = cst();
        let twig = Twig::parse(r#"book(author("A1"),year("Y1"))"#).unwrap();
        let compiled = CompiledQuery::compile(&cst, &twig);
        assert_eq!(compiled.units(0)[0], compiled.units(1)[0]);
        assert_ne!(compiled.units(0)[1], compiled.units(1)[1]);
    }

    #[test]
    fn unknown_labels_marked() {
        let cst = cst();
        let twig = Twig::parse("book(nosuchlabel)").unwrap();
        let compiled = CompiledQuery::compile(&cst, &twig);
        assert!(matches!(compiled.tokens(0)[1], Token::Unknown));
    }

    #[test]
    fn recompiling_reuses_the_value_and_matches_a_fresh_compile() {
        let cst = cst();
        let mut reused =
            CompiledQuery::compile(&cst, &Twig::parse(r#"book(author("A1"),year("Y1"))"#).unwrap());
        for expr in ["book", r#"book(*(year("Y1")),author)"#, r#"book(author("A1"))"#] {
            let twig = Twig::parse(expr).unwrap();
            reused.recompile(&cst, &twig);
            let fresh = CompiledQuery::compile(&cst, &twig);
            assert_eq!(reused.path_count(), fresh.path_count(), "{expr}");
            for path in 0..fresh.path_count() {
                assert_eq!(reused.tokens(path), fresh.tokens(path), "{expr}");
                assert_eq!(reused.units(path), fresh.units(path), "{expr}");
            }
            assert_eq!(reused.branches(), fresh.branches(), "{expr}");
            let ids =
                |q: &CompiledQuery| q.coverable_units().map(|u| q.unit_id(u)).collect::<Vec<_>>();
            assert_eq!(ids(&reused), ids(&fresh), "{expr}");
        }
    }

    #[test]
    fn wildcards_marked_and_exempt() {
        let cst = cst();
        let twig = Twig::parse(r#"book(*(year("Y1")))"#).unwrap();
        let compiled = CompiledQuery::compile(&cst, &twig);
        assert!(matches!(compiled.tokens(0)[1], Token::Wild));
        let coverable: Vec<Unit> = compiled.coverable_units().collect();
        assert_eq!(coverable.len(), compiled.tokens(0).len() - 1);
    }
}
