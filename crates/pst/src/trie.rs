//! The mutable suffix trie: node arena, edges and counts.

use twig_util::{FxHashMap, Symbol};

/// Index of a node in a [`SuffixTrie`] (or a `PrunedTrie`). The root —
/// the empty subpath — is always id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrieNodeId(pub u32);

impl TrieNodeId {
    /// The root node (empty subpath).
    pub const ROOT: TrieNodeId = TrieNodeId(0);

    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A trie edge label packed into 32 bits: element symbols and value
/// characters share one key space (`symbol << 1` vs `char << 1 | 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeKey(u32);

impl EdgeKey {
    /// Edge for an element label.
    #[inline]
    pub fn element(sym: Symbol) -> Self {
        debug_assert!(sym.0 < (1 << 30), "symbol space exhausted");
        EdgeKey(sym.0 << 1)
    }

    /// Edge for one byte of a leaf value.
    #[inline]
    pub fn ch(byte: u8) -> Self {
        EdgeKey((u32::from(byte) << 1) | 1)
    }

    /// True when this edge carries an element label.
    #[inline]
    pub fn is_element(self) -> bool {
        self.0 & 1 == 0
    }

    /// The element symbol, if this is an element edge.
    pub fn as_element(self) -> Option<Symbol> {
        self.is_element().then_some(Symbol(self.0 >> 1))
    }

    /// The value byte, if this is a character edge.
    pub fn as_char(self) -> Option<u8> {
        (!self.is_element()).then_some((self.0 >> 1) as u8)
    }

    /// Raw packed value (for the global child map and the on-disk flat
    /// format — the packing `sym << 1 | is_char` is a stable, persisted
    /// encoding, not an implementation detail).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an `EdgeKey` from a value produced by [`EdgeKey::raw`].
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        EdgeKey(raw)
    }

    /// Decodes the raw value into the token it transports.
    #[inline]
    pub fn token(self) -> PathToken {
        match self.as_element() {
            Some(sym) => PathToken::Element(sym),
            None => PathToken::Char((self.0 >> 1) as u8),
        }
    }
}

/// One token of a parsed query path, mirroring the two edge kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathToken {
    /// An element label.
    Element(Symbol),
    /// One byte of a leaf value.
    Char(u8),
}

impl PathToken {
    /// The trie edge this token follows.
    #[inline]
    pub fn edge(self) -> EdgeKey {
        match self {
            PathToken::Element(sym) => EdgeKey::element(sym),
            PathToken::Char(byte) => EdgeKey::ch(byte),
        }
    }
}

/// Per-node payload of the full (unpruned) trie.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeData {
    pub parent: u32,
    pub edge: u32,
    /// pc(α): # root-to-leaf paths containing α.
    pub path_count: u32,
    /// Cp(α): # distinct rooting nodes / start positions.
    pub presence: u32,
    /// Co(α): # distinct instances.
    pub occurrence: u32,
    /// Dedup stamps (only live during construction): the last path (or,
    /// on a fragment node, the last distinct leaf value), start element
    /// and end node that counted here.
    pub last_path: u32,
    pub last_start: u32,
    pub last_end: u32,
    /// True when the first edge on the subpath is an element label.
    pub label_rooted: bool,
}

/// The full path suffix trie with exact counts, before pruning.
///
/// Children are kept in one global `(node, edge) → child` hash map rather
/// than per-node maps: the full trie can reach millions of nodes and
/// per-node allocations dominate otherwise.
#[derive(Debug)]
pub struct SuffixTrie {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) children: FxHashMap<(u32, u32), u32>,
    pub(crate) total_paths: u32,
}

impl SuffixTrie {
    pub(crate) fn new() -> Self {
        let nodes = vec![NodeData { parent: u32::MAX, edge: u32::MAX, ..NodeData::default() }];
        Self { nodes, children: FxHashMap::default(), total_paths: 0 }
    }

    /// Total number of trie nodes, including the root.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of root-to-leaf paths the trie was built from.
    pub fn total_paths(&self) -> u32 {
        self.total_paths
    }

    /// Child of `node` along `edge`, if present.
    #[inline]
    pub fn child(&self, node: TrieNodeId, edge: EdgeKey) -> Option<TrieNodeId> {
        self.children.get(&(node.0, edge.raw())).map(|&c| TrieNodeId(c))
    }

    pub(crate) fn child_or_insert(&mut self, node: TrieNodeId, edge: EdgeKey) -> TrieNodeId {
        if let Some(&c) = self.children.get(&(node.0, edge.raw())) {
            return TrieNodeId(c);
        }
        let id = u32::try_from(self.nodes.len()).expect("trie too large");
        let label_rooted = if node == TrieNodeId::ROOT {
            edge.is_element()
        } else {
            self.nodes[node.index()].label_rooted
        };
        self.nodes.push(NodeData {
            parent: node.0,
            edge: edge.raw(),
            last_path: u32::MAX,
            last_start: u32::MAX,
            last_end: u32::MAX,
            label_rooted,
            ..NodeData::default()
        });
        self.children.insert((node.0, edge.raw()), id);
        TrieNodeId(id)
    }

    /// `pc(α)` for the subpath at `node`.
    pub fn path_count(&self, node: TrieNodeId) -> u32 {
        self.nodes[node.index()].path_count
    }

    /// `Cp(α)` for the subpath at `node`.
    pub fn presence(&self, node: TrieNodeId) -> u32 {
        self.nodes[node.index()].presence
    }

    /// `Co(α)` for the subpath at `node`.
    pub fn occurrence(&self, node: TrieNodeId) -> u32 {
        self.nodes[node.index()].occurrence
    }

    /// True when the subpath at `node` begins with an element label (the
    /// nodes that carry set-hash signatures in the CST).
    pub fn label_rooted(&self, node: TrieNodeId) -> bool {
        self.nodes[node.index()].label_rooted
    }

    /// Parent of `node`, or `None` for the root.
    #[inline]
    pub fn parent(&self, node: TrieNodeId) -> Option<TrieNodeId> {
        let p = self.nodes[node.index()].parent;
        (p != u32::MAX).then_some(TrieNodeId(p))
    }

    /// The edge from `node`'s parent to `node`, or `None` for the root.
    pub fn edge(&self, node: TrieNodeId) -> Option<EdgeKey> {
        (node != TrieNodeId::ROOT).then(|| EdgeKey(self.nodes[node.index()].edge))
    }

    /// Walks token sequence `tokens` from the root, returning the deepest
    /// node reached and how many tokens were consumed.
    pub fn walk(&self, tokens: &[PathToken]) -> (TrieNodeId, usize) {
        let mut node = TrieNodeId::ROOT;
        for (i, token) in tokens.iter().enumerate() {
            match self.child(node, token.edge()) {
                Some(next) => node = next,
                None => return (node, i),
            }
        }
        (node, tokens.len())
    }

    /// Finds the node for exactly `tokens`, if the full sequence exists.
    pub fn find(&self, tokens: &[PathToken]) -> Option<TrieNodeId> {
        let (node, consumed) = self.walk(tokens);
        (consumed == tokens.len()).then_some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_key_roundtrip() {
        let sym = Symbol(1234);
        let e = EdgeKey::element(sym);
        assert!(e.is_element());
        assert_eq!(e.as_element(), Some(sym));
        assert_eq!(e.as_char(), None);

        let c = EdgeKey::ch(b'x');
        assert!(!c.is_element());
        assert_eq!(c.as_char(), Some(b'x'));
        assert_eq!(c.as_element(), None);
    }

    #[test]
    fn element_and_char_keys_disjoint() {
        // symbol 0 and byte 0 must not collide
        assert_ne!(EdgeKey::element(Symbol(0)), EdgeKey::ch(0));
        assert_ne!(EdgeKey::element(Symbol(b'a' as u32)), EdgeKey::ch(b'a'));
    }

    #[test]
    fn child_or_insert_is_idempotent() {
        let mut trie = SuffixTrie::new();
        let a = trie.child_or_insert(TrieNodeId::ROOT, EdgeKey::element(Symbol(0)));
        let a2 = trie.child_or_insert(TrieNodeId::ROOT, EdgeKey::element(Symbol(0)));
        assert_eq!(a, a2);
        assert_eq!(trie.node_count(), 2);
    }

    #[test]
    fn label_rooted_propagates() {
        let mut trie = SuffixTrie::new();
        let a = trie.child_or_insert(TrieNodeId::ROOT, EdgeKey::element(Symbol(0)));
        let a_s = trie.child_or_insert(a, EdgeKey::ch(b'S'));
        assert!(trie.label_rooted(a));
        assert!(trie.label_rooted(a_s), "value extension of a label path is label-rooted");
        let s = trie.child_or_insert(TrieNodeId::ROOT, EdgeKey::ch(b'S'));
        assert!(!trie.label_rooted(s), "pure string fragment is not label-rooted");
    }

    #[test]
    fn walk_stops_at_mismatch() {
        let mut trie = SuffixTrie::new();
        let a = trie.child_or_insert(TrieNodeId::ROOT, EdgeKey::element(Symbol(0)));
        let _b = trie.child_or_insert(a, EdgeKey::element(Symbol(1)));
        let tokens = [
            PathToken::Element(Symbol(0)),
            PathToken::Element(Symbol(1)),
            PathToken::Element(Symbol(2)),
        ];
        let (node, consumed) = trie.walk(&tokens);
        assert_eq!(consumed, 2);
        assert_eq!(trie.parent(node), Some(a));
        assert!(trie.find(&tokens).is_none());
        assert!(trie.find(&tokens[..2]).is_some());
    }
}
