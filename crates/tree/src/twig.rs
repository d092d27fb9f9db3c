//! The twig query model.
//!
//! A twig is a small rooted node-labeled tree (Definition 1 in the paper):
//! non-leaf nodes are element labels from Σ, leaf nodes are value strings
//! from ℒ*. We add one extension node kind, [`TwigLabel::Star`], for the
//! paper's future-work wildcard queries (a `*` matches an arbitrarily long
//! downward chain of elements).
//!
//! Queries are tiny (the paper's workloads have 2–5 paths of 2–4 internal
//! nodes) so this representation favors clarity over compactness.
//!
//! A compact expression syntax is provided for tests and examples:
//!
//! ```text
//! book(author("Su"), year("1993"))
//! ```
//!
//! Identifiers are element nodes, quoted strings are value leaves, `*` is a
//! wildcard, and parentheses enclose comma-separated children.

use std::fmt;

/// Index of a node in a [`Twig`]. The root is always id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TwigNodeId(pub u32);

impl TwigNodeId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Label of a twig query node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TwigLabel {
    /// Matches a data element with this tag.
    Element(String),
    /// Matches a data text leaf whose value has this string as a prefix
    /// (see DESIGN.md §3 for why prefix is the CST-consistent semantics).
    Value(String),
    /// Extension: matches a downward chain of one or more elements with
    /// arbitrary labels.
    Star,
}

impl TwigLabel {
    /// True for [`TwigLabel::Value`].
    pub fn is_value(&self) -> bool {
        matches!(self, TwigLabel::Value(_))
    }
}

/// A twig query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Twig {
    labels: Vec<TwigLabel>,
    parent: Vec<Option<TwigNodeId>>,
    children: Vec<Vec<TwigNodeId>>,
}

impl Twig {
    /// Creates a twig with only a root node.
    pub fn with_root(label: TwigLabel) -> Self {
        Self::with_root_and_capacity(label, 1)
    }

    /// A twig with only a root node whose node vectors hold `nodes`
    /// nodes before they grow.
    fn with_root_and_capacity(label: TwigLabel, nodes: usize) -> Self {
        let mut twig = Self {
            labels: Vec::with_capacity(nodes),
            parent: Vec::with_capacity(nodes),
            children: Vec::with_capacity(nodes),
        };
        twig.labels.push(label);
        twig.parent.push(None);
        twig.children.push(Vec::new());
        twig
    }

    /// Convenience: a root element node.
    pub fn with_root_element(label: impl Into<String>) -> Self {
        Self::with_root(TwigLabel::Element(label.into()))
    }

    /// Appends a child under `parent`, returning the new node's id.
    pub fn add_child(&mut self, parent: TwigNodeId, label: TwigLabel) -> TwigNodeId {
        let id = TwigNodeId(u32::try_from(self.labels.len()).expect("twig too large"));
        self.labels.push(label);
        self.parent.push(Some(parent));
        self.children.push(Vec::new());
        self.children[parent.index()].push(id);
        id
    }

    /// Convenience: appends an element child.
    pub fn add_element(&mut self, parent: TwigNodeId, label: impl Into<String>) -> TwigNodeId {
        self.add_child(parent, TwigLabel::Element(label.into()))
    }

    /// Convenience: appends a value leaf.
    pub fn add_value(&mut self, parent: TwigNodeId, value: impl Into<String>) -> TwigNodeId {
        self.add_child(parent, TwigLabel::Value(value.into()))
    }

    /// Builds a single-path twig from element labels and an optional value
    /// leaf — the shape of the paper's "trivial" queries.
    pub fn path(labels: &[&str], value: Option<&str>) -> Self {
        assert!(!labels.is_empty(), "path twig needs at least one label");
        let mut twig = Twig::with_root_element(labels[0]);
        let mut cursor = twig.root();
        for label in &labels[1..] {
            cursor = twig.add_element(cursor, *label);
        }
        if let Some(value) = value {
            twig.add_value(cursor, value);
        }
        twig
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> TwigNodeId {
        TwigNodeId(0)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Label of `node`.
    #[inline]
    pub fn label(&self, node: TwigNodeId) -> &TwigLabel {
        &self.labels[node.index()]
    }

    /// Children of `node` in insertion order.
    #[inline]
    pub fn children(&self, node: TwigNodeId) -> &[TwigNodeId] {
        &self.children[node.index()]
    }

    /// Parent of `node`, or `None` for the root.
    #[inline]
    pub fn parent(&self, node: TwigNodeId) -> Option<TwigNodeId> {
        self.parent[node.index()]
    }

    /// True when `node` has two or more children (a *branch node* in the
    /// paper's twiglet decomposition).
    pub fn is_branch(&self, node: TwigNodeId) -> bool {
        self.children(node).len() >= 2
    }

    /// All branch nodes in pre-order.
    pub fn branch_nodes(&self) -> Vec<TwigNodeId> {
        (0..self.labels.len() as u32).map(TwigNodeId).filter(|&n| self.is_branch(n)).collect()
    }

    /// True when `node` is a leaf of the query.
    pub fn is_leaf(&self, node: TwigNodeId) -> bool {
        self.children(node).is_empty()
    }

    /// Enumerates all root-to-leaf paths as node-id sequences, in DFS order.
    pub fn root_to_leaf_paths(&self) -> Vec<Vec<TwigNodeId>> {
        let mut out = Vec::new();
        let mut path = Vec::new();
        self.collect_paths(self.root(), &mut path, &mut out);
        out
    }

    fn collect_paths(
        &self,
        node: TwigNodeId,
        path: &mut Vec<TwigNodeId>,
        out: &mut Vec<Vec<TwigNodeId>>,
    ) {
        path.push(node);
        if self.is_leaf(node) {
            out.push(path.clone());
        } else {
            for &child in self.children(node) {
                self.collect_paths(child, path, out);
            }
        }
        path.pop();
    }

    /// True when the twig is a single path (no branch nodes) — a "trivial"
    /// query in the paper's terminology.
    pub fn is_single_path(&self) -> bool {
        (0..self.labels.len() as u32).all(|n| self.children(TwigNodeId(n)).len() <= 1)
    }

    /// True when any node is a [`TwigLabel::Star`] wildcard.
    pub fn has_wildcard(&self) -> bool {
        self.labels.iter().any(|l| matches!(l, TwigLabel::Star))
    }

    /// Validates structural invariants: value leaves must actually be
    /// leaves, and every non-root node must have a parent chain reaching
    /// the root.
    pub fn validate(&self) -> Result<(), String> {
        for idx in 0..self.labels.len() {
            let node = TwigNodeId(idx as u32);
            if self.label(node).is_value() && !self.is_leaf(node) {
                return Err(format!("value node {idx} has children"));
            }
        }
        Ok(())
    }

    /// Parses the expression syntax described in the module docs.
    pub fn parse(input: &str) -> Result<Self, String> {
        // Every node but the root follows a `(` or a `,`, so this bounds
        // the node count without exceeding the input's length.
        let nodes = input.bytes().filter(|&b| b == b'(' || b == b',').count().saturating_add(1);
        let mut parser = ExprParser { input: input.as_bytes(), pos: 0, nodes };
        let twig = parser.parse_root()?;
        parser.skip_ws();
        if parser.pos != parser.input.len() {
            return Err(format!("trailing input at byte {}", parser.pos));
        }
        twig.validate()?;
        Ok(twig)
    }
}

impl fmt::Display for Twig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_node(twig: &Twig, node: TwigNodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match twig.label(node) {
                TwigLabel::Element(name) => write!(f, "{name}")?,
                TwigLabel::Value(value) => write!(f, "{value:?}")?,
                TwigLabel::Star => write!(f, "*")?,
            }
            let kids = twig.children(node);
            if !kids.is_empty() {
                write!(f, "(")?;
                for (i, &child) in kids.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_node(twig, child, f)?;
                }
                write!(f, ")")?;
            }
            Ok(())
        }
        write_node(self, self.root(), f)
    }
}

struct ExprParser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Upper bound on the twig's node count, to size its vectors once.
    nodes: usize,
}

impl ExprParser<'_> {
    fn parse_root(&mut self) -> Result<Twig, String> {
        self.skip_ws();
        let label = self.parse_label()?;
        let mut twig = Twig::with_root_and_capacity(label, self.nodes);
        let root = twig.root();
        self.parse_children(&mut twig, root)?;
        Ok(twig)
    }

    fn parse_node(&mut self, twig: &mut Twig, parent: TwigNodeId) -> Result<(), String> {
        self.skip_ws();
        let label = self.parse_label()?;
        let id = twig.add_child(parent, label);
        self.parse_children(twig, id)
    }

    fn parse_children(&mut self, twig: &mut Twig, node: TwigNodeId) -> Result<(), String> {
        self.skip_ws();
        if self.peek() != Some(b'(') {
            return Ok(());
        }
        self.pos += 1;
        loop {
            self.parse_node(twig, node)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b')') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or ')', found {other:?}")),
            }
        }
    }

    fn parse_label(&mut self) -> Result<TwigLabel, String> {
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                let start = self.pos;
                while self.peek().is_some_and(|b| b != b'"') {
                    self.pos += 1;
                }
                if self.peek() != Some(b'"') {
                    return Err("unterminated string".to_owned());
                }
                let value = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| "non-UTF8 value".to_owned())?;
                self.pos += 1;
                Ok(TwigLabel::Value(value.to_owned()))
            }
            Some(b'*') => {
                self.pos += 1;
                Ok(TwigLabel::Star)
            }
            Some(b) if b.is_ascii_alphanumeric() || b == b'_' => {
                let start = self.pos;
                while self.peek().is_some_and(|b| {
                    b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.'
                }) {
                    self.pos += 1;
                }
                let name = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| "non-UTF8 label".to_owned())?;
                Ok(TwigLabel::Element(name.to_owned()))
            }
            other => Err(format!("expected label at byte {}, found {other:?}", self.pos)),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut twig = Twig::with_root_element("book");
        let author = twig.add_element(twig.root(), "author");
        twig.add_value(author, "Su");
        let year = twig.add_element(twig.root(), "year");
        twig.add_value(year, "1993");
        assert_eq!(twig.node_count(), 5);
        assert!(twig.is_branch(twig.root()));
        assert!(!twig.is_branch(author));
        assert_eq!(twig.branch_nodes(), vec![twig.root()]);
        assert!(!twig.is_single_path());
    }

    #[test]
    fn parse_roundtrip() {
        let text = r#"book(author("Su"),year("1993"))"#;
        let twig = Twig::parse(text).unwrap();
        assert_eq!(twig.to_string(), text);
        assert_eq!(twig.node_count(), 5);
    }

    #[test]
    fn parse_whitespace_tolerant() {
        let twig = Twig::parse(" a ( b ( \"x\" ) , c ) ").unwrap();
        assert_eq!(twig.to_string(), r#"a(b("x"),c)"#);
    }

    #[test]
    fn parse_wildcard() {
        let twig = Twig::parse(r#"a(*(b("x")))"#).unwrap();
        assert!(twig.has_wildcard());
    }

    #[test]
    fn parse_errors() {
        assert!(Twig::parse("").is_err());
        assert!(Twig::parse("a(").is_err());
        assert!(Twig::parse("a(b))").is_err());
        assert!(Twig::parse(r#"a("unterminated)"#).is_err());
        assert!(Twig::parse(r#""v"(b)"#).is_err(), "value node with children");
    }

    #[test]
    fn root_to_leaf_paths_enumerated() {
        let twig = Twig::parse(r#"a(b(d("e")),c)"#).unwrap();
        let paths = twig.root_to_leaf_paths();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 4); // a b d "e"
        assert_eq!(paths[1].len(), 2); // a c
    }

    #[test]
    fn path_constructor() {
        let twig = Twig::path(&["book", "author"], Some("Su"));
        assert!(twig.is_single_path());
        assert_eq!(twig.to_string(), r#"book(author("Su"))"#);
        let no_value = Twig::path(&["book", "author"], None);
        assert_eq!(no_value.node_count(), 2);
    }

    #[test]
    fn figure1_query2_shape() {
        // QUERY 2 from the paper: book(author(A1), author(A2)?, year(Y1))
        let twig = Twig::parse(r#"book(author("A1"),author("A2"),year("Y1"))"#).unwrap();
        assert_eq!(twig.root_to_leaf_paths().len(), 3);
        assert!(twig.is_branch(twig.root()));
    }
}
