//! The twig query model.
//!
//! A twig is a small rooted node-labeled tree (Definition 1 in the paper):
//! non-leaf nodes are element labels from Σ, leaf nodes are value strings
//! from ℒ*. We add one extension node kind, [`TwigLabel::Star`], for the
//! paper's future-work wildcard queries (a `*` matches an arbitrarily long
//! downward chain of elements).
//!
//! Queries are tiny (the paper's workloads have 2–5 paths of 2–4 internal
//! nodes) and a server parses one on every plan-cache miss, so a [`Twig`]
//! is three blocks: one copy of its text, a flat node array (each label a
//! byte range of that text, each parent a link) and a child index with
//! one row per node. [`Twig::parse`] walks its input once without
//! recursion and refuses a twig that nests deeper than [`MAX_DEPTH`] or
//! has more than [`MAX_NODES`] nodes.
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
use std::ops::Range;

/// The most levels a parsed twig may nest below its root, that is, the
/// most child lists [`Twig::parse`] keeps open at once. JSON request
/// bodies may nest no deeper.
pub const MAX_DEPTH: usize = 64;

/// The most nodes a parsed twig may have: about nine times the largest
/// twig of the paper's workloads (14 nodes). An estimate's cost grows
/// about with the square of the twig's size, so this bounds what one
/// query can cost.
pub const MAX_NODES: usize = 128;

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

/// Label of a twig query node, borrowed from its twig.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwigLabel<'a> {
    /// Matches a data element with this tag.
    Element(&'a str),
    /// Matches a data text leaf whose value has this string as a prefix
    /// (see DESIGN.md §3 for why prefix is the CST-consistent semantics).
    Value(&'a str),
    /// Extension: matches a downward chain of one or more elements with
    /// arbitrary labels.
    Star,
}

impl TwigLabel<'_> {
    /// True for [`TwigLabel::Value`].
    pub fn is_value(&self) -> bool {
        matches!(self, TwigLabel::Value(_))
    }
}

/// What a node's byte range spells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Element,
    Value,
    Star,
}

/// The root's parent link.
const NO_PARENT: u32 = u32::MAX;

/// One twig node.
#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    /// The label's byte range in the twig's text (empty for a `*`).
    start: u32,
    end: u32,
    /// The parent's id, or [`NO_PARENT`] for the root.
    parent: u32,
    /// This node's row of the child index: where it starts and how many
    /// children it holds. Rows lie in id order, each after the last.
    first_child: u32,
    child_count: u32,
}

impl Node {
    const EMPTY: Node = Node {
        kind: Kind::Star,
        start: 0,
        end: 0,
        parent: NO_PARENT,
        first_child: 0,
        child_count: 0,
    };
}

/// A twig query: one copy of its labels' text, its nodes in id order,
/// and a child index whose row per node lists its children in insertion
/// order (which is increasing id order). Equality is structural: the
/// same labels under the same parents, however the text is laid out.
#[derive(Clone)]
pub struct Twig {
    text: String,
    nodes: Vec<Node>,
    children: Vec<TwigNodeId>,
}

/// A builder position or length as a `u32`.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("twig too large")
}

impl Twig {
    /// Creates a twig with only a root node.
    pub fn with_root(label: TwigLabel<'_>) -> Self {
        let mut twig = Twig { text: String::new(), nodes: Vec::new(), children: Vec::new() };
        twig.push_node(label, NO_PARENT);
        twig
    }

    /// Convenience: a root element node.
    pub fn with_root_element(label: impl AsRef<str>) -> Self {
        Self::with_root(TwigLabel::Element(label.as_ref()))
    }

    /// Appends a childless node under `parent` (its empty row is last)
    /// and copies its label into the text.
    fn push_node(&mut self, label: TwigLabel<'_>, parent: u32) -> TwigNodeId {
        let id = TwigNodeId(to_u32(self.nodes.len()));
        let (kind, text) = match label {
            TwigLabel::Element(name) => (Kind::Element, name),
            TwigLabel::Value(value) => (Kind::Value, value),
            TwigLabel::Star => (Kind::Star, ""),
        };
        let start = to_u32(self.text.len());
        self.text.push_str(text);
        let end = to_u32(self.text.len());
        let first_child = to_u32(self.children.len());
        self.nodes.push(Node { kind, start, end, parent, first_child, child_count: 0 });
        id
    }

    /// Appends a child under `parent`, returning the new node's id.
    pub fn add_child(&mut self, parent: TwigNodeId, label: TwigLabel<'_>) -> TwigNodeId {
        let row_end = self.row(parent).end;
        let id = self.push_node(label, parent.0);
        // The child ends its parent's row, so every later row, the new
        // node's included, starts one slot further on.
        self.children.insert(row_end, id);
        self.nodes[parent.index()].child_count += 1;
        for node in &mut self.nodes[parent.index() + 1..] {
            node.first_child += 1;
        }
        id
    }

    /// Convenience: appends an element child.
    pub fn add_element(&mut self, parent: TwigNodeId, label: impl AsRef<str>) -> TwigNodeId {
        self.add_child(parent, TwigLabel::Element(label.as_ref()))
    }

    /// Convenience: appends a value leaf.
    pub fn add_value(&mut self, parent: TwigNodeId, value: impl AsRef<str>) -> TwigNodeId {
        self.add_child(parent, TwigLabel::Value(value.as_ref()))
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
        self.nodes.len()
    }

    /// Every node id, in id order.
    fn ids(&self) -> impl Iterator<Item = TwigNodeId> {
        (0..self.nodes.len() as u32).map(TwigNodeId)
    }

    /// Label of `node`, borrowed from the twig's text.
    #[inline]
    pub fn label(&self, node: TwigNodeId) -> TwigLabel<'_> {
        let node = &self.nodes[node.index()];
        let text = self.text.get(node.start as usize..node.end as usize).unwrap_or_default();
        match node.kind {
            Kind::Element => TwigLabel::Element(text),
            Kind::Value => TwigLabel::Value(text),
            Kind::Star => TwigLabel::Star,
        }
    }

    /// The slots of `node`'s row in the child index.
    #[inline]
    fn row(&self, node: TwigNodeId) -> Range<usize> {
        let node = &self.nodes[node.index()];
        node.first_child as usize..(node.first_child + node.child_count) as usize
    }

    /// Children of `node` in insertion order.
    #[inline]
    pub fn children(&self, node: TwigNodeId) -> &[TwigNodeId] {
        &self.children[self.row(node)]
    }

    /// Parent of `node`, or `None` for the root.
    #[inline]
    pub fn parent(&self, node: TwigNodeId) -> Option<TwigNodeId> {
        let parent = self.nodes[node.index()].parent;
        (parent != NO_PARENT).then_some(TwigNodeId(parent))
    }

    /// True when `node` has two or more children (a *branch node* in the
    /// paper's twiglet decomposition).
    pub fn is_branch(&self, node: TwigNodeId) -> bool {
        self.row(node).len() >= 2
    }

    /// All branch nodes in pre-order.
    pub fn branch_nodes(&self) -> Vec<TwigNodeId> {
        self.ids().filter(|&n| self.is_branch(n)).collect()
    }

    /// True when `node` is a leaf of the query.
    pub fn is_leaf(&self, node: TwigNodeId) -> bool {
        self.row(node).is_empty()
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
        self.ids().all(|n| self.row(n).len() <= 1)
    }

    /// True when any node is a [`TwigLabel::Star`] wildcard.
    pub fn has_wildcard(&self) -> bool {
        self.nodes.iter().any(|node| node.kind == Kind::Star)
    }

    /// Checks that every value node is a leaf. [`Twig::parse`] refuses a
    /// text that breaks this; the builder does not check it.
    pub fn validate(&self) -> Result<(), String> {
        match self.ids().find(|&node| self.label(node).is_value() && !self.is_leaf(node)) {
            Some(node) => Err(format!("value node {} has children", node.0)),
            None => Ok(()),
        }
    }

    /// Parses the expression syntax described in the module docs in one
    /// walk, keeping the open child lists as parent links rather than on
    /// the call stack. A text that nests deeper than [`MAX_DEPTH`] levels
    /// or spells more than [`MAX_NODES`] nodes is an error naming the
    /// limit. The twig allocates three blocks: the text, the nodes and
    /// the child index (none for a lone root).
    pub fn parse(input: &str) -> Result<Self, String> {
        if u32::try_from(input.len()).is_err() {
            return Err(format!("twig text of {} bytes is too long", input.len()));
        }
        let mut nodes = [Node::EMPTY; MAX_NODES];
        let mut count = 0;
        let mut parser = Parser { input: input.as_bytes(), pos: 0 };
        // The node whose child list is open, how many lists are open, and
        // the first value node given children (an error only once the
        // rest of the text has parsed, so syntax errors come first).
        let mut open = NO_PARENT;
        let mut depth = 0;
        let mut value_with_children = None;
        'nodes: loop {
            parser.skip_ws();
            let at = parser.pos;
            let (kind, start, end) = parser.label()?;
            let Some(slot) = nodes.get_mut(count) else {
                return Err(format!("twig has more than {MAX_NODES} nodes (byte {at})"));
            };
            *slot = Node { kind, start, end, parent: open, first_child: 0, child_count: 0 };
            let id = count;
            count += 1;
            parser.skip_ws();
            if parser.peek() == Some(b'(') {
                depth += 1;
                if depth > MAX_DEPTH {
                    return Err(format!(
                        "twig nests deeper than {MAX_DEPTH} levels (byte {})",
                        parser.pos
                    ));
                }
                parser.pos += 1;
                if kind == Kind::Value {
                    value_with_children.get_or_insert(id);
                }
                open = id as u32;
                continue;
            }
            // A leaf: close lists until a `,` opens the next sibling.
            while open != NO_PARENT {
                parser.skip_ws();
                match parser.peek() {
                    Some(b',') => {
                        parser.pos += 1;
                        continue 'nodes;
                    }
                    Some(b')') => {
                        parser.pos += 1;
                        depth -= 1;
                        open = nodes[open as usize].parent;
                    }
                    other => return Err(format!("expected ',' or ')', found {other:?}")),
                }
            }
            break;
        }
        parser.skip_ws();
        if parser.pos != input.len() {
            return Err(format!("trailing input at byte {}", parser.pos));
        }
        if let Some(id) = value_with_children {
            return Err(format!("value node {id} has children"));
        }
        let nodes = &mut nodes[..count];
        let children = index_children(nodes);
        Ok(Twig { text: input.to_owned(), nodes: nodes.to_vec(), children })
    }
}

/// The child index of parsed `nodes`, built in one counting pass: each
/// node counts its children, the counts' running sums become row ends in
/// `first_child`, and each row fills from its end down, which leaves its
/// ids in increasing order and its `first_child` at its start.
fn index_children(nodes: &mut [Node]) -> Vec<TwigNodeId> {
    for id in 1..nodes.len() {
        let parent = nodes[id].parent as usize;
        nodes[parent].child_count += 1;
    }
    let mut end = 0;
    for node in nodes.iter_mut() {
        end += node.child_count;
        node.first_child = end;
    }
    let mut children = vec![TwigNodeId(0); nodes.len().saturating_sub(1)];
    for id in (1..nodes.len()).rev() {
        let parent = nodes[id].parent as usize;
        nodes[parent].first_child -= 1;
        children[nodes[parent].first_child as usize] = TwigNodeId(id as u32);
    }
    children
}

impl PartialEq for Twig {
    fn eq(&self, other: &Self) -> bool {
        self.node_count() == other.node_count()
            && self.children == other.children
            && self.ids().all(|node| {
                self.label(node) == other.label(node) && self.parent(node) == other.parent(node)
            })
    }
}

impl Eq for Twig {}

impl fmt::Display for Twig {
    /// The expression syntax, written by a pre-order walk over parent
    /// links: a node's label, then its first child, or else its next
    /// sibling after closing every list it ends.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut node = self.root();
        loop {
            match self.label(node) {
                TwigLabel::Element(name) => f.write_str(name)?,
                TwigLabel::Value(value) => write!(f, "{value:?}")?,
                TwigLabel::Star => f.write_str("*")?,
            }
            if let Some(&first) = self.children(node).first() {
                f.write_str("(")?;
                node = first;
                continue;
            }
            loop {
                let Some(parent) = self.parent(node) else {
                    return Ok(());
                };
                let siblings = self.children(parent);
                let at = siblings.iter().position(|&sibling| sibling == node);
                if let Some(&next) = at.and_then(|at| siblings.get(at + 1)) {
                    f.write_str(",")?;
                    node = next;
                    break;
                }
                f.write_str(")")?;
                node = parent;
            }
        }
    }
}

impl fmt::Debug for Twig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Twig").field(&format_args!("{self}")).finish()
    }
}

/// A cursor over the expression text.
struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// Reads one label at the cursor: its kind and byte range. Quotes,
    /// `*` and label bytes are ASCII, so every range falls on `char`
    /// boundaries.
    fn label(&mut self) -> Result<(Kind, u32, u32), String> {
        let start = self.pos;
        let rest = self.input.get(start..).unwrap_or_default();
        let (kind, from, to, next) = match rest.first() {
            Some(b'"') => {
                let Some(len) = rest[1..].iter().position(|&b| b == b'"') else {
                    return Err("unterminated string".to_owned());
                };
                (Kind::Value, start + 1, start + 1 + len, start + len + 2)
            }
            Some(b'*') => (Kind::Star, start, start, start + 1),
            Some(&b) if b.is_ascii_alphanumeric() || b == b'_' => {
                let len = rest
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.')))
                    .unwrap_or(rest.len());
                (Kind::Element, start, start + len, start + len)
            }
            other => {
                return Err(format!("expected label at byte {start}, found {:?}", other.copied()))
            }
        };
        self.pos = next;
        // `parse` bounds the input's length by `u32::MAX`.
        Ok((kind, from as u32, to as u32))
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

    /// Every builder entry point gives the twig its text parses to, and
    /// a child added under an earlier node after deeper ones lands at
    /// the end of that node's row.
    #[test]
    fn built_twigs_equal_parsed_ones() {
        let text = r#"book(author("Su",*),year("1993"),title)"#;
        let mut built = Twig::with_root(TwigLabel::Element("book"));
        let author = built.add_element(built.root(), String::from("author"));
        let year = built.add_element(built.root(), "year");
        built.add_value(author, "Su");
        built.add_value(year, String::from("1993"));
        built.add_child(author, TwigLabel::Star);
        built.add_child(built.root(), TwigLabel::Element("title"));
        let parsed = Twig::parse(text).unwrap();
        assert_eq!(built.to_string(), text);
        // Ids follow insertion order, not the parse's pre-order, and
        // equality compares labels and parents id by id.
        assert_ne!(built, parsed);
        assert_eq!(Twig::parse(&built.to_string()).unwrap(), parsed);
        assert_eq!(built.children(built.root()), &[TwigNodeId(1), TwigNodeId(2), TwigNodeId(6)]);
        assert_eq!(built.children(author), &[TwigNodeId(3), TwigNodeId(5)]);
        assert_eq!(built.parent(TwigNodeId(5)), Some(author));
        assert_eq!(built.label(TwigNodeId(4)), TwigLabel::Value("1993"));

        let mut rebuilt = Twig::with_root_element("book");
        let author = rebuilt.add_element(rebuilt.root(), "author");
        rebuilt.add_value(author, "Su");
        rebuilt.add_child(author, TwigLabel::Star);
        let year = rebuilt.add_element(rebuilt.root(), "year");
        rebuilt.add_value(year, "1993");
        rebuilt.add_element(rebuilt.root(), "title");
        assert_eq!(rebuilt, parsed, "pre-order insertion reproduces the parse exactly");

        assert_eq!(Twig::path(&["a", "b"], Some("v")), Twig::parse(r#"a(b("v"))"#).unwrap());
        assert_eq!(Twig::path(&["a"], None), Twig::parse(" a ").unwrap());
        assert_ne!(Twig::parse("a(b,c)").unwrap(), Twig::parse("a(c,b)").unwrap());
        assert_ne!(Twig::parse("a(b(c))").unwrap(), Twig::parse("a(b,c)").unwrap());
        assert_ne!(Twig::parse(r#"a("b")"#).unwrap(), Twig::parse("a(b)").unwrap());
    }

    #[test]
    fn limits_are_inclusive_and_named() {
        let nested = |levels: usize| "a(".repeat(levels) + "b" + &")".repeat(levels);
        assert_eq!(Twig::parse(&nested(MAX_DEPTH)).unwrap().node_count(), MAX_DEPTH + 1);
        let err = Twig::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("twig nests deeper than 64 levels (byte {})", 2 * MAX_DEPTH + 1));

        let wide = |children: usize| format!("a({})", vec!["b"; children].join(","));
        assert_eq!(Twig::parse(&wide(MAX_NODES - 1)).unwrap().node_count(), MAX_NODES);
        let err = Twig::parse(&wide(MAX_NODES)).unwrap_err();
        assert_eq!(err, format!("twig has more than 128 nodes (byte {})", 2 * MAX_NODES));
    }

    /// A parse keeps its open lists in the twig, not on the call stack:
    /// 100,000 levels are an error on a 64 KiB thread, not an abort.
    #[test]
    fn deep_nesting_fails_on_a_small_stack() {
        let text = "a(".repeat(100_000) + "b" + &")".repeat(100_000);
        let parse = std::thread::Builder::new()
            .stack_size(64 << 10)
            .spawn(move || Twig::parse(&text).map(|twig| twig.node_count()))
            .unwrap();
        let err = parse.join().unwrap().unwrap_err();
        assert!(err.contains("deeper than 64 levels"), "{err}");
    }

    /// The three blocks hold exactly what they must: the text once, one
    /// node per label and one index slot per non-root node.
    #[test]
    fn parse_sizes_each_block_exactly() {
        let text = r#" a(b("x"), c(*, d)) "#;
        let twig = Twig::parse(text).unwrap();
        assert_eq!(twig.text, text);
        assert_eq!(twig.nodes.capacity(), 6);
        assert_eq!(twig.children.capacity(), 5);
        let root = Twig::parse("a").unwrap();
        assert_eq!(root.children.capacity(), 0);
        assert!(root.children(root.root()).is_empty());
    }
}
