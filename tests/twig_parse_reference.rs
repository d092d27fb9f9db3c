//! `Twig::parse` against the recursive-descent parser it replaced, kept
//! here as the reference. On seeded inputs (the workload generators'
//! twigs, random twigs with values, wildcards and whitespace, and
//! mutations of both) the two must agree on `Ok` or `Err`, on the error
//! message, and on every node's id, label, parent and children and the
//! twig's `Display`. The reference builds through the public builder,
//! so the comparison also checks built twigs against parsed ones.

use twig_datagen::{
    generate_dblp, generate_sprot, negative_query_candidates, positive_queries, trivial_queries,
    DblpConfig, SprotConfig, WorkloadConfig,
};
use twig_tree::{DataTree, Twig, TwigLabel, TwigNodeId};
use twig_util::SplitMix64;

/// The recursive parser and `Display` as they were before the twig
/// became one text plus flat node and child arrays.
mod reference {
    use super::{Twig, TwigLabel, TwigNodeId};
    use std::fmt::Write;

    pub(super) fn parse(input: &str) -> Result<Twig, String> {
        let mut parser = ExprParser { input: input.as_bytes(), text: input, pos: 0 };
        let twig = parser.parse_root()?;
        parser.skip_ws();
        if parser.pos != parser.input.len() {
            return Err(format!("trailing input at byte {}", parser.pos));
        }
        validate(&twig)?;
        Ok(twig)
    }

    fn validate(twig: &Twig) -> Result<(), String> {
        for idx in 0..twig.node_count() {
            let node = TwigNodeId(idx as u32);
            if twig.label(node).is_value() && !twig.is_leaf(node) {
                return Err(format!("value node {idx} has children"));
            }
        }
        Ok(())
    }

    pub(super) fn display(twig: &Twig) -> String {
        fn write_node(twig: &Twig, node: TwigNodeId, f: &mut String) {
            match twig.label(node) {
                TwigLabel::Element(name) => write!(f, "{name}").unwrap(),
                TwigLabel::Value(value) => write!(f, "{value:?}").unwrap(),
                TwigLabel::Star => write!(f, "*").unwrap(),
            }
            let kids = twig.children(node);
            if !kids.is_empty() {
                write!(f, "(").unwrap();
                for (i, &child) in kids.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",").unwrap();
                    }
                    write_node(twig, child, f);
                }
                write!(f, ")").unwrap();
            }
        }
        let mut out = String::new();
        write_node(twig, twig.root(), &mut out);
        out
    }

    struct ExprParser<'a> {
        input: &'a [u8],
        text: &'a str,
        pos: usize,
    }

    impl<'a> ExprParser<'a> {
        fn parse_root(&mut self) -> Result<Twig, String> {
            self.skip_ws();
            let label = self.parse_label()?;
            let mut twig = Twig::with_root(label);
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

        fn parse_label(&mut self) -> Result<TwigLabel<'a>, String> {
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
                    let value = self
                        .text
                        .get(start..self.pos)
                        .ok_or_else(|| "non-UTF8 value".to_owned())?;
                    self.pos += 1;
                    Ok(TwigLabel::Value(value))
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
                    let name = self
                        .text
                        .get(start..self.pos)
                        .ok_or_else(|| "non-UTF8 label".to_owned())?;
                    Ok(TwigLabel::Element(name))
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
}

/// Tallies of what the inputs exercised.
#[derive(Default)]
struct Outcomes {
    ok: usize,
    errors: Vec<String>,
}

/// Parses `input` both ways and asserts the outcomes are identical.
fn check(input: &str, outcomes: &mut Outcomes) {
    let parsed = Twig::parse(input);
    let expected = reference::parse(input);
    match (&parsed, &expected) {
        (Ok(twig), Ok(want)) => {
            assert_eq!(twig.node_count(), want.node_count(), "{input:?}");
            for id in 0..twig.node_count() as u32 {
                let node = TwigNodeId(id);
                assert_eq!(twig.label(node), want.label(node), "{input:?} node {id}");
                assert_eq!(twig.parent(node), want.parent(node), "{input:?} node {id}");
                assert_eq!(twig.children(node), want.children(node), "{input:?} node {id}");
            }
            assert_eq!(twig.to_string(), reference::display(want), "{input:?}");
            assert_eq!(twig, want, "{input:?}");
            outcomes.ok += 1;
        }
        (Err(message), Err(want)) => {
            assert_eq!(message, want, "{input:?}");
            outcomes.errors.push(message.clone());
        }
        _ => panic!("{input:?}: parse gave {parsed:?}, the reference {expected:?}"),
    }
}

const LABELS: [&str; 8] = ["a", "book", "author", "x_1", "A-b.c", "_u", "9z", "entry.name"];
const VALUE_CHARS: [&str; 14] =
    ["a", "Z", "1", " ", "(", ")", ",", "*", "é", "漢", "🌲", "\\", "'", "\t"];
const SPACES: [&str; 5] = ["", "", " ", "\n\t", "  "];

/// Appends a random twig of at most `budget` further nodes: element
/// labels, value leaves (now and then with children, which parses but
/// fails validation), wildcards, and whitespace around every token.
fn random_twig(rng: &mut SplitMix64, depth: usize, budget: &mut usize, out: &mut String) {
    let space = |rng: &mut SplitMix64| SPACES[rng.index(SPACES.len())];
    out.push_str(space(rng));
    let value = match rng.index(6) {
        0 => {
            out.push('*');
            false
        }
        1 | 2 => {
            out.push('"');
            for _ in 0..rng.index(5) {
                out.push_str(VALUE_CHARS[rng.index(VALUE_CHARS.len())]);
            }
            out.push('"');
            true
        }
        _ => {
            out.push_str(LABELS[rng.index(LABELS.len())]);
            false
        }
    };
    let branch = if value { rng.index(12) == 0 } else { rng.index(3) != 0 };
    if depth == 0 || *budget == 0 || !branch {
        return;
    }
    out.push_str(space(rng));
    out.push('(');
    for i in 0..rng.usize_in(1, 4) {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        if i > 0 {
            out.push_str(space(rng));
            out.push(',');
        }
        random_twig(rng, depth - 1, budget, out);
    }
    out.push_str(space(rng));
    out.push(')');
}

/// A random `char` boundary of `text` (its length included).
fn boundary(rng: &mut SplitMix64, text: &str) -> usize {
    let bounds: Vec<usize> = text.char_indices().map(|(at, _)| at).chain([text.len()]).collect();
    bounds[rng.index(bounds.len())]
}

/// One random damage: truncation, a doubled comma, an extra or missing
/// parenthesis or quote, a non-ASCII character, or a dropped character.
fn mutate(rng: &mut SplitMix64, text: &str) -> String {
    let mut out = text.to_owned();
    let at = boundary(rng, text);
    match rng.index(8) {
        0 => out.truncate(at),
        1 => match out.match_indices(',').map(|(at, _)| at).nth(rng.index(4)) {
            Some(comma) => out.insert(comma, ','),
            None => out.insert_str(at, ",,"),
        },
        2 => out.insert(at, '('),
        3 => out.insert(at, ')'),
        4 => out.insert(at, '"'),
        5 => out.insert_str(at, ["é", "漢", "🌲", "\u{0}"][rng.index(4)]),
        6 => {
            let marks: Vec<usize> = out.match_indices(['(', ')', '"']).map(|(at, _)| at).collect();
            if !marks.is_empty() {
                out.remove(marks[rng.index(marks.len())]);
            }
        }
        _ => {
            if let Some(c) = out[at..].chars().next() {
                out.replace_range(at..at + c.len_utf8(), "");
            }
        }
    }
    out
}

/// The generators' positive, negative and trivial twigs over both
/// corpora, rendered with `Display`.
fn workload_texts() -> Vec<String> {
    let dblp =
        generate_dblp(&DblpConfig { target_bytes: 120 << 10, seed: 22, ..Default::default() });
    let sprot = generate_sprot(&SprotConfig { target_bytes: 120 << 10, seed: 22 });
    let mut texts = Vec::new();
    for xml in [dblp, sprot] {
        let tree = DataTree::from_xml(&xml).expect("generated XML parses");
        let cfg = WorkloadConfig { count: 150, seed: 2201, ..WorkloadConfig::default() };
        for twigs in [
            positive_queries(&tree, &cfg),
            negative_query_candidates(&tree, &cfg),
            trivial_queries(&tree, &cfg),
        ] {
            assert!(!twigs.is_empty());
            texts.extend(twigs.iter().map(Twig::to_string));
        }
    }
    texts
}

#[test]
fn parse_agrees_with_the_recursive_reference() {
    let mut rng = SplitMix64::new(0x7477_6967_7061_7273);
    let mut outcomes = Outcomes::default();
    let workload = workload_texts();
    let mut random = Vec::new();
    for _ in 0..4000 {
        let mut text = String::new();
        let mut budget = rng.usize_in(0, 40);
        random_twig(&mut rng, 6, &mut budget, &mut text);
        text.push_str(SPACES[rng.index(SPACES.len())]);
        random.push(text);
    }
    for text in workload.iter().chain(&random) {
        check(text, &mut outcomes);
        for _ in 0..3 {
            let mut damaged = mutate(&mut rng, text);
            check(&damaged, &mut outcomes);
            damaged = mutate(&mut rng, &damaged);
            check(&damaged, &mut outcomes);
        }
    }
    let total = outcomes.ok + outcomes.errors.len();
    assert!(
        outcomes.ok * 5 > total && outcomes.errors.len() * 5 > total,
        "{} ok of {total}",
        outcomes.ok
    );
    for kind in [
        "unterminated string",
        "expected label at byte",
        "expected ',' or ')', found",
        "trailing input at byte",
        "value node",
    ] {
        let seen = outcomes.errors.iter().filter(|message| message.starts_with(kind)).count();
        assert!(seen >= 20, "only {seen} errors of the kind {kind:?}");
    }
}

/// Each node's label and child count, in pre-order.
fn preorder(twig: &Twig) -> Vec<(TwigLabel<'_>, usize)> {
    let mut out = Vec::new();
    let mut stack = vec![twig.root()];
    while let Some(node) = stack.pop() {
        out.push((twig.label(node), twig.children(node).len()));
        stack.extend(twig.children(node).iter().rev());
    }
    out
}

/// The generators build twigs path by path, so their ids are not in
/// pre-order; the parse of their text has the same shape, and a twig
/// rebuilt in pre-order equals that parse id for id.
#[test]
fn generated_twigs_match_their_parsed_text() {
    let dblp =
        generate_dblp(&DblpConfig { target_bytes: 120 << 10, seed: 23, ..Default::default() });
    let tree = DataTree::from_xml(&dblp).expect("generated XML parses");
    let cfg = WorkloadConfig { count: 200, seed: 2301, ..WorkloadConfig::default() };
    for twig in positive_queries(&tree, &cfg).into_iter().chain(trivial_queries(&tree, &cfg)) {
        let parsed = Twig::parse(&twig.to_string()).expect("a generated twig parses");
        assert_eq!(preorder(&parsed), preorder(&twig), "{twig}");
        let shape = preorder(&twig);
        let mut rebuilt = Twig::with_root(shape[0].0);
        let mut open = vec![(rebuilt.root(), shape[0].1)];
        for &(label, children) in &shape[1..] {
            while open.last().is_some_and(|&(_, left)| left == 0) {
                open.pop();
            }
            let (parent, left) = open.last_mut().expect("a parent has room");
            *left -= 1;
            let node = rebuilt.add_child(*parent, label);
            open.push((node, children));
        }
        assert_eq!(rebuilt, parsed, "{twig}");
    }
}
