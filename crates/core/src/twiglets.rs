//! Twiglet decomposition (Sec. 3.2, 4.2–4.4).
//!
//! A *twiglet* groups parsed subpaths that emanate from the same query
//! node and pass through a branch node; its count is estimated by
//! intersecting the member subpaths' rooting-node sets via set hashing.
//! The three set-hashing algorithms differ only in how groups are formed:
//!
//! - **MOSH / PMOSH**: group the parsed pieces that *start at the same
//!   unit* and pass through the branch node. (PMOSH feeds this the
//!   piecewise-maximal parse, which makes shared starts more likely.)
//! - **MSH**: for every start unit of a maximal piece through the branch,
//!   group the *suffixes* of all maximal pieces through the branch that
//!   contain that start — deep parses still meet at branch points without
//!   shortening the pieces themselves.
//!
//! Both fill an empty [`Decomposition`]'s elements with one group per
//! twiglet, its chains appended to the decomposition's chain pool, and
//! mark the pieces the twiglets take.

use twig_tree::TwigNodeId;

use crate::combine::{Decomposition, Element};
use crate::parse::{retain_maximal, Piece};
use crate::query::{CompiledQuery, Unit};
use crate::summary::Summary;

/// True when `piece` passes *through* branch element `branch`: covers it
/// and extends at least one unit beyond.
fn passes_through(query: &CompiledQuery, piece: &Piece, branch: TwigNodeId) -> bool {
    piece.units(query).split_last().is_some_and(|(_, init)| init.contains(&Unit::El(branch)))
}

/// The first unit of `piece`.
fn head(query: &CompiledQuery, piece: &Piece) -> Option<Unit> {
    piece.units(query).first().copied()
}

/// Appends the twiglet made of `chains[first..]` as a group element, or
/// drops those chains when there are fewer than two.
fn close_group(chains: &mut Vec<Piece>, first: usize, elements: &mut Vec<Element>) {
    let group = chains.get(first..).unwrap_or(&[]);
    let position = group.iter().map(|c| (c.path, c.start)).min();
    match position.filter(|_| group.len() >= 2) {
        Some(position) => {
            elements.push(Element { is_group: true, first, end: chains.len(), position });
        }
        None => chains.truncate(first),
    }
}

/// MOSH / PMOSH grouping: pieces through a branch sharing their own start
/// unit. Every member of a twiglet is taken: it does not also stand
/// alone.
pub(crate) fn mosh_twiglets(query: &CompiledQuery, parts: &mut Decomposition) {
    let Decomposition { pieces, chains, elements, taken, .. } = parts;
    // The pieces through `branch` that start at `piece`'s start unit.
    let group = |branch: TwigNodeId, piece: &Piece| {
        let start_unit = head(query, piece);
        pieces
            .iter()
            .filter(move |p| passes_through(query, p, branch) && head(query, p) == start_unit)
    };
    for &branch in query.branches() {
        // One group per start unit, opened by its first member.
        for piece in pieces.iter() {
            if !group(branch, piece).next().is_some_and(|first| std::ptr::eq(first, piece)) {
                continue;
            }
            let first = chains.len();
            chains.extend(group(branch, piece));
            close_group(chains, first, elements);
        }
    }
    drop_contained_twiglets(query, chains, elements);
    taken.clear();
    taken.extend(pieces.iter().map(|piece| {
        query.branches().iter().any(|&branch| {
            passes_through(query, piece, branch) && group(branch, piece).nth(1).is_some()
        })
    }));
}

/// MSH grouping (Sec. 4.4): for each branch and each start unit of a
/// maximal piece through it, the suffixes at that start of *all* maximal
/// pieces through it that contain the start.
///
/// MSH keeps the full maximal pieces alongside the suffix twiglets
/// (Sec. 4.4: `a.b.c.d` still heads the paper's formula) — but a piece
/// whose region lies entirely inside a twiglet (like the paper's
/// `b.c.f.g`, absorbed by the twiglet at `b`) is taken: processed first
/// it would cover the twiglet's region and silently discard its
/// correlation estimate.
pub(crate) fn msh_twiglets<S: Summary>(cst: &S, query: &CompiledQuery, parts: &mut Decomposition) {
    let Decomposition { pieces, chains, elements, taken, starts, .. } = parts;
    for &branch in query.branches() {
        let through = |p: &&Piece| passes_through(query, p, branch);
        if pieces.iter().filter(through).count() < 2 {
            continue;
        }
        starts.clear();
        starts.extend(pieces.iter().filter(through).filter_map(|p| head(query, p)));
        starts.sort_unstable();
        starts.dedup();
        for &start in starts.iter() {
            let first = chains.len();
            for piece in pieces.iter().filter(through) {
                // A start at the piece's last unit would make a
                // single-node suffix.
                let init = piece.units(query).split_last().map_or(&[][..], |(_, init)| init);
                let Some(rel) = init.iter().position(|&u| u == start) else {
                    continue;
                };
                if let Some(suffix) = suffix_piece(cst, query, piece, rel) {
                    let group = chains.get(first..).unwrap_or(&[]);
                    if !group.iter().any(|c| c.same_units(&suffix, query)) {
                        chains.push(suffix);
                    }
                }
            }
            close_group(chains, first, elements);
        }
    }
    drop_contained_twiglets(query, chains, elements);
    taken.clear();
    taken.extend(pieces.iter().map(|piece| {
        elements.iter().any(|t| region_within(query, chains, std::slice::from_ref(piece), t))
    }));
}

/// The suffix of `piece` starting at relative unit `rel`, looked up in the
/// CST along the query's own tokens (present by the monotonicity
/// property; `None` only defensively).
fn suffix_piece<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    piece: &Piece,
    rel: usize,
) -> Option<Piece> {
    if rel == 0 {
        return Some(*piece);
    }
    let start = piece.start.checked_add(rel)?;
    let trie = query.lookup(cst, piece.path, start, piece.end)?;
    Some(Piece { path: piece.path, start, end: piece.end, trie })
}

/// True when every unit of `inner`'s region lies in `outer`'s.
///
/// A region is the union of chains descending from one start unit, so a
/// chain lies in it exactly when it lies in one of its chains.
fn region_within(
    query: &CompiledQuery,
    chains: &[Piece],
    inner: &[Piece],
    outer: &Element,
) -> bool {
    let outer = outer.chains(chains);
    inner.iter().all(|chain| outer.iter().any(|o| chain.contained_in(o, query)))
}

/// Drops the twiglets whose unit region is contained in another's (they
/// would contribute a factor of 1 under MO conditioning, only adding
/// signature noise).
fn drop_contained_twiglets(query: &CompiledQuery, chains: &[Piece], elements: &mut Vec<Element>) {
    retain_maximal(elements, |inner, outer| {
        region_within(query, chains, inner.chains(chains), outer)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstConfig, SpaceBudget};
    use crate::parse::maximal_pieces;
    use twig_tree::{DataTree, Twig};

    /// A corpus realizing the Figure 2 tree pattern: records shaped
    /// a(b(c(d(e),f(g)))) — the query a.b.c with branches c→d→e and
    /// c→f→g.
    fn fixture() -> (DataTree, Cst) {
        let mut xml = String::from("<root>");
        for i in 0..30 {
            xml.push_str(&format!(
                "<a><b><c><d><e>v{}</e></d><f><g>w{}</g></f></c></b></a>",
                i % 3,
                i % 5
            ));
        }
        xml.push_str("</root>");
        let tree = DataTree::from_xml(&xml).unwrap();
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() },
        )
        .expect("CST config is valid");
        (tree, cst)
    }

    fn query(cst: &Cst, expr: &str) -> (Twig, CompiledQuery) {
        let twig = Twig::parse(expr).unwrap();
        let compiled = CompiledQuery::compile(cst, &twig);
        (twig, compiled)
    }

    /// Splits a full-path piece into [lo, hi) subpieces for controlled
    /// parses (mimicking what pruning would produce).
    fn subpiece(cst: &Cst, q: &CompiledQuery, piece: &Piece, lo: usize, hi: usize) -> Piece {
        let trie = q.lookup(cst, piece.path, lo, hi).expect("subpath in unpruned CST");
        Piece { path: piece.path, start: lo, end: hi, trie }
    }

    fn maximal(cst: &Cst, q: &CompiledQuery) -> Vec<Piece> {
        let mut pieces = Vec::new();
        maximal_pieces(cst, q, &mut pieces);
        pieces
    }

    /// MOSH twiglets over `pieces`: the decomposition and the taken mask.
    fn mosh(q: &CompiledQuery, pieces: &[Piece]) -> (Decomposition, Vec<bool>) {
        let mut parts = Decomposition { pieces: pieces.to_vec(), ..Decomposition::default() };
        mosh_twiglets(q, &mut parts);
        let taken = parts.taken.clone();
        (parts, taken)
    }

    fn msh(cst: &Cst, q: &CompiledQuery, pieces: &[Piece]) -> Decomposition {
        let mut parts = Decomposition { pieces: pieces.to_vec(), ..Decomposition::default() };
        msh_twiglets(cst, q, &mut parts);
        parts
    }

    #[test]
    fn whole_query_forms_one_twiglet_when_paths_fully_match() {
        // Sec. 4.2: "If all root-to-leaf paths in a twig query are present
        // in the CST, the whole twig will form one twiglet."
        let (_, cst) = fixture();
        let (_, q) = query(&cst, "a(b(c(d,f)))");
        let pieces = maximal(&cst, &q);
        assert_eq!(pieces.len(), 2, "one full piece per path");
        let (twiglets, consumed) = mosh(&q, &pieces);
        assert_eq!(twiglets.elements.len(), 1);
        assert_eq!(twiglets.elements[0].chains(&twiglets.chains).len(), 2);
        assert!(consumed.iter().all(|&c| c));
    }

    #[test]
    fn mosh_needs_shared_starts() {
        // The Sec. 4.3 motivating example: parse pieces through the
        // branch that start at different units → MOSH forms no twiglet.
        let (_, cst) = fixture();
        let (_, q) = query(&cst, "a(b(c(d,f)))");
        let full = maximal(&cst, &q);
        // Simulate the parse {a.b.c.d, b.c.f}: different start units.
        let p1 = subpiece(&cst, &q, &full[0], 0, 4); // a.b.c.d
        let p2 = subpiece(&cst, &q, &full[1], 1, 4); // b.c.f
        let pieces = vec![p1, p2];
        let (twiglets, consumed) = mosh(&q, &pieces);
        assert!(twiglets.elements.is_empty(), "MOSH reduces to pure MO here");
        assert!(consumed.iter().all(|&c| !c));
    }

    #[test]
    fn msh_recovers_via_suffixes() {
        // Same parse, but MSH takes the suffix of a.b.c.d at b and groups
        // it with b.c.f — the Sec. 4.4 example.
        let (_, cst) = fixture();
        let (_, q) = query(&cst, "a(b(c(d,f)))");
        let full = maximal(&cst, &q);
        let p1 = subpiece(&cst, &q, &full[0], 0, 4); // a.b.c.d
        let p2 = subpiece(&cst, &q, &full[1], 1, 4); // b.c.f
        let pieces = vec![p1, p2];
        let twiglets = msh(&cst, &q, &pieces);
        assert_eq!(twiglets.elements.len(), 1);
        let chains = twiglets.elements[0].chains(&twiglets.chains);
        assert_eq!(chains.len(), 2);
        // Both chains start at the `b` unit.
        assert_eq!(chains[0].units(&q)[0], chains[1].units(&q)[0]);
        assert_eq!(chains[0].units(&q)[0], q.units(0)[1]);
        // The b.c.f piece lies inside the twiglet's region: taken.
        assert_eq!(twiglets.taken, [false, true]);
        // The suffix chain b.c.d has its own (monotonicity-guaranteed)
        // trie node with the right count.
        for chain in chains {
            assert!(cst.presence(chain.trie) > 0);
        }
    }

    #[test]
    fn contained_twiglets_dropped() {
        // Twiglets at nested branches with the same start nest; only the
        // largest survives.
        let (_, cst) = fixture();
        let (_, q) = query(&cst, "a(b(c(d(e),f(g))))");
        let pieces = maximal(&cst, &q);
        let (twiglets, _) = mosh(&q, &pieces);
        // Branch node is c only (a and b have one child); both paths
        // fully parse → exactly one twiglet.
        assert_eq!(twiglets.elements.len(), 1);
        let msh = msh(&cst, &q, &pieces);
        // MSH adds suffix groups at deeper starts, but they are contained
        // in the root-start twiglet and dropped.
        assert_eq!(msh.elements.len(), 1);
    }

    #[test]
    fn pieces_not_through_branch_stay_single() {
        let (_, cst) = fixture();
        let (_, q) = query(&cst, "a(b(c(d(e),f(g))))");
        let full = maximal(&cst, &q);
        // Parse: a.b.c.d / d-e-tail  and a.b.c.f.g; the e-tail piece does
        // not pass through branch c.
        let p1 = subpiece(&cst, &q, &full[0], 0, 4); // a.b.c.d
        let p2 = subpiece(&cst, &q, &full[0], 3, full[0].end); // d.e...
        let p3 = full[1]; // a.b.c.f.g...
        let (twiglets, consumed) = mosh(&q, &[p1, p2, p3]);
        assert_eq!(twiglets.elements.len(), 1, "a.b.c.d groups with a.b.c.f.g at start a");
        assert!(!consumed[1], "the d.e piece stays a single element");
    }

    #[test]
    fn twiglet_position_is_min_chain_position() {
        let (_, cst) = fixture();
        let (_, q) = query(&cst, "a(b(c(d,f)))");
        let pieces = maximal(&cst, &q);
        let (twiglets, _) = mosh(&q, &pieces);
        assert_eq!(twiglets.elements[0].position, (0, 0));
    }
}
