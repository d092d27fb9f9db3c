//! Maximal-overlap conditioning and region count estimation (Sec. 3.6,
//! 3.7).
//!
//! The combination step walks the parsed elements (single subpaths and
//! twiglets) in query order, keeps the set of already-covered query units,
//! and multiplies each element's count conditioned on its overlap with the
//! covered region:
//!
//! ```text
//! estimate = n · Π_elements  Pr(element) / Pr(overlap with covered)
//! ```
//!
//! An empty overlap divides by nothing (independence); a single-chain
//! overlap is read exactly from the CST (monotonicity guarantees it is
//! present); a subtree-shaped overlap is itself estimated with set hashing
//! — the "overlaps themselves are subtrees" case the paper calls out.

use twig_sethash::SigRows;
use twig_util::cast::count_to_f64;

use crate::estimate::CountKind;
use crate::parse::Piece;
use crate::query::{CompiledQuery, Unit, UnitSet};
use crate::summary::{Summary, TrieAccess};

/// A combination element: one parsed subpath or one twiglet, named by
/// the range of its chains in its [`Decomposition`]'s chain pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Element {
    /// True for a set-hash twiglet, false for a single subpath.
    pub is_group: bool,
    /// First chain in the pool.
    pub first: usize,
    /// One past the last chain in the pool.
    pub end: usize,
    /// The minimal `(path, start)` over the chains.
    pub position: (usize, usize),
}

impl Element {
    /// The element's chains in `pool`.
    pub(crate) fn chains<'p>(&self, pool: &'p [Piece]) -> &'p [Piece] {
        pool.get(self.first..self.end).unwrap_or(&[])
    }

    /// Combination order: by first covered position; at equal positions
    /// singles come before groups, so the deepest available conditioning
    /// context is established first (the MSH `a.b.c.d` example).
    fn order(&self) -> (usize, usize, bool) {
        (self.position.0, self.position.1, self.is_group)
    }
}

/// One query's parse for one algorithm and the combination elements
/// built from it. Reassembling into the same value reuses its buffers.
#[derive(Debug, Clone, Default)]
pub struct Decomposition {
    /// The parsed pieces.
    pub pieces: Vec<Piece>,
    /// The chain pool the elements index into.
    pub chains: Vec<Piece>,
    /// The combination elements, in combination order once assembled.
    pub elements: Vec<Element>,
    /// Pieces the twiglets took, which do not stand alone.
    pub(crate) taken: Vec<bool>,
    /// Twiglet-formation scratch: the MSH start units of one branch.
    pub(crate) starts: Vec<Unit>,
    /// The parse's covered units.
    pub(crate) covered: UnitSet,
}

impl Decomposition {
    /// Empties the parse, the elements and the taken marks.
    pub(crate) fn clear(&mut self) {
        self.pieces.clear();
        self.chains.clear();
        self.elements.clear();
        self.taken.clear();
    }

    /// Appends every piece no twiglet took as a one-chain element, then
    /// sorts the elements into combination order.
    pub(crate) fn finish(&mut self) {
        let Decomposition { pieces, chains, elements, taken, .. } = self;
        for (index, piece) in pieces.iter().enumerate() {
            if taken.get(index).copied().unwrap_or(false) {
                continue;
            }
            let first = chains.len();
            chains.push(*piece);
            let position = (piece.path, piece.start);
            elements.push(Element { is_group: false, first, end: first + 1, position });
        }
        elements.sort_by_key(Element::order);
    }
}

/// Reusable temporaries of [`combine`].
#[derive(Debug, Clone, Default)]
pub(crate) struct CombineScratch {
    /// Units covered by the elements combined so far.
    covered: UnitSet,
    /// One element's conditioning overlap chains.
    overlaps: Vec<Piece>,
    region: RegionScratch,
}

/// Reusable temporaries of one region estimate.
#[derive(Debug, Clone, Default)]
struct RegionScratch {
    /// The region's distinct chains.
    unique: Vec<Piece>,
    /// The star's chains, with the substars of its recursion pushed above.
    stack: Vec<Piece>,
    /// One star's signatures.
    rows: SigRows,
}

/// Count (presence or occurrence) of a single CST chain.
fn chain_count<S: Summary>(cst: &S, piece: &Piece, kind: CountKind) -> f64 {
    match kind {
        CountKind::Presence => cst.presence(piece.trie) as f64,
        CountKind::Occurrence => cst.occurrence(piece.trie) as f64,
    }
}

/// Estimates the count of a region given as chains with a common start
/// unit (a "star"). One chain → exact CST count; several chains →
/// signature intersection, scaled to occurrences by the per-chain
/// `Co/Cp` ratios in occurrence mode (Sec. 5).
fn estimate_region<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    chains: &[Piece],
    kind: CountKind,
    scratch: &mut RegionScratch,
) -> f64 {
    let RegionScratch { unique, stack, rows } = scratch;
    // Dedup identical unit chains (shared prefixes across paths).
    unique.clear();
    for chain in chains {
        if !unique.iter().any(|c| c.same_units(chain, query)) {
            unique.push(*chain);
        }
    }
    // Drop chains strictly contained in another (prefixes of longer
    // chains contribute nothing to the intersection).
    stack.clear();
    for (i, chain) in unique.iter().enumerate() {
        let contained =
            unique.iter().enumerate().any(|(j, other)| j != i && chain.contained_in(other, query));
        if !contained {
            stack.push(*chain);
        }
    }

    match stack.as_slice() {
        [] => 0.0,
        [chain] => chain_count(cst, chain, kind),
        _ => match kind {
            CountKind::Presence => star_presence(cst, query, stack, rows),
            // Every presence yields at least one mapping, so the
            // occurrence estimate is floored at the presence estimate.
            CountKind::Occurrence => {
                let presence = star_presence(cst, query, stack, rows);
                star_occurrence(cst, query, stack, 0, presence, rows).max(presence)
            }
        },
    }
}

/// Length of the longest common prefix of the chains' unit sequences.
fn common_prefix(query: &CompiledQuery, chains: &[Piece]) -> usize {
    let Some((first, rest)) = chains.split_first() else { return 0 };
    let head = first.units(query);
    let mut lcp = head.len();
    for chain in rest {
        let common = chain.units(query).iter().zip(head).take_while(|(a, b)| a == b).count();
        lcp = lcp.min(common);
    }
    lcp
}

/// Occurrence estimate for the star of ≥ 2 chains `stack[from..]`,
/// whose presence estimate is `presence`.
///
/// When the chains diverge right after their shared start unit — the
/// common twiglet shape — this is the paper's Sec. 5 formula: presence
/// intersection times the per-chain `Co/Cp` ratios (the Figure 1 example:
/// `2.9 × (6/3) × (3/3) ≈ 5.8`).
///
/// When the chains share a longer prefix (e.g. all rooted at the document
/// root, where every chain has presence 1), the mapping multiplicity
/// lives below the *divergence point*, not at the root: the presence
/// intersection collapses to the handful of prefix roots and the
/// full-chain ratios multiply unrelated whole-corpus multiplicities. In
/// that case the estimate recurses on the *substar* of chain suffixes
/// from the divergence unit (which share exactly one unit, the base
/// case), pushed above the star on `stack`, and scales by the fraction
/// of branch-label instances that sit under the prefix path — a
/// uniformity assumption in the same spirit as the paper's. Every
/// lookup walks the query's own tokens, so a summary whose parent or
/// edge sections are unreadable cannot shorten a chain.
fn star_occurrence<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    stack: &mut Vec<Piece>,
    from: usize,
    presence: f64,
    rows: &mut SigRows,
) -> f64 {
    let chains = stack.get(from..).unwrap_or(&[]);
    let lcp = common_prefix(query, chains);
    debug_assert!(lcp >= 1, "star chains share their start unit");
    if lcp <= 1 {
        // Base case: the paper's formula.
        let mut scale = 1.0;
        for chain in chains {
            let cp = cst.presence(chain.trie) as f64;
            let co = cst.occurrence(chain.trie) as f64;
            if cp > 0.0 {
                scale *= co / cp;
            }
        }
        return presence * scale;
    }
    let Some(&head) = chains.first() else { return 0.0 };
    // Recurse on the substar at the divergence unit.
    let divergence = lcp - 1;
    let top = stack.len();
    for index in from..top {
        let Some(&chain) = stack.get(index) else { break };
        let start = chain.start + divergence;
        // Present by the monotonicity property.
        let Some(trie) = query.lookup(cst, chain.path, start, chain.end) else {
            // Defensive: fall back to the full star's presence rather
            // than returning a wrong scale.
            stack.truncate(top);
            return presence;
        };
        stack.push(Piece { path: chain.path, start, end: chain.end, trie });
    }
    let sub_presence = star_presence(cst, query, stack.get(top..).unwrap_or(&[]), rows);
    let sub_occurrence = star_occurrence(cst, query, stack, top, sub_presence, rows);
    stack.truncate(top);
    // Context: what fraction of branch-label instances lie under the
    // shared prefix chain?
    let prefix_node = query.lookup(cst, head.path, head.start, head.start + lcp);
    let branch_node = query.lookup(cst, head.path, head.start + divergence, head.start + lcp);
    let context = match (prefix_node, branch_node) {
        (Some(p), Some(b)) if cst.occurrence(b) > 0 => {
            (cst.occurrence(p) as f64 / cst.occurrence(b) as f64).min(1.0)
        }
        _ => 1.0,
    };
    sub_occurrence * context
}

/// Presence estimate for a star of ≥ 2 chains: set-hash intersection of
/// the chains' rooting sets, their signatures decoded into `rows`.
///
/// Min-hash with `L` components cannot resolve resemblances below `~1/L`:
/// a zero-match signature comparison only tells us the intersection is
/// smaller than about `|∪|/L`, not that it is empty. In that regime the
/// estimate falls back to the independence product (the pure-MO
/// assumption), capped by the resolution bound — so set hashing improves
/// on MO where it can see, and never zeroes out a query it cannot.
fn star_presence<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    chains: &[Piece],
    rows: &mut SigRows,
) -> f64 {
    let independence = conditional_independence(cst, query, chains);
    rows.clear(cst.signature_len());
    for chain in chains {
        match cst.signature(chain.trie) {
            Some(sig) => rows.add_signature(sig, cst.presence(chain.trie)),
            // No signature (signature-free summary, or a pure string
            // fragment): conditional independence is all we have.
            None => return independence,
        }
    }
    if rows.min_size() == 0 {
        return 0.0; // genuinely empty set: the intersection is empty
    }
    let len = cst.signature_len().max(1) as f64;
    let matches = (rows.resemblance() * len).round();
    if matches == 0.0 {
        return match cst.fallback() {
            // The paper's literal formula: ρ̂ = 0 ⇒ |∩| = 0.
            crate::cst::SignatureFallback::Zero => 0.0,
            // Below the signature's resolution all we learn is an upper
            // bound of roughly |∪|/L on the intersection; fall back to
            // the MO-style no-correlation estimate under that bound.
            crate::cst::SignatureFallback::ConditionalIndependence => {
                let resolution = rows.estimate_union_size() / len;
                independence.min(resolution)
            }
        };
    }
    let estimate = rows.estimate_intersection();
    // Shrink toward the no-correlation baseline in proportion to the
    // evidence: with m matching components the resemblance estimate has
    // relative error ~1/√m, so a single match (which overstates weak
    // correlations by up to L×) moves the estimate only one third of the
    // way from independence. Strong signals (m ≫ 1) dominate quickly.
    let weight = matches / (matches + 2.0);
    let min_size = count_to_f64(rows.min_size());
    (weight * estimate + (1.0 - weight) * independence).min(min_size)
}

/// The no-correlation baseline for a star: independence of the chains
/// *conditioned on their longest common prefix* —
/// `Cp(C) · Π (Cp(chain_i) / Cp(C))` — which is exactly what pure MO's
/// overlap conditioning computes for the same subpaths. Falling back to
/// anything weaker would make set hashing worse than MO whenever the
/// signatures under-resolve.
fn conditional_independence<S: Summary>(cst: &S, query: &CompiledQuery, chains: &[Piece]) -> f64 {
    let Some(first) = chains.first() else { return 0.0 };
    let lcp = common_prefix(query, chains);
    // Trie node of the common prefix: walk up from any chain's node. A
    // healthy summary always has the parents (the chain is `len()`
    // deep); a degraded one (flat reader with a poisoned parent section)
    // may not — treat that as an empty region rather than panicking.
    let trie = cst.trie();
    let mut prefix_node = first.trie;
    for _ in 0..(first.len() - lcp) {
        match trie.parent(prefix_node) {
            Some(parent) => prefix_node = parent,
            None => return 0.0,
        }
    }
    let base = if lcp == 0 { cst.n() as f64 } else { cst.presence(prefix_node) as f64 };
    if base <= 0.0 {
        return 0.0;
    }
    base * chains.iter().map(|c| cst.presence(c.trie) as f64 / base).product::<f64>()
}

/// The covered-prefix chains of an element's region, into `out`: for
/// each chain, the longest prefix whose units are all in `covered`.
fn overlap_chains<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    chains: &[Piece],
    covered: &UnitSet,
    out: &mut Vec<Piece>,
) {
    out.clear();
    for chain in chains {
        let len = chain
            .units(query)
            .iter()
            .take_while(|&&unit| covered.contains(query.unit_id(unit)))
            .count();
        if len == 0 {
            continue;
        }
        // Present by monotonicity.
        let end = chain.start + len;
        let Some(trie) = query.lookup(cst, chain.path, chain.start, end) else {
            continue;
        };
        let prefix = Piece { path: chain.path, start: chain.start, end, trie };
        if !out.iter().any(|p| p.same_units(&prefix, query)) {
            out.push(prefix);
        }
    }
}

/// One multiplicative factor of a combination, for explanation output.
#[derive(Debug, Clone)]
pub struct Factor {
    /// The element (its chains are in the decomposition's pool).
    pub element: Element,
    /// The conditioning overlap chains (empty = independent join by `n`).
    pub overlaps: Vec<Piece>,
    /// Estimated count of the element's region.
    pub numerator: f64,
    /// Estimated count of the overlap (or `n` when independent).
    pub denominator: f64,
    /// True when the element was skipped as fully covered.
    pub skipped: bool,
}

/// Runs MO conditioning over the decomposition's elements, in order, and
/// returns the final count estimate (Sec. 3.7). With a trace sink, every
/// factor is recorded (used by [`crate::explain`]).
pub(crate) fn combine<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    parts: &Decomposition,
    kind: CountKind,
    scratch: &mut CombineScratch,
    mut trace: Option<&mut Vec<Factor>>,
) -> f64 {
    let n = cst.n() as f64;
    if n == 0.0 {
        return 0.0;
    }
    scratch.covered.clear();
    let mut result = n;
    for element in &parts.elements {
        let chains = element.chains(&parts.chains);
        // Fully covered elements contribute Pr(X|X) = 1.
        let fully_covered = chains.iter().all(|chain| {
            chain.units(query).iter().all(|&unit| scratch.covered.contains(query.unit_id(unit)))
        });
        if fully_covered {
            if let Some(sink) = trace.as_deref_mut() {
                sink.push(Factor {
                    element: *element,
                    overlaps: Vec::new(),
                    numerator: 1.0,
                    denominator: 1.0,
                    skipped: true,
                });
            }
            continue;
        }
        let CombineScratch { covered, overlaps, region } = &mut *scratch;
        let numerator = estimate_region(cst, query, chains, kind, region);
        if numerator <= 0.0 && trace.is_none() {
            // The product is 0 whatever the overlap; only a trace shows
            // the denominator.
            return 0.0;
        }
        overlap_chains(cst, query, chains, covered, overlaps);
        let denominator = if overlaps.is_empty() {
            n
        } else if numerator <= 0.0 {
            // Denominator irrelevant; keep the trace informative.
            estimate_region(cst, query, overlaps, kind, region)
        } else {
            // count(overlap) ≥ count(region) must hold; repair signature
            // noise that says otherwise.
            estimate_region(cst, query, overlaps, kind, region).max(numerator)
        };
        if let Some(sink) = trace.as_deref_mut() {
            sink.push(Factor {
                element: *element,
                overlaps: overlaps.clone(),
                numerator,
                denominator,
                skipped: false,
            });
        }
        if numerator <= 0.0 {
            return 0.0;
        }
        result *= numerator / denominator;
        for chain in chains {
            for &unit in chain.units(query) {
                covered.insert(query.unit_id(unit));
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstConfig, SpaceBudget};
    use crate::parse::maximal_pieces;
    use twig_tree::{DataTree, Twig};

    fn fixture() -> Cst {
        // 40 records: author Anna ⇔ year 1999 (20), Bo ⇔ 2000 (20).
        let mut xml = String::from("<dblp>");
        for _ in 0..20 {
            xml.push_str("<book><author>Anna</author><year>1999</year></book>");
        }
        for _ in 0..20 {
            xml.push_str("<book><author>Bo</author><year>2000</year></book>");
        }
        xml.push_str("</dblp>");
        let tree = DataTree::from_xml(&xml).unwrap();
        Cst::build(
            &tree,
            &CstConfig {
                budget: SpaceBudget::Threshold(1),
                signature_len: 128,
                ..CstConfig::default()
            },
        )
        .expect("CST config is valid")
    }

    fn pieces_for(cst: &Cst, expr: &str) -> (CompiledQuery, Vec<Piece>) {
        let twig = Twig::parse(expr).unwrap();
        let query = CompiledQuery::compile(cst, &twig);
        let mut pieces = Vec::new();
        maximal_pieces(cst, &query, &mut pieces);
        (query, pieces)
    }

    fn region(cst: &Cst, query: &CompiledQuery, chains: &[Piece], kind: CountKind) -> f64 {
        estimate_region(cst, query, chains, kind, &mut RegionScratch::default())
    }

    /// Combines `pieces`, each its own element, in the given order.
    fn combine_singles(cst: &Cst, query: &CompiledQuery, pieces: &[Piece]) -> f64 {
        let mut parts = Decomposition::default();
        for (first, piece) in pieces.iter().enumerate() {
            parts.chains.push(*piece);
            let position = (piece.path, piece.start);
            parts.elements.push(Element { is_group: false, first, end: first + 1, position });
        }
        let scratch = &mut CombineScratch::default();
        combine(cst, query, &parts, CountKind::Presence, scratch, None)
    }

    #[test]
    fn estimate_region_single_chain_is_exact() {
        let cst = fixture();
        let (query, pieces) = pieces_for(&cst, r#"book(author("Anna"))"#);
        assert_eq!(pieces.len(), 1);
        assert_eq!(region(&cst, &query, &pieces, CountKind::Presence), 20.0);
        assert_eq!(region(&cst, &query, &pieces, CountKind::Occurrence), 20.0);
    }

    #[test]
    fn estimate_region_dedups_identical_chains() {
        let cst = fixture();
        let (query, pieces) = pieces_for(&cst, r#"book(author("Anna"))"#);
        let doubled = vec![pieces[0], pieces[0]];
        assert_eq!(region(&cst, &query, &doubled, CountKind::Presence), 20.0);
    }

    #[test]
    fn estimate_region_drops_prefix_chains() {
        let cst = fixture();
        let (query, pieces) = pieces_for(&cst, r#"book(author("Anna"))"#);
        let full = pieces[0];
        let prefix = Piece {
            path: full.path,
            start: full.start,
            end: full.end - 1,
            trie: cst.trie().parent(full.trie).unwrap(),
        };
        let est = region(&cst, &query, &[prefix, full], CountKind::Presence);
        assert_eq!(est, 20.0, "prefix must not dilute the star");
    }

    #[test]
    fn estimate_region_star_sees_correlation() {
        let cst = fixture();
        // Two chains from `book`: author Anna ∧ year 1999 — perfectly
        // correlated, true intersection 20.
        let (query, pieces) = pieces_for(&cst, r#"book(author("Anna"),year("1999"))"#);
        assert_eq!(pieces.len(), 2);
        let est = region(&cst, &query, &pieces, CountKind::Presence);
        assert!((est - 20.0).abs() < 4.0, "est = {est}");
    }

    #[test]
    fn estimate_region_star_sees_anticorrelation() {
        let cst = fixture();
        let (query, pieces) = pieces_for(&cst, r#"book(author("Anna"),year("2000"))"#);
        let est = region(&cst, &query, &pieces, CountKind::Presence);
        assert!(est < 3.0, "est = {est}");
    }

    #[test]
    fn conditional_independence_matches_mo_formula() {
        let cst = fixture();
        let (query, pieces) = pieces_for(&cst, r#"book(author("Anna"),year("1999"))"#);
        let ind = conditional_independence(&cst, &query, &pieces);
        // Cp(book)·(20/40)·(20/40) = 40/4 = 10.
        assert!((ind - 10.0).abs() < 1e-9, "ind = {ind}");
    }

    #[test]
    fn order_elements_sorts_singles_before_groups() {
        let cst = fixture();
        let (_, pieces) = pieces_for(&cst, r#"book(author("Anna"),year("1999"))"#);
        // A twiglet over both pieces at (0, 0), then the first piece
        // alone at the same position.
        let mut parts = Decomposition {
            pieces: vec![pieces[0]],
            chains: pieces.clone(),
            elements: vec![Element { is_group: true, first: 0, end: 2, position: (0, 0) }],
            ..Decomposition::default()
        };
        parts.finish();
        assert_eq!(parts.elements.len(), 2);
        assert!(!parts.elements[0].is_group);
        assert_eq!(parts.elements[0].chains(&parts.chains), &pieces[..1]);
        assert!(parts.elements[1].is_group);
    }

    #[test]
    fn combine_single_full_piece_returns_count() {
        let cst = fixture();
        let (query, pieces) = pieces_for(&cst, r#"book(author("Bo"))"#);
        let est = combine_singles(&cst, &query, &pieces);
        assert!((est - 20.0).abs() < 1e-9, "est = {est}");
    }

    #[test]
    fn combine_conditions_on_overlap() {
        // Manufactured parse of book.author.Anna as two overlapping
        // pieces: book.author + author.Anna → MO must condition on the
        // shared `author` unit: Cp(b.a)·Cp(a.Anna)/Cp(a) = 40·20/40 = 20.
        let cst = fixture();
        let (query, pieces) = pieces_for(&cst, r#"book(author("Anna"))"#);
        let full = &pieces[0];
        let make = |lo: usize, hi: usize| Piece {
            path: 0,
            start: lo,
            end: hi,
            trie: query.lookup(&cst, 0, lo, hi).expect("in unpruned CST"),
        };
        let head = make(0, 2); // book.author
        let tail = make(1, full.end); // author."Anna"
        let est = combine_singles(&cst, &query, &[head, tail]);
        assert!((est - 20.0).abs() < 1e-9, "est = {est}");
    }

    #[test]
    fn combine_skips_fully_covered_elements() {
        let cst = fixture();
        let (query, pieces) = pieces_for(&cst, r#"book(author("Anna"))"#);
        let est = combine_singles(&cst, &query, &[pieces[0], pieces[0]]);
        assert!((est - 20.0).abs() < 1e-9, "duplicate must contribute 1: {est}");
    }

    #[test]
    fn combine_zero_when_chain_absent() {
        let cst = fixture();
        let (query, mut pieces) = pieces_for(&cst, r#"book(author("Anna"))"#);
        // Zero out the count by pointing the piece at a chain whose
        // presence is 0 — simulate with an empty-element query instead:
        // an absent value prefix parses into pieces that never cover the
        // value units, so combine is not even reached; instead check the
        // numerator==0 path via a manufactured zero-presence chain.
        // The root node has presence 0 in the pruned trie.
        pieces[0].trie = twig_pst::TrieNodeId::ROOT;
        let est = combine_singles(&cst, &query, &pieces);
        assert_eq!(est, 0.0);
    }
}
