//! Query path parsing strategies (Sec. 3.3): maximal, piecewise-maximal
//! and greedy.
//!
//! Every strategy writes its pieces into a caller's buffer, so the
//! estimate path parses without allocating once its buffers are warm.
//! The maximal parse of a range stops at the first start whose longest
//! match reaches the range's end: no later start can add a piece, so
//! each query path is walked about once.

use twig_pst::TrieNodeId;
use twig_tree::Twig;

use crate::query::{CompiledQuery, Token, Unit, UnitSet};
use crate::summary::{Summary, TrieAccess};

/// A parsed subpath: a token range of one query path that exists in the
/// CST. Its units are `query.units(path)[start..end]`; a piece copies
/// nothing out of the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// Index of the query path, in query-DFS order.
    pub path: usize,
    /// Start token index (inclusive).
    pub start: usize,
    /// End token index (exclusive).
    pub end: usize,
    /// The CST node for exactly this token range.
    pub trie: TrieNodeId,
}

impl Piece {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Pieces are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The query units covered, in order.
    pub(crate) fn units<'q>(&self, query: &'q CompiledQuery) -> &'q [Unit] {
        query.units(self.path).get(self.start..self.end).unwrap_or(&[])
    }

    /// True when this piece's unit chain is contained in `other`'s.
    ///
    /// A unit's token index is its depth in the query tree, and two
    /// paths hold the same units up to where they diverge. So `other`
    /// contains this chain exactly when its range spans this one and
    /// its path holds this chain's last unit.
    pub(crate) fn contained_in(&self, other: &Piece, query: &CompiledQuery) -> bool {
        let Some(last) = self.end.checked_sub(1).filter(|&last| last >= self.start) else {
            return true; // the empty chain
        };
        other.start <= self.start
            && self.end <= other.end
            && query.units(self.path).get(last) == query.units(other.path).get(last)
    }

    /// True when both pieces cover the same unit chain.
    pub(crate) fn same_units(&self, other: &Piece, query: &CompiledQuery) -> bool {
        self.start == other.start && self.end == other.end && self.contained_in(other, query)
    }
}

/// The longest CST match of `path`'s tokens from `start`, ending by
/// `hi`: its end and trie node, or `None` when token `start` itself does
/// not match.
fn longest_match<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    path: usize,
    start: usize,
    hi: usize,
) -> Option<(usize, TrieNodeId)> {
    let trie = cst.trie();
    let mut node = TrieNodeId::ROOT;
    let matched = query
        .tokens(path)
        .get(start..hi)?
        .iter()
        .map_while(|token| match token {
            Token::Ok(token) => trie.child(node, token.edge()).map(|next| node = next),
            _ => None,
        })
        .count();
    Some((start.checked_add(matched)?, node)).filter(|_| matched > 0)
}

/// Maximal parsing of one token range: appends to `out` all matches not
/// contained in another match of the same range (the MO parse of
/// Jagadish, Ng & Srivastava, PODS 1999).
///
/// Starts are walked only up to the first one whose longest match
/// reaches `hi`. That is exact: a later start matches within a subrange
/// of `start..hi`, so its end cannot pass `hi`, and a piece is kept only
/// when its end passes every earlier one.
pub(crate) fn maximal_in_range<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    path: usize,
    lo: usize,
    hi: usize,
    out: &mut Vec<Piece>,
) {
    let mut best_end = lo;
    for start in lo..hi {
        if !matches!(query.tokens(path).get(start), Some(Token::Ok(_))) {
            continue;
        }
        // Keep only matches extending past everything seen: starts are
        // increasing, so `end > best_end` is exactly non-containment.
        if let Some((end, trie)) = longest_match(cst, query, path, start, hi) {
            if end > best_end {
                best_end = end;
                out.push(Piece { path, start, end, trie });
                if end == hi {
                    break;
                }
            }
        }
    }
}

/// Drops, in place, every item `contained` in another item; of two
/// items contained in each other the later one goes.
pub(crate) fn retain_maximal<T: Copy>(items: &mut Vec<T>, contained: impl Fn(&T, &T) -> bool) {
    // Kept items are compacted to `..kept`; the unvisited ones still sit
    // after the cursor.
    let mut kept = 0;
    for cursor in 0..items.len() {
        let Some((&item, later)) = items.get(cursor..).and_then(<[T]>::split_first) else {
            break;
        };
        let earlier = items.get(..kept).unwrap_or(&[]);
        let dropped = earlier.iter().any(|other| contained(&item, other))
            || later.iter().any(|other| contained(&item, other) && !contained(other, &item));
        if !dropped {
            if let Some(slot) = items.get_mut(kept) {
                *slot = item;
            }
            kept += 1;
        }
    }
    items.truncate(kept);
}

/// Removes pieces whose region is contained in another piece's region
/// (cross-path containment: the paper drops `a.b.c` when `a.b.c.d` from a
/// sibling path covers it) and exact duplicates from shared prefixes.
pub(crate) fn filter_contained(query: &CompiledQuery, pieces: &mut Vec<Piece>) {
    retain_maximal(pieces, |piece, other| piece.contained_in(other, query));
}

/// The **maximal** strategy: MO-parse every root-to-leaf path, then drop
/// cross-path contained pieces. Replaces the contents of `out`.
pub(crate) fn maximal_pieces<S: Summary>(cst: &S, query: &CompiledQuery, out: &mut Vec<Piece>) {
    out.clear();
    for path in 0..query.path_count() {
        maximal_in_range(cst, query, path, 0, query.tokens(path).len(), out);
    }
    filter_contained(query, out);
}

/// The **piecewise-maximal** strategy (PMOSH, Sec. 4.3): split each path
/// into segments at root/branch/leaf boundaries (segments share their
/// boundary node), MO-parse each segment independently. Replaces the
/// contents of `out`.
pub(crate) fn piecewise_maximal_pieces<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    twig: &Twig,
    out: &mut Vec<Piece>,
) {
    out.clear();
    for path in 0..query.path_count() {
        let units = query.units(path);
        let len = units.len();
        // Boundaries: start of path, every branch element, end of path.
        let branches = units.iter().enumerate().skip(1).filter_map(|(i, unit)| match unit {
            Unit::El(node) if twig.is_branch(*node) => Some(i),
            _ => None,
        });
        let mut boundaries = std::iter::once(0).chain(branches).chain([len.saturating_sub(1)]);
        let mut previous = boundaries.next().unwrap_or(0);
        let mut segments = 0;
        for boundary in boundaries {
            if boundary == previous {
                continue;
            }
            maximal_in_range(cst, query, path, previous, (boundary + 1).min(len), out);
            previous = boundary;
            segments += 1;
        }
        if segments == 0 {
            // Single-token path: one degenerate segment.
            maximal_in_range(cst, query, path, 0, len, out);
        }
    }
    filter_contained(query, out);
}

/// The **greedy** strategy of Krishnan, Vitter & Iyer (SIGMOD 1996):
/// non-overlapping longest matches, left to right, into `out`. Returns
/// false, with `out` empty, when some token cannot be matched at a
/// piece boundary (the estimate is then 0).
pub(crate) fn greedy_pieces<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    out: &mut Vec<Piece>,
) -> bool {
    out.clear();
    for path in 0..query.path_count() {
        let tokens = query.tokens(path);
        let mut i = 0;
        while let Some(token) = tokens.get(i) {
            match token {
                Token::Wild => {
                    i += 1;
                    continue;
                }
                Token::Unknown => {
                    out.clear();
                    return false;
                }
                Token::Ok(_) => {}
            }
            let Some((end, trie)) = longest_match(cst, query, path, i, tokens.len()) else {
                out.clear();
                return false;
            };
            let piece = Piece { path, start: i, end, trie };
            i = end;
            // Dedup shared-prefix pieces across paths.
            if !out.iter().any(|p| p.same_units(&piece, query)) {
                out.push(piece);
            }
        }
    }
    true
}

/// True when every coverable unit of the query is covered by some piece
/// (a gap means the true count is below the prune threshold; the
/// estimators return 0). `covered` is scratch.
pub(crate) fn covers_query(query: &CompiledQuery, pieces: &[Piece], covered: &mut UnitSet) -> bool {
    covered.clear();
    for piece in pieces {
        for &unit in piece.units(query) {
            covered.insert(query.unit_id(unit));
        }
    }
    query.coverable_units().all(|unit| covered.contains(query.unit_id(unit)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{Cst, CstConfig, SpaceBudget};
    use crate::summary::testing::Probe;
    use twig_datagen::{
        generate_dblp, negative_query_candidates, positive_queries, trivial_queries, DblpConfig,
        WorkloadConfig,
    };
    use twig_pst::PathToken;
    use twig_tree::DataTree;
    use twig_util::rng::SplitMix64;

    fn fixture() -> (DataTree, Cst) {
        let tree = DataTree::from_xml(concat!(
            "<dblp>",
            "<book><author>Anna</author><year>1999</year></book>",
            "<book><author>Anton</author><year>1999</year></book>",
            "<book><author>Bo</author><year>2000</year></book>",
            "</dblp>"
        ))
        .unwrap();
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() },
        )
        .expect("CST config is valid");
        (tree, cst)
    }

    fn compiled(cst: &Cst, expr: &str) -> (Twig, CompiledQuery) {
        let twig = Twig::parse(expr).unwrap();
        let query = CompiledQuery::compile(cst, &twig);
        (twig, query)
    }

    fn maximal(cst: &Cst, query: &CompiledQuery) -> Vec<Piece> {
        let mut pieces = Vec::new();
        maximal_pieces(cst, query, &mut pieces);
        pieces
    }

    fn covers(query: &CompiledQuery, pieces: &[Piece]) -> bool {
        covers_query(query, pieces, &mut UnitSet::default())
    }

    #[test]
    fn fully_present_path_is_one_piece() {
        let (_, cst) = fixture();
        let (_, query) = compiled(&cst, r#"dblp(book(author("An")))"#);
        let pieces = maximal(&cst, &query);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].len(), 5); // dblp book author 'A' 'n'
        assert!(covers(&query, &pieces));
    }

    #[test]
    fn unpruned_cst_covers_positive_queries() {
        let (_, cst) = fixture();
        let (_, query) = compiled(&cst, r#"book(author("Bo"),year("2000"))"#);
        let pieces = maximal(&cst, &query);
        assert!(covers(&query, &pieces));
    }

    #[test]
    fn shared_prefix_deduplicated() {
        let (_, cst) = fixture();
        let (_, query) = compiled(&cst, r#"dblp(book(author,year))"#);
        let pieces = maximal(&cst, &query);
        // dblp.book.author and dblp.book.year both fully present; neither
        // contains the other, both kept exactly once.
        assert_eq!(pieces.len(), 2);
    }

    #[test]
    fn absent_combination_parses_into_overlapping_pieces() {
        let (_, cst) = fixture();
        // author "Bo" exists, year 1999 exists, but "Bo"+"1999" books do
        // not — paths still parse individually.
        let (_, query) = compiled(&cst, r#"book(author("Bo"),year("1999"))"#);
        let pieces = maximal(&cst, &query);
        assert!(covers(&query, &pieces));
    }

    #[test]
    fn unknown_label_leaves_gap() {
        let (_, cst) = fixture();
        let (_, query) = compiled(&cst, "book(publisher)");
        let pieces = maximal(&cst, &query);
        assert!(!covers(&query, &pieces));
        let mut greedy = Vec::new();
        assert!(!greedy_pieces(&cst, &query, &mut greedy));
        assert!(greedy.is_empty());
    }

    #[test]
    fn pruned_cst_creates_overlapping_maximal_pieces() {
        let (tree, _) = fixture();
        // Aggressive pruning: only frequent subpaths survive.
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Threshold(3), ..CstConfig::default() },
        )
        .expect("CST config is valid");
        let (_, query) = compiled(&cst, r#"dblp(book(author))"#);
        let pieces = maximal(&cst, &query);
        // dblp.book.author has pc=3 so it's one piece even here.
        assert!(covers(&query, &pieces));
        for w in pieces.windows(2) {
            assert!(w[1].start <= w[0].end, "maximal pieces must chain");
        }
    }

    #[test]
    fn greedy_pieces_do_not_overlap() {
        let (_, cst) = fixture();
        let (_, query) = compiled(&cst, r#"book(author("An"),year("1999"))"#);
        let mut pieces = Vec::new();
        assert!(greedy_pieces(&cst, &query, &mut pieces));
        for w in pieces.windows(2) {
            if w[0].path == w[1].path {
                assert!(w[1].start >= w[0].end);
            }
        }
        assert!(covers(&query, &pieces));
    }

    #[test]
    fn piecewise_segments_at_branch() {
        let (_, cst) = fixture();
        let (twig, query) = compiled(&cst, r#"dblp(book(author("An"),year("1999")))"#);
        let mut pieces = Vec::new();
        piecewise_maximal_pieces(&cst, &query, &twig, &mut pieces);
        // Segments: dblp.book, book.author.An, book.year.1999 — pieces
        // cannot span the branch node `book` together with both sides.
        assert!(covers(&query, &pieces));
        let book_unit = query.units(0)[1];
        for piece in &pieces {
            let units = piece.units(&query);
            if units.contains(&book_unit) && piece.len() > 1 {
                // A piece through `book` stays within one segment: it may
                // not contain both an author unit and a year unit.
                let has_author = units.contains(&query.units(0)[2]);
                let has_year = units.contains(&query.units(1)[2]);
                assert!(!(has_author && has_year));
            }
        }
    }

    #[test]
    fn containment_filter_drops_nested() {
        let (_, cst) = fixture();
        let (_, query) = compiled(&cst, r#"dblp(book(author("An")))"#);
        let mut pieces = maximal(&cst, &query);
        // Manufacture a contained piece: the prefix of the full piece.
        let full = pieces[0];
        let sub = Piece {
            path: full.path,
            start: full.start,
            end: full.end - 1,
            trie: cst.trie().parent(full.trie).expect("full piece has depth > 1"),
        };
        pieces.insert(0, sub);
        pieces.push(full);
        filter_contained(&query, &mut pieces);
        assert_eq!(pieces, [full], "the prefix and the later duplicate both go");
    }

    #[test]
    fn containment_follows_units_across_paths() {
        let (_, cst) = fixture();
        let (_, query) = compiled(&cst, r#"dblp(book(author("An"),year("1999")))"#);
        let on = |path: usize, start: usize, end: usize| Piece {
            path,
            start,
            end,
            trie: twig_pst::TrieNodeId::ROOT,
        };
        // dblp.book is shared by both paths; book.author is not on the
        // year path.
        assert!(on(0, 0, 2).contained_in(&on(1, 0, 4), &query));
        assert!(on(0, 0, 2).same_units(&on(1, 0, 2), &query));
        assert!(!on(0, 1, 3).contained_in(&on(1, 0, 4), &query));
        assert!(!on(0, 0, 3).same_units(&on(1, 0, 3), &query));
        assert!(!on(0, 0, 3).contained_in(&on(0, 1, 5), &query), "range must span");
    }

    /// The maximal parse of `lo..hi` by brute force: every start walked
    /// to its longest match, found by looking up ever longer token ranges,
    /// and a match kept when its end passes the ends of all earlier ones.
    fn brute_force_maximal<S: Summary>(
        summary: &S,
        query: &CompiledQuery,
        path: usize,
        lo: usize,
        hi: usize,
    ) -> Vec<Piece> {
        let tokens = query.tokens(path);
        let node_of = |start: usize, end: usize| {
            let resolved: Option<Vec<PathToken>> = tokens[start..end]
                .iter()
                .map(|token| match token {
                    Token::Ok(token) => Some(*token),
                    _ => None,
                })
                .collect();
            summary.lookup(&resolved?)
        };
        let mut pieces = Vec::new();
        let mut best_end = lo;
        for start in lo..hi {
            let longest =
                (start + 1..=hi).map_while(|end| Some((end, node_of(start, end)?))).last();
            if let Some((end, trie)) = longest.filter(|&(end, _)| end > best_end) {
                best_end = end;
                pieces.push(Piece { path, start, end, trie });
            }
        }
        pieces
    }

    const LABELS: [&str; 9] =
        ["dblp", "article", "inproceedings", "book", "author", "title", "year", "cite", "ghost"];
    const VALUES: [&str; 8] = ["1", "19", "199", "20", "A", "Jo", "T", "zz"];

    /// A seeded twig of up to seven nodes over the DBLP-like vocabulary,
    /// with value leaves, wildcards and an absent label (`ghost`).
    fn random_twig(rng: &mut SplitMix64) -> Twig {
        let mut twig = Twig::with_root_element(LABELS[rng.index(LABELS.len())]);
        for _ in 0..rng.usize_in(1, 6) {
            let parent = twig_tree::TwigNodeId(rng.u32_in(0, twig.node_count() as u32 - 1));
            if twig.label(parent).is_value() {
                continue;
            }
            match rng.index(10) {
                0 => twig.add_child(parent, twig_tree::TwigLabel::Star),
                1..=3 => twig.add_value(parent, VALUES[rng.index(VALUES.len())]),
                _ => twig.add_element(parent, LABELS[rng.index(LABELS.len())]),
            };
        }
        twig
    }

    /// Checks `maximal_in_range` against the brute force on every range
    /// of every path of `twig`; returns how many ranges a full-range match
    /// ended before their last start.
    fn check_every_range<S: Summary>(summary: &S, twig: &Twig) -> usize {
        let query = CompiledQuery::compile(summary, twig);
        let mut stopped_early = 0;
        for path in 0..query.path_count() {
            let len = query.tokens(path).len();
            // Every range: the full path, each PMOSH segment and Leaf's
            // value range are among them.
            for lo in 0..len {
                for hi in lo + 1..=len {
                    // A piece already in the buffer stays: the parse appends.
                    let mut pieces = vec![Piece { path, start: 0, end: 0, trie: TrieNodeId::ROOT }];
                    maximal_in_range(summary, &query, path, lo, hi, &mut pieces);
                    let expected = brute_force_maximal(summary, &query, path, lo, hi);
                    assert_eq!(pieces[1..], expected, "{twig}: path {path}, range {lo}..{hi}");
                    let last_start =
                        (lo..hi).rev().find(|&i| matches!(query.tokens(path)[i], Token::Ok(_)));
                    let full = expected.last().filter(|piece| piece.end == hi);
                    if full.is_some_and(|piece| Some(piece.start) < last_start) {
                        stopped_early += 1;
                    }
                }
            }
        }
        let mut pieces = Vec::new();
        maximal_pieces(summary, &query, &mut pieces);
        let mut expected: Vec<Piece> = (0..query.path_count())
            .flat_map(|path| {
                brute_force_maximal(summary, &query, path, 0, query.tokens(path).len())
            })
            .collect();
        filter_contained(&query, &mut expected);
        assert_eq!(pieces, expected, "{twig}: maximal_pieces");
        stopped_early
    }

    #[test]
    fn maximal_in_range_equals_brute_force() {
        let xml = generate_dblp(&DblpConfig {
            target_bytes: 40_000,
            seed: 0x5eed_0021,
            ..DblpConfig::default()
        });
        let tree = DataTree::from_xml(&xml).unwrap();
        let cfg = WorkloadConfig { count: 15, seed: 21, ..WorkloadConfig::default() };
        let mut twigs = positive_queries(&tree, &cfg);
        twigs.extend(negative_query_candidates(&tree, &cfg));
        twigs.extend(trivial_queries(&tree, &cfg));
        let mut rng = SplitMix64::new(0x5eed_0021);
        twigs.extend((0..60).map(|_| random_twig(&mut rng)));
        for budget in [
            SpaceBudget::Threshold(1),
            SpaceBudget::Threshold(2),
            SpaceBudget::Fraction(0.1),
            SpaceBudget::Fraction(0.02),
        ] {
            let cst = Cst::build(&tree, &CstConfig { budget, ..CstConfig::default() }).unwrap();
            // The owned summary, then the same one with a quarter of its
            // edges hidden, as a damaged summary's child search reads.
            let damaged = Probe::new(&cst, 64);
            let stopped_early: usize = twigs
                .iter()
                .map(|twig| check_every_range(&cst, twig) + check_every_range(&damaged, twig))
                .sum();
            assert!(stopped_early > 0, "{budget:?}: no range stopped at a full-range match");
        }
    }

    #[test]
    fn wildcard_splits_parse() {
        let (_, cst) = fixture();
        let (_, query) = compiled(&cst, r#"dblp(*(author("An")))"#);
        let pieces = maximal(&cst, &query);
        // Two pieces: "dblp" and "author.An"; the wildcard is exempt.
        assert!(covers(&query, &pieces));
        assert!(pieces.iter().all(|p| p.units(&query).len() <= 3));
    }
}
