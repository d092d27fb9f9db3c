//! The six estimation algorithms (Sec. 4, Table 1).

use std::cell::RefCell;

use twig_pst::PathToken;
use twig_tree::{Twig, TwigLabel, TwigNodeId};
use twig_util::cast::{count_to_f64, size_to_f64};
use twig_util::Symbol;

use crate::combine::{combine, CombineScratch, Decomposition};
use crate::cst::Cst;
use crate::parse::{
    covers_query, greedy_pieces, maximal_in_range, maximal_pieces, piecewise_maximal_pieces, Piece,
};
use crate::plan::QueryPlan;
use crate::query::{CompiledQuery, Token};
use crate::summary::Summary;
use crate::twiglets::{mosh_twiglets, msh_twiglets};

/// Which count is being estimated (Sec. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountKind {
    /// Distinct data nodes rooting the twig (Definition 2).
    Presence,
    /// Total 1-1 mappings (Definition 3).
    Occurrence,
}

/// An estimation algorithm from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Baseline: ignores all structure, multiplies per-leaf-string MO
    /// estimates ("the count of `book.author.Stonebraker` is the MO
    /// estimate for `Stonebraker`").
    Leaf,
    /// Baseline: greedy non-overlapping parse, independence combination
    /// (Krishnan–Vitter–Iyer).
    Greedy,
    /// Maximal parse, MO conditioning, no correlations (Sec. 4.1).
    PureMo,
    /// Maximal overlap with set hashing (Sec. 4.2): deep but often skinny
    /// twiglets.
    Mosh,
    /// Piecewise MOSH (Sec. 4.3): bushy but often shallow twiglets.
    Pmosh,
    /// Maximal set hashing (Sec. 4.4): balances deep and bushy.
    Msh,
}

impl Algorithm {
    /// All algorithms in the paper's Table 1 order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Leaf,
        Algorithm::Greedy,
        Algorithm::PureMo,
        Algorithm::Mosh,
        Algorithm::Pmosh,
        Algorithm::Msh,
    ];

    /// True for the algorithms that consume set-hash signatures (MOSH,
    /// PMOSH, MSH). The others run against a signature-free summary.
    pub fn uses_signatures(self) -> bool {
        matches!(self, Algorithm::Mosh | Algorithm::Pmosh | Algorithm::Msh)
    }

    /// Position in [`Algorithm::ALL`] (the plan's answer row).
    pub(crate) fn index(self) -> usize {
        match self {
            Algorithm::Leaf => 0,
            Algorithm::Greedy => 1,
            Algorithm::PureMo => 2,
            Algorithm::Mosh => 3,
            Algorithm::Pmosh => 4,
            Algorithm::Msh => 5,
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Leaf => "Leaf",
            Algorithm::Greedy => "Greedy",
            Algorithm::PureMo => "MO",
            Algorithm::Mosh => "MOSH",
            Algorithm::Pmosh => "PMOSH",
            Algorithm::Msh => "MSH",
        }
    }

    /// The qualitative property row of the paper's Table 1:
    /// `(path info stored, correlations stored, twiglet shape,
    /// combination technique)`.
    pub fn properties(self) -> (&'static str, &'static str, &'static str, &'static str) {
        match self {
            Algorithm::Leaf => ("Not stored", "Not stored", "Single path", "MO"),
            Algorithm::Greedy => ("Stored", "Not stored", "Single path", "Greedy"),
            Algorithm::PureMo => ("Stored", "Not stored", "Single path", "MO"),
            Algorithm::Mosh => ("Stored", "Stored", "Deep but often skinny", "MO"),
            Algorithm::Pmosh => ("Stored", "Stored", "Bushy but often shallow", "MO"),
            Algorithm::Msh => ("Stored", "Stored", "Balance between deep and bushy", "MO"),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Cst {
    /// Estimates the number of matches of `twig` using `algorithm`.
    ///
    /// Returns a non-negative count estimate; 0.0 when some required query
    /// piece is absent from the summary (its true count is below the prune
    /// threshold).
    pub fn estimate(&self, twig: &Twig, algorithm: Algorithm, kind: CountKind) -> f64 {
        estimate_summary(self, twig, algorithm, kind)
    }

    /// The estimate before the sibling-multiplicity discount — the
    /// paper-literal combination result.
    ///
    /// With `plan: Some(_)`, the answer is the [`QueryPlan`]'s
    /// `(algorithm, kind)` slot, filled on first use by the plan-free
    /// path, so a repeat runs no estimator and the result is bit-identical
    /// with and without a plan. The plan must belong to this summary and
    /// this twig: it answers for the pair of its first use.
    pub fn estimate_raw(
        &self,
        twig: &Twig,
        algorithm: Algorithm,
        kind: CountKind,
        plan: Option<&QueryPlan>,
    ) -> f64 {
        estimate_raw_summary(self, twig, algorithm, kind, plan)
    }

    /// The sibling-injectivity correction (an implementation refinement
    /// beyond the paper; see DESIGN.md §3).
    ///
    /// A twig match maps sibling query nodes to *distinct* data children
    /// (Definition 1), but the combination formulae treat legs
    /// independently: a query with two same-labeled legs under one parent
    /// (`cite(year("1"),year("19"))`) is priced as if one `year` child
    /// could serve both. The CST knows the average sibling multiplicity
    /// `m = Co/Cp` of each `parent.child` label pair, so each group of
    /// `k ≥ 2` same-labeled sibling legs is discounted by the injective
    /// assignment ratio `m·(m−1)·…·(m−k+1) / m^k` — exactly 0 when the
    /// data never has `k` such children (the dominant failure mode of the
    /// glued negative workload), and a mild correction otherwise (three
    /// authors, two author legs: `(3·2)/3² = 2/3`).
    ///
    /// Applied uniformly to every algorithm so their relative comparison
    /// is unaffected.
    pub fn sibling_discount(&self, twig: &Twig) -> f64 {
        sibling_discount_summary(self, twig)
    }

    /// Convenience: estimates with every algorithm, in [`Algorithm::ALL`]
    /// order.
    pub fn estimate_all(&self, twig: &Twig, kind: CountKind) -> [(Algorithm, f64); 6] {
        Algorithm::ALL.map(|algo| (algo, self.estimate(twig, algo, kind)))
    }

    /// Did MOSH and MSH decompose this query into different twiglets?
    /// (Drives the Fig. 5(b) / Fig. 6(a) experiments.)
    pub fn parses_differently(&self, twig: &Twig) -> bool {
        let query = CompiledQuery::compile(self, twig);
        let mut mosh = Decomposition::default();
        maximal_pieces(self, &query, &mut mosh.pieces);
        let mut msh = Decomposition { pieces: mosh.pieces.clone(), ..Decomposition::default() };
        mosh_twiglets(&query, &mut mosh);
        msh_twiglets(self, &query, &mut msh);
        if mosh.elements.len() != msh.elements.len() {
            return true;
        }
        // Compare at chain granularity: two decompositions can cover the
        // same query units with different chain sets (MSH adds suffix
        // chains), and that is a different parse.
        let canon = |parts: &Decomposition| {
            let mut twiglets: Vec<Vec<&[crate::query::Unit]>> = parts
                .elements
                .iter()
                .map(|twiglet| {
                    let mut chains: Vec<_> =
                        twiglet.chains(&parts.chains).iter().map(|c| c.units(&query)).collect();
                    chains.sort();
                    chains
                })
                .collect();
            twiglets.sort();
            twiglets
        };
        canon(&mosh) != canon(&msh)
    }
}

/// Estimates the number of matches of `twig` in the tree summarized by
/// any [`Summary`] — the generic form of [`Cst::estimate`], shared with
/// the zero-copy flat summary.
pub fn estimate_summary<S: Summary>(
    summary: &S,
    twig: &Twig,
    algorithm: Algorithm,
    kind: CountKind,
) -> f64 {
    estimate_raw_summary(summary, twig, algorithm, kind, None)
        * sibling_discount_summary(summary, twig)
}

/// The estimate before the sibling-multiplicity discount — the generic
/// form of [`Cst::estimate_raw`]. With `plan: Some(_)`, the answer is the
/// [`QueryPlan`]'s `(algorithm, kind)` slot, filled on first use by the
/// plan-free path, so the result is bit-identical with and without a
/// plan; the plan must belong to this summary and this twig.
pub fn estimate_raw_summary<S: Summary>(
    summary: &S,
    twig: &Twig,
    algorithm: Algorithm,
    kind: CountKind,
    plan: Option<&QueryPlan>,
) -> f64 {
    match plan {
        Some(plan) => {
            plan.answer_or_init(algorithm, kind, || compute_raw(summary, twig, algorithm, kind))
        }
        None => compute_raw(summary, twig, algorithm, kind),
    }
}

/// The sibling-injectivity correction — the generic form of
/// [`Cst::sibling_discount`] (see that method for the rationale).
///
/// Only an element parent with two element children of the same label
/// resolves symbols and looks up a `parent.child` pair; for any other
/// twig the discount only compares sibling labels. Nothing allocates.
/// Parents are visited in id order and each label group at its first
/// member, so the factors multiply in a fixed order.
pub fn sibling_discount_summary<S: Summary>(summary: &S, twig: &Twig) -> f64 {
    let element_label = |node: TwigNodeId| match twig.label(node) {
        TwigLabel::Element(label) => Some(label),
        _ => None,
    };
    let mut discount = 1.0;
    for idx in 0..twig.node_count() as u32 {
        let parent = TwigNodeId(idx);
        let children = twig.children(parent);
        if children.len() < 2 {
            continue; // no label can repeat
        }
        let Some(parent_label) = element_label(parent) else {
            continue;
        };
        // Resolved at the parent's first repeated label, if it has one.
        let mut parent_sym = None;
        for (i, &child) in children.iter().enumerate() {
            let Some(label) = element_label(child) else {
                continue;
            };
            let same_label = |&sibling: &TwigNodeId| element_label(sibling) == Some(label);
            if children.iter().take(i).any(same_label) {
                continue; // the group was priced at its first member
            }
            let k = children.iter().skip(i).filter(|sibling| same_label(sibling)).count();
            if k < 2 {
                continue;
            }
            if parent_sym.is_none() {
                parent_sym = summary.symbol(parent_label);
            }
            let Some(parent_sym) = parent_sym else {
                break; // an unknown parent label gives no evidence
            };
            if let Some(factor) = group_factor(summary, parent_sym, label, k) {
                discount *= factor;
            }
        }
    }
    discount
}

/// The injective assignment ratio `m·(m−1)·…·(m−k+1) / m^k` of `k`
/// same-labeled legs under a `parent` element, with `m = Co/Cp` of the
/// `parent.child` pair; `None` when the summary holds no evidence.
fn group_factor<S: Summary>(
    summary: &S,
    parent: Symbol,
    child_label: &str,
    k: usize,
) -> Option<f64> {
    let child = summary.symbol(child_label)?;
    // A pair below threshold: no evidence, no discount.
    let node = summary.lookup(&[PathToken::Element(parent), PathToken::Element(child)])?;
    let cp = count_to_f64(summary.presence(node));
    let co = count_to_f64(summary.occurrence(node));
    if cp <= 0.0 {
        return None;
    }
    let multiplicity = co / cp;
    let mut factor = 1.0;
    for i in 0..k {
        factor *= (multiplicity - size_to_f64(i)).max(0.0) / multiplicity;
    }
    Some(factor)
}

/// Reusable per-thread buffers of the estimate path: the compiled query,
/// its decomposition and the combination's temporaries. Kept in a
/// thread-local so concurrent estimates (server workers) never contend,
/// and cleared — never shrunk — between uses, so a warm miss allocates
/// only what the set-hash kernels need.
#[derive(Default)]
struct EstimateScratch {
    query: CompiledQuery,
    parts: Decomposition,
    combine: CombineScratch,
}

thread_local! {
    static SCRATCH: RefCell<EstimateScratch> = RefCell::new(EstimateScratch::default());
}

/// Runs `algorithm` from scratch: compile the twig against the summary,
/// parse and group its pieces, combine over the counts of `kind`. The
/// plan-free path and a plan's first fill both run exactly this.
fn compute_raw<S: Summary>(cst: &S, twig: &Twig, algorithm: Algorithm, kind: CountKind) -> f64 {
    SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut scratch) => scratch.run(cst, twig, algorithm, kind),
        // Re-entered on this thread: run on fresh buffers.
        Err(_) => EstimateScratch::default().run(cst, twig, algorithm, kind),
    })
}

impl EstimateScratch {
    fn run<S: Summary>(
        &mut self,
        cst: &S,
        twig: &Twig,
        algorithm: Algorithm,
        kind: CountKind,
    ) -> f64 {
        let EstimateScratch { query, parts, combine: temps } = self;
        query.recompile(cst, twig);
        match algorithm {
            Algorithm::Leaf => run_leaf(cst, query, kind, &mut parts.pieces),
            Algorithm::Greedy => {
                let parsed = greedy_pieces(cst, query, &mut parts.pieces);
                run_greedy(cst, parsed.then_some(parts.pieces.as_slice()), kind)
            }
            // No elements: the parse does not cover the query (estimate 0).
            _ if decompose(cst, query, twig, algorithm, parts) => {
                combine(cst, query, parts, kind, temps, None)
            }
            _ => 0.0,
        }
    }
}

/// Parses `query` for `algorithm` and assembles its combination elements
/// into `parts`, in combination order: MO's pieces each stand alone;
/// MOSH and PMOSH group pieces into twiglets and keep the rest alone;
/// MSH adds suffix twiglets beside its pieces. Returns false when the
/// parse leaves a query unit uncovered (the estimate is then 0). The
/// estimate path and [`Cst::explain`] both assemble through here; Leaf
/// and Greedy combine no elements and get MO's.
pub(crate) fn decompose<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    twig: &Twig,
    algorithm: Algorithm,
    parts: &mut Decomposition,
) -> bool {
    parts.clear();
    match algorithm {
        Algorithm::Pmosh => piecewise_maximal_pieces(cst, query, twig, &mut parts.pieces),
        _ => maximal_pieces(cst, query, &mut parts.pieces),
    }
    if !covers_query(query, &parts.pieces, &mut parts.covered) {
        return false;
    }
    match algorithm {
        Algorithm::Mosh | Algorithm::Pmosh => mosh_twiglets(query, parts),
        Algorithm::Msh => msh_twiglets(cst, query, parts),
        _ => {}
    }
    parts.finish();
    true
}

/// The Leaf baseline: per value leaf, MO-estimate the leaf string from
/// pure string-fragment statistics, multiply the per-leaf probabilities.
/// `pieces` is scratch.
fn run_leaf<S: Summary>(
    cst: &S,
    query: &CompiledQuery,
    kind: CountKind,
    pieces: &mut Vec<Piece>,
) -> f64 {
    let n = count_to_f64(cst.n());
    if n == 0.0 {
        return 0.0;
    }
    let mut result = n;
    for path in 0..query.path_count() {
        let tokens = query.tokens(path);
        // The value char range, if this path ends in a value leaf.
        let Some(first_char) =
            tokens.iter().position(|t| matches!(t, Token::Ok(PathToken::Char(_))))
        else {
            continue;
        };
        let len = tokens.len();
        // Coverage of the string.
        let mut covered_to = first_char;
        let mut prob = 1.0;
        pieces.clear();
        maximal_in_range(cst, query, path, first_char, len, pieces);
        for piece in pieces.iter() {
            if piece.start > covered_to {
                return 0.0; // gap: fragment below threshold
            }
            let count = match kind {
                CountKind::Presence => count_to_f64(cst.presence(piece.trie)),
                CountKind::Occurrence => count_to_f64(cst.occurrence(piece.trie)),
            };
            if count == 0.0 {
                return 0.0;
            }
            let overlap = covered_to.saturating_sub(piece.start);
            let denom = if overlap == 0 {
                n
            } else {
                // The value range holds only resolved char tokens; an
                // unresolved token here means the query compiler changed
                // under us, and the conditioning falls back to `n`.
                match query.lookup(cst, path, piece.start, piece.start + overlap) {
                    Some(node) => (match kind {
                        CountKind::Presence => count_to_f64(cst.presence(node)),
                        CountKind::Occurrence => count_to_f64(cst.occurrence(node)),
                    })
                    .max(count),
                    None => n,
                }
            };
            prob *= count / denom;
            covered_to = piece.end;
        }
        if covered_to < len {
            return 0.0;
        }
        result *= prob;
    }
    result
}

/// The Greedy baseline: greedy parse, independence combination.
fn run_greedy<S: Summary>(cst: &S, pieces: Option<&[Piece]>, kind: CountKind) -> f64 {
    let n = count_to_f64(cst.n());
    if n == 0.0 {
        return 0.0;
    }
    let Some(pieces) = pieces else {
        return 0.0;
    };
    let mut result = n;
    for piece in pieces {
        let count = match kind {
            CountKind::Presence => count_to_f64(cst.presence(piece.trie)),
            CountKind::Occurrence => count_to_f64(cst.occurrence(piece.trie)),
        };
        result *= count / n;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{CstConfig, SpaceBudget};
    use twig_tree::DataTree;

    /// A corpus with strong author↔year correlation: "Anna" books are
    /// always 1999, "Bo" books always 2000.
    fn corpus() -> DataTree {
        let mut xml = String::from("<dblp>");
        for _ in 0..20 {
            xml.push_str("<book><author>Anna</author><year>1999</year></book>");
        }
        for _ in 0..20 {
            xml.push_str("<book><author>Bo</author><year>2000</year></book>");
        }
        for _ in 0..10 {
            xml.push_str("<book><author>Cleo</author><year>1999</year></book>");
        }
        xml.push_str("</dblp>");
        DataTree::from_xml(&xml).unwrap()
    }

    fn full_cst(tree: &DataTree) -> Cst {
        Cst::build(
            tree,
            &CstConfig {
                budget: SpaceBudget::Threshold(1),
                signature_len: 128,
                ..CstConfig::default()
            },
        )
        .expect("CST config is valid")
    }

    fn q(expr: &str) -> Twig {
        Twig::parse(expr).unwrap()
    }

    #[test]
    fn trivial_path_query_is_exact_with_full_cst() {
        let tree = corpus();
        let cst = full_cst(&tree);
        let query = q(r#"book(author("Anna"))"#);
        for algo in [Algorithm::Greedy, Algorithm::PureMo, Algorithm::Mosh, Algorithm::Msh] {
            let est = cst.estimate(&query, algo, CountKind::Presence);
            assert!((est - 20.0).abs() < 1e-9, "{algo}: {est}");
        }
    }

    #[test]
    fn correlated_twig_mosh_beats_mo() {
        let tree = corpus();
        let cst = full_cst(&tree);
        // Anna & 1999 are perfectly correlated: true count 20. Pure MO
        // assumes independence below `book`: 50·(20/50)·(30/50) = 12.
        let query = q(r#"book(author("Anna"),year("1999"))"#);
        let truth = 20.0;
        let mo = cst.estimate(&query, Algorithm::PureMo, CountKind::Presence);
        let mosh = cst.estimate(&query, Algorithm::Mosh, CountKind::Presence);
        let msh = cst.estimate(&query, Algorithm::Msh, CountKind::Presence);
        assert!((mo - 12.0).abs() < 2.0, "mo = {mo}");
        assert!((mosh - truth).abs() < 3.0, "mosh = {mosh}");
        assert!((msh - truth).abs() < 3.0, "msh = {msh}");
        assert!((mosh - truth).abs() < (mo - truth).abs());
    }

    #[test]
    fn anticorrelated_twig_estimated_near_zero_by_sethash() {
        let tree = corpus();
        let cst = full_cst(&tree);
        // Anna books are never 2000: truth 0. MO estimates
        // 50·(20/50)·(20/50) = 8; MOSH's intersection should be ~0.
        let query = q(r#"book(author("Anna"),year("2000"))"#);
        let mo = cst.estimate(&query, Algorithm::PureMo, CountKind::Presence);
        let mosh = cst.estimate(&query, Algorithm::Mosh, CountKind::Presence);
        assert!(mo > 4.0, "mo = {mo}");
        assert!(mosh < 2.0, "mosh = {mosh}");
    }

    #[test]
    fn all_algorithms_nonnegative_and_finite() {
        let tree = corpus();
        let cst = full_cst(&tree);
        for expr in [
            r#"book(author("Anna"),year("1999"))"#,
            r#"dblp(book(author("Bo"),year("2000")))"#,
            r#"book(author("Zz"),year("1850"))"#,
            "book(author,year)",
            r#"author("Cleo")"#,
        ] {
            let query = q(expr);
            for kind in [CountKind::Presence, CountKind::Occurrence] {
                for algo in Algorithm::ALL {
                    let est = cst.estimate(&query, algo, kind);
                    assert!(est.is_finite() && est >= 0.0, "{algo} {expr}: {est}");
                }
            }
        }
    }

    #[test]
    fn unknown_label_estimates_zero() {
        let tree = corpus();
        let cst = full_cst(&tree);
        let query = q(r#"book(publisher("X"))"#);
        for algo in [Algorithm::Greedy, Algorithm::PureMo, Algorithm::Mosh, Algorithm::Msh] {
            assert_eq!(cst.estimate(&query, algo, CountKind::Presence), 0.0, "{algo}");
        }
    }

    #[test]
    fn leaf_ignores_structure() {
        let tree = corpus();
        let cst = full_cst(&tree);
        // Leaf's estimate for book(author("Anna")) is the global MO count
        // of the string "Anna" — identical to dblp(...) wrapping.
        let est1 =
            cst.estimate(&q(r#"book(author("Anna"))"#), Algorithm::Leaf, CountKind::Presence);
        let est2 =
            cst.estimate(&q(r#"dblp(book(author("Anna")))"#), Algorithm::Leaf, CountKind::Presence);
        assert!((est1 - est2).abs() < 1e-9);
        assert!(est1 > 0.0);
    }

    #[test]
    fn occurrence_exceeds_presence_on_multisets() {
        let mut xml = String::from("<dblp>");
        for _ in 0..10 {
            xml.push_str("<book><author>Anna</author><author>Bo</author><year>1999</year></book>");
        }
        xml.push_str("</dblp>");
        let tree = DataTree::from_xml(&xml).unwrap();
        let cst = full_cst(&tree);
        let query = q("book(author)");
        let presence = cst.estimate(&query, Algorithm::Mosh, CountKind::Presence);
        let occurrence = cst.estimate(&query, Algorithm::Mosh, CountKind::Occurrence);
        assert!((presence - 10.0).abs() < 1.0, "presence = {presence}");
        assert!((occurrence - 20.0).abs() < 2.0, "occurrence = {occurrence}");
    }

    #[test]
    fn paper_section5_occurrence_example() {
        // Figure 1 numbers: presence of the twiglet ≈ 3, Co/Cp for
        // book.author = 6/3, for book.year.Y1 = 3/3 → occurrence ≈ 6.
        let xml = concat!(
            "<dblp>",
            "<book><author>A1</author><title>T1</title><year>Y1</year></book>",
            "<book><author>A1</author><author>A2</author><title>T2</title><year>Y1</year></book>",
            "<book><author>A1</author><author>A2</author><author>A3</author><title>T3</title><year>Y1</year></book>",
            "</dblp>"
        );
        let tree = DataTree::from_xml(xml).unwrap();
        let cst = full_cst(&tree);
        let query = q(r#"book(author,year("Y1"))"#);
        let occurrence = cst.estimate(&query, Algorithm::Mosh, CountKind::Occurrence);
        assert!((occurrence - 6.0).abs() < 1.5, "occurrence = {occurrence}");
    }

    #[test]
    fn estimate_all_returns_all_six() {
        let tree = corpus();
        let cst = full_cst(&tree);
        let results = cst.estimate_all(&q(r#"book(author("Anna"))"#), CountKind::Presence);
        assert_eq!(results.len(), 6);
        assert_eq!(results[0].0, Algorithm::Leaf);
        assert_eq!(results[5].0, Algorithm::Msh);
    }

    #[test]
    fn table1_properties_match_paper() {
        assert_eq!(Algorithm::Leaf.properties().0, "Not stored");
        assert_eq!(Algorithm::Greedy.properties().3, "Greedy");
        assert_eq!(Algorithm::Msh.properties().2, "Balance between deep and bushy");
        for algo in Algorithm::ALL {
            if algo != Algorithm::Greedy {
                assert_eq!(algo.properties().3, "MO");
            }
        }
    }

    #[test]
    fn pruned_cst_still_estimates() {
        let tree = corpus();
        let cst = Cst::build(
            &tree,
            &CstConfig { budget: SpaceBudget::Fraction(0.05), ..CstConfig::default() },
        )
        .expect("CST config is valid");
        let query = q(r#"book(author("Anna"),year("1999"))"#);
        for algo in Algorithm::ALL {
            let est = cst.estimate(&query, algo, CountKind::Presence);
            assert!(est.is_finite() && est >= 0.0, "{algo}: {est}");
        }
    }
}

#[cfg(test)]
mod discount_tests {
    use super::*;
    use crate::cst::{CstConfig, SpaceBudget};
    use crate::summary::testing::Probe;
    use twig_tree::{DataTree, Twig};

    fn cst_for(xml: &str) -> Cst {
        let tree = DataTree::from_xml(xml).unwrap();
        Cst::build(&tree, &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() })
            .expect("CST config is valid")
    }

    #[test]
    fn no_duplicate_siblings_means_no_discount() {
        let cst = cst_for("<r><b><x>1</x><y>2</y></b><b><x>1</x><y>3</y></b></r>");
        let twig = Twig::parse(r#"b(x("1"),y("2"))"#).unwrap();
        assert_eq!(cst.sibling_discount(&twig), 1.0);
    }

    #[test]
    fn impossible_duplicate_requirement_discounts_to_zero() {
        // Every b has exactly one x child → a query wanting two distinct
        // x children can never match.
        let cst = cst_for("<r><b><x>1</x></b><b><x>2</x></b><b><x>3</x></b></r>");
        let twig = Twig::parse(r#"b(x("1"),x)"#).unwrap();
        assert_eq!(cst.sibling_discount(&twig), 0.0);
        assert_eq!(cst.estimate(&twig, Algorithm::Mosh, CountKind::Occurrence), 0.0);
    }

    #[test]
    fn multiset_duplicate_requirement_gets_injective_ratio() {
        // Every b has exactly three x children → m = 3, k = 2:
        // discount (3·2)/9 = 2/3.
        let mut xml = String::from("<r>");
        for i in 0..9 {
            xml.push_str(&format!("<b><x>v{}</x><x>w{}</x><x>u{}</x></b>", i % 3, i % 3, i % 3));
        }
        xml.push_str("</r>");
        let cst = cst_for(&xml);
        let twig = Twig::parse("b(x,x)").unwrap();
        let discount = cst.sibling_discount(&twig);
        assert!((discount - 2.0 / 3.0).abs() < 1e-9, "discount = {discount}");
        // And the occurrence estimate matches the exact injective count:
        // per b: 3·2 = 6 ordered pairs; 9 b's → 54.
        let est = cst.estimate(&twig, Algorithm::Mosh, CountKind::Occurrence);
        assert!((est - 54.0).abs() < 8.0, "est = {est}");
    }

    #[test]
    fn discount_applies_per_label_group() {
        // Two groups: x (m=1, k=2 → 0) would zero; but x (k=1) and y
        // (k=1) leave 1.0.
        let cst = cst_for("<r><b><x>1</x><y>1</y></b><b><x>2</x><y>2</y></b></r>");
        let single = Twig::parse("b(x,y)").unwrap();
        assert_eq!(cst.sibling_discount(&single), 1.0);
        let double_y = Twig::parse("b(x,y,y)").unwrap();
        assert_eq!(cst.sibling_discount(&double_y), 0.0);
    }

    /// The discount as first written: resolve every element parent's
    /// label, group its element children by label in first-appearance
    /// order, and price every group of two or more.
    fn resolve_every_label<S: Summary>(summary: &S, twig: &Twig) -> f64 {
        let mut discount = 1.0;
        for idx in 0..twig.node_count() as u32 {
            let parent = TwigNodeId(idx);
            let TwigLabel::Element(parent_label) = twig.label(parent) else {
                continue;
            };
            let Some(parent_sym) = summary.symbol(parent_label) else {
                continue;
            };
            let mut groups: Vec<(&str, usize)> = Vec::new();
            for &child in twig.children(parent) {
                let TwigLabel::Element(child_label) = twig.label(child) else {
                    continue;
                };
                match groups.iter_mut().find(|(label, _)| *label == child_label) {
                    Some((_, count)) => *count += 1,
                    None => groups.push((child_label, 1)),
                }
            }
            for (child_label, k) in groups {
                let Some(child_sym) = summary.symbol(child_label).filter(|_| k >= 2) else {
                    continue;
                };
                let pair = [PathToken::Element(parent_sym), PathToken::Element(child_sym)];
                let Some(node) = summary.lookup(&pair) else {
                    continue;
                };
                let cp = count_to_f64(summary.presence(node));
                let co = count_to_f64(summary.occurrence(node));
                if cp <= 0.0 {
                    continue;
                }
                let multiplicity = co / cp;
                let mut factor = 1.0;
                for i in 0..k {
                    factor *= (multiplicity - size_to_f64(i)).max(0.0) / multiplicity;
                }
                discount *= factor;
            }
        }
        discount
    }

    fn has_repeated_sibling_label(twig: &Twig) -> bool {
        (0..twig.node_count() as u32).any(|idx| {
            let labels: Vec<TwigLabel> = twig
                .children(TwigNodeId(idx))
                .iter()
                .map(|&child| twig.label(child))
                .filter(|label| matches!(label, TwigLabel::Element(_)))
                .collect();
            labels.iter().enumerate().any(|(i, label)| labels[..i].contains(label))
        })
    }

    /// Twigs over the DBLP-like vocabulary, with and without repeated
    /// sibling labels. On the `Threshold(1)` summary of the test corpus
    /// the last three round differently when their factors multiply in
    /// another order.
    const SIBLING_TWIGS: [&str; 17] = [
        "article(title,year)",
        r#"article(author("A"),journal,year("19"))"#,
        "article(author,author)",
        "article(author,author,author)",
        "inproceedings(author,booktitle,author)",
        "article(author,author,title,title,year)",
        r#"article(author("A"),author("B"),cite(author,author))"#,
        "dblp(article(author,author),article(author,author,author))",
        "dblp(article(author,author,author),inproceedings(author,author),book(author,author))",
        "dblp(article(title,title),article(year,year),inproceedings(author,author,author))",
        "book(*,*,author,author)",
        "article(ghost,ghost)",
        "ghost(author,author)",
        "article(ghost,ghost,author,author,author)",
        "dblp(article(author,author),article(author,author),article(author,author))",
        "dblp(article(author,author),article(author,author,cite,cite))",
        "dblp(inproceedings(author,author,cite,cite),article(author,author,cite,cite))",
    ];

    fn dblp_cst(budget: SpaceBudget) -> (DataTree, Cst) {
        let xml = twig_datagen::generate_dblp(&twig_datagen::DblpConfig {
            target_bytes: 60_000,
            seed: 0x5eed_0021,
            ..twig_datagen::DblpConfig::default()
        });
        let tree = DataTree::from_xml(&xml).unwrap();
        let cst = Cst::build(&tree, &CstConfig { budget, ..CstConfig::default() }).unwrap();
        (tree, cst)
    }

    #[test]
    fn discount_equals_resolve_every_label() {
        let mut discounted = 0;
        for budget in [SpaceBudget::Threshold(1), SpaceBudget::Fraction(0.02)] {
            let (tree, cst) = dblp_cst(budget);
            let cfg = twig_datagen::WorkloadConfig { count: 40, seed: 21, ..Default::default() };
            let mut twigs: Vec<Twig> =
                SIBLING_TWIGS.iter().map(|text| Twig::parse(text).unwrap()).collect();
            twigs.extend(twig_datagen::negative_query_candidates(&tree, &cfg));
            twigs.extend(twig_datagen::positive_queries(&tree, &cfg));
            for twig in &twigs {
                let owned = sibling_discount_summary(&cst, twig);
                assert_eq!(owned.to_bits(), resolve_every_label(&cst, twig).to_bits(), "{twig}");
                // Hidden pairs give no evidence, as a damaged summary's do.
                let damaged = Probe::new(&cst, 96);
                let expected = resolve_every_label(&damaged, twig);
                assert_eq!(sibling_discount_summary(&damaged, twig).to_bits(), expected.to_bits());
                discounted += usize::from(owned != 1.0);
            }
        }
        assert!(discounted >= 10, "only {discounted} twigs were discounted");
    }

    #[test]
    fn discount_resolves_no_label_without_a_repeated_sibling_label() {
        let (tree, cst) = dblp_cst(SpaceBudget::Threshold(1));
        let cfg = twig_datagen::WorkloadConfig { count: 40, seed: 22, ..Default::default() };
        let mut twigs: Vec<Twig> =
            SIBLING_TWIGS.iter().map(|text| Twig::parse(text).unwrap()).collect();
        twigs.extend(twig_datagen::positive_queries(&tree, &cfg));
        let (mut plain, mut repeated) = (0, 0);
        for twig in &twigs {
            let probe = Probe::new(&cst, 0);
            sibling_discount_summary(&probe, twig);
            let calls = probe.symbol_calls.get();
            if has_repeated_sibling_label(twig) {
                assert!(calls > 0, "{twig}: a repeated label must be priced");
                repeated += 1;
            } else {
                assert_eq!(calls, 0, "{twig}: resolved {calls} labels");
                plain += 1;
            }
        }
        assert!(plain >= 10 && repeated >= 10, "{plain} plain, {repeated} repeated twigs");
    }

    #[test]
    fn estimate_raw_skips_discount() {
        let cst = cst_for("<r><b><x>1</x></b><b><x>2</x></b></r>");
        let twig = Twig::parse("b(x,x)").unwrap();
        assert_eq!(cst.estimate(&twig, Algorithm::PureMo, CountKind::Occurrence), 0.0);
        assert!(cst.estimate_raw(&twig, Algorithm::PureMo, CountKind::Occurrence, None) > 0.0);
    }
}
