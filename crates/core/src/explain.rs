//! Estimation explanations: *why* did the estimator produce this number?
//!
//! [`Cst::explain`] re-runs the full pipeline of one estimate with a trace
//! sink attached and returns an [`Explanation`]: the parsed subpaths with
//! their CST counts, the twiglet decomposition, every multiplicative
//! factor of the MO combination (numerator, conditioning overlap,
//! denominator), the sibling discount, and the final number. The
//! `Display` impl prints a compact human-readable report — the shape of
//! thing a query optimizer's `EXPLAIN` would show for a cardinality
//! estimate.

use std::fmt;

use twig_pst::PathToken;
use twig_tree::Twig;

use crate::combine::{combine, CombineScratch, Decomposition, Factor};
use crate::cst::Cst;
use crate::estimate::{decompose, Algorithm, CountKind};
use crate::parse::{covers_query, greedy_pieces, maximal_pieces, Piece};
use crate::query::CompiledQuery;

/// A rendered view of one parsed subpath.
#[derive(Debug, Clone)]
pub struct ExplainedPiece {
    /// Dotted subpath notation (`dblp.book.author."Su"`).
    pub subpath: String,
    /// Presence count from the CST.
    pub presence: u64,
    /// Occurrence count from the CST.
    pub occurrence: u64,
}

/// A rendered combination factor.
#[derive(Debug, Clone)]
pub struct ExplainedFactor {
    /// "piece" or "twiglet".
    pub kind: &'static str,
    /// Subpaths in the element.
    pub subpaths: Vec<String>,
    /// Subpaths of the conditioning overlap (empty = independent join).
    pub overlap: Vec<String>,
    /// Estimated count of the element.
    pub numerator: f64,
    /// Estimated count of the overlap (`n` when independent).
    pub denominator: f64,
    /// Skipped as fully covered (contributes 1).
    pub skipped: bool,
}

/// The full explanation of one estimate.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Algorithm used.
    pub algorithm: Algorithm,
    /// Count kind estimated.
    pub kind: CountKind,
    /// The query, printed.
    pub query: String,
    /// Data tree size `n` used in the formulae.
    pub n: u64,
    /// Parsed subpaths with their counts.
    pub pieces: Vec<ExplainedPiece>,
    /// Whether parsing covered every query unit.
    pub covered: bool,
    /// The combination factors in processing order.
    pub factors: Vec<ExplainedFactor>,
    /// The sibling-injectivity discount applied at the end.
    pub discount: f64,
    /// The final estimate (`estimate()`'s return value).
    pub estimate: f64,
}

impl Cst {
    /// Explains one estimate; `explanation.estimate` equals
    /// [`Cst::estimate`] for the same arguments.
    pub fn explain(&self, twig: &Twig, algorithm: Algorithm, kind: CountKind) -> Explanation {
        let query = CompiledQuery::compile(self, twig);
        let mut parts = Decomposition::default();
        let mut factors: Vec<Factor> = Vec::new();
        let (covered, raw) = match algorithm {
            Algorithm::Leaf | Algorithm::Greedy => {
                // The baselines have no element/factor structure worth
                // tracing; report their pieces only.
                if algorithm == Algorithm::Greedy {
                    greedy_pieces(self, &query, &mut parts.pieces);
                } else {
                    maximal_pieces(self, &query, &mut parts.pieces);
                }
                let covered = covers_query(&query, &parts.pieces, &mut parts.covered);
                (covered, self.estimate_raw(twig, algorithm, kind, None))
            }
            _ => {
                let covered = decompose(self, &query, twig, algorithm, &mut parts);
                let raw = if covered {
                    let scratch = &mut CombineScratch::default();
                    combine(self, &query, &parts, kind, scratch, Some(&mut factors))
                } else {
                    0.0
                };
                (covered, raw)
            }
        };
        let discount = self.sibling_discount(twig);
        Explanation {
            algorithm,
            kind,
            query: twig.to_string(),
            n: self.n(),
            pieces: parts
                .pieces
                .iter()
                .map(|p| ExplainedPiece {
                    subpath: self.render_piece(p),
                    presence: self.presence(p.trie),
                    occurrence: self.occurrence(p.trie),
                })
                .collect(),
            covered,
            factors: factors
                .iter()
                .map(|f| ExplainedFactor {
                    kind: if f.element.is_group { "twiglet" } else { "piece" },
                    subpaths: f
                        .element
                        .chains(&parts.chains)
                        .iter()
                        .map(|c| self.render_piece(c))
                        .collect(),
                    overlap: f.overlaps.iter().map(|c| self.render_piece(c)).collect(),
                    numerator: f.numerator,
                    denominator: f.denominator,
                    skipped: f.skipped,
                })
                .collect(),
            discount,
            estimate: raw * discount,
        }
    }

    /// Renders a piece's token chain in dotted notation.
    fn render_piece(&self, piece: &Piece) -> String {
        let tokens = self.trie().tokens_of(piece.trie);
        let mut out = String::new();
        let mut in_value = false;
        for token in tokens {
            match token {
                PathToken::Element(sym) => {
                    if !out.is_empty() {
                        out.push('.');
                    }
                    out.push_str(self.label_str_of(sym));
                }
                PathToken::Char(byte) => {
                    if !in_value {
                        if !out.is_empty() {
                            out.push('.');
                        }
                        out.push('"');
                        in_value = true;
                    }
                    out.push(byte as char);
                }
            }
        }
        if in_value {
            out.push('"');
        }
        out
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "explain {} [{:?}] of {} (n = {})",
            self.algorithm, self.kind, self.query, self.n
        )?;
        writeln!(f, "parsed subpaths ({}):", self.pieces.len())?;
        for piece in &self.pieces {
            writeln!(
                f,
                "  {:<50} Cp = {:<8} Co = {}",
                piece.subpath, piece.presence, piece.occurrence
            )?;
        }
        if !self.covered {
            writeln!(f, "  !! query not fully covered -> estimate 0")?;
        }
        if !self.factors.is_empty() {
            writeln!(f, "combination:")?;
            for factor in &self.factors {
                if factor.skipped {
                    writeln!(f, "  [{}] {:?} (fully covered, x1)", factor.kind, factor.subpaths)?;
                    continue;
                }
                let overlap = if factor.overlap.is_empty() {
                    "n (independent)".to_owned()
                } else {
                    format!("{:?}", factor.overlap)
                };
                writeln!(
                    f,
                    "  [{}] {:?}: {:.3} / {:.3}  (overlap: {})",
                    factor.kind, factor.subpaths, factor.numerator, factor.denominator, overlap
                )?;
            }
        }
        if self.discount != 1.0 {
            writeln!(f, "sibling-injectivity discount: {:.4}", self.discount)?;
        }
        writeln!(f, "estimate: {:.3}", self.estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::{CstConfig, SpaceBudget};
    use twig_tree::DataTree;

    fn fixture() -> Cst {
        let mut xml = String::from("<dblp>");
        for _ in 0..20 {
            xml.push_str("<book><author>Anna</author><year>1999</year></book>");
        }
        for _ in 0..20 {
            xml.push_str("<book><author>Bo</author><year>2000</year></book>");
        }
        xml.push_str("</dblp>");
        Cst::build(
            &DataTree::from_xml(&xml).unwrap(),
            &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() },
        )
        .expect("CST config is valid")
    }

    #[test]
    fn explanation_matches_estimate_for_all_algorithms() {
        let cst = fixture();
        for expr in [
            r#"book(author("Anna"),year("1999"))"#,
            r#"dblp(book(author("Bo")))"#,
            "book(author,author)",
            r#"book(publisher("X"))"#,
        ] {
            let twig = Twig::parse(expr).unwrap();
            for algo in Algorithm::ALL {
                for kind in [CountKind::Presence, CountKind::Occurrence] {
                    let explanation = cst.explain(&twig, algo, kind);
                    let direct = cst.estimate(&twig, algo, kind);
                    assert!(
                        (explanation.estimate - direct).abs() < 1e-9,
                        "{algo} {kind:?} {expr}: explain {} vs estimate {direct}",
                        explanation.estimate
                    );
                }
            }
        }
    }

    #[test]
    fn explanation_shows_twiglet_for_mosh() {
        let cst = fixture();
        let twig = Twig::parse(r#"book(author("Anna"),year("1999"))"#).unwrap();
        let explanation = cst.explain(&twig, Algorithm::Mosh, CountKind::Presence);
        assert!(explanation.covered);
        assert!(explanation.factors.iter().any(|f| f.kind == "twiglet"));
        let rendered = explanation.to_string();
        assert!(rendered.contains("book.author.\"Anna\""), "{rendered}");
        assert!(rendered.contains("estimate:"), "{rendered}");
    }

    #[test]
    fn explanation_flags_uncovered_queries() {
        let cst = fixture();
        let twig = Twig::parse(r#"book(publisher("X"))"#).unwrap();
        let explanation = cst.explain(&twig, Algorithm::Mosh, CountKind::Presence);
        assert!(!explanation.covered);
        assert_eq!(explanation.estimate, 0.0);
        assert!(explanation.to_string().contains("not fully covered"));
    }

    #[test]
    fn explanation_shows_discount() {
        let cst = fixture();
        let twig = Twig::parse("book(author,author)").unwrap();
        let explanation = cst.explain(&twig, Algorithm::PureMo, CountKind::Occurrence);
        assert_eq!(explanation.discount, 0.0, "books have a single author");
        assert!(explanation.to_string().contains("discount"));
    }
}
