//! One function per paper table/figure (see DESIGN.md §5 for the index).
//!
//! Every function returns plain data rows; [`crate::figures`] formats and
//! prints them. All experiments use occurrence counts as ground truth
//! (the multiset problem, per Sec. 6.1).

use twig_core::{Algorithm, CountKind, Cst, CstConfig, SignatureFallback, SpaceBudget};
use twig_util::stats::log10_floored;

use crate::harness::{Corpus, Scale, Workload};
use crate::metrics::{
    avg_relative_error, avg_relative_squared_error, ratio_buckets, rmse, RatioBuckets,
};

/// One point of an error-vs-space series.
#[derive(Debug, Clone, Copy)]
pub struct SeriesPoint {
    /// Space fraction of the data size (e.g. 0.01 = 1%).
    pub space: f64,
    /// The algorithm measured.
    pub algorithm: Algorithm,
    /// `log10` of the error metric (avg relative squared error unless the
    /// experiment says otherwise).
    pub log10_error: f64,
    /// The raw (non-log) error.
    pub error: f64,
}

fn series_point(space: f64, algorithm: Algorithm, error: f64) -> SeriesPoint {
    SeriesPoint { space, algorithm, log10_error: log10_floored(error), error }
}

/// Fig. 3: Leaf vs pure MO on trivial (single-path) queries, avg relative
/// squared error vs space.
pub fn trivial_experiment(corpus: &Corpus, scale: &Scale, spaces: &[f64]) -> Vec<SeriesPoint> {
    let workload = Workload::trivial(corpus, scale);
    let mut out = Vec::new();
    for &space in spaces {
        let pair = corpus.cst_pair(space, scale);
        for algorithm in [Algorithm::Leaf, Algorithm::PureMo] {
            let estimates = workload.estimate_pair(&pair, algorithm);
            let error = avg_relative_squared_error(&workload.truths, &estimates);
            out.push(series_point(space, algorithm, error));
        }
    }
    out
}

/// Fig. 4: all six algorithms on positive non-trivial queries, avg
/// relative squared error vs space. Also returns the avg relative error
/// series (the paper reports its trends are similar).
pub fn positive_experiment(
    corpus: &Corpus,
    scale: &Scale,
    spaces: &[f64],
) -> (Vec<SeriesPoint>, Vec<SeriesPoint>) {
    let workload = Workload::positive(corpus, scale);
    let mut squared = Vec::new();
    let mut relative = Vec::new();
    for &space in spaces {
        let pair = corpus.cst_pair(space, scale);
        for algorithm in Algorithm::ALL {
            let estimates = workload.estimate_pair(&pair, algorithm);
            squared.push(series_point(
                space,
                algorithm,
                avg_relative_squared_error(&workload.truths, &estimates),
            ));
            relative.push(series_point(
                space,
                algorithm,
                avg_relative_error(&workload.truths, &estimates),
            ));
        }
    }
    (squared, relative)
}

/// Fig. 5(a): estimate/real ratio distribution per algorithm at one space
/// fraction.
pub fn ratio_distribution(
    corpus: &Corpus,
    scale: &Scale,
    space: f64,
) -> Vec<(Algorithm, RatioBuckets)> {
    let workload = Workload::positive(corpus, scale);
    let pair = corpus.cst_pair(space, scale);
    Algorithm::ALL
        .iter()
        .map(|&algorithm| {
            let estimates = workload.estimate_pair(&pair, algorithm);
            (algorithm, ratio_buckets(&workload.truths, &estimates))
        })
        .collect()
}

/// Fig. 5(b): percentage of positive queries that MOSH and MSH decompose
/// into different twiglets, per space fraction.
pub fn parse_divergence(corpus: &Corpus, scale: &Scale, spaces: &[f64]) -> Vec<(f64, f64)> {
    let workload = Workload::positive(corpus, scale);
    spaces
        .iter()
        .map(|&space| {
            let cst = corpus.cst(space, scale);
            let divergent =
                workload.queries.iter().filter(|twig| cst.parses_differently(twig)).count();
            (space, 100.0 * divergent as f64 / workload.queries.len() as f64)
        })
        .collect()
}

/// Fig. 6(a): MOSH vs MSH error restricted to the differently-parsed
/// queries. Returns `None` for a space fraction with no divergent
/// queries.
pub fn divergent_error(
    corpus: &Corpus,
    scale: &Scale,
    spaces: &[f64],
) -> Vec<(f64, Option<(f64, f64)>)> {
    let workload = Workload::positive(corpus, scale);
    spaces
        .iter()
        .map(|&space| {
            let cst = corpus.cst(space, scale);
            let divergent: Vec<usize> = (0..workload.queries.len())
                .filter(|&i| cst.parses_differently(&workload.queries[i]))
                .collect();
            if divergent.is_empty() {
                return (space, None);
            }
            let truths: Vec<u64> = divergent.iter().map(|&i| workload.truths[i]).collect();
            let mosh: Vec<f64> = divergent
                .iter()
                .map(|&i| {
                    cst.estimate(&workload.queries[i], Algorithm::Mosh, CountKind::Occurrence)
                })
                .collect();
            let msh: Vec<f64> = divergent
                .iter()
                .map(|&i| cst.estimate(&workload.queries[i], Algorithm::Msh, CountKind::Occurrence))
                .collect();
            (
                space,
                Some((
                    avg_relative_squared_error(&truths, &mosh),
                    avg_relative_squared_error(&truths, &msh),
                )),
            )
        })
        .collect()
}

/// Fig. 6(b): scale-up — error at a fixed space fraction as the corpus
/// grows. `sizes` are corpus byte sizes ("data extracted from the same
/// source": same generator seed, growing target).
pub fn scaleup(scale: &Scale, sizes: &[usize], space: f64) -> Vec<(usize, Vec<SeriesPoint>)> {
    sizes
        .iter()
        .map(|&bytes| {
            let corpus = Corpus::dblp(bytes, scale.seed);
            let workload = Workload::positive(&corpus, scale);
            let pair = corpus.cst_pair(space, scale);
            let points = Algorithm::ALL
                .iter()
                .map(|&algorithm| {
                    let estimates = workload.estimate_pair(&pair, algorithm);
                    series_point(
                        space,
                        algorithm,
                        avg_relative_squared_error(&workload.truths, &estimates),
                    )
                })
                .collect();
            (bytes, points)
        })
        .collect()
}

/// Fig. 7: negative queries, RMSE vs space, all algorithms. `fallback`
/// selects the below-resolution behavior of the set-hash algorithms: with
/// the paper's literal `Zero`, MOSH/MSH improve quickly with space (they
/// beat Greedy on the SWISS-PROT-like corpus, not on the DBLP-like one;
/// EXPERIMENTS.md, "Known deviations"); the default
/// conditional-independence mode plateaus instead, trading that for
/// robustness on positive queries.
pub fn negative_experiment(
    corpus: &Corpus,
    scale: &Scale,
    spaces: &[f64],
    fallback: SignatureFallback,
) -> Vec<SeriesPoint> {
    let workload = Workload::negative(corpus, scale);
    let mut out = Vec::new();
    for &space in spaces {
        let mut pair = corpus.cst_pair(space, scale);
        pair.sethash.set_fallback(fallback);
        for algorithm in Algorithm::ALL {
            let estimates = workload.estimate_pair(&pair, algorithm);
            let error = rmse(&workload.truths, &estimates);
            out.push(series_point(space, algorithm, error));
        }
    }
    out
}

/// Which workload an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Non-trivial positive queries (2–5 paths).
    Positive,
    /// Trivial single-path queries.
    Trivial,
}

/// Sec. 5 validation: how well does the uniformity assumption estimate
/// occurrence counts? Returns `(avg rel error of presence-as-occurrence,
/// avg rel error of occurrence estimates)` for MOSH — the second should
/// be clearly smaller on multiset data. Note the assumption ignores
/// sibling injectivity (as the paper's does), so it is exact on
/// single-path queries and an upper bound on branching queries whose legs
/// can match the same sibling.
pub fn occurrence_validation(
    corpus: &Corpus,
    scale: &Scale,
    space: f64,
    kind: WorkloadKind,
) -> (f64, f64) {
    let workload = match kind {
        WorkloadKind::Positive => Workload::positive(corpus, scale),
        WorkloadKind::Trivial => Workload::trivial(corpus, scale),
    };
    let cst = corpus.cst(space, scale);
    let presence: Vec<f64> = workload
        .queries
        .iter()
        .map(|twig| cst.estimate(twig, Algorithm::Mosh, CountKind::Presence))
        .collect();
    let occurrence: Vec<f64> = workload
        .queries
        .iter()
        .map(|twig| cst.estimate(twig, Algorithm::Mosh, CountKind::Occurrence))
        .collect();
    (
        avg_relative_error(&workload.truths, &presence),
        avg_relative_error(&workload.truths, &occurrence),
    )
}

/// One summary in an ablation: its node count and MOSH's accuracy on the
/// positive workload.
#[derive(Debug, Clone, Copy)]
pub struct AblationRow {
    /// Nodes the summary kept within the budget.
    pub nodes: usize,
    /// Average relative error.
    pub relative: f64,
    /// `log10` of the average relative squared error.
    pub log10_squared: f64,
}

/// Ablations (DESIGN.md §6) at a fixed budget of `bytes`, each a MOSH
/// summary with `CstConfig`'s defaults otherwise: one row per signature
/// length in `lengths`, then the default summary with and without
/// signatures (conditional independence only).
pub fn signature_ablation(
    corpus: &Corpus,
    scale: &Scale,
    bytes: usize,
    lengths: &[usize],
) -> (Vec<AblationRow>, [AblationRow; 2]) {
    let workload = Workload::positive(corpus, scale);
    let budget = SpaceBudget::Bytes(bytes);
    let row = |config: CstConfig| {
        let cst = Cst::from_trie(&corpus.tree, &corpus.trie, &config).expect("CST config is valid");
        let estimates = workload.estimate_all(&cst, Algorithm::Mosh);
        AblationRow {
            nodes: cst.node_count(),
            relative: avg_relative_error(&workload.truths, &estimates),
            log10_squared: log10_floored(avg_relative_squared_error(&workload.truths, &estimates)),
        }
    };
    let lengths = lengths
        .iter()
        .map(|&signature_len| row(CstConfig { budget, signature_len, ..CstConfig::default() }))
        .collect();
    let with = row(CstConfig { budget, ..CstConfig::default() });
    let without = row(CstConfig { budget, with_signatures: false, ..CstConfig::default() });
    (lengths, [with, without])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Corpus, Scale) {
        let scale = Scale { dblp_bytes: 150 << 10, queries: 25, ..Scale::small() };
        let corpus = Corpus::dblp(scale.dblp_bytes, scale.seed);
        (corpus, scale)
    }

    #[test]
    fn trivial_experiment_runs() {
        let (corpus, scale) = fixture();
        let points = trivial_experiment(&corpus, &scale, &[0.02, 0.05]);
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.error.is_finite()));
    }

    #[test]
    fn mo_beats_leaf_on_trivial_queries() {
        // The Fig. 3 claim: path information matters. At unit-test corpus
        // sizes the squared metric is dominated by below-threshold
        // queries, so assert on average relative error (the full-scale
        // claim is covered by `full_scale_figures` below and Fig. 3).
        let (corpus, scale) = fixture();
        let workload = Workload::trivial(&corpus, &scale);
        let pair = corpus.cst_pair(0.2, &scale);
        let leaf_rel = crate::metrics::avg_relative_error(
            &workload.truths,
            &workload.estimate_pair(&pair, Algorithm::Leaf),
        );
        let mo_rel = crate::metrics::avg_relative_error(
            &workload.truths,
            &workload.estimate_pair(&pair, Algorithm::PureMo),
        );
        assert!(mo_rel * 2.0 < leaf_rel, "MO rel {mo_rel} should clearly beat Leaf rel {leaf_rel}");
    }

    #[test]
    fn positive_experiment_all_algorithms() {
        let (corpus, scale) = fixture();
        let (squared, relative) = positive_experiment(&corpus, &scale, &[0.03]);
        assert_eq!(squared.len(), 6);
        assert_eq!(relative.len(), 6);
    }

    #[test]
    fn correlation_algorithms_competitive_at_test_scale() {
        // At unit-test corpus sizes the budgets are too starved for the
        // full Fig. 4 separation; assert the robust orderings: Leaf loses
        // to PureMo in relative terms and the set-hash algorithms stay
        // competitive (strict orderings at full scale are covered by
        // `full_scale_figures`).
        let (corpus, scale) = fixture();
        let (_, relative) = positive_experiment(&corpus, &scale, &[0.2]);
        let rel = |a: Algorithm| relative.iter().find(|p| p.algorithm == a).unwrap().error;
        assert!(
            rel(Algorithm::Leaf) > rel(Algorithm::PureMo),
            "Leaf {} should be worst, PureMo {}",
            rel(Algorithm::Leaf),
            rel(Algorithm::PureMo)
        );
        // MOSH vs Leaf is within sampling noise at 150 KiB / 25 queries;
        // require MOSH to stay within 15% of Leaf rather than strictly
        // below it.
        assert!(
            rel(Algorithm::Mosh) < rel(Algorithm::Leaf) * 1.15,
            "Leaf {} vs MOSH {}",
            rel(Algorithm::Leaf),
            rel(Algorithm::Mosh)
        );
        assert!(
            rel(Algorithm::Mosh) < rel(Algorithm::PureMo) * 2.5 + 0.5,
            "MOSH {} should stay in MO's ballpark {}",
            rel(Algorithm::Mosh),
            rel(Algorithm::PureMo)
        );
    }

    /// The headline Fig. 4 claim needs the full-scale corpus; CI's
    /// `audit-tests` job runs it with
    /// `cargo test --release -p twig-eval -- --ignored full_scale_figures`.
    #[test]
    #[ignore = "full-scale experiment; run in release mode"]
    fn full_scale_figures() {
        let scale = Scale { queries: 200, ..Scale::default() };
        let corpus = Corpus::dblp(scale.dblp_bytes, scale.seed);
        let (squared, relative) = positive_experiment(&corpus, &scale, &[0.1]);
        let sq = |a: Algorithm| squared.iter().find(|p| p.algorithm == a).unwrap().error;
        let rel = |a: Algorithm| relative.iter().find(|p| p.algorithm == a).unwrap().error;
        // Set hashing must beat the independence baselines at generous
        // space, on both metrics.
        assert!(sq(Algorithm::Mosh) < sq(Algorithm::Greedy));
        assert!(sq(Algorithm::Msh) < sq(Algorithm::Greedy));
        assert!(rel(Algorithm::Mosh) < rel(Algorithm::Leaf));
        assert!(rel(Algorithm::Mosh) < rel(Algorithm::Greedy));
    }

    #[test]
    fn ratio_distribution_sums_to_one() {
        let (corpus, scale) = fixture();
        for (_, buckets) in ratio_distribution(&corpus, &scale, 0.05) {
            let total: f64 = buckets.as_percentages().iter().sum();
            assert!((total - 100.0).abs() < 1e-6);
        }
    }

    #[test]
    fn parse_divergence_bounded() {
        let (corpus, scale) = fixture();
        for (_, pct) in parse_divergence(&corpus, &scale, &[0.02, 0.08]) {
            assert!((0.0..=100.0).contains(&pct));
        }
    }

    #[test]
    fn negative_experiment_runs() {
        let (corpus, scale) = fixture();
        for fallback in [SignatureFallback::ConditionalIndependence, SignatureFallback::Zero] {
            let points = negative_experiment(&corpus, &scale, &[0.05], fallback);
            assert_eq!(points.len(), 6);
            assert!(points.iter().all(|p| p.error.is_finite() && p.error >= 0.0));
        }
    }

    #[test]
    fn occurrence_estimation_validates_uniformity() {
        // A corpus where every record has exactly three authors: the
        // occurrence count of any author-leg query is ~3x its presence
        // count, so the Sec. 5 uniformity correction must clearly beat
        // presence-as-occurrence. (The DBLP fixture at unit-test size is
        // too starved to separate the two.)
        let mut xml = String::from("<lib>");
        for i in 0..3000 {
            let year = 1990 + (i % 5);
            // All three authors share the name pool (distinct within a
            // record), so short value prefixes match several siblings and
            // occurrence counts genuinely exceed presence counts.
            xml.push_str(&format!(
                "<rec><author>A{:02}</author><author>A{:02}</author><author>A{:02}</author><year>{year}</year></rec>",
                i % 30,
                (i + 7) % 30,
                (i + 13) % 30,
            ));
        }
        xml.push_str("</lib>");
        let corpus = Corpus::from_xml("multiset", &xml);
        let scale = Scale { queries: 25, ..Scale::small() };
        let (presence_err, occurrence_err) =
            occurrence_validation(&corpus, &scale, 0.4, WorkloadKind::Trivial);
        assert!(
            occurrence_err < presence_err,
            "occurrence {occurrence_err} vs presence-as-occurrence {presence_err}"
        );
    }
}
