//! Corpora, workloads with ground truth, and CST construction helpers.

use std::fmt::Display;
use std::str::FromStr;

use twig_core::{Algorithm, CountKind, Cst, CstConfig, SpaceBudget};
use twig_datagen::{
    generate_dblp, generate_sprot, negative_query_candidates, positive_queries, trivial_queries,
    DblpConfig, SprotConfig, WorkloadConfig,
};
use twig_exact::{count_occurrence, count_presence};
use twig_pst::{build_suffix_trie, SuffixTrie, TrieConfig};
use twig_tree::{DataTree, Twig};

/// Experiment scale knobs, so the same experiments run as fast smoke
/// tests and as full figure regenerations.
#[derive(Debug, Clone)]
pub struct Scale {
    /// DBLP-like corpus size in bytes.
    pub dblp_bytes: usize,
    /// SWISS-PROT-like corpus size in bytes.
    pub sprot_bytes: usize,
    /// Queries per workload (the paper uses 1000).
    pub queries: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Signature length for CSTs.
    pub signature_len: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            dblp_bytes: 8 << 20,
            sprot_bytes: 4 << 20,
            queries: 1000,
            seed: 20010402, // ICDE 2001
            signature_len: 32,
        }
    }
}

impl Scale {
    /// A fast scale for unit tests and smoke runs.
    pub fn small() -> Self {
        Self {
            dblp_bytes: 200 << 10,
            sprot_bytes: 150 << 10,
            queries: 60,
            seed: 20010402,
            signature_len: 32,
        }
    }

    /// Reads the scale from the environment; see [`Scale::from_vars`].
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// Builds a scale from the values `var` looks up by name:
    /// `TWIG_SCALE=small|full` (default full), then optional overrides
    /// `TWIG_QUERIES`, `TWIG_DBLP_MB`, `TWIG_SPROT_MB`, `TWIG_SIG`. A value
    /// that is not a positive number, or that passes its ceiling, is an
    /// error naming its variable.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut scale = match var("TWIG_SCALE").as_deref() {
            None | Some("full") => Self::default(),
            Some("small") => Self::small(),
            Some(other) => return Err(format!("TWIG_SCALE must be small or full, not '{other}'")),
        };
        if let Some(queries) = bounded_var(&var, "TWIG_QUERIES", MAX_QUERIES)? {
            scale.queries = queries;
        }
        if let Some(mb) = bounded_var(&var, "TWIG_DBLP_MB", MAX_DBLP_MB)? {
            scale.dblp_bytes = (mb * 1048576.0) as usize;
        }
        if let Some(mb) = bounded_var(&var, "TWIG_SPROT_MB", MAX_SPROT_MB)? {
            scale.sprot_bytes = (mb * 1048576.0) as usize;
        }
        if let Some(sig) = bounded_var(&var, "TWIG_SIG", MAX_SIGNATURE_LEN)? {
            scale.signature_len = sig;
        }
        Ok(scale)
    }
}

// Ceilings of the `TWIG_*` overrides: 32x to 1000x the full scale, and
// far below the sizes whose workload arithmetic overflows or whose
// corpus generation exhausts memory.
const MAX_QUERIES: usize = 1_000_000;
const MAX_DBLP_MB: f64 = 256.0;
const MAX_SPROT_MB: f64 = 128.0;
const MAX_SIGNATURE_LEN: usize = 1024;

/// Parses variable `name`, if set, as a positive number no larger than
/// `max` (zero queries, signature words or corpus bytes leave an
/// experiment nothing to measure).
fn bounded_var<T: FromStr + PartialOrd + Default + Display>(
    var: &impl Fn(&str) -> Option<String>,
    name: &str,
    max: T,
) -> Result<Option<T>, String> {
    var(name)
        .map(|value| match value.parse() {
            Ok(n) if n > T::default() && n <= max => Ok(n),
            Ok(n) if n > T::default() => {
                Err(format!("{name} must be at most {max}, not '{value}'"))
            }
            _ => Err(format!("{name} must be a positive number, not '{value}'")),
        })
        .transpose()
}

/// A corpus: the parsed data tree plus its full (unpruned) suffix trie,
/// shared across all space budgets of an experiment.
pub struct Corpus {
    /// Display name ("dblp" / "sprot").
    pub name: String,
    /// The parsed data tree.
    pub tree: DataTree,
    /// The full suffix trie (prune with a budget to get a CST).
    pub trie: SuffixTrie,
}

impl Corpus {
    /// Generates and parses the DBLP-like corpus.
    pub fn dblp(bytes: usize, seed: u64) -> Self {
        let xml = generate_dblp(&DblpConfig { target_bytes: bytes, seed, ..DblpConfig::default() });
        Self::from_xml("dblp", &xml)
    }

    /// Generates and parses the SWISS-PROT-like corpus.
    pub fn sprot(bytes: usize, seed: u64) -> Self {
        let xml = generate_sprot(&SprotConfig { target_bytes: bytes, seed });
        Self::from_xml("sprot", &xml)
    }

    /// Parses an arbitrary XML corpus.
    pub fn from_xml(name: &str, xml: &str) -> Self {
        let tree = DataTree::from_xml(xml).expect("generated XML is well-formed");
        let trie = build_suffix_trie(&tree, &TrieConfig::default());
        Self { name: name.to_owned(), tree, trie }
    }

    /// Builds a signature-carrying CST at `fraction` of the corpus source
    /// size.
    pub fn cst(&self, fraction: f64, scale: &Scale) -> Cst {
        self.cst_with(fraction, scale, true)
    }

    /// Builds both summaries for one space budget: the signature-free one
    /// the correlation-less baselines use, and the signature-carrying one
    /// for MOSH/PMOSH/MSH (each algorithm gets the same byte budget spent
    /// on its own summary, as in the paper's figures).
    pub fn cst_pair(&self, fraction: f64, scale: &Scale) -> CstPair {
        CstPair {
            plain: self.cst_with(fraction, scale, false),
            sethash: self.cst_with(fraction, scale, true),
        }
    }

    fn cst_with(&self, fraction: f64, scale: &Scale, with_signatures: bool) -> Cst {
        let config = CstConfig {
            budget: SpaceBudget::Fraction(fraction),
            signature_len: scale.signature_len,
            seed: scale.seed ^ 0x5E7_4A54,
            with_signatures,
            ..CstConfig::default()
        };
        Cst::from_trie(&self.tree, &self.trie, &config).expect("CST config is valid")
    }
}

/// The two summaries built for one space budget.
pub struct CstPair {
    /// Signature-free summary (Leaf, Greedy, pure MO).
    pub plain: Cst,
    /// Signature-carrying summary (MOSH, PMOSH, MSH).
    pub sethash: Cst,
}

impl CstPair {
    /// The summary `algorithm` runs against.
    pub fn for_algorithm(&self, algorithm: Algorithm) -> &Cst {
        if algorithm.uses_signatures() {
            &self.sethash
        } else {
            &self.plain
        }
    }
}

/// A query workload with exact ground-truth counts.
pub struct Workload {
    /// The queries.
    pub queries: Vec<Twig>,
    /// Exact occurrence counts (the multiset problem's ground truth).
    pub truths: Vec<u64>,
}

impl Workload {
    /// Positive non-trivial queries with occurrence ground truths
    /// (queries whose exact occurrence count is 0 — possible when value
    /// prefixes collapse — are resampled away by filtering).
    pub fn positive(corpus: &Corpus, scale: &Scale) -> Self {
        let cfg = WorkloadConfig {
            count: scale.queries + scale.queries / 5,
            seed: scale.seed,
            ..WorkloadConfig::default()
        };
        let mut queries = positive_queries(&corpus.tree, &cfg);
        let mut truths: Vec<u64> = Vec::with_capacity(queries.len());
        let mut kept: Vec<Twig> = Vec::with_capacity(scale.queries);
        for twig in queries.drain(..) {
            if kept.len() == scale.queries {
                break;
            }
            let truth = count_occurrence(&corpus.tree, &twig);
            if truth > 0 {
                kept.push(twig);
                truths.push(truth);
            }
        }
        assert!(
            kept.len() >= scale.queries * 9 / 10,
            "too few positive queries survived: {}",
            kept.len()
        );
        Self { queries: kept, truths }
    }

    /// Trivial (single-path) queries with occurrence ground truths.
    pub fn trivial(corpus: &Corpus, scale: &Scale) -> Self {
        let cfg = WorkloadConfig {
            count: scale.queries,
            seed: scale.seed.wrapping_add(1),
            ..WorkloadConfig::default()
        };
        let queries = trivial_queries(&corpus.tree, &cfg);
        let truths = queries.iter().map(|twig| count_occurrence(&corpus.tree, twig)).collect();
        Self { queries, truths }
    }

    /// Negative queries: glued candidates filtered to exact count 0.
    pub fn negative(corpus: &Corpus, scale: &Scale) -> Self {
        let cfg = WorkloadConfig {
            count: scale.queries * 3,
            seed: scale.seed.wrapping_add(2),
            ..WorkloadConfig::default()
        };
        let candidates = negative_query_candidates(&corpus.tree, &cfg);
        let queries: Vec<Twig> = candidates
            .into_iter()
            .filter(|twig| count_presence(&corpus.tree, twig) == 0)
            .take(scale.queries)
            .collect();
        assert!(queries.len() >= scale.queries / 2, "too few negative queries: {}", queries.len());
        let truths = vec![0u64; queries.len()];
        Self { queries, truths }
    }

    /// Runs one algorithm over the whole workload against one summary.
    pub fn estimate_all(&self, cst: &Cst, algorithm: Algorithm) -> Vec<f64> {
        self.queries
            .iter()
            .map(|twig| cst.estimate(twig, algorithm, CountKind::Occurrence))
            .collect()
    }

    /// Runs one algorithm against its appropriate summary in a pair.
    pub fn estimate_pair(&self, pair: &CstPair, algorithm: Algorithm) -> Vec<f64> {
        self.estimate_all(pair.for_algorithm(algorithm), algorithm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A variable lookup over fixed pairs, in place of the environment.
    fn vars<'a>(pairs: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| pairs.iter().find(|(n, _)| *n == name).map(|(_, value)| (*value).to_owned())
    }

    #[test]
    fn scale_reads_its_variables() {
        let full = Scale::from_vars(vars(&[])).unwrap();
        assert_eq!((full.dblp_bytes, full.queries), (Scale::default().dblp_bytes, 1000));
        let scale = Scale::from_vars(vars(&[
            ("TWIG_SCALE", "small"),
            ("TWIG_QUERIES", "7"),
            ("TWIG_DBLP_MB", "0.5"),
            ("TWIG_SPROT_MB", "2"),
            ("TWIG_SIG", "16"),
        ]))
        .unwrap();
        let read = (scale.queries, scale.dblp_bytes, scale.sprot_bytes, scale.signature_len);
        assert_eq!(read, (7, 512 << 10, 2 << 20, 16));
        assert_eq!(scale.seed, Scale::small().seed);
    }

    #[test]
    fn scale_rejects_bad_values_by_name() {
        for name in ["TWIG_QUERIES", "TWIG_DBLP_MB", "TWIG_SPROT_MB", "TWIG_SIG"] {
            for bad in ["x", "0", "-1", ""] {
                let err = Scale::from_vars(vars(&[(name, bad)])).unwrap_err();
                assert_eq!(err, format!("{name} must be a positive number, not '{bad}'"));
            }
        }
        for (name, big, max) in [
            ("TWIG_QUERIES", "18446744073709551615", "1000000"),
            ("TWIG_QUERIES", "1000001", "1000000"),
            ("TWIG_DBLP_MB", "1e300", "256"),
            ("TWIG_DBLP_MB", "inf", "256"),
            ("TWIG_SPROT_MB", "128.5", "128"),
            ("TWIG_SIG", "1025", "1024"),
        ] {
            let err = Scale::from_vars(vars(&[(name, big)])).unwrap_err();
            assert_eq!(err, format!("{name} must be at most {max}, not '{big}'"));
        }
        let nan = Scale::from_vars(vars(&[("TWIG_DBLP_MB", "NaN")])).unwrap_err();
        assert_eq!(nan, "TWIG_DBLP_MB must be a positive number, not 'NaN'");
        let at_ceilings = Scale::from_vars(vars(&[
            ("TWIG_QUERIES", "1000000"),
            ("TWIG_DBLP_MB", "256"),
            ("TWIG_SPROT_MB", "128"),
            ("TWIG_SIG", "1024"),
        ]))
        .unwrap();
        let read = (at_ceilings.queries, at_ceilings.dblp_bytes, at_ceilings.sprot_bytes);
        assert_eq!(read, (1_000_000, 256 << 20, 128 << 20));
        let err = Scale::from_vars(vars(&[("TWIG_SCALE", "huge")])).unwrap_err();
        assert!(err.contains("TWIG_SCALE must be small or full"), "{err}");
    }

    fn tiny_scale() -> Scale {
        Scale { dblp_bytes: 120 << 10, queries: 20, ..Scale::small() }
    }

    #[test]
    fn corpus_builds_with_trie() {
        let scale = tiny_scale();
        let corpus = Corpus::dblp(scale.dblp_bytes, scale.seed);
        assert!(corpus.tree.element_count() > 500);
        assert!(corpus.trie.node_count() > 1000);
    }

    #[test]
    fn cst_fraction_budgets_scale() {
        let scale = tiny_scale();
        let corpus = Corpus::dblp(scale.dblp_bytes, scale.seed);
        let small = corpus.cst(0.005, &scale);
        let large = corpus.cst(0.05, &scale);
        assert!(small.node_count() < large.node_count());
        assert!(small.size_bytes() <= (corpus.tree.source_bytes() as f64 * 0.005) as usize);
    }

    #[test]
    fn positive_workload_has_truths() {
        let scale = tiny_scale();
        let corpus = Corpus::dblp(scale.dblp_bytes, scale.seed);
        let workload = Workload::positive(&corpus, &scale);
        assert_eq!(workload.queries.len(), workload.truths.len());
        assert!(workload.truths.iter().all(|&t| t > 0));
    }

    #[test]
    fn negative_workload_all_zero() {
        let scale = tiny_scale();
        let corpus = Corpus::dblp(scale.dblp_bytes, scale.seed);
        let workload = Workload::negative(&corpus, &scale);
        for twig in &workload.queries {
            assert_eq!(count_presence(&corpus.tree, twig), 0, "{twig}");
        }
    }

    #[test]
    fn estimates_cover_workload() {
        let scale = tiny_scale();
        let corpus = Corpus::dblp(scale.dblp_bytes, scale.seed);
        let workload = Workload::positive(&corpus, &scale);
        let cst = corpus.cst(0.05, &scale);
        let estimates = workload.estimate_all(&cst, Algorithm::Mosh);
        assert_eq!(estimates.len(), workload.queries.len());
        assert!(estimates.iter().all(|e| e.is_finite() && *e >= 0.0));
    }
}
