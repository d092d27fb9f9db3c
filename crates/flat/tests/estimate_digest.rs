//! Estimates pinned across commits.
//!
//! `bit_identity` and `plan_equivalence` compare two estimate paths at
//! one commit; this test compares one commit against the recorded
//! output of an earlier one. Over small seeded DBLP and SPROT corpora,
//! several space budgets and both signature fallbacks, it folds the
//! bits of every raw and discounted estimate (six algorithms, both
//! count kinds, owned and flat summaries) and the `explain` text of a
//! subset of twigs into FNV-1a digests, one per (corpus, budget,
//! algorithm, kind). A refactor of the estimate path that moves any
//! estimate by one ulp, or any rendered explanation by one byte, fails
//! here and names the cell that moved.
//!
//! The same test pins the summaries themselves: each (corpus, budget)
//! cell's owned `write_to` bytes and its flat `writer::pack` bytes fold
//! into digests of their own, beside a `Threshold(2)` build on three
//! threads and a build without signatures. A change to the summary
//! builder that moves one stored byte fails here and names the build.
//!
//! To re-record after an intended change of estimates or summaries, run
//! this test and paste the `actual` table its failure message prints.

use twig_core::{Algorithm, CountKind, Cst, CstConfig, SignatureFallback, SpaceBudget};
use twig_datagen::{
    generate_dblp, generate_sprot, negative_query_candidates, positive_queries, trivial_queries,
    DblpConfig, SprotConfig, WorkloadConfig,
};
use twig_flat::{writer, FlatCst};
use twig_tree::{DataTree, Twig};

const KINDS: [CountKind; 2] = [CountKind::Presence, CountKind::Occurrence];

const BUDGETS: [(&str, SpaceBudget); 3] = [
    ("t1", SpaceBudget::Threshold(1)),
    ("f20", SpaceBudget::Fraction(0.2)),
    ("f05", SpaceBudget::Fraction(0.05)),
];

const FALLBACKS: [SignatureFallback; 2] =
    [SignatureFallback::ConditionalIndependence, SignatureFallback::Zero];

/// Hand-written twigs beside the generated ones: chains that share a
/// prefix of two or more units (the recursive occurrence case),
/// wildcards, unknown labels and repeated sibling labels.
const HANDWRITTEN: [&str; 9] = [
    r#"dblp(book(author("A"),year("19")))"#,
    r#"dblp(article(author("S"),journal("T"),year("1")))"#,
    r#"dblp(*(author("B"),year("2")))"#,
    r#"article(cite(year("19")),author("S"),author)"#,
    r#"book(nosuchlabel("x"),year("1"))"#,
    r#"sprot(entry(reference(authors(author("A")),citation(journal("J"),year("19")))))"#,
    r#"entry(*(species("H")),keyword("P"))"#,
    r#"entry(feature(type("D")),feature(type("T")),organism(lineage(taxon(name("E")))))"#,
    r#"sprot(entry(organism(species("M"),lineage(taxon))))"#,
];

/// One cell's running FNV-1a 64 digest.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn estimate(&mut self, value: f64) {
        self.bytes(&value.to_bits().to_le_bytes());
    }
}

fn workload(tree: &DataTree, seed: u64) -> Vec<Twig> {
    let cfg = WorkloadConfig { count: 14, seed, ..WorkloadConfig::default() };
    let mut queries = positive_queries(tree, &cfg);
    queries.extend(negative_query_candidates(tree, &cfg));
    queries.extend(trivial_queries(tree, &WorkloadConfig { count: 4, seed, ..cfg }));
    queries.extend(HANDWRITTEN.iter().map(|text| Twig::parse(text).expect("handwritten twig")));
    assert!(queries.len() > HANDWRITTEN.len(), "workload generation produced no queries");
    queries
}

/// Pushes the digests of `cst`'s owned and flat bytes, keyed
/// `corpus/build/owned` and `corpus/build/flat`.
fn summary_digests(key: &str, cst: &Cst, out: &mut Vec<(String, u64)>) {
    let mut owned = Vec::new();
    cst.write_to(&mut owned).expect("owned summary writes");
    let mut digest = Digest::new();
    digest.bytes(&owned);
    out.push((format!("{key}/owned"), digest.0));
    let mut digest = Digest::new();
    digest.bytes(&writer::pack(cst).expect("packs"));
    out.push((format!("{key}/flat"), digest.0));
}

/// The digests of one corpus: estimates keyed
/// `corpus/budget/algorithm/kind` into `out`, summary bytes keyed
/// `corpus/build/form` into `summaries`.
fn corpus_digests(
    corpus: &str,
    xml: &str,
    seed: u64,
    out: &mut Vec<(String, u64)>,
    summaries: &mut Vec<(String, u64)>,
) {
    let tree = DataTree::from_xml(xml).expect("generated corpus parses");
    let queries = workload(&tree, seed);
    for (budget_name, budget) in BUDGETS {
        let mut cells: Vec<Digest> =
            (0..Algorithm::ALL.len() * KINDS.len()).map(|_| Digest::new()).collect();
        for (build, fallback) in FALLBACKS.into_iter().enumerate() {
            let cst = Cst::build(&tree, &CstConfig { budget, fallback, ..CstConfig::default() })
                .expect("CST builds");
            // The fallback is a query-time choice and is not stored, so
            // one of the two builds pins the bytes.
            if build == 0 {
                summary_digests(&format!("{corpus}/{budget_name}"), &cst, summaries);
            }
            let flat = FlatCst::from_bytes(writer::pack(&cst).expect("packs")).expect("flat opens");
            for (index, twig) in queries.iter().enumerate() {
                let mut cell = cells.iter_mut();
                for algorithm in Algorithm::ALL {
                    for kind in KINDS {
                        let digest = cell.next().expect("one cell per (algorithm, kind)");
                        digest.estimate(cst.estimate_raw(twig, algorithm, kind, None));
                        digest.estimate(cst.estimate(twig, algorithm, kind));
                        digest.estimate(flat.estimate_raw(twig, algorithm, kind, None));
                        digest.estimate(flat.estimate(twig, algorithm, kind));
                        if index % 3 == 0 {
                            digest.bytes(cst.explain(twig, algorithm, kind).to_string().as_bytes());
                        }
                    }
                }
            }
        }
        let mut cell = cells.into_iter();
        for algorithm in Algorithm::ALL {
            for kind in KINDS {
                let digest = cell.next().expect("one cell per (algorithm, kind)");
                out.push((format!("{corpus}/{budget_name}/{algorithm}/{kind:?}"), digest.0));
            }
        }
    }
    let extra = [
        (
            "t2-threads3",
            CstConfig { budget: SpaceBudget::Threshold(2), threads: 3, ..CstConfig::default() },
        ),
        (
            "f05-nosig",
            CstConfig {
                budget: SpaceBudget::Fraction(0.05),
                with_signatures: false,
                ..CstConfig::default()
            },
        ),
    ];
    for (build_name, config) in extra {
        let cst = Cst::build(&tree, &config).expect("CST builds");
        summary_digests(&format!("{corpus}/{build_name}"), &cst, summaries);
    }
}

/// Fails naming every cell of `actual` whose digest differs from
/// `expected`, and prints the whole `actual` table for re-recording.
fn assert_digests(what: &str, actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let moved: Vec<&str> = actual
        .iter()
        .filter(|(key, value)| !expected.iter().any(|(k, v)| k == key && v == value))
        .map(|(key, _)| key.as_str())
        .collect();
    let table: String =
        actual.iter().map(|(key, value)| format!("    (\"{key}\", {value:#018x}),\n")).collect();
    assert!(
        moved.is_empty() && actual.len() == expected.len(),
        "{} of {} {what} digests moved: {moved:?}\nactual:\n{table}",
        moved.len(),
        actual.len()
    );
}

/// Digests recorded before the estimate path was rebuilt on index
/// ranges; every later commit must reproduce them bit for bit.
const EXPECTED: &[(&str, u64)] = &[
    ("dblp/t1/Leaf/Presence", 0x778db45cf8068dd5),
    ("dblp/t1/Leaf/Occurrence", 0x7982c103e11c127d),
    ("dblp/t1/Greedy/Presence", 0x5b631e21600db469),
    ("dblp/t1/Greedy/Occurrence", 0x3248fb2b93df22fd),
    ("dblp/t1/MO/Presence", 0x7a51b604f2c9236d),
    ("dblp/t1/MO/Occurrence", 0x35ae40c1f71d1425),
    ("dblp/t1/MOSH/Presence", 0xfad32bf29e825df5),
    ("dblp/t1/MOSH/Occurrence", 0x1fbacb8c36a40567),
    ("dblp/t1/PMOSH/Presence", 0x51702347e8d75640),
    ("dblp/t1/PMOSH/Occurrence", 0xb25dd2d4e76553c9),
    ("dblp/t1/MSH/Presence", 0x8ecab478ba8db46d),
    ("dblp/t1/MSH/Occurrence", 0xdd6fb3846b7bafcb),
    ("dblp/f20/Leaf/Presence", 0xe408da1200353145),
    ("dblp/f20/Leaf/Occurrence", 0x5e9262943e890e25),
    ("dblp/f20/Greedy/Presence", 0x582f85996c262bd3),
    ("dblp/f20/Greedy/Occurrence", 0x2af167ca5416b933),
    ("dblp/f20/MO/Presence", 0xb215f84c4eeca0e9),
    ("dblp/f20/MO/Occurrence", 0xf4f55307b1f843c5),
    ("dblp/f20/MOSH/Presence", 0xb81abe2942696edd),
    ("dblp/f20/MOSH/Occurrence", 0x8307b029c9eff931),
    ("dblp/f20/PMOSH/Presence", 0x7fc7c95b05bbf3dd),
    ("dblp/f20/PMOSH/Occurrence", 0x2e2361726a7e496d),
    ("dblp/f20/MSH/Presence", 0xe86ad2a40d2e9a05),
    ("dblp/f20/MSH/Occurrence", 0x3421e585dee80115),
    ("dblp/f05/Leaf/Presence", 0xfd35c9ba9bba9805),
    ("dblp/f05/Leaf/Occurrence", 0xb68c5a07c11cc165),
    ("dblp/f05/Greedy/Presence", 0xf30a2906a279cc0d),
    ("dblp/f05/Greedy/Occurrence", 0x2e40f77b78007bc1),
    ("dblp/f05/MO/Presence", 0xed509b727d3726fd),
    ("dblp/f05/MO/Occurrence", 0x79ec7e1cfaae11c9),
    ("dblp/f05/MOSH/Presence", 0xbd9eeaa1884b5f39),
    ("dblp/f05/MOSH/Occurrence", 0x727b3016320d169d),
    ("dblp/f05/PMOSH/Presence", 0x94a28d6544cac7e9),
    ("dblp/f05/PMOSH/Occurrence", 0xa3e8e06fda730f79),
    ("dblp/f05/MSH/Presence", 0x4b71d5b1620314e9),
    ("dblp/f05/MSH/Occurrence", 0xe8742baa99329a19),
    ("sprot/t1/Leaf/Presence", 0x69bf7b3688bbb4f3),
    ("sprot/t1/Leaf/Occurrence", 0x8ca9ca3c9718cc9b),
    ("sprot/t1/Greedy/Presence", 0xe4ee3c8033a8a9ff),
    ("sprot/t1/Greedy/Occurrence", 0xe0b225baf3786a75),
    ("sprot/t1/MO/Presence", 0xb463761cbfc1f029),
    ("sprot/t1/MO/Occurrence", 0x4b4a678315faa025),
    ("sprot/t1/MOSH/Presence", 0x836d3056a2f30320),
    ("sprot/t1/MOSH/Occurrence", 0x712b8549c09199a8),
    ("sprot/t1/PMOSH/Presence", 0x6e3f3cdd605b462c),
    ("sprot/t1/PMOSH/Occurrence", 0x7949fe4976acaec2),
    ("sprot/t1/MSH/Presence", 0x5de45cfccf566810),
    ("sprot/t1/MSH/Occurrence", 0x52c6487dca710d68),
    ("sprot/f20/Leaf/Presence", 0xd457225d38906713),
    ("sprot/f20/Leaf/Occurrence", 0x70e3b1fba2cdbdc3),
    ("sprot/f20/Greedy/Presence", 0xa78a8e67ecf6586d),
    ("sprot/f20/Greedy/Occurrence", 0x3087ffbbc0fcf151),
    ("sprot/f20/MO/Presence", 0x816b7545efe34ab9),
    ("sprot/f20/MO/Occurrence", 0x7193e97d0c8ede61),
    ("sprot/f20/MOSH/Presence", 0xa0b1a1a1829cd4a9),
    ("sprot/f20/MOSH/Occurrence", 0x15e7f8e76f903fbd),
    ("sprot/f20/PMOSH/Presence", 0x16043d2e41653c1d),
    ("sprot/f20/PMOSH/Occurrence", 0x60bfab1aa834278b),
    ("sprot/f20/MSH/Presence", 0x5403649095c71261),
    ("sprot/f20/MSH/Occurrence", 0x63a59c0ded8600d5),
    ("sprot/f05/Leaf/Presence", 0xe14b6e8790d76771),
    ("sprot/f05/Leaf/Occurrence", 0xb5920c7f284ecf09),
    ("sprot/f05/Greedy/Presence", 0xe62a288dda0ebe1d),
    ("sprot/f05/Greedy/Occurrence", 0x4045c732949cc4a5),
    ("sprot/f05/MO/Presence", 0x5adfaddbb22c59cd),
    ("sprot/f05/MO/Occurrence", 0x7d58a465556a4895),
    ("sprot/f05/MOSH/Presence", 0x653ba212063f2cad),
    ("sprot/f05/MOSH/Occurrence", 0xeb75646a107b83a5),
    ("sprot/f05/PMOSH/Presence", 0x896a7c6f8e20b515),
    ("sprot/f05/PMOSH/Occurrence", 0x3ed5346dec5d9e05),
    ("sprot/f05/MSH/Presence", 0xa0cbedd0f818949d),
    ("sprot/f05/MSH/Occurrence", 0x9ca4aae61161682d),
];

/// Summary-byte digests recorded before the summary builder's passes
/// were reworked; every later commit must reproduce them byte for byte.
const SUMMARY_EXPECTED: &[(&str, u64)] = &[
    ("dblp/t1/owned", 0x1616d1dcf7dd03c6),
    ("dblp/t1/flat", 0xaaf53d335f244ec9),
    ("dblp/f20/owned", 0xa4eb08d14581af70),
    ("dblp/f20/flat", 0x9296aa53ff4e1ea6),
    ("dblp/f05/owned", 0xb594457681c4b586),
    ("dblp/f05/flat", 0xda9e60df2555365a),
    ("dblp/t2-threads3/owned", 0xeae46c6953845291),
    ("dblp/t2-threads3/flat", 0xafdd721c67f2c930),
    ("dblp/f05-nosig/owned", 0x7fa0678a3767c3ec),
    ("dblp/f05-nosig/flat", 0x4654fc8fa0f181c1),
    ("sprot/t1/owned", 0x602795c1651b033f),
    ("sprot/t1/flat", 0xf2eb1d1dff8d7c63),
    ("sprot/f20/owned", 0x1b2f21ec6d9d341f),
    ("sprot/f20/flat", 0x0dd0d315183436be),
    ("sprot/f05/owned", 0x6bd58a5ff185cd92),
    ("sprot/f05/flat", 0x545fdd505d862a79),
    ("sprot/t2-threads3/owned", 0x157874710878c7e1),
    ("sprot/t2-threads3/flat", 0x3b7c1c85b1e79c53),
    ("sprot/f05-nosig/owned", 0x41c7d7246db40bcc),
    ("sprot/f05-nosig/flat", 0xa199b0fb9b6f8c58),
];

#[test]
fn estimates_and_explanations_match_the_recorded_digests() {
    let mut actual = Vec::new();
    let mut summaries = Vec::new();
    let dblp_seed = 0xD16E_5701;
    let dblp = generate_dblp(&DblpConfig {
        target_bytes: 30_000,
        seed: dblp_seed,
        ..DblpConfig::default()
    });
    corpus_digests("dblp", &dblp, dblp_seed, &mut actual, &mut summaries);
    let sprot_seed = 0xD16E_5702;
    let sprot = generate_sprot(&SprotConfig { target_bytes: 30_000, seed: sprot_seed });
    corpus_digests("sprot", &sprot, sprot_seed, &mut actual, &mut summaries);

    assert_digests("estimate", &actual, EXPECTED);
    assert_digests("summary", &summaries, SUMMARY_EXPECTED);
}
