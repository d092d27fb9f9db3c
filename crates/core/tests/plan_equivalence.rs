//! Plan-path equivalence: `estimate_raw` with a memoized [`QueryPlan`]
//! must be bit-for-bit identical to the plan-free path, for every
//! algorithm, count kind, and query shape — including the repeated-twig
//! case where the answer is read back from the plan's table.

use twig_core::{Algorithm, CountKind, Cst, CstConfig, QueryPlan, SpaceBudget};
use twig_datagen::{
    generate_dblp, negative_query_candidates, positive_queries, trivial_queries, DblpConfig,
    WorkloadConfig,
};
use twig_tree::{DataTree, Twig};

fn fixture(threshold: u32) -> (DataTree, Cst) {
    let xml = generate_dblp(&DblpConfig {
        target_bytes: 60_000,
        seed: 0x5eed_0004,
        ..DblpConfig::default()
    });
    let tree = DataTree::from_xml(&xml).unwrap();
    let cst = Cst::build(
        &tree,
        &CstConfig { budget: SpaceBudget::Threshold(threshold), ..CstConfig::default() },
    )
    .unwrap();
    (tree, cst)
}

fn workload(tree: &DataTree, seed: u64) -> Vec<Twig> {
    let cfg = WorkloadConfig { count: 20, seed, ..WorkloadConfig::default() };
    let mut queries = positive_queries(tree, &cfg);
    queries.extend(negative_query_candidates(tree, &cfg));
    queries.extend(trivial_queries(tree, &WorkloadConfig { count: 5, seed, ..cfg }));
    assert!(queries.len() >= 20, "workload generation produced too few queries");
    queries
}

/// Seed sweep: N random twigs x 6 algorithms x both count kinds, the
/// plan path compared bit-for-bit against the plan-free path — on the
/// first use of the plan (cold fill) and on a repeat (the memoized
/// answer).
#[test]
fn planned_estimates_are_bit_identical_to_plan_free() {
    for threshold in [1, 4] {
        let (tree, cst) = fixture(threshold);
        for seed in [7, 8, 9] {
            for twig in workload(&tree, seed) {
                let plan = QueryPlan::new();
                for algorithm in Algorithm::ALL {
                    for kind in [CountKind::Presence, CountKind::Occurrence] {
                        let bare = cst.estimate_raw(&twig, algorithm, kind, None);
                        let cold = cst.estimate_raw(&twig, algorithm, kind, Some(&plan));
                        let warm = cst.estimate_raw(&twig, algorithm, kind, Some(&plan));
                        assert_eq!(
                            bare.to_bits(),
                            cold.to_bits(),
                            "cold plan diverges: {twig} {algorithm} {kind:?} (threshold {threshold})"
                        );
                        assert_eq!(
                            bare.to_bits(),
                            warm.to_bits(),
                            "warm plan diverges: {twig} {algorithm} {kind:?} (threshold {threshold})"
                        );
                    }
                }
            }
        }
    }
}

/// The served fast path multiplies `estimate_raw(.., Some(plan))` by a
/// separately memoized sibling discount; the product must equal
/// `Cst::estimate` exactly.
#[test]
fn planned_product_matches_estimate() {
    let (tree, cst) = fixture(2);
    for twig in workload(&tree, 11) {
        let plan = QueryPlan::new();
        let discount = cst.sibling_discount(&twig);
        for algorithm in Algorithm::ALL {
            for kind in [CountKind::Presence, CountKind::Occurrence] {
                let served = cst.estimate_raw(&twig, algorithm, kind, Some(&plan)) * discount;
                let direct = cst.estimate(&twig, algorithm, kind);
                assert_eq!(
                    served.to_bits(),
                    direct.to_bits(),
                    "served product diverges: {twig} {algorithm} {kind:?}"
                );
            }
        }
    }
}

/// A plan is shareable across threads (the server keeps one behind an
/// `Arc` per cached twig); concurrent first use must agree with the
/// plan-free path.
#[test]
fn plan_is_safe_to_share_across_threads() {
    let (tree, cst) = fixture(1);
    let twig = workload(&tree, 13).into_iter().next().unwrap();
    let plan = std::sync::Arc::new(QueryPlan::new());
    let cst = std::sync::Arc::new(cst);
    let expected = cst.estimate_raw(&twig, Algorithm::Msh, CountKind::Occurrence, None);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let (plan, cst, twig) = (plan.clone(), cst.clone(), twig.clone());
            std::thread::spawn(move || {
                cst.estimate_raw(&twig, Algorithm::Msh, CountKind::Occurrence, Some(&plan))
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.join().unwrap().to_bits(), expected.to_bits());
    }
}
