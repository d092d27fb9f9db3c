//! The flat reader's child search against the owned trie it was packed
//! from.
//!
//! `FlatTrie::child` narrows a long CSR row by halving and then counts
//! the smaller keys of the remaining window, so a wrong bound shows only
//! on some rows and some keys. For every node of a seeded DBLP summary
//! this looks up every present edge, the absent keys just below, between
//! and above them, and the extremes 0 and `u32::MAX`, and asks for the
//! owned `PrunedTrie`'s answer each time; every node's parent is checked
//! the same way.

use twig_core::{Cst, CstConfig, SpaceBudget, Summary, TrieAccess};
use twig_datagen::{generate_dblp, DblpConfig};
use twig_flat::{writer, FlatCst};
use twig_pst::{EdgeKey, TrieNodeId};
use twig_tree::DataTree;

#[test]
fn flat_child_search_matches_owned_trie() {
    let xml = generate_dblp(&DblpConfig {
        target_bytes: 120_000,
        seed: 0x5EA2_C411,
        ..DblpConfig::default()
    });
    let tree = DataTree::from_xml(&xml).expect("generated DBLP parses");
    let cst =
        Cst::build(&tree, &CstConfig { budget: SpaceBudget::Threshold(1), ..CstConfig::default() })
            .expect("summary builds");
    let flat = FlatCst::from_bytes(writer::pack(&cst).expect("summary packs")).expect("opens");
    let owned = cst.trie();
    let mapped = flat.trie();

    // Every node's edge row, from the parent and edge of each child.
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); owned.node_count()];
    for node in owned.node_ids() {
        if let (Some(parent), Some(edge)) = (owned.parent(node), owned.edge(node)) {
            rows[parent.index()].push(edge.raw());
        }
    }
    let mut long_rows = 0usize;
    let mut probes = Vec::new();
    for node in owned.node_ids() {
        assert_eq!(mapped.parent(node), owned.parent(node), "parent of {node:?}");
        let row = &mut rows[node.index()];
        row.sort_unstable();
        long_rows += usize::from(row.len() > 16);
        probes.clear();
        probes.extend([0, u32::MAX]);
        for &edge in row.iter() {
            probes.extend([edge.wrapping_sub(1), edge, edge.wrapping_add(1)]);
        }
        for &raw in &probes {
            let edge = EdgeKey::from_raw(raw);
            assert_eq!(
                mapped.child(node, edge),
                owned.child(node, edge),
                "child of {node:?} along {raw:#x} (row of {})",
                row.len()
            );
        }
    }
    assert!(long_rows >= 8, "too few rows longer than 16 entries to narrow: {long_rows}");

    // A node id past the table is absent, never a panic.
    let past = TrieNodeId(u32::try_from(owned.node_count()).expect("node count fits u32"));
    assert_eq!(mapped.child(past, EdgeKey::from_raw(0)), None);
    assert_eq!(mapped.parent(past), None);
}
