//! The summary abstraction: the estimation surface shared by the owned
//! [`Cst`] and zero-copy flat summaries.
//!
//! Every estimation stage — query compilation, subpath parsing, twiglet
//! grouping, MO combination — reads the summary through this trait, so a
//! memory-mapped flat summary (`twig-flat`) runs the exact same code as
//! the owned structure and produces bit-identical estimates. Signatures
//! are exposed as borrowed [`SigView`]s, which abstract over typed `u32`
//! words (owned storage) and raw little-endian bytes (flat storage)
//! without copying either; the set-hash estimators decode each star's
//! views once into reused word rows (`twig_sethash::SigRows`).

use twig_pst::{EdgeKey, PathToken, PrunedTrie, TrieNodeId};
use twig_sethash::SigView;
use twig_util::Symbol;

use crate::cst::{Cst, SignatureFallback};

/// Read access to a pruned-trie-shaped transition structure.
///
/// Node ids are dense `0..node_count` with `TrieNodeId::ROOT` at 0, as
/// in [`PrunedTrie`]; implementations over other storage must present
/// the same id space.
pub trait TrieAccess {
    /// The child of `node` along `edge`, if kept.
    fn child(&self, node: TrieNodeId, edge: EdgeKey) -> Option<TrieNodeId>;

    /// The parent of `node`, or `None` for the root.
    fn parent(&self, node: TrieNodeId) -> Option<TrieNodeId>;
}

impl TrieAccess for &PrunedTrie {
    #[inline]
    fn child(&self, node: TrieNodeId, edge: EdgeKey) -> Option<TrieNodeId> {
        PrunedTrie::child(self, node, edge)
    }

    #[inline]
    fn parent(&self, node: TrieNodeId) -> Option<TrieNodeId> {
        PrunedTrie::parent(self, node)
    }
}

/// A queryable twig summary: the read surface the six estimation
/// algorithms consume.
///
/// Implemented by the owned [`Cst`] and by `twig-flat`'s mapped view;
/// both expose the same trie shape, counts and signatures, so estimates
/// agree bit for bit (the estimators perform the identical float-op
/// sequence either way).
pub trait Summary {
    /// The borrowed trie view (a [`TrieAccess`]).
    type Trie<'a>: TrieAccess
    where
        Self: 'a;

    /// The subpath trie.
    fn trie(&self) -> Self::Trie<'_>;

    /// Number of data tree element nodes — the `n` of the formulae.
    fn n(&self) -> u64;

    /// Signature length `L`.
    fn signature_len(&self) -> usize;

    /// The below-resolution fallback mode.
    fn fallback(&self) -> SignatureFallback;

    /// Resolves a query label to the data vocabulary.
    fn symbol(&self, label: &str) -> Option<Symbol>;

    /// Looks up the trie node for a token sequence, if fully present.
    fn lookup(&self, tokens: &[PathToken]) -> Option<TrieNodeId>;

    /// Presence count `Cp(α)` of a trie node.
    fn presence(&self, node: TrieNodeId) -> u64;

    /// Occurrence count `Co(α)` of a trie node.
    fn occurrence(&self, node: TrieNodeId) -> u64;

    /// Signature of the subpath at `node`, if it is label-rooted.
    fn signature(&self, node: TrieNodeId) -> Option<SigView<'_>>;
}

impl Summary for Cst {
    type Trie<'a> = &'a PrunedTrie;

    #[inline]
    fn trie(&self) -> &PrunedTrie {
        Cst::trie(self)
    }

    #[inline]
    fn n(&self) -> u64 {
        Cst::n(self)
    }

    #[inline]
    fn signature_len(&self) -> usize {
        Cst::signature_len(self)
    }

    #[inline]
    fn fallback(&self) -> SignatureFallback {
        Cst::fallback(self)
    }

    #[inline]
    fn symbol(&self, label: &str) -> Option<Symbol> {
        Cst::symbol(self, label)
    }

    #[inline]
    fn lookup(&self, tokens: &[PathToken]) -> Option<TrieNodeId> {
        Cst::lookup(self, tokens)
    }

    #[inline]
    fn presence(&self, node: TrieNodeId) -> u64 {
        Cst::presence(self, node)
    }

    #[inline]
    fn occurrence(&self, node: TrieNodeId) -> u64 {
        Cst::occurrence(self, node)
    }

    #[inline]
    fn signature(&self, node: TrieNodeId) -> Option<SigView<'_>> {
        Cst::signature(self, node).map(|sig| SigView::Words(sig.components()))
    }
}
