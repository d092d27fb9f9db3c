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

/// Test summaries over an owned [`Cst`].
#[cfg(test)]
pub(crate) mod testing {
    use std::cell::Cell;

    use twig_pst::{EdgeKey, PathToken, PrunedTrie, TrieNodeId};
    use twig_sethash::SigView;
    use twig_util::Symbol;

    use super::{Summary, TrieAccess};
    use crate::cst::{Cst, SignatureFallback};

    /// A [`Cst`] seen through a probe: it counts [`Summary::symbol`]
    /// calls, and hides a seeded share of the trie's edges, as a summary
    /// pruned harder or damaged in its child sections would.
    pub(crate) struct Probe<'a> {
        pub(crate) cst: &'a Cst,
        /// Of every 256 edges, this many (by hash) are hidden.
        pub(crate) hidden_per_256: u64,
        pub(crate) symbol_calls: Cell<usize>,
    }

    impl<'a> Probe<'a> {
        pub(crate) fn new(cst: &'a Cst, hidden_per_256: u64) -> Self {
            Probe { cst, hidden_per_256, symbol_calls: Cell::new(0) }
        }
    }

    /// The probe's trie: the owned trie less the hidden edges.
    pub(crate) struct ProbeTrie<'a> {
        trie: &'a PrunedTrie,
        hidden_per_256: u64,
    }

    impl TrieAccess for ProbeTrie<'_> {
        fn child(&self, node: TrieNodeId, edge: EdgeKey) -> Option<TrieNodeId> {
            let key = u64::from(node.0) << 32 | u64::from(edge.raw());
            let hidden = twig_util::hash::hash_u64(key) >> 56 < self.hidden_per_256;
            self.trie.child(node, edge).filter(|_| !hidden)
        }

        fn parent(&self, node: TrieNodeId) -> Option<TrieNodeId> {
            self.trie.parent(node)
        }
    }

    impl Summary for Probe<'_> {
        type Trie<'b>
            = ProbeTrie<'b>
        where
            Self: 'b;

        fn trie(&self) -> ProbeTrie<'_> {
            ProbeTrie { trie: self.cst.trie(), hidden_per_256: self.hidden_per_256 }
        }

        fn n(&self) -> u64 {
            self.cst.n()
        }

        fn signature_len(&self) -> usize {
            self.cst.signature_len()
        }

        fn fallback(&self) -> SignatureFallback {
            self.cst.fallback()
        }

        fn symbol(&self, label: &str) -> Option<Symbol> {
            self.symbol_calls.set(self.symbol_calls.get() + 1);
            self.cst.symbol(label)
        }

        fn lookup(&self, tokens: &[PathToken]) -> Option<TrieNodeId> {
            let trie = self.trie();
            tokens.iter().try_fold(TrieNodeId::ROOT, |node, token| trie.child(node, token.edge()))
        }

        fn presence(&self, node: TrieNodeId) -> u64 {
            self.cst.presence(node)
        }

        fn occurrence(&self, node: TrieNodeId) -> u64 {
            self.cst.occurrence(node)
        }

        fn signature(&self, node: TrieNodeId) -> Option<SigView<'_>> {
            Summary::signature(self.cst, node)
        }
    }
}
