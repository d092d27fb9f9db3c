//! Path suffix trie construction, counting and pruning (Sec. 3.1).
//!
//! The CST summary is built from the set of all root-to-leaf *paths* of the
//! data tree: sequences of element labels optionally ending in a leaf text
//! value. Following the paper, non-leaf labels are atomic tokens while leaf
//! values decompose into characters, so the trie contains three subpath
//! shapes (the paper's `dblp.book.author.Suciu` example):
//!
//! 1. label-only subpaths (`book.author`),
//! 2. label subpaths extended by a *prefix* of a leaf value (`author.Su`),
//! 3. pure string fragments — any substring of a leaf value (`uciu`).
//!
//! Forms like `author.uciu` (label followed by a mid-string fragment)
//! deliberately do **not** occur, exactly as in the paper.
//!
//! Each trie node carries three counts:
//!
//! - `pc(α)` — *path appearance count*: number of root-to-leaf paths
//!   containing α as a subpath. Pruning thresholds this count (pruning on
//!   rooting-node counts would throw away the root, see the paper's fn. 5).
//! - `Cp(α)` — *presence count*: number of distinct data nodes at which α
//!   is rooted (for pure string fragments: distinct `(leaf, offset)`
//!   start positions).
//! - `Co(α)` — *occurrence count*: number of distinct downward instances
//!   of α (deduplicated by the instance's end node).
//!
//! All three are exact under the documented precondition that no
//! root-to-leaf path matches the same subpath starting at two distinct
//! nodes (in particular whenever no label repeats along a vertical chain —
//! true of DBLP, SWISS-PROT and the synthetic corpora). For pathological
//! periodic trees the counts degrade gracefully to slight overcounts; see
//! the count tests and property tests.
//!
//! [`build_suffix_trie`] counts in two passes:
//!
//! - The **path pass** walks every root-to-leaf path once, in document
//!   order, and inserts its label-rooted subpaths (shapes 1 and 2). Each
//!   node keeps the last path, start element and end node that counted
//!   it, so `pc`, `Cp` and `Co` each count a repeat once.
//! - The **fragment pass** inserts the pure string fragments (shape 3).
//!   A fragment depends only on the leaf value, and most values repeat
//!   (three leaves in four on the DBLP-like corpus), so each *distinct*
//!   value's suffixes are walked once, weighted by the number of leaves
//!   holding it. Fragment nodes hang under the root's character edges,
//!   so the two passes never count the same node.
//!
//! [`SuffixTrie::prune`] thresholds on `pc`, preserving the monotonicity
//! property the estimators rely on (every sub-subpath of a kept subpath is
//! kept), and renumbers the kept nodes depth-first by sorted edge, so no
//! summary depends on the full trie's node ids;
//! [`SuffixTrie::prune_to_budget`] picks the threshold under a
//! caller-supplied per-node cost model so the summary lands within a byte
//! budget.

pub mod builder;
pub mod pruned;
pub mod trie;

pub use builder::{build_suffix_trie, TrieConfig};
pub use pruned::{ExportedNode, NodeCostInfo, PrunedTrie};
pub use trie::{EdgeKey, PathToken, SuffixTrie, TrieNodeId};
