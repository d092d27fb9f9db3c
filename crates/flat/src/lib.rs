//! Zero-copy flat summaries: the `TWIGFLT1` on-disk format and its
//! mmap-backed query view.
//!
//! The owned [`Cst`] deserializer (`TWIGCST`) allocates per node; a host
//! serving *many* summaries pays that cost at every load and reload.
//! This crate trades a one-time packing step for O(1) loads:
//!
//! - [`writer::pack`] lays a built summary out as one page-aligned,
//!   little-endian, offset-based byte range (header + section table +
//!   CSR arrays + signature words + label table, each section carrying
//!   an FNV-1a checksum);
//! - [`FlatCst`] maps that range read-only (heap fallback) and
//!   implements the [`Summary`](twig_core::Summary) trait, so all six
//!   estimation algorithms of the paper run *in place* over the mapped
//!   bytes — no per-node allocation, bit-identical estimates (the
//!   estimators execute the same float-op sequence either way; see the
//!   seed-sweep tests);
//! - [`AnySummary`] loads a file of either format, sniffing the magic
//!   bytes, for offline callers such as `twig estimate`. The server
//!   hosts `FlatCst` alone: a reload is a map-swap, with the old
//!   generation unmapped when the last in-flight request drops its
//!   `Arc`.
//!
//! # Example
//!
//! ```
//! use twig_core::{Algorithm, CountKind, Cst, CstConfig};
//! use twig_flat::{writer, FlatCst};
//! use twig_tree::{DataTree, Twig};
//!
//! let xml = "<dblp><book><author>Knuth</author></book></dblp>";
//! let tree = DataTree::from_xml(xml).unwrap();
//! let cst = Cst::build(&tree, &CstConfig::default()).unwrap();
//! let flat = FlatCst::from_bytes(writer::pack(&cst).unwrap()).unwrap();
//! let query = Twig::parse(r#"book(author("Knuth"))"#).unwrap();
//! let a = Algorithm::Mosh;
//! let owned = cst.estimate(&query, a, CountKind::Presence);
//! let mapped = flat.estimate(&query, a, CountKind::Presence);
//! assert_eq!(owned.to_bits(), mapped.to_bits());
//! ```

pub mod error;
pub mod format;
mod mmap;
pub mod reader;
pub mod writer;

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::Path;

use twig_core::serialize::ReadError;
use twig_core::{Algorithm, CountKind, Cst, QueryPlan};
use twig_tree::Twig;

pub use error::FlatError;
pub use reader::{FlatCst, FlatTrie, SectionInfo};

/// Why a summary file (of either format) failed to load.
#[derive(Debug)]
pub enum LoadError {
    /// The owned (`TWIGCST`) deserializer rejected the input.
    Owned(ReadError),
    /// The flat (`TWIGFLT1`) validator rejected the input.
    Flat(FlatError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Owned(err) => write!(formatter, "owned summary: {err}"),
            LoadError::Flat(err) => write!(formatter, "flat summary: {err}"),
        }
    }
}

impl Error for LoadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadError::Owned(err) => Some(err),
            LoadError::Flat(err) => Some(err),
        }
    }
}

/// An owned or flat summary behind one value, for offline callers such
/// as `twig estimate` that accept either file format. Each method
/// forwards to the variant's own estimator, so both produce the same
/// bits. The server hosts [`FlatCst`] directly.
///
/// The size skew between variants is deliberate: a caller holds one or
/// two of these, never a collection, so boxing the flat variant would
/// buy nothing and cost an indirection on the zero-copy read path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnySummary {
    /// Heap-resident owned summary (`TWIGCST`).
    Owned(Cst),
    /// Zero-copy flat summary (`TWIGFLT1`), mapped or heap-backed.
    Flat(FlatCst),
}

impl AnySummary {
    /// Loads a summary file of either format, deciding by magic bytes.
    /// Flat files are memory-mapped; owned files are deserialized.
    pub fn load_file(path: &Path) -> Result<Self, LoadError> {
        let mut magic = [0u8; 8];
        let sniffed =
            File::open(path).and_then(|mut file| file.read_exact(&mut magic)).map(|()| magic);
        match sniffed {
            Ok(bytes) if &bytes == format::MAGIC => {
                FlatCst::open(path).map(AnySummary::Flat).map_err(LoadError::Flat)
            }
            _ => Cst::load_file(path).map(AnySummary::Owned).map_err(LoadError::Owned),
        }
    }

    /// Estimate with MO sibling discounting.
    pub fn estimate(&self, twig: &Twig, algorithm: Algorithm, kind: CountKind) -> f64 {
        match self {
            AnySummary::Owned(cst) => cst.estimate(twig, algorithm, kind),
            AnySummary::Flat(flat) => flat.estimate(twig, algorithm, kind),
        }
    }

    /// Raw (undiscounted) estimate. With a plan, a repeat returns the
    /// answer its first use memoized; the plan must belong to this
    /// summary and `twig`.
    pub fn estimate_raw(
        &self,
        twig: &Twig,
        algorithm: Algorithm,
        kind: CountKind,
        plan: Option<&QueryPlan>,
    ) -> f64 {
        match self {
            AnySummary::Owned(cst) => cst.estimate_raw(twig, algorithm, kind, plan),
            AnySummary::Flat(flat) => flat.estimate_raw(twig, algorithm, kind, plan),
        }
    }

    /// The MO sibling discount factor.
    pub fn sibling_discount(&self, twig: &Twig) -> f64 {
        match self {
            AnySummary::Owned(cst) => cst.sibling_discount(twig),
            AnySummary::Flat(flat) => flat.sibling_discount(twig),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_core::CstConfig;
    use twig_tree::DataTree;

    fn small_cst() -> Cst {
        let xml = r#"<dblp>
            <book><author>Suciu</author><year>1999</year></book>
            <book><author>Korn</author><year>1999</year></book>
            <article><author>Muthukrishnan</author></article>
        </dblp>"#;
        let tree = DataTree::from_xml(xml).unwrap();
        Cst::build(&tree, &CstConfig::default()).unwrap()
    }

    #[test]
    fn pack_open_roundtrip_preserves_structure() {
        let cst = small_cst();
        let bytes = writer::pack(&cst).unwrap();
        let flat = FlatCst::from_bytes(bytes).unwrap();
        assert_eq!(flat.node_count(), cst.node_count());
        assert_eq!(flat.n(), cst.n());
        assert_eq!(flat.signature_len(), cst.signature_len());
        assert_eq!(flat.threshold(), cst.threshold());
        assert_eq!(flat.total_paths(), cst.trie().total_paths());
        assert_eq!(flat.seed(), cst.seed());
        flat.verify().unwrap();
        assert!(flat.integrity_error().is_none());
        // Per-node counts and flags agree.
        for node in cst.trie().node_ids() {
            assert_eq!(flat.presence(node), cst.presence(node));
            assert_eq!(flat.occurrence(node), cst.occurrence(node));
            assert_eq!(flat.path_count(node), cst.trie().path_count(node));
            assert_eq!(flat.label_rooted(node), cst.trie().label_rooted(node));
            assert_eq!(
                flat.signature(node).is_some(),
                cst.signature(node).is_some(),
                "signature presence differs at {node:?}"
            );
        }
        // Vocabulary agrees both ways.
        assert_eq!(flat.symbol("book"), cst.symbol("book"));
        assert_eq!(flat.symbol("no-such-label"), None);
        // Trie navigation agrees: every node's token path resolves back.
        for node in cst.trie().node_ids() {
            let tokens = cst.trie().tokens_of(node);
            assert_eq!(flat.lookup(&tokens), Some(node));
        }
    }

    #[test]
    fn file_roundtrip_uses_mmap() {
        let cst = small_cst();
        let dir = std::env::temp_dir().join("twig-flat-lib-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round.flt");
        writer::write_file(&cst, &path).unwrap();
        let flat = FlatCst::open(&path).unwrap();
        #[cfg(unix)]
        assert!(flat.is_mapped());
        flat.verify().unwrap();
        assert_eq!(flat.node_count(), cst.node_count());

        let any = AnySummary::load_file(&path).unwrap();
        assert!(matches!(any, AnySummary::Flat(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn any_summary_sniffs_owned_format() {
        let cst = small_cst();
        let dir = std::env::temp_dir().join("twig-flat-lib-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sniff.cst");
        let mut owned_bytes = Vec::new();
        cst.write_to(&mut owned_bytes).unwrap();
        std::fs::write(&path, owned_bytes).unwrap();
        let any = AnySummary::load_file(&path).unwrap();
        assert!(matches!(any, AnySummary::Owned(_)));

        let query = Twig::parse(r#"book(author("Korn"))"#).unwrap();
        let flat = AnySummary::Flat(FlatCst::from_bytes(writer::pack(&cst).unwrap()).unwrap());
        for algorithm in Algorithm::ALL {
            let owned = any.estimate(&query, algorithm, CountKind::Occurrence);
            let mapped = flat.estimate(&query, algorithm, CountKind::Occurrence);
            assert_eq!(owned.to_bits(), mapped.to_bits(), "{algorithm}");
        }
        std::fs::remove_file(&path).ok();
    }
}
