//! Set hashing (min-hash signatures) for twig selectivity estimation.
//!
//! Implements the signature scheme of Sec. 3.4–3.6 of the paper, following
//! the method of Chen et al. (PODS 2000) which the paper adopts:
//!
//! - a family of `L` independently seeded linear hash functions
//!   ([`HashFamily`]), each mapping `u64` element ids into the full 64-bit
//!   range ("significantly larger than the domain" to keep collisions
//!   negligible),
//! - a [`Signature`] per set: component `i` stores the minimum `h_i(x)`
//!   over the set's elements,
//! - **k-way resemblance** `ρ = |S₁ ∩ … ∩ S_k| / |S₁ ∪ … ∪ S_k|`,
//!   estimated as the fraction of components on which all `k` signatures
//!   agree,
//! - the **intersection-size estimator** ([`estimate_intersection`]): with
//!   the union signature (componentwise min) and the exact size of the
//!   largest set `S_m` (which the CST stores as the presence count),
//!   `|∩| ≈ ρ · |S_m| / F` where `F` estimates `|S_m| / |∪|` as the
//!   fraction of components where `S_m`'s signature equals the union
//!   signature.
//!
//! Signatures are generic over the component width. Full [`Signature<u64>`]
//! values are built during summary construction; [`Signature::truncate`]
//! keeps only the top 32 bits per component for storage
//! ([`CompactSignature`]), halving the space per CST node. Truncation is a
//! monotone map, so componentwise minima (unions) still commute, and a
//! spurious component match requires two distinct minima agreeing on their
//! top 32 bits — negligible against the `O(1/√L)` sampling noise.
//!
//! Signatures are only comparable when produced by the same [`HashFamily`]
//! (same seed, same length); [`HashFamily::seed`] exposes the seed so
//! summaries can record it.

use twig_util::cast::{count_to_f64, size_to_f64};
use twig_util::SplitMix64;

pub mod kernels;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for u32 {}
}

/// A signature component type: `u64` for freshly built signatures, `u32`
/// for truncated stored ones.
pub trait Component: Copy + Ord + Eq + std::fmt::Debug + sealed::Sealed {
    /// The value stored for the empty set (no minimum observed).
    const EMPTY: Self;
}

impl Component for u64 {
    const EMPTY: Self = u64::MAX;
}

impl Component for u32 {
    const EMPTY: Self = u32::MAX;
}

/// A family of `L` independent linear hash functions over `u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashFamily {
    mults: Vec<u64>,
    adds: Vec<u64>,
    seed: u64,
}

impl HashFamily {
    /// Creates a family of `len` hash functions from `seed`.
    ///
    /// # Panics
    /// Panics if `len` is 0.
    pub fn new(len: usize, seed: u64) -> Self {
        assert!(len > 0, "signature length must be positive");
        let mut rng = SplitMix64::new(seed);
        let mults = (0..len).map(|_| rng.next_odd_u64()).collect();
        let adds = (0..len).map(|_| rng.next_u64()).collect();
        Self { mults, adds, seed }
    }

    /// Number of hash functions (= signature length).
    #[inline]
    pub fn len(&self) -> usize {
        self.mults.len()
    }

    /// True when the family is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.mults.is_empty()
    }

    /// The seed this family was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Applies hash function `i` to `element`.
    ///
    /// A wrapping multiply-add followed by a xor-shift finalizer: the
    /// finalizer makes the *minimum* over a set behave like a uniform
    /// order statistic, which plain linear congruences do not.
    #[inline]
    pub fn hash(&self, i: usize, element: u64) -> u64 {
        mix(element, self.mults[i], self.adds[i])
    }

    /// Writes `element`'s compact signature row: component `i` is
    /// `h_i(element)` truncated as [`Signature::truncate`] truncates it.
    /// Truncation is monotone, so it commutes with the minimum: folding
    /// the rows of a set's elements by componentwise minimum
    /// ([`kernels::union_min_into`], from all `u32::MAX`) gives exactly
    /// `Signature::build(family, set).truncate()`. Fills the first
    /// `min(row.len(), L)` components.
    #[inline]
    pub fn compact_row_into(&self, element: u64, row: &mut [u32]) {
        for ((slot, &mult), &add) in row.iter_mut().zip(&self.mults).zip(&self.adds) {
            *slot = truncate_component(mix(element, mult, add));
        }
    }
}

/// One hash function of the family: a wrapping multiply-add followed by
/// a xor-shift finalizer.
#[inline]
fn mix(element: u64, mult: u64, add: u64) -> u64 {
    let mut x = element.wrapping_mul(mult).wrapping_add(add);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

/// The storage truncation: a component's top 32 bits. Monotone, and it
/// maps `u64::MAX` (`EMPTY`) to `u32::MAX`.
#[inline]
fn truncate_component(component: u64) -> u32 {
    (component >> 32) as u32
}

/// Storage-friendly signature with 32-bit components.
pub type CompactSignature = Signature<u32>;

/// A min-hash signature of a set of `u64` element ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature<C: Component = u64> {
    components: Vec<C>,
}

impl Signature<u64> {
    /// Builds a signature from an iterator of elements.
    pub fn build(family: &HashFamily, elements: impl IntoIterator<Item = u64>) -> Self {
        let mut sig = Self::empty(family.len());
        for element in elements {
            sig.insert(family, element);
        }
        sig
    }

    /// Folds one element into the signature.
    #[inline]
    pub fn insert(&mut self, family: &HashFamily, element: u64) {
        debug_assert_eq!(self.components.len(), family.len());
        for (i, comp) in self.components.iter_mut().enumerate() {
            let h = family.hash(i, element);
            if h < *comp {
                *comp = h;
            }
        }
    }

    /// Truncates each component to its top 32 bits for storage.
    ///
    /// The map is monotone, so minima (and hence union signatures) are
    /// preserved; `EMPTY` maps to `EMPTY`.
    pub fn truncate(&self) -> CompactSignature {
        Signature { components: self.components.iter().map(|&c| truncate_component(c)).collect() }
    }
}

impl<C: Component> Signature<C> {
    /// The signature of the empty set, of length `len`.
    pub fn empty(len: usize) -> Self {
        Self { components: vec![C::EMPTY; len] }
    }

    /// Rebuilds a signature from stored components (inverse of
    /// [`Signature::components`]).
    pub fn from_components(components: Vec<C>) -> Self {
        Self { components }
    }

    /// Signature length.
    #[inline]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True when the signature has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// True when no element was ever inserted.
    pub fn is_empty_set(&self) -> bool {
        self.components.iter().all(|&c| c == C::EMPTY)
    }

    /// The union signature: componentwise minimum (Step 2 of the paper's
    /// estimation procedure). Signatures must have equal length. The
    /// fold itself is the branch-free [`kernels::union_min_into`].
    pub fn union(signatures: &[&Signature<C>]) -> Signature<C> {
        assert!(!signatures.is_empty(), "union of no signatures");
        let len = signatures[0].len();
        let mut out = Signature::empty(len);
        for sig in signatures {
            assert_eq!(sig.len(), len, "signature length mismatch");
            kernels::union_min_into(&mut out.components, &sig.components);
        }
        out
    }

    /// Estimated k-way resemblance `|∩|/|∪|`: the fraction of components
    /// on which all signatures agree (Step 1 / "set resemblance
    /// estimation" in the paper). Zero if any set is empty. The
    /// agreement count is the branch-free [`kernels::agreement_count`].
    pub fn resemblance(signatures: &[&Signature<C>]) -> f64 {
        assert!(!signatures.is_empty(), "resemblance of no signatures");
        let len = signatures[0].len();
        if signatures.iter().any(|s| s.is_empty_set()) {
            // An empty set makes the intersection empty; resemblance 0
            // (the 0/0 all-empty case is also defined as 0: there is
            // nothing to count).
            return 0.0;
        }
        let first = signatures[0];
        let rest: Vec<&[C]> = signatures[1..]
            .iter()
            .map(|sig| {
                assert_eq!(sig.len(), len, "signature length mismatch");
                sig.components.as_slice()
            })
            .collect();
        let matching = kernels::agreement_count(&first.components, &rest);
        size_to_f64(matching) / size_to_f64(len)
    }

    /// Raw component access (for serialization and size accounting).
    pub fn components(&self) -> &[C] {
        &self.components
    }
}

/// A borrowed view of a stored 32-bit signature: either typed words (the
/// owned [`CompactSignature`] storage) or raw little-endian bytes (the
/// flat on-disk encoding, length a multiple of 4).
///
/// [`SigRows`] decodes both forms into the same words, so the estimation
/// pipeline runs the *same* float code over owned and memory-mapped
/// summaries and their estimates are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigView<'a> {
    /// Typed `u32` components.
    Words(&'a [u32]),
    /// Little-endian `u32` words as raw bytes.
    Bytes(&'a [u8]),
}

/// One star's signatures decoded into reusable rows, and the set-hash
/// estimators over them.
///
/// [`SigRows::clear`] fixes the row length `L`; each
/// [`SigRows::add_signature`] decodes one [`SigView`] into a row of
/// exactly `L` words beside the exact size of its set. The estimators
/// run on the branch-free [`kernels`] and perform the float operations
/// of [`Signature::resemblance`], [`estimate_union_size`] and
/// [`estimate_intersection`] in the same order, so over equal components
/// they agree with those references bit for bit. Unlike the references
/// they are panic-free, read no rows as 0.0, and allocate nothing once
/// the buffers have grown to a star's size.
#[derive(Debug, Clone, Default)]
pub struct SigRows {
    /// Words per row (`L`).
    len: usize,
    /// The rows, `len` words each, in insertion order.
    words: Vec<u32>,
    /// The exact size of each row's set.
    sizes: Vec<u64>,
    /// Union scratch.
    union: Vec<u32>,
    /// Agreement-mask scratch for three or more rows.
    mask: Vec<bool>,
    /// The k-way agreement count of the current rows, once counted.
    agreement: Option<usize>,
}

impl SigRows {
    /// Empties the buffer for rows of `len` words.
    pub fn clear(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.sizes.clear();
        self.agreement = None;
    }

    /// Appends `sig` as a row, with the exact size of its set. Bytes are
    /// decoded as little-endian words. Components past the view's end
    /// read as the empty sentinel `u32::MAX`, and those past `L` are
    /// dropped.
    pub fn add_signature(&mut self, sig: SigView<'_>, size: u64) {
        let start = self.words.len();
        self.words.resize(start.saturating_add(self.len), u32::MAX);
        let row = self.words.get_mut(start..).unwrap_or_default();
        match sig {
            SigView::Words(words) => {
                for (slot, &word) in row.iter_mut().zip(words) {
                    *slot = word;
                }
            }
            SigView::Bytes(bytes) => {
                for (slot, chunk) in row.iter_mut().zip(bytes.chunks_exact(4)) {
                    *slot = chunk.try_into().map_or(u32::MAX, u32::from_le_bytes);
                }
            }
        }
        self.sizes.push(size);
        self.agreement = None;
    }

    /// The smallest set size, or 0 without rows.
    #[must_use]
    pub fn min_size(&self) -> u64 {
        self.sizes.iter().copied().min().unwrap_or(0)
    }

    /// Estimated k-way resemblance `|∩|/|∪|` of every row: the fraction
    /// of components on which all rows agree ([`Signature::resemblance`]).
    /// 0.0 without rows or when any set is empty.
    pub fn resemblance(&mut self) -> f64 {
        if self.sizes.is_empty()
            || Rows::new(&self.words, self.len, &self.sizes).any(|(sig, _)| is_empty_set(sig))
        {
            return 0.0;
        }
        size_to_f64(self.agreement_count()) / size_to_f64(self.len)
    }

    /// Estimated `|S₁ ∪ … ∪ S_k|` ([`estimate_union_size`]): the size of
    /// the largest non-empty set over its resemblance with the union of
    /// the non-empty rows, or the sum of their sizes when that
    /// resemblance is 0. 0.0 when every set is empty.
    pub fn estimate_union_size(&mut self) -> f64 {
        let Some((largest_size, f, sum)) = self.largest_against_union() else {
            return 0.0;
        };
        if f == 0.0 {
            return sum;
        }
        count_to_f64(largest_size) / f
    }

    /// Estimated `|S₁ ∩ … ∩ S_k|` ([`estimate_intersection`]), clamped to
    /// the smallest set. 0.0 without rows or when any set is empty; the
    /// k-way agreement a preceding [`SigRows::resemblance`] counted is
    /// reused.
    pub fn estimate_intersection(&mut self) -> f64 {
        if self.sizes.is_empty()
            || Rows::new(&self.words, self.len, &self.sizes)
                .any(|(sig, size)| size == 0 || is_empty_set(sig))
        {
            return 0.0;
        }
        let min_size = count_to_f64(self.min_size());
        if let [only] = self.sizes.as_slice() {
            return count_to_f64(*only);
        }
        let rho = size_to_f64(self.agreement_count()) / size_to_f64(self.len);
        if rho == 0.0 {
            return 0.0;
        }
        // Every set is non-empty here, so the union covers all rows. The
        // largest set gives the most accurate |∪| recovery.
        let Some((largest_size, f, _)) = self.largest_against_union() else {
            return 0.0;
        };
        if f == 0.0 {
            return (rho * count_to_f64(largest_size)).min(min_size);
        }
        let union_size = count_to_f64(largest_size) / f;
        (rho * union_size).min(min_size)
    }

    /// Over the rows of non-empty sets: the size of the largest, its
    /// row's resemblance with the union of those rows, and the sum of
    /// their sizes. `None` when every set is empty.
    fn largest_against_union(&mut self) -> Option<(u64, f64, f64)> {
        let SigRows { len, words, sizes, union, .. } = self;
        union.clear();
        union.resize(*len, u32::MAX);
        // `max_by_key` keeps the last maximum, so `>=` preserves the
        // references' tie-break; the sum runs in row order.
        let mut largest: Option<(&[u32], u64)> = None;
        let mut sum = 0.0;
        for (sig, size) in Rows::new(words, *len, sizes) {
            if size > 0 && !is_empty_set(sig) {
                sum += count_to_f64(size);
                if largest.is_none_or(|(_, best)| size >= best) {
                    largest = Some((sig, size));
                }
                kernels::union_min_into(union, sig);
            }
        }
        let (largest_sig, largest_size) = largest?;
        Some((largest_size, pair_resemblance(largest_sig, union, *len), sum))
    }

    /// Positions where every row agrees with the first: the pairwise
    /// kernel for two rows, a reused mask for more. Counted once per set
    /// of rows.
    fn agreement_count(&mut self) -> usize {
        if let Some(count) = self.agreement {
            return count;
        }
        let SigRows { len, words, sizes, mask, .. } = self;
        let (first, rest) = words.split_at_checked(*len).unwrap_or_default();
        let count = if let [_, _] = sizes.as_slice() {
            kernels::pairwise_agreement(first, rest)
        } else {
            mask.clear();
            mask.resize(first.len(), true);
            for sig in rest.chunks((*len).max(1)) {
                kernels::agreement_mask_into(mask, first, sig);
            }
            kernels::mask_count(mask)
        };
        self.agreement = Some(count);
        count
    }
}

/// The rows of a [`SigRows`] with their set sizes, in insertion order.
struct Rows<'a> {
    words: &'a [u32],
    len: usize,
    sizes: std::slice::Iter<'a, u64>,
}

impl<'a> Rows<'a> {
    fn new(words: &'a [u32], len: usize, sizes: &'a [u64]) -> Self {
        Rows { words, len, sizes: sizes.iter() }
    }
}

impl<'a> Iterator for Rows<'a> {
    type Item = (&'a [u32], u64);

    fn next(&mut self) -> Option<Self::Item> {
        let &size = self.sizes.next()?;
        let (sig, rest) = self.words.split_at_checked(self.len).unwrap_or_default();
        self.words = rest;
        Some((sig, size))
    }
}

/// True when no element was ever inserted: every component is the
/// `EMPTY` sentinel ([`Signature::is_empty_set`]).
fn is_empty_set(sig: &[u32]) -> bool {
    sig.iter().all(|&c| c == u32::MAX)
}

/// Two-way resemblance of `len`-word rows, 0.0 when either set is empty.
fn pair_resemblance(a: &[u32], b: &[u32], len: usize) -> f64 {
    if is_empty_set(a) || is_empty_set(b) {
        return 0.0;
    }
    size_to_f64(kernels::pairwise_agreement(a, b)) / size_to_f64(len)
}

/// Estimates `|S₁ ∪ … ∪ S_k|` from signatures plus exact sizes: the
/// largest set's size divided by its resemblance with the union signature
/// (Step 3 of Sec. 3.6). Returns 0 for all-empty input and falls back to
/// the sum of sizes when the resemblance estimate degenerates to 0.
pub fn estimate_union_size<C: Component>(sets: &[(&Signature<C>, u64)]) -> f64 {
    assert!(!sets.is_empty(), "union of no sets");
    let nonempty: Vec<&(&Signature<C>, u64)> =
        sets.iter().filter(|&&(sig, size)| size > 0 && !sig.is_empty_set()).collect();
    if nonempty.is_empty() {
        return 0.0;
    }
    let signatures: Vec<&Signature<C>> = nonempty.iter().map(|&&(sig, _)| sig).collect();
    let union_sig = Signature::union(&signatures);
    let &&(largest_sig, largest_size) =
        nonempty.iter().max_by_key(|&&&(_, size)| size).expect("non-empty");
    let f = Signature::resemblance(&[largest_sig, &union_sig]);
    if f == 0.0 {
        return nonempty.iter().map(|&&(_, size)| count_to_f64(size)).sum();
    }
    count_to_f64(largest_size) / f
}

/// Estimates `|S₁ ∩ … ∩ S_k|` from signatures plus exact set sizes
/// (Steps 1–4 of Sec. 3.6).
///
/// `sets` pairs each signature with the exact cardinality of its set (the
/// CST keeps presence counts, so sizes are known exactly). Returns 0.0
/// when any set is empty. The estimate is clamped to `[0, min(sizes)]` —
/// the intersection can never exceed the smallest set.
pub fn estimate_intersection<C: Component>(sets: &[(&Signature<C>, u64)]) -> f64 {
    assert!(!sets.is_empty(), "intersection of no sets");
    if sets.iter().any(|&(sig, size)| size == 0 || sig.is_empty_set()) {
        return 0.0;
    }
    // `sets` is non-empty (asserted above); `unwrap_or` keeps the path
    // panic-free with a harmless 0-clamp if that ever changes.
    let min_size = count_to_f64(sets.iter().map(|&(_, size)| size).min().unwrap_or(0));
    if sets.len() == 1 {
        return count_to_f64(sets[0].1);
    }
    let signatures: Vec<&Signature<C>> = sets.iter().map(|&(sig, _)| sig).collect();
    let rho = Signature::resemblance(&signatures);
    if rho == 0.0 {
        return 0.0;
    }
    // Largest set gives the most accurate |union| recovery (paper, fn. 6).
    let &(largest_sig, largest_size) =
        sets.iter().max_by_key(|&&(_, size)| size).expect("non-empty");
    let union_sig = Signature::union(&signatures);
    let f = Signature::resemblance(&[largest_sig, &union_sig]);
    if f == 0.0 {
        // Degenerate: the largest set's signature shares nothing with the
        // union signature (cannot happen exactly — S_m ⊆ ∪ — but the
        // estimator can produce it at tiny signature lengths). Fall back
        // to resemblance times the largest size, a lower bound on ρ·|∪|.
        return (rho * count_to_f64(largest_size)).min(min_size);
    }
    let union_size = count_to_f64(largest_size) / f;
    (rho * union_size).min(min_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family(len: usize) -> HashFamily {
        HashFamily::new(len, 0xDEAD_BEEF)
    }

    #[test]
    fn identical_sets_have_resemblance_one() {
        let fam = family(64);
        let a = Signature::build(&fam, 0..100);
        let b = Signature::build(&fam, 0..100);
        assert_eq!(Signature::resemblance(&[&a, &b]), 1.0);
    }

    #[test]
    fn disjoint_sets_have_low_resemblance() {
        let fam = family(128);
        let a = Signature::build(&fam, 0..200);
        let b = Signature::build(&fam, 1000..1200);
        assert!(Signature::resemblance(&[&a, &b]) < 0.05);
    }

    #[test]
    fn resemblance_tracks_overlap() {
        // |A∩B| = 50, |A∪B| = 150 → ρ = 1/3.
        let fam = family(512);
        let a = Signature::build(&fam, 0..100);
        let b = Signature::build(&fam, 50..150);
        let rho = Signature::resemblance(&[&a, &b]);
        assert!((rho - 1.0 / 3.0).abs() < 0.08, "rho = {rho}");
    }

    #[test]
    fn three_way_resemblance() {
        // A=0..100, B=50..150, C=75..175: ∩ = 75..100 (25), ∪ = 175.
        let fam = family(512);
        let a = Signature::build(&fam, 0..100);
        let b = Signature::build(&fam, 50..150);
        let c = Signature::build(&fam, 75..175);
        let rho = Signature::resemblance(&[&a, &b, &c]);
        assert!((rho - 25.0 / 175.0).abs() < 0.06, "rho = {rho}");
    }

    #[test]
    fn union_signature_equals_signature_of_union() {
        let fam = family(64);
        let a = Signature::build(&fam, 0..50);
        let b = Signature::build(&fam, 30..90);
        let direct = Signature::build(&fam, 0..90);
        assert_eq!(Signature::union(&[&a, &b]), direct);
    }

    #[test]
    fn truncation_commutes_with_union() {
        let fam = family(64);
        let a = Signature::build(&fam, 0..50);
        let b = Signature::build(&fam, 30..90);
        let union_then_truncate = Signature::union(&[&a, &b]).truncate();
        let truncate_then_union = Signature::union(&[&a.truncate(), &b.truncate()]);
        assert_eq!(union_then_truncate, truncate_then_union);
    }

    #[test]
    fn truncated_resemblance_close_to_full() {
        let fam = family(256);
        let a = Signature::build(&fam, 0..100);
        let b = Signature::build(&fam, 50..150);
        let full = Signature::resemblance(&[&a, &b]);
        let compact = Signature::resemblance(&[&a.truncate(), &b.truncate()]);
        assert!((full - compact).abs() < 0.02, "full {full} vs compact {compact}");
    }

    #[test]
    fn compact_rows_fold_to_the_truncated_signature() {
        for (len, seed) in [(1usize, 3u64), (32, 0x7716_C0DE), (33, 9)] {
            let fam = HashFamily::new(len, seed);
            for set in [0..0u64, 5..6, 0..200, 1 << 40..(1 << 40) + 50] {
                let mut folded = vec![u32::MAX; len];
                let mut row = vec![0u32; len];
                for element in set.clone() {
                    fam.compact_row_into(element, &mut row);
                    kernels::union_min_into(&mut folded, &row);
                }
                let expected = Signature::build(&fam, set.clone()).truncate();
                assert_eq!(folded, expected.components(), "len {len} set {set:?}");
            }
        }
    }

    #[test]
    fn truncated_empty_stays_empty() {
        let sig = Signature::<u64>::empty(8);
        assert!(sig.truncate().is_empty_set());
    }

    #[test]
    fn intersection_estimate_two_way() {
        let fam = family(512);
        let a = Signature::build(&fam, 0..1000);
        let b = Signature::build(&fam, 500..1500);
        let est = estimate_intersection(&[(&a, 1000), (&b, 1000)]);
        assert!((est - 500.0).abs() < 150.0, "est = {est}");
    }

    #[test]
    fn intersection_estimate_compact_matches_full() {
        let fam = family(512);
        let a = Signature::build(&fam, 0..1000);
        let b = Signature::build(&fam, 500..1500);
        let full = estimate_intersection(&[(&a, 1000), (&b, 1000)]);
        let compact = estimate_intersection(&[(&a.truncate(), 1000), (&b.truncate(), 1000)]);
        assert!((full - compact).abs() < 50.0, "full {full} vs compact {compact}");
    }

    #[test]
    fn intersection_estimate_three_way() {
        let fam = family(512);
        let a = Signature::build(&fam, 0..600);
        let b = Signature::build(&fam, 200..800);
        let c = Signature::build(&fam, 400..1000);
        // ∩ = 400..600 = 200
        let est = estimate_intersection(&[(&a, 600), (&b, 600), (&c, 600)]);
        assert!((est - 200.0).abs() < 100.0, "est = {est}");
    }

    #[test]
    fn intersection_of_disjoint_is_near_zero() {
        let fam = family(256);
        let a = Signature::build(&fam, 0..500);
        let b = Signature::build(&fam, 10_000..10_500);
        let est = estimate_intersection(&[(&a, 500), (&b, 500)]);
        assert!(est < 30.0, "est = {est}");
    }

    #[test]
    fn intersection_with_empty_set_is_zero() {
        let fam = family(64);
        let a = Signature::build(&fam, 0..10);
        let empty = Signature::empty(64);
        assert_eq!(estimate_intersection(&[(&a, 10), (&empty, 0)]), 0.0);
    }

    #[test]
    fn intersection_single_set_returns_size() {
        let fam = family(64);
        let a = Signature::build(&fam, 0..10);
        assert_eq!(estimate_intersection(&[(&a, 10)]), 10.0);
    }

    #[test]
    fn intersection_clamped_to_smallest_set() {
        let fam = family(32); // tiny signature → noisy estimate
        let a = Signature::build(&fam, 0..5);
        let b = Signature::build(&fam, 0..1_000);
        let est = estimate_intersection(&[(&a, 5), (&b, 1000)]);
        assert!(est <= 5.0, "est = {est}");
    }

    #[test]
    fn subset_estimation_recovers_subset_size() {
        // A ⊂ B: |∩| = |A|.
        let fam = family(512);
        let a = Signature::build(&fam, 0..100);
        let b = Signature::build(&fam, 0..1_000);
        let est = estimate_intersection(&[(&a, 100), (&b, 1000)]);
        assert!((est - 100.0).abs() < 40.0, "est = {est}");
    }

    #[test]
    fn signatures_deterministic_across_builds() {
        let fam1 = HashFamily::new(64, 7);
        let fam2 = HashFamily::new(64, 7);
        assert_eq!(Signature::build(&fam1, 0..50), Signature::build(&fam2, 0..50));
    }

    #[test]
    fn different_seeds_give_different_signatures() {
        let fam1 = HashFamily::new(64, 7);
        let fam2 = HashFamily::new(64, 8);
        assert_ne!(Signature::build(&fam1, 0..50), Signature::build(&fam2, 0..50));
    }

    #[test]
    fn insertion_order_irrelevant() {
        let fam = family(64);
        let forward = Signature::build(&fam, 0..100);
        let backward = Signature::build(&fam, (0..100).rev());
        assert_eq!(forward, backward);
    }

    #[test]
    fn empty_set_flags() {
        let sig = Signature::<u64>::empty(16);
        assert!(sig.is_empty_set());
        let fam = family(16);
        let nonempty = Signature::build(&fam, [42]);
        assert!(!nonempty.is_empty_set());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_family_rejected() {
        let _ = HashFamily::new(0, 1);
    }

    /// A seeded compact signature of `len` components from `0..spread`,
    /// or the empty set one time in eight.
    fn random_signature(rng: &mut SplitMix64, len: usize, spread: u64) -> CompactSignature {
        if rng.next_below(8) == 0 {
            return Signature::empty(len);
        }
        Signature::from_components((0..len).map(|_| rng.next_below(spread) as u32).collect())
    }

    /// A set size: 0 one time in ten, otherwise one of three values, so
    /// the largest set is often tied.
    fn random_size(rng: &mut SplitMix64) -> u64 {
        match rng.next_below(10) {
            0 => 0,
            1..=4 => 7,
            5..=7 => 40,
            _ => 1000,
        }
    }

    fn load(rows: &mut SigRows, len: usize, views: &[(SigView<'_>, u64)]) {
        rows.clear(len);
        for &(sig, size) in views {
            rows.add_signature(sig, size);
        }
    }

    fn le_bytes_of(sig: &CompactSignature) -> Vec<u8> {
        sig.components().iter().flat_map(|c| c.to_le_bytes()).collect()
    }

    #[test]
    fn view_resemblance_bit_identical_to_owned() {
        let fam = family(256);
        let sigs: Vec<CompactSignature> = [0..100u64, 50..150, 75..175]
            .into_iter()
            .map(|r| Signature::build(&fam, r).truncate())
            .collect();
        let owned: Vec<&CompactSignature> = sigs.iter().collect();
        let words: Vec<(SigView, u64)> =
            sigs.iter().map(|s| (SigView::Words(s.components()), 100)).collect();
        let byte_store: Vec<Vec<u8>> = sigs.iter().map(le_bytes_of).collect();
        let bytes: Vec<(SigView, u64)> =
            byte_store.iter().map(|b| (SigView::Bytes(b), 100)).collect();
        let mut rows = SigRows::default();
        for k in 1..=3 {
            let expect = Signature::resemblance(&owned[..k]);
            load(&mut rows, 256, &words[..k]);
            assert_eq!(rows.resemblance(), expect, "words k={k}");
            load(&mut rows, 256, &bytes[..k]);
            assert_eq!(rows.resemblance(), expect, "bytes k={k}");
        }
        load(&mut rows, 4, &[]);
        assert_eq!(rows.resemblance(), 0.0);
        load(&mut rows, 4, &[(SigView::Words(&[u32::MAX; 4]), 0)]);
        assert_eq!(rows.resemblance(), 0.0, "empty set");
    }

    #[test]
    fn view_union_matches_owned_union() {
        let fam = family(64);
        let a = Signature::build(&fam, 0..50).truncate();
        let b = Signature::build(&fam, 30..90).truncate();
        let expect = Signature::union(&[&a, &b]);
        let (a_bytes, b_bytes) = (le_bytes_of(&a), le_bytes_of(&b));
        let mut rows = SigRows::default();
        for views in [
            [(SigView::Words(a.components()), 50), (SigView::Words(b.components()), 60)],
            [(SigView::Bytes(&a_bytes), 50), (SigView::Bytes(&b_bytes), 60)],
        ] {
            load(&mut rows, 64, &views);
            // The union-size estimate leaves the union of the non-empty
            // rows in the union scratch.
            let _ = rows.estimate_union_size();
            assert_eq!(rows.union, expect.components());
        }
    }

    #[test]
    fn view_estimators_bit_identical_to_owned() {
        // Sweep seeds and shapes; ties in set sizes exercise the
        // last-max tie-breaking the owned estimators inherit from
        // `max_by_key`.
        let mut rows = SigRows::default();
        for seed in 0..8u64 {
            let fam = HashFamily::new(96, seed);
            let base = seed * 37;
            let sigs: Vec<CompactSignature> =
                [base..base + 400, base + 100..base + 500, base + 250..base + 900]
                    .into_iter()
                    .map(|r| Signature::build(&fam, r).truncate())
                    .collect();
            let sizes = [400u64, 400, 650];
            let owned: Vec<(&CompactSignature, u64)> = sigs.iter().zip(sizes).collect();
            let byte_store: Vec<Vec<u8>> = sigs.iter().map(le_bytes_of).collect();
            let words: Vec<(SigView, u64)> =
                sigs.iter().zip(sizes).map(|(s, n)| (SigView::Words(s.components()), n)).collect();
            let bytes: Vec<(SigView, u64)> =
                byte_store.iter().zip(sizes).map(|(b, n)| (SigView::Bytes(b), n)).collect();
            for k in 1..=3 {
                let expect_int = estimate_intersection(&owned[..k]);
                let expect_union = estimate_union_size(&owned[..k]);
                for (form, views) in [("w", &words), ("b", &bytes)] {
                    load(&mut rows, 96, &views[..k]);
                    assert_eq!(rows.estimate_intersection(), expect_int, "int {form} k={k}");
                    assert_eq!(rows.estimate_union_size(), expect_union, "uni {form} k={k}");
                }
            }
        }
        // Degenerate shapes the owned path special-cases.
        let empty = Signature::<u32>::empty(16);
        let fam = family(16);
        let one = Signature::build(&fam, 0..5).truncate();
        load(
            &mut rows,
            16,
            &[(SigView::Words(one.components()), 5), (SigView::Words(empty.components()), 0)],
        );
        assert_eq!(rows.estimate_intersection(), estimate_intersection(&[(&one, 5), (&empty, 0)]));
        load(&mut rows, 16, &[]);
        assert_eq!(rows.estimate_intersection(), 0.0);
        assert_eq!(rows.estimate_union_size(), 0.0);
    }

    #[test]
    fn sig_rows_bit_identical_to_owned() {
        let mut rng = SplitMix64::new(0x51_6A0B5);
        let mut rows = SigRows::default();
        for len in [1usize, 2, 31, 32, 33] {
            for k in 1..=5usize {
                for round in 0..60 {
                    // A spread of 2 or 3 makes rows agree on many
                    // components; the full spread makes them differ.
                    let spread = [2u64, 3, 1 << 32][round % 3];
                    let sigs: Vec<CompactSignature> =
                        (0..k).map(|_| random_signature(&mut rng, len, spread)).collect();
                    let sizes: Vec<u64> = (0..k).map(|_| random_size(&mut rng)).collect();
                    let owned: Vec<(&CompactSignature, u64)> =
                        sigs.iter().zip(sizes.iter().copied()).collect();
                    let refs: Vec<&CompactSignature> = sigs.iter().collect();
                    let resemblance = Signature::resemblance(&refs).to_bits();
                    let union_size = estimate_union_size(&owned).to_bits();
                    let intersection = estimate_intersection(&owned).to_bits();
                    let context = format!("len {len} k {k} round {round}");

                    let words: Vec<(SigView, u64)> = sigs
                        .iter()
                        .zip(sizes.iter().copied())
                        .map(|(sig, size)| (SigView::Words(sig.components()), size))
                        .collect();
                    load(&mut rows, len, &words);
                    assert_eq!(rows.min_size(), sizes.iter().copied().min().unwrap(), "{context}");
                    assert_eq!(rows.resemblance().to_bits(), resemblance, "words {context}");
                    assert_eq!(rows.estimate_union_size().to_bits(), union_size, "words {context}");
                    // Reuses the agreement `resemblance` counted.
                    assert_eq!(
                        rows.estimate_intersection().to_bits(),
                        intersection,
                        "words {context}"
                    );

                    let bytes: Vec<Vec<u8>> = sigs
                        .iter()
                        .map(|sig| sig.components().iter().flat_map(|c| c.to_le_bytes()).collect())
                        .collect();
                    let views: Vec<(SigView, u64)> = bytes
                        .iter()
                        .zip(sizes.iter().copied())
                        .map(|(raw, size)| (SigView::Bytes(raw), size))
                        .collect();
                    load(&mut rows, len, &views);
                    // Counts the agreement itself this time.
                    assert_eq!(
                        rows.estimate_intersection().to_bits(),
                        intersection,
                        "bytes {context}"
                    );
                    assert_eq!(rows.resemblance().to_bits(), resemblance, "bytes {context}");
                    assert_eq!(rows.estimate_union_size().to_bits(), union_size, "bytes {context}");
                }
            }
        }
    }

    #[test]
    fn sig_rows_degenerate_inputs() {
        let mut rows = SigRows::default();
        rows.clear(4);
        assert_eq!(rows.resemblance(), 0.0);
        assert_eq!(rows.estimate_union_size(), 0.0);
        assert_eq!(rows.estimate_intersection(), 0.0);
        assert_eq!(rows.min_size(), 0);
        // A short view reads as empty-set components past its end, and a
        // long one is cut to the row length.
        rows.add_signature(SigView::Words(&[1, 2]), 3);
        rows.add_signature(SigView::Words(&[1, 2, u32::MAX, u32::MAX, 9]), 3);
        rows.add_signature(SigView::Bytes(&[1, 0, 0, 0, 2, 0, 0, 0, 7]), 3);
        assert_eq!(rows.resemblance(), 1.0);
        assert_eq!(rows.estimate_intersection(), 3.0);
    }
}
