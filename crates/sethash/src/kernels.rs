//! Branch-free signature kernels.
//!
//! The two inner loops of every signature operation — componentwise
//! union (minimum) and k-way component agreement — written as
//! straight-line iterator arithmetic with no data-dependent branches, so
//! rustc's autovectorizer can turn them into packed `min`/`cmpeq`
//! instructions over the `u32`/`u64` component arrays. [`Signature`]
//! methods delegate here; the kernels themselves are pure slice
//! functions so they can be tested exhaustively against scalar
//! reference implementations.
//!
//! Length contract: callers pass equal-length slices (the [`Signature`]
//! wrappers assert this). The kernels themselves stop at the shortest
//! slice rather than panicking — they contain no assertion, no indexing,
//! and no division.
//!
//! [`Signature`]: crate::Signature

use crate::Component;

/// Componentwise minimum of `other` into `acc` (the min-hash union
/// fold): `acc[i] = min(acc[i], other[i])`.
///
/// The select compiles to a conditional move / packed-min, not a branch.
#[inline]
pub fn union_min_into<C: Component>(acc: &mut [C], other: &[C]) {
    for (a, &b) in acc.iter_mut().zip(other) {
        *a = if b < *a { b } else { *a };
    }
}

/// Number of positions where `a` and `b` hold equal components — the
/// two-way agreement count behind resemblance estimation.
#[inline]
#[must_use]
pub fn pairwise_agreement<C: Component>(a: &[C], b: &[C]) -> usize {
    a.iter().zip(b).map(|(x, y)| usize::from(x == y)).sum()
}

/// Number of positions where *every* slice in `others` agrees with
/// `first` — the k-way agreement count. With no `others`, every
/// position trivially agrees and the count is `first.len()`.
///
/// The k-way fold keeps a flat agreement mask and combines with bitwise
/// `&` ([`agreement_mask_into`]), so each pass over a slice is as
/// vectorizable as the two-way kernel (which the common
/// `others.len() == 1` case dispatches to directly, allocation-free).
#[must_use]
pub fn agreement_count<C: Component>(first: &[C], others: &[&[C]]) -> usize {
    if let [only] = others {
        return pairwise_agreement(first, only);
    }
    let mut mask = vec![true; first.len()];
    for other in others {
        agreement_mask_into(&mut mask, first, other);
    }
    mask_count(&mask)
}

/// One pass of the k-way agreement fold: clears `mask[i]` wherever
/// `other[i]` differs from `first[i]`.
#[inline]
pub fn agreement_mask_into<C: Component>(mask: &mut [bool], first: &[C], other: &[C]) {
    for (m, (x, y)) in mask.iter_mut().zip(first.iter().zip(other)) {
        *m &= x == y;
    }
}

/// Number of positions an agreement mask still holds.
#[inline]
#[must_use]
pub fn mask_count(mask: &[bool]) -> usize {
    mask.iter().map(|&m| usize::from(m)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_util::SplitMix64;

    /// Scalar reference: the obvious branchy union.
    fn union_reference<C: Component>(acc: &[C], other: &[C]) -> Vec<C> {
        acc.iter().zip(other).map(|(&a, &b)| if b < a { b } else { a }).collect()
    }

    /// Scalar reference: the obvious per-position k-way agreement loop.
    fn agreement_reference<C: Component>(first: &[C], others: &[&[C]]) -> usize {
        let mut matching = 0;
        'position: for (i, &x) in first.iter().enumerate() {
            for other in others {
                if other.get(i) != Some(&x) {
                    continue 'position;
                }
            }
            matching += 1;
        }
        matching
    }

    fn random_u64s(rng: &mut SplitMix64, len: usize, spread: u64) -> Vec<u64> {
        (0..len).map(|_| rng.next_u64() % spread).collect()
    }

    #[test]
    fn union_matches_scalar_reference_u64() {
        let mut rng = SplitMix64::new(0x5EED);
        for len in [0usize, 1, 2, 3, 7, 8, 15, 16, 17, 64, 257] {
            for spread in [2u64, 16, u64::MAX] {
                let a = random_u64s(&mut rng, len, spread);
                let b = random_u64s(&mut rng, len, spread);
                let expected = union_reference(&a, &b);
                let mut got = a.clone();
                union_min_into(&mut got, &b);
                assert_eq!(got, expected, "len {len} spread {spread}");
            }
        }
    }

    #[test]
    fn union_matches_scalar_reference_u32() {
        let mut rng = SplitMix64::new(0xCAFE);
        for len in [1usize, 5, 31, 32, 33, 128] {
            let a: Vec<u32> =
                random_u64s(&mut rng, len, 1 << 20).into_iter().map(|v| v as u32).collect();
            let b: Vec<u32> =
                random_u64s(&mut rng, len, 1 << 20).into_iter().map(|v| v as u32).collect();
            let expected = union_reference(&a, &b);
            let mut got = a.clone();
            union_min_into(&mut got, &b);
            assert_eq!(got, expected, "len {len}");
        }
    }

    #[test]
    fn union_exhaustive_small_u32() {
        // Every (a, b) pair over a tiny component domain, every length
        // up to 3: exhaustive, not sampled.
        let domain: Vec<u32> = vec![0, 1, 2, u32::MAX];
        for &a0 in &domain {
            for &b0 in &domain {
                for &a1 in &domain {
                    for &b1 in &domain {
                        let a = [a0, a1];
                        let b = [b0, b1];
                        let expected = union_reference(&a, &b);
                        let mut got = a.to_vec();
                        union_min_into(&mut got, &b);
                        assert_eq!(got, expected);
                    }
                }
            }
        }
    }

    #[test]
    fn agreement_matches_scalar_reference() {
        let mut rng = SplitMix64::new(0xA11CE);
        for len in [0usize, 1, 2, 8, 63, 64, 65, 200] {
            for k in 0usize..5 {
                // A tight spread forces plenty of accidental agreement.
                let first = random_u64s(&mut rng, len, 4);
                let others: Vec<Vec<u64>> = (0..k).map(|_| random_u64s(&mut rng, len, 4)).collect();
                let views: Vec<&[u64]> = others.iter().map(Vec::as_slice).collect();
                assert_eq!(
                    agreement_count(&first, &views),
                    agreement_reference(&first, &views),
                    "len {len} k {k}"
                );
            }
        }
    }

    #[test]
    fn agreement_with_no_others_counts_every_position() {
        let first = [7u64, 8, 9];
        assert_eq!(agreement_count(&first, &[]), 3);
        assert_eq!(agreement_count::<u64>(&[], &[]), 0);
    }

    #[test]
    fn agreement_identical_slices_is_full_length() {
        let a = [3u32, 1, 4, 1, 5];
        assert_eq!(agreement_count(&a, &[&a, &a, &a]), a.len());
        assert_eq!(pairwise_agreement(&a, &a), a.len());
    }
}
