//! The server-side query-plan cache.
//!
//! `/estimate` traffic from a query optimizer repeats the same twigs —
//! every join-order candidate re-asks the selectivity of the same
//! predicates. A [`PlanCache`] keeps the parsed [`Twig`] and one
//! [`twig_core::QueryPlan`] (plus the memoized sibling discount) per
//! `(summary, generation, query text)` key, so a repeated query skips
//! every stage of the estimate: the plan returns the answer its first
//! use computed for that algorithm and count kind. Keys use the raw
//! request text (not the canonical twig rendering): building a key
//! must not require a parse, or the parse would be back on the hit
//! path. Whitespace variants of one twig therefore occupy separate
//! entries — a capacity nuance, not a correctness one.
//!
//! A memoized answer is only right for the summary and twig it was
//! computed on. Keys embed the registry generation: a reload bumps the
//! generation, so a plan can never serve a swapped summary — the reload
//! handler additionally clears the cache to release memory. The cache
//! is sharded (one mutex per shard, key-hashed) so workers rarely
//! contend, and bounded per shard with least-recently-probed eviction.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use twig_core::QueryPlan;
use twig_tree::Twig;
use twig_util::cast::size_to_u64;
use twig_util::FxHashMap;

/// Plans a server caches across `/estimate` requests. The benchmark's
/// traffic is sized against it: 256 hot twigs all fit, ~18k cold ones
/// miss every time.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 1024;

/// One cached fast path for one query text on one summary generation:
/// the parsed twig, its plan of memoized answers and its memoized
/// sibling-injectivity discount.
pub(crate) struct CachedPlan {
    pub(crate) twig: Twig,
    pub(crate) plan: QueryPlan,
    pub(crate) discount: OnceLock<f64>,
}

struct Shard {
    entries: FxHashMap<String, (Arc<CachedPlan>, u64)>,
    clock: u64,
}

/// A bounded, sharded map from plan key to [`CachedPlan`].
pub(crate) struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
}

impl PlanCache {
    /// A cache of `shards` shards holding at most ~`capacity` plans
    /// total (rounded up to a whole number per shard).
    pub(crate) fn new(shards: usize, capacity: usize) -> PlanCache {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards).max(1);
        PlanCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { entries: FxHashMap::default(), clock: 0 }))
                .collect(),
            shard_capacity,
        }
    }

    /// Writes the cache key — registry name, reload generation, raw
    /// query text — over `buf`. The generation makes reloads
    /// self-invalidating; a buffer reused across a batch keeps a hit
    /// from allocating.
    pub(crate) fn key<'k>(
        buf: &'k mut String,
        summary: &str,
        generation: u64,
        query_text: &str,
    ) -> &'k str {
        buf.clear();
        // Writing to a `String` cannot fail.
        let _ = write!(buf, "{summary}@{generation}:{query_text}");
        buf
    }

    /// Returns the cached entry for `key`, bumping its recency stamp.
    pub(crate) fn lookup(&self, key: &str) -> Option<Arc<CachedPlan>> {
        let shard = &mut *self.shard(key).lock().unwrap_or_else(PoisonError::into_inner);
        shard.clock += 1;
        let stamp = shard.clock;
        let (plan, last_probed) = shard.entries.get_mut(key)?;
        *last_probed = stamp;
        Some(Arc::clone(plan))
    }

    /// Inserts a freshly parsed twig under `key` (evicting the
    /// least-recently-probed entry of a full shard) and returns the
    /// shared entry. If another thread inserted the same key first,
    /// its entry wins and `twig` is dropped — the two parses are
    /// identical by construction. The flag reports an eviction.
    pub(crate) fn insert(&self, key: &str, twig: Twig) -> (Arc<CachedPlan>, bool) {
        let shard = &mut *self.shard(key).lock().unwrap_or_else(PoisonError::into_inner);
        shard.clock += 1;
        let stamp = shard.clock;
        if let Some((plan, last_probed)) = shard.entries.get_mut(key) {
            *last_probed = stamp;
            return (Arc::clone(plan), false);
        }
        let mut evicted = false;
        if shard.entries.len() >= self.shard_capacity {
            let stale = shard
                .entries
                .iter()
                .min_by_key(|(_, (_, probed))| *probed)
                .map(|(key, _)| key.clone());
            if let Some(stale) = stale {
                evicted = shard.entries.remove(&stale).is_some();
            }
        }
        let plan = Arc::new(CachedPlan { twig, plan: QueryPlan::new(), discount: OnceLock::new() });
        shard.entries.insert(key.to_owned(), (Arc::clone(&plan), stamp));
        (plan, evicted)
    }

    /// Drops every cached plan (called on `/admin/reload`).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(PoisonError::into_inner).entries.clear();
        }
    }

    /// Total cached plans across all shards.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap_or_else(PoisonError::into_inner).entries.len())
            .sum()
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        // FNV-1a over the key bytes; any stable spread works here.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in key.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        let index = (hash % size_to_u64(self.shards.len())) as usize;
        // The modulo keeps `index` in range of the (non-empty) shard
        // vector; the checked access keeps request-derived bytes out
        // of any indexing sink.
        match self.shards.get(index) {
            Some(shard) => shard,
            None => &self.shards[0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn twig() -> Twig {
        Twig::parse("a(b)").unwrap()
    }

    #[test]
    fn miss_insert_then_hit_shares_the_plan() {
        let cache = PlanCache::new(4, 64);
        assert!(cache.lookup("default@1:a(b)").is_none());
        let (first, evicted) = cache.insert("default@1:a(b)", twig());
        assert!(!evicted);
        let second = cache.lookup("default@1:a(b)").expect("inserted key hits");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_insert_keeps_the_first_entry() {
        let cache = PlanCache::new(4, 64);
        let (first, _) = cache.insert("k", twig());
        let (second, evicted) = cache.insert("k", twig());
        assert!(!evicted);
        assert!(Arc::ptr_eq(&first, &second), "second insert must not replace");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_in_key_separates_entries() {
        let cache = PlanCache::new(4, 64);
        let mut buf = String::new();
        cache.insert(PlanCache::key(&mut buf, "default", 1, "a(b)"), twig());
        assert_eq!(buf, "default@1:a(b)");
        assert!(
            cache.lookup(PlanCache::key(&mut buf, "default", 2, "a(b)")).is_none(),
            "a reload generation must never hit old plans"
        );
    }

    #[test]
    fn full_shard_evicts_least_recently_probed() {
        let cache = PlanCache::new(1, 2);
        cache.insert("a", twig());
        cache.insert("b", twig());
        cache.lookup("a"); // refresh a: b is now the eviction victim
        let (_, evicted) = cache.insert("c", twig());
        assert!(evicted);
        assert!(cache.lookup("a").is_some(), "refreshed entry survives");
        assert!(cache.lookup("b").is_none(), "stale entry was evicted");
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache = PlanCache::new(4, 64);
        for key in ["a", "b", "c", "d", "e"] {
            cache.insert(key, twig());
        }
        assert_eq!(cache.len(), 5);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert!(cache.lookup("a").is_none());
    }
}
