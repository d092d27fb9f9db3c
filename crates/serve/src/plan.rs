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
//! is sharded (a shard per reactor, each behind its own mutex) so
//! reactors rarely contend, and bounded per shard with exact least-recently-used
//! eviction in O(1): each shard keeps its entries in a slab threaded on
//! a doubly linked recency list by `u32` slot index, so a hit relinks
//! its entry to the front and an insert into a full shard reuses the
//! tail's slot without scanning. The key's bytes are allocated once and
//! shared between the slab entry and the key-to-slot map.
//!
//! A hit allocates nothing. A batch writes its keys' `summary@generation:`
//! once into a reused buffer and swaps only the query text behind it,
//! pushing bytes rather than formatting. With one shard (one reactor)
//! the shard pick hashes nothing; with several it takes the middle bits
//! of the key's word-at-a-time FxHash.

use std::hash::{Hash as _, Hasher as _};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use twig_core::QueryPlan;
use twig_tree::Twig;
use twig_util::cast::size_to_u64;
use twig_util::{FxHashMap, FxHasher};

use crate::json::write_digits;

/// Plans a server caches across `/estimate` requests. The benchmark's
/// traffic is sized against it: 256 hot twigs all fit, ~18k cold ones
/// miss every time.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 1024;

/// The end-of-list link: no slot has this index.
const NIL: u32 = u32::MAX;

/// One cached fast path for one query text on one summary generation:
/// the parsed twig, its plan of memoized answers and its memoized
/// sibling-injectivity discount.
pub(crate) struct CachedPlan {
    pub(crate) twig: Twig,
    pub(crate) plan: QueryPlan,
    pub(crate) discount: OnceLock<f64>,
}

/// A slab entry on its shard's recency list.
struct Entry {
    /// The plan key, shared with the shard's key-to-slot map.
    key: Arc<str>,
    plan: Arc<CachedPlan>,
    /// The slot used just more recently, or `NIL` at the head.
    newer: u32,
    /// The slot used just less recently, or `NIL` at the tail.
    older: u32,
}

/// One shard's LRU: the slab, its key-to-slot map and the ends of the
/// recency list. Links are slab indexes read through `get`/`get_mut`,
/// so `NIL` simply resolves to no entry.
struct Shard {
    /// Keys come from requests. FxHash keeps a hit cheap, and a shard
    /// never holds more than its capacity, so keys crafted to collide
    /// cost at most a scan of one shard per probe.
    slots: FxHashMap<Arc<str>, u32>,
    entries: Vec<Entry>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next eviction.
    tail: u32,
}

impl Shard {
    fn new() -> Shard {
        Shard { slots: FxHashMap::default(), entries: Vec::new(), head: NIL, tail: NIL }
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Some(entry) = self.entries.get(slot as usize) else { return };
        let (newer, older) = (entry.newer, entry.older);
        match self.entries.get_mut(newer as usize) {
            Some(entry) => entry.older = older,
            None => self.head = older,
        }
        match self.entries.get_mut(older as usize) {
            Some(entry) => entry.newer = newer,
            None => self.tail = newer,
        }
    }

    /// Links a detached `slot` in as the most recently used.
    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        if let Some(entry) = self.entries.get_mut(slot as usize) {
            entry.newer = NIL;
            entry.older = old_head;
        }
        match self.entries.get_mut(old_head as usize) {
            Some(entry) => entry.newer = slot,
            None => self.tail = slot,
        }
        self.head = slot;
    }

    /// The plan cached under `key`, now the most recently used.
    fn touch(&mut self, key: &str) -> Option<Arc<CachedPlan>> {
        let slot = *self.slots.get(key)?;
        if slot != self.head {
            self.unlink(slot);
            self.push_front(slot);
        }
        self.entries.get(slot as usize).map(|entry| Arc::clone(&entry.plan))
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.entries.clear();
        self.head = NIL;
        self.tail = NIL;
    }
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
        // Slots are `u32` indexes below `NIL`.
        let shard_capacity = capacity.div_ceil(shards).clamp(1, NIL as usize);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity,
        }
    }

    /// Writes the part of a batch's cache keys before the query text —
    /// registry name, `@`, reload generation, `:` — over `buf`, and
    /// returns its length for [`PlanCache::key`]. The generation makes
    /// reloads self-invalidating; a buffer reused across requests keeps
    /// a hit from allocating.
    pub(crate) fn key_prefix(buf: &mut String, summary: &str, generation: u64) -> usize {
        buf.clear();
        buf.push_str(summary);
        buf.push('@');
        write_digits(buf, generation);
        buf.push(':');
        buf.len()
    }

    /// The cache key of `query_text`: the first `prefix` bytes of `buf`
    /// (see [`PlanCache::key_prefix`]) followed by the raw text.
    pub(crate) fn key<'k>(buf: &'k mut String, prefix: usize, query_text: &str) -> &'k str {
        buf.truncate(prefix);
        buf.push_str(query_text);
        buf
    }

    /// Returns the cached entry for `key`, making it the shard's most
    /// recently used.
    pub(crate) fn lookup(&self, key: &str) -> Option<Arc<CachedPlan>> {
        self.shard(key).lock().unwrap_or_else(PoisonError::into_inner).touch(key)
    }

    /// Inserts a freshly parsed twig under `key` (a full shard evicts
    /// its least recently used entry) and returns the shared entry. If
    /// another thread inserted the same key first, its entry wins and
    /// `twig` is dropped — the two parses are identical by
    /// construction. The flag reports an eviction.
    pub(crate) fn insert(&self, key: &str, twig: Twig) -> (Arc<CachedPlan>, bool) {
        let shard = &mut *self.shard(key).lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(plan) = shard.touch(key) {
            return (plan, false);
        }
        let plan = Arc::new(CachedPlan { twig, plan: QueryPlan::new(), discount: OnceLock::new() });
        let key: Arc<str> = Arc::from(key);
        let entry =
            Entry { key: Arc::clone(&key), plan: Arc::clone(&plan), newer: NIL, older: NIL };
        // A full shard reuses the slot of its least recently used entry.
        let full = shard.entries.len() >= self.shard_capacity;
        let victim = shard.tail;
        if full {
            shard.unlink(victim);
        }
        let slot = match shard.entries.get_mut(victim as usize).filter(|_| full) {
            Some(stale) => {
                shard.slots.remove(&std::mem::replace(stale, entry).key);
                victim
            }
            None => {
                shard.entries.push(entry);
                (shard.entries.len() - 1) as u32
            }
        };
        shard.slots.insert(key, slot);
        shard.push_front(slot);
        (plan, full)
    }

    /// Drops every cached plan (called on `/admin/reload`).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(PoisonError::into_inner).clear();
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

    /// The shard `key` hashes to.
    fn shard_index(&self, key: &str) -> usize {
        let shards = size_to_u64(self.shards.len());
        if shards == 1 {
            return 0;
        }
        // The shard's map hashes the key the same way and uses the low
        // bits for its bucket and the top seven for its tags, so the
        // shard comes from bits in between.
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        ((hasher.finish() >> 32) % shards) as usize
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        // The modulo keeps the index in range of the (non-empty) shard
        // vector; the checked access keeps request-derived bytes out
        // of any indexing sink.
        match self.shards.get(self.shard_index(key)) {
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
        let prefix = PlanCache::key_prefix(&mut buf, "default", 1);
        cache.insert(PlanCache::key(&mut buf, prefix, "a(b)"), twig());
        assert_eq!(buf, "default@1:a(b)");
        // The prefix survives a key written over it.
        assert_eq!(PlanCache::key(&mut buf, prefix, "c"), "default@1:c");
        let prefix = PlanCache::key_prefix(&mut buf, "default", 2);
        assert!(
            cache.lookup(PlanCache::key(&mut buf, prefix, "a(b)")).is_none(),
            "a reload generation must never hit old plans"
        );
        let prefix = PlanCache::key_prefix(&mut buf, "d\u{e9}f", u64::MAX);
        assert_eq!(PlanCache::key(&mut buf, prefix, "x"), "d\u{e9}f@18446744073709551615:x");
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

    /// The reference model: one recency-ordered key list per shard,
    /// most recent first, scanned naively.
    struct NaiveLru {
        shards: Vec<Vec<String>>,
        capacity: usize,
    }

    impl NaiveLru {
        /// Probes `key` as the server does (a lookup, then an insert on
        /// a miss): returns (hit, evicted).
        fn probe(&mut self, shard: usize, key: &str) -> (bool, bool) {
            let keys = &mut self.shards[shard];
            if let Some(at) = keys.iter().position(|k| k == key) {
                let key = keys.remove(at);
                keys.insert(0, key);
                return (true, false);
            }
            let evicted = keys.len() >= self.capacity;
            if evicted {
                keys.pop();
            }
            keys.insert(0, key.to_owned());
            (false, evicted)
        }

        fn len(&self) -> usize {
            self.shards.iter().map(Vec::len).sum()
        }
    }

    /// Seeded traffic against the naive reference: every probe's hit or
    /// miss, eviction flag and the cache size must agree, also across a
    /// `clear()` halfway and a repeated insert of a resident key.
    #[test]
    fn matches_a_naive_lru_on_seeded_traffic() {
        use twig_util::SplitMix64;
        for shards in [1, 4] {
            for capacity in [1, 2, 3, 8, 33] {
                let cache = PlanCache::new(shards, capacity * shards);
                let mut model = NaiveLru { shards: vec![Vec::new(); shards], capacity };
                let mut rng = SplitMix64::new(0x1CE5 ^ (capacity * 31 + shards) as u64);
                let keyspace = (capacity * shards * 3 + 2) as u64;
                for probe in 0..20_000 {
                    if probe == 10_000 {
                        cache.clear();
                        model.shards.iter_mut().for_each(Vec::clear);
                        assert_eq!(cache.len(), 0);
                    }
                    let key = format!("default@1:q{}", rng.next_below(keyspace));
                    let shard = cache.shard_index(&key);
                    let (hit, evicted) = model.probe(shard, &key);
                    let context = format!("{shards} shards, capacity {capacity}, probe {probe}");
                    match cache.lookup(&key) {
                        Some(found) => {
                            assert!(hit, "{context}: {key} hit, the model misses");
                            // A resident key's insert keeps its entry.
                            if rng.next_below(8) == 0 {
                                let (again, evicted) = cache.insert(&key, twig());
                                assert!(Arc::ptr_eq(&found, &again) && !evicted, "{context}");
                            }
                        }
                        None => {
                            assert!(!hit, "{context}: {key} missed, the model hits");
                            let (_, cache_evicted) = cache.insert(&key, twig());
                            assert_eq!(cache_evicted, evicted, "{context}: eviction flag");
                        }
                    }
                    assert_eq!(cache.len(), model.len(), "{context}: len");
                }
            }
        }
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
