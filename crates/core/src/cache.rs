//! The effect-keyed query-result cache.
//!
//! Theorem 7 licenses this: a query whose inferred effect is `new`-free
//! (no `A(C)` atom, and syntactically no `new` so even oid allocation is
//! untouched) is *deterministic* — its value is a pure function of the
//! store contents its effect lets it read. Translating the effect to
//! concrete extents ([`ioql_effects::effect_extents`]) and pairing each
//! with the store's monotonic version counter gives a fingerprint of
//! exactly that input: while every extent in the read set still reports
//! the version recorded at evaluation time, the cached value is the
//! value, and no `A(C)`/`U(C)` anywhere can have invalidated it without
//! bumping a counter. Invalidation is therefore *passive* — mutators
//! bump versions, the cache never needs an explicit flush.
//!
//! Entries are keyed on the **elaborated, pre-optimization** query: the
//! optimizer's output depends on catalogue statistics (extent sizes)
//! which drift with the store, so post-optimization queries are not
//! stable keys; elaborated queries are (resolution and typing depend
//! only on the schema, which is immutable per database).

use ioql_ast::{ExtentName, Query, Value};
use ioql_effects::Effect;
use ioql_store::Store;
use ioql_telemetry::Counter;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// One memoized result.
#[derive(Clone, Debug)]
pub(crate) struct CacheEntry {
    /// The version of every extent in the query's read set at the time
    /// the result was computed. The entry is valid while each still
    /// matches the live store.
    pub versions: BTreeMap<ExtentName, u64>,
    /// The memoized value.
    pub value: Value,
    /// The runtime effect trace of the original run (replayed verbatim
    /// on a hit — determinism means a re-run would trace the same).
    pub runtime_effect: Effect,
    /// Evaluation cells the original run charged to its governor. A hit
    /// re-charges these so resource accounting cannot be laundered
    /// through the cache (see `Database::query_governed`).
    pub cells: u64,
}

/// Hit/miss counters, surfaced through `Database::cache_stats`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including stale entries lazily evicted).
    pub misses: u64,
    /// Entries removed to stay within capacity or because their version
    /// fingerprint went stale.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity (0 = caching disabled).
    pub capacity: usize,
}

/// A FIFO-bounded map from elaborated query to [`CacheEntry`].
///
/// Stale entries (version mismatch) are evicted lazily at lookup; FIFO
/// order bounds residency when many distinct queries flow through.
#[derive(Clone, Debug, Default)]
pub(crate) struct QueryCache {
    map: HashMap<Arc<Query>, CacheEntry>,
    /// Insertion order, oldest first. Holds exactly the keys of `map`
    /// (each AST stored once, shared by both): every removal from one is
    /// a removal from the other, so neither can outgrow `capacity`.
    order: VecDeque<Arc<Query>>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Registry mirrors of the counters above — write-only telemetry;
    /// no cache decision reads them.
    m_hits: Counter,
    m_misses: Counter,
    m_evictions: Counter,
}

impl QueryCache {
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity,
            ..QueryCache::default()
        }
    }

    /// Attaches registry counters mirroring hits/misses/evictions.
    pub fn with_metrics(mut self, hits: Counter, misses: Counter, evictions: Counter) -> Self {
        self.m_hits = hits;
        self.m_misses = misses;
        self.m_evictions = evictions;
        self
    }

    fn evicted(&mut self) {
        self.evictions += 1;
        self.m_evictions.inc();
    }

    /// Looks up `key`, validating the recorded version vector against
    /// `store`. A stale entry is removed and counted as a miss.
    pub fn lookup(&mut self, key: &Query, store: &Store) -> Option<CacheEntry> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(entry) = self.map.get(key) {
            if entry
                .versions
                .iter()
                .all(|(e, v)| store.extent_version(e) == *v)
            {
                self.hits += 1;
                self.m_hits.inc();
                return Some(entry.clone());
            }
        }
        self.misses += 1;
        self.m_misses.inc();
        if let Some((stale, _)) = self.map.remove_entry(key) {
            // Its order slot goes with it, so the refreshing `insert`
            // queues behind the entries that stayed valid. The scan is
            // pointer compares over at most `capacity` slots, paid only
            // ahead of a full re-evaluation.
            if let Some(i) = self.order.iter().position(|k| Arc::ptr_eq(k, &stale)) {
                self.order.remove(i);
            }
            self.evicted();
        }
        None
    }

    /// Inserts (or refreshes) an entry, evicting the oldest one when a
    /// new key would exceed capacity.
    pub fn insert(&mut self, key: Query, entry: CacheEntry) {
        if self.capacity == 0 {
            return;
        }
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = entry;
            return;
        }
        if self.map.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&*oldest);
                self.evicted();
            }
        }
        let key = Arc::new(key);
        self.map.insert(Arc::clone(&key), entry);
        self.order.push_back(key);
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: i64) -> Query {
        Query::Lit(Value::Int(n))
    }

    fn entry(versions: &[(&str, u64)]) -> CacheEntry {
        CacheEntry {
            versions: versions
                .iter()
                .map(|(e, v)| (ExtentName::new(*e), *v))
                .collect(),
            value: Value::Int(0),
            runtime_effect: Effect::empty(),
            cells: 0,
        }
    }

    #[test]
    fn hit_requires_matching_versions() {
        let mut store = Store::new();
        store.declare_extent(
            ExtentName::new("Persons"),
            ioql_ast::ClassName::new("Person"),
        );
        let mut cache = QueryCache::new(4);
        cache.insert(key(1), entry(&[("Persons", 0)]));
        assert!(cache.lookup(&key(1), &store).is_some());
        store.bump_version(&ExtentName::new("Persons"));
        // Stale: removed, counted as both a miss and an eviction.
        assert!(cache.lookup(&key(1), &store).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 0));
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn fifo_eviction_bounds_residency() {
        let store = Store::new();
        let mut cache = QueryCache::new(2);
        cache.insert(key(1), entry(&[]));
        cache.insert(key(2), entry(&[]));
        cache.insert(key(3), entry(&[]));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&key(1), &store).is_none()); // oldest evicted
        assert!(cache.lookup(&key(2), &store).is_some());
        assert!(cache.lookup(&key(3), &store).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let store = Store::new();
        let mut cache = QueryCache::new(0);
        cache.insert(key(1), entry(&[]));
        assert!(cache.lookup(&key(1), &store).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    /// Writers keep invalidating a hot set that readers keep refreshing:
    /// the order queue must not keep the stale keys (it used to grow by
    /// one deep-cloned AST per refresh), and a refreshed entry must not
    /// be evicted by its own leftover slot.
    #[test]
    fn stale_refresh_cycles_keep_order_and_map_in_lock_step() {
        let persons = ExtentName::new("Persons");
        let mut store = Store::new();
        store.declare_extent(persons.clone(), ioql_ast::ClassName::new("Person"));
        let mut cache = QueryCache::new(4);
        let now = |store: &Store| entry(&[("Persons", store.extent_version(&persons))]);
        for cycle in 0..200 {
            for k in 0..3 {
                if cache.lookup(&key(k), &store).is_none() {
                    cache.insert(key(k), now(&store));
                }
            }
            assert_eq!(cache.order.len(), cache.map.len(), "cycle {cycle}");
            assert_eq!(cache.map.len(), 3, "cycle {cycle}");
            store.bump_version(&persons);
        }
        assert_eq!(cache.stats().evictions, 3 * 199);
        // Refresh 0 and 1 only: new keys then fill the cache and push
        // out the oldest slots — stale 2, then 0 — never the
        // just-refreshed 1.
        for k in 0..2 {
            assert!(cache.lookup(&key(k), &store).is_none());
            cache.insert(key(k), now(&store));
        }
        cache.insert(key(10), now(&store));
        cache.insert(key(11), now(&store));
        cache.insert(key(12), now(&store));
        assert_eq!(cache.order.len(), cache.map.len());
        assert_eq!(cache.map.len(), 4);
        assert!(cache.lookup(&key(1), &store).is_some());
        assert!(cache.lookup(&key(12), &store).is_some());
        assert!(cache.lookup(&key(2), &store).is_none());
        assert!(cache.lookup(&key(0), &store).is_none());
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order() {
        let store = Store::new();
        let mut cache = QueryCache::new(2);
        cache.insert(key(1), entry(&[]));
        cache.insert(key(1), entry(&[]));
        cache.insert(key(2), entry(&[]));
        // Capacity 2 with one logical re-insert: both keys resident.
        assert!(cache.lookup(&key(1), &store).is_some());
        assert!(cache.lookup(&key(2), &store).is_some());
    }
}
