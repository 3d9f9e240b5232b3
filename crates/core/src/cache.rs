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

use crate::database::DbOptions;
use ioql_ast::{ExtentName, Query, Value};
use ioql_effects::{Effect, Thm7};
use ioql_store::Store;
use ioql_telemetry::Counter;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

/// One memoized result. Shared by pointer: a hit hands out the `Arc`
/// under the cache mutex and the caller copies what it needs out of it
/// after the mutex is released.
#[derive(Debug)]
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

/// Hit/miss counters, surfaced through `Database::cache_stats` (the
/// result cache) and `Database::statement_stats` (the statement cache).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including stale entries lazily evicted).
    pub misses: u64,
    /// Entries removed to stay within capacity or because they went
    /// stale (a version fingerprint, or a statement's catalogue).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity (0 = caching disabled).
    pub capacity: usize,
}

/// What a [`Fifo::probe`] found.
#[derive(Debug)]
pub(crate) enum Probe<R> {
    /// A resident entry that is still valid.
    Hit(R),
    /// A resident entry that no longer is: removed, counted as a miss
    /// and an eviction.
    Stale,
    /// Nothing resident under the key.
    Miss,
}

impl<R> Probe<R> {
    pub fn hit(self) -> Option<R> {
        match self {
            Probe::Hit(r) => Some(r),
            Probe::Stale | Probe::Miss => None,
        }
    }
}

/// A FIFO-bounded map whose entries are validated at lookup — the one
/// residency discipline the result cache and the statement cache share.
///
/// Stale entries are evicted lazily by the probe that finds them; FIFO
/// order bounds residency when many distinct keys flow through.
#[derive(Debug)]
pub(crate) struct Fifo<K, V> {
    /// Each entry with the ticket it was inserted under.
    map: HashMap<K, (u64, V)>,
    /// Insertion order, oldest first. Holds exactly the keys of `map`:
    /// every removal from one is a removal from the other, so neither
    /// can outgrow `capacity`. Tickets ascend, so an entry's slot is
    /// found by binary search.
    order: VecDeque<(u64, K)>,
    next_ticket: u64,
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

impl<K: Clone + Eq + Hash, V> Fifo<K, V> {
    pub fn new(capacity: usize) -> Self {
        Fifo {
            map: HashMap::new(),
            order: VecDeque::new(),
            next_ticket: 0,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
            m_hits: Counter::default(),
            m_misses: Counter::default(),
            m_evictions: Counter::default(),
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

    /// Looks up `key`. `read` judges the resident entry: `Some` is what
    /// a hit hands out, `None` says the entry went stale — it is removed
    /// and the probe counts as a miss.
    pub fn probe<Q, R>(&mut self, key: &Q, read: impl FnOnce(&V) -> Option<R>) -> Probe<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.capacity == 0 {
            return Probe::Miss;
        }
        if let Some(found) = self.map.get(key).and_then(|(_, entry)| read(entry)) {
            self.hits += 1;
            self.m_hits.inc();
            return Probe::Hit(found);
        }
        self.misses += 1;
        self.m_misses.inc();
        let Some((ticket, _)) = self.map.remove(key) else {
            return Probe::Miss;
        };
        // Its order slot goes with it, so the refreshing `insert` queues
        // behind the entries that stayed valid.
        if let Ok(i) = self.order.binary_search_by_key(&ticket, |(t, _)| *t) {
            self.order.remove(i);
        }
        self.evicted();
        Probe::Stale
    }

    /// Inserts (or refreshes) an entry, evicting the oldest one when a
    /// new key would exceed capacity.
    pub fn insert(&mut self, key: K, entry: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(slot) = self.map.get_mut(&key) {
            slot.1 = entry;
            return;
        }
        if self.map.len() == self.capacity {
            if let Some((_, oldest)) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.evicted();
            }
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.map.insert(key.clone(), (ticket, entry));
        self.order.push_back((ticket, key));
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

/// The result cache: elaborated query ↦ [`CacheEntry`]. The key is the
/// `Arc` the front end's `Prepared` already holds, so a retained
/// statement and its cached result share one AST.
pub(crate) type QueryCache = Fifo<Arc<Query>, Arc<CacheEntry>>;

impl QueryCache {
    /// Looks up `key`, validating the recorded version vector against
    /// `store`. A stale entry is removed and counted as a miss.
    pub fn lookup(&mut self, key: &Arc<Query>, store: &Store) -> Option<Arc<CacheEntry>> {
        self.probe(key, |entry| {
            let fresh = |(e, v): (&ExtentName, &u64)| store.extent_version(e) == *v;
            entry.versions.iter().all(fresh).then(|| Arc::clone(entry))
        })
        .hit()
    }
}

/// Why the result cache would not keep this query's result under these
/// options — `None` when it would. The one rule behind the cache gate,
/// its `ineligible(reason)` note, and statement retention.
pub(crate) fn cache_refusal(opts: &DbOptions, thm7: &Thm7) -> Option<&'static str> {
    if opts.cache_capacity == 0 {
        Some("cache disabled (capacity 0)")
    } else if thm7.cacheable() {
        None
    } else {
        // Not cacheable means not write-free, which `refusal` names.
        Some(thm7.refusal().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: i64) -> Arc<Query> {
        Arc::new(Query::Lit(Value::Int(n)))
    }

    fn entry(versions: &[(&str, u64)]) -> Arc<CacheEntry> {
        Arc::new(CacheEntry {
            versions: versions
                .iter()
                .map(|(e, v)| (ExtentName::new(*e), *v))
                .collect(),
            value: Value::Int(0),
            runtime_effect: Effect::empty(),
            cells: 0,
        })
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
