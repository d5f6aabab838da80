//! Generation- and epoch-validated cache.
//!
//! Matching a query against every registered AST is the expensive part of
//! the paper's compile path; once a query has been planned, re-planning the
//! same query is pure waste *as long as nothing it depends on changed*. The
//! cache maps a key (typically a canonical query fingerprint,
//! `sumtab-qgm::graph_fingerprint`) to an arbitrary value, validated on
//! every lookup against
//!
//! * a **generation** counter supplied by the owner, bumped whenever the
//!   *set* of candidate ASTs or the match-relevant catalog metadata changes
//!   (a new AST registration, a new table, a new RI constraint) — the only
//!   events that can change a match outcome; and
//! * an **epoch snapshot**: the [`Database`](crate::Database) modification
//!   epoch of every table the value depends on, captured when it was
//!   stored. Any table mutation bumps its epoch, so a value derived from
//!   table *data* can never be returned stale.
//!
//! The owner picks the snapshot per use. Match outcomes depend on no table
//! data, so `SummarySession` stores its plans (and its SQL-text →
//! fingerprint memo) under an *empty* snapshot — validated by generation
//! alone, they survive DML — and re-derives the data-dependent routing on
//! every lookup. Its result cache, whose values are rows, keys on the
//! epochs of every table the plan can read.
//!
//! Stale entries are removed on discovery (counted as invalidations).
//! Capacity is bounded with FIFO eviction: values are small and the
//! workload is "same dashboard queries repeated", where FIFO ≈ LRU without
//! the bookkeeping.

use std::collections::{BTreeMap, HashMap, VecDeque};

/// Observable cache behaviour, for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a validated entry.
    pub hits: u64,
    /// Lookups that found nothing usable (includes invalidations).
    pub misses: u64,
    /// Entries dropped because their epoch snapshot or generation no longer
    /// matched at lookup time.
    pub invalidations: u64,
    /// Entries dropped to make room for new ones.
    pub evictions: u64,
    /// Always 0: the owner's routing is a pure cost decision, so nothing is
    /// ever re-routed. Kept because the `e2ebench` harness builds and reads
    /// this struct by field name.
    pub reroutes: u64,
}

struct CachedPlan<V> {
    epochs: BTreeMap<String, u64>,
    generation: u64,
    value: V,
}

/// A bounded fingerprint → plan map with epoch/generation validation.
pub struct PlanCache<V> {
    capacity: usize,
    entries: HashMap<String, CachedPlan<V>>,
    order: VecDeque<String>,
    stats: CacheStats,
}

impl<V> PlanCache<V> {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> PlanCache<V> {
        PlanCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look up `key`, returning the cached value only if it was stored under
    /// the same generation and an epoch snapshot identical to `epochs`. A
    /// mismatched entry is removed (invalidation) and the lookup misses.
    pub fn lookup(
        &mut self,
        key: &str,
        epochs: &BTreeMap<String, u64>,
        generation: u64,
    ) -> Option<&V> {
        let valid = match self.entries.get(key) {
            Some(e) => e.generation == generation && e.epochs == *epochs,
            None => {
                self.stats.misses += 1;
                return None;
            }
        };
        if !valid {
            self.entries.remove(key);
            self.order.retain(|k| k != key);
            self.stats.invalidations += 1;
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        self.entries.get(key).map(|e| &e.value)
    }

    /// Store a plan under `key` with its validation snapshot, evicting the
    /// oldest entry if the cache is full.
    pub fn store(&mut self, key: String, epochs: BTreeMap<String, u64>, generation: u64, value: V) {
        if self.entries.remove(&key).is_some() {
            self.order.retain(|k| k != &key);
        }
        while self.entries.len() >= self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    if self.entries.remove(&old).is_some() {
                        self.stats.evictions += 1;
                    }
                }
                None => break,
            }
        }
        self.order.push_back(key.clone());
        self.entries.insert(
            key,
            CachedPlan {
                epochs,
                generation,
                value,
            },
        );
    }

    /// Drop every entry and hold at most `capacity` entries (minimum 1)
    /// from now on. The cumulative [`CacheStats`] carry over, so a caller
    /// diffing them across the resize stays consistent.
    pub fn resize(&mut self, capacity: usize) {
        *self = PlanCache {
            stats: self.stats,
            ..PlanCache::new(capacity)
        };
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(t, e)| (t.to_string(), *e)).collect()
    }

    #[test]
    fn hit_requires_matching_epochs_and_generation() {
        let mut c: PlanCache<&str> = PlanCache::new(4);
        let e = snap(&[("trans", 3)]);
        assert!(c.lookup("q", &e, 0).is_none());
        c.store("q".into(), e.clone(), 0, "plan");
        assert_eq!(c.lookup("q", &e, 0), Some(&"plan"));
        // Epoch moved: entry is invalidated, not returned.
        assert!(c.lookup("q", &snap(&[("trans", 4)]), 0).is_none());
        assert!(c.is_empty());
        // Generation moved: same story.
        c.store("q".into(), e.clone(), 0, "plan");
        assert!(c.lookup("q", &e, 1).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.invalidations), (1, 2));
    }

    #[test]
    fn fifo_eviction_bounds_size() {
        let mut c: PlanCache<u32> = PlanCache::new(2);
        let e = BTreeMap::new();
        c.store("a".into(), e.clone(), 0, 1);
        c.store("b".into(), e.clone(), 0, 2);
        c.store("c".into(), e.clone(), 0, 3);
        assert_eq!(c.len(), 2);
        assert!(c.lookup("a", &e, 0).is_none(), "oldest evicted");
        assert_eq!(c.lookup("c", &e, 0), Some(&3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn resize_drops_entries_and_keeps_stats() {
        let mut c: PlanCache<u32> = PlanCache::new(4);
        let e = BTreeMap::new();
        c.store("a".into(), e.clone(), 0, 1);
        assert_eq!(c.lookup("a", &e, 0), Some(&1));
        let before = c.stats();
        c.resize(1);
        assert_eq!(c.stats(), before, "cumulative counters survive");
        assert!(c.is_empty());
        c.store("b".into(), e.clone(), 0, 2);
        c.store("c".into(), e.clone(), 0, 3);
        assert_eq!(c.len(), 1, "new capacity applies");
    }

    #[test]
    fn restore_replaces_in_place() {
        let mut c: PlanCache<u32> = PlanCache::new(2);
        let e = BTreeMap::new();
        c.store("a".into(), e.clone(), 0, 1);
        c.store("a".into(), e.clone(), 0, 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup("a", &e, 0), Some(&2));
        assert_eq!(c.stats().evictions, 0);
    }
}
