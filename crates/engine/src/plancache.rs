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
//!
//! ## Runtime routing feedback
//!
//! The cache also keeps a *feedback* sidecar per fingerprint: observed
//! execution latencies for each [`RouteChoice`] the owner's cost-based
//! router could have made, plus an optional forced choice (a probe of the
//! unmeasured alternative when the estimate proved badly wrong). Feedback
//! is validated by **generation only** — deliberately *not* by epoch
//! snapshot — so a measured routing decision survives data mutations: new
//! rows change cardinalities gradually, while a generation bump (AST set
//! or match-relevant DDL changed) genuinely invalidates what was measured.

use std::collections::{BTreeMap, HashMap, VecDeque};

/// A plan the owner's router can choose between for one cached query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteChoice {
    /// The un-rewritten plan over base tables.
    Base,
    /// The AST-backed rewritten plan.
    Rewrite,
}

impl RouteChoice {
    /// The alternative choice.
    pub fn other(self) -> RouteChoice {
        match self {
            RouteChoice::Base => RouteChoice::Rewrite,
            RouteChoice::Rewrite => RouteChoice::Base,
        }
    }

    fn idx(self) -> usize {
        match self {
            RouteChoice::Base => 0,
            RouteChoice::Rewrite => 1,
        }
    }
}

/// Smoothing factor for the observed-latency moving average: recent runs
/// dominate (the data the plan runs over keeps growing) without letting a
/// single noisy measurement flip a routing decision.
const LATENCY_EMA_WEIGHT: f64 = 0.5;

/// Per-fingerprint runtime measurements for routing.
#[derive(Debug, Clone, Default)]
pub struct FeedbackEntry {
    generation: u64,
    observed_ns: [Option<f64>; 2],
    forced: Option<RouteChoice>,
}

impl FeedbackEntry {
    /// The latency moving average observed for `choice`, if any.
    pub fn observed(&self, choice: RouteChoice) -> Option<f64> {
        self.observed_ns[choice.idx()]
    }

    /// A choice forced by the owner (a probe of the unmeasured
    /// alternative); cleared implicitly once both choices are measured —
    /// measurements outrank probes.
    pub fn forced(&self) -> Option<RouteChoice> {
        self.forced
    }

    /// The measured-fastest choice, once **both** alternatives have been
    /// observed; `None` while either is unmeasured.
    pub fn measured_best(&self) -> Option<RouteChoice> {
        match (self.observed_ns[0], self.observed_ns[1]) {
            (Some(b), Some(r)) => Some(if r < b {
                RouteChoice::Rewrite
            } else {
                RouteChoice::Base
            }),
            _ => None,
        }
    }

    fn observe(&mut self, choice: RouteChoice, ns: f64) {
        let slot = &mut self.observed_ns[choice.idx()];
        *slot = Some(match *slot {
            Some(old) => old * (1.0 - LATENCY_EMA_WEIGHT) + ns * LATENCY_EMA_WEIGHT,
            None => ns,
        });
    }
}

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
    /// Lookups whose served plan was re-routed by runtime feedback —
    /// counted by the owner via [`PlanCache::count_reroute`].
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
    feedback: HashMap<String, FeedbackEntry>,
    feedback_order: VecDeque<String>,
    stats: CacheStats,
}

impl<V> PlanCache<V> {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> PlanCache<V> {
        PlanCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: VecDeque::new(),
            feedback: HashMap::new(),
            feedback_order: VecDeque::new(),
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

    /// Drop every entry and all feedback, and hold at most `capacity`
    /// entries (minimum 1) from now on. The cumulative [`CacheStats`] carry
    /// over, so a caller diffing them across the resize stays consistent.
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

    /// The feedback entry for `key`, if one exists at this `generation`.
    /// Feedback from an older generation is dropped on discovery (the AST
    /// set or catalog changed; its measurements describe dead plans), but
    /// an epoch bump alone leaves feedback intact by design.
    pub fn feedback(&mut self, key: &str, generation: u64) -> Option<&FeedbackEntry> {
        if let Some(e) = self.feedback.get(key) {
            if e.generation != generation {
                self.feedback.remove(key);
                self.feedback_order.retain(|k| k != key);
                return None;
            }
        }
        self.feedback.get(key)
    }

    /// Record one observed execution latency for `(key, choice)`, folding
    /// it into the choice's moving average. Creates (or, on a generation
    /// change, resets) the feedback entry.
    pub fn observe_latency(&mut self, key: &str, generation: u64, choice: RouteChoice, ns: f64) {
        self.feedback_entry(key, generation).observe(choice, ns);
    }

    /// Force the next routing decisions for `key` to `choice` until both
    /// alternatives carry measurements — the owner calls this to probe the
    /// unmeasured plan when the estimate proved badly wrong.
    pub fn force_route(&mut self, key: &str, generation: u64, choice: RouteChoice) {
        self.feedback_entry(key, generation).forced = Some(choice);
    }

    /// Count one feedback-driven re-route served by the owner.
    pub fn count_reroute(&mut self) {
        self.stats.reroutes += 1;
    }

    fn feedback_entry(&mut self, key: &str, generation: u64) -> &mut FeedbackEntry {
        let stale = self
            .feedback
            .get(key)
            .is_some_and(|e| e.generation != generation);
        if stale {
            self.feedback.remove(key);
            self.feedback_order.retain(|k| k != key);
        }
        if !self.feedback.contains_key(key) {
            while self.feedback.len() >= self.capacity {
                match self.feedback_order.pop_front() {
                    Some(old) => {
                        self.feedback.remove(&old);
                    }
                    None => break,
                }
            }
            self.feedback_order.push_back(key.to_string());
            self.feedback.insert(
                key.to_string(),
                FeedbackEntry {
                    generation,
                    ..FeedbackEntry::default()
                },
            );
        }
        // The entry was just inserted (or already valid); a miss here would
        // be a bookkeeping bug, and an empty default keeps this total.
        self.feedback.entry(key.to_string()).or_default()
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
    fn feedback_survives_epoch_bumps_not_generation_bumps() {
        let mut c: PlanCache<u32> = PlanCache::new(4);
        c.observe_latency("q", 7, RouteChoice::Rewrite, 1000.0);
        // Feedback carries no epoch snapshot at all: whatever the data
        // does, the measurement stays.
        let e = c.feedback("q", 7).unwrap();
        assert_eq!(e.observed(RouteChoice::Rewrite), Some(1000.0));
        assert_eq!(e.observed(RouteChoice::Base), None);
        assert_eq!(
            e.measured_best(),
            None,
            "one-sided measurement decides nothing"
        );
        // A generation bump drops it.
        assert!(c.feedback("q", 8).is_none());
        assert!(
            c.feedback("q", 7).is_none(),
            "dropped on discovery, not hidden"
        );
    }

    #[test]
    fn measured_best_needs_both_sides_and_smooths() {
        let mut c: PlanCache<u32> = PlanCache::new(4);
        c.observe_latency("q", 0, RouteChoice::Rewrite, 4000.0);
        c.observe_latency("q", 0, RouteChoice::Rewrite, 2000.0);
        c.observe_latency("q", 0, RouteChoice::Base, 1000.0);
        let e = c.feedback("q", 0).unwrap();
        assert_eq!(e.observed(RouteChoice::Rewrite), Some(3000.0), "EMA");
        assert_eq!(e.measured_best(), Some(RouteChoice::Base));
    }

    #[test]
    fn forced_probe_is_reported_until_measured() {
        let mut c: PlanCache<u32> = PlanCache::new(4);
        c.observe_latency("q", 0, RouteChoice::Rewrite, 9000.0);
        c.force_route("q", 0, RouteChoice::Base);
        let e = c.feedback("q", 0).unwrap();
        assert_eq!(e.forced(), Some(RouteChoice::Base));
        assert_eq!(e.measured_best(), None);
    }

    #[test]
    fn feedback_is_bounded_fifo() {
        let mut c: PlanCache<u32> = PlanCache::new(2);
        c.observe_latency("a", 0, RouteChoice::Base, 1.0);
        c.observe_latency("b", 0, RouteChoice::Base, 1.0);
        c.observe_latency("c", 0, RouteChoice::Base, 1.0);
        assert!(c.feedback("a", 0).is_none(), "oldest evicted");
        assert!(c.feedback("b", 0).is_some());
        assert!(c.feedback("c", 0).is_some());
    }

    #[test]
    fn resize_drops_entries_and_keeps_stats() {
        let mut c: PlanCache<u32> = PlanCache::new(4);
        let e = BTreeMap::new();
        c.store("a".into(), e.clone(), 0, 1);
        assert_eq!(c.lookup("a", &e, 0), Some(&1));
        c.observe_latency("a", 0, RouteChoice::Base, 1.0);
        let before = c.stats();
        c.resize(1);
        assert_eq!(c.stats(), before, "cumulative counters survive");
        assert!(c.is_empty());
        assert!(c.feedback("a", 0).is_none());
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
