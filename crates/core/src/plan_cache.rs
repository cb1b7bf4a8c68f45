//! The database-wide plan cache.
//!
//! The profiler (PR 1) shows every repeated statement paying the parse
//! and static-analysis/rewrite phases again even though both are pure
//! functions of (statement text, catalog). This module caches the
//! *rewritten* [`Statement`] per statement text in one bounded LRU
//! behind one mutex, shared by every session of the database, so a
//! statement compiled by one connection skips straight to the executor
//! on all of them.
//!
//! Invalidation contract: every entry is stamped with a [`PlanKey`] —
//! the **catalog generation** (bumped by every catalog-shape change:
//! DDL, or an update-transaction rollback restoring catalog entries)
//! and the **statistics epoch** (bumped by bulk data changes: document
//! load/drop, committed updates — so the cost-based planner re-costs
//! plans whose access-path choice may have flipped). A lookup whose
//! key no longer matches is a miss and evicts the stale entry. This
//! replaces the earlier conservative clear-on-any-DDL: unrelated
//! statements stay cached across catalog changes, because both
//! counters are shared database state.

use std::collections::HashMap;

use sedna_obs::Counter;
use sedna_sync::{Mutex, MutexGuard};
use sedna_xquery::ast::Statement;

/// Validity stamp of a cached plan: the catalog/statistics state it was
/// planned under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanKey {
    /// Catalog generation at plan time (catalog *shape*).
    pub(crate) generation: u64,
    /// Statistics epoch at plan time (data *volume*; re-costs plans
    /// after bulk updates).
    pub(crate) stats_epoch: u64,
}

/// The plan cache proper: a bounded LRU mapping statement text to its
/// parse+rewrite result, validity-stamped with a [`PlanKey`].
///
/// Recency is tracked with a monotonic sequence number per entry;
/// eviction scans for the minimum. Capacities are small (default 64),
/// so the O(n) eviction scan is cheaper than a linked-list LRU and
/// keeps the structure allocation-free on the hit path.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    capacity: usize,
    seq: u64,
    entries: HashMap<String, CacheEntry>,
}

#[derive(Debug)]
struct CacheEntry {
    stmt: Statement,
    key: PlanKey,
    last_used: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans (0 disables it).
    pub(crate) fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            seq: 0,
            entries: HashMap::new(),
        }
    }

    /// Looks up the rewritten statement for `text` planned under `key`,
    /// refreshing recency. An entry cached under a different key
    /// (superseded catalog generation or stats epoch) is stale: it is
    /// evicted and the lookup misses.
    pub(crate) fn get(&mut self, text: &str, key: PlanKey) -> Option<Statement> {
        self.seq += 1;
        let seq = self.seq;
        match self.entries.get_mut(text) {
            Some(e) if e.key == key => {
                e.last_used = seq;
                Some(e.stmt.clone())
            }
            Some(_) => {
                self.entries.remove(text);
                None
            }
            None => None,
        }
    }

    /// Inserts the rewritten statement for `text` stamped with `key`,
    /// evicting the least-recently-used entry when full. No-op when
    /// disabled.
    pub(crate) fn insert(&mut self, text: &str, key: PlanKey, stmt: Statement) {
        if self.capacity == 0 {
            return;
        }
        self.seq += 1;
        if !self.entries.contains_key(text) && self.entries.len() >= self.capacity {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            text.to_string(),
            CacheEntry {
                stmt,
                key,
                last_used: self.seq,
            },
        );
    }

    /// Number of cached plans, stale entries included (tests/diagnostics).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The database-wide plan cache: one [`PlanCache`] of the configured
/// capacity behind one mutex, held around get/insert only.
///
/// Contention is observable: a lookup that cannot take the lock
/// immediately counts one `sedna_plan_cache_shared_lock_waits_total`
/// before blocking.
#[derive(Debug)]
pub(crate) struct SharedPlanCache {
    cache: Mutex<PlanCache>,
    lock_waits: Counter,
}

impl SharedPlanCache {
    /// Creates a cache holding at most `capacity` plans (0 disables it).
    pub(crate) fn new(capacity: usize, lock_waits: Counter) -> SharedPlanCache {
        SharedPlanCache {
            cache: Mutex::new(PlanCache::new(capacity)),
            lock_waits,
        }
    }

    /// Locks the cache, counting the acquisition as a wait when it cannot
    /// be taken immediately.
    fn lock(&self) -> MutexGuard<'_, PlanCache> {
        match self.cache.try_lock() {
            Some(guard) => guard,
            None => {
                self.lock_waits.inc();
                self.cache.lock()
            }
        }
    }

    /// Locked [`PlanCache::get`].
    pub(crate) fn get(&self, text: &str, key: PlanKey) -> Option<Statement> {
        self.lock().get(text, key)
    }

    /// Locked [`PlanCache::insert`].
    pub(crate) fn insert(&self, text: &str, key: PlanKey, stmt: Statement) {
        self.lock().insert(text, key, stmt);
    }

    /// Number of cached plans (tests/diagnostics).
    pub(crate) fn len(&self) -> usize {
        self.cache.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmt(text: &str) -> Statement {
        sedna_xquery::parser::parse_statement(text).unwrap()
    }

    fn key(generation: u64) -> PlanKey {
        PlanKey {
            generation,
            stats_epoch: 0,
        }
    }

    #[test]
    fn hit_returns_inserted_plan() {
        let mut c = PlanCache::new(4);
        let s = stmt("doc('d')/r");
        c.insert("doc('d')/r", key(0), s.clone());
        assert_eq!(c.get("doc('d')/r", key(0)), Some(s));
        assert_eq!(c.get("doc('d')/other", key(0)), None);
    }

    #[test]
    fn generation_mismatch_misses_and_evicts() {
        let mut c = PlanCache::new(4);
        c.insert("a", key(3), stmt("1"));
        assert!(c.get("a", key(3)).is_some());
        // A catalog change bumped the generation: stale entry evicted.
        assert_eq!(c.get("a", key(4)), None);
        assert_eq!(c.len(), 0);
        // Re-inserted at the new generation, it hits again.
        c.insert("a", key(4), stmt("1"));
        assert!(c.get("a", key(4)).is_some());
    }

    #[test]
    fn stats_epoch_mismatch_misses_and_evicts() {
        let mut c = PlanCache::new(4);
        let k0 = PlanKey {
            generation: 1,
            stats_epoch: 7,
        };
        c.insert("a", k0, stmt("1"));
        assert!(c.get("a", k0).is_some());
        // A bulk load bumped the stats epoch: the plan must re-cost.
        let k1 = PlanKey {
            stats_epoch: 8,
            ..k0
        };
        assert_eq!(c.get("a", k1), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut c = PlanCache::new(2);
        c.insert("a", key(0), stmt("1"));
        c.insert("b", key(0), stmt("2"));
        // Touch "a" so "b" is the LRU victim.
        assert!(c.get("a", key(0)).is_some());
        c.insert("c", key(0), stmt("3"));
        assert_eq!(c.len(), 2);
        assert!(c.get("a", key(0)).is_some());
        assert!(c.get("b", key(0)).is_none());
        assert!(c.get("c", key(0)).is_some());
    }

    #[test]
    fn reinsert_updates_in_place_without_evicting() {
        let mut c = PlanCache::new(2);
        c.insert("a", key(0), stmt("1"));
        c.insert("b", key(0), stmt("2"));
        c.insert("a", key(0), stmt("1 + 1"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a", key(0)), Some(stmt("1 + 1")));
        assert!(c.get("b", key(0)).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = PlanCache::new(0);
        c.insert("a", key(0), stmt("1"));
        assert_eq!(c.len(), 0);
        assert!(c.get("a", key(0)).is_none());
    }

    #[test]
    fn shared_cache_holds_exactly_its_capacity() {
        let c = SharedPlanCache::new(2, Counter::new());
        let texts: Vec<String> = (0..20).map(|i| format!("{i} + {i}")).collect();
        for t in &texts {
            c.insert(t, key(0), stmt(t));
        }
        assert_eq!(c.len(), 2);
        // The two most recent statements are the ones kept.
        for t in &texts[18..] {
            assert_eq!(c.get(t, key(0)), Some(stmt(t)));
        }
        // Stale-key eviction works through the shared wrapper.
        assert_eq!(c.get(&texts[19], key(1)), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn shared_cache_counts_contended_lookups() {
        use sedna_sync::atomic::{AtomicBool, Ordering};

        let waits = Counter::new();
        let c = SharedPlanCache::new(64, waits.clone());
        c.insert("a", key(0), stmt("1"));
        // Uncontended traffic never touches the wait counter.
        assert!(c.get("a", key(0)).is_some());
        assert_eq!(waits.get(), 0);
        // Hold the lock from another thread: a lookup must count a wait
        // (and still complete). The holder releases only after it has
        // seen the wait recorded, so the assertion is race-free.
        let locked = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let guard = c.lock();
                locked.store(true, Ordering::Release);
                while waits.get() == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                drop(guard);
            });
            while !locked.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert!(c.get("a", key(0)).is_some());
        });
        assert_eq!(waits.get(), 1);
    }
}
