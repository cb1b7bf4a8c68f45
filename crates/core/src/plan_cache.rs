//! The database-wide plan cache.
//!
//! Parsing, static analysis and rewriting are pure functions of the
//! statement text: none of them reads the catalog (§5.1's rule-based
//! rewriter needs only the query). This module caches the *rewritten*,
//! not yet costed [`Statement`] per statement text in one bounded LRU
//! behind one mutex, shared by every session, transaction and `AS OF`
//! snapshot of the database, so a statement compiled by one connection
//! skips straight to costing and execution on all of them.
//!
//! Nothing in an entry can go stale, so nothing invalidates it: the
//! decisions that read the descriptive schema (the cost-based planner's
//! access path and predicate order) are made on every statement, after
//! the lookup, on the catalog the statement runs on.

use std::collections::HashMap;

use sedna_obs::Counter;
use sedna_sync::{Mutex, MutexGuard};
use sedna_xquery::ast::Statement;

/// The plan cache proper: a bounded LRU mapping statement text to its
/// parse+rewrite result.
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

    /// Looks up the rewritten statement for `text`, refreshing recency.
    pub(crate) fn get(&mut self, text: &str) -> Option<Statement> {
        self.seq += 1;
        let e = self.entries.get_mut(text)?;
        e.last_used = self.seq;
        Some(e.stmt.clone())
    }

    /// Inserts the rewritten statement for `text`, evicting the
    /// least-recently-used entry when full. No-op when disabled.
    pub(crate) fn insert(&mut self, text: &str, stmt: Statement) {
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
                last_used: self.seq,
            },
        );
    }

    /// Number of cached plans (tests/diagnostics).
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
    pub(crate) fn get(&self, text: &str) -> Option<Statement> {
        self.lock().get(text)
    }

    /// Locked [`PlanCache::insert`].
    pub(crate) fn insert(&self, text: &str, stmt: Statement) {
        self.lock().insert(text, stmt);
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

    #[test]
    fn hit_returns_inserted_plan() {
        let mut c = PlanCache::new(4);
        let s = stmt("doc('d')/r");
        c.insert("doc('d')/r", s.clone());
        assert_eq!(c.get("doc('d')/r"), Some(s));
        assert_eq!(c.get("doc('d')/other"), None);
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut c = PlanCache::new(2);
        c.insert("a", stmt("1"));
        c.insert("b", stmt("2"));
        // Touch "a" so "b" is the LRU victim.
        assert!(c.get("a").is_some());
        c.insert("c", stmt("3"));
        assert_eq!(c.len(), 2);
        assert!(c.get("a").is_some());
        assert!(c.get("b").is_none());
        assert!(c.get("c").is_some());
    }

    #[test]
    fn reinsert_updates_in_place_without_evicting() {
        let mut c = PlanCache::new(2);
        c.insert("a", stmt("1"));
        c.insert("b", stmt("2"));
        c.insert("a", stmt("1 + 1"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a"), Some(stmt("1 + 1")));
        assert!(c.get("b").is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = PlanCache::new(0);
        c.insert("a", stmt("1"));
        assert_eq!(c.len(), 0);
        assert!(c.get("a").is_none());
    }

    #[test]
    fn shared_cache_holds_exactly_its_capacity() {
        let c = SharedPlanCache::new(2, Counter::new());
        let texts: Vec<String> = (0..20).map(|i| format!("{i} + {i}")).collect();
        for t in &texts {
            c.insert(t, stmt(t));
        }
        assert_eq!(c.len(), 2);
        // The two most recent statements are the ones kept.
        for t in &texts[18..] {
            assert_eq!(c.get(t), Some(stmt(t)));
        }
    }

    #[test]
    fn shared_cache_counts_contended_lookups() {
        use sedna_sync::atomic::{AtomicBool, Ordering};

        let waits = Counter::new();
        let c = SharedPlanCache::new(64, waits.clone());
        c.insert("a", stmt("1"));
        // Uncontended traffic never touches the wait counter.
        assert!(c.get("a").is_some());
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
            assert!(c.get("a").is_some());
        });
        assert_eq!(waits.get(), 1);
    }
}
