//! Loom models for the buffer manager's lock-free hot paths (compiled
//! only under `--cfg loom`, run by `RUSTFLAGS="--cfg loom" cargo test
//! -p sedna-sas`).
//!
//! What they prove, across every reachable interleaving (bounded to two
//! preemptions, see `sedna-sync`):
//!
//! * the stats seqlock never lets a reader observe a half-finished
//!   [`BufferMetrics::reset`] — the bug the previous scheme (generation
//!   read as a plain counter inside a two-sweep agreement check)
//!   admitted when a paused resetter let both sweeps agree on a mixed
//!   state;
//! * the read-locked hit path and the miss path keep the pool-wide
//!   accounting invariant (`hits + misses` equals the lookups made)
//!   under concurrent hits, misses and clock evictions, with no page
//!   content ever lost or duplicated.

use sedna_sync::{model, thread, Arc};

use crate::buffer::{BufferMetrics, BufferPool, BufferStats};
use crate::store::{MemPageStore, PageStore};
use crate::xptr::XPtr;

/// A reader's seqlock-validated sweep racing a reset must see the
/// counters entirely before or entirely after the reset, never a
/// mixture, and a sweep overlapping the reset must be rejected.
#[test]
fn stats_never_observe_a_half_reset() {
    model::check(|| {
        let m = BufferMetrics::default();
        // Seed a recognizable pre-reset state before spawning.
        m.hits.inc();
        m.misses.inc();
        let resetter = {
            let m = m.clone();
            thread::spawn(move || m.reset())
        };
        for _ in 0..2 {
            if let Some(s) = m.clean_sweep() {
                let pair = (s.hits, s.misses);
                assert!(
                    pair == (1, 1) || pair == (0, 0),
                    "clean sweep saw a half-reset state: {pair:?}"
                );
            }
        }
        resetter.join().unwrap();
        assert_eq!(m.stats(), BufferStats::default());
    });
}

/// Concurrent hits and a clock eviction keep the pool-wide accounting
/// invariant (`hits + misses` equals the lookups made) and never lose or
/// duplicate a resident page.
#[test]
fn pool_accounting_survives_concurrent_hits_and_eviction() {
    model::check(|| {
        let pool = Arc::new(BufferPool::new(2, 512));
        let store = Arc::new(MemPageStore::new(512));
        // Warm both frames (single-threaded: deterministic prefix).
        let page_a = XPtr::new(0, 512);
        let phys_a = store.alloc().unwrap();
        pool.acquire_fresh(page_a, phys_a, store.as_ref()).unwrap();
        let page_b = XPtr::new(0, 1024);
        let phys_b = store.alloc().unwrap();
        pool.acquire_fresh(page_b, phys_b, store.as_ref()).unwrap();
        // A loader forces a clock eviction while the root thread re-hits
        // page A (which may itself get evicted and come back as a miss).
        let loader = {
            let pool = Arc::clone(&pool);
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let page_c = XPtr::new(0, 1536);
                let phys_c = store.alloc().unwrap();
                pool.acquire_fresh(page_c, phys_c, store.as_ref()).unwrap();
            })
        };
        for _ in 0..2 {
            pool.acquire(page_a, phys_a, store.as_ref()).unwrap();
        }
        loader.join().unwrap();
        let s = pool.stats();
        // 2 warm-up lookups + 1 loader lookup + 2 root lookups.
        assert_eq!(s.hits + s.misses, 5, "pool accounting drifted: {s:?}");
        assert_eq!(pool.resident(), 2, "a page was lost or duplicated");
        assert!(s.evictions >= 1, "the loader must have evicted a frame");
    });
}

/// Pin accounting across racing guard acquisitions and drops: the live
/// gauge returns to zero once every guard is gone (a mid-stream cursor
/// drop releases its pins), and the recorded peak never exceeds the
/// number of guards that could have been live at once.
#[test]
fn pin_gauge_balances_across_concurrent_guard_drops() {
    model::check(|| {
        let pool = Arc::new(BufferPool::new(2, 512));
        let store = Arc::new(MemPageStore::new(512));
        let page = XPtr::new(0, 512);
        let phys = store.alloc().unwrap();
        let fref = Arc::new(pool.acquire_fresh(page, phys, store.as_ref()).unwrap());
        let reader = {
            let pool = Arc::clone(&pool);
            let fref = Arc::clone(&fref);
            thread::spawn(move || {
                let r = pool.try_read(&fref, phys).unwrap();
                assert!(pool.pinned() >= 1);
                drop(r);
            })
        };
        {
            let r = pool.try_read(&fref, phys).unwrap();
            assert!(pool.pinned() >= 1);
            drop(r);
        }
        reader.join().unwrap();
        assert_eq!(pool.pinned(), 0, "all pins released");
        let peak = pool.pinned_peak();
        assert!((1..=2).contains(&peak), "peak {peak} exceeds live guards");
    });
}
