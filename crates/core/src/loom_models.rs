//! Loom models for the database manager's lock-free protocols (compiled
//! only under `--cfg loom`, run by `RUSTFLAGS="--cfg loom" cargo test
//! -p sedna`).
//!
//! What they prove, across every reachable interleaving (bounded to two
//! preemptions, see `sedna-sync`):
//!
//! * the session-admission CAS never over-admits: with `max_sessions =
//!   1`, two racing admissions can never both claim the last slot, and
//!   the lifetime ledger `opened == closed + active` balances;
//! * the plan-cache generation protocol never serves a stale plan: once
//!   a session observes a bumped generation it also observes the catalog
//!   change behind the bump, and a plan cached under the superseded
//!   generation key-misses.

use sedna_sync::atomic::{AtomicU64, Ordering};
use sedna_sync::{model, thread, Arc};

use crate::admission::{CatalogGeneration, SessionGate};
use crate::plan_cache::{PlanCache, PlanKey};

/// Three sessions race for a single admission slot: the CAS loop must
/// never let `active` exceed the bound, and every admission must be
/// balanced by exactly one release.
#[test]
fn session_admission_cas_never_over_admits() {
    model::check(|| {
        let gate = Arc::new(SessionGate::new());
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                thread::spawn(move || {
                    if gate.try_admit(1) {
                        // While we hold the only slot, nobody else fits.
                        assert_eq!(gate.active(), 1, "admission bound breached");
                        gate.release();
                        true
                    } else {
                        false
                    }
                })
            })
            .collect();
        let root_admitted = gate.try_admit(1);
        if root_admitted {
            assert_eq!(gate.active(), 1, "admission bound breached");
            gate.release();
        }
        let admitted = workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .filter(|&a| a)
            .count()
            + usize::from(root_admitted);
        assert!(admitted >= 1, "someone must win the free slot");
        assert_eq!(gate.active(), 0);
        assert_eq!(gate.opened(), gate.closed());
        assert_eq!(gate.opened(), admitted as u64);
    });
}

/// A DDL thread mutates the catalog (modelled as a version cell) and
/// bumps the generation; a querying session with a warm plan cache must
/// never be served the pre-DDL plan at the post-DDL generation, and a
/// session that observes the bump must also observe the catalog change.
#[test]
fn plan_cache_never_serves_a_stale_plan_after_a_bump() {
    model::check(|| {
        let generation = Arc::new(CatalogGeneration::new());
        // Stand-in for the catalog shape the DDL changes: 0 = old, 1 = new.
        let catalog_shape = Arc::new(AtomicU64::new(0));
        let stmt = sedna_xquery::parser::parse_statement("1").unwrap();
        let key = |generation| PlanKey {
            generation,
            stats_epoch: 0,
        };
        let mut cache = PlanCache::new(4);
        cache.insert("1", key(generation.current()), stmt);
        let ddl = {
            let generation = Arc::clone(&generation);
            let catalog_shape = Arc::clone(&catalog_shape);
            thread::spawn(move || {
                // relaxed: the generation bump below releases this write;
                // readers only look after an Acquire of the bumped value.
                catalog_shape.store(1, Ordering::Relaxed);
                generation.bump();
            })
        };
        for _ in 0..2 {
            let g = generation.current();
            if cache.get("1", key(g)).is_some() {
                // Snapshot semantics: a hit is legal only at the
                // generation the plan was cached under.
                assert_eq!(g, 0, "stale plan served at a bumped generation");
            }
            if g == 1 {
                // The bump's Release / our Acquire pairing must make the
                // catalog change visible before any replanning happens.
                // relaxed: happens-before is established by the
                // generation Acquire load above.
                assert_eq!(catalog_shape.load(Ordering::Relaxed), 1);
            }
        }
        ddl.join().unwrap();
        assert_eq!(generation.current(), 1);
        assert!(
            cache.get("1", key(generation.current())).is_none(),
            "the cached plan must key-miss after the bump"
        );
    });
}
