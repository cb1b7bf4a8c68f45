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
//! * the catalog's publish/snapshot pairing is atomic: a snapshot holds
//!   all of a commit's catalog entries or none of them, and a commit
//!   never changes a snapshot taken before it.

use sedna_sas::XPtr;
use sedna_schema::SchemaTree;
use sedna_storage::text::TextStore;
use sedna_storage::{DocStorage, ParentMode};
use sedna_sync::{model, thread, Arc, RwLock};

use crate::admission::SessionGate;
use crate::catalog::{Catalog, CatalogWrites, DocData};

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

/// An empty document entry with id `id` (no storage behind it: the model
/// only moves catalog pointers).
fn doc(id: u64) -> DocData {
    DocData {
        id,
        schema: SchemaTree::new(),
        storage: DocStorage {
            mode: ParentMode::Indirect,
            doc_handle: XPtr::NULL,
            text: TextStore::new(),
            overflow_indir: XPtr::NULL,
            stats: Default::default(),
        },
    }
}

/// A committer publishes two documents in one catalog write section, as
/// `DbInner::publish` does (`Arc::make_mut` on the root under
/// `catalog.write()`); a reader takes snapshots as
/// `DbInner::begin_snapshot` does (clones the root under
/// `catalog.read()`). Every snapshot must hold both documents or
/// neither, and keep holding what it held once the commit is done.
#[test]
fn catalog_snapshot_sees_all_of_a_commit_or_none() {
    model::check(|| {
        let catalog = Arc::new(RwLock::new(Arc::new(Catalog::default())));
        let committer = {
            let catalog = Arc::clone(&catalog);
            thread::spawn(move || {
                let mut writes = CatalogWrites::default();
                writes.put_doc("a", Some(doc(1)));
                writes.put_doc("b", Some(doc(2)));
                let mut root = catalog.write();
                writes.publish(Arc::make_mut(&mut root));
            })
        };
        let snapshots: Vec<(Arc<Catalog>, usize)> = (0..2)
            .map(|_| {
                let snap = Arc::clone(&catalog.read());
                let seen = snap.docs.len();
                assert!(seen == 0 || seen == 2, "a snapshot saw half a commit");
                (snap, seen)
            })
            .collect();
        committer.join().unwrap();
        for (snap, seen) in snapshots {
            assert_eq!(snap.docs.len(), seen, "a commit changed a snapshot");
        }
        assert_eq!(catalog.read().docs.len(), 2);
    });
}
