//! The transaction manager façade: ties the lock manager and version
//! manager together and hands out transaction views for the SAS layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sedna_sas::{PageStore, TxnToken, View};

use crate::lock::LockManager;
use crate::metrics::TxnMetrics;
use crate::version::{branch_snapshot_view, txn_view, VersionManager, ROOT_BRANCH};
use crate::TxnId;

/// What kind of transaction a handle denotes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnKind {
    /// An updating transaction: S2PL locking + a working-version view.
    Update,
    /// A read-only transaction (§6.3): pinned to a snapshot, takes no
    /// document locks, "obtains a consistent but possibly slightly
    /// obsolete state of the database".
    ReadOnly {
        /// The pinned snapshot's timestamp.
        snapshot_ts: u64,
    },
}

/// A live transaction.
#[derive(Clone, Debug)]
pub struct TxnHandle {
    /// Transaction id.
    pub id: TxnId,
    /// Update or read-only.
    pub kind: TxnKind,
    /// Branch (fork) the transaction runs on; [`ROOT_BRANCH`] for the
    /// primary database.
    pub branch: u32,
}

impl TxnHandle {
    /// The SAS view this transaction dereferences through.
    pub fn view(&self) -> View {
        match self.kind {
            TxnKind::Update => txn_view(self.id),
            TxnKind::ReadOnly { snapshot_ts } => branch_snapshot_view(self.branch, snapshot_ts),
        }
    }

    /// The SAS write token (updaters only).
    pub fn token(&self) -> Option<TxnToken> {
        match self.kind {
            TxnKind::Update => Some(self.id.token()),
            TxnKind::ReadOnly { .. } => None,
        }
    }

    /// Whether this is a read-only transaction.
    pub fn is_read_only(&self) -> bool {
        matches!(self.kind, TxnKind::ReadOnly { .. })
    }
}

/// The transaction manager.
pub struct TxnManager {
    /// The S2PL lock manager.
    pub locks: LockManager,
    /// The page-version manager (also the SAS page resolver).
    pub versions: Arc<VersionManager>,
    next_id: AtomicU64,
    metrics: TxnMetrics,
}

impl TxnManager {
    /// Creates a transaction manager whose versions allocate from `store`.
    pub fn new(store: Arc<dyn PageStore>) -> TxnManager {
        let metrics = TxnMetrics::default();
        let versions = VersionManager::new(store);
        versions.set_snapshot_gauge(metrics.snapshots_retained.clone());
        TxnManager {
            locks: LockManager::with_metrics(
                std::time::Duration::from_secs(10),
                metrics.locks.clone(),
            ),
            versions,
            next_id: AtomicU64::new(1),
            metrics,
        }
    }

    /// The manager's live metric handles (shared with its lock manager).
    pub fn metrics(&self) -> &TxnMetrics {
        &self.metrics
    }

    /// Begins an updating transaction on the root branch.
    pub fn begin_update(&self) -> TxnHandle {
        self.begin_update_on(ROOT_BRANCH)
    }

    /// Begins an updating transaction on `branch`.
    pub fn begin_update_on(&self, branch: u32) -> TxnHandle {
        // relaxed: ID allocation only needs uniqueness, not ordering with other state.
        let id = TxnId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.metrics.update_begins.inc();
        self.versions.begin_update_on(id, branch);
        TxnHandle {
            id,
            kind: TxnKind::Update,
            branch,
        }
    }

    /// Begins a read-only transaction pinned to the current root-branch
    /// snapshot.
    pub fn begin_read_only(&self) -> TxnHandle {
        self.begin_read_only_on(ROOT_BRANCH)
    }

    /// Begins a read-only transaction pinned to the current snapshot of
    /// `branch`.
    pub fn begin_read_only_on(&self, branch: u32) -> TxnHandle {
        // relaxed: ID allocation only needs uniqueness, not ordering with other state.
        let id = TxnId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.metrics.readonly_begins.inc();
        let snap = self.versions.create_snapshot_on(branch);
        TxnHandle {
            id,
            kind: TxnKind::ReadOnly {
                snapshot_ts: snap.ts,
            },
            branch,
        }
    }

    /// Begins a read-only transaction pinned to an already-retained
    /// snapshot of `branch` at exactly `ts` (`AS OF` reads). Returns
    /// `None` when no such snapshot is retained.
    pub fn begin_read_only_at(&self, branch: u32, ts: u64) -> Option<TxnHandle> {
        if !self.versions.pin_snapshot(branch, ts) {
            return None;
        }
        // relaxed: ID allocation only needs uniqueness, not ordering with other state.
        let id = TxnId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.metrics.readonly_begins.inc();
        Some(TxnHandle {
            id,
            kind: TxnKind::ReadOnly { snapshot_ts: ts },
            branch,
        })
    }

    /// Commits; returns the commit timestamp (0 for read-only).
    pub fn commit(&self, txn: &TxnHandle) -> u64 {
        self.metrics.commits.inc();
        match txn.kind {
            TxnKind::Update => {
                let ts = self.versions.commit(txn.id);
                self.locks.release_all(txn.id);
                ts
            }
            TxnKind::ReadOnly { snapshot_ts } => {
                self.versions.release_snapshot_on(txn.branch, snapshot_ts);
                0
            }
        }
    }

    /// Aborts: working versions are discarded, locks released.
    pub fn abort(&self, txn: &TxnHandle) {
        self.metrics.aborts.inc();
        match txn.kind {
            TxnKind::Update => {
                self.versions.rollback(txn.id);
                self.locks.release_all(txn.id);
            }
            TxnKind::ReadOnly { snapshot_ts } => {
                self.versions.release_snapshot_on(txn.branch, snapshot_ts);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::LockMode;
    use sedna_sas::MemPageStore;

    fn mgr() -> TxnManager {
        TxnManager::new(Arc::new(MemPageStore::new(256)))
    }

    #[test]
    fn ids_are_unique_and_views_differ() {
        let m = mgr();
        let a = m.begin_update();
        let b = m.begin_update();
        assert_ne!(a.id, b.id);
        assert_ne!(a.view(), b.view());
        assert!(a.token().is_some());
        m.commit(&a);
        m.commit(&b);
    }

    #[test]
    fn read_only_has_no_token_and_pins_snapshot() {
        let m = mgr();
        let r = m.begin_read_only();
        assert!(r.is_read_only());
        assert!(r.token().is_none());
        assert_eq!(m.versions.snapshots().len(), 1);
        m.commit(&r);
        assert_eq!(m.versions.snapshots().len(), 0);
    }

    #[test]
    fn abort_releases_locks() {
        let m = mgr();
        let t = m.begin_update();
        m.locks.lock_document(t.id, 1, LockMode::X).unwrap();
        assert!(m.locks.locked_resources() > 0);
        m.abort(&t);
        assert_eq!(m.locks.locked_resources(), 0);
    }
}
