//! Snapshot-based page multiversioning (Section 6.1) with copy-on-write
//! database branches layered on top.
//!
//! "When using multiversioning, each data element may have several
//! versions. Sedna uses snapshot-based scheme with data elements being
//! pages. [...] When transaction updates some page, a new version of this
//! page is created. [...] When transaction commits, all its versions
//! become last committed ones. If it is rolled back, all its versions are
//! simply discarded. When reading, transaction fetches last committed
//! versions (or reads its own versions if it has created them)."
//!
//! The [`VersionManager`] plugs into the SAS layer as the
//! [`PageResolver`]: every buffer fault asks it which physical page image
//! the faulting view may see. Old versions are purged exactly as the paper
//! says — "this condition is checked when a new version of a page is
//! created".
//!
//! # Branches (database forks)
//!
//! A fork is a *branch*: a `(parent, fork_ts)` pair registered with
//! [`VersionManager::create_branch`]. Every version carries the branch it
//! was committed on; a read on branch `B` resolves through the fork
//! lineage — newest committed version on `B`, else the parent's versions
//! capped at `fork_ts`, recursively up to the root. Creating a branch
//! therefore copies **zero** pages; parent and fork diverge page by page
//! through the ordinary copy-on-write `resolve_write` path, each new
//! version tagged with the writer's branch.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use sedna_obs::Gauge;
use sedna_sas::{
    BufferPool, PageResolver, PageStore, PhysId, SasError, SasResult, TxnToken, View, WritePlan,
    XPtr,
};
use sedna_sync::Mutex;

use crate::TxnId;

/// The root branch every database starts on.
pub const ROOT_BRANCH: u32 = 0;

/// Bit marking a [`View`] as an updating transaction's own view.
const TXN_VIEW_FLAG: u64 = 1 << 63;

/// Bit marking a [`View`] as scoped to a non-root branch. Bits 32..62
/// carry the branch id, the low 32 bits carry `ts + 1` for snapshot views
/// or zero for latest-on-branch.
const BRANCH_VIEW_FLAG: u64 = 1 << 62;
const BRANCH_SHIFT: u32 = 32;
const BRANCH_MASK: u64 = (1 << 30) - 1;
const BRANCH_TS_MASK: u64 = u32::MAX as u64;

/// View of an updating transaction (sees its own working versions). The
/// transaction's branch is looked up from its registration, so the
/// encoding is branch-free.
pub fn txn_view(txn: TxnId) -> View {
    View(TXN_VIEW_FLAG | txn.0)
}

/// View of a read-only transaction pinned to root-branch snapshot `ts`.
/// Encoded as `ts + 1` so that the empty-database snapshot (`ts = 0`)
/// stays distinct from [`View::LATEST`].
pub fn snapshot_view(ts: u64) -> View {
    debug_assert!(ts & (TXN_VIEW_FLAG | BRANCH_VIEW_FLAG) == 0);
    View(ts + 1)
}

/// View of a read-only transaction pinned to snapshot `ts` on `branch`.
/// Root-branch views keep the legacy encoding.
pub fn branch_snapshot_view(branch: u32, ts: u64) -> View {
    if branch == ROOT_BRANCH {
        return snapshot_view(ts);
    }
    debug_assert!(u64::from(branch) <= BRANCH_MASK && ts < BRANCH_TS_MASK);
    View(BRANCH_VIEW_FLAG | (u64::from(branch) << BRANCH_SHIFT) | (ts + 1))
}

/// The last-committed-state view of `branch` (what auto-commit reads on a
/// fork use between transactions). `branch_latest_view(ROOT_BRANCH)` is
/// [`View::LATEST`].
pub fn branch_latest_view(branch: u32) -> View {
    if branch == ROOT_BRANCH {
        return View::LATEST;
    }
    debug_assert!(u64::from(branch) <= BRANCH_MASK);
    View(BRANCH_VIEW_FLAG | (u64::from(branch) << BRANCH_SHIFT))
}

/// The paper's snapshot: "logically snapshot is just a pair: (timestamp,
/// list of active transactions)".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Commit timestamp the snapshot is consistent with.
    pub ts: u64,
    /// Transactions that were active (uncommitted) at creation.
    pub active: Vec<TxnId>,
}

/// A branch registration: where it forked from and at which commit
/// timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchInfo {
    /// Branch this one forked from.
    pub parent: u32,
    /// Commit timestamp of the fork point: parent versions committed at or
    /// before `fork_ts` are visible to the branch until it overwrites them.
    pub fork_ts: u64,
}

#[derive(Clone, Copy, Debug)]
struct Version {
    phys: PhysId,
    /// Commit timestamp; `None` = working (uncommitted).
    committed: Option<u64>,
    creator: TxnId,
    /// Branch the version was (or will be) committed on.
    branch: u32,
}

/// Whether (and how) a page has been freed on one branch. Absence from the
/// chain's drop map means the page is live on that branch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DropState {
    /// Freed by an uncommitted transaction (undone on rollback).
    PendingBy(TxnId),
    /// Free committed at this timestamp; earlier versions may still serve
    /// snapshot readers and descendant branches forked before the drop.
    DroppedAt(u64),
}

#[derive(Default)]
struct Chain {
    /// Newest first; the working version (at most one per chain, enforced
    /// by document locks shared across the fork family) is always first.
    versions: Vec<Version>,
    /// Per-branch drop state.
    drops: HashMap<u32, DropState>,
}

struct SnapshotState {
    snap: Snapshot,
    branch: u32,
    refs: usize,
    persistent: bool,
}

/// Counters for the versioning experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VersionStats {
    /// Working versions created.
    pub versions_created: u64,
    /// Obsolete versions purged (physical slots reclaimed).
    pub versions_purged: u64,
    /// Snapshots currently retained (pinned by readers, checkpoints, or
    /// the retention policy).
    pub snapshots_retained: u64,
    /// Live branches, the root included.
    pub branches: u64,
}

/// A page a transaction has a working version of, and what it replaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkingPage {
    /// The SAS page.
    pub page: XPtr,
    /// Slot of the committed version the working copy was made from, when
    /// that version lives on the transaction's own branch: the base a
    /// commit may log a byte-range delta against. `None` for a fresh page
    /// and for the first write on a fork, whose base is an ancestor's.
    pub base: Option<PhysId>,
}

struct VmState {
    chains: HashMap<u64, Chain>,
    /// Last assigned commit timestamp (shared by every branch).
    current_ts: u64,
    snapshots: Vec<SnapshotState>,
    active: Vec<TxnId>,
    /// Non-root branches by id.
    branches: HashMap<u32, BranchInfo>,
    /// Branch each active non-root transaction runs on.
    txn_branch: HashMap<u64, u32>,
    /// Pages each active update transaction has touched, recorded where a
    /// working version or pending free is created, so commit and rollback
    /// visit only these instead of every chain. Entries may repeat or have
    /// gone stale (a page allocated and freed again): readers go through
    /// [`VmState::touched`] and check the chain.
    txn_pages: HashMap<u64, Vec<u64>>,
    stats: VersionStats,
}

impl VmState {
    fn branch_of(&self, txn: TxnId) -> u32 {
        self.txn_branch.get(&txn.0).copied().unwrap_or(ROOT_BRANCH)
    }

    /// Every `(branch, ts_limit)` pair some live reader may resolve
    /// through: the latest state of each branch plus every pinned
    /// snapshot. The persistent snapshot counts on every branch: a
    /// checkpoint records the whole family's page table, and recovery
    /// reads those slots as the base of logged deltas, so none of them may
    /// be recycled before the next checkpoint.
    fn live_views(&self) -> Vec<(u32, u64)> {
        let mut views = vec![(ROOT_BRANCH, u64::MAX)];
        views.extend(self.branches.keys().map(|&b| (b, u64::MAX)));
        for s in &self.snapshots {
            views.push((s.branch, s.snap.ts));
            if s.persistent {
                views.extend(self.branches.keys().map(|&b| (b, s.snap.ts)));
            }
        }
        views
    }

    fn note_touched(&mut self, txn: TxnId, page: u64) {
        self.txn_pages.entry(txn.0).or_default().push(page);
    }

    /// The pages `txn` has touched, once each, ascending.
    fn touched(&self, txn: TxnId) -> Vec<u64> {
        let mut pages = self.txn_pages.get(&txn.0).cloned().unwrap_or_default();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// Is the newest version of `chain` a working version of `txn`?
    fn has_working(chain: &Chain, txn: TxnId) -> bool {
        chain
            .versions
            .first()
            .is_some_and(|v| v.committed.is_none() && v.creator == txn)
    }
}

/// Walks the fork lineage from `branch`, capped at commit timestamp
/// `lim`, and returns the version a committed read resolves to (`None`
/// when the page is absent or dropped for that view).
fn lineage_find<'a>(
    chain: &'a Chain,
    branches: &HashMap<u32, BranchInfo>,
    mut branch: u32,
    mut lim: u64,
) -> Option<&'a Version> {
    loop {
        let ver = chain
            .versions
            .iter()
            .filter(|v| v.branch == branch && v.committed.is_some_and(|c| c <= lim))
            .max_by_key(|v| v.committed);
        let drop_ts = match chain.drops.get(&branch) {
            Some(DropState::DroppedAt(d)) if *d <= lim => Some(*d),
            _ => None,
        };
        match (ver, drop_ts) {
            // A version newer than the drop re-creates the page.
            (Some(v), Some(d)) if d >= v.committed.unwrap_or(0) => return None,
            (Some(v), _) => return Some(v),
            // Dropped with nothing newer: ancestors are hidden too.
            (None, Some(_)) => return None,
            (None, None) => {}
        }
        let info = branches.get(&branch)?;
        lim = lim.min(info.fork_ts);
        branch = info.parent;
    }
}

/// The version manager: a [`PageResolver`] that maintains per-page version
/// chains, snapshots, branches, commit/rollback, and purging. One manager
/// serves an entire fork family.
pub struct VersionManager {
    store: Arc<dyn PageStore>,
    pool: Mutex<Option<Arc<BufferPool>>>,
    /// Mirrors the retained-snapshot count (`sedna_txn_snapshots_retained`).
    snapshot_gauge: Mutex<Option<Gauge>>,
    state: Mutex<VmState>,
}

impl VersionManager {
    /// Creates a manager allocating versions from `store`.
    pub fn new(store: Arc<dyn PageStore>) -> Arc<VersionManager> {
        Arc::new(VersionManager {
            store,
            pool: Mutex::new(None),
            snapshot_gauge: Mutex::new(None),
            state: Mutex::new(VmState {
                chains: HashMap::new(),
                current_ts: 0,
                snapshots: Vec::new(),
                active: Vec::new(),
                branches: HashMap::new(),
                txn_branch: HashMap::new(),
                txn_pages: HashMap::new(),
                stats: VersionStats::default(),
            }),
        })
    }

    /// Wires in the buffer pool so purged/discarded versions can also be
    /// dropped from memory.
    pub fn set_pool(&self, pool: Arc<BufferPool>) {
        *self.pool.lock() = Some(pool);
    }

    /// Wires in the gauge mirroring the retained-snapshot count.
    pub fn set_snapshot_gauge(&self, gauge: Gauge) {
        gauge.set(self.state.lock().snapshots.len() as i64);
        *self.snapshot_gauge.lock() = Some(gauge);
    }

    fn sync_snapshot_gauge(&self, retained: usize) {
        if let Some(g) = self.snapshot_gauge.lock().as_ref() {
            g.set(retained as i64);
        }
    }

    /// Discards cached frames for a batch of freed version slots in one
    /// [`BufferPool::invalidate_many`] call, so a multi-page
    /// commit/rollback takes the pool's page-table lock once.
    fn invalidate_batch(&self, physes: &[PhysId]) {
        if physes.is_empty() {
            return;
        }
        if let Some(pool) = self.pool.lock().as_ref() {
            pool.invalidate_many(physes);
        }
    }

    /// Registers an update transaction as active on the root branch.
    pub fn begin_update(&self, txn: TxnId) {
        self.begin_update_on(txn, ROOT_BRANCH);
    }

    /// Registers an update transaction as active on `branch`.
    pub fn begin_update_on(&self, txn: TxnId, branch: u32) {
        let mut st = self.state.lock();
        st.active.push(txn);
        if branch != ROOT_BRANCH {
            st.txn_branch.insert(txn.0, branch);
        }
    }

    /// Commits `txn`: its working versions become the last committed ones
    /// on its branch and its pending page frees are finalized. Returns the
    /// commit timestamp.
    pub fn commit(&self, txn: TxnId) -> u64 {
        let mut freed = Vec::new();
        let ts;
        {
            let mut st = self.state.lock();
            st.current_ts += 1;
            ts = st.current_ts;
            let pages = st.touched(txn);
            st.txn_pages.remove(&txn.0);
            for page in pages {
                let Some(chain) = st.chains.get_mut(&page) else {
                    continue;
                };
                let mut changed = false;
                if VmState::has_working(chain, txn) {
                    chain.versions[0].committed = Some(ts);
                    changed = true;
                }
                for d in chain.drops.values_mut() {
                    if *d == DropState::PendingBy(txn) {
                        *d = DropState::DroppedAt(ts);
                        changed = true;
                    }
                }
                if changed {
                    freed.extend(Self::purge_chain(&mut st, page));
                }
            }
            st.active.retain(|&t| t != txn);
            st.txn_branch.remove(&txn.0);
        }
        self.invalidate_batch(&freed);
        for phys in freed {
            let _ = self.store.free(phys);
        }
        ts
    }

    /// Pages whose newest version is a working version of `txn` — the set
    /// the database core logs at commit time — in ascending page order,
    /// each with the committed same-branch version it supersedes.
    pub fn working_pages(&self, txn: TxnId) -> Vec<WorkingPage> {
        let st = self.state.lock();
        let branch = st.branch_of(txn);
        st.touched(txn)
            .into_iter()
            .filter_map(|page| {
                let chain = st.chains.get(&page)?;
                VmState::has_working(chain, txn).then(|| WorkingPage {
                    page: XPtr::from_raw(page),
                    base: lineage_find(chain, &st.branches, branch, u64::MAX)
                        .filter(|v| v.branch == branch)
                        .map(|v| v.phys),
                })
            })
            .collect()
    }

    /// Pages with a pending free by `txn` (logged as PageFree records), in
    /// ascending page order.
    pub fn pending_frees(&self, txn: TxnId) -> Vec<XPtr> {
        let st = self.state.lock();
        st.touched(txn)
            .into_iter()
            .filter(|page| {
                st.chains
                    .get(page)
                    .is_some_and(|c| c.drops.values().any(|d| *d == DropState::PendingBy(txn)))
            })
            .map(XPtr::from_raw)
            .collect()
    }

    /// Rolls `txn` back: its working versions are simply discarded and
    /// its pending frees undone. Returns the SAS pages the transaction
    /// had freshly allocated (their addresses can be recycled).
    pub fn rollback(&self, txn: TxnId) -> Vec<XPtr> {
        let mut discarded = Vec::new();
        let mut fresh_pages = Vec::new();
        {
            let mut st = self.state.lock();
            let pages = st.touched(txn);
            st.txn_pages.remove(&txn.0);
            for page in pages {
                let Some(chain) = st.chains.get_mut(&page) else {
                    continue;
                };
                // A free performed by the aborting txn is undone.
                chain.drops.retain(|_, d| *d != DropState::PendingBy(txn));
                if VmState::has_working(chain, txn) {
                    discarded.push(chain.versions.remove(0).phys);
                    if chain.versions.is_empty() {
                        st.chains.remove(&page);
                        fresh_pages.push(XPtr::from_raw(page));
                    }
                }
            }
            st.active.retain(|&t| t != txn);
            st.txn_branch.remove(&txn.0);
        }
        self.invalidate_batch(&discarded);
        for phys in discarded {
            let _ = self.store.free(phys);
        }
        fresh_pages
    }

    /// Creates a snapshot of the current committed state of the root
    /// branch.
    pub fn create_snapshot(&self) -> Snapshot {
        self.create_snapshot_on(ROOT_BRANCH)
    }

    /// Creates a snapshot of the current committed state of `branch`. "To
    /// create a new snapshot, we simply store the current timestamp and
    /// the list of currently active transactions."
    pub fn create_snapshot_on(&self, branch: u32) -> Snapshot {
        let mut st = self.state.lock();
        let snap = Snapshot {
            ts: st.current_ts,
            active: st.active.clone(),
        };
        if let Some(existing) = st
            .snapshots
            .iter_mut()
            .find(|s| s.branch == branch && s.snap.ts == snap.ts)
        {
            existing.refs += 1;
            return existing.snap.clone();
        }
        st.snapshots.push(SnapshotState {
            snap: snap.clone(),
            branch,
            refs: 1,
            persistent: false,
        });
        let retained = st.snapshots.len();
        drop(st);
        self.sync_snapshot_gauge(retained);
        snap
    }

    /// Takes an extra reference on an already-retained snapshot of
    /// `branch` at exactly `ts` (`AS OF` session pinning). Returns whether
    /// the snapshot was found.
    pub fn pin_snapshot(&self, branch: u32, ts: u64) -> bool {
        let mut st = self.state.lock();
        match st
            .snapshots
            .iter_mut()
            .find(|s| s.branch == branch && s.snap.ts == ts)
        {
            Some(s) => {
                s.refs += 1;
                true
            }
            None => false,
        }
    }

    /// Releases a root-branch snapshot acquired with
    /// [`VersionManager::create_snapshot`].
    pub fn release_snapshot(&self, ts: u64) {
        self.release_snapshot_on(ROOT_BRANCH, ts);
    }

    /// Releases a snapshot of `branch` at `ts`.
    pub fn release_snapshot_on(&self, branch: u32, ts: u64) {
        let mut st = self.state.lock();
        if let Some(idx) = st
            .snapshots
            .iter()
            .position(|s| s.branch == branch && s.snap.ts == ts)
        {
            st.snapshots[idx].refs -= 1;
            if st.snapshots[idx].refs == 0 && !st.snapshots[idx].persistent {
                st.snapshots.remove(idx);
            }
        }
        let retained = st.snapshots.len();
        drop(st);
        self.sync_snapshot_gauge(retained);
    }

    /// Marks the root-branch snapshot at `ts` persistent (checkpoint
    /// support, §6.4): it survives with zero refs until explicitly
    /// demoted.
    pub fn mark_persistent(&self, ts: u64) {
        let mut st = self.state.lock();
        for s in st.snapshots.iter_mut() {
            if s.branch == ROOT_BRANCH && s.snap.ts == ts {
                s.persistent = true;
            } else if s.persistent {
                s.persistent = false;
            }
        }
        // Drop demoted, unreferenced snapshots.
        st.snapshots.retain(|s| s.refs > 0 || s.persistent);
        let retained = st.snapshots.len();
        drop(st);
        self.sync_snapshot_gauge(retained);
    }

    /// Active snapshots (diagnostics/tests).
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.state
            .lock()
            .snapshots
            .iter()
            .map(|s| s.snap.clone())
            .collect()
    }

    /// Version counters.
    pub fn stats(&self) -> VersionStats {
        let st = self.state.lock();
        let mut stats = st.stats;
        stats.snapshots_retained = st.snapshots.len() as u64;
        stats.branches = st.branches.len() as u64 + 1;
        stats
    }

    /// Registers a fork of `parent` taken at commit timestamp `fork_ts`.
    /// O(1): no chain is touched.
    pub fn create_branch(&self, branch: u32, parent: u32, fork_ts: u64) {
        let mut st = self.state.lock();
        debug_assert!(branch != ROOT_BRANCH && !st.branches.contains_key(&branch));
        st.branches.insert(branch, BranchInfo { parent, fork_ts });
    }

    /// Registered non-root branches.
    pub fn branches(&self) -> Vec<(u32, BranchInfo)> {
        let st = self.state.lock();
        let mut out: Vec<_> = st.branches.iter().map(|(&b, &i)| (b, i)).collect();
        out.sort_by_key(|(b, _)| *b);
        out
    }

    /// Does `branch` have registered child branches?
    pub fn has_children(&self, branch: u32) -> bool {
        self.state
            .lock()
            .branches
            .values()
            .any(|i| i.parent == branch)
    }

    /// Unregisters `branch` and reclaims every version committed on it.
    /// The caller must ensure the branch has no child branches and no
    /// active transactions or pinned snapshots of its own.
    pub fn drop_branch(&self, branch: u32) {
        let mut freed = Vec::new();
        {
            let mut st = self.state.lock();
            st.branches.remove(&branch);
            st.snapshots.retain(|s| s.branch != branch);
            let pages: Vec<u64> = st.chains.keys().copied().collect();
            for page in pages {
                let mut purged = 0u64;
                if let Some(chain) = st.chains.get_mut(&page) {
                    chain.versions.retain(|v| {
                        let keep = v.branch != branch;
                        if !keep {
                            freed.push(v.phys);
                            purged += 1;
                        }
                        keep
                    });
                    chain.drops.remove(&branch);
                    if chain.versions.is_empty() {
                        st.chains.remove(&page);
                    }
                }
                st.stats.versions_purged += purged;
                freed.extend(Self::purge_chain(&mut st, page));
            }
            let retained = st.snapshots.len();
            drop(st);
            self.sync_snapshot_gauge(retained);
        }
        self.invalidate_batch(&freed);
        for phys in freed {
            let _ = self.store.free(phys);
        }
    }

    /// The version table a checkpoint persists: every `(page, phys,
    /// branch, commit_ts)` row some branch's latest state resolves to,
    /// plus the committed per-branch drop rows `(page, branch, drop_ts)`
    /// that hide inherited versions. Snapshots are deliberately excluded —
    /// they do not survive a restart.
    #[allow(clippy::type_complexity)]
    pub fn checkpoint_table(&self) -> (Vec<(XPtr, PhysId, u32, u64)>, Vec<(XPtr, u32, u64)>) {
        let st = self.state.lock();
        let mut views = vec![(ROOT_BRANCH, u64::MAX)];
        views.extend(st.branches.keys().map(|&b| (b, u64::MAX)));
        let mut rows = Vec::new();
        let mut drops = Vec::new();
        for (&page, chain) in st.chains.iter() {
            let mut needed: HashSet<(u32, u64)> = HashSet::new();
            for &(b, lim) in &views {
                if let Some(v) = lineage_find(chain, &st.branches, b, lim) {
                    needed.insert((v.branch, v.committed.expect("committed")));
                }
            }
            let before = rows.len();
            for v in &chain.versions {
                if let Some(ts) = v.committed {
                    if needed.contains(&(v.branch, ts)) {
                        rows.push((XPtr::from_raw(page), v.phys, v.branch, ts));
                    }
                }
            }
            if rows.len() > before {
                for (&b, d) in chain.drops.iter() {
                    if let DropState::DroppedAt(ts) = d {
                        drops.push((XPtr::from_raw(page), b, *ts));
                    }
                }
            }
        }
        rows.sort();
        drops.sort();
        (rows, drops)
    }

    /// Installs a committed root-branch version during recovery
    /// ("converting versions belonging to the persistent snapshot into
    /// last committed ones").
    pub fn install_committed(&self, page: XPtr, phys: PhysId) {
        let ts = self.state.lock().current_ts;
        self.install_committed_at(ROOT_BRANCH, page, phys, ts);
    }

    /// Installs a committed version on `branch` with its true commit
    /// timestamp (checkpoint rows and redo).
    pub fn install_committed_at(&self, branch: u32, page: XPtr, phys: PhysId, ts: u64) {
        let mut st = self.state.lock();
        let chain = st.chains.entry(page.raw()).or_default();
        chain.versions.insert(
            0,
            Version {
                phys,
                committed: Some(ts),
                creator: TxnId(0),
                branch,
            },
        );
    }

    /// Records a committed drop of `page` on `branch` during recovery.
    pub fn install_drop(&self, branch: u32, page: XPtr, ts: u64) {
        let mut st = self.state.lock();
        let chain = st.chains.entry(page.raw()).or_default();
        chain.drops.insert(branch, DropState::DroppedAt(ts));
    }

    /// During redo: if the newest committed version of `page` on `branch`
    /// can be overwritten in place by a newer image committed at `ts`,
    /// bumps its timestamp and returns its slot. Returns `None` when a
    /// fresh slot must be allocated because a child branch forked between
    /// the two writes still resolves to the existing version.
    pub fn redo_reuse_slot(&self, branch: u32, page: XPtr, ts: u64) -> Option<PhysId> {
        let mut st = self.state.lock();
        let (idx, vts, phys) = {
            let chain = st.chains.get(&page.raw())?;
            let (idx, v) = chain
                .versions
                .iter()
                .enumerate()
                .filter(|(_, v)| v.branch == branch && v.committed.is_some())
                .max_by_key(|(_, v)| v.committed)?;
            (idx, v.committed.expect("committed"), v.phys)
        };
        let pinned = st
            .branches
            .values()
            .any(|i| i.parent == branch && i.fork_ts >= vts);
        if pinned {
            return None;
        }
        let chain = st.chains.get_mut(&page.raw()).expect("chain exists");
        chain.versions[idx].committed = Some(ts);
        Some(phys)
    }

    /// Drops every version no live view resolves to (end-of-recovery
    /// sweep, before the free list is rebuilt). Returns the freed slots.
    pub fn purge_all(&self) -> Vec<PhysId> {
        let mut st = self.state.lock();
        let pages: Vec<u64> = st.chains.keys().copied().collect();
        let mut freed = Vec::new();
        for page in pages {
            freed.extend(Self::purge_chain(&mut st, page));
        }
        freed
    }

    /// Every physical slot referenced by some chain (recovery free-list
    /// rebuild).
    pub fn live_phys(&self) -> Vec<PhysId> {
        let st = self.state.lock();
        let mut out: Vec<PhysId> = st
            .chains
            .values()
            .flat_map(|c| c.versions.iter().map(|v| v.phys))
            .collect();
        out.sort();
        out
    }

    /// The last assigned commit timestamp.
    pub fn current_ts(&self) -> u64 {
        self.state.lock().current_ts
    }

    /// Raises the commit clock (recovery: past the highest replayed ts).
    pub fn set_current_ts(&self, ts: u64) {
        let mut st = self.state.lock();
        st.current_ts = st.current_ts.max(ts);
    }

    /// Purges chain versions made obsolete; returns freed physical slots.
    /// A version is retained when it is working or when some live view —
    /// the latest state of any branch, or a pinned snapshot — resolves to
    /// it through the fork lineage.
    fn purge_chain(st: &mut VmState, page: u64) -> Vec<PhysId> {
        let mut freed = Vec::new();
        let views = st.live_views();
        let VmState {
            chains,
            branches,
            stats,
            ..
        } = st;
        if let Some(chain) = chains.get_mut(&page) {
            let mut needed: HashSet<(u32, u64)> = HashSet::new();
            for &(b, lim) in &views {
                if let Some(v) = lineage_find(chain, branches, b, lim) {
                    needed.insert((v.branch, v.committed.expect("committed")));
                }
            }
            chain.versions.retain(|v| {
                let retain = match v.committed {
                    None => true,
                    Some(ts) => needed.contains(&(v.branch, ts)),
                };
                if !retain {
                    freed.push(v.phys);
                    stats.versions_purged += 1;
                }
                retain
            });
            let has_pending = chain
                .drops
                .values()
                .any(|d| matches!(d, DropState::PendingBy(_)));
            if chain.versions.is_empty() && !has_pending {
                chains.remove(&page);
            }
        }
        freed
    }
}

impl PageResolver for VersionManager {
    fn attach_pool(&self, pool: Arc<BufferPool>) {
        self.set_pool(pool);
    }

    fn resolve_read(&self, page: XPtr, view: View) -> SasResult<PhysId> {
        let st = self.state.lock();
        let chain = st
            .chains
            .get(&page.raw())
            .ok_or(SasError::NoSuchPage(page))?;
        if view.0 & TXN_VIEW_FLAG != 0 {
            let txn = TxnId(view.0 & !TXN_VIEW_FLAG);
            // Own working version first, then the committed lineage.
            if let Some(v) = chain.versions.first() {
                if v.committed.is_none() && v.creator == txn {
                    return Ok(v.phys);
                }
            }
            let branch = st.branch_of(txn);
            if chain.drops.get(&branch) == Some(&DropState::PendingBy(txn)) {
                return Err(SasError::NoSuchPage(page));
            }
            return lineage_find(chain, &st.branches, branch, u64::MAX)
                .map(|v| v.phys)
                .ok_or(SasError::NoSuchPage(page));
        }
        let (branch, lim) = if view.0 & BRANCH_VIEW_FLAG != 0 {
            let branch = ((view.0 >> BRANCH_SHIFT) & BRANCH_MASK) as u32;
            let low = view.0 & BRANCH_TS_MASK;
            (branch, if low == 0 { u64::MAX } else { low - 1 })
        } else if view == View::LATEST {
            (ROOT_BRANCH, u64::MAX)
        } else {
            (ROOT_BRANCH, view.0 - 1)
        };
        lineage_find(chain, &st.branches, branch, lim)
            .map(|v| v.phys)
            .ok_or(SasError::NoSuchPage(page))
    }

    fn resolve_write(&self, page: XPtr, txn: TxnToken) -> SasResult<WritePlan> {
        let txn = TxnId(txn.0);
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let branch = st.branch_of(txn);
        let chain = st
            .chains
            .get_mut(&page.raw())
            .ok_or(SasError::NoSuchPage(page))?;
        if let Some(v) = chain.versions.first() {
            if v.committed.is_none() {
                if v.creator == txn {
                    return Ok(WritePlan {
                        phys: v.phys,
                        copy_from: None,
                    });
                }
                return Err(SasError::Corrupt(format!(
                    "page {page} already has a working version by {:?} (locking violation)",
                    v.creator
                )));
            }
        }
        // Copy-on-write source: what the writer's branch currently sees.
        let old_phys = lineage_find(chain, &st.branches, branch, u64::MAX)
            .map(|v| v.phys)
            .ok_or(SasError::NoSuchPage(page))?;
        let new_phys = self.store.alloc()?;
        let chain = st.chains.get_mut(&page.raw()).expect("chain exists");
        chain.versions.insert(
            0,
            Version {
                phys: new_phys,
                committed: None,
                creator: txn,
                branch,
            },
        );
        st.note_touched(txn, page.raw());
        st.stats.versions_created += 1;
        // "Old versions are purged when they are not needed anymore [...]
        // this condition is checked when a new version of a page is
        // created."
        let freed = Self::purge_chain(st, page.raw());
        drop(guard);
        self.invalidate_batch(&freed);
        for phys in freed {
            self.store.free(phys)?;
        }
        Ok(WritePlan {
            phys: new_phys,
            copy_from: Some(old_phys),
        })
    }

    fn on_page_alloc(&self, page: XPtr, txn: Option<TxnToken>) -> SasResult<PhysId> {
        let phys = self.store.alloc()?;
        let mut st = self.state.lock();
        let version = match txn {
            Some(t) => {
                st.note_touched(TxnId(t.0), page.raw());
                Version {
                    phys,
                    committed: None,
                    creator: TxnId(t.0),
                    branch: st.branch_of(TxnId(t.0)),
                }
            }
            None => Version {
                phys,
                committed: Some(st.current_ts),
                creator: TxnId(0),
                branch: ROOT_BRANCH,
            },
        };
        let prev = st.chains.insert(
            page.raw(),
            Chain {
                versions: vec![version],
                drops: HashMap::new(),
            },
        );
        if let Some(prev) = prev {
            // The address was recycled. Old committed versions that some
            // snapshot or sibling branch may still read are preserved in
            // the new chain, together with the drop history that hides
            // them from newer views; the rest are freed by a purge pass.
            let keep = !st.snapshots.is_empty() || !st.branches.is_empty();
            if keep {
                let chain = st.chains.get_mut(&page.raw()).expect("just inserted");
                chain.versions.extend(prev.versions);
                chain.drops.extend(
                    prev.drops
                        .into_iter()
                        .filter(|(_, d)| matches!(d, DropState::DroppedAt(_))),
                );
            } else {
                for v in prev.versions {
                    let _ = self.store.free(v.phys);
                }
            }
        }
        Ok(phys)
    }

    fn on_page_free(&self, page: XPtr, txn: Option<TxnToken>) -> SasResult<()> {
        let mut freed = Vec::new();
        {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            if !st.chains.contains_key(&page.raw()) {
                return Ok(());
            }
            let branch = txn.map(|t| st.branch_of(TxnId(t.0))).unwrap_or(ROOT_BRANCH);
            let chain = st.chains.get_mut(&page.raw()).expect("checked above");
            // Discard the working version of the freeing transaction.
            if let (Some(t), Some(v)) = (txn, chain.versions.first()) {
                if v.committed.is_none() && v.creator == TxnId(t.0) {
                    freed.push(v.phys);
                    chain.versions.remove(0);
                }
            }
            match txn {
                Some(t) if !chain.versions.is_empty() => {
                    // Committed versions remain until the transaction
                    // commits (the free is undone on rollback).
                    chain.drops.insert(branch, DropState::PendingBy(TxnId(t.0)));
                    st.note_touched(TxnId(t.0), page.raw());
                }
                Some(_) => {
                    // The page never had a committed version: the chain
                    // held only this transaction's working version.
                    st.chains.remove(&page.raw());
                }
                None => {
                    // Non-transactional free: an immediately-committed
                    // drop; the purge pass reclaims whatever no snapshot
                    // or branch still reads.
                    let ts = st.current_ts;
                    chain.drops.insert(branch, DropState::DroppedAt(ts));
                    freed.extend(Self::purge_chain(st, page.raw()));
                }
            }
        }
        self.invalidate_batch(&freed);
        for phys in freed {
            self.store.free(phys)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_sas::MemPageStore;

    fn setup() -> (Arc<VersionManager>, Arc<dyn PageStore>) {
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(256));
        (VersionManager::new(Arc::clone(&store)), store)
    }

    fn page(n: u32) -> XPtr {
        XPtr::new(0, n * 256)
    }

    #[test]
    fn alloc_commit_read_latest() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let phys = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        // The creator sees it; LATEST does not until commit.
        assert_eq!(vm.resolve_read(page(1), txn_view(t1)).unwrap(), phys);
        assert!(vm.resolve_read(page(1), View::LATEST).is_err());
        vm.commit(t1);
        assert_eq!(vm.resolve_read(page(1), View::LATEST).unwrap(), phys);
    }

    #[test]
    fn write_creates_version_and_snapshot_keeps_old() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p0 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        vm.commit(t1);

        let snap = vm.create_snapshot();
        let t2 = TxnId(2);
        vm.begin_update(t2);
        let plan = vm.resolve_write(page(1), t2.token()).unwrap();
        assert_ne!(plan.phys, p0);
        assert_eq!(plan.copy_from, Some(p0));
        // Readers: snapshot sees old, updater sees new, LATEST sees old.
        assert_eq!(
            vm.resolve_read(page(1), snapshot_view(snap.ts)).unwrap(),
            p0
        );
        assert_eq!(vm.resolve_read(page(1), txn_view(t2)).unwrap(), plan.phys);
        assert_eq!(vm.resolve_read(page(1), View::LATEST).unwrap(), p0);
        vm.commit(t2);
        assert_eq!(vm.resolve_read(page(1), View::LATEST).unwrap(), plan.phys);
        // The pinned snapshot still sees the old version.
        assert_eq!(
            vm.resolve_read(page(1), snapshot_view(snap.ts)).unwrap(),
            p0
        );
        vm.release_snapshot(snap.ts);
    }

    #[test]
    fn repeat_writes_same_txn_reuse_version() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        vm.commit(t1);
        let t2 = TxnId(2);
        vm.begin_update(t2);
        let a = vm.resolve_write(page(1), t2.token()).unwrap();
        let b = vm.resolve_write(page(1), t2.token()).unwrap();
        assert_eq!(a.phys, b.phys);
        assert!(b.copy_from.is_none());
    }

    #[test]
    fn concurrent_working_versions_rejected() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        vm.commit(t1);
        let (t2, t3) = (TxnId(2), TxnId(3));
        vm.begin_update(t2);
        vm.begin_update(t3);
        vm.resolve_write(page(1), t2.token()).unwrap();
        assert!(vm.resolve_write(page(1), t3.token()).is_err());
    }

    #[test]
    fn rollback_discards_working_versions() {
        let (vm, store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        vm.commit(t1);
        let allocated_before = store.allocated();
        let t2 = TxnId(2);
        vm.begin_update(t2);
        let plan = vm.resolve_write(page(1), t2.token()).unwrap();
        vm.rollback(t2);
        assert_eq!(store.allocated(), allocated_before, "version slot freed");
        // LATEST still resolves to the committed version.
        assert_ne!(vm.resolve_read(page(1), View::LATEST).unwrap(), plan.phys);
    }

    #[test]
    fn purge_reclaims_unneeded_versions() {
        let (vm, store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        vm.commit(t1);
        // No snapshots: every new version purges the previous one.
        for i in 2..10 {
            let t = TxnId(i);
            vm.begin_update(t);
            vm.resolve_write(page(1), t.token()).unwrap();
            vm.commit(t);
        }
        assert!(vm.stats().versions_purged >= 7, "stats: {:?}", vm.stats());
        // Exactly the live versions remain allocated.
        assert!(store.allocated() <= 2);
    }

    #[test]
    fn snapshot_pins_versions_against_purge() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p0 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        vm.commit(t1);
        let snap = vm.create_snapshot();
        for i in 2..6 {
            let t = TxnId(i);
            vm.begin_update(t);
            vm.resolve_write(page(1), t.token()).unwrap();
            vm.commit(t);
        }
        // The snapshot's version survived all that churn.
        assert_eq!(
            vm.resolve_read(page(1), snapshot_view(snap.ts)).unwrap(),
            p0
        );
        vm.release_snapshot(snap.ts);
    }

    #[test]
    fn snapshot_advancement() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        let snap_before = vm.create_snapshot();
        assert!(snap_before.active.contains(&t1), "t1 active at snapshot");
        vm.commit(t1);
        let snap_after = vm.create_snapshot();
        assert!(snap_after.ts > snap_before.ts);
        // Old snapshot still can't see t1's page; new one can.
        assert!(vm
            .resolve_read(page(1), snapshot_view(snap_before.ts))
            .is_err());
        assert!(vm
            .resolve_read(page(1), snapshot_view(snap_after.ts))
            .is_ok());
    }

    #[test]
    fn checkpoint_table_round_trip() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p1 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        let p2 = vm.on_page_alloc(page(2), Some(t1.token())).unwrap();
        let ts = vm.commit(t1);
        let (table, drops) = vm.checkpoint_table();
        assert_eq!(
            table,
            vec![
                (page(1), p1, ROOT_BRANCH, ts),
                (page(2), p2, ROOT_BRANCH, ts)
            ]
        );
        assert!(drops.is_empty());

        let (vm2, _s2) = setup();
        for (pg, ph, branch, ts) in table {
            vm2.install_committed_at(branch, pg, ph, ts);
        }
        assert_eq!(vm2.resolve_read(page(1), View::LATEST).unwrap(), p1);
    }

    #[test]
    fn freed_page_hidden_from_latest_kept_for_snapshot() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p0 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        vm.commit(t1);
        let snap = vm.create_snapshot();
        let t2 = TxnId(2);
        vm.begin_update(t2);
        vm.on_page_free(page(1), Some(t2.token())).unwrap();
        vm.commit(t2);
        assert!(vm.resolve_read(page(1), View::LATEST).is_err());
        assert_eq!(
            vm.resolve_read(page(1), snapshot_view(snap.ts)).unwrap(),
            p0
        );
        vm.release_snapshot(snap.ts);
    }

    #[test]
    fn fork_shares_pages_then_diverges() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p0 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        let fork_ts = vm.commit(t1);

        vm.create_branch(1, ROOT_BRANCH, fork_ts);
        // Zero-copy: the fork resolves straight to the parent's slot.
        assert_eq!(vm.resolve_read(page(1), branch_latest_view(1)).unwrap(), p0);

        // Fork writes: CoW from the shared slot, parent unaffected.
        let tf = TxnId(2);
        vm.begin_update_on(tf, 1);
        let plan = vm.resolve_write(page(1), tf.token()).unwrap();
        assert_eq!(plan.copy_from, Some(p0));
        vm.commit(tf);
        assert_eq!(
            vm.resolve_read(page(1), branch_latest_view(1)).unwrap(),
            plan.phys
        );
        assert_eq!(vm.resolve_read(page(1), View::LATEST).unwrap(), p0);

        // Parent writes after the fork: fork still pinned to fork_ts state.
        let tp = TxnId(3);
        vm.begin_update(tp);
        let pplan = vm.resolve_write(page(1), tp.token()).unwrap();
        assert_eq!(pplan.copy_from, Some(p0));
        vm.commit(tp);
        assert_eq!(vm.resolve_read(page(1), View::LATEST).unwrap(), pplan.phys);
        assert_eq!(
            vm.resolve_read(page(1), branch_latest_view(1)).unwrap(),
            plan.phys
        );
    }

    #[test]
    fn fork_pins_parent_version_against_purge() {
        let (vm, store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p0 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        let fork_ts = vm.commit(t1);
        vm.create_branch(1, ROOT_BRANCH, fork_ts);
        // Parent churns the page; the fork's version must survive.
        for i in 2..6 {
            let t = TxnId(i);
            vm.begin_update(t);
            vm.resolve_write(page(1), t.token()).unwrap();
            vm.commit(t);
        }
        assert_eq!(vm.resolve_read(page(1), branch_latest_view(1)).unwrap(), p0);
        // Only the fork-pinned version and the parent's newest remain.
        assert!(store.allocated() <= 2, "allocated {}", store.allocated());

        vm.drop_branch(1);
        assert!(store.allocated() <= 1, "allocated {}", store.allocated());
        assert!(vm.resolve_read(page(1), View::LATEST).is_ok());
    }

    #[test]
    fn parent_drop_invisible_to_pre_drop_fork() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p0 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        let fork_ts = vm.commit(t1);
        vm.create_branch(1, ROOT_BRANCH, fork_ts);
        // Parent drops the page post-fork.
        let t2 = TxnId(2);
        vm.begin_update(t2);
        vm.on_page_free(page(1), Some(t2.token())).unwrap();
        vm.commit(t2);
        assert!(vm.resolve_read(page(1), View::LATEST).is_err());
        assert_eq!(vm.resolve_read(page(1), branch_latest_view(1)).unwrap(), p0);

        // Fork drops it too: now nobody needs the chain.
        let t3 = TxnId(3);
        vm.begin_update_on(t3, 1);
        vm.on_page_free(page(1), Some(t3.token())).unwrap();
        vm.commit(t3);
        assert!(vm.resolve_read(page(1), branch_latest_view(1)).is_err());
    }

    #[test]
    fn fork_drop_invisible_to_parent() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p0 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        let fork_ts = vm.commit(t1);
        vm.create_branch(1, ROOT_BRANCH, fork_ts);
        let tf = TxnId(2);
        vm.begin_update_on(tf, 1);
        vm.on_page_free(page(1), Some(tf.token())).unwrap();
        vm.commit(tf);
        assert!(vm.resolve_read(page(1), branch_latest_view(1)).is_err());
        assert_eq!(vm.resolve_read(page(1), View::LATEST).unwrap(), p0);
    }

    #[test]
    fn branch_snapshot_views_resolve_on_the_branch() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p0 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        let fork_ts = vm.commit(t1);
        vm.create_branch(1, ROOT_BRANCH, fork_ts);
        // Fork diverges, then we snapshot the fork.
        let tf = TxnId(2);
        vm.begin_update_on(tf, 1);
        let plan = vm.resolve_write(page(1), tf.token()).unwrap();
        vm.commit(tf);
        let snap = vm.create_snapshot_on(1);
        assert_eq!(
            vm.resolve_read(page(1), branch_snapshot_view(1, snap.ts))
                .unwrap(),
            plan.phys
        );
        // The fork keeps churning; the branch snapshot stays pinned.
        let tg = TxnId(3);
        vm.begin_update_on(tg, 1);
        vm.resolve_write(page(1), tg.token()).unwrap();
        vm.commit(tg);
        assert_eq!(
            vm.resolve_read(page(1), branch_snapshot_view(1, snap.ts))
                .unwrap(),
            plan.phys
        );
        // A pre-divergence fork snapshot view reads through to the parent.
        assert_eq!(
            vm.resolve_read(page(1), branch_snapshot_view(1, fork_ts))
                .unwrap(),
            p0
        );
        vm.release_snapshot_on(1, snap.ts);
    }

    #[test]
    fn checkpoint_table_preserves_fork_lineage() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p0 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        let fork_ts = vm.commit(t1);
        vm.create_branch(1, ROOT_BRANCH, fork_ts);
        // Parent rewrites the page post-fork: both versions are needed.
        let t2 = TxnId(2);
        vm.begin_update(t2);
        let plan = vm.resolve_write(page(1), t2.token()).unwrap();
        let ts2 = vm.commit(t2);
        let (table, drops) = vm.checkpoint_table();
        assert_eq!(
            table,
            vec![
                (page(1), p0, ROOT_BRANCH, fork_ts),
                (page(1), plan.phys, ROOT_BRANCH, ts2),
            ]
        );
        assert!(drops.is_empty());

        // Round-trip into a fresh manager.
        let (vm2, _s2) = setup();
        vm2.create_branch(1, ROOT_BRANCH, fork_ts);
        for (pg, ph, branch, ts) in table {
            vm2.install_committed_at(branch, pg, ph, ts);
        }
        vm2.set_current_ts(ts2);
        assert_eq!(vm2.resolve_read(page(1), View::LATEST).unwrap(), plan.phys);
        assert_eq!(
            vm2.resolve_read(page(1), branch_latest_view(1)).unwrap(),
            p0
        );
    }

    #[test]
    fn pin_snapshot_holds_retained_snapshot() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p0 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        vm.commit(t1);
        let snap = vm.create_snapshot();
        assert!(vm.pin_snapshot(ROOT_BRANCH, snap.ts));
        assert!(!vm.pin_snapshot(ROOT_BRANCH, snap.ts + 7));
        // First release (the original ref) keeps it pinned.
        vm.release_snapshot(snap.ts);
        let t2 = TxnId(2);
        vm.begin_update(t2);
        vm.resolve_write(page(1), t2.token()).unwrap();
        vm.commit(t2);
        assert_eq!(
            vm.resolve_read(page(1), snapshot_view(snap.ts)).unwrap(),
            p0
        );
        assert_eq!(vm.stats().snapshots_retained, 1);
        vm.release_snapshot(snap.ts);
        assert_eq!(vm.stats().snapshots_retained, 0);
    }

    #[test]
    fn redo_reuse_respects_fork_pin() {
        let (vm, _store) = setup();
        // Recovery-style install: parent version at ts 5, fork at ts 6.
        vm.install_committed_at(ROOT_BRANCH, page(1), PhysId(0), 5);
        vm.create_branch(1, ROOT_BRANCH, 6);
        // A later parent image at ts 9 must NOT overwrite the slot the
        // fork still reads.
        assert_eq!(vm.redo_reuse_slot(ROOT_BRANCH, page(1), 9), None);
        vm.install_committed_at(ROOT_BRANCH, page(1), PhysId(1), 9);
        assert_eq!(
            vm.resolve_read(page(1), branch_latest_view(1)).unwrap(),
            PhysId(0)
        );
        assert_eq!(vm.resolve_read(page(1), View::LATEST).unwrap(), PhysId(1));
        // A still-later image may overwrite ts 9 in place (no fork pins it).
        assert_eq!(
            vm.redo_reuse_slot(ROOT_BRANCH, page(1), 12),
            Some(PhysId(1))
        );
    }

    /// What `working_pages` / `pending_frees` answered when they scanned
    /// every chain: the reference the per-transaction lists must match.
    fn scan_all_chains(vm: &VersionManager, txn: TxnId) -> (Vec<XPtr>, Vec<XPtr>) {
        let st = vm.state.lock();
        let mut working: Vec<XPtr> = st
            .chains
            .iter()
            .filter(|(_, c)| VmState::has_working(c, txn))
            .map(|(&p, _)| XPtr::from_raw(p))
            .collect();
        let mut frees: Vec<XPtr> = st
            .chains
            .iter()
            .filter(|(_, c)| c.drops.values().any(|d| *d == DropState::PendingBy(txn)))
            .map(|(&p, _)| XPtr::from_raw(p))
            .collect();
        working.sort();
        frees.sort();
        (working, frees)
    }

    #[test]
    fn per_txn_page_lists_match_a_full_scan_on_a_many_page_store() {
        let (vm, store) = setup();
        const PAGES: u32 = 3000;
        let t1 = TxnId(1);
        vm.begin_update(t1);
        for n in 1..=PAGES {
            vm.on_page_alloc(page(n), Some(t1.token())).unwrap();
        }
        let (working, frees) = scan_all_chains(&vm, t1);
        assert_eq!(working.len(), PAGES as usize);
        assert!(frees.is_empty());
        let listed: Vec<XPtr> = vm.working_pages(t1).iter().map(|w| w.page).collect();
        assert_eq!(listed, working, "sorted, as commit_update relies on");
        assert!(vm.working_pages(t1).iter().all(|w| w.base.is_none()));
        vm.commit(t1);
        assert!(vm.working_pages(t1).is_empty());

        // Two interleaved transactions on disjoint pages: writes, a write
        // then free, a plain free, an alloc then free, a free then
        // re-alloc of the same address, and repeated writes.
        let (t2, t3) = (TxnId(2), TxnId(3));
        vm.begin_update(t2);
        vm.begin_update(t3);
        for n in [2900, 17, 1500, 17, 42] {
            vm.resolve_write(page(n), t2.token()).unwrap();
        }
        vm.on_page_free(page(42), Some(t2.token())).unwrap();
        vm.on_page_free(page(43), Some(t2.token())).unwrap();
        vm.on_page_alloc(page(PAGES + 1), Some(t2.token())).unwrap();
        vm.on_page_free(page(PAGES + 1), Some(t2.token())).unwrap();
        vm.on_page_free(page(44), Some(t2.token())).unwrap();
        vm.on_page_alloc(page(44), Some(t2.token())).unwrap();
        for n in [5, 2999] {
            vm.resolve_write(page(n), t3.token()).unwrap();
        }
        vm.on_page_free(page(6), Some(t3.token())).unwrap();

        for txn in [t2, t3] {
            let (working, frees) = scan_all_chains(&vm, txn);
            let listed: Vec<XPtr> = vm.working_pages(txn).iter().map(|w| w.page).collect();
            assert_eq!(listed, working);
            assert_eq!(vm.pending_frees(txn), frees);
        }
        assert_eq!(
            vm.working_pages(t2)
                .iter()
                .map(|w| w.page)
                .collect::<Vec<_>>(),
            vec![page(17), page(44), page(1500), page(2900)]
        );
        assert_eq!(vm.pending_frees(t2), vec![page(42), page(43)]);
        // Every rewritten page has its committed predecessor as base; the
        // re-allocated address is a fresh page (no snapshot or fork kept
        // its old chain).
        for w in vm.working_pages(t2) {
            let committed = vm.resolve_read(w.page, View::LATEST).ok();
            assert_eq!(w.base, committed);
            assert_eq!(w.base.is_none(), w.page == page(44));
        }

        // Rollback of t3 and commit of t2 leave exactly what a full scan
        // of the chains says they should.
        let allocated = store.allocated();
        assert!(vm.rollback(t3).is_empty());
        assert_eq!(store.allocated(), allocated - 2, "t3's two versions freed");
        assert!(
            vm.resolve_read(page(6), View::LATEST).is_ok(),
            "free undone"
        );
        let ts = vm.commit(t2);
        for txn in [t2, t3] {
            assert_eq!(scan_all_chains(&vm, txn), (Vec::new(), Vec::new()));
        }
        assert!(vm.resolve_read(page(42), View::LATEST).is_err());
        assert!(vm.resolve_read(page(43), View::LATEST).is_err());
        assert!(vm.resolve_read(page(44), View::LATEST).is_ok());
        let (table, drops) = vm.checkpoint_table();
        assert_eq!(table.len(), PAGES as usize - 2);
        assert_eq!(table.iter().filter(|r| r.3 == ts).count(), 4);
        assert!(drops.is_empty(), "fully dropped chains are gone");
        assert!(vm.state.lock().txn_pages.is_empty());
    }

    #[test]
    fn working_page_base_is_same_branch_only() {
        let (vm, _store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        let p0 = vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        let fork_ts = vm.commit(t1);
        vm.create_branch(1, ROOT_BRANCH, fork_ts);
        // First write on the fork: copied from the parent's version, which
        // is not a base a delta may name.
        let tf = TxnId(2);
        vm.begin_update_on(tf, 1);
        let plan = vm.resolve_write(page(1), tf.token()).unwrap();
        assert_eq!(plan.copy_from, Some(p0));
        assert_eq!(
            vm.working_pages(tf),
            vec![WorkingPage {
                page: page(1),
                base: None
            }]
        );
        vm.commit(tf);
        // Second write on the fork: its own version is the base.
        let tg = TxnId(3);
        vm.begin_update_on(tg, 1);
        vm.resolve_write(page(1), tg.token()).unwrap();
        assert_eq!(vm.working_pages(tg)[0].base, Some(plan.phys));
        vm.commit(tg);
        // The parent's base is its own version throughout.
        let tp = TxnId(4);
        vm.begin_update(tp);
        vm.resolve_write(page(1), tp.token()).unwrap();
        assert_eq!(vm.working_pages(tp)[0].base, Some(p0));
    }

    #[test]
    fn persistent_snapshot_pins_fork_versions_too() {
        let (vm, store) = setup();
        let t1 = TxnId(1);
        vm.begin_update(t1);
        vm.on_page_alloc(page(1), Some(t1.token())).unwrap();
        let fork_ts = vm.commit(t1);
        vm.create_branch(1, ROOT_BRANCH, fork_ts);
        let tf = TxnId(2);
        vm.begin_update_on(tf, 1);
        let at_checkpoint = vm.resolve_write(page(1), tf.token()).unwrap().phys;
        vm.commit(tf);
        // Checkpoint: the fork's version is in the persisted page table.
        let snap = vm.create_snapshot();
        vm.mark_persistent(snap.ts);
        vm.release_snapshot(snap.ts);
        assert!(vm.checkpoint_table().0.iter().any(|r| r.1 == at_checkpoint));
        // The fork rewrites the page twice: the checkpointed slot must not
        // be freed (recovery would read it as a delta's base), the one in
        // between may.
        let allocated = store.allocated();
        for i in 3..5 {
            let t = TxnId(i);
            vm.begin_update_on(t, 1);
            let phys = vm.resolve_write(page(1), t.token()).unwrap().phys;
            assert_ne!(phys, at_checkpoint);
            vm.commit(t);
        }
        assert_eq!(store.allocated(), allocated + 1);
        assert!(vm.live_phys().contains(&at_checkpoint));
        // The next checkpoint releases it.
        let snap = vm.create_snapshot();
        vm.mark_persistent(snap.ts);
        vm.release_snapshot(snap.ts);
        let t = TxnId(9);
        vm.begin_update_on(t, 1);
        vm.resolve_write(page(1), t.token()).unwrap();
        vm.commit(t);
        assert!(!vm.live_phys().contains(&at_checkpoint));
    }
}
