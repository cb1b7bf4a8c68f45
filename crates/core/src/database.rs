//! The database manager: buffer manager + transaction manager (Figure 1),
//! WAL durability, checkpoints, two-step recovery, hot backup, and the
//! copy-on-write fork family (instant database forks + `AS OF`
//! time-travel reads).

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::time::Instant;

use sedna_sas::{FilePageStore, PageResolver, PageStore, Sas, SasConfig, View, XPtr};
use sedna_sync::{Arc, Condvar, Mutex, RwLock};
use sedna_txn::{branch_latest_view, TxnManager, ROOT_BRANCH};
use sedna_wal::record::AllocSnapshot;
use sedna_wal::{
    plan_recovery, BranchEvent, BranchMeta, CheckpointData, PageOp, RedoOp, WalRecord, WalWriter,
};

use sedna_obs::{SpanEvent, TraceBuffer};

use crate::admission::{CatalogGeneration, SessionGate, StatsEpoch};
use crate::catalog::{self, Catalog};
use crate::config::DbConfig;
use crate::error::{DbError, DbResult};
use crate::introspect::{ActivityReport, ActivityTracker, SlowLog, SlowQueryEntry};
use crate::metrics::{DbObs, ForkMetrics};
use crate::plan_cache::SharedPlanCache;
use crate::session::Session;

/// Traces the ring keeps before overwriting the oldest.
const TRACE_RING_CAPACITY: usize = 32;
/// Slow queries the ring keeps before overwriting the oldest.
const SLOW_LOG_CAPACITY: usize = 32;

const DATA_FILE: &str = "data.sedna";
const WAL_FILE: &str = "wal.sedna";
/// Log-rotation epoch marker: incremented whenever the log is truncated,
/// copied into full backups, and checked by incremental backups.
const EPOCH_FILE: &str = "wal.epoch";

fn read_epoch(dir: &Path) -> u64 {
    std::fs::read_to_string(dir.join(EPOCH_FILE))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

fn write_epoch(dir: &Path, epoch: u64) -> std::io::Result<()> {
    std::fs::write(dir.join(EPOCH_FILE), epoch.to_string())
}

/// Gate coordinating update transactions with checkpoints: updaters hold
/// it shared; a checkpoint runs exclusively (so the flushed state is
/// transaction-consistent — the paper's "fixate transaction-consistent
/// state"). One gate serves an entire fork family: a checkpoint drains
/// updaters of every branch, and fork/drop-fork run exclusively too.
pub(crate) struct TxnGate {
    active: Mutex<usize>,
    cv: Condvar,
}

impl TxnGate {
    fn new() -> TxnGate {
        TxnGate {
            active: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn enter_shared(&self) {
        let mut n = self.active.lock();
        // usize::MAX marks an exclusive holder.
        while *n == usize::MAX {
            n = self.cv.wait(n);
        }
        *n += 1;
    }

    pub(crate) fn exit_shared(&self) {
        let mut n = self.active.lock();
        *n -= 1;
        if *n == 0 {
            self.cv.notify_all();
        }
    }

    fn run_exclusive<R>(&self, f: impl FnOnce() -> R) -> R {
        let mut n = self.active.lock();
        while *n != 0 {
            n = self.cv.wait(n);
        }
        *n = usize::MAX;
        drop(n);
        let r = f();
        let mut n = self.active.lock();
        *n = 0;
        self.cv.notify_all();
        r
    }
}

/// The fork-family registry shared by a root database and its forks:
/// branch-id allocation plus the live fork list. Forks are held
/// **strongly** — a fork stays alive (and recoverable) until
/// [`Database::drop_fork`], even if every external handle to it is
/// dropped. The resulting `DbInner → Family → DbInner` cycle is broken
/// exactly by `drop_fork` removing the entry.
pub(crate) struct Family {
    state: Mutex<FamilyState>,
}

struct FamilyState {
    /// Next branch id to hand out; ids are never reused, so recovery can
    /// rely on "higher id == forked later" for parent-before-child order.
    next_branch: u32,
    /// Live forks: `(branch, name, inner)`.
    forks: Vec<(u32, String, Arc<DbInner>)>,
}

impl Family {
    fn new() -> Arc<Family> {
        Arc::new(Family {
            state: Mutex::new(FamilyState {
                next_branch: 1,
                forks: Vec::new(),
            }),
        })
    }

    fn alloc_branch(&self) -> u32 {
        let mut st = self.state.lock();
        let b = st.next_branch;
        st.next_branch += 1;
        b
    }

    fn bump_next_branch(&self, min_next: u32) {
        let mut st = self.state.lock();
        st.next_branch = st.next_branch.max(min_next);
    }

    fn add_fork(&self, branch: u32, name: String, inner: Arc<DbInner>) {
        self.state.lock().forks.push((branch, name, inner));
    }

    fn remove_fork(&self, branch: u32) {
        self.state.lock().forks.retain(|(b, _, _)| *b != branch);
    }

    fn fork_by_name(&self, name: &str) -> Option<(u32, Arc<DbInner>)> {
        self.state
            .lock()
            .forks
            .iter()
            .find(|(_, n, _)| n == name)
            .map(|(b, _, inner)| (*b, Arc::clone(inner)))
    }

    fn forks(&self) -> Vec<(u32, String, Arc<DbInner>)> {
        self.state.lock().forks.clone()
    }
}

/// One policy-retained commit snapshot (`AS OF` support): the version
/// manager pins its page versions against purge; the catalog clone
/// restores the metadata view of that moment.
struct RetainedSnapshot {
    ts: u64,
    at: Instant,
    catalog: Catalog,
}

pub(crate) struct DbInner {
    pub(crate) cfg: DbConfig,
    pub(crate) dir: PathBuf,
    pub(crate) sas: Arc<Sas>,
    pub(crate) store: Arc<FilePageStore>,
    pub(crate) txns: Arc<TxnManager>,
    pub(crate) wal: Arc<Mutex<WalWriter>>,
    pub(crate) catalog: RwLock<Catalog>,
    pub(crate) gate: Arc<TxnGate>,
    /// The branch this handle reads and writes ([`ROOT_BRANCH`] for the
    /// primary database).
    pub(crate) branch: u32,
    /// Fork name; empty for the root.
    pub(crate) name: String,
    /// The family registry shared with every fork of this database.
    pub(crate) family: Arc<Family>,
    /// Strong reference to the root member (forks only; `None` on the
    /// root itself). Keeps the root's catalog reachable for family-wide
    /// checkpoints even if the caller dropped its root handle.
    root: Option<Arc<DbInner>>,
    /// Fork-family metric handles; registered once, in the root's
    /// registry, and shared by every member.
    pub(crate) fork_metrics: ForkMetrics,
    /// Ring of policy-retained snapshots of *this* branch, oldest first
    /// (see [`DbConfig::retain_snapshots`] / [`DbConfig::retain_ms`]).
    retained: Mutex<VecDeque<RetainedSnapshot>>,
    pub(crate) obs: DbObs,
    /// Session admission control (live-session accounting behind
    /// [`Database::try_session`]); see [`SessionGate`].
    pub(crate) sessions: SessionGate,
    /// Catalog generation: bumped on every catalog-shape change (DDL
    /// success, update-transaction rollback restoring catalog entries).
    /// Plan caches key entries by `(statement text, generation)`, so a
    /// bump lazily invalidates every cached plan — in this session and
    /// every other — without a conservative cache clear.
    pub(crate) catalog_generation: CatalogGeneration,
    /// Statistics epoch: bumped on bulk data changes (document load/drop,
    /// committed update statements). The cost-based planner keys cached
    /// plans by it, so plans re-cost once the descriptive-schema
    /// statistics they were estimated from are superseded. Deliberately
    /// separate from `catalog_generation` (shape vs volume).
    pub(crate) stats_epoch: StatsEpoch,
    /// The database-wide plan cache: a statement compiled by one
    /// connection is reused by every other until the catalog generation
    /// or statistics epoch moves. One mutex over one LRU of
    /// `plan_cache_capacity` plans, held around get/insert only — never
    /// across parse or execution. Per family member: a fork never shares
    /// compiled plans (or their generation/stats epochs) with its parent.
    pub(crate) shared_plans: SharedPlanCache,
    /// Ring of recently kept query traces (see [`DbConfig::trace_sample`]).
    pub(crate) traces: TraceBuffer,
    /// Ring of recent slow queries (see [`DbConfig::slow_query_ms`]).
    pub(crate) slow_log: SlowLog,
    /// Live-session activity registry behind [`Database::activity`].
    pub(crate) activity: ActivityTracker,
}

impl DbInner {
    /// Reserves one session slot. With `enforce_limit`, fails once
    /// `cfg.max_sessions` (when non-zero) sessions are live; otherwise
    /// only counts. The matching release happens in `Session::drop`.
    pub(crate) fn reserve_session(&self, enforce_limit: bool) -> DbResult<()> {
        let max = if enforce_limit {
            self.cfg.max_sessions
        } else {
            0
        };
        if !self.sessions.try_admit(max) {
            return Err(DbError::Conflict(format!(
                "session limit reached ({max} active sessions)"
            )));
        }
        self.obs.sessions.add(1);
        Ok(())
    }

    pub(crate) fn release_session(&self) {
        self.sessions.release();
        self.obs.sessions.sub(1);
    }

    /// The SAS view of this branch's latest committed state (what a
    /// session parked between transactions reads through).
    pub(crate) fn latest_view(&self) -> View {
        branch_latest_view(self.branch)
    }

    /// The root member of this family (`self` when this is the root).
    fn root_member(&self) -> &DbInner {
        self.root.as_deref().unwrap_or(self)
    }

    /// Applies the snapshot-retention policy after a successful update
    /// commit: retains the new commit snapshot for `AS OF` reads and
    /// evicts by count and age.
    pub(crate) fn note_retention(&self) {
        let keep = self.cfg.retain_snapshots;
        let max_ms = self.cfg.retain_ms;
        if keep == 0 && max_ms == 0 {
            return;
        }
        let snap = self.txns.versions.create_snapshot_on(self.branch);
        let mut ring = self.retained.lock();
        if ring.back().is_some_and(|r| r.ts == snap.ts) {
            // Already retained at this ts; drop the extra pin.
            self.txns.versions.release_snapshot_on(self.branch, snap.ts);
        } else {
            ring.push_back(RetainedSnapshot {
                ts: snap.ts,
                at: Instant::now(),
                catalog: self.catalog.read().clone(),
            });
        }
        while keep > 0 && ring.len() > keep {
            let r = ring.pop_front().expect("ring non-empty");
            self.txns.versions.release_snapshot_on(self.branch, r.ts);
        }
        if max_ms > 0 {
            let cutoff = std::time::Duration::from_millis(max_ms);
            while ring.front().is_some_and(|r| r.at.elapsed() > cutoff) {
                let r = ring.pop_front().expect("ring non-empty");
                self.txns.versions.release_snapshot_on(self.branch, r.ts);
            }
        }
    }

    /// Releases every policy-retained snapshot (fork drop).
    fn clear_retention(&self) {
        let mut ring = self.retained.lock();
        for r in ring.drain(..) {
            self.txns.versions.release_snapshot_on(self.branch, r.ts);
        }
    }
}

/// A Sedna database instance — the root of a fork family, or one of its
/// copy-on-write forks (see [`Database::fork`]).
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
}

impl Database {
    fn sas_config(cfg: &DbConfig) -> SasConfig {
        SasConfig {
            page_size: cfg.page_size,
            layer_size: cfg.layer_size,
            buffer_frames: cfg.buffer_frames,
        }
    }

    /// Creates a new database in `dir` (which is created if missing).
    pub fn create(dir: &Path, cfg: DbConfig) -> DbResult<Database> {
        std::fs::create_dir_all(dir)?;
        let store = Arc::new(FilePageStore::create(&dir.join(DATA_FILE), cfg.page_size)?);
        let txns = Arc::new(TxnManager::new(Arc::clone(&store) as Arc<dyn PageStore>));
        let resolver: Arc<dyn PageResolver> = Arc::clone(&txns.versions) as Arc<dyn PageResolver>;
        let sas = Sas::new(
            Self::sas_config(&cfg),
            Arc::clone(&store) as Arc<dyn PageStore>,
            resolver,
        )?;
        txns.versions.set_pool(Arc::clone(sas.pool()));
        let wal = WalWriter::create(&dir.join(WAL_FILE))?;
        let obs = DbObs::new();
        sas.pool().metrics().register_into(&obs.registry);
        txns.metrics().register_into(&obs.registry);
        wal.metrics().register_into(&obs.registry);
        let fork_metrics = ForkMetrics::default();
        fork_metrics.register_into(&obs.registry);
        fork_metrics.branches.set(1);
        let shared_plans = SharedPlanCache::new(
            cfg.plan_cache_capacity,
            obs.query.plan_cache_shared_lock_waits.clone(),
        );
        let db = Database {
            inner: Arc::new(DbInner {
                cfg,
                dir: dir.to_path_buf(),
                sas,
                store,
                txns,
                wal: Arc::new(Mutex::new(wal)),
                catalog: RwLock::new(Catalog::default()),
                gate: Arc::new(TxnGate::new()),
                branch: ROOT_BRANCH,
                name: String::new(),
                family: Family::new(),
                root: None,
                fork_metrics,
                retained: Mutex::new(VecDeque::new()),
                obs,
                sessions: SessionGate::new(),
                catalog_generation: CatalogGeneration::new(),
                stats_epoch: StatsEpoch::new(),
                shared_plans,
                traces: TraceBuffer::new(TRACE_RING_CAPACITY),
                slow_log: SlowLog::new(SLOW_LOG_CAPACITY),
                activity: ActivityTracker::default(),
            }),
        };
        // Baseline checkpoint so recovery always has a starting snapshot.
        db.checkpoint()?;
        Ok(db)
    }

    /// Builds a family member sharing the storage/transaction/WAL stack
    /// of `shared` but carrying its own branch, catalog, and per-database
    /// state (plan caches, metrics ring, sessions, ...).
    fn new_family_member(
        shared: &Arc<DbInner>,
        branch: u32,
        name: String,
        mut catalog: Catalog,
    ) -> Arc<DbInner> {
        // Forks register only their per-fork metric families; the shared
        // pool/txn/wal/fork handles live in the root's registry and must
        // not be duplicated (the governor merges every registry).
        let obs = DbObs::new();
        for idx in catalog.indexes.values_mut() {
            idx.tree.set_metrics(obs.index.clone());
        }
        let root = Some(match &shared.root {
            Some(r) => Arc::clone(r),
            None => Arc::clone(shared),
        });
        let shared_plans = SharedPlanCache::new(
            shared.cfg.plan_cache_capacity,
            obs.query.plan_cache_shared_lock_waits.clone(),
        );
        Arc::new(DbInner {
            cfg: shared.cfg.clone(),
            dir: shared.dir.clone(),
            sas: Arc::clone(&shared.sas),
            store: Arc::clone(&shared.store),
            txns: Arc::clone(&shared.txns),
            wal: Arc::clone(&shared.wal),
            catalog: RwLock::new(catalog),
            gate: Arc::clone(&shared.gate),
            branch,
            name,
            family: Arc::clone(&shared.family),
            root,
            fork_metrics: shared.fork_metrics.clone(),
            retained: Mutex::new(VecDeque::new()),
            obs,
            sessions: SessionGate::new(),
            catalog_generation: CatalogGeneration::new(),
            stats_epoch: StatsEpoch::new(),
            shared_plans,
            traces: TraceBuffer::new(TRACE_RING_CAPACITY),
            slow_log: SlowLog::new(SLOW_LOG_CAPACITY),
            activity: ActivityTracker::default(),
        })
    }

    /// Forks this database instantly: the fork shares every committed
    /// page with its branch point copy-on-write and diverges through the
    /// ordinary version-chain write path. O(catalog): no data page is
    /// read or copied; the cost is one catalog clone plus one WAL record.
    ///
    /// The fork is durable (it survives restart and checkpoint) and
    /// lives until [`Database::drop_fork`] — dropping all handles to it
    /// does not discard it. Fork names are unique within the family.
    pub fn fork(&self, name: &str) -> DbResult<Database> {
        if name.is_empty() {
            return Err(DbError::Conflict("fork name must not be empty".into()));
        }
        let inner = &self.inner;
        inner.gate.run_exclusive(|| -> DbResult<Database> {
            if inner.family.fork_by_name(name).is_some() {
                return Err(DbError::Conflict(format!("fork '{name}' already exists")));
            }
            let branch = inner.family.alloc_branch();
            let ts = inner.txns.versions.current_ts();
            {
                let mut wal = inner.wal.lock();
                wal.append(&WalRecord::Fork {
                    branch,
                    parent: inner.branch,
                    ts,
                    name: name.to_string(),
                })?;
                wal.flush()?;
            }
            inner.txns.versions.create_branch(branch, inner.branch, ts);
            let catalog = inner.catalog.read().clone();
            let fork = Self::new_family_member(inner, branch, name.to_string(), catalog);
            inner
                .family
                .add_fork(branch, name.to_string(), Arc::clone(&fork));
            inner.fork_metrics.creates.inc();
            inner
                .fork_metrics
                .branches
                .set(inner.txns.versions.stats().branches as i64);
            Ok(Database { inner: fork })
        })
    }

    /// Drops the fork named `name` from this family, reclaiming every
    /// page version unique to it. Refused while the fork has child forks
    /// or live sessions.
    pub fn drop_fork(&self, name: &str) -> DbResult<()> {
        let inner = &self.inner;
        let (branch, fork) = inner
            .family
            .fork_by_name(name)
            .ok_or_else(|| DbError::NotFound(format!("fork '{name}'")))?;
        inner.gate.run_exclusive(|| -> DbResult<()> {
            if inner.txns.versions.has_children(branch) {
                return Err(DbError::Conflict(format!(
                    "fork '{name}' has child forks; drop them first"
                )));
            }
            if fork.sessions.active() > 0 {
                return Err(DbError::Conflict(format!(
                    "fork '{name}' has active sessions"
                )));
            }
            fork.clear_retention();
            {
                let mut wal = inner.wal.lock();
                wal.append(&WalRecord::DropFork { branch })?;
                wal.flush()?;
            }
            inner.txns.versions.drop_branch(branch);
            inner.family.remove_fork(branch);
            inner.fork_metrics.drops.inc();
            inner
                .fork_metrics
                .branches
                .set(inner.txns.versions.stats().branches as i64);
            Ok(())
        })
    }

    /// The live forks of this family as `(name, handle)` pairs, in
    /// creation order.
    pub fn forks(&self) -> Vec<(String, Database)> {
        self.inner
            .family
            .forks()
            .into_iter()
            .map(|(_, name, inner)| (name, Database { inner }))
            .collect()
    }

    /// The branch id this handle operates on (`0` for the root).
    pub fn branch(&self) -> u32 {
        self.inner.branch
    }

    /// Whether this handle is a fork (not the family root).
    pub fn is_fork(&self) -> bool {
        self.inner.branch != ROOT_BRANCH
    }

    /// The fork's name; `None` on the root.
    pub fn fork_name(&self) -> Option<&str> {
        (!self.inner.name.is_empty()).then_some(self.inner.name.as_str())
    }

    /// The commit timestamp at which this fork branched off its parent
    /// (the branch point); `None` on the root.
    pub fn fork_point(&self) -> Option<u64> {
        self.inner
            .txns
            .versions
            .branches()
            .into_iter()
            .find(|(b, _)| *b == self.inner.branch)
            .map(|(_, info)| info.fork_ts)
    }

    /// Commit timestamps currently retained for `AS OF` reads on this
    /// branch, oldest first (see [`DbConfig::retain_snapshots`]).
    pub fn retained_snapshots(&self) -> Vec<u64> {
        self.inner.retained.lock().iter().map(|r| r.ts).collect()
    }

    /// Opens a read-only time-travel session pinned to the newest
    /// retained snapshot with commit timestamp `<= ts` (`AS OF` reads).
    /// The session sees that historical state byte-for-byte while
    /// concurrent writers proceed non-blocking; any update statement or
    /// explicit transaction control on it is rejected. Fails when the
    /// retention policy ([`DbConfig::retain_snapshots`] /
    /// [`DbConfig::retain_ms`]) holds no snapshot at or before `ts`.
    pub fn session_as_of(&self, ts: u64) -> DbResult<Session> {
        let inner = &self.inner;
        let (snap_ts, catalog) = {
            let ring = inner.retained.lock();
            ring.iter()
                .rev()
                .find(|r| r.ts <= ts)
                .map(|r| (r.ts, r.catalog.clone()))
        }
        .ok_or_else(|| {
            DbError::NotFound(format!(
                "no retained snapshot at or before ts {ts} (see DbConfig::retain_snapshots)"
            ))
        })?;
        let handle = inner
            .txns
            .begin_read_only_at(inner.branch, snap_ts)
            .ok_or_else(|| {
                DbError::Conflict(format!("snapshot {snap_ts} is no longer retained"))
            })?;
        inner
            .reserve_session(false)
            .expect("unlimited reservation cannot fail");
        Ok(Session::new_as_of(Arc::clone(inner), handle, catalog))
    }

    /// Opens an existing database, running the two-step recovery of §6.4:
    /// restore the persistent snapshot from the last checkpoint, then redo
    /// committed transactions from the log.
    pub fn open(dir: &Path, cfg: DbConfig) -> DbResult<Database> {
        Self::open_with_limit(dir, cfg, None)
    }

    /// Opens with point-in-time recovery: only transactions with
    /// `commit_ts <= upto_ts` are redone (§6.5 incremental backups).
    pub fn open_with_limit(dir: &Path, cfg: DbConfig, upto_ts: Option<u64>) -> DbResult<Database> {
        let wal_path = dir.join(WAL_FILE);
        let mut plan = plan_recovery(&wal_path, upto_ts)?;
        let store = Arc::new(FilePageStore::open(&dir.join(DATA_FILE), cfg.page_size)?);
        let txns = Arc::new(TxnManager::new(Arc::clone(&store) as Arc<dyn PageStore>));
        let resolver: Arc<dyn PageResolver> = Arc::clone(&txns.versions) as Arc<dyn PageResolver>;
        let sas = Sas::new(
            Self::sas_config(&cfg),
            Arc::clone(&store) as Arc<dyn PageStore>,
            resolver,
        )?;
        txns.versions.set_pool(Arc::clone(sas.pool()));
        let versions = &txns.versions;

        // Per-branch reconstruction state: catalogs keyed by branch, and
        // the definition of every branch alive at the end of replay.
        let mut catalogs: HashMap<u32, Catalog> = HashMap::new();
        catalogs.insert(ROOT_BRANCH, Catalog::default());
        let mut branch_defs: Vec<(u32, String)> = Vec::new();
        let mut max_branch = ROOT_BRANCH;

        // -------- Step 1: restore the persistent snapshot. --------
        if let Some(cp) = &plan.checkpoint {
            for &(page, phys, branch, ts) in &cp.page_table {
                store.mark_allocated(phys);
                versions.install_committed_at(branch, page, phys, ts);
            }
            for &(page, branch, ts) in &cp.drops {
                versions.install_drop(branch, page, ts);
            }
            let catalog = catalog::catalog_from_blob(&cp.catalog)
                .ok_or_else(|| DbError::Conflict("corrupt catalog in checkpoint record".into()))?;
            catalogs.insert(ROOT_BRANCH, catalog);
            for BranchMeta {
                branch,
                parent,
                fork_ts,
                name,
                catalog,
            } in &cp.branches
            {
                versions.create_branch(*branch, *parent, *fork_ts);
                let cat = catalog::catalog_from_blob(catalog).ok_or_else(|| {
                    DbError::Conflict(format!(
                        "corrupt fork catalog in checkpoint (branch {branch})"
                    ))
                })?;
                catalogs.insert(*branch, cat);
                branch_defs.push((*branch, name.clone()));
                max_branch = max_branch.max(*branch);
            }
        }

        // -------- Step 2: redo committed transactions, interleaved with
        // fork lifecycle events in exact log order. An event anchored at
        // redo index `i` applies after the first `i` redo entries. The
        // redo list is consumed: each image is dropped once written.
        let redo = std::mem::take(&mut plan.redo);
        let redo_pages: HashSet<u64> = redo
            .iter()
            .flat_map(|(_, _, ops)| ops)
            .filter_map(|op| match op {
                RedoOp::Page(page, ..) => Some(page.raw()),
                _ => None,
            })
            .collect();
        let mut redo = redo.into_iter();
        let mut page_buf = vec![0u8; cfg.page_size];
        let mut events = plan.branch_events.iter().peekable();
        for idx in 0..=redo.len() {
            while let Some((anchor, ev)) = events.peek() {
                if *anchor > idx {
                    break;
                }
                match ev {
                    BranchEvent::Fork {
                        branch,
                        parent,
                        ts,
                        name,
                    } => {
                        versions.create_branch(*branch, *parent, *ts);
                        let parent_cat = catalogs.get(parent).cloned().unwrap_or_default();
                        catalogs.insert(*branch, parent_cat);
                        branch_defs.push((*branch, name.clone()));
                        max_branch = max_branch.max(*branch);
                    }
                    BranchEvent::DropFork { branch } => {
                        versions.drop_branch(*branch);
                        catalogs.remove(branch);
                        branch_defs.retain(|(b, _)| b != branch);
                    }
                }
                events.next();
            }
            let Some((_txn, ts, ops)) = redo.next() else {
                continue;
            };
            // Where a page's redone state goes: the newest same-branch slot
            // when no child branch still resolves to it; otherwise the old
            // image stays live and the redo gets a fresh slot.
            let redo_slot = |branch: u32, page: XPtr| -> DbResult<sedna_sas::PhysId> {
                if let Some(p) = versions.redo_reuse_slot(branch, page, ts) {
                    return Ok(p);
                }
                let p = store.alloc()?;
                versions.install_committed_at(branch, page, p, ts);
                Ok(p)
            };
            for op in ops {
                match op {
                    RedoOp::Page(page, branch, PageOp::Image(image)) => {
                        store.write(redo_slot(branch, page)?, &image)?;
                    }
                    RedoOp::Page(page, branch, PageOp::Delta(ranges)) => {
                        // The base is what the branch sees at this point
                        // of the replay: the same version the commit
                        // diffed against, or — replaying over an
                        // interrupted recovery's writes — a later state of
                        // it, which the ranges still converge from (see
                        // `sedna_wal::delta`). Resolved before the slot
                        // choice, which may re-stamp that very version.
                        let base = versions.resolve_read(page, branch_latest_view(branch))?;
                        store.read(base, &mut page_buf)?;
                        if !sedna_wal::delta::apply(&mut page_buf, &ranges) {
                            return Err(DbError::Conflict(format!(
                                "log delta for page {page} does not fit a {}-byte page",
                                cfg.page_size
                            )));
                        }
                        store.write(redo_slot(branch, page)?, &page_buf)?;
                    }
                    RedoOp::Page(page, branch, PageOp::Free) => {
                        versions.install_drop(branch, page, ts);
                    }
                    RedoOp::CatalogPut(branch, key, payload) => {
                        let cat = catalogs.entry(branch).or_default();
                        apply_catalog_put(cat, &key, &payload)?;
                    }
                    RedoOp::CatalogDrop(branch, key) => {
                        if let Some(cat) = catalogs.get_mut(&branch) {
                            apply_catalog_drop(cat, &key);
                        }
                    }
                }
            }
        }
        versions.set_current_ts(plan.max_ts);

        // Sweep versions no surviving view resolves to (images superseded
        // within the log tail, versions whose only reader was a dropped
        // fork), then rebuild the free-slot list from what remains.
        versions.purge_all();
        let live: BTreeSet<u64> = versions.live_phys().into_iter().map(|p| p.0).collect();
        store.rebuild_free_list(&live);

        // Rebuild the SAS address allocator: next address past every live
        // page (checkpoint free-list recycled addresses are dropped —
        // they are regained at the post-recovery checkpoint).
        let alloc_state = rebuild_alloc(
            plan.checkpoint.as_ref(),
            redo_pages,
            cfg.page_size,
            cfg.layer_size,
        );
        sas.allocator().restore(alloc_state);

        // Appending resumes where the recovery scan found the log's end.
        let wal = WalWriter::open(&wal_path, plan.end_lsn)?;
        let obs = DbObs::new();
        sas.pool().metrics().register_into(&obs.registry);
        txns.metrics().register_into(&obs.registry);
        wal.metrics().register_into(&obs.registry);
        let fork_metrics = ForkMetrics::default();
        fork_metrics.register_into(&obs.registry);
        let mut catalog = catalogs.remove(&ROOT_BRANCH).unwrap_or_default();
        // Recovered indexes report into this database's shared handles.
        for idx in catalog.indexes.values_mut() {
            idx.tree.set_metrics(obs.index.clone());
        }
        let shared_plans = SharedPlanCache::new(
            cfg.plan_cache_capacity,
            obs.query.plan_cache_shared_lock_waits.clone(),
        );
        let db = Database {
            inner: Arc::new(DbInner {
                cfg,
                dir: dir.to_path_buf(),
                sas,
                store,
                txns,
                wal: Arc::new(Mutex::new(wal)),
                catalog: RwLock::new(catalog),
                gate: Arc::new(TxnGate::new()),
                branch: ROOT_BRANCH,
                name: String::new(),
                family: Family::new(),
                root: None,
                fork_metrics,
                retained: Mutex::new(VecDeque::new()),
                obs,
                sessions: SessionGate::new(),
                catalog_generation: CatalogGeneration::new(),
                stats_epoch: StatsEpoch::new(),
                shared_plans,
                traces: TraceBuffer::new(TRACE_RING_CAPACITY),
                slow_log: SlowLog::new(SLOW_LOG_CAPACITY),
                activity: ActivityTracker::default(),
            }),
        };
        // Rebuild surviving forks (ids are monotonic, so sorting puts
        // parents before children; `new_family_member` only needs the
        // root's shared stack either way).
        db.inner.family.bump_next_branch(max_branch + 1);
        let mut defs = branch_defs;
        defs.sort_by_key(|(b, _)| *b);
        for (branch, name) in defs {
            let cat = catalogs.remove(&branch).unwrap_or_default();
            let fork = Self::new_family_member(&db.inner, branch, name.clone(), cat);
            db.inner.family.add_fork(branch, name, fork);
        }
        db.inner
            .fork_metrics
            .branches
            .set(db.inner.txns.versions.stats().branches as i64);
        // Standard practice: checkpoint right after recovery, so the next
        // crash replays from here.
        db.checkpoint()?;
        Ok(db)
    }

    /// Opens a session (connection) on this database. The embedded
    /// entry point: never rejected, but counted against the limit
    /// [`Database::try_session`] enforces.
    pub fn session(&self) -> Session {
        self.inner
            .reserve_session(false)
            .expect("unlimited reservation cannot fail");
        Session::new(Arc::clone(&self.inner))
    }

    /// Opens a session subject to admission control: fails with
    /// [`DbError::Conflict`] once [`DbConfig::max_sessions`] sessions
    /// (when non-zero) are live. The network layer connects through
    /// this entry point.
    pub fn try_session(&self) -> DbResult<Session> {
        self.inner.reserve_session(true)?;
        Ok(Session::new(Arc::clone(&self.inner)))
    }

    /// Number of live sessions on this database.
    pub fn active_sessions(&self) -> usize {
        self.inner.sessions.active()
    }

    /// The current catalog generation. Bumped on every catalog-shape
    /// change (DDL, update-transaction rollback); plan caches key
    /// entries by `(statement text, generation)` so stale plans miss
    /// instead of requiring a conservative clear.
    pub fn catalog_generation(&self) -> u64 {
        self.inner.catalog_generation.current()
    }

    /// The current statistics epoch. Bumped on every bulk data change
    /// (document load/drop, committed update statement); the cost-based
    /// planner keys cached plans by it so access-path choices are
    /// re-costed once the statistics that justified them are superseded.
    pub fn stats_epoch(&self) -> u64 {
        self.inner.stats_epoch.current()
    }

    /// A snapshot of the descriptive-schema statistics of document
    /// `doc`: one row per schema node (path, kind, node/block counts,
    /// total text bytes, child fan-out histogram). This is the raw
    /// material of the cost-based planner, exposed for introspection
    /// and tests.
    pub fn schema_stats(&self, doc: &str) -> DbResult<Vec<sedna_schema::SchemaNodeStats>> {
        let catalog = self.inner.catalog.read();
        let data = catalog
            .docs
            .get(doc)
            .ok_or_else(|| DbError::NotFound(format!("document '{doc}'")))?;
        Ok(data.schema.stats_snapshot())
    }

    /// Buffer pages currently pinned by live page guards (open cursors,
    /// in-flight statements).
    pub fn pinned_pages(&self) -> i64 {
        self.inner.sas.pool().pinned()
    }

    /// High-water mark of concurrently pinned buffer pages since the
    /// last [`Database::reset_pinned_peak`]. A streamed scan keeps this
    /// bounded by the cursor's pipeline depth plus a small constant,
    /// independent of result cardinality.
    pub fn pinned_pages_peak(&self) -> i64 {
        self.inner.sas.pool().pinned_peak()
    }

    /// Resets the pinned-pages high-water mark (benchmark harness hook).
    pub fn reset_pinned_peak(&self) {
        self.inner.sas.pool().reset_pinned_peak()
    }

    /// Entries currently in the database-wide shared plan cache.
    pub fn shared_plan_count(&self) -> usize {
        self.inner.shared_plans.len()
    }

    /// A pg_stat_activity-style view of this database: one row per live
    /// session (current statement, statement age, transaction mode,
    /// items streamed), plus the database-wide pinned-page count. The
    /// view is advisory — rows may lag the sessions by a beat.
    pub fn activity(&self) -> ActivityReport {
        ActivityReport {
            sessions: self.inner.activity.snapshot(),
            pinned_pages: self.inner.sas.pool().pinned(),
        }
    }

    /// The recent slow queries (statements whose pipeline total exceeded
    /// [`DbConfig::slow_query_ms`]), most recent first. Each entry
    /// carries the id of its captured trace when one was kept.
    pub fn slow_log(&self) -> Vec<SlowQueryEntry> {
        self.inner.slow_log.entries()
    }

    /// The spans of a kept trace, if it is still in the trace ring.
    /// Render them with [`sedna_obs::chrome_trace_json`] for
    /// `chrome://tracing` / Perfetto.
    pub fn get_trace(&self, trace_id: u64) -> Option<Vec<SpanEvent>> {
        self.inner.traces.get(trace_id)
    }

    /// Closes the database for shutdown: forces the log, then takes a
    /// final checkpoint (which drains active update transactions via the
    /// checkpoint gate and fixates a transaction-consistent snapshot).
    /// The handle remains usable afterwards; `close` only guarantees
    /// durability of everything committed so far.
    pub fn close(&self) -> DbResult<()> {
        self.inner.wal.lock().flush()?;
        self.checkpoint()
    }

    /// Takes a checkpoint: flushes the buffer pool, fixates the
    /// transaction-consistent state as the **persistent snapshot**, and
    /// logs it (§6.4). The checkpoint covers the whole fork family —
    /// every branch's latest state and catalog is carried by the record.
    pub fn checkpoint(&self) -> DbResult<()> {
        self.checkpoint_inner(self.inner.cfg.truncate_log_on_checkpoint)
    }

    fn checkpoint_inner(&self, truncate_log: bool) -> DbResult<()> {
        let inner = &self.inner;
        inner.gate.run_exclusive(|| -> DbResult<()> {
            inner.sas.flush_all()?;
            inner.store.sync()?;
            let snap = inner.txns.versions.create_snapshot();
            inner.txns.versions.mark_persistent(snap.ts);
            // The create_snapshot ref is dropped; persistence keeps it.
            inner.txns.versions.release_snapshot(snap.ts);
            let alloc = inner.sas.allocator().state();
            let (page_table, drops) = inner.txns.versions.checkpoint_table();
            let infos: HashMap<u32, sedna_txn::BranchInfo> =
                inner.txns.versions.branches().into_iter().collect();
            let mut branches = Vec::new();
            for (branch, name, member) in inner.family.forks() {
                let Some(info) = infos.get(&branch) else {
                    continue;
                };
                branches.push(BranchMeta {
                    branch,
                    parent: info.parent,
                    fork_ts: info.fork_ts,
                    name,
                    catalog: catalog::catalog_blob(&member.catalog.read()),
                });
            }
            let cp = CheckpointData {
                ts: snap.ts,
                page_table,
                drops,
                alloc: AllocSnapshot {
                    next_layer: alloc.next_layer,
                    next_addr: alloc.next_addr,
                    free: alloc.free,
                },
                catalog: catalog::catalog_blob(&inner.root_member().catalog.read()),
                branches,
            };
            let mut wal = inner.wal.lock();
            let cp_lsn = wal.append(&WalRecord::Checkpoint(cp))?;
            wal.flush()?;
            if truncate_log && cp_lsn > 0 {
                // Log rotation: the checkpoint record carries the complete
                // base state, so records before it can never be replayed.
                wal.truncate_prefix(cp_lsn)?;
                write_epoch(&inner.dir, read_epoch(&inner.dir) + 1)?;
            }
            Ok(())
        })
    }

    /// Simulates a crash: all buffered (unflushed) state is dropped
    /// without write-back. The on-disk data file and log remain; reopen
    /// with [`Database::open`] to run recovery. Test/experiment support.
    pub fn crash(self) {
        self.inner.sas.pool().drop_all();
    }

    /// Takes a full hot backup into `dest_dir` (§6.5): a checkpoint
    /// fixates the base state and rotates the log, then the data file and
    /// the (now short) log are copied. Incremental backups taken later
    /// against this directory stay valid until the next full backup
    /// rotates the log again.
    pub fn backup(&self, dest_dir: &Path) -> DbResult<()> {
        self.checkpoint_inner(true)?;
        sedna_wal::backup::full_backup(
            &self.inner.dir.join(DATA_FILE),
            &self.inner.dir.join(WAL_FILE),
            dest_dir,
        )?;
        write_epoch(dest_dir, read_epoch(&self.inner.dir))?;
        Ok(())
    }

    /// Takes an incremental hot backup (log only) against a prior full
    /// backup in `base_dir`.
    pub fn backup_incremental(&self, base_dir: &Path) -> DbResult<PathBuf> {
        // The base is only extendable while the log has not been rotated
        // since it was taken.
        if read_epoch(base_dir) != read_epoch(&self.inner.dir) {
            return Err(DbError::Conflict(
                "the log was rotated by a checkpoint after this full backup;                  take a new full backup before further incrementals"
                    .into(),
            ));
        }
        self.inner.wal.lock().flush()?;
        Ok(sedna_wal::backup::incremental_backup(
            &self.inner.dir.join(WAL_FILE),
            base_dir,
        )?)
    }

    /// Restores a backup into `target_dir` and opens the database there.
    /// `increments` selects how many incremental parts to apply (`None` =
    /// all); `upto_ts` optionally limits recovery to a point in time.
    pub fn restore(
        backup_dir: &Path,
        target_dir: &Path,
        cfg: DbConfig,
        increments: Option<usize>,
        upto_ts: Option<u64>,
    ) -> DbResult<Database> {
        sedna_wal::backup::restore_backup(backup_dir, target_dir, increments)?;
        Self::open_with_limit(target_dir, cfg, upto_ts)
    }

    /// Buffer-pool statistics. The pool — like the data file — is shared
    /// by the whole fork family: a page referenced by several branches is
    /// cached (and pinned) once, not once per fork.
    pub fn buffer_stats(&self) -> sedna_sas::BufferStats {
        self.inner.sas.pool().stats()
    }

    /// A point-in-time snapshot of every metric of this database
    /// (buffer pool, WAL, transactions, indexes, query pipeline). Taken
    /// through the registry's consistent-read path; see `docs/metrics.md`
    /// for the metric catalogue.
    pub fn metrics_snapshot(&self) -> sedna_obs::MetricsSnapshot {
        self.inner.obs.registry.snapshot()
    }

    /// Version-manager statistics.
    pub fn version_stats(&self) -> sedna_txn::VersionStats {
        self.inner.txns.versions.stats()
    }

    /// Names of the documents in the catalog.
    pub fn document_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.catalog.read().docs.keys().cloned().collect();
        names.sort();
        names
    }

    /// Names of the indexes in the catalog.
    pub fn index_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.catalog.read().indexes.keys().cloned().collect();
        names.sort();
        names
    }
}

fn apply_catalog_put(catalog: &mut Catalog, key: &str, payload: &[u8]) -> DbResult<()> {
    if let Some(name) = key.strip_prefix("doc:") {
        let data = catalog::doc_from_payload(payload)
            .ok_or_else(|| DbError::Conflict(format!("corrupt catalog record for {key}")))?;
        catalog.next_doc_id = catalog.next_doc_id.max(data.id + 1);
        catalog.docs.insert(name.to_string(), data);
        Ok(())
    } else if let Some(name) = key.strip_prefix("index:") {
        let data = catalog::index_from_payload(payload)
            .ok_or_else(|| DbError::Conflict(format!("corrupt catalog record for {key}")))?;
        catalog.indexes.insert(name.to_string(), data);
        Ok(())
    } else {
        Err(DbError::Conflict(format!("unknown catalog key '{key}'")))
    }
}

fn apply_catalog_drop(catalog: &mut Catalog, key: &str) {
    if let Some(name) = key.strip_prefix("doc:") {
        catalog.docs.remove(name);
    } else if let Some(name) = key.strip_prefix("index:") {
        catalog.indexes.remove(name);
    }
}

/// Computes a safe post-recovery allocator state.
///
/// The checkpoint's allocator state predates any post-checkpoint redo
/// allocations, so the result must be at least as far as both the
/// checkpointed `next` pointer and one page past every page seen in the
/// checkpoint table or the redo log. Recycled addresses from the
/// checkpoint's free list are kept only if the redo log did not re-issue
/// them.
fn rebuild_alloc(
    checkpoint: Option<&CheckpointData>,
    redo_pages: HashSet<u64>,
    page_size: usize,
    layer_size: u64,
) -> sedna_sas::AllocState {
    // Every page address known to exist (checkpoint + redo, including
    // pages later freed — their addresses were issued at some point).
    let mut seen = redo_pages;
    if let Some(cp) = checkpoint {
        seen.extend(cp.page_table.iter().map(|(page, ..)| page.raw()));
        seen.extend(cp.drops.iter().map(|(page, ..)| page.raw()));
    }
    let max_page = seen.iter().copied().map(XPtr::from_raw).max();

    // "One page past the maximum", as (layer, addr).
    let past_max = max_page.map(|p| {
        let next = p.addr() as u64 + page_size as u64;
        if next >= layer_size {
            (p.layer() + 1, 0u32)
        } else {
            (p.layer(), next as u32)
        }
    });

    // The checkpointed allocator's next pointer; the sentinel
    // `next_addr == u32::MAX` means "nothing issued yet" and must not be
    // compared as a huge address.
    let cp = checkpoint.map(|c| &c.alloc);
    let cp_next = cp.and_then(|a| (a.next_addr != u32::MAX).then_some((a.next_layer, a.next_addr)));

    let (next_layer, next_addr) = match (past_max, cp_next) {
        (None, None) => (0, u32::MAX), // truly fresh database
        (Some(n), None) => n,
        (None, Some(c)) => c,
        (Some(n), Some(c)) => n.max(c),
    };

    // Free-list entries stay recyclable unless redo re-issued them.
    let free: Vec<XPtr> = cp
        .map(|a| {
            a.free
                .iter()
                .copied()
                .filter(|p| !seen.contains(&p.raw()))
                .collect()
        })
        .unwrap_or_default();

    sedna_sas::AllocState {
        next_layer,
        next_addr,
        free,
    }
}
