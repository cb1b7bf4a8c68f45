//! Sessions (the connection component of Figure 1) and transactions.
//!
//! "For each Sedna client, the governor creates an instance of the
//! connection component [...] For each database transaction initiated by
//! a client, the connection component creates an instance of the
//! transaction component. The transaction component encapsulates
//! components involved in query execution: parser, optimizer, and
//! executor."
//!
//! A session executes statements either in auto-commit mode (each
//! `execute` is its own transaction) or inside an explicit transaction
//! ([`Session::begin_update`] / [`Session::begin_read_only`] …
//! [`Session::commit`] / [`Session::rollback`]).
//!
//! Commit protocol (WAL, §6.4): each of the transaction's working pages
//! is logged as the byte ranges it changed relative to the committed
//! version it supersedes (or as a full after-image when it has none on
//! this branch), page frees and catalog entries follow, then the commit
//! record; the log is forced before locks are released.
//! Rollback needs no undo log — working page versions are simply
//! discarded (§6.1) and the in-memory catalog entries are restored from
//! the transaction's undo copies.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Instant;

use parking_lot::Mutex;
use sedna_sync::Arc;

use sedna_obs::trace::{events, SamplingPolicy, TraceCollector};
use sedna_sas::{Vas, XPtr};
use sedna_schema::{NodeKind, SchemaTree};
use sedna_storage::{build, indirection, NodeRef};
use sedna_txn::{LockMode, TxnHandle};
use sedna_wal::WalRecord;
use sedna_xquery::ast::{DdlStmt, Expr, PathStart, Statement, StatementKind, UpdateStmt};
use sedna_xquery::exec::ExecStats;
use sedna_xquery::planner::{self, AccessPath, IndexSpec, PlanDecision, PlannerInput};
use sedna_xquery::update;
use sedna_xquery::value::Atom;

use crate::cancel::CancelFlag;
use crate::catalog::{self, Catalog, DocData, IndexData, IndexMeta};
use crate::database::DbInner;
use crate::error::{DbError, DbResult};
use crate::introspect::{SessionTrack, TxnMode};
use crate::metrics::QueryProfile;
use crate::plan_cache::PlanKey;
use crate::stream::{elapsed_ns, query_view, Pull, QueryCursor, RenderedItem, StatementObs};

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// A query's serialized result sequence.
    Results(String),
    /// An update's affected-node count.
    Updated(usize),
    /// A DDL statement completed.
    Done,
}

impl ExecOutcome {
    /// The serialized results (empty string for non-queries).
    pub fn into_string(self) -> String {
        match self {
            ExecOutcome::Results(s) => s,
            ExecOutcome::Updated(n) => n.to_string(),
            ExecOutcome::Done => String::new(),
        }
    }
}

/// The result of executing one statement with item-granular query
/// results: each sequence item is serialized separately, so callers
/// (the network layer's fetch-next path, cursors) can stream results
/// item-at-a-time instead of receiving one concatenated string.
#[derive(Debug)]
pub enum StreamOutcome {
    /// A query's result items, each independently serialized. Queries
    /// take this (drained) form only when they run inside an explicit
    /// transaction, whose state lives on the session and cannot migrate
    /// into a detached cursor.
    Items(Vec<String>),
    /// A live streaming cursor over an auto-commit query: items are
    /// produced on demand, and the cursor's private read-only
    /// transaction stays open until it is drained or dropped. Boxed:
    /// the cursor (pipeline state + trace buffer) dwarfs the other
    /// variants, and the enum travels by value through every statement.
    Cursor(Box<QueryCursor>),
    /// An update's affected-node count.
    Updated(usize),
    /// A DDL statement completed.
    Done,
}

/// Joins per-item renderings into the classic single-string result,
/// inserting a space only between adjacent atoms.
fn join_items(items: &[RenderedItem]) -> String {
    let mut out = String::new();
    let mut prev_atom = false;
    for item in items {
        if item.atom && prev_atom {
            out.push(' ');
        }
        out.push_str(&item.text);
        prev_atom = item.atom;
    }
    out
}

/// Adds the already-measured parse/rewrite phase spans under the root
/// statement span. Absent on plan-cache hits, which report zero
/// planning time.
fn record_phase_spans(tc: &mut Option<TraceCollector>, parse_ns: u64, rewrite_ns: u64) {
    let Some(t) = tc else { return };
    if parse_ns == 0 && rewrite_ns == 0 {
        return;
    }
    let now = t.now_ns();
    let parse_begin = now.saturating_sub(parse_ns + rewrite_ns);
    t.add_complete(
        events::QUERY_PARSE,
        1,
        parse_begin,
        parse_begin + parse_ns,
        String::new(),
    );
    t.add_complete(
        events::QUERY_REWRITE,
        1,
        parse_begin + parse_ns,
        now,
        String::new(),
    );
}

/// The catalog entries a query reads: documents and the indexes on them.
type TxnView = (Vec<(String, DocData)>, Vec<(String, IndexData)>);

/// Internal statement outcome carrying item granularity.
enum InnerOutcome {
    /// An auto-commit query: an open cursor nothing has been pulled from.
    Cursor(Box<QueryCursor>),
    /// A query inside a transaction, drained.
    Items(Vec<RenderedItem>),
    Updated(usize),
    Done,
}

enum TxnState {
    ReadOnly {
        handle: TxnHandle,
        /// Catalog snapshot taken at begin — the transaction-consistent
        /// metadata matching the pinned page snapshot.
        snapshot: Catalog,
    },
    Update {
        handle: TxnHandle,
        /// Original catalog entries of touched objects (None = created by
        /// this transaction), for in-memory rollback.
        undo_docs: HashMap<String, Option<DocData>>,
        undo_indexes: HashMap<String, Option<IndexData>>,
        /// Keys needing CatalogPut at commit.
        touched: HashSet<String>,
        /// Keys needing CatalogDrop at commit.
        dropped: HashSet<String>,
    },
}

/// A client session.
pub struct Session {
    db: Arc<DbInner>,
    vas: Vas,
    txn: Option<TxnState>,
    /// Executor counters of the **last** statement. Reset (overwritten)
    /// by every statement this session executes: queries report their
    /// executor's counters, updates the planning executor's, DDL resets
    /// to zero. Use [`Session::session_stats`] for totals accumulated
    /// across statements.
    pub last_stats: ExecStats,
    /// Counters accumulated across every statement of this session.
    session_stats: ExecStats,
    /// Profile of the last executed statement, written by the statement
    /// close-out. Shared with the cursors this session opens: a cursor
    /// writes its finished profile (executor counters + operator tree)
    /// into this slot when it is drained or dropped.
    last_profile: Arc<Mutex<Option<QueryProfile>>>,
    /// This session's row in the database's activity view.
    track: Arc<SessionTrack>,
    /// When true, query plans run with per-operator wall-clock timing
    /// (set by `EXPLAIN ANALYZE` and while a trace is being collected).
    time_plans: bool,
    /// When true, every statement is traced and its trace published,
    /// regardless of the database's sampling policy (the wire protocol's
    /// per-request trace flag).
    trace_forced: bool,
    /// Access-path decision of the statement most recently *compiled*
    /// by this session (plan-cache misses only: a cache hit reuses the
    /// already-costed statement — whichever session compiled it — and
    /// leaves this untouched). `None` until
    /// the session compiles a statement with the cost-based planner
    /// enabled.
    last_decision: Option<PlanDecision>,
    /// `AS OF` time-travel session: permanently pinned to one retained
    /// snapshot. The read-only transaction it was created with lives for
    /// the whole session; explicit transaction control is rejected.
    pinned: bool,
    /// Cancellation flag shared with whoever drives this session (the
    /// wire layer's per-connection flag). Checked at statement start and,
    /// via [`StatementObs`], on every cursor pull.
    cancel: CancelFlag,
}

impl Session {
    pub(crate) fn new(db: Arc<DbInner>) -> Session {
        let vas = db.sas.session();
        // Parked sessions read this branch's latest committed state (the
        // root and every fork get their own latest-view encoding).
        vas.begin(db.latest_view(), None);
        let track = db.activity.register();
        Session {
            db,
            vas,
            txn: None,
            last_stats: ExecStats::default(),
            session_stats: ExecStats::default(),
            last_profile: Arc::new(Mutex::new(None)),
            track,
            time_plans: false,
            trace_forced: false,
            last_decision: None,
            pinned: false,
            cancel: CancelFlag::new(),
        }
    }

    /// The session's cancellation flag. [`CancelFlag::cancel`] on any
    /// clone makes the next statement start — and any live streaming
    /// cursor's next pull — fail with [`DbError::Cancelled`];
    /// [`CancelFlag::clear`] re-arms the session.
    pub fn cancel_flag(&self) -> CancelFlag {
        self.cancel.clone()
    }

    /// Replaces the session's cancellation flag with `flag`, so a driver
    /// holding the flag before the session exists (the wire layer's
    /// per-connection flag) can wire it in at `StartSession` time.
    pub fn set_cancel_flag(&mut self, flag: CancelFlag) {
        self.cancel = flag;
    }

    /// Builds an `AS OF` session: read-only, pinned for its whole
    /// lifetime to the retained snapshot `handle` references, seeing
    /// `catalog` (the metadata as of that snapshot). Created through
    /// [`Database::session_as_of`].
    ///
    /// [`Database::session_as_of`]: crate::Database::session_as_of
    pub(crate) fn new_as_of(db: Arc<DbInner>, handle: TxnHandle, catalog: Catalog) -> Session {
        let mut session = Session::new(db);
        session.vas.begin(handle.view(), None);
        session.txn = Some(TxnState::ReadOnly {
            handle,
            snapshot: catalog,
        });
        session.track.set_txn_mode(TxnMode::ReadOnly);
        session.pinned = true;
        session
    }

    /// Whether this is a pinned `AS OF` time-travel session.
    pub fn is_as_of(&self) -> bool {
        self.pinned
    }

    /// The commit timestamp of the snapshot a pinned `AS OF` session
    /// reads; `None` on ordinary sessions.
    pub fn as_of_ts(&self) -> Option<u64> {
        if !self.pinned {
            return None;
        }
        match &self.txn {
            Some(TxnState::ReadOnly { handle, .. }) => match handle.kind {
                sedna_txn::TxnKind::ReadOnly { snapshot_ts } => Some(snapshot_ts),
                _ => None,
            },
            _ => None,
        }
    }

    /// Forces trace collection (and publication) for every statement
    /// this session executes while set, regardless of the database's
    /// sampling policy. The network layer sets this around a request
    /// whose per-request trace flag is on.
    pub fn set_trace_forced(&mut self, on: bool) {
        self.trace_forced = on;
    }

    /// The per-phase timing and executor-counter profile of the last
    /// executed statement (EXPLAIN-ANALYZE style); `None` until a
    /// statement succeeds. Overwritten by each success; left untouched
    /// by statements that fail before they execute and by failed
    /// updates. A query handed back as a live cursor first reports only
    /// its planning phases, then the cursor overwrites the profile with
    /// the full picture (counters + operator tree) when it finishes —
    /// drained, dropped, or stopped by a failed pull.
    pub fn last_profile(&self) -> Option<QueryProfile> {
        self.last_profile.lock().clone()
    }

    /// Id of the most recent trace this session published into the
    /// database's trace ring (0 = none yet) — the resolution target the
    /// wire protocol uses for "get my last trace".
    pub fn last_trace_id(&self) -> u64 {
        self.track.last_trace()
    }

    /// Executor counters accumulated across every statement this session
    /// has executed (never reset implicitly; see
    /// [`Session::reset_session_stats`]).
    pub fn session_stats(&self) -> ExecStats {
        self.session_stats
    }

    /// The cost-based planner's decision for the statement this session
    /// most recently **compiled** — access path chosen, index rewrites
    /// applied, predicates reordered, and the estimated cardinality.
    /// Untouched by plan-cache hits (the cached statement already embodies
    /// its decision); `None` until a compile happens with
    /// [`DbConfig::cost_based_planner`] enabled.
    ///
    /// [`DbConfig::cost_based_planner`]: crate::DbConfig::cost_based_planner
    pub fn last_plan_decision(&self) -> Option<PlanDecision> {
        self.last_decision
    }

    /// Zeroes the accumulated [`Session::session_stats`] totals.
    pub fn reset_session_stats(&mut self) {
        self.session_stats = ExecStats::default();
    }

    // ==============================================================
    // Transaction control
    // ==============================================================

    /// Begins an explicit update transaction.
    pub fn begin_update(&mut self) -> DbResult<()> {
        if self.pinned {
            return Err(DbError::Conflict(
                "AS OF sessions are pinned to their snapshot; transaction control is not available"
                    .into(),
            ));
        }
        if self.txn.is_some() {
            return Err(DbError::Conflict("a transaction is already active".into()));
        }
        self.db.gate.enter_shared();
        let handle = self.db.txns.begin_update_on(self.db.branch);
        self.vas.begin(handle.view(), handle.token());
        {
            let mut wal = self.db.wal.lock();
            wal.append(&WalRecord::Begin { txn: handle.id.0 })?;
        }
        self.txn = Some(TxnState::Update {
            handle,
            undo_docs: HashMap::new(),
            undo_indexes: HashMap::new(),
            touched: HashSet::new(),
            dropped: HashSet::new(),
        });
        self.track.set_txn_mode(TxnMode::Update);
        Ok(())
    }

    /// Begins an explicit read-only transaction (§6.3): it pins the
    /// current snapshot and takes **no** document locks — "reading a
    /// snapshot allows non-blocking processing for read-only
    /// transactions".
    pub fn begin_read_only(&mut self) -> DbResult<()> {
        if self.pinned {
            return Err(DbError::Conflict(
                "AS OF sessions are pinned to their snapshot; transaction control is not available"
                    .into(),
            ));
        }
        if self.txn.is_some() {
            return Err(DbError::Conflict("a transaction is already active".into()));
        }
        let handle = self.db.txns.begin_read_only_on(self.db.branch);
        self.vas.begin(handle.view(), None);
        let snapshot = self.db.catalog.read().clone();
        self.txn = Some(TxnState::ReadOnly { handle, snapshot });
        self.track.set_txn_mode(TxnMode::ReadOnly);
        Ok(())
    }

    /// Commits the active transaction.
    pub fn commit(&mut self) -> DbResult<()> {
        if self.pinned {
            return Err(DbError::Conflict(
                "AS OF sessions are pinned to their snapshot; transaction control is not available"
                    .into(),
            ));
        }
        match self.txn.take() {
            None => Err(DbError::Conflict("no active transaction".into())),
            Some(TxnState::ReadOnly { handle, .. }) => {
                self.db.txns.commit(&handle);
                self.vas.begin(self.db.latest_view(), None);
                self.track.set_txn_mode(TxnMode::None);
                Ok(())
            }
            Some(TxnState::Update {
                handle,
                touched,
                dropped,
                ..
            }) => {
                // No plan-cache invalidation here: catalog-shape changes
                // already bumped the catalog generation when the DDL
                // executed, and plans cached after it carry the new
                // generation — they stay valid across this commit.
                let result = self.commit_update(&handle, &touched, &dropped);
                self.db.gate.exit_shared();
                self.vas.begin(self.db.latest_view(), None);
                self.track.set_txn_mode(TxnMode::None);
                if result.is_ok() {
                    // Snapshot-retention policy: keep this commit
                    // reachable for AS OF readers (no-op when disabled).
                    self.db.note_retention();
                }
                result
            }
        }
    }

    fn commit_update(
        &mut self,
        handle: &TxnHandle,
        touched: &HashSet<String>,
        dropped: &HashSet<String>,
    ) -> DbResult<()> {
        let versions = &self.db.txns.versions;
        let txn_id = handle.id;
        {
            let mut wal = self.db.wal.lock();
            // 1. What each working page changed: its byte-range delta
            // against the committed version it supersedes (still in the
            // version chain until step 4's purge), or its full image when
            // there is no such version on this branch.
            let pool = self.db.sas.pool();
            let store = self.db.sas.store().as_ref();
            let mut base_buf = Vec::new();
            for work in versions.working_pages(txn_id) {
                let image = self.vas.read(work.page)?;
                let base = match work.base {
                    Some(phys) => {
                        base_buf.resize(image.len(), 0);
                        pool.read_into(phys, store, &mut base_buf)?;
                        Some(base_buf.as_slice())
                    }
                    None => None,
                };
                wal.append_page(txn_id.0, self.db.branch, work.page, base, &image)?;
            }
            // 2. Page frees.
            for page in versions.pending_frees(txn_id) {
                wal.append(&WalRecord::PageFree {
                    txn: txn_id.0,
                    branch: self.db.branch,
                    page,
                })?;
            }
            // 3. Catalog deltas.
            let catalog = self.db.catalog.read();
            for key in touched {
                if dropped.contains(key) {
                    continue;
                }
                let payload = if let Some(name) = key.strip_prefix("doc:") {
                    catalog::doc_payload(catalog.doc(name)?)
                } else if let Some(name) = key.strip_prefix("index:") {
                    let idx = catalog
                        .indexes
                        .get(name)
                        .ok_or_else(|| DbError::NotFound(format!("index '{name}'")))?;
                    catalog::index_payload(idx)
                } else {
                    continue;
                };
                wal.append(&WalRecord::CatalogPut {
                    txn: txn_id.0,
                    branch: self.db.branch,
                    key: key.clone(),
                    payload,
                })?;
            }
            for key in dropped {
                wal.append(&WalRecord::CatalogDrop {
                    txn: txn_id.0,
                    branch: self.db.branch,
                    key: key.clone(),
                })?;
            }
            // 4. Make the versions current, then force the commit record.
            let ts = versions.commit(txn_id);
            wal.append(&WalRecord::Commit { txn: txn_id.0, ts })?;
            wal.flush()?;
        }
        // 5. Strict 2PL: release everything only now.
        self.db.txns.locks.release_all(txn_id);
        // This path commits through the version manager directly (the
        // WAL interleaving above), bypassing `TxnManager::commit` — so
        // the commit is counted here.
        self.db.txns.metrics().commits.inc();
        Ok(())
    }

    /// Rolls back the active transaction. "If it is rolled back, all its
    /// versions are simply discarded."
    pub fn rollback(&mut self) -> DbResult<()> {
        if self.pinned {
            return Err(DbError::Conflict(
                "AS OF sessions are pinned to their snapshot; transaction control is not available"
                    .into(),
            ));
        }
        match self.txn.take() {
            None => Err(DbError::Conflict("no active transaction".into())),
            Some(TxnState::ReadOnly { handle, .. }) => {
                self.db.txns.abort(&handle);
                self.vas.begin(self.db.latest_view(), None);
                self.track.set_txn_mode(TxnMode::None);
                Ok(())
            }
            Some(TxnState::Update {
                handle,
                undo_docs,
                undo_indexes,
                ..
            }) => {
                let restored = !undo_docs.is_empty() || !undo_indexes.is_empty();
                // Restore catalog entries.
                {
                    let mut catalog = self.db.catalog.write();
                    for (name, prev) in undo_docs {
                        match prev {
                            Some(d) => {
                                catalog.docs.insert(name, d);
                            }
                            None => {
                                catalog.docs.remove(&name);
                            }
                        }
                    }
                    for (name, prev) in undo_indexes {
                        match prev {
                            Some(d) => {
                                catalog.indexes.insert(name, d);
                            }
                            None => {
                                catalog.indexes.remove(&name);
                            }
                        }
                    }
                }
                {
                    let mut wal = self.db.wal.lock();
                    let _ = wal.append(&WalRecord::Abort { txn: handle.id.0 });
                }
                let fresh = self.db.txns.abort(&handle);
                for page in fresh {
                    self.db.sas.allocator().free_page(page);
                }
                self.db.gate.exit_shared();
                self.vas.begin(self.db.latest_view(), None);
                self.track.set_txn_mode(TxnMode::None);
                if restored {
                    // The rollback rewound catalog entries, so plans
                    // cached since (at the in-transaction generation)
                    // are stale: bump so they key-miss everywhere.
                    self.db.catalog_generation.bump();
                }
                Ok(())
            }
        }
    }

    fn in_update_txn(&self) -> bool {
        matches!(self.txn, Some(TxnState::Update { .. }))
    }

    // ==============================================================
    // Statement execution
    // ==============================================================

    /// Executes one statement (query, update, or DDL). Outside an explicit
    /// transaction, the statement runs in its own auto-committed
    /// transaction (read-only for queries, updating otherwise). A query
    /// is a cursor opened and drained on the spot.
    pub fn execute(&mut self, text: &str) -> DbResult<ExecOutcome> {
        Ok(match self.run_statement(text)? {
            InnerOutcome::Cursor(mut cursor) => {
                let items = cursor.drain()?;
                self.note_query_stats(cursor.stats());
                ExecOutcome::Results(join_items(&items))
            }
            InnerOutcome::Items(items) => ExecOutcome::Results(join_items(&items)),
            InnerOutcome::Updated(n) => ExecOutcome::Updated(n),
            InnerOutcome::Done => ExecOutcome::Done,
        })
    }

    /// Executes one statement like [`Session::execute`], but returns a
    /// query's result sequence **item-at-a-time** instead of one joined
    /// string. An auto-commit query comes back as a live
    /// [`StreamOutcome::Cursor`]: nothing has executed yet, the first
    /// pull produces the first item without scanning the rest, and the
    /// cursor's private read-only transaction (and its page pins) are
    /// released when it is drained or dropped. A query inside an
    /// explicit transaction runs through the same cursor pipeline over
    /// the session's transaction and comes back drained, as
    /// [`StreamOutcome::Items`]. For a live cursor,
    /// [`Session::last_profile`] reports only the planning phases until
    /// the cursor finishes and [`Session::last_stats`] stays zeroed —
    /// the cursor folds its counters into the database-wide metrics when
    /// it finishes.
    pub fn execute_stream(&mut self, text: &str) -> DbResult<StreamOutcome> {
        Ok(match self.run_statement(text)? {
            InnerOutcome::Cursor(cursor) => StreamOutcome::Cursor(cursor),
            InnerOutcome::Items(items) => {
                StreamOutcome::Items(items.into_iter().map(|i| i.text).collect())
            }
            InnerOutcome::Updated(n) => StreamOutcome::Updated(n),
            InnerOutcome::Done => StreamOutcome::Done,
        })
    }

    /// Convenience: executes a query and returns the serialized results.
    pub fn query(&mut self, text: &str) -> DbResult<String> {
        Ok(self.execute(text)?.into_string())
    }

    /// Executes the statement with per-operator wall-clock timing
    /// enabled and returns the rendered report: phase timings, executor
    /// counters, and (for queries) the operator tree with per-operator
    /// pulls, items, and self-time. The statement really runs — updates
    /// apply, exactly like PostgreSQL's `EXPLAIN ANALYZE`.
    pub fn explain_analyze(&mut self, text: &str) -> DbResult<String> {
        let prev = self.time_plans;
        self.time_plans = true;
        let result = self.execute(text);
        self.time_plans = prev;
        result?;
        Ok(self
            .last_profile
            .lock()
            .as_ref()
            .map(QueryProfile::render)
            .unwrap_or_default())
    }

    /// Runs one statement up to the point its outcome exists: an
    /// auto-commit query is an open cursor nothing has been pulled from,
    /// a query inside a transaction has been drained, an update or DDL
    /// statement has applied.
    fn run_statement(&mut self, text: &str) -> DbResult<InnerOutcome> {
        self.track.set_statement(text);
        let result = self.run_statement_observed(text);
        // A live cursor keeps the statement visible in the activity view
        // until it finishes (its close-out clears it); every other
        // outcome is done now.
        if !matches!(result, Ok(InnerOutcome::Cursor(_))) {
            self.track.clear_statement();
        }
        result
    }

    fn run_statement_observed(&mut self, text: &str) -> DbResult<InnerOutcome> {
        if self.cancel.is_cancelled() {
            return Err(DbError::Cancelled);
        }
        let started = Instant::now();
        let mut trace = self.start_trace(text);
        let (stmt, parse_ns, rewrite_ns) = self.plan_statement(text)?;
        record_phase_spans(&mut trace, parse_ns, rewrite_ns);
        let obs = StatementObs {
            text: text.to_string(),
            started,
            parse_ns,
            rewrite_ns,
            timed: self.time_plans,
            trace,
            forced: self.trace_forced,
            track: Arc::clone(&self.track),
            profile_slot: Arc::clone(&self.last_profile),
            cancel: self.cancel.clone(),
        };
        if !matches!(stmt.kind, StatementKind::Query(_)) {
            return self.run_update_statement(stmt, obs);
        }
        if self.txn.is_none() {
            // Auto-commit: the cursor owns a read-only transaction of
            // its own and outlives this call.
            let cursor = QueryCursor::open(Arc::clone(&self.db), stmt, obs)?;
            self.last_stats = ExecStats::default();
            *self.last_profile.lock() = Some(QueryProfile {
                parse_ns,
                rewrite_ns,
                execute_ns: 0,
                stats: ExecStats::default(),
                plan: None,
            });
            return Ok(InnerOutcome::Cursor(Box::new(cursor)));
        }
        // Inside a transaction: the same engine over the session's
        // storage session and the transaction's view of the catalog. The
        // transaction's state lives on the session and cannot migrate
        // into a detached cursor, so the engine is drained here; whether
        // the query succeeds or fails, the transaction stays open.
        let (docs, indexes) = self.txn_view(&stmt)?;
        let mut pull = Pull::open(&self.db, stmt, obs, docs, indexes, None)?;
        let items = pull.drain(&self.db, &self.vas)?;
        self.note_query_stats(pull.stats());
        Ok(InnerOutcome::Items(items))
    }

    /// Records a drained query's executor counters as the session's
    /// last-statement and accumulated statistics.
    fn note_query_stats(&mut self, stats: ExecStats) {
        self.last_stats = stats;
        self.session_stats.merge(&stats);
    }

    /// Parse + analyse + rewrite + cost-based plan, behind the
    /// database-wide plan cache: a statement compiled by one connection
    /// is reused by every other until its [`PlanKey`] (catalog
    /// generation, statistics epoch) moves. Cached plans report zero
    /// parse/rewrite nanoseconds.
    fn plan_statement(&mut self, text: &str) -> DbResult<(Statement, u64, u64)> {
        let key = PlanKey {
            generation: self.db.catalog_generation.current(),
            stats_epoch: self.db.stats_epoch.current(),
        };
        if let Some(stmt) = self.db.shared_plans.get(text, key) {
            self.db.obs.query.plan_cache_hits.inc();
            return Ok((stmt, 0, 0));
        }
        // Missed: run the front half of the paper's pipeline, timed per
        // phase. Handles are clones sharing the database-wide
        // histograms, so the spans record even on error.
        let q = self.db.obs.query.clone();
        q.plan_cache_misses.inc();
        let parse_span = q.parse_ns.span();
        let stmt = sedna_xquery::parser::parse_statement(text)?;
        let parse_ns = parse_span.finish();
        let rewrite_span = q.rewrite_ns.span();
        let stmt = sedna_xquery::static_ctx::analyze(stmt)?;
        let mut stmt = sedna_xquery::rewrite::rewrite_statement(stmt);
        if self.db.cfg.cost_based_planner {
            self.cost_plan(&mut stmt);
        }
        let rewrite_ns = rewrite_span.finish();
        self.db.shared_plans.insert(text, key, stmt.clone());
        Ok((stmt, parse_ns, rewrite_ns))
    }

    /// Runs the cost-based planner over a freshly rewritten statement:
    /// assembles the planner's view (the referenced documents'
    /// descriptive-schema statistics plus the declared indexes on them)
    /// under a short catalog read guard, lets it rewrite profitable
    /// equality predicates onto B-tree index scans and order predicates
    /// by selectivity, then records the access-path choice in the
    /// `sedna_plan_chosen_*` counters and
    /// [`Session::last_plan_decision`].
    fn cost_plan(&mut self, stmt: &mut Statement) {
        let decision = {
            let catalog = self.db.catalog.read();
            let names = collect_doc_names(stmt);
            let docs: HashMap<String, &SchemaTree> = names
                .iter()
                .filter_map(|n| catalog.docs.get(n).map(|d| (n.clone(), &d.schema)))
                .collect();
            let indexes: Vec<IndexSpec> = catalog
                .indexes
                .values()
                .filter(|i| docs.contains_key(&i.meta.doc))
                .map(|i| IndexSpec {
                    name: i.meta.name.clone(),
                    doc: i.meta.doc.clone(),
                    on: i.meta.on.clone(),
                    by: i.meta.by.clone(),
                    key_type: i.meta.key_type,
                })
                .collect();
            planner::plan_statement(stmt, &PlannerInput { docs, indexes })
        };
        let q = &self.db.obs.query;
        match decision.access_path {
            AccessPath::Scan => q.plan_chosen_scan.inc(),
            AccessPath::Index => q.plan_chosen_index.inc(),
            AccessPath::Descendant => q.plan_chosen_descendant.inc(),
        }
        self.last_decision = Some(decision);
    }

    /// Opens a trace for this statement when the database's sampling
    /// policy elects it, with the root statement span already begun.
    fn start_trace(&self, text: &str) -> Option<TraceCollector> {
        let policy = self.db.cfg.trace_sample;
        let elected = policy != SamplingPolicy::Off && policy.collect(self.db.traces.next_seq());
        if !elected && !self.trace_forced {
            return None;
        }
        let mut tc = TraceCollector::new(self.db.traces.next_trace_id());
        let root = tc.begin(events::QUERY_STATEMENT, 0);
        tc.set_detail(root, text.to_string());
        Some(tc)
    }

    /// Runs an update or DDL statement in the session's update
    /// transaction — its own auto-committed one outside an explicit
    /// transaction — and closes the statement out when it succeeded.
    fn run_update_statement(
        &mut self,
        stmt: Statement,
        mut obs: StatementObs,
    ) -> DbResult<InnerOutcome> {
        let implicit = self.txn.is_none();
        if implicit {
            self.begin_update()?;
        } else if !self.in_update_txn() {
            return Err(DbError::Conflict(
                "updates are not allowed in a read-only transaction".into(),
            ));
        }
        let execute_started = Instant::now();
        let result = match &stmt.kind {
            StatementKind::Update(_) => self.run_update(&stmt).map(InnerOutcome::Updated),
            StatementKind::Ddl(ddl) => self.run_ddl(ddl.clone()).map(|()| {
                self.last_stats = ExecStats::default();
                InnerOutcome::Done
            }),
            StatementKind::Query(_) => {
                Err(DbError::Conflict("queries execute through a cursor".into()))
            }
        };
        let execute_ns = elapsed_ns(execute_started);
        if implicit {
            match &result {
                Ok(_) => self.commit()?,
                Err(_) => {
                    let _ = self.rollback();
                }
            }
        }
        if result.is_ok() && matches!(stmt.kind, StatementKind::Ddl(_)) {
            // Catalog shape changed: bump the generation so every cached
            // plan key-misses lazily instead of requiring a conservative
            // cache clear.
            self.db.catalog_generation.bump();
        }
        if matches!(&result, Ok(InnerOutcome::Updated(n)) if *n > 0) {
            // Data volume changed (but not the catalog shape): bump the
            // statistics epoch so cached plans re-cost against the new
            // descriptive-schema statistics — an access-path choice that
            // was right at the old cardinalities may have flipped.
            self.db.stats_epoch.bump();
        }
        if result.is_ok() {
            self.session_stats.merge(&self.last_stats);
            obs.close(&self.db, execute_ns, self.last_stats, None);
        }
        result
    }

    // --------------------------------------------------------------
    // Queries
    // --------------------------------------------------------------

    /// The catalog entries a query inside the open transaction reads:
    /// the transaction's catalog snapshot (read-only), or clones of the
    /// referenced documents taken under S locks (updater) — the entries
    /// the updater itself has modified, so it sees its own writes.
    fn txn_view(&self, stmt: &Statement) -> DbResult<TxnView> {
        match &self.txn {
            Some(TxnState::ReadOnly { snapshot, .. }) => Ok((
                snapshot
                    .docs
                    .iter()
                    .map(|(n, d)| (n.clone(), d.clone()))
                    .collect(),
                snapshot
                    .indexes
                    .iter()
                    .map(|(n, d)| (n.clone(), d.clone()))
                    .collect(),
            )),
            Some(TxnState::Update { handle, .. }) => {
                let mut names = collect_doc_names(stmt);
                // Resolve ids under a short catalog guard, then acquire
                // locks with NO catalog guard held (a committing writer
                // needs catalog.write() while holding its X lock — holding
                // the read guard across a lock wait would deadlock), then
                // clone the locked documents.
                let index_names = collect_index_names(stmt);
                let ids: Vec<u64> = {
                    let catalog = self.db.catalog.read();
                    for iname in &index_names {
                        if let Some(idx) = catalog.indexes.get(iname) {
                            if !names.contains(&idx.meta.doc) {
                                names.push(idx.meta.doc.clone());
                            }
                        }
                    }
                    names
                        .iter()
                        .map(|name| catalog.doc(name).map(|d| d.id))
                        .collect::<DbResult<_>>()?
                };
                for &id in &ids {
                    self.db
                        .txns
                        .locks
                        .lock_document(handle.id, id, LockMode::S)?;
                }
                let catalog = self.db.catalog.read();
                let mut docs = Vec::new();
                for name in &names {
                    docs.push((name.clone(), catalog.doc(name)?.clone()));
                }
                let indexes = catalog
                    .indexes
                    .iter()
                    .filter(|(_, i)| names.contains(&i.meta.doc))
                    .map(|(n, d)| (n.clone(), d.clone()))
                    .collect();
                Ok((docs, indexes))
            }
            None => Err(DbError::Conflict("no active transaction".into())),
        }
    }

    // --------------------------------------------------------------
    // Updates
    // --------------------------------------------------------------

    fn run_update(&mut self, stmt: &Statement) -> DbResult<usize> {
        let names = collect_doc_names(stmt);
        // Phase 1 (plan): against the X-locked documents' current state.
        let (plan_doc_name, plan) = {
            let handle = self.current_update_handle()?;
            // Ids under a short guard; lock waits without the guard.
            let ids: Vec<u64> = {
                let catalog = self.db.catalog.read();
                names
                    .iter()
                    .map(|name| catalog.doc(name).map(|d| d.id))
                    .collect::<DbResult<_>>()?
            };
            // Update statements take X locks upfront: acquiring S during
            // planning and upgrading to X later deadlocks two writers on
            // the same document (both hold S, both wait for X).
            for &id in &ids {
                self.db
                    .txns
                    .locks
                    .lock_document(handle.id, id, LockMode::X)?;
            }
            let catalog = self.db.catalog.read();
            let mut docs = Vec::new();
            for name in &names {
                docs.push((name.clone(), catalog.doc(name)?.clone()));
            }
            let view = query_view(&self.vas, &docs, &[]);
            let (doc_idx, plan, plan_stats) = update::plan_update_with_stats(stmt, &view)?;
            self.last_stats = plan_stats;
            (docs[doc_idx].0.clone(), plan)
        };

        // X lock + undo copy for the target document.
        let handle = self.current_update_handle()?;
        let target_id = {
            let catalog = self.db.catalog.read();
            catalog.doc(&plan_doc_name)?.id
        };
        self.db
            .txns
            .locks
            .lock_document(handle.id, target_id, LockMode::X)?;
        self.save_doc_undo(&plan_doc_name)?;

        // Index maintenance, phase A: entries leaving the index.
        let index_names: Vec<String> = {
            let catalog = self.db.catalog.read();
            catalog.indexes_of(&plan_doc_name)
        };
        let mut removals: Vec<(String, Vec<(sedna_index::IndexKey, XPtr)>)> = Vec::new();
        if !index_names.is_empty() {
            let catalog = self.db.catalog.read();
            let d = catalog.doc(&plan_doc_name)?;
            for iname in &index_names {
                let idx = &catalog.indexes[iname];
                let mut entries = Vec::new();
                match &plan {
                    update::UpdatePlan::Delete { targets }
                    | update::UpdatePlan::ReplaceValue { targets, .. } => {
                        for &h in targets {
                            let node = NodeRef(
                                indirection::deref_handle(&self.vas, h)
                                    .map_err(DbError::Storage)?,
                            );
                            self.collect_affected_entries(
                                d,
                                &idx.meta,
                                node,
                                matches!(&plan, update::UpdatePlan::ReplaceValue { .. }),
                                &mut entries,
                            )?;
                        }
                    }
                    update::UpdatePlan::Insert { .. } => {}
                }
                removals.push((iname.clone(), entries));
            }
        }

        // Phase 2: apply.
        let outcome = {
            let mut catalog = self.db.catalog.write();
            let d = catalog.doc_mut(&plan_doc_name)?;
            update::execute_plan(&plan, &self.vas, &mut d.schema, &mut d.storage)?
        };

        // Index maintenance, phase B: apply removals, add new entries.
        if !index_names.is_empty() {
            // Collect additions against the post-update state.
            let mut additions: Vec<(String, Vec<(sedna_index::IndexKey, XPtr)>)> = Vec::new();
            {
                let catalog = self.db.catalog.read();
                let d = catalog.doc(&plan_doc_name)?;
                for iname in &index_names {
                    let idx = &catalog.indexes[iname];
                    let mut entries = Vec::new();
                    match &plan {
                        update::UpdatePlan::Insert { .. } => {
                            for &h in &outcome.inserted_roots {
                                let node = NodeRef(
                                    indirection::deref_handle(&self.vas, h)
                                        .map_err(DbError::Storage)?,
                                );
                                self.collect_affected_entries(
                                    d,
                                    &idx.meta,
                                    node,
                                    true,
                                    &mut entries,
                                )?;
                            }
                        }
                        update::UpdatePlan::ReplaceValue { targets, .. } => {
                            for &h in targets {
                                let node = NodeRef(
                                    indirection::deref_handle(&self.vas, h)
                                        .map_err(DbError::Storage)?,
                                );
                                self.collect_affected_entries(
                                    d,
                                    &idx.meta,
                                    node,
                                    true,
                                    &mut entries,
                                )?;
                            }
                        }
                        update::UpdatePlan::Delete { .. } => {}
                    }
                    additions.push((iname.clone(), entries));
                }
            }
            let mut catalog = self.db.catalog.write();
            for (iname, entries) in removals {
                let idx = catalog
                    .indexes
                    .get_mut(&iname)
                    .ok_or_else(|| DbError::NotFound(format!("index '{iname}'")))?;
                for (key, h) in entries {
                    idx.tree.remove(&self.vas, &key, h)?;
                }
            }
            for (iname, entries) in additions {
                let idx = catalog
                    .indexes
                    .get_mut(&iname)
                    .ok_or_else(|| DbError::NotFound(format!("index '{iname}'")))?;
                for (key, h) in entries {
                    idx.tree.insert(&self.vas, &key, h)?;
                }
            }
            drop(catalog);
            for iname in &index_names {
                self.mark_touched(&format!("index:{iname}"), TouchKind::Index)?;
            }
        }

        self.mark_touched(&format!("doc:{plan_doc_name}"), TouchKind::Doc)?;
        Ok(outcome.affected)
    }

    /// Collects `(key, handle)` entries for index `meta` on document `doc`
    /// among `root` and its descendants (and, when `include_ancestors`,
    /// the indexed ancestors whose BY path may pass through the changed
    /// node). Takes the document from the caller's catalog guard and never
    /// touches the catalog lock itself: a second `read()` under the
    /// caller's would deadlock against a writer queued in between.
    fn collect_affected_entries(
        &self,
        doc: &DocData,
        meta: &IndexMeta,
        root: NodeRef,
        include_ancestors: bool,
        out: &mut Vec<(sedna_index::IndexKey, XPtr)>,
    ) -> DbResult<()> {
        let schema = &doc.schema;
        let mode = doc.storage.mode;
        let on_sids: HashSet<_> = catalog::on_schema_nodes(schema, meta).into_iter().collect();
        // The subtree.
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let sid = n.schema(&self.vas).map_err(DbError::Storage)?;
            if on_sids.contains(&sid) {
                if let Some(raw) = catalog::eval_by_path(&self.vas, schema, n, &meta.by)? {
                    if let Some(key) = catalog::make_key(meta.key_type, &raw) {
                        out.push((key, n.handle(&self.vas).map_err(DbError::Storage)?));
                    }
                }
            }
            if matches!(
                n.kind(&self.vas).map_err(DbError::Storage)?,
                NodeKind::Element | NodeKind::Document
            ) {
                stack.extend(n.children(&self.vas).map_err(DbError::Storage)?);
            }
        }
        // Ancestors (value changes can affect an ancestor's key).
        if include_ancestors {
            let mut cur = root.parent(&self.vas, mode).map_err(DbError::Storage)?;
            while let Some(n) = cur {
                let sid = n.schema(&self.vas).map_err(DbError::Storage)?;
                if on_sids.contains(&sid) {
                    if let Some(raw) = catalog::eval_by_path(&self.vas, schema, n, &meta.by)? {
                        if let Some(key) = catalog::make_key(meta.key_type, &raw) {
                            out.push((key, n.handle(&self.vas).map_err(DbError::Storage)?));
                        }
                    }
                }
                cur = n.parent(&self.vas, mode).map_err(DbError::Storage)?;
            }
        }
        Ok(())
    }

    // --------------------------------------------------------------
    // DDL
    // --------------------------------------------------------------

    fn run_ddl(&mut self, ddl: DdlStmt) -> DbResult<()> {
        let handle = self.current_update_handle()?;
        match ddl {
            DdlStmt::CreateDocument(name) => {
                {
                    let catalog = self.db.catalog.read();
                    if catalog.docs.contains_key(&name) {
                        return Err(DbError::Conflict(format!(
                            "document '{name}' already exists"
                        )));
                    }
                }
                // New object: X database intention is implied by doc lock.
                let mut catalog = self.db.catalog.write();
                let id = catalog.next_doc_id;
                catalog.next_doc_id += 1;
                drop(catalog);
                self.db
                    .txns
                    .locks
                    .lock_document(handle.id, id, LockMode::X)?;
                let mut schema = sedna_schema::SchemaTree::new();
                let storage = sedna_storage::DocStorage::create(
                    &self.vas,
                    &mut schema,
                    self.db.cfg.parent_mode,
                )?;
                let mut catalog = self.db.catalog.write();
                catalog.docs.insert(
                    name.clone(),
                    DocData {
                        id,
                        schema,
                        storage,
                    },
                );
                drop(catalog);
                self.record_undo_doc(&name, None);
                self.mark_touched(&format!("doc:{name}"), TouchKind::Doc)?;
                Ok(())
            }
            DdlStmt::DropDocument(name) => {
                let id = {
                    let catalog = self.db.catalog.read();
                    catalog.doc(&name)?.id
                };
                self.db
                    .txns
                    .locks
                    .lock_document(handle.id, id, LockMode::X)?;
                self.save_doc_undo(&name)?;
                // Free every page of the document.
                let data = {
                    let mut catalog = self.db.catalog.write();
                    catalog
                        .docs
                        .remove(&name)
                        .ok_or_else(|| DbError::NotFound(format!("document '{name}'")))?
                };
                free_document_pages(&self.vas, &data)?;
                // Dependent indexes go too.
                let dependent: Vec<String> = {
                    let catalog = self.db.catalog.read();
                    catalog.indexes_of(&name)
                };
                for iname in dependent {
                    self.drop_index_internal(&iname)?;
                }
                self.mark_dropped(&format!("doc:{name}"))?;
                Ok(())
            }
            DdlStmt::CreateIndex {
                name,
                doc,
                on,
                by,
                key_type,
            } => {
                {
                    let catalog = self.db.catalog.read();
                    if catalog.indexes.contains_key(&name) {
                        return Err(DbError::Conflict(format!("index '{name}' already exists")));
                    }
                }
                let doc_id = {
                    let catalog = self.db.catalog.read();
                    catalog.doc(&doc)?.id
                };
                self.db
                    .txns
                    .locks
                    .lock_document(handle.id, doc_id, LockMode::S)?;
                let meta = IndexMeta {
                    name: name.clone(),
                    doc: doc.clone(),
                    on,
                    by,
                    key_type,
                };
                // Full build over the ON schema nodes' block lists.
                let mut tree = sedna_index::BTreeIndex::create(&self.vas)?;
                tree.set_metrics(self.db.obs.index.clone());
                {
                    let catalog = self.db.catalog.read();
                    let d = catalog.doc(&doc)?;
                    let on_sids = catalog::on_schema_nodes(&d.schema, &meta);
                    for sid in on_sids {
                        for node in scan_schema_list(&self.vas, &d.schema, sid)? {
                            if let Some(raw) =
                                catalog::eval_by_path(&self.vas, &d.schema, node, &meta.by)?
                            {
                                if let Some(key) = catalog::make_key(meta.key_type, &raw) {
                                    let h = node.handle(&self.vas).map_err(DbError::Storage)?;
                                    tree.insert(&self.vas, &key, h)?;
                                }
                            }
                        }
                    }
                }
                let mut catalog = self.db.catalog.write();
                catalog
                    .indexes
                    .insert(name.clone(), IndexData { meta, tree });
                drop(catalog);
                self.record_undo_index(&name, None);
                self.mark_touched(&format!("index:{name}"), TouchKind::Index)?;
                Ok(())
            }
            DdlStmt::DropIndex(name) => self.drop_index_internal(&name),
        }
    }

    fn drop_index_internal(&mut self, name: &str) -> DbResult<()> {
        let data = {
            let catalog = self.db.catalog.read();
            catalog
                .indexes
                .get(name)
                .cloned()
                .ok_or_else(|| DbError::NotFound(format!("index '{name}'")))?
        };
        self.record_undo_index(name, Some(data.clone()));
        data.tree.destroy(&self.vas)?;
        let mut catalog = self.db.catalog.write();
        catalog.indexes.remove(name);
        drop(catalog);
        self.mark_dropped(&format!("index:{name}"))?;
        Ok(())
    }

    // --------------------------------------------------------------
    // Convenience
    // --------------------------------------------------------------

    /// Bulk-loads XML text into an existing (empty) document.
    pub fn load_xml(&mut self, doc_name: &str, xml: &str) -> DbResult<u64> {
        let implicit = self.txn.is_none();
        if implicit {
            self.begin_update()?;
        }
        let result = (|| -> DbResult<u64> {
            let handle = self.current_update_handle()?;
            let id = {
                let catalog = self.db.catalog.read();
                catalog.doc(doc_name)?.id
            };
            self.db
                .txns
                .locks
                .lock_document(handle.id, id, LockMode::X)?;
            self.save_doc_undo(doc_name)?;
            let events = sedna_xml::XmlReader::new(xml)
                .collect_events()
                .map_err(|e| DbError::Conflict(format!("XML parse error: {e}")))?;
            let n = {
                let mut catalog = self.db.catalog.write();
                let d = catalog.doc_mut(doc_name)?;
                if d.storage
                    .doc_node(&self.vas)
                    .map_err(DbError::Storage)?
                    .first_child(&self.vas)
                    .map_err(DbError::Storage)?
                    .is_some()
                {
                    return Err(DbError::Conflict(format!(
                        "document '{doc_name}' is not empty"
                    )));
                }
                build::build_from_events(&self.vas, &mut d.schema, &mut d.storage, &events)?
            };
            // Indexes declared before the load must cover the new nodes.
            // The document was empty, so the whole ON-path population is
            // the delta — the same full build CREATE INDEX performs.
            let index_names: Vec<String> = {
                let catalog = self.db.catalog.read();
                catalog.indexes_of(doc_name)
            };
            for iname in &index_names {
                let entries = {
                    let catalog = self.db.catalog.read();
                    let d = catalog.doc(doc_name)?;
                    let meta = &catalog
                        .indexes
                        .get(iname)
                        .ok_or_else(|| DbError::NotFound(format!("index '{iname}'")))?
                        .meta;
                    let mut out = Vec::new();
                    for sid in catalog::on_schema_nodes(&d.schema, meta) {
                        for node in scan_schema_list(&self.vas, &d.schema, sid)? {
                            if let Some(raw) =
                                catalog::eval_by_path(&self.vas, &d.schema, node, &meta.by)?
                            {
                                if let Some(key) = catalog::make_key(meta.key_type, &raw) {
                                    let h = node.handle(&self.vas).map_err(DbError::Storage)?;
                                    out.push((key, h));
                                }
                            }
                        }
                    }
                    out
                };
                if entries.is_empty() {
                    continue;
                }
                {
                    let mut catalog = self.db.catalog.write();
                    let idx = catalog
                        .indexes
                        .get_mut(iname)
                        .ok_or_else(|| DbError::NotFound(format!("index '{iname}'")))?;
                    for (key, h) in entries {
                        idx.tree.insert(&self.vas, &key, h)?;
                    }
                }
                self.mark_touched(&format!("index:{iname}"), TouchKind::Index)?;
            }
            self.mark_touched(&format!("doc:{doc_name}"), TouchKind::Doc)?;
            Ok(n)
        })();
        if implicit {
            match &result {
                Ok(_) => self.commit()?,
                Err(_) => {
                    let _ = self.rollback();
                }
            }
        }
        if result.is_ok() {
            // A bulk load is the biggest single data-volume change there
            // is: re-cost every cached plan against the new statistics.
            self.db.stats_epoch.bump();
        }
        result
    }

    // --------------------------------------------------------------
    // Internal bookkeeping
    // --------------------------------------------------------------

    fn current_update_handle(&self) -> DbResult<TxnHandle> {
        match &self.txn {
            Some(TxnState::Update { handle, .. }) => Ok(handle.clone()),
            _ => Err(DbError::Conflict("not in an update transaction".into())),
        }
    }

    fn save_doc_undo(&mut self, name: &str) -> DbResult<()> {
        let prev = {
            let catalog = self.db.catalog.read();
            catalog.docs.get(name).cloned()
        };
        self.record_undo_doc(name, prev);
        Ok(())
    }

    fn record_undo_doc(&mut self, name: &str, prev: Option<DocData>) {
        if let Some(TxnState::Update { undo_docs, .. }) = &mut self.txn {
            undo_docs.entry(name.to_string()).or_insert(prev);
        }
    }

    fn record_undo_index(&mut self, name: &str, prev: Option<IndexData>) {
        if let Some(TxnState::Update { undo_indexes, .. }) = &mut self.txn {
            undo_indexes.entry(name.to_string()).or_insert(prev);
        }
    }

    fn mark_touched(&mut self, key: &str, _kind: TouchKind) -> DbResult<()> {
        if let Some(TxnState::Update { touched, .. }) = &mut self.txn {
            touched.insert(key.to_string());
            Ok(())
        } else {
            Err(DbError::Conflict("not in an update transaction".into()))
        }
    }

    fn mark_dropped(&mut self, key: &str) -> DbResult<()> {
        if let Some(TxnState::Update {
            touched, dropped, ..
        }) = &mut self.txn
        {
            touched.remove(key);
            dropped.insert(key.to_string());
            Ok(())
        } else {
            Err(DbError::Conflict("not in an update transaction".into()))
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.pinned {
            // AS OF sessions refuse rollback(); release the pinned
            // snapshot reference directly.
            if let Some(TxnState::ReadOnly { handle, .. }) = self.txn.take() {
                self.db.txns.abort(&handle);
            }
        } else if self.txn.is_some() {
            let _ = self.rollback();
        }
        // Matches the reservation taken in `Database::{session,
        // try_session}` — frees an admission-control slot.
        self.db.release_session();
    }
}

enum TouchKind {
    Doc,
    Index,
}

/// Index names statically referenced via `index-scan`/`index-scan-between`
/// literals (their covering documents must enter the S2PL view too).
fn collect_index_names(stmt: &Statement) -> Vec<String> {
    let mut names = BTreeSet::new();
    visit_statement(stmt, &mut |e| {
        if let Expr::FnCall { name, args, .. } = e {
            if name == "index-scan" || name == "index-scan-between" {
                if let Some(Expr::Literal(Atom::String(n))) = args.first() {
                    names.insert(n.clone());
                }
            }
        }
    });
    names.into_iter().collect()
}

/// Calls `f` on every expression of the statement, subexpressions
/// included (the walk itself is [`Expr::visit`]).
fn visit_statement<'a>(stmt: &'a Statement, f: &mut impl FnMut(&'a Expr)) {
    for v in &stmt.vars {
        v.init.visit(f);
    }
    for func in &stmt.functions {
        func.body.visit(f);
    }
    match &stmt.kind {
        StatementKind::Query(e) => e.visit(f),
        StatementKind::Update(u) => match u {
            UpdateStmt::Insert { what, target, .. } => {
                what.visit(f);
                target.visit(f);
            }
            UpdateStmt::Delete { target } => target.visit(f),
            UpdateStmt::ReplaceValue { target, with } => {
                target.visit(f);
                with.visit(f);
            }
        },
        StatementKind::Ddl(_) => {}
    }
}

/// Document names statically referenced by a statement (`doc('name')`
/// path starts and literal `doc()` calls), sorted.
pub(crate) fn collect_doc_names(stmt: &Statement) -> Vec<String> {
    let mut names = BTreeSet::new();
    visit_statement(stmt, &mut |e| match e {
        Expr::Path {
            start: PathStart::Doc(d),
            ..
        }
        | Expr::StructuralPath { doc: d, .. } => {
            names.insert(d.clone());
        }
        Expr::FnCall { name, args, .. } if name == "doc" || name == "document" => {
            if let Some(Expr::Literal(Atom::String(d))) = args.first() {
                names.insert(d.clone());
            }
        }
        _ => {}
    });
    if let StatementKind::Ddl(DdlStmt::CreateIndex { doc, .. }) = &stmt.kind {
        names.insert(doc.clone());
    }
    names.into_iter().collect()
}

/// Scans one schema node's block list into node refs.
fn scan_schema_list(
    vas: &Vas,
    schema: &sedna_schema::SchemaTree,
    sid: sedna_schema::SchemaNodeId,
) -> DbResult<Vec<NodeRef>> {
    use sedna_storage::{block, descriptor, layout};
    let mut out = Vec::new();
    let mut blk = schema.node(sid).first_block;
    while !blk.is_null() {
        let (mut slot, dsize, next, count) = {
            let page = vas.read(blk)?;
            (
                block::first_desc(&page),
                block::block_desc_size(&page),
                block::next_block(&page),
                block::desc_count(&page),
            )
        };
        let mut walked = 0u16;
        while slot != layout::NO_SLOT {
            if walked > count {
                return Err(DbError::Storage(sedna_storage::StorageError::Corrupt(
                    format!("corrupt in-block chain in {blk}"),
                )));
            }
            walked += 1;
            let off = block::desc_offset(slot, dsize);
            out.push(NodeRef(blk.offset(off as u32)));
            let page = vas.read(blk)?;
            slot = descriptor::next_in_block(&page, off);
        }
        blk = next;
    }
    Ok(out)
}

/// Frees every page belonging to a document: all schema-node block lists,
/// the overflow indirection chain, and the text chain.
fn free_document_pages(vas: &Vas, data: &DocData) -> DbResult<()> {
    use sedna_storage::block;
    let mut pages = Vec::new();
    for sid in data.schema.ids() {
        let mut blk = data.schema.node(sid).first_block;
        while !blk.is_null() {
            let next = {
                let page = vas.read(blk)?;
                block::next_block(&page)
            };
            pages.push(blk);
            blk = next;
        }
    }
    let mut blk = data.storage.overflow_indir;
    while !blk.is_null() {
        let next = {
            let page = vas.read(blk)?;
            block::next_block(&page)
        };
        pages.push(blk);
        blk = next;
    }
    // Text chains (one per schema group).
    for &head in data.storage.text.heads.values() {
        let mut blk = head;
        while !blk.is_null() {
            let next = {
                let page = vas.read(blk)?;
                sedna_sas::XPtr::read_at(&page, sedna_storage::layout::TH_NEXT)
            };
            pages.push(blk);
            blk = next;
        }
    }
    for p in pages {
        vas.free_page(p)?;
    }
    Ok(())
}
